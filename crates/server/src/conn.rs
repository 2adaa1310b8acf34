//! The connection state machine, and the blocking driver that runs it.
//!
//! A [`Session`] is everything the wire protocol knows about one
//! connection: frame reassembly ([`FrameBuffer`]), the first-bytes sniff
//! that tells HTTP admin traffic from binary frames, the frame-damage
//! policy, the fairness cap, the output buffer replies are framed into,
//! and the read path's reused scratch. A driver only moves bytes: it
//! [`feed`](Session::feed)s what it read, calls
//! [`serve`](Session::serve), writes the output buffer, and does what
//! the returned [`Turn`] says. Two drivers exist — [`drive`] below (blocking
//! I/O: the threads model, and the reactor's handoff threads) and the
//! epoll reactor (`crate::reactor`) — so the two I/O models answer
//! byte-identically because there is only one state machine.
//!
//! ```text
//!            bytes            "GET "              frame damage
//!   Start ─────────▶ Binary   Start ──▶ Admin     Binary ──▶ Damaged:
//!                      │               (hand off)   one error frame, input
//!                      │                            discarded, close after
//!                      │       SUBSCRIBE            the queue is written
//!                      ├───────────────▶ Subscribed (hand off)
//!                      ▼
//!   feed ──▶ reassemble ──▶ process_body ──▶ output buffer ──▶ driver writes
//! ```
//!
//! * **Incremental frame reassembly** — [`FrameBuffer`] carries a
//!   consumed-prefix offset and a resumable length-prefix parse, so a
//!   frame split across any number of partial reads is decoded exactly
//!   once, with no re-scanning of consumed bytes. A frame body is lent
//!   out of the buffer, not copied.
//! * **Pipelined decoding with a fairness cap** — one `serve` call
//!   answers at most [`MAX_FRAMES_PER_TURN`] complete frames and returns
//!   [`Turn::More`] when more are buffered; the driver lets its peers run
//!   (the reactor's ready list, the blocking driver's `yield_now`) before
//!   serving again, so one pipelining client cannot starve the rest.
//! * **One `queue_wait` cut** — every frame's trace starts when its turn
//!   began (the `serve` step that peels it, or the instant the fairness
//!   cap deferred the connection) and its read ends when the frame is
//!   peeled off the buffer, whichever driver runs the session.
//! * **Replies framed in place** — `process_body` appends each reply
//!   frame straight to one output buffer, and the driver writes that
//!   buffer with one call; the buffer and the read path's
//!   [`ReadScratch`] keep their capacity across requests, so a warmed
//!   connection answers a `QUERY` or `BATCH` of any size without
//!   allocating.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::Instant;

use crate::farm::ReadScratch;
use crate::protocol::{checksum64, ErrorCode, FrameError, Response, MAX_BODY};
use crate::server::{process_body, serve_admin, serve_subscription, Action, Shared};

/// Fairness cap: the most pipelined frames one connection has answered
/// back-to-back before its driver lets the other connections run.
pub(crate) const MAX_FRAMES_PER_TURN: usize = 32;

/// The largest single read either driver asks the socket for.
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// How far a consumed prefix (of the frame buffer, or of the output
/// buffer) may grow before the buffer compacts.
const COMPACT_AT: usize = 64 * 1024;

/// Incremental frame reassembly: a growable buffer with a consumed
/// prefix and a *resumable* length-prefix parse. Bytes are appended as
/// they arrive; complete frames are peeled off the front, their bodies
/// borrowed from the buffer. The parsed body length is cached across
/// calls, so a frame arriving one byte at a time costs one prefix parse
/// and one checksum pass total — consumed bytes are never re-scanned.
/// The consumed prefix is dropped (the buffer cleared or compacted) at
/// the next [`extend`](FrameBuffer::extend) or
/// [`next_frame`](FrameBuffer::next_frame), once no body borrows it.
struct FrameBuffer {
    buf: Vec<u8>,
    pos: usize,
    /// Body length parsed from the current frame's prefix, once its
    /// four bytes have arrived.
    pending: Option<usize>,
}

impl FrameBuffer {
    fn new() -> FrameBuffer {
        FrameBuffer {
            buf: Vec::new(),
            pos: 0,
            pending: None,
        }
    }

    fn extend(&mut self, bytes: &[u8]) {
        self.settle();
        self.buf.extend_from_slice(bytes);
    }

    /// Drops the consumed prefix when nothing else is buffered, or
    /// compacts it away once it is large.
    fn settle(&mut self) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= COMPACT_AT {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Unconsumed byte count.
    fn available(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The first `n` unconsumed bytes, if that many have arrived.
    fn peek(&self, n: usize) -> Option<&[u8]> {
        (self.available() >= n).then(|| &self.buf[self.pos..self.pos + n])
    }

    /// Every unconsumed byte.
    fn unconsumed(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    /// Peels the next complete frame off the front and lends its body,
    /// `Ok(None)` when more bytes are needed. Frame-level damage (bad
    /// length, checksum mismatch) is an error — the stream position is
    /// garbage from there and the connection must close.
    fn next_frame(&mut self) -> Result<Option<&[u8]>, FrameError> {
        self.settle();
        let body_len = match self.pending {
            Some(len) => len,
            None => {
                let Some(prefix) = self.peek(4) else {
                    return Ok(None);
                };
                let len = u32::from_le_bytes(prefix.try_into().expect("peeked 4"));
                if len == 0 || len > MAX_BODY {
                    return Err(FrameError::BadLength { len });
                }
                self.pending = Some(len as usize);
                len as usize
            }
        };
        if self.available() < 4 + body_len + 8 {
            return Ok(None);
        }
        let start = self.pos + 4;
        let body_end = start + body_len;
        let want = u64::from_le_bytes(
            self.buf[body_end..body_end + 8]
                .try_into()
                .expect("checksum bytes present"),
        );
        if checksum64(&self.buf[start..body_end]) != want {
            return Err(FrameError::Checksum);
        }
        self.pos = body_end + 8;
        self.pending = None;
        Ok(Some(&self.buf[start..body_end]))
    }

    /// Whether another `next_frame` call would make progress: a full
    /// frame is buffered, or the buffered prefix is already known-bad
    /// (so the damage error is worth reporting).
    fn has_work(&self) -> bool {
        let avail = self.available();
        match self.pending {
            Some(len) => avail >= 4 + len + 8,
            None => {
                let Some(prefix) = self.peek(4) else {
                    return false;
                };
                let len = u32::from_le_bytes(prefix.try_into().expect("peeked 4"));
                if len == 0 || len > MAX_BODY {
                    return true;
                }
                avail >= 4 + len as usize + 8
            }
        }
    }
}

/// Where a connection stands in the protocol.
enum Phase {
    /// Fewer than four bytes seen: HTTP admin or binary, not yet known.
    Start,
    /// Length-prefixed binary frames.
    Binary,
    /// Frame-level damage was answered; everything else is discarded.
    Damaged,
    /// `SUBSCRIBE` was accepted: the stream belongs to the log feed.
    Subscribed { from_seq: u64 },
}

/// What one [`Session::serve`] step asks of its driver. Every variant
/// first wants the response queue written.
pub(crate) enum Turn {
    /// The fairness cap ended the turn with complete frames still
    /// buffered: serve again once the other connections have run.
    More,
    /// Every complete frame is answered; read more input.
    Idle,
    /// Close once the queue is written.
    Close,
    /// `GET ` sniffed: the connection is one HTTP admin request.
    Admin,
    /// The connection became a replication subscription.
    Subscribe {
        /// Stream the edit log after this sequence number.
        from_seq: u64,
    },
}

/// One connection's protocol state. See the module docs.
pub(crate) struct Session {
    buf: FrameBuffer,
    phase: Phase,
    /// The peer closed its write half: serve what is buffered, then go.
    read_closed: bool,
    /// Framed responses, written up to `out_head`.
    out: Vec<u8>,
    out_head: usize,
    /// The read path's id and outcome buffers, reused across frames.
    scratch: ReadScratch,
    /// When the fairness cap deferred the frames still buffered, for
    /// the next turn's first `queue_wait`.
    deferred_at: Option<Instant>,
}

impl Session {
    pub(crate) fn new() -> Session {
        Session {
            buf: FrameBuffer::new(),
            phase: Phase::Start,
            read_closed: false,
            out: Vec::new(),
            out_head: 0,
            scratch: ReadScratch::default(),
            deferred_at: None,
        }
    }

    /// Takes bytes read off the connection. An empty slice is the
    /// peer's end of input, as a zero-length read is.
    pub(crate) fn feed(&mut self, bytes: &[u8]) {
        if bytes.is_empty() {
            self.read_closed = true;
        } else if !matches!(self.phase, Phase::Damaged) {
            self.buf.extend(bytes);
        }
    }

    /// Answers up to [`MAX_FRAMES_PER_TURN`] buffered frames, queueing
    /// their framed responses, and says what the driver does next.
    /// Asking again after a handoff or close repeats the answer.
    pub(crate) fn serve(&mut self, shared: &Shared) -> Turn {
        match self.phase {
            Phase::Start => match self.buf.peek(4) {
                Some(head) if head == b"GET " => return Turn::Admin,
                Some(_) => self.phase = Phase::Binary,
                None if self.read_closed => return Turn::Close,
                None => return Turn::Idle,
            },
            Phase::Binary => {}
            Phase::Damaged => return Turn::Close,
            Phase::Subscribed { from_seq } => return Turn::Subscribe { from_seq },
        }
        let mut deferred = self.deferred_at.take();
        for _ in 0..MAX_FRAMES_PER_TURN {
            let turn_start = Instant::now();
            let body = match self.buf.next_frame() {
                Ok(Some(body)) => body,
                Ok(None) => break,
                Err(damage) => {
                    // The stream position can no longer be trusted:
                    // answer once, discard whatever else arrives, and
                    // close once the answer is written.
                    self.phase = Phase::Damaged;
                    damage_response(shared, &damage).frame_into(&mut self.out);
                    return Turn::Close;
                }
            };
            let t0 = deferred.take().unwrap_or(turn_start);
            let t1 = Instant::now();
            match process_body(shared, body, t0, t1, &mut self.scratch, &mut self.out) {
                Action::Replied => {}
                Action::Subscribe { from_seq } => {
                    self.phase = Phase::Subscribed { from_seq };
                    return Turn::Subscribe { from_seq };
                }
            }
        }
        if self.buf.has_work() {
            self.deferred_at = Some(Instant::now());
            Turn::More
        } else if self.read_closed {
            // Every complete frame is answered; a torn trailing frame
            // can never complete.
            Turn::Close
        } else {
            Turn::Idle
        }
    }

    /// Whether `serve` would answer a frame now.
    pub(crate) fn has_work(&self) -> bool {
        matches!(self.phase, Phase::Start | Phase::Binary) && self.buf.has_work()
    }

    /// Input bytes fed but not yet consumed.
    pub(crate) fn buffered(&self) -> usize {
        self.buf.available()
    }

    /// The peer has closed its write half.
    pub(crate) fn read_closed(&self) -> bool {
        self.read_closed
    }

    /// Response bytes queued but not yet written.
    pub(crate) fn backlog(&self) -> usize {
        self.out.len() - self.out_head
    }

    /// Writes queued responses with one write call and drops the bytes
    /// the writer took.
    pub(crate) fn write_to(&mut self, w: &mut impl Write) -> io::Result<usize> {
        let wrote = w.write(&self.out[self.out_head..])?;
        self.out_head += wrote;
        if self.out_head == self.out.len() {
            self.out.clear();
            self.out_head = 0;
        } else if self.out_head >= COMPACT_AT {
            self.out.drain(..self.out_head);
            self.out_head = 0;
        }
        Ok(wrote)
    }
}

/// The answer to frame-level damage, counted as an error response.
fn damage_response(shared: &Shared, damage: &FrameError) -> Response {
    let (code, message) = match damage {
        FrameError::BadLength { len } => (
            ErrorCode::BadLength,
            format!("frame length {len} outside bounds"),
        ),
        other => (ErrorCode::BadFrame, other.to_string()),
    };
    shared.farm.metrics().errors.with_label(code.label()).inc();
    Response::Error { code, message }
}

/// The blocking driver: runs `session` over a blocking `stream` until
/// the connection closes or is taken over. The threads model runs one
/// per connection from its first byte; the reactor hands a session here
/// when it turns into admin or subscription traffic, with responses to
/// earlier pipelined frames possibly still queued. The idle timeout is
/// the stream's read timeout.
pub(crate) fn drive(mut stream: TcpStream, mut session: Session, shared: &Shared) {
    // Start small — a parked connection's thread keeps its scratch —
    // and widen once the peer sends more than fits.
    let mut scratch = vec![0u8; 2048];
    loop {
        let turn = session.serve(shared);
        // Queued answers go out before the next read or a takeover
        // protocol speaks.
        while session.backlog() > 0 {
            match session.write_to(&mut stream) {
                Ok(0) => return,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
        match turn {
            // Fairness: a pipelining client yields the core so its
            // peers' threads run.
            Turn::More => thread::yield_now(),
            // The only read: never while complete frames are buffered,
            // or a pipelined tail would wait on bytes that never come.
            Turn::Idle => match stream.read(&mut scratch) {
                Ok(n) => {
                    session.feed(&scratch[..n]);
                    if n == scratch.len() && n < READ_CHUNK {
                        scratch.resize(READ_CHUNK, 0);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Idle timeout or transport error.
                Err(_) => return,
            },
            Turn::Close => return,
            // The buffer still holds the sniffed `GET `; everything
            // after it is the admin request's prefill.
            Turn::Admin => return serve_admin(stream, shared, &session.buf.unconsumed()[4..]),
            Turn::Subscribe { from_seq } => return serve_subscription(stream, shared, from_seq),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{frame, Request};

    fn frame_of(req: &Request) -> Vec<u8> {
        frame(&req.encode())
    }

    fn hello() -> Request {
        Request::Hello { version: 1 }
    }

    #[test]
    fn frame_buffer_reassembles_across_every_split() {
        let a = frame_of(&hello());
        let b = frame_of(&Request::Stats {
            tenant: "t".to_owned(),
        });
        let c = frame_of(&Request::Metrics);
        let stream: Vec<u8> = [a.clone(), b.clone(), c.clone()].concat();
        let bodies = [&a, &b, &c].map(|f| f[4..f.len() - 8].to_vec());
        // Every two-part split of the whole pipelined stream must yield
        // the same three bodies.
        for cut in 0..=stream.len() {
            let mut fb = FrameBuffer::new();
            fb.extend(&stream[..cut]);
            let mut got = Vec::new();
            while let Some(body) = fb.next_frame().unwrap() {
                got.push(body.to_vec());
            }
            fb.extend(&stream[cut..]);
            while let Some(body) = fb.next_frame().unwrap() {
                got.push(body.to_vec());
            }
            assert_eq!(got, bodies.to_vec(), "split at {cut}");
        }
        // And byte-at-a-time arrival resumes the parse, never
        // re-scanning: the cached pending length survives each call.
        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        for &byte in &stream {
            fb.extend(&[byte]);
            while let Some(body) = fb.next_frame().unwrap() {
                got.push(body.to_vec());
            }
        }
        assert_eq!(got, bodies.to_vec());
        assert_eq!(fb.available(), 0);
    }

    #[test]
    fn frame_buffer_rejects_bad_length_and_checksum() {
        let mut fb = FrameBuffer::new();
        fb.extend(&(MAX_BODY + 1).to_le_bytes());
        assert!(matches!(fb.next_frame(), Err(FrameError::BadLength { .. })));
        let mut fb = FrameBuffer::new();
        fb.extend(&0u32.to_le_bytes());
        assert!(matches!(
            fb.next_frame(),
            Err(FrameError::BadLength { len: 0 })
        ));
        let mut damaged = frame_of(&hello());
        let at = damaged.len() - 3; // inside the trailing checksum
        damaged[at] ^= 0x40;
        let mut fb = FrameBuffer::new();
        fb.extend(&damaged);
        assert!(matches!(fb.next_frame(), Err(FrameError::Checksum)));
    }

    #[test]
    fn frame_buffer_has_work_tracks_progress() {
        let frame = frame_of(&hello());
        let mut fb = FrameBuffer::new();
        assert!(!fb.has_work());
        fb.extend(&frame[..frame.len() - 1]);
        assert!(!fb.has_work(), "torn frame is not workable");
        fb.extend(&frame[frame.len() - 1..]);
        assert!(fb.has_work());
        fb.next_frame().unwrap().unwrap();
        assert!(!fb.has_work());
        // A known-bad prefix counts as work: the damage wants reporting.
        fb.extend(&(MAX_BODY + 1).to_le_bytes());
        assert!(fb.has_work());
    }

    #[test]
    fn frame_buffer_compacts_consumed_prefix() {
        let frame = frame_of(&hello());
        let mut fb = FrameBuffer::new();
        for _ in 0..3 {
            fb.extend(&frame);
        }
        assert!(fb.next_frame().unwrap().is_some());
        assert!(fb.pos > 0, "mid-stream keeps the offset");
        assert!(fb.next_frame().unwrap().is_some());
        assert!(fb.next_frame().unwrap().is_some());
        // The last body is lent until the next call, which drops it.
        assert!(fb.next_frame().unwrap().is_none());
        assert_eq!(fb.pos, 0, "fully-consumed buffer resets");
        assert!(fb.buf.is_empty());
    }
}
