//! The wire protocol: length-prefixed, checksummed binary frames.
//!
//! Every message — request or response — travels as one frame:
//!
//! ```text
//! offset  size  field
//! 0       4     len       u32 LE, length of body (1 ..= MAX_BODY)
//! 4       len   body      opcode byte + payload
//! 4+len   8     checksum  u64 LE, checksum64(body) — the snapshot
//!                         format's 4-lane word-FNV
//! ```
//!
//! Integers are little-endian; strings are a `u16` length followed by
//! that many UTF-8 bytes; lists are a `u32` count followed by the
//! items. The framing is self-delimiting, so a reader always knows
//! exactly how many bytes to consume, and the trailing checksum means a
//! flipped bit anywhere in the body is detected before the payload is
//! interpreted.
//!
//! The error contract mirrors the snapshot loader's: malformed input of
//! any shape — truncation, bit flips, oversized lengths, unknown
//! opcodes, garbage payloads — yields a structured [`FrameError`] /
//! [`ErrorCode`], never a panic and never an unbounded read
//! ([`MAX_BODY`] caps every allocation). Frame-level damage (a bad
//! length or checksum) poisons the stream position, so the peer
//! responds once and closes; payload-level damage leaves the framing
//! intact, so the peer responds with an error frame and keeps the
//! connection.

use std::io::{self, Read, Write};

pub use cpplookup_chg::checksum::checksum64;

/// Protocol version spoken by this build; [`Request::Hello`] carries
/// the client's, and mismatches are rejected with
/// [`ErrorCode::BadVersion`].
pub const PROTOCOL_VERSION: u32 = 1;

/// Hard cap on a frame body. Anything larger is rejected *before*
/// allocation — an oversized length prefix must not become an OOM.
pub const MAX_BODY: u32 = 16 << 20;

/// Request opcodes (high bit clear).
pub mod op {
    /// [`Request::Hello`](super::Request::Hello).
    pub const HELLO: u8 = 0x01;
    /// [`Request::Load`](super::Request::Load).
    pub const LOAD: u8 = 0x02;
    /// [`Request::Query`](super::Request::Query).
    pub const QUERY: u8 = 0x03;
    /// [`Request::Batch`](super::Request::Batch).
    pub const BATCH: u8 = 0x04;
    /// [`Request::Edit`](super::Request::Edit).
    pub const EDIT: u8 = 0x05;
    /// [`Request::Stats`](super::Request::Stats).
    pub const STATS: u8 = 0x06;
    /// [`Request::Metrics`](super::Request::Metrics).
    pub const METRICS: u8 = 0x07;
    /// [`Request::Subscribe`](super::Request::Subscribe).
    pub const SUBSCRIBE: u8 = 0x08;
    /// [`Request::Ack`](super::Request::Ack).
    pub const ACK: u8 = 0x09;

    /// [`Response::Hello`](super::Response::Hello).
    pub const R_HELLO: u8 = 0x81;
    /// [`Response::Loaded`](super::Response::Loaded).
    pub const R_LOADED: u8 = 0x82;
    /// [`Response::Outcome`](super::Response::Outcome).
    pub const R_OUTCOME: u8 = 0x83;
    /// [`Response::Outcomes`](super::Response::Outcomes).
    pub const R_OUTCOMES: u8 = 0x84;
    /// [`Response::Edited`](super::Response::Edited).
    pub const R_EDITED: u8 = 0x85;
    /// [`Response::Stats`](super::Response::Stats).
    pub const R_STATS: u8 = 0x86;
    /// [`Response::Metrics`](super::Response::Metrics).
    pub const R_METRICS: u8 = 0x87;
    /// [`Response::Traced`](super::Response::Traced).
    pub const R_TRACED: u8 = 0x88;
    /// [`Response::Replicated`](super::Response::Replicated).
    pub const R_REPLICATED: u8 = 0x89;
    /// [`Response::Acked`](super::Response::Acked).
    pub const R_ACKED: u8 = 0x8A;
    /// [`Response::Error`](super::Response::Error).
    pub const R_ERROR: u8 = 0xEE;
}

/// Request flag bits (the optional trailing flags byte on `QUERY` and
/// `BATCH`; a request without the byte has no flags set).
pub mod flags {
    /// Ask the server to time the request's phases and answer with
    /// [`Response::Traced`](super::Response::Traced).
    pub const TRACE: u8 = 0x01;
    /// Answer from a *retained* epoch instead of the live index: the
    /// flags byte is followed by the `u64` epoch to read at. An epoch
    /// outside the retention window is
    /// [`ErrorCode::EpochRetired`](super::ErrorCode::EpochRetired).
    pub const AS_OF: u8 = 0x02;

    /// Every bit this build understands; the decoder rejects the rest.
    pub const ALL: u8 = TRACE | AS_OF;
}

/// Structured protocol error codes carried by [`Response::Error`](super::Response::Error).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// Frame checksum mismatch — the stream position can no longer be
    /// trusted, so the server closes after responding.
    BadFrame = 1,
    /// Length prefix of 0 or beyond [`MAX_BODY`].
    BadLength = 2,
    /// Opcode byte outside the request set.
    UnknownOpcode = 3,
    /// Body did not decode as the opcode's payload.
    BadPayload = 4,
    /// No tenant of that name is loaded.
    NoSuchTenant = 5,
    /// A class or member name did not resolve in the tenant.
    UnknownName = 6,
    /// The tenant's snapshot failed to load or validate.
    LoadFailed = 7,
    /// The edit directive was rejected by the engine.
    EditRejected = 8,
    /// The server is at its connection limit.
    Busy = 9,
    /// Client and server protocol versions differ.
    BadVersion = 10,
    /// An `as-of` query named an epoch outside the retention window.
    EpochRetired = 11,
    /// A replication request reached a server with no edit log.
    NotReplicating = 12,
}

impl ErrorCode {
    /// Decodes a wire `u16`; unknown values collapse to
    /// [`ErrorCode::BadPayload`] (forward compatibility: an old client
    /// still sees *an* error).
    pub fn from_u16(raw: u16) -> ErrorCode {
        match raw {
            1 => ErrorCode::BadFrame,
            2 => ErrorCode::BadLength,
            3 => ErrorCode::UnknownOpcode,
            5 => ErrorCode::NoSuchTenant,
            6 => ErrorCode::UnknownName,
            7 => ErrorCode::LoadFailed,
            8 => ErrorCode::EditRejected,
            9 => ErrorCode::Busy,
            10 => ErrorCode::BadVersion,
            11 => ErrorCode::EpochRetired,
            12 => ErrorCode::NotReplicating,
            _ => ErrorCode::BadPayload,
        }
    }

    /// Short stable label (used as the obs error-counter label).
    pub fn label(&self) -> &'static str {
        match self {
            ErrorCode::BadFrame => "bad_frame",
            ErrorCode::BadLength => "bad_length",
            ErrorCode::UnknownOpcode => "unknown_opcode",
            ErrorCode::BadPayload => "bad_payload",
            ErrorCode::NoSuchTenant => "no_such_tenant",
            ErrorCode::UnknownName => "unknown_name",
            ErrorCode::LoadFailed => "load_failed",
            ErrorCode::EditRejected => "edit_rejected",
            ErrorCode::Busy => "busy",
            ErrorCode::BadVersion => "bad_version",
            ErrorCode::EpochRetired => "epoch_retired",
            ErrorCode::NotReplicating => "not_replicating",
        }
    }
}

/// A `leastVirtual` value on the wire: the root Ω or a class by name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireLv {
    /// The synthetic root Ω (a non-virtual path).
    Omega,
    /// `leastVirtual` is the named class.
    Class(String),
}

/// One lookup verdict on the wire — the name-level image of
/// [`LookupOutcome`](cpplookup_core::LookupOutcome), so a client needs
/// no id table to interpret it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireOutcome {
    /// The member is not visible in the class.
    NotFound,
    /// The lookup resolved.
    Resolved {
        /// Declaring class of the winning definition.
        class: String,
        /// `leastVirtual` of the winning definition.
        least_virtual: WireLv,
    },
    /// The lookup is ambiguous.
    Ambiguous {
        /// The `leastVirtual` witnesses, in index order.
        witnesses: Vec<WireLv>,
    },
}

/// One span of a server-side trace on the wire: the name-level image of
/// [`Span`](cpplookup_obs::Span). Offsets are relative to the request's
/// first byte; a span tree's *structure* (ids, parents, labels, order)
/// is deterministic for a given request, only the durations vary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireSpan {
    /// Monotonic id within the trace (the root is 0).
    pub id: u64,
    /// Parent span id; `u64::MAX` encodes "no parent" (the root).
    pub parent: u64,
    /// Phase label (`"directory_probe"`, `"encode"`, …).
    pub label: String,
    /// Start offset from the request's first byte, nanoseconds.
    pub start_ns: u64,
    /// Measured duration, nanoseconds.
    pub duration_ns: u64,
}

impl WireSpan {
    /// The parent id, decoded (`u64::MAX` means root).
    pub fn parent_id(&self) -> Option<u64> {
        (self.parent != u64::MAX).then_some(self.parent)
    }
}

/// One replicated edit-log record on the wire — the protocol-level
/// image of the WAL's record enum, defined here so the protocol stays
/// free of a `cpplookup-wal` dependency (and so the wire format is
/// pinned by this module's fuzz tests like every other payload).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireRecord {
    /// A tenant was loaded (or replaced) from a snapshot file.
    Open {
        /// Tenant name.
        tenant: String,
        /// Leader-side path of the snapshot.
        path: String,
    },
    /// One edit directive was appended.
    Edit {
        /// Tenant name.
        tenant: String,
        /// The directive text.
        directive: String,
    },
    /// A compaction checkpoint (followers that already track the
    /// tenant skip it; late joiners load it).
    Checkpoint {
        /// Tenant name.
        tenant: String,
        /// Leader-side path of the checkpoint snapshot.
        path: String,
        /// The tenant's published epoch at capture.
        epoch: u64,
    },
}

/// A client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Version handshake; optional but recommended as the first frame.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Load (or replace) a tenant from a snapshot file on the server's
    /// filesystem.
    Load {
        /// Tenant name.
        tenant: String,
        /// Server-side path to the `.snap` file.
        path: String,
    },
    /// One point lookup.
    Query {
        /// Tenant name.
        tenant: String,
        /// Class name.
        class: String,
        /// Member name.
        member: String,
        /// Request a phase trace ([`flags::TRACE`]); a traced query is
        /// answered with [`Response::Traced`] instead of
        /// [`Response::Outcome`].
        trace: bool,
        /// Answer from this retained epoch instead of the live index
        /// ([`flags::AS_OF`]).
        as_of: Option<u64>,
    },
    /// Many lookups against one tenant, answered in order.
    Batch {
        /// Tenant name.
        tenant: String,
        /// `(class, member)` name pairs.
        probes: Vec<(String, String)>,
        /// Request a phase trace ([`flags::TRACE`]); a traced batch is
        /// answered with [`Response::Traced`] instead of
        /// [`Response::Outcomes`].
        trace: bool,
        /// Answer from this retained epoch instead of the live index
        /// ([`flags::AS_OF`]).
        as_of: Option<u64>,
    },
    /// Apply one edit directive (`class NAME`, `member CLASS NAME`, or
    /// `edge DERIVED BASE [virtual]`) through the tenant's engine.
    Edit {
        /// Tenant name.
        tenant: String,
        /// The directive text.
        directive: String,
    },
    /// Tenant statistics as JSON; an empty tenant name means all.
    Stats {
        /// Tenant name, or `""` for the whole farm.
        tenant: String,
    },
    /// The Prometheus metrics text (also served over the HTTP admin
    /// endpoint).
    Metrics,
    /// Become a replication follower: the server diverts this
    /// connection into a one-way stream of [`Response::Replicated`]
    /// frames, starting after log sequence number `from_seq`.
    Subscribe {
        /// Deliver records with sequence numbers strictly greater
        /// than this (0 = the whole retained log).
        from_seq: u64,
    },
    /// A follower's applied-position report (sent on a *separate*
    /// connection from its subscription stream), answered with
    /// [`Response::Acked`].
    Ack {
        /// The follower's self-chosen identity (a metrics label).
        follower: String,
        /// Highest log sequence number the follower has applied.
        seq: u64,
    },
}

/// A server response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Handshake acknowledgement.
    Hello {
        /// The server's [`PROTOCOL_VERSION`].
        version: u32,
        /// Number of tenants currently loaded.
        tenants: u32,
    },
    /// [`Request::Load`] succeeded.
    Loaded {
        /// Entries in the tenant's table.
        entries: u64,
        /// Snapshot size in bytes.
        bytes: u64,
    },
    /// Answer to [`Request::Query`](super::Request::Query).
    Outcome(WireOutcome),
    /// Answers to [`Request::Batch`], in probe order.
    Outcomes(Vec<WireOutcome>),
    /// [`Request::Edit`] succeeded.
    Edited {
        /// The newly published index epoch.
        epoch: u64,
    },
    /// [`Request::Stats`] payload.
    Stats {
        /// JSON text.
        json: String,
    },
    /// [`Request::Metrics`] payload.
    Metrics {
        /// Prometheus exposition text.
        text: String,
    },
    /// Answer to a traced [`Request::Query`] or [`Request::Batch`]: the
    /// outcomes (one for a query, probe-ordered for a batch) plus the
    /// request's span tree.
    Traced {
        /// Lookup outcomes.
        outcomes: Vec<WireOutcome>,
        /// The span tree, recording order (root first).
        spans: Vec<WireSpan>,
    },
    /// One edit-log record streamed to a subscribed follower.
    Replicated {
        /// The record's log sequence number.
        seq: u64,
        /// Leader append time, nanoseconds since the Unix epoch (the
        /// follower's replication-lag clock).
        unix_nanos: u64,
        /// The record itself.
        record: WireRecord,
    },
    /// Answer to [`Request::Ack`].
    Acked {
        /// The leader's current last log sequence number, so the
        /// follower can measure how far behind it is.
        leader_seq: u64,
    },
    /// Any failure, with a structured code.
    Error {
        /// The error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// Frame-level failures on the read side.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed cleanly at a frame boundary.
    Eof,
    /// I/O failure mid-frame (includes truncation: `UnexpectedEof`).
    Io(io::Error),
    /// Length prefix of 0 or beyond [`MAX_BODY`].
    BadLength {
        /// The rejected length.
        len: u32,
    },
    /// Body checksum mismatch.
    Checksum,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "connection closed"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::BadLength { len } => {
                write!(f, "frame length {len} outside 1..={MAX_BODY}")
            }
            FrameError::Checksum => write!(f, "frame checksum mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One whole frame — length prefix, body, trailing checksum — in a
/// single allocation.
pub fn frame(body: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(body.len() + 12);
    let start = begin_frame(&mut frame);
    frame.extend_from_slice(body);
    finish_frame(&mut frame, start);
    frame
}

/// Starts a frame at the end of `out` by reserving its length prefix,
/// and returns where the frame starts. The body is appended next
/// (usually through an [`Enc`]); [`finish_frame`] seals it. A server
/// writes its replies this way, straight into a connection's output
/// buffer, with no body buffer in between.
pub fn begin_frame(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    start
}

/// Seals the frame [`begin_frame`] started at `start`: patches its
/// length prefix to the body appended since and appends the body's
/// checksum.
pub fn finish_frame(out: &mut Vec<u8>, start: usize) {
    let body = start + 4;
    let len = out.len() - body;
    debug_assert!(len >= 1 && len <= MAX_BODY as usize);
    out[start..body].copy_from_slice(&(len as u32).to_le_bytes());
    let sum = checksum64(&out[body..]);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// Writes one frame: length prefix, body, trailing checksum.
///
/// # Errors
///
/// Propagates writer I/O errors.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    w.write_all(&frame(body))
}

/// Reads one frame body after its 4-byte length prefix: a hostile
/// length is [`FrameError::BadLength`] before any allocation,
/// truncation is [`FrameError::Io`], body damage
/// [`FrameError::Checksum`].
fn read_frame_body(r: &mut impl Read, len: u32) -> Result<Vec<u8>, FrameError> {
    if len == 0 || len > MAX_BODY {
        return Err(FrameError::BadLength { len });
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body).map_err(FrameError::Io)?;
    let mut sum = [0u8; 8];
    r.read_exact(&mut sum).map_err(FrameError::Io)?;
    if u64::from_le_bytes(sum) != checksum64(&body) {
        return Err(FrameError::Checksum);
    }
    Ok(body)
}

/// Reads one whole frame (length prefix + body + checksum).
///
/// # Errors
///
/// [`FrameError::Eof`] on a clean close at a frame boundary,
/// [`FrameError::BadLength`] for a hostile length (before any
/// allocation), [`FrameError::Io`] on truncation, and
/// [`FrameError::Checksum`] on body damage.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Err(FrameError::Eof),
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "truncated length prefix",
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    read_frame_body(r, u32::from_le_bytes(prefix))
}

/// Body encoder: the write-side cursor. It appends to a caller's
/// buffer — a fresh body, or the open frame at the end of a
/// connection's output buffer.
pub struct Enc<'b>(&'b mut Vec<u8>);

impl<'b> Enc<'b> {
    /// An encoder appending to `out`.
    pub fn new(out: &'b mut Vec<u8>) -> Enc<'b> {
        Enc(out)
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.0.push(v);
        self
    }

    /// Appends a `u16` LE.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `u32` LE.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `u64` LE.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a length-prefixed string (length saturates at `u16::MAX`
    /// bytes; names in this system are tiny).
    pub fn str(&mut self, s: &str) -> &mut Self {
        let bytes = s.as_bytes();
        let len = bytes.len().min(u16::MAX as usize);
        self.u16(len as u16);
        self.0.extend_from_slice(&bytes[..len]);
        self
    }

    /// Appends a `leastVirtual`: the root Ω (`None`) or the named class.
    pub fn lv(&mut self, class: Option<&str>) -> &mut Self {
        match class {
            None => self.u8(0),
            Some(name) => self.u8(1).str(name),
        }
    }

    /// Appends a "not found" outcome.
    pub fn not_found(&mut self) -> &mut Self {
        self.u8(0)
    }

    /// Appends a resolved outcome: the declaring class and its
    /// `leastVirtual` (see [`lv`](Enc::lv)).
    pub fn resolved(&mut self, class: &str, least_virtual: Option<&str>) -> &mut Self {
        self.u8(1).str(class).lv(least_virtual)
    }

    /// Starts an ambiguous outcome; exactly `witnesses` calls of
    /// [`lv`](Enc::lv) must follow.
    pub fn ambiguous(&mut self, witnesses: usize) -> &mut Self {
        self.u8(2).u32(witnesses as u32)
    }

    /// Appends one span of a trace (see [`WireSpan`]).
    pub fn span(
        &mut self,
        id: u64,
        parent: u64,
        label: &str,
        start_ns: u64,
        duration_ns: u64,
    ) -> &mut Self {
        self.u64(id)
            .u64(parent)
            .str(label)
            .u64(start_ns)
            .u64(duration_ns)
    }
}

/// Body decoder: a strict bounds-checked cursor. Every `take_*` fails
/// with a description instead of panicking, and [`Dec::done`] rejects
/// trailing garbage.
pub struct Dec<'a> {
    body: &'a [u8],
    at: usize,
}

impl<'a> Dec<'a> {
    /// Wraps a body (after the opcode byte has been consumed).
    pub fn new(body: &'a [u8]) -> Dec<'a> {
        Dec { body, at: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        match self.body.get(self.at..self.at + n) {
            Some(slice) => {
                self.at += n;
                Ok(slice)
            }
            None => Err(format!(
                "truncated {what} at offset {} (want {n} bytes, have {})",
                self.at,
                self.body.len().saturating_sub(self.at)
            )),
        }
    }

    /// Reads a `u8`.
    pub fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a `u16` LE.
    pub fn u16(&mut self, what: &str) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    /// Reads a `u32` LE.
    pub fn u32(&mut self, what: &str) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    /// Reads a `u64` LE.
    pub fn u64(&mut self, what: &str) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Reads a length-prefixed UTF-8 string as a view into the body.
    pub fn str_ref(&mut self, what: &str) -> Result<&'a str, String> {
        let len = self.u16(what)? as usize;
        let bytes = self.take(len, what)?;
        std::str::from_utf8(bytes).map_err(|_| format!("{what} is not UTF-8"))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &str) -> Result<String, String> {
        self.str_ref(what).map(str::to_owned)
    }

    /// Bytes not yet consumed (used for optional trailing fields like
    /// the `QUERY`/`BATCH` flags byte).
    pub fn remaining(&self) -> usize {
        self.body.len() - self.at
    }

    /// Asserts the body is fully consumed.
    pub fn done(self) -> Result<(), String> {
        if self.at == self.body.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after payload",
                self.body.len() - self.at
            ))
        }
    }
}

impl WireLv {
    /// The class name, `None` for Ω — the form [`Enc::lv`] takes.
    fn class(&self) -> Option<&str> {
        match self {
            WireLv::Omega => None,
            WireLv::Class(name) => Some(name),
        }
    }
}

fn dec_lv(d: &mut Dec<'_>) -> Result<WireLv, String> {
    match d.u8("leastVirtual tag")? {
        0 => Ok(WireLv::Omega),
        1 => Ok(WireLv::Class(d.str("leastVirtual class")?)),
        t => Err(format!("unknown leastVirtual tag {t}")),
    }
}

/// Reads the optional trailing flags section of `QUERY`/`BATCH`:
/// absent means no flags; unknown bits are rejected (this protocol is
/// strict — a flag the server would silently ignore is a client bug).
/// When [`flags::AS_OF`] is set, the `u64` epoch that follows the
/// flags byte is read too.
fn dec_flags(d: &mut Dec<'_>) -> Result<(u8, Option<u64>), String> {
    if d.remaining() == 0 {
        return Ok((0, None));
    }
    let f = d.u8("flags")?;
    if f & !flags::ALL != 0 {
        return Err(format!("unknown flag bits 0x{:02x}", f & !flags::ALL));
    }
    let as_of = if f & flags::AS_OF != 0 {
        Some(d.u64("as-of epoch")?)
    } else {
        None
    };
    Ok((f, as_of))
}

/// Appends the optional trailing flags section: the flags byte only
/// when a flag is set (so a flagless request is byte-identical to the
/// pre-flags encoding), then the as-of epoch when present.
fn enc_flags(e: &mut Enc<'_>, trace: bool, as_of: Option<u64>) {
    let mut f = 0u8;
    if trace {
        f |= flags::TRACE;
    }
    if as_of.is_some() {
        f |= flags::AS_OF;
    }
    if f != 0 {
        e.u8(f);
    }
    if let Some(epoch) = as_of {
        e.u64(epoch);
    }
}

fn enc_record(e: &mut Enc<'_>, r: &WireRecord) {
    match r {
        WireRecord::Open { tenant, path } => {
            e.u8(1).str(tenant).str(path);
        }
        WireRecord::Edit { tenant, directive } => {
            e.u8(2).str(tenant).str(directive);
        }
        WireRecord::Checkpoint {
            tenant,
            path,
            epoch,
        } => {
            e.u8(3).str(tenant).str(path).u64(*epoch);
        }
    }
}

fn dec_record(d: &mut Dec<'_>) -> Result<WireRecord, String> {
    match d.u8("record kind")? {
        1 => Ok(WireRecord::Open {
            tenant: d.str("record tenant")?,
            path: d.str("record path")?,
        }),
        2 => Ok(WireRecord::Edit {
            tenant: d.str("record tenant")?,
            directive: d.str("record directive")?,
        }),
        3 => Ok(WireRecord::Checkpoint {
            tenant: d.str("record tenant")?,
            path: d.str("record path")?,
            epoch: d.u64("record epoch")?,
        }),
        k => Err(format!("unknown record kind {k}")),
    }
}

fn enc_span(e: &mut Enc<'_>, s: &WireSpan) {
    e.span(s.id, s.parent, &s.label, s.start_ns, s.duration_ns);
}

fn dec_span(d: &mut Dec<'_>) -> Result<WireSpan, String> {
    Ok(WireSpan {
        id: d.u64("span id")?,
        parent: d.u64("span parent")?,
        label: d.str("span label")?,
        start_ns: d.u64("span start")?,
        duration_ns: d.u64("span duration")?,
    })
}

fn enc_outcome(e: &mut Enc<'_>, o: &WireOutcome) {
    match o {
        WireOutcome::NotFound => {
            e.not_found();
        }
        WireOutcome::Resolved {
            class,
            least_virtual,
        } => {
            e.resolved(class, least_virtual.class());
        }
        WireOutcome::Ambiguous { witnesses } => {
            e.ambiguous(witnesses.len());
            for w in witnesses {
                e.lv(w.class());
            }
        }
    }
}

fn dec_outcome(d: &mut Dec<'_>) -> Result<WireOutcome, String> {
    match d.u8("outcome tag")? {
        0 => Ok(WireOutcome::NotFound),
        1 => Ok(WireOutcome::Resolved {
            class: d.str("resolved class")?,
            least_virtual: dec_lv(d)?,
        }),
        2 => {
            let n = d.u32("witness count")?;
            if n > MAX_BODY {
                return Err(format!("witness count {n} exceeds frame capacity"));
            }
            let mut witnesses = Vec::with_capacity(n.min(1024) as usize);
            for _ in 0..n {
                witnesses.push(dec_lv(d)?);
            }
            Ok(WireOutcome::Ambiguous { witnesses })
        }
        t => Err(format!("unknown outcome tag {t}")),
    }
}

/// A `u32` count, then that many outcomes: the outcome section of
/// [`Response::Outcomes`] and [`Response::Traced`].
fn enc_outcomes(e: &mut Enc<'_>, outcomes: &[WireOutcome]) {
    e.u32(outcomes.len() as u32);
    for o in outcomes {
        enc_outcome(e, o);
    }
}

fn dec_outcomes(d: &mut Dec<'_>) -> Result<Vec<WireOutcome>, String> {
    let n = d.u32("outcome count")?;
    if n > MAX_BODY / 2 {
        return Err(format!("outcome count {n} exceeds frame capacity"));
    }
    let mut outcomes = Vec::with_capacity(n.min(4096) as usize);
    for _ in 0..n {
        outcomes.push(dec_outcome(d)?);
    }
    Ok(outcomes)
}

/// A `QUERY` or `BATCH` decoded in place: the tenant and every class
/// and member name are `&str` views into the frame body, so answering
/// a read copies no name. [`Request::decode`] builds its owned
/// [`Request::Query`] / [`Request::Batch`] from this view, so both
/// forms pass the same bounds, UTF-8, flag and trailing-byte checks
/// with the same messages.
#[derive(Clone, Copy, Debug)]
pub struct ReadView<'a> {
    /// A `BATCH` (answered with [`Response::Outcomes`]) rather than a
    /// `QUERY` (answered with [`Response::Outcome`]).
    pub batch: bool,
    /// Tenant name.
    pub tenant: &'a str,
    /// The validated probe section: `count` class/member string pairs.
    probes: &'a [u8],
    count: usize,
    /// [`flags::TRACE`]: answer with [`Response::Traced`].
    pub trace: bool,
    /// [`flags::AS_OF`]: answer from this retained epoch.
    pub as_of: Option<u64>,
}

impl<'a> ReadView<'a> {
    /// Decodes a `QUERY` or `BATCH` payload up to and including its
    /// flags section; the caller checks for trailing bytes.
    fn decode(batch: bool, d: &mut Dec<'a>) -> Result<ReadView<'a>, String> {
        let tenant = d.str_ref("tenant")?;
        let (count, [class, member]) = if batch {
            let n = d.u32("probe count")?;
            if n > MAX_BODY / 4 {
                return Err(format!("probe count {n} exceeds frame capacity"));
            }
            (n as usize, ["probe class", "probe member"])
        } else {
            (1, ["class", "member"])
        };
        let from = d.at;
        for _ in 0..count {
            d.str_ref(class)?;
            d.str_ref(member)?;
        }
        let probes = &d.body[from..d.at];
        let (f, as_of) = dec_flags(d)?;
        Ok(ReadView {
            batch,
            tenant,
            probes,
            count,
            trace: f & flags::TRACE != 0,
            as_of,
        })
    }

    /// Number of probes: 1 for a `QUERY`.
    pub fn probe_count(&self) -> usize {
        self.count
    }

    /// The `(class, member)` probes, in request order.
    pub fn probes(&self) -> impl ExactSizeIterator<Item = (&'a str, &'a str)> + 'a {
        let mut d = Dec::new(self.probes);
        (0..self.count).map(move |_| {
            let mut name = || d.str_ref("probe").expect("validated at decode");
            (name(), name())
        })
    }

    /// The owned request this view reads as.
    pub fn to_request(&self) -> Request {
        let tenant = self.tenant.to_owned();
        let (trace, as_of) = (self.trace, self.as_of);
        let mut probes = self
            .probes()
            .map(|(class, member)| (class.to_owned(), member.to_owned()));
        if self.batch {
            Request::Batch {
                tenant,
                probes: probes.collect(),
                trace,
                as_of,
            }
        } else {
            let (class, member) = probes.next().expect("a QUERY holds one probe");
            Request::Query {
                tenant,
                class,
                member,
                trace,
                as_of,
            }
        }
    }

    /// Appends the head of this read's reply — the opcode and, for a
    /// `BATCH` or a traced read, the outcome count. One outcome per
    /// probe follows it, then, for a traced read, the span section.
    pub fn reply_head(&self, e: &mut Enc<'_>) {
        match (self.trace, self.batch) {
            (true, _) => e.u8(op::R_TRACED).u32(self.count as u32),
            (false, true) => e.u8(op::R_OUTCOMES).u32(self.count as u32),
            (false, false) => e.u8(op::R_OUTCOME),
        };
    }
}

/// A request body as [`Request::decode_borrowed`] reads it.
#[derive(Clone, Debug)]
pub enum Decoded<'a> {
    /// A `QUERY` or `BATCH`, borrowed from the body.
    Read(ReadView<'a>),
    /// Any other request.
    Owned(Request),
}

impl Request {
    /// Encodes this request as a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        let mut e = Enc::new(&mut body);
        match self {
            Request::Hello { version } => {
                e.u8(op::HELLO).u32(*version);
            }
            Request::Load { tenant, path } => {
                e.u8(op::LOAD).str(tenant).str(path);
            }
            Request::Query {
                tenant,
                class,
                member,
                trace,
                as_of,
            } => {
                e.u8(op::QUERY).str(tenant).str(class).str(member);
                enc_flags(&mut e, *trace, *as_of);
            }
            Request::Batch {
                tenant,
                probes,
                trace,
                as_of,
            } => {
                e.u8(op::BATCH).str(tenant).u32(probes.len() as u32);
                for (class, member) in probes {
                    e.str(class).str(member);
                }
                enc_flags(&mut e, *trace, *as_of);
            }
            Request::Edit { tenant, directive } => {
                e.u8(op::EDIT).str(tenant).str(directive);
            }
            Request::Stats { tenant } => {
                e.u8(op::STATS).str(tenant);
            }
            Request::Metrics => {
                e.u8(op::METRICS);
            }
            Request::Subscribe { from_seq } => {
                e.u8(op::SUBSCRIBE).u64(*from_seq);
            }
            Request::Ack { follower, seq } => {
                e.u8(op::ACK).str(follower).u64(*seq);
            }
        }
        body
    }

    /// Decodes a frame body as a request.
    ///
    /// # Errors
    ///
    /// As for [`decode_borrowed`](Request::decode_borrowed).
    pub fn decode(body: &[u8]) -> Result<Request, (ErrorCode, String)> {
        Ok(match Request::decode_borrowed(body)? {
            Decoded::Read(view) => view.to_request(),
            Decoded::Owned(req) => req,
        })
    }

    /// Decodes a frame body, leaving a `QUERY` or `BATCH` as a
    /// [`ReadView`] over `body` — the server's read path.
    ///
    /// # Errors
    ///
    /// `Err((code, message))` — [`ErrorCode::UnknownOpcode`] for a
    /// foreign opcode byte, [`ErrorCode::BadPayload`] for a body that
    /// does not parse as that opcode's payload.
    pub fn decode_borrowed(body: &[u8]) -> Result<Decoded<'_>, (ErrorCode, String)> {
        let bad = |m: String| (ErrorCode::BadPayload, m);
        let (&opcode, payload) = body
            .split_first()
            .ok_or_else(|| bad("empty body".to_owned()))?;
        let mut d = Dec::new(payload);
        let req = match opcode {
            op::QUERY | op::BATCH => {
                let view = ReadView::decode(opcode == op::BATCH, &mut d).map_err(bad)?;
                d.done().map_err(bad)?;
                return Ok(Decoded::Read(view));
            }
            op::HELLO => Request::Hello {
                version: d.u32("version").map_err(bad)?,
            },
            op::LOAD => Request::Load {
                tenant: d.str("tenant").map_err(bad)?,
                path: d.str("path").map_err(bad)?,
            },
            op::EDIT => Request::Edit {
                tenant: d.str("tenant").map_err(bad)?,
                directive: d.str("directive").map_err(bad)?,
            },
            op::STATS => Request::Stats {
                tenant: d.str("tenant").map_err(bad)?,
            },
            op::METRICS => Request::Metrics,
            op::SUBSCRIBE => Request::Subscribe {
                from_seq: d.u64("from_seq").map_err(bad)?,
            },
            op::ACK => Request::Ack {
                follower: d.str("follower").map_err(bad)?,
                seq: d.u64("seq").map_err(bad)?,
            },
            other => {
                return Err((
                    ErrorCode::UnknownOpcode,
                    format!("unknown request opcode 0x{other:02x}"),
                ))
            }
        };
        d.done().map_err(bad)?;
        Ok(Decoded::Owned(req))
    }
}

impl Response {
    /// Encodes this response as a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        self.encode_into(&mut Enc::new(&mut body));
        body
    }

    /// Appends this response to `out` as one whole frame.
    pub fn frame_into(&self, out: &mut Vec<u8>) {
        let start = begin_frame(out);
        self.encode_into(&mut Enc::new(out));
        finish_frame(out, start);
    }

    /// Appends this response's frame body.
    pub fn encode_into(&self, e: &mut Enc<'_>) {
        match self {
            Response::Hello { version, tenants } => {
                e.u8(op::R_HELLO).u32(*version).u32(*tenants);
            }
            Response::Loaded { entries, bytes } => {
                e.u8(op::R_LOADED).u64(*entries).u64(*bytes);
            }
            Response::Outcome(o) => {
                e.u8(op::R_OUTCOME);
                enc_outcome(e, o);
            }
            Response::Outcomes(outcomes) => {
                e.u8(op::R_OUTCOMES);
                enc_outcomes(e, outcomes);
            }
            Response::Edited { epoch } => {
                e.u8(op::R_EDITED).u64(*epoch);
            }
            Response::Stats { json } => {
                e.u8(op::R_STATS).str(json);
            }
            Response::Metrics { text } => {
                e.u8(op::R_METRICS).str(text);
            }
            Response::Traced { outcomes, spans } => {
                e.u8(op::R_TRACED);
                enc_outcomes(e, outcomes);
                e.u32(spans.len() as u32);
                for s in spans {
                    enc_span(e, s);
                }
            }
            Response::Replicated {
                seq,
                unix_nanos,
                record,
            } => {
                e.u8(op::R_REPLICATED).u64(*seq).u64(*unix_nanos);
                enc_record(e, record);
            }
            Response::Acked { leader_seq } => {
                e.u8(op::R_ACKED).u64(*leader_seq);
            }
            Response::Error { code, message } => {
                e.u8(op::R_ERROR).u16(*code as u16).str(message);
            }
        }
    }

    /// Decodes a frame body as a response.
    ///
    /// # Errors
    ///
    /// A description of the malformation.
    pub fn decode(body: &[u8]) -> Result<Response, String> {
        let (&opcode, payload) = body.split_first().ok_or("empty body")?;
        let mut d = Dec::new(payload);
        let resp = match opcode {
            op::R_HELLO => Response::Hello {
                version: d.u32("version")?,
                tenants: d.u32("tenant count")?,
            },
            op::R_LOADED => Response::Loaded {
                entries: d.u64("entries")?,
                bytes: d.u64("bytes")?,
            },
            op::R_OUTCOME => Response::Outcome(dec_outcome(&mut d)?),
            op::R_OUTCOMES => Response::Outcomes(dec_outcomes(&mut d)?),
            op::R_EDITED => Response::Edited {
                epoch: d.u64("epoch")?,
            },
            op::R_STATS => Response::Stats {
                json: d.str("stats json")?,
            },
            op::R_METRICS => Response::Metrics {
                text: d.str("metrics text")?,
            },
            op::R_TRACED => {
                let outcomes = dec_outcomes(&mut d)?;
                let n = d.u32("span count")?;
                if n > MAX_BODY / 34 {
                    // 34 bytes = the smallest span encoding.
                    return Err(format!("span count {n} exceeds frame capacity"));
                }
                let mut spans = Vec::with_capacity(n.min(4096) as usize);
                for _ in 0..n {
                    spans.push(dec_span(&mut d)?);
                }
                Response::Traced { outcomes, spans }
            }
            op::R_REPLICATED => Response::Replicated {
                seq: d.u64("seq")?,
                unix_nanos: d.u64("unix_nanos")?,
                record: dec_record(&mut d)?,
            },
            op::R_ACKED => Response::Acked {
                leader_seq: d.u64("leader_seq")?,
            },
            op::R_ERROR => Response::Error {
                code: ErrorCode::from_u16(d.u16("error code")?),
                message: d.str("error message")?,
            },
            other => return Err(format!("unknown response opcode 0x{other:02x}")),
        };
        d.done()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let body = req.encode();
        assert_eq!(Request::decode(&body).unwrap(), req);
        // And through full framing.
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).unwrap();
        let back = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(back, body);
    }

    fn roundtrip_response(resp: Response) {
        let body = resp.encode();
        assert_eq!(Response::decode(&body).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Hello {
            version: PROTOCOL_VERSION,
        });
        roundtrip_request(Request::Load {
            tenant: "t0".into(),
            path: "/tmp/x.snap".into(),
        });
        roundtrip_request(Request::Query {
            tenant: "t0".into(),
            class: "E".into(),
            member: "m".into(),
            trace: false,
            as_of: None,
        });
        roundtrip_request(Request::Query {
            tenant: "t0".into(),
            class: "E".into(),
            member: "m".into(),
            trace: true,
            as_of: None,
        });
        roundtrip_request(Request::Batch {
            tenant: "t0".into(),
            probes: vec![("E".into(), "m".into()), ("D".into(), "m".into())],
            trace: false,
            as_of: None,
        });
        roundtrip_request(Request::Batch {
            tenant: "t0".into(),
            probes: vec![("E".into(), "m".into())],
            trace: true,
            as_of: None,
        });
        roundtrip_request(Request::Edit {
            tenant: "t0".into(),
            directive: "member E fresh".into(),
        });
        roundtrip_request(Request::Stats { tenant: "".into() });
        roundtrip_request(Request::Metrics);
        roundtrip_request(Request::Query {
            tenant: "t0".into(),
            class: "E".into(),
            member: "m".into(),
            trace: false,
            as_of: Some(4),
        });
        roundtrip_request(Request::Query {
            tenant: "t0".into(),
            class: "E".into(),
            member: "m".into(),
            trace: true,
            as_of: Some(0),
        });
        roundtrip_request(Request::Batch {
            tenant: "t0".into(),
            probes: vec![("E".into(), "m".into())],
            trace: false,
            as_of: Some(u64::MAX),
        });
        roundtrip_request(Request::Subscribe { from_seq: 0 });
        roundtrip_request(Request::Subscribe { from_seq: 99 });
        roundtrip_request(Request::Ack {
            follower: "f1".into(),
            seq: 17,
        });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Hello {
            version: 1,
            tenants: 3,
        });
        roundtrip_response(Response::Loaded {
            entries: 42,
            bytes: 1024,
        });
        roundtrip_response(Response::Outcome(WireOutcome::NotFound));
        roundtrip_response(Response::Outcome(WireOutcome::Resolved {
            class: "C".into(),
            least_virtual: WireLv::Class("A".into()),
        }));
        roundtrip_response(Response::Outcomes(vec![
            WireOutcome::Ambiguous {
                witnesses: vec![WireLv::Omega, WireLv::Class("S".into())],
            },
            WireOutcome::NotFound,
        ]));
        roundtrip_response(Response::Edited { epoch: 7 });
        roundtrip_response(Response::Stats {
            json: "{\"tenants\":[]}".into(),
        });
        roundtrip_response(Response::Metrics {
            text: "# HELP x\n".into(),
        });
        roundtrip_response(Response::Traced {
            outcomes: vec![WireOutcome::Resolved {
                class: "D".into(),
                least_virtual: WireLv::Omega,
            }],
            spans: vec![
                WireSpan {
                    id: 0,
                    parent: u64::MAX,
                    label: "request".into(),
                    start_ns: 0,
                    duration_ns: 4200,
                },
                WireSpan {
                    id: 1,
                    parent: 0,
                    label: "directory_probe".into(),
                    start_ns: 1000,
                    duration_ns: 3000,
                },
            ],
        });
        roundtrip_response(Response::Error {
            code: ErrorCode::NoSuchTenant,
            message: "no tenant `x`".into(),
        });
        roundtrip_response(Response::Replicated {
            seq: 12,
            unix_nanos: 1_700_000_000_000_000_000,
            record: WireRecord::Open {
                tenant: "t".into(),
                path: "/tmp/t.snap".into(),
            },
        });
        roundtrip_response(Response::Replicated {
            seq: 13,
            unix_nanos: 0,
            record: WireRecord::Edit {
                tenant: "t".into(),
                directive: "member E fresh".into(),
            },
        });
        roundtrip_response(Response::Replicated {
            seq: 14,
            unix_nanos: 7,
            record: WireRecord::Checkpoint {
                tenant: "t".into(),
                path: "/tmp/ckpt.snap".into(),
                epoch: 9,
            },
        });
        roundtrip_response(Response::Acked { leader_seq: 21 });
    }

    #[test]
    fn as_of_is_a_flagged_trailing_epoch() {
        let plain = Request::Query {
            tenant: "t".into(),
            class: "C".into(),
            member: "m".into(),
            trace: false,
            as_of: None,
        };
        let pinned = Request::Query {
            tenant: "t".into(),
            class: "C".into(),
            member: "m".into(),
            trace: false,
            as_of: Some(5),
        };
        // Flags byte + u64 epoch.
        assert_eq!(pinned.encode().len(), plain.encode().len() + 9);
        // The epoch must actually be present when the flag is set.
        let mut truncated = pinned.encode();
        truncated.truncate(truncated.len() - 8);
        assert_eq!(
            Request::decode(&truncated).unwrap_err().0,
            ErrorCode::BadPayload
        );
        // Both flags compose.
        let both = Request::Batch {
            tenant: "t".into(),
            probes: vec![("C".into(), "m".into())],
            trace: true,
            as_of: Some(2),
        };
        assert_eq!(Request::decode(&both.encode()).unwrap(), both);
        // An unknown error code from the future still decodes.
        assert_eq!(ErrorCode::from_u16(11), ErrorCode::EpochRetired);
        assert_eq!(ErrorCode::from_u16(12), ErrorCode::NotReplicating);
        assert_eq!(ErrorCode::from_u16(999), ErrorCode::BadPayload);
    }

    #[test]
    fn trace_flag_is_an_optional_trailing_byte() {
        // A flagless QUERY and a trace:false QUERY are byte-identical —
        // the flag byte only appears when set.
        let plain = Request::Query {
            tenant: "t".into(),
            class: "C".into(),
            member: "m".into(),
            trace: false,
            as_of: None,
        };
        let traced = Request::Query {
            tenant: "t".into(),
            class: "C".into(),
            member: "m".into(),
            trace: true,
            as_of: None,
        };
        assert_eq!(traced.encode().len(), plain.encode().len() + 1);
        // An explicit zero flags byte decodes as untraced.
        let mut with_zero = plain.encode();
        with_zero.push(0);
        assert_eq!(Request::decode(&with_zero).unwrap(), plain);
        // Unknown flag bits are a payload error, not silently ignored.
        let mut unknown = plain.encode();
        unknown.push(0x80);
        assert_eq!(
            Request::decode(&unknown).unwrap_err().0,
            ErrorCode::BadPayload
        );
        // The span parent sentinel survives the helper.
        let root = WireSpan {
            id: 0,
            parent: u64::MAX,
            label: "request".into(),
            start_ns: 0,
            duration_ns: 0,
        };
        assert_eq!(root.parent_id(), None);
    }

    #[test]
    fn every_single_byte_flip_is_detected_or_changes_meaning_safely() {
        let req = Request::Query {
            tenant: "tenant".into(),
            class: "Class".into(),
            member: "member".into(),
            trace: true,
            as_of: Some(3),
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &req.encode()).unwrap();
        for at in 0..wire.len() {
            for bit in 0..8 {
                let mut damaged = wire.clone();
                damaged[at] ^= 1 << bit;
                match read_frame(&mut damaged.as_slice()) {
                    // Damage to the length prefix shows up as a bad
                    // length, a truncation, or a checksum that no
                    // longer lines up; damage to body or checksum must
                    // be a checksum mismatch.
                    Err(
                        FrameError::BadLength { .. } | FrameError::Io(_) | FrameError::Checksum,
                    ) => {}
                    Err(FrameError::Eof) => panic!("flip at {at}.{bit} read as clean EOF"),
                    Ok(body) => panic!(
                        "flip at byte {at} bit {bit} went undetected: {:?}",
                        Request::decode(&body)
                    ),
                }
            }
        }
    }

    #[test]
    fn truncation_at_every_length_is_structured() {
        let req = Request::Batch {
            tenant: "t".into(),
            probes: vec![("A".into(), "m".into())],
            trace: false,
            as_of: None,
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &req.encode()).unwrap();
        for cut in 0..wire.len() {
            match read_frame(&mut wire[..cut].as_ref()) {
                Err(FrameError::Eof) => assert_eq!(cut, 0, "EOF only at the frame boundary"),
                Err(FrameError::Io(e)) => {
                    assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}")
                }
                other => panic!("cut at {cut}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_and_zero_lengths_are_rejected_before_allocation() {
        for len in [0u32, MAX_BODY + 1, u32::MAX] {
            let mut wire = len.to_le_bytes().to_vec();
            wire.extend_from_slice(&[0u8; 16]);
            match read_frame(&mut wire.as_slice()) {
                Err(FrameError::BadLength { len: got }) => assert_eq!(got, len),
                other => panic!("length {len}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_opcode_and_trailing_garbage_are_bad_payloads() {
        assert_eq!(
            Request::decode(&[0x7f]).unwrap_err().0,
            ErrorCode::UnknownOpcode
        );
        let mut body = Request::Metrics.encode();
        body.push(0xAB);
        assert_eq!(Request::decode(&body).unwrap_err().0, ErrorCode::BadPayload);
        assert!(Response::decode(&[]).is_err());
    }

    /// The owned `QUERY`/`BATCH` decoder as it stood before the borrowed
    /// view, kept as the reference the view is held to: `None` for a body
    /// that is not a read.
    fn reference_read(body: &[u8]) -> Option<Result<Request, (ErrorCode, String)>> {
        fn owned(d: &mut Dec<'_>, what: &str) -> Result<String, String> {
            let len = d.u16(what)? as usize;
            let bytes = d.take(len, what)?;
            String::from_utf8(bytes.to_vec()).map_err(|_| format!("{what} is not UTF-8"))
        }
        let (&opcode, payload) = body.split_first()?;
        if opcode != op::QUERY && opcode != op::BATCH {
            return None;
        }
        let mut d = Dec::new(payload);
        let mut read = || -> Result<Request, String> {
            let tenant = owned(&mut d, "tenant")?;
            if opcode == op::QUERY {
                let class = owned(&mut d, "class")?;
                let member = owned(&mut d, "member")?;
                let (f, as_of) = dec_flags(&mut d)?;
                return Ok(Request::Query {
                    tenant,
                    class,
                    member,
                    trace: f & flags::TRACE != 0,
                    as_of,
                });
            }
            let n = d.u32("probe count")?;
            if n > MAX_BODY / 4 {
                return Err(format!("probe count {n} exceeds frame capacity"));
            }
            let mut probes = Vec::new();
            for _ in 0..n {
                probes.push((
                    owned(&mut d, "probe class")?,
                    owned(&mut d, "probe member")?,
                ));
            }
            let (f, as_of) = dec_flags(&mut d)?;
            Ok(Request::Batch {
                tenant,
                probes,
                trace: f & flags::TRACE != 0,
                as_of,
            })
        };
        let req = read();
        Some(
            req.and_then(|req| d.done().map(|()| req))
                .map_err(|m| (ErrorCode::BadPayload, m)),
        )
    }

    /// Holds one body to the differential: a read decodes, as a view
    /// turned owned and through [`Request::decode`], to exactly the
    /// reference's request or error (code and message); any other body
    /// never decodes as a view.
    fn check_read_decode(body: &[u8]) {
        let view = Request::decode_borrowed(body);
        let Some(want) = reference_read(body) else {
            assert!(
                !matches!(view, Ok(Decoded::Read(_))),
                "a non-read body decoded as a read: {body:?}"
            );
            return;
        };
        let got = view.map(|d| match d {
            Decoded::Read(view) => {
                assert_eq!(view.probes().len(), view.probe_count());
                assert_eq!(view.probes().count(), view.probe_count());
                view.to_request()
            }
            Decoded::Owned(other) => panic!("a read decoded as {other:?}"),
        });
        assert_eq!(got, want, "view of {body:?}");
        assert_eq!(Request::decode(body), want, "decode of {body:?}");
    }

    /// Valid reads of every shape: QUERY and BATCH (empty, single,
    /// multi-byte names), with and without TRACE and AS_OF.
    fn sample_reads() -> Vec<Request> {
        let mut reads = Vec::new();
        for (trace, as_of) in [
            (false, None),
            (true, None),
            (false, Some(7)),
            (true, Some(0)),
        ] {
            reads.push(Request::Query {
                tenant: "t0".into(),
                class: "Ω".into(),
                member: "m".into(),
                trace,
                as_of,
            });
            for probes in [
                vec![],
                vec![("E".into(), "m".into())],
                vec![("Dé".into(), "".into()), ("C".into(), "f".into())],
            ] {
                reads.push(Request::Batch {
                    tenant: "tenant".into(),
                    probes,
                    trace,
                    as_of,
                });
            }
        }
        reads
    }

    #[test]
    fn read_view_matches_the_owned_decoder_on_every_cut_and_byte() {
        for req in sample_reads() {
            let body = req.encode();
            assert_eq!(Request::decode(&body).unwrap(), req);
            for cut in 0..body.len() {
                check_read_decode(&body[..cut]);
            }
            // Every value at every position: bad UTF-8, unknown flag
            // bits, oversized counts, other opcodes.
            for at in 0..body.len() {
                for value in 0..=u8::MAX {
                    let mut damaged = body.clone();
                    damaged[at] = value;
                    check_read_decode(&damaged);
                }
            }
            for tail in [&[0u8][..], &[0x80], &[0, 0, 0, 0, 0, 0, 0, 0, 0]] {
                let mut long = body.clone();
                long.extend_from_slice(tail);
                check_read_decode(&long);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn read_view_matches_the_owned_decoder_on_random_bodies(
            batch in proptest::prelude::any::<bool>(),
            tenant in "\\PC{0,6}",
            probes in proptest::collection::vec(("\\PC{0,5}", "\\PC{0,5}"), 0..6),
            trace in proptest::prelude::any::<bool>(),
            as_of in (proptest::prelude::any::<bool>(), proptest::prelude::any::<u64>()),
            damage in (0u8..4, proptest::prelude::any::<usize>(), proptest::prelude::any::<u8>()),
        ) {
            let as_of = as_of.0.then_some(as_of.1);
            let req = match probes.first() {
                Some((class, member)) if !batch => Request::Query {
                    tenant,
                    class: class.clone(),
                    member: member.clone(),
                    trace,
                    as_of,
                },
                _ => Request::Batch { tenant, probes, trace, as_of },
            };
            let mut body = req.encode();
            check_read_decode(&body);
            let (kind, at, value) = damage;
            let at = at % body.len();
            match kind {
                0 => body.truncate(at),
                1 => body[at] = value,
                2 => body.insert(at, value),
                _ => body.push(value),
            }
            check_read_decode(&body);
        }
    }
}
