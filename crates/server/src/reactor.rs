//! The epoll reactor I/O model: a few threads multiplexing many
//! nonblocking connections.
//!
//! The threaded model parks one OS thread (and its stack) per
//! connection; at 1024+ mostly-idle connections that is the dominant
//! server cost, while the probes themselves are nearly free (the MPH
//! directory made them one cache line each). The reactor replaces the
//! parked threads with `N` per-core event loops — each owns an epoll
//! instance, an eventfd doorbell, and a slab of [`Conn`]s; the acceptor
//! round-robins accepted fds across them.
//!
//! Each connection's protocol — framing, the admin sniff, frame-damage
//! policy, the fairness cap, the response queue — is a
//! [`Session`](crate::conn::Session), the same state machine the
//! threaded model's blocking driver runs, so responses are
//! byte-identical between the models by construction (and pinned by
//! the differential tests and the e27 CI gate). The reactor is only
//! what epoll needs on top:
//!
//! * **A ready list for the fairness cap** — a session that ends its
//!   turn with frames still buffered re-queues behind every other ready
//!   connection, so one pipelining client cannot starve the loop.
//! * **Backpressure by interest, not queues** — the output buffer
//!   flushes with plain `write`s; `EPOLLOUT` interest exists only
//!   while a backlog does, and read interest is parked while a backlog
//!   exists *or* the session holds a budget of unprocessed input, so a
//!   peer that pipelines requests without reading responses stops being
//!   read from (TCP flow control takes over) instead of growing our
//!   buffers forever.
//! * **Idle timeouts off a timer wheel** — a coarse hashed wheel with
//!   lazy reinsertion; activity just stamps the connection's deadline,
//!   and the wheel checks it when the slot comes due.
//!
//! The rare connection-takeover requests (HTTP admin, `SUBSCRIBE`) hand
//! their fd and session to a plain thread running the blocking driver,
//! keeping the event loop free of long-lived work.

use std::collections::VecDeque;
use std::io::{self, Read};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use cpplookup_obs::{Counter, Gauge};

use crate::conn::{drive, Session, Turn, READ_CHUNK};
use crate::server::{ServerConfig, Shared};
use crate::sys::{self, Epoll, EpollEvent, EventFd};

/// The epoll token reserved for each reactor's eventfd doorbell.
const WAKE_TOKEN: u64 = u64::MAX;

/// Per-readiness-event read budget: past this many bytes the loop
/// moves on and lets level-triggered epoll re-report the fd.
const READ_BUDGET: usize = 256 * 1024;

/// A connection's idle deadline when no timeout is configured.
const FOREVER: Duration = Duration::from_secs(365 * 24 * 3600);

/// One nonblocking connection: its session plus the epoll bookkeeping.
struct Conn {
    stream: TcpStream,
    session: Session,
    /// The interest set currently registered with epoll.
    interest: u32,
    /// The session asked to close once its response queue drains.
    close_after_flush: bool,
    /// Idle deadline, refreshed on any read or write progress.
    deadline: Instant,
    /// Already queued on the ready list.
    queued_ready: bool,
}

/// A coarse hashed timer wheel with lazy reinsertion: connections are
/// filed under the slot their deadline falls in; activity only stamps
/// `Conn::deadline`, and a slot coming due re-checks the real deadline,
/// closing or re-filing. O(1) per activity, O(slot) per tick.
struct Wheel {
    slots: Vec<Vec<(usize, u64)>>,
    tick: Duration,
    cursor: usize,
    last: Instant,
}

impl Wheel {
    fn new(timeout: Duration, now: Instant) -> Wheel {
        // Granularity: the timeout split over half the wheel, so a full
        // rotation comfortably covers one timeout, floored at 10ms.
        let tick = (timeout / 32).max(Duration::from_millis(10));
        Wheel {
            slots: (0..64).map(|_| Vec::new()).collect(),
            tick,
            cursor: 0,
            last: now,
        }
    }

    /// Files `(token, gen)` under the slot `deadline` falls in.
    fn schedule(&mut self, token: usize, gen: u64, deadline: Instant, now: Instant) {
        let ticks = (deadline.saturating_duration_since(now).as_nanos()
            / self.tick.as_nanos().max(1)) as usize
            + 1;
        let slot = (self.cursor + ticks.min(self.slots.len() - 1)) % self.slots.len();
        self.slots[slot].push((token, gen));
    }

    /// Advances the cursor to `now`, draining every slot that came due
    /// into `due` (candidates, not verdicts — deadlines are re-checked
    /// by the caller).
    fn advance(&mut self, now: Instant, due: &mut Vec<(usize, u64)>) {
        while now.saturating_duration_since(self.last) >= self.tick {
            self.last += self.tick;
            self.cursor = (self.cursor + 1) % self.slots.len();
            due.append(&mut self.slots[self.cursor]);
        }
    }
}

/// The running reactor fleet: round-robin dispatch plus shutdown.
pub(crate) struct ReactorSet {
    reactors: Vec<ReactorHandle>,
    next: AtomicUsize,
    stop: Arc<AtomicBool>,
}

struct ReactorHandle {
    wake: Arc<EventFd>,
    inbox: Arc<Mutex<Vec<TcpStream>>>,
    thread: Mutex<Option<thread::JoinHandle<()>>>,
}

impl ReactorSet {
    /// Spawns the reactor threads: `cfg.reactors` of them, or one per
    /// available core.
    pub(crate) fn start(shared: Arc<Shared>, cfg: &ServerConfig) -> io::Result<Arc<ReactorSet>> {
        let n = if cfg.reactors > 0 {
            cfg.reactors
        } else {
            thread::available_parallelism().map_or(1, |p| p.get())
        };
        let stop = Arc::new(AtomicBool::new(false));
        let mut reactors = Vec::with_capacity(n);
        for idx in 0..n {
            let wake = Arc::new(EventFd::new()?);
            let inbox = Arc::new(Mutex::new(Vec::new()));
            let mut reactor = Reactor::new(
                idx,
                Arc::clone(&shared),
                cfg,
                Arc::clone(&wake),
                Arc::clone(&inbox),
                Arc::clone(&stop),
            )?;
            let thread = thread::Builder::new()
                .name(format!("reactor-{idx}"))
                .spawn(move || reactor.run())?;
            reactors.push(ReactorHandle {
                wake,
                inbox,
                thread: Mutex::new(Some(thread)),
            });
        }
        Ok(Arc::new(ReactorSet {
            reactors,
            next: AtomicUsize::new(0),
            stop,
        }))
    }

    /// Round-robins an accepted connection onto a reactor and rings its
    /// doorbell. The admission slot travels with the connection; the
    /// owning reactor releases it on close.
    pub(crate) fn dispatch(&self, stream: TcpStream) {
        let idx = self.next.fetch_add(1, Ordering::Relaxed) % self.reactors.len();
        let handle = &self.reactors[idx];
        handle
            .inbox
            .lock()
            .expect("reactor inbox poisoned")
            .push(stream);
        handle.wake.signal();
    }

    /// Stops every reactor and joins it; open connections are closed.
    pub(crate) fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for handle in &self.reactors {
            handle.wake.signal();
        }
        for handle in &self.reactors {
            let joinable = handle
                .thread
                .lock()
                .expect("reactor handle poisoned")
                .take();
            if let Some(thread) = joinable {
                let _ = thread.join();
            }
        }
    }
}

/// One event loop: an epoll instance, a doorbell, and a slab of
/// connections.
struct Reactor {
    shared: Arc<Shared>,
    epoll: Epoll,
    wake: Arc<EventFd>,
    inbox: Arc<Mutex<Vec<TcpStream>>>,
    stop: Arc<AtomicBool>,
    conns: Vec<Option<Conn>>,
    /// Per-slot generation counters, bumped on close so stale timer and
    /// epoll tokens from a previous occupant can never touch a new one.
    gens: Vec<u64>,
    free: Vec<usize>,
    /// Connections deferred by the fairness cap, served after the
    /// current event batch. Entries carry the slot generation so a
    /// queued connection that closes (and whose slot is reused) before
    /// its turn can never act on the new occupant — the same staleness
    /// check the timer wheel uses.
    ready: VecDeque<(usize, u64)>,
    wheel: Option<Wheel>,
    /// Also the read timeout of fds handed off to blocking threads.
    idle_timeout: Option<Duration>,
    conns_gauge: Arc<Gauge>,
    wakeups: Arc<Counter>,
    backlog_gauge: Arc<Gauge>,
}

impl Reactor {
    fn new(
        idx: usize,
        shared: Arc<Shared>,
        cfg: &ServerConfig,
        wake: Arc<EventFd>,
        inbox: Arc<Mutex<Vec<TcpStream>>>,
        stop: Arc<AtomicBool>,
    ) -> io::Result<Reactor> {
        let epoll = Epoll::new()?;
        epoll.add(wake.raw(), sys::EPOLLIN, WAKE_TOKEN)?;
        let metrics = shared.farm.metrics();
        let label = idx.to_string();
        let now = Instant::now();
        Ok(Reactor {
            conns_gauge: metrics.reactor_connections.with_label(&label),
            wakeups: metrics.reactor_wakeups.with_label(&label),
            backlog_gauge: metrics.reactor_backlog.with_label(&label),
            shared,
            epoll,
            wake,
            inbox,
            stop,
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            ready: VecDeque::new(),
            wheel: cfg.read_timeout.map(|t| Wheel::new(t, now)),
            idle_timeout: cfg.read_timeout,
        })
    }

    fn run(&mut self) {
        let mut events = vec![
            EpollEvent {
                events: 0,
                token: 0
            };
            256
        ];
        let mut due: Vec<(usize, u64)> = Vec::new();
        loop {
            let timeout_ms = if !self.ready.is_empty() {
                0
            } else if let Some(wheel) = &self.wheel {
                wheel.tick.as_millis().clamp(10, 500) as i32
            } else {
                500
            };
            let n = match self.epoll.wait(&mut events, timeout_ms) {
                Ok(n) => n,
                Err(_) => {
                    thread::sleep(Duration::from_millis(5));
                    0
                }
            };
            if n > 0 {
                self.wakeups.inc();
            }
            for event in events.iter().take(n) {
                let event = *event;
                if event.token == WAKE_TOKEN {
                    self.wake.drain();
                    self.drain_inbox();
                } else {
                    self.on_event(event.token as usize, event.events);
                }
            }
            if self.stop.load(Ordering::SeqCst) {
                self.close_all();
                return;
            }
            // Fairness continuation: connections the cap deferred get
            // one more turn each, after everyone readiness reported.
            for _ in 0..self.ready.len() {
                let Some((token, gen)) = self.ready.pop_front() else {
                    break;
                };
                if self.gens.get(token) != Some(&gen) {
                    continue; // slot closed and reused since queuing
                }
                if let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) {
                    conn.queued_ready = false;
                    self.process_conn(token);
                }
            }
            // Idle sweep: candidates whose slot came due, deadlines
            // re-checked (activity may have pushed them out).
            if self.wheel.is_some() {
                let now = Instant::now();
                due.clear();
                if let Some(wheel) = &mut self.wheel {
                    wheel.advance(now, &mut due);
                }
                let mut expired = Vec::new();
                let mut refile = Vec::new();
                for &(token, gen) in &due {
                    if self.gens.get(token) != Some(&gen) {
                        continue;
                    }
                    let Some(conn) = self.conns.get(token).and_then(Option::as_ref) else {
                        continue;
                    };
                    if conn.deadline <= now {
                        expired.push(token);
                    } else {
                        refile.push((token, gen, conn.deadline));
                    }
                }
                for token in expired {
                    self.close(token);
                }
                if let Some(wheel) = &mut self.wheel {
                    for (token, gen, deadline) in refile {
                        wheel.schedule(token, gen, deadline, now);
                    }
                }
            }
        }
    }

    /// Adopts connections the acceptor round-robined to this reactor.
    fn drain_inbox(&mut self) {
        let streams: Vec<TcpStream> =
            std::mem::take(&mut *self.inbox.lock().expect("reactor inbox poisoned"));
        for stream in streams {
            self.register(stream);
        }
    }

    fn register(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            self.shared.release();
            return;
        }
        let _ = stream.set_nodelay(true);
        let fd = stream.as_raw_fd();
        let token = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.gens.push(0);
            self.conns.len() - 1
        });
        if self
            .epoll
            .add(fd, sys::EPOLLIN | sys::EPOLLRDHUP, token as u64)
            .is_err()
        {
            self.free.push(token);
            self.shared.release();
            return;
        }
        let now = Instant::now();
        let deadline = now + self.idle_timeout.unwrap_or(FOREVER);
        self.conns[token] = Some(Conn {
            stream,
            session: Session::new(),
            interest: sys::EPOLLIN | sys::EPOLLRDHUP,
            close_after_flush: false,
            deadline,
            queued_ready: false,
        });
        self.conns_gauge.add(1);
        if let Some(wheel) = &mut self.wheel {
            wheel.schedule(token, self.gens[token], deadline, now);
        }
    }

    fn on_event(&mut self, token: usize, bits: u32) {
        if self.conns.get(token).is_none_or(Option::is_none) {
            return; // stale token from a closed connection
        }
        if bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
            // Full hangup or error: nothing can be written back.
            self.close(token);
            return;
        }
        if bits & sys::EPOLLOUT != 0 && self.flush(token) {
            return; // closed while flushing
        }
        if bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0 {
            self.fill(token);
        }
    }

    /// Pulls bytes off the socket into the frame buffer, up to the
    /// per-event budget (level-triggered epoll re-reports the rest),
    /// then processes what arrived.
    fn fill(&mut self, token: usize) {
        let mut scratch = [0u8; READ_CHUNK];
        let mut total = 0usize;
        loop {
            let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
                return;
            };
            // Input high-water mark: stop ingesting once a budget's
            // worth of bytes sits unprocessed — `update_interest` parks
            // read interest until processing drains below it, so a
            // pipelining peer can never balloon the frame buffer faster
            // than the fairness cap serves it.
            if input_saturated(conn) {
                break;
            }
            match conn.stream.read(&mut scratch) {
                Ok(n) => {
                    conn.session.feed(&scratch[..n]);
                    if n == 0 {
                        break;
                    }
                    conn.deadline = Instant::now() + self.idle_timeout.unwrap_or(FOREVER);
                    total += n;
                    if total >= READ_BUDGET {
                        break;
                    }
                    // A short read means the socket is drained right
                    // now; skip the syscall that would confirm it with
                    // WouldBlock. Level-triggered epoll re-reports
                    // readiness if more bytes are already queued.
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token);
                    return;
                }
            }
        }
        self.process_conn(token);
    }

    /// Runs one session turn, then flushes what it queued.
    fn process_conn(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
            return;
        };
        let queued = conn.session.backlog();
        let turn = conn.session.serve(&self.shared);
        self.backlog_gauge
            .add((conn.session.backlog() - queued) as i64);
        match turn {
            Turn::Admin | Turn::Subscribe { .. } => return self.handoff(token),
            Turn::Close => conn.close_after_flush = true,
            Turn::More | Turn::Idle => {}
        }
        // `flush` re-queues the connection for the frames still
        // buffered past this turn's cap — unless a write backlog
        // exists, in which case the requeue waits for the drain.
        self.flush(token);
    }

    /// Writes the backlog out until empty or `WouldBlock`, keeping
    /// `EPOLLOUT` interest registered exactly
    /// while a backlog exists. Returns `true` when the connection was
    /// closed (error, or close-after-flush completing).
    fn flush(&mut self, token: usize) -> bool {
        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
            return true;
        };
        let drained = loop {
            if conn.session.backlog() == 0 {
                break true;
            }
            match conn.session.write_to(&mut conn.stream) {
                Ok(0) => {}
                Ok(wrote) => {
                    self.backlog_gauge.add(-(wrote as i64));
                    conn.deadline = Instant::now() + self.idle_timeout.unwrap_or(FOREVER);
                    continue;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {}
            }
            // A zero-length write or any other error: the peer is gone.
            self.close(token);
            return true;
        };
        if drained && conn.close_after_flush {
            self.close(token);
            return true;
        }
        if drained && conn.session.has_work() && !conn.queued_ready {
            // Fairness: more complete frames than the turn's cap, and no
            // backlog holding them back.
            conn.queued_ready = true;
            self.ready.push_back((token, self.gens[token]));
        }
        self.update_interest(token);
        false
    }

    /// Recomputes the fd's epoll interest from the connection's state
    /// and applies it if it changed:
    ///
    /// * write interest exactly while a response backlog exists;
    /// * read interest only while the reactor actually wants bytes —
    ///   the peer has not half-closed, no response backlog exists, and
    ///   the frame buffer is not [saturated](input_saturated). This is
    ///   backpressure by interest: a peer that pipelines requests
    ///   without reading responses stops being read from (TCP flow
    ///   control takes it from there), and both the frame buffer and
    ///   the response queue stay bounded;
    /// * `EPOLLIN` and `EPOLLRDHUP` always travel together — both are
    ///   level-triggered, so leaving either registered while reads are
    ///   parked (or after the EOF has been seen) would busy-spin the
    ///   reactor until the backlog drained. A peer that fully closes or
    ///   errors still punches through via `EPOLLHUP`/`EPOLLERR`, which
    ///   epoll always reports; a half-close is noticed when reads
    ///   resume, or by the idle timeout if they never do.
    fn update_interest(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
            return;
        };
        let reads_wanted =
            !conn.session.read_closed() && conn.session.backlog() == 0 && !input_saturated(conn);
        let mut interest = 0;
        if reads_wanted {
            interest |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if conn.session.backlog() > 0 {
            interest |= sys::EPOLLOUT;
        }
        if interest != conn.interest {
            conn.interest = interest;
            let _ = self
                .epoll
                .modify(conn.stream.as_raw_fd(), interest, token as u64);
        }
    }

    /// Takes a connection out of the slab and off epoll; its admission
    /// slot stays claimed.
    fn detach(&mut self, token: usize) -> Option<Conn> {
        let conn = self.conns.get_mut(token).and_then(Option::take)?;
        let _ = self.epoll.delete(conn.stream.as_raw_fd());
        self.backlog_gauge.add(-(conn.session.backlog() as i64));
        self.gens[token] = self.gens[token].wrapping_add(1);
        self.free.push(token);
        self.conns_gauge.add(-1);
        Some(conn)
    }

    fn close(&mut self, token: usize) {
        if self.detach(token).is_some() {
            self.shared.release();
            // The detached `Conn` drops here, closing the fd.
        }
    }

    fn close_all(&mut self) {
        for token in 0..self.conns.len() {
            self.close(token);
        }
    }

    /// Hands a connection taken over by HTTP admin or SUBSCRIBE to a
    /// plain thread running the blocking driver on its session — which
    /// writes any queued responses, then serves the takeover: rare,
    /// long-lived work with no business on the event loop. The
    /// admission slot follows the fd.
    fn handoff(&mut self, token: usize) {
        let Some(conn) = self.detach(token) else {
            return;
        };
        let shared = Arc::clone(&self.shared);
        let timeout = self.idle_timeout;
        thread::spawn(move || {
            // If the fd cannot be returned to blocking mode, writing
            // would fail spuriously with `WouldBlock` mid-queue; close
            // instead of speaking a takeover protocol on a broken fd.
            if conn.stream.set_nonblocking(false).is_ok() {
                let _ = conn.stream.set_read_timeout(timeout);
                drive(conn.stream, conn.session, &shared);
            }
            shared.release();
        });
    }
}

/// Whether a connection's input side has hit its high-water mark: a
/// budget's worth of bytes is buffered *and* at least one complete
/// frame waits among them, so processing (not reading) is what makes
/// progress next. The second condition matters — a single legal frame
/// can run to [`MAX_BODY`](crate::protocol::MAX_BODY), far past the budget, and parking reads
/// mid-frame would deadlock it; one complete frame in the buffer
/// guarantees the ready-list keeps draining until reads resume.
fn input_saturated(conn: &Conn) -> bool {
    conn.session.buffered() >= READ_BUDGET && conn.session.has_work()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wheel_files_and_expires_lazily() {
        let now = Instant::now();
        let mut wheel = Wheel::new(Duration::from_millis(400), now);
        wheel.schedule(3, 0, now + Duration::from_millis(30), now);
        let mut due = Vec::new();
        wheel.advance(now + Duration::from_millis(5), &mut due);
        assert!(due.is_empty(), "slot not due yet");
        wheel.advance(now + Duration::from_secs(2), &mut due);
        assert_eq!(due, vec![(3, 0)], "slot came due after the rotation");
    }
}
