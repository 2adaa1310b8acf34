//! The TCP server: the request core, admission control, and the HTTP
//! admin endpoint, behind a choice of two I/O models.
//!
//! Both models drive the same per-connection state machine (the
//! crate-private `conn` module: framing, admin sniffing, frame-damage
//! policy, fairness cap), which hands each frame to `process_body`
//! here — so their responses are byte-identical by construction. The
//! default [`IoModel::Threads`] runs one OS thread per connection with
//! the blocking driver — a fine trade at modest concurrency: a
//! connection's requests are strictly sequential (the protocol is
//! request/response), the farm's read path is wait-free, so threads
//! spend their lives parked in `read()` costing a stack apiece.
//! [`IoModel::Epoll`] (Linux only; see `crate::reactor`) replaces the
//! parked threads with a few reactor threads multiplexing nonblocking
//! sockets — a fraction of the memory at high connection counts.
//! Admission control bounds the cost either way: past
//! [`ServerConfig::max_connections`] a new connection receives one
//! [`ErrorCode::Busy`] frame and is closed, deterministically, instead
//! of queueing invisibly in the accept backlog.
//!
//! The same port doubles as the admin endpoint: a connection whose
//! first four bytes are `GET ` is served as one HTTP request
//! (`/metrics` → Prometheus exposition text, `/healthz` → liveness,
//! `/tenants` → per-tenant lifecycle JSON, `/flightrecorder` → the
//! recent-request ring as JSON) and closed. Binary framing can never
//! collide with this — `GET ` as a length prefix would be a
//! 0x20544547-byte frame, far beyond
//! [`MAX_BODY`](crate::protocol::MAX_BODY).
//!
//! # Observability
//!
//! Every request is clocked at its phase boundaries (frame read,
//! decode, and — through [`ProbeTiming`] —
//! name resolution, loading the publication, and the directory probe). A
//! request carrying the protocol's TRACE flag gets those boundaries
//! back as a span tree in a [`Response::Traced`]; the spans are built
//! from contiguous instants, so the child phases partition the root
//! span *exactly* — their durations sum to the root's. Every request
//! also feeds the per-tenant metric families and the
//! [`FlightRecorder`], sized by [`ObsConfig`].
//!
//! Metrics belong to the server instance: they live in its farm's
//! registry (the crate-private `metrics` module), so `/metrics` shows
//! this server's own state — never another co-resident server's —
//! followed by its edit log's counters and the engine's process-wide
//! `core::obs` facade.
//!
//! # Error policy
//!
//! * Frame-level damage (bad length, checksum mismatch) → one error
//!   frame, then close: the stream position can no longer be trusted.
//! * Payload-level damage (unknown opcode, malformed payload) → one
//!   error frame, connection keeps going: framing is still sound.
//! * Truncation / peer close → close quietly.
//! * Never a panic, never an unbounded read.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, LazyLock};
use std::thread;
use std::time::{Duration, Instant};

use cpplookup_obs::{Span, SpanRecorder};
use cpplookup_wal::{TailCursor, WalStore};

use crate::conn::{drive, Session};
use crate::farm::{Farm, FarmError, FarmOptions, ProbeTiming, ReadScratch};
use crate::protocol::{
    begin_frame, finish_frame, write_frame, Decoded, Enc, ErrorCode, Request, Response,
    PROTOCOL_VERSION,
};
use crate::recorder::FlightRecorder;
use crate::replication::wire_record;
#[cfg(target_os = "linux")]
use crate::sys::EventFd;

/// Sizes of the observability layer: the per-tenant metric families
/// and the flight recorder. Request tracing (the protocol TRACE flag)
/// costs nothing unless a client asks for it.
#[derive(Clone, Debug)]
pub struct ObsConfig {
    /// Flight-recorder main ring size (recent completed requests).
    pub recorder_capacity: usize,
    /// Requests at or over this latency also land in the slow log.
    pub slow_threshold: Duration,
    /// Bounded-cardinality limit for tenant-labelled families; tenants
    /// past the first `tenant_cardinality` distinct names share one
    /// `other` series.
    pub tenant_cardinality: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            recorder_capacity: 256,
            slow_threshold: Duration::from_millis(50),
            tenant_cardinality: 64,
        }
    }
}

/// Which I/O model the server multiplexes connections with. The wire
/// behaviour is identical either way — the reactor is pinned
/// byte-for-byte against the threaded model — only the cost model
/// differs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IoModel {
    /// One blocking OS thread per connection. The default and the
    /// portability fallback: works everywhere std does.
    #[default]
    Threads,
    /// A small set of epoll reactor threads driving nonblocking
    /// connection state machines (Linux only). Scales to thousands of
    /// mostly-idle connections without a parked stack apiece.
    Epoll,
}

impl IoModel {
    /// Parses the `--io-model` flag spelling.
    pub fn parse(s: &str) -> Option<IoModel> {
        match s {
            "threads" => Some(IoModel::Threads),
            "epoll" => Some(IoModel::Epoll),
            _ => None,
        }
    }

    /// The flag spelling, for usage text and metrics.
    pub fn label(self) -> &'static str {
        match self {
            IoModel::Threads => "threads",
            IoModel::Epoll => "epoll",
        }
    }
}

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (the default —
    /// `127.0.0.1:0`).
    pub addr: String,
    /// Admission-control bound on concurrent connections; the
    /// `max_connections + 1`-th connection is refused with
    /// [`ErrorCode::Busy`].
    pub max_connections: usize,
    /// Tenants to load before accepting traffic, as
    /// `(tenant, snapshot path)` pairs.
    pub preload: Vec<(String, PathBuf)>,
    /// Per-connection read timeout; an idle connection is dropped after
    /// this long (`None` = never).
    pub read_timeout: Option<Duration>,
    /// Observability layer: per-tenant metrics + flight recorder.
    pub obs: ObsConfig,
    /// Durable edit log file. `Some` makes this server a replication
    /// leader: loads and edits are appended (and recovered on restart),
    /// and `SUBSCRIBE` connections stream the log.
    pub wal_path: Option<PathBuf>,
    /// Group-commit policy for the edit log: fsync after every N
    /// appends (1 = every append; 0 = only on explicit syncs).
    pub fsync_every: usize,
    /// Published index epochs (current included) each tenant keeps
    /// loadable for `as-of` time-travel reads.
    pub retain_epochs: usize,
    /// Refuse client edits — the stance of a replication follower,
    /// whose only writer is the replayed log.
    pub read_only: bool,
    /// How connections are multiplexed: blocking threads (default) or
    /// the epoll reactor.
    pub io_model: IoModel,
    /// Reactor threads under [`IoModel::Epoll`]; `0` (the default) runs
    /// one per available core.
    pub reactors: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_connections: 64,
            preload: Vec::new(),
            read_timeout: Some(Duration::from_secs(120)),
            obs: ObsConfig::default(),
            wal_path: None,
            fsync_every: 1,
            retain_epochs: 1,
            read_only: false,
            io_model: IoModel::default(),
            reactors: 0,
        }
    }
}

/// State shared by every connection, whichever I/O model drives it.
/// The server's metrics live in its farm ([`Farm::metrics`]).
pub(crate) struct Shared {
    pub(crate) farm: Arc<Farm>,
    recorder: Arc<FlightRecorder>,
    /// Connections currently admitted, bounded by `max_connections`.
    active: AtomicUsize,
    max_connections: usize,
}

impl Shared {
    /// Claims a connection slot; `false` means the caller must refuse.
    fn try_admit(&self) -> bool {
        let m = self.farm.metrics();
        if self.active.load(Ordering::SeqCst) >= self.max_connections {
            m.rejected.inc();
            return false;
        }
        m.accepted.inc();
        self.active.fetch_add(1, Ordering::SeqCst);
        m.connections.add(1);
        true
    }

    /// Returns a slot claimed by [`try_admit`](Shared::try_admit).
    pub(crate) fn release(&self) {
        self.active.fetch_sub(1, Ordering::SeqCst);
        self.farm.metrics().connections.add(-1);
    }
}

/// A running server; dropping it (or calling
/// [`shutdown`](Server::shutdown)) stops the acceptor.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    /// The shutdown doorbell the acceptor polls beside the listener, so
    /// stopping never needs a throwaway connect to unblock `accept`.
    #[cfg(target_os = "linux")]
    wake: Arc<EventFd>,
    #[cfg(target_os = "linux")]
    reactors: Option<Arc<crate::reactor::ReactorSet>>,
    acceptor: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, preloads the configured tenants, and starts accepting.
    /// With an edit log configured, the log is recovered and replayed
    /// first ([`Farm::replay`]), so a restarted leader answers from the state it crashed
    /// with before its first connection.
    ///
    /// # Errors
    ///
    /// Bind failures, edit-log recovery failures (non-crash damage is
    /// refused — see [`cpplookup_wal::WalWriter::open`]), and preload
    /// failures (a missing or corrupt snapshot on the command line is a
    /// startup error, not a latent per-request one).
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let (wal, recovered) = match &config.wal_path {
            Some(path) => {
                let (store, recovered) = WalStore::open(path, config.fsync_every)
                    .map_err(|e| io::Error::other(format!("edit log `{}`: {e}", path.display())))?;
                (Some(Arc::new(store)), recovered)
            }
            None => (None, Vec::new()),
        };
        let farm = Arc::new(Farm::with_options(FarmOptions {
            tenant_cardinality: config.obs.tenant_cardinality,
            wal: wal.clone(),
            read_only: config.read_only,
            retain_epochs: config.retain_epochs,
        }));
        // Replay is load-shaped, not append-shaped: nothing here goes
        // back into the log. No reader is connected yet, so each
        // tenant's run of edits applies as one batch.
        farm.replay(&recovered).map_err(|(seq, (_, msg))| {
            io::Error::other(format!("edit log replay (seq {seq}): {msg}"))
        })?;
        farm.metrics().wal_replayed.add(recovered.len() as u64);
        for (tenant, path) in &config.preload {
            // A tenant the replay already restored carries edits the
            // pristine snapshot lacks; reloading it would wind the
            // state back and append a redundant Open to the log.
            if farm.has_tenant(tenant) {
                continue;
            }
            farm.load(tenant, path)
                .map_err(|(_, msg)| io::Error::other(format!("preload `{tenant}`: {msg}")))?;
        }
        farm.metrics().io_model.set(match config.io_model {
            IoModel::Threads => 0,
            IoModel::Epoll => 1,
        });
        let obs = &config.obs;
        let shared = Arc::new(Shared {
            farm,
            recorder: Arc::new(FlightRecorder::new(
                obs.recorder_capacity,
                obs.slow_threshold.as_nanos() as u64,
            )),
            active: AtomicUsize::new(0),
            max_connections: config.max_connections,
        });
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        #[cfg(target_os = "linux")]
        {
            let wake = Arc::new(EventFd::new()?);
            let reactors = match config.io_model {
                IoModel::Epoll => Some(crate::reactor::ReactorSet::start(
                    Arc::clone(&shared),
                    &config,
                )?),
                IoModel::Threads => None,
            };
            let acceptor = {
                let shared = Arc::clone(&shared);
                let stop = Arc::clone(&stop);
                let wake = Arc::clone(&wake);
                let reactors = reactors.clone();
                thread::spawn(move || accept_loop(listener, shared, stop, config, wake, reactors))
            };
            Ok(Server {
                addr,
                shared,
                stop,
                wake,
                reactors,
                acceptor: Some(acceptor),
            })
        }
        #[cfg(not(target_os = "linux"))]
        {
            if config.io_model == IoModel::Epoll {
                return Err(io::Error::other(
                    "--io-model epoll needs Linux; the threads model is the portable fallback",
                ));
            }
            let acceptor = {
                let shared = Arc::clone(&shared);
                let stop = Arc::clone(&stop);
                thread::spawn(move || accept_loop(listener, shared, stop, config))
            };
            Ok(Server {
                addr,
                shared,
                stop,
                acceptor: Some(acceptor),
            })
        }
    }

    /// The bound address (with the real port when `addr` asked for 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The farm, for in-process inspection (tests, benches).
    pub fn farm(&self) -> &Arc<Farm> {
        &self.shared.farm
    }

    /// The flight recorder.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.shared.recorder
    }

    /// Stops the acceptor and waits for it. Under the threaded model
    /// already-open connections drain on their own threads; under the
    /// reactor the reactors are stopped and their connections closed.
    pub fn shutdown(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Ring the doorbell the acceptor polls beside the listener.
            #[cfg(target_os = "linux")]
            self.wake.signal();
            // Portable fallback: no pollable wakeup without the syscall
            // shim, so unblock the accept with one throwaway connect.
            #[cfg(not(target_os = "linux"))]
            {
                let _ = TcpStream::connect(self.addr);
            }
            let _ = acceptor.join();
            #[cfg(target_os = "linux")]
            if let Some(reactors) = self.reactors.take() {
                reactors.shutdown();
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Admits one accepted stream: refuses over the limit, otherwise hands
/// it to a reactor (epoll model) or a fresh connection thread.
fn admit(
    stream: TcpStream,
    shared: &Arc<Shared>,
    cfg: &ServerConfig,
    #[cfg(target_os = "linux")] reactors: &Option<Arc<crate::reactor::ReactorSet>>,
) {
    if !shared.try_admit() {
        refuse(stream);
        return;
    }
    #[cfg(target_os = "linux")]
    if let Some(set) = reactors {
        set.dispatch(stream);
        return;
    }
    let shared = Arc::clone(shared);
    let timeout = cfg.read_timeout;
    thread::spawn(move || {
        let _ = stream.set_read_timeout(timeout);
        let _ = stream.set_nodelay(true);
        drive(stream, Session::new(), &shared);
        shared.release();
    });
}

#[cfg(target_os = "linux")]
fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    cfg: ServerConfig,
    wake: Arc<EventFd>,
    reactors: Option<Arc<crate::reactor::ReactorSet>>,
) {
    use std::os::unix::io::AsRawFd;
    // Nonblocking accept polled beside the shutdown doorbell: shutdown
    // is one eventfd write away, with no connect-to-self hack.
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let readable = match crate::sys::wait_two_readable(listener.as_raw_fd(), wake.raw(), 500) {
            Ok((l, w)) => {
                if w {
                    wake.drain();
                }
                l
            }
            Err(_) => {
                thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        if !readable {
            continue;
        }
        loop {
            match listener.accept() {
                Ok((stream, _)) => admit(stream, &shared, &cfg, &reactors),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    cfg: ServerConfig,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        admit(stream, &shared, &cfg);
    }
}

/// Tells an over-limit connection why it is being dropped.
fn refuse(mut stream: TcpStream) {
    let body = Response::Error {
        code: ErrorCode::Busy,
        message: "server at connection limit".to_owned(),
    }
    .encode();
    let _ = write_frame(&mut stream, &body);
    let _ = stream.shutdown(Shutdown::Both);
}

/// What a processed request body asks of the connection driver.
pub(crate) enum Action {
    /// The reply frame was appended to the output buffer.
    Replied,
    /// The connection becomes a replication subscription: hand the
    /// stream to [`serve_subscription`].
    Subscribe {
        /// Stream the edit log after this sequence number.
        from_seq: u64,
    },
}

/// The tenant name flight-recorder entries of tenant-less requests
/// carry.
static NO_TENANT: LazyLock<Arc<str>> = LazyLock::new(|| Arc::from(""));

/// Executes one request body — decode, dispatch, encode, metrics — and
/// appends its reply frame to `out`, the connection's output buffer.
/// The connection state machine calls it for every frame under either
/// I/O model. A `QUERY` or `BATCH` stays borrowed from frame to frame:
/// it is decoded as a [`ReadView`](crate::protocol::ReadView) over `body`, resolved and probed
/// through `scratch`, and its outcomes are written straight into
/// `out`, so a warmed connection answers it without allocating. `t0`
/// is when the frame's turn began and `t1` when it was peeled off the
/// frame buffer (the `queue_wait` phase); together with the decode and
/// farm phase stamps they cut the traced span tree's exact partition.
pub(crate) fn process_body(
    shared: &Shared,
    body: &[u8],
    t0: Instant,
    t1: Instant,
    scratch: &mut ReadScratch,
    out: &mut Vec<u8>,
) -> Action {
    let metrics = shared.farm.metrics();
    metrics.bytes_read.add((4 + body.len() + 8) as u64);
    let decoded = Request::decode_borrowed(body);
    let t2 = Instant::now();
    let frame = begin_frame(out);
    let mut spans: Vec<Span> = Vec::new();
    let (op, tenant, answered) = match decoded {
        Ok(Decoded::Read(view)) => {
            let op = if view.batch { "batch" } else { "query" };
            metrics.requests.with_label(op).inc();
            match shared.farm.answer(&view, scratch, out) {
                Ok((tenant, probe)) => {
                    // A traced read that succeeded answers with its span
                    // tree; everything else uses the plain encoding.
                    if view.trace {
                        spans = trace_spans(t0, t1, t2, probe);
                        let mut e = Enc::new(out);
                        e.u32(spans.len() as u32);
                        for s in &spans {
                            let parent = s.parent.unwrap_or(u64::MAX);
                            e.span(s.id, parent, &s.label, s.start_ns, s.duration_ns);
                        }
                    }
                    (op, tenant, Ok(()))
                }
                Err(e) => (op, Arc::from(view.tenant), Err(e)),
            }
        }
        Ok(Decoded::Owned(Request::Subscribe { from_seq })) => {
            // A subscription takes over the connection: from here the
            // stream speaks nothing but replicated records.
            out.truncate(frame);
            metrics.requests.with_label("subscribe").inc();
            return Action::Subscribe { from_seq };
        }
        Ok(Decoded::Owned(req)) => {
            let op = op_label(&req);
            metrics.requests.with_label(op).inc();
            let tenant = match &req {
                Request::Load { tenant, .. }
                | Request::Edit { tenant, .. }
                | Request::Stats { tenant } => Arc::from(tenant.as_str()),
                _ => Arc::clone(&NO_TENANT),
            };
            let answered = handle(shared, req).map(|r| r.encode_into(&mut Enc::new(out)));
            (op, tenant, answered)
        }
        // Payload-level damage: framing is intact, keep going.
        Err(e) => ("invalid", Arc::clone(&NO_TENANT), Err(e)),
    };
    let outcome_label = match answered {
        Ok(()) => "ok",
        Err((code, message)) => {
            metrics.errors.with_label(code.label()).inc();
            Response::Error { code, message }.encode_into(&mut Enc::new(out));
            code.label()
        }
    };
    finish_frame(out, frame);
    metrics.bytes_written.add((out.len() - frame) as u64);
    let latency_ns = t0.elapsed().as_nanos() as u64;
    if !tenant.is_empty() {
        metrics.queries.with_label(&tenant).with_label(op).inc();
        if matches!(op, "query" | "batch") {
            metrics.latency.with_label(&tenant).observe(latency_ns);
        }
    }
    shared
        .recorder
        .record(tenant, op, outcome_label, latency_ns, &spans);
    Action::Replied
}

/// Cuts the span tree of one traced read. It is called once the
/// outcomes are written, so the `encode` span is the real outcome
/// write; the six phases are cut from contiguous instants, so their
/// durations sum to the root's exactly.
fn trace_spans(t0: Instant, t1: Instant, t2: Instant, probe: ProbeTiming) -> Vec<Span> {
    let t6 = Instant::now();
    let mut rec = SpanRecorder::new(t0, 16);
    let off = |t: Instant| t.saturating_duration_since(t0).as_nanos() as u64;
    let cuts = [
        ("queue_wait", off(t1)),
        ("frame_decode", off(t2)),
        ("tenant_resolve", off(probe.resolved)),
        ("promotion_wait", off(probe.published)),
        ("directory_probe", off(probe.probed)),
        ("encode", off(t6)),
    ];
    let total = cuts.last().map_or(0, |&(_, end)| end);
    let root = rec.record_ns("request", None, 0, total);
    let mut prev = 0u64;
    for (label, end) in cuts {
        let end = end.max(prev);
        rec.record_ns(label, Some(root), prev, end - prev);
        prev = end;
    }
    rec.finish().0
}

fn op_label(req: &Request) -> &'static str {
    match req {
        Request::Hello { .. } => "hello",
        Request::Load { .. } => "load",
        Request::Query { .. } => "query",
        Request::Batch { .. } => "batch",
        Request::Edit { .. } => "edit",
        Request::Stats { .. } => "stats",
        Request::Metrics => "metrics",
        Request::Subscribe { .. } => "subscribe",
        Request::Ack { .. } => "ack",
    }
}

/// Executes one decoded request that is not a read against the farm.
/// (`QUERY` and `BATCH` take the borrowed path in `process_body`, and
/// [`Request::Subscribe`] becomes a connection takeover there.)
fn handle(shared: &Shared, req: Request) -> Result<Response, FarmError> {
    let farm = &shared.farm;
    match req {
        Request::Hello { version } => {
            if version != PROTOCOL_VERSION {
                return Err((
                    ErrorCode::BadVersion,
                    format!("client speaks v{version}, server v{PROTOCOL_VERSION}"),
                ));
            }
            Ok(Response::Hello {
                version: PROTOCOL_VERSION,
                tenants: farm.tenant_count(),
            })
        }
        Request::Load { tenant, path } => farm
            .load(&tenant, path.as_ref())
            .map(|(entries, bytes)| Response::Loaded { entries, bytes }),
        Request::Edit { tenant, directive } => farm
            .edit(&tenant, &directive)
            .map(|epoch| Response::Edited { epoch }),
        Request::Stats { tenant } => farm
            .stats_json(&tenant)
            .map(|json| Response::Stats { json }),
        Request::Metrics => Ok(Response::Metrics {
            text: farm.render_metrics(),
        }),
        Request::Query { .. } | Request::Batch { .. } | Request::Subscribe { .. } => Err((
            ErrorCode::BadPayload,
            "reads and subscriptions are served by the connection".to_owned(),
        )),
        Request::Ack { follower, seq } => match farm.wal() {
            Some(wal) => {
                farm.metrics()
                    .follower_acked_seq
                    .with_label(&follower)
                    .set(seq as i64);
                Ok(Response::Acked {
                    leader_seq: wal.last_seq(),
                })
            }
            None => Err((
                ErrorCode::NotReplicating,
                "this server has no edit log".to_owned(),
            )),
        },
    }
}

/// Streams the edit log over a connection that sent
/// [`Request::Subscribe`]: everything after the subscriber's
/// `from_seq`, then new records as they are appended, until either side
/// disconnects. The subscriber is expected to stay quiet — its ACKs
/// travel on a separate connection — so inbound bytes (or EOF) end the
/// stream.
pub(crate) fn serve_subscription(mut stream: TcpStream, shared: &Shared, from_seq: u64) {
    let Some(wal) = shared.farm.wal().cloned() else {
        respond(
            &mut stream,
            Response::Error {
                code: ErrorCode::NotReplicating,
                message: "this server has no edit log".to_owned(),
            },
        );
        return;
    };
    let metrics = shared.farm.metrics();
    metrics.subscribers.add(1);
    let mut cursor = TailCursor::from_seq(from_seq);
    // The liveness probe below must not block: a quiet, connected
    // subscriber answers `peek` with a timeout, a gone one with EOF.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(1)));
    loop {
        let batch = match wal.wait(&mut cursor, Duration::from_millis(250)) {
            Ok(batch) => batch,
            Err(e) => {
                // The writer validated this log at open; damage now is
                // rot under a live server. Tell the subscriber before
                // dropping it.
                respond(
                    &mut stream,
                    Response::Error {
                        code: ErrorCode::LoadFailed,
                        message: format!("edit log unreadable: {e}"),
                    },
                );
                break;
            }
        };
        if batch.is_empty() {
            // Idle: check the subscriber is still there, else this
            // thread outlives it parked in `wait` forever.
            match stream.peek(&mut [0u8; 1]) {
                Ok(0) => break,
                Ok(_) => break, // protocol violation: subscribers don't talk
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut => {}
                Err(_) => break,
            }
            continue;
        }
        let mut closed = false;
        for stamped in batch {
            let body = Response::Replicated {
                seq: stamped.seq,
                unix_nanos: stamped.unix_nanos,
                record: wire_record(&stamped.record),
            }
            .encode();
            if write_frame(&mut stream, &body).is_err() {
                closed = true;
                break;
            }
            metrics.replicated.inc();
            metrics.bytes_written.add((4 + body.len() + 8) as u64);
        }
        if closed {
            break;
        }
    }
    metrics.subscribers.add(-1);
}

fn respond(stream: &mut TcpStream, response: Response) -> bool {
    write_frame(stream, &response.encode()).is_ok()
}

/// Serves one HTTP request on a connection whose first bytes were
/// `GET `; the rest of the header is read (bounded) and discarded
/// beyond the request target. `prefill` is any bytes past the sniffed
/// `GET ` that the connection's driver already pulled off the socket.
pub(crate) fn serve_admin(mut stream: TcpStream, shared: &Shared, prefill: &[u8]) {
    // Read until the end of the header block or an 8 KiB cap, consuming
    // the prefill before touching the socket again.
    let mut header = Vec::with_capacity(256);
    let mut pre = prefill.iter();
    let mut byte = [0u8; 1];
    while header.len() < 8192 && !header.ends_with(b"\r\n\r\n") {
        if let Some(&b) = pre.next() {
            header.push(b);
            continue;
        }
        match stream.read(&mut byte) {
            Ok(1) => header.push(byte[0]),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
    // `GET ` is already consumed: the target is the first token.
    let target = header
        .split(|&b| b == b' ' || b == b'\r')
        .next()
        .map(|t| String::from_utf8_lossy(t).into_owned())
        .unwrap_or_default();
    shared.farm.metrics().admin_requests.inc();
    let (status, content_type, body) = match target.as_str() {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            shared.farm.render_metrics(),
        ),
        "/healthz" => ("200 OK", "text/plain", "ok\n".to_owned()),
        "/tenants" => (
            "200 OK",
            "application/json",
            shared
                .farm
                .stats_json("")
                .unwrap_or_else(|(_, m)| format!("{{\"error\":{}}}", crate::farm::json_str(&m))),
        ),
        "/flightrecorder" => ("200 OK", "application/json", shared.recorder.to_json()),
        _ => ("404 Not Found", "text/plain", "not found\n".to_owned()),
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    let _ = stream.shutdown(Shutdown::Both);
}

/// A warmed connection answers reads without allocating: after a
/// warm-up, a QUERY and a 64-probe BATCH fed through
/// [`Session::feed`] and answered by [`Session::serve`] allocate
/// nothing on the serving thread — frame parse, name resolution,
/// directory probe, reply encoding and metrics included. The counting
/// allocator is process-global, so it lives in this test module alone;
/// it counts per thread, so other tests running beside it do not move
/// the count.
#[cfg(test)]
#[allow(unsafe_code)]
mod alloc_tests {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    use cpplookup_chg::fixtures;
    use cpplookup_snapshot::Snapshot;

    use super::*;
    use crate::conn::Turn;
    use crate::protocol::frame;

    thread_local! {
        /// Allocations on this thread while [`COUNTING`] is set.
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
        static COUNTING: Cell<bool> = const { Cell::new(false) };
    }

    struct CountingAlloc;

    fn count_one() {
        let _ = COUNTING.try_with(|counting| {
            if counting.get() {
                let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
            }
        });
    }

    // SAFETY: every operation is delegated to `System`; the bookkeeping
    // only touches thread-local `Cell`s (`try_with`, so an allocation
    // during TLS teardown goes uncounted instead of panicking).
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count_one();
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count_one();
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static ALLOCATOR: CountingAlloc = CountingAlloc;

    #[test]
    fn a_warmed_session_serves_reads_without_allocating() {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let dir = std::env::temp_dir().join(format!(
            "cpplookup-session-alloc-{}-{nanos:x}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig9.snap");
        let g = fixtures::fig9();
        Snapshot::compile(&g).write_to(&path).unwrap();
        let farm = Farm::new();
        farm.load("t", &path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let defaults = ObsConfig::default();
        let shared = Shared {
            farm: Arc::new(farm),
            recorder: Arc::new(FlightRecorder::new(
                defaults.recorder_capacity,
                defaults.slow_threshold.as_nanos() as u64,
            )),
            active: AtomicUsize::new(0),
            max_connections: 1,
        };
        // Every class against every member, and an unknown-to-the-row
        // member: resolved, ambiguous and not-found verdicts.
        let names: Vec<(String, String)> = g
            .classes()
            .flat_map(|c| g.member_ids().map(move |m| (c, m)))
            .map(|(c, m)| (g.class_name(c).to_owned(), g.member_name(m).to_owned()))
            .collect();
        let probes: Vec<(String, String)> = names.iter().cycle().take(64).cloned().collect();
        let query = frame(
            &Request::Query {
                tenant: "t".to_owned(),
                class: "E".to_owned(),
                member: "m".to_owned(),
                trace: false,
                as_of: None,
            }
            .encode(),
        );
        let batch = frame(
            &Request::Batch {
                tenant: "t".to_owned(),
                probes,
                trace: false,
                as_of: None,
            }
            .encode(),
        );
        let mut session = Session::new();
        let mut round = |mut out: &mut dyn Write| {
            for request in [&query, &batch] {
                session.feed(request);
                assert!(matches!(session.serve(&shared), Turn::Idle));
                while session.backlog() > 0 {
                    session.write_to(&mut out).unwrap();
                }
            }
        };
        // The warm-up's replies are the answers.
        let mut replies = Vec::new();
        round(&mut replies);
        let mut replies = replies.as_slice();
        let answer = |replies: &mut &[u8]| {
            Response::decode(&crate::protocol::read_frame(replies).unwrap()).unwrap()
        };
        assert!(matches!(answer(&mut replies), Response::Outcome(_)));
        assert!(matches!(answer(&mut replies), Response::Outcomes(o) if o.len() == 64));
        for _ in 0..2 {
            round(&mut io::sink());
        }
        ALLOCS.set(0);
        COUNTING.set(true);
        round(&mut io::sink());
        COUNTING.set(false);
        assert_eq!(ALLOCS.get(), 0, "a warmed QUERY + BATCH allocated");
    }
}
