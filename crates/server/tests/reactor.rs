//! The epoll reactor is an I/O-model swap, not a semantic one: over
//! any wire session, a `--io-model epoll` server must answer
//! byte-identically to a `--io-model threads` server — across every
//! possible partial-read reassembly, pipelining burst, torn frame, and
//! damaged frame. These tests pin that, plus the reactor-specific
//! behaviors: fairness under pipelining, idle timeouts, admin and
//! subscription handoff, and prompt shutdown without the old
//! throwaway-connect hack.
#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::net::{Shutdown, SocketAddr};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cpplookup_chg::{fixtures, Chg};
use cpplookup_server::client::Client;
use cpplookup_server::protocol::{
    read_frame, write_frame, FrameError, Request, Response, WireOutcome, PROTOCOL_VERSION,
};
use cpplookup_server::server::{IoModel, Server, ServerConfig};
use cpplookup_snapshot::Snapshot;
use proptest::prelude::*;

/// A throwaway directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let dir = std::env::temp_dir().join(format!("cpplookup-reactor-{tag}-{nanos:x}"));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn write_snapshot(chg: &Chg, path: &Path) {
    Snapshot::compile(chg).write_to(path).unwrap();
}

fn config(io_model: IoModel, preload: &[(String, PathBuf)]) -> ServerConfig {
    ServerConfig {
        io_model,
        preload: preload.to_vec(),
        ..ServerConfig::default()
    }
}

/// A server pair over identical preloads: the reactor under test and
/// the threaded reference.
fn start_pair(preload: &[(String, PathBuf)]) -> (Server, Server) {
    let epoll = Server::start(config(IoModel::Epoll, preload)).unwrap();
    let threads = Server::start(config(IoModel::Threads, preload)).unwrap();
    (epoll, threads)
}

fn frame_of(req: &Request) -> Vec<u8> {
    let mut wire = Vec::new();
    write_frame(&mut wire, &req.encode()).unwrap();
    wire
}

/// Plays a raw byte stream at a server — written as the given chunks,
/// flushed between each — and collects one response frame per request.
fn play_chunks(addr: SocketAddr, chunks: &[&[u8]], expect: usize) -> Vec<Vec<u8>> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream.set_nodelay(true).unwrap();
    for chunk in chunks {
        stream.write_all(chunk).unwrap();
        stream.flush().unwrap();
    }
    stream.shutdown(Shutdown::Write).unwrap();
    let mut responses = Vec::with_capacity(expect);
    for _ in 0..expect {
        responses.push(read_frame(&mut stream).unwrap());
    }
    assert!(
        matches!(read_frame(&mut stream), Err(FrameError::Eof)),
        "server must close cleanly after the write half shuts"
    );
    responses
}

/// Plays a full session (one write) at a server.
fn play(addr: SocketAddr, requests: &[Request]) -> Vec<Vec<u8>> {
    let wire: Vec<u8> = requests.iter().flat_map(frame_of).collect();
    play_chunks(addr, &[&wire], requests.len())
}

/// One snapshot, loadable by both servers of a pair.
fn fig2_preload(dir: &TempDir) -> Vec<(String, PathBuf)> {
    let snap = dir.file("fig2.snap");
    write_snapshot(&fixtures::fig2(), &snap);
    vec![("t0".to_owned(), snap)]
}

/// The value of one exposition series (`name` or `name{labels}`) in a
/// Prometheus text.
fn series(text: &str, name: &str) -> Option<i64> {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
}

/// A server's `GET /metrics` body.
fn http_metrics(addr: SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stream, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    response
}

fn query(class: &str, member: &str) -> Request {
    Request::Query {
        tenant: "t0".to_owned(),
        class: class.to_owned(),
        member: member.to_owned(),
        trace: false,
        as_of: None,
    }
}

/// A deterministic-response session exercising every pinnable opcode:
/// hello, point queries (hit, miss, unknown-name error), batch, edits,
/// as-of reads back at the pre-edit epoch, and stats.
fn recorded_session() -> Vec<Request> {
    vec![
        Request::Hello {
            version: PROTOCOL_VERSION,
        },
        query("E", "m"),
        query("A", "m"),
        query("E", "nope"),
        Request::Batch {
            tenant: "t0".to_owned(),
            probes: vec![
                ("E".to_owned(), "m".to_owned()),
                ("C".to_owned(), "m".to_owned()),
                ("A".to_owned(), "m".to_owned()),
            ],
            trace: false,
            as_of: None,
        },
        Request::Edit {
            tenant: "t0".to_owned(),
            directive: "member E fresh".to_owned(),
        },
        query("E", "fresh"),
        Request::Query {
            tenant: "t0".to_owned(),
            class: "E".to_owned(),
            member: "fresh".to_owned(),
            trace: false,
            as_of: Some(1),
        },
        Request::Stats {
            tenant: "t0".to_owned(),
        },
        query("E", "m"),
    ]
}

/// The epoll model must answer the full recorded session byte-for-byte
/// like the threaded model, and both `Client` conveniences must work
/// against it unchanged.
#[test]
fn epoll_full_session_matches_threads_byte_for_byte() {
    let dir = TempDir::new("differential");
    let preload = fig2_preload(&dir);
    let (epoll, threads) = start_pair(&preload);
    let session = recorded_session();
    let got = play(epoll.addr(), &session);
    let want = play(threads.addr(), &session);
    assert_eq!(got, want, "reactor diverged from the threaded model");

    // The blocking client speaks to the reactor unchanged.
    let mut c = Client::connect(epoll.addr(), Some(Duration::from_secs(10))).unwrap();
    assert_eq!(c.hello().unwrap(), 1);
    match c.query("t0", "E", "m").unwrap() {
        WireOutcome::Resolved { class, .. } => assert_eq!(class, "D"),
        other => panic!("unexpected {other:?}"),
    }
    // Each server exports its own io-model gauge.
    assert_eq!(series(&c.metrics().unwrap(), "server_io_model"), Some(1));
    let mut t = Client::connect(threads.addr(), Some(Duration::from_secs(10))).unwrap();
    assert_eq!(series(&t.metrics().unwrap(), "server_io_model"), Some(0));
}

/// Traced responses carry measured durations, so they are compared
/// structurally: same outcome, same span tree shape, and the exact
/// six-phase partition must hold under the reactor too.
#[test]
fn epoll_traced_partition_stays_exact() {
    let dir = TempDir::new("traced");
    let preload = fig2_preload(&dir);
    let (epoll, threads) = start_pair(&preload);
    let spans_of = |server: &Server| {
        let mut c = Client::connect(server.addr(), Some(Duration::from_secs(10))).unwrap();
        c.query_traced("t0", "E", "m").unwrap()
    };
    let (outcome_e, spans_e) = spans_of(&epoll);
    let (outcome_t, spans_t) = spans_of(&threads);
    assert_eq!(outcome_e, outcome_t);
    let shape = |s: &[cpplookup_server::WireSpan]| -> Vec<(u64, u64, String)> {
        s.iter()
            .map(|x| (x.id, x.parent, x.label.clone()))
            .collect()
    };
    assert_eq!(shape(&spans_e), shape(&spans_t), "span trees must match");
    // Exact partition: children chain contiguously and sum to the root.
    let root = &spans_e[0];
    let mut cursor = 0u64;
    for span in &spans_e[1..] {
        assert_eq!(span.parent_id(), Some(root.id));
        assert_eq!(span.start_ns, cursor, "phases must stay contiguous");
        cursor += span.duration_ns;
    }
    assert_eq!(cursor, root.duration_ns, "partition must stay exact");
}

/// A pipelined burst far beyond the per-turn fairness cap: every frame
/// still gets its answer, in order, in both models.
#[test]
fn pipelined_burst_beyond_fairness_cap_answers_in_order() {
    let dir = TempDir::new("burst");
    let preload = fig2_preload(&dir);
    let session: Vec<Request> = (0..100)
        .map(|i| {
            if i % 2 == 0 {
                query("E", "m")
            } else {
                query("A", "m")
            }
        })
        .collect();
    for io_model in [IoModel::Epoll, IoModel::Threads] {
        let server = Server::start(config(io_model, &preload)).unwrap();
        let responses = play(server.addr(), &session);
        assert_eq!(responses.len(), 100);
        for (i, body) in responses.iter().enumerate() {
            let decoded = Response::decode(body).unwrap();
            match decoded {
                Response::Outcome(WireOutcome::Resolved { ref class, .. }) => {
                    assert_eq!(class, if i % 2 == 0 { "D" } else { "A" }, "frame {i}")
                }
                other => panic!("frame {i}: unexpected {other:?}"),
            }
        }
    }
}

/// Frame damage mid-pipeline: the frames before the damage are
/// answered, the damage draws exactly one error frame, and the
/// connection closes — identically in both models.
#[test]
fn damaged_frame_mid_pipeline_answers_prefix_then_one_error() {
    let dir = TempDir::new("damage");
    let preload = fig2_preload(&dir);
    let (epoll, threads) = start_pair(&preload);
    let good = frame_of(&query("E", "m"));
    let mut damaged = good.clone();
    let at = damaged.len() / 2;
    damaged[at] ^= 0x20; // body damage => trailing checksum mismatch
    let mut wire = Vec::new();
    wire.extend_from_slice(&good);
    wire.extend_from_slice(&good);
    wire.extend_from_slice(&damaged);
    wire.extend_from_slice(&good); // never answered: stream is garbage
    let run = |server: &Server| -> Vec<Vec<u8>> {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        stream.write_all(&wire).unwrap();
        let mut responses = Vec::new();
        // Reads until the server closes (EOF or reset) after the error frame.
        while let Ok(body) = read_frame(&mut stream) {
            responses.push(body);
        }
        responses
    };
    let got = run(&epoll);
    let want = run(&threads);
    assert_eq!(got, want, "damage handling diverged");
    assert_eq!(got.len(), 3, "two answers + one error frame");
    assert!(
        matches!(Response::decode(&got[2]), Ok(Response::Error { .. })),
        "third frame must be the damage report"
    );
}

/// A torn frame at the end of a pipeline (the peer gives up mid-frame
/// and closes): the complete frames are answered, the torn one draws
/// nothing, and the connection closes cleanly.
#[test]
fn torn_trailing_frame_is_dropped_after_complete_ones_answer() {
    let dir = TempDir::new("torn");
    let preload = fig2_preload(&dir);
    let (epoll, threads) = start_pair(&preload);
    let good = frame_of(&query("E", "m"));
    for cut in 1..good.len() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&good);
        wire.extend_from_slice(&good[..cut]);
        let got = play_chunks(epoll.addr(), &[&wire], 1);
        let want = play_chunks(threads.addr(), &[&wire], 1);
        assert_eq!(got, want, "torn at {cut} diverged");
    }
}

/// A peer that pipelines a multi-megabyte burst of responses' worth of
/// requests while refusing to read: the reactor parks its read interest
/// under the write backlog (backpressure by interest — its buffers stay
/// bounded by TCP flow control) and must still answer every frame,
/// byte-identical to the threaded model, once the peer starts draining.
#[test]
fn unread_pipelined_backlog_parks_reads_then_drains_completely() {
    let dir = TempDir::new("backlog");
    let preload = fig2_preload(&dir);
    // 256 batches of 256 probes each: ~2 MB of responses, far past the
    // socket buffers, so the server is forced through its blocked-write
    // state while the client deliberately sits on the unread backlog.
    let probes: Vec<(String, String)> = (0..256)
        .map(|i| {
            let class = if i % 2 == 0 { "E" } else { "A" };
            (class.to_owned(), "m".to_owned())
        })
        .collect();
    let batch = frame_of(&Request::Batch {
        tenant: "t0".to_owned(),
        probes,
        trace: false,
        as_of: None,
    });
    let count = 256usize;
    let wire: Vec<u8> = batch.repeat(count);
    let mut per_model = Vec::new();
    for io_model in [IoModel::Epoll, IoModel::Threads] {
        let server = Server::start(config(io_model, &preload)).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.set_nodelay(true).unwrap();
        // The requests flow from a separate thread: once the response
        // backlog stalls the server, the request stream backs up too,
        // and this writer blocks until the main thread starts reading.
        let mut writer_half = stream.try_clone().unwrap();
        let writer_wire = wire.clone();
        let writer = std::thread::spawn(move || {
            writer_half.write_all(&writer_wire).unwrap();
            writer_half.flush().unwrap();
            writer_half.shutdown(Shutdown::Write).unwrap();
        });
        // Hold every response unread long enough for the backlog (and
        // the parked read interest) to actually form.
        std::thread::sleep(Duration::from_millis(200));
        let responses: Vec<Vec<u8>> = (0..count)
            .map(|i| read_frame(&mut stream).unwrap_or_else(|e| panic!("frame {i}: {e:?}")))
            .collect();
        writer.join().unwrap();
        assert!(
            matches!(read_frame(&mut stream), Err(FrameError::Eof)),
            "server must close cleanly after the drain"
        );
        per_model.push(responses);
    }
    assert_eq!(
        per_model[0], per_model[1],
        "epoll and threads diverged under an unread backlog"
    );
}

/// A single frame far larger than the reactor's per-event read budget
/// (which doubles as the input high-water mark): the park must never
/// engage mid-frame — a complete frame has to be able to finish
/// arriving — and the answer must match the threaded model's.
#[test]
fn frame_larger_than_read_budget_completes_in_both_models() {
    let dir = TempDir::new("bigframe");
    let preload = fig2_preload(&dir);
    let (epoll, threads) = start_pair(&preload);
    // ~80k probes ≈ 480 KiB of frame, past the 256 KiB read budget.
    let probes: Vec<(String, String)> = (0..80_000)
        .map(|i| {
            let class = if i % 2 == 0 { "E" } else { "A" };
            (class.to_owned(), "m".to_owned())
        })
        .collect();
    let big = Request::Batch {
        tenant: "t0".to_owned(),
        probes,
        trace: false,
        as_of: None,
    };
    let wire = frame_of(&big);
    assert!(wire.len() > 256 * 1024, "frame must exceed the budget");
    // A small frame ahead of the giant one, so the buffer holds
    // complete work while the big frame is still arriving.
    let session: Vec<u8> = [frame_of(&query("E", "m")), wire].concat();
    let got = play_chunks(epoll.addr(), &[&session], 2);
    let want = play_chunks(threads.addr(), &[&session], 2);
    assert_eq!(got, want, "oversized frame diverged between models");
}

/// The tentpole reassembly property: splitting the recorded session at
/// EVERY byte boundary (two writes with a flush between) must leave
/// both models' responses byte-identical to the threaded model's
/// answers for the unsplit session.
#[test]
fn every_byte_boundary_split_reassembles_identically() {
    let dir = TempDir::new("splits");
    let preload = fig2_preload(&dir);
    let (epoll, threads) = start_pair(&preload);
    // A short session keeps every-boundary exhaustive yet fast.
    let session = vec![
        Request::Hello {
            version: PROTOCOL_VERSION,
        },
        query("E", "m"),
        Request::Batch {
            tenant: "t0".to_owned(),
            probes: vec![
                ("E".to_owned(), "m".to_owned()),
                ("A".to_owned(), "m".to_owned()),
            ],
            trace: false,
            as_of: None,
        },
    ];
    let wire: Vec<u8> = session.iter().flat_map(frame_of).collect();
    let want = play(threads.addr(), &session);
    for cut in 0..=wire.len() {
        for server in [&epoll, &threads] {
            let got = play_chunks(server.addr(), &[&wire[..cut], &wire[cut..]], session.len());
            assert_eq!(
                got,
                want,
                "split at byte {cut} diverged ({})",
                server.addr()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary multi-way splits of the recorded multi-frame session —
    /// partial writes tearing frames anywhere, many times over — always
    /// reassemble to the threaded model's byte-exact answers for the
    /// unsplit session, in both models.
    #[test]
    fn arbitrary_partial_writes_reassemble_identically(
        cuts in proptest::collection::vec(0.0f64..1.0, 0..12),
    ) {
        let dir = TempDir::new("prop");
        let preload = fig2_preload(&dir);
        let (epoll, threads) = start_pair(&preload);
        // The session edits its tenant, so the split replay under the
        // threaded model gets a server of its own.
        let split_threads = Server::start(config(IoModel::Threads, &preload)).unwrap();
        let session = recorded_session();
        let wire: Vec<u8> = session.iter().flat_map(frame_of).collect();
        let mut offsets: Vec<usize> = cuts
            .iter()
            .map(|f| (f * wire.len() as f64) as usize)
            .collect();
        offsets.push(0);
        offsets.push(wire.len());
        offsets.sort_unstable();
        offsets.dedup();
        let chunks: Vec<&[u8]> = offsets
            .windows(2)
            .map(|w| &wire[w[0]..w[1]])
            .collect();
        let want = play(threads.addr(), &session);
        let got = play_chunks(epoll.addr(), &chunks, session.len());
        prop_assert_eq!(&got, &want, "epoll: chunking {:?} diverged", offsets);
        let got = play_chunks(split_threads.addr(), &chunks, session.len());
        prop_assert_eq!(&got, &want, "threads: chunking {:?} diverged", offsets);
    }
}

/// Both models enforce the idle timeout: a connection that goes quiet
/// is dropped, and one that stays active is not.
#[test]
fn idle_connections_time_out_in_both_models() {
    let dir = TempDir::new("idle");
    let preload = fig2_preload(&dir);
    for io_model in [IoModel::Epoll, IoModel::Threads] {
        let server = Server::start(ServerConfig {
            read_timeout: Some(Duration::from_millis(250)),
            ..config(io_model, &preload)
        })
        .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // Prove the connection is live, then go quiet.
        stream.write_all(&frame_of(&query("E", "m"))).unwrap();
        read_frame(&mut stream).unwrap();
        let start = Instant::now();
        let mut buf = [0u8; 1];
        let n = stream.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "idle connection must be closed ({io_model:?})");
        assert!(
            start.elapsed() < Duration::from_secs(8),
            "timeout must fire promptly ({io_model:?})"
        );
    }
}

/// The HTTP admin endpoint still answers when the connection lands on a
/// reactor: the sniffed `GET ` hands the fd off to a blocking thread.
#[test]
fn admin_endpoint_works_under_epoll() {
    let dir = TempDir::new("admin");
    let preload = fig2_preload(&dir);
    let server = Server::start(config(IoModel::Epoll, &preload)).unwrap();
    let mut c = Client::connect(server.addr(), Some(Duration::from_secs(10))).unwrap();
    c.query("t0", "E", "m").unwrap();
    let response = http_metrics(server.addr());
    assert_eq!(series(&response, "server_io_model"), Some(1), "{response}");
    assert!(
        response.contains("reactor_connections"),
        "per-reactor gauges must be exported: {response}"
    );
}

/// Two servers in one process, one per I/O model, each with its own
/// tenants and its own query count: each `/metrics` shows only its own
/// server's state, and nothing server-side lands in the process-wide
/// engine facade.
#[test]
fn co_resident_servers_export_only_their_own_metrics() {
    let dir = TempDir::new("co-resident");
    let snap = dir.file("fig2.snap");
    write_snapshot(&fixtures::fig2(), &snap);
    let tenants = |names: &[&str]| -> Vec<(String, PathBuf)> {
        names
            .iter()
            .map(|n| (n.to_string(), snap.clone()))
            .collect()
    };
    let threads = Server::start(config(IoModel::Threads, &tenants(&["a"]))).unwrap();
    let epoll = Server::start(config(IoModel::Epoll, &tenants(&["b0", "b1"]))).unwrap();
    for (server, tenant, queries, io_model, loaded) in
        [(&threads, "a", 3, 0, 1), (&epoll, "b1", 5, 1, 2)]
    {
        let mut c = Client::connect(server.addr(), Some(Duration::from_secs(10))).unwrap();
        for _ in 0..queries {
            c.query(tenant, "E", "m").unwrap();
        }
        drop(c);
        let text = http_metrics(server.addr());
        assert_eq!(series(&text, "server_io_model"), Some(io_model), "{text}");
        assert_eq!(series(&text, "server_tenants"), Some(loaded), "{text}");
        assert_eq!(
            series(&text, "server_requests_total{op=\"query\"}"),
            Some(queries),
            "{text}"
        );
        let q = format!("server_queries_total{{tenant=\"{tenant}\",op=\"query\"}}");
        assert_eq!(series(&text, &q), Some(queries), "{text}");
    }
    let (a, b) = (http_metrics(threads.addr()), http_metrics(epoll.addr()));
    assert!(
        !a.contains("tenant=\"b1\"") && !a.contains("reactor=\""),
        "{a}"
    );
    assert!(!b.contains("tenant=\"a\""), "{b}");
    let leaked: Vec<String> = cpplookup_core::obs::snapshot()
        .metrics
        .into_iter()
        .map(|m| m.name)
        .filter(|n| {
            ["server_", "reactor_", "tenant_", "wal_", "replication_"]
                .iter()
                .any(|p| n.starts_with(p))
        })
        .collect();
    assert!(
        leaked.is_empty(),
        "server metrics in the process facade: {leaked:?}"
    );
}

/// An admin request whose first bytes arrive apart — before the sniff
/// has its four bytes, or mid request target — is still recognised and
/// answered, in both models.
#[test]
fn admin_request_split_before_sniff_answers_in_both_models() {
    let dir = TempDir::new("admin-split");
    let preload = fig2_preload(&dir);
    let (epoll, threads) = start_pair(&preload);
    let request = b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
    // `GE` + the rest, and `GET /met` + the rest.
    for cut in [2, 8] {
        for server in [&epoll, &threads] {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            stream.set_nodelay(true).unwrap();
            stream.write_all(&request[..cut]).unwrap();
            // Not needed to pass; makes the first part arrive as a read
            // of its own rather than coalesced with the rest.
            std::thread::sleep(Duration::from_millis(10));
            stream.write_all(&request[cut..]).unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            assert!(
                response.starts_with("HTTP/1.1 200 OK"),
                "split at {cut} ({}): {response}",
                server.addr()
            );
        }
    }
}

/// `SUBSCRIBE` under the reactor: the connection is handed off to a
/// blocking subscription stream and delivers replicated records.
#[test]
fn subscription_stream_works_under_epoll() {
    let dir = TempDir::new("subscribe");
    let preload = fig2_preload(&dir);
    let server = Server::start(ServerConfig {
        wal_path: Some(dir.file("edits.wal")),
        ..config(IoModel::Epoll, &preload)
    })
    .unwrap();
    let mut writer = Client::connect(server.addr(), Some(Duration::from_secs(10))).unwrap();
    writer.edit("t0", "member E fresh").unwrap();
    let follower = Client::connect(server.addr(), Some(Duration::from_secs(10))).unwrap();
    let mut sub = follower.subscribe(0).unwrap();
    // Seq 1 is the preload's Open record, seq 2 the edit.
    let (seq, _epoch, record) = sub.next_record().unwrap();
    assert_eq!(seq, 1);
    assert!(
        matches!(record, cpplookup_server::protocol::WireRecord::Open { ref tenant, .. } if tenant == "t0"),
        "unexpected {record:?}"
    );
    let (seq, _epoch, record) = sub.next_record().unwrap();
    assert_eq!(seq, 2);
    assert!(
        matches!(record, cpplookup_server::protocol::WireRecord::Edit { ref tenant, .. } if tenant == "t0"),
        "unexpected {record:?}"
    );
}

/// Shutdown is prompt in both models with open idle connections and no
/// throwaway self-connect: the eventfd doorbell unblocks the acceptor,
/// and the reactors close their slabs.
#[test]
fn shutdown_is_prompt_with_open_connections() {
    let dir = TempDir::new("shutdown");
    let preload = fig2_preload(&dir);
    for io_model in [IoModel::Epoll, IoModel::Threads] {
        let mut server = Server::start(config(io_model, &preload)).unwrap();
        // Park a couple of live, idle connections.
        let mut held: Vec<Client> = (0..2)
            .map(|_| Client::connect(server.addr(), Some(Duration::from_secs(10))).unwrap())
            .collect();
        for c in &mut held {
            c.hello().unwrap();
        }
        let start = Instant::now();
        server.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "shutdown must not hang ({io_model:?})"
        );
    }
}

/// Round-robin across multiple reactors: connections spread over the
/// configured reactor threads and all of them serve traffic.
#[test]
fn multiple_reactors_share_the_accept_stream() {
    let dir = TempDir::new("spread");
    let preload = fig2_preload(&dir);
    let server = Server::start(ServerConfig {
        reactors: 3,
        ..config(IoModel::Epoll, &preload)
    })
    .unwrap();
    let mut clients: Vec<Client> = (0..6)
        .map(|_| Client::connect(server.addr(), Some(Duration::from_secs(10))).unwrap())
        .collect();
    for c in &mut clients {
        match c.query("t0", "E", "m").unwrap() {
            WireOutcome::Resolved { class, .. } => assert_eq!(class, "D"),
            other => panic!("unexpected {other:?}"),
        }
    }
    // Round-robin gave each of the three reactors two of the six.
    let metrics = clients[0].metrics().unwrap();
    for reactor in 0..3 {
        assert_eq!(
            series(
                &metrics,
                &format!("reactor_connections{{reactor=\"{reactor}\"}}")
            ),
            Some(2),
            "round-robin must give reactor {reactor} two connections: {metrics}"
        );
    }
}
