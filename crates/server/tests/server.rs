//! End-to-end tests over real sockets: wire correctness against the
//! in-process `DispatchIndex`, malformed-bytes robustness, admission
//! control, and the HTTP admin endpoint.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use cpplookup_chg::{fixtures, Chg};
use cpplookup_core::{LeastVirtual, LookupOutcome};
use cpplookup_server::client::Client;
use cpplookup_server::protocol::{
    read_frame, write_frame, ErrorCode, Request, Response, WireLv, WireOutcome, MAX_BODY,
};
use cpplookup_server::server::{Server, ServerConfig};
use cpplookup_snapshot::{Snapshot, SnapshotTable};

/// A throwaway directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let dir = std::env::temp_dir().join(format!("cpplookup-server-{tag}-{nanos:x}"));
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

fn start_server(config: ServerConfig) -> (Server, String) {
    let server = Server::start(config).unwrap();
    let addr = server.addr().to_string();
    (server, addr)
}

fn connect(addr: &str) -> Client {
    Client::connect(addr, Some(Duration::from_secs(10))).unwrap()
}

/// The reference encoding: what the wire answer MUST byte-equal, built
/// from the in-process outcome plus the snapshot's name tables.
fn expect_wire(table: &SnapshotTable, outcome: &LookupOutcome) -> WireOutcome {
    let name = |c| table.class_name(c).unwrap().to_owned();
    let lv = |v: &LeastVirtual| match v {
        LeastVirtual::Omega => WireLv::Omega,
        LeastVirtual::Class(c) => WireLv::Class(name(*c)),
    };
    match outcome {
        LookupOutcome::NotFound => WireOutcome::NotFound,
        LookupOutcome::Resolved {
            class,
            least_virtual,
        } => WireOutcome::Resolved {
            class: name(*class),
            least_virtual: lv(least_virtual),
        },
        LookupOutcome::Ambiguous { witnesses } => WireOutcome::Ambiguous {
            witnesses: witnesses.iter().map(lv).collect(),
        },
    }
}

#[test]
fn full_session_load_query_batch_edit_stats_metrics() {
    let dir = TempDir::new("session");
    let snap = dir.file("fig2.snap");
    write_snapshot(&fixtures::fig2(), &snap);
    let (_server, addr) = start_server(ServerConfig::default());
    let mut c = connect(&addr);

    assert_eq!(c.hello().unwrap(), 0, "farm starts empty");
    let (entries, bytes) = c.load("t0", snap.to_str().unwrap()).unwrap();
    assert!(entries > 0 && bytes > 0);
    assert_eq!(c.hello().unwrap(), 1);

    match c.query("t0", "E", "m").unwrap() {
        WireOutcome::Resolved { class, .. } => assert_eq!(class, "D"),
        other => panic!("unexpected {other:?}"),
    }
    let probes = vec![
        ("E".to_owned(), "m".to_owned()),
        ("A".to_owned(), "m".to_owned()),
    ];
    let outcomes = c.batch("t0", &probes).unwrap();
    assert_eq!(outcomes.len(), 2);

    // Promotion epoch 0, engine attach 1, first edit 2.
    assert_eq!(c.edit("t0", "member E fresh").unwrap(), 2);
    match c.query("t0", "E", "fresh").unwrap() {
        WireOutcome::Resolved { class, .. } => assert_eq!(class, "E"),
        other => panic!("unexpected {other:?}"),
    }

    let stats = c.stats("t0").unwrap();
    assert!(stats.contains("\"tenant\":\"t0\""), "{stats}");
    assert!(stats.contains("\"live\":true"), "{stats}");
    let all = c.stats("").unwrap();
    assert!(all.starts_with("{\"tenants\":["), "{all}");

    let metrics = c.metrics().unwrap();
    assert!(
        metrics.contains("server_requests_total"),
        "prometheus text should carry server counters: {metrics}"
    );
}

#[test]
fn wire_answers_byte_equal_in_process_dispatch_index() {
    let corpus_dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus"));
    let mut snaps: Vec<PathBuf> = std::fs::read_dir(corpus_dir)
        .expect("tests/corpus must exist")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .collect();
    snaps.sort();
    assert!(snaps.len() >= 10, "corpus families missing: {snaps:?}");

    let (_server, addr) = start_server(ServerConfig::default());
    let mut c = connect(&addr);
    for snap in &snaps {
        let tenant = snap.file_stem().unwrap().to_str().unwrap();
        c.load(tenant, snap.to_str().unwrap()).unwrap();
        let table = SnapshotTable::load(snap).unwrap();
        let index = table.dispatch_index();
        // Probe the full cross product of declared names: hits, misses,
        // and ambiguities all travel the wire.
        let mut probes = Vec::new();
        for ci in 0..table.class_count() {
            let class = cpplookup_chg::ClassId::from_index(ci);
            for mi in 0..table.member_name_count() {
                let member = cpplookup_chg::MemberId::from_index(mi);
                probes.push((class, member));
            }
        }
        let expected: Vec<WireOutcome> = index
            .lookup_batch(&probes)
            .iter()
            .map(|o| expect_wire(&table, o))
            .collect();
        let named: Vec<(String, String)> = probes
            .iter()
            .map(|&(cl, m)| {
                (
                    table.class_name(cl).unwrap().to_owned(),
                    table.member_name(m).unwrap().to_owned(),
                )
            })
            .collect();
        // Every probe four ways — QUERY, BATCH, traced QUERY, traced
        // BATCH — through the server's one read path.
        let got = c.batch(tenant, &named).unwrap();
        assert_eq!(got, expected, "batch mismatch in {tenant}");
        let (traced, spans) = c.batch_traced(tenant, &named).unwrap();
        assert_eq!(traced, expected, "traced batch mismatch in {tenant}");
        assert!(!spans.is_empty(), "traced batch without spans in {tenant}");
        for (i, (class, member)) in named.iter().enumerate() {
            assert_eq!(
                c.query(tenant, class, member).unwrap(),
                expected[i],
                "query mismatch in {tenant} for ({class}, {member})"
            );
            let (outcome, spans) = c.query_traced(tenant, class, member).unwrap();
            assert_eq!(
                outcome, expected[i],
                "traced query mismatch in {tenant} for ({class}, {member})"
            );
            assert!(!spans.is_empty(), "traced query without spans in {tenant}");
        }
    }
}

#[test]
fn concurrent_clients_many_tenants_differential() {
    let dir = TempDir::new("concurrent");
    let graphs = [fixtures::fig1(), fixtures::fig2(), fixtures::fig9()];
    let mut tenants = Vec::new();
    for (i, g) in graphs.iter().enumerate() {
        let path = dir.file(&format!("g{i}.snap"));
        write_snapshot(g, &path);
        tenants.push((format!("g{i}"), path));
    }
    let (server, addr) = start_server(ServerConfig {
        preload: tenants.clone(),
        ..ServerConfig::default()
    });

    // Reference answers from in-process indexes over the same files.
    let refs: Vec<(String, SnapshotTable)> = tenants
        .iter()
        .map(|(name, path)| (name.clone(), SnapshotTable::load(path).unwrap()))
        .collect();
    let refs = std::sync::Arc::new(refs);

    let workers: Vec<_> = (0..8)
        .map(|worker| {
            let addr = addr.clone();
            let refs = std::sync::Arc::clone(&refs);
            std::thread::spawn(move || {
                let mut c = connect(&addr);
                for round in 0..50 {
                    let (tenant, table) = &refs[(worker + round) % refs.len()];
                    let index = table.dispatch_index();
                    for ci in 0..table.class_count() {
                        let class = cpplookup_chg::ClassId::from_index(ci);
                        for mi in 0..table.member_name_count() {
                            let member = cpplookup_chg::MemberId::from_index(mi);
                            let got = c
                                .query(
                                    tenant,
                                    table.class_name(class).unwrap(),
                                    table.member_name(member).unwrap(),
                                )
                                .unwrap();
                            let want = expect_wire(table, &index.lookup(class, member));
                            assert_eq!(got, want, "{tenant} diverged under concurrency");
                        }
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    drop(server);
}

#[test]
fn admission_control_refuses_with_busy_frame() {
    let (_server, addr) = start_server(ServerConfig {
        max_connections: 2,
        ..ServerConfig::default()
    });
    // Two held-open connections fill the server.
    let mut a = connect(&addr);
    let mut b = connect(&addr);
    assert_eq!(a.hello().unwrap(), 0);
    assert_eq!(b.hello().unwrap(), 0);
    // The third is told why it is refused, deterministically.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let body = read_frame(&mut stream).unwrap();
    match Response::decode(&body).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Busy),
        other => panic!("unexpected {other:?}"),
    }
    // Draining one slot readmits. The refused connection has closed and
    // its slot was never counted; give the server a beat to notice the
    // drop of `a`.
    drop(a);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let mut retry = connect(&addr);
        match retry.hello() {
            Ok(_) => break,
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("server never readmitted: {e}"),
        }
    }
    drop(b);
}

#[test]
fn malformed_bytes_produce_structured_errors_never_hangs() {
    let dir = TempDir::new("fuzz");
    let snap = dir.file("t.snap");
    write_snapshot(&fixtures::fig2(), &snap);
    let (_server, addr) = start_server(ServerConfig {
        preload: vec![("t".to_owned(), snap)],
        ..ServerConfig::default()
    });

    let frame_of = |req: &Request| {
        let mut wire = Vec::new();
        write_frame(&mut wire, &req.encode()).unwrap();
        wire
    };
    let query = Request::Query {
        tenant: "t".to_owned(),
        class: "E".to_owned(),
        member: "m".to_owned(),
        trace: false,
        as_of: None,
    };

    // 1. Oversized length prefix → BadLength, then close.
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(&(MAX_BODY + 1).to_le_bytes()).unwrap();
        let body = read_frame(&mut s).unwrap();
        match Response::decode(&body).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadLength),
            other => panic!("unexpected {other:?}"),
        }
        let mut rest = Vec::new();
        assert_eq!(s.read_to_end(&mut rest).unwrap(), 0, "server must close");
    }

    // 2. Every single-bit flip of a valid frame → a structured error
    //    (and a checksum-damaged stream is closed), never a hang.
    {
        let wire = frame_of(&query);
        for at in 0..wire.len() {
            let mut damaged = wire.clone();
            damaged[at] ^= 0x10;
            let mut s = TcpStream::connect(&addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s.write_all(&damaged).unwrap();
            // Depending on where the flip landed the server answers
            // BadLength/BadFrame and closes, answers BadPayload /
            // UnknownOpcode / NoSuchTenant / UnknownName and continues,
            // or (length shrank) waits for more bytes — close our end
            // and let it drop the truncated frame.
            drop(s.shutdown(std::net::Shutdown::Write));
            // An Err from read_frame means the server closed quietly:
            // also fine.
            if let Ok(body) = read_frame(&mut s) {
                let resp = Response::decode(&body).unwrap();
                match resp {
                    Response::Error { .. } => {}
                    Response::Outcome(_) => {
                        panic!("flip at byte {at} went undetected")
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
    }

    // 3. Unknown opcode and garbage payloads keep the connection alive.
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        for garbage in [vec![0x7Fu8], vec![0x03, 0xFF, 0xFF], vec![0x03]] {
            let mut wire = Vec::new();
            write_frame(&mut wire, &garbage).unwrap();
            s.write_all(&wire).unwrap();
            let body = read_frame(&mut s).unwrap();
            match Response::decode(&body).unwrap() {
                Response::Error { code, .. } => {
                    assert!(
                        matches!(code, ErrorCode::UnknownOpcode | ErrorCode::BadPayload),
                        "got {code:?}"
                    );
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // The same connection still answers real queries.
        s.write_all(&frame_of(&query)).unwrap();
        let body = read_frame(&mut s).unwrap();
        assert!(matches!(
            Response::decode(&body).unwrap(),
            Response::Outcome(WireOutcome::Resolved { .. })
        ));
    }

    // 4. Deterministic pseudo-random garbage streams: the server either
    //    answers errors or closes; afterwards it still serves.
    {
        let mut state = 0x243F6A8885A308D3u64;
        for _ in 0..16 {
            let mut s = TcpStream::connect(&addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let len = 1 + (state % 512) as usize;
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 33) as u8
                })
                .collect();
            let _ = s.write_all(&bytes);
            let _ = s.shutdown(std::net::Shutdown::Write);
            // Drain whatever the server says until it closes; bounded
            // by the read timeout.
            let mut sink = Vec::new();
            let _ = s.read_to_end(&mut sink);
        }
    }
    let mut c = connect(&addr);
    assert!(c.query("t", "E", "m").is_ok(), "server survived the fuzz");
}

#[test]
fn hello_version_mismatch_is_rejected() {
    let (_server, addr) = start_server(ServerConfig::default());
    let mut s = TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut wire = Vec::new();
    write_frame(&mut wire, &Request::Hello { version: 999 }.encode()).unwrap();
    s.write_all(&wire).unwrap();
    let body = read_frame(&mut s).unwrap();
    match Response::decode(&body).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadVersion),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn http_admin_serves_prometheus_on_the_same_port() {
    let (_server, addr) = start_server(ServerConfig::default());
    let fetch = |target: &str| {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        write!(s, "GET {target} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        s.read_to_string(&mut response).unwrap();
        response
    };
    let metrics = fetch("/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
    assert!(metrics.contains("# TYPE"), "prometheus text: {metrics}");
    let missing = fetch("/nope");
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
}

/// The six request phases, in server order.
const PHASES: [&str; 6] = [
    "queue_wait",
    "frame_decode",
    "tenant_resolve",
    "promotion_wait",
    "directory_probe",
    "encode",
];

fn http_get(addr: &str, target: &str) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(s, "GET {target} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut response = String::new();
    s.read_to_string(&mut response).unwrap();
    response
}

/// A server's metrics carry the engine's process-wide facade: after a
/// LOAD and a QUERY, both `/metrics` and `Request::Metrics` show the
/// snapshot load and the dispatch index build behind it.
#[test]
fn metrics_carry_the_engine_facade_on_both_surfaces() {
    let dir = TempDir::new("facade");
    let snap = dir.file("fig2.snap");
    write_snapshot(&fixtures::fig2(), &snap);
    let (_server, addr) = start_server(ServerConfig::default());
    let mut c = connect(&addr);
    c.load("t0", snap.to_str().unwrap()).unwrap();
    c.query("t0", "E", "m").unwrap();
    let wire = c.metrics().unwrap();
    let http = http_get(&addr, "/metrics");
    for (surface, text) in [("Request::Metrics", &wire), ("/metrics", &http)] {
        for name in ["snapshot_loads_total", "serve_index_builds_total"] {
            assert!(
                text.contains(&format!("# TYPE {name} counter")),
                "{surface} lacks {name}: {text}"
            );
        }
    }
}

#[test]
fn traced_query_returns_exact_phase_partition() {
    let dir = TempDir::new("traced");
    let snap = dir.file("fig2.snap");
    write_snapshot(&fixtures::fig2(), &snap);
    let (_server, addr) = start_server(ServerConfig::default());
    let mut c = connect(&addr);
    c.load("t0", snap.to_str().unwrap()).unwrap();

    let (outcome, spans) = c.query_traced("t0", "E", "m").unwrap();
    assert!(matches!(outcome, WireOutcome::Resolved { .. }));
    assert_eq!(spans.len(), 1 + PHASES.len(), "root + six phases");
    let root = &spans[0];
    assert_eq!(root.label, "request");
    assert_eq!(root.parent_id(), None);
    assert_eq!(root.start_ns, 0);
    // Children carry the fixed phase labels, chain contiguously from
    // the root's start, and partition its duration exactly.
    let mut cursor = 0u64;
    for (span, phase) in spans[1..].iter().zip(PHASES) {
        assert_eq!(span.label, phase);
        assert_eq!(span.parent_id(), Some(root.id));
        assert_eq!(span.start_ns, cursor, "phases must be contiguous");
        cursor += span.duration_ns;
    }
    assert_eq!(
        cursor, root.duration_ns,
        "phase durations must sum to the root exactly"
    );
    // Ids are per-trace monotonic from zero: a second trace starts
    // over, so the tree *structure* is byte-stable run to run.
    let (_, again) = c.query_traced("t0", "E", "m").unwrap();
    let shape = |s: &[cpplookup_server::WireSpan]| -> Vec<(u64, u64, String)> {
        s.iter()
            .map(|x| (x.id, x.parent, x.label.clone()))
            .collect()
    };
    assert_eq!(shape(&spans), shape(&again));

    // A traced batch traces the batch as one request.
    let probes = vec![
        ("E".to_owned(), "m".to_owned()),
        ("A".to_owned(), "m".to_owned()),
    ];
    let (outcomes, bspans) = c.batch_traced("t0", &probes).unwrap();
    assert_eq!(outcomes.len(), 2);
    assert_eq!(outcomes, c.batch("t0", &probes).unwrap());
    assert_eq!(bspans.len(), 1 + PHASES.len());

    // An untraced query still answers with the plain response shape.
    assert_eq!(outcome, c.query("t0", "E", "m").unwrap());
}

#[test]
fn admin_endpoints_tenants_and_flightrecorder_work_end_to_end() {
    let dir = TempDir::new("admin");
    let snap = dir.file("fig2.snap");
    write_snapshot(&fixtures::fig2(), &snap);
    let (_server, addr) = start_server(ServerConfig::default());
    let mut c = connect(&addr);
    c.load("acme", snap.to_str().unwrap()).unwrap();
    c.query("acme", "E", "m").unwrap();
    c.query_traced("acme", "E", "m").unwrap();

    let health = http_get(&addr, "/healthz");
    assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
    assert!(health.ends_with("ok\n"), "{health}");

    let tenants = http_get(&addr, "/tenants");
    assert!(tenants.starts_with("HTTP/1.1 200 OK"), "{tenants}");
    assert!(tenants.contains("application/json"), "{tenants}");
    assert!(tenants.contains("\"tenant\":\"acme\""), "{tenants}");
    assert!(tenants.contains("\"epoch\":0"), "{tenants}");

    let fr = http_get(&addr, "/flightrecorder");
    assert!(fr.starts_with("HTTP/1.1 200 OK"), "{fr}");
    assert!(fr.contains("\"requests\":["), "{fr}");
    assert!(fr.contains("\"tenant\":\"acme\""), "{fr}");
    assert!(fr.contains("\"op\":\"query\""), "{fr}");
    // The traced query's phase summary made it into the ring.
    assert!(fr.contains("\"directory_probe\":"), "{fr}");

    // Per-tenant families show up in the Prometheus exposition.
    let metrics = http_get(&addr, "/metrics");
    assert!(
        metrics.contains("server_queries_total{tenant=\"acme\",op=\"query\"}"),
        "{metrics}"
    );
    assert!(
        metrics.contains("tenant_epoch{tenant=\"acme\"}"),
        "{metrics}"
    );
}

#[test]
fn load_failures_and_unknown_tenants_are_structured() {
    let (_server, addr) = start_server(ServerConfig::default());
    let mut c = connect(&addr);
    match c.load("t", "/nonexistent/path.snap") {
        Err(cpplookup_server::client::ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::LoadFailed)
        }
        other => panic!("unexpected {other:?}"),
    }
    match c.query("ghost", "A", "m") {
        Err(cpplookup_server::client::ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::NoSuchTenant)
        }
        other => panic!("unexpected {other:?}"),
    }
}

/// Sends one request frame and returns the raw response body.
fn round_trip(s: &mut TcpStream, req: &Request) -> Vec<u8> {
    write_frame(s, &req.encode()).unwrap();
    read_frame(s).unwrap()
}

/// Asks `req(tenant)` of both tenants and returns the one answer they
/// must agree on byte for byte.
fn same_answer(s: &mut TcpStream, what: &str, req: impl Fn(&str) -> Request) -> Response {
    let v1 = round_trip(s, &req("v1"));
    for tenant in ["v2", "v4"] {
        let other = round_trip(s, &req(tenant));
        assert_eq!(
            v1, other,
            "{what}: v1 and {tenant} tenants answer differently"
        );
    }
    Response::decode(&v1).unwrap()
}

/// Snapshots of every format version serve identically through their
/// whole lifecycle: a version-1 file (written before snapshots carried
/// their minimal perfect hash; its index builds the hash at load), a
/// version-2 file (a TABLE section decoded at load) and the version-4
/// recompile of the same hierarchy (its index served from the file's
/// buffer). Every QUERY and BATCH answer is byte-equal across the three
/// tenants before and after the same EDIT, which attaches an engine to
/// each tenant's published index and refreshes it.
#[test]
fn v1_snapshot_tenant_serves_byte_identically_to_v2_across_an_edit() {
    let dir = TempDir::new("v1-lifecycle");
    let fixture = |name: &str| {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures")
            .join(name)
    };
    let v4 = dir.file("chain_12.snap");
    write_snapshot(&cpplookup_hiergen::families::chain(12, None), &v4);
    let (_server, addr) = start_server(ServerConfig {
        preload: vec![
            ("v1".to_owned(), fixture("chain_12_v1.snap")),
            ("v2".to_owned(), fixture("chain_12_v2.snap")),
            ("v4".to_owned(), v4.clone()),
        ],
        ..ServerConfig::default()
    });
    let mut s = TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    let table = SnapshotTable::load(&v4).unwrap();
    assert_eq!(table.version(), 4);
    let mut probes = Vec::new();
    for ci in 0..table.class_count() {
        for mi in 0..table.member_name_count() {
            probes.push((
                table
                    .class_name(cpplookup_chg::ClassId::from_index(ci))
                    .unwrap()
                    .to_owned(),
                table
                    .member_name(cpplookup_chg::MemberId::from_index(mi))
                    .unwrap()
                    .to_owned(),
            ));
        }
    }
    let check_all = |s: &mut TcpStream, stage: &str| {
        for (class, member) in &probes {
            let what = format!("{stage}: QUERY ({class}, {member})");
            let answer = same_answer(s, &what, |tenant| Request::Query {
                tenant: tenant.to_owned(),
                class: class.clone(),
                member: member.clone(),
                trace: false,
                as_of: None,
            });
            assert!(matches!(answer, Response::Outcome(_)), "{what}: {answer:?}");
        }
        let answer = same_answer(s, &format!("{stage}: BATCH"), |tenant| Request::Batch {
            tenant: tenant.to_owned(),
            probes: probes.clone(),
            trace: false,
            as_of: None,
        });
        match answer {
            Response::Outcomes(outcomes) => {
                assert_eq!(outcomes.len(), probes.len(), "{stage}");
                assert!(
                    outcomes.iter().any(|o| *o != WireOutcome::NotFound),
                    "{stage}: every probe missed"
                );
            }
            other => panic!("{stage}: unexpected {other:?}"),
        }
    };

    check_all(&mut s, "before the edit");
    // Redeclaring `m` halfway down the chain changes what every class
    // below it resolves to.
    let edited = same_answer(&mut s, "EDIT", |tenant| Request::Edit {
        tenant: tenant.to_owned(),
        directive: "member C5 m".to_owned(),
    });
    assert!(
        !matches!(edited, Response::Error { .. }),
        "EDIT was refused: {edited:?}"
    );
    check_all(&mut s, "after the edit");
    let query = Request::Query {
        tenant: "v1".to_owned(),
        class: "C11".to_owned(),
        member: "m".to_owned(),
        trace: false,
        as_of: None,
    };
    match Response::decode(&round_trip(&mut s, &query)).unwrap() {
        Response::Outcome(WireOutcome::Resolved { class, .. }) => assert_eq!(class, "C5"),
        other => panic!("unexpected {other:?}"),
    }
}

/// A hierarchy with every outcome shape: `R::v` is ambiguous between
/// the virtual bases `P` and `Q` (named witnesses), `S::v` between the
/// same classes inherited non-virtually (Ω witnesses), `P::v` resolves
/// through Ω and `T::v` through the virtual base `P`, and `Lone::v` is
/// not found.
fn shapes() -> Chg {
    use cpplookup_chg::{ChgBuilder, Inheritance, MemberDecl, MemberKind};
    let mut b = ChgBuilder::new();
    let [p, q, r, s] = ["P", "Q", "R", "S"].map(|name| b.class(name));
    b.class("Lone");
    for c in [p, q] {
        b.member_with(c, "v", MemberDecl::public(MemberKind::Function))
            .unwrap();
    }
    for base in [p, q] {
        b.derive(r, base, Inheritance::Virtual).unwrap();
        b.derive(s, base, Inheritance::NonVirtual).unwrap();
    }
    let t = b.class("T");
    b.derive(t, p, Inheritance::Virtual).unwrap();
    b.finish().unwrap()
}

/// Every read reply the server writes straight from the directory is
/// the owned encoder's reply, byte for byte, under both I/O models:
/// resolved, ambiguous (witnesses named and Ω) and not-found outcomes,
/// unknown names and tenants, as-of reads at a retained and at a
/// retired epoch, each as a plain and as a traced `BATCH` and `QUERY`.
#[test]
fn read_replies_are_the_owned_encoders_bytes_under_both_io_models() {
    let dir = TempDir::new("read-bytes");
    let families = [
        ("fig1", fixtures::fig1()),
        ("fig9", fixtures::fig9()),
        ("shapes", shapes()),
    ];
    let mut preload = Vec::new();
    for (name, chg) in &families {
        let path = dir.file(&format!("{name}.snap"));
        write_snapshot(chg, &path);
        preload.push((name.to_string(), path));
    }
    let mut models = vec![cpplookup_server::IoModel::Threads];
    if cfg!(target_os = "linux") {
        models.push(cpplookup_server::IoModel::Epoll);
    }
    for model in models {
        let (server, addr) = start_server(ServerConfig {
            preload: preload.clone(),
            retain_epochs: 2,
            io_model: model,
            ..ServerConfig::default()
        });
        let farm = server.farm().clone();
        let mut s = TcpStream::connect(&addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // Promotion publishes epoch 0, attach 1 and the edit 2: with two
        // epochs retained, 1 is an as-of read and 0 is retired.
        let edit = Request::Edit {
            tenant: "fig9".to_owned(),
            directive: "member E fresh".to_owned(),
        };
        assert_eq!(
            Response::decode(&round_trip(&mut s, &edit)).unwrap(),
            Response::Edited { epoch: 2 }
        );
        let mut shapes = [false; 5];
        // (tenant, probes, as-of epoch)
        type Case = (String, Vec<(String, String)>, Option<u64>);
        let mut cases: Vec<Case> = Vec::new();
        for (name, chg) in &families {
            let pairs: Vec<(String, String)> = chg
                .classes()
                .flat_map(|c| chg.member_ids().map(move |m| (c, m)))
                .map(|(c, m)| (chg.class_name(c).to_owned(), chg.member_name(m).to_owned()))
                .collect();
            // The owned answers are themselves decoded from the read
            // core's bytes, so pin them to the in-process index first.
            let table = SnapshotTable::load(dir.file(&format!("{name}.snap"))).unwrap();
            let index = table.dispatch_index();
            let owned = farm.batch(name, &pairs).unwrap();
            for ((c, m), got) in chg
                .classes()
                .flat_map(|c| chg.member_ids().map(move |m| (c, m)))
                .zip(&owned)
            {
                assert_eq!(*got, expect_wire(&table, &index.lookup(c, m)), "{name}");
            }
            for o in owned {
                match o {
                    WireOutcome::Resolved { least_virtual, .. } => {
                        shapes[usize::from(least_virtual == WireLv::Omega)] = true
                    }
                    WireOutcome::NotFound => shapes[2] = true,
                    WireOutcome::Ambiguous { witnesses } => {
                        for w in witnesses {
                            shapes[3 + usize::from(w == WireLv::Omega)] = true;
                        }
                    }
                }
            }
            cases.push((name.to_string(), pairs, None));
        }
        assert_eq!(
            shapes, [true; 5],
            "resolved through a named class and through Ω, not found, named and Ω witnesses"
        );
        let fig9 = cases[1].1.clone();
        let mut bad_class = fig9.clone();
        bad_class.push(("Nope".to_owned(), "m".to_owned()));
        let mut bad_member = fig9.clone();
        bad_member.insert(1, ("E".to_owned(), "nope".to_owned()));
        cases.extend([
            ("fig9".to_owned(), bad_class, None),
            ("fig9".to_owned(), bad_member, None),
            ("nobody".to_owned(), fig9.clone(), None),
            ("fig9".to_owned(), fig9.clone(), Some(1)),
            ("fig9".to_owned(), fig9.clone(), Some(2)),
            ("fig9".to_owned(), fig9, Some(0)),
        ]);
        for (tenant, probes, as_of) in &cases {
            let what = format!("{model:?} {tenant} as-of {as_of:?}");
            let owned = farm.read(tenant, probes, *as_of).map(|(o, _)| o);
            for trace in [false, true] {
                let batch = Request::Batch {
                    tenant: tenant.clone(),
                    probes: probes.clone(),
                    trace,
                    as_of: *as_of,
                };
                let reply = round_trip(&mut s, &batch);
                let want = match (&owned, trace) {
                    (Ok(outcomes), false) => Response::Outcomes(outcomes.clone()),
                    (Ok(outcomes), true) => match Response::decode(&reply).unwrap() {
                        Response::Traced { spans, .. } => Response::Traced {
                            outcomes: outcomes.clone(),
                            spans,
                        },
                        other => panic!("{what}: traced BATCH answered {other:?}"),
                    },
                    (Err((code, message)), _) => Response::Error {
                        code: *code,
                        message: message.clone(),
                    },
                };
                assert_eq!(reply, want.encode(), "{what}: BATCH, trace {trace}");
            }
            // Each probe as a QUERY: the answer, or the error it raises
            // alone.
            for (class, member) in probes {
                let query = Request::Query {
                    tenant: tenant.clone(),
                    class: class.clone(),
                    member: member.clone(),
                    trace: false,
                    as_of: *as_of,
                };
                let want = match farm.read(tenant, &[(class, member)], *as_of) {
                    Ok((mut outcomes, _)) => Response::Outcome(outcomes.remove(0)),
                    Err((code, message)) => Response::Error { code, message },
                };
                let reply = round_trip(&mut s, &query);
                assert_eq!(reply, want.encode(), "{what}: QUERY ({class}, {member})");
            }
        }
    }
}
