//! The traced run: each layer's public entry point called on the
//! workload's own seeded inputs, one span per call.
//!
//! Spans (name, start, end, parent, request id) are kept in memory and
//! written to `.bench_out/` when the run ends; the per-layer metrics
//! are medians over them. The same wire stream is then sent twice per
//! read, once plain and once with the protocol TRACE flag, so the
//! server's own phase spans cross-check the in-process ones and the
//! difference gives the tracing overhead. The end-to-end metrics come
//! from the untraced run, never from this one.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cpplookup_chg::{ClassId, MemberId};
use cpplookup_core::{DispatchIndex, IndexedEngine, LookupTable, OutcomeRef, ServeHandle};
use cpplookup_server::{Farm, FarmOptions, Request, Response, Server};
use cpplookup_snapshot::{Snapshot, SnapshotTable};
use cpplookup_wal::{WalRecord, WalStore};

use crate::host::Placement;
use crate::inputs::{live_pairs, wire_of, Inputs, Op};
use crate::serve::{self, Tally};
use crate::stats::median;
use crate::Metric;

/// Compile/load/promote repetitions per tenant.
const COMPILE_REPS: usize = 3;

/// Probes per timed directory chunk: long enough that the clock read
/// is noise against the probes it brackets.
const PROBE_CHUNK: usize = 1024;

/// Batch size for the batched directory probe.
const DIRECTORY_BATCH: usize = 64;

/// HELLO round trips for the I/O floor.
const HELLOS: usize = 2000;

/// Probes per BATCH when the replayed farm is checked.
const CHECK_CHUNK: usize = 512;

struct Span {
    name: &'static str,
    req: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span store.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    fn time<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, req, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Records a span measured elsewhere (the server's TRACE spans, the
    /// client thread's round trips).
    fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start_ns: u64,
        dur_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: start_ns + dur_ns,
        });
        self.spans.len() - 1
    }

    /// Durations of every span called `name`, in order, nanoseconds.
    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\treq\tparent\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A per-layer series: its samples in the metric's unit.
struct Series {
    samples: Vec<f64>,
    unit: &'static str,
}

/// The medians the run reports, with sample counts, keyed by name.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, Series>);

impl Layers {
    fn put(&mut self, name: &'static str, unit: &'static str, samples: Vec<f64>) {
        self.0.insert(name, Series { samples, unit });
    }

    /// Median of a series (nearest rank) and its count.
    fn get(&self, name: &str) -> (f64, usize) {
        match self.0.get(name) {
            Some(s) => {
                let mut v = s.samples.clone();
                (median(&mut v).unwrap_or(f64::NAN), v.len())
            }
            None => (f64::NAN, 0),
        }
    }

    fn value(&self, name: &str) -> f64 {
        self.get(name).0
    }

    fn print(&self, names: &[&'static str]) {
        for name in names {
            let (v, n) = self.get(name);
            let unit = self.0.get(name).map_or("", |s| s.unit);
            println!("  {name:<28} {v:>14.4} {unit:<6} {n}");
        }
    }
}

/// The per-layer metrics every workload's traced run reports, in
/// `BENCHMARK.json` order.
const REPORTED: &[(&str, &str)] = &[
    ("compile.table_s", "s"),
    ("compile.snapshot_s", "s"),
    ("compile.snapshot_bytes", "bytes"),
    ("snapshot.load_s", "s"),
    ("index.promote_s", "s"),
    ("index.bytes", "bytes"),
    ("index.probe_ns", "ns"),
    ("index.batch_probe_ns", "ns"),
    ("farm.read_us", "us"),
    ("farm.resolve_us", "us"),
    ("protocol.req_encode_us", "us"),
    ("protocol.req_decode_us", "us"),
    ("protocol.resp_encode_us", "us"),
    ("protocol.resp_decode_us", "us"),
    ("protocol.req_bytes", "bytes"),
    ("protocol.resp_bytes", "bytes"),
    ("io.hello_rtt_us", "us"),
    ("io.unattributed_us", "us"),
    ("trace.queue_wait_us", "us"),
    ("trace.frame_decode_us", "us"),
    ("trace.tenant_resolve_us", "us"),
    ("trace.directory_probe_us", "us"),
    ("trace.encode_us", "us"),
    ("trace.overhead_frac", "frac"),
];

/// The server's TRACE phase labels and the metric each feeds.
const SERVER_PHASES: &[(&str, &str)] = &[
    ("queue_wait", "trace.queue_wait_us"),
    ("frame_decode", "trace.frame_decode_us"),
    ("tenant_resolve", "trace.tenant_resolve_us"),
    ("promotion_wait", "trace.promotion_wait_us"),
    ("directory_probe", "trace.directory_probe_us"),
    ("encode", "trace.encode_us"),
];

fn scaled(v: Vec<f64>, by: f64) -> Vec<f64> {
    v.into_iter().map(|x| x * by).collect()
}

pub fn run(
    inputs: &Inputs,
    work: &Path,
    placement: &Placement,
) -> io::Result<(bool, Tally, Vec<Metric>)> {
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let mut tally = Tally::default();
    let prefix_len = (inputs.spec.trace_rounds * inputs.spec.round).min(inputs.ops.len());
    let prefix = &inputs.ops[..prefix_len];

    let indexes = compile_layers(inputs, work, &mut tracer, &mut layers)?;
    directory_layers(
        inputs,
        prefix,
        &indexes,
        &mut tracer,
        &mut layers,
        &mut tally,
    );
    drop(indexes);
    let (server, _, _) = serve::setup(inputs, work, placement)?;
    request_layers(
        inputs,
        prefix,
        &server,
        &mut tracer,
        &mut layers,
        &mut tally,
    );
    drop(server);
    let wire = wire_layers(
        inputs,
        prefix,
        work,
        placement,
        &mut tracer,
        &mut layers,
        &mut tally,
    )?;

    // Directory time for one read's probes, to split the farm read.
    let directory_us = if inputs.spec.probes_per_read == 1 {
        layers.value("index.probe_ns") / 1e3
    } else {
        layers.value("index.batch_probe_ns") * inputs.spec.probes_per_read as f64 / 1e3
    };
    let farm_read: Vec<f64> = layers.0["farm.read_us"].samples.clone();
    layers.put(
        "farm.resolve_us",
        "us",
        farm_read.iter().map(|r| r - directory_us).collect(),
    );
    let parts = [
        "protocol.req_encode_us",
        "protocol.req_decode_us",
        "farm.read_us",
        "protocol.resp_encode_us",
        "protocol.resp_decode_us",
    ];
    let attributed: f64 = parts.iter().map(|p| layers.value(p)).sum();
    let unattributed = wire.untraced_p50_us - attributed;
    layers.put("io.unattributed_us", "us", vec![unattributed]);
    let overhead = (wire.traced_p50_us - wire.untraced_p50_us) / wire.untraced_p50_us;
    layers.put("trace.overhead_frac", "frac", vec![overhead]);

    println!(
        "per-layer medians ({} of {} requests replayed):",
        prefix.len(),
        inputs.ops.len()
    );
    layers.print(&REPORTED.iter().map(|(n, _)| *n).collect::<Vec<_>>());
    layers.print(&["trace.promotion_wait_us"]);

    println!(
        "read ladder, median us per read request ({} probes each):",
        inputs.spec.probes_per_read
    );
    let ladder = [
        (
            "protocol.req_encode_us",
            layers.value("protocol.req_encode_us"),
        ),
        (
            "protocol.req_decode_us",
            layers.value("protocol.req_decode_us"),
        ),
        ("directory probe", directory_us),
        ("farm.resolve_us", layers.value("farm.resolve_us")),
        (
            "protocol.resp_encode_us",
            layers.value("protocol.resp_encode_us"),
        ),
        (
            "protocol.resp_decode_us",
            layers.value("protocol.resp_decode_us"),
        ),
    ];
    for (name, v) in ladder {
        println!("  {name:<28} {v:>10.3}");
    }
    println!("  {:<28} {attributed:>10.3}", "sum of layer parts");
    println!(
        "  {:<28} {:>10.3}  ({} samples)",
        "req_p50_us (untraced wire)", wire.untraced_p50_us, wire.reads
    );
    println!(
        "  {:<28} {unattributed:>10.3}  (I/O driver, syscalls, scheduling)",
        "unattributed"
    );
    println!(
        "  {:<28} {:>10.3}",
        "io.hello_rtt_us (reference)",
        layers.value("io.hello_rtt_us")
    );
    println!(
        "  {:<28} {overhead:>10.4}  (TRACE-flag p50 {:.3} us)",
        "trace.overhead_frac", wire.traced_p50_us
    );

    if !inputs.script.is_empty() {
        edit_layers(inputs, prefix, work, &mut tracer, &mut layers, &mut tally)?;
        let edit_names = [
            "engine.warm_s",
            "engine.attach_s",
            "engine.apply_ms",
            "index.refresh_ms",
            "wal.append_us",
            "farm.edit_self_ms",
            "farm.edit_ms",
            "wal.recover_ms",
            "farm.replay_ms",
            "wal.bytes_per_edit",
        ];
        println!("edit-path medians:");
        layers.print(&edit_names);
        let parts = [
            ("engine.apply_ms", layers.value("engine.apply_ms")),
            ("index.refresh_ms", layers.value("index.refresh_ms")),
            ("wal.append_us", layers.value("wal.append_us") / 1e3),
            ("farm.edit_self_ms", layers.value("farm.edit_self_ms")),
        ];
        println!("edit ladder, median ms per edit:");
        let mut sum = 0.0;
        for (name, v) in parts {
            sum += v;
            println!("  {name:<28} {v:>10.4}");
        }
        println!("  {:<28} {sum:>10.4}", "sum of layer parts");
        println!(
            "  {:<28} {:>10.4}  ({} samples)",
            "edit_p50_ms (wire)", wire.edit_p50_ms, wire.edits
        );
        println!(
            "  {:<28} {:>10.4}  (protocol, I/O, scheduling)",
            "unattributed",
            wire.edit_p50_ms - sum
        );
    }

    let spans_path = work.parent().unwrap_or(work).join(format!(
        "spans-{}-seed{}.tsv",
        inputs.workload.name(),
        inputs.seed
    ));
    tracer.write(&spans_path)?;
    println!(
        "spans: {} written to {}",
        tracer.spans.len(),
        spans_path.display()
    );

    let metrics: Vec<Metric> = REPORTED
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: layers.value(name),
            unit,
        })
        .collect();
    let correct = tally.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    Ok((correct, tally, metrics))
}

/// Compile, snapshot, load and promote each tenant `COMPILE_REPS`
/// times; returns the last loaded snapshot and index of each tenant.
fn compile_layers(
    inputs: &Inputs,
    work: &Path,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> io::Result<Vec<(SnapshotTable, DispatchIndex)>> {
    let dir = work.join("layers");
    serve::fresh_dir(&dir)?;
    let mut bytes = Vec::new();
    let mut index_bytes = Vec::new();
    let mut out = Vec::new();
    for rep in 0..COMPILE_REPS {
        out.clear();
        for (i, t) in inputs.tenants.iter().enumerate() {
            let req = (rep * inputs.tenants.len() + i) as u64;
            let root = tracer.begin("compile", req, None);
            let table = tracer.time("compile.table", req, Some(root), || {
                LookupTable::build(&t.chg)
            });
            let snap = tracer.time("compile.snapshot", req, Some(root), || {
                Snapshot::from_table(&t.chg, &table)
            });
            tracer.end(root);
            bytes.push(snap.len() as f64);
            let path = serve::snapshot_path(&dir, &t.name);
            snap.write_to(&path).map_err(io::Error::other)?;
            let loaded = tracer
                .time("snapshot.load", req, None, || SnapshotTable::load(&path))
                .map_err(io::Error::other)?;
            let index = tracer.time("index.promote", req, None, || {
                DispatchIndex::from_backend(&loaded)
            });
            index_bytes.push(index.size_bytes() as f64);
            out.push((loaded, index));
        }
    }
    layers.put(
        "compile.table_s",
        "s",
        scaled(tracer.durations("compile.table"), 1e-9),
    );
    layers.put(
        "compile.snapshot_s",
        "s",
        scaled(tracer.durations("compile.snapshot"), 1e-9),
    );
    layers.put("compile.snapshot_bytes", "bytes", bytes);
    layers.put(
        "snapshot.load_s",
        "s",
        scaled(tracer.durations("snapshot.load"), 1e-9),
    );
    layers.put(
        "index.promote_s",
        "s",
        scaled(tracer.durations("index.promote"), 1e-9),
    );
    layers.put("index.bytes", "bytes", index_bytes);
    Ok(out)
}

/// `lookup_ref` and `lookup_batch_into` over the prefix's probes, per
/// tenant in stream order and in chunks of `PROBE_CHUNK`; ns per probe.
/// An untimed pass first checks every probe against the reference.
fn directory_layers(
    inputs: &Inputs,
    prefix: &[Op],
    indexes: &[(SnapshotTable, DispatchIndex)],
    tracer: &mut Tracer,
    layers: &mut Layers,
    tally: &mut Tally,
) {
    let mut ids: Vec<Vec<(ClassId, MemberId)>> = vec![Vec::new(); inputs.tenants.len()];
    let mut picks = Vec::new();
    for op in prefix {
        if let Op::Read { tenant, pick } = *op {
            let t = &inputs.tenants[tenant as usize];
            inputs.read_picks(tenant as usize, pick, &mut picks);
            ids[tenant as usize].extend(picks.iter().map(|&p| t.pairs[p].ids));
        }
    }
    for (t, (_, index)) in inputs.tenants.iter().zip(indexes) {
        for chunk in t.pairs.chunks(PROBE_CHUNK).step_by(16) {
            tally.record(
                match chunk
                    .iter()
                    .find(|p| wire_of(&t.chg, &index.lookup(p.ids.0, p.ids.1)) != p.expected)
                {
                    None => Ok(()),
                    Some(p) => Err(format!("{}: index diverges at {:?}", t.name, p.names)),
                },
            );
        }
    }
    let mut single = Vec::new();
    let mut batched = Vec::new();
    let mut out: Vec<OutcomeRef<'_>> = Vec::new();
    let mut chunk_no = 0u64;
    for (probes, (_, index)) in ids.iter().zip(indexes) {
        for chunk in probes.chunks(PROBE_CHUNK) {
            let per_probe = |tracer: &Tracer, id: usize| {
                (tracer.spans[id].end_ns - tracer.spans[id].start_ns) as f64 / chunk.len() as f64
            };
            let id = tracer.begin("index.probe", chunk_no, None);
            for &(c, m) in chunk {
                std::hint::black_box(index.lookup_ref(c, m));
            }
            tracer.end(id);
            single.push(per_probe(tracer, id));
            let id = tracer.begin("index.batch_probe", chunk_no, None);
            for batch in chunk.chunks(DIRECTORY_BATCH) {
                index.lookup_batch_into(batch, &mut out);
                std::hint::black_box(&out);
            }
            tracer.end(id);
            batched.push(per_probe(tracer, id));
            chunk_no += 1;
        }
    }
    layers.put("index.probe_ns", "ns", single);
    layers.put("index.batch_probe_ns", "ns", batched);
}

/// Each read of the prefix through the protocol codecs and the farm,
/// in process: request encode → decode → farm read → response encode →
/// decode, each a child span of the request.
fn request_layers(
    inputs: &Inputs,
    prefix: &[Op],
    server: &Server,
    tracer: &mut Tracer,
    layers: &mut Layers,
    tally: &mut Tally,
) {
    let farm: &Farm = server.farm();
    let mut picks = Vec::new();
    let (mut req_bytes, mut resp_bytes) = (Vec::new(), Vec::new());
    for (i, op) in prefix.iter().enumerate() {
        let Op::Read { tenant, pick } = *op else {
            continue;
        };
        let tenant = tenant as usize;
        let req_id = i as u64;
        inputs.read_picks(tenant, pick, &mut picks);
        let req = serve::read_request(inputs, tenant, &picks, false);
        let root = tracer.begin("request", req_id, None);
        let wire = tracer.time("protocol.req_encode", req_id, Some(root), || req.encode());
        let decoded = tracer.time("protocol.req_decode", req_id, Some(root), || {
            Request::decode(&wire)
        });
        let resp = tracer.time("farm.read", req_id, Some(root), || match decoded {
            Ok(Request::Query {
                tenant,
                class,
                member,
                ..
            }) => farm.query(&tenant, &class, &member).map(Response::Outcome),
            Ok(Request::Batch { tenant, probes, .. }) => {
                farm.batch(&tenant, &probes).map(Response::Outcomes)
            }
            Ok(other) => Err((
                cpplookup_server::ErrorCode::BadPayload,
                format!("{other:?}"),
            )),
            Err(e) => Err(e),
        });
        let resp = resp.unwrap_or_else(|(code, message)| Response::Error { code, message });
        let body = tracer.time("protocol.resp_encode", req_id, Some(root), || resp.encode());
        let back = tracer.time("protocol.resp_decode", req_id, Some(root), || {
            Response::decode(&body)
        });
        tracer.end(root);
        req_bytes.push(wire.len() as f64);
        resp_bytes.push(body.len() as f64);
        tally.record(serve::check_read(inputs, tenant, &picks, back));
    }
    for (metric, span) in [
        ("protocol.req_encode_us", "protocol.req_encode"),
        ("protocol.req_decode_us", "protocol.req_decode"),
        ("farm.read_us", "farm.read"),
        ("protocol.resp_encode_us", "protocol.resp_encode"),
        ("protocol.resp_decode_us", "protocol.resp_decode"),
    ] {
        layers.put(metric, "us", scaled(tracer.durations(span), 1e-3));
    }
    layers.put("protocol.req_bytes", "bytes", req_bytes);
    layers.put("protocol.resp_bytes", "bytes", resp_bytes);
}

/// What the wire replays measured.
struct Wire {
    reads: usize,
    untraced_p50_us: f64,
    traced_p50_us: f64,
    edits: usize,
    edit_p50_ms: f64,
}

/// A round trip the client thread timed, with the server's TRACE spans
/// when it asked for them.
struct Trip {
    name: &'static str,
    req: u64,
    start_ns: u64,
    dur_ns: u64,
    server: Vec<cpplookup_server::WireSpan>,
}

/// One replay of the prefix over the wire from the pinned client
/// thread, every read with or without the TRACE flag; the plain replay
/// ends with HELLO round trips for the I/O floor.
fn wire_pass(
    inputs: &Inputs,
    prefix: &[Op],
    server: &Server,
    placement: &Placement,
    first_epoch: Option<u64>,
    trace: bool,
    origin: Instant,
) -> io::Result<(Vec<Trip>, Tally)> {
    serve::on_client(placement, || {
        let mut client = serve::connect(server)?;
        let mut trips = Vec::new();
        let mut tally = Tally::default();
        let mut picks = Vec::new();
        let mut epoch = first_epoch;
        let stamp = |t: Instant| t.duration_since(origin).as_nanos() as u64;
        for (i, op) in prefix.iter().enumerate() {
            let req_id = i as u64;
            match *op {
                Op::Read { tenant, pick } => {
                    let tenant = tenant as usize;
                    inputs.read_picks(tenant, pick, &mut picks);
                    let req = serve::read_request(inputs, tenant, &picks, trace);
                    let sent = Instant::now();
                    let resp = client.roundtrip(&req).map_err(|e| e.to_string());
                    let dur_ns = sent.elapsed().as_nanos() as u64;
                    let server_spans = match &resp {
                        Ok(Response::Traced { spans, .. }) => spans.clone(),
                        _ => Vec::new(),
                    };
                    if trace && server_spans.is_empty() {
                        tally.record(Err("TRACE reply without spans".to_owned()));
                    }
                    tally.record(serve::check_read(inputs, tenant, &picks, resp));
                    trips.push(Trip {
                        name: if trace {
                            "wire.read_traced"
                        } else {
                            "wire.read"
                        },
                        req: req_id,
                        start_ns: stamp(sent),
                        dur_ns,
                        server: server_spans,
                    });
                }
                Op::Edit(k) => {
                    let sent = Instant::now();
                    let outcome = serve::send_edit(&mut client, inputs, k, &mut epoch);
                    trips.push(Trip {
                        name: if trace {
                            "wire.edit_traced"
                        } else {
                            "wire.edit"
                        },
                        req: req_id,
                        start_ns: stamp(sent),
                        dur_ns: sent.elapsed().as_nanos() as u64,
                        server: Vec::new(),
                    });
                    tally.record(outcome);
                }
            }
        }
        for i in (0..HELLOS).filter(|_| !trace) {
            let sent = Instant::now();
            let outcome = client.hello().map(|_| ()).map_err(|e| e.to_string());
            trips.push(Trip {
                name: "io.hello",
                req: i as u64,
                start_ns: stamp(sent),
                dur_ns: sent.elapsed().as_nanos() as u64,
                server: Vec::new(),
            });
            tally.record(outcome);
        }
        Ok((trips, tally))
    })
}

/// The prefix over the wire twice, plain and with the TRACE flag, each
/// time on a freshly set-up server so both replays meet the same state
/// (and edit_mix can send its edits again). The server's phase spans
/// become children of the client's round-trip span.
fn wire_layers(
    inputs: &Inputs,
    prefix: &[Op],
    work: &Path,
    placement: &Placement,
    tracer: &mut Tracer,
    layers: &mut Layers,
    tally: &mut Tally,
) -> io::Result<Wire> {
    let mut trips = Vec::new();
    for trace in [false, true] {
        let (server, first_epoch, _) = serve::setup(inputs, work, placement)?;
        let (pass, pass_tally) = wire_pass(
            inputs,
            prefix,
            &server,
            placement,
            first_epoch,
            trace,
            tracer.origin,
        )?;
        trips.extend(pass);
        tally.absorb(pass_tally);
    }

    let mut phases: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for trip in &trips {
        let id = tracer.record(trip.name, trip.req, None, trip.start_ns, trip.dur_ns);
        // Server offsets count from the request's first byte on the
        // server; they are placed relative to the client's send.
        let mut ids = Vec::with_capacity(trip.server.len());
        for s in &trip.server {
            let parent = s
                .parent_id()
                .and_then(|p| ids.get(p as usize).copied())
                .unwrap_or(id);
            let name = SERVER_PHASES
                .iter()
                .find(|(label, _)| *label == s.label)
                .map_or("server.request", |(_, metric)| *metric);
            ids.push(tracer.record(
                name,
                trip.req,
                Some(parent),
                trip.start_ns + s.start_ns,
                s.duration_ns,
            ));
            phases
                .entry(name)
                .or_default()
                .push(s.duration_ns as f64 / 1e3);
        }
    }
    for (_, metric) in SERVER_PHASES {
        layers.put(metric, "us", phases.remove(metric).unwrap_or_default());
    }
    layers.put(
        "io.hello_rtt_us",
        "us",
        scaled(tracer.durations("io.hello"), 1e-3),
    );
    let mut untraced = scaled(tracer.durations("wire.read"), 1e-3);
    let mut traced = scaled(tracer.durations("wire.read_traced"), 1e-3);
    let mut edits = scaled(tracer.durations("wire.edit"), 1e-6);
    Ok(Wire {
        reads: untraced.len(),
        untraced_p50_us: median(&mut untraced).unwrap_or(f64::NAN),
        traced_p50_us: median(&mut traced).unwrap_or(f64::NAN),
        edits: edits.len(),
        edit_p50_ms: median(&mut edits).unwrap_or(f64::NAN),
    })
}

/// The edit path in process, on the edits the prefix sends: a bare
/// engine, an engine attached to an index, a log, and a logging farm
/// each take the same script; the log is then recovered and replayed
/// into a fresh farm, whose answers are checked against a from-scratch
/// rebuild.
fn edit_layers(
    inputs: &Inputs,
    prefix: &[Op],
    work: &Path,
    tracer: &mut Tracer,
    layers: &mut Layers,
    tally: &mut Tally,
) -> io::Result<()> {
    // Edit 0 (applied at set-up) and every edit the prefix sends.
    let edits = 1 + prefix.iter().filter(|op| matches!(op, Op::Edit(_))).count();
    let script = &inputs.script[..edits];
    let tenant = &inputs.tenants[0].name;
    let dir = work.join("edits");
    serve::fresh_dir(&dir)?;
    let snap = serve::snapshot_path(&dir, tenant);
    Snapshot::compile(&inputs.tenants[0].chg)
        .write_to(&snap)
        .map_err(io::Error::other)?;
    let table = SnapshotTable::load(&snap).map_err(io::Error::other)?;

    let mut bare = tracer
        .time("engine.warm", 0, None, || table.warm_engine())
        .map_err(io::Error::other)?;
    let warm = table.warm_engine().map_err(io::Error::other)?;
    let handle = ServeHandle::serving(&table);
    let mut indexed = tracer.time("engine.attach", 0, None, || {
        IndexedEngine::attach(warm, handle)
    });
    let store = WalStore::open(&dir.join("append.wal"), 1)
        .map_err(io::Error::other)?
        .0;
    store
        .append(WalRecord::Open {
            tenant: tenant.clone(),
            path: snap.display().to_string(),
        })
        .map_err(io::Error::other)?;
    let base_len = store.len();
    let farm_wal = dir.join("farm.wal");
    let farm = Farm::with_options(FarmOptions {
        wal: Some(Arc::new(
            WalStore::open(&farm_wal, 1).map_err(io::Error::other)?.0,
        )),
        ..FarmOptions::default()
    });
    farm.load(tenant, &snap)
        .map_err(|(_, m)| io::Error::other(m))?;

    // One pass per layer over the whole script, so each keeps its
    // caches warm as the server's edit path does; the per-edit
    // differences pair the passes by edit.
    let mut pass = |name: &'static str, f: &mut dyn FnMut(usize) -> Result<(), String>| {
        let mut ms = Vec::with_capacity(script.len());
        for k in 0..script.len() {
            let id = tracer.begin(name, k as u64, None);
            let outcome = f(k);
            tracer.end(id);
            ms.push((tracer.spans[id].end_ns - tracer.spans[id].start_ns) as f64 / 1e6);
            tally.record(outcome.map_err(|e| format!("{name} of edit {k}: {e}")));
        }
        // Edit 0 also warms and attaches the farm's engine; it stays
        // out of the per-edit medians.
        ms.remove(0);
        ms
    };
    let one = |k: usize| std::slice::from_ref(&script[k].edit);
    let apply = pass("engine.apply", &mut |k| {
        bare.apply(one(k)).map_err(|e| e.to_string())
    });
    let indexed_ms = pass("indexed.apply", &mut |k| {
        indexed.apply(one(k)).map(drop).map_err(|e| e.to_string())
    });
    let append = pass("wal.append", &mut |k| {
        store
            .append(WalRecord::Edit {
                tenant: tenant.clone(),
                directive: script[k].directive.clone(),
            })
            .map(drop)
            .map_err(|e| e.to_string())
    });
    let farm_edit = pass("farm.edit", &mut |k| {
        farm.edit(tenant, &script[k].directive)
            .map(drop)
            .map_err(|(_, m)| m)
    });
    let refresh = indexed_ms.iter().zip(&apply).map(|(i, a)| i - a).collect();
    let self_ms = farm_edit
        .iter()
        .zip(&indexed_ms)
        .zip(&append)
        .map(|((f, i), a)| f - i - a)
        .collect();
    let append = scaled(append, 1e3);
    let per_edit = (store.len() - base_len) as f64 / script.len() as f64;
    drop(farm);

    let recovery = tracer
        .time("wal.recover", 0, None, || cpplookup_wal::recover(&farm_wal))
        .map_err(io::Error::other)?;
    let replica = Farm::new();
    let mut replay = Vec::new();
    let mut edits_seen = 0;
    for stamped in &recovery.records {
        let t = Instant::now();
        let applied = tracer.time("farm.replay", stamped.seq, None, || {
            replica.apply_replica_record(&stamped.record)
        });
        if let WalRecord::Edit { .. } = stamped.record {
            edits_seen += 1;
            if edits_seen > 1 {
                replay.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        tally.record(match applied {
            Ok(cpplookup_server::farm::ReplicaApply::EditSkipped(m)) => {
                Err(format!("replay skipped an edit: {m}"))
            }
            Ok(_) => Ok(()),
            Err((_, m)) => Err(m),
        });
    }
    let pairs = live_pairs(&inputs.edited_chg(script.len()));
    for chunk in pairs.chunks(CHECK_CHUNK).step_by(8) {
        let probes: Vec<(String, String)> = chunk.iter().map(|p| p.names.clone()).collect();
        tally.record(match replica.batch(tenant, &probes) {
            Ok(got) if got.iter().eq(chunk.iter().map(|p| &p.expected)) => Ok(()),
            Ok(_) => Err("replayed farm diverges from the rebuild".to_owned()),
            Err((_, m)) => Err(m),
        });
    }

    layers.put(
        "engine.warm_s",
        "s",
        scaled(tracer.durations("engine.warm"), 1e-9),
    );
    layers.put(
        "engine.attach_s",
        "s",
        scaled(tracer.durations("engine.attach"), 1e-9),
    );
    layers.put("engine.apply_ms", "ms", apply);
    layers.put("index.refresh_ms", "ms", refresh);
    layers.put("wal.append_us", "us", append);
    layers.put("farm.edit_ms", "ms", farm_edit);
    layers.put("farm.edit_self_ms", "ms", self_ms);
    layers.put(
        "wal.recover_ms",
        "ms",
        scaled(tracer.durations("wal.recover"), 1e-6),
    );
    layers.put("farm.replay_ms", "ms", replay);
    layers.put("wal.bytes_per_edit", "bytes", vec![per_edit]);
    Ok(())
}
