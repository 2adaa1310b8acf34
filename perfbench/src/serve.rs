//! The pieces of the untraced end-to-end run: set-up, the answer
//! check, the timed closed loop, and the restart that gives
//! `recovery_s`.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use cpplookup_server::{Client, Request, Response, Server, ServerConfig, WireOutcome};
use cpplookup_snapshot::Snapshot;
use cpplookup_wal::WalRecord;

use crate::host::Placement;
use crate::inputs::{live_pairs, Inputs, LivePair, Op, Rng};

/// Client I/O timeout: far above any healthy reply, so only a hung
/// server trips it.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// Probes per BATCH when checking answers in bulk.
const CHECK_CHUNK: usize = 512;

/// Probes of the edited hierarchy checked after edit_mix and again on
/// the recovered server.
const POST_EDIT_SAMPLE: usize = 4096;

/// Failed operations against attempted ones, with the first few
/// failure messages for the report.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            if self.notes.len() < 5 {
                self.notes.push(msg);
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(5);
    }
}

/// The server configuration a workload runs with: the spec's I/O model
/// (one reactor under epoll), its snapshots preloaded, and, for the
/// edit workload, an edit log with the default fsync after every append.
pub fn server_config(inputs: &Inputs, dir: &Path) -> ServerConfig {
    let mut config = ServerConfig {
        io_model: inputs.spec.io_model,
        reactors: 1,
        ..ServerConfig::default()
    };
    config.preload = inputs
        .tenants
        .iter()
        .map(|t| (t.name.clone(), snapshot_path(dir, &t.name)))
        .collect();
    if inputs.spec.wal {
        config.wal_path = Some(wal_path(dir));
    }
    config
}

pub fn snapshot_path(dir: &Path, tenant: &str) -> PathBuf {
    dir.join(format!("{tenant}.snap"))
}

pub fn wal_path(dir: &Path) -> PathBuf {
    dir.join("edits.wal")
}

/// Empties `dir`, creating it if needed.
pub fn fresh_dir(dir: &Path) -> io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)
}

/// Upper limit on waiting for a shut-down server's connection threads.
const TEARDOWN_WAIT: Duration = Duration::from_secs(10);

/// Shuts `server` down, waits until its connection threads have let go
/// of its farm, and frees the farm on this thread. Left to whichever
/// connection thread ends last, that teardown would run on the server
/// CPU beside whatever is timed next.
pub fn shut_down(server: Server) {
    let farm = Arc::clone(server.farm());
    drop(server);
    let start = Instant::now();
    while Arc::strong_count(&farm) > 1 && start.elapsed() < TEARDOWN_WAIT {
        thread::sleep(Duration::from_millis(1));
    }
}

pub fn connect(server: &Server) -> io::Result<Client> {
    Client::connect(server.addr(), Some(CLIENT_TIMEOUT))
}

/// Runs `f` on a scoped thread pinned to the client CPU.
pub fn on_client<T: Send>(
    placement: &Placement,
    f: impl FnOnce() -> io::Result<T> + Send,
) -> io::Result<T> {
    thread::scope(|s| {
        s.spawn(|| {
            placement.pin_client()?;
            f()
        })
        .join()
        .map_err(|_| io::Error::other("client thread panicked"))?
    })
}

/// The read request for `picks` of `tenant`: QUERY for one probe,
/// BATCH otherwise.
pub fn read_request(inputs: &Inputs, tenant: usize, picks: &[usize], trace: bool) -> Request {
    let t = &inputs.tenants[tenant];
    if let [pick] = picks {
        let (class, member) = &t.pairs[*pick].names;
        Request::Query {
            tenant: t.name.clone(),
            class: class.clone(),
            member: member.clone(),
            trace,
            as_of: None,
        }
    } else {
        Request::Batch {
            tenant: t.name.clone(),
            probes: picks.iter().map(|&p| t.pairs[p].names.clone()).collect(),
            trace,
            as_of: None,
        }
    }
}

/// The outcomes a read reply carries, or why it is not one.
pub fn reply_outcomes(resp: Response) -> Result<Vec<WireOutcome>, String> {
    match resp {
        Response::Outcome(o) => Ok(vec![o]),
        Response::Outcomes(v) => Ok(v),
        Response::Traced { outcomes, .. } => Ok(outcomes),
        Response::Error { code, message } => Err(format!("server error {code:?}: {message}")),
        other => Err(format!("unexpected reply {other:?}")),
    }
}

/// Checks a read reply. On the read-only workloads every answer must
/// equal the reference; on edit_mix the hierarchy moves under the
/// reads, so each answer must only name a definition (a live pair
/// stays live under additive edits) — the exact answers are checked
/// after the script against a from-scratch rebuild.
pub fn check_read(
    inputs: &Inputs,
    tenant: usize,
    picks: &[usize],
    resp: Result<Response, String>,
) -> Result<(), String> {
    let outcomes = reply_outcomes(resp?)?;
    if outcomes.len() != picks.len() {
        return Err(format!(
            "{} outcomes for {} probes",
            outcomes.len(),
            picks.len()
        ));
    }
    let t = &inputs.tenants[tenant];
    for (&p, got) in picks.iter().zip(&outcomes) {
        let want = &t.pairs[p].expected;
        let ok = if inputs.spec.reads_per_edit > 0 {
            *got != WireOutcome::NotFound
        } else {
            got == want
        };
        if !ok {
            let (class, member) = &t.pairs[p].names;
            return Err(format!(
                "{}: ({class}, {member}) answered {got:?}, expected {want:?}",
                t.name
            ));
        }
    }
    Ok(())
}

/// Sends one edit; the reply must publish exactly the next epoch.
pub fn send_edit(
    client: &mut Client,
    inputs: &Inputs,
    k: usize,
    last_epoch: &mut Option<u64>,
) -> Result<(), String> {
    let req = Request::Edit {
        tenant: inputs.tenants[0].name.clone(),
        directive: inputs.script[k].directive.clone(),
    };
    match client.roundtrip(&req) {
        Ok(Response::Edited { epoch }) => {
            let ok = last_epoch.is_none_or(|prev| epoch == prev + 1);
            *last_epoch = Some(epoch);
            if ok {
                Ok(())
            } else {
                Err(format!("edit {k} published epoch {epoch} out of order"))
            }
        }
        Ok(other) => Err(format!(
            "edit {k} (`{}`): {other:?}",
            inputs.script[k].directive
        )),
        Err(e) => Err(format!("edit {k}: {e}")),
    }
}

/// Sends one read of every tenant (and, on edit_mix, the script's
/// first edit) — the point where set-up or recovery is over.
fn first_answers(
    server: &Server,
    inputs: &Inputs,
    placement: &Placement,
    first_edit: bool,
) -> io::Result<Option<u64>> {
    on_client(placement, || {
        let mut client = connect(server)?;
        for tenant in 0..inputs.tenants.len() {
            let req = read_request(inputs, tenant, &[0], false);
            check_read(
                inputs,
                tenant,
                &[0],
                client.roundtrip(&req).map_err(|e| e.to_string()),
            )
            .map_err(io::Error::other)?;
        }
        let mut epoch = None;
        if first_edit {
            send_edit(&mut client, inputs, 0, &mut epoch).map_err(io::Error::other)?;
        }
        Ok(epoch)
    })
}

/// One set-up: compile and write every tenant's snapshot, start the
/// server with them preloaded, and wait until every tenant has
/// answered (on edit_mix, until the first edit has been published,
/// which warms the engine and attaches it to the index). Returns the
/// server, the epoch of that first edit, and the elapsed seconds.
pub fn setup(
    inputs: &Inputs,
    dir: &Path,
    placement: &Placement,
) -> io::Result<(Server, Option<u64>, f64)> {
    fresh_dir(dir)?;
    let start = Instant::now();
    for t in &inputs.tenants {
        Snapshot::compile(&t.chg)
            .write_to(snapshot_path(dir, &t.name))
            .map_err(io::Error::other)?;
    }
    let server = Server::start(server_config(inputs, dir))?;
    let epoch = first_answers(&server, inputs, placement, inputs.spec.wal)?;
    Ok((server, epoch, start.elapsed().as_secs_f64()))
}

/// Restarts on the same directory (replaying the edit log, if any)
/// and waits until every tenant answers. Returns the server and the
/// elapsed seconds.
pub fn restart(inputs: &Inputs, dir: &Path, placement: &Placement) -> io::Result<(Server, f64)> {
    let start = Instant::now();
    let server = Server::start(server_config(inputs, dir))?;
    first_answers(&server, inputs, placement, false)?;
    Ok((server, start.elapsed().as_secs_f64()))
}

/// Asks for `pairs` of `tenant` in BATCHes of `CHECK_CHUNK` and checks
/// every answer against its reference; each request is one operation.
fn check_pairs(client: &mut Client, tenant: &str, pairs: &[LivePair], tally: &mut Tally) {
    for chunk in pairs.chunks(CHECK_CHUNK) {
        let req = Request::Batch {
            tenant: tenant.to_owned(),
            probes: chunk.iter().map(|p| p.names.clone()).collect(),
            trace: false,
            as_of: None,
        };
        let outcome = client
            .roundtrip(&req)
            .map_err(|e| e.to_string())
            .and_then(reply_outcomes)
            .and_then(|got| {
                if got.len() != chunk.len() {
                    return Err(format!("{} outcomes for {} probes", got.len(), chunk.len()));
                }
                match got.iter().zip(chunk).find(|(g, p)| **g != p.expected) {
                    None => Ok(()),
                    Some((g, p)) => Err(format!(
                        "{tenant}: {:?} answered {g:?}, reference says {:?}",
                        p.names, p.expected
                    )),
                }
            });
        tally.record(outcome);
    }
}

/// Asks for every live pair of every tenant and checks each answer
/// against the reference, before anything is timed.
pub fn check_all_pairs(
    server: &Server,
    inputs: &Inputs,
    placement: &Placement,
) -> io::Result<Tally> {
    on_client(placement, || {
        let mut client = connect(server)?;
        let mut tally = Tally::default();
        // On edit_mix set-up has already applied the script's first
        // edit, so the reference is the hierarchy with that edit.
        let edited = (!inputs.script.is_empty()).then(|| live_pairs(&inputs.edited_chg(1)));
        for t in &inputs.tenants {
            let pairs = edited.as_deref().unwrap_or(&t.pairs);
            check_pairs(&mut client, &t.name, pairs, &mut tally);
        }
        Ok(tally)
    })
}

/// What the timed closed loop measured, accumulated over the run's
/// slices.
#[derive(Default)]
pub struct Timed {
    /// Per read request, microseconds.
    pub read_us: Vec<f64>,
    /// Per edit request, milliseconds.
    pub edit_ms: Vec<f64>,
    /// Per round, probes answered per second of the round's read round
    /// trips: the benchmark's own work between them (building requests,
    /// checking answers) and the edits are left out.
    pub round_probes_per_s: Vec<f64>,
    /// Epoch the last edit published; the next must publish its
    /// successor.
    pub last_epoch: Option<u64>,
}

/// One slice of the timed closed loop: `ops` (whole rounds of the
/// fixed stream) over one connection from one client thread, every
/// answer checked.
pub fn timed_loop(
    server: &Server,
    inputs: &Inputs,
    placement: &Placement,
    ops: &[Op],
    timed: &mut Timed,
    tally: &mut Tally,
) -> io::Result<()> {
    on_client(placement, || {
        let mut client = connect(server)?;
        let mut picks = Vec::new();
        for round in ops.chunks(inputs.spec.round) {
            let mut reading = Duration::ZERO;
            let mut probes = 0usize;
            for op in round {
                match *op {
                    Op::Read { tenant, pick } => {
                        let tenant = tenant as usize;
                        inputs.read_picks(tenant, pick, &mut picks);
                        let req = read_request(inputs, tenant, &picks, false);
                        let sent = Instant::now();
                        let resp = client.roundtrip(&req);
                        let took = sent.elapsed();
                        reading += took;
                        timed.read_us.push(took.as_secs_f64() * 1e6);
                        probes += picks.len();
                        tally.record(check_read(
                            inputs,
                            tenant,
                            &picks,
                            resp.map_err(|e| e.to_string()),
                        ));
                    }
                    Op::Edit(k) => {
                        let sent = Instant::now();
                        let outcome = send_edit(&mut client, inputs, k, &mut timed.last_epoch);
                        timed.edit_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                        tally.record(outcome);
                    }
                }
            }
            if probes > 0 {
                timed
                    .round_probes_per_s
                    .push(probes as f64 / reading.as_secs_f64());
            }
        }
        Ok(())
    })
}

/// Writes, untimed, the edit log edit_mix's restarts replay: a set-up
/// on `dir` (which applies the script's first edit) followed by the
/// rest of the script over the wire, exactly the edits the timed
/// stream sends. Returns the set-up's seconds, a set-up sample like
/// any other.
pub fn prepare_log(
    inputs: &Inputs,
    dir: &Path,
    placement: &Placement,
    tally: &mut Tally,
) -> io::Result<f64> {
    let (server, mut epoch, secs) = setup(inputs, dir, placement)?;
    on_client(placement, || {
        let mut client = connect(&server)?;
        for k in 1..inputs.script.len() {
            tally.record(send_edit(&mut client, inputs, k, &mut epoch));
        }
        Ok(())
    })?;
    shut_down(server);
    Ok(secs)
}

/// Checks that two edit logs hold the same records in the same order,
/// snapshot paths aside (each log names the snapshot in its own
/// directory).
pub fn same_log(a: &Path, b: &Path) -> Result<(), String> {
    let read = |p: &Path| {
        cpplookup_wal::read_all(p).map_err(|e| format!("reading `{}`: {e}", p.display()))
    };
    let (a, b) = (read(a)?, read(b)?);
    if a.len() != b.len() {
        return Err(format!(
            "edit logs hold {} and {} records",
            a.len(),
            b.len()
        ));
    }
    for (x, y) in a.iter().zip(&b) {
        let same = match (&x.record, &y.record) {
            (WalRecord::Open { tenant: s, .. }, WalRecord::Open { tenant: t, .. }) => s == t,
            (r, q) => r == q,
        };
        if !same {
            return Err(format!(
                "edit logs differ at seq {}: {:?} against {:?}",
                x.seq, x.record, y.record
            ));
        }
    }
    Ok(())
}

/// A seeded sample of the edited hierarchy's live pairs with their
/// reference answers from a from-scratch `LookupTable::build` of the
/// base hierarchy with the whole script applied.
pub struct PostEditSample {
    tenant: String,
    pairs: Vec<LivePair>,
}

impl PostEditSample {
    pub fn build(inputs: &Inputs) -> PostEditSample {
        let pairs = live_pairs(&inputs.edited_chg(inputs.script.len()));
        let mut rng = Rng::derive(inputs.seed, 400);
        PostEditSample {
            tenant: inputs.tenants[0].name.clone(),
            pairs: (0..POST_EDIT_SAMPLE.min(pairs.len()))
                .map(|_| pairs[rng.below(pairs.len())].clone())
                .collect(),
        }
    }

    /// Asks the sample over the wire.
    pub fn check(
        &self,
        server: &Server,
        placement: &Placement,
        tally: &mut Tally,
    ) -> io::Result<()> {
        on_client(placement, || {
            check_pairs(&mut connect(server)?, &self.tenant, &self.pairs, tally);
            Ok(())
        })
    }
}
