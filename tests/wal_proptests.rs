//! Property-based tests of the durable edit log under crashes and
//! corruption.
//!
//! The contract mirrors `tests/snapshot_proptests.rs` for the other
//! on-disk format: killing a writer at *any* byte boundary must recover
//! a clean prefix of the appended records (and a farm replayed from
//! that prefix must equal a from-scratch rebuild that applied the same
//! edits), while *any* byte damage must surface as a structured
//! [`WalError`] with the damage localized — never a panic, never a
//! silently wrong record.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cpplookup::chg::fixtures;
use cpplookup::prelude::*;
use cpplookup::server::farm::ReplicaApply;
use cpplookup::server::{ErrorCode, Farm, FarmOptions, WireOutcome};
use cpplookup::wal::{read_all, recover_bytes, Stamped, WalError, WalRecord, WalStore, WalWriter};
use proptest::prelude::*;

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch directory per call; the caller removes it.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cpplookup-walprop-{name}-{}-{}",
        std::process::id(),
        NEXT_DIR.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The probe vocabulary every state comparison walks: the base
/// hierarchy's names plus everything an edit script can introduce.
fn probe_names() -> (Vec<String>, Vec<String>) {
    let mut classes: Vec<String> = ["A", "B", "C", "D", "E"]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    classes.extend((0..4).map(|i| format!("K{i}")));
    let mut members = vec!["m".to_owned()];
    members.extend((0..3).map(|i| format!("m{i}")));
    (classes, members)
}

/// Queries every probe and keeps the outcome (or its error code) — two
/// farms with equal fingerprints are indistinguishable to readers.
fn fingerprint(farm: &Farm) -> Fingerprint {
    let (classes, members) = probe_names();
    let mut out = Vec::new();
    for c in &classes {
        for m in &members {
            out.push(farm.query("t", c, m).map_err(|(code, _)| code));
        }
    }
    out
}

/// The current published epoch of tenant `t`, if it has one.
fn current_epoch(farm: &Farm) -> Option<u64> {
    farm.retained_epochs("t")
        .ok()
        .and_then(|v| v.last().copied())
}

/// One step of a generated edit script. Every rendered directive is
/// grammatically valid; whether the engine *accepts* it (duplicates,
/// unknown names, cycles) is exactly the behavior under test — the
/// leader and every replayer must agree on each verdict.
#[derive(Debug, Clone)]
enum Op {
    Class(u8),
    Member(u8, u8),
    Edge(u8, u8, bool),
}

impl Op {
    fn render(&self) -> String {
        let class = |i: u8| {
            if i < 5 {
                ["A", "B", "C", "D", "E"][i as usize].to_owned()
            } else {
                format!("K{}", i % 4)
            }
        };
        match self {
            Op::Class(i) => format!("class K{}", i % 4),
            Op::Member(c, m) => format!("member {} m{}", class(c % 9), m % 3),
            Op::Edge(a, b, false) => format!("edge {} {}", class(a % 9), class(b % 9)),
            Op::Edge(a, b, true) => format!("edge {} {} virtual", class(a % 9), class(b % 9)),
        }
    }
}

fn edit_script() -> impl Strategy<Value = Vec<String>> {
    let op = prop_oneof![
        any::<u8>().prop_map(Op::Class),
        (any::<u8>(), any::<u8>()).prop_map(|(c, m)| Op::Member(c, m)),
        (any::<u8>(), any::<u8>(), any::<bool>()).prop_map(|(a, b, v)| Op::Edge(a, b, v)),
    ];
    proptest::collection::vec(op.prop_map(|op| op.render()), 0..12)
}

/// What a query fingerprint looks like: one outcome (or error code) per
/// probe, in probe order.
type Fingerprint = Vec<Result<WireOutcome, ErrorCode>>;

/// Runs `script` through a logging leader farm and returns the log's
/// stamped records, its raw bytes, and the leader's final fingerprint.
fn leader_run(dir: &Path, script: &[String]) -> (Vec<Stamped>, Vec<u8>, Fingerprint, Option<u64>) {
    let snap = dir.join("t.snap");
    Snapshot::compile(&fixtures::fig2())
        .write_to(&snap)
        .unwrap();
    let wal_path = dir.join("edits.wal");
    let (store, recovered) = WalStore::open(&wal_path, 1).unwrap();
    assert!(recovered.is_empty());
    let farm = Farm::with_options(FarmOptions {
        wal: Some(Arc::new(store)),
        ..FarmOptions::default()
    });
    farm.load("t", &snap).unwrap();
    for d in script {
        let _ = farm.edit("t", d); // engine rejections are part of the experiment
    }
    let records = read_all(&wal_path).unwrap();
    let bytes = std::fs::read(&wal_path).unwrap();
    let print = fingerprint(&farm);
    let epoch = current_epoch(&farm);
    (records, bytes, print, epoch)
}

/// Replays stamped records through a read-only replica farm.
fn replica_of(dir: &Path, records: &[Stamped]) -> Farm {
    let farm = Farm::with_options(FarmOptions {
        read_only: true,
        ..FarmOptions::default()
    });
    for r in records {
        farm.apply_replica_record(&r.record)
            .expect("replaying a valid log never fails structurally");
    }
    let _ = dir; // snapshot paths inside Open records are absolute
    farm
}

/// Rebuilds the same state from scratch down the *client edit* path:
/// loads for Open records, `edit` for Edit records (rejections and all).
fn rebuild_of(records: &[Stamped]) -> Farm {
    rebuild_retaining(records, 1)
}

/// [`rebuild_of`] on a farm that keeps `retain_epochs` epochs loadable.
fn rebuild_retaining(records: &[Stamped], retain_epochs: usize) -> Farm {
    let farm = Farm::with_options(FarmOptions {
        retain_epochs,
        ..FarmOptions::default()
    });
    for r in records {
        match &r.record {
            WalRecord::Open { tenant, path } => {
                farm.load(tenant, Path::new(path)).unwrap();
            }
            WalRecord::Edit { tenant, directive } => {
                let _ = farm.edit(tenant, directive);
            }
            WalRecord::Checkpoint { tenant, path, .. } => {
                if !farm.has_tenant(tenant) {
                    farm.load(tenant, Path::new(path)).unwrap();
                }
            }
        }
    }
    farm
}

/// One record of a two-tenant replay script, after the fixed
/// `Open t` + `Checkpoint u` prologue.
#[derive(Debug, Clone)]
enum Step {
    /// An edit of tenant `u` (`true`) or `t` (`false`).
    Edit(bool, Op),
    /// A directive that does not parse.
    Garbage(bool),
    /// `Open u` on a different hierarchy: ends `u`'s run and resets it.
    ReopenU,
    /// `Checkpoint t`: skipped (t is loaded), but it ends t's run.
    CheckpointT,
}

fn replay_script() -> impl Strategy<Value = Vec<Step>> {
    let op = prop_oneof![
        any::<u8>().prop_map(Op::Class),
        (any::<u8>(), any::<u8>()).prop_map(|(c, m)| Op::Member(c, m)),
        (any::<u8>(), any::<u8>(), any::<bool>()).prop_map(|(a, b, v)| Op::Edge(a, b, v)),
    ];
    // Mostly edits; one step in twelve each of the other kinds.
    let step = (any::<u8>(), any::<bool>(), op).prop_map(|(kind, u, op)| match kind % 12 {
        0 => Step::Garbage(u),
        1 => Step::ReopenU,
        2 => Step::CheckpointT,
        _ => Step::Edit(u, op),
    });
    proptest::collection::vec(step, 0..16)
}

/// The records of a replay script: `t` opens on fig2, `u` is first
/// loaded by a checkpoint of fig1 and may be reopened on fig9.
fn replay_records(dir: &Path, script: &[Step]) -> Vec<Stamped> {
    let snap = |name: &str, chg: &Chg| {
        let path = dir.join(name);
        Snapshot::compile(chg).write_to(&path).unwrap();
        path.display().to_string()
    };
    let (t_snap, u_snap, u_reopen) = (
        snap("t.snap", &fixtures::fig2()),
        snap("u.snap", &fixtures::fig1()),
        snap("u2.snap", &fixtures::fig9()),
    );
    let tenant = |u: bool| if u { "u" } else { "t" }.to_owned();
    let mut records = vec![
        WalRecord::Open {
            tenant: tenant(false),
            path: t_snap.clone(),
        },
        WalRecord::Checkpoint {
            tenant: tenant(true),
            path: u_snap,
            epoch: 0,
        },
    ];
    records.extend(script.iter().map(|step| match step {
        Step::Edit(u, op) => WalRecord::Edit {
            tenant: tenant(*u),
            directive: op.render(),
        },
        Step::Garbage(u) => WalRecord::Edit {
            tenant: tenant(*u),
            directive: "drop table".to_owned(),
        },
        Step::ReopenU => WalRecord::Open {
            tenant: tenant(true),
            path: u_reopen.clone(),
        },
        Step::CheckpointT => WalRecord::Checkpoint {
            tenant: tenant(false),
            path: t_snap.clone(),
            epoch: 0,
        },
    }));
    records
        .into_iter()
        .enumerate()
        .map(|(i, record)| Stamped {
            seq: i as u64 + 1,
            unix_nanos: 0,
            record,
        })
        .collect()
}

/// One probe through the farm's read path, optionally pinned to a
/// retained epoch.
fn query_at(
    farm: &Farm,
    tenant: &str,
    class: &str,
    member: &str,
    as_of: Option<u64>,
) -> Result<WireOutcome, (ErrorCode, String)> {
    Ok(farm.read(tenant, &[(class, member)], as_of)?.0.remove(0))
}

/// Everything a reader can observe of one tenant: its retained epochs
/// (the last is the current one), then the outcome of every probe now
/// and as of each retained epoch.
fn tenant_state(farm: &Farm, tenant: &str) -> (Vec<u64>, Vec<Fingerprint>) {
    let epochs = farm.retained_epochs(tenant).unwrap_or_default();
    let (mut classes, members) = probe_names();
    classes.push("S".to_owned());
    let print = |as_of: Option<u64>| -> Fingerprint {
        let mut out = Vec::new();
        for c in &classes {
            for m in &members {
                out.push(query_at(farm, tenant, c, m, as_of).map_err(|(code, _)| code));
            }
        }
        out
    };
    let mut prints = vec![print(None)];
    prints.extend(epochs.iter().map(|&e| print(Some(e))));
    (epochs, prints)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batched boot replay is indistinguishable from per-record replay
    /// and from the client edit path, at every record prefix of a
    /// two-tenant log with rejected, unparseable and unknown-name
    /// edits, a reopened tenant and a skipped checkpoint: the same
    /// per-record outcomes, the same current and retained epochs, the
    /// same answers now and as of every retained epoch.
    #[test]
    fn batched_boot_replay_matches_per_record_replay(script in replay_script()) {
        let dir = scratch("batched");
        let records = replay_records(&dir, &script);
        for retain_epochs in [1, 3, 8] {
            let options = || FarmOptions {
                read_only: true,
                retain_epochs,
                ..FarmOptions::default()
            };
            for k in 0..=records.len() {
                let prefix = &records[..k];
                let batched = Farm::with_options(options());
                let outcomes = batched
                    .replay(prefix)
                    .expect("replaying a valid log never fails structurally");
                let per_record = Farm::with_options(options());
                let expected: Vec<ReplicaApply> = prefix
                    .iter()
                    .map(|r| per_record.apply_replica_record(&r.record).unwrap())
                    .collect();
                prop_assert_eq!(&outcomes, &expected, "outcomes, K={} prefix {}", retain_epochs, k);
                let rebuild = rebuild_retaining(prefix, retain_epochs);
                for tenant in ["t", "u"] {
                    let state = tenant_state(&batched, tenant);
                    prop_assert_eq!(
                        &state,
                        &tenant_state(&per_record, tenant),
                        "{} vs per-record, K={} prefix {}", tenant, retain_epochs, k
                    );
                    prop_assert_eq!(
                        &state,
                        &tenant_state(&rebuild, tenant),
                        "{} vs rebuild, K={} prefix {}", tenant, retain_epochs, k
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Kill-at-random-offset: truncating the log anywhere recovers a
    /// clean prefix of the appended records, and both a log replay and
    /// a from-scratch edit-path rebuild of that prefix converge to the
    /// same observable state — same query outcomes, same epoch.
    #[test]
    fn truncation_recovers_a_replayable_prefix(script in edit_script(), cut in any::<u64>()) {
        let dir = scratch("cut");
        let (records, bytes, leader_print, leader_epoch) = leader_run(&dir, &script);
        let at = (cut % (bytes.len() as u64 + 1)) as usize;

        let recovery = recover_bytes(&bytes[..at]);
        prop_assert!(
            recovery.records.len() <= records.len()
                && recovery.records[..] == records[..recovery.records.len()],
            "recovered records are not a prefix (cut at {at})"
        );

        let replica = replica_of(&dir, &recovery.records);
        let rebuild = rebuild_of(&recovery.records);
        prop_assert_eq!(fingerprint(&replica), fingerprint(&rebuild), "cut at {}", at);
        prop_assert_eq!(current_epoch(&replica), current_epoch(&rebuild), "cut at {}", at);

        if at == bytes.len() {
            prop_assert_eq!(fingerprint(&replica), leader_print, "full replay != leader");
            prop_assert_eq!(current_epoch(&replica), leader_epoch, "full replay epoch");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Crash-then-continue: a writer reopening a truncated log repairs
    /// the torn tail, reports exactly the surviving prefix, and appends
    /// cleanly after it with strictly increasing sequence numbers.
    #[test]
    fn reopening_a_torn_log_repairs_and_continues(script in edit_script(), cut in any::<u64>()) {
        let dir = scratch("reopen");
        let (records, bytes, _, _) = leader_run(&dir, &script);
        let at = (cut % (bytes.len() as u64 + 1)) as usize;
        let torn = dir.join("torn.wal");
        std::fs::write(&torn, &bytes[..at]).unwrap();

        let (mut writer, recovered) = WalWriter::open(&torn, 1).unwrap();
        prop_assert!(recovered[..] == records[..recovered.len()]);
        let stamped = writer.append(WalRecord::Edit {
            tenant: "t".to_owned(),
            directive: "class Tail".to_owned(),
        }).unwrap();
        prop_assert!(stamped.seq > recovered.last().map_or(0, |r| r.seq));
        drop(writer);

        let strict = read_all(&torn).unwrap();
        prop_assert_eq!(strict.len(), recovered.len() + 1);
        prop_assert_eq!(strict.last().unwrap(), &stamped);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Corruption safety, bit-flip edition: XOR-damaging any byte of a
    /// valid log makes the strict reader fail with a structured error,
    /// and lenient recovery still yields an intact record prefix —
    /// damage is localized, never amplified, never a panic.
    #[test]
    fn any_byte_flip_is_structured_and_localized(
        script in edit_script(),
        position in any::<u64>(),
        mask in 0u8..255,
    ) {
        let dir = scratch("flip");
        let (records, bytes, _, _) = leader_run(&dir, &script);
        let mask = mask + 1; // 1..=255: never the identity flip
        let at = (position % bytes.len() as u64) as usize;
        let mut damaged = bytes;
        damaged[at] ^= mask;

        let flipped = dir.join("flipped.wal");
        std::fs::write(&flipped, &damaged).unwrap();
        let result = std::panic::catch_unwind(|| read_all(&flipped));
        match result {
            Ok(read) => prop_assert!(
                read.is_err(),
                "strict read accepted a log with byte {at} xor {mask:#04x}"
            ),
            Err(_) => prop_assert!(false, "panicked on byte {} xor {:#04x}", at, mask),
        }

        let recovery = recover_bytes(&damaged);
        prop_assert!(recovery.damage.is_some(), "no damage reported for byte {at}");
        prop_assert!(
            recovery.records.len() <= records.len()
                && recovery.records[..] == records[..recovery.records.len()],
            "recovered records are not an intact prefix (byte {at})"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Corruption safety, garbage edition: arbitrary byte soup never
    /// panics recovery, the strict reader, or the repairing writer.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let dir = scratch("soup");
        let path = dir.join("soup.wal");
        std::fs::write(&path, &bytes).unwrap();
        let result = std::panic::catch_unwind(|| {
            let _ = recover_bytes(&bytes);
            let _ = read_all(&path);
            let _ = WalWriter::open(&path, 1);
        });
        prop_assert!(result.is_ok(), "panicked on arbitrary bytes");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The exhaustive satellite: one scripted log, truncated at **every**
/// byte boundary. Each cut recovers a clean record prefix whose damage
/// classification is crash-shaped (`None` at a frame boundary,
/// [`WalError::TornTail`] inside a frame) — truncation alone can never
/// look like corruption or a foreign file.
#[test]
fn every_byte_boundary_recovers_a_clean_prefix() {
    let dir = scratch("exhaustive");
    let script: Vec<String> = [
        "member E fresh",
        "class K0",
        "edge K0 E",
        "member K0 m0",
        "edge E K0", // cycle: rejected by the engine, still logged
        "class K1",
        "edge K1 K0 virtual",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    let (records, bytes, _, _) = leader_run(&dir, &script);
    assert!(
        records.len() > script.len(),
        "expected Open + every edit logged"
    );

    let mut boundary_cuts = 0;
    for at in 0..=bytes.len() {
        let recovery = recover_bytes(&bytes[..at]);
        assert!(
            recovery.records.len() <= records.len()
                && recovery.records[..] == records[..recovery.records.len()],
            "cut at {at}: recovered records are not a prefix"
        );
        match &recovery.damage {
            None => {
                boundary_cuts += 1;
                assert_eq!(
                    recovery.valid_len, at as u64,
                    "clean recovery at {at} must consume every byte"
                );
            }
            Some(WalError::TornTail { offset }) => {
                assert!(
                    *offset <= at as u64,
                    "cut at {at}: torn tail reported past the cut ({offset})"
                );
            }
            Some(other) => panic!("cut at {at}: truncation classified as {other:?}"),
        }
    }
    // Clean cuts are exactly: the empty file, plus one per frame
    // boundary (header included).
    assert_eq!(
        boundary_cuts,
        records.len() + 2,
        "unexpected frame boundary count"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Replay equivalence at every *record* boundary of a scripted log:
/// replica replay and from-scratch rebuild agree at each prefix, and
/// the full-log replay equals the leader exactly (same epoch, same
/// outcomes) — the wire-follower convergence guarantee, minus the wire.
#[test]
fn every_record_prefix_replays_to_the_rebuilt_state() {
    let dir = scratch("prefixes");
    let script: Vec<String> = [
        "member E fresh",
        "class K0",
        "edge K0 E",
        "member K0 m0",
        "edge E K0", // rejected: would form a cycle
        "class K1",
        "edge K1 K0 virtual",
        "member K1 m1",
        "member D m2",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    let (records, _, leader_print, leader_epoch) = leader_run(&dir, &script);

    for k in 0..=records.len() {
        let replica = replica_of(&dir, &records[..k]);
        let rebuild = rebuild_of(&records[..k]);
        assert_eq!(
            fingerprint(&replica),
            fingerprint(&rebuild),
            "prefix of {k} records diverged"
        );
        assert_eq!(
            current_epoch(&replica),
            current_epoch(&rebuild),
            "prefix {k} epoch"
        );
    }
    let full = replica_of(&dir, &records);
    assert_eq!(fingerprint(&full), leader_print, "full replay != leader");
    assert_eq!(
        current_epoch(&full),
        leader_epoch,
        "full replay epoch != leader"
    );
    std::fs::remove_dir_all(&dir).ok();
}
