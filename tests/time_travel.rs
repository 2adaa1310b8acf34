//! Time-travel differential test: `as-of` reads against retained
//! epochs must be indistinguishable from a from-scratch build stopped
//! at that epoch.
//!
//! For every generator family in the golden corpus, a farm with a deep
//! retention window ingests a family-derived edit script. Each edit
//! publishes a new epoch; afterwards, every retained epoch is replayed
//! two ways — an as-of read pinned to that epoch on the long-lived farm versus
//! a fresh farm that applied only the edits up to that epoch — and the
//! two must agree on **every** `(class, member)` probe.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use cpplookup::hiergen::{families, random_hierarchy, RandomConfig};
use cpplookup::prelude::*;
use cpplookup::server::{ErrorCode, Farm, FarmOptions, WireOutcome};

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cpplookup-timetravel-{name}-{}-{}",
        std::process::id(),
        NEXT_DIR.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The corpus families (same representatives as `tests/corpus.rs`).
fn corpus() -> Vec<(&'static str, Chg)> {
    vec![
        ("chain_12", families::chain(12, None)),
        ("chain_12_virtual_3", families::chain(12, Some(3))),
        (
            "stacked_diamonds_3_nonvirtual",
            families::stacked_diamonds(3, Inheritance::NonVirtual),
        ),
        (
            "stacked_diamonds_3_virtual",
            families::stacked_diamonds(3, Inheritance::Virtual),
        ),
        (
            "stacked_diamonds_overridden_3",
            families::stacked_diamonds_overridden(3, Inheritance::Virtual),
        ),
        (
            "wide_diamond_6",
            families::wide_diamond(6, Inheritance::Virtual),
        ),
        ("pyramid_4", families::pyramid(4, Inheritance::NonVirtual)),
        ("interface_heavy_6x3", families::interface_heavy(6, 3)),
        ("grid_3x3", families::grid(3, 3)),
        ("gxx_trap_3", families::gxx_trap(3)),
        (
            "random_stress_42",
            random_hierarchy(&RandomConfig::stress(42)),
        ),
        (
            "random_realistic_20_7",
            random_hierarchy(&RandomConfig::realistic(20, 7)),
        ),
    ]
}

/// A family-derived edit script: every directive parses and is accepted
/// by the engine, so each step publishes a fresh epoch.
fn edit_script(chg: &Chg) -> Vec<String> {
    let classes: Vec<String> = chg
        .classes()
        .map(|c| chg.class_name(c).to_owned())
        .collect();
    let first = &classes[0];
    let mid = &classes[classes.len() / 2];
    let last = &classes[classes.len() - 1];
    vec![
        format!("member {first} tt_m0"),
        "class TTA".to_owned(),
        format!("edge TTA {last}"),
        "member TTA tt_m1".to_owned(),
        "class TTB".to_owned(),
        "edge TTB TTA virtual".to_owned(),
        format!("edge TTB {mid}"),
        format!("member {mid} tt_m0"),
    ]
}

/// The full probe vocabulary: every base class and member name plus
/// everything the script introduces.
fn probes(chg: &Chg) -> (Vec<String>, Vec<String>) {
    let mut classes: Vec<String> = chg
        .classes()
        .map(|c| chg.class_name(c).to_owned())
        .collect();
    classes.push("TTA".to_owned());
    classes.push("TTB".to_owned());
    let mut members: Vec<String> = chg
        .member_ids()
        .map(|m| chg.member_name(m).to_owned())
        .collect();
    members.push("tt_m0".to_owned());
    members.push("tt_m1".to_owned());
    (classes, members)
}

/// One normalized probe verdict. Name interning is append-only and
/// shared across epochs, so a probe naming something added *after* the
/// queried epoch reads `NotFound` through the time-travel path but
/// `UnknownName` on a farm that never saw the edit — both mean "not
/// visible here" and fold into [`Probe::Absent`]. Resolutions and
/// ambiguities must still match exactly.
#[derive(Debug, PartialEq)]
enum Probe {
    Absent,
    Outcome(WireOutcome),
    Error(ErrorCode),
}

impl Probe {
    fn of(result: Result<WireOutcome, (ErrorCode, String)>) -> Probe {
        match result {
            Ok(WireOutcome::NotFound) | Err((ErrorCode::UnknownName, _)) => Probe::Absent,
            Ok(outcome) => Probe::Outcome(outcome),
            Err((code, _)) => Probe::Error(code),
        }
    }
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

/// Every probe outcome of `tenant` at `as_of` (None = current).
fn fingerprint_at(farm: &Farm, chg: &Chg, as_of: Option<u64>) -> Vec<Probe> {
    let (classes, members) = probes(chg);
    let mut out = Vec::new();
    for c in &classes {
        for m in &members {
            out.push(Probe::of(query_at(farm, "t", c, m, as_of)));
        }
    }
    out
}

#[test]
fn as_of_reads_equal_from_scratch_builds_at_every_retained_epoch() {
    for (name, chg) in corpus() {
        let dir = scratch(name);
        let snap = dir.join("t.snap");
        Snapshot::compile(&chg).write_to(&snap).unwrap();

        // The long-lived farm: deep retention, full edit history.
        let farm = Farm::with_options(FarmOptions {
            retain_epochs: 64,
            ..FarmOptions::default()
        });
        farm.load("t", &snap).unwrap();
        let script = edit_script(&chg);
        let mut epoch_after: Vec<u64> = Vec::new();
        for d in &script {
            let epoch = farm
                .edit("t", d)
                .unwrap_or_else(|e| panic!("{name}: edit `{d}` rejected: {e:?}"));
            epoch_after.push(epoch);
        }
        let retained = farm.retained_epochs("t").unwrap();
        for e in &epoch_after {
            assert!(
                retained.contains(e),
                "{name}: epoch {e} fell out of retention"
            );
        }

        // Epochs published before the first edit (promotion, engine
        // attach) must all read as the pristine snapshot.
        let pristine = Farm::new();
        pristine.load("t", &snap).unwrap();
        let base = fingerprint_at(&pristine, &chg, None);
        for &e in retained.iter().filter(|&&e| e < epoch_after[0]) {
            assert_eq!(
                fingerprint_at(&farm, &chg, Some(e)),
                base,
                "{name}: epoch {e} (pre-edit) != pristine snapshot"
            );
        }

        // Each edit's epoch must equal a fresh farm stopped right there.
        for (k, &epoch) in epoch_after.iter().enumerate() {
            let fresh = Farm::new();
            fresh.load("t", &snap).unwrap();
            for d in &script[..=k] {
                fresh.edit("t", d).unwrap();
            }
            assert_eq!(
                fingerprint_at(&farm, &chg, Some(epoch)),
                fingerprint_at(&fresh, &chg, None),
                "{name}: as-of epoch {epoch} != from-scratch build after {} edits",
                k + 1
            );
        }

        // And the current view is the last epoch's view.
        assert_eq!(
            fingerprint_at(&farm, &chg, None),
            fingerprint_at(&farm, &chg, Some(*epoch_after.last().unwrap())),
            "{name}: current view != last epoch"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn a_shallow_retention_window_retires_old_epochs_in_order() {
    let chg = families::chain(6, None);
    let dir = scratch("retire");
    let snap = dir.join("t.snap");
    Snapshot::compile(&chg).write_to(&snap).unwrap();

    let farm = Farm::with_options(FarmOptions {
        retain_epochs: 3,
        ..FarmOptions::default()
    });
    farm.load("t", &snap).unwrap();
    let script = edit_script(&chg);
    let mut epochs = Vec::new();
    for d in &script {
        epochs.push(farm.edit("t", d).unwrap());
    }

    let retained = farm.retained_epochs("t").unwrap();
    assert_eq!(retained.len(), 3, "window holds exactly K epochs");
    assert!(
        retained.windows(2).all(|w| w[0] < w[1]),
        "oldest-first order"
    );
    assert_eq!(*retained.last().unwrap(), *epochs.last().unwrap());

    // Everything older than the window answers EpochRetired; everything
    // inside it still answers.
    for &e in &epochs {
        let outcome = query_at(&farm, "t", "TTA", "tt_m1", Some(e));
        if retained.contains(&e) {
            assert!(outcome.is_ok(), "retained epoch {e} must serve");
        } else {
            assert_eq!(
                outcome.map_err(|(code, _)| code),
                Err(ErrorCode::EpochRetired),
                "retired epoch {e} must say so"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
