//! Cross-backend conformance: every lookup implementation in the
//! workspace is run over the shared corpus of paper-figure hierarchies
//! (`cpplookup::conformance`), at the conformance level each backend
//! claims.
//!
//! The same corpus that proves the paper's algorithm correct also pins
//! the historical g++ bug: the faithful BFS baseline is *required* to
//! diverge on the Figure 9 counterexample.

use cpplookup::baselines::adapters::{GxxAdapter, NaiveLookup, TopoShortcut};
use cpplookup::conformance::{check_backend, Conformance};
use cpplookup::prelude::*;
use cpplookup::LazyLookup;

fn assert_conforms<F>(name: &str, level: Conformance, make: F)
where
    F: for<'a> FnMut(&'a cpplookup::Chg) -> Box<dyn MemberLookup + 'a>,
{
    if let Err(failures) = check_backend(level, make) {
        panic!(
            "{name} failed {} queries:\n  {}",
            failures.len(),
            failures.join("\n  ")
        );
    }
}

#[test]
fn eager_table_conforms() {
    assert_conforms("LookupTable::build", Conformance::Full, |g| {
        Box::new(LookupTable::build(g))
    });
}

#[test]
fn parallel_table_conforms() {
    assert_conforms("LookupTable::build_parallel", Conformance::Full, |g| {
        Box::new(LookupTable::build_parallel(g, LookupOptions::default(), 4))
    });
}

#[test]
fn lazy_lookup_conforms() {
    assert_conforms("LazyLookup", Conformance::Full, |g| {
        Box::new(LazyLookup::new(g))
    });
}

/// Both ways to back the engine's table: built in place, or seeded
/// with `from_table` from a parallel build (a snapshot-seeded engine is
/// `warmed_engine_conforms`).
#[test]
fn engine_conforms_in_every_backing() {
    assert_conforms("LookupEngine::new", Conformance::Full, |g| {
        Box::new(LookupEngine::new(g.clone()))
    });
    assert_conforms("LookupEngine::from_table", Conformance::Full, |g| {
        let table = LookupTable::build_parallel(g, Default::default(), 4);
        Box::new(LookupEngine::from_table(g.clone(), table))
    });
}

#[test]
fn snapshot_roundtrip_conforms() {
    assert_conforms("SnapshotTable", Conformance::Full, |g| {
        Box::new(
            SnapshotTable::from_bytes(Snapshot::compile(g).into_bytes())
                .expect("corpus snapshots validate"),
        )
    });
}

#[test]
fn warmed_engine_conforms() {
    // The full serve-many pipeline: compile → bytes → load → rebuild
    // hierarchy → seed the engine's table → answer.
    assert_conforms("SnapshotTable::warm_engine", Conformance::Full, |g| {
        let snap = SnapshotTable::from_bytes(Snapshot::compile(g).into_bytes())
            .expect("corpus snapshots validate");
        Box::new(snap.warm_engine().expect("corpus hierarchies rebuild"))
    });
}

#[test]
fn naive_propagation_conforms_to_definition_9() {
    assert_conforms("NaiveLookup", Conformance::Definition9, |g| {
        Box::new(NaiveLookup::new(g))
    });
}

#[test]
fn corrected_gxx_conforms_to_definition_9() {
    assert_conforms("GxxAdapter::corrected", Conformance::Definition9, |g| {
        Box::new(GxxAdapter::corrected(g))
    });
}

#[test]
fn faithful_gxx_diverges_exactly_where_flagged() {
    assert_conforms("GxxAdapter::faithful", Conformance::GxxFaithful, |g| {
        Box::new(GxxAdapter::faithful(g))
    });
}

#[test]
fn topo_shortcut_conforms_on_unambiguous_queries() {
    assert_conforms("TopoShortcut", Conformance::NonAmbiguousOnly, |g| {
        Box::new(TopoShortcut::new(g))
    });
}
