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
fn lazy_lookup_conforms() {
    assert_conforms("LazyLookup", Conformance::Full, |g| {
        Box::new(LazyLookup::new(g))
    });
}

/// The index the serving engine publishes, in both ways to back it:
/// built by the engine, or a table built beside it and published on a
/// handle the engine takes over (a snapshot-backed engine is
/// `warmed_engine_conforms`).
#[test]
fn engine_conforms_in_every_backing() {
    assert_conforms("IndexedEngine::new", Conformance::Full, |g| {
        let engine = IndexedEngine::new(g.clone(), LookupOptions::default());
        Box::new(engine.handle().load().index().clone())
    });
    assert_conforms("IndexedEngine::with_handle", Conformance::Full, |g| {
        let table = LookupTable::build(g);
        let handle = ServeHandle::serving(table);
        let engine = IndexedEngine::with_handle(g.clone(), LookupOptions::default(), handle);
        Box::new(engine.handle().load().index().clone())
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
    // hierarchy → attach the warmed engine to the handle serving the
    // file's index → answer from the published index.
    assert_conforms("SnapshotTable::warm_engine", Conformance::Full, |g| {
        let snap = SnapshotTable::from_bytes(Snapshot::compile(g).into_bytes())
            .expect("corpus snapshots validate");
        let warm = snap.warm_engine().expect("corpus hierarchies rebuild");
        let engine = IndexedEngine::attach(warm, ServeHandle::serving(&snap));
        Box::new(engine.handle().load().index().clone())
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
