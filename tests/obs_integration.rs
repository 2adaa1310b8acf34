//! Cross-layer observability test: the engine's edit metrics must
//! agree, to the entry, with what the incremental-invalidation theory
//! predicts for a scripted edit-then-lookup sequence.
//!
//! The engine's table is complete: every visible `(class, member)` pair
//! has its entry. An edit recomputes exactly its dirty closure —
//! `{b} ∪ derived_of(b)` crossed with the affected members — and every
//! dirty pair is visible after an AddMember or AddEdge, so three
//! independently obtained numbers must coincide:
//!
//! 1. `entries_recomputed` as counted by the engine's metrics,
//! 2. the dirty-set size reported by the `EditApplied` trace event,
//!    and
//! 3. the closure size recomputed here from the public `Chg` API.
//!
//! After every edit the table also has exactly as many entries as a
//! from-scratch `LookupTable::build` of the edited hierarchy.

use std::sync::Arc;

use cpplookup::hiergen::{random_hierarchy, RandomConfig};
use cpplookup::obs;
use cpplookup::prelude::*;

/// The dirty closure of adding an edge below `derived`, computed from
/// the *post-edit* hierarchy with the public `Chg` API only: every
/// member visible at `derived` or at any class transitively derived
/// from it.
fn edge_closure_size(engine: &LookupEngine, derived: ClassId) -> u64 {
    let chg = engine.chg();
    std::iter::once(derived)
        .chain(chg.derived_of(derived))
        .map(|d| {
            chg.member_ids()
                .filter(|&m| chg.is_member_visible(d, m))
                .count() as u64
        })
        .sum()
}

/// The engine's table holds exactly the entries of a rebuild.
fn assert_table_is_a_rebuild(engine: &LookupEngine) {
    assert_eq!(
        engine.stats().cached_entries,
        LookupTable::build(engine.chg()).stats().entries as u64
    );
}

#[test]
fn cache_metrics_match_dirty_closure_across_edits() {
    let _serial = BUILD_LOCK.lock().unwrap();
    let chg = random_hierarchy(&RandomConfig::realistic(120, 42));
    let mut engine = LookupEngine::new(chg);
    // A full sweep emits several events per query; size the buffer so
    // none is dropped.
    let sink = Arc::new(obs::MemorySink::with_capacity(1 << 20));
    engine.set_event_sink(Some(sink.clone()));
    assert_table_is_a_rebuild(&engine);

    // Script: declare a fresh member, then splice a new inheritance
    // edge between two previously unrelated classes.
    let k3 = engine.chg().class_by_name("K3").unwrap();
    let before = engine.stats();
    engine.add_member(k3, "obs_probe").unwrap();
    let after = engine.stats();
    let member_recomputed = after.entries_recomputed - before.entries_recomputed;
    // The table held no entries for a brand-new member name, so the
    // edit replaces nothing even though it recomputes the whole derived
    // closure of K3, where the new member is now visible.
    assert_eq!(after.entries_invalidated, before.entries_invalidated);
    let member_closure = 1 + engine.chg().derived_of(k3).count() as u64;
    // (1) metrics == (3) closure recomputed from the Chg API.
    assert_eq!(member_recomputed, member_closure);
    assert_eq!(after.cached_entries, before.cached_entries + member_closure);
    assert_table_is_a_rebuild(&engine);

    // Now the edge edit. Pick the first pair of classes with no
    // inheritance relation in either direction (so the edit is legal)
    // where the derived side already sees some member (so the closure
    // is nonempty).
    let (derived, base) = {
        let chg = engine.chg();
        chg.classes()
            .flat_map(|d| chg.classes().map(move |b| (d, b)))
            .find(|&(d, b)| {
                d != b
                    && !chg.is_base_of(b, d)
                    && !chg.is_base_of(d, b)
                    && chg.member_ids().any(|m| chg.is_member_visible(d, m))
            })
            .expect("a realistic hierarchy has unrelated classes")
    };
    let before = engine.stats();
    engine
        .add_edge(derived, base, Inheritance::NonVirtual)
        .unwrap();
    let after = engine.stats();
    let edge_recomputed = after.entries_recomputed - before.entries_recomputed;

    // (1) metrics == (3) closure recomputed from the Chg API.
    let closure = edge_closure_size(&engine, derived);
    assert!(closure > 0, "workload edit must dirty something");
    assert_eq!(edge_recomputed, closure);
    assert_table_is_a_rebuild(&engine);

    // (2) the EditApplied trace events carry the same numbers.
    let edits: Vec<(usize, usize)> = sink
        .events()
        .iter()
        .filter_map(|e| match *e {
            obs::Event::EditApplied {
                dirty, recomputed, ..
            } => Some((dirty, recomputed)),
            _ => None,
        })
        .collect();
    assert_eq!(edits.len(), 2, "one event per scripted edit");
    assert_eq!(edits[0], (member_closure as usize, member_closure as usize));
    assert_eq!(edits[1], (closure as usize, closure as usize));

    // A query sweep over the edited engine is answered from the table:
    // one lookup, and one timed QueryEnd, per pair.
    let queries: Vec<(ClassId, MemberId)> = engine
        .chg()
        .classes()
        .flat_map(|c| engine.chg().member_ids().map(move |m| (c, m)))
        .collect();
    sink.take();
    engine.lookup_batch(&queries);
    let ends = sink
        .take()
        .iter()
        .filter(|e| matches!(e, obs::Event::QueryEnd { .. }))
        .count();
    assert_eq!(ends, queries.len());
    assert_eq!(engine.stats().lookups - after.lookups, queries.len() as u64);
}

/// The batched compiler's build metrics: on an interface-heavy family
/// (many members, each visible in a small slice of the hierarchy) the
/// member-frontier pruning must skip a nonzero — in fact dominant —
/// share of the `|N|·|M|` pair grid, and each build must land in the
/// `build_nodes_visited_total{strategy}` family and the `build_seconds`
/// histogram. Counters are process-global, so the test works in deltas.
/// Serializes the tests that build whole tables: the build counters are
/// process-global, and delta-based assertions must not see each other's
/// builds.
static BUILD_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn build_metrics_report_frontier_pruning() {
    let _serial = BUILD_LOCK.lock().unwrap();
    let registry = obs::global();
    let visited = |label: &str| {
        registry
            .counter_family("build_nodes_visited_total", "", "strategy")
            .with_label(label)
            .get()
    };
    let pruned = || registry.counter("build_members_pruned_total", "").get();
    let builds = || {
        registry
            .histogram("build_seconds", "", cpplookup::obs::Histogram::latency_ns())
            .snapshot()
            .count
    };

    let g = cpplookup::hiergen::families::interface_heavy(40, 3);
    let pairs = (g.class_count() * g.member_name_count()) as u64;
    let (visited0, pruned0, builds0) = (visited("batched"), pruned(), builds());
    let table = cpplookup::LookupTable::build(&g);
    let (dv, dp) = (visited("batched") - visited0, pruned() - pruned0);
    assert!(dp > 0, "interface-heavy families must prune");
    assert_eq!(
        dv + dp,
        pairs,
        "live pairs + pruned pairs must tile the |N|·|M| grid"
    );
    assert_eq!(dv, table.stats().entries as u64, "live pairs == entries");
    assert!(dp > dv, "interfaces are invisible to most classes");
    assert_eq!(builds() - builds0, 1, "one build_seconds observation");

    // The parallel strategy reports under its own label, same totals.
    let (par0, pruned1) = (visited("batched-parallel"), pruned());
    cpplookup::LookupTable::build_parallel(&g, Default::default(), 4);
    assert_eq!(visited("batched-parallel") - par0, dv);
    assert_eq!(pruned() - pruned1, dp);
}

#[test]
fn eager_engines_never_miss_after_edits() {
    let _serial = BUILD_LOCK.lock().unwrap();
    let chg = random_hierarchy(&RandomConfig::realistic(60, 7));
    let mut engine = LookupEngine::new(chg);
    assert_table_is_a_rebuild(&engine);

    let k2 = engine.chg().class_by_name("K2").unwrap();
    engine.add_member(k2, "probe").unwrap();
    let stats = engine.stats();
    // The engine recomputes the dirty set inside apply(): the member
    // edit's closure reappears as recomputed entries...
    assert_eq!(
        stats.entries_recomputed,
        1 + engine.chg().derived_of(k2).count() as u64
    );
    // ...so the table is complete again before any query.
    assert_table_is_a_rebuild(&engine);
}
