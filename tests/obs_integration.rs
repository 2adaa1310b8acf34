//! Cross-layer observability test: the serving engine's edit metric
//! must agree, to the pair, with what the incremental-invalidation
//! theory predicts for a scripted edit-then-lookup sequence.
//!
//! The published index is complete: every visible `(class, member)`
//! pair has its entry. An edit recomputes exactly its dirty closure —
//! `{b} ∪ derived_of(b)` crossed with the affected members — and every
//! dirty pair is visible after an AddMember or AddEdge, so three
//! independently obtained numbers must coincide:
//!
//! 1. the pairs recomputed, as the facade's
//!    `serve_index_refresh_dirty_pairs` histogram records them,
//! 2. the entries the published index holds for the closure's classes,
//!    and
//! 3. the closure size recomputed here from the public `Chg` API.
//!
//! After every edit the index also has exactly as many entries as a
//! from-scratch `LookupTable::build` of the edited hierarchy. The
//! facade is process-wide, so every test here that edits, builds or
//! queries holds `BUILD_LOCK` and reads the metrics by delta.

use cpplookup::hiergen::{random_hierarchy, RandomConfig};
use cpplookup::obs;
use cpplookup::prelude::*;
use cpplookup::Access;

/// The dirty closure of adding an edge below `derived`, computed from
/// the *post-edit* hierarchy with the public `Chg` API only: every
/// member visible at `derived` or at any class transitively derived
/// from it.
fn edge_closure_size(chg: &Chg, derived: ClassId) -> u64 {
    std::iter::once(derived)
        .chain(chg.derived_of(derived))
        .map(|d| {
            chg.member_ids()
                .filter(|&m| chg.is_member_visible(d, m))
                .count() as u64
        })
        .sum()
}

/// The refreshes recorded so far and the pairs they recomputed.
fn refreshes() -> (u64, u64) {
    obs::snapshot()
        .histogram("serve_index_refresh_dirty_pairs")
        .map_or((0, 0), |h| (h.count, h.sum))
}

/// Applies one edit and returns the pairs it recomputed, checking that
/// it was one refresh.
fn apply_counted(engine: &mut IndexedEngine, edit: Edit) -> u64 {
    let (count0, sum0) = refreshes();
    engine.apply(&[edit]).unwrap();
    let (count, sum) = refreshes();
    assert_eq!(count - count0, 1, "one refresh per edit");
    sum - sum0
}

/// The entries the published index holds for `classes`.
fn index_entries(engine: &IndexedEngine, classes: impl Iterator<Item = ClassId>) -> u64 {
    let published = engine.handle().load();
    classes
        .map(|c| published.index().members_of(c).count() as u64)
        .sum()
}

/// The published index holds exactly the entries of a rebuild.
fn assert_index_is_a_rebuild(engine: &IndexedEngine) {
    assert_eq!(
        engine.handle().load().index().entry_count(),
        LookupTable::build(engine.chg()).stats().entries
    );
}

fn add_member(class: ClassId, name: &str) -> Edit {
    Edit::AddMember {
        class,
        name: name.into(),
        decl: MemberDecl::public(MemberKind::Data),
    }
}

#[test]
fn cache_metrics_match_dirty_closure_across_edits() {
    let _serial = BUILD_LOCK.lock().unwrap();
    let chg = random_hierarchy(&RandomConfig::realistic(120, 42));
    let mut engine = IndexedEngine::new(chg, LookupOptions::default());
    assert_index_is_a_rebuild(&engine);

    // Script: declare a fresh member, then splice a new inheritance
    // edge between two previously unrelated classes.
    let k3 = engine.chg().class_by_name("K3").unwrap();
    let entries = engine.handle().load().index().entry_count() as u64;
    let member_recomputed = apply_counted(&mut engine, add_member(k3, "obs_probe"));
    let member_closure = 1 + engine.chg().derived_of(k3).count() as u64;
    // (1) metrics == (3) closure recomputed from the Chg API.
    assert_eq!(member_recomputed, member_closure);
    // (2) The index held no entries for a brand-new member name, so
    // the edit adds exactly its closure.
    let after = engine.handle().load().index().entry_count() as u64;
    assert_eq!(after, entries + member_closure);
    assert_index_is_a_rebuild(&engine);

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
    let edge_recomputed = apply_counted(
        &mut engine,
        Edit::AddEdge {
            derived,
            base,
            inheritance: Inheritance::NonVirtual,
            access: Access::Public,
        },
    );

    // (1) metrics == (3) closure recomputed from the Chg API...
    let closure = edge_closure_size(engine.chg(), derived);
    assert!(closure > 0, "workload edit must dirty something");
    assert_eq!(edge_recomputed, closure);
    // ...== (2) the entries the index now holds for the closure.
    let closure_classes = std::iter::once(derived).chain(engine.chg().derived_of(derived));
    assert_eq!(index_entries(&engine, closure_classes), closure);
    assert_index_is_a_rebuild(&engine);

    // A query sweep over the edited engine is answered from the
    // published index, and counted once per pair.
    let queries: Vec<(ClassId, MemberId)> = engine
        .chg()
        .classes()
        .flat_map(|c| engine.chg().member_ids().map(move |m| (c, m)))
        .collect();
    let served = || {
        obs::global()
            .counter_family("serve_queries_total", "", "backend")
            .with_label("index")
            .get()
    };
    let before = served();
    engine.handle().load().index().lookup_batch(&queries);
    assert_eq!(served() - before, queries.len() as u64);
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
    let mut engine = IndexedEngine::new(chg, LookupOptions::default());
    assert_index_is_a_rebuild(&engine);

    let k2 = engine.chg().class_by_name("K2").unwrap();
    let recomputed = apply_counted(&mut engine, add_member(k2, "probe"));
    // The engine recomputes the dirty set inside apply(): the member
    // edit's closure is what the refresh recomputed...
    assert_eq!(recomputed, 1 + engine.chg().derived_of(k2).count() as u64);
    // ...so the published index is complete again before any query.
    assert_index_is_a_rebuild(&engine);
}
