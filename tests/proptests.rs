//! Property-based tests of the formalism's invariants, driven by random
//! hierarchies: the lemmas and the theorem of the paper, plus structural
//! invariants of our data structures.

use cpplookup::hiergen::{edit_script, random_hierarchy, EditScriptConfig, RandomConfig};
use cpplookup::subobject::isomorphism::{
    check_theorem1_all, enumerate_paths_to, equivalence_classes, path_dominates,
};
use cpplookup::subobject::{lookup, lookup_cpp, Resolution};
use cpplookup::{
    Chg, Edit, LeastVirtual, LookupEngine, LookupOptions, LookupOutcome, LookupTable, StaticRule,
    Subobject, SubobjectGraph,
};
use proptest::prelude::*;

/// A proptest strategy producing small, ambiguity-rich hierarchies.
fn small_chg() -> impl Strategy<Value = Chg> {
    (
        3usize..10,   // classes
        0.0f64..0.7,  // extra_base_prob
        0.0f64..0.6,  // virtual_prob
        1usize..3,    // member pool
        0.2f64..0.6,  // member_prob
        0.0f64..0.5,  // static_prob
        any::<u64>(), // seed
    )
        .prop_map(
            |(
                classes,
                extra_base_prob,
                virtual_prob,
                member_pool,
                member_prob,
                static_prob,
                seed,
            )| {
                random_hierarchy(&RandomConfig {
                    classes,
                    extra_base_prob,
                    max_bases: 3,
                    virtual_prob,
                    member_pool,
                    member_prob,
                    static_prob,
                    seed,
                })
            },
        )
}

/// A strategy producing a small clash-heavy base hierarchy plus an edit
/// script guaranteed to replay cleanly against it.
fn edit_scripts() -> impl Strategy<Value = (Chg, Vec<Edit>)> {
    (4usize..24, any::<u64>())
        .prop_map(|(edits, seed)| edit_script(&EditScriptConfig::stress(edits, seed)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Theorem 1: the ≈-class poset and the subobject poset are
    /// isomorphic, for every class of every generated hierarchy.
    #[test]
    fn theorem1_holds(chg in small_chg()) {
        check_theorem1_all(&chg, 100_000).unwrap();
    }

    /// Lemma 2: *dominates* is a partial order on subobjects.
    #[test]
    fn dominance_is_a_partial_order(chg in small_chg()) {
        for c in chg.classes() {
            let sg = SubobjectGraph::build(&chg, c, 100_000).unwrap();
            for x in sg.iter() {
                prop_assert!(sg.dominates(x, x), "reflexive");
                for y in sg.iter() {
                    if sg.dominates(x, y) && sg.dominates(y, x) {
                        prop_assert_eq!(x, y, "antisymmetric");
                    }
                    for z in sg.iter() {
                        if sg.dominates(x, y) && sg.dominates(y, z) {
                            prop_assert!(sg.dominates(x, z), "transitive");
                        }
                    }
                }
            }
        }
    }

    /// Lemma 3: path extension distributes over dominance —
    /// `γ·(X→Y)` dominates `δ·(X→Y)` iff `γ` dominates `δ`.
    #[test]
    fn lemma3_extension_distributes(chg in small_chg()) {
        for x in chg.classes() {
            let Ok(paths) = enumerate_paths_to(&chg, x, 2_000) else { continue };
            if paths.len() > 40 {
                continue; // keep the quadratic pair loop bounded
            }
            let classes = equivalence_classes(&chg, &paths);
            for &y in chg.direct_derived(x) {
                let extended: Vec<_> = paths.iter().map(|p| p.extended(&chg, y)).collect();
                let ext_classes = equivalence_classes(&chg, &extended);
                for gamma in &paths {
                    for delta in &paths {
                        let before = path_dominates(
                            gamma,
                            &classes[&Subobject::from_path(&chg, delta)],
                        );
                        let after = path_dominates(
                            &gamma.extended(&chg, y),
                            &ext_classes[&Subobject::from_path(&chg, &delta.extended(&chg, y))],
                        );
                        prop_assert_eq!(before, after, "Lemma 3 violated");
                    }
                }
            }
        }
    }

    /// Definition 15 really abstracts `leastVirtual`:
    /// `leastVirtual(β·e) = leastVirtual(β) ∘ e` for every extension.
    #[test]
    fn definition15_commutes(chg in small_chg()) {
        for x in chg.classes() {
            let Ok(paths) = enumerate_paths_to(&chg, x, 1_000) else { continue };
            for p in &paths {
                for &y in chg.direct_derived(x) {
                    let inh = chg.edge(x, y).unwrap();
                    let q = p.extended(&chg, y);
                    prop_assert_eq!(
                        LeastVirtual::of_path(&chg, &q),
                        LeastVirtual::of_path(&chg, p).extend(x, inh)
                    );
                }
            }
        }
    }

    /// `fixed` is a non-virtual prefix and is idempotent (Definition 2).
    #[test]
    fn fixed_prefix_properties(chg in small_chg()) {
        for x in chg.classes() {
            let Ok(paths) = enumerate_paths_to(&chg, x, 1_000) else { continue };
            for p in &paths {
                let f = p.fixed(&chg);
                prop_assert!(f.is_prefix_of(p));
                prop_assert!(!f.is_v_path(&chg));
                prop_assert_eq!(f.fixed(&chg), f.clone(), "idempotent");
                prop_assert_eq!(f.ldc(), p.ldc());
            }
        }
    }

    /// The algorithm agrees with the subobject oracle (Definition 9
    /// semantics) — the proptest-shrinkable version of the big
    /// differential test.
    #[test]
    fn algorithm_matches_oracle(chg in small_chg()) {
        let table = LookupTable::build_with(
            &chg,
            LookupOptions { statics: StaticRule::Ignore },
        );
        for c in chg.classes() {
            let sg = SubobjectGraph::build(&chg, c, 100_000).unwrap();
            for m in chg.member_ids() {
                let ours = table.lookup(c, m);
                let oracle = lookup(&chg, &sg, m);
                match (&ours, &oracle) {
                    (LookupOutcome::NotFound, Resolution::NotFound) => {}
                    (LookupOutcome::Ambiguous { .. }, Resolution::Ambiguous(_)) => {}
                    (
                        LookupOutcome::Resolved { class, .. },
                        Resolution::Subobject(u),
                    ) => {
                        prop_assert_eq!(*class, sg.subobject(*u).class());
                    }
                    other => {
                        return Err(TestCaseError::fail(format!(
                            "mismatch at ({}, {}): {other:?}",
                            chg.class_name(c),
                            chg.member_name(m)
                        )))
                    }
                }
            }
        }
    }

    /// Definition 12 (red definitions): every proper prefix of a
    /// recovered winning path is itself a winner at its own class.
    #[test]
    fn recovered_paths_are_red(chg in small_chg()) {
        let table = LookupTable::build_with(
            &chg,
            LookupOptions { statics: StaticRule::Ignore },
        );
        for c in chg.classes() {
            for m in chg.member_ids() {
                let Some(path) = table.resolve_path(&chg, c, m) else { continue };
                for prefix in path.proper_prefixes() {
                    let mid = prefix.mdc();
                    match table.lookup(mid, m) {
                        LookupOutcome::Resolved { class, .. } => {
                            prop_assert_eq!(class, prefix.ldc());
                        }
                        other => {
                            return Err(TestCaseError::fail(format!(
                                "prefix of a red path not red at {}: {other:?}",
                                chg.class_name(mid)
                            )))
                        }
                    }
                }
            }
        }
    }

    /// After any random edit sequence, the incremental engine, a
    /// from-scratch `LookupTable::build`, and the subobject oracle all
    /// agree on every `(class, member)` pair — the engine's three-way
    /// equivalence contract.
    #[test]
    fn engine_after_edit_script_matches_rebuild_and_oracle(
        (base, edits) in edit_scripts(),
    ) {
        let mut engine = LookupEngine::new(base.clone());
        let mut current = base;
        for edit in &edits {
            current = cpplookup::apply_edits(&current, std::slice::from_ref(edit)).unwrap();
            engine.apply(std::slice::from_ref(edit)).unwrap();
        }
        prop_assert_eq!(engine.generation(), edits.len() as u64);
        let rebuilt = LookupTable::build(&current);
        prop_assert_eq!(engine.stats().cached_entries, rebuilt.stats().entries as u64);
        for c in current.classes() {
            let sg = SubobjectGraph::build(&current, c, 100_000).unwrap();
            for m in current.member_ids() {
                let entry = engine.entry(c, m);
                prop_assert_eq!(
                    entry.as_ref(),
                    rebuilt.entry(c, m),
                    "engine diverged from rebuild at ({}, {})",
                    current.class_name(c),
                    current.member_name(m)
                );
                let oracle = lookup_cpp(&current, &sg, m);
                match (LookupOutcome::from_entry(entry.as_ref()), &oracle) {
                    (LookupOutcome::NotFound, Resolution::NotFound) => {}
                    (LookupOutcome::Ambiguous { .. }, Resolution::Ambiguous(_)) => {}
                    (LookupOutcome::Resolved { class, .. }, oracle) => {
                        prop_assert_eq!(
                            Some(class),
                            oracle.resolved_class(&sg),
                            "winner mismatch at ({}, {})",
                            current.class_name(c),
                            current.member_name(m)
                        );
                    }
                    other => {
                        return Err(TestCaseError::fail(format!(
                            "engine/oracle mismatch at ({}, {}): {other:?}",
                            current.class_name(c),
                            current.member_name(m)
                        )))
                    }
                }
            }
        }
    }

    /// Every subobject's canonical form is reachable in the subobject
    /// graph, and `id_of` inverts `subobject` (bijective interning).
    #[test]
    fn subobject_interning_roundtrips(chg in small_chg()) {
        for c in chg.classes() {
            let sg = SubobjectGraph::build(&chg, c, 100_000).unwrap();
            for id in sg.iter() {
                let so = sg.subobject(id).clone();
                prop_assert_eq!(sg.id_of(&so), Some(id));
                prop_assert!(so.complete() == c);
            }
        }
    }
}
