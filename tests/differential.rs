//! Differential testing: every lookup implementation in the workspace
//! must agree with the executable Rossie–Friedman specification
//! (`cpplookup-subobject`) on randomly generated hierarchies.
//!
//! This is the load-bearing correctness evidence for the paper's
//! algorithm: hundreds of ambiguity-rich hierarchies, every class, every
//! member name, five implementations.

use cpplookup::baselines::adapters::{GxxAdapter, NaiveLookup, TopoShortcut};
use cpplookup::baselines::gxx::{gxx_lookup_corrected, GxxResult};
use cpplookup::baselines::naive::{propagate, PropagationConfig};
use cpplookup::baselines::toposort::toposort_lookup;
use cpplookup::hiergen::{edit_script, random_hierarchy, EditScriptConfig, RandomConfig};
use cpplookup::lookup::LazyLookup;
use cpplookup::subobject::{lookup, lookup_cpp, Resolution, Subobject};
use cpplookup::{
    apply_edits, Chg, IndexedEngine, LeastVirtual, LookupOptions, LookupOutcome, LookupTable,
    MemberLookup, ServeHandle, StaticRule, SubobjectGraph,
};

const LIMIT: usize = 200_000;

/// Canonical comparable verdict.
#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    NotFound,
    Resolved { class_name: String },
    Ambiguous,
}

fn verdict_of_outcome(chg: &Chg, o: &LookupOutcome) -> Verdict {
    match o {
        LookupOutcome::NotFound => Verdict::NotFound,
        LookupOutcome::Resolved { class, .. } => Verdict::Resolved {
            class_name: chg.class_name(*class).to_owned(),
        },
        LookupOutcome::Ambiguous { .. } => Verdict::Ambiguous,
    }
}

fn verdict_of_resolution(chg: &Chg, sg: &SubobjectGraph, r: &Resolution) -> Verdict {
    match r {
        Resolution::NotFound => Verdict::NotFound,
        Resolution::Subobject(_) | Resolution::SharedStatic(_) => Verdict::Resolved {
            class_name: chg
                .class_name(r.resolved_class(sg).expect("resolved"))
                .to_owned(),
        },
        Resolution::Ambiguous(_) => Verdict::Ambiguous,
    }
}

#[test]
fn algorithm_matches_oracle_on_stress_hierarchies() {
    for seed in 0..400 {
        let chg = random_hierarchy(&RandomConfig::stress(seed));
        let table_cpp = LookupTable::build(&chg);
        let table_def9 = LookupTable::build_with(
            &chg,
            LookupOptions {
                statics: StaticRule::Ignore,
            },
        );
        for c in chg.classes() {
            let sg = SubobjectGraph::build(&chg, c, LIMIT).expect("stress graphs are small");
            for m in chg.member_ids() {
                // Full C++ semantics (Definition 17).
                let ours = verdict_of_outcome(&chg, &table_cpp.lookup(c, m));
                let oracle = verdict_of_resolution(&chg, &sg, &lookup_cpp(&chg, &sg, m));
                assert_eq!(
                    ours,
                    oracle,
                    "Def17 mismatch seed={seed} class={} member={}",
                    chg.class_name(c),
                    chg.member_name(m)
                );
                // Pure Definition 9 semantics.
                let ours9 = verdict_of_outcome(&chg, &table_def9.lookup(c, m));
                let oracle9 = verdict_of_resolution(&chg, &sg, &lookup(&chg, &sg, m));
                assert_eq!(
                    ours9,
                    oracle9,
                    "Def9 mismatch seed={seed} class={} member={}",
                    chg.class_name(c),
                    chg.member_name(m)
                );
            }
        }
    }
}

#[test]
fn algorithm_matches_oracle_on_realistic_hierarchies() {
    for seed in 0..10 {
        let chg = random_hierarchy(&RandomConfig::realistic(80, seed));
        let table = LookupTable::build(&chg);
        for c in chg.classes() {
            let sg = match SubobjectGraph::build(&chg, c, LIMIT) {
                Ok(sg) => sg,
                Err(_) => continue, // oracle too expensive; skip this class
            };
            for m in chg.member_ids() {
                let ours = verdict_of_outcome(&chg, &table.lookup(c, m));
                let oracle = verdict_of_resolution(&chg, &sg, &lookup_cpp(&chg, &sg, m));
                assert_eq!(ours, oracle, "seed={seed} class={}", chg.class_name(c));
            }
        }
    }
}

#[test]
fn lazy_and_parallel_match_eager() {
    for seed in 0..100 {
        let chg = random_hierarchy(&RandomConfig::stress(seed));
        let eager = LookupTable::build(&chg);
        let parallel = LookupTable::build_parallel(&chg, LookupOptions::default(), 4);
        let mut lazy = LazyLookup::new(&chg);
        for c in chg.classes() {
            for m in chg.member_ids() {
                assert_eq!(
                    parallel.entry(c, m),
                    eager.entry(c, m),
                    "parallel mismatch seed={seed}"
                );
                assert_eq!(
                    lazy.entry(c, m),
                    eager.entry(c, m),
                    "lazy mismatch seed={seed}"
                );
            }
        }
        assert_eq!(parallel.stats(), eager.stats());
    }
}

#[test]
fn corrected_gxx_matches_def9_table() {
    for seed in 0..100 {
        let chg = random_hierarchy(&RandomConfig::stress(seed));
        let table = LookupTable::build_with(
            &chg,
            LookupOptions {
                statics: StaticRule::Ignore,
            },
        );
        for c in chg.classes() {
            let sg = SubobjectGraph::build(&chg, c, LIMIT).expect("small");
            for m in chg.member_ids() {
                let ours = verdict_of_outcome(&chg, &table.lookup(c, m));
                let gxx = match gxx_lookup_corrected(&chg, &sg, m) {
                    GxxResult::NotFound => Verdict::NotFound,
                    GxxResult::Resolved(id) => Verdict::Resolved {
                        class_name: chg.class_name(sg.subobject(id).class()).to_owned(),
                    },
                    GxxResult::Ambiguous => Verdict::Ambiguous,
                };
                assert_eq!(ours, gxx, "gxx mismatch seed={seed}");
            }
        }
    }
}

#[test]
fn naive_propagation_matches_def9_table() {
    for seed in 0..60 {
        let chg = random_hierarchy(&RandomConfig::stress(seed));
        let table = LookupTable::build_with(
            &chg,
            LookupOptions {
                statics: StaticRule::Ignore,
            },
        );
        for m in chg.member_ids() {
            for kill in [true, false] {
                let prop = propagate(
                    &chg,
                    m,
                    PropagationConfig {
                        kill,
                        budget: 1_000_000,
                    },
                )
                .expect("small graphs");
                for c in chg.classes() {
                    let ours = table.lookup(c, m);
                    match prop.node(c) {
                        None => {
                            assert_eq!(ours, LookupOutcome::NotFound, "seed={seed} kill={kill}")
                        }
                        Some(node) => match (&node.most_dominant, &ours) {
                            (
                                Some(p),
                                LookupOutcome::Resolved {
                                    class,
                                    least_virtual,
                                },
                            ) => {
                                assert_eq!(p.ldc(), *class, "seed={seed} kill={kill}");
                                assert_eq!(
                                    LeastVirtual::of_path(&chg, p),
                                    *least_virtual,
                                    "lv mismatch seed={seed}"
                                );
                            }
                            (None, LookupOutcome::Ambiguous { .. }) => {}
                            (p, o) => panic!(
                                "naive/table mismatch seed={seed} kill={kill} \
                                 class={} member={}: {p:?} vs {o:?}",
                                chg.class_name(c),
                                chg.member_name(m)
                            ),
                        },
                    }
                }
            }
        }
    }
}

#[test]
fn toposort_shortcut_correct_on_unambiguous_lookups() {
    let mut checked = 0usize;
    for seed in 0..100 {
        let chg = random_hierarchy(&RandomConfig::stress(seed));
        let table = LookupTable::build_with(
            &chg,
            LookupOptions {
                statics: StaticRule::Ignore,
            },
        );
        for c in chg.classes() {
            for m in chg.member_ids() {
                if let LookupOutcome::Resolved { class, .. } = table.lookup(c, m) {
                    assert_eq!(toposort_lookup(&chg, c, m), Some(class));
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 1000, "need real coverage, got {checked}");
}

#[test]
fn path_recovery_returns_winning_equivalence_class() {
    for seed in 0..100 {
        let chg = random_hierarchy(&RandomConfig::stress(seed));
        let table = LookupTable::build(&chg);
        for c in chg.classes() {
            let sg = SubobjectGraph::build(&chg, c, LIMIT).expect("small");
            for m in chg.member_ids() {
                if let LookupOutcome::Resolved {
                    class,
                    least_virtual,
                } = table.lookup(c, m)
                {
                    let path = table
                        .resolve_path(&chg, c, m)
                        .expect("resolved lookups recover a path");
                    assert_eq!(path.ldc(), class);
                    assert_eq!(path.mdc(), c);
                    assert_eq!(LeastVirtual::of_path(&chg, &path), least_virtual);
                    // The path's subobject must be a maximal definition in
                    // the oracle (the winner, or one of the shared-static
                    // winners).
                    let so = Subobject::from_path(&chg, &path);
                    let id = sg.id_of(&so).expect("path identifies a subobject of c");
                    match lookup_cpp(&chg, &sg, m) {
                        Resolution::Subobject(w) => assert_eq!(id, w, "seed={seed}"),
                        Resolution::SharedStatic(ws) => {
                            assert!(ws.contains(&id), "seed={seed}")
                        }
                        other => panic!("oracle disagrees: {other:?} (seed={seed})"),
                    }
                }
            }
        }
    }
}

/// The shared-static abstraction sets carried by red entries must match
/// the oracle's maximal definition sets exactly (not just the class).
#[test]
fn shared_static_sets_match_oracle_maximal_sets() {
    use cpplookup::lookup::Entry;
    use cpplookup::subobject::maximal;
    use std::collections::BTreeSet;

    let mut exercised = 0usize;
    for seed in 0..200 {
        let chg = random_hierarchy(&RandomConfig::stress(seed));
        let table = LookupTable::build(&chg);
        for c in chg.classes() {
            let sg = SubobjectGraph::build(&chg, c, LIMIT).expect("small");
            for m in chg.member_ids() {
                let Some(Entry::Red { abs, shared, .. }) = table.entry(c, m) else {
                    continue;
                };
                if shared.is_empty() {
                    continue;
                }
                exercised += 1;
                // Oracle maximal set, abstracted the same way: Ω for
                // non-virtually anchored subobjects, the anchor class
                // otherwise.
                let defs = cpplookup::subobject::defns(&chg, &sg, m);
                let max = maximal(&sg, &defs);
                let oracle_lvs: BTreeSet<LeastVirtual> = max
                    .iter()
                    .map(|&id| {
                        let so = sg.subobject(id);
                        if so.is_virtually_anchored() {
                            LeastVirtual::Class(so.anchor())
                        } else {
                            LeastVirtual::Omega
                        }
                    })
                    .collect();
                let our_lvs: BTreeSet<LeastVirtual> = std::iter::once(abs.lv)
                    .chain(shared.iter().copied())
                    .collect();
                assert_eq!(
                    our_lvs,
                    oracle_lvs,
                    "shared-static abstraction mismatch seed={seed} class={} member={}",
                    chg.class_name(c),
                    chg.member_name(m)
                );
                // All maximal definitions share the declaring class.
                for &id in &max {
                    assert_eq!(sg.subobject(id).class(), abs.ldc);
                }
            }
        }
    }
    assert!(
        exercised > 20,
        "need real shared-static coverage, got {exercised}"
    );
}

/// Dispatch maps, CHA, and slicing agree with the table they are built
/// from, across random hierarchies.
#[test]
fn applications_consistent_with_table() {
    use cpplookup::lookup::cha::call_targets;
    use cpplookup::lookup::dispatch::{build_dispatch_map, DispatchTarget};
    use cpplookup::lookup::slice::slice_hierarchy;

    for seed in 0..60 {
        let chg = random_hierarchy(&RandomConfig::stress(seed));
        let table = LookupTable::build(&chg);
        let dispatch = build_dispatch_map(&chg, &table);
        for c in chg.classes() {
            for m in chg.member_ids() {
                // Dispatch rows match the table verdicts for callable
                // winners.
                if let Some(DispatchTarget::Bound {
                    declaring_class, ..
                }) = dispatch.target(c, m)
                {
                    assert_eq!(table.lookup(c, m).resolved_class(), Some(*declaring_class));
                }
                // CHA target sets contain the static type's own winner.
                if let LookupOutcome::Resolved { class, .. } = table.lookup(c, m) {
                    let targets = call_targets(&chg, &table, c, m);
                    assert!(targets.targets.contains(&class), "seed={seed}");
                }
            }
            // Slicing every class against the full member set preserves
            // its whole row.
            let members: Vec<_> = chg.member_ids().collect();
            let slice = slice_hierarchy(&chg, &[c], &members).expect("slicing succeeds");
            let sliced_table = LookupTable::build(&slice.chg);
            for &m in &members {
                let before = table.lookup(c, m);
                let after = sliced_table.lookup(
                    slice.class(c).expect("root retained"),
                    slice.member(m).expect("queried member mapped"),
                );
                match (&before, &after) {
                    (LookupOutcome::NotFound, LookupOutcome::NotFound) => {}
                    (LookupOutcome::Ambiguous { .. }, LookupOutcome::Ambiguous { .. }) => {}
                    (
                        LookupOutcome::Resolved { class: a, .. },
                        LookupOutcome::Resolved { class: b, .. },
                    ) => assert_eq!(chg.class_name(*a), slice.chg.class_name(*b)),
                    other => panic!("slice verdict changed: {other:?} (seed={seed})"),
                }
            }
        }
    }
}

/// Every `MemberLookup` implementation in the workspace — tables, lazy
/// cache, the engine, and the baseline adapters — driven
/// through the one trait, against the eager table. The toposort
/// shortcut is checked only where it is sound (resolved lookups).
#[test]
fn member_lookup_trait_unifies_all_strategies() {
    for seed in 0..40 {
        let chg = random_hierarchy(&RandomConfig::stress(seed));
        let reference = LookupTable::build_with(
            &chg,
            LookupOptions {
                statics: StaticRule::Ignore,
            },
        );
        let options = LookupOptions {
            statics: StaticRule::Ignore,
        };
        let mut full_fidelity: Vec<(&str, Box<dyn MemberLookup>)> = vec![
            ("table", Box::new(LookupTable::build_with(&chg, options))),
            (
                "parallel-table",
                Box::new(LookupTable::build_parallel(&chg, options, 4)),
            ),
            (
                "engine",
                Box::new(
                    IndexedEngine::new(chg.clone(), options)
                        .handle()
                        .load()
                        .index()
                        .clone(),
                ),
            ),
        ];
        let mut lazy = LazyLookup::with_options(&chg, options);
        let mut naive = NaiveLookup::new(&chg);
        let mut gxx = GxxAdapter::corrected(&chg);
        let mut shortcut = TopoShortcut::new(&chg);
        for c in chg.classes() {
            for m in chg.member_ids() {
                let expected = reference.lookup(c, m);
                let want = verdict_of_outcome(&chg, &expected);
                for (name, strategy) in full_fidelity.iter_mut() {
                    assert_eq!(
                        verdict_of_outcome(&chg, &strategy.lookup(c, m)),
                        want,
                        "{name} seed={seed} ({}, {})",
                        chg.class_name(c),
                        chg.member_name(m)
                    );
                }
                assert_eq!(
                    verdict_of_outcome(&chg, &MemberLookup::lookup(&mut lazy, c, m)),
                    want,
                    "lazy seed={seed}"
                );
                // Baselines: verdict kind must match (they do not model
                // shared statics, which StaticRule::Ignore turns off).
                assert_eq!(
                    verdict_of_outcome(&chg, &naive.lookup(c, m)),
                    want,
                    "naive adapter seed={seed}"
                );
                assert_eq!(
                    verdict_of_outcome(&chg, &gxx.lookup(c, m)),
                    want,
                    "gxx adapter seed={seed}"
                );
                if let LookupOutcome::Resolved { class, .. } = &expected {
                    assert_eq!(
                        shortcut.lookup(c, m).resolved_class(),
                        Some(*class),
                        "toposort adapter seed={seed}"
                    );
                }
            }
        }
    }
}

/// Replaying a random edit script, the incremental engine must stay
/// equivalent to a from-scratch table AND to the subobject oracle at
/// every step — the three-way equivalence of the engine's contract. Two
/// `IndexedEngine`s run the script: one that built and published its
/// own table, and one over a handle that already serves the base table
/// (a farm tenant's shape); both published indexes are held to the two
/// references after every edit, and replayed as one `apply_run` the
/// script must land on the same final index and epoch.
#[test]
fn engine_edit_sequences_match_rebuild_and_oracle() {
    let over_base = |base: &Chg| {
        let handle = ServeHandle::serving(LookupTable::build(base));
        handle.republish();
        IndexedEngine::with_handle(base.clone(), LookupOptions::default(), handle)
    };
    for seed in 0..12 {
        let (base, edits) = edit_script(&EditScriptConfig::stress(25, seed));
        let mut engine = IndexedEngine::new(base.clone(), LookupOptions::default());
        let mut indexed = over_base(&base);
        let mut current = base.clone();
        for (step, edit) in edits.iter().enumerate() {
            let edit = std::slice::from_ref(edit);
            current = apply_edits(&current, edit).expect("generated edits apply");
            engine.apply(edit).expect("generated edits apply");
            indexed.apply(edit).expect("generated edits apply");
            let published = indexed.handle().load();
            let index = published.index();
            assert_eq!(index.class_count(), current.class_count());
            assert_eq!(index.member_name_count(), current.member_name_count());
            let own = engine.handle().load();
            let rebuilt = LookupTable::build(&current);
            assert_eq!(
                own.index().entry_count(),
                rebuilt.stats().entries,
                "engine table size seed={seed} step={step}"
            );
            for c in current.classes() {
                let sg = SubobjectGraph::build(&current, c, LIMIT).expect("small");
                for m in current.member_ids() {
                    let oracle =
                        verdict_of_resolution(&current, &sg, &lookup_cpp(&current, &sg, m));
                    let at = |who: &str| {
                        format!(
                            "{who} seed={seed} step={step} ({}, {})",
                            current.class_name(c),
                            current.member_name(m)
                        )
                    };
                    let incremental = own.index().entry(c, m);
                    assert_eq!(
                        incremental.as_ref(),
                        rebuilt.entry(c, m),
                        "{}",
                        at("engine")
                    );
                    let ours = verdict_of_outcome(
                        &current,
                        &LookupOutcome::from_entry(incremental.as_ref()),
                    );
                    assert_eq!(ours, oracle, "{}", at("engine"));
                    assert_eq!(
                        index.entry(c, m).as_ref(),
                        rebuilt.entry(c, m),
                        "{}",
                        at("index")
                    );
                    let served = verdict_of_outcome(&current, &index.lookup_ref(c, m).to_outcome());
                    assert_eq!(served, oracle, "{}", at("index"));
                }
            }
        }
        assert_eq!(engine.chg().generation(), edits.len() as u64);
        assert_eq!(indexed.chg().generation(), edits.len() as u64);

        let mut run = over_base(&base);
        let epoch = run.apply_run(&edits).expect("generated edits apply");
        let (one_by_one, at_once) = (indexed.handle().load(), run.handle().load());
        assert_eq!(epoch, one_by_one.epoch(), "seed={seed}");
        assert_eq!(at_once.epoch(), one_by_one.epoch(), "seed={seed}");
        let (a, b) = (one_by_one.index(), at_once.index());
        assert_eq!(a.entry_count(), b.entry_count(), "seed={seed}");
        for c in current.classes() {
            for m in current.member_ids() {
                assert_eq!(a.entry(c, m), b.entry(c, m), "run seed={seed}");
            }
        }
    }
}

/// Structured families (not just random soups) against the oracle.
#[test]
fn structured_families_match_oracle() {
    use cpplookup::hiergen::families;
    use cpplookup::Inheritance;

    let cases: Vec<Chg> = vec![
        families::chain(40, Some(5)),
        families::stacked_diamonds(6, Inheritance::NonVirtual),
        families::stacked_diamonds(6, Inheritance::Virtual),
        families::stacked_diamonds_overridden(6, Inheritance::NonVirtual),
        families::wide_diamond(7, Inheritance::NonVirtual),
        families::wide_diamond(7, Inheritance::Virtual),
        families::grid(4, 4),
        families::pyramid(6, Inheritance::NonVirtual),
        families::pyramid(6, Inheritance::Virtual),
        families::interface_heavy(10, 3),
        families::gxx_trap(4),
    ];
    for chg in cases {
        let table = LookupTable::build(&chg);
        for c in chg.classes() {
            let sg = SubobjectGraph::build(&chg, c, LIMIT).expect("bounded families");
            for m in chg.member_ids() {
                let ours = verdict_of_outcome(&chg, &table.lookup(c, m));
                let oracle = verdict_of_resolution(&chg, &sg, &lookup_cpp(&chg, &sg, m));
                assert_eq!(
                    ours,
                    oracle,
                    "family mismatch at ({}, {})",
                    chg.class_name(c),
                    chg.member_name(m)
                );
            }
        }
    }
}
