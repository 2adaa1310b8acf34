//! Serving-path conformance: the flat [`DispatchIndex`] must agree with
//! every other backend, and its epoch-published versions must never be
//! observed torn.
//!
//! 1. **Differential** — on all 12 corpus families × both static rules,
//!    `DispatchIndex` (built from the table, from a snapshot, and from
//!    the engine's memo) answers every `(class, member)` query exactly
//!    like `LookupTable` and `SnapshotTable`, entry for entry.
//! 2. **Concurrent publish/read** — reader threads serving from
//!    [`ServeHandle`] clones while the writer applies edit batches only
//!    ever observe an index that is internally consistent with *some*
//!    published epoch, and epochs only move forward.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use cpplookup::apply_edits;
use cpplookup::hiergen::families;
use cpplookup::hiergen::{random_hierarchy, RandomConfig};
use cpplookup::prelude::*;

struct Case {
    name: &'static str,
    build: fn() -> Chg,
}

/// The same 12 families as `tests/corpus.rs` — one per generator, fully
/// deterministic.
const CASES: &[Case] = &[
    Case {
        name: "chain_12",
        build: || families::chain(12, None),
    },
    Case {
        name: "chain_12_virtual_3",
        build: || families::chain(12, Some(3)),
    },
    Case {
        name: "stacked_diamonds_3_nonvirtual",
        build: || families::stacked_diamonds(3, Inheritance::NonVirtual),
    },
    Case {
        name: "stacked_diamonds_3_virtual",
        build: || families::stacked_diamonds(3, Inheritance::Virtual),
    },
    Case {
        name: "stacked_diamonds_overridden_3",
        build: || families::stacked_diamonds_overridden(3, Inheritance::Virtual),
    },
    Case {
        name: "wide_diamond_6",
        build: || families::wide_diamond(6, Inheritance::Virtual),
    },
    Case {
        name: "pyramid_4",
        build: || families::pyramid(4, Inheritance::NonVirtual),
    },
    Case {
        name: "interface_heavy_6x3",
        build: || families::interface_heavy(6, 3),
    },
    Case {
        name: "grid_3x3",
        build: || families::grid(3, 3),
    },
    Case {
        name: "gxx_trap_3",
        build: || families::gxx_trap(3),
    },
    Case {
        name: "random_stress_42",
        build: || random_hierarchy(&RandomConfig::stress(42)),
    },
    Case {
        name: "random_realistic_20_7",
        build: || random_hierarchy(&RandomConfig::realistic(20, 7)),
    },
];

/// DispatchIndex == LookupTable == SnapshotTable on every corpus family
/// and under both static rules, through all three construction paths.
#[test]
fn dispatch_index_matches_table_and_snapshot_on_corpus() {
    for case in CASES {
        let g = (case.build)();
        for statics in [StaticRule::Cpp, StaticRule::Ignore] {
            let options = LookupOptions { statics };
            let table = LookupTable::build_with(&g, options);
            let snap = SnapshotTable::from_bytes(Snapshot::compile_with(&g, options).into_bytes())
                .expect("fresh snapshot loads");
            let from_table = DispatchIndex::from_table(LookupTable::build_with(&g, options));
            let from_snapshot = snap.dispatch_index();
            let engine = LookupEngine::with_options(g.clone(), options);
            let from_engine = DispatchIndex::from_backend(&engine);
            assert_eq!(
                from_table.entry_count(),
                snap.entry_count(),
                "{}",
                case.name
            );
            assert_eq!(
                from_snapshot.entry_count(),
                snap.entry_count(),
                "{}",
                case.name
            );
            assert_eq!(
                from_engine.entry_count(),
                snap.entry_count(),
                "{}",
                case.name
            );
            for c in g.classes() {
                for m in g.member_ids() {
                    let expected = table.lookup(c, m);
                    let context = || {
                        format!(
                            "{} [{:?}] lookup({}, {})",
                            case.name,
                            statics,
                            g.class_name(c),
                            g.member_name(m)
                        )
                    };
                    assert_eq!(snap.lookup(c, m), expected, "{}", context());
                    for index in [&from_table, &from_snapshot, &from_engine] {
                        assert_eq!(
                            index.lookup_ref(c, m).to_outcome(),
                            expected,
                            "{}",
                            context()
                        );
                        assert_eq!(
                            index.entry(c, m),
                            table.entry(c, m).cloned(),
                            "{}",
                            context()
                        );
                    }
                }
            }
        }
    }
}

/// The index batch path answers exactly like singles on a mixed,
/// duplicate-heavy probe list.
#[test]
fn index_batch_matches_singles_on_corpus() {
    for case in CASES {
        let g = (case.build)();
        let index = DispatchIndex::from_table(LookupTable::build(&g));
        let mut probes: Vec<_> = g
            .classes()
            .flat_map(|c| g.member_ids().map(move |m| (c, m)))
            .collect();
        // Duplicate and interleave to exercise the dedupe/fan-out.
        let doubled: Vec<_> = probes.iter().rev().copied().collect();
        probes.extend(doubled);
        let batched = index.lookup_batch(&probes);
        for (i, &(c, m)) in probes.iter().enumerate() {
            assert_eq!(
                batched[i],
                index.lookup_ref(c, m).to_outcome(),
                "{} probe {}",
                case.name,
                i
            );
        }
    }
}

/// Builds the edit batch applied at each epoch: a fresh class wired
/// under an existing one, plus a member override that shifts dominance.
fn edit_batch(generation: usize, victim: cpplookup::ClassId) -> Vec<Edit> {
    vec![
        Edit::AddClass {
            name: format!("Fresh{generation}"),
        },
        Edit::AddMember {
            class: victim,
            name: "served".into(),
            decl: MemberDecl::public(MemberKind::Function),
        },
    ]
}

/// Readers serving from `ServeHandle` clones during republishes never
/// observe a torn index: every loaded version answers a full sweep
/// exactly like a from-scratch table for that version's generation, and
/// epochs are monotone per reader.
#[test]
fn concurrent_readers_never_observe_torn_or_regressing_indexes() {
    const EPOCHS: usize = 12;
    const READERS: usize = 4;

    let base = families::grid(3, 3);
    let victims: Vec<_> = base.classes().collect();

    // Precompute the expected outcome sweep for every epoch by
    // replaying the same edit script through `apply_edits`.
    let mut expected: Vec<Vec<LookupOutcome>> = Vec::with_capacity(EPOCHS + 1);
    let mut g = base.clone();
    let sweep = |g: &Chg| -> Vec<LookupOutcome> {
        let t = LookupTable::build(g);
        g.classes()
            .flat_map(|c| g.member_ids().map(move |m| (c, m)))
            .map(|(c, m)| t.lookup(c, m))
            .collect::<Vec<_>>()
    };
    expected.push(sweep(&g));
    for e in 0..EPOCHS {
        g = apply_edits(&g, &edit_batch(e, victims[e % victims.len()])).expect("edit applies");
        expected.push(sweep(&g));
    }
    let expected = Arc::new(expected);

    let mut serving = cpplookup::IndexedEngine::new(LookupEngine::new(base));
    let handle = serving.handle();
    let stop = Arc::new(AtomicBool::new(false));
    let observed_epochs = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        for _ in 0..READERS {
            let handle = handle.clone();
            let stop = Arc::clone(&stop);
            let expected = Arc::clone(&expected);
            let observed = Arc::clone(&observed_epochs);
            scope.spawn(move || {
                let mut last_epoch = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let version = handle.load();
                    let epoch = version.epoch();
                    assert!(
                        epoch >= last_epoch,
                        "epoch regressed: {epoch} after {last_epoch}"
                    );
                    last_epoch = epoch;
                    observed.fetch_max(epoch, Ordering::AcqRel);
                    let index = version.index();
                    let want = &expected[epoch as usize];
                    let mut i = 0;
                    for ci in 0..index.class_count() {
                        let c = cpplookup::ClassId::from_index(ci);
                        for mi in 0..index.member_name_count() {
                            let m = cpplookup::MemberId::from_index(mi);
                            // The sweep below indexes `expected` by the
                            // (class, member) grid of *this* epoch, which
                            // matches the index dimensions exactly.
                            assert_eq!(
                                index.lookup_ref(c, m).to_outcome(),
                                want[i],
                                "epoch {epoch} disagreed at ({ci}, {mi}) — torn index?"
                            );
                            i += 1;
                        }
                    }
                    assert_eq!(i, want.len(), "epoch {epoch} sweep dimensions drifted");
                }
            });
        }

        for e in 0..EPOCHS {
            let epoch = serving
                .apply(&edit_batch(e, victims[e % victims.len()]))
                .expect("edit applies");
            assert_eq!(epoch, e as u64 + 1);
        }
        // Let readers catch the final epoch before stopping.
        while observed_epochs.load(Ordering::Acquire) < EPOCHS as u64 {
            let _ = handle.load();
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Release);
    });

    assert_eq!(handle.epoch(), EPOCHS as u64);
    // And the final published index matches the final expected sweep.
    let last = handle.load();
    let final_sweep = &expected[EPOCHS];
    let mut i = 0;
    for ci in 0..last.index().class_count() {
        for mi in 0..last.index().member_name_count() {
            let got = last
                .index()
                .lookup_ref(
                    cpplookup::ClassId::from_index(ci),
                    cpplookup::MemberId::from_index(mi),
                )
                .to_outcome();
            assert_eq!(got, final_sweep[i]);
            i += 1;
        }
    }
}

/// `OutcomeRef` round-trips through `to_outcome` for all three verdict
/// shapes on a family with known ambiguity.
#[test]
fn outcome_ref_shapes_round_trip() {
    let g = families::wide_diamond(6, Inheritance::NonVirtual);
    let table = LookupTable::build(&g);
    let index = DispatchIndex::from_table(LookupTable::build(&g));
    let (mut resolved, mut ambiguous, mut missing) = (0usize, 0usize, 0usize);
    for c in g.classes() {
        for m in g.member_ids() {
            match index.lookup_ref(c, m) {
                OutcomeRef::Resolved { .. } => resolved += 1,
                OutcomeRef::Ambiguous { witnesses } => {
                    assert!(!witnesses.is_empty());
                    ambiguous += 1;
                }
                OutcomeRef::NotFound => missing += 1,
            }
            assert_eq!(index.lookup_ref(c, m).to_outcome(), table.lookup(c, m));
        }
    }
    assert!(
        resolved > 0 && ambiguous > 0,
        "family should exercise resolution and ambiguity ({resolved}/{ambiguous}/{missing})"
    );
    // NotFound shape: a member id beyond the index grid.
    let c = g.classes().next().unwrap();
    let beyond = cpplookup::MemberId::from_index(index.member_name_count() + 1);
    assert_eq!(index.lookup_ref(c, beyond), OutcomeRef::NotFound);
}
