//! The seed-fixed golden snapshot corpus.
//!
//! `tests/corpus/` holds ~a dozen generator-produced hierarchies
//! serialized as snapshots (`*.snap`) next to a textual rendering of
//! every query verdict (`*.golden`). The regression test re-verifies
//! three independent properties on every run:
//!
//! 1. **Byte determinism / format stability** — recompiling today's
//!    generator output is byte-identical to the checked-in snapshot, so
//!    any change to the binary format, the entry encodings, or the
//!    generators shows up as a diff here *before* it can silently
//!    invalidate deployed snapshots.
//! 2. **Golden verdicts** — the loaded snapshot answers every
//!    `(class, member)` query exactly as recorded.
//! 3. **Oracle agreement** — every verdict is re-derived from the
//!    Rossie–Friedman subobject oracle (`lookup_in_class`, Definition
//!    17), so the goldens cannot drift away from the semantics either.
//!
//! Intentional format or generator changes are blessed with:
//!
//! ```text
//! cargo test --test corpus bless_corpus -- --ignored
//! ```
//!
//! then reviewing the resulting `tests/corpus/` diff like any other
//! code change.

use std::fmt::Write as _;
use std::path::PathBuf;

use cpplookup::hiergen::families;
use cpplookup::hiergen::{random_hierarchy, RandomConfig};
use cpplookup::prelude::*;
use cpplookup::subobject::{lookup_in_class, Resolution};
use cpplookup::Access;

/// Subobject-graph budget for the oracle pass; corpus hierarchies are
/// chosen to stay well under it.
const LIMIT: usize = 200_000;

struct Case {
    name: &'static str,
    build: fn() -> Chg,
}

/// The corpus: one representative of each generator family, all fully
/// deterministic (fixed sizes, fixed seeds).
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

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus")
}

/// Renders every `(class, member)` verdict of a loaded snapshot as
/// stable text: one `class<TAB>member<TAB>verdict` line per pair, in
/// id order.
fn render_goldens(snap: &SnapshotTable) -> String {
    let mut out = String::new();
    for c in 0..snap.class_count() {
        let c = cpplookup::ClassId::from_index(c);
        for m in 0..snap.member_name_count() {
            let m = cpplookup::MemberId::from_index(m);
            let verdict = match snap.lookup(c, m) {
                LookupOutcome::NotFound => continue, // keep goldens dense
                LookupOutcome::Resolved { class, .. } => {
                    snap.class_name(class).expect("valid id").to_owned()
                }
                LookupOutcome::Ambiguous { .. } => "!ambiguous".to_owned(),
            };
            writeln!(
                out,
                "{}\t{}\t{}",
                snap.class_name(c).expect("valid id"),
                snap.member_name(m).expect("valid id"),
                verdict
            )
            .expect("writing to String");
        }
    }
    out
}

const BLESS_HINT: &str =
    "regenerate with: cargo test --test corpus bless_corpus -- --ignored (then review the diff)";

/// Regenerates every `.snap` and `.golden` in `tests/corpus/`. Run
/// explicitly (see module docs); never runs in a normal test pass.
#[test]
#[ignore = "regenerates the checked-in corpus; run with -- --ignored"]
fn bless_corpus() {
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir).expect("create tests/corpus");
    for case in CASES {
        let g = (case.build)();
        let snap = Snapshot::compile(&g);
        snap.write_to(dir.join(format!("{}.snap", case.name)))
            .expect("write snapshot");
        let loaded = SnapshotTable::from_bytes(snap.into_bytes()).expect("fresh snapshot loads");
        std::fs::write(
            dir.join(format!("{}.golden", case.name)),
            render_goldens(&loaded),
        )
        .expect("write golden");
        println!("blessed {}", case.name);
    }
}

#[test]
fn snapshots_are_byte_stable() {
    let dir = corpus_dir();
    for case in CASES {
        let path = dir.join(format!("{}.snap", case.name));
        let checked_in = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("{}: {e}; {BLESS_HINT}", path.display()));
        let recompiled = Snapshot::compile(&(case.build)());
        assert!(
            recompiled.as_bytes() == checked_in.as_slice(),
            "{}: recompiling produced different bytes ({} vs {}) — the snapshot format or \
             the generator changed; {BLESS_HINT}",
            case.name,
            recompiled.len(),
            checked_in.len()
        );
    }
}

#[test]
fn snapshots_match_goldens() {
    let dir = corpus_dir();
    for case in CASES {
        let snap = SnapshotTable::load(dir.join(format!("{}.snap", case.name)))
            .unwrap_or_else(|e| panic!("{}: {e}; {BLESS_HINT}", case.name));
        let golden_path = dir.join(format!("{}.golden", case.name));
        let golden = std::fs::read_to_string(&golden_path)
            .unwrap_or_else(|e| panic!("{}: {e}; {BLESS_HINT}", golden_path.display()));
        let rendered = render_goldens(&snap);
        assert!(
            rendered == golden,
            "{}: verdicts drifted from the golden file; {BLESS_HINT}\n--- golden\n{golden}\
             --- now\n{rendered}",
            case.name
        );
    }
}

/// Backward compatibility: `tests/fixtures/chain_12_v1.snap` is the
/// `chain_12` corpus snapshot as written by the version-1 writer
/// (preserved verbatim before the corpus was re-blessed to version 2,
/// which added the MPH section). It must keep loading — its index
/// builds the hash at load — and answer every query exactly as today's
/// recompile does.
#[test]
fn v1_snapshot_fixture_loads_and_builds_its_mph() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("chain_12_v1.snap");
    let old = SnapshotTable::load(&path)
        .unwrap_or_else(|e| panic!("{}: v1 snapshots must stay loadable: {e}", path.display()));
    let old_index = old.dispatch_index();
    let fresh =
        SnapshotTable::from_bytes(Snapshot::compile(&families::chain(12, None)).into_bytes())
            .expect("recompile loads");
    let fresh_index = fresh.dispatch_index();
    assert_eq!(old.class_count(), fresh.class_count());
    assert_eq!(old.entry_count(), fresh.entry_count());
    for c in 0..old.class_count() {
        let c = cpplookup::ClassId::from_index(c);
        for m in 0..old.member_name_count() + 2 {
            let m = cpplookup::MemberId::from_index(m);
            assert_eq!(old.lookup(c, m), fresh.lookup(c, m));
            assert_eq!(
                old_index.lookup_ref(c, m).to_outcome(),
                fresh_index.lookup_ref(c, m).to_outcome()
            );
        }
    }
}

/// Every format version in one place. `tests/fixtures/chain_12_v1.snap`
/// and `chain_12_v2.snap` are the `chain_12` corpus snapshot as the
/// version-1 and version-2 writers produced it, and
/// `stacked_diamonds_3_nonvirtual_v2.snap` and
/// `random_realistic_20_7_v2.snap` are those corpus snapshots as the
/// version-2 writer produced them, and `random_realistic_20_7_v3.snap`
/// is that corpus snapshot as the version-3 writer produced it, index
/// columns that kept each verdict twice, while the hash builder still
/// searched every displacement (all preserved verbatim before a
/// re-bless). Between them the legacy files hold blue entries, witness
/// sets and `leastVirtual` classes, so every branch of the legacy
/// entry decoders runs. Each legacy file and a version-4 compile of the
/// same hierarchy answer `lookup`, `entry`, `lookup_batch_into` and
/// `members_of` identically, and exactly as `LookupTable::build`, on
/// every pair plus a margin of dead ids.
#[test]
fn legacy_fixtures_and_v4_compile_answer_identically() {
    let families: [(&[(&str, u16)], Chg); 3] = [
        (
            &[("chain_12_v1.snap", 1), ("chain_12_v2.snap", 2)],
            families::chain(12, None),
        ),
        (
            &[("stacked_diamonds_3_nonvirtual_v2.snap", 2)],
            families::stacked_diamonds(3, Inheritance::NonVirtual),
        ),
        (
            &[
                ("random_realistic_20_7_v2.snap", 2),
                ("random_realistic_20_7_v3.snap", 3),
            ],
            random_hierarchy(&RandomConfig::realistic(20, 7)),
        ),
    ];
    let (mut blue, mut class_in_set, mut red_lv_class) = (0, 0, 0);
    for (files, g) in &families {
        let mut loaded: Vec<SnapshotTable> = files
            .iter()
            .map(|&(name, version)| {
                let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                    .join("tests")
                    .join("fixtures")
                    .join(name);
                let snap = SnapshotTable::load(&path)
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                assert_eq!(snap.version(), version, "{name}");
                for (_, _, e) in snap.entries() {
                    let set = match &e {
                        Entry::Blue(set) => {
                            blue += 1;
                            set
                        }
                        Entry::Red { abs, shared, .. } => {
                            red_lv_class += usize::from(matches!(abs.lv, LeastVirtual::Class(_)));
                            shared
                        }
                    };
                    class_in_set += set
                        .iter()
                        .filter(|lv| matches!(lv, LeastVirtual::Class(_)))
                        .count();
                }
                snap
            })
            .collect();
        loaded
            .push(SnapshotTable::from_bytes(Snapshot::compile(g).into_bytes()).expect("v4 loads"));
        assert_eq!(loaded.last().unwrap().version(), 4);
        expect_identical_answers(g, &loaded);
    }
    assert!(
        blue > 0 && class_in_set > 0 && red_lv_class > 0,
        "the legacy fixtures no longer cover the entry decoder: {blue} blue entries, \
         {class_in_set} classes in sets, {red_lv_class} red leastVirtual classes"
    );
}

/// Asserts every snapshot of `loaded` answers as `LookupTable::build`
/// of `g` on every pair plus three dead ids past each axis.
fn expect_identical_answers(g: &Chg, loaded: &[SnapshotTable]) {
    let table = LookupTable::build(g);
    for snap in loaded {
        assert_eq!(snap.class_count(), g.class_count());
        assert_eq!(snap.entry_count(), table.stats().entries);
    }
    let mut probes = Vec::new();
    for ci in 0..g.class_count() + 3 {
        let c = cpplookup::ClassId::from_index(ci);
        for mi in 0..g.member_name_count() + 3 {
            let m = cpplookup::MemberId::from_index(mi);
            probes.push((c, m));
            let (expected, entry) = if ci < g.class_count() {
                (table.lookup(c, m), table.entry(c, m).cloned())
            } else {
                (LookupOutcome::NotFound, None)
            };
            for snap in loaded {
                let v = snap.version();
                assert_eq!(snap.lookup(c, m), expected, "v{v} lookup({ci}, {mi})");
                assert_eq!(snap.entry(c, m), entry, "v{v} entry({ci}, {mi})");
            }
        }
        let expected: Vec<_> = if ci < g.class_count() {
            table.members_of(c).collect()
        } else {
            Vec::new()
        };
        for snap in loaded {
            let members: Vec<_> = snap.index().members_of(c).collect();
            assert_eq!(members, expected, "v{} members_of({ci})", snap.version());
        }
    }
    let expected: Vec<LookupOutcome> = probes
        .iter()
        .map(|&(c, m)| match c.index() < g.class_count() {
            true => table.lookup(c, m),
            false => LookupOutcome::NotFound,
        })
        .collect();
    let mut out = Vec::new();
    for snap in loaded {
        snap.index().lookup_batch_into(&probes, &mut out);
        let got: Vec<LookupOutcome> = out.iter().map(|o| o.to_outcome()).collect();
        assert_eq!(got, expected, "v{} lookup_batch_into", snap.version());
    }
}

/// Every corpus verdict re-derived from the Definition 17 subobject
/// oracle: the checked-in snapshots cannot drift from the semantics.
#[test]
fn snapshots_agree_with_subobject_oracle() {
    let dir = corpus_dir();
    for case in CASES {
        let snap = SnapshotTable::load(dir.join(format!("{}.snap", case.name)))
            .unwrap_or_else(|e| panic!("{}: {e}; {BLESS_HINT}", case.name));
        let g = snap.to_chg().expect("corpus snapshots rebuild");
        for c in g.classes() {
            for m in g.member_ids() {
                let oracle = lookup_in_class(&g, c, m, LIMIT)
                    .expect("corpus hierarchies stay under the subobject budget");
                let got = snap.lookup(c, m);
                let agree = match (&oracle, &got) {
                    (Resolution::NotFound, LookupOutcome::NotFound) => true,
                    (Resolution::Ambiguous(_), LookupOutcome::Ambiguous { .. }) => true,
                    (
                        Resolution::Subobject(_) | Resolution::SharedStatic(_),
                        LookupOutcome::Resolved { class, .. },
                    ) => {
                        let sg = cpplookup::SubobjectGraph::build(&g, c, LIMIT).expect("in budget");
                        oracle.resolved_class(&sg) == Some(*class)
                    }
                    _ => false,
                };
                assert!(
                    agree,
                    "{} lookup({}, {}): snapshot says {:?}, oracle says {:?}",
                    case.name,
                    g.class_name(c),
                    g.member_name(m),
                    got,
                    oracle
                );
            }
        }
    }
}

/// A fixed edit script for any hierarchy: a new class under the
/// topologically first and last classes, shadowing and fresh member
/// declarations, and a new base under the root — whose whole derived
/// closure turns dirty.
fn growth_script(g: &Chg) -> Vec<Edit> {
    let mut topo: Vec<ClassId> = g.classes().collect();
    topo.sort_by_key(|&c| g.topo_position(c));
    let (first, last, middle) = (topo[0], topo[topo.len() - 1], topo[topo.len() / 2]);
    let (w, v) = (
        ClassId::from_index(g.class_count()),
        ClassId::from_index(g.class_count() + 1),
    );
    let member = |class, name: &str| Edit::AddMember {
        class,
        name: name.to_owned(),
        decl: MemberDecl::public(MemberKind::Function),
    };
    let edge = |derived, base, inheritance| Edit::AddEdge {
        derived,
        base,
        inheritance,
        access: Access::Public,
    };
    let mut script = vec![
        Edit::AddClass { name: "W".into() },
        edge(w, last, Inheritance::NonVirtual),
        Edit::AddClass { name: "V".into() },
        member(v, "fresh"),
        edge(first, v, Inheritance::Virtual),
        member(middle, "fresh2"),
    ];
    if first != last {
        script.push(edge(w, first, Inheritance::Virtual));
    }
    if let Some(m) = g.member_ids().next() {
        script.push(member(w, g.member_name(m)));
        script.push(member(v, g.member_name(m)));
    }
    script
}

/// The warm engine a snapshot hands out is *complete*: attached to the
/// handle serving the snapshot's own index, it publishes every entry of
/// the snapshot, and edits — one at a time or as one batch — recompute
/// their dirty sets to exactly the table a from-scratch build of the
/// edited hierarchy holds.
#[test]
fn warm_engines_are_complete_and_edit_like_a_rebuild() {
    for case in CASES {
        let g = (case.build)();
        for statics in [StaticRule::Cpp, StaticRule::Ignore] {
            let lookup = LookupOptions { statics };
            let label = format!("{} {statics:?}", case.name);
            let snap = SnapshotTable::from_bytes(Snapshot::compile_with(&g, lookup).into_bytes())
                .expect("corpus snapshots validate");
            let attach = || {
                let warm = snap.warm_engine().expect("corpus hierarchies rebuild");
                assert_eq!(warm.options(), lookup, "{label}");
                IndexedEngine::attach(warm, ServeHandle::serving(&snap))
            };
            let mut one_by_one = attach();
            assert_eq!(
                one_by_one.handle().load().index().entry_count(),
                snap.entry_count(),
                "{label}: the published index is the snapshot's"
            );

            let script = growth_script(&g);
            let edited = cpplookup::apply_edits(&g, &script).expect("growth script applies");
            let rebuilt = LookupTable::build_with(&edited, lookup);
            for edit in &script {
                one_by_one.apply(std::slice::from_ref(edit)).unwrap();
            }
            let mut batched = attach();
            batched.apply(&script).unwrap();
            for engine in [&one_by_one, &batched] {
                let published = engine.handle().load();
                for c in edited.classes() {
                    for m in edited.member_ids() {
                        assert_eq!(
                            published.index().entry(c, m).as_ref(),
                            rebuilt.entry(c, m),
                            "{label}: ({}, {}) after the script",
                            edited.class_name(c),
                            edited.member_name(m)
                        );
                    }
                }
                assert_eq!(
                    published.index().entry_count(),
                    rebuilt.stats().entries,
                    "{label}: table size after the script"
                );
            }
        }
    }
}
