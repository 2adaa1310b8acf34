//! Differential equivalence of the table builders.
//!
//! The batched single-sweep compiler (`LookupTable::build_with`) and
//! the two builders it replaced — the old per-member build (`build_per_member`) and the
//! class-major eager reference (`build_reference`), both kept in the
//! `retired` module of `cpplookup-baselines` — must produce *identical*
//! tables — same entries, same stats — on every generator family. On the
//! smaller hierarchies the verdicts are additionally re-derived from
//! the Rossie–Friedman subobject oracle (Definition 17), so all four
//! builders are pinned to the semantics, not merely to each other.
//!
//! The checked-in corpus snapshots guard the serialization side: the
//! batched compiler must reproduce every `tests/corpus/*.snap`
//! byte-for-byte without re-blessing.

use cpplookup::baselines::retired;
use cpplookup::chg::fixtures;
use cpplookup::hiergen::families;
use cpplookup::hiergen::{random_hierarchy, RandomConfig};
use cpplookup::prelude::*;
use cpplookup::subobject::{lookup_in_class, Resolution, SubobjectGraph};

/// Subobject-graph budget for the oracle pass.
const LIMIT: usize = 200_000;

/// One representative per generator family, sized for a fast test run.
fn family_zoo() -> Vec<(&'static str, Chg)> {
    vec![
        ("chain_60", families::chain(60, None)),
        ("chain_60_virtual_5", families::chain(60, Some(5))),
        (
            "stacked_diamonds_4_nonvirtual",
            families::stacked_diamonds(4, Inheritance::NonVirtual),
        ),
        (
            "stacked_diamonds_4_virtual",
            families::stacked_diamonds(4, Inheritance::Virtual),
        ),
        (
            "stacked_diamonds_overridden_4",
            families::stacked_diamonds_overridden(4, Inheritance::Virtual),
        ),
        (
            "wide_diamond_8",
            families::wide_diamond(8, Inheritance::Virtual),
        ),
        ("pyramid_5", families::pyramid(5, Inheritance::NonVirtual)),
        ("interface_heavy_20x3", families::interface_heavy(20, 3)),
        ("grid_6x5", families::grid(6, 5)),
        ("gxx_trap_4", families::gxx_trap(4)),
        (
            "random_stress_7",
            random_hierarchy(&RandomConfig::stress(7)),
        ),
        (
            "random_realistic_150_11",
            random_hierarchy(&RandomConfig::realistic(150, 11)),
        ),
    ]
}

/// Asserts two tables agree entry-for-entry (and on their stats).
fn assert_tables_equal(name: &str, label: &str, g: &Chg, a: &LookupTable, b: &LookupTable) {
    assert_eq!(a.stats(), b.stats(), "{name}: {label} stats diverge");
    for c in g.classes() {
        for m in g.member_ids() {
            assert_eq!(
                a.entry(c, m),
                b.entry(c, m),
                "{name}: {label} at ({}, {})",
                g.class_name(c),
                g.member_name(m)
            );
        }
    }
}

/// The paper's figures, the static-member fixtures and the empty
/// hierarchy: the batched build equals the reference entry for entry,
/// stats included.
#[test]
fn batched_matches_reference_on_fixtures() {
    let graphs = [
        fixtures::fig1(),
        fixtures::fig2(),
        fixtures::fig3(),
        fixtures::fig9(),
        fixtures::static_diamond(),
        fixtures::static_override_mix(),
        fixtures::dominance_diamond(),
        ChgBuilder::new().finish().unwrap(),
    ];
    for g in &graphs {
        let reference = retired::build_reference(g, LookupOptions::default());
        assert_tables_equal(
            "fixture",
            "batched vs reference",
            g,
            &LookupTable::build(g),
            &reference,
        );
    }
}

/// The static-member rule option reaches the batched merge: with
/// statics ignored, the static diamond builds as the reference does.
#[test]
fn batched_respects_static_rule_options() {
    let g = fixtures::static_diamond();
    let options = LookupOptions {
        statics: StaticRule::Ignore,
    };
    let reference = retired::build_reference(&g, options);
    let batched = LookupTable::build_with(&g, options);
    assert_tables_equal(
        "static_diamond",
        "batched vs reference",
        &g,
        &batched,
        &reference,
    );
}

/// Batched == old per-member build == reference, for both static-member
/// rules.
#[test]
fn batched_equals_reference_on_every_family() {
    for (name, g) in family_zoo() {
        for rule in [StaticRule::Cpp, StaticRule::Ignore] {
            let options = LookupOptions { statics: rule };
            let reference = retired::build_reference(&g, options);
            let batched = LookupTable::build_with(&g, options);
            assert_tables_equal(name, "batched vs reference", &g, &batched, &reference);
            let per_member = retired::build_per_member(&g, options);
            assert_tables_equal(
                name,
                "old per-member vs reference",
                &g,
                &per_member,
                &reference,
            );
        }
    }
}

/// On the small families, the batched verdicts are re-derived from the
/// subobject oracle — equivalence to the reference build alone could
/// hide a shared bug; equivalence to Definition 17 cannot.
#[test]
fn batched_agrees_with_subobject_oracle_on_small_families() {
    for (name, g) in family_zoo() {
        if g.class_count() > 40 {
            continue;
        }
        let table = LookupTable::build(&g);
        for c in g.classes() {
            let sg = SubobjectGraph::build(&g, c, LIMIT).expect("small families stay in budget");
            for m in g.member_ids() {
                let oracle = lookup_in_class(&g, c, m, LIMIT).expect("in budget");
                let got = table.lookup(c, m);
                let agree = match (&oracle, &got) {
                    (Resolution::NotFound, LookupOutcome::NotFound) => true,
                    (Resolution::Ambiguous(_), LookupOutcome::Ambiguous { .. }) => true,
                    (
                        Resolution::Subobject(_) | Resolution::SharedStatic(_),
                        LookupOutcome::Resolved { class, .. },
                    ) => oracle.resolved_class(&sg) == Some(*class),
                    _ => false,
                };
                assert!(
                    agree,
                    "{name} lookup({}, {}): batched says {:?}, oracle says {:?}",
                    g.class_name(c),
                    g.member_name(m),
                    got,
                    oracle
                );
            }
        }
    }
}

/// The batched compiler reproduces every checked-in corpus snapshot
/// byte-for-byte: loading a `.snap`, rebuilding its hierarchy, and
/// recompiling must round-trip to the original bytes with no
/// re-blessing.
#[test]
fn batched_reproduces_corpus_snapshots_byte_for_byte() {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus");
    let mut snaps = 0;
    for entry in std::fs::read_dir(&dir).expect("tests/corpus exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("snap") {
            continue;
        }
        snaps += 1;
        let checked_in = std::fs::read(&path).expect("read corpus snapshot");
        let loaded = SnapshotTable::load(&path).expect("corpus snapshot loads");
        let g = loaded.to_chg().expect("corpus hierarchy rebuilds");
        let recompiled = Snapshot::compile_with(&g, loaded.options());
        assert!(
            recompiled.as_bytes() == checked_in.as_slice(),
            "{}: batched compile produced different bytes ({} vs {})",
            path.display(),
            recompiled.len(),
            checked_in.len()
        );
    }
    assert!(snaps >= 12, "corpus unexpectedly small: {snaps} snapshots");
}
