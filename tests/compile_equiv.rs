//! Differential equivalence of the one-pass compile.
//!
//! `DispatchIndex::compile` sweeps the hierarchy straight into the
//! index columns, with no table in between, and `Snapshot::compile_with`
//! runs that compile inside the file buffer. Both must give the bytes
//! of the two-step path they replace: the index packed from a whole
//! table (`DispatchIndex::from_table(LookupTable::build_with(..))`),
//! and the file serialized from that index (`Snapshot::from_index`).
//! Checked on the paper's fixtures, every generator family, realistic
//! hierarchies of several sizes and random hierarchies, under both
//! static-member rules.

use cpplookup::apply_edits;
use cpplookup::chg::fixtures;
use cpplookup::hiergen::families;
use cpplookup::hiergen::{random_hierarchy, RandomConfig};
use cpplookup::prelude::*;
use proptest::prelude::*;

/// Asserts that the one-pass compile of `g` equals the table path,
/// index columns and file bytes, under both static-member rules.
fn assert_compile_matches_table_path(name: &str, g: &Chg) {
    for statics in [StaticRule::Cpp, StaticRule::Ignore] {
        let options = LookupOptions { statics };
        let packed = DispatchIndex::from_table(LookupTable::build_with(g, options));
        let compiled = DispatchIndex::compile(g, options);
        assert!(
            compiled.columns() == packed.columns(),
            "{name} ({statics:?}): compiled columns differ from the packed table's"
        );
        let file = Snapshot::compile_with(g, options);
        assert!(
            file.as_bytes() == Snapshot::from_index(g, &packed, options).as_bytes(),
            "{name} ({statics:?}): the compiled file differs from the packed index's"
        );
    }
}

#[test]
fn compile_matches_table_path_on_fixtures() {
    let graphs = [
        ("fig1", fixtures::fig1()),
        ("fig2", fixtures::fig2()),
        ("fig3", fixtures::fig3()),
        ("fig9", fixtures::fig9()),
        ("static_diamond", fixtures::static_diamond()),
        ("static_override_mix", fixtures::static_override_mix()),
        ("dominance_diamond", fixtures::dominance_diamond()),
        ("empty", ChgBuilder::new().finish().unwrap()),
    ];
    for (name, g) in &graphs {
        assert_compile_matches_table_path(name, g);
    }
}

#[test]
fn compile_matches_table_path_on_every_family() {
    let graphs = [
        ("chain_80_virtual_7", families::chain(80, Some(7))),
        (
            "stacked_diamonds_5_virtual",
            families::stacked_diamonds(5, Inheritance::Virtual),
        ),
        (
            "stacked_diamonds_overridden_5",
            families::stacked_diamonds_overridden(5, Inheritance::NonVirtual),
        ),
        (
            "wide_diamond_9",
            families::wide_diamond(9, Inheritance::Virtual),
        ),
        ("pyramid_5", families::pyramid(5, Inheritance::Virtual)),
        ("interface_heavy_60x4", families::interface_heavy(60, 4)),
        ("grid_12x9", families::grid(12, 9)),
        ("gxx_trap_5", families::gxx_trap(5)),
    ];
    for (name, g) in &graphs {
        assert_compile_matches_table_path(name, g);
    }
    for seed in 0..12 {
        let g = random_hierarchy(&RandomConfig::stress(seed));
        assert_compile_matches_table_path(&format!("stress_{seed}"), &g);
    }
}

#[test]
fn compile_matches_table_path_on_realistic_hierarchies() {
    for (classes, seed) in [(10, 1), (40, 2), (150, 3), (400, 4), (1000, 7)] {
        let g = random_hierarchy(&RandomConfig::realistic(classes, seed));
        assert_compile_matches_table_path(&format!("realistic_{classes}_{seed}"), &g);
    }
}

/// An edited hierarchy: a class with no members, and a new static
/// member name, the largest member id.
#[test]
fn compile_matches_table_path_after_edits() {
    let g = random_hierarchy(&RandomConfig::realistic(60, 9));
    let k = g.classes().nth(2).unwrap();
    let edits = [
        Edit::AddClass {
            name: "Late".into(),
        },
        Edit::AddMember {
            class: k,
            name: "late_static".into(),
            decl: MemberDecl::public(MemberKind::StaticData),
        },
    ];
    let edited = apply_edits(&g, &edits).unwrap();
    assert_compile_matches_table_path("realistic_60_edited", &edited);
}

/// A compile into a buffer that already holds bytes writes the same
/// columns after them, served in place.
#[test]
fn compile_into_appends_the_same_columns() {
    let g = random_hierarchy(&RandomConfig::realistic(80, 5));
    let options = LookupOptions::default();
    let alone = DispatchIndex::compile(&g, options);
    let mut buf = vec![0xA5u8; 48];
    let len = DispatchIndex::compile_into(&g, options, &mut buf, 8);
    assert_eq!(buf.len(), 48 + len);
    assert!(buf.capacity() >= buf.len() + 8, "the tail is reserved");
    assert!(&buf[48..] == alone.columns());
    let served = DispatchIndex::from_columns(std::sync::Arc::new(buf), 48, len).unwrap();
    assert!(served.columns() == alone.columns());
}

/// Small, ambiguity-rich random hierarchies with static members.
fn small_chg() -> impl Strategy<Value = Chg> {
    (
        2usize..14,
        0.0f64..0.7,
        0.0f64..0.6,
        1usize..5,
        0.2f64..0.7,
        0.0f64..0.5,
        any::<u64>(),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn compile_matches_table_path_on_random_hierarchies(g in small_chg()) {
        assert_compile_matches_table_path("random", &g);
    }
}
