//! Differential tests of the probe directory against the paper's
//! Definition 9 table: the minimal perfect hash directory a
//! [`DispatchIndex`] serves through must answer exactly what
//! [`LookupTable`] answers — the same outcome and entry for every live
//! `(class, member)` pair, `NotFound` for every dead key — across the
//! full generator corpus, both statics rules, and proptest-fuzzed probe
//! streams that deliberately stray outside the live id ranges.

use cpplookup::hiergen::{families, random_hierarchy, RandomConfig};
use cpplookup::prelude::*;
use proptest::prelude::*;

/// The same twelve deterministic families as the golden snapshot
/// corpus (`tests/corpus.rs`), spanning chains, diamonds, grids,
/// interface forests, the g++ trap, and seeded random hierarchies.
fn corpus() -> Vec<(&'static str, Chg)> {
    vec![
        ("chain_12", families::chain(12, None)),
        ("chain_12_virtual_3", families::chain(12, Some(3))),
        (
            "stacked_diamonds_3_nonvirtual",
            families::stacked_diamonds(3, Inheritance::NonVirtual),
        ),
        (
            "stacked_diamonds_3_virtual",
            families::stacked_diamonds(3, Inheritance::Virtual),
        ),
        (
            "stacked_diamonds_overridden_3",
            families::stacked_diamonds_overridden(3, Inheritance::Virtual),
        ),
        (
            "wide_diamond_6",
            families::wide_diamond(6, Inheritance::Virtual),
        ),
        ("pyramid_4", families::pyramid(4, Inheritance::NonVirtual)),
        ("interface_heavy_6x3", families::interface_heavy(6, 3)),
        ("grid_3x3", families::grid(3, 3)),
        ("gxx_trap_3", families::gxx_trap(3)),
        (
            "random_stress_42",
            random_hierarchy(&RandomConfig::stress(42)),
        ),
        (
            "random_realistic_20_7",
            random_hierarchy(&RandomConfig::realistic(20, 7)),
        ),
    ]
}

/// The reference entry for `(c, m)`: the table's, or `None` past its
/// class range (the table only covers live class ids).
fn reference(table: &LookupTable, class_count: usize, c: ClassId, m: MemberId) -> Option<&Entry> {
    if c.index() < class_count {
        table.entry(c, m)
    } else {
        None
    }
}

/// Exhaustive sweep: every pair in (and a margin beyond) the live id
/// ranges, under both statics rules — the index's single and batch
/// probes must both match the table.
#[test]
fn mph_directory_matches_the_table_on_the_full_corpus() {
    for (name, g) in corpus() {
        for statics in [StaticRule::Cpp, StaticRule::Ignore] {
            let options = LookupOptions { statics };
            let table = LookupTable::build_with(&g, options);
            let index = DispatchIndex::from_table(LookupTable::build_with(&g, options));
            let probes: Vec<_> = (0..g.class_count() + 3)
                .flat_map(|c| {
                    (0..g.member_name_count() + 3)
                        .map(move |m| (ClassId::from_index(c), MemberId::from_index(m)))
                })
                .collect();
            let mut batch = Vec::new();
            index.lookup_batch_into(&probes, &mut batch);
            assert_eq!(batch.len(), probes.len(), "{name}");
            for (r, &(c, m)) in batch.iter().zip(&probes) {
                let want = reference(&table, g.class_count(), c, m);
                let at = || format!("{name} statics={statics:?} probe ({c:?}, {m:?})");
                assert_eq!(
                    index.lookup_ref(c, m).to_outcome(),
                    LookupOutcome::from_entry(want),
                    "{}",
                    at()
                );
                assert_eq!(index.entry(c, m).as_ref(), want, "{}", at());
                assert_eq!(r, &index.lookup_ref(c, m), "{} batch vs single", at());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fuzzed dead keys: probes drawn far outside the live ranges (and
    /// landing on dead pairs inside them) must come back `NotFound`
    /// from the MPH directory — an alien key hashes *somewhere* in
    /// range, so this is exactly the key-compare rejection working —
    /// and every probe, single or batched, must match the table.
    #[test]
    fn fuzzed_probes_never_diverge(
        family in 0usize..12,
        raw in proptest::collection::vec((any::<u16>(), any::<u16>()), 1..128),
    ) {
        let (name, g) = corpus().swap_remove(family);
        let table = LookupTable::build(&g);
        let index = DispatchIndex::from_table(LookupTable::build(&g));
        let probes: Vec<_> = raw
            .iter()
            .map(|&(c, m)| {
                (
                    ClassId::from_index(c as usize),
                    MemberId::from_index(m as usize),
                )
            })
            .collect();
        let mut batch = Vec::new();
        index.lookup_batch_into(&probes, &mut batch);
        for (i, &(c, m)) in probes.iter().enumerate() {
            let got = index.lookup_ref(c, m);
            let want = LookupOutcome::from_entry(reference(&table, g.class_count(), c, m));
            prop_assert_eq!(&got.to_outcome(), &want, "{} probe {}", name, i);
            prop_assert_eq!(&got, &batch[i], "{} batch probe {}", name, i);
            if index.entry(c, m).is_none() {
                prop_assert_eq!(&got, &OutcomeRef::NotFound, "{} dead key {}", name, i);
            }
        }
    }
}
