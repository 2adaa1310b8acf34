//! Fixed-seed FxHash maps for the hot memo/cache paths.
//!
//! Re-exports [`cpplookup_chg::fxmap`] (the hasher lives next to the
//! name interner, its first user) so lookup-side code — the lazy cache,
//! the table's per-class entry maps (the engine's too), and the batched
//! builder's dedup arenas — shares one hasher definition.
//!
//! The hasher is seeded with a compile-time constant, so the same key
//! hashes identically in every process: cache behaviour, probe
//! sequences, and resize points are reproducible run-to-run, which the
//! benchmarks and the determinism tests rely on. Iteration order is
//! still unspecified (like any `HashMap`) and must never leak into
//! output; everything serialized sorts first.

pub use cpplookup_chg::fxmap::{fxhash, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};

#[cfg(test)]
mod tests {
    use crate::{LookupEngine, LookupTable};
    use cpplookup_chg::fixtures;

    /// The outputs that matter — table entries, stats, engine answers —
    /// must not depend on map iteration order, and with the fixed-seed
    /// hasher they are identical across repeated builds in one process
    /// (and, unlike `RandomState`, across processes too).
    #[test]
    fn rebuilds_are_iteration_order_independent() {
        let g = fixtures::fig3();
        let t1 = LookupTable::build(&g);
        let t2 = LookupTable::build(&g);
        assert_eq!(t1.stats(), t2.stats());
        for c in g.classes() {
            for m in g.member_ids() {
                assert_eq!(t1.entry(c, m), t2.entry(c, m));
            }
        }
        // members_of iterates an FxHashMap; with the same insertion
        // sequence the order is reproducible as well.
        for c in g.classes() {
            let a: Vec<_> = t1.members_of(c).collect();
            let b: Vec<_> = t2.members_of(c).collect();
            assert_eq!(a, b);
        }
        let e1 = LookupEngine::new(fixtures::fig9());
        let e2 = LookupEngine::new(fixtures::fig9());
        for c in e1.chg().classes().collect::<Vec<_>>() {
            for m in e1.chg().member_ids().collect::<Vec<_>>() {
                assert_eq!(e1.lookup(c, m), e2.lookup(c, m));
            }
        }
    }
}
