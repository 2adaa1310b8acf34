//! The unified query interface implemented by every lookup strategy.
//!
//! The crate grew several ways to answer `lookup(C, m)` — the eager
//! [`LookupTable`](crate::LookupTable), the memoising
//! [`LazyLookup`](crate::LazyLookup), the served
//! [`DispatchIndex`](crate::DispatchIndex), and the baseline algorithms
//! in `cpplookup-baselines`. [`MemberLookup`] gives them one signature so
//! differential tests, benches, and callers can be generic over strategy.
//!
//! Receivers are `&mut self` because several strategies (the lazy
//! cache, the caching baseline adapters) memoise under the hood;
//! stateless strategies simply ignore the mutability. `resolve_path`
//! takes the [`Chg`] explicitly — the eager table's shape — so
//! strategies that do not retain a graph reference can still implement
//! it.

use cpplookup_chg::{Chg, ClassId, MemberId, Path};

use crate::result::{Entry, LookupOutcome};

/// A strategy answering C++ member lookup queries over a class
/// hierarchy.
///
/// # Examples
///
/// Generic driver code working over any strategy:
///
/// ```
/// use cpplookup_chg::fixtures;
/// use cpplookup_core::{LazyLookup, LookupOutcome, LookupTable, MemberLookup};
///
/// fn ambiguous_count<L: MemberLookup>(l: &mut L, g: &cpplookup_chg::Chg) -> usize {
///     g.classes()
///         .flat_map(|c| g.member_ids().map(move |m| (c, m)))
///         .filter(|&(c, m)| matches!(l.lookup(c, m), LookupOutcome::Ambiguous { .. }))
///         .count()
/// }
///
/// let g = fixtures::fig1();
/// let mut eager = LookupTable::build(&g);
/// let mut lazy = LazyLookup::new(&g);
/// assert_eq!(ambiguous_count(&mut eager, &g), ambiguous_count(&mut lazy, &g));
/// ```
pub trait MemberLookup {
    /// Answers `lookup(c, m)`.
    fn lookup(&mut self, c: ClassId, m: MemberId) -> LookupOutcome;

    /// The table entry for `(c, m)`, or `None` when `m ∉ Members[c]`.
    ///
    /// Returned by value: strategies that decode or compute entries on
    /// demand (the lazy cache, the dispatch index) cannot lend references
    /// into their internal storage.
    fn entry(&mut self, c: ClassId, m: MemberId) -> Option<Entry>;

    /// Recovers a concrete definition path for an unambiguous lookup by
    /// walking the `via` parent pointers of red entries (Section 4's
    /// triple abstraction). Returns `None` for missing or ambiguous
    /// entries.
    ///
    /// `chg` must be the hierarchy this strategy answers queries for.
    fn resolve_path(&mut self, chg: &Chg, c: ClassId, m: MemberId) -> Option<Path> {
        let mut rev = vec![c];
        let mut cur = c;
        loop {
            match self.entry(cur, m)? {
                Entry::Red { via: Some(x), .. } => {
                    rev.push(x);
                    cur = x;
                }
                Entry::Red { via: None, .. } => break,
                Entry::Blue(_) => return None,
            }
        }
        rev.reverse();
        Some(Path::new(chg, rev).expect("parent pointers follow real edges"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LazyLookup, LookupTable};
    use cpplookup_chg::fixtures;

    /// Exercises the trait through a `dyn` object to pin object safety.
    #[test]
    fn object_safe_and_consistent() {
        let g = fixtures::fig3();
        let table = LookupTable::build(&g);
        let mut strategies: Vec<Box<dyn MemberLookup + '_>> =
            vec![Box::new(table), Box::new(LazyLookup::new(&g))];
        let h = g.class_by_name("H").unwrap();
        let foo = g.member_by_name("foo").unwrap();
        let bar = g.member_by_name("bar").unwrap();
        for s in &mut strategies {
            assert!(s.lookup(h, foo).is_resolved());
            assert!(matches!(s.lookup(h, bar), LookupOutcome::Ambiguous { .. }));
            assert_eq!(
                s.resolve_path(&g, h, foo).unwrap().display(&g).to_string(),
                "GH"
            );
            assert_eq!(s.resolve_path(&g, h, bar), None);
        }
    }
}
