//! Compressed-sparse-row (CSR) view of a class hierarchy.
//!
//! [`crate::Chg`] stores adjacency as per-class `Vec<BaseSpec>`s behind
//! id lookups, which is convenient for queries but cache-hostile for
//! whole-table builders that sweep the hierarchy once per build. This
//! module flattens the graph **once** into contiguous `u32` arrays laid
//! out in topological order:
//!
//! * a topo-order array and its inverse (class index → topo rank),
//! * parent adjacency (`derived → base` edges, preserving each class's
//!   base *declaration order*, which merge semantics depend on),
//! * a virtual-edge bitmap indexed by edge position,
//! * child adjacency (the transpose), used to push member frontiers
//!   down the hierarchy.
//!
//! The same [`Csr`] is shared by the batched builder and the engine's
//! full-rebuild path, so the flattening cost is paid once per hierarchy
//! generation.
//!
//! # Examples
//!
//! ```
//! use cpplookup_chg::{fixtures, Csr};
//!
//! let g = fixtures::fig2();
//! let csr = Csr::build(&g);
//! assert_eq!(csr.class_count(), g.class_count());
//! // Every parent precedes its children in topological rank.
//! for rank in 0..csr.class_count() as u32 {
//!     for edge in csr.parents(rank) {
//!         assert!(edge.base_rank < rank);
//!     }
//! }
//! ```

use crate::bitset::BitSet;
use crate::graph::Chg;
use crate::ids::ClassId;

/// One `derived → base` inheritance edge as seen from the CSR view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CsrEdge {
    /// The base class the edge points at.
    pub base: ClassId,
    /// Topological rank of [`CsrEdge::base`]; always less than the
    /// derived class's rank.
    pub base_rank: u32,
    /// Whether this is a `virtual` inheritance edge.
    pub is_virtual: bool,
}

/// Compressed-sparse-row snapshot of a [`Chg`]'s inheritance structure.
///
/// All arrays are indexed by **topological rank** (position in
/// [`Chg::topo_order`]), not by raw class id; [`Csr::rank_of`] and
/// [`Csr::class_at`] convert between the two.
#[derive(Clone, Debug)]
pub struct Csr {
    /// Rank → class id (a copy of the topological order).
    topo: Vec<ClassId>,
    /// Class index → rank.
    rank: Vec<u32>,
    /// Rank → offset into the parent edge arrays; length `n + 1`.
    parent_start: Vec<u32>,
    /// Edge position → base class id, grouped by derived class in
    /// declaration order of its bases.
    parent_base: Vec<ClassId>,
    /// Edge position → rank of the base class.
    parent_rank: Vec<u32>,
    /// Edge position → virtual-inheritance flag.
    parent_virtual: BitSet,
    /// Rank → offset into `child_rank`; length `n + 1`.
    child_start: Vec<u32>,
    /// Child adjacency (transpose of the parent arrays), ranks in
    /// ascending order within each class.
    child_rank: Vec<u32>,
}

impl Csr {
    /// Flattens `chg` into the CSR layout. `O(|N| + |E|)`.
    pub fn build(chg: &Chg) -> Csr {
        let n = chg.class_count();
        let topo: Vec<ClassId> = chg.topo_order().to_vec();
        let mut rank = vec![0u32; n];
        for (r, &c) in topo.iter().enumerate() {
            rank[c.index()] = r as u32;
        }

        let e = chg.edge_count();
        let mut parent_start = Vec::with_capacity(n + 1);
        let mut parent_base = Vec::with_capacity(e);
        let mut parent_rank = Vec::with_capacity(e);
        let mut parent_virtual = BitSet::new(e);
        parent_start.push(0);
        for &c in &topo {
            for spec in chg.direct_bases(c) {
                if spec.inheritance.is_virtual() {
                    parent_virtual.insert(parent_base.len());
                }
                parent_base.push(spec.base);
                parent_rank.push(rank[spec.base.index()]);
            }
            parent_start.push(parent_base.len() as u32);
        }

        // Transpose by counting sort: children end up grouped by base
        // rank, and — because edges are emitted in ascending derived
        // rank — sorted ascending within each group.
        let mut child_start = vec![0u32; n + 1];
        for &p in &parent_rank {
            child_start[p as usize + 1] += 1;
        }
        for i in 1..=n {
            child_start[i] += child_start[i - 1];
        }
        let mut cursor = child_start.clone();
        let mut child_rank = vec![0u32; parent_rank.len()];
        for (r, &c) in topo.iter().enumerate() {
            let lo = parent_start[r] as usize;
            let hi = parent_start[r + 1] as usize;
            debug_assert_eq!(hi - lo, chg.direct_bases(c).len());
            for &p in &parent_rank[lo..hi] {
                let slot = &mut cursor[p as usize];
                child_rank[*slot as usize] = r as u32;
                *slot += 1;
            }
        }

        Csr {
            topo,
            rank,
            parent_start,
            parent_base,
            parent_rank,
            parent_virtual,
            child_start,
            child_rank,
        }
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.topo.len()
    }

    /// Number of inheritance edges.
    pub fn edge_count(&self) -> usize {
        self.parent_base.len()
    }

    /// The class at topological rank `rank`.
    pub fn class_at(&self, rank: u32) -> ClassId {
        self.topo[rank as usize]
    }

    /// The topological rank of class `c`.
    pub fn rank_of(&self, c: ClassId) -> u32 {
        self.rank[c.index()]
    }

    /// The topological order as a slice of class ids (rank-indexed).
    pub fn topo(&self) -> &[ClassId] {
        &self.topo
    }

    /// The direct bases of the class at `rank`, in the declaration
    /// order of [`Chg::direct_bases`] (merge order depends on it).
    pub fn parents(&self, rank: u32) -> impl Iterator<Item = CsrEdge> + '_ {
        let lo = self.parent_start[rank as usize] as usize;
        let hi = self.parent_start[rank as usize + 1] as usize;
        (lo..hi).map(move |i| CsrEdge {
            base: self.parent_base[i],
            base_rank: self.parent_rank[i],
            is_virtual: self.parent_virtual.contains(i),
        })
    }

    /// Ranks of the classes directly derived from the class at `rank`,
    /// in ascending rank order.
    pub fn children(&self, rank: u32) -> &[u32] {
        let lo = self.child_start[rank as usize] as usize;
        let hi = self.child_start[rank as usize + 1] as usize;
        &self.child_rank[lo..hi]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::graph::Inheritance;

    fn graphs() -> Vec<Chg> {
        vec![
            fixtures::fig1(),
            fixtures::fig2(),
            fixtures::fig3(),
            fixtures::fig9(),
            fixtures::static_diamond(),
            crate::ChgBuilder::new().finish().unwrap(),
        ]
    }

    #[test]
    fn ranks_are_topological() {
        for g in graphs() {
            let csr = Csr::build(&g);
            assert_eq!(csr.class_count(), g.class_count());
            assert_eq!(csr.edge_count(), g.edge_count());
            for r in 0..csr.class_count() as u32 {
                let c = csr.class_at(r);
                assert_eq!(csr.rank_of(c), r);
                assert_eq!(g.topo_position(c), r as usize);
                for edge in csr.parents(r) {
                    assert!(edge.base_rank < r, "base must precede derived");
                }
            }
        }
    }

    #[test]
    fn parents_preserve_declaration_order_and_virtual_bits() {
        for g in graphs() {
            let csr = Csr::build(&g);
            for c in g.classes() {
                let r = csr.rank_of(c);
                let got: Vec<(ClassId, bool)> =
                    csr.parents(r).map(|e| (e.base, e.is_virtual)).collect();
                let want: Vec<(ClassId, bool)> = g
                    .direct_bases(c)
                    .iter()
                    .map(|s| (s.base, s.inheritance == Inheritance::Virtual))
                    .collect();
                assert_eq!(got, want, "bases of {}", g.class_name(c));
            }
        }
    }

    #[test]
    fn children_are_the_exact_transpose() {
        for g in graphs() {
            let csr = Csr::build(&g);
            let mut pairs_from_children = Vec::new();
            for r in 0..csr.class_count() as u32 {
                let mut prev = None;
                for &child in csr.children(r) {
                    assert!(prev.is_none_or(|p| p < child), "ascending within class");
                    prev = Some(child);
                    pairs_from_children.push((child, r));
                }
            }
            let mut pairs_from_parents = Vec::new();
            for r in 0..csr.class_count() as u32 {
                for edge in csr.parents(r) {
                    pairs_from_parents.push((r, edge.base_rank));
                }
            }
            pairs_from_children.sort_unstable();
            pairs_from_parents.sort_unstable();
            assert_eq!(pairs_from_children, pairs_from_parents);
        }
    }
}
