//! The class hierarchy graph (CHG) and its builder.
//!
//! Following Section 2 of the paper: the CHG is a DAG whose nodes are
//! classes and whose edges are inheritance relations. An edge `X -> Y`
//! means *X is a direct base of Y* (so paths run from bases towards derived
//! classes). Edges are partitioned into virtual (`E_v`) and non-virtual
//! (`E_nv`) edges. Every class `X` carries the set `M[X]` of members
//! declared directly in it.
//!
//! [`Chg`] is immutable once built: [`ChgBuilder::finish`] validates the
//! graph (acyclicity, no duplicate direct bases) and precomputes the
//! topological order plus the base-class and virtual-base-class transitive
//! closures that the lookup algorithm's constant-time dominance test needs.

use std::collections::HashMap;
use std::fmt;

use crate::bitset::BitMatrix;
use crate::error::ChgError;
use crate::ids::{ClassId, Interner, MemberId};
use crate::members::{Access, MemberDecl, MemberKind};

/// Whether an inheritance edge is virtual or non-virtual.
///
/// This single bit is the heart of the paper: the `fixed` prefix of a path,
/// the `≈` subobject equivalence, and the `∘` abstraction operator are all
/// defined in terms of it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Inheritance {
    /// Non-virtual ("replicated") inheritance: each occurrence of the base
    /// along a distinct non-virtual path is a distinct subobject.
    NonVirtual,
    /// Virtual ("shared") inheritance: all virtual occurrences of the base
    /// collapse into one subobject per complete object.
    Virtual,
}

impl Inheritance {
    /// Whether this is [`Inheritance::Virtual`].
    pub fn is_virtual(self) -> bool {
        matches!(self, Inheritance::Virtual)
    }
}

impl fmt::Display for Inheritance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inheritance::NonVirtual => f.write_str("non-virtual"),
            Inheritance::Virtual => f.write_str("virtual"),
        }
    }
}

/// One direct-base entry in a class's base list, in declaration order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BaseSpec {
    /// The base class.
    pub base: ClassId,
    /// Virtual or non-virtual inheritance.
    pub inheritance: Inheritance,
    /// The access of the inheritance edge (`class D : private B`).
    pub access: Access,
}

#[derive(Clone, Debug, Default)]
struct ClassData {
    name: String,
    bases: Vec<BaseSpec>,
    /// Member declarations in declaration order.
    members: Vec<(MemberId, MemberDecl)>,
    member_index: HashMap<MemberId, usize>,
    /// Classes that list this class as a direct base (reverse edges),
    /// filled in by `finish`.
    derived: Vec<ClassId>,
}

/// Incremental builder for a [`Chg`].
///
/// # Examples
///
/// Figure 2 of the paper (virtual inheritance):
///
/// ```
/// use cpplookup_chg::{ChgBuilder, Inheritance};
///
/// let mut b = ChgBuilder::new();
/// let a = b.class("A");
/// let b_ = b.class("B");
/// let c = b.class("C");
/// let d = b.class("D");
/// let e = b.class("E");
/// b.member(a, "m");
/// b.member(d, "m");
/// b.derive(b_, a, Inheritance::NonVirtual)?;
/// b.derive(c, b_, Inheritance::Virtual)?;
/// b.derive(d, b_, Inheritance::Virtual)?;
/// b.derive(e, c, Inheritance::NonVirtual)?;
/// b.derive(e, d, Inheritance::NonVirtual)?;
/// let chg = b.finish()?;
/// assert_eq!(chg.class_count(), 5);
/// assert!(chg.is_virtual_base_of(b_, e));
/// # Ok::<(), cpplookup_chg::ChgError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct ChgBuilder {
    classes: Vec<ClassData>,
    class_by_name: HashMap<String, ClassId>,
    member_names: Interner,
    edge_count: usize,
    generation: u64,
}

impl ChgBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reconstructs a builder from an existing graph, so that classes,
    /// members, and inheritance edges can be *appended* and a new [`Chg`]
    /// produced by [`finish`](Self::finish).
    ///
    /// All `ClassId`s and `MemberId`s of the source graph remain valid in
    /// the result (ids are append-only), which is what lets incremental
    /// consumers such as `cpplookup-core`'s `LookupEngine` reuse cached
    /// per-id state across an edit. The rebuilt graph's
    /// [`generation`](Chg::generation) is the source's plus one.
    pub fn from_chg(chg: &Chg) -> Self {
        let classes = chg
            .classes
            .iter()
            .map(|c| ClassData {
                name: c.name.clone(),
                bases: c.bases.clone(),
                members: c.members.clone(),
                member_index: c.member_index.clone(),
                // `finish` recomputes the reverse adjacency from scratch.
                derived: Vec::new(),
            })
            .collect();
        ChgBuilder {
            classes,
            class_by_name: chg.class_by_name.clone(),
            member_names: chg.member_names.clone(),
            edge_count: chg.edge_count,
            generation: chg.generation + 1,
        }
    }

    /// Returns the id for the class named `name`, creating it if needed.
    pub fn class(&mut self, name: &str) -> ClassId {
        if let Some(&id) = self.class_by_name.get(name) {
            return id;
        }
        let id = ClassId::from_index(self.classes.len());
        self.classes.push(ClassData {
            name: name.to_owned(),
            ..ClassData::default()
        });
        self.class_by_name.insert(name.to_owned(), id);
        id
    }

    /// Looks up a class by name without creating it.
    pub fn class_id(&self, name: &str) -> Option<ClassId> {
        self.class_by_name.get(name).copied()
    }

    /// Records that `derived` directly inherits from `base` with public
    /// access.
    ///
    /// Bases are kept in declaration order, which the algorithms observe
    /// (e.g. the g++ baseline's breadth-first traversal).
    ///
    /// # Errors
    ///
    /// Returns [`ChgError::SelfInheritance`] if `derived == base`,
    /// [`ChgError::DuplicateDirectBase`] if `base` is already a direct base
    /// of `derived`, and [`ChgError::UnknownClass`] for ids not created by
    /// this builder. Cycles through longer chains are detected by
    /// [`finish`](Self::finish).
    pub fn derive(
        &mut self,
        derived: ClassId,
        base: ClassId,
        inheritance: Inheritance,
    ) -> Result<(), ChgError> {
        self.derive_with_access(derived, base, inheritance, Access::Public)
    }

    /// Like [`derive`](Self::derive) with an explicit inheritance access.
    ///
    /// # Errors
    ///
    /// Same as [`derive`](Self::derive).
    pub fn derive_with_access(
        &mut self,
        derived: ClassId,
        base: ClassId,
        inheritance: Inheritance,
        access: Access,
    ) -> Result<(), ChgError> {
        self.check_id(derived)?;
        self.check_id(base)?;
        if derived == base {
            return Err(ChgError::SelfInheritance {
                class: self.classes[derived.index()].name.clone(),
            });
        }
        let data = &self.classes[derived.index()];
        if data.bases.iter().any(|b| b.base == base) {
            return Err(ChgError::DuplicateDirectBase {
                derived: data.name.clone(),
                base: self.classes[base.index()].name.clone(),
            });
        }
        self.classes[derived.index()].bases.push(BaseSpec {
            base,
            inheritance,
            access,
        });
        self.edge_count += 1;
        Ok(())
    }

    /// Declares a public non-static data member named `name` in `class`,
    /// returning the interned member id.
    ///
    /// # Panics
    ///
    /// Panics if `class` does not belong to this builder (use
    /// [`member_with`](Self::member_with) for a fallible version).
    pub fn member(&mut self, class: ClassId, name: &str) -> MemberId {
        self.member_with(class, name, MemberDecl::public(MemberKind::Data))
            .expect("invalid member declaration")
    }

    /// Declares a member with an explicit [`MemberDecl`].
    ///
    /// Declaring the same name twice in one class is allowed only when both
    /// declarations are `Function`s (an overload set); the second
    /// declaration is then a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`ChgError::ConflictingMember`] on an incompatible
    /// redeclaration and [`ChgError::UnknownClass`] for stray ids.
    pub fn member_with(
        &mut self,
        class: ClassId,
        name: &str,
        decl: MemberDecl,
    ) -> Result<MemberId, ChgError> {
        self.check_id(class)?;
        let id = MemberId::from_index(self.member_names.intern(name) as usize);
        let data = &mut self.classes[class.index()];
        if let Some(&slot) = data.member_index.get(&id) {
            let existing = data.members[slot].1;
            if existing.kind == MemberKind::Function && decl.kind == MemberKind::Function {
                return Ok(id); // overload set: one name entry
            }
            return Err(ChgError::ConflictingMember {
                class: data.name.clone(),
                member: name.to_owned(),
            });
        }
        data.member_index.insert(id, data.members.len());
        data.members.push((id, decl));
        Ok(id)
    }

    /// Interns a member name without declaring it anywhere, e.g. to query
    /// a name that may not exist.
    pub fn intern_member_name(&mut self, name: &str) -> MemberId {
        MemberId::from_index(self.member_names.intern(name) as usize)
    }

    /// Number of classes created so far.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    fn check_id(&self, id: ClassId) -> Result<(), ChgError> {
        if id.index() < self.classes.len() {
            Ok(())
        } else {
            Err(ChgError::UnknownClass { id })
        }
    }

    /// Validates the hierarchy and produces an immutable [`Chg`].
    ///
    /// Computes the topological order (bases before derived classes), the
    /// reverse (derived) adjacency, the proper-base transitive closure, and
    /// the virtual-base closure. The paper notes (Section 5) that a
    /// compiler needs the virtual-base relation anyway and charges its
    /// `O(|N| * (|N| + |E|))` cost to preprocessing; we do the same here.
    ///
    /// # Errors
    ///
    /// Returns [`ChgError::Cycle`] if the inheritance relation is cyclic.
    pub fn finish(mut self) -> Result<Chg, ChgError> {
        let n = self.classes.len();

        // Reverse adjacency.
        for derived in 0..n {
            let bases: Vec<ClassId> = self.classes[derived].bases.iter().map(|b| b.base).collect();
            for base in bases {
                self.classes[base.index()]
                    .derived
                    .push(ClassId::from_index(derived));
            }
        }

        // Kahn's algorithm over base -> derived edges: a class is ready
        // once all of its direct bases are placed.
        let mut remaining: Vec<usize> = self.classes.iter().map(|c| c.bases.len()).collect();
        let mut topo: Vec<ClassId> = Vec::with_capacity(n);
        let mut queue: Vec<ClassId> = (0..n)
            .filter(|&i| remaining[i] == 0)
            .map(ClassId::from_index)
            .collect();
        // Pop from the front for a stable, breadth-first-ish order.
        let mut head = 0;
        while head < queue.len() {
            let c = queue[head];
            head += 1;
            topo.push(c);
            for &d in &self.classes[c.index()].derived {
                remaining[d.index()] -= 1;
                if remaining[d.index()] == 0 {
                    queue.push(d);
                }
            }
        }
        if topo.len() != n {
            let culprit = (0..n)
                .find(|&i| remaining[i] > 0)
                .expect("cycle implies a class with unplaced bases");
            return Err(ChgError::Cycle {
                class: self.classes[culprit].name.clone(),
            });
        }

        let mut topo_pos = vec![0usize; n];
        for (pos, &c) in topo.iter().enumerate() {
            topo_pos[c.index()] = pos;
        }

        // bases[d] = proper base classes of d: union over direct bases b of
        // ({b} ∪ bases[b]), computed in topological order.
        let mut bases = BitMatrix::new(n, n);
        for &c in &topo {
            let direct: Vec<ClassId> = self.classes[c.index()]
                .bases
                .iter()
                .map(|b| b.base)
                .collect();
            for b in direct {
                bases.set(c.index(), b.index());
                if b.index() != c.index() {
                    bases.union_rows(c.index(), b.index());
                }
            }
        }

        // virtual_bases[d] = { v | some virtual edge v -> w exists with
        // w = d or w a base of d }; i.e. there is a path from v to d whose
        // *first* edge is virtual (paper, Section 2).
        let mut virtual_bases = BitMatrix::new(n, n);
        for w in 0..n {
            let virt: Vec<ClassId> = self.classes[w]
                .bases
                .iter()
                .filter(|b| b.inheritance.is_virtual())
                .map(|b| b.base)
                .collect();
            if virt.is_empty() {
                continue;
            }
            // w itself and every class derived from w see these as
            // virtual bases.
            for d in 0..n {
                if d == w || bases.get(d, w) {
                    for &v in &virt {
                        virtual_bases.set(d, v.index());
                    }
                }
            }
        }

        // declarers[m] = classes declaring member m, in topological order
        // of declaring class (useful for the lazy algorithm's visibility
        // test and the topological-number baseline).
        let mut declarers: Vec<Vec<ClassId>> = vec![Vec::new(); self.member_names.len()];
        for &c in &topo {
            for &(m, _) in &self.classes[c.index()].members {
                declarers[m.index()].push(c);
            }
        }

        Ok(Chg {
            classes: self.classes,
            class_by_name: self.class_by_name,
            member_names: self.member_names,
            edge_count: self.edge_count,
            generation: self.generation,
            topo,
            topo_pos,
            bases,
            virtual_bases,
            declarers,
        })
    }
}

/// An immutable, validated class hierarchy graph.
///
/// Obtained from [`ChgBuilder::finish`]. All query methods are `O(1)` or
/// return precomputed slices; the closures behind
/// [`is_base_of`](Chg::is_base_of) and
/// [`is_virtual_base_of`](Chg::is_virtual_base_of) are bit matrices, giving
/// the constant-time tests the lookup algorithm's complexity analysis
/// assumes.
#[derive(Clone)]
pub struct Chg {
    classes: Vec<ClassData>,
    class_by_name: HashMap<String, ClassId>,
    member_names: Interner,
    edge_count: usize,
    generation: u64,
    topo: Vec<ClassId>,
    topo_pos: Vec<usize>,
    bases: BitMatrix,
    virtual_bases: BitMatrix,
    declarers: Vec<Vec<ClassId>>,
}

impl Chg {
    /// Number of classes, `|N|`.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of inheritance edges, `|E|`.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Number of distinct member names, `|M|`.
    pub fn member_name_count(&self) -> usize {
        self.member_names.len()
    }

    /// How many edit/rebuild rounds produced this graph: `0` for a graph
    /// built from scratch, and the predecessor's generation plus one for a
    /// graph rebuilt via [`ChgBuilder::from_chg`]. Incremental consumers
    /// use this to tell cache snapshots apart.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The name of a class.
    pub fn class_name(&self, c: ClassId) -> &str {
        &self.classes[c.index()].name
    }

    /// Finds a class by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.class_by_name.get(name).copied()
    }

    /// Iterates over all class ids in creation order.
    pub fn classes(&self) -> impl Iterator<Item = ClassId> + '_ {
        (0..self.classes.len()).map(ClassId::from_index)
    }

    /// The name of a member.
    pub fn member_name(&self, m: MemberId) -> &str {
        self.member_names.resolve(m.index() as u32)
    }

    /// Finds a member name id.
    pub fn member_by_name(&self, name: &str) -> Option<MemberId> {
        self.member_names
            .get(name)
            .map(|i| MemberId::from_index(i as usize))
    }

    /// Iterates over all member name ids.
    pub fn member_ids(&self) -> impl Iterator<Item = MemberId> + '_ {
        (0..self.member_names.len()).map(MemberId::from_index)
    }

    /// The direct bases of `c` in declaration order.
    pub fn direct_bases(&self, c: ClassId) -> &[BaseSpec] {
        &self.classes[c.index()].bases
    }

    /// The classes that list `c` as a direct base.
    pub fn direct_derived(&self, c: ClassId) -> &[ClassId] {
        &self.classes[c.index()].derived
    }

    /// The inheritance kind of the edge `base -> derived`, if it exists.
    ///
    /// C++ forbids listing the same direct base twice, so the kind is
    /// unique; this is what lets us represent paths as bare node sequences.
    pub fn edge(&self, base: ClassId, derived: ClassId) -> Option<Inheritance> {
        self.classes[derived.index()]
            .bases
            .iter()
            .find(|b| b.base == base)
            .map(|b| b.inheritance)
    }

    /// The full [`BaseSpec`] of the edge `base -> derived`, if it exists.
    pub fn edge_spec(&self, base: ClassId, derived: ClassId) -> Option<&BaseSpec> {
        self.classes[derived.index()]
            .bases
            .iter()
            .find(|b| b.base == base)
    }

    /// The members declared directly in `c` (the paper's `M[c]`), in
    /// declaration order.
    pub fn declared_members(&self, c: ClassId) -> &[(MemberId, MemberDecl)] {
        &self.classes[c.index()].members
    }

    /// Whether `c` directly declares member `m` (`m ∈ M[c]`).
    pub fn declares(&self, c: ClassId, m: MemberId) -> bool {
        self.classes[c.index()].member_index.contains_key(&m)
    }

    /// The declaration of `m` in `c`, if `c` declares it directly.
    pub fn member_decl(&self, c: ClassId, m: MemberId) -> Option<MemberDecl> {
        self.classes[c.index()]
            .member_index
            .get(&m)
            .map(|&slot| self.classes[c.index()].members[slot].1)
    }

    /// All classes that declare `m` directly, in topological order.
    pub fn declaring_classes(&self, m: MemberId) -> &[ClassId] {
        &self.declarers[m.index()]
    }

    /// The topological order of classes: every base precedes every class
    /// derived from it. This is the processing order of the algorithm in
    /// Figure 8 of the paper.
    pub fn topo_order(&self) -> &[ClassId] {
        &self.topo
    }

    /// The position of `c` in [`topo_order`](Chg::topo_order) — the
    /// "topological number" of the Section 7 shortcut baseline.
    pub fn topo_position(&self, c: ClassId) -> usize {
        self.topo_pos[c.index()]
    }

    /// Whether `b` is a *proper* base class of `d` (a nonempty path
    /// `b -> ... -> d` exists).
    pub fn is_base_of(&self, b: ClassId, d: ClassId) -> bool {
        self.bases.get(d.index(), b.index())
    }

    /// Whether `v` is a virtual base class of `d`: some path from `v` to
    /// `d` starts with a virtual edge (paper, Section 2).
    pub fn is_virtual_base_of(&self, v: ClassId, d: ClassId) -> bool {
        self.virtual_bases.get(d.index(), v.index())
    }

    /// Iterates over the proper bases of `d`.
    pub fn bases_of(&self, d: ClassId) -> impl Iterator<Item = ClassId> + '_ {
        self.bases.row(d.index()).iter().map(ClassId::from_index)
    }

    /// Iterates over the classes *properly* derived from `b` (the
    /// transitive closure of [`direct_derived`](Chg::direct_derived)), in
    /// id order. This is the propagation frontier of an incremental edit
    /// at `b`: no lookup entry outside `{b} ∪ derived_of(b)` can change
    /// when a member or base edge is appended to `b`.
    pub fn derived_of(&self, b: ClassId) -> impl Iterator<Item = ClassId> + '_ {
        self.classes().filter(move |&d| self.is_base_of(b, d))
    }

    /// Iterates over the virtual bases of `d`.
    pub fn virtual_bases_of(&self, d: ClassId) -> impl Iterator<Item = ClassId> + '_ {
        self.virtual_bases
            .row(d.index())
            .iter()
            .map(ClassId::from_index)
    }

    /// Whether `m` is visible in `c`, i.e. `m ∈ Members[c]`: declared by
    /// `c` itself or by any of its bases.
    pub fn is_member_visible(&self, c: ClassId, m: MemberId) -> bool {
        self.declarers[m.index()]
            .iter()
            .any(|&d| d == c || self.is_base_of(d, c))
    }
}

impl fmt::Debug for Chg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Chg {{ classes: {}, edges: {}, members: {} }}",
            self.class_count(),
            self.edge_count(),
            self.member_name_count()
        )?;
        for c in self.classes() {
            let bases: Vec<String> = self
                .direct_bases(c)
                .iter()
                .map(|b| {
                    format!(
                        "{}{}",
                        if b.inheritance.is_virtual() {
                            "virtual "
                        } else {
                            ""
                        },
                        self.class_name(b.base)
                    )
                })
                .collect();
            let members: Vec<&str> = self
                .declared_members(c)
                .iter()
                .map(|&(m, _)| self.member_name(m))
                .collect();
            writeln!(
                f,
                "  {} : [{}] {{ {} }}",
                self.class_name(c),
                bases.join(", "),
                members.join(", ")
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Chg {
        // A -> B, A -> C, B -> D, C -> D (all non-virtual)
        let mut b = ChgBuilder::new();
        let a = b.class("A");
        let bb = b.class("B");
        let c = b.class("C");
        let d = b.class("D");
        b.member(a, "m");
        b.derive(bb, a, Inheritance::NonVirtual).unwrap();
        b.derive(c, a, Inheritance::NonVirtual).unwrap();
        b.derive(d, bb, Inheritance::NonVirtual).unwrap();
        b.derive(d, c, Inheritance::NonVirtual).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn build_and_query_diamond() {
        let g = diamond();
        let (a, b, c, d) = (
            g.class_by_name("A").unwrap(),
            g.class_by_name("B").unwrap(),
            g.class_by_name("C").unwrap(),
            g.class_by_name("D").unwrap(),
        );
        assert_eq!(g.class_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert!(g.is_base_of(a, d));
        assert!(g.is_base_of(b, d));
        assert!(!g.is_base_of(d, a));
        assert!(!g.is_base_of(a, a), "is_base_of is a proper relation");
        assert!(!g.is_virtual_base_of(a, d));
        assert_eq!(g.edge(a, b), Some(Inheritance::NonVirtual));
        assert_eq!(g.edge(b, a), None);
        assert_eq!(g.direct_derived(a), &[b, c]);
        let m = g.member_by_name("m").unwrap();
        assert!(g.declares(a, m));
        assert!(!g.declares(d, m));
        assert!(g.is_member_visible(d, m));
        assert!(g.is_member_visible(a, m));
        assert_eq!(g.declaring_classes(m), &[a]);
    }

    #[test]
    fn topo_order_respects_bases() {
        let g = diamond();
        for d in g.classes() {
            for spec in g.direct_bases(d) {
                assert!(
                    g.topo_position(spec.base) < g.topo_position(d),
                    "base before derived"
                );
            }
        }
        assert_eq!(g.topo_order().len(), 4);
    }

    #[test]
    fn virtual_base_closure_follows_first_edge_rule() {
        // A ->v B -> C: A is a virtual base of B and of C.
        // B -> C non-virtual: B is NOT a virtual base of C.
        let mut b = ChgBuilder::new();
        let a = b.class("A");
        let bb = b.class("B");
        let c = b.class("C");
        b.derive(bb, a, Inheritance::Virtual).unwrap();
        b.derive(c, bb, Inheritance::NonVirtual).unwrap();
        let g = b.finish().unwrap();
        assert!(g.is_virtual_base_of(a, bb));
        assert!(g.is_virtual_base_of(a, c));
        assert!(!g.is_virtual_base_of(bb, c));
        assert_eq!(g.virtual_bases_of(c).collect::<Vec<_>>(), vec![a]);
    }

    #[test]
    fn virtual_base_requires_first_edge_virtual_not_any_edge() {
        // A -> B ->v C: path A..C has a virtual edge but its FIRST edge is
        // non-virtual, so A is not a virtual base of C; B is.
        let mut b = ChgBuilder::new();
        let a = b.class("A");
        let bb = b.class("B");
        let c = b.class("C");
        b.derive(bb, a, Inheritance::NonVirtual).unwrap();
        b.derive(c, bb, Inheritance::Virtual).unwrap();
        let g = b.finish().unwrap();
        assert!(!g.is_virtual_base_of(a, c));
        assert!(g.is_virtual_base_of(bb, c));
    }

    #[test]
    fn cycle_detected() {
        let mut b = ChgBuilder::new();
        let a = b.class("A");
        let c = b.class("B");
        b.derive(c, a, Inheritance::NonVirtual).unwrap();
        b.derive(a, c, Inheritance::NonVirtual).unwrap();
        match b.finish() {
            Err(ChgError::Cycle { .. }) => {}
            other => panic!("expected cycle error, got {other:?}"),
        }
    }

    #[test]
    fn self_inheritance_rejected() {
        let mut b = ChgBuilder::new();
        let a = b.class("A");
        assert_eq!(
            b.derive(a, a, Inheritance::Virtual),
            Err(ChgError::SelfInheritance { class: "A".into() })
        );
    }

    #[test]
    fn duplicate_direct_base_rejected() {
        let mut b = ChgBuilder::new();
        let a = b.class("A");
        let d = b.class("D");
        b.derive(d, a, Inheritance::NonVirtual).unwrap();
        assert!(matches!(
            b.derive(d, a, Inheritance::Virtual),
            Err(ChgError::DuplicateDirectBase { .. })
        ));
    }

    #[test]
    fn overloads_merge_conflicts_error() {
        let mut b = ChgBuilder::new();
        let a = b.class("A");
        let m1 = b
            .member_with(a, "f", MemberDecl::public(MemberKind::Function))
            .unwrap();
        let m2 = b
            .member_with(a, "f", MemberDecl::public(MemberKind::Function))
            .unwrap();
        assert_eq!(m1, m2);
        assert!(matches!(
            b.member_with(a, "f", MemberDecl::public(MemberKind::Data)),
            Err(ChgError::ConflictingMember { .. })
        ));
        // One name entry despite the overload.
        let g = b.finish().unwrap();
        assert_eq!(g.declared_members(a).len(), 1);
    }

    #[test]
    fn unknown_class_id_rejected() {
        let mut good = ChgBuilder::new();
        let a = good.class("A");
        let mut bad = ChgBuilder::new();
        let stray = {
            let mut other = ChgBuilder::new();
            other.class("X");
            other.class("Y")
        };
        let _ = a;
        assert!(matches!(
            bad.member_with(stray, "m", MemberDecl::default()),
            Err(ChgError::UnknownClass { .. })
        ));
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = ChgBuilder::new().finish().unwrap();
        assert_eq!(g.class_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.topo_order().len(), 0);
    }

    #[test]
    fn chg_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Chg>();
    }

    #[test]
    fn debug_output_mentions_classes() {
        let g = diamond();
        let s = format!("{g:?}");
        assert!(s.contains("classes: 4"));
        assert!(s.contains("D : [B, C]"));
    }

    #[test]
    fn member_intern_without_decl() {
        let mut b = ChgBuilder::new();
        b.class("A");
        let m = b.intern_member_name("ghost");
        let g = b.finish().unwrap();
        assert_eq!(g.member_name(m), "ghost");
        assert!(g.declaring_classes(m).is_empty());
    }
}
