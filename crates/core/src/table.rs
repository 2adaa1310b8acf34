//! The member lookup algorithm of Figure 8: eager, whole-table
//! construction by propagation of red/blue abstractions over the CHG in
//! topological order.
//!
//! For every class `C` (bases first) and every member `m` visible in `C`,
//! the algorithm computes `lookup[C, m]`:
//!
//! * `m ∈ M[C]` — the generated definition trivially dominates everything:
//!   `Red (C, Ω)` (line 12);
//! * otherwise the entries of the direct bases are merged: each base
//!   contributes either one red abstraction (extended through the edge
//!   with `∘`) or a set of blue abstractions. A single *candidate* red is
//!   maintained; reds that neither dominate nor are dominated demote both
//!   parties' `leastVirtual`s into the `toBeDominated` set (lines 14–33).
//!   Finally the candidate must dominate everything in `toBeDominated`,
//!   else the result is blue (lines 34–44).
//!
//! Complexity: `O((|M| + |N|) * (|N| + |E|))` for the whole table when all
//! lookups are unambiguous, `O(|M| * |N| * (|N| + |E|))` in the worst
//! case — versus the exponential subobject-graph approaches.

use std::collections::BTreeSet;
use std::fmt;

use cpplookup_chg::fxmap::{FxBuildHasher, FxHashMap};
use cpplookup_chg::{Chg, ClassId, MemberId, Path};

use crate::abstraction::{LeastVirtual, RedAbs, StaticRule};
use crate::api::MemberLookup;
use crate::result::{Entry, LookupOutcome};

/// Computes `lookup[c, m]` from the entries of `c`'s direct bases,
/// supplied by `base_entry` — the single propagation step of Figure 8
/// shared by the eager builder, the lazy cache, the parallel column
/// workers, and the engine's incremental recomputation.
///
/// `base_entry` is consulted once per direct base and must return that
/// base's entry for `m` (or `None` when `m` is not visible there); the
/// caller guarantees base entries are already up to date. Returns `None`
/// when `m ∉ Members[c]`.
pub(crate) fn compute_entry_with<'e, F>(
    chg: &Chg,
    options: LookupOptions,
    c: ClassId,
    m: MemberId,
    mut base_entry: F,
) -> Option<Entry>
where
    F: FnMut(ClassId) -> Option<&'e Entry>,
{
    crate::obs::propagation().node_visited();
    // Line 12: a generated definition kills everything arriving from
    // bases.
    if chg.declares(c, m) {
        return Some(Entry::Red {
            abs: RedAbs::generated(c),
            via: None,
            shared: Vec::new(),
        });
    }
    let mut merge = Merge::new();
    let mut visible = false;
    for spec in chg.direct_bases(c) {
        match base_entry(spec.base) {
            None => {}
            Some(Entry::Red { abs, shared, .. }) => {
                visible = true;
                let ext_shared: Vec<_> = shared
                    .iter()
                    .map(|lv| lv.extend(spec.base, spec.inheritance))
                    .collect();
                merge.add_red(
                    chg,
                    m,
                    abs.extend(spec.base, spec.inheritance),
                    &ext_shared,
                    spec.base,
                    options.statics,
                );
            }
            Some(Entry::Blue(set)) => {
                visible = true;
                for &lv in set {
                    merge.add_blue(lv.extend(spec.base, spec.inheritance));
                }
            }
        }
    }
    visible.then(|| merge.finish(chg))
}

/// Options controlling table construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct LookupOptions {
    /// Whether the static-member rule participates in dominance
    /// (default: full C++ semantics).
    pub statics: StaticRule,
}

/// A candidate red during a merge: the representative abstraction, the
/// edge it arrived through, and — for shared-static sets — the
/// `leastVirtual`s of the co-maximal definitions (excluding `abs.lv`).
#[derive(Clone, Debug)]
struct RedCand {
    abs: RedAbs,
    via: ClassId,
    shared: BTreeSet<LeastVirtual>,
}

impl RedCand {
    /// All `leastVirtual` abstractions of the candidate's definitions.
    fn lvs(&self) -> impl Iterator<Item = LeastVirtual> + '_ {
        std::iter::once(self.abs.lv).chain(self.shared.iter().copied())
    }

    /// Whether this (red) candidate dominates *every* definition abstracted
    /// by `others` — Lemma 4 applied element-wise, with rule 2 generalized
    /// to "the lv matches one of the candidate's definitions".
    fn dominates_all<I: IntoIterator<Item = LeastVirtual>>(&self, chg: &Chg, others: I) -> bool {
        others.into_iter().all(|b| match b {
            LeastVirtual::Class(v) => {
                chg.is_virtual_base_of(v, self.abs.ldc)
                    || self.abs.lv == b
                    || self.shared.contains(&b)
            }
            LeastVirtual::Omega => false,
        })
    }
}

/// The per-member merge state of Figure 8's inner loop (lines 14–33),
/// generalized to shared-static definition *sets* (see
/// [`Entry::Red`]'s `shared` field).
#[derive(Clone, Debug, Default)]
pub(crate) struct Merge {
    /// The current candidate (None both before the first red and after a
    /// demotion — the paper's `nocandidate`).
    candidate: Option<RedCand>,
    /// Whether any red was ever fed (for assertions).
    saw_red: bool,
    /// The `toBeDominated` set.
    demoted: BTreeSet<LeastVirtual>,
    /// Work counts accumulated locally and flushed to the global
    /// propagation counters in one batch by [`finish`](Merge::finish),
    /// keeping the per-abstraction cost at a plain integer increment.
    work: MergeWork,
}

/// Local merge work tallies (reds/blues fed, demotion events).
#[derive(Clone, Copy, Debug, Default)]
struct MergeWork {
    reds: u32,
    blues: u32,
    demotions: u32,
}

impl Merge {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Lines 18–28: a red definition (possibly a shared-static set)
    /// arrives from direct base `via`, already extended through the edge.
    pub(crate) fn add_red(
        &mut self,
        chg: &Chg,
        m: MemberId,
        abs: RedAbs,
        shared: &[LeastVirtual],
        via: ClassId,
        statics: StaticRule,
    ) {
        self.saw_red = true;
        self.work.reds += 1;
        let incoming = RedCand {
            abs,
            via,
            shared: shared.iter().copied().filter(|&lv| lv != abs.lv).collect(),
        };
        let Some(mut cand) = self.candidate.take() else {
            self.candidate = Some(incoming);
            return;
        };
        let mergeable = statics == StaticRule::Cpp
            && cand.abs.ldc == abs.ldc
            && chg
                .member_decl(abs.ldc, m)
                .is_some_and(|d| d.kind.is_static_for_lookup());
        if mergeable {
            // Definition 17, condition 2: co-maximal definitions of the
            // same static member stay live as one set.
            let extra: Vec<LeastVirtual> = incoming.lvs().filter(|&lv| lv != cand.abs.lv).collect();
            cand.shared.extend(extra);
            self.candidate = Some(cand);
        } else if incoming.dominates_all(chg, cand.lvs().collect::<Vec<_>>()) {
            self.candidate = Some(incoming);
        } else if !cand.dominates_all(chg, incoming.lvs().collect::<Vec<_>>()) {
            // Neither dominates: everything becomes blue.
            self.work.demotions += 1;
            let all: Vec<LeastVirtual> = cand.lvs().chain(incoming.lvs()).collect();
            self.demoted.extend(all);
            // candidate stays None (the paper's `nocandidate := true`).
        } else {
            // The incoming definition is dominated — killed.
            self.candidate = Some(cand);
        }
    }

    /// Lines 29–32: one element of a blue set arrives, already extended
    /// through the edge.
    pub(crate) fn add_blue(&mut self, lv: LeastVirtual) {
        self.work.blues += 1;
        self.demoted.insert(lv);
    }

    /// Lines 34–44: resolve the merge into a table entry.
    pub(crate) fn finish(self, chg: &Chg) -> Entry {
        let work = self.work;
        let entry = match self.candidate {
            None => Entry::Blue(self.demoted.into_iter().collect()),
            Some(cand) => {
                let surviving: BTreeSet<LeastVirtual> = self
                    .demoted
                    .into_iter()
                    .filter(|&b| !cand.dominates_all(chg, [b]))
                    .collect();
                if surviving.is_empty() {
                    Entry::Red {
                        abs: cand.abs,
                        via: Some(cand.via),
                        shared: cand.shared.into_iter().collect(),
                    }
                } else {
                    let mut blue = surviving;
                    blue.extend(cand.lvs());
                    Entry::Blue(blue.into_iter().collect())
                }
            }
        };
        crate::obs::propagation().flush_merge(
            work.reds,
            work.blues,
            work.demotions,
            matches!(entry, Entry::Blue(_)),
        );
        entry
    }

    /// Whether anything has been merged.
    pub(crate) fn is_empty(&self) -> bool {
        !self.saw_red && self.candidate.is_none() && self.demoted.is_empty()
    }
}

/// A fully tabulated lookup: `lookup[C, m]` for every class `C` and every
/// member `m ∈ Members[C]`.
///
/// # Examples
///
/// ```
/// use cpplookup_chg::fixtures;
/// use cpplookup_core::{LookupOutcome, LookupTable};
///
/// let g = fixtures::fig2();
/// let table = LookupTable::build(&g);
/// let e = g.class_by_name("E").unwrap();
/// let m = g.member_by_name("m").unwrap();
/// match table.lookup(e, m) {
///     LookupOutcome::Resolved { class, .. } => assert_eq!(g.class_name(class), "D"),
///     other => panic!("expected D::m, got {other:?}"),
/// }
/// ```
#[derive(Clone)]
pub struct LookupTable {
    options: LookupOptions,
    entries: Vec<FxHashMap<MemberId, Entry>>,
}

impl LookupTable {
    /// Builds the whole table with default options (full C++ semantics).
    pub fn build(chg: &Chg) -> Self {
        Self::build_with(chg, LookupOptions::default())
    }

    /// Builds the whole table with explicit options.
    ///
    /// Uses the single-sweep batched compiler: one CSR flattening of
    /// the hierarchy, member-frontier pruning so only live
    /// `(class, member)` pairs are touched, and arena-interned
    /// abstractions in the merge loop. Produces entries identical to
    /// [`LookupTable::build_reference`] (asserted by the differential
    /// suite), several-fold faster on large hierarchies.
    pub fn build_with(chg: &Chg, options: LookupOptions) -> Self {
        LookupTable {
            options,
            entries: crate::batched::build_entries(chg, options),
        }
    }

    /// Builds the whole table with the retired per-member strategy:
    /// for each member name, one full topological sweep over *all*
    /// classes through [`compute_entry_with`] — `Θ(|N|·|M|)`
    /// propagation steps regardless of where the member is actually
    /// visible. This is the column build the pre-batched parallel
    /// fan-out ran per member, and the "old" baseline of the E21
    /// experiment and the `e21-smoke` regression gate; not used on any
    /// production path.
    pub fn build_per_member(chg: &Chg, options: LookupOptions) -> Self {
        let start = std::time::Instant::now();
        let n = chg.class_count();
        let mut entries: Vec<FxHashMap<MemberId, Entry>> = vec![FxHashMap::default(); n];
        let mut slots: Vec<Option<Entry>> = vec![None; n];
        for m in chg.member_ids() {
            slots.iter_mut().for_each(|s| *s = None);
            for &c in chg.topo_order() {
                let entry = compute_entry_with(chg, options, c, m, |b| slots[b.index()].as_ref());
                if let Some(e) = entry {
                    entries[c.index()].insert(m, e.clone());
                    slots[c.index()] = Some(e);
                }
            }
        }
        crate::obs::table_built(
            "per-member",
            (n as u64) * (chg.member_name_count() as u64),
            0,
            crate::batched::elapsed_ns(start),
        );
        LookupTable { options, entries }
    }

    /// Builds the whole table with the original per-class/per-member
    /// propagation — a literal transcription of Figure 8's doubly
    /// nested loop.
    ///
    /// Kept as the differential oracle for the batched compiler (see
    /// `tests/build_equiv.rs` and the `e21-smoke` CI gate); not used on
    /// any production path.
    pub fn build_reference(chg: &Chg, options: LookupOptions) -> Self {
        let start = std::time::Instant::now();
        let n = chg.class_count();
        let mut total_entries = 0u64;
        let mut entries: Vec<FxHashMap<MemberId, Entry>> = vec![FxHashMap::default(); n];
        for &c in chg.topo_order() {
            let mut acc: FxHashMap<MemberId, Merge> = FxHashMap::default();
            for spec in chg.direct_bases(c) {
                for (&m, entry) in &entries[spec.base.index()] {
                    // Line 12: a generated definition kills everything
                    // arriving from bases; skip the merge entirely.
                    if chg.declares(c, m) {
                        continue;
                    }
                    let merge = acc.entry(m).or_default();
                    match entry {
                        Entry::Red { abs, shared, .. } => {
                            let ext_shared: Vec<_> = shared
                                .iter()
                                .map(|lv| lv.extend(spec.base, spec.inheritance))
                                .collect();
                            merge.add_red(
                                chg,
                                m,
                                abs.extend(spec.base, spec.inheritance),
                                &ext_shared,
                                spec.base,
                                options.statics,
                            );
                        }
                        Entry::Blue(set) => {
                            for &lv in set {
                                merge.add_blue(lv.extend(spec.base, spec.inheritance));
                            }
                        }
                    }
                }
            }
            let mut tbl: FxHashMap<MemberId, Entry> = FxHashMap::with_capacity_and_hasher(
                acc.len() + chg.declared_members(c).len(),
                FxBuildHasher,
            );
            for &(m, _) in chg.declared_members(c) {
                tbl.insert(
                    m,
                    Entry::Red {
                        abs: RedAbs::generated(c),
                        via: None,
                        shared: Vec::new(),
                    },
                );
            }
            for (m, merge) in acc {
                debug_assert!(!merge.is_empty());
                tbl.insert(m, merge.finish(chg));
            }
            // The eager builder bypasses `compute_entry_with`, so count
            // its per-(class, member) steps here in one batch.
            crate::obs::propagation().nodes_visited_add(tbl.len() as u64);
            total_entries += tbl.len() as u64;
            entries[c.index()] = tbl;
        }
        crate::obs::table_built(
            "reference",
            total_entries,
            0,
            crate::batched::elapsed_ns(start),
        );
        LookupTable { options, entries }
    }

    /// Assembles a table from prebuilt per-class entry maps (used by the
    /// parallel builder).
    pub(crate) fn from_parts(
        options: LookupOptions,
        entries: Vec<FxHashMap<MemberId, Entry>>,
    ) -> Self {
        LookupTable { options, entries }
    }

    /// Dismantles the table into its per-class entry maps (used by the
    /// engine to seed its cache without re-deriving every entry).
    pub(crate) fn into_entries(self) -> Vec<FxHashMap<MemberId, Entry>> {
        self.entries
    }

    /// The options the table was built with.
    pub fn options(&self) -> LookupOptions {
        self.options
    }

    /// The raw table entry for `(c, m)`, or `None` when
    /// `m ∉ Members[c]`.
    pub fn entry(&self, c: ClassId, m: MemberId) -> Option<&Entry> {
        self.entries[c.index()].get(&m)
    }

    /// `lookup(c, m)` — constant time once the table is built.
    pub fn lookup(&self, c: ClassId, m: MemberId) -> LookupOutcome {
        LookupOutcome::from_entry(self.entry(c, m))
    }

    /// The member names visible in `c` (`Members[c]` of Figure 8), in
    /// ascending member-id (rank) order — deterministic regardless of
    /// hash-map iteration order, so reports and golden files built from
    /// it are stable.
    pub fn members_of(&self, c: ClassId) -> impl Iterator<Item = MemberId> + '_ {
        let mut members: Vec<MemberId> = self.entries[c.index()].keys().copied().collect();
        members.sort_unstable();
        members.into_iter()
    }

    /// Recovers a concrete definition path for an unambiguous lookup —
    /// the "triple abstraction" of Section 4, realized as parent pointers:
    /// each red entry records the base edge it arrived through, so the
    /// full path is reassembled by walking down to the generated
    /// definition. Returns `None` for missing or ambiguous entries.
    ///
    /// The returned path `α` satisfies `ldc(α) =` the resolved class,
    /// `mdc(α) = c`, and is a member of the winning `≈`-equivalence class.
    pub fn resolve_path(&self, chg: &Chg, c: ClassId, m: MemberId) -> Option<Path> {
        let mut rev = vec![c];
        let mut cur = c;
        loop {
            match self.entry(cur, m)? {
                Entry::Red { via: Some(x), .. } => {
                    rev.push(*x);
                    cur = *x;
                }
                Entry::Red { via: None, .. } => break,
                Entry::Blue(_) => return None,
            }
        }
        rev.reverse();
        Some(Path::new(chg, rev).expect("parent pointers follow real edges"))
    }

    /// Table-wide statistics, used by the experiment reports. Classes
    /// are walked in id order and each class's members in rank order
    /// (via [`members_of`](Self::members_of)), so any future
    /// order-sensitive accumulation stays deterministic.
    pub fn stats(&self) -> TableStats {
        let mut stats = TableStats::default();
        for (ci, class_tbl) in self.entries.iter().enumerate() {
            for m in self.members_of(ClassId::from_index(ci)) {
                stats.entries += 1;
                match &class_tbl[&m] {
                    Entry::Red { .. } => stats.red += 1,
                    Entry::Blue(_) => stats.blue += 1,
                }
            }
        }
        stats
    }
}

impl MemberLookup for LookupTable {
    fn lookup(&mut self, c: ClassId, m: MemberId) -> LookupOutcome {
        LookupTable::lookup(self, c, m)
    }

    fn entry(&mut self, c: ClassId, m: MemberId) -> Option<Entry> {
        LookupTable::entry(self, c, m).cloned()
    }

    fn resolve_path(&mut self, chg: &Chg, c: ClassId, m: MemberId) -> Option<Path> {
        LookupTable::resolve_path(self, chg, c, m)
    }
}

impl fmt::Debug for LookupTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        write!(
            f,
            "LookupTable {{ classes: {}, entries: {}, red: {}, blue: {} }}",
            self.entries.len(),
            s.entries,
            s.red,
            s.blue
        )
    }
}

/// Aggregate counts over a [`LookupTable`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Total `(class, member)` entries (`Σ_C |Members[C]|`).
    pub entries: usize,
    /// Unambiguous entries.
    pub red: usize,
    /// Ambiguous entries.
    pub blue: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpplookup_chg::fixtures;

    fn outcome(g: &Chg, class: &str, member: &str) -> LookupOutcome {
        let t = LookupTable::build(g);
        t.lookup(
            g.class_by_name(class).unwrap(),
            g.member_by_name(member).unwrap(),
        )
    }

    #[test]
    fn members_of_is_rank_ordered() {
        let g = fixtures::fig3();
        let table = LookupTable::build(&g);
        for c in g.classes() {
            let ids: Vec<MemberId> = table.members_of(c).collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            assert_eq!(
                ids,
                sorted,
                "members_of({}) not rank-ordered",
                g.class_name(c)
            );
        }
        let h = g.class_by_name("H").unwrap();
        assert_eq!(table.members_of(h).count(), 2);
    }

    #[test]
    fn fig1_ambiguous() {
        let g = fixtures::fig1();
        assert!(matches!(
            outcome(&g, "E", "m"),
            LookupOutcome::Ambiguous { .. }
        ));
    }

    #[test]
    fn fig2_resolves_to_d() {
        let g = fixtures::fig2();
        match outcome(&g, "E", "m") {
            LookupOutcome::Resolved { class, .. } => assert_eq!(g.class_name(class), "D"),
            other => panic!("expected D, got {other:?}"),
        }
    }

    #[test]
    fn fig3_foo_and_bar() {
        let g = fixtures::fig3();
        match outcome(&g, "H", "foo") {
            LookupOutcome::Resolved {
                class,
                least_virtual,
            } => {
                assert_eq!(g.class_name(class), "G");
                assert!(least_virtual.is_omega());
            }
            other => panic!("expected G::foo, got {other:?}"),
        }
        match outcome(&g, "H", "bar") {
            LookupOutcome::Ambiguous { witnesses } => {
                // Figure 7: lookup[H, bar] = Blue {Ω}.
                assert_eq!(witnesses, vec![LeastVirtual::Omega]);
            }
            other => panic!("expected ambiguity, got {other:?}"),
        }
        // Figure 6: lookup at D and F ambiguous for foo.
        assert!(matches!(
            outcome(&g, "D", "foo"),
            LookupOutcome::Ambiguous { .. }
        ));
        assert!(matches!(
            outcome(&g, "F", "foo"),
            LookupOutcome::Ambiguous { .. }
        ));
        assert!(matches!(
            outcome(&g, "F", "bar"),
            LookupOutcome::Ambiguous { .. }
        ));
        match outcome(&g, "G", "foo") {
            LookupOutcome::Resolved { class, .. } => assert_eq!(g.class_name(class), "G"),
            other => panic!("expected G, got {other:?}"),
        }
    }

    #[test]
    fn fig3_blue_abstractions_match_figure6() {
        // Figure 6: at D the reds demote to blue {Ω}; propagated through
        // the virtual edge D→F this becomes blue {D}.
        let g = fixtures::fig3();
        let t = LookupTable::build(&g);
        let foo = g.member_by_name("foo").unwrap();
        let d = g.class_by_name("D").unwrap();
        let f = g.class_by_name("F").unwrap();
        assert_eq!(
            t.entry(d, foo),
            Some(&Entry::Blue(vec![LeastVirtual::Omega]))
        );
        assert_eq!(
            t.entry(f, foo),
            Some(&Entry::Blue(vec![LeastVirtual::Class(d)]))
        );
    }

    #[test]
    fn fig9_unambiguous_c() {
        let g = fixtures::fig9();
        match outcome(&g, "E", "m") {
            LookupOutcome::Resolved {
                class,
                least_virtual,
            } => {
                assert_eq!(g.class_name(class), "C");
                assert!(least_virtual.is_omega());
            }
            other => panic!("fig9 must resolve to C::m, got {other:?}"),
        }
    }

    #[test]
    fn not_found_for_unknown_member() {
        let mut b = cpplookup_chg::ChgBuilder::new();
        let base = b.class("Base");
        let derived = b.class("Derived");
        let sibling = b.class("Sibling");
        b.member(base, "m");
        b.derive(derived, base, cpplookup_chg::Inheritance::NonVirtual)
            .unwrap();
        let ghost = b.intern_member_name("ghost");
        let g = b.finish().unwrap();
        let m = g.member_by_name("m").unwrap();
        let t = LookupTable::build(&g);
        assert!(t.lookup(base, m).is_resolved());
        assert!(t.lookup(derived, m).is_resolved(), "inherited member found");
        assert_eq!(t.lookup(sibling, m), LookupOutcome::NotFound);
        assert_eq!(t.lookup(derived, ghost), LookupOutcome::NotFound);
    }

    #[test]
    fn static_diamond_semantics() {
        let g = fixtures::static_diamond();
        let d = g.class_by_name("D").unwrap();
        let s = g.member_by_name("s").unwrap();
        let dm = g.member_by_name("d").unwrap();
        let t = LookupTable::build(&g);
        match t.lookup(d, s) {
            LookupOutcome::Resolved { class, .. } => assert_eq!(g.class_name(class), "A"),
            other => panic!("static member must resolve, got {other:?}"),
        }
        assert!(matches!(t.lookup(d, dm), LookupOutcome::Ambiguous { .. }));
        // With the rule disabled, both are ambiguous (pure Definition 9).
        let t9 = LookupTable::build_with(
            &g,
            LookupOptions {
                statics: StaticRule::Ignore,
            },
        );
        assert!(matches!(t9.lookup(d, s), LookupOutcome::Ambiguous { .. }));
    }

    #[test]
    fn static_override_mix_is_ambiguous_at_t() {
        // The counterexample to propagating only a representative of a
        // shared-static set (see the fixture's docs): J resolves, T does
        // not.
        let g = fixtures::static_override_mix();
        let t = LookupTable::build(&g);
        let id = g.member_by_name("id").unwrap();
        let j = g.class_by_name("J").unwrap();
        let tt = g.class_by_name("T").unwrap();
        match t.lookup(j, id) {
            LookupOutcome::Resolved { class, .. } => assert_eq!(g.class_name(class), "S0"),
            other => panic!("lookup(J, id) must resolve, got {other:?}"),
        }
        // The J entry is a shared-static *set* carrying both lvs.
        match t.entry(j, id) {
            Some(Entry::Red { shared, .. }) => assert!(!shared.is_empty()),
            other => panic!("expected shared-static red at J, got {other:?}"),
        }
        assert!(
            matches!(t.lookup(tt, id), LookupOutcome::Ambiguous { .. }),
            "W::id does not dominate the replicated S0::id"
        );
    }

    #[test]
    fn path_recovery_matches_paper() {
        let g = fixtures::fig3();
        let t = LookupTable::build(&g);
        let h = g.class_by_name("H").unwrap();
        let foo = g.member_by_name("foo").unwrap();
        let bar = g.member_by_name("bar").unwrap();
        let p = t.resolve_path(&g, h, foo).unwrap();
        assert_eq!(p.display(&g).to_string(), "GH");
        assert_eq!(t.resolve_path(&g, h, bar), None, "ambiguous: no path");
        // fig2: the winning path for E::m is B·D? No — D declares m, so
        // the path is D→E.
        let g2 = fixtures::fig2();
        let t2 = LookupTable::build(&g2);
        let e2 = g2.class_by_name("E").unwrap();
        let m2 = g2.member_by_name("m").unwrap();
        assert_eq!(
            t2.resolve_path(&g2, e2, m2)
                .unwrap()
                .display(&g2)
                .to_string(),
            "DE"
        );
    }

    #[test]
    fn members_sets_accumulate() {
        let g = fixtures::fig3();
        let t = LookupTable::build(&g);
        let h = g.class_by_name("H").unwrap();
        let mut names: Vec<&str> = t.members_of(h).map(|m| g.member_name(m)).collect();
        names.sort_unstable();
        assert_eq!(names, vec!["bar", "foo"]);
        let a = g.class_by_name("A").unwrap();
        assert_eq!(t.members_of(a).count(), 1);
    }

    #[test]
    fn stats_count_red_and_blue() {
        let g = fixtures::fig3();
        let t = LookupTable::build(&g);
        let s = t.stats();
        assert_eq!(s.entries, s.red + s.blue);
        assert!(s.blue >= 4, "D/F for foo, F/H for bar at least");
        assert!(s.red >= 8);
        assert!(format!("{t:?}").contains("entries"));
    }

    #[test]
    fn dominance_diamond_resolves_left() {
        let g = fixtures::dominance_diamond();
        match outcome(&g, "Bottom", "f") {
            LookupOutcome::Resolved {
                class,
                least_virtual,
            } => {
                assert_eq!(g.class_name(class), "Left");
                assert!(least_virtual.is_omega());
            }
            other => panic!("expected Left::f, got {other:?}"),
        }
    }

    #[test]
    fn deterministic_across_rebuilds() {
        let g = fixtures::fig3();
        let t1 = LookupTable::build(&g);
        let t2 = LookupTable::build(&g);
        for c in g.classes() {
            for m in g.member_ids() {
                assert_eq!(t1.entry(c, m), t2.entry(c, m));
            }
        }
    }
}

#[cfg(test)]
mod merge_micro_tests {
    //! Line-level coverage of the Figure 8 merge states.

    use super::*;
    use crate::abstraction::LeastVirtual;
    use cpplookup_chg::fixtures;

    fn fig3_ctx() -> (Chg, MemberId) {
        let g = fixtures::fig3();
        let foo = g.member_by_name("foo").unwrap();
        (g, foo)
    }

    #[test]
    fn first_red_becomes_candidate() {
        let (g, foo) = fig3_ctx();
        let a = g.class_by_name("A").unwrap();
        let b = g.class_by_name("B").unwrap();
        let mut merge = Merge::new();
        assert!(merge.is_empty());
        merge.add_red(&g, foo, RedAbs::generated(a), &[], b, StaticRule::Cpp);
        assert!(!merge.is_empty());
        match merge.finish(&g) {
            Entry::Red { abs, via, shared } => {
                assert_eq!(abs.ldc, a);
                assert_eq!(via, Some(b));
                assert!(shared.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn incomparable_reds_demote_to_blue() {
        // Two (A, Ω)-style reds from different classes: neither dominates
        // (rule 2 needs non-Ω, rule 1 needs a virtual base).
        let (g, foo) = fig3_ctx();
        let a = g.class_by_name("A").unwrap();
        let e = g.class_by_name("E").unwrap();
        let b = g.class_by_name("B").unwrap();
        let c = g.class_by_name("C").unwrap();
        let mut merge = Merge::new();
        merge.add_red(&g, foo, RedAbs::generated(a), &[], b, StaticRule::Cpp);
        merge.add_red(&g, foo, RedAbs::generated(e), &[], c, StaticRule::Cpp);
        match merge.finish(&g) {
            Entry::Blue(set) => assert_eq!(set, vec![LeastVirtual::Omega]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn late_red_can_rescue_after_demotion() {
        // Mirrors fig9's E: two incomparable reds demote, a third
        // dominates everything in toBeDominated.
        let g = fixtures::fig9();
        let m = g.member_by_name("m").unwrap();
        let a = g.class_by_name("A").unwrap();
        let b = g.class_by_name("B").unwrap();
        let c = g.class_by_name("C").unwrap();
        let d = g.class_by_name("D").unwrap();
        let mut merge = Merge::new();
        merge.add_red(
            &g,
            m,
            RedAbs {
                ldc: a,
                lv: LeastVirtual::Class(a),
            },
            &[],
            a,
            StaticRule::Cpp,
        );
        merge.add_red(
            &g,
            m,
            RedAbs {
                ldc: b,
                lv: LeastVirtual::Class(b),
            },
            &[],
            b,
            StaticRule::Cpp,
        );
        merge.add_red(&g, m, RedAbs::generated(c), &[], d, StaticRule::Cpp);
        match merge.finish(&g) {
            Entry::Red { abs, .. } => assert_eq!(abs.ldc, c),
            other => panic!("the rescue must happen: {other:?}"),
        }
    }

    #[test]
    fn dominated_incoming_red_is_killed() {
        // Candidate (G, Ω) then incoming (A, D): D is a virtual base of
        // G in fig3, so the incoming is dominated and dropped.
        let (g, foo) = fig3_ctx();
        let gg = g.class_by_name("G").unwrap();
        let a = g.class_by_name("A").unwrap();
        let d = g.class_by_name("D").unwrap();
        let f = g.class_by_name("F").unwrap();
        let mut merge = Merge::new();
        merge.add_red(&g, foo, RedAbs::generated(gg), &[], gg, StaticRule::Cpp);
        merge.add_red(
            &g,
            foo,
            RedAbs {
                ldc: a,
                lv: LeastVirtual::Class(d),
            },
            &[],
            f,
            StaticRule::Cpp,
        );
        match merge.finish(&g) {
            Entry::Red { abs, .. } => assert_eq!(abs.ldc, gg),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn blue_only_merge_stays_blue() {
        let (g, _foo) = fig3_ctx();
        let d = g.class_by_name("D").unwrap();
        let mut merge = Merge::new();
        merge.add_blue(LeastVirtual::Class(d));
        merge.add_blue(LeastVirtual::Omega);
        merge.add_blue(LeastVirtual::Class(d)); // dedup
        match merge.finish(&g) {
            Entry::Blue(set) => {
                assert_eq!(set, vec![LeastVirtual::Omega, LeastVirtual::Class(d)])
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn candidate_dominates_blue_leftovers() {
        // Candidate (G, Ω) dominates a blue D (virtual base of G) but not
        // a blue Ω.
        let (g, foo) = fig3_ctx();
        let gg = g.class_by_name("G").unwrap();
        let d = g.class_by_name("D").unwrap();
        let mut merge = Merge::new();
        merge.add_blue(LeastVirtual::Class(d));
        merge.add_red(&g, foo, RedAbs::generated(gg), &[], gg, StaticRule::Cpp);
        assert!(matches!(merge.finish(&g), Entry::Red { .. }));

        let mut merge = Merge::new();
        merge.add_blue(LeastVirtual::Omega);
        merge.add_red(&g, foo, RedAbs::generated(gg), &[], gg, StaticRule::Cpp);
        match merge.finish(&g) {
            Entry::Blue(set) => {
                // The candidate's own lv joins the surviving witnesses
                // (Figure 8, line 43).
                assert_eq!(set, vec![LeastVirtual::Omega]);
            }
            other => panic!("{other:?}"),
        }
    }
}
