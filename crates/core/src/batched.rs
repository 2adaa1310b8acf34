//! Single-sweep batched table construction.
//!
//! The class-major eager builder and the per-member column build it
//! replaced (both kept as oracles in `cpplookup-baselines`) pay for
//! `Vec`/`BTreeSet` clones and hash probes on every propagation step. This module reaches the
//! paper's `O((|M|+|N|)·(|N|+|E|))` bound in practice by combining:
//!
//! 1. the [`Csr`] flat view of the hierarchy — one contiguous
//!    rank-ordered adjacency shared by every builder;
//! 2. **member-frontier pruning**: per member, the bitset (over topo
//!    ranks) of classes where the member can possibly be visible — the
//!    descendants-or-self closure of its declaring classes. The sweep
//!    touches only live `(class, member)` pairs, never `|N|·|M|`;
//! 3. an **arena-interned abstraction store** ([`Pool`]): blue
//!    `leastVirtual` sets and red `(ldc, leastVirtual)` pairs are
//!    deduplicated into bump arenas addressed by `u32` handles, so the
//!    hot merge loop compares and copies handles instead of cloning
//!    sets.
//!
//! All builders produce entries byte-identical to the reference
//! builder (asserted by `tests/build_equiv.rs` and the corpus golden
//! set).

use std::time::Instant;

use cpplookup_chg::fxmap::{fxhash, FxHashMap};
use cpplookup_chg::{BitSet, Chg, ClassId, Csr, Inheritance, MemberId};

use crate::abstraction::{LeastVirtual, RedAbs, StaticRule};
use crate::result::Entry;
use crate::table::LookupOptions;

/// Handle of the interned empty `leastVirtual` set.
const EMPTY_SET: u32 = 0;

/// Sentinel for "no via edge" in [`Slot::Red`] (a generated definition).
const NO_VIA: u32 = u32::MAX;

/// Arena-interned store of the abstractions flowing through one sweep.
///
/// Sets are stored as sorted, deduplicated slices in one bump vector
/// and addressed by dense `u32` handles; equal sets share a handle, so
/// set equality — the common case on diamond-free stretches of the
/// hierarchy — is a `u32` comparison, and extension through a
/// non-virtual edge is the identity on the handle.
pub(crate) struct Pool {
    /// Bump storage for all interned set elements.
    elems: Vec<LeastVirtual>,
    /// Handle → `(start, len)` into `elems`. Handle 0 is the empty set.
    sets: Vec<(u32, u32)>,
    /// Content hash → candidate handles (collisions resolved by slice
    /// comparison), so dedup does not duplicate the keys.
    set_ids: FxHashMap<u64, Vec<u32>>,
    /// Interned red abstractions: `(abs, shared-set handle)` pairs.
    reds: Vec<(RedAbs, u32)>,
    /// Dedup index for `reds`.
    red_ids: FxHashMap<(RedAbs, u32), u32>,
}

impl Pool {
    fn new() -> Self {
        let mut set_ids: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
        let empty: &[LeastVirtual] = &[];
        set_ids.insert(fxhash(&empty), vec![EMPTY_SET]);
        Pool {
            elems: Vec::new(),
            sets: vec![(0, 0)],
            set_ids,
            reds: Vec::new(),
            red_ids: FxHashMap::default(),
        }
    }

    /// The elements of set `h`, sorted ascending and deduplicated.
    pub(crate) fn set(&self, h: u32) -> &[LeastVirtual] {
        let (start, len) = self.sets[h as usize];
        &self.elems[start as usize..(start + len) as usize]
    }

    /// How many set handles the pool has issued: every handle is below.
    pub(crate) fn set_count(&self) -> usize {
        self.sets.len()
    }

    /// Interns a sorted, deduplicated slice, returning its handle.
    fn intern_sorted(&mut self, lvs: &[LeastVirtual]) -> u32 {
        debug_assert!(lvs.windows(2).all(|w| w[0] < w[1]), "sorted + dedup");
        if lvs.is_empty() {
            return EMPTY_SET;
        }
        let hash = fxhash(&lvs);
        if let Some(candidates) = self.set_ids.get(&hash) {
            for &h in candidates {
                if self.set(h) == lvs {
                    return h;
                }
            }
        }
        let start = u32::try_from(self.elems.len()).expect("abstraction arena overflow");
        self.elems.extend_from_slice(lvs);
        let h = u32::try_from(self.sets.len()).expect("set handle overflow");
        self.sets.push((start, lvs.len() as u32));
        self.set_ids.entry(hash).or_default().push(h);
        h
    }

    /// Interns a red `(abs, shared)` pair, returning its handle.
    fn intern_red(&mut self, abs: RedAbs, shared: u32) -> u32 {
        if let Some(&h) = self.red_ids.get(&(abs, shared)) {
            return h;
        }
        let h = u32::try_from(self.reds.len()).expect("red handle overflow");
        self.reds.push((abs, shared));
        self.red_ids.insert((abs, shared), h);
        h
    }

    /// The `(abs, shared-set handle)` behind a red handle.
    fn red(&self, h: u32) -> (RedAbs, u32) {
        self.reds[h as usize]
    }

    /// Handle of set `h` minus `lv`; identity when `lv` is absent.
    fn remove_lv(&mut self, h: u32, lv: LeastVirtual) -> u32 {
        let stripped: Vec<LeastVirtual> = {
            let s = self.set(h);
            match s.binary_search(&lv) {
                Err(_) => return h,
                Ok(i) => {
                    let mut v = Vec::with_capacity(s.len() - 1);
                    v.extend_from_slice(&s[..i]);
                    v.extend_from_slice(&s[i + 1..]);
                    v
                }
            }
        };
        self.intern_sorted(&stripped)
    }

    /// Extends every element of set `h` through an edge to `base`
    /// (Definition 15 applied element-wise). Non-virtual edges are the
    /// identity on whole sets; a virtual edge only rewrites `Ω` to
    /// `Class(base)` — and `Ω` sorts first, so "contains `Ω`" is a
    /// first-element check.
    fn extend_set(&mut self, h: u32, base: ClassId, is_virtual: bool) -> u32 {
        if !is_virtual {
            return h;
        }
        let extended: Vec<LeastVirtual> = {
            let s = self.set(h);
            if s.first() != Some(&LeastVirtual::Omega) {
                return h;
            }
            let rest = &s[1..];
            let nb = LeastVirtual::Class(base);
            match rest.binary_search(&nb) {
                Ok(_) => rest.to_vec(),
                Err(i) => {
                    let mut v = Vec::with_capacity(rest.len() + 1);
                    v.extend_from_slice(&rest[..i]);
                    v.push(nb);
                    v.extend_from_slice(&rest[i..]);
                    v
                }
            }
        };
        self.intern_sorted(&extended)
    }
}

/// Lemma 4 applied to one abstraction: whether the red `(abs, shared)`
/// dominates the definition abstracted by `b`.
#[inline]
fn dominates_one(chg: &Chg, abs: RedAbs, shared: &[LeastVirtual], b: LeastVirtual) -> bool {
    match b {
        LeastVirtual::Class(v) => {
            chg.is_virtual_base_of(v, abs.ldc) || abs.lv == b || shared.binary_search(&b).is_ok()
        }
        LeastVirtual::Omega => false,
    }
}

/// Whether red candidate `cand` dominates *all* definitions of `other`
/// (its representative lv plus its shared set).
fn dominates_all(chg: &Chg, pool: &Pool, cand: BCand, other: BCand) -> bool {
    let shared = pool.set(cand.shared);
    std::iter::once(other.abs.lv)
        .chain(pool.set(other.shared).iter().copied())
        .all(|b| dominates_one(chg, cand.abs, shared, b))
}

/// A candidate red in handle form: the shared set lives in the pool and
/// — like `RedCand` in the reference merge — excludes `abs.lv`.
#[derive(Clone, Copy)]
struct BCand {
    abs: RedAbs,
    via: ClassId,
    shared: u32,
}

/// The table entry for one `(class, member)` pair in handle form.
#[derive(Clone, Copy)]
enum Slot {
    /// Unambiguous: a red handle plus the via-edge class index
    /// ([`NO_VIA`] for a generated definition).
    Red { red: u32, via: u32 },
    /// Ambiguous: the handle of the blue witness set.
    Blue { set: u32 },
}

/// One visible `(class, member)` verdict as a [`Sweep`] hands it out:
/// the table entry with its sets left as handles into the sweep's
/// [`Pool`].
#[derive(Clone, Copy)]
pub(crate) enum Swept {
    /// Unambiguous: the winning abstraction, the via edge (`None` for a
    /// generated definition) and the handle of the shared set.
    Red {
        abs: RedAbs,
        via: Option<ClassId>,
        shared: u32,
    },
    /// Ambiguous: the handle of the witness set.
    Blue { set: u32 },
}

impl Swept {
    /// Materializes the verdict into the [`Entry`] form the tables store.
    fn to_entry(self, pool: &Pool) -> Entry {
        match self {
            Swept::Red { abs, via, shared } => Entry::Red {
                abs,
                via,
                shared: pool.set(shared).to_vec(),
            },
            Swept::Blue { set } => Entry::Blue(pool.set(set).to_vec()),
        }
    }
}

/// Figure 8's per-member merge (lines 14–44) over pool handles —
/// semantically identical to `table::Merge`, but merge/demote is handle
/// bookkeeping instead of `BTreeSet` cloning.
#[derive(Default)]
struct BMerge {
    candidate: Option<BCand>,
    /// The `toBeDominated` set, kept sorted + deduplicated.
    demoted: Vec<LeastVirtual>,
    work: Work,
}

/// Local merge work tallies, flushed to the propagation counters by
/// [`BMerge::finish_slot`] exactly like the reference merge.
#[derive(Clone, Copy, Default)]
struct Work {
    reds: u32,
    blues: u32,
    demotions: u32,
}

impl BMerge {
    /// Inserts `lv` into the sorted `toBeDominated` set.
    fn demote(&mut self, lv: LeastVirtual) {
        if let Err(i) = self.demoted.binary_search(&lv) {
            self.demoted.insert(i, lv);
        }
    }

    /// Lines 18–28: a red (already extended through the edge) arrives
    /// from direct base `via`. `shared` may still contain `abs.lv`; it
    /// is stripped here, mirroring the reference merge.
    #[allow(clippy::too_many_arguments)] // mirrors `Merge::add_red` plus the pool
    fn add_red(
        &mut self,
        pool: &mut Pool,
        chg: &Chg,
        m: MemberId,
        abs: RedAbs,
        shared: u32,
        via: ClassId,
        statics: StaticRule,
    ) {
        self.work.reds += 1;
        let incoming = BCand {
            abs,
            via,
            shared: pool.remove_lv(shared, abs.lv),
        };
        let Some(cand) = self.candidate.take() else {
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
            let merged: Vec<LeastVirtual> = {
                let a = pool.set(cand.shared);
                let b = pool.set(incoming.shared);
                let mut v = Vec::with_capacity(a.len() + b.len() + 1);
                v.extend_from_slice(a);
                v.extend_from_slice(b);
                v.push(incoming.abs.lv);
                v.sort_unstable();
                v.dedup();
                v.retain(|&lv| lv != cand.abs.lv);
                v
            };
            let shared = pool.intern_sorted(&merged);
            self.candidate = Some(BCand { shared, ..cand });
        } else if dominates_all(chg, pool, incoming, cand) {
            self.candidate = Some(incoming);
        } else if !dominates_all(chg, pool, cand, incoming) {
            // Neither dominates: everything becomes blue.
            self.work.demotions += 1;
            for c in [cand, incoming] {
                self.demote(c.abs.lv);
                let (lo, len) = pool.sets[c.shared as usize];
                for i in lo..lo + len {
                    self.demote(pool.elems[i as usize]);
                }
            }
            // candidate stays None (the paper's `nocandidate := true`).
        } else {
            // The incoming definition is dominated — killed.
            self.candidate = Some(cand);
        }
    }

    /// Lines 29–32: one blue element, already extended through the edge.
    fn add_blue(&mut self, lv: LeastVirtual) {
        self.work.blues += 1;
        self.demote(lv);
    }

    /// Lines 34–44: resolve the merge into a slot, flushing the work
    /// tallies exactly like the reference merge.
    fn finish_slot(self, pool: &mut Pool, chg: &Chg) -> Slot {
        let work = self.work;
        let slot = match self.candidate {
            None => Slot::Blue {
                set: pool.intern_sorted(&self.demoted),
            },
            Some(cand) => {
                let mut surviving = Vec::new();
                {
                    let shared = pool.set(cand.shared);
                    for &b in &self.demoted {
                        if !dominates_one(chg, cand.abs, shared, b) {
                            surviving.push(b);
                        }
                    }
                }
                if surviving.is_empty() {
                    Slot::Red {
                        red: pool.intern_red(cand.abs, cand.shared),
                        via: cand.via.index() as u32,
                    }
                } else {
                    surviving.push(cand.abs.lv);
                    surviving.extend_from_slice(pool.set(cand.shared));
                    surviving.sort_unstable();
                    surviving.dedup();
                    Slot::Blue {
                        set: pool.intern_sorted(&surviving),
                    }
                }
            }
        };
        crate::obs::propagation().flush_merge(
            work.reds,
            work.blues,
            work.demotions,
            matches!(slot, Slot::Blue { .. }),
        );
        slot
    }
}

/// Per-member visibility frontiers: for each member (in id order), the
/// bitset over topo ranks of the classes where it can be visible — the
/// descendants-or-self closure of its declaring classes.
///
/// Returns the frontiers plus the live-pair count (`Σ |frontier|`); the
/// pruned-pair count is `|N|·|M| − live`.
fn member_frontiers(chg: &Chg, csr: &Csr) -> (Vec<BitSet>, u64) {
    let n = csr.class_count();
    let mut frontiers = Vec::with_capacity(chg.member_name_count());
    let mut live = 0u64;
    let mut stack: Vec<u32> = Vec::new();
    for m in chg.member_ids() {
        let mut f = BitSet::new(n);
        for &c in chg.declaring_classes(m) {
            let r = csr.rank_of(c);
            if f.insert(r as usize) {
                stack.push(r);
            }
        }
        while let Some(r) = stack.pop() {
            for &child in csr.children(r) {
                if f.insert(child as usize) {
                    stack.push(child);
                }
            }
        }
        live += f.len() as u64;
        frontiers.push(f);
    }
    (frontiers, live)
}

/// The reusable state of the sweep: a dense rank-indexed
/// slot array with epoch stamping (one epoch per member, so no clearing
/// between columns) plus the abstraction pool.
struct ColumnSpace {
    slots: Vec<Slot>,
    /// `stamp[r] == epoch` iff `slots[r]` belongs to the current member.
    /// An unstamped parent means the member is not visible there.
    stamp: Vec<u32>,
    epoch: u32,
    pool: Pool,
}

impl ColumnSpace {
    fn new(classes: usize) -> Self {
        ColumnSpace {
            slots: vec![Slot::Blue { set: EMPTY_SET }; classes],
            stamp: vec![u32::MAX; classes],
            epoch: 0,
            pool: Pool::new(),
        }
    }

    /// The handle-identity fast path for one `(class, member)` pair:
    /// when every live parent carries the *same* red handle and every
    /// edge extension is the identity (non-virtual, or nothing to
    /// rewrite from `Ω`), the full merge provably reproduces that very
    /// handle — so the slot is a handle copy plus a via pick, with no
    /// pool probe at all. Returns `None` when the slow merge is needed.
    ///
    /// Correctness (mirroring `BMerge` case by case): with one live
    /// parent the candidate is the parent's red unchanged. With several
    /// equal reds whose `lv` is a named class, either the static-merge
    /// rule keeps the first candidate (union of identical shared sets)
    /// or dominance replaces it with each equal incomer — same handle
    /// either way, only the via differs (first vs. last parent). Equal
    /// reds at `Ω` are mutually *non*-dominating (Lemma 4 has no rule
    /// for `Ω`) and must demote, so that case falls through.
    fn try_fast_slot(
        &mut self,
        chg: &Chg,
        csr: &Csr,
        options: LookupOptions,
        m: MemberId,
        r: usize,
    ) -> Option<Slot> {
        let mut first: Option<(u32, ClassId)> = None;
        let mut last_base = ClassId::from_index(0);
        let mut live = 0u32;
        for edge in csr.parents(r as u32) {
            if self.stamp[edge.base_rank as usize] != self.epoch {
                continue;
            }
            let Slot::Red { red, .. } = self.slots[edge.base_rank as usize] else {
                return None; // blue parents always take the slow merge
            };
            let (abs, shared) = self.pool.red(red);
            if edge.is_virtual
                && (abs.lv == LeastVirtual::Omega
                    || self.pool.set(shared).first() == Some(&LeastVirtual::Omega))
            {
                return None; // the Ω → Class(base) rewrite is not the identity
            }
            match first {
                None => first = Some((red, edge.base)),
                Some((h, _)) if h == red && abs.lv != LeastVirtual::Omega => {}
                _ => return None, // distinct reds, or equal Ω-reds (which demote)
            }
            last_base = edge.base;
            live += 1;
        }
        let (red, first_base) = first?;
        let (abs, _) = self.pool.red(red);
        let via = if live == 1 {
            first_base
        } else {
            // The static-merge rule keeps the first candidate's via;
            // plain dominance lets each equal incomer replace it.
            let mergeable = options.statics == StaticRule::Cpp
                && chg
                    .member_decl(abs.ldc, m)
                    .is_some_and(|d| d.kind.is_static_for_lookup());
            if mergeable {
                first_base
            } else {
                last_base
            }
        };
        crate::obs::propagation().flush_merge(live, 0, 0, false);
        Some(Slot::Red {
            red,
            via: via.index() as u32,
        })
    }

    /// Propagates member `m` over its frontier (ascending rank = topo
    /// order), appending `(class, slot)` per visible class to `out`.
    fn sweep_member(
        &mut self,
        chg: &Chg,
        csr: &Csr,
        options: LookupOptions,
        m: MemberId,
        frontier: &BitSet,
        out: &mut Vec<(ClassId, Slot)>,
    ) {
        self.epoch += 1;
        for r in frontier.iter() {
            let c = csr.class_at(r as u32);
            // Line 12: a generated definition kills everything arriving
            // from bases.
            let slot = if chg.declares(c, m) {
                Slot::Red {
                    red: self.pool.intern_red(RedAbs::generated(c), EMPTY_SET),
                    via: NO_VIA,
                }
            } else if let Some(fast) = self.try_fast_slot(chg, csr, options, m, r) {
                fast
            } else {
                let mut merge = BMerge::default();
                for edge in csr.parents(r as u32) {
                    // Unstamped parent ⇒ m not visible in that base.
                    if self.stamp[edge.base_rank as usize] != self.epoch {
                        continue;
                    }
                    let inheritance = if edge.is_virtual {
                        Inheritance::Virtual
                    } else {
                        Inheritance::NonVirtual
                    };
                    match self.slots[edge.base_rank as usize] {
                        Slot::Red { red, .. } => {
                            let (abs, shared) = self.pool.red(red);
                            let ext_shared =
                                self.pool.extend_set(shared, edge.base, edge.is_virtual);
                            merge.add_red(
                                &mut self.pool,
                                chg,
                                m,
                                abs.extend(edge.base, inheritance),
                                ext_shared,
                                edge.base,
                                options.statics,
                            );
                        }
                        Slot::Blue { set } => {
                            let (lo, len) = self.pool.sets[set as usize];
                            for i in lo..lo + len {
                                let lv = self.pool.elems[i as usize];
                                merge.add_blue(lv.extend(edge.base, inheritance));
                            }
                        }
                    }
                }
                merge.finish_slot(&mut self.pool, chg)
            };
            self.slots[r] = slot;
            self.stamp[r] = self.epoch;
            out.push((c, slot));
        }
    }

    /// A slot in the handle form a [`Sweep`] hands out.
    fn swept(&self, slot: Slot) -> Swept {
        match slot {
            Slot::Red { red, via } => {
                let (abs, shared) = self.pool.red(red);
                Swept::Red {
                    abs,
                    via: (via != NO_VIA).then(|| ClassId::from_index(via as usize)),
                    shared,
                }
            }
            Slot::Blue { set } => Swept::Blue { set },
        }
    }
}

/// The sequential batched sweep: every member in ascending id, each
/// over its frontier. It is the one member loop behind both the table
/// build ([`build_entries`]) and the one-pass index compile
/// ([`DispatchIndex::compile`](crate::serve::DispatchIndex::compile)).
pub(crate) struct Sweep<'a> {
    chg: &'a Chg,
    options: LookupOptions,
    csr: Csr,
    frontiers: Vec<BitSet>,
    live: u64,
    start: Instant,
}

impl<'a> Sweep<'a> {
    /// Flattens `chg` and computes every member's frontier.
    pub(crate) fn new(chg: &'a Chg, options: LookupOptions) -> Self {
        let start = Instant::now();
        let csr = Csr::build(chg);
        let (frontiers, live) = member_frontiers(chg, &csr);
        Sweep {
            chg,
            options,
            csr,
            frontiers,
            live,
            start,
        }
    }

    /// Per class index, how many verdicts [`run`](Self::run) will hand
    /// out for it: the length of its table row.
    pub(crate) fn row_lens(&self) -> Vec<u32> {
        let mut lens = vec![0u32; self.chg.class_count()];
        for f in &self.frontiers {
            for r in f.iter() {
                lens[self.csr.class_at(r as u32).index()] += 1;
            }
        }
        lens
    }

    /// Sweeps every member in ascending id and hands `visit` each
    /// visible `(class, member)` verdict, with the pool its handles
    /// index; then records the build (strategy `batched`). Returns the
    /// pool, which the handles of every verdict still index.
    pub(crate) fn run(self, mut visit: impl FnMut(&Pool, ClassId, MemberId, Swept)) -> Pool {
        let n = self.chg.class_count();
        let mut space = ColumnSpace::new(n);
        let mut out = Vec::new();
        for (i, m) in self.chg.member_ids().enumerate() {
            out.clear();
            space.sweep_member(
                self.chg,
                &self.csr,
                self.options,
                m,
                &self.frontiers[i],
                &mut out,
            );
            crate::obs::propagation().nodes_visited_add(out.len() as u64);
            for &(c, slot) in &out {
                visit(&space.pool, c, m, space.swept(slot));
            }
        }
        let pruned = (n as u64) * (self.frontiers.len() as u64) - self.live;
        crate::obs::table_built("batched", self.live, pruned, elapsed_ns(self.start));
        space.pool
    }
}

/// Builds all per-class entry maps with the sequential batched sweep.
pub(crate) fn build_entries(chg: &Chg, options: LookupOptions) -> Vec<FxHashMap<MemberId, Entry>> {
    let mut entries: Vec<FxHashMap<MemberId, Entry>> =
        vec![FxHashMap::default(); chg.class_count()];
    Sweep::new(chg, options).run(|pool, c, m, swept| {
        entries[c.index()].insert(m, swept.to_entry(pool));
    });
    entries
}

/// Elapsed nanoseconds since `start`, saturated into `u64`.
pub(crate) fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpplookup_chg::fixtures;

    fn graphs() -> Vec<Chg> {
        vec![
            fixtures::fig1(),
            fixtures::fig2(),
            fixtures::fig3(),
            fixtures::fig9(),
            fixtures::static_diamond(),
            fixtures::static_override_mix(),
            fixtures::dominance_diamond(),
            cpplookup_chg::ChgBuilder::new().finish().unwrap(),
        ]
    }

    #[test]
    fn frontier_matches_visibility() {
        for g in graphs() {
            let csr = Csr::build(&g);
            let (frontiers, live) = member_frontiers(&g, &csr);
            let mut expected_live = 0u64;
            for (i, m) in g.member_ids().enumerate() {
                for c in g.classes() {
                    let visible = g.is_member_visible(c, m);
                    expected_live += u64::from(visible);
                    assert_eq!(
                        frontiers[i].contains(csr.rank_of(c) as usize),
                        visible,
                        "frontier({}) at {}",
                        g.member_name(m),
                        g.class_name(c)
                    );
                }
            }
            assert_eq!(live, expected_live);
        }
    }

    #[test]
    fn pool_interning_dedups_and_roundtrips() {
        let mut pool = Pool::new();
        let d = ClassId::from_index(3);
        let lvs = [LeastVirtual::Omega, LeastVirtual::Class(d)];
        let h1 = pool.intern_sorted(&lvs);
        let h2 = pool.intern_sorted(&lvs);
        assert_eq!(h1, h2);
        assert_eq!(pool.set(h1), &lvs);
        assert_eq!(pool.intern_sorted(&[]), EMPTY_SET);
        assert!(pool.set(EMPTY_SET).is_empty());

        // remove_lv: identity on absent, re-interned on present.
        assert_eq!(
            pool.remove_lv(h1, LeastVirtual::Class(ClassId::from_index(9))),
            h1
        );
        let stripped = pool.remove_lv(h1, LeastVirtual::Omega);
        assert_eq!(pool.set(stripped), &[LeastVirtual::Class(d)]);

        // extend_set: identity unless a virtual edge rewrites Ω.
        let base = ClassId::from_index(5);
        assert_eq!(pool.extend_set(h1, base, false), h1);
        assert_eq!(pool.extend_set(stripped, base, true), stripped);
        let ext = pool.extend_set(h1, base, true);
        assert_eq!(
            pool.set(ext),
            &[LeastVirtual::Class(d), LeastVirtual::Class(base)]
        );
        // Ω → Class(d) when d is already present: dedup, not duplicate.
        let ext2 = pool.extend_set(h1, d, true);
        assert_eq!(pool.set(ext2), &[LeastVirtual::Class(d)]);
    }
}
