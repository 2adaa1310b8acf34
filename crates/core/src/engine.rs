//! A thread-safe lookup engine with incremental invalidation.
//!
//! [`LookupEngine`] is the deployment-shaped wrapper around the paper's
//! algorithm: it **owns** its class hierarchy, answers queries from a
//! sharded memo cache, and — unlike every other strategy in this crate —
//! survives hierarchy edits. C++ hierarchies only ever grow (new
//! classes, members, base edges), and Figure 8's propagation is a
//! distributive dataflow problem over the CHG in topological order, so
//! an edit invalidates a *computable* set of `(class, member)` entries:
//!
//! * `AddClass` changes no existing entry — the new class has no bases,
//!   members, or derived classes yet;
//! * `AddMember(c, m)` can only change `lookup[d, m]` for `d` in
//!   `{c} ∪ derived(c)`: entries of other members never see `m`, and a
//!   class outside the derived closure has the same visible definitions
//!   of `m` as before;
//! * `AddEdge(base → derived)` can only change `lookup[d, m]` for `d ∈
//!   {derived} ∪ derived(derived)`: such an edit changes which
//!   definitions are visible (and which classes are virtual bases)
//!   only inside that closure. A lookup entry at `d` depends on `d`'s
//!   ancestor set and on `is_virtual_base_of(v, ldc)` facts for those
//!   ancestors — for any class outside the closure, neither changes.
//!
//! The dirty set is recomputed in topological order, reusing every
//! untouched red/blue abstraction in the cache; on large hierarchies a
//! single-edge edit recomputes a small closure instead of the whole
//! table (experiment E18 quantifies the win). The edit-sequence
//! proptests and differential suite pin the equivalence
//! `engine ≡ from-scratch LookupTable ≡ subobject oracle`.
//!
//! # Concurrency model
//!
//! Queries ([`lookup`](LookupEngine::lookup),
//! [`entry`](LookupEngine::entry),
//! [`lookup_batch`](LookupEngine::lookup_batch)) take `&self` and are
//! safe to issue from many threads: the cache is sharded behind
//! `RwLock`s and all statistics are atomic. Edits take `&mut self`,
//! so the borrow checker serializes them against in-flight queries —
//! no query ever observes a half-applied edit.
//!
//! # Examples
//!
//! ```
//! use cpplookup_chg::fixtures;
//! use cpplookup_core::{LookupEngine, LookupOutcome};
//!
//! let mut engine = LookupEngine::new(fixtures::fig1());
//! let e = engine.chg().class_by_name("E").unwrap();
//! let m = engine.chg().member_by_name("m").unwrap();
//! // Figure 1: lookup(E, m) is ambiguous between A::m and D::m.
//! assert!(matches!(engine.lookup(e, m), LookupOutcome::Ambiguous { .. }));
//!
//! // Edit the hierarchy: declaring m directly in E resolves it.
//! engine.add_member(e, "m").unwrap();
//! match engine.lookup(e, m) {
//!     LookupOutcome::Resolved { class, .. } => assert_eq!(class, e),
//!     other => panic!("expected E::m, got {other:?}"),
//! }
//! assert_eq!(engine.generation(), 1);
//! ```

use std::sync::{Arc, RwLock};
use std::time::Instant;

use cpplookup_chg::{
    apply_edits, Access, Chg, ChgError, ClassId, Edit, Inheritance, MemberDecl, MemberId,
    MemberKind, Path,
};

use crate::api::MemberLookup;
use crate::fxmap::FxHashMap;
use crate::obs::{self, EngineMetrics};
use crate::result::{Entry, LookupOutcome};
use crate::table::{compute_entry_with, LookupOptions, LookupTable};

/// How the engine fills its cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EngineBacking {
    /// Compute the complete table up front, sequentially. Queries are
    /// pure cache reads; edits recompute their dirty set eagerly.
    #[default]
    Eager,
    /// Compute entries on first use (the memoising strategy of
    /// Section 5). Edits only drop their dirty set; recomputation
    /// happens lazily on the next query that needs it.
    Lazy,
    /// Like [`Eager`](EngineBacking::Eager), but the initial build
    /// shards member names across worker threads, and
    /// [`lookup_batch`](LookupEngine::lookup_batch) fans out across the
    /// same number of threads.
    Parallel {
        /// Worker thread count (clamped to at least 1).
        threads: usize,
    },
}

impl EngineBacking {
    /// Whether this backing keeps the cache complete: every visible
    /// `(class, member)` pair is cached, so a missing key *means*
    /// "member not visible" rather than "not computed yet".
    fn complete(self) -> bool {
        !matches!(self, EngineBacking::Lazy)
    }
}

/// Configuration for a [`LookupEngine`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineOptions {
    /// Semantics options forwarded to the lookup algorithm.
    pub lookup: LookupOptions,
    /// Cache-filling strategy.
    pub backing: EngineBacking,
    /// Number of cache shards (clamped to at least 1). More shards
    /// reduce lock contention for concurrent lazy-mode queries.
    pub shards: usize,
    /// Whether to accumulate per-query wall-clock timing into
    /// [`EngineStats::lookup_nanos`]. Off by default: reading the clock
    /// twice per query is measurable on nanosecond-scale cache hits.
    pub timing: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            lookup: LookupOptions::default(),
            backing: EngineBacking::default(),
            shards: 16,
            timing: false,
        }
    }
}

impl EngineOptions {
    /// Options selecting the lazy backing.
    pub fn lazy() -> Self {
        EngineOptions {
            backing: EngineBacking::Lazy,
            ..Self::default()
        }
    }

    /// Options selecting the parallel backing with `threads` workers.
    pub fn parallel(threads: usize) -> Self {
        EngineOptions {
            backing: EngineBacking::Parallel { threads },
            ..Self::default()
        }
    }
}

/// A point-in-time snapshot of engine counters, from
/// [`LookupEngine::stats`].
///
/// This is the *compatibility* view: the counters themselves live in
/// the engine's metrics [`Registry`](crate::obs::Registry) (see
/// [`LookupEngine::metrics_registry`]), which additionally exposes
/// per-shard families, histograms, and the Prometheus/JSON exporters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Total queries served (`lookup` + `entry` + batch elements).
    pub lookups: u64,
    /// Queries answered from the cache without computing anything.
    pub cache_hits: u64,
    /// Queries that had to compute at least their own entry (lazy
    /// backing only; a complete cache never misses).
    pub cache_misses: u64,
    /// Entries computed on demand by lazy-mode queries.
    pub entries_computed: u64,
    /// Cached entries dropped by edits.
    pub entries_invalidated: u64,
    /// Entries recomputed eagerly after edits (complete backings only).
    pub entries_recomputed: u64,
    /// Individual edits applied.
    pub edits: u64,
    /// The hierarchy's generation counter (rebuilds since the engine's
    /// initial graph).
    pub generation: u64,
    /// Entries currently cached (lazy mode also counts negative
    /// "not visible" slots).
    pub cached_entries: u64,
    /// Accumulated query wall-clock time; only meaningful when
    /// [`EngineOptions::timing`] is set.
    pub lookup_nanos: u64,
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "lookups: {} ({} hits, {} misses)",
            self.lookups, self.cache_hits, self.cache_misses
        )?;
        writeln!(
            f,
            "entries: {} cached, {} computed lazily, {} invalidated, {} recomputed",
            self.cached_entries,
            self.entries_computed,
            self.entries_invalidated,
            self.entries_recomputed
        )?;
        write!(f, "edits: {} (generation {})", self.edits, self.generation)?;
        if self.lookup_nanos > 0 && self.lookups > 0 {
            write!(
                f,
                "\navg query time: {}ns",
                self.lookup_nanos / self.lookups
            )?;
        }
        Ok(())
    }
}

/// Cached value for one `(class, member)` pair; `Absent` is only stored
/// by the lazy backing (a complete cache encodes absence by omission).
#[derive(Clone, Debug)]
enum Slot {
    Present(Entry),
    Absent,
}

type Shard = RwLock<FxHashMap<(ClassId, MemberId), Slot>>;

/// A thread-safe member-lookup service over an owned, editable class
/// hierarchy. See the [module docs](self) for the design.
#[derive(Debug)]
pub struct LookupEngine {
    chg: Chg,
    options: EngineOptions,
    shards: Vec<Shard>,
    metrics: EngineMetrics,
}

impl LookupEngine {
    /// Creates an engine over `chg` with default options (eager
    /// backing).
    pub fn new(chg: Chg) -> Self {
        Self::with_options(chg, EngineOptions::default())
    }

    /// Creates an engine with explicit options. Complete backings pay
    /// the full table build here.
    pub fn with_options(chg: Chg, options: EngineOptions) -> Self {
        let mut engine = Self::empty(chg, options);
        let start = Instant::now();
        let strategy = match options.backing {
            EngineBacking::Lazy => "lazy",
            EngineBacking::Eager => {
                let table = LookupTable::build_with(&engine.chg, options.lookup);
                engine.seed_from_table(table);
                "eager"
            }
            EngineBacking::Parallel { threads } => {
                let table = LookupTable::build_parallel(&engine.chg, options.lookup, threads);
                engine.seed_from_table(table);
                "parallel"
            }
        };
        engine
            .metrics
            .record_build(strategy, start.elapsed().as_nanos() as u64);
        engine
    }

    /// Creates an engine whose memo is `entries`, computed elsewhere —
    /// typically a loaded snapshot — so no build runs. Under a complete
    /// backing (eager or parallel) `entries` must be the *whole* table
    /// for `chg` under `options.lookup`: a pair missing from the memo
    /// then means "not visible", queries never compute, and
    /// [`apply`](Self::apply) recomputes its dirty set eagerly. Under the
    /// lazy backing the entries are only a warm start; pairs outside
    /// them are computed on first use.
    ///
    /// The engine trusts the entries as it trusts its own memo.
    ///
    /// # Examples
    ///
    /// ```
    /// use cpplookup_chg::fixtures;
    /// use cpplookup_core::{EngineOptions, LookupEngine, LookupTable};
    ///
    /// let g = fixtures::fig9();
    /// let table = LookupTable::build(&g);
    /// let entries: Vec<_> = g
    ///     .classes()
    ///     .flat_map(|c| g.member_ids().map(move |m| (c, m)))
    ///     .filter_map(|(c, m)| table.entry(c, m).map(|e| (c, m, e.clone())))
    ///     .collect();
    /// let engine = LookupEngine::with_entries(g, EngineOptions::default(), entries);
    /// let e = engine.chg().class_by_name("E").unwrap();
    /// let m = engine.chg().member_by_name("m").unwrap();
    /// assert!(engine.lookup(e, m).is_resolved());
    /// assert_eq!(engine.stats().entries_computed, 0);
    /// ```
    pub fn with_entries(
        chg: Chg,
        options: EngineOptions,
        entries: impl IntoIterator<Item = (ClassId, MemberId, Entry)>,
    ) -> Self {
        let mut engine = Self::empty(chg, options);
        let start = Instant::now();
        engine.seed_entries(entries);
        engine
            .metrics
            .record_build("seeded", start.elapsed().as_nanos() as u64);
        engine
    }

    /// An engine over `chg` with an empty memo.
    fn empty(chg: Chg, options: EngineOptions) -> Self {
        let shard_count = options.shards.max(1);
        let shards = (0..shard_count)
            .map(|_| RwLock::new(FxHashMap::default()))
            .collect();
        LookupEngine {
            chg,
            options,
            shards,
            metrics: EngineMetrics::new(shard_count),
        }
    }

    fn seed_from_table(&mut self, table: LookupTable) {
        for (c, members) in table.into_entries().into_iter().enumerate() {
            let c = ClassId::from_index(c);
            for (m, e) in members {
                let idx = self.shard_index(c, m);
                self.shards[idx]
                    .get_mut()
                    .expect("engine shard lock poisoned")
                    .insert((c, m), Slot::Present(e));
            }
        }
    }

    /// Inserts precomputed entries into the memo (see
    /// [`with_entries`](Self::with_entries)).
    fn seed_entries(&mut self, entries: impl IntoIterator<Item = (ClassId, MemberId, Entry)>) {
        for (c, m, e) in entries {
            let idx = self.shard_index(c, m);
            self.shards[idx]
                .get_mut()
                .expect("engine shard lock poisoned")
                .insert((c, m), Slot::Present(e));
        }
    }

    fn shard_index(&self, c: ClassId, m: MemberId) -> usize {
        // Cheap deterministic mix; shard counts are small so low bits
        // suffice.
        let h = c
            .index()
            .wrapping_mul(0x9E37_79B1)
            .wrapping_add(m.index().wrapping_mul(0x85EB_CA77));
        h % self.shards.len()
    }

    /// The current hierarchy.
    pub fn chg(&self) -> &Chg {
        &self.chg
    }

    /// The options the engine was created with.
    pub fn options(&self) -> EngineOptions {
        self.options
    }

    /// The hierarchy's generation: 0 until the first edit, then one per
    /// [`apply`](LookupEngine::apply) call.
    pub fn generation(&self) -> u64 {
        self.chg.generation()
    }

    /// Reads `(c, m)` from the cache. Outer `None`: key not cached;
    /// inner `None`: cached knowledge that `m ∉ Members[c]`.
    fn cached(&self, c: ClassId, m: MemberId) -> Option<Option<Entry>> {
        self.cached_in(self.shard_index(c, m), c, m)
    }

    /// [`cached`](Self::cached) with a precomputed shard index.
    fn cached_in(&self, idx: usize, c: ClassId, m: MemberId) -> Option<Option<Entry>> {
        let shard = self.shards[idx].read().expect("engine shard lock poisoned");
        shard.get(&(c, m)).map(|slot| match slot {
            Slot::Present(e) => Some(e.clone()),
            Slot::Absent => None,
        })
    }

    /// The entry for `(c, m)`, computing it first under the lazy
    /// backing. `None` means `m ∉ Members[c]`.
    pub fn entry(&self, c: ClassId, m: MemberId) -> Option<Entry> {
        let start = self.options.timing.then(Instant::now);
        self.metrics.lookups.inc();
        self.metrics.emit(|| obs::Event::QueryStart {
            class: c.index() as u32,
            member: m.index() as u32,
        });
        let idx = self.shard_index(c, m);
        let result = match self.cached_in(idx, c, m) {
            Some(cached) => {
                self.metrics.record_hit(idx);
                cached
            }
            None if self.options.backing.complete() => {
                // A complete cache encodes "not visible" by omission.
                self.metrics.record_hit(idx);
                None
            }
            None => {
                self.metrics.record_miss(idx);
                self.compute_missing(c, m)
            }
        };
        if matches!(result, Some(Entry::Blue(_))) {
            self.metrics
                .record_ambiguity(c.index() as u32, m.index() as u32);
        }
        let nanos = match start {
            Some(start) => {
                let nanos = start.elapsed().as_nanos() as u64;
                self.metrics.record_latency(nanos);
                nanos
            }
            None => 0,
        };
        self.metrics.emit(|| obs::Event::QueryEnd {
            class: c.index() as u32,
            member: m.index() as u32,
            outcome: match &result {
                Some(Entry::Red { .. }) => "resolved",
                Some(Entry::Blue(_)) => "ambiguous",
                None => "not_found",
            },
            nanos,
        });
        result
    }

    /// Answers `lookup(c, m)`.
    pub fn lookup(&self, c: ClassId, m: MemberId) -> LookupOutcome {
        LookupOutcome::from_entry(self.entry(c, m).as_ref())
    }

    /// Answers a batch of queries, in order. Each distinct
    /// `(class, member)` pair probes the shard map once: the batch is
    /// sorted and deduplicated up front (which also gives repeated
    /// probes of one class shard/cache locality) and the outcome is
    /// fanned back out to every occurrence. Duplicates still count as
    /// one lookup and one cache hit each, so the metrics match the
    /// equivalent sequence of single queries. Under the parallel
    /// backing the distinct probes are chunked across worker threads.
    pub fn lookup_batch(&self, queries: &[(ClassId, MemberId)]) -> Vec<LookupOutcome> {
        let mut order: Vec<u32> = (0..queries.len() as u32).collect();
        order.sort_unstable_by_key(|&i| {
            let (c, m) = queries[i as usize];
            (c.index(), m.index())
        });
        let mut unique: Vec<(ClassId, MemberId)> = Vec::new();
        let mut slot_of = vec![0u32; queries.len()];
        for &i in &order {
            let q = queries[i as usize];
            if unique.last() != Some(&q) {
                unique.push(q);
            }
            slot_of[i as usize] = (unique.len() - 1) as u32;
        }
        let answers = self.lookup_unique(&unique);
        let mut answered = vec![false; unique.len()];
        let mut out = Vec::with_capacity(queries.len());
        for (i, &slot) in slot_of.iter().enumerate() {
            let slot = slot as usize;
            if std::mem::replace(&mut answered[slot], true) {
                // A duplicate is served from its twin's probe: account
                // for it as a lookup answered from cache.
                let (c, m) = queries[i];
                self.metrics.lookups.inc();
                self.metrics.record_hit(self.shard_index(c, m));
                if matches!(answers[slot], LookupOutcome::Ambiguous { .. }) {
                    self.metrics
                        .record_ambiguity(c.index() as u32, m.index() as u32);
                }
            }
            out.push(answers[slot].clone());
        }
        out
    }

    /// The probe stage of [`lookup_batch`](Self::lookup_batch):
    /// answers each (already deduplicated) query, chunked across worker
    /// threads under the parallel backing.
    fn lookup_unique(&self, unique: &[(ClassId, MemberId)]) -> Vec<LookupOutcome> {
        let threads = match self.options.backing {
            EngineBacking::Parallel { threads } => threads.max(1),
            _ => 1,
        };
        if threads == 1 || unique.len() < 2 * threads {
            return unique.iter().map(|&(c, m)| self.lookup(c, m)).collect();
        }
        let chunk = unique.len().div_ceil(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = unique
                .chunks(chunk)
                .map(|chunk| {
                    scope.spawn(move || {
                        chunk
                            .iter()
                            .map(|&(c, m)| self.lookup(c, m))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("batch worker panicked"))
                .collect()
        })
    }

    /// Recovers the winning definition path for `(c, m)`, like
    /// [`LookupTable::resolve_path`]. The engine owns its hierarchy, so
    /// no `&Chg` parameter is needed.
    pub fn resolve_path(&self, c: ClassId, m: MemberId) -> Option<Path> {
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
        Some(Path::new(&self.chg, rev).expect("parent pointers follow real edges"))
    }

    /// Lazy-mode fill: computes the entries of `c`'s uncached ancestors
    /// (bottom-up in topological order) and caches them, returning the
    /// entry for `(c, m)`.
    fn compute_missing(&self, c: ClassId, m: MemberId) -> Option<Entry> {
        let mut ancestors: Vec<ClassId> = self.chg.bases_of(c).collect();
        ancestors.push(c);
        ancestors.sort_by_key(|&a| self.chg.topo_position(a));
        let mut local: FxHashMap<ClassId, Option<Entry>> = FxHashMap::default();
        let mut fresh: Vec<(ClassId, Option<Entry>)> = Vec::new();
        for &a in &ancestors {
            if let Some(cached) = self.cached(a, m) {
                local.insert(a, cached);
                continue;
            }
            // Every direct base of `a` is an ancestor of `c` with a
            // smaller topological position, so it is already in `local`.
            let e = compute_entry_with(&self.chg, self.options.lookup, a, m, |b| {
                local.get(&b).and_then(|o| o.as_ref())
            });
            fresh.push((a, e.clone()));
            local.insert(a, e);
        }
        for (a, e) in fresh {
            let slot = match e {
                Some(e) => Slot::Present(e),
                None => Slot::Absent,
            };
            let mut shard = self.shards[self.shard_index(a, m)]
                .write()
                .expect("engine shard lock poisoned");
            // A racing query may have cached this first; entries are
            // deterministic, so first write wins and the counter only
            // tracks actual insertions.
            if let std::collections::hash_map::Entry::Vacant(v) = shard.entry((a, m)) {
                v.insert(slot);
                drop(shard);
                self.metrics
                    .record_computed(a.index() as u32, m.index() as u32);
            }
        }
        local
            .remove(&c)
            .expect("query class is an ancestor of itself")
    }

    /// Applies a batch of hierarchy edits as one transaction: the graph
    /// is rebuilt once (generation + 1) and the combined dirty set is
    /// invalidated, then recomputed in topological order under complete
    /// backings (the lazy backing recomputes on demand).
    ///
    /// # Errors
    ///
    /// Returns the first [`ChgError`] produced by validation. On error
    /// the engine is unchanged — hierarchy, cache, and counters.
    pub fn apply(&mut self, edits: &[Edit]) -> Result<(), ChgError> {
        self.apply_dirty(edits).map(drop)
    }

    /// [`apply`](Self::apply), returning the dirty set it invalidated
    /// (in [`dirty_set`]'s order) so an index over the engine can
    /// refresh exactly those rows without recomputing the set.
    pub(crate) fn apply_dirty(
        &mut self,
        edits: &[Edit],
    ) -> Result<Vec<(ClassId, MemberId)>, ChgError> {
        let new_chg = apply_edits(&self.chg, edits)?;
        let dirty = dirty_set(&new_chg, edits);
        self.chg = new_chg;
        let mut invalidated = 0;
        for &(c, m) in &dirty {
            let idx = self.shard_index(c, m);
            let removed = self.shards[idx]
                .get_mut()
                .expect("engine shard lock poisoned")
                .remove(&(c, m));
            invalidated += u64::from(removed.is_some());
        }
        let recomputed = if self.options.backing.complete() {
            self.recompute(&dirty)
        } else {
            0
        };
        self.metrics.record_edit(
            edits.len(),
            dirty.len(),
            invalidated,
            recomputed,
            self.chg.generation(),
        );
        Ok(dirty)
    }

    /// Recomputes the (invalidated) dirty entries against the updated
    /// hierarchy, reusing every untouched cached entry, and returns how
    /// many were recomputed. `dirty` must be sorted by member and
    /// topological position — [`dirty_set`]'s order.
    fn recompute(&mut self, dirty: &[(ClassId, MemberId)]) -> u64 {
        let mut recomputed = 0;
        let mut i = 0;
        while i < dirty.len() {
            let m = dirty[i].1;
            // One member's run of dirty classes, already topologically
            // sorted: stage base entries locally so each recomputation
            // sees its member's fresh values.
            let mut local: FxHashMap<ClassId, Option<Entry>> = FxHashMap::default();
            while i < dirty.len() && dirty[i].1 == m {
                let c = dirty[i].0;
                for spec in self.chg.direct_bases(c) {
                    local
                        .entry(spec.base)
                        .or_insert_with(|| self.cached(spec.base, m).flatten());
                }
                let e = compute_entry_with(&self.chg, self.options.lookup, c, m, |b| {
                    local.get(&b).and_then(|o| o.as_ref())
                });
                if let Some(entry) = &e {
                    let idx = self.shard_index(c, m);
                    self.shards[idx]
                        .get_mut()
                        .expect("engine shard lock poisoned")
                        .insert((c, m), Slot::Present(entry.clone()));
                    recomputed += 1;
                }
                local.insert(c, e);
                i += 1;
            }
        }
        recomputed
    }

    /// Adds a new class (no bases, no members). Returns its id.
    ///
    /// # Errors
    ///
    /// Never fails today (adding a class cannot invalidate the graph);
    /// the `Result` matches the other edit methods.
    pub fn add_class(&mut self, name: &str) -> Result<ClassId, ChgError> {
        self.apply(&[Edit::AddClass { name: name.into() }])?;
        Ok(self.chg.class_by_name(name).expect("class was just added"))
    }

    /// Declares a public non-static data member `name` in `class`,
    /// returning the interned member id.
    ///
    /// # Errors
    ///
    /// See [`Edit::apply`].
    pub fn add_member(&mut self, class: ClassId, name: &str) -> Result<MemberId, ChgError> {
        self.add_member_with(class, name, MemberDecl::public(MemberKind::Data))
    }

    /// Declares a member with an explicit [`MemberDecl`].
    ///
    /// # Errors
    ///
    /// See [`Edit::apply`].
    pub fn add_member_with(
        &mut self,
        class: ClassId,
        name: &str,
        decl: MemberDecl,
    ) -> Result<MemberId, ChgError> {
        self.apply(&[Edit::AddMember {
            class,
            name: name.into(),
            decl,
        }])?;
        Ok(self
            .chg
            .member_by_name(name)
            .expect("member was just added"))
    }

    /// Adds a public inheritance edge `base → derived`.
    ///
    /// # Errors
    ///
    /// See [`Edit::apply`]; cycles are rejected with the engine
    /// unchanged.
    pub fn add_edge(
        &mut self,
        derived: ClassId,
        base: ClassId,
        inheritance: Inheritance,
    ) -> Result<(), ChgError> {
        self.apply(&[Edit::AddEdge {
            derived,
            base,
            inheritance,
            access: Access::Public,
        }])
    }

    /// A snapshot of the engine's counters (compatibility view of the
    /// metrics registry).
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            lookups: self.metrics.lookups.get(),
            cache_hits: self.metrics.hits.get(),
            cache_misses: self.metrics.misses.get(),
            entries_computed: self.metrics.computed.get(),
            entries_invalidated: self.metrics.invalidated.get(),
            entries_recomputed: self.metrics.recomputed.get(),
            edits: self.metrics.edits.get(),
            generation: self.chg.generation(),
            cached_entries: self.cached_entries(),
            lookup_nanos: self.metrics.lookup_nanos.get(),
        }
    }

    fn cached_entries(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.read().expect("engine shard lock poisoned").len() as u64)
            .sum()
    }

    /// The engine's metrics registry: the summary counters
    /// (`engine_lookups_total`, `engine_cache_hits_total`, …), the
    /// per-shard hit/miss families, the lookup-latency histogram, and
    /// the per-edit dirty/invalidation size histograms.
    pub fn metrics_registry(&self) -> &Arc<obs::Registry> {
        self.metrics.registry()
    }

    /// A point-in-time export of every engine metric, with the
    /// cache-residency gauge refreshed. Render it with
    /// [`render_text`](obs::Snapshot::render_text),
    /// [`render_prometheus`](obs::Snapshot::render_prometheus), or
    /// [`render_json`](obs::Snapshot::render_json).
    pub fn metrics_snapshot(&self) -> obs::Snapshot {
        self.metrics.snapshot(self.cached_entries())
    }

    /// Installs an [`EventSink`](obs::EventSink) that receives
    /// structured trace events (query start/end, per-shard cache
    /// hits/misses, node visits, ambiguity encounters, edit
    /// applications); `None` removes it.
    pub fn set_event_sink(&self, sink: Option<Arc<dyn obs::EventSink>>) {
        self.metrics.set_sink(sink);
    }
}

impl MemberLookup for LookupEngine {
    fn lookup(&mut self, c: ClassId, m: MemberId) -> LookupOutcome {
        LookupEngine::lookup(self, c, m)
    }

    fn entry(&mut self, c: ClassId, m: MemberId) -> Option<Entry> {
        LookupEngine::entry(self, c, m)
    }

    fn resolve_path(&mut self, _chg: &Chg, c: ClassId, m: MemberId) -> Option<Path> {
        // The engine owns its hierarchy; the parameter exists only for
        // signature uniformity.
        LookupEngine::resolve_path(self, c, m)
    }
}

/// The set of `(class, member)` cache keys an edit batch can change,
/// sorted by member then topological position (the order
/// [`LookupEngine::recompute`] requires). Derived from the *post-edit*
/// hierarchy so newly visible members are included. Conservative: a
/// dirty entry may recompute to its old value.
pub(crate) fn dirty_set(new: &Chg, edits: &[Edit]) -> Vec<(ClassId, MemberId)> {
    let mut dirty: std::collections::HashSet<(ClassId, MemberId)> =
        std::collections::HashSet::new();
    for edit in edits {
        match edit {
            Edit::AddClass { .. } => {}
            Edit::AddMember { class, name, .. } => {
                let m = new
                    .member_by_name(name)
                    .expect("member interned by the edit");
                dirty.insert((*class, m));
                dirty.extend(new.derived_of(*class).map(|d| (d, m)));
            }
            Edit::AddEdge { derived, .. } => {
                for d in std::iter::once(*derived).chain(new.derived_of(*derived)) {
                    dirty.extend(
                        new.member_ids()
                            .filter(|&m| new.is_member_visible(d, m))
                            .map(|m| (d, m)),
                    );
                }
            }
        }
    }
    let mut out: Vec<(ClassId, MemberId)> = dirty.into_iter().collect();
    out.sort_by_key(|&(c, m)| (m.index(), new.topo_position(c)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpplookup_chg::{fixtures, ChgBuilder};

    fn backings() -> [EngineOptions; 3] {
        [
            EngineOptions::default(),
            EngineOptions::lazy(),
            EngineOptions::parallel(4),
        ]
    }

    fn assert_engine_matches_table(engine: &LookupEngine, label: &str) {
        let table = LookupTable::build_with(engine.chg(), engine.options().lookup);
        for c in engine.chg().classes() {
            for m in engine.chg().member_ids() {
                assert_eq!(
                    engine.entry(c, m).as_ref(),
                    table.entry(c, m),
                    "{label}: mismatch at ({}, {})",
                    engine.chg().class_name(c),
                    engine.chg().member_name(m)
                );
            }
        }
    }

    #[test]
    fn all_backings_match_table_on_fixtures() {
        for fixture in [
            fixtures::fig1(),
            fixtures::fig2(),
            fixtures::fig3(),
            fixtures::fig9(),
            fixtures::static_diamond(),
            fixtures::static_override_mix(),
        ] {
            for options in backings() {
                let engine = LookupEngine::with_options(fixture.clone(), options);
                assert_engine_matches_table(&engine, &format!("{:?}", options.backing));
            }
        }
    }

    #[test]
    fn add_member_invalidates_derived_closure_only() {
        // fig2: A ← B ← {C, D} ← E, with m in A and D.
        let mut engine = LookupEngine::new(fixtures::fig2());
        let g = engine.chg();
        let b = g.class_by_name("B").unwrap();
        let m = g.member_by_name("m").unwrap();
        let dirty = dirty_set(
            engine.chg(),
            &[Edit::AddMember {
                class: b,
                name: "m".into(),
                decl: MemberDecl::public(MemberKind::Data),
            }],
        );
        // Dirty: B and everything below it, for m only.
        let names: Vec<&str> = dirty
            .iter()
            .map(|&(c, _)| engine.chg().class_name(c))
            .collect();
        assert_eq!(names, ["B", "C", "D", "E"]);
        assert!(dirty.iter().all(|&(_, dm)| dm == m));

        engine.add_member(b, "m").unwrap();
        assert_engine_matches_table(&engine, "after add_member");
        let stats = engine.stats();
        assert_eq!(stats.entries_invalidated, 4);
        assert_eq!(stats.entries_recomputed, 4);
        assert_eq!(stats.generation, 1);
    }

    #[test]
    fn add_edge_dirty_set_on_fig9() {
        // fig9: adding an edge under E dirties only the new leaf.
        let g = fixtures::fig9();
        let e = g.class_by_name("E").unwrap();
        let chg2 = apply_edits(&g, &[Edit::AddClass { name: "F".into() }]).unwrap();
        let f = chg2.class_by_name("F").unwrap();
        let edit = Edit::AddEdge {
            derived: f,
            base: e,
            inheritance: Inheritance::NonVirtual,
            access: Access::Public,
        };
        let chg3 = apply_edits(&chg2, std::slice::from_ref(&edit)).unwrap();
        let m = chg3.member_by_name("m").unwrap();
        assert_eq!(dirty_set(&chg3, &[edit]), vec![(f, m)]);
    }

    #[test]
    fn add_class_dirties_nothing() {
        let mut engine = LookupEngine::new(fixtures::fig1());
        engine.add_class("Fresh").unwrap();
        let stats = engine.stats();
        assert_eq!(stats.entries_invalidated, 0);
        assert_eq!(stats.entries_recomputed, 0);
        assert_eq!(stats.generation, 1);
        assert_engine_matches_table(&engine, "after add_class");
    }

    #[test]
    fn incremental_equals_rebuild_per_edit_kind() {
        for options in backings() {
            let mut engine = LookupEngine::with_options(fixtures::fig1(), options);
            let e = engine.chg().class_by_name("E").unwrap();
            let c = engine.chg().class_by_name("C").unwrap();

            let f = engine.add_class("F").unwrap();
            assert_engine_matches_table(&engine, "AddClass");

            engine.add_member(f, "fresh").unwrap();
            engine.add_member(c, "m").unwrap();
            assert_engine_matches_table(&engine, "AddMember");

            engine.add_edge(f, e, Inheritance::NonVirtual).unwrap();
            assert_engine_matches_table(&engine, "AddEdge");
            assert_eq!(engine.generation(), 4);
        }
    }

    #[test]
    fn rejected_edit_leaves_engine_unchanged() {
        let mut engine = LookupEngine::new(fixtures::fig1());
        let a = engine.chg().class_by_name("A").unwrap();
        let e = engine.chg().class_by_name("E").unwrap();
        let before = engine.stats();
        let err = engine.add_edge(a, e, Inheritance::NonVirtual).unwrap_err();
        assert!(matches!(err, ChgError::Cycle { .. }));
        assert_eq!(engine.generation(), 0);
        let after = engine.stats();
        assert_eq!(after.edits, before.edits);
        assert_eq!(after.entries_invalidated, before.entries_invalidated);
        assert_engine_matches_table(&engine, "after rejected edit");
    }

    #[test]
    fn batch_matches_singles() {
        let g = fixtures::fig3();
        let queries: Vec<(ClassId, MemberId)> = g
            .classes()
            .flat_map(|c| g.member_ids().map(move |m| (c, m)))
            .collect();
        let singles: Vec<LookupOutcome> = {
            let engine = LookupEngine::new(g.clone());
            queries.iter().map(|&(c, m)| engine.lookup(c, m)).collect()
        };
        for options in backings() {
            let engine = LookupEngine::with_options(g.clone(), options);
            // Repeat the batch so it exceeds the parallel fan-out
            // threshold.
            let big: Vec<_> = queries
                .iter()
                .chain(queries.iter())
                .chain(queries.iter())
                .copied()
                .collect();
            let batched = engine.lookup_batch(&big);
            for (i, outcome) in batched.iter().enumerate() {
                assert_eq!(
                    outcome,
                    &singles[i % singles.len()],
                    "{:?}",
                    options.backing
                );
            }
            assert_eq!(engine.stats().lookups, big.len() as u64);
        }
    }

    #[test]
    fn batch_dedupes_duplicate_probes() {
        let g = fixtures::fig3();
        let h = g.class_by_name("H").unwrap();
        let foo = g.member_by_name("foo").unwrap();
        let engine = LookupEngine::with_options(g, EngineOptions::lazy());
        let out = engine.lookup_batch(&[(h, foo); 8]);
        assert!(out.iter().all(|o| o == &out[0]));
        let stats = engine.stats();
        // One real probe (a lazy-mode miss); the other seven are served
        // from it but still count as lookups answered from cache.
        assert_eq!(stats.lookups, 8);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 7);
    }

    #[test]
    fn concurrent_lookups_are_consistent() {
        for options in backings() {
            let engine = LookupEngine::with_options(fixtures::fig3(), options);
            let table = LookupTable::build(engine.chg());
            let queries: Vec<(ClassId, MemberId)> = engine
                .chg()
                .classes()
                .flat_map(|c| engine.chg().member_ids().map(move |m| (c, m)))
                .collect();
            std::thread::scope(|scope| {
                for _ in 0..8 {
                    scope.spawn(|| {
                        for &(c, m) in &queries {
                            assert_eq!(engine.lookup(c, m), table.lookup(c, m));
                        }
                    });
                }
            });
            let stats = engine.stats();
            assert_eq!(stats.lookups, 8 * queries.len() as u64);
        }
    }

    #[test]
    fn lazy_counters_track_hits_and_misses() {
        let engine = LookupEngine::with_options(fixtures::fig3(), EngineOptions::lazy());
        let h = engine.chg().class_by_name("H").unwrap();
        let foo = engine.chg().member_by_name("foo").unwrap();
        assert_eq!(engine.stats().cached_entries, 0);
        engine.lookup(h, foo);
        let s1 = engine.stats();
        assert_eq!(s1.cache_misses, 1);
        assert!(s1.entries_computed >= 1);
        engine.lookup(h, foo);
        let s2 = engine.stats();
        assert_eq!(s2.cache_hits, 1);
        assert_eq!(s2.entries_computed, s1.entries_computed, "memoised");
    }

    #[test]
    fn eager_cache_never_misses() {
        let engine = LookupEngine::new(fixtures::fig1());
        let g = engine.chg();
        let a = g.class_by_name("A").unwrap();
        let e = g.class_by_name("E").unwrap();
        let m = g.member_by_name("m").unwrap();
        engine.lookup(e, m);
        engine.lookup(a, m);
        // A query for a member that is nowhere visible is still a hit:
        // the complete cache *knows* it is absent.
        let engine2 = {
            let mut b = ChgBuilder::from_chg(g);
            b.intern_member_name("ghost");
            LookupEngine::new(b.finish().unwrap())
        };
        let ghost = engine2.chg().member_by_name("ghost").unwrap();
        assert_eq!(engine2.lookup(a, ghost), LookupOutcome::NotFound);
        let stats = engine.stats();
        assert_eq!(stats.cache_misses, 0);
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(engine2.stats().cache_misses, 0);
    }

    #[test]
    fn timing_accumulates_when_enabled() {
        let options = EngineOptions {
            timing: true,
            ..EngineOptions::default()
        };
        let engine = LookupEngine::with_options(fixtures::fig3(), options);
        let h = engine.chg().class_by_name("H").unwrap();
        let foo = engine.chg().member_by_name("foo").unwrap();
        for _ in 0..50 {
            engine.lookup(h, foo);
        }
        let stats = engine.stats();
        assert!(stats.lookup_nanos > 0);
        assert!(stats.to_string().contains("avg query time"));
    }

    #[test]
    fn resolve_path_through_edits() {
        let mut engine = LookupEngine::new(fixtures::fig2());
        let e = engine.chg().class_by_name("E").unwrap();
        let m = engine.chg().member_by_name("m").unwrap();
        assert_eq!(
            engine
                .resolve_path(e, m)
                .unwrap()
                .display(engine.chg())
                .to_string(),
            "DE"
        );
        // Declaring m in E moves the winning definition to E itself.
        engine.add_member(e, "m").unwrap();
        assert_eq!(
            engine
                .resolve_path(e, m)
                .unwrap()
                .display(engine.chg())
                .to_string(),
            "E"
        );
    }

    #[test]
    fn trait_impl_delegates() {
        let mut engine = LookupEngine::new(fixtures::fig3());
        let g = engine.chg().clone();
        let h = g.class_by_name("H").unwrap();
        let foo = g.member_by_name("foo").unwrap();
        let l: &mut dyn MemberLookup = &mut engine;
        assert!(l.lookup(h, foo).is_resolved());
        assert_eq!(
            l.resolve_path(&g, h, foo).unwrap().display(&g).to_string(),
            "GH"
        );
    }

    #[test]
    fn long_edit_session_stays_consistent() {
        // A miniature of experiment E18: grow a hierarchy one edit at a
        // time, checking the engine against a from-scratch rebuild after
        // every step.
        for options in backings() {
            let mut b = ChgBuilder::new();
            let root = b.class("K0");
            b.member(root, "m0");
            let mut engine = LookupEngine::with_options(b.finish().unwrap(), options);
            for i in 1..12 {
                let c = engine.add_class(&format!("K{i}")).unwrap();
                let base = engine.chg().class_by_name(&format!("K{}", i / 2)).unwrap();
                let inh = if i % 3 == 0 {
                    Inheritance::Virtual
                } else {
                    Inheritance::NonVirtual
                };
                engine.add_edge(c, base, inh).unwrap();
                if i % 2 == 0 {
                    engine.add_member(c, &format!("m{}", i % 4)).unwrap();
                }
            }
            assert_engine_matches_table(&engine, &format!("{:?}", options.backing));
            assert!(engine.stats().edits > 20);
        }
    }
}
