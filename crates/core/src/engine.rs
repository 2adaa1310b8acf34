//! A lookup engine with incremental invalidation.
//!
//! [`LookupEngine`] is the deployment-shaped wrapper around the paper's
//! algorithm: it **owns** its class hierarchy, answers queries from one
//! complete [`LookupTable`] — Figure 8's whole table, computed once —
//! and, unlike the other strategies in this crate, survives hierarchy
//! edits. C++ hierarchies only ever grow (new classes, members, base
//! edges), and Figure 8's propagation is a distributive dataflow
//! problem over the CHG in topological order, so an edit invalidates a
//! *computable* set of `(class, member)` entries:
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
//! untouched red/blue abstraction in the table; on large hierarchies a
//! single-edge edit recomputes a small closure instead of the whole
//! table (experiment E18 quantifies the win). The edit-sequence
//! proptests and differential suite pin the equivalence
//! `engine ≡ from-scratch LookupTable ≡ subobject oracle`.
//!
//! Section 5's memoising on-demand variant is
//! [`LazyLookup`](crate::LazyLookup).
//!
//! # Concurrency model
//!
//! Queries ([`lookup`](LookupEngine::lookup),
//! [`entry`](LookupEngine::entry),
//! [`lookup_batch`](LookupEngine::lookup_batch)) take `&self` and are
//! safe to issue from many threads: the table is complete, so a query
//! only reads it, with no lock, and all statistics are atomic. Only
//! edits write the table, and they take `&mut self`, so the borrow
//! checker serializes them against in-flight queries — no query ever
//! observes a half-applied edit.
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

use std::sync::Arc;
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

/// A point-in-time snapshot of engine counters, from
/// [`LookupEngine::stats`].
///
/// This is the *compatibility* view: the counters themselves live in
/// the engine's metrics [`Registry`](crate::obs::Registry) (see
/// [`LookupEngine::metrics_registry`]), which additionally exposes
/// histograms and the Prometheus/JSON exporters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Total queries served (`lookup` + `entry` + batch elements).
    pub lookups: u64,
    /// Entries an edit replaced or dropped.
    pub entries_invalidated: u64,
    /// Entries recomputed as present by edits.
    pub entries_recomputed: u64,
    /// Individual edits applied.
    pub edits: u64,
    /// The hierarchy's generation counter (rebuilds since the engine's
    /// initial graph).
    pub generation: u64,
    /// Entries in the table: the visible `(class, member)` pairs.
    pub cached_entries: u64,
    /// Accumulated query wall-clock time: queries are timed while an
    /// event sink is installed (see
    /// [`set_event_sink`](LookupEngine::set_event_sink)).
    pub lookup_nanos: u64,
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "lookups: {}", self.lookups)?;
        writeln!(
            f,
            "entries: {} cached, {} invalidated, {} recomputed",
            self.cached_entries, self.entries_invalidated, self.entries_recomputed
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

/// A thread-safe member-lookup service over an owned, editable class
/// hierarchy. See the [module docs](self) for the design.
#[derive(Debug)]
pub struct LookupEngine {
    chg: Chg,
    /// The complete table of `chg`; only [`apply`](Self::apply) writes it.
    table: LookupTable,
    metrics: EngineMetrics,
}

impl LookupEngine {
    /// Creates an engine over `chg` with default lookup options.
    pub fn new(chg: Chg) -> Self {
        Self::with_options(chg, LookupOptions::default())
    }

    /// Creates an engine with explicit lookup options, building the
    /// whole table with [`LookupTable::build_with`].
    pub fn with_options(chg: Chg, options: LookupOptions) -> Self {
        let start = Instant::now();
        let table = LookupTable::build_with(&chg, options);
        Self::recorded(chg, table, "eager", start)
    }

    /// Creates an engine whose table was built elsewhere — in parallel
    /// ([`LookupTable::build_parallel`]) or from a loaded snapshot — so
    /// no build runs. `table` must be the whole table of `chg` under
    /// [`table.options()`](LookupTable::options); the engine trusts it
    /// as it trusts its own.
    ///
    /// # Examples
    ///
    /// ```
    /// use cpplookup_chg::fixtures;
    /// use cpplookup_core::{LookupEngine, LookupTable};
    ///
    /// let g = fixtures::fig9();
    /// let table = LookupTable::build_parallel(&g, Default::default(), 2);
    /// let engine = LookupEngine::from_table(g, table);
    /// let e = engine.chg().class_by_name("E").unwrap();
    /// let m = engine.chg().member_by_name("m").unwrap();
    /// assert!(engine.lookup(e, m).is_resolved());
    /// ```
    pub fn from_table(chg: Chg, table: LookupTable) -> Self {
        Self::recorded(chg, table, "seeded", Instant::now())
    }

    fn recorded(chg: Chg, table: LookupTable, strategy: &str, start: Instant) -> Self {
        let engine = LookupEngine {
            chg,
            table,
            metrics: EngineMetrics::new(),
        };
        engine
            .metrics
            .record_build(strategy, start.elapsed().as_nanos() as u64);
        engine
    }

    /// The current hierarchy.
    pub fn chg(&self) -> &Chg {
        &self.chg
    }

    /// The complete table of the current hierarchy.
    pub(crate) fn table(&self) -> &LookupTable {
        &self.table
    }

    /// The lookup options the engine was created with.
    pub fn options(&self) -> LookupOptions {
        self.table.options()
    }

    /// The hierarchy's generation: 0 until the first edit, then one per
    /// [`apply`](LookupEngine::apply) call.
    pub fn generation(&self) -> u64 {
        self.chg.generation()
    }

    /// The entry for `(c, m)`; `None` means `m ∉ Members[c]`. The query
    /// is timed, and traced, while an event sink is installed.
    pub fn entry(&self, c: ClassId, m: MemberId) -> Option<Entry> {
        self.metrics.lookups.inc();
        self.metrics.emit(|| obs::Event::QueryStart {
            class: c.index() as u32,
            member: m.index() as u32,
        });
        // The clock brackets the probe alone, so the sink's own cost
        // stays out of the recorded latency.
        let start = self.metrics.has_sink().then(Instant::now);
        let result = self.table.entry(c, m).cloned();
        let nanos = start.map_or(0, |start| {
            let nanos = start.elapsed().as_nanos() as u64;
            self.metrics.record_latency(nanos);
            nanos
        });
        self.metrics.emit(|| obs::Event::CacheHit);
        if matches!(result, Some(Entry::Blue(_))) {
            self.metrics
                .record_ambiguity(c.index() as u32, m.index() as u32);
        }
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

    /// Answers a batch of queries, in order: one [`lookup`](Self::lookup)
    /// each.
    pub fn lookup_batch(&self, queries: &[(ClassId, MemberId)]) -> Vec<LookupOutcome> {
        queries.iter().map(|&(c, m)| self.lookup(c, m)).collect()
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

    /// Applies a batch of hierarchy edits as one transaction: the graph
    /// is rebuilt once (generation + 1), and the combined dirty set is
    /// recomputed by [`recompute_dirty`] and written into the table.
    ///
    /// # Errors
    ///
    /// Returns the first [`ChgError`] produced by validation. On error
    /// the engine is unchanged — hierarchy, table, and counters.
    pub fn apply(&mut self, edits: &[Edit]) -> Result<(), ChgError> {
        let chg = apply_edits(&self.chg, edits)?;
        let dirty = dirty_set(&chg, edits);
        // Clean pairs keep their entries, so the table as it stands is
        // the base source; every dirty base is staged before it is read.
        // A class the batch added has no row yet and no entries.
        let rows = self.table.class_entries();
        let fresh = recompute_dirty(&chg, self.table.options(), &dirty, |c, m| {
            rows.get(c.index()).and_then(|row| row.get(&m)).cloned()
        });
        self.chg = chg;
        let rows = self.table.class_entries_mut();
        rows.resize_with(self.chg.class_count(), FxHashMap::default);
        let (mut invalidated, mut recomputed) = (0, 0);
        for ((c, m), e) in fresh {
            let row = &mut rows[c.index()];
            let old = match e {
                Some(e) => {
                    recomputed += 1;
                    row.insert(m, e)
                }
                None => row.remove(&m),
            };
            invalidated += u64::from(old.is_some());
        }
        self.metrics.record_edit(
            edits.len(),
            dirty.len(),
            invalidated,
            recomputed,
            self.chg.generation(),
        );
        Ok(())
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
            entries_invalidated: self.metrics.invalidated.get(),
            entries_recomputed: self.metrics.recomputed.get(),
            edits: self.metrics.edits.get(),
            generation: self.chg.generation(),
            cached_entries: self.cached_entries(),
            lookup_nanos: self.metrics.lookup_nanos.get(),
        }
    }

    fn cached_entries(&self) -> u64 {
        self.table
            .class_entries()
            .iter()
            .map(|row| row.len() as u64)
            .sum()
    }

    /// The engine's metrics registry: the summary counters
    /// (`engine_lookups_total`, `engine_entries_recomputed_total`, …),
    /// the lookup-latency histogram, and the per-edit
    /// dirty/invalidation size histograms.
    pub fn metrics_registry(&self) -> &Arc<obs::Registry> {
        self.metrics.registry()
    }

    /// A point-in-time export of every engine metric, with the
    /// table-size gauge refreshed. Render it with
    /// [`render_text`](obs::Snapshot::render_text),
    /// [`render_prometheus`](obs::Snapshot::render_prometheus), or
    /// [`render_json`](obs::Snapshot::render_json).
    pub fn metrics_snapshot(&self) -> obs::Snapshot {
        self.metrics.snapshot(self.cached_entries())
    }

    /// Installs an [`EventSink`](obs::EventSink) that receives
    /// structured trace events (query start/end, cache hits, ambiguity
    /// encounters, edit applications); `None` removes it. While a sink
    /// is installed every query is also timed: its `QueryEnd` event
    /// carries the wall-clock nanoseconds, which also accumulate into
    /// [`EngineStats::lookup_nanos`] and the latency histogram.
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
/// [`recompute_dirty`] requires). Derived from the *post-edit*
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

/// One recomputed pair: `None` when the member is not visible in the
/// class after the edit.
pub(crate) type Recomputed = ((ClassId, MemberId), Option<Entry>);

/// Figure 8's step over an edit's dirty set, in [`dirty_set`]'s order
/// so a stale base is recomputed before its derived pairs: one result
/// per pair of `dirty`. Base entries come from a per-member staging map
/// of the pairs recomputed so far first, and from `base` second — a
/// table whose other pairs are current: the engine's table, or the
/// index an [`IndexedEngine`](crate::IndexedEngine) published before
/// the edit.
pub(crate) fn recompute_dirty(
    chg: &Chg,
    options: LookupOptions,
    dirty: &[(ClassId, MemberId)],
    mut base: impl FnMut(ClassId, MemberId) -> Option<Entry>,
) -> Vec<Recomputed> {
    let mut out = Vec::with_capacity(dirty.len());
    let mut staged: FxHashMap<ClassId, Option<Entry>> = FxHashMap::default();
    for (i, &(c, m)) in dirty.iter().enumerate() {
        if i > 0 && dirty[i - 1].1 != m {
            staged.clear();
        }
        for spec in chg.direct_bases(c) {
            staged
                .entry(spec.base)
                .or_insert_with(|| base(spec.base, m));
        }
        let e = compute_entry_with(chg, options, c, m, |b| {
            staged.get(&b).and_then(Option::as_ref)
        });
        staged.insert(c, e.clone());
        out.push(((c, m), e));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpplookup_chg::{fixtures, ChgBuilder};

    use crate::abstraction::StaticRule;

    fn assert_engine_matches_table(engine: &LookupEngine, label: &str) {
        let table = LookupTable::build_with(engine.chg(), engine.options());
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
        assert_eq!(engine.stats().cached_entries, table.stats().entries as u64);
    }

    /// Both ways to back the engine's table, on every fixture and
    /// static rule: built in place, or seeded with `from_table` (here
    /// from a parallel build).
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
            for statics in [StaticRule::Cpp, StaticRule::Ignore] {
                let options = LookupOptions { statics };
                let engine = LookupEngine::with_options(fixture.clone(), options);
                assert_engine_matches_table(&engine, &format!("{statics:?}"));
                let table = LookupTable::build_parallel(&fixture, options, 3);
                let seeded = LookupEngine::from_table(fixture.clone(), table);
                assert_engine_matches_table(&seeded, &format!("seeded {statics:?}"));
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
        let mut engine = LookupEngine::new(fixtures::fig1());
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

        // One batch that adds two classes and derives one from both the
        // other and F: the dirty pairs of X read bases of W, which had
        // no row before the batch.
        let (w, x) = {
            let n = engine.chg().class_count();
            (ClassId::from_index(n), ClassId::from_index(n + 1))
        };
        let edge = |base| Edit::AddEdge {
            derived: x,
            base,
            inheritance: Inheritance::Virtual,
            access: Access::Public,
        };
        engine
            .apply(&[
                Edit::AddClass { name: "W".into() },
                Edit::AddClass { name: "X".into() },
                edge(w),
                edge(f),
            ])
            .unwrap();
        assert_eq!(engine.chg().class_by_name("X"), Some(x));
        assert!(engine.stats().entries_recomputed > 0);
        assert_engine_matches_table(&engine, "one batch");
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
        let table = LookupTable::build(&g);
        let engine = LookupEngine::new(g);
        // Repeated probes are answered, and counted, one by one.
        let big: Vec<_> = queries.iter().chain(&queries).copied().collect();
        let batched = engine.lookup_batch(&big);
        for (&(c, m), outcome) in big.iter().zip(&batched) {
            assert_eq!(outcome, &table.lookup(c, m));
        }
        assert_eq!(engine.stats().lookups, big.len() as u64);
    }

    #[test]
    fn concurrent_lookups_are_consistent() {
        let engine = LookupEngine::new(fixtures::fig3());
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

    #[test]
    fn eager_cache_never_misses() {
        // A query for a member that is nowhere visible is still answered
        // from the table: the complete table *knows* it is absent.
        let engine = {
            let mut b = ChgBuilder::from_chg(&fixtures::fig1());
            b.intern_member_name("ghost");
            LookupEngine::new(b.finish().unwrap())
        };
        let a = engine.chg().class_by_name("A").unwrap();
        let ghost = engine.chg().member_by_name("ghost").unwrap();
        assert_eq!(engine.lookup(a, ghost), LookupOutcome::NotFound);
        let stats = engine.stats();
        assert_eq!(stats.lookups, 1);
        assert_eq!(
            stats.cached_entries,
            LookupTable::build(engine.chg()).stats().entries as u64
        );
    }

    #[test]
    fn timing_accumulates_when_enabled() {
        let engine = LookupEngine::new(fixtures::fig3());
        let h = engine.chg().class_by_name("H").unwrap();
        let foo = engine.chg().member_by_name("foo").unwrap();
        engine.lookup(h, foo);
        assert_eq!(engine.stats().lookup_nanos, 0, "no sink: untimed");
        // Installing a sink turns timing on; its QueryEnd events carry
        // the same clock reads.
        let sink = Arc::new(obs::MemorySink::new());
        engine.set_event_sink(Some(sink.clone()));
        for _ in 0..50 {
            engine.lookup(h, foo);
        }
        engine.set_event_sink(None);
        let stats = engine.stats();
        assert!(stats.lookup_nanos > 0);
        assert!(stats.to_string().contains("avg query time"));
        let timed: u64 = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                obs::Event::QueryEnd { nanos, .. } => Some(*nanos),
                _ => None,
            })
            .sum();
        assert_eq!(timed, stats.lookup_nanos);
        let latency = engine.metrics_snapshot();
        assert_eq!(
            latency.histogram("engine_lookup_latency_ns").unwrap().count,
            50
        );
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
        let mut b = ChgBuilder::new();
        let root = b.class("K0");
        b.member(root, "m0");
        let mut engine = LookupEngine::new(b.finish().unwrap());
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
            assert_engine_matches_table(&engine, &format!("step {i}"));
        }
        assert!(engine.stats().edits > 20);
    }
}
