//! The observability facade: metrics and event plumbing for the lookup
//! engine and the propagation kernels.
//!
//! The actual primitives (counters, histograms, registries, event
//! sinks) live in the dependency-free [`cpplookup_obs`] crate and are
//! re-exported here. This module adds the *wiring*, split by cost:
//!
//! * **Always on** — the engine's summary counters (lookups, cache
//!   hits/misses, invalidations, edits) are registered in a per-engine
//!   [`Registry`] and power the [`EngineStats`](crate::EngineStats)
//!   compatibility accessor. They cost exactly what the pre-registry
//!   ad-hoc atomics cost: one relaxed add per event.
//! * **Feature `obs`** — per-shard cache hit/miss families, the lookup
//!   latency histogram, edit dirty-set/invalidation histograms, the
//!   ambiguity counter, structured [`Event`] emission, and the global
//!   propagation work counters ([`propagation()`]) that make the
//!   paper's unambiguous-vs-ambiguous work split measurable. With the
//!   feature disabled every hook in this module compiles to an empty
//!   inline function and the extra state does not exist.

use std::sync::Arc;

pub use cpplookup_obs::{
    global, CountingSink, Event, EventSink, Family, Gauge, Histogram, HistogramSnapshot,
    MemorySink, MetricSnapshot, MetricValue, NullSink, Registry, Snapshot,
};

use cpplookup_obs::Counter;

/// A point-in-time copy of the process-wide facade: every metric this
/// module records in [`global()`]. A server appends it to its own
/// instance metrics on `/metrics`.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Work counters for the Figure-8 propagation kernels, registered in
/// the [`global()`] registry on first use.
///
/// With the `obs` feature disabled this is a zero-sized stub whose
/// methods compile to nothing.
#[derive(Debug)]
pub struct PropagationStats {
    #[cfg(feature = "obs")]
    nodes_visited: Arc<Counter>,
    #[cfg(feature = "obs")]
    red_merges: Arc<Counter>,
    #[cfg(feature = "obs")]
    blue_merges: Arc<Counter>,
    #[cfg(feature = "obs")]
    demotions: Arc<Counter>,
    #[cfg(feature = "obs")]
    ambiguous_entries: Arc<Counter>,
}

/// The process-wide propagation counters.
#[cfg(feature = "obs")]
pub fn propagation() -> &'static PropagationStats {
    use std::sync::OnceLock;
    static STATS: OnceLock<PropagationStats> = OnceLock::new();
    STATS.get_or_init(|| {
        let r = global();
        PropagationStats {
            nodes_visited: r.counter(
                "propagation_nodes_visited_total",
                "(class, member) propagation steps computed (Figure 8 node visits)",
            ),
            red_merges: r.counter(
                "propagation_red_merges_total",
                "red abstractions merged (Figure 8 lines 18-28)",
            ),
            blue_merges: r.counter(
                "propagation_blue_merges_total",
                "blue abstractions merged (Figure 8 lines 29-32)",
            ),
            demotions: r.counter(
                "propagation_demotions_total",
                "red-to-blue demotions (incomparable candidate pairs)",
            ),
            ambiguous_entries: r.counter(
                "propagation_entries_ambiguous_total",
                "merges that finished blue (ambiguous entries computed)",
            ),
        }
    })
}

/// The process-wide propagation counters (no-op stub: `obs` feature
/// disabled).
#[cfg(not(feature = "obs"))]
pub fn propagation() -> &'static PropagationStats {
    static STATS: PropagationStats = PropagationStats {};
    &STATS
}

impl PropagationStats {
    /// One (class, member) propagation step ran.
    #[inline]
    pub fn node_visited(&self) {
        #[cfg(feature = "obs")]
        self.nodes_visited.inc();
    }

    /// `n` propagation steps ran (bulk flush from the eager builder).
    #[inline]
    pub fn nodes_visited_add(&self, _n: u64) {
        #[cfg(feature = "obs")]
        self.nodes_visited.add(_n);
    }

    /// Flushes one merge's locally accumulated counts.
    #[inline]
    pub fn flush_merge(&self, _reds: u32, _blues: u32, _demotions: u32, _ambiguous: bool) {
        #[cfg(feature = "obs")]
        {
            if _reds > 0 {
                self.red_merges.add(u64::from(_reds));
            }
            if _blues > 0 {
                self.blue_merges.add(u64::from(_blues));
            }
            if _demotions > 0 {
                self.demotions.add(u64::from(_demotions));
            }
            if _ambiguous {
                self.ambiguous_entries.inc();
            }
        }
    }

    /// Current node-visit count (enabled builds only).
    #[cfg(feature = "obs")]
    pub fn nodes_visited(&self) -> u64 {
        self.nodes_visited.get()
    }

    /// Current ambiguous-entry count (enabled builds only).
    #[cfg(feature = "obs")]
    pub fn ambiguous_entries(&self) -> u64 {
        self.ambiguous_entries.get()
    }
}

/// Counts one query answered by a baseline lookup strategy, labelled by
/// strategy name, in the [`global()`] registry
/// (`baseline_queries_total{strategy="..."}`). No-op with the `obs`
/// feature disabled.
#[inline]
pub fn baseline_query(_strategy: &str) {
    #[cfg(feature = "obs")]
    global()
        .counter_family(
            "baseline_queries_total",
            "queries answered by baseline lookup strategies",
            "strategy",
        )
        .with_label(_strategy)
        .inc();
}

/// Records one snapshot load in the [`global()`] registry:
/// `snapshot_loads_total` counts loads, `snapshot_bytes` gauges the size
/// of the most recently loaded snapshot, and `snapshot_load_seconds`
/// histograms the wall-clock load+validate time (observed in
/// **nanoseconds** — the registry's histograms are integer-valued and
/// loads are sub-second; the help text states the unit). No-op with the
/// `obs` feature disabled.
#[inline]
pub fn snapshot_loaded(_bytes: u64, _elapsed_ns: u64) {
    #[cfg(feature = "obs")]
    {
        let r = global();
        r.counter(
            "snapshot_loads_total",
            "snapshot files loaded and validated",
        )
        .inc();
        r.gauge(
            "snapshot_bytes",
            "size in bytes of the last loaded snapshot",
        )
        .set(i64::try_from(_bytes).unwrap_or(i64::MAX));
        r.histogram(
            "snapshot_load_seconds",
            "snapshot load+validate wall time (recorded in nanoseconds)",
            Histogram::latency_ns(),
        )
        .observe(_elapsed_ns);
    }
}

/// Records one whole-table build in the [`global()`] registry:
/// `build_nodes_visited_total{strategy="..."}` counts the live
/// `(class, member)` pairs the build touched, labelled by builder
/// strategy (`batched`, `batched-parallel`, `reference`);
/// `build_members_pruned_total` counts the `(class, member)` pairs the
/// member-frontier pruning skipped (`|N|·|M| −` live; zero for the
/// unpruned reference builder); and `build_seconds` histograms the
/// build wall time (observed in **nanoseconds**, like the other latency
/// histograms — the help text states the unit). No-op with the `obs`
/// feature disabled.
#[inline]
pub fn table_built(
    _strategy: &'static str,
    _nodes_visited: u64,
    _members_pruned: u64,
    _elapsed_ns: u64,
) {
    #[cfg(feature = "obs")]
    {
        let r = global();
        r.counter_family(
            "build_nodes_visited_total",
            "live (class, member) pairs touched by whole-table builds",
            "strategy",
        )
        .with_label(_strategy)
        .add(_nodes_visited);
        r.counter(
            "build_members_pruned_total",
            "(class, member) pairs skipped by member-frontier pruning",
        )
        .add(_members_pruned);
        r.histogram(
            "build_seconds",
            "whole-table build wall time (recorded in nanoseconds)",
            Histogram::latency_ns(),
        )
        .observe(_elapsed_ns);
    }
}

/// Counts `_queries` queries answered by a serving read path, labelled
/// by backend, in the [`global()`] registry
/// (`serve_queries_total{backend="index" | "table" | "snapshot"}`).
/// Batch paths record once per batch with the element count; the
/// allocation-free [`lookup_ref`](crate::serve::DispatchIndex::lookup_ref)
/// hot path records nothing by design. No-op with the `obs` feature
/// disabled.
#[inline]
pub fn serve_query(_backend: &str, _queries: u64) {
    #[cfg(feature = "obs")]
    global()
        .counter_family(
            "serve_queries_total",
            "queries answered by serving read paths",
            "backend",
        )
        .with_label(_backend)
        .add(_queries);
}

/// Records one [`DispatchIndex`](crate::serve::DispatchIndex) build in
/// the [`global()`] registry: `serve_index_builds_total{source}` counts
/// builds by construction path (`table`, `snapshot`, `engine`,
/// `refresh`), `serve_index_entries` / `serve_index_bytes` gauge the
/// most recently built index's footprint, and
/// `serve_index_build_seconds` histograms the build wall time (observed
/// in **nanoseconds**, like the other latency histograms — the help
/// text states the unit). No-op with the `obs` feature disabled.
#[inline]
pub fn index_built(_source: &str, _entries: u64, _bytes: u64, _elapsed_ns: u64) {
    #[cfg(feature = "obs")]
    {
        let r = global();
        r.counter_family(
            "serve_index_builds_total",
            "dispatch index builds by construction path",
            "source",
        )
        .with_label(_source)
        .inc();
        r.gauge(
            "serve_index_entries",
            "(class, member) entries in the last built dispatch index",
        )
        .set(i64::try_from(_entries).unwrap_or(i64::MAX));
        r.gauge(
            "serve_index_bytes",
            "flat storage bytes of the last built dispatch index",
        )
        .set(i64::try_from(_bytes).unwrap_or(i64::MAX));
        r.histogram(
            "serve_index_build_seconds",
            "dispatch index build wall time (recorded in nanoseconds)",
            Histogram::latency_ns(),
        )
        .observe(_elapsed_ns);
    }
}

/// Records one probe-directory build in the [`global()`] registry:
/// `mph_build_seconds` histograms the wall time of building a
/// minimal-perfect-hash directory from its key set — the
/// hash-and-displace search plus cell placement — observed in
/// **nanoseconds**, like the other latency histograms (the help text
/// states the unit). Placing cells under a snapshot's shipped hash is
/// not a build and is not recorded. No-op with the `obs` feature
/// disabled.
#[inline]
pub fn directory_built(_elapsed_ns: u64) {
    #[cfg(feature = "obs")]
    global()
        .histogram(
            "mph_build_seconds",
            "minimal perfect hash construction wall time (recorded in nanoseconds)",
            Histogram::latency_ns(),
        )
        .observe(_elapsed_ns);
}

/// Records one [`ServeHandle`](crate::serve::ServeHandle) publish in
/// the [`global()`] registry: `serve_index_publishes_total` counts
/// publishes, `serve_index_epoch` gauges the newest epoch, and
/// `serve_index_publish_seconds` histograms the pointer-swap wall time
/// (observed in **nanoseconds** — it should sit in the lowest buckets;
/// anything else means a publisher blocked on readers). No-op with the
/// `obs` feature disabled.
#[inline]
pub fn index_published(_epoch: u64, _elapsed_ns: u64) {
    #[cfg(feature = "obs")]
    {
        let r = global();
        r.counter(
            "serve_index_publishes_total",
            "dispatch index versions published",
        )
        .inc();
        r.gauge("serve_index_epoch", "most recently published index epoch")
            .set(i64::try_from(_epoch).unwrap_or(i64::MAX));
        r.histogram(
            "serve_index_publish_seconds",
            "index publish pointer-swap wall time (recorded in nanoseconds)",
            Histogram::latency_ns(),
        )
        .observe(_elapsed_ns);
    }
}

/// Per-shard families, histograms, and the event sink — the parts of
/// the engine's instrumentation that only exist with the `obs` feature.
#[cfg(feature = "obs")]
struct EngineExt {
    shard_hits: Vec<Arc<Counter>>,
    shard_misses: Vec<Arc<Counter>>,
    latency: Arc<Histogram>,
    ambiguous: Arc<Counter>,
    edit_dirty: Arc<Histogram>,
    edit_invalidated: Arc<Histogram>,
    has_sink: std::sync::atomic::AtomicBool,
    sink: std::sync::RwLock<Option<Arc<dyn EventSink>>>,
}

#[cfg(feature = "obs")]
impl std::fmt::Debug for EngineExt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineExt")
            .field("shards", &self.shard_hits.len())
            .field(
                "has_sink",
                &self.has_sink.load(std::sync::atomic::Ordering::Relaxed),
            )
            .finish_non_exhaustive()
    }
}

#[cfg(feature = "obs")]
impl EngineExt {
    fn new(registry: &Registry, shards: usize) -> Self {
        let hits_family = registry.counter_family(
            "engine_shard_hits_total",
            "cache hits by memo-cache shard",
            "shard",
        );
        let misses_family = registry.counter_family(
            "engine_shard_misses_total",
            "cache misses by memo-cache shard",
            "shard",
        );
        EngineExt {
            shard_hits: (0..shards)
                .map(|i| hits_family.with_label(&i.to_string()))
                .collect(),
            shard_misses: (0..shards)
                .map(|i| misses_family.with_label(&i.to_string()))
                .collect(),
            latency: registry.histogram(
                "engine_lookup_latency_ns",
                "per-query wall-clock latency (requires EngineOptions::timing)",
                Histogram::latency_ns(),
            ),
            ambiguous: registry.counter(
                "engine_ambiguous_total",
                "queries that returned an ambiguous entry",
            ),
            edit_dirty: registry.histogram(
                "engine_edit_dirty_size",
                "dirty-set closure size per edit batch",
                Histogram::sizes(),
            ),
            edit_invalidated: registry.histogram(
                "engine_edit_invalidated_size",
                "cached entries invalidated per edit batch",
                Histogram::sizes(),
            ),
            has_sink: std::sync::atomic::AtomicBool::new(false),
            sink: std::sync::RwLock::new(None),
        }
    }
}

/// The engine's metric handles: always-on summary counters registered
/// in a per-engine [`Registry`], plus the feature-gated extras.
///
/// `pub(crate)`: only `engine.rs` records through this; external
/// consumers read the registry via
/// [`LookupEngine::metrics_registry`](crate::LookupEngine::metrics_registry).
#[derive(Debug)]
pub(crate) struct EngineMetrics {
    registry: Arc<Registry>,
    pub(crate) lookups: Arc<Counter>,
    pub(crate) hits: Arc<Counter>,
    pub(crate) misses: Arc<Counter>,
    pub(crate) lookup_nanos: Arc<Counter>,
    pub(crate) computed: Arc<Counter>,
    pub(crate) invalidated: Arc<Counter>,
    pub(crate) recomputed: Arc<Counter>,
    pub(crate) edits: Arc<Counter>,
    cached_entries: Arc<Gauge>,
    #[cfg(feature = "obs")]
    ext: EngineExt,
}

impl EngineMetrics {
    pub(crate) fn new(shards: usize) -> Self {
        let registry = Arc::new(Registry::new());
        let metrics = EngineMetrics {
            lookups: registry.counter(
                "engine_lookups_total",
                "queries served (lookup + entry + batch elements)",
            ),
            hits: registry.counter(
                "engine_cache_hits_total",
                "queries answered from the memo cache",
            ),
            misses: registry.counter(
                "engine_cache_misses_total",
                "queries that had to compute at least their own entry",
            ),
            lookup_nanos: registry.counter(
                "engine_lookup_nanos_total",
                "accumulated query wall-clock time (requires EngineOptions::timing)",
            ),
            computed: registry.counter(
                "engine_entries_computed_total",
                "entries computed on demand by lazy-mode queries",
            ),
            invalidated: registry.counter(
                "engine_entries_invalidated_total",
                "cached entries dropped by edits",
            ),
            recomputed: registry.counter(
                "engine_entries_recomputed_total",
                "entries recomputed eagerly after edits",
            ),
            edits: registry.counter("engine_edits_total", "individual hierarchy edits applied"),
            cached_entries: registry.gauge(
                "engine_cached_entries",
                "entries currently cached (refreshed at snapshot time)",
            ),
            #[cfg(feature = "obs")]
            ext: EngineExt::new(&registry, shards),
            registry,
        };
        #[cfg(not(feature = "obs"))]
        let _ = shards;
        metrics
    }

    pub(crate) fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Refreshes the cache-residency gauge and snapshots the registry.
    pub(crate) fn snapshot(&self, cached_entries: u64) -> Snapshot {
        self.cached_entries.set(cached_entries as i64);
        self.registry.snapshot()
    }

    /// Records a cache hit on `shard` (the `lookups` counter is bumped
    /// separately by the caller, once per query).
    #[inline]
    pub(crate) fn record_hit(&self, _shard: usize) {
        self.hits.inc();
        #[cfg(feature = "obs")]
        {
            self.ext.shard_hits[_shard].inc();
            self.emit(|| Event::CacheHit { shard: _shard });
        }
    }

    /// Records a cache miss on `shard`.
    #[inline]
    pub(crate) fn record_miss(&self, _shard: usize) {
        self.misses.inc();
        #[cfg(feature = "obs")]
        {
            self.ext.shard_misses[_shard].inc();
            self.emit(|| Event::CacheMiss { shard: _shard });
        }
    }

    /// Records the engine's initial cache build: which strategy ran
    /// (`build_strategy` label on `engine_build_info`) and how long it
    /// took (`engine_build_seconds`, observed in nanoseconds). Always
    /// on — `stats` surfaces both without the `obs` feature.
    pub(crate) fn record_build(&self, strategy: &str, nanos: u64) {
        self.registry
            .counter_family(
                "engine_build_info",
                "initial cache builds by strategy",
                "build_strategy",
            )
            .with_label(strategy)
            .inc();
        self.registry
            .histogram(
                "engine_build_seconds",
                "initial cache build wall time (recorded in nanoseconds)",
                Histogram::latency_ns(),
            )
            .observe(nanos);
    }

    /// Records one timed query's duration.
    #[inline]
    pub(crate) fn record_latency(&self, nanos: u64) {
        self.lookup_nanos.add(nanos);
        #[cfg(feature = "obs")]
        self.ext.latency.observe(nanos);
    }

    /// Records a query that returned an ambiguous entry.
    #[inline]
    pub(crate) fn record_ambiguity(&self, _class: u32, _member: u32) {
        #[cfg(feature = "obs")]
        {
            self.ext.ambiguous.inc();
            self.emit(|| Event::AmbiguityEncountered {
                class: _class,
                member: _member,
            });
        }
    }

    /// Records one lazily computed (freshly inserted) entry.
    #[inline]
    pub(crate) fn record_computed(&self, _class: u32, _member: u32) {
        self.computed.inc();
        #[cfg(feature = "obs")]
        self.emit(|| Event::NodeVisited {
            class: _class,
            member: _member,
        });
    }

    /// Records an applied edit batch with its invalidation footprint.
    pub(crate) fn record_edit(
        &self,
        edits: usize,
        dirty: usize,
        invalidated: u64,
        recomputed: u64,
        generation: u64,
    ) {
        self.edits.add(edits as u64);
        self.invalidated.add(invalidated);
        self.recomputed.add(recomputed);
        #[cfg(feature = "obs")]
        {
            self.ext.edit_dirty.observe(dirty as u64);
            self.ext.edit_invalidated.observe(invalidated);
            self.emit(|| Event::EditApplied {
                edits,
                dirty,
                invalidated: invalidated as usize,
                recomputed: recomputed as usize,
                generation,
            });
        }
        #[cfg(not(feature = "obs"))]
        {
            let _ = (dirty, generation);
        }
    }

    /// Installs (or removes, with `None`) the engine's event sink.
    pub(crate) fn set_sink(&self, _sink: Option<Arc<dyn EventSink>>) {
        #[cfg(feature = "obs")]
        {
            self.ext
                .has_sink
                .store(_sink.is_some(), std::sync::atomic::Ordering::Release);
            *self.ext.sink.write().expect("sink lock poisoned") = _sink;
        }
    }

    /// Sends an event to the installed sink, constructing it only when
    /// a sink is present. Compiles to nothing without the `obs` feature.
    #[inline]
    pub(crate) fn emit(&self, _make: impl FnOnce() -> Event) {
        #[cfg(feature = "obs")]
        {
            if !self.ext.has_sink.load(std::sync::atomic::Ordering::Acquire) {
                return;
            }
            if let Some(sink) = self.ext.sink.read().expect("sink lock poisoned").as_ref() {
                sink.record(&_make());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_metrics_register_summary_counters() {
        let m = EngineMetrics::new(4);
        m.lookups.inc();
        m.record_hit(2);
        m.record_miss(3);
        m.record_latency(500);
        let snap = m.snapshot(7);
        assert_eq!(snap.counter("engine_lookups_total"), Some(1));
        assert_eq!(snap.counter("engine_cache_hits_total"), Some(1));
        assert_eq!(snap.counter("engine_cache_misses_total"), Some(1));
        assert_eq!(snap.gauge("engine_cached_entries"), Some(7));
    }

    #[cfg(feature = "obs")]
    #[test]
    fn shard_families_and_latency_histogram() {
        let m = EngineMetrics::new(4);
        m.record_hit(2);
        m.record_hit(2);
        m.record_miss(0);
        m.record_latency(128);
        let snap = m.snapshot(0);
        let prom = snap.render_prometheus();
        assert!(
            prom.contains("engine_shard_hits_total{shard=\"2\"} 2"),
            "{prom}"
        );
        assert!(
            prom.contains("engine_shard_misses_total{shard=\"0\"} 1"),
            "{prom}"
        );
        assert_eq!(snap.histogram("engine_lookup_latency_ns").unwrap().count, 1);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn events_reach_the_sink_only_when_installed() {
        let m = EngineMetrics::new(1);
        let sink = Arc::new(MemorySink::new());
        m.record_hit(0); // no sink yet: dropped
        m.set_sink(Some(sink.clone()));
        m.record_hit(0);
        m.record_edit(1, 5, 3, 2, 1);
        m.set_sink(None);
        m.record_hit(0); // removed again: dropped
        let events = sink.take();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0], Event::CacheHit { shard: 0 });
        assert_eq!(
            events[1],
            Event::EditApplied {
                edits: 1,
                dirty: 5,
                invalidated: 3,
                recomputed: 2,
                generation: 1
            }
        );
    }

    #[cfg(feature = "obs")]
    #[test]
    fn propagation_counters_accumulate() {
        let p = propagation();
        let before = p.nodes_visited();
        p.node_visited();
        p.flush_merge(2, 1, 1, true);
        assert_eq!(p.nodes_visited(), before + 1);
        let snap = global().snapshot();
        assert!(snap.counter("propagation_red_merges_total").unwrap() >= 2);
        assert!(snap.counter("propagation_entries_ambiguous_total").unwrap() >= 1);
    }

    #[test]
    fn serve_hooks_are_callable_in_both_modes() {
        serve_query("index", 3);
        index_built("table", 10, 640, 1_000);
        index_published(1, 50);
        #[cfg(feature = "obs")]
        {
            let snap = global().snapshot();
            assert!(snap.counter("serve_index_publishes_total").unwrap() >= 1);
            assert!(snap.gauge("serve_index_bytes").is_some());
            assert!(snap.gauge("serve_index_epoch").is_some());
            assert!(snap.histogram("serve_index_build_seconds").unwrap().count >= 1);
        }
    }

    #[test]
    fn baseline_counter_is_callable_in_both_modes() {
        baseline_query("naive");
        #[cfg(feature = "obs")]
        {
            let snap = global().snapshot();
            let found = snap.metrics.iter().any(|ms| {
                ms.name == "baseline_queries_total"
                    && matches!(
                        &ms.value,
                        MetricValue::Family { series, .. }
                            if series.iter().any(|(s, n)| s == "naive" && *n >= 1)
                    )
            });
            assert!(found);
        }
    }
}
