//! The observability facade: metrics and event plumbing for the lookup
//! engine and the propagation kernels.
//!
//! The actual primitives (counters, histograms, registries, event
//! sinks) live in the dependency-free [`cpplookup_obs`] crate and are
//! re-exported here. This module adds the *wiring*:
//!
//! * **Per engine** — the summary counters (lookups, invalidations,
//!   recomputations, edits) that power the
//!   [`EngineStats`](crate::EngineStats) compatibility accessor, the
//!   lookup latency histogram (queries are timed while an event sink is
//!   installed), edit dirty-set/invalidation histograms, the ambiguity
//!   counter and structured [`Event`] emission, all in a per-engine
//!   [`Registry`].
//! * **Process-wide** — the propagation work counters
//!   ([`propagation()`]) that make the paper's unambiguous-vs-ambiguous
//!   work split measurable, and the build, snapshot and serve hooks,
//!   all in the [`global()`] registry.
//!
//! Each hot-path hook costs one relaxed atomic add; an event is built
//! only when a sink is installed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

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
#[derive(Debug)]
pub struct PropagationStats {
    nodes_visited: Arc<Counter>,
    red_merges: Arc<Counter>,
    blue_merges: Arc<Counter>,
    demotions: Arc<Counter>,
    ambiguous_entries: Arc<Counter>,
}

/// The process-wide propagation counters.
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

impl PropagationStats {
    /// One (class, member) propagation step ran.
    #[inline]
    pub fn node_visited(&self) {
        self.nodes_visited.inc();
    }

    /// `n` propagation steps ran (bulk flush from the eager builder).
    #[inline]
    pub fn nodes_visited_add(&self, n: u64) {
        self.nodes_visited.add(n);
    }

    /// Flushes one merge's locally accumulated counts.
    #[inline]
    pub fn flush_merge(&self, reds: u32, blues: u32, demotions: u32, ambiguous: bool) {
        if reds > 0 {
            self.red_merges.add(u64::from(reds));
        }
        if blues > 0 {
            self.blue_merges.add(u64::from(blues));
        }
        if demotions > 0 {
            self.demotions.add(u64::from(demotions));
        }
        if ambiguous {
            self.ambiguous_entries.inc();
        }
    }

    /// Current node-visit count.
    pub fn nodes_visited(&self) -> u64 {
        self.nodes_visited.get()
    }

    /// Current ambiguous-entry count.
    pub fn ambiguous_entries(&self) -> u64 {
        self.ambiguous_entries.get()
    }
}

/// Counts one query answered by a baseline lookup strategy, labelled by
/// strategy name, in the [`global()`] registry
/// (`baseline_queries_total{strategy="..."}`).
#[inline]
pub fn baseline_query(strategy: &str) {
    global()
        .counter_family(
            "baseline_queries_total",
            "queries answered by baseline lookup strategies",
            "strategy",
        )
        .with_label(strategy)
        .inc();
}

/// Records one snapshot load in the [`global()`] registry:
/// `snapshot_loads_total` counts loads, `snapshot_bytes` gauges the size
/// of the most recently loaded snapshot, and `snapshot_load_seconds`
/// histograms the wall-clock load+validate time (observed in
/// **nanoseconds** — the registry's histograms are integer-valued and
/// loads are sub-second; the help text states the unit).
#[inline]
pub fn snapshot_loaded(bytes: u64, elapsed_ns: u64) {
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
    .set(i64::try_from(bytes).unwrap_or(i64::MAX));
    r.histogram(
        "snapshot_load_seconds",
        "snapshot load+validate wall time (recorded in nanoseconds)",
        Histogram::latency_ns(),
    )
    .observe(elapsed_ns);
}

/// Records one whole-table build in the [`global()`] registry:
/// `build_nodes_visited_total{strategy="..."}` counts the live
/// `(class, member)` pairs the build touched, labelled by builder
/// strategy (`batched`, `batched-parallel`, `reference`);
/// `build_members_pruned_total` counts the `(class, member)` pairs the
/// member-frontier pruning skipped (`|N|·|M| −` live; zero for the
/// unpruned reference builder); and `build_seconds` histograms the
/// build wall time (observed in **nanoseconds**, like the other latency
/// histograms — the help text states the unit).
#[inline]
pub fn table_built(
    strategy: &'static str,
    nodes_visited: u64,
    members_pruned: u64,
    elapsed_ns: u64,
) {
    let r = global();
    r.counter_family(
        "build_nodes_visited_total",
        "live (class, member) pairs touched by whole-table builds",
        "strategy",
    )
    .with_label(strategy)
    .add(nodes_visited);
    r.counter(
        "build_members_pruned_total",
        "(class, member) pairs skipped by member-frontier pruning",
    )
    .add(members_pruned);
    r.histogram(
        "build_seconds",
        "whole-table build wall time (recorded in nanoseconds)",
        Histogram::latency_ns(),
    )
    .observe(elapsed_ns);
}

/// Counts `queries` queries answered by a serving read path, labelled
/// by backend, in the [`global()`] registry
/// (`serve_queries_total{backend="index" | "table" | "snapshot"}`).
/// Batch paths record once per batch with the element count; the
/// allocation-free [`lookup_ref`](crate::serve::DispatchIndex::lookup_ref)
/// hot path records nothing by design.
#[inline]
pub fn serve_query(backend: &str, queries: u64) {
    global()
        .counter_family(
            "serve_queries_total",
            "queries answered by serving read paths",
            "backend",
        )
        .with_label(backend)
        .add(queries);
}

/// Records one [`DispatchIndex`](crate::serve::DispatchIndex) build in
/// the [`global()`] registry: `serve_index_builds_total{source}` counts
/// builds by construction path (`table`, `snapshot`, `engine`,
/// `refresh`), `serve_index_entries` / `serve_index_bytes` gauge the
/// most recently built index's footprint, and
/// `serve_index_build_seconds` histograms the build wall time (observed
/// in **nanoseconds**, like the other latency histograms — the help
/// text states the unit).
#[inline]
pub fn index_built(source: &str, entries: u64, bytes: u64, elapsed_ns: u64) {
    let r = global();
    r.counter_family(
        "serve_index_builds_total",
        "dispatch index builds by construction path",
        "source",
    )
    .with_label(source)
    .inc();
    r.gauge(
        "serve_index_entries",
        "(class, member) entries in the last built dispatch index",
    )
    .set(i64::try_from(entries).unwrap_or(i64::MAX));
    r.gauge(
        "serve_index_bytes",
        "flat storage bytes of the last built dispatch index",
    )
    .set(i64::try_from(bytes).unwrap_or(i64::MAX));
    r.histogram(
        "serve_index_build_seconds",
        "dispatch index build wall time (recorded in nanoseconds)",
        Histogram::latency_ns(),
    )
    .observe(elapsed_ns);
}

#[cfg(test)]
thread_local! {
    /// The [`directory_built`] observations made on this thread: a unit
    /// test counts its own builds, which the shared histogram cannot
    /// tell apart from those of tests running beside it.
    pub(crate) static DIRECTORY_BUILDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Records one probe-directory build in the [`global()`] registry:
/// `mph_build_seconds` histograms the wall time of building a
/// minimal-perfect-hash directory from its key set — the
/// hash-and-displace search plus cell placement — observed in
/// **nanoseconds**, like the other latency histograms (the help text
/// states the unit). Placing cells under a snapshot's shipped hash is
/// not a build and is not recorded.
#[inline]
pub fn directory_built(elapsed_ns: u64) {
    #[cfg(test)]
    DIRECTORY_BUILDS.with(|n| n.set(n.get() + 1));
    global()
        .histogram(
            "mph_build_seconds",
            "minimal perfect hash construction wall time (recorded in nanoseconds)",
            Histogram::latency_ns(),
        )
        .observe(elapsed_ns);
}

/// Records one [`ServeHandle`](crate::serve::ServeHandle) publish in
/// the [`global()`] registry: `serve_index_publishes_total` counts
/// publishes, `serve_index_epoch` gauges the newest epoch, and
/// `serve_index_publish_seconds` histograms the pointer-swap wall time
/// (observed in **nanoseconds** — it should sit in the lowest buckets;
/// anything else means a publisher blocked on readers).
#[inline]
pub fn index_published(epoch: u64, elapsed_ns: u64) {
    let r = global();
    r.counter(
        "serve_index_publishes_total",
        "dispatch index versions published",
    )
    .inc();
    r.gauge("serve_index_epoch", "most recently published index epoch")
        .set(i64::try_from(epoch).unwrap_or(i64::MAX));
    r.histogram(
        "serve_index_publish_seconds",
        "index publish pointer-swap wall time (recorded in nanoseconds)",
        Histogram::latency_ns(),
    )
    .observe(elapsed_ns);
}

/// The engine's metric handles, registered in a per-engine
/// [`Registry`], plus its event sink.
///
/// `pub(crate)`: only `engine.rs` records through this; external
/// consumers read the registry via
/// [`LookupEngine::metrics_registry`](crate::LookupEngine::metrics_registry).
pub(crate) struct EngineMetrics {
    registry: Arc<Registry>,
    pub(crate) lookups: Arc<Counter>,
    pub(crate) lookup_nanos: Arc<Counter>,
    pub(crate) invalidated: Arc<Counter>,
    pub(crate) recomputed: Arc<Counter>,
    pub(crate) edits: Arc<Counter>,
    cached_entries: Arc<Gauge>,
    latency: Arc<Histogram>,
    ambiguous: Arc<Counter>,
    edit_dirty: Arc<Histogram>,
    edit_invalidated: Arc<Histogram>,
    has_sink: AtomicBool,
    sink: RwLock<Option<Arc<dyn EventSink>>>,
}

impl std::fmt::Debug for EngineMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineMetrics")
            .field("has_sink", &self.has_sink())
            .finish_non_exhaustive()
    }
}

impl EngineMetrics {
    pub(crate) fn new() -> Self {
        let registry = Arc::new(Registry::new());
        EngineMetrics {
            lookups: registry.counter(
                "engine_lookups_total",
                "queries served (lookup + entry + batch elements)",
            ),
            lookup_nanos: registry.counter(
                "engine_lookup_nanos_total",
                "accumulated query wall-clock time (timed while an event sink is installed)",
            ),
            invalidated: registry.counter(
                "engine_entries_invalidated_total",
                "entries replaced or dropped by edits",
            ),
            recomputed: registry.counter(
                "engine_entries_recomputed_total",
                "entries recomputed as present by edits",
            ),
            edits: registry.counter("engine_edits_total", "individual hierarchy edits applied"),
            cached_entries: registry.gauge(
                "engine_cached_entries",
                "entries in the engine's table (refreshed at snapshot time)",
            ),
            latency: registry.histogram(
                "engine_lookup_latency_ns",
                "per-query wall-clock latency (timed while an event sink is installed)",
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
                "entries replaced or dropped per edit batch",
                Histogram::sizes(),
            ),
            has_sink: AtomicBool::new(false),
            sink: RwLock::new(None),
            registry,
        }
    }

    pub(crate) fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Refreshes the table-size gauge and snapshots the registry.
    pub(crate) fn snapshot(&self, cached_entries: u64) -> Snapshot {
        self.cached_entries.set(cached_entries as i64);
        self.registry.snapshot()
    }

    /// Records how the engine's table was made — built by the engine
    /// (`eager`) or handed in (`seeded`) — as the `build_strategy` label
    /// on `engine_build_info`, and how long that took
    /// (`engine_build_seconds`, observed in nanoseconds); `stats`
    /// surfaces both.
    pub(crate) fn record_build(&self, strategy: &str, nanos: u64) {
        self.registry
            .counter_family(
                "engine_build_info",
                "engine table builds by strategy",
                "build_strategy",
            )
            .with_label(strategy)
            .inc();
        self.registry
            .histogram(
                "engine_build_seconds",
                "engine table build wall time (recorded in nanoseconds)",
                Histogram::latency_ns(),
            )
            .observe(nanos);
    }

    /// Records one timed query's duration.
    #[inline]
    pub(crate) fn record_latency(&self, nanos: u64) {
        self.lookup_nanos.add(nanos);
        self.latency.observe(nanos);
    }

    /// Records a query that returned an ambiguous entry.
    #[inline]
    pub(crate) fn record_ambiguity(&self, class: u32, member: u32) {
        self.ambiguous.inc();
        self.emit(|| Event::AmbiguityEncountered { class, member });
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
        self.edit_dirty.observe(dirty as u64);
        self.edit_invalidated.observe(invalidated);
        self.emit(|| Event::EditApplied {
            edits,
            dirty,
            invalidated: invalidated as usize,
            recomputed: recomputed as usize,
            generation,
        });
    }

    /// Whether an event sink is installed: the engine then also times
    /// each query.
    #[inline]
    pub(crate) fn has_sink(&self) -> bool {
        self.has_sink.load(Ordering::Acquire)
    }

    /// Installs (or removes, with `None`) the engine's event sink.
    pub(crate) fn set_sink(&self, sink: Option<Arc<dyn EventSink>>) {
        self.has_sink.store(sink.is_some(), Ordering::Release);
        *self.sink.write().expect("sink lock poisoned") = sink;
    }

    /// Sends an event to the installed sink, constructing it only when
    /// a sink is present.
    #[inline]
    pub(crate) fn emit(&self, make: impl FnOnce() -> Event) {
        if !self.has_sink() {
            return;
        }
        if let Some(sink) = self.sink.read().expect("sink lock poisoned").as_ref() {
            sink.record(&make());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_metrics_register_summary_counters() {
        let m = EngineMetrics::new();
        m.lookups.inc();
        m.record_latency(500);
        m.record_edit(1, 5, 3, 2, 1);
        let snap = m.snapshot(7);
        assert_eq!(snap.counter("engine_lookups_total"), Some(1));
        assert_eq!(snap.counter("engine_lookup_nanos_total"), Some(500));
        assert_eq!(snap.counter("engine_entries_invalidated_total"), Some(3));
        assert_eq!(snap.counter("engine_entries_recomputed_total"), Some(2));
        assert_eq!(snap.gauge("engine_cached_entries"), Some(7));
    }

    #[test]
    fn latency_histogram_observes_timed_queries() {
        let m = EngineMetrics::new();
        m.record_latency(128);
        m.record_latency(4096);
        let snap = m.snapshot(0);
        assert_eq!(snap.histogram("engine_lookup_latency_ns").unwrap().count, 2);
        assert!(!snap.render_prometheus().contains("shard"));
    }

    #[test]
    fn events_reach_the_sink_only_when_installed() {
        let m = EngineMetrics::new();
        let sink = Arc::new(MemorySink::new());
        m.emit(|| Event::CacheHit); // no sink yet: dropped
        assert!(!m.has_sink());
        m.set_sink(Some(sink.clone()));
        assert!(m.has_sink());
        m.emit(|| Event::CacheHit);
        m.record_edit(1, 5, 3, 2, 1);
        m.set_sink(None);
        m.emit(|| Event::CacheHit); // removed again: dropped
        let events = sink.take();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0], Event::CacheHit);
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
        let snap = global().snapshot();
        assert!(snap.counter("serve_index_publishes_total").unwrap() >= 1);
        assert!(snap.gauge("serve_index_bytes").is_some());
        assert!(snap.gauge("serve_index_epoch").is_some());
        assert!(snap.histogram("serve_index_build_seconds").unwrap().count >= 1);
    }

    #[test]
    fn baseline_counter_is_callable_in_both_modes() {
        baseline_query("naive");
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
