//! The observability facade: metrics for the propagation kernels, the
//! table builders, snapshots and the serving layer.
//!
//! The primitives (counters, histograms, registries) live in the
//! dependency-free [`cpplookup_obs`] crate and are re-exported here.
//! This module adds the *wiring*: the propagation work counters
//! ([`propagation()`]) that make the paper's unambiguous-vs-ambiguous
//! work split measurable, and the build, snapshot, serve and edit
//! hooks, all in the process-wide [`global()`] registry.
//!
//! Every hook resolves its handles once, in a `static` `OnceLock`, on
//! its first call, and afterwards records through them without touching
//! the registry: each hot-path hook costs one relaxed atomic add. A hook
//! registers its metrics only when it first runs, so an export lists
//! what this process actually recorded, in the order it first did.

use std::sync::{Arc, OnceLock};

pub use cpplookup_obs::{
    global, Counter, Family, Gauge, Histogram, HistogramSnapshot, MetricSnapshot, MetricValue,
    Registry, Snapshot,
};

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
    static QUERIES: OnceLock<Arc<Family<Counter>>> = OnceLock::new();
    QUERIES
        .get_or_init(|| {
            global().family(
                "baseline_queries_total",
                "queries answered by baseline lookup strategies",
                "strategy",
                usize::MAX,
                Counter::new(),
            )
        })
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
    static HANDLES: OnceLock<(Arc<Counter>, Arc<Gauge>, Arc<Histogram>)> = OnceLock::new();
    let (loads, size, seconds) = HANDLES.get_or_init(|| {
        let r = global();
        (
            r.counter(
                "snapshot_loads_total",
                "snapshot files loaded and validated",
            ),
            r.gauge(
                "snapshot_bytes",
                "size in bytes of the last loaded snapshot",
            ),
            r.histogram(
                "snapshot_load_seconds",
                "snapshot load+validate wall time (recorded in nanoseconds)",
                Histogram::latency_ns(),
            ),
        )
    });
    loads.inc();
    size.set(i64::try_from(bytes).unwrap_or(i64::MAX));
    seconds.observe(elapsed_ns);
}

/// Records one whole-table build in the [`global()`] registry:
/// `build_nodes_visited_total{strategy="..."}` counts the live
/// `(class, member)` pairs the build touched, labelled by builder
/// strategy (`batched`, `reference`);
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
    type Handles = (Arc<Family<Counter>>, Arc<Counter>, Arc<Histogram>);
    static HANDLES: OnceLock<Handles> = OnceLock::new();
    let (visited, pruned, seconds) = HANDLES.get_or_init(|| {
        let r = global();
        (
            r.family(
                "build_nodes_visited_total",
                "live (class, member) pairs touched by whole-table builds",
                "strategy",
                usize::MAX,
                Counter::new(),
            ),
            r.counter(
                "build_members_pruned_total",
                "(class, member) pairs skipped by member-frontier pruning",
            ),
            r.histogram(
                "build_seconds",
                "whole-table build wall time (recorded in nanoseconds)",
                Histogram::latency_ns(),
            ),
        )
    });
    visited.with_label(strategy).add(nodes_visited);
    pruned.add(members_pruned);
    seconds.observe(elapsed_ns);
}

/// Counts `queries` queries answered by the
/// [`DispatchIndex`](crate::serve::DispatchIndex) read paths in the
/// [`global()`] registry (`serve_queries_total{backend="index"}`, the
/// one serving backend). Batch paths record once per batch with the
/// element count; the allocation-free
/// [`lookup_ref`](crate::serve::DispatchIndex::lookup_ref) hot path
/// records nothing by design.
#[inline]
pub fn serve_query(queries: u64) {
    static QUERIES: OnceLock<Arc<Counter>> = OnceLock::new();
    QUERIES
        .get_or_init(|| {
            global()
                .family(
                    "serve_queries_total",
                    "queries answered by serving read paths",
                    "backend",
                    usize::MAX,
                    Counter::new(),
                )
                .with_label("index")
        })
        .add(queries);
}

/// Records one [`DispatchIndex`](crate::serve::DispatchIndex) build in
/// the [`global()`] registry: `serve_index_builds_total{source}` counts
/// builds by construction path (`table`, `snapshot`, `refresh`),
/// `serve_index_entries` / `serve_index_bytes` gauge the most recently
/// built index's footprint, and `serve_index_build_seconds` histograms
/// the build wall time (observed in **nanoseconds**, like the other
/// latency histograms — the help text states the unit).
#[inline]
pub fn index_built(source: &str, entries: u64, bytes: u64, elapsed_ns: u64) {
    type Handles = (Arc<Family<Counter>>, Arc<Gauge>, Arc<Gauge>, Arc<Histogram>);
    static HANDLES: OnceLock<Handles> = OnceLock::new();
    let (builds, entry_count, size, seconds) = HANDLES.get_or_init(|| {
        let r = global();
        (
            r.family(
                "serve_index_builds_total",
                "dispatch index builds by construction path",
                "source",
                usize::MAX,
                Counter::new(),
            ),
            r.gauge(
                "serve_index_entries",
                "(class, member) entries in the last built dispatch index",
            ),
            r.gauge(
                "serve_index_bytes",
                "flat storage bytes of the last built dispatch index",
            ),
            r.histogram(
                "serve_index_build_seconds",
                "dispatch index build wall time (recorded in nanoseconds)",
                Histogram::latency_ns(),
            ),
        )
    });
    builds.with_label(source).inc();
    entry_count.set(i64::try_from(entries).unwrap_or(i64::MAX));
    size.set(i64::try_from(bytes).unwrap_or(i64::MAX));
    seconds.observe(elapsed_ns);
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
    static SECONDS: OnceLock<Arc<Histogram>> = OnceLock::new();
    SECONDS
        .get_or_init(|| {
            global().histogram(
                "mph_build_seconds",
                "minimal perfect hash construction wall time (recorded in nanoseconds)",
                Histogram::latency_ns(),
            )
        })
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
    static HANDLES: OnceLock<(Arc<Counter>, Arc<Gauge>, Arc<Histogram>)> = OnceLock::new();
    let (publishes, newest, seconds) = HANDLES.get_or_init(|| {
        let r = global();
        (
            r.counter(
                "serve_index_publishes_total",
                "dispatch index versions published",
            ),
            r.gauge("serve_index_epoch", "most recently published index epoch"),
            r.histogram(
                "serve_index_publish_seconds",
                "index publish pointer-swap wall time (recorded in nanoseconds)",
                Histogram::latency_ns(),
            ),
        )
    });
    publishes.inc();
    newest.set(i64::try_from(epoch).unwrap_or(i64::MAX));
    seconds.observe(elapsed_ns);
}

/// Records one [`IndexedEngine`](crate::serve::IndexedEngine) refresh
/// in the [`global()`] registry: `serve_index_refresh_dirty_pairs`
/// histograms the `(class, member)` pairs the edit recomputed — its
/// whole dirty set, since every dirty pair is recomputed and no clean
/// one is.
#[inline]
pub fn index_refreshed(dirty_pairs: u64) {
    static PAIRS: OnceLock<Arc<Histogram>> = OnceLock::new();
    PAIRS
        .get_or_init(|| {
            global().histogram(
                "serve_index_refresh_dirty_pairs",
                "(class, member) pairs recomputed per index refresh (the edit's dirty set)",
                Histogram::sizes(),
            )
        })
        .observe(dirty_pairs);
}

#[cfg(test)]
mod tests {
    use super::*;

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
        serve_query(3);
        index_built("table", 10, 640, 1_000);
        index_published(1, 50);
        index_refreshed(4);
        let snap = global().snapshot();
        assert!(snap.counter("serve_index_publishes_total").unwrap() >= 1);
        assert!(snap.gauge("serve_index_bytes").is_some());
        assert!(snap.gauge("serve_index_epoch").is_some());
        assert!(snap.histogram("serve_index_build_seconds").unwrap().count >= 1);
        assert!(
            snap.histogram("serve_index_refresh_dirty_pairs")
                .unwrap()
                .count
                >= 1
        );
    }

    #[test]
    fn baseline_counter_is_callable_in_both_modes() {
        baseline_query("naive");
        let snap = global().snapshot();
        let found = snap.metrics.iter().any(|ms| {
            ms.name == "baseline_queries_total"
                && ms.series.iter().any(|(values, v)| {
                    values == &["naive"] && matches!(v, MetricValue::Counter(n) if *n >= 1)
                })
        });
        assert!(found);
    }
}
