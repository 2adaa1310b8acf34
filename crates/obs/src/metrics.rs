//! Lock-free metric primitives: counters, gauges, and fixed-bucket
//! histograms.
//!
//! Everything here is built on relaxed atomics — the values are
//! statistics, not synchronization — so recording from a query hot path
//! costs one (occasionally two) uncontended atomic read-modify-writes.
//! All types are `Sync` and are normally shared as `Arc`s handed out by
//! a [`Registry`](crate::Registry).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing event counter.
///
/// Increments saturate at `u64::MAX` instead of wrapping: a counter
/// that silently restarts from zero would corrupt every rate and ratio
/// derived from it, while a pinned ceiling is visibly wrong. (Reaching
/// the ceiling by honest `inc` calls would take centuries; saturation
/// exists for bulk `add`s and defensive callers.)
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh counter at zero. `const` so counters can live in
    /// statics.
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`, saturating at `u64::MAX`.
    ///
    /// The fast path is a single relaxed `fetch_add`; the clamp store
    /// only runs after an actual wrap. Under concurrent saturation the
    /// clamp is best-effort (another thread may observe an intermediate
    /// wrapped value), which is acceptable for a counter that has
    /// already overflowed its meaning.
    #[inline]
    pub fn add(&self, n: u64) {
        let prev = self.value.fetch_add(n, Ordering::Relaxed);
        if prev > u64::MAX - n {
            self.value.store(u64::MAX, Ordering::Relaxed);
        }
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An instantaneous measurement that can move both ways (cache
/// residency, queue depth).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub const fn new() -> Self {
        Gauge {
            value: AtomicI64::new(0),
        }
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram of `u64` observations (latencies in
/// nanoseconds, dirty-set sizes, batch lengths).
///
/// Buckets are chosen at construction and never change, so recording is
/// lock-free: a binary search over the bounds plus three relaxed
/// atomic adds. The final (implicit) bucket catches everything above
/// the largest bound — the `+Inf` bucket of the Prometheus exposition.
#[derive(Debug)]
pub struct Histogram {
    /// Inclusive upper bounds, strictly increasing.
    pub(crate) bounds: Vec<u64>,
    /// One slot per bound plus the overflow slot.
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// A histogram with the given inclusive upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Exponential bounds `start, start*factor, …` (`buckets` of them).
    ///
    /// # Panics
    ///
    /// Panics if `start == 0`, `factor < 2`, or the range overflows
    /// `u64`.
    pub fn exponential(start: u64, factor: u64, buckets: usize) -> Self {
        assert!(start > 0 && factor >= 2, "degenerate exponential buckets");
        let mut bounds = Vec::with_capacity(buckets);
        let mut b = start;
        for _ in 0..buckets {
            bounds.push(b);
            b = b.checked_mul(factor).expect("bucket bound overflow");
        }
        Self::new(&bounds)
    }

    /// The default latency scale: 16 power-of-four buckets from 64 ns
    /// to ~69 s — wide enough for a cache hit and a cold whole-table
    /// miss on the same axis.
    pub fn latency_ns() -> Self {
        Self::exponential(64, 4, 16)
    }

    /// The default size scale: 16 power-of-four buckets from 1 to ~10⁹
    /// (dirty-set sizes, batch lengths, entry counts).
    pub fn sizes() -> Self {
        Self::exponential(1, 4, 16)
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let prev = self.sum.fetch_add(value, Ordering::Relaxed);
        if prev > u64::MAX - value {
            self.sum.store(u64::MAX, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the bucket counts.
    ///
    /// Individual loads are relaxed, so a snapshot taken while writers
    /// are active may be torn by one in-flight observation — fine for
    /// monitoring, which is the only consumer.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// An owned copy of a [`Histogram`]'s state, detached from the atomics.
///
/// Snapshots from histograms with identical bounds can be
/// [`merge`](HistogramSnapshot::merge)d — e.g. per-tenant or per-thread
/// histograms folded into one for export.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds, strictly increasing.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts; `counts.len() == bounds.len() + 1`
    /// (the final slot is the overflow/`+Inf` bucket).
    pub counts: Vec<u64>,
    /// Sum of all observed values (saturating).
    pub sum: u64,
    /// Total number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Adds `other`'s observations into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the bucket bounds differ — merging histograms on
    /// different scales has no meaning.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bucket bounds"
        );
        for (dst, src) in self.counts.iter_mut().zip(&other.counts) {
            *dst = dst.saturating_add(*src);
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.count = self.count.saturating_add(other.count);
    }

    /// The arithmetic mean of the observations, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper bound on the `q`-quantile (0.0–1.0), read from the
    /// bucket boundaries: the inclusive bound of the bucket the
    /// quantile falls in. When it falls in the overflow (`+Inf`) bucket
    /// no finite bound holds, and the result is `u64::MAX`, the bound
    /// of every `u64` observation (the text and JSON renderers print
    /// it as is). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank.max(1) {
                return self.bounds.get(i).copied().unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_and_saturates() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        // Push to the edge, then over it: the counter pins at the
        // ceiling instead of wrapping to a small lie.
        c.add(u64::MAX - 43);
        assert_eq!(c.get(), u64::MAX - 1);
        c.add(5);
        assert_eq!(c.get(), u64::MAX);
        c.inc();
        assert_eq!(c.get(), u64::MAX, "saturated counters stay saturated");
        c.add(0);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn counter_is_safe_under_concurrent_increments() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.add(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
        g.set(-1);
        assert_eq!(g.get(), -1);
    }

    #[test]
    fn histogram_bucketing_is_inclusive_upper_bound() {
        let h = Histogram::new(&[10, 100, 1000]);
        for v in [1, 10, 11, 100, 999, 1000, 1001, u64::MAX] {
            h.observe(v);
        }
        let s = h.snapshot();
        // Buckets: ≤10, ≤100, ≤1000, +Inf.
        assert_eq!(s.counts, vec![2, 2, 2, 2]);
        assert_eq!(s.count, 8);
        assert_eq!(s.sum, u64::MAX, "sum saturates rather than wraps");
    }

    #[test]
    fn histogram_snapshot_merge() {
        let a = Histogram::new(&[1, 2, 4]);
        let b = Histogram::new(&[1, 2, 4]);
        a.observe(1);
        a.observe(3);
        b.observe(2);
        b.observe(100);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.counts, vec![1, 1, 1, 1]);
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 106);
    }

    #[test]
    #[should_panic(expected = "different bucket bounds")]
    fn histogram_merge_rejects_mismatched_bounds() {
        let mut a = Histogram::new(&[1, 2]).snapshot();
        let b = Histogram::new(&[1, 3]).snapshot();
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(&[10, 10]);
    }

    #[test]
    fn histogram_quantiles_and_mean() {
        let h = Histogram::new(&[10, 100, 1000]);
        for _ in 0..90 {
            h.observe(5);
        }
        for _ in 0..10 {
            h.observe(500);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 10);
        assert_eq!(s.quantile(0.99), 1000);
        assert!((s.mean() - 54.5).abs() < 1e-9);
        let empty = Histogram::new(&[1]).snapshot();
        assert_eq!(empty.quantile(0.5), 0);
        assert_eq!(empty.mean(), 0.0);
    }

    #[test]
    fn overflow_bucket_quantile_is_u64_max() {
        let h = Histogram::new(&[10, 100]);
        h.observe(5);
        h.observe(7);
        h.observe(101);
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 10);
        assert_eq!(s.quantile(0.6), 10);
        // Past the last finite bound: no finite upper bound holds.
        assert_eq!(s.quantile(0.7), u64::MAX);
        assert_eq!(s.quantile(1.0), u64::MAX);
    }

    #[test]
    fn exponential_scales() {
        let h = Histogram::exponential(64, 4, 4);
        assert_eq!(h.snapshot().bounds, vec![64, 256, 1024, 4096]);
        assert!(Histogram::latency_ns().snapshot().bounds.len() == 16);
        assert!(Histogram::sizes().snapshot().bounds[0] == 1);
    }
}
