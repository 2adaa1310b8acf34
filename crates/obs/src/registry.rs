//! The metrics registry: named metric families and their exporters.
//!
//! A [`Registry`] maps names to metrics. Registration is get-or-create
//! and returns an `Arc` handle; the hot path records through the handle
//! without touching the registry again, so the registry lock is only
//! taken at setup and export time ("lock-light").
//!
//! Exporters render a point-in-time [`Snapshot`] three ways:
//!
//! * [`render_text`](Snapshot::render_text) — a human-readable dump for
//!   terminals (`cpplookup-cli stats`),
//! * [`render_prometheus`](Snapshot::render_prometheus) — the
//!   Prometheus text exposition format,
//! * [`render_json`](Snapshot::render_json) — a JSON object for
//!   machine consumers (`cpplookup-cli batch --metrics`, the bench
//!   report).

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, RwLock};

use crate::json;
use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use crate::span::OVERFLOW_LABEL;

/// Decides which series a new label value lands in: its own, or the
/// shared [`OVERFLOW_LABEL`] series once the family holds `limit`
/// distinct values. The overflow series never counts against the limit,
/// so a capped family tops out at `limit + 1` series total — the
/// bounded-cardinality guard that keeps a 1000-tenant farm from
/// registering 1000 series per metric.
fn capped(value: &str, len: usize, limit: usize, exists: bool) -> &str {
    if exists || len < limit || value == OVERFLOW_LABEL {
        value
    } else {
        OVERFLOW_LABEL
    }
}

/// A labelled family of counters: one [`Counter`] per label value,
/// created on first use (`lookup_shard_hits_total{shard="3"}`).
///
/// The family holds one `RwLock` taken for writing only when a new
/// label value appears; steady-state lookups are shared reads. Hot
/// paths should cache the returned `Arc` and skip the map entirely.
///
/// A family may be *bounded*: past `limit` distinct label values, new
/// values share one [`OVERFLOW_LABEL`] series instead of minting their
/// own (first-come keeps its identity, the long tail aggregates).
#[derive(Debug)]
pub struct Family {
    label: String,
    limit: usize,
    series: RwLock<BTreeMap<String, Arc<Counter>>>,
}

impl Family {
    fn new(label: &str, limit: usize) -> Self {
        Family {
            label: label.to_owned(),
            limit: limit.max(1),
            series: RwLock::new(BTreeMap::new()),
        }
    }

    /// The label name shared by every series in the family.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The counter for `value`, creating it on first use. Once the
    /// family holds its limit of distinct values, unseen values share
    /// the [`OVERFLOW_LABEL`] series.
    pub fn with_label(&self, value: &str) -> Arc<Counter> {
        if let Some(c) = self.series.read().expect("family lock poisoned").get(value) {
            return Arc::clone(c);
        }
        let mut series = self.series.write().expect("family lock poisoned");
        let key = capped(value, series.len(), self.limit, series.contains_key(value));
        Arc::clone(
            series
                .entry(key.to_owned())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// `(label value, count)` pairs, sorted by label value.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        self.series
            .read()
            .expect("family lock poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }
}

/// A labelled family of gauges: one [`Gauge`] per label value, with the
/// same bounded-cardinality behaviour as [`Family`]
/// (`tenant_epoch{tenant="acme"}`).
#[derive(Debug)]
pub struct GaugeFamily {
    label: String,
    limit: usize,
    series: RwLock<BTreeMap<String, Arc<Gauge>>>,
}

impl GaugeFamily {
    fn new(label: &str, limit: usize) -> Self {
        GaugeFamily {
            label: label.to_owned(),
            limit: limit.max(1),
            series: RwLock::new(BTreeMap::new()),
        }
    }

    /// The label name shared by every series in the family.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The gauge for `value`, creating it on first use (overflow past
    /// the limit shares the [`OVERFLOW_LABEL`] series).
    pub fn with_label(&self, value: &str) -> Arc<Gauge> {
        if let Some(g) = self.series.read().expect("family lock poisoned").get(value) {
            return Arc::clone(g);
        }
        let mut series = self.series.write().expect("family lock poisoned");
        let key = capped(value, series.len(), self.limit, series.contains_key(value));
        Arc::clone(
            series
                .entry(key.to_owned())
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// `(label value, gauge value)` pairs, sorted by label value.
    pub fn snapshot(&self) -> Vec<(String, i64)> {
        self.series
            .read()
            .expect("family lock poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }
}

/// A labelled family of histograms sharing one bucket layout
/// (`server_query_latency_ns{tenant="acme"}`), with the same
/// bounded-cardinality behaviour as [`Family`].
#[derive(Debug)]
pub struct HistogramFamily {
    label: String,
    limit: usize,
    bounds: Vec<u64>,
    series: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl HistogramFamily {
    fn new(label: &str, template: &Histogram, limit: usize) -> Self {
        HistogramFamily {
            label: label.to_owned(),
            limit: limit.max(1),
            bounds: template.snapshot().bounds,
            series: RwLock::new(BTreeMap::new()),
        }
    }

    /// The label name shared by every series in the family.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The histogram for `value`, creating it (on the family's shared
    /// bucket layout) on first use; overflow past the limit shares the
    /// [`OVERFLOW_LABEL`] series.
    pub fn with_label(&self, value: &str) -> Arc<Histogram> {
        if let Some(h) = self.series.read().expect("family lock poisoned").get(value) {
            return Arc::clone(h);
        }
        let mut series = self.series.write().expect("family lock poisoned");
        let key = capped(value, series.len(), self.limit, series.contains_key(value));
        Arc::clone(
            series
                .entry(key.to_owned())
                .or_insert_with(|| Arc::new(Histogram::new(&self.bounds))),
        )
    }

    /// `(label value, snapshot)` pairs, sorted by label value.
    pub fn snapshot(&self) -> Vec<(String, HistogramSnapshot)> {
        self.series
            .read()
            .expect("family lock poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect()
    }
}

/// A two-label family of counters
/// (`server_queries_total{tenant="acme",op="query"}`).
///
/// The cardinality limit applies to the *first* label (the unbounded
/// axis — tenants); the second label is expected to come from a small
/// fixed vocabulary (opcodes, outcome classes). Past the limit, unseen
/// first-label values share the [`OVERFLOW_LABEL`] group.
#[derive(Debug)]
pub struct Family2 {
    labels: (String, String),
    limit: usize,
    series: RwLock<BTreeMap<String, BTreeMap<String, Arc<Counter>>>>,
}

impl Family2 {
    fn new(label1: &str, label2: &str, limit: usize) -> Self {
        Family2 {
            labels: (label1.to_owned(), label2.to_owned()),
            limit: limit.max(1),
            series: RwLock::new(BTreeMap::new()),
        }
    }

    /// The two label names, in series order.
    pub fn labels(&self) -> (&str, &str) {
        (&self.labels.0, &self.labels.1)
    }

    /// The counter for `(v1, v2)`, creating it on first use; unseen
    /// first-label values past the limit share the
    /// [`OVERFLOW_LABEL`] group.
    pub fn with_labels(&self, v1: &str, v2: &str) -> Arc<Counter> {
        if let Some(c) = self
            .series
            .read()
            .expect("family lock poisoned")
            .get(v1)
            .and_then(|inner| inner.get(v2))
        {
            return Arc::clone(c);
        }
        let mut series = self.series.write().expect("family lock poisoned");
        let key = capped(v1, series.len(), self.limit, series.contains_key(v1));
        Arc::clone(
            series
                .entry(key.to_owned())
                .or_default()
                .entry(v2.to_owned())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// `(first value, second value, count)` triples, sorted.
    pub fn snapshot(&self) -> Vec<(String, String, u64)> {
        self.series
            .read()
            .expect("family lock poisoned")
            .iter()
            .flat_map(|(k1, inner)| {
                inner
                    .iter()
                    .map(move |(k2, c)| (k1.clone(), k2.clone(), c.get()))
            })
            .collect()
    }
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    Family(Arc<Family>),
    GaugeFamily(Arc<GaugeFamily>),
    HistogramFamily(Arc<HistogramFamily>),
    Family2(Arc<Family2>),
}

#[derive(Debug)]
struct Registered {
    name: String,
    help: String,
    metric: Metric,
}

/// A named collection of metrics with get-or-create registration.
///
/// A server instance and an edit log each own one; process-wide
/// metrics (propagation counters, builds, snapshots, the serving
/// layer) live in [`global()`].
#[derive(Debug, Default)]
pub struct Registry {
    inner: RwLock<Vec<Registered>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert<T>(
        &self,
        name: &str,
        help: &str,
        find: impl Fn(&Metric) -> Option<Arc<T>>,
        make: impl FnOnce() -> (Arc<T>, Metric),
    ) -> Arc<T> {
        let mut inner = self.inner.write().expect("registry lock poisoned");
        if let Some(existing) = inner.iter().find(|r| r.name == name) {
            return find(&existing.metric).unwrap_or_else(|| {
                panic!("metric `{name}` already registered with a different type")
            });
        }
        let (handle, metric) = make();
        inner.push(Registered {
            name: name.to_owned(),
            help: help.to_owned(),
            metric,
        });
        handle
    }

    /// The counter named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric
    /// type.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.get_or_insert(
            name,
            help,
            |m| match m {
                Metric::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
            || {
                let c = Arc::new(Counter::new());
                (Arc::clone(&c), Metric::Counter(c))
            },
        )
    }

    /// The gauge named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric
    /// type.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.get_or_insert(
            name,
            help,
            |m| match m {
                Metric::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
            || {
                let g = Arc::new(Gauge::new());
                (Arc::clone(&g), Metric::Gauge(g))
            },
        )
    }

    /// The histogram named `name`, registering `hist` on first use (the
    /// builder is ignored when the name already exists).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric
    /// type.
    pub fn histogram(&self, name: &str, help: &str, hist: Histogram) -> Arc<Histogram> {
        let mut hist = Some(hist);
        self.get_or_insert(
            name,
            help,
            |m| match m {
                Metric::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
            || {
                let h = Arc::new(hist.take().expect("make runs at most once"));
                (Arc::clone(&h), Metric::Histogram(h))
            },
        )
    }

    /// The counter family named `name` with label key `label`,
    /// registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric
    /// type.
    pub fn counter_family(&self, name: &str, help: &str, label: &str) -> Arc<Family> {
        self.counter_family_bounded(name, help, label, usize::MAX)
    }

    /// The counter family named `name` with label key `label` and a
    /// cardinality cap of `limit` distinct values (the long tail shares
    /// one `other` series), registering it on first use. The limit is
    /// fixed at first registration.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric
    /// type.
    pub fn counter_family_bounded(
        &self,
        name: &str,
        help: &str,
        label: &str,
        limit: usize,
    ) -> Arc<Family> {
        self.get_or_insert(
            name,
            help,
            |m| match m {
                Metric::Family(f) => Some(Arc::clone(f)),
                _ => None,
            },
            || {
                let f = Arc::new(Family::new(label, limit));
                (Arc::clone(&f), Metric::Family(f))
            },
        )
    }

    /// The gauge family named `name` with label key `label` and a
    /// cardinality cap of `limit`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric
    /// type.
    pub fn gauge_family(
        &self,
        name: &str,
        help: &str,
        label: &str,
        limit: usize,
    ) -> Arc<GaugeFamily> {
        self.get_or_insert(
            name,
            help,
            |m| match m {
                Metric::GaugeFamily(f) => Some(Arc::clone(f)),
                _ => None,
            },
            || {
                let f = Arc::new(GaugeFamily::new(label, limit));
                (Arc::clone(&f), Metric::GaugeFamily(f))
            },
        )
    }

    /// The histogram family named `name` with label key `label`, bucket
    /// layout from `template`, and a cardinality cap of `limit`,
    /// registering it on first use (the template is ignored when the
    /// name already exists).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric
    /// type.
    pub fn histogram_family(
        &self,
        name: &str,
        help: &str,
        label: &str,
        template: Histogram,
        limit: usize,
    ) -> Arc<HistogramFamily> {
        self.get_or_insert(
            name,
            help,
            |m| match m {
                Metric::HistogramFamily(f) => Some(Arc::clone(f)),
                _ => None,
            },
            || {
                let f = Arc::new(HistogramFamily::new(label, &template, limit));
                (Arc::clone(&f), Metric::HistogramFamily(f))
            },
        )
    }

    /// The two-label counter family named `name` with label keys
    /// `(label1, label2)` and a cardinality cap of `limit` on the first
    /// label, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric
    /// type.
    pub fn counter_family2(
        &self,
        name: &str,
        help: &str,
        label1: &str,
        label2: &str,
        limit: usize,
    ) -> Arc<Family2> {
        self.get_or_insert(
            name,
            help,
            |m| match m {
                Metric::Family2(f) => Some(Arc::clone(f)),
                _ => None,
            },
            || {
                let f = Arc::new(Family2::new(label1, label2, limit));
                (Arc::clone(&f), Metric::Family2(f))
            },
        )
    }

    /// A point-in-time snapshot of every registered metric, in
    /// registration order.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.read().expect("registry lock poisoned");
        Snapshot {
            metrics: inner
                .iter()
                .map(|r| MetricSnapshot {
                    name: r.name.clone(),
                    help: r.help.clone(),
                    value: match &r.metric {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                        Metric::Family(f) => MetricValue::Family {
                            label: f.label().to_owned(),
                            series: f.snapshot(),
                        },
                        Metric::GaugeFamily(f) => MetricValue::GaugeFamily {
                            label: f.label().to_owned(),
                            series: f.snapshot(),
                        },
                        Metric::HistogramFamily(f) => MetricValue::HistogramFamily {
                            label: f.label().to_owned(),
                            series: f.snapshot(),
                        },
                        Metric::Family2(f) => {
                            let (l1, l2) = f.labels();
                            MetricValue::Family2 {
                                labels: (l1.to_owned(), l2.to_owned()),
                                series: f.snapshot(),
                            }
                        }
                    },
                })
                .collect(),
        }
    }
}

/// The process-wide registry for metrics that belong to no particular
/// engine: propagation work counters, baseline comparison counters.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// One metric's state inside a [`Snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSnapshot {
    /// The registered name (Prometheus-style, e.g.
    /// `serve_index_publishes_total`).
    pub name: String,
    /// The registered help text.
    pub help: String,
    /// The value, by metric kind.
    pub value: MetricValue,
}

/// The value part of a [`MetricSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// A counter's current value.
    Counter(u64),
    /// A gauge's current value.
    Gauge(i64),
    /// A histogram's buckets.
    Histogram(HistogramSnapshot),
    /// A labelled family's series.
    Family {
        /// The label key.
        label: String,
        /// `(label value, count)` pairs.
        series: Vec<(String, u64)>,
    },
    /// A labelled gauge family's series.
    GaugeFamily {
        /// The label key.
        label: String,
        /// `(label value, gauge value)` pairs.
        series: Vec<(String, i64)>,
    },
    /// A labelled histogram family's series.
    HistogramFamily {
        /// The label key.
        label: String,
        /// `(label value, snapshot)` pairs.
        series: Vec<(String, HistogramSnapshot)>,
    },
    /// A two-label counter family's series.
    Family2 {
        /// The label keys, in series order.
        labels: (String, String),
        /// `(first value, second value, count)` triples.
        series: Vec<(String, String, u64)>,
    },
}

/// Renders one histogram's cumulative bucket/sum/count series, with an
/// optional extra label (`tenant="acme"`) spliced before `le`.
fn render_prom_histogram(out: &mut String, name: &str, extra: &str, h: &HistogramSnapshot) {
    let (prefix, suffix) = if extra.is_empty() {
        (String::new(), String::new())
    } else {
        (format!("{extra},"), format!("{{{extra}}}"))
    };
    let mut cumulative = 0u64;
    for (i, c) in h.counts.iter().enumerate() {
        cumulative = cumulative.saturating_add(*c);
        let le = h
            .bounds
            .get(i)
            .map(|b| b.to_string())
            .unwrap_or_else(|| "+Inf".to_owned());
        out.push_str(&format!(
            "{name}_bucket{{{prefix}le=\"{le}\"}} {cumulative}\n"
        ));
    }
    out.push_str(&format!("{name}_sum{suffix} {}\n", h.sum));
    out.push_str(&format!("{name}_count{suffix} {}\n", h.count));
}

/// A point-in-time copy of a [`Registry`], ready for rendering.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// The metrics, in registration order.
    pub metrics: Vec<MetricSnapshot>,
}

impl Snapshot {
    /// Looks up a plain counter by name (convenience for tests and
    /// assertions).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| match &m.value {
                MetricValue::Counter(v) => Some(*v),
                _ => None,
            })
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| match &m.value {
                MetricValue::Gauge(v) => Some(*v),
                _ => None,
            })
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| match &m.value {
                MetricValue::Histogram(h) => Some(h),
                _ => None,
            })
    }

    /// Appends `other`'s metrics (used to combine an engine's registry
    /// with the global one for a single export).
    pub fn extend(&mut self, other: Snapshot) {
        self.metrics.extend(other.metrics);
    }

    /// A human-readable dump, one metric per line; histograms show
    /// count/mean/p50/p99 instead of raw buckets.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            match &m.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("{:<40} {v}\n", m.name));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("{:<40} {v}\n", m.name));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "{:<40} count={} mean={:.0} p50≤{} p99≤{}\n",
                        m.name,
                        h.count,
                        h.mean(),
                        h.quantile(0.5),
                        h.quantile(0.99),
                    ));
                }
                MetricValue::Family { label, series } => {
                    for (value, count) in series {
                        out.push_str(&format!(
                            "{:<40} {count}\n",
                            format!("{}{{{label}=\"{value}\"}}", m.name)
                        ));
                    }
                }
                MetricValue::GaugeFamily { label, series } => {
                    for (value, v) in series {
                        out.push_str(&format!(
                            "{:<40} {v}\n",
                            format!("{}{{{label}=\"{value}\"}}", m.name)
                        ));
                    }
                }
                MetricValue::HistogramFamily { label, series } => {
                    for (value, h) in series {
                        out.push_str(&format!(
                            "{:<40} count={} mean={:.0} p50≤{} p99≤{}\n",
                            format!("{}{{{label}=\"{value}\"}}", m.name),
                            h.count,
                            h.mean(),
                            h.quantile(0.5),
                            h.quantile(0.99),
                        ));
                    }
                }
                MetricValue::Family2 { labels, series } => {
                    for (v1, v2, count) in series {
                        out.push_str(&format!(
                            "{:<40} {count}\n",
                            format!("{}{{{}=\"{v1}\",{}=\"{v2}\"}}", m.name, labels.0, labels.1)
                        ));
                    }
                }
            }
        }
        out
    }

    /// The Prometheus text exposition format (`# HELP`/`# TYPE`
    /// comments, cumulative `_bucket{le=…}` histogram series). Label
    /// values are escaped per the exposition format (backslash, double
    /// quote, newline); help text escapes backslash and newline.
    pub fn render_prometheus(&self) -> String {
        // Per the exposition format, HELP text escapes only backslash
        // and line feed (label values additionally escape `"`).
        let escape_help = |s: &str| s.replace('\\', "\\\\").replace('\n', "\\n");
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!("# HELP {} {}\n", m.name, escape_help(&m.help)));
            match &m.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("# TYPE {} counter\n{} {v}\n", m.name, m.name));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("# TYPE {} gauge\n{} {v}\n", m.name, m.name));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!("# TYPE {} histogram\n", m.name));
                    render_prom_histogram(&mut out, &m.name, "", h);
                }
                MetricValue::Family { label, series } => {
                    out.push_str(&format!("# TYPE {} counter\n", m.name));
                    for (value, count) in series {
                        out.push_str(&format!(
                            "{}{{{label}=\"{}\"}} {count}\n",
                            m.name,
                            json::escape_fragment(value)
                        ));
                    }
                }
                MetricValue::GaugeFamily { label, series } => {
                    out.push_str(&format!("# TYPE {} gauge\n", m.name));
                    for (value, v) in series {
                        out.push_str(&format!(
                            "{}{{{label}=\"{}\"}} {v}\n",
                            m.name,
                            json::escape_fragment(value)
                        ));
                    }
                }
                MetricValue::HistogramFamily { label, series } => {
                    out.push_str(&format!("# TYPE {} histogram\n", m.name));
                    for (value, h) in series {
                        let series_label = format!("{label}=\"{}\"", json::escape_fragment(value));
                        render_prom_histogram(&mut out, &m.name, &series_label, h);
                    }
                }
                MetricValue::Family2 { labels, series } => {
                    out.push_str(&format!("# TYPE {} counter\n", m.name));
                    for (v1, v2, count) in series {
                        out.push_str(&format!(
                            "{}{{{}=\"{}\",{}=\"{}\"}} {count}\n",
                            m.name,
                            labels.0,
                            json::escape_fragment(v1),
                            labels.1,
                            json::escape_fragment(v2),
                        ));
                    }
                }
            }
        }
        out
    }

    /// A JSON object: `{"metrics":[{"name":…,"type":…,…}, …]}`.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"metrics\":[");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json::escape_into(&m.name, &mut out);
            match &m.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!(",\"type\":\"counter\",\"value\":{v}}}"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!(",\"type\":\"gauge\",\"value\":{v}}}"));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        ",\"type\":\"histogram\",\"count\":{},\"sum\":{},\"buckets\":[",
                        h.count, h.sum
                    ));
                    for (j, c) in h.counts.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        match h.bounds.get(j) {
                            Some(b) => out.push_str(&format!("{{\"le\":{b},\"count\":{c}}}")),
                            None => out.push_str(&format!("{{\"le\":\"inf\",\"count\":{c}}}")),
                        }
                    }
                    out.push_str("]}");
                }
                MetricValue::Family { label, series } => {
                    out.push_str(",\"type\":\"counter\",\"label\":");
                    json::escape_into(label, &mut out);
                    out.push_str(",\"series\":[");
                    for (j, (value, count)) in series.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str("{\"value\":");
                        json::escape_into(value, &mut out);
                        out.push_str(&format!(",\"count\":{count}}}"));
                    }
                    out.push_str("]}");
                }
                MetricValue::GaugeFamily { label, series } => {
                    out.push_str(",\"type\":\"gauge\",\"label\":");
                    json::escape_into(label, &mut out);
                    out.push_str(",\"series\":[");
                    for (j, (value, v)) in series.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str("{\"value\":");
                        json::escape_into(value, &mut out);
                        out.push_str(&format!(",\"gauge\":{v}}}"));
                    }
                    out.push_str("]}");
                }
                MetricValue::HistogramFamily { label, series } => {
                    out.push_str(",\"type\":\"histogram\",\"label\":");
                    json::escape_into(label, &mut out);
                    out.push_str(",\"series\":[");
                    for (j, (value, h)) in series.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str("{\"value\":");
                        json::escape_into(value, &mut out);
                        out.push_str(&format!(
                            ",\"count\":{},\"sum\":{},\"p50\":{},\"p99\":{}}}",
                            h.count,
                            h.sum,
                            h.quantile(0.5),
                            h.quantile(0.99)
                        ));
                    }
                    out.push_str("]}");
                }
                MetricValue::Family2 { labels, series } => {
                    out.push_str(",\"type\":\"counter\",\"labels\":[");
                    json::escape_into(&labels.0, &mut out);
                    out.push(',');
                    json::escape_into(&labels.1, &mut out);
                    out.push_str("],\"series\":[");
                    for (j, (v1, v2, count)) in series.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str("{\"values\":[");
                        json::escape_into(v1, &mut out);
                        out.push(',');
                        json::escape_into(v2, &mut out);
                        out.push_str(&format!("],\"count\":{count}}}"));
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_get_or_create() {
        let r = Registry::new();
        let a = r.counter("hits_total", "hits");
        let b = r.counter("hits_total", "hits");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same underlying counter");
        assert_eq!(r.snapshot().counter("hits_total"), Some(2));
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x", "");
        r.gauge("x", "");
    }

    #[test]
    fn family_series_are_independent() {
        let r = Registry::new();
        let f = r.counter_family("shard_hits_total", "per-shard hits", "shard");
        f.with_label("0").add(3);
        f.with_label("1").inc();
        f.with_label("0").inc();
        assert_eq!(f.snapshot(), vec![("0".to_owned(), 4), ("1".to_owned(), 1)]);
    }

    #[test]
    fn renderers_cover_every_metric_kind() {
        let r = Registry::new();
        r.counter("c_total", "a counter").add(5);
        r.gauge("g", "a gauge").set(-2);
        r.histogram("h_ns", "a histogram", Histogram::new(&[10, 100]))
            .observe(7);
        r.counter_family("f_total", "a family", "shard")
            .with_label("3")
            .inc();
        let snap = r.snapshot();

        let text = snap.render_text();
        assert!(text.contains("c_total"), "{text}");
        assert!(text.contains("-2"), "{text}");
        assert!(text.contains("p99"), "{text}");
        assert!(text.contains("f_total{shard=\"3\"}"), "{text}");

        let prom = snap.render_prometheus();
        assert!(prom.contains("# TYPE c_total counter"), "{prom}");
        assert!(prom.contains("c_total 5"), "{prom}");
        assert!(prom.contains("h_ns_bucket{le=\"10\"} 1"), "{prom}");
        assert!(prom.contains("h_ns_bucket{le=\"+Inf\"} 1"), "{prom}");
        assert!(prom.contains("h_ns_sum 7"), "{prom}");
        assert!(prom.contains("f_total{shard=\"3\"} 1"), "{prom}");

        let jsonr = snap.render_json();
        assert!(jsonr.starts_with("{\"metrics\":["), "{jsonr}");
        assert!(jsonr.contains("\"name\":\"h_ns\""), "{jsonr}");
        assert!(jsonr.contains("\"le\":\"inf\""), "{jsonr}");
        assert!(jsonr.contains("\"value\":-2"), "{jsonr}");
        assert_eq!(jsonr.matches('{').count(), jsonr.matches('}').count());
        assert_eq!(jsonr.matches('[').count(), jsonr.matches(']').count());
    }

    #[test]
    fn snapshot_lookup_helpers() {
        let r = Registry::new();
        r.counter("c", "").add(1);
        r.gauge("g", "").set(9);
        r.histogram("h", "", Histogram::new(&[1])).observe(1);
        let s = r.snapshot();
        assert_eq!(s.counter("c"), Some(1));
        assert_eq!(s.gauge("g"), Some(9));
        assert_eq!(s.histogram("h").unwrap().count, 1);
        assert_eq!(s.counter("missing"), None);
        assert_eq!(s.counter("g"), None, "kind-checked lookup");
    }

    #[test]
    fn bounded_family_overflows_to_other() {
        let r = Registry::new();
        let f = r.counter_family_bounded("t_total", "per tenant", "tenant", 2);
        f.with_label("a").inc();
        f.with_label("b").inc();
        f.with_label("c").add(3); // past the limit: shares `other`
        f.with_label("d").inc();
        f.with_label("a").inc(); // existing series keep their identity
        assert_eq!(
            f.snapshot(),
            vec![
                ("a".to_owned(), 2),
                ("b".to_owned(), 1),
                (OVERFLOW_LABEL.to_owned(), 4),
            ]
        );
    }

    #[test]
    fn gauge_family_tracks_per_label_values() {
        let r = Registry::new();
        let f = r.gauge_family("tenant_epoch", "epoch per tenant", "tenant", 8);
        f.with_label("a").set(3);
        f.with_label("b").set(-1);
        f.with_label("a").set(4);
        assert_eq!(
            f.snapshot(),
            vec![("a".to_owned(), 4), ("b".to_owned(), -1)]
        );
    }

    #[test]
    fn histogram_family_shares_bucket_layout() {
        let r = Registry::new();
        let f = r.histogram_family(
            "lat_ns",
            "latency per tenant",
            "tenant",
            Histogram::new(&[10, 100]),
            1,
        );
        f.with_label("a").observe(5);
        f.with_label("a").observe(50);
        f.with_label("b").observe(7); // overflow series, same bounds
        let snap = f.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].0, "a");
        assert_eq!(snap[0].1.count, 2);
        assert_eq!(snap[1].0, OVERFLOW_LABEL);
        assert_eq!(snap[1].1.bounds, vec![10, 100]);
    }

    #[test]
    fn family2_caps_on_first_label_only() {
        let r = Registry::new();
        let f = r.counter_family2("q_total", "queries", "tenant", "op", 1);
        f.with_labels("a", "query").inc();
        f.with_labels("a", "batch").inc(); // second label is unbounded
        f.with_labels("b", "query").add(2); // first label past limit
        assert_eq!(
            f.snapshot(),
            vec![
                ("a".to_owned(), "batch".to_owned(), 1),
                ("a".to_owned(), "query".to_owned(), 1),
                (OVERFLOW_LABEL.to_owned(), "query".to_owned(), 2),
            ]
        );
    }

    #[test]
    fn prometheus_escapes_hostile_label_values_and_help() {
        // A tenant named with an embedded quote and newline must not be
        // able to break out of the label value or inject series.
        let hostile = "acme\"prod\ninjected";
        let r = Registry::new();
        r.counter_family("by_tenant_total", "per-tenant\nwith \\slash", "tenant")
            .with_label(hostile)
            .inc();
        r.gauge_family("epoch", "", "tenant", 8)
            .with_label(hostile)
            .set(2);
        r.histogram_family("lat", "", "tenant", Histogram::new(&[10]), 8)
            .with_label(hostile)
            .observe(1);
        r.counter_family2("ops_total", "", "tenant", "op", 8)
            .with_labels(hostile, "query")
            .inc();
        let prom = r.snapshot().render_prometheus();
        let escaped = "acme\\\"prod\\ninjected";
        assert!(
            prom.contains(&format!("by_tenant_total{{tenant=\"{escaped}\"}} 1")),
            "{prom}"
        );
        assert!(
            prom.contains(&format!("epoch{{tenant=\"{escaped}\"}} 2")),
            "{prom}"
        );
        assert!(
            prom.contains(&format!("lat_bucket{{tenant=\"{escaped}\",le=\"10\"}} 1")),
            "{prom}"
        );
        assert!(
            prom.contains(&format!("lat_sum{{tenant=\"{escaped}\"}} 1")),
            "{prom}"
        );
        assert!(
            prom.contains(&format!("ops_total{{tenant=\"{escaped}\",op=\"query\"}} 1")),
            "{prom}"
        );
        assert!(
            prom.contains("# HELP by_tenant_total per-tenant\\nwith \\\\slash"),
            "help text escapes newline and backslash: {prom}"
        );
        // No raw newline from the hostile value survives inside any
        // exposition line: every line is a comment, a sample, or blank.
        for line in prom.lines() {
            assert!(
                line.is_empty()
                    || line.starts_with('#')
                    || line
                        .rsplit_once(' ')
                        .is_some_and(|(_, v)| { v.parse::<f64>().is_ok() }),
                "unparseable exposition line: {line:?}"
            );
        }
    }

    #[test]
    fn renderers_cover_new_family_kinds() {
        let r = Registry::new();
        r.gauge_family("gf", "g", "t", 8).with_label("x").set(5);
        r.histogram_family("hf", "h", "t", Histogram::new(&[10]), 8)
            .with_label("x")
            .observe(3);
        r.counter_family2("cf2", "c", "a", "b", 8)
            .with_labels("x", "y")
            .add(2);
        let snap = r.snapshot();
        let text = snap.render_text();
        assert!(text.contains("gf{t=\"x\"}"), "{text}");
        assert!(text.contains("hf{t=\"x\"}"), "{text}");
        assert!(text.contains("cf2{a=\"x\",b=\"y\"}"), "{text}");
        let jsonr = snap.render_json();
        assert!(jsonr.contains("\"gauge\":5"), "{jsonr}");
        assert!(jsonr.contains("\"p50\":10"), "{jsonr}");
        assert!(jsonr.contains("\"values\":[\"x\",\"y\"]"), "{jsonr}");
        assert_eq!(jsonr.matches('{').count(), jsonr.matches('}').count());
        assert_eq!(jsonr.matches('[').count(), jsonr.matches(']').count());
    }

    #[test]
    fn global_registry_is_shared() {
        let c = global().counter("obs_selftest_total", "test counter");
        c.inc();
        assert!(global().snapshot().counter("obs_selftest_total").unwrap() >= 1);
    }

    #[test]
    fn snapshot_extend_concatenates() {
        let a = Registry::new();
        a.counter("a", "").inc();
        let b = Registry::new();
        b.counter("b", "").inc();
        let mut s = a.snapshot();
        s.extend(b.snapshot());
        assert_eq!(s.metrics.len(), 2);
    }
}
