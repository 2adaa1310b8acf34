//! The metrics registry: named metrics, labelled families, and their
//! exporters.
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

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::{Arc, OnceLock, RwLock};

use crate::json;
use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use crate::span::OVERFLOW_LABEL;

/// Anything a [`Registry`] can hold under a name and a [`Family`] can
/// hold under a label value: a [`Counter`], a [`Gauge`], a
/// [`Histogram`], or a [`Family`] of any of these.
pub trait Metric: Any + Debug + Send + Sync {
    /// A fresh, zeroed metric laid out like `self`: a histogram keeps
    /// its bucket bounds, a family its label key and limit.
    fn fresh(&self) -> Self
    where
        Self: Sized;
    /// The kind of every value the metric reports.
    fn kind(&self) -> MetricKind;
    /// The label keys, outermost first; empty for an unlabelled metric.
    fn labels(&self) -> Vec<String>;
    /// Every series as `(label values, value)`, sorted by label values;
    /// an unlabelled metric has exactly one, with no label values.
    fn series(&self) -> Vec<(Vec<String>, MetricValue)>;
}

impl Metric for Counter {
    fn fresh(&self) -> Self {
        Counter::new()
    }
    fn kind(&self) -> MetricKind {
        MetricKind::Counter
    }
    fn labels(&self) -> Vec<String> {
        Vec::new()
    }
    fn series(&self) -> Vec<(Vec<String>, MetricValue)> {
        vec![(Vec::new(), MetricValue::Counter(self.get()))]
    }
}

impl Metric for Gauge {
    fn fresh(&self) -> Self {
        Gauge::new()
    }
    fn kind(&self) -> MetricKind {
        MetricKind::Gauge
    }
    fn labels(&self) -> Vec<String> {
        Vec::new()
    }
    fn series(&self) -> Vec<(Vec<String>, MetricValue)> {
        vec![(Vec::new(), MetricValue::Gauge(self.get()))]
    }
}

impl Metric for Histogram {
    fn fresh(&self) -> Self {
        Histogram::new(&self.bounds)
    }
    fn kind(&self) -> MetricKind {
        MetricKind::Histogram
    }
    fn labels(&self) -> Vec<String> {
        Vec::new()
    }
    fn series(&self) -> Vec<(Vec<String>, MetricValue)> {
        vec![(Vec::new(), MetricValue::Histogram(self.snapshot()))]
    }
}

/// A labelled family: one `M` per label value, created on first use
/// from the family's template (`server_requests_total{op="query"}`).
/// A family of families carries two labels
/// (`server_queries_total{tenant="acme",op="query"}`).
///
/// The family holds one `RwLock` taken for writing only when a new
/// label value appears; steady-state lookups are shared reads. Hot
/// paths should cache the returned `Arc` and skip the map entirely.
///
/// A family is *bounded*: past `limit` distinct label values, new
/// values share one [`OVERFLOW_LABEL`] series instead of minting their
/// own (first-come keeps its identity, the long tail aggregates). The
/// overflow series never counts against the limit, so a family tops out
/// at `limit + 1` series — the guard that keeps a 1000-tenant farm from
/// registering 1000 series per metric. In a family of families the
/// outer limit caps the first label; give the inner family `usize::MAX`
/// when its label comes from a small fixed vocabulary (opcodes).
#[derive(Debug)]
pub struct Family<M> {
    label: String,
    limit: usize,
    template: M,
    series: RwLock<BTreeMap<String, Arc<M>>>,
}

impl<M: Metric> Family<M> {
    /// A family labelled `label`, capped at `limit` distinct values,
    /// whose series start as fresh copies of `template`.
    pub fn new(label: &str, limit: usize, template: M) -> Self {
        Family {
            label: label.to_owned(),
            limit: limit.max(1),
            template,
            series: RwLock::new(BTreeMap::new()),
        }
    }

    /// The series for `value`, creating it on first use. Once the
    /// family holds its limit of distinct values, unseen values share
    /// the [`OVERFLOW_LABEL`] series.
    pub fn with_label(&self, value: &str) -> Arc<M> {
        if let Some(s) = self.series.read().expect("family lock poisoned").get(value) {
            return Arc::clone(s);
        }
        let mut series = self.series.write().expect("family lock poisoned");
        let key = if series.contains_key(value) || series.len() < self.limit {
            value
        } else {
            OVERFLOW_LABEL
        };
        Arc::clone(
            series
                .entry(key.to_owned())
                .or_insert_with(|| Arc::new(self.template.fresh())),
        )
    }
}

impl<M: Metric> Metric for Family<M> {
    fn fresh(&self) -> Self {
        Family::new(&self.label, self.limit, self.template.fresh())
    }
    fn kind(&self) -> MetricKind {
        self.template.kind()
    }
    fn labels(&self) -> Vec<String> {
        let mut labels = vec![self.label.clone()];
        labels.extend(self.template.labels());
        labels
    }
    fn series(&self) -> Vec<(Vec<String>, MetricValue)> {
        let series = self.series.read().expect("family lock poisoned");
        let mut out = Vec::new();
        for (value, s) in series.iter() {
            for (mut values, v) in s.series() {
                values.insert(0, value.clone());
                out.push((values, v));
            }
        }
        out
    }
}

#[derive(Debug)]
struct Registered {
    name: String,
    help: String,
    metric: Arc<dyn Metric>,
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

    /// The metric named `name`, registering `make()` on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different type.
    fn register<M: Metric>(&self, name: &str, help: &str, make: impl FnOnce() -> M) -> Arc<M> {
        let mut inner = self.inner.write().expect("registry lock poisoned");
        if let Some(existing) = inner.iter().find(|r| r.name == name) {
            let any: Arc<dyn Any + Send + Sync> = existing.metric.clone();
            return any.downcast().unwrap_or_else(|_| {
                panic!("metric `{name}` already registered with a different type")
            });
        }
        let metric = Arc::new(make());
        inner.push(Registered {
            name: name.to_owned(),
            help: help.to_owned(),
            metric: Arc::clone(&metric) as Arc<dyn Metric>,
        });
        metric
    }

    /// The counter named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different type.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.register(name, help, Counter::new)
    }

    /// The gauge named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different type.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.register(name, help, Gauge::new)
    }

    /// The histogram named `name`, registering `hist` on first use (the
    /// builder is ignored when the name already exists).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different type.
    pub fn histogram(&self, name: &str, help: &str, hist: Histogram) -> Arc<Histogram> {
        self.register(name, help, || hist)
    }

    /// The family named `name`, labelled `label` and capped at `limit`
    /// distinct values (`usize::MAX` for none), registering it with
    /// `template` as its series layout on first use. The label, limit
    /// and layout are fixed at first registration.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different type —
    /// including a family of a different series type.
    pub fn family<M: Metric>(
        &self,
        name: &str,
        help: &str,
        label: &str,
        limit: usize,
        template: M,
    ) -> Arc<Family<M>> {
        self.register(name, help, || Family::new(label, limit, template))
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
                    kind: r.metric.kind(),
                    labels: r.metric.labels(),
                    series: r.metric.series(),
                })
                .collect(),
        }
    }
}

/// The process-wide registry for metrics that belong to no server or
/// edit log: propagation work counters, builds, snapshots, the serving
/// layer, baseline comparison counters.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// What a metric measures, which decides how it is exported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// A [`Counter`].
    Counter,
    /// A [`Gauge`].
    Gauge,
    /// A [`Histogram`].
    Histogram,
}

impl MetricKind {
    /// The Prometheus and JSON type name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One series' value inside a [`MetricSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// A counter's current value.
    Counter(u64),
    /// A gauge's current value.
    Gauge(i64),
    /// A histogram's buckets.
    Histogram(HistogramSnapshot),
}

/// One metric's state inside a [`Snapshot`]: every metric is a family
/// of series, and an unlabelled one is the family with no label keys
/// and exactly one series.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSnapshot {
    /// The registered name (Prometheus-style, e.g.
    /// `serve_index_publishes_total`).
    pub name: String,
    /// The registered help text.
    pub help: String,
    /// What every series measures (known even when there are none).
    pub kind: MetricKind,
    /// The label keys, outermost first; empty when unlabelled.
    pub labels: Vec<String>,
    /// `(label values, value)` per series, one label value per key,
    /// sorted by label values.
    pub series: Vec<(Vec<String>, MetricValue)>,
}

impl MetricSnapshot {
    /// `k="v",…` for a series' label values (empty when unlabelled),
    /// each value passed through `escape`.
    fn label_pairs(&self, values: &[String], escape: impl Fn(&str) -> String) -> String {
        let pairs: Vec<String> = self
            .labels
            .iter()
            .zip(values)
            .map(|(k, v)| format!("{k}=\"{}\"", escape(v)))
            .collect();
        pairs.join(",")
    }
}

/// `{pairs}`, or nothing for an unlabelled series.
fn braced(pairs: &str) -> String {
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{pairs}}}")
    }
}

/// Renders one histogram's cumulative bucket/sum/count series, with the
/// series' label pairs (`tenant="acme"`, or none) spliced before `le`.
fn render_prom_histogram(out: &mut String, name: &str, pairs: &str, h: &HistogramSnapshot) {
    let prefix = if pairs.is_empty() {
        String::new()
    } else {
        format!("{pairs},")
    };
    let labels = braced(pairs);
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
    out.push_str(&format!("{name}_sum{labels} {}\n", h.sum));
    out.push_str(&format!("{name}_count{labels} {}\n", h.count));
}

/// Appends one series' JSON value fields: a plain metric reports
/// `value` (a histogram its buckets), a family's series `count`,
/// `gauge`, or a histogram's p50/p99.
fn render_json_value(out: &mut String, value: &MetricValue, labelled: bool) {
    match (value, labelled) {
        (MetricValue::Counter(v), false) => out.push_str(&format!("\"value\":{v}")),
        (MetricValue::Gauge(v), false) => out.push_str(&format!("\"value\":{v}")),
        (MetricValue::Counter(v), true) => out.push_str(&format!("\"count\":{v}")),
        (MetricValue::Gauge(v), true) => out.push_str(&format!("\"gauge\":{v}")),
        (MetricValue::Histogram(h), false) => {
            out.push_str(&format!(
                "\"count\":{},\"sum\":{},\"buckets\":[",
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
            out.push(']');
        }
        (MetricValue::Histogram(h), true) => out.push_str(&format!(
            "\"count\":{},\"sum\":{},\"p50\":{},\"p99\":{}",
            h.count,
            h.sum,
            h.quantile(0.5),
            h.quantile(0.99)
        )),
    }
}

/// Appends `items` as a JSON array of strings.
fn json_array(out: &mut String, items: &[String]) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::escape_into(item, out);
    }
    out.push(']');
}

/// A point-in-time copy of a [`Registry`], ready for rendering.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// The metrics, in registration order.
    pub metrics: Vec<MetricSnapshot>,
}

impl Snapshot {
    /// The value of the unlabelled metric named `name`.
    fn plain(&self, name: &str) -> Option<&MetricValue> {
        self.metrics
            .iter()
            .find(|m| m.name == name && m.labels.is_empty())
            .and_then(|m| m.series.first())
            .map(|(_, v)| v)
    }

    /// Looks up a plain counter by name (convenience for tests and
    /// assertions).
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.plain(name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.plain(name)? {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.plain(name)? {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Appends `other`'s metrics (a server combines its own registry,
    /// its edit log's and the process-wide one into one export).
    pub fn extend(&mut self, other: Snapshot) {
        self.metrics.extend(other.metrics);
    }

    /// A human-readable dump, one series per line; histograms show
    /// count/mean/p50/p99 instead of raw buckets. Label values are
    /// printed as they are.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            for (values, value) in &m.series {
                let series = format!(
                    "{}{}",
                    m.name,
                    braced(&m.label_pairs(values, str::to_owned))
                );
                match value {
                    MetricValue::Counter(v) => out.push_str(&format!("{series:<40} {v}\n")),
                    MetricValue::Gauge(v) => out.push_str(&format!("{series:<40} {v}\n")),
                    MetricValue::Histogram(h) => out.push_str(&format!(
                        "{series:<40} count={} mean={:.0} p50≤{} p99≤{}\n",
                        h.count,
                        h.mean(),
                        h.quantile(0.5),
                        h.quantile(0.99),
                    )),
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
            out.push_str(&format!("# TYPE {} {}\n", m.name, m.kind.name()));
            for (values, value) in &m.series {
                let pairs = m.label_pairs(values, json::escape_fragment);
                let labels = braced(&pairs);
                match value {
                    MetricValue::Counter(v) => out.push_str(&format!("{}{labels} {v}\n", m.name)),
                    MetricValue::Gauge(v) => out.push_str(&format!("{}{labels} {v}\n", m.name)),
                    MetricValue::Histogram(h) => {
                        render_prom_histogram(&mut out, &m.name, &pairs, h)
                    }
                }
            }
        }
        out
    }

    /// A JSON object: `{"metrics":[{"name":…,"type":…,…}, …]}`. A
    /// one-label family names its key `label` and each series' value
    /// `value`; a two-label family uses `labels` and `values` arrays.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"metrics\":[");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json::escape_into(&m.name, &mut out);
            out.push_str(&format!(",\"type\":\"{}\",", m.kind.name()));
            if m.labels.is_empty() {
                for (_, value) in &m.series {
                    render_json_value(&mut out, value, false);
                }
                out.push('}');
                continue;
            }
            if let [label] = m.labels.as_slice() {
                out.push_str("\"label\":");
                json::escape_into(label, &mut out);
            } else {
                out.push_str("\"labels\":");
                json_array(&mut out, &m.labels);
            }
            out.push_str(",\"series\":[");
            for (j, (values, value)) in m.series.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                if let [v] = values.as_slice() {
                    out.push_str("{\"value\":");
                    json::escape_into(v, &mut out);
                } else {
                    out.push_str("{\"values\":");
                    json_array(&mut out, values);
                }
                out.push(',');
                render_json_value(&mut out, value, true);
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `(label values, value)` series of the metric named `name`.
    fn series(r: &Registry, name: &str) -> Vec<(Vec<String>, MetricValue)> {
        let snap = r.snapshot();
        let m = snap.metrics.iter().find(|m| m.name == name).unwrap();
        m.series.clone()
    }

    /// One expected series: its label values and value.
    fn at(values: &[&str], value: MetricValue) -> (Vec<String>, MetricValue) {
        (values.iter().map(|v| v.to_string()).collect(), value)
    }

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
    #[should_panic(expected = "different type")]
    fn family_series_type_mismatch_panics() {
        let r = Registry::new();
        r.family("x", "", "l", 4, Counter::new());
        r.family("x", "", "l", 4, Gauge::new());
    }

    #[test]
    fn family_series_are_independent() {
        let r = Registry::new();
        let f = r.family(
            "shard_hits_total",
            "per-shard hits",
            "shard",
            usize::MAX,
            Counter::new(),
        );
        f.with_label("0").add(3);
        f.with_label("1").inc();
        f.with_label("0").inc();
        assert_eq!(
            series(&r, "shard_hits_total"),
            vec![
                at(&["0"], MetricValue::Counter(4)),
                at(&["1"], MetricValue::Counter(1))
            ]
        );
    }

    #[test]
    fn renderers_cover_every_metric_kind() {
        let r = Registry::new();
        r.counter("c_total", "a counter").add(5);
        r.gauge("g", "a gauge").set(-2);
        r.histogram("h_ns", "a histogram", Histogram::new(&[10, 100]))
            .observe(7);
        r.family("f_total", "a family", "shard", usize::MAX, Counter::new())
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
        let f = r.family("t_total", "per tenant", "tenant", 2, Counter::new());
        f.with_label("a").inc();
        f.with_label("b").inc();
        f.with_label("c").add(3); // past the limit: shares `other`
        f.with_label("d").inc();
        f.with_label("a").inc(); // existing series keep their identity
        assert_eq!(
            series(&r, "t_total"),
            vec![
                at(&["a"], MetricValue::Counter(2)),
                at(&["b"], MetricValue::Counter(1)),
                at(&[OVERFLOW_LABEL], MetricValue::Counter(4)),
            ]
        );
    }

    #[test]
    fn gauge_family_tracks_per_label_values() {
        let r = Registry::new();
        let f = r.family(
            "tenant_epoch",
            "epoch per tenant",
            "tenant",
            8,
            Gauge::new(),
        );
        f.with_label("a").set(3);
        f.with_label("b").set(-1);
        f.with_label("a").set(4);
        assert_eq!(
            series(&r, "tenant_epoch"),
            vec![
                at(&["a"], MetricValue::Gauge(4)),
                at(&["b"], MetricValue::Gauge(-1))
            ]
        );
    }

    #[test]
    fn histogram_family_shares_bucket_layout() {
        let r = Registry::new();
        let f = r.family(
            "lat_ns",
            "latency per tenant",
            "tenant",
            1,
            Histogram::new(&[10, 100]),
        );
        f.with_label("a").observe(5);
        f.with_label("a").observe(50);
        f.with_label("b").observe(7); // overflow series, same bounds
        let snap: Vec<(Vec<String>, HistogramSnapshot)> = series(&r, "lat_ns")
            .into_iter()
            .map(|(values, v)| match v {
                MetricValue::Histogram(h) => (values, h),
                other => panic!("not a histogram: {other:?}"),
            })
            .collect();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].0, ["a"]);
        assert_eq!(snap[0].1.count, 2);
        assert_eq!(snap[1].0, [OVERFLOW_LABEL]);
        assert_eq!(snap[1].1.bounds, vec![10, 100]);
    }

    #[test]
    fn family2_caps_on_first_label_only() {
        let r = Registry::new();
        let ops = Family::new("op", usize::MAX, Counter::new());
        let f = r.family("q_total", "queries", "tenant", 1, ops);
        f.with_label("a").with_label("query").inc();
        f.with_label("a").with_label("batch").inc(); // second label is unbounded
        f.with_label("b").with_label("query").add(2); // first label past limit
        assert_eq!(
            series(&r, "q_total"),
            vec![
                at(&["a", "batch"], MetricValue::Counter(1)),
                at(&["a", "query"], MetricValue::Counter(1)),
                at(&[OVERFLOW_LABEL, "query"], MetricValue::Counter(2)),
            ]
        );
    }

    #[test]
    fn prometheus_escapes_hostile_label_values_and_help() {
        // A tenant named with an embedded quote and newline must not be
        // able to break out of the label value or inject series.
        let hostile = "acme\"prod\ninjected";
        let r = Registry::new();
        r.family(
            "by_tenant_total",
            "per-tenant\nwith \\slash",
            "tenant",
            usize::MAX,
            Counter::new(),
        )
        .with_label(hostile)
        .inc();
        r.family("epoch", "", "tenant", 8, Gauge::new())
            .with_label(hostile)
            .set(2);
        r.family("lat", "", "tenant", 8, Histogram::new(&[10]))
            .with_label(hostile)
            .observe(1);
        let ops = Family::new("op", usize::MAX, Counter::new());
        r.family("ops_total", "", "tenant", 8, ops)
            .with_label(hostile)
            .with_label("query")
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
        r.family("gf", "g", "t", 8, Gauge::new())
            .with_label("x")
            .set(5);
        r.family("hf", "h", "t", 8, Histogram::new(&[10]))
            .with_label("x")
            .observe(3);
        r.family(
            "cf2",
            "c",
            "a",
            8,
            Family::new("b", usize::MAX, Counter::new()),
        )
        .with_label("x")
        .with_label("y")
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

    /// One registry holding every metric shape the renderers know: an
    /// unlabelled counter, gauge and histogram, a bounded counter family
    /// past its limit, a gauge family carrying a hostile label value, a
    /// histogram family, a two-label family, and two families that
    /// hold no series yet.
    fn golden_registry() -> Registry {
        let r = Registry::new();
        r.counter("c_total", "a counter").add(5);
        r.gauge("g", "a gauge\nwith \\slash").set(-2);
        let h = r.histogram("h_ns", "a histogram", Histogram::new(&[10, 100]));
        h.observe(7);
        h.observe(500);
        let t = r.family("t_total", "per tenant", "tenant", 2, Counter::new());
        t.with_label("b").inc();
        t.with_label("a").add(2);
        t.with_label("c").add(3);
        t.with_label("d").inc();
        let e = r.family("epoch", "epoch per tenant", "tenant", 8, Gauge::new());
        e.with_label("a").set(3);
        e.with_label("acme\"prod\ninjected").set(2);
        let l = r.family("lat_ns", "latency", "tenant", 8, Histogram::new(&[10]));
        l.with_label("a").observe(5);
        l.with_label("a").observe(50);
        let ops = || Family::new("op", usize::MAX, Counter::new());
        let q = r.family("q_total", "queries", "tenant", 1, ops());
        q.with_label("a").with_label("query").inc();
        q.with_label("a").with_label("batch").add(4);
        q.with_label("b").with_label("query").add(2);
        r.family(
            "e_total",
            "no series yet",
            "code",
            usize::MAX,
            Counter::new(),
        );
        r.family("z_total", "no series yet", "tenant", 4, ops());
        r
    }

    #[test]
    fn renderers_are_byte_stable() {
        let snap = golden_registry().snapshot();
        assert_eq!(snap.render_text(), GOLDEN_TEXT);
        assert_eq!(snap.render_prometheus(), GOLDEN_PROMETHEUS);
        assert_eq!(snap.render_json(), GOLDEN_JSON);
    }

    const GOLDEN_TEXT: &str = "\
        c_total                                  5\n\
        g                                        -2\n\
        h_ns                                     count=2 mean=254 p50≤10 p99≤18446744073709551615\n\
        t_total{tenant=\"a\"}                      2\n\
        t_total{tenant=\"b\"}                      1\n\
        t_total{tenant=\"other\"}                  4\n\
        epoch{tenant=\"a\"}                        3\n\
        epoch{tenant=\"acme\"prod\n\
        injected\"}       2\n\
        lat_ns{tenant=\"a\"}                       count=2 mean=28 p50≤10 p99≤18446744073709551615\n\
        q_total{tenant=\"a\",op=\"batch\"}           4\n\
        q_total{tenant=\"a\",op=\"query\"}           1\n\
        q_total{tenant=\"other\",op=\"query\"}       2\n";

    const GOLDEN_PROMETHEUS: &str = "\
        # HELP c_total a counter\n\
        # TYPE c_total counter\n\
        c_total 5\n\
        # HELP g a gauge\\nwith \\\\slash\n\
        # TYPE g gauge\n\
        g -2\n\
        # HELP h_ns a histogram\n\
        # TYPE h_ns histogram\n\
        h_ns_bucket{le=\"10\"} 1\n\
        h_ns_bucket{le=\"100\"} 1\n\
        h_ns_bucket{le=\"+Inf\"} 2\n\
        h_ns_sum 507\n\
        h_ns_count 2\n\
        # HELP t_total per tenant\n\
        # TYPE t_total counter\n\
        t_total{tenant=\"a\"} 2\n\
        t_total{tenant=\"b\"} 1\n\
        t_total{tenant=\"other\"} 4\n\
        # HELP epoch epoch per tenant\n\
        # TYPE epoch gauge\n\
        epoch{tenant=\"a\"} 3\n\
        epoch{tenant=\"acme\\\"prod\\ninjected\"} 2\n\
        # HELP lat_ns latency\n\
        # TYPE lat_ns histogram\n\
        lat_ns_bucket{tenant=\"a\",le=\"10\"} 1\n\
        lat_ns_bucket{tenant=\"a\",le=\"+Inf\"} 2\n\
        lat_ns_sum{tenant=\"a\"} 55\n\
        lat_ns_count{tenant=\"a\"} 2\n\
        # HELP q_total queries\n\
        # TYPE q_total counter\n\
        q_total{tenant=\"a\",op=\"batch\"} 4\n\
        q_total{tenant=\"a\",op=\"query\"} 1\n\
        q_total{tenant=\"other\",op=\"query\"} 2\n\
        # HELP e_total no series yet\n\
        # TYPE e_total counter\n\
        # HELP z_total no series yet\n\
        # TYPE z_total counter\n";

    const GOLDEN_JSON: &str = "\
        {\"metrics\":[{\"name\":\"c_total\",\"type\":\"counter\",\"value\":5},\
        {\"name\":\"g\",\"type\":\"gauge\",\"value\":-2},\
        {\"name\":\"h_ns\",\"type\":\"histogram\",\"count\":2,\"sum\":507,\"buckets\":[{\"le\":10,\"count\":1},{\"le\":100,\"count\":0},{\"le\":\"inf\",\"count\":1}]},\
        {\"name\":\"t_total\",\"type\":\"counter\",\"label\":\"tenant\",\"series\":[{\"value\":\"a\",\"count\":2},{\"value\":\"b\",\"count\":1},{\"value\":\"other\",\"count\":4}]},\
        {\"name\":\"epoch\",\"type\":\"gauge\",\"label\":\"tenant\",\"series\":[{\"value\":\"a\",\"gauge\":3},{\"value\":\"acme\\\"prod\\ninjected\",\"gauge\":2}]},\
        {\"name\":\"lat_ns\",\"type\":\"histogram\",\"label\":\"tenant\",\"series\":[{\"value\":\"a\",\"count\":2,\"sum\":55,\"p50\":10,\"p99\":18446744073709551615}]},\
        {\"name\":\"q_total\",\"type\":\"counter\",\"labels\":[\"tenant\",\"op\"],\"series\":[{\"values\":[\"a\",\"batch\"],\"count\":4},{\"values\":[\"a\",\"query\"],\"count\":1},{\"values\":[\"other\",\"query\"],\"count\":2}]},\
        {\"name\":\"e_total\",\"type\":\"counter\",\"label\":\"code\",\"series\":[]},\
        {\"name\":\"z_total\",\"type\":\"counter\",\"labels\":[\"tenant\",\"op\"],\"series\":[]}]}";

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
