//! Lock-light observability for the member lookup engine.
//!
//! The lookup engine's performance claims are statements about *work
//! done per query* — the paper's `O(|N|+|E|)` unambiguous bound versus
//! the `O(|N|·(|N|+|E|))` ambiguous one is only meaningful if node
//! visits, merges, and red→blue demotions can be counted. This crate
//! provides the counting machinery, deliberately free of dependencies
//! and of any knowledge of the lookup domain:
//!
//! * [`Counter`], [`Gauge`], [`Histogram`] — relaxed-atomic primitives
//!   whose record path is one or two uncontended read-modify-writes;
//! * [`Family`] — a labelled family of any [`Metric`]
//!   (`…{op="query"}`; a family of families gives
//!   `…{tenant="acme",op="query"}`) with a bounded-cardinality guard:
//!   past a per-family limit, unseen label values share one `other`
//!   series instead of growing the registry without bound;
//! * [`Registry`] — named get-or-create registration returning `Arc`
//!   handles, so hot paths never touch the registry lock;
//! * [`Snapshot`] — point-in-time export as human-readable text,
//!   Prometheus text exposition, or JSON;
//! * [`Span`] / [`SpanRecorder`] / [`SpanBuffer`] — request-scoped
//!   phase attribution: single-writer span trees with per-trace
//!   monotonic ids and oldest-dropped overflow.
//!
//! `cpplookup-core`'s `obs` module wires these into the propagation
//! kernels, the builders and the serving layer; the server and the
//! edit log register their own. There are no feature flags: every
//! metric is always recorded.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;
pub mod metrics;
pub mod registry;
pub mod span;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{
    global, Family, Metric, MetricKind, MetricSnapshot, MetricValue, Registry, Snapshot,
};
pub use span::{Span, SpanBuffer, SpanRecorder, OVERFLOW_LABEL};
