//! Every metric a server exports, declared once and owned per instance.
//!
//! [`Farm::with_options`](crate::Farm::with_options) builds one
//! [`ServerMetrics`]. A server has exactly one farm, and its
//! connections, reactors, follower and compaction all reach the handles
//! through it, so two servers in one process never share a series.
//! Every handle is resolved here, at construction: the request path
//! never takes the registry lock or looks a metric up by name. Every
//! handle always exists — the observability layer has no off switch —
//! so the request path records without checking for one.
//!
//! A server's `/metrics` (and [`Request::Metrics`](crate::Request::Metrics))
//! renders three parts — see [`ServerMetrics::render`]: this registry,
//! the edit log's own counters, and the engine's process-wide
//! `core::obs` facade.

use std::sync::Arc;

use cpplookup_obs::{Counter, Family, Gauge, Histogram, Registry};
use cpplookup_wal::WalStore;

/// One server's metric handles, plus the registry that renders them.
/// Each field is registered under the name [`new`](ServerMetrics::new)
/// gives it.
pub(crate) struct ServerMetrics {
    registry: Registry,
    pub(crate) connections: Arc<Gauge>,
    pub(crate) accepted: Arc<Counter>,
    pub(crate) rejected: Arc<Counter>,
    pub(crate) requests: Arc<Family<Counter>>,
    pub(crate) errors: Arc<Family<Counter>>,
    pub(crate) io_model: Arc<Gauge>,
    pub(crate) admin_requests: Arc<Counter>,
    pub(crate) reactor_connections: Arc<Family<Gauge>>,
    pub(crate) reactor_wakeups: Arc<Family<Counter>>,
    pub(crate) reactor_backlog: Arc<Family<Gauge>>,
    pub(crate) tenants: Arc<Gauge>,
    pub(crate) wal_replayed: Arc<Counter>,
    pub(crate) wal_compactions: Arc<Counter>,
    pub(crate) subscribers: Arc<Gauge>,
    pub(crate) replicated: Arc<Counter>,
    pub(crate) follower_acked_seq: Arc<Family<Gauge>>,
    pub(crate) replication_lag: Arc<Histogram>,
    pub(crate) replication_applied: Arc<Gauge>,
    pub(crate) replication_skipped: Arc<Counter>,
    pub(crate) replication_errors: Arc<Counter>,
    pub(crate) tenant_epoch: Arc<Family<Gauge>>,
    pub(crate) queries: Arc<Family<Family<Counter>>>,
    pub(crate) latency: Arc<Family<Histogram>>,
    pub(crate) bytes_read: Arc<Counter>,
    pub(crate) bytes_written: Arc<Counter>,
}

impl ServerMetrics {
    /// Registers every metric in a fresh registry. `tenant_cardinality`
    /// bounds the tenant-labelled families (tenants past it share one
    /// `other` series).
    pub(crate) fn new(tenant_cardinality: usize) -> ServerMetrics {
        let r = Registry::new();
        ServerMetrics {
            connections: r.gauge("server_connections", "connections currently open"),
            accepted: r.counter("server_connections_total", "connections accepted"),
            rejected: r.counter(
                "server_rejected_total",
                "connections refused by admission control",
            ),
            requests: r.family(
                "server_requests_total",
                "requests served, by operation",
                "op",
                usize::MAX,
                Counter::new(),
            ),
            errors: r.family(
                "server_errors_total",
                "error responses sent, by code",
                "code",
                usize::MAX,
                Counter::new(),
            ),
            io_model: r.gauge(
                "server_io_model",
                "active I/O model (0 = threads, 1 = epoll reactor)",
            ),
            admin_requests: r.counter("server_admin_requests_total", "admin HTTP requests served"),
            reactor_connections: r.family(
                "reactor_connections",
                "connections owned, by reactor",
                "reactor",
                64,
                Gauge::new(),
            ),
            reactor_wakeups: r.family(
                "reactor_wakeups_total",
                "epoll wakeups handled, by reactor",
                "reactor",
                usize::MAX,
                Counter::new(),
            ),
            reactor_backlog: r.family(
                "reactor_writev_backlog_bytes",
                "buffered response bytes awaiting writev, by reactor",
                "reactor",
                64,
                Gauge::new(),
            ),
            tenants: r.gauge("server_tenants", "tenants currently loaded"),
            wal_replayed: r.counter(
                "server_wal_replayed_total",
                "edit-log records replayed at startup",
            ),
            wal_compactions: r.counter(
                "server_wal_compactions_total",
                "edit-log compaction rewrites",
            ),
            subscribers: r.gauge("server_subscribers", "replication subscriptions active"),
            replicated: r.counter(
                "server_replicated_records_total",
                "edit-log records streamed to subscribers",
            ),
            follower_acked_seq: r.family(
                "server_follower_acked_seq",
                "last log sequence number each follower reported applied",
                "follower",
                16,
                Gauge::new(),
            ),
            replication_lag: r.histogram(
                "replication_lag_ns",
                "per-record apply-time minus leader append-time",
                Histogram::latency_ns(),
            ),
            replication_applied: r.gauge(
                "replication_applied_seq",
                "last leader log sequence number applied locally",
            ),
            replication_skipped: r.counter(
                "replication_skipped_total",
                "replayed records deterministically skipped (leader rejected them too)",
            ),
            replication_errors: r.counter(
                "replication_errors_total",
                "records that failed to apply or stream errors",
            ),
            tenant_epoch: r.family(
                "tenant_epoch",
                "currently published index epoch, by tenant",
                "tenant",
                tenant_cardinality,
                Gauge::new(),
            ),
            queries: r.family(
                "server_queries_total",
                "requests served, by tenant and operation",
                "tenant",
                tenant_cardinality,
                Family::new("op", usize::MAX, Counter::new()),
            ),
            latency: r.family(
                "server_query_latency_ns",
                "end-to-end query/batch service latency, by tenant",
                "tenant",
                tenant_cardinality,
                Histogram::latency_ns(),
            ),
            bytes_read: r.counter("server_bytes_read_total", "request bytes read off the wire"),
            bytes_written: r.counter(
                "server_bytes_written_total",
                "response bytes written to the wire",
            ),
            registry: r,
        }
    }

    /// The Prometheus exposition text a server answers `/metrics` with:
    /// this instance's metrics, then the edit log's counters (when the
    /// server has a log), then the engine's process-wide facade.
    pub(crate) fn render(&self, wal: Option<&WalStore>) -> String {
        let mut snapshot = self.registry.snapshot();
        if let Some(wal) = wal {
            snapshot.extend(wal.metrics());
        }
        snapshot.extend(cpplookup_core::obs::snapshot());
        snapshot.render_prometheus()
    }
}
