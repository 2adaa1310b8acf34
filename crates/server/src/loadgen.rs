//! Load generation: open- and closed-loop clients with zipfian skew.
//!
//! Two pacing disciplines, because they answer different questions:
//!
//! * **Closed loop** — each connection fires its next request the
//!   moment the previous response lands. Measures *capacity*: the
//!   sustained QPS the server can absorb at a given concurrency, with
//!   latency under saturation.
//! * **Open loop** — requests depart on a fixed schedule whether or not
//!   earlier ones have returned, and latency is measured from the
//!   *scheduled* departure, so a server that stalls accrues the stall
//!   in every queued request's latency rather than silently slowing the
//!   clock (the coordinated-omission trap).
//!
//! Tenant and probe choice are zipf-distributed: real multi-tenant
//! traffic concentrates on a few hot tenants and hot lookup keys, and
//! uniform traffic would misstate the cache-residency behaviour of the
//! dispatch directories (a hot tenant's stay resident, a cold one's
//! miss).

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use cpplookup_obs::{Histogram, HistogramSnapshot};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::client::{Client, ClientError};
use crate::protocol::WireSpan;

/// One tenant a load run targets, with the probe vocabulary to draw
/// from (rank 0 is the hottest under zipf skew).
#[derive(Clone, Debug)]
pub struct TenantTarget {
    /// Tenant name as loaded on the server.
    pub name: String,
    /// `(class, member)` name pairs known to exist in the tenant.
    pub probes: Vec<(String, String)>,
}

/// Request pacing discipline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Pacing {
    /// Fire the next request when the previous response lands.
    Closed,
    /// Fire on a fixed schedule of `rate` requests/second aggregate
    /// across all connections; latency is measured from the scheduled
    /// departure time.
    Open {
        /// Aggregate request rate, requests per second.
        rate: f64,
    },
}

/// A load run's shape.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Server address, `host:port`.
    pub addr: String,
    /// Concurrent connections.
    pub connections: usize,
    /// Wall-clock run length.
    pub duration: Duration,
    /// Closed or open loop.
    pub pacing: Pacing,
    /// Zipf exponent over tenant ranks (0.0 = uniform).
    pub tenant_skew: f64,
    /// Zipf exponent over probe ranks within a tenant (0.0 = uniform).
    pub probe_skew: f64,
    /// Probes per request: 1 sends `QUERY`, larger sends `BATCH`.
    pub batch: usize,
    /// RNG seed; worker `i` derives its stream from `seed + i`.
    pub seed: u64,
    /// Send every request with the TRACE flag and aggregate the
    /// server's per-phase attribution into the report.
    pub trace: bool,
    /// Every Nth request per worker is an `EDIT` adding a fresh member
    /// to the sampled tenant instead of a read (0 = reads only) — the
    /// write mix that drives the durable edit log in E25.
    pub edit_every: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: String::new(),
            connections: 1,
            duration: Duration::from_secs(1),
            pacing: Pacing::Closed,
            tenant_skew: 1.0,
            probe_skew: 1.0,
            batch: 1,
            seed: 0xC0FFEE,
            trace: false,
            edit_every: 0,
        }
    }
}

/// What a run measured.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Requests sent (a batch counts once).
    pub requests: u64,
    /// Probes answered (a batch counts its length).
    pub probes: u64,
    /// Error responses received (transport failures end a worker and
    /// also count here).
    pub errors: u64,
    /// Edit requests applied (counted inside
    /// [`requests`](LoadReport::requests) too).
    pub edits: u64,
    /// Wall-clock elapsed.
    pub elapsed: Duration,
    /// Per-request latency, nanoseconds.
    pub latency: HistogramSnapshot,
    /// Per-probe latency, nanoseconds: each request's latency divided
    /// evenly over the probes it carried, observed once per probe.
    /// Makes batched and unbatched runs comparable — a 16-probe batch
    /// is one slow *request* but sixteen fast *probes* — which is the
    /// comparison the E26 batch experiment reports.
    pub probe_latency: HistogramSnapshot,
    /// Traced responses aggregated into [`phases`](LoadReport::phases).
    pub traced: u64,
    /// Total server-side nanoseconds per request phase, summed over
    /// every traced response (empty unless the run traced).
    pub phases: BTreeMap<String, u64>,
}

impl LoadReport {
    /// Requests per second over the run.
    pub fn qps(&self) -> f64 {
        self.requests as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Probes per second over the run.
    pub fn pps(&self) -> f64 {
        self.probes as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Median request latency in microseconds (bucket upper bound).
    pub fn p50_us(&self) -> f64 {
        self.latency.quantile(0.50) as f64 / 1e3
    }

    /// Tail request latency in microseconds (bucket upper bound).
    pub fn p99_us(&self) -> f64 {
        self.latency.quantile(0.99) as f64 / 1e3
    }

    /// Median per-probe latency in microseconds (bucket upper bound).
    pub fn probe_p50_us(&self) -> f64 {
        self.probe_latency.quantile(0.50) as f64 / 1e3
    }

    /// Tail per-probe latency in microseconds (bucket upper bound).
    pub fn probe_p99_us(&self) -> f64 {
        self.probe_latency.quantile(0.99) as f64 / 1e3
    }

    /// One human-readable summary line (plus a per-phase breakdown
    /// when the run traced).
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} requests ({} probes) in {:.2}s: {:.0} req/s, {:.0} probes/s, \
             p50 {:.1}us p99 {:.1}us, per-probe p50 {:.1}us p99 {:.1}us, {} errors",
            self.requests,
            self.probes,
            self.elapsed.as_secs_f64(),
            self.qps(),
            self.pps(),
            self.p50_us(),
            self.p99_us(),
            self.probe_p50_us(),
            self.probe_p99_us(),
            self.errors,
        );
        if self.edits > 0 {
            out.push_str(&format!(", {} edits", self.edits));
        }
        if self.traced > 0 {
            let total: u64 = self.phases.values().sum();
            out.push_str(&format!(
                "\nserver-side attribution over {} traced requests:",
                self.traced
            ));
            // Heaviest phase first; ties break on the label.
            let mut ranked: Vec<(&String, &u64)> = self.phases.iter().collect();
            ranked.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
            for (label, ns) in ranked {
                out.push_str(&format!(
                    "\n  {label:>16}: {:>9.1}us/req  {:5.1}%",
                    *ns as f64 / self.traced as f64 / 1e3,
                    100.0 * *ns as f64 / total.max(1) as f64,
                ));
            }
        }
        out
    }
}

/// A zipf sampler over ranks `0..n`: rank `i` is drawn with probability
/// proportional to `(i+1)^-s`. `s = 0` degenerates to uniform.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cumulative = Vec::with_capacity(n.max(1));
        let mut total = 0.0;
        for i in 0..n.max(1) {
            total += 1.0 / ((i + 1) as f64).powf(s);
            cumulative.push(total);
        }
        Zipf { cumulative }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let total = *self.cumulative.last().unwrap();
        let x = rng.gen_range(0.0..total);
        self.cumulative.partition_point(|&c| c <= x)
    }
}

/// Runs the configured load against `targets`, blocking until the
/// duration elapses and every worker has drained.
///
/// # Errors
///
/// Configuration errors (no targets, a target with no probes) and
/// total connection failure — a run where *no* worker could connect.
pub fn run(config: &LoadConfig, targets: &[TenantTarget]) -> io::Result<LoadReport> {
    if targets.is_empty() || targets.iter().any(|t| t.probes.is_empty()) {
        return Err(io::Error::other("loadgen needs targets with probes"));
    }
    let targets: Arc<Vec<TenantTarget>> = Arc::new(targets.to_vec());
    let tenant_zipf = Arc::new(Zipf::new(targets.len(), config.tenant_skew));
    let probe_zipfs: Arc<Vec<Zipf>> = Arc::new(
        targets
            .iter()
            .map(|t| Zipf::new(t.probes.len(), config.probe_skew))
            .collect(),
    );
    let errors = Arc::new(AtomicU64::new(0));
    let connected = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let deadline = start + config.duration;
    let workers: Vec<_> = (0..config.connections.max(1))
        .map(|worker| {
            let (config, targets) = (config.clone(), Arc::clone(&targets));
            let (tenant_zipf, probe_zipfs) = (Arc::clone(&tenant_zipf), Arc::clone(&probe_zipfs));
            let (errors, connected) = (Arc::clone(&errors), Arc::clone(&connected));
            thread::spawn(move || {
                let hist = Histogram::latency_ns();
                let probe_hist = Histogram::latency_ns();
                let mut traced = 0u64;
                let mut phases: BTreeMap<String, u64> = BTreeMap::new();
                let mut rng = SmallRng::seed_from_u64(config.seed.wrapping_add(worker as u64));
                let Ok(mut client) =
                    Client::connect(config.addr.as_str(), Some(Duration::from_secs(10)))
                else {
                    errors.fetch_add(1, Ordering::Relaxed);
                    return (
                        0u64,
                        0u64,
                        hist.snapshot(),
                        probe_hist.snapshot(),
                        0u64,
                        BTreeMap::new(),
                        0u64,
                    );
                };
                connected.fetch_add(1, Ordering::Relaxed);
                // Open loop: this worker owns every `connections`-th
                // slot of the aggregate schedule.
                let interval = match config.pacing {
                    Pacing::Open { rate } => Some(Duration::from_secs_f64(
                        config.connections.max(1) as f64 / rate.max(1e-9),
                    )),
                    Pacing::Closed => None,
                };
                let mut next_departure = Instant::now();
                let (mut requests, mut probes, mut edits) = (0u64, 0u64, 0u64);
                while Instant::now() < deadline {
                    let measure_from = if let Some(interval) = interval {
                        let now = Instant::now();
                        if next_departure > now {
                            thread::sleep(next_departure - now);
                        }
                        let scheduled = next_departure;
                        next_departure += interval;
                        scheduled
                    } else {
                        Instant::now()
                    };
                    let rank = tenant_zipf.sample(&mut rng);
                    let target = &targets[rank];
                    let zipf = &probe_zipfs[rank];
                    let outcome =
                        if config.edit_every > 0 && (requests + 1) % config.edit_every == 0 {
                            // A fresh, per-worker-unique member name keeps
                            // every edit applicable (and the log growing).
                            let (class, _) = &target.probes[zipf.sample(&mut rng)];
                            let directive = format!("member {class} lg_{worker}_{requests}");
                            client.edit(&target.name, &directive).map(|_| {
                                edits += 1;
                                1
                            })
                        } else if config.batch > 1 {
                            let picked: Vec<(String, String)> = (0..config.batch)
                                .map(|_| target.probes[zipf.sample(&mut rng)].clone())
                                .collect();
                            if config.trace {
                                client
                                    .batch_traced(&target.name, &picked)
                                    .map(|(o, spans)| {
                                        traced += 1;
                                        merge_phases(&mut phases, &spans);
                                        o.len() as u64
                                    })
                            } else {
                                client.batch(&target.name, &picked).map(|o| o.len() as u64)
                            }
                        } else {
                            let (class, member) = &target.probes[zipf.sample(&mut rng)];
                            if config.trace {
                                client.query_traced(&target.name, class, member).map(
                                    |(_, spans)| {
                                        traced += 1;
                                        merge_phases(&mut phases, &spans);
                                        1
                                    },
                                )
                            } else {
                                client.query(&target.name, class, member).map(|_| 1)
                            }
                        };
                    match outcome {
                        Ok(n) => {
                            requests += 1;
                            probes += n;
                            let elapsed_ns = measure_from.elapsed().as_nanos() as u64;
                            hist.observe(elapsed_ns);
                            // The request's cost amortized over its
                            // probes, observed once per probe so the
                            // distribution weights by probe count.
                            let per_probe = elapsed_ns / n.max(1);
                            for _ in 0..n {
                                probe_hist.observe(per_probe);
                            }
                        }
                        Err(ClientError::Server { .. }) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            // Transport is gone; this worker is done.
                            errors.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                    }
                }
                (
                    requests,
                    probes,
                    hist.snapshot(),
                    probe_hist.snapshot(),
                    traced,
                    phases,
                    edits,
                )
            })
        })
        .collect();
    let mut requests = 0;
    let mut probes = 0;
    let mut latency = Histogram::latency_ns().snapshot();
    let mut probe_latency = Histogram::latency_ns().snapshot();
    let mut traced = 0;
    let mut phases: BTreeMap<String, u64> = BTreeMap::new();
    let mut edits = 0;
    for w in workers {
        let (r, p, h, ph_hist, t, ph, e) = w.join().expect("loadgen worker panicked");
        requests += r;
        probes += p;
        latency.merge(&h);
        probe_latency.merge(&ph_hist);
        traced += t;
        edits += e;
        for (label, ns) in ph {
            *phases.entry(label).or_insert(0) += ns;
        }
    }
    if connected.load(Ordering::Relaxed) == 0 {
        return Err(io::Error::other(format!(
            "no loadgen worker could connect to {}",
            config.addr
        )));
    }
    Ok(LoadReport {
        requests,
        probes,
        errors: errors.load(Ordering::Relaxed),
        edits,
        elapsed: start.elapsed(),
        latency,
        probe_latency,
        traced,
        phases,
    })
}

/// One level of a connection ramp: the full report at that concurrency
/// plus the process-wide resource readings taken while the level's
/// connections were still open.
#[derive(Clone, Debug)]
pub struct RampLevel {
    /// Concurrent connections at this level.
    pub connections: usize,
    /// The level's load report.
    pub report: LoadReport,
    /// Peak open file descriptors in *this* (loadgen) process sampled
    /// while the level ran — on a loopback run each connection holds
    /// one fd at each end, so this tracks the server's fd footprint
    /// too. `None` where `/proc` is unavailable.
    pub open_fds: Option<usize>,
    /// Peak resident set size of this process sampled while the level
    /// ran (`None` where `/proc` is unavailable). Meaningful for the
    /// server's footprint when the server shares the process, as the
    /// bench harness arranges.
    pub rss_bytes: Option<u64>,
}

/// Open fd count of this process, read from `/proc/self/fd`.
pub fn open_fds() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/fd").ok()?.count())
}

/// Resident set size of this process in bytes, from `/proc/self/status`
/// (`VmRSS` is reported in kB).
pub fn rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Runs the load once per requested connection level — the
/// `--ramp` mode — holding everything else in `config` fixed. A
/// sampler thread reads the process fd/RSS footprint every few
/// milliseconds *while* each level's connections are up and keeps the
/// peak, since the workers close their sockets before [`run`] returns.
///
/// # Errors
///
/// As [`run`]: the first failing level aborts the ramp.
pub fn run_ramp(
    config: &LoadConfig,
    targets: &[TenantTarget],
    levels: &[usize],
) -> io::Result<Vec<RampLevel>> {
    let mut out = Vec::with_capacity(levels.len());
    for &connections in levels {
        let level_config = LoadConfig {
            connections,
            ..config.clone()
        };
        let stop = Arc::new(AtomicU64::new(0));
        let sampler = {
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let (mut peak_fds, mut peak_rss) = (None, None);
                while stop.load(Ordering::Relaxed) == 0 {
                    peak_fds = peak_fds.max(open_fds());
                    peak_rss = peak_rss.max(rss_bytes());
                    thread::sleep(Duration::from_millis(20));
                }
                (peak_fds, peak_rss)
            })
        };
        let result = run(&level_config, targets);
        stop.store(1, Ordering::Relaxed);
        let (open_fds, rss_bytes) = sampler.join().expect("ramp sampler panicked");
        out.push(RampLevel {
            connections,
            report: result?,
            open_fds,
            rss_bytes,
        });
    }
    Ok(out)
}

/// Renders a ramp as an aligned per-level table.
pub fn render_ramp(levels: &[RampLevel]) -> String {
    let mut out =
        String::from("conns      qps       p50us      p99us     errors    open-fds     rss-mb");
    for level in levels {
        let fds = level
            .open_fds
            .map_or_else(|| "-".to_owned(), |n| n.to_string());
        let rss = level.rss_bytes.map_or_else(
            || "-".to_owned(),
            |b| format!("{:.1}", b as f64 / (1024.0 * 1024.0)),
        );
        out.push_str(&format!(
            "\n{:>5} {:>8.0} {:>10.1} {:>10.1} {:>10} {:>11} {:>10}",
            level.connections,
            level.report.qps(),
            level.report.p50_us(),
            level.report.p99_us(),
            level.report.errors,
            fds,
            rss,
        ));
    }
    out
}

/// Accumulates one traced response's child-phase durations (the spans
/// whose parent is the root) into the per-phase totals.
fn merge_phases(phases: &mut BTreeMap<String, u64>, spans: &[WireSpan]) {
    let root = spans.first().map(|s| s.id);
    for s in spans {
        if s.parent_id().is_some() && s.parent_id() == root {
            *phases.entry(s.label.clone()).or_insert(0) += s.duration_ns;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let zipf = Zipf::new(100, 1.2);
        let mut rng = SmallRng::seed_from_u64(42);
        let mut counts = [0usize; 100];
        for _ in 0..10_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10], "{} <= {}", counts[0], counts[10]);
        assert!(counts[0] > 10_000 / 20, "rank 0 should dominate");
    }

    #[test]
    fn zipf_zero_exponent_is_roughly_uniform() {
        let zipf = Zipf::new(4, 0.0);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut counts = [0usize; 4];
        for _ in 0..8_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!(
                (1600..2400).contains(&c),
                "uniform-ish expected: {counts:?}"
            );
        }
    }

    #[test]
    fn zipf_single_rank() {
        let zipf = Zipf::new(1, 1.0);
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(zipf.sample(&mut rng), 0);
    }

    #[test]
    fn run_rejects_empty_targets() {
        let cfg = LoadConfig {
            addr: "127.0.0.1:1".into(),
            ..LoadConfig::default()
        };
        assert!(run(&cfg, &[]).is_err());
        assert!(run(
            &cfg,
            &[TenantTarget {
                name: "t".into(),
                probes: vec![],
            }]
        )
        .is_err());
    }
}
