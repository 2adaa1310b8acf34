//! Shared command-line plumbing for the server and load-generator
//! front ends.
//!
//! Both standalone bins (`cpplookup-serverd`, `cpplookup-loadgen`) and
//! the main CLI's `serve` / `loadgen` subcommands parse the same flags
//! and run the same bodies; keeping the logic here means the two entry
//! points cannot drift apart.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use crate::client::Client;
use crate::loadgen::{self, LoadConfig, Pacing, TenantTarget};
use crate::protocol::WireSpan;
use crate::replication::{FollowSource, Follower, FollowerConfig};
use crate::server::{Server, ServerConfig};

/// Usage text for the server front end.
pub const SERVE_USAGE: &str = "[--addr HOST:PORT] [--max-connections N] \
     [--read-timeout-secs N] [--tenant NAME=PATH]... \
     [--recorder-capacity N] [--slow-threshold-ms N] [--tenant-cardinality N] \
     [--io-model threads|epoll] [--reactors N] \
     [--wal PATH] [--fsync-every N] [--retain-epochs N] [--read-only] \
     [--compact-every-secs N] [--compact-dir DIR] \
     [--follow ADDR | --follow-log PATH] [--follower-id NAME]";

/// Usage text for the load-generator front end.
pub const LOADGEN_USAGE: &str = "--addr HOST:PORT --snapshot PATH [--tenants N] [--load] \
     [--connections N] [--ramp N,N,...] [--duration-secs N] [--rate QPS] [--batch-size N] \
     [--tenant-skew S] [--probe-skew S] [--seed N] [--trace] [--edit-every N]";

/// Usage text for the one-shot wire query front end.
pub const QUERY_USAGE: &str =
    "query --addr HOST:PORT --tenant NAME CLASS MEMBER [--trace] [--as-of-epoch N]";

/// A parsed `serve` invocation: the server's own configuration plus the
/// pieces that live beside it (the follower loop, the compaction
/// schedule).
pub struct ServeArgs {
    /// The server configuration.
    pub config: ServerConfig,
    /// Follower mode: replicate a leader's edit log into this farm.
    pub follow: Option<FollowSource>,
    /// The name this follower reports in its ACKs.
    pub follower_id: String,
    /// Compact the edit log on this period.
    pub compact_every: Option<Duration>,
    /// Where compaction checkpoints land (default: the log path with
    /// a `.ckpt` extension, as a directory).
    pub compact_dir: Option<PathBuf>,
}

/// Parses server flags into a [`ServeArgs`].
///
/// # Errors
///
/// A one-line description of the offending flag.
pub fn parse_server_args(args: &[String]) -> Result<ServeArgs, String> {
    let mut out = ServeArgs {
        config: ServerConfig::default(),
        follow: None,
        follower_id: "follower".to_owned(),
        compact_every: None,
        compact_dir: None,
    };
    let config = &mut out.config;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => {
                config.addr = it.next().ok_or("--addr wants HOST:PORT")?.clone();
            }
            "--max-connections" => {
                config.max_connections = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--max-connections wants a number")?;
            }
            "--read-timeout-secs" => {
                let n: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--read-timeout-secs wants a number (0 = no timeout)")?;
                config.read_timeout = (n > 0).then(|| Duration::from_secs(n));
            }
            "--tenant" => {
                let spec = it.next().ok_or("--tenant wants NAME=PATH")?;
                match spec.split_once('=') {
                    Some((name, path)) if !name.is_empty() && !path.is_empty() => {
                        config.preload.push((name.to_owned(), path.into()));
                    }
                    _ => return Err(format!("--tenant wants NAME=PATH, got `{spec}`")),
                }
            }
            "--recorder-capacity" => {
                config.obs.recorder_capacity = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--recorder-capacity wants a positive number")?;
            }
            "--slow-threshold-ms" => {
                let ms: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--slow-threshold-ms wants a number")?;
                config.obs.slow_threshold = Duration::from_millis(ms);
            }
            "--tenant-cardinality" => {
                config.obs.tenant_cardinality = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--tenant-cardinality wants a positive number")?;
            }
            "--wal" => {
                config.wal_path = Some(it.next().ok_or("--wal wants PATH")?.into());
            }
            "--fsync-every" => {
                config.fsync_every = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--fsync-every wants a positive number")?;
            }
            "--retain-epochs" => {
                config.retain_epochs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--retain-epochs wants a positive number")?;
            }
            "--read-only" => config.read_only = true,
            "--io-model" => {
                config.io_model = it
                    .next()
                    .and_then(|v| crate::server::IoModel::parse(v))
                    .ok_or("--io-model wants `threads` or `epoll`")?;
            }
            "--reactors" => {
                config.reactors = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--reactors wants a thread count (0 = one per core)")?;
            }
            "--follow" => {
                let addr = it.next().ok_or("--follow wants HOST:PORT")?.clone();
                out.follow = Some(FollowSource::Wire(addr));
                config.read_only = true;
            }
            "--follow-log" => {
                let path = it.next().ok_or("--follow-log wants PATH")?;
                out.follow = Some(FollowSource::File(path.into()));
                config.read_only = true;
            }
            "--follower-id" => {
                out.follower_id = it.next().ok_or("--follower-id wants NAME")?.clone();
            }
            "--compact-every-secs" => {
                let n: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--compact-every-secs wants a positive number")?;
                out.compact_every = Some(Duration::from_secs(n));
            }
            "--compact-dir" => {
                out.compact_dir = Some(it.next().ok_or("--compact-dir wants DIR")?.into());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if out.compact_every.is_some() && out.config.wal_path.is_none() {
        return Err("--compact-every-secs needs --wal".to_owned());
    }
    Ok(out)
}

/// Starts the server — plus the follower loop with `--follow` /
/// `--follow-log` and the periodic edit-log compactor with
/// `--compact-every-secs` — announces `listening on ADDR` on stderr
/// (tests and wrapper scripts read the real port from that line when
/// port 0 was requested), and serves until the process is killed.
///
/// # Errors
///
/// Bind or preload failure; on success this never returns.
pub fn serve_forever(args: ServeArgs) -> std::io::Error {
    let wal_path = args.config.wal_path.clone();
    let io_model = args.config.io_model;
    let server = match Server::start(args.config) {
        Ok(server) => server,
        Err(e) => return e,
    };
    // The announcement line is a parse contract: wrapper scripts and
    // the CLI e2e test read everything after "listening on " as the
    // bound address (port 0 requests land on a real port). Anything
    // else goes on its own line — written fallibly, because a wrapper
    // that only wanted the address may close our stderr right after
    // reading it, and `eprintln!` panics on the resulting EPIPE.
    eprintln!("listening on {}", server.addr());
    {
        use std::io::Write as _;
        let _ = writeln!(std::io::stderr(), "io model: {}", io_model.label());
    }
    if let Some(source) = args.follow {
        let follower = Follower::start(
            Arc::clone(server.farm()),
            FollowerConfig {
                source,
                follower_id: args.follower_id,
                ..FollowerConfig::default()
            },
        );
        // The follower runs for the life of the process; there is no
        // clean shutdown path past this point, so leak the handle
        // rather than join it in a Drop that never runs.
        std::mem::forget(follower);
    }
    if let Some(every) = args.compact_every {
        let dir = args
            .compact_dir
            .or_else(|| wal_path.map(|p| p.with_extension("ckpt")))
            .expect("--compact-every-secs needs --wal");
        let farm = Arc::clone(server.farm());
        std::thread::spawn(move || loop {
            std::thread::sleep(every);
            match farm.compact_wal(&dir) {
                Ok(dropped) => eprintln!("compacted edit log: {dropped} records dropped"),
                Err(e) => eprintln!("edit log compaction failed: {e:?}"),
            }
        });
    }
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// Parsed load-generator invocation.
pub struct LoadgenArgs {
    /// The run shape (addr filled in from `--addr`).
    pub config: LoadConfig,
    /// Snapshot path opened locally for the probe vocabulary (and sent
    /// in `LOAD` requests with `--load`).
    pub snapshot: String,
    /// Number of tenants to fan the snapshot out as (`t0..tN-1`).
    pub tenants: usize,
    /// Whether to issue `LOAD` for each tenant before the run.
    pub load_first: bool,
    /// Connection-ramp mode: run once per listed concurrency level and
    /// report per-level QPS/latency plus process fd/RSS footprint
    /// (empty = a single run at `config.connections`).
    pub ramp: Vec<usize>,
}

/// Parses load-generator flags.
///
/// # Errors
///
/// A one-line description of the offending flag.
pub fn parse_loadgen_args(args: &[String]) -> Result<LoadgenArgs, String> {
    let mut out = LoadgenArgs {
        config: LoadConfig {
            connections: 4,
            duration: Duration::from_secs(2),
            ..LoadConfig::default()
        },
        snapshot: String::new(),
        tenants: 1,
        load_first: false,
        ramp: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => out.config.addr = it.next().ok_or("--addr wants HOST:PORT")?.clone(),
            "--snapshot" => out.snapshot = it.next().ok_or("--snapshot wants PATH")?.clone(),
            "--load" => out.load_first = true,
            "--tenants" => {
                out.tenants = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--tenants wants a positive number")?;
            }
            "--connections" => {
                out.config.connections = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--connections wants a positive number")?;
            }
            "--ramp" => {
                let levels = it
                    .next()
                    .map(|v| {
                        v.split(',')
                            .map(|part| part.trim().parse::<usize>())
                            .collect::<Result<Vec<usize>, _>>()
                    })
                    .and_then(Result::ok)
                    .filter(|levels| !levels.is_empty() && levels.iter().all(|&n| n > 0))
                    .ok_or("--ramp wants a comma-separated list of connection counts")?;
                out.ramp = levels;
            }
            "--duration-secs" => {
                let s: f64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&s| s > 0.0)
                    .ok_or("--duration-secs wants a positive number")?;
                out.config.duration = Duration::from_secs_f64(s);
            }
            "--rate" => {
                let rate: f64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&r| r > 0.0)
                    .ok_or("--rate wants a positive request rate")?;
                out.config.pacing = Pacing::Open { rate };
            }
            // `--batch-size` is the documented spelling; `--batch` is
            // kept as an alias for scripts written against earlier
            // releases.
            "--batch" | "--batch-size" => {
                out.config.batch = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--batch-size wants a positive probe count")?;
            }
            "--tenant-skew" => {
                out.config.tenant_skew = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--tenant-skew wants a number")?;
            }
            "--probe-skew" => {
                out.config.probe_skew = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--probe-skew wants a number")?;
            }
            "--seed" => {
                out.config.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed wants a number")?;
            }
            "--trace" => out.config.trace = true,
            "--edit-every" => {
                out.config.edit_every = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--edit-every wants a number (0 = reads only)")?;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if out.config.addr.is_empty() {
        return Err("--addr is required".to_owned());
    }
    if out.snapshot.is_empty() {
        return Err("--snapshot is required".to_owned());
    }
    Ok(out)
}

/// Enumerates every `(class, member)` pair with a lookup entry in the
/// snapshot — the live probe vocabulary a load run draws from.
pub fn live_probes(table: &cpplookup_snapshot::SnapshotTable) -> Vec<(String, String)> {
    let mut probes = Vec::new();
    for (c, m, _) in table.entries() {
        if let (Some(class), Some(member)) = (table.class_name(c), table.member_name(m)) {
            probes.push((class.to_owned(), member.to_owned()));
        }
    }
    probes
}

/// Runs a parsed load-generator invocation end to end: opens the
/// snapshot locally for probe names, optionally `LOAD`s the tenants,
/// drives the load, and returns the human summary line.
///
/// # Errors
///
/// A one-line description of what failed.
pub fn run_loadgen(args: &LoadgenArgs) -> Result<String, String> {
    let table = cpplookup_snapshot::SnapshotTable::load(&args.snapshot)
        .map_err(|e| format!("cannot open snapshot `{}`: {e}", args.snapshot))?;
    let probes = live_probes(&table);
    if probes.is_empty() {
        return Err(format!(
            "snapshot `{}` has no lookup entries to probe",
            args.snapshot
        ));
    }
    let targets: Vec<TenantTarget> = (0..args.tenants)
        .map(|i| TenantTarget {
            name: format!("t{i}"),
            probes: probes.clone(),
        })
        .collect();
    if args.load_first {
        let mut client = Client::connect(args.config.addr.as_str(), Some(Duration::from_secs(10)))
            .map_err(|e| format!("cannot connect to {}: {e}", args.config.addr))?;
        for t in &targets {
            client
                .load(&t.name, &args.snapshot)
                .map_err(|e| format!("LOAD {}: {e}", t.name))?;
        }
    }
    if !args.ramp.is_empty() {
        let levels =
            loadgen::run_ramp(&args.config, &targets, &args.ramp).map_err(|e| e.to_string())?;
        return Ok(loadgen::render_ramp(&levels));
    }
    let report = loadgen::run(&args.config, &targets).map_err(|e| e.to_string())?;
    Ok(report.render())
}

/// Parsed one-shot wire query invocation.
pub struct QueryArgs {
    /// Server address, `host:port`.
    pub addr: String,
    /// Tenant to query.
    pub tenant: String,
    /// Class name.
    pub class: String,
    /// Member name.
    pub member: String,
    /// Ask the server for the span tree and print the breakdown.
    pub trace: bool,
    /// Resolve against a retained past epoch instead of the current one.
    pub as_of: Option<u64>,
}

/// Parses one-shot query flags (positional `CLASS MEMBER` plus flags).
///
/// # Errors
///
/// A one-line description of the offending flag.
pub fn parse_query_args(args: &[String]) -> Result<QueryArgs, String> {
    let mut out = QueryArgs {
        addr: String::new(),
        tenant: String::new(),
        class: String::new(),
        member: String::new(),
        trace: false,
        as_of: None,
    };
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => out.addr = it.next().ok_or("--addr wants HOST:PORT")?.clone(),
            "--tenant" => out.tenant = it.next().ok_or("--tenant wants NAME")?.clone(),
            "--trace" => out.trace = true,
            "--as-of-epoch" => {
                out.as_of = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--as-of-epoch wants an epoch number")?,
                );
            }
            other if !other.starts_with("--") => positional.push(other.to_owned()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    match positional.as_slice() {
        [class, member] => {
            out.class = class.clone();
            out.member = member.clone();
        }
        _ => return Err("expected exactly CLASS MEMBER".to_owned()),
    }
    if out.addr.is_empty() {
        return Err("--addr is required".to_owned());
    }
    if out.tenant.is_empty() {
        return Err("--tenant is required".to_owned());
    }
    if out.trace && out.as_of.is_some() {
        return Err("--trace and --as-of-epoch cannot be combined".to_owned());
    }
    Ok(out)
}

/// Runs one wire query and renders the outcome — with `--trace`, the
/// server's span tree follows as an attributed breakdown.
///
/// # Errors
///
/// A one-line description of what failed.
pub fn run_wire_query(args: &QueryArgs) -> Result<String, String> {
    let mut client = Client::connect(args.addr.as_str(), Some(Duration::from_secs(10)))
        .map_err(|e| format!("cannot connect to {}: {e}", args.addr))?;
    if args.trace {
        let (outcome, spans) = client
            .query_traced(&args.tenant, &args.class, &args.member)
            .map_err(|e| e.to_string())?;
        Ok(format!("{outcome:?}\n{}", render_spans(&spans)))
    } else {
        let outcome = client
            .query_at(&args.tenant, &args.class, &args.member, args.as_of)
            .map_err(|e| e.to_string())?;
        Ok(format!("{outcome:?}"))
    }
}

/// Renders a span tree as an indented, percent-attributed breakdown —
/// what `--trace` prints under the outcome.
pub fn render_spans(spans: &[WireSpan]) -> String {
    let total = spans
        .iter()
        .find(|s| s.parent_id().is_none())
        .map_or(0, |root| root.duration_ns);
    let mut out = String::new();
    for s in spans {
        let indent = if s.parent_id().is_none() { "" } else { "  " };
        out.push_str(&format!(
            "{indent}{:<18} {:>9.1}us  {:5.1}%\n",
            s.label,
            s.duration_ns as f64 / 1e3,
            100.0 * s.duration_ns as f64 / total.max(1) as f64,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn server_args_parse() {
        let cfg = parse_server_args(&strs(&[
            "--addr",
            "127.0.0.1:7777",
            "--max-connections",
            "9",
            "--read-timeout-secs",
            "0",
            "--tenant",
            "a=/tmp/a.snap",
        ]))
        .unwrap()
        .config;
        assert_eq!(cfg.addr, "127.0.0.1:7777");
        assert_eq!(cfg.max_connections, 9);
        assert_eq!(cfg.read_timeout, None);
        assert_eq!(cfg.preload.len(), 1);
        assert!(parse_server_args(&strs(&["--tenant", "nope"])).is_err());
        assert!(parse_server_args(&strs(&["--wat"])).is_err());
    }

    #[test]
    fn server_replication_flags_parse() {
        let args = parse_server_args(&strs(&[
            "--wal",
            "/tmp/edits.wal",
            "--fsync-every",
            "8",
            "--retain-epochs",
            "4",
            "--compact-every-secs",
            "60",
            "--compact-dir",
            "/tmp/ckpt",
        ]))
        .unwrap();
        assert_eq!(
            args.config.wal_path.as_deref(),
            Some("/tmp/edits.wal".as_ref())
        );
        assert_eq!(args.config.fsync_every, 8);
        assert_eq!(args.config.retain_epochs, 4);
        assert!(!args.config.read_only);
        assert_eq!(args.compact_every, Some(Duration::from_secs(60)));
        assert_eq!(args.compact_dir.as_deref(), Some("/tmp/ckpt".as_ref()));
        assert!(
            parse_server_args(&strs(&["--compact-every-secs", "60"])).is_err(),
            "compaction without a log"
        );
        assert!(parse_server_args(&strs(&["--fsync-every", "0"])).is_err());
        assert!(parse_server_args(&strs(&["--retain-epochs", "0"])).is_err());
    }

    #[test]
    fn follower_flags_imply_read_only() {
        let args = parse_server_args(&strs(&[
            "--follow",
            "127.0.0.1:9999",
            "--follower-id",
            "replica-a",
        ]))
        .unwrap();
        assert!(matches!(args.follow, Some(FollowSource::Wire(ref a)) if a == "127.0.0.1:9999"));
        assert_eq!(args.follower_id, "replica-a");
        assert!(args.config.read_only);
        let args = parse_server_args(&strs(&["--follow-log", "/tmp/edits.wal"])).unwrap();
        assert!(matches!(args.follow, Some(FollowSource::File(_))));
        assert!(args.config.read_only);
        let args = parse_server_args(&strs(&["--read-only"])).unwrap();
        assert!(args.config.read_only);
        assert!(args.follow.is_none());
    }

    #[test]
    fn loadgen_args_parse_and_validate() {
        let args = parse_loadgen_args(&strs(&[
            "--addr",
            "h:1",
            "--snapshot",
            "x.snap",
            "--tenants",
            "3",
            "--load",
            "--rate",
            "500",
            "--batch",
            "16",
        ]))
        .unwrap();
        assert_eq!(args.tenants, 3);
        assert!(args.load_first);
        assert_eq!(args.config.batch, 16);
        assert!(matches!(args.config.pacing, Pacing::Open { rate } if rate == 500.0));
        assert!(
            parse_loadgen_args(&strs(&["--addr", "h:1"])).is_err(),
            "snapshot required"
        );
        assert!(
            parse_loadgen_args(&strs(&["--snapshot", "x"])).is_err(),
            "addr required"
        );
        assert!(
            parse_loadgen_args(&strs(&["--addr", "h:1", "--snapshot", "x", "--rate", "-1"]))
                .is_err()
        );
    }

    #[test]
    fn server_io_model_flags_parse() {
        use crate::server::IoModel;
        let cfg = parse_server_args(&strs(&["--io-model", "epoll"]))
            .unwrap()
            .config;
        assert_eq!(cfg.io_model, IoModel::Epoll);
        let cfg = parse_server_args(&strs(&["--io-model", "threads"]))
            .unwrap()
            .config;
        assert_eq!(cfg.io_model, IoModel::Threads);
        let cfg = parse_server_args(&strs(&[])).unwrap().config;
        assert_eq!(cfg.io_model, IoModel::Threads, "threads is the default");
        assert!(parse_server_args(&strs(&["--io-model", "uring"])).is_err());
        assert!(parse_server_args(&strs(&["--io-model"])).is_err());

        let cfg = parse_server_args(&strs(&["--reactors", "4"]))
            .unwrap()
            .config;
        assert_eq!(cfg.reactors, 4);
        let cfg = parse_server_args(&strs(&[])).unwrap().config;
        assert_eq!(cfg.reactors, 0, "one reactor per core by default");
        assert!(parse_server_args(&strs(&["--reactors", "many"])).is_err());
    }

    #[test]
    fn loadgen_ramp_flag_parses() {
        let args = parse_loadgen_args(&strs(&[
            "--addr",
            "h:1",
            "--snapshot",
            "x",
            "--ramp",
            "1,8,64,256,1024",
        ]))
        .unwrap();
        assert_eq!(args.ramp, vec![1, 8, 64, 256, 1024]);
        let args = parse_loadgen_args(&strs(&["--addr", "h:1", "--snapshot", "x"])).unwrap();
        assert!(args.ramp.is_empty(), "single-run mode by default");
        assert!(
            parse_loadgen_args(&strs(&["--addr", "h:1", "--snapshot", "x", "--ramp", ""])).is_err()
        );
        assert!(parse_loadgen_args(&strs(&[
            "--addr",
            "h:1",
            "--snapshot",
            "x",
            "--ramp",
            "1,0,4"
        ]))
        .is_err());
        assert!(parse_loadgen_args(&strs(&[
            "--addr",
            "h:1",
            "--snapshot",
            "x",
            "--ramp",
            "1,two"
        ]))
        .is_err());
    }

    #[test]
    fn loadgen_batch_size_aliases_batch() {
        let args = parse_loadgen_args(&strs(&[
            "--addr",
            "h:1",
            "--snapshot",
            "x",
            "--batch-size",
            "32",
        ]))
        .unwrap();
        assert_eq!(args.config.batch, 32);
        assert!(parse_loadgen_args(&strs(&[
            "--addr",
            "h:1",
            "--snapshot",
            "x",
            "--batch-size",
            "0"
        ]))
        .is_err());
    }

    #[test]
    fn loadgen_trace_flag_parses() {
        let args =
            parse_loadgen_args(&strs(&["--addr", "h:1", "--snapshot", "x", "--trace"])).unwrap();
        assert!(args.config.trace);
        let args = parse_loadgen_args(&strs(&["--addr", "h:1", "--snapshot", "x"])).unwrap();
        assert!(!args.config.trace);
    }

    #[test]
    fn server_obs_flags_parse() {
        let cfg = parse_server_args(&strs(&[
            "--recorder-capacity",
            "32",
            "--slow-threshold-ms",
            "5",
            "--tenant-cardinality",
            "8",
        ]))
        .unwrap()
        .config;
        assert_eq!(cfg.obs.recorder_capacity, 32);
        assert_eq!(cfg.obs.slow_threshold, Duration::from_millis(5));
        assert_eq!(cfg.obs.tenant_cardinality, 8);
        assert!(parse_server_args(&strs(&["--recorder-capacity", "0"])).is_err());
        assert!(parse_server_args(&strs(&["--no-obs"])).is_err());
    }

    #[test]
    fn query_args_parse_and_validate() {
        let q = parse_query_args(&strs(&[
            "--addr", "h:1", "--tenant", "t", "--trace", "E", "m",
        ]))
        .unwrap();
        assert_eq!((q.class.as_str(), q.member.as_str()), ("E", "m"));
        assert!(q.trace);
        assert!(parse_query_args(&strs(&["--addr", "h:1", "E", "m"])).is_err());
        assert!(parse_query_args(&strs(&["--addr", "h:1", "--tenant", "t", "E"])).is_err());
    }

    #[test]
    fn query_as_of_epoch_parses_and_excludes_trace() {
        let q = parse_query_args(&strs(&[
            "--addr",
            "h:1",
            "--tenant",
            "t",
            "--as-of-epoch",
            "3",
            "E",
            "m",
        ]))
        .unwrap();
        assert_eq!(q.as_of, Some(3));
        assert!(parse_query_args(&strs(&[
            "--addr",
            "h:1",
            "--tenant",
            "t",
            "--trace",
            "--as-of-epoch",
            "3",
            "E",
            "m",
        ]))
        .is_err());
    }

    #[test]
    fn loadgen_edit_every_parses() {
        let args = parse_loadgen_args(&strs(&[
            "--addr",
            "h:1",
            "--snapshot",
            "x",
            "--edit-every",
            "50",
        ]))
        .unwrap();
        assert_eq!(args.config.edit_every, 50);
        assert!(parse_loadgen_args(&strs(&[
            "--addr",
            "h:1",
            "--snapshot",
            "x",
            "--edit-every",
            "z"
        ]))
        .is_err());
    }

    #[test]
    fn render_spans_attributes_percentages() {
        let spans = vec![
            WireSpan {
                id: 0,
                parent: u64::MAX,
                label: "request".into(),
                start_ns: 0,
                duration_ns: 1000,
            },
            WireSpan {
                id: 1,
                parent: 0,
                label: "directory_probe".into(),
                start_ns: 0,
                duration_ns: 750,
            },
        ];
        let text = render_spans(&spans);
        assert!(text.contains("request"), "{text}");
        assert!(text.contains("75.0%"), "{text}");
    }
}
