//! `cpplookup-serverd` — the standalone server daemon.
//!
//! ```text
//! cpplookup-serverd [--addr HOST:PORT] [--max-connections N]
//!                   [--read-timeout-secs N] [--tenant NAME=PATH]...
//!                   [--recorder-capacity N]
//!                   [--slow-threshold-ms N] [--tenant-cardinality N]
//!                   [--io-model threads|epoll] [--reactors N]
//!                   [--wal PATH] [--fsync-every N] [--retain-epochs N]
//!                   [--read-only] [--compact-every-secs N] [--compact-dir DIR]
//!                   [--follow ADDR | --follow-log PATH] [--follower-id NAME]
//! ```
//!
//! With `--wal` the server appends every accepted EDIT to a durable,
//! checksummed log before applying it, replays the log on restart, and
//! (with `--compact-every-secs`) periodically folds history into
//! per-tenant snapshot checkpoints. With `--follow` (wire SUBSCRIBE to
//! a leader) or `--follow-log` (tail a log file) the daemon becomes a
//! read-only replication follower. `--retain-epochs` keeps the last K
//! published epochs per tenant queryable via the protocol's AS_OF flag
//! (`cpplookup-cli query --as-of-epoch`).
//!
//! Prints `listening on ADDR` to stderr once the socket is bound (the
//! CLI's `serve` subcommand and the tests read the real port from that
//! line when port 0 was requested), then serves until killed.
//!
//! `--recorder-capacity`, `--slow-threshold-ms` and
//! `--tenant-cardinality` size the observability layer: the flight
//! recorder (dumped from `GET /flightrecorder` on the same port, beside
//! `GET /healthz`, `/tenants` and `/metrics`) and the per-tenant metric
//! families. Request tracing via the protocol TRACE flag costs nothing
//! when no client asks for it.
//!
//! Flag parsing and the serve loop live in [`cpplookup_server::cli`],
//! shared with the main CLI's `serve` subcommand.

use std::process::ExitCode;

use cpplookup_server::cli::{parse_server_args, serve_forever, SERVE_USAGE};

fn usage() -> ExitCode {
    eprintln!("usage: cpplookup-serverd {SERVE_USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return ExitCode::SUCCESS;
    }
    let config = match parse_server_args(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let e = serve_forever(config);
    eprintln!("error: {e}");
    ExitCode::from(2)
}
