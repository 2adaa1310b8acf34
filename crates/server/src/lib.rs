//! `cpplookup-server` — a multi-tenant member-lookup service over a
//! farm of snapshot-backed dispatch indexes.
//!
//! The workspace already has every piece of a serving stack except the
//! wire: [`SnapshotTable`](cpplookup_snapshot::SnapshotTable) gives a
//! compile-once/load-many artifact, `DispatchIndex` gives an
//! allocation-free read path, and `ServeHandle`/`IndexedEngine` give
//! epoch-published edits. This crate puts a socket in front of all of
//! it:
//!
//! * [`protocol`] — the length-prefixed, checksummed binary frame
//!   format and its request/response types. Dependency-free, strict,
//!   and fuzz-tested: malformed bytes produce structured errors, never
//!   panics or unbounded reads.
//! * [`farm`] — the tenant farm. A tenant has two stages: *loaded*,
//!   when LOAD publishes the
//!   [`DispatchIndex`](cpplookup_core::DispatchIndex) the file already
//!   holds as epoch 0, and *live* from its first edit, when that index
//!   becomes the write path's only table and each edit publishes the
//!   next epoch. Every read, QUERY or BATCH, goes through one core,
//!   [`Tenant::read_into`](farm::Tenant::read_into), which the server reaches via
//!   [`Farm::answer`].
//! * [`server`] — the TCP listener: bounded-accept admission control,
//!   request-scoped phase tracing (the protocol TRACE flag returns a
//!   span tree), per-instance metrics with per-tenant families (one
//!   registry per server, owned by its farm), plus an HTTP admin
//!   endpoint (`GET /metrics`, `/healthz`, `/tenants`,
//!   `/flightrecorder`) sharing the same port by first-bytes sniffing.
//!   Every connection runs one protocol state machine (the `conn`
//!   module: framing, admin sniffing, frame-damage policy, fairness
//!   cap) under one of two drivers, selected by `--io-model`: `threads`
//!   (a blocking driver on one thread per connection — the default and
//!   the portability fallback) or `epoll` (per-core reactor threads
//!   multiplexing nonblocking sockets; see the `reactor` module, Linux
//!   only).
//! * [`recorder`] — the flight recorder: a bounded ring of recent
//!   completed requests plus a slow-query log with full span trees.
//! * [`replication`] — follower mode: a background loop that tails a
//!   leader's durable edit log (over the wire via `SUBSCRIBE`, or by
//!   file) and replays it through the farm's replica path, acking its
//!   position back to the leader.
//! * [`client`] — a small blocking client used by the CLI, the load
//!   generator, and the tests.
//! * [`loadgen`] — open- and closed-loop load generation with zipfian
//!   tenant and probe skew, reporting QPS and latency quantiles from
//!   the obs histogram machinery.
//!
//! The server binary is `cpplookup-serverd`; the load generator is
//! `cpplookup-loadgen`. Both are also reachable through the main CLI
//! (`cpplookup-cli serve` / `cpplookup-cli loadgen`).

#![warn(missing_docs)]
#![deny(unsafe_code)] // only `sys` opts out, for the epoll/eventfd syscalls

mod conn;
mod metrics;
mod names;
#[cfg(target_os = "linux")]
mod reactor;
#[cfg(target_os = "linux")]
mod sys;

pub mod cli;
pub mod client;
pub mod farm;
pub mod loadgen;
pub mod protocol;
pub mod recorder;
pub mod replication;
pub mod server;

pub use client::Client;
pub use farm::{Farm, FarmOptions};
pub use loadgen::{LoadConfig, LoadReport, Pacing};
pub use protocol::{ErrorCode, Request, Response, WireLv, WireOutcome, WireSpan, PROTOCOL_VERSION};
pub use recorder::{FlightEntry, FlightRecorder, SlowEntry};
pub use replication::{FollowSource, Follower, FollowerConfig};
pub use server::{IoModel, ObsConfig, Server, ServerConfig};
