//! Follower-side replication: tail a leader's edit log and apply it.
//!
//! A [`Follower`] is a background thread that keeps a read-only
//! [`Farm`] converged with a leader by replaying the leader's log in
//! sequence order through [`Farm::apply_replica_record`] — the same
//! replay path the leader itself uses for crash recovery, so "follower
//! state" and "restarted-leader state" are the same thing by
//! construction. Two transports ship the records:
//!
//! * **Wire** ([`FollowSource::Wire`]): a `SUBSCRIBE` connection to the
//!   leader streams records as they are appended; a second, plain
//!   connection reports progress back with `ACK` frames. Disconnects
//!   and leader restarts are survived by resubscribing from the last
//!   applied sequence number — records carry their identity, so replay
//!   is idempotent by construction.
//! * **File** ([`FollowSource::File`]): the leader's log file is tailed
//!   directly (same host or shared filesystem) with
//!   [`FileTailer`]; a torn tail — the
//!   leader mid-append — reads as "no new records yet".
//!
//! Replication lag is measured per record as apply-time minus the
//! leader's append timestamp and lands in the `replication_lag_ns`
//! histogram of the follower farm's own metrics;
//! `replication_applied_seq` gauges the follower's position for
//! dashboards and the E25 experiment.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use cpplookup_wal::{FileTailer, WalRecord};

use crate::client::Client;
use crate::farm::Farm;
use crate::protocol::WireRecord;

/// Converts a log record to its wire twin (the protocol stays free of
/// a `cpplookup-wal` dependency; the two enums mirror field for field).
pub fn wire_record(r: &WalRecord) -> WireRecord {
    match r {
        WalRecord::Open { tenant, path } => WireRecord::Open {
            tenant: tenant.clone(),
            path: path.clone(),
        },
        WalRecord::Edit { tenant, directive } => WireRecord::Edit {
            tenant: tenant.clone(),
            directive: directive.clone(),
        },
        WalRecord::Checkpoint {
            tenant,
            path,
            epoch,
        } => WireRecord::Checkpoint {
            tenant: tenant.clone(),
            path: path.clone(),
            epoch: *epoch,
        },
    }
}

/// Converts a wire record back to the log record it mirrors.
pub fn wal_record(r: &WireRecord) -> WalRecord {
    match r {
        WireRecord::Open { tenant, path } => WalRecord::Open {
            tenant: tenant.clone(),
            path: path.clone(),
        },
        WireRecord::Edit { tenant, directive } => WalRecord::Edit {
            tenant: tenant.clone(),
            directive: directive.clone(),
        },
        WireRecord::Checkpoint {
            tenant,
            path,
            epoch,
        } => WalRecord::Checkpoint {
            tenant: tenant.clone(),
            path: path.clone(),
            epoch: *epoch,
        },
    }
}

/// Where a follower's records come from.
#[derive(Clone, Debug)]
pub enum FollowSource {
    /// Subscribe to a leader over the wire protocol (`host:port`).
    Wire(String),
    /// Tail the leader's log file directly.
    File(PathBuf),
}

/// Follower configuration.
#[derive(Clone, Debug)]
pub struct FollowerConfig {
    /// The leader's log, by wire or by file.
    pub source: FollowSource,
    /// Name this follower reports in its ACKs (and metrics labels).
    pub follower_id: String,
    /// Resume point: apply only records after this sequence number
    /// (0 = from the beginning).
    pub from_seq: u64,
    /// Idle poll interval (file mode) / reconnect backoff (wire mode).
    pub poll_interval: Duration,
    /// Wire mode: report progress to the leader after this many applied
    /// records (0 disables ACKs).
    pub ack_every: u64,
}

impl Default for FollowerConfig {
    fn default() -> Self {
        FollowerConfig {
            source: FollowSource::File(PathBuf::from("edits.wal")),
            follower_id: "follower".to_owned(),
            from_seq: 0,
            poll_interval: Duration::from_millis(20),
            ack_every: 32,
        }
    }
}

/// Shared live state of a running follower.
struct Progress {
    /// Last sequence number applied to the farm. Every update is one
    /// store of a plain integer, so a poisoned lock still guards a
    /// valid value and is recovered rather than propagated.
    applied: Mutex<u64>,
    /// Signalled whenever `applied` advances.
    advanced: Condvar,
    /// Records applied since start.
    records: AtomicU64,
    stop: AtomicBool,
}

impl Progress {
    fn new(from_seq: u64) -> Progress {
        Progress {
            applied: Mutex::new(from_seq),
            advanced: Condvar::new(),
            records: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        }
    }

    fn applied(&self) -> u64 {
        *self.applied.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records `seq` as applied and wakes every waiter.
    fn advance(&self, seq: u64) {
        *self.applied.lock().unwrap_or_else(PoisonError::into_inner) = seq;
        self.advanced.notify_all();
    }
}

/// A background replication loop — see the module docs.
pub struct Follower {
    progress: Arc<Progress>,
    worker: Option<thread::JoinHandle<()>>,
}

impl Follower {
    /// Starts replicating `config.source` into `farm` on a background
    /// thread. The farm is typically read-only (client edits refused),
    /// but that is the caller's choice — replay bypasses the read-only
    /// gate by design.
    pub fn start(farm: Arc<Farm>, config: FollowerConfig) -> Follower {
        let progress = Arc::new(Progress::new(config.from_seq));
        let worker = {
            let progress = Arc::clone(&progress);
            thread::spawn(move || match &config.source {
                FollowSource::Wire(addr) => follow_wire(&farm, &config, addr, &progress),
                FollowSource::File(path) => follow_file(&farm, &config, path, &progress),
            })
        };
        Follower {
            progress,
            worker: Some(worker),
        }
    }

    /// Last log sequence number applied to the farm.
    pub fn applied_seq(&self) -> u64 {
        self.progress.applied()
    }

    /// Records applied since start.
    pub fn records_applied(&self) -> u64 {
        self.progress.records.load(Ordering::SeqCst)
    }

    /// Blocks until the follower has applied through `seq` (or the
    /// timeout passes); returns whether it got there. The apply loop
    /// wakes waiters as each record lands, so a wait returns as soon
    /// as the record is applied.
    pub fn wait_for_seq(&self, seq: u64, timeout: Duration) -> bool {
        let applied = self
            .progress
            .applied
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let (_applied, waited) = self
            .progress
            .advanced
            .wait_timeout_while(applied, timeout, |applied| *applied < seq)
            .unwrap_or_else(PoisonError::into_inner);
        !waited.timed_out()
    }

    /// Stops the loop and joins the thread.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.progress.stop.store(true, Ordering::SeqCst);
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl Drop for Follower {
    fn drop(&mut self) {
        self.halt();
    }
}

fn unix_nanos_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// Applies one record, advancing progress and the lag histogram.
fn apply_one(farm: &Farm, progress: &Progress, seq: u64, leader_nanos: u64, record: &WalRecord) {
    let metrics = farm.metrics();
    match farm.apply_replica_record(record) {
        Ok(crate::farm::ReplicaApply::EditSkipped(_)) => metrics.replication_skipped.inc(),
        Ok(_) => {}
        Err(_) => {
            // A missing snapshot artifact or an out-of-order stream:
            // count it and keep the position honest — retrying the same
            // record forever would wedge the stream.
            metrics.replication_errors.inc();
        }
    }
    progress.advance(seq);
    progress.records.fetch_add(1, Ordering::SeqCst);
    metrics.replication_applied.set(seq as i64);
    metrics
        .replication_lag
        .observe(unix_nanos_now().saturating_sub(leader_nanos));
}

/// The wire loop: subscribe, apply, ack; reconnect on any stream error.
fn follow_wire(farm: &Farm, config: &FollowerConfig, addr: &str, progress: &Progress) {
    // Short read timeouts keep the loop responsive to `stop` while the
    // leader is quiet: a timeout is an idle tick, not a failure.
    let timeout = Some(Duration::from_millis(250));
    while !progress.stop.load(Ordering::SeqCst) {
        let from = progress.applied();
        let Ok(client) = Client::connect(addr, timeout) else {
            thread::sleep(config.poll_interval);
            continue;
        };
        let Ok(mut sub) = client.subscribe(from) else {
            thread::sleep(config.poll_interval);
            continue;
        };
        let mut acker: Option<Client> = None;
        let mut unacked = 0u64;
        loop {
            if progress.stop.load(Ordering::SeqCst) {
                return;
            }
            match sub.next_record() {
                Ok((seq, leader_nanos, record)) => {
                    apply_one(farm, progress, seq, leader_nanos, &wal_record(&record));
                    unacked += 1;
                    if config.ack_every > 0 && unacked >= config.ack_every {
                        if acker.is_none() {
                            acker = Client::connect(addr, timeout).ok();
                        }
                        if let Some(c) = &mut acker {
                            if c.ack(&config.follower_id, seq).is_err() {
                                acker = None;
                            }
                        }
                        unacked = 0;
                    }
                }
                Err(crate::client::ClientError::Transport(e))
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    // Idle leader; take the chance to flush a final ack
                    // so the leader's view converges when writes stop.
                    if config.ack_every > 0 && unacked > 0 {
                        let seq = progress.applied();
                        if acker.is_none() {
                            acker = Client::connect(addr, timeout).ok();
                        }
                        if let Some(c) = &mut acker {
                            if c.ack(&config.follower_id, seq).is_ok() {
                                unacked = 0;
                            } else {
                                acker = None;
                            }
                        }
                    }
                }
                Err(_) => {
                    // Leader gone or stream damaged: resubscribe from
                    // the applied position after a breath.
                    farm.metrics().replication_errors.inc();
                    break;
                }
            }
        }
        thread::sleep(config.poll_interval);
    }
}

/// The file loop: poll the leader's log with a [`FileTailer`].
fn follow_file(farm: &Farm, config: &FollowerConfig, path: &std::path::Path, progress: &Progress) {
    let mut tailer = FileTailer::new(path, progress.applied());
    while !progress.stop.load(Ordering::SeqCst) {
        match tailer.poll() {
            Ok(batch) if batch.is_empty() => thread::sleep(config.poll_interval),
            Ok(batch) => {
                for stamped in batch {
                    apply_one(
                        farm,
                        progress,
                        stamped.seq,
                        stamped.unix_nanos,
                        &stamped.record,
                    );
                }
            }
            Err(_) => {
                // Mid-rewrite rename or real damage: the tailer dedupes
                // by seq, so retrying after a pause is always safe.
                farm.metrics().replication_errors.inc();
                thread::sleep(config.poll_interval);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_conversions_roundtrip() {
        let records = [
            WalRecord::Open {
                tenant: "t".into(),
                path: "/snap/t.snap".into(),
            },
            WalRecord::Edit {
                tenant: "t".into(),
                directive: "member E fresh".into(),
            },
            WalRecord::Checkpoint {
                tenant: "t".into(),
                path: "/ckpt/t-seq9.snap".into(),
                epoch: 4,
            },
        ];
        for r in &records {
            assert_eq!(&wal_record(&wire_record(r)), r);
        }
    }

    #[test]
    fn wait_for_seq_wakes_on_apply_and_times_out_short_of_it() {
        let progress = Arc::new(Progress::new(3));
        let follower = Follower {
            progress: Arc::clone(&progress),
            worker: None,
        };
        // Already applied: no wait at all.
        assert!(follower.wait_for_seq(3, Duration::ZERO));
        // The sleeps make "waiter blocked before the advance" the likely
        // order; the assertions hold in either order.
        let applier = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            progress.advance(4);
            thread::sleep(Duration::from_millis(20));
            progress.advance(5);
        });
        // Woken by the apply loop's signal, across an intermediate
        // advance that does not yet reach the target.
        assert!(follower.wait_for_seq(5, Duration::from_secs(30)));
        assert_eq!(follower.applied_seq(), 5);
        applier.join().unwrap();
        // Nothing will apply seq 6: the wait gives up at its timeout.
        let start = std::time::Instant::now();
        assert!(!follower.wait_for_seq(6, Duration::from_millis(50)));
        assert!(start.elapsed() >= Duration::from_millis(50));
    }
}
