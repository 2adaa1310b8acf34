//! [`WalStore`]: the shared, thread-safe handle a server keeps for the
//! lifetime of its log.
//!
//! The store wraps a [`WalWriter`] in a mutex and adds the two things
//! the single-threaded writer cannot give: in-process tailing (a
//! [`TailCursor`] plus a condvar so a replication fan-out thread can
//! block until there is something new to ship) and the compaction
//! [`rewrite`](WalStore::rewrite), which swaps the file atomically and
//! bumps a generation counter so every open cursor knows its byte
//! offsets went stale.

use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use cpplookup_obs::Snapshot;

use crate::log::WalWriter;
use crate::record::{parse_frames, Stamped, WalRecord};
use crate::WalError;

/// A tail position over a store. Byte offsets are only meaningful for
/// one generation of the file; after a compaction rewrite the cursor
/// re-reads from the top and the `last_seq` filter screens out records
/// it already delivered.
#[derive(Clone, Copy, Debug)]
pub struct TailCursor {
    offset: u64,
    last_seq: u64,
    generation: u64,
}

impl TailCursor {
    /// A cursor that starts at the beginning of the log and delivers
    /// only records with sequence numbers after `from_seq` (0 = all).
    pub fn from_seq(from_seq: u64) -> TailCursor {
        TailCursor {
            offset: 0,
            last_seq: from_seq,
            // Sentinel: no real generation matches, forcing the first
            // poll to reset against the store's current file.
            generation: u64::MAX,
        }
    }

    /// Sequence number of the last record this cursor delivered (or
    /// the `from_seq` it was created with).
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }
}

struct State {
    writer: WalWriter,
    generation: u64,
}

/// Shared handle over one log file: thread-safe append, blocking tail,
/// atomic compaction rewrite.
pub struct WalStore {
    state: Mutex<State>,
    cond: Condvar,
    path: PathBuf,
}

impl WalStore {
    /// Opens (creating if missing) the log at `path` — see
    /// [`WalWriter::open`] for the recovery rules — and returns the
    /// store plus the recovered records for the caller to replay.
    ///
    /// # Errors
    ///
    /// Exactly [`WalWriter::open`]'s: I/O failures, and refused
    /// non-crash damage ([`WalError::BadHeader`] /
    /// [`WalError::Corrupt`]).
    pub fn open(path: &Path, fsync_every: usize) -> Result<(WalStore, Vec<Stamped>), WalError> {
        let (writer, recovered) = WalWriter::open(path, fsync_every)?;
        Ok((
            WalStore {
                state: Mutex::new(State {
                    writer,
                    generation: 0,
                }),
                cond: Condvar::new(),
                path: path.to_owned(),
            },
            recovered,
        ))
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The log's append counters — see [`WalWriter::metrics`].
    pub fn metrics(&self) -> Snapshot {
        self.state.lock().unwrap().writer.metrics()
    }

    /// Appends one record (stamping it) and wakes tailers. Honors the
    /// writer's batch-fsync policy.
    ///
    /// # Errors
    ///
    /// Write/fsync failures.
    pub fn append(&self, record: WalRecord) -> std::io::Result<Stamped> {
        let mut st = self.state.lock().unwrap();
        let stamped = st.writer.append(record)?;
        drop(st);
        self.cond.notify_all();
        Ok(stamped)
    }

    /// Forces buffered appends to stable storage.
    ///
    /// # Errors
    ///
    /// fsync failures.
    pub fn sync(&self) -> std::io::Result<()> {
        self.state.lock().unwrap().writer.sync()
    }

    /// Sequence number of the last appended record (0 = none).
    pub fn last_seq(&self) -> u64 {
        self.state.lock().unwrap().writer.last_seq()
    }

    /// Bytes currently in the log file (header included).
    pub fn len(&self) -> u64 {
        self.state.lock().unwrap().writer.len()
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.state.lock().unwrap().writer.is_empty()
    }

    /// Burns and returns the next sequence number without writing —
    /// compaction stamps its captured checkpoints with this so they
    /// order before any append that races the capture.
    pub fn reserve_seq(&self) -> u64 {
        self.state.lock().unwrap().writer.reserve_seq()
    }

    /// The rewrite generation: bumped every [`rewrite`](Self::rewrite)
    /// so out-of-process observers can detect compactions.
    pub fn generation(&self) -> u64 {
        self.state.lock().unwrap().generation
    }

    /// Delivers records the cursor has not seen yet, without blocking.
    /// Advances the cursor past whatever is returned.
    ///
    /// # Errors
    ///
    /// I/O failures reading the file, or structured damage — possible
    /// only if the file rotted under us, since the writer validated it
    /// at open.
    pub fn poll(&self, cursor: &mut TailCursor) -> Result<Vec<Stamped>, WalError> {
        let st = self.state.lock().unwrap();
        self.poll_locked(&st, cursor)
    }

    fn poll_locked(&self, st: &State, cursor: &mut TailCursor) -> Result<Vec<Stamped>, WalError> {
        if cursor.generation != st.generation {
            // File was rewritten (or the cursor is fresh): byte offsets
            // are stale, restart from the top and dedupe by seq.
            cursor.offset = 0;
            cursor.generation = st.generation;
        }
        let end = st.writer.len();
        let start = cursor.offset.max(crate::log::HEADER_LEN as u64);
        if start >= end {
            cursor.offset = end.max(crate::log::HEADER_LEN as u64);
            return Ok(Vec::new());
        }
        let data = std::fs::read(st.writer.path()).map_err(WalError::Io)?;
        let upto = (end as usize).min(data.len());
        if (start as usize) >= upto {
            return Ok(Vec::new());
        }
        // prev_seq = 0: the slice may begin mid-history, so monotonicity
        // is anchored by the records themselves; the cursor's last_seq
        // filter handles delivery dedupe below.
        let (records, consumed, damage) = parse_frames(&data[start as usize..upto], start, 0);
        if let Some(damage) = damage {
            // The writer validated this file; mid-file damage now means
            // rot under a live process.
            return Err(damage);
        }
        cursor.offset = start + consumed;
        let fresh: Vec<Stamped> = records
            .into_iter()
            .filter(|r| r.seq > cursor.last_seq)
            .collect();
        if let Some(last) = fresh.last() {
            cursor.last_seq = last.seq;
        }
        Ok(fresh)
    }

    /// Like [`poll`](Self::poll), but blocks up to `timeout` for new
    /// records when the cursor is already caught up. Returns an empty
    /// vector on timeout.
    ///
    /// # Errors
    ///
    /// As [`poll`](Self::poll).
    pub fn wait(
        &self,
        cursor: &mut TailCursor,
        timeout: Duration,
    ) -> Result<Vec<Stamped>, WalError> {
        let mut st = self.state.lock().unwrap();
        loop {
            let fresh = self.poll_locked(&st, cursor)?;
            if !fresh.is_empty() {
                return Ok(fresh);
            }
            let (next, result) = self.cond.wait_timeout(st, timeout).unwrap();
            st = next;
            if result.timed_out() {
                return self.poll_locked(&st, cursor);
            }
        }
    }

    /// Compaction: reads the whole log strictly, hands the records to
    /// `f`, and atomically replaces the file with whatever `f` returns
    /// (which must stay in sequence order — stamps are preserved
    /// verbatim). Bumps the generation and wakes tailers so their
    /// cursors reset.
    ///
    /// # Errors
    ///
    /// Strict-read damage or I/O failures; on error the original log
    /// is untouched.
    pub fn rewrite(&self, f: impl FnOnce(Vec<Stamped>) -> Vec<Stamped>) -> Result<(), WalError> {
        let mut st = self.state.lock().unwrap();
        st.writer.sync().map_err(WalError::Io)?;
        let all = crate::log::read_all(st.writer.path())?;
        let kept = f(all);
        debug_assert!(kept.windows(2).all(|w| w[0].seq < w[1].seq));
        st.writer.rewrite(&kept).map_err(WalError::Io)?;
        st.generation += 1;
        drop(st);
        self.cond.notify_all();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cpplookup-walstore-test-{name}-{}-{:x}",
            std::process::id(),
            crate::log::unix_nanos_now()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    fn edit(d: &str) -> WalRecord {
        WalRecord::Edit {
            tenant: "t".into(),
            directive: d.into(),
        }
    }

    #[test]
    fn poll_delivers_each_record_once() {
        let path = tmp("poll");
        let (store, _) = WalStore::open(&path, 1).unwrap();
        store.append(edit("class A")).unwrap();
        store.append(edit("class B")).unwrap();
        let mut cur = TailCursor::from_seq(0);
        let first = store.poll(&mut cur).unwrap();
        assert_eq!(first.len(), 2);
        assert!(store.poll(&mut cur).unwrap().is_empty());
        store.append(edit("class C")).unwrap();
        let next = store.poll(&mut cur).unwrap();
        assert_eq!(next.len(), 1);
        assert_eq!(next[0].seq, 3);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn from_seq_skips_already_seen_records() {
        let path = tmp("fromseq");
        let (store, _) = WalStore::open(&path, 1).unwrap();
        for d in ["class A", "class B", "class C"] {
            store.append(edit(d)).unwrap();
        }
        let mut cur = TailCursor::from_seq(2);
        let fresh = store.poll(&mut cur).unwrap();
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].seq, 3);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn wait_times_out_empty_and_wakes_on_append() {
        let path = tmp("wait");
        let (store, _) = WalStore::open(&path, 1).unwrap();
        let mut cur = TailCursor::from_seq(0);
        assert!(store
            .wait(&mut cur, Duration::from_millis(10))
            .unwrap()
            .is_empty());
        let store = std::sync::Arc::new(store);
        let bg = {
            let store = std::sync::Arc::clone(&store);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                store.append(edit("class W")).unwrap();
            })
        };
        let got = store.wait(&mut cur, Duration::from_secs(5)).unwrap();
        assert_eq!(got.len(), 1);
        bg.join().unwrap();
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn rewrite_resets_cursors_without_redelivery() {
        let path = tmp("rewrite");
        let (store, _) = WalStore::open(&path, 1).unwrap();
        for d in ["class A", "class B", "class C", "class D"] {
            store.append(edit(d)).unwrap();
        }
        let mut cur = TailCursor::from_seq(0);
        assert_eq!(store.poll(&mut cur).unwrap().len(), 4);
        // Compact away the first two records.
        store
            .rewrite(|records| records.into_iter().filter(|r| r.seq > 2).collect())
            .unwrap();
        assert_eq!(store.generation(), 1);
        // Cursor saw everything already: rewrite must not re-deliver.
        assert!(store.poll(&mut cur).unwrap().is_empty());
        // New appends keep flowing, with seqs still increasing.
        let s = store.append(edit("class E")).unwrap();
        assert_eq!(s.seq, 5);
        let got = store.poll(&mut cur).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].seq, 5);
        // A fresh cursor sees the compacted history plus the new tail.
        let mut fresh = TailCursor::from_seq(0);
        let all = store.poll(&mut fresh).unwrap();
        assert_eq!(all.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![3, 4, 5]);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn reopen_after_rewrite_is_clean() {
        let path = tmp("reopen");
        {
            let (store, _) = WalStore::open(&path, 1).unwrap();
            for d in ["class A", "class B", "class C"] {
                store.append(edit(d)).unwrap();
            }
            store
                .rewrite(|records| records.into_iter().filter(|r| r.seq >= 3).collect())
                .unwrap();
        }
        let (store, recovered) = WalStore::open(&path, 1).unwrap();
        assert_eq!(recovered.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![3]);
        assert_eq!(store.append(edit("class Z")).unwrap().seq, 4);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
