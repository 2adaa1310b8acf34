//! The log file: header, crash recovery, and the appending writer.
//!
//! A log file is a 16-byte header followed by record frames:
//!
//! ```text
//! ┌──────────────────────────┐ 0
//! │ magic      "CPLKWAL1"    │
//! │ version    u16 LE        │
//! │ endian tag u16 LE 0x1F2E │
//! │ header crc u32 LE        │  low half of checksum64(bytes 0..12)
//! ├──────────────────────────┤ 16
//! │ record frames …          │  see [`crate::record`]
//! └──────────────────────────┘
//! ```
//!
//! Recovery is deliberately two-faced:
//!
//! * [`recover`] is *lenient*: it returns the longest valid record
//!   prefix plus a classification of whatever follows. A torn tail is
//!   the normal aftermath of a crash mid-append, so it is data to act
//!   on (truncate and continue), not an error.
//! * [`read_all`] is *strict*: any damage anywhere — torn tail
//!   included — is a structured [`WalError`] localizing the damage.
//!   Verification paths (compaction's read-back, the corruption
//!   proptests) use this face.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

use cpplookup_chg::checksum::checksum64;
use cpplookup_obs::{Counter, Registry, Snapshot};

use crate::record::{encode_frame, parse_frames, Stamped, WalRecord};
use crate::WalError;

/// The first eight bytes of every log file.
pub const MAGIC: [u8; 8] = *b"CPLKWAL1";

/// The log format version this build reads and writes.
pub const VERSION: u16 = 1;

/// Endianness canary (the snapshot container's value, for the same
/// reason: a byte-swapped reader must bail, not misread every field).
pub const ENDIAN_TAG: u16 = 0x1F2E;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 16;

/// Builds the 16-byte header.
fn header_bytes() -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..8].copy_from_slice(&MAGIC);
    h[8..10].copy_from_slice(&VERSION.to_le_bytes());
    h[10..12].copy_from_slice(&ENDIAN_TAG.to_le_bytes());
    let crc = checksum64(&h[0..12]) as u32;
    h[12..16].copy_from_slice(&crc.to_le_bytes());
    h
}

/// Checks a complete header, classifying every mismatch.
fn check_header(h: &[u8]) -> Result<(), WalError> {
    let bad = |reason: String| WalError::BadHeader { reason };
    if h[0..8] != MAGIC {
        return Err(bad(format!("bad magic {:02x?}", &h[0..8])));
    }
    let version = u16::from_le_bytes(h[8..10].try_into().unwrap());
    if version != VERSION {
        return Err(bad(format!(
            "log version {version}, this build reads {VERSION}"
        )));
    }
    let endian = u16::from_le_bytes(h[10..12].try_into().unwrap());
    if endian != ENDIAN_TAG {
        return Err(bad(format!(
            "endian tag 0x{endian:04x}, expected 0x{ENDIAN_TAG:04x}"
        )));
    }
    let crc = u32::from_le_bytes(h[12..16].try_into().unwrap());
    if crc != checksum64(&h[0..12]) as u32 {
        return Err(bad("header checksum mismatch".to_owned()));
    }
    Ok(())
}

/// What lenient recovery found in a log image.
#[derive(Debug)]
pub struct Recovery {
    /// The longest valid record prefix, in sequence order.
    pub records: Vec<Stamped>,
    /// Bytes of the file covered by the header plus that prefix; a
    /// repairing writer truncates the file here before appending.
    pub valid_len: u64,
    /// What stopped the walk: `None` for a clean end at a record
    /// boundary, [`WalError::TornTail`] for a crash-shaped incomplete
    /// trailing frame, [`WalError::Corrupt`] /
    /// [`WalError::BadHeader`] for damage that is *not* explainable by
    /// a crashed append and deserves an operator's attention.
    pub damage: Option<WalError>,
}

/// Lenient recovery over an in-memory log image.
pub fn recover_bytes(data: &[u8]) -> Recovery {
    if data.is_empty() {
        // A freshly created (or never created) log: clean and empty.
        return Recovery {
            records: Vec::new(),
            valid_len: 0,
            damage: None,
        };
    }
    if data.len() < HEADER_LEN {
        // Killed while writing the very header: nothing was logged.
        return Recovery {
            records: Vec::new(),
            valid_len: 0,
            damage: Some(WalError::TornTail { offset: 0 }),
        };
    }
    if let Err(e) = check_header(&data[..HEADER_LEN]) {
        return Recovery {
            records: Vec::new(),
            valid_len: 0,
            damage: Some(e),
        };
    }
    let (records, consumed, damage) = parse_frames(&data[HEADER_LEN..], HEADER_LEN as u64, 0);
    Recovery {
        records,
        valid_len: HEADER_LEN as u64 + consumed,
        damage,
    }
}

/// Lenient recovery of a log file; a missing file recovers as clean
/// and empty.
///
/// # Errors
///
/// Only real I/O failures (permissions, hardware); damage is reported
/// in [`Recovery::damage`], never as an `Err`.
pub fn recover(path: &Path) -> io::Result<Recovery> {
    match std::fs::read(path) {
        Ok(data) => Ok(recover_bytes(&data)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(recover_bytes(&[])),
        Err(e) => Err(e),
    }
}

/// Strict read of a log file: every record or a structured error.
///
/// # Errors
///
/// [`WalError::BadHeader`] / [`WalError::Corrupt`] /
/// [`WalError::TornTail`] exactly as recovery classifies them, plus
/// [`WalError::Io`] for real I/O failures. A missing file reads as
/// empty.
pub fn read_all(path: &Path) -> Result<Vec<Stamped>, WalError> {
    let recovery = recover(path).map_err(WalError::Io)?;
    match recovery.damage {
        None => Ok(recovery.records),
        Some(damage) => Err(damage),
    }
}

/// The writer's append counters, in a registry of their own: each log
/// reports only its own appends ([`WalStore::metrics`](crate::WalStore::metrics)).
struct WalCounters {
    registry: Registry,
    records: Arc<Counter>,
    bytes: Arc<Counter>,
    fsyncs: Arc<Counter>,
}

impl WalCounters {
    fn new() -> WalCounters {
        let registry = Registry::new();
        WalCounters {
            records: registry.counter("wal_records_total", "records appended to the edit log"),
            bytes: registry.counter("wal_bytes_written_total", "bytes appended to the edit log"),
            fsyncs: registry.counter("wal_fsyncs_total", "edit-log fsync calls"),
            registry,
        }
    }
}

/// The appending writer: assigns sequence numbers and timestamps,
/// writes whole frames, and fsyncs in batches.
///
/// Durability policy: with `fsync_every = n`, at most `n - 1` acked
/// appends can be lost to a power failure (a kill of the process alone
/// loses nothing — the page cache survives). `n = 1` fsyncs every
/// append; `n = 0` never fsyncs implicitly (callers use
/// [`sync`](WalWriter::sync)).
pub struct WalWriter {
    file: File,
    path: PathBuf,
    len: u64,
    next_seq: u64,
    fsync_every: usize,
    unsynced: usize,
    counters: WalCounters,
}

impl WalWriter {
    /// Opens (creating if missing) the log at `path`, recovering its
    /// contents: a torn tail left by a crash is truncated away and the
    /// writer positions itself after the last valid record. Returns
    /// the writer plus the recovered record prefix for the caller to
    /// replay.
    ///
    /// # Errors
    ///
    /// [`WalError::BadHeader`] / [`WalError::Corrupt`] are refused
    /// rather than repaired — unlike a torn tail they are not
    /// explainable by a crash, and silently truncating would destroy
    /// data an operator might recover. [`WalError::Io`] for I/O
    /// failures.
    pub fn open(path: &Path, fsync_every: usize) -> Result<(WalWriter, Vec<Stamped>), WalError> {
        let recovery = recover(path).map_err(WalError::Io)?;
        match recovery.damage {
            None | Some(WalError::TornTail { .. }) => {}
            Some(damage) => return Err(damage),
        }
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)
            .map_err(WalError::Io)?;
        // Repair: drop the torn tail (or the whole pre-header fragment)
        // and make sure the header exists.
        file.set_len(recovery.valid_len).map_err(WalError::Io)?;
        let mut len = recovery.valid_len;
        if len < HEADER_LEN as u64 {
            let mut f = &file;
            f.write_all(&header_bytes()).map_err(WalError::Io)?;
            f.sync_all().map_err(WalError::Io)?;
            len = HEADER_LEN as u64;
        }
        use std::io::Seek;
        let mut file = file;
        file.seek(io::SeekFrom::Start(len)).map_err(WalError::Io)?;
        let next_seq = recovery.records.last().map_or(0, |r| r.seq) + 1;
        Ok((
            WalWriter {
                file,
                path: path.to_owned(),
                len,
                next_seq,
                fsync_every,
                unsynced: 0,
                counters: WalCounters::new(),
            },
            recovery.records,
        ))
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// This writer's append counters: `wal_records_total`,
    /// `wal_bytes_written_total` and `wal_fsyncs_total`.
    pub fn metrics(&self) -> Snapshot {
        self.counters.registry.snapshot()
    }

    /// Bytes in the log (header included).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len <= HEADER_LEN as u64
    }

    /// The sequence number the last append used (0 = none yet).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Burns and returns the next sequence number without writing a
    /// record — compaction uses this to give a captured checkpoint an
    /// identity that orders *before* any append that races it.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Appends one record: stamps it, writes the frame, and fsyncs if
    /// the batch policy says so. Returns the stamped record.
    ///
    /// # Errors
    ///
    /// Write/fsync failures; on error the in-memory length is not
    /// advanced, and the next open's recovery discards any partially
    /// written frame.
    pub fn append(&mut self, record: WalRecord) -> io::Result<Stamped> {
        let stamped = Stamped {
            seq: self.reserve_seq(),
            unix_nanos: unix_nanos_now(),
            record,
        };
        let frame = encode_frame(&stamped);
        self.file.write_all(&frame)?;
        self.len += frame.len() as u64;
        self.counters.records.inc();
        self.counters.bytes.add(frame.len() as u64);
        self.unsynced += 1;
        if self.fsync_every > 0 && self.unsynced >= self.fsync_every {
            self.sync()?;
        }
        Ok(stamped)
    }

    /// Flushes appended records to stable storage.
    ///
    /// # Errors
    ///
    /// fsync failures.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.unsynced == 0 {
            return Ok(());
        }
        self.file.sync_data()?;
        self.counters.fsyncs.inc();
        self.unsynced = 0;
        Ok(())
    }

    /// Replaces the log's contents with `records` (already stamped, in
    /// sequence order), atomically: the new image is written beside the
    /// log, fsynced, and renamed over it. The writer continues at the
    /// end of the new image; sequence allocation never moves backwards.
    ///
    /// # Errors
    ///
    /// I/O failures; on error the original log is untouched.
    pub(crate) fn rewrite(&mut self, records: &[Stamped]) -> io::Result<()> {
        let tmp = self.path.with_extension("rewrite");
        let mut image = header_bytes().to_vec();
        for r in records {
            image.extend_from_slice(&encode_frame(r));
        }
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&image)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        let file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        use std::io::Seek;
        let mut file = file;
        file.seek(io::SeekFrom::Start(image.len() as u64))?;
        self.file = file;
        self.len = image.len() as u64;
        self.next_seq = self.next_seq.max(records.last().map_or(0, |r| r.seq) + 1);
        self.unsynced = 0;
        Ok(())
    }
}

/// Wall-clock nanoseconds since the Unix epoch.
pub(crate) fn unix_nanos_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cpplookup-wal-test-{name}-{}-{:x}",
            std::process::id(),
            unix_nanos_now()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    fn edit(t: &str, d: &str) -> WalRecord {
        WalRecord::Edit {
            tenant: t.into(),
            directive: d.into(),
        }
    }

    #[test]
    fn open_append_reopen_preserves_records() {
        let path = tmp("reopen");
        let (mut w, recovered) = WalWriter::open(&path, 1).unwrap();
        assert!(recovered.is_empty());
        let a = w.append(edit("t", "class A")).unwrap();
        let b = w.append(edit("t", "class B")).unwrap();
        assert_eq!((a.seq, b.seq), (1, 2));
        drop(w);
        let (w2, recovered) = WalWriter::open(&path, 1).unwrap();
        assert_eq!(recovered, vec![a, b]);
        assert_eq!(w2.last_seq(), 2);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let path = tmp("torn");
        let (mut w, _) = WalWriter::open(&path, 1).unwrap();
        let a = w.append(edit("t", "class A")).unwrap();
        w.append(edit("t", "class B")).unwrap();
        let full = std::fs::read(&path).unwrap();
        drop(w);
        // Chop mid-way through the second record.
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let (w2, recovered) = WalWriter::open(&path, 1).unwrap();
        assert_eq!(recovered, vec![a]);
        // The torn bytes are gone; appending continues cleanly.
        drop(w2);
        let strict = read_all(&path).unwrap();
        assert_eq!(strict.len(), 1);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn corrupt_body_is_refused_on_open_but_recovers_a_prefix() {
        let path = tmp("corrupt");
        let (mut w, _) = WalWriter::open(&path, 1).unwrap();
        w.append(edit("t", "class A")).unwrap();
        w.append(edit("t", "class B")).unwrap();
        drop(w);
        let mut data = std::fs::read(&path).unwrap();
        let mid = HEADER_LEN + 10;
        data[mid] ^= 0x40;
        std::fs::write(&path, &data).unwrap();
        assert!(matches!(
            WalWriter::open(&path, 1),
            Err(WalError::Corrupt { .. })
        ));
        let recovery = recover(&path).unwrap();
        assert!(recovery.records.len() <= 1);
        assert!(matches!(recovery.damage, Some(WalError::Corrupt { .. })));
        assert!(matches!(read_all(&path), Err(WalError::Corrupt { .. })));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn bad_header_is_structured() {
        let path = tmp("header");
        std::fs::write(&path, b"NOTAWAL!0123456789").unwrap();
        assert!(matches!(read_all(&path), Err(WalError::BadHeader { .. })));
        assert!(matches!(
            WalWriter::open(&path, 1),
            Err(WalError::BadHeader { .. })
        ));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn missing_file_reads_as_empty() {
        let path = tmp("missing");
        assert!(read_all(&path).unwrap().is_empty());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn batched_fsync_counts() {
        let path = tmp("fsync");
        let (mut w, _) = WalWriter::open(&path, 4).unwrap();
        for i in 0..10 {
            w.append(edit("t", &format!("class C{i}"))).unwrap();
        }
        w.sync().unwrap();
        assert_eq!(w.last_seq(), 10);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
