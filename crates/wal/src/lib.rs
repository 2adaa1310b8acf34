//! Durable write-ahead edit log for the member-lookup serving stack.
//!
//! The serving farm (`cpplookup-server`) applies tenant edits to an
//! in-memory [`Chg`](cpplookup_chg) behind a published index; without a
//! log, a restart forgets every edit since the tenant's snapshot was
//! compiled. This crate supplies the missing durability layer and the
//! shipping lane that replication rides on:
//!
//! * [`record`] — the record types ([`WalRecord`], [`Stamped`]) and the
//!   checksummed, length-prefixed frame codec. Framing mirrors the wire
//!   protocol so one set of corruption arguments covers both.
//! * [`log`] — the file format (header + frames), lenient crash
//!   [`recovery`](log::recover) vs strict [`read_all`],
//!   and the batch-fsync [`WalWriter`].
//! * [`store`] — [`WalStore`], the shared handle a server hangs onto:
//!   thread-safe append, in-process tailing with blocking
//!   [`wait`](WalStore::wait), and the atomic compaction
//!   [`rewrite`](WalStore::rewrite).
//! * [`tail`] — [`FileTailer`], the cross-process follower's view: poll
//!   a log file another process is appending to, tolerate its torn
//!   in-flight tail, and surface only never-seen records.
//!
//! Design rules the rest of the stack leans on:
//!
//! * **Append before apply.** The server appends the edit record and
//!   then applies the directive, so a record can describe an edit the
//!   engine rejects — but rejection is deterministic, so every
//!   replayer skips exactly the same records and converges.
//! * **Sequence numbers are identity.** They live in the record body,
//!   are strictly increasing for the log's lifetime, and survive
//!   compaction rewrites; a tailer dedupes by `seq` alone.
//! * **Damage is data.** A torn tail is the expected shape of a crash
//!   and is repaired by truncation; anything else (bad header, bit
//!   rot, non-monotonic sequence) is a structured [`WalError`] that
//!   localizes the damage and is never repaired silently.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod log;
pub mod record;
pub mod store;
pub mod tail;

pub use log::{read_all, recover, recover_bytes, Recovery, WalWriter};
pub use record::{Stamped, WalRecord, MAX_RECORD};
pub use store::{TailCursor, WalStore};
pub use tail::FileTailer;

/// Everything that can go wrong opening or reading a log.
#[derive(Debug)]
pub enum WalError {
    /// A real I/O failure (permissions, disk, …) — not a format issue.
    Io(std::io::Error),
    /// The 16-byte header is present but wrong: bad magic, unsupported
    /// version, foreign endianness, or a failed header checksum. Never
    /// repaired automatically.
    BadHeader {
        /// What exactly was wrong with the header.
        reason: String,
    },
    /// A record's bytes are all present but wrong — impossible length,
    /// checksum mismatch, undecodable body, or a sequence number that
    /// does not advance. Damage is localized to the record starting at
    /// `offset`; everything before it was recovered intact.
    Corrupt {
        /// Absolute file offset of the damaged record's frame.
        offset: u64,
        /// What exactly was wrong with it.
        reason: String,
    },
    /// The file ends partway through a frame — the signature of a
    /// crash mid-append. [`WalWriter::open`] repairs this by
    /// truncating to `offset`.
    TornTail {
        /// Absolute file offset of the incomplete trailing frame.
        offset: u64,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "edit log I/O error: {e}"),
            WalError::BadHeader { reason } => write!(f, "edit log header invalid: {reason}"),
            WalError::Corrupt { offset, reason } => {
                write!(f, "edit log corrupt at offset {offset}: {reason}")
            }
            WalError::TornTail { offset } => {
                write!(
                    f,
                    "edit log torn at offset {offset} (incomplete trailing record)"
                )
            }
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            _ => None,
        }
    }
}
