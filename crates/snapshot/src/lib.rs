//! Zero-copy snapshots of compiled member-lookup tables: compile once,
//! serve many.
//!
//! The Ramalingam–Srinivasan table construction (`LookupTable::build`)
//! is the expensive half of the pipeline: it walks the class-hierarchy
//! graph in topological order and propagates red/blue abstractions for
//! every inherited member. For a compile-server, IDE indexer, or any
//! "build once on the CI machine, query everywhere" deployment, paying
//! that cost on every process start is waste — the table is a pure
//! function of the hierarchy and the lookup options.
//!
//! This crate serializes the compiled artifact into a versioned,
//! checksummed, alignment-disciplined binary format:
//!
//! * [`Snapshot`] — the writer. [`Snapshot::compile`] builds the table,
//!   packs it into a [`DispatchIndex`](cpplookup_core::DispatchIndex),
//!   and writes the name tables, the topo-ordered hierarchy, and the
//!   index's own byte columns into one deterministic byte buffer
//!   (identical input ⇒ identical bytes, suitable for golden tests and
//!   content-addressed caches).
//! * [`SnapshotTable`] — the loader. One validation pass checks magic,
//!   version, endianness, per-section and whole-file checksums, and
//!   every structural invariant; afterwards queries are answered by the
//!   index, which serves **directly from the loaded byte buffer** — no
//!   per-entry decode, no owned hash maps, no graph reconstruction. It
//!   implements [`MemberLookup`](cpplookup_core::MemberLookup) like
//!   every other backend.
//! * [`SnapshotError`] — the integrity contract. Truncated, corrupt, or
//!   version-skewed input always yields a structured error, never a
//!   panic and never a wrong answer.
//!
//! The file layout is documented in [`format`](mod@format).
//!
//! # Example
//!
//! ```
//! use cpplookup_chg::fixtures;
//! use cpplookup_snapshot::{Snapshot, SnapshotTable};
//!
//! // Compile once…
//! let snap = Snapshot::compile(&fixtures::fig9());
//!
//! // …serve many: loading validates integrity, then answers from bytes.
//! let table = SnapshotTable::from_bytes(snap.into_bytes())?;
//! let e = table.class_by_name("E").unwrap();
//! let m = table.member_by_name("m").unwrap();
//! assert_eq!(table.lookup(e, m).resolved_class(), table.class_by_name("C"));
//! # Ok::<(), cpplookup_snapshot::SnapshotError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod format;
mod legacy;
mod loader;
mod writer;

pub use error::SnapshotError;
pub use loader::SnapshotTable;
pub use writer::Snapshot;
