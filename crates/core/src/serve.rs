//! The flat dispatch index: a pre-decoded, cache-dense read path for
//! query serving.
//!
//! Every other backend pays per-query interpretation: the eager
//! [`LookupTable`] probes an `FxHashMap` per class and
//! [`LookupOutcome::from_entry`] clones the blue witness set on every
//! ambiguous hit. [`DispatchIndex`] is the serving half of the paper's
//! "constant time once the table is built" promise (Definition 9 /
//! Figure 8): the constant is a couple of cache lines and zero
//! allocation.
//!
//! # Layout
//!
//! The index is one run of little-endian byte columns behind a shared
//! buffer, read with `from_le_bytes` (the crate forbids `unsafe`, so
//! nothing is reinterpreted in place). The same bytes are the index
//! section of a version-4 snapshot: an index loaded from a file serves
//! from the file's buffer as it is, and an index built in memory writes
//! the same columns into a fresh buffer. A 32-byte header comes first,
//! then seven columns, each at a 16-byte-aligned offset. Each verdict
//! is stored once, in the columns keyed by minimal-perfect-hash slot:
//!
//! ```text
//! header      : class_count, member_count, entry_count, pool_len: u32,
//!               mph seed: u64, nbuckets: u32, shared_count: u32
//! row_starts  : class → first row member       (|N|+1 × u32)
//! members     : member: u32, one contiguous    rank iteration
//!               run per class, sorted by id
//! cells       : 16-byte directory cells        the global probe path,
//!               {key: u64, a: u32, b: u32}     verdict decoded inline,
//!               key = class | member << 32     one cell per entry at its
//!               red  → a = ldc, b = lv         minimal-perfect-hash slot
//!               blue → a = pool off,
//!                      b = len | BLUE_BIT
//! via         : u32 per slot                   0 = no via edge (blue, or
//!                                              a generated definition),
//!                                              else via class + 1
//! pool        : shared u32 leastVirtual sets   (0 = Ω, else class+1),
//!               interned — equal sets share one range
//! disp        : mph displacements              (nbuckets × u32)
//! shared      : {slot, pool off, len: u32}     the non-empty static
//!               sorted by slot                 shared sets of red
//!                                              entries (Definition 17)
//! ```
//!
//! The rank-sorted `members` rows serve ordered iteration
//! ([`members_of`](DispatchIndex::members_of)); the cell directory
//! answers a point probe with one hashed 16-byte load. The key set is
//! *static between epochs*, so the directory is a minimal perfect hash
//! ([`crate::mph`]): exactly `n` cells for `n` entries, every probe is
//! one displacement load plus one data-dependent cache line, with
//! **zero collision chains** — a miss is decided by the same single key
//! compare a hit needs. Cells sit at 16-byte-aligned offsets of a
//! buffer the allocator aligns to at least 16 bytes, so a cell never
//! straddles a cache line. Because a cell carries the decoded verdict
//! inline, a red hit costs exactly one data-dependent line; blue hits
//! add one pool read for the witnesses. The `via` and `shared` columns
//! are only touched by the cold reconstruction paths
//! ([`entry`](DispatchIndex::entry), [`entries`](DispatchIndex::entries),
//! path recovery), which find a pair's slot by hashing, as a probe does.
//!
//! [`lookup_batch_into`](DispatchIndex::lookup_batch_into) is the
//! SWAR-style batch probe: stripes of eight probes are packed and
//! hashed first (independent, register-only work), then all eight cells
//! are loaded back-to-back so the misses overlap, then decoded — and
//! the caller's output buffer is reused, so a server BATCH frame costs
//! zero allocation on resolved/not-found probes.
//!
//! Construction paths:
//!
//! * [`DispatchIndex::from_columns`] — borrows columns that already
//!   exist, such as a loaded snapshot's index section, after one O(n)
//!   structural validation; nothing is decoded or copied;
//! * [`DispatchIndex::compile`] — one pass from a hierarchy: the
//!   batched sweep writes each verdict straight into its row, with no
//!   table in between ([`compile_into`](DispatchIndex::compile_into)
//!   writes the columns at the end of a caller's buffer, such as a
//!   snapshot file's);
//! * [`DispatchIndex::from_table`] — one pass over a finished
//!   [`LookupTable`];
//! * [`DispatchIndex::from_entries`] — any `(class, member, entry)`
//!   stream, under a prebuilt hash or a fresh one (how a snapshot
//!   written before format version 4 loads);
//! * [`DispatchIndex::refreshed`] — the index after an edit. When the
//!   edit leaves the key set as it was, the columns are copied and the
//!   recomputed slots patched under the same hash; otherwise the rows
//!   take the added and dropped keys, the hash is rebuilt, and every
//!   old verdict moves to its new slot in one scan of the old cells.
//!
//! # Epoch publish
//!
//! [`ServeHandle`] is the `arc-swap`-style publication point: readers
//! [`load`](ServeHandle::load) an `Arc` of the current
//! [`PublishedIndex`] (the lock is held only to clone the pointer —
//! never while an index is built) and then serve from that `Arc`
//! without any synchronization at all. A publisher builds the
//! replacement off to the side and [`publish`](ServeHandle::publish)es
//! it as one pointer swap, so a reader observes either the old epoch or
//! the new one in full — never a torn index, never a state older than
//! the snapshot it loaded. [`IndexedEngine`] packages the protocol:
//! `apply` edits the hierarchy, recomputes the dirty pairs from the
//! published index, merges them into a refreshed index, and
//! republishes. The published index is the only table it keeps.

use std::borrow::Borrow;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Arc, RwLock};
use std::time::Instant;

use cpplookup_chg::fxmap::FxHashMap;
use cpplookup_chg::{apply_edits, Chg, ChgError, ClassId, Edit, MemberId};

use crate::abstraction::{LeastVirtual, RedAbs};
use crate::api::MemberLookup;
use crate::batched::{elapsed_ns, Sweep, Swept};
use crate::engine::{dirty_set, recompute_dirty, Recomputed};
use crate::mph::{self, MphFunction};
use crate::result::{Entry, LookupOutcome};
use crate::table::{LookupOptions, LookupTable};

pub use crate::dispatch::{
    build_dispatch_map, dynamic_target, DispatchEntry, DispatchMap, DispatchTarget,
};

/// A backend that can be packed into a [`DispatchIndex`] — the unified
/// construction surface behind [`DispatchIndex::from_backend`] and
/// [`ServeHandle::serving`]; the backend-specific constructors remain
/// as thin delegates.
///
/// Implementors in this workspace:
///
/// * [`LookupTable`], by value or by reference,
/// * [`DispatchIndex`] itself (identity — lets already-packed indexes
///   flow through backend-generic call sites),
/// * `&SnapshotTable` in `cpplookup-snapshot` (a clone of the index the
///   loaded file already holds: a reference-count bump).
pub trait IntoDispatchIndex {
    /// Packs this backend into a flat [`DispatchIndex`].
    fn into_dispatch_index(self) -> DispatchIndex;
}

impl IntoDispatchIndex for LookupTable {
    fn into_dispatch_index(self) -> DispatchIndex {
        DispatchIndex::from_table(self)
    }
}

impl IntoDispatchIndex for &LookupTable {
    fn into_dispatch_index(self) -> DispatchIndex {
        let start = Instant::now();
        DispatchIndex::pack_table(self).recorded("table", start)
    }
}

impl IntoDispatchIndex for DispatchIndex {
    fn into_dispatch_index(self) -> DispatchIndex {
        self
    }
}

/// Marks a blue cell in [`Cell::b`]'s top bit (encoded `leastVirtual`
/// values and witness counts both stay below 2³¹; validation checks).
const BLUE_BIT: u32 = 1 << 31;

/// Bytes of the column header.
const HEADER_LEN: usize = 32;
/// Alignment of every column start, relative to the buffer.
const COLUMN_ALIGN: usize = 16;
/// Bytes of one directory cell.
const CELL_LEN: usize = 16;
/// Bytes of one shared-set record: `(slot, pool offset, length)`.
const SHARED_LEN: usize = 12;

#[inline]
fn u32_at(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("4-byte slice"))
}

#[inline]
fn u64_at(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("8-byte slice"))
}

fn put_u32(b: &mut [u8], at: usize, v: u32) {
    b[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

fn put_u64(b: &mut [u8], at: usize, v: u64) {
    b[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// The probe key of `(c, m)`: `class | member << 32`.
#[inline]
fn pair_key(c: ClassId, m: MemberId) -> u64 {
    c.index() as u64 | (m.index() as u64) << 32
}

/// A 64-bit hash of a probe key; validation sums it over the rows and
/// over the cells.
#[inline]
fn key_fingerprint(key: u64) -> u64 {
    let z = key.rotate_left(17).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let z = (z ^ (z >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 29)
}

/// Where each column of an index lives in its buffer: the header's
/// counts plus the absolute byte offsets they imply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Layout {
    class_count: usize,
    member_count: usize,
    entry_count: usize,
    pool_len: usize,
    nbuckets: usize,
    shared_count: usize,
    seed: u64,
    rows: usize,
    members: usize,
    cells: usize,
    via: usize,
    pool: usize,
    disp: usize,
    shared: usize,
    /// The header's first byte.
    start: usize,
    /// One past the last column's padding.
    end: usize,
}

impl Layout {
    /// The layout of an index with these counts whose header starts at
    /// `start`; `None` if a count overflows its `u32` header field or an
    /// offset overflows `usize`. The shared-set column comes last, so
    /// no other column's offset depends on its length.
    fn new(
        start: usize,
        [class_count, member_count, entry_count, pool_len, nbuckets, shared_count]: [usize; 6],
        seed: u64,
    ) -> Option<Layout> {
        for count in [
            class_count,
            member_count,
            entry_count,
            pool_len,
            nbuckets,
            shared_count,
        ] {
            u32::try_from(count).ok()?;
        }
        let mut at = start.checked_add(HEADER_LEN)?;
        let mut column = |bytes: Option<usize>| -> Option<usize> {
            let begin = at;
            at = begin
                .checked_add(bytes?)?
                .checked_next_multiple_of(COLUMN_ALIGN)?;
            Some(begin)
        };
        let rows = column(class_count.checked_add(1)?.checked_mul(4))?;
        let members = column(entry_count.checked_mul(4))?;
        let cells = column(entry_count.checked_mul(CELL_LEN))?;
        let via = column(entry_count.checked_mul(4))?;
        let pool = column(pool_len.checked_mul(4))?;
        let disp = column(nbuckets.checked_mul(4))?;
        let shared = column(shared_count.checked_mul(SHARED_LEN))?;
        Some(Layout {
            class_count,
            member_count,
            entry_count,
            pool_len,
            nbuckets,
            shared_count,
            seed,
            rows,
            members,
            cells,
            via,
            pool,
            disp,
            shared,
            start,
            end: at,
        })
    }

    /// Reads the header at `start`, which the caller has checked lies
    /// inside `b`.
    fn read(b: &[u8], start: usize) -> Result<Layout, String> {
        let count = |i: usize| u32_at(b, start + 4 * i) as usize;
        let nbuckets = u32_at(b, start + 24) as usize;
        if !nbuckets.is_power_of_two() {
            return Err(format!(
                "mph bucket count {nbuckets} is not a nonzero power of two"
            ));
        }
        let shared_count = u32_at(b, start + 28) as usize;
        if shared_count > count(2) {
            return Err(format!(
                "{shared_count} shared-set records for {} entries",
                count(2)
            ));
        }
        Layout::new(
            start,
            [
                count(0),
                count(1),
                count(2),
                count(3),
                nbuckets,
                shared_count,
            ],
            u64_at(b, start + 16),
        )
        .ok_or_else(|| "index column offsets overflow".to_owned())
    }

    fn write_header(&self, b: &mut [u8]) {
        let counts = [
            self.class_count,
            self.member_count,
            self.entry_count,
            self.pool_len,
        ];
        for (i, count) in counts.into_iter().enumerate() {
            put_u32(b, self.start + 4 * i, count as u32);
        }
        put_u64(b, self.start + 16, self.seed);
        put_u32(b, self.start + 24, self.nbuckets as u32);
        put_u32(b, self.start + 28, self.shared_count as u32);
    }

    /// Each column's name, first byte, data bytes, and the start of
    /// whatever follows it: the padding between is zero.
    fn columns(&self) -> [(&'static str, usize, usize, usize); 7] {
        let ec = self.entry_count;
        [
            (
                "row_starts",
                self.rows,
                4 * (self.class_count + 1),
                self.members,
            ),
            ("members", self.members, 4 * ec, self.cells),
            ("cells", self.cells, CELL_LEN * ec, self.via),
            ("via", self.via, 4 * ec, self.pool),
            ("pool", self.pool, 4 * self.pool_len, self.disp),
            ("disp", self.disp, 4 * self.nbuckets, self.shared),
            (
                "shared",
                self.shared,
                SHARED_LEN * self.shared_count,
                self.end,
            ),
        ]
    }

    fn len(&self) -> usize {
        self.end - self.start
    }
}

/// One directory cell: the packed `(class, member)` probe key plus the
/// fully pre-decoded verdict, so `lookup_ref` resolves a red hit from
/// this single 16-byte load (a blue hit adds one pool read for the
/// witnesses).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Cell {
    /// `class | member << 32`.
    key: u64,
    /// Red: declaring class. Blue: pool offset.
    a: u32,
    /// Red: encoded `leastVirtual`. Blue: witness count | [`BLUE_BIT`].
    b: u32,
}

impl Cell {
    /// A key no in-range probe packs to (it would need both a class and
    /// a member id of `u32::MAX`): out-of-range batch probes use it.
    const VACANT: u64 = u64::MAX;

    #[inline]
    fn decode(c: &[u8; CELL_LEN]) -> Cell {
        let (key, verdict) = c.split_first_chunk::<8>().expect("16-byte cell");
        let (a, b) = verdict.split_first_chunk::<4>().expect("8-byte verdict");
        Cell {
            key: u64::from_le_bytes(*key),
            a: u32::from_le_bytes(*a),
            b: u32::from_le_bytes(b.try_into().expect("4-byte word")),
        }
    }

    #[inline]
    fn is_blue(&self) -> bool {
        self.b & BLUE_BIT != 0
    }

    /// A blue cell's witness range in the pool.
    #[inline]
    fn witnesses(&self) -> (u32, u32) {
        (self.a, self.b & !BLUE_BIT)
    }

    /// Whether the verdict is in range: a blue cell's witnesses inside
    /// the pool, a red cell's classes below `class_count`. Branch-free:
    /// cells of both colours interleave at random in slot order.
    #[inline]
    fn in_range(&self, class_count: u64, pool_len: u64) -> bool {
        let blue = self.is_blue();
        let blue_ok = u64::from(self.a) + u64::from(self.b & !BLUE_BIT) <= pool_len;
        let red_ok = (u64::from(self.a) < class_count) & (u64::from(self.b) <= class_count);
        (blue & blue_ok) | (!blue & red_ok)
    }

    fn write(&self, b: &mut [u8], at: usize) {
        put_u64(b, at, self.key);
        put_u32(b, at + 8, self.a);
        put_u32(b, at + 12, self.b);
    }
}

/// Encodes a `leastVirtual` into the pool's `u32` form (`0` = Ω,
/// otherwise class index + 1 — the snapshot format's encoding).
#[inline]
fn enc_lv(lv: LeastVirtual) -> u32 {
    match lv {
        LeastVirtual::Omega => 0,
        LeastVirtual::Class(c) => c.index() as u32 + 1,
    }
}

/// Decodes the pool's `u32` `leastVirtual` form.
#[inline]
fn dec_lv(raw: u32) -> LeastVirtual {
    match raw {
        0 => LeastVirtual::Omega,
        c => LeastVirtual::Class(ClassId::from_index(c as usize - 1)),
    }
}

/// Decodes a `via` word: `0` = no via edge, otherwise class index + 1.
#[inline]
fn dec_via(raw: u32) -> Option<ClassId> {
    raw.checked_sub(1).map(|c| ClassId::from_index(c as usize))
}

/// One verdict as construction carries it, before it is split between
/// its slot's cell, its `via` word and, for a red entry with a
/// non-empty shared set, a shared-set record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Verdict {
    /// The cell's `a` word: red declaring class, or blue pool offset.
    a: u32,
    /// The cell's `b` word: red encoded `leastVirtual`, or blue witness
    /// count | [`BLUE_BIT`].
    b: u32,
    /// The `via` word: 0, or the via-edge class + 1.
    via: u32,
    /// Pool range of a red entry's shared set; `(0, 0)` when it is
    /// empty, and for a blue entry.
    shared: (u32, u32),
}

impl Verdict {
    /// A red entry: the winner `abs`, its via edge (`None` for a
    /// generated definition), and the pool range of its shared set.
    fn red(abs: RedAbs, via: Option<ClassId>, shared: (u32, u32)) -> Verdict {
        Verdict {
            a: abs.ldc.index() as u32,
            b: enc_lv(abs.lv),
            via: via.map_or(0, |v| v.index() as u32 + 1),
            shared,
        }
    }

    /// A blue entry over the pool range of its witness set.
    fn blue((off, len): (u32, u32)) -> Verdict {
        Verdict {
            a: off,
            b: len | BLUE_BIT,
            via: 0,
            shared: (0, 0),
        }
    }

    fn is_blue(&self) -> bool {
        self.b & BLUE_BIT != 0
    }

    /// The verdict's one pool range: a blue entry's witnesses, or a red
    /// entry's shared set.
    fn set(&self) -> (u32, u32) {
        if self.is_blue() {
            (self.a, self.b & !BLUE_BIT)
        } else {
            self.shared
        }
    }

    /// This verdict over the pool range `range` in place of its own.
    fn with_set(self, range: (u32, u32)) -> Verdict {
        if self.is_blue() {
            Verdict::blue(range)
        } else {
            Verdict {
                shared: range,
                ..self
            }
        }
    }
}

/// A borrowed, pool-backed `leastVirtual` set — the allocation-free
/// form of a blue entry's witnesses or a red entry's shared set: the
/// set's little-endian `u32` words in the index's pool column.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct LvSlice<'a>(&'a [u8]);

impl<'a> LvSlice<'a> {
    /// Number of abstractions in the set.
    pub fn len(&self) -> usize {
        self.0.len() / 4
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The `i`-th abstraction (sets are sorted ascending).
    pub fn get(&self, i: usize) -> Option<LeastVirtual> {
        (i < self.len()).then(|| dec_lv(u32_at(self.0, 4 * i)))
    }

    /// Iterates the abstractions in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = LeastVirtual> + 'a {
        self.0
            .chunks_exact(4)
            .map(|w| dec_lv(u32::from_le_bytes(w.try_into().expect("4-byte word"))))
    }

    /// Materializes the set (one allocation — the thing the ref path
    /// avoids until the caller asks for it).
    pub fn to_vec(&self) -> Vec<LeastVirtual> {
        self.iter().collect()
    }
}

impl std::fmt::Debug for LvSlice<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// The outcome of `lookup(c, m)` as a borrow into the index — the
/// allocation-free twin of [`LookupOutcome`]. `Copy`: ambiguity
/// witnesses stay in the shared pool instead of being cloned per hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutcomeRef<'a> {
    /// `m ∉ Members[c]`.
    NotFound,
    /// The lookup resolved to the member declared in `class`.
    Resolved {
        /// The declaring class of the winning definition.
        class: ClassId,
        /// `leastVirtual` of the winning definition.
        least_virtual: LeastVirtual,
    },
    /// The lookup is ambiguous; the witnesses borrow the index's pool.
    Ambiguous {
        /// The `leastVirtual` witnesses, sorted ascending.
        witnesses: LvSlice<'a>,
    },
}

impl OutcomeRef<'_> {
    /// Whether the lookup resolved.
    pub fn is_resolved(&self) -> bool {
        matches!(self, OutcomeRef::Resolved { .. })
    }

    /// The resolved declaring class, if any.
    pub fn resolved_class(&self) -> Option<ClassId> {
        match self {
            OutcomeRef::Resolved { class, .. } => Some(*class),
            _ => None,
        }
    }

    /// Materializes the owned [`LookupOutcome`] (allocates only for
    /// ambiguous outcomes, like every owned path does).
    pub fn to_outcome(&self) -> LookupOutcome {
        match self {
            OutcomeRef::NotFound => LookupOutcome::NotFound,
            OutcomeRef::Resolved {
                class,
                least_virtual,
            } => LookupOutcome::Resolved {
                class: *class,
                least_virtual: *least_virtual,
            },
            OutcomeRef::Ambiguous { witnesses } => LookupOutcome::Ambiguous {
                witnesses: witnesses.to_vec(),
            },
        }
    }
}

/// Interns encoded `leastVirtual` sets into the shared pool during
/// construction, so equal sets (ambiguity witnesses repeat heavily
/// across sibling classes) share one range.
struct PoolBuilder {
    pool: Vec<u32>,
    interned: FxHashMap<Vec<u32>, (u32, u32)>,
}

impl PoolBuilder {
    fn new() -> Self {
        PoolBuilder {
            pool: Vec::new(),
            interned: FxHashMap::default(),
        }
    }

    /// Resumes interning on top of an existing pool (incremental
    /// refresh keeps old ranges valid by only appending). Previously
    /// interned sets are not re-deduplicated — refresh batches are
    /// small, so rebuilding the whole intern map would cost more than
    /// the duplicates it saves.
    fn resume(pool: Vec<u32>) -> Self {
        PoolBuilder {
            pool,
            interned: FxHashMap::default(),
        }
    }

    fn intern(&mut self, lvs: &[LeastVirtual]) -> (u32, u32) {
        self.intern_words(lvs.iter().map(|&lv| enc_lv(lv)).collect())
    }

    /// Interns a set already in the pool's encoded form.
    fn intern_words(&mut self, encoded: Vec<u32>) -> (u32, u32) {
        if encoded.is_empty() {
            return (0, 0);
        }
        if let Some(&range) = self.interned.get(&encoded) {
            return range;
        }
        let off = u32::try_from(self.pool.len()).expect("leastVirtual pool overflow");
        let len = encoded.len() as u32;
        self.pool.extend_from_slice(&encoded);
        self.interned.insert(encoded, (off, len));
        (off, len)
    }

    fn pack(&mut self, entry: &Entry) -> Verdict {
        match entry {
            Entry::Red { abs, via, shared } => Verdict::red(*abs, *via, self.intern(shared)),
            Entry::Blue(set) => Verdict::blue(self.intern(set)),
        }
    }
}

/// Writes an index's columns at the end of a buffer. The caller fills
/// the rows, members, pool and displacements and places every verdict
/// at its slot; [`finish`](ColumnWriter::finish) then writes the
/// slot-sorted shared-set column, the last one, whose length the
/// placed verdicts decide, and the header.
struct ColumnWriter<'b> {
    buf: &'b mut Vec<u8>,
    /// The layout without the shared-set column.
    l: Layout,
    /// `(slot, pool offset, length)` of every non-empty shared set.
    shared: Vec<[u32; 3]>,
}

impl<'b> ColumnWriter<'b> {
    /// Zeroed columns for `counts` (class, member, entry, pool word and
    /// bucket counts) at the end of `buf`, whose length must be a
    /// multiple of [`COLUMN_ALIGN`], leaving capacity for about
    /// `shared_hint` shared-set records and `tail` more bytes after the
    /// columns.
    fn new(
        buf: &'b mut Vec<u8>,
        tail: usize,
        [cc, mc, ec, pool_len, nbuckets]: [usize; 5],
        seed: u64,
        shared_hint: usize,
    ) -> Self {
        debug_assert!(buf.len().is_multiple_of(COLUMN_ALIGN), "misaligned columns");
        let l = Layout::new(buf.len(), [cc, mc, ec, pool_len, nbuckets, 0], seed)
            .expect("dispatch index overflows its columns");
        let room = l.end + (SHARED_LEN * shared_hint).next_multiple_of(COLUMN_ALIGN) + tail;
        if buf.is_empty() {
            // Zeroed by the allocator rather than written.
            *buf = vec![0u8; room];
            buf.truncate(l.end);
        } else {
            buf.reserve_exact(room - buf.len());
            buf.resize(l.end, 0);
        }
        ColumnWriter {
            buf,
            l,
            shared: Vec::with_capacity(shared_hint),
        }
    }

    /// Writes `words` from byte `at` on.
    fn put_words(&mut self, at: usize, words: impl IntoIterator<Item = u32>) {
        for (i, w) in words.into_iter().enumerate() {
            put_u32(self.buf, at + 4 * i, w);
        }
    }

    /// Copies `bytes` to byte `at`.
    fn copy(&mut self, at: usize, bytes: &[u8]) {
        self.buf[at..at + bytes.len()].copy_from_slice(bytes);
    }

    /// Places the verdict `v` of `key` at `slot`.
    fn put(&mut self, slot: usize, key: u64, v: Verdict) {
        Cell {
            key,
            a: v.a,
            b: v.b,
        }
        .write(self.buf, self.l.cells + CELL_LEN * slot);
        put_u32(self.buf, self.l.via + 4 * slot, v.via);
        if v.shared.1 != 0 {
            self.shared.push([slot as u32, v.shared.0, v.shared.1]);
        }
    }

    /// Writes the shared-set column and the header; returns the layout.
    fn finish(mut self) -> Layout {
        self.shared.sort_unstable_by_key(|r| r[0]);
        let l = &self.l;
        let counts = [
            l.class_count,
            l.member_count,
            l.entry_count,
            l.pool_len,
            l.nbuckets,
            self.shared.len(),
        ];
        let l = Layout::new(l.start, counts, l.seed).expect("dispatch index overflows its columns");
        self.buf.resize(l.end, 0);
        let words = self.shared.iter().flatten().copied();
        for (i, w) in words.enumerate() {
            put_u32(self.buf, l.shared + 4 * i, w);
        }
        l.write_header(self.buf);
        l
    }
}

/// The construction side of an index built row by row: rows, members,
/// verdicts and pool are collected typed, then
/// [`finish`](Packer::finish) places the directory and writes every
/// column at the end of a buffer. Row member `i` is `members[i]` with
/// verdict `verdicts[i]`.
struct Packer {
    row_starts: Vec<u32>,
    members: Vec<u32>,
    verdicts: Vec<Verdict>,
    pool: PoolBuilder,
}

impl Packer {
    fn new() -> Self {
        Packer {
            row_starts: vec![0],
            members: Vec::new(),
            verdicts: Vec::new(),
            pool: PoolBuilder::new(),
        }
    }

    /// Packs one class's row from its `(member, entry)` pairs, in any
    /// order, and closes it.
    fn push_row<E: Borrow<Entry>>(&mut self, row: &mut [(u32, E)]) {
        row.sort_unstable_by_key(|&(m, _)| m);
        for (m, e) in row.iter() {
            let v = self.pool.pack(e.borrow());
            self.members.push(*m);
            self.verdicts.push(v);
        }
        let end = u32::try_from(self.members.len()).expect("dispatch index overflow");
        self.row_starts.push(end);
    }

    /// The index of the packed rows, in a buffer of its own.
    fn into_index(self, member_count: usize, mph: Option<MphFunction>) -> DispatchIndex {
        let mut bytes = Vec::new();
        let layout = self.finish(member_count, mph, &mut bytes, 0);
        DispatchIndex {
            bytes: Arc::new(bytes),
            layout,
        }
    }

    /// Writes the columns at the end of `buf`, whose length must be a
    /// multiple of [`COLUMN_ALIGN`], leaving capacity for `tail` more
    /// bytes after them, and returns their layout. Every cell lands at
    /// its slot under `mph` when that hash covers the rows' keys and
    /// under a freshly built one otherwise (a prebuilt hash that maps
    /// two live keys to one slot would turn live probes into
    /// `NotFound`).
    fn finish(
        self,
        member_count: usize,
        mph: Option<MphFunction>,
        buf: &mut Vec<u8>,
        tail: usize,
    ) -> Layout {
        let Packer {
            row_starts,
            members,
            verdicts,
            pool,
        } = self;
        let keys = || row_keys(&row_starts, &members);
        let covers = |f: &MphFunction| {
            let mut seen = vec![false; members.len()];
            f.n() as usize == members.len()
                && keys().all(|k| !std::mem::replace(&mut seen[f.position(k)], true))
        };
        let mph = mph
            .filter(covers)
            .unwrap_or_else(|| build_directory(&keys().collect::<Vec<u64>>()));
        let counts = [
            row_starts.len() - 1,
            member_count,
            members.len(),
            pool.pool.len(),
            mph.disp().len(),
        ];
        let shared = verdicts.iter().filter(|v| v.shared.1 != 0).count();
        let mut w = ColumnWriter::new(buf, tail, counts, mph.seed(), shared);
        let l = w.l;
        w.put_words(l.rows, row_starts.iter().copied());
        w.put_words(l.members, members.iter().copied());
        w.put_words(l.pool, pool.pool.iter().copied());
        w.put_words(l.disp, mph.disp().iter().copied());
        for (key, &v) in keys().zip(&verdicts) {
            w.put(mph.position(key), key, v);
        }
        w.finish()
    }
}

/// The probe keys of rows `row_starts` over `members`, class-major and
/// ascending by member within a class.
fn row_keys<'a>(row_starts: &'a [u32], members: &'a [u32]) -> impl Iterator<Item = u64> + 'a {
    row_starts
        .windows(2)
        .enumerate()
        .flat_map(move |(ci, row)| {
            members[row[0] as usize..row[1] as usize]
                .iter()
                .map(move |&m| ci as u64 | u64::from(m) << 32)
        })
}

/// Builds the minimal perfect hash over `keys` and counts the build.
fn build_directory(keys: &[u64]) -> MphFunction {
    let start = Instant::now();
    let f = MphFunction::build(keys);
    crate::obs::directory_built(elapsed_ns(start));
    f
}

/// Compiles the index of `chg` under `options` at the end of `buf` in
/// one pass and returns its layout (see [`DispatchIndex::compile`]).
fn compile_columns(chg: &Chg, options: LookupOptions, buf: &mut Vec<u8>, tail: usize) -> Layout {
    let sweep = Sweep::new(chg, options);
    // The rows are laid out class-major before the sweep, so each
    // verdict goes straight to its slot; members are swept in ascending
    // id, so every row fills in sorted order.
    let mut packer = Packer::new();
    let mut next: Vec<usize> = Vec::with_capacity(chg.class_count());
    let mut live = 0usize;
    for len in sweep.row_lens() {
        next.push(live);
        live += len as usize;
        packer
            .row_starts
            .push(u32::try_from(live).expect("dispatch index overflow"));
    }
    packer.members = vec![0; live];
    // A verdict's set offset holds the sweep's set handle until the
    // pool is interned.
    packer.verdicts = vec![Verdict::blue((0, 0)); live];
    let mut member_count = 0;
    let sets = sweep.run(|_, c, m, swept| {
        let slot = &mut next[c.index()];
        packer.members[*slot] = m.index() as u32;
        packer.verdicts[*slot] = match swept {
            Swept::Red { abs, via, shared } => Verdict::red(abs, via, (shared, 0)),
            Swept::Blue { set } => Verdict::blue((set, 0)),
        };
        *slot += 1;
        member_count = m.index() + 1;
    });
    let start = Instant::now();
    // One intern per distinct handle, in class-major order: the order a
    // table's rows intern their sets in, and the sweep's handles are
    // content-unique, so the pool comes out word for word the same.
    let mut ranges: Vec<Option<(u32, u32)>> = vec![None; sets.set_count()];
    for v in &mut packer.verdicts {
        let handle = v.set().0;
        let range =
            *ranges[handle as usize].get_or_insert_with(|| packer.pool.intern(sets.set(handle)));
        *v = v.with_set(range);
    }
    drop((sets, ranges));
    let l = packer.finish(member_count, None, buf, tail);
    let (entries, bytes) = (l.entry_count as u64, l.len() as u64);
    crate::obs::index_built("table", entries, bytes, elapsed_ns(start));
    l
}

/// The flat serving structure. See the [module docs](self) for the
/// layout; construction is one pass from any entry source, a point
/// query is one hashed cell load.
///
/// Cloning shares the byte columns (a reference-count bump).
///
/// # Examples
///
/// ```
/// use cpplookup_chg::fixtures;
/// use cpplookup_core::serve::{DispatchIndex, OutcomeRef};
/// use cpplookup_core::LookupTable;
///
/// let g = fixtures::fig9();
/// let index = DispatchIndex::from_table(LookupTable::build(&g));
/// let e = g.class_by_name("E").unwrap();
/// let m = g.member_by_name("m").unwrap();
/// match index.lookup_ref(e, m) {
///     OutcomeRef::Resolved { class, .. } => assert_eq!(g.class_name(class), "C"),
///     other => panic!("expected C::m, got {other:?}"),
/// }
/// ```
#[derive(Clone)]
pub struct DispatchIndex {
    /// The buffer holding the columns: the index's own, or a loaded
    /// snapshot file's.
    bytes: Arc<Vec<u8>>,
    layout: Layout,
}

/// One recomputed pair of an edit, as [`DispatchIndex::refreshed`]
/// applies it: its key, its slot in the old index when that has the
/// key, and its new verdict (`None`: the pair left the table).
type Patch = (u64, Option<usize>, Option<Verdict>);

impl DispatchIndex {
    /// Builds the index from any backend — the canonical construction
    /// entry point. [`LookupTable`]s are packed (by value or through a
    /// shared reference), a loaded snapshot shares the index it holds;
    /// the backend itself decides via its
    /// [`IntoDispatchIndex`] impl.
    ///
    /// # Examples
    ///
    /// ```
    /// use cpplookup_chg::fixtures;
    /// use cpplookup_core::serve::DispatchIndex;
    /// use cpplookup_core::LookupTable;
    ///
    /// let g = fixtures::fig2();
    /// let table = LookupTable::build(&g);
    /// let from_ref = DispatchIndex::from_backend(&table);
    /// let from_table = DispatchIndex::from_backend(table);
    /// assert_eq!(from_table.entry_count(), from_ref.entry_count());
    /// ```
    pub fn from_backend(backend: impl IntoDispatchIndex) -> Self {
        backend.into_dispatch_index()
    }

    /// Serves the columns at `bytes[start..start + len]` in place — the
    /// load path of a version-4 snapshot, whose index section holds
    /// exactly the bytes [`columns`](Self::columns) returns. One O(n)
    /// pass checks every structural invariant the accessors rely on,
    /// so no accessor of the result can panic or read out of bounds.
    /// Nothing is decoded or copied: the index shares `bytes`.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant: a misaligned
    /// start, a header that does not describe `len` bytes, nonzero
    /// padding, non-monotone `row_starts`, an unsorted row, a member out
    /// of range, a `leastVirtual` encoding (in a cell or the pool) out
    /// of range, a witness or shared set past the pool's end, a
    /// directory cell away from its minimal-perfect-hash slot, rows and
    /// cells that hold different keys, a via edge out of range or on a
    /// blue cell, or a shared-set record out of slot order, empty, or
    /// on a blue cell. Pool words no cell or shared set references are
    /// allowed: a refreshed index only appends to its pool.
    pub fn from_columns(bytes: Arc<Vec<u8>>, start: usize, len: usize) -> Result<Self, String> {
        if !start.is_multiple_of(COLUMN_ALIGN) {
            return Err(format!(
                "index columns start at offset {start}, not {COLUMN_ALIGN}-byte aligned"
            ));
        }
        if start.checked_add(len).is_none_or(|end| end > bytes.len()) {
            return Err(format!(
                "index columns {start}+{len} run past the {}-byte buffer",
                bytes.len()
            ));
        }
        if len < HEADER_LEN {
            return Err(format!("index header truncated at {len} bytes"));
        }
        let layout = Layout::read(&bytes, start)?;
        if layout.len() != len {
            return Err(format!(
                "index columns are {len} bytes but their header describes {}",
                layout.len()
            ));
        }
        let index = DispatchIndex { bytes, layout };
        index.validate()?;
        Ok(index)
    }

    /// The structural checks behind [`from_columns`](Self::from_columns).
    /// Every pass is sequential: the rows in row order, then the cells,
    /// the via words and the shared-set records in slot order.
    fn validate(&self) -> Result<(), String> {
        let (b, l) = (self.buf(), &self.layout);
        let (cc, ec, pool_len) = (l.class_count, l.entry_count, l.pool_len as u64);
        for (name, at, data, next) in l.columns() {
            if b[at + data..next].iter().any(|&x| x != 0) {
                return Err(format!("nonzero padding after the {name} column"));
            }
        }
        let mut prev = 0;
        for (ci, start) in self.row_starts().iter().enumerate() {
            let start = u32::from_le_bytes(*start) as usize;
            if start < prev || start > ec || (ci == 0 && start != 0) {
                return Err(format!(
                    "row_starts are not monotone: class {ci} starts at {start} after {prev} \
                     ({ec} entries)"
                ));
            }
            prev = start;
        }
        if prev != ec {
            return Err(format!("row_starts end at {prev}, expected {ec}"));
        }
        let pool: &[[u8; 4]] = self.records(l.pool, l.pool_len);
        if let Some(i) = pool
            .iter()
            .position(|w| u32::from_le_bytes(*w) as usize > cc)
        {
            return Err(format!(
                "pool word {i} encodes leastVirtual {}, above the class count {cc}",
                u32::from_le_bytes(pool[i])
            ));
        }
        // Rows in row order: sorted and in range, so their `ec` keys
        // are distinct; their fingerprints sum into a multiset hash.
        let members = self.member_records();
        let mut from_rows = 0u64;
        for ci in 0..cc {
            let mut prev_member = None;
            for (i, m) in self.row(ci).map(|i| (i, u32::from_le_bytes(members[i]))) {
                if m as usize >= l.member_count {
                    return Err(format!(
                        "row member {i} of class {ci} is {m}, out of range ({} members)",
                        l.member_count
                    ));
                }
                if prev_member.is_some_and(|q| q >= m) {
                    return Err(format!("row of class {ci} is not sorted by member id"));
                }
                prev_member = Some(m);
                from_rows = from_rows.wrapping_add(key_fingerprint(ci as u64 | u64::from(m) << 32));
            }
        }
        // Cells in slot order, so the directory is read sequentially:
        // each sits at its own key's slot, which also makes the `ec`
        // cell keys distinct, and carries an in-range verdict, and its
        // via word is in range and absent on a blue cell. Distinct row
        // keys and distinct cell keys, equally many, with equal
        // multiset hashes: the cells hold exactly the rows' keys.
        let (disp, via) = (self.disp(), self.via_records());
        let mut from_cells = 0u64;
        for (at, (cell, via)) in self.cell_records().iter().zip(via).enumerate() {
            let cell = Cell::decode(cell);
            let (class, member) = (cell.key as u32 as usize, (cell.key >> 32) as usize);
            if class >= cc || member >= l.member_count {
                return Err(format!(
                    "the cell at slot {at} names (class {class}, member {member}), out of range"
                ));
            }
            let slot = self.slot_of(disp, cell.key);
            if slot != at {
                return Err(format!(
                    "the cell of (class {class}, member {member}) is at slot {at}, \
                     not at its mph slot {slot}"
                ));
            }
            if !cell.in_range(cc as u64, pool_len) {
                return Err(format!(
                    "the cell at slot {at} has a verdict out of range for {cc} classes and \
                     {pool_len} pool words: {cell:?}"
                ));
            }
            let via = u32::from_le_bytes(*via);
            if via as usize > cc || (via != 0 && cell.is_blue()) {
                return Err(format!(
                    "the via word {via} at slot {at} is out of range for {cc} classes \
                     or on a blue cell"
                ));
            }
            from_cells = from_cells.wrapping_add(key_fingerprint(cell.key));
        }
        if from_rows != from_cells {
            return Err("the directory cells disagree with the rows' keys".into());
        }
        // Shared-set records in slot order: strictly ascending, each on
        // a red cell, over a non-empty range inside the pool.
        let cells = self.cell_records();
        let mut next_slot = 0usize;
        for (i, rec) in self.shared_records().iter().enumerate() {
            let [slot, off, len] = shared_record(rec);
            let slot = slot as usize;
            if slot < next_slot || slot >= ec {
                return Err(format!(
                    "shared-set record {i} names slot {slot}, out of slot order ({ec} entries)"
                ));
            }
            next_slot = slot + 1;
            if Cell::decode(&cells[slot]).is_blue() {
                return Err(format!(
                    "shared-set record {i} names the blue cell at slot {slot}"
                ));
            }
            if len == 0 || u64::from(off) + u64::from(len) > pool_len {
                return Err(format!(
                    "shared-set record {i} spans pool words {off}+{len}, empty or past the \
                     {pool_len}-word pool"
                ));
            }
        }
        Ok(())
    }

    /// The index's columns, header first: the bytes a version-4
    /// snapshot stores as its index section, and what
    /// [`from_columns`](Self::from_columns) serves in place.
    pub fn columns(&self) -> &[u8] {
        &self.bytes[self.layout.start..self.layout.end]
    }

    /// Builds the index in one pass from any `(class, member, entry)`
    /// stream. `class_count` must cover every class id in the stream;
    /// the stream may arrive in any order.
    ///
    /// With `mph`, cells are placed under a minimal perfect hash that
    /// already exists — how a version-2 or -3 snapshot, which ships its
    /// hash, loads without the displacement search. A hash that does
    /// not cover the stream's packed keys is discarded and rebuilt.
    /// Without one (a fresh stream, or a version-1 snapshot) the hash
    /// is built here.
    pub fn from_entries(
        class_count: usize,
        entries: impl IntoIterator<Item = (ClassId, MemberId, Entry)>,
        mph: Option<MphFunction>,
    ) -> Self {
        let mut rows: Vec<Vec<(u32, Entry)>> = vec![Vec::new(); class_count];
        for (c, m, e) in entries {
            rows[c.index()].push((m.index() as u32, e));
        }
        Self::pack_rows(rows, mph)
    }

    /// The index of `chg` under `options`, compiled in one pass: the
    /// batched sweep writes each verdict straight into its row, each
    /// distinct set is interned once, and the columns are written once.
    /// Column for column the same as
    /// [`from_table`](Self::from_table)`(`[`LookupTable::build_with`]`(chg,
    /// options))`, without building the table. Records one `batched`
    /// table build and one `table` index build.
    pub fn compile(chg: &Chg, options: LookupOptions) -> Self {
        let mut bytes = Vec::new();
        let layout = compile_columns(chg, options, &mut bytes, 0);
        DispatchIndex {
            bytes: Arc::new(bytes),
            layout,
        }
    }

    /// [`compile`](Self::compile) onto the end of `buf`, whose length
    /// must be a multiple of 16, leaving capacity for `tail` more bytes
    /// after the columns; returns the columns' length. This is how a
    /// snapshot writer fills a file's index section in place:
    /// `buf[start..start + len]` is then what
    /// [`from_columns`](Self::from_columns) serves.
    ///
    /// # Panics
    ///
    /// If `buf.len()` is not a multiple of 16.
    pub fn compile_into(
        chg: &Chg,
        options: LookupOptions,
        buf: &mut Vec<u8>,
        tail: usize,
    ) -> usize {
        assert!(
            buf.len().is_multiple_of(COLUMN_ALIGN),
            "index columns must start {COLUMN_ALIGN}-byte aligned"
        );
        compile_columns(chg, options, buf, tail).len()
    }

    /// Builds the index from a finished [`LookupTable`], consuming it
    /// one class row at a time, so each row's entries are freed as soon
    /// as they are packed.
    ///
    /// Prefer the backend-generic [`DispatchIndex::from_backend`] in new
    /// code; this remains as the table-specific delegate behind
    /// `LookupTable`'s [`IntoDispatchIndex`] impl.
    pub fn from_table(table: LookupTable) -> Self {
        let start = Instant::now();
        let rows = table
            .into_entries()
            .into_iter()
            .map(|class_tbl| class_tbl.into_iter().map(|(m, e)| (m.index() as u32, e)));
        Self::pack_rows(rows, None).recorded("table", start)
    }

    fn pack_table(table: &LookupTable) -> Self {
        let rows = table
            .class_entries()
            .iter()
            .map(|class_tbl| class_tbl.iter().map(|(m, e)| (m.index() as u32, e)));
        Self::pack_rows(rows, None)
    }

    /// Packs one row of `(member, entry)` pairs per class, in class
    /// order and each row in any order, under `mph` (see
    /// [`Packer::finish`]); the member count is one past the largest
    /// member id seen.
    fn pack_rows<E: Borrow<Entry>>(
        rows: impl IntoIterator<Item = impl IntoIterator<Item = (u32, E)>>,
        mph: Option<MphFunction>,
    ) -> Self {
        let mut packer = Packer::new();
        let mut member_count = 0usize;
        for row in rows {
            let mut row: Vec<(u32, E)> = row.into_iter().collect();
            packer.push_row(&mut row);
            // `push_row` sorted the row by member id.
            if let Some(&(m, _)) = row.last() {
                member_count = member_count.max(m as usize + 1);
            }
        }
        packer.into_index(member_count, mph)
    }

    /// The index of `chg` after an edit, from this one and the edit's
    /// recomputed pairs `fresh`: each replaces or adds its entry (drops
    /// it when `None`), and every other verdict and its pool range is
    /// kept. The pool only grows, so kept ranges stay valid.
    ///
    /// When the edit leaves the key set as it was, the columns are
    /// copied under the same hash and the recomputed slots patched.
    /// Otherwise the rows take the added and dropped keys, the hash is
    /// rebuilt over them, and one scan of the old cells in slot order
    /// moves every kept verdict to its new slot: the cells carry their
    /// keys, so no old key is looked up.
    pub fn refreshed(&self, chg: &Chg, fresh: &[Recomputed]) -> Self {
        let start = Instant::now();
        let mut pool = PoolBuilder::resume(self.pool_words().collect());
        let patches: Vec<Patch> = fresh
            .iter()
            .map(|&((c, m), ref e)| {
                let key = pair_key(c, m);
                let v = e.as_ref().map(|e| pool.pack(e));
                (key, self.slot_of_key(key), v)
            })
            .collect();
        let same_keys = patches.iter().all(|(_, at, v)| at.is_some() == v.is_some());
        let counts = (chg.class_count(), chg.member_name_count());
        let mut bytes = Vec::new();
        let layout = if same_keys {
            self.patch_into(&mut bytes, counts, &pool.pool, &patches)
        } else {
            self.rebuild_into(&mut bytes, counts, &pool.pool, &patches)
        };
        DispatchIndex {
            bytes: Arc::new(bytes),
            layout,
        }
        .recorded("refresh", start)
    }

    /// [`refreshed`](Self::refreshed) when the key set is unchanged:
    /// every column is copied, new classes get empty rows, and each
    /// patch rewrites its slot's cell, via word and shared set.
    fn patch_into(
        &self,
        buf: &mut Vec<u8>,
        (class_count, member_count): (usize, usize),
        pool: &[u32],
        patches: &[Patch],
    ) -> Layout {
        let old = &self.layout;
        debug_assert!(class_count >= old.class_count, "edits only add classes");
        let counts = [
            class_count,
            member_count,
            old.entry_count,
            pool.len(),
            old.nbuckets,
        ];
        let hint = old.shared_count + patches.len();
        let mut w = ColumnWriter::new(buf, 0, counts, old.seed, hint);
        let l = w.l;
        let ec = old.entry_count as u32;
        w.copy(
            l.rows,
            self.column_bytes(old.rows, 4 * (old.class_count + 1)),
        );
        let new_rows = class_count - old.class_count;
        w.put_words(
            l.rows + 4 * (old.class_count + 1),
            (0..new_rows).map(|_| ec),
        );
        w.copy(
            l.members,
            self.column_bytes(old.members, 4 * old.entry_count),
        );
        w.copy(
            l.cells,
            self.column_bytes(old.cells, CELL_LEN * old.entry_count),
        );
        w.copy(l.via, self.column_bytes(old.via, 4 * old.entry_count));
        w.put_words(l.pool, pool.iter().copied());
        w.copy(l.disp, self.column_bytes(old.disp, 4 * old.nbuckets));
        let mut patched: Vec<usize> = patches.iter().filter_map(|p| p.1).collect();
        patched.sort_unstable();
        for rec in self.shared_records() {
            let rec = shared_record(rec);
            if patched.binary_search(&(rec[0] as usize)).is_err() {
                w.shared.push(rec);
            }
        }
        for &(key, at, v) in patches {
            if let (Some(at), Some(v)) = (at, v) {
                w.put(at, key, v);
            }
        }
        w.finish()
    }

    /// [`refreshed`](Self::refreshed) when keys were added or dropped:
    /// the rows are merged with the changes, the hash is rebuilt over
    /// the new rows, the old cells are scanned in slot order (their
    /// shared-set records walked alongside) and each kept verdict is
    /// placed under the new hash, then each patch's.
    fn rebuild_into(
        &self,
        buf: &mut Vec<u8>,
        (class_count, member_count): (usize, usize),
        pool: &[u32],
        patches: &[Patch],
    ) -> Layout {
        let old = &self.layout;
        // `(class, member, added)` for every key the edit adds or drops.
        let mut changes: Vec<(usize, u32, bool)> = patches
            .iter()
            .filter(|(_, at, v)| at.is_some() != v.is_some())
            .map(|&(key, _, v)| (key as u32 as usize, (key >> 32) as u32, v.is_some()))
            .collect();
        changes.sort_unstable();
        let mut changes = changes.as_slice();
        let mut row_starts = Vec::with_capacity(class_count + 1);
        row_starts.push(0u32);
        let mut members: Vec<u32> = Vec::with_capacity(old.entry_count + patches.len());
        let old_members = self.member_records();
        for ci in 0..class_count {
            let kept = if ci < old.class_count {
                &old_members[self.row(ci)]
            } else {
                &[]
            };
            let split = changes.iter().take_while(|u| u.0 == ci).count();
            let (row, rest) = changes.split_at(split);
            changes = rest;
            // Both runs are sorted by member: an added member goes in
            // its place, a dropped one is skipped.
            let mut row = row.iter().peekable();
            for m in kept.iter().map(|w| u32::from_le_bytes(*w)) {
                while let Some(&(_, added, _)) = row.next_if(|u| u.1 < m) {
                    members.push(added);
                }
                if row.next_if(|u| u.1 == m).is_none() {
                    members.push(m);
                }
            }
            members.extend(row.map(|u| u.1));
            row_starts.push(u32::try_from(members.len()).expect("dispatch index overflow"));
        }
        let mph = build_directory(&row_keys(&row_starts, &members).collect::<Vec<u64>>());
        let counts = [
            class_count,
            member_count,
            members.len(),
            pool.len(),
            mph.disp().len(),
        ];
        let hint = old.shared_count + patches.len();
        let mut w = ColumnWriter::new(buf, 0, counts, mph.seed(), hint);
        let l = w.l;
        w.put_words(l.rows, row_starts);
        w.put_words(l.members, members);
        w.put_words(l.pool, pool.iter().copied());
        w.put_words(l.disp, mph.disp().iter().copied());
        let mut dirty: Vec<usize> = patches.iter().filter_map(|p| p.1).collect();
        dirty.sort_unstable();
        let mut dirty = dirty.into_iter().peekable();
        for (at, key, v) in self.slot_verdicts() {
            if dirty.next_if_eq(&at).is_none() {
                w.put(mph.position(key), key, v);
            }
        }
        for &(key, _, v) in patches {
            if let Some(v) = v {
                w.put(mph.position(key), key, v);
            }
        }
        w.finish()
    }

    /// This index with no pool word that no cell or shared set
    /// references: a clone when there is none (every index built in
    /// one pass), otherwise the same rows, verdicts and directory under
    /// the same hash with the pool interned afresh, in slot order.
    /// [`refreshed`](Self::refreshed) only appends to the pool, so
    /// after edits it holds every superseded set; this is what a writer
    /// uses so that a file does not.
    pub fn compacted(&self) -> Self {
        let l = &self.layout;
        let mut referenced = vec![false; l.pool_len];
        for (_, _, v) in self.slot_verdicts() {
            let (off, len) = v.set();
            referenced[off as usize..(off + len) as usize].fill(true);
        }
        if !referenced.contains(&false) {
            return self.clone();
        }
        let mut pool = PoolBuilder::new();
        let mut moved: FxHashMap<(u32, u32), (u32, u32)> = FxHashMap::default();
        for (_, _, v) in self.slot_verdicts() {
            let (off, len) = v.set();
            moved.entry((off, len)).or_insert_with(|| {
                let words = self.pool_words().skip(off as usize).take(len as usize);
                pool.intern_words(words.collect())
            });
        }
        let mut bytes = Vec::new();
        let counts = [
            l.class_count,
            l.member_count,
            l.entry_count,
            pool.pool.len(),
            l.nbuckets,
        ];
        let mut w = ColumnWriter::new(&mut bytes, 0, counts, l.seed, l.shared_count);
        let nl = w.l;
        w.copy(nl.rows, self.column_bytes(l.rows, 4 * (l.class_count + 1)));
        w.copy(nl.members, self.column_bytes(l.members, 4 * l.entry_count));
        w.put_words(nl.pool, pool.pool.iter().copied());
        w.copy(nl.disp, self.column_bytes(l.disp, 4 * l.nbuckets));
        for (at, key, v) in self.slot_verdicts() {
            w.put(at, key, v.with_set(moved[&v.set()]));
        }
        let layout = w.finish();
        DispatchIndex {
            bytes: Arc::new(bytes),
            layout,
        }
    }

    /// Every `(slot, key, verdict)` in slot order: the cells with their
    /// `via` words, and the shared-set records walked alongside.
    fn slot_verdicts(&self) -> impl Iterator<Item = (usize, u64, Verdict)> + '_ {
        let mut shared = self.shared_records().iter().map(shared_record).peekable();
        let cells = self.cell_records().iter().zip(self.via_records());
        cells.enumerate().map(move |(at, (cell, via))| {
            let cell = Cell::decode(cell);
            let set = shared.next_if(|r| r[0] as usize == at);
            let v = Verdict {
                a: cell.a,
                b: cell.b,
                via: u32::from_le_bytes(*via),
                shared: set.map_or((0, 0), |[_, off, len]| (off, len)),
            };
            (at, cell.key, v)
        })
    }

    /// Counts this index in the build metrics, as built by `source`
    /// since `start`.
    fn recorded(self, source: &str, start: Instant) -> Self {
        let (entries, bytes) = (self.entry_count() as u64, self.size_bytes() as u64);
        crate::obs::index_built(source, entries, bytes, elapsed_ns(start));
        self
    }

    #[inline]
    fn buf(&self) -> &[u8] {
        &self.bytes
    }

    /// The `n` fixed-width records of `N` bytes starting at `at`.
    #[inline]
    fn records<const N: usize>(&self, at: usize, n: usize) -> &[[u8; N]] {
        self.buf()[at..at + N * n].as_chunks().0
    }

    /// The `len` bytes of a column starting at `at`.
    fn column_bytes(&self, at: usize, len: usize) -> &[u8] {
        &self.buf()[at..at + len]
    }

    #[inline]
    fn row_starts(&self) -> &[[u8; 4]] {
        self.records(self.layout.rows, self.layout.class_count + 1)
    }

    #[inline]
    fn member_records(&self) -> &[[u8; 4]] {
        self.records(self.layout.members, self.layout.entry_count)
    }

    #[inline]
    fn cell_records(&self) -> &[[u8; CELL_LEN]] {
        self.records(self.layout.cells, self.layout.entry_count)
    }

    #[inline]
    fn via_records(&self) -> &[[u8; 4]] {
        self.records(self.layout.via, self.layout.entry_count)
    }

    #[inline]
    fn shared_records(&self) -> &[[u8; SHARED_LEN]] {
        self.records(self.layout.shared, self.layout.shared_count)
    }

    #[inline]
    fn disp(&self) -> &[[u8; 4]] {
        self.records(self.layout.disp, self.layout.nbuckets)
    }

    /// The pool's words, decoded.
    fn pool_words(&self) -> impl Iterator<Item = u32> + '_ {
        let pool: &[[u8; 4]] = self.records(self.layout.pool, self.layout.pool_len);
        pool.iter().map(|w| u32::from_le_bytes(*w))
    }

    /// The row indexes of class `ci`'s members (`ci` in range).
    #[inline]
    fn row(&self, ci: usize) -> Range<usize> {
        let rows = self.row_starts();
        u32::from_le_bytes(rows[ci]) as usize..u32::from_le_bytes(rows[ci + 1]) as usize
    }

    /// The directory slot of `key` under displacements `disp`: one
    /// displacement load, then the register-only slot map (the index
    /// must have entries).
    #[inline]
    fn slot_of(&self, disp: &[[u8; 4]], key: u64) -> usize {
        let h = mph::mix(key, self.layout.seed);
        let d = u32::from_le_bytes(disp[h as usize & (disp.len() - 1)]);
        mph::slot(h, d, self.layout.entry_count as u32)
    }

    /// The slot whose cell holds `key`, if the index has it.
    fn slot_of_key(&self, key: u64) -> Option<usize> {
        if (key as u32 as usize) >= self.layout.class_count || self.layout.entry_count == 0 {
            return None;
        }
        let at = self.slot_of(self.disp(), key);
        (Cell::decode(&self.cell_records()[at]).key == key).then_some(at)
    }

    /// The pool words of the set at `off`, `len` words long.
    #[inline]
    fn pool_set(&self, off: u32, len: u32) -> LvSlice<'_> {
        let at = self.layout.pool + 4 * off as usize;
        LvSlice(&self.buf()[at..at + 4 * len as usize])
    }

    /// The probe key of `(c, m)`, or [`Cell::VACANT`] when an id is out
    /// of range.
    #[inline]
    fn key(&self, c: ClassId, m: MemberId) -> u64 {
        if c.index() < self.layout.class_count && m.index() <= u32::MAX as usize {
            pair_key(c, m)
        } else {
            Cell::VACANT
        }
    }

    /// Decodes an occupied cell's inline verdict — shared by the point
    /// and batch probe paths.
    #[inline]
    fn decode(&self, cell: &Cell) -> OutcomeRef<'_> {
        if cell.is_blue() {
            let (off, len) = cell.witnesses();
            OutcomeRef::Ambiguous {
                witnesses: self.pool_set(off, len),
            }
        } else {
            OutcomeRef::Resolved {
                class: ClassId::from_index(cell.a as usize),
                least_virtual: dec_lv(cell.b),
            }
        }
    }

    /// `lookup(c, m)` without a single allocation: ambiguity witnesses
    /// are returned as a borrow of the shared pool. This is the serving
    /// hot path; pair it with [`lookup`](Self::lookup) when an owned
    /// [`LookupOutcome`] is required.
    #[inline(always)]
    pub fn lookup_ref(&self, c: ClassId, m: MemberId) -> OutcomeRef<'_> {
        let key = self.key(c, m);
        if key == Cell::VACANT || self.layout.entry_count == 0 {
            return OutcomeRef::NotFound;
        }
        let cell = Cell::decode(&self.cell_records()[self.slot_of(self.disp(), key)]);
        if cell.key == key {
            self.decode(&cell)
        } else {
            OutcomeRef::NotFound
        }
    }

    /// `lookup(c, m)` as an owned outcome (counts one
    /// `serve_queries_total{backend="index"}` query; allocates only for
    /// ambiguous hits, when the witness set is materialized).
    pub fn lookup(&self, c: ClassId, m: MemberId) -> LookupOutcome {
        crate::obs::serve_query(1);
        self.lookup_ref(c, m).to_outcome()
    }

    /// Answers a batch of probes in input order into a caller-owned
    /// buffer — the allocation-free batch path the server's BATCH frame
    /// loop runs on. `out` is cleared and refilled; reusing one buffer
    /// across calls amortizes its capacity to zero allocations per
    /// frame (the outcomes themselves are [`Copy`] borrows).
    ///
    /// This is the SWAR-style striped probe: each stripe of eight
    /// probes is packed and hashed first — independent, register-only
    /// work after the displacement loads — then all eight cells are
    /// read back-to-back, so their (potentially missing) cache lines
    /// are requested together and the loads overlap instead of
    /// serializing, then decoded. A probe outside the class/member id
    /// range packs to the vacant key, which no cell carries, and falls
    /// out as `NotFound` through the same key compare as any dead key.
    pub fn lookup_batch_into<'a>(
        &'a self,
        probes: &[(ClassId, MemberId)],
        out: &mut Vec<OutcomeRef<'a>>,
    ) {
        crate::obs::serve_query(probes.len() as u64);
        out.clear();
        out.reserve(probes.len());
        if self.layout.entry_count == 0 {
            out.extend(probes.iter().map(|_| OutcomeRef::NotFound));
            return;
        }
        let (cells, disp) = (self.cell_records(), self.disp());
        let mut keys = [0u64; 8];
        let mut slots = [0usize; 8];
        let mut hit = [Cell {
            key: Cell::VACANT,
            a: 0,
            b: 0,
        }; 8];
        for stripe in probes.chunks(8) {
            for (i, &(c, m)) in stripe.iter().enumerate() {
                keys[i] = self.key(c, m);
                slots[i] = self.slot_of(disp, keys[i]);
            }
            for i in 0..stripe.len() {
                hit[i] = Cell::decode(&cells[slots[i]]);
            }
            for i in 0..stripe.len() {
                out.push(if hit[i].key == keys[i] {
                    self.decode(&hit[i])
                } else {
                    OutcomeRef::NotFound
                });
            }
        }
    }

    /// Answers a batch of probes in input order as owned outcomes —
    /// [`lookup_batch_into`](Self::lookup_batch_into) plus the
    /// materialization each owned outcome pays anyway. Callers on the
    /// hot serve loop should prefer the `_into` form with a reused
    /// buffer.
    pub fn lookup_batch(&self, probes: &[(ClassId, MemberId)]) -> Vec<LookupOutcome> {
        let mut refs = Vec::with_capacity(probes.len());
        self.lookup_batch_into(probes, &mut refs);
        refs.iter().map(|r| r.to_outcome()).collect()
    }

    /// The shared set of the red cell at `at`: its record, found by
    /// binary search of the slot-sorted shared column, or empty.
    fn shared_at(&self, at: usize) -> LvSlice<'_> {
        let records = self.shared_records();
        match records.binary_search_by_key(&(at as u32), |r| shared_record(r)[0]) {
            Ok(i) => {
                let [_, off, len] = shared_record(&records[i]);
                self.pool_set(off, len)
            }
            Err(_) => LvSlice(&[]),
        }
    }

    /// The full [`Entry`] whose verdict sits at slot `at`.
    fn entry_at(&self, at: usize) -> Entry {
        let cell = Cell::decode(&self.cell_records()[at]);
        if cell.is_blue() {
            let (off, len) = cell.witnesses();
            Entry::Blue(self.pool_set(off, len).to_vec())
        } else {
            Entry::Red {
                abs: RedAbs {
                    ldc: ClassId::from_index(cell.a as usize),
                    lv: dec_lv(cell.b),
                },
                via: dec_via(u32::from_le_bytes(self.via_records()[at])),
                shared: self.shared_at(at).to_vec(),
            }
        }
    }

    /// Reconstructs the full [`Entry`] for `(c, m)` — the slow,
    /// allocating form used by differential tests, path recovery and
    /// [`MemberLookup::entry`]. The pair's slot is found by hashing, as
    /// a probe finds it.
    pub fn entry(&self, c: ClassId, m: MemberId) -> Option<Entry> {
        let key = self.key(c, m);
        if key == Cell::VACANT {
            return None;
        }
        self.slot_of_key(key).map(|at| self.entry_at(at))
    }

    /// Every `(class, member, entry)` triple, class by class and by
    /// ascending member id within a class — the bulk export that seeds
    /// a [`LookupTable`]. Each row member's slot is found by hashing.
    pub fn entries(&self) -> impl Iterator<Item = (ClassId, MemberId, Entry)> + '_ {
        (0..self.layout.class_count).flat_map(move |ci| {
            let c = ClassId::from_index(ci);
            self.members_of(c)
                .filter_map(move |m| Some((c, m, self.entry_at(self.slot_of_key(pair_key(c, m))?))))
        })
    }

    /// The final binding of a virtual call when the receiver's dynamic
    /// type is `dynamic_type` — [`dynamic_target`] served from the
    /// index instead of the hash table, without touching the pool.
    pub fn dynamic_target(&self, dynamic_type: ClassId, m: MemberId) -> Option<ClassId> {
        self.lookup_ref(dynamic_type, m).resolved_class()
    }

    /// The member ids visible in `c`, ascending — `Members[c]` straight
    /// from the row, no hash map walk.
    pub fn members_of(&self, c: ClassId) -> impl Iterator<Item = MemberId> + '_ {
        let row = if c.index() < self.layout.class_count {
            self.row(c.index())
        } else {
            0..0
        };
        self.member_records()[row]
            .iter()
            .map(|m| MemberId::from_index(u32::from_le_bytes(*m) as usize))
    }

    /// Number of classes the index covers.
    pub fn class_count(&self) -> usize {
        self.layout.class_count
    }

    /// Number of member names the index covers.
    pub fn member_name_count(&self) -> usize {
        self.layout.member_count
    }

    /// Total `(class, member)` entries.
    pub fn entry_count(&self) -> usize {
        self.layout.entry_count
    }

    /// Bytes of the columns: header, row starts, members, directory
    /// cells, via words, pool, hash displacements and shared-set
    /// records, with the padding that aligns each column.
    pub fn size_bytes(&self) -> usize {
        self.layout.len()
    }

    /// Flat bytes per entry — the density figure `stats` reports.
    pub fn bytes_per_entry(&self) -> f64 {
        if self.layout.entry_count == 0 {
            0.0
        } else {
            self.size_bytes() as f64 / self.layout.entry_count as f64
        }
    }
}

/// Decodes one shared-set record: `[slot, pool offset, length]`.
#[inline]
fn shared_record(r: &[u8; SHARED_LEN]) -> [u32; 3] {
    let word = |i: usize| u32::from_le_bytes([r[4 * i], r[4 * i + 1], r[4 * i + 2], r[4 * i + 3]]);
    [word(0), word(1), word(2)]
}

impl std::fmt::Debug for DispatchIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DispatchIndex {{ classes: {}, members: {}, entries: {}, {} bytes }}",
            self.layout.class_count,
            self.layout.member_count,
            self.layout.entry_count,
            self.size_bytes()
        )
    }
}

impl MemberLookup for DispatchIndex {
    fn lookup(&mut self, c: ClassId, m: MemberId) -> LookupOutcome {
        DispatchIndex::lookup(self, c, m)
    }

    fn entry(&mut self, c: ClassId, m: MemberId) -> Option<Entry> {
        DispatchIndex::entry(self, c, m)
    }
}

/// One published index version: the epoch stamps which hierarchy
/// generation a reader is serving from.
#[derive(Debug)]
pub struct PublishedIndex {
    epoch: u64,
    /// Shared with the next epoch when a publish keeps the table (see
    /// [`ServeHandle::republish`]).
    index: Arc<DispatchIndex>,
}

impl PublishedIndex {
    /// The publish epoch: 0 for the initial index, +1 per
    /// [`ServeHandle::publish`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The index itself.
    pub fn index(&self) -> &DispatchIndex {
        &self.index
    }
}

/// The publication slot behind a [`ServeHandle`]: the live version
/// plus a bounded tail of superseded versions for time-travel reads.
#[derive(Debug)]
struct Publications {
    current: Arc<PublishedIndex>,
    /// Superseded versions, oldest at the front. Holds at most
    /// `retain - 1` entries (the current version is the rest of the
    /// retention budget).
    history: VecDeque<Arc<PublishedIndex>>,
    retain: usize,
}

/// The atomic publication point for index versions — the `arc-swap`
/// protocol built from safe primitives (this crate forbids `unsafe`):
/// the lock guards only the `Arc` pointer, held for a clone on the read
/// side and a swap on the write side, both O(1). Readers then serve
/// from their `Arc` with no synchronization; a republish can never tear
/// an index a reader holds, and a reader is at most "one epoch behind"
/// in the instant between its load and a concurrent publish.
///
/// A handle can also *retain* superseded versions: with
/// [`set_retention`](ServeHandle::set_retention)`(k)`, the `k` most
/// recent epochs stay loadable through
/// [`load_at`](ServeHandle::load_at), giving readers repeatable
/// point-in-time queries ("time travel") while the write side keeps
/// publishing. The default retention is 1 — current only, exactly the
/// pre-retention behavior and memory footprint.
///
/// Handles are cheap to clone and share one published state.
#[derive(Clone, Debug)]
pub struct ServeHandle {
    current: Arc<RwLock<Publications>>,
}

impl ServeHandle {
    /// Publishes `index` as epoch 0.
    pub fn new(index: DispatchIndex) -> Self {
        ServeHandle {
            current: Arc::new(RwLock::new(Publications {
                current: Arc::new(PublishedIndex {
                    epoch: 0,
                    index: Arc::new(index),
                }),
                history: VecDeque::new(),
                retain: 1,
            })),
        }
    }

    /// Packs any backend and publishes it as epoch 0 — the
    /// backend-generic twin of [`ServeHandle::new`].
    ///
    /// # Examples
    ///
    /// ```
    /// use cpplookup_chg::fixtures;
    /// use cpplookup_core::serve::ServeHandle;
    /// use cpplookup_core::LookupTable;
    ///
    /// let handle = ServeHandle::serving(LookupTable::build(&fixtures::fig2()));
    /// assert_eq!(handle.epoch(), 0);
    /// ```
    pub fn serving(backend: impl IntoDispatchIndex) -> Self {
        Self::new(backend.into_dispatch_index())
    }

    /// The current index version. The returned `Arc` stays valid (and
    /// unchanged) for as long as the reader holds it, across any number
    /// of republishes.
    pub fn load(&self) -> Arc<PublishedIndex> {
        self.current
            .read()
            .expect("serve handle lock poisoned")
            .current
            .clone()
    }

    /// The retained version published as `epoch`, if it is still
    /// within the retention window. The current epoch is always
    /// loadable this way.
    pub fn load_at(&self, epoch: u64) -> Option<Arc<PublishedIndex>> {
        let slot = self.current.read().expect("serve handle lock poisoned");
        if slot.current.epoch == epoch {
            return Some(slot.current.clone());
        }
        slot.history.iter().find(|p| p.epoch == epoch).cloned()
    }

    /// Sets how many recent epochs (current included) stay loadable
    /// through [`load_at`](Self::load_at); clamped to at least 1.
    /// Shrinking drops the oldest retained versions immediately.
    pub fn set_retention(&self, k: usize) {
        let mut slot = self.current.write().expect("serve handle lock poisoned");
        slot.retain = k.max(1);
        let keep = slot.retain - 1;
        while slot.history.len() > keep {
            slot.history.pop_front();
        }
    }

    /// How many recent epochs (current included) stay loadable through
    /// [`load_at`](Self::load_at): what [`set_retention`](Self::set_retention)
    /// last set, 1 by default.
    pub fn retention(&self) -> usize {
        self.current
            .read()
            .expect("serve handle lock poisoned")
            .retain
    }

    /// The epochs currently loadable through [`load_at`](Self::load_at),
    /// oldest first (the last entry is the current epoch).
    pub fn retained_epochs(&self) -> Vec<u64> {
        let slot = self.current.read().expect("serve handle lock poisoned");
        let mut epochs: Vec<u64> = slot.history.iter().map(|p| p.epoch).collect();
        epochs.push(slot.current.epoch);
        epochs
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.load().epoch
    }

    /// Atomically replaces the published index, returning the new
    /// epoch. Build the replacement *before* calling: the write lock is
    /// held only for the pointer swap (plus an O(1) push into the
    /// retention window when retention is above 1).
    pub fn publish(&self, index: DispatchIndex) -> u64 {
        self.publish_advancing(index, 1)
    }

    /// [`publish`](Self::publish) as the version `steps` epochs past
    /// the current one — where `steps` one-at-a-time publishes would
    /// have landed. The skipped epochs were never published, so
    /// [`load_at`](Self::load_at) reports them retired. `steps` is
    /// clamped to at least 1: epochs never repeat or go backwards.
    pub fn publish_advancing(&self, index: impl Into<Arc<DispatchIndex>>, steps: u64) -> u64 {
        let start = Instant::now();
        let index = index.into();
        let mut slot = self.current.write().expect("serve handle lock poisoned");
        let epoch = slot.current.epoch + steps.max(1);
        let superseded =
            std::mem::replace(&mut slot.current, Arc::new(PublishedIndex { epoch, index }));
        if slot.retain > 1 {
            slot.history.push_back(superseded);
            let keep = slot.retain - 1;
            while slot.history.len() > keep {
                slot.history.pop_front();
            }
        }
        drop(slot);
        crate::obs::index_published(epoch, elapsed_ns(start));
        epoch
    }

    /// Publishes the current index again as the next epoch, sharing it
    /// rather than copying or repacking it: readers see a new epoch over
    /// the same table. A write path that takes over a handle uses it to
    /// mark where its own epochs begin.
    pub fn republish(&self) -> u64 {
        self.publish_advancing(self.load().index.clone(), 1)
    }
}

/// A class hierarchy and its published [`DispatchIndex`], the one table
/// it keeps: [`apply`](IndexedEngine::apply) recomputes an edit's dirty
/// pairs from the published index, merges them into a refreshed one,
/// and republishes, while clones of [`handle`](IndexedEngine::handle)
/// keep serving wait-free from whatever epoch they loaded.
///
/// # Examples
///
/// ```
/// use cpplookup_chg::{fixtures, Edit};
/// use cpplookup_core::serve::IndexedEngine;
///
/// let mut serving = IndexedEngine::new(fixtures::fig2(), Default::default());
/// let handle = serving.handle();
/// let v0 = handle.load();
/// serving.apply(&[Edit::AddClass { name: "Z".into() }])?;
/// assert_eq!(handle.load().epoch(), v0.epoch() + 1);
/// # Ok::<(), cpplookup_chg::ChgError>(())
/// ```
pub struct IndexedEngine {
    chg: Chg,
    options: LookupOptions,
    handle: ServeHandle,
}

impl IndexedEngine {
    /// Compiles the index of `chg` under `options`
    /// ([`DispatchIndex::compile`]) and publishes it as epoch 0.
    pub fn new(chg: Chg, options: LookupOptions) -> Self {
        let handle = ServeHandle::new(DispatchIndex::compile(&chg, options));
        Self::with_handle(chg, options, handle)
    }

    /// The write path of `chg` over a handle whose current index is
    /// the table of `chg` under `options`, such as a snapshot's. Nothing
    /// is built or published.
    pub fn with_handle(chg: Chg, options: LookupOptions, handle: ServeHandle) -> Self {
        IndexedEngine {
            chg,
            options,
            handle,
        }
    }

    /// [`with_handle`](Self::with_handle) for the engine's hierarchy and
    /// options, after [republishing](ServeHandle::republish) the
    /// handle's index, which must be the engine's table, as a fresh
    /// epoch: readers of the handle see every later edit without
    /// re-resolving it. The engine's table is dropped. (The benchmark's
    /// edit ladder, which also edits a [`LookupEngine`](crate::LookupEngine)
    /// bare, needs this; serving paths start from [`new`](Self::new) or
    /// [`with_handle`](Self::with_handle).)
    pub fn attach(engine: crate::LookupEngine, handle: ServeHandle) -> Self {
        handle.republish();
        Self::with_handle(engine.chg().clone(), engine.options(), handle)
    }

    /// The lookup options the published index was built under.
    pub fn options(&self) -> LookupOptions {
        self.options
    }

    /// A serving handle; clone freely across reader threads.
    pub fn handle(&self) -> ServeHandle {
        self.handle.clone()
    }

    /// The hierarchy the published index is the table of.
    pub fn chg(&self) -> &Chg {
        &self.chg
    }

    /// Applies edits to the hierarchy, recomputes their dirty pairs,
    /// merges them into the index, and publishes the new version. On
    /// error the hierarchy, the published index, and the epoch are
    /// unchanged.
    ///
    /// # Errors
    ///
    /// Any [`ChgError`] of [`apply_edits`].
    pub fn apply(&mut self, edits: &[Edit]) -> Result<u64, ChgError> {
        self.apply_publishing(edits, 1)
    }

    /// Applies a run of edits as *one* hierarchy transaction and *one*
    /// index refresh, and publishes a single version numbered as if
    /// each edit had been applied and published on its own: the current
    /// epoch plus `edits.len()`. This is the recovery shape: a replayer
    /// that no reader watches pays one dirty-set sweep for the run
    /// instead of one per edit, and still lands on the writer's epoch
    /// numbering. The intermediate epochs are never published. An
    /// empty run changes nothing and returns the current epoch.
    ///
    /// The transaction accepts exactly the runs whose edits
    /// [`apply`](Self::apply) would accept one by one (edits only add,
    /// and every check either looks at one edit or, like cycle
    /// detection, at the final graph).
    ///
    /// # Errors
    ///
    /// Any [`ChgError`] of [`apply_edits`]; as there, nothing changes
    /// on error.
    ///
    /// # Examples
    ///
    /// ```
    /// use cpplookup_chg::{fixtures, Edit};
    /// use cpplookup_core::serve::IndexedEngine;
    ///
    /// let mut serving = IndexedEngine::new(fixtures::fig2(), Default::default());
    /// let run = [
    ///     Edit::AddClass { name: "Y".into() },
    ///     Edit::AddClass { name: "Z".into() },
    /// ];
    /// assert_eq!(serving.apply_run(&run)?, 2);
    /// assert_eq!(serving.handle().load_at(1).map(|p| p.epoch()), None);
    /// # Ok::<(), cpplookup_chg::ChgError>(())
    /// ```
    pub fn apply_run(&mut self, edits: &[Edit]) -> Result<u64, ChgError> {
        if edits.is_empty() {
            return Ok(self.handle.epoch());
        }
        self.apply_publishing(edits, edits.len() as u64)
    }

    fn apply_publishing(&mut self, edits: &[Edit], steps: u64) -> Result<u64, ChgError> {
        let chg = apply_edits(&self.chg, edits)?;
        let dirty = dirty_set(&chg, edits);
        let current = self.handle.load();
        let fresh = recompute_dirty(&chg, self.options, &dirty, |c, m| current.index.entry(c, m));
        crate::obs::index_refreshed(fresh.len() as u64);
        // An edit that recomputes nothing and names no new class or
        // member (a repeated `AddClass`, an edge whose base shows no
        // member) leaves the table as it was: publish it again.
        let unchanged = fresh.is_empty()
            && chg.class_count() == self.chg.class_count()
            && chg.member_name_count() == self.chg.member_name_count();
        let index = if unchanged {
            current.index.clone()
        } else {
            Arc::new(current.index.refreshed(&chg, &fresh))
        };
        self.chg = chg;
        Ok(self.handle.publish_advancing(index, steps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::LookupOptions;
    use crate::StaticRule;
    use cpplookup_chg::{fixtures, Access, Chg, Inheritance, MemberDecl, MemberKind};

    fn graphs() -> Vec<Chg> {
        vec![
            fixtures::fig1(),
            fixtures::fig2(),
            fixtures::fig3(),
            fixtures::fig9(),
            fixtures::static_diamond(),
            fixtures::static_override_mix(),
            fixtures::dominance_diamond(),
            cpplookup_chg::ChgBuilder::new().finish().unwrap(),
        ]
    }

    #[test]
    fn index_matches_table_on_fixtures_and_both_rules() {
        for g in graphs() {
            for statics in [StaticRule::Cpp, StaticRule::Ignore] {
                let options = LookupOptions { statics };
                let table = LookupTable::build_with(&g, options);
                let index = DispatchIndex::from_table(LookupTable::build_with(&g, options));
                for c in g.classes() {
                    for m in g.member_ids() {
                        assert_eq!(
                            index.entry(c, m),
                            table.entry(c, m).cloned(),
                            "entry ({}, {})",
                            g.class_name(c),
                            g.member_name(m)
                        );
                        assert_eq!(
                            index.lookup_ref(c, m).to_outcome(),
                            table.lookup(c, m),
                            "outcome ({}, {})",
                            g.class_name(c),
                            g.member_name(m)
                        );
                    }
                }
            }
        }
    }

    /// The index an edited engine publishes is the index packed from a
    /// rebuilt table of the edited hierarchy.
    #[test]
    fn from_engine_matches_from_table() {
        for g in graphs() {
            let mut engine = IndexedEngine::new(g.clone(), LookupOptions::default());
            let z = ClassId::from_index(g.class_count());
            let base = g.classes().next().unwrap_or(z);
            let mut edits = vec![Edit::AddClass { name: "Z".into() }];
            if base != z {
                edits.push(Edit::AddEdge {
                    derived: z,
                    base,
                    inheritance: Inheritance::NonVirtual,
                    access: Access::Public,
                });
            }
            edits.push(Edit::AddMember {
                class: base,
                name: "fresh".into(),
                decl: MemberDecl::public(MemberKind::Data),
            });
            for edit in &edits {
                engine.apply(std::slice::from_ref(edit)).unwrap();
            }
            let edited = engine.chg();
            let by_table = DispatchIndex::from_table(LookupTable::build(edited));
            let published = engine.handle().load();
            let by_engine = published.index();
            for c in edited.classes() {
                for m in edited.member_ids() {
                    assert_eq!(by_table.entry(c, m), by_engine.entry(c, m));
                }
            }
            assert_eq!(by_table.entry_count(), by_engine.entry_count());
            assert_eq!(by_table.class_count(), edited.class_count());
        }
    }

    #[test]
    fn members_of_is_sorted_and_complete() {
        let g = fixtures::fig3();
        let table = LookupTable::build(&g);
        let index = DispatchIndex::from_table(LookupTable::build(&g));
        for c in g.classes() {
            let ids: Vec<MemberId> = index.members_of(c).collect();
            let mut sorted = ids.clone();
            sorted.sort();
            assert_eq!(ids, sorted, "row of {} unsorted", g.class_name(c));
            let mut expected: Vec<MemberId> = table.members_of(c).collect();
            expected.sort();
            assert_eq!(ids, expected);
        }
    }

    #[test]
    fn batch_preserves_order_and_dedupes() {
        let g = fixtures::fig3();
        let index = DispatchIndex::from_table(LookupTable::build(&g));
        let h = g.class_by_name("H").unwrap();
        let d = g.class_by_name("D").unwrap();
        let foo = g.member_by_name("foo").unwrap();
        let bar = g.member_by_name("bar").unwrap();
        let probes = vec![(h, bar), (d, foo), (h, bar), (h, foo), (d, foo), (h, bar)];
        let batched = index.lookup_batch(&probes);
        let singles: Vec<LookupOutcome> = probes
            .iter()
            .map(|&(c, m)| index.lookup_ref(c, m).to_outcome())
            .collect();
        assert_eq!(batched, singles);
    }

    #[test]
    fn batch_into_matches_singles_and_reuses_the_buffer() {
        for g in graphs() {
            let index = DispatchIndex::from_table(LookupTable::build(&g));
            let mut probes: Vec<(ClassId, MemberId)> = Vec::new();
            for ci in 0..g.class_count() + 2 {
                for mi in 0..g.member_name_count() + 2 {
                    probes.push((ClassId::from_index(ci), MemberId::from_index(mi)));
                }
            }
            // Odd lengths exercise the partial tail stripe.
            let mut out = Vec::new();
            for take in [0, 1, 5, 8, 9, probes.len()] {
                let take = take.min(probes.len());
                index.lookup_batch_into(&probes[..take], &mut out);
                assert_eq!(out.len(), take);
                for (i, &(c, m)) in probes[..take].iter().enumerate() {
                    assert_eq!(out[i], index.lookup_ref(c, m), "probe {i}");
                }
            }
        }
    }

    #[test]
    fn pool_shares_equal_witness_sets() {
        // Sibling classes inherit the same ambiguity: their witness
        // sets must intern to one pool range.
        let g = fixtures::fig1();
        let index = DispatchIndex::from_table(LookupTable::build(&g));
        let blues = index
            .cell_records()
            .iter()
            .filter(|cell| Cell::decode(cell).is_blue())
            .count();
        assert!(blues > 0);
        assert!(
            index.layout.pool_len * 4 <= index.entry_count() * CELL_LEN,
            "pool should stay small relative to the arena"
        );
    }

    #[test]
    fn built_columns_validate_and_serve_in_place() {
        for g in graphs() {
            let built = DispatchIndex::from_table(LookupTable::build(&g));
            let shared =
                DispatchIndex::from_columns(built.bytes.clone(), 0, built.size_bytes()).unwrap();
            assert!(Arc::ptr_eq(&shared.bytes, &built.bytes));
            assert_eq!(shared.columns(), built.columns());
            for c in g.classes() {
                for m in g.member_ids() {
                    assert_eq!(shared.lookup_ref(c, m), built.lookup_ref(c, m));
                    assert_eq!(shared.entry(c, m), built.entry(c, m));
                }
            }
        }
    }

    #[test]
    fn refreshed_columns_with_unreferenced_pool_words_validate() {
        let mut serving = IndexedEngine::new(fixtures::fig1(), LookupOptions::default());
        let e = serving.chg().class_by_name("E").unwrap();
        serving
            .apply(&[Edit::AddMember {
                class: e,
                name: "m".into(),
                decl: MemberDecl::public(MemberKind::Function),
            }])
            .unwrap();
        let index = serving.handle().load().index().clone();
        let mut covered = vec![false; index.layout.pool_len];
        let cells = index.cell_records().iter().map(Cell::decode);
        let witnesses = cells.filter(Cell::is_blue).map(|cell| cell.witnesses());
        let shared = index.shared_records().iter().map(shared_record);
        for (off, len) in witnesses.chain(shared.map(|[_, off, len]| (off, len))) {
            covered[off as usize..(off + len) as usize].fill(true);
        }
        assert!(
            covered.contains(&false),
            "E's old witness set stays in the pool"
        );
        let reloaded =
            DispatchIndex::from_columns(index.bytes.clone(), 0, index.size_bytes()).unwrap();
        let table = LookupTable::build(serving.chg());
        for c in serving.chg().classes() {
            for m in serving.chg().member_ids() {
                assert_eq!(reloaded.lookup_ref(c, m).to_outcome(), table.lookup(c, m));
            }
        }
    }

    #[test]
    fn compaction_drops_unreferenced_pool_words_and_keeps_the_hash() {
        let g = fixtures::fig1();
        let fresh = DispatchIndex::from_table(LookupTable::build(&g));
        let same = fresh.compacted();
        assert_eq!(same.columns(), fresh.columns());
        assert!(
            Arc::ptr_eq(&same.bytes, &fresh.bytes),
            "a tight pool is shared"
        );

        // Each edit supersedes E's witness set; the pool keeps them all.
        let mut serving = IndexedEngine::new(g, LookupOptions::default());
        let e = serving.chg().class_by_name("E").unwrap();
        for (name, kind) in [("m", MemberKind::Function), ("x", MemberKind::Data)] {
            serving
                .apply(&[Edit::AddMember {
                    class: e,
                    name: name.into(),
                    decl: MemberDecl::public(kind),
                }])
                .unwrap();
        }
        let edited = serving.handle().load().index().clone();
        let compacted = edited.compacted();
        let rebuilt = DispatchIndex::from_table(LookupTable::build(serving.chg()));
        assert!(compacted.layout.pool_len < edited.layout.pool_len);
        assert_eq!(compacted.layout.pool_len, rebuilt.layout.pool_len);
        assert_eq!(compacted.layout.seed, edited.layout.seed);
        assert_eq!(compacted.disp(), edited.disp());
        let reloaded =
            DispatchIndex::from_columns(compacted.bytes.clone(), 0, compacted.size_bytes())
                .unwrap();
        let table = LookupTable::build(serving.chg());
        for c in serving.chg().classes() {
            for m in serving.chg().member_ids() {
                assert_eq!(reloaded.lookup_ref(c, m).to_outcome(), table.lookup(c, m));
                assert_eq!(reloaded.entry(c, m), table.entry(c, m).cloned());
            }
        }
    }

    #[test]
    fn from_columns_rejects_misplaced_or_short_ranges() {
        let built = DispatchIndex::from_table(LookupTable::build(&fixtures::fig3()));
        let len = built.size_bytes();
        let mut shifted = vec![0u8; 16];
        shifted.extend_from_slice(built.columns());
        let shifted = Arc::new(shifted);
        assert!(DispatchIndex::from_columns(shifted.clone(), 16, len).is_ok());
        assert!(DispatchIndex::from_columns(shifted.clone(), 8, len)
            .unwrap_err()
            .contains("aligned"));
        assert!(DispatchIndex::from_columns(shifted.clone(), 16, len + 1).is_err());
        assert!(DispatchIndex::from_columns(shifted.clone(), 16, len - 16).is_err());
        assert!(DispatchIndex::from_columns(shifted, 16, 8).is_err());
    }

    #[test]
    fn outcome_ref_conversions() {
        let g = fixtures::fig1();
        let index = DispatchIndex::from_table(LookupTable::build(&g));
        let e = g.class_by_name("E").unwrap();
        let d = g.class_by_name("D").unwrap();
        let m = g.member_by_name("m").unwrap();
        let amb = index.lookup_ref(e, m);
        assert!(!amb.is_resolved());
        assert_eq!(amb.resolved_class(), None);
        match amb {
            OutcomeRef::Ambiguous { witnesses } => {
                assert!(!witnesses.is_empty());
                assert_eq!(witnesses.get(0), Some(witnesses.iter().next().unwrap()));
                assert_eq!(witnesses.len(), witnesses.to_vec().len());
            }
            other => panic!("expected ambiguity, got {other:?}"),
        }
        let res = index.lookup_ref(d, m);
        assert_eq!(res.resolved_class(), Some(d));
        assert_eq!(res.to_outcome(), index.lookup(d, m));
        let missing = MemberId::from_index(index.member_name_count() + 7);
        assert_eq!(index.lookup_ref(d, missing), OutcomeRef::NotFound);
        assert_eq!(
            index.lookup_ref(ClassId::from_index(999), m),
            OutcomeRef::NotFound
        );
    }

    #[test]
    fn dynamic_target_served_from_index() {
        let g = fixtures::dominance_diamond();
        let table = LookupTable::build(&g);
        let index = DispatchIndex::from_table(LookupTable::build(&g));
        let f = g.member_by_name("f").unwrap();
        for c in g.classes() {
            assert_eq!(
                index.dynamic_target(c, f),
                dynamic_target(&table, c, f),
                "{}",
                g.class_name(c)
            );
        }
    }

    #[test]
    fn member_lookup_trait_resolves_paths() {
        let g = fixtures::fig3();
        let mut index = DispatchIndex::from_table(LookupTable::build(&g));
        let h = g.class_by_name("H").unwrap();
        let foo = g.member_by_name("foo").unwrap();
        assert_eq!(
            MemberLookup::resolve_path(&mut index, &g, h, foo)
                .unwrap()
                .display(&g)
                .to_string(),
            "GH"
        );
    }

    #[test]
    fn from_backend_matches_every_specific_constructor() {
        for g in graphs() {
            let by_table = DispatchIndex::from_table(LookupTable::build(&g));
            let via_table = DispatchIndex::from_backend(LookupTable::build(&g));
            let table = LookupTable::build(&g);
            let via_ref = DispatchIndex::from_backend(&table);
            let via_identity = DispatchIndex::from_backend(by_table.clone());
            for c in g.classes() {
                for m in g.member_ids() {
                    assert_eq!(by_table.entry(c, m), via_table.entry(c, m));
                    assert_eq!(by_table.entry(c, m), via_ref.entry(c, m));
                    assert_eq!(by_table.entry(c, m), via_identity.entry(c, m));
                }
            }
        }
    }

    #[test]
    fn publish_backend_and_serving_bump_and_seed_epochs() {
        let g = fixtures::fig2();
        let handle = ServeHandle::serving(LookupTable::build(&g));
        assert_eq!(handle.epoch(), 0);
        let table = LookupTable::build(&g);
        assert_eq!(handle.publish(DispatchIndex::from_backend(&table)), 1);
        assert_eq!(handle.epoch(), 1);
    }

    #[test]
    fn attach_publishes_engine_index_on_existing_handle() {
        let g = fixtures::fig2();
        // A tenant starts serving from a table-packed index…
        let handle = ServeHandle::serving(LookupTable::build(&g));
        let reader = handle.clone();
        // …then its first edit promotes it to an engine-backed writer
        // on the *same* handle.
        let engine = crate::LookupEngine::new(g.clone());
        let mut serving = IndexedEngine::attach(engine, handle);
        assert_eq!(reader.epoch(), 1, "attach republishes as a fresh epoch");
        let epoch = serving
            .apply(&[Edit::AddClass { name: "Z".into() }])
            .unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(reader.epoch(), 2, "readers of the old handle see edits");
    }

    #[test]
    fn publish_bumps_epochs_and_readers_keep_their_version() {
        let g = fixtures::fig2();
        let handle = ServeHandle::new(DispatchIndex::from_table(LookupTable::build(&g)));
        let v0 = handle.load();
        assert_eq!(v0.epoch(), 0);
        assert_eq!(
            handle.publish(DispatchIndex::from_table(LookupTable::build(&g))),
            1
        );
        assert_eq!(handle.epoch(), 1);
        // The reader's Arc still serves the old version, untorn.
        assert_eq!(v0.epoch(), 0);
        let e = g.class_by_name("E").unwrap();
        let m = g.member_by_name("m").unwrap();
        assert!(v0.index().lookup_ref(e, m).is_resolved());
    }

    #[test]
    fn default_retention_keeps_only_the_current_epoch() {
        let g = fixtures::fig2();
        let handle = ServeHandle::new(DispatchIndex::from_table(LookupTable::build(&g)));
        handle.publish(DispatchIndex::from_table(LookupTable::build(&g)));
        handle.publish(DispatchIndex::from_table(LookupTable::build(&g)));
        assert_eq!(handle.retained_epochs(), vec![2]);
        assert!(handle.load_at(2).is_some());
        assert!(handle.load_at(1).is_none());
        assert!(handle.load_at(0).is_none());
    }

    #[test]
    fn retention_window_serves_time_travel_reads() {
        let g = fixtures::fig2();
        let mut serving = IndexedEngine::new(g.clone(), LookupOptions::default());
        let handle = serving.handle();
        handle.set_retention(3);
        let e = serving.chg().class_by_name("E").unwrap();
        for i in 0..4 {
            serving
                .apply(&[Edit::AddMember {
                    class: e,
                    name: format!("m{i}"),
                    decl: MemberDecl::public(MemberKind::Function),
                }])
                .unwrap();
        }
        // Epochs 0 and 1 aged out of the 3-deep window; 2, 3, 4 remain.
        assert_eq!(handle.retained_epochs(), vec![2, 3, 4]);
        assert!(handle.load_at(1).is_none());
        // Old epochs answer from their frozen index: the member added
        // at epoch 3 is visible at 3 and 4, unknown at 2.
        let chg = serving.chg();
        let m2 = chg.member_by_name("m2").unwrap();
        let at = |epoch: u64| handle.load_at(epoch).unwrap();
        assert!(!at(2).index().lookup_ref(e, m2).is_resolved());
        assert!(at(3).index().lookup_ref(e, m2).is_resolved());
        assert!(at(4).index().lookup_ref(e, m2).is_resolved());
        // Shrinking retention drops the oldest retained epoch.
        handle.set_retention(1);
        assert_eq!(handle.retained_epochs(), vec![4]);
        assert!(handle.load_at(3).is_none());
    }

    #[test]
    fn indexed_engine_refresh_matches_rebuild() {
        let g = fixtures::fig2();
        let mut serving = IndexedEngine::new(g, LookupOptions::default());
        let handle = serving.handle();
        let edits = [
            Edit::AddClass { name: "Z".into() },
            Edit::AddMember {
                class: serving.chg().class_by_name("E").unwrap(),
                name: "fresh".into(),
                decl: MemberDecl::public(MemberKind::Function),
            },
        ];
        let epoch = serving.apply(&edits).unwrap();
        assert_eq!(epoch, 1);
        let refreshed = handle.load();
        let rebuilt = DispatchIndex::from_table(LookupTable::build(serving.chg()));
        let chg = serving.chg();
        for c in chg.classes() {
            for m in chg.member_ids() {
                assert_eq!(
                    refreshed.index().entry(c, m),
                    rebuilt.entry(c, m),
                    "({}, {})",
                    chg.class_name(c),
                    chg.member_name(m)
                );
            }
        }
        assert_eq!(refreshed.index().entry_count(), rebuilt.entry_count());
        // A rejected edit changes nothing, including the epoch.
        let bad = serving.apply(&[Edit::AddEdge {
            derived: ClassId::from_index(0),
            base: ClassId::from_index(0),
            inheritance: Inheritance::NonVirtual,
            access: Access::Public,
        }]);
        assert!(bad.is_err());
        assert_eq!(handle.epoch(), 1);
    }

    /// A duplicate `AddClass` recomputes nothing and names nothing new:
    /// the edit publishes the very index it started from as the next
    /// epoch, and that index still answers as a rebuild does.
    #[test]
    fn a_no_op_edit_republishes_the_same_index() {
        let mut serving = IndexedEngine::new(fixtures::fig9(), LookupOptions::default());
        let handle = serving.handle();
        let before = handle.load();
        let epoch = serving
            .apply(&[Edit::AddClass { name: "D".into() }])
            .unwrap();
        assert_eq!(epoch, before.epoch() + 1);
        let after = handle.load();
        assert_eq!(after.epoch(), epoch);
        assert!(std::ptr::eq(after.index(), before.index()));
        let rebuilt = DispatchIndex::from_table(LookupTable::build(serving.chg()));
        assert_eq!(after.index().entry_count(), rebuilt.entry_count());
        for c in serving.chg().classes() {
            for m in serving.chg().member_ids() {
                assert_eq!(after.index().entry(c, m), rebuilt.entry(c, m));
            }
        }
    }

    /// An edit that changes entries but adds or drops no key keeps the
    /// hash: adding `m` to `C` in Figure 2 re-resolves `C` and `E`,
    /// which both saw `A::m` already. An edit that adds a key rebuilds
    /// it. Either way the index answers as a rebuild does.
    #[test]
    fn refresh_keeps_the_hash_when_the_key_set_is_unchanged() {
        let builds = || crate::obs::DIRECTORY_BUILDS.with(|n| n.get());
        let mut serving = IndexedEngine::new(fixtures::fig2(), LookupOptions::default());
        let chg = serving.chg();
        let (c, e) = (
            chg.class_by_name("C").unwrap(),
            chg.class_by_name("E").unwrap(),
        );
        let before = serving.handle().load().index().clone();
        let start = builds();
        serving
            .apply(&[Edit::AddMember {
                class: c,
                name: "m".into(),
                decl: MemberDecl::public(MemberKind::Function),
            }])
            .unwrap();
        let kept = serving.handle().load().index().clone();
        assert_eq!(builds(), start, "an unchanged key set builds no hash");
        let m = serving.chg().member_by_name("m").unwrap();
        assert_ne!(kept.entry(e, m), before.entry(e, m), "E's entry changed");
        assert_eq!(kept.entry_count(), before.entry_count());
        assert_eq!(kept.layout.seed, before.layout.seed);
        assert_eq!(kept.disp(), before.disp());
        let rebuilt = DispatchIndex::from_table(LookupTable::build(serving.chg()));
        let reloaded =
            DispatchIndex::from_columns(kept.bytes.clone(), 0, kept.size_bytes()).unwrap();
        for c in serving.chg().classes() {
            for m in serving.chg().member_ids() {
                assert_eq!(kept.entry(c, m), rebuilt.entry(c, m));
                assert_eq!(reloaded.entry(c, m), rebuilt.entry(c, m));
            }
        }

        let start = builds();
        serving
            .apply(&[Edit::AddMember {
                class: e,
                name: "fresh".into(),
                decl: MemberDecl::public(MemberKind::Function),
            }])
            .unwrap();
        assert_eq!(builds(), start + 1, "a new key rebuilds the hash");
        let grown = serving.handle().load().index().clone();
        assert_eq!(grown.entry_count(), kept.entry_count() + 1);
        let rebuilt = DispatchIndex::from_table(LookupTable::build(serving.chg()));
        for c in serving.chg().classes() {
            for m in serving.chg().member_ids() {
                assert_eq!(grown.entry(c, m), rebuilt.entry(c, m));
            }
        }
    }

    /// Over a realistic edit script, every edit recomputes exactly its
    /// dirty set — one entry per pair, each equal to a rebuild's — and
    /// every pair outside it keeps the entry it had; a cycle-closing
    /// edge publishes nothing and leaves the hierarchy as it was.
    #[test]
    fn an_edit_recomputes_exactly_its_dirty_set() {
        use cpplookup_hiergen::{edit_script, EditScriptConfig};
        use std::collections::HashSet;

        let options = LookupOptions::default();
        let (base, edits) = edit_script(&EditScriptConfig::realistic(60, 40, 3));
        let handle = ServeHandle::serving(LookupTable::build(&base));
        let mut serving = IndexedEngine::with_handle(base, options, handle.clone());
        for (step, edit) in edits.iter().enumerate() {
            let edit = std::slice::from_ref(edit);
            let old = handle.load();
            let next = apply_edits(serving.chg(), edit).unwrap();
            let dirty = dirty_set(&next, edit);
            let fresh = recompute_dirty(&next, options, &dirty, |c, m| old.index().entry(c, m));
            assert_eq!(fresh.len(), dirty.len(), "step {step}");
            assert!(fresh
                .iter()
                .map(|(pair, _)| *pair)
                .eq(dirty.iter().copied()));
            serving.apply(edit).unwrap();
            let new = handle.load();
            let rebuilt = LookupTable::build(&next);
            for ((c, m), e) in &fresh {
                assert_eq!(e.as_ref(), rebuilt.entry(*c, *m), "step {step}");
                assert_eq!(&new.index().entry(*c, *m), e, "step {step}");
            }
            let dirty: HashSet<_> = dirty.into_iter().collect();
            for c in next.classes() {
                for m in next.member_ids().filter(|&m| !dirty.contains(&(c, m))) {
                    assert_eq!(
                        new.index().entry(c, m),
                        old.index().entry(c, m),
                        "step {step}"
                    );
                }
            }
        }
        let chg = serving.chg();
        let (derived, base) = chg
            .classes()
            .find_map(|c| chg.direct_bases(c).first().map(|spec| (c, spec.base)))
            .expect("the script's hierarchy has an edge");
        let generation = chg.generation();
        let before = handle.load();
        let cycle = serving.apply(&[Edit::AddEdge {
            derived: base,
            base: derived,
            inheritance: Inheritance::NonVirtual,
            access: Access::Public,
        }]);
        assert!(matches!(cycle, Err(ChgError::Cycle { .. })), "{cycle:?}");
        assert_eq!(handle.epoch(), before.epoch());
        assert!(Arc::ptr_eq(&handle.load(), &before));
        assert_eq!(serving.chg().generation(), generation);
    }

    #[test]
    fn refresh_after_edge_edit_updates_dirty_rows_only() {
        let g = fixtures::fig9();
        let mut serving = IndexedEngine::new(g, LookupOptions::default());
        let chg = serving.chg();
        let d = chg.class_by_name("D").unwrap();
        let s = chg.class_by_name("S").unwrap();
        serving
            .apply(&[Edit::AddEdge {
                derived: d,
                base: s,
                inheritance: Inheritance::Virtual,
                access: Access::Public,
            }])
            .unwrap();
        let index = serving.handle().load();
        let rebuilt = DispatchIndex::from_table(LookupTable::build(serving.chg()));
        let chg = serving.chg();
        for c in chg.classes() {
            for m in chg.member_ids() {
                assert_eq!(index.index().entry(c, m), rebuilt.entry(c, m));
            }
        }
    }
}
