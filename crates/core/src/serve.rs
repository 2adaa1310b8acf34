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
//! section of a version-3 snapshot: an index loaded from a file serves
//! from the file's buffer as it is, and an index built in memory writes
//! the same columns into a fresh buffer. A 32-byte header comes first,
//! then six columns, each at a 16-byte-aligned offset:
//!
//! ```text
//! header      : class_count, member_count, entry_count, pool_len: u32,
//!               mph seed: u64, nbuckets: u32, reserved: u32 (zero)
//! row_starts  : class → first pair            (|N|+1 × u32)
//! pairs       : (member: u32, slot: u32)      one contiguous run per
//!               sorted by member id per class  class — rank iteration;
//!                                              slot = the pair's index
//! entries     : fixed-width pre-decoded slots (24 bytes each)
//!               {flags, ldc, lv, via, set off, set len}
//! cells       : 16-byte directory cells       the global probe path,
//!               {key: u64, a: u32, b: u32}    verdict decoded inline,
//!               key = class | member << 32    one cell per entry at its
//!               red  → a = ldc, b = lv        minimal-perfect-hash slot
//!               blue → a = pool off,
//!                      b = len | BLUE_BIT
//! pool        : shared u32 leastVirtual sets  (0 = Ω, else class+1),
//!               interned — equal sets share one range
//! disp        : mph displacements             (nbuckets × u32)
//! ```
//!
//! The rank-sorted `pairs` rows serve ordered iteration
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
//! add one pool read for the witnesses. The `entries` column is only
//! touched by the cold reconstruction paths
//! ([`entry`](DispatchIndex::entry), refresh copying), which
//! binary-search the rank-sorted rows instead.
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
//! * [`DispatchIndex::from_table`] — one pass over a finished
//!   [`LookupTable`];
//! * [`DispatchIndex::from_entries`] — any `(class, member, entry)`
//!   stream, under a prebuilt hash or a fresh one (how a snapshot
//!   written before format version 3 loads);
//! * [`DispatchIndex::refreshed`] — the index after an edit: the edit's
//!   recomputed pairs are merged into the old rows, every other entry
//!   and its pool range is copied verbatim, and the hash is kept when
//!   the key set is unchanged.
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
use crate::batched::elapsed_ns;
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

/// Entry flag bit: the slot is blue (ambiguous).
const FLAG_BLUE: u32 = 1;
/// Entry flag bit: the red slot has a via edge.
const FLAG_VIA: u32 = 2;

/// Marks a blue cell in [`Cell::b`]'s top bit (encoded `leastVirtual`
/// values and witness counts both stay below 2³¹; validation checks).
const BLUE_BIT: u32 = 1 << 31;

/// Bytes of the column header.
const HEADER_LEN: usize = 32;
/// Alignment of every column start, relative to the buffer.
const COLUMN_ALIGN: usize = 16;
/// Bytes of one `(member, slot)` pair.
const PAIR_LEN: usize = 8;
/// Bytes of one packed entry.
const ENTRY_LEN: usize = 24;
/// Bytes of one directory cell.
const CELL_LEN: usize = 16;

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

/// Where each column of an index lives in its buffer: the header's
/// counts plus the absolute byte offsets they imply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Layout {
    class_count: usize,
    member_count: usize,
    entry_count: usize,
    pool_len: usize,
    nbuckets: usize,
    seed: u64,
    rows: usize,
    pairs: usize,
    entries: usize,
    cells: usize,
    pool: usize,
    disp: usize,
    /// The header's first byte.
    start: usize,
    /// One past the last column's padding.
    end: usize,
}

impl Layout {
    /// The layout of an index with these counts whose header starts at
    /// `start`; `None` if a count overflows its `u32` header field or an
    /// offset overflows `usize`.
    fn new(
        start: usize,
        [class_count, member_count, entry_count, pool_len, nbuckets]: [usize; 5],
        seed: u64,
    ) -> Option<Layout> {
        for count in [class_count, member_count, entry_count, pool_len, nbuckets] {
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
        let pairs = column(entry_count.checked_mul(PAIR_LEN))?;
        let entries = column(entry_count.checked_mul(ENTRY_LEN))?;
        let cells = column(entry_count.checked_mul(CELL_LEN))?;
        let pool = column(pool_len.checked_mul(4))?;
        let disp = column(nbuckets.checked_mul(4))?;
        Some(Layout {
            class_count,
            member_count,
            entry_count,
            pool_len,
            nbuckets,
            seed,
            rows,
            pairs,
            entries,
            cells,
            pool,
            disp,
            start,
            end: at,
        })
    }

    /// Reads the header at `start`, which the caller has checked lies
    /// inside `b`.
    fn read(b: &[u8], start: usize) -> Result<Layout, String> {
        let count = |i: usize| u32_at(b, start + 4 * i) as usize;
        if u32_at(b, start + 28) != 0 {
            return Err("reserved index header field is nonzero".into());
        }
        let nbuckets = u32_at(b, start + 24) as usize;
        if !nbuckets.is_power_of_two() {
            return Err(format!(
                "mph bucket count {nbuckets} is not a nonzero power of two"
            ));
        }
        Layout::new(
            start,
            [count(0), count(1), count(2), count(3), nbuckets],
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
    }

    /// Each column's name, first byte, data bytes, and the start of
    /// whatever follows it: the padding between is zero.
    fn columns(&self) -> [(&'static str, usize, usize, usize); 6] {
        [
            (
                "row_starts",
                self.rows,
                4 * (self.class_count + 1),
                self.pairs,
            ),
            (
                "pairs",
                self.pairs,
                PAIR_LEN * self.entry_count,
                self.entries,
            ),
            (
                "entries",
                self.entries,
                ENTRY_LEN * self.entry_count,
                self.cells,
            ),
            ("cells", self.cells, CELL_LEN * self.entry_count, self.pool),
            ("pool", self.pool, 4 * self.pool_len, self.disp),
            ("disp", self.disp, 4 * self.nbuckets, self.end),
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

    /// A 64-bit hash of the whole cell; validation sums it over the
    /// directory and over the entries' verdicts.
    #[inline]
    fn fingerprint(&self) -> u64 {
        let verdict = u64::from(self.a) | u64::from(self.b) << 32;
        let z = (self.key.rotate_left(17) ^ verdict).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z ^ (z >> 29)
    }

    /// Whether the verdict is in range: a blue cell's witnesses inside
    /// the pool, a red cell's classes below `class_count`. Branch-free:
    /// cells of both colours interleave at random in slot order.
    #[inline]
    fn in_range(&self, class_count: u64, pool_len: u64) -> bool {
        let blue = self.b & BLUE_BIT != 0;
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

/// One `(member, slot)` record of a class's rank-sorted index row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct IndexPair {
    member: u32,
    slot: u32,
}

impl IndexPair {
    #[inline]
    fn decode(p: &[u8; PAIR_LEN]) -> IndexPair {
        let [m0, m1, m2, m3, s0, s1, s2, s3] = *p;
        IndexPair {
            member: u32::from_le_bytes([m0, m1, m2, m3]),
            slot: u32::from_le_bytes([s0, s1, s2, s3]),
        }
    }
}

/// A fixed-width, fully pre-decoded table slot: everything a query
/// needs without interpretation. 24 bytes, so a 64-byte line holds the
/// better part of three entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PackedEntry {
    /// [`FLAG_BLUE`] | [`FLAG_VIA`].
    flags: u32,
    /// Red: declaring class of the winning definition. Blue: 0.
    ldc: u32,
    /// Red: encoded `leastVirtual` of the winner. Blue: 0.
    lv: u32,
    /// Red with [`FLAG_VIA`]: the via-edge class index. Otherwise 0.
    via: u32,
    /// Pool offset of the shared set (red) / witness set (blue).
    set_off: u32,
    /// Pool length of that set.
    set_len: u32,
}

impl PackedEntry {
    fn decode(e: &[u8; ENTRY_LEN]) -> PackedEntry {
        let f = |i: usize| u32::from_le_bytes([e[4 * i], e[4 * i + 1], e[4 * i + 2], e[4 * i + 3]]);
        PackedEntry {
            flags: f(0),
            ldc: f(1),
            lv: f(2),
            via: f(3),
            set_off: f(4),
            set_len: f(5),
        }
    }

    fn write(&self, b: &mut [u8], at: usize) {
        let fields = [
            self.flags,
            self.ldc,
            self.lv,
            self.via,
            self.set_off,
            self.set_len,
        ];
        for (i, v) in fields.into_iter().enumerate() {
            put_u32(b, at + 4 * i, v);
        }
    }

    /// The directory cell carrying this entry's verdict under `key`.
    fn cell(&self, key: u64) -> Cell {
        if self.flags & FLAG_BLUE != 0 {
            Cell {
                key,
                a: self.set_off,
                b: self.set_len | BLUE_BIT,
            }
        } else {
            Cell {
                key,
                a: self.ldc,
                b: self.lv,
            }
        }
    }

    /// Whether every field is in range for an index of `class_count`
    /// classes over a pool of `pool_len` words. Branch-free: red and
    /// blue entries interleave unpredictably, and validation runs this
    /// on every entry of a loaded file.
    #[inline]
    fn in_range(&self, class_count: u64, pool_len: u64) -> bool {
        let cc = class_count;
        let in_pool = u64::from(self.set_off) + u64::from(self.set_len) <= pool_len;
        let blue = (self.flags == FLAG_BLUE)
            & (self.ldc | self.lv | self.via == 0)
            & (self.set_len & BLUE_BIT == 0);
        let via_ok = ((self.flags == FLAG_VIA) & (u64::from(self.via) < cc))
            | ((self.flags == 0) & (self.via == 0));
        let red = via_ok
            & (u64::from(self.ldc) < cc)
            & (u64::from(self.lv) <= cc)
            & (self.lv & BLUE_BIT == 0);
        in_pool & (blue | red)
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
        if lvs.is_empty() {
            return (0, 0);
        }
        let encoded: Vec<u32> = lvs.iter().map(|&lv| enc_lv(lv)).collect();
        if let Some(&range) = self.interned.get(&encoded) {
            return range;
        }
        let off = u32::try_from(self.pool.len()).expect("leastVirtual pool overflow");
        let len = encoded.len() as u32;
        self.pool.extend_from_slice(&encoded);
        self.interned.insert(encoded, (off, len));
        (off, len)
    }

    fn pack(&mut self, entry: &Entry) -> PackedEntry {
        match entry {
            Entry::Red { abs, via, shared } => {
                let (set_off, set_len) = self.intern(shared);
                PackedEntry {
                    flags: if via.is_some() { FLAG_VIA } else { 0 },
                    ldc: abs.ldc.index() as u32,
                    lv: enc_lv(abs.lv),
                    via: via.map_or(0, |v| v.index() as u32),
                    set_off,
                    set_len,
                }
            }
            Entry::Blue(set) => {
                let (set_off, set_len) = self.intern(set);
                PackedEntry {
                    flags: FLAG_BLUE,
                    ldc: 0,
                    lv: 0,
                    via: 0,
                    set_off,
                    set_len,
                }
            }
        }
    }
}

/// The construction side of an index: rows, members, entries and pool
/// are collected typed, then [`finish`](Packer::finish) places the
/// directory and writes every column into one fresh buffer. Pair `i`
/// names member `members[i]` and entry slot `i`.
struct Packer {
    row_starts: Vec<u32>,
    members: Vec<u32>,
    entries: Vec<PackedEntry>,
    pool: PoolBuilder,
}

impl Packer {
    fn new(pool: PoolBuilder) -> Self {
        Packer {
            row_starts: vec![0],
            members: Vec::new(),
            entries: Vec::new(),
            pool,
        }
    }

    /// Appends `packed` to the current class's row.
    fn push(&mut self, member: u32, packed: PackedEntry) {
        self.members.push(member);
        self.entries.push(packed);
    }

    /// Packs one class's row from its `(member, entry)` pairs, in any
    /// order, and closes it.
    fn push_row<E: Borrow<Entry>>(&mut self, row: &mut [(u32, E)]) {
        row.sort_unstable_by_key(|&(m, _)| m);
        for (m, e) in row.iter() {
            let packed = self.pool.pack(e.borrow());
            self.push(*m, packed);
        }
        self.end_row();
    }

    fn end_row(&mut self) {
        let end = u32::try_from(self.members.len()).expect("dispatch index overflow");
        self.row_starts.push(end);
    }

    /// Writes the columns into a fresh buffer, every cell at its slot
    /// under `mph` when that hash covers the rows' keys and under a
    /// freshly built one otherwise (a prebuilt hash that maps two live
    /// keys to one slot would turn live probes into `NotFound`).
    fn finish(self, member_count: usize, mph: Option<MphFunction>) -> DispatchIndex {
        let Packer {
            row_starts,
            members,
            entries,
            pool,
        } = self;
        let keys = || {
            row_starts.windows(2).enumerate().flat_map(|(ci, row)| {
                members[row[0] as usize..row[1] as usize]
                    .iter()
                    .map(move |&m| ci as u64 | u64::from(m) << 32)
            })
        };
        let covers = |f: &MphFunction| {
            let mut seen = vec![false; members.len()];
            f.n() as usize == members.len()
                && keys().all(|k| !std::mem::replace(&mut seen[f.position(k)], true))
        };
        let mph = mph.filter(covers).unwrap_or_else(|| {
            let start = Instant::now();
            let f = MphFunction::build(&keys().collect::<Vec<u64>>());
            crate::obs::directory_built(elapsed_ns(start));
            f
        });
        let counts = [
            row_starts.len() - 1,
            member_count,
            members.len(),
            pool.pool.len(),
            mph.disp().len(),
        ];
        let l = Layout::new(0, counts, mph.seed()).expect("dispatch index overflows its columns");
        let mut b = vec![0u8; l.end];
        l.write_header(&mut b);
        for (i, &start) in row_starts.iter().enumerate() {
            put_u32(&mut b, l.rows + 4 * i, start);
        }
        for (i, &m) in members.iter().enumerate() {
            put_u32(&mut b, l.pairs + PAIR_LEN * i, m);
            put_u32(&mut b, l.pairs + PAIR_LEN * i + 4, i as u32);
        }
        for (i, e) in entries.iter().enumerate() {
            e.write(&mut b, l.entries + ENTRY_LEN * i);
        }
        for (i, &w) in pool.pool.iter().enumerate() {
            put_u32(&mut b, l.pool + 4 * i, w);
        }
        for (i, &d) in mph.disp().iter().enumerate() {
            put_u32(&mut b, l.disp + 4 * i, d);
        }
        for (key, e) in keys().zip(&entries) {
            e.cell(key)
                .write(&mut b, l.cells + CELL_LEN * mph.position(key));
        }
        DispatchIndex {
            bytes: Arc::new(b),
            layout: l,
        }
    }
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
    /// load path of a version-3 snapshot, whose index section holds
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
    /// of range, a pair whose slot is not its own position, an entry
    /// field or `leastVirtual` encoding (in an entry, a cell or the
    /// pool) out of range, a set range past the pool's end, a
    /// directory cell away from its minimal-perfect-hash slot, or
    /// cells that disagree with the entries. Pool words no entry
    /// references are allowed: a refreshed index only appends to its
    /// pool.
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
    fn validate(&self) -> Result<(), String> {
        let (b, l) = (self.buf(), &self.layout);
        let (cc, ec) = (l.class_count, l.entry_count);
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
        // Pairs in row order, each pointing at the entry in its own
        // position (the layout every writer produces), so one pass
        // checks every pair and every entry, and sums the keys with
        // their entries' verdicts into a multiset hash.
        let (pairs, entries) = (self.pair_records(), self.entry_records());
        let mut from_pairs = 0u64;
        for ci in 0..cc {
            let mut prev_member = None;
            let row = self.row(ci);
            for (i, (p, e)) in row
                .clone()
                .zip(pairs[row.clone()].iter().zip(&entries[row]))
            {
                let p = IndexPair::decode(p);
                if p.member as usize >= l.member_count {
                    return Err(format!(
                        "pair {i} of class {ci} names member {}, out of range ({} members)",
                        p.member, l.member_count
                    ));
                }
                if prev_member.is_some_and(|q| q >= p.member) {
                    return Err(format!("row of class {ci} is not sorted by member id"));
                }
                prev_member = Some(p.member);
                if p.slot as usize != i {
                    return Err(format!(
                        "pair {i} of class {ci} has slot {}, not its own position ({ec} entries)",
                        p.slot
                    ));
                }
                let e = PackedEntry::decode(e);
                if !e.in_range(cc as u64, l.pool_len as u64) {
                    return Err(format!(
                        "entry {i} has a field out of range for {cc} classes and {} pool \
                         words: {e:?}",
                        l.pool_len
                    ));
                }
                let key = ci as u64 | u64::from(p.member) << 32;
                from_pairs = from_pairs.wrapping_add(e.cell(key).fingerprint());
            }
        }
        // Cells in slot order, so the directory is read sequentially:
        // each sits at its own key's slot, which also makes the `ec`
        // cell keys distinct, and carries an in-range verdict. Distinct
        // pair keys and distinct cell keys, equally many, with equal
        // multiset hashes: the cells hold exactly the pairs' verdicts.
        let disp = self.disp();
        let mut from_cells = 0u64;
        for (at, cell) in self.cell_records().iter().enumerate() {
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
            if !cell.in_range(cc as u64, l.pool_len as u64) {
                return Err(format!(
                    "the cell at slot {at} has a verdict out of range for {cc} classes and {} \
                     pool words: {cell:?}",
                    l.pool_len
                ));
            }
            from_cells = from_cells.wrapping_add(cell.fingerprint());
        }
        if from_pairs != from_cells {
            return Err("the directory cells disagree with the entries their pairs name".into());
        }
        Ok(())
    }

    /// The index's columns, header first: the bytes a version-3
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
    /// already exists — how a version-2 snapshot, which ships its hash,
    /// loads without the displacement search. A hash that does not
    /// cover the stream's packed keys is discarded and rebuilt. Without
    /// one (a fresh stream, or a version-1 snapshot) the hash is built
    /// here.
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
        let mut packer = Packer::new(PoolBuilder::new());
        let mut member_count = 0usize;
        for row in rows {
            let mut row: Vec<(u32, E)> = row.into_iter().collect();
            packer.push_row(&mut row);
            // `push_row` sorted the row by member id.
            if let Some(&(m, _)) = row.last() {
                member_count = member_count.max(m as usize + 1);
            }
        }
        packer.finish(member_count, mph)
    }

    /// The index of `chg` after an edit, from this one and the edit's
    /// recomputed pairs `fresh`: each replaces or adds its entry (drops
    /// it when `None`), and every other entry and its pool range is
    /// copied verbatim. The pool only grows, so copied ranges stay
    /// valid. The probe directory keeps this index's hash when the edit
    /// left the key set as it was and is rebuilt whole otherwise.
    pub fn refreshed(&self, chg: &Chg, fresh: &[Recomputed]) -> Self {
        let start = Instant::now();
        let mut updates: Vec<(usize, u32, Option<&Entry>)> = fresh
            .iter()
            .map(|((c, m), e)| (c.index(), m.index() as u32, e.as_ref()))
            .collect();
        updates.sort_unstable_by_key(|&(c, m, _)| (c, m));
        let mut updates = updates.as_slice();
        let pool: &[[u8; 4]] = self.records(self.layout.pool, self.layout.pool_len);
        let pool = pool.iter().map(|w| u32::from_le_bytes(*w)).collect();
        let mut packer = Packer::new(PoolBuilder::resume(pool));
        packer.members.reserve(self.entry_count());
        packer.entries.reserve(self.entry_count());
        for ci in 0..chg.class_count() {
            let old = if ci < self.layout.class_count {
                self.row(ci)
            } else {
                0..0
            };
            let split = updates.iter().take_while(|u| u.0 == ci).count();
            let (row, rest) = updates.split_at(split);
            updates = rest;
            // Both runs are sorted by member: merge them, the
            // recomputed entry winning over the old one.
            let (mut i, mut j) = (old.start, 0);
            loop {
                let kept = (i < old.end).then(|| self.pair(i));
                match row.get(j) {
                    Some(&(_, m, e)) if kept.is_none_or(|p| m <= p.member) => {
                        i += usize::from(kept.is_some_and(|p| p.member == m));
                        j += 1;
                        if let Some(e) = e {
                            let packed = packer.pool.pack(e);
                            packer.push(m, packed);
                        }
                    }
                    _ => match kept {
                        Some(p) => {
                            packer.push(p.member, self.packed_at(p.slot as usize));
                            i += 1;
                        }
                        None => break,
                    },
                }
            }
            packer.end_row();
        }
        packer
            .finish(chg.member_name_count(), self.mph())
            .recorded("refresh", start)
    }

    /// This index with no pool word that no entry references: a clone
    /// when there is none (every index built in one pass), otherwise
    /// the same rows, entries and directory under the same hash with
    /// the pool interned afresh. [`refreshed`](Self::refreshed) only
    /// appends to the pool, so after edits it holds every superseded
    /// set; this is what a writer uses so that a file does not.
    pub fn compacted(&self) -> Self {
        let l = &self.layout;
        let mut referenced = vec![false; l.pool_len];
        for e in self.entry_records() {
            let e = PackedEntry::decode(e);
            referenced[e.set_off as usize..(e.set_off + e.set_len) as usize].fill(true);
        }
        if !referenced.contains(&false) {
            return self.clone();
        }
        let mut packer = Packer::new(PoolBuilder::new());
        for ci in 0..l.class_count {
            for i in self.row(ci) {
                let p = self.pair(i);
                let e = self.packed_at(p.slot as usize);
                let set = self.pool_set(e.set_off, e.set_len).to_vec();
                let (set_off, set_len) = packer.pool.intern(&set);
                packer.push(
                    p.member,
                    PackedEntry {
                        set_off,
                        set_len,
                        ..e
                    },
                );
            }
            packer.end_row();
        }
        packer.finish(l.member_count, self.mph())
    }

    /// The hash this index's cells sit under, rebuilt from its seed and
    /// displacement columns.
    fn mph(&self) -> Option<MphFunction> {
        let disp = self.disp().iter().map(|d| u32::from_le_bytes(*d)).collect();
        MphFunction::from_parts(self.layout.seed, self.layout.entry_count as u32, disp)
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

    #[inline]
    fn row_starts(&self) -> &[[u8; 4]] {
        self.records(self.layout.rows, self.layout.class_count + 1)
    }

    #[inline]
    fn pair_records(&self) -> &[[u8; PAIR_LEN]] {
        self.records(self.layout.pairs, self.layout.entry_count)
    }

    #[inline]
    fn entry_records(&self) -> &[[u8; ENTRY_LEN]] {
        self.records(self.layout.entries, self.layout.entry_count)
    }

    #[inline]
    fn cell_records(&self) -> &[[u8; CELL_LEN]] {
        self.records(self.layout.cells, self.layout.entry_count)
    }

    #[inline]
    fn disp(&self) -> &[[u8; 4]] {
        self.records(self.layout.disp, self.layout.nbuckets)
    }

    /// The pair indexes of class `ci`'s row (`ci` in range).
    #[inline]
    fn row(&self, ci: usize) -> Range<usize> {
        let rows = self.row_starts();
        u32::from_le_bytes(rows[ci]) as usize..u32::from_le_bytes(rows[ci + 1]) as usize
    }

    #[inline]
    fn pair(&self, i: usize) -> IndexPair {
        IndexPair::decode(&self.pair_records()[i])
    }

    fn packed_at(&self, slot: usize) -> PackedEntry {
        PackedEntry::decode(&self.entry_records()[slot])
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
            c.index() as u64 | (m.index() as u64) << 32
        } else {
            Cell::VACANT
        }
    }

    /// Decodes an occupied cell's inline verdict — shared by the point
    /// and batch probe paths.
    #[inline]
    fn decode(&self, cell: &Cell) -> OutcomeRef<'_> {
        if cell.b & BLUE_BIT != 0 {
            OutcomeRef::Ambiguous {
                witnesses: self.pool_set(cell.a, cell.b & !BLUE_BIT),
            }
        } else {
            OutcomeRef::Resolved {
                class: ClassId::from_index(cell.a as usize),
                least_virtual: dec_lv(cell.b),
            }
        }
    }

    /// The packed entry behind `(c, m)`, if any — the cold, fully
    /// detailed form behind [`entry`](Self::entry), found by binary
    /// search of the class's rank-sorted row; point queries go through
    /// the directory instead.
    fn packed(&self, c: ClassId, m: MemberId) -> Option<PackedEntry> {
        let ci = c.index();
        if ci >= self.layout.class_count {
            return None;
        }
        let target = u32::try_from(m.index()).ok()?;
        let (mut lo, mut hi) = (self.row(ci).start, self.row(ci).end);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let p = self.pair(mid);
            match p.member.cmp(&target) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(self.packed_at(p.slot as usize)),
            }
        }
        None
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
        crate::obs::serve_query("index", 1);
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
        crate::obs::serve_query("index", probes.len() as u64);
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

    /// The full [`Entry`] a packed slot encodes.
    fn unpack(&self, e: PackedEntry) -> Entry {
        let set = self.pool_set(e.set_off, e.set_len);
        if e.flags & FLAG_BLUE != 0 {
            Entry::Blue(set.to_vec())
        } else {
            Entry::Red {
                abs: RedAbs {
                    ldc: ClassId::from_index(e.ldc as usize),
                    lv: dec_lv(e.lv),
                },
                via: (e.flags & FLAG_VIA != 0).then(|| ClassId::from_index(e.via as usize)),
                shared: set.to_vec(),
            }
        }
    }

    /// Reconstructs the full [`Entry`] for `(c, m)` — the slow,
    /// allocating form used by differential tests and
    /// [`MemberLookup::entry`].
    pub fn entry(&self, c: ClassId, m: MemberId) -> Option<Entry> {
        self.packed(c, m).map(|e| self.unpack(e))
    }

    /// Every `(class, member, entry)` triple, class by class and by
    /// ascending member id within a class — the bulk export that seeds
    /// a [`LookupTable`].
    pub fn entries(&self) -> impl Iterator<Item = (ClassId, MemberId, Entry)> + '_ {
        (0..self.layout.class_count).flat_map(move |ci| {
            self.row(ci).map(move |i| {
                let p = self.pair(i);
                (
                    ClassId::from_index(ci),
                    MemberId::from_index(p.member as usize),
                    self.unpack(self.packed_at(p.slot as usize)),
                )
            })
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
        row.map(|i| MemberId::from_index(self.pair(i).member as usize))
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

    /// Bytes of the columns: header, row starts, pairs, entries,
    /// directory cells, pool and hash displacements, with the padding
    /// that aligns each column.
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
    /// Builds the table of `chg` under `options` and packs it into the
    /// initial index, published as epoch 0; the table is dropped.
    pub fn new(chg: Chg, options: LookupOptions) -> Self {
        let handle = ServeHandle::serving(LookupTable::build_with(&chg, options));
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
        let refreshed = current.index.refreshed(&chg, &fresh);
        self.chg = chg;
        Ok(self.handle.publish_advancing(refreshed, steps))
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
        let blues = (0..index.entry_count())
            .filter(|&slot| index.packed_at(slot).flags & FLAG_BLUE != 0)
            .count();
        assert!(blues > 0);
        assert!(
            index.layout.pool_len * 4 <= index.entry_count() * ENTRY_LEN,
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
        for slot in 0..index.entry_count() {
            let p = index.packed_at(slot);
            for w in p.set_off..p.set_off + p.set_len {
                covered[w as usize] = true;
            }
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
