//! The flat dispatch index: a pre-decoded, cache-dense read path for
//! query serving.
//!
//! Every other backend pays per-query interpretation: the eager
//! [`LookupTable`] probes an `FxHashMap` per class and
//! [`LookupOutcome::from_entry`] clones the blue witness set on every
//! ambiguous hit; a `SnapshotTable` binary-searches its row and then
//! re-decodes a varint payload on every hit. [`DispatchIndex`] is the
//! serving half of the paper's "constant time once the table is built"
//! promise (Definition 9 / Figure 8): the constant is a couple of cache
//! lines and zero allocation.
//!
//! # Layout
//!
//! A CSR-style structure over five flat arrays:
//!
//! ```text
//! row_starts  : class → first pair            (|N|+1 × u32)
//! pairs       : (member: u32, slot: u32)      one contiguous run per
//!               sorted by member id per class  class — rank iteration
//!                                              and batch locality
//! directory   : 16-byte cells {key, a, b}     the global probe path,
//!               key = class | member << 32     verdict decoded inline;
//!               red  → a = ldc, b = lv         minimal perfect hash:
//!               blue → a = pool off,           n cells, zero collision
//!                      b = len | BLUE_BIT      chains
//! entries     : fixed-width pre-decoded slots (24 bytes each)
//!               red  → {ldc, lv, via, shared off+len}
//!               blue → {witness off+len}
//! pool        : shared u32 leastVirtual sets  (0 = Ω, else class+1),
//!               interned — equal sets share one range
//! ```
//!
//! The rank-sorted `pairs` rows serve ordered iteration
//! ([`members_of`](DispatchIndex::members_of)); the cell directory
//! answers a point probe with one hashed 16-byte load. The key set is
//! *static between epochs*, so the directory is a minimal perfect hash
//! ([`crate::mph`]): exactly `n` cells for `n` entries, every probe is
//! one displacement-array load plus one data-dependent cache line, with
//! **zero collision chains** — a miss is decided by the same single key
//! compare a hit needs. Every index carries this one directory: a
//! snapshot that ships its hash has its cells placed under it, and one
//! that does not (format version 1) has the hash built at load. Cells
//! live in 64-byte-aligned blocks of four, so a cell never straddles a
//! cache line. Because a cell carries the decoded verdict inline, a
//! red hit costs exactly one data-dependent line — not the `log₂(row)`
//! lines a binary search pays on member-heavy classes, and not the
//! two-level bucket walk of the hashmap table. Blue hits add one pool read for the witnesses; the
//! `entries` arena is only touched by the cold reconstruction paths
//! ([`entry`](DispatchIndex::entry), refresh copying, which binary-
//! search the rank-sorted rows instead).
//!
//! [`lookup_batch_into`](DispatchIndex::lookup_batch_into) is the
//! SWAR-style batch probe: stripes of eight probes are packed and
//! hashed first (independent, register-only work), then all eight cells
//! are loaded back-to-back so the misses overlap, then decoded — and
//! the caller's output buffer is reused, so a server BATCH frame costs
//! zero allocation on resolved/not-found probes.
//!
//! Three construction paths feed it:
//!
//! * [`DispatchIndex::from_table`] — one pass over
//!   `LookupTable::into_entries`, no entry clones;
//! * [`DispatchIndex::from_entries`] — any `(class, member, entry)`
//!   stream, under a prebuilt hash or a fresh one;
//!   `SnapshotTable::dispatch_index` uses it to decode each varint
//!   payload exactly once at load, then never again;
//! * [`DispatchIndex::from_engine`] — packs an engine's memo;
//! * [`DispatchIndex::refreshed`] — the index after an edit: the edit's
//!   recomputed pairs are merged into the old rows, every other entry
//!   and its pool range is copied verbatim.
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

use std::collections::VecDeque;
use std::sync::{Arc, RwLock};
use std::time::Instant;

use cpplookup_chg::fxmap::FxHashMap;
use cpplookup_chg::{apply_edits, Chg, ChgError, ClassId, Edit, MemberId};

use crate::abstraction::{LeastVirtual, RedAbs};
use crate::api::MemberLookup;
use crate::batched::elapsed_ns;
use crate::engine::{dirty_set, recompute_dirty, LookupEngine, Recomputed};
use crate::mph::MphFunction;
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
/// * [`LookupTable`] (by value — the entries are moved, not cloned),
/// * [`&LookupEngine`](LookupEngine) (the memo is probed, the engine
///   keeps serving),
/// * [`DispatchIndex`] itself (identity — lets already-packed indexes
///   flow through backend-generic call sites),
/// * `&SnapshotTable` in `cpplookup-snapshot` (each varint payload is
///   decoded exactly once).
pub trait IntoDispatchIndex {
    /// Packs this backend into a flat [`DispatchIndex`].
    fn into_dispatch_index(self) -> DispatchIndex;
}

impl IntoDispatchIndex for LookupTable {
    fn into_dispatch_index(self) -> DispatchIndex {
        DispatchIndex::from_table(self)
    }
}

impl IntoDispatchIndex for &LookupEngine {
    fn into_dispatch_index(self) -> DispatchIndex {
        DispatchIndex::from_engine(self)
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
/// values and witness counts both stay far below 2³¹).
const BLUE_BIT: u32 = 1 << 31;

/// One directory cell: the packed `(class, member)` probe key plus the
/// fully pre-decoded verdict, so `lookup_ref` resolves a red hit from
/// this single 16-byte load (a blue hit adds one pool read for the
/// witnesses).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Cell {
    /// `class | member << 32`; [`Cell::VACANT`] marks an empty cell.
    key: u64,
    /// Red: declaring class. Blue: pool offset.
    a: u32,
    /// Red: encoded `leastVirtual`. Blue: witness count | [`BLUE_BIT`].
    b: u32,
}

impl Cell {
    /// The vacant key (no real probe packs to it: it would need both a
    /// class and a member id of `u32::MAX`).
    const VACANT: u64 = u64::MAX;
    /// An unoccupied cell.
    const EMPTY: Cell = Cell {
        key: Cell::VACANT,
        a: 0,
        b: 0,
    };
}

/// Four cells on one 64-byte line: the arena's unit of alignment, so a
/// 16-byte cell can never straddle a cache-line boundary and every
/// probe touches exactly one line of directory.
#[derive(Clone, Copy, Debug)]
#[repr(align(64))]
struct CellBlock([Cell; 4]);

/// The cell store: 64-byte-aligned blocks of four, indexed flat.
#[derive(Clone, Debug)]
struct CellArena {
    blocks: Vec<CellBlock>,
    len: usize,
}

impl CellArena {
    /// An arena of `len` vacant cells (rounded up to whole blocks).
    fn vacant(len: usize) -> CellArena {
        CellArena {
            blocks: vec![CellBlock([Cell::EMPTY; 4]); len.div_ceil(4)],
            len,
        }
    }

    #[inline]
    fn get(&self, i: usize) -> &Cell {
        &self.blocks[i >> 2].0[i & 3]
    }

    #[inline]
    fn set(&mut self, i: usize, cell: Cell) {
        self.blocks[i >> 2].0[i & 3] = cell;
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Allocated bytes (whole blocks, including block padding).
    fn bytes(&self) -> usize {
        self.blocks.len() * std::mem::size_of::<CellBlock>()
    }
}

/// The probe directory behind [`DispatchIndex::lookup_ref`]: a minimal
/// perfect hash with one cell per key at the hash's slot, every cell
/// occupied by a live key; misses are rejected by the key compare on
/// the single probed cell.
#[derive(Clone, Debug)]
struct Directory {
    mph: MphFunction,
    cells: CellArena,
}

impl Directory {
    /// The cell holding `key`, if the key is live — the single-probe
    /// core of every point lookup.
    #[inline]
    fn get(&self, key: u64) -> Option<&Cell> {
        if self.cells.len() == 0 {
            return None;
        }
        let cell = self.cells.get(self.mph.position(key));
        (cell.key == key).then_some(cell)
    }

    /// Allocated directory bytes (cells + hash metadata).
    fn bytes(&self) -> usize {
        self.mph.size_bytes() + self.cells.bytes()
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

/// A borrowed, pool-backed `leastVirtual` set — the allocation-free
/// form of a blue entry's witnesses or a red entry's shared set.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct LvSlice<'a>(&'a [u32]);

impl<'a> LvSlice<'a> {
    /// Number of abstractions in the set.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The `i`-th abstraction (sets are sorted ascending).
    pub fn get(&self, i: usize) -> Option<LeastVirtual> {
        self.0.get(i).map(|&raw| dec_lv(raw))
    }

    /// Iterates the abstractions in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = LeastVirtual> + 'a {
        self.0.iter().map(|&raw| dec_lv(raw))
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

/// The flat serving structure. See the [module docs](self) for the
/// layout; construction is one pass from any entry source, queries are
/// a row binary search plus one fixed-width load.
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
#[derive(Clone, Debug)]
pub struct DispatchIndex {
    class_count: usize,
    member_count: usize,
    /// `class → first pair index`, length `class_count + 1`.
    row_starts: Vec<u32>,
    /// Per-class runs sorted by member id.
    pairs: Vec<IndexPair>,
    /// The global probe directory of pre-decoded verdicts (minimal
    /// perfect hash).
    directory: Directory,
    /// The pre-decoded entry arena; `pairs[i].slot` indexes it.
    entries: Vec<PackedEntry>,
    /// Shared encoded `leastVirtual` pool.
    pool: Vec<u32>,
}

impl DispatchIndex {
    /// Builds the index from any backend — the canonical construction
    /// entry point. [`LookupTable`]s are consumed, engines are probed
    /// through a shared reference, snapshots decode each payload once;
    /// the backend itself decides via its [`IntoDispatchIndex`] impl.
    ///
    /// # Examples
    ///
    /// ```
    /// use cpplookup_chg::fixtures;
    /// use cpplookup_core::serve::DispatchIndex;
    /// use cpplookup_core::{LookupEngine, LookupTable};
    ///
    /// let g = fixtures::fig2();
    /// let from_table = DispatchIndex::from_backend(LookupTable::build(&g));
    /// let engine = LookupEngine::new(g);
    /// let from_engine = DispatchIndex::from_backend(&engine);
    /// assert_eq!(from_table.entry_count(), from_engine.entry_count());
    /// ```
    pub fn from_backend(backend: impl IntoDispatchIndex) -> Self {
        backend.into_dispatch_index()
    }

    /// Builds the index in one pass from any `(class, member, entry)`
    /// stream. `class_count` must cover every class id in the stream;
    /// the stream may arrive in any order.
    ///
    /// With `mph`, cells are placed under a minimal perfect hash that
    /// already exists — the snapshot load path, where the hash was
    /// built once at compile time, serialized, and validated against
    /// the container's key set, so load skips the displacement search
    /// and only places cells. A hash that does not cover the stream's
    /// packed keys is discarded and rebuilt. Without one (a fresh
    /// stream, or a snapshot written before the hash section existed)
    /// the hash is built here.
    pub fn from_entries(
        class_count: usize,
        entries: impl IntoIterator<Item = (ClassId, MemberId, Entry)>,
        mph: Option<MphFunction>,
    ) -> Self {
        let mut rows: Vec<Vec<(u32, Entry)>> = vec![Vec::new(); class_count];
        let mut member_count = 0usize;
        for (c, m, e) in entries {
            member_count = member_count.max(m.index() + 1);
            rows[c.index()].push((m.index() as u32, e));
        }
        Self::from_rows(member_count, rows, mph)
    }

    /// Builds the index from a consumed [`LookupTable`] — one pass over
    /// its per-class entry maps, moving every entry instead of cloning.
    ///
    /// Prefer the backend-generic [`DispatchIndex::from_backend`] in new
    /// code; this remains as the table-specific delegate behind
    /// `LookupTable`'s [`IntoDispatchIndex`] impl.
    pub fn from_table(table: LookupTable) -> Self {
        let start = Instant::now();
        let mut member_count = 0usize;
        let rows: Vec<Vec<(u32, Entry)>> = table
            .into_entries()
            .into_iter()
            .map(|class_tbl| {
                class_tbl
                    .into_iter()
                    .map(|(m, e)| {
                        member_count = member_count.max(m.index() + 1);
                        (m.index() as u32, e)
                    })
                    .collect()
            })
            .collect();
        Self::from_rows(member_count, rows, None).recorded("table", start)
    }

    /// Packs the engine's memo into an index: every `(class, member)`
    /// pair is probed once through [`LookupEngine::entry`] (memo hits
    /// under complete backings; the lazy backing computes missing
    /// columns on demand, so the result always covers the full table).
    ///
    /// Prefer the backend-generic [`DispatchIndex::from_backend`] in new
    /// code; this remains as the engine-specific delegate behind
    /// `&LookupEngine`'s [`IntoDispatchIndex`] impl.
    pub fn from_engine(engine: &LookupEngine) -> Self {
        let start = Instant::now();
        let chg = engine.chg();
        let mut rows: Vec<Vec<(u32, Entry)>> = vec![Vec::new(); chg.class_count()];
        for c in chg.classes() {
            for m in chg.member_ids() {
                if let Some(e) = engine.entry(c, m) {
                    rows[c.index()].push((m.index() as u32, e));
                }
            }
        }
        Self::from_rows(chg.member_name_count(), rows, None).recorded("engine", start)
    }

    /// The index of `chg` after an edit, from this one and the edit's
    /// recomputed pairs `fresh`: each replaces or adds its entry (drops
    /// it when `None`), and every other entry and its pool range is
    /// copied verbatim. The pool only grows, so copied ranges stay
    /// valid; the probe directory is rebuilt whole.
    pub fn refreshed(&self, chg: &Chg, fresh: &[Recomputed]) -> Self {
        let start = Instant::now();
        let class_count = chg.class_count();
        let mut updates: Vec<(usize, u32, Option<&Entry>)> = fresh
            .iter()
            .map(|((c, m), e)| (c.index(), m.index() as u32, e.as_ref()))
            .collect();
        updates.sort_unstable_by_key(|&(c, m, _)| (c, m));
        let mut updates = updates.as_slice();
        let mut pool = PoolBuilder::resume(self.pool.clone());
        let mut row_starts = Vec::with_capacity(class_count + 1);
        let mut pairs = Vec::with_capacity(self.pairs.len());
        let mut entries = Vec::with_capacity(self.entries.len());
        row_starts.push(0u32);
        for ci in 0..class_count {
            let old = if ci < self.class_count {
                &self.pairs[self.row_starts[ci] as usize..self.row_starts[ci + 1] as usize]
            } else {
                &[]
            };
            let split = updates.iter().take_while(|u| u.0 == ci).count();
            let (row, rest) = updates.split_at(split);
            updates = rest;
            let mut push = |member: u32, packed: PackedEntry| {
                let slot = entries.len() as u32;
                entries.push(packed);
                pairs.push(IndexPair { member, slot });
            };
            // Both runs are sorted by member: merge them, the
            // recomputed entry winning over the old one.
            let (mut i, mut j) = (0, 0);
            loop {
                let kept = old.get(i);
                match row.get(j) {
                    Some(&(_, m, e)) if kept.is_none_or(|p| m <= p.member) => {
                        i += usize::from(kept.is_some_and(|p| p.member == m));
                        j += 1;
                        if let Some(e) = e {
                            push(m, pool.pack(e));
                        }
                    }
                    _ => match kept {
                        Some(p) => {
                            push(p.member, self.entries[p.slot as usize]);
                            i += 1;
                        }
                        None => break,
                    },
                }
            }
            row_starts.push(u32::try_from(pairs.len()).expect("dispatch index overflow"));
        }
        let directory = Self::build_directory(None, &row_starts, &pairs, &entries);
        DispatchIndex {
            class_count,
            member_count: chg.member_name_count(),
            row_starts,
            pairs,
            directory,
            entries,
            pool: pool.pool,
        }
        .recorded("refresh", start)
    }

    /// Counts this index in the build metrics, as built by `source`
    /// since `start`.
    fn recorded(self, source: &str, start: Instant) -> Self {
        let (entries, bytes) = (self.entry_count() as u64, self.size_bytes() as u64);
        crate::obs::index_built(source, entries, bytes, elapsed_ns(start));
        self
    }

    /// The shared layout pass: sorts each row by member id and packs
    /// entries into the arena + pool, then builds the directory (under
    /// `mph` when given, see [`build_directory`](Self::build_directory)).
    fn from_rows(
        member_count: usize,
        rows: Vec<Vec<(u32, Entry)>>,
        mph: Option<MphFunction>,
    ) -> Self {
        let class_count = rows.len();
        let mut pool = PoolBuilder::new();
        let mut row_starts = Vec::with_capacity(class_count + 1);
        let mut pairs = Vec::new();
        let mut entries = Vec::new();
        row_starts.push(0u32);
        for mut row in rows {
            row.sort_unstable_by_key(|&(m, _)| m);
            for (m, e) in &row {
                let slot = entries.len() as u32;
                entries.push(pool.pack(e));
                pairs.push(IndexPair { member: *m, slot });
            }
            row_starts.push(u32::try_from(pairs.len()).expect("dispatch index overflow"));
        }
        let directory = Self::build_directory(mph, &row_starts, &pairs, &entries);
        DispatchIndex {
            class_count,
            member_count,
            row_starts,
            pairs,
            directory,
            entries,
            pool: pool.pool,
        }
    }

    /// The packed key and pre-decoded cell of one CSR pair.
    #[inline]
    fn cell_of(class: usize, pair: &IndexPair, entries: &[PackedEntry]) -> (u64, Cell) {
        let key = class as u64 | u64::from(pair.member) << 32;
        debug_assert_ne!(key, Cell::VACANT, "probe key collides with sentinel");
        let e = &entries[pair.slot as usize];
        let cell = if e.flags & FLAG_BLUE != 0 {
            debug_assert_eq!(e.set_len & BLUE_BIT, 0, "witness count overflow");
            Cell {
                key,
                a: e.set_off,
                b: e.set_len | BLUE_BIT,
            }
        } else {
            debug_assert_eq!(e.lv & BLUE_BIT, 0, "leastVirtual encoding overflow");
            Cell {
                key,
                a: e.ldc,
                b: e.lv,
            }
        };
        (key, cell)
    }

    /// Builds the global probe directory from the finished CSR rows,
    /// every cell carrying its entry's decoded verdict inline, each at
    /// its unique minimal-perfect-hash slot: `n` cells for `n` entries,
    /// all occupied. Cells are placed straight from the rows; only a
    /// fresh hash needs the key set collected first.
    ///
    /// * `Some(mph)` places cells under an already-validated hash (the
    ///   snapshot load path) — no displacement search.
    /// * `None` runs the hash-and-displace construction over the key
    ///   set (class-ascending, member-ascending — the same order the
    ///   snapshot serializes).
    fn build_directory(
        mph: Option<MphFunction>,
        row_starts: &[u32],
        pairs: &[IndexPair],
        entries: &[PackedEntry],
    ) -> Directory {
        let cells = || {
            row_starts.windows(2).enumerate().flat_map(|(ci, row)| {
                pairs[row[0] as usize..row[1] as usize]
                    .iter()
                    .map(move |pair| Self::cell_of(ci, pair, entries))
            })
        };
        // A prebuilt hash that cannot cover this key set — wrong count,
        // or a displacement array that maps two live keys to one slot
        // (a mismatched or adversarial container section; random
        // corruption is already caught by the file checksum) — is
        // rebuilt instead of served through: a collision would silently
        // overwrite a cell and turn live probes into NotFound.
        let placed = mph
            .filter(|mph| mph.n() as usize == pairs.len())
            .and_then(|mph| Self::place_mph(mph, cells()));
        placed.unwrap_or_else(|| {
            let start = Instant::now();
            let keys: Vec<u64> = cells().map(|(key, _)| key).collect();
            let directory = Self::place_mph(MphFunction::build(&keys), cells())
                .expect("freshly built mph collided on its own key set");
            crate::obs::directory_built(elapsed_ns(start));
            directory
        })
    }

    /// Places every cell at its minimal-perfect-hash slot; `None` if
    /// two keys land on one slot (the hash does not cover this key
    /// set — possible only for a deserialized hash).
    fn place_mph(mph: MphFunction, cells: impl Iterator<Item = (u64, Cell)>) -> Option<Directory> {
        let mut arena = CellArena::vacant(mph.n() as usize);
        for (key, cell) in cells {
            let at = mph.position(key);
            if arena.get(at).key != Cell::VACANT {
                return None;
            }
            arena.set(at, cell);
        }
        Some(Directory { mph, cells: arena })
    }

    /// The directory cell behind `(c, m)`, if any — the hot probe
    /// behind every point query: one displacement load plus one hashed
    /// 16-byte cell load, with zero collision chains.
    #[inline]
    fn cell(&self, c: ClassId, m: MemberId) -> Option<&Cell> {
        if c.index() >= self.class_count || m.index() > u32::MAX as usize {
            return None;
        }
        let key = c.index() as u64 | (m.index() as u64) << 32;
        self.directory.get(key)
    }

    /// Decodes an occupied cell's inline verdict — shared by the point
    /// and batch probe paths.
    #[inline]
    fn decode(&self, cell: &Cell) -> OutcomeRef<'_> {
        if cell.b & BLUE_BIT != 0 {
            OutcomeRef::Ambiguous {
                witnesses: LvSlice(
                    &self.pool[cell.a as usize..(cell.a + (cell.b & !BLUE_BIT)) as usize],
                ),
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
    /// [`cell`](Self::cell) instead.
    fn packed(&self, c: ClassId, m: MemberId) -> Option<&PackedEntry> {
        let ci = c.index();
        if ci >= self.class_count {
            return None;
        }
        let row = &self.pairs[self.row_starts[ci] as usize..self.row_starts[ci + 1] as usize];
        let target = u32::try_from(m.index()).ok()?;
        row.binary_search_by(|p| p.member.cmp(&target))
            .ok()
            .map(|i| &self.entries[row[i].slot as usize])
    }

    /// `lookup(c, m)` without a single allocation: ambiguity witnesses
    /// are returned as a borrow of the shared pool. This is the serving
    /// hot path; pair it with [`lookup`](Self::lookup) when an owned
    /// [`LookupOutcome`] is required.
    #[inline]
    pub fn lookup_ref(&self, c: ClassId, m: MemberId) -> OutcomeRef<'_> {
        match self.cell(c, m) {
            None => OutcomeRef::NotFound,
            Some(cell) => self.decode(cell),
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
    /// copied out back-to-back, so their (potentially missing) cache
    /// lines are requested together and the loads overlap instead of
    /// serializing, then decoded. A probe outside the class/member id
    /// range packs to the vacant sentinel key, which no occupied cell
    /// carries, and falls out as `NotFound` through the same key
    /// compare as any dead key.
    pub fn lookup_batch_into<'a>(
        &'a self,
        probes: &[(ClassId, MemberId)],
        out: &mut Vec<OutcomeRef<'a>>,
    ) {
        crate::obs::serve_query("index", probes.len() as u64);
        out.clear();
        out.reserve(probes.len());
        let Directory { mph, cells } = &self.directory;
        if cells.len() == 0 {
            out.extend(probes.iter().map(|_| OutcomeRef::NotFound));
            return;
        }
        let mut keys = [0u64; 8];
        let mut slots = [0usize; 8];
        let mut hit = [Cell::EMPTY; 8];
        for stripe in probes.chunks(8) {
            for (i, &(c, m)) in stripe.iter().enumerate() {
                let key = if c.index() < self.class_count && m.index() <= u32::MAX as usize {
                    c.index() as u64 | (m.index() as u64) << 32
                } else {
                    Cell::VACANT
                };
                keys[i] = key;
                slots[i] = mph.position(key);
            }
            for i in 0..stripe.len() {
                hit[i] = *cells.get(slots[i]);
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

    /// Reconstructs the full [`Entry`] for `(c, m)` — the slow,
    /// allocating form used by differential tests and
    /// [`MemberLookup::entry`].
    pub fn entry(&self, c: ClassId, m: MemberId) -> Option<Entry> {
        self.packed(c, m).map(|e| {
            let set = &self.pool[e.set_off as usize..(e.set_off + e.set_len) as usize];
            if e.flags & FLAG_BLUE != 0 {
                Entry::Blue(set.iter().map(|&raw| dec_lv(raw)).collect())
            } else {
                Entry::Red {
                    abs: RedAbs {
                        ldc: ClassId::from_index(e.ldc as usize),
                        lv: dec_lv(e.lv),
                    },
                    via: (e.flags & FLAG_VIA != 0).then(|| ClassId::from_index(e.via as usize)),
                    shared: set.iter().map(|&raw| dec_lv(raw)).collect(),
                }
            }
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
        let (lo, hi) = if c.index() < self.class_count {
            (
                self.row_starts[c.index()] as usize,
                self.row_starts[c.index() + 1] as usize,
            )
        } else {
            (0, 0)
        };
        self.pairs[lo..hi]
            .iter()
            .map(|p| MemberId::from_index(p.member as usize))
    }

    /// Number of classes the index covers.
    pub fn class_count(&self) -> usize {
        self.class_count
    }

    /// Number of member names the index covers.
    pub fn member_name_count(&self) -> usize {
        self.member_count
    }

    /// Total `(class, member)` entries.
    pub fn entry_count(&self) -> usize {
        self.pairs.len()
    }

    /// Bytes of flat storage: row starts + pairs + probe directory
    /// (cells in their 64-byte blocks, plus hash metadata) + entry
    /// arena + pool.
    pub fn size_bytes(&self) -> usize {
        self.row_starts.len() * 4
            + self.pairs.len() * 8
            + self.directory.bytes()
            + self.entries.len() * 24
            + self.pool.len() * 4
    }

    /// Flat bytes per entry — the density figure `stats` reports.
    pub fn bytes_per_entry(&self) -> f64 {
        if self.pairs.is_empty() {
            0.0
        } else {
            self.size_bytes() as f64 / self.pairs.len() as f64
        }
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
/// use cpplookup_core::LookupEngine;
///
/// let mut serving = IndexedEngine::new(LookupEngine::new(fixtures::fig2()));
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
    /// Packs the engine's memo into the initial index, published as
    /// epoch 0, and keeps only the engine's hierarchy and options.
    pub fn new(engine: LookupEngine) -> Self {
        let handle = ServeHandle::serving(&engine);
        Self::with_handle(engine.chg().clone(), engine.options().lookup, handle)
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
    /// re-resolving it. The engine's memo is dropped.
    pub fn attach(engine: LookupEngine, handle: ServeHandle) -> Self {
        handle.republish();
        Self::with_handle(engine.chg().clone(), engine.options().lookup, handle)
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
    /// use cpplookup_core::LookupEngine;
    ///
    /// let mut serving = IndexedEngine::new(LookupEngine::new(fixtures::fig2()));
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

    #[test]
    fn from_engine_matches_from_table() {
        for g in graphs() {
            let by_table = DispatchIndex::from_table(LookupTable::build(&g));
            let engine = LookupEngine::new(g.clone());
            let by_engine = DispatchIndex::from_engine(&engine);
            for c in g.classes() {
                for m in g.member_ids() {
                    assert_eq!(by_table.entry(c, m), by_engine.entry(c, m));
                }
            }
            assert_eq!(by_table.entry_count(), by_engine.entry_count());
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
        let blues: Vec<&PackedEntry> = index
            .entries
            .iter()
            .filter(|e| e.flags & FLAG_BLUE != 0)
            .collect();
        assert!(!blues.is_empty());
        assert!(
            index.pool.len() * 4 <= index.entries.len() * 24,
            "pool should stay small relative to the arena"
        );
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
            let engine = LookupEngine::new(g.clone());
            let via_engine = DispatchIndex::from_backend(&engine);
            let via_identity = DispatchIndex::from_backend(by_table.clone());
            for c in g.classes() {
                for m in g.member_ids() {
                    assert_eq!(by_table.entry(c, m), via_table.entry(c, m));
                    assert_eq!(by_table.entry(c, m), via_engine.entry(c, m));
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
        let engine = LookupEngine::new(g.clone());
        assert_eq!(handle.publish(DispatchIndex::from_backend(&engine)), 1);
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
        let mut serving = IndexedEngine::attach(LookupEngine::new(g.clone()), handle);
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
        let mut serving = IndexedEngine::new(LookupEngine::new(g.clone()));
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
        let mut serving = IndexedEngine::new(LookupEngine::new(g));
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
        let mut serving = IndexedEngine::new(LookupEngine::new(g));
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
