//! The snapshot loader: validates a serialized snapshot once, then
//! answers lookups from the dispatch index it holds.
//!
//! A version-3 file's INDEX section holds a
//! [`DispatchIndex`]'s own byte columns. Loading is read + whole-file
//! checksum + one O(n) structural pass over names, topology and index;
//! the index then serves from the loaded buffer itself, so promoting a
//! loaded snapshot to a serving index is a reference-count bump and no
//! entry is ever decoded. Names are sliced straight from the buffer;
//! the hierarchy is only rebuilt on demand
//! ([`to_chg`](SnapshotTable::to_chg)). Version-1 and -2 files decode
//! their TABLE section entry by entry into the same in-memory index
//! (see `legacy`).

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cpplookup_chg::fxmap::FxHashMap;
use cpplookup_chg::{
    Access, Chg, ChgBuilder, ClassId, Inheritance, MemberDecl, MemberId, MemberKind,
    Path as ChgPath,
};
use cpplookup_core::{
    obs, DispatchIndex, Entry, LookupEngine, LookupOptions, LookupOutcome, LookupTable,
    MemberLookup, StaticRule,
};

use crate::error::SnapshotError;
use crate::format::{
    checksum64, section_align, section_name, u32_at, Reader, DIR_ENTRY_LEN, ENDIAN_TAG, HEADER_LEN,
    INDEX_HEADER_LEN, MAGIC, MIN_VERSION, SECTION_CHG, SECTION_INDEX, SECTION_MPH, SECTION_NAMES,
    SECTION_TABLE, TRAILER_LEN, VERSION,
};
use crate::legacy;

/// Byte range of one section within the snapshot buffer.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Section {
    pub(crate) offset: usize,
    pub(crate) len: usize,
}

impl Section {
    pub(crate) fn slice<'a>(&self, data: &'a [u8]) -> &'a [u8] {
        &data[self.offset..self.offset + self.len]
    }
}

/// Where the validated NAMES section keeps its two name tables.
#[derive(Clone, Copy, Debug)]
struct NameTables {
    class_count: usize,
    member_count: usize,
    /// Absolute offset of the class-name end-offset table.
    class_ends_at: usize,
    /// Absolute offset of the member-name end-offset table.
    member_ends_at: usize,
    /// Absolute offset of the class-name blob.
    class_blob_at: usize,
    /// Absolute offset of the member-name blob.
    member_blob_at: usize,
}

/// A validated, loaded snapshot serving [`MemberLookup`] queries from
/// its dispatch index.
///
/// Construction runs the full integrity pipeline — header, endianness,
/// per-section and whole-file checksums, and a structural walk of every
/// record — so the query path afterwards cannot fail: corrupt input is
/// rejected up front with a [`SnapshotError`], never served.
///
/// # Examples
///
/// ```
/// use cpplookup_chg::fixtures;
/// use cpplookup_snapshot::{Snapshot, SnapshotTable};
///
/// let g = fixtures::fig2();
/// let table = SnapshotTable::from_bytes(Snapshot::compile(&g).into_bytes())?;
/// let e = table.class_by_name("E").unwrap();
/// let m = table.member_by_name("m").unwrap();
/// assert_eq!(table.lookup(e, m).resolved_class(), table.class_by_name("D"));
/// # Ok::<(), cpplookup_snapshot::SnapshotError>(())
/// ```
pub struct SnapshotTable {
    /// The file's bytes, shared with a version-3 file's index.
    data: Arc<Vec<u8>>,
    version: u16,
    chg: Section,
    names: NameTables,
    statics: StaticRule,
    /// The table: borrowed from `data` (version 3) or decoded from the
    /// TABLE section at load (versions 1 and 2).
    index: DispatchIndex,
}

impl SnapshotTable {
    /// Reads and validates the snapshot at `path`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] if the file cannot be read, otherwise any
    /// validation error of [`from_bytes`](SnapshotTable::from_bytes).
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        let path = path.as_ref();
        let start = Instant::now();
        let data = std::fs::read(path).map_err(|e| SnapshotError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Self::from_bytes_timed(data, start)
    }

    /// Validates `data` as a snapshot and takes ownership of it.
    ///
    /// # Errors
    ///
    /// A structured [`SnapshotError`] for any truncated, corrupt, or
    /// version-skewed input. This function never panics on untrusted
    /// bytes.
    pub fn from_bytes(data: Vec<u8>) -> Result<Self, SnapshotError> {
        Self::from_bytes_timed(data, Instant::now())
    }

    fn from_bytes_timed(data: Vec<u8>, start: Instant) -> Result<Self, SnapshotError> {
        let loaded = Self::validate(data)?;
        let elapsed = start.elapsed().as_nanos() as u64;
        obs::snapshot_loaded(loaded.data.len() as u64, elapsed);
        obs::index_built(
            "snapshot",
            loaded.index.entry_count() as u64,
            loaded.index.size_bytes() as u64,
            elapsed,
        );
        Ok(loaded)
    }

    fn validate(data: Vec<u8>) -> Result<Self, SnapshotError> {
        // Header.
        if data.len() < HEADER_LEN + TRAILER_LEN {
            return Err(SnapshotError::Truncated {
                context: "header",
                needed: HEADER_LEN + TRAILER_LEN,
                available: data.len(),
            });
        }
        let mut header = Reader::new(&data[..HEADER_LEN], "header");
        if header.bytes(8)? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = header.u16()?;
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: VERSION,
            });
        }
        let endian = header.u16()?;
        if endian != ENDIAN_TAG {
            return Err(SnapshotError::BadEndianness { found: endian });
        }
        if header.u32()? != 0 {
            return Err(SnapshotError::malformed("reserved header field is nonzero"));
        }
        let expected_ids: &[u32] = match version {
            1 => &[SECTION_NAMES, SECTION_CHG, SECTION_TABLE],
            2 => &[SECTION_NAMES, SECTION_CHG, SECTION_TABLE, SECTION_MPH],
            _ => &[SECTION_NAMES, SECTION_CHG, SECTION_INDEX],
        };
        let section_count = header.u32()? as usize;
        if section_count != expected_ids.len() {
            return Err(SnapshotError::malformed(format!(
                "version-{version} snapshots have exactly {} sections, found {section_count}",
                expected_ids.len()
            )));
        }
        if header.u32()? != 0 {
            return Err(SnapshotError::malformed("reserved header field is nonzero"));
        }
        let total = header.u64()?;
        if total != data.len() as u64 {
            return Err(SnapshotError::Truncated {
                context: "file body",
                needed: usize::try_from(total).unwrap_or(usize::MAX),
                available: data.len(),
            });
        }

        // Whole-file checksum: catches damage anywhere, including inside
        // the directory and the per-section checksums themselves. This
        // is the only checksum pass on the happy path — the per-section
        // sums are covered by it byte-for-byte, so re-verifying them
        // here would double the cost of every load for no extra
        // detection power. They are recomputed only on mismatch, to
        // name the damaged region.
        let body = &data[..data.len() - TRAILER_LEN];
        let recorded = u64::from_le_bytes(
            data[data.len() - TRAILER_LEN..]
                .try_into()
                .expect("8 bytes"),
        );
        let actual = checksum64(body);
        if recorded != actual {
            return Err(Self::localize_damage(&data, recorded, actual));
        }

        // Section directory.
        let align = section_align(version);
        let dir_end = HEADER_LEN + section_count * DIR_ENTRY_LEN;
        if data.len() < dir_end + TRAILER_LEN {
            return Err(SnapshotError::Truncated {
                context: "directory",
                needed: dir_end + TRAILER_LEN,
                available: data.len(),
            });
        }
        let mut sections = Vec::with_capacity(section_count);
        let mut cursor = dir_end;
        for (i, &expected_id) in expected_ids.iter().enumerate() {
            let at = HEADER_LEN + i * DIR_ENTRY_LEN;
            let mut r = Reader::new(&data[at..at + DIR_ENTRY_LEN], "directory");
            let id = r.u32()?;
            if id != expected_id {
                return Err(SnapshotError::malformed(format!(
                    "directory slot {i} holds section id {id}, expected {expected_id}"
                )));
            }
            let offset = usize::try_from(r.u64()?)
                .map_err(|_| SnapshotError::malformed("section offset overflows usize"))?;
            let len = usize::try_from(r.u64()?)
                .map_err(|_| SnapshotError::malformed("section length overflows usize"))?;
            // The stored per-section checksum is covered by the
            // already-verified whole-file checksum, so it is exactly
            // what the writer wrote; no need to re-hash the section.
            let _stored_checksum = r.u64()?;
            if !offset.is_multiple_of(align) {
                return Err(SnapshotError::Misaligned {
                    section: section_name(id),
                    offset,
                    align,
                });
            }
            if offset < cursor || offset - cursor >= align {
                return Err(SnapshotError::malformed(format!(
                    "section {} at offset {offset} overlaps or strays from the previous section \
                     ending at {cursor}",
                    section_name(id)
                )));
            }
            if data[cursor..offset].iter().any(|&b| b != 0) {
                return Err(SnapshotError::malformed("nonzero inter-section padding"));
            }
            let end = offset
                .checked_add(len)
                .ok_or_else(|| SnapshotError::malformed("section end overflows usize"))?;
            if end > data.len() - TRAILER_LEN {
                return Err(SnapshotError::Truncated {
                    context: section_name(id),
                    needed: end + TRAILER_LEN,
                    available: data.len(),
                });
            }
            sections.push(Section { offset, len });
            cursor = end;
        }
        if data[cursor..data.len() - TRAILER_LEN]
            .iter()
            .any(|&b| b != 0)
        {
            return Err(SnapshotError::malformed("nonzero trailing padding"));
        }

        let names = validate_names(&data, sections[0])?;
        validate_chg(&data, sections[1], &names)?;
        let data = Arc::new(data);
        let (statics, index) = if version >= 3 {
            load_index(&data, sections[2])?
        } else {
            legacy::decode_index(
                &data,
                sections[2],
                sections.get(3).copied(),
                names.class_count,
                names.member_count,
            )?
        };
        if index.class_count() != names.class_count
            || index.member_name_count() > names.member_count
        {
            return Err(SnapshotError::malformed(format!(
                "the index covers {} classes and {} member names, the names section {} and {}",
                index.class_count(),
                index.member_name_count(),
                names.class_count,
                names.member_count
            )));
        }
        Ok(SnapshotTable {
            data,
            version,
            chg: sections[1],
            names,
            statics,
            index,
        })
    }

    /// The whole-file checksum failed. Best effort, recompute the
    /// per-section checksums from a bounds-guarded read of the
    /// directory so the error names *which* region is damaged; fall
    /// back to a whole-file mismatch when the directory itself is
    /// unreadable or every section checks out (damage in the header,
    /// directory, or padding).
    fn localize_damage(data: &[u8], expected: u64, actual: u64) -> SnapshotError {
        fn damaged_section(data: &[u8]) -> Option<SnapshotError> {
            let limit = data.len().checked_sub(TRAILER_LEN)?;
            // The header's section count is unverified here (the file
            // checksum already failed); clamp it to the largest count
            // any readable version writes before trusting the walk.
            let count = (u32_at(data, 16)? as usize).min(4);
            for i in 0..count {
                let at = HEADER_LEN + i * DIR_ENTRY_LEN;
                let mut r = Reader::new(data.get(at..at + DIR_ENTRY_LEN)?, "directory");
                let id = r.u32().ok()?;
                let offset = usize::try_from(r.u64().ok()?).ok()?;
                let len = usize::try_from(r.u64().ok()?).ok()?;
                let stored = r.u64().ok()?;
                let end = offset.checked_add(len)?;
                if end > limit {
                    return None;
                }
                let got = checksum64(&data[offset..end]);
                if got != stored {
                    return Some(SnapshotError::ChecksumMismatch {
                        region: section_name(id),
                        expected: stored,
                        actual: got,
                    });
                }
            }
            None
        }
        damaged_section(data).unwrap_or(SnapshotError::ChecksumMismatch {
            region: "file",
            expected,
            actual,
        })
    }

    /// The format version of the file this table was loaded from.
    pub fn version(&self) -> u16 {
        self.version
    }

    /// Number of classes in the snapshot.
    pub fn class_count(&self) -> usize {
        self.names.class_count
    }

    /// Number of interned member names.
    pub fn member_name_count(&self) -> usize {
        self.names.member_count
    }

    /// Number of resolved `(class, member)` entries.
    pub fn entry_count(&self) -> usize {
        self.index.entry_count()
    }

    /// Total serialized size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.data.len()
    }

    /// The raw, validated snapshot image the table serves from — the
    /// exact bytes of the file it was loaded from, so a server can
    /// re-materialize the snapshot (e.g. as a compaction checkpoint)
    /// even after the original file is gone.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// The lookup options the table was compiled with.
    pub fn options(&self) -> LookupOptions {
        LookupOptions {
            statics: self.statics,
        }
    }

    /// The name of class `c`, if `c` is in range — sliced straight from
    /// the buffer.
    pub fn class_name(&self, c: ClassId) -> Option<&str> {
        let n = &self.names;
        name_at(
            &self.data,
            n.class_ends_at,
            n.class_count,
            n.class_blob_at,
            c.index(),
        )
    }

    /// The name of member `m`, if in range.
    pub fn member_name(&self, m: MemberId) -> Option<&str> {
        let n = &self.names;
        name_at(
            &self.data,
            n.member_ends_at,
            n.member_count,
            n.member_blob_at,
            m.index(),
        )
    }

    /// Finds a class by name (linear scan of the name table).
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        (0..self.names.class_count)
            .map(ClassId::from_index)
            .find(|&c| self.class_name(c) == Some(name))
    }

    /// Finds a member name (linear scan of the name table).
    pub fn member_by_name(&self, name: &str) -> Option<MemberId> {
        (0..self.names.member_count)
            .map(MemberId::from_index)
            .find(|&m| self.member_name(m) == Some(name))
    }

    /// The table entry for `(c, m)`, or `None` when `m ∉ Members[c]`,
    /// reconstructed from the index.
    pub fn entry(&self, c: ClassId, m: MemberId) -> Option<Entry> {
        self.index.entry(c, m)
    }

    /// `lookup(c, m)` answered from the index.
    pub fn lookup(&self, c: ClassId, m: MemberId) -> LookupOutcome {
        self.index.lookup_ref(c, m).to_outcome()
    }

    /// Iterates every `(class, member, entry)` triple, class by class
    /// and by ascending member id — the bulk-export path that seeds a
    /// [`LookupTable`].
    pub fn entries(&self) -> impl Iterator<Item = (ClassId, MemberId, Entry)> + '_ {
        self.index.entries()
    }

    /// Rebuilds the full [`Chg`] from the topology section — for
    /// clients that need graph structure (path recovery, oracle
    /// differential checks, engine edits), not for serving lookups.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] if the decoded topology violates a
    /// [`ChgBuilder`] invariant (cannot happen for writer-produced
    /// snapshots that passed validation).
    pub fn to_chg(&self) -> Result<Chg, SnapshotError> {
        let mut b = ChgBuilder::new();
        for i in 0..self.names.class_count {
            let name = self
                .class_name(ClassId::from_index(i))
                .ok_or_else(|| SnapshotError::malformed("class name table inconsistent"))?
                .to_owned();
            b.class(&name);
        }
        for i in 0..self.names.member_count {
            let name = self
                .member_name(MemberId::from_index(i))
                .ok_or_else(|| SnapshotError::malformed("member name table inconsistent"))?
                .to_owned();
            b.intern_member_name(&name);
        }
        let bytes = self.chg.slice(&self.data);
        let mut r = Reader::new(bytes, "chg");
        let class_count = r.varint_count("chg class", self.names.class_count)?;
        let _edges = r.varint()?;
        for _ in 0..class_count {
            let c = ClassId::from_index(r.varint_count("class id", self.names.class_count - 1)?);
            let bases = r.varint_count("base", r.remaining())?;
            for _ in 0..bases {
                let base =
                    ClassId::from_index(r.varint_count("base id", self.names.class_count - 1)?);
                let flags = r.u8()?;
                let inheritance = if flags & 1 == 1 {
                    Inheritance::Virtual
                } else {
                    Inheritance::NonVirtual
                };
                let access = decode_access(flags >> 1 & 0b11)?;
                b.derive_with_access(c, base, inheritance, access)
                    .map_err(|e| SnapshotError::malformed(e.to_string()))?;
            }
            let members = r.varint_count("declared member", r.remaining())?;
            for _ in 0..members {
                let m =
                    MemberId::from_index(r.varint_count("member id", self.names.member_count - 1)?);
                let flags = r.u8()?;
                let kind = decode_kind(flags & 0b111)?;
                let access = decode_access(flags >> 3 & 0b11)?;
                let via_using = if flags >> 5 & 1 == 1 {
                    Some(ClassId::from_index(
                        r.varint_count("using origin", self.names.class_count - 1)?,
                    ))
                } else {
                    None
                };
                let name = self
                    .member_name(m)
                    .ok_or_else(|| SnapshotError::malformed("member name table inconsistent"))?
                    .to_owned();
                let decl = MemberDecl {
                    kind,
                    access,
                    via_using,
                };
                let declared = b
                    .member_with(c, &name, decl)
                    .map_err(|e| SnapshotError::malformed(e.to_string()))?;
                if declared != m {
                    return Err(SnapshotError::malformed(format!(
                        "member {name} re-interned to a different id"
                    )));
                }
            }
        }
        b.finish()
            .map_err(|e| SnapshotError::malformed(e.to_string()))
    }

    /// Materializes a [`LookupEngine`] whose table is the snapshot's:
    /// the hierarchy is rebuilt with [`to_chg`](SnapshotTable::to_chg)
    /// and every entry is seeded into the engine's table without running
    /// the build (see [`LookupEngine::from_table`]). Serving paths do
    /// not need it — they hand the snapshot's own index to
    /// [`IndexedEngine::with_handle`](cpplookup_core::IndexedEngine::with_handle)
    /// — and it stays for the benchmark's edit ladder, which edits the
    /// engine's table bare.
    ///
    /// # Errors
    ///
    /// Any error of [`to_chg`](SnapshotTable::to_chg).
    pub fn warm_engine(&self) -> Result<LookupEngine, SnapshotError> {
        let chg = self.to_chg()?;
        let mut rows = vec![FxHashMap::default(); chg.class_count()];
        for (c, m, e) in self.entries() {
            rows[c.index()].insert(m, e);
        }
        let table = LookupTable::from_parts(self.options(), rows);
        Ok(LookupEngine::from_table(chg, table))
    }

    /// The serving index: for a version-3 file, the file's own index
    /// columns, shared rather than copied — cloning it is a
    /// reference-count bump. The serving configuration for
    /// snapshot-backed deployments (`batch --snapshot` in the
    /// CLI, every tenant of the server farm).
    ///
    /// Prefer the backend-generic
    /// [`DispatchIndex::from_backend`](cpplookup_core::DispatchIndex::from_backend)
    /// in new code; this remains as the snapshot-specific delegate
    /// behind `&SnapshotTable`'s
    /// [`IntoDispatchIndex`](cpplookup_core::IntoDispatchIndex) impl.
    pub fn dispatch_index(&self) -> DispatchIndex {
        self.index.clone()
    }

    /// The index every query of this table is answered from.
    pub fn index(&self) -> &DispatchIndex {
        &self.index
    }

    /// Recovers the winning definition path like
    /// [`LookupTable::resolve_path`](cpplookup_core::LookupTable::resolve_path),
    /// walking red `via` parent pointers of the index's entries.
    pub fn resolve_path(&self, chg: &Chg, c: ClassId, m: MemberId) -> Option<ChgPath> {
        let mut rev = vec![c];
        let mut cur = c;
        loop {
            match self.entry(cur, m)? {
                Entry::Red { via: Some(x), .. } => {
                    rev.push(x);
                    cur = x;
                }
                Entry::Red { via: None, .. } => break,
                Entry::Blue(_) => return None,
            }
        }
        rev.reverse();
        ChgPath::new(chg, rev).ok()
    }
}

impl cpplookup_core::IntoDispatchIndex for &SnapshotTable {
    fn into_dispatch_index(self) -> DispatchIndex {
        self.dispatch_index()
    }
}

impl std::fmt::Debug for SnapshotTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SnapshotTable {{ version: {}, classes: {}, members: {}, entries: {}, {} bytes }}",
            self.version,
            self.names.class_count,
            self.names.member_count,
            self.index.entry_count(),
            self.data.len()
        )
    }
}

impl MemberLookup for SnapshotTable {
    fn lookup(&mut self, c: ClassId, m: MemberId) -> LookupOutcome {
        SnapshotTable::lookup(self, c, m)
    }

    fn entry(&mut self, c: ClassId, m: MemberId) -> Option<Entry> {
        SnapshotTable::entry(self, c, m)
    }

    fn resolve_path(&mut self, chg: &Chg, c: ClassId, m: MemberId) -> Option<ChgPath> {
        SnapshotTable::resolve_path(self, chg, c, m)
    }
}

/// Name `i` of the table whose cumulative end offsets start at
/// `ends_at` and whose blob starts at `blob_at`, if `i < count`.
fn name_at(data: &[u8], ends_at: usize, count: usize, blob_at: usize, i: usize) -> Option<&str> {
    if i >= count {
        return None;
    }
    let start = if i == 0 {
        0
    } else {
        u32_at(data, ends_at + 4 * (i - 1))? as usize
    };
    let end = u32_at(data, ends_at + 4 * i)? as usize;
    std::str::from_utf8(data.get(blob_at + start..blob_at + end)?).ok()
}

/// Decodes the NAMES section header and checks every name slice.
fn validate_names(data: &[u8], s: Section) -> Result<NameTables, SnapshotError> {
    let bytes = s.slice(data);
    let mut r = Reader::new(bytes, "names");
    let class_count = r.u32()? as usize;
    let member_count = r.u32()? as usize;
    let tables_len = 8usize
        .checked_add(4 * class_count)
        .and_then(|n| n.checked_add(4 * member_count))
        .ok_or_else(|| SnapshotError::malformed("name offset tables overflow"))?;
    if s.len < tables_len {
        return Err(SnapshotError::Truncated {
            context: "names offset tables",
            needed: tables_len,
            available: s.len,
        });
    }
    let class_ends_at = s.offset + 8;
    let member_ends_at = class_ends_at + 4 * class_count;
    let class_blob_at = member_ends_at + 4 * member_count;

    let class_blob_len = if class_count == 0 {
        0
    } else {
        u32_at(data, class_ends_at + 4 * (class_count - 1)).expect("offset table range-checked")
            as usize
    };
    let member_blob_len = if member_count == 0 {
        0
    } else {
        u32_at(data, member_ends_at + 4 * (member_count - 1)).expect("offset table range-checked")
            as usize
    };
    let member_blob_at = class_blob_at + class_blob_len;
    if tables_len + class_blob_len + member_blob_len != s.len {
        return Err(SnapshotError::malformed(format!(
            "names section is {} bytes but its contents describe {}",
            s.len,
            tables_len + class_blob_len + member_blob_len
        )));
    }
    let check = |ends_at: usize, count: usize, blob_at: usize, blob_len: usize, what: &str| {
        let mut prev = 0usize;
        for i in 0..count {
            let end = u32_at(data, ends_at + 4 * i).expect("range-checked") as usize;
            if end < prev || end > blob_len {
                return Err(SnapshotError::malformed(format!(
                    "{what} name {i} has invalid bounds {prev}..{end} (blob is {blob_len})"
                )));
            }
            let slice = &data[blob_at + prev..blob_at + end];
            if std::str::from_utf8(slice).is_err() {
                return Err(SnapshotError::malformed(format!(
                    "{what} name {i} is not valid UTF-8"
                )));
            }
            prev = end;
        }
        Ok(())
    };
    check(
        class_ends_at,
        class_count,
        class_blob_at,
        class_blob_len,
        "class",
    )?;
    check(
        member_ends_at,
        member_count,
        member_blob_at,
        member_blob_len,
        "member",
    )?;
    Ok(NameTables {
        class_count,
        member_count,
        class_ends_at,
        member_ends_at,
        class_blob_at,
        member_blob_at,
    })
}

/// Structurally walks the CHG section: every class appears exactly
/// once, in an order where its bases precede it (which also proves
/// acyclicity), and every id is in range. Does *not* build a
/// [`Chg`] — that is [`to_chg`](SnapshotTable::to_chg)'s job, and
/// keeping it out of the load path is what makes loads cheap.
fn validate_chg(data: &[u8], s: Section, names: &NameTables) -> Result<(), SnapshotError> {
    let bytes = s.slice(data);
    let mut r = Reader::new(bytes, "chg");
    let class_count = r.varint_count("chg class", names.class_count)?;
    if class_count != names.class_count {
        return Err(SnapshotError::malformed(format!(
            "chg section declares {class_count} classes, names section {}",
            names.class_count
        )));
    }
    let edge_count = r.varint_count("chg edge", bytes.len())?;
    let mut seen = vec![false; class_count];
    let mut edges = 0usize;
    for _ in 0..class_count {
        let c = r.varint_count("class id", usize::MAX)?;
        if c >= class_count {
            return Err(SnapshotError::malformed(format!(
                "class id {c} out of range ({class_count} classes)"
            )));
        }
        if seen[c] {
            return Err(SnapshotError::malformed(format!(
                "class id {c} appears twice in the chg section"
            )));
        }
        seen[c] = true;
        let bases = r.varint_count("base", r.remaining())?;
        for _ in 0..bases {
            let base = r.varint_count("base id", usize::MAX)?;
            if base >= class_count || !seen[base] {
                return Err(SnapshotError::malformed(format!(
                    "base id {base} of class {c} is out of range or not topo-ordered"
                )));
            }
            if base == c {
                return Err(SnapshotError::malformed(format!(
                    "class {c} inherits itself"
                )));
            }
            let flags = r.u8()?;
            if flags >> 3 != 0 || flags >> 1 & 0b11 > 2 {
                return Err(SnapshotError::malformed(format!(
                    "base edge of class {c} has invalid flags {flags:#04x}"
                )));
            }
            edges += 1;
        }
        let members = r.varint_count("declared member", r.remaining())?;
        for _ in 0..members {
            let m = r.varint_count("member id", usize::MAX)?;
            if m >= names.member_count {
                return Err(SnapshotError::malformed(format!(
                    "member id {m} out of range ({} member names)",
                    names.member_count
                )));
            }
            let flags = r.u8()?;
            if flags >> 6 != 0 || flags & 0b111 > 5 || flags >> 3 & 0b11 > 2 {
                return Err(SnapshotError::malformed(format!(
                    "member declaration in class {c} has invalid flags {flags:#04x}"
                )));
            }
            if flags >> 5 & 1 == 1 {
                let origin = r.varint_count("using origin", usize::MAX)?;
                if origin >= class_count {
                    return Err(SnapshotError::malformed(format!(
                        "using-declaration origin {origin} out of range"
                    )));
                }
            }
        }
    }
    if edges != edge_count {
        return Err(SnapshotError::malformed(format!(
            "chg section declares {edge_count} edges but encodes {edges}"
        )));
    }
    if !r.is_at_end() {
        return Err(SnapshotError::malformed(format!(
            "{} trailing bytes after the last chg record",
            r.remaining()
        )));
    }
    Ok(())
}

/// Serves the version-3 INDEX section in place: the fixed header's
/// statics rule, then the dispatch index's columns, which share `data`.
fn load_index(
    data: &Arc<Vec<u8>>,
    s: Section,
) -> Result<(StaticRule, DispatchIndex), SnapshotError> {
    let mut r = Reader::new(s.slice(data), "index header");
    let statics = decode_statics(r.u32()?)?;
    if r.bytes(INDEX_HEADER_LEN - 4)?.iter().any(|&b| b != 0) {
        return Err(SnapshotError::malformed("nonzero index header padding"));
    }
    let index = DispatchIndex::from_columns(
        Arc::clone(data),
        s.offset + INDEX_HEADER_LEN,
        s.len - INDEX_HEADER_LEN,
    )
    .map_err(|why| SnapshotError::malformed(format!("index section: {why}")))?;
    Ok((statics, index))
}

/// The statics rule field of the index (or, before version 3, table)
/// section.
pub(crate) fn decode_statics(raw: u32) -> Result<StaticRule, SnapshotError> {
    match raw {
        0 => Ok(StaticRule::Cpp),
        1 => Ok(StaticRule::Ignore),
        other => Err(SnapshotError::malformed(format!(
            "unknown statics rule {other}"
        ))),
    }
}

fn decode_access(raw: u8) -> Result<Access, SnapshotError> {
    match raw {
        0 => Ok(Access::Private),
        1 => Ok(Access::Protected),
        2 => Ok(Access::Public),
        other => Err(SnapshotError::malformed(format!(
            "invalid access encoding {other}"
        ))),
    }
}

fn decode_kind(raw: u8) -> Result<MemberKind, SnapshotError> {
    match raw {
        0 => Ok(MemberKind::Data),
        1 => Ok(MemberKind::Function),
        2 => Ok(MemberKind::StaticData),
        3 => Ok(MemberKind::StaticFunction),
        4 => Ok(MemberKind::TypeName),
        5 => Ok(MemberKind::Enumerator),
        other => Err(SnapshotError::malformed(format!(
            "invalid member kind encoding {other}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::LEGACY_SECTION_ALIGN;
    use crate::Snapshot;
    use cpplookup_chg::fixtures;
    use cpplookup_hiergen::{families, random_hierarchy, RandomConfig};

    /// `tests/corpus/chain_12.snap` as the version-1 and version-2
    /// writers produced it.
    const CHAIN_12_V1: &[u8] = include_bytes!("../../../tests/fixtures/chain_12_v1.snap");
    const CHAIN_12_V2: &[u8] = include_bytes!("../../../tests/fixtures/chain_12_v2.snap");

    /// Version-2 corpus snapshots whose tables are rich where chain_12's
    /// is bare: blue entries with witness sets (both), and
    /// `leastVirtual` classes in red entries and in sets (the random
    /// one), so every branch of the legacy entry decoder runs.
    fn legacy_v2() -> [(&'static [u8], Chg); 3] {
        [
            (CHAIN_12_V2, families::chain(12, None)),
            (
                include_bytes!("../../../tests/fixtures/stacked_diamonds_3_nonvirtual_v2.snap"),
                families::stacked_diamonds(3, Inheritance::NonVirtual),
            ),
            (
                include_bytes!("../../../tests/fixtures/random_realistic_20_7_v2.snap"),
                random_hierarchy(&RandomConfig::realistic(20, 7)),
            ),
        ]
    }

    fn roundtrip(g: &Chg) -> SnapshotTable {
        SnapshotTable::from_bytes(Snapshot::compile(g).into_bytes()).expect("roundtrip")
    }

    /// `(offset, len)` of directory slot `i`.
    fn section_at(bytes: &[u8], i: usize) -> (usize, usize) {
        let at = HEADER_LEN + i * DIR_ENTRY_LEN;
        let word = |o: usize| u64::from_le_bytes(bytes[at + o..at + o + 8].try_into().unwrap());
        (word(4) as usize, word(12) as usize)
    }

    /// Re-stamps every section checksum and the whole-file checksum, so
    /// a targeted structural check — not the integrity sweep — is what
    /// a patched image trips.
    fn reseal(bytes: &mut [u8]) {
        let count = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
        for i in 0..count {
            let (offset, len) = section_at(bytes, i);
            let sum = checksum64(&bytes[offset..offset + len]);
            let at = HEADER_LEN + i * DIR_ENTRY_LEN + 20;
            bytes[at..at + 8].copy_from_slice(&sum.to_le_bytes());
        }
        let n = bytes.len();
        let sum = checksum64(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
    }

    fn expect_every_pair(snap: &SnapshotTable, g: &Chg) {
        let table = LookupTable::build(g);
        for c in g.classes() {
            for m in g.member_ids() {
                assert_eq!(snap.entry(c, m), table.entry(c, m).cloned());
                assert_eq!(snap.lookup(c, m), table.lookup(c, m));
            }
        }
    }

    #[test]
    fn v3_snapshots_serve_from_the_loaded_buffer() {
        let g = fixtures::fig3();
        let snap = roundtrip(&g);
        assert_eq!(snap.version(), VERSION);
        // The index's columns lie inside the file bytes: borrowed, not
        // copied, and every clone shares them.
        let file = snap.as_bytes().as_ptr_range();
        let index = snap.dispatch_index();
        assert!(file.contains(&index.columns().as_ptr()));
        assert_eq!(index.columns().as_ptr(), snap.index().columns().as_ptr());
        expect_every_pair(&snap, &g);
    }

    /// Re-encodes a version-2 snapshot as the version-1 layout the
    /// original writer produced: same first three sections, no MPH
    /// section, version field 1. Byte-exact per the v1 spec, so it
    /// exercises the loader's backward-compat path end to end.
    fn downgrade_to_v1(bytes: &[u8]) -> Vec<u8> {
        assert_eq!(u16::from_le_bytes([bytes[8], bytes[9]]), 2, "a v2 image");
        let payloads: Vec<(u32, &[u8])> = (0..3)
            .map(|i| {
                let at = HEADER_LEN + i * DIR_ENTRY_LEN;
                let id = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
                let (offset, len) = section_at(bytes, i);
                (id, &bytes[offset..offset + len])
            })
            .collect();
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&1u16.to_le_bytes());
        out.extend_from_slice(&ENDIAN_TAG.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&3u32.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes());
        out.resize(HEADER_LEN + 3 * DIR_ENTRY_LEN, 0);
        for (i, (id, payload)) in payloads.into_iter().enumerate() {
            out.resize(out.len().next_multiple_of(LEGACY_SECTION_ALIGN), 0);
            let at = HEADER_LEN + i * DIR_ENTRY_LEN;
            let offset = out.len() as u64;
            out[at..at + 4].copy_from_slice(&id.to_le_bytes());
            out[at + 4..at + 12].copy_from_slice(&offset.to_le_bytes());
            out[at + 12..at + 20].copy_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(payload);
        }
        let total = (out.len() + 8) as u64;
        out[24..32].copy_from_slice(&total.to_le_bytes());
        out.extend_from_slice(&[0; 8]);
        reseal(&mut out);
        out
    }

    #[test]
    fn v2_snapshots_serve_through_the_shipped_mph() {
        for (bytes, g) in legacy_v2() {
            let snap = SnapshotTable::from_bytes(bytes.to_vec()).expect("v2 stays loadable");
            assert_eq!(snap.version(), 2);
            expect_every_pair(&snap, &g);
        }
    }

    #[test]
    fn v1_snapshots_build_their_mph_at_load() {
        let downgraded = legacy_v2().map(|(bytes, g)| (downgrade_to_v1(bytes), g));
        let fixture = (CHAIN_12_V1.to_vec(), families::chain(12, None));
        for (bytes, g) in downgraded.into_iter().chain([fixture]) {
            let snap = SnapshotTable::from_bytes(bytes).expect("v1 stays loadable");
            assert_eq!(snap.version(), 1);
            expect_every_pair(&snap, &g);
            // The index built at load answers every pair, and dead ids
            // past both axes, exactly as a fresh compile's index does.
            let fresh = roundtrip(&g);
            let (v1_index, v3_index) = (snap.dispatch_index(), fresh.dispatch_index());
            for ci in 0..g.class_count() + 3 {
                for mi in 0..g.member_name_count() + 3 {
                    let (c, m) = (ClassId::from_index(ci), MemberId::from_index(mi));
                    assert_eq!(v1_index.lookup_ref(c, m), v3_index.lookup_ref(c, m));
                    assert_eq!(v1_index.entry(c, m), v3_index.entry(c, m));
                }
            }
        }
    }

    #[test]
    fn the_v1_downgrade_of_the_v2_fixture_is_the_v1_fixture() {
        assert_eq!(downgrade_to_v1(CHAIN_12_V2), CHAIN_12_V1);
    }

    #[test]
    fn corrupted_mph_sections_are_rejected() {
        let [_, _, (good, g)] = legacy_v2();
        let (at, _) = section_at(good, 3);
        let patched = |offset: usize, patch: &[u8]| {
            let mut bytes = good.to_vec();
            bytes[offset..offset + patch.len()].copy_from_slice(patch);
            reseal(&mut bytes);
            SnapshotTable::from_bytes(bytes)
        };
        let word = |o: usize| u32::from_le_bytes(good[o..o + 4].try_into().unwrap());

        // Key count disagreeing with the table section.
        let err = patched(at + 8, &(word(at + 8) + 1).to_le_bytes()).unwrap_err();
        assert!(err.to_string().contains("mph"), "{err}");

        // Bucket count disagreeing with the section length.
        let err = patched(at + 12, &(word(at + 12) * 2).to_le_bytes()).unwrap_err();
        assert!(err.to_string().contains("mph"), "{err}");

        // A displacement steering keys into a collision. A single
        // flipped displacement relocates that bucket's keys, which at
        // minimal load all but guarantees a collision; assert only that
        // the load never mis-serves (error, or a still-perfect hash).
        for bucket in 0..word(at + 12) as usize {
            let d = at + 16 + 4 * bucket;
            if let Ok(snap) = patched(d, &(word(d) ^ 1).to_le_bytes()) {
                expect_every_pair(&snap, &g);
            }
        }
    }

    #[test]
    fn roundtrip_preserves_every_entry_on_fixtures() {
        for g in [
            fixtures::fig1(),
            fixtures::fig2(),
            fixtures::fig3(),
            fixtures::fig9(),
            fixtures::static_diamond(),
            fixtures::static_override_mix(),
            fixtures::dominance_diamond(),
        ] {
            let snap = roundtrip(&g);
            assert_eq!(snap.class_count(), g.class_count());
            assert_eq!(snap.member_name_count(), g.member_name_count());
            for c in g.classes() {
                assert_eq!(snap.class_name(c), Some(g.class_name(c)));
            }
            expect_every_pair(&snap, &g);
        }
    }

    #[test]
    fn dispatch_index_matches_the_table() {
        let g = fixtures::fig9();
        let snap = roundtrip(&g);
        let index = snap.dispatch_index();
        let table = LookupTable::build(&g);
        assert_eq!(index.entry_count(), table.stats().entries);
        for c in g.classes() {
            for m in g.member_ids() {
                assert_eq!(index.entry(c, m), table.entry(c, m).cloned());
                assert_eq!(index.lookup_ref(c, m).to_outcome(), table.lookup(c, m));
            }
        }
    }

    #[test]
    fn to_chg_rebuilds_an_equivalent_hierarchy() {
        let g = fixtures::fig3();
        let snap = roundtrip(&g);
        let back = snap.to_chg().unwrap();
        assert_eq!(back.class_count(), g.class_count());
        assert_eq!(back.edge_count(), g.edge_count());
        assert_eq!(back.member_name_count(), g.member_name_count());
        for c in g.classes() {
            assert_eq!(back.class_name(c), g.class_name(c));
            assert_eq!(back.direct_bases(c), g.direct_bases(c));
            assert_eq!(back.declared_members(c), g.declared_members(c));
        }
        assert_eq!(back.topo_order(), g.topo_order());
        // And recompiling the rebuilt hierarchy is byte-identical.
        let again = Snapshot::compile(&back);
        assert_eq!(again.as_bytes(), Snapshot::compile(&g).as_bytes());
    }

    #[test]
    fn resolve_path_matches_table() {
        let g = fixtures::fig3();
        let t = LookupTable::build(&g);
        let snap = roundtrip(&g);
        let h = g.class_by_name("H").unwrap();
        let foo = g.member_by_name("foo").unwrap();
        let bar = g.member_by_name("bar").unwrap();
        assert_eq!(
            snap.resolve_path(&g, h, foo)
                .unwrap()
                .display(&g)
                .to_string(),
            t.resolve_path(&g, h, foo).unwrap().display(&g).to_string()
        );
        assert_eq!(snap.resolve_path(&g, h, bar), None);
    }

    /// A warmed engine attached to the handle serving the file's own
    /// index answers from that index, and edits it like a rebuild.
    #[test]
    fn warm_engine_serves_cache_hits() {
        use cpplookup_core::{IndexedEngine, ServeHandle};

        let g = fixtures::fig9();
        let snap = roundtrip(&g);
        let engine = snap.warm_engine().unwrap();
        assert_eq!(engine.options(), snap.options());
        assert_eq!(engine.chg().class_count(), g.class_count());
        let mut serving = IndexedEngine::attach(engine, ServeHandle::serving(&snap));
        let e = serving.chg().class_by_name("E").unwrap();
        let m = serving.chg().member_by_name("m").unwrap();
        let published = serving.handle().load();
        assert_eq!(published.index().entry_count(), snap.entry_count());
        match published.index().lookup(e, m) {
            LookupOutcome::Resolved { class, .. } => assert_eq!(g.class_name(class), "C"),
            other => panic!("expected C::m, got {other:?}"),
        }
        // Declaring m in E: the refreshed index is the rebuilt table.
        serving
            .apply(&[cpplookup_chg::Edit::AddMember {
                class: e,
                name: "m".into(),
                decl: MemberDecl::public(MemberKind::Data),
            }])
            .unwrap();
        let rebuilt = LookupTable::build(serving.chg());
        let published = serving.handle().load();
        for c in serving.chg().classes() {
            for m in serving.chg().member_ids() {
                assert_eq!(published.index().entry(c, m).as_ref(), rebuilt.entry(c, m));
            }
        }
        assert_eq!(published.index().lookup(e, m).resolved_class(), Some(e));
    }

    #[test]
    fn entries_iterator_covers_the_whole_table() {
        let g = fixtures::fig3();
        let t = LookupTable::build(&g);
        let snap = roundtrip(&g);
        let mut count = 0usize;
        for (c, m, entry) in snap.entries() {
            assert_eq!(Some(&entry), t.entry(c, m));
            count += 1;
        }
        assert_eq!(count, t.stats().entries);
        assert_eq!(count, snap.entry_count());
    }

    #[test]
    fn by_name_queries() {
        let g = fixtures::fig2();
        let snap = roundtrip(&g);
        assert_eq!(snap.class_by_name("E"), g.class_by_name("E"));
        assert_eq!(snap.member_by_name("m"), g.member_by_name("m"));
        assert_eq!(snap.class_by_name("nope"), None);
        assert_eq!(snap.member_by_name("nope"), None);
        assert_eq!(snap.class_name(ClassId::from_index(999)), None);
        assert_eq!(snap.member_name(MemberId::from_index(999)), None);
    }

    #[test]
    fn empty_hierarchy_roundtrips() {
        let g = ChgBuilder::new().finish().unwrap();
        let snap = roundtrip(&g);
        assert_eq!(snap.class_count(), 0);
        assert_eq!(snap.entry_count(), 0);
        assert!(snap.to_chg().unwrap().class_count() == 0);
        assert_eq!(snap.entries().count(), 0);
    }

    #[test]
    fn truncation_always_errors() {
        let g = fixtures::fig3();
        let bytes = Snapshot::compile(&g).into_bytes();
        for len in 0..bytes.len() {
            let err = SnapshotTable::from_bytes(bytes[..len].to_vec());
            assert!(
                err.is_err(),
                "accepting a {len}-byte prefix of {}",
                bytes.len()
            );
        }
    }

    #[test]
    fn every_single_byte_flip_errors() {
        let g = fixtures::fig1();
        let bytes = Snapshot::compile(&g).into_bytes();
        for i in 0..bytes.len() {
            let mut copy = bytes.clone();
            copy[i] ^= 0x41;
            assert!(
                SnapshotTable::from_bytes(copy).is_err(),
                "accepted a flip at byte {i}"
            );
        }
    }

    #[test]
    fn version_skew_is_reported() {
        let g = fixtures::fig1();
        let mut bytes = Snapshot::compile(&g).into_bytes();
        bytes[8] = 9; // version field
                      // Re-seal the checksums so the version check is what fires.
        let n = bytes.len();
        let sum = checksum64(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        match SnapshotTable::from_bytes(bytes) {
            Err(SnapshotError::UnsupportedVersion {
                found: 9,
                supported,
            }) => {
                assert_eq!(supported, VERSION)
            }
            other => panic!("expected version skew, got {other:?}"),
        }
    }

    #[test]
    fn options_roundtrip() {
        let g = fixtures::static_diamond();
        let snap = SnapshotTable::from_bytes(
            Snapshot::compile_with(
                &g,
                LookupOptions {
                    statics: StaticRule::Ignore,
                },
            )
            .into_bytes(),
        )
        .unwrap();
        assert_eq!(snap.options().statics, StaticRule::Ignore);
        let d = snap.class_by_name("D").unwrap();
        let s = snap.member_by_name("s").unwrap();
        // Definition 9 semantics: the static diamond is ambiguous.
        assert!(matches!(snap.lookup(d, s), LookupOutcome::Ambiguous { .. }));
        assert!(format!("{snap:?}").contains("entries"));
    }

    /// A version-3 image of a fixture plus where its index columns sit,
    /// for patching one invariant at a time.
    struct Image {
        bytes: Vec<u8>,
        /// Absolute offset of the index's column header.
        base: usize,
        class_count: usize,
        member_count: usize,
        entry_count: usize,
        pool_len: usize,
    }

    impl Image {
        /// `fixtures::fig1`, which has red and blue entries.
        fn fig1() -> Image {
            Image::of(&fixtures::fig1())
        }

        fn of(g: &Chg) -> Image {
            let bytes = Snapshot::compile(g).into_bytes();
            let base = section_at(&bytes, 2).0 + INDEX_HEADER_LEN;
            let word =
                |i: usize| u32::from_le_bytes(bytes[base + 4 * i..][..4].try_into().unwrap());
            let (class_count, member_count, entry_count, pool_len) = (
                word(0) as usize,
                word(1) as usize,
                word(2) as usize,
                word(3) as usize,
            );
            Image {
                bytes,
                base,
                class_count,
                member_count,
                entry_count,
                pool_len,
            }
        }

        fn rows(&self) -> usize {
            self.base + 32
        }

        fn pairs(&self) -> usize {
            self.rows() + (4 * (self.class_count + 1)).next_multiple_of(16)
        }

        fn entries(&self) -> usize {
            self.pairs() + (8 * self.entry_count).next_multiple_of(16)
        }

        fn cells(&self) -> usize {
            self.entries() + (24 * self.entry_count).next_multiple_of(16)
        }

        fn word(&self, at: usize) -> u32 {
            u32::from_le_bytes(self.bytes[at..at + 4].try_into().unwrap())
        }

        fn set(&mut self, at: usize, value: u32) -> &mut Self {
            self.bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
            self
        }

        /// The first entry slot whose flags satisfy `blue`.
        fn slot(&self, blue: bool) -> usize {
            (0..self.entry_count)
                .find(|&s| (self.word(self.entries() + 24 * s) & 1 == 1) == blue)
                .expect("fig1 has red and blue entries")
        }

        /// The first cell whose blue bit equals `blue`.
        fn cell(&self, blue: bool) -> usize {
            (0..self.entry_count)
                .find(|&s| (self.word(self.cells() + 16 * s + 12) >> 31 == 1) == blue)
                .expect("fig1 has red and blue cells")
        }

        /// Reseals the image and expects `Malformed` naming `needle`.
        fn rejects(&mut self, needle: &str) {
            reseal(&mut self.bytes);
            match SnapshotTable::from_bytes(self.bytes.clone()) {
                Err(SnapshotError::Malformed { reason }) => {
                    assert!(reason.contains(needle), "{reason:?} lacks {needle:?}")
                }
                other => panic!("expected Malformed ({needle}), got {other:?}"),
            }
        }
    }

    #[test]
    fn the_image_helper_reads_a_valid_index() {
        let mut image = Image::fig1();
        reseal(&mut image.bytes);
        let snap = SnapshotTable::from_bytes(image.bytes.clone()).unwrap();
        assert_eq!(snap.entry_count(), image.entry_count);
        assert!(image.pool_len > 0);
    }

    #[test]
    fn validator_rejects_non_monotone_row_starts() {
        let mut image = Image::fig1();
        let last = image.entry_count as u32;
        let at = image.rows() + 4;
        image.set(at, last).set(at + 4, 0).rejects("row_starts");
    }

    #[test]
    fn validator_rejects_a_pair_slot_out_of_range() {
        let mut image = Image::fig1();
        let at = image.pairs() + 4;
        let past = image.entry_count as u32;
        image.set(at, past).rejects("slot");
    }

    #[test]
    fn validator_rejects_a_member_out_of_range() {
        let mut image = Image::fig1();
        let at = image.pairs();
        let past = image.member_count as u32;
        image.set(at, past).rejects("out of range");
    }

    #[test]
    fn validator_rejects_an_unsorted_row() {
        let mut image = Image::of(&fixtures::fig3());
        // The first row with two pairs gets its members swapped.
        let class = (0..image.class_count)
            .find(|&c| image.word(image.rows() + 4 * c + 4) - image.word(image.rows() + 4 * c) >= 2)
            .expect("fig3 has a class with two members");
        let at = image.pairs() + 8 * image.word(image.rows() + 4 * class) as usize;
        let (m0, m1) = (image.word(at), image.word(at + 8));
        image.set(at, m1).set(at + 8, m0).rejects("sorted");
    }

    #[test]
    fn validator_rejects_a_blue_cell_past_the_pool() {
        let mut image = Image::fig1();
        let at = image.cells() + 16 * image.cell(true) + 12;
        let past = (1 << 31) | (image.pool_len as u32 + 1);
        image.set(at, past).rejects("verdict out of range");
    }

    #[test]
    fn validator_rejects_a_cell_away_from_its_mph_slot() {
        let mut image = Image::fig1();
        let (a, b) = (image.cells(), image.cells() + 16);
        let (first, second) = (
            image.bytes[a..a + 16].to_vec(),
            image.bytes[b..b + 16].to_vec(),
        );
        image.bytes[a..a + 16].copy_from_slice(&second);
        image.bytes[b..b + 16].copy_from_slice(&first);
        image.rejects("mph slot");
    }

    #[test]
    fn validator_rejects_a_cell_that_disagrees_with_its_entry() {
        let mut image = Image::fig1();
        let at = image.cells() + 16 * image.cell(false) + 8;
        let other = (image.word(at) + 1) % image.class_count as u32;
        image.set(at, other).rejects("disagree");
    }

    #[test]
    fn validator_rejects_a_least_virtual_above_the_class_count() {
        let mut image = Image::fig1();
        let at = image.entries() + 24 * image.slot(false) + 8;
        let above = image.class_count as u32 + 1;
        image.set(at, above).rejects("field out of range");
    }

    #[test]
    fn validator_rejects_a_pool_word_above_the_class_count() {
        let mut image = Image::fig1();
        let pool = image.cells() + 16 * image.entry_count;
        let above = image.class_count as u32 + 1;
        image.set(pool, above).rejects("pool word");
    }

    #[test]
    fn validator_rejects_an_entry_set_past_the_pool() {
        let mut image = Image::fig1();
        let at = image.entries() + 24 * image.slot(true) + 20;
        let past = image.pool_len as u32 + 1;
        image.set(at, past).rejects("field out of range");
    }

    #[test]
    fn validator_rejects_unknown_entry_flags() {
        let mut image = Image::fig1();
        let at = image.entries();
        image.set(at, 7).rejects("field out of range");
    }

    #[test]
    fn validator_rejects_a_header_that_misdescribes_the_section() {
        let mut image = Image::fig1();
        let at = image.base + 8;
        let more = image.entry_count as u32 + 1;
        image.set(at, more).rejects("describes");
        let mut image = Image::fig1();
        let at = image.base + 24;
        image.set(at, 3).rejects("power of two");
        let mut image = Image::fig1();
        let at = image.base + 28;
        image.set(at, 1).rejects("reserved");
    }

    #[test]
    fn validator_rejects_nonzero_padding_and_statics() {
        let mut image = Image::fig1();
        let at = image.base - INDEX_HEADER_LEN;
        image.set(at, 2).rejects("statics");
        let mut image = Image::fig1();
        let at = image.base - 4;
        image.set(at, 1).rejects("padding");
        // fig1's row_starts column ends mid-line: its padding is checked.
        let mut image = Image::fig1();
        assert_ne!((4 * (image.class_count + 1)) % 16, 0);
        let at = image.rows() + 4 * (image.class_count + 1);
        image.set(at, 1).rejects("padding");
    }
}
