//! The snapshot loader: validates a serialized snapshot once, then
//! answers lookups by decoding records straight out of the byte buffer.
//!
//! [`SnapshotTable`] deliberately does **not** materialize the lookup
//! table it serves: after the one-pass structural validation of
//! [`from_bytes`](SnapshotTable::from_bytes), the only owned state is
//! the byte buffer itself plus a handful of section offsets. A query
//! binary-searches the fixed-width `(member, offset)` index of its
//! class row and decodes one varint entry payload on demand — the
//! "mmap-friendly" discipline: every fixed-width table in the format is
//! naturally aligned at its (8-byte aligned, alignment-*checked*)
//! section start, so the same decode logic works over a borrowed
//! memory-mapped region byte-for-byte.

use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use cpplookup_chg::{
    Access, Chg, ChgBuilder, ClassId, Inheritance, MemberDecl, MemberId, MemberKind,
    Path as ChgPath,
};
use cpplookup_core::mph::MphFunction;
use cpplookup_core::{
    obs, EngineOptions, Entry, LeastVirtual, LookupEngine, LookupOptions, LookupOutcome,
    MemberLookup, RedAbs, StaticRule,
};

use crate::error::SnapshotError;
use crate::format::{
    checksum64, section_name, u32_at, Reader, DIR_ENTRY_LEN, ENDIAN_TAG, HEADER_LEN, MAGIC,
    MIN_VERSION, SECTION_ALIGN, SECTION_CHG, SECTION_MPH, SECTION_NAMES, SECTION_TABLE,
    TRAILER_LEN, VERSION,
};

/// Byte range of one section within the snapshot buffer.
#[derive(Clone, Copy, Debug)]
struct Section {
    offset: usize,
    len: usize,
}

impl Section {
    fn slice<'a>(&self, data: &'a [u8]) -> &'a [u8] {
        &data[self.offset..self.offset + self.len]
    }
}

/// A validated, loaded snapshot serving [`MemberLookup`] queries
/// directly from its byte buffer.
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
    data: Vec<u8>,
    names: Section,
    chg: Section,
    table: Section,
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
    statics: StaticRule,
    /// Absolute offset of the `(class_count + 1)` row-start table.
    row_starts_at: usize,
    /// Absolute offset of the `(member, payload offset)` entry index.
    entry_index_at: usize,
    entry_count: usize,
    /// Absolute offset of the entry payload blob.
    payload_at: usize,
    payload_len: usize,
    /// Decoded-entry memo: the last `(payload offset, entry)` pair a
    /// query decoded, so repeated hits on the same record skip the
    /// `Reader` construction and varint walk entirely. Accessed with
    /// `try_lock` only — a contended memo falls back to a plain decode
    /// rather than ever blocking a reader.
    decoded: Mutex<Option<(u32, Entry)>>,
    /// The validated minimal perfect hash of the MPH section (version
    /// ≥ 2). `None` for version-1 snapshots, whose index builds its
    /// hash at load.
    mph: Option<MphFunction>,
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
        obs::snapshot_loaded(loaded.data.len() as u64, start.elapsed().as_nanos() as u64);
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
        // Version 2 appended the MPH section; earlier files carry
        // exactly the original three.
        let expected_ids: &[u32] = if version >= 2 {
            &[SECTION_NAMES, SECTION_CHG, SECTION_TABLE, SECTION_MPH]
        } else {
            &[SECTION_NAMES, SECTION_CHG, SECTION_TABLE]
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
        let dir_end = HEADER_LEN + section_count * DIR_ENTRY_LEN;
        if data.len() < dir_end + TRAILER_LEN {
            return Err(SnapshotError::Truncated {
                context: "directory",
                needed: dir_end + TRAILER_LEN,
                available: data.len(),
            });
        }
        let mut sections = vec![Section { offset: 0, len: 0 }; section_count];
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
            let checksum = r.u64()?;
            if offset % SECTION_ALIGN != 0 {
                return Err(SnapshotError::Misaligned {
                    section: section_name(id),
                    offset,
                    align: SECTION_ALIGN,
                });
            }
            if offset < cursor || offset - cursor >= SECTION_ALIGN {
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
            // The stored per-section checksum is itself covered by the
            // already-verified whole-file checksum, so it is exactly
            // what the writer wrote; no need to re-hash the section.
            let _stored_checksum = checksum;
            sections[i] = Section { offset, len };
            cursor = end;
        }
        if data[cursor..data.len() - TRAILER_LEN]
            .iter()
            .any(|&b| b != 0)
        {
            return Err(SnapshotError::malformed("nonzero trailing padding"));
        }

        let mut loaded = SnapshotTable {
            data,
            names: sections[0],
            chg: sections[1],
            table: sections[2],
            class_count: 0,
            member_count: 0,
            class_ends_at: 0,
            member_ends_at: 0,
            class_blob_at: 0,
            member_blob_at: 0,
            statics: StaticRule::Cpp,
            row_starts_at: 0,
            entry_index_at: 0,
            entry_count: 0,
            payload_at: 0,
            payload_len: 0,
            decoded: Mutex::new(None),
            mph: None,
        };
        loaded.validate_names()?;
        loaded.validate_chg()?;
        loaded.validate_table()?;
        // The MPH is checked against the table's live keys, so it must
        // come last, once `entry_count` and the row index are trusted.
        if let Some(&s) = sections.get(3) {
            loaded.validate_mph(s)?;
        }
        Ok(loaded)
    }

    /// Decodes and cross-checks the MPH section (version ≥ 2): the
    /// serialized function must cover exactly the table's entry count
    /// and map the live `(class, member)` keys — replayed from the
    /// already-validated entry index — onto `0..n` as a bijection.
    /// Anything less falls back to `Malformed`, never to a directory
    /// that could mis-serve probes.
    fn validate_mph(&mut self, s: Section) -> Result<(), SnapshotError> {
        let bytes = s.slice(&self.data);
        let mut r = Reader::new(bytes, "mph");
        let seed = r.u64()?;
        let n = r.u32()?;
        let nbuckets = r.u32()? as usize;
        if n as usize != self.entry_count {
            return Err(SnapshotError::malformed(format!(
                "mph section covers {n} keys, table section has {} entries",
                self.entry_count
            )));
        }
        let described = 4usize
            .checked_mul(nbuckets)
            .and_then(|d| d.checked_add(16))
            .ok_or_else(|| SnapshotError::malformed("mph displacement table overflows"))?;
        if described != s.len {
            return Err(SnapshotError::malformed(format!(
                "mph section is {} bytes but its header describes {described}",
                s.len
            )));
        }
        let mut disp = Vec::with_capacity(nbuckets);
        for _ in 0..nbuckets {
            disp.push(r.u32()?);
        }
        let mph = MphFunction::from_parts(seed, n, disp).ok_or_else(|| {
            SnapshotError::malformed(format!(
                "mph bucket count {nbuckets} is not a nonzero power of two"
            ))
        })?;
        let mut seen = vec![false; self.entry_count];
        for c in 0..self.class_count {
            for i in self.row_start(c)..self.row_start(c + 1) {
                let (m, _) = self.index_record(i);
                let key = c as u64 | u64::from(m) << 32;
                let p = mph.position(key);
                if p >= self.entry_count || seen[p] {
                    return Err(SnapshotError::malformed(format!(
                        "mph is not a bijection over the live keys: \
                         key (class {c}, member {m}) collides at slot {p}"
                    )));
                }
                seen[p] = true;
            }
        }
        self.mph = Some(mph);
        Ok(())
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

    /// Decodes the NAMES section header and checks every name slice.
    fn validate_names(&mut self) -> Result<(), SnapshotError> {
        let s = self.names;
        let bytes = s.slice(&self.data);
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
        self.class_count = class_count;
        self.member_count = member_count;
        self.class_ends_at = s.offset + 8;
        self.member_ends_at = self.class_ends_at + 4 * class_count;
        self.class_blob_at = self.member_ends_at + 4 * member_count;

        let class_blob_len = if class_count == 0 {
            0
        } else {
            u32_at(&self.data, self.class_ends_at + 4 * (class_count - 1))
                .expect("offset table range-checked") as usize
        };
        let member_blob_len = if member_count == 0 {
            0
        } else {
            u32_at(&self.data, self.member_ends_at + 4 * (member_count - 1))
                .expect("offset table range-checked") as usize
        };
        self.member_blob_at = self.class_blob_at + class_blob_len;
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
                let end = u32_at(&self.data, ends_at + 4 * i).expect("range-checked") as usize;
                if end < prev || end > blob_len {
                    return Err(SnapshotError::malformed(format!(
                        "{what} name {i} has invalid bounds {prev}..{end} (blob is {blob_len})"
                    )));
                }
                let slice = &self.data[blob_at + prev..blob_at + end];
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
            self.class_ends_at,
            class_count,
            self.class_blob_at,
            class_blob_len,
            "class",
        )?;
        check(
            self.member_ends_at,
            member_count,
            self.member_blob_at,
            member_blob_len,
            "member",
        )
    }

    /// Structurally walks the CHG section: every class appears exactly
    /// once, in an order where its bases precede it (which also proves
    /// acyclicity), and every id is in range. Does *not* build a
    /// [`Chg`] — that is [`to_chg`](SnapshotTable::to_chg)'s job, and
    /// keeping it out of the load path is what makes loads cheap.
    fn validate_chg(&self) -> Result<(), SnapshotError> {
        let bytes = self.chg.slice(&self.data);
        let mut r = Reader::new(bytes, "chg");
        let class_count = r.varint_count("chg class", self.class_count)?;
        if class_count != self.class_count {
            return Err(SnapshotError::malformed(format!(
                "chg section declares {class_count} classes, names section {}",
                self.class_count
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
                if m >= self.member_count {
                    return Err(SnapshotError::malformed(format!(
                        "member id {m} out of range ({} member names)",
                        self.member_count
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

    /// Validates the TABLE section: index bounds, sortedness, and a full
    /// decode of every entry payload, so the query path cannot fail.
    fn validate_table(&mut self) -> Result<(), SnapshotError> {
        let s = self.table;
        let bytes = s.slice(&self.data);
        let mut r = Reader::new(bytes, "table");
        let statics = r.u8()?;
        self.statics = match statics {
            0 => StaticRule::Cpp,
            1 => StaticRule::Ignore,
            other => {
                return Err(SnapshotError::malformed(format!(
                    "unknown statics rule {other}"
                )))
            }
        };
        if r.bytes(3)? != [0, 0, 0] {
            return Err(SnapshotError::malformed("nonzero table header padding"));
        }
        let class_count = r.u32()? as usize;
        if class_count != self.class_count {
            return Err(SnapshotError::malformed(format!(
                "table section declares {class_count} classes, names section {}",
                self.class_count
            )));
        }
        let entry_count = r.u32()? as usize;
        let payload_len = r.u32()? as usize;
        let fixed = 16usize
            .checked_add(4 * (class_count + 1))
            .and_then(|n| n.checked_add(8usize.checked_mul(entry_count)?))
            .ok_or_else(|| SnapshotError::malformed("table index overflows"))?;
        if fixed.checked_add(payload_len) != Some(s.len) {
            return Err(SnapshotError::malformed(format!(
                "table section is {} bytes but its header describes {}",
                s.len,
                fixed + payload_len
            )));
        }
        self.entry_count = entry_count;
        self.row_starts_at = s.offset + 16;
        self.entry_index_at = self.row_starts_at + 4 * (class_count + 1);
        self.payload_at = self.entry_index_at + 8 * entry_count;
        self.payload_len = payload_len;

        // Row bounds: monotone, covering [0, entry_count].
        let mut prev_start = 0usize;
        if self.row_start(0) != 0 {
            return Err(SnapshotError::malformed(
                "first table row does not start at 0",
            ));
        }
        for c in 0..=class_count {
            let start = self.row_start(c);
            if start < prev_start || start > entry_count {
                return Err(SnapshotError::malformed(format!(
                    "row start {start} of class {c} is out of order"
                )));
            }
            prev_start = start;
        }
        if prev_start != entry_count {
            return Err(SnapshotError::malformed(format!(
                "row starts end at {prev_start}, expected {entry_count}"
            )));
        }

        // Entry index, one pass: member ids strictly increasing within
        // each row, payload offsets strictly increasing globally, and a
        // full decode of every payload. Entries are written
        // contiguously starting at payload offset 0, so each decode
        // must end exactly where the next entry begins — which means an
        // entry's extent is only known once the *next* index record is
        // read; `pending_start` carries the deferred decode.
        let index = &self.data[self.entry_index_at..self.entry_index_at + 8 * entry_count];
        let payload = &self.data[self.payload_at..self.payload_at + payload_len];
        let mut records = index.chunks_exact(8);
        let mut pending_start: Option<usize> = None;
        for c in 0..class_count {
            let (lo, hi) = (self.row_start(c), self.row_start(c + 1));
            let mut prev_member: Option<u32> = None;
            for i in lo..hi {
                // Rows partition [0, entry_count), already validated, so
                // the record iterator advances in lockstep with `i`.
                let rec = records.next().expect("row starts sum to entry_count");
                let m = u32::from_le_bytes(rec[..4].try_into().expect("8-byte chunk"));
                let offset = u32::from_le_bytes(rec[4..].try_into().expect("8-byte chunk"));
                if m as usize >= self.member_count {
                    return Err(SnapshotError::malformed(format!(
                        "table entry for class {c} names member {m}, out of range"
                    )));
                }
                if prev_member.is_some_and(|p| p >= m) {
                    return Err(SnapshotError::malformed(format!(
                        "table row of class {c} is not sorted by member id"
                    )));
                }
                prev_member = Some(m);
                let offset = offset as usize;
                match pending_start {
                    Some(start) => {
                        if offset <= start || offset > payload_len {
                            return Err(SnapshotError::malformed(format!(
                                "entry {} payload bounds {start}..{offset} are invalid",
                                i - 1
                            )));
                        }
                        self.check_payload(payload, start, offset, i - 1)?;
                    }
                    None if offset != 0 => {
                        return Err(SnapshotError::malformed(format!(
                            "first entry payload starts at {offset}, expected 0"
                        )));
                    }
                    None => {}
                }
                pending_start = Some(offset);
            }
        }
        match pending_start {
            Some(start) => {
                if start >= payload_len {
                    return Err(SnapshotError::malformed(format!(
                        "entry {} payload bounds {start}..{payload_len} are invalid",
                        entry_count - 1
                    )));
                }
                self.check_payload(payload, start, payload_len, entry_count - 1)?;
            }
            None if payload_len != 0 => {
                return Err(SnapshotError::malformed(format!(
                    "{payload_len} payload bytes but no table entries"
                )));
            }
            None => {}
        }
        Ok(())
    }

    /// Decodes one entry payload at `payload[start..end]` during
    /// validation, requiring the decode to consume it exactly. The
    /// happy path is a branch-lean slice walk ([`entry_bytes_ok`]
    /// (SnapshotTable::entry_bytes_ok)) — validation decodes every
    /// entry in the file, so this is the hottest loop of a cold load.
    /// Only when that walk rejects do we re-decode through the
    /// error-reporting [`Reader`] to say precisely what is wrong.
    fn check_payload(
        &self,
        payload: &[u8],
        start: usize,
        end: usize,
        i: usize,
    ) -> Result<(), SnapshotError> {
        let payload = &payload[start..end];
        if self.entry_bytes_ok(payload) {
            return Ok(());
        }
        let mut er = Reader::new(payload, "table entry");
        self.check_entry_from(&mut er)?;
        Err(SnapshotError::malformed(format!(
            "entry {i} leaves {} undecoded payload bytes",
            er.remaining()
        )))
    }

    /// Whether `p` is exactly one well-formed entry encoding, with every
    /// id in range. Must accept precisely the inputs
    /// [`check_entry_from`](SnapshotTable::check_entry_from) accepts
    /// (the slow path relies on this to reconstruct the error).
    #[inline]
    fn entry_bytes_ok(&self, p: &[u8]) -> bool {
        /// LEB128 with the same 10-byte/overflow rules as
        /// [`Reader::varint`], minus the error bookkeeping. Nearly every
        /// varint in a real snapshot is a single byte, so that case is
        /// kept branch-lean and the continuation loop out of line.
        #[inline]
        fn varint(p: &[u8], pos: &mut usize) -> Option<u64> {
            let b = *p.get(*pos)?;
            *pos += 1;
            if b & 0x80 == 0 {
                return Some(u64::from(b));
            }
            varint_tail(p, pos, u64::from(b & 0x7F))
        }
        fn varint_tail(p: &[u8], pos: &mut usize, mut value: u64) -> Option<u64> {
            for i in 1..10 {
                let b = *p.get(*pos)?;
                *pos += 1;
                let data = u64::from(b & 0x7F);
                if i == 9 && data > 1 {
                    return None;
                }
                value |= data << (i * 7);
                if b & 0x80 == 0 {
                    return Some(value);
                }
            }
            None
        }
        let cc = self.class_count as u64;
        let lv_ok = |raw: u64| raw == 0 || raw - 1 < cc;
        let mut pos = 1usize;
        let Some(&tag) = p.first() else { return false };
        let witnesses_from = match tag {
            0 => {
                let Some(ldc) = varint(p, &mut pos) else {
                    return false;
                };
                if ldc >= cc {
                    return false;
                }
                let Some(lv) = varint(p, &mut pos) else {
                    return false;
                };
                if !lv_ok(lv) {
                    return false;
                }
                let Some(via) = varint(p, &mut pos) else {
                    return false;
                };
                if via > cc {
                    return false;
                }
                pos
            }
            1 => pos,
            _ => return false,
        };
        let mut pos = witnesses_from;
        let Some(count) = varint(p, &mut pos) else {
            return false;
        };
        if count > (p.len() - pos) as u64 {
            return false;
        }
        for _ in 0..count {
            let Some(lv) = varint(p, &mut pos) else {
                return false;
            };
            if !lv_ok(lv) {
                return false;
            }
        }
        pos == p.len()
    }

    #[inline]
    fn row_start(&self, c: usize) -> usize {
        u32_at(&self.data, self.row_starts_at + 4 * c).expect("row table range-checked") as usize
    }

    #[inline]
    fn index_record(&self, i: usize) -> (u32, u32) {
        let at = self.entry_index_at + 8 * i;
        (
            u32_at(&self.data, at).expect("entry index range-checked"),
            u32_at(&self.data, at + 4).expect("entry index range-checked"),
        )
    }

    fn decode_lv(&self, raw: u64) -> Result<LeastVirtual, SnapshotError> {
        if raw == 0 {
            return Ok(LeastVirtual::Omega);
        }
        let c = raw - 1;
        if c >= self.class_count as u64 {
            return Err(SnapshotError::malformed(format!(
                "leastVirtual class id {c} out of range"
            )));
        }
        Ok(LeastVirtual::Class(ClassId::from_index(c as usize)))
    }

    /// Range-checks a leastVirtual encoding without building the value.
    fn check_lv(&self, raw: u64) -> Result<(), SnapshotError> {
        self.decode_lv(raw).map(|_| ())
    }

    /// Validation-only twin of [`decode_entry_from`]: performs exactly
    /// the checks the decoder performs, byte for byte, but never
    /// allocates the witness vectors. Whole-file validation decodes
    /// every entry once, so skipping a million tiny `Vec`s here is what
    /// keeps the cold-load path allocation-free and fast.
    fn check_entry_from(&self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        match r.u8()? {
            0 => {
                let ldc = r.varint()?;
                if ldc >= self.class_count as u64 {
                    return Err(SnapshotError::malformed(format!(
                        "red ldc {ldc} out of range"
                    )));
                }
                self.check_lv(r.varint()?)?;
                match r.varint()? {
                    0 => {}
                    raw => {
                        let c = raw - 1;
                        if c >= self.class_count as u64 {
                            return Err(SnapshotError::malformed(format!(
                                "red via class {c} out of range"
                            )));
                        }
                    }
                }
                let count = r.varint_count("shared lv", r.remaining())?;
                for _ in 0..count {
                    self.check_lv(r.varint()?)?;
                }
                Ok(())
            }
            1 => {
                let count = r.varint_count("blue lv", r.remaining())?;
                for _ in 0..count {
                    self.check_lv(r.varint()?)?;
                }
                Ok(())
            }
            tag => Err(SnapshotError::malformed(format!("unknown entry tag {tag}"))),
        }
    }

    fn decode_entry_from(&self, r: &mut Reader<'_>) -> Result<Entry, SnapshotError> {
        match r.u8()? {
            0 => {
                let ldc = r.varint()?;
                if ldc >= self.class_count as u64 {
                    return Err(SnapshotError::malformed(format!(
                        "red ldc {ldc} out of range"
                    )));
                }
                let lv = self.decode_lv(r.varint()?)?;
                let via = match r.varint()? {
                    0 => None,
                    raw => {
                        let c = raw - 1;
                        if c >= self.class_count as u64 {
                            return Err(SnapshotError::malformed(format!(
                                "red via class {c} out of range"
                            )));
                        }
                        Some(ClassId::from_index(c as usize))
                    }
                };
                let count = r.varint_count("shared lv", r.remaining())?;
                let mut shared = Vec::with_capacity(count);
                for _ in 0..count {
                    shared.push(self.decode_lv(r.varint()?)?);
                }
                Ok(Entry::Red {
                    abs: RedAbs {
                        ldc: ClassId::from_index(ldc as usize),
                        lv,
                    },
                    via,
                    shared,
                })
            }
            1 => {
                let count = r.varint_count("blue lv", r.remaining())?;
                let mut set = Vec::with_capacity(count);
                for _ in 0..count {
                    set.push(self.decode_lv(r.varint()?)?);
                }
                Ok(Entry::Blue(set))
            }
            tag => Err(SnapshotError::malformed(format!("unknown entry tag {tag}"))),
        }
    }

    /// Number of classes in the snapshot.
    pub fn class_count(&self) -> usize {
        self.class_count
    }

    /// Number of interned member names.
    pub fn member_name_count(&self) -> usize {
        self.member_count
    }

    /// Number of resolved `(class, member)` entries.
    pub fn entry_count(&self) -> usize {
        self.entry_count
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
        let i = c.index();
        if i >= self.class_count {
            return None;
        }
        let start = if i == 0 {
            0
        } else {
            u32_at(&self.data, self.class_ends_at + 4 * (i - 1))? as usize
        };
        let end = u32_at(&self.data, self.class_ends_at + 4 * i)? as usize;
        std::str::from_utf8(&self.data[self.class_blob_at + start..self.class_blob_at + end]).ok()
    }

    /// The name of member `m`, if in range.
    pub fn member_name(&self, m: MemberId) -> Option<&str> {
        let i = m.index();
        if i >= self.member_count {
            return None;
        }
        let start = if i == 0 {
            0
        } else {
            u32_at(&self.data, self.member_ends_at + 4 * (i - 1))? as usize
        };
        let end = u32_at(&self.data, self.member_ends_at + 4 * i)? as usize;
        std::str::from_utf8(&self.data[self.member_blob_at + start..self.member_blob_at + end]).ok()
    }

    /// Finds a class by name (linear scan of the name table).
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        (0..self.class_count)
            .map(ClassId::from_index)
            .find(|&c| self.class_name(c) == Some(name))
    }

    /// Finds a member name (linear scan of the name table).
    pub fn member_by_name(&self, name: &str) -> Option<MemberId> {
        (0..self.member_count)
            .map(MemberId::from_index)
            .find(|&m| self.member_name(m) == Some(name))
    }

    /// Decodes the payload record at `offset`, bypassing the memo.
    fn decode_at(&self, offset: u32) -> Option<Entry> {
        let payload =
            &self.data[self.payload_at + offset as usize..self.payload_at + self.payload_len];
        let mut r = Reader::new(payload, "table entry");
        // Validation decoded this exact record at load time, so failure
        // is unreachable; fail closed regardless.
        self.decode_entry_from(&mut r).ok()
    }

    /// The decoded table entry for `(c, m)`, or `None` when
    /// `m ∉ Members[c]`. Binary-searches the class row's fixed-width
    /// index; a repeated hit on the record the previous query decoded is
    /// answered from the decoded-entry memo without re-walking the
    /// varint payload.
    pub fn entry(&self, c: ClassId, m: MemberId) -> Option<Entry> {
        if c.index() >= self.class_count {
            return None;
        }
        let (lo, hi) = (self.row_start(c.index()), self.row_start(c.index() + 1));
        let target = m.index() as u32;
        let (mut lo, mut hi) = (lo, hi);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let (member, offset) = self.index_record(mid);
            match member.cmp(&target) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => {
                    // `try_lock`: a contended memo (another thread is
                    // mid-update) must never block the read path.
                    if let Ok(mut memo) = self.decoded.try_lock() {
                        if let Some((at, e)) = memo.as_ref() {
                            if *at == offset {
                                return Some(e.clone());
                            }
                        }
                        let e = self.decode_at(offset)?;
                        *memo = Some((offset, e.clone()));
                        return Some(e);
                    }
                    return self.decode_at(offset);
                }
            }
        }
        None
    }

    /// `lookup(c, m)` answered from the snapshot.
    pub fn lookup(&self, c: ClassId, m: MemberId) -> LookupOutcome {
        LookupOutcome::from_entry(self.entry(c, m).as_ref())
    }

    /// Iterates every `(class, member, entry)` triple, decoding lazily —
    /// the bulk-export path used to warm a [`LookupEngine`] cache.
    pub fn entries(&self) -> SnapshotEntries<'_> {
        SnapshotEntries {
            table: self,
            class: 0,
            record: 0,
        }
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
        for i in 0..self.class_count {
            let name = self
                .class_name(ClassId::from_index(i))
                .ok_or_else(|| SnapshotError::malformed("class name table inconsistent"))?
                .to_owned();
            b.class(&name);
        }
        for i in 0..self.member_count {
            let name = self
                .member_name(MemberId::from_index(i))
                .ok_or_else(|| SnapshotError::malformed("member name table inconsistent"))?
                .to_owned();
            b.intern_member_name(&name);
        }
        let bytes = self.chg.slice(&self.data);
        let mut r = Reader::new(bytes, "chg");
        let class_count = r.varint_count("chg class", self.class_count)?;
        let _edges = r.varint()?;
        for _ in 0..class_count {
            let c = ClassId::from_index(r.varint_count("class id", self.class_count - 1)?);
            let bases = r.varint_count("base", r.remaining())?;
            for _ in 0..bases {
                let base = ClassId::from_index(r.varint_count("base id", self.class_count - 1)?);
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
                let m = MemberId::from_index(r.varint_count("member id", self.member_count - 1)?);
                let flags = r.u8()?;
                let kind = decode_kind(flags & 0b111)?;
                let access = decode_access(flags >> 3 & 0b11)?;
                let via_using = if flags >> 5 & 1 == 1 {
                    Some(ClassId::from_index(
                        r.varint_count("using origin", self.class_count - 1)?,
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

    /// Materializes a [`LookupEngine`] whose memo is the snapshot's
    /// table: the hierarchy is rebuilt with
    /// [`to_chg`](SnapshotTable::to_chg) and every serialized entry is
    /// seeded into a *complete* (eager) engine without running the
    /// build. A snapshot holds the whole table, so a pair missing from
    /// the memo means "not visible": the engine serves every probe as a
    /// cache hit, never computes on demand, and recomputes an edit's
    /// dirty set eagerly with incremental invalidation.
    ///
    /// # Errors
    ///
    /// Any error of [`to_chg`](SnapshotTable::to_chg).
    pub fn warm_engine(&self) -> Result<LookupEngine, SnapshotError> {
        let chg = self.to_chg()?;
        let options = EngineOptions {
            lookup: self.options(),
            ..EngineOptions::default()
        };
        Ok(LookupEngine::with_entries(chg, options, self.entries()))
    }

    /// Pre-decodes the whole table into a flat
    /// [`DispatchIndex`](cpplookup_core::DispatchIndex): every varint
    /// payload is decoded exactly once here, and queries afterwards
    /// touch only the index's fixed-width arrays — the serving
    /// configuration for snapshot-backed deployments
    /// (`batch --snapshot --serve` in the CLI).
    ///
    /// Prefer the backend-generic
    /// [`DispatchIndex::from_backend`](cpplookup_core::DispatchIndex::from_backend)
    /// in new code; this remains as the snapshot-specific delegate
    /// behind `&SnapshotTable`'s
    /// [`IntoDispatchIndex`](cpplookup_core::IntoDispatchIndex) impl.
    pub fn dispatch_index(&self) -> cpplookup_core::DispatchIndex {
        let start = Instant::now();
        // Version ≥ 2 snapshots ship their probe directory's hash
        // pre-compiled: reuse it instead of re-running the displacement
        // search. Version-1 files build the hash here, so they serve
        // exactly like version-2 files at the price of one
        // displacement search per load.
        let index = cpplookup_core::DispatchIndex::from_entries(
            self.class_count,
            self.entries(),
            self.mph.clone(),
        );
        obs::index_built(
            "snapshot",
            index.entry_count() as u64,
            index.size_bytes() as u64,
            start.elapsed().as_nanos() as u64,
        );
        index
    }

    /// Recovers the winning definition path like
    /// [`LookupTable::resolve_path`](cpplookup_core::LookupTable::resolve_path),
    /// walking red `via` parent pointers decoded from the buffer.
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
    fn backend_label(&self) -> &'static str {
        "snapshot"
    }

    fn into_dispatch_index(self) -> cpplookup_core::DispatchIndex {
        self.dispatch_index()
    }
}

impl std::fmt::Debug for SnapshotTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SnapshotTable {{ classes: {}, members: {}, entries: {}, {} bytes }}",
            self.class_count,
            self.member_count,
            self.entry_count,
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

/// Iterator over every serialized `(class, member, entry)` triple. See
/// [`SnapshotTable::entries`].
pub struct SnapshotEntries<'a> {
    table: &'a SnapshotTable,
    class: usize,
    record: usize,
}

impl Iterator for SnapshotEntries<'_> {
    type Item = (ClassId, MemberId, Entry);

    fn next(&mut self) -> Option<Self::Item> {
        let t = self.table;
        while self.class < t.class_count {
            if self.record < t.row_start(self.class + 1) {
                let (m, offset) = t.index_record(self.record);
                self.record += 1;
                let c = ClassId::from_index(self.class);
                let m = MemberId::from_index(m as usize);
                // Validated at load time; the decode cannot miss here.
                // The record's payload offset is already in hand, so the
                // bulk walk skips both the row binary search and the
                // single-record memo.
                if let Some(entry) = t.decode_at(offset) {
                    return Some((c, m, entry));
                }
            } else {
                self.class += 1;
            }
        }
        None
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
    use crate::Snapshot;
    use cpplookup_chg::fixtures;
    use cpplookup_core::LookupTable;

    fn roundtrip(g: &Chg) -> SnapshotTable {
        SnapshotTable::from_bytes(Snapshot::compile(g).into_bytes()).expect("roundtrip")
    }

    /// Re-encodes a current (version-2) snapshot as the version-1
    /// layout the original writer produced: same first three sections,
    /// no MPH section, version field 1. Byte-exact per the v1 spec, so
    /// it exercises the loader's backward-compat path end to end.
    fn downgrade_to_v1(bytes: &[u8]) -> Vec<u8> {
        let mut payloads = Vec::new();
        for i in 0..3 {
            let at = HEADER_LEN + i * DIR_ENTRY_LEN;
            let id = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            let offset = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(bytes[at + 12..at + 20].try_into().unwrap()) as usize;
            payloads.push((id, bytes[offset..offset + len].to_vec()));
        }
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&1u16.to_le_bytes());
        out.extend_from_slice(&ENDIAN_TAG.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&3u32.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes());
        out.resize(HEADER_LEN + 3 * DIR_ENTRY_LEN, 0);
        let mut directory = Vec::new();
        for (id, payload) in &payloads {
            out.resize(out.len() + crate::format::padding_to_align(out.len()), 0);
            directory.push((
                *id,
                out.len() as u64,
                payload.len() as u64,
                checksum64(payload),
            ));
            out.extend_from_slice(payload);
        }
        for (i, (id, offset, len, sum)) in directory.iter().enumerate() {
            let at = HEADER_LEN + i * DIR_ENTRY_LEN;
            out[at..at + 4].copy_from_slice(&id.to_le_bytes());
            out[at + 4..at + 12].copy_from_slice(&offset.to_le_bytes());
            out[at + 12..at + 20].copy_from_slice(&len.to_le_bytes());
            out[at + 20..at + 28].copy_from_slice(&sum.to_le_bytes());
        }
        let total = (out.len() + 8) as u64;
        out[24..32].copy_from_slice(&total.to_le_bytes());
        let sum = checksum64(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Patches `bytes[at..at + patch.len()]`, then re-seals the MPH
    /// section checksum and the whole-file checksum so the targeted
    /// structural check — not the integrity sweep — is what fires.
    fn corrupt_mph_and_reseal(bytes: &mut [u8], at: usize, patch: &[u8]) {
        bytes[at..at + patch.len()].copy_from_slice(patch);
        let dir_at = HEADER_LEN + 3 * DIR_ENTRY_LEN;
        let offset =
            u64::from_le_bytes(bytes[dir_at + 4..dir_at + 12].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(bytes[dir_at + 12..dir_at + 20].try_into().unwrap()) as usize;
        let sum = checksum64(&bytes[offset..offset + len]);
        bytes[dir_at + 20..dir_at + 28].copy_from_slice(&sum.to_le_bytes());
        let n = bytes.len();
        let sum = checksum64(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
    }

    /// Absolute offset of the MPH section of a version-2 image.
    fn mph_section_at(bytes: &[u8]) -> usize {
        let dir_at = HEADER_LEN + 3 * DIR_ENTRY_LEN;
        u64::from_le_bytes(bytes[dir_at + 4..dir_at + 12].try_into().unwrap()) as usize
    }

    #[test]
    fn v2_snapshots_serve_through_the_shipped_mph() {
        let g = fixtures::fig3();
        let snap = roundtrip(&g);
        assert!(snap.mph.is_some(), "v2 load must decode the MPH section");
        let index = snap.dispatch_index();
        let table = LookupTable::build(&g);
        for c in g.classes() {
            for m in g.member_ids() {
                assert_eq!(index.lookup_ref(c, m).to_outcome(), table.lookup(c, m));
            }
        }
    }

    #[test]
    fn v1_snapshots_build_their_mph_at_load() {
        let g = fixtures::fig9();
        let v2 = Snapshot::compile(&g).into_bytes();
        let v1 = downgrade_to_v1(&v2);
        let snap = SnapshotTable::from_bytes(v1).expect("v1 snapshots must stay loadable");
        assert!(snap.mph.is_none());
        // Downgrading loses no data: every outcome matches the v2 load.
        let fresh = roundtrip(&g);
        for c in g.classes() {
            for m in g.member_ids() {
                assert_eq!(snap.entry(c, m), fresh.entry(c, m));
                assert_eq!(snap.lookup(c, m), fresh.lookup(c, m));
            }
        }
        // The index built at load answers every pair, and dead ids past
        // both axes, exactly as the index under the shipped hash does.
        let (v1_index, v2_index) = (snap.dispatch_index(), fresh.dispatch_index());
        for ci in 0..g.class_count() + 3 {
            for mi in 0..g.member_name_count() + 3 {
                let (c, m) = (ClassId::from_index(ci), MemberId::from_index(mi));
                assert_eq!(v1_index.lookup_ref(c, m), v2_index.lookup_ref(c, m));
                assert_eq!(v1_index.entry(c, m), v2_index.entry(c, m));
            }
        }
    }

    #[test]
    fn corrupted_mph_sections_are_rejected() {
        let g = fixtures::fig3();
        let good = Snapshot::compile(&g).into_bytes();
        let at = mph_section_at(&good);

        // Key count disagreeing with the table section.
        let mut skewed = good.clone();
        let n = u32::from_le_bytes(good[at + 8..at + 12].try_into().unwrap());
        corrupt_mph_and_reseal(&mut skewed, at + 8, &(n + 1).to_le_bytes());
        let err = SnapshotTable::from_bytes(skewed).unwrap_err();
        assert!(err.to_string().contains("mph"), "{err}");

        // Bucket count disagreeing with the section length.
        let mut resized = good.clone();
        let nb = u32::from_le_bytes(good[at + 12..at + 16].try_into().unwrap());
        corrupt_mph_and_reseal(&mut resized, at + 12, &(nb * 2).to_le_bytes());
        let err = SnapshotTable::from_bytes(resized).unwrap_err();
        assert!(err.to_string().contains("mph"), "{err}");

        // A displacement steering keys into a collision. A single
        // flipped displacement relocates that bucket's keys, which at
        // minimal load all but guarantees a collision; assert only that
        // the load never mis-serves (error, or a still-perfect hash).
        let mut bent = good.clone();
        let d = u32::from_le_bytes(good[at + 16..at + 20].try_into().unwrap());
        corrupt_mph_and_reseal(&mut bent, at + 16, &(d ^ 1).to_le_bytes());
        if let Ok(snap) = SnapshotTable::from_bytes(bent) {
            let index = snap.dispatch_index();
            let table = LookupTable::build(&g);
            for c in g.classes() {
                for m in g.member_ids() {
                    assert_eq!(index.lookup_ref(c, m).to_outcome(), table.lookup(c, m));
                }
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
            let table = LookupTable::build(&g);
            let snap = roundtrip(&g);
            assert_eq!(snap.class_count(), g.class_count());
            assert_eq!(snap.member_name_count(), g.member_name_count());
            for c in g.classes() {
                assert_eq!(snap.class_name(c), Some(g.class_name(c)));
                for m in g.member_ids() {
                    assert_eq!(
                        snap.entry(c, m),
                        table.entry(c, m).cloned(),
                        "({}, {})",
                        g.class_name(c),
                        g.member_name(m)
                    );
                    assert_eq!(snap.lookup(c, m), table.lookup(c, m));
                }
            }
        }
    }

    #[test]
    fn decoded_memo_survives_repeats_and_alternation() {
        let g = fixtures::fig3();
        let table = LookupTable::build(&g);
        let snap = roundtrip(&g);
        let h = g.class_by_name("H").unwrap();
        let foo = g.member_by_name("foo").unwrap();
        let bar = g.member_by_name("bar").unwrap();
        // Repeats hit the memo; alternation evicts and refills it; a
        // miss must not disturb it. All must keep matching the table.
        for _ in 0..3 {
            assert_eq!(snap.entry(h, foo), table.entry(h, foo).cloned());
            assert_eq!(snap.entry(h, foo), table.entry(h, foo).cloned());
            assert_eq!(snap.entry(h, bar), table.entry(h, bar).cloned());
            assert_eq!(
                snap.entry(ClassId::from_index(g.class_count() + 3), foo),
                None
            );
        }
    }

    #[test]
    fn dispatch_index_matches_snapshot_outcomes() {
        let g = fixtures::fig9();
        let snap = roundtrip(&g);
        let index = snap.dispatch_index();
        assert_eq!(index.entry_count(), snap.entry_count());
        for c in g.classes() {
            for m in g.member_ids() {
                assert_eq!(index.entry(c, m), snap.entry(c, m));
                assert_eq!(index.lookup_ref(c, m).to_outcome(), snap.lookup(c, m));
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

    #[test]
    fn warm_engine_serves_cache_hits() {
        let g = fixtures::fig9();
        let snap = roundtrip(&g);
        let engine = snap.warm_engine().unwrap();
        let e = engine.chg().class_by_name("E").unwrap();
        let m = engine.chg().member_by_name("m").unwrap();
        match engine.lookup(e, m) {
            LookupOutcome::Resolved { class, .. } => {
                assert_eq!(engine.chg().class_name(class), "C")
            }
            other => panic!("expected C::m, got {other:?}"),
        }
        let stats = engine.stats();
        assert_eq!(stats.cache_misses, 0, "warm cache must not miss");
        assert_eq!(stats.entries_computed, 0);
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
}
