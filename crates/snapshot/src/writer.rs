//! The snapshot writer: serializes a hierarchy and its dispatch index
//! into the versioned binary format of [`crate::format`].

use std::path::Path;

use cpplookup_chg::{Chg, Inheritance, MemberKind};
use cpplookup_core::{DispatchIndex, LookupOptions, LookupTable, StaticRule};

use crate::error::SnapshotError;
use crate::format::{
    checksum64, padding_to_align, put_varint, DIR_ENTRY_LEN, ENDIAN_TAG, HEADER_LEN,
    INDEX_HEADER_LEN, MAGIC, SECTION_CHG, SECTION_INDEX, SECTION_NAMES, VERSION,
};

/// A compiled hierarchy serialized into the snapshot format, ready to
/// be written to disk or loaded back through
/// [`SnapshotTable`](crate::SnapshotTable).
///
/// # Examples
///
/// ```
/// use cpplookup_chg::fixtures;
/// use cpplookup_snapshot::{Snapshot, SnapshotTable};
///
/// let g = fixtures::fig9();
/// let snap = Snapshot::compile(&g);
/// let table = SnapshotTable::from_bytes(snap.into_bytes())?;
/// let e = table.class_by_name("E").unwrap();
/// let m = table.member_by_name("m").unwrap();
/// assert_eq!(table.lookup(e, m).resolved_class(), table.class_by_name("C"));
/// # Ok::<(), cpplookup_snapshot::SnapshotError>(())
/// ```
pub struct Snapshot {
    bytes: Vec<u8>,
}

impl Snapshot {
    /// Builds the lookup table for `chg` (default options) and
    /// serializes hierarchy + index.
    pub fn compile(chg: &Chg) -> Snapshot {
        Self::compile_with(chg, LookupOptions::default())
    }

    /// Like [`compile`](Snapshot::compile) with explicit lookup options.
    /// The table is packed into its index and dropped before the file
    /// bytes are written.
    pub fn compile_with(chg: &Chg, options: LookupOptions) -> Snapshot {
        let index = DispatchIndex::from_table(LookupTable::build_with(chg, options));
        Self::from_index(chg, &index, options)
    }

    /// Serializes an already-built table (the table must have been built
    /// from `chg`), such as a parallel build's
    /// ([`LookupTable::build_parallel`]): the bytes do not depend on how
    /// the table was built, since the index packs its entries in sorted
    /// order.
    pub fn from_table(chg: &Chg, table: &LookupTable) -> Snapshot {
        Self::from_index(chg, &DispatchIndex::from_backend(table), table.options())
    }

    /// Serializes `chg` with `index`, which must be the table of `chg`
    /// under `options`: a freshly packed one, or a published index
    /// after any number of edits (how compaction checkpoints a live
    /// tenant without rebuilding its table). The columns of
    /// [`index.compacted()`](DispatchIndex::compacted) are written: an
    /// edited index's pool keeps every superseded set, and the file
    /// drops them.
    ///
    /// # Panics
    ///
    /// If `index` covers a different class count than `chg`, or more
    /// member names.
    pub fn from_index(chg: &Chg, index: &DispatchIndex, options: LookupOptions) -> Snapshot {
        assert_eq!(
            index.class_count(),
            chg.class_count(),
            "the index is not a table of this hierarchy"
        );
        assert!(
            index.member_name_count() <= chg.member_name_count(),
            "the index names members the hierarchy lacks"
        );
        let index = index.compacted();
        let names = encode_names(chg);
        let chg_section = encode_chg(chg);
        let mut index_header = [0u8; INDEX_HEADER_LEN];
        index_header[..4].copy_from_slice(&encode_statics(options.statics).to_le_bytes());
        let sections: [(u32, &[&[u8]]); 3] = [
            (SECTION_NAMES, &[&names]),
            (SECTION_CHG, &[&chg_section]),
            (SECTION_INDEX, &[&index_header, index.columns()]),
        ];

        let dir_len = DIR_ENTRY_LEN * sections.len();
        let payload: usize = sections
            .iter()
            .flat_map(|(_, parts)| parts.iter().map(|p| p.len() + 16))
            .sum();
        let mut bytes = Vec::with_capacity(HEADER_LEN + dir_len + payload + 8);
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&ENDIAN_TAG.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes()); // reserved, must be zero
        bytes.extend_from_slice(&(sections.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes()); // reserved, must be zero
        bytes.extend_from_slice(&0u64.to_le_bytes()); // total length, patched below
        debug_assert_eq!(bytes.len(), HEADER_LEN);
        // Directory placeholder; patched once section offsets are known.
        bytes.resize(HEADER_LEN + dir_len, 0);

        let mut directory = Vec::with_capacity(sections.len());
        for (id, parts) in &sections {
            bytes.resize(bytes.len() + padding_to_align(bytes.len()), 0);
            let offset = bytes.len();
            for part in *parts {
                bytes.extend_from_slice(part);
            }
            let section = &bytes[offset..];
            directory.push((
                *id,
                offset as u64,
                section.len() as u64,
                checksum64(section),
            ));
        }

        for (i, (id, offset, len, checksum)) in directory.iter().enumerate() {
            let at = HEADER_LEN + i * DIR_ENTRY_LEN;
            bytes[at..at + 4].copy_from_slice(&id.to_le_bytes());
            bytes[at + 4..at + 12].copy_from_slice(&offset.to_le_bytes());
            bytes[at + 12..at + 20].copy_from_slice(&len.to_le_bytes());
            bytes[at + 20..at + 28].copy_from_slice(&checksum.to_le_bytes());
        }

        let total = (bytes.len() + 8) as u64;
        bytes[24..32].copy_from_slice(&total.to_le_bytes());
        let file_sum = checksum64(&bytes);
        bytes.extend_from_slice(&file_sum.to_le_bytes());
        Snapshot { bytes }
    }

    /// The serialized bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the snapshot, yielding its bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Serialized size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// A snapshot is never empty (header + trailer at minimum).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Writes the snapshot to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] if the file cannot be written.
    pub fn write_to(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        let path = path.as_ref();
        std::fs::write(path, &self.bytes).map_err(|e| SnapshotError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Snapshot {{ {} bytes }}", self.bytes.len())
    }
}

/// NAMES section: counts, cumulative end-offset tables (fixed-width
/// `u32`, so the loader slices names without decoding), then the two
/// UTF-8 blobs.
fn encode_names(chg: &Chg) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(chg.class_count() as u32).to_le_bytes());
    out.extend_from_slice(&(chg.member_name_count() as u32).to_le_bytes());

    let mut class_blob = Vec::new();
    for c in chg.classes() {
        class_blob.extend_from_slice(chg.class_name(c).as_bytes());
        out.extend_from_slice(&(class_blob.len() as u32).to_le_bytes());
    }
    let mut member_blob = Vec::new();
    for m in chg.member_ids() {
        member_blob.extend_from_slice(chg.member_name(m).as_bytes());
        out.extend_from_slice(&(member_blob.len() as u32).to_le_bytes());
    }
    out.extend_from_slice(&class_blob);
    out.extend_from_slice(&member_blob);
    out
}

/// CHG section: varint-encoded per-class records in topological order
/// (bases precede derived classes), so a one-pass reader can rebuild
/// the hierarchy with every `derive` target already created.
fn encode_chg(chg: &Chg) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, chg.class_count() as u64);
    put_varint(&mut out, chg.edge_count() as u64);
    for &c in chg.topo_order() {
        put_varint(&mut out, c.index() as u64);
        let bases = chg.direct_bases(c);
        put_varint(&mut out, bases.len() as u64);
        for spec in bases {
            put_varint(&mut out, spec.base.index() as u64);
            let mut flags = u8::from(spec.inheritance == Inheritance::Virtual);
            flags |= encode_access(spec.access) << 1;
            out.push(flags);
        }
        let members = chg.declared_members(c);
        put_varint(&mut out, members.len() as u64);
        for &(m, decl) in members {
            put_varint(&mut out, m.index() as u64);
            let mut flags = encode_kind(decl.kind);
            flags |= encode_access(decl.access) << 3;
            flags |= u8::from(decl.via_using.is_some()) << 5;
            out.push(flags);
            if let Some(origin) = decl.via_using {
                put_varint(&mut out, origin.index() as u64);
            }
        }
    }
    out
}

/// The INDEX section's statics field.
fn encode_statics(statics: StaticRule) -> u32 {
    match statics {
        StaticRule::Cpp => 0,
        StaticRule::Ignore => 1,
    }
}

fn encode_access(access: cpplookup_chg::Access) -> u8 {
    match access {
        cpplookup_chg::Access::Private => 0,
        cpplookup_chg::Access::Protected => 1,
        cpplookup_chg::Access::Public => 2,
    }
}

fn encode_kind(kind: MemberKind) -> u8 {
    match kind {
        MemberKind::Data => 0,
        MemberKind::Function => 1,
        MemberKind::StaticData => 2,
        MemberKind::StaticFunction => 3,
        MemberKind::TypeName => 4,
        MemberKind::Enumerator => 5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpplookup_chg::fixtures;

    #[test]
    fn compile_is_deterministic() {
        let g = fixtures::fig3();
        let a = Snapshot::compile(&g);
        let b = Snapshot::compile(&g);
        assert_eq!(a.as_bytes(), b.as_bytes());
        assert!(!a.is_empty());
        assert!(a.len() > HEADER_LEN + 3 * DIR_ENTRY_LEN + 8);
        assert!(format!("{a:?}").contains("bytes"));
    }

    #[test]
    fn parallel_compile_is_byte_identical() {
        for g in [fixtures::fig1(), fixtures::fig3(), fixtures::fig9()] {
            let seq = Snapshot::compile(&g);
            for jobs in [1, 3, 8] {
                let table = LookupTable::build_parallel(&g, LookupOptions::default(), jobs);
                let par = Snapshot::from_table(&g, &table);
                assert_eq!(seq.as_bytes(), par.as_bytes(), "jobs={jobs}");
            }
        }
    }

    #[test]
    fn header_fields_are_in_place() {
        let g = fixtures::fig1();
        let snap = Snapshot::compile(&g);
        let b = snap.as_bytes();
        assert_eq!(&b[0..8], &MAGIC);
        assert_eq!(u16::from_le_bytes([b[8], b[9]]), VERSION);
        assert_eq!(u16::from_le_bytes([b[10], b[11]]), ENDIAN_TAG);
        let total = u64::from_le_bytes(b[24..32].try_into().unwrap());
        assert_eq!(total as usize, b.len());
        let sum = u64::from_le_bytes(b[b.len() - 8..].try_into().unwrap());
        assert_eq!(sum, checksum64(&b[..b.len() - 8]));
    }

    #[test]
    fn write_to_reports_io_errors() {
        let g = fixtures::fig1();
        let snap = Snapshot::compile(&g);
        let err = snap
            .write_to("/nonexistent-dir-cpplookup/x.snap")
            .unwrap_err();
        assert!(matches!(err, SnapshotError::Io { .. }), "{err}");
    }
}
