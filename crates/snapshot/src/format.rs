//! The on-disk layout: constants, checksums, varints, and the
//! bounds-checked byte cursor shared by the writer and the loader.
//!
//! A version-4 snapshot file is laid out as
//!
//! ```text
//! ┌────────────────────────────┐ 0
//! │ header (32 bytes)          │   magic, version, endian tag, section
//! │                            │   count, total file length
//! ├────────────────────────────┤ 32
//! │ section directory          │   per section: id, offset, length,
//! │ (28 bytes × section count) │   word-FNV checksum of the section bytes
//! ├────────────────────────────┤
//! │ NAMES section              │   interned class + member name tables
//! │ CHG section                │   topo-ordered, varint-encoded graph
//! │ INDEX section              │   16-byte fixed header (statics rule),
//! │ (each 16-byte aligned,     │   then the dispatch index's own byte
//! │  zero padding between)     │   columns, served in place
//! ├────────────────────────────┤ len − 8
//! │ file checksum (8 bytes)    │   word-FNV of bytes [0, len − 8)
//! └────────────────────────────┘ len
//! ```
//!
//! The INDEX section's columns are exactly
//! [`DispatchIndex::columns`](cpplookup_core::DispatchIndex::columns),
//! which store each verdict once: `row_starts`, the rows' member ids,
//! the 16-byte directory cells, the `via` word of each cell, the
//! `leastVirtual` pool, the minimal perfect hash's displacements (its
//! seed is in the column header), and the slot-sorted records of the
//! non-empty static shared sets, each column at a 16-byte aligned
//! offset (the layout is documented in `cpplookup_core::serve`).
//! Loading checks the whole-file checksum and the columns' structure in
//! O(n), then serves from the loaded buffer without decoding an entry.
//!
//! Older files take one legacy path that decodes every entry into the
//! same in-memory index. Versions 1 and 2 (8-byte aligned sections)
//! stored a TABLE section: varint-encoded entries behind a
//! binary-searched `(member, offset)` index, plus (version 2) an MPH
//! section. Version 3 stored an INDEX section of index columns that
//! kept every verdict twice: 24-byte entries behind `(member, slot)`
//! pairs beside the directory cells.
//!
//! All multi-byte integers are little-endian. Variable-length integers
//! use LEB128 (7 data bits per byte, high bit = continuation), capped at
//! 10 bytes.

use crate::error::SnapshotError;

/// The first eight bytes of every snapshot.
pub const MAGIC: [u8; 8] = *b"CPLKSNAP";

/// The format version this build writes. Version 2 added the MPH
/// section (the serialized minimal perfect hash over the probe keys);
/// version 3 replaced the TABLE and MPH sections with the INDEX
/// section, the dispatch index's own columns; version 4 keeps each
/// verdict in those columns once. The loader still reads
/// [`MIN_VERSION`]-and-up: older files decode into the same index, and
/// a version-1 file's index builds its hash at load.
pub const VERSION: u16 = 4;

/// The oldest format version the loader accepts.
pub const MIN_VERSION: u16 = 1;

/// Endianness canary: written little-endian, so a byte-swapped reader
/// (or writer) sees `0x2E1F` and bails instead of misreading every
/// field.
pub const ENDIAN_TAG: u16 = 0x1F2E;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 32;

/// One directory record: `id: u32, offset: u64, len: u64, checksum: u64`.
pub const DIR_ENTRY_LEN: usize = 28;

/// Trailing whole-file checksum size.
pub const TRAILER_LEN: usize = 8;

/// Required alignment of every section start (version 3 on): a
/// multiple of the index columns' 16-byte alignment.
pub const SECTION_ALIGN: usize = 16;

/// Required alignment of every section start in version-1 and -2
/// files.
pub const LEGACY_SECTION_ALIGN: usize = 8;

/// The section alignment files of `version` use.
pub fn section_align(version: u16) -> usize {
    if version >= 3 {
        SECTION_ALIGN
    } else {
        LEGACY_SECTION_ALIGN
    }
}

/// Bytes of the INDEX section's fixed header: the statics rule as a
/// `u32` (0 = C++, 1 = ignore), then 12 zero bytes, so the columns
/// after it stay 16-byte aligned.
pub const INDEX_HEADER_LEN: usize = 16;

/// Section ids, in file order.
pub const SECTION_NAMES: u32 = 1;
/// The class-hierarchy topology section.
pub const SECTION_CHG: u32 = 2;
/// The resolved lookup-table section (versions 1 and 2).
pub const SECTION_TABLE: u32 = 3;
/// The minimal-perfect-hash section (version 2 only): the probe
/// directory's hash, built once at compile time so loads skip the
/// displacement search. Layout: `seed: u64, n: u32, nbuckets: u32`,
/// then `nbuckets` little-endian `u32` displacements.
pub const SECTION_MPH: u32 = 4;
/// The dispatch-index section (version 3 on): see the module docs.
pub const SECTION_INDEX: u32 = 5;

/// Human-readable section name for error messages.
pub fn section_name(id: u32) -> &'static str {
    match id {
        SECTION_NAMES => "names",
        SECTION_CHG => "chg",
        SECTION_TABLE => "table",
        SECTION_MPH => "mph",
        SECTION_INDEX => "index",
        _ => "unknown",
    }
}

// The integrity checksum used throughout the file: the shared 4-lane
// word-FNV, re-exported here so existing `format::checksum64` callers
// (including the wire protocol) keep their import path. The pinned
// bit-pattern lives with the definition in `cpplookup_chg::checksum`.
pub use cpplookup_chg::checksum::checksum64;

/// Appends `value` as LEB128.
pub fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// A bounds-checked forward cursor over a byte slice. Every read either
/// succeeds or returns a structured error; nothing in the crate indexes
/// raw snapshot bytes without going through here or an explicitly
/// range-checked slice.
#[derive(Clone, Copy, Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Context string used in truncation errors.
    context: &'static str,
}

impl<'a> Reader<'a> {
    /// A cursor over `bytes`, labelled `context` for error messages.
    pub fn new(bytes: &'a [u8], context: &'static str) -> Self {
        Reader {
            bytes,
            pos: 0,
            context,
        }
    }

    /// Current position from the start of the slice.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Whether the cursor consumed the whole slice.
    pub fn is_at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                context: self.context,
                needed: n,
                available: self.remaining(),
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a LEB128 varint, rejecting encodings longer than 10 bytes
    /// or overflowing 64 bits.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, SnapshotError> {
        let mut value: u64 = 0;
        for shift in 0..10 {
            let byte = self.u8()?;
            let data = u64::from(byte & 0x7F);
            if shift == 9 && data > 1 {
                return Err(SnapshotError::malformed("varint overflows u64"));
            }
            value |= data << (shift * 7);
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(SnapshotError::malformed("varint longer than 10 bytes"))
    }

    /// Reads a varint and checks it fits `usize` and does not exceed
    /// `cap` (typically the enclosing section length), defeating
    /// attacker-controlled or corrupt counts before any allocation.
    pub fn varint_count(&mut self, what: &str, cap: usize) -> Result<usize, SnapshotError> {
        let raw = self.varint()?;
        let n = usize::try_from(raw)
            .map_err(|_| SnapshotError::malformed(format!("{what} count {raw} overflows usize")))?;
        if n > cap {
            return Err(SnapshotError::malformed(format!(
                "{what} count {n} exceeds plausible bound {cap}"
            )));
        }
        Ok(n)
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        self.take(n)
    }
}

/// Reads the little-endian `u32` at `offset` of an already
/// range-validated fixed-width table. The caller guarantees
/// `offset + 4 <= bytes.len()`; a violation still fails closed via the
/// checked slice rather than panicking in release builds' decode path.
#[inline]
pub fn u32_at(bytes: &[u8], offset: usize) -> Option<u32> {
    let b = bytes.get(offset..offset + 4)?;
    Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// Zero padding needed to bring `len` up to [`SECTION_ALIGN`].
pub fn padding_to_align(len: usize) -> usize {
    len.next_multiple_of(SECTION_ALIGN) - len
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut r = Reader::new(&buf, "test");
        for &v in &values {
            assert_eq!(r.varint().unwrap(), v);
        }
        assert!(r.is_at_end());
    }

    #[test]
    fn varint_rejects_overlong_and_overflow() {
        // 11 continuation bytes: longer than any valid u64 encoding.
        let overlong = [0x80u8; 11];
        assert!(matches!(
            Reader::new(&overlong, "t").varint(),
            Err(SnapshotError::Malformed { .. })
        ));
        // 10th byte carries more than the single remaining bit.
        let overflow = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
        assert!(matches!(
            Reader::new(&overflow, "t").varint(),
            Err(SnapshotError::Malformed { .. })
        ));
    }

    #[test]
    fn reader_reports_truncation_with_context() {
        let mut r = Reader::new(&[1, 2], "directory");
        match r.u32() {
            Err(SnapshotError::Truncated {
                context,
                needed,
                available,
            }) => {
                assert_eq!(context, "directory");
                assert_eq!(needed, 4);
                assert_eq!(available, 2);
            }
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn checksum_detects_any_single_byte_flip() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let base = checksum64(data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut copy = data.to_vec();
                copy[i] ^= 1 << bit;
                assert_ne!(checksum64(&copy), base, "flip at byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn padding_math() {
        assert_eq!(padding_to_align(0), 0);
        assert_eq!(padding_to_align(16), 0);
        assert_eq!(padding_to_align(1), 15);
        assert_eq!(padding_to_align(8), 8);
        assert_eq!(section_align(2), 8);
        assert_eq!(section_align(3), 16);
    }

    #[test]
    fn varint_count_caps() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1_000_000);
        let mut r = Reader::new(&buf, "t");
        assert!(r.varint_count("class", 100).is_err());
        let mut r = Reader::new(&buf, "t");
        assert_eq!(r.varint_count("class", 2_000_000).unwrap(), 1_000_000);
    }
}
