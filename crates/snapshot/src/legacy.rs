//! Reading files written before format version 4, which stored each
//! verdict in a form the loader decodes: versions 1 and 2 as a TABLE
//! section — varint-encoded entries behind a fixed-width
//! `(member, payload offset)` index per class row — plus (version 2)
//! the probe directory's minimal perfect hash as an MPH section, and
//! version 3 as an INDEX section of the version-3 index columns, which
//! kept every verdict twice. Every legacy file takes the one
//! decode-and-pack path: its entries are decoded once and packed into
//! the same in-memory [`DispatchIndex`] a version-4 file stores as it
//! is; a version-2 or -3 file's hash is reused, a version-1 file's
//! index builds one.
//!
//! TABLE section layout: `statics: u8`, 3 zero bytes,
//! `class_count: u32, entry_count: u32, payload_len: u32`, then
//! `class_count + 1` row starts (`u32`), `entry_count` records
//! `(member: u32, offset: u32)` sorted by member within a row, then the
//! payload: per entry a tag byte (0 red, 1 blue), red
//! `ldc, lv, via + 1 (0 = none)`, then a counted `leastVirtual` set, all
//! LEB128 varints, with `leastVirtual` encoded 0 = Ω, else class + 1.
//!
//! MPH section layout: `seed: u64, n: u32, nbuckets: u32`, then
//! `nbuckets` little-endian `u32` displacements.
//!
//! Version-3 INDEX section layout: the 16-byte statics header every
//! INDEX section has, then a 32-byte column header `class_count,
//! member_count, entry_count, pool_len: u32, seed: u64, nbuckets: u32`
//! and a zero `u32`, then six columns, each padded to 16 bytes:
//! `class_count + 1` row starts, `entry_count` `(member, slot)` pairs
//! sorted by member within a row (slot = the pair's own index),
//! `entry_count` 24-byte entries `{flags, ldc, lv, via, set off, set
//! len}` (flags: 1 blue, 2 red with a via edge), `entry_count` 16-byte
//! directory cells, the `leastVirtual` pool, and the hash's
//! displacements. The cells repeat the entries' verdicts and are not
//! read.

use cpplookup_chg::{ClassId, MemberId};
use cpplookup_core::mph::MphFunction;
use cpplookup_core::{DispatchIndex, Entry, LeastVirtual, RedAbs, StaticRule};

use crate::error::SnapshotError;
use crate::format::{u32_at, Reader, INDEX_HEADER_LEN};
use crate::loader::{decode_statics, Section};

/// Every entry of a legacy file, in row order.
type Entries = Vec<(ClassId, MemberId, Entry)>;

/// Decodes and validates the verdict sections of a version-`version`
/// file (`sections[2..]`: TABLE and, for version 2, MPH; for version 3,
/// INDEX) and packs the index they describe.
pub(crate) fn decode_index(
    data: &[u8],
    version: u16,
    sections: &[Section],
    class_count: usize,
    member_count: usize,
) -> Result<(StaticRule, DispatchIndex), SnapshotError> {
    let (statics, entries, mph) = if version == 3 {
        decode_columns(data, sections[2], class_count, member_count)?
    } else {
        let (statics, entries) = decode_table(data, sections[2], class_count, member_count)?;
        let mph = match sections.get(3) {
            Some(&s) => Some(decode_mph(data, s, &entries)?),
            None => None,
        };
        (statics, entries, mph)
    };
    Ok((
        statics,
        DispatchIndex::from_entries(class_count, entries, mph),
    ))
}

/// Decodes and validates the TABLE section `table` of `data` into its
/// entries.
fn decode_table(
    data: &[u8],
    table: Section,
    class_count: usize,
    member_count: usize,
) -> Result<(StaticRule, Entries), SnapshotError> {
    let bytes = table.slice(data);
    let mut r = Reader::new(bytes, "table");
    let statics = decode_statics(u32::from(r.u8()?))?;
    if r.bytes(3)? != [0, 0, 0] {
        return Err(SnapshotError::malformed("nonzero table header padding"));
    }
    let declared = r.u32()? as usize;
    if declared != class_count {
        return Err(SnapshotError::malformed(format!(
            "table section declares {declared} classes, names section {class_count}"
        )));
    }
    let entry_count = r.u32()? as usize;
    let payload_len = r.u32()? as usize;
    let fixed = 16usize
        .checked_add(4 * (class_count + 1))
        .and_then(|n| n.checked_add(8usize.checked_mul(entry_count)?))
        .ok_or_else(|| SnapshotError::malformed("table index overflows"))?;
    if fixed.checked_add(payload_len) != Some(table.len) {
        return Err(SnapshotError::malformed(format!(
            "table section is {} bytes but its header describes {}",
            table.len,
            fixed.saturating_add(payload_len)
        )));
    }
    let rows_at = 16;
    let records_at = rows_at + 4 * (class_count + 1);
    let payload = &bytes[fixed..];
    let row_start = |c: usize| u32_at(bytes, rows_at + 4 * c).unwrap_or(u32::MAX) as usize;

    // Row bounds: monotone, covering [0, entry_count].
    let mut prev_start = 0usize;
    for c in 0..=class_count {
        let start = row_start(c);
        if start < prev_start || start > entry_count || (c == 0 && start != 0) {
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

    // Every record, in order: member ids strictly increasing within a
    // row, and each entry's payload starting exactly where the
    // previous one's decode ended.
    let mut entries = Vec::with_capacity(entry_count);
    let mut next_offset = 0usize;
    for c in 0..class_count {
        let mut prev_member: Option<u32> = None;
        for i in row_start(c)..row_start(c + 1) {
            let at = records_at + 8 * i;
            let (m, offset) = (
                u32_at(bytes, at).unwrap_or(u32::MAX),
                u32_at(bytes, at + 4).unwrap_or(u32::MAX) as usize,
            );
            if m as usize >= member_count {
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
            if offset != next_offset {
                return Err(SnapshotError::malformed(format!(
                    "entry {i} payload starts at {offset}, expected {next_offset}"
                )));
            }
            let mut er = Reader::new(&payload[offset..], "table entry");
            let entry = decode_entry(&mut er, class_count)?;
            next_offset = offset + er.pos();
            entries.push((
                ClassId::from_index(c),
                MemberId::from_index(m as usize),
                entry,
            ));
        }
    }
    if next_offset != payload_len {
        return Err(SnapshotError::malformed(format!(
            "{} undecoded table payload bytes",
            payload_len - next_offset
        )));
    }
    Ok((statics, entries))
}

/// Decodes and validates a version-3 INDEX section into its entries and
/// the hash its cells sat under. Each pair must name a member in range,
/// in sorted order within its row, and its own entry; each entry's
/// fields and its set must be in range.
fn decode_columns(
    data: &[u8],
    s: Section,
    class_count: usize,
    member_count: usize,
) -> Result<(StaticRule, Entries, Option<MphFunction>), SnapshotError> {
    let bytes = s.slice(data);
    let mut r = Reader::new(bytes, "index header");
    let statics = decode_statics(r.u32()?)?;
    if r.bytes(INDEX_HEADER_LEN - 4)?.iter().any(|&b| b != 0) {
        return Err(SnapshotError::malformed("nonzero index header padding"));
    }
    let declared = r.u32()? as usize;
    let index_members = r.u32()? as usize;
    let entry_count = r.u32()? as usize;
    let pool_len = r.u32()? as usize;
    let seed = r.u64()?;
    let nbuckets = r.u32()? as usize;
    if r.u32()? != 0 {
        return Err(SnapshotError::malformed(
            "reserved index header field is nonzero",
        ));
    }
    if declared != class_count || index_members > member_count {
        return Err(SnapshotError::malformed(format!(
            "the index covers {declared} classes and {index_members} member names, the names \
             section {class_count} and {member_count}"
        )));
    }
    // Each column's start, 16-byte aligned like the section itself.
    let mut at = r.pos();
    let mut column = |len: Option<usize>| {
        let start = at;
        at = len
            .and_then(|len| at.checked_add(len))
            .and_then(|end| end.checked_next_multiple_of(16))
            .unwrap_or(usize::MAX);
        start
    };
    let rows_at = column(class_count.checked_add(1).and_then(|n| n.checked_mul(4)));
    let pairs_at = column(entry_count.checked_mul(8));
    let entries_at = column(entry_count.checked_mul(24));
    let _cells_at = column(entry_count.checked_mul(16));
    let pool_at = column(pool_len.checked_mul(4));
    let disp_at = column(nbuckets.checked_mul(4));
    if at != bytes.len() {
        return Err(SnapshotError::malformed(format!(
            "index section is {} bytes but its header describes {at}",
            bytes.len()
        )));
    }
    let word = |at: usize| u32_at(bytes, at).unwrap_or(u32::MAX);
    let row_start = |c: usize| word(rows_at + 4 * c) as usize;
    let mut prev_start = 0usize;
    for c in 0..=class_count {
        let start = row_start(c);
        if start < prev_start || start > entry_count || (c == 0 && start != 0) {
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
    let lv = |raw: u32| decode_lv(u64::from(raw), class_count);
    let class = |raw: u32, what: &str| {
        if (raw as usize) < class_count {
            Ok(ClassId::from_index(raw as usize))
        } else {
            Err(SnapshotError::malformed(format!(
                "red {what} {raw} out of range"
            )))
        }
    };
    let set = |off: u32, len: u32| {
        if u64::from(off) + u64::from(len) > pool_len as u64 {
            return Err(SnapshotError::malformed(format!(
                "set {off}+{len} runs past the {pool_len}-word pool"
            )));
        }
        (off..off + len)
            .map(|i| lv(word(pool_at + 4 * i as usize)))
            .collect::<Result<Vec<_>, _>>()
    };
    let mut entries = Vec::with_capacity(entry_count);
    for c in 0..class_count {
        let mut prev_member: Option<u32> = None;
        for i in row_start(c)..row_start(c + 1) {
            let (m, slot) = (word(pairs_at + 8 * i), word(pairs_at + 8 * i + 4));
            if m as usize >= index_members {
                return Err(SnapshotError::malformed(format!(
                    "index pair of class {c} names member {m}, out of range"
                )));
            }
            if prev_member.is_some_and(|p| p >= m) {
                return Err(SnapshotError::malformed(format!(
                    "index row of class {c} is not sorted by member id"
                )));
            }
            prev_member = Some(m);
            if slot as usize != i {
                return Err(SnapshotError::malformed(format!(
                    "index pair {i} has slot {slot}, not its own position"
                )));
            }
            let field = |k: usize| word(entries_at + 24 * i + 4 * k);
            let (flags, ldc, lv_raw, via) = (field(0), field(1), field(2), field(3));
            let shared = set(field(4), field(5))?;
            let entry = match flags {
                1 if ldc | lv_raw | via == 0 => Entry::Blue(shared),
                0 | 2 if flags == 2 || via == 0 => Entry::Red {
                    abs: RedAbs {
                        ldc: class(ldc, "ldc")?,
                        lv: lv(lv_raw)?,
                    },
                    via: if flags == 2 {
                        Some(class(via, "via class")?)
                    } else {
                        None
                    },
                    shared,
                },
                _ => {
                    return Err(SnapshotError::malformed(format!(
                        "index entry {i} has invalid flags {flags} or stray fields"
                    )))
                }
            };
            entries.push((
                ClassId::from_index(c),
                MemberId::from_index(m as usize),
                entry,
            ));
        }
    }
    let disp = (0..nbuckets).map(|b| word(disp_at + 4 * b)).collect();
    let mph = MphFunction::from_parts(seed, entry_count as u32, disp);
    Ok((statics, entries, mph))
}

/// Decodes the MPH section and checks it against the decoded entries:
/// it must cover exactly their count and map their `(class, member)`
/// keys onto `0..n` as a bijection. Anything less is `Malformed`, never
/// a directory that could mis-serve probes.
fn decode_mph(
    data: &[u8],
    s: Section,
    entries: &[(ClassId, MemberId, Entry)],
) -> Result<MphFunction, SnapshotError> {
    let mut r = Reader::new(s.slice(data), "mph");
    let seed = r.u64()?;
    let n = r.u32()?;
    let nbuckets = r.u32()? as usize;
    if n as usize != entries.len() {
        return Err(SnapshotError::malformed(format!(
            "mph section covers {n} keys, table section has {} entries",
            entries.len()
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
    let mut seen = vec![false; entries.len()];
    for (c, m, _) in entries {
        let p = mph.position(c.index() as u64 | (m.index() as u64) << 32);
        if p >= entries.len() || std::mem::replace(&mut seen[p], true) {
            return Err(SnapshotError::malformed(format!(
                "mph is not a bijection over the live keys: \
                 key (class {c}, member {m}) collides at slot {p}"
            )));
        }
    }
    Ok(mph)
}

fn decode_lv(raw: u64, class_count: usize) -> Result<LeastVirtual, SnapshotError> {
    match raw {
        0 => Ok(LeastVirtual::Omega),
        c if c - 1 < class_count as u64 => {
            Ok(LeastVirtual::Class(ClassId::from_index((c - 1) as usize)))
        }
        c => Err(SnapshotError::malformed(format!(
            "leastVirtual class id {} out of range",
            c - 1
        ))),
    }
}

fn decode_set(r: &mut Reader<'_>, class_count: usize) -> Result<Vec<LeastVirtual>, SnapshotError> {
    let count = r.varint_count("leastVirtual set", r.remaining())?;
    (0..count)
        .map(|_| decode_lv(r.varint()?, class_count))
        .collect()
}

fn decode_entry(r: &mut Reader<'_>, class_count: usize) -> Result<Entry, SnapshotError> {
    let class = |raw: u64, what: &str| {
        if raw < class_count as u64 {
            Ok(ClassId::from_index(raw as usize))
        } else {
            Err(SnapshotError::malformed(format!(
                "red {what} {raw} out of range"
            )))
        }
    };
    match r.u8()? {
        0 => {
            let ldc = class(r.varint()?, "ldc")?;
            let lv = decode_lv(r.varint()?, class_count)?;
            let via = match r.varint()? {
                0 => None,
                raw => Some(class(raw - 1, "via class")?),
            };
            Ok(Entry::Red {
                abs: RedAbs { ldc, lv },
                via,
                shared: decode_set(r, class_count)?,
            })
        }
        1 => Ok(Entry::Blue(decode_set(r, class_count)?)),
        tag => Err(SnapshotError::malformed(format!("unknown entry tag {tag}"))),
    }
}
