//! Reading version-1 and -2 files, which stored the table as a TABLE
//! section — varint-encoded entries behind a fixed-width
//! `(member, payload offset)` index per class row — and (version 2) the
//! probe directory's minimal perfect hash as an MPH section. Loading
//! decodes every entry once into the same in-memory
//! [`DispatchIndex`] a version-3 file stores as it is; a version-2
//! file's hash is reused, a version-1 file's index builds one.
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

use cpplookup_chg::{ClassId, MemberId};
use cpplookup_core::mph::MphFunction;
use cpplookup_core::{DispatchIndex, Entry, LeastVirtual, RedAbs, StaticRule};

use crate::error::SnapshotError;
use crate::format::{u32_at, Reader};
use crate::loader::{decode_statics, Section};

/// Decodes and validates the TABLE section `table` (and the MPH section
/// `mph`, for version 2) of `data` into the index they describe.
pub(crate) fn decode_index(
    data: &[u8],
    table: Section,
    mph: Option<Section>,
    class_count: usize,
    member_count: usize,
) -> Result<(StaticRule, DispatchIndex), SnapshotError> {
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
    let mph = match mph {
        Some(s) => Some(decode_mph(data, s, &entries)?),
        None => None,
    };
    Ok((
        statics,
        DispatchIndex::from_entries(class_count, entries, mph),
    ))
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
