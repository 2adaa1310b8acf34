//! Property-based tests of the snapshot backend over random
//! hierarchies: the compile → serialize → load → query pipeline must be
//! indistinguishable from the in-memory table, and *any* corruption of
//! the byte stream must surface as a structured error — never a panic,
//! never a silently wrong answer.

use cpplookup::hiergen::{random_hierarchy, RandomConfig};
use cpplookup::prelude::*;
use cpplookup::snapshot::format::{checksum64, DIR_ENTRY_LEN, HEADER_LEN};
use proptest::prelude::*;

/// `(offset, len)` of directory slot `i` of a snapshot image.
fn section(bytes: &[u8], i: usize) -> (usize, usize) {
    let at = HEADER_LEN + i * DIR_ENTRY_LEN;
    let word = |o: usize| u64::from_le_bytes(bytes[at + o..at + o + 8].try_into().unwrap());
    (word(4) as usize, word(12) as usize)
}

/// Re-stamps every section checksum and the whole-file checksum of a
/// damaged image, forging its integrity: only structural validation
/// can still catch the damage.
fn reseal(bytes: &mut [u8]) {
    let count = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
    for i in 0..count {
        let (offset, len) = section(bytes, i);
        let sum = checksum64(&bytes[offset..offset + len]);
        let at = HEADER_LEN + i * DIR_ENTRY_LEN + 20;
        bytes[at..at + 8].copy_from_slice(&sum.to_le_bytes());
    }
    let n = bytes.len();
    let sum = checksum64(&bytes[..n - 8]);
    bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
}

/// A strategy producing small, ambiguity-rich hierarchies (same shape
/// as the main proptest suite's generator).
fn small_chg() -> impl Strategy<Value = Chg> {
    (
        3usize..12,   // classes
        0.0f64..0.7,  // extra_base_prob
        0.0f64..0.6,  // virtual_prob
        1usize..4,    // member pool
        0.2f64..0.6,  // member_prob
        0.0f64..0.5,  // static_prob
        any::<u64>(), // seed
    )
        .prop_map(
            |(
                classes,
                extra_base_prob,
                virtual_prob,
                member_pool,
                member_prob,
                static_prob,
                seed,
            )| {
                random_hierarchy(&RandomConfig {
                    classes,
                    extra_base_prob,
                    max_bases: 3,
                    virtual_prob,
                    member_pool,
                    member_prob,
                    static_prob,
                    seed,
                })
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Roundtrip fidelity: for every (class, member) pair of every
    /// generated hierarchy, under both statics rules, the loaded
    /// snapshot's entries equal the in-memory table's entries exactly —
    /// abstractions, `via` parents, and witness sets included.
    #[test]
    fn roundtrip_equals_in_memory_table(chg in small_chg()) {
        for statics in [StaticRule::Cpp, StaticRule::Ignore] {
            let options = LookupOptions { statics };
            let table = LookupTable::build_with(&chg, options);
            let snap = SnapshotTable::from_bytes(
                Snapshot::compile_with(&chg, options).into_bytes(),
            )
            .expect("writer output always validates");
            prop_assert_eq!(snap.options(), options);
            for c in chg.classes() {
                prop_assert_eq!(
                    snap.class_name(c),
                    Some(chg.class_name(c)),
                    "class name {}", c.index()
                );
                for m in chg.member_ids() {
                    prop_assert_eq!(
                        snap.entry(c, m),
                        table.entry(c, m).cloned(),
                        "entry ({}, {})", chg.class_name(c), chg.member_name(m)
                    );
                    prop_assert_eq!(snap.lookup(c, m), table.lookup(c, m));
                }
            }
        }
    }

    /// Rebuild fidelity: `to_chg` reconstructs a hierarchy whose
    /// recompiled snapshot is byte-identical — the topology section
    /// loses nothing.
    #[test]
    fn to_chg_recompiles_byte_identically(chg in small_chg()) {
        let snap = Snapshot::compile(&chg);
        let loaded = SnapshotTable::from_bytes(snap.as_bytes().to_vec())
            .expect("writer output always validates");
        let rebuilt = loaded.to_chg().expect("writer topology always rebuilds");
        let again = Snapshot::compile(&rebuilt);
        prop_assert_eq!(snap.as_bytes(), again.as_bytes());
    }

    /// Corruption safety, bit-flip edition: XOR-damaging any byte of a
    /// valid snapshot makes loading fail with a structured error. The
    /// call must not panic, and it must never hand back a table (which
    /// could then answer queries from damaged bytes).
    #[test]
    fn any_byte_flip_is_rejected(
        chg in small_chg(),
        position in any::<u64>(),
        mask in 0u8..255,
    ) {
        let mask = mask + 1; // 1..=255: never the identity flip
        let bytes = Snapshot::compile(&chg).into_bytes();
        let at = (position % bytes.len() as u64) as usize;
        let mut damaged = bytes;
        damaged[at] ^= mask;
        let result = std::panic::catch_unwind(|| SnapshotTable::from_bytes(damaged));
        match result {
            Ok(loaded) => prop_assert!(
                loaded.is_err(),
                "accepted a snapshot with byte {at} xor {mask:#04x}"
            ),
            Err(_) => prop_assert!(false, "panicked on byte {} xor {:#04x}", at, mask),
        }
    }

    /// Corruption safety, truncation edition: every proper prefix of a
    /// valid snapshot is rejected with an error, without panicking.
    #[test]
    fn any_truncation_is_rejected(
        chg in small_chg(),
        cut in any::<u64>(),
    ) {
        let bytes = Snapshot::compile(&chg).into_bytes();
        let len = (cut % bytes.len() as u64) as usize; // always a proper prefix
        let prefix = bytes[..len].to_vec();
        let result = std::panic::catch_unwind(|| SnapshotTable::from_bytes(prefix));
        match result {
            Ok(loaded) => prop_assert!(
                loaded.is_err(),
                "accepted a {len}-byte prefix of a {}-byte snapshot",
                bytes.len()
            ),
            Err(_) => prop_assert!(false, "panicked on a {}-byte prefix", len),
        }
    }

    /// Corruption safety, garbage edition: arbitrary byte soup never
    /// panics the loader (and, magic aside, never loads).
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let result = std::panic::catch_unwind(|| SnapshotTable::from_bytes(bytes));
        match result {
            Ok(loaded) => prop_assert!(
                loaded.is_err(),
                "random bytes happened to validate (checksum collision?)"
            ),
            Err(_) => prop_assert!(false, "loader panicked on arbitrary bytes"),
        }
    }

    /// Structural validation behind a forged checksum: XOR-damaging any
    /// byte of the index section and re-stamping the section and file
    /// checksums slips past the integrity sweep, so the index's
    /// structural validation alone stands between the damage and the
    /// read path. The load must fail, or hand back a table whose every
    /// `lookup_ref`, `lookup_batch_into`, `entry` and `members_of` call
    /// returns without panicking.
    #[test]
    fn forged_index_damage_never_panics_a_reader(
        chg in small_chg(),
        position in any::<u64>(),
        mask in 0u8..255,
    ) {
        let mask = mask + 1; // 1..=255: never the identity flip
        let mut bytes = Snapshot::compile(&chg).into_bytes();
        let (offset, len) = section(&bytes, 2);
        let at = offset + (position % len as u64) as usize;
        bytes[at] ^= mask;
        reseal(&mut bytes);
        let result = std::panic::catch_unwind(|| {
            let Ok(table) = SnapshotTable::from_bytes(bytes) else {
                return;
            };
            let index = table.index();
            let mut probes = Vec::new();
            for ci in 0..index.class_count() + 2 {
                let c = ClassId::from_index(ci);
                for mi in 0..index.member_name_count() + 2 {
                    let m = MemberId::from_index(mi);
                    probes.push((c, m));
                    std::hint::black_box(index.lookup_ref(c, m).to_outcome());
                    std::hint::black_box(table.entry(c, m));
                }
                std::hint::black_box(index.members_of(c).count());
            }
            let mut out = Vec::new();
            index.lookup_batch_into(&probes, &mut out);
            std::hint::black_box(out.len());
        });
        prop_assert!(result.is_ok(), "a reader panicked on byte {} xor {:#04x}", at, mask);
    }
}
