//! `mph_build_seconds` counts hash builds, not cell placements.
//!
//! Loading a v4 snapshot serves the hash the file ships in place, and
//! loading a v2 or v3 snapshot places cells under it; loading a v1
//! snapshot, which ships none, builds one. Only the last is a build, and
//! promoting a loaded snapshot builds nothing at all. The histogram lives in the process-wide
//! engine facade, so this check has a test binary of its own: no
//! concurrent test can move the count between the two reads.

use std::path::PathBuf;

use cpplookup::SnapshotTable;

fn builds() -> u64 {
    cpplookup::obs::snapshot()
        .histogram("mph_build_seconds")
        .map_or(0, |h| h.count)
}

fn load(relative: &str) -> SnapshotTable {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(relative);
    SnapshotTable::load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn only_a_hash_built_at_load_records_a_build() {
    let before = builds();
    let v4 = load("tests/corpus/chain_12.snap");
    let v3 = load("tests/fixtures/random_realistic_20_7_v3.snap");
    let v2 = load("tests/fixtures/chain_12_v2.snap");
    assert_eq!(
        builds(),
        before,
        "serving or placing under a shipped hash is no build"
    );
    let v1 = load("tests/fixtures/chain_12_v1.snap");
    assert_eq!(builds(), before + 1, "a v1 load builds its hash once");
    let indexes = [
        v1.dispatch_index(),
        v2.dispatch_index(),
        v4.dispatch_index(),
        v3.dispatch_index(),
    ];
    assert_eq!(
        builds(),
        before + 1,
        "promoting a loaded snapshot builds nothing"
    );
    assert_eq!(indexes[0].entry_count(), indexes[2].entry_count());
    assert_eq!(indexes[1].entry_count(), indexes[2].entry_count());
}
