//! `mph_build_seconds` counts hash builds, not cell placements.
//!
//! Promoting a v2 snapshot places cells under the hash the file ships;
//! promoting a v1 snapshot, which ships none, builds one at load. Only
//! the second is a build. The histogram lives in the process-wide
//! engine facade, so this check has a test binary of its own: no
//! concurrent test can move the count between the two reads.
#![cfg(feature = "obs")]

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
    let v2 = load("tests/corpus/chain_12.snap");
    let v1 = load("tests/fixtures/chain_12_v1.snap");
    let before = builds();
    let v2_index = v2.dispatch_index();
    assert_eq!(builds(), before, "placing under a shipped hash is no build");
    let v1_index = v1.dispatch_index();
    assert_eq!(builds(), before + 1, "a v1 load builds its hash once");
    assert_eq!(v1_index.entry_count(), v2_index.entry_count());
}
