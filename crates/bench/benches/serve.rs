//! E22: serving-path cost — the flat `DispatchIndex` probe against the
//! hashmap `LookupTable`, on the same shuffled live-pair probe streams
//! the `e22` report uses, plus the batch path and an index build cost
//! group (packing a table, and loading a snapshot whose index is the
//! file's own columns).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cpplookup_chg::{Chg, ClassId, MemberId};
use cpplookup_core::{DispatchIndex, LookupTable};
use cpplookup_hiergen::{families, random_hierarchy, RandomConfig};
use cpplookup_snapshot::{Snapshot, SnapshotTable};

/// Deterministic Fisher–Yates (inline LCG; no rand dependency) so
/// every backend serves an identical, locality-free probe stream.
fn shuffle<T>(v: &mut [T], mut seed: u64) {
    for i in (1..v.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = ((seed >> 33) as usize) % (i + 1);
        v.swap(i, j);
    }
}

/// The live `(class, member)` pairs of the hierarchy, shuffled, capped.
fn probes(chg: &Chg, table: &LookupTable) -> Vec<(ClassId, MemberId)> {
    let mut probes: Vec<_> = chg
        .classes()
        .flat_map(|c| table.members_of(c).map(move |m| (c, m)))
        .collect();
    shuffle(&mut probes, 0xE22);
    probes.truncate(50_000);
    probes
}

fn bench_family(c: &mut Criterion, name: &str, chg: &Chg) {
    let table = LookupTable::build(chg);
    let snap = Snapshot::compile(chg).into_bytes();
    let index = DispatchIndex::from_table(LookupTable::build(chg));
    let probes = probes(chg, &table);

    let mut group = c.benchmark_group("serve");
    group.sample_size(20);
    group.bench_with_input(BenchmarkId::new("table", name), &(), |b, ()| {
        b.iter(|| {
            probes
                .iter()
                .map(|&(c, m)| table.lookup(c, m).is_resolved() as u64)
                .sum::<u64>()
        })
    });
    group.bench_with_input(BenchmarkId::new("index_ref", name), &(), |b, ()| {
        b.iter(|| {
            probes
                .iter()
                .map(|&(c, m)| index.lookup_ref(c, m).is_resolved() as u64)
                .sum::<u64>()
        })
    });
    group.bench_with_input(BenchmarkId::new("index_batch", name), &(), |b, ()| {
        b.iter(|| index.lookup_batch(&probes).len())
    });
    group.finish();

    let mut build = c.benchmark_group("serve_build");
    build.sample_size(10);
    build.bench_with_input(BenchmarkId::new("from_table", name), &(), |b, ()| {
        b.iter(|| DispatchIndex::from_table(LookupTable::build(chg)).entry_count())
    });
    build.bench_with_input(BenchmarkId::new("load_snapshot", name), &(), |b, ()| {
        b.iter(|| {
            SnapshotTable::from_bytes(snap.clone())
                .expect("snapshot loads")
                .dispatch_index()
                .entry_count()
        })
    });
    build.finish();
}

fn benches(c: &mut Criterion) {
    bench_family(c, "grid_50x50", &families::grid(50, 50));
    bench_family(c, "interface_500x4", &families::interface_heavy(500, 4));
    bench_family(
        c,
        "realistic_2000",
        &random_hierarchy(&RandomConfig::realistic(2000, 7)),
    );
}

criterion_group!(serve, benches);
criterion_main!(serve);
