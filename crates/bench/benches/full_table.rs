//! E11: whole-table construction — eager Figure 8 against
//! lazy-everything.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cpplookup_chg::{Chg, Inheritance};
use cpplookup_core::{LazyLookup, LookupTable};
use cpplookup_hiergen::{families, random_hierarchy, RandomConfig};

fn bench_chg(c: &mut Criterion, name: &str, chg: &Chg) {
    let mut group = c.benchmark_group("full_table");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("eager", name), &(), |b, ()| {
        b.iter(|| LookupTable::build(chg))
    });
    group.bench_with_input(BenchmarkId::new("lazy_all", name), &(), |b, ()| {
        b.iter(|| {
            let mut lazy = LazyLookup::new(chg);
            let mut present = 0usize;
            for class in chg.classes() {
                for m in chg.member_ids() {
                    if lazy.entry(class, m).is_some() {
                        present += 1;
                    }
                }
            }
            present
        })
    });
    group.finish();
}

fn benches(c: &mut Criterion) {
    bench_chg(
        c,
        "realistic-500",
        &random_hierarchy(&RandomConfig::realistic(500, 1)),
    );
    bench_chg(
        c,
        "realistic-2000",
        &random_hierarchy(&RandomConfig::realistic(2000, 2)),
    );
    bench_chg(
        c,
        "clash-500",
        &random_hierarchy(&RandomConfig {
            classes: 500,
            extra_base_prob: 0.5,
            max_bases: 3,
            virtual_prob: 0.3,
            member_pool: 8,
            member_prob: 0.3,
            static_prob: 0.1,
            seed: 3,
        }),
    );
    bench_chg(
        c,
        "vdiamond-300",
        &families::stacked_diamonds(300, Inheritance::Virtual),
    );
}

criterion_group!(full_table, benches);
criterion_main!(full_table);
