//! Microbenchmark: the multilevel acyclic partitioner (Step 1 / FitBlock
//! substrate).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dhp_dagp::PartitionConfig;
use dhp_wfgen::{Family, WeightModel};
use std::hint::black_box;

fn bench_partition(c: &mut Criterion) {
    let mut group = c.benchmark_group("dagp_partition");
    group.sample_size(10);
    for &n in &[1_000usize, 4_000] {
        let g = Family::Genome.generate(n, &WeightModel::paper(), 9);
        for &k in &[2usize, 8, 36] {
            group.bench_with_input(BenchmarkId::new(format!("n{n}"), k), &k, |b, &k| {
                b.iter(|| dhp_dagp::partition(black_box(&g), k, &PartitionConfig::default()))
            });
        }
    }
    group.finish();
}

fn bench_bisect(c: &mut Criterion) {
    let g = Family::Epigenomics.generate(2_000, &WeightModel::paper(), 9);
    c.bench_function("dagp_bisect_epigenomics_2000", |b| {
        b.iter(|| dhp_dagp::bisect(black_box(&g), &PartitionConfig::default()))
    });
}

/// The coarsening hierarchy a `k'` sweep builds once, before its
/// workers start (for the smallest part count): matching and contracting
/// level after level, down from 10 000 tasks.
fn bench_coarsen(c: &mut Criterion) {
    let mut group = c.benchmark_group("dagp_coarsen");
    group.sample_size(10);
    for (name, family) in [("blast", Family::Blast), ("genome", Family::Genome)] {
        let g = family.generate(10_000, &WeightModel::paper(), 9);
        group.bench_function(format!("{name}_10000"), |b| {
            b.iter(|| dhp_dagp::coarsen_for(black_box(&g), 2, &PartitionConfig::default()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_partition, bench_bisect, bench_coarsen);
criterion_main!(benches);
