//! Microbenchmark: the bottom-weight makespan engine (paper Eq. (1)–(2)),
//! the inner loop of Steps 3–4 and of Figs. 3–7, and the partition
//! renumbering behind every quotient it is asked about.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dhp_core::makespan::quotient_makespan;
use dhp_dag::builder;
use std::hint::black_box;

fn bench_quotient_makespan(c: &mut Criterion) {
    let mut group = c.benchmark_group("quotient_makespan");
    for &k in &[8usize, 36, 60, 200] {
        // a quotient-graph-shaped DAG with k blocks
        let q = builder::gnp_dag_weighted(k, 0.15, 7);
        let speeds: Vec<f64> = (0..k).map(|i| 1.0 + (i % 6) as f64 * 5.0).collect();
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| quotient_makespan(black_box(&q), black_box(&speeds), 1.0))
        });
    }
    group.finish();
}

fn bench_critical_path(c: &mut Criterion) {
    let q = builder::gnp_dag_weighted(60, 0.15, 3);
    let speeds: Vec<f64> = (0..60).map(|i| 1.0 + (i % 6) as f64 * 5.0).collect();
    c.bench_function("quotient_critical_path_60", |b| {
        b.iter(|| {
            dhp_core::makespan::quotient_critical_path(black_box(&q), black_box(&speeds), 1.0)
        })
    });
}

/// `Partition::from_raw` on 50 000 tasks spread over 36 block numbers:
/// the renumbering every dagP partition (and so every `k'` of a sweep)
/// ends with.
fn bench_partition_from_raw(c: &mut Criterion) {
    let raw: Vec<u32> = (0..50_000u32).map(|i| i * 17 % 36).collect();
    let mut group = c.benchmark_group("dag");
    group.bench_function("partition_from_raw/50000", |b| {
        b.iter(|| dhp_dag::Partition::from_raw(black_box(&raw)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_quotient_makespan,
    bench_critical_path,
    bench_partition_from_raw
);
criterion_main!(benches);
