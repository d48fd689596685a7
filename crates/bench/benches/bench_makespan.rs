//! Microbenchmark: the bottom-weight makespan engine (paper Eq. (1)–(2)),
//! the inner loop of Steps 3–4, the exact solver and Figs. 3–7, the
//! partition renumbering behind every quotient it is asked about, and
//! the quotient build itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dhp_dag::{builder, FlatQuotient, Partition, PassScratch};
use dhp_dagp::PartitionConfig;
use dhp_wfgen::{Family, WeightModel};
use std::hint::black_box;

/// A quotient-graph-shaped DAG with `k` blocks as a flat quotient (the
/// quotient of its partition into singletons), its nodes at six
/// different speeds.
fn gnp_quotient(k: usize, seed: u64) -> FlatQuotient {
    let g = builder::gnp_dag_weighted(k, 0.15, seed);
    let singletons: Vec<u32> = (0..k as u32).collect();
    let mut q = FlatQuotient::build(&g, &Partition::from_raw(&singletons));
    q.speed = (0..k).map(|i| 1.0 + (i % 6) as f64 * 5.0).collect();
    q
}

/// One index (out-edges, Kahn order, edge costs) and one relax (bottom
/// weights under the speeds): the makespan of a fresh quotient.
fn bench_quotient_makespan(c: &mut Criterion) {
    let mut group = c.benchmark_group("quotient_makespan");
    for &k in &[8usize, 36, 60, 200] {
        let q = gnp_quotient(k, 7);
        let mut pass = PassScratch::default();
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| pass.bottom_weights(black_box(&q), 1.0))
        });
    }
    group.finish();
}

/// The critical path of a relaxed quotient.
fn bench_critical_path(c: &mut Criterion) {
    let q = gnp_quotient(60, 3);
    let mut pass = PassScratch::default();
    let mut path = Vec::new();
    c.bench_function("quotient_critical_path_60", |b| {
        b.iter(|| {
            pass.bottom_weights(black_box(&q), 1.0);
            pass.critical_path(black_box(&q), &mut path);
            path.len()
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
        b.iter(|| Partition::from_raw(black_box(&raw)))
    });
    group.finish();
}

/// `FlatQuotient::build` of a dagP partition: what every `k'` attempt
/// of a sweep pays once for its block set. A 10 000-task fan-out
/// workflow at 36 and 400 blocks (the first coalesces in a `k × k`
/// table, the second by source) and a 60-task chain-shaped one at 36
/// blocks, where the crossing edges are few against the table.
fn bench_quotient_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("quotient_build");
    let cases = [
        ("fanout10000_k36", Family::Blast, 10_000, 36),
        ("chain60_k36", Family::Epigenomics, 60, 36),
        ("fanout10000_k400", Family::Blast, 10_000, 400),
    ];
    for (name, family, tasks, k) in cases {
        let g = family.generate(tasks, &WeightModel::paper(), 9);
        let partition = dhp_dagp::partition(&g, k, &PartitionConfig::default());
        group.bench_function(name, |b| {
            b.iter(|| FlatQuotient::build(black_box(&g), black_box(&partition)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_quotient_makespan,
    bench_critical_path,
    bench_partition_from_raw,
    bench_quotient_build
);
criterion_main!(benches);
