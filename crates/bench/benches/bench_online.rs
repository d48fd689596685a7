//! Online co-scheduling engine throughput: wall-clock of serving a
//! burst of workflows end-to-end (admission + per-lease DagHetPart +
//! discrete-event execution), per policy — plus a Poisson trace
//! contrasting fifo vs fifo-backfill and load-aware lease sizing, and
//! a repeat-heavy trace contrasting the content-addressed solve cache
//! against `--no-solve-cache` (`bench_solve_cache`), and the two warm
//! serving paths where the engine's own bookkeeping is the whole cost
//! (`bench_warm_serving`), what one arrival's graph costs the engine the
//! first time the call sees it (`bench_arrival_facts`), and what
//! one warm admission pass over a blocked backfill window costs at
//! growing queue depth and behind a growing tombstoned prefix
//! (`bench_backfill_window`), and what writing and parsing one deep
//! backlog's JSON report costs (`bench_report`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dhp_online::admission::{BackfillWindow, WarmProbeCase, WarmProbes};
use dhp_online::{
    fit_cluster, serve, serve_federation_with_cache, serve_with_cache, AdmissionPolicy,
    LeaseSizing, OnlineConfig, RoutingPolicy, ServeReport, SolveCache,
};
use dhp_platform::configs::{self, ClusterKind, ClusterSize};
use dhp_platform::Federation;
use dhp_wfgen::arrivals::ArrivalProcess;
use dhp_wfgen::{Family, WorkflowInstance};
use std::hint::black_box;

fn bench_serve(c: &mut Criterion) {
    let mut group = c.benchmark_group("online");
    group.sample_size(10);
    for &n in &[10usize, 30] {
        let subs = dhp_online::submission::stream(
            n,
            &[Family::Blast, Family::Seismology, Family::Genome],
            (20, 60),
            &ArrivalProcess::Burst { at: 0.0 },
            42,
        );
        let cluster = fit_cluster(&configs::default_cluster(), &subs, 1.05);
        for policy in AdmissionPolicy::ALL {
            let cfg = OnlineConfig {
                policy,
                ..OnlineConfig::default()
            };
            group.bench_with_input(
                BenchmarkId::new(format!("burst/{}", policy.name()), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        serve(
                            black_box(&cluster),
                            black_box(subs.clone()),
                            black_box(&cfg),
                        )
                    })
                },
            );
        }
    }
    group.finish();
}

/// Admission-layer cost of the adaptive-admission features on a
/// queueing Poisson trace: conservative backfilling (reservation scans
/// and constrained grants), aggressive EASY backfilling (once-per-event
/// reservations and carve-out checks), queue-length-aware lease sizing,
/// and elastic lease growth (suffix re-solves on completion events).
fn bench_backfill_and_load_aware(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_poisson");
    group.sample_size(10);
    let n = 30usize;
    let subs = dhp_online::submission::stream(
        n,
        &[Family::Blast, Family::Seismology, Family::Genome],
        (20, 60),
        &ArrivalProcess::Poisson { rate: 0.2 },
        42,
    );
    let cluster = fit_cluster(&configs::default_cluster(), &subs, 1.05);
    let variants: [(&str, OnlineConfig); 5] = [
        (
            "fifo",
            OnlineConfig {
                policy: AdmissionPolicy::Fifo,
                ..OnlineConfig::default()
            },
        ),
        (
            "fifo-backfill",
            OnlineConfig {
                policy: AdmissionPolicy::FifoBackfill,
                ..OnlineConfig::default()
            },
        ),
        (
            "fifo-backfill+load-aware",
            OnlineConfig {
                policy: AdmissionPolicy::FifoBackfill,
                lease: LeaseSizing {
                    shrink_under_load: true,
                    ..LeaseSizing::default()
                },
                ..OnlineConfig::default()
            },
        ),
        (
            "easy-backfill",
            OnlineConfig {
                policy: AdmissionPolicy::EasyBackfill,
                ..OnlineConfig::default()
            },
        ),
        (
            "fifo-backfill+elastic",
            OnlineConfig {
                policy: AdmissionPolicy::FifoBackfill,
                elastic: Some(4),
                ..OnlineConfig::default()
            },
        ),
    ];
    for (name, cfg) in &variants {
        group.bench_with_input(BenchmarkId::new(*name, n), &n, |b, _| {
            b.iter(|| serve(black_box(&cluster), black_box(subs.clone()), black_box(cfg)))
        });
    }
    group.finish();
}

/// ISSUE-3 headline: a repeat-heavy trace (many submissions cycling
/// through few unique topologies — the shape of production serving
/// traffic) with the content-addressed solve cache on vs off. With the
/// cache, admission cost collapses to ~one solver run per *unique*
/// topology; without it, every submission pays a fresh solve plus a
/// whole-cluster baseline solve.
fn bench_solve_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("solve_cache");
    group.sample_size(10);
    let unique = 10usize;
    for &n in &[60usize, 200] {
        let subs = dhp_online::submission::repeating_stream(
            unique,
            n,
            &[Family::Blast, Family::Seismology, Family::Genome],
            (26, 50),
            &ArrivalProcess::Burst { at: 0.0 },
            11,
        );
        let cluster = fit_cluster(&configs::default_cluster(), &subs, 1.05);
        let cfg = OnlineConfig::default();
        let caches = [
            ("cached", SolveCache::new as fn() -> SolveCache),
            ("uncached", SolveCache::disabled),
        ];
        for (name, cache) in caches {
            group.bench_with_input(
                BenchmarkId::new(format!("repeat{unique}/{name}"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        serve_with_cache(
                            black_box(&cluster),
                            black_box(subs.clone()),
                            black_box(&cfg),
                            &cache(),
                        )
                    })
                },
            );
        }
    }
    group.finish();
}

/// The warm serving path, where every solve and every simulation is a
/// cache hit and what is left is the engine itself: 2000 submissions
/// cycling 60 recipes, one arrival every 25 time units (an overloaded,
/// ever-deepening queue), on caches filled by an untimed first run. The
/// single-cluster case runs conservative backfilling; the fleet case
/// spreads the same trace over 16 members by least-loaded routing. The
/// shape of the ruler's `online_warm_backlog` and `federation_16` at
/// `cargo bench` size. (The timed closure also clones the trace, as
/// every case in this file does.)
fn bench_warm_serving(c: &mut Criterion) {
    let subs = dhp_online::submission::repeating_stream(
        60,
        2000,
        &[Family::Blast, Family::Seismology, Family::Genome],
        (8, 48),
        &ArrivalProcess::Uniform { interval: 25.0 },
        17,
    );
    let member = fit_cluster(
        &configs::cluster(ClusterKind::LessHet, ClusterSize::Small),
        &subs,
        1.05,
    );

    let mut group = c.benchmark_group("online");
    group.sample_size(10);
    let cfg = OnlineConfig {
        policy: AdmissionPolicy::FifoBackfill,
        ..OnlineConfig::default()
    };
    let cache = SolveCache::new();
    serve_with_cache(&member, subs.clone(), &cfg, &cache);
    group.bench_function("warm_backlog/2000x60recipes", |b| {
        b.iter(|| {
            serve_with_cache(
                black_box(&member),
                black_box(subs.clone()),
                black_box(&cfg),
                &cache,
            )
        })
    });
    group.finish();

    let mut group = c.benchmark_group("federation");
    group.sample_size(10);
    let fleet = Federation::homogeneous(member, 16);
    let cfg = OnlineConfig::default();
    let cache = SolveCache::new();
    serve_federation_with_cache(
        &fleet,
        subs.clone(),
        &cfg,
        RoutingPolicy::LeastLoaded,
        &cache,
    );
    group.bench_function("warm_16_members/2000", |b| {
        b.iter(|| {
            serve_federation_with_cache(
                black_box(&fleet),
                black_box(subs.clone()),
                black_box(&cfg),
                RoutingPolicy::LeastLoaded,
                &cache,
            )
        })
    });
    group.finish();
}

/// The report of one 5,600-submission backlog call (the size of one
/// `online_warm_backlog` call in `benchmark/`, whose warm reports differ
/// only in their cache counters), written as the pretty JSON
/// `ServeReport::to_json` returns and parsed back.
fn bench_report(c: &mut Criterion) {
    let subs = dhp_online::submission::repeating_stream(
        60,
        5600,
        &[Family::Blast, Family::Seismology, Family::Genome],
        (8, 48),
        &ArrivalProcess::Uniform { interval: 25.0 },
        17,
    );
    let member = fit_cluster(
        &configs::cluster(ClusterKind::LessHet, ClusterSize::Small),
        &subs,
        1.05,
    );
    let cfg = OnlineConfig {
        policy: AdmissionPolicy::FifoBackfill,
        ..OnlineConfig::default()
    };
    let report = serve(&member, subs, &cfg).report;
    let json = report.to_json();

    let mut group = c.benchmark_group("report");
    group.sample_size(10);
    let records = report.workflows.len() + report.rejected.len();
    group.bench_with_input(BenchmarkId::new("to_json", records), &records, |b, _| {
        b.iter(|| black_box(&report).to_json())
    });
    group.bench_with_input(BenchmarkId::new("from_str", records), &records, |b, _| {
        b.iter(|| serde_json::from_str::<ServeReport>(black_box(&json)))
    });
    group.finish();
}

/// What the serve loop's arrival table pays the first time a call sees
/// a graph: its three facts (total work, hottest task, fingerprint). A
/// repeat shares its graph and is recognised by the graph's address,
/// one `HashMap` probe that walks nothing.
fn bench_arrival_facts(c: &mut Criterion) {
    let mut group = c.benchmark_group("arrival_facts");
    for family in [Family::Blast, Family::Seismology, Family::Genome] {
        for tasks in [8usize, 28, 48] {
            let g = WorkflowInstance::simulated(family, tasks, 17).graph;
            group.bench_with_input(
                BenchmarkId::new(format!("first_sight/{}", family.name()), tasks),
                &tasks,
                |b, _| {
                    b.iter(|| {
                        let g = black_box(&g);
                        (
                            g.total_work(),
                            dhp_core::fitting::max_task_requirement(g),
                            g.fingerprint(),
                        )
                    })
                },
            );
        }
    }
    group.finish();
}

/// One warm admission pass over a blocked backfill window with `depth`
/// candidates queued behind the head (`BackfillWindow`): sixteen of
/// them, spread over the queue, are worth a probe and overshoot or wait;
/// every other one has too much work for the hole. The pass jumps over
/// those instead of walking past them, so its cost should stay roughly
/// flat from 256 to 16 384 queued.
///
/// `dead_prefix/<dead>` is the deepest window behind `dead` tombstones
/// (`BackfillWindow::with_dead_prefix`): the pass starts at the first
/// live slot, so its cost should not grow with the prefix either.
fn bench_backfill_window(c: &mut Criterion) {
    let mut group = c.benchmark_group("admission_pass");
    let sizes = [256usize, 2048, 16384];
    for depth in sizes {
        let mut window = BackfillWindow::new(depth);
        group.bench_with_input(
            BenchmarkId::new("backfill_window", depth),
            &depth,
            |b, _| b.iter(|| window.pass()),
        );
    }
    for dead in sizes {
        let mut window = BackfillWindow::with_dead_prefix(dead, sizes[2]);
        group.bench_with_input(BenchmarkId::new("dead_prefix", dead), &dead, |b, _| {
            b.iter(|| window.pass())
        });
    }
    group.finish();
}

/// One warm admission probe of each outcome (`WarmProbes`): the
/// cost every backfill candidate pays per event on a warm cache.
/// `overshoot` places but finishes past the reservation, `wait` finds
/// a memoized `NoSolution` on every lease size, `grant` also builds
/// the grant (and drops it).
fn bench_warm_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("solve_cache");
    let mut probes = WarmProbes::new();
    for (name, case) in [
        ("overshoot", WarmProbeCase::Overshoot),
        ("wait", WarmProbeCase::Wait),
        ("grant", WarmProbeCase::Grant),
    ] {
        group.bench_function(format!("warm_probe/{name}"), |b| {
            b.iter(|| probes.probe(black_box(case)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_serve,
    bench_backfill_and_load_aware,
    bench_solve_cache,
    bench_warm_serving,
    bench_report,
    bench_arrival_facts,
    bench_backfill_window,
    bench_warm_probe
);
criterion_main!(benches);
