//! Integration tests of the content-addressed solve cache + parallel
//! baseline pipeline (ISSUE 3 acceptance criteria):
//!
//! * caching changes **nothing** about scheduling: cache-on and
//!   `--no-solve-cache` runs produce byte-identical JSON reports across
//!   {burst, poisson, uniform} × all five admission policies, once the
//!   solver-effort counters (the one thing caching exists to change)
//!   are normalised;
//! * a repeat-heavy 500-submission trace with ≤ 10 unique topologies
//!   performs at most 2× unique-topology solver invocations, counted
//!   via the report's cache statistics;
//! * a shared [`SolveCache`] carries solves across whole runs.

use dhp_online::{
    serve, serve_with_cache, AdmissionPolicy, OnlineConfig, ServeOutcome, SolveCache, Submission,
};
use dhp_platform::{Cluster, Processor};
use dhp_wfgen::arrivals::ArrivalProcess;
use dhp_wfgen::Family;

fn small_cluster() -> Cluster {
    Cluster::new(
        vec![
            Processor::new("big", 4.0, 600.0),
            Processor::new("mid", 2.0, 400.0),
            Processor::new("mid", 2.0, 400.0),
            Processor::new("sml", 1.0, 250.0),
        ],
        1.0,
    )
}

fn run(
    subs: Vec<Submission>,
    cluster: &Cluster,
    policy: AdmissionPolicy,
    cached: bool,
) -> ServeOutcome {
    let cfg = OnlineConfig {
        policy,
        ..OnlineConfig::default()
    };
    let cache = if cached {
        SolveCache::new()
    } else {
        SolveCache::disabled()
    };
    serve_with_cache(cluster, subs, &cfg, &cache)
}

/// JSON of the report with the solver-effort counters zeroed: the only
/// fields the cache is allowed to change.
fn normalized_json(out: &ServeOutcome) -> String {
    let mut report = out.report.clone();
    report.fleet.clear_solve_stats();
    report.to_json()
}

#[test]
fn cached_and_uncached_runs_schedule_byte_identically() {
    let cluster = small_cluster();
    let processes = [
        ArrivalProcess::Burst { at: 0.0 },
        ArrivalProcess::Poisson { rate: 0.05 },
        ArrivalProcess::Uniform { interval: 10.0 },
    ];
    for process in &processes {
        let subs = dhp_online::submission::stream(
            8,
            &[Family::Blast, Family::Seismology],
            (20, 40),
            process,
            2024,
        );
        for policy in AdmissionPolicy::ALL {
            let cached = run(subs.clone(), &cluster, policy, true);
            let uncached = run(subs.clone(), &cluster, policy, false);
            assert_eq!(
                normalized_json(&cached),
                normalized_json(&uncached),
                "{process:?} under {} schedules differently with the cache on",
                policy.name()
            );
            // The counters themselves behave as advertised.
            assert_eq!(uncached.report.fleet.solve_cache_hits, 0);
            assert!(uncached.report.fleet.solve_cache_misses > 0);
            assert!(
                cached.report.fleet.solve_cache_misses <= uncached.report.fleet.solve_cache_misses,
                "caching increased solver invocations under {}",
                policy.name()
            );
        }
    }
}

#[test]
fn repeating_trace_is_also_byte_identical_cached_vs_uncached() {
    let cluster = small_cluster();
    let subs = dhp_online::submission::repeating_stream(
        6,
        60,
        &[Family::Blast, Family::Seismology],
        (20, 40),
        &ArrivalProcess::Poisson { rate: 0.1 },
        7,
    );
    let cached = run(subs.clone(), &cluster, AdmissionPolicy::Fifo, true);
    let uncached = run(subs, &cluster, AdmissionPolicy::Fifo, false);
    assert_eq!(normalized_json(&cached), normalized_json(&uncached));
    // Repeat traffic is where the cache pays: far fewer solver runs.
    assert!(
        cached.report.fleet.solve_cache_misses * 2 < uncached.report.fleet.solve_cache_misses,
        "cache saved too little on a repeat trace: {} vs {}",
        cached.report.fleet.solve_cache_misses,
        uncached.report.fleet.solve_cache_misses
    );
}

/// The repeat-heavy acceptance trace: 500 submissions cycling through
/// 10 unique topologies on a homogeneous cluster (so every 2-processor
/// lease has the same shape signature). Admission must cost about one
/// solver run per *unique topology*, not per submission.
#[test]
fn five_hundred_submission_repeat_trace_solves_per_unique_topology() {
    const UNIQUE: usize = 10;
    const N: usize = 500;
    // Task counts in 26..=50 target exactly 2 processors under the
    // default lease sizing (25 tasks/proc), so every lease carved from
    // the homogeneous cluster shares one shape signature.
    let subs = dhp_online::submission::repeating_stream(
        UNIQUE,
        N,
        &[Family::Blast, Family::Seismology, Family::Genome],
        (26, 50),
        &ArrivalProcess::Burst { at: 0.0 },
        11,
    );
    let mut fps: Vec<u64> = subs
        .iter()
        .map(|s| s.instance.graph.fingerprint())
        .collect();
    fps.sort_unstable();
    fps.dedup();
    let unique = fps.len();
    assert!(unique <= UNIQUE, "pool larger than requested");

    // Homogeneous cluster, every processor roomy enough for any whole
    // workflow: no lease escalation, no rejections.
    let roomy = subs
        .iter()
        .map(|s| {
            let g = &s.instance.graph;
            g.node_ids().map(|u| g.task_requirement(u)).sum::<f64>()
        })
        .fold(0.0f64, f64::max);
    let cluster = Cluster::new(vec![Processor::new("node", 1.0, roomy * 1.1); 8], 1.0);

    let out = run(subs, &cluster, AdmissionPolicy::Fifo, true);
    let f = &out.report.fleet;
    assert_eq!(f.completed, N, "repeat trace dropped work");
    assert_eq!(f.rejected, 0);

    // The acceptance bound: ≤ 2× unique-topology solver invocations
    // (one lease solve + one dedicated-baseline solve per topology).
    assert!(
        f.solve_cache_misses <= 2 * unique as u64,
        "{} solver runs for {unique} unique topologies",
        f.solve_cache_misses
    );
    assert_eq!(f.baseline_solves, unique as u64);
    // Everything else was a replay.
    assert!(
        f.solve_cache_hits >= (N - 2 * unique) as u64,
        "only {} hits across {N} submissions",
        f.solve_cache_hits
    );
    // Deferred baselines still land on every record.
    for r in &out.report.workflows {
        assert!(r.baseline_makespan.is_finite() && r.baseline_makespan > 0.0);
        assert!((r.stretch - r.response / r.baseline_makespan).abs() < 1e-12);
    }
}

#[test]
fn a_shared_cache_carries_solves_across_runs() {
    let cluster = small_cluster();
    let subs = dhp_online::submission::stream(
        6,
        &[Family::Blast],
        (20, 40),
        &ArrivalProcess::Burst { at: 0.0 },
        3,
    );
    let cfg = OnlineConfig::default();
    let cache = SolveCache::new();
    let first = serve_with_cache(&cluster, subs.clone(), &cfg, &cache);
    let second = serve_with_cache(&cluster, subs.clone(), &cfg, &cache);
    // Same trace, warm cache: the second run never invokes a solver.
    assert!(first.report.fleet.solve_cache_misses > 0);
    assert_eq!(second.report.fleet.solve_cache_misses, 0);
    assert_eq!(second.report.fleet.baseline_solves, 0);
    // And the outcome is still the same report.
    assert_eq!(normalized_json(&first), normalized_json(&second));
    // A cold-cache run agrees too (warm entries are pure replays).
    let cold = serve(&cluster, subs, &cfg);
    assert_eq!(normalized_json(&cold), normalized_json(&second));
}
