//! Integration test of the online co-scheduling engine under a
//! 100-workflow arrival burst (ISSUE 1 acceptance criteria) and a
//! 100-workflow Poisson trace (ISSUE 2 acceptance criteria):
//!
//! * every emitted mapping passes `dhp_core::mapping::validate` against
//!   the shared cluster,
//! * leases never overlap — neither among workflows in service at the
//!   same instant nor, over time, on any single processor,
//! * the run is deterministic for a fixed seed,
//! * the fleet report carries sane throughput/stretch/utilisation,
//! * `fifo-backfill` serves the identical set with mean wait no worse
//!   than plain `fifo`, and every record carries a finite
//!   dedicated-cluster `baseline_makespan` backing the reported
//!   stretch.

use dhp_core::mapping::validate;
use dhp_online::{fit_cluster, serve, AdmissionPolicy, OnlineConfig, ServeOutcome};
use dhp_platform::configs;
use dhp_wfgen::arrivals::ArrivalProcess;
use dhp_wfgen::Family;
use std::sync::OnceLock;

const N: usize = 100;
const SEED: u64 = 2024;

fn run_with(
    policy: AdmissionPolicy,
    process: &ArrivalProcess,
) -> (dhp_platform::Cluster, ServeOutcome) {
    let subs = dhp_online::submission::stream(
        N,
        &[
            Family::Blast,
            Family::Seismology,
            Family::Genome,
            Family::Bwa,
        ],
        (20, 60),
        process,
        SEED,
    );
    let cluster = fit_cluster(&configs::default_cluster(), &subs, 1.05);
    let cfg = OnlineConfig {
        policy,
        ..OnlineConfig::default()
    };
    let out = serve(&cluster, subs, &cfg);
    (cluster, out)
}

fn burst_run(policy: AdmissionPolicy) -> (dhp_platform::Cluster, ServeOutcome) {
    run_with(policy, &ArrivalProcess::Burst { at: 0.0 })
}

fn poisson_run(policy: AdmissionPolicy) -> (dhp_platform::Cluster, ServeOutcome) {
    run_with(policy, &ArrivalProcess::Poisson { rate: 0.05 })
}

/// The FIFO burst run, shared by the tests that only *read* it (serving
/// is deterministic, so sharing cannot couple the tests).
fn burst_fifo() -> &'static (dhp_platform::Cluster, ServeOutcome) {
    static RUN: OnceLock<(dhp_platform::Cluster, ServeOutcome)> = OnceLock::new();
    RUN.get_or_init(|| burst_run(AdmissionPolicy::Fifo))
}

/// The Poisson runs (fifo and fifo-backfill), shared the same way.
fn poisson_pair() -> &'static [(dhp_platform::Cluster, ServeOutcome); 2] {
    static RUN: OnceLock<[(dhp_platform::Cluster, ServeOutcome); 2]> = OnceLock::new();
    RUN.get_or_init(|| {
        [
            poisson_run(AdmissionPolicy::Fifo),
            poisson_run(AdmissionPolicy::FifoBackfill),
        ]
    })
}

fn served_ids(out: &ServeOutcome) -> Vec<usize> {
    let mut ids: Vec<usize> = out.report.workflows.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    ids
}

#[test]
fn hundred_workflow_burst_all_served_and_valid() {
    let (cluster, out) = burst_fifo();
    let fleet = &out.report.fleet;
    assert_eq!(
        fleet.completed, N,
        "burst must be fully served (rejected: {:?})",
        out.report.rejected
    );
    assert_eq!(fleet.rejected, 0);
    assert_eq!(out.placements.len(), N);

    // Zero validation failures: every mapping is a valid DAGP-PM
    // solution against the *shared* cluster, and only uses its lease.
    for p in &out.placements {
        validate(&p.submission.instance.graph, cluster, &p.mapping)
            .unwrap_or_else(|e| panic!("workflow {} invalid: {e}", p.submission.id));
        for proc in p.mapping.proc_of_block.iter().flatten() {
            assert!(
                p.lease.contains(proc),
                "workflow {} mapped onto {proc} outside its lease",
                p.submission.id
            );
        }
    }
}

#[test]
fn hundred_workflow_burst_leases_never_overlap() {
    let (cluster, out) = burst_fifo();
    // Per processor, the time intervals of all workflows that leased it
    // must be pairwise disjoint.
    for proc in cluster.proc_ids() {
        let mut spans: Vec<(f64, f64, usize)> = out
            .placements
            .iter()
            .filter(|p| p.lease.contains(&proc))
            .map(|p| (p.start, p.finish, p.submission.id))
            .collect();
        spans.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in spans.windows(2) {
            assert!(
                w[1].0 >= w[0].1 - 1e-9,
                "processor {proc} leased to workflow {} while {} still held it \
                 ({:?} vs {:?})",
                w[1].2,
                w[0].2,
                w[1],
                w[0]
            );
        }
    }
}

#[test]
fn hundred_workflow_burst_is_deterministic() {
    let (_, a) = burst_fifo();
    let (_, b) = burst_run(AdmissionPolicy::Fifo);
    let b = &b;
    assert_eq!(a.report.to_json(), b.report.to_json());
    // Placements agree too (the report alone could mask lease diffs).
    for (x, y) in a.placements.iter().zip(&b.placements) {
        assert_eq!(x.submission.id, y.submission.id);
        assert_eq!(x.lease, y.lease);
        assert_eq!(x.start, y.start);
        assert_eq!(x.finish, y.finish);
    }
}

#[test]
fn hundred_workflow_burst_reports_sane_fleet_metrics() {
    let (cluster, out) = burst_fifo();
    let f = &out.report.fleet;
    assert!(f.horizon > 0.0);
    assert!((f.throughput - N as f64 / (f.horizon - f.window_start)).abs() < 1e-9);
    assert!(f.utilization > 0.0 && f.utilization <= 1.0 + 1e-9);
    assert!(f.mean_stretch > 0.0);
    assert!(f.max_stretch >= f.mean_stretch);
    assert!(f.mean_slowdown >= 1.0);
    assert!(f.max_slowdown >= f.mean_slowdown);
    assert!(f.mean_wait >= 0.0 && f.max_wait >= f.mean_wait);
    assert!(f.mean_lease >= 1.0 && f.mean_lease <= cluster.len() as f64);
    assert!(f.peak_concurrency >= 1 && f.peak_concurrency <= N);
    // A burst on a 36-processor cluster must actually co-schedule.
    assert!(
        f.peak_concurrency > 1,
        "burst never ran two workflows concurrently"
    );
}

#[test]
fn poisson_backfill_matches_fifo_served_set_with_no_worse_waits() {
    let [(_, fifo), (_, backfill)] = poisson_pair();

    // Backfilling must not introduce rejections or change the served
    // set — it only reorders admissions inside reservation holes.
    assert_eq!(fifo.report.fleet.rejected, 0);
    assert_eq!(backfill.report.fleet.rejected, 0);
    assert_eq!(served_ids(fifo), served_ids(backfill));

    assert!(
        backfill.report.fleet.mean_wait <= fifo.report.fleet.mean_wait + 1e-9,
        "backfill regressed mean wait: {} vs fifo {}",
        backfill.report.fleet.mean_wait,
        fifo.report.fleet.mean_wait
    );
}

#[test]
fn poisson_backfill_is_deterministic() {
    let (_, a) = &poisson_pair()[1];
    let (_, b) = poisson_run(AdmissionPolicy::FifoBackfill);
    let b = &b;
    assert_eq!(a.report.to_json(), b.report.to_json());
}

#[test]
fn poisson_records_carry_dedicated_cluster_baselines() {
    let (_, out) = &poisson_pair()[1];
    for r in &out.report.workflows {
        assert!(
            r.baseline_makespan.is_finite() && r.baseline_makespan > 0.0,
            "workflow {} lacks a dedicated-cluster baseline: {}",
            r.id,
            r.baseline_makespan
        );
        assert!(
            (r.stretch - r.response / r.baseline_makespan).abs() < 1e-12,
            "workflow {}: stretch not response/baseline",
            r.id
        );
        assert!(
            (r.slowdown - r.response / r.service).abs() < 1e-12,
            "workflow {}: slowdown not response/service",
            r.id
        );
        assert!(r.slowdown >= 1.0 - 1e-12);
    }
}

#[test]
fn every_policy_serves_the_burst_without_validation_failures() {
    for policy in AdmissionPolicy::ALL {
        // The FIFO run is shared; the other policies run fresh.
        let owned;
        let (cluster, out) = if policy == AdmissionPolicy::Fifo {
            let (c, o) = burst_fifo();
            (c, o)
        } else {
            owned = burst_run(policy);
            (&owned.0, &owned.1)
        };
        assert_eq!(
            out.report.fleet.completed,
            N,
            "policy {} lost workflows",
            policy.name()
        );
        for p in &out.placements {
            validate(&p.submission.instance.graph, cluster, &p.mapping).unwrap_or_else(|e| {
                panic!(
                    "policy {}: workflow {} invalid: {e}",
                    policy.name(),
                    p.submission.id
                )
            });
        }
    }
}

/// The adaptive-admission gates on the bursty repeat-heavy trace (500
/// submissions cycling 10 topologies, the paper's LessHet cluster at
/// its small size — memory rarely blocks a placement there, so the
/// head's reservation is the binding constraint): EASY's mean wait does
/// not exceed conservative backfilling's, elastic growth finishes the
/// trace no later than static leases do, and every run repeats byte
/// for byte.
#[test]
fn easy_and_elastic_growth_pay_off_on_the_repeat_heavy_burst() {
    use dhp_platform::configs::{cluster, ClusterKind, ClusterSize};
    let subs = dhp_online::submission::repeating_stream(
        10,
        500,
        &[Family::Blast, Family::Seismology, Family::Genome],
        (8, 80),
        &ArrivalProcess::Burst { at: 0.0 },
        11,
    );
    let fitted = fit_cluster(
        &cluster(ClusterKind::LessHet, ClusterSize::Small),
        &subs,
        1.05,
    );
    let run = |policy: AdmissionPolicy, elastic: Option<usize>| {
        let cfg = OnlineConfig {
            policy,
            elastic,
            ..OnlineConfig::default()
        };
        let report = serve(&fitted, subs.clone(), &cfg).report;
        let again = serve(&fitted, subs.clone(), &cfg).report;
        assert_eq!(
            report.to_json(),
            again.to_json(),
            "{} (elastic {elastic:?}) is not deterministic",
            policy.name()
        );
        report.fleet
    };
    let conservative = run(AdmissionPolicy::FifoBackfill, None);
    let easy = run(AdmissionPolicy::EasyBackfill, None);
    let elastic = run(AdmissionPolicy::FifoBackfill, Some(4));
    assert!(
        easy.mean_wait <= conservative.mean_wait + 1e-9,
        "easy-backfill regressed mean wait: {} vs {}",
        easy.mean_wait,
        conservative.mean_wait
    );
    assert!(elastic.lease_grown >= 1, "premise: a lease grew");
    assert!(
        elastic.horizon <= conservative.horizon + 1e-9,
        "elastic growth finished later than static leases: {} vs {}",
        elastic.horizon,
        conservative.horizon
    );
}
