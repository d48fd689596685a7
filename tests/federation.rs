//! Integration tests of multi-cluster federation (ISSUE 5 acceptance
//! criteria):
//!
//! * federated runs are byte-identically deterministic under every
//!   routing policy;
//! * per-cluster metrics sum to the merged fleet metrics, and every
//!   record carries the member `cluster_id` that served it;
//! * the shared [`SolveCache`] hits across same-shape leases on
//!   different members;
//! * **pinning**: `least-loaded` routing over two members never waits
//!   longer (mean wait) than a single member serving the same burst;
//! * placements stay valid and disjoint *per member* — federation never
//!   leases across cluster boundaries;
//! * a solve one member makes is a hit for a sibling admitting the same
//!   recipe at the same instant.

use dhp_online::{
    fit_cluster, serve, serve_federation, serve_federation_with_cache, OnlineConfig, RoutingPolicy,
    SolveCache,
};
use dhp_platform::configs::{cluster, ClusterKind, ClusterSize};
use dhp_platform::Federation;
use dhp_wfgen::arrivals::ArrivalProcess;
use dhp_wfgen::Family;

fn burst_trace(
    n: usize,
) -> (
    Federation,
    dhp_platform::Cluster,
    Vec<dhp_online::Submission>,
) {
    let subs = dhp_online::submission::repeating_stream(
        6,
        n,
        &[Family::Blast, Family::Seismology],
        (10, 50),
        &ArrivalProcess::Burst { at: 0.0 },
        11,
    );
    let member = fit_cluster(
        &cluster(ClusterKind::LessHet, ClusterSize::Small),
        &subs,
        1.05,
    );
    (Federation::homogeneous(member.clone(), 2), member, subs)
}

#[test]
fn federation_is_deterministic_under_every_routing_policy() {
    let (fed, _, subs) = burst_trace(40);
    for routing in RoutingPolicy::ALL {
        let a = serve_federation(&fed, subs.clone(), &OnlineConfig::default(), routing);
        let b = serve_federation(&fed, subs.clone(), &OnlineConfig::default(), routing);
        assert_eq!(
            a.report.to_json(),
            b.report.to_json(),
            "{} diverged across identical runs",
            routing.name()
        );
    }
}

#[test]
fn least_loaded_two_members_beat_one_cluster_on_mean_wait() {
    // The acceptance pinning test: doubling capacity under least-loaded
    // routing must cut (or at worst match) the single-cluster mean wait
    // on the bursty acceptance trace.
    let (fed, member, subs) = burst_trace(60);
    let single = serve(&member, subs.clone(), &OnlineConfig::default());
    let federated = serve_federation(
        &fed,
        subs,
        &OnlineConfig::default(),
        RoutingPolicy::LeastLoaded,
    );
    assert_eq!(
        single.report.fleet.completed + single.report.fleet.rejected,
        federated.report.fleet.completed + federated.report.fleet.rejected,
        "the federation dropped or duplicated work"
    );
    assert!(
        federated.report.fleet.mean_wait <= single.report.fleet.mean_wait + 1e-9,
        "least-loaded federation waited longer than one member: {} vs {}",
        federated.report.fleet.mean_wait,
        single.report.fleet.mean_wait
    );
}

#[test]
fn per_cluster_reports_partition_the_fleet() {
    let (fed, _, subs) = burst_trace(40);
    let n = subs.len();
    for routing in RoutingPolicy::ALL {
        let out = serve_federation(&fed, subs.clone(), &OnlineConfig::default(), routing);
        let fleet = &out.report.fleet;
        // Counters sum member-wise.
        assert_eq!(
            fleet.completed,
            out.report
                .clusters
                .iter()
                .map(|c| c.fleet.completed)
                .sum::<usize>()
        );
        assert_eq!(
            fleet.rejected,
            out.report
                .clusters
                .iter()
                .map(|c| c.fleet.rejected)
                .sum::<usize>()
        );
        assert_eq!(
            fleet.solve_cache_hits + fleet.solve_cache_misses,
            out.report
                .clusters
                .iter()
                .map(|c| c.fleet.solve_cache_hits + c.fleet.solve_cache_misses)
                .sum::<u64>()
        );
        assert_eq!(fleet.completed + fleet.rejected, n);
        // Every submission served exactly once, stamped with its member.
        let mut ids: Vec<usize> = Vec::new();
        for (i, c) in out.report.clusters.iter().enumerate() {
            for r in &c.workflows {
                assert_eq!(r.cluster_id, Some(i), "{}", routing.name());
                ids.push(r.id);
            }
            for r in &c.rejected {
                assert_eq!(r.cluster_id, Some(i));
                ids.push(r.id);
            }
        }
        ids.sort_unstable();
        assert_eq!(ids, (0..n).collect::<Vec<_>>(), "{}", routing.name());
    }
}

#[test]
fn placements_stay_valid_and_disjoint_inside_each_member() {
    let (fed, _, subs) = burst_trace(30);
    let out = serve_federation(&fed, subs, &OnlineConfig::default(), RoutingPolicy::BestFit);
    for (i, outcome) in out.outcomes.iter().enumerate() {
        let member = fed.cluster(i);
        for p in &outcome.placements {
            dhp_core::mapping::validate(&p.submission.instance.graph, member, &p.mapping)
                .expect("placement valid against its member cluster");
        }
        // Per-processor service intervals never overlap inside a member.
        for proc in member.proc_ids() {
            let mut spans: Vec<(f64, f64)> = outcome
                .report
                .workflows
                .iter()
                .filter(|r| r.lease.contains(&proc.0))
                .map(|r| (r.start, r.finish))
                .collect();
            spans.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in spans.windows(2) {
                assert!(
                    w[1].0 >= w[0].1 - 1e-9,
                    "member {i} processor {proc} double-leased: {w:?}"
                );
            }
        }
    }
}

#[test]
fn shared_cache_carries_solves_across_members_and_runs() {
    let (fed, _, subs) = burst_trace(30);
    // Within one run: repeats and same-shape leases on the *other*
    // member hit the shared cache.
    let first = serve_federation(
        &fed,
        subs.clone(),
        &OnlineConfig::default(),
        RoutingPolicy::RoundRobin,
    );
    assert!(first.report.fleet.solve_cache_hits > 0);
    // Across runs: a caller-owned cache warm-started by one federated
    // run answers the next run's probes.
    let cache = SolveCache::new();
    let cold = serve_federation_with_cache(
        &fed,
        subs.clone(),
        &OnlineConfig::default(),
        RoutingPolicy::RoundRobin,
        &cache,
    );
    let warm = serve_federation_with_cache(
        &fed,
        subs,
        &OnlineConfig::default(),
        RoutingPolicy::RoundRobin,
        &cache,
    );
    assert!(warm.report.fleet.solve_cache_misses < cold.report.fleet.solve_cache_misses);
    // The scheduling outcome is identical either way: the cache only
    // changes solver effort.
    let strip = |r: &dhp_online::FederationReport| {
        let mut r = r.clone();
        r.fleet.clear_solve_stats();
        for c in &mut r.clusters {
            c.fleet.clear_solve_stats();
        }
        r.to_json()
    };
    assert_eq!(strip(&cold.report), strip(&warm.report));
}

#[test]
fn same_instant_siblings_share_one_solve() {
    // One recipe submitted twice at t = 0 to two identical members,
    // round-robin: one copy each, both admitted at the same event on
    // identically shaped leases. The member stepping second finds the
    // first member's solve and simulation in the shared cache, so every
    // solver and simulator run of the admission happens once.
    let subs = dhp_online::submission::repeating_stream(
        1,
        2,
        &[Family::Seismology],
        (30, 30),
        &ArrivalProcess::Burst { at: 0.0 },
        5,
    );
    let member = fit_cluster(
        &cluster(ClusterKind::LessHet, ClusterSize::Small),
        &subs,
        1.05,
    );
    let fed = Federation::homogeneous(member, 2);
    let out = serve_federation(
        &fed,
        subs,
        &OnlineConfig::default(),
        RoutingPolicy::RoundRobin,
    );
    let [first, second] = [&out.report.clusters[0], &out.report.clusters[1]].map(|c| &c.fleet);
    assert_eq!((first.completed, second.completed), (1, 1));
    assert_eq!(out.report.clusters[0].workflows[0].start, 0.0);
    assert_eq!(out.report.clusters[1].workflows[0].start, 0.0);
    // One lease solve and one simulation, made by the first member;
    // the second member's probes for them are hits. (The baseline
    // batch adds one solve, on the first member, and one hit.)
    assert_eq!(
        (
            first.solve_cache_misses - first.baseline_solves,
            first.sim_cache_misses
        ),
        (1, 1)
    );
    assert_eq!((second.solve_cache_misses, second.sim_cache_misses), (0, 0));
    assert_eq!((second.solve_cache_hits, second.sim_cache_hits), (2, 1));
}
