//! Integration gate for fleet elasticity (ISSUE 6 acceptance
//! criteria): a two-member federation under a bursty trace with a
//! member **failing at peak load**, in both failure modes:
//!
//! * the fleet keeps serving — completions continue after the failure
//!   instant on the surviving member;
//! * **exact partition** — every submission ends in exactly one
//!   terminal class (`completed`, `rejected`, `lost`), the merged
//!   fleet counters are the exact per-member sums, and no id is
//!   double-counted between `lost` and `completed`;
//! * chaos runs are byte-identically deterministic;
//! * a member **joining** after the failure strictly improves the mean
//!   wait over the fail-only run (the Join-rebalancing acceptance
//!   gate);
//! * every rejection reason a membership plan can cause is recorded
//!   with its text, its member and `wait = rejected_at - arrival`.

use dhp_online::submission::single_task;
use dhp_online::{
    fit_cluster, serve_federation_chaos, FailureMode, MembershipPlan, OnlineConfig, RoutingPolicy,
    Submission,
};
use dhp_platform::configs::{cluster, ClusterKind, ClusterSize};
use dhp_platform::{Cluster, ClusterSpec, Federation, MemberSpec, Processor};
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

/// A fail event pinned mid-serve: a burst at t=0 has every queue at
/// its deepest early on, so t=5 tears down in-service work for sure.
fn fail_plan(mode: FailureMode) -> MembershipPlan {
    MembershipPlan::new().fail(1, 5.0, mode)
}

#[test]
fn fleet_keeps_serving_through_a_peak_failure_in_both_modes() {
    let (fed, _, subs) = burst_trace(40);
    for mode in [FailureMode::Requeue, FailureMode::Lost] {
        let out = serve_federation_chaos(
            &fed,
            subs.clone(),
            &OnlineConfig::default(),
            RoutingPolicy::LeastLoaded,
            &fail_plan(mode),
        )
        .unwrap();
        let f = &out.report.fleet;

        // The fleet keeps serving: work completes *after* the failure
        // instant, on the surviving member.
        assert!(
            out.report.clusters[0]
                .workflows
                .iter()
                .any(|r| r.finish > 5.0),
            "{}: no completion after the failure instant",
            mode.name()
        );
        assert!(
            f.completed > 0,
            "{}: the fleet stopped serving entirely",
            mode.name()
        );

        // Exact partition: every submission in exactly one terminal
        // class, fleet counters the exact per-member sums.
        assert_eq!(
            f.completed + f.rejected + f.lost,
            subs.len(),
            "{}: the terminal classes do not partition the stream",
            mode.name()
        );
        let sum_completed: usize = out.report.clusters.iter().map(|c| c.fleet.completed).sum();
        let sum_rejected: usize = out.report.clusters.iter().map(|c| c.fleet.rejected).sum();
        let sum_lost: usize = out.report.clusters.iter().map(|c| c.fleet.lost).sum();
        assert_eq!(
            (f.completed, f.rejected, f.lost),
            (sum_completed, sum_rejected, sum_lost),
            "{}: merged counters are not the per-member sums",
            mode.name()
        );

        // No id in two classes — in particular never both lost and
        // completed (the double-count the un-credit accounting guards).
        let mut ids: Vec<usize> = out
            .report
            .clusters
            .iter()
            .flat_map(|c| {
                c.workflows
                    .iter()
                    .map(|r| r.id)
                    .chain(c.rejected.iter().map(|r| r.id))
                    .chain(c.lost.iter().map(|r| r.id))
            })
            .collect();
        ids.sort_unstable();
        let deduped = {
            let mut d = ids.clone();
            d.dedup();
            d
        };
        assert_eq!(ids, deduped, "{}: an id appears twice", mode.name());
        assert_eq!(
            ids,
            (0..subs.len()).collect::<Vec<_>>(),
            "{}: a submission vanished",
            mode.name()
        );

        // Requeue accounting is exact too: the fleet counter is the
        // per-member sum, each member's counter is the sum over its
        // completed records, and only requeue mode ever requeues.
        let sum_requeues: u64 = out.report.clusters.iter().map(|c| c.fleet.requeues).sum();
        assert_eq!(
            f.requeues,
            sum_requeues,
            "{}: merged requeues are not the per-member sums",
            mode.name()
        );
        for (i, c) in out.report.clusters.iter().enumerate() {
            let record_sum: u64 = c.workflows.iter().map(|r| r.requeues).sum();
            assert_eq!(
                c.fleet.requeues,
                record_sum,
                "{}: member {i}'s requeue counter drifts from its records",
                mode.name()
            );
        }

        // Mode semantics: requeue loses nothing; lost loses exactly
        // what the failing member had in service.
        match mode {
            FailureMode::Requeue => {
                assert_eq!(f.lost, 0);
                assert!(
                    f.requeues > 0,
                    "a peak failure under requeue must re-enter torn-down work"
                );
            }
            FailureMode::Lost => {
                assert!(f.lost > 0, "a peak failure must tear down work");
                assert_eq!(f.requeues, 0, "lost mode never re-enters work");
                for l in &out.report.clusters[1].lost {
                    assert_eq!(l.failed_at, 5.0);
                    assert_eq!(l.cluster_id, Some(1));
                }
            }
        }
    }
}

#[test]
fn chaos_runs_are_byte_identically_deterministic() {
    let (fed, _, subs) = burst_trace(40);
    for mode in [FailureMode::Requeue, FailureMode::Lost] {
        for routing in RoutingPolicy::ALL {
            let a = serve_federation_chaos(
                &fed,
                subs.clone(),
                &OnlineConfig::default(),
                routing,
                &fail_plan(mode),
            )
            .unwrap();
            let b = serve_federation_chaos(
                &fed,
                subs.clone(),
                &OnlineConfig::default(),
                routing,
                &fail_plan(mode),
            )
            .unwrap();
            assert_eq!(
                a.report.to_json(),
                b.report.to_json(),
                "{} + {} diverged across identical runs",
                routing.name(),
                mode.name()
            );
        }
    }
}

#[test]
fn a_join_after_the_failure_improves_mean_wait() {
    // Fail member 1 at peak, then join a fresh same-shape member: the
    // rebalanced fleet must wait strictly less than the fail-only run.
    let (fed, member, subs) = burst_trace(40);
    let fail_only = serve_federation_chaos(
        &fed,
        subs.clone(),
        &OnlineConfig::default(),
        RoutingPolicy::LeastLoaded,
        &fail_plan(FailureMode::Requeue),
    )
    .unwrap();
    // The joiner is the same fitted platform, expressed as inline
    // processor lines (the fitted memories are not a named config).
    let spec = ClusterSpec::from_cluster(&member);
    let with_join = serve_federation_chaos(
        &fed,
        subs.clone(),
        &OnlineConfig::default(),
        RoutingPolicy::LeastLoaded,
        &fail_plan(FailureMode::Requeue).join(
            MemberSpec {
                name: None,
                bandwidth: spec.bandwidth,
                processors: spec.processors,
            },
            10.0,
        ),
    )
    .unwrap();
    assert_eq!(
        fail_only.report.fleet.completed + fail_only.report.fleet.rejected,
        with_join.report.fleet.completed + with_join.report.fleet.rejected,
    );
    assert!(
        with_join.report.fleet.mean_wait < fail_only.report.fleet.mean_wait,
        "joining a member after the failure did not improve mean wait: {} vs {}",
        with_join.report.fleet.mean_wait,
        fail_only.report.fleet.mean_wait
    );
}

/// The three rejections no golden row names by text, in one run: an
/// arrival no processor can hold (the arrival screen), the queue of the
/// last active member when it drains, and arrivals after every member
/// has left.
#[test]
fn every_rejection_reason_names_its_member_and_wait() {
    let member = Cluster::new(vec![Processor::new("p", 1.0, 100.0); 2], 1.0);
    let fed = Federation::homogeneous(member, 2);
    // Twelve one-task workflows at t = 0 keep both queues deep past
    // t = 10; one at t = 1 needs more memory than any processor has;
    // two arrive at t = 20, after the last active member has drained.
    let mut subs: Vec<Submission> = (0..12)
        .map(|i| single_task(i, 0.0, 50.0, 60.0, "deep"))
        .collect();
    subs.push(single_task(12, 1.0, 1.0, 500.0, "oversize"));
    subs.extend((13..15).map(|i| single_task(i, 20.0, 1.0, 10.0, "late")));
    let plan = MembershipPlan::new()
        .fail(0, 5.0, FailureMode::Requeue)
        .drain(1, 10.0);
    let out = serve_federation_chaos(
        &fed,
        subs.clone(),
        &OnlineConfig::default(),
        RoutingPolicy::LeastLoaded,
        &plan,
    )
    .unwrap();
    let report = &out.report;

    let mut rejected = Vec::new();
    for (k, c) in report.clusters.iter().enumerate() {
        for r in &c.rejected {
            assert_eq!(r.cluster_id, Some(k), "{r:?} is on member {k}'s record");
            assert_eq!(r.arrival.to_bits(), subs[r.id].arrival.to_bits(), "{r:?}");
            assert_eq!(
                r.wait.to_bits(),
                (r.rejected_at - r.arrival).to_bits(),
                "{r:?}"
            );
            rejected.push(r);
        }
    }
    let with_reason = |text: &str| -> Vec<_> {
        rejected
            .iter()
            .filter(|r| r.reason.contains(text))
            .copied()
            .collect()
    };

    let screened = with_reason("exceeds the largest processor memory");
    assert_eq!(screened.len(), 1, "{screened:?}");
    assert_eq!((screened[0].id, screened[0].rejected_at), (12, 1.0));
    assert_eq!(screened[0].wait, 0.0);

    let left = with_reason("member left the federation with no surviving active member");
    assert!(
        !left.is_empty(),
        "the drained member's queue was not rejected"
    );
    for r in &left {
        assert!(r.id < 12, "{r:?}");
        assert_eq!((r.cluster_id, r.rejected_at, r.wait), (Some(1), 10.0, 10.0));
    }

    let none_active = with_reason("no active federation member");
    let ids: Vec<usize> = none_active.iter().map(|r| r.id).collect();
    assert_eq!(ids, [13, 14]);
    for r in &none_active {
        assert_eq!((r.cluster_id, r.rejected_at, r.wait), (Some(0), 20.0, 0.0));
    }
    assert_eq!(
        rejected.len(),
        screened.len() + left.len() + none_active.len(),
        "a rejection with another reason: {rejected:?}"
    );

    // Every submission ends in exactly one terminal class.
    let mut ids: Vec<usize> = report
        .clusters
        .iter()
        .flat_map(|c| {
            c.workflows
                .iter()
                .map(|r| r.id)
                .chain(c.rejected.iter().map(|r| r.id))
                .chain(c.lost.iter().map(|r| r.id))
        })
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..subs.len()).collect::<Vec<_>>());
    let f = &report.fleet;
    assert_eq!(
        (f.completed, f.rejected, f.lost),
        (subs.len() - rejected.len(), rejected.len(), 0)
    );
}
