//! Applying membership (chaos) events to the fleet: drain, fail, join.
//!
//! Runs at the membership arm of the event loop, before any member
//! steps, since drains and failures move work between shards.

use super::rebalance::migrate_pending;
use super::shard::{MemberShard, MemberStatus};
use crate::chaos::{FailureMode, MembershipEvent};
use crate::report::LostRecord;
use crate::state::{ArrivalFacts, Pending};

/// Applies one membership event to the fleet state. Queue migration
/// picks each displaced workflow's new home with the speed-weighted
/// least-loaded rule over the surviving Active members (memory-screened
/// first, like routing); the spillover sweep of the same event then
/// rebalances further. With no surviving Active member the displaced
/// work is deterministically rejected on the event's own member, so
/// every submission still ends in exactly one terminal class.
pub(super) fn apply_membership(
    event: &MembershipEvent,
    shards: &mut Vec<MemberShard>,
    seen: &mut ArrivalFacts,
    clock: f64,
) {
    match event {
        MembershipEvent::Drain { member, at: _ } => {
            let m = *member;
            if shards[m].status != MemberStatus::Active {
                return; // draining a drained/failed member is a no-op
            }
            shards[m].status = MemberStatus::Draining;
            let displaced = shards[m].state.queue.drain();
            for p in displaced {
                migrate_pending(shards, m, p, clock);
            }
        }
        MembershipEvent::Fail { member, at, mode } => {
            let m = *member;
            if shards[m].status == MemberStatus::Failed {
                return;
            }
            shards[m].status = MemberStatus::Failed;
            let displaced = shards[m].state.queue.drain();
            for p in displaced {
                migrate_pending(shards, m, p, clock);
            }
            let torn = shards[m].state.fail_in_service();
            for svc in torn {
                match mode {
                    FailureMode::Lost => {
                        let cluster_id = shards[m].state.cluster_id;
                        let r = &svc.record;
                        shards[m].state.lost.push(LostRecord {
                            id: r.id,
                            name: r.name.clone(),
                            tasks: r.tasks,
                            arrival: r.arrival,
                            start: r.start,
                            failed_at: *at,
                            cluster_id,
                        });
                    }
                    FailureMode::Requeue => {
                        // The record that eventually completes
                        // carries its failure-driven attempt count. The
                        // graph arrived through `seen` once already, so
                        // its facts are recognised, not re-derived.
                        let p = Pending {
                            requeues: svc.record.requeues + 1,
                            ..Pending::new(svc.placement.submission, seen)
                        };
                        migrate_pending(shards, m, p, clock);
                    }
                }
            }
        }
        MembershipEvent::Join { cluster, at: _ } => {
            let idx = shards.len();
            shards.push(MemberShard::new(cluster, Some(idx)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::routing::RoutingPolicy;
    use super::super::testutil::{burst, member};
    use super::super::{serve_federation, serve_federation_chaos};
    use crate::chaos::{FailureMode, MembershipPlan};
    use crate::engine::OnlineConfig;
    use crate::submission::single_task;
    use dhp_platform::{Cluster, Federation, Processor};

    #[test]
    fn empty_chaos_plan_is_byte_identical_to_the_plain_federation() {
        let fed = Federation::new(vec![member(), member()]);
        for routing in RoutingPolicy::ALL {
            let plain = serve_federation(&fed, burst(8), &OnlineConfig::default(), routing);
            let chaos = serve_federation_chaos(
                &fed,
                burst(8),
                &OnlineConfig::default(),
                routing,
                &MembershipPlan::new(),
            )
            .unwrap();
            assert_eq!(
                plain.report.to_json(),
                chaos.report.to_json(),
                "{}: an empty plan changed the run",
                routing.name()
            );
        }
        // And an invalid plan is an error, not a panic.
        let bad = MembershipPlan::new().drain(9, 1.0);
        assert!(serve_federation_chaos(
            &fed,
            burst(2),
            &OnlineConfig::default(),
            RoutingPolicy::LeastLoaded,
            &bad
        )
        .is_err());
    }

    #[test]
    fn drain_migrates_the_queue_and_in_service_work_finishes() {
        // Two single-processor members. Round-robin: hog0 → m0 (until
        // t=100), hog1 → m1 (until t=50), q → m0's queue (m1 busy, so
        // no spillover). Draining m0 at t=10 must migrate q to m1 and
        // let hog0 run to completion on m0; nothing is lost.
        let small = Cluster::new(vec![Processor::new("p", 1.0, 100.0)], 1.0);
        let fed = Federation::new(vec![small.clone(), small]);
        let subs = vec![
            single_task(0, 0.0, 100.0, 50.0, "hog0"), // rr → m0
            single_task(1, 0.0, 50.0, 50.0, "hog1"),  // rr → m1
            single_task(2, 1.0, 5.0, 50.0, "q"),      // rr → m0, queued
        ];
        let plan = MembershipPlan::new().drain(0, 10.0);
        let out = serve_federation_chaos(
            &fed,
            subs,
            &OnlineConfig::default(),
            RoutingPolicy::RoundRobin,
            &plan,
        )
        .unwrap();
        let find = |id: usize| {
            out.report
                .clusters
                .iter()
                .flat_map(|c| c.workflows.iter())
                .find(|r| r.id == id)
                .unwrap()
                .clone()
        };
        assert_eq!(out.report.fleet.completed, 3);
        assert_eq!((out.report.fleet.rejected, out.report.fleet.lost), (0, 0));
        // The hog kept its member to the end.
        assert_eq!(find(0).cluster_id, Some(0));
        // The queued workflow served on the survivor when it freed.
        assert_eq!((find(2).cluster_id, find(2).start), (Some(1), 50.0));
    }

    #[test]
    fn fail_requeue_reruns_in_service_work_on_survivors() {
        // hog0 → m0 (until t=100), victim → m1 (until t=50). Failing
        // m1 at t=10 with `requeue` discards the victim's progress and
        // re-enters it (original arrival, original id) on m0, where it
        // queues behind the hog and serves at t=100.
        let small = Cluster::new(vec![Processor::new("p", 1.0, 100.0)], 1.0);
        let fed = Federation::new(vec![small.clone(), small]);
        let subs = vec![
            single_task(0, 0.0, 100.0, 50.0, "hog0"),  // rr → m0
            single_task(1, 0.0, 50.0, 50.0, "victim"), // rr → m1
        ];
        let plan = MembershipPlan::new().fail(1, 10.0, FailureMode::Requeue);
        let out = serve_federation_chaos(
            &fed,
            subs,
            &OnlineConfig::default(),
            RoutingPolicy::RoundRobin,
            &plan,
        )
        .unwrap();
        assert_eq!(out.report.fleet.completed, 2);
        assert_eq!((out.report.fleet.rejected, out.report.fleet.lost), (0, 0));
        let victim = out
            .report
            .clusters
            .iter()
            .flat_map(|c| c.workflows.iter())
            .find(|r| r.id == 1)
            .expect("requeued victim completes");
        assert_eq!(victim.cluster_id, Some(0));
        assert_eq!(victim.arrival, 0.0, "requeue keeps the original arrival");
        assert_eq!(victim.start, 100.0, "re-served when the survivor freed");
        // The completed record carries its failure-driven attempt count
        // (one requeue), and the fleet counter sums exactly.
        assert_eq!(victim.requeues, 1);
        let hog = out
            .report
            .clusters
            .iter()
            .flat_map(|c| c.workflows.iter())
            .find(|r| r.id == 0)
            .unwrap();
        assert_eq!(hog.requeues, 0, "undisturbed work records no requeues");
        assert_eq!(out.report.fleet.requeues, 1);
        // The failed member's report holds no completion for it.
        assert_eq!(out.report.clusters[1].fleet.completed, 0);
    }

    #[test]
    fn fail_lost_records_the_torn_down_work_exactly_once() {
        let small = Cluster::new(vec![Processor::new("p", 1.0, 100.0)], 1.0);
        let fed = Federation::new(vec![small.clone(), small]);
        let subs = vec![
            single_task(0, 0.0, 100.0, 50.0, "hog0"),
            single_task(1, 0.0, 50.0, 50.0, "victim"),
        ];
        let plan = MembershipPlan::new().fail(1, 10.0, FailureMode::Lost);
        let out = serve_federation_chaos(
            &fed,
            subs,
            &OnlineConfig::default(),
            RoutingPolicy::RoundRobin,
            &plan,
        )
        .unwrap();
        // Exact partition: one completed, one lost, none rejected.
        assert_eq!(out.report.fleet.completed, 1);
        assert_eq!((out.report.fleet.rejected, out.report.fleet.lost), (0, 1));
        let lost = &out.report.clusters[1].lost[0];
        assert_eq!((lost.id, lost.cluster_id), (1, Some(1)));
        assert_eq!((lost.arrival, lost.start, lost.failed_at), (0.0, 0.0, 10.0));
        // The lost id appears in no other terminal class.
        assert!(out
            .report
            .clusters
            .iter()
            .flat_map(|c| c.workflows.iter())
            .all(|r| r.id != 1));
        // The failed member's busy time was un-credited: its
        // utilisation counts completed work only (here: none).
        assert_eq!(out.report.clusters[1].fleet.utilization, 0.0);
    }

    /// Member 0 runs `b`, `c` and `d`, but `d` was granted last into
    /// the slot `short` left, so slot order is `d, b, c`. Its failure
    /// must record the lost workflows, and requeue them, in grant order
    /// `b, c, d`.
    #[test]
    fn a_failure_tears_down_in_grant_order_after_slot_reuse() {
        use super::super::shard::MemberShard;
        use super::apply_membership;
        use crate::cache::{CacheView, SolveCache};
        use crate::chaos::MembershipEvent;
        use crate::state::{ArrivalFacts, Pending};
        use std::sync::Arc;

        let procs = |n: usize| {
            Cluster::new(
                (0..n).map(|_| Processor::new("p", 1.0, 100.0)).collect(),
                1.0,
            )
        };
        let cfg = OnlineConfig::default();
        let cache = SolveCache::new();
        let solver = cfg.lease_solver();
        let view = CacheView::direct(&cache, &solver);
        for mode in [FailureMode::Lost, FailureMode::Requeue] {
            let mut seen = ArrivalFacts::new();
            let mut shards: Vec<MemberShard> = [procs(3), procs(1), procs(1)]
                .iter()
                .enumerate()
                .map(|(i, c)| MemberShard::new(c, Some(i)))
                .collect();
            let mut arrive = |shards: &mut [MemberShard], id: usize, at: f64, work: f64| {
                let sub = Arc::new(single_task(id, at, work, 50.0, "w"));
                shards[0]
                    .state
                    .enqueue_arrival(Pending::new(sub, &mut seen), at);
            };
            // `short` takes slot 0, `b` slot 1 and `c` slot 2.
            arrive(&mut shards, 0, 0.0, 10.0);
            arrive(&mut shards, 1, 0.0, 1000.0);
            arrive(&mut shards, 2, 0.0, 500.0);
            shards[0].step_to(0.0, &cfg, &view);
            // `short` completes, and `d` takes the slot it left.
            let t = shards[0].state.next_completion_time().unwrap();
            arrive(&mut shards, 3, t, 100.0);
            shards[0].step_to(t, &cfg, &view);
            let slots: Vec<usize> = shards[0]
                .state
                .in_service
                .iter()
                .map(|s| s.as_ref().unwrap().record.id)
                .collect();
            assert_eq!(slots, [3, 1, 2], "the last grant reuses the first slot");

            let fail = MembershipEvent::Fail {
                member: 0,
                at: t + 1.0,
                mode,
            };
            apply_membership(&fail, &mut shards, &mut seen, t + 1.0);
            let queued = |sh: &MemberShard| {
                let queue = &sh.state.queue;
                queue.live_slots().map(|i| queue[i].id).collect::<Vec<_>>()
            };
            match mode {
                FailureMode::Lost => {
                    let lost: Vec<usize> = shards[0].state.lost.iter().map(|r| r.id).collect();
                    assert_eq!(lost, [1, 2, 3], "lost records follow grant order");
                }
                // Each requeue goes to the survivor with less queued
                // work (ties to the lower index), so the order decides
                // the homes: b → 1, then c → 2, then d → 2. In slot
                // order d → 1, b → 2 and c → 1 instead.
                FailureMode::Requeue => {
                    assert_eq!(queued(&shards[1]), [1], "requeues follow grant order");
                    assert_eq!(queued(&shards[2]), [2, 3], "requeues follow grant order");
                }
            }
        }
    }

    #[test]
    fn join_adds_a_member_that_receives_blocked_work() {
        // One single-processor member: hog until t=100, q blocked
        // behind it. A second member joining at t=10 must pick q up via
        // the spillover sweep at the join instant — not at t=100.
        let small = Cluster::new(vec![Processor::new("p", 1.0, 100.0)], 1.0);
        let fed = Federation::from(small.clone());
        let subs = vec![
            single_task(0, 0.0, 100.0, 50.0, "hog"),
            single_task(1, 1.0, 5.0, 50.0, "q"),
        ];
        let plan = MembershipPlan::new().join(
            dhp_platform::MemberSpec {
                name: None,
                bandwidth: 1.0,
                processors: vec![dhp_platform::ProcSpec {
                    name: "p".into(),
                    speed: 1.0,
                    memory: 100.0,
                    count: 1,
                }],
            },
            10.0,
        );
        let out = serve_federation_chaos(
            &fed,
            subs,
            &OnlineConfig::default(),
            RoutingPolicy::LeastLoaded,
            &plan,
        )
        .unwrap();
        assert_eq!(out.report.clusters.len(), 2);
        assert_eq!(out.report.total_procs, 2);
        let q = out
            .report
            .clusters
            .iter()
            .flat_map(|c| c.workflows.iter())
            .find(|r| r.id == 1)
            .unwrap();
        assert_eq!(
            (q.cluster_id, q.start),
            (Some(1), 10.0),
            "the joiner must serve the blocked workflow at the join instant"
        );
        assert!(out.report.spillovers >= 1);
    }

    #[test]
    fn least_loaded_weighs_queued_work_by_member_speed() {
        // m0: speed 1; m1: speed 4 (both one processor). Build queues
        // m0=40, m1=100 work: raw queued work prefers m0, but the
        // speed-weighted load (40/1 = 40 vs 100/4 = 25) prefers the
        // fast member. A drained workflow must migrate to m1.
        let m = |speed: f64| Cluster::new(vec![Processor::new("p", speed, 100.0)], 1.0);
        let fed = Federation::new(vec![m(1.0), m(4.0), m(1.0)]);
        let subs = vec![
            single_task(0, 0.0, 1000.0, 50.0, "hog0"), // → m0 (tie)
            single_task(1, 0.1, 1000.0, 50.0, "hog1"), // → m0, spills to m1
            single_task(2, 0.2, 1000.0, 50.0, "hog2"), // → m0, spills to m2
            single_task(3, 0.3, 40.0, 50.0, "q0"),     // → m0 queue (all busy)
            single_task(4, 0.4, 100.0, 50.0, "q1"),    // → m1 queue
            single_task(5, 0.5, 10.0, 50.0, "qd"),     // → m2 queue
        ];
        let plan = MembershipPlan::new().drain(2, 1.0);
        let out = serve_federation_chaos(
            &fed,
            subs,
            &OnlineConfig::default(),
            RoutingPolicy::LeastLoaded,
            &plan,
        )
        .unwrap();
        assert_eq!(out.report.fleet.completed, 6);
        let qd = out
            .report
            .clusters
            .iter()
            .flat_map(|c| c.workflows.iter())
            .find(|r| r.id == 5)
            .unwrap();
        assert_eq!(
            qd.cluster_id,
            Some(1),
            "the drained workflow must migrate to the speed-weighted \
             least-loaded member (fast m1), not the raw-queued-work one (m0)"
        );
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let fed = Federation::new(vec![member(), member()]);
        let plan = MembershipPlan::new()
            .fail(1, 30.0, FailureMode::Requeue)
            .join(
                dhp_platform::MemberSpec {
                    name: None,
                    bandwidth: 1.0,
                    processors: vec![dhp_platform::ProcSpec {
                        name: "big".into(),
                        speed: 4.0,
                        memory: 600.0,
                        count: 3,
                    }],
                },
                60.0,
            );
        for routing in RoutingPolicy::ALL {
            let a =
                serve_federation_chaos(&fed, burst(10), &OnlineConfig::default(), routing, &plan)
                    .unwrap();
            let b =
                serve_federation_chaos(&fed, burst(10), &OnlineConfig::default(), routing, &plan)
                    .unwrap();
            assert_eq!(
                a.report.to_json(),
                b.report.to_json(),
                "{} chaos run is not deterministic",
                routing.name()
            );
        }
    }
}
