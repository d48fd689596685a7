//! The lease-shape memo of the probe buffer (`state::FreeList`) against
//! fresh hashes: every shape a probe reads back instead of hashing must
//! equal `Cluster::shape_of_slice` of its lease, whatever the events
//! between two probes did to the free set; and a pass over one free
//! list hashes each lease size once.

use crate::admission::{try_admit, Admit};
use crate::cache::{CacheView, SolveCache};
use crate::chaos::{FailureMode, MembershipPlan};
use crate::engine::OnlineConfig;
use crate::federation::routing::RoutingPolicy;
use crate::federation::serve_federation_chaos;
use crate::federation::testutil::{burst, member};
use crate::policy::{AdmissionPolicy, LeaseSizing};
use crate::state::{shape_tally, ArrivalFacts, FreeList, Pending};
use crate::submission::Submission;
use dhp_dag::builder;
use dhp_platform::{Cluster, Federation, Processor};
use dhp_wfgen::{SizeClass, WorkflowInstance};
use std::sync::Arc;

/// `(hashed, read back, stale)` moved by `f`.
fn tallied(f: impl FnOnce()) -> (u64, u64, u64) {
    let before = shape_tally::read();
    f();
    let after = shape_tally::read();
    (after.0 - before.0, after.1 - before.1, after.2 - before.2)
}

/// Grants, completions, shrinks, a growth and a member failure, on two
/// members whose processor ids coincide: every shape read back from a
/// member's free list is its lease's fresh hash.
#[test]
fn every_memoized_shape_matches_a_fresh_hash_across_events() {
    let cfg = OnlineConfig {
        policy: AdmissionPolicy::FifoBackfill,
        elastic: Some(2),
        elastic_shrink: Some(2),
        ..OnlineConfig::default()
    };
    let fed = Federation::new(vec![member(), member()]);
    let plan = MembershipPlan::new().fail(1, 40.0, FailureMode::Requeue);
    let mut fleet = None;
    let (hashed, read_back, stale) = tallied(|| {
        let out = serve_federation_chaos(&fed, burst(40), &cfg, RoutingPolicy::BestFit, &plan)
            .expect("the plan fits the fleet");
        fleet = Some(out.report.fleet);
    });
    let Some(f) = fleet else {
        unreachable!("the serve call above set it")
    };
    // The script really ran every kind of event.
    assert_eq!(f.completed, 40);
    assert!(f.lease_grown >= 1, "no growth");
    assert!(f.lease_shrunk >= 1, "no shrink");
    assert!(f.requeues >= 1, "no failure teardown");
    assert!(hashed > 0 && read_back > 0, "the memo was not exercised");
    assert_eq!(
        stale, 0,
        "{stale} of {read_back} read-back shapes were stale"
    );
}

/// A workflow of `g`, queued at time 0.
fn pending(id: usize, g: dhp_dag::Dag) -> Pending {
    let sub = Submission {
        id,
        arrival: 0.0,
        instance: WorkflowInstance {
            name: format!("graph-{id}"),
            family: None,
            size_class: SizeClass::Real,
            requested_size: g.node_count(),
            graph: g.into(),
        },
    };
    Pending::new(Arc::new(sub), &mut ArrivalFacts::new())
}

/// A warm pass over one free list hashes each lease size it asks once,
/// however many candidates ask it and however often. With one task per
/// processor the lease size is the task count, so five workflows of
/// 1, 2, 3, 3 and 5 tasks ask four sizes.
#[test]
fn a_pass_over_one_free_list_hashes_each_lease_size_once() {
    let cluster = Cluster::new(
        (0..8)
            .map(|i| Processor::new("p", 1.0 + f64::from(i), 100.0))
            .collect(),
        1.0,
    );
    let cfg = OnlineConfig {
        lease: LeaseSizing {
            tasks_per_proc: 1,
            ..LeaseSizing::default()
        },
        ..OnlineConfig::default()
    };
    let cache = SolveCache::new();
    let solver = cfg.lease_solver();
    let view = CacheView::direct(&cache, &solver);
    let mem_order = cluster.ids_by_memory_desc();
    let free_set = vec![true; cluster.len()];
    let cands: Vec<Pending> = [
        builder::chain(1, 5.0, 1.0, 1.0),
        builder::chain(2, 5.0, 1.0, 1.0),
        builder::chain(3, 5.0, 1.0, 1.0),
        builder::chain(3, 7.0, 2.0, 1.0),
        builder::chain(5, 5.0, 1.0, 1.0),
    ]
    .into_iter()
    .enumerate()
    .map(|(id, g)| pending(id, g))
    .collect();
    let (sizes, probes) = (4, 3 * cands.len() as u64);
    // Every probe overshoots a reservation at time 0: nothing is
    // granted, so the free list stays what it was.
    let pass = |free: &mut FreeList| {
        tallied(|| {
            for _ in 0..3 {
                for cand in &cands {
                    let admit = try_admit(
                        &cluster,
                        &mem_order,
                        &free_set,
                        cand,
                        &cfg,
                        &view,
                        0.0,
                        1,
                        None,
                        Some(0.0),
                        free,
                    );
                    assert!(matches!(admit, Admit::Overshoot));
                }
            }
        })
    };
    let mut free = FreeList::default();
    assert_eq!(pass(&mut free), (sizes, probes - sizes, 0));
    // The next pass over the same list hashes nothing.
    assert_eq!(pass(&mut free), (0, probes, 0));
    // A list that changed drops the memo: the sizes are hashed anew.
    let mut other = free_set.clone();
    other[0] = false;
    let admit = try_admit(
        &cluster, &mem_order, &other, &cands[0], &cfg, &view, 0.0, 1, None, None, &mut free,
    );
    assert!(matches!(admit, Admit::Granted(_)));
    assert_eq!(pass(&mut free), (sizes, probes - sizes, 0));
}
