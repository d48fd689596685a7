//! Property tests of the backfill invariants (ISSUE 4) over random
//! {burst, poisson, uniform} traces:
//!
//! * **Conservative guarantee** — under `fifo-backfill` the blocked
//!   FIFO head never starts later than *any* reservation the engine
//!   computed for it (reservations only tighten as backfills are
//!   granted inside them), including the `PostAdmission` re-derivations
//!   introduced by the stale-state fixes.
//! * **EASY superset** — `easy-backfill` makes every safe
//!   (within-reservation) grant the conservative policy makes before
//!   taking any aggressive one, so instant by instant its admissions
//!   are a superset of `fifo-backfill`'s until the first divergence.
//!   The generator keeps this a theorem by using equal-speed
//!   single-task jobs: with heterogeneous speeds or multi-task graphs
//!   an aggressive grant may legitimately delay a *later* arrival —
//!   that is the traded guarantee, pinned separately by the crafted
//!   unit tests in `dhp-online`.
//! * **Determinism** — repeated runs of either policy (and of elastic
//!   growth) are byte-identical.
//! * **Elastic sanity** — growth never loses workflows, keeps
//!   utilisation a true fraction, and every grown record carries a
//!   valid re-solved suffix mapping.
//! * **Shrink guard** (ISSUE 6) — elastic lease *shrinking* reclaims
//!   processors from running workflows under queue pressure, but never
//!   delays a blocked head past any reservation the engine computed
//!   for it: the shrink-time head guard rejects reclaims whose pushed-
//!   out finish would steal the head's processors at the reservation.
//!
//! The traces stay under `BACKFILL_DEPTH` (16) queued candidates so the
//! backfill window never truncates a pass — window truncation would
//! make the superset comparison depend on pass boundaries.

use dhp_online::submission::{single_task, zip_stream};
use dhp_online::{serve, AdmissionPolicy, LeaseSizing, OnlineConfig, ServeOutcome, Submission};
use dhp_platform::{Cluster, Processor};
use dhp_wfgen::arrivals::{arrival_times, ArrivalProcess};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Deterministic value derivation for trace parameters (the test owns
/// its randomness; proptest only supplies the master seed).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One big-memory processor two jobs fight over, plus two small ones —
/// all the same speed (see the module docs for why).
fn cluster() -> Cluster {
    Cluster::new(
        vec![
            Processor::new("big", 1.0, 1000.0),
            Processor::new("sml", 1.0, 120.0),
            Processor::new("sml", 1.0, 120.0),
        ],
        1.0,
    )
}

fn process_of(kind: u8) -> ArrivalProcess {
    match kind % 3 {
        0 => ArrivalProcess::Burst { at: 0.0 },
        1 => ArrivalProcess::Poisson { rate: 0.2 },
        _ => ArrivalProcess::Uniform { interval: 4.0 },
    }
}

/// `n` single-task jobs: memory mixes small (fits anywhere) and large
/// (big processor only, the head-blocking kind), work spreads an order
/// of magnitude so reservations and holes actually appear.
fn single_task_trace(n: usize, kind: u8, seed: u64) -> Vec<Submission> {
    let times = arrival_times(n, &process_of(kind), seed);
    let mut state = seed ^ 0xabcd_ef01_2345_6789;
    (0..n)
        .map(|i| {
            let work = 1.0 + (splitmix(&mut state) % 400) as f64 / 4.0;
            let memory = if splitmix(&mut state).is_multiple_of(3) {
                200.0 + (splitmix(&mut state) % 400) as f64
            } else {
                20.0 + (splitmix(&mut state) % 100) as f64
            };
            single_task(i, times[i], work, memory, &format!("job-{i}"))
        })
        .collect()
}

fn run(subs: &[Submission], policy: AdmissionPolicy, elastic: Option<usize>) -> ServeOutcome {
    let cfg = OnlineConfig {
        policy,
        elastic,
        ..OnlineConfig::default()
    };
    serve(&cluster(), subs.to_vec(), &cfg)
}

/// Ids started at each instant, in instant order.
fn admissions_by_instant(out: &ServeOutcome) -> Vec<(u64, Vec<usize>)> {
    let mut by: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for r in &out.report.workflows {
        by.entry(r.start.to_bits()).or_default().push(r.id);
    }
    by.into_iter()
        .map(|(t, mut ids)| {
            ids.sort_unstable();
            (t, ids)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The admission hot-path overhaul is an execution strategy, not a
    /// policy: with the overhaul on (feasibility fast path, epoch-token
    /// reservation reuse, tombstoned queue removal) and off (the
    /// measured pre-overhaul baseline), the scheduling outcome — every
    /// workflow record, rejection, and fleet aggregate — is
    /// byte-identical, and so is every head reservation the engine
    /// ever computed (bit-equal instants, same triggers, same order).
    /// A reservation token that survived an admit, completion, grow,
    /// or shrink it should have been invalidated by would diverge
    /// here. Only the solver-effort counters may differ (reused
    /// reservations skip redundant warm probes), so those are cleared
    /// before comparing.
    #[test]
    fn fast_admission_matches_the_slow_baseline_bitwise(
        n in 3usize..10,
        kind in 0u8..3,
        policy_pick in 0u8..3,
        elastic_pick in 0u8..4,
        seed in any::<u64>(),
    ) {
        let subs = single_task_trace(n, kind, seed);
        let policy = match policy_pick {
            0 => AdmissionPolicy::Fifo,
            1 => AdmissionPolicy::FifoBackfill,
            _ => AdmissionPolicy::EasyBackfill,
        };
        let (elastic, elastic_shrink) = match elastic_pick {
            0 => (None, None),
            1 => (Some(1), None),
            2 => (None, Some(1)),
            _ => (Some(2), Some(2)),
        };
        let mk = |fast_admission| OnlineConfig {
            policy,
            elastic,
            elastic_shrink,
            fast_admission,
            ..OnlineConfig::default()
        };
        let fast = serve(&cluster(), subs.clone(), &mk(true));
        let slow = serve(&cluster(), subs, &mk(false));
        let mut fr = fast.report.clone();
        let mut sr = slow.report.clone();
        fr.fleet.clear_solve_stats();
        sr.fleet.clear_solve_stats();
        prop_assert_eq!(fr.to_json(), sr.to_json());
        prop_assert_eq!(fast.reservations.len(), slow.reservations.len());
        for (a, b) in fast.reservations.iter().zip(&slow.reservations) {
            prop_assert_eq!(a.at.to_bits(), b.at.to_bits());
            prop_assert_eq!(a.head_id, b.head_id);
            prop_assert_eq!(a.reservation.to_bits(), b.reservation.to_bits());
            prop_assert_eq!(a.trigger, b.trigger);
        }
    }

    #[test]
    fn backfill_head_reservation_and_easy_superset(
        n in 3usize..10,
        kind in 0u8..3,
        seed in any::<u64>(),
    ) {
        let subs = single_task_trace(n, kind, seed);
        let conservative = run(&subs, AdmissionPolicy::FifoBackfill, None);
        let easy = run(&subs, AdmissionPolicy::EasyBackfill, None);

        // Byte-identical determinism across repeated runs.
        let again = run(&subs, AdmissionPolicy::FifoBackfill, None);
        prop_assert_eq!(conservative.report.to_json(), again.report.to_json());
        let again = run(&subs, AdmissionPolicy::EasyBackfill, None);
        prop_assert_eq!(easy.report.to_json(), again.report.to_json());

        // Every job fits the big processor, so nothing is rejected and
        // both policies serve the identical set.
        prop_assert_eq!(conservative.report.fleet.completed, n);
        prop_assert_eq!(easy.report.fleet.completed, n);

        // Conservative guarantee: the head starts no later than any
        // reservation ever computed for it (HeadBlocked and the
        // stale-fix PostAdmission re-derivations alike).
        for resv in &conservative.reservations {
            if !resv.reservation.is_finite() {
                continue;
            }
            let head = conservative
                .report
                .workflows
                .iter()
                .find(|r| r.id == resv.head_id)
                .expect("a reserved head is eventually served");
            prop_assert!(
                head.start <= resv.reservation + 1e-9,
                "head {} started {} past its reservation {} (computed at {}, {:?})",
                head.id, head.start, resv.reservation, resv.at, resv.trigger
            );
        }

        // EASY serves a superset of the conservative same-instant
        // admissions, instant by instant, until the first divergence
        // (after which the engine states differ and no comparison is
        // meaningful).
        let c_adm = admissions_by_instant(&conservative);
        let e_adm = admissions_by_instant(&easy);
        let mut instants: Vec<u64> = c_adm.iter().chain(&e_adm).map(|(t, _)| *t).collect();
        instants.sort_by(|a, b| f64::from_bits(*a).total_cmp(&f64::from_bits(*b)));
        instants.dedup();
        let ids_at = |adm: &[(u64, Vec<usize>)], t: u64| -> Vec<usize> {
            adm.iter()
                .find(|(at, _)| *at == t)
                .map(|(_, ids)| ids.clone())
                .unwrap_or_default()
        };
        for t in instants {
            let c_ids = ids_at(&c_adm, t);
            let e_ids = ids_at(&e_adm, t);
            let superset = c_ids.iter().all(|id| e_ids.contains(id));
            prop_assert!(
                superset,
                "easy dropped a conservative admission at t={}: {:?} vs {:?}",
                f64::from_bits(t), c_ids, e_ids
            );
            if c_ids != e_ids {
                break; // first divergence: easy admitted strictly more
            }
        }
    }

    #[test]
    fn elastic_growth_stays_sane_on_random_fork_traces(
        n in 2usize..7,
        kind in 0u8..3,
        threshold in 1usize..3,
        seed in any::<u64>(),
    ) {
        // Fork workflows (root fanning into 2..=4 children) whose
        // serialised leases leave plenty of unstarted suffix to regrow.
        let times = arrival_times(n, &process_of(kind), seed);
        let mut state = seed ^ 0x1357_9bdf_2468_ace0;
        let instances: Vec<dhp_wfgen::WorkflowInstance> = (0..n)
            .map(|i| {
                let mut g = dhp_dag::Dag::new();
                let root = g.add_node(1.0 + (splitmix(&mut state) % 8) as f64, 2.0);
                for _ in 0..(2 + splitmix(&mut state) % 3) {
                    let w = 5.0 + (splitmix(&mut state) % 200) as f64 / 2.0;
                    let v = g.add_node(w, 2.0);
                    g.add_edge(root, v, 0.1);
                }
                dhp_wfgen::WorkflowInstance {
                    name: format!("fork-{i}"),
                    family: None,
                    size_class: dhp_wfgen::SizeClass::Real,
                    requested_size: g.node_count(),
                    graph: g,
                }
            })
            .collect();
        let subs = zip_stream(instances, &times);

        let grown = run(&subs, AdmissionPolicy::FifoBackfill, Some(threshold));
        let again = run(&subs, AdmissionPolicy::FifoBackfill, Some(threshold));
        prop_assert_eq!(grown.report.to_json(), again.report.to_json());

        // The conservative guarantee survives elastic growth: the
        // grow-time head guard refuses swaps that would occupy past the
        // reservation what a blocked head needs there.
        for resv in &grown.reservations {
            if !resv.reservation.is_finite() {
                continue;
            }
            let head = grown
                .report
                .workflows
                .iter()
                .find(|r| r.id == resv.head_id)
                .expect("a reserved head is eventually served");
            prop_assert!(
                head.start <= resv.reservation + 1e-9,
                "head {} started {} past its reservation {} despite the growth guard",
                head.id, head.start, resv.reservation
            );
        }

        let f = &grown.report.fleet;
        prop_assert_eq!(f.completed, n);
        prop_assert!(f.utilization > 0.0 && f.utilization <= 1.0 + 1e-9);

        let flagged: Vec<_> = grown
            .report
            .workflows
            .iter()
            .filter(|r| r.lease_grown)
            .collect();
        prop_assert!(
            f.lease_grown as usize >= flagged.len(),
            "fewer growth events ({}) than grown records ({})",
            f.lease_grown, flagged.len()
        );
        prop_assert_eq!(f.lease_grown == 0, flagged.is_empty());
        for r in &flagged {
            let p = grown
                .placements
                .iter()
                .find(|p| p.submission.id == r.id)
                .expect("grown record has a placement");
            prop_assert!(
                !p.regrow.is_empty(),
                "grown placement records no re-solve"
            );
            for regrow in &p.regrow {
                prop_assert!(regrow.at >= r.start);
                prop_assert!(regrow.at <= r.finish + 1e-9);
                dhp_core::mapping::validate(&regrow.suffix_dag, &cluster(), &regrow.mapping)
                    .expect("re-solved suffix mapping valid against the shared cluster");
            }
            // The grown lease covers the re-solved suffix mapping (the
            // last regrow is the schedule that actually executed).
            let last = p.regrow.last().unwrap();
            for proc in last.mapping.proc_of_block.iter().flatten() {
                prop_assert!(
                    p.lease.contains(proc),
                    "suffix mapped onto {proc} outside the grown lease {:?}",
                    p.lease
                );
            }
        }
    }

    #[test]
    fn elastic_shrink_never_delays_a_blocked_heads_reservation(
        n in 3usize..8,
        kind in 0u8..3,
        threshold in 1usize..3,
        seed in any::<u64>(),
    ) {
        // Fork workflows again, but with small leases forced wide
        // (tasks_per_proc = 2) so every lease spans several processors
        // and the shrink pass has something to reclaim when the queue
        // deepens past the threshold.
        let times = arrival_times(n, &process_of(kind), seed);
        let mut state = seed ^ 0x0f1e_2d3c_4b5a_6978;
        let instances: Vec<dhp_wfgen::WorkflowInstance> = (0..n)
            .map(|i| {
                let mut g = dhp_dag::Dag::new();
                let root = g.add_node(1.0 + (splitmix(&mut state) % 8) as f64, 2.0);
                for _ in 0..(2 + splitmix(&mut state) % 3) {
                    let w = 5.0 + (splitmix(&mut state) % 200) as f64 / 2.0;
                    let v = g.add_node(w, 2.0);
                    g.add_edge(root, v, 0.1);
                }
                dhp_wfgen::WorkflowInstance {
                    name: format!("fork-{i}"),
                    family: None,
                    size_class: dhp_wfgen::SizeClass::Real,
                    requested_size: g.node_count(),
                    graph: g,
                }
            })
            .collect();
        let subs = zip_stream(instances, &times);
        let cfg = OnlineConfig {
            policy: AdmissionPolicy::FifoBackfill,
            lease: LeaseSizing {
                tasks_per_proc: 2,
                ..LeaseSizing::default()
            },
            elastic_shrink: Some(threshold),
            ..OnlineConfig::default()
        };
        let shrunk = serve(&cluster(), subs.clone(), &cfg);
        let again = serve(&cluster(), subs, &cfg);
        prop_assert_eq!(shrunk.report.to_json(), again.report.to_json());

        // The conservative guarantee survives shrinking: the
        // shrink-time head guard refuses reclaims that would delay a
        // blocked head past its reservation.
        for resv in &shrunk.reservations {
            if !resv.reservation.is_finite() {
                continue;
            }
            let head = shrunk
                .report
                .workflows
                .iter()
                .find(|r| r.id == resv.head_id)
                .expect("a reserved head is eventually served");
            prop_assert!(
                head.start <= resv.reservation + 1e-9,
                "head {} started {} past its reservation {} despite the shrink guard",
                head.id, head.start, resv.reservation
            );
        }

        // Nothing is ever lost or rejected by a shrink.
        let f = &shrunk.report.fleet;
        prop_assert_eq!(f.completed, n);
        prop_assert_eq!(f.lost, 0);
        prop_assert!(f.utilization > 0.0 && f.utilization <= 1.0 + 1e-9);

        // Counter ↔ record consistency, and every shrunk record carries
        // a valid re-solved suffix inside its *reduced* lease.
        let flagged: Vec<_> = shrunk
            .report
            .workflows
            .iter()
            .filter(|r| r.lease_shrunk)
            .collect();
        prop_assert!(
            f.lease_shrunk as usize >= flagged.len(),
            "fewer shrink events ({}) than shrunk records ({})",
            f.lease_shrunk, flagged.len()
        );
        prop_assert_eq!(f.lease_shrunk == 0, flagged.is_empty());
        for r in &flagged {
            let p = shrunk
                .placements
                .iter()
                .find(|p| p.submission.id == r.id)
                .expect("shrunk record has a placement");
            prop_assert!(!p.regrow.is_empty(), "shrunk placement records no re-solve");
            for regrow in &p.regrow {
                prop_assert!(regrow.at <= r.finish + 1e-9);
                dhp_core::mapping::validate(&regrow.suffix_dag, &cluster(), &regrow.mapping)
                    .expect("re-solved suffix mapping valid against the shared cluster");
            }
            let last = p.regrow.last().unwrap();
            for proc in last.mapping.proc_of_block.iter().flatten() {
                prop_assert!(
                    p.lease.contains(proc),
                    "suffix mapped onto {proc} outside the reduced lease {:?}",
                    p.lease
                );
            }
        }
    }
}
