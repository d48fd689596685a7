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

#[path = "support/online_rows.rs"]
mod online_rows;

use dhp_online::submission::zip_stream;
use dhp_online::{serve, AdmissionPolicy, LeaseSizing, OnlineConfig, ServeOutcome, Submission};
use dhp_wfgen::arrivals::arrival_times;
use online_rows::{cluster, process_of, row, single_cases, single_task_trace, splitmix};
use proptest::prelude::*;
use std::collections::BTreeMap;

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

/// The admission driver's execution strategy (feasibility probes that
/// skip schedule materialisation, epoch-token reservation reuse,
/// tombstoned queue removal) is not a policy: the scheduling outcome —
/// every workflow record, rejection, and fleet aggregate — and every
/// head reservation the engine ever computed (bit-equal instants, same
/// triggers, same order) must equal what the driver that recomputed
/// everything produced. That driver is gone; its outputs over this
/// suite's single-task traces are the `single` rows of
/// `tests/golden/online_golden.txt`, recorded from it with fixed seeds
/// (`online_rows::SINGLE_SEEDS`) in place of proptest's. A reservation
/// token that survived an admit, completion, grow, or shrink it should
/// have been invalidated by diverges here.
#[test]
fn fast_admission_matches_the_slow_baseline_bitwise() {
    let golden: Vec<&str> = include_str!("golden/online_golden.txt")
        .lines()
        .filter(|l| l.starts_with("single "))
        .collect();
    let cases = single_cases();
    assert_eq!(golden.len(), cases.len());
    for (want, case) in golden.into_iter().zip(cases) {
        assert_eq!(want, row(&case.label, &case.serve()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

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
