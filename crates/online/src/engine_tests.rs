//! Behavioural tests of the single-cluster engine: admission,
//! backfilling, reservations, elastic growth, and fleet accounting.
//! These predate the PR-5 module split (they lived in `engine.rs`)
//! and deliberately exercise the engine only through its public
//! surface, so they double as regression cover for the re-exports.

use crate::cache::SolveCache;
use crate::engine::*;
use crate::policy::{AdmissionPolicy, LeaseSizing};
use crate::report::WorkflowRecord;
use crate::submission::stream;
use crate::submission::Submission;
use dhp_core::daghetpart::DagHetPartConfig;
use dhp_core::mapping::validate;
use dhp_platform::Cluster;
use dhp_platform::Processor;
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

fn small_stream(n: usize) -> Vec<Submission> {
    stream(
        n,
        &[Family::Blast, Family::Seismology],
        (20, 40),
        &ArrivalProcess::Poisson { rate: 0.05 },
        42,
    )
}

#[test]
fn serves_everything_on_an_ample_cluster() {
    let cluster = small_cluster();
    let out = serve(&cluster, small_stream(6), &OnlineConfig::default());
    assert_eq!(out.report.fleet.completed, 6);
    assert_eq!(out.report.fleet.rejected, 0);
    assert_eq!(out.placements.len(), 6);
    for p in &out.placements {
        validate(&p.submission.instance.graph, &cluster, &p.mapping)
            .expect("global mapping valid against the shared cluster");
        assert!(p.finish > p.start);
    }
    let f = &out.report.fleet;
    assert!(f.throughput > 0.0);
    assert!(f.utilization > 0.0 && f.utilization <= 1.0 + 1e-9);
    assert!(f.mean_slowdown >= 1.0);
    assert!(f.mean_stretch > 0.0);
    for r in &out.report.workflows {
        assert!(r.baseline_makespan.is_finite() && r.baseline_makespan > 0.0);
        assert!((r.stretch - r.response / r.baseline_makespan).abs() < 1e-12);
        assert!((r.slowdown - r.response / r.service).abs() < 1e-12);
    }
}

#[test]
fn leases_never_overlap_in_time() {
    // Every (arrival process × policy) combination must keep the
    // per-processor served intervals disjoint.
    let cluster = small_cluster();
    let processes = [
        ArrivalProcess::Burst { at: 0.0 },
        ArrivalProcess::Poisson { rate: 0.05 },
        ArrivalProcess::Uniform { interval: 10.0 },
    ];
    for process in &processes {
        for policy in AdmissionPolicy::ALL {
            let cfg = OnlineConfig {
                policy,
                ..OnlineConfig::default()
            };
            let out = serve(
                &cluster,
                stream(10, &[Family::Blast], (20, 40), process, 7),
                &cfg,
            );
            assert_eq!(
                out.report.fleet.completed,
                10,
                "{process:?} under {} dropped work",
                policy.name()
            );
            for p in cluster.proc_ids() {
                let mut spans: Vec<(f64, f64)> = out
                    .report
                    .workflows
                    .iter()
                    .filter(|r| r.lease.contains(&p.0))
                    .map(|r| (r.start, r.finish))
                    .collect();
                spans.sort_by(|a, b| a.0.total_cmp(&b.0));
                for w in spans.windows(2) {
                    assert!(
                        w[1].0 >= w[0].1 - 1e-9,
                        "processor {p} double-leased under {process:?}/{}: {w:?}",
                        policy.name()
                    );
                }
            }
        }
    }
}

#[test]
fn hopeless_workflow_is_rejected_not_starved() {
    // One task needing more memory than any processor has.
    let mut subs = small_stream(2);
    let mut g = dhp_dag::Dag::new();
    g.add_node(5.0, 10_000.0);
    subs.push(Submission {
        id: 99,
        arrival: 0.0,
        instance: dhp_wfgen::WorkflowInstance {
            name: "monster".into(),
            family: None,
            size_class: dhp_wfgen::SizeClass::Real,
            requested_size: 1,
            graph: g,
        },
    });
    let out = serve(&small_cluster(), subs, &OnlineConfig::default());
    assert_eq!(out.report.fleet.rejected, 1);
    let rej = &out.report.rejected[0];
    assert_eq!(rej.id, 99);
    // Screened out on arrival: the rejection instant is recorded
    // and the implied wait is zero.
    assert_eq!(rej.rejected_at, rej.arrival);
    assert_eq!(rej.wait, 0.0);
    assert_eq!(out.report.fleet.completed, 2);
}

/// A three-processor cluster where the head needs the (busy) big
/// processor: FIFO blocks the line, fifo-backfill serves a small
/// later job in the hole without delaying the head's start.
fn backfill_scenario() -> (Cluster, Vec<Submission>) {
    use crate::submission::single_task;
    let cluster = Cluster::new(
        vec![
            Processor::new("big", 1.0, 1000.0),
            Processor::new("sml", 1.0, 100.0),
            Processor::new("sml", 1.0, 100.0),
        ],
        1.0,
    );
    let subs = vec![
        // Occupies the big-memory processor until t=100.
        single_task(0, 0.0, 100.0, 900.0, "hog"),
        // The head: only fits the big processor, so it must wait.
        single_task(1, 1.0, 10.0, 500.0, "head"),
        // Small and quick: fits a small processor, done long before
        // the head's reservation at t=100.
        single_task(2, 2.0, 1.0, 50.0, "minnow"),
    ];
    (cluster, subs)
}

#[test]
fn fifo_head_of_line_blocks_but_backfill_fills_the_hole() {
    let (cluster, subs) = backfill_scenario();
    let run = |policy| {
        let cfg = OnlineConfig {
            policy,
            ..OnlineConfig::default()
        };
        serve(&cluster, subs.clone(), &cfg)
    };
    let by_id = |out: &ServeOutcome, id: usize| -> WorkflowRecord {
        out.report
            .workflows
            .iter()
            .find(|r| r.id == id)
            .unwrap_or_else(|| panic!("workflow {id} not served"))
            .clone()
    };

    let fifo = run(AdmissionPolicy::Fifo);
    let backfill = run(AdmissionPolicy::FifoBackfill);
    assert_eq!(fifo.report.fleet.completed, 3);
    assert_eq!(backfill.report.fleet.completed, 3);

    // FIFO: the blocked head holds up the minnow until the hog
    // completes at t=100.
    assert_eq!(by_id(&fifo, 1).start, 100.0);
    assert_eq!(by_id(&fifo, 2).start, 100.0);

    // Backfill: the minnow runs immediately on a small processor...
    assert_eq!(by_id(&backfill, 2).start, 2.0);
    // ...without delaying the head past its reservation (t=100, the
    // hog's completion — identical to the FIFO start).
    assert_eq!(by_id(&backfill, 1).start, 100.0);
}

/// Pins the stale-state fixes: two same-instant backfills must be
/// admitted in ONE pass, with the conservative reservation
/// re-derived after the first grant (a `PostAdmission` record) and
/// both grants inside the fresh bound. Reverting the fix — keeping
/// the pass-entry reservation and free speed across same-pass
/// admissions — makes the `PostAdmission` assertion fail.
#[test]
fn same_pass_admissions_refresh_the_reservation_and_free_speed() {
    use crate::submission::single_task;
    let cluster = Cluster::new(
        vec![
            Processor::new("big", 1.0, 1000.0),
            Processor::new("sml", 1.0, 100.0),
            Processor::new("sml", 1.0, 100.0),
        ],
        1.0,
    );
    let subs = vec![
        single_task(0, 0.0, 100.0, 900.0, "hog"),
        single_task(1, 1.0, 10.0, 500.0, "head"),
        // Two same-instant backfill candidates: both fit the small
        // processors and finish far inside the head's reservation
        // at t=100.
        single_task(2, 2.0, 1.0, 50.0, "minnow-1"),
        single_task(3, 2.0, 5.0, 50.0, "minnow-2"),
    ];
    let cfg = OnlineConfig {
        policy: AdmissionPolicy::FifoBackfill,
        ..OnlineConfig::default()
    };
    let out = serve(&cluster, subs, &cfg);
    assert_eq!(out.report.fleet.completed, 4);
    let by_id = |id: usize| -> WorkflowRecord {
        out.report
            .workflows
            .iter()
            .find(|r| r.id == id)
            .unwrap()
            .clone()
    };
    // Both minnows backfill at their shared arrival instant — one
    // admission pass serves them back to back.
    assert_eq!(by_id(2).start, 2.0);
    assert_eq!(by_id(3).start, 2.0);
    // The head starts exactly at its reservation, never later.
    assert_eq!(by_id(1).start, 100.0);
    // The fix's observable: after the first same-pass grant the
    // reservation was re-derived against the shrunken free set.
    let post: Vec<&ReservationRecord> = out
        .reservations
        .iter()
        .filter(|r| r.trigger == ReservationTrigger::PostAdmission)
        .collect();
    assert!(
        !post.is_empty(),
        "no PostAdmission reservation re-derivation recorded: {:?}",
        out.reservations
    );
    // Every reservation ever computed for the head bounds its
    // actual start (the conservative guarantee), and the same-pass
    // grants stayed inside the freshest bound.
    for r in out.reservations.iter().filter(|r| r.head_id == 1) {
        assert!(by_id(1).start <= r.reservation + 1e-9);
    }
    for id in [2usize, 3] {
        assert!(by_id(id).finish <= 100.0 + 1e-9);
    }
}

/// EASY vs conservative on a hole the conservative bound cannot
/// use: a long-running job fits a small processor the head does not
/// need, so `easy-backfill` starts it immediately while
/// `fifo-backfill` (whose grants must finish inside the
/// reservation) keeps it queued until the head clears — and the
/// head starts at its reservation either way.
#[test]
fn easy_backfill_admits_past_the_reservation_on_spare_processors() {
    use crate::submission::single_task;
    let cluster = Cluster::new(
        vec![
            Processor::new("big", 1.0, 1000.0),
            Processor::new("sml", 1.0, 100.0),
        ],
        1.0,
    );
    let subs = vec![
        single_task(0, 0.0, 100.0, 900.0, "hog"),
        single_task(1, 1.0, 10.0, 500.0, "head"),
        // Runs far past the head's reservation (t=100), but on the
        // small processor the head cannot use anyway.
        single_task(2, 2.0, 500.0, 50.0, "whale"),
    ];
    let run = |policy| {
        let cfg = OnlineConfig {
            policy,
            ..OnlineConfig::default()
        };
        serve(&cluster, subs.clone(), &cfg)
    };
    let conservative = run(AdmissionPolicy::FifoBackfill);
    let easy = run(AdmissionPolicy::EasyBackfill);
    let start = |out: &ServeOutcome, id: usize| {
        out.report
            .workflows
            .iter()
            .find(|r| r.id == id)
            .unwrap()
            .start
    };
    // Conservative: the whale's finish (t≈502) overshoots the
    // reservation, so it waits for the head.
    assert_eq!(start(&conservative, 2), 100.0);
    // EASY: admitted immediately — the head still fits the big
    // processor at the reservation instant.
    assert_eq!(start(&easy, 2), 2.0);
    // The head is not delayed in either run.
    assert_eq!(start(&conservative, 1), 100.0);
    assert_eq!(start(&easy, 1), 100.0);
    assert!(easy.report.fleet.mean_wait < conservative.report.fleet.mean_wait);
    // EASY's same-instant admissions are a superset of the
    // conservative ones: everything conservative served with zero
    // wait, EASY served with zero wait too.
    for r in &conservative.report.workflows {
        if r.wait == 0.0 {
            let e = easy.report.workflows.iter().find(|x| x.id == r.id).unwrap();
            assert_eq!(e.wait, 0.0, "easy delayed {}", r.id);
        }
    }
}

/// Elastic growth: a fork workflow serialised on a one-processor
/// lease gets the just-freed second processor, its unstarted suffix
/// is re-solved on the grown lease, and it finishes much earlier —
/// deterministically, with truthful busy-time accounting.
#[test]
fn elastic_growth_reschedules_the_suffix_on_freed_processors() {
    use crate::submission::single_task;
    let cluster = Cluster::new(
        vec![
            Processor::new("p0", 1.0, 200.0),
            Processor::new("p1", 1.0, 200.0),
        ],
        1.0,
    );
    // root → {a, b, c}: on one processor this serialises to
    // 1 + 10 + 100 + 100 = 211.
    let mut g = dhp_dag::Dag::new();
    let root = g.add_node(1.0, 1.0);
    for work in [10.0, 100.0, 100.0] {
        let v = g.add_node(work, 1.0);
        g.add_edge(root, v, 0.1);
    }
    let fork = Submission {
        id: 1,
        arrival: 0.0,
        instance: dhp_wfgen::WorkflowInstance {
            name: "fork".into(),
            family: None,
            size_class: dhp_wfgen::SizeClass::Real,
            requested_size: 4,
            graph: g,
        },
    };
    // The blocker holds the other processor until t=5; the fork is
    // admitted at t=0 on the one remaining processor.
    let subs = vec![single_task(0, 0.0, 5.0, 1.0, "blocker"), fork];
    let run = |elastic| {
        let cfg = OnlineConfig {
            elastic,
            ..OnlineConfig::default()
        };
        serve(&cluster, subs.clone(), &cfg)
    };
    let fixed = run(None);
    let grown = run(Some(1));
    let record = |out: &ServeOutcome| {
        out.report
            .workflows
            .iter()
            .find(|r| r.id == 1)
            .unwrap()
            .clone()
    };
    // Static leases: the fork serialises on its single processor.
    assert_eq!(fixed.report.fleet.lease_grown, 0);
    assert!(!record(&fixed).lease_grown);
    assert_eq!(record(&fixed).finish, 211.0);
    // Elastic: at t=5 the blocker's processor grows the fork's
    // lease; the unstarted 100+100 suffix re-solves onto two
    // processors and the fork finishes at 11 + 100 = 111 (the
    // committed prefix — root and the running 10-work task —
    // drains first).
    assert_eq!(grown.report.fleet.lease_grown, 1);
    let r = record(&grown);
    assert!(r.lease_grown);
    assert_eq!(r.finish, 111.0);
    assert_eq!(r.lease.len(), 2, "lease did not grow: {:?}", r.lease);
    // The regrow exposes a valid suffix mapping on the shared
    // cluster, released only after the committed prefix drained.
    let p = grown
        .placements
        .iter()
        .find(|p| p.submission.id == 1)
        .unwrap();
    assert_eq!(p.regrow.len(), 1, "exactly one growth recorded");
    let regrow = &p.regrow[0];
    assert_eq!(regrow.suffix.len(), 2);
    assert_eq!(regrow.at, 11.0);
    validate(&regrow.suffix_dag, &cluster, &regrow.mapping)
        .expect("suffix mapping valid against the shared cluster");
    // Fleet accounting stays truthful after the swap.
    let f = &grown.report.fleet;
    assert!(f.utilization > 0.0 && f.utilization <= 1.0 + 1e-9);
    assert!(f.utilization >= fixed.report.fleet.utilization - 1e-9);
    // Byte-identical determinism.
    let again = run(Some(1));
    assert_eq!(grown.report.to_json(), again.report.to_json());
}

/// Elastic shrink: a workflow holding the whole cluster while a
/// newcomer queues gives back every processor its unstarted suffix does
/// not need — keeping the ones running tasks and the largest droppable
/// memory — and the newcomer starts on a released processor at once.
#[test]
fn elastic_shrink_releases_idle_lease_processors_to_the_queue() {
    use crate::submission::single_task;
    // Two slow big memories, two fast small ones.
    let cluster = Cluster::new(
        vec![
            Processor::new("big", 1.0, 100.0),
            Processor::new("mid", 1.0, 60.0),
            Processor::new("fast", 10.0, 20.0),
            Processor::new("fast", 10.0, 20.0),
        ],
        1.0,
    );
    // root → {a, b} → c: a and b run on the fast processors, c needs
    // 50 memory, which only big and mid hold.
    let mut g = dhp_dag::Dag::new();
    let root = g.add_node(1.0, 1.0);
    let c = g.add_node(100.0, 50.0);
    for _ in 0..2 {
        let v = g.add_node(50.0, 1.0);
        g.add_edge(root, v, 0.1);
        g.add_edge(v, c, 0.1);
    }
    let subs = vec![
        Submission {
            id: 0,
            arrival: 0.0,
            instance: dhp_wfgen::WorkflowInstance {
                name: "diamond".into(),
                family: None,
                size_class: dhp_wfgen::SizeClass::Real,
                requested_size: 4,
                graph: g,
            },
        },
        // Arrives while the diamond holds every processor; 30 memory
        // fits only big and mid.
        single_task(1, 2.0, 10.0, 30.0, "newcomer"),
    ];
    let run = |elastic_shrink| {
        let cfg = OnlineConfig {
            elastic_shrink,
            lease: LeaseSizing {
                min_procs: 4,
                max_procs: 4,
                ..LeaseSizing::default()
            },
            ..OnlineConfig::default()
        };
        serve(&cluster, subs.clone(), &cfg)
    };
    let record = |out: &ServeOutcome, id: usize| {
        out.report
            .workflows
            .iter()
            .find(|r| r.id == id)
            .unwrap()
            .clone()
    };
    // Static leases: the newcomer waits for the whole diamond.
    let fixed = run(None);
    assert_eq!(fixed.report.fleet.lease_shrunk, 0);
    assert!(!record(&fixed, 0).lease_shrunk);
    assert_eq!(record(&fixed, 1).start, record(&fixed, 0).finish);

    let out = run(Some(1));
    assert_eq!(out.report.fleet.lease_shrunk, 1);
    // At t = 2 root has finished on mid, and a and b run on the fast
    // processors, which stay. Of the droppable big and mid, c's 50
    // memory keeps the largest, big — mid would hold c too — and mid
    // goes.
    let diamond = record(&out, 0);
    assert!(diamond.lease_shrunk && !diamond.lease_grown);
    assert_eq!(diamond.lease, vec![0, 2, 3]);
    // The newcomer starts on the released processor at that instant.
    let newcomer = record(&out, 1);
    assert_eq!((newcomer.start, newcomer.lease), (2.0, vec![1]));
    // c re-solves onto big once a and b drain (1.1 + 50 / 10).
    let p = out
        .placements
        .iter()
        .find(|p| p.submission.id == 0)
        .unwrap();
    assert_eq!(p.regrow.len(), 1, "exactly one shrink recorded");
    let regrow = &p.regrow[0];
    assert_eq!(regrow.suffix, vec![c]);
    assert_eq!(regrow.at, 6.1);
    assert_eq!(
        regrow.mapping.proc_of_block,
        vec![Some(dhp_platform::ProcId(0))]
    );
    validate(&regrow.suffix_dag, &cluster, &regrow.mapping)
        .expect("suffix mapping valid against the shared cluster");
    assert_eq!(diamond.finish, p.finish);
    // Byte-identical determinism.
    assert_eq!(out.report.to_json(), run(Some(1)).report.to_json());
}

/// Same-instant arrivals outrank elastic growth (code-review fix):
/// a workflow arriving at the very instant a completion frees a
/// processor gets that processor, not a running workflow's grown
/// lease — completions are processed first at equal instants, so
/// the growth decision must wait for the arrival's iteration.
#[test]
fn elastic_growth_yields_to_same_instant_arrivals() {
    use crate::submission::single_task;
    let cluster = Cluster::new(
        vec![
            Processor::new("p0", 1.0, 100.0),
            Processor::new("p1", 1.0, 100.0),
        ],
        1.0,
    );
    // A serial fork (1 + 10 + 100 + 100) on p1 whose suffix would
    // love p0 the moment it frees at t=5 — but a newcomer arrives
    // at exactly t=5 and has first claim.
    let mut g = dhp_dag::Dag::new();
    let root = g.add_node(1.0, 1.0);
    for work in [10.0, 100.0, 100.0] {
        let v = g.add_node(work, 1.0);
        g.add_edge(root, v, 0.1);
    }
    let subs = vec![
        single_task(0, 0.0, 5.0, 1.0, "blocker"), // p0 until t=5
        Submission {
            id: 1,
            arrival: 0.0,
            instance: dhp_wfgen::WorkflowInstance {
                name: "grower".into(),
                family: None,
                size_class: dhp_wfgen::SizeClass::Real,
                requested_size: 4,
                graph: g,
            },
        },
        single_task(2, 5.0, 7.0, 1.0, "newcomer"),
    ];
    let cfg = OnlineConfig {
        elastic: Some(1),
        ..OnlineConfig::default()
    };
    let out = serve(&cluster, subs, &cfg);
    let by_id = |id: usize| -> WorkflowRecord {
        out.report
            .workflows
            .iter()
            .find(|r| r.id == id)
            .unwrap()
            .clone()
    };
    // The newcomer starts the instant the blocker's processor
    // frees; growing the fork onto it (which would hold it until
    // t=111) loses to the same-instant arrival.
    assert_eq!(by_id(2).start, 5.0);
    assert_eq!(by_id(2).wait, 0.0);
    assert_eq!(out.report.fleet.lease_grown, 0);
    assert_eq!(by_id(1).finish, 211.0);
}

/// The head guard (code-review fix): elastic growth must not seize
/// free processors a blocked backfill head's reservation assumed
/// would be available. The head here needs the big processor (for
/// its fat-output root) *plus* one small one; growing the running
/// fork onto the free small processor past the reservation would
/// push the head from t=100 to t=121 — under `fifo-backfill` the
/// guard refuses the swap, under plain `fifo` (no reservations, no
/// guarantee) the growth goes ahead and the head waits.
#[test]
fn elastic_growth_never_delays_a_blocked_backfill_head() {
    use crate::submission::single_task;
    let cluster = Cluster::new(
        vec![
            Processor::new("big", 1.0, 145.0),
            Processor::new("sml", 1.0, 90.0),
            Processor::new("sml", 1.0, 90.0),
        ],
        1.0,
    );
    // The head: root with two 70-volume output files → any block
    // holding the root needs >= 141 memory (the big processor), and
    // a single-processor placement needs >= 150 (nowhere) — so the
    // head needs big AND a small processor.
    let mut h = dhp_dag::Dag::new();
    let p = h.add_node(1.0, 1.0);
    for _ in 0..2 {
        let v = h.add_node(100.0, 10.0);
        h.add_edge(p, v, 70.0);
    }
    // The grower: a serial fork (1 + 3×60 work) on one small
    // processor, whose unstarted suffix would love the other one.
    let mut g = dhp_dag::Dag::new();
    let root = g.add_node(1.0, 1.0);
    for _ in 0..3 {
        let v = g.add_node(60.0, 1.0);
        g.add_edge(root, v, 0.1);
    }
    let wf = |id: usize, graph: dhp_dag::Dag, name: &str, arrival: f64| Submission {
        id,
        arrival,
        instance: dhp_wfgen::WorkflowInstance {
            name: name.into(),
            family: None,
            size_class: dhp_wfgen::SizeClass::Real,
            requested_size: graph.node_count(),
            graph,
        },
    };
    let subs = vec![
        single_task(0, 0.0, 100.0, 140.0, "hog"), // big until t=100
        single_task(1, 0.0, 4.0, 85.0, "filler"), // sml1 until t=4
        wf(2, g, "grower", 0.0),                  // sml2 until t=181
        wf(3, h, "head", 1.0),                    // blocked: needs big + a sml
    ];
    let run = |policy| {
        let cfg = OnlineConfig {
            policy,
            elastic: Some(2),
            ..OnlineConfig::default()
        };
        serve(&cluster, subs.clone(), &cfg)
    };
    let start = |out: &ServeOutcome, id: usize| {
        out.report
            .workflows
            .iter()
            .find(|r| r.id == id)
            .unwrap()
            .start
    };
    // fifo-backfill: at t=4 the filler's processor frees with only
    // the head queued; growing the grower onto it (busy until 121)
    // would overshoot the head's reservation (t=100, when big
    // frees) — the guard refuses, and the head starts on time.
    let guarded = run(AdmissionPolicy::FifoBackfill);
    assert_eq!(guarded.report.fleet.lease_grown, 0);
    assert_eq!(start(&guarded, 3), 100.0);
    for r in guarded.reservations.iter().filter(|r| r.head_id == 3) {
        assert!(start(&guarded, 3) <= r.reservation + 1e-9);
    }
    // Plain fifo grants no reservations, so nothing stops the
    // growth — the grower finishes earlier (121 instead of 181)
    // and the unprotected head waits for it.
    let unguarded = run(AdmissionPolicy::Fifo);
    assert_eq!(unguarded.report.fleet.lease_grown, 1);
    assert_eq!(start(&unguarded, 3), 121.0);
}

#[test]
fn utilization_ignores_leading_dead_time() {
    // Shifting every arrival by a constant must not deflate
    // utilization: the measured window starts at the first served
    // arrival, not at t=0.
    let cluster = small_cluster();
    let base = small_stream(6);
    let shifted = crate::submission::shift_arrivals(base.clone(), 10_000.0);
    let a = serve(&cluster, base, &OnlineConfig::default());
    let b = serve(&cluster, shifted, &OnlineConfig::default());
    assert_eq!(a.report.fleet.completed, b.report.fleet.completed);
    assert!(
        (a.report.fleet.utilization - b.report.fleet.utilization).abs() < 1e-9,
        "shifted trace deflated utilization: {} vs {}",
        a.report.fleet.utilization,
        b.report.fleet.utilization
    );
    assert!((b.report.fleet.window_start - (a.report.fleet.window_start + 10_000.0)).abs() < 1e-9);
    // Throughput is window-relative for the same reason.
    assert!(
        (a.report.fleet.throughput - b.report.fleet.throughput).abs() < 1e-9,
        "shifted trace deflated throughput: {} vs {}",
        a.report.fleet.throughput,
        b.report.fleet.throughput
    );
}

#[test]
fn load_aware_sizing_shrinks_leases_under_burst() {
    // A burst with load-aware sizing must not serialise: leases
    // shrink with the backlog, so mean lease size drops (or at
    // least concurrency holds) relative to the load-blind run.
    let cluster = small_cluster();
    let subs = stream(
        8,
        &[Family::Blast],
        (40, 60),
        &ArrivalProcess::Burst { at: 0.0 },
        13,
    );
    let run = |shrink: bool| {
        let cfg = OnlineConfig {
            lease: LeaseSizing {
                tasks_per_proc: 20,
                shrink_under_load: shrink,
                ..LeaseSizing::default()
            },
            ..OnlineConfig::default()
        };
        serve(&cluster, subs.clone(), &cfg)
    };
    let blind = run(false);
    let aware = run(true);
    assert_eq!(blind.report.fleet.completed, 8);
    assert_eq!(aware.report.fleet.completed, 8);
    assert!(
        aware.report.fleet.mean_lease <= blind.report.fleet.mean_lease + 1e-9,
        "load-aware sizing grew leases: {} vs {}",
        aware.report.fleet.mean_lease,
        blind.report.fleet.mean_lease
    );
}

#[test]
fn capped_cache_changes_only_solver_statistics() {
    // A repeat-heavy trace through a tiny LRU-capped cache: evictions
    // happen (and surface in the fleet metrics), but the scheduling
    // outcome is byte-identical to the unbounded run — the cache cap
    // must only ever cost solver re-runs, never change a decision.
    let cluster = small_cluster();
    let subs = crate::submission::repeating_stream(
        4,
        16,
        &[Family::Blast, Family::Seismology],
        (20, 40),
        &ArrivalProcess::Uniform { interval: 15.0 },
        42,
    );
    let run = |cache_cap: Option<usize>| {
        let cache = cache_cap.map_or_else(SolveCache::new, SolveCache::with_capacity);
        serve_with_cache(&cluster, subs.clone(), &OnlineConfig::default(), &cache)
    };
    let unbounded = run(None);
    let capped = run(Some(1));
    assert_eq!(unbounded.report.fleet.solve_cache_evictions, 0);
    assert!(
        capped.report.fleet.solve_cache_evictions > 0,
        "a 1-entry cache on a 4-topology trace must evict"
    );
    assert!(capped.report.fleet.solve_cache_misses > unbounded.report.fleet.solve_cache_misses);
    let strip = |out: &ServeOutcome| {
        let mut r = out.report.clone();
        r.fleet.clear_solve_stats();
        r.to_json()
    };
    assert_eq!(strip(&unbounded), strip(&capped));
    // Determinism holds with the cap on (eviction order is recency
    // order, which is deterministic).
    assert_eq!(run(Some(1)).report.to_json(), capped.report.to_json());
}

#[test]
fn the_baseline_batch_keys_its_solves_under_its_own_solver() {
    // One single-task workflow on four processors: its lease is one
    // processor, so the whole-cluster shape is solved by the baseline
    // batch alone — under the one-worker settings' hash, never under
    // the lease solver's.
    let cluster = small_cluster();
    let sub = crate::submission::single_task(0, 0.0, 10.0, 100.0, "alone");
    let fp = sub.instance.graph.fingerprint();
    let cfg = OnlineConfig::default();
    let cache = SolveCache::new();
    let out = serve_with_cache(&cluster, vec![sub], &cfg, &cache);
    assert_eq!(out.report.fleet.completed, 1);
    assert!(out.placements[0].lease.len() < cluster.len());
    let whole = cluster.shape_of_slice(&cluster.ids_by_memory_desc());
    let one_worker = DagHetPartConfig {
        parallel: false,
        ..cfg.solver.clone()
    };
    let warm = |settings: &DagHetPartConfig| {
        cache.is_warm(&(fp, whole, cfg.algorithm, SolveCache::config_hash(settings)))
    };
    assert!(
        warm(&one_worker),
        "the batch's whole-cluster solve is memoized"
    );
    assert!(
        !warm(&cfg.solver),
        "no lease probe solved the whole cluster"
    );
}

#[test]
fn identical_runs_produce_identical_reports() {
    let cluster = small_cluster();
    let a = serve(&cluster, small_stream(8), &OnlineConfig::default());
    let b = serve(&cluster, small_stream(8), &OnlineConfig::default());
    assert_eq!(a.report.to_json(), b.report.to_json());
}

#[test]
fn all_policies_serve_the_same_set() {
    let cluster = small_cluster();
    for policy in AdmissionPolicy::ALL {
        let cfg = OnlineConfig {
            policy,
            ..OnlineConfig::default()
        };
        let out = serve(&cluster, small_stream(8), &cfg);
        assert_eq!(
            out.report.fleet.completed,
            8,
            "policy {} dropped work",
            policy.name()
        );
        let mut ids: Vec<usize> = out.report.workflows.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
    }
}
