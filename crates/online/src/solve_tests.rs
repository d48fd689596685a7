//! Property tests of [`CacheView::solve`], the one probe every lease
//! search makes. The yes/no the reservation scans need used to come
//! from a separate feasibility probe whose contract was "exactly
//! [`SolveCache::schedule`]`(..).is_ok()`, with the same key and the
//! same charges". `solve(..).is_ok()` replaced it, so it is held to
//! that same contract: on random probe sequences — warm hits, misses,
//! memoized `NoSolution`s, LRU evictions, a disabled cache — it gives
//! the reference's answer and moves the store's counters exactly as
//! the reference moves a twin store, through direct and charging views;
//! a charging view charges the same to its account.
//!
//! The admission probe is held the same way to the two-call probe it
//! replaced (kept below as the reference, `two_call_admit`): per lease
//! size a freshly hashed shape, `solve_keyed`, then `sim_outcome_keyed`
//! on the size that places. `try_admit` and `can_place` answer through
//! [`CacheView::probe_warm`] on one hash and one lock, and read shapes
//! back from the probe buffer; on random probe sequences they must
//! decide the same, move every counter the same (globally and on a
//! charged account), and leave the same recency clock and per-entry
//! stamps.

use crate::admission::{can_place, try_admit, Admit};
use crate::cache::{CacheView, SolveCache, SolveCacheStats, Solver};
use crate::engine::OnlineConfig;
use crate::free_set::{FreeSet, Mask};
use crate::lease::{escalation_sizes, simulate_outcome, Grant};
use crate::state::{ArrivalFacts, Pending};
use crate::submission::Submission;
use dhp_core::daghetpart::DagHetPartConfig;
use dhp_core::Algorithm;
use dhp_dag::{builder, Dag};
use dhp_platform::{Cluster, ProcId, Processor};
use dhp_wfgen::{SizeClass, WorkflowInstance};
use std::sync::Arc;

fn cluster() -> Cluster {
    Cluster::new(
        vec![
            Processor::new("m0", 2.0, 64.0),
            Processor::new("m1", 4.0, 128.0),
            Processor::new("m2", 1.0, 32.0),
            Processor::new("m3", 8.0, 256.0),
        ],
        1.0,
    )
}

/// Leases in carve order: single processors (the long chain fits none
/// of the small ones), pairs, and the whole cluster.
fn leases() -> Vec<Vec<ProcId>> {
    [
        &[2][..],
        &[0],
        &[3],
        &[3, 1],
        &[1, 0],
        &[0, 2],
        &[3, 1, 0, 2],
    ]
    .iter()
    .map(|ids| ids.iter().map(|&i| ProcId(i)).collect())
    .collect()
}

fn graphs() -> Vec<Dag> {
    vec![
        builder::chain(3, 2.0, 4.0, 1.0),
        builder::chain(5, 2.0, 4.0, 1.0),
        builder::fork_join(6, 10.0, 4.0, 2.0),
        builder::chain(40, 1.0, 30.0, 5.0),
        two_branches(),
        builder::chain(1, 1.0, 300.0, 0.0),
    ]
}

/// Two branches of two tasks each under one source, 30-unit files on
/// every edge: every task needs at most 62, but one processor must
/// hold a whole branch's files besides the other's, so a lease of m0
/// alone (64) has no solution though the memory screen passes it.
fn two_branches() -> Dag {
    let mut g = Dag::new();
    let n: Vec<_> = (0..5).map(|_| g.add_node(3.0, 2.0)).collect();
    for (src, dst) in [(0, 1), (0, 2), (1, 3), (2, 4)] {
        g.add_edge(n[src], n[dst], 30.0);
    }
    g
}

const ALGORITHMS: [Algorithm; 2] = [Algorithm::DagHetPart, Algorithm::DagHetMem];

#[derive(Clone, Copy, Debug)]
enum Mode {
    Direct,
    Live,
}

/// One solver per algorithm of [`ALGORITHMS`], under default settings.
fn solvers() -> [Solver; 2] {
    ALGORITHMS.map(|algorithm| Solver::new(algorithm, DagHetPartConfig::default()))
}

/// `cache` probed with `solver`, charging `account` in [`Mode::Live`].
fn view<'a>(
    mode: Mode,
    cache: &'a SolveCache,
    solver: &'a Solver,
    account: &'a mut SolveCacheStats,
) -> CacheView<'a> {
    let view = CacheView::direct(cache, solver);
    match mode {
        Mode::Direct => view,
        Mode::Live => view.charging(account),
    }
}

fn delta(after: SolveCacheStats, before: SolveCacheStats) -> SolveCacheStats {
    SolveCacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        sim_hits: after.sim_hits - before.sim_hits,
        sim_misses: after.sim_misses - before.sim_misses,
    }
}

/// Drives `probes` (indices into graphs × leases × algorithms) through
/// `view.solve` on one cache and through `SolveCache::schedule` on a
/// twin, comparing every answer and every counter move.
fn agree(mode: Mode, make: fn() -> SolveCache, probes: &[(usize, usize, usize)]) {
    let c = cluster();
    let cfg = DagHetPartConfig::default();
    let chash = SolveCache::config_hash(&cfg);
    let (graphs, leases, solvers) = (graphs(), leases(), solvers());
    let reference = make();
    let subject = make();
    let mut account = SolveCacheStats::default();
    for &(gi, li, ai) in probes {
        let (g, ids, algo) = (&graphs[gi], &leases[li], ALGORITHMS[ai]);
        let fp = g.fingerprint();
        let before = reference.stats();
        let want = reference
            .schedule(g, fp, &c.subcluster(ids), algo, &cfg, chash)
            .is_ok();
        let want_moved = delta(reference.stats(), before);
        let before = subject.stats();
        let got = view(mode, &subject, &solvers[ai], &mut account)
            .solve(g, fp, &c, ids)
            .is_ok();
        let moved = delta(subject.stats(), before);
        assert_eq!(got, want, "{mode:?}: graph {gi}, lease {ids:?}, {algo:?}");
        assert_eq!(
            moved, want_moved,
            "{mode:?}: graph {gi}, lease {ids:?}, {algo:?}"
        );
    }
    match mode {
        Mode::Direct => assert_eq!(account, SolveCacheStats::default()),
        Mode::Live => assert_eq!(account, subject.stats(), "live charges"),
    }
    assert_eq!(subject.len(), reference.len());
    for g in &graphs {
        for ids in &leases {
            for algo in ALGORITHMS {
                let key = (g.fingerprint(), c.shape_of_slice(ids), algo, chash);
                assert_eq!(
                    subject.is_warm(&key),
                    reference.is_warm(&key),
                    "{mode:?}: store contents differ"
                );
            }
        }
    }
}

fn unbounded() -> SolveCache {
    SolveCache::new()
}

fn capped() -> SolveCache {
    SolveCache::with_capacity(3)
}

fn disabled() -> SolveCache {
    SolveCache::disabled()
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(24))]

    #[test]
    fn solve_answers_and_charges_like_the_feasibility_probe_it_replaced(
        probes in proptest::collection::vec((0usize..4, 0usize..7, 0usize..2), 1..40),
    ) {
        for make in [unbounded, capped, disabled] {
            agree(Mode::Direct, make, &probes);
            agree(Mode::Live, make, &probes);
        }
    }
}

/// The three outcomes one by one, so a failure names its case: a miss
/// solves, a repeat hits, and an infeasible lease is a memoized
/// `NoSolution` that hits as `Err` too.
#[test]
fn solve_hits_misses_and_memoized_no_solution() {
    let (gi_small, gi_long) = (0, 3);
    let (tiny, pair) = (0, 3);
    let probes = [
        (gi_small, pair, 0),
        (gi_small, pair, 0),
        (gi_long, tiny, 0),
        (gi_long, tiny, 0),
    ];
    for mode in [Mode::Direct, Mode::Live] {
        agree(mode, unbounded, &probes);
    }
    let cache = SolveCache::new();
    let [solver, _] = solvers();
    let view = CacheView::direct(&cache, &solver);
    let c = cluster();
    let long = &graphs()[gi_long];
    for _ in 0..2 {
        assert!(view
            .solve(long, long.fingerprint(), &c, &leases()[tiny])
            .is_err());
    }
    let s = cache.stats();
    assert_eq!((s.hits, s.misses, cache.len()), (1, 1, 1));
}

// ----------------------------------------------------------------------
// The one-lock admission probe against the two-call probe it replaced

/// The admission probe as it was before [`CacheView::probe_warm`]: the
/// free list filtered afresh, each size's shape hashed afresh,
/// `solve_keyed` per size and `sim_outcome_keyed` on the size that
/// places. `with_sim: false` is `can_place`'s half: placeability only.
fn two_call_admit(
    c: &Cluster,
    free_set: &[bool],
    cand: &Pending,
    cfg: &OnlineConfig,
    view: &CacheView,
    cap: Option<f64>,
    with_sim: bool,
) -> Admit {
    let g = &cand.submission.instance.graph;
    let free: Vec<ProcId> = c
        .ids_by_memory_desc()
        .into_iter()
        .filter(|p| free_set[p.idx()])
        .collect();
    let whole = free.len() == c.len();
    if free.is_empty() {
        return Admit::Wait;
    }
    if cand.max_task_req > c.memory(free[0]) * (1.0 + 1e-9) {
        return if whole {
            Admit::Reject(format!(
                "task requirement {:.2} exceeds every processor memory",
                cand.max_task_req
            ))
        } else {
            Admit::Wait
        };
    }
    let target = if with_sim {
        cfg.lease.target_under_load(g.node_count(), 1)
    } else {
        cfg.lease.target(g.node_count())
    };
    for size in escalation_sizes(target, free.len()) {
        let lease = &free[..size];
        let key = view.key(cand.fingerprint, c.shape_of_slice(lease));
        let Ok(local) = view.solve_keyed(key, g, c, lease) else {
            continue;
        };
        if !with_sim {
            return Admit::Overshoot; // "placed"; no sim asked
        }
        let sim = view.sim_outcome_keyed(key, || {
            simulate_outcome(g, &c.subcluster(lease), &local.mapping)
        });
        if cap.is_some_and(|cap| sim.makespan > cap + 1e-9) {
            return Admit::Overshoot;
        }
        return Admit::Granted(Box::new(Grant::build(cand, lease, &local, sim, 0.0, None)));
    }
    if whole {
        Admit::Reject(format!(
            "no valid mapping exists on the whole idle cluster \
             ({} processors, {:.2} total memory)",
            c.len(),
            c.total_memory()
        ))
    } else {
        Admit::Wait
    }
}

/// What an admission probe decided, comparably.
#[derive(Clone, Debug, PartialEq)]
enum Decided {
    Granted {
        finish: u64,
        lease: Vec<ProcId>,
        mapping: Vec<Option<ProcId>>,
        busy: Vec<(ProcId, u64)>,
    },
    Overshoot,
    Wait,
    Reject(String),
}

fn decided(admit: Admit) -> Decided {
    match admit {
        Admit::Granted(grant) => Decided::Granted {
            finish: grant.placement.finish.to_bits(),
            lease: grant.placement.lease.clone(),
            mapping: grant.placement.mapping.proc_of_block.clone(),
            busy: grant.busy.iter().map(|&(p, b)| (p, b.to_bits())).collect(),
        },
        Admit::Overshoot => Decided::Overshoot,
        Admit::Wait => Decided::Wait,
        Admit::Reject(reason) => Decided::Reject(reason),
    }
}

fn candidate(gi: usize) -> Pending {
    let sub = Submission {
        id: gi,
        arrival: 0.0,
        instance: WorkflowInstance {
            name: format!("graph-{gi}"),
            family: None,
            size_class: SizeClass::Real,
            requested_size: 1,
            graph: graphs().swap_remove(gi).into(),
        },
    };
    Pending::new(Arc::new(sub), &mut ArrivalFacts::new())
}

/// One admission probe: a graph, a free set (bit `i` frees processor
/// `i`), a cap (none, one every finish overshoots, one some finishes
/// fit), an algorithm, and whether it is `try_admit` or `can_place`.
type AdmitProbe = (usize, u8, usize, usize, bool);

/// Drives `probes` through `try_admit` / `can_place` on one cache (one
/// probe buffer for the whole sequence, as a cluster's scratch is) and
/// through [`two_call_admit`] on a twin, comparing every decision,
/// every counter move, the recency clock and every entry's stamp.
fn admit_agree(mode: Mode, make: fn() -> SolveCache, probes: &[AdmitProbe]) -> Vec<Decided> {
    let c = cluster();
    let cands: Vec<Pending> = (0..graphs().len()).map(candidate).collect();
    let reference = make();
    let subject = make();
    let solvers = solvers();
    let (mut want_account, mut got_account) = Default::default();
    // The probes' free set, whose mask each probe moves to its own.
    let mut free = FreeSet::new(&c);
    let mut busy: Vec<ProcId> = Vec::new();
    let mut decisions = Vec::new();
    for (round, &(gi, mask, cap, ai, admit)) in probes.iter().enumerate() {
        let cfg = OnlineConfig {
            algorithm: ALGORITHMS[ai],
            ..OnlineConfig::default()
        };
        let want_view = view(mode, &reference, &solvers[ai], &mut want_account);
        let got_view = view(mode, &subject, &solvers[ai], &mut got_account);
        let free_set: Vec<bool> = (0..c.len()).map(|i| mask >> i & 1 == 1).collect();
        free.give_back(&busy);
        busy = c.proc_ids().filter(|p| !free_set[p.idx()]).collect();
        free.take(&busy);
        let cap = [None, Some(0.0), Some(12.0)][cap];
        let cand = &cands[gi];
        let want = decided(two_call_admit(
            &c, &free_set, cand, &cfg, &want_view, cap, admit,
        ));
        let got = if admit {
            decided(try_admit(
                &c, &mut free, cand, &cfg, &got_view, 0.0, 1, None, cap,
            ))
        } else {
            let placed = can_place(&c, &mut free, Mask::Real, cand, &cfg, &got_view);
            let want_placed = want == Decided::Overshoot;
            assert_eq!(placed, want_placed, "{mode:?} probe {round}: placeability");
            want.clone()
        };
        let what = format!("{mode:?} probe {round}: {:?}", probes[round]);
        assert_eq!(got, want, "{what}");
        assert_eq!(subject.stats(), reference.stats(), "{what}");
        assert_eq!(subject.recency(), reference.recency(), "{what}");
        decisions.push(got);
    }
    assert_eq!(got_account, want_account, "{mode:?}: live charges");
    decisions
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(24))]

    #[test]
    fn the_one_lock_probe_decides_and_charges_like_the_two_calls(
        probes in proptest::collection::vec(
            (0usize..6, 0u8..16, 0usize..3, 0usize..2, proptest::prelude::any::<bool>()),
            1..40,
        ),
    ) {
        for make in [unbounded, capped, disabled] {
            admit_agree(Mode::Direct, make, &probes);
            admit_agree(Mode::Live, make, &probes);
        }
    }
}

/// Each outcome, cold and then warm: a grant, its overshoot, a wait
/// after the solver found no lease (m0 alone cannot hold the two
/// branches), a wait and a rejection on the memory screen, and
/// `can_place` both ways.
#[test]
fn the_one_lock_probe_on_each_outcome() {
    let all = 0b1111;
    let (small, branches, huge) = (0, 4, 5);
    let m0 = 0b0001;
    let probes: Vec<AdmitProbe> = vec![
        (small, all, 0, 0, true),
        (small, all, 0, 0, true),
        (small, all, 1, 0, true),
        (branches, m0, 0, 0, true),
        (branches, m0, 0, 0, true),
        (huge, m0, 0, 0, true),
        (huge, all, 0, 0, true),
        (branches, all, 0, 0, true),
        (branches, all, 0, 0, true),
        (small, all, 0, 0, false),
        (branches, m0, 0, 0, false),
    ];
    let kinds = |decisions: Vec<Decided>| -> String {
        decisions
            .iter()
            .map(|d| match d {
                Decided::Granted { .. } => 'G',
                Decided::Overshoot => 'O',
                Decided::Wait => 'W',
                Decided::Reject(_) => 'R',
            })
            .collect()
    };
    for make in [unbounded, capped, disabled] {
        for mode in [Mode::Direct, Mode::Live] {
            // `can_place` shows as the reference's O (placed) or W.
            assert_eq!(kinds(admit_agree(mode, make, &probes)), "GGOWWWRGGOW");
        }
    }
    // The solver really ran out of leases on m0 (a miss, no sim), and
    // the warm repeat hit the memoized NoSolution.
    let cache = SolveCache::new();
    let [solver, _] = solvers();
    let view = CacheView::direct(&cache, &solver);
    let c = cluster();
    let cfg = OnlineConfig::default();
    let mut free = FreeSet::new(&c);
    free.take(&[ProcId(1), ProcId(2), ProcId(3)]);
    let mut probe = || {
        try_admit(
            &c,
            &mut free,
            &candidate(branches),
            &cfg,
            &view,
            0.0,
            1,
            None,
            None,
        )
    };
    assert!(matches!(probe(), Admit::Wait));
    assert!(matches!(probe(), Admit::Wait));
    let s = cache.stats();
    assert_eq!((s.hits, s.misses, s.sim_misses), (1, 1, 0));
}
