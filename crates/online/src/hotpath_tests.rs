//! Hot-path pins: the probe scratch arenas really are allocation-free
//! in steady state, and the reservation token's reuse/invalidations
//! behave exactly as documented.
//!
//! The allocation assertions use a counting [`GlobalAlloc`] wrapper
//! installed for this test binary. The counter is **per thread**
//! (const-initialised TLS, so the bookkeeping itself never allocates),
//! which keeps the assertions exact while the harness runs other
//! tests on sibling threads.

use crate::admission::{
    admission_passes, can_place, head_fits_at, head_reservation_cached, try_admit, Admit,
    BackfillWindow,
};
use crate::engine::{serve_with_cache, OnlineConfig};
use crate::event::EventQueue;
use crate::policy::{AdmissionPolicy, LeaseSizing};
use crate::state::{ArrivalFacts, ClusterState, Pending};
use crate::submission::{single_task, Submission};
use dhp_core::partial::{CacheView, SolveCache};
use dhp_platform::{Cluster, Processor};
use dhp_wfgen::{SizeClass, WorkflowInstance};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static LOCAL_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: defers every operation to `System`; the counter update is
// TLS-teardown-safe via `try_with` and allocation-free (const-init
// `Cell`).
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        let _ = LOCAL_ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(l) }
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        let _ = LOCAL_ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(p, l, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations made by `f` on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = LOCAL_ALLOCS.with(|c| c.get());
    f();
    LOCAL_ALLOCS.with(|c| c.get()) - before
}

fn pending(id: usize, work: f64, memory: f64) -> Pending {
    Pending::new(
        Arc::new(single_task(id, 0.0, work, memory, &format!("hot-{id}"))),
        &mut ArrivalFacts::new(),
    )
}

/// After one cold probe has filled the solve cache and sized the
/// scratch arenas, repeated warm solves, feasibility probes and head-fit
/// replays touch the heap exactly zero times — the steady-state
/// guarantee every admission decision is built on.
#[test]
fn warm_probes_are_allocation_free() {
    let cluster = dhp_platform::configs::small_cluster();
    let cfg = OnlineConfig::default();
    let cache = SolveCache::new();
    let view = CacheView::direct(&cache);
    let config_hash = SolveCache::config_hash(&cfg.solver);
    let mut state = ClusterState::new(&cluster, None);
    let cand = pending(0, 40.0, 2.0);
    let events = EventQueue::new();
    let in_service: Vec<Option<crate::state::InService>> = Vec::new();

    // Cold pass: solver runs, cache fills, scratch buffers grow.
    for _ in 0..2 {
        assert!(can_place(
            &cluster,
            &state.mem_order,
            &state.free,
            &cand,
            &cfg,
            &view,
            config_hash,
            &mut state.scratch.free_sorted,
        ));
    }
    let warmup = head_fits_at(
        &cluster,
        &state.mem_order,
        &state.free,
        &[],
        None,
        &events,
        &in_service,
        &cand,
        &cfg,
        &view,
        config_hash,
        0.0,
        &mut state.scratch,
    );
    assert!(warmup);

    // The probe every lease search makes: a warm key answers with the
    // memoized solve behind its `Arc`, building no view and cloning no
    // mapping.
    let lease = &state.mem_order[..2];
    let fp = cand.fingerprint;
    let solve = || {
        view.solve(
            &cand.submission.instance.graph,
            fp,
            &cluster,
            lease,
            cfg.algorithm,
            &cfg.solver,
            config_hash,
        )
    };
    assert!(solve().is_ok());
    let solves = allocations_in(|| {
        for _ in 0..100 {
            assert!(solve().is_ok());
        }
    });
    assert_eq!(solves, 0, "warm solves must not allocate");

    let probes = allocations_in(|| {
        for _ in 0..100 {
            assert!(can_place(
                &cluster,
                &state.mem_order,
                &state.free,
                &cand,
                &cfg,
                &view,
                config_hash,
                &mut state.scratch.free_sorted,
            ));
        }
    });
    assert_eq!(probes, 0, "warm feasibility probes must not allocate");

    let replays = allocations_in(|| {
        for _ in 0..100 {
            assert!(head_fits_at(
                &cluster,
                &state.mem_order,
                &state.free,
                &[],
                None,
                &events,
                &in_service,
                &cand,
                &cfg,
                &view,
                config_hash,
                0.0,
                &mut state.scratch,
            ));
        }
    });
    assert_eq!(replays, 0, "warm head-fit replays must not allocate");
}

/// The allocator's positive control: a committing grant still builds
/// its record, placement and parent-id mapping even on a warm key, and
/// must allocate, so the zero `can_place` reaches on the same key is
/// the probe's doing, not the counter's.
#[test]
fn the_slow_baseline_still_allocates() {
    let cluster = dhp_platform::configs::small_cluster();
    let cfg = OnlineConfig::default();
    let cache = SolveCache::new();
    let view = CacheView::direct(&cache);
    let config_hash = SolveCache::config_hash(&cfg.solver);
    let mut state = ClusterState::new(&cluster, None);
    let cand = pending(1, 40.0, 2.0);
    let grant = |state: &mut ClusterState| {
        let admit = try_admit(
            &cluster,
            &state.mem_order,
            &state.free,
            &cand,
            &cfg,
            &view,
            config_hash,
            0.0,
            1,
            None,
            None,
            &mut state.scratch.free_sorted,
        );
        assert!(matches!(admit, Admit::Granted(_)));
    };
    for _ in 0..2 {
        grant(&mut state);
    }
    let granting = allocations_in(|| {
        for _ in 0..10 {
            grant(&mut state);
        }
    });
    assert!(
        granting > 0,
        "a grant materialises its lease and schedule and must allocate"
    );
    let probing = allocations_in(|| {
        for _ in 0..10 {
            assert!(can_place(
                &cluster,
                &state.mem_order,
                &state.free,
                &cand,
                &cfg,
                &view,
                config_hash,
                &mut state.scratch.free_sorted,
            ));
        }
    });
    assert_eq!(probing, 0, "the feasibility probe on the same warm key");
}

/// A backfill candidate that places but would finish after the blocked
/// head's reservation is thrown away — so, warm, deciding that costs
/// no heap at all: the solve and the simulated finish are memoized
/// `Arc`s, and no lease view, parent-id mapping or grant is built for a
/// candidate that overshoots. Whole passes over a blocked window of
/// such candidates allocate nothing either.
#[test]
fn a_warm_overshooting_backfill_probe_allocates_nothing() {
    let cluster = dhp_platform::configs::small_cluster();
    let cfg = OnlineConfig::default();
    let cache = SolveCache::new();
    let view = CacheView::direct(&cache);
    let config_hash = SolveCache::config_hash(&cfg.solver);
    let mut state = ClusterState::new(&cluster, None);
    let cand = pending(2, 40.0, 2.0);
    let probe = |state: &mut ClusterState, cap: Option<f64>| {
        try_admit(
            &cluster,
            &state.mem_order,
            &state.free,
            &cand,
            &cfg,
            &view,
            config_hash,
            0.0,
            1,
            None,
            cap,
            &mut state.scratch.free_sorted,
        )
    };
    // Cold: the solve and the simulation fill the caches.
    assert!(matches!(probe(&mut state, None), Admit::Granted(_)));
    // A reservation just before the simulated finish: overshoot.
    let Admit::Granted(grant) = probe(&mut state, None) else {
        unreachable!("the idle cluster places it")
    };
    let cap = Some(grant.placement.finish - 1.0);
    assert!(matches!(probe(&mut state, cap), Admit::Overshoot));
    let overshooting = allocations_in(|| {
        for _ in 0..100 {
            assert!(matches!(probe(&mut state, cap), Admit::Overshoot));
        }
    });
    assert_eq!(overshooting, 0, "a warm overshooting probe allocated");

    for depth in [16, 256] {
        let mut window = BackfillWindow::new(depth);
        let queued = window.pass();
        assert_eq!(queued, depth + 1, "the window admits nothing");
        let passes = allocations_in(|| {
            for _ in 0..10 {
                assert_eq!(window.pass(), queued);
            }
        });
        assert_eq!(passes, 0, "a warm window pass at depth {depth} allocated");
    }
}

/// The reservation token: a matching `(epoch, head)` replays the
/// memoized value without touching a solver; a moved epoch or a
/// different head forces a fresh computation; `cache_aware` disables
/// reuse outright (warm-probe side effects are scheduling-visible
/// there).
#[test]
fn reservation_token_reuse_and_invalidation() {
    let cluster = dhp_platform::configs::small_cluster();
    let cfg = OnlineConfig::default();
    let cache = SolveCache::new();
    let view = CacheView::direct(&cache);
    let config_hash = SolveCache::config_hash(&cfg.solver);
    let state = ClusterState::new(&cluster, None);
    let cand = pending(7, 40.0, 2.0);
    let events = EventQueue::new();
    let in_service: Vec<Option<crate::state::InService>> = Vec::new();
    let mut scratch = crate::state::ProbeScratch::default();
    let mut resv_cache = None;

    let compute = |epoch: u64,
                   resv_cache: &mut Option<(u64, usize, f64)>,
                   scratch: &mut crate::state::ProbeScratch,
                   cfg: &OnlineConfig| {
        head_reservation_cached(
            &cluster,
            &state.mem_order,
            &state.free,
            &events,
            &in_service,
            &cand,
            cfg,
            &view,
            config_hash,
            epoch,
            resv_cache,
            scratch,
        )
    };

    // No pending completions: the reservation is INFINITY, and the
    // token is stored.
    let r = compute(0, &mut resv_cache, &mut scratch, &cfg);
    assert_eq!(r, f64::INFINITY);
    assert_eq!(resv_cache, Some((0, cand.id, f64::INFINITY)));

    // A matching token short-circuits: plant a sentinel and watch it
    // come back untouched.
    resv_cache = Some((0, cand.id, 123.5));
    assert_eq!(compute(0, &mut resv_cache, &mut scratch, &cfg), 123.5);

    // A moved epoch invalidates — the sentinel is recomputed away.
    assert_eq!(
        compute(1, &mut resv_cache, &mut scratch, &cfg),
        f64::INFINITY
    );
    assert_eq!(resv_cache, Some((1, cand.id, f64::INFINITY)));

    // A different head invalidates too.
    resv_cache = Some((1, cand.id + 1, 99.0));
    assert_eq!(
        compute(1, &mut resv_cache, &mut scratch, &cfg),
        f64::INFINITY
    );

    // cache_aware: the sentinel is ignored *and* nothing is stored.
    let aware = OnlineConfig {
        cache_aware: true,
        ..OnlineConfig::default()
    };
    resv_cache = Some((2, cand.id, 123.5));
    assert_eq!(
        compute(2, &mut resv_cache, &mut scratch, &aware),
        f64::INFINITY
    );
    assert_eq!(
        resv_cache,
        Some((2, cand.id, 123.5)),
        "cache-aware runs must leave the token alone"
    );
}

/// Heap allocations (on the serving thread) of the second, warm, run
/// of a 200-submission burst of `tasks`-task workflows under
/// `FifoBackfill` — the first run filled the solve and sim caches, so
/// the counted run pays for decisions only. The workflows are chains
/// (six recipes, told apart by their task memory, so some fit only the
/// big processors and heads do block). An arrival's graph costs the
/// heap something only the first time the call sees it (six times
/// here): the fingerprint's topological sort grows its ready heap with
/// the DAG's *width*, which a chain keeps the same at every length.
/// The other 194 arrivals are recognised, which allocates nothing
/// (`a_repeat_arrival_allocates_nothing`). Fixed two-processor leases
/// keep both traces making the same decisions.
fn warm_backlog_allocations(tasks: usize) -> u64 {
    let subs: Vec<Submission> = (0..200)
        .map(|id| {
            const MEMORY: [f64; 6] = [4.0, 8.0, 12.0, 24.0, 40.0, 48.0];
            let recipe = id % 6;
            Submission {
                id,
                arrival: 0.0,
                instance: WorkflowInstance {
                    name: format!("chain-{tasks}-{recipe}"),
                    family: None,
                    size_class: SizeClass::Real,
                    requested_size: tasks,
                    graph: dhp_dag::builder::chain(tasks, 10.0, MEMORY[recipe], 2.0),
                },
            }
        })
        .collect();
    let cluster = Cluster::new(
        vec![
            Processor::new("big", 4.0, 64.0),
            Processor::new("big", 4.0, 64.0),
            Processor::new("mid", 2.0, 32.0),
            Processor::new("sml", 1.0, 16.0),
            Processor::new("sml", 1.0, 16.0),
        ],
        1.0,
    );
    let cfg = OnlineConfig {
        policy: AdmissionPolicy::FifoBackfill,
        lease: LeaseSizing {
            min_procs: 2,
            max_procs: 2,
            ..LeaseSizing::default()
        },
        ..OnlineConfig::default()
    };
    let cache = SolveCache::new();
    let cold = serve_with_cache(&cluster, subs.clone(), &cfg, &cache);
    assert_eq!(cold.report.fleet.completed, 200);
    let input = subs.clone();
    let mut warm = None;
    let n = allocations_in(|| warm = Some(serve_with_cache(&cluster, input, &cfg, &cache)));
    let warm = warm.unwrap();
    assert_eq!(warm.report.fleet.completed, 200);
    assert_eq!(warm.report.fleet.solve_cache_misses, 0, "run two is warm");
    assert!(
        !warm.reservations.is_empty(),
        "the backlog blocks its heads"
    );
    n
}

/// A warm admission pays for decisions, not for the size of the
/// workflow it decides about: with submissions shared by `Arc` from
/// arrival to placement, serving 200-task workflows allocates (in
/// count) what serving 10-task workflows does. Deep-copying the graph
/// per arrival and per evaluated grant made this an order of magnitude.
#[test]
fn warm_serving_allocations_do_not_scale_with_task_count() {
    let small = warm_backlog_allocations(10) as f64;
    let large = warm_backlog_allocations(200) as f64;
    assert!(
        (large - small).abs() < 0.1 * small,
        "warm allocation counts scale with task count: {small} (10 tasks) vs {large} (200 tasks)"
    );
}

/// Recognising a graph the call has seen — one pre-hash, one
/// comparison against the witness — never touches the heap, at any
/// size; deriving the facts the first time does (the fingerprint's
/// sort heap, position table and edge vector, plus the table's entry).
#[test]
fn a_repeat_arrival_allocates_nothing() {
    for tasks in [8usize, 48, 400] {
        let copy = |id: usize| {
            let mut sub = single_task(id, id as f64, 1.0, 1.0, &format!("fan-{tasks}-{id}"));
            sub.instance.graph = two_node_fan((tasks - 2) / 2);
            Arc::new(sub)
        };
        let (first, repeat) = (copy(0), copy(1));
        assert_eq!(first.instance.graph.node_count(), tasks);
        let mut seen = ArrivalFacts::new();
        let mut queued = Vec::with_capacity(2);
        let deriving = allocations_in(|| queued.push(Pending::new(first, &mut seen)));
        assert!(
            deriving > 0,
            "{tasks} tasks: a first sight derives and stores"
        );
        let recognising = allocations_in(|| queued.push(Pending::new(repeat, &mut seen)));
        assert_eq!(recognising, 0, "{tasks} tasks: a repeat arrival allocated");
        assert_eq!(queued[0].fingerprint, queued[1].fingerprint);
    }
}

/// The queue entry's `Arc` is the placement's: between arrival and the
/// returned outcome the submission is passed along, never copied.
#[test]
fn a_placement_shares_the_submission_it_was_queued_with() {
    let cluster = dhp_platform::configs::small_cluster();
    let cfg = OnlineConfig::default();
    let cache = SolveCache::new();
    let view = CacheView::direct(&cache);
    let config_hash = SolveCache::config_hash(&cfg.solver);
    let mut state = ClusterState::new(&cluster, None);
    let queued = Arc::new(single_task(0, 0.0, 40.0, 2.0, "shared"));
    state.enqueue_arrival(
        Pending::new(Arc::clone(&queued), &mut ArrivalFacts::new()),
        0.0,
    );
    admission_passes(&mut state, &cfg, &view, config_hash, 0.0);
    assert!(state.queue_is_empty(), "the idle cluster admits it at once");
    let finish = state
        .next_completion_time()
        .expect("an admitted workflow has a completion pending");
    state.process_due_completions(finish);
    assert_eq!(state.placements.len(), 1);
    assert!(Arc::ptr_eq(&state.placements[0].submission, &queued));
}

/// `source → c × (a → b) → sink`: one parallel stage of `c` two-node
/// components between two separators.
fn two_node_fan(c: usize) -> dhp_dag::Dag {
    let mut g = dhp_dag::Dag::new();
    let source = g.add_node(1.0, 3.0);
    let sink = g.add_node(1.0, 3.0);
    for i in 0..c {
        let a = g.add_node(1.0, 2.0 + (i % 7) as f64);
        let b = g.add_node(1.0, 1.0 + (i % 5) as f64);
        g.add_edge(source, a, 1.0 + (i % 3) as f64);
        g.add_edge(a, b, 4.0);
        g.add_edge(b, sink, 2.0);
    }
    g
}

/// A block requirement is answered on the thread's workspace: once it
/// has seen a block of that size, the next question allocates nothing
/// that scales with the block — not per task, not per component of a
/// parallel stage (one table per recursive call made the bytes
/// quadratic in the stage's width), not per task of the workflow.
#[test]
fn a_warm_block_requirement_allocates_nothing_that_scales() {
    use dhp_core::blockmem::block_requirement;
    let warm_cost = |c: usize| {
        let g = two_node_fan(c);
        let block: Vec<dhp_dag::NodeId> = g.node_ids().collect();
        let first = block_requirement(&g, &block);
        let mut again = 0.0;
        let n = allocations_in(|| again = block_requirement(&g, &block));
        assert_eq!(first.to_bits(), again.to_bits());
        n
    };
    let (narrow, wide) = (warm_cost(50), warm_cost(400));
    assert_eq!(narrow, wide, "allocations scale with the stage's width");
    assert!(narrow <= 4, "{narrow} allocations on a warm workspace");

    // The common question of a chain-shaped solve: five tasks of a
    // 60-task workflow, after another five of them.
    let inst = WorkflowInstance::simulated(dhp_wfgen::Family::Epigenomics, 60, 17);
    let order = dhp_dag::topo::topo_sort(&inst.graph).expect("generated workflows are acyclic");
    block_requirement(&inst.graph, &order[..5]);
    let n = allocations_in(|| {
        block_requirement(&inst.graph, &order[20..25]);
    });
    assert!(n <= 4, "{n} allocations for a 5-task block");
}
