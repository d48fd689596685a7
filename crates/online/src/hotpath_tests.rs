//! Hot-path pins: the probe scratch arenas really are allocation-free
//! in steady state, a federation event pays nothing for the members and
//! passes that cannot change anything, and the reservation token's
//! reuse/invalidations behave exactly as documented.
//!
//! The allocation assertions use a counting [`GlobalAlloc`] wrapper
//! installed for this test binary. The counter is **per thread**
//! (const-initialised TLS, so the bookkeeping itself never allocates),
//! which keeps the assertions exact while the harness runs other
//! tests on sibling threads.

use crate::admission::{
    admission_passes, can_place, head_fits_at, head_reservation, try_admit, Admit, BackfillWindow,
};
use crate::cache::{CacheView, SolveCache};
use crate::engine::{serve_with_cache, OnlineConfig};
use crate::federation::rebalance::spill;
use crate::federation::routing::{route, RoutingPolicy};
use crate::federation::shard::MemberShard;
use crate::federation::testutil::member;
use crate::policy::{AdmissionPolicy, LeaseSizing};
use crate::state::{ArrivalFacts, ClusterState, Pending};
use crate::submission::{single_task, Submission};
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
    let solver = cfg.lease_solver();
    let view = CacheView::direct(&cache, &solver);
    let mut state = ClusterState::new(&cluster, None);
    state.enqueue_arrival(pending(0, 40.0, 2.0), 0.0);
    let hq = state.first_live();

    // Cold pass: solver runs, cache fills, scratch buffers grow.
    for _ in 0..2 {
        assert!(can_place(
            &cluster,
            &state.mem_order,
            &state.free,
            &state.queue[hq],
            &cfg,
            &view,
            &mut state.scratch.free_sorted,
        ));
    }
    let fits = |state: &mut ClusterState| head_fits_at(state, hq, &[], &[], None, 0.0, &cfg, &view);
    assert!(fits(&mut state));

    // The probe every lease search makes: a warm key answers with the
    // memoized solve behind its `Arc`, building no view and cloning no
    // mapping.
    let cand = &state.queue[hq];
    let lease = &state.mem_order[..2];
    let solve = || {
        view.solve(
            &cand.submission.instance.graph,
            cand.fingerprint,
            &cluster,
            lease,
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
                &state.queue[hq],
                &cfg,
                &view,
                &mut state.scratch.free_sorted,
            ));
        }
    });
    assert_eq!(probes, 0, "warm feasibility probes must not allocate");

    let replays = allocations_in(|| {
        for _ in 0..100 {
            assert!(fits(&mut state));
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
    let solver = cfg.lease_solver();
    let view = CacheView::direct(&cache, &solver);
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
                &mut state.scratch.free_sorted,
            ));
        }
    });
    assert_eq!(probing, 0, "the feasibility probe on the same warm key");
}

/// A backfill candidate that places but would finish after the blocked
/// head's reservation is thrown away — so, warm, deciding that costs
/// no heap at all: one warm probe answers the solve and the simulated
/// finish without handing back an `Arc`, and no lease view, parent-id
/// mapping or grant is built for a candidate that overshoots. Whole passes over a blocked window of
/// such candidates allocate nothing either.
#[test]
fn a_warm_overshooting_backfill_probe_allocates_nothing() {
    let cluster = dhp_platform::configs::small_cluster();
    let cfg = OnlineConfig::default();
    let cache = SolveCache::new();
    let solver = cfg.lease_solver();
    let view = CacheView::direct(&cache, &solver);
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

    for (dead, depth) in [(0, 16), (0, 256), (256, 256)] {
        let mut window = BackfillWindow::with_dead_prefix(dead, depth);
        let queued = window.pass();
        assert_eq!(queued, depth + 1, "the window admits nothing");
        let passes = allocations_in(|| {
            for _ in 0..10 {
                assert_eq!(window.pass(), queued);
            }
        });
        assert_eq!(
            passes, 0,
            "a warm window pass at depth {depth} behind {dead} tombstones allocated"
        );
    }
}

/// A candidate that no lease of the free processors can hold waits —
/// and, warm, deciding that costs no heap either: each size of its
/// ladder is a memoized `NoSolution` answered by one warm probe, on a
/// shape read back from the probe buffer.
#[test]
fn a_warm_waiting_probe_allocates_nothing() {
    // Two branches under one root, 30-unit files on every edge: each
    // task needs at most 62, which m0 (64) holds, but one processor
    // must hold a whole branch's files besides the other's.
    let cluster = Cluster::new(
        vec![
            Processor::new("m0", 2.0, 64.0),
            Processor::new("m1", 4.0, 128.0),
            Processor::new("m2", 1.0, 32.0),
            Processor::new("m3", 8.0, 256.0),
        ],
        1.0,
    );
    let mut g = dhp_dag::Dag::new();
    let n: Vec<_> = (0..5).map(|_| g.add_node(3.0, 2.0)).collect();
    for (src, dst) in [(0, 1), (0, 2), (1, 3), (2, 4)] {
        g.add_edge(n[src], n[dst], 30.0);
    }
    let cand = Pending::new(
        Arc::new(Submission {
            id: 3,
            arrival: 0.0,
            instance: WorkflowInstance {
                name: "branches".into(),
                family: None,
                size_class: SizeClass::Real,
                requested_size: 5,
                graph: g.into(),
            },
        }),
        &mut ArrivalFacts::new(),
    );
    let cfg = OnlineConfig::default();
    let cache = SolveCache::new();
    let solver = cfg.lease_solver();
    let view = CacheView::direct(&cache, &solver);
    let mut state = ClusterState::new(&cluster, None);
    // Only m0 is free: the memory screen passes, the solver does not.
    for p in [1, 3] {
        state.free[p] = false;
    }
    state.free_count = 2;
    let probe = |state: &mut ClusterState| {
        try_admit(
            &cluster,
            &state.mem_order,
            &state.free,
            &cand,
            &cfg,
            &view,
            0.0,
            1,
            None,
            None,
            &mut state.scratch.free_sorted,
        )
    };
    // Cold, then once more to size both halves of the probe buffer.
    for _ in 0..2 {
        assert!(matches!(probe(&mut state), Admit::Wait));
    }
    let solves = cache.stats().misses;
    assert!(solves > 0, "the ladder reached the solver");
    let waiting = allocations_in(|| {
        for _ in 0..100 {
            assert!(matches!(probe(&mut state), Admit::Wait));
        }
    });
    assert_eq!(waiting, 0, "a warm waiting probe allocated");
    assert_eq!(cache.stats().misses, solves, "every repeat was warm");
}

/// The reservation token: a matching `(epoch, head)` replays the
/// memoized value without touching a solver; a moved epoch or a
/// different head forces a fresh computation.
#[test]
fn reservation_token_reuse_and_invalidation() {
    let cluster = dhp_platform::configs::small_cluster();
    let cfg = OnlineConfig::default();
    let cache = SolveCache::new();
    let solver = cfg.lease_solver();
    let view = CacheView::direct(&cache, &solver);
    let mut state = ClusterState::new(&cluster, None);
    state.enqueue_arrival(pending(7, 40.0, 2.0), 0.0);
    let hq = state.first_live();
    let id = state.queue[hq].id;
    let mut compute = |epoch: u64, resv_cache: Option<(u64, usize, f64)>| {
        state.epoch = epoch;
        state.resv_cache = resv_cache;
        let r = head_reservation(&mut state, hq, &cfg, &view);
        (r, state.resv_cache)
    };

    // No pending completions: the reservation is INFINITY, and the
    // token is stored.
    assert_eq!(
        compute(0, None),
        (f64::INFINITY, Some((0, id, f64::INFINITY)))
    );

    // A matching token short-circuits: plant a sentinel and watch it
    // come back untouched.
    assert_eq!(compute(0, Some((0, id, 123.5))).0, 123.5);

    // A moved epoch invalidates — the sentinel is recomputed away.
    assert_eq!(
        compute(1, Some((0, id, 123.5))),
        (f64::INFINITY, Some((1, id, f64::INFINITY)))
    );

    // A different head invalidates too.
    assert_eq!(compute(1, Some((1, id + 1, 99.0))).0, f64::INFINITY);
}

/// A reservation replay that misses the token pays solver probes, not
/// heap: on a warm window whose blocked head waits for a live pending
/// completion, moving the epoch before every call forces the whole
/// replay — the live completions sorted, the hypothetical free set
/// rebuilt, the placement probed — 100 times without one allocation.
#[test]
fn a_warm_reservation_replay_allocates_nothing() {
    let mut window = BackfillWindow::new(16);
    window.pass();
    let (state, cfg, view) = window.parts();
    let hq = state.first_live();
    let replay = |state: &mut ClusterState| {
        state.bump_epoch();
        head_reservation(state, hq, cfg, &view)
    };
    // The head needs the big processor, which frees at t = 1000.
    assert_eq!(replay(state), 1000.0);
    let replays = allocations_in(|| {
        for _ in 0..100 {
            assert_eq!(replay(state), 1000.0);
        }
    });
    assert_eq!(replays, 0, "a warm reservation replay allocated");
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
                    graph: dhp_dag::builder::chain(tasks, 10.0, MEMORY[recipe], 2.0).into(),
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

/// Recognising a graph the call has seen — a repeat that shares its
/// graph, found by the graph's address — never touches the heap, at any
/// size; deriving the facts the first time does (the fingerprint's sort
/// heap, position table and edge vector, plus the table's entry).
#[test]
fn a_repeat_arrival_allocates_nothing() {
    for tasks in [8usize, 48, 400] {
        let mut first = single_task(0, 0.0, 1.0, 1.0, &format!("fan-{tasks}"));
        first.instance.graph = two_node_fan((tasks - 2) / 2).into();
        let first = Arc::new(first);
        let shared = Arc::new(Submission {
            id: 1,
            arrival: 1.0,
            instance: first.instance.clone(),
        });
        assert_eq!(first.instance.graph.node_count(), tasks);
        let mut seen = ArrivalFacts::new();
        let mut queued = Vec::with_capacity(2);
        let deriving = allocations_in(|| queued.push(Pending::new(first, &mut seen)));
        assert!(
            deriving > 0,
            "{tasks} tasks: a first sight derives and stores"
        );
        let recognising = allocations_in(|| queued.push(Pending::new(shared, &mut seen)));
        assert_eq!(recognising, 0, "{tasks} tasks: a shared repeat allocated");
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
    let solver = cfg.lease_solver();
    let view = CacheView::direct(&cache, &solver);
    let mut state = ClusterState::new(&cluster, None);
    let queued = Arc::new(single_task(0, 0.0, 40.0, 2.0, "shared"));
    state.enqueue_arrival(
        Pending::new(Arc::clone(&queued), &mut ArrivalFacts::new()),
        0.0,
    );
    admission_passes(&mut state, &cfg, &view, 0.0);
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

/// Step 2 bisects a small block on the thread's buffers: once the
/// thread has bisected one block of a chain-shaped workflow, the next
/// allocates only its result (the `Partition`'s assignment, the
/// renumbering table `Partition::from_raw` fills it through, and the
/// part array it is renumbered from) — no sub-DAG, no copy of it, no
/// view, no per-part table. Into a part array that has held as many
/// entries, as DagHetPart's Step 2 bisects, it allocates nothing.
#[test]
fn a_warm_bisection_builds_no_graph() {
    use dhp_dagp::{bisect, bisect_block, bisect_block_into, PartitionConfig};
    let g = WorkflowInstance::simulated(dhp_wfgen::Family::Epigenomics, 60, 17).graph;
    let order = dhp_dag::topo::topo_sort(&g).expect("generated workflows are acyclic");
    let block = |at: usize| {
        let mut members = order[at..at + 5].to_vec();
        members.sort_unstable();
        members
    };
    let cfg = PartitionConfig::default();
    bisect_block(&g, &block(0), &cfg);
    let (members, mut warm) = (block(20), None);
    let n = allocations_in(|| warm = Some(bisect_block(&g, &members, &cfg)));
    let want = bisect(&g.induced_subgraph(&members).0, &cfg);
    assert_eq!(warm, Some(want.clone()));
    assert!(n <= 3, "{n} allocations for a 5-task block");
    let mut part = Vec::with_capacity(5);
    let n = allocations_in(|| bisect_block_into(&g, &members, &cfg, &mut part));
    assert_eq!(dhp_dag::Partition::from_raw(&part), want);
    assert_eq!(n, 0, "{n} allocations into a part array of room");
}

/// An admission pass that cannot decide anything is not set up: over
/// an empty queue, or with every processor leased, `admission_passes`
/// returns before it reads the free set, orders candidates or takes
/// its scratch buffers — so on a fleet, where most members have nothing
/// to decide at most events, it costs no heap.
#[test]
fn an_admission_pass_that_cannot_decide_allocates_nothing() {
    let cluster = dhp_platform::configs::small_cluster();
    let cache = SolveCache::new();
    let solver = OnlineConfig::default().lease_solver();
    let view = CacheView::direct(&cache, &solver);
    for policy in [AdmissionPolicy::Fifo, AdmissionPolicy::FifoBackfill] {
        let cfg = OnlineConfig {
            policy,
            ..OnlineConfig::default()
        };
        let mut state = ClusterState::new(&cluster, None);
        let empty = allocations_in(|| admission_passes(&mut state, &cfg, &view, 0.0));
        assert_eq!(
            empty,
            0,
            "{}: a pass over an empty queue allocated",
            policy.name()
        );

        state.enqueue_arrival(pending(3, 40.0, 2.0), 0.0);
        state.free.fill(false);
        state.free_count = 0;
        let full = allocations_in(|| admission_passes(&mut state, &cfg, &view, 0.0));
        assert_eq!(
            full,
            0,
            "{}: a pass with nothing free allocated",
            policy.name()
        );
        assert_eq!(state.queue_len(), 1);
    }
}

/// Sixteen members, each with some queued work: routing a repeat
/// arrival least-loaded filters the Active, memory-screened members in
/// place and allocates nothing.
#[test]
fn a_least_loaded_route_allocates_nothing() {
    let cfg = OnlineConfig::default();
    let cache = SolveCache::new();
    let solver = cfg.lease_solver();
    let view = CacheView::direct(&cache, &solver);
    let mut shards: Vec<MemberShard> = (0..16)
        .map(|i| MemberShard::new(&member(), Some(i)))
        .collect();
    for (i, sh) in shards.iter_mut().enumerate() {
        sh.state
            .enqueue_arrival(pending(100 + i, 10.0 + (i % 5) as f64, 2.0), 0.0);
    }
    let arrival = pending(7, 40.0, 2.0);
    let mut rr_next = 0;
    let mut home = None;
    let routed = allocations_in(|| {
        for _ in 0..100 {
            home = route(
                RoutingPolicy::LeastLoaded,
                &mut rr_next,
                &mut shards,
                &arrival,
                &cfg,
                &view,
            );
        }
    });
    assert_eq!(routed, 0, "a least-loaded route allocated");
    // The least queued work is member 0's (10 units, ties to the
    // smaller index).
    assert_eq!(home, Some(0));
}

/// A spillover sweep in which every destination is screened out — full,
/// or with no free processor that holds the candidates' hottest task —
/// probes nothing and allocates nothing, however many candidates wait.
#[test]
fn a_fully_screened_spill_sweep_allocates_nothing() {
    let cfg = OnlineConfig::default();
    let cache = SolveCache::new();
    let solver = cfg.lease_solver();
    let view = CacheView::direct(&cache, &solver);
    let mut shards: Vec<MemberShard> = (0..16)
        .map(|i| MemberShard::new(&member(), Some(i)))
        .collect();
    // Member 0 is fully leased, with candidates only its big processor
    // (600) can hold; every other member either has nothing free or
    // only its mid (400) and small (250) processors.
    for id in 0..8 {
        shards[0]
            .state
            .enqueue_arrival(pending(id, 40.0, 500.0), 0.0);
    }
    for (i, sh) in shards.iter_mut().enumerate() {
        let busy = if i % 2 == 0 { 3 } else { 1 };
        for &p in &sh.state.mem_order[..busy] {
            sh.state.free[p.idx()] = false;
        }
        sh.state.free_count = 3 - busy;
    }
    let mut top_free = Vec::new();
    let sweep = |shards: &mut Vec<MemberShard>, top_free: &mut Vec<Option<f64>>| {
        spill(shards, top_free, &cfg, &view, 0.0)
    };
    assert_eq!(sweep(&mut shards, &mut top_free), 0);
    let swept = allocations_in(|| {
        for _ in 0..100 {
            assert_eq!(sweep(&mut shards, &mut top_free), 0);
        }
    });
    assert_eq!(swept, 0, "a fully screened spill sweep allocated");
    assert_eq!(shards[0].state.queue_len(), 8);
    assert_eq!(cache.stats(), Default::default(), "a screened sweep probed");
}

/// Serialising a report writes straight into the one output buffer:
/// its growth (one doubling at a time, about log2 of the text's length)
/// is the whole allocation count, at 10 records or 1,000.
#[test]
fn report_json_allocates_only_its_output_buffer() {
    let cluster = dhp_platform::configs::small_cluster();
    let subs = (0..4)
        .map(|id| single_task(id, id as f64, 1.0 + id as f64, 1.0, &format!("json-{id}")))
        .collect();
    let out = serve_with_cache(&cluster, subs, &OnlineConfig::default(), &SolveCache::new());
    let template = out.report;
    assert_eq!(template.workflows.len(), 4);
    for records in [10usize, 1_000] {
        let mut report = template.clone();
        report.workflows = (0..records)
            .map(|i| {
                let mut r = template.workflows[i % 4].clone();
                r.id = i;
                r
            })
            .collect();
        let mut json = String::new();
        let n = allocations_in(|| json = report.to_json());
        assert!(
            n <= 24,
            "{records} records: {n} allocations for {} bytes of JSON",
            json.len()
        );
    }
}
