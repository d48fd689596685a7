//! Unit tests of the solve cache: lease and baseline solves against
//! direct ones, hits, misses, `NoSolution` memos, LRU eviction,
//! charging views, the sim memo, warm probes and entries that do not
//! fit their graph or lease.

use crate::cache::store::CachedSolve;
use crate::cache::tally;
use crate::cache::{
    remap_to_parent, solve_suffix, CacheView, ProbeKey, SimOutcome, SolveCache, SolveCacheStats,
    Solver, SubClusterSchedule, WarmProbe,
};
use dhp_core::daghetpart::DagHetPartConfig;
use dhp_core::mapping::validate;
use dhp_core::{Algorithm, MappingResult, SchedError};
use dhp_dag::{builder, Dag};
use dhp_platform::{Cluster, ProcId, Processor, SubCluster};
use std::sync::Arc;

/// The two-processor lease most tests probe: m3 then m1.
const LEASE: [ProcId; 2] = [ProcId(3), ProcId(1)];

/// DagHetPart under its default settings, the solver most views
/// here probe with.
fn default_solver() -> Solver {
    Solver::new(Algorithm::DagHetPart, DagHetPartConfig::default())
}

/// A direct solve of `g` on the lease `sub`, in both id spaces: the
/// reference the cache's answers are held to.
fn schedule_on_subcluster(
    g: &Dag,
    sub: &SubCluster,
    algorithm: Algorithm,
    cfg: &DagHetPartConfig,
) -> Result<SubClusterSchedule, SchedError> {
    let local = algorithm.solve(g, sub.cluster(), cfg)?;
    let global = remap_to_parent(sub.global_ids(), &local.mapping);
    Ok(SubClusterSchedule { local, global })
}

/// A direct solve of `g` alone on the whole of `cluster`, viewed as a
/// lease in memory-descending order: its makespan.
fn dedicated_baseline(
    g: &Dag,
    cluster: &Cluster,
    algorithm: Algorithm,
    cfg: &DagHetPartConfig,
) -> Result<f64, SchedError> {
    let sub = cluster.subcluster(&cluster.ids_by_memory_desc());
    schedule_on_subcluster(g, &sub, algorithm, cfg).map(|s| s.local.makespan)
}

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

#[test]
fn global_mapping_is_valid_against_parent() {
    let g = builder::fork_join(6, 10.0, 4.0, 2.0);
    let c = cluster();
    let sub = c.subcluster(&[ProcId(3), ProcId(1)]);
    let cfg = DagHetPartConfig::default();
    let chash = SolveCache::config_hash(&cfg);
    let cache = SolveCache::disabled();
    for algo in [Algorithm::DagHetPart, Algorithm::DagHetMem] {
        let s = cache
            .schedule(&g, g.fingerprint(), &sub, algo, &cfg, chash)
            .expect("lease large enough");
        // Local mapping valid against the view, global against the parent.
        validate(&g, sub.cluster(), &s.local.mapping).unwrap();
        validate(&g, &c, &s.global).unwrap();
        // Every used processor must belong to the lease.
        for p in s.global.proc_of_block.iter().flatten() {
            assert!(sub.global_ids().contains(p), "{p} outside lease");
        }
    }
}

#[test]
fn too_small_lease_reports_no_solution() {
    // Total memory of the lease is far below the chain's footprint.
    let g = builder::chain(40, 1.0, 30.0, 5.0);
    let c = cluster();
    let sub = c.subcluster(&[ProcId(2)]);
    let cfg = DagHetPartConfig::default();
    let chash = SolveCache::config_hash(&cfg);
    let r = SolveCache::disabled().schedule(
        &g,
        g.fingerprint(),
        &sub,
        Algorithm::DagHetPart,
        &cfg,
        chash,
    );
    assert_eq!(r.err(), Some(SchedError::NoSolution));
}

#[test]
fn dedicated_baseline_is_the_whole_cluster_makespan() {
    let g = builder::fork_join(6, 10.0, 4.0, 2.0);
    let c = cluster();
    let sub = c.subcluster(&c.ids_by_memory_desc());
    let cfg = DagHetPartConfig::default();
    let chash = SolveCache::config_hash(&cfg);
    let cache = SolveCache::disabled();
    for algo in [Algorithm::DagHetPart, Algorithm::DagHetMem] {
        let direct =
            schedule_on_subcluster(&g, &sub, algo, &cfg).expect("whole cluster is large enough");
        let b = cache
            .dedicated_baseline(&g, g.fingerprint(), &c, algo, &cfg, chash)
            .expect("whole cluster is large enough");
        assert_eq!(b, direct.local.makespan);
        assert!(b.is_finite() && b > 0.0);
    }
}

#[test]
fn cache_hits_reproduce_the_direct_solve_exactly() {
    let g = builder::fork_join(6, 10.0, 4.0, 2.0);
    let c = cluster();
    let cfg = DagHetPartConfig::default();
    let chash = SolveCache::config_hash(&cfg);
    let cache = SolveCache::new();
    let fp = g.fingerprint();
    for algo in [Algorithm::DagHetPart, Algorithm::DagHetMem] {
        let sub = c.subcluster(&[ProcId(3), ProcId(1)]);
        let direct = schedule_on_subcluster(&g, &sub, algo, &cfg).unwrap();
        let miss = cache.schedule(&g, fp, &sub, algo, &cfg, chash).unwrap();
        let hit = cache.schedule(&g, fp, &sub, algo, &cfg, chash).unwrap();
        for got in [&miss, &hit] {
            assert_eq!(got.local.makespan, direct.local.makespan);
            assert_eq!(got.local.mapping.partition, direct.local.mapping.partition);
            assert_eq!(got.global.proc_of_block, direct.global.proc_of_block);
        }
    }
    let s = cache.stats();
    assert_eq!((s.hits, s.misses), (2, 2));
}

#[test]
fn cache_remaps_hits_onto_the_probes_concrete_processors() {
    // m1 (4, 128) twice over: lease {1} and a same-shape lease from
    // a cluster where that shape sits at a different id.
    let g = builder::chain(4, 2.0, 4.0, 1.0);
    let a = cluster();
    let b = Cluster::new(
        vec![
            Processor::new("pad", 1.0, 32.0),
            Processor::new("pad", 1.0, 32.0),
            Processor::new("m1-twin", 4.0, 128.0),
        ],
        1.0,
    );
    let cfg = DagHetPartConfig::default();
    let chash = SolveCache::config_hash(&cfg);
    let cache = SolveCache::new();
    let fp = g.fingerprint();
    let sub_a = a.subcluster(&[ProcId(1)]);
    let sub_b = b.subcluster(&[ProcId(2)]);
    assert_eq!(sub_a.shape_signature(), sub_b.shape_signature());
    let first = cache
        .schedule(&g, fp, &sub_a, Algorithm::DagHetPart, &cfg, chash)
        .unwrap();
    let second = cache
        .schedule(&g, fp, &sub_b, Algorithm::DagHetPart, &cfg, chash)
        .unwrap();
    assert_eq!(cache.stats().hits, 1);
    assert_eq!(first.local.makespan, second.local.makespan);
    // Same local mapping, different global ids: the remap trick.
    assert_eq!(
        first.local.mapping.proc_of_block,
        second.local.mapping.proc_of_block
    );
    validate(&g, &b, &second.global).unwrap();
    for p in second.global.proc_of_block.iter().flatten() {
        assert_eq!(*p, ProcId(2));
    }
}

#[test]
fn cache_memoizes_no_solution_too() {
    let g = builder::chain(40, 1.0, 30.0, 5.0);
    let c = cluster();
    let cfg = DagHetPartConfig::default();
    let chash = SolveCache::config_hash(&cfg);
    let cache = SolveCache::new();
    let fp = g.fingerprint();
    let sub = c.subcluster(&[ProcId(2)]);
    for _ in 0..3 {
        let r = cache.schedule(&g, fp, &sub, Algorithm::DagHetPart, &cfg, chash);
        assert_eq!(r.err(), Some(SchedError::NoSolution));
    }
    let s = cache.stats();
    assert_eq!((s.hits, s.misses), (2, 1));
    assert_eq!(cache.len(), 1);
}

#[test]
fn disabled_cache_counts_solver_invocations_but_never_memoizes() {
    let g = builder::fork_join(6, 10.0, 4.0, 2.0);
    let c = cluster();
    let cfg = DagHetPartConfig::default();
    let chash = SolveCache::config_hash(&cfg);
    let cache = SolveCache::disabled();
    let fp = g.fingerprint();
    let sub = c.subcluster(&[ProcId(3), ProcId(1)]);
    for _ in 0..2 {
        cache
            .schedule(&g, fp, &sub, Algorithm::DagHetPart, &cfg, chash)
            .unwrap();
    }
    let s = cache.stats();
    assert_eq!((s.hits, s.misses), (0, 2));
    assert!(cache.is_empty() && !cache.is_enabled());
}

#[test]
fn the_default_cache_memoizes_like_new() {
    let g = builder::chain(4, 2.0, 4.0, 1.0);
    let sub = cluster().subcluster(&LEASE);
    let cfg = DagHetPartConfig::default();
    let chash = SolveCache::config_hash(&cfg);
    let cache = SolveCache::default();
    assert!(cache.is_enabled());
    assert_eq!(cache.capacity(), None);
    for _ in 0..2 {
        cache
            .schedule(
                &g,
                g.fingerprint(),
                &sub,
                Algorithm::DagHetPart,
                &cfg,
                chash,
            )
            .unwrap();
    }
    let s = cache.stats();
    assert_eq!((s.hits, s.misses), (1, 1));
    assert_eq!(cache.len(), 1);
}

#[test]
fn cached_dedicated_baseline_matches_direct() {
    let g = builder::fork_join(6, 10.0, 4.0, 2.0);
    let c = cluster();
    let cfg = DagHetPartConfig::default();
    let chash = SolveCache::config_hash(&cfg);
    let cache = SolveCache::new();
    let fp = g.fingerprint();
    for algo in [Algorithm::DagHetPart, Algorithm::DagHetMem] {
        let direct = dedicated_baseline(&g, &c, algo, &cfg).unwrap();
        let miss = cache
            .dedicated_baseline(&g, fp, &c, algo, &cfg, chash)
            .unwrap();
        let hit = cache
            .dedicated_baseline(&g, fp, &c, algo, &cfg, chash)
            .unwrap();
        assert_eq!(miss, direct);
        assert_eq!(hit, direct);
    }
}

#[test]
fn suffix_solve_schedules_the_induced_subdag() {
    // Chain 0→1→2→3; suffix {2, 3} re-solved alone must equal a
    // direct solve of a 2-chain on the same lease.
    let g = builder::chain(4, 3.0, 4.0, 1.0);
    let c = cluster();
    let cfg = DagHetPartConfig::default();
    let cache = SolveCache::new();
    let solver = default_solver();
    let sub = c.subcluster(&[ProcId(3), ProcId(1)]);
    let suffix: Vec<dhp_dag::NodeId> = g.node_ids().skip(2).collect();
    let s = solve_suffix(&g, &suffix, &sub, &CacheView::direct(&cache, &solver))
        .expect("lease holds the 2-task suffix");
    assert_eq!(s.dag.node_count(), 2);
    assert_eq!(s.back, suffix);
    // The suffix mapping is a valid mapping of the suffix DAG, in
    // both id spaces.
    validate(&s.dag, sub.cluster(), &s.schedule.local.mapping).unwrap();
    validate(&s.dag, &c, &s.schedule.global).unwrap();
    // Equivalent to scheduling the detached 2-chain directly (the
    // induced subgraph of a chain tail is a chain).
    let tail = builder::chain(2, 3.0, 4.0, 1.0);
    assert_eq!(s.dag.fingerprint(), tail.fingerprint());
    let direct = schedule_on_subcluster(&tail, &sub, Algorithm::DagHetPart, &cfg).unwrap();
    assert_eq!(s.schedule.local.makespan, direct.local.makespan);
}

#[test]
fn suffix_solve_reports_no_solution_on_a_tiny_lease() {
    let g = builder::chain(40, 1.0, 30.0, 5.0);
    let c = cluster();
    let cache = SolveCache::new();
    let solver = default_solver();
    let sub = c.subcluster(&[ProcId(2)]);
    let suffix: Vec<dhp_dag::NodeId> = g.node_ids().skip(1).collect();
    let r = solve_suffix(&g, &suffix, &sub, &CacheView::direct(&cache, &solver));
    assert_eq!(r.err(), Some(SchedError::NoSolution));
}

#[test]
#[should_panic(expected = "empty suffix")]
fn empty_suffix_is_a_caller_bug() {
    let g = builder::chain(3, 1.0, 1.0, 1.0);
    let c = cluster();
    let cache = SolveCache::new();
    let solver = default_solver();
    let _ = solve_suffix(
        &g,
        &[],
        &c.subcluster(&[ProcId(0)]),
        &CacheView::direct(&cache, &solver),
    );
}

#[test]
fn capped_cache_evicts_least_recently_used() {
    let c = cluster();
    let cfg = DagHetPartConfig::default();
    let chash = SolveCache::config_hash(&cfg);
    let cache = SolveCache::with_capacity(2);
    assert_eq!(cache.capacity(), Some(2));
    let sub = c.subcluster(&[ProcId(3), ProcId(1)]);
    let graphs: Vec<Dag> = (4..7).map(|n| builder::chain(n, 2.0, 4.0, 1.0)).collect();
    let solve = |g: &Dag| {
        cache
            .schedule(g, g.fingerprint(), &sub, Algorithm::DagHetPart, &cfg, chash)
            .unwrap()
    };
    solve(&graphs[0]); // miss, {g0}
    solve(&graphs[1]); // miss, {g0, g1}
    solve(&graphs[0]); // hit — refreshes g0's recency
    solve(&graphs[2]); // miss at capacity: evicts g1 (the LRU), {g0, g2}
    assert_eq!(cache.len(), 2);
    assert!(cache.is_warm(&(
        graphs[0].fingerprint(),
        sub.shape_signature(),
        Algorithm::DagHetPart,
        chash
    )));
    assert!(!cache.is_warm(&(
        graphs[1].fingerprint(),
        sub.shape_signature(),
        Algorithm::DagHetPart,
        chash
    )));
    solve(&graphs[0]); // still a hit: the refresh protected it
    solve(&graphs[1]); // miss again (was evicted): evicts g2
    let s = cache.stats();
    assert_eq!((s.hits, s.misses, s.evictions), (2, 4, 2));
    assert_eq!(cache.len(), 2);
}

#[test]
fn is_warm_peeks_without_touching_stats() {
    let g = builder::fork_join(6, 10.0, 4.0, 2.0);
    let c = cluster();
    let cfg = DagHetPartConfig::default();
    let chash = SolveCache::config_hash(&cfg);
    let cache = SolveCache::new();
    let fp = g.fingerprint();
    let sub = c.subcluster(&[ProcId(3), ProcId(1)]);
    let shape = sub.shape_signature();
    assert!(!cache.is_warm(&(fp, shape, Algorithm::DagHetPart, chash)));
    cache
        .schedule(&g, fp, &sub, Algorithm::DagHetPart, &cfg, chash)
        .unwrap();
    assert!(cache.is_warm(&(fp, shape, Algorithm::DagHetPart, chash)));
    // Peeking is free: the counters only saw the one real solve.
    let s = cache.stats();
    assert_eq!((s.hits, s.misses), (0, 1));
    // A memoized NoSolution is not "warm" (it will not admit), and
    // a disabled cache is never warm.
    let big = builder::chain(40, 1.0, 30.0, 5.0);
    let tiny = c.subcluster(&[ProcId(2)]);
    let _ = cache.schedule(
        &big,
        big.fingerprint(),
        &tiny,
        Algorithm::DagHetPart,
        &cfg,
        chash,
    );
    assert!(!cache.is_warm(&(
        big.fingerprint(),
        tiny.shape_signature(),
        Algorithm::DagHetPart,
        chash
    )));
    assert!(!SolveCache::disabled().is_warm(&(fp, shape, Algorithm::DagHetPart, chash)));
}

#[test]
#[should_panic(expected = "zero-capacity")]
fn zero_capacity_cache_is_a_caller_bug() {
    SolveCache::with_capacity(0);
}

#[test]
fn config_hash_tracks_config_changes() {
    let a = DagHetPartConfig::default();
    let b = DagHetPartConfig {
        enable_swaps: false,
        ..DagHetPartConfig::default()
    };
    assert_eq!(SolveCache::config_hash(&a), SolveCache::config_hash(&a));
    assert_ne!(SolveCache::config_hash(&a), SolveCache::config_hash(&b));
}

// ------------------------------------------------ threads + views

#[test]
fn concurrent_probes_count_exactly() {
    // Four threads probe one uncapped store at once, each on keys
    // of its own (its thread index is its solver's partitioner
    // seed, so each binds another config hash), every key twice:
    // one miss then one hit per key, whatever the interleaving. The
    // barrier releases all four together.
    const THREADS: u64 = 4;
    const KEYS: usize = 6;
    let c = cluster();
    let cache = SolveCache::new();
    let graphs: Vec<Dag> = (0..KEYS)
        .map(|n| builder::chain(n + 3, 2.0, 4.0, 1.0))
        .collect();
    let start = std::sync::Barrier::new(THREADS as usize);
    std::thread::scope(|scope| {
        for seed in 0..THREADS {
            let (c, cache, graphs, start) = (&c, &cache, &graphs, &start);
            scope.spawn(move || {
                let mut cfg = DagHetPartConfig::default();
                cfg.partition_cfg.seed = seed;
                let solver = Solver::new(Algorithm::DagHetMem, cfg);
                start.wait();
                let view = CacheView::direct(cache, &solver);
                for _ in 0..2 {
                    for g in graphs {
                        view.solve(g, g.fingerprint(), c, &LEASE).unwrap();
                    }
                }
            });
        }
    });
    let expected = THREADS * KEYS as u64;
    let s = cache.stats();
    assert_eq!((s.hits, s.misses, s.evictions), (expected, expected, 0));
    assert_eq!(cache.len() as u64, expected);
}

#[test]
fn live_view_charges_the_account_exactly() {
    let g = builder::fork_join(6, 10.0, 4.0, 2.0);
    let c = cluster();
    let cache = SolveCache::new();
    let solver = default_solver();
    let fp = g.fingerprint();
    let mut account = SolveCacheStats::default();
    {
        let view = CacheView::direct(&cache, &solver).charging(&mut account);
        view.solve(&g, fp, &c, &LEASE).unwrap();
        view.solve(&g, fp, &c, &LEASE).unwrap();
    }
    assert_eq!((account.hits, account.misses), (1, 1));
    // Charged probes hit the store directly: the global counters agree
    // and the entry is immediately visible to direct probes.
    let s = cache.stats();
    assert_eq!((s.hits, s.misses), (1, 1));
    assert_eq!(cache.len(), 1);
}

#[test]
fn live_inserts_charge_evictions_to_the_inserting_account() {
    // Capacity 1: the second insert evicts the first at once, and
    // the eviction is charged to the account whose probe inserted.
    let c = cluster();
    let solver = default_solver();
    let cache = SolveCache::with_capacity(1);
    let view = CacheView::direct(&cache, &solver);
    let sub = c.subcluster(&LEASE);
    let g0 = builder::chain(4, 2.0, 4.0, 1.0);
    let g1 = builder::chain(5, 2.0, 4.0, 1.0);
    let mut first = SolveCacheStats::default();
    let mut second = SolveCacheStats::default();
    for (g, account) in [(&g0, &mut first), (&g1, &mut second)] {
        view.charging(account)
            .solve(g, g.fingerprint(), &c, &LEASE)
            .unwrap();
    }
    assert_eq!((first.evictions, second.evictions), (0, 1));
    assert_eq!(cache.len(), 1);
    assert_eq!(cache.stats().evictions, 1);
    assert!(cache.is_warm(&(
        g1.fingerprint(),
        sub.shape_signature(),
        Algorithm::DagHetPart,
        solver.config_hash()
    )));
    assert!(view.is_warm(g1.fingerprint(), sub.shape_signature()));
    assert!(!view.is_warm(g0.fingerprint(), sub.shape_signature()));
}

// ------------------------------------------------ sim-outcome cache

/// A sim tagged by its makespan, shaped for a graph of `tasks`
/// tasks on [`LEASE`]: a memoized sim must fit its entry's graph
/// and lease (`CachedSolve::fits`).
fn toy_sim(tag: f64, tasks: usize) -> SimOutcome {
    let step = tag / tasks as f64;
    SimOutcome {
        makespan: tag,
        task_start: (0..tasks).map(|i| i as f64 * step).collect(),
        task_finish: (1..=tasks).map(|i| i as f64 * step).collect(),
        lanes: vec![(0, tag)],
    }
}

/// Solves `g` on [`LEASE`] through `view` and returns the key the
/// solve was answered under — the key its sim is memoized on.
fn solve_on_lease(view: &CacheView, g: &Dag) -> ProbeKey {
    let c = cluster();
    let key = view.key(g.fingerprint(), c.shape_of_slice(&LEASE));
    view.solve_keyed(key, g, &c, &LEASE).unwrap();
    key
}

#[test]
fn sim_outcomes_memoize_through_the_direct_view() {
    let cache = SolveCache::new();
    let solver = default_solver();
    let view = CacheView::direct(&cache, &solver);
    let key = solve_on_lease(&view, &builder::chain(4, 2.0, 4.0, 1.0));
    let tick = cache.recency().0;
    let mut computed = 0;
    let first = view.sim_outcome_keyed(key, || {
        computed += 1;
        toy_sim(10.0, 4)
    });
    let mut recomputed = false;
    let second = view.sim_outcome_keyed(key, || {
        recomputed = true;
        toy_sim(99.0, 4)
    });
    assert_eq!(computed, 1);
    assert!(!recomputed, "a sim hit must not re-simulate");
    assert_eq!(*first, *second);
    assert_eq!(cache.sim_len(), 1);
    let s = cache.stats();
    assert_eq!((s.sim_hits, s.sim_misses), (1, 1));
    // Sims and solves count separately: the one solve miss is the
    // solve's, and no sim probe draws a recency tick.
    assert_eq!((s.hits, s.misses), (0, 1));
    assert_eq!(cache.recency().0, tick);
}

#[test]
fn a_sim_probe_without_a_solved_entry_stores_nothing() {
    let c = cluster();
    let cache = SolveCache::new();
    let solver = default_solver();
    let view = CacheView::direct(&cache, &solver);
    // No entry at all, then a memoized NoSolution (a 40-task chain
    // of 30-unit tasks cannot fit on m2's 32 units).
    let big = builder::chain(40, 1.0, 30.0, 5.0);
    let infeasible = view.key(big.fingerprint(), c.shape_of_slice(&[ProcId(2)]));
    let no = view.solve_keyed(infeasible, &big, &c, &[ProcId(2)]);
    assert!(matches!(no, Err(SchedError::NoSolution)));
    let unsolved = view.key(7, 9);
    let mut computed = 0;
    for key in [unsolved, infeasible] {
        for _ in 0..2 {
            view.sim_outcome_keyed(key, || {
                computed += 1;
                toy_sim(10.0, 4)
            });
        }
    }
    assert_eq!(computed, 4, "nothing was memoized to hit");
    assert_eq!(cache.sim_len(), 0);
    let s = cache.stats();
    assert_eq!((s.sim_hits, s.sim_misses), (0, 4));
}

#[test]
fn disabled_cache_computes_sims_every_time_but_counts_them() {
    let cache = SolveCache::disabled();
    let solver = default_solver();
    let view = CacheView::direct(&cache, &solver);
    let key = solve_on_lease(&view, &builder::chain(4, 2.0, 4.0, 1.0));
    let mut computed = 0;
    for _ in 0..3 {
        view.sim_outcome_keyed(key, || {
            computed += 1;
            toy_sim(10.0, 4)
        });
    }
    assert_eq!(computed, 3);
    assert_eq!(cache.sim_len(), 0);
    let s = cache.stats();
    assert_eq!((s.sim_hits, s.sim_misses), (0, 3));
}

#[test]
fn live_view_charges_sim_probes_to_the_account() {
    let cache = SolveCache::new();
    let solver = default_solver();
    let mut account = SolveCacheStats::default();
    {
        let view = CacheView::direct(&cache, &solver).charging(&mut account);
        let key = solve_on_lease(&view, &builder::chain(4, 2.0, 4.0, 1.0));
        view.sim_outcome_keyed(key, || toy_sim(10.0, 4));
        view.sim_outcome_keyed(key, || toy_sim(10.0, 4));
    }
    assert_eq!((account.sim_hits, account.sim_misses), (1, 1));
    // The solve that made the key is charged too.
    assert_eq!((account.hits, account.misses), (0, 1));
    assert_eq!(cache.sim_len(), 1);
}

// ------------------------------------------------------ warm probes

/// Probes `key` the two-call way ([`CacheView::solve_keyed`], then
/// [`CacheView::sim_outcome_keyed`] on a solved key) and returns the
/// simulated makespan, if it placed.
fn two_call_probe(view: &CacheView, key: ProbeKey, g: &Dag, ids: &[ProcId]) -> Option<f64> {
    let local = view.solve_keyed(key, g, &cluster(), ids).ok()?;
    Some(
        view.sim_outcome_keyed(key, || toy_sim(local.makespan, g.node_count()))
            .makespan,
    )
}

/// The same probe through [`CacheView::probe_warm`], falling back to
/// the two calls on a cold key and reading a missing sim back with
/// [`CacheView::memoized`], as admission does.
fn one_lock_probe(view: &CacheView, key: ProbeKey, g: &Dag, ids: &[ProcId]) -> Option<f64> {
    let c = cluster();
    match view.probe_warm(key, true) {
        WarmProbe::Cold => two_call_probe(view, key, g, ids),
        WarmProbe::NoSolution => None,
        WarmProbe::Solved {
            sim: Some(makespan),
        } => Some(makespan),
        WarmProbe::Solved { sim: None } => {
            let (local, sim) = view.memoized(key, false, g, &c, ids).ok()?;
            assert!(sim.is_none(), "a sim the probe did not count");
            Some(
                view.sim_outcome_keyed(key, || toy_sim(local.makespan, g.node_count()))
                    .makespan,
            )
        }
    }
}

#[test]
fn a_warm_probe_moves_the_store_like_the_two_calls() {
    // A solved key with its sim, a solved key without one, a
    // memoized NoSolution, and a key nothing is memoized under —
    // probed in turn, twice over, on twin stores (one unbounded,
    // then a cap of 2 that evicts on every cold insert).
    let c = cluster();
    let solver = default_solver();
    let (g0, g1, g2) = (
        builder::chain(4, 2.0, 4.0, 1.0),
        builder::chain(5, 2.0, 4.0, 1.0),
        builder::chain(6, 2.0, 4.0, 1.0),
    );
    let big = builder::chain(40, 1.0, 30.0, 5.0);
    let tiny = [ProcId(2)];
    let probes: [(&Dag, &[ProcId]); 5] = [
        (&g0, &LEASE),
        (&g1, &LEASE),
        (&big, &tiny),
        (&g2, &LEASE),
        (&g0, &tiny),
    ];
    for make in [SolveCache::new, || SolveCache::with_capacity(2)] {
        let (reference, subject) = (make(), make());
        let (mut want_account, mut got_account) = Default::default();
        {
            let want_view = CacheView::direct(&reference, &solver).charging(&mut want_account);
            let got_view = CacheView::direct(&subject, &solver).charging(&mut got_account);
            for view in [&want_view, &got_view] {
                let k0 = solve_on_lease(view, &g0);
                view.sim_outcome_keyed(k0, || toy_sim(1.0, 4));
                solve_on_lease(view, &g1);
            }
            for (round, &(g, ids)) in probes.iter().cycle().take(10).enumerate() {
                let key = want_view.key(g.fingerprint(), c.shape_of_slice(ids));
                let want = two_call_probe(&want_view, key, g, ids);
                let got = one_lock_probe(&got_view, key, g, ids);
                assert_eq!(got, want, "probe {round}");
                assert_eq!(subject.stats(), reference.stats(), "probe {round}");
                assert_eq!(subject.recency(), reference.recency(), "probe {round}");
            }
        }
        assert_eq!(got_account, want_account);
    }
}

#[test]
fn a_warm_probe_takes_one_lock_one_hash_and_no_arc() {
    let cache = SolveCache::new();
    let solver = default_solver();
    let view = CacheView::direct(&cache, &solver);
    let g = builder::chain(4, 2.0, 4.0, 1.0);
    let key = solve_on_lease(&view, &g);
    view.sim_outcome_keyed(key, || toy_sim(10.0, 4));
    let cost = |probe: &dyn Fn()| {
        let before = tally::read();
        probe();
        let after = tally::read();
        (after.0 - before.0, after.1 - before.1, after.2 - before.2)
    };
    // What an overshooting admission probe asks: the makespan only.
    assert_eq!(
        cost(&|| assert_eq!(
            view.probe_warm(key, true),
            WarmProbe::Solved { sim: Some(10.0) }
        )),
        (1, 1, 0),
        "(lock takes, key hashes, Arc clones) of a warm probe"
    );
    // The two calls it replaces: twice each.
    assert_eq!(
        cost(&|| {
            assert_eq!(two_call_probe(&view, key, &g, &LEASE), Some(10.0));
        }),
        (2, 2, 2)
    );
    // A grant reads the values back once more, uncounted.
    let stats = cache.stats();
    let recency = cache.recency();
    assert_eq!(
        cost(&|| {
            let (local, sim) = view.memoized(key, true, &g, &cluster(), &LEASE).unwrap();
            assert_eq!(sim.map(|s| s.makespan), Some(10.0));
            assert!(local.makespan > 0.0);
        }),
        (1, 1, 2)
    );
    assert_eq!((cache.stats(), cache.recency()), (stats, recency));
}

#[test]
fn a_warm_probe_on_a_disabled_or_cold_store_moves_nothing() {
    let solver = default_solver();
    for cache in [SolveCache::new(), SolveCache::disabled()] {
        let mut account = SolveCacheStats::default();
        {
            let view = CacheView::direct(&cache, &solver).charging(&mut account);
            let key = view.key(7, 9);
            assert_eq!(view.probe_warm(key, true), WarmProbe::Cold);
            assert_eq!(view.probe_warm(key, false), WarmProbe::Cold);
        }
        assert_eq!(account, SolveCacheStats::default());
        assert_eq!(cache.stats(), SolveCacheStats::default());
        assert_eq!(cache.recency(), (0, Vec::new()));
    }
}

#[test]
fn entries_that_do_not_fit_their_graph_or_lease_are_solved_again() {
    // What a snapshot can hold under a valid checksum: the reader
    // sees neither the graph nor the lease a key names.
    let (c, solver) = (cluster(), default_solver());
    let g = builder::chain(4, 2.0, 4.0, 1.0);
    let fitting = SolveCache::new();
    let view = CacheView::direct(&fitting, &solver);
    let key = solve_on_lease(&view, &g);
    view.sim_outcome_keyed(key, || toy_sim(10.0, 4));
    let want = view.solve_keyed(key, &g, &c, &LEASE).unwrap();
    type Spoil = fn(&mut MappingResult, &mut SimOutcome);
    let spoilers: [(&str, Spoil); 5] = [
        ("a block array of another graph", |local, _| {
            local.mapping.partition = dhp_dag::Partition::single_block(5);
        }),
        ("a processor past the lease", |local, _| {
            local.mapping.proc_of_block[0] = Some(ProcId(LEASE.len() as u32));
        }),
        ("an unmapped block", |local, _| {
            local.mapping.proc_of_block[0] = None;
        }),
        ("a sim of another graph", |_, sim| {
            sim.task_finish.pop();
        }),
        ("a sim lane past the lease", |_, sim| {
            sim.lanes[0].0 = LEASE.len() as u32;
        }),
    ];
    for (what, spoil) in spoilers {
        for via_memoized in [false, true] {
            let mut image = fitting.snapshot();
            let (_, CachedSolve::Solved { local, sim }, _) = &mut image.entries[0] else {
                unreachable!("the one entry is solved");
            };
            spoil(Arc::make_mut(local), Arc::make_mut(sim.as_mut().unwrap()));
            let cache = SolveCache::new();
            cache.restore(image);
            let view = CacheView::direct(&cache, &solver);
            let before = cache.stats();
            let got = if via_memoized {
                let (got, sim) = view.memoized(key, true, &g, &c, &LEASE).unwrap();
                assert!(sim.is_none(), "{what}: the dropped entry's sim");
                got
            } else {
                view.solve_keyed(key, &g, &c, &LEASE).unwrap()
            };
            assert_eq!(
                got.mapping.proc_of_block, want.mapping.proc_of_block,
                "{what}"
            );
            let after = cache.stats();
            assert_eq!(
                (after.hits - before.hits, after.misses - before.misses),
                (0, 1),
                "{what}: dropped and solved again as a miss"
            );
            // The fresh solve fits, and hits from now on.
            view.solve_keyed(key, &g, &c, &LEASE).unwrap();
            assert_eq!(cache.stats().hits, after.hits + 1, "{what}");
        }
    }
}

#[test]
fn memoized_solves_again_when_the_entry_is_gone() {
    // Capacity 1: a second insert evicts the entry a probe found,
    // as another thread's insert could between the probe and the
    // grant's read. The read solves again and returns no sim.
    let cache = SolveCache::with_capacity(1);
    let solver = default_solver();
    let view = CacheView::direct(&cache, &solver);
    let g = builder::chain(4, 2.0, 4.0, 1.0);
    let key = solve_on_lease(&view, &g);
    view.sim_outcome_keyed(key, || toy_sim(10.0, 4));
    let first = view.memoized(key, true, &g, &cluster(), &LEASE);
    let (first, sim) = first.unwrap();
    assert!(sim.is_some());
    solve_on_lease(&view, &builder::chain(5, 2.0, 4.0, 1.0));
    let misses = cache.stats().misses;
    let again = view.memoized(key, true, &g, &cluster(), &LEASE);
    let (again, sim) = again.unwrap();
    assert!(sim.is_none());
    assert_eq!(again.makespan, first.makespan);
    assert_eq!(again.mapping.proc_of_block, first.mapping.proc_of_block);
    assert_eq!(cache.stats().misses, misses + 1, "the re-solve is counted");
}

#[test]
fn evicting_a_solve_drops_its_sim_outcome() {
    let cache = SolveCache::with_capacity(1);
    let solver = default_solver();
    let view = CacheView::direct(&cache, &solver);
    let k0 = solve_on_lease(&view, &builder::chain(4, 2.0, 4.0, 1.0));
    view.sim_outcome_keyed(k0, || toy_sim(10.0, 4));
    assert_eq!((cache.len(), cache.sim_len()), (1, 1));
    // Inserting a second solve evicts g0 — and its sim with it.
    solve_on_lease(&view, &builder::chain(5, 2.0, 4.0, 1.0));
    assert_eq!((cache.len(), cache.sim_len()), (1, 0));
    let mut recomputed = false;
    view.sim_outcome_keyed(k0, || {
        recomputed = true;
        toy_sim(11.0, 4)
    });
    assert!(recomputed, "the evicted sim must be gone");
    assert_eq!(
        cache.sim_len(),
        0,
        "nor does it come back without its solve"
    );
}
