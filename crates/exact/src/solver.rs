//! Exhaustive branch-and-bound solver for DAGP-PM.
//!
//! The search enumerates every set partition of the tasks (restricted-
//! growth strings, [`crate::partitions`]), keeps those with an acyclic
//! quotient graph, and for each one branches over injective
//! block-to-processor assignments. Three reductions keep the search
//! tractable on the instance sizes it is meant for (n ≤ ~10):
//!
//! 1. **Subset memoisation** — block memory requirements `r_{V_i}` are
//!    cached by member bitmask; across the `Σ S(n,k')` partitions only
//!    `2^n` distinct subsets exist.
//! 2. **Processor symmetry** — processors with identical `(speed, memory)`
//!    are interchangeable; only the first free member of each equivalence
//!    class is branched on.
//! 3. **Optimistic pruning** — a partial assignment is abandoned when the
//!    makespan with every unassigned block granted the fastest remaining
//!    speed already meets the incumbent (makespan is monotone
//!    non-increasing in every block speed).
//!
//! The returned solution is *certified optimal* under the same memory
//! model as the heuristics ([`dhp_core::blockmem::block_requirement`]),
//! so `exact ≤ heuristic` holds for every mapping the heuristics accept.

use crate::partitions::RestrictedGrowth;
use dhp_core::blockmem::block_requirement;
use dhp_core::Mapping;
use dhp_dag::{Dag, FlatQuotient, NodeId, Partition, PassScratch};
use dhp_platform::{Cluster, ProcId};
use std::collections::HashMap;

/// Search limits. The defaults solve n ≤ 10 instances in seconds.
#[derive(Clone, Debug)]
pub struct ExactConfig {
    /// Hard cap on the number of tasks (the partition count grows like
    /// the Bell number `B(n)`).
    pub max_nodes: usize,
    /// Cap on the number of blocks `k'` branched over. The solve is
    /// exact iff this is at least `min(n, k)`; lowering it turns the
    /// solver into "exact among mappings with ≤ max_blocks blocks".
    pub max_blocks: usize,
    /// Abort after enumerating this many partitions.
    pub max_partitions: u64,
}

impl Default for ExactConfig {
    fn default() -> Self {
        Self {
            max_nodes: 10,
            max_blocks: usize::MAX,
            max_partitions: 10_000_000,
        }
    }
}

/// Why the solver refused or gave up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExactError {
    /// Instance exceeds [`ExactConfig::max_nodes`].
    TooLarge {
        /// Tasks in the instance.
        nodes: usize,
        /// The configured cap.
        limit: usize,
    },
    /// The partition budget ran out before the enumeration finished.
    Aborted {
        /// Partitions enumerated before giving up.
        partitions: u64,
    },
}

impl std::fmt::Display for ExactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExactError::TooLarge { nodes, limit } => {
                write!(f, "instance has {nodes} tasks, exact cap is {limit}")
            }
            ExactError::Aborted { partitions } => {
                write!(f, "aborted after {partitions} partitions")
            }
        }
    }
}

impl std::error::Error for ExactError {}

/// Search statistics (how hard the instance was).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Set partitions enumerated.
    pub partitions: u64,
    /// Partitions whose quotient graph was acyclic.
    pub acyclic: u64,
    /// Partitions surviving the per-block memory filter.
    pub mem_feasible: u64,
    /// Leaves of the assignment search evaluated.
    pub assignments: u64,
    /// Assignment subtrees cut by the optimistic bound.
    pub pruned: u64,
}

/// A certified-optimal solution.
#[derive(Clone, Debug)]
pub struct ExactSolution {
    /// The optimal mapping (valid per [`dhp_core::mapping::validate`]).
    pub mapping: Mapping,
    /// Its makespan.
    pub makespan: f64,
    /// Search effort.
    pub stats: SearchStats,
}

/// Solves DAGP-PM exactly. Returns `Ok(None)` when no feasible mapping
/// exists (the paper's "platform too small" outcome).
pub fn solve(
    g: &Dag,
    cluster: &Cluster,
    cfg: &ExactConfig,
) -> Result<Option<ExactSolution>, ExactError> {
    solve_with_incumbent(g, cluster, cfg, f64::INFINITY)
}

/// Like [`solve`], but seeds the incumbent with a known upper bound
/// (e.g. a heuristic makespan) so the branch-and-bound can prune from the
/// first partition. Only solutions *strictly better* than mappings at
/// `upper_bound` are returned; pass `INFINITY` for an unconditional solve.
pub fn solve_with_incumbent(
    g: &Dag,
    cluster: &Cluster,
    cfg: &ExactConfig,
    upper_bound: f64,
) -> Result<Option<ExactSolution>, ExactError> {
    let n = g.node_count();
    if n > cfg.max_nodes {
        return Err(ExactError::TooLarge {
            nodes: n,
            limit: cfg.max_nodes,
        });
    }
    if n == 0 {
        return Ok(None);
    }
    assert!(
        n <= 64,
        "bitmask memoisation requires n <= 64 (max_nodes guards this)"
    );
    let kmax = cluster.len().min(cfg.max_blocks).min(n);

    let symmetry = symmetry_classes(cluster);
    let s_max = cluster
        .iter()
        .map(|(_, p)| p.speed)
        .fold(f64::MIN_POSITIVE, f64::max);
    let mut req_cache: HashMap<u64, f64> = HashMap::new();
    let mut best: Option<(f64, Mapping)> = None;
    let mut incumbent = upper_bound;
    let mut stats = SearchStats::default();
    let mut pass = PassScratch::default();

    for rgs in RestrictedGrowth::new(n, kmax) {
        stats.partitions += 1;
        if stats.partitions > cfg.max_partitions {
            return Err(ExactError::Aborted {
                partitions: stats.partitions - 1,
            });
        }
        let partition = Partition::from_raw(&rgs);
        // Indexed once here; the assignment search only changes speeds.
        let mut q = FlatQuotient::build(g, &partition);
        if !pass.index(&q, cluster.bandwidth) {
            continue;
        }
        stats.acyclic += 1;

        // Per-block requirements (memoised by member bitmask).
        let reqs: Vec<f64> = partition
            .members()
            .iter()
            .map(|members| {
                let mask = members.iter().fold(0u64, |m, u| m | 1 << u.idx());
                *req_cache
                    .entry(mask)
                    .or_insert_with(|| block_requirement(g, members))
            })
            .collect();
        // A block no processor can hold kills the partition outright.
        if reqs
            .iter()
            .any(|&r| r > cluster.max_memory() * (1.0 + 1e-9))
        {
            continue;
        }
        stats.mem_feasible += 1;

        // Branch over injective block → processor assignments, the most
        // memory-hungry blocks first: they have the fewest candidate
        // processors, which shrinks the branching factor early.
        let mut order: Vec<usize> = (0..q.len()).collect();
        order.sort_by(|&a, &b| reqs[b].total_cmp(&reqs[a]));
        q.speed.fill(s_max); // optimistic default
        dfs(
            cluster,
            &mut q,
            &mut pass,
            &reqs,
            &symmetry,
            &partition,
            &order,
            0,
            &mut vec![None; order.len()],
            &mut vec![0; symmetry.len()],
            &mut incumbent,
            &mut best,
            &mut stats,
        );
    }

    Ok(best.map(|(makespan, mapping)| ExactSolution {
        mapping,
        makespan,
        stats,
    }))
}

/// Groups processor ids by identical `(speed, memory)`; within a group
/// only the first unused processor needs to be branched on.
fn symmetry_classes(cluster: &Cluster) -> Vec<Vec<ProcId>> {
    let mut classes: Vec<(f64, f64, Vec<ProcId>)> = Vec::new();
    for (p, proc) in cluster.iter() {
        match classes
            .iter_mut()
            .find(|(s, m, _)| *s == proc.speed && *m == proc.memory)
        {
            Some((_, _, ids)) => ids.push(p),
            None => classes.push((proc.speed, proc.memory, vec![p])),
        }
    }
    classes.into_iter().map(|(_, _, ids)| ids).collect()
}

/// One node of the assignment search over a partition whose quotient
/// `q` (node `i` is block `i`) `pass` has indexed: blocks
/// `order[..depth]` run on their `chosen` processors, the rest at the
/// fastest speed.
#[allow(clippy::too_many_arguments)] // internal DFS driver
fn dfs(
    cluster: &Cluster,
    q: &mut FlatQuotient,
    pass: &mut PassScratch,
    reqs: &[f64],
    symmetry: &[Vec<ProcId>],
    partition: &Partition,
    order: &[usize],
    depth: usize,
    chosen: &mut Vec<Option<ProcId>>,
    used_per_class: &mut Vec<usize>,
    incumbent: &mut f64,
    best: &mut Option<(f64, Mapping)>,
    stats: &mut SearchStats,
) {
    // Optimistic bound: every still-unassigned block keeps speed s_max.
    let optimistic = pass.relax(q);
    if optimistic >= *incumbent {
        stats.pruned += 1;
        return;
    }
    if depth == order.len() {
        stats.assignments += 1;
        // All speeds are real now: `optimistic` is the true makespan.
        *incumbent = optimistic;
        *best = Some((
            optimistic,
            Mapping {
                partition: partition.clone(),
                proc_of_block: chosen.clone(),
            },
        ));
        return;
    }
    let b = order[depth];
    for (class, ids) in symmetry.iter().enumerate() {
        if used_per_class[class] == ids.len() {
            continue;
        }
        let p = ids[used_per_class[class]];
        if reqs[b] > cluster.memory(p) * (1.0 + 1e-9) {
            continue;
        }
        let saved = q.speed[b];
        q.speed[b] = cluster.speed(p);
        chosen[b] = Some(p);
        used_per_class[class] += 1;
        dfs(
            cluster,
            q,
            pass,
            reqs,
            symmetry,
            partition,
            order,
            depth + 1,
            chosen,
            used_per_class,
            incumbent,
            best,
            stats,
        );
        used_per_class[class] -= 1;
        chosen[b] = None;
        q.speed[b] = saved;
    }
}

/// Largest single-task requirement — used by callers to build clusters
/// on which an instance is guaranteed to be feasible.
pub fn max_task_requirement(g: &Dag) -> f64 {
    g.node_ids()
        .map(|u: NodeId| g.task_requirement(u))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhp_core::mapping::validate;
    use dhp_dag::builder;
    use dhp_platform::Processor;

    fn cluster(procs: &[(f64, f64)], beta: f64) -> Cluster {
        Cluster::new(
            procs
                .iter()
                .map(|&(s, m)| Processor::new("p", s, m))
                .collect(),
            beta,
        )
    }

    #[test]
    fn single_task_goes_to_fastest_fitting_processor() {
        let mut g = Dag::new();
        g.add_node(12.0, 3.0);
        // fastest (speed 6) lacks memory; speed 4 fits.
        let c = cluster(&[(6.0, 2.0), (4.0, 5.0), (1.0, 100.0)], 1.0);
        let sol = solve(&g, &c, &ExactConfig::default()).unwrap().unwrap();
        assert_eq!(sol.makespan, 3.0);
        assert_eq!(sol.mapping.proc_of_block, vec![Some(ProcId(1))]);
    }

    #[test]
    fn chain_on_two_processors_considers_split_and_whole() {
        // 2-task chain, heavy edge: keeping both tasks together on the
        // fast processor beats paying the communication.
        let mut g = Dag::new();
        let a = g.add_node(4.0, 1.0);
        let b = g.add_node(4.0, 1.0);
        g.add_edge(a, b, 100.0);
        let c = cluster(&[(2.0, 1000.0), (2.0, 1000.0)], 1.0);
        let sol = solve(&g, &c, &ExactConfig::default()).unwrap().unwrap();
        assert_eq!(sol.makespan, 4.0); // (4+4)/2, no comm
        assert_eq!(sol.mapping.num_blocks(), 1);

        // Free communication: splitting is no worse (chain: still 4).
        let c = cluster(&[(2.0, 1000.0), (2.0, 1000.0)], 1e12);
        let sol = solve(&g, &c, &ExactConfig::default()).unwrap().unwrap();
        assert!((sol.makespan - 4.0).abs() < 1e-9);
    }

    #[test]
    fn fork_join_exploits_parallelism() {
        // source -> {a, b} -> sink with cheap edges. Block works add up
        // along every quotient path (paper §3.3), so parallelism only
        // pays once the two branches sit in *separate* blocks on a
        // diamond-shaped quotient — which needs 4 processors here.
        let g = builder::fork_join(2, 10.0, 1.0, 0.1);
        let c = cluster(&[(1.0, 1000.0); 4], 10.0);
        let sol = solve(&g, &c, &ExactConfig::default()).unwrap().unwrap();
        let serial = g.total_work(); // 40 on one unit-speed proc
        assert!(sol.makespan < serial, "got {}", sol.makespan);
        assert_eq!(sol.mapping.num_blocks(), 4);
        // src + one branch + sink + two tiny transfers: 30.02.
        assert!((sol.makespan - 30.02).abs() < 1e-9);
        validate(&g, &c, &sol.mapping).unwrap();

        // With only two processors no acyclic 2-way split beats serial:
        // the quotient is a chain and works still sum up.
        let c2 = cluster(&[(1.0, 1000.0); 2], 10.0);
        let sol2 = solve(&g, &c2, &ExactConfig::default()).unwrap().unwrap();
        assert!((sol2.makespan - serial).abs() < 1e-9);
    }

    #[test]
    fn memory_infeasible_returns_none() {
        let mut g = Dag::new();
        g.add_node(1.0, 50.0);
        let c = cluster(&[(1.0, 10.0)], 1.0);
        assert!(solve(&g, &c, &ExactConfig::default()).unwrap().is_none());
    }

    #[test]
    fn too_large_is_rejected() {
        let g = builder::chain(11, 1.0, 1.0, 1.0);
        let c = cluster(&[(1.0, 100.0)], 1.0);
        let err = solve(&g, &c, &ExactConfig::default()).unwrap_err();
        assert_eq!(
            err,
            ExactError::TooLarge {
                nodes: 11,
                limit: 10
            }
        );
    }

    #[test]
    fn abort_budget_respected() {
        let g = builder::gnp_dag_weighted(8, 0.3, 1);
        let c = cluster(&[(1.0, 1e6), (2.0, 1e6)], 1.0);
        let cfg = ExactConfig {
            max_partitions: 10,
            ..ExactConfig::default()
        };
        match solve(&g, &c, &cfg) {
            Err(ExactError::Aborted { partitions: 10 }) => {}
            other => panic!("expected abort, got {other:?}"),
        }
    }

    #[test]
    fn incumbent_seeding_never_changes_the_optimum_value() {
        let g = builder::gnp_dag_weighted(6, 0.35, 7);
        let c = cluster(&[(1.0, 1e6), (3.0, 1e6), (2.0, 1e6)], 1.0);
        let plain = solve(&g, &c, &ExactConfig::default()).unwrap().unwrap();
        let seeded = solve_with_incumbent(&g, &c, &ExactConfig::default(), plain.makespan + 1e-6)
            .unwrap()
            .unwrap();
        assert!((plain.makespan - seeded.makespan).abs() < 1e-9);
        // Seeding with the optimum itself finds nothing strictly better.
        let none = solve_with_incumbent(&g, &c, &ExactConfig::default(), plain.makespan).unwrap();
        assert!(none.is_none() || none.unwrap().makespan < plain.makespan);
    }

    #[test]
    fn symmetry_classes_group_identical_processors() {
        let c = cluster(&[(1.0, 10.0), (2.0, 10.0), (1.0, 10.0)], 1.0);
        let classes = symmetry_classes(&c);
        assert_eq!(classes.len(), 2);
        let sizes: Vec<usize> = classes.iter().map(Vec::len).collect();
        assert!(sizes.contains(&2) && sizes.contains(&1));
    }

    #[test]
    fn optimum_beats_or_matches_every_manual_mapping() {
        // Cross-check on a diamond: enumerate a few hand-built mappings
        // and confirm none beats the solver.
        let mut g = Dag::new();
        let s = g.add_node(2.0, 1.0);
        let a = g.add_node(6.0, 2.0);
        let b = g.add_node(4.0, 2.0);
        let t = g.add_node(2.0, 1.0);
        g.add_edge(s, a, 1.0);
        g.add_edge(s, b, 1.0);
        g.add_edge(a, t, 1.0);
        g.add_edge(b, t, 1.0);
        let c = cluster(&[(2.0, 100.0), (1.0, 100.0)], 1.0);
        let sol = solve(&g, &c, &ExactConfig::default()).unwrap().unwrap();
        validate(&g, &c, &sol.mapping).unwrap();

        use dhp_core::makespan::makespan_of_mapping;
        for (raw, procs) in [
            (vec![0u32, 0, 0, 0], vec![Some(ProcId(0))]),
            (vec![0, 0, 1, 1], vec![Some(ProcId(0)), Some(ProcId(1))]),
            (vec![0, 1, 0, 0], vec![Some(ProcId(0)), Some(ProcId(1))]),
        ] {
            let m = Mapping {
                partition: Partition::from_raw(&raw),
                proc_of_block: procs,
            };
            if validate(&g, &c, &m).is_ok() {
                let mk = makespan_of_mapping(&g, &c, &m);
                assert!(
                    sol.makespan <= mk + 1e-9,
                    "manual mapping {raw:?} beats 'optimal' ({mk} < {})",
                    sol.makespan
                );
            }
        }
    }
}
