#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! # dhp-dagp
//!
//! A from-scratch multilevel **acyclic** DAG partitioner, reproducing the
//! role of `dagP` (Herrmann, Özkaya, Uçar, Kaya, Çatalyürek, *Multilevel
//! Algorithms for Acyclic Partitioning of Directed Acyclic Graphs*, SISC
//! 2019) inside the DagHetPart heuristic: given a workflow DAG and a part
//! count `k`, produce a `k`-way partition whose quotient graph is acyclic,
//! minimising the edge cut under a balance constraint.
//!
//! ## Pipeline
//!
//! 1. **Coarsening** ([`coarsen`]) — contract matching edges whose
//!    contraction provably preserves acyclicity (single-parent /
//!    single-child endpoints), preferring heavy edges, until the graph is
//!    small.
//! 2. **Initial partitioning** ([`initial`]) — split a topological order
//!    into `k` weight-balanced contiguous chunks; contiguous chunks of a
//!    topological order always induce an acyclic quotient.
//! 3. **Uncoarsening + refinement** ([`refine`]) — project the partition
//!    down level by level and greedily move boundary vertices between
//!    parts to reduce the cut, keeping the part order topological (moves
//!    are only allowed into the interval bounded by the parts of the
//!    vertex's parents and children), which maintains acyclicity by
//!    construction. A vertex whose part is within balance is scored
//!    against the two ends of that interval only — the only parts of it
//!    the vertex can have an edge to — so a pass costs the graph's
//!    edges, not edges × `k`.
//!
//! Steps 2 and 3 read a level through its [`coarsen::LevelView`] — flat
//! adjacency and one topological order, built with the level — so the
//! part counts that share a hierarchy ([`coarsen_for`] once,
//! [`partition_on`] per count) share those too.
//!
//! `FitBlock`'s bisection of one block of a workflow is
//! [`bisect_block`]: a block too small to be coarsened (most of them)
//! is chunked and refined on a [`coarsen::LevelView`] refilled straight
//! from the workflow, so no sub-DAG is built and a warm thread
//! allocates only the partition it returns.
//!
//! A caller that partitions one graph for many part counts builds its
//! hierarchy once ([`coarsen_for`] for the smallest count) and
//! partitions into a [`PartitionScratch`] it keeps
//! ([`partition_on_into`]): a warm partitioning allocates nothing. A
//! hierarchy level is only what partitioning reads — view, balance
//! weights and coarse map ([`coarsen::Level`]) — so a graph already at
//! the coarsening target costs its view and weights, and no copy of it.
//!
//! The partitioner is deterministic given [`PartitionConfig::seed`].
//!
//! ```
//! use dhp_dagp::{partition, PartitionConfig};
//! use dhp_dag::quotient::is_acyclic_partition;
//!
//! let g = dhp_dag::builder::gnp_dag_weighted(60, 0.1, 7);
//! let part = partition(&g, 4, &PartitionConfig::default());
//! assert_eq!(part.num_blocks(), 4);
//! assert!(is_acyclic_partition(&g, &part)); // quotient stays a DAG
//! ```

pub mod coarsen;
pub mod initial;
pub mod refine;
pub mod undirected;

use dhp_dag::{Dag, NodeId, Partition};

/// Which per-task weight the balance constraint is computed on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BalanceWeight {
    /// Task work `w_u` — used when partitioning for makespan (Step 1).
    Work,
    /// The full task requirement `r_u = inputs + outputs + m_u` — used
    /// when splitting blocks to fit processor memories (`FitBlock`).
    TaskRequirement,
}

/// Partitioner configuration.
#[derive(Clone, Debug)]
pub struct PartitionConfig {
    /// Allowed imbalance: every part's weight must stay below
    /// `(1 + epsilon) * total / k` (best effort — a single heavy task can
    /// force a violation, as in any balanced-partitioning tool).
    pub epsilon: f64,
    /// Balance criterion.
    pub balance: BalanceWeight,
    /// Coarsening stops once the graph has at most `coarsen_target * k`
    /// nodes.
    pub coarsen_target: usize,
    /// Maximum refinement passes per level.
    pub refine_passes: usize,
    /// RNG seed (tie-breaking in coarsening).
    pub seed: u64,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        Self {
            epsilon: 0.10,
            balance: BalanceWeight::Work,
            coarsen_target: 30,
            refine_passes: 8,
            seed: 1,
        }
    }
}

/// Partitions `g` into (at most) `k` non-empty blocks with an acyclic
/// quotient graph, minimising edge cut under the balance constraint.
///
/// Fewer than `k` blocks are returned only when `g` has fewer than `k`
/// nodes. Returns the single-block partition for `k <= 1`.
///
/// # Panics
/// Panics if `g` is cyclic or empty.
pub fn partition(g: &Dag, k: usize, cfg: &PartitionConfig) -> Partition {
    assert!(!g.is_empty(), "cannot partition an empty graph");
    if k.min(g.node_count()) <= 1 {
        return Partition::single_block(g.node_count());
    }
    partition_on(&coarsen_for(g, k, cfg), k, cfg)
}

/// Step 1 of [`partition`]`(g, k, cfg)`: the hierarchy it coarsens `g`
/// into. The same hierarchy serves [`partition_on`] for every part
/// count from `k` up, so a caller that tries many part counts on one
/// graph coarsens once, for the smallest.
pub fn coarsen_for(g: &Dag, k: usize, cfg: &PartitionConfig) -> coarsen::Hierarchy {
    coarsen::coarsen_owned(
        g,
        balance_weights(g, cfg),
        coarsening_target(g.node_count(), k, cfg),
        cfg.seed,
    )
}

/// Balance weights on the finest level.
fn balance_weights(g: &Dag, cfg: &PartitionConfig) -> Vec<f64> {
    match cfg.balance {
        BalanceWeight::Work => g.node_ids().map(|u| g.node(u).work).collect(),
        BalanceWeight::TaskRequirement => g.node_ids().map(|u| g.task_requirement(u)).collect(),
    }
}

/// Node count at which coarsening `n` nodes for `k` parts stops.
fn coarsening_target(n: usize, k: usize, cfg: &PartitionConfig) -> usize {
    k.min(n) * cfg.coarsen_target.max(2)
}

/// Steps 2 and 3 of [`partition`]: partitions the graph `hierarchy` was
/// built from into `k` parts, on the levels [`coarsen_for`] would have
/// built for this `k`. `hierarchy` must come from [`coarsen_for`] with
/// the same `cfg` and a part count of at most `k`; the result is then
/// `partition(g, k, cfg)`, bit for bit.
pub fn partition_on(hierarchy: &coarsen::Hierarchy, k: usize, cfg: &PartitionConfig) -> Partition {
    Partition::from_raw(partition_on_into(
        hierarchy,
        k,
        cfg,
        &mut PartitionScratch::default(),
    ))
}

/// The buffers of one partitioning ([`partition_on_into`]),
/// kept by a caller that partitions again and again: a warm one
/// allocates nothing.
#[derive(Debug, Default)]
pub struct PartitionScratch {
    /// The current level's assignment.
    assignment: Vec<u32>,
    /// The next finer level's, while it is projected and refined.
    fine: Vec<u32>,
    refine: refine::RefineScratch,
}

/// [`partition_on`] on `scratch`, before the blocks are renumbered: the
/// part of every node, in `0..k`, with the parts numbered in
/// topological order. [`Partition::from_raw`] of it is
/// [`partition_on`]'s result. The same rules hold for `hierarchy`, `k`
/// and `cfg`.
pub fn partition_on_into<'s>(
    hierarchy: &coarsen::Hierarchy,
    k: usize,
    cfg: &PartitionConfig,
    scratch: &'s mut PartitionScratch,
) -> &'s [u32] {
    let n = hierarchy.finest().node_count();
    let k = k.min(n);
    if k <= 1 {
        return scratch.single_part(n);
    }
    let levels = hierarchy.prefix(coarsening_target(n, k, cfg));
    let coarsest = levels.coarsest();
    scratch.chunk_and_refine(coarsest.view(), coarsest.weights(), k, cfg);
    for level in levels.finer_levels() {
        let PartitionScratch {
            assignment,
            fine,
            refine,
        } = scratch;
        // Project: each fine node inherits its coarse representative's part.
        fine.clear();
        fine.extend(
            (0..level.node_count() as u32).map(|i| assignment[level.coarse_of(NodeId(i)).idx()]),
        );
        refine::refine_with(level.view(), level.weights(), fine, k, cfg, refine);
        std::mem::swap(assignment, fine);
    }
    &scratch.assignment
}

impl PartitionScratch {
    /// Every one of `n` nodes in part 0.
    fn single_part(&mut self, n: usize) -> &[u32] {
        self.assignment.clear();
        self.assignment.resize(n, 0);
        &self.assignment
    }

    /// The initial partition of the coarsest level and its refinement.
    fn chunk_and_refine(
        &mut self,
        view: &coarsen::LevelView,
        weights: &[f64],
        k: usize,
        cfg: &PartitionConfig,
    ) {
        initial::topo_chunks_into(view, weights, k, &mut self.assignment);
        refine::refine_with(
            view,
            weights,
            &mut self.assignment,
            k,
            cfg,
            &mut self.refine,
        );
    }
}

/// Bisects `g` into two blocks (`FitBlock`'s `Partition(V, 2)`), balanced
/// on the task memory requirement.
pub fn bisect(g: &Dag, cfg: &PartitionConfig) -> Partition {
    let mut c = cfg.clone();
    c.balance = BalanceWeight::TaskRequirement;
    partition(g, 2, &c)
}

/// What [`bisect_block`] reuses from one block to the next on a thread.
#[derive(Default)]
struct BlockScratch {
    view: coarsen::LevelView,
    weights: Vec<f64>,
    indeg: Vec<u32>,
    ready: std::collections::BinaryHeap<std::cmp::Reverse<u32>>,
    part: PartitionScratch,
}

thread_local! {
    static BLOCK: std::cell::RefCell<BlockScratch> = std::cell::RefCell::default();
}

/// [`bisect`] of the sub-DAG `members` (ascending, without duplicates)
/// induce in `g`: `bisect(&g.induced_subgraph(members).0, cfg)`, bit
/// for bit, indexed like `members`.
///
/// A block of at most `2 · coarsen_target` tasks is not coarsened, so
/// its bisection is one chunking of its topological order and one
/// refinement: those run on a [`coarsen::LevelView`] of the block
/// filled straight from `g`'s adjacency, on the calling thread's
/// reusable buffers, with each task's weight its internal in- and
/// out-volume plus its memory (the sub-DAG's task requirement, summed
/// in the same order). No sub-DAG is built, and a thread that has seen
/// a block of this size allocates only the result. A larger block is
/// bisected through its induced sub-DAG.
///
/// # Panics
/// Panics if `members` is empty or not ascending.
pub fn bisect_block(g: &Dag, members: &[NodeId], cfg: &PartitionConfig) -> Partition {
    let mut part = Vec::new();
    bisect_block_into(g, members, cfg, &mut part);
    Partition::from_raw(&part)
}

/// [`bisect_block`] into `part` (cleared first), before the two blocks
/// are renumbered: `part[i]` is the part of `members[i]`, and
/// [`Partition::from_raw`] of it is [`bisect_block`]'s result. A block
/// small enough to be viewed in place allocates nothing on a thread
/// that has seen one of its size, and nothing for `part` once it has
/// held as many entries.
///
/// # Panics
/// Panics if `members` is empty or not ascending.
pub fn bisect_block_into(g: &Dag, members: &[NodeId], cfg: &PartitionConfig, part: &mut Vec<u32>) {
    assert!(!members.is_empty(), "cannot partition an empty graph");
    part.clear();
    let n = members.len();
    if n > coarsening_target(n, 2, cfg) {
        let halves = bisect(&g.induced_subgraph(members).0, cfg);
        part.extend((0..n as u32).map(|i| halves.block_of(NodeId(i)).0));
        return;
    }
    if n == 1 {
        part.push(0);
        return;
    }
    BLOCK.with_borrow_mut(|s| {
        let BlockScratch {
            view,
            weights,
            indeg,
            ready,
            part: scratch,
        } = s;
        view.fill_block(g, members, indeg, ready);
        let block = view.adjacency();
        weights.clear();
        weights.extend((0..n as u32).map(|u| {
            let inputs: f64 = block.in_edges(u).map(|(_, volume)| volume).sum();
            let outputs: f64 = block.out_edges(u).map(|(_, volume)| volume).sum();
            inputs + outputs + block.memory(u)
        }));
        scratch.chunk_and_refine(view, weights, 2, cfg);
        part.extend_from_slice(&scratch.assignment);
    })
}

#[cfg(test)]
mod proptests;
#[cfg(test)]
mod reference_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use dhp_dag::builder;
    use dhp_dag::quotient::is_acyclic_partition;

    #[test]
    fn partitions_are_acyclic_and_cover() {
        for seed in 0..5 {
            let g = builder::gnp_dag_weighted(120, 0.05, seed);
            for k in [2usize, 4, 8] {
                let p = partition(&g, k, &PartitionConfig::default());
                assert!(p.validate(&g));
                assert_eq!(p.num_blocks(), k);
                assert!(is_acyclic_partition(&g, &p), "seed {seed} k {k}");
            }
        }
    }

    #[test]
    fn single_part_is_trivial() {
        let g = builder::chain(10, 1.0, 1.0, 1.0);
        let p = partition(&g, 1, &PartitionConfig::default());
        assert_eq!(p.num_blocks(), 1);
    }

    #[test]
    fn k_larger_than_n_clamps() {
        let g = builder::chain(3, 1.0, 1.0, 1.0);
        let p = partition(&g, 10, &PartitionConfig::default());
        assert_eq!(p.num_blocks(), 3);
    }

    #[test]
    fn bisect_returns_two_parts() {
        let g = builder::gnp_dag_weighted(60, 0.1, 3);
        let p = bisect(&g, &PartitionConfig::default());
        assert_eq!(p.num_blocks(), 2);
        assert!(is_acyclic_partition(&g, &p));
    }

    #[test]
    fn balance_is_respected_on_uniform_graphs() {
        let g = builder::layered_random(10, 10, 0.2, (1.0, 1.0), (1.0, 1.0), (1.0, 1.0), 5);
        let k = 4;
        let p = partition(&g, k, &PartitionConfig::default());
        let total = g.total_work();
        let cap = (1.0 + 0.10) * total / k as f64 + 1.0; // +1 task granularity
        for members in p.members() {
            let w: f64 = members.iter().map(|&u| g.node(u).work).sum();
            assert!(w <= cap, "part weight {w} exceeds {cap}");
        }
    }

    #[test]
    fn refinement_improves_or_keeps_cut() {
        use dhp_dag::quotient::{Partition as P, QuotientGraph};
        for seed in 0..5 {
            let g = builder::gnp_dag_weighted(100, 0.08, seed);
            let weights: Vec<f64> = g.node_ids().map(|u| g.node(u).work).collect();
            let initial = initial::topo_chunks(&g, &weights, 4);
            let init_cut = QuotientGraph::build(&g, &P::from_raw(&initial)).edge_cut();
            let refined = partition(&g, 4, &PartitionConfig::default());
            let ref_cut = QuotientGraph::build(&g, &refined).edge_cut();
            assert!(
                ref_cut <= init_cut + 1e-9,
                "refined cut {ref_cut} worse than initial {init_cut}"
            );
        }
    }

    #[test]
    fn deterministic() {
        let g = builder::gnp_dag_weighted(80, 0.08, 9);
        let a = partition(&g, 5, &PartitionConfig::default());
        let b = partition(&g, 5, &PartitionConfig::default());
        assert_eq!(a, b);
    }
}
