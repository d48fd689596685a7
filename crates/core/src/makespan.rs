//! Makespan computation via bottom weights on the quotient graph
//! (paper §3.3, Eq. (1)–(2)).
//!
//! Every makespan here is one [`FlatQuotient`] built from a partition
//! and one pass over it (`dhp_dag::quotient`); what this module adds is
//! the speed of every quotient node — its block's processor's, 1.0
//! while unassigned (the paper's *estimated* makespan).

use crate::blocks::BlockSet;
use crate::mapping::Mapping;
use dhp_dag::quotient::CoalesceScratch;
use dhp_dag::{Dag, FlatQuotient};
use dhp_platform::Cluster;

/// The quotient of `mapping`'s partition over `g`, every node at its
/// processor's speed (1.0 while unassigned).
fn mapping_quotient(g: &Dag, cluster: &Cluster, mapping: &Mapping) -> FlatQuotient {
    let mut q = FlatQuotient::build(g, &mapping.partition);
    for (speed, proc) in q.speed.iter_mut().zip(&mapping.proc_of_block) {
        *speed = proc.map_or(1.0, |p| cluster.speed(p));
    }
    q
}

/// The quotient of `bs` over `g` under the speeds of its assignments,
/// plus the quotient node of every block index. Nodes are numbered as
/// [`BlockSet::to_mapping`] numbers blocks: by first appearance over
/// task ids.
pub(crate) fn quotient_of_blocks(
    g: &Dag,
    bs: &BlockSet,
    cluster: &Cluster,
) -> (FlatQuotient, Vec<u32>) {
    let (mut q, mut node_of_block) = (FlatQuotient::default(), Vec::new());
    quotient_of_blocks_into(
        g,
        bs,
        cluster,
        &mut q,
        &mut node_of_block,
        &mut QuotientScratch::default(),
    );
    (q, node_of_block)
}

/// What [`quotient_of_blocks_into`] reuses from one quotient to the
/// next.
#[derive(Debug, Default)]
pub(crate) struct QuotientScratch {
    /// The quotient node of every task.
    node_of_task: Vec<u32>,
    coalesce: CoalesceScratch,
}

/// [`quotient_of_blocks`] into `q` and `node_of_block`, on `scratch`,
/// without building the mapping: a block's first appearance over task
/// ids is its smallest member's, so the nodes are numbered in the order
/// of that.
pub(crate) fn quotient_of_blocks_into(
    g: &Dag,
    bs: &BlockSet,
    cluster: &Cluster,
    q: &mut FlatQuotient,
    node_of_block: &mut Vec<u32>,
    scratch: &mut QuotientScratch,
) {
    let node_of_task = &mut scratch.node_of_task;
    node_of_task.clear();
    node_of_task.resize(g.node_count(), u32::MAX);
    for (b, block) in bs.iter().enumerate() {
        for &u in &block.members {
            node_of_task[u.idx()] = b as u32;
        }
    }
    node_of_block.clear();
    node_of_block.resize(bs.len(), u32::MAX);
    let mut nodes = 0;
    for slot in node_of_task.iter_mut() {
        let node = &mut node_of_block[*slot as usize];
        if *node == u32::MAX {
            *node = nodes;
            nodes += 1;
        }
        *slot = *node;
    }
    q.rebuild(g, node_of_task, bs.len(), &mut scratch.coalesce);
    for (block, &node) in bs.iter().zip(node_of_block.iter()) {
        q.speed[node as usize] = block.proc.map_or(1.0, |p| cluster.speed(p));
    }
}

/// (Estimated) makespan of a block set: `f64::INFINITY` when its
/// quotient is cyclic, `0.0` for an empty graph. A single unpartitioned
/// block has no communication, matching the paper's `μ_G = Σ w_v / s_j`.
pub fn blockset_makespan(g: &Dag, bs: &BlockSet, cluster: &Cluster) -> f64 {
    quotient_of_blocks(g, bs, cluster)
        .0
        .makespan(cluster.bandwidth)
}

/// Makespan of a finished [`Mapping`], likewise.
pub fn makespan_of_mapping(g: &Dag, cluster: &Cluster, mapping: &Mapping) -> f64 {
    mapping_quotient(g, cluster, mapping).makespan(cluster.bandwidth)
}

/// The makespan of a quotient `q` whose node `i` runs at `speeds[i]`,
/// as the topological sort and `dhp_dag::critical::bottom_weights` over
/// a `Dag` give it: the path every makespan took before the one pass,
/// kept as the reference the tests hold that pass's callers to.
#[cfg(test)]
pub(crate) fn quotient_makespan(q: &Dag, speeds: &[f64], bandwidth: f64) -> f64 {
    debug_assert_eq!(speeds.len(), q.node_count());
    if q.is_empty() {
        return 0.0;
    }
    match dhp_dag::critical::bottom_weights(
        q,
        |u| q.node(u).work / speeds[u.idx()],
        |e| q.edge(e).volume / bandwidth,
    ) {
        Some(b) => b.into_iter().fold(0.0, f64::max),
        None => f64::INFINITY,
    }
}

/// `q` as a [`FlatQuotient`], every speed 1.0: the quotient of its
/// partition into singletons, which keeps every node and every edge of
/// a graph without parallel edges (as a quotient has none).
#[cfg(test)]
pub(crate) fn flat_of(q: &Dag) -> FlatQuotient {
    let singletons: Vec<u32> = (0..q.node_count() as u32).collect();
    FlatQuotient::build(q, &dhp_dag::Partition::from_raw(&singletons))
}

/// The critical path of `q` under `speeds`, or `None` when it is cyclic
/// or empty, as `dhp_dag::critical::bottom_weights` over a `Dag` and a
/// walk of its own give it: the reference the tests hold
/// `PassScratch::critical_path`'s callers to. Starts at the smallest
/// node id of maximal bottom weight and follows, at each step, the
/// smallest child id that realises it up to a relative `1e-9`.
#[cfg(test)]
pub(crate) fn quotient_critical_path(
    q: &Dag,
    speeds: &[f64],
    bandwidth: f64,
) -> Option<Vec<dhp_dag::NodeId>> {
    use dhp_dag::NodeId;
    let node_cost = |u: NodeId| q.node(u).work / speeds[u.idx()];
    let edge_cost = |e| q.edge(e).volume / bandwidth;
    let bottom = dhp_dag::critical::bottom_weights(q, node_cost, edge_cost)?;
    let mut cur = q.node_ids().next()?;
    for u in q.node_ids() {
        if bottom[u.idx()] > bottom[cur.idx()] {
            cur = u;
        }
    }
    let mut path = vec![cur];
    loop {
        let residual = bottom[cur.idx()] - node_cost(cur);
        let next = q
            .out_edges(cur)
            .iter()
            .map(|&e| (q.edge(e).dst, edge_cost(e)))
            .filter(|&(v, cost)| {
                (cost + bottom[v.idx()] - residual).abs() <= 1e-9 * residual.abs().max(1.0)
            })
            .map(|(v, _)| v)
            .min();
        match next {
            Some(v) => {
                path.push(v);
                cur = v;
            }
            None => return Some(path),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhp_dag::{builder, Partition, QuotientGraph};
    use dhp_platform::{ProcId, Processor};
    use proptest::prelude::*;

    /// Paper Fig. 1 quotient with unit speeds: makespan 12.
    #[test]
    fn paper_example_makespan() {
        let mut q = Dag::new();
        let v1 = q.add_node(4.0, 0.0);
        let v2 = q.add_node(1.0, 0.0);
        let v3 = q.add_node(3.0, 0.0);
        let v4 = q.add_node(1.0, 0.0);
        q.add_edge(v1, v2, 1.0);
        q.add_edge(v1, v3, 2.0);
        q.add_edge(v2, v3, 1.0);
        q.add_edge(v2, v4, 1.0);
        q.add_edge(v3, v4, 1.0);
        assert_eq!(quotient_makespan(&q, &[1.0; 4], 1.0), 12.0);
        // Faster processor on the critical path reduces the makespan.
        assert!(quotient_makespan(&q, &[2.0, 1.0, 1.0, 1.0], 1.0) < 12.0);
        // Lower bandwidth increases it.
        assert!(quotient_makespan(&q, &[1.0; 4], 0.5) > 12.0);
        let cp = quotient_critical_path(&q, &[1.0; 4], 1.0).unwrap();
        assert_eq!(cp, vec![v1, v2, v3, v4]);
    }

    #[test]
    fn cyclic_quotient_is_infinite() {
        let mut q = Dag::new();
        let a = q.add_node(1.0, 0.0);
        let b = q.add_node(1.0, 0.0);
        q.add_edge(a, b, 1.0);
        q.add_edge(b, a, 1.0);
        assert_eq!(quotient_makespan(&q, &[1.0, 1.0], 1.0), f64::INFINITY);
        assert!(quotient_critical_path(&q, &[1.0, 1.0], 1.0).is_none());
    }

    #[test]
    fn single_block_no_communication() {
        let g = dhp_dag::builder::chain(5, 10.0, 1.0, 100.0);
        let cluster = dhp_platform::Cluster::new(vec![Processor::new("p", 4.0, 100.0)], 1.0);
        let mapping = Mapping {
            partition: Partition::single_block(5),
            proc_of_block: vec![Some(ProcId(0))],
        };
        // Σw = 50, speed 4 -> 12.5 ; edges internal, no comm cost.
        assert_eq!(makespan_of_mapping(&g, &cluster, &mapping), 12.5);
    }

    #[test]
    fn unassigned_blocks_assume_unit_speed() {
        let g = dhp_dag::builder::chain(2, 6.0, 1.0, 2.0);
        let cluster = dhp_platform::Cluster::new(vec![Processor::new("p", 3.0, 100.0)], 2.0);
        let mapping = Mapping {
            partition: Partition::from_raw(&[0, 1]),
            proc_of_block: vec![Some(ProcId(0)), None],
        };
        // block0: 6/3 = 2 ; edge: 2/2 = 1 ; block1: 6/1 = 6 -> 9
        assert_eq!(makespan_of_mapping(&g, &cluster, &mapping), 9.0);
    }

    #[test]
    fn empty_graph_has_makespan_zero() {
        let g = Dag::new();
        let cluster = dhp_platform::Cluster::new(vec![Processor::new("p", 3.0, 100.0)], 2.0);
        let mapping = Mapping {
            partition: Partition::from_raw(&[]),
            proc_of_block: Vec::new(),
        };
        let zero = 0.0f64.to_bits();
        assert_eq!(makespan_of_mapping(&g, &cluster, &mapping).to_bits(), zero);
        let bs = BlockSet::from_partition(&g, &mapping.partition);
        assert_eq!(blockset_makespan(&g, &bs, &cluster).to_bits(), zero);
    }

    // ---- The `Dag` path the one pass replaced ----------------------

    /// `makespan_of_mapping` as it was: `QuotientGraph::build`, speeds
    /// by block, [`quotient_makespan`].
    fn reference_makespan_of_mapping(g: &Dag, cluster: &Cluster, mapping: &Mapping) -> f64 {
        let q = QuotientGraph::build(g, &mapping.partition);
        let speeds: Vec<f64> = mapping
            .proc_of_block
            .iter()
            .map(|p| p.map_or(1.0, |p| cluster.speed(p)))
            .collect();
        quotient_makespan(&q.graph, &speeds, cluster.bandwidth)
    }

    /// `blockset_makespan` as it was: the block set's partition, its
    /// quotient, each block's speed moved to the partition's numbering,
    /// [`quotient_makespan`].
    fn reference_blockset_makespan(g: &Dag, bs: &BlockSet, cluster: &Cluster) -> f64 {
        let partition = bs.to_mapping(g.node_count()).partition;
        let q = QuotientGraph::build(g, &partition);
        let mut speeds = vec![1.0f64; bs.len()];
        for block in bs.iter() {
            let dense = partition.block_of(block.members[0]);
            speeds[dense.idx()] = block.proc.map_or(1.0, |p| cluster.speed(p));
        }
        quotient_makespan(&q.graph, &speeds, cluster.bandwidth)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Both makespans equal the `Dag` path to the bit on block sets
        /// whose order is not first appearance (merges swap-remove),
        /// with unassigned blocks, zero and `-0.0` works and volumes,
        /// parallel crossing edges and cyclic quotients (`INFINITY`).
        #[test]
        fn makespans_equal_the_dag_path(
            n in 1usize..40,
            p in 0.05f64..0.6,
            seed in any::<u64>(),
            parts in 1u32..10,
            raw in collection::vec(any::<u32>(), 40),
            works in collection::vec(0u8..4, 40),
            volumes in collection::vec(0u8..4, 64),
            merges in collection::vec((any::<usize>(), any::<usize>()), 0..4),
            procs in collection::vec(0u32..6, 40),
        ) {
            let mut g = builder::gnp_dag_weighted(n, p, seed);
            let tweak = |v: f64, class: u8| match class {
                1 => 0.0,
                2 => -0.0,
                _ => v,
            };
            for (u, &class) in g.node_ids().collect::<Vec<_>>().into_iter().zip(&works) {
                g.node_mut(u).work = tweak(g.node(u).work, class);
            }
            let edges: Vec<_> = g.edge_ids().collect();
            for (i, &e) in edges.iter().enumerate() {
                g.edge_mut(e).volume = tweak(g.edge(e).volume, volumes[i % volumes.len()]);
                if i % 3 == 0 {
                    let (src, dst) = (g.edge(e).src, g.edge(e).dst);
                    g.add_edge(src, dst, tweak(1.5, volumes[(i + 1) % volumes.len()]));
                }
            }
            let raw: Vec<u32> = raw[..n].iter().map(|r| r % parts).collect();
            let mut bs = BlockSet::from_partition(&g, &Partition::from_raw(&raw));
            for &(i, j) in &merges {
                let (i, j) = (i % bs.len(), j % bs.len());
                if i != j {
                    bs.merge_blocks(&g, i, j, None, None);
                }
            }
            let cluster = Cluster::new(
                [1.0, 4.0, 8.0, 16.0]
                    .iter()
                    .map(|&s| Processor::new("p", s, 1.0))
                    .collect(),
                1.5,
            );
            for (b, &proc) in procs.iter().enumerate().take(bs.len()) {
                if (proc as usize) < cluster.len() {
                    bs.assign(b, ProcId(proc));
                }
            }
            prop_assert_eq!(
                blockset_makespan(&g, &bs, &cluster).to_bits(),
                reference_blockset_makespan(&g, &bs, &cluster).to_bits()
            );
            let mapping = bs.to_mapping(n);
            prop_assert_eq!(
                makespan_of_mapping(&g, &cluster, &mapping).to_bits(),
                reference_makespan_of_mapping(&g, &cluster, &mapping).to_bits()
            );
            // The node of every block carries that block's speed.
            let (q, node_of_block) = quotient_of_blocks(&g, &bs, &cluster);
            for (block, &node) in bs.iter().zip(&node_of_block) {
                let speed = block.proc.map_or(1.0, |p| cluster.speed(p));
                prop_assert_eq!(q.speed[node as usize], speed);
            }
        }
    }
}
