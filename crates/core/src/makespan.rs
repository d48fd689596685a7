//! Makespan computation via bottom weights on the quotient graph
//! (paper §3.3, Eq. (1)–(2)).

use crate::blocks::BlockSet;
use crate::mapping::Mapping;
use dhp_dag::critical::{bottom_weights, critical_path};
use dhp_dag::{Dag, NodeId, QuotientGraph};
use dhp_platform::Cluster;

/// Makespan of a quotient graph whose block `i` runs at `speeds[i]`
/// (use 1.0 for unassigned blocks to obtain the paper's *estimated*
/// makespan), with communication divided by `bandwidth`.
///
/// Returns `f64::INFINITY` when the quotient graph is cyclic (no valid
/// orchestration exists) and `0.0` for an empty graph.
pub fn quotient_makespan(q: &Dag, speeds: &[f64], bandwidth: f64) -> f64 {
    debug_assert_eq!(speeds.len(), q.node_count());
    if q.is_empty() {
        return 0.0;
    }
    match bottom_weights(
        q,
        |u: NodeId| q.node(u).work / speeds[u.idx()],
        |e| q.edge(e).volume / bandwidth,
    ) {
        Some(b) => b.into_iter().fold(0.0, f64::max),
        None => f64::INFINITY,
    }
}

/// The critical path of a quotient graph under the same costs, or `None`
/// if cyclic/empty.
pub fn quotient_critical_path(q: &Dag, speeds: &[f64], bandwidth: f64) -> Option<Vec<NodeId>> {
    critical_path(
        q,
        |u: NodeId| q.node(u).work / speeds[u.idx()],
        |e| q.edge(e).volume / bandwidth,
    )
    .map(|cp| cp.path)
}

/// Speed of every block of `bs`: the assigned processor's speed, or 1.0.
pub fn block_speeds(bs: &BlockSet, cluster: &Cluster) -> Vec<f64> {
    bs.iter()
        .map(|b| b.proc.map_or(1.0, |p| cluster.speed(p)))
        .collect()
}

/// (Estimated) makespan of a block set: builds the quotient graph and
/// applies [`quotient_makespan`]. A single unpartitioned block has no
/// communication, matching the paper's `μ_G = Σ w_v / s_j`.
pub fn blockset_makespan(g: &Dag, bs: &BlockSet, cluster: &Cluster) -> f64 {
    let partition = bs.to_partition(g.node_count());
    let q = QuotientGraph::build(g, &partition);
    // `to_partition` renumbers by node order; rebuild speeds in that order.
    let mut speeds = vec![1.0f64; bs.len()];
    for block in bs.iter() {
        if let Some(&first) = block.members.first() {
            let dense = partition.block_of(first);
            speeds[dense.idx()] = block.proc.map_or(1.0, |p| cluster.speed(p));
        }
    }
    quotient_makespan(&q.graph, &speeds, cluster.bandwidth)
}

/// Makespan of a finished [`Mapping`].
pub fn makespan_of_mapping(g: &Dag, cluster: &Cluster, mapping: &Mapping) -> f64 {
    let q = QuotientGraph::build(g, &mapping.partition);
    let speeds: Vec<f64> = mapping
        .proc_of_block
        .iter()
        .map(|p| p.map_or(1.0, |p| cluster.speed(p)))
        .collect();
    quotient_makespan(&q.graph, &speeds, cluster.bandwidth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhp_dag::Partition;
    use dhp_platform::{ProcId, Processor};

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
}
