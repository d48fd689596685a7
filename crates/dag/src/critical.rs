//! Weighted longest ("critical") paths over a [`Dag`], generic over
//! cost closures.
//!
//! The makespan of a mapped quotient graph is the maximum *bottom weight*
//! (paper Eq. (1)–(2)), which is exactly a longest path where node costs
//! are `w_ν / s_ν` and edge costs are `c_{ν,ν'} / β`. Quotients are
//! answered by the passes of [`crate::quotient::PassScratch`]; what is
//! left here runs on any `Dag` — [`bottom_weights`] prices the task
//! graph itself for makespan lower bounds. The tests keep
//! `critical_path` as the reference those passes are held to.

use crate::graph::{Dag, NodeId};
use crate::topo::topo_sort;

/// Result of a critical-path computation.
#[cfg(test)]
#[derive(Clone, Debug, PartialEq)]
pub struct CriticalPath {
    /// Total cost (sum of node costs plus edge costs along the path).
    pub length: f64,
    /// The path itself, from its first node to its last.
    pub path: Vec<NodeId>,
}

/// Per-node longest-path-to-sink values ("bottom weights").
///
/// `bottom[u] = node_cost(u) + max over children v of
/// (edge_cost(u,v) + bottom[v])`, with the max taken as 0 for sinks.
///
/// Returns `None` on cyclic input.
pub fn bottom_weights<NC, EC>(g: &Dag, node_cost: NC, edge_cost: EC) -> Option<Vec<f64>>
where
    NC: Fn(NodeId) -> f64,
    EC: Fn(crate::graph::EdgeId) -> f64,
{
    let order = topo_sort(g)?;
    let mut bottom = vec![0.0f64; g.node_count()];
    for &u in order.iter().rev() {
        let mut tail: f64 = 0.0;
        for &e in g.out_edges(u) {
            let v = g.edge(e).dst;
            tail = tail.max(edge_cost(e) + bottom[v.idx()]);
        }
        bottom[u.idx()] = node_cost(u) + tail;
    }
    Some(bottom)
}

/// Computes the critical path (maximum bottom weight and the realising
/// path). Ties are broken deterministically towards smaller node ids.
///
/// Returns `None` on cyclic input or an empty graph.
#[cfg(test)]
pub fn critical_path<NC, EC>(g: &Dag, node_cost: NC, edge_cost: EC) -> Option<CriticalPath>
where
    NC: Fn(NodeId) -> f64,
    EC: Fn(crate::graph::EdgeId) -> f64,
{
    if g.is_empty() {
        return None;
    }
    let bottom = bottom_weights(g, &node_cost, &edge_cost)?;
    // Start at the node with the largest bottom weight.
    let mut start = NodeId(0);
    for u in g.node_ids() {
        if bottom[u.idx()] > bottom[start.idx()] {
            start = u;
        }
    }
    // Walk greedily along children realising the max.
    let mut path = vec![start];
    let mut cur = start;
    loop {
        if g.out_degree(cur) == 0 {
            break;
        }
        let residual = bottom[cur.idx()] - node_cost(cur);
        let mut next: Option<NodeId> = None;
        for &e in g.out_edges(cur) {
            let v = g.edge(e).dst;
            let via = edge_cost(e) + bottom[v.idx()];
            if (via - residual).abs() <= 1e-9 * residual.abs().max(1.0)
                && next.is_none_or(|n| v < n)
            {
                next = Some(v);
            }
        }
        match next {
            Some(v) => {
                path.push(v);
                cur = v;
            }
            None => break,
        }
    }
    Some(CriticalPath {
        length: bottom[start.idx()],
        path,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper example (Fig. 1 quotient graph): unit speeds/bandwidth.
    /// ν1(w=4) -> ν2(w=1) [c=1], ν1 -> ν3(w=3) [c=2],
    /// ν2 -> ν3 [c=1], ν2 -> ν4(w=1) [c=1], ν3 -> ν4 [c=1].
    fn paper_quotient() -> Dag {
        let mut g = Dag::new();
        let v1 = g.add_node(4.0, 0.0);
        let v2 = g.add_node(1.0, 0.0);
        let v3 = g.add_node(3.0, 0.0);
        let v4 = g.add_node(1.0, 0.0);
        g.add_edge(v1, v2, 1.0);
        g.add_edge(v1, v3, 2.0);
        g.add_edge(v2, v3, 1.0);
        g.add_edge(v2, v4, 1.0);
        g.add_edge(v3, v4, 1.0);
        g
    }

    #[test]
    fn paper_bottom_weights() {
        let g = paper_quotient();
        let b = bottom_weights(&g, |u| g.node(u).work, |e| g.edge(e).volume).unwrap();
        // Paper: l4=1, l3=5, l2=7, l1=12.
        assert_eq!(b, vec![12.0, 7.0, 5.0, 1.0]);
    }

    #[test]
    fn paper_critical_path() {
        let g = paper_quotient();
        let cp = critical_path(&g, |u| g.node(u).work, |e| g.edge(e).volume).unwrap();
        assert_eq!(cp.length, 12.0);
        assert_eq!(
            cp.path,
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
            "critical path follows v1 -> v2 -> v3 -> v4"
        );
    }

    #[test]
    fn single_node() {
        let mut g = Dag::new();
        g.add_node(5.0, 0.0);
        let cp = critical_path(&g, |u| g.node(u).work, |_| 0.0).unwrap();
        assert_eq!(cp.length, 5.0);
        assert_eq!(cp.path, vec![NodeId(0)]);
    }

    #[test]
    fn empty_graph_is_none() {
        let g = Dag::new();
        assert!(critical_path(&g, |_| 0.0, |_| 0.0).is_none());
    }

    #[test]
    fn path_is_a_real_path() {
        let g = paper_quotient();
        let cp = critical_path(&g, |u| g.node(u).work, |e| g.edge(e).volume).unwrap();
        for w in cp.path.windows(2) {
            assert!(g.edge_between(w[0], w[1]).is_some());
        }
        // Path cost equals stated length.
        let mut cost: f64 = cp.path.iter().map(|&u| g.node(u).work).sum();
        for w in cp.path.windows(2) {
            let e = g.edge_between(w[0], w[1]).unwrap();
            cost += g.edge(e).volume;
        }
        assert!((cost - cp.length).abs() < 1e-9);
    }
}
