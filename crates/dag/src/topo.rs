//! Topological orders and levels.

use crate::graph::{Dag, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Kahn's algorithm over any graph whose nodes are `0..indeg.len()`:
/// `indeg[u]` holds the in-degree of `u` (counting parallel edges) and
/// `children(u)` enumerates the targets of its out-edges. Among ready
/// nodes the smallest id is emitted first, so the order is
/// deterministic whatever order `children` yields.
///
/// `ready` is scratch: emptied on entry and left empty. Returns the
/// number of nodes emitted, which is `indeg.len()` iff the graph is
/// acyclic. The one implementation behind [`topo_sort`] and the
/// topological order of a [`crate::view::BlockView`].
pub fn kahn_min_id<I: Iterator<Item = u32>>(
    indeg: &mut [u32],
    ready: &mut BinaryHeap<Reverse<u32>>,
    children: impl Fn(u32) -> I,
    mut emit: impl FnMut(u32),
) -> usize {
    ready.clear();
    ready.extend(
        (0..indeg.len() as u32)
            .filter(|&u| indeg[u as usize] == 0)
            .map(Reverse),
    );
    let mut emitted = 0;
    while let Some(Reverse(u)) = ready.pop() {
        emit(u);
        emitted += 1;
        for v in children(u) {
            indeg[v as usize] -= 1;
            if indeg[v as usize] == 0 {
                ready.push(Reverse(v));
            }
        }
    }
    emitted
}

/// Computes a topological order with Kahn's algorithm.
///
/// Returns `None` if the graph contains a cycle. Among ready nodes, the
/// smallest id is emitted first, so the order is deterministic.
pub fn topo_sort(g: &Dag) -> Option<Vec<NodeId>> {
    let n = g.node_count();
    let mut indeg: Vec<u32> = g.node_ids().map(|u| g.in_degree(u) as u32).collect();
    let mut order = Vec::with_capacity(n);
    let emitted = kahn_min_id(
        &mut indeg,
        &mut BinaryHeap::new(),
        |u| g.children(NodeId(u)).map(|v| v.0),
        |u| order.push(NodeId(u)),
    );
    (emitted == n).then_some(order)
}

/// Checks that `order` is a topological order of `g` covering every node
/// exactly once.
pub fn is_topological_order(g: &Dag, order: &[NodeId]) -> bool {
    if order.len() != g.node_count() {
        return false;
    }
    let mut position = vec![usize::MAX; g.node_count()];
    for (i, &u) in order.iter().enumerate() {
        if position[u.idx()] != usize::MAX {
            return false; // duplicate
        }
        position[u.idx()] = i;
    }
    g.edge_ids().all(|e| {
        let ed = g.edge(e);
        position[ed.src.idx()] < position[ed.dst.idx()]
    })
}

/// Longest-path level of every node: sources have level 0, and
/// `level[v] = 1 + max(level of parents)`.
///
/// Returns `None` on cyclic input.
pub fn topo_levels(g: &Dag) -> Option<Vec<usize>> {
    let order = topo_sort(g)?;
    let mut level = vec![0usize; g.node_count()];
    for &u in &order {
        for v in g.children(u) {
            level[v.idx()] = level[v.idx()].max(level[u.idx()] + 1);
        }
    }
    Some(level)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Dag {
        let mut g = Dag::new();
        let a = g.add_node(1.0, 1.0);
        let b = g.add_node(1.0, 1.0);
        let c = g.add_node(1.0, 1.0);
        let d = g.add_node(1.0, 1.0);
        g.add_edge(a, b, 1.0);
        g.add_edge(a, c, 1.0);
        g.add_edge(b, d, 1.0);
        g.add_edge(c, d, 1.0);
        g
    }

    #[test]
    fn sorts_diamond() {
        let g = diamond();
        let order = topo_sort(&g).unwrap();
        assert!(is_topological_order(&g, &order));
        assert_eq!(order[0], NodeId(0));
        assert_eq!(order[3], NodeId(3));
    }

    #[test]
    fn deterministic_ready_order() {
        // Two independent chains; smallest ids first.
        let mut g = Dag::new();
        let a = g.add_node(1.0, 1.0);
        let b = g.add_node(1.0, 1.0);
        let c = g.add_node(1.0, 1.0);
        g.add_edge(a, c, 1.0);
        let order = topo_sort(&g).unwrap();
        assert_eq!(order, vec![a, b, c]);
    }

    #[test]
    fn rejects_nontopological_orders() {
        let g = diamond();
        assert!(!is_topological_order(
            &g,
            &[NodeId(3), NodeId(1), NodeId(2), NodeId(0)]
        ));
        assert!(!is_topological_order(&g, &[NodeId(0), NodeId(1)]));
        assert!(!is_topological_order(
            &g,
            &[NodeId(0), NodeId(0), NodeId(1), NodeId(2)]
        ));
    }

    #[test]
    fn levels() {
        let g = diamond();
        assert_eq!(topo_levels(&g).unwrap(), vec![0, 1, 1, 2]);
    }

    #[test]
    fn cycle_returns_none() {
        let mut g = Dag::new();
        let a = g.add_node(1.0, 1.0);
        let b = g.add_node(1.0, 1.0);
        g.add_edge(a, b, 1.0);
        g.add_edge(b, a, 1.0);
        assert!(topo_sort(&g).is_none());
        assert!(topo_levels(&g).is_none());
    }
}
