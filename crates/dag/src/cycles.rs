//! Cycle detection and extraction.
//!
//! Step 3 of the DagHetPart heuristic merges quotient-graph vertices and
//! must (a) detect whether a merge created a cycle and (b) if the cycle
//! has length 2, identify the third vertex to merge (paper Fig. 2). These
//! routines provide exactly that.

use crate::graph::{Dag, NodeId};

/// True if the graph contains a directed cycle.
pub fn is_cyclic(g: &Dag) -> bool {
    crate::topo::topo_sort(g).is_none()
}

/// Finds a directed cycle and returns it as a node sequence
/// `v0 -> v1 -> ... -> v0` (the closing edge is implicit), or `None` for
/// acyclic input.
///
/// Uses an iterative DFS with colouring; the returned cycle is the first
/// back-edge cycle found from the smallest-id root, so results are
/// deterministic.
pub fn find_cycle(g: &Dag) -> Option<Vec<NodeId>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let n = g.node_count();
    let mut color = vec![Color::White; n];
    let mut parent = vec![NodeId(u32::MAX); n];

    for root in g.node_ids() {
        if color[root.idx()] != Color::White {
            continue;
        }
        // Stack frames: (node, next child index)
        let mut stack: Vec<(NodeId, usize)> = vec![(root, 0)];
        color[root.idx()] = Color::Grey;
        while let Some(&mut (u, ref mut ci)) = stack.last_mut() {
            let out = g.out_edges(u);
            if *ci < out.len() {
                let v = g.edge(out[*ci]).dst;
                *ci += 1;
                match color[v.idx()] {
                    Color::White => {
                        parent[v.idx()] = u;
                        color[v.idx()] = Color::Grey;
                        stack.push((v, 0));
                    }
                    Color::Grey => {
                        // Back edge u -> v: reconstruct v -> ... -> u.
                        let mut cycle = vec![v];
                        let mut cur = u;
                        while cur != v {
                            cycle.push(cur);
                            cur = parent[cur.idx()];
                        }
                        // `cycle` currently holds v, u, pred(u), ..., succ(v);
                        // reverse the tail so edges run forward.
                        cycle[1..].reverse();
                        return Some(cycle);
                    }
                    Color::Black => {}
                }
            } else {
                color[u.idx()] = Color::Black;
                stack.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acyclic_has_no_cycle() {
        let mut g = Dag::new();
        let a = g.add_node(1.0, 1.0);
        let b = g.add_node(1.0, 1.0);
        g.add_edge(a, b, 1.0);
        assert!(!is_cyclic(&g));
        assert!(find_cycle(&g).is_none());
    }

    #[test]
    fn two_cycle_found() {
        let mut g = Dag::new();
        let a = g.add_node(1.0, 1.0);
        let b = g.add_node(1.0, 1.0);
        g.add_edge(a, b, 1.0);
        g.add_edge(b, a, 1.0);
        assert!(is_cyclic(&g));
        let c = find_cycle(&g).unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn cycle_edges_are_real() {
        // 0->1->2->3->1 : cycle 1,2,3
        let mut g = Dag::new();
        let n: Vec<_> = (0..4).map(|_| g.add_node(1.0, 1.0)).collect();
        g.add_edge(n[0], n[1], 1.0);
        g.add_edge(n[1], n[2], 1.0);
        g.add_edge(n[2], n[3], 1.0);
        g.add_edge(n[3], n[1], 1.0);
        let c = find_cycle(&g).unwrap();
        assert_eq!(c.len(), 3);
        // every consecutive pair (wrapping) must be an edge
        for i in 0..c.len() {
            let u = c[i];
            let v = c[(i + 1) % c.len()];
            assert!(
                g.edge_between(u, v).is_some(),
                "missing edge {u:?}->{v:?} in cycle {c:?}"
            );
        }
    }
}
