//! Exact liveness-based evaluation of a traversal's peak memory, plus a
//! brute-force optimum for validation on small graphs.

use dhp_dag::{BlockView, Dag, NodeId};

/// Exact peak memory of executing `order` (a topological order of all of
/// `g`'s tasks) under the block memory model (see crate docs).
///
/// Runs in O(V + E).
///
/// # Panics
/// Panics (in debug builds) if `order` is not a permutation of the nodes;
/// results are meaningless for non-topological orders, which callers must
/// exclude.
pub fn traversal_peak(g: &Dag, ext: &[f64], order: &[NodeId]) -> f64 {
    debug_assert_eq!(order.len(), g.node_count());
    debug_assert!(dhp_dag::topo::is_topological_order(g, order));
    let ws = &mut crate::workspace::Workspace::default();
    ws.load_graph(g, ext);
    peak_of(&ws.view, order.iter().map(|u| u.0))
}

/// Peak of executing all of `view`'s tasks in `order` (local ids): the
/// one evaluation behind [`traversal_peak`] and every strategy of
/// [`crate::best_traversal`].
pub(crate) fn peak_of(view: &BlockView, order: impl IntoIterator<Item = u32>) -> f64 {
    let mut live = 0.0f64; // resident internal files
    let mut peak = 0.0f64;
    for u in order {
        // Outputs of u are written while u runs; inputs of u are already
        // counted in `live` (produced earlier), external load is transient.
        let (outputs, inputs) = (view.out_sum(u), view.in_sum(u));
        let current = live + view.memory(u) + outputs + view.ext(u);
        peak = peak.max(current);
        live += outputs - inputs;
    }
    // An infinite or NaN volume leaves `live` at `inf - inf` = NaN: the
    // residual says nothing then.
    debug_assert!(
        {
            let volume = view.total_volume();
            !volume.is_finite() || live.abs() < 1e-6 * (1.0 + volume)
        },
        "all internal files must be consumed, residual {live}"
    );
    peak
}

/// Exhaustive minimum peak over *all* topological orders. Exponential —
/// only for validation on graphs with ≲ 9 nodes.
pub fn brute_force_min(g: &Dag, ext: &[f64]) -> f64 {
    let n = g.node_count();
    assert!(n <= 12, "brute force limited to tiny graphs");
    if n == 0 {
        return 0.0;
    }
    let mut indeg: Vec<usize> = g.node_ids().map(|u| g.in_degree(u)).collect();
    let mut executed = vec![false; n];
    let mut best = f64::INFINITY;

    #[allow(clippy::too_many_arguments)]
    fn rec(
        g: &Dag,
        ext: &[f64],
        indeg: &mut [usize],
        executed: &mut [bool],
        live: f64,
        peak: f64,
        left: usize,
        best: &mut f64,
    ) {
        if left == 0 {
            *best = (*best).min(peak);
            return;
        }
        if peak >= *best {
            return; // prune
        }
        for u in g.node_ids() {
            if executed[u.idx()] || indeg[u.idx()] != 0 {
                continue;
            }
            let outputs: f64 = g.out_edges(u).iter().map(|&e| g.edge(e).volume).sum();
            let inputs: f64 = g.in_edges(u).iter().map(|&e| g.edge(e).volume).sum();
            let current = live + g.node(u).memory + outputs + ext[u.idx()];
            let new_peak = peak.max(current);
            executed[u.idx()] = true;
            for v in g.children(u) {
                indeg[v.idx()] -= 1;
            }
            rec(
                g,
                ext,
                indeg,
                executed,
                live + outputs - inputs,
                new_peak,
                left - 1,
                best,
            );
            for v in g.children(u) {
                indeg[v.idx()] += 1;
            }
            executed[u.idx()] = false;
        }
    }

    rec(g, ext, &mut indeg, &mut executed, 0.0, 0.0, n, &mut best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhp_dag::builder;

    #[test]
    fn singleton_matches_task_requirement() {
        let mut g = Dag::new();
        let a = g.add_node(1.0, 5.0);
        let b = g.add_node(1.0, 7.0);
        g.add_edge(a, b, 3.0);
        let p = traversal_peak(&g, &[0.0, 0.0], &[a, b]);
        // a: 5 + 3(out) = 8 ; b: 3(live in) + 7 = 10
        assert_eq!(p, 10.0);
    }

    #[test]
    fn fork_join_order_matters() {
        // s -> a (big file), s -> b, a -> t, b -> t
        let mut g = Dag::new();
        let s = g.add_node(0.0, 1.0);
        let a = g.add_node(0.0, 1.0);
        let b = g.add_node(0.0, 10.0);
        let t = g.add_node(0.0, 1.0);
        g.add_edge(s, a, 8.0);
        g.add_edge(s, b, 1.0);
        g.add_edge(a, t, 1.0);
        g.add_edge(b, t, 1.0);
        let ext = vec![0.0; 4];
        // order s,a,b,t: s: 1+9=10; a: live 9, mem 9+1+1=11? live after s =9;
        // a: 9 + 1 + 1(out) = 11; after a live=9-8+1=2; b: 2+10+1=13; t: ...
        let p1 = traversal_peak(&g, &ext, &[s, a, b, t]);
        let p2 = traversal_peak(&g, &ext, &[s, b, a, t]);
        // order s,b,a,t: b: 9+10+1=20 (file to a still live) -> worse
        assert!(p1 < p2, "{p1} vs {p2}");
        assert_eq!(brute_force_min(&g, &ext), p1);
    }

    #[test]
    fn brute_force_on_chain_is_max_requirement() {
        let g = builder::chain(5, 1.0, 4.0, 2.0);
        let ext = vec![0.0; 5];
        assert_eq!(brute_force_min(&g, &ext), 8.0); // 2+2+4
    }

    #[test]
    fn ext_is_transient() {
        let mut g = Dag::new();
        let a = g.add_node(0.0, 1.0);
        let b = g.add_node(0.0, 1.0);
        g.add_edge(a, b, 1.0);
        // huge ext on a, none on b
        let p = traversal_peak(&g, &[100.0, 0.0], &[a, b]);
        assert_eq!(p, 102.0); // a: 1 + 1 + 100
    }

    #[test]
    fn brute_force_never_exceeds_any_topo_order() {
        for seed in 0..8 {
            let g = builder::gnp_dag_weighted(7, 0.3, seed);
            let ext = vec![0.0; 7];
            let topo = dhp_dag::topo::topo_sort(&g).unwrap();
            let tp = traversal_peak(&g, &ext, &topo);
            assert!(brute_force_min(&g, &ext) <= tp + 1e-9);
        }
    }
}
