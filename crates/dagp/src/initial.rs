//! Initial partitioning: weight-balanced contiguous chunks of a
//! topological order.
//!
//! Contiguous chunks of a topological order always induce an acyclic
//! quotient graph (every edge goes from an earlier to a later position,
//! hence from a lower-numbered to a higher-or-equal-numbered part), so
//! this gives a feasible starting point with part ids that are
//! *topologically ordered* — the invariant the refinement step maintains.

use crate::coarsen::LevelView;
use dhp_dag::Dag;

/// Splits a topological order of `g` into `k` contiguous chunks of
/// roughly equal total `weight`. Returns the per-node part array with
/// parts numbered `0..k` in topological order; all `k` parts are
/// non-empty provided `g` has at least `k` nodes.
///
/// # Panics
/// Panics if `g` is cyclic.
pub fn topo_chunks(g: &Dag, weights: &[f64], k: usize) -> Vec<u32> {
    topo_chunks_on(&LevelView::of(g), weights, k)
}

/// [`topo_chunks`] on a graph's view, which holds its topological
/// order: what every part count of a sweep shares.
pub fn topo_chunks_on(view: &LevelView, weights: &[f64], k: usize) -> Vec<u32> {
    let order = view.order();
    let n = order.len();
    assert!(k >= 1 && k <= n);
    let total: f64 = weights.iter().sum();
    let target = total / k as f64;

    let mut part = vec![0u32; n];
    let mut cur = 0u32;
    let mut acc = 0.0f64;
    let mut count = 0usize; // nodes in the current part
    for (i, &u) in order.iter().enumerate() {
        let remaining_nodes = n - i;
        let unstarted_parts = k - 1 - cur as usize;
        // Force a cut when we must leave one node per unstarted part.
        let must_cut = remaining_nodes == unstarted_parts && count > 0;
        // Cut when the target is met (leaving room for remaining parts).
        let want_cut = acc >= target && count > 0 && cur + 1 < k as u32;
        if must_cut || want_cut {
            cur += 1;
            acc = 0.0;
            count = 0;
        }
        part[u as usize] = cur;
        acc += weights[u as usize];
        count += 1;
    }
    part
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhp_dag::builder;
    use dhp_dag::quotient::{is_acyclic_partition, Partition};
    use dhp_dag::NodeId;

    #[test]
    fn chunks_are_acyclic_and_nonempty() {
        for seed in 0..5 {
            let g = builder::gnp_dag_weighted(50, 0.1, seed);
            let weights: Vec<f64> = g.node_ids().map(|u| g.node(u).work).collect();
            for k in [1usize, 2, 5, 13, 50] {
                let raw = topo_chunks(&g, &weights, k);
                let p = Partition::from_raw(&raw);
                assert_eq!(p.num_blocks(), k, "k={k}");
                assert!(is_acyclic_partition(&g, &p));
            }
        }
    }

    #[test]
    fn part_ids_follow_topology() {
        let g = builder::gnp_dag(40, 0.2, 1);
        let raw = topo_chunks(&g, &vec![1.0; 40], 4);
        for e in g.edge_ids() {
            let ed = g.edge(e);
            assert!(raw[ed.src.idx()] <= raw[ed.dst.idx()]);
        }
    }

    #[test]
    fn balanced_on_uniform_chain() {
        let g = builder::chain(100, 1.0, 1.0, 1.0);
        let raw = topo_chunks(&g, &vec![1.0; 100], 4);
        let mut counts = [0usize; 4];
        for &p in &raw {
            counts[p as usize] += 1;
        }
        for c in counts {
            assert!((24..=26).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn heavy_head_does_not_starve_tail_parts() {
        // One huge task first, then tiny ones: every part must be nonempty.
        let mut g = builder::chain(10, 1.0, 1.0, 1.0);
        let first = NodeId(0);
        g.node_mut(first).work = 1000.0;
        let weights: Vec<f64> = g.node_ids().map(|u| g.node(u).work).collect();
        let raw = topo_chunks(&g, &weights, 8);
        let p = Partition::from_raw(&raw);
        assert_eq!(p.num_blocks(), 8);
    }
}
