//! Exact minimum peak memory by dynamic programming over subsets.
//!
//! The resident internal memory after executing a set `S` of tasks is a
//! function of `S` alone (the volumes of edges leaving `S`), so the
//! minimum reachable peak satisfies a Bellman recursion over the subset
//! lattice:
//!
//! ```text
//! dp[S ∪ {u}] = min(dp[S ∪ {u}], max(dp[S], live(S) + m_u + out(u) + ext(u)))
//! ```
//!
//! for every `u` whose parents all lie in `S`. This gives ground truth
//! for graphs up to ~20 tasks in `O(2ⁿ·n)` — exponentially better than
//! the factorial `brute_force_min`, and the referee used by the property
//! tests to certify `best_traversal`'s quality on *general* DAGs (the
//! Kayaaslan-style traversal is provably optimal only on series-parallel
//! graphs).

use dhp_dag::Dag;

/// Maximum node count accepted by [`dp_min_peak`] (2²⁰ states ≈ 8 MB).
pub const DP_MAX_NODES: usize = 20;

/// Exact minimum peak over all topological orders, by subset DP.
///
/// `ext[u]` is the transient external load charged while `u` runs (0 for
/// whole-graph evaluations; boundary file volumes for block
/// evaluations — the same convention as
/// [`traversal_peak`](crate::liveness::traversal_peak)).
///
/// # Panics
/// Panics if the graph has more than [`DP_MAX_NODES`] nodes or is cyclic.
pub fn dp_min_peak(g: &Dag, ext: &[f64]) -> f64 {
    let n = g.node_count();
    assert!(
        n <= DP_MAX_NODES,
        "subset DP limited to {DP_MAX_NODES} nodes"
    );
    assert_eq!(ext.len(), n);
    if n == 0 {
        return 0.0;
    }
    assert!(g.check_acyclic().is_ok(), "dp_min_peak needs a DAG");

    // Per-node static quantities.
    let cost: Vec<f64> = g
        .node_ids()
        .map(|u| {
            let outputs: f64 = g.out_edges(u).iter().map(|&e| g.edge(e).volume).sum();
            g.node(u).memory + outputs + ext[u.idx()]
        })
        .collect();
    let out_vol: Vec<f64> = g
        .node_ids()
        .map(|u| g.out_edges(u).iter().map(|&e| g.edge(e).volume).sum())
        .collect();
    let in_vol: Vec<f64> = g
        .node_ids()
        .map(|u| g.in_edges(u).iter().map(|&e| g.edge(e).volume).sum())
        .collect();
    let parent_mask: Vec<u32> = g
        .node_ids()
        .map(|u| g.parents(u).fold(0u32, |m, p| m | 1 << p.idx()))
        .collect();

    let full = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
    let mut dp = vec![f64::INFINITY; full as usize + 1];
    // live(S) depends only on S (volumes of edges leaving S), so it is
    // filled on first discovery and never changes afterwards.
    let mut live = vec![f64::NAN; full as usize + 1];
    dp[0] = 0.0;
    live[0] = 0.0;
    for mask in 0..=full {
        if dp[mask as usize].is_infinite() {
            continue;
        }
        let ready = !mask & full;
        let mut rest = ready;
        while rest != 0 {
            let i = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            if parent_mask[i] & mask != parent_mask[i] {
                continue; // a parent is missing
            }
            let next = (mask | (1 << i)) as usize;
            if live[next].is_nan() {
                live[next] = live[mask as usize] + out_vol[i] - in_vol[i];
            }
            let reached = dp[mask as usize].max(live[mask as usize] + cost[i]);
            if reached < dp[next] {
                dp[next] = reached;
            }
        }
    }
    dp[full as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::liveness::brute_force_min;
    use dhp_dag::builder;
    use dhp_dag::NodeId as N;

    #[test]
    fn matches_brute_force_on_random_graphs() {
        for seed in 0..20u64 {
            let g = builder::gnp_dag_weighted(8, 0.3, seed);
            let ext = vec![0.0; 8];
            let dp = dp_min_peak(&g, &ext);
            let bf = brute_force_min(&g, &ext);
            assert!(
                (dp - bf).abs() < 1e-9 * bf.max(1.0),
                "seed {seed}: dp {dp} != brute force {bf}"
            );
        }
    }

    #[test]
    fn matches_brute_force_with_external_load() {
        for seed in 0..10u64 {
            let g = builder::gnp_dag_weighted(7, 0.35, seed);
            let ext: Vec<f64> = (0..7).map(|i| (i % 3) as f64 * 2.0).collect();
            assert!((dp_min_peak(&g, &ext) - brute_force_min(&g, &ext)).abs() < 1e-9);
        }
    }

    #[test]
    fn chain_peak_is_max_task_requirement() {
        // On a chain there is only one order; the optimum equals the
        // hottest task's requirement.
        let g = builder::chain(12, 1.0, 4.0, 2.0);
        let want = g
            .node_ids()
            .map(|u| g.task_requirement(u))
            .fold(0.0f64, f64::max);
        assert_eq!(dp_min_peak(&g, &vec![0.0; g.node_count()]), want);
    }

    #[test]
    fn fork_join_order_matters() {
        // source -> {a: heavy output, b: light} -> sink. Executing the
        // light branch first lets the heavy output be consumed sooner.
        let mut g = dhp_dag::Dag::new();
        let s = g.add_node(1.0, 0.0);
        let a = g.add_node(1.0, 0.0);
        let b = g.add_node(1.0, 0.0);
        let t = g.add_node(1.0, 0.0);
        g.add_edge(s, a, 1.0);
        g.add_edge(s, b, 1.0);
        g.add_edge(a, t, 10.0); // heavy intermediate
        g.add_edge(b, t, 1.0);
        let opt = dp_min_peak(&g, &vec![0.0; g.node_count()]);
        // worst order: a then b holds 10 + (b running: 2 live +1 out) ...
        // optimum: 12 (execute a, while its 10-file is live run b: 10+1+1)
        // any order: t needs 11 inputs at once anyway: 11; a's execution:
        // 2 live (s outputs) - 1 consumed + 10 out = 11; so opt = 12.
        let worst = crate::liveness::traversal_peak(&g, &[0.0; 4], &[s, a, b, t]);
        assert!(opt <= worst + 1e-12);
        assert!(opt >= 11.0 - 1e-12);
    }

    #[test]
    fn best_traversal_upper_bounds_dp_and_is_often_tight() {
        let mut tight = 0usize;
        let total = 15usize;
        for seed in 0..total as u64 {
            let g = builder::gnp_dag_weighted(10, 0.25, seed);
            let ext = vec![0.0; 10];
            let heuristic = crate::best_traversal(&g, &ext).peak;
            let opt = dp_min_peak(&g, &ext);
            assert!(
                heuristic >= opt - 1e-9 * opt.max(1.0),
                "seed {seed}: heuristic below optimum?!"
            );
            if heuristic <= opt * 1.000001 {
                tight += 1;
            }
        }
        // The traversal engine is a heuristic on general DAGs, but it
        // should hit the optimum on a solid fraction of small instances.
        assert!(tight >= total / 3, "only {tight}/{total} optimal");
    }

    #[test]
    fn empty_and_single() {
        let g = dhp_dag::Dag::new();
        assert_eq!(dp_min_peak(&g, &vec![0.0; g.node_count()]), 0.0);
        let mut g = dhp_dag::Dag::new();
        g.add_node(1.0, 7.0);
        assert_eq!(dp_min_peak(&g, &vec![0.0; g.node_count()]), 7.0);
    }

    #[test]
    #[should_panic(expected = "limited")]
    fn too_large_is_rejected() {
        let g = builder::chain(21, 1.0, 1.0, 1.0);
        dp_min_peak(&g, &vec![0.0; g.node_count()]);
    }

    #[test]
    fn disconnected_components_interleave_optimally() {
        // Two independent 2-chains with big intermediate files: the DP
        // may interleave components; peak = max single-component peak,
        // not the sum.
        let mut g = dhp_dag::Dag::new();
        let a1 = g.add_node(1.0, 0.0);
        let a2 = g.add_node(1.0, 0.0);
        let b1 = g.add_node(1.0, 0.0);
        let b2 = g.add_node(1.0, 0.0);
        g.add_edge(a1, a2, 5.0);
        g.add_edge(b1, b2, 5.0);
        let opt = dp_min_peak(&g, &vec![0.0; g.node_count()]);
        assert_eq!(opt, 5.0, "finish one chain before starting the other");
        let _ = (N(0), N(1)); // silence potential unused-import pedantry
    }
}
