//! Property-based validation of the traversal engine.

use crate::dpopt::dp_min_peak;
use crate::liveness::{brute_force_min, traversal_peak};
use crate::reference_tests as reference;
use crate::workspace::TALLY;
use crate::{
    best_traversal, block_bounds, block_peak, block_traversal, greedy, min_peak, spdecomp,
    sptraversal, PeakBounds,
};
use dhp_dag::builder;
use dhp_dag::topo::is_topological_order;
use dhp_dag::util::BitSet;
use dhp_dag::{Dag, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random out-tree on n nodes with random weights: node i>0 gets a parent
/// uniformly among 0..i.
fn random_out_tree(n: usize, seed: u64) -> Dag {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Dag::new();
    let ids: Vec<_> = (0..n)
        .map(|_| g.add_node(rng.random_range(1.0..10.0), rng.random_range(1.0..20.0)))
        .collect();
    for i in 1..n {
        let p = rng.random_range(0..i);
        g.add_edge(ids[p], ids[i], rng.random_range(1.0..15.0));
    }
    g
}

/// The shapes the kernel is held to the reference on: `0` a random
/// DAG with about a third of its edges doubled (later edge ids, other
/// volumes), `1` two random DAGs side by side, `2` the non-SP "N"
/// between a fork and a join with a random tail, `3` `source → c ×
/// (a → b) → sink` with `c ≥ 50` — a parallel stage of two-node
/// components.
fn shaped_dag(shape: usize, n: usize, seed: u64) -> Dag {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut weight = move |hi: f64| rng.random_range(0.5..hi);
    match shape {
        0 => {
            let mut g = builder::gnp_dag_weighted(n, 0.25, seed);
            for e in g.edge_ids().filter(|e| e.0 % 3 == 0).collect::<Vec<_>>() {
                let (src, dst) = (g.edge(e).src, g.edge(e).dst);
                g.add_edge(src, dst, weight(9.0));
            }
            g
        }
        1 => {
            let mut g = builder::gnp_dag_weighted(n, 0.3, seed);
            let other = builder::gnp_dag_weighted(n / 2 + 1, 0.4, seed.rotate_left(9));
            let shift = g.node_count() as u32;
            for u in other.node_ids() {
                g.add_node(other.node(u).work, other.node(u).memory);
            }
            for e in other.edge_ids().map(|e| other.edge(e)) {
                g.add_edge(NodeId(e.src.0 + shift), NodeId(e.dst.0 + shift), e.volume);
            }
            g
        }
        2 => {
            let mut g = Dag::new();
            let ids: Vec<NodeId> = (0..6 + n).map(|_| g.add_node(1.0, weight(20.0))).collect();
            let [s, s1, s2, t1, t2, t] = [0, 1, 2, 3, 4, 5].map(|i| ids[i]);
            for (u, v) in [
                (s, s1),
                (s, s2),
                (s1, t1),
                (s1, t2),
                (s2, t2),
                (t1, t),
                (t2, t),
            ] {
                g.add_edge(u, v, weight(15.0));
            }
            for i in 6..6 + n {
                g.add_edge(ids[5 + (i - 6) / 2], ids[i], weight(15.0));
            }
            g
        }
        _ => {
            let c = 50 + n;
            let mut g = Dag::new();
            let source = g.add_node(1.0, weight(20.0));
            let sink = g.add_node(1.0, weight(20.0));
            for _ in 0..c {
                let a = g.add_node(1.0, weight(20.0));
                let b = g.add_node(1.0, weight(20.0));
                g.add_edge(source, a, weight(15.0));
                g.add_edge(a, b, weight(15.0));
                g.add_edge(b, sink, weight(15.0));
            }
            g
        }
    }
}

/// About `keep` in 8 of `g`'s tasks (at least two), in scrambled order.
fn scrambled_members(g: &Dag, keep: u64, seed: u64) -> Vec<NodeId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut picked: Vec<(u64, NodeId)> = g
        .node_ids()
        .map(|u| (rng.random_range(0..u64::MAX), u))
        .filter(|(key, _)| key % 8 < keep)
        .collect();
    if picked.len() < 2 {
        picked = g.node_ids().take(2).map(|u| (0, u)).collect();
    }
    picked.sort_unstable();
    picked.into_iter().map(|(_, u)| u).collect()
}

/// A member set of `g` without an internal edge, in scrambled order.
/// With `stage`, all the tasks at one depth (longest path from a
/// source) — a stage of a fork-join; otherwise an independent set
/// picked greedily from about `keep` in 8 of the tasks.
fn edge_free_members(g: &Dag, stage: bool, keep: u64, seed: u64) -> Vec<NodeId> {
    if stage {
        let mut depth = vec![0usize; g.node_count()];
        for u in dhp_dag::topo::topo_sort(g).expect("shaped DAGs are acyclic") {
            for v in g.children(u) {
                depth[v.idx()] = depth[v.idx()].max(depth[u.idx()] + 1);
            }
        }
        let level = seed as usize % (depth.iter().max().copied().unwrap_or(0) + 1);
        return scrambled_members(g, 8, seed)
            .into_iter()
            .filter(|u| depth[u.idx()] == level)
            .collect();
    }
    let mut picked = BitSet::new(g.node_count());
    let mut members = Vec::new();
    for u in scrambled_members(g, keep, seed) {
        if g.parents(u)
            .chain(g.children(u))
            .all(|v| !picked.get(v.idx()))
        {
            picked.set(u.idx());
            members.push(u);
        }
    }
    members
}

/// Hostile weights on about half the tasks and a quarter of the files:
/// memory `0`, `-0.0`, negative or NaN; files so large that a boundary
/// load dwarfs every task, or overflows to infinity.
fn make_hostile(g: &mut Dag, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xbad);
    for u in g.node_ids().collect::<Vec<_>>() {
        let memory = &mut g.node_mut(u).memory;
        match rng.random_range(0..8u32) {
            0 => *memory = 0.0,
            1 => *memory = -0.0,
            2 => *memory = -*memory,
            3 => *memory = f64::NAN,
            _ => {}
        }
    }
    for e in g.edge_ids().collect::<Vec<_>>() {
        match rng.random_range(0..8u32) {
            0 => g.edge_mut(e).volume = 1e300,
            1 => g.edge_mut(e).volume = f64::MAX,
            _ => {}
        }
    }
}

/// The block the way it was asked about before the flat view: the
/// induced sub-DAG of the ascending members, their boundary loads, and
/// the reference traversal mapped back to ids of `g`.
fn reference_block(g: &Dag, members: &[NodeId]) -> (Dag, Vec<f64>, crate::Traversal) {
    let mut sorted = members.to_vec();
    sorted.sort_unstable();
    let (sub, back) = g.induced_subgraph(&sorted);
    let mut member = BitSet::new(g.node_count());
    for &u in &sorted {
        member.set(u.idx());
    }
    let ext: Vec<f64> = back
        .iter()
        .map(|&orig| {
            let mut boundary = 0.0;
            for &e in g.in_edges(orig) {
                if !member.get(g.edge(e).src.idx()) {
                    boundary += g.edge(e).volume;
                }
            }
            for &e in g.out_edges(orig) {
                if !member.get(g.edge(e).dst.idx()) {
                    boundary += g.edge(e).volume;
                }
            }
            boundary
        })
        .collect();
    let mut best = reference::best_traversal(&sub, &ext);
    for u in &mut best.order {
        *u = back[u.idx()];
    }
    (sub, ext, best)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The flat kernel on a view of the parent ≡ the old pipeline on
    /// the induced `Dag`, peak bits and order — asked on one workspace
    /// as a large block, then a tiny one, then the large one again, so
    /// a table left dirty between questions shows.
    #[test]
    fn block_kernel_equals_the_dag_reference(
        shape in 0usize..4,
        n in 4usize..40,
        keep in 3u64..9,
        seed in any::<u64>(),
    ) {
        let g = shaped_dag(shape, n, seed);
        let large = scrambled_members(&g, keep, seed);
        let tiny: Vec<NodeId> = large.iter().rev().take(2 + (seed % 3) as usize).copied().collect();
        for members in [&large, &tiny, &large] {
            let (_, _, want) = reference_block(&g, members);
            let got = block_traversal(&g, members);
            prop_assert_eq!(got.peak.to_bits(), want.peak.to_bits());
            prop_assert_eq!(&got.order, &want.order);
            prop_assert_eq!(block_peak(&g, members).to_bits(), want.peak.to_bits());
        }
    }

    /// A block without an internal edge is answered in one pass, and
    /// that answer is the three strategies' — peak bits and order, on a
    /// view of the parent and on the block's own `Dag` — also under
    /// hostile weights.
    #[test]
    fn edge_free_blocks_equal_the_reference(
        shape in 0usize..4,
        n in 4usize..40,
        stage in any::<bool>(),
        keep in 3u64..9,
        hostile in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut g = shaped_dag(shape, n, seed);
        if hostile {
            make_hostile(&mut g, seed);
        }
        let members = edge_free_members(&g, stage, keep, seed);
        let (sub, ext, want) = reference_block(&g, &members);
        prop_assert_eq!(sub.edge_count(), 0);
        TALLY.set(0);
        let got = block_traversal(&g, &members);
        prop_assert_eq!(got.peak.to_bits(), want.peak.to_bits());
        prop_assert_eq!(&got.order, &want.order);
        prop_assert_eq!(block_peak(&g, &members).to_bits(), want.peak.to_bits());
        let (got, want) = (best_traversal(&sub, &ext), reference::best_traversal(&sub, &ext));
        prop_assert_eq!(got.peak.to_bits(), want.peak.to_bits());
        prop_assert_eq!(got.order, want.order);
        let unloaded = reference::best_traversal(&sub, &vec![0.0; sub.node_count()]);
        prop_assert_eq!(min_peak(&sub).to_bits(), unloaded.peak.to_bits());
        prop_assert_eq!(TALLY.get(), 4, "every question took the one pass");
    }

    /// Every public strategy on a `Dag` (the view whose members are all
    /// its nodes) ≡ its old self, under a non-zero external load.
    #[test]
    fn every_strategy_equals_its_reference(
        shape in 0usize..4,
        n in 4usize..40,
        keep in 3u64..9,
        seed in any::<u64>(),
    ) {
        let whole = shaped_dag(shape, n, seed);
        // Both a whole workflow and the sub-DAG of a block of it.
        let (sub, sub_ext, _) = reference_block(&whole, &scrambled_members(&whole, keep, seed));
        let whole_ext: Vec<f64> = whole.node_ids().map(|u| (u.0 % 5) as f64 * 1.5).collect();
        for (g, ext) in [(&whole, &whole_ext), (&sub, &sub_ext)] {
            prop_assert_eq!(spdecomp::decompose(g), reference::decompose(g));
            let greedy = greedy::greedy_order(g, ext);
            prop_assert_eq!(&greedy, &reference::greedy_order(g, ext));
            let sp = sptraversal::sp_order(g, ext);
            prop_assert_eq!(&sp, &reference::sp_order(g, ext));
            for order in [&greedy, &sp] {
                prop_assert_eq!(
                    traversal_peak(g, ext, order).to_bits(),
                    reference::traversal_peak(g, ext, order).to_bits()
                );
            }
            let (got, want) = (best_traversal(g, ext), reference::best_traversal(g, ext));
            prop_assert_eq!(got.peak.to_bits(), want.peak.to_bits());
            prop_assert_eq!(got.order, want.order);
        }
    }
}

/// A random DAG whose memories and volumes are drawn from a few short
/// decimals (`0.1`, `0.2`, `0.3`, `0.7`): many orders share a real
/// peak, and which one a strategy computes smallest depends on how its
/// resident sum rounds.
fn near_tie_dag(n: usize, p: f64, seed: u64) -> Dag {
    const DECIMALS: [f64; 4] = [0.1, 0.2, 0.3, 0.7];
    let mut rng = StdRng::seed_from_u64(seed ^ 0x71e);
    let mut g = builder::gnp_dag(n, p, seed);
    for u in g.node_ids().collect::<Vec<_>>() {
        g.node_mut(u).memory = DECIMALS[rng.random_range(0..4usize)];
    }
    for e in g.edge_ids().collect::<Vec<_>>() {
        g.edge_mut(e).volume = DECIMALS[rng.random_range(0..4usize)];
    }
    g
}

/// `lo ≤ r ≤ hi` with `r = block_peak(g, members)`, `r` taking `hi`'s
/// bits when it equals it, and exact bounds being `r` itself. Returns
/// the bounds and `r`.
fn check_bracket(g: &Dag, members: &[NodeId]) -> (PeakBounds, f64) {
    let bounds = block_bounds(g, members);
    let r = block_peak(g, members);
    if bounds.is_exact() {
        assert_eq!(bounds.hi.to_bits(), r.to_bits(), "{members:?}");
        return (bounds, r);
    }
    assert!(bounds.lo.is_finite() && bounds.hi.is_finite());
    assert!(bounds.lo < bounds.hi, "{bounds:?}");
    assert!(bounds.lo <= r && r <= bounds.hi, "{bounds:?} vs {r}");
    if r == bounds.hi {
        assert_eq!(r.to_bits(), bounds.hi.to_bits());
    }
    (bounds, r)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The bounds bracket the kernel's answer on every shape, for large
    /// and tiny blocks and for the whole graph — and under hostile
    /// weights a block with a negative, NaN or infinite memory or load
    /// gets the kernel's exact answer.
    #[test]
    fn block_bounds_bracket_the_requirement(
        shape in 0usize..4,
        n in 4usize..40,
        keep in 3u64..9,
        hostile in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut g = shaped_dag(shape, n, seed);
        if hostile {
            make_hostile(&mut g, seed);
        }
        let large = scrambled_members(&g, keep, seed);
        let tiny: Vec<NodeId> = large.iter().rev().take(2 + (seed % 3) as usize).copied().collect();
        let all: Vec<NodeId> = g.node_ids().collect();
        for members in [&large, &tiny, &all] {
            let (bounds, _) = check_bracket(&g, members);
            let wild = members.iter().any(|&u| {
                let memory = g.node(u).memory;
                !memory.is_finite() || memory < 0.0
            });
            if wild {
                prop_assert!(bounds.is_exact(), "{:?}", bounds);
            }
        }
    }

    /// The same on near-tie weights, where greedy or SP beat the
    /// topological order by an ulp or two.
    #[test]
    fn block_bounds_bracket_near_ties(
        n in 4usize..30,
        p in 0.1f64..0.5,
        keep in 3u64..9,
        seed in any::<u64>(),
    ) {
        let g = near_tie_dag(n, p, seed);
        check_bracket(&g, &scrambled_members(&g, keep, seed));
        check_bracket(&g, &g.node_ids().collect::<Vec<_>>());
    }
}

/// The near-tie generator does what it is for: on some graphs another
/// strategy beats the topological peak by a few ulps only, and on some
/// the kernel's peak is computed *below* the largest task term — the
/// bound real arithmetic would give — where the certified `lo` still
/// holds.
#[test]
fn near_ties_occur_and_stay_bracketed() {
    let (mut ulp_wins, mut real_wins, mut below_terms) = (0, 0, 0);
    for seed in 0..400u64 {
        let g = near_tie_dag(6 + seed as usize % 20, 0.2 + (seed % 4) as f64 * 0.1, seed);
        let all: Vec<NodeId> = g.node_ids().collect();
        let (bounds, r) = check_bracket(&g, &all);
        // The largest task term, summed as the view sums it.
        let sum = |edges: &[dhp_dag::EdgeId]| edges.iter().fold(0.0, |s, &e| s + g.edge(e).volume);
        let terms = g
            .node_ids()
            .map(|u| (g.node(u).memory + sum(g.in_edges(u))) + sum(g.out_edges(u)));
        if r < terms.fold(0.0, f64::max) {
            below_terms += 1;
        }
        if r < bounds.hi {
            if bounds.hi - r <= 1e-14 * bounds.hi {
                ulp_wins += 1;
            } else {
                real_wins += 1;
            }
        }
    }
    assert!(ulp_wins > 0, "no ulp win among {real_wins} wins");
    assert!(below_terms > 0, "no peak computed below the largest term");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn best_traversal_is_valid_and_bounded(n in 3usize..9, p in 0.1f64..0.5, seed in any::<u64>()) {
        let g = builder::gnp_dag_weighted(n, p, seed);
        let ext: Vec<f64> = vec![0.0; n];
        let t = best_traversal(&g, &ext);
        prop_assert!(is_topological_order(&g, &t.order));
        let opt = brute_force_min(&g, &ext);
        prop_assert!(t.peak + 1e-9 >= opt, "found below optimum?!");
        // The heuristics should stay close to optimal on tiny graphs.
        prop_assert!(
            t.peak <= opt * 1.5 + 1e-9,
            "peak {} far from optimum {}", t.peak, opt
        );
    }

    #[test]
    fn dp_referee_on_midsize_graphs(n in 9usize..14, p in 0.1f64..0.4, seed in any::<u64>()) {
        // Beyond brute force's reach: the subset DP referees the
        // traversal engine up to 14 nodes.
        let g = builder::gnp_dag_weighted(n, p, seed);
        let ext = vec![0.0; n];
        let t = best_traversal(&g, &ext);
        let opt = dp_min_peak(&g, &ext);
        prop_assert!(t.peak + 1e-9 * opt.max(1.0) >= opt,
            "heuristic {} below DP optimum {}", t.peak, opt);
        prop_assert!(t.peak <= opt * 1.6 + 1e-9,
            "peak {} too far from optimum {}", t.peak, opt);
    }

    #[test]
    fn dp_agrees_with_brute_force(n in 3usize..9, p in 0.1f64..0.5, seed in any::<u64>()) {
        let g = builder::gnp_dag_weighted(n, p, seed);
        let ext: Vec<f64> = (0..n).map(|i| (i % 4) as f64).collect();
        let dp = dp_min_peak(&g, &ext);
        let bf = brute_force_min(&g, &ext);
        prop_assert!((dp - bf).abs() < 1e-9 * bf.max(1.0), "dp {dp} vs bf {bf}");
    }

    #[test]
    fn optimal_on_random_out_trees(n in 3usize..9, seed in any::<u64>()) {
        let g = random_out_tree(n, seed);
        let ext = vec![0.0; n];
        let t = best_traversal(&g, &ext);
        let opt = brute_force_min(&g, &ext);
        prop_assert!(
            (t.peak - opt).abs() < 1e-9,
            "tree traversal {} vs optimum {}", t.peak, opt
        );
    }

    #[test]
    fn peak_at_least_max_task_requirement(n in 2usize..20, p in 0.1f64..0.4, seed in any::<u64>()) {
        let g = builder::gnp_dag_weighted(n, p, seed);
        let ext = vec![0.0; n];
        let t = best_traversal(&g, &ext);
        let max_req = g
            .node_ids()
            .map(|u| g.task_requirement(u))
            .fold(0.0f64, f64::max);
        prop_assert!(t.peak + 1e-9 >= max_req);
    }

    #[test]
    fn ext_monotone(n in 2usize..12, p in 0.1f64..0.4, seed in any::<u64>(), bump in 1.0f64..50.0) {
        // Increasing one task's external load cannot decrease the best peak.
        let g = builder::gnp_dag_weighted(n, p, seed);
        let ext0 = vec![0.0; n];
        let mut ext1 = ext0.clone();
        ext1[0] = bump;
        let t0 = best_traversal(&g, &ext0);
        let t1 = best_traversal(&g, &ext1);
        prop_assert!(t1.peak + 1e-9 >= t0.peak);
    }

    #[test]
    fn decomposition_is_exhaustive_partition(n in 2usize..25, p in 0.05f64..0.4, seed in any::<u64>()) {
        let g = builder::gnp_dag(n, p, seed);
        let tree = spdecomp::decompose(&g);
        let mut tasks = tree.tasks();
        prop_assert_eq!(tasks.len(), n);
        tasks.sort();
        tasks.dedup();
        prop_assert_eq!(tasks.len(), n);
    }

    #[test]
    fn evaluation_deterministic(n in 2usize..15, p in 0.1f64..0.4, seed in any::<u64>()) {
        let g = builder::gnp_dag_weighted(n, p, seed);
        let ext = vec![0.0; n];
        let a = best_traversal(&g, &ext);
        let b = best_traversal(&g, &ext);
        prop_assert_eq!(a.order, b.order);
        prop_assert_eq!(a.peak, b.peak);
    }

    #[test]
    fn traversal_peak_matches_stepwise_recompute(n in 2usize..12, p in 0.1f64..0.5, seed in any::<u64>()) {
        // Cross-check the O(V+E) evaluation against a naive O(V*E) one.
        let g = builder::gnp_dag_weighted(n, p, seed);
        let ext = vec![0.0; n];
        let order = dhp_dag::topo::topo_sort(&g).unwrap();
        let fast = traversal_peak(&g, &ext, &order);
        // naive: for each step, recompute live set from scratch
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, &u)| (u, i)).collect();
        let mut naive: f64 = 0.0;
        for (i, &u) in order.iter().enumerate() {
            let mut m = g.node(u).memory + ext[u.idx()];
            for e in g.edge_ids() {
                let ed = g.edge(e);
                let (ps, pd) = (pos[&ed.src], pos[&ed.dst]);
                // live during step i: produced before i, consumed at or after i
                // outputs of u itself also occupy memory
                if (ps < i && pd >= i) || ps == i {
                    m += ed.volume;
                }
            }
            naive = naive.max(m);
        }
        prop_assert!((fast - naive).abs() < 1e-6, "fast {fast} naive {naive}");
    }
}
