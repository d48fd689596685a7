//! Direction-blind partitioning + acyclicity repair (ablation baseline).
//!
//! The paper's related-work section argues that the many partitioners
//! for *undirected* graphs are "in many cases not easily transferable to
//! the DAG case" (§2, citing Herrmann et al. and Moreira et al.). This
//! module makes that claim measurable: it partitions the workflow as if
//! it were an undirected graph (greedy region growing + direction-blind
//! FM refinement of the cut), then *repairs* the generally-cyclic result
//! into an acyclic partition with the topological-projection sweep of
//! Moreira et al. — and the repair is exactly where the quality goes:
//! balance degrades and the cut grows back, which `experiments
//! ablate-partitioner` quantifies against the native acyclic pipeline.
//!
//! None of this is used by DagHetPart's default configuration; it exists
//! as a baseline for the ablation and for tests.

use crate::PartitionConfig;
use dhp_dag::{Dag, NodeId, Partition};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Partitions `g` direction-blind into at most `k` blocks, then repairs
/// the partition to be acyclic. The returned partition always induces an
/// acyclic quotient graph, but (unlike the native pipeline) its balance
/// and cut carry the cost of the repair.
///
/// # Panics
/// Panics if `g` is empty or cyclic.
pub fn partition_undirected(g: &Dag, k: usize, cfg: &PartitionConfig) -> Partition {
    assert!(!g.is_empty(), "cannot partition an empty graph");
    let n = g.node_count();
    let k = k.min(n);
    if k <= 1 {
        return Partition::single_block(n);
    }
    let weights: Vec<f64> = g.node_ids().map(|u| g.node(u).work).collect();
    let mut assignment = grow_regions(g, &weights, k, cfg.seed);
    fm_refine_undirected(g, &weights, &mut assignment, k, cfg);
    let assignment = repair_acyclicity(g, &assignment);
    Partition::from_raw(&assignment)
}

/// Undirected greedy region growing: k seeds spread over a randomised
/// node order, regions grab the heaviest-connected unassigned neighbour
/// until the weight budget `total/k` is spent, leftovers join their most
/// connected region.
fn grow_regions(g: &Dag, weights: &[f64], k: usize, seed: u64) -> Vec<u32> {
    let n = g.node_count();
    let total: f64 = weights.iter().sum();
    let budget = total / k as f64;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<NodeId> = g.node_ids().collect();
    order.shuffle(&mut rng);

    let mut part = vec![u32::MAX; n];
    let mut load = vec![0.0f64; k];
    let mut next_seed = 0usize;
    // `b` is both the block id written into `part` and the `load` index,
    // so the index loop is the clearer form here.
    #[allow(clippy::needless_range_loop)]
    for b in 0..k {
        // Pick the next unassigned node as seed.
        while next_seed < n && part[order[next_seed].idx()] != u32::MAX {
            next_seed += 1;
        }
        let Some(&seed_node) = order.get(next_seed) else {
            break;
        };
        // BFS-grow by undirected adjacency, preferring heavy edges.
        let mut frontier = vec![seed_node];
        while let Some(u) = frontier.pop() {
            if part[u.idx()] != u32::MAX || load[b] + weights[u.idx()] > budget * 1.05 {
                continue;
            }
            part[u.idx()] = b as u32;
            load[b] += weights[u.idx()];
            // Undirected neighbourhood, heaviest edge last (popped first).
            let mut nbrs: Vec<(f64, NodeId)> = g
                .out_edges(u)
                .iter()
                .map(|&e| (g.edge(e).volume, g.edge(e).dst))
                .chain(
                    g.in_edges(u)
                        .iter()
                        .map(|&e| (g.edge(e).volume, g.edge(e).src)),
                )
                .filter(|(_, v)| part[v.idx()] == u32::MAX)
                .collect();
            nbrs.sort_by(|a, b| a.0.total_cmp(&b.0));
            frontier.extend(nbrs.into_iter().map(|(_, v)| v));
        }
    }
    // Leftovers: join the most strongly connected region (or block 0).
    for u in g.node_ids() {
        if part[u.idx()] == u32::MAX {
            let mut gain = vec![0.0f64; k];
            for &e in g.out_edges(u) {
                let p = part[g.edge(e).dst.idx()];
                if p != u32::MAX {
                    gain[p as usize] += g.edge(e).volume;
                }
            }
            for &e in g.in_edges(u) {
                let p = part[g.edge(e).src.idx()];
                if p != u32::MAX {
                    gain[p as usize] += g.edge(e).volume;
                }
            }
            let best = (0..k)
                .max_by(|&a, &b| gain[a].total_cmp(&gain[b]))
                .unwrap_or(0);
            part[u.idx()] = best as u32;
        }
    }
    part
}

/// Direction-blind boundary refinement: move a node to the neighbouring
/// part with the largest cut gain while the balance constraint holds.
/// This is the step that is *sound for undirected graphs* and ignores
/// acyclicity entirely.
fn fm_refine_undirected(
    g: &Dag,
    weights: &[f64],
    part: &mut [u32],
    k: usize,
    cfg: &PartitionConfig,
) {
    let total: f64 = weights.iter().sum();
    let cap = (1.0 + cfg.epsilon) * total / k as f64;
    let mut load = vec![0.0f64; k];
    for u in g.node_ids() {
        load[part[u.idx()] as usize] += weights[u.idx()];
    }
    for _ in 0..cfg.refine_passes {
        let mut moved = false;
        for u in g.node_ids() {
            let cur = part[u.idx()] as usize;
            // Connectivity to each part.
            let mut conn = vec![0.0f64; k];
            for &e in g.out_edges(u) {
                conn[part[g.edge(e).dst.idx()] as usize] += g.edge(e).volume;
            }
            for &e in g.in_edges(u) {
                conn[part[g.edge(e).src.idx()] as usize] += g.edge(e).volume;
            }
            let Some(best) = (0..k)
                .filter(|&b| b != cur && load[b] + weights[u.idx()] <= cap)
                .max_by(|&a, &b| conn[a].total_cmp(&conn[b]))
            else {
                continue;
            };
            if conn[best] > conn[cur] + 1e-12 {
                load[cur] -= weights[u.idx()];
                load[best] += weights[u.idx()];
                part[u.idx()] = best as u32;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
}

/// Moreira-style acyclicity repair: rank blocks by the average
/// topological position of their members, then sweep the nodes in
/// topological order forcing `rank(part(v)) ≥ max over parents` — after
/// the sweep every edge points from a lower-ranked block to an equal or
/// higher one, so the quotient is acyclic by construction.
pub fn repair_acyclicity(g: &Dag, part: &[u32]) -> Vec<u32> {
    let Some(order) = dhp_dag::topo::topo_sort(g) else {
        unreachable!("the partitioner only repairs partitions of a DAG")
    };
    let mut pos = vec![0usize; g.node_count()];
    for (i, &u) in order.iter().enumerate() {
        pos[u.idx()] = i;
    }
    // Rank = average topological position per block.
    let k = part.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut sum = vec![0.0f64; k];
    let mut cnt = vec![0usize; k];
    for u in g.node_ids() {
        sum[part[u.idx()] as usize] += pos[u.idx()] as f64;
        cnt[part[u.idx()] as usize] += 1;
    }
    let mut by_rank: Vec<usize> = (0..k).filter(|&b| cnt[b] > 0).collect();
    by_rank.sort_by(|&a, &b| (sum[a] / cnt[a] as f64).total_cmp(&(sum[b] / cnt[b] as f64)));
    let mut rank = vec![0u32; k];
    for (r, &b) in by_rank.iter().enumerate() {
        rank[b] = r as u32;
    }
    // Forward sweep.
    let mut out = vec![0u32; g.node_count()];
    for &u in &order {
        let mut r = rank[part[u.idx()] as usize];
        for p in g.parents(u) {
            r = r.max(out[p.idx()]);
        }
        out[u.idx()] = r;
    }
    out
}

/// Edge cut of a raw assignment (sum of volumes crossing parts).
pub fn cut_of(g: &Dag, part: &Partition) -> f64 {
    g.edge_ids()
        .map(|e| {
            let ed = g.edge(e);
            if part.block_of(ed.src) != part.block_of(ed.dst) {
                ed.volume
            } else {
                0.0
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhp_dag::builder;
    use dhp_dag::quotient::is_acyclic_partition;

    #[test]
    fn undirected_partition_is_always_acyclic_after_repair() {
        for seed in 0..10u64 {
            let g = builder::gnp_dag_weighted(80, 0.08, seed);
            let cfg = PartitionConfig {
                seed,
                ..PartitionConfig::default()
            };
            let part = partition_undirected(&g, 6, &cfg);
            assert!(part.validate(&g));
            assert!(
                is_acyclic_partition(&g, &part),
                "seed {seed}: repair left a cyclic quotient"
            );
            assert!(part.num_blocks() <= 6);
        }
    }

    #[test]
    fn repair_is_identity_on_topo_chunk_partitions() {
        // Contiguous chunks of a topological order are already acyclic;
        // the repair must not move anything (same quotient relation).
        let g = builder::gnp_dag_weighted(40, 0.15, 3);
        let order = dhp_dag::topo::topo_sort(&g).unwrap();
        let mut raw = vec![0u32; 40];
        for (i, &u) in order.iter().enumerate() {
            raw[u.idx()] = (i / 10) as u32;
        }
        let repaired = repair_acyclicity(&g, &raw);
        assert_eq!(raw, repaired);
    }

    #[test]
    fn repair_fixes_a_cyclic_two_block_diamond() {
        // 0->1, 0->2, 1->3, 2->3 with blocks {0,3}, {1,2}: cyclic.
        let mut g = Dag::new();
        let n: Vec<_> = (0..4).map(|_| g.add_node(1.0, 1.0)).collect();
        g.add_edge(n[0], n[1], 1.0);
        g.add_edge(n[0], n[2], 1.0);
        g.add_edge(n[1], n[3], 1.0);
        g.add_edge(n[2], n[3], 1.0);
        let raw = vec![0u32, 1, 1, 0];
        assert!(!is_acyclic_partition(&g, &Partition::from_raw(&raw)));
        let repaired = repair_acyclicity(&g, &raw);
        assert!(is_acyclic_partition(&g, &Partition::from_raw(&repaired)));
    }

    #[test]
    fn undirected_cut_before_repair_is_competitive_on_symmetric_graphs() {
        // On a wide fork-join the undirected pipeline finds a decent cut
        // before repair; after repair the cut may grow — the ablation's
        // point. Here we only pin soundness + non-trivial block count.
        let g = builder::fork_join(40, 2.0, 1.0, 1.0);
        // A seed whose region growing keeps several blocks after the
        // acyclicity repair (the repair may legally collapse others).
        let cfg = PartitionConfig {
            seed: 0,
            ..PartitionConfig::default()
        };
        let part = partition_undirected(&g, 4, &cfg);
        assert!(is_acyclic_partition(&g, &part));
        assert!(part.num_blocks() >= 2);
        assert!(cut_of(&g, &part) <= g.total_volume());
    }

    #[test]
    fn single_block_and_tiny_graphs() {
        let g = builder::chain(3, 1.0, 1.0, 1.0);
        let part = partition_undirected(&g, 1, &PartitionConfig::default());
        assert_eq!(part.num_blocks(), 1);
        let part = partition_undirected(&g, 10, &PartitionConfig::default());
        assert!(part.num_blocks() <= 3);
        assert!(is_acyclic_partition(&g, &part));
    }
}
