//! The refinement pass as it was before it moved onto a level's flat
//! view, kept as the assignment-for-assignment reference of the
//! property tests: it sorts the graph topologically per call, reads
//! adjacency through [`Dag`]'s edge table and scores every part of a
//! vertex's window, whatever the vertex touches.

use crate::PartitionConfig;
use dhp_dag::Dag;

/// The old `refine::refine`.
pub fn refine(g: &Dag, weights: &[f64], assignment: &mut [u32], k: usize, cfg: &PartitionConfig) {
    let n = g.node_count();
    debug_assert_eq!(assignment.len(), n);
    if k <= 1 || n <= k {
        return;
    }
    let total: f64 = weights.iter().sum();
    let cap = (1.0 + cfg.epsilon) * total / k as f64;

    let mut part_weight = vec![0.0f64; k];
    let mut part_count = vec![0usize; k];
    for (i, &p) in assignment.iter().enumerate() {
        part_weight[p as usize] += weights[i];
        part_count[p as usize] += 1;
    }

    // Scratch: incident volume per part, with version stamping.
    let mut vol_to = vec![0.0f64; k];
    let mut stamp = vec![0u32; k];
    let mut version = 0u32;

    let order = dhp_dag::topo::topo_sort(g).expect("refine requires a DAG");

    for _pass in 0..cfg.refine_passes {
        let mut improved = false;
        for &u in &order {
            let a = assignment[u.idx()] as usize;
            // Feasible window.
            let mut lo = 0usize;
            let mut hi = k - 1;
            for p in g.parents(u) {
                lo = lo.max(assignment[p.idx()] as usize);
            }
            for c in g.children(u) {
                hi = hi.min(assignment[c.idx()] as usize);
            }
            debug_assert!(lo <= a && a <= hi, "monotone invariant violated");
            if lo == hi {
                continue;
            }
            if part_count[a] <= 1 {
                continue; // never empty a part
            }
            // Incident volume per neighbouring part.
            version += 1;
            let add = |p: usize, v: f64, vol_to: &mut [f64], stamp: &mut [u32]| {
                if stamp[p] != version {
                    stamp[p] = version;
                    vol_to[p] = 0.0;
                }
                vol_to[p] += v;
            };
            for &e in g.in_edges(u) {
                let ed = g.edge(e);
                add(
                    assignment[ed.src.idx()] as usize,
                    ed.volume,
                    &mut vol_to,
                    &mut stamp,
                );
            }
            for &e in g.out_edges(u) {
                let ed = g.edge(e);
                add(
                    assignment[ed.dst.idx()] as usize,
                    ed.volume,
                    &mut vol_to,
                    &mut stamp,
                );
            }
            let vol = |p: usize, vol_to: &[f64], stamp: &[u32]| {
                if stamp[p] == version {
                    vol_to[p]
                } else {
                    0.0
                }
            };
            let w = weights[u.idx()];
            let internal = vol(a, &vol_to, &stamp);
            let overweight_a = part_weight[a] > cap;

            let mut best: Option<(usize, f64)> = None;
            for b in lo..=hi {
                if b == a {
                    continue;
                }
                let gain = vol(b, &vol_to, &stamp) - internal;
                // Balance: target must not exceed cap, unless the source
                // is overweight and the move strictly improves the worse
                // of the two part weights.
                let fits = part_weight[b] + w <= cap;
                let rebalances = overweight_a && part_weight[b] + w < part_weight[a];
                if !fits && !rebalances {
                    continue;
                }
                let acceptable = gain > 1e-12 || (rebalances && gain >= -1e-12);
                if !acceptable {
                    continue;
                }
                if best.is_none_or(|(_, bg)| gain > bg) {
                    best = Some((b, gain));
                }
            }
            if let Some((b, _)) = best {
                part_weight[a] -= w;
                part_count[a] -= 1;
                part_weight[b] += w;
                part_count[b] += 1;
                assignment[u.idx()] = b as u32;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
}
