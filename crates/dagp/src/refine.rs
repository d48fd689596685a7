//! Acyclicity-preserving boundary refinement.
//!
//! Works on assignments that satisfy the *monotone part* invariant: for
//! every edge `(u, v)`, `part(u) ≤ part(v)` (established by
//! [`crate::initial::topo_chunks`] and preserved by projection). A vertex
//! `u` may move to any part in the window
//! `[max part of its parents, min part of its children]` — such a move
//! keeps the invariant, hence the quotient graph stays acyclic with the
//! quotient edges always pointing from lower to higher part numbers.
//!
//! Each pass visits the vertices in topological order and moves a
//! vertex to the part of its window with the largest gain (cut volume
//! saved; the lowest part id on ties) among the acceptable ones: a move
//! needs a gain above `1e-12`, or — only out of an overweight part, into
//! one that ends up lighter — a gain of at least `-1e-12`. Passes repeat
//! until no vertex moved or the configured limit.
//!
//! **Which parts are scored.** A vertex's gain towards a part it has no
//! edge to is minus its internal volume, and the only parts of its
//! window it can have an edge to, besides its own, are the window's two
//! ends: a parent sits in a part `≤ lo`, a child in a part `≥ hi`. So
//! when the vertex's part is not overweight and its internal volume is
//! `>= 0.0`, nothing strictly inside the window can be acceptable and
//! only `lo` and `hi` are scored: a visit costs the vertex's degree,
//! whatever the width of its window (up to `k` on a fan-out, whose
//! middle vertices sit between the source's part and the sink's).
//! Otherwise — the part is overweight, so a zero-gain move may
//! rebalance it, or the internal volume is negative or NaN — every part
//! of the window is scored. Both cases put the same tests to the same
//! numbers in ascending part order, so which one ran never shows in the
//! assignment.

use crate::coarsen::LevelView;
use crate::PartitionConfig;
use dhp_dag::Dag;

/// What the refinement passes of this thread did, for the tests that
/// pin which parts are scored when.
#[cfg(test)]
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Tally {
    /// Candidate parts scored.
    pub scored: u64,
    /// Vertices that had only the ends of their window scored.
    pub ends_only: u64,
    /// Vertices that had their whole window scored.
    pub whole_window: u64,
}

#[cfg(test)]
thread_local! {
    pub(crate) static TALLY: std::cell::Cell<Tally> = const {
        std::cell::Cell::new(Tally { scored: 0, ends_only: 0, whole_window: 0 })
    };
}

/// Refines `assignment` in place. `assignment[u]` must be a valid part in
/// `0..k` satisfying the monotone invariant.
///
/// # Panics
/// Panics if `g` is cyclic.
pub fn refine(g: &Dag, weights: &[f64], assignment: &mut [u32], k: usize, cfg: &PartitionConfig) {
    refine_on(&LevelView::of(g), weights, assignment, k, cfg);
}

/// [`refine`] on a graph's view: what every part count of a sweep
/// shares.
pub fn refine_on(
    view: &LevelView,
    weights: &[f64],
    assignment: &mut [u32],
    k: usize,
    cfg: &PartitionConfig,
) {
    refine_with(
        view,
        weights,
        assignment,
        k,
        cfg,
        &mut RefineScratch::default(),
    );
}

/// The four per-part tables of a refinement, kept by a caller that
/// refines again and again.
#[derive(Debug, Default)]
pub(crate) struct RefineScratch {
    part_weight: Vec<f64>,
    part_count: Vec<usize>,
    /// Incident volume per part, valid where `stamp` holds the
    /// current visit's version.
    vol_to: Vec<f64>,
    stamp: Vec<u32>,
}

/// [`refine_on`] with its per-part tables in `scratch`: the same moves,
/// to the bit. The pass loop reads the tables as slices, as it read
/// them when they were its own.
pub(crate) fn refine_with(
    view: &LevelView,
    weights: &[f64],
    assignment: &mut [u32],
    k: usize,
    cfg: &PartitionConfig,
    scratch: &mut RefineScratch,
) {
    let g = view.adjacency();
    let n = g.len();
    debug_assert_eq!(assignment.len(), n);
    if k <= 1 || n <= k {
        return;
    }
    let total: f64 = weights.iter().sum();
    let cap = (1.0 + cfg.epsilon) * total / k as f64;

    let RefineScratch {
        part_weight,
        part_count,
        vol_to,
        stamp,
    } = scratch;
    part_weight.clear();
    part_weight.resize(k, 0.0);
    part_count.clear();
    part_count.resize(k, 0);
    vol_to.clear();
    vol_to.resize(k, 0.0);
    stamp.clear();
    stamp.resize(k, 0);
    let (part_weight, part_count) = (&mut part_weight[..], &mut part_count[..]);
    let (vol_to, stamp) = (&mut vol_to[..], &mut stamp[..]);
    for (i, &p) in assignment.iter().enumerate() {
        part_weight[p as usize] += weights[i];
        part_count[p as usize] += 1;
    }

    // Incident volume per part, with version stamping.
    let mut version = 0u32;

    for _pass in 0..cfg.refine_passes {
        let mut improved = false;
        for &u in view.order() {
            let a = assignment[u as usize] as usize;
            // Feasible window and incident volume per neighbouring part
            // in one walk: in-edges, then out-edges, each in edge-id
            // order.
            let mut lo = 0usize;
            let mut hi = k - 1;
            version += 1;
            let mut add = |p: usize, volume: f64| {
                if stamp[p] != version {
                    stamp[p] = version;
                    vol_to[p] = 0.0;
                }
                vol_to[p] += volume;
            };
            for (v, volume) in g.in_edges(u) {
                let p = assignment[v as usize] as usize;
                lo = lo.max(p);
                add(p, volume);
            }
            for (v, volume) in g.out_edges(u) {
                let p = assignment[v as usize] as usize;
                hi = hi.min(p);
                add(p, volume);
            }
            debug_assert!(lo <= a && a <= hi, "monotone invariant violated");
            if lo >= hi {
                continue;
            }
            if part_count[a] <= 1 {
                continue; // never empty a part
            }
            let vol = |p: usize| if stamp[p] == version { vol_to[p] } else { 0.0 };
            let w = weights[u as usize];
            let internal = vol(a);
            let overweight_a = part_weight[a] > cap;

            let mut best: Option<(usize, f64)> = None;
            let mut score = |b: usize| {
                if b == a {
                    return;
                }
                let gain = vol(b) - internal;
                // Balance: target must not exceed cap, unless the source
                // is overweight and the move strictly improves the worse
                // of the two part weights.
                let fits = part_weight[b] + w <= cap;
                let rebalances = overweight_a && part_weight[b] + w < part_weight[a];
                if !fits && !rebalances {
                    return;
                }
                let acceptable = gain > 1e-12 || (rebalances && gain >= -1e-12);
                if !acceptable {
                    return;
                }
                if best.is_none_or(|(_, bg)| gain > bg) {
                    best = Some((b, gain));
                }
            };
            let ends_only = !overweight_a && internal >= 0.0;
            if ends_only {
                [lo, hi].into_iter().for_each(&mut score);
            } else {
                (lo..=hi).for_each(&mut score);
            }
            #[cfg(test)]
            TALLY.with(|t| {
                let mut tally = t.get();
                tally.ends_only += ends_only as u64;
                tally.whole_window += !ends_only as u64;
                tally.scored += if ends_only { 2 } else { (hi - lo + 1) as u64 };
                t.set(tally);
            });
            if let Some((b, _)) = best {
                part_weight[a] -= w;
                part_count[a] -= 1;
                part_weight[b] += w;
                part_count[b] += 1;
                assignment[u as usize] = b as u32;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::initial::topo_chunks;
    use dhp_dag::builder;
    use dhp_dag::quotient::{is_acyclic_partition, Partition, QuotientGraph};

    fn cut(g: &Dag, raw: &[u32]) -> f64 {
        QuotientGraph::build(g, &Partition::from_raw(raw)).edge_cut()
    }

    #[test]
    fn refinement_reduces_cut_and_keeps_acyclicity() {
        for seed in 0..6 {
            let g = builder::gnp_dag_weighted(100, 0.07, seed);
            let weights: Vec<f64> = g.node_ids().map(|u| g.node(u).work).collect();
            let mut raw = topo_chunks(&g, &weights, 5);
            let before = cut(&g, &raw);
            refine(&g, &weights, &mut raw, 5, &PartitionConfig::default());
            let after = cut(&g, &raw);
            assert!(after <= before + 1e-9, "seed {seed}: {after} > {before}");
            let p = Partition::from_raw(&raw);
            assert!(is_acyclic_partition(&g, &p), "seed {seed}");
            assert_eq!(p.num_blocks(), 5, "no part may be emptied");
        }
    }

    #[test]
    fn monotone_invariant_kept() {
        let g = builder::gnp_dag(60, 0.15, 3);
        let weights = vec![1.0; 60];
        let mut raw = topo_chunks(&g, &weights, 4);
        refine(&g, &weights, &mut raw, 4, &PartitionConfig::default());
        for e in g.edge_ids() {
            let ed = g.edge(e);
            assert!(raw[ed.src.idx()] <= raw[ed.dst.idx()]);
        }
    }

    #[test]
    fn noop_on_k1() {
        let g = builder::chain(10, 1.0, 1.0, 1.0);
        let mut raw = vec![0u32; 10];
        refine(&g, &[1.0; 10], &mut raw, 1, &PartitionConfig::default());
        assert!(raw.iter().all(|&p| p == 0));
    }

    /// `p2 → p → u → c → c2` plus an isolated `x`, split {p2, p} {u, x}
    /// {c, c2}: the heavy outer edges pin everything but `u`, whose
    /// window is all three parts and which has nothing in its own.
    fn between_two_parts(into_u: f64, out_of_u: f64) -> Vec<u32> {
        let mut g = Dag::new();
        let n: Vec<_> = (0..6).map(|_| g.add_node(1.0, 1.0)).collect();
        let [p2, p, u, _x, c, c2] = n[..] else {
            unreachable!()
        };
        g.add_edge(p2, p, 100.0);
        g.add_edge(p, u, into_u);
        g.add_edge(u, c, out_of_u);
        g.add_edge(c, c2, 100.0);
        let mut raw = vec![0, 0, 1, 1, 2, 2];
        let cfg = PartitionConfig {
            epsilon: 1.0,
            ..PartitionConfig::default()
        };
        refine(&g, &[1.0; 6], &mut raw, 3, &cfg);
        raw
    }

    #[test]
    fn the_better_end_of_the_window_wins_and_the_lower_on_ties() {
        assert_eq!(between_two_parts(1.0, 5.0), [0, 0, 2, 1, 2, 2]);
        assert_eq!(between_two_parts(5.0, 1.0), [0, 0, 0, 1, 2, 2]);
        assert_eq!(between_two_parts(5.0, 5.0), [0, 0, 0, 1, 2, 2]);
    }

    /// One pass over `source → 2000 × task → sink`: every task's window
    /// runs from the source's part to the sink's, all `k` parts wide,
    /// and a task has two edges whatever `k` is.
    #[test]
    fn refine_cost_follows_degree_not_k() {
        let g = builder::fork_join(2_000, 1.0, 1.0, 1.0);
        let weights = vec![1.0; g.node_count()];
        let cfg = PartitionConfig {
            refine_passes: 1,
            ..PartitionConfig::default()
        };
        let scored = |k: usize| {
            let mut raw = topo_chunks(&g, &weights, k);
            TALLY.set(Tally::default());
            refine(&g, &weights, &mut raw, k, &cfg);
            let tally = TALLY.get();
            assert_eq!(tally.whole_window, 0, "k={k}: a part was overweight");
            assert!(tally.ends_only >= 1_000, "k={k}: {tally:?}");
            tally.scored as f64
        };
        let (narrow, wide) = (scored(4), scored(36));
        assert!(
            (wide - narrow).abs() < 0.1 * narrow,
            "{narrow} candidates at k = 4, {wide} at k = 36"
        );
    }

    #[test]
    fn obvious_move_is_taken() {
        // Chain 0-1-2-3 with huge edge (1,2); initial split {0,1} {2,3}
        // cuts it. Refinement should move to cut a cheap edge instead.
        let mut g = Dag::new();
        let n: Vec<_> = (0..4).map(|_| g.add_node(1.0, 1.0)).collect();
        g.add_edge(n[0], n[1], 1.0);
        g.add_edge(n[1], n[2], 100.0);
        g.add_edge(n[2], n[3], 1.0);
        let mut raw = vec![0, 0, 1, 1];
        let cfg = PartitionConfig {
            epsilon: 1.0, // generous balance so the move is allowed
            ..PartitionConfig::default()
        };
        refine(&g, &[1.0; 4], &mut raw, 2, &cfg);
        assert_eq!(raw[1], raw[2], "heavy edge must become internal");
        assert!(cut(&g, &raw) <= 1.0 + 1e-9);
    }
}
