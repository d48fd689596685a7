//! Liu-style traversal construction over the series/parallel/complex
//! decomposition.
//!
//! Each decomposition subtree is ordered recursively; parallel components
//! are interleaved by *hill–valley merging*: every component's memory
//! profile is cut into atomic segments at its running minima, and segment
//! queues are merged by the classical pairwise rule — run `x` before `y`
//! iff `max(P_x, D_x + P_y) ≤ max(P_y, D_y + P_x)`, where `P` is the
//! segment's peak over its start and `D` its net memory delta. This is
//! Liu's optimal merging for tree-shaped profiles and a strong heuristic
//! in general; the final order is always evaluated exactly by the caller.

use crate::greedy::{greedy_into, GreedyScratch, TaskSet};
use crate::spdecomp::{decompose_into, Decomposition, SpKind};
use dhp_dag::{BlockView, Dag, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An atomic run of tasks — `order[lo..hi]` of the component it was cut
/// from — with its relative memory profile.
#[derive(Clone, Copy, Debug)]
struct Segment {
    lo: u32,
    hi: u32,
    /// Peak memory during the segment, relative to the segment start.
    peak: f64,
    /// Net memory delta across the segment.
    delta: f64,
}

/// Head of a component's segment queue in the merge heap.
#[derive(Debug)]
struct Head {
    class: u8,
    key: f64,
    queue: u32,
    index: u32,
}

impl PartialEq for Head {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Head {}
impl PartialOrd for Head {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Head {
    fn cmp(&self, other: &Self) -> Ordering {
        // max-heap: best segment = smallest (class, key, queue)
        other
            .class
            .cmp(&self.class)
            .then(other.key.total_cmp(&self.key))
            .then(other.queue.cmp(&self.queue))
    }
}

/// Scratch of the merges of one traversal. `segments` and `queues` are
/// stacks: a parallel stage pushes its components' segments, merges
/// them and pops them, and stages nested inside its components have
/// come and gone by then. The heap is empty outside a merge.
#[derive(Debug, Default)]
pub(crate) struct MergeScratch {
    segments: Vec<Segment>,
    /// One `segments` range per component of the stages being merged.
    queues: Vec<(u32, u32)>,
    heads: BinaryHeap<Head>,
    /// The merged order of the stage, before it is written back.
    merged: Vec<u32>,
}

/// A non-SP core: the tasks `nodes[lo..hi]` of a decomposition, in
/// topological order.
struct Core<'a> {
    d: &'a Decomposition,
    lo: u32,
    hi: u32,
}

impl TaskSet for Core<'_> {
    fn len(&self) -> usize {
        (self.hi - self.lo) as usize
    }
    fn task(&self, i: u32) -> u32 {
        self.d.nodes[(self.lo + i) as usize]
    }
    fn position(&self, v: u32) -> Option<u32> {
        self.d.index_in(v, self.lo, self.hi)
    }
}

/// Computes a traversal order guided by the SP decomposition.
pub fn sp_order(g: &Dag, ext: &[f64]) -> Vec<NodeId> {
    if g.is_empty() {
        return Vec::new();
    }
    let ws = &mut crate::workspace::Workspace::default();
    ws.load_graph(g, ext);
    ws.topo_order("sp_order requires a DAG");
    ws.sp_order();
    ws.sp.iter().map(|&u| NodeId(u)).collect()
}

/// Decomposes `view` (topological order `topo`) and writes the order
/// the decomposition guides into `order` (view-local ids).
pub(crate) fn sp_order_into(
    view: &BlockView,
    topo: &[u32],
    d: &mut Decomposition,
    merge: &mut MergeScratch,
    greedy: &mut GreedyScratch,
    order: &mut Vec<u32>,
) {
    decompose_into(view, topo, d);
    order.resize(topo.len(), 0);
    merge.segments.clear();
    merge.queues.clear();
    merge.heads.clear();
    Traverser {
        view,
        d,
        merge,
        greedy,
        order,
    }
    .order_of(0);
}

/// The recursion over the flat tree. The subtree over `nodes[lo..hi]`
/// is ordered into `order[lo..hi]`: a permutation of the same tasks, so
/// "is `v` in this component" stays the range check on `d.pos`.
struct Traverser<'a> {
    view: &'a BlockView,
    d: &'a Decomposition,
    merge: &'a mut MergeScratch,
    greedy: &'a mut GreedyScratch,
    order: &'a mut [u32],
}

impl Traverser<'_> {
    fn order_of(&mut self, t: usize) {
        let node = self.d.tree[t];
        let (lo, hi) = (node.lo as usize, node.hi as usize);
        match node.kind {
            SpKind::Leaf => self.order[lo] = self.d.nodes[lo],
            SpKind::Series => {
                let mut stage = t + 1;
                while stage < node.end as usize {
                    self.order_of(stage);
                    stage = self.d.tree[stage].end as usize;
                }
            }
            SpKind::Parallel => {
                let (first_segment, first_queue) =
                    (self.merge.segments.len(), self.merge.queues.len());
                let mut child = t + 1;
                while child < node.end as usize {
                    self.order_of(child);
                    let component = self.d.tree[child];
                    let start = self.merge.segments.len() as u32;
                    self.segment_profile(component.lo, component.hi);
                    self.merge
                        .queues
                        .push((start, self.merge.segments.len() as u32));
                    child = component.end as usize;
                }
                self.merge_segments(first_queue, lo);
                self.merge.segments.truncate(first_segment);
                self.merge.queues.truncate(first_queue);
            }
            // Ordered with the memory-greedy heuristic on the sub-DAG
            // the core induces; boundary files are folded into the
            // external load.
            SpKind::Complex => {
                let core = Core {
                    d: self.d,
                    lo: node.lo,
                    hi: node.hi,
                };
                greedy_into(self.view, &core, self.greedy, &mut self.order[lo..hi]);
            }
        }
    }

    /// Simulates `order[lo..hi]` as one component and cuts it into atomic
    /// segments at the running minima of its relative memory curve.
    fn segment_profile(&mut self, lo: u32, hi: u32) {
        let (view, d) = (self.view, self.d);
        let order = &self.order[lo as usize..hi as usize];
        // Relative curve: value after each task, and transient during it.
        // Boundary inputs are live from the start; we track absolute
        // values and subtract the running baseline at segment starts.
        let mut live = 0.0f64;
        for &u in order {
            for (v, volume) in view.in_edges(u) {
                if d.index_in(v, lo, hi).is_none() {
                    live += volume;
                }
            }
        }
        let start0 = live;
        let mut seg_lo = lo;
        let mut seg_start = start0;
        let mut seg_peak = start0;
        let mut running_min = start0;
        for (i, &u) in order.iter().enumerate() {
            let (outputs, inputs) = (view.out_sum(u), view.in_sum(u));
            let current = live + view.memory(u) + outputs + view.ext(u);
            seg_peak = seg_peak.max(current);
            live += outputs - inputs;
            let next = lo + i as u32 + 1;
            if live < running_min - 1e-12 || next == hi {
                // New record minimum (or end): close the segment.
                running_min = running_min.min(live);
                self.merge.segments.push(Segment {
                    lo: seg_lo,
                    hi: next,
                    peak: seg_peak - seg_start,
                    delta: live - seg_start,
                });
                seg_lo = next;
                seg_start = live;
                seg_peak = live;
            }
        }
    }

    /// Merges the segment queues `queues[first_queue..]` by repeatedly
    /// emitting the best-ranked available head segment (heads only:
    /// within a component the segment order is fixed) and writes the
    /// merged order back over `order[lo..]`. Runs in `O(S log Q)`.
    fn merge_segments(&mut self, first_queue: usize, lo: usize) {
        let MergeScratch {
            segments,
            queues,
            heads,
            merged,
        } = &mut *self.merge;
        let queues = &queues[first_queue..];
        let head = |queue: usize, index: u32| {
            let (class, key) = rank(&segments[index as usize]);
            Head {
                class,
                key,
                queue: queue as u32,
                index,
            }
        };
        // Every component holds a task, so no queue is empty.
        heads.extend(queues.iter().enumerate().map(|(qi, q)| head(qi, q.0)));
        merged.clear();
        while let Some(Head { queue, index, .. }) = heads.pop() {
            let segment = segments[index as usize];
            merged.extend_from_slice(&self.order[segment.lo as usize..segment.hi as usize]);
            if index + 1 < queues[queue as usize].1 {
                heads.push(head(queue as usize, index + 1));
            }
        }
        self.order[lo..lo + merged.len()].copy_from_slice(merged);
    }
}

/// Linearised priority of a segment under the classical pairwise rule
/// ("run `x` before `y` iff `max(P_x, D_x + P_y) ≤ max(P_y, D_y + P_x)`"):
/// memory-releasing segments (`D ≤ 0`) come first ordered by increasing
/// peak, then memory-accumulating segments ordered by decreasing `P − D`.
/// This total order is consistent with the pairwise rule, which lets the
/// merge use a heap instead of rescanning all queue heads.
fn rank(s: &Segment) -> (u8, f64) {
    if s.delta <= 0.0 {
        (0, s.peak)
    } else {
        (1, -(s.peak - s.delta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::liveness::{brute_force_min, traversal_peak};
    use dhp_dag::builder;
    use dhp_dag::topo::is_topological_order;

    #[test]
    fn sp_order_is_topological() {
        for seed in 0..15 {
            let g = builder::gnp_dag_weighted(25, 0.15, seed);
            let n = g.node_count();
            let order = sp_order(&g, &vec![0.0; n]);
            assert!(is_topological_order(&g, &order), "seed {seed}");
        }
    }

    #[test]
    fn optimal_on_out_trees() {
        // A star of chains from one root: classic Liu territory.
        // root -> chain_i of length 2, with distinct file sizes.
        let mut g = Dag::new();
        let root = g.add_node(0.0, 1.0);
        for i in 0..4 {
            let a = g.add_node(0.0, 1.0 + i as f64);
            let b = g.add_node(0.0, 1.0);
            g.add_edge(root, a, 2.0 + 3.0 * i as f64);
            g.add_edge(a, b, 1.0);
        }
        let n = g.node_count();
        let ext = vec![0.0; n];
        let order = sp_order(&g, &ext);
        let peak = traversal_peak(&g, &ext, &order);
        assert!(
            (peak - brute_force_min(&g, &ext)).abs() < 1e-9,
            "sp order peak {peak} vs optimum {}",
            brute_force_min(&g, &ext)
        );
    }

    #[test]
    fn optimal_on_fork_joins() {
        let g = builder::fork_join(4, 1.0, 3.0, 2.0);
        let n = g.node_count();
        let ext = vec![0.0; n];
        let order = sp_order(&g, &ext);
        let peak = traversal_peak(&g, &ext, &order);
        assert!((peak - brute_force_min(&g, &ext)).abs() < 1e-9);
    }

    #[test]
    fn handles_complex_cores() {
        // N-graph plus surrounding chain.
        let mut g = Dag::new();
        let s = g.add_node(1.0, 1.0);
        let s1 = g.add_node(1.0, 2.0);
        let s2 = g.add_node(1.0, 2.0);
        let t1 = g.add_node(1.0, 2.0);
        let t2 = g.add_node(1.0, 2.0);
        let t = g.add_node(1.0, 1.0);
        g.add_edge(s, s1, 1.0);
        g.add_edge(s, s2, 1.0);
        g.add_edge(s1, t1, 1.0);
        g.add_edge(s1, t2, 1.0);
        g.add_edge(s2, t2, 1.0);
        g.add_edge(t1, t, 1.0);
        g.add_edge(t2, t, 1.0);
        let n = g.node_count();
        let ext = vec![0.0; n];
        let order = sp_order(&g, &ext);
        assert!(is_topological_order(&g, &order));
    }

    #[test]
    fn segment_profiles_net_to_boundary_delta() {
        let g = builder::chain(5, 1.0, 2.0, 3.0);
        let mut view = BlockView::new();
        view.fill_graph(&g);
        let mut order: Vec<u32> = (0..5).collect();
        let mut d = Decomposition::default();
        decompose_into(&view, &order, &mut d);
        let mut merge = MergeScratch::default();
        let mut traverser = Traverser {
            view: &view,
            d: &d,
            merge: &mut merge,
            greedy: &mut GreedyScratch::default(),
            order: &mut order,
        };
        traverser.segment_profile(0, 5);
        let segs = &merge.segments;
        let total_delta: f64 = segs.iter().map(|s| s.delta).sum();
        // closed component: no boundary files, net zero
        assert!(total_delta.abs() < 1e-9);
        let tasks: u32 = segs.iter().map(|s| s.hi - s.lo).sum();
        assert_eq!(tasks, 5);
    }
}
