//! The `Dag`-building pipeline the flat kernel replaced, kept as the
//! bit-for-bit reference of the property tests: every strategy below
//! walks a [`Dag`], allocates its tables per call and builds an owned
//! [`SpTree`], exactly as the crate did before the workspace existed.

use crate::spdecomp::SpTree;
use crate::Traversal;
use dhp_dag::util::BitSet;
use dhp_dag::{Dag, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The old `best_traversal`: topological, greedy, SP merge; first
/// strict improvement wins.
pub fn best_traversal(g: &Dag, ext: &[f64]) -> Traversal {
    assert_eq!(ext.len(), g.node_count(), "ext length mismatch");
    if g.is_empty() {
        return Traversal {
            order: Vec::new(),
            peak: 0.0,
        };
    }
    let topo = dhp_dag::topo::topo_sort(g).expect("best_traversal requires a DAG");

    let mut best = Traversal {
        peak: traversal_peak(g, ext, &topo),
        order: topo,
    };

    let greedy = greedy_order(g, ext);
    let gp = traversal_peak(g, ext, &greedy);
    if gp < best.peak {
        best = Traversal {
            order: greedy,
            peak: gp,
        };
    }

    let sp = sp_order(g, ext);
    let sp_peak = traversal_peak(g, ext, &sp);
    if sp_peak < best.peak {
        best = Traversal {
            order: sp,
            peak: sp_peak,
        };
    }

    best
}

/// The old `liveness::traversal_peak`.
pub fn traversal_peak(g: &Dag, ext: &[f64], order: &[NodeId]) -> f64 {
    debug_assert_eq!(order.len(), g.node_count());
    debug_assert!(dhp_dag::topo::is_topological_order(g, order));
    let mut live = 0.0f64; // resident internal files
    let mut peak = 0.0f64;
    for &u in order {
        let node = g.node(u);
        // Outputs of u are written while u runs; inputs of u are already
        // counted in `live` (produced earlier), external load is transient.
        let outputs: f64 = g.out_edges(u).iter().map(|&e| g.edge(e).volume).sum();
        let inputs: f64 = g.in_edges(u).iter().map(|&e| g.edge(e).volume).sum();
        let current = live + node.memory + outputs + ext[u.idx()];
        peak = peak.max(current);
        live += outputs - inputs;
    }
    debug_assert!(
        live.abs() < 1e-6 * (1.0 + g.total_volume()),
        "all internal files must be consumed, residual {live}"
    );
    peak
}

/// Min-heap entry: (delta, static transient part, id).
struct Ready {
    delta: f64,
    transient: f64,
    id: NodeId,
}

impl PartialEq for Ready {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Ready {}
impl PartialOrd for Ready {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ready {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: reverse for min-first ordering.
        other
            .delta
            .total_cmp(&self.delta)
            .then(other.transient.total_cmp(&self.transient))
            .then(other.id.cmp(&self.id))
    }
}

/// The old `greedy::greedy_order`.
pub fn greedy_order(g: &Dag, ext: &[f64]) -> Vec<NodeId> {
    let n = g.node_count();
    let mut indeg: Vec<usize> = g.node_ids().map(|u| g.in_degree(u)).collect();

    // Per-node input/output volume sums.
    let mut in_sum = vec![0.0f64; n];
    let mut out_sum = vec![0.0f64; n];
    for e in g.edge_ids() {
        let ed = g.edge(e);
        out_sum[ed.src.idx()] += ed.volume;
        in_sum[ed.dst.idx()] += ed.volume;
    }

    let entry = |u: NodeId| Ready {
        delta: out_sum[u.idx()] - in_sum[u.idx()],
        transient: g.node(u).memory + out_sum[u.idx()] + ext[u.idx()],
        id: u,
    };

    let mut ready: BinaryHeap<Ready> = g
        .node_ids()
        .filter(|&u| g.in_degree(u) == 0)
        .map(entry)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(Ready { id: u, .. }) = ready.pop() {
        order.push(u);
        for v in g.children(u) {
            indeg[v.idx()] -= 1;
            if indeg[v.idx()] == 0 {
                ready.push(entry(v));
            }
        }
    }
    debug_assert_eq!(order.len(), n, "graph must be acyclic");
    order
}

/// The old `spdecomp::decompose`.
pub fn decompose(g: &Dag) -> SpTree {
    let order = dhp_dag::topo::topo_sort(g).expect("decompose requires a DAG");
    if order.is_empty() {
        return SpTree::Series(Vec::new());
    }
    decompose_set(g, order)
}

/// Decomposes a node subset given in ascending global topological
/// position.
fn decompose_set(g: &Dag, nodes: Vec<NodeId>) -> SpTree {
    let m = nodes.len();
    if m == 1 {
        return SpTree::Leaf(nodes[0]);
    }
    // Local index of each node (usize::MAX = not in set), allocated
    // per call.
    let mut local = vec![usize::MAX; g.node_count()];
    for (i, &u) in nodes.iter().enumerate() {
        local[u.idx()] = i;
    }

    // cover[i] = number of edges spanning position i (exclusive of
    // endpoints), built with a difference array.
    let mut diff = vec![0i64; m + 1];
    let span = |lo: usize, hi: usize, diff: &mut Vec<i64>| {
        // covers positions lo..=hi
        if lo <= hi {
            diff[lo] += 1;
            diff[hi + 1] -= 1;
        }
    };
    let mut internal_in = vec![0usize; m];
    let mut internal_out = vec![0usize; m];
    for (i, &u) in nodes.iter().enumerate() {
        for &e in g.out_edges(u) {
            let v = g.edge(e).dst;
            let j = local[v.idx()];
            if j != usize::MAX {
                internal_out[i] += 1;
                internal_in[j] += 1;
                if j > i + 1 {
                    span(i + 1, j - 1, &mut diff);
                }
            }
        }
    }
    // Virtual source edges to every internal source v: cover 0..iv-1.
    // Virtual sink edges from every internal sink v: cover iv+1..m-1.
    for i in 0..m {
        if internal_in[i] == 0 && i >= 1 {
            span(0, i - 1, &mut diff);
        }
        if internal_out[i] == 0 && i + 1 < m {
            span(i + 1, m - 1, &mut diff);
        }
    }
    let mut cover = vec![0i64; m];
    let mut acc = 0i64;
    for i in 0..m {
        acc += diff[i];
        cover[i] = acc;
    }

    let separators: Vec<usize> = (0..m).filter(|&i| cover[i] == 0).collect();

    if separators.is_empty() {
        // No series structure: try parallel split.
        let comps = weak_components(g, &nodes);
        if comps.len() == 1 {
            return SpTree::Complex(nodes);
        }
        let children = comps.into_iter().map(|c| decompose_set(g, c)).collect();
        return flatten(SpTree::Parallel(children));
    }

    // Series structure: separators are singleton stages; maximal runs of
    // non-separators between them are parallel-decomposed intervals.
    let is_sep: Vec<bool> = {
        let mut v = vec![false; m];
        for &s in &separators {
            v[s] = true;
        }
        v
    };
    let mut stages: Vec<SpTree> = Vec::new();
    let mut i = 0usize;
    while i < m {
        if is_sep[i] {
            stages.push(SpTree::Leaf(nodes[i]));
            i += 1;
        } else {
            let start = i;
            while i < m && !is_sep[i] {
                i += 1;
            }
            let interval: Vec<NodeId> = nodes[start..i].to_vec();
            let comps = weak_components(g, &interval);
            if comps.len() == 1 {
                stages.push(decompose_set(g, interval));
            } else {
                let children = comps.into_iter().map(|c| decompose_set(g, c)).collect();
                stages.push(flatten(SpTree::Parallel(children)));
            }
        }
    }
    flatten(SpTree::Series(stages))
}

/// Weakly connected components of the induced subgraph on `subset`
/// (edges with both endpoints inside). Components are returned with
/// nodes in ascending topological position, components ordered by their
/// first node.
fn weak_components(g: &Dag, subset: &[NodeId]) -> Vec<Vec<NodeId>> {
    let mut in_subset = vec![false; g.node_count()];
    for &u in subset {
        in_subset[u.idx()] = true;
    }
    let mut comp = vec![usize::MAX; g.node_count()];
    let mut next = 0usize;
    for &root in subset {
        if comp[root.idx()] != usize::MAX {
            continue;
        }
        let mut stack = vec![root];
        comp[root.idx()] = next;
        while let Some(u) = stack.pop() {
            let neighbours = g.children(u).chain(g.parents(u)).collect::<Vec<_>>();
            for v in neighbours {
                if in_subset[v.idx()] && comp[v.idx()] == usize::MAX {
                    comp[v.idx()] = next;
                    stack.push(v);
                }
            }
        }
        next += 1;
    }
    let mut out = vec![Vec::new(); next];
    for &u in subset {
        out[comp[u.idx()]].push(u);
    }
    out
}

/// Collapses nested single-child / same-kind nodes for canonical trees.
fn flatten(t: SpTree) -> SpTree {
    match t {
        SpTree::Series(c) => {
            let mut out = Vec::with_capacity(c.len());
            for ch in c {
                match flatten(ch) {
                    SpTree::Series(inner) => out.extend(inner),
                    other => out.push(other),
                }
            }
            if out.len() == 1 {
                out.pop().unwrap()
            } else {
                SpTree::Series(out)
            }
        }
        SpTree::Parallel(c) => {
            let mut out = Vec::with_capacity(c.len());
            for ch in c {
                match flatten(ch) {
                    SpTree::Parallel(inner) => out.extend(inner),
                    other => out.push(other),
                }
            }
            if out.len() == 1 {
                out.pop().unwrap()
            } else {
                SpTree::Parallel(out)
            }
        }
        other => other,
    }
}

/// An atomic run of tasks with its relative memory profile.
#[derive(Clone, Debug)]
struct Segment {
    tasks: Vec<NodeId>,
    /// Peak memory during the segment, relative to the segment start.
    peak: f64,
    /// Net memory delta across the segment.
    delta: f64,
}

/// The old `sptraversal::sp_order`.
pub fn sp_order(g: &Dag, ext: &[f64]) -> Vec<NodeId> {
    let tree = decompose(g);
    order_of(g, ext, &tree)
}

fn order_of(g: &Dag, ext: &[f64], tree: &SpTree) -> Vec<NodeId> {
    match tree {
        SpTree::Leaf(u) => vec![*u],
        SpTree::Series(stages) => {
            let mut out = Vec::with_capacity(tree.len());
            for s in stages {
                out.extend(order_of(g, ext, s));
            }
            out
        }
        SpTree::Parallel(children) => {
            let queues: Vec<Vec<Segment>> = children
                .iter()
                .map(|c| {
                    let order = order_of(g, ext, c);
                    segment_profile(g, ext, &order)
                })
                .collect();
            merge_segments(queues)
        }
        SpTree::Complex(nodes) => complex_order(g, ext, nodes),
    }
}

/// Orders a non-SP core with the memory-greedy heuristic on its induced
/// subgraph; boundary files are folded into the external load.
fn complex_order(g: &Dag, ext: &[f64], nodes: &[NodeId]) -> Vec<NodeId> {
    let (sub, back) = g.induced_subgraph(nodes);
    let mut member = BitSet::new(g.node_count());
    for &u in nodes {
        member.set(u.idx());
    }
    // Local external load: the global one plus boundary edges.
    let mut sub_ext = vec![0.0f64; sub.node_count()];
    for (i, &orig) in back.iter().enumerate() {
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
        sub_ext[i] = ext[orig.idx()] + boundary;
    }
    greedy_order(&sub, &sub_ext)
        .into_iter()
        .map(|u| back[u.idx()])
        .collect()
}

/// Simulates `order` as one component and cuts it into atomic segments at
/// the running minima of its relative memory curve.
fn segment_profile(g: &Dag, ext: &[f64], order: &[NodeId]) -> Vec<Segment> {
    let mut member = BitSet::new(g.node_count());
    for &u in order {
        member.set(u.idx());
    }
    // Relative curve: value after each task, and transient during it.
    // Boundary inputs are live from the start: fold them into the start
    // value so the relative curve begins at 0 and drops as they are
    // consumed... Instead we track absolute values and subtract the
    // running baseline at segment starts.
    let mut live = 0.0f64;
    for &u in order {
        for &e in g.in_edges(u) {
            if !member.get(g.edge(e).src.idx()) {
                live += g.edge(e).volume;
            }
        }
    }
    let start0 = live;
    let mut segments = Vec::new();
    let mut seg_tasks: Vec<NodeId> = Vec::new();
    let mut seg_start = start0;
    let mut seg_peak = start0;
    let mut running_min = start0;
    for (i, &u) in order.iter().enumerate() {
        let node = g.node(u);
        let outputs: f64 = g.out_edges(u).iter().map(|&e| g.edge(e).volume).sum();
        let inputs: f64 = g.in_edges(u).iter().map(|&e| g.edge(e).volume).sum();
        let current = live + node.memory + outputs + ext[u.idx()];
        seg_peak = seg_peak.max(current);
        live += outputs - inputs;
        seg_tasks.push(u);
        let last = i + 1 == order.len();
        if live < running_min - 1e-12 || last {
            // New record minimum (or end): close the segment.
            running_min = running_min.min(live);
            segments.push(Segment {
                tasks: std::mem::take(&mut seg_tasks),
                peak: seg_peak - seg_start,
                delta: live - seg_start,
            });
            seg_start = live;
            seg_peak = live;
        }
    }
    segments
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

/// Merges per-component segment queues by repeatedly emitting the
/// best-ranked available head segment (heads only: within a component the
/// segment order is fixed). Runs in `O(S log Q)`.
fn merge_segments(mut queues: Vec<Vec<Segment>>) -> Vec<NodeId> {
    struct Head {
        class: u8,
        key: f64,
        queue: usize,
        index: usize,
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

    let total: usize = queues
        .iter()
        .map(|q| q.iter().map(|s| s.tasks.len()).sum::<usize>())
        .sum();
    let mut out = Vec::with_capacity(total);
    let mut heap: BinaryHeap<Head> = queues
        .iter()
        .enumerate()
        .filter(|(_, q)| !q.is_empty())
        .map(|(qi, q)| {
            let (class, key) = rank(&q[0]);
            Head {
                class,
                key,
                queue: qi,
                index: 0,
            }
        })
        .collect();
    while let Some(Head { queue, index, .. }) = heap.pop() {
        out.append(&mut queues[queue][index].tasks);
        let next = index + 1;
        if next < queues[queue].len() {
            let (class, key) = rank(&queues[queue][next]);
            heap.push(Head {
                class,
                key,
                queue,
                index: next,
            });
        }
    }
    out
}
