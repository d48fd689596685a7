//! Recursive series/parallel/complex decomposition of a DAG.
//!
//! The decomposition generalises two-terminal series-parallel (SP)
//! recognition to arbitrary DAGs:
//!
//! * **Series split** — fix a topological order of the node set and add a
//!   virtual source/sink. A node is a *separator* iff no edge (including
//!   the virtual ones) spans its position; every source-to-sink execution
//!   must pass through each separator, and no edge jumps across one, so
//!   the set decomposes into the sequence of separators and the intervals
//!   between them.
//! * **Parallel split** — the nodes of an interval between two separators
//!   fall apart into weakly connected components with no edges between
//!   them: they can be interleaved arbitrarily.
//! * **Complex core** — a set with no separators and a single connected
//!   component is not (node-)series-parallel; it is kept as an opaque
//!   core and ordered heuristically by the caller.
//!
//! On a two-terminal node-SP graph the result contains no `Complex`
//! nodes, which is what makes the Liu-style merge in
//! [`crate::sptraversal`] exact there.
//!
//! The decomposition works on one buffer holding the node set in
//! topological order: a series stage is a sub-range of it, a parallel
//! split sorts a range by component (a stable counting sort, so every
//! component keeps its topological order and components stay ordered by
//! their first node) and each component is a sub-range again. The tree
//! is therefore a flat pre-order list of `(kind, range)` nodes, written
//! into tables the caller's workspace owns; [`decompose`] turns it into
//! an owned [`SpTree`], [`crate::sptraversal`] orders straight from it.

use dhp_dag::{BlockView, Dag, NodeId};

/// The decomposition tree.
#[derive(Clone, Debug, PartialEq)]
pub enum SpTree {
    /// A single task.
    Leaf(NodeId),
    /// Stages executed strictly one after another.
    Series(Vec<SpTree>),
    /// Independent components with no edges between them.
    Parallel(Vec<SpTree>),
    /// A non-series-parallel core (nodes in topological order).
    Complex(Vec<NodeId>),
}

impl SpTree {
    /// Number of tasks covered by this subtree.
    pub fn len(&self) -> usize {
        match self {
            SpTree::Leaf(_) => 1,
            SpTree::Series(c) | SpTree::Parallel(c) => c.iter().map(SpTree::len).sum(),
            SpTree::Complex(v) => v.len(),
        }
    }

    /// True if the subtree covers no tasks (never produced by
    /// [`decompose`]; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if the decomposition contains no `Complex` core, i.e. the
    /// graph is (two-terminal node-)series-parallel.
    pub fn is_series_parallel(&self) -> bool {
        match self {
            SpTree::Leaf(_) => true,
            SpTree::Series(c) | SpTree::Parallel(c) => c.iter().all(SpTree::is_series_parallel),
            SpTree::Complex(_) => false,
        }
    }

    /// All covered tasks, in tree order.
    pub fn tasks(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.len());
        self.collect(&mut out);
        out
    }

    fn collect(&self, out: &mut Vec<NodeId>) {
        match self {
            SpTree::Leaf(u) => out.push(*u),
            SpTree::Series(c) | SpTree::Parallel(c) => {
                for t in c {
                    t.collect(out);
                }
            }
            SpTree::Complex(v) => out.extend_from_slice(v),
        }
    }
}

/// Decomposes the whole graph.
///
/// # Panics
/// Panics if `g` is cyclic.
pub fn decompose(g: &Dag) -> SpTree {
    if g.is_empty() {
        return SpTree::Series(Vec::new());
    }
    let ws = &mut crate::workspace::Workspace::default();
    ws.view.fill_graph(g);
    ws.topo_order("decompose requires a DAG");
    decompose_into(&ws.view, &ws.topo, &mut ws.decomp);
    flatten(ws.decomp.to_tree(0, ws.view.members()))
}

/// What a node of the flat tree is; the [`SpTree`] variants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SpKind {
    Leaf,
    Series,
    Parallel,
    Complex,
}

/// One node of the flat tree: it covers `nodes[lo..hi]` of the
/// decomposition's buffer, and its subtree is `tree[self..end]` in
/// pre-order (the first child is the next entry, a sibling starts where
/// the previous one's subtree ends).
#[derive(Clone, Copy, Debug)]
pub(crate) struct SpNode {
    pub kind: SpKind,
    pub lo: u32,
    pub hi: u32,
    pub end: u32,
}

/// The flat decomposition of one view plus the scratch that built it.
/// Every table is indexed by view-local id or by buffer position and is
/// rewritten from the start by the next [`decompose_into`]: nothing
/// carries over between views.
#[derive(Debug, Default)]
pub(crate) struct Decomposition {
    /// The view's tasks: topological order on entry, tree order after.
    pub nodes: Vec<u32>,
    /// `pos[u]` = index of task `u` in `nodes`, so "is `u` in the set
    /// `nodes[lo..hi]`" is a range check ([`Self::index_in`]).
    pos: Vec<u32>,
    /// Pre-order tree; `tree[0]` is the root.
    pub tree: Vec<SpNode>,
    /// `sep[p]`: `nodes[p]` is a separator of the set being split.
    /// Written per set over its own range only, so a caller walking its
    /// range left to right may recurse into what it has passed.
    sep: Vec<bool>,
    /// Difference array of the current set (`m + 1` entries); dead
    /// before any recursion.
    diff: Vec<i64>,
    /// Component of each task in the range being split.
    comp: Vec<u32>,
    /// Next free slot of each component during the counting sort.
    slot: Vec<u32>,
    /// The range being sorted, by component.
    sorted: Vec<u32>,
    /// Depth-first stack of the component search.
    stack: Vec<u32>,
    /// Stack of component end positions: a split pushes one per
    /// component, its caller pops them when it has recursed into all.
    ends: Vec<u32>,
}

const UNSEEN: u32 = u32::MAX;

/// Decomposes all of `view`, given its topological order.
pub(crate) fn decompose_into(view: &BlockView, topo: &[u32], d: &mut Decomposition) {
    let n = topo.len();
    debug_assert!(n > 0 && n == view.len());
    d.nodes.clear();
    d.nodes.extend_from_slice(topo);
    d.pos.resize(n, 0);
    for (i, &u) in topo.iter().enumerate() {
        d.pos[u as usize] = i as u32;
    }
    d.sep.resize(n, false);
    d.comp.resize(n, UNSEEN);
    d.sorted.resize(n, 0);
    d.tree.clear();
    d.ends.clear();
    d.decompose_set(view, 0, n as u32);
}

impl Decomposition {
    /// Position of `v` relative to `lo` if it lies in `nodes[lo..hi]`.
    #[inline]
    pub fn index_in(&self, v: u32, lo: u32, hi: u32) -> Option<u32> {
        let p = self.pos[v as usize];
        (lo <= p && p < hi).then(|| p - lo)
    }

    /// Opens a tree node over `nodes[lo..hi]`; [`Self::close`] it after
    /// its children.
    fn open(&mut self, kind: SpKind, lo: u32, hi: u32) -> usize {
        self.tree.push(SpNode {
            kind,
            lo,
            hi,
            end: self.tree.len() as u32 + 1,
        });
        self.tree.len() - 1
    }

    fn close(&mut self, node: usize) {
        self.tree[node].end = self.tree.len() as u32;
    }

    /// Decomposes the set `nodes[lo..hi]` (ascending topological
    /// position) and appends its subtree.
    fn decompose_set(&mut self, view: &BlockView, lo: u32, hi: u32) {
        if hi - lo == 1 {
            self.open(SpKind::Leaf, lo, hi);
            return;
        }
        if !self.mark_separators(view, lo, hi) {
            // No series structure: try parallel split.
            let base = self.ends.len();
            if self.split_components(view, lo, hi) == 1 {
                self.open(SpKind::Complex, lo, hi);
            } else {
                self.parallel(view, lo, hi, base);
            }
            self.ends.truncate(base);
            return;
        }
        // Series structure: separators are singleton stages; maximal runs of
        // non-separators between them are parallel-decomposed intervals.
        let series = self.open(SpKind::Series, lo, hi);
        let mut i = lo;
        while i < hi {
            if self.sep[i as usize] {
                self.open(SpKind::Leaf, i, i + 1);
                i += 1;
                continue;
            }
            let start = i;
            while i < hi && !self.sep[i as usize] {
                i += 1;
            }
            let base = self.ends.len();
            if self.split_components(view, start, i) == 1 {
                self.decompose_set(view, start, i);
            } else {
                self.parallel(view, start, i, base);
            }
            self.ends.truncate(base);
        }
        self.close(series);
    }

    /// Appends the parallel node over `nodes[lo..hi]`, whose components
    /// end at the positions `ends[base..]`.
    fn parallel(&mut self, view: &BlockView, lo: u32, hi: u32, base: usize) {
        let parallel = self.open(SpKind::Parallel, lo, hi);
        let mut start = lo;
        for c in base..self.ends.len() {
            let end = self.ends[c];
            self.decompose_set(view, start, end);
            start = end;
        }
        self.close(parallel);
    }

    /// Sets `sep[p]` for every `p` of `lo..hi`: `nodes[p]` is a
    /// separator iff no edge of the set, nor a virtual edge from the
    /// source or to the sink, spans its position. Returns whether there
    /// is any.
    fn mark_separators(&mut self, view: &BlockView, lo: u32, hi: u32) -> bool {
        let m = (hi - lo) as usize;
        // cover[i] = number of edges spanning position i (exclusive of
        // endpoints), built with a difference array.
        self.diff.clear();
        self.diff.resize(m + 1, 0);
        for i in 0..m {
            let u = self.nodes[lo as usize + i];
            let mut internal_out = 0usize;
            for &v in view.children(u) {
                let Some(j) = self.index_in(v, lo, hi) else {
                    continue;
                };
                let j = j as usize;
                internal_out += 1;
                if j > i + 1 {
                    // covers positions i+1..=j-1
                    self.diff[i + 1] += 1;
                    self.diff[j] -= 1;
                }
            }
            let internal_in = view
                .parents(u)
                .iter()
                .filter(|&&v| self.index_in(v, lo, hi).is_some())
                .count();
            // Virtual source edges to every internal source: cover 0..=i-1.
            // Virtual sink edges from every internal sink: cover i+1..=m-1.
            if internal_in == 0 && i >= 1 {
                self.diff[0] += 1;
                self.diff[i] -= 1;
            }
            if internal_out == 0 && i + 1 < m {
                self.diff[i + 1] += 1;
                self.diff[m] -= 1;
            }
        }
        let mut any = false;
        let mut cover = 0i64;
        for i in 0..m {
            cover += self.diff[i];
            self.sep[lo as usize + i] = cover == 0;
            any |= cover == 0;
        }
        any
    }

    /// Sorts `nodes[lo..hi]` by weakly connected component of the
    /// sub-DAG the range induces (edges with both endpoints inside):
    /// components ordered by their first node, each keeping its
    /// ascending topological position. Pushes the end position of every
    /// component onto `ends` and returns how many there are.
    fn split_components(&mut self, view: &BlockView, lo: u32, hi: u32) -> usize {
        let range = lo as usize..hi as usize;
        for p in range.clone() {
            self.comp[self.nodes[p] as usize] = UNSEEN;
        }
        let mut count = 0u32;
        for p in range.clone() {
            let root = self.nodes[p];
            if self.comp[root as usize] != UNSEEN {
                continue;
            }
            self.comp[root as usize] = count;
            self.stack.push(root);
            while let Some(u) = self.stack.pop() {
                for &v in view.children(u).iter().chain(view.parents(u)) {
                    if self.index_in(v, lo, hi).is_some() && self.comp[v as usize] == UNSEEN {
                        self.comp[v as usize] = count;
                        self.stack.push(v);
                    }
                }
            }
            count += 1;
        }
        if count == 1 {
            self.ends.push(hi);
            return 1;
        }
        // Counting sort by component, stable.
        self.slot.clear();
        self.slot.resize(count as usize, 0);
        for p in range.clone() {
            self.slot[self.comp[self.nodes[p] as usize] as usize] += 1;
        }
        let mut start = lo;
        for slot in &mut self.slot {
            let size = *slot;
            *slot = start;
            start += size;
            self.ends.push(start);
        }
        for p in range.clone() {
            let u = self.nodes[p];
            let slot = &mut self.slot[self.comp[u as usize] as usize];
            self.sorted[*slot as usize] = u;
            *slot += 1;
        }
        for p in range {
            let u = self.sorted[p];
            self.nodes[p] = u;
            self.pos[u as usize] = p as u32;
        }
        count as usize
    }

    /// The subtree at `tree[t]` as an owned [`SpTree`] over the ids
    /// `members` gives the view's tasks.
    fn to_tree(&self, t: usize, members: &[NodeId]) -> SpTree {
        let SpNode { kind, lo, hi, end } = self.tree[t];
        let task = |p: u32| members[self.nodes[p as usize] as usize];
        let children = || {
            let mut out = Vec::new();
            let mut child = t + 1;
            while child < end as usize {
                out.push(self.to_tree(child, members));
                child = self.tree[child].end as usize;
            }
            out
        };
        match kind {
            SpKind::Leaf => SpTree::Leaf(task(lo)),
            SpKind::Series => SpTree::Series(children()),
            SpKind::Parallel => SpTree::Parallel(children()),
            SpKind::Complex => SpTree::Complex((lo..hi).map(task).collect()),
        }
    }
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
            match <[SpTree; 1]>::try_from(out) {
                Ok([only]) => only,
                Err(out) => SpTree::Series(out),
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
            match <[SpTree; 1]>::try_from(out) {
                Ok([only]) => only,
                Err(out) => SpTree::Parallel(out),
            }
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhp_dag::builder;

    #[test]
    fn chain_is_series_of_leaves() {
        let g = builder::chain(4, 1.0, 1.0, 1.0);
        let t = decompose(&g);
        assert!(t.is_series_parallel());
        match &t {
            SpTree::Series(c) => {
                assert_eq!(c.len(), 4);
                assert!(c.iter().all(|x| matches!(x, SpTree::Leaf(_))));
            }
            other => panic!("expected series, got {other:?}"),
        }
    }

    #[test]
    fn fork_join_is_series_with_parallel_middle() {
        let g = builder::fork_join(3, 1.0, 1.0, 1.0);
        let t = decompose(&g);
        assert!(t.is_series_parallel());
        match &t {
            SpTree::Series(c) => {
                assert_eq!(c.len(), 3);
                assert!(matches!(c[0], SpTree::Leaf(_)));
                match &c[1] {
                    SpTree::Parallel(p) => assert_eq!(p.len(), 3),
                    other => panic!("expected parallel middle, got {other:?}"),
                }
                assert!(matches!(c[2], SpTree::Leaf(_)));
            }
            other => panic!("expected series, got {other:?}"),
        }
    }

    #[test]
    fn n_graph_is_complex() {
        // s1->t1, s1->t2, s2->t2: the classic non-SP "N".
        let mut g = Dag::new();
        let s1 = g.add_node(1.0, 1.0);
        let s2 = g.add_node(1.0, 1.0);
        let t1 = g.add_node(1.0, 1.0);
        let t2 = g.add_node(1.0, 1.0);
        g.add_edge(s1, t1, 1.0);
        g.add_edge(s1, t2, 1.0);
        g.add_edge(s2, t2, 1.0);
        let t = decompose(&g);
        assert!(!t.is_series_parallel());
        assert!(matches!(t, SpTree::Complex(_)));
    }

    #[test]
    fn disconnected_graphs_are_parallel() {
        let mut g = Dag::new();
        let a = g.add_node(1.0, 1.0);
        let b = g.add_node(1.0, 1.0);
        let c = g.add_node(1.0, 1.0);
        let d = g.add_node(1.0, 1.0);
        g.add_edge(a, b, 1.0);
        g.add_edge(c, d, 1.0);
        let t = decompose(&g);
        assert!(t.is_series_parallel());
        assert!(matches!(t, SpTree::Parallel(_)));
    }

    #[test]
    fn tasks_cover_everything_once() {
        for seed in 0..10 {
            let g = builder::gnp_dag(20, 0.2, seed);
            let t = decompose(&g);
            let mut tasks = t.tasks();
            assert_eq!(tasks.len(), 20);
            tasks.sort();
            tasks.dedup();
            assert_eq!(tasks.len(), 20);
        }
    }

    #[test]
    fn tree_order_is_topological() {
        for seed in 0..10 {
            let g = builder::gnp_dag(25, 0.15, seed);
            let t = decompose(&g);
            // series order + any parallel interleave must be topological;
            // the canonical collect order is one such interleave.
            assert!(dhp_dag::topo::is_topological_order(&g, &t.tasks()));
        }
    }

    #[test]
    fn diamond_with_shortcut_still_sp() {
        // s->a->t, s->b->t, s->t
        let mut g = Dag::new();
        let s = g.add_node(1.0, 1.0);
        let a = g.add_node(1.0, 1.0);
        let b = g.add_node(1.0, 1.0);
        let t = g.add_node(1.0, 1.0);
        g.add_edge(s, a, 1.0);
        g.add_edge(s, b, 1.0);
        g.add_edge(a, t, 1.0);
        g.add_edge(b, t, 1.0);
        g.add_edge(s, t, 1.0);
        let tree = decompose(&g);
        assert!(tree.is_series_parallel());
    }

    #[test]
    fn deep_nested_structure() {
        // series of two fork-joins sharing a middle separator
        let mut g = Dag::new();
        let s = g.add_node(1.0, 1.0);
        let a = g.add_node(1.0, 1.0);
        let b = g.add_node(1.0, 1.0);
        let mid = g.add_node(1.0, 1.0);
        let c = g.add_node(1.0, 1.0);
        let d = g.add_node(1.0, 1.0);
        let t = g.add_node(1.0, 1.0);
        for &x in &[a, b] {
            g.add_edge(s, x, 1.0);
            g.add_edge(x, mid, 1.0);
        }
        for &x in &[c, d] {
            g.add_edge(mid, x, 1.0);
            g.add_edge(x, t, 1.0);
        }
        let tree = decompose(&g);
        assert!(tree.is_series_parallel());
        match tree {
            SpTree::Series(stages) => assert_eq!(stages.len(), 5),
            other => panic!("expected series, got {other:?}"),
        }
    }
}
