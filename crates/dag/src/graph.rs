//! Core weighted DAG data structure.
//!
//! [`Dag`] keeps a workflow graph in a handful of flat arrays. Node
//! weights model workflow tasks (`work` = number of operations, `memory`
//! = working-set size); edge weights model the size of the file
//! communicated between two tasks.
//!
//! # Layout
//!
//! * `nodes: Vec<NodeData>` — `{ work, memory }`, 16 bytes a task;
//! * `edges: Vec<EdgeData>` — `{ src, dst, volume }`, 16 bytes an edge;
//! * the adjacency: per direction (out-edges, in-edges) one
//!   `Vec<EdgeId>` pool, and per node one `(start, len, cap)` span into
//!   each pool (24 bytes a task, both directions in one array). A
//!   node's edge ids sit contiguously in insertion order, so
//!   [`Dag::out_edges`] / [`Dag::in_edges`] are one bounds-checked
//!   slice of the pool. [`Dag::add_edge`] writes into the node's span;
//!   a full span grows in place when it ends the pool and otherwise
//!   moves to the end of the pool at twice its size, leaving its old
//!   slots unused;
//! * the label arena, boxed, made when the first task is labelled: all
//!   labels in one `String`, with a `(start, len)` range per task (8
//!   bytes) — [`Dag::label`], [`Dag::set_label`].
//!
//! `Clone` writes a compacted copy: each pool holds exactly the graph's
//! edge ids, node after node, and the arena exactly its live labels (an
//! arena with none left is not copied). A clone is therefore at most
//! eight heap blocks whatever its size — five unlabelled. Before, a
//! task had its own `Vec` of out-edges, `Vec` of in-edges and
//! `Option<String>` label, so a clone took up to three blocks a task
//! (88 for a 29-task recipe), and a task cost 88 bytes of weights and
//! headers before its heap blocks, against 48 bytes (40 unlabelled)
//! now. Edge ids cost 4 bytes per edge and direction either way.
//!
//! A graph built edge by edge is not compact: its arrays grow by
//! doubling and a moved span leaves its old slots behind, so a
//! generated 10,000-task blast workflow held 1.92 MiB against its
//! clone's 1.04 MiB. [`Dag::shrink_to_fit`] puts it in the clone's
//! layout; every loader (the workflow generator, DOT, WfCommons) ends
//! with it, so a loaded graph holds exactly the bytes of its clone.
//!
//! The structure itself does *not* enforce acyclicity on every mutation
//! (the partitioning algorithms temporarily build candidate graphs and
//! check them); use [`crate::cycles::is_cyclic`] or
//! [`Dag::check_acyclic`] to validate.

use std::fmt;

/// Dense index of a node (task) inside a [`Dag`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Dense index of a directed edge inside a [`Dag`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The index as `usize`, for indexing side tables.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The index as `usize`, for indexing side tables.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Payload of a node: a workflow task. Its label, if any, lives in the
/// graph's label arena ([`Dag::label`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NodeData {
    /// Number of operations `w_u`; execution time on processor `p_j` is
    /// `work / s_j`.
    pub work: f64,
    /// Task-private memory weight `m_u` (excludes input/output files).
    pub memory: f64,
}

/// Payload of an edge: a produced/consumed file.
#[derive(Clone, Debug, PartialEq)]
pub struct EdgeData {
    /// Source task (producer of the file).
    pub src: NodeId,
    /// Target task (consumer of the file).
    pub dst: NodeId,
    /// Communication volume `c_{u,v}` (file size).
    pub volume: f64,
}

/// Where one node's edge ids sit in one direction's pool: `len` ids
/// from `start`, with room for `cap`.
#[derive(Clone, Copy, Debug, Default)]
struct Span {
    start: u32,
    len: u32,
    cap: u32,
}

/// A direction of the adjacency: the index of its pool and span.
#[derive(Clone, Copy)]
enum Dir {
    Out = 0,
    In = 1,
}

/// The adjacency store: per direction, every node's edge ids in one
/// pool, node by node in insertion order; per node, its span in each
/// pool (see the module docs).
#[derive(Debug, Default)]
struct Adjacency {
    pools: [Vec<EdgeId>; 2],
    spans: Vec<[Span; 2]>,
}

impl Adjacency {
    fn with_capacity(nodes: usize, edges: usize) -> Self {
        Self {
            pools: [Vec::with_capacity(edges), Vec::with_capacity(edges)],
            spans: Vec::with_capacity(nodes),
        }
    }

    /// A node with no edges yet. Its empty spans point at the ends of
    /// the pools, so its first edge lands there unless another node's
    /// has taken that slot first.
    fn push_node(&mut self) {
        let empty = self.pools.each_ref().map(|pool| Span {
            start: pool_index(pool.len()),
            len: 0,
            cap: 0,
        });
        self.spans.push(empty);
    }

    /// Appends `e` to node `u`'s edges in direction `dir`.
    fn push_edge(&mut self, dir: Dir, u: NodeId, e: EdgeId) {
        let pool = &mut self.pools[dir as usize];
        let span = &mut self.spans[u.idx()][dir as usize];
        if span.len == span.cap {
            let (start, len) = (span.start as usize, span.len as usize);
            if start + len == pool.len() {
                // The span ends the pool: grow it in place.
                pool.push(e);
                span.len += 1;
                span.cap += 1;
                return;
            }
            // Move the span to the end of the pool at twice its size.
            let moved = pool.len();
            pool.extend_from_within(start..start + len);
            let cap = (2 * len).max(1);
            pool.resize(moved + cap, EdgeId(u32::MAX));
            span.start = pool_index(moved);
            span.cap = pool_index(cap);
        }
        pool[span.start as usize + span.len as usize] = e;
        span.len += 1;
    }

    #[inline]
    fn of(&self, dir: Dir, u: NodeId) -> &[EdgeId] {
        let span = self.spans[u.idx()][dir as usize];
        let start = span.start as usize;
        &self.pools[dir as usize][start..start + span.len as usize]
    }

    #[inline]
    fn len_of(&self, dir: Dir, u: NodeId) -> usize {
        self.spans[u.idx()][dir as usize].len as usize
    }
}

/// A compacted copy: in each pool, every node's edge ids back to back
/// in node order, every span full, no unused slot.
impl Clone for Adjacency {
    fn clone(&self) -> Self {
        let mut spans = self.spans.clone();
        let pools = [0, 1].map(|dir| {
            let mut pool = Vec::with_capacity(spans.iter().map(|s| s[dir].len as usize).sum());
            for span in spans.iter_mut().map(|s| &mut s[dir]) {
                let first = span.start as usize;
                span.start = pool_index(pool.len());
                span.cap = span.len;
                pool.extend_from_slice(&self.pools[dir][first..first + span.len as usize]);
            }
            pool
        });
        Self { pools, spans }
    }
}

/// `i` as a pool offset. Pools and the label arena are indexed by `u32`
/// like the ids they hold.
fn pool_index(i: usize) -> u32 {
    assert!(i <= u32::MAX as usize, "graph storage exceeds u32 offsets");
    i as u32
}

/// Where one node's label sits in the arena, or [`NO_LABEL`].
#[derive(Clone, Copy, Debug, PartialEq)]
struct TextRange {
    start: u32,
    len: u32,
}

/// The range of a task without a label.
const NO_LABEL: TextRange = TextRange {
    start: u32::MAX,
    len: 0,
};

/// Task labels: one text arena and one range per node.
#[derive(Debug)]
struct Labels {
    text: String,
    ranges: Vec<TextRange>,
}

impl Labels {
    fn get(&self, u: NodeId) -> Option<&str> {
        let r = self.ranges[u.idx()];
        if r == NO_LABEL {
            return None;
        }
        let start = r.start as usize;
        self.text.get(start..start + r.len as usize)
    }

    /// Sets or clears `u`'s label. A label that ends the arena is
    /// overwritten in place; any other old text stays unused until the
    /// graph is cloned.
    fn set(&mut self, u: NodeId, label: Option<&str>) {
        let range = &mut self.ranges[u.idx()];
        if *range != NO_LABEL && (range.start + range.len) as usize == self.text.len() {
            self.text.truncate(range.start as usize);
        }
        *range = match label {
            None => NO_LABEL,
            Some(text) => {
                let start = pool_index(self.text.len());
                self.text.push_str(text);
                let len = pool_index(self.text.len()) - start;
                TextRange { start, len }
            }
        };
    }

    /// A compacted copy — the arena holds each live label once, in
    /// node order — or `None` when no task has a label any more.
    fn compacted(&self) -> Option<Box<Labels>> {
        if self.ranges.iter().all(|&r| r == NO_LABEL) {
            return None;
        }
        let live = self.ranges.iter().filter(|&&r| r != NO_LABEL);
        let mut text = String::with_capacity(live.map(|r| r.len as usize).sum());
        let ranges = (0..self.ranges.len() as u32)
            .map(|u| match self.get(NodeId(u)) {
                None => NO_LABEL,
                Some(label) => {
                    let start = pool_index(text.len());
                    text.push_str(label);
                    TextRange {
                        start,
                        len: pool_index(label.len()),
                    }
                }
            })
            .collect();
        Some(Box::new(Labels { text, ranges }))
    }
}

/// A weighted directed graph specialised for workflow DAGs.
///
/// Nodes and edges are append-only; removal is handled at a higher level
/// by rebuilding or by partition-level bookkeeping, which keeps all ids
/// stable and dense. See the [module docs](self) for the layout; `clone`
/// compacts it.
#[derive(Debug, Default)]
pub struct Dag {
    nodes: Vec<NodeData>,
    edges: Vec<EdgeData>,
    adjacency: Adjacency,
    /// The label arena, once some task has been labelled.
    labels: Option<Box<Labels>>,
}

/// A compacted copy (see the module docs).
impl Clone for Dag {
    fn clone(&self) -> Self {
        Self {
            nodes: self.nodes.clone(),
            edges: self.edges.clone(),
            adjacency: self.adjacency.clone(),
            labels: self.labels.as_deref().and_then(Labels::compacted),
        }
    }
}

impl Dag {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with room for `nodes` nodes and `edges`
    /// edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            adjacency: Adjacency::with_capacity(nodes, edges),
            labels: None,
        }
    }

    /// Compacts the graph in place into the layout `clone` writes: each
    /// adjacency pool holds exactly the edge ids, node after node, every
    /// array exactly its length, and the label arena only live labels.
    /// Ids, weights, labels and edge order are unchanged.
    pub fn shrink_to_fit(&mut self) {
        *self = self.clone();
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a task with the given work and memory weights, returning its id.
    pub fn add_node(&mut self, work: f64, memory: f64) -> NodeId {
        self.add_node_data(NodeData { work, memory })
    }

    /// Adds a task with full payload, returning its id. It has no label
    /// until [`Dag::set_label`] gives it one.
    pub fn add_node_data(&mut self, data: NodeData) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(data);
        self.adjacency.push_node();
        if let Some(labels) = &mut self.labels {
            labels.ranges.push(NO_LABEL);
        }
        id
    }

    /// Adds a directed edge `src -> dst` carrying `volume` units of data.
    ///
    /// Parallel edges are permitted (some workflow exports contain them);
    /// algorithms that need a simple graph should use
    /// [`Dag::coalesce_parallel_edges`].
    ///
    /// # Panics
    /// Panics if either endpoint is out of bounds or if `src == dst`
    /// (self-loops can never appear in a DAG).
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, volume: f64) -> EdgeId {
        assert!(src.idx() < self.nodes.len(), "edge source out of bounds");
        assert!(dst.idx() < self.nodes.len(), "edge target out of bounds");
        assert_ne!(src, dst, "self-loop rejected: {src:?}");
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeData { src, dst, volume });
        self.adjacency.push_edge(Dir::Out, src, id);
        self.adjacency.push_edge(Dir::In, dst, id);
        id
    }

    /// Immutable access to a node payload.
    #[inline]
    pub fn node(&self, id: NodeId) -> &NodeData {
        &self.nodes[id.idx()]
    }

    /// Mutable access to a node payload.
    #[inline]
    pub fn node_mut(&mut self, id: NodeId) -> &mut NodeData {
        &mut self.nodes[id.idx()]
    }

    /// The human-readable label of a task (its name in a DOT or
    /// WfCommons file, or the generator's), if it has one.
    ///
    /// # Panics
    /// Panics if `u` is out of bounds.
    pub fn label(&self, u: NodeId) -> Option<&str> {
        assert!(u.idx() < self.nodes.len(), "node out of bounds");
        self.labels.as_deref()?.get(u)
    }

    /// Sets (`Some`) or clears (`None`) the label of a task.
    ///
    /// # Panics
    /// Panics if `u` is out of bounds.
    pub fn set_label(&mut self, u: NodeId, label: Option<&str>) {
        assert!(u.idx() < self.nodes.len(), "node out of bounds");
        if self.labels.is_none() && label.is_none() {
            return;
        }
        let nodes = self.nodes.len();
        self.labels
            .get_or_insert_with(|| {
                Box::new(Labels {
                    text: String::new(),
                    ranges: vec![NO_LABEL; nodes],
                })
            })
            .set(u, label);
    }

    /// Immutable access to an edge payload.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> &EdgeData {
        &self.edges[id.idx()]
    }

    /// Mutable access to an edge payload.
    #[inline]
    pub fn edge_mut(&mut self, id: EdgeId) -> &mut EdgeData {
        &mut self.edges[id.idx()]
    }

    /// Iterator over all node ids in index order.
    pub fn node_ids(&self) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterator over all edge ids in index order.
    pub fn edge_ids(&self) -> impl DoubleEndedIterator<Item = EdgeId> + ExactSizeIterator {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Outgoing edges of `u`.
    #[inline]
    pub fn out_edges(&self, u: NodeId) -> &[EdgeId] {
        self.adjacency.of(Dir::Out, u)
    }

    /// Incoming edges of `u`.
    #[inline]
    pub fn in_edges(&self, u: NodeId) -> &[EdgeId] {
        self.adjacency.of(Dir::In, u)
    }

    /// Children `C_u` of a task (targets of its out-edges).
    pub fn children(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_edges(u).iter().map(|&e| self.edges[e.idx()].dst)
    }

    /// Parents `Π_u` of a task (sources of its in-edges).
    pub fn parents(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_edges(u).iter().map(|&e| self.edges[e.idx()].src)
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.adjacency.len_of(Dir::Out, u)
    }

    /// In-degree of `u`.
    #[inline]
    pub fn in_degree(&self, u: NodeId) -> usize {
        self.adjacency.len_of(Dir::In, u)
    }

    /// Source tasks (no parents).
    pub fn sources(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(|&u| self.in_degree(u) == 0)
    }

    /// Target (sink) tasks (no children).
    pub fn targets(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(|&u| self.out_degree(u) == 0)
    }

    /// First edge from `src` to `dst`, if any.
    pub fn edge_between(&self, src: NodeId, dst: NodeId) -> Option<EdgeId> {
        self.out_edges(src)
            .iter()
            .copied()
            .find(|&e| self.edges[e.idx()].dst == dst)
    }

    /// Sum of all task work weights.
    pub fn total_work(&self) -> f64 {
        self.nodes.iter().map(|n| n.work).sum()
    }

    /// Sum of all task memory weights.
    pub fn total_memory(&self) -> f64 {
        self.nodes.iter().map(|n| n.memory).sum()
    }

    /// Sum of all edge volumes.
    pub fn total_volume(&self) -> f64 {
        self.edges.iter().map(|e| e.volume).sum()
    }

    /// Memory requirement of a single task as defined in the paper:
    /// `r_u = Σ_in c_{v,u} + Σ_out c_{u,v} + m_u`.
    pub fn task_requirement(&self, u: NodeId) -> f64 {
        let inputs: f64 = self.in_edges(u).iter().map(|&e| self.edge(e).volume).sum();
        let outputs: f64 = self.out_edges(u).iter().map(|&e| self.edge(e).volume).sum();
        inputs + outputs + self.node(u).memory
    }

    /// Returns a copy of the graph in which parallel edges between the
    /// same ordered node pair are merged, summing their volumes. Tasks
    /// keep their weights and labels.
    pub fn coalesce_parallel_edges(&self) -> Dag {
        let mut out = Dag::with_capacity(self.node_count(), self.edge_count());
        for &n in &self.nodes {
            out.add_node_data(n);
        }
        out.labels = self.labels.as_deref().and_then(Labels::compacted);
        use std::collections::HashMap;
        let mut seen: HashMap<(NodeId, NodeId), EdgeId> = HashMap::new();
        for e in &self.edges {
            if let Some(&prev) = seen.get(&(e.src, e.dst)) {
                out.edge_mut(prev).volume += e.volume;
            } else {
                let id = out.add_edge(e.src, e.dst, e.volume);
                seen.insert((e.src, e.dst), id);
            }
        }
        out
    }

    /// Validates acyclicity, returning an error naming a node on a cycle.
    pub fn check_acyclic(&self) -> Result<(), NodeId> {
        match crate::cycles::find_cycle(self) {
            None => Ok(()),
            Some(cycle) => Err(cycle[0]),
        }
    }

    /// Builds the sub-DAG induced by `members` (in the given order).
    ///
    /// Returns the subgraph plus the mapping from subgraph node indices
    /// back to the original ids. Edges with exactly one endpoint inside
    /// the set are dropped (callers needing boundary edges should query
    /// the parent graph). Surviving edges keep their relative order:
    /// the subgraph's edge ids ascend with the original edge ids,
    /// parallel edges included.
    ///
    /// The subgraph's tasks carry their weights but no `label`: a
    /// sub-DAG's tasks are identified by the returned id map, and
    /// nothing that consumes a sub-DAG (the partitioner, the solver,
    /// the fingerprint) reads a label.
    ///
    /// Cost: one `u32` per node of `self` for the membership table,
    /// then the members' out-edges — `O(|V| + Σ out-degree + E' log E')`
    /// for `E'` surviving edges, independent of `self`'s edge count.
    /// A question that only needs the sub-DAG's *shape* (the block
    /// requirement) asks a [`crate::view::BlockView`] instead and
    /// builds no graph at all.
    pub fn induced_subgraph(&self, members: &[NodeId]) -> (Dag, Vec<NodeId>) {
        let mut local = vec![u32::MAX; self.node_count()];
        for (i, &u) in members.iter().enumerate() {
            assert!(
                local[u.idx()] == u32::MAX,
                "duplicate member {u:?} in induced_subgraph"
            );
            local[u.idx()] = i as u32;
        }
        let mut internal: Vec<EdgeId> = members
            .iter()
            .flat_map(|&u| self.out_edges(u))
            .copied()
            .filter(|&e| local[self.edge(e).dst.idx()] != u32::MAX)
            .collect();
        internal.sort_unstable();

        let mut sub = Dag::with_capacity(members.len(), internal.len());
        for &u in members {
            let node = self.node(u);
            sub.add_node(node.work, node.memory);
        }
        for e in internal {
            let e = self.edge(e);
            sub.add_edge(
                NodeId(local[e.src.idx()]),
                NodeId(local[e.dst.idx()]),
                e.volume,
            );
        }
        (sub, members.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Dag {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let mut g = Dag::new();
        let a = g.add_node(1.0, 10.0);
        let b = g.add_node(2.0, 20.0);
        let c = g.add_node(3.0, 30.0);
        let d = g.add_node(4.0, 40.0);
        g.add_edge(a, b, 1.0);
        g.add_edge(a, c, 2.0);
        g.add_edge(b, d, 3.0);
        g.add_edge(c, d, 4.0);
        g
    }

    #[test]
    fn counts_and_degrees() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.in_degree(NodeId(3)), 2);
        assert_eq!(g.sources().collect::<Vec<_>>(), vec![NodeId(0)]);
        assert_eq!(g.targets().collect::<Vec<_>>(), vec![NodeId(3)]);
    }

    #[test]
    fn parents_children() {
        let g = diamond();
        let mut ch: Vec<_> = g.children(NodeId(0)).collect();
        ch.sort();
        assert_eq!(ch, vec![NodeId(1), NodeId(2)]);
        let mut pa: Vec<_> = g.parents(NodeId(3)).collect();
        pa.sort();
        assert_eq!(pa, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn totals() {
        let g = diamond();
        assert_eq!(g.total_work(), 10.0);
        assert_eq!(g.total_memory(), 100.0);
        assert_eq!(g.total_volume(), 10.0);
    }

    #[test]
    fn task_requirement_matches_definition() {
        let g = diamond();
        // node 1: in 1.0 + out 3.0 + mem 20.0
        assert_eq!(g.task_requirement(NodeId(1)), 24.0);
        // source: only outputs
        assert_eq!(g.task_requirement(NodeId(0)), 13.0);
    }

    #[test]
    fn edge_between_finds_edges() {
        let g = diamond();
        assert!(g.edge_between(NodeId(0), NodeId(1)).is_some());
        assert!(g.edge_between(NodeId(1), NodeId(0)).is_none());
        assert!(g.edge_between(NodeId(0), NodeId(3)).is_none());
    }

    #[test]
    fn coalesce_merges_parallel_edges() {
        let mut g = Dag::new();
        let a = g.add_node(1.0, 1.0);
        let b = g.add_node(1.0, 1.0);
        g.add_edge(a, b, 2.0);
        g.add_edge(a, b, 3.0);
        let c = g.coalesce_parallel_edges();
        assert_eq!(c.edge_count(), 1);
        assert_eq!(c.edge(EdgeId(0)).volume, 5.0);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut g = Dag::new();
        let a = g.add_node(1.0, 1.0);
        g.add_edge(a, a, 1.0);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = diamond();
        let (sub, back) = g.induced_subgraph(&[NodeId(0), NodeId(1), NodeId(3)]);
        assert_eq!(sub.node_count(), 3);
        // edges 0->1 and 1->3 survive; 0->2->3 does not
        assert_eq!(sub.edge_count(), 2);
        assert_eq!(back, vec![NodeId(0), NodeId(1), NodeId(3)]);
        assert_eq!(sub.node(NodeId(2)).work, 4.0);
    }

    #[test]
    fn induced_subgraph_adds_edges_in_edge_id_order() {
        // Edge ids are not grouped by source, and a -> b is doubled:
        // walking the members' adjacency lists would emit a's three
        // edges first.
        let mut g = Dag::new();
        let a = g.add_node(1.0, 1.0);
        let b = g.add_node(2.0, 2.0);
        let c = g.add_node(3.0, 3.0);
        let outside = g.add_node(4.0, 4.0);
        g.add_edge(b, c, 1.0);
        g.add_edge(a, b, 2.0);
        g.add_edge(a, outside, 9.0);
        g.add_edge(a, c, 3.0);
        g.add_edge(a, b, 4.0);
        // Members scrambled: c = 0, a = 1, b = 2 in the subgraph.
        let (sub, back) = g.induced_subgraph(&[c, a, b]);
        assert_eq!(back, vec![c, a, b]);
        let edges: Vec<(u32, u32, f64)> = sub
            .edge_ids()
            .map(|e| sub.edge(e))
            .map(|e| (e.src.0, e.dst.0, e.volume))
            .collect();
        assert_eq!(
            edges,
            vec![(2, 0, 1.0), (1, 2, 2.0), (1, 0, 3.0), (1, 2, 4.0)]
        );
    }
}
