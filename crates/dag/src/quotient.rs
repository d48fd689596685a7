//! Partitions and quotient graphs.
//!
//! A [`Partition`] assigns every task a block number; the induced
//! quotient graph `Γ` has one vertex per block, vertex weight
//! `w_ν = Σ_{u∈V_i} w_u` and edge weight `c_{νi,νj} = Σ c_{u,v}` over all
//! crossing edges (paper §3.3). The scheduler only accepts partitions
//! whose quotient graph is acyclic.
//!
//! [`FlatQuotient`] is the one quotient: built from a partition with no
//! hashing, numbered like it, and read by the passes of
//! [`PassScratch`], which the mapping validator, every makespan,
//! DagHetPart's Steps 3 and 4 and the exact solver run.
//! [`QuotientGraph::build`] materialises it as a [`Dag`].
//!
//! [`coalesce_crossing`] is the one way crossing edges become quotient
//! edges, here and in `dhp_dagp`'s coarsening: one linear pass, through
//! a `k × k` table of sums when `k` is small against the edge count and
//! by buckets per source otherwise, each pair's volume summed in
//! edge-id order. The tests keep the old stable sort, the old hash-map
//! build and `critical::critical_path` as the references all of it is
//! held to, bit for bit.

use crate::graph::{Dag, EdgeId, NodeId};
use serde::{Deserialize, Serialize};

/// Identifier of a block within a partition (dense index).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The index as `usize`.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// A partitioning function `F : V -> blocks` with dense block numbering.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    /// `assignment[u] = block of task u`.
    assignment: Vec<BlockId>,
    /// Number of blocks (blocks are `0..num_blocks`).
    num_blocks: usize,
}

impl Partition {
    /// Builds a partition from a raw per-node block array.
    ///
    /// Block numbers may be sparse; they are renumbered densely in order
    /// of first appearance.
    pub fn from_raw(raw: &[u32]) -> Self {
        let slots = raw.iter().max().map_or(0, |&b| b as usize + 1);
        if slots <= 2 * raw.len() + 1024 {
            return Self::renumber(raw, slots);
        }
        // Too sparse for a slot per number: rank the numbers first.
        let mut used = raw.to_vec();
        used.sort_unstable();
        used.dedup();
        let ranks: Vec<u32> = raw
            .iter()
            .map(|&b| used.partition_point(|&x| x < b) as u32)
            .collect();
        Self::renumber(&ranks, used.len())
    }

    /// [`Partition::from_raw`] of block numbers below `slots`, through
    /// one table slot per number.
    fn renumber(raw: &[u32], slots: usize) -> Self {
        let mut dense = vec![u32::MAX; slots];
        let mut num_blocks = 0;
        let assignment = raw
            .iter()
            .map(|&b| {
                let slot = &mut dense[b as usize];
                if *slot == u32::MAX {
                    *slot = num_blocks;
                    num_blocks += 1;
                }
                BlockId(*slot)
            })
            .collect();
        Self {
            assignment,
            num_blocks: num_blocks as usize,
        }
    }

    /// [`Partition::from_raw`] of `raw` whose block numbers are already
    /// dense in order of first appearance (each at most one above the
    /// largest before it, the first 0), taking the array over instead
    /// of copying it.
    ///
    /// # Panics
    /// Panics if the numbers are not dense in that order.
    pub fn from_dense(raw: Vec<u32>) -> Self {
        let mut num_blocks = 0u32;
        for &b in &raw {
            assert!(b <= num_blocks, "block {b} before block {num_blocks}");
            num_blocks += (b == num_blocks) as u32;
        }
        Self {
            assignment: raw.into_iter().map(BlockId).collect(),
            num_blocks: num_blocks as usize,
        }
    }

    /// The trivial partition placing every task in one block.
    pub fn single_block(n: usize) -> Self {
        Self {
            assignment: vec![BlockId(0); n],
            num_blocks: if n == 0 { 0 } else { 1 },
        }
    }

    /// Number of tasks covered.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// True when covering no tasks.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Number of blocks `k'`.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Block of task `u`.
    #[inline]
    pub fn block_of(&self, u: NodeId) -> BlockId {
        self.assignment[u.idx()]
    }

    /// Members of every block, in ascending task order.
    pub fn members(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.num_blocks];
        for (i, &b) in self.assignment.iter().enumerate() {
            out[b.idx()].push(NodeId(i as u32));
        }
        out
    }

    /// Validates that the partition covers `g` exactly and block ids are
    /// dense.
    pub fn validate(&self, g: &Dag) -> bool {
        if self.assignment.len() != g.node_count() {
            return false;
        }
        let mut seen = vec![false; self.num_blocks];
        for b in &self.assignment {
            if b.idx() >= self.num_blocks {
                return false;
            }
            seen[b.idx()] = true;
        }
        seen.iter().all(|&s| s)
    }
}

/// How many table cells [`coalesce_crossing`] spends per edge before it
/// buckets by source instead. On dagP partitions of 60- to 10 000-task
/// workflows the table is 2–3× faster at under one cell per edge and
/// breaks even at about 3 (60 tasks) to 6 (10 000 tasks) cells per
/// edge.
const TABLE_CELLS_PER_EDGE: usize = 4;

/// The crossing edges of a graph coarsened onto `k` nodes, coalesced:
/// one `(a, b, volume)` per node pair, ascending by `(a, b)`.
///
/// `edges` is every edge of the finer graph in edge-id order, already
/// mapped to its coarse endpoints (each below `k`); those with `a == b`
/// are internal and dropped. A pair's volume is summed onto `0.0` over
/// its crossing edges in edge-id order, so it has the same bits however
/// the pairs are found. With `k²` at most four cells per edge (a
/// DagHetPart `k'` attempt's quotient of a workflow of a few hundred
/// tasks or more) the sums accumulate in a `k × k` table; otherwise (a
/// dagP coarse level, where `k` is close to the node count, or a short
/// chain cut into many blocks) the edges are bucketed by source and
/// each source's run is coalesced through a per-destination slot table.
/// Neither hashes; neither sorts the edges (the bucket path sorts only
/// each source's distinct destinations).
pub fn coalesce_crossing<I>(k: usize, edges: I) -> Vec<(u32, u32, f64)>
where
    I: ExactSizeIterator<Item = (u32, u32, f64)> + Clone,
{
    let mut out = Vec::new();
    coalesce_crossing_into(k, edges, &mut out, &mut CoalesceScratch::default());
    out
}

/// The tables [`coalesce_crossing`] fills, kept by a caller that
/// coalesces again and again ([`FlatQuotient::rebuild`]).
#[derive(Debug, Default)]
pub struct CoalesceScratch {
    /// The `k × k` path: the sum and whether it has a crossing edge,
    /// per cell.
    sum: Vec<f64>,
    seen: Vec<bool>,
    /// The bucket path: where each source's run starts, where its next
    /// edge goes, the runs, and the current run's slot per destination.
    start: Vec<u32>,
    next: Vec<u32>,
    by_source: Vec<(u32, f64)>,
    slot: Vec<u32>,
}

/// [`coalesce_crossing`] into `out` (cleared first), on `scratch`'s
/// tables: the same pairs in the same order, to the bit.
fn coalesce_crossing_into<I>(
    k: usize,
    edges: I,
    out: &mut Vec<(u32, u32, f64)>,
    scratch: &mut CoalesceScratch,
) where
    I: ExactSizeIterator<Item = (u32, u32, f64)> + Clone,
{
    out.clear();
    if k.saturating_mul(k) <= edges.len().saturating_mul(TABLE_CELLS_PER_EDGE) {
        coalesce_in_table(k, edges, out, scratch)
    } else {
        coalesce_by_source(k, edges, out, scratch)
    }
}

/// [`coalesce_crossing`] through a `k × k` table of sums.
fn coalesce_in_table(
    k: usize,
    edges: impl Iterator<Item = (u32, u32, f64)>,
    out: &mut Vec<(u32, u32, f64)>,
    scratch: &mut CoalesceScratch,
) {
    let (sum, seen) = (&mut scratch.sum, &mut scratch.seen);
    sum.clear();
    sum.resize(k * k, 0.0);
    seen.clear();
    seen.resize(k * k, false);
    for (a, b, volume) in edges.filter(|&(a, b, _)| a != b) {
        let cell = a as usize * k + b as usize;
        sum[cell] += volume;
        seen[cell] = true;
    }
    out.extend(
        (0..k * k)
            .filter(|&cell| seen[cell])
            .map(|cell| ((cell / k) as u32, (cell % k) as u32, sum[cell])),
    );
}

/// [`coalesce_crossing`] by one counting pass over the sources: each
/// source's crossing edges, in edge-id order, are coalesced through a
/// slot per destination (the pair's place in the output) and the run's
/// pairs then put in destination order.
fn coalesce_by_source<I>(
    k: usize,
    edges: I,
    out: &mut Vec<(u32, u32, f64)>,
    scratch: &mut CoalesceScratch,
) where
    I: Iterator<Item = (u32, u32, f64)> + Clone,
{
    let CoalesceScratch {
        start,
        next,
        by_source,
        slot,
        ..
    } = scratch;
    let crossing = edges.filter(|&(a, b, _)| a != b);
    start.clear();
    start.resize(k + 1, 0);
    for (a, _, _) in crossing.clone() {
        start[a as usize + 1] += 1;
    }
    for a in 0..k {
        start[a + 1] += start[a];
    }
    next.clear();
    next.extend_from_slice(&start[..k]);
    by_source.clear();
    by_source.resize(start[k] as usize, (0, 0.0));
    for (a, b, volume) in crossing {
        let at = &mut next[a as usize];
        by_source[*at as usize] = (b, volume);
        *at += 1;
    }
    // `slot[b]` is where the current source's pair with `b` sits in
    // `out`, if it is at or after `run_start`.
    slot.clear();
    slot.resize(k, u32::MAX);
    out.reserve(by_source.len());
    for a in 0..k {
        let run_start = out.len();
        for &(b, volume) in &by_source[start[a] as usize..start[a + 1] as usize] {
            let at = slot[b as usize] as usize;
            match out.get_mut(at) {
                Some(pair) if at >= run_start => pair.2 += volume,
                _ => {
                    slot[b as usize] = out.len() as u32;
                    out.push((a as u32, b, 0.0 + volume));
                }
            }
        }
        out[run_start..].sort_unstable_by_key(|&(_, b, _)| b);
    }
}

/// A quotient graph as flat arrays: node `i` is block `i`. Speeds are
/// set by the caller; the default 1.0 gives the paper's *estimated*
/// makespan.
#[derive(Debug, Default)]
pub struct FlatQuotient {
    /// Summed task work per node.
    work: Vec<f64>,
    /// Speed per node.
    pub speed: Vec<f64>,
    /// `(src, dst, volume)` ascending by `(src, dst)`, no parallel
    /// edges.
    edges: Vec<(u32, u32, f64)>,
}

impl FlatQuotient {
    /// The quotient of `partition` over `g`, every speed 1.0.
    ///
    /// No hashing. Every sum is taken in one fixed order, so the
    /// weights keep their bits: a block's work over its members
    /// ascending, from `Iterator::sum`'s `-0.0`; a quotient edge's
    /// volume onto `0.0` over its crossing edges in edge-id order.
    /// Edges internal to a block are dropped. The result may be cyclic.
    pub fn build(g: &Dag, partition: &Partition) -> Self {
        assert_eq!(partition.len(), g.node_count());
        let mut q = Self::default();
        q.fill(
            g,
            partition.num_blocks(),
            |u| partition.block_of(u).0,
            &mut CoalesceScratch::default(),
        );
        q
    }

    /// Refills this quotient with the one [`FlatQuotient::build`] gives
    /// for the partition of `g` into the `k` blocks `block_of` numbers
    /// (`block_of[u]` below `k` for every task `u`), on `scratch`: a
    /// caller that keeps both allocates nothing once they have held a
    /// quotient this large.
    ///
    /// # Panics
    /// Panics if `block_of` does not have one entry per task.
    pub fn rebuild(&mut self, g: &Dag, block_of: &[u32], k: usize, scratch: &mut CoalesceScratch) {
        assert_eq!(block_of.len(), g.node_count());
        self.fill(g, k, |u| block_of[u.idx()], scratch);
    }

    fn fill(
        &mut self,
        g: &Dag,
        k: usize,
        block: impl Fn(NodeId) -> u32,
        scratch: &mut CoalesceScratch,
    ) {
        self.work.clear();
        self.work.resize(k, -0.0);
        for u in g.node_ids() {
            self.work[block(u) as usize] += g.node(u).work;
        }
        self.speed.clear();
        self.speed.resize(k, 1.0);
        coalesce_crossing_into(
            k,
            (0..g.edge_count() as u32)
                .map(|e| g.edge(EdgeId(e)))
                .map(|e| (block(e.src), block(e.dst), e.volume)),
            &mut self.edges,
            scratch,
        );
    }

    /// Summed task work per node.
    pub fn work(&self) -> &[f64] {
        &self.work
    }

    /// `(src, dst, volume)` ascending by `(src, dst)`, no parallel
    /// edges.
    pub fn edges(&self) -> &[(u32, u32, f64)] {
        &self.edges
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.work.len()
    }

    /// True when the quotient has no node.
    pub fn is_empty(&self) -> bool {
        self.work.is_empty()
    }

    /// The makespan under the current speeds (paper Eq. (2)), with
    /// communication divided by `bandwidth`: `f64::INFINITY` when the
    /// quotient is cyclic, `0.0` when it is empty. A caller that asks
    /// repeatedly keeps its own [`PassScratch`].
    pub fn makespan(&self, bandwidth: f64) -> f64 {
        PassScratch::default()
            .bottom_weights(self, bandwidth)
            .unwrap_or(f64::INFINITY)
    }

    /// Writes into `out` this graph with `group` contracted into node 0
    /// running at `merged_speed`; every other node keeps its relative
    /// order, numbered from 1. `new_of_old` receives the renumbering.
    ///
    /// Floating-point sums are taken in one fixed order so that
    /// makespans keep their bits: works in ascending old node id;
    /// parallel edges (three of them after a triple merge, where the
    /// order of the additions shows in the last bit) in the order
    /// `sort_unstable_by_key` — deterministic for a given input — leaves
    /// the renumbered old edge sequence in, which is the order the
    /// golden outputs were recorded with. A group of two distinct nodes
    /// has at most two parallel edges per pair, whose sum has the same
    /// bits in either order, so its edges are written in one linear
    /// pass instead.
    pub fn contract_into(
        &self,
        group: &[u32],
        merged_speed: f64,
        out: &mut FlatQuotient,
        new_of_old: &mut Vec<u32>,
    ) {
        new_of_old.clear();
        new_of_old.resize(self.len(), u32::MAX);
        for &member in group {
            new_of_old[member as usize] = 0;
        }
        let mut next = 1u32;
        for slot in new_of_old.iter_mut().filter(|slot| **slot == u32::MAX) {
            *slot = next;
            next += 1;
        }
        out.work.clear();
        out.work.resize(next as usize, 0.0);
        out.speed.clear();
        out.speed.resize(next as usize, 1.0);
        for (old, &new) in new_of_old.iter().enumerate() {
            out.work[new as usize] += self.work[old];
            out.speed[new as usize] = self.speed[old];
        }
        out.speed[0] = merged_speed;

        out.edges.clear();
        if let &[x, y] = group {
            if x != y {
                self.contract_pair_edges(x.min(y), x.max(y), new_of_old, &mut out.edges);
                return;
            }
        }
        out.edges.extend(
            self.edges
                .iter()
                .map(|&(a, b, vol)| (new_of_old[a as usize], new_of_old[b as usize], vol))
                .filter(|&(a, b, _)| a != b),
        );
        out.edges.sort_unstable_by_key(|&(a, b, _)| (a, b));
        out.edges.dedup_by(|next, kept| {
            let parallel = (next.0, next.1) == (kept.0, kept.1);
            if parallel {
                kept.2 += next.2;
            }
            parallel
        });
    }

    /// The edges of [`FlatQuotient::contract_into`] for the group
    /// `{lo, hi}` (`lo < hi`), ascending, written in one pass over the
    /// sorted edge list: first the merged node's out-edges, the two
    /// nodes' runs merged by target; then every other source's run,
    /// its edge into the group (the two volumes summed when it has
    /// one to each) first, as node 0 is the smallest target.
    fn contract_pair_edges(
        &self,
        lo: u32,
        hi: u32,
        new_of_old: &[u32],
        out: &mut Vec<(u32, u32, f64)>,
    ) {
        let outside = |e: &&(u32, u32, f64)| e.1 != lo && e.1 != hi;
        let mut from_lo = self.edges_from(lo).iter().filter(outside).peekable();
        let mut from_hi = self.edges_from(hi).iter().filter(outside).peekable();
        loop {
            let (dst, vol) = match (from_lo.peek(), from_hi.peek()) {
                (None, None) => break,
                (Some(&&(_, a, va)), Some(&&(_, b, vb))) if a == b => {
                    from_lo.next();
                    from_hi.next();
                    (a, va + vb)
                }
                (Some(&&(_, a, va)), Some(&&(_, b, _))) if a < b => {
                    from_lo.next();
                    (a, va)
                }
                (Some(&&(_, a, va)), None) => {
                    from_lo.next();
                    (a, va)
                }
                (_, Some(&&(_, b, vb))) => {
                    from_hi.next();
                    (b, vb)
                }
            };
            out.push((0, new_of_old[dst as usize], vol));
        }
        for run in self.edges.chunk_by(|e, f| e.0 == f.0) {
            let src = run[0].0;
            if src == lo || src == hi {
                continue;
            }
            let new_src = new_of_old[src as usize];
            let into_group = run
                .iter()
                .filter(|e| !outside(e))
                .map(|e| e.2)
                .reduce(|va, vb| va + vb);
            if let Some(vol) = into_group {
                out.push((new_src, 0, vol));
            }
            out.extend(
                run.iter()
                    .filter(outside)
                    .map(|&(_, b, vol)| (new_src, new_of_old[b as usize], vol)),
            );
        }
    }

    /// The edges leaving node `u`.
    fn edges_from(&self, u: u32) -> &[(u32, u32, f64)] {
        let start = self.edges.partition_point(|e| e.0 < u);
        let len = self.edges[start..].partition_point(|e| e.0 == u);
        &self.edges[start..start + len]
    }
}

/// Reusable buffers of the passes over a [`FlatQuotient`].
///
/// A pass is split where its inputs change at different rates.
/// [`PassScratch::index`] depends on the quotient's shape and volumes
/// only — out-edge index, Kahn order, edge costs `volume / bandwidth`;
/// [`PassScratch::relax`] is the one reverse sweep that depends on the
/// speeds. A caller that only ever changes speeds indexes once and
/// relaxes per question.
#[derive(Debug, Default)]
pub struct PassScratch {
    /// `edges[first_out[u]..first_out[u + 1]]` leave node `u`.
    first_out: Vec<u32>,
    indegree: Vec<u32>,
    /// Kahn order (doubles as its own work queue).
    order: Vec<u32>,
    /// `volume / bandwidth` of every edge, in edge order.
    cost: Vec<f64>,
    /// Bottom weight per node (paper Eq. (1)); valid after
    /// [`PassScratch::relax`].
    bottom: Vec<f64>,
    /// DFS stack of [`PassScratch::two_cycle_partner`]: node and the
    /// index of its next out-edge.
    stack: Vec<(u32, u32)>,
    /// DFS colours: 0 unseen, 1 on the stack, 2 done.
    colour: Vec<u8>,
    /// The `bandwidth` of the last [`PassScratch::index`].
    bandwidth: f64,
    /// Position of every node in `order`; empty until
    /// [`PassScratch::merged_pair_makespan`] first needs it after an
    /// index.
    rank: Vec<u32>,
    /// Per node, for [`PassScratch::merged_pair_makespan`]: whether it
    /// reaches the pair's later node, whether it is an ancestor of the
    /// merged node, and then its new bottom weight.
    reaches_late: Vec<bool>,
    ancestor: Vec<bool>,
    fresh: Vec<f64>,
}

impl PassScratch {
    /// Positions in `q.edges` (and `cost`) of the edges leaving `u`.
    fn out_edges(&self, u: u32) -> std::ops::Range<usize> {
        self.first_out[u as usize] as usize..self.first_out[u as usize + 1] as usize
    }

    /// Everything about `q` that its speeds do not change: indexes its
    /// out-edges, prices every edge at `volume / bandwidth` and takes
    /// one Kahn pass. Returns whether `q` is acyclic, which
    /// [`PassScratch::relax`] requires.
    pub fn index(&mut self, q: &FlatQuotient, bandwidth: f64) -> bool {
        let n = q.len();
        self.bandwidth = bandwidth;
        self.rank.clear();
        self.first_out.clear();
        self.first_out.resize(n + 1, 0);
        self.indegree.clear();
        self.indegree.resize(n, 0);
        self.cost.clear();
        for &(a, b, vol) in &q.edges {
            self.first_out[a as usize + 1] += 1;
            self.indegree[b as usize] += 1;
            self.cost.push(vol / bandwidth);
        }
        for u in 0..n {
            self.first_out[u + 1] += self.first_out[u];
        }
        self.order.clear();
        self.order
            .extend((0..n as u32).filter(|&u| self.indegree[u as usize] == 0));
        let mut head = 0;
        while let Some(&u) = self.order.get(head) {
            head += 1;
            for &(_, v, _) in &q.edges[self.out_edges(u)] {
                self.indegree[v as usize] -= 1;
                if self.indegree[v as usize] == 0 {
                    self.order.push(v);
                }
            }
        }
        self.order.len() == n
    }

    /// Fills the bottom weights (paper Eq. (1)) for the speeds `q` has
    /// now and returns the makespan: the largest bottom weight, with
    /// node cost `work / speed`. `q` must be the acyclic quotient last
    /// given to [`PassScratch::index`], its speeds aside.
    pub fn relax(&mut self, q: &FlatQuotient) -> f64 {
        debug_assert_eq!(self.order.len(), q.len());
        self.bottom.clear();
        self.bottom.resize(q.len(), 0.0);
        let mut makespan = 0.0f64;
        for &u in self.order.iter().rev() {
            let mut tail = 0.0f64;
            for e in self.out_edges(u) {
                tail = tail.max(self.cost[e] + self.bottom[q.edges[e].1 as usize]);
            }
            let b = q.work[u as usize] / q.speed[u as usize] + tail;
            self.bottom[u as usize] = b;
            makespan = makespan.max(b);
        }
        makespan
    }

    /// [`PassScratch::index`] then [`PassScratch::relax`]: the makespan
    /// of `q`, or `None` when it is cyclic.
    pub fn bottom_weights(&mut self, q: &FlatQuotient, bandwidth: f64) -> Option<f64> {
        self.index(q, bandwidth).then(|| self.relax(q))
    }

    /// The makespan of `q` with `pair` contracted into one node running
    /// at `merged_speed` — what [`FlatQuotient::contract_into`] of the
    /// pair followed by [`PassScratch::bottom_weights`] returns, to the
    /// bit — or `None` when that contraction is cyclic. Builds nothing:
    /// `q` must be the acyclic quotient of the last
    /// [`PassScratch::index`] and [`PassScratch::relax`], and those
    /// bottom weights are read in place.
    ///
    /// With `early` the pair's node that comes first in the Kahn order
    /// and `late` the other, the contraction is cyclic iff a child of
    /// `early` other than `late` reaches `late`. Only the merged node
    /// and its ancestors get new bottom weights; every other node keeps
    /// the one it has. The merged node works `(0.0 + w_lo) + w_hi`
    /// (ascending node id, as the contraction sums) and a parallel
    /// pair's volumes are added before the division by the bandwidth,
    /// as the contraction and [`PassScratch::index`] do. No bottom
    /// weight is `-0.0` (a sink's tail is `+0.0`, and a sum is `-0.0`
    /// only when both terms are) and `f64::max` drops a NaN, so the
    /// maxima here and in [`PassScratch::relax`] do not depend on the
    /// order they are taken in.
    pub fn merged_pair_makespan(
        &mut self,
        q: &FlatQuotient,
        pair: [u32; 2],
        merged_speed: f64,
    ) -> Option<f64> {
        let n = q.len();
        debug_assert!(self.order.len() == n && self.bottom.len() == n);
        debug_assert_ne!(pair[0], pair[1]);
        if self.rank.len() != n {
            self.rank.clear();
            self.rank.resize(n, 0);
            for (i, &u) in self.order.iter().enumerate() {
                self.rank[u as usize] = i as u32;
            }
        }
        let [x, y] = pair;
        let (early, late) = if self.rank[x as usize] < self.rank[y as usize] {
            (x, y)
        } else {
            (y, x)
        };
        let in_pair = |v: u32| v == x || v == y;

        // The merged node: its work, and its tail over the two sorted
        // runs of out-edges, merged by target.
        let merged_work = (0.0 + q.work[x.min(y) as usize]) + q.work[x.max(y) as usize];
        let outside = |e: &usize| !in_pair(q.edges[*e].1);
        let mut from_lo = self.out_edges(x.min(y)).filter(outside).peekable();
        let mut from_hi = self.out_edges(x.max(y)).filter(outside).peekable();
        let mut tail = 0.0f64;
        loop {
            let (dst, cost) = match (from_lo.peek().copied(), from_hi.peek().copied()) {
                (None, None) => break,
                (Some(a), Some(b)) if q.edges[a].1 == q.edges[b].1 => {
                    from_lo.next();
                    from_hi.next();
                    (q.edges[a].1, (q.edges[a].2 + q.edges[b].2) / self.bandwidth)
                }
                (Some(a), Some(b)) if q.edges[a].1 < q.edges[b].1 => {
                    from_lo.next();
                    (q.edges[a].1, self.cost[a])
                }
                (Some(a), None) => {
                    from_lo.next();
                    (q.edges[a].1, self.cost[a])
                }
                (_, Some(b)) => {
                    from_hi.next();
                    (q.edges[b].1, self.cost[b])
                }
            };
            tail = tail.max(cost + self.bottom[dst as usize]);
        }
        let merged = merged_work / merged_speed + tail;

        // Nodes after `late` in the Kahn order reach neither node of the
        // pair; the ones before it are swept backwards.
        let late_rank = self.rank[late as usize] as usize;
        let mut makespan = 0.0f64.max(merged);
        for &u in &self.order[late_rank + 1..] {
            makespan = makespan.max(self.bottom[u as usize]);
        }
        for flags in [&mut self.reaches_late, &mut self.ancestor] {
            flags.clear();
            flags.resize(n, false);
        }
        self.fresh.clear();
        self.fresh.resize(n, 0.0);
        for i in (0..late_rank).rev() {
            let u = self.order[i];
            let edges = self.out_edges(u);
            if u == early {
                if edges
                    .map(|e| q.edges[e].1)
                    .any(|v| v != late && self.reaches_late[v as usize])
                {
                    return None;
                }
                continue;
            }
            // Its edge into the merged node, if any, and what it
            // reaches.
            let (mut reaches_late, mut ancestor) = (false, false);
            let mut into_pair: Option<(usize, Option<usize>)> = None;
            for e in edges.clone() {
                let v = q.edges[e].1;
                reaches_late |= v == late || self.reaches_late[v as usize];
                ancestor |= self.ancestor[v as usize];
                if in_pair(v) {
                    into_pair = Some(into_pair.map_or((e, None), |(first, _)| (first, Some(e))));
                }
            }
            self.reaches_late[u as usize] = reaches_late;
            if !ancestor && into_pair.is_none() {
                makespan = makespan.max(self.bottom[u as usize]);
                continue;
            }
            self.ancestor[u as usize] = true;
            let mut tail = 0.0f64;
            if let Some((first, second)) = into_pair {
                let cost = match second {
                    None => self.cost[first],
                    Some(second) => (q.edges[first].2 + q.edges[second].2) / self.bandwidth,
                };
                tail = tail.max(cost + merged);
            }
            for e in edges {
                let v = q.edges[e].1 as usize;
                if !in_pair(v as u32) {
                    let bottom = if self.ancestor[v] {
                        self.fresh[v]
                    } else {
                        self.bottom[v]
                    };
                    tail = tail.max(self.cost[e] + bottom);
                }
            }
            let b = q.work[u as usize] / q.speed[u as usize] + tail;
            self.fresh[u as usize] = b;
            makespan = makespan.max(b);
        }
        Some(makespan)
    }

    /// Writes the critical path of `q`, first node to last, into `path`
    /// (empty when `q` is empty). Needs the bottom weights of a
    /// [`PassScratch::relax`] under `q`'s current speeds. Starts at the
    /// smallest node id of maximal bottom weight and follows, at each
    /// step, the smallest child id that realises it up to a relative
    /// `1e-9`.
    pub fn critical_path(&self, q: &FlatQuotient, path: &mut Vec<u32>) {
        path.clear();
        if q.is_empty() {
            return;
        }
        let mut cur = 0u32;
        for u in 1..q.len() as u32 {
            if self.bottom[u as usize] > self.bottom[cur as usize] {
                cur = u;
            }
        }
        loop {
            path.push(cur);
            let residual = self.bottom[cur as usize] - q.work[cur as usize] / q.speed[cur as usize];
            let mut next: Option<u32> = None;
            for e in self.out_edges(cur) {
                let v = q.edges[e].1;
                let via = self.cost[e] + self.bottom[v as usize];
                if (via - residual).abs() <= 1e-9 * residual.abs().max(1.0)
                    && next.is_none_or(|n| v < n)
                {
                    next = Some(v);
                }
            }
            match next {
                Some(v) => cur = v,
                None => break,
            }
        }
    }

    /// Marks in `on_chain` (resized to `q`) the nodes of one *exactly*
    /// tight chain under the bottom weights of the last
    /// [`PassScratch::relax`], whose makespan was `makespan`: from the
    /// smallest node id whose bottom weight equals `makespan`, along
    /// the first out-edge whose `cost + bottom` equals the node's tail
    /// (the max [`PassScratch::relax`] took), with no tolerance. Along
    /// the chain `bottom[c] = work / speed + cost + bottom[next]` holds
    /// as computed, and the last node's tail is the `0.0` a sink has.
    /// Returns `false`, marking nothing, when no bottom weight equals
    /// `makespan`.
    pub fn mark_tight_chain(
        &self,
        q: &FlatQuotient,
        makespan: f64,
        on_chain: &mut Vec<bool>,
    ) -> bool {
        on_chain.clear();
        on_chain.resize(q.len(), false);
        let Some(mut cur) = self.bottom.iter().position(|&b| b == makespan) else {
            return false;
        };
        loop {
            on_chain[cur] = true;
            let via = |e: usize| self.cost[e] + self.bottom[q.edges[e].1 as usize];
            let mut edges = self.out_edges(cur as u32);
            let tail = edges.clone().fold(0.0f64, |tail, e| tail.max(via(e)));
            match edges.find(|&e| via(e) == tail) {
                Some(e) => cur = q.edges[e].1 as usize,
                None => return true,
            }
        }
    }

    /// For a cyclic `q` (out-edges indexed by the failed
    /// [`PassScratch::index`]): depth-first from the smallest node id,
    /// children in edge order, to the first edge that closes a cycle.
    /// If that cycle has exactly two nodes, returns the one that is not
    /// node 0 — the third vertex of paper Fig. 2 when node 0 is a merged
    /// block; a longer first cycle gives `None`.
    pub fn two_cycle_partner(&mut self, q: &FlatQuotient) -> Option<u32> {
        self.colour.clear();
        self.colour.resize(q.len(), 0);
        for root in 0..q.len() as u32 {
            if self.colour[root as usize] != 0 {
                continue;
            }
            self.stack.clear();
            self.stack.push((root, self.first_out[root as usize]));
            self.colour[root as usize] = 1;
            while let Some(&mut (u, ref mut next_edge)) = self.stack.last_mut() {
                if *next_edge == self.first_out[u as usize + 1] {
                    self.colour[u as usize] = 2;
                    self.stack.pop();
                    continue;
                }
                let v = q.edges[*next_edge as usize].1;
                *next_edge += 1;
                match self.colour[v as usize] {
                    0 => {
                        self.colour[v as usize] = 1;
                        self.stack.push((v, self.first_out[v as usize]));
                    }
                    1 => {
                        // Back edge u -> v: the cycle is the stack from
                        // v up to u.
                        let below = self.stack.len().checked_sub(2).map(|i| self.stack[i].0);
                        return (below == Some(v)).then_some(if v != 0 { v } else { u });
                    }
                    _ => {}
                }
            }
        }
        None
    }
}

/// The quotient graph `Γ` of a partition as a [`Dag`], plus the members
/// of every block (block `i` is node `i`): [`FlatQuotient::build`]
/// materialised for a caller that wants a graph.
#[derive(Clone, Debug)]
pub struct QuotientGraph {
    /// The quotient DAG; node weights carry summed work and memory,
    /// edge weights summed crossing volume.
    pub graph: Dag,
    /// Members of each block, ascending.
    pub members: Vec<Vec<NodeId>>,
}

impl QuotientGraph {
    /// Builds the quotient graph of `partition` over `g`.
    ///
    /// Parallel crossing edges between two blocks are combined into one
    /// quotient edge with summed volume, and edges are stored ascending
    /// by endpoints. Edges internal to a block are dropped. The result
    /// may be cyclic; [`is_acyclic_partition`] tells.
    pub fn build(g: &Dag, partition: &Partition) -> Self {
        let flat = FlatQuotient::build(g, partition);
        let members = partition.members();
        let mut graph = Dag::with_capacity(flat.len(), flat.edges.len());
        for (m, &work) in members.iter().zip(&flat.work) {
            graph.add_node(work, m.iter().map(|&u| g.node(u).memory).sum());
        }
        for &(a, b, volume) in &flat.edges {
            graph.add_edge(NodeId(a), NodeId(b), volume);
        }
        Self { graph, members }
    }

    /// Total crossing volume (the edge cut of the partition).
    pub fn edge_cut(&self) -> f64 {
        self.graph.total_volume()
    }
}

/// Convenience: true iff `partition` induces an acyclic quotient graph.
pub fn is_acyclic_partition(g: &Dag, partition: &Partition) -> bool {
    PassScratch::default().index(&FlatQuotient::build(g, partition), 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;
    use crate::critical::critical_path;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The 9-task example of paper Fig. 1, reconstructed from the facts
    /// the paper states: task 1 is the only source, task 9 the only
    /// target, parents of task 6 are {3,4}, children of 6 are {7,8},
    /// merging tasks 4 and 9 creates a cycle via edges (4,6) and (8,9),
    /// and the quotient of the partition below has the weights given in
    /// §3.3 (all quotient edge costs 1 except c(ν1,ν3) = 2).
    fn paper_graph() -> Dag {
        let mut g = Dag::new();
        for _ in 0..9 {
            g.add_node(1.0, 1.0);
        }
        // 0-indexed edges (tasks 1..9 -> ids 0..8):
        // 1->2, 1->3, 1->4, 2->5, 3->6, 4->6, 5->7, 5->9, 6->7, 6->8,
        // 7->8, 8->9
        let e = [
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 4),
            (2, 5),
            (3, 5),
            (4, 6),
            (4, 8),
            (5, 6),
            (5, 7),
            (6, 7),
            (7, 8),
        ];
        for (a, b) in e {
            g.add_edge(NodeId(a), NodeId(b), 1.0);
        }
        g
    }

    /// Partition of Fig. 1: V1={1,2,3,4}, V2={5}, V3={6,7,8}, V4={9}.
    fn paper_partition() -> Partition {
        Partition::from_raw(&[0, 0, 0, 0, 1, 2, 2, 2, 3])
    }

    #[test]
    fn from_raw_renumbers_densely() {
        let p = Partition::from_raw(&[5, 5, 9, 2]);
        assert_eq!(p.num_blocks(), 3);
        assert_eq!(p.block_of(NodeId(0)), BlockId(0));
        assert_eq!(p.block_of(NodeId(2)), BlockId(1));
        assert_eq!(p.block_of(NodeId(3)), BlockId(2));
    }

    /// The hashing renumbering [`Partition::from_raw`] replaced.
    fn reference_from_raw(raw: &[u32]) -> Partition {
        let mut remap: HashMap<u32, u32> = HashMap::new();
        let mut assignment = Vec::with_capacity(raw.len());
        for &b in raw {
            let next = remap.len() as u32;
            let dense = *remap.entry(b).or_insert(next);
            assignment.push(BlockId(dense));
        }
        Partition {
            assignment,
            num_blocks: remap.len(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The slot table renumbers like the hash map did: on dense
        /// numbers, on numbers with gaps, and on numbers too sparse
        /// for a slot each (up to `u32::MAX`, ranked first).
        #[test]
        fn from_raw_equals_the_hashing_reference(
            raw in proptest::collection::vec(0u32..40, 0..200),
            spread in 0u32..4,
        ) {
            let raw: Vec<u32> = match spread {
                0 => raw,
                1 => raw.iter().map(|&b| b * 7 + 5).collect(),
                2 => raw.iter().map(|&b| b * 97).collect(),
                _ => raw.iter().map(|&b| u32::MAX - b * 0x0100_0001).collect(),
            };
            let want = reference_from_raw(&raw);
            proptest::prop_assert_eq!(Partition::from_raw(&raw), want.clone());
            // Its own numbers, already dense, are taken over as they are;
            // the raw ones are refused unless they are dense too.
            let dense: Vec<u32> = want.assignment.iter().map(|b| b.0).collect();
            proptest::prop_assert_eq!(Partition::from_dense(dense.clone()), want);
            let taken = std::panic::catch_unwind(|| Partition::from_dense(raw.clone()));
            proptest::prop_assert_eq!(taken.is_ok(), raw == dense);
        }
    }

    #[test]
    fn paper_quotient_weights() {
        let g = paper_graph();
        let p = paper_partition();
        let q = QuotientGraph::build(&g, &p);
        assert!(is_acyclic_partition(&g, &p));
        // Paper: w1=4, w2=1, w3=3, w4=1
        let works: Vec<f64> = q.graph.node_ids().map(|u| q.graph.node(u).work).collect();
        assert_eq!(works, vec![4.0, 1.0, 3.0, 1.0]);
        // Paper: all quotient edge costs 1 except c(v1,v3) = 2.
        let e13 = q.graph.edge_between(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(q.graph.edge(e13).volume, 2.0);
        let e12 = q.graph.edge_between(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(q.graph.edge(e12).volume, 1.0);
    }

    #[test]
    fn paper_cyclic_merge_detected() {
        // Merging tasks 4 and 9 (ids 3 and 8) makes the quotient cyclic
        // via edges (4,6) and (8,9) — paper §3.3.
        let g = paper_graph();
        let p = Partition::from_raw(&[0, 0, 0, 4, 1, 2, 2, 2, 4]);
        assert!(!is_acyclic_partition(&g, &p));
    }

    #[test]
    fn edge_cut_sums_crossing_volume() {
        let g = paper_graph();
        let p = paper_partition();
        let q = QuotientGraph::build(&g, &p);
        // Crossing edges in Fig.1: 2->5,3->6? recount: internal edges of
        // V1: (0,1),(0,2),(0,3); V3: (5,6),(5,7)... crossing:
        // (1,4),(2,5),(3,5),(4,6),(6,8),(7,8) -> 6 edges of volume 1.
        assert_eq!(q.edge_cut(), 6.0);
    }

    #[test]
    fn single_block_partition() {
        let g = paper_graph();
        let p = Partition::single_block(g.node_count());
        let q = QuotientGraph::build(&g, &p);
        assert_eq!(q.graph.node_count(), 1);
        assert_eq!(q.edge_cut(), 0.0);
        assert!(is_acyclic_partition(&g, &p));
        assert_eq!(q.graph.node(NodeId(0)).work, 9.0);
    }

    /// Paper §3.3 on the quotient of Fig. 1 with unit speeds and
    /// bandwidth: bottom weights `l4 = 1, l3 = 5, l2 = 7, l1 = 12`, so
    /// the makespan is 12 along ν1 → ν2 → ν3 → ν4. A faster first block
    /// or a wider link shortens it; the cyclic merge has none.
    #[test]
    fn paper_quotient_passes() {
        let g = paper_graph();
        let mut q = FlatQuotient::build(&g, &paper_partition());
        let mut pass = PassScratch::default();
        assert_eq!(pass.bottom_weights(&q, 1.0), Some(12.0));
        assert_eq!(pass.bottom, vec![12.0, 7.0, 5.0, 1.0]);
        let mut path = Vec::new();
        pass.critical_path(&q, &mut path);
        assert_eq!(path, vec![0, 1, 2, 3]);
        assert!(q.makespan(2.0) < 12.0);
        q.speed[0] = 2.0;
        assert!(pass.relax(&q) < 12.0);
        let cyclic = Partition::from_raw(&[0, 0, 0, 4, 1, 2, 2, 2, 4]);
        assert_eq!(
            FlatQuotient::build(&g, &cyclic).makespan(1.0),
            f64::INFINITY
        );
    }

    #[test]
    fn empty_graph_has_an_empty_quotient() {
        let q = FlatQuotient::build(&Dag::new(), &Partition::from_raw(&[]));
        assert!(q.is_empty());
        assert_eq!(q.makespan(1.0).to_bits(), 0.0f64.to_bits());
        let mut pass = PassScratch::default();
        assert_eq!(pass.bottom_weights(&q, 1.0), Some(0.0));
        let mut path = vec![7];
        pass.critical_path(&q, &mut path);
        assert!(path.is_empty());
        assert!(critical_path(&Dag::new(), |_| 0.0, |_| 0.0).is_none());
    }

    // ---- The references the flat quotient replaced -----------------

    /// `QuotientGraph::build` as it was: a hash map of block pairs, then
    /// a `Dag`.
    fn reference_build(g: &Dag, partition: &Partition) -> QuotientGraph {
        assert_eq!(partition.len(), g.node_count());
        let k = partition.num_blocks();
        let mut graph = Dag::with_capacity(k, g.edge_count().min(k * k));
        let members = partition.members();
        for m in &members {
            let work: f64 = m.iter().map(|&u| g.node(u).work).sum();
            let memory: f64 = m.iter().map(|&u| g.node(u).memory).sum();
            graph.add_node(work, memory);
        }
        for (a, b, volume) in coalesce_by_hash_map(&block_edges(g, partition)) {
            graph.add_edge(NodeId(a), NodeId(b), volume);
        }
        QuotientGraph { graph, members }
    }

    /// The makespan of `q` under `speed` as a topological sort and
    /// [`crate::critical::bottom_weights`] over the `Dag` give it.
    fn reference_makespan(q: &Dag, speed: &[f64], bandwidth: f64) -> f64 {
        crate::critical::bottom_weights(
            q,
            |u| q.node(u).work / speed[u.idx()],
            |e| q.edge(e).volume / bandwidth,
        )
        .map_or(f64::INFINITY, |b| b.into_iter().fold(0.0, f64::max))
    }

    /// A weighted G(n, p) DAG with its tasks relabelled by random keys
    /// (ids are not a topological order) and a partition of it, drawn
    /// so that the sums show their order: zero and `-0.0` works and
    /// volumes (and, when `hostile`, NaN and `±∞` volumes), and the
    /// first `doubled` task edges repeated one to three times (dense
    /// graphs and few blocks give many parallel crossing edges). One
    /// draw in twelve has no edge at all. The blocks are random (mostly
    /// a cyclic quotient; from one block up to one per task, so the
    /// quotient's `k²` lands on both sides of the coalescer's switch),
    /// or, when `runs` draws `true`, runs of a topological order (always
    /// acyclic, and still numbered by first appearance over task ids,
    /// which is not a topological order of the quotient).
    fn arb_partitioned(
        runs: impl Strategy<Value = bool>,
        hostile: bool,
    ) -> impl Strategy<Value = (Dag, Partition)> {
        (
            (1usize..40, 0.0f64..0.6, any::<u64>(), runs),
            (
                1u32..48,
                collection::vec(any::<u32>(), 40),
                collection::vec(any::<u64>(), 40),
            ),
            (
                collection::vec(0u8..4, 40),
                collection::vec(0u8..7, 64),
                (0usize..64, 1usize..4),
            ),
        )
            .prop_map(
                move |(
                    (n, p, seed, runs),
                    (parts, raw, keys),
                    (works, volumes, (doubled, copies)),
                )| {
                    let p = if p < 0.05 { 0.0 } else { p };
                    let base = builder::gnp_dag_weighted(n, p, seed);
                    let mut by_key: Vec<usize> = (0..n).collect();
                    by_key.sort_by_key(|&i| (keys[i], i));
                    let mut label = vec![0u32; n];
                    for (new, &old) in by_key.iter().enumerate() {
                        label[old] = new as u32;
                    }
                    let tweak = |v: f64, class: u8| match class {
                        1 => 0.0,
                        2 => -0.0,
                        4 if hostile => f64::NAN,
                        5 if hostile => f64::INFINITY,
                        6 if hostile => f64::NEG_INFINITY,
                        _ => v,
                    };
                    let mut g = Dag::new();
                    for (&old, &class) in by_key.iter().zip(&works) {
                        let task = base.node(NodeId(old as u32));
                        g.add_node(tweak(task.work, class), task.memory);
                    }
                    for (i, e) in base.edge_ids().map(|e| base.edge(e)).enumerate() {
                        let (src, dst) = (NodeId(label[e.src.idx()]), NodeId(label[e.dst.idx()]));
                        let volume = tweak(e.volume, volumes[i % volumes.len()]);
                        g.add_edge(src, dst, volume);
                        for copy in 1..=copies * usize::from(i < doubled) {
                            let class = volumes[(i + copy) % volumes.len()];
                            g.add_edge(src, dst, tweak(volume, class));
                        }
                    }
                    let mut blocks: Vec<u32> = raw[..n].iter().map(|r| r % parts).collect();
                    if runs {
                        let order = crate::topo::topo_sort(&g).unwrap();
                        for (i, &u) in order.iter().enumerate() {
                            blocks[u.idx()] = (i * parts as usize / n) as u32;
                        }
                    }
                    (g, Partition::from_raw(&blocks))
                },
            )
    }

    /// Every edge of `g` as `(block of src, block of dst, volume)`, in
    /// edge-id order.
    fn block_edges(g: &Dag, partition: &Partition) -> Vec<(u32, u32, f64)> {
        let block = |u: NodeId| partition.block_of(u).0;
        g.edge_ids()
            .map(|e| g.edge(e))
            .map(|e| (block(e.src), block(e.dst), e.volume))
            .collect()
    }

    /// `FlatQuotient::build`'s coalescing as it was: the crossing edges
    /// stably sorted by block pair, then each run of parallel ones
    /// summed onto `0.0`.
    fn coalesce_by_sort(edges: &[(u32, u32, f64)]) -> Vec<(u32, u32, f64)> {
        let mut crossing: Vec<(u32, u32, f64)> =
            edges.iter().copied().filter(|&(a, b, _)| a != b).collect();
        crossing.sort_by_key(|&(a, b, _)| (a, b));
        let mut out: Vec<(u32, u32, f64)> = Vec::with_capacity(crossing.len());
        for (a, b, volume) in crossing {
            match out.last_mut() {
                Some((la, lb, sum)) if (*la, *lb) == (a, b) => *sum += volume,
                _ => out.push((a, b, 0.0 + volume)),
            }
        }
        out
    }

    /// The quotient's and `dhp_dagp`'s coarse-edge coalescing as they
    /// were: a hash map of node pairs, each volume summed onto `0.0`,
    /// then sorted by pair.
    fn coalesce_by_hash_map(edges: &[(u32, u32, f64)]) -> Vec<(u32, u32, f64)> {
        let mut combined: HashMap<(u32, u32), f64> = HashMap::new();
        for &(a, b, volume) in edges.iter().filter(|&&(a, b, _)| a != b) {
            *combined.entry((a, b)).or_insert(0.0) += volume;
        }
        let mut pairs: Vec<_> = combined.into_iter().collect();
        pairs.sort_by_key(|&(pair, _)| pair);
        pairs
            .into_iter()
            .map(|((a, b), volume)| (a, b, volume))
            .collect()
    }

    /// The bits of `v`, every NaN as `f64::NAN`'s. Rust leaves the sign
    /// and payload of a NaN that arithmetic returns unspecified (on
    /// x86-64, `∞ + -∞` is negative, and where two NaNs meet the
    /// compiler may pick either operand's), so two builds of the same
    /// sum can differ there and nowhere else.
    fn canonical_bits(v: f64) -> u64 {
        if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    fn edge_bits(edges: &[(u32, u32, f64)]) -> Vec<(u32, u32, u64)> {
        edges
            .iter()
            .map(|&(a, b, v)| (a, b, canonical_bits(v)))
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Both ways [`coalesce_crossing`] can take, and the switch
        /// between them, coalesce like the sort and the hash map did,
        /// to the bit (a NaN's sign and payload aside, see
        /// [`canonical_bits`]): from one node to many more than the
        /// edges, none to hundreds of edges over few pairs, internal
        /// edges, and `±0.0`, NaN and `±∞` volumes.
        #[test]
        fn both_coalescing_paths_match_the_sort_and_the_hash_map(
            k in 1usize..64,
            pairs in collection::vec((any::<u32>(), any::<u32>()), 0..300),
            classes in collection::vec(0u8..8, 300),
            few_pairs in any::<bool>(),
        ) {
            let span = if few_pairs { k.min(3) } else { k } as u32;
            let edges: Vec<(u32, u32, f64)> = pairs
                .iter()
                .zip(&classes)
                .map(|(&(a, b), &class)| {
                    let volume = match class {
                        0 => 0.0,
                        1 => -0.0,
                        2 => f64::NAN,
                        3 => f64::INFINITY,
                        4 => f64::NEG_INFINITY,
                        _ => f64::from(a % 1000) * 0.1 + f64::from(b % 7) * 1e-9,
                    };
                    (a % span, b % span, volume)
                })
                .collect();
            let want = edge_bits(&coalesce_by_sort(&edges));
            prop_assert_eq!(edge_bits(&coalesce_by_hash_map(&edges)), want.clone());
            // One scratch and one output list for both paths, each
            // left holding what the one before it wrote.
            let (mut out, mut scratch) = (vec![(7, 7, 7.0)], CoalesceScratch::default());
            out.clear();
            coalesce_in_table(k, edges.iter().copied(), &mut out, &mut scratch);
            prop_assert_eq!(edge_bits(&out), want.clone());
            out.clear();
            coalesce_by_source(k, edges.iter().copied(), &mut out, &mut scratch);
            prop_assert_eq!(edge_bits(&out), want.clone());
            coalesce_crossing_into(k, edges.iter().copied(), &mut out, &mut scratch);
            prop_assert_eq!(edge_bits(&out), want.clone());
            prop_assert_eq!(edge_bits(&coalesce_crossing(k, edges.iter().copied())), want);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// The flat build and the `Dag` it materialises equal the hash
        /// map build to the bit — works, memories, edges with their
        /// volumes, members, edge cut — its edges are the sort's, and
        /// the Kahn pass's verdict is `cycles::is_cyclic`'s, on cyclic
        /// and acyclic quotients.
        #[test]
        fn flat_quotient_build_matches_the_hash_map_build(
            (g, partition) in arb_partitioned(any::<bool>(), true),
        ) {
            let want = reference_build(&g, &partition);
            let got = QuotientGraph::build(&g, &partition);
            let flat = FlatQuotient::build(&g, &partition);
            let bits = |xs: &mut dyn Iterator<Item = f64>| xs.map(f64::to_bits).collect::<Vec<_>>();
            let node_bits = |q: &Dag| {
                q.node_ids()
                    .map(|u| (q.node(u).work.to_bits(), q.node(u).memory.to_bits()))
                    .collect::<Vec<_>>()
            };
            let dag_edge_bits = |q: &Dag| {
                q.edge_ids()
                    .map(|e| q.edge(e))
                    .map(|e| (e.src.0, e.dst.0, canonical_bits(e.volume)))
                    .collect::<Vec<_>>()
            };
            prop_assert_eq!(node_bits(&got.graph), node_bits(&want.graph));
            prop_assert_eq!(dag_edge_bits(&got.graph), dag_edge_bits(&want.graph));
            prop_assert_eq!(&got.members, &want.members);
            prop_assert_eq!(canonical_bits(got.edge_cut()), canonical_bits(want.edge_cut()));
            prop_assert_eq!(
                bits(&mut flat.work.iter().copied()),
                bits(&mut want.graph.node_ids().map(|u| want.graph.node(u).work))
            );
            prop_assert!(flat.speed.iter().all(|&s| s == 1.0));
            prop_assert_eq!(edge_bits(&flat.edges), dag_edge_bits(&want.graph));
            let by_sort = coalesce_by_sort(&block_edges(&g, &partition));
            prop_assert_eq!(edge_bits(&flat.edges), edge_bits(&by_sort));
            let acyclic = !crate::cycles::is_cyclic(&want.graph);
            prop_assert_eq!(PassScratch::default().index(&flat, 1.0), acyclic);
            prop_assert_eq!(is_acyclic_partition(&g, &partition), acyclic);
            prop_assert_eq!(
                flat.makespan(1.0).to_bits(),
                reference_makespan(&want.graph, &flat.speed, 1.0).to_bits()
            );
        }

        /// Index once, then relax under one speed vector after another
        /// (what Step 4 and the exact solver do): the makespan and the
        /// critical path of the `Dag` passes, to the bit and in path
        /// order, on acyclic quotients.
        #[test]
        fn indexed_once_relaxed_often_matches_the_dag_passes(
            (g, partition) in arb_partitioned(Just(true), false),
            speeds in collection::vec(collection::vec(0usize..5, 40), 6),
            bandwidth in proptest::sample::select(vec![0.3, 1.0, 3.0, 7.0]),
        ) {
            let q = reference_build(&g, &partition).graph;
            let mut flat = FlatQuotient::build(&g, &partition);
            let mut pass = PassScratch::default();
            prop_assert!(pass.index(&flat, bandwidth));
            let mut path = Vec::new();
            for draw in &speeds {
                for (slot, &class) in flat.speed.iter_mut().zip(draw) {
                    *slot = [1.0, 4.0, 8.0, 16.0, 32.0][class];
                }
                let want = reference_makespan(&q, &flat.speed, bandwidth);
                prop_assert_eq!(pass.relax(&flat).to_bits(), want.to_bits());
                pass.critical_path(&flat, &mut path);
                let want: Vec<u32> = critical_path(
                    &q,
                    |u| q.node(u).work / flat.speed[u.idx()],
                    |e| q.edge(e).volume / bandwidth,
                )
                .map(|cp| cp.path.iter().map(|u| u.0).collect())
                .unwrap_or_default();
                prop_assert_eq!(&path, &want);
            }
        }

        /// Every pair of nodes of an acyclic quotient, either way round,
        /// on hostile numbers (zero, negative and NaN works, `-0.0` and
        /// NaN volumes, speeds 0 and negative): the linear pass writes
        /// the contraction the sort writes, and the pass scores that
        /// contraction without building it — the same verdict and the
        /// same makespan bits as indexing and relaxing it.
        #[test]
        fn a_merged_pair_scores_as_its_contraction(
            (g, partition) in arb_partitioned(Just(true), false),
            speeds in collection::vec(0usize..7, 40),
            hostile in collection::vec(0u8..8, 64),
            bandwidth in proptest::sample::select(vec![0.3, 1.0, 3.0, 7.0]),
        ) {
            let mut q = FlatQuotient::build(&g, &partition);
            for (u, &class) in speeds.iter().enumerate().take(q.len()) {
                q.speed[u] = [1.0, 4.0, 8.0, 16.0, 32.0, 0.0, -2.0][class];
                match hostile[u] {
                    0 => q.work[u] = f64::NAN,
                    1 => q.work[u] = -q.work[u] - 1.0,
                    _ => {}
                }
            }
            for (e, &class) in q.edges.iter_mut().zip(hostile.iter().rev()) {
                match class {
                    0 => e.2 = f64::NAN,
                    1 | 2 => e.2 = -0.0,
                    _ => {}
                }
            }
            let mut pass = PassScratch::default();
            prop_assert!(pass.index(&q, bandwidth));
            pass.relax(&q);
            let (mut got, mut want) = (FlatQuotient::default(), FlatQuotient::default());
            let (mut renumber, mut check) = (Vec::new(), PassScratch::default());
            let bits = |q: &FlatQuotient| {
                (
                    q.work.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
                    q.speed.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                    q.edges.iter().map(|&(a, b, v)| (a, b, v.to_bits())).collect::<Vec<_>>(),
                )
            };
            for x in 0..q.len() as u32 {
                for y in (0..q.len() as u32).filter(|&y| y != x) {
                    q.contract_into(&[x, y], 5.0, &mut got, &mut renumber);
                    contract_by_sort(&q, &[x, y], 5.0, &mut want);
                    prop_assert_eq!(bits(&got), bits(&want));
                    let scored = pass.merged_pair_makespan(&q, [x, y], 5.0);
                    let built = check.bottom_weights(&got, bandwidth);
                    prop_assert_eq!(scored.map(f64::to_bits), built.map(f64::to_bits), "{} {}", x, y);
                }
            }
        }
    }

    /// [`FlatQuotient::contract_into`] as it was for every group: map
    /// the edges, sort them, fold parallel ones.
    fn contract_by_sort(
        q: &FlatQuotient,
        group: &[u32],
        merged_speed: f64,
        out: &mut FlatQuotient,
    ) {
        let mut new_of_old = vec![u32::MAX; q.len()];
        for &member in group {
            new_of_old[member as usize] = 0;
        }
        let mut next = 1;
        for slot in new_of_old.iter_mut().filter(|slot| **slot == u32::MAX) {
            *slot = next;
            next += 1;
        }
        out.work.clear();
        out.work.resize(next as usize, 0.0);
        out.speed.clear();
        out.speed.resize(next as usize, 1.0);
        for (old, &new) in new_of_old.iter().enumerate() {
            out.work[new as usize] += q.work[old];
            out.speed[new as usize] = q.speed[old];
        }
        out.speed[0] = merged_speed;
        out.edges = q
            .edges
            .iter()
            .map(|&(a, b, vol)| (new_of_old[a as usize], new_of_old[b as usize], vol))
            .filter(|&(a, b, _)| a != b)
            .collect();
        out.edges.sort_unstable_by_key(|&(a, b, _)| (a, b));
        out.edges.dedup_by(|next, kept| {
            let parallel = (next.0, next.1) == (kept.0, kept.1);
            if parallel {
                kept.2 += next.2;
            }
            parallel
        });
    }
}
