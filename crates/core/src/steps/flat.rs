//! The quotient graph as Steps 3 and 4 hold it: flat arrays instead of
//! a [`Dag`], and the passes over it (Kahn order, bottom weights,
//! critical path, tight chain, first cycle) on buffers that are reused
//! from one candidate to the next.
//!
//! [`FlatQuotient::of_blocks`] builds it straight from a
//! [`BlockSet`] — one block-of-task table, one sort of the crossing
//! edges, no hashing — in the numbering and summation order of
//! `BlockSet::to_partition` + `QuotientGraph::build`, which the tests
//! keep as its reference.
//!
//! A pass is split where its inputs change at different rates.
//! [`PassScratch::index`] depends on the quotient's shape and volumes
//! only — out-edge index, Kahn order, edge costs `volume / bandwidth`;
//! [`PassScratch::relax`] is the one reverse sweep that depends on the
//! speeds. Step 3 contracts a new quotient per candidate and runs both;
//! Step 4 only ever changes speeds, indexes its quotient once and
//! relaxes per candidate.
//!
//! The arithmetic is that of `dhp_dag::critical` (`tail.max(cost +
//! bottom[v])`, `work / speed + tail`), so makespans and critical paths
//! equal `makespan::quotient_makespan` / `quotient_critical_path` to
//! the bit.

use crate::blocks::BlockSet;
use dhp_dag::Dag;
use dhp_platform::Cluster;

/// A quotient graph as flat arrays. Node ids are dense `u32`s.
#[derive(Debug, Default)]
pub(super) struct FlatQuotient {
    /// Summed task work per node.
    pub(super) work: Vec<f64>,
    /// Speed per node: its block's processor's, 1.0 while unassigned
    /// (the paper's *estimated* makespan).
    pub(super) speed: Vec<f64>,
    /// `(src, dst, volume)`, ascending by `(src, dst)`, no parallel
    /// edges.
    pub(super) edges: Vec<(u32, u32, f64)>,
}

impl FlatQuotient {
    /// The quotient of `bs` over `g`, plus the quotient node of every
    /// block index.
    ///
    /// Built straight from the blocks: nodes are numbered by first
    /// appearance over task ids (the numbering of
    /// `BlockSet::to_partition`), and every sum is taken in the order
    /// `QuotientGraph::build` takes it — a block's work over its
    /// members ascending, a quotient edge's volume onto `0.0` over its
    /// crossing edges in edge-id order — so the weights keep their bits
    /// without a `Partition`, a `Dag` or a hash map in between.
    pub(super) fn of_blocks(g: &Dag, bs: &BlockSet, cluster: &Cluster) -> (Self, Vec<u32>) {
        let mut block_of_task = vec![u32::MAX; g.node_count()];
        for (b, block) in bs.iter().enumerate() {
            for &u in &block.members {
                debug_assert_eq!(block_of_task[u.idx()], u32::MAX, "overlapping blocks");
                block_of_task[u.idx()] = b as u32;
            }
        }
        let mut node_of_block = vec![u32::MAX; bs.len()];
        let mut next = 0u32;
        for &b in &block_of_task {
            assert!(b != u32::MAX, "block set does not cover the graph");
            let node = &mut node_of_block[b as usize];
            if *node == u32::MAX {
                *node = next;
                next += 1;
            }
        }
        debug_assert_eq!(next as usize, bs.len(), "empty block");
        // The same table, now holding every task's quotient node.
        let mut node_of_task = block_of_task;
        for b in &mut node_of_task {
            *b = node_of_block[*b as usize];
        }

        let mut work = vec![0.0; bs.len()];
        let mut speed = vec![1.0; bs.len()];
        for (block, &node) in bs.iter().zip(&node_of_block) {
            // Members ascend (a `Block` invariant), as in `Partition::members`.
            work[node as usize] = block.members.iter().map(|&u| g.node(u).work).sum();
            speed[node as usize] = block.proc.map_or(1.0, |p| cluster.speed(p));
        }

        let node = |u: dhp_dag::NodeId| node_of_task[u.idx()];
        let mut crossing: Vec<(u32, u32, f64)> = g
            .edge_ids()
            .map(|e| g.edge(e))
            .map(|e| (node(e.src), node(e.dst), e.volume))
            .filter(|&(a, b, _)| a != b)
            .collect();
        // Stable: parallel edges stay in edge-id order.
        crossing.sort_by_key(|&(a, b, _)| (a, b));
        let mut edges: Vec<(u32, u32, f64)> = Vec::with_capacity(crossing.len());
        for (a, b, volume) in crossing {
            match edges.last_mut() {
                Some((la, lb, sum)) if (*la, *lb) == (a, b) => *sum += volume,
                _ => edges.push((a, b, 0.0 + volume)),
            }
        }
        (Self { work, speed, edges }, node_of_block)
    }

    /// `q` (simple, edges stored ascending by endpoints, as
    /// `QuotientGraph::build` leaves them) with the given node speeds.
    #[cfg(test)]
    pub(super) fn of_dag(q: &Dag, speed: Vec<f64>) -> Self {
        let edges: Vec<(u32, u32, f64)> = q
            .edge_ids()
            .map(|e| q.edge(e))
            .map(|e| (e.src.0, e.dst.0, e.volume))
            .collect();
        debug_assert!(edges
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        Self {
            work: q.node_ids().map(|u| q.node(u).work).collect(),
            speed,
            edges,
        }
    }

    pub(super) fn len(&self) -> usize {
        self.work.len()
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
    /// golden outputs were recorded with.
    pub(super) fn contract_into(
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
}

/// Reusable buffers of the passes over a [`FlatQuotient`].
#[derive(Debug, Default)]
pub(super) struct PassScratch {
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
    pub(super) fn index(&mut self, q: &FlatQuotient, bandwidth: f64) -> bool {
        let n = q.len();
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

    /// Fills `bottom` for the speeds `q` has now and returns the
    /// makespan: the largest bottom weight, with node cost
    /// `work / speed`. `q` must be the acyclic quotient last given to
    /// [`PassScratch::index`], its speeds aside.
    pub(super) fn relax(&mut self, q: &FlatQuotient) -> f64 {
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
    pub(super) fn bottom_weights(&mut self, q: &FlatQuotient, bandwidth: f64) -> Option<f64> {
        self.index(q, bandwidth).then(|| self.relax(q))
    }

    /// Writes the critical path of `q`, first node to last, into `path`
    /// (empty when `q` is empty). Needs the bottom weights of a
    /// [`PassScratch::relax`] under `q`'s current speeds. Starts at the
    /// smallest node id of maximal bottom weight and follows, at each
    /// step, the smallest child id that realises it.
    pub(super) fn critical_path(&self, q: &FlatQuotient, path: &mut Vec<u32>) {
        path.clear();
        if q.len() == 0 {
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
    pub(super) fn mark_tight_chain(
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
    /// [`PassScratch::bottom_weights`]): depth-first from the smallest
    /// node id, children in ascending id, to the first edge that closes
    /// a cycle. If that cycle has exactly two nodes, returns the one
    /// that is not the merged node 0 — the third vertex of paper Fig. 2;
    /// a longer first cycle disqualifies the candidate.
    pub(super) fn two_cycle_partner(&mut self, q: &FlatQuotient) -> Option<u32> {
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

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::makespan::{quotient_critical_path, quotient_makespan};
    use dhp_dag::{builder, NodeId};
    use proptest::prelude::*;

    /// A random quotient: a weighted G(n, p) DAG whose nodes are
    /// relabelled by the order of `keys` (so ids are not a topological
    /// order, as in a real quotient), edges ascending, plus a speed per
    /// node.
    pub(in crate::steps) fn random_quotient(
        n: usize,
        p: f64,
        seed: u64,
        keys: &[u64],
    ) -> (Dag, Vec<f64>) {
        let g = builder::gnp_dag_weighted(n, p, seed);
        let mut by_key: Vec<usize> = (0..n).collect();
        by_key.sort_by_key(|&i| (keys[i % keys.len()], i));
        let mut label = vec![0u32; n];
        for (new, &old) in by_key.iter().enumerate() {
            label[old] = new as u32;
        }
        let mut q = Dag::new();
        for &old in &by_key {
            q.add_node(g.node(NodeId(old as u32)).work, 0.0);
        }
        let mut edges: Vec<(u32, u32, f64)> = g
            .edge_ids()
            .map(|e| g.edge(e))
            .map(|e| (label[e.src.idx()], label[e.dst.idx()], e.volume))
            .collect();
        edges.sort_by_key(|&(a, b, _)| (a, b));
        for (a, b, vol) in edges {
            q.add_edge(NodeId(a), NodeId(b), vol);
        }
        let speed = (0..n)
            .map(|i| [1.0, 4.0, 8.0, 16.0, 32.0][(keys[i % keys.len()] % 5) as usize])
            .collect();
        (q, speed)
    }

    /// The detour [`FlatQuotient::of_blocks`] replaced: `to_partition`,
    /// then `QuotientGraph::build` (two hash maps and a `Dag`), then
    /// [`FlatQuotient::of_dag`].
    fn reference_of_blocks(g: &Dag, bs: &BlockSet, cluster: &Cluster) -> (FlatQuotient, Vec<u32>) {
        let partition = bs.to_partition(g.node_count());
        let node_of_block: Vec<u32> = bs
            .iter()
            .map(|b| partition.block_of(b.members[0]).0)
            .collect();
        let mut speed = vec![1.0; bs.len()];
        for (b, &qn) in bs.iter().zip(&node_of_block) {
            speed[qn as usize] = b.proc.map_or(1.0, |p| cluster.speed(p));
        }
        let q = dhp_dag::QuotientGraph::build(g, &partition);
        (FlatQuotient::of_dag(&q.graph, speed), node_of_block)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The direct build equals the detour to the bit — works,
        /// speeds, edges with their volumes, and the node of every
        /// block — on block sets whose order is not first appearance
        /// (merges swap-remove), with zero and `-0.0` works and volumes
        /// and many parallel crossing edges (dense graphs, few blocks,
        /// and task edges doubled).
        #[test]
        fn direct_quotient_build_matches_the_partition_detour(
            n in 1usize..40,
            p in 0.05f64..0.6,
            seed in any::<u64>(),
            parts in 1u32..10,
            raw in proptest::collection::vec(any::<u32>(), 40),
            works in proptest::collection::vec(0u8..4, 40),
            volumes in proptest::collection::vec(0u8..4, 64),
            doubled in 0usize..64,
            merges in proptest::collection::vec((any::<usize>(), any::<usize>()), 0..4),
            procs in proptest::collection::vec(0u32..6, 40),
        ) {
            let mut g = builder::gnp_dag_weighted(n, p, seed);
            for (u, &w) in g.node_ids().collect::<Vec<_>>().into_iter().zip(&works) {
                match w {
                    1 => g.node_mut(u).work = 0.0,
                    2 => g.node_mut(u).work = -0.0,
                    _ => {}
                }
            }
            let tweak = |v: f64, class: u8| match class {
                1 => 0.0,
                2 => -0.0,
                _ => v,
            };
            let edges: Vec<_> = g.edge_ids().collect();
            for (&e, &class) in edges.iter().zip(&volumes) {
                g.edge_mut(e).volume = tweak(g.edge(e).volume, class);
            }
            for (i, &e) in edges.iter().take(doubled).enumerate() {
                let (src, dst, volume) = (g.edge(e).src, g.edge(e).dst, g.edge(e).volume);
                g.add_edge(src, dst, tweak(volume, volumes[(i + 1) % volumes.len()]));
            }
            let raw: Vec<u32> = raw[..n].iter().map(|r| r % parts).collect();
            let mut bs = BlockSet::from_partition(&g, &dhp_dag::Partition::from_raw(&raw));
            for &(i, j) in &merges {
                let (i, j) = (i % bs.len(), j % bs.len());
                if i != j {
                    bs.merge_blocks(&g, i, j, None, None);
                }
            }
            let cluster = Cluster::new(
                [1.0, 4.0, 8.0, 16.0]
                    .iter()
                    .map(|&s| dhp_platform::Processor::new("p", s, 1.0))
                    .collect(),
                1.0,
            );
            for (b, &proc) in procs.iter().enumerate().take(bs.len()) {
                if (proc as usize) < cluster.len() {
                    bs.assign(b, dhp_platform::ProcId(proc));
                }
            }

            let (got, got_nodes) = FlatQuotient::of_blocks(&g, &bs, &cluster);
            let (want, want_nodes) = reference_of_blocks(&g, &bs, &cluster);
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(got_nodes, want_nodes);
            prop_assert_eq!(bits(&got.work), bits(&want.work));
            prop_assert_eq!(bits(&got.speed), bits(&want.speed));
            let edge_bits = |q: &FlatQuotient| {
                q.edges.iter().map(|&(a, b, v)| (a, b, v.to_bits())).collect::<Vec<_>>()
            };
            prop_assert_eq!(edge_bits(&got), edge_bits(&want));
        }

        /// What Step 4 does to a quotient — index it once, then relax
        /// under one speed vector after another — gives the makespan
        /// and the critical path of the `Dag` passes, to the bit and in
        /// path order.
        #[test]
        fn indexed_once_relaxed_often_matches_the_dag_passes(
            n in 1usize..28,
            p in 0.05f64..0.5,
            seed in any::<u64>(),
            keys in proptest::collection::vec(any::<u64>(), 28),
            speeds in proptest::collection::vec(proptest::collection::vec(0usize..5, 28), 6),
            bandwidth in proptest::sample::select(vec![0.3, 1.0, 3.0, 7.0]),
        ) {
            let (q, speed) = random_quotient(n, p, seed, &keys);
            let mut flat = FlatQuotient::of_dag(&q, speed);
            let mut pass = PassScratch::default();
            prop_assert!(pass.index(&flat, bandwidth));
            let mut path = Vec::new();
            for draw in &speeds {
                for (slot, &class) in flat.speed.iter_mut().zip(draw) {
                    *slot = [1.0, 4.0, 8.0, 16.0, 32.0][class];
                }
                let want = quotient_makespan(&q, &flat.speed, bandwidth);
                prop_assert_eq!(pass.relax(&flat).to_bits(), want.to_bits());
                pass.critical_path(&flat, &mut path);
                let want: Vec<u32> = quotient_critical_path(&q, &flat.speed, bandwidth)
                    .unwrap_or_default()
                    .iter()
                    .map(|u| u.0)
                    .collect();
                prop_assert_eq!(&path, &want);
            }
        }
    }
}
