//! Step 3: `MergeUnassignedToAssigned` and `FindMSOptMerge`
//! (paper Algorithms 3 and 4).
//!
//! Works on the quotient graph of the Step-2 block set. Every unassigned
//! block is merged into an assigned neighbour (parent or child in the
//! quotient graph), preferring merge partners *off* the critical path,
//! choosing the partner that yields the smallest estimated makespan among
//! all feasible candidates. A merge that would create a 2-cycle can be
//! repaired by absorbing the third vertex of the cycle (paper Fig. 2);
//! longer cycles disqualify the candidate. A block whose neighbours are
//! all unassigned is requeued (at most twice, via a per-block counter);
//! if no merge can ever be found the step fails — the platform does not
//! have enough resources.
//!
//! # What one iteration costs
//!
//! With `B` blocks and `E_q` quotient edges, one queue iteration is one
//! critical path — only after a merge changed the quotient: one index
//! and one relax, which every candidate until the next merge reads —
//! plus, per candidate partner, one backward sweep of the Kahn order
//! up to the later of the two quotient nodes: `O(B + E_q)`, no
//! allocation, nothing built (`PassScratch::merged_pair_makespan`). The
//! merged node's bottom weight comes from the two nodes' out-edges,
//! its ancestors get new ones, and every other node keeps its own.
//! Only a candidate whose contraction is cyclic is contracted, to look
//! for the 2-cycle and absorb its third block. A candidate that beats
//! the incumbent's makespan then asks the solve's memo for the bounds
//! of one block requirement (the requirement itself only when they
//! straddle the partner's memory). The executed merge is contracted
//! once — in one linear pass when it joins two blocks — and becomes
//! the state, with the bounds its check left behind.

use crate::blockmem::ReqMemo;
use crate::blocks::{removal_order, BlockSet, MemberPool};
use crate::makespan::{quotient_of_blocks_into, QuotientScratch};
use crate::workspace::Workspace;
use crate::SchedError;
use dhp_dag::{Dag, FlatQuotient, NodeId, PassScratch};
use dhp_memdag::PeakBounds;
use dhp_platform::Cluster;
use std::collections::{HashMap, VecDeque};

/// The winning candidate of one search.
#[derive(Clone, Copy, Debug)]
struct BestMerge {
    /// Estimated makespan after the merge.
    makespan: f64,
    /// The assigned partner block (index into the block set).
    partner: usize,
    /// Optional third block absorbed to break a 2-cycle.
    third: Option<usize>,
    /// The speed of the partner's processor, the merged block's.
    speed: f64,
    /// What is known of the merged block's memory requirement.
    req: PeakBounds,
}

/// What Step 3 reuses from one attempt to the next: the quotient, its
/// tables and the buffers of candidate evaluation ([`State`]), and the
/// queue with its bookkeeping.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    state: State,
    /// Block ids in processing order, and how often each was requeued.
    queue: VecDeque<u64>,
    counters: HashMap<u64, u32>,
    unassigned: Vec<usize>,
    /// The critical-path mark of every quotient node, and one block's
    /// neighbours.
    critical: Vec<bool>,
    neighbours: Vec<usize>,
}

/// What a [`Step3`] works on.
#[derive(Debug, Default)]
struct State {
    q: FlatQuotient,
    node_of_block: Vec<u32>,
    block_of_node: Vec<u32>,
    /// `q` indexed and relaxed, when it is acyclic: what a two-block
    /// candidate is scored on.
    pass: PassScratch,
    /// A contraction (a cyclic candidate's, or the executed merge's),
    /// its old → new node renumbering and its own passes.
    cand_q: FlatQuotient,
    cand_renumber: Vec<u32>,
    cand_pass: PassScratch,
    path: Vec<u32>,
    members: Vec<NodeId>,
    quotient: QuotientScratch,
}

/// State of one Step-3 run: the current quotient, its two-way block
/// index, and the buffers candidate evaluation reuses, all in `s`.
#[derive(Debug)]
struct Step3<'a, 's> {
    cluster: &'a Cluster,
    memo: &'a ReqMemo<'a>,
    enable_triple_merge: bool,
    /// Whether `s.pass` holds `s.q` indexed and relaxed.
    relaxed: bool,
    s: &'s mut State,
}

impl<'a, 's> Step3<'a, 's> {
    /// Starts on the quotient in `s.q`, whose node of every block is in
    /// `s.node_of_block`.
    fn new(
        cluster: &'a Cluster,
        memo: &'a ReqMemo<'a>,
        enable_triple_merge: bool,
        s: &'s mut State,
    ) -> Self {
        let mut st = Self {
            cluster,
            memo,
            enable_triple_merge,
            relaxed: false,
            s,
        };
        st.index_nodes();
        st
    }

    fn index_nodes(&mut self) {
        let s = &mut *self.s;
        s.block_of_node.clear();
        s.block_of_node.resize(s.node_of_block.len(), 0);
        for (block, &qn) in s.node_of_block.iter().enumerate() {
            s.block_of_node[qn as usize] = block as u32;
        }
    }

    /// Marks the nodes on the current quotient's critical path (none
    /// when it is cyclic). Leaves the quotient indexed and relaxed for
    /// the candidates scored until the next merge.
    fn mark_critical_path(&mut self, on_path: &mut Vec<bool>) {
        on_path.clear();
        on_path.resize(self.s.q.len(), false);
        self.relaxed = self
            .s
            .pass
            .bottom_weights(&self.s.q, self.cluster.bandwidth)
            .is_some();
        if self.relaxed {
            self.s.pass.critical_path(&self.s.q, &mut self.s.path);
            for &u in &self.s.path {
                on_path[u as usize] = true;
            }
        }
    }

    /// Block indices adjacent to `block` in the quotient, ascending.
    fn neighbours(&self, block: usize, out: &mut Vec<usize>) {
        let qn = self.s.node_of_block[block];
        out.clear();
        for &(a, b, _) in self.s.q.edges() {
            if a == qn {
                out.push(self.s.block_of_node[b as usize] as usize);
            } else if b == qn {
                out.push(self.s.block_of_node[a as usize] as usize);
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// The estimated makespan after merging `nu` into `partner`
    /// (repairing a 2-cycle with a third block when enabled) and the
    /// third block, or `None` when the merge cannot be made acyclic.
    /// An acyclic two-block merge is scored on the relaxed quotient
    /// without being built; only a cyclic one is contracted, into
    /// [`State::cand_q`], to look for its 2-cycle.
    fn score_candidate(
        &mut self,
        nu: usize,
        partner: usize,
        merged_speed: f64,
    ) -> Option<(f64, Option<usize>)> {
        let bandwidth = self.cluster.bandwidth;
        let mut group = [self.s.node_of_block[nu], self.s.node_of_block[partner], 0];
        if self.relaxed {
            let pair = [group[0], group[1]];
            if let Some(makespan) = self
                .s
                .pass
                .merged_pair_makespan(&self.s.q, pair, merged_speed)
            {
                return Some((makespan, None));
            }
        }
        self.s.q.contract_into(
            &group[..2],
            merged_speed,
            &mut self.s.cand_q,
            &mut self.s.cand_renumber,
        );
        if let Some(makespan) = self.s.cand_pass.bottom_weights(&self.s.cand_q, bandwidth) {
            return Some((makespan, None));
        }
        if !self.enable_triple_merge {
            return None;
        }
        // The 2-cycle consists of the merged vertex and one other
        // quotient node: absorb that third vertex too.
        let other = self.s.cand_pass.two_cycle_partner(&self.s.cand_q)?;
        group[2] = self.s.cand_renumber.iter().position(|&new| new == other)? as u32;
        self.s.q.contract_into(
            &group,
            merged_speed,
            &mut self.s.cand_q,
            &mut self.s.cand_renumber,
        );
        let makespan = self.s.cand_pass.bottom_weights(&self.s.cand_q, bandwidth)?;
        Some((
            makespan,
            Some(self.s.block_of_node[group[2] as usize] as usize),
        ))
    }

    /// Contracts the blocks of `merge` (`nu` into its partner, and its
    /// third block if any) into [`State::cand_q`].
    fn contract_merge(&mut self, nu: usize, merge: &BestMerge) {
        let group = [
            self.s.node_of_block[nu],
            self.s.node_of_block[merge.partner],
            merge.third.map_or(0, |b| self.s.node_of_block[b]),
        ];
        let len = if merge.third.is_some() { 3 } else { 2 };
        self.s.q.contract_into(
            &group[..len],
            merge.speed,
            &mut self.s.cand_q,
            &mut self.s.cand_renumber,
        );
    }

    /// `FindMSOptMerge` (Algorithm 3): the merge of `nu` into one of its
    /// assigned `neighbours` on (`on_path`) or off the critical path
    /// that minimises the estimated makespan, subject to acyclicity
    /// (with 2-cycle repair) and the partner processor's memory. The
    /// makespan is estimated first: a candidate that cannot beat the
    /// incumbent never asks for its memory requirement.
    fn find_ms_opt_merge(
        &mut self,
        bs: &BlockSet,
        nu: usize,
        neighbours: &[usize],
        critical: &[bool],
        on_path: bool,
    ) -> Option<BestMerge> {
        let mut best: Option<BestMerge> = None;
        for &partner in neighbours {
            let Some(proc) = bs.block(partner).proc else {
                continue;
            };
            if critical[self.s.node_of_block[partner] as usize] != on_path {
                continue;
            }
            let speed = self.cluster.speed(proc);
            let Some((makespan, third)) = self.score_candidate(nu, partner, speed) else {
                continue;
            };
            if !best.is_none_or(|b| makespan < b.makespan) {
                continue;
            }
            self.s.members.clear();
            for b in [Some(nu), Some(partner), third].into_iter().flatten() {
                self.s.members.extend_from_slice(&bs.block(b).members);
            }
            let memory = self.cluster.memory(proc);
            let mut req = self.memo.bounds(&self.s.members);
            let exceeds = match req.fits(memory) {
                Some(fits) => !fits,
                None => {
                    req = PeakBounds::exact(self.memo.resolve(&self.s.members, req));
                    req.hi > memory
                }
            };
            if exceeds {
                continue;
            }
            best = Some(BestMerge {
                makespan,
                partner,
                third,
                speed,
                req,
            });
        }
        best
    }

    /// Executes `best`: its contraction becomes the current quotient
    /// and the block tables follow the block set's own index shuffle.
    fn commit(&mut self, bs: &mut BlockSet, nu: usize, best: BestMerge, pool: &mut MemberPool) {
        self.contract_merge(nu, &best);
        self.relaxed = false;
        for qn in &mut self.s.node_of_block {
            *qn = self.s.cand_renumber[*qn as usize];
        }
        for b in removal_order(nu, best.partner, best.third) {
            self.s.node_of_block.swap_remove(b);
        }
        self.s.node_of_block.push(0);
        let proc = bs.block(best.partner).proc;
        bs.merge_blocks_with_bounds(nu, best.partner, best.third, proc, best.req, pool);
        std::mem::swap(&mut self.s.q, &mut self.s.cand_q);
        self.index_nodes();
    }
}

/// Runs Step 3 until every block is assigned. Every requirement in
/// `bs` is exact afterwards, also when the step fails.
///
/// `enable_triple_merge` switches the 2-cycle repair on/off (ablation).
pub fn merge_unassigned(
    g: &Dag,
    cluster: &Cluster,
    bs: &mut BlockSet,
    enable_triple_merge: bool,
) -> Result<(), SchedError> {
    let memo = ReqMemo::new(g);
    let merged = merge_unassigned_memo(
        g,
        cluster,
        bs,
        enable_triple_merge,
        &memo,
        &mut Workspace::default(),
    );
    bs.resolve_all(&memo);
    merged
}

/// [`merge_unassigned`] with the bounds of the merged blocks'
/// requirements answered by the solve's memo, resolved only where the
/// memory check needs them, on `ws`'s buffers: merged blocks' member
/// lists come from its pool and go back to it.
pub(crate) fn merge_unassigned_memo(
    g: &Dag,
    cluster: &Cluster,
    bs: &mut BlockSet,
    enable_triple_merge: bool,
    memo: &ReqMemo<'_>,
    ws: &mut Workspace,
) -> Result<(), SchedError> {
    let Scratch {
        state,
        queue,
        counters,
        unassigned,
        critical,
        neighbours,
    } = &mut ws.step3;
    counters.clear();
    // Deterministic processing order: by smallest member task id (no
    // two blocks share it, so an unstable sort orders them alike).
    bs.unassigned_into(unassigned);
    unassigned.sort_unstable_by_key(|&i| bs.block(i).members[0]);
    queue.clear();
    queue.extend(unassigned.iter().map(|&i| bs.block(i).id));
    if queue.is_empty() {
        return Ok(());
    }

    // The quotient graph is maintained *incrementally*: built once, then
    // replaced by the winning candidate's contraction after every
    // executed merge.
    quotient_of_blocks_into(
        g,
        bs,
        cluster,
        &mut state.q,
        &mut state.node_of_block,
        &mut state.quotient,
    );
    let mut st = Step3::new(cluster, memo, enable_triple_merge, state);
    // Critical path under estimated speeds; stale once a merge changed
    // the quotient, still good after a block was merely requeued.
    let mut critical_is_stale = true;

    while let Some(id) = queue.pop_front() {
        let Some(nu) = bs.index_of(id) else {
            // The block was absorbed as a third vertex of a triple merge.
            continue;
        };
        debug_assert!(bs.block(nu).proc.is_none());

        if critical_is_stale {
            st.mark_critical_path(critical);
            critical_is_stale = false;
        }
        st.neighbours(nu, neighbours);

        // First try off-critical-path partners, then the ones on it
        // (every assigned partner off it has just been rejected).
        let found = st
            .find_ms_opt_merge(bs, nu, neighbours, critical, false)
            .or_else(|| st.find_ms_opt_merge(bs, nu, neighbours, critical, true));

        match found {
            Some(best) => {
                st.commit(bs, nu, best, &mut ws.pool);
                critical_is_stale = true;
            }
            None => {
                // Maybe mergeable later, once neighbours are assigned.
                let has_unassigned_neighbour =
                    neighbours.iter().any(|&b| bs.block(b).proc.is_none());
                let c = counters.entry(id).or_insert(0);
                if has_unassigned_neighbour && *c <= 1 {
                    *c += 1;
                    queue.push_back(id);
                } else {
                    return Err(SchedError::NoSolution);
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::makespan::{flat_of, quotient_critical_path, quotient_makespan};
    use crate::steps::assign::biggest_assign;
    use crate::steps::partition::initial_blocks;
    use dhp_dag::{builder, cycles};
    use dhp_dagp::PartitionConfig;
    use dhp_platform::{configs, Processor};
    use proptest::prelude::*;

    #[test]
    fn merges_leftovers_into_valid_mapping() {
        // 3 processors but 6 initial blocks: Step 3 must merge them down.
        let g = builder::gnp_dag_weighted(60, 0.08, 2);
        let cluster = Cluster::new(
            vec![
                Processor::new("a", 4.0, 4000.0),
                Processor::new("b", 2.0, 3000.0),
                Processor::new("c", 1.0, 2500.0),
            ],
            1.0,
        );
        let cfg = PartitionConfig::default();
        let bs0 = initial_blocks(&g, 6, &cfg);
        let mut bs = biggest_assign(&g, &cluster, bs0, &cfg);
        assert!(!bs.unassigned().is_empty(), "premise: leftovers exist");
        merge_unassigned(&g, &cluster, &mut bs, true).unwrap();
        assert!(bs.unassigned().is_empty());
        let mapping = bs.to_mapping(g.node_count());
        assert!(crate::mapping::validate(&g, &cluster, &mapping).is_ok());
    }

    #[test]
    fn fails_when_platform_too_small() {
        let g = builder::gnp_dag_weighted(40, 0.15, 5);
        // one tiny processor: Step 2 parks everything, Step 3 cannot merge
        let cluster = Cluster::new(vec![Processor::new("tiny", 1.0, 5.0)], 1.0);
        let cfg = PartitionConfig::default();
        let bs0 = initial_blocks(&g, 4, &cfg);
        let mut bs = biggest_assign(&g, &cluster, bs0, &cfg);
        let r = merge_unassigned(&g, &cluster, &mut bs, true);
        assert_eq!(r, Err(SchedError::NoSolution));
    }

    #[test]
    fn noop_when_all_assigned() {
        let g = builder::gnp_dag_weighted(30, 0.1, 7);
        // 5% headroom like the experiment harness, so Step 2 can place
        // every block and the merge is a true no-op.
        let cluster =
            crate::fitting::scale_cluster_with_headroom(&g, &configs::default_cluster(), 1.05);
        let cfg = PartitionConfig::default();
        let bs0 = initial_blocks(&g, 4, &cfg);
        let mut bs = biggest_assign(&g, &cluster, bs0, &cfg);
        assert!(bs.unassigned().is_empty());
        let before = bs.len();
        merge_unassigned(&g, &cluster, &mut bs, true).unwrap();
        assert_eq!(bs.len(), before);
    }

    #[test]
    fn contract_quotient_combines_edges() {
        // quotient: 0 -> 1 -> 2, 0 -> 2 ; contract {1, 2}
        let mut q = Dag::new();
        let a = q.add_node(1.0, 1.0);
        let b = q.add_node(2.0, 1.0);
        let c = q.add_node(3.0, 1.0);
        q.add_edge(a, b, 5.0);
        q.add_edge(a, c, 11.0);
        q.add_edge(b, c, 7.0);
        let mut flat = flat_of(&q);
        flat.speed = vec![1.0, 2.0, 4.0];
        let (mut m, mut renumber) = (FlatQuotient::default(), Vec::new());
        flat.contract_into(&[1, 2], 8.0, &mut m, &mut renumber);
        assert_eq!(renumber, vec![1, 0, 0]);
        // merged node 0 has work 2+3 and the given speed; a keeps its own
        assert_eq!(m.work(), [5.0, 1.0]);
        assert_eq!(m.speed, vec![8.0, 1.0]);
        // edge a->merged combines 5 + 11; the internal edge is gone
        assert_eq!(m.edges(), [(1, 0, 16.0)]);
    }

    #[test]
    fn two_cycle_repair_absorbs_third() {
        // Graph engineered so merging u into its parent creates a 2-cycle
        // (paper Fig. 2): blocks A -> B, A -> C, C -> B... merging B into A
        // gives A' <-> C. Triple merge must succeed.
        let mut g = Dag::new();
        // block A = {0}, B = {2}, C = {1}
        let n0 = g.add_node(1.0, 1.0);
        let n1 = g.add_node(1.0, 1.0);
        let n2 = g.add_node(1.0, 1.0);
        g.add_edge(n0, n1, 1.0); // A -> C
        g.add_edge(n0, n2, 1.0); // A -> B
        g.add_edge(n1, n2, 1.0); // C -> B
        let cluster = Cluster::new(
            vec![
                Processor::new("p0", 2.0, 100.0),
                Processor::new("p1", 1.0, 100.0),
            ],
            1.0,
        );
        let partition = dhp_dag::Partition::from_raw(&[0, 1, 2]);
        let mut bs = BlockSet::from_partition(&g, &partition);
        // assign A and C; B (block of n2) unassigned
        bs.assign(0, dhp_platform::ProcId(0));
        bs.assign(1, dhp_platform::ProcId(1));
        merge_unassigned(&g, &cluster, &mut bs, true).unwrap();
        assert!(bs.unassigned().is_empty());
        let mapping = bs.to_mapping(3);
        assert!(crate::mapping::validate(&g, &cluster, &mapping).is_ok());
    }

    /// A random quotient: a weighted G(n, p) DAG whose nodes are
    /// relabelled by the order of `keys` (so ids are not a topological
    /// order, as in a real quotient), edges ascending, plus a speed per
    /// node.
    fn random_quotient(n: usize, p: f64, seed: u64, keys: &[u64]) -> (Dag, Vec<f64>) {
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

    /// Makes some of `q`'s numbers hostile, picked by `keys`: NaN and
    /// negative works, `-0.0` volumes, speed 0.
    fn make_hostile(q: &mut Dag, speed: &mut [f64], keys: &[u64]) {
        let key = |i: usize| keys[i % keys.len()] >> 3;
        for (u, speed) in speed.iter_mut().enumerate() {
            match key(u) % 7 {
                0 => q.node_mut(NodeId(u as u32)).work = f64::NAN,
                1 => q.node_mut(NodeId(u as u32)).work *= -1.0,
                2 => *speed = 0.0,
                _ => {}
            }
        }
        for e in q.edge_ids().collect::<Vec<_>>() {
            if key(e.idx() + 5) % 3 == 0 {
                q.edge_mut(e).volume = -0.0;
            }
        }
    }

    // ---- The reference the flat evaluation replaced ----------------
    //
    // Candidate evaluation as Step 3 did it before the flat quotient:
    // build the contracted quotient as a `Dag`, look for a cycle with
    // `cycles::find_cycle`, score with `quotient_makespan`. Kept only
    // so the tests below can hold the flat passes to it, bit for bit.

    /// Contracts quotient nodes of blocks `absorb ∪ {nu}` into node 0;
    /// the other nodes follow in order. Returns the contracted graph
    /// and the per-block quotient-node map.
    fn contract_quotient(
        q: &Dag,
        index_of_block: &[NodeId],
        nu: usize,
        absorb: &[usize],
    ) -> (Dag, Vec<NodeId>) {
        let group_of = |block: usize| -> bool { block == nu || absorb.contains(&block) };
        let mut new_of_old: Vec<u32> = vec![u32::MAX; q.node_count()];
        let mut next = 1u32; // 0 = merged node
        for (block, &qn) in index_of_block.iter().enumerate() {
            if group_of(block) {
                new_of_old[qn.idx()] = 0;
            }
        }
        for qn in q.node_ids() {
            if new_of_old[qn.idx()] == u32::MAX {
                new_of_old[qn.idx()] = next;
                next += 1;
            }
        }
        let mut out = Dag::with_capacity(next as usize, q.edge_count());
        let mut work = vec![0.0f64; next as usize];
        for qn in q.node_ids() {
            work[new_of_old[qn.idx()] as usize] += q.node(qn).work;
        }
        for &w in &work {
            out.add_node(w, 0.0);
        }
        let mut pairs: Vec<(u32, u32, f64)> = Vec::with_capacity(q.edge_count());
        for e in q.edge_ids() {
            let ed = q.edge(e);
            let (a, b) = (new_of_old[ed.src.idx()], new_of_old[ed.dst.idx()]);
            if a != b {
                pairs.push((a, b, ed.volume));
            }
        }
        pairs.sort_unstable_by_key(|&(a, b, _)| (a, b));
        let mut i = 0;
        while i < pairs.len() {
            let (a, b, mut vol) = pairs[i];
            i += 1;
            while i < pairs.len() && pairs[i].0 == a && pairs[i].1 == b {
                vol += pairs[i].2;
                i += 1;
            }
            out.add_edge(NodeId(a), NodeId(b), vol);
        }
        let merged_map: Vec<NodeId> = index_of_block
            .iter()
            .map(|&qn| NodeId(new_of_old[qn.idx()]))
            .collect();
        (out, merged_map)
    }

    /// One candidate (`nu` into `partner`, block `i` = quotient node
    /// `i`) the old way: the contracted graph, its speeds, its
    /// makespan and the third block, or `None` when rejected.
    fn reference_candidate(
        q: &Dag,
        speed: &[f64],
        nu: usize,
        partner: usize,
        merged_speed: f64,
        bandwidth: f64,
        enable_triple_merge: bool,
    ) -> Option<(Dag, Vec<f64>, f64, Option<usize>)> {
        let index_of_block: Vec<NodeId> = q.node_ids().collect();
        let mut absorb = vec![partner];
        let (mut merged_q, mut merged_map) = contract_quotient(q, &index_of_block, nu, &absorb);
        if let Some(cycle) = cycles::find_cycle(&merged_q) {
            if !enable_triple_merge || cycle.len() != 2 {
                return None;
            }
            let merged_qn = merged_map[nu];
            let other_qn = *cycle.iter().find(|&&c| c != merged_qn)?;
            let third = merged_map
                .iter()
                .enumerate()
                .find(|&(b, &x)| x == other_qn && b != nu)
                .map(|(b, _)| b)?;
            absorb.push(third);
            (merged_q, merged_map) = contract_quotient(q, &index_of_block, nu, &absorb);
            if cycles::is_cyclic(&merged_q) {
                return None;
            }
        }
        let mut speeds = vec![1.0f64; merged_q.node_count()];
        for (block, &qn) in merged_map.iter().enumerate() {
            if qn.idx() != 0 {
                speeds[qn.idx()] = speed[block];
            }
        }
        speeds[0] = merged_speed;
        let ms = quotient_makespan(&merged_q, &speeds, bandwidth);
        Some((merged_q, speeds, ms, absorb.get(1).copied()))
    }

    /// What the flat evaluation did with the candidates of one
    /// quotient.
    #[derive(Debug, Default, PartialEq)]
    struct Outcomes {
        plain: usize,
        repaired: usize,
        rejected: usize,
    }

    /// Holds Step 3's candidate scoring to the reference on every merge
    /// of two adjacent nodes of `q`, both ways round: same verdict, same
    /// third block and same makespan, to the bit; and the contraction a
    /// commit of that merge performs (two nodes, or three after a
    /// repair) to the reference's graph, to the bit.
    fn check_against_reference(q: &Dag, speed: &[f64], enable_triple_merge: bool) -> Outcomes {
        // A quotient's volumes are sums onto `0.0`, so a `-0.0` task
        // volume reaches Step 3 as `0.0`: the reference sees what the
        // flat quotient holds.
        let mut q = q.clone();
        for e in q.edge_ids().collect::<Vec<_>>() {
            q.edge_mut(e).volume += 0.0;
        }
        let q = &q;
        let cluster = Cluster::new(vec![Processor::new("p", 1.0, 1.0)], 3.0);
        let memo = ReqMemo::new(q);
        let mut state = State {
            q: flat_of(q),
            node_of_block: (0..q.node_count() as u32).collect(),
            ..State::default()
        };
        state.q.speed = speed.to_vec();
        let mut st = Step3::new(&cluster, &memo, enable_triple_merge, &mut state);

        // The critical path of the quotient itself.
        let mut on_path = Vec::new();
        st.mark_critical_path(&mut on_path);
        assert!(st.relaxed, "random quotients are acyclic");
        let mut want = vec![false; q.node_count()];
        for u in quotient_critical_path(q, speed, cluster.bandwidth).unwrap_or_default() {
            want[u.idx()] = true;
        }
        assert_eq!(on_path, want);

        let mut seen = Outcomes::default();
        for e in q.edge_ids() {
            let (a, b) = (q.edge(e).src.idx(), q.edge(e).dst.idx());
            for (nu, partner) in [(a, b), (b, a)] {
                let merged_speed = speed[partner];
                let want = reference_candidate(
                    q,
                    speed,
                    nu,
                    partner,
                    merged_speed,
                    cluster.bandwidth,
                    enable_triple_merge,
                );
                let got = st.score_candidate(nu, partner, merged_speed);
                let Some((want_q, want_speed, want_ms, want_third)) = want else {
                    assert_eq!(got, None, "{nu} into {partner}");
                    seen.rejected += 1;
                    continue;
                };
                let (ms, third) = got.unwrap_or_else(|| panic!("{nu} into {partner} rejected"));
                assert_eq!(ms.to_bits(), want_ms.to_bits(), "{nu} into {partner}");
                assert_eq!(third, want_third);
                let merge = BestMerge {
                    makespan: ms,
                    partner,
                    third,
                    speed: merged_speed,
                    req: PeakBounds::exact(0.0),
                };
                st.contract_merge(nu, &merge);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let want_work: Vec<f64> = want_q.node_ids().map(|u| want_q.node(u).work).collect();
                assert_eq!(bits(st.s.cand_q.work()), bits(&want_work));
                assert_eq!(bits(&st.s.cand_q.speed), bits(&want_speed));
                let edges = |edges: &mut dyn Iterator<Item = (u32, u32, f64)>| {
                    edges
                        .map(|(a, b, v)| (a, b, v.to_bits()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(
                    edges(&mut st.s.cand_q.edges().iter().copied()),
                    edges(
                        &mut want_q
                            .edge_ids()
                            .map(|e| want_q.edge(e))
                            .map(|e| (e.src.0, e.dst.0, e.volume))
                    )
                );
                match third {
                    None => seen.plain += 1,
                    Some(_) => seen.repaired += 1,
                }
            }
        }
        seen
    }

    #[test]
    fn flat_evaluation_covers_plain_repaired_and_rejected_candidates() {
        let mut seen = Outcomes::default();
        let mut without_repair = Outcomes::default();
        for seed in 0..60u64 {
            let n = 4 + (seed as usize % 20);
            let keys: Vec<u64> = (0..n as u64)
                .map(|i| (i + 1).wrapping_mul(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1) >> 7)
                .collect();
            let (mut q, mut speed) = random_quotient(n, 0.1 + (seed % 4) as f64 * 0.1, seed, &keys);
            if seed % 3 == 0 {
                make_hostile(&mut q, &mut speed, &keys);
            }
            for (triple, total) in [(true, &mut seen), (false, &mut without_repair)] {
                let one = check_against_reference(&q, &speed, triple);
                total.plain += one.plain;
                total.repaired += one.repaired;
                total.rejected += one.rejected;
            }
        }
        // Every branch was exercised, and the repair is what turns some
        // rejections into triple merges.
        assert!(
            seen.plain > 0 && seen.repaired > 0 && seen.rejected > 0,
            "{seen:?}"
        );
        assert_eq!(without_repair.repaired, 0);
        assert_eq!(without_repair.plain, seen.plain);
        assert_eq!(without_repair.rejected, seen.rejected + seen.repaired);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn flat_evaluation_matches_reference_on_random_quotients(
            n in 2usize..28,
            p in 0.05f64..0.5,
            seed in any::<u64>(),
            keys in proptest::collection::vec(any::<u64>(), 28),
            triple in any::<bool>(),
            hostile in any::<bool>(),
        ) {
            let (mut q, mut speed) = random_quotient(n, p, seed, &keys);
            if hostile {
                make_hostile(&mut q, &mut speed, &keys);
            }
            check_against_reference(&q, &speed, triple);
        }
    }
}
