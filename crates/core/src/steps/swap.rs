//! Step 4: local search (paper Algorithm 5).
//!
//! Starting from the valid Step-3 mapping:
//!
//! 1. **Swaps** — a swap exchanges two blocks' processors and is
//!    feasible when both blocks fit their new memories. Each round
//!    executes the best improving swap, until none exists. Swapping
//!    never changes the quotient graph, only block speeds, so a
//!    candidate costs one relax of the shared quotient; and a round
//!    relaxes only the feasible pairs that move a block of one exactly
//!    tight chain to a faster processor — every other pair provably
//!    cannot shorten the makespan (see `Step4::swap_blocks`).
//! 2. **Idle moves** — if processors remain idle (typical for small
//!    workflows split into few blocks), walk the critical path and move
//!    each block to a faster idle processor that can hold it, recomputing
//!    the critical path after every move.
//!
//! "Block `i` fits memory `M`" is decided on the bounds of its
//! requirement where they tell, and resolves the requirement — once
//! per block, which then keeps it — where they straddle `M`.

use crate::blockmem::ReqMemo;
use crate::blocks::BlockSet;
use crate::makespan::quotient_of_blocks;
use dhp_dag::{Dag, FlatQuotient, PassScratch};
use dhp_platform::{Cluster, ProcId};
use std::collections::HashSet;

/// Runs the swap loop. Requires every block assigned. Returns the number
/// of executed swaps.
///
/// Step 4 only ever resolves requirements, so a block set whose
/// requirements are exact, as every public function returns them,
/// leaves it exact.
pub fn swap_blocks(g: &Dag, cluster: &Cluster, bs: &mut BlockSet) -> usize {
    let memo = ReqMemo::new(g);
    Step4::new(g, cluster, bs).swap_blocks(cluster, bs, &memo).0
}

/// Moves critical-path blocks to faster idle processors (the final
/// sub-step of Step 4). Returns the number of moves.
pub fn idle_moves(g: &Dag, cluster: &Cluster, bs: &mut BlockSet) -> usize {
    let memo = ReqMemo::new(g);
    Step4::new(g, cluster, bs).idle_moves(cluster, bs, &memo)
}

/// `r > memory` for block `i`, resolving `r` (which the block then
/// keeps) only when its bounds straddle `memory`.
fn exceeds(bs: &mut BlockSet, i: usize, memory: f64, memo: &ReqMemo<'_>) -> bool {
    match bs.block(i).bounds().fits(memory) {
        Some(fits) => !fits,
        None => bs.resolve(i, memo) > memory,
    }
}

/// `r ≤ memory` for block `i`, likewise.
fn fits(bs: &mut BlockSet, i: usize, memory: f64, memo: &ReqMemo<'_>) -> bool {
    match bs.block(i).bounds().fits(memory) {
        Some(fits) => fits,
        None => bs.resolve(i, memo) <= memory,
    }
}

/// The quotient graph of a block set whose blocks Step 4 only moves
/// between processors: built and indexed once, shared by the swaps, the
/// idle moves and the final makespan. Its node speeds follow every
/// reassignment the two sub-steps make.
#[derive(Debug)]
pub(crate) struct Step4 {
    q: FlatQuotient,
    node_of_block: Vec<u32>,
    /// Indexed for `q`.
    pass: PassScratch,
    /// A cyclic quotient has no makespan to improve.
    acyclic: bool,
}

/// The processor of every block, or `None` while one is unassigned.
fn assigned_procs(bs: &BlockSet) -> Option<Vec<ProcId>> {
    bs.iter().map(|b| b.proc).collect()
}

impl Step4 {
    /// The quotient of `bs` over `g` under the speeds of its
    /// assignments.
    pub(crate) fn new(g: &Dag, cluster: &Cluster, bs: &BlockSet) -> Self {
        let (q, node_of_block) = quotient_of_blocks(g, bs, cluster);
        let mut pass = PassScratch::default();
        let acyclic = pass.index(&q, cluster.bandwidth);
        Self {
            q,
            node_of_block,
            pass,
            acyclic,
        }
    }

    /// Makespan under the current assignments: `f64::INFINITY` when the
    /// quotient is cyclic, `0.0` when it is empty.
    pub(crate) fn makespan(&mut self) -> f64 {
        if !self.acyclic {
            return f64::INFINITY;
        }
        self.pass.relax(&self.q)
    }

    /// Whether every node's work is finite and non-negative and every
    /// speed positive: what makes a relax monotone in the speeds. Step 4
    /// moves blocks only onto processors of positive speed, so this
    /// holds for every assignment it reaches once it holds here.
    fn monotone(&self) -> bool {
        self.q.work().iter().all(|&w| w.is_finite() && w >= 0.0)
            && self.q.speed.iter().all(|&s| s > 0.0)
    }

    /// A lower bound on every makespan the swaps and idle moves can
    /// reach from here: one relax with every node at the cluster's top
    /// speed. Both sub-steps only reassign processors of `cluster`, so
    /// no node ever runs faster than that; and with the premises of
    /// [`Step4::monotone`] rounded `/`, `+` and `max` are monotone, so no
    /// bottom weight of the real relax falls below this one. `None` on a
    /// cyclic quotient or when a premise fails.
    pub(crate) fn lower_bound(&mut self, cluster: &Cluster) -> Option<f64> {
        let top = cluster
            .proc_ids()
            .map(|p| cluster.speed(p))
            .fold(f64::NEG_INFINITY, f64::max);
        if !self.acyclic || top <= 0.0 || !self.monotone() {
            return None;
        }
        let top_speeds = vec![top; self.q.len()];
        let speeds = std::mem::replace(&mut self.q.speed, top_speeds);
        let bound = self.pass.relax(&self.q);
        self.q.speed = speeds;
        Some(bound)
    }

    /// [`swap_blocks`] on the block set this quotient was built from.
    /// Returns the executed swaps and the candidates relaxed.
    ///
    /// A candidate costs one reverse sweep over the quotient in its
    /// stored topological order; nothing is allocated per candidate.
    /// Each round relaxes the incumbent and marks one exactly tight
    /// chain ([`PassScratch::mark_tight_chain`]); a pair is relaxed
    /// only when it moves a chain block to a strictly faster processor.
    /// Any other pair leaves every chain block as fast or slower, and
    /// with non-negative work, positive speeds and a finite makespan,
    /// rounded `/`, `+` and `max` are monotone along the chain: each
    /// chain node's bottom weight can only grow, so the new makespan is
    /// at least the incumbent's and the pair could never pass the
    /// improvement test. A round without those premises relaxes every
    /// feasible pair.
    pub(crate) fn swap_blocks(
        &mut self,
        cluster: &Cluster,
        bs: &mut BlockSet,
        memo: &ReqMemo<'_>,
    ) -> (usize, usize) {
        debug_assert!(bs.unassigned().is_empty());
        let n = bs.len();
        let Some(mut procs) = assigned_procs(bs) else {
            return (0, 0);
        };
        if n < 2 || !self.acyclic {
            return (0, 0);
        }
        let node = |block: usize| self.node_of_block[block] as usize;
        // Swaps only permute the speeds, so this holds for every round.
        let monotone = self.monotone();
        let mut on_chain = Vec::new();

        let (mut swaps, mut relaxed) = (0usize, 0usize);
        loop {
            let best_ms = self.pass.relax(&self.q);
            let pruned = monotone
                && best_ms.is_finite()
                && self.pass.mark_tight_chain(&self.q, best_ms, &mut on_chain);
            let mut best_pair: Option<(usize, usize, f64)> = None;
            for i in 0..n {
                for j in (i + 1)..n {
                    // Feasibility: each block fits the other's processor.
                    if exceeds(bs, i, cluster.memory(procs[j]), memo)
                        || exceeds(bs, j, cluster.memory(procs[i]), memo)
                    {
                        continue;
                    }
                    let (si, sj) = (self.q.speed[node(i)], self.q.speed[node(j)]);
                    if si == sj {
                        continue; // identical machines: no effect
                    }
                    // The block that would move to the faster processor.
                    let gains = if si < sj { i } else { j };
                    if pruned && !on_chain[node(gains)] {
                        continue; // cannot shorten the makespan
                    }
                    // Evaluate with exchanged speeds.
                    self.q.speed.swap(node(i), node(j));
                    let ms = self.pass.relax(&self.q);
                    self.q.speed.swap(node(i), node(j));
                    relaxed += 1;
                    if ms < best_ms - 1e-12 && best_pair.is_none_or(|(_, _, b)| ms < b) {
                        best_pair = Some((i, j, ms));
                    }
                }
            }
            let Some((i, j, _)) = best_pair else {
                break;
            };
            procs.swap(i, j);
            self.q.speed.swap(node(i), node(j));
            swaps += 1;
        }
        for (i, &p) in procs.iter().enumerate() {
            bs.assign(i, p);
        }
        (swaps, relaxed)
    }

    /// [`idle_moves`] on the block set this quotient was built from.
    pub(crate) fn idle_moves(
        &mut self,
        cluster: &Cluster,
        bs: &mut BlockSet,
        memo: &ReqMemo<'_>,
    ) -> usize {
        debug_assert!(bs.unassigned().is_empty());
        let Some(mut procs) = assigned_procs(bs) else {
            return 0;
        };
        let used: HashSet<ProcId> = procs.iter().copied().collect();
        let mut idle: Vec<ProcId> = cluster.proc_ids().filter(|p| !used.contains(p)).collect();
        if idle.is_empty() || !self.acyclic {
            return 0;
        }
        let mut block_of_node = vec![0usize; self.q.len()];
        for (block, &qn) in self.node_of_block.iter().enumerate() {
            block_of_node[qn as usize] = block;
        }

        let mut path = Vec::new();
        let mut moved: HashSet<u64> = HashSet::new();
        let mut moves = 0usize;
        loop {
            self.pass.relax(&self.q);
            self.pass.critical_path(&self.q, &mut path);
            let mut acted = false;
            for &qn in &path {
                let block = block_of_node[qn as usize];
                if !moved.insert(bs.block(block).id) {
                    continue;
                }
                let cur = procs[block];
                let cur_speed = cluster.speed(cur);
                // Fastest idle processor that holds the block and is faster.
                let cand = idle
                    .iter()
                    .copied()
                    .filter(|&p| {
                        cluster.speed(p) > cur_speed && fits(bs, block, cluster.memory(p), memo)
                    })
                    .max_by(|a, b| {
                        cluster
                            .speed(*a)
                            .total_cmp(&cluster.speed(*b))
                            .then(cluster.memory(*a).total_cmp(&cluster.memory(*b)))
                            .then(b.cmp(a)) // deterministic: smaller id wins ties
                    });
                if let Some(p) = cand {
                    idle.retain(|&x| x != p);
                    idle.push(cur);
                    procs[block] = p;
                    bs.assign(block, p);
                    self.q.speed[qn as usize] = cluster.speed(p);
                    moves += 1;
                    acted = true;
                    break; // recompute the critical path
                }
            }
            if !acted {
                break;
            }
        }
        moves
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::makespan::{quotient_critical_path, quotient_makespan};
    use dhp_dag::builder;
    use dhp_dag::{NodeId, Partition, QuotientGraph};
    use dhp_platform::Processor;

    fn two_block_setup() -> (Dag, Cluster, BlockSet) {
        // Chain split in two; block 0 is much heavier than block 1.
        let mut g = builder::chain(8, 1.0, 1.0, 1.0);
        for u in g.node_ids().take(4).collect::<Vec<_>>() {
            g.node_mut(u).work = 100.0;
        }
        let cluster = Cluster::new(
            vec![
                Processor::new("slow", 1.0, 100.0),
                Processor::new("fast", 10.0, 100.0),
            ],
            1.0,
        );
        let partition = Partition::from_raw(&[0, 0, 0, 0, 1, 1, 1, 1]);
        let bs = BlockSet::from_partition(&g, &partition);
        (g, cluster, bs)
    }

    #[test]
    fn swap_moves_heavy_block_to_fast_processor() {
        let (g, cluster, mut bs) = two_block_setup();
        // Adversarial start: heavy block on the slow processor.
        bs.assign(0, ProcId(0));
        bs.assign(1, ProcId(1));
        let before = crate::makespan::blockset_makespan(&g, &bs, &cluster);
        let swaps = swap_blocks(&g, &cluster, &mut bs);
        let after = crate::makespan::blockset_makespan(&g, &bs, &cluster);
        assert_eq!(swaps, 1);
        assert!(after < before);
        assert_eq!(
            bs.block(0).proc,
            Some(ProcId(1)),
            "heavy block on fast proc"
        );
    }

    #[test]
    fn swap_stops_at_local_optimum() {
        let (g, cluster, mut bs) = two_block_setup();
        bs.assign(0, ProcId(1)); // already optimal
        bs.assign(1, ProcId(0));
        assert_eq!(swap_blocks(&g, &cluster, &mut bs), 0);
    }

    #[test]
    fn swap_respects_memory() {
        let (g, _, mut bs) = two_block_setup();
        // fast processor too small for block 0
        let cluster = Cluster::new(
            vec![
                Processor::new("slow", 1.0, 100.0),
                Processor::new("fast", 10.0, 1.0),
            ],
            1.0,
        );
        bs.assign(0, ProcId(0));
        bs.assign(1, ProcId(1));
        // block1 req small... but block0 does not fit fast proc: no swap
        assert_eq!(swap_blocks(&g, &cluster, &mut bs), 0);
    }

    #[test]
    fn idle_move_uses_faster_processor() {
        let (g, _, mut bs) = two_block_setup();
        let cluster = Cluster::new(
            vec![
                Processor::new("slow", 1.0, 100.0),
                Processor::new("slow2", 1.0, 100.0),
                Processor::new("turbo", 50.0, 100.0),
            ],
            1.0,
        );
        bs.assign(0, ProcId(0));
        bs.assign(1, ProcId(1));
        let before = crate::makespan::blockset_makespan(&g, &bs, &cluster);
        let moves = idle_moves(&g, &cluster, &mut bs);
        let after = crate::makespan::blockset_makespan(&g, &bs, &cluster);
        assert!(moves >= 1);
        assert!(after < before);
        // the heavy block ends on the turbo machine
        assert_eq!(bs.block(0).proc, Some(ProcId(2)));
    }

    #[test]
    fn idle_moves_noop_without_idle_procs() {
        let (g, cluster, mut bs) = two_block_setup();
        bs.assign(0, ProcId(1));
        bs.assign(1, ProcId(0));
        assert_eq!(idle_moves(&g, &cluster, &mut bs), 0);
    }

    // ---- The reference the shared flat quotient replaced -----------
    //
    // Step 4 as it was: each sub-step builds its own `QuotientGraph`,
    // a swap candidate is scored by `quotient_makespan` (a topological
    // sort and fresh vectors per call), the idle moves look a
    // critical-path node's block up by a scan. Kept only so the tests
    // below can hold the shared-quotient forms to it.

    /// Returns the executed swaps and the candidates scored.
    fn reference_swap_blocks(g: &Dag, cluster: &Cluster, bs: &mut BlockSet) -> (usize, usize) {
        debug_assert!(bs.unassigned().is_empty());
        let n = bs.len();
        if n < 2 {
            return (0, 0);
        }
        // The quotient graph is invariant under swaps: build it once.
        let partition = bs.to_mapping(g.node_count()).partition;
        let q = QuotientGraph::build(g, &partition);
        let qnode_of: Vec<NodeId> = (0..n)
            .map(|i| NodeId(partition.block_of(bs.block(i).members[0]).0))
            .collect();

        let mut speeds_q = vec![1.0f64; n];
        let mut procs: Vec<ProcId> = (0..n)
            .map(|i| bs.block(i).proc.expect("step 4 needs a complete mapping"))
            .collect();
        for (i, &p) in procs.iter().enumerate() {
            speeds_q[qnode_of[i].idx()] = cluster.speed(p);
        }

        let mut best_ms = quotient_makespan(&q.graph, &speeds_q, cluster.bandwidth);
        let (mut swaps, mut scored) = (0usize, 0usize);
        loop {
            let mut best_pair: Option<(usize, usize, f64)> = None;
            for i in 0..n {
                for j in (i + 1)..n {
                    // Feasibility: each block fits the other's processor.
                    if bs.block(i).req > cluster.memory(procs[j])
                        || bs.block(j).req > cluster.memory(procs[i])
                    {
                        continue;
                    }
                    // Evaluate with exchanged speeds.
                    let (qi, qj) = (qnode_of[i].idx(), qnode_of[j].idx());
                    let (si, sj) = (speeds_q[qi], speeds_q[qj]);
                    if si == sj {
                        continue; // identical machines: no effect
                    }
                    speeds_q[qi] = sj;
                    speeds_q[qj] = si;
                    let ms = quotient_makespan(&q.graph, &speeds_q, cluster.bandwidth);
                    speeds_q[qi] = si;
                    speeds_q[qj] = sj;
                    scored += 1;
                    if ms < best_ms - 1e-12 && best_pair.is_none_or(|(_, _, b)| ms < b) {
                        best_pair = Some((i, j, ms));
                    }
                }
            }
            match best_pair {
                Some((i, j, ms)) => {
                    procs.swap(i, j);
                    let (qi, qj) = (qnode_of[i].idx(), qnode_of[j].idx());
                    speeds_q.swap(qi, qj);
                    best_ms = ms;
                    swaps += 1;
                }
                None => break,
            }
        }
        for (i, &p) in procs.iter().enumerate() {
            bs.assign(i, p);
        }
        (swaps, scored)
    }

    fn reference_idle_moves(g: &Dag, cluster: &Cluster, bs: &mut BlockSet) -> usize {
        debug_assert!(bs.unassigned().is_empty());
        let used: HashSet<ProcId> = bs.iter().filter_map(|b| b.proc).collect();
        let mut idle: Vec<ProcId> = cluster.proc_ids().filter(|p| !used.contains(p)).collect();
        if idle.is_empty() {
            return 0;
        }

        let partition = bs.to_mapping(g.node_count()).partition;
        let q = QuotientGraph::build(g, &partition);
        let qnode_of: Vec<NodeId> = (0..bs.len())
            .map(|i| NodeId(partition.block_of(bs.block(i).members[0]).0))
            .collect();

        let mut moved: HashSet<u64> = HashSet::new();
        let mut moves = 0usize;
        loop {
            let mut speeds = vec![1.0; bs.len()];
            for (block, &qn) in bs.iter().zip(&qnode_of) {
                speeds[qn.idx()] = block.proc.map_or(1.0, |p| cluster.speed(p));
            }
            let Some(cp) = quotient_critical_path(&q.graph, &speeds, cluster.bandwidth) else {
                break;
            };
            let mut acted = false;
            for qn in cp {
                let block = qnode_of
                    .iter()
                    .position(|&x| x == qn)
                    .expect("cp node is a block");
                if moved.contains(&bs.block(block).id) {
                    continue;
                }
                let cur = bs.block(block).proc.expect("complete mapping");
                let cur_speed = cluster.speed(cur);
                // Fastest idle processor that holds the block and is faster.
                let cand = idle
                    .iter()
                    .copied()
                    .filter(|&p| {
                        cluster.speed(p) > cur_speed && bs.block(block).req <= cluster.memory(p)
                    })
                    .max_by(|a, b| {
                        cluster
                            .speed(*a)
                            .partial_cmp(&cluster.speed(*b))
                            .unwrap()
                            .then(cluster.memory(*a).partial_cmp(&cluster.memory(*b)).unwrap())
                            .then(b.cmp(a)) // deterministic: smaller id wins ties
                    });
                if let Some(p) = cand {
                    idle.retain(|&x| x != p);
                    idle.push(cur);
                    bs.assign(block, p);
                    moved.insert(bs.block(block).id);
                    moves += 1;
                    acted = true;
                    break; // recompute the critical path
                } else {
                    moved.insert(bs.block(block).id);
                }
            }
            if !acted {
                break;
            }
        }
        moves
    }

    /// A Step-3 block set of `g` for `kprime` with neighbouring blocks'
    /// processors exchanged wherever both fit, so the local search has
    /// something to undo. `None` when Step 3 finds no mapping.
    fn stirred_mapping(g: &Dag, cluster: &Cluster, kprime: usize) -> Option<BlockSet> {
        let cfg = dhp_dagp::PartitionConfig::default();
        let bs = crate::steps::partition::initial_blocks(g, kprime, &cfg);
        let mut bs = crate::steps::assign::biggest_assign(g, cluster, bs, &cfg);
        crate::steps::merge::merge_unassigned(g, cluster, &mut bs, true).ok()?;
        for i in (1..bs.len()).step_by(2) {
            let (a, b) = (bs.block(i - 1).proc?, bs.block(i).proc?);
            if bs.block(i - 1).req <= cluster.memory(b) && bs.block(i).req <= cluster.memory(a) {
                bs.assign(i - 1, b);
                bs.assign(i, a);
            }
        }
        Some(bs)
    }

    /// Runs Step 4 three ways — the reference, the public functions
    /// (one quotient each) and one shared [`Step4`] — and holds moves,
    /// assignments and the final makespan's bits equal. Returns the
    /// swap and idle-move counts.
    fn check_against_reference(g: &Dag, cluster: &Cluster, start: &BlockSet) -> (usize, usize) {
        let procs = |bs: &BlockSet| bs.iter().map(|b| b.proc).collect::<Vec<_>>();

        let mut want = start.clone();
        let (swaps, _) = reference_swap_blocks(g, cluster, &mut want);
        let after_swaps = procs(&want);
        let idle = reference_idle_moves(g, cluster, &mut want);
        let makespan = crate::makespan::blockset_makespan(g, &want, cluster);

        let mut public = start.clone();
        assert_eq!(swap_blocks(g, cluster, &mut public), swaps);
        assert_eq!(procs(&public), after_swaps);
        assert_eq!(idle_moves(g, cluster, &mut public), idle);
        assert_eq!(procs(&public), procs(&want));

        let mut shared = start.clone();
        let mut step4 = Step4::new(g, cluster, &shared);
        let memo = ReqMemo::new(g);
        assert_eq!(step4.swap_blocks(cluster, &mut shared, &memo).0, swaps);
        assert_eq!(procs(&shared), after_swaps);
        assert_eq!(step4.idle_moves(cluster, &mut shared, &memo), idle);
        assert_eq!(procs(&shared), procs(&want));
        assert_eq!(step4.makespan().to_bits(), makespan.to_bits());
        (swaps, idle)
    }

    /// A simulated workflow on the default cluster fitted to it, with a
    /// bandwidth that is not 1 (so a volume is not its own cost).
    fn instance(family: dhp_wfgen::Family, tasks: usize, seed: u64) -> (Dag, Cluster) {
        let g = dhp_wfgen::WorkflowInstance::simulated(family, tasks, seed).graph;
        let base = dhp_platform::configs::default_cluster().with_bandwidth(0.4);
        let cluster = crate::fitting::scale_cluster_with_headroom(&g, &base, 1.05);
        (g, cluster)
    }

    #[test]
    fn shared_quotient_step4_swaps_and_moves_like_the_reference() {
        let (mut mapped, mut swaps, mut idle) = (0, 0, 0);
        for (i, family) in dhp_wfgen::Family::ALL.into_iter().enumerate() {
            let (g, cluster) = instance(family, 150 + 40 * i, 17);
            for kprime in [4, 9, 14, 20] {
                if let Some(start) = stirred_mapping(&g, &cluster, kprime) {
                    let (s, i) = check_against_reference(&g, &cluster, &start);
                    mapped += 1;
                    swaps += s;
                    idle += i;
                }
            }
        }
        // Both sub-steps had work to do.
        assert!(
            mapped >= 12 && swaps >= 12 && idle >= 12,
            "{mapped} {swaps} {idle}"
        );
    }

    /// The swap rounds' pruning is not inert: on a wide workflow at
    /// `k' = 36` the search relaxes at most a fifth of the candidates
    /// the unpruned reference scores, and makes the same swaps.
    #[test]
    fn swap_rounds_relax_at_most_a_fifth_of_the_candidates() {
        let (g, cluster) = instance(dhp_wfgen::Family::Blast, 1_000, 17);
        let start = stirred_mapping(&g, &cluster, 36).expect("blast 1000 maps at k' = 36");
        let procs = |bs: &BlockSet| bs.iter().map(|b| b.proc).collect::<Vec<_>>();

        let mut want = start.clone();
        let (swaps, scored) = reference_swap_blocks(&g, &cluster, &mut want);
        let mut got = start.clone();
        let (pruned_swaps, relaxed) =
            Step4::new(&g, &cluster, &got).swap_blocks(&cluster, &mut got, &ReqMemo::new(&g));
        assert_eq!(pruned_swaps, swaps);
        assert_eq!(procs(&got), procs(&want));
        assert!(swaps > 0, "premise: the stirred mapping has swaps to undo");
        assert!(relaxed * 5 <= scored, "relaxed {relaxed} of {scored}");
    }

    /// `lower_bound` on a Step-3 mapping of `g`, then the bound and the
    /// makespan Step 4 ends at.
    fn bound_and_final(g: &Dag, cluster: &Cluster, start: &BlockSet) -> (Option<f64>, f64) {
        let mut bs = start.clone();
        let memo = ReqMemo::new(g);
        let mut step4 = Step4::new(g, cluster, &bs);
        let bound = step4.lower_bound(cluster);
        step4.swap_blocks(cluster, &mut bs, &memo);
        step4.idle_moves(cluster, &mut bs, &memo);
        (bound, step4.makespan())
    }

    /// The bound holds Step 4 from below, and is `None` where a premise
    /// fails on the quotient: a NaN or a negative block work, a block on
    /// a processor of speed 0. A processor of speed 0 that no block uses
    /// breaks no premise.
    #[test]
    fn the_lower_bound_steps_aside_where_a_premise_fails() {
        let (g, cluster) = instance(dhp_wfgen::Family::Genome, 150, 17);
        let start = stirred_mapping(&g, &cluster, 9).expect("genome 150 maps at k' = 9");
        let (bound, makespan) = bound_and_final(&g, &cluster, &start);
        let bound = bound.expect("the premises hold as generated");
        assert!(bound > 0.0 && bound <= makespan, "{bound} vs {makespan}");

        let first = start.block(0).members[0];
        let mut nan = g.clone();
        nan.node_mut(first).work = f64::NAN;
        assert_eq!(bound_and_final(&nan, &cluster, &start).0, None);
        let mut negative = g.clone();
        for &u in &start.block(0).members {
            negative.node_mut(u).work = -1.0;
        }
        assert_eq!(bound_and_final(&negative, &cluster, &start).0, None);

        let with_speed_zero = |stalled: ProcId| {
            // Past `Processor::new`'s check: the fields are public.
            let procs = cluster.proc_ids().map(|p| Processor {
                speed: if p == stalled { 0.0 } else { cluster.speed(p) },
                ..cluster.proc(p).clone()
            });
            Cluster::new(procs.collect(), cluster.bandwidth)
        };
        let used = start.block(0).proc.expect("Step 3 assigns every block");
        let stalled = with_speed_zero(used);
        assert_eq!(bound_and_final(&g, &stalled, &start).0, None);
        let idle = cluster
            .proc_ids()
            .find(|p| start.iter().all(|b| b.proc != Some(*p)))
            .expect("premise: k' = 9 leaves a processor idle");
        let stalled = with_speed_zero(idle);
        let (bound, makespan) = bound_and_final(&g, &stalled, &start);
        assert!(bound.is_some_and(|b| b <= makespan));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// `premise` varies what the swap rounds' pruning relies on, on
        /// the Step-3 mapping: 0 leaves the instance as generated; 1
        /// makes one block's work zero (the premise still holds); 2
        /// makes one task's work negative and 3 shrinks the bandwidth
        /// until edge costs are huge or overflow to an infinite makespan
        /// (the premise fails, so every pair is relaxed).
        #[test]
        fn shared_quotient_step4_matches_reference_on_random_instances(
            family in proptest::sample::select(dhp_wfgen::Family::ALL.to_vec()),
            tasks in 40usize..260,
            seed in proptest::strategy::any::<u64>(),
            kprime in 2usize..24,
            premise in 0u8..4,
        ) {
            let (mut g, mut cluster) = instance(family, tasks, seed);
            if let Some(start) = stirred_mapping(&g, &cluster, kprime) {
                match premise {
                    1 => {
                        for &u in &start.block(0).members {
                            g.node_mut(u).work = 0.0;
                        }
                    }
                    2 => g.node_mut(start.block(0).members[0]).work = -1.0,
                    3 => cluster = cluster.with_bandwidth(1e-300),
                    _ => {}
                }
                check_against_reference(&g, &cluster, &start);
            }
        }
    }
}
