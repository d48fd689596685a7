//! Step 2: `BiggestAssign` and `FitBlock` (paper Algorithms 1 and 2).
//!
//! Blocks enter a max-priority queue keyed by their memory requirement;
//! processors queue up by decreasing memory. The largest block is fitted
//! onto the largest free processor; a block that does not fit is split in
//! two by the partitioner and its sub-blocks re-enter the queue. Once the
//! processors run out, remaining blocks are still split down to the
//! smallest processor's memory (without being mapped) so that Step 3 can
//! merge them somewhere feasible.
//!
//! Deviation guard: a single-task block that exceeds every relevant
//! memory cannot be split further (the paper's pseudocode would loop);
//! such blocks are left unassigned for Step 3 / the final failure check.
//!
//! **On bounds.** A queued block carries certified bounds `lo ≤ r ≤ hi`
//! on its requirement and is queued on `hi`. The queue hands out the
//! block the exact requirements would: a top whose `r` is known is
//! that block by the heap order (every other `r` is at most its `hi`),
//! and one whose `r` is not is taken only when its `lo` exceeds every
//! other block's `hi` — otherwise it is resolved and requeued. "Fits
//! `M`" is decided on `hi ≤ M`, "does not fit" on `lo > M`, and
//! anything in between resolves `r`.
//!
//! **On splits.** A bisection is a function of the member set too, and
//! neighbouring `k'` attempts split their way through the same blocks,
//! so the solve's memo also holds bisections: each member set is
//! bisected once per solve. A block small enough not to be coarsened
//! is bisected on a view of the workflow (`dhp_dagp::bisect_block`),
//! without building its sub-DAG.

use crate::blockmem::ReqMemo;
use crate::blocks::BlockSet;
use crate::workspace::Workspace;
use dhp_dag::{Dag, NodeId};
use dhp_dagp::PartitionConfig;
use dhp_memdag::PeakBounds;
use dhp_platform::{Cluster, ProcId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A queued block: max-heap by the upper bound of its requirement
/// (the requirement itself once known), ties broken by insertion
/// sequence for determinism.
#[derive(Debug)]
struct QueuedBlock {
    req: PeakBounds,
    seq: u64,
    members: Vec<NodeId>,
}

impl QueuedBlock {
    /// Resolves `r`, which the block keeps.
    fn resolve(&mut self, memo: &ReqMemo<'_>) -> f64 {
        self.req = PeakBounds::exact(memo.resolve(&self.members, self.req));
        self.req.hi
    }

    /// `r ≤ memory`, resolving `r` only when the bounds cannot tell.
    fn fits(&mut self, memory: f64, memo: &ReqMemo<'_>) -> bool {
        self.req
            .fits(memory)
            .unwrap_or_else(|| self.resolve(memo) <= memory)
    }
}

/// Pops the block with the largest requirement (the earliest queued
/// among equals), resolving requirements only as far as that takes.
fn pop_largest(queue: &mut BinaryHeap<QueuedBlock>, memo: &ReqMemo<'_>) -> Option<QueuedBlock> {
    loop {
        let mut top = queue.pop()?;
        if top.req.is_exact() || queue.peek().is_none_or(|next| top.req.lo > next.req.hi) {
            return Some(top);
        }
        top.resolve(memo);
        queue.push(top);
    }
}

impl PartialEq for QueuedBlock {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for QueuedBlock {}
impl PartialOrd for QueuedBlock {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedBlock {
    fn cmp(&self, other: &Self) -> Ordering {
        self.req
            .hi
            .total_cmp(&other.req.hi)
            .then(other.seq.cmp(&self.seq))
    }
}

/// Runs `BiggestAssign` on the Step-1 block set, returning the Step-2
/// block set: every mapped block fits its processor; unassigned blocks
/// (if any) have been split down to the smallest memory where possible.
/// Every requirement in it is exact.
pub fn biggest_assign(g: &Dag, cluster: &Cluster, bs: BlockSet, cfg: &PartitionConfig) -> BlockSet {
    let memo = ReqMemo::new(g);
    let mut out = biggest_assign_memo(
        g,
        cluster,
        &cluster.ids_by_memory_desc(),
        bs,
        cfg,
        &memo,
        &mut Workspace::default(),
    );
    out.resolve_all(&memo);
    out
}

/// What Step 2 reuses from one attempt to the next: the storage of its
/// queue and of the blocks it parks.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    queue: Vec<QueuedBlock>,
    leftover: Vec<QueuedBlock>,
    split: SplitScratch,
}

/// What [`split_in_two`] reuses: the members ascending, their parts,
/// and the two parts one after the other.
#[derive(Debug, Default)]
struct SplitScratch {
    sorted: Vec<NodeId>,
    part: Vec<u32>,
    halves: Vec<NodeId>,
}

/// [`biggest_assign`] with the sub-blocks' requirement bounds answered
/// by the solve's memo, resolved only where a decision needs them.
/// Every block leaves the queue with what it entered with or learned
/// on the way, so nothing is computed twice on the way out either.
/// `proc_order` is `cluster.ids_by_memory_desc()`. The Step-1 blocks
/// move through the queue into the result, which takes over their
/// block list; split blocks' member lists go back to `ws`'s pool, and
/// their parts come from it.
pub(crate) fn biggest_assign_memo(
    g: &Dag,
    cluster: &Cluster,
    proc_order: &[ProcId],
    bs: BlockSet,
    cfg: &PartitionConfig,
    memo: &ReqMemo<'_>,
    ws: &mut Workspace,
) -> BlockSet {
    let Scratch {
        queue,
        leftover,
        split: scratch,
    } = &mut ws.step2;
    let pool = &mut ws.pool;
    let mut seq = 0u64;
    queue.clear();
    let mut queue = BinaryHeap::from(std::mem::take(queue));
    let storage = bs.drain_into(|b| {
        queue.push(QueuedBlock {
            req: b.bounds(),
            seq,
            members: b.members,
        });
        seq += 1;
    });
    let mut split = |queue: &mut BinaryHeap<QueuedBlock>, members: Vec<NodeId>| {
        let parts = memo.split(&members, pool, || split_in_two(g, &members, cfg, scratch));
        for part in parts {
            queue.push(QueuedBlock {
                req: memo.bounds(&part),
                seq,
                members: part,
            });
            seq += 1;
        }
        pool.give(members);
    };

    let mut out = BlockSet::on_storage(storage);
    leftover.clear();

    // Main loop: largest block onto largest free processor.
    let mut free = proc_order.iter();
    while let Some(&proc) = free.as_slice().first() {
        let Some(mut top) = pop_largest(&mut queue, memo) else {
            break;
        };
        if top.fits(cluster.memory(proc), memo) {
            let i = out.push_block_with_bounds(top.members, top.req);
            out.assign(i, proc);
            free.next();
        } else if top.members.len() == 1 {
            // Unsplittable and oversized for every remaining processor
            // (they only get smaller): park it for Step 3.
            leftover.push(top);
        } else {
            split(&mut queue, top.members);
        }
    }

    // Processors exhausted: split remaining blocks down to the smallest
    // memory (FitBlock with doMap = false).
    let min_mem = cluster.min_memory();
    while let Some(mut top) = pop_largest(&mut queue, memo) {
        if top.members.len() == 1 || top.fits(min_mem, memo) {
            leftover.push(top);
        } else {
            split(&mut queue, top.members);
        }
    }

    for block in leftover.drain(..) {
        out.push_block_with_bounds(block.members, block.req);
    }
    ws.step2.queue = queue.into_vec();
    out
}

/// `Partition(V_m, 2)`: bisects the sub-DAG the block induces
/// (`dhp_dagp::bisect_block_into`, which views a small block in place)
/// into two parts, each ascending: the part of the smallest member
/// first, as `Partition::from_raw` numbers them. Returns both, one after
/// the other, and where the second starts. The partitioner keeps both
/// parts of a bisection non-empty.
fn split_in_two<'s>(
    g: &Dag,
    members: &[NodeId],
    cfg: &PartitionConfig,
    scratch: &'s mut SplitScratch,
) -> (&'s [NodeId], usize) {
    debug_assert!(members.len() >= 2);
    let SplitScratch {
        sorted,
        part,
        halves,
    } = scratch;
    sorted.clear();
    sorted.extend_from_slice(members);
    sorted.sort_unstable();
    dhp_dagp::bisect_block_into(g, sorted, cfg, part);
    let in_first = |&(_, &p): &(&NodeId, &u32)| p == part[0];
    let members = || sorted.iter().zip(part.iter());
    halves.clear();
    halves.extend(members().filter(in_first).map(|(&u, _)| u));
    let mid = halves.len();
    halves.extend(members().filter(|m| !in_first(m)).map(|(&u, _)| u));
    (halves, mid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steps::partition::initial_blocks;
    use dhp_dag::builder;
    use dhp_dag::quotient::is_acyclic_partition;
    use dhp_platform::Processor;

    fn assert_step2_invariants(g: &Dag, cluster: &Cluster, bs: &BlockSet) {
        // 1. mapped blocks fit, 2. distinct processors, 3. acyclic quotient,
        // 4. cover preserved.
        let mut used = std::collections::HashSet::new();
        for b in bs.iter() {
            if let Some(p) = b.proc {
                assert!(b.req <= cluster.memory(p) * (1.0 + 1e-9));
                assert!(used.insert(p), "duplicate processor");
            }
        }
        let p = bs.to_mapping(g.node_count()).partition;
        assert!(is_acyclic_partition(g, &p));
    }

    #[test]
    fn assigns_when_memory_ample() {
        let g = builder::gnp_dag_weighted(60, 0.08, 1);
        // every processor holds the entire workflow: nothing may be left
        // unassigned
        let m = dhp_memdag::min_peak(&g) * 1.2;
        let cluster = Cluster::new(
            (0..36)
                .map(|i| Processor::new(format!("p{i}"), 1.0 + i as f64, m))
                .collect(),
            1.0,
        );
        let cfg = PartitionConfig::default();
        let bs = initial_blocks(&g, 6, &cfg);
        let out = biggest_assign(&g, &cluster, bs, &cfg);
        assert_step2_invariants(&g, &cluster, &out);
        assert!(out.unassigned().is_empty(), "default cluster is ample");
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn splits_oversized_blocks() {
        // File-heavy graph on a small-memory cluster forces splits: wide
        // layers with fat edges keep many files live at once.
        let g = builder::layered_random(6, 6, 0.1, (1.0, 10.0), (20.0, 40.0), (20.0, 40.0), 7);
        let cap = crate::fitting::max_task_requirement(&g) * 1.3;
        let cluster = Cluster::new(
            (0..12)
                .map(|i| Processor::new(format!("p{i}"), 1.0, cap))
                .collect(),
            1.0,
        );
        let cfg = PartitionConfig::default();
        let bs = initial_blocks(&g, 2, &cfg);
        let big_req = bs.iter().map(|b| b.req).fold(0.0f64, f64::max);
        assert!(big_req > cap, "test premise: initial blocks oversized");
        let out = biggest_assign(&g, &cluster, bs, &cfg);
        assert!(out.len() > 2, "blocks must have been split");
        assert_step2_invariants(&g, &cluster, &out);
    }

    #[test]
    fn leftover_blocks_stay_unassigned() {
        // More blocks than processors: the excess must remain unassigned
        // but split small enough for the (only) processor size.
        let g = builder::gnp_dag_weighted(40, 0.1, 3);
        let cluster = Cluster::new(vec![Processor::new("solo", 1.0, 250.0)], 1.0);
        let cfg = PartitionConfig::default();
        let bs = initial_blocks(&g, 4, &cfg);
        let out = biggest_assign(&g, &cluster, bs, &cfg);
        assert_step2_invariants(&g, &cluster, &out);
        assert!(out.len() - out.unassigned().len() <= 1);
        assert!(!out.unassigned().is_empty());
    }

    // ---- The eager reference ---------------------------------------
    //
    // Step 2 as it was before it decided on bounds: every block is
    // priced exactly before it is queued. Kept only so the tests below
    // can hold the lazy queue to it.

    struct EagerBlock {
        req: f64,
        seq: u64,
        members: Vec<NodeId>,
    }

    fn eager_biggest_assign(
        g: &Dag,
        cluster: &Cluster,
        bs: &BlockSet,
        cfg: &PartitionConfig,
        memo: &ReqMemo<'_>,
    ) -> BlockSet {
        let key = |b: &EagerBlock| (b.req, std::cmp::Reverse(b.seq));
        let mut queue: Vec<EagerBlock> = Vec::new();
        let pop = |queue: &mut Vec<EagerBlock>| {
            let top = (0..queue.len()).max_by(|&a, &b| {
                let ((ra, sa), (rb, sb)) = (key(&queue[a]), key(&queue[b]));
                ra.total_cmp(&rb).then(sa.cmp(&sb))
            })?;
            Some(queue.swap_remove(top))
        };
        let mut seq = 0u64;
        for b in bs.iter() {
            let req = memo.requirement(&b.members);
            queue.push(EagerBlock {
                req,
                seq,
                members: b.members.clone(),
            });
            seq += 1;
        }
        let mut split = |queue: &mut Vec<EagerBlock>, members: &[NodeId]| {
            let mut scratch = SplitScratch::default();
            let (halves, mid) = split_in_two(g, members, cfg, &mut scratch);
            for part in [&halves[..mid], &halves[mid..]] {
                let req = memo.requirement(part);
                queue.push(EagerBlock {
                    req,
                    seq,
                    members: part.to_vec(),
                });
                seq += 1;
            }
        };
        let mut free: std::collections::VecDeque<ProcId> =
            cluster.ids_by_memory_desc().into_iter().collect();
        let mut out = BlockSet::default();
        let mut leftover = Vec::new();
        while let Some(&proc) = free.front() {
            let Some(top) = pop(&mut queue) else { break };
            if top.req <= cluster.memory(proc) {
                let i = out.push_block_with_bounds(top.members, PeakBounds::exact(top.req));
                out.assign(i, proc);
                free.pop_front();
            } else if top.members.len() == 1 {
                leftover.push(top);
            } else {
                split(&mut queue, &top.members);
            }
        }
        let min_mem = cluster.min_memory();
        while let Some(top) = pop(&mut queue) {
            if top.req <= min_mem || top.members.len() == 1 {
                leftover.push(top);
            } else {
                split(&mut queue, &top.members);
            }
        }
        for block in leftover {
            out.push_block_with_bounds(block.members, PeakBounds::exact(block.req));
        }
        out
    }

    /// A graph of about `n` tasks: `0` random, `1` a fork-join of
    /// identical tasks (requirements tie), `2` random with memories
    /// and volumes from a few short decimals (requirements nearly tie),
    /// `3` a simulated workflow.
    fn shaped(shape: u8, n: usize, seed: u64) -> Dag {
        match shape {
            0 => builder::gnp_dag_weighted(n, (3.0 / n as f64).min(0.5), seed),
            1 => builder::fork_join(n, 1.0, 3.0, 2.0),
            2 => {
                const DECIMALS: [f64; 4] = [0.1, 0.2, 0.3, 0.7];
                let mut g = builder::gnp_dag(n, (3.0 / n as f64).min(0.5), seed);
                let pick = |i: u64| DECIMALS[(i.wrapping_mul(0x9e37_79b9) >> 7) as usize % 4];
                for u in g.node_ids().collect::<Vec<_>>() {
                    g.node_mut(u).memory = pick(seed ^ u.0 as u64);
                }
                for e in g.edge_ids().collect::<Vec<_>>() {
                    g.edge_mut(e).volume = pick(seed.rotate_left(7) ^ e.0 as u64);
                }
                g
            }
            _ => {
                let family = dhp_wfgen::Family::ALL[seed as usize % dhp_wfgen::Family::ALL.len()];
                std::sync::Arc::unwrap_or_clone(
                    dhp_wfgen::WorkflowInstance::simulated(family, n, seed).graph,
                )
            }
        }
    }

    /// A cluster of `procs` processors whose memories sit where the
    /// Step-1 blocks' comparisons are hardest: exactly at a block's
    /// requirement, inside its bounds, at its upper bound — or, with
    /// `tight`, at a fraction of one, so blocks split and their parts
    /// are compared too.
    fn awkward_cluster(g: &Dag, bs: &BlockSet, procs: usize, tight: bool, seed: u64) -> Cluster {
        let memo = ReqMemo::new(g);
        let mut spots = Vec::new();
        for b in bs.iter() {
            let bounds = memo.bounds(&b.members);
            let r = memo.requirement(&b.members);
            let scale = if tight { 0.45 } else { 1.0 };
            spots.extend([r, 0.5 * (bounds.lo + bounds.hi), bounds.hi].map(|m| m * scale));
        }
        let floor = crate::fitting::max_task_requirement(g);
        let memories = (0..procs as u64).map(|p| {
            let pick = (seed.rotate_left(p as u32 * 5) ^ p.wrapping_mul(0x9e37_79b9)) as usize;
            spots[pick % spots.len()].max(floor)
        });
        Cluster::new(
            memories
                .enumerate()
                .map(|(i, m)| Processor::new(format!("p{i}"), 1.0 + i as f64, m))
                .collect(),
            1.0,
        )
    }

    /// Step 2 on bounds and Step 2 on exact requirements, from the same
    /// Step-1 blocks on one cluster: the same blocks in the same order,
    /// the same processors, and the same requirement bits once the lazy
    /// one is resolved. Returns `(bounded, resolved)` of the lazy run.
    fn check_against_eager(
        g: &Dag,
        kprime: usize,
        procs: usize,
        tight: bool,
        seed: u64,
    ) -> (u64, u64) {
        let cfg = PartitionConfig::default();
        let step1 = super::super::partition::Step1::coarsen(g, [kprime], &cfg);
        let eager_memo = ReqMemo::new(g);
        let start = step1.blocks(kprime, &eager_memo);
        let cluster = awkward_cluster(g, &start, procs, tight, seed);
        let want = eager_biggest_assign(g, &cluster, &start, &cfg, &eager_memo);

        let memo = ReqMemo::new(g);
        let mut got = biggest_assign_memo(
            g,
            &cluster,
            &cluster.ids_by_memory_desc(),
            step1.blocks(kprime, &memo),
            &cfg,
            &memo,
            &mut Workspace::default(),
        );
        let tally = memo.tally();
        got.resolve_all(&memo);
        assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(want.iter()) {
            assert_eq!(a.members, b.members);
            assert_eq!(a.proc, b.proc);
            assert_eq!(a.req.to_bits(), b.req.to_bits());
            assert!(a.bounds().is_exact());
        }
        let public = biggest_assign(g, &cluster, initial_blocks(g, kprime, &cfg), &cfg);
        assert!(public
            .iter()
            .zip(want.iter())
            .all(|(a, b)| a.members == b.members
                && a.proc == b.proc
                && a.req.to_bits() == b.req.to_bits()));
        tally
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(40))]

        #[test]
        fn lazy_assign_equals_the_eager_reference(
            shape in 0u8..4,
            n in 12usize..120,
            kprime in 1usize..10,
            procs in 1usize..12,
            tight in proptest::strategy::any::<bool>(),
            seed in proptest::strategy::any::<u64>(),
        ) {
            check_against_eager(&shaped(shape, n, seed), kprime, procs, tight, seed);
        }
    }

    /// The clusters above do make the bounds straddle: across a fixed
    /// set of instances, requirements are resolved — though even there
    /// some bounds questions never need the kernel.
    #[test]
    fn awkward_clusters_force_resolutions() {
        let (mut bounded, mut resolved) = (0, 0);
        for seed in 0..24u64 {
            let g = shaped((seed % 4) as u8, 40 + seed as usize * 3, seed);
            let (b, r) = check_against_eager(
                &g,
                2 + seed as usize % 7,
                3 + seed as usize % 8,
                seed % 3 == 0,
                seed,
            );
            bounded += b;
            resolved += r;
        }
        assert!(
            resolved > 0 && resolved < bounded,
            "{resolved} of {bounded}"
        );
    }

    #[test]
    fn oversized_single_task_parked() {
        let mut g = Dag::new();
        let a = g.add_node(1.0, 500.0);
        let b = g.add_node(1.0, 1.0);
        g.add_edge(a, b, 1.0);
        let cluster = Cluster::new(vec![Processor::new("p", 1.0, 50.0)], 1.0);
        let cfg = PartitionConfig::default();
        let bs = BlockSet::from_partition(&g, &dhp_dag::Partition::single_block(2));
        let out = biggest_assign(&g, &cluster, bs, &cfg);
        // terminates (no infinite split loop) and leaves the giant task
        // unassigned
        assert!(out
            .iter()
            .any(|bl| bl.proc.is_none() && bl.members.contains(&a)));
    }
}
