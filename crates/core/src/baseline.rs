//! **DagHetMem** — the memory-aware baseline heuristic (paper §4.1).
//!
//! Computes a memory-efficient traversal of the entire workflow with
//! `dhp-memdag`, sorts the processors by decreasing memory, and fills
//! the current (largest-memory) processor with tasks in traversal order
//! for as long as the growing block's memory requirement fits. When a
//! task would overflow the processor, the block is closed and the task
//! starts a new block on the next processor. The heuristic fails
//! (`NoSolution`) when tasks remain but no processor can take them.
//!
//! The baseline does not optimise the makespan and never exploits
//! parallelism — the whole workflow is executed on a single processor
//! whenever it fits the largest memory.
//!
//! **Finding the overflowing task.** A block is a run of the traversal
//! and its requirement is `prefix_peak` of that run. Appending tasks to
//! a run never lowers that peak, *in floating point*, as long as no
//! file volume is negative: the traversal is a topological order, so a
//! later task is never a parent of an earlier one, and of the terms an
//! earlier task contributes (`in_boundary`, `in_int`, `out_all`,
//! `out_int`) only `out_int` changes — it gains non-negative addends
//! inside a left-to-right sum, and every rounded `+`, `-` and `max`
//! that follows is monotone in that operand. So "the run fits" is true
//! up to some length and false beyond it, and the first task that
//! overflows is found by doubling the length and then bisecting, with
//! the same `prefix_peak` on the same runs a task-by-task scan would
//! have compared: `O(log L)` evaluations for a block of `L` tasks
//! instead of `L`. With a negative volume the premise does not hold and
//! the search may close a block at a different, equally fitting, task.
//!
//! **What it prices.** The whole-workflow traversal and the
//! `prefix_peak` of every probed run — nothing else. The blocks go
//! into the [`Mapping`] as they are; their requirement under the
//! kernel's own orders is never computed here, and `mapping::validate`
//! prices them when asked (bound first, kernel second).

use crate::mapping::Mapping;
use crate::SchedError;
use dhp_dag::util::BitSet;
use dhp_dag::{Dag, NodeId, Partition};
use dhp_platform::Cluster;

/// Runs DagHetMem; `Err(NoSolution)` reproduces the paper's failure
/// mode.
///
/// On success the mapping is complete, with one processor per block and
/// an acyclic quotient (blocks are runs of one topological order), and
/// every block fits its processor *when run in the global traversal's
/// order*. It need not pass [`crate::mapping::validate`], which prices a
/// block by the best of the kernel's own orders on the block alone —
/// that can exceed the traversal's peak (the four `baseline_invalid`
/// instances of the `offline_chain` benchmark; ROADMAP item A).
pub fn dag_het_mem(g: &Dag, cluster: &Cluster) -> Result<Mapping, SchedError> {
    let procs = cluster.ids_by_memory_desc();
    let Some(&largest) = procs.first() else {
        return Err(SchedError::NoSolution);
    };
    if g.is_empty() {
        return Err(SchedError::NoSolution);
    }
    // The memory-optimal traversal of the full workflow.
    let traversal = dhp_memdag::best_traversal(g, &vec![0.0; g.node_count()]);

    // Whole workflow fits the largest processor: single-block mapping.
    if traversal.peak <= cluster.memory(largest) {
        return Ok(Mapping {
            partition: Partition::single_block(g.node_count()),
            proc_of_block: vec![Some(largest)],
        });
    }

    let mut rest = traversal.order.as_slice();
    let mut members = BitSet::new(g.node_count());
    let mut finished: Vec<(&[NodeId], dhp_platform::ProcId)> = Vec::new();
    for &proc in &procs {
        // `members` holds `rest[..marked]`, the run last evaluated.
        let mut marked = 0;
        let len = longest_fitting_prefix(rest.len(), |len| {
            let kept = marked.min(len);
            for u in &rest[kept..marked] {
                members.clear(u.idx());
            }
            for u in &rest[kept..len] {
                members.set(u.idx());
            }
            marked = len;
            prefix_peak(g, &rest[..len], &members) <= cluster.memory(proc)
        });
        if len == 0 {
            // Even alone, the next task does not fit the largest
            // remaining memory.
            return Err(SchedError::NoSolution);
        }
        let (block, later) = rest.split_at(len);
        finished.push((block, proc));
        rest = later;
        if rest.is_empty() {
            break;
        }
        members.clear_all();
    }
    if !rest.is_empty() {
        // Tasks remain and the processors have run out.
        return Err(SchedError::NoSolution);
    }

    Ok(Mapping::from_blocks(
        g.node_count(),
        finished
            .into_iter()
            .map(|(block, proc)| (block, Some(proc))),
    ))
}

/// The largest `len` in `0..=max_len` with `fits(len)`, for a predicate
/// that holds up to some length and fails beyond it (`fits(0)` is taken
/// for granted and never asked). Doubles `len` until it overflows, then
/// bisects: at most `2·⌈log2 max_len⌉ + 2` probes.
fn longest_fitting_prefix(max_len: usize, mut fits: impl FnMut(usize) -> bool) -> usize {
    // A length past the end fits nothing and costs no probe.
    let mut fits = |len: usize| len <= max_len && fits(len);
    // Invariant: `fits(lo)` and, from the second loop on, `!fits(hi)`.
    let (mut lo, mut hi) = (0, 1);
    while fits(hi) {
        lo = hi;
        hi *= 2;
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Peak memory of executing `tasks` (a prefix of the global traversal,
/// in order) as one block, with files crossing the block boundary charged
/// transiently at the incident task — the same model as
/// [`crate::blockmem::block_requirement`], evaluated on the fixed order.
fn prefix_peak(g: &Dag, tasks: &[NodeId], members: &BitSet) -> f64 {
    let mut live = 0.0f64;
    let mut peak = 0.0f64;
    for &u in tasks {
        let mut out_all = 0.0;
        let mut out_int = 0.0;
        for &e in g.out_edges(u) {
            let ed = g.edge(e);
            out_all += ed.volume;
            if members.get(ed.dst.idx()) {
                out_int += ed.volume;
            }
        }
        let mut in_int = 0.0;
        let mut in_boundary = 0.0;
        for &e in g.in_edges(u) {
            let ed = g.edge(e);
            if members.get(ed.src.idx()) {
                in_int += ed.volume;
            } else {
                in_boundary += ed.volume;
            }
        }
        let current = live + g.node(u).memory + out_all + in_boundary;
        peak = peak.max(current);
        live += out_int - in_int;
    }
    peak
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::BlockSet;
    use crate::mapping::validate;
    use dhp_dag::builder;
    use dhp_platform::{configs, ProcId, Processor};

    /// DagHetMem as it was before the cut search: append one task,
    /// re-evaluate the whole block, repeat. The reference
    /// [`dag_het_mem`] is held to.
    fn linear_scan_mem(g: &Dag, cluster: &Cluster) -> Result<Mapping, SchedError> {
        if g.is_empty() || cluster.is_empty() {
            return Err(SchedError::NoSolution);
        }
        // The memory-optimal traversal of the full workflow.
        let traversal = dhp_memdag::best_traversal(g, &vec![0.0; g.node_count()]);
        let procs = cluster.ids_by_memory_desc();

        // Whole workflow fits the largest processor: single-block mapping.
        if traversal.peak <= cluster.memory(procs[0]) {
            let mut bs = BlockSet::from_partition(g, &Partition::single_block(g.node_count()));
            bs.assign(0, procs[0]);
            return Ok(bs.to_mapping(g.node_count()));
        }

        let mut proc_iter = procs.iter();
        let mut cur_proc = *proc_iter.next().expect("non-empty cluster");
        let mut members = BitSet::new(g.node_count());
        let mut cur: Vec<NodeId> = Vec::new();
        let mut finished: Vec<(Vec<NodeId>, dhp_platform::ProcId)> = Vec::new();

        for &u in &traversal.order {
            cur.push(u);
            members.set(u.idx());
            let req = prefix_peak(g, &cur, &members);
            if req <= cluster.memory(cur_proc) {
                continue;
            }
            // u overflows the current processor: close the block without it.
            cur.pop();
            members.clear(u.idx());
            if cur.is_empty() {
                // Even alone, u does not fit the (largest remaining) memory.
                return Err(SchedError::NoSolution);
            }
            finished.push((std::mem::take(&mut cur), cur_proc));
            members.clear_all();
            // Resume from u on the next processor.
            cur_proc = *proc_iter.next().ok_or(SchedError::NoSolution)?;
            cur.push(u);
            members.set(u.idx());
            if prefix_peak(g, &cur, &members) > cluster.memory(cur_proc) {
                return Err(SchedError::NoSolution);
            }
        }
        if !cur.is_empty() {
            finished.push((cur, cur_proc));
        }

        // Assemble the mapping.
        let mut bs = BlockSet::default();
        for (block_members, proc) in finished {
            let i = bs.push_block(g, block_members);
            bs.assign(i, proc);
        }
        Ok(bs.to_mapping(g.node_count()))
    }

    /// Both heuristics on `g` and a cluster of the memories `ladder`:
    /// the same mapping or the same error.
    fn agrees_with_the_linear_scan(g: &Dag, ladder: &[f64]) -> Result<Mapping, SchedError> {
        let procs = ladder.iter().enumerate();
        let cluster = Cluster::new(
            procs
                .map(|(i, &m)| Processor::new(format!("p{i}"), 1.0, m))
                .collect(),
            1.0,
        );
        let (searched, scanned) = (dag_het_mem(g, &cluster), linear_scan_mem(g, &cluster));
        match (&searched, &scanned) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.partition, b.partition, "{ladder:?}");
                assert_eq!(a.proc_of_block, b.proc_of_block, "{ladder:?}");
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            _ => panic!("{ladder:?}: search {searched:?}, scan {scanned:?}"),
        }
        searched
    }

    /// Random and structured DAGs of about `n` tasks.
    fn workflows(n: usize, seed: u64) -> [Dag; 4] {
        let width = 2 + (seed % 7) as usize;
        let wide = (1.0, 9.0);
        [
            builder::gnp_dag_weighted(n, 3.0 / n as f64, seed),
            builder::layered_random(n.div_ceil(width), width, 0.3, wide, wide, wide, seed),
            builder::chain(n, 1.0, 2.0, 3.0),
            builder::fork_join(n - 2, 1.0, 3.0, 1.4),
        ]
    }

    /// The workflow's whole-traversal peak and the requirement of its
    /// hungriest task: the two memories the ladders are scaled between.
    fn peak_and_hungriest(g: &Dag) -> (f64, f64) {
        let peak = dhp_memdag::min_peak(g);
        let hungriest = g.node_ids().map(|u| g.task_requirement(u));
        (peak, hungriest.fold(0.0, f64::max))
    }

    #[test]
    fn the_search_cuts_where_the_scan_cut() {
        let (mut whole, mut split, mut task_too_big, mut ran_out) = (0, 0, 0, 0);
        for (n, seed) in [(12usize, 1u64), (60, 2), (150, 3), (400, 4)] {
            for g in workflows(n, seed) {
                let (peak, hungriest) = peak_and_hungriest(&g);
                let between = |t: f64| hungriest + t * (peak - hungriest);
                let ladders: [&[f64]; 6] = [
                    &[peak],
                    &[between(0.6), between(0.9), between(0.3), between(0.3)],
                    &[between(0.2); 12],
                    &[between(0.05); 40],
                    &[between(0.5), 0.9 * hungriest],
                    &[between(0.1); 2],
                ];
                for ladder in ladders {
                    match agrees_with_the_linear_scan(&g, ladder) {
                        Ok(m) if m.num_blocks() == 1 => whole += 1,
                        Ok(_) => split += 1,
                        Err(_) if ladder.iter().all(|&m| m < hungriest) => task_too_big += 1,
                        Err(_) => ran_out += 1,
                    }
                }
                // No processor holds the hungriest task: the first
                // block, or a later one, dies on a task of its own.
                assert!(agrees_with_the_linear_scan(&g, &[0.9 * hungriest; 3]).is_err());
                task_too_big += 1;
            }
        }
        assert!(
            whole > 0 && split > 10 && task_too_big > 0 && ran_out > 10,
            "whole {whole}, split {split}, a task too big {task_too_big}, ran out {ran_out}"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        #[test]
        fn dag_het_mem_matches_the_linear_scan(
            n in 8usize..300,
            seed in proptest::prelude::any::<u64>(),
            ladder in proptest::collection::vec(0.0f64..1.1, 1..24),
        ) {
            for g in workflows(n, seed) {
                let (peak, hungriest) = peak_and_hungriest(&g);
                // From just under the hungriest task to just over the
                // whole workflow.
                let ladder: Vec<f64> = ladder
                    .iter()
                    .map(|t| 0.95 * hungriest + t * (peak - 0.95 * hungriest))
                    .collect();
                let _ = agrees_with_the_linear_scan(&g, &ladder);
            }
        }
    }

    /// A block of `max_len` tasks whose first `threshold` fit: the
    /// search must return `threshold`, the length a task-by-task scan
    /// stops at, within its probe budget.
    #[test]
    fn the_cut_search_is_logarithmic_and_exact() {
        for max_len in [1usize, 2, 3, 1_000, 10_000] {
            let budget = 2 * max_len.next_power_of_two().trailing_zeros() + 2;
            for threshold in 0..=max_len {
                let mut probes = 0;
                let len = longest_fitting_prefix(max_len, |len| {
                    assert!((1..=max_len).contains(&len), "probed {len} of {max_len}");
                    probes += 1;
                    len <= threshold
                });
                assert_eq!(len, threshold, "block of {max_len}");
                assert!(
                    probes <= budget,
                    "block of {max_len} cut at {threshold}: {probes} probes, budget {budget}"
                );
            }
        }
    }

    #[test]
    fn small_workflow_single_block_on_biggest_memory() {
        let g = builder::chain(10, 5.0, 2.0, 1.0);
        let cluster = configs::default_cluster();
        let m = dag_het_mem(&g, &cluster).unwrap();
        assert_eq!(m.num_blocks(), 1);
        // the C2 machines have the largest memory (192)
        let p = m.proc_of_block[0].unwrap();
        assert_eq!(cluster.proc(p).kind, "C2");
        assert!(validate(&g, &cluster, &m).is_ok());
    }

    #[test]
    fn splits_when_memory_tight() {
        // Wide fork whose files exceed any single small memory.
        let g = builder::fork_join(40, 1.0, 3.0, 1.4);
        let cluster = Cluster::new(
            (0..10)
                .map(|i| Processor::new(format!("p{i}"), 1.0, 60.0))
                .collect(),
            1.0,
        );
        let m = dag_het_mem(&g, &cluster).unwrap();
        assert!(m.num_blocks() > 1, "must split across processors");
        assert!(validate(&g, &cluster, &m).is_ok());
    }

    #[test]
    fn fails_without_enough_memory() {
        let g = builder::fork_join(64, 1.0, 10.0, 10.0);
        let cluster = Cluster::new(vec![Processor::new("tiny", 1.0, 12.0)], 1.0);
        assert_eq!(
            dag_het_mem(&g, &cluster).unwrap_err(),
            SchedError::NoSolution
        );
    }

    #[test]
    fn single_oversized_task_fails() {
        let mut g = Dag::new();
        g.add_node(1.0, 1000.0);
        g.add_node(1.0, 1.0);
        let a = NodeId(0);
        let b = NodeId(1);
        g.add_edge(a, b, 1.0);
        let cluster = Cluster::new(vec![Processor::new("p", 1.0, 50.0)], 1.0);
        assert_eq!(
            dag_het_mem(&g, &cluster).unwrap_err(),
            SchedError::NoSolution
        );
    }

    #[test]
    fn empty_inputs_fail() {
        let g = Dag::new();
        let cluster = configs::default_cluster();
        assert_eq!(
            dag_het_mem(&g, &cluster).unwrap_err(),
            SchedError::NoSolution
        );
        let g2 = builder::chain(3, 1.0, 1.0, 1.0);
        let empty = Cluster::new(vec![], 1.0);
        assert_eq!(
            dag_het_mem(&g2, &empty).unwrap_err(),
            SchedError::NoSolution
        );
        let _ = ProcId(0);
    }

    #[test]
    fn blocks_follow_traversal_order() {
        // With a chain and small memories, blocks must be contiguous
        // chain intervals (traversal of a chain is the chain itself).
        let g = builder::chain(12, 1.0, 10.0, 1.0);
        let cluster = Cluster::new(
            (0..6)
                .map(|i| Processor::new(format!("p{i}"), 1.0, 25.0))
                .collect(),
            1.0,
        );
        let m = dag_het_mem(&g, &cluster).unwrap();
        assert!(validate(&g, &cluster, &m).is_ok());
        for w in g.node_ids().collect::<Vec<_>>().windows(2) {
            let (a, b) = (m.partition.block_of(w[0]), m.partition.block_of(w[1]));
            assert!(a.idx() <= b.idx() + 1);
        }
    }
}
