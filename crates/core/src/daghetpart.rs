//! **DagHetPart** — the four-step heuristic (paper §4.2) and its driver.
//!
//! For every tentative block count `k' = 1..k` the driver runs the full
//! pipeline (partition → assign → merge → swap) and keeps the mapping
//! with the smallest makespan. The sweep is embarrassingly parallel and
//! is fanned out over up to `host_cores()` workers — the calling thread
//! plus one `std::thread::scope` spawn per further worker, since a spawn
//! costs about as much as one attempt on a small lease — that draw the next
//! `k'` from a shared counter, largest first: an attempt's cost grows
//! with `k'` and varies wildly (most of a memory-tight sweep fails in
//! Step 3, some early, some late), so contiguous chunks leave a worker
//! idle while another grinds through the expensive end. The workers
//! share the result slot, the solve's block-requirement memo
//! ([`ReqMemo`]) and the coarsening hierarchy of Step 1, which is built
//! once before they start; nothing else.

use crate::blockmem::ReqMemo;
use crate::makespan::blockset_makespan;
use crate::mapping::Mapping;
use crate::steps;
use crate::steps::partition::Step1;
use crate::steps::swap::Step4;
use crate::{MappingResult, SchedError};
use dhp_dag::Dag;
use dhp_platform::Cluster;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// How Step 1 chooses the tentative block count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KprimeMode {
    /// Try every `k' = 1..=k`, keep the best (the paper's default).
    Sweep,
    /// Use a single fixed `k'` (ablation / debugging).
    Fixed(usize),
}

/// Configuration of the DagHetPart heuristic.
#[derive(Clone, Debug)]
pub struct DagHetPartConfig {
    /// Partitioner settings for Steps 1 and 2.
    pub partition_cfg: dhp_dagp::PartitionConfig,
    /// `k'` selection.
    pub kprime: KprimeMode,
    /// Fan the `k'` sweep out over threads.
    pub parallel: bool,
    /// Enable Step 4 swaps.
    pub enable_swaps: bool,
    /// Enable Step 4 idle-processor moves.
    pub enable_idle_moves: bool,
    /// Enable the 2-cycle triple-merge repair in Step 3.
    pub enable_triple_merge: bool,
}

impl Default for DagHetPartConfig {
    fn default() -> Self {
        Self {
            partition_cfg: dhp_dagp::PartitionConfig::default(),
            kprime: KprimeMode::Sweep,
            parallel: true,
            enable_swaps: true,
            enable_idle_moves: true,
            enable_triple_merge: true,
        }
    }
}

/// Runs DagHetPart. Returns the best valid mapping over the `k'` sweep,
/// or `NoSolution` when no `k'` admits one.
pub fn dag_het_part(
    g: &Dag,
    cluster: &Cluster,
    cfg: &DagHetPartConfig,
) -> Result<MappingResult, SchedError> {
    sweep(g, cluster, cfg, &ReqMemo::new(g), false).map(|(result, _)| result)
}

/// Per-step progress of one pipeline run (the winning `k'` of a traced
/// sweep): how much each of the four steps contributed to the final
/// makespan. Steps 4a/4b are local search and therefore monotone
/// non-increasing; Step 3's value is the first *valid* makespan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepTrace {
    /// The block count this trace belongs to.
    pub kprime: usize,
    /// Blocks produced by Step 1 (the partitioner may return fewer than
    /// `k'` on small graphs).
    pub blocks_after_partition: usize,
    /// Blocks after Step 2's recursive splitting.
    pub blocks_after_assign: usize,
    /// Blocks Step 2 could not place (Step 3's workload).
    pub unassigned_after_assign: usize,
    /// *Estimated* makespan after Step 2 (unassigned blocks at speed 1).
    pub estimated_after_assign: f64,
    /// Makespan after Step 3 (first valid value).
    pub after_merge: f64,
    /// Makespan after Step 4 swaps.
    pub after_swaps: f64,
    /// Final makespan after Step 4 idle-processor moves.
    pub after_idle_moves: f64,
}

/// Like [`dag_het_part`], but also returns the [`StepTrace`] of the
/// winning `k'` (same sweep, same winner; every attempt additionally
/// scores its block set between the steps).
pub fn dag_het_part_traced(
    g: &Dag,
    cluster: &Cluster,
    cfg: &DagHetPartConfig,
) -> Result<(MappingResult, StepTrace), SchedError> {
    let (result, trace) = sweep(g, cluster, cfg, &ReqMemo::new(g), true)?;
    let Some(trace) = trace else {
        unreachable!("a traced sweep records a trace for every k'")
    };
    Ok((result, trace))
}

/// The `k'` sweep behind both entry points. `memo` lives for this one
/// solve: every worker reads and feeds it, the caller drops it.
fn sweep(
    g: &Dag,
    cluster: &Cluster,
    cfg: &DagHetPartConfig,
    memo: &ReqMemo<'_>,
    traced: bool,
) -> Result<(MappingResult, Option<StepTrace>), SchedError> {
    if g.is_empty() || cluster.is_empty() {
        return Err(SchedError::NoSolution);
    }
    let start = Instant::now();
    let k = cluster.len();
    let kprimes: Vec<usize> = match cfg.kprime {
        KprimeMode::Sweep => (1..=k.min(g.node_count())).collect(),
        KprimeMode::Fixed(kp) => vec![kp.clamp(1, k.min(g.node_count()))],
    };

    let step1 = Step1::coarsen(g, kprimes.iter().copied(), &cfg.partition_cfg);

    // Smaller kprime wins ties, so the result does not depend on which
    // attempt finishes first.
    // Innermost ranked lock: taken after any solve-cache lookup has
    // been released.
    let best: Mutex<Option<Attempt>> = Mutex::with_rank(None, parking_lot::ranks::SOLVER_BEST);
    let attempt = |kp: usize| {
        if let Some(new) = run_once(g, cluster, kp, cfg, &step1, memo, traced) {
            let mut slot = best.lock();
            let better = slot.as_ref().is_none_or(|old| {
                new.makespan < old.makespan - 1e-12
                    || (new.makespan <= old.makespan + 1e-12 && new.kprime < old.kprime)
            });
            if better {
                *slot = Some(new);
            }
        }
    };

    if cfg.parallel && kprimes.len() > 1 {
        let workers = crate::host_cores().min(kprimes.len());
        // Hands out positions only and publishes no data: Relaxed.
        let next = AtomicUsize::new(0);
        let drain = || {
            while let Some(&kp) = kprimes
                .iter()
                .rev()
                .nth(next.fetch_add(1, Ordering::Relaxed))
            {
                attempt(kp);
            }
        };
        // The caller is one of the workers.
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(drain);
            }
            drain();
        });
    } else {
        kprimes.iter().copied().for_each(attempt);
    }

    let best = best.into_inner().ok_or(SchedError::NoSolution)?;
    Ok((
        MappingResult {
            mapping: best.mapping,
            makespan: best.makespan,
            kprime: best.kprime,
            elapsed: start.elapsed(),
        },
        best.trace,
    ))
}

/// What one `k'` produced.
struct Attempt {
    makespan: f64,
    kprime: usize,
    mapping: Mapping,
    /// Present when the sweep is traced.
    trace: Option<StepTrace>,
}

/// One pipeline run with a fixed `k'`: the four steps, spelled out
/// once. Returns the final makespan and mapping (and, when `traced`,
/// how far each step got), or `None` when Step 3 cannot complete the
/// assignment.
fn run_once(
    g: &Dag,
    cluster: &Cluster,
    kprime: usize,
    cfg: &DagHetPartConfig,
    step1: &Step1,
    memo: &ReqMemo<'_>,
    traced: bool,
) -> Option<Attempt> {
    let score = |bs: &_| traced.then(|| blockset_makespan(g, bs, cluster));
    // Step 1: heterogeneity-blind acyclic partitioning.
    let bs = step1.blocks(kprime, memo);
    let blocks_after_partition = bs.len();
    // Step 2: memory-aware assignment (may split blocks).
    let mut bs = steps::assign::biggest_assign_memo(g, cluster, bs, &cfg.partition_cfg, memo);
    let blocks_after_assign = bs.len();
    let unassigned_after_assign = bs.unassigned().len();
    let estimated_after_assign = score(&bs);
    // Step 3: merge unassigned blocks, makespan-guided.
    steps::merge::merge_unassigned_memo(g, cluster, &mut bs, cfg.enable_triple_merge, memo).ok()?;
    // Step 4: local search. It moves blocks between processors and
    // leaves the quotient as it is: one serves both sub-steps and every
    // makespan from here on.
    let mut step4 = Step4::new(g, cluster, &bs);
    let after_merge = traced.then(|| step4.makespan());
    if cfg.enable_swaps {
        step4.swap_blocks(cluster, &mut bs, memo);
    }
    let after_swaps = traced.then(|| step4.makespan());
    if cfg.enable_idle_moves {
        step4.idle_moves(cluster, &mut bs, memo);
    }
    let makespan = step4.makespan();
    let trace = match (estimated_after_assign, after_merge, after_swaps) {
        (Some(estimated_after_assign), Some(after_merge), Some(after_swaps)) => Some(StepTrace {
            kprime,
            blocks_after_partition,
            blocks_after_assign,
            unassigned_after_assign,
            estimated_after_assign,
            after_merge,
            after_swaps,
            after_idle_moves: makespan,
        }),
        _ => None,
    };
    Some(Attempt {
        makespan,
        kprime,
        mapping: bs.to_mapping(g.node_count()),
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::validate;
    use dhp_dag::builder;
    use dhp_platform::{configs, Processor};

    /// A cluster with heterogeneous speeds whose every processor can hold
    /// the whole workflow: isolates the makespan logic from memory
    /// pressure.
    fn ample_het_cluster(g: &Dag, k: usize) -> Cluster {
        let m = dhp_memdag::min_peak(g) * 1.2;
        Cluster::new(
            (0..k)
                .map(|i| Processor::new(format!("p{i}"), 1.0 + (i % 6) as f64 * 3.0, m))
                .collect(),
            1.0,
        )
    }

    #[test]
    fn produces_valid_mappings() {
        let g = builder::gnp_dag_weighted(80, 0.06, 11);
        // 5% headroom like the experiment harness: exact fitting leaves
        // hub-heavy random graphs with no feasible merge slack.
        let cluster =
            crate::fitting::scale_cluster_with_headroom(&g, &configs::default_cluster(), 1.05);
        let r = dag_het_part(&g, &cluster, &DagHetPartConfig::default()).unwrap();
        assert!(validate(&g, &cluster, &r.mapping).is_ok());
        assert!(r.makespan.is_finite() && r.makespan > 0.0);
        assert!(r.kprime >= 1);
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let g = builder::gnp_dag_weighted(50, 0.08, 3);
        let cluster = ample_het_cluster(&g, 12);
        let mut cfg = DagHetPartConfig {
            parallel: false,
            ..DagHetPartConfig::default()
        };
        let seq = dag_het_part(&g, &cluster, &cfg).unwrap();
        cfg.parallel = true;
        let par = dag_het_part(&g, &cluster, &cfg).unwrap();
        assert_eq!(seq.kprime, par.kprime);
        assert!((seq.makespan - par.makespan).abs() < 1e-9);
    }

    #[test]
    fn beats_or_matches_single_block() {
        // Parallelism must not hurt: the sweep includes k'=1, so the
        // result is at most the best single-processor makespan.
        let g = builder::fork_join(20, 50.0, 2.0, 1.0);
        let cluster = configs::default_cluster();
        let r = dag_het_part(&g, &cluster, &DagHetPartConfig::default()).unwrap();
        // best single proc: total work / fastest speed
        let single = g.total_work() / 32.0;
        assert!(r.makespan <= single + 1e-9, "{} vs {}", r.makespan, single);
    }

    #[test]
    fn fixed_kprime_mode() {
        let g = builder::gnp_dag_weighted(40, 0.1, 5);
        let cluster = ample_het_cluster(&g, 8);
        let cfg = DagHetPartConfig {
            kprime: KprimeMode::Fixed(3),
            ..DagHetPartConfig::default()
        };
        let r = dag_het_part(&g, &cluster, &cfg).unwrap();
        assert!(validate(&g, &cluster, &r.mapping).is_ok());
    }

    #[test]
    fn no_solution_on_starved_platform() {
        let g = builder::gnp_dag_weighted(30, 0.2, 1);
        let cluster =
            dhp_platform::Cluster::new(vec![dhp_platform::Processor::new("tiny", 1.0, 2.0)], 1.0);
        assert_eq!(
            dag_het_part(&g, &cluster, &DagHetPartConfig::default()).unwrap_err(),
            SchedError::NoSolution
        );
    }

    #[test]
    fn empty_graph_fails() {
        let g = Dag::new();
        let cluster = configs::default_cluster();
        assert!(dag_het_part(&g, &cluster, &DagHetPartConfig::default()).is_err());
    }

    #[test]
    fn traced_run_matches_untraced_and_is_monotone() {
        let g = builder::gnp_dag_weighted(60, 0.08, 21);
        let cluster = ample_het_cluster(&g, 10);
        let cfg = DagHetPartConfig {
            parallel: false,
            ..DagHetPartConfig::default()
        };
        let plain = dag_het_part(&g, &cluster, &cfg).unwrap();
        let (traced, trace) = dag_het_part_traced(&g, &cluster, &cfg).unwrap();
        assert!((plain.makespan - traced.makespan).abs() < 1e-9 * plain.makespan);
        // Step 4 is local search: makespans never increase.
        assert!(trace.after_swaps <= trace.after_merge * (1.0 + 1e-12));
        assert!(trace.after_idle_moves <= trace.after_swaps * (1.0 + 1e-12));
        assert!((trace.after_idle_moves - traced.makespan).abs() < 1e-9 * traced.makespan);
        assert!(
            trace.blocks_after_assign
                >= trace.blocks_after_partition - trace.kprime.min(trace.blocks_after_partition)
        );
        assert!(validate(&g, &cluster, &traced.mapping).is_ok());
    }

    #[test]
    fn trace_reports_step3_workload() {
        // Memory-tight cluster: Step 2 must leave blocks unassigned, and
        // the trace must show Step 3 absorbing them.
        let g = builder::gnp_dag_weighted(80, 0.05, 4);
        let cluster =
            crate::fitting::scale_cluster_with_headroom(&g, &configs::small_cluster(), 1.05);
        let cfg = DagHetPartConfig {
            kprime: KprimeMode::Fixed(18),
            ..DagHetPartConfig::default()
        };
        if let Ok((r, trace)) = dag_het_part_traced(&g, &cluster, &cfg) {
            assert_eq!(trace.kprime, 18.min(cluster.len()));
            assert!(trace.after_merge.is_finite());
            assert!(validate(&g, &cluster, &r.mapping).is_ok());
        }
    }

    /// The memo must earn its keep: on a chain-shaped instance the
    /// sweep asks about the same member sets over and over — for
    /// bounds, and for the requirement where the bounds do not decide.
    /// Both kinds of question count. A memo that never hits fails here
    /// instead of surviving silently; and sharing it changes no output.
    #[test]
    fn requirement_memo_hits_on_a_chain_shaped_instance() {
        use dhp_wfgen::{Family, WorkflowInstance};
        let g = WorkflowInstance::simulated(Family::Epigenomics, 60, 17).graph;
        let cluster =
            crate::fitting::scale_cluster_with_headroom(&g, &configs::default_cluster(), 1.05);
        let cfg = DagHetPartConfig::default();
        let memo = ReqMemo::new(&g);
        let (shared, _) = sweep(&g, &cluster, &cfg, &memo, false).unwrap();
        let (hits, misses) = memo.stats();
        assert!(misses > 0, "premise: the solve has multi-task blocks");
        assert!(
            hits > misses,
            "{hits} hits / {misses} misses: on this shape most questions repeat"
        );

        // The winning k' solved alone, from an empty memo, reaches the
        // same mapping.
        let fixed = DagHetPartConfig {
            kprime: KprimeMode::Fixed(shared.kprime),
            ..cfg
        };
        let alone = dag_het_part(&g, &cluster, &fixed).unwrap();
        assert_eq!(alone.makespan.to_bits(), shared.makespan.to_bits());
        assert_eq!(alone.mapping.partition, shared.mapping.partition);
        assert_eq!(alone.mapping.proc_of_block, shared.mapping.proc_of_block);
    }

    /// Bounds decide almost every comparison of a sweep: on
    /// genome-1000 (seed 17, the fitted default cluster) only a handful
    /// of the bounds questions about blocks with an internal edge need
    /// the kernel's bits. A change that makes the bounds looser, or a
    /// step that resolves where it need not, moves the pin.
    #[test]
    fn a_genome_sweep_resolves_a_handful_of_requirements() {
        use dhp_wfgen::{Family, WorkflowInstance};
        let g = WorkflowInstance::simulated(Family::Genome, 1_000, 17).graph;
        let cluster =
            crate::fitting::scale_cluster_with_headroom(&g, &configs::default_cluster(), 1.05);
        // One thread: two workers missing on one set would both count.
        let cfg = DagHetPartConfig {
            parallel: false,
            ..DagHetPartConfig::default()
        };
        let memo = ReqMemo::new(&g);
        sweep(&g, &cluster, &cfg, &memo, false).unwrap();
        assert_eq!(memo.tally(), (235, 9), "(bounded, resolved)");
    }

    /// One hierarchy serves the whole sweep: every `k'` attempted on
    /// it — from the levels its own coarsening would have stopped at —
    /// ends exactly where that `k'` solved alone ends. The instance is
    /// chain-shaped, so the hierarchy is deep and most `k'` use a
    /// strict prefix of it.
    #[test]
    fn every_kprime_of_a_sweep_equals_that_kprime_solved_alone() {
        use dhp_wfgen::{Family, WorkflowInstance};
        let g = WorkflowInstance::simulated(Family::Soykb, 200, 17).graph;
        let cluster =
            crate::fitting::scale_cluster_with_headroom(&g, &configs::default_cluster(), 1.05);
        let cfg = DagHetPartConfig::default();
        let memo = ReqMemo::new(&g);
        let step1 = Step1::coarsen(&g, 1..=cluster.len(), &cfg.partition_cfg);
        let mut solved = 0;
        for kprime in 1..=cluster.len() {
            let fixed = DagHetPartConfig {
                kprime: KprimeMode::Fixed(kprime),
                ..cfg.clone()
            };
            let alone = dag_het_part(&g, &cluster, &fixed).ok();
            let shared = run_once(&g, &cluster, kprime, &cfg, &step1, &memo, false);
            assert_eq!(alone.is_some(), shared.is_some(), "k'={kprime}");
            if let (Some(alone), Some(shared)) = (alone, shared) {
                assert_eq!(alone.makespan.to_bits(), shared.makespan.to_bits());
                assert_eq!(alone.mapping.partition, shared.mapping.partition);
                assert_eq!(alone.mapping.proc_of_block, shared.mapping.proc_of_block);
                solved += 1;
            }
        }
        assert!(solved >= 5, "premise: several k' find a mapping ({solved})");
    }
}
