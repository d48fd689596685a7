//! **DagHetPart** — the four-step heuristic (paper §4.2) and its driver.
//!
//! For every tentative block count `k' = 1..k` the driver runs the full
//! pipeline (partition → assign → merge → swap) and keeps the mapping
//! with the smallest makespan. Both drivers are one drain loop: workers
//! draw the next `k'` from a shared counter, largest first — an
//! attempt's cost grows with `k'` and varies wildly (most of a
//! memory-tight sweep fails in Step 3, some early, some late), so
//! contiguous chunks leave a worker idle while another grinds through
//! the expensive end. The sequential driver is that loop with one
//! worker. The parallel one runs `host_cores().min(|k'|)` workers: the
//! calling thread plus one `std::thread::scope` spawn per further
//! worker. A spawn costs about as much as one attempt on a small lease,
//! so a sweep of at most three values of `k'` — the lease sweeps an
//! online run makes by the thousand — runs on the calling thread alone.
//!
//! The workers share the result slot, the solve's block-requirement
//! memo ([`ReqMemo`]) and the coarsening hierarchy of Step 1, which is
//! built once before they start; nothing else. They read the slot as
//! well as fill it. After Step 3 an attempt that has an incumbent to
//! beat asks Step 4 for a lower bound on any makespan its local search
//! can reach (one relax with every block at the cluster's top speed),
//! and stops there — before the swaps, the idle moves and the mapping —
//! when the bound exceeds what the incumbent can still grow to. The
//! slot takes an attempt that is faster by more than `1e-12`, or slower
//! by at most `1e-12` with a smaller `k'`; so a replacement raises the
//! slot by at most one rounded `+ 1e-12`, at most `|k'| - 1` other
//! attempts are placed before this one would be, and its own placement
//! allows one more. A bound above the incumbent plus `|k'|` such
//! additions therefore belongs to an attempt that could not have been
//! placed in any interleaving of the workers: pruning it moves no
//! winner, and no trace either — a traced sweep reports the winner's.
//!
//! **What an attempt allocates.** Nothing but the mapping it returns:
//! its partition's block array and its processor table, and not even
//! those when Step 3 fails or the bound prunes it. Every other buffer
//! of the four steps lives in its thread's workspace
//! (`crate::workspace`, one per thread, like `dhp_memdag`'s and
//! `dhp_dagp::bisect_block`'s), which the calling thread of a solve and
//! the workers it spawns keep from one attempt, and one solve, to the
//! next: the partitioner's arrays (`dhp_dagp::PartitionScratch`), the
//! block list and a pool of member lists by size class, Step 2's queue,
//! Step 3's quotient and queue, Step 4's quotient and tables. Blocks
//! move from step to step instead of being copied; a member list is
//! taken from the pool and returned to it. Each step clears and refills
//! what it takes, so nothing carries from one attempt to the next.
//! What a solve allocates besides is its own: the memo's tables and the
//! bisections it keeps, and Step 1's hierarchy of the workflow — built
//! once, its levels views, balance weights and coarse maps, with no copy
//! of the workflow or of any contracted graph (`dhp_dagp::coarsen_for`;
//! 2.0 MiB for 10,000 blast tasks). A workflow already at the
//! coarsening target is one level: its view and weights. The memo keeps
//! one key per distinct multi-task block. Up to 128 tasks a key is a
//! 16-byte mask. Above that it is the block's runs of consecutive ids:
//! the keys of a sequential blast-10000 sweep hold 74,008 B, where id
//! lists held 1,440,000 B.
//! The requirement kernel's tables are the thread's `dhp_memdag`
//! workspace, which grows to the largest block the thread has asked
//! about (at `k' = 1`, the whole workflow).

use crate::blockmem::ReqMemo;
use crate::makespan::blockset_makespan;
use crate::mapping::Mapping;
use crate::steps;
use crate::steps::partition::Step1;
use crate::workspace::{with_workspace, Workspace};
use crate::{MappingResult, SchedError};
use dhp_dag::Dag;
use dhp_platform::{Cluster, ProcId};
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
    /// Fan the `k'` sweep out over threads: the calling thread plus one
    /// per further worker, up to one worker per `k'`; a sweep of at most
    /// three values of `k'` stays on the calling thread. Off, the calling
    /// thread alone drains the same largest-first loop, so both settings
    /// reach the same result unless three or more makespans lie within a
    /// few `1e-12` of each other, where the slot's tie rule is not
    /// transitive.
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
/// winning `k'` (same sweep, same pruning, same winner; every attempt
/// additionally scores its block set between the steps it runs).
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
pub(crate) fn sweep(
    g: &Dag,
    cluster: &Cluster,
    cfg: &DagHetPartConfig,
    memo: &ReqMemo<'_>,
    traced: bool,
) -> Result<(MappingResult, Option<StepTrace>), SchedError> {
    if g.is_empty() || cluster.is_empty() {
        return Err(SchedError::NoSolution);
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "`MappingResult::elapsed` reports solver wall time; no decision reads it"
    )]
    let start = Instant::now();
    let k = cluster.len();
    let kprimes: Vec<usize> = match cfg.kprime {
        KprimeMode::Sweep => (1..=k.min(g.node_count())).collect(),
        KprimeMode::Fixed(kp) => vec![kp.clamp(1, k.min(g.node_count()))],
    };

    let step1 = Step1::coarsen(g, kprimes.iter().copied(), &cfg.partition_cfg);
    let solve = Solve::new(g, cluster, cfg, &step1, memo, traced);

    // Innermost ranked lock: taken after any solve-cache lookup has
    // been released.
    let best: Mutex<Option<Attempt>> = Mutex::with_rank(None, parking_lot::ranks::SOLVER_BEST);
    let cap = || {
        let incumbent = best.lock().as_ref().map(|old| old.makespan);
        incumbent.map(|m| placement_cap(m, kprimes.len()))
    };
    let attempt = |kp: usize| {
        if let Some(new) = solve.run_once(kp, &cap) {
            let mut slot = best.lock();
            if slot.as_ref().is_none_or(|old| new.beats(old)) {
                *slot = Some(new);
            }
        }
    };

    let workers = if cfg.parallel && kprimes.len() > INLINE_SWEEP {
        crate::host_cores().min(kprimes.len())
    } else {
        1
    };
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
            #[cfg(test)]
            SPAWNS.set(SPAWNS.get() + 1);
            scope.spawn(drain);
        }
        drain();
    });

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

/// The longest sweep the parallel driver runs on the calling thread
/// alone. A spawn costs about one attempt on a small lease, and lease
/// sweeps of two or three `k'` are where that was measured; longer
/// sweeps get up to one worker per `k'`.
const INLINE_SWEEP: usize = 3;

#[cfg(test)]
thread_local! {
    /// Worker threads the sweeps run on this thread have spawned.
    static SPAWNS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The most an incumbent of makespan `incumbent` can have grown to by
/// the time a sweep over `attempts` values of `k'` places an attempt
/// that read it, plus the slack of that placement: `attempts` rounded
/// additions of `1e-12`, one per replacement ([`Attempt::beats`]).
/// Added one at a time rather than as `attempts as f64 * 1e-12`: near
/// a makespan whose ulp is about `1e-12`, each addition may round up.
fn placement_cap(incumbent: f64, attempts: usize) -> f64 {
    (0..attempts).fold(incumbent, |cap, _| cap + 1e-12)
}

/// What one `k'` produced.
struct Attempt {
    makespan: f64,
    kprime: usize,
    mapping: Mapping,
    /// Present when the sweep is traced.
    trace: Option<StepTrace>,
}

impl Attempt {
    /// Whether this attempt replaces `old` in the result slot. A
    /// smaller makespan wins and a smaller `k'` wins ties, so the
    /// result does not depend on which attempt finishes first — unless
    /// three or more makespans lie within a few `1e-12` of each other:
    /// ties within `1e-12` are not transitive.
    fn beats(&self, old: &Attempt) -> bool {
        self.makespan < old.makespan - 1e-12
            || (self.makespan <= old.makespan + 1e-12 && self.kprime < old.kprime)
    }
}

/// What every attempt of one sweep shares.
struct Solve<'a, 'g> {
    g: &'g Dag,
    cluster: &'a Cluster,
    cfg: &'a DagHetPartConfig,
    step1: &'a Step1,
    memo: &'a ReqMemo<'g>,
    /// `cluster.ids_by_memory_desc()`: Step 2's processor order.
    proc_order: Vec<ProcId>,
    /// Score the block set between the steps.
    traced: bool,
}

impl<'a, 'g> Solve<'a, 'g> {
    fn new(
        g: &'g Dag,
        cluster: &'a Cluster,
        cfg: &'a DagHetPartConfig,
        step1: &'a Step1,
        memo: &'a ReqMemo<'g>,
        traced: bool,
    ) -> Self {
        Self {
            g,
            cluster,
            cfg,
            step1,
            memo,
            proc_order: cluster.ids_by_memory_desc(),
            traced,
        }
    }

    /// One pipeline run with a fixed `k'` on this thread's workspace.
    fn run_once(&self, kprime: usize, cap: &dyn Fn() -> Option<f64>) -> Option<Attempt> {
        with_workspace(|ws| self.run_on(kprime, cap, ws))
    }

    /// One pipeline run with a fixed `k'`: the four steps, spelled out
    /// once, every buffer taken from `ws` and the block set given back
    /// to it. Returns the final makespan and mapping (and, when traced,
    /// how far each step got), or `None` when Step 3 cannot complete
    /// the assignment or when Step 4's lower bound exceeds `cap`, which
    /// is read after Step 3 (`None`: nothing to beat, no bound taken).
    fn run_on(
        &self,
        kprime: usize,
        cap: &dyn Fn() -> Option<f64>,
        ws: &mut Workspace,
    ) -> Option<Attempt> {
        let Self {
            g,
            cluster,
            cfg,
            step1,
            memo,
            ref proc_order,
            traced,
        } = *self;
        let score = |bs: &_| traced.then(|| blockset_makespan(g, bs, cluster));
        // Step 1: heterogeneity-blind acyclic partitioning.
        let bs = step1.blocks_in(kprime, memo, ws);
        let blocks_after_partition = bs.len();
        // Step 2: memory-aware assignment (may split blocks).
        let mut bs = steps::assign::biggest_assign_memo(
            g,
            cluster,
            proc_order,
            bs,
            &cfg.partition_cfg,
            memo,
            ws,
        );
        let attempt = 'attempt: {
            let blocks_after_assign = bs.len();
            let unassigned_after_assign = traced.then(|| bs.unassigned().len());
            let estimated_after_assign = score(&bs);
            // Step 3: merge unassigned blocks, makespan-guided.
            let merged = steps::merge::merge_unassigned_memo(
                g,
                cluster,
                &mut bs,
                cfg.enable_triple_merge,
                memo,
                ws,
            );
            if merged.is_err() {
                break 'attempt None;
            }
            // Step 4: local search. It moves blocks between processors and
            // leaves the quotient as it is: one serves both sub-steps, the
            // bound and every makespan from here on.
            let step4 = &mut ws.step4;
            step4.rebuild(g, cluster, &bs);
            if cap().is_some_and(|cap| step4.lower_bound(cluster).is_some_and(|b| b > cap)) {
                break 'attempt None;
            }
            let after_merge = traced.then(|| step4.makespan());
            if cfg.enable_swaps {
                step4.swap_blocks(cluster, &mut bs, memo);
            }
            let after_swaps = traced.then(|| step4.makespan());
            if cfg.enable_idle_moves {
                step4.idle_moves(cluster, &mut bs, memo);
            }
            let makespan = step4.makespan();
            let trace = match (
                unassigned_after_assign,
                estimated_after_assign,
                after_merge,
                after_swaps,
            ) {
                (
                    Some(unassigned_after_assign),
                    Some(estimated_after_assign),
                    Some(after_merge),
                    Some(after_swaps),
                ) => Some(StepTrace {
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
        };
        ws.blocks = bs.recycle(&mut ws.pool);
        attempt
    }
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
        assert_same(&seq, &par);
    }

    /// Equal makespan bits, `k'` and mapping.
    fn assert_same(got: &MappingResult, want: &MappingResult) {
        assert_eq!(got.makespan.to_bits(), want.makespan.to_bits());
        assert_eq!(got.kprime, want.kprime);
        assert_eq!(got.mapping.partition, want.mapping.partition);
        assert_eq!(got.mapping.proc_of_block, want.mapping.proc_of_block);
    }

    /// The sweep without the lower bound's pruning and without reused
    /// buffers: every `k'` runs to completion, each attempt on a
    /// workspace of its own, on one thread, largest first, under the
    /// slot rule of [`Attempt::beats`]. Holds every completed attempt to
    /// its own bound — capped at the makespan Step 4 ends at, the
    /// attempt is not pruned — and returns, with the result, how many
    /// attempts the sequential sweep prunes.
    fn exhaustive(
        g: &Dag,
        cluster: &Cluster,
        cfg: &DagHetPartConfig,
    ) -> (Result<MappingResult, SchedError>, usize) {
        if g.is_empty() || cluster.is_empty() {
            return (Err(SchedError::NoSolution), 0);
        }
        let kprimes: Vec<usize> = match cfg.kprime {
            KprimeMode::Sweep => (1..=cluster.len().min(g.node_count())).collect(),
            KprimeMode::Fixed(kp) => vec![kp.clamp(1, cluster.len().min(g.node_count()))],
        };
        let memo = ReqMemo::new(g);
        let step1 = Step1::coarsen(g, kprimes.iter().copied(), &cfg.partition_cfg);
        let solve = Solve::new(g, cluster, cfg, &step1, &memo, false);
        let fresh =
            |kp: usize, cap: Option<f64>| solve.run_on(kp, &|| cap, &mut Workspace::default());
        let mut best: Option<Attempt> = None;
        let mut prunable = 0;
        for &kp in kprimes.iter().rev() {
            let Some(new) = fresh(kp, None) else {
                continue;
            };
            let own = new.makespan;
            assert!(
                fresh(kp, Some(own)).is_some(),
                "k'={kp}: the bound exceeds the final makespan {own}"
            );
            if let Some(cap) = best
                .as_ref()
                .map(|old| placement_cap(old.makespan, kprimes.len()))
            {
                prunable += fresh(kp, Some(cap)).is_none() as usize;
            }
            if best.as_ref().is_none_or(|old| new.beats(old)) {
                best = Some(new);
            }
        }
        let result = best
            .ok_or(SchedError::NoSolution)
            .map(|best| MappingResult {
                mapping: best.mapping,
                makespan: best.makespan,
                kprime: best.kprime,
                elapsed: std::time::Duration::ZERO,
            });
        (result, prunable)
    }

    /// Both drivers against [`exhaustive`]: the same outcome, to the
    /// bit. Returns the attempts the sequential sweep prunes.
    fn check_against_exhaustive(g: &Dag, cluster: &Cluster) -> usize {
        let (want, prunable) = exhaustive(g, cluster, &DagHetPartConfig::default());
        for parallel in [false, true] {
            let cfg = DagHetPartConfig {
                parallel,
                ..DagHetPartConfig::default()
            };
            match (dag_het_part(g, cluster, &cfg), &want) {
                (Ok(got), Ok(want)) => assert_same(&got, want),
                (got, want) => assert_eq!(got.err(), want.clone().err(), "parallel={parallel}"),
            }
        }
        prunable
    }

    /// A simulated workflow on `base` fitted to it at 1.05.
    fn fitted(
        family: dhp_wfgen::Family,
        tasks: usize,
        seed: u64,
        base: &Cluster,
    ) -> (Dag, Cluster) {
        let g = std::sync::Arc::unwrap_or_clone(
            dhp_wfgen::WorkflowInstance::simulated(family, tasks, seed).graph,
        );
        let cluster = crate::fitting::scale_cluster_with_headroom(&g, base, 1.05);
        (g, cluster)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        /// Pruning moves no winner: both drivers end where every `k'`
        /// run to completion ends.
        #[test]
        fn pruning_moves_no_winner(
            family in proptest::sample::select(dhp_wfgen::Family::ALL.to_vec()),
            tasks in 8usize..=60,
            seed in proptest::strategy::any::<u64>(),
            base in 0usize..3,
        ) {
            let base = [
                configs::default_cluster(),
                configs::small_cluster(),
                configs::less_het_cluster(),
            ][base]
                .clone();
            let (g, cluster) = fitted(family, tasks, seed, &base);
            check_against_exhaustive(&g, &cluster);
        }
    }

    /// The pruning is not inert: on a wide workflow about a third of a
    /// sequential sweep's attempts lose to the incumbent before Step 4.
    #[test]
    fn the_bound_prunes_attempts_that_cannot_win() {
        let (g, cluster) = fitted(
            dhp_wfgen::Family::Blast,
            200,
            17,
            &configs::default_cluster(),
        );
        let prunable = check_against_exhaustive(&g, &cluster);
        assert!(prunable >= 10, "{prunable} of 36 attempts pruned");
        // A traced sweep prunes too, and traces the same winner.
        let cfg = DagHetPartConfig::default();
        let (traced, trace) = dag_het_part_traced(&g, &cluster, &cfg).unwrap();
        assert_same(&traced, &dag_het_part(&g, &cluster, &cfg).unwrap());
        assert_eq!(trace.kprime, traced.kprime);
        assert_eq!(trace.after_idle_moves.to_bits(), traced.makespan.to_bits());
    }

    /// Where the bound's premises fail — a NaN or a negative task work,
    /// a processor of speed 0 — both drivers still end where the
    /// exhaustive sweep does. Every quotient has the block of the
    /// hostile task, so no attempt gets a bound and none is pruned; the
    /// processors of speed 0 break the premises only of the attempts
    /// that use them.
    #[test]
    fn the_bound_steps_aside_on_hostile_numerics() {
        let (g, cluster) = fitted(
            dhp_wfgen::Family::Genome,
            60,
            17,
            &configs::default_cluster(),
        );
        let mut nan = g.clone();
        nan.node_mut(dhp_dag::NodeId(5)).work = f64::NAN;
        assert_eq!(check_against_exhaustive(&nan, &cluster), 0);
        let mut negative = g.clone();
        negative.node_mut(dhp_dag::NodeId(5)).work = -1e9;
        assert_eq!(check_against_exhaustive(&negative, &cluster), 0);
        let stalled = Cluster::new(
            cluster
                .proc_ids()
                .map(|p| Processor {
                    speed: if p.0 % 3 == 0 { 0.0 } else { cluster.speed(p) },
                    ..cluster.proc(p).clone()
                })
                .collect(),
            cluster.bandwidth,
        );
        check_against_exhaustive(&g, &stalled);
    }

    /// A sweep of two or three `k'` runs on the calling thread alone;
    /// a longer one gets up to one worker per `k'`.
    #[test]
    fn a_short_sweep_spawns_no_worker() {
        let g = builder::gnp_dag_weighted(60, 0.08, 3);
        let spawns = |k: usize| {
            SPAWNS.set(0);
            dag_het_part(&g, &ample_het_cluster(&g, k), &DagHetPartConfig::default()).unwrap();
            SPAWNS.get()
        };
        assert_eq!(spawns(2), 0);
        assert_eq!(spawns(3), 0);
        assert_eq!(spawns(4), crate::host_cores().min(4) - 1);
        assert_eq!(spawns(36), crate::host_cores().min(36) - 1);
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
    /// bounds, for the requirement where the bounds do not decide, and
    /// for Step 2's bisections. A memo that never hits fails here
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
        // So do Step 2's bisections, across the sweep's k'.
        let (hits, misses) = memo.split_tally();
        assert!(misses > 0, "premise: the solve splits blocks");
        assert!(
            hits > misses,
            "{hits} hits / {misses} misses: most bisections repeat"
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
        let solve = Solve::new(&g, &cluster, &cfg, &step1, &memo, false);
        let mut solved = 0;
        for kprime in 1..=cluster.len() {
            let fixed = DagHetPartConfig {
                kprime: KprimeMode::Fixed(kprime),
                ..cfg.clone()
            };
            let alone = dag_het_part(&g, &cluster, &fixed).ok();
            let shared = solve.run_once(kprime, &|| None);
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

    /// A thread's workspace carries nothing from one attempt into the
    /// next: a solve on a fresh thread, and one on a thread that has
    /// just solved a larger, differently shaped workflow on another
    /// cluster — one sweep that finds a mapping and one whose attempts
    /// fail in Step 3 — both end where [`exhaustive`], which gives each
    /// attempt a workspace of its own, ends, to the bit, for both
    /// drivers.
    fn check_history_independence(g: &Dag, cluster: &Cluster, dirty: &[(Dag, Cluster)]) {
        let (want, _) = exhaustive(g, cluster, &DagHetPartConfig::default());
        for parallel in [false, true] {
            let cfg = DagHetPartConfig {
                parallel,
                ..DagHetPartConfig::default()
            };
            let solve = || dag_het_part(g, cluster, &cfg);
            let (fresh, reused) = std::thread::scope(|scope| {
                let fresh = scope.spawn(solve);
                let reused = scope.spawn(|| {
                    for (g, cluster) in dirty {
                        let _ = dag_het_part(g, cluster, &cfg);
                    }
                    solve()
                });
                (fresh.join(), reused.join())
            });
            let (Ok(fresh), Ok(reused)) = (fresh, reused) else {
                panic!("a solve panicked");
            };
            for got in [fresh, reused] {
                match (got, &want) {
                    (Ok(got), Ok(want)) => assert_same(&got, want),
                    (got, want) => assert_eq!(got.err(), want.clone().err(), "parallel={parallel}"),
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// Stale scratch moves no output.
        #[test]
        fn a_solve_does_not_depend_on_what_its_thread_solved_before(
            family in proptest::sample::select(dhp_wfgen::Family::ALL.to_vec()),
            tasks in 8usize..=60,
            seed in proptest::strategy::any::<u64>(),
            base in 0usize..3,
        ) {
            let bases = [
                configs::default_cluster(),
                configs::small_cluster(),
                configs::less_het_cluster(),
            ];
            let (g, cluster) = fitted(family, tasks, seed, &bases[base]);
            // Larger, of another family, on the other clusters: fitted
            // (mapped, many blocks) and at a fifth of that memory
            // (attempts fail in Step 3).
            let other = dhp_wfgen::Family::ALL[(family as usize + 3) % dhp_wfgen::Family::ALL.len()];
            let (big, roomy) = fitted(other, tasks + 90, seed ^ 0x5eed, &bases[(base + 1) % 3]);
            let tight = Cluster::new(
                roomy
                    .proc_ids()
                    .map(|p| Processor::new(format!("t{}", p.0), roomy.speed(p), roomy.memory(p) / 5.0))
                    .collect(),
                roomy.bandwidth * 0.5,
            );
            check_history_independence(&g, &cluster, &[(big.clone(), roomy), (big, tight)]);
        }
    }

    /// A repeated attempt — the same `k'` on the same memo, on a thread
    /// that has made it twice — allocates exactly what its mapping
    /// holds (the partition's block array and the processor table) when
    /// it finds one, and nothing when it does not. (Twice: Step 3 swaps
    /// its two quotient buffers on every merge, so after an odd number
    /// of merges the next attempt builds into the other one.)
    #[test]
    fn a_repeated_attempt_allocates_only_its_mapping() {
        use crate::alloc_tests::allocations_in;
        let (mut found, mut failed) = (0, 0);
        for family in dhp_wfgen::Family::ALL {
            let (g, cluster) = fitted(family, 48, 17, &configs::default_cluster());
            let cfg = DagHetPartConfig::default();
            let memo = ReqMemo::new(&g);
            let step1 = Step1::coarsen(&g, 1..=cluster.len(), &cfg.partition_cfg);
            let solve = Solve::new(&g, &cluster, &cfg, &step1, &memo, false);
            for kprime in [1, 2, 5, 12, 24, 36] {
                solve.run_once(kprime, &|| None);
                solve.run_once(kprime, &|| None);
                let (attempt, allocations) = allocations_in(|| solve.run_once(kprime, &|| None));
                let mapping = attempt.map(|a| a.mapping);
                let (_, held) = allocations_in(|| mapping.clone());
                assert_eq!(allocations, held, "{family:?} k'={kprime}");
                match mapping {
                    Some(_) => found += 1,
                    None => failed += 1,
                }
            }
        }
        assert!(found > 0 && failed > 0, "{found} found, {failed} failed");
    }
}
