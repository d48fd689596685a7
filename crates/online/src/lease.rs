//! The lease lifecycle: grant construction, commitment into engine
//! state, the escalation ladder, and elastic growth.
//!
//! A `Grant` is everything one admitted lease produces — the metrics
//! record, the placement, per-processor busy time, and the absolute
//! per-task schedule elastic growth later splits. `commit_grant`
//! books it into the `ClusterState`; `grow_lease` implements the
//! elastic re-solve of a running workflow's suffix onto freed
//! processors (driven by `run_growth` at completion events whose
//! freed processors would otherwise idle).

use crate::admission::{admission_passes, head_fits_at, head_reservation_cached, BACKFILL_DEPTH};
use crate::engine::OnlineConfig;
use crate::report::WorkflowRecord;
use crate::state::{ClusterState, InService, Pending, Placement, Regrow};
use dhp_core::mapping::Mapping;
use dhp_core::metrics::MappingResult;
use dhp_core::partial::{remap_to_parent, CacheView, SimOutcome};
use dhp_platform::{ProcId, SubCluster};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Runs the discrete-event simulator plus its timeline and packs the
/// outcome in lease-local processor ids — the compute closure of every
/// sim-cache probe, so one key always maps to one full [`SimOutcome`]
/// regardless of which call site filled it.
pub(crate) fn simulate_outcome(
    g: &dhp_dag::Dag,
    sub: &SubCluster,
    mapping: &Mapping,
) -> SimOutcome {
    let sim = dhp_sim::simulate(g, sub.cluster(), mapping);
    let tl = dhp_sim::timeline(g, sub.cluster(), mapping, &sim);
    SimOutcome {
        makespan: sim.makespan,
        task_start: sim.task_start,
        task_finish: sim.task_finish,
        lanes: tl
            .lanes
            .iter()
            .map(|lane| (lane.proc.0, lane.busy))
            .collect(),
    }
}

/// Everything a granted lease produces: the metrics record, the
/// placement, per-processor busy time, and the absolute per-task
/// schedule elastic growth splits at.
pub(crate) struct Grant {
    pub(crate) record: WorkflowRecord,
    pub(crate) placement: Placement,
    /// Per-processor busy time (global ids, one entry per lease
    /// processor, in lease-carve order — not sorted).
    pub(crate) busy: Vec<(ProcId, f64)>,
    /// Absolute per-task start instants under the admitted schedule.
    pub(crate) task_start: Vec<f64>,
    /// Absolute per-task finish instants under the admitted schedule.
    pub(crate) task_finish: Vec<f64>,
    /// Global processor of every task under the admitted schedule.
    pub(crate) task_proc: Vec<ProcId>,
}

impl Grant {
    /// Assembles the grant of a committing candidate from its solve
    /// and the simulated run of it: the virtual clock advances by the
    /// *simulated* makespan, and per-processor busy time feeds fleet
    /// utilisation. `lease` holds the leased parent ids in carve order
    /// (the lease-local ids of `local` and `sim` index into it). Both
    /// outcomes come memoized from the admission probe, which has
    /// already decided the candidate commits; this is the first place
    /// the mapping is translated into parent ids.
    pub(crate) fn build(
        cand: &Pending,
        lease: &[ProcId],
        local: &MappingResult,
        sim: Arc<SimOutcome>,
        clock: f64,
        cluster_id: Option<usize>,
    ) -> Grant {
        let g = &cand.submission.instance.graph;
        let busy: Vec<(ProcId, f64)> = sim
            .lanes
            .iter()
            .map(|&(p, b)| (lease[p as usize], b))
            .collect();
        // The absolute per-task schedule: elastic growth later splits it
        // into the committed prefix and the re-solvable suffix.
        let task_start: Vec<f64> = sim.task_start.iter().map(|t| clock + t).collect();
        let task_finish: Vec<f64> = sim.task_finish.iter().map(|t| clock + t).collect();
        let task_proc: Vec<ProcId> = g
            .node_ids()
            .map(|u| {
                let b = local.mapping.partition.block_of(u).idx();
                let p = local.mapping.proc_of_block[b]
                    .unwrap_or_else(|| unreachable!("the solver maps every block"));
                lease[p.idx()]
            })
            .collect();
        let start = clock;
        let finish = clock + sim.makespan;
        let service = sim.makespan;
        let record = WorkflowRecord {
            id: cand.id,
            name: cand.submission.instance.name.clone(),
            tasks: g.node_count(),
            arrival: cand.arrival,
            start,
            finish,
            wait: start - cand.arrival,
            service,
            response: finish - cand.arrival,
            slowdown: if service > 0.0 {
                (finish - cand.arrival) / service
            } else {
                1.0
            },
            // Stretch and its dedicated-cluster denominator are filled in
            // by the deferred baseline batch at report time (so discarded
            // backfill grants never pay for a whole-cluster solve, and
            // admitted ones never pay for it on the critical path).
            stretch: 0.0,
            baseline_makespan: 0.0,
            model_makespan: local.makespan,
            lease: lease.iter().map(|p| p.0).collect(),
            blocks: local.mapping.num_blocks(),
            lease_grown: false,
            lease_shrunk: false,
            cluster_id,
            requeues: cand.requeues,
        };
        let placement = Placement {
            submission: Arc::clone(&cand.submission),
            mapping: remap_to_parent(lease, &local.mapping),
            lease: lease.to_vec(),
            start,
            finish,
            regrow: Vec::new(),
        };
        Grant {
            record,
            placement,
            busy,
            task_start,
            task_finish,
            task_proc,
        }
    }
}

/// Books a granted lease into the engine state: marks the lease busy,
/// credits busy time, schedules the completion event and stores the
/// in-service bookkeeping. Returns the aggregate speed of the leased
/// processors so the admission pass can refresh its free-speed lower
/// bound (the stale-`free_speed` fix: after a same-pass grant the bound
/// must filter against the shrunken free set, not the pass-entry one).
pub(crate) fn commit_grant(grant: Grant, fingerprint: u64, state: &mut ClusterState) -> f64 {
    let Grant {
        record,
        placement,
        busy,
        task_start,
        task_finish,
        task_proc,
    } = grant;
    // The dedicated-cluster baseline (stretch denominator) is NOT
    // solved here: admission only notes the fingerprint, and the solves
    // drain as one deduplicated parallel batch at report time.
    let mut lease_speed = 0.0;
    for &p in &placement.lease {
        debug_assert!(state.free[p.idx()]);
        state.free[p.idx()] = false;
        lease_speed += state.cluster.speed(p);
    }
    state.free_count -= placement.lease.len();
    for (p, b) in &busy {
        state.busy_time[p.idx()] += *b;
    }
    let slot = state.in_service.len();
    let seq = state.events.push(placement.finish, slot);
    state.in_service.push(Some(InService {
        record,
        placement,
        fingerprint,
        live_seq: seq,
        task_start,
        task_finish,
        task_proc,
        busy,
    }));
    state.bump_epoch();
    lease_speed
}

/// The doubling ladder of candidate lease sizes, `target` up to `cap`
/// (all free processors). Escalating instead of jumping straight to
/// "all free processors" keeps one workflow from monopolising the
/// cluster and serialising the fleet; feasibility outranks the sizing
/// cap, so escalation may exceed `max_procs`.
pub(crate) fn escalation_sizes(target: usize, cap: usize) -> impl Iterator<Item = usize> {
    let mut next = Some(target.clamp(1, cap));
    std::iter::from_fn(move || {
        let size = next?;
        next = (size != cap).then(|| (size * 2).min(cap));
        Some(size)
    })
}

/// The elastic-growth step run after the admission passes of an event:
/// freed processors the queue cannot use right now (it is empty or
/// below the threshold) are handed to the running workflow with the
/// most unstarted work — its suffix DAG is re-solved on the grown lease
/// and the placement swapped at the current clock, only when the
/// re-solve genuinely finishes earlier. The decision is deferred while
/// arrivals at this very instant are still un-queued: they get first
/// claim on the freed processors (their iteration runs next, at the
/// same clock). Each successful growth enlists at least one previously
/// free processor, so the loop terminates.
pub(crate) fn run_growth(
    state: &mut ClusterState,
    cfg: &OnlineConfig,
    cache: &CacheView,
    config_hash: u64,
    clock: f64,
    arrivals_pending: bool,
) {
    if let Some(threshold) = cfg.elastic {
        while state.growth_pending
            && !arrivals_pending
            && state.queue_len() < threshold
            && state.free_count > 0
            && grow_lease(state, cfg, cache, config_hash, clock)
        {
            state.lease_grown += 1;
        }
    }
    if !arrivals_pending {
        state.growth_pending = false;
    }
}

/// One elastic-growth attempt: ranks the in-service workflows by
/// unstarted work (ties on id), re-solves the best candidate's suffix
/// DAG on its lease grown by the currently free processors, and swaps
/// the placement when the re-solve finishes strictly earlier *and*
/// enlists at least one previously free processor. The suffix schedule
/// is released only once the committed prefix (running tasks included)
/// has drained, so the swap never overlaps already-running tasks.
/// Under a backfilling policy a blocked queue head keeps its promise:
/// a swap whose grown lease stays busy past the head's reservation is
/// taken only if the head remains placeable at the reservation instant
/// without it. At most [`BACKFILL_DEPTH`] candidates are re-solved per
/// attempt (the admission path's probe-bound discipline). Returns
/// whether a swap happened.
fn grow_lease(
    state: &mut ClusterState,
    cfg: &OnlineConfig,
    cache: &CacheView,
    config_hash: u64,
    clock: f64,
) -> bool {
    let mut cands: Vec<(usize, f64, usize)> = state
        .in_service
        .iter()
        .enumerate()
        .filter_map(|(slot, svc)| {
            let svc = svc.as_ref()?;
            let g = &svc.placement.submission.instance.graph;
            let remaining: f64 = g
                .node_ids()
                .filter(|u| svc.task_start[u.idx()] > clock + 1e-9)
                .map(|u| g.node(u).work)
                .sum();
            (remaining > 0.0).then_some((slot, remaining, svc.record.id))
        })
        .collect();
    cands.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.2.cmp(&b.2)));
    // Bound the solver probes per attempt, mirroring the admission
    // pass's backfill window — a failed improvement check usually paid
    // a full suffix solve (suffix shapes are mostly unique, so the
    // cache rarely answers them).
    cands.truncate(BACKFILL_DEPTH);
    let free_ids: Vec<ProcId> = state
        .mem_order
        .iter()
        .copied()
        .filter(|p| state.free[p.idx()])
        .collect();
    // The head guard: with a backfilling policy and a blocked head
    // waiting, the head's current reservation is computed once, and
    // every swap below must honour it — elastic growth must not seize
    // the processors the head's promise assumed would be free.
    let head_guard: Option<(&Pending, f64)> = match state.queue.get(state.first_live()) {
        Some(head) if cfg.policy.backfills() => {
            let resv = head_reservation_cached(
                &state.cluster,
                &state.mem_order,
                &state.free,
                &state.events,
                &state.in_service,
                head,
                cfg,
                cache,
                config_hash,
                state.epoch,
                &mut state.resv_cache,
                &mut state.scratch,
            );
            resv.is_finite().then_some((head, resv))
        }
        _ => None,
    };

    for (slot, _, _) in cands {
        let svc = state.in_service[slot]
            .as_ref()
            .unwrap_or_else(|| unreachable!("candidates are ranked over live slots"));
        let g = &svc.placement.submission.instance.graph;
        let suffix: Vec<dhp_dag::NodeId> = g
            .node_ids()
            .filter(|u| svc.task_start[u.idx()] > clock + 1e-9)
            .collect();
        // The committed prefix drains first; the suffix schedule is
        // released at its last finish (cross-boundary files are local
        // by then — see `solve_suffix`).
        let release = g
            .node_ids()
            .filter(|u| svc.task_start[u.idx()] <= clock + 1e-9)
            .map(|u| svc.task_finish[u.idx()])
            .fold(clock, f64::max);
        let union = state
            .cluster
            .subcluster(&svc.placement.lease)
            .grown(&state.cluster, &free_ids);
        let Ok(s) = dhp_core::partial::solve_suffix(
            g,
            &suffix,
            &union,
            cfg.algorithm,
            &cfg.solver,
            cache,
            config_hash,
        ) else {
            continue;
        };
        let sim = cache.sim_outcome_keyed(s.key, || {
            simulate_outcome(&s.dag, &union, &s.schedule.local.mapping)
        });
        let new_finish = release + sim.makespan;
        if new_finish >= svc.record.finish - 1e-9 {
            continue; // no genuine win on the grown lease
        }
        // Claim only the processors the suffix actually uses; a swap
        // that enlists no new processor is not a growth (and skipping
        // it bounds the growth loop by the free count).
        let old_lease: HashSet<u32> = svc.placement.lease.iter().map(|p| p.0).collect();
        let mut suffix_proc: Vec<ProcId> = Vec::with_capacity(s.back.len());
        let mut used_new: Vec<ProcId> = Vec::new();
        for u in s.dag.node_ids() {
            let b = s.schedule.local.mapping.partition.block_of(u).idx();
            let p = union.to_global(
                s.schedule.local.mapping.proc_of_block[b]
                    .unwrap_or_else(|| unreachable!("the solver maps every block")),
            );
            suffix_proc.push(p);
            if !old_lease.contains(&p.0) && !used_new.contains(&p) {
                used_new.push(p);
            }
        }
        if used_new.is_empty() {
            continue;
        }
        // Honour the blocked head's reservation. A swap finishing by
        // the reservation returns everything it holds in time and
        // cannot delay the head; one running past it must leave the
        // head placeable at the reservation instant on what remains —
        // the current free set minus the newly claimed processors,
        // plus every other live completion up to the reservation (the
        // candidate's own old completion no longer happens).
        if let Some((head, resv)) = head_guard {
            if new_finish > resv + 1e-9
                && !head_fits_at(
                    &state.cluster,
                    &state.mem_order,
                    &state.free,
                    &used_new,
                    Some(slot),
                    &state.events,
                    &state.in_service,
                    head,
                    cfg,
                    cache,
                    config_hash,
                    resv,
                    &mut state.scratch,
                )
            {
                continue;
            }
        }

        // ---- commit the swap
        let svc = state.in_service[slot]
            .as_mut()
            .unwrap_or_else(|| unreachable!("candidates are ranked over live slots"));
        for (i, &orig) in s.back.iter().enumerate() {
            svc.task_start[orig.idx()] = release + sim.task_start[i];
            svc.task_finish[orig.idx()] = release + sim.task_finish[i];
            svc.task_proc[orig.idx()] = suffix_proc[i];
        }
        // Replace this workflow's busy-time contribution: subtract
        // exactly what was credited, re-credit the swapped schedule.
        for (p, b) in &svc.busy {
            state.busy_time[p.idx()] -= *b;
        }
        let g = &svc.placement.submission.instance.graph;
        let mut by_proc: HashMap<ProcId, f64> = HashMap::new();
        for u in g.node_ids() {
            *by_proc.entry(svc.task_proc[u.idx()]).or_insert(0.0) +=
                svc.task_finish[u.idx()] - svc.task_start[u.idx()];
        }
        let mut busy: Vec<(ProcId, f64)> = by_proc.into_iter().collect();
        busy.sort_by_key(|&(p, _)| p);
        for (p, b) in &busy {
            state.busy_time[p.idx()] += *b;
        }
        svc.busy = busy;
        // The grown lease, in the canonical order of the union view.
        let lease: Vec<ProcId> = union
            .global_ids()
            .iter()
            .copied()
            .filter(|p| old_lease.contains(&p.0) || used_new.contains(p))
            .collect();
        for &p in &used_new {
            debug_assert!(state.free[p.idx()]);
            state.free[p.idx()] = false;
        }
        state.free_count -= used_new.len();
        // Re-schedule the completion; the old heap entry goes stale.
        let seq = state.events.push(new_finish, slot);
        svc.live_seq = seq;
        let r = &mut svc.record;
        r.finish = new_finish;
        r.service = new_finish - r.start;
        r.response = new_finish - r.arrival;
        r.slowdown = if r.service > 0.0 {
            r.response / r.service
        } else {
            1.0
        };
        r.lease = lease.iter().map(|p| p.0).collect();
        r.lease_grown = true;
        svc.placement.finish = new_finish;
        svc.placement.lease = lease;
        svc.placement.regrow.push(Regrow {
            at: release,
            suffix: s.back,
            suffix_dag: s.dag,
            mapping: s.schedule.global,
        });
        // The free set, the heap, and the in-service table all just
        // changed: move the reservation token's epoch on.
        state.epoch = state.epoch.wrapping_add(1);
        return true;
    }
    false
}

/// The elastic-shrink step (`--elastic-shrink T`), the dual of
/// [`run_growth`]: when an event leaves at least `T` workflows queued,
/// reclaim processors from running workflows — re-solving their
/// unstarted suffixes on reduced leases — and immediately offer the
/// released processors to the admission queue. Skipped inside the
/// growth regime (queue shallower than the `--elastic` threshold):
/// freed capacity there belongs to growth, and alternating the two at
/// one event would thrash. Each successful shrink releases at least
/// one processor and re-runs the admission passes, so the loop is
/// bounded by the in-service droppable processors.
pub(crate) fn run_shrink(
    state: &mut ClusterState,
    cfg: &OnlineConfig,
    cache: &CacheView,
    config_hash: u64,
    clock: f64,
) {
    let Some(threshold) = cfg.elastic_shrink else {
        return;
    };
    if cfg
        .elastic
        .is_some_and(|grow_at| state.queue_len() < grow_at)
    {
        return;
    }
    while state.queue_len() >= threshold.max(1)
        && shrink_lease(state, cfg, cache, config_hash, clock)
    {
        state.lease_shrunk += 1;
        admission_passes(state, cfg, cache, config_hash, clock);
    }
}

/// One elastic-shrink attempt: ranks the in-service workflows by
/// unstarted work (most first, ties on id — the workflow with the most
/// re-solvable suffix yields the most reclaimable capacity), and for
/// the best candidate releases every lease processor hosting no
/// currently running task, re-solving the suffix DAG on the reduced
/// lease. Processors are added back (memory-descending) while the
/// reduced lease cannot memory-fit the suffix. The shrink is taken
/// even when it delays the candidate's own finish — arriving load
/// outranks a running workflow's tail — but a blocked queue head keeps
/// its promise exactly as under growth: a shrink pushing the
/// candidate's completion past the head's reservation is taken only if
/// the head remains placeable at the reservation instant on the
/// post-shrink state. At most [`BACKFILL_DEPTH`] candidates are
/// re-solved per attempt. Returns whether a shrink happened.
fn shrink_lease(
    state: &mut ClusterState,
    cfg: &OnlineConfig,
    cache: &CacheView,
    config_hash: u64,
    clock: f64,
) -> bool {
    let mut cands: Vec<(usize, f64, usize)> = state
        .in_service
        .iter()
        .enumerate()
        .filter_map(|(slot, svc)| {
            let svc = svc.as_ref()?;
            let g = &svc.placement.submission.instance.graph;
            let remaining: f64 = g
                .node_ids()
                .filter(|u| svc.task_start[u.idx()] > clock + 1e-9)
                .map(|u| g.node(u).work)
                .sum();
            (remaining > 0.0 && svc.placement.lease.len() > 1).then_some((
                slot,
                remaining,
                svc.record.id,
            ))
        })
        .collect();
    cands.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.2.cmp(&b.2)));
    cands.truncate(BACKFILL_DEPTH);
    // The head guard, computed once like `grow_lease`'s: a shrink may
    // delay the candidate past the blocked head's reservation only if
    // the head still fits at that instant afterwards.
    let head_guard: Option<(&Pending, f64)> = match state.queue.get(state.first_live()) {
        Some(head) if cfg.policy.backfills() => {
            let resv = head_reservation_cached(
                &state.cluster,
                &state.mem_order,
                &state.free,
                &state.events,
                &state.in_service,
                head,
                cfg,
                cache,
                config_hash,
                state.epoch,
                &mut state.resv_cache,
                &mut state.scratch,
            );
            resv.is_finite().then_some((head, resv))
        }
        _ => None,
    };

    for (slot, _, _) in cands {
        let svc = state.in_service[slot]
            .as_ref()
            .unwrap_or_else(|| unreachable!("candidates are ranked over live slots"));
        let g = &svc.placement.submission.instance.graph;
        let suffix: Vec<dhp_dag::NodeId> = g
            .node_ids()
            .filter(|u| svc.task_start[u.idx()] > clock + 1e-9)
            .collect();
        if suffix.is_empty() {
            continue;
        }
        let release = g
            .node_ids()
            .filter(|u| svc.task_start[u.idx()] <= clock + 1e-9)
            .map(|u| svc.task_finish[u.idx()])
            .fold(clock, f64::max);
        // A lease processor hosting a currently running task cannot be
        // released before that task drains; every other one can go —
        // finished prefix tasks no longer occupy it, and unstarted
        // suffix tasks are about to be re-solved elsewhere.
        let running: HashSet<u32> = g
            .node_ids()
            .filter(|u| {
                svc.task_start[u.idx()] <= clock + 1e-9 && svc.task_finish[u.idx()] > clock + 1e-9
            })
            .map(|u| svc.task_proc[u.idx()].0)
            .collect();
        let suffix_req = suffix
            .iter()
            .map(|&u| g.task_requirement(u))
            .fold(0.0, f64::max);
        // Keep the running processors, then add droppables back —
        // biggest memory first — until the reduced lease can memory-fit
        // the suffix (feasibility is monotone in that choice; the
        // solver below still has the final word).
        let mut keep: Vec<ProcId> = svc
            .placement
            .lease
            .iter()
            .copied()
            .filter(|p| running.contains(&p.0))
            .collect();
        let mut droppable: Vec<ProcId> = svc
            .placement
            .lease
            .iter()
            .copied()
            .filter(|p| !running.contains(&p.0))
            .collect();
        droppable.sort_by(|a, b| {
            state
                .cluster
                .memory(*b)
                .total_cmp(&state.cluster.memory(*a))
                .then(a.cmp(b))
        });
        let mut kept_max_mem = keep
            .iter()
            .map(|&p| state.cluster.memory(p))
            .fold(0.0, f64::max);
        let mut released: Vec<ProcId> = Vec::new();
        for p in droppable {
            if kept_max_mem < suffix_req * (1.0 - 1e-9) {
                kept_max_mem = kept_max_mem.max(state.cluster.memory(p));
                keep.push(p);
            } else {
                released.push(p);
            }
        }
        if released.is_empty() {
            continue;
        }
        // The reduced lease in the old lease's carve order.
        let reduced: Vec<ProcId> = svc
            .placement
            .lease
            .iter()
            .copied()
            .filter(|p| keep.contains(p))
            .collect();
        let sub = state.cluster.subcluster(&reduced);
        let Ok(s) = dhp_core::partial::solve_suffix(
            g,
            &suffix,
            &sub,
            cfg.algorithm,
            &cfg.solver,
            cache,
            config_hash,
        ) else {
            continue;
        };
        let sim = cache.sim_outcome_keyed(s.key, || {
            simulate_outcome(&s.dag, &sub, &s.schedule.local.mapping)
        });
        let new_finish = release + sim.makespan;
        // Honour the blocked head's reservation: risky only when the
        // candidate's completion moves from before the reservation to
        // after it (the reservation's replay assumed the whole old
        // lease free at the old finish). The hypothetical free set has
        // the released processors already free and the candidate's own
        // completion skipped.
        if let Some((head, resv)) = head_guard {
            let old_finish = state.in_service[slot]
                .as_ref()
                .unwrap_or_else(|| unreachable!("candidates are ranked over live slots"))
                .record
                .finish;
            if old_finish <= resv + 1e-9 && new_finish > resv + 1e-9 {
                let mut hyp_free = state.free.clone();
                for &p in &released {
                    hyp_free[p.idx()] = true;
                }
                if !head_fits_at(
                    &state.cluster,
                    &state.mem_order,
                    &hyp_free,
                    &[],
                    Some(slot),
                    &state.events,
                    &state.in_service,
                    head,
                    cfg,
                    cache,
                    config_hash,
                    resv,
                    &mut state.scratch,
                ) {
                    continue;
                }
            }
        }

        // ---- commit the shrink (mirrors `grow_lease`'s swap)
        let suffix_proc: Vec<ProcId> = s
            .dag
            .node_ids()
            .map(|u| {
                let b = s.schedule.local.mapping.partition.block_of(u).idx();
                sub.to_global(
                    s.schedule.local.mapping.proc_of_block[b]
                        .unwrap_or_else(|| unreachable!("the solver maps every block")),
                )
            })
            .collect();
        let svc = state.in_service[slot]
            .as_mut()
            .unwrap_or_else(|| unreachable!("candidates are ranked over live slots"));
        for (i, &orig) in s.back.iter().enumerate() {
            svc.task_start[orig.idx()] = release + sim.task_start[i];
            svc.task_finish[orig.idx()] = release + sim.task_finish[i];
            svc.task_proc[orig.idx()] = suffix_proc[i];
        }
        for (p, b) in &svc.busy {
            state.busy_time[p.idx()] -= *b;
        }
        let g = &svc.placement.submission.instance.graph;
        let mut by_proc: HashMap<ProcId, f64> = HashMap::new();
        for u in g.node_ids() {
            *by_proc.entry(svc.task_proc[u.idx()]).or_insert(0.0) +=
                svc.task_finish[u.idx()] - svc.task_start[u.idx()];
        }
        let mut busy: Vec<(ProcId, f64)> = by_proc.into_iter().collect();
        busy.sort_by_key(|&(p, _)| p);
        for (p, b) in &busy {
            state.busy_time[p.idx()] += *b;
        }
        svc.busy = busy;
        for &p in &released {
            debug_assert!(!state.free[p.idx()]);
            state.free[p.idx()] = true;
        }
        state.free_count += released.len();
        let seq = state.events.push(new_finish, slot);
        svc.live_seq = seq;
        let r = &mut svc.record;
        r.finish = new_finish;
        r.service = new_finish - r.start;
        r.response = new_finish - r.arrival;
        r.slowdown = if r.service > 0.0 {
            r.response / r.service
        } else {
            1.0
        };
        r.lease = reduced.iter().map(|p| p.0).collect();
        r.lease_shrunk = true;
        svc.placement.finish = new_finish;
        svc.placement.lease = reduced;
        svc.placement.regrow.push(Regrow {
            at: release,
            suffix: s.back,
            suffix_dag: s.dag,
            mapping: s.schedule.global,
        });
        // The free set, the heap, and the in-service table all just
        // changed: move the reservation token's epoch on.
        state.epoch = state.epoch.wrapping_add(1);
        return true;
    }
    false
}
