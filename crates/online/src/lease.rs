//! The lease lifecycle: grant construction, commitment into engine
//! state, the escalation ladder, and elastic resizing.
//!
//! A `Grant` is everything one admitted lease produces — the metrics
//! record, the placement, per-processor busy time, and the absolute
//! per-task schedule an elastic resize later splits. `commit_grant`
//! books it into the `ClusterState`. An elastic resize re-solves a
//! running workflow's unstarted suffix on a different lease: grown by
//! freed processors the queue cannot use (`run_growth`, at completion
//! events), or shrunk to hand processors to a deep queue
//! (`run_shrink`). Both share one path — the candidate ranking, the
//! blocked head's guard, the suffix split and the commit — and differ
//! only in the lease they re-solve on, the test that accepts the swap,
//! and when the head guard applies.

use crate::admission::{admission_passes, head_fits_at, head_reservation, BACKFILL_DEPTH};
use crate::cache::{remap_to_parent, solve_suffix, CacheView, SimOutcome, SuffixSolve};
use crate::engine::OnlineConfig;
use crate::report::WorkflowRecord;
use crate::state::{ClusterState, InService, Pending, Placement, Regrow};
use dhp_core::mapping::Mapping;
use dhp_core::metrics::MappingResult;
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
    let lease_speed = state.free.take(&placement.lease);
    for (p, b) in &busy {
        state.busy_time[p.idx()] += *b;
    }
    // The first free slot, or a new one: the table never holds more
    // slots than workflows ever ran at once.
    let slot = match state.in_service.iter().position(Option::is_none) {
        Some(slot) => slot,
        None => {
            state.in_service.push(None);
            state.in_service.len() - 1
        }
    };
    debug_assert!(
        state.in_service.len() <= state.cluster.len(),
        "leases are non-empty and disjoint, so at most one workflow runs per processor"
    );
    let seq = state.events.push(placement.finish, slot);
    state.in_service[slot] = Some(InService {
        record,
        placement,
        fingerprint,
        granted: seq,
        live_seq: seq,
        task_start,
        task_finish,
        task_proc,
        busy,
    });
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
    clock: f64,
    arrivals_pending: bool,
) {
    if let Some(threshold) = cfg.elastic {
        while state.growth_pending
            && !arrivals_pending
            && state.queue.len() < threshold
            && state.free.count() > 0
            && grow_lease(state, cfg, cache, clock)
        {
            state.lease_grown += 1;
        }
    }
    if !arrivals_pending {
        state.growth_pending = false;
    }
}

/// One elastic-growth attempt: re-solves the best candidate's suffix
/// DAG (see [`resize_candidates`]) on its lease grown by the currently
/// free processors, and swaps the placement when the re-solve finishes
/// strictly earlier *and* enlists at least one previously free
/// processor. Under a backfilling policy a blocked queue head keeps its
/// promise: a swap whose grown lease stays busy past the head's
/// reservation is taken only if the head remains placeable at the
/// reservation instant without the processors it claims. Returns
/// whether a swap happened.
fn grow_lease(state: &mut ClusterState, cfg: &OnlineConfig, cache: &CacheView, clock: f64) -> bool {
    let cands = resize_candidates(state, clock, 1);
    let free_ids: Vec<ProcId> = state.free.in_memory_order().collect();
    let guard = head_guard(state, cfg, cache);
    for slot in cands {
        let Some(svc) = state.in_service[slot].as_ref() else {
            unreachable!("candidates are ranked over live slots")
        };
        let g = &svc.placement.submission.instance.graph;
        let (suffix, release_at) = unstarted(svc, clock);
        let union = state
            .cluster
            .subcluster(&svc.placement.lease)
            .grown(&state.cluster, &free_ids);
        let Ok(s) = solve_suffix(g, &suffix, &union, cache) else {
            continue;
        };
        let sim = cache.sim_outcome_keyed(s.key, || {
            simulate_outcome(&s.dag, &union, &s.schedule.local.mapping)
        });
        let new_finish = release_at + sim.makespan;
        if new_finish >= svc.record.finish - 1e-9 {
            continue; // no genuine win on the grown lease
        }
        // Claim only the processors the suffix actually uses; a swap
        // that enlists no new processor is not a growth (and skipping
        // it bounds the growth loop by the free count).
        let old_lease = &svc.placement.lease;
        let mut claim: Vec<ProcId> = Vec::new();
        for p in suffix_procs(&s) {
            if !old_lease.contains(&p) && !claim.contains(&p) {
                claim.push(p);
            }
        }
        if claim.is_empty() {
            continue;
        }
        // The grown lease, in the canonical order of the union view.
        let lease: Vec<ProcId> = union
            .global_ids()
            .iter()
            .copied()
            .filter(|p| old_lease.contains(p) || claim.contains(p))
            .collect();
        // A swap finishing by the reservation returns everything it
        // holds in time; one running past it must leave the head
        // placeable there without the claimed processors.
        if let Some((hq, resv)) = guard {
            if new_finish > resv + 1e-9
                && !head_fits_at(state, hq, &claim, &[], Some(slot), resv, cfg, cache)
            {
                continue;
            }
        }
        commit_resize(state, slot, s, &sim, release_at, lease, &claim, &[]);
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
    clock: f64,
) {
    let Some(threshold) = cfg.elastic_shrink else {
        return;
    };
    if cfg
        .elastic
        .is_some_and(|grow_at| state.queue.len() < grow_at)
    {
        return;
    }
    while state.queue.len() >= threshold.max(1) && shrink_lease(state, cfg, cache, clock) {
        state.lease_shrunk += 1;
        admission_passes(state, cfg, cache, clock);
    }
}

/// One elastic-shrink attempt: for the best candidate with at least
/// two processors (see [`resize_candidates`]), releases every lease
/// processor hosting no currently running task and re-solves the
/// suffix DAG on the reduced lease. Processors are added back
/// (memory-descending) while the reduced lease cannot memory-fit the
/// suffix. The shrink is taken even when it delays the candidate's own
/// finish — arriving load outranks a running workflow's tail — but a
/// blocked queue head keeps its promise: a shrink moving the
/// candidate's completion from before the head's reservation to after
/// it (the reservation's replay assumed the whole old lease free at the
/// old finish) is taken only if the head remains placeable at the
/// reservation instant with the released processors free. Returns
/// whether a shrink happened.
fn shrink_lease(
    state: &mut ClusterState,
    cfg: &OnlineConfig,
    cache: &CacheView,
    clock: f64,
) -> bool {
    let cands = resize_candidates(state, clock, 2);
    let guard = head_guard(state, cfg, cache);
    for slot in cands {
        let Some(svc) = state.in_service[slot].as_ref() else {
            unreachable!("candidates are ranked over live slots")
        };
        let g = &svc.placement.submission.instance.graph;
        let (suffix, release_at) = unstarted(svc, clock);
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
        // Release the other processors, but add them back — biggest
        // memory first — while the kept ones cannot memory-fit the
        // suffix (feasibility is monotone in that choice; the solver
        // below still has the final word).
        let lease = &svc.placement.lease;
        let mem = |p: &ProcId| state.cluster.memory(*p);
        let mut kept_max_mem = lease
            .iter()
            .filter(|p| running.contains(&p.0))
            .map(mem)
            .fold(0.0, f64::max);
        let mut released: Vec<ProcId> = lease
            .iter()
            .copied()
            .filter(|p| !running.contains(&p.0))
            .collect();
        released.sort_by(|a, b| mem(b).total_cmp(&mem(a)).then(a.cmp(b)));
        released.retain(|p| {
            let add_back = kept_max_mem < suffix_req * (1.0 - 1e-9);
            if add_back {
                kept_max_mem = kept_max_mem.max(mem(p));
            }
            !add_back
        });
        if released.is_empty() {
            continue;
        }
        // The reduced lease in the old lease's carve order.
        let reduced: Vec<ProcId> = lease
            .iter()
            .copied()
            .filter(|p| !released.contains(p))
            .collect();
        let sub = state.cluster.subcluster(&reduced);
        let Ok(s) = solve_suffix(g, &suffix, &sub, cache) else {
            continue;
        };
        let sim = cache.sim_outcome_keyed(s.key, || {
            simulate_outcome(&s.dag, &sub, &s.schedule.local.mapping)
        });
        let new_finish = release_at + sim.makespan;
        let old_finish = svc.record.finish;
        if let Some((hq, resv)) = guard {
            if old_finish <= resv + 1e-9
                && new_finish > resv + 1e-9
                && !head_fits_at(state, hq, &[], &released, Some(slot), resv, cfg, cache)
            {
                continue;
            }
        }
        commit_resize(state, slot, s, &sim, release_at, reduced, &[], &released);
        return true;
    }
    false
}

/// The in-service workflows an elastic resize may re-solve, best
/// first: those holding at least `min_lease` processors and some
/// unstarted work, ranked by that work (most first — the workflow with
/// the most re-solvable suffix gains or yields the most), ties on id.
/// At most [`BACKFILL_DEPTH`] are returned, mirroring the admission
/// pass's probe bound: a failed attempt usually paid a full suffix
/// solve (suffix shapes are mostly unique, so the cache rarely answers
/// them).
fn resize_candidates(state: &ClusterState, clock: f64, min_lease: usize) -> Vec<usize> {
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
            (remaining > 0.0 && svc.placement.lease.len() >= min_lease).then_some((
                slot,
                remaining,
                svc.record.id,
            ))
        })
        .collect();
    cands.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.2.cmp(&b.2)));
    cands.truncate(BACKFILL_DEPTH);
    cands.into_iter().map(|(slot, _, _)| slot).collect()
}

/// The head guard of one resize attempt: under a backfilling policy,
/// the blocked queue head's slot and its finite reservation, computed
/// once per attempt — a resize must not seize the processors the
/// head's promise assumed would be free. `None` when nothing is queued,
/// the policy does not backfill, or the head is not placeable even once
/// everything drains.
fn head_guard(
    state: &mut ClusterState,
    cfg: &OnlineConfig,
    cache: &CacheView,
) -> Option<(usize, f64)> {
    if !cfg.policy.backfills() {
        return None;
    }
    let hq = state.queue.first_live()?;
    let resv = head_reservation(state, hq, cfg, cache);
    resv.is_finite().then_some((hq, resv))
}

/// A running workflow's unstarted suffix (tasks starting after `clock`)
/// and the instant its re-solved schedule is released: the last finish
/// of the committed prefix, running tasks included, so the suffix never
/// overlaps them (cross-boundary files are local by then — see
/// `solve_suffix`).
fn unstarted(svc: &InService, clock: f64) -> (Vec<dhp_dag::NodeId>, f64) {
    let g = &svc.placement.submission.instance.graph;
    let suffix = g
        .node_ids()
        .filter(|u| svc.task_start[u.idx()] > clock + 1e-9)
        .collect();
    let release_at = g
        .node_ids()
        .filter(|u| svc.task_start[u.idx()] <= clock + 1e-9)
        .map(|u| svc.task_finish[u.idx()])
        .fold(clock, f64::max);
    (suffix, release_at)
}

/// The parent processor of every suffix task, in suffix-local id order.
fn suffix_procs(s: &SuffixSolve) -> Vec<ProcId> {
    let m = &s.schedule.global;
    s.dag
        .node_ids()
        .map(|u| {
            m.proc_of_block[m.partition.block_of(u).idx()]
                .unwrap_or_else(|| unreachable!("the solver maps every block"))
        })
        .collect()
}

/// Swaps the running workflow in `slot` onto its re-solved suffix `s`,
/// simulated as `sim` and released at `release_at`, on `lease` — which
/// `claim`s processors from the free set (growth) or `release`s
/// processors to it (shrink). The one writer of a resized workflow's
/// state: its task times and processors, its exact busy-time
/// re-credit, the free set, its completion event (the old heap entry
/// goes stale), its record and placement, and the [`Regrow`] entry.
#[allow(clippy::too_many_arguments)]
fn commit_resize(
    state: &mut ClusterState,
    slot: usize,
    s: SuffixSolve,
    sim: &SimOutcome,
    release_at: f64,
    lease: Vec<ProcId>,
    claim: &[ProcId],
    release: &[ProcId],
) {
    let procs = suffix_procs(&s);
    let Some(svc) = state.in_service[slot].as_mut() else {
        unreachable!("candidates are ranked over live slots")
    };
    for (i, &orig) in s.back.iter().enumerate() {
        svc.task_start[orig.idx()] = release_at + sim.task_start[i];
        svc.task_finish[orig.idx()] = release_at + sim.task_finish[i];
        svc.task_proc[orig.idx()] = procs[i];
    }
    // Replace this workflow's busy-time contribution: subtract exactly
    // what was credited, re-credit the swapped schedule.
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
    state.free.take(claim);
    state.free.give_back(release);
    let new_finish = release_at + sim.makespan;
    svc.live_seq = state.events.push(new_finish, slot);
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
    r.lease_grown |= !claim.is_empty();
    r.lease_shrunk |= !release.is_empty();
    svc.placement.finish = new_finish;
    svc.placement.lease = lease;
    svc.placement.regrow.push(Regrow {
        at: release_at,
        suffix: s.back,
        suffix_dag: s.dag,
        mapping: s.schedule.global,
    });
    state.bump_epoch();
}
