//! The admission layer: candidate passes, lease probing, and head
//! reservations.
//!
//! At every event boundary the engine runs `admission_passes`:
//!
//! 1. the admission policy ranks the queue
//!    ([`AdmissionPolicy`]);
//! 2. a lease is sized and the highest-memory free processors are
//!    carved off the front of the free set;
//! 3. the offline solver maps the workflow onto the lease (memoized
//!    through `CacheView::solve`, whose view binds the run's solver,
//!    so a probe passes only the graph and the lease); on `NoSolution`
//!    the lease size is doubled (up to all free processors), after
//!    which the workflow either waits for more capacity or — if the
//!    whole idle cluster cannot hold it — is rejected;
//! 4. the discrete-event simulator executes the mapping on the lease
//!    view, fixing the completion instant and per-processor busy time.
//!
//! Under `FifoBackfill` the pass additionally performs *conservative
//! backfilling*: when the FIFO head cannot be placed, its
//! **reservation** is computed (`head_reservation`) — the earliest
//! instant at which, replaying the pending completions in time order,
//! enough processors free up for the head to be placeable — and later
//! arrivals are admitted only if their simulated finish does not push
//! past that reservation. A single pass may admit several candidates;
//! after every same-pass grant the pass's cached state is refreshed —
//! the free-speed aggregate drops by the granted lease's speeds, the
//! largest free memory is re-read, and the conservative reservation is
//! re-derived against the shrunken free set before it filters the next
//! candidate (each computation is recorded as a [`ReservationRecord`]
//! for the pinning tests).
//!
//! **What a backfill window costs.** Per pass, at most
//! [`BACKFILL_DEPTH`] candidates are *evaluated*; a pass pays for those
//! and for little else:
//!
//! * *The walk starts at the head.* The pass walks the queue's live
//!   slots (`Queue::next_live`), which start past the run of entries
//!   that earlier passes took and the queue has not yet swept out, so
//!   no pass steps over that run (`crate::queue`).
//! * *The work screen jumps.* A candidate whose work bound
//!   (`clock + total_work / free_speed`) already overshoots the
//!   reservation cannot finish inside the hole. The pass does not walk
//!   past such candidates one by one: `Queue::next_passing` hands it
//!   the next slot whose work can pass, in O(log n). The screen is
//!   monotone in `total_work`, so the jump lands exactly where the
//!   walk would have. It is taken only from a skip, so the
//!   first candidate after
//!   a grant is still reached by a single step and the post-admission
//!   refresh fires where it always did; under EASY it waits until the
//!   deferral list is full, since a skipped candidate may still be
//!   deferred. A jump does not count the candidates it passes, so the
//!   pass's yielded-candidate count is exact only until the first
//!   jump — it is read only while no reservation exists, and jumps
//!   happen only once one does.
//! * *Memory is screened without a probe.* The free set keeps its
//!   largest free memory current; a candidate whose hottest task
//!   exceeds it on a partly free cluster waits without probing
//!   anything (`FreeSet::turns_away`). It still counts against
//!   [`BACKFILL_DEPTH`].
//! * *The finish is known before the grant is built.* `try_admit`
//!   takes the reservation as a cap. A placeable candidate's simulated
//!   makespan comes from the memoized sim of its lease, and a finish
//!   past the cap is `Admit::Overshoot`: no lease view, no translated
//!   mapping and no `Grant` is built for a candidate the pass then
//!   throws away.
//! * *A warm probe is one lookup.* Each lease size of the escalation
//!   ladder asks `CacheView::probe_warm`: one store lock and one hash
//!   of the `ProbeKey` answer the solve and — on the size that places
//!   — the sim's makespan, with no `Arc` cloned. Only a grant reads the
//!   memoized solve and sim back (`CacheView::memoized`, no counter
//!   moves). The key's lease shape is hashed once per carve list and
//!   size: the free set (`free_set::FreeSet`) keeps the shapes of the
//!   last list it carved, and most probes of a pass see the same free
//!   set. A warm overshooting or waiting probe allocates
//!   nothing. A key that nothing is memoized under takes the two-call
//!   path (`solve_keyed`, then `sim_outcome_keyed`), which counts the
//!   miss, solves and simulates.
//!
//! `EasyBackfill` is the *aggressive* (EASY) split of the same idea:
//! the blocked head's reservation is computed lazily **once per event**
//! (not re-derived per pass) and a later arrival that places *now* is
//! admitted even when its simulated finish runs past the reservation,
//! provided the head would still be placeable at the reservation
//! instant on the processors the backfill leaves behind
//! (`head_fits_at`). Safe (within-reservation) grants are made first
//! — EASY's same-instant admissions are a superset of the conservative
//! ones — and the aggressive grants deliberately check against the
//! reservation's original completion replay, trading the conservative
//! never-delay-the-head guarantee for throughput.

use crate::cache::{CacheView, ProbeKey, SolveCache, Solver, WarmProbe};
use crate::engine::OnlineConfig;
use crate::free_set::{FreeSet, Mask};
use crate::lease::{commit_grant, escalation_sizes, simulate_outcome, Grant};
use crate::policy::AdmissionPolicy;
use crate::report::RejectedRecord;
use crate::state::{ArrivalFacts, ClusterState, Pending, ProbeScratch};
use crate::submission::single_task;
use dhp_core::metrics::MappingResult;
use dhp_core::SchedError;
use dhp_platform::{Cluster, ProcId, Processor};
use std::sync::Arc;

/// How many queued candidates behind a blocked FIFO head are
/// solver-evaluated per admission pass under
/// [`AdmissionPolicy::FifoBackfill`] — the backfill window. Bounds the
/// per-event admission cost on deep queues; work-bound skips do not
/// count against it (the pass jumps over them).
pub const BACKFILL_DEPTH: usize = 16;

/// Why the engine (re)computed a head reservation — exposed so tests
/// can pin the stale-state fixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReservationTrigger {
    /// The effective FIFO head failed to place and opened a backfill
    /// window.
    HeadBlocked,
    /// A same-pass admission invalidated the conservative bound, and it
    /// was re-derived against the current free set before filtering the
    /// next candidate (the stale-reservation fix; never emitted by
    /// [`AdmissionPolicy::EasyBackfill`], whose reservation is
    /// deliberately computed once per event).
    PostAdmission,
}

/// One head-reservation computation (engine instrumentation, not part
/// of the serialisable report).
#[derive(Clone, Debug)]
pub struct ReservationRecord {
    /// Virtual-clock instant of the computation.
    pub at: f64,
    /// Submission id of the blocked head the reservation protects.
    pub head_id: usize,
    /// The reservation instant (`f64::INFINITY` when the head is not
    /// placeable even once everything drains).
    pub reservation: f64,
    /// What prompted the computation.
    pub trigger: ReservationTrigger,
}

/// Outcome of one admission probe ([`try_admit`]).
pub(crate) enum Admit {
    /// Lease granted; box keeps the variant small.
    Granted(Box<Grant>),
    /// Placeable now, but the simulated finish runs past the probe's
    /// cap (the pass's reservation); nothing was built.
    Overshoot,
    /// Cannot be placed on the currently free processors; keep queued.
    Wait,
    /// Cannot be placed even on the whole idle cluster; drop.
    Reject(String),
}

/// Outcome of one lease-search probe ([`find_placement`]).
enum Probe {
    /// A feasible lease — the first `size` processors of the carve
    /// list — with the key that answered its solve, which the lease's
    /// grant reads back under.
    Placed {
        size: usize,
        key: ProbeKey,
        solve: Solved,
    },
    /// No free processor holds the hottest task (also covers an empty
    /// free set, with `whole_cluster_free` false).
    MemoryBlocked { whole_cluster_free: bool },
    /// No lease carved from the free set admits a valid mapping.
    Unplaceable { whole_cluster_free: bool },
}

/// How a placed probe's solve was answered.
enum Solved {
    /// From the memo, by [`CacheView::probe_warm`]: nothing was cloned.
    /// `sim` is the memoized simulated makespan, when the probe asked
    /// for it and it is memoized.
    Warm { sim: Option<f64> },
    /// By [`CacheView::solve_keyed`], on a key nothing was memoized
    /// under.
    Cold(Arc<MappingResult>),
}

/// The work screen: can a candidate of `total_work` possibly finish by
/// `resv`? Its makespan is at least `total_work / free_speed` even with
/// zero communication. For a finite positive `free_speed` the answer is
/// monotone in `total_work` (true on a value ⇒ true on every smaller
/// one), which is what lets the pass jump with
/// `Queue::next_passing`.
pub(crate) fn fits_hole(total_work: f64, clock: f64, free_speed: f64, resv: f64) -> bool {
    !(free_speed <= 0.0 || clock + total_work / free_speed > resv + 1e-9)
}

/// Runs admission passes at the current event boundary until a full
/// pass changes nothing. One pass may admit (and reject) several
/// candidates: decisions are recorded against the pass's candidate
/// order and the queue settles only at the end of the pass, so slots
/// stay valid throughout. After every same-pass grant the
/// pass's cached state is refreshed — `free_speed` drops by the granted
/// lease's speeds, the largest free memory is re-read, and a
/// conservative reservation is marked dirty and lazily re-derived
/// before the next candidate consults it — so none of them can go
/// stale within a pass. A pass over an empty queue or with no free
/// processor could decide nothing, so it is not started: on a fleet
/// most calls return here without reading the free set.
pub(crate) fn admission_passes(
    state: &mut ClusterState,
    cfg: &OnlineConfig,
    cache: &CacheView,
    clock: f64,
) {
    // EASY's once-per-event head reservation, cached across the passes
    // of this event: (head id, reservation).
    let mut event_resv: Option<(usize, f64)> = None;
    loop {
        // A pass that cannot decide anything returns before it is set
        // up: over an empty queue it yields no candidate, and with no
        // free processor it breaks on its first one before any probe.
        // The only effect skipped is the end-of-pass `settle`, which
        // moves storage, not the live order.
        if state.queue.is_empty() || state.free.count() == 0 {
            break;
        }
        let mut changed = false;
        // The backfilling policies' candidate order *is* the live
        // queue order, so the pass walks the queue's live slots in
        // place instead of materialising an index vector — on deep
        // queues that vector write was the hottest line of the whole
        // engine. Plain FIFO and the ranked policies
        // materialise (they truncate or reorder), into a scratch buffer
        // reused across passes.
        let scan = cfg.policy.backfills();
        let mut order = std::mem::take(&mut state.scratch.order); // empty
        if !scan {
            cfg.policy.candidate_order_into(&state.queue, &mut order);
        }
        // Backfilling: once the effective FIFO head fails to place,
        // its reservation caps every later candidate's simulated
        // finish. `None` = no cap (head placeable, or a policy
        // without reservations).
        let mut reservation: Option<f64> = None;
        let mut reservation_dirty = false;
        // Queue index of the blocked head the reservation protects.
        let mut head_qi: Option<usize> = None;
        // Aggregate speed of the free processors: the work screen's
        // divisor (see `fits_hole`). Kept fresh across same-pass
        // admissions.
        let mut free_speed: f64 = state.free.speed();
        let mut evaluated_backfills = 0usize;
        // Queue indices admitted or rejected this pass.
        let mut taken: Vec<usize> = std::mem::take(&mut state.scratch.taken);
        // EASY: placeable candidates whose finish (or work bound)
        // overshoots the reservation — retried aggressively after
        // every safe grant has been made.
        let mut deferred: Vec<usize> = std::mem::take(&mut state.scratch.deferred);
        // Candidate walk: `cursor` advances through `order` (ranked)
        // or the queue's storage positions (in-place scan, one live
        // slot at a time); `pos` counts yielded candidates either way,
        // so — until the work screen's first jump, which only happens
        // once a reservation exists — it is the candidate's position in
        // the live queue. It is read only while there is none.
        let mut cursor = 0usize;
        let mut pos = 0usize;
        loop {
            let qi = if scan {
                let Some(qi) = state.queue.next_live(cursor) else {
                    break;
                };
                cursor = qi + 1;
                qi
            } else {
                if cursor >= order.len() {
                    break;
                }
                cursor += 1;
                order[cursor - 1]
            };
            let pos = {
                pos += 1;
                pos - 1
            };
            if state.free.count() == 0 {
                break;
            }
            // The *effective head*: every candidate ranked before
            // this one was taken this pass, so this is the head of
            // the queue as it will stand after this pass — the
            // position whose blocking opens a backfill window.
            let effective_head = taken.len() == pos;
            if reservation.is_some() {
                if evaluated_backfills >= BACKFILL_DEPTH {
                    break;
                }
                // Re-derive a dirty conservative bound before it
                // filters anything: a reservation computed before a
                // same-pass admission reflects a free set that no
                // longer exists (the stale-reservation fix). EASY
                // keeps its event-level reservation by design.
                if reservation_dirty {
                    let hq = head_qi.unwrap_or_else(|| {
                        unreachable!("a dirty reservation implies a queue head")
                    });
                    let fresh = head_reservation(state, hq, cfg, cache);
                    state.reservations.push(ReservationRecord {
                        at: clock,
                        head_id: state.queue[hq].id,
                        reservation: fresh,
                        trigger: ReservationTrigger::PostAdmission,
                    });
                    reservation = Some(fresh);
                    reservation_dirty = false;
                }
                let resv = reservation
                    .unwrap_or_else(|| unreachable!("the dirty path above just refreshed it"));
                let fits = |w: f64| fits_hole(w, clock, free_speed, resv);
                if !fits(state.queue[qi].total_work) {
                    // Cannot possibly finish inside the hole. EASY
                    // may still take it aggressively in phase 2 —
                    // but only screen in candidates whose hottest
                    // task fits the largest free memory, so the
                    // bounded deferral list is not wasted on
                    // certainly unplaceable ones. (`top.max(0.0)` is
                    // the fold of the free memories from 0.)
                    if cfg.policy == AdmissionPolicy::EasyBackfill
                        && deferred.len() < BACKFILL_DEPTH
                    {
                        let top = state.free.top_memory();
                        if state.queue[qi].max_task_req <= top.max(0.0) * (1.0 + 1e-9) {
                            deferred.push(qi);
                        }
                    } else if scan && free_speed.is_finite() {
                        // Nothing between here and the next slot whose
                        // work can pass would do anything but skip:
                        // jump there (`free_speed = +∞` breaks the
                        // screen's monotonicity, so it steps instead).
                        cursor = state.queue.next_passing(cursor, fits);
                    }
                    continue;
                }
                evaluated_backfills += 1;
            }
            let cand = &state.queue[qi];
            // `find_placement`'s first screen, answered without carving:
            // a hottest task no free processor can hold waits (on an
            // idle cluster `try_admit` words the rejection instead).
            let admit = if !state.free.all_free() && state.free.turns_away(cand.max_task_req) {
                Admit::Wait
            } else {
                try_admit(
                    &state.cluster,
                    &mut state.free,
                    cand,
                    cfg,
                    cache,
                    clock,
                    state.queue.len() - taken.len(),
                    state.cluster_id,
                    reservation,
                )
            };
            match admit {
                Admit::Granted(grant) => {
                    let fingerprint = state.queue[qi].fingerprint;
                    free_speed -= commit_grant(*grant, fingerprint, state);
                    // Only the conservative policy re-derives its
                    // bound after a grant; EASY's event reservation
                    // is stale across grants by contract.
                    if cfg.policy == AdmissionPolicy::FifoBackfill && reservation.is_some() {
                        reservation_dirty = true;
                    }
                    taken.push(qi);
                    changed = true;
                }
                Admit::Overshoot => {
                    // Would run past the head's reservation and delay
                    // it — conservative keeps it queued, EASY retries
                    // it in phase 2.
                    if cfg.policy == AdmissionPolicy::EasyBackfill
                        && deferred.len() < BACKFILL_DEPTH
                    {
                        deferred.push(qi);
                    }
                }
                Admit::Wait => {
                    // Not placeable right now; under FIFO this blocks
                    // the line, under the others the next candidate
                    // gets a chance — capped by the head's
                    // reservation when backfilling.
                    if cfg.policy.backfills() && effective_head && reservation.is_none() {
                        let head_id = state.queue[qi].id;
                        let resv = match event_resv {
                            // EASY: reuse this event's reservation,
                            // computed at most once (stale across
                            // same-event admissions by design).
                            Some((id, r))
                                if cfg.policy == AdmissionPolicy::EasyBackfill && id == head_id =>
                            {
                                r
                            }
                            _ => {
                                let r = head_reservation(state, qi, cfg, cache);
                                state.reservations.push(ReservationRecord {
                                    at: clock,
                                    head_id,
                                    reservation: r,
                                    trigger: ReservationTrigger::HeadBlocked,
                                });
                                if cfg.policy == AdmissionPolicy::EasyBackfill {
                                    event_resv = Some((head_id, r));
                                }
                                r
                            }
                        };
                        reservation = Some(resv);
                        head_qi = Some(qi);
                    }
                }
                Admit::Reject(reason) => {
                    let cand = &state.queue[qi];
                    let record = RejectedRecord::of(cand, clock, reason, state.cluster_id);
                    state.rejected.push(record);
                    taken.push(qi);
                    changed = true;
                }
            }
        }
        // EASY phase 2: aggressive backfills. Every safe grant has
        // already been made above (so EASY's same-instant
        // admissions are a superset of the conservative ones by
        // construction); the deferred candidates are now admitted
        // if they place on the current free set and the head would
        // still be placeable at the reservation instant on the
        // processors they leave behind. The check runs against the
        // reservation's original completion replay — EASY
        // deliberately does not refresh it, which is exactly the
        // conservative guarantee being traded away.
        if cfg.policy == AdmissionPolicy::EasyBackfill {
            if let (Some(resv), Some(hq)) = (reservation, head_qi) {
                // The aggressive phase gets its own probe window:
                // on deep queues phase 1 exhausts the shared one,
                // and EASY's whole point is paying extra probes for
                // the grants conservative cannot make.
                for qi in deferred.drain(..).take(BACKFILL_DEPTH) {
                    if state.free.count() == 0 {
                        break;
                    }
                    let Admit::Granted(grant) = try_admit(
                        &state.cluster,
                        &mut state.free,
                        &state.queue[qi],
                        cfg,
                        cache,
                        clock,
                        state.queue.len() - taken.len(),
                        state.cluster_id,
                        None,
                    ) else {
                        continue;
                    };
                    let safe = grant.placement.finish <= resv + 1e-9;
                    if !safe
                        && !head_fits_at(
                            state,
                            hq,
                            &grant.placement.lease,
                            &[],
                            None,
                            resv,
                            cfg,
                            cache,
                        )
                    {
                        continue;
                    }
                    let fingerprint = state.queue[qi].fingerprint;
                    commit_grant(*grant, fingerprint, state);
                    taken.push(qi);
                    changed = true;
                }
            }
        }
        // Remove the taken entries; slots read this pass are void
        // after `settle`.
        for &qi in &taken {
            state.queue.kill(qi);
        }
        state.queue.settle();
        // Restore the pass buffers for the next pass (or event).
        taken.clear();
        deferred.clear();
        order.clear();
        state.scratch.taken = taken;
        state.scratch.deferred = deferred;
        state.scratch.order = order;
        if !changed {
            break;
        }
    }
}

/// The single lease search shared by admission ([`try_admit`]) and the
/// reservation feasibility scan ([`can_place`]): carve the free
/// processors of `from` in memory order, screen the hottest task, and
/// walk the escalation ladder until a solve succeeds. Both callers
/// going through one code path (and one [`CacheView`]) is what kills
/// the historic double solve — a reservation probe that found a
/// feasible lease leaves the solved schedule in the cache, and the
/// later real admission on the same shape replays it instead of
/// resolving. (The callers' `target`s differ under
/// `shrink_under_load`, where admission sizes by queue length but the
/// reservation scan cannot know the future backlog — there the probe
/// and the admission may walk different lease shapes and the replay is
/// not guaranteed.)
///
/// Each size asks the memo first ([`CacheView::probe_warm`], with the
/// sim when `with_sim`); only a key nothing is memoized under is
/// solved ([`CacheView::solve_keyed`]). A warm probe allocates
/// nothing: the lease is a prefix of the carve list, its shape is read
/// back from `free` while the list is unchanged, and the store hands
/// back no `Arc`.
fn find_placement(
    cluster: &Cluster,
    free: &mut FreeSet,
    from: Mask,
    cand: &Pending,
    cache: &CacheView,
    target: usize,
    with_sim: bool,
) -> Probe {
    let carved = free.carve(from);
    let whole_cluster_free = carved == cluster.len();
    // The lease takes the biggest free memories first, so feasibility of
    // the hottest task is decided by the first free processor.
    if free.carve_turns_away(cand.max_task_req) {
        return Probe::MemoryBlocked { whole_cluster_free };
    }

    let g = &cand.submission.instance.graph;
    for size in escalation_sizes(target, carved) {
        let key = cache.key(cand.fingerprint, free.shape(cluster, size));
        let solve = match cache.probe_warm(key, with_sim) {
            WarmProbe::NoSolution => continue,
            WarmProbe::Solved { sim } => Solved::Warm { sim },
            WarmProbe::Cold => match cache.solve_keyed(key, g, cluster, free.lease(size)) {
                Err(SchedError::NoSolution) => continue,
                Ok(local) => Solved::Cold(local),
            },
        };
        return Probe::Placed { size, key, solve };
    }
    Probe::Unplaceable { whole_cluster_free }
}

/// One admission probe: lease search, the simulated finish, and — when
/// it lands by `cap` (the pass's reservation, if any) — the would-be
/// grant (committed by the caller via
/// [`crate::lease::commit_grant`]). The simulation is
/// memoized through the cache view under the key that answered the
/// solve it executes (not hashed again), so a repeat admission of a
/// cached `(workflow, lease shape)` pair skips the simulator, and a
/// finish past `cap` is [`Admit::Overshoot`] before anything is built
/// or cloned.
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_admit(
    cluster: &Cluster,
    free: &mut FreeSet,
    cand: &Pending,
    cfg: &OnlineConfig,
    cache: &CacheView,
    clock: f64,
    queue_len: usize,
    cluster_id: Option<usize>,
    cap: Option<f64>,
) -> Admit {
    let g = &cand.submission.instance.graph;
    let target = cfg.lease.target_under_load(g.node_count(), queue_len);
    let probe = find_placement(cluster, free, Mask::Real, cand, cache, target, true);
    let (size, key, solve) = match probe {
        Probe::Placed { size, key, solve } => (size, key, solve),
        Probe::MemoryBlocked {
            whole_cluster_free: true,
        } => {
            return Admit::Reject(format!(
                "task requirement {:.2} exceeds every processor memory",
                cand.max_task_req
            ))
        }
        Probe::Unplaceable {
            whole_cluster_free: true,
        } => {
            return Admit::Reject(format!(
                "no valid mapping exists on the whole idle cluster \
                 ({} processors, {:.2} total memory)",
                cluster.len(),
                cluster.total_memory()
            ))
        }
        Probe::MemoryBlocked { .. } | Probe::Unplaceable { .. } => return Admit::Wait,
    };
    let overshoots = |makespan: f64| cap.is_some_and(|cap| clock + makespan > cap + 1e-9);
    let lease = free.lease(size);
    let (local, sim) = match solve {
        Solved::Warm {
            sim: Some(makespan),
        } if overshoots(makespan) => return Admit::Overshoot,
        Solved::Warm { sim } => {
            match cache.memoized(key, sim.is_some(), g, cluster, lease) {
                Ok(found) => found,
                // The solvers are deterministic: a re-solve of a key
                // that placed places again.
                Err(SchedError::NoSolution) => return Admit::Wait,
            }
        }
        Solved::Cold(local) => (local, None),
    };
    let sim = match sim {
        Some(sim) => sim,
        None => {
            let sim = cache.sim_outcome_keyed(key, || {
                simulate_outcome(g, &cluster.subcluster(lease), &local.mapping)
            });
            if overshoots(sim.makespan) {
                return Admit::Overshoot;
            }
            sim
        }
    };
    Admit::Granted(Box::new(Grant::build(
        cand, lease, &local, sim, clock, cluster_id,
    )))
}

/// Solver feasibility only — can `cand` be placed on the free
/// processors of `from`? The same lease search as [`try_admit`]
/// (same keys, counters and cache inserts — the reservation scan only
/// needs a yes/no, but the solve it pays for stays in the cache for the
/// eventual admission to reuse), without a simulation. Also the probe
/// behind federation's `best-fit` routing and cross-cluster spillover.
pub(crate) fn can_place(
    cluster: &Cluster,
    free: &mut FreeSet,
    from: Mask,
    cand: &Pending,
    cfg: &OnlineConfig,
    cache: &CacheView,
) -> bool {
    let target = cfg
        .lease
        .target(cand.submission.instance.graph.node_count());
    matches!(
        find_placement(cluster, free, from, cand, cache, target, false),
        Probe::Placed { .. }
    )
}

/// The reservation of the blocked head at queue slot `hq`: pending
/// completions are replayed in `(time, seq)` order onto the current
/// free set, and the first instant at which the head becomes placeable
/// is returned. `f64::INFINITY` means the head is not placeable even
/// once everything drains (it will be rejected when the cluster is
/// idle), so backfill is unconstrained.
///
/// Placeability is monotone in the freed set (freeing more processors
/// only adds memory), so the earliest feasible prefix of completions is
/// found by binary search — `O(log k)` solver probes instead of `O(k)`.
///
/// The replay sits behind the incremental validity token: the
/// reservation for a given head is a pure function of the free set,
/// the completion heap, and the in-service table, all of which move
/// only at the mutation points that bump [`ClusterState::epoch`]. While
/// the token `(epoch, head id)` matches, the cached value (`INFINITY`
/// included) is returned without replaying a single solver probe.
pub(crate) fn head_reservation(
    state: &mut ClusterState,
    hq: usize,
    cfg: &OnlineConfig,
    cache: &CacheView,
) -> f64 {
    let ClusterState {
        cluster,
        free,
        queue,
        events,
        in_service,
        epoch,
        resv_cache,
        scratch: ProbeScratch { pending, .. },
        ..
    } = state;
    let head = &queue[hq];
    if let Some((e, id, r)) = *resv_cache {
        if e == *epoch && id == head.id {
            return r;
        }
    }
    // Stale heap entries (superseded by an elastic resize) free
    // nothing; only live completions participate in the replay.
    pending.clear();
    pending.extend(events.iter().filter_map(|c| {
        in_service[c.slot]
            .as_ref()
            .is_some_and(|s| s.live_seq == c.seq)
            .then_some((c.time, c.seq, c.slot))
    }));
    pending.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    // Placeable once completions[0..=i] have freed their leases?
    let mut feasible_after = |i: usize| -> bool {
        free.hypothesise(
            &[],
            pending[..=i].iter().map(|&(_, _, slot)| {
                let done = in_service[slot]
                    .as_ref()
                    .unwrap_or_else(|| unreachable!("a pending completion holds its slot"));
                &done.placement.lease[..]
            }),
        );
        can_place(cluster, free, Mask::Hypothetical, head, cfg, cache)
    };
    let r = if pending.is_empty() || !feasible_after(pending.len() - 1) {
        f64::INFINITY
    } else {
        // Smallest i with feasible_after(i); invariant: feasible at `hi`.
        let (mut lo, mut hi) = (0usize, pending.len() - 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if feasible_after(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        pending[hi].0
    };
    *resv_cache = Some((*epoch, head.id, r));
    r
}

/// The shared head-placeability replay: is the blocked head at queue
/// slot `hq` still placeable at `resv` once every pending completion up
/// to that instant has freed its lease, on a free set that differs from
/// the current one by `claim` (held busy past the reservation: an EASY
/// candidate's would-be lease, or the processors an elastic growth
/// takes) and `release` (already free: the processors an elastic
/// shrink hands back)? `skip_slot` drops one workflow's completion from
/// the replay — an elastic resize passes the candidate's own slot,
/// whose old completion the swap would supersede.
///
/// Used by EASY's aggressive-backfill check (where the replay
/// deliberately uses the reservation's own completion horizon — it is
/// *not* refreshed after earlier aggressive grants of the same event,
/// which is the conservative guarantee EASY trades for throughput:
/// piled-up aggressive backfills may each pass this check alone yet
/// jointly delay the head) and by the elastic resize's head guard.
#[allow(clippy::too_many_arguments)]
pub(crate) fn head_fits_at(
    state: &mut ClusterState,
    hq: usize,
    claim: &[ProcId],
    release: &[ProcId],
    skip_slot: Option<usize>,
    resv: f64,
    cfg: &OnlineConfig,
    cache: &CacheView,
) -> bool {
    let ClusterState {
        cluster,
        free,
        queue,
        events,
        in_service,
        ..
    } = state;
    // The live completions due by the reservation, but `skip_slot`'s.
    let done_by_resv = events
        .iter()
        .filter(|c| !(c.time > resv + 1e-9 || Some(c.slot) == skip_slot))
        .filter_map(|c| in_service[c.slot].as_ref().filter(|s| s.live_seq == c.seq))
        .map(|svc| &svc.placement.lease[..]);
    free.hypothesise(claim, std::iter::once(release).chain(done_by_resv));
    can_place(cluster, free, Mask::Hypothetical, &queue[hq], cfg, cache)
}

/// One blocked backfill window, held still so a benchmark can time a
/// warm admission pass over it at any queue depth
/// (`admission_pass/backfill_window` in `bench_online`).
///
/// A four-processor cluster — one big processor, three small ones —
/// runs a long workflow on the big one. The queue head needs the big
/// processor too, so it blocks and reserves that workflow's
/// completion. Behind it wait `depth` single-task candidates. Sixteen
/// of them, spread evenly over the queue, are worth a probe: in turn
/// one that places on a small processor but would finish after the
/// reservation, and one whose task fits no free processor. Every other
/// candidate has too much work for the hole. Nothing is ever admitted,
/// so every pass decides the same window on the same warm caches.
///
/// [`BackfillWindow::with_dead_prefix`] puts entries already taken, and
/// not yet swept out of the queue's storage, ahead of the head, the way
/// a deep queue looks between two sweeps (`admission_pass/dead_prefix`).
pub struct BackfillWindow {
    state: ClusterState,
    cfg: OnlineConfig,
    cache: SolveCache,
    solver: Solver,
}

impl std::fmt::Debug for BackfillWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackfillWindow")
            .field("queued", &self.state.queue.len())
            .finish_non_exhaustive()
    }
}

impl BackfillWindow {
    /// The window with `depth` candidates behind the blocked head, its
    /// caches filled by one untimed pass.
    pub fn new(depth: usize) -> BackfillWindow {
        BackfillWindow::with_dead_prefix(0, depth)
    }

    /// The same window behind `dead` taken entries. A pass sweeps them
    /// out once they are more than half of the queue's storage, so the
    /// prefix stays only while `dead ≤ depth`.
    ///
    /// # Panics
    /// Panics if `dead > depth`.
    pub fn with_dead_prefix(dead: usize, depth: usize) -> BackfillWindow {
        assert!(
            dead <= depth,
            "a pass would sweep a prefix of {dead} taken entries ahead of {depth} candidates"
        );
        let cluster = Cluster::new(
            vec![
                Processor::new("big", 1.0, 100.0),
                Processor::new("small", 1.0, 10.0),
                Processor::new("small", 1.0, 10.0),
                Processor::new("small", 1.0, 10.0),
            ],
            1.0,
        );
        let cfg = OnlineConfig {
            policy: AdmissionPolicy::FifoBackfill,
            ..OnlineConfig::default()
        };
        let cache = SolveCache::new();
        let solver = cfg.lease_solver();
        let mut state = ClusterState::new(&cluster, None);
        let mut seen = ArrivalFacts::new();
        let mut enqueue = |state: &mut ClusterState, id: usize, work: f64, memory: f64| {
            let sub = single_task(id, 0.0, work, memory, "window");
            state.enqueue_arrival(Pending::new(Arc::new(sub), &mut seen), 0.0);
        };
        // The running workflow holds the big processor until t = 1000.
        enqueue(&mut state, 0, 1000.0, 100.0);
        admission_passes(&mut state, &cfg, &CacheView::direct(&cache, &solver), 0.0);
        // Entries taken earlier, still in storage: each is the only
        // live entry when it is taken.
        for id in 1..=dead {
            enqueue(&mut state, id, 1.0, 1.0);
            let Some(slot) = state.queue.first_live() else {
                unreachable!("the entry just queued is live");
            };
            state.queue.kill(slot);
        }
        // The head, then the window: 3 free speed, 10 free memory.
        enqueue(&mut state, dead + 1, 1.0, 100.0);
        let stride = (depth / BACKFILL_DEPTH).max(1);
        for i in 0..depth {
            let (work, memory) = match (i % stride + 1 == stride, i / stride % 2) {
                (false, _) => (1e6, 1.0),   // 1e6 / 3 overshoots the hole
                (true, 0) => (2400.0, 1.0), // 800 fits; 2400 on one does not
                (true, _) => (1.0, 50.0),   // no free memory holds it
            };
            enqueue(&mut state, dead + 2 + i, work, memory);
        }
        let mut window = BackfillWindow {
            state,
            cfg,
            cache,
            solver,
        };
        window.pass();
        window
    }

    /// The window's state, configuration and cache view, for driving
    /// its replays directly.
    #[cfg(test)]
    pub(crate) fn parts(&mut self) -> (&mut ClusterState, &OnlineConfig, CacheView<'_>) {
        let view = CacheView::direct(&self.cache, &self.solver);
        (&mut self.state, &self.cfg, view)
    }

    /// Runs one event's admission passes over the window; returns how
    /// many workflows stay queued (all of them).
    pub fn pass(&mut self) -> usize {
        self.state.reservations.clear();
        let view = CacheView::direct(&self.cache, &self.solver);
        admission_passes(&mut self.state, &self.cfg, &view, 0.0);
        self.state.queue.len()
    }
}

/// What a [`WarmProbes`] probe is set up to decide.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WarmProbeCase {
    /// Places, but its simulated finish runs past the cap.
    Overshoot,
    /// No lease of the free processors holds it: every size of its
    /// ladder is a memoized `NoSolution`.
    Wait,
    /// Places within the cap; the grant is built (and dropped).
    Grant,
}

/// One admission probe of each outcome, held still on warm caches so a
/// benchmark can time a single warm `try_admit`
/// (`solve_cache/warm_probe/<case>` in `bench_online`).
///
/// On a four-processor cluster two processors are busy, and the free
/// two are m0 (64 memory) and m2 (32). A 20-task chain places on m0:
/// under a reservation at the current instant it overshoots, without
/// one it is granted. Two branches of 30-unit files under one root fit
/// neither lease — every task fits m0, but one processor must hold a
/// branch's files besides the other's — so it waits after a warm probe
/// per lease size. Nothing is committed, so every call probes the same
/// free list on the same warm cache.
pub struct WarmProbes {
    state: ClusterState,
    cfg: OnlineConfig,
    cache: SolveCache,
    solver: Solver,
    chain: Pending,
    branches: Pending,
}

impl std::fmt::Debug for WarmProbes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarmProbes").finish_non_exhaustive()
    }
}

impl Default for WarmProbes {
    fn default() -> Self {
        WarmProbes::new()
    }
}

impl WarmProbes {
    /// The probes, their caches filled by two untimed rounds.
    pub fn new() -> WarmProbes {
        let cluster = Cluster::new(
            vec![
                Processor::new("m0", 2.0, 64.0),
                Processor::new("m1", 4.0, 128.0),
                Processor::new("m2", 1.0, 32.0),
                Processor::new("m3", 8.0, 256.0),
            ],
            1.0,
        );
        let mut branches = dhp_dag::Dag::new();
        let n: Vec<_> = (0..5).map(|_| branches.add_node(3.0, 2.0)).collect();
        for (src, dst) in [(0, 1), (0, 2), (1, 3), (2, 4)] {
            branches.add_edge(n[src], n[dst], 30.0);
        }
        let mut seen = ArrivalFacts::new();
        let mut pending = |id: usize, name: &str, graph: dhp_dag::Dag| {
            let sub = crate::submission::Submission {
                id,
                arrival: 0.0,
                instance: dhp_wfgen::WorkflowInstance {
                    name: name.into(),
                    family: None,
                    size_class: dhp_wfgen::SizeClass::Real,
                    requested_size: graph.node_count(),
                    graph: graph.into(),
                },
            };
            Pending::new(Arc::new(sub), &mut seen)
        };
        let chain = pending(0, "chain", dhp_dag::builder::chain(20, 5.0, 2.0, 1.0));
        let branches = pending(1, "branches", branches);
        let cfg = OnlineConfig::default();
        let cache = SolveCache::new();
        let solver = cfg.lease_solver();
        let mut state = ClusterState::new(&cluster, None);
        state.free.take(&[ProcId(1), ProcId(3)]);
        let mut probes = WarmProbes {
            state,
            cfg,
            cache,
            solver,
            chain,
            branches,
        };
        for _ in 0..2 {
            for case in [
                WarmProbeCase::Grant,
                WarmProbeCase::Overshoot,
                WarmProbeCase::Wait,
            ] {
                assert!(probes.probe(case), "{case:?} did not decide {case:?}");
            }
        }
        probes
    }

    /// One warm admission probe of `case`; returns whether it decided
    /// what `case` names.
    pub fn probe(&mut self, case: WarmProbeCase) -> bool {
        let (cand, cap) = match case {
            WarmProbeCase::Overshoot => (&self.chain, Some(0.0)),
            WarmProbeCase::Wait => (&self.branches, None),
            WarmProbeCase::Grant => (&self.chain, None),
        };
        let state = &mut self.state;
        let admit = try_admit(
            &state.cluster,
            &mut state.free,
            cand,
            &self.cfg,
            &CacheView::direct(&self.cache, &self.solver),
            0.0,
            1,
            None,
            cap,
        );
        matches!(
            (case, admit),
            (WarmProbeCase::Overshoot, Admit::Overshoot)
                | (WarmProbeCase::Wait, Admit::Wait)
                | (WarmProbeCase::Grant, Admit::Granted(_))
        )
    }
}
