//! Multi-cluster federation: online co-scheduling across several
//! independent clusters under one merged virtual clock.
//!
//! A [`Federation`] is an ordered list of member clusters with no
//! cross-cluster interconnect: every workflow is served entirely inside
//! one member, so the per-cluster engine — `ClusterState` plus the
//! admission/lease layers — applies unchanged. This module tree adds
//! the fleet tier on top, one concern per layer:
//!
//! * `clock.rs` — the merged event horizon: the next
//!   completion/membership/arrival instant, tie order **completions <
//!   membership < arrivals**, members in index order.
//! * `shard.rs` — a `MemberShard` owning one member's `ClusterState`,
//!   `MemberStatus`, and the solver statistics charged to it, with
//!   `step_to`/`grow` as its only entry points and no access to sibling
//!   state.
//! * `routing.rs` — [`RoutingPolicy`] and home-cluster assignment:
//!   `round-robin` (arrival order cycling the members), `least-loaded`
//!   (smallest speed-weighted queued work), or `best-fit` (among
//!   members that can place it *right now*, the one with the least
//!   free speed; falling back to least-loaded).
//! * `rebalance.rs` — the spillover sweep (remote backfilling across
//!   the federation, bounded per event and ping-pong-free) and
//!   drain/fail queue migration: the cross-member phases.
//! * `membership.rs` — applying chaos-plan drain/fail/join events.
//! * `merge.rs` — per-member finalisation, exact-sum fleet metrics, and
//!   the serialisable [`FederationReport`].
//!
//! # One event loop
//!
//! One driver (`serve_loop`) serves the plain and the chaos entry
//! points, on one thread — and the single-cluster engine
//! ([`serve`](crate::engine::serve)) too, as one member whose shard
//! carries no `cluster_id` and is finalised without a fleet merge.
//! Each clock step runs, in order:
//!
//! 1. **Event arm**: advance the clock; apply due membership events;
//!    route due arrivals.
//! 2. **Step**: every member with a due completion or (if Active)
//!    queued work pops its completions and runs its admission passes
//!    and elastic shrink, in member-index order.
//! 3. **Spillover**: blocked work migrates across members, probing
//!    only destinations that could place it (see `rebalance.rs`).
//! 4. **Growth**: elastic lease growth, in member-index order.
//!
//! Every probe goes to the shared [`SolveCache`] through one cache view
//! bound to `cfg`'s solver at the top of the loop, charging the member
//! that caused the probe, so a solve one member inserts is a hit for
//! any identically shaped lease on any other member from the next
//! probe on — within the same event too. The store is one
//! mutex: only the baseline batch's cold solves still run on several
//! threads at report time, and they rarely meet on the lock (README,
//! "One event loop").
//!
//! Every member produces its own
//! [`ServeReport`](crate::report::ServeReport) (records stamped with
//! the member's `cluster_id`), and the [`FederationReport`] adds
//! fleet-level
//! [`FleetMetrics`](crate::report::FleetMetrics) whose counters are
//! the exact sums of the per-cluster ones (solver statistics are
//! attributed to the member whose probes caused them — each shard's
//! `stats` is the single owner of that attribution).
//!
//! Membership events ([`serve_federation_chaos`]) merge a
//! [`MembershipPlan`] of time-ordered `drain` / `fail` / `join` events
//! into the federated clock. A draining member's queued work migrates
//! to the survivors and its in-service work finishes; a failing member
//! additionally tears down its in-service work — requeued onto
//! survivors with the original arrival and id, or recorded as *lost*,
//! per the event's [`FailureMode`](crate::chaos::FailureMode). A
//! joining member starts receiving routed arrivals and spillover from
//! the very instant it appears.
//!
//! A federated run is a pure function of `(federation, submissions,
//! config, routing, plan)`.

mod clock;
mod membership;
mod merge;
pub(crate) mod rebalance;
pub(crate) mod routing;
pub(crate) mod shard;

pub use merge::{FederationOutcome, FederationReport};
pub use routing::RoutingPolicy;

use crate::cache::{CacheView, SolveCache};
use crate::chaos::{MembershipEvent, MembershipPlan};
use crate::engine::{load_snapshot, save_snapshot, OnlineConfig};
use crate::report::RejectedRecord;
use crate::state::{ArrivalFacts, Pending};
use crate::submission::Submission;
use clock::NextEvent;
use dhp_platform::Federation;
use membership::apply_membership;
use rebalance::spill;
use routing::route;
use shard::MemberShard;
use std::sync::Arc;

/// Serves a submission stream across a federation of clusters. A fresh
/// unbounded [`SolveCache`] — shared by every member — is created per
/// call; use [`serve_federation_with_cache`] to pass a disabled or
/// capped one, or to share one across runs. Deterministic for fixed
/// inputs.
pub fn serve_federation(
    federation: &Federation,
    submissions: Vec<Submission>,
    cfg: &OnlineConfig,
    routing: RoutingPolicy,
) -> FederationOutcome {
    serve_federation_with_cache(federation, submissions, cfg, routing, &SolveCache::new())
}

/// [`serve_federation`] with a caller-owned shared [`SolveCache`].
pub fn serve_federation_with_cache(
    federation: &Federation,
    submissions: Vec<Submission>,
    cfg: &OnlineConfig,
    routing: RoutingPolicy,
    cache: &SolveCache,
) -> FederationOutcome {
    serve_fleet(federation, submissions, cfg, routing, cache, &[])
}

/// Serves a submission stream across a federation *under a membership
/// plan*: drain/fail/join events merged into the federated clock (see
/// [`MembershipPlan`] for the semantics and JSON schema). A fresh
/// unbounded shared [`SolveCache`] is created per call. Returns an
/// error when the plan does not validate against the federation
/// (member index out of range, unknown failure mode, unbuildable join
/// spec). An empty plan reproduces [`serve_federation`] byte-for-byte.
pub fn serve_federation_chaos(
    federation: &Federation,
    submissions: Vec<Submission>,
    cfg: &OnlineConfig,
    routing: RoutingPolicy,
    plan: &MembershipPlan,
) -> Result<FederationOutcome, String> {
    serve_federation_chaos_with_cache(
        federation,
        submissions,
        cfg,
        routing,
        plan,
        &SolveCache::new(),
    )
}

/// [`serve_federation_chaos`] with a caller-owned shared [`SolveCache`].
pub fn serve_federation_chaos_with_cache(
    federation: &Federation,
    submissions: Vec<Submission>,
    cfg: &OnlineConfig,
    routing: RoutingPolicy,
    plan: &MembershipPlan,
    cache: &SolveCache,
) -> Result<FederationOutcome, String> {
    let events = plan.resolve(federation.len())?;
    Ok(serve_fleet(
        federation,
        submissions,
        cfg,
        routing,
        cache,
        &events,
    ))
}

/// [`serve_loop`] over one shard per member, stamped with its member
/// index, merged into the fleet report at the end.
fn serve_fleet(
    federation: &Federation,
    submissions: Vec<Submission>,
    cfg: &OnlineConfig,
    routing: RoutingPolicy,
    cache: &SolveCache,
    chaos: &[MembershipEvent],
) -> FederationOutcome {
    let shards = federation
        .iter()
        .map(|(i, c)| MemberShard::new(c, Some(i)))
        .collect();
    serve_loop(
        shards,
        submissions,
        cfg,
        routing,
        cache,
        chaos,
        |shards, spillovers, recovery| {
            let mut outcome = merge::assemble(shards, cfg, cache, routing, spillovers);
            outcome.report.recovery = recovery;
            outcome
        },
    )
}

/// The online tier's one event loop, shared by the single-cluster
/// engine and the plain and chaos federation entry points:
/// completions, membership events and arrivals merged on one virtual
/// clock (in that priority at equal instants), followed by each
/// member's step (completions + admission + shrink), the spillover
/// sweep, and each member's growth (see the module docs).
///
/// The caller builds the shards and turns the finished ones, the
/// spillover count and the snapshot's recovery note into its outcome
/// with `finish`. The snapshot is restored before the first event and
/// saved after `finish`, so the deferred baseline solves are in it.
pub(crate) fn serve_loop<T>(
    mut shards: Vec<MemberShard>,
    submissions: Vec<Submission>,
    cfg: &OnlineConfig,
    routing: RoutingPolicy,
    cache: &SolveCache,
    chaos: &[MembershipEvent],
    finish: impl FnOnce(Vec<MemberShard>, u64, Option<String>) -> T,
) -> T {
    // The one solver every lease probe is keyed by, bound once: each
    // member's probes go through this view, charging the member.
    let solver = cfg.lease_solver();
    let view = CacheView::direct(cache, &solver);
    // Durable warm start: restore the snapshot before the first event,
    // so every member sees the warm store from its first probe.
    let recovery = load_snapshot(cfg, cache, &solver);
    // `--autosave N`: rewrite the snapshot every N synchronisation
    // points (clock steps), after the growth step — the end of the
    // event, when no probe is in flight.
    let autosave_every = cfg.persist.as_ref().and_then(|p| p.autosave);
    let mut steps_since_save = 0usize;
    let mut arrivals = arrival_order(submissions);
    // Every graph this call is handed, with its arrival facts: a repeat
    // of a recipe is recognised instead of walked again.
    let mut seen = ArrivalFacts::new();

    let mut next_membership = 0usize;
    let mut clock = 0.0f64;
    let mut rr_next = 0usize;
    let mut spillovers = 0u64;

    loop {
        // ------------------------------------------------ next event(s)
        let arrival_time = arrivals.peek().map(|s| s.arrival);
        let membership_time = chaos.get(next_membership).map(|e| e.at());
        let completion_time = shards
            .iter()
            .filter_map(|sh| sh.state.next_completion_time())
            .min_by(|a, b| a.total_cmp(b));
        let queues_empty = shards.iter().all(|sh| sh.state.queue.is_empty());
        match clock::next_event(completion_time, membership_time, arrival_time, queues_empty) {
            NextEvent::Idle => break,
            // Some queue is non-empty with nothing in flight anywhere:
            // every processor of every member is free, so the step
            // below either admits or rejects each head candidate
            // (the single-cluster invariant, member by member — queues
            // only ever live on Active members, whose admission runs
            // below).
            NextEvent::Stalled => {}
            // The due completions themselves pop inside each shard's
            // `step_to` below.
            NextEvent::Completions(tc) => clock = tc,
            NextEvent::Membership(tm) => {
                clock = tm;
                while let Some(e) = chaos.get(next_membership) {
                    if e.at() > clock {
                        break;
                    }
                    next_membership += 1;
                    apply_membership(e, &mut shards, &mut seen, clock);
                }
            }
            NextEvent::Arrivals(ta) => {
                clock = ta;
                while let Some(s) = arrivals.next_if(|s| due(s, clock)) {
                    // Built once: routing screens and probes with the
                    // same facts the home queue then keeps.
                    let p = Pending::new(Arc::new(s), &mut seen);
                    match route(routing, &mut rr_next, &mut shards, &p, cfg, &view) {
                        Some(home) => shards[home].state.enqueue_arrival(p, clock),
                        // Every member failed or drained and no join is
                        // due: the arrival is deterministically rejected
                        // on the lowest-index member's record.
                        None => {
                            let reason = "no active federation member".to_string();
                            let state = &mut shards[0].state;
                            let record = RejectedRecord::of(&p, clock, reason, state.cluster_id);
                            state.rejected.push(record);
                        }
                    }
                }
            }
        }

        // -------------------- step: completions + admission + shrink
        for sh in shards.iter_mut().filter(|sh| sh.wants_step(clock)) {
            sh.step_to(clock, cfg, &view);
        }

        // -------------------------------------------------- spillover
        spillovers += spill(&mut shards, cfg, &view, clock);

        // --------------------------------- growth: elastic lease growth
        let arrivals_pending = arrivals.peek().is_some_and(|s| s.arrival <= clock);
        for sh in shards.iter_mut().filter(|sh| sh.wants_growth()) {
            sh.grow(clock, cfg, &view, arrivals_pending);
        }

        // ------------------------------------------------- autosave
        if let Some(every) = autosave_every {
            steps_since_save += 1;
            if steps_since_save >= every {
                steps_since_save = 0;
                save_snapshot(cfg, cache, &solver);
            }
        }
    }

    let outcome = finish(shards, spillovers, recovery);
    save_snapshot(cfg, cache, &solver);
    outcome
}

/// The submission stream in service order — `(arrival, id)`: each
/// submission is *moved* out of it into the one `Arc` its queue entry,
/// and later its placement, share.
fn arrival_order(
    mut submissions: Vec<Submission>,
) -> std::iter::Peekable<std::vec::IntoIter<Submission>> {
    submissions.sort_by(|a, b| a.arrival.total_cmp(&b.arrival).then(a.id.cmp(&b.id)));
    submissions.into_iter().peekable()
}

/// Whether the head of the stream arrives at `clock`. Phrased as "not
/// later" so that a NaN arrival is consumed (and served as garbage)
/// rather than spun on forever.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn due(s: &Submission, clock: f64) -> bool {
    !(s.arrival > clock)
}

#[cfg(test)]
pub(crate) mod testutil {
    use crate::submission::{stream, Submission};
    use dhp_platform::{Cluster, Processor};
    use dhp_wfgen::arrivals::ArrivalProcess;
    use dhp_wfgen::Family;

    pub(crate) fn member() -> Cluster {
        Cluster::new(
            vec![
                Processor::new("big", 4.0, 600.0),
                Processor::new("mid", 2.0, 400.0),
                Processor::new("sml", 1.0, 250.0),
            ],
            1.0,
        )
    }

    pub(crate) fn burst(n: usize) -> Vec<Submission> {
        stream(
            n,
            &[Family::Blast, Family::Seismology],
            (20, 40),
            &ArrivalProcess::Burst { at: 0.0 },
            7,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{burst, member};
    use super::*;
    use crate::engine::serve;
    use dhp_platform::Federation;

    #[test]
    fn single_member_federation_matches_the_plain_engine() {
        // `serve` is this loop over one unstamped member, so a
        // one-member federation must reduce to it: identical records
        // (modulo the cluster_id stamp) and identical fleet metrics,
        // solver statistics included.
        let cluster = member();
        let subs = burst(6);
        let plain = serve(&cluster, subs.clone(), &OnlineConfig::default());
        let fed = serve_federation(
            &Federation::from(cluster),
            subs,
            &OnlineConfig::default(),
            RoutingPolicy::LeastLoaded,
        );
        assert_eq!(fed.report.clusters.len(), 1);
        assert_eq!(fed.report.spillovers, 0);
        let mut stripped = fed.report.clusters[0].clone();
        for r in &mut stripped.workflows {
            assert_eq!(r.cluster_id, Some(0));
            r.cluster_id = None;
        }
        for r in &mut stripped.rejected {
            r.cluster_id = None;
        }
        assert_eq!(stripped.to_json(), plain.report.to_json());
        assert_eq!(fed.report.fleet.completed, plain.report.fleet.completed);
    }

    #[test]
    fn federated_runs_are_deterministic() {
        let fed = Federation::new(vec![member(), member()]);
        for routing in RoutingPolicy::ALL {
            let a = serve_federation(&fed, burst(10), &OnlineConfig::default(), routing);
            let b = serve_federation(&fed, burst(10), &OnlineConfig::default(), routing);
            assert_eq!(
                a.report.to_json(),
                b.report.to_json(),
                "{} is not deterministic",
                routing.name()
            );
        }
    }
}
