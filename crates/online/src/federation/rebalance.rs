//! Cross-member rebalancing: the spillover sweep and the drain/fail
//! queue migration.
//!
//! Both move work *between* shards, so they run between the members'
//! own steps. Spillover's placement probes are charged to the source
//! member's stats.
//!
//! The sweep runs at every event, and on a busy fleet most of the
//! (candidate, destination) pairs it considers cannot place: either the
//! destination has no free processor, or the candidate's hottest task
//! exceeds the destination's largest free memory. `find_placement`
//! answers both before it reaches the cache, so the sweep asks them
//! first ([`turned_away`], reading a destination's largest free memory
//! at most once per sweep) and skips the probe — along with its live
//! view and free-list rebuild. A source with nothing
//! queued is passed over before its storage is touched. The screen repeats
//! exactly those two answers, in the same expression (a NaN
//! requirement still probes), and nothing else. In particular a pair
//! that failed at an earlier event is probed again even if neither
//! side changed since: such a probe reaches the cache, and its hit is
//! charged to the source member's stats, which the report and its
//! digest include.

use super::routing::least_loaded;
use super::shard::{MemberShard, MemberStatus};
use crate::admission::{admission_passes, can_place, BACKFILL_DEPTH};
use crate::engine::OnlineConfig;
use crate::report::RejectedRecord;
use crate::state::Pending;
use dhp_core::partial::{CacheView, SolveCache};

/// Re-runs a member's admission passes with a live view over its own
/// stats (the spillover sweep admits movers and re-admits drained
/// sources mid-event).
fn readmit(
    shard: &mut MemberShard,
    cfg: &OnlineConfig,
    cache: &SolveCache,
    config_hash: u64,
    clock: f64,
) {
    let MemberShard { state, stats, .. } = shard;
    admission_passes(
        state,
        cfg,
        &CacheView::live(cache, stats),
        config_hash,
        clock,
    );
}

/// Whether `can_place` is certain to refuse a candidate whose hottest
/// task needs `max_task_req` on a member with `free_count` free
/// processors, the largest of which holds `top_free()` — without
/// reaching the cache. These are exactly `find_placement`'s two early
/// answers: an empty free set, and a hottest task above the largest
/// free memory (the same comparison, so a NaN requirement is not
/// turned away and still probes). The memory is only read when some
/// processor is free.
pub(crate) fn turned_away(
    free_count: usize,
    top_free: impl FnOnce() -> f64,
    max_task_req: f64,
) -> bool {
    free_count == 0 || max_task_req > top_free() * (1.0 + 1e-9)
}

/// Member `j`'s largest free memory, read at most once per sweep into
/// `memo` (its free set only moves when it admits, which clears the
/// entry).
fn top_free_of(memo: &mut [Option<f64>], shards: &[MemberShard], j: usize) -> f64 {
    *memo[j].get_or_insert_with(|| shards[j].state.top_free_memory())
}

/// The cross-cluster spillover sweep: every workflow still queued after
/// its home cluster's admission pass is offered to the first other
/// member that can place it *now*; each mover is admitted on its new
/// home *immediately* (before the sweep probes the next candidate), so
/// several blocked workflows can never all claim the same free
/// processors, and a source whose entries migrated away re-runs its own
/// admission afterwards — the departure may have unblocked its new
/// effective head at this very instant. Bounded: at most
/// [`BACKFILL_DEPTH`] queued candidates are probed per source cluster
/// per event, and a workflow migrates at most once per event (no
/// ping-pong). Returns the number of migrations.
///
/// Screened before probed (see the module docs): a source with an
/// empty queue is passed over, and a destination [`turned_away`] by
/// its free count or its largest free memory is not probed. `top_free`
/// memoizes each member's largest free memory for the sweep (the
/// caller keeps the buffer across events, so a sweep allocates
/// nothing); a member's entry is dropped when it admits.
pub(crate) fn spill(
    shards: &mut [MemberShard],
    top_free: &mut Vec<Option<f64>>,
    cfg: &OnlineConfig,
    cache: &SolveCache,
    config_hash: u64,
    clock: f64,
) -> u64 {
    let n = shards.len();
    if n < 2 {
        return 0;
    }
    // Fast path: with no free processor on any Active member every
    // destination is turned away, so the whole sweep is a no-op.
    if !shards
        .iter()
        .any(|sh| sh.status == MemberStatus::Active && sh.state.free_count > 0)
    {
        return 0;
    }
    top_free.clear();
    top_free.resize(n, None);
    let mut moved = 0u64;
    // Ids that migrated at this event: at most one event's moves.
    let mut moved_ids: Vec<usize> = Vec::new();
    let mut drained_sources: Vec<usize> = Vec::new();
    for i in 0..n {
        if shards[i].state.queue_is_empty() {
            continue;
        }
        // The sweep walks and splices raw queue storage, so fold any
        // admission tombstones out of it first (no-op when none).
        shards[i].state.compact_queue();
        let mut qi = 0usize;
        let mut probed = 0usize;
        while qi < shards[i].state.queue.len() && probed < BACKFILL_DEPTH {
            let cand = &shards[i].state.queue[qi];
            if moved_ids.contains(&cand.id) {
                qi += 1;
                continue;
            }
            let req = cand.max_task_req;
            probed += 1;
            let mut dest: Option<usize> = None;
            for j in 0..n {
                // Only Active members receive spillover: a draining
                // member is emptying out and a failed one is gone.
                if j == i
                    || shards[j].status != MemberStatus::Active
                    || turned_away(
                        shards[j].state.free_count,
                        || top_free_of(top_free, shards, j),
                        req,
                    )
                {
                    continue;
                }
                // The probe is charged to the *source*: spillover is
                // the home queue's cost of finding a new home. It carves
                // from the destination's own free list (its lease shapes
                // are the destination cluster's), moved out for the
                // probe because the candidate borrows the source shard.
                let mut stats = shards[i].stats;
                let mut free = std::mem::take(&mut shards[j].state.scratch.free_sorted);
                let fits = can_place(
                    &shards[j].state.cluster,
                    &shards[j].state.mem_order,
                    &shards[j].state.free,
                    &shards[i].state.queue[qi],
                    cfg,
                    &CacheView::live(cache, &mut stats),
                    config_hash,
                    &mut free,
                );
                shards[j].state.scratch.free_sorted = free;
                shards[i].stats = stats;
                if fits {
                    dest = Some(j);
                    break;
                }
            }
            if let Some(j) = dest {
                let p = shards[i].state.remove_queued(qi);
                moved_ids.push(p.id);
                shards[j].state.insert_pending(p);
                moved += 1;
                drained_sources.push(i);
                // Consume the receiver's capacity right now: the mover
                // was placeable an instant ago, and admitting it before
                // the next probe keeps every later `can_place` honest
                // about what is actually still free.
                readmit(&mut shards[j], cfg, cache, config_hash, clock);
                top_free[j] = None;
            } else {
                qi += 1;
            }
        }
    }
    // A departure can unblock its old queue — under FIFO the migrated
    // head was the only candidate ever tried — so every drained source
    // gets one more admission round at this event.
    drained_sources.sort_unstable();
    drained_sources.dedup();
    for i in drained_sources {
        readmit(&mut shards[i], cfg, cache, config_hash, clock);
    }
    moved
}

/// Re-homes one displaced pending workflow: memory-screened,
/// speed-weighted least-loaded over the Active members (ties: smaller
/// index). Falls back to the unscreened Active pool (the new home's
/// arrival screen records the rejection deterministically) and, with
/// no Active member at all, rejects on the displacing member `src`.
pub(super) fn migrate_pending(shards: &mut [MemberShard], src: usize, p: Pending, clock: f64) {
    let active: Vec<usize> = (0..shards.len())
        .filter(|&i| shards[i].status == MemberStatus::Active)
        .collect();
    if active.is_empty() {
        let cluster_id = shards[src].state.cluster_id;
        shards[src].state.rejected.push(RejectedRecord {
            id: p.id,
            name: p.submission.instance.name.clone(),
            arrival: p.arrival,
            rejected_at: clock,
            wait: clock - p.arrival,
            reason: "member left the federation with no surviving active member".to_string(),
            cluster_id,
        });
        return;
    }
    let screened: Vec<usize> = active
        .iter()
        .copied()
        .filter(|&i| p.max_task_req <= shards[i].state.max_memory * (1.0 + 1e-9))
        .collect();
    let pool = if screened.is_empty() {
        &active
    } else {
        &screened
    };
    let dest = least_loaded(shards, pool.iter().copied())
        .unwrap_or_else(|| unreachable!("the pool holds an Active member"));
    if screened.is_empty() {
        // No active member can hold the hottest task: record the
        // rejection through the destination's own arrival screen.
        shards[dest].state.enqueue_arrival(p, clock);
    } else {
        shards[dest].state.insert_pending(p);
    }
}

#[cfg(test)]
mod tests {
    use super::super::routing::RoutingPolicy;
    use super::super::serve_federation;
    use super::turned_away;
    use crate::admission::can_place;
    use crate::engine::OnlineConfig;
    use crate::state::{ArrivalFacts, ClusterState, FreeList, Pending};
    use crate::submission::single_task;
    use dhp_core::partial::{CacheView, SolveCache, SolveCacheStats};
    use dhp_platform::{Cluster, Federation, Processor};
    use proptest::prelude::*;
    use std::sync::Arc;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The destination screen is exact: it turns a member away
        /// precisely when `can_place` would refuse without reaching the
        /// cache. Turned away ⇒ `can_place` is false and neither the
        /// probing account nor the cache's global counters move; let
        /// through ⇒ the probe reaches the cache. Over random member
        /// clusters, random, empty and full free sets, and hottest-task
        /// requirements that are NaN, ±0, ±∞, exactly the largest free
        /// memory, on either side of its tolerance, or anything.
        #[test]
        fn the_spill_screen_turns_away_exactly_the_unprobed_refusals(
            procs in collection::vec(
                (1.0f64..4.0, sample::select(vec![10.0, 50.0, 120.0, 600.0, 1000.0])),
                1..=6,
            ),
            mask in collection::vec(any::<bool>(), 6),
            free_mode in 0usize..3,
            req_kind in 0usize..10,
            x in 0.0f64..1200.0,
            task_memory in 1.0f64..800.0,
        ) {
            let cluster = Cluster::new(
                procs.iter().map(|&(speed, memory)| Processor::new("p", speed, memory)).collect(),
                1.0,
            );
            let mut state = ClusterState::new(&cluster, Some(0));
            for (i, free) in state.free.iter_mut().enumerate() {
                *free = match free_mode {
                    0 => mask[i],
                    1 => false,
                    _ => true,
                };
            }
            state.free_count = state.free.iter().filter(|&&f| f).count();
            let top = state.top_free_memory();
            let req = match req_kind {
                0 => f64::NAN,
                1 => 0.0,
                2 => -0.0,
                3 => f64::INFINITY,
                4 => f64::NEG_INFINITY,
                5 => top,
                6 => top * (1.0 + 1e-9),
                7 => top * (1.0 + 2e-9),
                _ => x,
            };
            let cand = Pending {
                max_task_req: req,
                ..Pending::new(
                    Arc::new(single_task(0, 0.0, 5.0, task_memory, "cand")),
                    &mut ArrivalFacts::new(),
                )
            };
            let cfg = OnlineConfig::default();
            let cache = SolveCache::new();
            let global = cache.stats();
            let mut account = SolveCacheStats::default();
            let fits = {
                let view = CacheView::live(&cache, &mut account);
                can_place(
                    &state.cluster,
                    &state.mem_order,
                    &state.free,
                    &cand,
                    &cfg,
                    &view,
                    SolveCache::config_hash(&cfg.solver),
                    &mut FreeList::default(),
                )
            };
            if turned_away(state.free_count, || state.top_free_memory(), req) {
                prop_assert!(!fits, "a turned-away destination placed {req}");
                prop_assert_eq!(account, SolveCacheStats::default());
                prop_assert_eq!(cache.stats(), global);
            } else {
                prop_assert!(account != SolveCacheStats::default());
                prop_assert!(cache.stats() != global, "an unscreened probe skipped the cache");
            }
        }
    }

    #[test]
    fn spillover_moves_blocked_work_to_a_free_member() {
        // Round-robin homes (by arrival order): hog → member 0 (busy
        // until t=100), filler → member 1 (busy until t=2.5), spiller →
        // member 0, where it blocks behind the hog. At t=2.5 the
        // filler's completion frees member 1, and the spillover sweep
        // must migrate the spiller there instead of letting it wait out
        // the hog until t=100.
        let small = Cluster::new(vec![Processor::new("p", 1.0, 100.0)], 1.0);
        let fed = Federation::new(vec![small.clone(), small]);
        let subs = vec![
            single_task(0, 0.0, 100.0, 50.0, "hog"),   // rr → member 0
            single_task(1, 0.5, 2.0, 50.0, "filler"),  // rr → member 1
            single_task(2, 1.0, 5.0, 50.0, "spiller"), // rr → member 0, blocked
        ];
        let out = serve_federation(
            &fed,
            subs,
            &OnlineConfig::default(),
            RoutingPolicy::RoundRobin,
        );
        assert!(out.report.spillovers >= 1, "no spillover happened");
        let spiller = out
            .report
            .clusters
            .iter()
            .flat_map(|c| c.workflows.iter())
            .find(|r| r.id == 2)
            .expect("spiller served");
        // Served the moment member 1 freed, not at t=100.
        assert_eq!(spiller.start, 2.5);
        assert_eq!(spiller.cluster_id, Some(1));
    }

    #[test]
    fn spillover_readmits_the_drained_source_queue_in_the_same_event() {
        // Member 0: a big and a small processor; member 1: one big
        // processor. Round-robin homes (arrival order): hog → m0's big
        // (until t=100), quick → m1 (until t=2), head A (needs big
        // memory) → m0 where it blocks, B (small) → m1 where it queues
        // (then migrates behind m0's blocked FIFO head A at t=1). At
        // t=2 member 1 frees and A spills there; m0's queue now heads
        // the perfectly placeable B — the drained source must re-run
        // admission at t=2 instead of idling B until the next event.
        let m0 = Cluster::new(
            vec![
                Processor::new("big", 1.0, 500.0),
                Processor::new("sml", 1.0, 100.0),
            ],
            1.0,
        );
        let m1 = Cluster::new(vec![Processor::new("big", 1.0, 500.0)], 1.0);
        let fed = Federation::new(vec![m0, m1]);
        let subs = vec![
            single_task(0, 0.0, 100.0, 450.0, "hog"),  // rr → m0 big
            single_task(1, 0.0, 2.0, 450.0, "quick"),  // rr → m1
            single_task(2, 1.0, 50.0, 400.0, "headA"), // rr → m0, blocked
            single_task(3, 1.0, 5.0, 50.0, "B"),       // rr → m1, queued
        ];
        let out = serve_federation(
            &fed,
            subs,
            &OnlineConfig::default(),
            RoutingPolicy::RoundRobin,
        );
        let find = |id: usize| {
            out.report
                .clusters
                .iter()
                .flat_map(|c| c.workflows.iter())
                .find(|r| r.id == id)
                .unwrap()
                .clone()
        };
        // A ends up on member 1 the instant it frees...
        assert_eq!((find(2).cluster_id, find(2).start), (Some(1), 2.0));
        // ...and B starts on member 0 at that same instant: the source
        // re-admission, not the next completion at t=52.
        assert_eq!((find(3).cluster_id, find(3).start), (Some(0), 2.0));
        assert!(out.report.spillovers >= 1);
    }
}
