//! Cross-member rebalancing: the spillover sweep and the drain/fail
//! queue migration.
//!
//! Both run on the driver thread between parallel phases — they are
//! the sequential synchronisation points of the federation, because
//! they move work *between* shards. Spillover's placement probes use
//! *live* cache views charged to the source member's account.

use super::routing::least_loaded;
use super::shard::{MemberShard, MemberStatus};
use crate::admission::{admission_passes, can_place, BACKFILL_DEPTH};
use crate::engine::OnlineConfig;
use crate::report::RejectedRecord;
use crate::state::Pending;
use dhp_core::partial::{CacheView, SolveCache};
use std::collections::HashSet;

/// Re-runs a member's admission passes with a live view over its own
/// account (the spillover sweep admits movers and re-admits drained
/// sources mid-event, where store effects are safe and wanted).
fn readmit(
    shard: &mut MemberShard,
    cfg: &OnlineConfig,
    cache: &SolveCache,
    config_hash: u64,
    clock: f64,
) {
    let mut account = std::mem::take(&mut shard.account);
    {
        let view = CacheView::live(cache, &mut account);
        admission_passes(&mut shard.state, cfg, &view, config_hash, clock);
    }
    shard.account = account;
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
pub(super) fn spill(
    shards: &mut [MemberShard],
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
    // migration probe fails before reaching a solver (an empty free set
    // is unplaceable without a probe), so the whole sweep is a no-op —
    // skip the O(members² × depth) scan outright. This matters at
    // fleet scale, where most events leave every member saturated.
    if !shards
        .iter()
        .any(|sh| sh.status == MemberStatus::Active && sh.state.free_count > 0)
    {
        return 0;
    }
    let mut moved = 0u64;
    let mut moved_ids: HashSet<usize> = HashSet::new();
    let mut drained_sources: Vec<usize> = Vec::new();
    // Probe buffer local to the sweep: the shards' own scratch arenas
    // are unreachable here (every probe borrows two shards at once),
    // and spillover is off the admission hot path.
    let mut buf = Vec::new();
    for i in 0..n {
        // The sweep walks and splices raw queue storage, so fold any
        // admission tombstones out of it first (no-op when none).
        shards[i].state.compact_queue();
        let mut qi = 0usize;
        let mut probed = 0usize;
        while qi < shards[i].state.queue.len() && probed < BACKFILL_DEPTH {
            if moved_ids.contains(&shards[i].state.queue[qi].id) {
                qi += 1;
                continue;
            }
            probed += 1;
            let mut dest: Option<usize> = None;
            for j in 0..n {
                // Only Active members receive spillover: a draining
                // member is emptying out and a failed one is gone.
                if j == i || shards[j].status != MemberStatus::Active {
                    continue;
                }
                // The probe is charged to the *source*: spillover is
                // the home queue's cost of finding a new home.
                let mut account = std::mem::take(&mut shards[i].account);
                let fits = {
                    let view = CacheView::live(cache, &mut account);
                    can_place(
                        &shards[j].state.cluster,
                        &shards[j].state.mem_order,
                        &shards[j].state.free,
                        &shards[i].state.queue[qi],
                        cfg,
                        &view,
                        config_hash,
                        &mut buf,
                    )
                };
                shards[i].account = account;
                if fits {
                    dest = Some(j);
                    break;
                }
            }
            if let Some(j) = dest {
                let p = shards[i].state.queue.remove(qi);
                shards[i].state.dead.pop();
                moved_ids.insert(p.id);
                shards[j].state.insert_pending(p);
                moved += 1;
                drained_sources.push(i);
                // Consume the receiver's capacity right now: the mover
                // was placeable an instant ago, and admitting it before
                // the next probe keeps every later `can_place` honest
                // about what is actually still free.
                readmit(&mut shards[j], cfg, cache, config_hash, clock);
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
    let dest = least_loaded(shards, pool);
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
    use crate::engine::OnlineConfig;
    use crate::submission::single_task;
    use dhp_platform::{Cluster, Federation, Processor};

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
