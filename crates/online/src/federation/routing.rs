//! Home-cluster assignment: the [`RoutingPolicy`] and `route`, which
//! picks an arriving workflow's member.
//!
//! `best-fit`'s placement probes go through the serve loop's cache view,
//! charging the member each probe ran against: the solve stays in the
//! shared cache for the eventual admission to replay.

use super::shard::{MemberShard, MemberStatus};
use crate::admission::can_place;
use crate::cache::CacheView;
use crate::engine::OnlineConfig;
use crate::free_set::Mask;
use crate::state::Pending;

/// How an arriving workflow is assigned its home cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Cycle the members in arrival order — oblivious, perfectly fair
    /// in submission count, blind to load and fit.
    RoundRobin,
    /// The member with the least total queued work (ties: smaller
    /// member index). Queued work is the load signal the admission
    /// queue itself exposes; in-service work is deliberately ignored —
    /// a busy cluster with an empty queue is about to be free.
    LeastLoaded,
    /// Among members that can place the workflow *right now* (probed
    /// with the admission layer's `can_place`, so the solve lands in
    /// the shared cache for the eventual admission to replay), the one
    /// with the least aggregate free speed — the tightest fit, keeping
    /// large free pools intact for large arrivals. Falls back to
    /// least-loaded when no member can place it immediately.
    BestFit,
}

impl RoutingPolicy {
    /// Display/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            RoutingPolicy::RoundRobin => "round-robin",
            RoutingPolicy::LeastLoaded => "least-loaded",
            RoutingPolicy::BestFit => "best-fit",
        }
    }

    /// Parses a CLI routing name.
    pub fn parse(s: &str) -> Option<RoutingPolicy> {
        match s {
            "round-robin" | "rr" => Some(RoutingPolicy::RoundRobin),
            "least-loaded" | "load" => Some(RoutingPolicy::LeastLoaded),
            "best-fit" | "fit" => Some(RoutingPolicy::BestFit),
            _ => None,
        }
    }

    /// All routing policies (for sweeps and tests).
    pub const ALL: [RoutingPolicy; 3] = [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::LeastLoaded,
        RoutingPolicy::BestFit,
    ];
}

/// Speed-weighted load: queued work normalised by the member's
/// aggregate speed, so a twice-as-fast member absorbs twice the
/// backlog before it ties a slow one. On homogeneous fleets the
/// divisor is a shared constant and the ordering is unchanged.
/// Ties go to the smaller member index; `None` for an empty pool.
pub(super) fn least_loaded(
    shards: &[MemberShard],
    pool: impl IntoIterator<Item = usize>,
) -> Option<usize> {
    let mut pool = pool.into_iter().peekable();
    let first = pool.next()?;
    // A one-candidate pool (every arrival on a single cluster) is
    // answered without weighing any load.
    if pool.peek().is_none() {
        return Some(first);
    }
    // Each member's load is evaluated once (`queued_work` walks the
    // queue), not once per side of every comparison.
    std::iter::once(first)
        .chain(pool)
        .map(|i| {
            let state = &shards[i].state;
            (state.queue.queued_work() / state.total_speed, i)
        })
        .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
        .map(|(_, i)| i)
}

/// Picks an arriving workflow's home cluster among the Active
/// members, or `None` when every member has drained or failed. `p` is
/// the queue entry the home cluster will keep, so the memory screen and
/// the `BestFit` probes reuse its arrival facts instead of re-deriving
/// them.
/// `BestFit` probes the members with the admission layer's
/// `can_place`; those probes are attributed to the member they ran
/// against, and their solves stay in the shared cache for the eventual
/// admission to replay.
pub(crate) fn route(
    routing: RoutingPolicy,
    rr_next: &mut usize,
    shards: &mut [MemberShard],
    p: &Pending,
    cfg: &OnlineConfig,
    view: &CacheView,
) -> Option<usize> {
    // Memory screen first: a member whose largest processor cannot hold
    // the workflow's hottest task would *permanently reject* it on
    // arrival, so routing is restricted to members that can — on a
    // heterogeneous federation a big-memory workflow must never be
    // rejected by a small home while a capable member idles
    // ([`Federation::max_memory`](dhp_platform::Federation::max_memory)
    // is the real admission ceiling). When no member passes the screen
    // every home yields the same rejection, so the unscreened pool is
    // used and the (deterministic) home records it.
    let req = p.max_task_req;
    let holds = |sh: &MemberShard| req <= sh.state.max_memory * (1.0 + 1e-9);
    if routing == RoutingPolicy::LeastLoaded {
        // Every arrival routes, so the pools are filtered in place
        // rather than collected.
        let shards: &[MemberShard] = shards;
        let active = || (0..shards.len()).filter(|&i| shards[i].status == MemberStatus::Active);
        return least_loaded(shards, active().filter(|&i| holds(&shards[i])))
            .or_else(|| least_loaded(shards, active()));
    }
    let active: Vec<usize> = (0..shards.len())
        .filter(|&i| shards[i].status == MemberStatus::Active)
        .collect();
    if active.is_empty() {
        return None;
    }
    if active.len() == 1 {
        return Some(active[0]);
    }
    let mut pool: Vec<usize> = active
        .iter()
        .copied()
        .filter(|&i| holds(&shards[i]))
        .collect();
    if pool.is_empty() {
        pool = active;
    }
    match routing {
        RoutingPolicy::RoundRobin => {
            let i = pool[*rr_next % pool.len()];
            *rr_next += 1;
            Some(i)
        }
        RoutingPolicy::LeastLoaded => unreachable!("least-loaded routing answered above"),
        RoutingPolicy::BestFit => {
            let mut best: Option<(f64, usize)> = None;
            for &j in &pool {
                let MemberShard { state, stats, .. } = &mut shards[j];
                // A view charging the probed member's own stats: the
                // probe's outcome is charged to it, exactly. The probe
                // carves from the member's own free set, whose lease
                // shapes are that member's cluster's.
                let view = view.charging(stats);
                if !can_place(&state.cluster, &mut state.free, Mask::Real, p, cfg, &view) {
                    continue;
                }
                let speed = state.free.speed();
                if best.is_none_or(|(s0, _)| speed < s0) {
                    best = Some((speed, j));
                }
            }
            best.map(|(_, j)| j)
                .or_else(|| least_loaded(shards, pool.iter().copied()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{burst, member};
    use super::*;
    use crate::engine::serve;
    use crate::federation::serve_federation;
    use crate::submission::single_task;
    use dhp_platform::{Cluster, Federation, Processor};

    #[test]
    fn routing_names_roundtrip() {
        for r in RoutingPolicy::ALL {
            assert_eq!(RoutingPolicy::parse(r.name()), Some(r));
        }
        assert_eq!(RoutingPolicy::parse("rr"), Some(RoutingPolicy::RoundRobin));
        assert_eq!(
            RoutingPolicy::parse("load"),
            Some(RoutingPolicy::LeastLoaded)
        );
        assert_eq!(RoutingPolicy::parse("fit"), Some(RoutingPolicy::BestFit));
        assert_eq!(RoutingPolicy::parse("nosuch"), None);
    }

    #[test]
    fn round_robin_cycles_the_members() {
        // Two idle members, two same-instant arrivals: round-robin puts
        // one on each.
        let fed = Federation::new(vec![member(), member()]);
        let subs = vec![
            single_task(0, 0.0, 10.0, 50.0, "a"),
            single_task(1, 0.0, 10.0, 50.0, "b"),
        ];
        let out = serve_federation(
            &fed,
            subs,
            &crate::engine::OnlineConfig::default(),
            RoutingPolicy::RoundRobin,
        );
        assert_eq!(out.report.clusters[0].fleet.completed, 1);
        assert_eq!(out.report.clusters[1].fleet.completed, 1);
    }

    #[test]
    fn routing_never_rejects_work_a_capable_member_could_serve() {
        // Heterogeneous federation: member 0's largest memory is 100,
        // member 1's is 1000. A workflow whose hottest task needs 500
        // arrives when every blind routing would home it on member 0
        // (round-robin parity, emptier queue) — the memory screen must
        // steer it to member 1 instead of letting member 0 reject it
        // while a capable member idles.
        let small = Cluster::new(vec![Processor::new("p", 1.0, 100.0)], 1.0);
        let big = Cluster::new(vec![Processor::new("q", 1.0, 1000.0)], 1.0);
        let fed = Federation::new(vec![small, big]);
        let subs = vec![single_task(0, 0.0, 5.0, 500.0, "needs-big")];
        for routing in RoutingPolicy::ALL {
            let out = serve_federation(
                &fed,
                subs.clone(),
                &crate::engine::OnlineConfig::default(),
                routing,
            );
            assert_eq!(
                out.report.fleet.rejected,
                0,
                "{} rejected a workflow member 1 could serve",
                routing.name()
            );
            let r = &out.report.clusters[1].workflows[0];
            assert_eq!((r.id, r.cluster_id, r.start), (0, Some(1), 0.0));
        }
        // A task no member can hold is still rejected — once, on a
        // deterministic home.
        let hopeless = vec![single_task(0, 0.0, 5.0, 5000.0, "monster")];
        let out = serve_federation(
            &fed,
            hopeless,
            &crate::engine::OnlineConfig::default(),
            RoutingPolicy::LeastLoaded,
        );
        assert_eq!(out.report.fleet.rejected, 1);
        assert_eq!(out.report.fleet.completed, 0);
    }

    #[test]
    fn shared_cache_hits_across_members_on_same_shape_leases() {
        // Two identical members, two same-topology workflows routed to
        // different members: the second member's admission must replay
        // the first's solve from the shared cache.
        let fed = Federation::new(vec![member(), member()]);
        let subs = {
            let mut s = burst(2);
            // Same instance on both: clone 0's graph into 1.
            let g = s[0].instance.clone();
            s[1].instance = g;
            s
        };
        let out = serve_federation(
            &fed,
            subs,
            &crate::engine::OnlineConfig::default(),
            RoutingPolicy::RoundRobin,
        );
        assert_eq!(out.report.fleet.completed, 2);
        assert_eq!(out.report.clusters[0].fleet.completed, 1);
        assert_eq!(out.report.clusters[1].fleet.completed, 1);
        assert!(
            out.report.fleet.solve_cache_hits > 0,
            "same-shape lease on the second member did not hit the shared cache: {:?}",
            (
                out.report.fleet.solve_cache_hits,
                out.report.fleet.solve_cache_misses
            )
        );
        // And the hit landed on the *second* member's account.
        assert!(out.report.clusters[1].fleet.solve_cache_hits > 0);
    }

    #[test]
    fn least_loaded_beats_single_cluster_mean_wait_on_a_burst() {
        // The acceptance pinning test: a two-member federation under
        // least-loaded routing must not be slower (mean wait) than one
        // member alone serving the same burst.
        let cluster = member();
        let subs = burst(10);
        let single = serve(
            &cluster,
            subs.clone(),
            &crate::engine::OnlineConfig::default(),
        );
        let fed = serve_federation(
            &Federation::homogeneous(cluster, 2),
            subs,
            &crate::engine::OnlineConfig::default(),
            RoutingPolicy::LeastLoaded,
        );
        assert_eq!(
            fed.report.fleet.completed + fed.report.fleet.rejected,
            single.report.fleet.completed + single.report.fleet.rejected
        );
        assert!(
            fed.report.fleet.mean_wait <= single.report.fleet.mean_wait + 1e-9,
            "two least-loaded members waited longer than one cluster: {} vs {}",
            fed.report.fleet.mean_wait,
            single.report.fleet.mean_wait
        );
    }
}
