//! One federation member's serving slice: its [`ClusterState`], its
//! membership status, and the solver statistics charged to it.
//!
//! [`MemberShard::step_to`] (completions, admission, shrink) and
//! [`MemberShard::grow`] (elastic growth) touch nothing but the shard's
//! own state, and probe the shared
//! [`SolveCache`](crate::cache::SolveCache) through the serve
//! loop's view, [`CacheView::charging`] the shard's own `stats`. The
//! driver calls them member after member on one thread, so a solve one
//! member inserts is a hit for a sibling stepping later in the same
//! event.
//!
//! `stats` is the **single owner** of the member's solver-stat
//! attribution: every probe the member causes — its own admission and
//! lease solves, and the driver's routing/spillover probes against it
//! (views charging this same field) — lands here and nowhere else. No
//! global-counter diffing happens anywhere in the federation.

use crate::cache::{CacheView, SolveCacheStats};
use crate::engine::OnlineConfig;
use crate::state::ClusterState;
use dhp_platform::Cluster;

/// Lifecycle of a federation member under membership events. Without a
/// chaos plan every member stays `Active` forever and the loop is
/// byte-identical to the pre-chaos federation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MemberStatus {
    /// Serving normally: routes, admits, spills, grows, shrinks.
    Active,
    /// Drained: in-service work runs to completion (elastic growth may
    /// still speed it up), but the member accepts no new work.
    Draining,
    /// Failed: the member is gone; its processors serve nothing.
    Failed,
}

/// One federation member: its engine state, membership status, and the
/// solver statistics attributed to it.
pub(crate) struct MemberShard {
    /// The member's per-cluster engine state.
    pub(crate) state: ClusterState,
    /// The member's membership lifecycle status.
    pub(crate) status: MemberStatus,
    /// The single owner of this member's solver-stat attribution (see
    /// the module docs).
    pub(crate) stats: SolveCacheStats,
}

impl MemberShard {
    /// A fresh Active shard: `Some(i)` for federation member `i`, whose
    /// records carry `cluster_id = i`; `None` for the single-cluster
    /// engine's one shard, whose records carry no `cluster_id`.
    pub(crate) fn new(cluster: &Cluster, cluster_id: Option<usize>) -> MemberShard {
        MemberShard {
            state: ClusterState::new(cluster, cluster_id),
            status: MemberStatus::Active,
            stats: SolveCacheStats::default(),
        }
    }

    /// Whether [`MemberShard::step_to`] would do anything at `clock`:
    /// a completion is due, or the member is Active with queued work.
    /// Everything `step_to` runs is a no-op otherwise (admission and
    /// shrink passes over an empty queue make no probes and change no
    /// state), so the driver skips ineligible shards without changing
    /// the run.
    pub(crate) fn wants_step(&self, clock: f64) -> bool {
        self.state
            .next_completion_time()
            .is_some_and(|t| t <= clock)
            || (self.status == MemberStatus::Active && !self.state.queue.is_empty())
    }

    /// The shard's per-event serving step: pop due completions, then —
    /// if Active — run the admission passes and the elastic shrink
    /// sweep, probing through `view` charging the shard's own stats.
    pub(crate) fn step_to(&mut self, clock: f64, cfg: &OnlineConfig, view: &CacheView) {
        self.state.process_due_completions(clock);
        if self.status != MemberStatus::Active {
            return;
        }
        let MemberShard { state, stats, .. } = self;
        let view = view.charging(stats);
        crate::admission::admission_passes(state, cfg, &view, clock);
        // Before the spillover sweep: processors reclaimed here are
        // visible to the migration probes of this very event.
        crate::lease::run_shrink(state, cfg, &view, clock);
    }

    /// Whether [`MemberShard::grow`] would do anything: the member
    /// still exists and a completion armed elastic growth. `run_growth`
    /// with the flag down only re-clears the flag, so skipping it is
    /// exact.
    pub(crate) fn wants_growth(&self) -> bool {
        self.status != MemberStatus::Failed && self.state.growth_pending
    }

    /// The shard's elastic-growth step. Draining members still grow:
    /// their free processors can serve nothing else, and growth drains
    /// the member sooner.
    pub(crate) fn grow(
        &mut self,
        clock: f64,
        cfg: &OnlineConfig,
        view: &CacheView,
        arrivals_pending: bool,
    ) {
        if self.status == MemberStatus::Failed {
            return;
        }
        let MemberShard { state, stats, .. } = self;
        let view = view.charging(stats);
        crate::lease::run_growth(state, cfg, &view, clock, arrivals_pending);
    }
}
