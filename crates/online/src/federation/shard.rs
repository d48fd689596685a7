//! One federation member's isolated serving slice: its
//! [`ClusterState`], its membership status, and its solve-cache
//! account.
//!
//! A [`MemberShard`] is the unit of parallelism. Its entry points —
//! [`MemberShard::step_to`] for the completion/admission/shrink phase
//! and [`MemberShard::grow`] for the elastic-growth phase — touch
//! nothing but the shard's own state and its own [`CacheAccount`], and
//! probe the shared [`SolveCache`] exclusively through a *frozen*
//! [`CacheView`](dhp_core::partial::CacheView): the store is read-only
//! for the duration of the phase, deferred effects are replayed by the
//! driver's ordered seal. That isolation is what lets [`run_phase`]
//! dispatch shards onto a [`std::thread::scope`] pool while keeping
//! the run byte-identical to the sequential path.
//!
//! The shard's [`CacheAccount`] is the **single owner** of the
//! member's solver-stat attribution: every probe the member causes —
//! its own admission and lease solves (frozen, charged at probe time),
//! and the driver's routing/spillover probes against it (live views
//! built over this same account) — lands here and nowhere else. No
//! global-counter diffing happens anywhere in the federation, so
//! interleaved steps cannot double-count.

use crate::engine::OnlineConfig;
use crate::state::ClusterState;
use dhp_core::partial::{CacheAccount, CacheView, SolveCache};
use dhp_platform::Cluster;
use std::sync::atomic::{AtomicUsize, Ordering};

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
/// account its solver statistics are attributed to.
pub(crate) struct MemberShard {
    /// The member's per-cluster engine state.
    pub(crate) state: ClusterState,
    /// The member's membership lifecycle status.
    pub(crate) status: MemberStatus,
    /// The single owner of this member's solver-stat attribution (see
    /// the module docs); sealed by the driver at every sync point.
    pub(crate) account: CacheAccount,
}

impl MemberShard {
    /// A fresh Active shard for member `index`.
    pub(crate) fn new(cluster: &Cluster, index: usize) -> MemberShard {
        MemberShard {
            state: ClusterState::new(cluster, Some(index)),
            status: MemberStatus::Active,
            account: CacheAccount::default(),
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
            || (self.status == MemberStatus::Active && !self.state.queue_is_empty())
    }

    /// The shard's per-event serving step: pop due completions, then —
    /// if Active — run the admission passes and the elastic shrink
    /// sweep. All cache probes go through a frozen view over the
    /// shard's own account, so this is safe to run concurrently with
    /// sibling shards.
    pub(crate) fn step_to(
        &mut self,
        clock: f64,
        cfg: &OnlineConfig,
        cache: &SolveCache,
        config_hash: u64,
    ) {
        self.state.process_due_completions(clock);
        if self.status != MemberStatus::Active {
            return;
        }
        let MemberShard { state, account, .. } = self;
        let view = CacheView::frozen(cache, account);
        crate::admission::admission_passes(state, cfg, &view, config_hash, clock);
        // Before the spillover sweep: processors reclaimed here are
        // visible to the migration probes of this very event.
        crate::lease::run_shrink(state, cfg, &view, config_hash, clock);
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
        cache: &SolveCache,
        config_hash: u64,
        arrivals_pending: bool,
    ) {
        if self.status == MemberStatus::Failed {
            return;
        }
        let MemberShard { state, account, .. } = self;
        let view = CacheView::frozen(cache, account);
        crate::lease::run_growth(state, cfg, &view, config_hash, clock, arrivals_pending);
    }
}

/// Runs one parallel phase: `f` over the shards at the (ascending)
/// indices `members`, on a [`std::thread::scope`] pool with
/// work-stealing by atomic index. With `serial` set (the
/// `--serial-federation` escape hatch), fewer than two members, or a
/// single-core host the shards run inline, in index order — and because
/// every shard's step is isolated (own state, own account, frozen
/// store), the parallel path is byte-identical to it: the only thing
/// thread timing can reorder is commutative atomic counter bumps. This
/// runs twice per event and most phases hold one shard, so the decision
/// reads the cached [`dhp_core::host_cores`] and never the OS, and the
/// inline path builds nothing.
pub(crate) fn run_phase<F>(shards: &mut [MemberShard], members: &[usize], serial: bool, f: F)
where
    F: Fn(&mut MemberShard) + Sync,
{
    let workers = dhp_core::host_cores().min(members.len());
    // A one-worker pool is just the inline loop with thread-spawn
    // overhead on top; take the inline path whenever it is exact.
    if serial || workers <= 1 {
        for &i in members {
            f(&mut shards[i]);
        }
        return;
    }
    // Slot locks are the outermost rank of the workspace ladder: a
    // worker holds one across the whole member step, which probes the
    // solve-cache stripes and runs solvers underneath (the debug-build
    // rank tracker enforces exactly that nesting order).
    let slots: Vec<parking_lot::Mutex<&mut MemberShard>> = shards
        .iter_mut()
        .enumerate()
        .filter(|(i, _)| members.binary_search(i).is_ok())
        .map(|(_, sh)| parking_lot::Mutex::with_rank(sh, parking_lot::ranks::PHASE_SLOT))
        .collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(i) else { break };
                let mut shard = slot.lock();
                f(&mut shard);
            });
        }
    });
}
