//! The memo itself: every solve outcome (and its simulation, once one
//! is asked for) under its key, with an LRU recency clock, behind one
//! mutex.

use super::view::{ProbeKey, WarmProbe};
use dhp_core::daghetpart::DagHetPartConfig;
use dhp_core::{Algorithm, MappingResult, SchedError};
use std::collections::HashMap;
use std::sync::Arc;

/// Hit/miss counters of a [`SolveCache`], snapshot via
/// [`SolveCache::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveCacheStats {
    /// Calls answered from a memoized entry (including memoized
    /// `NoSolution` outcomes).
    pub hits: u64,
    /// Calls that ran a solver. With the cache disabled every call is a
    /// miss, so this field always counts solver invocations.
    pub misses: u64,
    /// Entries evicted by a capacity-bounded cache
    /// ([`SolveCache::with_capacity`]); always 0 for the unbounded
    /// default.
    pub evictions: u64,
    /// Sim-outcome probes answered from a memoized simulation.
    pub sim_hits: u64,
    /// Sim-outcome probes that ran the discrete-event simulator. With
    /// the cache disabled every probe is a miss, so this field always
    /// counts simulator invocations routed through the cache.
    pub sim_misses: u64,
}

/// A memoized discrete-event simulation outcome in **lease-local**
/// processor ids: exactly the values the online admission/growth paths
/// need to fix a workflow's completion instant and busy-time ledger,
/// keyed next to the solve it simulates (same key space as the solve
/// store). Stored behind an [`Arc`] so a hit is a refcount bump under
/// the store lock.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct SimOutcome {
    /// Simulated makespan of the mapping on the lease.
    pub(crate) makespan: f64,
    /// Per-task start offsets (relative to the lease grant instant).
    pub(crate) task_start: Vec<f64>,
    /// Per-task finish offsets.
    pub(crate) task_finish: Vec<f64>,
    /// Per-lane `(lease-local processor index, busy time)` pairs, in
    /// timeline lane order.
    pub(crate) lanes: Vec<(u32, f64)>,
}

/// Cache key: everything a solve outcome depends on.
///
/// * the workflow's structural fingerprint
///   ([`Dag::fingerprint`](dhp_dag::Dag::fingerprint)),
/// * the lease's shape signature
///   ([`SubCluster::shape_signature`](dhp_platform::SubCluster::shape_signature))
///   — concrete processor ids are *not* part of the key, the cached
///   local-id mapping is remapped onto the probe's processors on a hit,
/// * the algorithm,
/// * a hash of the solver configuration ([`SolveCache::config_hash`]).
pub(crate) type SolveKey = (u64, u64, Algorithm, u64);

/// The store's map hasher. Every word of a [`SolveKey`] is already a
/// hash (or the algorithm's discriminant), so the store folds them
/// ([`FoldState`](dhp_dag::fingerprint::FoldState)) instead of running
/// SipHash over them again. Test builds count each key hash (the
/// `tally` module of test builds).
#[cfg(not(test))]
type StoreHasher = dhp_dag::fingerprint::FoldState;
#[cfg(test)]
type StoreHasher = super::tally::CountingFold;

/// A clone of a memoized value's [`Arc`]: every clone the store hands
/// out goes through here, so test builds can count them (`tally`).
pub(super) fn share<T>(value: &Arc<T>) -> Arc<T> {
    #[cfg(test)]
    super::tally::bump(&super::tally::ARC_CLONES);
    Arc::clone(value)
}

/// A memoized solve outcome in lease-local processor ids. Solved
/// entries sit behind an [`Arc`] so a hit clones a refcount under the
/// map lock, not an O(tasks) mapping. A solved entry also holds the
/// simulation of its mapping once a probe has asked for it; the sim
/// carries no LRU stamp of its own and leaves with its entry.
#[derive(Clone, Debug)]
pub(crate) enum CachedSolve {
    Solved {
        local: Arc<MappingResult>,
        sim: Option<Arc<SimOutcome>>,
    },
    NoSolution,
}

impl CachedSolve {
    /// The entry a solve outcome is memoized as (no sim yet).
    fn of(outcome: &Result<Arc<MappingResult>, SchedError>) -> CachedSolve {
        match outcome {
            Ok(local) => CachedSolve::Solved {
                local: share(local),
                sim: None,
            },
            Err(SchedError::NoSolution) => CachedSolve::NoSolution,
        }
    }

    /// The outcome a hit on this entry answers with.
    fn outcome(&self) -> Result<Arc<MappingResult>, SchedError> {
        match self {
            CachedSolve::Solved { local, .. } => Ok(share(local)),
            CachedSolve::NoSolution => Err(SchedError::NoSolution),
        }
    }

    /// The memoized simulation, if this is a solved entry that has one.
    pub(super) fn sim(&self) -> Option<&Arc<SimOutcome>> {
        match self {
            CachedSolve::Solved { sim, .. } => sim.as_ref(),
            CachedSolve::NoSolution => None,
        }
    }

    /// Whether this entry can answer for a graph of `tasks` tasks on a
    /// lease of `procs` processors: one block per task, every block on
    /// a lease-local processor below `procs`, and a sim (if any) with
    /// one start and finish per task and its lanes on the lease. Every
    /// entry a solver inserted fits its key's graph and lease; a
    /// snapshot entry can pass the reader's own checks and still not
    /// fit, because the reader sees neither. `O(blocks + lanes)`, no
    /// allocation.
    fn fits(&self, tasks: usize, procs: usize) -> bool {
        let CachedSolve::Solved { local, sim } = self else {
            return true;
        };
        let on_lease = |p: usize| p < procs;
        local.mapping.partition.len() == tasks
            && local
                .mapping
                .proc_of_block
                .iter()
                .all(|p| p.is_some_and(|p| on_lease(p.idx())))
            && sim.as_ref().is_none_or(|sim| {
                sim.task_start.len() == tasks
                    && sim.task_finish.len() == tasks
                    && sim.lanes.iter().all(|&(p, _)| on_lease(p as usize))
            })
    }
}

/// Everything a [`SolveCache`] holds, behind its one mutex.
#[derive(Debug, Default)]
pub(super) struct Store {
    /// Memoized solves (each with its sim, once simulated) and their
    /// LRU recency stamps.
    pub(super) entries: HashMap<SolveKey, (CachedSolve, u64), StoreHasher>,
    stats: SolveCacheStats,
    /// The monotone recency clock: each lookup and insert draws a
    /// unique stamp, so the LRU victim is well-defined.
    tick: u64,
}

/// A [`Store`]'s contents by value, as a snapshot saves and restores
/// them: the recency clock, the counters, and every entry with its LRU
/// stamp.
#[derive(Debug)]
pub(crate) struct StoreImage {
    pub(crate) tick: u64,
    pub(crate) stats: SolveCacheStats,
    pub(crate) entries: Vec<(SolveKey, CachedSolve, u64)>,
}

impl Store {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Reads `key`'s entry with `read` if it [fits](CachedSolve::fits)
    /// a graph of `tasks` tasks on `procs` processors. An entry that
    /// does not is dropped and reads as absent, so its probe solves
    /// again as a miss. One hash of the key, two when it drops one.
    pub(super) fn read_fitting<R>(
        &mut self,
        key: &SolveKey,
        tasks: usize,
        procs: usize,
        read: impl FnOnce(&mut (CachedSolve, u64)) -> R,
    ) -> Option<R> {
        let mut misfit = false;
        let found = match self.entries.get_mut(key) {
            Some(entry) if entry.0.fits(tasks, procs) => Some(read(entry)),
            found => {
                misfit = found.is_some();
                None
            }
        };
        if misfit {
            self.entries.remove(key);
        }
        found
    }

    /// One probe of the solve memo for a graph of `tasks` tasks on
    /// `procs` processors: draws a recency tick, hit or miss, refreshes
    /// a hit's stamp and counts the probe. An entry that does not fit
    /// is dropped and counts as the miss it is.
    fn lookup(
        &mut self,
        key: &SolveKey,
        tasks: usize,
        procs: usize,
    ) -> Option<Result<Arc<MappingResult>, SchedError>> {
        let tick = self.next_tick();
        let cached = self.read_fitting(key, tasks, procs, |e| {
            e.1 = tick;
            e.0.outcome()
        });
        if cached.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        cached
    }

    /// One warm probe: `lookup` and then, when `with_sim`, the sim
    /// lookup of `sim_probed`, on one hash of the key — provided the
    /// key is memoized. Then it draws one recency tick, refreshes the
    /// entry's stamp, counts one hit, and counts one sim hit when it
    /// returns the memoized sim's makespan. A key that is not memoized
    /// moves nothing (not even the tick a missing `lookup` draws): the
    /// caller's fallback, [`SolveCache::lookup_or_solve`], does that.
    pub(super) fn probe_warm(&mut self, key: &SolveKey, with_sim: bool) -> WarmProbe {
        // Disjoint borrows: the one `get_mut` holds the entry while the
        // clock and the counters move.
        let Store {
            entries,
            stats,
            tick,
        } = self;
        let Some((entry, stamp)) = entries.get_mut(key) else {
            return WarmProbe::Cold;
        };
        *tick += 1;
        *stamp = *tick;
        stats.hits += 1;
        match entry {
            CachedSolve::NoSolution => WarmProbe::NoSolution,
            CachedSolve::Solved { sim, .. } => {
                let sim = sim.as_ref().filter(|_| with_sim).map(|sim| {
                    stats.sim_hits += 1;
                    sim.makespan
                });
                WarmProbe::Solved { sim }
            }
        }
    }

    /// Removes the least-recently-used entry (the smallest recency
    /// stamp; stamps are unique, so the victim is well-defined), its
    /// sim with it. Returns false on an empty store.
    fn evict_lru(&mut self) -> bool {
        let Some(key) = self
            .entries
            .iter()
            .min_by_key(|(_, (_, stamp))| *stamp)
            .map(|(k, _)| *k)
        else {
            return false;
        };
        self.entries.remove(&key);
        self.stats.evictions += 1;
        true
    }

    /// Memoizes `sim` on `key`'s entry if that entry is solved; any
    /// other key keeps nothing.
    fn attach_sim(&mut self, key: &SolveKey, sim: Arc<SimOutcome>) {
        if let Some((CachedSolve::Solved { sim: slot, .. }, _)) = self.entries.get_mut(key) {
            *slot = Some(sim);
        }
    }

    /// Memoizes `value` under `key`, evicting least-recently-used
    /// entries first when `capacity` would be exceeded, then drawing
    /// the entry's stamp. Returns the number of evictions this insert
    /// caused (for per-caller attribution).
    fn insert(&mut self, capacity: Option<usize>, key: SolveKey, value: CachedSolve) -> u64 {
        let mut evicted = 0u64;
        if let Some(cap) = capacity {
            while self.entries.len() >= cap && !self.entries.contains_key(&key) && self.evict_lru()
            {
                evicted += 1;
            }
        }
        let stamp = self.next_tick();
        self.entries.insert(key, (value, stamp));
        evicted
    }
}

/// Outcome of one probe against the shared store, for exact per-caller
/// attribution (a [`CacheView::charging`](super::CacheView::charging)
/// view charges these to its account). The default is a miss that
/// evicted nothing.
#[derive(Default)]
pub(super) struct CacheProbe {
    pub(super) hit: bool,
    pub(super) evictions: u64,
}

/// Content-addressed memoization of lease solves: one workflow, run by
/// [`Algorithm::solve`] on a processor lease — a sub-cluster, or the
/// whole cluster for the dedicated-cluster baselines, which share the
/// key space.
///
/// Entries store the solver result in *lease-local* ids, so a hit from
/// a lease carved out of different concrete processors — but with an
/// identical shape — only pays for the id remap. `NoSolution` outcomes
/// are memoized too: the engine's lease-escalation ladder probes the
/// same infeasible shapes repeatedly.
///
/// The cache is shared across threads (`&SolveCache` is `Sync`). One
/// mutex guards the memo (solves and their sims), the counters and the
/// recency clock, and it is held only for a lookup or an insert —
/// never across a solver run or a simulation. The serve loop probes
/// from one thread; the only concurrent probes are the baseline
/// batch's cold solves, which spend their time in the solver, not on
/// the lock. Counter totals are interleaving-independent because every
/// probe bumps exactly one counter. Two concurrent misses on the *same*
/// key both solve and last-write-wins; the engine avoids this by
/// deduplicating its parallel baseline batch up front.
///
/// [`SolveCache::with_capacity`] bounds the cache to an LRU capacity:
/// every lookup draws a recency stamp (a hit refreshes its entry's
/// with it), and an insert that would exceed the bound first evicts the
/// least-recently-used entry (evictions are counted in
/// [`SolveCacheStats::evictions`]). Unbounded streams of novel
/// topologies therefore cannot grow memory without limit. Exact LRU
/// order assumes inserts on a capped cache come from one thread at a
/// time — which the engine guarantees: the serve loop probes from one
/// thread, member after member, and the baseline batch
/// runs on one worker under a cap.
#[derive(Debug)]
pub struct SolveCache {
    enabled: bool,
    /// LRU bound; `None` = unbounded.
    capacity: Option<usize>,
    store: parking_lot::Mutex<Store>,
}

impl Default for SolveCache {
    /// An empty, enabled, unbounded cache, as [`SolveCache::new`].
    fn default() -> Self {
        SolveCache::new()
    }
}

impl SolveCache {
    fn build(enabled: bool, capacity: Option<usize>) -> Self {
        SolveCache {
            enabled,
            capacity,
            // The store ranks below the solver's slot and is never
            // nested with itself, which the debug-build rank tracker
            // enforces.
            store: parking_lot::Mutex::with_rank(Store::default(), parking_lot::ranks::CACHE_STORE),
        }
    }

    /// Takes the store lock (test builds count the takes, `tally`).
    pub(super) fn lock(&self) -> parking_lot::MutexGuard<'_, Store> {
        #[cfg(test)]
        super::tally::bump(&super::tally::LOCKS);
        self.store.lock()
    }

    /// An empty, enabled, unbounded cache.
    pub fn new() -> Self {
        SolveCache::build(true, None)
    }

    /// An empty, enabled cache holding at most `capacity` entries, the
    /// least-recently-used evicted first.
    ///
    /// # Panics
    /// Panics if `capacity` is zero — a zero-capacity cache is
    /// [`SolveCache::disabled`].
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(
            capacity > 0,
            "a zero-capacity cache cannot memoize; use SolveCache::disabled()"
        );
        SolveCache::build(true, Some(capacity))
    }

    /// A pass-through cache: never memoizes, but still counts every
    /// call as a miss, so solver-invocation statistics stay comparable
    /// between cached and uncached runs (`--no-solve-cache`).
    pub fn disabled() -> Self {
        SolveCache::build(false, None)
    }

    /// Whether this cache memoizes (false for [`SolveCache::disabled`]).
    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The LRU bound, if any.
    pub(crate) fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Snapshot of the hit/miss/eviction counters.
    pub fn stats(&self) -> SolveCacheStats {
        self.lock().stats
    }

    /// Whether a *solved* entry for this exact key is memoized right
    /// now. A pure peek: it neither counts as a hit nor refreshes the
    /// entry's LRU stamp — the online engine's `finalize` counts the
    /// cold jobs of its dedicated-baseline batch with it (to size the
    /// batch's worker pool) without perturbing the statistics the
    /// reports pin.
    pub(crate) fn is_warm(&self, key: &SolveKey) -> bool {
        self.enabled
            && matches!(
                self.lock().entries.get(key),
                Some((CachedSolve::Solved { .. }, _))
            )
    }

    /// Hash of a solver configuration, for the cache key. Computed over
    /// the `Debug` rendering: every config field is `Debug`-visible, so
    /// any change to any field changes the key (fields containing
    /// floats make a structural `Hash` derive unavailable).
    pub fn config_hash(cfg: &DagHetPartConfig) -> u64 {
        dhp_dag::fingerprint::fnv1a_bytes(format!("{cfg:?}").bytes())
    }

    /// The lookup-or-solve core of every probe ([`SolveCache::schedule`],
    /// [`SolveCache::dedicated_baseline`] and
    /// [`CacheView::solve`](super::CacheView::solve)): answers `key`
    /// from the store — drawing a recency tick and refreshing the
    /// entry's LRU stamp — or runs `solve` (with the lock released) and
    /// memoizes its outcome, `NoSolution` included. `(tasks, procs)`
    /// are the graph's task count and the lease's processor count: an
    /// entry that does not fit them is dropped and solved again.
    /// Also reports what the probe did to the store — a charging view
    /// charges exactly this outcome to its account, with no
    /// global-counter diffing.
    pub(super) fn lookup_or_solve(
        &self,
        key: ProbeKey,
        (tasks, procs): (usize, usize),
        solve: impl FnOnce() -> Result<MappingResult, SchedError>,
    ) -> (Result<Arc<MappingResult>, SchedError>, CacheProbe) {
        if !self.enabled {
            self.lock().stats.misses += 1;
            return (solve().map(Arc::new), CacheProbe::default());
        }
        // Cheap under the lock: an Arc refcount bump (or the unit
        // NoSolution marker) plus the LRU stamp refresh.
        let cached = self.lock().lookup(&key.0, tasks, procs);
        if let Some(outcome) = cached {
            let hit = CacheProbe {
                hit: true,
                evictions: 0,
            };
            return (outcome, hit);
        }
        let outcome = solve().map(Arc::new);
        let evictions = self
            .store
            .lock()
            .insert(self.capacity, key.0, CachedSolve::of(&outcome));
        (
            outcome,
            CacheProbe {
                hit: false,
                evictions,
            },
        )
    }

    /// The probing core of the sim-outcome cache: returns the sim
    /// memoized on `key`'s solved entry, or runs `compute` (with the
    /// lock released) and stores its result on that entry. The bool
    /// reports whether the probe hit, for per-caller attribution. A sim
    /// probe draws no recency tick and refreshes no stamp. On a key
    /// without a solved entry — and on a disabled cache — it computes,
    /// counts the miss and stores nothing, so simulator-invocation
    /// statistics stay comparable.
    pub(super) fn sim_probed(
        &self,
        key: ProbeKey,
        compute: impl FnOnce() -> SimOutcome,
    ) -> (Arc<SimOutcome>, bool) {
        if !self.enabled {
            self.lock().stats.sim_misses += 1;
            return (Arc::new(compute()), false);
        }
        let cached = {
            let mut store = self.lock();
            let sim = store.entries.get(&key.0).and_then(|e| e.0.sim()).map(share);
            if sim.is_some() {
                store.stats.sim_hits += 1;
            } else {
                store.stats.sim_misses += 1;
            }
            sim
        };
        if let Some(sim) = cached {
            return (sim, true);
        }
        let sim = Arc::new(compute());
        self.lock().attach_sim(&key.0, share(&sim));
        (sim, false)
    }

    // ------------------------------------------------------ snapshots
    //
    // What the `persist` module saves and restores. Snapshots are
    // key-sorted so a saved file is a pure function of the cache
    // *contents*, never of `HashMap` iteration order.

    /// The whole store, entries key-sorted.
    pub(crate) fn snapshot(&self) -> StoreImage {
        let store = self.lock();
        let mut entries: Vec<_> = store
            .entries
            .iter()
            .map(|(key, (entry, stamp))| (*key, entry.clone(), *stamp))
            .collect();
        entries.sort_by_key(|(key, _, _)| *key);
        StoreImage {
            tick: store.tick,
            stats: store.stats,
            entries,
        }
    }

    /// The recency clock and every memoized key with its LRU stamp,
    /// key-sorted: everything an eviction decides on. For checks that
    /// hold two probe paths to the same moves of the store; touches no
    /// entry and no counter.
    #[allow(clippy::type_complexity)]
    pub fn recency(&self) -> (u64, Vec<((u64, u64, Algorithm, u64), u64)>) {
        let store = self.lock();
        let mut stamps: Vec<_> = store
            .entries
            .iter()
            .map(|(key, (_, stamp))| (*key, *stamp))
            .collect();
        stamps.sort_by_key(|(key, _)| *key);
        (store.tick, stamps)
    }

    /// Restores a parsed snapshot: re-inserts every entry, sim
    /// included, with its saved LRU stamp (no tick draw — restored
    /// entries keep their relative recency order), advances the
    /// recency clock to the saved one, carries the snapshot's
    /// cumulative statistics into this cache's counters, and evicts
    /// down to this cache's LRU capacity if the snapshot outgrows it.
    pub(crate) fn restore(&self, image: StoreImage) {
        let mut store = self.lock();
        for (key, entry, stamp) in image.entries {
            store.entries.insert(key, (entry, stamp));
        }
        store.tick = store.tick.max(image.tick);
        let (stats, carried) = (&mut store.stats, image.stats);
        stats.hits += carried.hits;
        stats.misses += carried.misses;
        stats.evictions += carried.evictions;
        stats.sim_hits += carried.sim_hits;
        stats.sim_misses += carried.sim_misses;
        if let Some(cap) = self.capacity {
            while store.entries.len() > cap && store.evict_lru() {}
        }
    }
}
