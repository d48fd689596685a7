//! Scheduling onto partial clusters (processor leases).
//!
//! The offline heuristics map one workflow onto a whole
//! [`Cluster`].
//! The online engine instead hands each workflow a
//! [`SubCluster`] lease and needs the resulting
//! [`Mapping`] expressed in the *parent* cluster's processor ids, so
//! that fleet-level invariants (distinct processors across concurrent
//! workflows) can be checked against one shared id space.
//!
//! [`schedule_on_subcluster`] runs a solver on the lease view and
//! returns both forms of the mapping: `local` (lease-relative ids, the
//! form the simulator consumes together with the lease view) and
//! `global` (parent ids, the form fleet bookkeeping consumes).
//!
//! The online engine asks for those solves through a [`SolveCache`]
//! keyed by `(fingerprint, lease shape, algorithm, config hash)`. A
//! [`Solver`] binds the last two once — the algorithm, its settings and
//! the settings' hash — and a [`CacheView`] probes the cache with one
//! bound solver, so this module alone decides how a probe is keyed:
//! callers pass a graph and a lease, never the algorithm, the settings
//! or the hash.

use crate::baseline::dag_het_mem;
use crate::daghetpart::{dag_het_part, DagHetPartConfig};
use crate::makespan::makespan_of_mapping;
use crate::mapping::Mapping;
use crate::metrics::MappingResult;
use crate::SchedError;
use dhp_dag::Dag;
use dhp_platform::{Cluster, ProcId, SubCluster};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

/// Which solver to run on a lease. Ordered as declared: the order
/// snapshots sort keys in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Algorithm {
    /// The four-step partitioning heuristic (paper §4.2).
    DagHetPart,
    /// The memory-traversal baseline (paper §4.1).
    DagHetMem,
}

impl Algorithm {
    /// Display name as used by the CLI.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::DagHetPart => "daghetpart",
            Algorithm::DagHetMem => "daghetmem",
        }
    }

    /// Parses a CLI algorithm name.
    pub fn parse(s: &str) -> Option<Algorithm> {
        match s {
            "daghetpart" => Some(Algorithm::DagHetPart),
            "daghetmem" => Some(Algorithm::DagHetMem),
            _ => None,
        }
    }
}

/// A schedule produced on a lease: the same mapping in lease-local and
/// parent-global processor ids.
#[derive(Clone, Debug)]
pub struct SubClusterSchedule {
    /// Solver result against the lease view (local processor ids).
    pub local: MappingResult,
    /// The same mapping translated to parent processor ids.
    pub global: Mapping,
}

/// Translates a lease-local mapping into parent processor ids. `lease`
/// holds the leased parent ids in local-id order
/// ([`SubCluster::global_ids`], or the id slice a lease is carved from).
pub fn remap_to_parent(lease: &[ProcId], mapping: &Mapping) -> Mapping {
    Mapping {
        partition: mapping.partition.clone(),
        proc_of_block: mapping
            .proc_of_block
            .iter()
            .map(|p| p.map(|local| lease[local.idx()]))
            .collect(),
    }
}

/// Runs `algorithm` on a lease view, in the view's (lease-local) ids —
/// the one solver call behind every cache miss.
fn solve_local(
    g: &Dag,
    view: &Cluster,
    algorithm: Algorithm,
    cfg: &DagHetPartConfig,
) -> Result<MappingResult, SchedError> {
    match algorithm {
        Algorithm::DagHetPart => dag_het_part(g, view, cfg),
        Algorithm::DagHetMem => {
            #[expect(
                clippy::disallowed_methods,
                reason = "`MappingResult::elapsed` reports solver wall time; no decision reads it"
            )]
            let start = std::time::Instant::now();
            let mapping = dag_het_mem(g, view)?;
            let makespan = makespan_of_mapping(g, view, &mapping);
            let kprime = mapping.num_blocks();
            Ok(MappingResult {
                mapping,
                makespan,
                kprime,
                elapsed: start.elapsed(),
            })
        }
    }
}

/// Runs `algorithm` on the lease view and returns the schedule in both
/// id spaces. `Err(SchedError::NoSolution)` means the lease is too
/// small (not enough aggregate memory) — the caller may retry with a
/// larger lease.
pub fn schedule_on_subcluster(
    g: &Dag,
    sub: &SubCluster,
    algorithm: Algorithm,
    cfg: &DagHetPartConfig,
) -> Result<SubClusterSchedule, SchedError> {
    let local = solve_local(g, sub.cluster(), algorithm, cfg)?;
    let global = remap_to_parent(sub.global_ids(), &local.mapping);
    Ok(SubClusterSchedule { local, global })
}

/// Schedules `g` alone on the *whole idle* cluster and returns the
/// model makespan — the dedicated-cluster baseline the online engine
/// divides response times by (its `stretch` metric). The cluster is
/// viewed as a lease over all of its processors in the heuristics'
/// canonical memory-descending order, so the baseline is exactly what
/// the same solver would promise a workflow that never had to share.
pub fn dedicated_baseline(
    g: &Dag,
    cluster: &dhp_platform::Cluster,
    algorithm: Algorithm,
    cfg: &DagHetPartConfig,
) -> Result<f64, SchedError> {
    let ids = cluster.ids_by_memory_desc();
    let sub = cluster.subcluster(&ids);
    schedule_on_subcluster(g, &sub, algorithm, cfg).map(|s| s.local.makespan)
}

/// A re-solved *suffix* of a partially executed workflow: the induced
/// sub-DAG over its not-yet-started tasks, scheduled on a (typically
/// grown) lease. Produced by [`solve_suffix`]; consumed by the online
/// engine's elastic lease growth.
#[derive(Clone, Debug)]
pub struct SuffixSolve {
    /// The induced suffix DAG (dense local node ids).
    pub dag: Dag,
    /// Suffix-local node id → original node id.
    pub back: Vec<dhp_dag::NodeId>,
    /// Structural fingerprint of the suffix DAG (the solve-cache key
    /// component, exposed so callers can correlate cache traffic).
    pub fingerprint: u64,
    /// The cache key the suffix solve was answered under: the key to
    /// ask [`CacheView::sim_outcome_keyed`] for the suffix's sim.
    pub key: ProbeKey,
    /// The suffix schedule on the target lease, in both id spaces.
    pub schedule: SubClusterSchedule,
}

/// Extracts the induced sub-DAG over `suffix` (original node ids of
/// `g`, any order, duplicates ignored) and schedules it on `sub` with
/// `cache`'s solver — the solve entry point of elastic lease growth.
///
/// Cross-boundary files (edges from already-executed tasks into the
/// suffix) are dropped by the induced subgraph: the caller releases
/// the suffix schedule only after the committed prefix has drained, so
/// every such file's producer has finished and the file is modelled as
/// locally available at the suffix's start. `Err(NoSolution)` means the
/// lease cannot hold the suffix (the caller keeps the old schedule).
///
/// # Panics
/// Panics if `suffix` is empty — an empty suffix means there is nothing
/// left to re-schedule and the caller should not have probed.
pub fn solve_suffix(
    g: &Dag,
    suffix: &[dhp_dag::NodeId],
    sub: &SubCluster,
    cache: &CacheView,
) -> Result<SuffixSolve, SchedError> {
    assert!(!suffix.is_empty(), "cannot re-solve an empty suffix");
    let mut sorted = suffix.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let (dag, back) = g.induced_subgraph(&sorted);
    let fingerprint = dag.fingerprint();
    // The whole view in view order: its shape is `sub`'s signature.
    let ids: Vec<ProcId> = sub.cluster().proc_ids().collect();
    let key = cache.key(fingerprint, sub.cluster().shape_of_slice(&ids));
    let local = cache.solve_keyed(key, &dag, sub.cluster(), &ids)?;
    let global = remap_to_parent(sub.global_ids(), &local.mapping);
    Ok(SuffixSolve {
        dag,
        back,
        fingerprint,
        key,
        schedule: SubClusterSchedule {
            local: Arc::unwrap_or_clone(local),
            global,
        },
    })
}

// ---------------------------------------------------------------------
// Content-addressed solve cache

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
    /// Sim-outcome probes answered from a memoized [`SimOutcome`].
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
pub struct SimOutcome {
    /// Simulated makespan of the mapping on the lease.
    pub makespan: f64,
    /// Per-task start offsets (relative to the lease grant instant).
    pub task_start: Vec<f64>,
    /// Per-task finish offsets.
    pub task_finish: Vec<f64>,
    /// Per-lane `(lease-local processor index, busy time)` pairs, in
    /// timeline lane order.
    pub lanes: Vec<(u32, f64)>,
}

/// Cache key: everything a solve outcome depends on.
///
/// * the workflow's structural fingerprint ([`Dag::fingerprint`]),
/// * the lease's shape signature ([`SubCluster::shape_signature`]) —
///   concrete processor ids are *not* part of the key, the cached
///   local-id mapping is remapped onto the probe's processors on a hit,
/// * the algorithm,
/// * a hash of the solver configuration ([`SolveCache::config_hash`]).
pub(crate) type SolveKey = (u64, u64, Algorithm, u64);

/// One probe's cache key, made once by [`CacheView::key`] and answered
/// by [`CacheView::probe_warm`] — or, when nothing is memoized under
/// it, by [`CacheView::solve_keyed`] and
/// [`CacheView::sim_outcome_keyed`] — so an admission probe hashes its
/// lease shape once.
#[derive(Clone, Copy, Debug)]
pub struct ProbeKey(SolveKey);

/// What [`CacheView::probe_warm`] found under the key, with the counter
/// moves it made.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WarmProbe {
    /// Nothing is memoized under the key (always, on a disabled cache).
    /// The probe moved nothing: ask [`CacheView::solve_keyed`].
    Cold,
    /// A memoized `NoSolution`: one hit.
    NoSolution,
    /// A memoized solve: one hit. `sim` is its memoized simulation's
    /// makespan — one sim hit — when the probe asked for it and the
    /// entry has one.
    Solved {
        /// The memoized simulated makespan, if asked for and memoized.
        sim: Option<f64>,
    },
}

/// The store's map hasher. Every word of a [`SolveKey`] is already a
/// hash (or the algorithm's discriminant), so the store folds them
/// ([`FoldState`](dhp_dag::fingerprint::FoldState)) instead of running
/// SipHash over them again. Test builds count each key hash (the
/// test-build `tally` module).
#[cfg(not(test))]
type StoreHasher = dhp_dag::fingerprint::FoldState;
#[cfg(test)]
type StoreHasher = tally::CountingFold;

/// A clone of a memoized value's [`Arc`]: every clone the store hands
/// out goes through here, so test builds can count them (`tally`).
fn share<T>(value: &Arc<T>) -> Arc<T> {
    #[cfg(test)]
    tally::bump(&tally::ARC_CLONES);
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
    fn sim(&self) -> Option<&Arc<SimOutcome>> {
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
struct Store {
    /// Memoized solves (each with its sim, once simulated) and their
    /// LRU recency stamps.
    entries: HashMap<SolveKey, (CachedSolve, u64), StoreHasher>,
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
    fn read_fitting<R>(
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
    fn probe_warm(&mut self, key: &SolveKey, with_sim: bool) -> WarmProbe {
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
/// attribution (a [`CacheView::charging`] view charges these to its account).
struct CacheProbe {
    hit: bool,
    evictions: u64,
}

/// Content-addressed memoization of [`schedule_on_subcluster`] (and,
/// through it, of [`dedicated_baseline`] makespans, which are
/// whole-cluster solves under the same key space).
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
    fn lock(&self) -> parking_lot::MutexGuard<'_, Store> {
        #[cfg(test)]
        tally::bump(&tally::LOCKS);
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
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The LRU bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of memoized entries.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// True when nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
    pub fn is_warm(
        &self,
        fingerprint: u64,
        shape: u64,
        algorithm: Algorithm,
        config_hash: u64,
    ) -> bool {
        if !self.enabled {
            return false;
        }
        let key: SolveKey = (fingerprint, shape, algorithm, config_hash);
        matches!(
            self.lock().entries.get(&key),
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
    /// [`SolveCache::dedicated_baseline`] and [`CacheView::solve`]):
    /// answers `key` from the store — drawing a recency tick and
    /// refreshing the entry's LRU stamp — or runs `solve` (with the
    /// lock released) and memoizes its outcome, `NoSolution` included.
    /// `(tasks, procs)` are the graph's task count and the lease's
    /// processor count: an entry that does not fit them is dropped and
    /// solved again.
    /// Also reports what the probe did to the store — a
    /// [`CacheView::charging`] view charges exactly this outcome to its
    /// account, with no global-counter diffing.
    fn lookup_or_solve(
        &self,
        key: ProbeKey,
        (tasks, procs): (usize, usize),
        solve: impl FnOnce() -> Result<MappingResult, SchedError>,
    ) -> (Result<Arc<MappingResult>, SchedError>, CacheProbe) {
        if !self.enabled {
            self.lock().stats.misses += 1;
            return (
                solve().map(Arc::new),
                CacheProbe {
                    hit: false,
                    evictions: 0,
                },
            );
        }
        // Cheap under the lock: an Arc refcount bump (or the unit
        // NoSolution marker) plus the LRU stamp refresh.
        let cached = self.lock().lookup(&key.0, tasks, procs);
        if let Some(outcome) = cached {
            return (
                outcome,
                CacheProbe {
                    hit: true,
                    evictions: 0,
                },
            );
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

    /// Memoizing [`schedule_on_subcluster`]. `fingerprint` must be
    /// `g.fingerprint()` — callers that schedule the same graph many
    /// times (the online engine) compute it once per submission instead
    /// of once per probe. A hit pays for cloning the memoized mapping
    /// and remapping it onto `sub`'s processors; [`CacheView::solve`]
    /// answers the same key without either.
    pub fn schedule(
        &self,
        g: &Dag,
        fingerprint: u64,
        sub: &SubCluster,
        algorithm: Algorithm,
        cfg: &DagHetPartConfig,
        config_hash: u64,
    ) -> Result<SubClusterSchedule, SchedError> {
        let key = ProbeKey((fingerprint, sub.shape_signature(), algorithm, config_hash));
        let size = (g.node_count(), sub.cluster().len());
        let local = self
            .lookup_or_solve(key, size, || solve_local(g, sub.cluster(), algorithm, cfg))
            .0?;
        Ok(SubClusterSchedule {
            global: remap_to_parent(sub.global_ids(), &local.mapping),
            local: Arc::unwrap_or_clone(local),
        })
    }

    /// Memoizing [`dedicated_baseline`]: a whole-cluster solve, cached
    /// under the same key space as lease solves (the whole cluster in
    /// canonical order is just one more lease shape).
    pub fn dedicated_baseline(
        &self,
        g: &Dag,
        fingerprint: u64,
        cluster: &Cluster,
        algorithm: Algorithm,
        cfg: &DagHetPartConfig,
        config_hash: u64,
    ) -> Result<f64, SchedError> {
        let ids = cluster.ids_by_memory_desc();
        let key = ProbeKey((
            fingerprint,
            cluster.shape_of_slice(&ids),
            algorithm,
            config_hash,
        ));
        self.lookup_or_solve(key, (g.node_count(), ids.len()), || {
            solve_local(g, cluster.subcluster(&ids).cluster(), algorithm, cfg)
        })
        .0
        .map(|local| local.makespan)
    }

    /// The probing core of the sim-outcome cache: returns the sim
    /// memoized on `key`'s solved entry, or runs `compute` (with the
    /// lock released) and stores its result on that entry. The bool
    /// reports whether the probe hit, for per-caller attribution. A sim
    /// probe draws no recency tick and refreshes no stamp. On a key
    /// without a solved entry — and on a disabled cache — it computes,
    /// counts the miss and stores nothing, so simulator-invocation
    /// statistics stay comparable.
    fn sim_probed(
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

    /// Number of memoized simulation outcomes.
    pub fn sim_len(&self) -> usize {
        let store = self.lock();
        store
            .entries
            .values()
            .filter(|e| e.0.sim().is_some())
            .count()
    }

    // ------------------------------------------------------ snapshots
    //
    // What `dhp_core::persist` saves and restores. Snapshots are
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

/// One solver bound for probing: the algorithm, its DagHetPart settings
/// (ignored by DagHetMem) and their [`SolveCache::config_hash`],
/// computed once here. A [`CacheView`] keys every probe by it and runs
/// it on a miss, so making a view neither hashes nor allocates.
#[derive(Clone, Debug)]
pub struct Solver {
    algorithm: Algorithm,
    cfg: DagHetPartConfig,
    config_hash: u64,
}

impl Solver {
    /// Binds `algorithm` with its settings `cfg`, hashing them once.
    pub fn new(algorithm: Algorithm, cfg: DagHetPartConfig) -> Solver {
        let config_hash = SolveCache::config_hash(&cfg);
        Solver {
            algorithm,
            cfg,
            config_hash,
        }
    }

    /// The settings' hash: the last word of every key this solver's
    /// probes make, and the header a snapshot of them is saved under.
    pub fn config_hash(&self) -> u64 {
        self.config_hash
    }
}

/// A borrowing handle the scheduling layers (admission, lease growth,
/// suffix solves) probe instead of the raw [`SolveCache`]. It binds the
/// [`Solver`] every probe is keyed by and runs on a miss, and fixes
/// *who* is charged for each probe:
///
/// * [`CacheView::direct`] — charge only the store's global counters.
///   The serve loop's view and the baseline batch's; byte-identical to
///   probing the [`SolveCache`] itself.
/// * [`CacheView::charging`] — the same view, additionally charging the
///   exact probe outcome (hit/miss, evictions, sim hit/miss) to an
///   account: the serve loop's member (the single cluster's only one)
///   whose step, routing or spillover caused the probe.
///
/// Both probe the shared store in place: an insert is visible to the
/// very next probe, whoever makes it.
///
/// A lease probe has two paths through the view, with the same counter
/// moves, recency tick and stamps (a test holds them equal):
///
/// * the warm path — [`CacheView::probe_warm`]: one store lock and one
///   hash of the key answer a memoized solve and, when asked, its sim's
///   makespan, cloning no [`Arc`]; [`CacheView::memoized`] reads the
///   values back, uncounted, only for a probe that commits;
/// * the two-call path, for a key nothing is memoized under —
///   [`CacheView::solve_keyed`], which solves and inserts, then
///   [`CacheView::sim_outcome_keyed`], which simulates and attaches.
#[derive(Debug)]
pub struct CacheView<'a> {
    cache: &'a SolveCache,
    solver: &'a Solver,
    account: Option<&'a Cell<SolveCacheStats>>,
}

impl<'a> CacheView<'a> {
    /// A view that probes `cache` with `solver` and charges only the
    /// store's global counters.
    pub fn direct(cache: &'a SolveCache, solver: &'a Solver) -> Self {
        CacheView {
            cache,
            solver,
            account: None,
        }
    }

    /// This view's cache and solver, charging each probe's exact
    /// outcome to `account` as well (no global-counter diffing) — in
    /// place of any account this view charges.
    pub fn charging<'b>(&self, account: &'b mut SolveCacheStats) -> CacheView<'b>
    where
        'a: 'b,
    {
        CacheView {
            cache: self.cache,
            solver: self.solver,
            account: Some(Cell::from_mut(account)),
        }
    }

    /// Applies `charge` to the account, if the view has one.
    fn charge(&self, charge: impl FnOnce(&mut SolveCacheStats)) {
        if let Some(account) = self.account {
            let mut stats = account.get();
            charge(&mut stats);
            account.set(stats);
        }
    }

    /// Memoizing solve through the view — the probe entry point of
    /// every scheduling layer. Answers for the lease `ids` (parent ids
    /// of `cluster`, in carve order) with the memoized lease-local
    /// [`MappingResult`] behind its [`Arc`], or `NoSolution`. The key's
    /// shape is hashed straight off the id slice
    /// ([`Cluster::shape_of_slice`], bit-equal to the carved view's
    /// signature), so a hit builds no [`SubCluster`], clones no mapping
    /// and allocates nothing; only a miss carves the view and solves.
    /// Callers that need the mapping in parent ids translate it with
    /// [`remap_to_parent`] once they commit to it.
    ///
    /// The store is probed through the same core as
    /// [`SolveCache::schedule`] — one hit or miss, one recency tick, any
    /// LRU evictions the insert causes — and a charging view charges the
    /// same to its account.
    pub fn solve(
        &self,
        g: &Dag,
        fingerprint: u64,
        cluster: &Cluster,
        ids: &[ProcId],
    ) -> Result<Arc<MappingResult>, SchedError> {
        let key = self.key(fingerprint, cluster.shape_of_slice(ids));
        self.solve_keyed(key, g, cluster, ids)
    }

    /// The key `(fingerprint, shape, algorithm, config hash)` of this
    /// view's solver, for a probe that asks both memos
    /// ([`CacheView::solve_keyed`], then
    /// [`CacheView::sim_outcome_keyed`]). Touches no entry and no
    /// counter.
    pub fn key(&self, fingerprint: u64, shape: u64) -> ProbeKey {
        let solver = self.solver;
        ProbeKey((fingerprint, shape, solver.algorithm, solver.config_hash))
    }

    /// Whether a *solved* entry is memoized under this view's key for
    /// `(fingerprint, shape)`: [`SolveCache::is_warm`], a pure peek
    /// that counts nothing and refreshes no stamp.
    pub fn is_warm(&self, fingerprint: u64, shape: u64) -> bool {
        let (fingerprint, shape, algorithm, config_hash) = self.key(fingerprint, shape).0;
        self.cache
            .is_warm(fingerprint, shape, algorithm, config_hash)
    }

    /// [`CacheView::solve`] on a key already made: `key` must be this
    /// view's for `cluster.shape_of_slice(ids)`, and a miss solves `g`
    /// with the view's solver on the lease `ids`. Same answer, same
    /// counter moves, same recency tick; only the shape is not hashed
    /// again.
    pub fn solve_keyed(
        &self,
        key: ProbeKey,
        g: &Dag,
        cluster: &Cluster,
        ids: &[ProcId],
    ) -> Result<Arc<MappingResult>, SchedError> {
        let (fingerprint, ..) = key.0;
        debug_assert_eq!(
            key.0,
            self.key(fingerprint, cluster.shape_of_slice(ids)).0,
            "a key of another lease or solver"
        );
        let Solver { algorithm, cfg, .. } = self.solver;
        let (outcome, probe) = self
            .cache
            .lookup_or_solve(key, (g.node_count(), ids.len()), || {
                solve_local(g, cluster.subcluster(ids).cluster(), *algorithm, cfg)
            });
        self.charge(|acc| {
            if probe.hit {
                acc.hits += 1;
            } else {
                acc.misses += 1;
            }
            acc.evictions += probe.evictions;
        });
        outcome
    }

    /// The warm probe: answers a memoized `key` under one store lock and
    /// one hash of the key, exactly as [`CacheView::solve_keyed`] and
    /// then (when `with_sim`) [`CacheView::sim_outcome_keyed`] would on
    /// a hit — one recency tick, the entry's stamp refreshed, one hit,
    /// and one sim hit when the entry's sim is memoized — and a charging
    /// view charges the same. It returns the sim's makespan instead of
    /// the memoized values, so it clones no [`Arc`] and allocates
    /// nothing: an admission probe decides an overshoot on the
    /// makespan alone, and only a grant reads the values
    /// ([`CacheView::memoized`]).
    ///
    /// On a key that is not memoized — every key of a disabled cache —
    /// it moves nothing and answers [`WarmProbe::Cold`]; the caller
    /// then takes the two-call path, which counts the miss. When it
    /// answers `Solved { sim: None }` after being asked for the sim,
    /// the sim is not memoized yet and
    /// [`CacheView::sim_outcome_keyed`] counts its miss.
    pub fn probe_warm(&self, key: ProbeKey, with_sim: bool) -> WarmProbe {
        if !self.cache.enabled {
            return WarmProbe::Cold;
        }
        let found = self.cache.lock().probe_warm(&key.0, with_sim);
        if found != WarmProbe::Cold {
            self.charge(|acc| {
                acc.hits += 1;
                if matches!(found, WarmProbe::Solved { sim: Some(_) }) {
                    acc.sim_hits += 1;
                }
            });
        }
        found
    }

    /// The values behind a [`CacheView::probe_warm`] that answered
    /// `Solved`: the memoized solve and — when `with_sim` (the probe
    /// counted a sim hit) — its memoized sim, read without a recency
    /// tick and without counting anything. What the probe counted
    /// stands for this read too.
    ///
    /// The entry is gone only if another thread's insert evicted it in
    /// between (the store lock is not held across the two calls), or if
    /// it does not fit `g` and `ids` (a restored snapshot entry, see
    /// `CachedSolve::fits`), which drops it. Then this solves again
    /// through [`CacheView::solve_keyed`] — which counts that probe —
    /// and returns no sim; the solvers are deterministic, so the answer
    /// is the one the probe found for an entry that fit. `key`, `g`,
    /// `cluster` and `ids` are as for `solve_keyed`.
    #[allow(clippy::type_complexity)]
    pub fn memoized(
        &self,
        key: ProbeKey,
        with_sim: bool,
        g: &Dag,
        cluster: &Cluster,
        ids: &[ProcId],
    ) -> Result<(Arc<MappingResult>, Option<Arc<SimOutcome>>), SchedError> {
        let found = self
            .cache
            .lock()
            .read_fitting(
                &key.0,
                g.node_count(),
                ids.len(),
                |(entry, _)| match entry {
                    CachedSolve::Solved { local, sim } => {
                        Some((share(local), sim.as_ref().filter(|_| with_sim).map(share)))
                    }
                    CachedSolve::NoSolution => None,
                },
            )
            .flatten();
        match found {
            Some(found) => Ok(found),
            None => Ok((self.solve_keyed(key, g, cluster, ids)?, None)),
        }
    }

    /// Memoizing discrete-event simulation through the view, on the
    /// key the same probe's [`CacheView::solve_keyed`] (or
    /// [`solve_suffix`]) just answered: returns the [`SimOutcome`]
    /// memoized on that solve's entry, running `compute` only on a miss
    /// and storing its result there; a charging view charges the hit or
    /// miss to its account. A disabled cache, or a key with no solved
    /// entry, computes every time and stores nothing, but still counts
    /// the miss.
    pub fn sim_outcome_keyed(
        &self,
        key: ProbeKey,
        compute: impl FnOnce() -> SimOutcome,
    ) -> Arc<SimOutcome> {
        let (sim, hit) = self.cache.sim_probed(key, compute);
        self.charge(|acc| {
            if hit {
                acc.sim_hits += 1;
            } else {
                acc.sim_misses += 1;
            }
        });
        sim
    }
}

/// Test-build tallies of what probing the store costs, per thread: store
/// lock takes, key hashes and [`Arc`] clones handed out.
#[cfg(test)]
mod tally {
    use dhp_dag::fingerprint::{FoldHasher, FoldState};
    use std::cell::Cell;
    use std::hash::BuildHasher;
    use std::thread::LocalKey;

    thread_local! {
        pub(super) static LOCKS: Cell<u64> = const { Cell::new(0) };
        pub(super) static HASHES: Cell<u64> = const { Cell::new(0) };
        pub(super) static ARC_CLONES: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn bump(counter: &'static LocalKey<Cell<u64>>) {
        counter.with(|c| c.set(c.get() + 1));
    }

    /// `(lock takes, key hashes, Arc clones)` so far on this thread.
    pub(super) fn read() -> (u64, u64, u64) {
        let get = |counter: &'static LocalKey<Cell<u64>>| counter.with(Cell::get);
        (get(&LOCKS), get(&HASHES), get(&ARC_CLONES))
    }

    /// [`FoldState`], counting every hasher it builds: one per key
    /// hashed.
    #[derive(Clone, Copy, Debug, Default)]
    pub(super) struct CountingFold;

    impl BuildHasher for CountingFold {
        type Hasher = FoldHasher;

        fn build_hasher(&self) -> FoldHasher {
            bump(&HASHES);
            FoldState.build_hasher()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::validate;
    use dhp_dag::builder;
    use dhp_platform::{Cluster, ProcId, Processor};

    /// The two-processor lease most tests probe: m3 then m1.
    const LEASE: [ProcId; 2] = [ProcId(3), ProcId(1)];

    /// DagHetPart under its default settings, the solver most views
    /// here probe with.
    fn default_solver() -> Solver {
        Solver::new(Algorithm::DagHetPart, DagHetPartConfig::default())
    }

    fn cluster() -> Cluster {
        Cluster::new(
            vec![
                Processor::new("m0", 2.0, 64.0),
                Processor::new("m1", 4.0, 128.0),
                Processor::new("m2", 1.0, 32.0),
                Processor::new("m3", 8.0, 256.0),
            ],
            1.0,
        )
    }

    #[test]
    fn global_mapping_is_valid_against_parent() {
        let g = builder::fork_join(6, 10.0, 4.0, 2.0);
        let c = cluster();
        let sub = c.subcluster(&[ProcId(3), ProcId(1)]);
        for algo in [Algorithm::DagHetPart, Algorithm::DagHetMem] {
            let s = schedule_on_subcluster(&g, &sub, algo, &DagHetPartConfig::default())
                .expect("lease large enough");
            // Local mapping valid against the view, global against the parent.
            validate(&g, sub.cluster(), &s.local.mapping).unwrap();
            validate(&g, &c, &s.global).unwrap();
            // Every used processor must belong to the lease.
            for p in s.global.proc_of_block.iter().flatten() {
                assert!(sub.global_ids().contains(p), "{p} outside lease");
            }
        }
    }

    #[test]
    fn too_small_lease_reports_no_solution() {
        // Total memory of the lease is far below the chain's footprint.
        let g = builder::chain(40, 1.0, 30.0, 5.0);
        let c = cluster();
        let sub = c.subcluster(&[ProcId(2)]);
        let r = schedule_on_subcluster(
            &g,
            &sub,
            Algorithm::DagHetPart,
            &DagHetPartConfig::default(),
        );
        assert_eq!(r.err(), Some(SchedError::NoSolution));
    }

    #[test]
    fn dedicated_baseline_is_the_whole_cluster_makespan() {
        let g = builder::fork_join(6, 10.0, 4.0, 2.0);
        let c = cluster();
        let sub = c.subcluster(&c.ids_by_memory_desc());
        for algo in [Algorithm::DagHetPart, Algorithm::DagHetMem] {
            let direct = schedule_on_subcluster(&g, &sub, algo, &DagHetPartConfig::default())
                .expect("whole cluster is large enough");
            let b = dedicated_baseline(&g, &c, algo, &DagHetPartConfig::default())
                .expect("whole cluster is large enough");
            assert_eq!(b, direct.local.makespan);
            assert!(b.is_finite() && b > 0.0);
        }
    }

    #[test]
    fn cache_hits_reproduce_the_direct_solve_exactly() {
        let g = builder::fork_join(6, 10.0, 4.0, 2.0);
        let c = cluster();
        let cfg = DagHetPartConfig::default();
        let chash = SolveCache::config_hash(&cfg);
        let cache = SolveCache::new();
        let fp = g.fingerprint();
        for algo in [Algorithm::DagHetPart, Algorithm::DagHetMem] {
            let sub = c.subcluster(&[ProcId(3), ProcId(1)]);
            let direct = schedule_on_subcluster(&g, &sub, algo, &cfg).unwrap();
            let miss = cache.schedule(&g, fp, &sub, algo, &cfg, chash).unwrap();
            let hit = cache.schedule(&g, fp, &sub, algo, &cfg, chash).unwrap();
            for got in [&miss, &hit] {
                assert_eq!(got.local.makespan, direct.local.makespan);
                assert_eq!(got.local.mapping.partition, direct.local.mapping.partition);
                assert_eq!(got.global.proc_of_block, direct.global.proc_of_block);
            }
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (2, 2));
    }

    #[test]
    fn cache_remaps_hits_onto_the_probes_concrete_processors() {
        // m1 (4, 128) twice over: lease {1} and a same-shape lease from
        // a cluster where that shape sits at a different id.
        let g = builder::chain(4, 2.0, 4.0, 1.0);
        let a = cluster();
        let b = Cluster::new(
            vec![
                Processor::new("pad", 1.0, 32.0),
                Processor::new("pad", 1.0, 32.0),
                Processor::new("m1-twin", 4.0, 128.0),
            ],
            1.0,
        );
        let cfg = DagHetPartConfig::default();
        let chash = SolveCache::config_hash(&cfg);
        let cache = SolveCache::new();
        let fp = g.fingerprint();
        let sub_a = a.subcluster(&[ProcId(1)]);
        let sub_b = b.subcluster(&[ProcId(2)]);
        assert_eq!(sub_a.shape_signature(), sub_b.shape_signature());
        let first = cache
            .schedule(&g, fp, &sub_a, Algorithm::DagHetPart, &cfg, chash)
            .unwrap();
        let second = cache
            .schedule(&g, fp, &sub_b, Algorithm::DagHetPart, &cfg, chash)
            .unwrap();
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(first.local.makespan, second.local.makespan);
        // Same local mapping, different global ids: the remap trick.
        assert_eq!(
            first.local.mapping.proc_of_block,
            second.local.mapping.proc_of_block
        );
        validate(&g, &b, &second.global).unwrap();
        for p in second.global.proc_of_block.iter().flatten() {
            assert_eq!(*p, ProcId(2));
        }
    }

    #[test]
    fn cache_memoizes_no_solution_too() {
        let g = builder::chain(40, 1.0, 30.0, 5.0);
        let c = cluster();
        let cfg = DagHetPartConfig::default();
        let chash = SolveCache::config_hash(&cfg);
        let cache = SolveCache::new();
        let fp = g.fingerprint();
        let sub = c.subcluster(&[ProcId(2)]);
        for _ in 0..3 {
            let r = cache.schedule(&g, fp, &sub, Algorithm::DagHetPart, &cfg, chash);
            assert_eq!(r.err(), Some(SchedError::NoSolution));
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn disabled_cache_counts_solver_invocations_but_never_memoizes() {
        let g = builder::fork_join(6, 10.0, 4.0, 2.0);
        let c = cluster();
        let cfg = DagHetPartConfig::default();
        let chash = SolveCache::config_hash(&cfg);
        let cache = SolveCache::disabled();
        let fp = g.fingerprint();
        let sub = c.subcluster(&[ProcId(3), ProcId(1)]);
        for _ in 0..2 {
            cache
                .schedule(&g, fp, &sub, Algorithm::DagHetPart, &cfg, chash)
                .unwrap();
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 2));
        assert!(cache.is_empty() && !cache.is_enabled());
    }

    #[test]
    fn the_default_cache_memoizes_like_new() {
        let g = builder::chain(4, 2.0, 4.0, 1.0);
        let sub = cluster().subcluster(&LEASE);
        let cfg = DagHetPartConfig::default();
        let chash = SolveCache::config_hash(&cfg);
        let cache = SolveCache::default();
        assert!(cache.is_enabled());
        assert_eq!(cache.capacity(), None);
        for _ in 0..2 {
            cache
                .schedule(
                    &g,
                    g.fingerprint(),
                    &sub,
                    Algorithm::DagHetPart,
                    &cfg,
                    chash,
                )
                .unwrap();
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cached_dedicated_baseline_matches_direct() {
        let g = builder::fork_join(6, 10.0, 4.0, 2.0);
        let c = cluster();
        let cfg = DagHetPartConfig::default();
        let chash = SolveCache::config_hash(&cfg);
        let cache = SolveCache::new();
        let fp = g.fingerprint();
        for algo in [Algorithm::DagHetPart, Algorithm::DagHetMem] {
            let direct = dedicated_baseline(&g, &c, algo, &cfg).unwrap();
            let miss = cache
                .dedicated_baseline(&g, fp, &c, algo, &cfg, chash)
                .unwrap();
            let hit = cache
                .dedicated_baseline(&g, fp, &c, algo, &cfg, chash)
                .unwrap();
            assert_eq!(miss, direct);
            assert_eq!(hit, direct);
        }
    }

    #[test]
    fn suffix_solve_schedules_the_induced_subdag() {
        // Chain 0→1→2→3; suffix {2, 3} re-solved alone must equal a
        // direct solve of a 2-chain on the same lease.
        let g = builder::chain(4, 3.0, 4.0, 1.0);
        let c = cluster();
        let cfg = DagHetPartConfig::default();
        let cache = SolveCache::new();
        let solver = default_solver();
        let sub = c.subcluster(&[ProcId(3), ProcId(1)]);
        let suffix: Vec<dhp_dag::NodeId> = g.node_ids().skip(2).collect();
        let s = solve_suffix(&g, &suffix, &sub, &CacheView::direct(&cache, &solver))
            .expect("lease holds the 2-task suffix");
        assert_eq!(s.dag.node_count(), 2);
        assert_eq!(s.back, suffix);
        // The suffix mapping is a valid mapping of the suffix DAG, in
        // both id spaces.
        validate(&s.dag, sub.cluster(), &s.schedule.local.mapping).unwrap();
        validate(&s.dag, &c, &s.schedule.global).unwrap();
        // Equivalent to scheduling the detached 2-chain directly (the
        // induced subgraph of a chain tail is a chain).
        let tail = builder::chain(2, 3.0, 4.0, 1.0);
        assert_eq!(s.fingerprint, tail.fingerprint());
        let direct = schedule_on_subcluster(&tail, &sub, Algorithm::DagHetPart, &cfg).unwrap();
        assert_eq!(s.schedule.local.makespan, direct.local.makespan);
    }

    #[test]
    fn suffix_solve_reports_no_solution_on_a_tiny_lease() {
        let g = builder::chain(40, 1.0, 30.0, 5.0);
        let c = cluster();
        let cache = SolveCache::new();
        let solver = default_solver();
        let sub = c.subcluster(&[ProcId(2)]);
        let suffix: Vec<dhp_dag::NodeId> = g.node_ids().skip(1).collect();
        let r = solve_suffix(&g, &suffix, &sub, &CacheView::direct(&cache, &solver));
        assert_eq!(r.err(), Some(SchedError::NoSolution));
    }

    #[test]
    #[should_panic(expected = "empty suffix")]
    fn empty_suffix_is_a_caller_bug() {
        let g = builder::chain(3, 1.0, 1.0, 1.0);
        let c = cluster();
        let cache = SolveCache::new();
        let solver = default_solver();
        let _ = solve_suffix(
            &g,
            &[],
            &c.subcluster(&[ProcId(0)]),
            &CacheView::direct(&cache, &solver),
        );
    }

    #[test]
    fn capped_cache_evicts_least_recently_used() {
        let c = cluster();
        let cfg = DagHetPartConfig::default();
        let chash = SolveCache::config_hash(&cfg);
        let cache = SolveCache::with_capacity(2);
        assert_eq!(cache.capacity(), Some(2));
        let sub = c.subcluster(&[ProcId(3), ProcId(1)]);
        let graphs: Vec<Dag> = (4..7).map(|n| builder::chain(n, 2.0, 4.0, 1.0)).collect();
        let solve = |g: &Dag| {
            cache
                .schedule(g, g.fingerprint(), &sub, Algorithm::DagHetPart, &cfg, chash)
                .unwrap()
        };
        solve(&graphs[0]); // miss, {g0}
        solve(&graphs[1]); // miss, {g0, g1}
        solve(&graphs[0]); // hit — refreshes g0's recency
        solve(&graphs[2]); // miss at capacity: evicts g1 (the LRU), {g0, g2}
        assert_eq!(cache.len(), 2);
        assert!(cache.is_warm(
            graphs[0].fingerprint(),
            sub.shape_signature(),
            Algorithm::DagHetPart,
            chash
        ));
        assert!(!cache.is_warm(
            graphs[1].fingerprint(),
            sub.shape_signature(),
            Algorithm::DagHetPart,
            chash
        ));
        solve(&graphs[0]); // still a hit: the refresh protected it
        solve(&graphs[1]); // miss again (was evicted): evicts g2
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (2, 4, 2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn is_warm_peeks_without_touching_stats() {
        let g = builder::fork_join(6, 10.0, 4.0, 2.0);
        let c = cluster();
        let cfg = DagHetPartConfig::default();
        let chash = SolveCache::config_hash(&cfg);
        let cache = SolveCache::new();
        let fp = g.fingerprint();
        let sub = c.subcluster(&[ProcId(3), ProcId(1)]);
        let shape = sub.shape_signature();
        assert!(!cache.is_warm(fp, shape, Algorithm::DagHetPart, chash));
        cache
            .schedule(&g, fp, &sub, Algorithm::DagHetPart, &cfg, chash)
            .unwrap();
        assert!(cache.is_warm(fp, shape, Algorithm::DagHetPart, chash));
        // Peeking is free: the counters only saw the one real solve.
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 1));
        // A memoized NoSolution is not "warm" (it will not admit), and
        // a disabled cache is never warm.
        let big = builder::chain(40, 1.0, 30.0, 5.0);
        let tiny = c.subcluster(&[ProcId(2)]);
        let _ = cache.schedule(
            &big,
            big.fingerprint(),
            &tiny,
            Algorithm::DagHetPart,
            &cfg,
            chash,
        );
        assert!(!cache.is_warm(
            big.fingerprint(),
            tiny.shape_signature(),
            Algorithm::DagHetPart,
            chash
        ));
        assert!(!SolveCache::disabled().is_warm(fp, shape, Algorithm::DagHetPart, chash));
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_cache_is_a_caller_bug() {
        SolveCache::with_capacity(0);
    }

    #[test]
    fn config_hash_tracks_config_changes() {
        let a = DagHetPartConfig::default();
        let b = DagHetPartConfig {
            enable_swaps: false,
            ..DagHetPartConfig::default()
        };
        assert_eq!(SolveCache::config_hash(&a), SolveCache::config_hash(&a));
        assert_ne!(SolveCache::config_hash(&a), SolveCache::config_hash(&b));
    }

    #[test]
    fn algorithm_names_roundtrip() {
        for algo in [Algorithm::DagHetPart, Algorithm::DagHetMem] {
            assert_eq!(Algorithm::parse(algo.name()), Some(algo));
        }
        assert_eq!(Algorithm::parse("heft"), None);
    }

    // ------------------------------------------------ threads + views

    #[test]
    fn concurrent_probes_count_exactly() {
        // Four threads probe one uncapped store at once, each on keys
        // of its own (its thread index is its solver's partitioner
        // seed, so each binds another config hash), every key twice:
        // one miss then one hit per key, whatever the interleaving. The
        // barrier releases all four together.
        const THREADS: u64 = 4;
        const KEYS: usize = 6;
        let c = cluster();
        let cache = SolveCache::new();
        let graphs: Vec<Dag> = (0..KEYS)
            .map(|n| builder::chain(n + 3, 2.0, 4.0, 1.0))
            .collect();
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for seed in 0..THREADS {
                let (c, cache, graphs, start) = (&c, &cache, &graphs, &start);
                scope.spawn(move || {
                    let mut cfg = DagHetPartConfig::default();
                    cfg.partition_cfg.seed = seed;
                    let solver = Solver::new(Algorithm::DagHetMem, cfg);
                    start.wait();
                    let view = CacheView::direct(cache, &solver);
                    for _ in 0..2 {
                        for g in graphs {
                            view.solve(g, g.fingerprint(), c, &LEASE).unwrap();
                        }
                    }
                });
            }
        });
        let expected = THREADS * KEYS as u64;
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (expected, expected, 0));
        assert_eq!(cache.len() as u64, expected);
    }

    #[test]
    fn live_view_charges_the_account_exactly() {
        let g = builder::fork_join(6, 10.0, 4.0, 2.0);
        let c = cluster();
        let cache = SolveCache::new();
        let solver = default_solver();
        let fp = g.fingerprint();
        let mut account = SolveCacheStats::default();
        {
            let view = CacheView::direct(&cache, &solver).charging(&mut account);
            view.solve(&g, fp, &c, &LEASE).unwrap();
            view.solve(&g, fp, &c, &LEASE).unwrap();
        }
        assert_eq!((account.hits, account.misses), (1, 1));
        // Charged probes hit the store directly: the global counters agree
        // and the entry is immediately visible to direct probes.
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn live_inserts_charge_evictions_to_the_inserting_account() {
        // Capacity 1: the second insert evicts the first at once, and
        // the eviction is charged to the account whose probe inserted.
        let c = cluster();
        let solver = default_solver();
        let cache = SolveCache::with_capacity(1);
        let view = CacheView::direct(&cache, &solver);
        let sub = c.subcluster(&LEASE);
        let g0 = builder::chain(4, 2.0, 4.0, 1.0);
        let g1 = builder::chain(5, 2.0, 4.0, 1.0);
        let mut first = SolveCacheStats::default();
        let mut second = SolveCacheStats::default();
        for (g, account) in [(&g0, &mut first), (&g1, &mut second)] {
            view.charging(account)
                .solve(g, g.fingerprint(), &c, &LEASE)
                .unwrap();
        }
        assert_eq!((first.evictions, second.evictions), (0, 1));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.is_warm(
            g1.fingerprint(),
            sub.shape_signature(),
            Algorithm::DagHetPart,
            solver.config_hash()
        ));
        assert!(view.is_warm(g1.fingerprint(), sub.shape_signature()));
        assert!(!view.is_warm(g0.fingerprint(), sub.shape_signature()));
    }

    // ------------------------------------------------ sim-outcome cache

    /// A sim tagged by its makespan, shaped for a graph of `tasks`
    /// tasks on [`LEASE`]: a memoized sim must fit its entry's graph
    /// and lease (`CachedSolve::fits`).
    fn toy_sim(tag: f64, tasks: usize) -> SimOutcome {
        let step = tag / tasks as f64;
        SimOutcome {
            makespan: tag,
            task_start: (0..tasks).map(|i| i as f64 * step).collect(),
            task_finish: (1..=tasks).map(|i| i as f64 * step).collect(),
            lanes: vec![(0, tag)],
        }
    }

    /// Solves `g` on [`LEASE`] through `view` and returns the key the
    /// solve was answered under — the key its sim is memoized on.
    fn solve_on_lease(view: &CacheView, g: &Dag) -> ProbeKey {
        let c = cluster();
        let key = view.key(g.fingerprint(), c.shape_of_slice(&LEASE));
        view.solve_keyed(key, g, &c, &LEASE).unwrap();
        key
    }

    #[test]
    fn sim_outcomes_memoize_through_the_direct_view() {
        let cache = SolveCache::new();
        let solver = default_solver();
        let view = CacheView::direct(&cache, &solver);
        let key = solve_on_lease(&view, &builder::chain(4, 2.0, 4.0, 1.0));
        let tick = cache.recency().0;
        let mut computed = 0;
        let first = view.sim_outcome_keyed(key, || {
            computed += 1;
            toy_sim(10.0, 4)
        });
        let mut recomputed = false;
        let second = view.sim_outcome_keyed(key, || {
            recomputed = true;
            toy_sim(99.0, 4)
        });
        assert_eq!(computed, 1);
        assert!(!recomputed, "a sim hit must not re-simulate");
        assert_eq!(*first, *second);
        assert_eq!(cache.sim_len(), 1);
        let s = cache.stats();
        assert_eq!((s.sim_hits, s.sim_misses), (1, 1));
        // Sims and solves count separately: the one solve miss is the
        // solve's, and no sim probe draws a recency tick.
        assert_eq!((s.hits, s.misses), (0, 1));
        assert_eq!(cache.recency().0, tick);
    }

    #[test]
    fn a_sim_probe_without_a_solved_entry_stores_nothing() {
        let c = cluster();
        let cache = SolveCache::new();
        let solver = default_solver();
        let view = CacheView::direct(&cache, &solver);
        // No entry at all, then a memoized NoSolution (a 40-task chain
        // of 30-unit tasks cannot fit on m2's 32 units).
        let big = builder::chain(40, 1.0, 30.0, 5.0);
        let infeasible = view.key(big.fingerprint(), c.shape_of_slice(&[ProcId(2)]));
        let no = view.solve_keyed(infeasible, &big, &c, &[ProcId(2)]);
        assert!(matches!(no, Err(SchedError::NoSolution)));
        let unsolved = view.key(7, 9);
        let mut computed = 0;
        for key in [unsolved, infeasible] {
            for _ in 0..2 {
                view.sim_outcome_keyed(key, || {
                    computed += 1;
                    toy_sim(10.0, 4)
                });
            }
        }
        assert_eq!(computed, 4, "nothing was memoized to hit");
        assert_eq!(cache.sim_len(), 0);
        let s = cache.stats();
        assert_eq!((s.sim_hits, s.sim_misses), (0, 4));
    }

    #[test]
    fn disabled_cache_computes_sims_every_time_but_counts_them() {
        let cache = SolveCache::disabled();
        let solver = default_solver();
        let view = CacheView::direct(&cache, &solver);
        let key = solve_on_lease(&view, &builder::chain(4, 2.0, 4.0, 1.0));
        let mut computed = 0;
        for _ in 0..3 {
            view.sim_outcome_keyed(key, || {
                computed += 1;
                toy_sim(10.0, 4)
            });
        }
        assert_eq!(computed, 3);
        assert_eq!(cache.sim_len(), 0);
        let s = cache.stats();
        assert_eq!((s.sim_hits, s.sim_misses), (0, 3));
    }

    #[test]
    fn live_view_charges_sim_probes_to_the_account() {
        let cache = SolveCache::new();
        let solver = default_solver();
        let mut account = SolveCacheStats::default();
        {
            let view = CacheView::direct(&cache, &solver).charging(&mut account);
            let key = solve_on_lease(&view, &builder::chain(4, 2.0, 4.0, 1.0));
            view.sim_outcome_keyed(key, || toy_sim(10.0, 4));
            view.sim_outcome_keyed(key, || toy_sim(10.0, 4));
        }
        assert_eq!((account.sim_hits, account.sim_misses), (1, 1));
        // The solve that made the key is charged too.
        assert_eq!((account.hits, account.misses), (0, 1));
        assert_eq!(cache.sim_len(), 1);
    }

    // ------------------------------------------------------ warm probes

    /// Probes `key` the two-call way ([`CacheView::solve_keyed`], then
    /// [`CacheView::sim_outcome_keyed`] on a solved key) and returns the
    /// simulated makespan, if it placed.
    fn two_call_probe(view: &CacheView, key: ProbeKey, g: &Dag, ids: &[ProcId]) -> Option<f64> {
        let local = view.solve_keyed(key, g, &cluster(), ids).ok()?;
        Some(
            view.sim_outcome_keyed(key, || toy_sim(local.makespan, g.node_count()))
                .makespan,
        )
    }

    /// The same probe through [`CacheView::probe_warm`], falling back to
    /// the two calls on a cold key and reading a missing sim back with
    /// [`CacheView::memoized`], as admission does.
    fn one_lock_probe(view: &CacheView, key: ProbeKey, g: &Dag, ids: &[ProcId]) -> Option<f64> {
        let c = cluster();
        match view.probe_warm(key, true) {
            WarmProbe::Cold => two_call_probe(view, key, g, ids),
            WarmProbe::NoSolution => None,
            WarmProbe::Solved {
                sim: Some(makespan),
            } => Some(makespan),
            WarmProbe::Solved { sim: None } => {
                let (local, sim) = view.memoized(key, false, g, &c, ids).ok()?;
                assert!(sim.is_none(), "a sim the probe did not count");
                Some(
                    view.sim_outcome_keyed(key, || toy_sim(local.makespan, g.node_count()))
                        .makespan,
                )
            }
        }
    }

    #[test]
    fn a_warm_probe_moves_the_store_like_the_two_calls() {
        // A solved key with its sim, a solved key without one, a
        // memoized NoSolution, and a key nothing is memoized under —
        // probed in turn, twice over, on twin stores (one unbounded,
        // then a cap of 2 that evicts on every cold insert).
        let c = cluster();
        let solver = default_solver();
        let (g0, g1, g2) = (
            builder::chain(4, 2.0, 4.0, 1.0),
            builder::chain(5, 2.0, 4.0, 1.0),
            builder::chain(6, 2.0, 4.0, 1.0),
        );
        let big = builder::chain(40, 1.0, 30.0, 5.0);
        let tiny = [ProcId(2)];
        let probes: [(&Dag, &[ProcId]); 5] = [
            (&g0, &LEASE),
            (&g1, &LEASE),
            (&big, &tiny),
            (&g2, &LEASE),
            (&g0, &tiny),
        ];
        for make in [SolveCache::new, || SolveCache::with_capacity(2)] {
            let (reference, subject) = (make(), make());
            let (mut want_account, mut got_account) = Default::default();
            {
                let want_view = CacheView::direct(&reference, &solver).charging(&mut want_account);
                let got_view = CacheView::direct(&subject, &solver).charging(&mut got_account);
                for view in [&want_view, &got_view] {
                    let k0 = solve_on_lease(view, &g0);
                    view.sim_outcome_keyed(k0, || toy_sim(1.0, 4));
                    solve_on_lease(view, &g1);
                }
                for (round, &(g, ids)) in probes.iter().cycle().take(10).enumerate() {
                    let key = want_view.key(g.fingerprint(), c.shape_of_slice(ids));
                    let want = two_call_probe(&want_view, key, g, ids);
                    let got = one_lock_probe(&got_view, key, g, ids);
                    assert_eq!(got, want, "probe {round}");
                    assert_eq!(subject.stats(), reference.stats(), "probe {round}");
                    assert_eq!(subject.recency(), reference.recency(), "probe {round}");
                }
            }
            assert_eq!(got_account, want_account);
        }
    }

    #[test]
    fn a_warm_probe_takes_one_lock_one_hash_and_no_arc() {
        let cache = SolveCache::new();
        let solver = default_solver();
        let view = CacheView::direct(&cache, &solver);
        let g = builder::chain(4, 2.0, 4.0, 1.0);
        let key = solve_on_lease(&view, &g);
        view.sim_outcome_keyed(key, || toy_sim(10.0, 4));
        let cost = |probe: &dyn Fn()| {
            let before = tally::read();
            probe();
            let after = tally::read();
            (after.0 - before.0, after.1 - before.1, after.2 - before.2)
        };
        // What an overshooting admission probe asks: the makespan only.
        assert_eq!(
            cost(&|| assert_eq!(
                view.probe_warm(key, true),
                WarmProbe::Solved { sim: Some(10.0) }
            )),
            (1, 1, 0),
            "(lock takes, key hashes, Arc clones) of a warm probe"
        );
        // The two calls it replaces: twice each.
        assert_eq!(
            cost(&|| {
                assert_eq!(two_call_probe(&view, key, &g, &LEASE), Some(10.0));
            }),
            (2, 2, 2)
        );
        // A grant reads the values back once more, uncounted.
        let stats = cache.stats();
        let recency = cache.recency();
        assert_eq!(
            cost(&|| {
                let (local, sim) = view.memoized(key, true, &g, &cluster(), &LEASE).unwrap();
                assert_eq!(sim.map(|s| s.makespan), Some(10.0));
                assert!(local.makespan > 0.0);
            }),
            (1, 1, 2)
        );
        assert_eq!((cache.stats(), cache.recency()), (stats, recency));
    }

    #[test]
    fn a_warm_probe_on_a_disabled_or_cold_store_moves_nothing() {
        let solver = default_solver();
        for cache in [SolveCache::new(), SolveCache::disabled()] {
            let mut account = SolveCacheStats::default();
            {
                let view = CacheView::direct(&cache, &solver).charging(&mut account);
                let key = view.key(7, 9);
                assert_eq!(view.probe_warm(key, true), WarmProbe::Cold);
                assert_eq!(view.probe_warm(key, false), WarmProbe::Cold);
            }
            assert_eq!(account, SolveCacheStats::default());
            assert_eq!(cache.stats(), SolveCacheStats::default());
            assert_eq!(cache.recency(), (0, Vec::new()));
        }
    }

    #[test]
    fn entries_that_do_not_fit_their_graph_or_lease_are_solved_again() {
        // What a snapshot can hold under a valid checksum: the reader
        // sees neither the graph nor the lease a key names.
        let (c, solver) = (cluster(), default_solver());
        let g = builder::chain(4, 2.0, 4.0, 1.0);
        let fitting = SolveCache::new();
        let view = CacheView::direct(&fitting, &solver);
        let key = solve_on_lease(&view, &g);
        view.sim_outcome_keyed(key, || toy_sim(10.0, 4));
        let want = view.solve_keyed(key, &g, &c, &LEASE).unwrap();
        type Spoil = fn(&mut MappingResult, &mut SimOutcome);
        let spoilers: [(&str, Spoil); 5] = [
            ("a block array of another graph", |local, _| {
                local.mapping.partition = dhp_dag::Partition::single_block(5);
            }),
            ("a processor past the lease", |local, _| {
                local.mapping.proc_of_block[0] = Some(ProcId(LEASE.len() as u32));
            }),
            ("an unmapped block", |local, _| {
                local.mapping.proc_of_block[0] = None;
            }),
            ("a sim of another graph", |_, sim| {
                sim.task_finish.pop();
            }),
            ("a sim lane past the lease", |_, sim| {
                sim.lanes[0].0 = LEASE.len() as u32;
            }),
        ];
        for (what, spoil) in spoilers {
            for via_memoized in [false, true] {
                let mut image = fitting.snapshot();
                let (_, CachedSolve::Solved { local, sim }, _) = &mut image.entries[0] else {
                    unreachable!("the one entry is solved");
                };
                spoil(Arc::make_mut(local), Arc::make_mut(sim.as_mut().unwrap()));
                let cache = SolveCache::new();
                cache.restore(image);
                let view = CacheView::direct(&cache, &solver);
                let before = cache.stats();
                let got = if via_memoized {
                    let (got, sim) = view.memoized(key, true, &g, &c, &LEASE).unwrap();
                    assert!(sim.is_none(), "{what}: the dropped entry's sim");
                    got
                } else {
                    view.solve_keyed(key, &g, &c, &LEASE).unwrap()
                };
                assert_eq!(
                    got.mapping.proc_of_block, want.mapping.proc_of_block,
                    "{what}"
                );
                let after = cache.stats();
                assert_eq!(
                    (after.hits - before.hits, after.misses - before.misses),
                    (0, 1),
                    "{what}: dropped and solved again as a miss"
                );
                // The fresh solve fits, and hits from now on.
                view.solve_keyed(key, &g, &c, &LEASE).unwrap();
                assert_eq!(cache.stats().hits, after.hits + 1, "{what}");
            }
        }
    }

    #[test]
    fn memoized_solves_again_when_the_entry_is_gone() {
        // Capacity 1: a second insert evicts the entry a probe found,
        // as another thread's insert could between the probe and the
        // grant's read. The read solves again and returns no sim.
        let cache = SolveCache::with_capacity(1);
        let solver = default_solver();
        let view = CacheView::direct(&cache, &solver);
        let g = builder::chain(4, 2.0, 4.0, 1.0);
        let key = solve_on_lease(&view, &g);
        view.sim_outcome_keyed(key, || toy_sim(10.0, 4));
        let first = view.memoized(key, true, &g, &cluster(), &LEASE);
        let (first, sim) = first.unwrap();
        assert!(sim.is_some());
        solve_on_lease(&view, &builder::chain(5, 2.0, 4.0, 1.0));
        let misses = cache.stats().misses;
        let again = view.memoized(key, true, &g, &cluster(), &LEASE);
        let (again, sim) = again.unwrap();
        assert!(sim.is_none());
        assert_eq!(again.makespan, first.makespan);
        assert_eq!(again.mapping.proc_of_block, first.mapping.proc_of_block);
        assert_eq!(cache.stats().misses, misses + 1, "the re-solve is counted");
    }

    #[test]
    fn evicting_a_solve_drops_its_sim_outcome() {
        let cache = SolveCache::with_capacity(1);
        let solver = default_solver();
        let view = CacheView::direct(&cache, &solver);
        let k0 = solve_on_lease(&view, &builder::chain(4, 2.0, 4.0, 1.0));
        view.sim_outcome_keyed(k0, || toy_sim(10.0, 4));
        assert_eq!((cache.len(), cache.sim_len()), (1, 1));
        // Inserting a second solve evicts g0 — and its sim with it.
        solve_on_lease(&view, &builder::chain(5, 2.0, 4.0, 1.0));
        assert_eq!((cache.len(), cache.sim_len()), (1, 0));
        let mut recomputed = false;
        view.sim_outcome_keyed(k0, || {
            recomputed = true;
            toy_sim(11.0, 4)
        });
        assert!(recomputed, "the evicted sim must be gone");
        assert_eq!(
            cache.sim_len(),
            0,
            "nor does it come back without its solve"
        );
    }
}
