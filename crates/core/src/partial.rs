//! Scheduling onto partial clusters (processor leases).
//!
//! The offline heuristics map one workflow onto a whole
//! [`Cluster`](dhp_platform::Cluster).
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

use crate::baseline::dag_het_mem;
use crate::daghetpart::{dag_het_part, DagHetPartConfig};
use crate::makespan::makespan_of_mapping;
use crate::mapping::Mapping;
use crate::metrics::MappingResult;
use crate::SchedError;
use dhp_dag::Dag;
use dhp_platform::SubCluster;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which solver to run on a lease.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
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

/// Translates a lease-local mapping into parent processor ids.
pub fn remap_to_parent(sub: &SubCluster, mapping: &Mapping) -> Mapping {
    Mapping {
        partition: mapping.partition.clone(),
        proc_of_block: mapping
            .proc_of_block
            .iter()
            .map(|p| p.map(|local| sub.to_global(local)))
            .collect(),
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
    let view = sub.cluster();
    let local = match algorithm {
        Algorithm::DagHetPart => dag_het_part(g, view, cfg)?,
        Algorithm::DagHetMem => {
            let start = std::time::Instant::now();
            let mapping = dag_het_mem(g, view)?;
            let makespan = makespan_of_mapping(g, view, &mapping);
            let kprime = mapping.num_blocks();
            MappingResult {
                mapping,
                makespan,
                kprime,
                elapsed: start.elapsed(),
            }
        }
    };
    let global = remap_to_parent(sub, &local.mapping);
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
    /// The suffix schedule on the target lease, in both id spaces.
    pub schedule: SubClusterSchedule,
}

/// Extracts the induced sub-DAG over `suffix` (original node ids of
/// `g`, any order, duplicates ignored) and schedules it on `sub`
/// through `cache` — the solve entry point of elastic lease growth.
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
    algorithm: Algorithm,
    cfg: &DagHetPartConfig,
    cache: &CacheView,
    config_hash: u64,
) -> Result<SuffixSolve, SchedError> {
    assert!(!suffix.is_empty(), "cannot re-solve an empty suffix");
    let mut sorted = suffix.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let (dag, back) = g.induced_subgraph(&sorted);
    let fingerprint = dag.fingerprint();
    let schedule = cache.schedule(&dag, fingerprint, sub, algorithm, cfg, config_hash)?;
    Ok(SuffixSolve {
        dag,
        back,
        fingerprint,
        schedule,
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
/// the stripe lock.
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
type SolveKey = (u64, u64, Algorithm, u64);

/// Deterministic stripe selector: FNV-1a over the key's byte image.
/// The std `HashMap` hasher is seeded per process, so it must not pick
/// stripes — stripe membership has to be a pure function of the key
/// for striped runs (and their per-stripe counters) to reproduce.
fn stripe_index(key: &SolveKey, stripes: usize) -> usize {
    let (fp, shape, algorithm, chash) = key;
    let algo_byte = match algorithm {
        Algorithm::DagHetPart => 0u8,
        Algorithm::DagHetMem => 1u8,
    };
    let bytes = fp
        .to_le_bytes()
        .into_iter()
        .chain(shape.to_le_bytes())
        .chain([algo_byte])
        .chain(chash.to_le_bytes());
    (dhp_dag::fingerprint::fnv1a_bytes(bytes) % stripes as u64) as usize
}

/// A memoized solve outcome in lease-local processor ids. Solved
/// entries sit behind an [`Arc`] so a hit clones a refcount under the
/// map lock, not an O(tasks) mapping.
#[derive(Clone, Debug)]
enum CachedSolve {
    Solved(Arc<MappingResult>),
    NoSolution,
}

/// Materialises a memoized outcome against the probing lease: the
/// cached lease-local mapping is remapped onto the probe's concrete
/// processors (the body of every cache hit, in any view mode).
fn materialize(entry: CachedSolve, sub: &SubCluster) -> Result<SubClusterSchedule, SchedError> {
    match entry {
        CachedSolve::NoSolution => Err(SchedError::NoSolution),
        CachedSolve::Solved(local) => {
            let global = remap_to_parent(sub, &local.mapping);
            Ok(SubClusterSchedule {
                local: (*local).clone(),
                global,
            })
        }
    }
}

/// One lock stripe of the [`SolveCache`]: a segment of the memoization
/// map under its own mutex, plus that segment's share of the global
/// hit/miss/eviction counters. Keys are spread over stripes by
/// [`stripe_index`], so concurrent probes on different keys almost
/// never contend on the same lock.
#[derive(Debug)]
struct Stripe {
    entries: parking_lot::Mutex<HashMap<SolveKey, (CachedSolve, u64)>>,
    /// Memoized simulation outcomes, keyed alongside the solves of the
    /// same stripe. Sims carry no LRU stamp of their own: a sim rides
    /// on its solve entry's recency and is dropped when `evict_lru`
    /// evicts that key.
    sims: parking_lot::Mutex<HashMap<SolveKey, Arc<SimOutcome>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    sim_hits: AtomicU64,
    sim_misses: AtomicU64,
}

impl Default for Stripe {
    fn default() -> Self {
        // Stripe mutexes rank above the phase slots that hold them and
        // below the solver's slot; they are never nested with each
        // other (entries vs sims of the same key are taken
        // sequentially), which the debug-build rank tracker enforces.
        Stripe {
            entries: parking_lot::Mutex::with_rank(
                HashMap::new(),
                parking_lot::ranks::CACHE_STRIPE,
            ),
            sims: parking_lot::Mutex::with_rank(HashMap::new(), parking_lot::ranks::CACHE_STRIPE),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            sim_hits: AtomicU64::new(0),
            sim_misses: AtomicU64::new(0),
        }
    }
}

/// Outcome of one probe against the shared store, for exact per-caller
/// attribution (the `Live` view charges these to a [`CacheAccount`]).
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
/// The cache is shared across threads (`&SolveCache` is `Sync`). The
/// map is **lock-striped**: keys are spread over
/// [`SolveCache::stripes`] independently mutexed segments (selected by
/// an FNV-1a hash of the key, so stripe membership is deterministic),
/// each held only for lookups and inserts — never across a solver run
/// — so concurrent member solves don't serialise on one global mutex.
/// Hit/miss/eviction counters live per stripe and [`SolveCache::stats`]
/// sums them; counter totals are interleaving-independent because every
/// probe bumps exactly one counter. Two concurrent misses on the *same*
/// key both solve and last-write-wins; the engine avoids this by
/// deduplicating its parallel baseline batch up front.
///
/// [`SolveCache::with_capacity`] bounds the cache to an LRU capacity:
/// every hit refreshes its entry's recency stamp (drawn from one global
/// atomic tick), and an insert that would exceed the bound first evicts
/// the least-recently-used entry across *all* stripes (evictions are
/// counted in [`SolveCacheStats::evictions`]). Unbounded streams of
/// novel topologies therefore cannot grow memory without limit. Exact
/// LRU order assumes inserts on a capped cache come from one thread at
/// a time — which the engine guarantees: capped inserts happen on the
/// federation driver thread (account seals and routing probes) or in
/// the sequential capped baseline batch.
///
/// For parallel serving phases the store also supports a **frozen
/// epoch** protocol (see [`CacheView::frozen`] and
/// [`SolveCache::seal_account`]): probes treat the store as read-only,
/// record their deferred effects in a per-caller [`CacheAccount`], and
/// the driver replays those effects in a deterministic order at the
/// next synchronisation point.
#[derive(Debug)]
pub struct SolveCache {
    enabled: bool,
    /// LRU bound; `None` = unbounded.
    capacity: Option<usize>,
    stripes: Box<[Stripe]>,
    /// The monotone recency clock shared by every stripe: each lookup
    /// and insert draws a unique stamp, so LRU victims are well-defined
    /// across stripes.
    tick: AtomicU64,
    /// Number of live [`CacheView::frozen`] handles — the frozen-epoch
    /// poison flag. While any frozen view exists the store must be
    /// read-only (shards are probing it concurrently); debug builds
    /// assert this on every store mutation, turning the whole test
    /// suite into a frozen-view race detector.
    frozen_views: AtomicU64,
}

impl Default for SolveCache {
    /// The disabled pass-through cache (mirrors
    /// [`SolveCache::disabled`]).
    fn default() -> Self {
        SolveCache::disabled()
    }
}

impl SolveCache {
    /// Lock stripes of the default constructors.
    pub const DEFAULT_STRIPES: usize = 16;

    fn build(enabled: bool, capacity: Option<usize>, stripes: usize) -> Self {
        assert!(stripes > 0, "a solve cache needs at least one stripe");
        SolveCache {
            enabled,
            capacity,
            stripes: (0..stripes).map(|_| Stripe::default()).collect(),
            tick: AtomicU64::new(0),
            frozen_views: AtomicU64::new(0),
        }
    }

    /// Debug-build poison check: the store must never be mutated while
    /// a frozen epoch is in progress (any [`CacheView::frozen`] handle
    /// alive). `what` names the mutation for the panic message.
    #[inline]
    fn debug_assert_unfrozen(&self, what: &str) {
        debug_assert_eq!(
            self.frozen_views.load(Ordering::Relaxed),
            0,
            "solve-cache store mutation ({what}) during a frozen parallel \
             phase: shards hold frozen views, so all store effects must be \
             deferred to the member-ordered seal"
        );
    }

    /// An empty, enabled, unbounded cache with
    /// [`SolveCache::DEFAULT_STRIPES`] lock stripes.
    pub fn new() -> Self {
        SolveCache::build(true, None, SolveCache::DEFAULT_STRIPES)
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
        SolveCache::build(true, Some(capacity), SolveCache::DEFAULT_STRIPES)
    }

    /// An empty, enabled, unbounded cache with exactly `stripes` lock
    /// stripes — `with_stripes(1)` is the single-mutex reference path
    /// the striping tests pin against.
    ///
    /// # Panics
    /// Panics if `stripes` is zero.
    pub fn with_stripes(stripes: usize) -> Self {
        SolveCache::build(true, None, stripes)
    }

    /// An LRU-capped cache with an explicit stripe count (both bounds
    /// of [`SolveCache::with_capacity`] and [`SolveCache::with_stripes`]
    /// at once).
    ///
    /// # Panics
    /// Panics if `capacity` or `stripes` is zero.
    pub fn with_capacity_and_stripes(capacity: usize, stripes: usize) -> Self {
        assert!(
            capacity > 0,
            "a zero-capacity cache cannot memoize; use SolveCache::disabled()"
        );
        SolveCache::build(true, Some(capacity), stripes)
    }

    /// A pass-through cache: never memoizes, but still counts every
    /// call as a miss, so solver-invocation statistics stay comparable
    /// between cached and uncached runs (`--no-solve-cache`).
    pub fn disabled() -> Self {
        SolveCache::build(false, None, 1)
    }

    /// Whether this cache memoizes (false for [`SolveCache::disabled`]).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The LRU bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of lock stripes.
    pub fn stripes(&self) -> usize {
        self.stripes.len()
    }

    /// Number of memoized entries (summed across stripes).
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.entries.lock().len()).sum()
    }

    /// True when nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn stripe_of(&self, key: &SolveKey) -> &Stripe {
        &self.stripes[stripe_index(key, self.stripes.len())]
    }

    /// Snapshot of the hit/miss/eviction counters: the exact sum of the
    /// per-stripe counters.
    pub fn stats(&self) -> SolveCacheStats {
        let mut total = SolveCacheStats::default();
        for s in self.stripes.iter() {
            total.hits += s.hits.load(Ordering::Relaxed);
            total.misses += s.misses.load(Ordering::Relaxed);
            total.evictions += s.evictions.load(Ordering::Relaxed);
            total.sim_hits += s.sim_hits.load(Ordering::Relaxed);
            total.sim_misses += s.sim_misses.load(Ordering::Relaxed);
        }
        total
    }

    /// Per-stripe counter snapshot, in stripe-index order — the
    /// striping tests assert these sum exactly to [`SolveCache::stats`].
    pub fn stripe_stats(&self) -> Vec<SolveCacheStats> {
        self.stripes
            .iter()
            .map(|s| SolveCacheStats {
                hits: s.hits.load(Ordering::Relaxed),
                misses: s.misses.load(Ordering::Relaxed),
                evictions: s.evictions.load(Ordering::Relaxed),
                sim_hits: s.sim_hits.load(Ordering::Relaxed),
                sim_misses: s.sim_misses.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Whether a *solved* entry for this exact key is memoized right
    /// now. A pure peek: it neither counts as a hit nor refreshes the
    /// entry's LRU stamp — the online engine's cache-aware admission
    /// tiebreak consults it without perturbing the statistics the
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
            self.stripe_of(&key).entries.lock().get(&key),
            Some((CachedSolve::Solved(_), _))
        )
    }

    fn contains(&self, key: &SolveKey) -> bool {
        self.stripe_of(key).entries.lock().contains_key(key)
    }

    /// Removes the least-recently-used entry across all stripes (the
    /// globally smallest recency stamp; stamps are unique, so the
    /// victim is well-defined). Returns false on an empty cache.
    fn evict_lru(&self) -> bool {
        self.debug_assert_unfrozen("LRU eviction");
        let mut victim: Option<(u64, usize, SolveKey)> = None;
        for (si, stripe) in self.stripes.iter().enumerate() {
            let entries = stripe.entries.lock();
            if let Some((k, (_, stamp))) = entries.iter().min_by_key(|(_, (_, s))| *s) {
                if victim.as_ref().is_none_or(|(vs, _, _)| stamp < vs) {
                    victim = Some((*stamp, si, *k));
                }
            }
        }
        match victim {
            None => false,
            Some((_, si, key)) => {
                self.stripes[si].entries.lock().remove(&key);
                // A sim outcome rides on its solve entry's recency:
                // evicting the solve drops the sim of the same key.
                self.stripes[si].sims.lock().remove(&key);
                self.stripes[si].evictions.fetch_add(1, Ordering::Relaxed);
                true
            }
        }
    }

    /// Memoizes `value` under `key`, evicting least-recently-used
    /// entries first when the capacity bound would be exceeded. Returns
    /// the number of evictions this insert caused (for per-caller
    /// attribution).
    fn insert(&self, key: SolveKey, value: CachedSolve) -> u64 {
        self.debug_assert_unfrozen("entry insert");
        let mut evicted = 0u64;
        if let Some(cap) = self.capacity {
            while self.len() >= cap && !self.contains(&key) && self.evict_lru() {
                evicted += 1;
            }
        }
        let stamp = self.next_tick();
        self.stripe_of(&key)
            .entries
            .lock()
            .insert(key, (value, stamp));
        evicted
    }

    /// Hash of a solver configuration, for the cache key. Computed over
    /// the `Debug` rendering: every config field is `Debug`-visible, so
    /// any change to any field changes the key (fields containing
    /// floats make a structural `Hash` derive unavailable).
    pub fn config_hash(cfg: &DagHetPartConfig) -> u64 {
        dhp_dag::fingerprint::fnv1a_bytes(format!("{cfg:?}").bytes())
    }

    /// The probing core of [`SolveCache::schedule`], additionally
    /// reporting what the probe did to the store — the `Live` view mode
    /// charges exactly this outcome to its [`CacheAccount`], with no
    /// global-counter diffing. The solver runs only on a miss, with no
    /// stripe lock held.
    fn schedule_probed(
        &self,
        g: &Dag,
        fingerprint: u64,
        sub: &SubCluster,
        algorithm: Algorithm,
        cfg: &DagHetPartConfig,
        config_hash: u64,
    ) -> (Result<SubClusterSchedule, SchedError>, CacheProbe) {
        let key: SolveKey = (fingerprint, sub.shape_signature(), algorithm, config_hash);
        if !self.enabled {
            self.stripes[0].misses.fetch_add(1, Ordering::Relaxed);
            return (
                schedule_on_subcluster(g, sub, algorithm, cfg),
                CacheProbe {
                    hit: false,
                    evictions: 0,
                },
            );
        }
        // Even a pure lookup mutates the store here: it draws a recency
        // tick and refreshes the entry's LRU stamp. Frozen-epoch probes
        // must go through `CacheView`'s read-only path instead.
        self.debug_assert_unfrozen("direct probe (tick draw / LRU stamp refresh)");
        let stripe = self.stripe_of(&key);
        // Cheap under the stripe lock: an Arc refcount bump (or the
        // unit NoSolution marker) plus the LRU stamp refresh; the
        // O(tasks) materialisation runs with the lock released.
        let cached: Option<CachedSolve> = {
            let mut entries = stripe.entries.lock();
            let tick = self.next_tick();
            entries.get_mut(&key).map(|e| {
                e.1 = tick;
                e.0.clone()
            })
        };
        if let Some(entry) = cached {
            stripe.hits.fetch_add(1, Ordering::Relaxed);
            return (
                materialize(entry, sub),
                CacheProbe {
                    hit: true,
                    evictions: 0,
                },
            );
        }
        stripe.misses.fetch_add(1, Ordering::Relaxed);
        match schedule_on_subcluster(g, sub, algorithm, cfg) {
            Err(SchedError::NoSolution) => {
                let evictions = self.insert(key, CachedSolve::NoSolution);
                (
                    Err(SchedError::NoSolution),
                    CacheProbe {
                        hit: false,
                        evictions,
                    },
                )
            }
            Ok(sched) => {
                let evictions =
                    self.insert(key, CachedSolve::Solved(Arc::new(sched.local.clone())));
                (
                    Ok(sched),
                    CacheProbe {
                        hit: false,
                        evictions,
                    },
                )
            }
        }
    }

    /// Feasibility-only probe: exactly [`SolveCache::schedule`]'s
    /// semantics — same key, same hit/miss/eviction charges, a miss
    /// still solves and memoizes the full outcome — but a hit skips the
    /// O(tasks) `materialize` clone and the probe never builds a
    /// [`SubCluster`] unless it has to solve. The admission layer's
    /// `can_place`/reservation replay only needs the yes/no.
    #[allow(clippy::too_many_arguments)]
    fn feasible_probed(
        &self,
        g: &Dag,
        fingerprint: u64,
        cluster: &dhp_platform::Cluster,
        ids: &[dhp_platform::ProcId],
        algorithm: Algorithm,
        cfg: &DagHetPartConfig,
        config_hash: u64,
    ) -> (bool, CacheProbe) {
        if !self.enabled {
            self.stripes[0].misses.fetch_add(1, Ordering::Relaxed);
            let sub = cluster.subcluster(ids);
            return (
                schedule_on_subcluster(g, &sub, algorithm, cfg).is_ok(),
                CacheProbe {
                    hit: false,
                    evictions: 0,
                },
            );
        }
        self.debug_assert_unfrozen("direct probe (tick draw / LRU stamp refresh)");
        let key: SolveKey = (
            fingerprint,
            cluster.shape_of_slice(ids),
            algorithm,
            config_hash,
        );
        let stripe = self.stripe_of(&key);
        let cached: Option<bool> = {
            let mut entries = stripe.entries.lock();
            let tick = self.next_tick();
            entries.get_mut(&key).map(|e| {
                e.1 = tick;
                matches!(e.0, CachedSolve::Solved(_))
            })
        };
        if let Some(feasible) = cached {
            stripe.hits.fetch_add(1, Ordering::Relaxed);
            return (
                feasible,
                CacheProbe {
                    hit: true,
                    evictions: 0,
                },
            );
        }
        stripe.misses.fetch_add(1, Ordering::Relaxed);
        let sub = cluster.subcluster(ids);
        match schedule_on_subcluster(g, &sub, algorithm, cfg) {
            Err(SchedError::NoSolution) => {
                let evictions = self.insert(key, CachedSolve::NoSolution);
                (
                    false,
                    CacheProbe {
                        hit: false,
                        evictions,
                    },
                )
            }
            Ok(sched) => {
                let evictions = self.insert(key, CachedSolve::Solved(Arc::new(sched.local)));
                (
                    true,
                    CacheProbe {
                        hit: false,
                        evictions,
                    },
                )
            }
        }
    }

    /// Memoizing [`schedule_on_subcluster`]. `fingerprint` must be
    /// `g.fingerprint()` — callers that schedule the same graph many
    /// times (the online engine) compute it once per submission instead
    /// of once per probe.
    pub fn schedule(
        &self,
        g: &Dag,
        fingerprint: u64,
        sub: &SubCluster,
        algorithm: Algorithm,
        cfg: &DagHetPartConfig,
        config_hash: u64,
    ) -> Result<SubClusterSchedule, SchedError> {
        self.schedule_probed(g, fingerprint, sub, algorithm, cfg, config_hash)
            .0
    }

    /// Memoizing [`dedicated_baseline`]: a whole-cluster solve, cached
    /// under the same key space as lease solves (the whole cluster in
    /// canonical order is just one more lease shape).
    pub fn dedicated_baseline(
        &self,
        g: &Dag,
        fingerprint: u64,
        cluster: &dhp_platform::Cluster,
        algorithm: Algorithm,
        cfg: &DagHetPartConfig,
        config_hash: u64,
    ) -> Result<f64, SchedError> {
        let ids = cluster.ids_by_memory_desc();
        let sub = cluster.subcluster(&ids);
        self.schedule(g, fingerprint, &sub, algorithm, cfg, config_hash)
            .map(|s| s.local.makespan)
    }

    /// The probing core of the sim-outcome cache: returns the memoized
    /// [`SimOutcome`] for `key`, running `compute` (with no stripe lock
    /// held) and storing its result on a miss. The bool reports whether
    /// the probe hit, for per-caller attribution. Disabled caches
    /// compute every time and store nothing, but still count the miss
    /// so simulator-invocation statistics stay comparable.
    fn sim_probed(
        &self,
        key: SolveKey,
        compute: impl FnOnce() -> SimOutcome,
    ) -> (Arc<SimOutcome>, bool) {
        if !self.enabled {
            self.stripes[0].sim_misses.fetch_add(1, Ordering::Relaxed);
            return (Arc::new(compute()), false);
        }
        let stripe = self.stripe_of(&key);
        if let Some(sim) = stripe.sims.lock().get(&key).cloned() {
            stripe.sim_hits.fetch_add(1, Ordering::Relaxed);
            return (sim, true);
        }
        stripe.sim_misses.fetch_add(1, Ordering::Relaxed);
        let sim = Arc::new(compute());
        self.debug_assert_unfrozen("sim-outcome insert");
        stripe.sims.lock().insert(key, Arc::clone(&sim));
        (sim, false)
    }

    /// Number of memoized simulation outcomes (summed across stripes).
    pub fn sim_len(&self) -> usize {
        self.stripes.iter().map(|s| s.sims.lock().len()).sum()
    }

    // ------------------------------------------------------ snapshots
    //
    // The accessors `dhp_core::persist` serialises through. Snapshots
    // are key-sorted so a saved file is a pure function of the cache
    // *contents*, never of `HashMap` iteration order.

    /// Deterministic byte image of a key, for stripe selection and
    /// snapshot ordering.
    fn key_sort_image(key: &SolveKey) -> (u64, u64, u8, u64) {
        let (fp, shape, algorithm, chash) = *key;
        let algo_byte = match algorithm {
            Algorithm::DagHetPart => 0u8,
            Algorithm::DagHetMem => 1u8,
        };
        (fp, shape, algo_byte, chash)
    }

    /// Every memoized solve as `(key, outcome, LRU stamp)`, key-sorted;
    /// `None` is a memoized `NoSolution`.
    #[allow(clippy::type_complexity)]
    pub(crate) fn snapshot_solves(&self) -> Vec<(SolveKey, Option<Arc<MappingResult>>, u64)> {
        let mut out: Vec<(SolveKey, Option<Arc<MappingResult>>, u64)> = Vec::new();
        for stripe in self.stripes.iter() {
            for (k, (v, stamp)) in stripe.entries.lock().iter() {
                let solved = match v {
                    CachedSolve::Solved(local) => Some(Arc::clone(local)),
                    CachedSolve::NoSolution => None,
                };
                out.push((*k, solved, *stamp));
            }
        }
        out.sort_by_key(|(k, _, _)| SolveCache::key_sort_image(k));
        out
    }

    /// Every memoized simulation outcome as `(key, sim)`, key-sorted.
    pub(crate) fn snapshot_sims(&self) -> Vec<(SolveKey, Arc<SimOutcome>)> {
        let mut out: Vec<(SolveKey, Arc<SimOutcome>)> = Vec::new();
        for stripe in self.stripes.iter() {
            for (k, sim) in stripe.sims.lock().iter() {
                out.push((*k, Arc::clone(sim)));
            }
        }
        out.sort_by_key(|(k, _)| SolveCache::key_sort_image(k));
        out
    }

    /// Current value of the recency clock (the largest stamp drawn).
    pub(crate) fn tick_value(&self) -> u64 {
        self.tick.load(Ordering::Relaxed)
    }

    /// Re-inserts a snapshotted solve with its saved LRU stamp (no tick
    /// draw — restored entries keep their relative recency order).
    /// `None` restores a memoized `NoSolution`.
    pub(crate) fn restore_solve(
        &self,
        key: SolveKey,
        value: Option<Arc<MappingResult>>,
        stamp: u64,
    ) {
        self.debug_assert_unfrozen("snapshot restore (solve)");
        let value = match value {
            Some(local) => CachedSolve::Solved(local),
            None => CachedSolve::NoSolution,
        };
        self.stripe_of(&key)
            .entries
            .lock()
            .insert(key, (value, stamp));
    }

    /// Re-inserts a snapshotted simulation outcome.
    pub(crate) fn restore_sim(&self, key: SolveKey, sim: Arc<SimOutcome>) {
        self.debug_assert_unfrozen("snapshot restore (sim)");
        self.stripe_of(&key).sims.lock().insert(key, sim);
    }

    /// Completes a restore: advances the recency clock past every
    /// restored stamp, carries the snapshot's cumulative statistics
    /// into this cache's counters (stripe 0 keeps the aggregate — the
    /// per-stripe split is not persisted), and evicts down to this
    /// cache's LRU capacity if the snapshot outgrows it.
    pub(crate) fn finish_restore(&self, tick: u64, carried: SolveCacheStats) {
        self.debug_assert_unfrozen("snapshot restore (finish)");
        self.tick.fetch_max(tick, Ordering::Relaxed);
        let s0 = &self.stripes[0];
        s0.hits.fetch_add(carried.hits, Ordering::Relaxed);
        s0.misses.fetch_add(carried.misses, Ordering::Relaxed);
        s0.evictions.fetch_add(carried.evictions, Ordering::Relaxed);
        s0.sim_hits.fetch_add(carried.sim_hits, Ordering::Relaxed);
        s0.sim_misses
            .fetch_add(carried.sim_misses, Ordering::Relaxed);
        if let Some(cap) = self.capacity {
            while self.len() > cap && self.evict_lru() {}
        }
    }

    /// Replays one frozen-epoch account's deferred store effects, in
    /// the order its probes recorded them: a `Touch` refreshes the
    /// entry's LRU stamp (if the entry still exists — a sibling's seal
    /// may have evicted it), an `Insert` moves the account's overlay
    /// value into the shared store, charging any LRU evictions to the
    /// account. The driver calls this once per member in member-index
    /// order at every synchronisation point, which is what makes the
    /// parallel federation byte-identical to the sequential one: the
    /// store's evolution is a pure function of the seal order, never of
    /// thread timing. The account's log and overlay are drained; its
    /// `stats` keep accumulating across epochs.
    pub fn seal_account(&self, account: &mut CacheAccount) {
        self.debug_assert_unfrozen("account seal");
        for ev in std::mem::take(&mut account.log) {
            match ev {
                CacheEvent::Touch(key) => {
                    let stripe = self.stripe_of(&key);
                    let mut entries = stripe.entries.lock();
                    let tick = self.next_tick();
                    if let Some(e) = entries.get_mut(&key) {
                        e.1 = tick;
                    }
                }
                CacheEvent::Insert(key) => {
                    if let Some(value) = account.overlay.remove(&key) {
                        account.stats.evictions += self.insert(key, value);
                    }
                }
                CacheEvent::SimInsert(key) => {
                    if let Some(sim) = account.sim_overlay.remove(&key) {
                        self.stripe_of(&key).sims.lock().insert(key, sim);
                    }
                }
            }
        }
        account.overlay.clear();
        account.sim_overlay.clear();
    }
}

/// The deferred store effects a frozen-epoch probe records for the
/// seal to replay.
#[derive(Clone, Copy, Debug)]
enum CacheEvent {
    /// A hit: refresh this key's LRU stamp at seal time.
    Touch(SolveKey),
    /// A miss whose outcome is parked in the account's overlay: move it
    /// into the shared store at seal time (with LRU eviction).
    Insert(SolveKey),
    /// A sim-outcome miss parked in the account's sim overlay: move it
    /// into the shared sim store at seal time (sims carry no LRU stamp,
    /// so no tick is drawn).
    SimInsert(SolveKey),
}

/// Per-caller solve-cache bookkeeping: the cumulative solver statistics
/// attributed to one caller (one federation member), plus — during a
/// frozen epoch — the ordered log of deferred store effects and the
/// overlay holding the caller's own inserts.
///
/// This is the **single owner of per-member solver-stat attribution**:
/// every probe a member causes is charged here at probe time, by the
/// [`CacheView`] that wraps the account — `Live` probes charge the
/// exact outcome `schedule_probed` reports, `Frozen` probes charge
/// their overlay/store outcome directly. Nothing diffs global counters
/// around a call, so interleaved steps can never double-count.
#[derive(Debug, Default)]
pub struct CacheAccount {
    /// Cumulative statistics attributed to this account.
    pub stats: SolveCacheStats,
    log: Vec<CacheEvent>,
    overlay: HashMap<SolveKey, CachedSolve>,
    sim_overlay: HashMap<SolveKey, Arc<SimOutcome>>,
}

impl CacheAccount {
    /// True when the account holds deferred effects that a
    /// [`SolveCache::seal_account`] call has not replayed yet.
    pub fn is_sealed(&self) -> bool {
        self.log.is_empty() && self.overlay.is_empty() && self.sim_overlay.is_empty()
    }
}

/// How a [`CacheView`] interacts with the shared store.
enum ViewMode<'a> {
    Direct,
    Live(RefCell<&'a mut CacheAccount>),
    Frozen(RefCell<&'a mut CacheAccount>),
}

/// A borrowing handle the scheduling layers (admission, lease growth,
/// suffix solves) probe instead of the raw [`SolveCache`], fixing *how*
/// each probe touches the shared store and *who* is charged for it:
///
/// * [`CacheView::direct`] — probe the store directly, charge only the
///   global counters. The single-cluster engine's mode; byte-identical
///   to probing the [`SolveCache`] itself.
/// * [`CacheView::live`] — probe the store directly, but additionally
///   charge the exact probe outcome (hit/miss/evictions) to a
///   [`CacheAccount`]. Used by the federation driver thread for
///   routing and spillover probes, where store effects are safe but
///   per-member attribution is required.
/// * [`CacheView::frozen`] — treat the store as **read-only**: hits
///   come from the account's overlay first, then the shared store
///   (without touching its LRU stamps); misses solve and park the
///   result in the overlay. Every deferred store effect is logged for
///   [`SolveCache::seal_account`] to replay deterministically. This is
///   the mode of the parallel per-member phases: shards probe
///   concurrently without racing on store mutations, and the sealed
///   replay order (member index) — not thread timing — decides the
///   store's evolution.
///
/// Global hit/miss counters are bumped immediately in every mode (they
/// are commutative atomics, so totals are interleaving-independent);
/// eviction counters only move on direct/live inserts and at seal time.
pub struct CacheView<'a> {
    cache: &'a SolveCache,
    mode: ViewMode<'a>,
}

impl std::fmt::Debug for CacheView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mode = match self.mode {
            ViewMode::Direct => "direct",
            ViewMode::Live(_) => "live",
            ViewMode::Frozen(_) => "frozen",
        };
        f.debug_struct("CacheView").field("mode", &mode).finish()
    }
}

impl Drop for CacheView<'_> {
    fn drop(&mut self) {
        // Frozen views are counted on the cache: the last one dropping
        // lifts the store's mutation poison (the driver may then seal).
        if matches!(self.mode, ViewMode::Frozen(_)) {
            self.cache.frozen_views.fetch_sub(1, Ordering::Release);
        }
    }
}

impl<'a> CacheView<'a> {
    /// A pass-through view: probes hit the store exactly like calling
    /// [`SolveCache::schedule`] directly.
    pub fn direct(cache: &'a SolveCache) -> Self {
        CacheView {
            cache,
            mode: ViewMode::Direct,
        }
    }

    /// A direct-effect view that also charges each probe's exact
    /// outcome to `account` (no global-counter diffing).
    pub fn live(cache: &'a SolveCache, account: &'a mut CacheAccount) -> Self {
        CacheView {
            cache,
            mode: ViewMode::Live(RefCell::new(account)),
        }
    }

    /// A frozen-epoch view: the store is read-only, deferred effects
    /// accumulate in `account` until [`SolveCache::seal_account`].
    ///
    /// While the view is alive the store is **poisoned against
    /// mutation**: debug builds assert on any insert, eviction, LRU
    /// stamp refresh, restore, or seal until the view drops — so a
    /// parallel phase that accidentally routes a probe around the
    /// frozen protocol trips immediately under `cargo test`.
    pub fn frozen(cache: &'a SolveCache, account: &'a mut CacheAccount) -> Self {
        cache.frozen_views.fetch_add(1, Ordering::Release);
        CacheView {
            cache,
            mode: ViewMode::Frozen(RefCell::new(account)),
        }
    }

    /// The underlying shared cache.
    pub fn cache(&self) -> &'a SolveCache {
        self.cache
    }

    /// Number of live frozen views over `cache` (the poison flag the
    /// store-mutation asserts read; exposed for tests).
    pub fn frozen_count(cache: &SolveCache) -> u64 {
        cache.frozen_views.load(Ordering::Acquire)
    }

    /// Whether the underlying cache memoizes.
    pub fn is_enabled(&self) -> bool {
        self.cache.is_enabled()
    }

    /// [`SolveCache::is_warm`] through the view: a frozen view also
    /// consults its own overlay (its epoch's inserts are warm to
    /// itself). A pure peek in every mode.
    pub fn is_warm(
        &self,
        fingerprint: u64,
        shape: u64,
        algorithm: Algorithm,
        config_hash: u64,
    ) -> bool {
        if let ViewMode::Frozen(acc) = &self.mode {
            let key: SolveKey = (fingerprint, shape, algorithm, config_hash);
            if matches!(acc.borrow().overlay.get(&key), Some(CachedSolve::Solved(_))) {
                return true;
            }
        }
        self.cache
            .is_warm(fingerprint, shape, algorithm, config_hash)
    }

    /// Memoizing [`schedule_on_subcluster`] through the view — the
    /// probe entry point of every scheduling layer. See the type docs
    /// for the per-mode semantics.
    pub fn schedule(
        &self,
        g: &Dag,
        fingerprint: u64,
        sub: &SubCluster,
        algorithm: Algorithm,
        cfg: &DagHetPartConfig,
        config_hash: u64,
    ) -> Result<SubClusterSchedule, SchedError> {
        match &self.mode {
            ViewMode::Direct => {
                self.cache
                    .schedule_probed(g, fingerprint, sub, algorithm, cfg, config_hash)
                    .0
            }
            ViewMode::Live(acc) => {
                let (result, probe) =
                    self.cache
                        .schedule_probed(g, fingerprint, sub, algorithm, cfg, config_hash);
                let mut acc = acc.borrow_mut();
                if probe.hit {
                    acc.stats.hits += 1;
                } else {
                    acc.stats.misses += 1;
                }
                acc.stats.evictions += probe.evictions;
                result
            }
            ViewMode::Frozen(acc) => {
                let mut acc = acc.borrow_mut();
                if !self.cache.enabled {
                    acc.stats.misses += 1;
                    self.cache.stripes[0].misses.fetch_add(1, Ordering::Relaxed);
                    return schedule_on_subcluster(g, sub, algorithm, cfg);
                }
                let key: SolveKey = (fingerprint, sub.shape_signature(), algorithm, config_hash);
                let stripe = self.cache.stripe_of(&key);
                // Own overlay first: this epoch's inserts are visible
                // to this shard (and only this shard) before the seal.
                if let Some(entry) = acc.overlay.get(&key).cloned() {
                    acc.stats.hits += 1;
                    stripe.hits.fetch_add(1, Ordering::Relaxed);
                    acc.log.push(CacheEvent::Touch(key));
                    return materialize(entry, sub);
                }
                // Read-only store probe: no tick draw, no stamp
                // refresh — the Touch replays the refresh at seal time.
                let base = stripe.entries.lock().get(&key).map(|(v, _)| v.clone());
                if let Some(entry) = base {
                    acc.stats.hits += 1;
                    stripe.hits.fetch_add(1, Ordering::Relaxed);
                    acc.log.push(CacheEvent::Touch(key));
                    return materialize(entry, sub);
                }
                acc.stats.misses += 1;
                stripe.misses.fetch_add(1, Ordering::Relaxed);
                match schedule_on_subcluster(g, sub, algorithm, cfg) {
                    Err(SchedError::NoSolution) => {
                        acc.overlay.insert(key, CachedSolve::NoSolution);
                        acc.log.push(CacheEvent::Insert(key));
                        Err(SchedError::NoSolution)
                    }
                    Ok(sched) => {
                        acc.overlay
                            .insert(key, CachedSolve::Solved(Arc::new(sched.local.clone())));
                        acc.log.push(CacheEvent::Insert(key));
                        Ok(sched)
                    }
                }
            }
        }
    }

    /// Feasibility-only probe through the view: semantically
    /// `self.schedule(...).is_ok()` — identical key, identical counter
    /// charges, a miss still solves and memoizes — but a warm hit skips
    /// the O(tasks) mapping materialisation and never constructs a
    /// [`SubCluster`] (the shape is hashed straight off the id slice).
    /// The zero-allocation admission probes are built on this.
    #[allow(clippy::too_many_arguments)]
    pub fn feasible(
        &self,
        g: &Dag,
        fingerprint: u64,
        cluster: &dhp_platform::Cluster,
        ids: &[dhp_platform::ProcId],
        algorithm: Algorithm,
        cfg: &DagHetPartConfig,
        config_hash: u64,
    ) -> bool {
        match &self.mode {
            ViewMode::Direct => {
                self.cache
                    .feasible_probed(g, fingerprint, cluster, ids, algorithm, cfg, config_hash)
                    .0
            }
            ViewMode::Live(acc) => {
                let (feasible, probe) = self.cache.feasible_probed(
                    g,
                    fingerprint,
                    cluster,
                    ids,
                    algorithm,
                    cfg,
                    config_hash,
                );
                let mut acc = acc.borrow_mut();
                if probe.hit {
                    acc.stats.hits += 1;
                } else {
                    acc.stats.misses += 1;
                }
                acc.stats.evictions += probe.evictions;
                feasible
            }
            ViewMode::Frozen(acc) => {
                let mut acc = acc.borrow_mut();
                if !self.cache.enabled {
                    acc.stats.misses += 1;
                    self.cache.stripes[0].misses.fetch_add(1, Ordering::Relaxed);
                    let sub = cluster.subcluster(ids);
                    return schedule_on_subcluster(g, &sub, algorithm, cfg).is_ok();
                }
                let key: SolveKey = (
                    fingerprint,
                    cluster.shape_of_slice(ids),
                    algorithm,
                    config_hash,
                );
                let stripe = self.cache.stripe_of(&key);
                if let Some(entry) = acc.overlay.get(&key) {
                    let feasible = matches!(entry, CachedSolve::Solved(_));
                    acc.stats.hits += 1;
                    stripe.hits.fetch_add(1, Ordering::Relaxed);
                    acc.log.push(CacheEvent::Touch(key));
                    return feasible;
                }
                let base = stripe
                    .entries
                    .lock()
                    .get(&key)
                    .map(|(v, _)| matches!(v, CachedSolve::Solved(_)));
                if let Some(feasible) = base {
                    acc.stats.hits += 1;
                    stripe.hits.fetch_add(1, Ordering::Relaxed);
                    acc.log.push(CacheEvent::Touch(key));
                    return feasible;
                }
                acc.stats.misses += 1;
                stripe.misses.fetch_add(1, Ordering::Relaxed);
                let sub = cluster.subcluster(ids);
                match schedule_on_subcluster(g, &sub, algorithm, cfg) {
                    Err(SchedError::NoSolution) => {
                        acc.overlay.insert(key, CachedSolve::NoSolution);
                        acc.log.push(CacheEvent::Insert(key));
                        false
                    }
                    Ok(sched) => {
                        acc.overlay
                            .insert(key, CachedSolve::Solved(Arc::new(sched.local)));
                        acc.log.push(CacheEvent::Insert(key));
                        true
                    }
                }
            }
        }
    }

    /// Memoizing discrete-event simulation through the view: returns
    /// the [`SimOutcome`] for `(fingerprint, shape, algorithm,
    /// config_hash)`, running `compute` only on a miss. Per-mode
    /// semantics mirror [`CacheView::schedule`]:
    ///
    /// * `Direct` — probe/insert the shared sim store, global counters
    ///   only.
    /// * `Live` — same store effects, plus the exact hit/miss charged
    ///   to the account.
    /// * `Frozen` — own sim overlay first, then a read-only store
    ///   probe; misses compute and park the outcome in the overlay with
    ///   a deferred `SimInsert` for [`SolveCache::seal_account`]. Sims
    ///   carry no LRU stamp, so hits defer nothing.
    ///
    /// A disabled cache computes every time and stores nothing, but
    /// still counts the miss.
    pub fn sim_outcome(
        &self,
        fingerprint: u64,
        shape: u64,
        algorithm: Algorithm,
        config_hash: u64,
        compute: impl FnOnce() -> SimOutcome,
    ) -> Arc<SimOutcome> {
        let key: SolveKey = (fingerprint, shape, algorithm, config_hash);
        match &self.mode {
            ViewMode::Direct => self.cache.sim_probed(key, compute).0,
            ViewMode::Live(acc) => {
                let (sim, hit) = self.cache.sim_probed(key, compute);
                let mut acc = acc.borrow_mut();
                if hit {
                    acc.stats.sim_hits += 1;
                } else {
                    acc.stats.sim_misses += 1;
                }
                sim
            }
            ViewMode::Frozen(acc) => {
                let mut acc = acc.borrow_mut();
                if !self.cache.enabled {
                    acc.stats.sim_misses += 1;
                    self.cache.stripes[0]
                        .sim_misses
                        .fetch_add(1, Ordering::Relaxed);
                    return Arc::new(compute());
                }
                let stripe = self.cache.stripe_of(&key);
                if let Some(sim) = acc.sim_overlay.get(&key).cloned() {
                    acc.stats.sim_hits += 1;
                    stripe.sim_hits.fetch_add(1, Ordering::Relaxed);
                    return sim;
                }
                let base = stripe.sims.lock().get(&key).cloned();
                if let Some(sim) = base {
                    acc.stats.sim_hits += 1;
                    stripe.sim_hits.fetch_add(1, Ordering::Relaxed);
                    return sim;
                }
                acc.stats.sim_misses += 1;
                stripe.sim_misses.fetch_add(1, Ordering::Relaxed);
                let sim = Arc::new(compute());
                acc.sim_overlay.insert(key, Arc::clone(&sim));
                acc.log.push(CacheEvent::SimInsert(key));
                sim
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::validate;
    use dhp_dag::builder;
    use dhp_platform::{Cluster, ProcId, Processor};

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
        let chash = SolveCache::config_hash(&cfg);
        let cache = SolveCache::new();
        let sub = c.subcluster(&[ProcId(3), ProcId(1)]);
        let suffix: Vec<dhp_dag::NodeId> = g.node_ids().skip(2).collect();
        let s = solve_suffix(
            &g,
            &suffix,
            &sub,
            Algorithm::DagHetPart,
            &cfg,
            &CacheView::direct(&cache),
            chash,
        )
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
        let cfg = DagHetPartConfig::default();
        let chash = SolveCache::config_hash(&cfg);
        let cache = SolveCache::new();
        let sub = c.subcluster(&[ProcId(2)]);
        let suffix: Vec<dhp_dag::NodeId> = g.node_ids().skip(1).collect();
        let r = solve_suffix(
            &g,
            &suffix,
            &sub,
            Algorithm::DagHetPart,
            &cfg,
            &CacheView::direct(&cache),
            chash,
        );
        assert_eq!(r.err(), Some(SchedError::NoSolution));
    }

    #[test]
    #[should_panic(expected = "empty suffix")]
    fn empty_suffix_is_a_caller_bug() {
        let g = builder::chain(3, 1.0, 1.0, 1.0);
        let c = cluster();
        let cfg = DagHetPartConfig::default();
        let cache = SolveCache::new();
        let _ = solve_suffix(
            &g,
            &[],
            &c.subcluster(&[ProcId(0)]),
            Algorithm::DagHetPart,
            &cfg,
            &CacheView::direct(&cache),
            SolveCache::config_hash(&cfg),
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

    // ------------------------------------------------ striping + views

    /// Runs the same sequential probe workload against a cache and
    /// returns its stats: a mix of misses, hits, repeats and an
    /// infeasible (NoSolution) shape.
    fn probe_workload(cache: &SolveCache) -> SolveCacheStats {
        let c = cluster();
        let cfg = DagHetPartConfig::default();
        let chash = SolveCache::config_hash(&cfg);
        let sub = c.subcluster(&[ProcId(3), ProcId(1)]);
        let tiny = c.subcluster(&[ProcId(2)]);
        let graphs: Vec<Dag> = (3..9).map(|n| builder::chain(n, 2.0, 4.0, 1.0)).collect();
        for pass in 0..3 {
            for g in &graphs {
                let _ =
                    cache.schedule(g, g.fingerprint(), &sub, Algorithm::DagHetPart, &cfg, chash);
            }
            if pass == 1 {
                let big = builder::chain(40, 1.0, 30.0, 5.0);
                let _ = cache.schedule(
                    &big,
                    big.fingerprint(),
                    &tiny,
                    Algorithm::DagHetPart,
                    &cfg,
                    chash,
                );
            }
        }
        cache.stats()
    }

    #[test]
    fn striped_counters_sum_exactly_to_the_single_stripe_path() {
        // The single-mutex reference path is `with_stripes(1)`; the
        // striped default must report the identical aggregate counters
        // and entry count on an identical sequential workload, and its
        // per-stripe counters must sum exactly to the aggregate.
        let reference = SolveCache::with_stripes(1);
        let striped = SolveCache::new();
        assert_eq!(striped.stripes(), SolveCache::DEFAULT_STRIPES);
        let a = probe_workload(&reference);
        let b = probe_workload(&striped);
        assert_eq!(a, b, "striping changed the aggregate statistics");
        assert_eq!(reference.len(), striped.len());
        let mut summed = SolveCacheStats::default();
        for s in striped.stripe_stats() {
            summed.hits += s.hits;
            summed.misses += s.misses;
            summed.evictions += s.evictions;
            summed.sim_hits += s.sim_hits;
            summed.sim_misses += s.sim_misses;
        }
        assert_eq!(summed, striped.stats(), "stripe counters must sum exactly");
        // And the entries really are spread over more than one stripe.
        assert!(
            striped
                .stripe_stats()
                .iter()
                .filter(|s| s.misses > 0)
                .count()
                > 1
        );
    }

    #[test]
    fn capped_striped_cache_keeps_global_lru_order() {
        // The LRU pin re-run on a many-striped capped cache: eviction
        // order must follow global recency, not per-stripe recency.
        let c = cluster();
        let cfg = DagHetPartConfig::default();
        let chash = SolveCache::config_hash(&cfg);
        let cache = SolveCache::with_capacity_and_stripes(2, 8);
        let sub = c.subcluster(&[ProcId(3), ProcId(1)]);
        let graphs: Vec<Dag> = (4..7).map(|n| builder::chain(n, 2.0, 4.0, 1.0)).collect();
        let solve = |g: &Dag| {
            cache
                .schedule(g, g.fingerprint(), &sub, Algorithm::DagHetPart, &cfg, chash)
                .unwrap()
        };
        solve(&graphs[0]);
        solve(&graphs[1]);
        solve(&graphs[0]); // refresh g0
        solve(&graphs[2]); // evicts g1 across stripes
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
        solve(&graphs[0]);
        solve(&graphs[1]);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (2, 4, 2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn live_view_charges_the_account_exactly() {
        let g = builder::fork_join(6, 10.0, 4.0, 2.0);
        let c = cluster();
        let cfg = DagHetPartConfig::default();
        let chash = SolveCache::config_hash(&cfg);
        let cache = SolveCache::new();
        let fp = g.fingerprint();
        let sub = c.subcluster(&[ProcId(3), ProcId(1)]);
        let mut account = CacheAccount::default();
        {
            let view = CacheView::live(&cache, &mut account);
            view.schedule(&g, fp, &sub, Algorithm::DagHetPart, &cfg, chash)
                .unwrap();
            view.schedule(&g, fp, &sub, Algorithm::DagHetPart, &cfg, chash)
                .unwrap();
        }
        assert_eq!((account.stats.hits, account.stats.misses), (1, 1));
        assert!(account.is_sealed(), "live probes defer nothing");
        // Live probes hit the store directly: the global counters agree
        // and the entry is immediately visible to direct probes.
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn frozen_view_defers_inserts_until_the_seal() {
        let g = builder::fork_join(6, 10.0, 4.0, 2.0);
        let c = cluster();
        let cfg = DagHetPartConfig::default();
        let chash = SolveCache::config_hash(&cfg);
        let cache = SolveCache::new();
        let fp = g.fingerprint();
        let sub = c.subcluster(&[ProcId(3), ProcId(1)]);
        let mut account = CacheAccount::default();
        {
            let view = CacheView::frozen(&cache, &mut account);
            // Miss: solved, parked in the overlay — the store is frozen.
            view.schedule(&g, fp, &sub, Algorithm::DagHetPart, &cfg, chash)
                .unwrap();
            // Repeat within the epoch: served from the own overlay.
            view.schedule(&g, fp, &sub, Algorithm::DagHetPart, &cfg, chash)
                .unwrap();
            assert!(view.is_warm(fp, sub.shape_signature(), Algorithm::DagHetPart, chash));
        }
        assert_eq!((account.stats.hits, account.stats.misses), (1, 1));
        assert!(!account.is_sealed());
        assert_eq!(cache.len(), 0, "a frozen epoch must not mutate the store");
        assert!(!cache.is_warm(fp, sub.shape_signature(), Algorithm::DagHetPart, chash));
        cache.seal_account(&mut account);
        assert!(account.is_sealed());
        assert_eq!(cache.len(), 1, "the seal publishes the overlay");
        assert!(cache.is_warm(fp, sub.shape_signature(), Algorithm::DagHetPart, chash));
        // A direct probe now hits the sealed entry.
        cache
            .schedule(&g, fp, &sub, Algorithm::DagHetPart, &cfg, chash)
            .unwrap();
        assert_eq!(cache.stats().hits, 1 + 1); // 1 frozen overlay hit + 1 direct
    }

    #[test]
    fn sealing_charges_evictions_to_the_inserting_account() {
        // Capacity 1: sealing two frozen inserts must evict once, and
        // the eviction is attributed to the sealing account.
        let c = cluster();
        let cfg = DagHetPartConfig::default();
        let chash = SolveCache::config_hash(&cfg);
        let cache = SolveCache::with_capacity(1);
        let sub = c.subcluster(&[ProcId(3), ProcId(1)]);
        let g0 = builder::chain(4, 2.0, 4.0, 1.0);
        let g1 = builder::chain(5, 2.0, 4.0, 1.0);
        let mut account = CacheAccount::default();
        {
            let view = CacheView::frozen(&cache, &mut account);
            view.schedule(
                &g0,
                g0.fingerprint(),
                &sub,
                Algorithm::DagHetPart,
                &cfg,
                chash,
            )
            .unwrap();
            view.schedule(
                &g1,
                g1.fingerprint(),
                &sub,
                Algorithm::DagHetPart,
                &cfg,
                chash,
            )
            .unwrap();
        }
        assert_eq!(account.stats.evictions, 0, "evictions only move at seal");
        cache.seal_account(&mut account);
        assert_eq!(account.stats.evictions, 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 1);
        // The survivor is the later insert (seal replays in log order).
        assert!(cache.is_warm(
            g1.fingerprint(),
            sub.shape_signature(),
            Algorithm::DagHetPart,
            chash
        ));
    }

    // ------------------------------------------------ sim-outcome cache

    fn toy_sim(tag: f64) -> SimOutcome {
        SimOutcome {
            makespan: tag,
            task_start: vec![0.0, tag / 2.0],
            task_finish: vec![tag / 2.0, tag],
            lanes: vec![(0, tag)],
        }
    }

    #[test]
    fn sim_outcomes_memoize_through_the_direct_view() {
        let cache = SolveCache::new();
        let view = CacheView::direct(&cache);
        let mut computed = 0;
        let first = view.sim_outcome(7, 9, Algorithm::DagHetPart, 3, || {
            computed += 1;
            toy_sim(10.0)
        });
        let mut recomputed = false;
        let second = view.sim_outcome(7, 9, Algorithm::DagHetPart, 3, || {
            recomputed = true;
            toy_sim(99.0)
        });
        assert_eq!(computed, 1);
        assert!(!recomputed, "a sim hit must not re-simulate");
        assert_eq!(*first, *second);
        assert_eq!(cache.sim_len(), 1);
        let s = cache.stats();
        assert_eq!((s.sim_hits, s.sim_misses), (1, 1));
        // Sims and solves count separately.
        assert_eq!((s.hits, s.misses), (0, 0));
    }

    #[test]
    fn disabled_cache_computes_sims_every_time_but_counts_them() {
        let cache = SolveCache::disabled();
        let view = CacheView::direct(&cache);
        let mut computed = 0;
        for _ in 0..3 {
            view.sim_outcome(7, 9, Algorithm::DagHetPart, 3, || {
                computed += 1;
                toy_sim(10.0)
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
        let mut account = CacheAccount::default();
        {
            let view = CacheView::live(&cache, &mut account);
            view.sim_outcome(7, 9, Algorithm::DagHetPart, 3, || toy_sim(10.0));
            view.sim_outcome(7, 9, Algorithm::DagHetPart, 3, || toy_sim(10.0));
        }
        assert_eq!((account.stats.sim_hits, account.stats.sim_misses), (1, 1));
        assert!(account.is_sealed(), "live sim probes defer nothing");
        assert_eq!(cache.sim_len(), 1);
    }

    #[test]
    fn frozen_view_defers_sim_inserts_until_the_seal() {
        let cache = SolveCache::new();
        let mut account = CacheAccount::default();
        {
            let view = CacheView::frozen(&cache, &mut account);
            let first = view.sim_outcome(7, 9, Algorithm::DagHetPart, 3, || toy_sim(10.0));
            // Repeat within the epoch: served from the own sim overlay.
            let second = view.sim_outcome(7, 9, Algorithm::DagHetPart, 3, || toy_sim(99.0));
            assert_eq!(*first, *second);
        }
        assert_eq!((account.stats.sim_hits, account.stats.sim_misses), (1, 1));
        assert!(!account.is_sealed());
        assert_eq!(
            cache.sim_len(),
            0,
            "a frozen epoch must not mutate the store"
        );
        cache.seal_account(&mut account);
        assert!(account.is_sealed());
        assert_eq!(cache.sim_len(), 1, "the seal publishes the sim overlay");
        // A direct probe now hits the sealed sim.
        let view = CacheView::direct(&cache);
        let sim = view.sim_outcome(7, 9, Algorithm::DagHetPart, 3, || toy_sim(99.0));
        assert_eq!(sim.makespan, 10.0);
        assert_eq!(cache.stats().sim_hits, 1 + 1); // frozen overlay hit + direct
    }

    #[test]
    fn evicting_a_solve_drops_its_sim_outcome() {
        let c = cluster();
        let cfg = DagHetPartConfig::default();
        let chash = SolveCache::config_hash(&cfg);
        let cache = SolveCache::with_capacity(1);
        let sub = c.subcluster(&[ProcId(3), ProcId(1)]);
        let shape = sub.shape_signature();
        let g0 = builder::chain(4, 2.0, 4.0, 1.0);
        let g1 = builder::chain(5, 2.0, 4.0, 1.0);
        let view = CacheView::direct(&cache);
        view.schedule(
            &g0,
            g0.fingerprint(),
            &sub,
            Algorithm::DagHetPart,
            &cfg,
            chash,
        )
        .unwrap();
        view.sim_outcome(
            g0.fingerprint(),
            shape,
            Algorithm::DagHetPart,
            chash,
            || toy_sim(10.0),
        );
        assert_eq!((cache.len(), cache.sim_len()), (1, 1));
        // Inserting a second solve evicts g0 — and its sim with it.
        view.schedule(
            &g1,
            g1.fingerprint(),
            &sub,
            Algorithm::DagHetPart,
            &cfg,
            chash,
        )
        .unwrap();
        assert_eq!((cache.len(), cache.sim_len()), (1, 0));
        let mut recomputed = false;
        view.sim_outcome(
            g0.fingerprint(),
            shape,
            Algorithm::DagHetPart,
            chash,
            || {
                recomputed = true;
                toy_sim(11.0)
            },
        );
        assert!(recomputed, "the evicted sim must be gone");
    }
}
