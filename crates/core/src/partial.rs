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
    // The whole view in view order: its shape is `sub`'s signature.
    let ids: Vec<ProcId> = sub.cluster().proc_ids().collect();
    let local = cache.solve(
        &dag,
        fingerprint,
        sub.cluster(),
        &ids,
        algorithm,
        cfg,
        config_hash,
    )?;
    let global = remap_to_parent(sub.global_ids(), &local.mapping);
    Ok(SuffixSolve {
        dag,
        back,
        fingerprint,
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

/// One probe's cache key with its stripe, picked once: made by
/// [`CacheView::key`] and answered by [`CacheView::solve_keyed`] and
/// [`CacheView::sim_outcome_keyed`], so an admission probe that asks
/// both stores hashes its lease shape once and its key's stripe once.
/// The stripe is the one of the cache whose view made the key; a key
/// is only valid there.
#[derive(Clone, Copy, Debug)]
pub struct ProbeKey {
    key: SolveKey,
    stripe: usize,
}

/// A memoized solve outcome in lease-local processor ids. Solved
/// entries sit behind an [`Arc`] so a hit clones a refcount under the
/// map lock, not an O(tasks) mapping.
#[derive(Clone, Debug)]
enum CachedSolve {
    Solved(Arc<MappingResult>),
    NoSolution,
}

impl CachedSolve {
    /// The entry a solve outcome is memoized as.
    fn of(outcome: &Result<Arc<MappingResult>, SchedError>) -> CachedSolve {
        match outcome {
            Ok(local) => CachedSolve::Solved(Arc::clone(local)),
            Err(SchedError::NoSolution) => CachedSolve::NoSolution,
        }
    }

    /// The outcome a hit on this entry answers with.
    fn outcome(self) -> Result<Arc<MappingResult>, SchedError> {
        match self {
            CachedSolve::Solved(local) => Ok(local),
            CachedSolve::NoSolution => Err(SchedError::NoSolution),
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
        // Stripe mutexes rank below the solver's slot; they are never
        // nested with each other (entries vs sims of the same key are
        // taken sequentially), which the debug-build rank tracker
        // enforces.
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
/// attribution (a [`CacheView::live`] charges these to its account).
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
/// — so the baseline batch's concurrent solves don't serialise on one
/// global mutex.
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
/// a time — which the engine guarantees: both serve loops probe from
/// one thread, member after member in a federation, and the baseline
/// batch runs on one worker under a cap.
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
        }
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

    /// `key` with its stripe in this cache.
    fn probe_key(&self, key: SolveKey) -> ProbeKey {
        ProbeKey {
            key,
            stripe: stripe_index(&key, self.stripes.len()),
        }
    }

    /// The stripe `key` was made for, without hashing it again.
    fn stripe_at(&self, key: &ProbeKey) -> &Stripe {
        debug_assert_eq!(
            key.stripe,
            stripe_index(&key.key, self.stripes.len()),
            "a probe key made for another cache"
        );
        &self.stripes[key.stripe]
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

    fn contains(&self, key: &ProbeKey) -> bool {
        self.stripe_at(key).entries.lock().contains_key(&key.key)
    }

    /// Removes the least-recently-used entry across all stripes (the
    /// globally smallest recency stamp; stamps are unique, so the
    /// victim is well-defined). Returns false on an empty cache.
    fn evict_lru(&self) -> bool {
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
    fn insert(&self, key: ProbeKey, value: CachedSolve) -> u64 {
        let mut evicted = 0u64;
        if let Some(cap) = self.capacity {
            while self.len() >= cap && !self.contains(&key) && self.evict_lru() {
                evicted += 1;
            }
        }
        let stamp = self.next_tick();
        self.stripe_at(&key)
            .entries
            .lock()
            .insert(key.key, (value, stamp));
        evicted
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
    /// refreshing the entry's LRU stamp — or runs `solve` (with no
    /// stripe lock held) and memoizes its outcome, `NoSolution`
    /// included. Also reports what the probe did to the store — a
    /// [`CacheView::live`] charges exactly this outcome to its account,
    /// with no global-counter diffing.
    fn lookup_or_solve(
        &self,
        key: ProbeKey,
        solve: impl FnOnce() -> Result<MappingResult, SchedError>,
    ) -> (Result<Arc<MappingResult>, SchedError>, CacheProbe) {
        if !self.enabled {
            self.stripes[0].misses.fetch_add(1, Ordering::Relaxed);
            return (
                solve().map(Arc::new),
                CacheProbe {
                    hit: false,
                    evictions: 0,
                },
            );
        }
        let stripe = self.stripe_at(&key);
        // Cheap under the stripe lock: an Arc refcount bump (or the
        // unit NoSolution marker) plus the LRU stamp refresh.
        let cached: Option<CachedSolve> = {
            let mut entries = stripe.entries.lock();
            let tick = self.next_tick();
            entries.get_mut(&key.key).map(|e| {
                e.1 = tick;
                e.0.clone()
            })
        };
        if let Some(entry) = cached {
            stripe.hits.fetch_add(1, Ordering::Relaxed);
            return (
                entry.outcome(),
                CacheProbe {
                    hit: true,
                    evictions: 0,
                },
            );
        }
        stripe.misses.fetch_add(1, Ordering::Relaxed);
        let outcome = solve().map(Arc::new);
        let evictions = self.insert(key, CachedSolve::of(&outcome));
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
        let key = self.probe_key((fingerprint, sub.shape_signature(), algorithm, config_hash));
        let local = self
            .lookup_or_solve(key, || solve_local(g, sub.cluster(), algorithm, cfg))
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
        let key = self.probe_key((
            fingerprint,
            cluster.shape_of_slice(&ids),
            algorithm,
            config_hash,
        ));
        self.lookup_or_solve(key, || {
            solve_local(g, cluster.subcluster(&ids).cluster(), algorithm, cfg)
        })
        .0
        .map(|local| local.makespan)
    }

    /// The probing core of the sim-outcome cache: returns the memoized
    /// [`SimOutcome`] for `key`, running `compute` (with no stripe lock
    /// held) and storing its result on a miss. The bool reports whether
    /// the probe hit, for per-caller attribution. Disabled caches
    /// compute every time and store nothing, but still count the miss
    /// so simulator-invocation statistics stay comparable.
    fn sim_probed(
        &self,
        key: ProbeKey,
        compute: impl FnOnce() -> SimOutcome,
    ) -> (Arc<SimOutcome>, bool) {
        if !self.enabled {
            self.stripes[0].sim_misses.fetch_add(1, Ordering::Relaxed);
            return (Arc::new(compute()), false);
        }
        let stripe = self.stripe_at(&key);
        if let Some(sim) = stripe.sims.lock().get(&key.key).cloned() {
            stripe.sim_hits.fetch_add(1, Ordering::Relaxed);
            return (sim, true);
        }
        stripe.sim_misses.fetch_add(1, Ordering::Relaxed);
        let sim = Arc::new(compute());
        stripe.sims.lock().insert(key.key, Arc::clone(&sim));
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
        self.stripe_of(&key).sims.lock().insert(key, sim);
    }

    /// Completes a restore: advances the recency clock past every
    /// restored stamp, carries the snapshot's cumulative statistics
    /// into this cache's counters (stripe 0 keeps the aggregate — the
    /// per-stripe split is not persisted), and evicts down to this
    /// cache's LRU capacity if the snapshot outgrows it.
    pub(crate) fn finish_restore(&self, tick: u64, carried: SolveCacheStats) {
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
}

/// A borrowing handle the scheduling layers (admission, lease growth,
/// suffix solves) probe instead of the raw [`SolveCache`], fixing *who*
/// is charged for each probe:
///
/// * [`CacheView::direct`] — charge only the store's global counters.
///   The single-cluster engine's view; byte-identical to probing the
///   [`SolveCache`] itself.
/// * [`CacheView::live`] — additionally charge the exact probe outcome
///   (hit/miss, evictions, sim hit/miss) to an account: the federation
///   member whose step, routing or spillover caused the probe.
///
/// Both probe the shared store in place: an insert is visible to the
/// very next probe, whoever makes it.
#[derive(Debug)]
pub struct CacheView<'a> {
    cache: &'a SolveCache,
    account: Option<&'a Cell<SolveCacheStats>>,
}

impl<'a> CacheView<'a> {
    /// A view that charges only the store's global counters.
    pub fn direct(cache: &'a SolveCache) -> Self {
        CacheView {
            cache,
            account: None,
        }
    }

    /// A view that also charges each probe's exact outcome to `account`
    /// (no global-counter diffing).
    pub fn live(cache: &'a SolveCache, account: &'a mut SolveCacheStats) -> Self {
        CacheView {
            cache,
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

    /// The underlying shared cache.
    pub fn cache(&self) -> &'a SolveCache {
        self.cache
    }

    /// Whether the underlying cache memoizes.
    pub fn is_enabled(&self) -> bool {
        self.cache.is_enabled()
    }

    /// [`SolveCache::is_warm`] through the view: a pure peek.
    pub fn is_warm(
        &self,
        fingerprint: u64,
        shape: u64,
        algorithm: Algorithm,
        config_hash: u64,
    ) -> bool {
        self.cache
            .is_warm(fingerprint, shape, algorithm, config_hash)
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
    /// LRU evictions the insert causes — and a live view charges the
    /// same to its account.
    #[allow(clippy::too_many_arguments)]
    pub fn solve(
        &self,
        g: &Dag,
        fingerprint: u64,
        cluster: &Cluster,
        ids: &[ProcId],
        algorithm: Algorithm,
        cfg: &DagHetPartConfig,
        config_hash: u64,
    ) -> Result<Arc<MappingResult>, SchedError> {
        let key = self.key(
            fingerprint,
            cluster.shape_of_slice(ids),
            algorithm,
            config_hash,
        );
        self.solve_keyed(key, g, cluster, ids, cfg)
    }

    /// The key `(fingerprint, shape, algorithm, config_hash)` with its
    /// stripe in this view's cache, for a probe that asks both stores
    /// ([`CacheView::solve_keyed`], then
    /// [`CacheView::sim_outcome_keyed`]). Touches no entry and no
    /// counter.
    pub fn key(
        &self,
        fingerprint: u64,
        shape: u64,
        algorithm: Algorithm,
        config_hash: u64,
    ) -> ProbeKey {
        self.cache
            .probe_key((fingerprint, shape, algorithm, config_hash))
    }

    /// [`CacheView::solve`] on a key already made: `key`'s shape must
    /// be `cluster.shape_of_slice(ids)`, and a miss solves `g` with
    /// `key`'s algorithm on the lease `ids`. Same answer, same counter
    /// moves, same recency tick; only the shape and the stripe are not
    /// hashed again.
    pub fn solve_keyed(
        &self,
        key: ProbeKey,
        g: &Dag,
        cluster: &Cluster,
        ids: &[ProcId],
        cfg: &DagHetPartConfig,
    ) -> Result<Arc<MappingResult>, SchedError> {
        debug_assert_eq!(
            key.key.1,
            cluster.shape_of_slice(ids),
            "a key of another lease"
        );
        let (outcome, probe) = self.cache.lookup_or_solve(key, || {
            solve_local(g, cluster.subcluster(ids).cluster(), key.key.2, cfg)
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

    /// Memoizing discrete-event simulation through the view: returns
    /// the [`SimOutcome`] for `(fingerprint, shape, algorithm,
    /// config_hash)`, running `compute` only on a miss and storing its
    /// result; a live view charges the hit or miss to its account. A
    /// disabled cache computes every time and stores nothing, but still
    /// counts the miss.
    pub fn sim_outcome(
        &self,
        fingerprint: u64,
        shape: u64,
        algorithm: Algorithm,
        config_hash: u64,
        compute: impl FnOnce() -> SimOutcome,
    ) -> Arc<SimOutcome> {
        let key = self.key(fingerprint, shape, algorithm, config_hash);
        self.sim_outcome_keyed(key, compute)
    }

    /// [`CacheView::sim_outcome`] on a key already made — typically the
    /// one the same probe's [`CacheView::solve_keyed`] just answered.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::validate;
    use dhp_dag::builder;
    use dhp_platform::{Cluster, ProcId, Processor};

    /// The two-processor lease most tests probe: m3 then m1.
    const LEASE: [ProcId; 2] = [ProcId(3), ProcId(1)];

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
        let mut account = SolveCacheStats::default();
        {
            let view = CacheView::live(&cache, &mut account);
            view.solve(&g, fp, &c, &LEASE, Algorithm::DagHetPart, &cfg, chash)
                .unwrap();
            view.solve(&g, fp, &c, &LEASE, Algorithm::DagHetPart, &cfg, chash)
                .unwrap();
        }
        assert_eq!((account.hits, account.misses), (1, 1));
        // Live probes hit the store directly: the global counters agree
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
        let cfg = DagHetPartConfig::default();
        let chash = SolveCache::config_hash(&cfg);
        let cache = SolveCache::with_capacity(1);
        let sub = c.subcluster(&LEASE);
        let g0 = builder::chain(4, 2.0, 4.0, 1.0);
        let g1 = builder::chain(5, 2.0, 4.0, 1.0);
        let mut first = SolveCacheStats::default();
        let mut second = SolveCacheStats::default();
        for (g, account) in [(&g0, &mut first), (&g1, &mut second)] {
            CacheView::live(&cache, account)
                .solve(
                    g,
                    g.fingerprint(),
                    &c,
                    &LEASE,
                    Algorithm::DagHetPart,
                    &cfg,
                    chash,
                )
                .unwrap();
        }
        assert_eq!((first.evictions, second.evictions), (0, 1));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 1);
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
        let mut account = SolveCacheStats::default();
        {
            let view = CacheView::live(&cache, &mut account);
            view.sim_outcome(7, 9, Algorithm::DagHetPart, 3, || toy_sim(10.0));
            view.sim_outcome(7, 9, Algorithm::DagHetPart, 3, || toy_sim(10.0));
        }
        assert_eq!((account.sim_hits, account.sim_misses), (1, 1));
        assert_eq!(cache.sim_len(), 1);
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
        view.solve(
            &g0,
            g0.fingerprint(),
            &c,
            &LEASE,
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
        view.solve(
            &g1,
            g1.fingerprint(),
            &c,
            &LEASE,
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
