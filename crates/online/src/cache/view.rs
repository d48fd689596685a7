//! How the scheduling layers probe the store: a [`Solver`] binds the
//! algorithm, its settings and their hash once, and a [`CacheView`]
//! keys every probe by one bound solver and runs it on a miss.

use super::store::{share, CachedSolve, SimOutcome, SolveCache, SolveCacheStats, SolveKey};
use dhp_core::daghetpart::DagHetPartConfig;
use dhp_core::{Algorithm, MappingResult, SchedError};
use dhp_dag::Dag;
use dhp_platform::{Cluster, ProcId};
use std::cell::Cell;
use std::sync::Arc;

/// One probe's cache key, made once by [`CacheView::key`] and answered
/// by [`CacheView::probe_warm`] — or, when nothing is memoized under
/// it, by [`CacheView::solve_keyed`] and
/// [`CacheView::sim_outcome_keyed`] — so an admission probe hashes its
/// lease shape once.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ProbeKey(pub(super) SolveKey);

/// What [`CacheView::probe_warm`] found under the key, with the counter
/// moves it made.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum WarmProbe {
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

/// One solver bound for probing: the algorithm, its DagHetPart settings
/// (ignored by DagHetMem) and their [`SolveCache::config_hash`],
/// computed once here. A [`CacheView`] keys every probe by it and runs
/// it on a miss, so making a view neither hashes nor allocates.
#[derive(Clone, Debug)]
pub(crate) struct Solver {
    algorithm: Algorithm,
    cfg: DagHetPartConfig,
    config_hash: u64,
}

impl Solver {
    /// Binds `algorithm` with its settings `cfg`, hashing them once.
    pub(crate) fn new(algorithm: Algorithm, cfg: DagHetPartConfig) -> Solver {
        let config_hash = SolveCache::config_hash(&cfg);
        Solver {
            algorithm,
            cfg,
            config_hash,
        }
    }

    /// The settings' hash: the last word of every key this solver's
    /// probes make, and the header a snapshot of them is saved under.
    pub(crate) fn config_hash(&self) -> u64 {
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
pub(crate) struct CacheView<'a> {
    cache: &'a SolveCache,
    solver: &'a Solver,
    account: Option<&'a Cell<SolveCacheStats>>,
}

impl<'a> CacheView<'a> {
    /// A view that probes `cache` with `solver` and charges only the
    /// store's global counters.
    pub(crate) fn direct(cache: &'a SolveCache, solver: &'a Solver) -> Self {
        CacheView {
            cache,
            solver,
            account: None,
        }
    }

    /// This view's cache and solver, charging each probe's exact
    /// outcome to `account` as well (no global-counter diffing) — in
    /// place of any account this view charges.
    pub(crate) fn charging<'b>(&self, account: &'b mut SolveCacheStats) -> CacheView<'b>
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
    /// signature), so a hit builds no
    /// [`SubCluster`](dhp_platform::SubCluster), clones no mapping and
    /// allocates nothing; only a miss carves the view and solves.
    /// Callers that need the mapping in parent ids translate it with
    /// [`remap_to_parent`](super::remap_to_parent) once they commit to
    /// it.
    ///
    /// The store is probed through the same core as
    /// [`SolveCache::schedule`] — one hit or miss, one recency tick, any
    /// LRU evictions the insert causes — and a charging view charges the
    /// same to its account.
    pub(crate) fn solve(
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
    pub(crate) fn key(&self, fingerprint: u64, shape: u64) -> ProbeKey {
        let solver = self.solver;
        ProbeKey((fingerprint, shape, solver.algorithm, solver.config_hash))
    }

    /// Whether a *solved* entry is memoized under this view's key for
    /// `(fingerprint, shape)`: [`SolveCache::is_warm`], a pure peek
    /// that counts nothing and refreshes no stamp.
    pub(crate) fn is_warm(&self, fingerprint: u64, shape: u64) -> bool {
        self.cache.is_warm(&self.key(fingerprint, shape).0)
    }

    /// [`CacheView::solve`] on a key already made: `key` must be this
    /// view's for `cluster.shape_of_slice(ids)`, and a miss solves `g`
    /// with the view's solver on the lease `ids`. Same answer, same
    /// counter moves, same recency tick; only the shape is not hashed
    /// again.
    pub(crate) fn solve_keyed(
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
                algorithm.solve(g, cluster.subcluster(ids).cluster(), cfg)
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
    pub(crate) fn probe_warm(&self, key: ProbeKey, with_sim: bool) -> WarmProbe {
        if !self.cache.is_enabled() {
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
    pub(crate) fn memoized(
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
    /// [`solve_suffix`](super::solve_suffix)) just answered: returns the
    /// [`SimOutcome`] memoized on that solve's entry, running `compute`
    /// only on a miss and storing its result there; a charging view
    /// charges the hit or miss to its account. A disabled cache, or a
    /// key with no solved entry, computes every time and stores
    /// nothing, but still counts the miss.
    pub(crate) fn sim_outcome_keyed(
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
