//! Solves on a lease, in both id spaces: the memoizing lease and
//! dedicated-baseline solves of [`SolveCache`], and the suffix re-solve
//! of elastic lease growth and shrinking.

use super::store::SolveCache;
use super::view::{CacheView, ProbeKey};
use dhp_core::daghetpart::DagHetPartConfig;
use dhp_core::{Algorithm, Mapping, MappingResult, SchedError};
use dhp_dag::{Dag, NodeId};
use dhp_platform::{Cluster, ProcId, SubCluster};
use std::sync::Arc;

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
pub(crate) fn remap_to_parent(lease: &[ProcId], mapping: &Mapping) -> Mapping {
    Mapping {
        partition: mapping.partition.clone(),
        proc_of_block: mapping
            .proc_of_block
            .iter()
            .map(|p| p.map(|local| lease[local.idx()]))
            .collect(),
    }
}

impl SolveCache {
    /// Memoizing solve of `g` on the lease `sub` with `algorithm`,
    /// returned in both id spaces. `fingerprint` must be
    /// `g.fingerprint()` — callers that schedule the same graph many
    /// times (the online engine) compute it once per submission instead
    /// of once per probe. A hit pays for cloning the memoized mapping
    /// and remapping it onto `sub`'s processors; the engine's own
    /// probes answer the same key without either.
    /// `Err(SchedError::NoSolution)` means the lease is too small (not
    /// enough aggregate memory) — the caller may retry with a larger
    /// lease.
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
            .lookup_or_solve(key, size, || algorithm.solve(g, sub.cluster(), cfg))
            .0?;
        Ok(SubClusterSchedule {
            global: remap_to_parent(sub.global_ids(), &local.mapping),
            local: Arc::unwrap_or_clone(local),
        })
    }

    /// Memoizing dedicated-cluster baseline: the model makespan of `g`
    /// scheduled alone on the *whole idle* cluster — the denominator of
    /// the online engine's `stretch` metric. The cluster is viewed as a
    /// lease over all of its processors in the heuristics' canonical
    /// memory-descending order, so the baseline is exactly what the same
    /// solver would promise a workflow that never had to share, and it
    /// is cached under the same key space as lease solves (the whole
    /// cluster in canonical order is just one more lease shape).
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
        let shape = cluster.shape_of_slice(&ids);
        let key = ProbeKey((fingerprint, shape, algorithm, config_hash));
        self.lookup_or_solve(key, (g.node_count(), ids.len()), || {
            algorithm.solve(g, cluster.subcluster(&ids).cluster(), cfg)
        })
        .0
        .map(|local| local.makespan)
    }
}

/// A re-solved *suffix* of a partially executed workflow: the induced
/// sub-DAG over its not-yet-started tasks, scheduled on a (typically
/// grown) lease. Produced by [`solve_suffix`]; consumed by the online
/// engine's elastic lease growth.
#[derive(Clone, Debug)]
pub(crate) struct SuffixSolve {
    /// The induced suffix DAG (dense local node ids).
    pub(crate) dag: Dag,
    /// Suffix-local node id → original node id.
    pub(crate) back: Vec<NodeId>,
    /// The cache key the suffix solve was answered under: the key to
    /// ask [`CacheView::sim_outcome_keyed`] for the suffix's sim.
    pub(crate) key: ProbeKey,
    /// The suffix schedule on the target lease, in both id spaces.
    pub(crate) schedule: SubClusterSchedule,
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
pub(crate) fn solve_suffix(
    g: &Dag,
    suffix: &[NodeId],
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
        key,
        schedule: SubClusterSchedule {
            local: Arc::unwrap_or_clone(local),
            global,
        },
    })
}
