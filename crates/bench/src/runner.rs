//! Instance execution and aggregation shared by all experiments.

use dhp_core::fitting::scale_cluster_with_headroom;
use dhp_core::prelude::*;
use dhp_platform::Cluster;
use dhp_wfgen::{SizeClass, WorkflowInstance};
use parking_lot::Mutex;
use std::time::Duration;

/// Memory headroom applied when normalising the platform to a workflow
/// (see `dhp_core::fitting::scale_cluster_with_headroom`).
pub const HEADROOM: f64 = 1.05;

/// Statistics of one heuristic run on one instance.
#[derive(Clone, Copy, Debug)]
pub struct RunStats {
    /// Achieved makespan (model units).
    pub makespan: f64,
    /// Wall-clock scheduling time.
    pub time: Duration,
    /// Number of blocks in the mapping.
    pub blocks: usize,
    /// Number of distinct processors used.
    pub procs_used: usize,
}

/// Both heuristics on one instance.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Instance name (e.g. `"blast-2000"`).
    pub name: String,
    /// Family name, `"real"` for the real-world suite.
    pub family: String,
    /// Size class label.
    pub size_class: SizeClass,
    /// Task count.
    pub tasks: usize,
    /// DagHetPart result (`None` = no solution found).
    pub part: Option<RunStats>,
    /// DagHetMem result.
    pub mem: Option<RunStats>,
}

impl Outcome {
    /// Relative makespan DagHetPart / DagHetMem in percent, if both ran.
    pub fn relative_pct(&self) -> Option<f64> {
        match (&self.part, &self.mem) {
            (Some(p), Some(m)) => Some(100.0 * p.makespan / m.makespan),
            _ => None,
        }
    }

    /// Relative runtime DagHetPart / DagHetMem, if both ran.
    pub fn relative_runtime(&self) -> Option<f64> {
        match (&self.part, &self.mem) {
            (Some(p), Some(m)) => Some(p.time.as_secs_f64() / m.time.as_secs_f64().max(1e-9)),
            _ => None,
        }
    }
}

/// Runs both heuristics on `inst` against `cluster` (normalised to the
/// instance with [`HEADROOM`]). Each run's time is the solver's own
/// [`MappingResult::elapsed`]. DagHetPart sweeps its k′ values on the
/// calling thread: [`run_suite`] already runs one instance per core.
pub fn run_instance(inst: &WorkflowInstance, cluster: &Cluster) -> Outcome {
    let cluster = scale_cluster_with_headroom(&inst.graph, cluster, HEADROOM);
    let cfg = DagHetPartConfig {
        parallel: false,
        ..DagHetPartConfig::default()
    };
    let run = |algorithm: Algorithm| algorithm.solve(&inst.graph, &cluster, &cfg).ok();
    let stats = |r: MappingResult| RunStats {
        makespan: r.makespan,
        time: r.elapsed,
        blocks: r.mapping.num_blocks(),
        procs_used: r.mapping.procs_used(),
    };
    let part = run(Algorithm::DagHetPart);
    if let Some(r) = &part {
        debug_assert!(validate(&inst.graph, &cluster, &r.mapping).is_ok());
    }

    Outcome {
        name: inst.name.clone(),
        family: inst
            .family
            .map(|f| f.name().to_string())
            .unwrap_or_else(|| "real".into()),
        size_class: inst.size_class,
        tasks: inst.graph.node_count(),
        part: part.map(stats),
        mem: run(Algorithm::DagHetMem).map(stats),
    }
}

/// Runs a set of instances in parallel (one scoped worker per core,
/// [`dhp_core::host_cores`]; DagHetPart's inner sweep is forced
/// sequential in [`run_instance`] to avoid nested oversubscription).
pub fn run_suite(instances: &[WorkflowInstance], cluster: &Cluster) -> Vec<Outcome> {
    let results: Mutex<Vec<(usize, Outcome)>> = Mutex::new(Vec::new());
    let next: std::sync::atomic::AtomicUsize = 0.into();
    let workers = dhp_core::host_cores().min(instances.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= instances.len() {
                    break;
                }
                let out = run_instance(&instances[i], cluster);
                results.lock().push((i, out));
            });
        }
    });
    let mut rows = results.into_inner();
    rows.sort_by_key(|(i, _)| *i);
    rows.into_iter().map(|(_, o)| o).collect()
}

/// Geometric mean of the relative makespans (%) of the outcomes where
/// both heuristics succeeded, or `None` when none did.
pub fn aggregate_relative_pct(outcomes: &[Outcome]) -> Option<f64> {
    let ratios: Vec<f64> = outcomes.iter().filter_map(Outcome::relative_pct).collect();
    if ratios.is_empty() {
        None
    } else {
        Some(dhp_core::metrics::geometric_mean(&ratios))
    }
}

/// Geometric mean of absolute DagHetPart makespans, or `None`.
pub fn aggregate_absolute(outcomes: &[Outcome]) -> Option<f64> {
    let vals: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| o.part.as_ref().map(|p| p.makespan))
        .collect();
    if vals.is_empty() {
        None
    } else {
        Some(dhp_core::metrics::geometric_mean(&vals))
    }
}
