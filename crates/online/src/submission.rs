//! Workflow submissions and trace utilities: what the online engine
//! consumes, plus the stream-level helpers that operate on traces and
//! their records rather than on engine state ([`fit_cluster`],
//! [`peak_overlap`], [`shift_arrivals`]).

use crate::report::WorkflowRecord;
use dhp_platform::Cluster;
use dhp_wfgen::arrivals::{arrival_times, mixed_workload, ArrivalProcess};
use dhp_wfgen::{Family, WorkflowInstance};

/// One workflow submitted to the shared cluster at a point in virtual
/// time.
#[derive(Clone, Debug)]
pub struct Submission {
    /// Dense submission id (also the tie-breaker for equal arrivals).
    pub id: usize,
    /// Arrival instant in virtual time.
    pub arrival: f64,
    /// The workflow itself.
    pub instance: WorkflowInstance,
}

/// Zips instances with arrival times into a submission stream.
///
/// # Panics
/// Panics if the lengths differ.
pub fn zip_stream(instances: Vec<WorkflowInstance>, arrivals: &[f64]) -> Vec<Submission> {
    assert_eq!(
        instances.len(),
        arrivals.len(),
        "one arrival time per instance"
    );
    instances
        .into_iter()
        .zip(arrivals)
        .enumerate()
        .map(|(id, (instance, &arrival))| Submission {
            id,
            arrival,
            instance,
        })
        .collect()
}

/// Shifts every arrival by `dt` — trace surgery for splicing streams
/// end-to-end or testing window-relative metrics (fleet utilisation is
/// measured from the first served arrival, so a shifted trace must
/// report the same utilisation). Ids and instances are untouched.
pub fn shift_arrivals(mut subs: Vec<Submission>, dt: f64) -> Vec<Submission> {
    for s in &mut subs {
        s.arrival += dt;
    }
    subs
}

/// A single-task workflow submission — the smallest admissible unit,
/// used by crafted scheduling scenarios (backfill holes, reservation
/// pinning) and property tests where the admission logic, not the
/// solver, is under the microscope.
pub fn single_task(id: usize, arrival: f64, work: f64, memory: f64, name: &str) -> Submission {
    let mut g = dhp_dag::Dag::new();
    g.add_node(work, memory);
    Submission {
        id,
        arrival,
        instance: WorkflowInstance {
            name: name.into(),
            family: None,
            size_class: dhp_wfgen::SizeClass::Real,
            requested_size: 1,
            graph: g,
        },
    }
}

/// A mixed-family stream with the given arrival process: `n` workflows
/// cycling through `families`, task counts uniform in `tasks`
/// (inclusive), fully deterministic in `seed`.
pub fn stream(
    n: usize,
    families: &[Family],
    tasks: (usize, usize),
    process: &ArrivalProcess,
    seed: u64,
) -> Vec<Submission> {
    let instances = mixed_workload(n, families, tasks, seed);
    let times = arrival_times(n, process, seed);
    zip_stream(instances, &times)
}

/// A *repeat-heavy* stream: `unique` distinct instances generated as in
/// [`stream`], then cycled until `n` submissions exist — the shape of
/// real serving traffic, where the same wfcommons recipes are submitted
/// over and over with fresh arrival times. Ideal fodder for the solve
/// cache: at most `unique` distinct workflow fingerprints appear no
/// matter how long the trace runs.
///
/// # Panics
/// Panics if `unique` is zero while `n` is not.
pub fn repeating_stream(
    unique: usize,
    n: usize,
    families: &[Family],
    tasks: (usize, usize),
    process: &ArrivalProcess,
    seed: u64,
) -> Vec<Submission> {
    assert!(
        unique > 0 || n == 0,
        "a non-empty repeating stream needs at least one unique instance"
    );
    let pool = mixed_workload(unique.min(n), families, tasks, seed);
    let instances = (0..n).map(|i| pool[i % pool.len()].clone()).collect();
    let times = arrival_times(n, process, seed);
    zip_stream(instances, &times)
}

/// Scales the cluster's memories (smallest proportional factor) so the
/// hottest task across *all* submissions fits the largest processor
/// with `headroom` slack — the fleet-level analogue of
/// [`dhp_core::fitting::scale_cluster_with_headroom`], applied once so
/// every workflow sees the same shared platform. A trace utility, not
/// engine logic: it reads only the submission stream.
pub fn fit_cluster(cluster: &Cluster, submissions: &[Submission], headroom: f64) -> Cluster {
    let mut fitted = cluster.clone();
    for s in submissions {
        fitted =
            dhp_core::fitting::scale_cluster_with_headroom(&s.instance.graph, &fitted, headroom);
    }
    fitted
}

/// Largest number of overlapping `[start, finish)` service intervals
/// across the given records — the fleet's peak concurrency. Pure trace
/// arithmetic (it never consults engine state), which is why it lives
/// here; the federation tier reuses it across the merged record set.
pub fn peak_overlap(records: &[WorkflowRecord]) -> usize {
    peak_overlap_of(records)
}

/// [`peak_overlap`] over borrowed records from anywhere — the
/// federation merges its members' record sets without copying them.
pub(crate) fn peak_overlap_of<'a>(records: impl IntoIterator<Item = &'a WorkflowRecord>) -> usize {
    let records = records.into_iter();
    let mut edges: Vec<(f64, i32)> = Vec::with_capacity(records.size_hint().0 * 2);
    for r in records {
        edges.push((r.start, 1));
        edges.push((r.finish, -1));
    }
    // Ends before starts at the same instant.
    edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let (mut cur, mut peak) = (0i32, 0i32);
    for (_, d) in edges {
        cur += d;
        peak = peak.max(cur);
    }
    peak as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_and_ordered() {
        let p = ArrivalProcess::Poisson { rate: 1.0 };
        let a = stream(8, &[Family::Blast], (30, 50), &p, 3);
        let b = stream(8, &[Family::Blast], (30, 50), &p, 3);
        assert_eq!(a.len(), 8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.instance.name, y.instance.name);
        }
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
    }

    #[test]
    fn repeating_stream_cycles_a_fixed_instance_pool() {
        let p = ArrivalProcess::Poisson { rate: 0.5 };
        let subs = repeating_stream(3, 10, &[Family::Blast], (20, 30), &p, 5);
        assert_eq!(subs.len(), 10);
        // Ids are fresh per submission, arrivals are non-decreasing.
        for (i, s) in subs.iter().enumerate() {
            assert_eq!(s.id, i);
        }
        assert!(subs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        // Exactly three distinct graph fingerprints, cycling.
        let fps: Vec<u64> = subs
            .iter()
            .map(|s| s.instance.graph.fingerprint())
            .collect();
        let mut unique = fps.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 3);
        for (i, fp) in fps.iter().enumerate() {
            assert_eq!(*fp, fps[i % 3]);
        }
    }

    #[test]
    fn shift_arrivals_translates_the_whole_trace() {
        let p = ArrivalProcess::Uniform { interval: 5.0 };
        let base = stream(4, &[Family::Blast], (20, 30), &p, 9);
        let shifted = shift_arrivals(base.clone(), 100.0);
        for (b, s) in base.iter().zip(&shifted) {
            assert_eq!(s.id, b.id);
            assert_eq!(s.arrival, b.arrival + 100.0);
            assert_eq!(s.instance.name, b.instance.name);
        }
    }
}
