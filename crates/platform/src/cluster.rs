//! A cluster: the computing system `S` of the paper.

use crate::processor::Processor;
use serde::{Deserialize, Serialize};

/// Dense index of a processor inside a [`Cluster`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub struct ProcId(pub u32);

impl ProcId {
    /// The index as `usize`.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ProcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// The computing system `S`: `k` processors plus a uniform interconnect
/// bandwidth `β` used in the makespan's communication terms.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Cluster {
    processors: Vec<Processor>,
    /// Uniform bandwidth `β` between any two processors.
    pub bandwidth: f64,
}

impl Cluster {
    /// Creates a cluster from processors and a bandwidth.
    pub fn new(processors: Vec<Processor>, bandwidth: f64) -> Self {
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        Self {
            processors,
            bandwidth,
        }
    }

    /// Number of processors `k`.
    pub fn len(&self) -> usize {
        self.processors.len()
    }

    /// True if the cluster has no processors.
    pub fn is_empty(&self) -> bool {
        self.processors.is_empty()
    }

    /// Access a processor by id.
    #[inline]
    pub fn proc(&self, p: ProcId) -> &Processor {
        &self.processors[p.idx()]
    }

    /// All processor ids.
    pub fn proc_ids(&self) -> impl DoubleEndedIterator<Item = ProcId> + ExactSizeIterator {
        (0..self.processors.len() as u32).map(ProcId)
    }

    /// Iterate over `(id, processor)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ProcId, &Processor)> {
        self.processors
            .iter()
            .enumerate()
            .map(|(i, p)| (ProcId(i as u32), p))
    }

    /// Memory of processor `p`.
    #[inline]
    pub fn memory(&self, p: ProcId) -> f64 {
        self.processors[p.idx()].memory
    }

    /// Speed of processor `p`.
    #[inline]
    pub fn speed(&self, p: ProcId) -> f64 {
        self.processors[p.idx()].speed
    }

    /// Largest processor memory in the cluster.
    pub fn max_memory(&self) -> f64 {
        self.processors.iter().map(|p| p.memory).fold(0.0, f64::max)
    }

    /// Smallest processor memory in the cluster.
    pub fn min_memory(&self) -> f64 {
        self.processors
            .iter()
            .map(|p| p.memory)
            .fold(f64::INFINITY, f64::min)
    }

    /// Total memory across all processors.
    pub fn total_memory(&self) -> f64 {
        self.processors.iter().map(|p| p.memory).sum()
    }

    /// Aggregate processor speed — the capacity signal speed-aware
    /// federation routing normalises queued work by.
    pub fn total_speed(&self) -> f64 {
        self.processors.iter().map(|p| p.speed).sum()
    }

    /// Processor ids sorted by decreasing memory (ties: faster first, then
    /// smaller id). This is the queue order used by both heuristics.
    pub fn ids_by_memory_desc(&self) -> Vec<ProcId> {
        let mut ids: Vec<ProcId> = self.proc_ids().collect();
        ids.sort_by(|&a, &b| {
            let (pa, pb) = (self.proc(a), self.proc(b));
            pb.memory
                .total_cmp(&pa.memory)
                .then(pb.speed.total_cmp(&pa.speed))
                .then(a.cmp(&b))
        });
        ids
    }

    /// Id of the processor with the smallest memory (ties: smaller id).
    pub fn min_memory_proc(&self) -> Option<ProcId> {
        self.ids_by_memory_desc().last().copied()
    }

    /// Returns a copy of the cluster with a different bandwidth — used by
    /// the CCR experiments (paper §5.2.6).
    pub fn with_bandwidth(&self, bandwidth: f64) -> Cluster {
        Cluster::new(self.processors.clone(), bandwidth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Cluster {
        Cluster::new(
            vec![
                Processor::new("a", 4.0, 16.0),
                Processor::new("b", 32.0, 192.0),
                Processor::new("c", 8.0, 8.0),
                Processor::new("d", 6.0, 192.0),
            ],
            1.0,
        )
    }

    #[test]
    fn memory_order() {
        let c = sample();
        let ids = c.ids_by_memory_desc();
        // 192 (faster b before d), 192, 16, 8
        assert_eq!(ids, vec![ProcId(1), ProcId(3), ProcId(0), ProcId(2)]);
        assert_eq!(c.min_memory_proc(), Some(ProcId(2)));
    }

    #[test]
    fn extremes() {
        let c = sample();
        assert_eq!(c.max_memory(), 192.0);
        assert_eq!(c.min_memory(), 8.0);
        assert_eq!(c.total_memory(), 408.0);
    }

    #[test]
    fn with_bandwidth_keeps_processors() {
        let c = sample();
        let d = c.with_bandwidth(5.0);
        assert_eq!(d.bandwidth, 5.0);
        assert_eq!(d.len(), c.len());
        assert_eq!(d.proc(ProcId(1)).kind, "b");
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_rejected() {
        Cluster::new(vec![], 0.0);
    }
}
