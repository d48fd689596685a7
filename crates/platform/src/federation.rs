//! A federation: several independent clusters served as one fleet.
//!
//! The paper's platform model — and every solver built on it — sees a
//! single [`Cluster`] with a uniform interconnect. A production fleet
//! is rarely one cluster: capacity comes in separately provisioned
//! pools (regions, partitions, reserved slices) with no shared
//! interconnect between them. [`Federation`] models exactly that: an
//! ordered list of member clusters, each a self-contained [`Cluster`],
//! with **no cross-cluster edges** — a workflow is always served
//! entirely inside one member, so the per-cluster solvers and the
//! discrete-event simulator apply unchanged.
//!
//! The online serving tier (`dhp-online::federation`) routes arriving
//! workflows across the members and keeps one engine state per member;
//! this type only owns the platform side: the members, their identity
//! (the *member index* is the `cluster_id` appearing in serving
//! reports), and fleet-level aggregates.

use crate::cluster::Cluster;
use serde::{Deserialize, Serialize};

/// An ordered collection of independent member clusters.
///
/// Member order is identity: routing policies break ties towards the
/// smaller index, and serving reports stamp each record with the
/// member index that served it, so two federations with the same
/// members in different orders are deliberately *different* platforms.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Federation {
    clusters: Vec<Cluster>,
}

impl Federation {
    /// Builds a federation from member clusters.
    ///
    /// # Panics
    /// Panics if `clusters` is empty or any member has no processors —
    /// an empty member could never serve anything and would only
    /// distort least-loaded routing.
    pub fn new(clusters: Vec<Cluster>) -> Self {
        assert!(
            !clusters.is_empty(),
            "a federation needs at least one member cluster"
        );
        for (i, c) in clusters.iter().enumerate() {
            assert!(!c.is_empty(), "federation member {i} has no processors");
        }
        Federation { clusters }
    }

    /// A federation of `copies` identical members — the classic
    /// sharded deployment (and the shape the solve cache loves: every
    /// member exposes the same lease shapes).
    ///
    /// # Panics
    /// Panics if `copies` is zero or `cluster` is empty.
    pub fn homogeneous(cluster: Cluster, copies: usize) -> Self {
        assert!(copies > 0, "a federation needs at least one member");
        Federation::new(vec![cluster; copies])
    }

    /// Number of member clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// True if the federation has no members (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// The member clusters, in member-index order.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// A member cluster by index.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn cluster(&self, idx: usize) -> &Cluster {
        &self.clusters[idx]
    }

    /// Iterate over `(member index, cluster)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Cluster)> {
        self.clusters.iter().enumerate()
    }

    /// Total processor count across all members.
    pub fn total_procs(&self) -> usize {
        self.clusters.iter().map(|c| c.len()).sum()
    }

    /// Total memory across all members.
    pub fn total_memory(&self) -> f64 {
        self.clusters.iter().map(|c| c.total_memory()).sum()
    }

    /// Largest single-processor memory across all members — the
    /// fleet-wide admission ceiling (a task that exceeds it fits
    /// nowhere).
    pub fn max_memory(&self) -> f64 {
        self.clusters
            .iter()
            .map(|c| c.max_memory())
            .fold(0.0, f64::max)
    }
}

impl From<Cluster> for Federation {
    /// A single-member federation — the degenerate case the federated
    /// serving tier reduces to the single-cluster engine on.
    fn from(cluster: Cluster) -> Self {
        Federation::new(vec![cluster])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processor::Processor;

    fn member(mem: f64) -> Cluster {
        Cluster::new(
            vec![
                Processor::new("a", 2.0, mem),
                Processor::new("b", 1.0, mem / 2.0),
            ],
            1.0,
        )
    }

    #[test]
    fn aggregates_span_all_members() {
        let f = Federation::new(vec![member(100.0), member(300.0)]);
        assert_eq!(f.len(), 2);
        assert_eq!(f.total_procs(), 4);
        assert_eq!(f.total_memory(), 100.0 + 50.0 + 300.0 + 150.0);
        assert_eq!(f.max_memory(), 300.0);
        assert_eq!(f.cluster(1).max_memory(), 300.0);
        let indices: Vec<usize> = f.iter().map(|(i, _)| i).collect();
        assert_eq!(indices, vec![0, 1]);
    }

    #[test]
    fn homogeneous_replicates_the_member() {
        let f = Federation::homogeneous(member(64.0), 3);
        assert_eq!(f.len(), 3);
        assert!(f.clusters().iter().all(|c| c == f.cluster(0)));
    }

    #[test]
    fn from_cluster_is_a_singleton() {
        let f: Federation = member(10.0).into();
        assert_eq!(f.len(), 1);
        assert!(!f.is_empty());
    }

    #[test]
    fn roundtrips_through_serde() {
        let f = Federation::new(vec![member(100.0), member(200.0)]);
        let json = serde_json::to_string(&f).unwrap();
        let back: Federation = serde_json::from_str(&json).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_federation_rejected() {
        Federation::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "no processors")]
    fn empty_member_rejected() {
        Federation::new(vec![Cluster::new(vec![], 1.0)]);
    }
}
