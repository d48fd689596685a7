//! Sub-cluster views: disjoint processor leases carved out of a shared
//! [`Cluster`].
//!
//! The online co-scheduling engine (`dhp-online`) runs many workflows on
//! one cluster at a time. Each workflow receives a *lease*: a subset of
//! the processors, materialised as a [`SubCluster`] — a self-contained
//! [`Cluster`] view (same bandwidth, subset of processors, dense local
//! ids) plus the translation table back to the parent's processor ids.
//!
//! The existing solvers (`dag_het_part`, `dag_het_mem`, the simulator)
//! are oblivious to leasing: they see an ordinary [`Cluster`] through
//! [`SubCluster::cluster`] and produce mappings in *local* ids, which
//! [`SubCluster::global_ids`] translates back for fleet-level accounting.

use crate::cluster::{Cluster, ProcId};
use crate::processor::Processor;

/// A view of a subset of a parent cluster's processors.
///
/// Local processor ids are dense (`0..len`), ordered exactly as the
/// subset was given; `global_ids` maps them back to the parent.
#[derive(Clone, Debug, PartialEq)]
pub struct SubCluster {
    view: Cluster,
    global_ids: Vec<ProcId>,
}

impl SubCluster {
    /// Builds a view of `procs` (parent ids) of `parent`.
    ///
    /// # Panics
    /// Panics if `procs` is empty, contains an out-of-range id, or
    /// contains duplicates — a lease is a *set* of processors.
    pub fn new(parent: &Cluster, procs: &[ProcId]) -> Self {
        assert!(
            !procs.is_empty(),
            "a sub-cluster needs at least one processor"
        );
        let mut seen = vec![false; parent.len()];
        let processors = procs
            .iter()
            .map(|&p| {
                assert!(
                    p.idx() < parent.len(),
                    "processor {p} not in parent cluster"
                );
                assert!(!seen[p.idx()], "processor {p} leased twice");
                seen[p.idx()] = true;
                parent.proc(p).clone()
            })
            .collect();
        SubCluster {
            view: Cluster::new(processors, parent.bandwidth),
            global_ids: procs.to_vec(),
        }
    }

    /// The lease as an ordinary cluster (local processor ids `0..len`).
    #[inline]
    pub fn cluster(&self) -> &Cluster {
        &self.view
    }

    /// Number of leased processors.
    pub fn len(&self) -> usize {
        self.global_ids.len()
    }

    /// True if the lease is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.global_ids.is_empty()
    }

    /// Parent ids of the leased processors, in local-id order.
    pub fn global_ids(&self) -> &[ProcId] {
        &self.global_ids
    }

    /// This lease grown by `extra` parent processors: a fresh view over
    /// the union of the leased ids and `extra`, carved from `parent` in
    /// the engine's canonical memory-descending order
    /// ([`Cluster::ids_by_memory_desc`]) — the same order every
    /// admission lease is carved in, so a grown lease of a given shape
    /// shares its solve-cache entry with any identically shaped
    /// admission lease. Ids already leased may appear in `extra` (the
    /// union is a set).
    ///
    /// # Panics
    /// Panics if an id is out of range for `parent`, or if this lease
    /// was not carved from `parent` (an id check catches most misuse).
    pub fn grown(&self, parent: &Cluster, extra: &[ProcId]) -> SubCluster {
        let mut member = vec![false; parent.len()];
        for &p in self.global_ids.iter().chain(extra) {
            assert!(
                p.idx() < parent.len(),
                "processor {p} not in parent cluster"
            );
            member[p.idx()] = true;
        }
        let ids: Vec<ProcId> = parent
            .ids_by_memory_desc()
            .into_iter()
            .filter(|p| member[p.idx()])
            .collect();
        parent.subcluster(&ids)
    }

    /// Content hash of the lease's *shape*: the ordered `(speed,
    /// memory)` sequence of its processors plus the interconnect
    /// bandwidth — everything the solvers and the simulator can observe
    /// about a lease. Concrete parent processor ids and processor kind
    /// names are deliberately excluded, so two leases carved from
    /// different physical processors but with identical shapes share
    /// one solve-cache entry, and the cached (local-id) mapping can be
    /// remapped onto either lease's concrete processors.
    ///
    /// The sequence is hashed in view order, not sorted: a solver's
    /// output depends on the order it sees the processors in. The
    /// online engine always carves leases in the cluster's canonical
    /// memory-descending order ([`Cluster::ids_by_memory_desc`]), so
    /// for engine leases view order *is* the canonical sorted shape and
    /// equal multisets hash equal.
    pub fn shape_signature(&self) -> u64 {
        shape_hash(
            self.view.bandwidth,
            self.view.len(),
            self.view.iter().map(|(_, p)| p),
        )
    }
}

/// The one lease-shape hash behind [`SubCluster::shape_signature`] and
/// [`Cluster::shape_of_slice`]: FNV-1a over the bandwidth, the
/// processor count, then each processor's speed and memory in order.
///
/// Deliberately local FNV-1a rather than a dependency on `dhp-dag`
/// (which exports the shared helper): `dhp-platform` is a leaf crate
/// depending only on serde, and the signature is an independent key
/// component — it never has to match another crate's hash bit-for-bit.
fn shape_hash<'a>(bandwidth: f64, len: usize, procs: impl Iterator<Item = &'a Processor>) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    mix(bandwidth.to_bits());
    mix(len as u64);
    for p in procs {
        mix(p.speed.to_bits());
        mix(p.memory.to_bits());
    }
    h
}

impl Cluster {
    /// Carves a [`SubCluster`] view out of this cluster. See
    /// [`SubCluster::new`] for panics.
    pub fn subcluster(&self, procs: &[ProcId]) -> SubCluster {
        SubCluster::new(self, procs)
    }

    /// [`SubCluster::shape_signature`] of the lease `subcluster(procs)`
    /// *would* have — bit-equal by construction, without allocating the
    /// view. The admission hot path probes the solve cache with this on
    /// warm feasibility checks, deferring the O(procs) `SubCluster`
    /// materialisation to actual cache misses.
    ///
    /// # Panics
    /// Panics on an empty or out-of-range slice (the same ids
    /// [`SubCluster::new`] would reject; duplicates are the caller's
    /// contract there and are not re-checked here).
    pub fn shape_of_slice(&self, procs: &[ProcId]) -> u64 {
        assert!(
            !procs.is_empty(),
            "a sub-cluster needs at least one processor"
        );
        shape_hash(
            self.bandwidth,
            procs.len(),
            procs.iter().map(|&p| self.proc(p)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parent() -> Cluster {
        Cluster::new(
            vec![
                Processor::new("a", 4.0, 16.0),
                Processor::new("b", 32.0, 192.0),
                Processor::new("c", 8.0, 8.0),
                Processor::new("d", 6.0, 192.0),
            ],
            2.5,
        )
    }

    #[test]
    fn view_preserves_processors_and_bandwidth() {
        let c = parent();
        let sub = c.subcluster(&[ProcId(3), ProcId(0)]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.cluster().bandwidth, 2.5);
        assert_eq!(sub.cluster().proc(ProcId(0)).kind, "d");
        assert_eq!(sub.cluster().proc(ProcId(1)).kind, "a");
    }

    #[test]
    fn id_translation_roundtrips() {
        let c = parent();
        let sub = c.subcluster(&[ProcId(1), ProcId(2)]);
        assert_eq!(sub.global_ids(), &[ProcId(1), ProcId(2)]);
    }

    #[test]
    fn shape_signature_ignores_concrete_ids_but_not_shape() {
        let c = parent();
        // b (32, 192) and d (6, 192) differ in speed, so the signatures
        // of their singleton leases differ; leasing the *same* shape
        // from different parent positions matches.
        let twin = Cluster::new(
            vec![
                Processor::new("x", 32.0, 192.0),
                Processor::new("y", 4.0, 16.0),
            ],
            2.5,
        );
        let b = c.subcluster(&[ProcId(1)]);
        let d = c.subcluster(&[ProcId(3)]);
        let x = twin.subcluster(&[ProcId(0)]);
        assert_ne!(b.shape_signature(), d.shape_signature());
        assert_eq!(b.shape_signature(), x.shape_signature());

        // Order matters: the solver sees processors in view order.
        let ab = c.subcluster(&[ProcId(0), ProcId(1)]);
        let ba = c.subcluster(&[ProcId(1), ProcId(0)]);
        assert_ne!(ab.shape_signature(), ba.shape_signature());

        // Bandwidth is part of the shape.
        let slow = Cluster::new(vec![Processor::new("x", 32.0, 192.0)], 1.0);
        assert_ne!(
            slow.subcluster(&[ProcId(0)]).shape_signature(),
            x.shape_signature()
        );
    }

    #[test]
    fn shape_of_slice_is_bit_equal_to_the_materialised_view() {
        let c = parent();
        for ids in [
            vec![ProcId(0)],
            vec![ProcId(3), ProcId(0)],
            vec![ProcId(1), ProcId(2), ProcId(0)],
            vec![ProcId(2), ProcId(1), ProcId(3), ProcId(0)],
        ] {
            assert_eq!(
                c.shape_of_slice(&ids),
                c.subcluster(&ids).shape_signature(),
                "shape drift for {ids:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn shape_of_slice_rejects_empty() {
        parent().shape_of_slice(&[]);
    }

    #[test]
    fn grown_unions_in_canonical_memory_order() {
        let c = parent();
        // Lease {a} grown by {d, a}: duplicates collapse, and the grown
        // view is carved big-memory-first (d: 192 before a: 16).
        let sub = c.subcluster(&[ProcId(0)]);
        let grown = sub.grown(&c, &[ProcId(3), ProcId(0)]);
        assert_eq!(grown.global_ids(), &[ProcId(3), ProcId(0)]);
        assert_eq!(grown.cluster().proc(ProcId(0)).kind, "d");
        // Growing by nothing re-carves the same membership canonically.
        let same = sub.grown(&c, &[]);
        assert_eq!(same.global_ids(), &[ProcId(0)]);
        // A grown lease hashes equal to the identically shaped
        // admission lease (canonical order on both sides).
        let direct = c.subcluster(&[ProcId(3), ProcId(0)]);
        assert_eq!(grown.shape_signature(), direct.shape_signature());
    }

    #[test]
    #[should_panic(expected = "not in parent")]
    fn grown_rejects_out_of_range_extra() {
        let c = parent();
        c.subcluster(&[ProcId(0)]).grown(&c, &[ProcId(9)]);
    }

    #[test]
    #[should_panic(expected = "leased twice")]
    fn duplicate_lease_rejected() {
        parent().subcluster(&[ProcId(1), ProcId(1)]);
    }

    #[test]
    #[should_panic(expected = "not in parent")]
    fn out_of_range_rejected() {
        parent().subcluster(&[ProcId(9)]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_lease_rejected() {
        parent().subcluster(&[]);
    }
}
