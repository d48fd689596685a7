//! Structural fingerprints of weighted DAGs.
//!
//! The online engine sees the same workflow topologies over and over
//! (wfcommons recipes instantiated repeatedly, burst traces cycling
//! through a family mix). [`Dag::fingerprint`] condenses everything the
//! schedulers care about — topology plus work/memory/volume weights —
//! into one `u64`, so solver results can be memoized under a
//! content-addressed key instead of being recomputed per submission.
//!
//! The hash is FNV-1a over the graph serialised in canonical
//! (deterministic Kahn) topological order: node weights in topo order,
//! then edges as `(topo position of src, topo position of dst, volume)`
//! triples in sorted order. Two graphs built identically — or differing
//! only in a node renumbering that preserves the canonical topo order —
//! fingerprint equal; any change to the structure or to a weight bit
//! changes the hash with FNV's usual 2^-64-ish collision odds. Node
//! *labels* are deliberately excluded: instances named `blast-30-0` and
//! `blast-30-17` share one solver solution if their graphs agree.
//!
//! This is a cache key, not a graph-isomorphism certificate: graphs that
//! are isomorphic under an order-changing renumbering may hash apart
//! (harmless — at worst a redundant solve), and a collision between
//! genuinely different graphs is astronomically unlikely but not
//! impossible (the cache trades that risk for O(1) admission).
//!
//! # Recognising a graph that was seen before
//!
//! The fingerprint is not cheap: a topological sort, a position table
//! and an edge sort, all allocated per call. A caller that is handed
//! the same recipes over and over (the online engine's arrival path)
//! does not need to pay that per submission, because a *copy* of a
//! graph can be recognised without any of it:
//!
//! * [`Dag::content_eq`] compares two graphs' **stored content** — node
//!   count, edge count, every `work` / `memory` bit in node order, every
//!   `(src, dst, volume)` bit in edge order — in one linear pass that
//!   allocates nothing. A [`Dag`] is append-only and its adjacency lists
//!   are filled by `add_edge` in edge order, so equal storage means
//!   equal adjacency, and every quantity derived from the graph
//!   (`fingerprint`, `total_work`, each `task_requirement`) is bit-equal
//!   on the two. Labels are not compared: nothing derived here reads
//!   them. The converse does not hold and is not needed — the same
//!   edges inserted in another order are *different* content (and are
//!   merely recomputed by whoever keys on this).
//! * [`Dag::content_prehash`] folds the same words into a `u64` to pick
//!   the candidates worth comparing. It is a bucket index and nothing
//!   more: it is not FNV, it is not stable across versions, it is never
//!   stored, and no decision may rest on two pre-hashes being equal —
//!   `content_eq` decides.
//!
//! # Maps keyed by content hashes
//!
//! A map whose keys are already hashes — fingerprints, lease shapes,
//! pre-hashes — gains nothing from hashing them again with SipHash.
//! [`FoldState`] is the [`BuildHasher`] such maps use: the pre-hash's
//! multiply-fold, applied once per written word.

use crate::graph::Dag;
use crate::topo::topo_sort;
use std::hash::{BuildHasher, Hasher};

/// FNV-1a offset basis — the hash state every fingerprint starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one 64-bit word into an FNV-1a state, byte by byte. Shared by
/// the cache-key hashes across the workspace (graph fingerprints here,
/// solver-config hashes in `dhp-core`).
#[inline]
pub fn fnv1a_u64(mut h: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over a byte stream, from the offset basis.
pub fn fnv1a_bytes(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = FNV_OFFSET;
    for byte in bytes {
        h ^= byte as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The word fold of [`Dag::content_prehash`] and [`FoldHasher`]: one
/// rotate, one xor and one multiply per word.
#[inline]
fn fold(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// The [`BuildHasher`] of maps keyed only by content hashes: the solve
/// cache's `(fingerprint, shape, algorithm, config hash)` store and the
/// serve loop's arrival pre-hash table. Every word of such a key is
/// already the output of a hash, so one multiply-fold per word
/// ([`FoldHasher`]) spreads it over the buckets as well as SipHash
/// does, at a fraction of the cost (a unit test checks the spread on
/// the golden traces' store keys).
///
/// It is deterministic and takes no random seed. A submitter who can
/// choose graphs could in principle aim many fingerprints at one
/// bucket and make the store's lookups linear; fingerprints are 64-bit
/// FNV over the whole graph, so that takes a deliberate search, and
/// defending against it belongs with the other hostile inputs
/// (ROADMAP G), not here.
///
/// Keep it to keys that are hashes. A key whose low bits carry
/// structure clusters under it: the fold's low output bits depend
/// only on the low input bits, and a map picks buckets by the low
/// bits. `ReqMemo`'s member-set masks in `dhp-core` are such keys —
/// bit `i` is task `i`, and the blocks of one solve share their low
/// tasks — so that memo keeps SipHash.
#[derive(Clone, Copy, Debug, Default)]
pub struct FoldState;

impl BuildHasher for FoldState {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher(FNV_OFFSET)
    }
}

/// The [`Hasher`] of [`FoldState`]: folds every written word into the
/// state with the multiply-fold of [`Dag::content_prehash`]. Integers
/// are one word each; a byte slice is folded eight little-endian bytes
/// at a time, the last word zero-padded.
#[derive(Clone, Copy, Debug)]
pub struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = fold(self.0, u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = fold(self.0, i);
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn write_isize(&mut self, i: isize) {
        self.write_u64(i as u64);
    }
}

impl Dag {
    /// Content hash of the graph's structure and weights (see the
    /// module docs for what is and is not covered). Falls back to node
    /// index order if the graph is (transiently) cyclic, so the method
    /// is total.
    pub fn fingerprint(&self) -> u64 {
        let order = topo_sort(self).unwrap_or_else(|| self.node_ids().collect());
        let mut pos = vec![0u32; self.node_count()];
        for (i, &u) in order.iter().enumerate() {
            pos[u.idx()] = i as u32;
        }

        let mut h = FNV_OFFSET;
        h = fnv1a_u64(h, self.node_count() as u64);
        h = fnv1a_u64(h, self.edge_count() as u64);
        for &u in &order {
            let n = self.node(u);
            h = fnv1a_u64(h, n.work.to_bits());
            h = fnv1a_u64(h, n.memory.to_bits());
        }
        let mut edges: Vec<(u32, u32, u64)> = self
            .edge_ids()
            .map(|e| {
                let ed = self.edge(e);
                (pos[ed.src.idx()], pos[ed.dst.idx()], ed.volume.to_bits())
            })
            .collect();
        edges.sort_unstable();
        for (s, d, v) in edges {
            h = fnv1a_u64(h, s as u64);
            h = fnv1a_u64(h, d as u64);
            h = fnv1a_u64(h, v);
        }
        h
    }

    /// Cheap hash of the graph's stored content: the words
    /// [`Dag::content_eq`] compares, folded one multiply per word on
    /// independent lanes. Content-equal graphs pre-hash equal; the
    /// reverse is only likely, so use it to *find* candidates and
    /// `content_eq` to accept one (see the module docs). Allocates
    /// nothing.
    pub fn content_prehash(&self) -> u64 {
        // One lane per stored field, so consecutive multiplies do not
        // wait on each other.
        let (mut work, mut memory) = (self.node_count() as u64, FNV_OFFSET);
        for u in self.node_ids().map(|u| self.node(u)) {
            work = fold(work, u.work.to_bits());
            memory = fold(memory, u.memory.to_bits());
        }
        let (mut ends, mut volume) = (self.edge_count() as u64, FNV_PRIME);
        for e in self.edge_ids().map(|e| self.edge(e)) {
            ends = fold(ends, u64::from(e.src.0) << 32 | u64::from(e.dst.0));
            volume = fold(volume, e.volume.to_bits());
        }
        fold(fold(fold(work, memory), ends), volume)
    }

    /// Whether `other` stores the same graph: same node and edge counts,
    /// bit-equal `work` and `memory` node by node, bit-equal `(src, dst,
    /// volume)` edge by edge. Labels are ignored. True implies every
    /// derived quantity — [`Dag::fingerprint`] included — is bit-equal
    /// on the two (see the module docs); false only means "not a copy".
    /// One linear pass, no allocation.
    pub fn content_eq(&self, other: &Dag) -> bool {
        self.node_count() == other.node_count()
            && self.edge_count() == other.edge_count()
            && self.node_ids().all(|u| {
                let (a, b) = (self.node(u), other.node(u));
                a.work.to_bits() == b.work.to_bits() && a.memory.to_bits() == b.memory.to_bits()
            })
            && self.edge_ids().all(|e| {
                let (a, b) = (self.edge(e), other.edge(e));
                a.src == b.src && a.dst == b.dst && a.volume.to_bits() == b.volume.to_bits()
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;
    use crate::graph::NodeId;

    #[test]
    fn identical_construction_hashes_equal() {
        let a = builder::fork_join(6, 10.0, 4.0, 2.0);
        let b = builder::fork_join(6, 10.0, 4.0, 2.0);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn labels_do_not_affect_the_fingerprint() {
        let mut a = builder::chain(4, 1.0, 2.0, 3.0);
        let base = a.fingerprint();
        a.set_label(NodeId(1), Some("renamed-task"));
        assert_eq!(a.fingerprint(), base);
    }

    #[test]
    fn weight_and_structure_changes_change_the_fingerprint() {
        let base = builder::chain(4, 1.0, 2.0, 3.0);
        let fp = base.fingerprint();

        let mut work = base.clone();
        work.node_mut(NodeId(2)).work += 1.0;
        assert_ne!(work.fingerprint(), fp);

        let mut mem = base.clone();
        mem.node_mut(NodeId(2)).memory += 1.0;
        assert_ne!(mem.fingerprint(), fp);

        let mut vol = base.clone();
        let e = vol.edge_between(NodeId(0), NodeId(1)).unwrap();
        vol.edge_mut(e).volume += 1.0;
        assert_ne!(vol.fingerprint(), fp);

        let mut extra = base.clone();
        extra.add_edge(NodeId(0), NodeId(3), 0.5);
        assert_ne!(extra.fingerprint(), fp);
    }

    /// The ISSUE's collision sanity check: a zoo of distinct small DAGs
    /// must produce pairwise-distinct fingerprints.
    #[test]
    fn distinct_small_dags_hash_apart() {
        let mut zoo: Vec<Dag> = Vec::new();
        for n in 2..8 {
            zoo.push(builder::chain(n, 1.0, 2.0, 3.0));
            zoo.push(builder::fork_join(n, 5.0, 1.0, 1.0));
        }
        for seed in 0..20 {
            zoo.push(builder::gnp_dag_weighted(12, 0.3, seed));
        }
        let mut fps: Vec<u64> = zoo.iter().map(Dag::fingerprint).collect();
        fps.sort_unstable();
        let before = fps.len();
        fps.dedup();
        assert_eq!(fps.len(), before, "fingerprint collision in the zoo");
    }

    #[test]
    fn empty_graph_is_total() {
        assert_eq!(Dag::new().fingerprint(), Dag::new().fingerprint());
        assert!(Dag::new().content_eq(&Dag::new()));
        assert_eq!(Dag::new().content_prehash(), Dag::new().content_prehash());
    }

    #[test]
    fn content_equality_reads_weights_and_edges_but_not_labels() {
        let base = builder::fork_join(5, 10.0, 4.0, 2.0);
        let same = |g: &Dag| g.content_eq(&base) && base.content_eq(g);

        let mut labelled = base.clone();
        labelled.set_label(NodeId(3), Some("renamed-task"));
        assert!(same(&labelled));
        assert_eq!(labelled.content_prehash(), base.content_prehash());

        let bump = |x: &mut f64| *x = f64::from_bits(x.to_bits() ^ 1);
        let mut work = base.clone();
        bump(&mut work.node_mut(NodeId(6)).work);
        let mut mem = base.clone();
        bump(&mut mem.node_mut(NodeId(0)).memory);
        let mut vol = base.clone();
        let last = vol.edge_ids().next_back().unwrap();
        bump(&mut vol.edge_mut(last).volume);
        let mut extra_edge = base.clone();
        extra_edge.add_edge(NodeId(0), NodeId(6), 2.0);
        let mut extra_node = base.clone();
        extra_node.add_node(10.0, 4.0);
        for (what, g) in [
            ("work", &work),
            ("memory", &mem),
            ("volume", &vol),
            ("an extra edge", &extra_edge),
            ("an extra node", &extra_node),
        ] {
            assert!(!g.content_eq(&base) && !base.content_eq(g), "{what}");
            assert_ne!(g.content_prehash(), base.content_prehash(), "{what}");
        }
        // Signed zeros and NaN payloads are different content too: the
        // fingerprint hashes bits, so equality compares bits.
        let mut zero = base.clone();
        zero.node_mut(NodeId(1)).work = 0.0;
        let mut minus_zero = base.clone();
        minus_zero.node_mut(NodeId(1)).work = -0.0;
        assert!(!zero.content_eq(&minus_zero));
        assert_ne!(zero.fingerprint(), minus_zero.fingerprint());
    }

    #[test]
    fn the_fold_hasher_is_deterministic_and_hashes_words_not_bytes() {
        use std::hash::{BuildHasher, Hash};
        let hash = |key: &dyn Fn(&mut FoldHasher)| {
            let mut h = FoldState.build_hasher();
            key(&mut h);
            h.finish()
        };
        let key = (0xdead_beef_u64, 7u64, 3u64);
        let a = hash(&|h| key.hash(h));
        // No per-process seed: a fresh builder folds to the same value.
        assert_eq!(a, FoldState.hash_one(key));
        assert_eq!(a, hash(&|h| key.hash(h)));
        // One fold per word, in write order.
        let by_hand = fold(fold(fold(FNV_OFFSET, key.0), key.1), key.2);
        assert_eq!(a, by_hand);
        assert_ne!(a, hash(&|h| (key.1, key.0, key.2).hash(h)));
        // Narrow integers are one word each; a byte slice is whole
        // little-endian words, the last one zero-padded.
        assert_eq!(hash(&|h| h.write_u32(9)), fold(FNV_OFFSET, 9));
        assert_eq!(hash(&|h| h.write_usize(9)), fold(FNV_OFFSET, 9));
        assert_eq!(
            hash(&|h| h.write(&[1, 0, 0, 0, 0, 0, 0, 0, 2])),
            fold(fold(FNV_OFFSET, 1), 2)
        );
    }

    #[test]
    fn insertion_order_of_edges_is_content() {
        // Same edge multiset, stored in another order: the fingerprint
        // (which sorts its edges) agrees, the content does not — such a
        // pair is recomputed by whoever keys on content, never confused.
        let build = |order: &[(u32, u32)]| {
            let mut g = Dag::new();
            for _ in 0..3 {
                g.add_node(1.0, 2.0);
            }
            for &(s, d) in order {
                g.add_edge(NodeId(s), NodeId(d), f64::from(s + d));
            }
            g
        };
        let a = build(&[(0, 1), (0, 2), (1, 2)]);
        let b = build(&[(1, 2), (0, 1), (0, 2)]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(!a.content_eq(&b));
        // One endpoint moved, counts and volumes kept.
        let mut c = build(&[(0, 1), (0, 2)]);
        c.add_edge(NodeId(0), NodeId(2), 3.0);
        assert!(!a.content_eq(&c));
        assert_ne!(a.content_prehash(), c.content_prehash());
    }
}
