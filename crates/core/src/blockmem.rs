//! Block memory requirement `r_{V_i}`.
//!
//! The requirement of a block is the peak memory of the best sequential
//! traversal of its induced sub-DAG found by `dhp-memdag`, where files
//! crossing the block boundary are charged while the incident task
//! executes (matching the paper's `r_u` for singleton blocks).
//!
//! It is a pure function of the member *set*, and one solve asks for
//! the same sets again and again (Step 3 re-evaluates a merge candidate
//! every time its block is requeued, and neighbouring `k'` attempts
//! split and merge their way to the same blocks), so `dag_het_part`
//! answers through a [`ReqMemo`] that lives exactly as long as the
//! solve.
//!
//! **Bounds decide, the kernel confirms.** No step of a solve *reads*
//! a requirement: Step 2 orders blocks by it and compares it with
//! memories, Steps 3 and 4 compare it with memories. So a solve first
//! asks for certified bounds `lo ≤ r ≤ hi` ([`ReqMemo::bounds`],
//! `dhp_memdag::block_bounds`: one topological order and its peak
//! instead of three strategies), decides every comparison the bounds
//! decide, and resolves `r` ([`ReqMemo::resolve`]) only when they
//! straddle the value it is compared with. Every decision is the one
//! `r` itself would make.
//!
//! **Bisections.** Step 2's `Partition(V_m, 2)` is a function of the
//! member set as well, and the sweep's attempts split the same blocks
//! again and again, so the memo also holds the parts each set was
//! split into (`ReqMemo::split`), under its own lock.

use crate::blocks::MemberPool;
use dhp_dag::{Dag, NodeId};
use dhp_memdag::PeakBounds;
use parking_lot::Mutex;
use std::collections::HashMap;

/// Computes `r` for the block consisting of `members` of `g`.
///
/// Cost: proportional to the block — its tasks and their incident
/// edges — and to nothing else. No sub-DAG is built: `dhp-memdag`
/// views the block in place (`dhp_dag::BlockView`: the members'
/// adjacency filtered to the block, the boundary load folded in during
/// the same pass) and runs every traversal strategy on that view — or,
/// when no two members share a file, evaluates the one order they all
/// return — on the calling thread's reusable workspace. A question no larger
/// than one the thread has answered before allocates nothing; the only
/// table as long as `g` is the workspace's parent-id map, which grows
/// once per thread and is wiped member by member after each question.
pub fn block_requirement(g: &Dag, members: &[NodeId]) -> f64 {
    match members {
        [] => 0.0,
        [u] => g.task_requirement(*u),
        _ => dhp_memdag::block_peak(g, members),
    }
}

/// A member set as a memo key: one bit per task while the workflow has
/// at most 128 of them (16 bytes whatever the block), the ascending id
/// list otherwise. Hashed with SipHash, not with the fold of
/// `dhp_dag::fingerprint::FoldState`: a mask's low bits are the
/// workflow's low task ids, which the blocks of one solve share, and
/// the fold would pile such keys into few buckets. A lookup borrows the
/// id list from a buffer of the calling thread; only an insertion
/// copies it into the map.
#[derive(Clone, Copy, Debug)]
enum SetKey<'k> {
    Mask(u128),
    Ids(&'k [u32]),
}

/// Entries per member set, under the two kinds of [`SetKey`].
#[derive(Debug)]
struct SetMap<V> {
    masks: HashMap<u128, V>,
    ids: HashMap<Box<[u32]>, V>,
}

impl<V> Default for SetMap<V> {
    fn default() -> Self {
        Self {
            masks: HashMap::new(),
            ids: HashMap::new(),
        }
    }
}

impl<V> SetMap<V> {
    fn get(&self, key: SetKey<'_>) -> Option<&V> {
        match key {
            SetKey::Mask(mask) => self.masks.get(&mask),
            SetKey::Ids(ids) => self.ids.get(ids),
        }
    }

    /// The entry of `key`, `value` inserted first if there is none.
    fn get_or_insert(&mut self, key: SetKey<'_>, value: V) -> &mut V {
        match key {
            SetKey::Mask(mask) => self.masks.entry(mask).or_insert(value),
            SetKey::Ids(ids) => self.ids.entry(ids.into()).or_insert(value),
        }
    }

    fn insert(&mut self, key: SetKey<'_>, value: V) {
        match key {
            SetKey::Mask(mask) => self.masks.insert(mask, value),
            SetKey::Ids(ids) => self.ids.insert(ids.into(), value),
        };
    }
}

thread_local! {
    /// The id list a [`SetKey::Ids`] lookup borrows.
    static IDS: std::cell::Cell<Vec<u32>> = const { std::cell::Cell::new(Vec::new()) };
}

#[derive(Debug, Default)]
struct MemoStore {
    /// Exact entries are [`PeakBounds::exact`].
    known: SetMap<PeakBounds>,
    hits: u64,
    misses: u64,
    /// Bounds questions answered by bounds that are not exact.
    #[cfg(test)]
    bounded: u64,
    /// Those of them resolved later.
    #[cfg(test)]
    resolved: u64,
}

/// The parts Step 2 split each member set into: both, one after the
/// other, in one list for the whole solve, and where each set's parts
/// start there and where the second begins.
#[derive(Debug, Default)]
struct SplitStore {
    known: SetMap<(usize, usize)>,
    parts: Vec<NodeId>,
    #[cfg(test)]
    hits: u64,
    #[cfg(test)]
    misses: u64,
}

/// What is known of `r` per member set, for one workflow and one
/// solve: `dag_het_part` makes one, hands it to every `k'` worker, and
/// drops it with the solve, so it never outlives the graph its keys
/// index into and its memory is bounded by one solve's distinct blocks.
/// Singletons and the empty set bypass it (they cost less than a
/// lookup, and their answer is always exact).
///
/// An entry holds either certified bounds (`dhp_memdag::block_bounds`)
/// or the exact requirement; a resolution replaces the former by the
/// latter, so each set costs the full kernel at most once.
///
/// Two workers missing on the same set both compute it; the value is a
/// function of the set, so whichever insert lands last changes nothing
/// — except that an exact entry is never replaced by bounds.
///
/// The memo also holds Step 2's bisections (`ReqMemo::split`), behind
/// a lock of their own, so that a worker copying parts out never holds
/// up one asking for bounds.
#[derive(Debug)]
pub struct ReqMemo<'g> {
    g: &'g Dag,
    store: Mutex<MemoStore>,
    splits: Mutex<SplitStore>,
}

impl<'g> ReqMemo<'g> {
    /// An empty memo for blocks of `g`.
    pub fn new(g: &'g Dag) -> Self {
        Self {
            g,
            store: Mutex::new(MemoStore::default()),
            splits: Mutex::new(SplitStore::default()),
        }
    }

    /// The two parts `bisect` splits `members` (any order, at least
    /// two, without duplicates) into, copied into lists from `pool`.
    /// `bisect` returns both parts, one after the other, and where the
    /// second starts; it runs at most once per member set, outside the
    /// lock. Every call on one memo must bisect the same way: one solve
    /// splits with one partitioner configuration.
    ///
    /// # Panics
    /// Panics if a member is listed twice.
    pub(crate) fn split<'h>(
        &self,
        members: &[NodeId],
        pool: &mut MemberPool,
        bisect: impl FnOnce() -> (&'h [NodeId], usize),
    ) -> [Vec<NodeId>; 2] {
        let len = members.len();
        self.with_key(members, |key| {
            let mut copy_out = |splits: &SplitStore, (start, mid): (usize, usize)| {
                let (first, second) = splits.parts[start..start + len].split_at(mid);
                [pool.copy_of(first), pool.copy_of(second)]
            };
            {
                let splits = &mut *self.splits.lock();
                let known = splits.known.get(key).copied();
                #[cfg(test)]
                match known {
                    Some(_) => splits.hits += 1,
                    None => splits.misses += 1,
                }
                if let Some(at) = known {
                    return copy_out(splits, at);
                }
            }
            let (halves, mid) = bisect();
            debug_assert!(halves.len() == len && 0 < mid && mid < len, "two parts");
            let splits = &mut *self.splits.lock();
            let start = splits.parts.len();
            let at = *splits.known.get_or_insert(key, (start, mid));
            if at.0 == start {
                splits.parts.extend_from_slice(halves);
            }
            copy_out(splits, at)
        })
    }

    /// `block_requirement(g, members)`, computed at most once per
    /// member set (`members` in any order, without duplicates).
    ///
    /// # Panics
    /// Panics if a member is listed twice.
    pub fn requirement(&self, members: &[NodeId]) -> f64 {
        if members.len() < 2 {
            return block_requirement(self.g, members);
        }
        self.with_key(members, |key| {
            {
                let mut store = self.store.lock();
                if let Some(known) = store.known.get(key).filter(|b| b.is_exact()) {
                    let req = known.hi;
                    store.hits += 1;
                    return req;
                }
                store.misses += 1;
            }
            // Computed outside the lock: this is the expensive part, and
            // the other workers must stay free to look up their own sets.
            let req = block_requirement(self.g, members);
            self.store.lock().known.insert(key, PeakBounds::exact(req));
            req
        })
    }

    /// Certified bounds on `block_requirement(g, members)`: the exact
    /// value when the memo holds it or the block has at most one task
    /// or no internal edge, `dhp_memdag::block_bounds` otherwise.
    ///
    /// # Panics
    /// Panics if a member is listed twice.
    pub fn bounds(&self, members: &[NodeId]) -> PeakBounds {
        if members.len() < 2 {
            return PeakBounds::exact(block_requirement(self.g, members));
        }
        self.with_key(members, |key| {
            {
                let mut store = self.store.lock();
                if let Some(&known) = store.known.get(key) {
                    store.hits += 1;
                    return known;
                }
                store.misses += 1;
            }
            let bounds = dhp_memdag::block_bounds(self.g, members);
            let mut store = self.store.lock();
            #[cfg(test)]
            if !bounds.is_exact() {
                store.bounded += 1;
            }
            *store.known.get_or_insert(key, bounds)
        })
    }

    /// The requirement of `members` whose bounds are `bounds`: their
    /// value when they are exact, [`ReqMemo::requirement`] otherwise.
    pub fn resolve(&self, members: &[NodeId], bounds: PeakBounds) -> f64 {
        if bounds.is_exact() {
            return bounds.hi;
        }
        #[cfg(test)]
        {
            self.store.lock().resolved += 1;
        }
        let req = self.requirement(members);
        debug_assert!(bounds.lo <= req && req <= bounds.hi, "{bounds:?} vs {req}");
        req
    }

    /// `(hits, misses)` over the multi-member questions asked so far,
    /// bounds and exact ones alike.
    pub fn stats(&self) -> (u64, u64) {
        let store = self.store.lock();
        (store.hits, store.misses)
    }

    /// `(hits, misses)` over the bisections asked for so far.
    #[cfg(test)]
    pub(crate) fn split_tally(&self) -> (u64, u64) {
        let splits = self.splits.lock();
        (splits.hits, splits.misses)
    }

    /// `(bounded, resolved)`: bounds questions answered by bounds that
    /// were not exact, and how many of those were resolved later.
    #[cfg(test)]
    pub(crate) fn tally(&self) -> (u64, u64) {
        let store = self.store.lock();
        (store.bounded, store.resolved)
    }

    /// Runs `question` with the key of `members`.
    ///
    /// # Panics
    /// Panics if a member is listed twice: a mask would OR the copies
    /// away, and a miss on the same list would panic in the kernel.
    fn with_key<R>(&self, members: &[NodeId], question: impl FnOnce(SetKey<'_>) -> R) -> R {
        if self.g.node_count() <= u128::BITS as usize {
            let mask = members.iter().fold(0, |mask, u| mask | 1u128 << u.0);
            assert_eq!(
                mask.count_ones() as usize,
                members.len(),
                "duplicate member in block"
            );
            return question(SetKey::Mask(mask));
        }
        // A question asked while another holds the buffer (none does)
        // would find it empty and grow one of its own.
        let mut ids = IDS.take();
        ids.clear();
        ids.extend(members.iter().map(|u| u.0));
        ids.sort_unstable();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "duplicate member in block"
        );
        let answer = question(SetKey::Ids(&ids));
        IDS.set(ids);
        answer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhp_dag::builder;

    #[test]
    fn singleton_equals_task_requirement() {
        let g = builder::gnp_dag_weighted(10, 0.3, 1);
        for u in g.node_ids() {
            assert_eq!(block_requirement(&g, &[u]), g.task_requirement(u));
        }
    }

    #[test]
    fn whole_graph_has_no_boundary() {
        let g = builder::chain(5, 1.0, 4.0, 2.0);
        let all: Vec<NodeId> = g.node_ids().collect();
        let r = block_requirement(&g, &all);
        assert_eq!(r, 8.0); // interior task: 2 + 2 + 4
    }

    #[test]
    fn block_sees_boundary_files() {
        // chain a -> b -> c, block {b}: r = 5 + 7 + m
        let mut g = Dag::new();
        let a = g.add_node(0.0, 1.0);
        let b = g.add_node(0.0, 2.0);
        let c = g.add_node(0.0, 3.0);
        g.add_edge(a, b, 5.0);
        g.add_edge(b, c, 7.0);
        assert_eq!(block_requirement(&g, &[b]), 14.0);
        // block {b, c}: b: 5 + 2 + 7 = 14 ; c: 7 + 3 = 10
        assert_eq!(block_requirement(&g, &[b, c]), 14.0);
    }

    #[test]
    fn requirement_at_least_max_member_floor() {
        let g = builder::gnp_dag_weighted(20, 0.2, 3);
        let members: Vec<NodeId> = g.node_ids().take(8).collect();
        let r = block_requirement(&g, &members);
        // every member's own memory is a lower bound
        let max_mem = members
            .iter()
            .map(|&u| g.node(u).memory)
            .fold(0.0f64, f64::max);
        assert!(r >= max_mem);
    }

    #[test]
    fn empty_block_is_zero() {
        let g = builder::chain(3, 1.0, 1.0, 1.0);
        assert_eq!(block_requirement(&g, &[]), 0.0);
    }

    /// A pseudo-random subset of `g`'s nodes with at least two members,
    /// in scrambled order.
    fn scrambled_subset(g: &Dag, mut state: u64) -> Vec<NodeId> {
        let mut step = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut picked: Vec<(u64, NodeId)> = Vec::new();
        for u in g.node_ids() {
            if step() % 3 == 0 {
                picked.push((step(), u));
            }
        }
        if picked.len() < 2 {
            picked = g.node_ids().take(2).map(|u| (0, u)).collect();
        }
        picked.sort_unstable();
        picked.into_iter().map(|(_, u)| u).collect()
    }

    /// `block_requirement` as it was computed before the block was
    /// viewed in place: build the induced sub-DAG, sum the boundary
    /// load per member, ask for the best traversal of that graph.
    fn induced_requirement(g: &Dag, members: &[NodeId]) -> f64 {
        let mut sorted = members.to_vec();
        sorted.sort_unstable();
        let (sub, back) = g.induced_subgraph(&sorted);
        let mut member = dhp_dag::util::BitSet::new(g.node_count());
        for &u in &sorted {
            member.set(u.idx());
        }
        let mut ext = vec![0.0f64; sub.node_count()];
        for (i, &orig) in back.iter().enumerate() {
            let mut boundary = 0.0;
            for &e in g.in_edges(orig) {
                if !member.get(g.edge(e).src.idx()) {
                    boundary += g.edge(e).volume;
                }
            }
            for &e in g.out_edges(orig) {
                if !member.get(g.edge(e).dst.idx()) {
                    boundary += g.edge(e).volume;
                }
            }
            ext[i] = boundary;
        }
        dhp_memdag::best_traversal(&sub, &ext).peak
    }

    /// Three disconnected pieces in one graph: a random DAG with about
    /// a third of its edges doubled, the non-SP "N" between a fork and
    /// a join, and `source → 50 × (a → b) → sink`.
    fn mixed_dag(n: usize, seed: u64) -> Dag {
        let mut g = builder::gnp_dag_weighted(n, 0.25, seed);
        for e in g.edge_ids().filter(|e| e.0 % 3 == 0).collect::<Vec<_>>() {
            let (src, dst) = (g.edge(e).src, g.edge(e).dst);
            g.add_edge(src, dst, 0.5 + (seed % 7) as f64);
        }
        let mut state = seed | 1;
        let mut weight = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            1.0 + (state % 1024) as f64 / 64.0
        };
        let [s, s1, s2, t1, t2, t] = [(); 6].map(|()| g.add_node(1.0, weight()));
        for (u, v) in [
            (s, s1),
            (s, s2),
            (s1, t1),
            (s1, t2),
            (s2, t2),
            (t1, t),
            (t2, t),
        ] {
            g.add_edge(u, v, weight());
        }
        let (source, sink) = (g.add_node(1.0, weight()), g.add_node(1.0, weight()));
        for _ in 0..50 {
            let (a, b) = (g.add_node(1.0, weight()), g.add_node(1.0, weight()));
            g.add_edge(source, a, weight());
            g.add_edge(a, b, weight());
            g.add_edge(b, sink, weight());
        }
        g
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// In place == through the induced sub-DAG, to the bit — on one
        /// thread's workspace, a large block, then a tiny one, then
        /// everything, then the large one again.
        #[test]
        fn requirement_in_place_equals_the_induced_one(
            n in 5usize..40,
            seed in proptest::strategy::any::<u64>(),
        ) {
            let g = mixed_dag(n, seed);
            let large = scrambled_subset(&g, seed);
            let tiny: Vec<NodeId> = large.iter().rev().take(2 + (seed % 3) as usize).copied().collect();
            let all: Vec<NodeId> = g.node_ids().collect();
            for set in [&large, &tiny, &all, &large] {
                proptest::prop_assert_eq!(
                    block_requirement(&g, set).to_bits(),
                    induced_requirement(&g, set).to_bits()
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        /// Memoised == fresh, to the bit: for bitmask keys (≤ 128
        /// tasks) and id-list keys, in any member order, on a repeat,
        /// and for the union a merge would form.
        #[test]
        fn memoised_requirement_equals_fresh(
            n in proptest::sample::select(vec![3usize, 17, 64, 128, 129, 180]),
            seed in proptest::strategy::any::<u64>(),
        ) {
            let g = builder::gnp_dag_weighted(n, (4.0 / n as f64).min(0.9), seed);
            let memo = ReqMemo::new(&g);
            let mut asked = 0u64;
            for round in 0..6u64 {
                let a = scrambled_subset(&g, seed ^ round);
                let b = scrambled_subset(&g, seed.rotate_left(17) ^ round);
                let mut merged = a.clone();
                merged.extend(b.iter().filter(|u| !a.contains(u)));
                let mut reversed = merged.clone();
                reversed.reverse();
                for set in [&a, &b, &merged, &reversed, &merged] {
                    let fresh = block_requirement(&g, set);
                    proptest::prop_assert_eq!(memo.requirement(set).to_bits(), fresh.to_bits());
                    asked += 1;
                }
            }
            let (hits, misses) = memo.stats();
            proptest::prop_assert_eq!(hits + misses, asked);
            // `reversed` and the second `merged` repeat a set every round.
            proptest::prop_assert!(hits >= 12, "{} hits", hits);
        }
    }

    /// A member listed twice is refused on every path: before a mask
    /// key could OR the copy away and answer a hit for the set without
    /// it, and the same for bounds — with a mask key (≤ 128 tasks) and
    /// with an id-list key.
    #[test]
    fn memo_refuses_a_duplicated_member_on_hits_and_misses() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for n in [6usize, 130] {
            let g = builder::chain(n, 1.0, 4.0, 2.0);
            let (a, b) = (NodeId(1), NodeId(2));
            let twice = [a, a, b];
            let refused = |ask: &dyn Fn(&ReqMemo<'_>) -> PeakBounds, warm: bool| {
                let memo = ReqMemo::new(&g);
                if warm {
                    memo.requirement(&[a, b]);
                }
                let err = catch_unwind(AssertUnwindSafe(|| ask(&memo))).unwrap_err();
                let msg = err.downcast_ref::<String>().map(String::as_str);
                let msg = msg.or_else(|| err.downcast_ref::<&str>().copied());
                assert!(
                    msg.is_some_and(|m| m.contains("duplicate member")),
                    "n={n} warm={warm}: {msg:?}"
                );
            };
            for warm in [false, true] {
                refused(&|memo| PeakBounds::exact(memo.requirement(&twice)), warm);
                refused(&|memo| memo.bounds(&twice), warm);
            }
        }
    }

    /// Bounds bracket the requirement, resolving them yields it to the
    /// bit, and the memo counts bounds questions with the exact ones: a
    /// bounds question is answered by any entry, an exact one only by
    /// an exact entry.
    #[test]
    fn memo_bounds_bracket_and_resolve_to_the_requirement() {
        let g = builder::gnp_dag_weighted(40, 0.2, 5);
        let memo = ReqMemo::new(&g);
        let mut resolved = 0;
        for seed in 0..24u64 {
            let set = scrambled_subset(&g, seed);
            let fresh = block_requirement(&g, &set);
            let bounds = memo.bounds(&set);
            assert!(
                bounds.lo <= fresh && fresh <= bounds.hi,
                "{bounds:?} vs {fresh}"
            );
            assert_eq!(memo.bounds(&set), bounds, "a hit returns the entry");
            resolved += !bounds.is_exact() as u64;
            assert_eq!(memo.resolve(&set, bounds).to_bits(), fresh.to_bits());
            assert!(memo.bounds(&set).is_exact(), "the entry is exact now");
        }
        assert!(resolved > 0, "premise: some subsets have internal edges");
        let (hits, misses) = memo.stats();
        // Per set: a bounds miss, a bounds hit, a resolution that hits
        // an exact entry or misses, then a bounds hit.
        assert_eq!(hits + misses, 24 * 3 + resolved);
        assert_eq!(memo.tally(), (resolved, resolved));
    }

    #[test]
    fn memo_leaves_singletons_and_the_empty_set_alone() {
        let g = builder::gnp_dag_weighted(10, 0.3, 1);
        let memo = ReqMemo::new(&g);
        assert_eq!(memo.requirement(&[]), 0.0);
        assert_eq!(memo.bounds(&[]), PeakBounds::exact(0.0));
        for u in g.node_ids() {
            assert_eq!(memo.requirement(&[u]), g.task_requirement(u));
            assert_eq!(memo.bounds(&[u]), PeakBounds::exact(g.task_requirement(u)));
        }
        assert_eq!(memo.stats(), (0, 0));
    }
}
