//! The free processors of one cluster.
//!
//! A lease is a prefix of the free processors in the canonical
//! memory-descending order ([`Cluster::ids_by_memory_desc`]), so it takes
//! the biggest free memories first (the paper's Step 2 hands blocks out
//! the same way); the reservation replays carve hypothetical free sets
//! the same way. Only this module knows how [`FreeSet`] keeps them:
//!
//! * **The mask and its count.** `take` and `give_back` are the only
//!   writers, so the count cannot drift from the mask.
//! * **The largest free memory.** Kept current by those two writers, so
//!   [`FreeSet::turns_away`], the "no free processor holds this task"
//!   screen, is one comparison per candidate, with no scan.
//! * **The carve list.** [`FreeSet::carve`] filters the real or the
//!   hypothetical mask into memory order. A lease's shape
//!   ([`Cluster::shape_of_slice`], the cache key's lease half) is a pure
//!   function of that ordered prefix, so while the list stays what it
//!   was — between two events most probes see the same free set — every
//!   size's shape is hashed once and then read back. The memo is dropped
//!   only when a carve yields a different list. The debug build checks
//!   every shape it reads back against a fresh hash (test builds tally
//!   the checks, `shape_tally`).

use dhp_platform::{Cluster, ProcId};

/// Which mask [`FreeSet::carve`] reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Mask {
    /// The processors free now.
    Real,
    /// The set the last [`FreeSet::hypothesise`] filled.
    Hypothetical,
}

/// The free processors of one cluster (see the module docs).
pub(crate) struct FreeSet {
    /// Every processor, memory-descending: the carve order.
    order: Vec<ProcId>,
    /// Each processor's memory and speed, by id.
    memory: Vec<f64>,
    speed: Vec<f64>,
    /// `free[p]`: processor `p` holds no lease.
    free: Vec<bool>,
    /// How many processors are free.
    count: usize,
    /// Memory of the first free processor in `order` (`−∞` when none).
    top: f64,
    /// The reservation replays' hypothetical mask.
    hyp: Vec<bool>,
    /// The last carve: its mask's free processors, in `order`.
    list: Vec<ProcId>,
    /// What `carve` filters into, swapped with `list` when they differ.
    fresh: Vec<ProcId>,
    /// `(size, shape of list[..size])` for each size asked since `list` changed.
    shapes: Vec<(usize, u64)>,
}

/// The screen: can no processor, the largest of which holds `top`
/// (`None`: no processor at all), hold a task needing `req`? A NaN
/// requirement is never turned away.
#[inline]
fn beyond(top: Option<f64>, req: f64) -> bool {
    top.is_none_or(|m| req > m * (1.0 + 1e-9))
}

// `#[inline]` marks what other modules call per candidate or probe: not
// inlined across codegen units, a warm `bench_online` probe ran ~20 % slower.
impl FreeSet {
    /// Every processor of `cluster` free.
    pub(crate) fn new(cluster: &Cluster) -> FreeSet {
        let n = cluster.len();
        let mut set = FreeSet {
            order: cluster.ids_by_memory_desc(),
            memory: cluster.proc_ids().map(|p| cluster.memory(p)).collect(),
            speed: cluster.proc_ids().map(|p| cluster.speed(p)).collect(),
            free: vec![true; n],
            count: n,
            top: f64::NEG_INFINITY,
            hyp: vec![true; n],
            list: Vec::with_capacity(n),
            fresh: Vec::with_capacity(n),
            shapes: Vec::new(),
        };
        set.top = set.first_free_memory();
        set
    }

    fn first_free_memory(&self) -> f64 {
        self.order
            .iter()
            .find(|p| self.free[p.idx()])
            .map_or(f64::NEG_INFINITY, |p| self.memory[p.idx()])
    }

    /// Marks `lease` busy. Returns its speed, summed in lease order.
    pub(crate) fn take(&mut self, lease: &[ProcId]) -> f64 {
        let mut speed = 0.0;
        for &p in lease {
            debug_assert!(self.free[p.idx()], "{p:?} is already leased");
            self.free[p.idx()] = false;
            speed += self.speed[p.idx()];
        }
        self.count -= lease.len();
        self.top = self.first_free_memory();
        speed
    }

    /// Marks `lease` free again.
    pub(crate) fn give_back(&mut self, lease: &[ProcId]) {
        for &p in lease {
            debug_assert!(!self.free[p.idx()], "{p:?} is already free");
            self.free[p.idx()] = true;
        }
        self.count += lease.len();
        self.top = self.first_free_memory();
    }

    /// How many processors are free.
    #[inline]
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// Whether every processor is free.
    #[inline]
    pub(crate) fn all_free(&self) -> bool {
        self.count == self.free.len()
    }

    /// Memory of the largest free processor (`−∞` when none is free).
    pub(crate) fn top_memory(&self) -> f64 {
        self.top
    }

    /// Aggregate speed of the free processors, summed in processor-id
    /// order: the `best-fit` routing signal (larger = more immediate
    /// capacity) and the divisor of the admission pass's work screen
    /// (`admission::fits_hole`).
    #[inline]
    pub(crate) fn speed(&self) -> f64 {
        self.free
            .iter()
            .zip(&self.speed)
            .filter(|&(&free, _)| free)
            .map(|(_, &s)| s)
            .sum()
    }

    /// The free processors, memory-descending.
    pub(crate) fn in_memory_order(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.order.iter().copied().filter(|p| self.free[p.idx()])
    }

    /// Whether no free processor can hold a task needing `req`: none is
    /// free, or `req` exceeds the largest free memory. A lease probe
    /// answers exactly this without reaching the cache.
    #[inline]
    pub(crate) fn turns_away(&self, req: f64) -> bool {
        beyond((self.count > 0).then_some(self.top), req)
    }

    /// Fills the hypothetical mask: the real one with `claim` busy and
    /// every lease of `freed` free, in that order.
    #[inline]
    pub(crate) fn hypothesise<'a>(
        &mut self,
        claim: &[ProcId],
        freed: impl IntoIterator<Item = &'a [ProcId]>,
    ) {
        self.hyp.copy_from_slice(&self.free);
        for &p in claim {
            self.hyp[p.idx()] = false;
        }
        for &p in freed.into_iter().flatten() {
            self.hyp[p.idx()] = true;
        }
    }

    /// Carves the free processors of `from` into the carve list, keeping
    /// the memoized shapes if the list is the one they were hashed on.
    /// Returns how many processors the list holds.
    #[inline]
    pub(crate) fn carve(&mut self, from: Mask) -> usize {
        let mask = match from {
            Mask::Real => &self.free,
            Mask::Hypothetical => &self.hyp,
        };
        self.fresh.clear();
        self.fresh
            .extend(self.order.iter().copied().filter(|p| mask[p.idx()]));
        if self.fresh != self.list {
            std::mem::swap(&mut self.fresh, &mut self.list);
            self.shapes.clear();
        }
        self.list.len()
    }

    /// [`FreeSet::turns_away`] on the last carve.
    #[inline]
    pub(crate) fn carve_turns_away(&self, req: f64) -> bool {
        beyond(self.list.first().map(|p| self.memory[p.idx()]), req)
    }

    /// The lease of the last carve's first `size` processors.
    #[inline]
    pub(crate) fn lease(&self, size: usize) -> &[ProcId] {
        &self.list[..size]
    }

    /// The shape of [`FreeSet::lease`]`(size)` on `cluster`, the cluster
    /// this set was built from.
    #[inline]
    pub(crate) fn shape(&mut self, cluster: &Cluster, size: usize) -> u64 {
        let lease = &self.list[..size];
        if let Some(&(_, shape)) = self.shapes.iter().find(|&&(s, _)| s == size) {
            debug_assert_eq!(
                shape,
                cluster.shape_of_slice(lease),
                "a memoized lease shape of another list or cluster"
            );
            #[cfg(test)]
            shape_tally::read_back(shape == cluster.shape_of_slice(lease));
            return shape;
        }
        #[cfg(test)]
        shape_tally::bump(&shape_tally::HASHED);
        let shape = cluster.shape_of_slice(lease);
        self.shapes.push((size, shape));
        shape
    }
}

/// Test-build tallies of the lease-shape memo, per thread: shapes
/// hashed, shapes read back, and read-backs that differed from a fresh
/// hash of their lease (always 0 unless the memo is wrong).
#[cfg(test)]
pub(crate) mod shape_tally {
    use std::cell::Cell;
    use std::thread::LocalKey;

    thread_local! {
        pub(super) static HASHED: Cell<u64> = const { Cell::new(0) };
        static READ_BACK: Cell<u64> = const { Cell::new(0) };
        static STALE: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn bump(counter: &'static LocalKey<Cell<u64>>) {
        counter.with(|c| c.set(c.get() + 1));
    }

    pub(super) fn read_back(fresh: bool) {
        bump(&READ_BACK);
        if !fresh {
            bump(&STALE);
        }
    }

    /// `(hashed, read back, stale)` so far on this thread.
    pub(crate) fn read() -> (u64, u64, u64) {
        let get = |counter: &'static LocalKey<Cell<u64>>| counter.with(Cell::get);
        (get(&HASHED), get(&READ_BACK), get(&STALE))
    }
}
