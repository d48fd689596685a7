//! Per-cluster engine state: the admission queue, the free-processor
//! set, in-service bookkeeping, and the accumulating run results.
//!
//! [`ClusterState`] owns everything one shared cluster's event loop
//! mutates. The one event loop drives one per member cluster under a
//! merged virtual clock — exactly one for the single-cluster engine
//! ([`crate::engine::serve`]), one per member for the federation tier
//! ([`crate::federation::serve_federation`]) — which is precisely why
//! this state is a value and not a pile of locals.
//!
//! The queue's entries are [`Pending`] values, and what they carry of
//! their graph comes from the serve call's [`ArrivalFacts`]: the three
//! walks over an arriving graph (task sum, hottest task, fingerprint)
//! happen once per graph per call, and every later clone of it is
//! recognised by the address of the graph it shares.

use crate::event::EventQueue;
use crate::report::{LostRecord, RejectedRecord, WorkflowRecord};
use crate::submission::Submission;
use crate::work_index::WorkIndex;
use dhp_core::fitting::max_task_requirement;
use dhp_core::mapping::Mapping;
use dhp_dag::fingerprint::FoldState;
use dhp_dag::Dag;
use dhp_platform::{Cluster, ProcId};
use std::collections::HashMap;
use std::sync::Arc;

/// A queued workflow with its admission-relevant statistics.
///
/// The three graph facts (`total_work`, `max_task_req`, `fingerprint`)
/// are what routing, the arrival screen, every admission pass and every
/// cache probe read instead of the graph. They are derived at most
/// once per graph per serve call, however many submissions share it:
/// the only constructor, [`Pending::new`], asks the call's
/// [`ArrivalFacts`].
#[derive(Debug)]
pub(crate) struct Pending {
    pub(crate) id: usize,
    pub(crate) arrival: f64,
    pub(crate) total_work: f64,
    pub(crate) max_task_req: f64,
    /// [`dhp_dag::Dag::fingerprint`] of the graph, reused by every
    /// cache probe for this workflow.
    pub(crate) fingerprint: u64,
    /// How many times a member failure (`--failure-mode requeue`) sent
    /// this workflow back to the queue; 0 for fresh arrivals. Carried
    /// onto the completed record.
    pub(crate) requeues: u64,
    /// The submission itself, shared: routing, spillover, requeue and
    /// the eventual [`Placement`] all pass this pointer along, so the
    /// graph is never copied between arrival and report.
    pub(crate) submission: Arc<Submission>,
}

impl Pending {
    /// The queue entry of an arrival (or of a requeue after a member
    /// failure): the serve loop builds this once per submission and
    /// hand the same value to routing and to the home queue. `seen` is
    /// the serve call's table — a fresh one is as correct, only slower.
    pub(crate) fn new(submission: Arc<Submission>, seen: &mut ArrivalFacts) -> Pending {
        let GraphFacts {
            total_work,
            max_task_req,
            fingerprint,
        } = seen.facts_of(&submission);
        Pending {
            id: submission.id,
            arrival: submission.arrival,
            total_work,
            max_task_req,
            fingerprint,
            requeues: 0,
            submission,
        }
    }
}

/// What a [`Pending`] keeps of its graph.
#[derive(Clone, Copy, Debug)]
struct GraphFacts {
    total_work: f64,
    max_task_req: f64,
    fingerprint: u64,
}

/// The graphs one serve call has been handed so far, each with the
/// facts derived from it — so a recipe submitted a thousand times is
/// walked once and *recognised* 999 times.
///
/// A graph is recognised by its address: clones of one
/// [`dhp_wfgen::WorkflowInstance`] share its `Arc<Dag>`, and every
/// repeat the serve loop sees (a clone of a catalogue entry, a
/// requeued submission) is such a clone. Each entry keeps its graph's
/// `Arc`, so no other graph can take that address while the table
/// lives, and a hit returns exactly what deriving would. Any graph not
/// in the table — a separately built copy included — is a first sight
/// and is walked. A repeat costs one lookup and allocates nothing;
/// only a first sight adds an entry.
///
/// The table is a local of the serve loop: it is never shared between
/// calls, has no capacity and no counters, and dies with the call. It
/// holds one `Arc` per distinct graph, which the call's placements hold
/// until the report anyway. The map folds its keys ([`FoldState`])
/// rather than running SipHash over them, and keys a graph by its
/// address shifted past the allocator's 16-byte alignment
/// ([`ArrivalFacts::key`]); a test holds their spread to SipHash's.
#[derive(Debug)]
pub(crate) struct ArrivalFacts {
    /// Every graph seen, by [`ArrivalFacts::key`], with the facts
    /// derived from it.
    by_address: HashMap<usize, (Arc<Dag>, GraphFacts), FoldState>,
}

impl ArrivalFacts {
    pub(crate) fn new() -> ArrivalFacts {
        ArrivalFacts {
            by_address: HashMap::default(),
        }
    }

    /// A graph's address without its low four bits. The fold's low
    /// output bits depend only on its low input bits and a map picks
    /// buckets by them, so those bits must vary from graph to graph; an
    /// address's low four are alignment zeros. Two live graphs are more
    /// at least 16 bytes apart, so the key still tells them apart.
    fn key(g: &Arc<Dag>) -> usize {
        const { assert!(std::mem::size_of::<Dag>() >= 16) };
        Arc::as_ptr(g).addr() >> 4
    }

    fn facts_of(&mut self, submission: &Submission) -> GraphFacts {
        let g = &submission.instance.graph;
        let (_, facts) = self
            .by_address
            .entry(ArrivalFacts::key(g))
            .or_insert_with(|| {
                // First sight: a sum over the tasks, a max over every
                // task's in- and out-edges, and the fingerprint's
                // topological sort, position table and edge sort.
                let facts = GraphFacts {
                    total_work: g.total_work(),
                    max_task_req: max_task_requirement(g),
                    fingerprint: g.fingerprint(),
                };
                (Arc::clone(g), facts)
            });
        *facts
    }

    /// How many distinct graphs the table holds.
    #[cfg(test)]
    pub(crate) fn distinct(&self) -> usize {
        self.by_address.len()
    }

    /// The keys of the graphs the table holds.
    #[cfg(test)]
    pub(crate) fn keys(&self) -> impl Iterator<Item = usize> + '_ {
        self.by_address.keys().copied()
    }
}

/// One granted lease with its full schedule — returned for validation
/// and replay alongside the serialisable report.
#[derive(Clone, Debug)]
pub struct Placement {
    /// The served submission (graph included). Shared with the engine's
    /// queue entry for it — the `Arc` the serve loop wrapped the
    /// arrival in — so cloning a placement copies no graph.
    pub submission: Arc<Submission>,
    /// The *as-admitted* mapping in parent-cluster processor ids (a
    /// complete, valid mapping of the whole graph). When `regrow` is
    /// set, the suffix tasks actually executed per `regrow.mapping`
    /// instead.
    pub mapping: Mapping,
    /// Leased processors (parent ids, grant order). After an elastic
    /// resize this is the resized lease: processors a growth added
    /// joined at the growth instant, not at `start`, and processors a
    /// shrink released left at the shrink instant.
    pub lease: Vec<ProcId>,
    /// Lease grant instant.
    pub start: f64,
    /// Completion instant.
    pub finish: f64,
    /// The elastic re-solves of this workflow's suffixes, grown or
    /// shrunk, in resize order (empty for statically leased workflows). A task's executed
    /// schedule is given by the *last* entry whose `suffix` contains it
    /// (earlier entries were superseded before those tasks started), or
    /// by the as-admitted `mapping` if no entry does.
    pub regrow: Vec<Regrow>,
}

/// The re-solved suffix phase of an elastically resized (grown or
/// shrunk) lease.
#[derive(Clone, Debug)]
pub struct Regrow {
    /// Instant the suffix schedule begins: the committed prefix has
    /// drained by then, and it is never earlier than the resize event.
    pub at: f64,
    /// Original node ids of the re-scheduled suffix, ascending
    /// (index-aligned with `suffix_dag`'s dense local ids).
    pub suffix: Vec<dhp_dag::NodeId>,
    /// The induced suffix DAG.
    pub suffix_dag: dhp_dag::Dag,
    /// The suffix mapping in parent processor ids — a complete, valid
    /// mapping of `suffix_dag`.
    pub mapping: Mapping,
}

/// Bookkeeping of one workflow currently holding a lease, in a slot of
/// [`ClusterState::in_service`]. Slots are reused, so a slot's index
/// says nothing about when its workflow was granted; `granted` does.
pub(crate) struct InService {
    pub(crate) record: WorkflowRecord,
    pub(crate) placement: Placement,
    pub(crate) fingerprint: u64,
    /// Grant ordinal: the sequence number of the completion event the
    /// grant pushed. Events are numbered in push order, so this orders
    /// the table's workflows by grant ([`ClusterState::fail_in_service`]
    /// returns them in that order). Unlike `live_seq`, a resize leaves
    /// it alone.
    pub(crate) granted: u64,
    /// Sequence number of this workflow's *live* completion event.
    /// An elastic resize re-schedules the completion by pushing a fresh
    /// event and bumping this; heap entries whose seq no longer matches
    /// are stale and skipped on pop.
    pub(crate) live_seq: u64,
    /// Absolute per-task start instants under the current schedule (the
    /// committed/suffix split point of an elastic resize).
    pub(crate) task_start: Vec<f64>,
    /// Absolute per-task finish instants under the current schedule.
    pub(crate) task_finish: Vec<f64>,
    /// Global processor of every task under the current schedule.
    pub(crate) task_proc: Vec<ProcId>,
    /// Per-processor busy time already credited to the fleet for this
    /// workflow (subtracted exactly on an elastic resize).
    pub(crate) busy: Vec<(ProcId, f64)>,
}

/// The free processors a lease probe carves from, in canonical
/// memory-descending order, with the lease shapes of the list memoized
/// by lease size.
///
/// A lease is a prefix of the list, and its shape
/// ([`Cluster::shape_of_slice`], the cache key's lease half) is a pure
/// function of that ordered prefix on a given cluster. So while the
/// list stays what it was — between two events most probes see the same
/// free set — every size's shape is hashed once and then read back.
/// [`FreeList::refill`] filters the free set afresh and drops the
/// memo only when the list changed. One `FreeList` serves one cluster:
/// it is part of a [`ClusterState`]'s [`ProbeScratch`], and the debug
/// build checks every shape it reads back against a fresh hash (test
/// builds tally the checks, `shape_tally`).
#[derive(Default)]
pub(crate) struct FreeList {
    /// The current list.
    list: Vec<ProcId>,
    /// Where `refill` filters into before comparing; swapped with
    /// `list` when the two differ.
    fresh: Vec<ProcId>,
    /// `(size, shape of list[..size])` for each size asked since the
    /// list last changed.
    shapes: Vec<(usize, u64)>,
}

impl FreeList {
    /// Fills the list with the processors of `mem_order` that `free`
    /// marks free, keeping the memoized shapes if the list is the one
    /// they were hashed on.
    pub(crate) fn refill(&mut self, mem_order: &[ProcId], free: &[bool]) {
        self.fresh.clear();
        self.fresh
            .extend(mem_order.iter().copied().filter(|p| free[p.idx()]));
        if self.fresh != self.list {
            std::mem::swap(&mut self.fresh, &mut self.list);
            self.shapes.clear();
        }
    }

    /// The free processors, in memory-descending order.
    pub(crate) fn procs(&self) -> &[ProcId] {
        &self.list
    }

    /// The shape of the lease `procs()[..size]` on `cluster`, the
    /// cluster whose free set the list was filled from.
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

/// Reusable buffers for the admission hot path, owned by the
/// [`ClusterState`] so steady-state probes allocate nothing: every
/// placement probe needs the free set filtered into memory order, and
/// every reservation replay needs a hypothetical free set plus the
/// live pending completions in time order. The buffers are cleared and
/// refilled per use — after the first few events they have grown to
/// the cluster's working-set size and stay there (pinned by the
/// allocation-counting tests in `hotpath_tests.rs`).
#[derive(Default)]
pub(crate) struct ProbeScratch {
    /// Free processors in canonical memory-descending order, with their
    /// lease shapes — the lease-carve prefix source of `find_placement`
    /// / `can_place`.
    pub(crate) free_sorted: FreeList,
    /// Hypothetical free set for the reservation replays
    /// (`head_reservation` / `head_fits_at`).
    pub(crate) hyp: Vec<bool>,
    /// Live pending completions `(time, seq, slot)`, sorted for the
    /// reservation replay.
    pub(crate) pending: Vec<(f64, u64, usize)>,
    /// Candidate order of the current admission pass
    /// ([`crate::policy::AdmissionPolicy::candidate_order_into`]);
    /// taken out of the scratch for the pass and restored cleared.
    pub(crate) order: Vec<usize>,
    /// Queue indices admitted or rejected in the current pass.
    pub(crate) taken: Vec<usize>,
    /// EASY's aggressive-phase deferral list for the current pass.
    pub(crate) deferred: Vec<usize>,
}

/// Everything one shared cluster's event loop owns and mutates: the
/// cluster itself (plus its canonical memory-descending carve order),
/// the free set, the admission queue, the completion-event heap, the
/// in-service table, and the accumulating per-run results.
///
/// The in-service table grows with how many workflows run at once, not
/// with how many were ever granted: a grant takes the first empty slot
/// and appends only when there is none, and a completion or failure
/// empties its slot. Leases are non-empty and disjoint, so the table
/// never holds more than `cluster.len()` slots, and finding a free one
/// is a scan of at most that many. Nothing reads slot order: completion
/// events and replays order by `(time, seq)`, the resize ranking breaks
/// ties on record id, and a failure returns its workflows in grant order
/// ([`InService::granted`]).
pub(crate) struct ClusterState {
    /// The shared cluster this state serves. Never changes after
    /// construction — `max_memory` and `total_speed` below rely on it.
    pub(crate) cluster: Cluster,
    /// [`Cluster::max_memory`] of `cluster`: the ceiling of the arrival
    /// and routing memory screens, read per member per arrival.
    pub(crate) max_memory: f64,
    /// [`Cluster::total_speed`] of `cluster`: the divisor of the
    /// `least-loaded` routing signal.
    pub(crate) total_speed: f64,
    /// Free processors, scanned in the heuristics' canonical
    /// memory-descending order so every lease grabs the biggest free
    /// memories first (feasibility is monotone in that choice).
    pub(crate) mem_order: Vec<ProcId>,
    pub(crate) free: Vec<bool>,
    pub(crate) free_count: usize,
    /// The admission queue, maintained in `(arrival, id)` order.
    pub(crate) queue: Vec<Pending>,
    /// Tombstones parallel to `queue`. An admission pass marks taken
    /// entries dead and defers the storage sweep until half the entries
    /// are tombstones ([`compact_queue`]), so each queue entry is moved
    /// O(1) times over its lifetime instead of once per later
    /// admission. Admission takes mostly from the front, so the dead
    /// slots pile up there; `live_from` marks where they end.
    ///
    /// [`compact_queue`]: ClusterState::compact_queue
    pub(crate) dead: Vec<bool>,
    /// How many `queue` entries are tombstoned.
    pub(crate) dead_count: usize,
    /// The first live storage slot, or `queue.len()` when none is live:
    /// every slot before it is a tombstone. Read through
    /// [`ClusterState::first_live`]; every storage mutation below keeps
    /// it exact.
    live_from: usize,
    /// The backfill window's jump table over `queue` (see
    /// [`WorkIndex`]). Every storage mutation goes through a method of
    /// this type so the index cannot miss one; the admission pass
    /// asserts (debug builds) that it covers exactly `queue.len()`
    /// slots.
    pub(crate) work_index: WorkIndex,
    pub(crate) events: EventQueue,
    /// The workflows holding a lease, one per slot; `None` is a free
    /// slot, which the next grant takes before the table grows. At most
    /// `cluster.len()` slots (see the type docs).
    pub(crate) in_service: Vec<Option<InService>>,
    pub(crate) finished: Vec<WorkflowRecord>,
    /// Fingerprint of `finished[i]`'s workflow — the deferred baseline
    /// batch deduplicates on these.
    pub(crate) finished_fp: Vec<u64>,
    pub(crate) placements: Vec<Placement>,
    pub(crate) rejected: Vec<RejectedRecord>,
    pub(crate) busy_time: Vec<f64>,
    pub(crate) reservations: Vec<crate::admission::ReservationRecord>,
    pub(crate) lease_grown: u64,
    /// Elastic shrink events committed on this cluster
    /// (`--elastic-shrink`).
    pub(crate) lease_shrunk: u64,
    /// Workflows lost to a member failure under `--failure-mode lost`
    /// (always empty outside federation chaos runs).
    pub(crate) lost: Vec<LostRecord>,
    /// Completions arm elastic growth, but the growth decision waits
    /// until every same-instant arrival has been queued and offered the
    /// freed processors (completions are processed first at equal
    /// instants, so the flag may carry into the arrival iteration of
    /// the same clock).
    pub(crate) growth_pending: bool,
    /// Federation member index stamped into every record (`None` for
    /// the single-cluster engine, keeping its reports byte-identical
    /// to the pre-federation schema).
    pub(crate) cluster_id: Option<usize>,
    /// Mutation epoch of everything a head-reservation replay reads —
    /// the free set, the completion heap, and the in-service table.
    /// Bumped by every admit, completion pop, failure teardown, and
    /// elastic grow/shrink commit; the validity half of the cached
    /// reservation's token.
    pub(crate) epoch: u64,
    /// The memoized head reservation: `(epoch, head id, reservation)`.
    /// Consulted (and refilled) by
    /// [`crate::admission::head_reservation`]; a token whose
    /// epoch or head no longer matches forces a fresh replay.
    pub(crate) resv_cache: Option<(u64, usize, f64)>,
    /// Reusable probe buffers (see [`ProbeScratch`]).
    pub(crate) scratch: ProbeScratch,
}

impl ClusterState {
    pub(crate) fn new(cluster: &Cluster, cluster_id: Option<usize>) -> Self {
        assert!(
            !cluster.is_empty(),
            "serve needs at least one processor (an empty cluster can admit nothing)"
        );
        ClusterState {
            max_memory: cluster.max_memory(),
            total_speed: cluster.total_speed(),
            mem_order: cluster.ids_by_memory_desc(),
            free: vec![true; cluster.len()],
            free_count: cluster.len(),
            queue: Vec::new(),
            dead: Vec::new(),
            dead_count: 0,
            live_from: 0,
            work_index: WorkIndex::default(),
            events: EventQueue::new(),
            in_service: Vec::new(),
            finished: Vec::new(),
            finished_fp: Vec::new(),
            placements: Vec::new(),
            rejected: Vec::new(),
            busy_time: vec![0.0f64; cluster.len()],
            reservations: Vec::new(),
            lease_grown: 0,
            lease_shrunk: 0,
            lost: Vec::new(),
            growth_pending: false,
            cluster_id,
            epoch: 0,
            resv_cache: None,
            scratch: ProbeScratch::default(),
            cluster: cluster.clone(),
        }
    }

    /// Sizes the completed-workflow outputs (`finished`, `finished_fp`,
    /// `placements`) for `records` entries at once. The single-cluster
    /// engine completes, rejects or loses every submission it is handed,
    /// so it reserves the trace length and those vectors never regrow;
    /// a federation member's share is not known in advance, and its
    /// vectors double as they fill.
    pub(crate) fn reserve_outputs(&mut self, records: usize) {
        self.finished.reserve_exact(records);
        self.finished_fp.reserve_exact(records);
        self.placements.reserve_exact(records);
    }

    /// Invalidates the cached head reservation: any mutation of the
    /// free set, the completion heap, or the in-service table changes
    /// what a reservation replay would see, so the token's epoch half
    /// moves on.
    pub(crate) fn bump_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
    }

    /// Instant of the earliest pending completion event (stale entries
    /// included — they are skipped on pop, and a stale entry's instant
    /// never precedes the live one for the same slot, so waking up for
    /// one is harmless: the pop loop drops it and the admission pass
    /// runs on unchanged state).
    pub(crate) fn next_completion_time(&self) -> Option<f64> {
        self.events.peek_time()
    }

    /// Pops every completion event due at or before `clock`: frees the
    /// lease, records the finished workflow, and arms elastic growth.
    /// Stale entries (superseded by an elastic resize) are dropped.
    pub(crate) fn process_due_completions(&mut self, clock: f64) {
        while let Some(c) = self.events.peek() {
            if c.time > clock {
                break;
            }
            let Some(c) = self.events.pop() else {
                unreachable!("peek above just returned this entry");
            };
            // An elastic resize re-schedules completions: a heap entry
            // whose seq no longer matches its slot's live event is
            // stale — drop it.
            let live = self.in_service[c.slot]
                .as_ref()
                .is_some_and(|s| s.live_seq == c.seq);
            if !live {
                continue;
            }
            let done = self.in_service[c.slot]
                .take()
                .unwrap_or_else(|| unreachable!("a live completion holds its slot"));
            for &p in &done.placement.lease {
                debug_assert!(!self.free[p.idx()]);
                self.free[p.idx()] = true;
            }
            self.free_count += done.placement.lease.len();
            self.finished.push(done.record);
            self.finished_fp.push(done.fingerprint);
            self.placements.push(done.placement);
            self.growth_pending = true;
            self.bump_epoch();
        }
    }

    /// Screens an arriving workflow against the cluster-wide memory
    /// ceiling and either queues it or records the rejection.
    pub(crate) fn enqueue_arrival(&mut self, p: Pending, clock: f64) {
        let req = p.max_task_req;
        if req > self.max_memory * (1.0 + 1e-9) {
            let reason = format!(
                "task requirement {req:.2} exceeds the largest processor \
                 memory {:.2}",
                self.max_memory
            );
            self.rejected
                .push(RejectedRecord::of(&p, clock, reason, self.cluster_id));
            return;
        }
        // A push never moves `live_from`: on an all-dead storage it
        // already points at the slot the entry takes.
        self.work_index.push(WorkIndex::key(&p));
        self.queue.push(p);
        self.dead.push(false);
    }

    /// Inserts an already-screened pending workflow at its `(arrival,
    /// id)` position — cross-cluster spillover migrates queue entries
    /// with this, preserving the arrival-order invariant the FIFO
    /// policies rely on.
    pub(crate) fn insert_pending(&mut self, p: Pending) {
        // Tombstoned entries kept their `(arrival, id)` keys, so the
        // storage stays sorted with them in place and the search is
        // oblivious to them.
        let pos = self
            .queue
            .partition_point(|q| (q.arrival, q.id) < (p.arrival, p.id));
        self.queue.insert(pos, p);
        self.dead.insert(pos, false);
        self.live_from = self.live_from.min(pos);
        self.work_index.reset(self.queue.len());
    }

    /// Splices the live entry at storage slot `qi` out of the queue —
    /// cross-cluster spillover moves it to another member with
    /// [`ClusterState::insert_pending`].
    pub(crate) fn remove_queued(&mut self, qi: usize) -> Pending {
        debug_assert!(!self.dead[qi], "only a live entry can move");
        self.dead.remove(qi);
        let p = self.queue.remove(qi);
        if qi == self.live_from {
            self.skip_dead_prefix();
        }
        self.work_index.reset(self.queue.len());
        p
    }

    /// Tombstones the live entry at storage slot `qi` (admitted or
    /// rejected by an admission pass).
    pub(crate) fn kill(&mut self, qi: usize) {
        debug_assert!(!self.dead[qi], "an entry is taken once");
        self.dead[qi] = true;
        self.dead_count += 1;
        if qi == self.live_from {
            self.skip_dead_prefix();
        }
        self.work_index.kill(qi);
    }

    /// Advances `live_from` past the tombstones it points at. A slot
    /// stays dead until the next compaction, so each tombstone is
    /// stepped over once, not once per pass (again only if a spillover
    /// insert lands in front of it).
    fn skip_dead_prefix(&mut self) {
        while self.live_from < self.dead.len() && self.dead[self.live_from] {
            self.live_from += 1;
        }
    }

    /// The first live storage slot, or `queue.len()` when nothing is
    /// queued: the one head lookup of the engine. The backfill scan
    /// starts here, FIFO's candidate order is this slot alone, the
    /// elastic grow and shrink guards protect the entry here, and
    /// [`ClusterState::queued_work`] sums from here. O(1).
    pub(crate) fn first_live(&self) -> usize {
        self.live_from
    }

    /// The first storage slot at or after `from` whose `total_work`
    /// passes the monotone screen `pass` (tombstones never pass one
    /// that anything fails), or `queue.len()`; see [`WorkIndex`].
    pub(crate) fn next_passing(&mut self, from: usize, pass: impl Fn(f64) -> bool) -> usize {
        self.work_index
            .next_from(from, &self.queue, &self.dead, pass)
    }

    /// How many workflows are actually queued (tombstones excluded).
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len() - self.dead_count
    }

    /// Whether no workflow is queued (tombstones excluded).
    pub(crate) fn queue_is_empty(&self) -> bool {
        self.queue_len() == 0
    }

    /// Sweeps the tombstones out of the queue storage. Called when
    /// half the storage is dead (so each entry moves O(1) times over
    /// its lifetime) and before handing the queue to consumers that
    /// iterate it raw. Afterwards no slot is dead, so `live_from` is 0.
    pub(crate) fn compact_queue(&mut self) {
        if self.dead_count == 0 {
            debug_assert_eq!(self.live_from, 0, "no tombstone, no dead prefix");
            return;
        }
        let dead = std::mem::take(&mut self.dead);
        let mut i = 0;
        self.queue.retain(|_| {
            let keep = !dead[i];
            i += 1;
            keep
        });
        self.dead = dead;
        self.dead.clear();
        self.dead.resize(self.queue.len(), false);
        self.dead_count = 0;
        self.live_from = 0;
        self.work_index.reset(self.queue.len());
    }

    /// Total outstanding work queued on this cluster — the `least-loaded`
    /// routing signal. The dead prefix adds nothing, so starting at the
    /// first live slot makes the same additions in the same order.
    pub(crate) fn queued_work(&self) -> f64 {
        let from = self.first_live();
        self.queue[from..]
            .iter()
            .zip(&self.dead[from..])
            .filter(|(_, &d)| !d)
            .map(|(p, _)| p.total_work)
            .sum()
    }

    /// Memory of the largest free processor (`−∞` when none is free).
    /// `mem_order` comes from [`Cluster::ids_by_memory_desc`], so the
    /// first free processor in it holds the maximum — the memory every
    /// lease probe screens the hottest task against.
    pub(crate) fn top_free_memory(&self) -> f64 {
        self.mem_order
            .iter()
            .find(|p| self.free[p.idx()])
            .map_or(f64::NEG_INFINITY, |&p| self.cluster.memory(p))
    }

    /// Aggregate speed of the currently free processors — the
    /// `best-fit` routing signal (larger = more immediate capacity).
    pub(crate) fn free_speed(&self) -> f64 {
        self.cluster
            .proc_ids()
            .filter(|p| self.free[p.idx()])
            .map(|p| self.cluster.speed(p))
            .sum()
    }

    /// Removes and returns every queued workflow — `Drain` and `Fail`
    /// membership events migrate these onto surviving members via
    /// [`ClusterState::insert_pending`].
    pub(crate) fn take_queue(&mut self) -> Vec<Pending> {
        self.compact_queue();
        self.dead.clear();
        self.work_index.reset(0);
        std::mem::take(&mut self.queue)
    }

    /// Tears down every in-service workflow at a member failure: voids
    /// their leases and completion events, and un-credits the busy
    /// time already charged for them (utilisation counts *completed*
    /// work only — work a failure threw away was not useful capacity).
    /// Returns the torn-down services in grant order (slots are reused,
    /// so slot order is not grant order) for the federation to requeue
    /// or record lost per the failure mode.
    pub(crate) fn fail_in_service(&mut self) -> Vec<InService> {
        let mut torn = Vec::new();
        for slot in self.in_service.iter_mut() {
            if let Some(svc) = slot.take() {
                for &p in &svc.placement.lease {
                    debug_assert!(!self.free[p.idx()]);
                    self.free[p.idx()] = true;
                }
                self.free_count += svc.placement.lease.len();
                for &(p, t) in &svc.busy {
                    self.busy_time[p.idx()] -= t;
                }
                torn.push(svc);
            }
        }
        torn.sort_unstable_by_key(|svc| svc.granted);
        // Every pending completion event belonged to a torn-down
        // workflow; a fresh heap also resets the staleness sequence
        // (and with it the grant ordinals), which is safe because no
        // slot survives to compare against.
        self.events = EventQueue::new();
        self.bump_epoch();
        torn
    }
}
