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
use crate::free_set::FreeSet;
use crate::queue::Queue;
use crate::report::{LostRecord, RejectedRecord, WorkflowRecord};
use crate::submission::Submission;
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

/// Reusable buffers for the admission hot path, owned by the
/// [`ClusterState`] so steady-state passes allocate nothing: every
/// reservation replay needs the live pending completions in time order,
/// and every pass its candidate order and decisions. The buffers are
/// cleared and refilled per use — after the first few events they have
/// grown to the cluster's working-set size and stay there (pinned by the
/// allocation-counting tests in `hotpath_tests.rs`).
#[derive(Default)]
pub(crate) struct ProbeScratch {
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
/// cluster itself, its free set, the admission queue, the completion-event heap, the
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
    /// The free processors (see [`FreeSet`]).
    pub(crate) free: FreeSet,
    /// The admission queue (see [`Queue`]).
    pub(crate) queue: Queue,
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
            free: FreeSet::new(cluster),
            queue: Queue::default(),
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
            self.free.give_back(&done.placement.lease);
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
        self.queue.push(p);
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
                self.free.give_back(&svc.placement.lease);
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
