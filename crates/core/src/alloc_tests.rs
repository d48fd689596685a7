//! Allocation pins of the DagHetPart attempt, and byte pins of the
//! graphs and hierarchies a solve keeps: what a warm thread's attempt
//! and solve take from the heap, and how many bytes a loaded workflow
//! and Step 1's coarsening hierarchy hold.
//!
//! The counting [`GlobalAlloc`] wrapper is installed for this test
//! binary. Its counters are **per thread** (const-initialised TLS, so the
//! bookkeeping itself never allocates), which keeps the counts exact
//! while the harness runs other tests on sibling threads: heap blocks
//! allocated, and live bytes (each block's requested size; `realloc`
//! adds the difference).

use crate::daghetpart::{dag_het_part, DagHetPartConfig};
use dhp_dag::Dag;
use dhp_platform::configs;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static LOCAL_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LOCAL_BYTES: Cell<i64> = const { Cell::new(0) };
}

struct CountingAlloc;

/// Adds `delta` to this thread's live bytes.
fn count_bytes(delta: i64) {
    let _ = LOCAL_BYTES.try_with(|c| c.set(c.get() + delta));
}

// SAFETY: defers every operation to `System`; the counter updates are
// TLS-teardown-safe via `try_with` and allocation-free (const-init
// `Cell`).
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        let _ = LOCAL_ALLOCS.try_with(|c| c.set(c.get() + 1));
        let p = unsafe { System.alloc(l) };
        if !p.is_null() {
            count_bytes(l.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        count_bytes(-(l.size() as i64));
        unsafe { System.dealloc(p, l) }
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        let _ = LOCAL_ALLOCS.try_with(|c| c.set(c.get() + 1));
        let moved = unsafe { System.realloc(p, l, new_size) };
        if !moved.is_null() {
            count_bytes(new_size as i64 - l.size() as i64);
        }
        moved
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// What `f` returns, and the heap allocations it made on this thread.
pub(crate) fn allocations_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = LOCAL_ALLOCS.with(|c| c.get());
    let r = f();
    (r, LOCAL_ALLOCS.with(|c| c.get()) - before)
}

/// What `f` returns, and the bytes it left live on this thread: for a
/// function that frees all its scratch, the heap its result holds.
fn bytes_held_by<R>(f: impl FnOnce() -> R) -> (R, i64) {
    let before = LOCAL_BYTES.with(|c| c.get());
    let r = f();
    (r, LOCAL_BYTES.with(|c| c.get()) - before)
}

/// A sequential `dag_het_part` of a 48-task workflow on a thread that
/// has just solved it once allocates at most what this records (`k'`
/// from 1 to 36 on the fitted default cluster). What is left is the
/// solve's own: its memo's two tables and the list of the bisections
/// it stores, the flat view Step 1 partitions on, and the mapping of
/// every attempt that completes. Before the attempts took their
/// buffers from the thread's workspace, the same solves made 8 405,
/// 7 396 and 8 063.
#[test]
fn a_warm_sequential_solve_stays_under_its_recorded_allocations() {
    let cfg = DagHetPartConfig {
        parallel: false,
        ..DagHetPartConfig::default()
    };
    for (family, bound) in [
        (dhp_wfgen::Family::Genome, 108),
        (dhp_wfgen::Family::Blast, 106),
        (dhp_wfgen::Family::Montage, 49),
    ] {
        let g = dhp_wfgen::WorkflowInstance::simulated(family, 48, 17).graph;
        let cluster =
            crate::fitting::scale_cluster_with_headroom(&g, &configs::default_cluster(), 1.05);
        let warm_up = dag_het_part(&g, &cluster, &cfg).unwrap();
        let (solved, allocations) = allocations_in(|| dag_het_part(&g, &cluster, &cfg).unwrap());
        assert_eq!(solved.makespan.to_bits(), warm_up.makespan.to_bits());
        assert!(allocations <= bound, "{family:?}: {allocations} > {bound}");
    }
}

/// Cloning a simulated [`dhp_wfgen::WorkflowInstance`] takes one heap
/// block at 48 tasks and at 4 000, for every family: the name. The graph
/// is shared, so the clone only bumps its reference count. Copying the
/// graph itself (what a copy on write pays) takes the same 8 blocks at
/// either size: the weight, edge, adjacency and label arrays, each
/// copied compacted into one block. With a `Vec` of out-edges, a `Vec`
/// of in-edges and a label `String` per task, a graph copy took about
/// three blocks a task.
#[test]
fn cloning_a_workflow_takes_a_fixed_number_of_blocks() {
    for family in dhp_wfgen::Family::ALL {
        let blocks = [48, 4_000].map(|tasks| {
            let inst = dhp_wfgen::WorkflowInstance::simulated(family, tasks, 17);
            let (copy, blocks) = allocations_in(|| inst.clone());
            assert!(std::sync::Arc::ptr_eq(&copy.graph, &inst.graph));
            let (graph, graph_blocks) = allocations_in(|| dhp_dag::Dag::clone(&inst.graph));
            assert!(graph.content_eq(&inst.graph));
            [blocks, graph_blocks]
        });
        assert_eq!(blocks, [[1, 8], [1, 8]], "{family:?}");
    }
}

/// Every loader hands out a compact graph: a generated workflow of
/// every family at 48 and 4,000 tasks, a DOT and a WfCommons round trip
/// of it, and each real-world-like workflow hold exactly the bytes of
/// their own [`Dag::clone`] (which writes each array at its length and
/// moves no span). Built edge by edge and left as built, a graph holds
/// its arrays' doubling slack and the old slots of every span that
/// moved: 1.92 MiB for a 10,000-task blast workflow against its clone's
/// 1.04 MiB.
#[test]
fn a_loaded_workflow_holds_the_bytes_of_its_clone() {
    use dhp_wfgen::wfcommons;
    use std::sync::Arc;
    let held_like_its_clone = |what: &str, (g, held): (Dag, i64)| {
        let (copy, copied) = bytes_held_by(|| g.clone());
        assert!(copy.content_eq(&g), "{what}");
        assert_eq!(held, copied, "{what}: holds {held} B, its clone {copied} B");
    };
    for family in dhp_wfgen::Family::ALL {
        for tasks in [48, 4_000] {
            let what = format!("{family:?}-{tasks}");
            let inst = dhp_wfgen::WorkflowInstance::simulated(family, tasks, 17);
            let dot = dhp_dag::dot::to_dot(&inst.graph, &what);
            let doc = wfcommons::to_instance(&inst, wfcommons::GIB);
            let model = dhp_wfgen::WeightModel::paper();
            let generated = bytes_held_by(|| family.generate(tasks, &model, 17));
            held_like_its_clone(&format!("{what} generated"), generated);
            let from_dot = bytes_held_by(|| dhp_dag::dot::from_dot(&dot).unwrap());
            held_like_its_clone(&format!("{what} from DOT"), from_dot);
            let from_json = bytes_held_by(|| {
                let cfg = wfcommons::ImportConfig::default();
                Arc::unwrap_or_clone(wfcommons::from_instance(&doc, &cfg).unwrap().graph)
            });
            held_like_its_clone(&format!("{what} from WfCommons"), from_json);
        }
    }
    let names: Vec<String> = dhp_wfgen::realworld::suite(17)
        .into_iter()
        .map(|inst| inst.name)
        .collect();
    for (i, name) in names.iter().enumerate() {
        let real = bytes_held_by(|| {
            let inst = dhp_wfgen::realworld::suite(17).swap_remove(i);
            Arc::unwrap_or_clone(inst.graph)
        });
        held_like_its_clone(name, real);
    }
}

/// Step 1's hierarchy (`coarsen_for` for two parts, as a sweep from
/// `k' = 2` builds it) of a 10,000-task blast and genome workflow holds
/// at most what this records: each level's view, balance weights and
/// coarse map. With an unlabelled copy of the input and every level's
/// `Dag` beside its view, the same hierarchies held 4,361,104 and
/// 4,271,296 bytes.
#[test]
fn a_coarsening_hierarchy_holds_views_not_graphs() {
    let cfg = dhp_dagp::PartitionConfig::default();
    for (family, bound) in [
        (dhp_wfgen::Family::Blast, 2_121_032),
        (dhp_wfgen::Family::Genome, 2_116_328),
    ] {
        let g = family.generate(10_000, &dhp_wfgen::WeightModel::paper(), 17);
        let (hierarchy, held) = bytes_held_by(|| dhp_dagp::coarsen_for(&g, 2, &cfg));
        assert!(hierarchy.depth() >= 2, "{family:?}");
        assert!(held <= bound, "{family:?}: {held} B > {bound} B");
    }
}

/// The fitted default cluster of `tasks` tasks of `family` (seed 17),
/// as the offline benchmark fits it.
fn fitted(family: dhp_wfgen::Family, tasks: usize) -> (Dag, dhp_platform::Cluster) {
    let g = std::sync::Arc::unwrap_or_clone(
        dhp_wfgen::WorkflowInstance::simulated(family, tasks, 17).graph,
    );
    let cluster =
        crate::fitting::scale_cluster_with_headroom(&g, &configs::default_cluster(), 1.05);
    (g, cluster)
}

/// A whole-workflow traversal answers on a workspace of its own and
/// drops it: after a warm-up of block questions (one DagHetPart attempt
/// at `k' = 36`), `dag_het_mem` on 10,000 blast tasks leaves on its
/// thread exactly the bytes of the mapping it returns, and `min_peak`
/// none at all. When both answered on the thread's own workspace, they
/// left its tables at whole-workflow size: `dag_het_mem` held
/// 3,348,180 B for a 40,008 B mapping, and `min_peak` 3,339,300 B. Each
/// runs on a thread of its own, so no earlier test's questions decide
/// what is warm.
#[test]
fn a_whole_workflow_traversal_leaves_nothing_on_its_thread() {
    let (g, cluster) = fitted(dhp_wfgen::Family::Blast, 10_000);
    std::thread::scope(|s| {
        s.spawn(|| {
            let cfg = DagHetPartConfig {
                parallel: false,
                kprime: crate::daghetpart::KprimeMode::Fixed(36),
                ..DagHetPartConfig::default()
            };
            dag_het_part(&g, &cluster, &cfg).unwrap();
            let (mapping, held) = bytes_held_by(|| crate::baseline::dag_het_mem(&g, &cluster));
            let mapping = mapping.unwrap();
            let (_, mapping_bytes) = bytes_held_by(|| mapping.clone());
            assert_eq!(held, mapping_bytes, "dag_het_mem holds {held} B");
        });
        s.spawn(|| {
            let (peak, held) = bytes_held_by(|| dhp_memdag::min_peak(&g));
            assert!(peak > 0.0);
            assert_eq!(held, 0, "min_peak holds {held} B");
        });
    });
}

/// The requirement memo of a sequential 10,000-task sweep (`k'` from 1
/// to 36 on the fitted default cluster) keys each member set by its
/// runs of consecutive ids, and its keys hold at most what this
/// records. Its keys are the sweep's distinct multi-task Step-1 blocks:
/// all 666 (`1 + … + 36`) for blast and seismology, 611 for genome,
/// whose sweep meets 55 block sets a second time; Step 2 bisects
/// nothing, so the bisections map stays empty. Keyed by their id lists,
/// the same keys held 360,000 ids (1,440,000 B) for blast and
/// seismology and 336,556 (1,346,224 B) for genome: each workflow's ids
/// about 36 times over. They are 9,251, 9,716 and 15,118 runs, two
/// words each, so the bounds are exact.
#[test]
fn the_memo_keys_of_a_large_sweep_hold_runs_not_ids() {
    let cfg = DagHetPartConfig {
        parallel: false,
        ..DagHetPartConfig::default()
    };
    for (family, distinct, bound) in [
        (dhp_wfgen::Family::Blast, 666, 74_008),
        (dhp_wfgen::Family::Seismology, 666, 77_728),
        (dhp_wfgen::Family::Genome, 611, 120_944),
    ] {
        let (g, cluster) = fitted(family, 10_000);
        let memo = crate::blockmem::ReqMemo::new(&g);
        crate::daghetpart::sweep(&g, &cluster, &cfg, &memo, false).unwrap();
        let [(keys, bytes), splits] = memo.run_keys();
        assert_eq!((keys, splits), (distinct, (0, 0)), "{family:?}");
        assert!(bytes <= bound, "{family:?}: {bytes} B > {bound} B");
    }
}
