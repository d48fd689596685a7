//! Allocation pins of the DagHetPart attempt: what a warm thread's
//! attempt and solve take from the heap.
//!
//! The counting [`GlobalAlloc`] wrapper is installed for this test
//! binary. Its counter is **per thread** (const-initialised TLS, so the
//! bookkeeping itself never allocates), which keeps the counts exact
//! while the harness runs other tests on sibling threads.

use crate::daghetpart::{dag_het_part, DagHetPartConfig};
use dhp_platform::configs;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static LOCAL_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: defers every operation to `System`; the counter update is
// TLS-teardown-safe via `try_with` and allocation-free (const-init
// `Cell`).
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        let _ = LOCAL_ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(l) }
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        let _ = LOCAL_ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(p, l, new_size) }
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

/// Cloning a simulated [`dhp_wfgen::WorkflowInstance`] takes the same
/// number of heap blocks at 48 tasks as at 4 000, for every family: the
/// name, and the graph's weight, edge, adjacency and label arrays, each
/// copied compacted into one block. With a `Vec` of out-edges, a `Vec`
/// of in-edges and a label `String` per task, the same clones took
/// about three blocks a task.
#[test]
fn cloning_a_workflow_takes_a_fixed_number_of_blocks() {
    for family in dhp_wfgen::Family::ALL {
        let blocks = [48, 4_000].map(|tasks| {
            let inst = dhp_wfgen::WorkflowInstance::simulated(family, tasks, 17);
            let (copy, blocks) = allocations_in(|| inst.clone());
            assert!(copy.graph.content_eq(&inst.graph));
            blocks
        });
        assert_eq!(blocks, [9, 9], "{family:?}");
    }
}
