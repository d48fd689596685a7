//! Mapping a genomics workflow (the paper's 1000Genome family) onto the
//! paper's default 36-node cluster, comparing DagHetPart against the
//! DagHetMem baseline — the workload class the paper's introduction
//! motivates.
//!
//! ```sh
//! cargo run --release --example genomics_pipeline [num_tasks]
//! ```

use dhp_core::fitting::scale_cluster_with_headroom;
use dhp_core::prelude::*;
use dhp_platform::configs;
use dhp_wfgen::{Family, WorkflowInstance};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000);

    let inst = WorkflowInstance::simulated(Family::Genome, n, 42);
    println!(
        "workflow {}: {} tasks, {} dependencies, total work {:.0}",
        inst.name,
        inst.graph.node_count(),
        inst.graph.edge_count(),
        inst.graph.total_work()
    );

    // The paper's default platform (Table 2), memory-normalised so the
    // most demanding task fits somewhere (§5.1.2).
    let cluster = scale_cluster_with_headroom(&inst.graph, &configs::default_cluster(), 1.05);
    println!(
        "cluster: {} processors, memories {:.0}..{:.0}, speeds 4..32",
        cluster.len(),
        cluster.min_memory(),
        cluster.max_memory()
    );

    #[expect(
        clippy::disallowed_methods,
        reason = "the example prints each heuristic's runtime"
    )]
    let t0 = std::time::Instant::now();
    let mem = dag_het_mem(&inst.graph, &cluster);
    let mem_time = t0.elapsed();
    let mem_ms = match &mem {
        Ok(m) => {
            let ms = makespan_of_mapping(&inst.graph, &cluster, m);
            println!(
                "DagHetMem : makespan {ms:>12.1}  ({} blocks, {:?})",
                m.num_blocks(),
                mem_time
            );
            Some(ms)
        }
        Err(e) => {
            println!("DagHetMem : {e} (the paper reports such failures too)");
            None
        }
    };

    let part =
        dag_het_part(&inst.graph, &cluster, &DagHetPartConfig::default()).expect("DagHetPart");
    validate(&inst.graph, &cluster, &part.mapping).expect("valid");
    println!(
        "DagHetPart: makespan {:>12.1}  ({} blocks on {} processors, k'={}, {:?})",
        part.makespan,
        part.mapping.num_blocks(),
        part.mapping.procs_used(),
        part.kprime,
        part.elapsed
    );
    if let Some(mem_ms) = mem_ms {
        println!(
            "improvement: {:.2}x (relative makespan {:.1} %)",
            mem_ms / part.makespan,
            100.0 * part.makespan / mem_ms
        );
    }

    // Where did the blocks land?
    let mut per_kind: std::collections::BTreeMap<&str, usize> = Default::default();
    for p in part.mapping.proc_of_block.iter().flatten() {
        *per_kind.entry(cluster.proc(*p).kind.as_str()).or_insert(0) += 1;
    }
    println!("machine kinds used: {per_kind:?}");
}
