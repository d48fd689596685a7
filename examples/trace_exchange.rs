//! Interchange with the WfCommons ecosystem.
//!
//! The paper's simulated instances come from the WfCommons WfGen
//! generator, which speaks a published JSON format. This example shows
//! the full exchange loop a practitioner would use:
//!
//! 1. generate a BLAST-family instance and export it as WfCommons JSON
//!    (consumable by WfCommons tooling),
//! 2. re-import the JSON as if it were a downloaded community instance,
//! 3. schedule it with both heuristics on the paper's default cluster,
//! 4. write the winning mapping as a JSON report next to the instance.
//!
//! Run with: `cargo run --release -p dhp-cli --example trace_exchange`

use dhp_cli::report::ScheduleReport;
use dhp_core::fitting::scale_cluster_with_headroom;
use dhp_core::makespan::makespan_of_mapping;
use dhp_core::prelude::*;
use dhp_platform::configs;
use dhp_wfgen::wfcommons::{self, ImportConfig};
use dhp_wfgen::{Family, WorkflowInstance};

fn main() {
    let dir = std::env::temp_dir().join("daghetpart-trace-exchange");
    std::fs::create_dir_all(&dir).expect("create temp dir");

    // 1. Generate and export.
    let inst = WorkflowInstance::simulated(Family::Blast, 1000, 42);
    let json = wfcommons::to_json(&inst, wfcommons::GIB).expect("serialise instance");
    let wf_path = dir.join("blast-1000.json");
    std::fs::write(&wf_path, &json).expect("write instance");
    println!(
        "exported {} ({} tasks, {} edges) -> {}",
        inst.name,
        inst.graph.node_count(),
        inst.graph.edge_count(),
        wf_path.display()
    );

    // 2. Re-import as a "community" instance.
    let imported = wfcommons::from_json(
        &std::fs::read_to_string(&wf_path).unwrap(),
        &ImportConfig::default(),
    )
    .expect("round-trip import");
    assert_eq!(imported.graph.node_count(), inst.graph.node_count());

    // 3. Schedule with both heuristics.
    let cluster = scale_cluster_with_headroom(&imported.graph, &configs::default_cluster(), 1.05);
    let part =
        dag_het_part(&imported.graph, &cluster, &DagHetPartConfig::default()).expect("DagHetPart");
    let mem_mapping = dag_het_mem(&imported.graph, &cluster).expect("DagHetMem");
    let mem_makespan = makespan_of_mapping(&imported.graph, &cluster, &mem_mapping);
    println!(
        "DagHetPart: makespan {:.1} on {} blocks | DagHetMem: {:.1} on {} blocks | ratio {:.2}x",
        part.makespan,
        part.mapping.num_blocks(),
        mem_makespan,
        mem_mapping.num_blocks(),
        mem_makespan / part.makespan,
    );

    // 4. Emit the mapping report.
    let report = ScheduleReport::new(
        &imported.name,
        "daghetpart",
        &imported.graph,
        &cluster,
        &part.mapping,
        part.makespan,
    );
    let report_path = dir.join("blast-1000.mapping.json");
    let json = report.to_json().expect("serialise report");
    std::fs::write(&report_path, json).expect("write report");
    println!("mapping report -> {}", report_path.display());

    // The same exchange is available from the command line:
    println!("\nequivalent CLI invocations:");
    println!("  daghetpart generate --family blast --tasks 1000 --output wf.json");
    println!("  daghetpart schedule --workflow wf.json --cluster default --output mapping.json");
}
