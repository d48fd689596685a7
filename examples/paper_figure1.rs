//! The paper's running example, end to end (Fig. 1 + §3.3).
//!
//! Builds the 9-task DAG of Fig. 1 with unit weights, applies the
//! 4-block partition shown in the figure, prints the quotient graph and
//! the bottom-weight computation (`l_ν4 = 1, l_ν3 = 5, l_ν2 = 7,
//! l_ν1 = 12` → makespan 12), demonstrates the cyclic-partition pitfall
//! the paper warns about (merging tasks 4 and 9), and finally lets
//! DagHetPart and the exact solver loose on the same instance.
//!
//! Run with: `cargo run --release -p dhp-exact --example paper_figure1`

use dhp_core::makespan::makespan_of_mapping;
use dhp_core::mapping::{validate, Mapping, MappingError};
use dhp_core::prelude::*;
use dhp_dag::{Dag, FlatQuotient, Partition, QuotientGraph};
use dhp_exact::{solve, ExactConfig};
use dhp_platform::{Cluster, ProcId, Processor};

/// Fig. 1's nine-task DAG with unit works, memories, and volumes.
fn figure1_graph() -> Dag {
    let mut g = Dag::new();
    let n: Vec<_> = (0..9)
        .map(|i| {
            let u = g.add_node(1.0, 1.0);
            g.set_label(u, Some(&format!("{}", i + 1)));
            u
        })
        .collect();
    // Edge set reconstructed from the paper's §3 facts: parents of 6 are
    // {3, 4} and its children {7, 8}; 1 is the only source and 9 the only
    // target; with the figure's partition the quotient costs are all 1
    // except c_{ν1,ν3} = 2 (two edges 3→6, 4→6), ν2 = {5} has edges into
    // both ν3 and ν4, and merging {4, 9} is cyclic "due to the edges
    // (4, 6) and (8, 9)".
    for (u, v) in [
        (1, 2),
        (1, 3),
        (2, 4),
        (3, 4),
        (3, 6),
        (4, 6),
        (4, 5),
        (5, 8),
        (5, 9),
        (6, 7),
        (6, 8),
        (7, 8),
        (8, 9),
    ] {
        g.add_edge(n[u - 1], n[v - 1], 1.0);
    }
    g
}

fn main() {
    let g = figure1_graph();
    println!(
        "Fig. 1 graph: {} tasks, {} edges, source = task 1, target = task 9\n",
        g.node_count(),
        g.edge_count()
    );

    // The figure's partition: V1 = {1,2,3,4}, V2 = {5}, V3 = {6,7,8}, V4 = {9}.
    let partition = Partition::from_raw(&[0, 0, 0, 0, 1, 2, 2, 2, 3]);
    let q = QuotientGraph::build(&g, &partition);
    println!("Quotient graph Γ (paper: w_ν1=4, w_ν2=1, w_ν3=3, w_ν4=1):");
    for v in q.graph.node_ids() {
        println!(
            "  ν{} : w = {}, children = {:?}",
            v.idx() + 1,
            q.graph.node(v).work,
            q.graph.children(v).map(|c| c.idx() + 1).collect::<Vec<_>>()
        );
    }

    // Bottom weights with unit speeds and unit bandwidth → makespan 12.
    let ms = FlatQuotient::build(&g, &partition).makespan(1.0);
    println!("\nmakespan μ(Γ) with unit speeds/bandwidth = {ms} (paper: 12)");
    assert_eq!(ms, 12.0);

    // The paper's warning: merging tasks 4 and 9 creates a cyclic
    // quotient ("due to the edges (4,6) and (8,9)").
    let bad = Partition::from_raw(&[0, 0, 0, 1, 2, 3, 3, 3, 1]);
    let mapping = Mapping {
        partition: bad,
        proc_of_block: (0..4).map(|i| Some(ProcId(i))).collect(),
    };
    let cluster = Cluster::new(
        (0..4)
            .map(|i| Processor::new(format!("p{i}"), 1.0, 100.0))
            .collect(),
        1.0,
    );
    match validate(&g, &cluster, &mapping) {
        Err(MappingError::CyclicQuotient) => {
            println!("merging tasks 4 and 9 → cyclic quotient, rejected (as the paper notes)")
        }
        other => panic!("expected CyclicQuotient, got {other:?}"),
    }

    // Now let the algorithms at it, on 4 unit processors (k = 4, as the
    // paper's example demands "each vertex on a separate processor").
    let part = dag_het_part(&g, &cluster, &DagHetPartConfig::default()).expect("feasible");
    println!(
        "\nDagHetPart: makespan {} with k' = {} blocks",
        part.makespan,
        part.mapping.num_blocks()
    );

    let exact = solve(&g, &cluster, &ExactConfig::default())
        .expect("9 tasks is within the exact cap")
        .expect("feasible");
    println!("exact optimum: {}", exact.makespan);
    println!(
        "figure's hand partition: {} | DagHetPart: {} | optimum: {}",
        ms, part.makespan, exact.makespan
    );
    assert!(exact.makespan <= part.makespan + 1e-9);
    assert!(
        part.makespan <= ms + 1e-9,
        "the heuristic beats the figure's example"
    );

    // For reference, the serial lower line: 9 units of work on one
    // unit-speed processor.
    let serial = Mapping {
        partition: Partition::single_block(9),
        proc_of_block: vec![Some(ProcId(0))],
    };
    println!(
        "serial on one processor: {}",
        makespan_of_mapping(&g, &cluster, &serial)
    );
}
