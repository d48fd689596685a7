//! End-to-end benchmark: DagHetPart vs DagHetMem wall-clock on the
//! paper's workflow families — the measurement behind Figs. 8–9 and
//! Table 4.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dhp_core::fitting::scale_cluster_with_headroom;
use dhp_core::prelude::*;
use dhp_core::steps::swap::swap_blocks;
use dhp_core::steps::{assign::biggest_assign, merge::merge_unassigned, partition::initial_blocks};
use dhp_platform::configs::{self, ClusterKind, ClusterSize};
use dhp_platform::Cluster;
use dhp_wfgen::{Family, WorkflowInstance};
use std::hint::black_box;

fn bench_both(c: &mut Criterion) {
    let mut group = c.benchmark_group("heuristics");
    group.sample_size(10);
    for &n in &[200usize, 1_000] {
        for family in [Family::Blast, Family::Soykb] {
            let inst = WorkflowInstance::simulated(family, n, 3);
            let cluster =
                scale_cluster_with_headroom(&inst.graph, &configs::default_cluster(), 1.05);
            group.bench_with_input(
                BenchmarkId::new(format!("daghetpart/{}", family.name()), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        dag_het_part(
                            black_box(&inst.graph),
                            black_box(&cluster),
                            &DagHetPartConfig::default(),
                        )
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("daghetmem/{}", family.name()), n),
                &n,
                |b, _| b.iter(|| dag_het_mem(black_box(&inst.graph), black_box(&cluster))),
            );
        }
    }
    group.finish();
}

/// The slot-search datapoint: HEFT on a wide workflow over a tiny
/// cluster packs hundreds of intervals per processor, so the
/// insertion-based gap search (`earliest_slot` / `insert_interval`)
/// dominates — the busy lists are kept sorted and probed by binary
/// search, and this bench pins the win over the former linear scans.
fn bench_slot_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("heft_slot_search");
    group.sample_size(10);
    for &n in &[500usize, 2_000] {
        let inst = WorkflowInstance::simulated(Family::Seismology, n, 11);
        let cluster = scale_cluster_with_headroom(&inst.graph, &configs::small_cluster(), 1.05);
        group.bench_with_input(BenchmarkId::new("heft", n), &n, |b, _| {
            b.iter(|| dhp_core::heft::heft(black_box(&inst.graph), black_box(&cluster)))
        });
    }
    group.finish();
}

/// The two layers of DagHetPart that carry what they computed: Step 3
/// on a chain-shaped 60-task workflow (the whole `k'` ladder's Step-2
/// block sets, most of which Step 3 fails on after paying for it — the
/// clone of the block sets is in the loop and is noise next to it) and
/// Step 2 on a wide 4000-task one (every block leaves the queue with
/// the requirement it entered with). Before them, Step 1 on that wide
/// workflow at `k' = 36`: coarsening, partitioning and pricing blocks
/// that are mostly stages of independent tasks.
fn bench_steps(c: &mut Criterion) {
    let cfg = DagHetPartConfig::default();
    let mut group = c.benchmark_group("steps");
    group.sample_size(10);

    let chain = WorkflowInstance::simulated(Family::Epigenomics, 60, 17).graph;
    let cluster = scale_cluster_with_headroom(&chain, &configs::default_cluster(), 1.05);
    let ladder: Vec<_> = (1..=cluster.len())
        .map(|kp| initial_blocks(&chain, kp, &cfg.partition_cfg))
        .map(|bs| biggest_assign(&chain, &cluster, bs, &cfg.partition_cfg))
        .collect();
    group.bench_function("merge_unassigned/chain60", |b| {
        b.iter(|| {
            ladder
                .iter()
                .cloned()
                .filter_map(|mut bs| merge_unassigned(&chain, &cluster, &mut bs, true).ok())
                .count()
        })
    });

    let fanout = WorkflowInstance::simulated(Family::Blast, 4_000, 17).graph;
    group.bench_function("initial_blocks/blast4000_k36", |b| {
        b.iter(|| initial_blocks(black_box(&fanout), 36, &cfg.partition_cfg))
    });
    let cluster = scale_cluster_with_headroom(&fanout, &configs::default_cluster(), 1.05);
    let blocks = initial_blocks(&fanout, cluster.len(), &cfg.partition_cfg);
    group.bench_function("biggest_assign/fanout4000", |b| {
        b.iter(|| {
            biggest_assign(
                black_box(&fanout),
                &cluster,
                blocks.clone(),
                &cfg.partition_cfg,
            )
        })
    });
    group.finish();
}

/// The three pieces of work one `k'` attempt no longer repeats, each
/// against what it replaced where that still exists: the dagP sweep
/// with one hierarchy per part count and with one for all of them
/// (levels, their views and their topological orders included), one
/// refinement of a 10000-task fan-out at `k = 36` on a ready view
/// (every middle task's window is all 36 parts wide), the sub-DAG of
/// one 250-task block of a 10000-task workflow (cost must not follow
/// the workflow's edge count), and the Step-4 swap loop at `k' = 36`
/// (one reverse sweep of a 36-node quotient per candidate).
fn bench_shared_work(c: &mut Criterion) {
    let cfg = DagHetPartConfig::default();
    let fanout = WorkflowInstance::simulated(Family::Blast, 4_000, 17).graph;
    let cluster = scale_cluster_with_headroom(&fanout, &configs::default_cluster(), 1.05);
    let k = cluster.len();

    let mut group = c.benchmark_group("dagp");
    group.sample_size(10);
    group.bench_function("partition_sweep/fanout4000/fresh", |b| {
        b.iter(|| {
            (1..=k)
                .map(|kp| dhp_dagp::partition(&fanout, kp, &cfg.partition_cfg).num_blocks())
                .sum::<usize>()
        })
    });
    group.bench_function("partition_sweep/fanout4000/shared", |b| {
        b.iter(|| {
            let hierarchy = dhp_dagp::coarsen_for(&fanout, 2, &cfg.partition_cfg);
            (1..=k)
                .map(|kp| dhp_dagp::partition_on(&hierarchy, kp, &cfg.partition_cfg).num_blocks())
                .sum::<usize>()
        })
    });
    let wide = WorkflowInstance::simulated(Family::Blast, 10_000, 17).graph;
    let view = dhp_dagp::coarsen::LevelView::of(&wide);
    let work: Vec<f64> = wide.node_ids().map(|u| wide.node(u).work).collect();
    let chunks = dhp_dagp::initial::topo_chunks_on(&view, &work, k);
    group.bench_function("refine/fanout10000_k36_one_level", |b| {
        b.iter(|| {
            let mut assignment = chunks.clone();
            dhp_dagp::refine::refine_on(&view, &work, &mut assignment, k, &cfg.partition_cfg);
            assignment
        })
    });
    group.finish();

    let mut group = c.benchmark_group("dag");
    group.sample_size(10);
    let block = dhp_dagp::partition(&wide, 40, &cfg.partition_cfg).members()[20].clone();
    assert_eq!(block.len(), 250);
    group.bench_function("induced_subgraph/fanout10000_block250", |b| {
        b.iter(|| black_box(&wide).induced_subgraph(black_box(&block)))
    });
    group.finish();

    let mut group = c.benchmark_group("steps");
    group.sample_size(10);
    let bs = initial_blocks(&fanout, k, &cfg.partition_cfg);
    let mut mapped = biggest_assign(&fanout, &cluster, bs, &cfg.partition_cfg);
    merge_unassigned(&fanout, &cluster, &mut mapped, true).expect("blast 4000 maps at k' = 36");
    group.bench_function("swap_blocks/fanout4000_k36", |b| {
        b.iter(|| swap_blocks(black_box(&fanout), &cluster, &mut mapped.clone()))
    });
    group.finish();
}

/// The two shapes `online_cold` solves by the thousand: Step 4 (the
/// quotient build and the swap rounds, each of which relaxes only the
/// candidates that could win) on a 40-task recipe at `k' = 18` over the
/// fitted 18-processor less-heterogeneous cluster, and a whole `k'`
/// sweep on a 3-processor lease of it, where starting the sweep's
/// threads is much of the solve (the caller drains the counter too).
fn bench_online_shapes(c: &mut Criterion) {
    let cfg = DagHetPartConfig::default();
    let recipe = WorkflowInstance::simulated(Family::Genome, 40, 17).graph;
    let base = configs::cluster(ClusterKind::LessHet, ClusterSize::Small);
    let cluster = scale_cluster_with_headroom(&recipe, &base, 1.05);
    let bs = initial_blocks(&recipe, cluster.len(), &cfg.partition_cfg);
    let mut mapped = biggest_assign(&recipe, &cluster, bs, &cfg.partition_cfg);
    merge_unassigned(&recipe, &cluster, &mut mapped, true).expect("genome 40 maps at k' = 18");
    let mut group = c.benchmark_group("steps");
    group.sample_size(20);
    group.bench_function("swap_blocks/cold18", |b| {
        b.iter(|| swap_blocks(black_box(&recipe), &cluster, &mut mapped.clone()))
    });
    group.finish();

    let lease = Cluster::new(
        cluster.ids_by_memory_desc()[..3]
            .iter()
            .map(|&p| cluster.proc(p).clone())
            .collect(),
        cluster.bandwidth,
    );
    assert!(
        dag_het_part(&recipe, &lease, &cfg).is_ok(),
        "the lease holds the recipe"
    );
    let mut group = c.benchmark_group("daghetpart");
    group.sample_size(20);
    group.bench_function("small_lease_sweep", |b| {
        b.iter(|| dag_het_part(black_box(&recipe), &lease, &cfg))
    });
    group.finish();
}

/// The block requirement `r(V_i)` by itself, at the two sizes the
/// offline workloads ask it at — a Step-1 block of a wide workflow and
/// the five-task blocks a chain-shaped solve prices by the tens of
/// thousands — plus the two parts of the kernel that used to allocate
/// per component and per task: the hill–valley merge of a stage of 363
/// single-task components, and every strategy on a whole workflow.
fn bench_requirement_kernel(c: &mut Criterion) {
    let cfg = DagHetPartConfig::default();
    let mut group = c.benchmark_group("memdag");
    group.sample_size(20);

    let fanout = WorkflowInstance::simulated(Family::Blast, 4_000, 17).graph;
    let block = dhp_dagp::partition(&fanout, 12, &cfg.partition_cfg).members()[8].clone();
    assert_eq!(block.len(), 331);
    group.bench_function("block_requirement/fanout4000_block330", |b| {
        b.iter(|| dhp_core::blockmem::block_requirement(black_box(&fanout), black_box(&block)))
    });

    group.bench_function("block_bounds/fanout4000_block330", |b| {
        b.iter(|| dhp_memdag::block_bounds(black_box(&fanout), black_box(&block)))
    });

    let chain = WorkflowInstance::simulated(Family::Epigenomics, 60, 17).graph;
    let order = dhp_dag::topo::topo_sort(&chain).expect("generated workflows are acyclic");
    let five = &order[20..25];
    group.bench_function("block_requirement/chain60_block5", |b| {
        b.iter(|| dhp_core::blockmem::block_requirement(black_box(&chain), black_box(five)))
    });

    let stage = dhp_dag::builder::fork_join(363, 1.0, 3.0, 2.0);
    let ext = vec![0.0; stage.node_count()];
    group.bench_function("sp_order/parallel_stage_363_leaves", |b| {
        b.iter(|| dhp_memdag::sptraversal::sp_order(black_box(&stage), black_box(&ext)))
    });

    let genome = WorkflowInstance::simulated(Family::Genome, 1_000, 17).graph;
    let ext = vec![0.0; genome.node_count()];
    group.bench_function("best_traversal/genome1000_whole", |b| {
        b.iter(|| dhp_memdag::best_traversal(black_box(&genome), black_box(&ext)))
    });
    group.finish();
}

/// DagHetMem on the fitted default cluster, where it does not cut and
/// where it does. The hungriest task of `blast10000` and `genome4000`
/// is a hub that holds the workflow's whole peak, so they fit the
/// largest processor in one block and cost one traversal plus one
/// block requirement; `bwa4000` is cut after some two thousand tasks,
/// and that cut is searched for, not walked up to.
fn bench_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("heuristics");
    group.sample_size(10);
    for (name, family, n, blocks) in [
        ("blast10000", Family::Blast, 10_000, 1),
        ("genome4000", Family::Genome, 4_000, 1),
        ("bwa4000", Family::Bwa, 4_000, 2),
    ] {
        let g = WorkflowInstance::simulated(family, n, 17).graph;
        let cluster = scale_cluster_with_headroom(&g, &configs::default_cluster(), 1.05);
        let mapped = dag_het_mem(&g, &cluster).expect("fitted clusters hold their workflow");
        assert_eq!(mapped.num_blocks(), blocks, "{name}");
        group.bench_function(format!("dag_het_mem/{name}"), |b| {
            b.iter(|| dag_het_mem(black_box(&g), black_box(&cluster)))
        });
    }
    group.finish();
}

/// What the offline benchmark's call pays after the solve: DagHetMem
/// on a workflow whose hub holds its whole peak, so the baseline maps
/// it in one block, and `validate` on that mapping — one whole-workflow
/// block whose topological order already fits.
fn bench_baseline_and_validate(c: &mut Criterion) {
    let g = WorkflowInstance::simulated(Family::Genome, 10_000, 17).graph;
    let cluster = scale_cluster_with_headroom(&g, &configs::default_cluster(), 1.05);
    let mapped = dag_het_mem(&g, &cluster).expect("fitted clusters hold their workflow");
    assert_eq!(mapped.num_blocks(), 1);
    let mut group = c.benchmark_group("baseline");
    group.sample_size(10);
    group.bench_function("dag_het_mem/genome10000", |b| {
        b.iter(|| dag_het_mem(black_box(&g), black_box(&cluster)))
    });
    group.finish();
    let mut group = c.benchmark_group("mapping");
    group.sample_size(10);
    group.bench_function("validate/genome10000", |b| {
        b.iter(|| dhp_core::mapping::validate(black_box(&g), black_box(&cluster), &mapped))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_both,
    bench_baseline,
    bench_baseline_and_validate,
    bench_slot_search,
    bench_steps,
    bench_shared_work,
    bench_online_shapes,
    bench_requirement_kernel
);
criterion_main!(benches);
