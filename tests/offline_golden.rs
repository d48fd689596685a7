//! Golden outputs of the offline solver.
//!
//! `tests/golden/offline_golden.txt` was recorded before Step 2/3 and
//! the k' sweep were reworked to stop recomputing what they hold; every
//! line is (makespan bits, winning k', FNV of the mapping's raw
//! partition + processor table). The solver must keep reproducing every
//! line bit for bit, threaded and sequential.
//!
//! The `sweep` lines were added before the `k'` sweep started sharing
//! one coarsening hierarchy and one Step-4 quotient: for every `k'` of
//! four larger instances, the attempt's makespan bits and mapping, the
//! block count Step 1 produced, and the swaps and idle moves Step 4
//! made. Three are the 1000-task fan-outs whose hierarchy has two
//! levels up to `k' = 33` and one above; the fourth is chain-shaped,
//! with a hierarchy that runs from ten levels (`k' = 2`) down to one.
//!
//! The `req` lines were added before the block requirement moved off
//! the induced `Dag` onto a flat view of the parent graph: for seven
//! instances and `k' ∈ {2, 12, 36}`, every Step-1 block's requirement
//! bits and the FNV of the traversal order behind it (the order
//! `dhp_sim` executes the block in), each whole workflow's `min_peak`
//! bits, and the shape of the series-parallel decomposition of the
//! three largest `k' = 12` blocks — a decomposition that changes shape
//! is caught even where the peak happens not to move.
//!
//! The `part` and `mem` lines were added before dagP's refinement moved
//! onto one flat view per hierarchy level and DagHetMem started
//! searching for each block's cut instead of re-evaluating every
//! prefix: the raw assignment `dhp_dagp::partition` returns for every
//! `k'` of the four `sweep` instances (refinement runs on ten levels
//! down to one on the chain-shaped one) and the bisection of the three
//! largest `k' = 12` blocks of each; and DagHetMem's outcome on the
//! default and the small cluster for the `req` instances, the tight
//! one, three 4000-task fan-outs and 23 seeded 60-task workflows, some
//! of which it fails on and some of which it maps to blocks that do
//! not fit their processor (`invalid`: ROADMAP item B, pinned as is).
//!
//! Re-record (only when an output change is intended):
//! `cargo test --release --test offline_golden -- --ignored record`.

use dhp_core::daghetpart::KprimeMode;
use dhp_core::fitting::scale_cluster_with_headroom;
use dhp_core::makespan::blockset_makespan;
use dhp_core::prelude::*;
use dhp_core::steps;
use dhp_dag::fingerprint::{fnv1a_u64, FNV_OFFSET};
use dhp_dag::util::BitSet;
use dhp_dag::{Dag, NodeId};
use dhp_memdag::spdecomp::SpTree;
use dhp_platform::{configs, Cluster};
use dhp_wfgen::{Family, WorkflowInstance};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/offline_golden.txt");

const FAMILIES: [Family; 5] = [
    Family::Epigenomics,
    Family::Montage,
    Family::Soykb,
    Family::Blast,
    Family::Genome,
];

/// FNV-1a over a partition as stored: the block of every task in task
/// order.
fn partition_fnv(p: &dhp_dag::Partition) -> u64 {
    let blocks = (0..p.len()).map(|u| p.block_of(NodeId(u as u32)).0 as u64);
    blocks.fold(FNV_OFFSET, fnv1a_u64)
}

/// FNV-1a over the mapping as stored: block of every task in task
/// order, then the processor of every block (`u64::MAX` = none).
fn mapping_fnv(m: &Mapping) -> u64 {
    let procs = m
        .proc_of_block
        .iter()
        .map(|p| p.map_or(u64::MAX, |p| p.0 as u64));
    procs.fold(partition_fnv(&m.partition), fnv1a_u64)
}

fn outcome(r: &Result<MappingResult, SchedError>) -> String {
    match r {
        Ok(r) => format!(
            "{:016x} {} {:016x}",
            r.makespan.to_bits(),
            r.kprime,
            mapping_fnv(&r.mapping)
        ),
        Err(SchedError::NoSolution) => "no-solution".into(),
    }
}

/// The memory-tight instance: a 60-task epigenomics chain bundle on the
/// default cluster, where most `k'` attempts die in Step 3.
fn tight_instance() -> (WorkflowInstance, Cluster) {
    let inst = WorkflowInstance::simulated(Family::Epigenomics, 60, 4242);
    let cluster = scale_cluster_with_headroom(&inst.graph, &configs::default_cluster(), 1.05);
    (inst, cluster)
}

/// The per-`k'` instances: `(family, tasks, hierarchy depth at k' = 2,
/// 10 and 36)` on the default cluster. The depths are the premise of
/// the `sweep` lines — a sweep that coarsens once must cut its
/// hierarchy at a different level for different `k'`.
const SWEPT: [(Family, usize, [usize; 3]); 4] = [
    (Family::Blast, 1000, [2, 2, 1]),
    (Family::Bwa, 1000, [2, 2, 1]),
    (Family::Seismology, 1000, [2, 2, 1]),
    (Family::Soykb, 400, [10, 2, 1]),
];

/// One `sweep` line per `k'` of `family`/`tasks`: what the solver
/// returns for that `k'` alone, and the Step-1 block count and Step-4
/// move counts of the same pipeline re-driven through the public step
/// functions (which must land on the same makespan).
fn sweep_lines(out: &mut String, family: Family, tasks: usize, depths: [usize; 3]) {
    let inst = WorkflowInstance::simulated(family, tasks, 17);
    let g = &inst.graph;
    let cluster = scale_cluster_with_headroom(g, &configs::default_cluster(), 1.05);
    let pcfg = DagHetPartConfig::default().partition_cfg;
    let work: Vec<f64> = g.node_ids().map(|u| g.node(u).work).collect();
    let depth =
        |k: usize| dhp_dagp::coarsen::coarsen(g, &work, k * pcfg.coarsen_target, pcfg.seed).depth();
    assert_eq!(
        [depth(2), depth(10), depth(36)],
        depths,
        "{}",
        family.name()
    );

    for kp in 1..=cluster.len().min(g.node_count()) {
        let cfg = DagHetPartConfig {
            kprime: KprimeMode::Fixed(kp),
            ..DagHetPartConfig::default()
        };
        let solved = dag_het_part(g, &cluster, &cfg);

        let mut bs = steps::partition::initial_blocks(g, kp, &pcfg);
        let blocks = bs.len();
        bs = steps::assign::biggest_assign(g, &cluster, bs, &pcfg);
        let moves = steps::merge::merge_unassigned(g, &cluster, &mut bs, true)
            .ok()
            .map(|()| {
                let swaps = steps::swap::swap_blocks(g, &cluster, &mut bs);
                let idle = steps::swap::idle_moves(g, &cluster, &mut bs);
                (swaps, idle, blockset_makespan(g, &bs, &cluster))
            });
        let step4 = match (&solved, moves) {
            (Ok(r), Some((swaps, idle, makespan))) => {
                assert_eq!(r.makespan.to_bits(), makespan.to_bits(), "k'={kp}");
                format!(" swaps={swaps} idle={idle}")
            }
            (Err(_), None) => String::new(),
            _ => panic!("k'={kp}: the re-driven pipeline and the solver disagree"),
        };
        writeln!(
            out,
            "sweep {} {tasks} k'={kp}: {} blocks={blocks}{step4}",
            family.name(),
            outcome(&solved),
        )
        .unwrap();
    }
}

/// The `req` instances: the four of [`SWEPT`] plus three more, built
/// the same way (seed 17, default partitioner configuration).
const PRICED: [(Family, usize); 7] = [
    (Family::Blast, 1000),
    (Family::Bwa, 1000),
    (Family::Seismology, 1000),
    (Family::Soykb, 400),
    (Family::Genome, 1000),
    (Family::Epigenomics, 60),
    (Family::Montage, 60),
];

/// The sub-DAG induced by `members` (ascending), its id map, and the
/// boundary load of every member: the block as `dhp-memdag` is asked
/// about it.
fn induced_block(g: &Dag, members: &[NodeId]) -> (Dag, Vec<NodeId>, Vec<f64>) {
    let (sub, back) = g.induced_subgraph(members);
    let mut member = BitSet::new(g.node_count());
    for &u in members {
        member.set(u.idx());
    }
    let ext = back
        .iter()
        .map(|&u| {
            let inputs = g.in_edges(u).iter().map(|&e| g.edge(e));
            let outputs = g.out_edges(u).iter().map(|&e| g.edge(e));
            let mut boundary = 0.0;
            for e in inputs.filter(|e| !member.get(e.src.idx())) {
                boundary += e.volume;
            }
            for e in outputs.filter(|e| !member.get(e.dst.idx())) {
                boundary += e.volume;
            }
            boundary
        })
        .collect();
    (sub, back, ext)
}

/// FNV-1a over the order a block's best traversal executes its tasks
/// in, as ids of `g`: asked of the block in place (what `dhp_sim`
/// replays), and of its induced sub-DAG the way the line was recorded.
fn block_order_fnv(g: &Dag, members: &[NodeId]) -> u64 {
    let in_place = dhp_memdag::block_traversal(g, members);
    let (sub, back, ext) = induced_block(g, members);
    let induced = dhp_memdag::best_traversal(&sub, &ext);
    assert_eq!(in_place.peak.to_bits(), induced.peak.to_bits());
    assert!(in_place
        .order
        .iter()
        .eq(induced.order.iter().map(|u| &back[u.idx()])));
    let ids = in_place.order.iter().map(|u| u.0 as u64);
    ids.fold(FNV_OFFSET, fnv1a_u64)
}

/// FNV-1a over the decomposition tree in pre-order: a tag and a child
/// (or task) count per node, the tasks of leaves and cores as ids of
/// `g`.
fn shape_fnv(tree: &SpTree, back: &[NodeId], h: u64) -> u64 {
    let id = |u: &NodeId| back[u.idx()].0 as u64;
    match tree {
        SpTree::Leaf(u) => fnv1a_u64(fnv1a_u64(h, 1), id(u)),
        SpTree::Series(c) | SpTree::Parallel(c) => {
            let tag = 2 + matches!(tree, SpTree::Parallel(_)) as u64;
            let h = fnv1a_u64(fnv1a_u64(h, tag), c.len() as u64);
            c.iter().fold(h, |h, t| shape_fnv(t, back, h))
        }
        SpTree::Complex(v) => {
            let h = fnv1a_u64(fnv1a_u64(h, 4), v.len() as u64);
            v.iter().map(id).fold(h, fnv1a_u64)
        }
    }
}

/// The `req` lines of one instance.
fn req_lines(out: &mut String, family: Family, tasks: usize) {
    let inst = WorkflowInstance::simulated(family, tasks, 17);
    let g = &inst.graph;
    let pcfg = DagHetPartConfig::default().partition_cfg;
    let name = family.name();
    writeln!(
        out,
        "req {name} {tasks} whole: {:016x}",
        dhp_memdag::min_peak(g).to_bits()
    )
    .unwrap();
    for kp in [2usize, 12, 36] {
        let bs = steps::partition::initial_blocks(g, kp, &pcfg);
        for (b, block) in bs.iter().enumerate() {
            let req = dhp_core::blockmem::block_requirement(g, &block.members);
            assert_eq!(req.to_bits(), block.req.to_bits(), "{name} k'={kp} b={b}");
            writeln!(
                out,
                "req {name} {tasks} k'={kp} b={b} n={}: {:016x} {:016x}",
                block.members.len(),
                req.to_bits(),
                block_order_fnv(g, &block.members)
            )
            .unwrap();
        }
        if kp == 12 {
            let mut by_size: Vec<usize> = (0..bs.len()).collect();
            by_size.sort_by_key(|&b| (std::cmp::Reverse(bs.block(b).members.len()), b));
            let shapes: Vec<String> = by_size
                .iter()
                .take(3)
                .map(|&b| {
                    let (sub, back, _) = induced_block(g, &bs.block(b).members);
                    let tree = dhp_memdag::spdecomp::decompose(&sub);
                    format!("b={b}:{:016x}", shape_fnv(&tree, &back, FNV_OFFSET))
                })
                .collect();
            writeln!(out, "req {name} {tasks} k'=12 shapes: {}", shapes.join(" ")).unwrap();
        }
    }
}

/// The `part` lines of one [`SWEPT`] instance: the partitioner's raw
/// answer for every `k'`, and the bisection (`FitBlock`'s split) of the
/// three largest Step-1 blocks at `k' = 12`.
fn part_lines(out: &mut String, family: Family, tasks: usize) {
    let inst = WorkflowInstance::simulated(family, tasks, 17);
    let g = &inst.graph;
    let name = family.name();
    let pcfg = dhp_dagp::PartitionConfig {
        balance: dhp_dagp::BalanceWeight::Work,
        ..DagHetPartConfig::default().partition_cfg
    };
    for kp in 1..=configs::default_cluster().len().min(g.node_count()) {
        let p = dhp_dagp::partition(g, kp, &pcfg);
        writeln!(
            out,
            "part {name} {tasks} k'={kp}: blocks={} {:016x}",
            p.num_blocks(),
            partition_fnv(&p)
        )
        .unwrap();
    }
    let mut blocks = dhp_dagp::partition(g, 12, &pcfg).members();
    blocks.sort_by_key(|b| (std::cmp::Reverse(b.len()), b[0]));
    let halves: Vec<String> = blocks
        .iter()
        .take(3)
        .map(|members| {
            let (sub, _) = g.induced_subgraph(members);
            let halves = dhp_dagp::bisect(&sub, &pcfg);
            assert_eq!(halves.num_blocks(), 2);
            format!("n={}:{:016x}", members.len(), partition_fnv(&halves))
        })
        .collect();
    writeln!(
        out,
        "part {name} {tasks} k'=12 bisect: {}",
        halves.join(" ")
    )
    .unwrap();
}

/// The 60-task workflows of the `mem` lines, `(family, seeds)`. On
/// montage seeds 0, 6 and 11 DagHetMem returns a mapping that fails
/// `validate` (found by scanning seeds 0..120 on the parent commit).
const BASELINE_60: [(Family, std::ops::Range<u64>); 3] = [
    (Family::Epigenomics, 0..5),
    (Family::Montage, 0..13),
    (Family::Soykb, 0..5),
];

/// One `mem` line per cluster: what DagHetMem makes of `inst` on the
/// default and the small cluster at 1.05 headroom.
fn mem_lines(out: &mut String, label: &str, inst: &WorkflowInstance) {
    let g = &inst.graph;
    for (cname, base) in [
        ("default", configs::default_cluster()),
        ("small", configs::small_cluster()),
    ] {
        let cluster = scale_cluster_with_headroom(g, &base, 1.05);
        let outcome = match dag_het_mem(g, &cluster) {
            Ok(m) => format!(
                "blocks={} {:016x} {}",
                m.num_blocks(),
                mapping_fnv(&m),
                if validate(g, &cluster, &m).is_ok() {
                    "valid"
                } else {
                    "invalid"
                }
            ),
            Err(SchedError::NoSolution) => "no-solution".into(),
        };
        writeln!(out, "mem {label} {cname}: {outcome}").unwrap();
    }
}

/// Every golden line, freshly computed.
fn compute() -> String {
    let mut out = String::new();
    for (fi, family) in FAMILIES.into_iter().enumerate() {
        for tasks in [60usize, 200] {
            let inst = WorkflowInstance::simulated(family, tasks, 17 + fi as u64);
            for (cname, base) in [
                ("default", configs::default_cluster()),
                ("small", configs::small_cluster()),
            ] {
                let cluster = scale_cluster_with_headroom(&inst.graph, &base, 1.05);
                for parallel in [true, false] {
                    let cfg = DagHetPartConfig {
                        parallel,
                        ..DagHetPartConfig::default()
                    };
                    let r = dag_het_part(&inst.graph, &cluster, &cfg);
                    writeln!(
                        out,
                        "{} {tasks} {cname} parallel={parallel}: {}",
                        family.name(),
                        outcome(&r)
                    )
                    .unwrap();
                }
            }
        }
    }
    // Per-k' outcomes of the tight instance, failures included: a
    // `no-solution` must stay one.
    let (inst, cluster) = tight_instance();
    for kp in 1..=cluster.len().min(inst.graph.node_count()) {
        let cfg = DagHetPartConfig {
            kprime: KprimeMode::Fixed(kp),
            ..DagHetPartConfig::default()
        };
        let r = dag_het_part(&inst.graph, &cluster, &cfg);
        writeln!(out, "tight k'={kp}: {}", outcome(&r)).unwrap();
    }
    for (family, tasks, depths) in SWEPT {
        sweep_lines(&mut out, family, tasks, depths);
    }
    for (family, tasks) in PRICED {
        req_lines(&mut out, family, tasks);
    }
    for (family, tasks, _) in SWEPT {
        part_lines(&mut out, family, tasks);
    }
    let seeded = |family: Family, tasks, seed| {
        let label = format!("{} {tasks} seed={seed}", family.name());
        (label, WorkflowInstance::simulated(family, tasks, seed))
    };
    let large = [Family::Genome, Family::Bwa, Family::Seismology];
    let instances = (PRICED
        .into_iter()
        .map(|(family, tasks)| seeded(family, tasks, 17)))
    .chain([("tight".to_string(), tight_instance().0)])
    .chain(large.map(|family| seeded(family, 4000, 17)))
    .chain(
        BASELINE_60
            .into_iter()
            .flat_map(|(family, seeds)| seeds.map(move |seed| seeded(family, 60, seed))),
    );
    for (label, inst) in instances {
        mem_lines(&mut out, &label, &inst);
    }
    out
}

#[test]
fn solver_reproduces_every_golden_line() {
    let fresh = compute();
    let (mut checked, mut tight, mut tight_failed, mut swept, mut priced) = (0, 0, 0, 0, 0);
    let (mut parts, mut mems, mut mem_failed, mut mem_invalid) = (0, 0, 0, 0);
    for (want, got) in GOLDEN.lines().zip(fresh.lines()) {
        assert_eq!(want, got, "golden line {checked} differs");
        checked += 1;
        if want.starts_with("tight ") {
            tight += 1;
            tight_failed += want.ends_with("no-solution") as usize;
        }
        swept += want.starts_with("sweep ") as usize;
        priced += want.starts_with("req ") as usize;
        parts += want.starts_with("part ") as usize;
        if want.starts_with("mem ") {
            mems += 1;
            mem_failed += want.ends_with("no-solution") as usize;
            mem_invalid += want.ends_with(" invalid") as usize;
        }
    }
    assert_eq!(GOLDEN.lines().count(), fresh.lines().count());
    assert_eq!(
        checked,
        5 * 2 * 2 * 2 + tight + swept + priced + parts + mems
    );
    assert_eq!(parts, SWEPT.len() * 37);
    assert_eq!(mems, 2 * (PRICED.len() + 1 + 3 + 23));
    assert!(
        mem_failed > 0 && mem_invalid > 0,
        "premise: DagHetMem fails on some `mem` instances ({mem_failed}) and maps some \
         to blocks that do not fit ({mem_invalid})"
    );
    assert_eq!(swept, SWEPT.len() * 36);
    // Per instance: the whole workflow, the shapes, and at least the
    // two blocks of `k' = 2`.
    assert!(priced >= PRICED.len() * 4, "{priced} req lines");
    assert!(
        2 * tight_failed > tight,
        "premise: more than half of the tight instance's k' attempts fail ({tight_failed}/{tight})"
    );
}

/// The certified bounds bracket every requirement the `req` lines pin:
/// for each Step-1 block of the seven instances at `k' ∈ {2, 12, 36}`,
/// `lo ≤ r ≤ hi`, `r` has `hi`'s bits whenever it equals it, and exact
/// bounds are `r` itself. The topological peak is the requirement on
/// most blocks, which is what lets the bounds decide.
#[test]
fn bounds_bracket_every_golden_step1_block() {
    let pcfg = DagHetPartConfig::default().partition_cfg;
    let (mut blocks, mut exact, mut topo_wins) = (0, 0, 0);
    for (family, tasks) in PRICED {
        let g = &WorkflowInstance::simulated(family, tasks, 17).graph;
        for kp in [2usize, 12, 36] {
            for block in steps::partition::initial_blocks(g, kp, &pcfg).iter() {
                let members = &block.members;
                let bounds = dhp_memdag::block_bounds(g, members);
                let r = dhp_memdag::block_peak(g, members);
                let at = format!("{} {tasks} k'={kp} n={}", family.name(), members.len());
                assert!(bounds.lo <= r && r <= bounds.hi, "{at}: {bounds:?} vs {r}");
                if r == bounds.hi {
                    assert_eq!(r.to_bits(), bounds.hi.to_bits(), "{at}");
                    topo_wins += 1;
                }
                if bounds.is_exact() {
                    assert_eq!(bounds.lo.to_bits(), r.to_bits(), "{at}");
                    exact += 1;
                }
                blocks += 1;
            }
        }
    }
    assert!(exact > 0 && exact < blocks, "{exact} exact of {blocks}");
    assert!(2 * topo_wins > blocks, "{topo_wins} of {blocks}");
}

#[test]
#[ignore = "rewrites tests/golden/offline_golden.txt"]
fn record() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/offline_golden.txt"
    );
    std::fs::write(path, compute()).unwrap();
}
