//! The arrival-facts table against the three direct walks.
//!
//! The table recognises a graph by its address, so a repeat that shares
//! its graph (a clone of one `WorkflowInstance`) is found, and a
//! separately built copy is a first sight of its own. Either way every
//! queue entry must carry exactly what the direct walks say about its
//! graph.

use crate::state::{ArrivalFacts, Pending};
use crate::submission::{repeating_stream, single_task, Submission};
use dhp_core::fitting::max_task_requirement;
use dhp_dag::{Dag, NodeId};
use dhp_wfgen::arrivals::{mixed_workload, ArrivalProcess};
use dhp_wfgen::{Family, WorkflowInstance};
use std::collections::HashSet;
use std::sync::Arc;

/// Builds the queue entry through `seen` and holds every field of it to
/// what the direct functions say about the very graph it carries.
fn pending_checked(sub: Submission, seen: &mut ArrivalFacts, ctx: &str) -> Pending {
    let sub = Arc::new(sub);
    let p = Pending::new(Arc::clone(&sub), seen);
    let g = &sub.instance.graph;
    assert_eq!((p.id, p.requeues), (sub.id, 0), "{ctx}");
    assert_eq!(p.arrival.to_bits(), sub.arrival.to_bits(), "{ctx}");
    assert_eq!(
        p.total_work.to_bits(),
        g.total_work().to_bits(),
        "{ctx}: total_work"
    );
    assert_eq!(
        p.max_task_req.to_bits(),
        max_task_requirement(g).to_bits(),
        "{ctx}: max_task_req"
    );
    assert_eq!(p.fingerprint, g.fingerprint(), "{ctx}: fingerprint");
    assert!(Arc::ptr_eq(&p.submission, &sub), "{ctx}: not its own Arc");
    p
}

fn submission(id: usize, name: &str, graph: Arc<Dag>) -> Submission {
    let mut sub = single_task(id, id as f64, 1.0, 1.0, name);
    sub.instance.graph = graph;
    sub
}

#[test]
fn repeat_heavy_streams_get_the_direct_facts() {
    for seed in 0..5u64 {
        for unique in [1usize, 3, 8] {
            // The stream's repeats share their recipe's graph and are
            // recognised by address; copied, each position holds a
            // graph of its own and is a first sight.
            for copied in [false, true] {
                let mut seen = ArrivalFacts::new();
                let subs = repeating_stream(
                    unique,
                    5 * unique + 2,
                    &Family::ALL,
                    (8, 70),
                    &ArrivalProcess::Poisson { rate: 0.5 },
                    seed,
                );
                let arrivals = subs.len();
                let mut fingerprints = HashSet::new();
                for mut sub in subs {
                    if copied {
                        sub.instance.graph = Dag::clone(&sub.instance.graph).into();
                    }
                    let ctx = format!(
                        "seed {seed}, {unique} recipes, copied {copied}, id {}",
                        sub.id
                    );
                    fingerprints.insert(pending_checked(sub, &mut seen, &ctx).fingerprint);
                }
                assert_eq!(fingerprints.len(), unique, "the recipes are distinct");
                let entries = if copied { arrivals } else { unique };
                assert_eq!(
                    seen.distinct(),
                    entries,
                    "copied {copied}: one entry per graph, however often it came"
                );
            }
        }
    }
}

/// `0 → 1 → 3`, `0 → 2 → 3`, `1 → 2`, with the edges inserted in the
/// order `edge_order` lists them.
fn kite(edge_order: &[usize]) -> Dag {
    const EDGES: [(u32, u32, f64); 5] = [
        (0, 1, 1.5),
        (0, 2, 2.5),
        (1, 3, 3.5),
        (2, 3, 4.5),
        (1, 2, 0.75),
    ];
    let mut g = Dag::new();
    for (work, memory) in [(3.0, 10.0), (5.0, 20.0), (7.0, 30.0), (11.0, 40.0)] {
        g.add_node(work, memory);
    }
    for &i in edge_order {
        let (s, d, v) = EDGES[i];
        g.add_edge(NodeId(s), NodeId(d), v);
    }
    g
}

fn flip_lowest_bit(x: &mut f64) {
    *x = f64::from_bits(x.to_bits() ^ 1);
}

#[test]
fn near_misses_are_told_apart_and_relabelled_copies_are_not() {
    let base = || kite(&[0, 1, 2, 3, 4]);
    let mut near: Vec<(&str, Dag)> = Vec::new();
    let mut g = base();
    flip_lowest_bit(&mut g.node_mut(NodeId(2)).work);
    near.push(("one work bit", g));
    let mut g = base();
    flip_lowest_bit(&mut g.node_mut(NodeId(3)).memory);
    near.push(("one memory bit", g));
    let mut g = base();
    let e = g.edge_between(NodeId(2), NodeId(3)).expect("kite edge");
    flip_lowest_bit(&mut g.edge_mut(e).volume);
    near.push(("one volume bit", g));
    // The last edge, `1 → 2`, becomes `1 → 3`: same counts, same
    // weights, one endpoint moved.
    let mut g = kite(&[0, 1, 2, 3]);
    g.add_edge(NodeId(1), NodeId(3), 0.75);
    near.push(("one edge endpoint", g));
    let mut g = base();
    g.add_edge(NodeId(0), NodeId(3), 0.25);
    near.push(("one extra edge", g));
    // The same five edges, stored in another order (so sums over a
    // task's edges may round differently).
    near.push(("edges inserted in another order", kite(&[4, 3, 2, 1, 0])));

    let mut seen = ArrivalFacts::new();
    pending_checked(submission(0, "kite", base().into()), &mut seen, "base");
    assert_eq!(seen.distinct(), 1);
    for (i, (what, g)) in near.into_iter().enumerate() {
        let g = Arc::new(g);
        pending_checked(submission(1 + i, "kite", Arc::clone(&g)), &mut seen, what);
        assert_eq!(
            seen.distinct(),
            2 + i,
            "{what}: taken for a graph seen before"
        );
        // ...and each near-miss is itself recognised when it repeats.
        pending_checked(submission(100 + i, "kite", g), &mut seen, what);
        assert_eq!(seen.distinct(), 2 + i, "{what}: its own repeat was missed");
    }

    // Task labels and the instance name are not content: a relabelled
    // copy is a first sight of its own, with the base graph's facts.
    let entries = seen.distinct();
    let mut relabelled = base();
    for u in relabelled.node_ids() {
        relabelled.set_label(u, Some(&format!("task-{u}")));
    }
    let p = pending_checked(
        submission(200, "another-name", relabelled.into()),
        &mut seen,
        "relabelled",
    );
    assert_eq!(p.fingerprint, base().fingerprint());
    assert_eq!(seen.distinct(), entries + 1);
}

#[test]
fn a_requeued_submission_is_recognised_by_its_own_witness() {
    // The requeue arm hands the table the very `Arc` a placement held.
    let mut seen = ArrivalFacts::new();
    let sub = Arc::new(submission(4, "victim", kite(&[0, 1, 2, 3, 4]).into()));
    let first = Pending::new(Arc::clone(&sub), &mut seen);
    let again = Pending {
        requeues: first.requeues + 1,
        ..Pending::new(Arc::clone(&sub), &mut seen)
    };
    assert_eq!(seen.distinct(), 1);
    assert_eq!((again.id, again.requeues), (4, 1));
    assert_eq!(again.arrival.to_bits(), first.arrival.to_bits());
    assert_eq!(again.total_work.to_bits(), first.total_work.to_bits());
    assert_eq!(again.max_task_req.to_bits(), first.max_task_req.to_bits());
    assert_eq!(again.fingerprint, first.fingerprint);
}

#[test]
fn a_warm_backlog_trace_derives_each_recipe_once() {
    // The shape of one trace of the benchmark's `online_warm_backlog`:
    // 5,600 submissions drawn from 60 recipes of 8 to 48 tasks, each a
    // clone of its recipe and so sharing its graph. Only a first sight
    // walks the graph and adds an entry; every repeat is recognised by
    // address.
    let recipes = mixed_workload(
        60,
        &[Family::Blast, Family::Seismology, Family::Genome],
        (8, 48),
        17,
    );
    let mut seen = ArrivalFacts::new();
    for id in 0..5_600 {
        let sub = Submission {
            id,
            arrival: id as f64 * 25.0,
            instance: recipes[id * 37 % recipes.len()].clone(),
        };
        pending_checked(sub, &mut seen, "warm backlog");
    }
    assert_eq!(seen.distinct(), 60, "one derivation per recipe");
}

/// The benchmark's `online_cold` catalogue: 1,650 recipes of 8 to 48
/// tasks over five families.
fn cold_catalogue() -> Vec<WorkflowInstance> {
    mixed_workload(
        1_650,
        &[
            Family::Blast,
            Family::Seismology,
            Family::Genome,
            Family::Epigenomics,
            Family::Montage,
        ],
        (8, 48),
        17,
    )
}

#[test]
fn a_cold_trace_derives_every_submission() {
    // The shape of the benchmark's `online_cold`: every recipe of its
    // catalogue submitted once. Every arrival is a first sight, and no
    // two recipes are content-equal (their fingerprints differ), so
    // recognising copies by content would find nothing.
    let mut seen = ArrivalFacts::new();
    let mut fingerprints = HashSet::new();
    for (id, recipe) in cold_catalogue().into_iter().enumerate() {
        let sub = Submission {
            id,
            arrival: id as f64 * 300.0,
            instance: recipe,
        };
        fingerprints.insert(pending_checked(sub, &mut seen, "cold").fingerprint);
    }
    assert_eq!(fingerprints.len(), 1_650, "two recipes share a graph");
    assert_eq!(seen.distinct(), 1_650, "one derivation per submission");
}

/// `(keys sharing a bucket with an earlier key, largest bucket)` when
/// `hashes` are placed by their low bits in a table of `buckets`, as a
/// `HashMap` places them.
fn spread(hashes: &[u64], buckets: usize) -> (usize, usize) {
    let mut load = vec![0usize; buckets];
    for &h in hashes {
        load[h as usize & (buckets - 1)] += 1;
    }
    let occupied = load.iter().filter(|&&l| l > 0).count();
    (hashes.len() - occupied, load.into_iter().max().unwrap_or(0))
}

/// The table folds graph addresses (`FoldState`), whose low bits are
/// alignment zeros; keyed by the raw address, 1,650 graphs shared a
/// bucket with another 1,522 times in a 2,048-bucket table (SipHash:
/// about 520). With those bits shifted out the fold must spread like
/// SipHash does, at the table size and at 2× and 4× it.
#[test]
fn the_address_keys_of_a_cold_trace_spread_like_siphash() {
    use dhp_dag::fingerprint::FoldState;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{BuildHasher, BuildHasherDefault};
    let recipes = cold_catalogue();
    let mut seen = ArrivalFacts::new();
    for (id, recipe) in recipes.iter().enumerate() {
        let sub = Submission {
            id,
            arrival: 0.0,
            instance: recipe.clone(),
        };
        Pending::new(Arc::new(sub), &mut seen);
    }
    let keys: Vec<usize> = seen.keys().collect();
    let fold: Vec<u64> = keys.iter().map(|k| FoldState.hash_one(k)).collect();
    let sip: Vec<u64> = keys
        .iter()
        .map(|k| BuildHasherDefault::<DefaultHasher>::default().hash_one(k))
        .collect();
    let table = (keys.len() * 8 / 7).next_power_of_two();
    for buckets in [table, 2 * table, 4 * table] {
        let (fold_shared, fold_max) = spread(&fold, buckets);
        let (sip_shared, sip_max) = spread(&sip, buckets);
        assert!(
            fold_shared * 4 <= sip_shared * 5 + 8 && fold_max <= sip_max + 2,
            "{} keys in {buckets} buckets: the fold shares {fold_shared} (largest {fold_max}), \
             SipHash {sip_shared} (largest {sip_max})",
            keys.len()
        );
    }
}
