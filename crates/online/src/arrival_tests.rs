//! The arrival-facts table against the three direct walks.
//!
//! Every check runs twice: on the table the serve loop builds, and on
//! one whose pre-hash puts every graph in the same bucket — there
//! `Dag::content_eq` is the only thing telling graphs apart, which is
//! the claim the table's correctness rests on.

use crate::state::{ArrivalFacts, Pending};
use crate::submission::{repeating_stream, single_task, Submission};
use dhp_core::fitting::max_task_requirement;
use dhp_dag::{Dag, NodeId};
use dhp_wfgen::arrivals::ArrivalProcess;
use dhp_wfgen::Family;
use std::collections::HashSet;
use std::sync::Arc;

type FreshTable = fn() -> ArrivalFacts;

const TABLES: [(&str, FreshTable); 2] = [
    ("content pre-hash", ArrivalFacts::new),
    ("one bucket", ArrivalFacts::with_one_bucket),
];

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

fn submission(id: usize, name: &str, graph: Dag) -> Submission {
    let mut sub = single_task(id, id as f64, 1.0, 1.0, name);
    sub.instance.graph = graph.into();
    sub
}

#[test]
fn repeat_heavy_streams_get_the_direct_facts() {
    for (table, fresh) in TABLES {
        for seed in 0..5u64 {
            for unique in [1usize, 3, 8] {
                let mut seen = fresh();
                // Every position of the stream holds its own deep copy
                // of its recipe, as a caller's `Vec<Submission>` does.
                let subs = repeating_stream(
                    unique,
                    5 * unique + 2,
                    &Family::ALL,
                    (8, 70),
                    &ArrivalProcess::Poisson { rate: 0.5 },
                    seed,
                );
                let mut fingerprints = HashSet::new();
                for sub in subs {
                    let ctx = format!("{table}, seed {seed}, {unique} recipes, id {}", sub.id);
                    fingerprints.insert(pending_checked(sub, &mut seen, &ctx).fingerprint);
                }
                assert_eq!(fingerprints.len(), unique, "the recipes are distinct");
                assert_eq!(
                    seen.distinct(),
                    unique,
                    "{table}: one entry per recipe, however often it came"
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
    // The same five edges, stored in another order: a different
    // content (and different adjacency-list orders, so sums over a
    // task's edges may round differently) — recomputed, not matched.
    near.push(("edges inserted in another order", kite(&[4, 3, 2, 1, 0])));

    for (table, fresh) in TABLES {
        let mut seen = fresh();
        pending_checked(submission(0, "kite", base()), &mut seen, table);
        assert_eq!(seen.distinct(), 1);
        for (i, (what, g)) in near.iter().enumerate() {
            let ctx = format!("{table}: {what}");
            pending_checked(submission(1 + i, "kite", g.clone()), &mut seen, &ctx);
            assert_eq!(
                seen.distinct(),
                2 + i,
                "{ctx}: taken for a graph seen before"
            );
            // ...and each near-miss is itself recognised when it repeats.
            pending_checked(submission(100 + i, "kite", g.clone()), &mut seen, &ctx);
            assert_eq!(seen.distinct(), 2 + i, "{ctx}: its own repeat was missed");
        }

        // Task labels and the instance name are not content.
        let entries = seen.distinct();
        let mut relabelled = base();
        for u in relabelled.node_ids() {
            relabelled.set_label(u, Some(&format!("task-{u}")));
        }
        let p = pending_checked(
            submission(200, "another-name", relabelled),
            &mut seen,
            table,
        );
        assert_eq!(p.fingerprint, base().fingerprint());
        assert_eq!(
            seen.distinct(),
            entries,
            "{table}: labels split an entry in two"
        );
    }
}

#[test]
fn the_degenerate_table_really_has_one_bucket() {
    // Guards the guard: if `with_one_bucket` ever hashed for real, the
    // two suites above would run the same table twice.
    let a = kite(&[0, 1, 2, 3, 4]);
    let b = dhp_dag::builder::chain(9, 1.0, 2.0, 3.0);
    assert_ne!(a.content_prehash(), b.content_prehash());
    let mut seen = ArrivalFacts::with_one_bucket();
    pending_checked(submission(0, "a", a), &mut seen, "one bucket");
    pending_checked(submission(1, "b", b), &mut seen, "one bucket");
    assert_eq!((seen.distinct(), seen.buckets()), (2, 1));
}

#[test]
fn a_requeued_submission_is_recognised_by_its_own_witness() {
    // The requeue arm hands the table the very `Arc` a placement held.
    for (table, fresh) in TABLES {
        let mut seen = fresh();
        let sub = Arc::new(submission(4, "victim", kite(&[0, 1, 2, 3, 4])));
        let first = Pending::new(Arc::clone(&sub), &mut seen);
        let again = Pending {
            requeues: first.requeues + 1,
            ..Pending::new(Arc::clone(&sub), &mut seen)
        };
        assert_eq!(seen.distinct(), 1, "{table}");
        assert_eq!((again.id, again.requeues), (4, 1));
        assert_eq!(again.arrival.to_bits(), first.arrival.to_bits());
        assert_eq!(again.total_work.to_bits(), first.total_work.to_bits());
        assert_eq!(again.max_task_req.to_bits(), first.max_task_req.to_bits());
        assert_eq!(again.fingerprint, first.fingerprint);
    }
}
