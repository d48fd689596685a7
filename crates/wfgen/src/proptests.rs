//! Property-based tests for the generator and the WfCommons exchange.

use crate::wfcommons::{from_json, to_json, ImportConfig, GIB};
use crate::{Family, SizeClass, WorkflowInstance};
use dhp_dag::cycles::is_cyclic;
use dhp_dag::Dag;
use proptest::prelude::*;
use std::sync::Arc;

fn any_family() -> impl Strategy<Value = Family> {
    proptest::sample::select(Family::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn generated_instances_are_acyclic_singlesource_weighted(
        family in any_family(),
        n in 50usize..400,
        seed in any::<u64>(),
    ) {
        let inst = WorkflowInstance::simulated(family, n, seed);
        let g = &inst.graph;
        prop_assert!(!is_cyclic(g));
        prop_assert!(g.node_count() > 0);
        // §5.1.1 weight ranges.
        for u in g.node_ids() {
            prop_assert!(g.node(u).work >= 1.0 && g.node(u).work <= 1000.0);
            prop_assert!(g.node(u).memory >= 1.0 && g.node(u).memory <= 192.0);
        }
        for e in g.edge_ids() {
            prop_assert!(g.edge(e).volume >= 1.0 && g.edge(e).volume <= 10.0);
        }
        // No dangling tasks: everything reachable from some source.
        prop_assert!(g.sources().count() >= 1);
        prop_assert_eq!(inst.size_class, SizeClass::of_size(n));
    }

    #[test]
    fn a_recipe_generated_twice_is_content_equal_and_shares_every_derived_fact(
        family in any_family(),
        n in 8usize..120,
        seed in any::<u64>(),
    ) {
        // What repeat traffic looks like to the online engine: the same
        // recipe instantiated again, under another name.
        let a = WorkflowInstance::simulated(family, n, seed).graph;
        let mut b = Arc::unwrap_or_clone(WorkflowInstance::simulated(family, n, seed).graph);
        for u in b.node_ids() {
            b.set_label(u, None);
        }
        prop_assert!(a.content_eq(&b) && b.content_eq(&a));
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
        prop_assert_eq!(a.total_work().to_bits(), b.total_work().to_bits());
        for u in a.node_ids() {
            prop_assert_eq!(a.task_requirement(u).to_bits(), b.task_requirement(u).to_bits());
        }
        // Other weights on the same topology are another content.
        let c = WorkflowInstance::simulated(family, n, seed ^ 1).graph;
        prop_assert!(!a.content_eq(&c));
        prop_assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn wfcommons_roundtrip_preserves_everything(
        family in any_family(),
        n in 50usize..300,
        seed in any::<u64>(),
    ) {
        let inst = WorkflowInstance::simulated(family, n, seed);
        let back = from_json(&to_json(&inst, GIB).unwrap(), &ImportConfig::default())
            .expect("roundtrip import");
        let (a, b) = (&inst.graph, &back.graph);
        prop_assert_eq!(a.node_count(), b.node_count());
        prop_assert_eq!(a.edge_count(), b.edge_count());
        let close = |x: f64, y: f64| (x - y).abs() <= 1e-6 * x.abs().max(1.0);
        prop_assert!(close(a.total_work(), b.total_work()));
        prop_assert!(close(a.total_memory(), b.total_memory()));
        prop_assert!(close(a.total_volume(), b.total_volume()));
        // Degree sequences survive (labels give a stable identification).
        let mut da: Vec<(usize, usize)> =
            a.node_ids().map(|u| (a.in_degree(u), a.out_degree(u))).collect();
        let mut db: Vec<(usize, usize)> =
            b.node_ids().map(|u| (b.in_degree(u), b.out_degree(u))).collect();
        da.sort_unstable();
        db.sort_unstable();
        prop_assert_eq!(da, db);
    }

    #[test]
    fn wfcommons_roundtrip_keeps_labels_set_overwritten_and_cleared(
        family in any_family(),
        n in 20usize..120,
        seed in any::<u64>(),
        edits in proptest::collection::vec((any::<u32>(), 0u8..3), 0..40),
    ) {
        // Generator labels, some overwritten (twice, when a task is hit
        // again), some cleared: a cleared task is exported as
        // `task<index>` and read back under that name.
        let mut inst = WorkflowInstance::simulated(family, n, seed);
        let g = Arc::make_mut(&mut inst.graph);
        for (step, &(pick, what)) in edits.iter().enumerate() {
            let u = dhp_dag::NodeId(pick % g.node_count() as u32);
            match what {
                0 => g.set_label(u, None),
                _ => g.set_label(u, Some(&format!("renamed-{u}-{step}"))),
            }
        }
        let back = from_json(&to_json(&inst, GIB).unwrap(), &ImportConfig::default())
            .expect("roundtrip import");
        let g = &inst.graph;
        prop_assert_eq!(back.graph.node_count(), g.node_count());
        for u in g.node_ids() {
            let want = g.label(u).map_or_else(|| format!("task{}", u.idx()), str::to_string);
            prop_assert_eq!(back.graph.label(u), Some(want.as_str()));
        }
        // A clone keeps every label.
        let copy = Dag::clone(g);
        prop_assert!(g.node_ids().all(|u| copy.label(u) == g.label(u)));
    }

    #[test]
    fn roundtrip_with_alternative_byte_scale(
        n in 50usize..200,
        seed in any::<u64>(),
        scale_pow in 10u32..34,
    ) {
        // Exporting at any byte scale and importing at the same scale is
        // the identity on weights.
        let scale = f64::from(2u32).powi(scale_pow as i32);
        let inst = WorkflowInstance::simulated(Family::Blast, n, seed);
        let cfg = ImportConfig { bytes_per_unit: scale, ..ImportConfig::default() };
        let back = from_json(&to_json(&inst, scale).unwrap(), &cfg).expect("roundtrip");
        let close = |x: f64, y: f64| (x - y).abs() <= 1e-6 * x.abs().max(1.0);
        prop_assert!(close(inst.graph.total_memory(), back.graph.total_memory()));
        prop_assert!(close(inst.graph.total_volume(), back.graph.total_volume()));
    }

    #[test]
    fn work_scaling_is_linear(
        family in any_family(),
        seed in any::<u64>(),
        factor in 0.5f64..8.0,
    ) {
        let mut inst = WorkflowInstance::simulated(family, 100, seed);
        let before = inst.graph.total_work();
        inst.scale_work(factor);
        prop_assert!((inst.graph.total_work() - factor * before).abs()
            <= 1e-9 * before * factor.max(1.0));
    }
}
