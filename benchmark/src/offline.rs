//! Offline workloads: each instance is mapped alone onto an idle
//! platform, as in the paper's evaluation.

use crate::metrics::Values;
use crate::run::CallSummary;
use crate::stats::ratio;
use crate::trace::Recorder;
use crate::workloads::OfflineInstance;
use dhp_core::blocks::BlockSet;
use dhp_core::makespan::{blockset_makespan, makespan_of_mapping};
use dhp_core::mapping::validate;
use dhp_core::{dag_het_mem, dag_het_part, steps, DagHetPartConfig, MappingResult};
use dhp_dag::fingerprint::{fnv1a_u64, FNV_OFFSET};
use dhp_dag::QuotientGraph;

/// Relative slack when two makespans computed along different code
/// paths are compared (the solver's own tie tolerance is absolute
/// 1e-12 on values of this magnitude).
const REL_EPS: f64 = 1e-9;

/// What the timed call produced for one instance.
#[derive(Clone, Debug)]
pub struct InstanceOutcome {
    pub part: Option<MappingResult>,
    /// `mapping::validate` on DagHetPart's mapping.
    pub part_valid: bool,
    /// Makespan of DagHetMem's mapping.
    pub mem_makespan: Option<f64>,
    /// `mapping::validate` on DagHetMem's mapping.
    pub mem_valid: bool,
}

/// One call: what a user of the offline solver does with an instance —
/// DagHetPart (default config, so the k' sweep fans out over the
/// program's own threads), the DagHetMem baseline it is compared
/// against, and validation of both mappings.
pub fn solve(i: &OfflineInstance) -> InstanceOutcome {
    let (g, cluster) = (&i.instance.graph, &i.cluster);
    let part = dag_het_part(g, cluster, &DagHetPartConfig::default()).ok();
    let part_valid = part
        .as_ref()
        .is_some_and(|r| validate(g, cluster, &r.mapping).is_ok());
    let mem = dag_het_mem(g, cluster).ok();
    let mem_valid = mem
        .as_ref()
        .is_some_and(|m| validate(g, cluster, m).is_ok());
    let mem_makespan = mem.map(|m| makespan_of_mapping(g, cluster, &m));
    InstanceOutcome {
        part,
        part_valid,
        mem_makespan,
        mem_valid,
    }
}

/// Digest of everything deterministic the call produced.
fn digest(o: &InstanceOutcome) -> u64 {
    let (ms, kp) = o.part.as_ref().map_or((u64::MAX, u64::MAX), |r| {
        (r.makespan.to_bits(), r.kprime as u64)
    });
    let mem = o.mem_makespan.map_or(u64::MAX, f64::to_bits);
    [ms, kp, mem, o.part_valid as u64, o.mem_valid as u64]
        .into_iter()
        .fold(FNV_OFFSET, fnv1a_u64)
}

/// What is kept of a call once its output is dropped. The instance's
/// term of the paper's headline — 100·makespan(DagHetPart) ÷
/// makespan(DagHetMem) — counts only against a baseline mapping that
/// validates: a schedule that cannot run is no yardstick, so such an
/// instance is left out of the geometric mean and counted as
/// `baseline_invalid` beside it. Offline nothing queues: the workflow
/// has the idle platform to itself, so its stretch is 1.
pub fn summary(i: &OfflineInstance, o: &InstanceOutcome, check: bool) -> CallSummary {
    let ratio = match (&o.part, o.mem_makespan) {
        (Some(p), Some(mem)) if o.mem_valid => Some(100.0 * p.makespan / mem),
        _ => None,
    };
    let failed = check
        && check_instance(i, o)
            .map_err(|why| eprintln!("failed: {}: {why}", i.instance.name))
            .is_err();
    CallSummary {
        digest: digest(o),
        ln_ratio_sum: ratio.map_or(0.0, f64::ln),
        ratios: ratio.is_some() as usize,
        stretch_sum: 1.0,
        completed: 1,
        baseline_invalid: (o.mem_makespan.is_some() && !o.mem_valid) as usize,
        failed: failed as usize,
    }
}

/// The output oracle, outside the timed region: an instance passes when
/// both heuristics found a mapping, DagHetPart's validates, the model
/// makespan re-derived from it equals the one reported, and the
/// simulated execution finishes no later than the model says (paper
/// §3.3).
fn check_instance(i: &OfflineInstance, o: &InstanceOutcome) -> Result<(), String> {
    let (g, cluster) = (&i.instance.graph, &i.cluster);
    let part = o.part.as_ref().ok_or("DagHetPart found no mapping")?;
    o.mem_makespan.ok_or("DagHetMem found no mapping")?;
    if !o.part_valid {
        return Err("DagHetPart's mapping does not validate".into());
    }
    let rederived = makespan_of_mapping(g, cluster, &part.mapping);
    if (rederived - part.makespan).abs() > REL_EPS * part.makespan {
        return Err(format!(
            "reported makespan {} but the mapping's is {rederived}",
            part.makespan
        ));
    }
    let sim = dhp_sim::simulate(g, cluster, &part.mapping);
    if sim.makespan > part.makespan * (1.0 + REL_EPS) {
        return Err(format!(
            "simulated {} exceeds the model's {}",
            sim.makespan, part.makespan
        ));
    }
    Ok(())
}

/// Winner of one re-driven sweep.
struct Winner {
    makespan: f64,
    kprime: usize,
    blocks: BlockSet,
}

/// The traced repetition: re-drives DagHetPart's per-k' pipeline from
/// the public step functions, sequentially, one span per step, and
/// checks the winner against `dag_het_part`'s own; then one span per
/// neighbouring layer (baseline, validation, HEFT, dagP, memDag,
/// simulator). Returns the per-layer values and how many instances'
/// re-driven winner disagreed with the solver. Instances are visited
/// in `order`; a span's `request` is the instance's index.
pub fn traced_repetition(
    instances: &[OfflineInstance],
    order: &[usize],
    rec: &mut Recorder,
) -> (Values, usize) {
    let cfg = DagHetPartConfig::default();
    let mut mismatches = 0;
    let mut attempted = 0usize;
    let mut valid = 0usize;
    let mut merge_failed = 0usize;
    let mut merge_failed_s = 0.0;
    let mut blocks_out = 0usize;
    let mut moves = 0usize;
    let mut edge_cut_shares = Vec::new();
    let mut model_gaps = Vec::new();
    let mut baseline_invalid = 0usize;

    for &request in order {
        let i = &instances[request];
        let (g, cluster) = (&i.instance.graph, &i.cluster);
        let root = rec.open("instance", None, request);

        // The default (threaded) call: the end-to-end reference.
        let reference = rec.time("core.daghetpart.default", Some(root), request, || {
            dag_het_part(g, cluster, &cfg).ok()
        });

        // The same sweep, one k' at a time, one span per step.
        let sweep = rec.open("core.sweep.sequential", Some(root), request);
        let mut best: Option<Winner> = None;
        for kprime in 1..=cluster.len().min(g.node_count()) {
            attempted += 1;
            let one = rec.open("core.sweep.kprime", Some(sweep), request);
            let bs = rec.time("core.steps.partition", Some(one), request, || {
                steps::partition::initial_blocks(g, kprime, &cfg.partition_cfg)
            });
            let mut bs = rec.time("core.steps.assign", Some(one), request, || {
                steps::assign::biggest_assign(g, cluster, bs, &cfg.partition_cfg)
            });
            blocks_out += bs.len();
            let merge = rec.open("core.steps.merge", Some(one), request);
            let merged =
                steps::merge::merge_unassigned(g, cluster, &mut bs, cfg.enable_triple_merge);
            rec.close(merge);
            if merged.is_err() {
                merge_failed += 1;
                merge_failed_s += rec.span(merge).seconds();
                rec.close(one);
                continue;
            }
            moves += rec.time("core.steps.swap", Some(one), request, || {
                steps::swap::swap_blocks(g, cluster, &mut bs)
                    + steps::swap::idle_moves(g, cluster, &mut bs)
            });
            let makespan = rec.time("core.makespan", Some(one), request, || {
                blockset_makespan(g, &bs, cluster)
            });
            rec.close(one);
            valid += 1;
            // The solver's own rule: smaller makespan, ties to smaller k'.
            let better = best.as_ref().is_none_or(|b| {
                makespan < b.makespan - 1e-12
                    || (makespan <= b.makespan + 1e-12 && kprime < b.kprime)
            });
            if better {
                best = Some(Winner {
                    makespan,
                    kprime,
                    blocks: bs,
                });
            }
        }
        rec.close(sweep);

        let agrees = match (&reference, &best) {
            (Some(r), Some(w)) => {
                r.kprime == w.kprime && (r.makespan - w.makespan).abs() <= REL_EPS * r.makespan
            }
            (None, None) => true,
            _ => false,
        };
        if !agrees {
            mismatches += 1;
        }

        let mem = rec.time("core.baseline", Some(root), request, || {
            dag_het_mem(g, cluster).ok().map(|m| {
                let makespan = makespan_of_mapping(g, cluster, &m);
                (m, makespan)
            })
        });
        if let Some((m, _)) = &mem {
            let ok = rec.time("core.mapping.validate", Some(root), request, || {
                validate(g, cluster, m).is_ok()
            });
            if !ok {
                baseline_invalid += 1;
            }
        }
        rec.time("core.heft", Some(root), request, || {
            dhp_core::heft::heft(g, cluster).makespan
        });
        rec.time("memdag.traversal", Some(root), request, || {
            dhp_memdag::best_traversal(g, &vec![0.0; g.node_count()]).peak
        });
        for k in [2, 8, 36] {
            let p = rec.time("dagp.partition", Some(root), request, || {
                dhp_dagp::partition(g, k, &cfg.partition_cfg)
            });
            edge_cut_shares.push(ratio(
                QuotientGraph::build(g, &p).edge_cut(),
                g.total_volume(),
            ));
        }
        if let Some(w) = &best {
            let mapping = w.blocks.to_mapping(g.node_count());
            let ok = rec.time("core.mapping.validate", Some(root), request, || {
                validate(g, cluster, &mapping).is_ok()
            });
            if !ok {
                mismatches += 1;
            }
            for block in w.blocks.iter() {
                rec.time("memdag.traversal", Some(root), request, || {
                    dhp_core::blockmem::block_requirement(g, &block.members)
                });
            }
            let sim = rec.time("sim.simulate", Some(root), request, || {
                dhp_sim::simulate(g, cluster, &mapping).makespan
            });
            model_gaps.push(100.0 * (w.makespan - sim) / w.makespan);
        }
        rec.close(root);
    }

    let sequential = rec.busy("core.sweep.kprime");
    let steps_s = rec.busy("core.steps.partition")
        + rec.busy("core.steps.assign")
        + rec.busy("core.steps.merge")
        + rec.busy("core.steps.swap")
        + rec.busy("core.makespan");
    let mut v = Values::default();
    v.set(
        "core.steps.partition.busy_s",
        rec.busy("core.steps.partition"),
    );
    v.set(
        "core.steps.partition.calls",
        rec.calls("core.steps.partition") as f64,
    );
    v.set("core.steps.assign.busy_s", rec.busy("core.steps.assign"));
    v.set("core.steps.assign.blocks_out", blocks_out as f64);
    v.set("core.steps.merge.busy_s", rec.busy("core.steps.merge"));
    v.set(
        "core.steps.merge.failed_share",
        ratio(merge_failed as f64, attempted as f64),
    );
    v.set("core.steps.merge.failed_busy_s", merge_failed_s);
    v.set("core.steps.swap.busy_s", rec.busy("core.steps.swap"));
    v.set("core.steps.swap.moves", moves as f64);
    v.set(
        "core.sweep.useful_share",
        ratio(valid as f64, attempted as f64),
    );
    v.set(
        "core.sweep.parallel_speedup",
        ratio(sequential, rec.busy("core.daghetpart.default")),
    );
    v.set("core.sweep.span_coverage", ratio(steps_s, sequential));
    v.set("core.makespan.busy_s", rec.busy("core.makespan"));
    v.set("core.baseline.busy_s", rec.busy("core.baseline"));
    v.set(
        "core.baseline.invalid_share",
        ratio(baseline_invalid as f64, instances.len() as f64),
    );
    v.set("core.mapping.validate_s", rec.busy("core.mapping.validate"));
    v.set("core.heft.busy_s", rec.busy("core.heft"));
    v.set("dagp.partition.busy_s", rec.busy("dagp.partition"));
    v.set(
        "dagp.partition.edge_cut_share",
        ratio(edge_cut_shares.iter().sum(), edge_cut_shares.len() as f64),
    );
    v.set("memdag.traversal.busy_s", rec.busy("memdag.traversal"));
    v.set(
        "memdag.traversal.calls",
        rec.calls("memdag.traversal") as f64,
    );
    v.set("sim.simulate.busy_s", rec.busy("sim.simulate"));
    v.set(
        "sim.model_gap_pct",
        ratio(model_gaps.iter().sum(), model_gaps.len() as f64),
    );
    (v, mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{generate, Inputs, Kind, WORKLOADS};

    fn small_offline() -> Vec<OfflineInstance> {
        let kind = WORKLOADS
            .iter()
            .map(|w| w.kind)
            .find(|k| matches!(k, Kind::Offline(_)))
            .unwrap();
        match generate(&kind, 20).inputs {
            Inputs::Offline(v) => v.into_iter().take(3).collect(),
            Inputs::Online(_) => unreachable!(),
        }
    }

    #[test]
    fn calls_repeat_and_pass_the_oracle() {
        for i in small_offline() {
            let (a, b) = (solve(&i), solve(&i));
            let s = summary(&i, &a, true);
            assert_eq!(s.digest, summary(&i, &b, false).digest);
            assert_eq!((s.failed, s.ratios, s.completed), (0, 1, 1));
            let pct = s.ln_ratio_sum.exp();
            assert!(pct > 0.0 && pct <= 100.0 + 1e-9, "{pct}");
        }
    }

    #[test]
    fn the_oracle_counts_a_broken_output_as_failed() {
        let i = &small_offline()[0];
        let good = solve(i);
        let mut wrong_makespan = good.clone();
        wrong_makespan.part.as_mut().unwrap().makespan *= 0.5;
        assert_eq!(summary(i, &wrong_makespan, true).failed, 1);
        assert_eq!(summary(i, &wrong_makespan, false).failed, 0);
        let mut invalid = good.clone();
        invalid.part_valid = false;
        assert_eq!(summary(i, &invalid, true).failed, 1);
    }

    #[test]
    fn an_invalid_baseline_is_left_out_of_the_ratio_and_counted() {
        let i = &small_offline()[0];
        let mut o = solve(i);
        o.mem_valid = false;
        let s = summary(i, &o, true);
        assert_eq!((s.ratios, s.baseline_invalid, s.failed), (0, 1, 0));
        assert_eq!(s.ln_ratio_sum, 0.0);
    }

    #[test]
    fn the_redriven_sweep_finds_the_solvers_winner() {
        let instances = small_offline();
        let mut rec = Recorder::new();
        let (v, mismatches) = traced_repetition(&instances, &[2, 0, 1], &mut rec);
        assert_eq!(mismatches, 0);
        assert!(v.get("core.sweep.span_coverage").unwrap() > 0.5);
        assert!(v.get("core.steps.partition.calls").unwrap() >= 3.0);
        assert!(v.get("core.sweep.useful_share").unwrap() > 0.0);
    }
}
