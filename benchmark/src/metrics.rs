//! The metric tables: every name, unit, direction and regression bound
//! the benchmark reports, in one place. `BENCHMARK.json` repeats these
//! for the driver; a unit test keeps the two in step.

use std::collections::BTreeMap;

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a user of the system sees.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
    /// A pure function of the data set: must repeat bit-for-bit, whatever
    /// the seed and whatever the host is doing.
    pub deterministic: bool,
}

/// The seven end-to-end metrics, reported by every workload.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        deterministic: false,
    },
    EndToEnd {
        name: "tasks_per_s",
        unit: "tasks/s",
        better: Better::Higher,
        bound: 0.25,
        deterministic: false,
    },
    EndToEnd {
        name: "makespan_ratio_pct",
        unit: "%",
        better: Better::Lower,
        bound: 0.005,
        deterministic: true,
    },
    EndToEnd {
        name: "mean_stretch",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.01,
        deterministic: true,
    },
    EndToEnd {
        name: "completed_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.001,
        deterministic: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
        deterministic: false,
    },
    EndToEnd {
        name: "cpu_ms_per_ktask",
        unit: "ms/ktask",
        better: Better::Lower,
        bound: 0.25,
        deterministic: false,
    },
];

/// A per-layer metric: `(name, unit, better)`. No bound — these explain
/// a movement in an end-to-end metric, they do not gate anything. A
/// layer a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str, Better); 54] = [
    // DagHetPart's four steps, re-driven per k' from the public step
    // functions (offline workloads).
    ("core.steps.partition.busy_s", "s", Better::Lower),
    ("core.steps.partition.calls", "count", Better::Lower),
    ("core.steps.assign.busy_s", "s", Better::Lower),
    ("core.steps.assign.blocks_out", "count", Better::Lower),
    ("core.steps.merge.busy_s", "s", Better::Lower),
    ("core.steps.merge.failed_share", "ratio", Better::Lower),
    ("core.steps.merge.failed_busy_s", "s", Better::Lower),
    ("core.steps.swap.busy_s", "s", Better::Lower),
    ("core.steps.swap.moves", "count", Better::Higher),
    ("core.sweep.useful_share", "ratio", Better::Higher),
    ("core.sweep.parallel_speedup", "ratio", Better::Higher),
    ("core.sweep.span_coverage", "ratio", Better::Higher),
    ("core.makespan.busy_s", "s", Better::Lower),
    ("core.baseline.busy_s", "s", Better::Lower),
    ("core.baseline.invalid_share", "ratio", Better::Lower),
    ("core.mapping.validate_s", "s", Better::Lower),
    ("core.heft.busy_s", "s", Better::Lower),
    ("dagp.partition.busy_s", "s", Better::Lower),
    ("dagp.partition.edge_cut_share", "ratio", Better::Lower),
    ("memdag.traversal.busy_s", "s", Better::Lower),
    ("memdag.traversal.calls", "count", Better::Lower),
    ("sim.simulate.busy_s", "s", Better::Lower),
    ("sim.model_gap_pct", "%", Better::Lower),
    ("wfgen.generate.busy_s", "s", Better::Lower),
    // The online engine, timed around the one serve call; unit costs
    // from replaying placements through each layer's public entry.
    ("online.engine.busy_s", "s", Better::Lower),
    ("online.engine.residual_s", "s", Better::Lower),
    ("online.engine.residual_share", "ratio", Better::Lower),
    ("online.admission.reservations", "count", Better::Lower),
    (
        "online.admission.reservations_per_sub",
        "ratio",
        Better::Lower,
    ),
    ("core.partial.probes", "count", Better::Lower),
    ("core.partial.hit_share", "ratio", Better::Higher),
    ("core.partial.miss_us", "us", Better::Lower),
    ("core.partial.hit_us", "us", Better::Lower),
    ("core.partial.baseline_solves", "count", Better::Lower),
    ("core.partial.baseline_busy_s", "s", Better::Lower),
    ("sim.runs", "count", Better::Lower),
    ("sim.hit_share", "ratio", Better::Higher),
    ("sim.simulate_us", "us", Better::Lower),
    ("dag.fingerprint_us", "us", Better::Lower),
    ("platform.shape_us", "us", Better::Lower),
    ("core.persist.save_s", "s", Better::Lower),
    ("core.persist.load_s", "s", Better::Lower),
    ("core.persist.bytes", "B", Better::Lower),
    ("online.report.to_json_s", "s", Better::Lower),
    ("online.report.bytes", "B", Better::Lower),
    ("online.federation.busy_s", "s", Better::Lower),
    ("online.federation.spillovers", "count", Better::Lower),
    ("online.federation.spill_per_sub", "ratio", Better::Lower),
    ("online.federation.member_imbalance", "ratio", Better::Lower),
    // Whole-process readings of the traced run.
    ("proc.cpu_over_wall", "ratio", Better::Higher),
    ("trace.wall_s", "s", Better::Lower),
    ("trace.untraced_wall_s", "s", Better::Lower),
    ("trace.overhead_share", "ratio", Better::Lower),
    ("trace.spans", "count", Better::Lower),
];

/// Measured values by metric name. Filled by a run, then checked
/// against one of the tables above before anything is printed.
#[derive(Clone, Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Every `(name, unit)` of `table` in table order, with this run's
    /// value — 0 for a layer the workload did not exercise. Panics on a
    /// value the table does not know: a metric nobody declared.
    pub fn in_table_order(
        &self,
        table: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, &'static str, f64)> {
        for name in self.0.keys() {
            assert!(
                table.iter().any(|(n, _)| n == name),
                "metric {name} is reported but not declared in the table"
            );
        }
        table
            .iter()
            .map(|&(name, unit)| (name, unit, self.get(name).unwrap_or(0.0)))
            .collect()
    }
}

/// `(name, unit)` pairs of the end-to-end table.
pub fn end_to_end_units() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
}

/// `(name, unit)` pairs of the per-layer table.
pub fn per_layer_units() -> Vec<(&'static str, &'static str)> {
    PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in end_to_end_units().into_iter().chain(per_layer_units()) {
            assert!(well_formed(name, 64, "_.-"), "bad name {name}");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(well_formed(unit, 16, "_/%.-"), "bad unit {unit}");
            assert!(seen.insert(name), "{name} declared twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` sits one directory up in the repository; in a
    /// directory that holds only the benchmark it is beside `benchmark/`
    /// too. Every metric and workload it lists must be declared here,
    /// identically.
    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside benchmark/");
        for m in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.name(),
                m.bound
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit, better) in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better.name()
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = text.matches("\"better\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        for w in crate::workloads::WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            text.matches("\"why\":").count(),
            crate::workloads::WORKLOADS.len()
        );
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metrics_are_refused() {
        let mut v = Values::default();
        v.set("made.up", 1.0);
        v.in_table_order(&end_to_end_units());
    }
}
