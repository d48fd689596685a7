//! The shape of every run: one set-up that ends with a full untimed
//! warm-up repetition, then identical timed repetitions, the output
//! oracle on the last of them.

use crate::metrics::Values;
use crate::procfs::{cpu_seconds, peak_rss_mib};
use crate::stats::ratio;
use crate::trace::Recorder;
use crate::workloads::{generate, issue_order, Inputs, Kind};
use crate::{offline, online};
use dhp_dag::fingerprint::{fnv1a_u64, FNV_OFFSET};
use dhp_online::SolveCache;
use std::path::Path;
use std::time::Instant;

/// How large a run is and how often it repeats.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Every input size is divided by this (1 = as declared).
    pub divisor: usize,
    /// Identical timed repetitions after the warm-up one.
    pub repetitions: usize,
}

/// What is kept of one call into the program once its output has been
/// dropped: enough to compute the deterministic metrics and to compare
/// repetitions, small enough that `peak_rss_mb` measures the program and
/// not what the harness hoards.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CallSummary {
    /// Digest of everything deterministic the call returned.
    pub digest: u64,
    /// Σ ln of the call's makespan-ratio terms (each 100·x) …
    pub ln_ratio_sum: f64,
    /// … and how many terms that is.
    pub ratios: usize,
    /// Σ stretch over the call's completed workflows.
    pub stretch_sum: f64,
    pub completed: usize,
    /// Offline: DagHetMem's mapping failed `validate`, so the instance
    /// has no makespan-ratio term.
    pub baseline_invalid: usize,
    /// Operations of this call that failed the output oracle (0 when
    /// the oracle was not asked).
    pub failed: usize,
}

/// The data set, the seeded call order, and the state that outlives a
/// repetition.
struct Prepared {
    inputs: Inputs,
    generate_s: f64,
    order: Vec<usize>,
    /// The shared solve cache of a warm online workload.
    warm: Option<SolveCache>,
}

/// One repetition's readings. Wall and CPU time cover the calls only:
/// cloning a call's inputs, making its fresh cache, digesting, checking
/// and dropping its output all happen between the timed calls.
#[derive(Clone, Debug)]
struct Repetition {
    wall_s: f64,
    cpu_s: f64,
    /// By call index, whatever order the calls were made in.
    calls: Vec<CallSummary>,
}

fn timed<T>(call: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu_before = cpu_seconds();
    let started = Instant::now();
    let out = call();
    let wall_s = started.elapsed().as_secs_f64();
    (out, wall_s, cpu_seconds() - cpu_before)
}

impl Prepared {
    fn new(kind: &Kind, seed: u64, divisor: usize) -> Self {
        let generated = generate(kind, divisor);
        let warm = match &generated.inputs {
            Inputs::Online(o) if o.spec.warm => Some(SolveCache::new()),
            _ => None,
        };
        Prepared {
            order: issue_order(seed, generated.inputs.calls()),
            inputs: generated.inputs,
            generate_s: generated.generate_s,
            warm,
        }
    }

    /// Makes every call once, in the seeded order. `check` runs the
    /// output oracle on each call's output before it is dropped.
    fn repetition(&self, check: bool) -> Repetition {
        let mut calls = vec![None; self.order.len()];
        let (mut wall_s, mut cpu_s) = (0.0, 0.0);
        for &call in &self.order {
            let (summary, wall, cpu) = match &self.inputs {
                Inputs::Offline(instances) => {
                    let instance = &instances[call];
                    let (out, wall, cpu) = timed(|| offline::solve(instance));
                    (offline::summary(instance, &out, check), wall, cpu)
                }
                Inputs::Online(o) => {
                    let submissions = o.submissions(call);
                    let fresh = self.warm.is_none().then(SolveCache::new);
                    let cache = self.warm.as_ref().or(fresh.as_ref());
                    let cache = cache.expect("an online call has a warm or a fresh cache");
                    let (out, wall, cpu) = timed(|| online::serve(o, submissions, cache));
                    (online::summary(o, call, &out, check), wall, cpu)
                }
            };
            calls[call] = Some(summary);
            wall_s += wall;
            cpu_s += cpu;
        }
        Repetition {
            wall_s,
            cpu_s,
            calls: calls.into_iter().flatten().collect(),
        }
    }
}

impl Repetition {
    /// One word for everything deterministic the repetition produced.
    fn digest(&self) -> u64 {
        self.calls
            .iter()
            .fold(FNV_OFFSET, |h, c| fnv1a_u64(h, c.digest))
    }

    fn total(&self, field: fn(&CallSummary) -> usize) -> usize {
        self.calls.iter().map(field).sum()
    }

    /// Geometric mean of the makespan-ratio terms, summed in call-index
    /// order so the value does not depend on the seeded call order.
    /// Offline: 100·makespan(DagHetPart) ÷ makespan(DagHetMem), the
    /// paper's headline; online: 100·service ÷ baseline_makespan.
    fn makespan_ratio_pct(&self) -> f64 {
        let ln_sum: f64 = self.calls.iter().map(|c| c.ln_ratio_sum).sum();
        ratio(ln_sum, self.total(|c| c.ratios) as f64).exp()
    }

    /// Response over dedicated makespan, over every completed workflow.
    fn mean_stretch(&self) -> f64 {
        let sum: f64 = self.calls.iter().map(|c| c.stretch_sum).sum();
        ratio(sum, self.total(|c| c.completed) as f64)
    }
}

/// Result of a run, end-to-end or traced.
#[derive(Debug)]
pub struct Run {
    pub values: Values,
    /// Operations one repetition attempts (instances or submissions).
    pub attempted: usize,
    /// Of those, how many failed the output oracle.
    pub failed: usize,
    /// No failed operation, and every repetition produced bit-identical
    /// outputs.
    pub correct: bool,
    pub tasks: usize,
    /// Instances left out of the makespan ratio (invalid baseline).
    pub baseline_invalid: usize,
    /// Digest of a repetition's outputs: the same for every seed.
    pub digest: u64,
    pub setup_s: f64,
    pub repetition_wall_s: Vec<f64>,
    pub repetition_cpu_s: Vec<f64>,
    pub recorder: Option<Recorder>,
}

/// Set-up: the data set, fitted platforms, and one full untimed warm-up
/// repetition (allocator and caches fill; a warm workload's solve cache
/// is populated here).
fn set_up(kind: &Kind, seed: u64, divisor: usize) -> (Prepared, f64) {
    let started = Instant::now();
    let prepared = Prepared::new(kind, seed, divisor);
    prepared.repetition(false);
    (prepared, started.elapsed().as_secs_f64())
}

/// The end-to-end run, tracing off.
pub fn end_to_end(kind: &Kind, seed: u64, shape: &Shape) -> Run {
    let (prepared, setup_s) = set_up(kind, seed, shape.divisor);
    let last = shape.repetitions.max(1) - 1;
    let repetitions: Vec<Repetition> = (0..=last).map(|r| prepared.repetition(r == last)).collect();
    let peak_rss_mb = peak_rss_mib();

    let checked = &repetitions[last];
    let attempted = prepared.inputs.operations();
    let failed = checked.total(|c| c.failed).min(attempted);
    let repeatable = repetitions.iter().all(|r| r.digest() == checked.digest());

    // Timing metrics come from the median repetition by wall time (the
    // lower middle one of an even count); wall and CPU from the same one.
    let mut by_wall: Vec<&Repetition> = repetitions.iter().collect();
    by_wall.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    let median = by_wall[last / 2];
    let tasks = prepared.inputs.tasks();
    let mut values = Values::default();
    values.set("setup_s", setup_s);
    values.set("tasks_per_s", tasks as f64 / median.wall_s);
    values.set("makespan_ratio_pct", checked.makespan_ratio_pct());
    values.set("mean_stretch", checked.mean_stretch());
    values.set(
        "completed_share",
        (attempted - failed) as f64 / attempted as f64,
    );
    values.set("peak_rss_mb", peak_rss_mb);
    values.set(
        "cpu_ms_per_ktask",
        1e3 * median.cpu_s / (tasks as f64 / 1e3),
    );
    Run {
        values,
        attempted,
        failed,
        correct: failed == 0 && repeatable,
        tasks,
        baseline_invalid: checked.total(|c| c.baseline_invalid),
        digest: checked.digest(),
        setup_s,
        repetition_wall_s: repetitions.iter().map(|r| r.wall_s).collect(),
        repetition_cpu_s: repetitions.iter().map(|r| r.cpu_s).collect(),
        recorder: None,
    }
}

/// The traced run: the same set-up, one untraced reference repetition
/// (with the output oracle), then one repetition under the span
/// recorder. `scratch` holds the cache snapshot while its save/load is
/// timed.
pub fn traced(kind: &Kind, seed: u64, divisor: usize, scratch: &Path) -> Run {
    let (prepared, setup_s) = set_up(kind, seed, divisor);
    let reference = prepared.repetition(true);
    let mut failed = reference.total(|c| c.failed);

    let mut recorder = Recorder::new();
    let (mut values, traced_wall_s, same_outputs) = match &prepared.inputs {
        Inputs::Offline(instances) => {
            let (values, mismatches) =
                offline::traced_repetition(instances, &prepared.order, &mut recorder);
            failed += mismatches;
            // The calls the untraced repetition makes, under the recorder.
            let wall = recorder.busy("core.daghetpart.default")
                + recorder.busy("core.baseline")
                + recorder.busy("core.mapping.validate");
            (values, wall, true)
        }
        Inputs::Online(o) => {
            let (values, digests) = online::traced_repetition(
                o,
                &prepared.order,
                prepared.warm.as_ref(),
                scratch,
                &mut recorder,
            );
            let wall = values.get("online.engine.busy_s").unwrap_or(0.0);
            let same = digests.iter().eq(reference.calls.iter().map(|c| &c.digest));
            (values, wall, same)
        }
    };
    values.set("wfgen.generate.busy_s", prepared.generate_s);
    values.set(
        "proc.cpu_over_wall",
        ratio(reference.cpu_s, reference.wall_s),
    );
    values.set("trace.wall_s", traced_wall_s);
    values.set("trace.untraced_wall_s", reference.wall_s);
    values.set(
        "trace.overhead_share",
        ratio(traced_wall_s - reference.wall_s, reference.wall_s),
    );
    values.set("trace.spans", recorder.spans().len() as f64);

    let attempted = prepared.inputs.operations();
    Run {
        values,
        attempted,
        failed: failed.min(attempted),
        correct: failed == 0 && same_outputs,
        tasks: prepared.inputs.tasks(),
        baseline_invalid: reference.total(|c| c.baseline_invalid),
        digest: reference.digest(),
        setup_s,
        repetition_wall_s: vec![reference.wall_s],
        repetition_cpu_s: vec![reference.cpu_s],
        recorder: Some(recorder),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(ratio_pct: &[f64], stretch: &[f64]) -> CallSummary {
        CallSummary {
            digest: ratio_pct.len() as u64,
            ln_ratio_sum: ratio_pct.iter().map(|r| r.ln()).sum(),
            ratios: ratio_pct.len(),
            stretch_sum: stretch.iter().sum(),
            completed: stretch.len(),
            baseline_invalid: 0,
            failed: 0,
        }
    }

    #[test]
    fn quality_metrics_pool_the_calls() {
        let repetition = Repetition {
            wall_s: 1.0,
            cpu_s: 1.0,
            calls: vec![call(&[1.0, 100.0], &[2.0, 4.0]), call(&[10.0], &[6.0])],
        };
        assert!((repetition.makespan_ratio_pct() - 10.0).abs() < 1e-12);
        assert_eq!(repetition.mean_stretch(), 4.0);
        // A call without a term (invalid baseline) leaves the mean alone.
        let mut with_gap = repetition.clone();
        with_gap.calls.push(call(&[], &[4.0]));
        assert!((with_gap.makespan_ratio_pct() - 10.0).abs() < 1e-12);
        assert_ne!(with_gap.digest(), repetition.digest());
    }

    #[test]
    fn the_seed_reorders_the_calls_and_nothing_else() {
        let kind = crate::workloads::WORKLOADS[1].kind;
        let shape = Shape {
            divisor: 20,
            repetitions: 1,
        };
        let (a, b) = (end_to_end(&kind, 1, &shape), end_to_end(&kind, 2, &shape));
        assert_eq!(a.digest, b.digest);
        for name in ["makespan_ratio_pct", "mean_stretch", "completed_share"] {
            assert_eq!(a.values.get(name), b.values.get(name), "{name}");
        }
        assert!(a.correct && a.failed == 0 && a.attempted > 0);
    }
}
