//! Produces the `admission_hotpath` section of `BENCH_online.json`:
//! submissions processed per wall-second by the single-cluster engine
//! on a cold 50k-submission trace (500 unique topologies, so most
//! probes pay real solver work before the cache warms), for the
//! pre-overhaul admission strategy (`fast_admission: false` — full
//! probe materialisation, no reservation token, no tombstoned queue)
//! and the overhauled default.
//!
//! Gates asserted at snapshot time: the optimized report is
//! byte-identical to the baseline one after clearing the solver-effort
//! counters (reused reservations legitimately skip redundant warm
//! probes), every head reservation matches bit-for-bit, the optimized
//! engine is deterministic across two runs *including* counters, and
//! — on the full trace — the overhaul delivers at least 1.5×
//! submissions/sec under the backfilling policy.
//!
//! ```text
//! cargo run --release -p dhp-bench --bin admission_hotpath
//! cargo run --release -p dhp-bench --bin admission_hotpath -- --smoke
//! ```
//!
//! `--smoke` shrinks the trace to 2k submissions / 50 topologies and
//! skips the speedup floor (equivalence and determinism still gate) —
//! the CI smoke-run.

use dhp_online::{fit_cluster, serve, AdmissionPolicy, OnlineConfig, ServeOutcome};
use dhp_platform::configs::{cluster, ClusterKind, ClusterSize};
use dhp_wfgen::arrivals::ArrivalProcess;
use dhp_wfgen::Family;
use std::time::Instant;

struct Measurement {
    policy: &'static str,
    baseline_secs: f64,
    optimized_secs: f64,
    completed: usize,
    rank_hits: u64,
    reservations: usize,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n, unique) = if smoke { (2_000, 50) } else { (50_000, 500) };

    // Arrivals fast enough that the queue never drains for long —
    // blocked heads, reservations, and backfill scans are the hot
    // path being measured — but bounded (service keeps up on average),
    // so wall time measures admission work, not a runaway backlog.
    let subs = dhp_online::submission::repeating_stream(
        unique,
        n,
        &[Family::Blast, Family::Seismology, Family::Genome],
        (8, 48),
        &ArrivalProcess::Uniform { interval: 25.0 },
        17,
    );
    let member = fit_cluster(
        &cluster(ClusterKind::LessHet, ClusterSize::Small),
        &subs,
        1.05,
    );

    let run = |policy: AdmissionPolicy, name: &'static str| -> Measurement {
        let mk = |fast_admission| OnlineConfig {
            policy,
            fast_admission,
            ..OnlineConfig::default()
        };

        // Clone the stream outside the timed region: the copy is
        // identical for both drivers and would only dilute the ratio.
        let input = subs.clone();
        let t0 = Instant::now();
        let slow = serve(&member, input, &mk(false));
        let baseline_secs = t0.elapsed().as_secs_f64();

        let input = subs.clone();
        let t0 = Instant::now();
        let fast = serve(&member, input, &mk(true));
        let optimized_secs = t0.elapsed().as_secs_f64();

        // Equivalence gate: identical scheduling outcome. Only the
        // solver-effort counters may differ (the reservation token
        // skips redundant warm probes), so they are cleared first.
        let strip = |o: &ServeOutcome| {
            let mut r = o.report.clone();
            r.fleet.clear_solve_stats();
            r.to_json()
        };
        assert_eq!(
            strip(&slow),
            strip(&fast),
            "{name}: optimized report diverged from the pre-overhaul baseline"
        );
        // Every reservation the engine ever computed matches bitwise.
        assert_eq!(
            slow.reservations.len(),
            fast.reservations.len(),
            "{name}: reservation counts diverged"
        );
        for (a, b) in slow.reservations.iter().zip(&fast.reservations) {
            assert_eq!(
                (a.at.to_bits(), a.head_id, a.reservation.to_bits()),
                (b.at.to_bits(), b.head_id, b.reservation.to_bits()),
                "{name}: a head reservation diverged"
            );
        }
        // Determinism gate: two optimized runs agree byte-for-byte,
        // counters included.
        let again = serve(&member, subs.clone(), &mk(true));
        assert_eq!(
            fast.report.to_json(),
            again.report.to_json(),
            "{name}: optimized engine is not deterministic"
        );

        Measurement {
            policy: name,
            baseline_secs,
            optimized_secs,
            completed: fast.report.fleet.completed,
            rank_hits: fast.report.fleet.rank_cache_hits,
            reservations: fast.reservations.len(),
        }
    };

    let measurements = [
        run(AdmissionPolicy::FifoBackfill, "fifo-backfill"),
        run(AdmissionPolicy::EasyBackfill, "easy-backfill"),
    ];

    // The acceptance gate: >=1.5x submissions/sec on the full cold
    // trace under conservative backfilling (the policy whose
    // reservation scans dominate the pre-overhaul profile).
    let speedup_gate = if smoke {
        "skipped (smoke trace: too short to time)".to_string()
    } else {
        let m = &measurements[0];
        let speedup = m.baseline_secs / m.optimized_secs.max(1e-12);
        assert!(
            speedup >= 1.5,
            "fifo-backfill: admission overhaul delivered only {speedup:.2}x \
             (target 1.5x)"
        );
        "asserted (>= 1.5x on fifo-backfill)".to_string()
    };

    println!("{{");
    println!("  \"bench\": \"admission_hotpath/unique{unique}/{n}\",");
    println!(
        "  \"trace\": {{ \"submissions\": {n}, \"unique_topologies\": {unique}, \
         \"process\": \"uniform/25\", \"cluster\": \"lesshet/small\" }},"
    );
    println!("  \"runs\": {{");
    for (i, m) in measurements.iter().enumerate() {
        let comma = if i + 1 < measurements.len() { "," } else { "" };
        println!(
            "    \"{}\": {{ \"baseline_subs_per_sec\": {:.0}, \
             \"optimized_subs_per_sec\": {:.0}, \"speedup\": {:.2}, \
             \"completed\": {}, \"rank_cache_hits\": {}, \"reservations\": {} }}{comma}",
            m.policy,
            n as f64 / m.baseline_secs.max(1e-12),
            n as f64 / m.optimized_secs.max(1e-12),
            m.baseline_secs / m.optimized_secs.max(1e-12),
            m.completed,
            m.rank_hits,
            m.reservations,
        );
    }
    println!("  }},");
    println!("  \"baseline_vs_optimized_byte_identical\": true,");
    println!("  \"reservations_bitwise_identical\": true,");
    println!("  \"deterministic_across_two_runs\": true,");
    println!("  \"speedup_gate\": \"{speedup_gate}\"");
    println!("}}");
}
