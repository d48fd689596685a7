//! Golden outputs of the serving engine on deep backlogs.
//!
//! The rows of `tests/golden/online_golden.txt` serve at most nine
//! jobs, so their queues are too shallow for the backfill window's
//! work screen to skip more than a few candidates per pass. These rows
//! serve single-task backlogs hundreds to thousands deep, where almost
//! every pass screens most of the queue out by work, under both
//! backfilling policies: they pin what the pass decides when it jumps
//! over the screened-out candidates instead of walking past them.
//! `tests/golden/deep_backlog_golden.txt` was recorded from the pass
//! that walked past every one of them.
//!
//! Each line is a label and the row format of `support/online_rows.rs`
//! (report FNV without and with the solver counters, reservation count
//! and reservation FNV).
//!
//! Re-record (only when an output change is intended):
//! `cargo test --release --test deep_backlog -- --ignored record`.

#[path = "support/online_rows.rs"]
mod online_rows;

use dhp_online::{AdmissionPolicy, OnlineConfig};
use online_rows::{cluster, row, single_task_trace, Case};

const GOLDEN: &str = include_str!("golden/deep_backlog_golden.txt");

fn cases() -> Vec<Case> {
    let elastic = [("off", None, None), ("grow-2+shrink-2", Some(2), Some(2))];
    let mut cases = Vec::new();
    for n in [300usize, 1200] {
        for (kind, kname) in ["burst", "poisson", "uniform"].into_iter().enumerate() {
            for policy in [AdmissionPolicy::FifoBackfill, AdmissionPolicy::EasyBackfill] {
                for (ename, elastic, elastic_shrink) in elastic {
                    for seed in [17u64, 2024] {
                        cases.push(Case {
                            label: format!(
                                "deep n={n} {kname} {} {ename} seed={seed}",
                                policy.name()
                            ),
                            cluster: cluster(),
                            subs: single_task_trace(n, kind as u8, seed),
                            cfg: OnlineConfig {
                                policy,
                                elastic,
                                elastic_shrink,
                                ..OnlineConfig::default()
                            },
                        });
                    }
                }
            }
        }
    }
    cases
}

fn compute() -> String {
    let mut out = String::new();
    for case in cases() {
        out.push_str(&row(&case.label, &case.serve()));
        out.push('\n');
    }
    out
}

#[test]
fn deep_backlogs_reproduce_every_golden_line() {
    let fresh = compute();
    for (i, (want, got)) in GOLDEN.lines().zip(fresh.lines()).enumerate() {
        assert_eq!(want, got, "golden line {i} differs");
    }
    assert_eq!(GOLDEN.lines().count(), fresh.lines().count());
    assert_eq!(GOLDEN.lines().count(), 2 * 3 * 2 * 2 * 2);
}

#[test]
#[ignore = "rewrites tests/golden/deep_backlog_golden.txt"]
fn record() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/deep_backlog_golden.txt"
    );
    std::fs::write(path, compute()).unwrap();
}
