#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! # dhp-bench
//!
//! Experiment harness for the `daghetpart` reproduction: one runner per
//! table/figure of the paper's evaluation section (§5), printing the same
//! rows/series the paper reports. See the `experiments` binary
//! (`cargo run --release -p dhp-bench --bin experiments -- --help`).

pub mod report;
pub mod runner;
