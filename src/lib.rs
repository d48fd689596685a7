#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! Workspace facade: re-exports every `dhp-*` crate under one roof so
//! the repository-level examples and integration tests (and downstream
//! users who want a single dependency) can reach the whole system.

pub use dhp_core as core;
pub use dhp_dag as dag;
pub use dhp_dagp as dagp;
pub use dhp_exact as exact;
pub use dhp_memdag as memdag;
pub use dhp_online as online;
pub use dhp_platform as platform;
pub use dhp_sim as sim;
pub use dhp_wfgen as wfgen;
