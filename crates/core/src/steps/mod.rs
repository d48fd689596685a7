//! The four steps of the DagHetPart heuristic (paper §4.2).
//!
//! * Step 1 — [`partition`]: initial acyclic DAG partitioning (dagP).
//! * Step 2 — [`assign`]: `BiggestAssign` / `FitBlock` (Algorithms 1–2).
//! * Step 3 — [`merge`]: `MergeUnassignedToAssigned` / `FindMSOptMerge`
//!   (Algorithms 3–4).
//! * Step 4 — [`swap`]: best-improvement block swaps plus moves of
//!   critical-path blocks to idle faster processors (Algorithm 5).

pub mod assign;
pub mod merge;
pub mod partition;
pub mod swap;
