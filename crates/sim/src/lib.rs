#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! # dhp-sim
//!
//! A discrete-event execution simulator for mapped workflows.
//!
//! The paper's makespan (Eq. (1)–(2)) deliberately *overestimates* the
//! real execution time: "the finishing time of block `V_i` is equal to
//! the finishing time of all the tasks within this block … In reality,
//! some tasks may finish before the block finishes, and their successors
//! could start earlier" (§3.3). This crate implements that finer
//! reality: blocks execute their tasks sequentially (in the same
//! memDag traversal order used for the memory requirement), but a
//! consumer task may start as soon as *its own* input files have arrived,
//! rather than waiting for whole predecessor blocks.
//!
//! The simulator therefore provides
//!
//! * an executable ground truth for the model — the analytic makespan
//!   must upper-bound the simulated one (asserted by the property tests
//!   here and in `tests/`),
//! * per-task start/finish times and per-processor busy intervals for
//!   inspection, and
//! * a memory re-check: the simulated peak per block equals the
//!   requirement computed by `dhp-memdag` for the executed order.
//!
//! ## Semantics
//!
//! * Tasks of one block run back-to-back in a fixed order on their
//!   block's processor (no intra-block parallelism — one processor).
//! * Task `u` starts when its block predecessor has finished *and* every
//!   input file has arrived.
//! * A file `(u, v)` crossing processors starts transferring the moment
//!   `u` finishes and takes `c_{u,v} / β` (or a per-link bandwidth, see
//!   [`links::LinkModel`]). Files within a processor arrive instantly.
//! * Task `u` runs for `w_u / s_j`.
//!
//! ```
//! use dhp_core::prelude::*;
//!
//! let g = dhp_dag::builder::fork_join(6, 10.0, 2.0, 1.0);
//! let cluster = dhp_platform::configs::small_cluster();
//! let r = dag_het_part(&g, &cluster, &DagHetPartConfig::default()).unwrap();
//! let sim = dhp_sim::simulate(&g, &cluster, &r.mapping);
//! // §3.3: the analytic makespan upper-bounds the simulated execution.
//! assert!(sim.makespan <= r.makespan * (1.0 + 1e-9));
//! let tl = dhp_sim::timeline(&g, &cluster, &r.mapping, &sim);
//! assert!(tl.check_no_overlap().is_ok());
//! ```

pub mod engine;
pub mod links;
pub mod timeline;

pub use engine::{simulate, simulate_with_links, SimResult};
pub use links::LinkModel;
pub use timeline::{timeline, Timeline};

#[cfg(test)]
mod proptests;
