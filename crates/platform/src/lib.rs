#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! # dhp-platform
//!
//! Heterogeneous execution-platform model for the `daghetpart` workflow
//! mapper: a [`Cluster`] of [`Processor`]s, each with an individual memory
//! size `M_j` and speed `s_j`, connected with uniform bandwidth `β`
//! (paper §3.2).
//!
//! [`configs`] reproduces the exact experimental platforms of the paper's
//! evaluation: the default 36-node cluster built from six real machine
//! kinds (Table 2), the more/less heterogeneous variants (Table 3), the
//! homogeneous `NoHet` cluster, and the small (18) / large (60) cluster
//! sizes.
//!
//! ```
//! use dhp_platform::configs;
//!
//! let cluster = configs::default_cluster();
//! assert_eq!(cluster.len(), 36);              // 6 machines of 6 kinds
//! assert_eq!(cluster.max_memory(), 192.0);    // the C2 "luxury" node
//! let slow = cluster.with_bandwidth(0.1);     // the CCR sweep of Fig. 7
//! assert_eq!(slow.bandwidth, 0.1);
//! ```

pub mod cluster;
pub mod configs;
pub mod federation;
pub mod processor;
pub mod spec;
pub mod subcluster;

pub use cluster::{Cluster, ProcId};
pub use configs::{ClusterKind, ClusterSize, MachineKind};
pub use federation::Federation;
pub use processor::Processor;
pub use spec::{ClusterSpec, MemberSpec, ProcSpec};
pub use subcluster::SubCluster;
