//! # scalfrag-core
//!
//! The end-to-end ScalFrag framework (§IV-A, Fig. 6) and the ParTI
//! baseline it is evaluated against (§V-A3).
//!
//! [`ScalFrag`] wires the whole stack together: feature extraction →
//! adaptive launch selection (trained DecisionTree predictor) → mode
//! sorting and slice-aligned segmentation → pipelined stream execution of
//! the tiled kernel → optional CPU–GPU hybrid split. Every stage can be
//! ablated through [`ScalFragConfig`], which is how the benchmark
//! harnesses isolate each contribution.
//!
//! [`Parti`] reproduces the baseline strategy: the nnz-parallel atomic COO
//! kernel at ParTI's suggested launch heuristic, executed synchronously
//! (whole-tensor H2D → kernel → D2H).
//!
//! [`ClusterScalFrag`] lifts the same stack onto a multi-GPU node: the
//! tensor is sharded, shards are scheduled onto `N` simulated devices
//! behind an interconnect model, and partial outputs are reduced.
//!
//! Every facade entry point does the same two things: it builds one
//! ScheduleIR plan with a `scalfrag-pipeline` or `scalfrag-cluster`
//! builder and runs it through the `scalfrag-exec` interpreter. The
//! outcome becomes one [`MttkrpReport`] via [`MttkrpReport::new`] — the
//! same report shape for one device or many, with or without injected
//! faults (per-device breakdowns in [`DeviceReport`], the reduction stage
//! and the recovery counters ride along).

pub mod cluster;
pub mod parti;
pub mod report;
pub mod scalfrag;

pub use cluster::{ClusterConfig, ClusterScalFrag, ClusterScalFragBuilder};
pub use parti::{plan_builders, Parti};
pub use report::{DeviceReport, MttkrpReport, PhaseTiming};
pub use scalfrag::{ScalFrag, ScalFragBuilder, ScalFragConfig};
