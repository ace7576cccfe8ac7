//! # scalfrag-kernels
//!
//! The MTTKRP kernels of the ScalFrag reproduction and the CPD-ALS driver
//! built on top of them.
//!
//! Three simulated GPU kernels (all functionally executed, all timed by the
//! `scalfrag-gpusim` cost model) plus a CPU reference:
//!
//! * [`reference`] — sequential and rayon-parallel CPU MTTKRP over COO and
//!   CSF; the correctness oracle for everything else, validated on small
//!   tensors against the dense Equation (4) (`X₍ₙ₎ · (⊙ factors)`).
//! * [`coo_kernel`] — the ParTI-style nnz-parallel COO kernel: one thread
//!   per non-zero, `atomicAdd` per rank element into the output rows. This
//!   is the baseline strategy the paper compares against.
//! * [`tiled_kernel`] — the ScalFrag tiled kernel (§IV-A): partial results
//!   (`mvals`) and factor rows (`times_mat`) staged in shared memory, with
//!   block-level pre-reduction slashing the global atomic traffic.
//! * [`csf_kernel`] — a fiber-parallel kernel over the CSF tree, with one
//!   owner per output row (no atomics at all).
//! * [`cpd`] — the CPD-ALS loop of Algorithm 1 parameterised over any
//!   [`MttkrpBackend`], with fit tracking.
//! * [`checkpoint`] — iteration-level checkpoint/rollback for CPD-ALS over
//!   fallible backends: a failed MTTKRP rolls the factors back to the last
//!   snapshot and re-runs, bitwise identical to a fault-free run.

pub mod atomic_buf;
pub mod backend;
pub mod bcsf_kernel;
pub mod checkpoint;
pub mod coo_kernel;
pub mod cpd;
pub mod csf_kernel;
pub mod factors;
pub mod fcoo_kernel;
pub mod hicoo_kernel;
pub mod partials;
pub mod race;
pub mod reference;
pub mod simd;
pub mod tiled_kernel;
pub mod workload;

pub use atomic_buf::AtomicF32Buffer;
pub use backend::{CpuParallelBackend, CpuSequentialBackend, MttkrpBackend};
pub use bcsf_kernel::BcsfKernel;
pub use checkpoint::{
    cpd_als_checkpointed, CheckpointConfig, CheckpointedCpdResult, FallibleMttkrpBackend,
    MttkrpFailure, Reliable, ScriptedFailureBackend,
};
pub use coo_kernel::CooAtomicKernel;
pub use cpd::{cpd_als, CpdOptions, CpdResult};
pub use csf_kernel::CsfFiberKernel;
pub use factors::FactorSet;
pub use fcoo_kernel::FCooKernel;
pub use hicoo_kernel::HiCooKernel;
pub use partials::{run_units, UpdateList};
pub use race::{
    trace_balanced, trace_bcsf, trace_coo, trace_csf, trace_fcoo, trace_flycoo, trace_hicoo,
    trace_racy_balanced_carry, trace_racy_coo, trace_tiled,
};
pub use tiled_kernel::TiledKernel;
pub use workload::SegmentStats;
