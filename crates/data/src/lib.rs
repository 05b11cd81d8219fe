//! # mergesfl-data
//!
//! Datasets, non-IID partitioning and mini-batch loading for the MergeSFL reproduction.
//!
//! The paper evaluates on HAR, Google Speech, CIFAR-10 and IMAGE-100; those datasets are not
//! available in this environment, so [`synth`] generates class-conditional synthetic
//! analogues with the same class counts and compatible input shapes.
//! The statistical-heterogeneity machinery — the Dirichlet partitioner, per-worker label
//! distributions `V_i`, and the non-IID level `p = 1/δ` — is implemented exactly as in the
//! paper ([`partition`]).

// No unsafe anywhere in this crate: the workspace's only audited unsafe lives in
// mergesfl_nn (pool.rs, kernels/gemm.rs, kernels/micro.rs).
#![forbid(unsafe_code)]

pub mod dataset;
pub mod datasets;
pub mod label_dist;
pub mod loader;
pub mod partition;
pub mod sample;
pub mod synth;

pub use dataset::Dataset;
pub use datasets::{DatasetKind, DatasetSpec};
pub use label_dist::LabelDistribution;
pub use loader::WorkerLoader;
pub use partition::{partition_dirichlet, partition_iid, Partition};
pub use sample::eval_subsample;
