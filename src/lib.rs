//! Umbrella crate for the MergeSFL reproduction workspace.
//!
//! This crate re-exports the public API of every workspace member so that the
//! examples (`examples/`) and the cross-crate integration tests (`tests/`) can
//! depend on a single crate. Library users should normally depend on the
//! individual crates instead:
//!
//! * [`mergesfl_nn`] — pure-Rust neural-network substrate (tensors, layers, SGD).
//! * [`mergesfl_data`] — synthetic datasets and Dirichlet non-IID partitioning.
//! * [`mergesfl_simnet`] — edge-cluster simulator (devices, bandwidth, clock, traffic).
//! * [`mergesfl`] — the MergeSFL split-federated-learning framework and baselines.

// No unsafe anywhere in this crate: the workspace's only audited unsafe lives in
// mergesfl_nn (pool.rs, kernels/gemm.rs, kernels/micro.rs).
#![forbid(unsafe_code)]

pub use mergesfl;
pub use mergesfl_data;
pub use mergesfl_nn;
pub use mergesfl_simnet;
