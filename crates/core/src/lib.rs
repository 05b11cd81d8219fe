//! # mergesfl
//!
//! A from-scratch reproduction of **MergeSFL: Split Federated Learning with Feature Merging
//! and Batch Size Regulation** (ICDE 2024).
//!
//! The crate implements:
//!
//! * the split-federated-learning training engine ([`sfl`]): worker-side bottom models,
//!   the server-side top model, feature merging, gradient dispatching and weighted
//!   bottom-model aggregation;
//! * the MergeSFL control module ([`control`]): worker-state estimation with moving
//!   averages, batch-size regulation, KL-divergence-driven genetic worker selection,
//!   Lagrangian-style batch fine-tuning and participation-frequency priorities (Alg. 1);
//! * the full-model federated-learning engine ([`fl`]) used by the FedAvg and PyramidFL
//!   baselines;
//! * every approach the paper compares ([`experiment::Approach`]): MergeSFL, its two
//!   ablations (w/o FM, w/o BR), AdaSFL, LocFedMix-SL, FedAvg, PyramidFL, and the
//!   motivation-section variants SFL-T / SFL-FM / SFL-BR;
//! * the experiment runner and metrics ([`experiment`], [`metrics`]) producing the series
//!   behind every figure in the paper's evaluation.
//!
//! ## Quickstart
//!
//! ```no_run
//! use mergesfl::config::RunConfig;
//! use mergesfl::experiment::{run, Approach};
//! use mergesfl_data::DatasetKind;
//!
//! let config = RunConfig::quick(DatasetKind::Cifar10, /* non-IID level p = */ 10.0, /* seed = */ 1);
//! let result = run(Approach::MergeSfl, &config);
//! println!("final accuracy {:.3} after {:.0} simulated seconds",
//!          result.final_accuracy(), result.total_sim_time());
//! ```

// No unsafe anywhere in this crate: the workspace's only audited unsafe lives in
// mergesfl_nn (pool.rs, kernels/gemm.rs, kernels/micro.rs).
#![forbid(unsafe_code)]

pub mod baselines;
pub mod config;
pub mod control;
pub mod experiment;
pub mod fl;
pub mod json;
pub mod metrics;
pub mod sfl;
mod util;

pub use config::RunConfig;
pub use experiment::{run, Approach};
pub use metrics::{RoundRecord, RunResult};
