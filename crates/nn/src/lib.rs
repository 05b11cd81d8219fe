//! # mergesfl-nn
//!
//! A small, dependency-light neural-network substrate written from scratch for the
//! MergeSFL reproduction. It provides:
//!
//! * [`Tensor`] — a dense row-major `f32` tensor with the operations the layers need
//!   (matmul, broadcasting add, batch concatenation/segmentation, reductions).
//! * [`kernels`] — the compute kernels behind the hot path: cache-blocked, register-tiled
//!   GEMM with packed panels, gathered-operand convolutions and pooling kernels, with the
//!   original naive loops kept as a selectable oracle backend ([`kernels::KernelBackend`]).
//! * [`layers`] — feed-forward layers with exact manual backward passes: [`layers::Linear`],
//!   [`layers::Conv2d`], [`layers::Conv1d`], [`layers::MaxPool2d`], [`layers::MaxPool1d`],
//!   [`layers::Relu`], [`layers::Flatten`], [`layers::Dropout`].
//! * [`loss`] — softmax cross-entropy with logits (loss value, accuracy, input gradient).
//! * [`optim`] — mini-batch SGD with momentum, weight decay and exponential LR decay,
//!   matching the schedules used in the paper's experiments.
//! * [`model`] — [`model::Sequential`] containers with parameter (de)serialisation used for
//!   federated aggregation.
//! * [`pool`] — size-classed pooled tensor memory (thread-local free lists over exclusive
//!   pages with a shared reservoir) backing `Tensor` storage and kernel scratch, for a
//!   zero-allocation steady-state hot path (`MERGESFL_TENSOR_POOL`).
//! * [`split`] — [`split::SplitModel`], a model cut at a *split layer* into a bottom part
//!   (trained on workers) and a top part (trained on the parameter server), the core
//!   abstraction of split federated learning.
//! * [`zoo`] — scaled-down analogues of the paper's four architectures (CNN-H, CNN-S,
//!   AlexNet, VGG16) together with their split points.
//!
//! Everything is deterministic given a seed and CPU-only. Kernels may fan out across
//! threads on large shapes, but every parallel path preserves the sequential accumulation
//! order, so results are bit-identical whatever the core count.

// The three files allowed to contain unsafe (pool.rs, kernels/gemm.rs,
// kernels/micro.rs) spell out each unsafe operation in its own block, each with a
// `// SAFETY:` comment (`clippy::undocumented_unsafe_blocks`).
#![deny(unsafe_op_in_unsafe_fn)]

#[cfg(test)]
mod canaries;
pub mod env;
pub mod init;
pub mod kernels;
pub mod layers;
pub mod loss;
pub mod model;
pub mod optim;
pub mod pool;
pub mod rng;
pub mod split;
pub mod tensor;
pub mod zoo;

pub use loss::SoftmaxCrossEntropy;
pub use model::Sequential;
pub use optim::Sgd;
pub use split::SplitModel;
pub use tensor::Tensor;

/// Number of bytes used by a single `f32` element, used for traffic accounting.
pub const F32_BYTES: usize = 4;
