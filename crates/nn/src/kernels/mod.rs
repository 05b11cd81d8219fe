//! Compute kernels for the NN hot path.
//!
//! Every figure binary in this reproduction bottoms out in dense linear algebra: the
//! `[batch, features]` matmuls of [`crate::layers::Linear`] and the convolution loop nests
//! of [`crate::layers::Conv1d`] / [`crate::layers::Conv2d`]. This module provides two
//! interchangeable implementations of those primitives:
//!
//! * [`KernelBackend::Naive`] — the original straightforward loop nests. They are kept
//!   verbatim as the *test oracle*: slow, obviously correct, and the reference every
//!   optimised path is compared against.
//! * [`KernelBackend::Blocked`] — [`runtime::plan`] plans each GEMM as either the naive
//!   nest or an explicit [`tiling::TilingScheme`] (register tile, mc/kc/nc cache
//!   partition, `Direct` or `Single` panel staging) plus a [`micro`] kernel chosen behind
//!   CPU feature detection, and the drivers in [`gemm`] execute whatever plan they are
//!   handed, packing inline on the calling thread. Convolutions ([`conv`]) run the same
//!   micro-kernels through their *gathered* entry, which reads one operand in place
//!   through two offset tables over a once-staged, zero-padded input — one batch-wide
//!   product per layer, no patch matrix and no patch panel — and intra-op parallelism fans
//!   row panels (GEMM) or image ranges (conv forward) out through the rayon shim.
//!
//! Both backends are deterministic, and the blocked kernels accumulate every output element
//! in exactly the same ascending-`k` order as the naive loops (the micro-kernel loads the
//! destination tile and folds into it), so forward passes, weight gradients and bias
//! gradients are **bit-identical** across backends on finite inputs. The only reassociated
//! reduction is the conv input gradient (it sums kernel taps per output position, the
//! naive nest per output channel), which property tests bound to a few ULPs (see
//! `tests/kernel_parity.rs`) and `conv`'s unit tests pin bit for bit.
//!
//! The process-wide default backend is read by [`crate::Tensor::matmul`] and every layer at
//! call time; it is selected through [`set_default_backend`] (plumbed from
//! `mergesfl::config::RunConfig::kernel_backend`). Plans can be steered without changing
//! results via [`set_micro_override`] (force a micro-kernel) and [`set_tiling_override`]
//! (adjust packed schemes), plumbed from `RunConfig::{micro_kernel, tiling}`; nothing in
//! this crate reads the environment for them.

pub mod conv;
pub mod gemm;
pub mod micro;
pub mod pool;
pub mod runtime;
pub mod tiling;

pub use gemm::{gemm_cfg, gemm_nn, gemm_nt, gemm_tn, gemm_with_scheme, Epilogue, Trans};
pub use micro::{MicroKernelId, MicroSelect, ALL_MICRO_KERNELS};
pub use runtime::{
    plan, reset_stage_stats, set_micro_override, set_tiling_override, stage_stats, GemmPlan,
    StageStats,
};
pub use tiling::{PartitionSize, Staging, TileSize, TilingOverride, TilingScheme};

use std::sync::atomic::{AtomicU8, Ordering};

/// Which implementation of the hot-path math to run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// The original triple-loop matmul and direct convolution nests (test oracle).
    Naive,
    /// Cache-blocked, register-tiled GEMM and gathered-operand convolution (default).
    #[default]
    Blocked,
}

impl KernelBackend {
    /// Short name used in logs, benchmark output and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Naive => "naive",
            Self::Blocked => "blocked",
        }
    }

    /// Parses a backend name (`naive` / `blocked`, ASCII case-insensitive).
    pub fn from_name(name: &str) -> Option<Self> {
        [Self::Naive, Self::Blocked]
            .into_iter()
            .find(|b| name.eq_ignore_ascii_case(b.name()))
    }
}

const BACKEND_NAIVE: u8 = 0;
const BACKEND_BLOCKED: u8 = 1;

static DEFAULT_BACKEND: AtomicU8 = AtomicU8::new(BACKEND_BLOCKED);

/// The process-wide default backend consulted by [`crate::Tensor::matmul`] and the layers.
pub fn default_backend() -> KernelBackend {
    match DEFAULT_BACKEND.load(Ordering::Relaxed) {
        BACKEND_NAIVE => KernelBackend::Naive,
        _ => KernelBackend::Blocked,
    }
}

/// Sets the process-wide default backend.
///
/// Called by the experiment runner before a training run; layers pick the new value up on
/// their next forward/backward call.
pub fn set_default_backend(backend: KernelBackend) {
    let tag = match backend {
        KernelBackend::Naive => BACKEND_NAIVE,
        KernelBackend::Blocked => BACKEND_BLOCKED,
    };
    DEFAULT_BACKEND.store(tag, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Shared bias epilogues.
//
// Before this module existed, the bias add was written out three times: a row broadcast in
// `linear.rs` and an accumulator seed in each of `conv1d.rs` / `conv2d.rs`. Both backends
// of every layer now route through these two helpers.
// ---------------------------------------------------------------------------

/// Adds `bias[j]` to column `j` of every row of a row-major `[rows, bias.len()]` buffer.
///
/// The epilogue of fully-connected layers: `y = x W^T` then `y[i, j] += bias[j]`.
pub fn add_bias_rows(out: &mut [f32], bias: &[f32]) {
    if bias.is_empty() {
        assert!(
            out.is_empty(),
            "add_bias_rows: empty bias for non-empty out"
        );
        return;
    }
    assert_eq!(out.len() % bias.len(), 0, "add_bias_rows: length mismatch");
    for row in out.chunks_exact_mut(bias.len()) {
        for (x, b) in row.iter_mut().zip(bias) {
            *x += b;
        }
    }
}

/// Initialises a buffer of channel planes with a per-channel bias.
///
/// `out` is viewed as `[..., bias.len(), plane]`: plane `c` (cycling through the channels)
/// is filled with `bias[c]`. The epilogue seed of convolution layers: the output starts at
/// the bias and the GEMM (or loop nest) accumulates on top, which keeps the accumulation
/// order identical to the original `acc = bias[co]; acc += ...` loops.
pub fn init_bias_planes(out: &mut [f32], bias: &[f32], plane: usize) {
    if out.is_empty() {
        return;
    }
    assert!(plane > 0, "init_bias_planes: plane must be positive");
    assert_eq!(
        out.len() % (bias.len() * plane),
        0,
        "init_bias_planes: length mismatch"
    );
    for (chunk, b) in out.chunks_exact_mut(plane).zip(bias.iter().cycle()) {
        chunk.fill(*b);
    }
}

// ---------------------------------------------------------------------------
// ReLU: the two element-wise passes of `layers::Relu`, here so `kernel_bench` can time
// and allocation-gate them like every other layer family.
// ---------------------------------------------------------------------------

/// Clamps `x` to `max(0, x)` in place; `-0.0` and NaN become `+0.0`.
pub fn relu_in_place(x: &mut [f32]) {
    for v in x {
        *v = if *v > 0.0 { *v } else { 0.0 };
    }
}

/// ReLU backward: `grad_out` where the forward's output `y` is positive (exactly where
/// its input was), `0.0` elsewhere, in a pooled buffer.
pub fn relu_backward(grad_out: &[f32], y: &[f32]) -> Vec<f32> {
    assert_eq!(grad_out.len(), y.len(), "Relu: gradient length mismatch");
    let mut grad_in = crate::pool::take_uninit::<f32>(grad_out.len());
    for ((d, &g), &y) in grad_in.iter_mut().zip(grad_out).zip(y) {
        *d = if y > 0.0 { g } else { 0.0 };
    }
    grad_in
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_and_default() {
        assert_eq!(KernelBackend::Naive.name(), "naive");
        assert_eq!(KernelBackend::Blocked.name(), "blocked");
        // The shipped default is the blocked backend.
        assert_eq!(KernelBackend::default(), KernelBackend::Blocked);
    }

    #[test]
    fn bias_rows_broadcast() {
        let mut out = vec![0.0; 6];
        add_bias_rows(&mut out, &[1.0, 2.0, 3.0]);
        assert_eq!(out, vec![1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn bias_planes_cycle_through_channels() {
        let mut out = vec![9.0; 8];
        init_bias_planes(&mut out, &[1.0, 2.0], 2);
        assert_eq!(out, vec![1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn bias_helpers_accept_empty_output() {
        add_bias_rows(&mut [], &[1.0]);
        init_bias_planes(&mut [], &[1.0], 4);
    }
}
