//! Convolution kernels: direct naive loops (oracle) and micro-kernel panel drivers.
//!
//! One generalised geometry, [`ConvGeom`], covers both layer types: `Conv2d` maps to a
//! square kernel over `[n, c_in, h, w]`, and `Conv1d` is the `h = 1, kh = 1` special case
//! over `[n, c_in, 1, l]`. Both the naive and the blocked path implement **forward and
//! backward** so either backend can run a whole training step.
//!
//! The blocked path never materialises a patch (im2col) matrix. Each of its three
//! products is one batch-wide panel loop over the global output positions that packs the
//! micro-kernel's operand panels straight from the NCHW tensors — edge-clipped slices of
//! input rows, see [`for_each_segment`] — and folds them through the GEMM runtime's
//! micro-kernel ([`PanelKernel`]). Taps enumerate `(ci, ky, kx)` in the order of the naive
//! loop nest, padding lanes hold `0.0`, and every fold ascends, so the blocked forward,
//! weight gradient and bias gradient are bit-identical to the naive oracle on finite
//! inputs; only the input gradient reassociates its reduction (it sums kernel taps per
//! output position, the naive nest per output channel) and is verified to a few ULPs by
//! the property tests — and pinned bit for bit, like the other three, against the im2col
//! composition this path replaced (kept as a test reference).

use super::gemm::{pack_a, with_panel_kernel, PanelKernel, PanelOp, Trans, PAR_MIN_FLOPS};
use super::{init_bias_planes, KernelBackend};
use rayon::prelude::*;

/// Geometry of a (possibly 1-D) convolution.
#[derive(Clone, Copy, Debug)]
pub struct ConvGeom {
    /// Batch size.
    pub n: usize,
    /// Input channels.
    pub c_in: usize,
    /// Input height (1 for 1-D convolutions).
    pub h: usize,
    /// Input width (the sequence length for 1-D convolutions).
    pub w: usize,
    /// Output channels.
    pub c_out: usize,
    /// Kernel height (1 for 1-D convolutions).
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Vertical stride.
    pub sh: usize,
    /// Horizontal stride.
    pub sw: usize,
    /// Vertical zero padding (0 for 1-D convolutions).
    pub ph: usize,
    /// Horizontal zero padding.
    pub pw: usize,
}

impl ConvGeom {
    /// Geometry of a square-kernel 2-D convolution (the `Conv2d` layer).
    pub fn conv2d(
        n: usize,
        c_in: usize,
        h: usize,
        w: usize,
        c_out: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Self {
            n,
            c_in,
            h,
            w,
            c_out,
            kh: kernel,
            kw: kernel,
            sh: stride,
            sw: stride,
            ph: padding,
            pw: padding,
        }
    }

    /// Geometry of a 1-D convolution (the `Conv1d` layer) as a height-1 2-D convolution.
    pub fn conv1d(
        n: usize,
        c_in: usize,
        l: usize,
        c_out: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Self {
            n,
            c_in,
            h: 1,
            w: l,
            c_out,
            kh: 1,
            kw: kernel,
            sh: 1,
            sw: stride,
            ph: 0,
            pw: padding,
        }
    }

    /// Output height.
    pub fn h_out(&self) -> usize {
        (self.h + 2 * self.ph - self.kh) / self.sh + 1
    }

    /// Output width.
    pub fn w_out(&self) -> usize {
        (self.w + 2 * self.pw - self.kw) / self.sw + 1
    }

    fn per_image_in(&self) -> usize {
        self.c_in * self.h * self.w
    }

    fn per_image_out(&self) -> usize {
        self.c_out * self.h_out() * self.w_out()
    }

    /// Taps of one output position: one per `(ci, ky, kx)`.
    fn patch_len(&self) -> usize {
        self.c_in * self.kh * self.kw
    }

    fn validate(&self, x_len: usize, w_len: usize) {
        assert!(
            self.c_in > 0
                && self.c_out > 0
                && self.kh > 0
                && self.kw > 0
                && self.sh > 0
                && self.sw > 0,
            "ConvGeom: invalid configuration"
        );
        assert!(
            self.h + 2 * self.ph >= self.kh && self.w + 2 * self.pw >= self.kw,
            "ConvGeom: input smaller than kernel"
        );
        assert_eq!(
            x_len,
            self.n * self.per_image_in(),
            "ConvGeom: input length mismatch"
        );
        assert_eq!(
            w_len,
            self.c_out * self.patch_len(),
            "ConvGeom: weight length mismatch"
        );
    }
}

/// Convolution forward pass; returns the `[n, c_out, h_out, w_out]` output buffer.
///
/// `weight` is `[c_out, c_in, kh, kw]` row-major, `bias` is `[c_out]`.
pub fn conv_forward(
    backend: KernelBackend,
    geom: &ConvGeom,
    x: &[f32],
    weight: &[f32],
    bias: &[f32],
) -> Vec<f32> {
    geom.validate(x.len(), weight.len());
    assert_eq!(bias.len(), geom.c_out, "conv_forward: bias length mismatch");
    let plane = geom.h_out() * geom.w_out();
    // Pooled page, not zeroed: init_bias_planes seeds every element below. Callers adopt
    // the returned buffer into a pooled Tensor (or recycle it), closing the reuse loop.
    let mut out = crate::pool::take_uninit::<f32>(geom.n * geom.per_image_out());
    // Shared epilogue seed: the output starts at the bias and the kernels accumulate on
    // top, which keeps the naive and blocked accumulation orders identical.
    init_bias_planes(&mut out, bias, plane);
    match backend {
        KernelBackend::Naive => forward_naive(geom, x, weight, &mut out),
        KernelBackend::Blocked => with_panel_kernel(Forward(geom, x, weight, &mut out)),
    }
    out
}

/// Convolution backward pass.
///
/// Accumulates the weight gradient into `grad_w` (`[c_out, c_in, kh, kw]`) and the bias
/// gradient into `grad_b` (`[c_out]`), exactly as the layers' `Param::grad` buffers
/// expect, and returns the input gradient (`[n, c_in, h, w]`).
pub fn conv_backward(
    backend: KernelBackend,
    geom: &ConvGeom,
    x: &[f32],
    weight: &[f32],
    grad_out: &[f32],
    grad_w: &mut [f32],
    grad_b: &mut [f32],
) -> Vec<f32> {
    // Zeroed checkout: both backends accumulate into grad_in via `+=`.
    let mut grad_in = crate::pool::take_zeroed::<f32>(x.len());
    let grads = (grad_w, grad_b, Some(&mut grad_in[..]));
    backward(backend, geom, x, weight, grad_out, grads);
    grad_in
}

/// [`conv_backward`] without the input gradient, for a layer whose input is the model's
/// input: the same weight and bias gradients, and neither the input-gradient product nor
/// its buffer.
pub fn conv_backward_params(
    backend: KernelBackend,
    geom: &ConvGeom,
    x: &[f32],
    weight: &[f32],
    grad_out: &[f32],
    grad_w: &mut [f32],
    grad_b: &mut [f32],
) {
    backward(backend, geom, x, weight, grad_out, (grad_w, grad_b, None));
}

/// Where a backward pass accumulates: `(grad_w, grad_b, grad_in)`; a `None` input gradient
/// is not computed.
type Grads<'a> = (&'a mut [f32], &'a mut [f32], Option<&'a mut [f32]>);

fn backward(
    backend: KernelBackend,
    geom: &ConvGeom,
    x: &[f32],
    weight: &[f32],
    grad_out: &[f32],
    grads: Grads<'_>,
) {
    geom.validate(x.len(), weight.len());
    assert_eq!(
        grad_out.len(),
        geom.n * geom.per_image_out(),
        "conv_backward: grad_out length mismatch"
    );
    assert_eq!(
        grads.0.len(),
        weight.len(),
        "conv_backward: grad_w length mismatch"
    );
    assert_eq!(
        grads.1.len(),
        geom.c_out,
        "conv_backward: grad_b length mismatch"
    );
    match backend {
        KernelBackend::Naive => backward_naive(geom, x, weight, grad_out, grads),
        KernelBackend::Blocked => backward_blocked(geom, x, weight, grad_out, grads),
    }
}

// ---------------------------------------------------------------------------
// Naive oracle: the seed repository's direct loop nests, generalised to ConvGeom.
// ---------------------------------------------------------------------------

fn forward_naive(geom: &ConvGeom, x: &[f32], weight: &[f32], out: &mut [f32]) {
    let (h_out, w_out) = (geom.h_out(), geom.w_out());
    let &ConvGeom {
        n,
        c_in,
        h,
        w,
        c_out,
        kh,
        kw,
        sh,
        sw,
        ..
    } = geom;
    let (ph, pw) = (geom.ph as isize, geom.pw as isize);
    for ni in 0..n {
        for co in 0..c_out {
            for oy in 0..h_out {
                for ox in 0..w_out {
                    let oi = ((ni * c_out + co) * h_out + oy) * w_out + ox;
                    let mut acc = out[oi];
                    for ci in 0..c_in {
                        for ky in 0..kh {
                            let iy = (oy * sh + ky) as isize - ph;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..kw {
                                let ix = (ox * sw + kx) as isize - pw;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let xi = ((ni * c_in + ci) * h + iy as usize) * w + ix as usize;
                                let wi = ((co * c_in + ci) * kh + ky) * kw + kx;
                                acc += x[xi] * weight[wi];
                            }
                        }
                    }
                    out[oi] = acc;
                }
            }
        }
    }
}

fn backward_naive(
    geom: &ConvGeom,
    x: &[f32],
    weight: &[f32],
    grad_out: &[f32],
    (grad_w, grad_b, mut grad_in): Grads<'_>,
) {
    let (h_out, w_out) = (geom.h_out(), geom.w_out());
    let &ConvGeom {
        n,
        c_in,
        h,
        w,
        c_out,
        kh,
        kw,
        sh,
        sw,
        ..
    } = geom;
    let (ph, pw) = (geom.ph as isize, geom.pw as isize);
    for ni in 0..n {
        for co in 0..c_out {
            for oy in 0..h_out {
                for ox in 0..w_out {
                    let g = grad_out[((ni * c_out + co) * h_out + oy) * w_out + ox];
                    if g == 0.0 {
                        continue;
                    }
                    grad_b[co] += g;
                    for ci in 0..c_in {
                        for ky in 0..kh {
                            let iy = (oy * sh + ky) as isize - ph;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..kw {
                                let ix = (ox * sw + kx) as isize - pw;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let xi = ((ni * c_in + ci) * h + iy as usize) * w + ix as usize;
                                let wi = ((co * c_in + ci) * kh + ky) * kw + kx;
                                grad_w[wi] += g * x[xi];
                                if let Some(grad_in) = grad_in.as_deref_mut() {
                                    grad_in[xi] += g * weight[wi];
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Blocked path: micro-kernel panels packed straight from the NCHW tensors.
//
// All three products run over the *global* output positions of the batch,
// `j = (ni·h_out + oy)·w_out + ox`, cut into row runs; no column matrix exists.
// ---------------------------------------------------------------------------

/// A maximal stretch of consecutive output positions inside one output row.
#[derive(Clone, Copy)]
struct Run {
    /// Offset of the run's first position in the position range it was cut from.
    lane: usize,
    len: usize,
    ni: usize,
    oy: usize,
    ox: usize,
}

impl Run {
    /// Index of the run's first element in channel `c` of a `[n, channels, h_out, w_out]`
    /// tensor (the output, or its gradient).
    fn at(&self, (h_out, w_out): (usize, usize), channels: usize, c: usize) -> usize {
        ((self.ni * channels + c) * h_out + self.oy) * w_out + self.ox
    }
}

/// Cuts the global output positions `[j0, j1)` of an `out_hw = (h_out, w_out)` output into
/// row runs, in ascending order.
fn row_runs(out_hw: (usize, usize), j0: usize, j1: usize) -> impl Iterator<Item = Run> {
    let (h_out, w_out) = out_hw;
    let (mut j, mut ox) = (j0, j0 % w_out);
    let (mut ni, mut oy) = (j0 / w_out / h_out, j0 / w_out % h_out);
    std::iter::from_fn(move || {
        (j < j1).then(|| {
            let len = (w_out - ox).min(j1 - j);
            let run = Run {
                lane: j - j0,
                len,
                ni,
                oy,
                ox,
            };
            (j, ox, oy) = (j + len, 0, oy + 1);
            if oy == h_out {
                (ni, oy) = (ni + 1, 0);
            }
            run
        })
    })
}

/// Visits the in-image part of every `(run, tap)` pair with `tap ∈ taps`: the call
/// `f(tap - taps.start, lane, count, xi)` says that under this tap the positions at lanes
/// `lane .. lane + count` read `x[xi]`, `x[xi + sw]`, ... — for stride 1 one contiguous,
/// edge-clipped slice of an input row. Lanes whose tap falls into the padding are not
/// visited. Runs ascend and, inside a run, kernel columns descend; the input-gradient
/// scatter relies on that order, the two packers do not care.
fn for_each_segment(
    geom: &ConvGeom,
    runs: impl Iterator<Item = Run>,
    taps: std::ops::Range<usize>,
    mut f: impl FnMut(usize, usize, usize, usize),
) {
    let g = geom;
    let (khw, chan) = (g.kh * g.kw, g.h * g.w);
    // Tap `ci·khw + off` lies in `taps` exactly for `ci` in `c0 + (off < r0) .. c1 + (off < r1)`.
    let (c0, r0) = (taps.start / khw, taps.start % khw);
    let (c1, r1) = (taps.end / khw, taps.end % khw);
    // Lanes `l` with `l·sw < d`; the zoo is all stride 1, where this is a division saved.
    let lanes_below = |d: usize| if g.sw == 1 { d } else { d.div_ceil(g.sw) };
    for run in runs {
        for ky in (0..g.kh).rev() {
            let iy = run.oy * g.sh + ky;
            if iy < g.ph || iy - g.ph >= g.h {
                continue;
            }
            let row = (run.ni * g.c_in * g.h + iy - g.ph) * g.w;
            for kx in (0..g.kw).rev() {
                // Lane `l` reads input column `col + l·sw - pw`, which must lie in `[0, w)`.
                let col = run.ox * g.sw + kx;
                let lo = lanes_below(g.pw.saturating_sub(col));
                let hi = lanes_below((g.w + g.pw).saturating_sub(col)).min(run.len);
                if lo >= hi {
                    continue;
                }
                let xi = row + col + lo * g.sw - g.pw;
                let off = ky * g.kw + kx;
                for ci in c0 + usize::from(off < r0)..c1 + usize::from(off < r1) {
                    f(
                        ci * khw + off - taps.start,
                        run.lane + lo,
                        hi - lo,
                        xi + ci * chan,
                    );
                }
            }
        }
    }
}

/// Packs all of an `[m, k]` GEMM A operand over `weight` (`trans` as in [`pack_a`]) into
/// `MR`-row panels, one panel set per `kc` block of `k`: the set of block `k0` starts at
/// `m_pad·k0`, and panel `pa` of it `pa·MR·kc_eff` further on.
fn pack_weight_panels<const MR: usize>(
    kc: usize,
    trans: Trans,
    weight: &[f32],
    m: usize,
    k: usize,
) -> Vec<f32> {
    let m_pad = m.next_multiple_of(MR);
    // pack_a writes every slot of every panel (ragged rows as zeros).
    let mut wp = crate::pool::take_uninit::<f32>(m_pad * k);
    for k0 in (0..k).step_by(kc) {
        let kc_eff = kc.min(k - k0);
        pack_a(
            trans,
            weight,
            (m, k),
            0,
            k0,
            m,
            kc_eff,
            &mut wp[m_pad * k0..],
            MR,
        );
    }
    wp
}

/// The forward pass as a [`PanelOp`]: `(geom, x, weight, out)`.
struct Forward<'a>(&'a ConvGeom, &'a [f32], &'a [f32], &'a mut [f32]);

impl PanelOp for Forward<'_> {
    fn run<const MR: usize, const NR: usize>(self, pk: PanelKernel<MR, NR>) {
        let Forward(geom, x, weight, out) = self;
        let (per_out, ckk) = (geom.per_image_out(), geom.patch_len());
        // A = W [c_out, taps], packed once per call.
        let wp = pack_weight_panels::<MR>(pk.kc, Trans::Nn, weight, geom.c_out, ckk);
        let threads = rayon::current_num_threads();
        if threads > 1 && geom.n > 1 && 2 * geom.n * per_out * ckk >= PAR_MIN_FLOPS {
            // Contiguous image ranges: disjoint output slices, own B panel, and every
            // element folds the same values in the same order wherever the panel
            // boundaries fall.
            let per_task = geom.n.div_ceil(threads);
            let chunks = out.chunks_mut(per_task * per_out).enumerate();
            // lint: allow(hot-path-alloc) multi-core fan-out task list; the alloc-gated
            // single-core path never reaches here
            let tasks: Vec<(usize, &mut [f32])> = chunks.collect();
            tasks
                .into_par_iter()
                .for_each(|(t, chunk)| forward_panels(geom, &pk, &wp, x, chunk, t * per_task));
        } else {
            forward_panels(geom, &pk, &wp, x, out, 0);
        }
        crate::pool::recycle(wp);
    }
}

/// Forward product over the images `out` covers (`ni0` is the first):
/// `out[ni][co][pos] += Σ_tap W[co][tap] · x(patch)`, taps ascending `(ci, ky, kx)` and
/// padding lanes holding `0.0`, so each element folds exactly what the naive nest folds.
fn forward_panels<const MR: usize, const NR: usize>(
    geom: &ConvGeom,
    pk: &PanelKernel<MR, NR>,
    wp: &[f32],
    x: &[f32],
    out: &mut [f32],
    ni0: usize,
) {
    let (c_out, ckk, sw) = (geom.c_out, geom.patch_len(), geom.sw);
    let hw = (geom.h_out(), geom.w_out());
    let c_pad = c_out.next_multiple_of(MR);
    let (j_begin, base) = (ni0 * hw.0 * hw.1, ni0 * geom.per_image_out());
    let j_end = j_begin + out.len() / c_out;
    let mut acc = [[0.0f32; NR]; MR];
    // One B panel, `bp[tap][lane]`: zero-filled per use, then the in-image lanes copied.
    let mut bp = crate::pool::take_uninit::<f32>(NR * pk.kc.min(ckk));
    for j0 in (j_begin..j_end).step_by(NR) {
        let j1 = (j0 + NR).min(j_end);
        for k0 in (0..ckk).step_by(pk.kc) {
            let kc_eff = pk.kc.min(ckk - k0);
            let b = &mut bp[..kc_eff * NR];
            b.fill(0.0);
            let b_rows = b.as_chunks_mut::<NR>().0;
            let runs = row_runs(hw, j0, j1);
            for_each_segment(geom, runs, k0..k0 + kc_eff, |t, lane, count, xi| {
                let dst = &mut b_rows[t][lane..lane + count];
                if sw == 1 {
                    dst.copy_from_slice(&x[xi..xi + count]);
                } else {
                    for (d, s) in dst.iter_mut().zip(x[xi..].iter().step_by(sw)) {
                        *d = *s;
                    }
                }
            });
            let a_all = &wp[c_pad * k0..][..c_pad * kc_eff];
            for (pa, a) in a_all.chunks_exact(MR * kc_eff).enumerate() {
                let rows = MR.min(c_out - pa * MR);
                // Load the output tile run by run, fold the block into it, store it back;
                // lanes outside `rows` x `j0..j1` meet zero panels and are never stored.
                for run in row_runs(hw, j0, j1) {
                    for (il, acc_row) in acc.iter_mut().enumerate().take(rows) {
                        let at = run.at(hw, c_out, pa * MR + il) - base;
                        acc_row[run.lane..][..run.len].copy_from_slice(&out[at..at + run.len]);
                    }
                }
                pk.fold(a, b, &mut acc);
                for run in row_runs(hw, j0, j1) {
                    for (il, acc_row) in acc.iter().enumerate().take(rows) {
                        let at = run.at(hw, c_out, pa * MR + il) - base;
                        out[at..at + run.len].copy_from_slice(&acc_row[run.lane..][..run.len]);
                    }
                }
            }
        }
    }
    crate::pool::recycle(bp);
}

fn backward_blocked(
    geom: &ConvGeom,
    x: &[f32],
    weight: &[f32],
    grad_out: &[f32],
    (grad_w, grad_b, grad_in): Grads<'_>,
) {
    // Bias gradient: fold each output plane in scan order, image by image, matching the
    // naive nest.
    let plane = geom.h_out() * geom.w_out();
    for g_img in grad_out.chunks_exact(geom.per_image_out()) {
        for (gb, g_plane) in grad_b.iter_mut().zip(g_img.chunks_exact(plane)) {
            for &g in g_plane {
                *gb += g;
            }
        }
    }
    with_panel_kernel(Backward(geom, x, weight, grad_out, grad_w, grad_in));
}

/// The backward products as a [`PanelOp`]: `(geom, x, weight, grad_out, grad_w, grad_in)`,
/// the input-gradient product only when there is a `grad_in` to receive it.
struct Backward<'a>(
    &'a ConvGeom,
    &'a [f32],
    &'a [f32],
    &'a [f32],
    &'a mut [f32],
    Option<&'a mut [f32]>,
);

impl PanelOp for Backward<'_> {
    fn run<const MR: usize, const NR: usize>(self, pk: PanelKernel<MR, NR>) {
        let Backward(geom, x, weight, grad_out, grad_w, grad_in) = self;
        weight_grad_panels(geom, &pk, x, grad_out, grad_w);
        if let Some(grad_in) = grad_in {
            input_grad_panels(geom, &pk, weight, grad_out, grad_in);
        }
    }
}

/// Weight gradient: `grad_w[co][tap] += Σ_(ni,pos) G[ni][co][pos] · x(patch)` with `k` the
/// global position index, i.e. the image-by-image, scan-order fold of the naive nest
/// continued in `grad_w`. Lanes are taps and rows are channels, never positions — a
/// horizontal reduction over positions would reassociate the sum.
fn weight_grad_panels<const MR: usize, const NR: usize>(
    geom: &ConvGeom,
    pk: &PanelKernel<MR, NR>,
    x: &[f32],
    grad_out: &[f32],
    grad_w: &mut [f32],
) {
    let (c_out, ckk, sw) = (geom.c_out, geom.patch_len(), geom.sw);
    let hw = (geom.h_out(), geom.w_out());
    let total = geom.n * hw.0 * hw.1;
    let c_pad = c_out.next_multiple_of(MR);
    let mut gp = crate::pool::take_uninit::<f32>(c_pad * pk.kc.min(total));
    let mut bp = crate::pool::take_uninit::<f32>(NR * pk.kc.min(total));
    for j0 in (0..total).step_by(pk.kc) {
        let kc_eff = pk.kc.min(total - j0);
        // A panels gather G: `gp[panel][pos][co]`, ragged channel rows zero.
        let a_all = &mut gp[..c_pad * kc_eff];
        a_all.fill(0.0);
        for run in row_runs(hw, j0, j0 + kc_eff) {
            for (pa, a) in a_all.chunks_exact_mut(MR * kc_eff).enumerate() {
                let a_cols = &mut a.as_chunks_mut::<MR>().0[run.lane..][..run.len];
                for il in 0..MR.min(c_out - pa * MR) {
                    let src = &grad_out[run.at(hw, c_out, pa * MR + il)..][..run.len];
                    for (col, s) in a_cols.iter_mut().zip(src) {
                        col[il] = *s;
                    }
                }
            }
        }
        // B panels are the patches transposed: `bp[pos][tap]`, padding left at zero.
        for t0 in (0..ckk).step_by(NR) {
            let cols = NR.min(ckk - t0);
            let b = &mut bp[..kc_eff * NR];
            b.fill(0.0);
            let b_rows = b.as_chunks_mut::<NR>().0;
            let runs = row_runs(hw, j0, j0 + kc_eff);
            for_each_segment(geom, runs, t0..t0 + cols, |t, lane, count, xi| {
                let dst = &mut b_rows[lane..lane + count];
                if sw == 1 {
                    for (row, s) in dst.iter_mut().zip(&x[xi..xi + count]) {
                        row[t] = *s;
                    }
                } else {
                    for (row, s) in dst.iter_mut().zip(x[xi..].iter().step_by(sw)) {
                        row[t] = *s;
                    }
                }
            });
            pk.fold_block(a_all, b, grad_w, ckk, t0, 0, c_out, cols, kc_eff);
        }
    }
    crate::pool::recycle(gp);
    crate::pool::recycle(bp);
}

/// Input gradient without a patch-gradient matrix: per position panel the tiles
/// `d[tap][lane] = Σ_co W[co][tap] · G[co][lane]` are folded from zero over *all* of `c_out`
/// and only then added into `grad_in`. For a fixed `grad_in` element each tap contributes
/// from exactly one position and, because `iy = oy·s + ky − p`, ascending position is
/// descending `(ky, kx)`: with position panels ascending and [`for_each_segment`]'s order
/// inside a panel, every element receives its contributions in ascending position order —
/// the sequence a scan-order scatter of the patch-gradient matrix produces. This is the
/// one reduction that is reassociated against the naive nest.
fn input_grad_panels<const MR: usize, const NR: usize>(
    geom: &ConvGeom,
    pk: &PanelKernel<MR, NR>,
    weight: &[f32],
    grad_out: &[f32],
    grad_in: &mut [f32],
) {
    let (c_out, ckk, sw) = (geom.c_out, geom.patch_len(), geom.sw);
    let hw = (geom.h_out(), geom.w_out());
    let total = geom.n * hw.0 * hw.1;
    let t_pad = ckk.next_multiple_of(MR);
    // A = Wᵀ [taps, c_out], packed once per call.
    let wt = pack_weight_panels::<MR>(pk.kc, Trans::Tn, weight, ckk, c_out);
    // B panel of G, `bp[co][lane]`; lanes past a ragged last panel are never scattered.
    let mut bp = crate::pool::take_uninit::<f32>(NR * pk.kc.min(c_out));
    // The tap tiles of one position panel, `d[tap][lane]`.
    let mut d = crate::pool::take_uninit::<f32>(t_pad * NR);
    let d_rows = d.as_chunks_mut::<NR>().0;
    for j0 in (0..total).step_by(NR) {
        let j1 = (j0 + NR).min(total);
        d_rows.fill([0.0; NR]);
        for k0 in (0..c_out).step_by(pk.kc) {
            let kc_eff = pk.kc.min(c_out - k0);
            let b_rows = &mut bp.as_chunks_mut::<NR>().0[..kc_eff];
            for run in row_runs(hw, j0, j1) {
                for (kl, b_row) in b_rows.iter_mut().enumerate() {
                    let at = run.at(hw, c_out, k0 + kl);
                    b_row[run.lane..][..run.len].copy_from_slice(&grad_out[at..at + run.len]);
                }
            }
            let a_all = &wt[t_pad * k0..][..t_pad * kc_eff];
            let tiles = d_rows.as_chunks_mut::<MR>().0;
            for (a, tile) in a_all.chunks_exact(MR * kc_eff).zip(tiles) {
                pk.fold(a, &bp[..kc_eff * NR], tile);
            }
        }
        for_each_segment(geom, row_runs(hw, j0, j1), 0..ckk, |t, lane, count, xi| {
            let src = &d_rows[t][lane..lane + count];
            if sw == 1 {
                for (d, s) in grad_in[xi..xi + count].iter_mut().zip(src) {
                    *d += *s;
                }
            } else {
                for (d, s) in grad_in[xi..].iter_mut().step_by(sw).zip(src) {
                    *d += *s;
                }
            }
        });
    }
    crate::pool::recycle(wt);
    crate::pool::recycle(bp);
    crate::pool::recycle(d);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::gemm::{gemm_cfg, Epilogue};
    use crate::kernels::runtime::{override_lock, set_micro_override, set_tiling_override};
    use crate::kernels::{TilingOverride, ALL_MICRO_KERNELS};
    use crate::rng::seeded;
    use rand::Rng;

    fn random_vec(rng: &mut impl Rng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-1.5f32..1.5)).collect()
    }

    // -----------------------------------------------------------------------
    // Reference: the im2col → per-image GEMM → col2im composition the panel drivers
    // replaced, kept to pin their reduction order bit for bit (grad_in included, which
    // the naive nest cannot pin because it folds per output channel).
    // -----------------------------------------------------------------------

    /// Lowers one image to its `[h_out·w_out, c_in·kh·kw]` patch matrix, padding taps as
    /// zeros.
    fn im2col(geom: &ConvGeom, x_img: &[f32], cols: &mut [f32]) {
        let &ConvGeom {
            c_in,
            h,
            w,
            kh,
            kw,
            sh,
            sw,
            ..
        } = geom;
        let (ph, pw) = (geom.ph as isize, geom.pw as isize);
        let mut idx = 0usize;
        for oy in 0..geom.h_out() {
            for ox in 0..geom.w_out() {
                for ci in 0..c_in {
                    for ky in 0..kh {
                        let iy = (oy * sh + ky) as isize - ph;
                        let row_ok = iy >= 0 && iy < h as isize;
                        for kx in 0..kw {
                            let ix = (ox * sw + kx) as isize - pw;
                            cols[idx] = if row_ok && ix >= 0 && ix < w as isize {
                                x_img[(ci * h + iy as usize) * w + ix as usize]
                            } else {
                                0.0
                            };
                            idx += 1;
                        }
                    }
                }
            }
        }
    }

    /// Scatter-adds a patch-gradient matrix back into one image's input gradient.
    fn col2im_add(geom: &ConvGeom, dcols: &[f32], grad_img: &mut [f32]) {
        let &ConvGeom {
            c_in,
            h,
            w,
            kh,
            kw,
            sh,
            sw,
            ..
        } = geom;
        let (ph, pw) = (geom.ph as isize, geom.pw as isize);
        let mut idx = 0usize;
        for oy in 0..geom.h_out() {
            for ox in 0..geom.w_out() {
                for ci in 0..c_in {
                    for ky in 0..kh {
                        let iy = (oy * sh + ky) as isize - ph;
                        let row_ok = iy >= 0 && iy < h as isize;
                        for kx in 0..kw {
                            let ix = (ox * sw + kx) as isize - pw;
                            if row_ok && ix >= 0 && ix < w as isize {
                                grad_img[(ci * h + iy as usize) * w + ix as usize] += dcols[idx];
                            }
                            idx += 1;
                        }
                    }
                }
            }
        }
    }

    fn forward_one_image(geom: &ConvGeom, x_img: &[f32], weight: &[f32], out_img: &mut [f32]) {
        let plane = geom.h_out() * geom.w_out();
        let ckk = geom.patch_len();
        let mut cols = vec![0.0; plane * ckk];
        im2col(geom, x_img, &mut cols);
        // out_img [c_out, plane] += W [c_out, ckk] · colsᵀ on top of the bias planes.
        gemm_cfg(
            KernelBackend::Blocked,
            Trans::Nt,
            geom.c_out,
            plane,
            ckk,
            weight,
            &cols,
            out_img,
            Epilogue::None,
        );
    }

    fn reference_forward(geom: &ConvGeom, x: &[f32], weight: &[f32], bias: &[f32]) -> Vec<f32> {
        let plane = geom.h_out() * geom.w_out();
        let mut out = vec![0.0; geom.n * geom.per_image_out()];
        init_bias_planes(&mut out, bias, plane);
        for (ni, out_img) in out.chunks_mut(geom.per_image_out().max(1)).enumerate() {
            let x_img = &x[ni * geom.per_image_in()..(ni + 1) * geom.per_image_in()];
            forward_one_image(geom, x_img, weight, out_img);
        }
        out
    }

    /// Returns `(grad_w, grad_b, grad_in)`, accumulated from zero.
    fn reference_backward(
        geom: &ConvGeom,
        x: &[f32],
        weight: &[f32],
        grad_out: &[f32],
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let (per_in, per_out) = (geom.per_image_in(), geom.per_image_out());
        let plane = geom.h_out() * geom.w_out();
        let ckk = geom.patch_len();
        let (mut grad_w, mut grad_b) = (vec![0.0; weight.len()], vec![0.0; geom.c_out]);
        let mut grad_in = vec![0.0; x.len()];
        let (mut cols, mut dcols) = (vec![0.0; plane * ckk], vec![0.0; plane * ckk]);
        for ni in 0..geom.n {
            let x_img = &x[ni * per_in..(ni + 1) * per_in];
            let g_img = &grad_out[ni * per_out..(ni + 1) * per_out];
            im2col(geom, x_img, &mut cols);
            for (co, gb) in grad_b.iter_mut().enumerate() {
                for &g in &g_img[co * plane..(co + 1) * plane] {
                    *gb += g;
                }
            }
            // grad_W [c_out, ckk] += G [c_out, plane] · cols [plane, ckk].
            gemm_cfg(
                KernelBackend::Blocked,
                Trans::Nn,
                geom.c_out,
                ckk,
                plane,
                g_img,
                &cols,
                &mut grad_w,
                Epilogue::None,
            );
            // dcols [plane, ckk] = Gᵀ ([c_out, plane]ᵀ) · W [c_out, ckk], then scatter back.
            dcols.fill(0.0);
            gemm_cfg(
                KernelBackend::Blocked,
                Trans::Tn,
                plane,
                ckk,
                geom.c_out,
                g_img,
                weight,
                &mut dcols,
                Epilogue::None,
            );
            col2im_add(geom, &dcols, &mut grad_in[ni * per_in..(ni + 1) * per_in]);
        }
        (grad_w, grad_b, grad_in)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// Forward, grad_w, grad_b and grad_in of the panel drivers against the reference
    /// composition, bit for bit, under every micro-kernel this host can run.
    fn check_against_reference(geom: ConvGeom, seed: u64) {
        let mut rng = seeded(seed);
        let x = random_vec(&mut rng, geom.n * geom.per_image_in());
        let weight = random_vec(&mut rng, geom.c_out * geom.patch_len());
        let bias = random_vec(&mut rng, geom.c_out);
        // A third of the output gradient is exact zeros, as behind a ReLU.
        let grad_out: Vec<f32> = random_vec(&mut rng, geom.n * geom.per_image_out())
            .into_iter()
            .map(|g| if g < -0.5 { 0.0 } else { g })
            .collect();
        let want_y = reference_forward(&geom, &x, &weight, &bias);
        let (want_gw, want_gb, want_gi) = reference_backward(&geom, &x, &weight, &grad_out);
        for id in ALL_MICRO_KERNELS.into_iter().filter(|id| id.is_available()) {
            set_micro_override(Some(id));
            let y = conv_forward(KernelBackend::Blocked, &geom, &x, &weight, &bias);
            let (mut gw, mut gb) = (vec![0.0; weight.len()], vec![0.0; geom.c_out]);
            let gi = conv_backward(
                KernelBackend::Blocked,
                &geom,
                &x,
                &weight,
                &grad_out,
                &mut gw,
                &mut gb,
            );
            let ctx = format!("{} on {geom:?}", id.name());
            assert_eq!(bits(&y), bits(&want_y), "forward, {ctx}");
            assert_eq!(bits(&gw), bits(&want_gw), "grad_w, {ctx}");
            assert_eq!(bits(&gb), bits(&want_gb), "grad_b, {ctx}");
            assert_eq!(bits(&gi), bits(&want_gi), "grad_in, {ctx}");
        }
        set_micro_override(None);
    }

    /// A 2-D geometry with exactly `h_out × w_out` outputs where the kernel, stride and
    /// padding allow it (otherwise the nearest valid input extent).
    #[allow(clippy::too_many_arguments)]
    fn geom_for(
        n: usize,
        c_in: usize,
        (h_out, w_out): (usize, usize),
        c_out: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> ConvGeom {
        let extent = |out: usize| {
            ((out - 1) * stride + kernel)
                .saturating_sub(2 * padding)
                .max(1)
        };
        ConvGeom::conv2d(
            n,
            c_in,
            extent(h_out),
            extent(w_out),
            c_out,
            kernel,
            stride,
            padding,
        )
    }

    const W_OUTS: [usize; 6] = [1, 3, 4, 8, 16, 17];
    const C_OUTS: [usize; 6] = [1, 6, 8, 16, 17, 40];
    const BATCHES: [usize; 3] = [1, 2, 9];

    #[test]
    fn panel_drivers_match_the_im2col_composition_bit_for_bit() {
        let _guard = override_lock();
        let mut rng = seeded(12);
        let mut pick = |list: &[usize]| list[rng.gen_range(0..list.len())];
        let mut seed = 100u64;
        // Every stride × padding × kernel, cycling output widths, batches and channels.
        for stride in [1, 2, 3] {
            for padding in [0, 1, 2] {
                for kernel in [1, 2, 3, 5] {
                    let (n, c_out, w_out) = (pick(&BATCHES), pick(&C_OUTS), pick(&W_OUTS));
                    let geom = geom_for(n, 2, (2, w_out), c_out, kernel, stride, padding);
                    seed += 1;
                    check_against_reference(geom, seed);
                }
            }
        }
        // Every output width × channel count on the zoo's 3x3 / stride 1 / padding 1:
        // runs shorter and longer than NR, panels straddling rows and images, ragged and
        // multiple A panels.
        for w_out in W_OUTS {
            for c_out in C_OUTS {
                let geom = geom_for(pick(&BATCHES), 3, (3, w_out), c_out, 3, 1, 1);
                seed += 1;
                check_against_reference(geom, seed);
            }
        }
        // Conv1d geometries, strided and padded.
        check_against_reference(ConvGeom::conv1d(9, 1, 64, 8, 5, 1, 2), 901);
        check_against_reference(ConvGeom::conv1d(2, 12, 16, 16, 3, 1, 1), 902);
        check_against_reference(ConvGeom::conv1d(3, 3, 17, 6, 5, 2, 2), 903);
        check_against_reference(ConvGeom::conv1d(1, 2, 9, 17, 2, 3, 0), 904);
        // More taps than KC (tap blocking) and more channels than KC (the input gradient
        // folds every k block before it scatters), at the default KC ...
        check_against_reference(ConvGeom::conv2d(2, 29, 4, 4, 257, 3, 1, 1), 905);
        // ... and with KC forced small, so both kinds of blocking meet ragged panels.
        set_tiling_override(TilingOverride {
            kc: Some(8),
            ..TilingOverride::default()
        });
        check_against_reference(ConvGeom::conv2d(9, 3, 5, 17, 17, 3, 1, 1), 906);
        check_against_reference(ConvGeom::conv2d(2, 2, 7, 8, 40, 5, 2, 2), 907);
        check_against_reference(ConvGeom::conv1d(2, 3, 33, 9, 5, 1, 2), 908);
        set_tiling_override(TilingOverride::default());
        // An empty batch is a no-op on every kernel.
        check_against_reference(ConvGeom::conv2d(0, 2, 4, 4, 3, 3, 1, 1), 909);
        // Past the flop threshold at two threads the forward fans image ranges out.
        rayon::set_num_threads(2);
        check_against_reference(ConvGeom::conv2d(9, 3, 32, 32, 16, 3, 1, 1), 910);
        rayon::set_num_threads(0);
    }

    fn check_conv_parity(geom: ConvGeom, seed: u64) {
        let mut rng = seeded(seed);
        let x = random_vec(&mut rng, geom.n * geom.per_image_in());
        let weight = random_vec(&mut rng, geom.c_out * geom.patch_len());
        let bias = random_vec(&mut rng, geom.c_out);
        let y_naive = conv_forward(KernelBackend::Naive, &geom, &x, &weight, &bias);
        let y_blocked = conv_forward(KernelBackend::Blocked, &geom, &x, &weight, &bias);
        assert_eq!(y_naive, y_blocked, "forward mismatch for {geom:?}");

        let grad_out = random_vec(&mut rng, y_naive.len());
        let (mut gw_n, mut gb_n) = (vec![0.0; weight.len()], vec![0.0; bias.len()]);
        let (mut gw_b, mut gb_b) = (vec![0.0; weight.len()], vec![0.0; bias.len()]);
        let gi_n = conv_backward(
            KernelBackend::Naive,
            &geom,
            &x,
            &weight,
            &grad_out,
            &mut gw_n,
            &mut gb_n,
        );
        let gi_b = conv_backward(
            KernelBackend::Blocked,
            &geom,
            &x,
            &weight,
            &grad_out,
            &mut gw_b,
            &mut gb_b,
        );
        assert_eq!(gw_n, gw_b, "grad_w mismatch for {geom:?}");
        assert_eq!(gb_n, gb_b, "grad_b mismatch for {geom:?}");
        // Dropping the input gradient changes neither parameter gradient, on either backend.
        for backend in [KernelBackend::Naive, KernelBackend::Blocked] {
            let (mut gw, mut gb) = (vec![0.0; weight.len()], vec![0.0; bias.len()]);
            conv_backward_params(backend, &geom, &x, &weight, &grad_out, &mut gw, &mut gb);
            assert_eq!(bits(&gw), bits(&gw_n), "params-only grad_w for {geom:?}");
            assert_eq!(bits(&gb), bits(&gb_n), "params-only grad_b for {geom:?}");
        }
        for (i, (a, b)) in gi_n.iter().zip(&gi_b).enumerate() {
            assert!(
                (a - b).abs() <= 1e-5 * (1.0 + a.abs()),
                "grad_in mismatch at {i} for {geom:?}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn conv2d_parity_across_strides_and_paddings() {
        check_conv_parity(ConvGeom::conv2d(2, 3, 6, 6, 4, 3, 1, 1), 10);
        check_conv_parity(ConvGeom::conv2d(1, 2, 7, 5, 3, 3, 2, 0), 11);
        check_conv_parity(ConvGeom::conv2d(3, 1, 4, 4, 2, 2, 2, 2), 12);
    }

    #[test]
    fn conv1d_parity() {
        check_conv_parity(ConvGeom::conv1d(2, 3, 16, 5, 5, 1, 2), 20);
        check_conv_parity(ConvGeom::conv1d(1, 1, 9, 2, 3, 2, 0), 21);
    }

    #[test]
    fn degenerate_one_by_one_and_empty_batch() {
        // 1x1 kernel on a 1x1 image is a pure channel mix.
        check_conv_parity(ConvGeom::conv2d(2, 3, 1, 1, 4, 1, 1, 0), 30);
        // An empty batch produces empty outputs and zero gradients on both backends.
        let geom = ConvGeom::conv2d(0, 2, 4, 4, 3, 3, 1, 1);
        for backend in [KernelBackend::Naive, KernelBackend::Blocked] {
            let y = conv_forward(backend, &geom, &[], &vec![1.0; 3 * 2 * 9], &[0.0; 3]);
            assert!(y.is_empty());
            let (mut gw, mut gb) = (vec![0.0; 3 * 2 * 9], vec![0.0; 3]);
            let gi = conv_backward(
                backend,
                &geom,
                &[],
                &vec![1.0; 3 * 2 * 9],
                &[],
                &mut gw,
                &mut gb,
            );
            assert!(gi.is_empty());
            assert!(gw.iter().all(|&v| v == 0.0) && gb.iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn im2col_known_values() {
        // 1x3x3 image, 2x2 kernel, no padding: four patches in scan order.
        let geom = ConvGeom::conv2d(1, 1, 3, 3, 1, 2, 1, 0);
        let x: Vec<f32> = (1..=9).map(|v| v as f32).collect();
        let mut cols = vec![0.0; 4 * 4];
        im2col(&geom, &x, &mut cols);
        assert_eq!(
            cols,
            vec![
                1.0, 2.0, 4.0, 5.0, //
                2.0, 3.0, 5.0, 6.0, //
                4.0, 5.0, 7.0, 8.0, //
                5.0, 6.0, 8.0, 9.0,
            ]
        );
    }
}
