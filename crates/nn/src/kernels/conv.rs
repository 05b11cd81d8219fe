//! Convolution kernels: direct naive loops (oracle) and gathered micro-kernel folds.
//!
//! One generalised geometry, [`ConvGeom`], covers both layer types: `Conv2d` maps to a
//! square kernel over `[n, c_in, h, w]`, and `Conv1d` is the `h = 1, kh = 1` special case
//! over `[n, c_in, 1, l]`. Both the naive and the blocked path implement **forward and
//! backward** so either backend can run a whole training step.
//!
//! The blocked path never materialises a patch (im2col) matrix and never packs a patch
//! panel either. A call copies its input once into a zero-padded *stage*
//! `[n, c_in, h + 2·ph, w + 2·pw]` (the input itself when there is no padding) and builds
//! two offset tables ([`StageTables`]): patch element `(position, tap)` is stage element
//! `origins[position] + taps[tap]`, padding included. The GEMM runtime's *gathered*
//! micro-kernel entry ([`PanelKernel::fold_gather`]) reads its broadcast operand through
//! exactly such a pair of tables, so each product is a plain tile loop around it:
//!
//! | product | rows (read in place) | folded over | lanes (packed) | tile |
//! |---|---|---|---|---|
//! | forward | positions of the stage | taps, ascending `(ci, ky, kx)` | `c_out`: `W` as `[tap][co]`, once | seeded from the bias, stored to the NCHW planes |
//! | weight gradient | taps of the stage | positions, in `(ni, oy, ox)` order | `c_out`: `G` position-major, per `kc` block | loaded from and stored back to `grad_w` |
//! | input gradient | taps of `W` itself | `c_out` (offsets `co·taps`) | positions: rows of `G`, per `NR` positions | from zero, then added tap by tap into a stage of `grad_in` |
//!
//! The first two share the stage and swap the roles of its two tables; the third reads the
//! weight tensor as it lies and meets the stage only when it adds — a tap's lanes land on
//! consecutive stage elements wherever their origins are consecutive — and the interior of
//! that stage is the input gradient. A product whose lanes are channels runs on the
//! narrower register tile when `c_out` would leave half of the wide one empty (see
//! `runtime::panel_scheme`).
//!
//! Taps enumerate `(ci, ky, kx)` in the order of the naive loop nest, padding reads `0.0`,
//! and every fold ascends, so the blocked forward, weight gradient and bias gradient are
//! bit-identical to the naive oracle on finite inputs; only the input gradient
//! reassociates its reduction (it sums kernel taps per output position, the naive nest per
//! output channel) and is verified to a few ULPs by the property tests — and pinned bit
//! for bit, like the other three, against the im2col composition this path descends from
//! (kept as a test reference).

use super::gemm::{with_panel_kernel, Gather, PanelKernel, PanelOp, PAR_MIN_FLOPS};
use super::{init_bias_planes, KernelBackend};
use crate::pool::{recycle, take_uninit, take_zeroed};
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

    /// Output positions of the whole batch: one per `(ni, oy, ox)`.
    fn positions(&self) -> usize {
        self.n * self.h_out() * self.w_out()
    }

    /// Extent `(hp, wp)` of one zero-padded input plane.
    fn padded_hw(&self) -> (usize, usize) {
        (self.h + 2 * self.ph, self.w + 2 * self.pw)
    }

    /// Whether a zero-padded copy of the input differs from the input at all.
    fn is_padded(&self) -> bool {
        self.ph + self.pw > 0
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
    // Pooled page, not zeroed: both backends write every element. Callers adopt the
    // returned buffer into a pooled Tensor (or recycle it), closing the reuse loop.
    let mut out = take_uninit::<f32>(geom.n * geom.per_image_out());
    // Either way an element starts at its bias and accumulates its taps on top, which
    // keeps the naive and blocked accumulation orders identical.
    match backend {
        KernelBackend::Naive => {
            init_bias_planes(&mut out, bias, geom.h_out() * geom.w_out());
            forward_naive(geom, x, weight, &mut out);
        }
        KernelBackend::Blocked => {
            with_panel_kernel(geom.c_out, Forward(geom, x, weight, bias, &mut out))
        }
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
    // Not zeroed: both backends write the whole input gradient.
    let mut grad_in = take_uninit::<f32>(x.len());
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

/// Where a backward pass puts its results: `(grad_w, grad_b, grad_in)`. The two parameter
/// gradients are accumulated into, the input gradient is written; a `None` input gradient
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
    if let Some(grad_in) = grad_in.as_deref_mut() {
        grad_in.fill(0.0);
    }
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
// Blocked path: gathered micro-kernel folds over one zero-padded stage.
//
// All three products run over the *global* output positions of the batch,
// `j = (ni·h_out + oy)·w_out + ox`; no column matrix and no patch panel exists.
// ---------------------------------------------------------------------------

/// The offset tables of a geometry's *stage*, the zero-padded `[n, c_in, hp, wp]` layout of
/// its input: patch element `(position, tap)` is stage element `origins[position] +
/// taps[tap]`, and the sum never leaves the stage.
struct StageTables {
    /// `ci·hp·wp + ky·wp + kx`, ascending `(ci, ky, kx)` — the naive nest's tap order.
    taps: Vec<usize>,
    /// `ni·c_in·hp·wp + oy·sh·wp + ox·sw`, in `(ni, oy, ox)` order.
    origins: Vec<usize>,
    /// `(y + ph)·wp + pw + x`: where element `(y, x)` of an input plane sits in its stage
    /// plane. Rows of at least [`ROW_COPY_MIN`] elements move between the two as slices;
    /// shorter ones element by element through this table.
    interior: Vec<usize>,
}

/// The row length from which one `memcpy` call per row beats an indexed store per element
/// (a call costs about a dozen of them); most of the zoo's 2-D rows are shorter.
const ROW_COPY_MIN: usize = 16;

impl StageTables {
    fn new(g: &ConvGeom) -> Self {
        let (hp, wp) = g.padded_hw();
        let mut taps = take_uninit::<usize>(g.patch_len());
        for (r, row) in taps.chunks_exact_mut(g.kw).enumerate() {
            let (ci, ky) = (r / g.kh, r % g.kh);
            for (kx, tap) in row.iter_mut().enumerate() {
                *tap = (ci * hp + ky) * wp + kx;
            }
        }
        let mut origins = take_uninit::<usize>(g.positions());
        for (r, row) in origins.chunks_exact_mut(g.w_out()).enumerate() {
            let (ni, oy) = (r / g.h_out(), r % g.h_out());
            for (ox, origin) in row.iter_mut().enumerate() {
                *origin = (ni * g.c_in * hp + oy * g.sh) * wp + ox * g.sw;
            }
        }
        let mut interior = take_uninit::<usize>(g.h * g.w);
        for (y, row) in interior.chunks_exact_mut(g.w.max(1)).enumerate() {
            for (x, at) in row.iter_mut().enumerate() {
                *at = (y + g.ph) * wp + g.pw + x;
            }
        }
        Self {
            taps,
            origins,
            interior,
        }
    }

    /// The input as the products read it: a zero-padded copy, or nothing to copy.
    fn stage_input(&self, g: &ConvGeom, x: &[f32]) -> Option<Vec<f32>> {
        g.is_padded().then(|| {
            let (hp, wp) = g.padded_hw();
            let mut stage = take_zeroed::<f32>(g.n * g.c_in * hp * wp);
            let planes = x.chunks_exact(self.interior.len().max(1));
            for (plane, staged) in planes.zip(stage.chunks_exact_mut(hp * wp)) {
                if g.w < ROW_COPY_MIN {
                    for (v, &at) in plane.iter().zip(&self.interior) {
                        staged[at] = *v;
                    }
                } else {
                    let row_starts = self.interior.iter().step_by(g.w);
                    for (row, &at) in plane.chunks_exact(g.w).zip(row_starts) {
                        staged[at..at + g.w].copy_from_slice(row);
                    }
                }
            }
            stage
        })
    }

    /// The inverse of [`stage_input`](Self::stage_input) for a gradient: the interior of
    /// its stage, copied out.
    fn unstage_into(&self, g: &ConvGeom, stage: &[f32], grad_in: &mut [f32]) {
        let (hp, wp) = g.padded_hw();
        let planes = grad_in.chunks_exact_mut(self.interior.len().max(1));
        for (plane, staged) in planes.zip(stage.chunks_exact(hp * wp)) {
            if g.w < ROW_COPY_MIN {
                for (v, &at) in plane.iter_mut().zip(&self.interior) {
                    *v = staged[at];
                }
            } else {
                let row_starts = self.interior.iter().step_by(g.w);
                for (row, &at) in plane.chunks_exact_mut(g.w).zip(row_starts) {
                    row.copy_from_slice(&staged[at..at + g.w]);
                }
            }
        }
    }

    fn recycle(self) {
        recycle(self.taps);
        recycle(self.origins);
        recycle(self.interior);
    }
}

/// Cuts the global positions `[j0, j1)` at image boundaries: `(first - j0, len, ni, s)` per
/// stretch, `s` the stretch's first index inside a plane of image `ni`. A channel of an
/// NCHW tensor is contiguous over exactly such a stretch.
fn image_cuts(
    plane: usize,
    j0: usize,
    j1: usize,
) -> impl Iterator<Item = (usize, usize, usize, usize)> {
    let mut j = j0;
    std::iter::from_fn(move || {
        (j < j1).then(|| {
            let (ni, s) = (j / plane, j % plane);
            let len = (plane - s).min(j1 - j);
            let cut = (j - j0, len, ni, s);
            j += len;
            cut
        })
    })
}

/// The forward pass as a [`PanelOp`]: `(geom, x, weight, bias, out)`.
struct Forward<'a>(&'a ConvGeom, &'a [f32], &'a [f32], &'a [f32], &'a mut [f32]);

impl PanelOp for Forward<'_> {
    fn run<const MR: usize, const NR: usize>(self, pk: PanelKernel<MR, NR>) {
        let Forward(geom, x, weight, bias, out) = self;
        let (c_out, per_out, ckk) = (geom.c_out, geom.per_image_out(), geom.patch_len());
        let tables = StageTables::new(geom);
        let staged = tables.stage_input(geom, x);
        let stage = staged.as_deref().unwrap_or(x);
        let patches = Gather::new(stage, &tables.origins, &tables.taps);
        // B = Wᵀ as `NR`-channel panels `wp[panel][tap][co]`, packed once per call; the
        // lanes past `c_out` stay zero.
        let mut wp = take_zeroed::<f32>(c_out.next_multiple_of(NR) * ckk);
        for (co, w_row) in weight.chunks_exact(ckk).enumerate() {
            let panel = wp[co / NR * ckk * NR..].as_chunks_mut::<NR>().0;
            for (lanes, w) in panel.iter_mut().zip(w_row) {
                lanes[co % NR] = *w;
            }
        }
        let threads = rayon::current_num_threads();
        if threads > 1 && geom.n > 1 && 2 * geom.n * per_out * ckk >= PAR_MIN_FLOPS {
            // Contiguous image ranges: disjoint output slices over the shared read-only
            // stage, and every element folds the same values in the same order wherever
            // the tile boundaries fall.
            let per_task = geom.n.div_ceil(threads);
            let chunks = out.chunks_mut(per_task * per_out).enumerate();
            // Multi-core fan-out task list; the single-core path never reaches here
            let tasks: Vec<(usize, &mut [f32])> = chunks.collect();
            tasks.into_par_iter().for_each(|(t, chunk)| {
                forward_tiles(geom, &pk, &patches, &wp, bias, chunk, t * per_task)
            });
        } else {
            forward_tiles(geom, &pk, &patches, &wp, bias, out, 0);
        }
        recycle(wp);
        if let Some(staged) = staged {
            recycle(staged);
        }
        tables.recycle();
    }
}

/// Forward product over the images `out` covers (`ni0` is the first):
/// `out[ni][co][pos] = bias[co] + Σ_tap x(patch) · W[co][tap]`, taps ascending
/// `(ci, ky, kx)` and padding taps reading `0.0`, so each element folds exactly what the
/// naive nest folds. Rows of a tile are positions, lanes are channels.
fn forward_tiles<const MR: usize, const NR: usize>(
    geom: &ConvGeom,
    pk: &PanelKernel<MR, NR>,
    patches: &Gather<'_>,
    wp: &[f32],
    bias: &[f32],
    out: &mut [f32],
    ni0: usize,
) {
    let (c_out, ckk) = (geom.c_out, geom.patch_len());
    let plane = geom.h_out() * geom.w_out();
    let (j_begin, base) = (ni0 * plane, ni0 * geom.per_image_out());
    let j_end = j_begin + out.len() / c_out;
    for (b_panel, co0) in wp.chunks_exact(ckk * NR).zip((0..c_out).step_by(NR)) {
        let cols = NR.min(c_out - co0);
        let mut seed = [0.0f32; NR];
        seed[..cols].copy_from_slice(&bias[co0..co0 + cols]);
        for j0 in (j_begin..j_end).step_by(MR) {
            let rows = MR.min(j_end - j0);
            let mut acc = [seed; MR];
            for k0 in (0..ckk).step_by(pk.kc) {
                let k1 = (k0 + pk.kc).min(ckk);
                pk.fold_gather(patches, j0, k0..k1, &b_panel[k0 * NR..k1 * NR], &mut acc);
            }
            // Rows past `rows` and lanes past `cols` folded padding and are not stored.
            for (i0, len, ni, s) in image_cuts(plane, j0, j0 + rows) {
                for co in 0..cols {
                    let at = (ni * c_out + co0 + co) * plane + s - base;
                    for (o, acc_row) in out[at..at + len].iter_mut().zip(&acc[i0..]) {
                        *o = acc_row[co];
                    }
                }
            }
        }
    }
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
    // The two products share the tables but not the tile: the weight gradient's lanes are
    // channels, the input gradient's are positions.
    let tables = StageTables::new(geom);
    with_panel_kernel(geom.c_out, WeightGrad(geom, &tables, x, grad_out, grad_w));
    if let Some(grad_in) = grad_in {
        let op = InputGrad(geom, &tables, weight, grad_out, grad_in);
        with_panel_kernel(geom.positions(), op);
    }
    tables.recycle();
}

/// The weight-gradient product as a [`PanelOp`]: `(geom, tables, x, grad_out, grad_w)`.
struct WeightGrad<'a>(
    &'a ConvGeom,
    &'a StageTables,
    &'a [f32],
    &'a [f32],
    &'a mut [f32],
);

impl PanelOp for WeightGrad<'_> {
    /// `grad_w[co][tap] += Σ_(ni,pos) x(patch) · G[ni][co][pos]` over the global position
    /// index, i.e. the image-by-image, scan-order fold of the naive nest continued in
    /// `grad_w`. The forward's operand with its tables swapped: rows of a tile are taps,
    /// the fold runs over positions, lanes are channels — never positions, a horizontal
    /// reduction over them would reassociate the sum.
    fn run<const MR: usize, const NR: usize>(self, pk: PanelKernel<MR, NR>) {
        let WeightGrad(geom, tables, x, grad_out, grad_w) = self;
        let (c_out, ckk, total) = (geom.c_out, geom.patch_len(), geom.positions());
        let plane = geom.h_out() * geom.w_out();
        let staged = tables.stage_input(geom, x);
        let stage = staged.as_deref().unwrap_or(x);
        let patches = Gather::new(stage, &tables.taps, &tables.origins);
        let c_pad = c_out.next_multiple_of(NR);
        let row_tiles = ckk.div_ceil(MR);
        // The tiles of `grad_w`, transposed (`grad_w` is channel-major, a tile's rows are
        // taps) and resident for the whole call: `acc[panel][row tile]`, loaded once here
        // and stored once at the end, whatever the number of position blocks in between.
        let mut acc = take_zeroed::<f32>(c_pad * row_tiles * MR);
        let tiles = acc.as_chunks_mut::<NR>().0.as_chunks_mut::<MR>().0;
        for (co, w_row) in grad_w.chunks_exact(ckk).enumerate() {
            let panel = &mut tiles[co / NR * row_tiles..][..row_tiles];
            for (tile, w_rows) in panel.iter_mut().zip(w_row.chunks(MR)) {
                for (acc_row, w) in tile.iter_mut().zip(w_rows) {
                    acc_row[co % NR] = *w;
                }
            }
        }
        let mut gp = take_uninit::<f32>(c_pad * pk.kc.min(total));
        for k0 in (0..total).step_by(pk.kc) {
            let k1 = (k0 + pk.kc).min(total);
            // B = G position-major as `NR`-channel panels `gp[panel][pos][co]`, ragged
            // channel lanes zero.
            let gp = &mut gp[..c_pad * (k1 - k0)];
            if c_pad > c_out {
                gp.fill(0.0);
            }
            for (q0, len, ni, s) in image_cuts(plane, k0, k1) {
                for co in 0..c_out {
                    let panel = &mut gp[co / NR * (k1 - k0) * NR..][..(k1 - k0) * NR];
                    let lanes = &mut panel.as_chunks_mut::<NR>().0[q0..q0 + len];
                    let src = &grad_out[(ni * c_out + co) * plane + s..][..len];
                    for (lane_row, g) in lanes.iter_mut().zip(src) {
                        lane_row[co % NR] = *g;
                    }
                }
            }
            let panels = gp.chunks_exact((k1 - k0) * NR);
            for (b_panel, panel_tiles) in panels.zip(tiles.chunks_exact_mut(row_tiles)) {
                for (tile, t0) in panel_tiles.iter_mut().zip((0..).step_by(MR)) {
                    pk.fold_gather(&patches, t0, k0..k1, b_panel, tile);
                }
            }
        }
        // Rows past the taps and lanes past `c_out` folded padding and are not stored.
        for (co, w_row) in grad_w.chunks_exact_mut(ckk).enumerate() {
            let panel = &tiles[co / NR * row_tiles..][..row_tiles];
            for (tile, w_rows) in panel.iter().zip(w_row.chunks_mut(MR)) {
                for (acc_row, w) in tile.iter().zip(w_rows) {
                    *w = acc_row[co % NR];
                }
            }
        }
        recycle(acc);
        recycle(gp);
        if let Some(staged) = staged {
            recycle(staged);
        }
    }
}

/// The input-gradient product as a [`PanelOp`]:
/// `(geom, tables, weight, grad_out, grad_in)`.
struct InputGrad<'a>(
    &'a ConvGeom,
    &'a StageTables,
    &'a [f32],
    &'a [f32],
    &'a mut [f32],
);

impl PanelOp for InputGrad<'_> {
    /// Input gradient without a patch-gradient matrix: per `NR` positions the tiles
    /// `d[tap][pos] = Σ_co W[co][tap] · G[co][pos]` are folded from zero over *all* of
    /// `c_out` — `W` read in place, rows its taps, offsets its channel rows — and only then
    /// added into a zero-padded stage of `grad_in`, whose interior is the result. For a
    /// fixed `grad_in` element each tap contributes from exactly one position and, because
    /// `iy = oy·s + ky − p`, ascending position is descending `(ky, kx)`: with position
    /// panels ascending and taps descending inside a panel, every element receives its
    /// contributions in ascending position order — the sequence a scan-order scatter of
    /// the patch-gradient matrix produces. This is the one reduction that is reassociated
    /// against the naive nest.
    fn run<const MR: usize, const NR: usize>(self, pk: PanelKernel<MR, NR>) {
        let InputGrad(geom, tables, weight, grad_out, grad_in) = self;
        let (c_out, ckk, total) = (geom.c_out, geom.patch_len(), geom.positions());
        let plane = geom.h_out() * geom.w_out();
        // A = Wᵀ needs no packing: row `tap` of it is `weight[tap + co·ckk]` over `co`.
        let mut w_rows = take_uninit::<usize>(ckk);
        for (tap, row) in w_rows.iter_mut().enumerate() {
            *row = tap;
        }
        let mut w_offs = take_uninit::<usize>(c_out);
        for (co, off) in w_offs.iter_mut().enumerate() {
            *off = co * ckk;
        }
        let taps_of_w = Gather::new(weight, &w_rows, &w_offs);
        // B panel of G, `bp[co][lane]`; the tap tiles of one position panel, `d[tap][lane]`.
        let mut bp = take_uninit::<f32>(c_out * NR);
        let mut d = take_uninit::<f32>(ckk.next_multiple_of(MR) * NR);
        let d_rows = d.as_chunks_mut::<NR>().0;
        let (hp, wp) = geom.padded_hw();
        let mut staged = geom
            .is_padded()
            .then(|| take_zeroed::<f32>(geom.n * geom.c_in * hp * wp));
        if staged.is_none() {
            grad_in.fill(0.0);
        }
        let stage = staged.as_deref_mut().unwrap_or(&mut *grad_in);
        for j0 in (0..total).step_by(NR) {
            let origins = &tables.origins[j0..(j0 + NR).min(total)];
            if origins.len() < NR {
                // The lanes past a ragged last panel fold zeros.
                bp.fill(0.0);
            }
            for (q0, len, ni, s) in image_cuts(plane, j0, j0 + origins.len()) {
                for (b_row, co) in bp.as_chunks_mut::<NR>().0.iter_mut().zip(0..) {
                    let at = (ni * c_out + co) * plane + s;
                    b_row[q0..q0 + len].copy_from_slice(&grad_out[at..at + len]);
                }
            }
            d_rows.fill([0.0; NR]);
            let tiles = d_rows.as_chunks_mut::<MR>().0;
            for (tile, t0) in tiles.iter_mut().zip((0..).step_by(MR)) {
                for k0 in (0..c_out).step_by(pk.kc) {
                    let k1 = (k0 + pk.kc).min(c_out);
                    pk.fold_gather(&taps_of_w, t0, k0..k1, &bp[k0 * NR..k1 * NR], tile);
                }
            }
            // Taps descend; under one tap the lanes touch distinct elements. Lanes whose
            // origins are consecutive (for stride 1, a stretch of one output row) form a
            // run, closed by its entry in `ends`: long runs add a tap as one slice each,
            // short ones cost less lane by lane — a ragged panel padded with lanes that
            // add their zeros at its first origin.
            let mut ends = [0usize; NR];
            let mut runs = 0;
            for lane in 1..=origins.len() {
                if lane == origins.len() || origins[lane] != origins[lane - 1] + 1 {
                    ends[runs] = lane;
                    runs += 1;
                }
            }
            let taps_descending = tables.taps.iter().zip(d_rows.iter()).rev();
            if runs * 8 <= origins.len() {
                for (&tap, d_row) in taps_descending {
                    let mut l0 = 0;
                    for &l1 in &ends[..runs] {
                        let dst = &mut stage[origins[l0] + tap..][..l1 - l0];
                        for (gi, v) in dst.iter_mut().zip(&d_row[l0..l1]) {
                            *gi += *v;
                        }
                        l0 = l1;
                    }
                }
            } else {
                let mut at = [origins[0]; NR];
                at[..origins.len()].copy_from_slice(origins);
                for (&tap, d_row) in taps_descending {
                    let dst = &mut stage[tap..];
                    for (&lane_at, v) in at.iter().zip(d_row) {
                        dst[lane_at] += *v;
                    }
                }
            }
        }
        if let Some(stage) = staged {
            tables.unstage_into(geom, &stage, grad_in);
            recycle(stage);
        }
        recycle(d);
        recycle(bp);
        recycle(w_offs);
        recycle(w_rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::gemm::{gemm_cfg, Epilogue, Trans};
    use crate::kernels::runtime::{override_lock, set_micro_override, set_tiling_override};
    use crate::kernels::{TilingOverride, ALL_MICRO_KERNELS};
    use crate::rng::seeded;
    use rand::Rng;

    fn random_vec(rng: &mut impl Rng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-1.5f32..1.5)).collect()
    }

    // -----------------------------------------------------------------------
    // Reference: the im2col → per-image GEMM → col2im composition the blocked path descends
    // from, kept to pin its reduction order bit for bit (grad_in included, which the naive
    // nest cannot pin because it folds per output channel).
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

    /// Returns `(grad_w, grad_b, grad_in)`, the two parameter gradients accumulated on top
    /// of `seeds`.
    fn reference_backward(
        geom: &ConvGeom,
        x: &[f32],
        weight: &[f32],
        grad_out: &[f32],
        seeds: (&[f32], &[f32]),
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let (per_in, per_out) = (geom.per_image_in(), geom.per_image_out());
        let plane = geom.h_out() * geom.w_out();
        let ckk = geom.patch_len();
        let (mut grad_w, mut grad_b) = (seeds.0.to_vec(), seeds.1.to_vec());
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

    /// Forward, grad_w, grad_b and grad_in of the blocked path against the reference
    /// composition, bit for bit, under the automatic selection (which narrows the tile for
    /// `c_out ≤ 8`) and under every micro-kernel this host can run. The parameter gradients
    /// accumulate on top of what the buffers hold.
    fn check_against_reference(geom: ConvGeom, seed: u64) {
        let mut rng = seeded(seed);
        let x = random_vec(&mut rng, geom.n * geom.per_image_in());
        let weight = random_vec(&mut rng, geom.c_out * geom.patch_len());
        let bias = random_vec(&mut rng, geom.c_out);
        let (seed_w, seed_b) = (random_vec(&mut rng, weight.len()), bias.clone());
        // A third of the output gradient is exact zeros, as behind a ReLU.
        let grad_out: Vec<f32> = random_vec(&mut rng, geom.n * geom.per_image_out())
            .into_iter()
            .map(|g| if g < -0.5 { 0.0 } else { g })
            .collect();
        let want_y = reference_forward(&geom, &x, &weight, &bias);
        let (want_gw, want_gb, want_gi) =
            reference_backward(&geom, &x, &weight, &grad_out, (&seed_w, &seed_b));
        let forced = ALL_MICRO_KERNELS.into_iter().filter(|id| id.is_available());
        for select in std::iter::once(None).chain(forced.map(Some)) {
            set_micro_override(select);
            let y = conv_forward(KernelBackend::Blocked, &geom, &x, &weight, &bias);
            let (mut gw, mut gb) = (seed_w.clone(), seed_b.clone());
            let gi = conv_backward(
                KernelBackend::Blocked,
                &geom,
                &x,
                &weight,
                &grad_out,
                &mut gw,
                &mut gb,
            );
            let ctx = format!("{} on {geom:?}", select.map_or("auto", |id| id.name()));
            assert_eq!(bits(&y), bits(&want_y), "forward, {ctx}");
            assert_eq!(bits(&gw), bits(&want_gw), "grad_w, {ctx}");
            assert_eq!(bits(&gb), bits(&want_gb), "grad_b, {ctx}");
            assert_eq!(bits(&gi), bits(&want_gi), "grad_in, {ctx}");
        }
        set_micro_override(None);
    }

    /// A 2-D geometry with exactly `h_out × w_out` outputs where the kernel, stride and
    /// padding allow it (otherwise the nearest valid input extent).
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
    const C_OUTS: [usize; 7] = [1, 6, 8, 12, 16, 17, 40];
    const BATCHES: [usize; 3] = [1, 2, 9];

    #[test]
    fn gathered_products_match_the_im2col_composition_bit_for_bit() {
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
        // Every output width × channel count on the zoo's 3x3 / stride 1 / padding 1: rows
        // shorter and longer than a tile, tiles straddling rows and images, position counts
        // that are no multiple of `MR`, ragged and multiple lane panels.
        for w_out in W_OUTS {
            for c_out in C_OUTS {
                let geom = geom_for(pick(&BATCHES), 3, (3, w_out), c_out, 3, 1, 1);
                seed += 1;
                check_against_reference(geom, seed);
            }
        }
        // What stresses the two tables: images of 1x1, 2x2 and 3x3 under padding 1 (most
        // taps of most positions read padding), no padding at all (the stage is the input
        // and `grad_in` its own stage), stride 2, under the zoo's ragged lane counts.
        for c_out in [6, 12] {
            for side in [1, 2, 3] {
                seed += 1;
                check_against_reference(ConvGeom::conv2d(9, 5, side, side, c_out, 3, 1, 1), seed);
            }
            check_against_reference(ConvGeom::conv2d(2, 3, 6, 7, c_out, 3, 1, 0), seed + 50);
            check_against_reference(ConvGeom::conv2d(3, 2, 9, 8, c_out, 3, 2, 1), seed + 60);
            check_against_reference(ConvGeom::conv2d(5, 4, 4, 4, c_out, 1, 1, 0), seed + 70);
        }
        // Conv1d geometries, strided and padded, kernel 5 among them.
        check_against_reference(ConvGeom::conv1d(9, 1, 64, 8, 5, 1, 2), 901);
        check_against_reference(ConvGeom::conv1d(2, 12, 16, 16, 3, 1, 1), 902);
        check_against_reference(ConvGeom::conv1d(3, 3, 17, 6, 5, 2, 2), 903);
        check_against_reference(ConvGeom::conv1d(1, 2, 9, 17, 2, 3, 0), 904);
        check_against_reference(ConvGeom::conv1d(7, 6, 33, 12, 5, 1, 0), 911);
        // More taps than KC (the forward continues its tile over tap blocks) and more
        // channels than KC (the input gradient folds every k block before it adds), at the
        // default KC ...
        check_against_reference(ConvGeom::conv2d(2, 29, 4, 4, 257, 3, 1, 1), 905);
        // ... and with KC forced below the tap count *and* the position count, so the
        // k-block continuation runs in both roles of the stage's tables (taps folded by the
        // forward, positions folded by the weight gradient) and meets ragged tiles.
        for kc in [8, 3] {
            set_tiling_override(TilingOverride {
                kc: Some(kc),
                ..TilingOverride::default()
            });
            check_against_reference(ConvGeom::conv2d(9, 3, 5, 17, 17, 3, 1, 1), 906);
            check_against_reference(ConvGeom::conv2d(2, 2, 7, 8, 40, 5, 2, 2), 907);
            check_against_reference(ConvGeom::conv1d(2, 3, 33, 9, 5, 1, 2), 908);
            check_against_reference(ConvGeom::conv2d(9, 16, 1, 1, 12, 3, 1, 1), 912);
        }
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
