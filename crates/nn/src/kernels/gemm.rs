//! Cache-blocked, register-tiled GEMM drivers behind the kernel runtime.
//!
//! The entry points are [`gemm_nn`], [`gemm_nt`] and [`gemm_tn`] — the three operand
//! layouts the layers need (`C += A·B`, `C += A·Bᵀ`, `C += Aᵀ·B`). All of them
//! *accumulate into* `C`, so callers seed `C` with zeros or a bias broadcast and may pass
//! a fused [`Epilogue`] applied after the product.
//!
//! How a product actually runs is decided by the process
//! [`runtime`](super::runtime::runtime): it plans a
//! [`TilingScheme`](super::tiling::TilingScheme) per shape and this module executes it.
//! Three drivers exist, one per [`Staging`](super::tiling::Staging) mode:
//!
//! * **direct** — unpacked register tiling for small and skinny shapes;
//! * **single** — the classic BLIS loop nest: `NC`-wide column blocks of B packed into
//!   `NR` panels, `MC`-tall row blocks of A into `MR` panels, an `MR×NR` micro-kernel
//!   (see [`super::micro`]) walking the shared `KC` dimension;
//! * **double** — the same packed loop nest, but a persistent per-thread stage thread
//!   packs stage `i+1`'s panels into an alternate buffer pair while the micro-kernel
//!   consumes stage `i`'s, hiding pack latency behind compute.
//!
//! Every driver **loads the destination tile and folds into it**, so each output element
//! is accumulated in exactly the same ascending-`k` order as the naive loops — all
//! schemes, stagings and micro-kernels produce bit-identical results on finite inputs,
//! which is what lets the naive backend serve as a strict oracle.
//!
//! When the host has more than one core and the product is large enough, the row dimension
//! is split into one contiguous panel per thread (via the rayon shim). Each thread owns a
//! disjoint slice of C and performs the identical per-element accumulation, so results do
//! not depend on the thread count — parallelism changes wall-clock time only.

use rayon::prelude::*;

use super::micro::{self, MicroKernelId, MicroSelect};
use super::runtime::{micro_select, panel_scheme, record_stage_wait, runtime, GemmPlan};
use super::tiling::{PartitionSize, Staging, TilingScheme};
use super::KernelBackend;

/// Minimum number of floating-point operations (`2·m·n·k`) before a blocked kernel (GEMM
/// or convolution) fans out across threads; below this the spawn overhead dominates.
pub(super) const PAR_MIN_FLOPS: usize = 1 << 22;

/// Operand layout of a GEMM call. `C` is always row-major `[m, n]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trans {
    /// `A` is row-major `[m, k]`, `B` is row-major `[k, n]`: `C += A·B`.
    Nn,
    /// `A` is row-major `[m, k]`, `B` is row-major `[n, k]`: `C += A·Bᵀ`.
    Nt,
    /// `A` is row-major `[k, m]`, `B` is row-major `[k, n]`: `C += Aᵀ·B`.
    Tn,
}

/// Fused operation applied to `C` after the product has been accumulated.
#[derive(Clone, Copy, Debug)]
pub enum Epilogue<'a> {
    /// Leave `C` as the accumulated product.
    None,
    /// Add `bias[j]` to every row: the fully-connected bias broadcast.
    BiasRow(&'a [f32]),
    /// Add `bias[j]` to every row, then clamp at zero (fused bias + ReLU).
    BiasRowRelu(&'a [f32]),
    /// Clamp every element at zero.
    Relu,
}

impl Epilogue<'_> {
    fn apply(&self, c: &mut [f32], n: usize) {
        match self {
            Epilogue::None => {}
            Epilogue::BiasRow(bias) => {
                assert_eq!(bias.len(), n, "Epilogue::BiasRow: bias length must be n");
                super::add_bias_rows(c, bias);
            }
            Epilogue::BiasRowRelu(bias) => {
                assert_eq!(
                    bias.len(),
                    n,
                    "Epilogue::BiasRowRelu: bias length must be n"
                );
                if n == 0 {
                    return;
                }
                for row in c.chunks_exact_mut(n) {
                    for (x, b) in row.iter_mut().zip(*bias) {
                        *x = (*x + b).max(0.0);
                    }
                }
            }
            Epilogue::Relu => {
                for x in c.iter_mut() {
                    *x = x.max(0.0);
                }
            }
        }
    }
}

/// `C += A·B` with the given backend (row-major `[m,k] · [k,n] -> [m,n]`).
pub fn gemm_nn(
    backend: KernelBackend,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    epilogue: Epilogue<'_>,
) {
    gemm_cfg(backend, Trans::Nn, m, n, k, a, b, c, epilogue);
}

/// `C += A·Bᵀ` with the given backend (row-major `[m,k] · [n,k]ᵀ -> [m,n]`).
pub fn gemm_nt(
    backend: KernelBackend,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    epilogue: Epilogue<'_>,
) {
    gemm_cfg(backend, Trans::Nt, m, n, k, a, b, c, epilogue);
}

/// `C += Aᵀ·B` with the given backend (row-major `[k,m]ᵀ · [k,n] -> [m,n]`).
pub fn gemm_tn(
    backend: KernelBackend,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    epilogue: Epilogue<'_>,
) {
    gemm_cfg(backend, Trans::Tn, m, n, k, a, b, c, epilogue);
}

/// Backend-dispatched entry point: the runtime plans the scheme per shape.
#[allow(clippy::too_many_arguments)]
pub fn gemm_cfg(
    backend: KernelBackend,
    trans: Trans,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    epilogue: Epilogue<'_>,
) {
    assert_eq!(a.len(), m * k, "gemm: A length must be m*k");
    assert_eq!(b.len(), k * n, "gemm: B length must be k*n");
    assert_eq!(c.len(), m * n, "gemm: C length must be m*n");

    match backend {
        KernelBackend::Naive => gemm_naive(trans, m, n, k, a, b, c),
        KernelBackend::Blocked => {
            let rt = runtime();
            let plan = rt.select(trans, m, n, k);
            let flops = 2 * m * n * k;
            let threads = rayon::current_num_threads();
            let fan_out = match &plan {
                GemmPlan::Tiled(scheme, _) => {
                    scheme.stage != Staging::Direct
                        && threads > 1
                        && flops >= PAR_MIN_FLOPS
                        && m >= 2 * scheme.tile.mr
                        && n > 0
                }
                GemmPlan::Naive => false,
            };
            if let (true, GemmPlan::Tiled(scheme, micro)) = (fan_out, &plan) {
                // The fan-out already owns every core, so each row slice runs
                // single-stage: a per-slice pack thread would only oversubscribe.
                let slice_scheme = TilingScheme {
                    stage: Staging::Single,
                    ..*scheme
                };
                // Fixed panel order: thread t owns rows [t*rows_per, ...), and every
                // element is accumulated exactly as in the single-threaded path.
                let rows_per = m.div_ceil(threads).max(scheme.tile.mr);
                let tasks: Vec<(usize, &mut [f32])> = c
                    .chunks_mut(rows_per * n)
                    .enumerate()
                    .map(|(t, chunk)| (t * rows_per, chunk))
                    // lint: allow(hot-path-alloc) multi-core fan-out task list; the
                    // alloc-gated single-core path never reaches here
                    .collect();
                tasks.into_par_iter().for_each(|(row0, c_rows)| {
                    let m_local = c_rows.len() / n;
                    gemm_dispatch(
                        trans,
                        (m, n, k),
                        a,
                        b,
                        c_rows,
                        row0,
                        m_local,
                        &slice_scheme,
                        *micro,
                    );
                });
            } else {
                rt.gemm(&plan, trans, (m, n, k), a, b, c, 0, m);
            }
        }
    }
    epilogue.apply(c, n);
}

/// Full-control entry point: runs one explicit scheme and micro-kernel policy over the
/// whole output, bypassing runtime selection and the threaded fan-out. The scheme is a
/// pure performance control — results are bit-identical whatever is passed.
#[allow(clippy::too_many_arguments)]
pub fn gemm_with_scheme(
    trans: Trans,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    epilogue: Epilogue<'_>,
    scheme: &TilingScheme,
    micro: MicroSelect,
) {
    assert_eq!(a.len(), m * k, "gemm: A length must be m*k");
    assert_eq!(b.len(), k * n, "gemm: B length must be k*n");
    assert_eq!(c.len(), m * n, "gemm: C length must be m*n");
    scheme.validate();
    gemm_dispatch(trans, (m, n, k), a, b, c, 0, m, scheme, micro);
    epilogue.apply(c, n);
}

// ---------------------------------------------------------------------------
// Naive oracle loops.
//
// These are the seed repository's `Tensor::matmul` loops, generalised to the three
// layouts. For every output element the shared dimension is folded in ascending order
// starting from the existing value of C, and `a == 0.0` contributions are skipped — the
// exact semantics the tiled drivers reproduce.
// ---------------------------------------------------------------------------

pub(super) fn gemm_naive(
    trans: Trans,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    match trans {
        Trans::Nn => {
            for i in 0..m {
                let a_row = &a[i * k..(i + 1) * k];
                let c_row = &mut c[i * n..(i + 1) * n];
                for (p, &av) in a_row.iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    let b_row = &b[p * n..(p + 1) * n];
                    for (cc, &bv) in c_row.iter_mut().zip(b_row) {
                        *cc += av * bv;
                    }
                }
            }
        }
        Trans::Nt => {
            for i in 0..m {
                let a_row = &a[i * k..(i + 1) * k];
                for j in 0..n {
                    let b_row = &b[j * k..(j + 1) * k];
                    let cc = &mut c[i * n + j];
                    for (&av, &bv) in a_row.iter().zip(b_row) {
                        if av == 0.0 {
                            continue;
                        }
                        *cc += av * bv;
                    }
                }
            }
        }
        Trans::Tn => {
            for p in 0..k {
                let a_row = &a[p * m..(p + 1) * m];
                let b_row = &b[p * n..(p + 1) * n];
                for (i, &av) in a_row.iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    let c_row = &mut c[i * n..(i + 1) * n];
                    for (cc, &bv) in c_row.iter_mut().zip(b_row) {
                        *cc += av * bv;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Indexing helpers and panel packing (shared by all tiled drivers).
// ---------------------------------------------------------------------------

#[inline(always)]
fn a_at(trans: Trans, a: &[f32], m: usize, k: usize, i: usize, p: usize) -> f32 {
    match trans {
        Trans::Nn | Trans::Nt => a[i * k + p],
        Trans::Tn => a[p * m + i],
    }
}

#[inline(always)]
fn b_at(trans: Trans, b: &[f32], n: usize, k: usize, p: usize, j: usize) -> f32 {
    match trans {
        Trans::Nn | Trans::Tn => b[p * n + j],
        Trans::Nt => b[j * k + p],
    }
}

/// Packs an `mc_eff × kc_eff` block of A into `mr`-row panels, zero-padding the ragged
/// last panel. Panel layout is `p`-major: `ap[panel][p * mr + i]`.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    trans: Trans,
    a: &[f32],
    (m, k): (usize, usize),
    row0: usize,
    pc: usize,
    mc_eff: usize,
    kc_eff: usize,
    ap: &mut [f32],
    mr: usize,
) {
    let panels = mc_eff.div_ceil(mr);
    for panel in 0..panels {
        let i0 = row0 + panel * mr;
        let rows = mr.min(mc_eff - panel * mr);
        let dst = &mut ap[panel * mr * kc_eff..(panel + 1) * mr * kc_eff];
        for p in 0..kc_eff {
            let col = &mut dst[p * mr..p * mr + mr];
            for (il, slot) in col.iter_mut().enumerate() {
                *slot = if il < rows {
                    a_at(trans, a, m, k, i0 + il, pc + p)
                } else {
                    0.0
                };
            }
        }
    }
}

/// Packs a `kc_eff × nc_eff` block of B into `nr`-column panels, zero-padding the ragged
/// last panel. Panel layout is `p`-major: `bp[panel][p * nr + j]`.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    trans: Trans,
    b: &[f32],
    (n, k): (usize, usize),
    pc: usize,
    jc: usize,
    kc_eff: usize,
    nc_eff: usize,
    bp: &mut [f32],
    nr: usize,
) {
    let panels = nc_eff.div_ceil(nr);
    for panel in 0..panels {
        let j0 = jc + panel * nr;
        let cols = nr.min(nc_eff - panel * nr);
        let dst = &mut bp[panel * nr * kc_eff..(panel + 1) * nr * kc_eff];
        for p in 0..kc_eff {
            let row = &mut dst[p * nr..p * nr + nr];
            for (jl, slot) in row.iter_mut().enumerate() {
                *slot = if jl < cols {
                    b_at(trans, b, n, k, pc + p, j0 + jl)
                } else {
                    0.0
                };
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Scheme dispatch: monomorphise the drivers per tile and resolve the
// micro-kernel function pointer per (tile, policy, host).
// ---------------------------------------------------------------------------

/// The packed micro-kernel signature the drivers call through (see [`super::micro`]).
// SAFETY: the stored pointer is only ever a kernel whose CPU features were verified via
// `is_available()`, and its one caller, `PanelKernel::fold`, checks the panel lengths
// the kernels require. (Single line so the audit sees this comment on the `unsafe`.)
#[rustfmt::skip]
type MicroFn<const TMR: usize, const TNR: usize> = unsafe fn(&[f32], &[f32], &mut [[f32; TNR]; TMR]);

/// The gathered micro-kernel signature: `(a, rows, offs, bp, acc)` (see [`super::micro`]).
// SAFETY: resolved next to the packed pointer, so under the same verified features, and its
// one caller, `PanelKernel::fold_gather`, only passes rows and offsets a `Gather` bounded.
#[rustfmt::skip]
type GatherFn<const TMR: usize, const TNR: usize> = unsafe fn(&[f32], &[usize; TMR], &[usize], &[f32], &mut [[f32; TNR]; TMR]);

/// The two entries of one micro-kernel and the identity of the bodies behind them
/// ([`MicroKernelId::Portable`] for the generic pair at any tile).
type Resolved<const TMR: usize, const TNR: usize> =
    (MicroKernelId, MicroFn<TMR, TNR>, GatherFn<TMR, TNR>);

fn generic<const TMR: usize, const TNR: usize>() -> Resolved<TMR, TNR> {
    (
        MicroKernelId::Portable,
        micro::microkernel_generic::<TMR, TNR>,
        micro::gather_generic::<TMR, TNR>,
    )
}

fn resolve_8x8(select: MicroSelect) -> Resolved<8, 8> {
    let id = MicroKernelId::Avx8x8;
    #[cfg(target_arch = "x86_64")]
    if select.allows(id) && id.is_available() {
        return (id, micro::avx::microkernel, micro::avx::gather);
    }
    let _ = (select, id);
    generic()
}

fn resolve_16x8(select: MicroSelect) -> Resolved<16, 8> {
    let id = MicroKernelId::Avx512_16x8;
    #[cfg(target_arch = "x86_64")]
    if select.allows(id) && id.is_available() {
        return (id, micro::avx512::microkernel, micro::avx512::gather);
    }
    let _ = (select, id);
    generic()
}

fn resolve_16x16(select: MicroSelect) -> Resolved<16, 16> {
    let id = MicroKernelId::Avx512_16x16;
    #[cfg(target_arch = "x86_64")]
    if select.allows(id) && id.is_available() {
        return (id, micro::avx512w::microkernel, micro::avx512w::gather);
    }
    let _ = (select, id);
    generic()
}

/// A micro-kernel resolved for this host as a safe handle: what the packed drivers fold
/// through, and what drivers outside this module get that bring their own operands (the
/// convolutions, which fold gathered). The feature check and the two `unsafe` calls stay
/// in this module.
#[derive(Clone, Copy)]
pub(super) struct PanelKernel<const MR: usize, const NR: usize> {
    /// Which kernel's bodies the two entries are; a forced kernel that does not fit the
    /// tile (or the host) resolves to the generic pair, never to a mixed one.
    pub(super) id: MicroKernelId,
    micro_fn: MicroFn<MR, NR>,
    gather_fn: GatherFn<MR, NR>,
    /// Depth of the shared dimension one fold may cover (the scheme's `kc`).
    pub(super) kc: usize,
}

impl<const MR: usize, const NR: usize> PanelKernel<MR, NR> {
    fn new((id, micro_fn, gather_fn): Resolved<MR, NR>, kc: usize) -> Self {
        Self {
            id,
            micro_fn,
            gather_fn,
            kc,
        }
    }

    /// `acc += ap · bp` in ascending-`p` order: `ap` is a `p`-major `kc × MR` panel, `bp`
    /// a `p`-major `kc × NR` panel.
    #[inline]
    pub(super) fn fold(&self, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
        let kc = ap.len() / MR;
        assert!(
            ap.len() == kc * MR && bp.len() == kc * NR,
            "PanelKernel::fold ({}): panels must be kc x {MR} and kc x {NR}",
            self.id.name()
        );
        // SAFETY: the panel lengths were checked just above, and `micro_fn` is only ever
        // set by dispatch_tile, i.e. to a kernel whose features the host has (see
        // resolve_8x8 / resolve_16x8 / resolve_16x16).
        unsafe { (self.micro_fn)(ap, bp, acc) };
    }

    /// [`fold`](Self::fold) with the `MR` operand rows read in place:
    /// `acc[i][j] += a[rows[r0 + i] + offs[p]] · bp[(p - k.start)·NR + j]` for `p`
    /// ascending over `k`, with `a`, `rows` and `offs` those of `operand`. Rows past the
    /// end of the row table repeat offset `0`; their accumulator rows are the caller's
    /// to discard.
    #[inline]
    pub(super) fn fold_gather(
        &self,
        operand: &Gather<'_>,
        r0: usize,
        k: std::ops::Range<usize>,
        bp: &[f32],
        acc: &mut [[f32; NR]; MR],
    ) {
        let offs = &operand.offs[k];
        assert_eq!(
            bp.len(),
            offs.len() * NR,
            "PanelKernel::fold_gather ({}): bp must be offs.len() x {NR}",
            self.id.name()
        );
        let table = &operand.rows[r0..];
        if table.is_empty() {
            // No row to fold — and nothing was proved about an operand without rows.
            return;
        }
        let mut ragged = [0usize; MR];
        let rows = table.first_chunk::<MR>().unwrap_or_else(|| {
            ragged[..table.len()].copy_from_slice(table);
            &ragged
        });
        // SAFETY: the row table is not empty here, so `Gather::new` proved `row + off <
        // a.len()` for every pair of table entries (or `offs` is empty and nothing is
        // read); `rows` holds table entries or `0` (not above any of them) and `offs` is a
        // slice of the offset table — the tables are private to `Gather` and never change;
        // `bp` was measured just above; and `gather_fn` is only ever set next to
        // `micro_fn`, i.e. to a kernel whose features the host has.
        unsafe { (self.gather_fn)(operand.a, rows, offs, bp, acc) };
    }
}

/// An operand a gathered fold reads in place: element `(row, p)` is `a[rows[row] + offs[p]]`.
/// Construction proves every such read in bounds, once for all the folds over the operand.
pub(super) struct Gather<'a> {
    a: &'a [f32],
    rows: &'a [usize],
    offs: &'a [usize],
}

impl<'a> Gather<'a> {
    /// Panics unless `rows[i] + offs[p] < a.len()` for every `i` and `p` (an empty table
    /// makes the operand empty, which is fine: a fold over it reads nothing).
    pub(super) fn new(a: &'a [f32], rows: &'a [usize], offs: &'a [usize]) -> Self {
        if let (Some(row), Some(off)) = (rows.iter().max(), offs.iter().max()) {
            assert!(
                row.checked_add(*off).is_some_and(|last| last < a.len()),
                "Gather: rows[i] + offs[p] must stay inside the operand"
            );
        }
        Self { a, rows, offs }
    }
}

/// A computation written once for every register tile.
pub(super) trait PanelOp {
    /// Runs the computation on the `MR × NR` tile.
    fn run<const MR: usize, const NR: usize>(self, pk: PanelKernel<MR, NR>);
}

/// Monomorphises `op` for the scheme's tile and hands it the micro-kernel `select` allows
/// on this host — the one place that maps tiles to kernels.
fn dispatch_tile(scheme: &TilingScheme, select: MicroSelect, op: impl PanelOp) {
    let kc = scheme.partition.kc;
    match (scheme.tile.mr, scheme.tile.nr) {
        (4, 8) => op.run(PanelKernel::new(generic::<4, 8>(), kc)),
        (8, 8) => op.run(PanelKernel::new(resolve_8x8(select), kc)),
        (16, 8) => op.run(PanelKernel::new(resolve_16x8(select), kc)),
        (16, 16) => op.run(PanelKernel::new(resolve_16x16(select), kc)),
        (mr, nr) => panic!("gemm: unsupported register tile {mr}x{nr}"),
    }
}

/// Runs `op`, a product that fills `lanes` accumulator lanes, on the tile and micro-kernel
/// the current knobs (`MERGESFL_MICROKERNEL`, `MERGESFL_TILING`) and host features give it
/// (see [`panel_scheme`]).
pub(super) fn with_panel_kernel(lanes: usize, op: impl PanelOp) {
    let select = micro_select();
    dispatch_tile(&panel_scheme(select, lanes), select, op);
}

/// Runs one scheme over the row slice `c_rows` (rows `[row0, row0 + m_local)` of the full
/// `[m, n]` output). `dims` carries the full problem sizes so the transposed layouts can
/// index A and B globally.
#[allow(clippy::too_many_arguments)]
pub(super) fn gemm_dispatch(
    trans: Trans,
    dims: (usize, usize, usize),
    a: &[f32],
    b: &[f32],
    c_rows: &mut [f32],
    row0: usize,
    m_local: usize,
    scheme: &TilingScheme,
    select: MicroSelect,
) {
    let op = Tiled(trans, dims, a, b, c_rows, row0, m_local, scheme);
    dispatch_tile(scheme, select, op);
}

/// One tiled GEMM over a row slice as a [`PanelOp`]: the arguments of [`gemm_dispatch`].
struct Tiled<'a>(
    Trans,
    (usize, usize, usize),
    &'a [f32],
    &'a [f32],
    &'a mut [f32],
    usize,
    usize,
    &'a TilingScheme,
);

impl PanelOp for Tiled<'_> {
    fn run<const TMR: usize, const TNR: usize>(self, pk: PanelKernel<TMR, TNR>) {
        let Tiled(trans, dims, a, b, c_rows, row0, m_local, scheme) = self;
        let part = &scheme.partition;
        match scheme.stage {
            Staging::Direct => gemm_direct::<TMR, TNR>(trans, dims, a, b, c_rows, row0, m_local),
            Staging::Single => {
                gemm_packed_single(trans, dims, a, b, c_rows, row0, m_local, part, pk)
            }
            Staging::Double => {
                gemm_packed_double(trans, dims, a, b, c_rows, row0, m_local, part, pk)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Direct driver: unpacked register tiling for small and skinny shapes.
// ---------------------------------------------------------------------------

/// Register-tiled GEMM without packing: the accumulator tile reads A and B in place.
/// For the small and skinny shapes the runtime routes here, packing cannot amortise —
/// but register tiling still beats the naive nest: each B row is loaded as one
/// contiguous slice where the layout allows, and the multiply-accumulate always runs
/// over the full `TNR`-wide register row (ragged tiles zero-fill `b_row`, so the
/// padding lanes fold nothing and are never stored), which keeps the inner loop
/// vectorisable. Per output element the `p` loop ascends, so results are
/// bit-identical to the oracle.
fn gemm_direct<const TMR: usize, const TNR: usize>(
    trans: Trans,
    dims: (usize, usize, usize),
    a: &[f32],
    b: &[f32],
    c_rows: &mut [f32],
    row0: usize,
    m_local: usize,
) {
    let (m, n, k) = dims;
    if m_local == 0 || n == 0 || k == 0 {
        return;
    }
    for i0 in (0..m_local).step_by(TMR) {
        let rows = TMR.min(m_local - i0);
        for j0 in (0..n).step_by(TNR) {
            let cols = TNR.min(n - j0);
            let mut acc = [[0.0f32; TNR]; TMR];
            for (il, acc_row) in acc.iter_mut().enumerate().take(rows) {
                let base = (i0 + il) * n + j0;
                acc_row[..cols].copy_from_slice(&c_rows[base..base + cols]);
            }
            // Lanes >= cols stay 0.0 for the whole tile, so the full-width MAC
            // below adds exactly 0.0 to accumulator lanes that are never stored.
            let mut b_row = [0.0f32; TNR];
            for p in 0..k {
                match trans {
                    // B is `[k, n]`: row p is contiguous in j.
                    Trans::Nn | Trans::Tn => {
                        let base = p * n + j0;
                        b_row[..cols].copy_from_slice(&b[base..base + cols]);
                    }
                    // B is `[n, k]`: column gather, one strided read per lane.
                    Trans::Nt => {
                        for (jl, slot) in b_row.iter_mut().enumerate().take(cols) {
                            *slot = b[(j0 + jl) * k + p];
                        }
                    }
                }
                for (il, acc_row) in acc.iter_mut().enumerate().take(rows) {
                    let av = a_at(trans, a, m, k, row0 + i0 + il, p);
                    for (cc, &bv) in acc_row.iter_mut().zip(&b_row) {
                        *cc += av * bv;
                    }
                }
            }
            for (il, acc_row) in acc.iter().enumerate().take(rows) {
                let base = (i0 + il) * n + j0;
                c_rows[base..base + cols].copy_from_slice(&acc_row[..cols]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Packed single-stage driver (BLIS loop nest).
// ---------------------------------------------------------------------------

impl<const TMR: usize, const TNR: usize> PanelKernel<TMR, TNR> {
    /// Folds one packed block into the C tiles it covers: `ap` holds the `TMR`-row panels
    /// of `mc_eff` rows, `bp` the `TNR`-column panels of `nc_eff` columns, both `kc_eff`
    /// deep, and the block starts at row `ic`, column `jc` of the row-major `[_, n]`
    /// `c_rows`. Shared by the single- and double-stage drivers so both accumulate in
    /// exactly the same order.
    #[allow(clippy::too_many_arguments)]
    fn fold_block(
        &self,
        ap: &[f32],
        bp: &[f32],
        c_rows: &mut [f32],
        n: usize,
        jc: usize,
        ic: usize,
        mc_eff: usize,
        nc_eff: usize,
        kc_eff: usize,
    ) {
        for pa in 0..mc_eff.div_ceil(TMR) {
            let i0 = ic + pa * TMR;
            let rows = TMR.min(mc_eff - pa * TMR);
            let ap_panel = &ap[pa * TMR * kc_eff..(pa + 1) * TMR * kc_eff];
            for pb in 0..nc_eff.div_ceil(TNR) {
                let j0 = jc + pb * TNR;
                let cols = TNR.min(nc_eff - pb * TNR);
                let bp_panel = &bp[pb * TNR * kc_eff..(pb + 1) * TNR * kc_eff];
                // Load the destination tile (padded lanes start at zero and are
                // discarded), fold the panel product into it, store it back.
                let mut acc = [[0.0f32; TNR]; TMR];
                for (il, acc_row) in acc.iter_mut().enumerate().take(rows) {
                    let c_row = &c_rows[(i0 + il) * n + j0..(i0 + il) * n + j0 + cols];
                    acc_row[..cols].copy_from_slice(c_row);
                }
                self.fold(ap_panel, bp_panel, &mut acc);
                for (il, acc_row) in acc.iter().enumerate().take(rows) {
                    let c_row = &mut c_rows[(i0 + il) * n + j0..(i0 + il) * n + j0 + cols];
                    c_row.copy_from_slice(&acc_row[..cols]);
                }
            }
        }
    }
}

/// Single-stage packed GEMM over a contiguous row slice of C with a `TMR×TNR` tile:
/// panels are packed inline on the compute thread, B once per `(jc, pc)` block, A once
/// per `(jc, pc, ic)` block.
#[allow(clippy::too_many_arguments)]
fn gemm_packed_single<const TMR: usize, const TNR: usize>(
    trans: Trans,
    dims: (usize, usize, usize),
    a: &[f32],
    b: &[f32],
    c_rows: &mut [f32],
    row0: usize,
    m_local: usize,
    part: &PartitionSize,
    pk: PanelKernel<TMR, TNR>,
) {
    let (m, n, k) = dims;
    if m_local == 0 || n == 0 || k == 0 {
        return;
    }
    let kc_max = part.kc.min(k);
    let mc_max = part.mc.min(m_local);
    let nc_max = part.nc.min(n);
    // Pooled packing panels: every used slot (padding lanes included) is rewritten by
    // pack_a / pack_b before the micro-kernel reads it, so stale contents never
    // influence C and the checkout can skip zeroing. Recycled on every return path.
    let mut ap = crate::pool::take_uninit::<f32>(mc_max.div_ceil(TMR) * TMR * kc_max);
    let mut bp = crate::pool::take_uninit::<f32>(nc_max.div_ceil(TNR) * TNR * kc_max);

    for jc in (0..n).step_by(nc_max) {
        let nc_eff = nc_max.min(n - jc);
        for pc in (0..k).step_by(kc_max) {
            let kc_eff = kc_max.min(k - pc);
            pack_b(trans, b, (n, k), pc, jc, kc_eff, nc_eff, &mut bp, TNR);
            for ic in (0..m_local).step_by(mc_max) {
                let mc_eff = mc_max.min(m_local - ic);
                pack_a(
                    trans,
                    a,
                    (m, k),
                    row0 + ic,
                    pc,
                    mc_eff,
                    kc_eff,
                    &mut ap,
                    TMR,
                );
                pk.fold_block(&ap, &bp, c_rows, n, jc, ic, mc_eff, nc_eff, kc_eff);
            }
        }
    }
    crate::pool::recycle(ap);
    crate::pool::recycle(bp);
}

// ---------------------------------------------------------------------------
// Packed double-buffered driver.
//
// Stage order is jc → pc → ic, identical to the single-stage driver; stages are
// numbered t = g·ics + r where g enumerates (jc, pc) block pairs and r the ic
// blocks within the pair. The persistent per-thread packer thread packs stage
// t's A panel into ap[t % 2] (and, when r == 0, the pair's B panel into
// bp[g % 2]) and signals ready(t); the compute side waits for ready(t), folds
// the block, and returns done(t) so the packer may reuse the buffer for t + 2.
// The packer therefore runs at most one stage ahead, which keeps the live
// buffers disjoint. Panel contents and the per-element ascending-k fold order
// are schedule-independent, so double-buffering is bit-identical to
// single-stage — it changes wall-clock time only.
// ---------------------------------------------------------------------------

/// One packing job handed to the persistent packer thread: the full stage
/// enumeration of one GEMM call, with raw views of the operands and the two
/// panel buffer pairs.
struct PackJob {
    trans: Trans,
    m: usize,
    n: usize,
    k: usize,
    row0: usize,
    m_local: usize,
    mc: usize,
    kc: usize,
    nc: usize,
    tmr: usize,
    tnr: usize,
    a: *const f32,
    a_len: usize,
    b: *const f32,
    b_len: usize,
    ap: [*mut f32; 2],
    ap_len: usize,
    bp: [*mut f32; 2],
    bp_len: usize,
    total: usize,
    ics: usize,
    pcs: usize,
}

// SAFETY: the raw pointers reference the operands and pooled panel buffers owned
// by the stack frame of `gemm_packed_double`, which does not return (or drop the
// buffers) until it has received ready(total - 1) — sent by the packer only
// after its final write. The ready/done protocol keeps the packer's writes on
// buffers the compute side is not reading (see the module comment above), so no
// location is ever accessed from both threads at once.
unsafe impl Send for PackJob {}

/// Decodes stage `t` of a job into its block coordinates and effective sizes:
/// `(jc, pc, ic, nc_eff, kc_eff, mc_eff, r)`.
#[allow(clippy::type_complexity)]
fn stage_coords(
    t: usize,
    ics: usize,
    pcs: usize,
    (mc, kc, nc): (usize, usize, usize),
    (m_local, n, k): (usize, usize, usize),
) -> (usize, usize, usize, usize, usize, usize, usize) {
    let g = t / ics;
    let r = t % ics;
    let jc = (g / pcs) * nc;
    let pc = (g % pcs) * kc;
    let ic = r * mc;
    (
        jc,
        pc,
        ic,
        nc.min(n - jc),
        kc.min(k - pc),
        mc.min(m_local - ic),
        r,
    )
}

/// The packer thread's main loop: one iteration per job, exiting when the
/// owning thread drops its command sender.
fn packer_main(
    cmd_rx: rayon::channel::Receiver<PackJob>,
    ready_tx: rayon::channel::Sender<usize>,
    done_rx: rayon::channel::Receiver<usize>,
) {
    while let Some(job) = cmd_rx.recv() {
        // SAFETY: PackJob's Send contract (above): the operands stay alive and
        // unmodified for the whole job, and each panel buffer is written only
        // while the compute side holds no view of it.
        let (a, b) = unsafe {
            (
                std::slice::from_raw_parts(job.a, job.a_len),
                std::slice::from_raw_parts(job.b, job.b_len),
            )
        };
        for t in 0..job.total {
            if t >= 2 && done_rx.recv().is_none() {
                return;
            }
            let (jc, pc, ic, nc_eff, kc_eff, mc_eff, r) = stage_coords(
                t,
                job.ics,
                job.pcs,
                (job.mc, job.kc, job.nc),
                (job.m_local, job.n, job.k),
            );
            if r == 0 {
                let g = t / job.ics;
                // SAFETY: buffer bp[g % 2] is free — see the protocol argument in
                // the module comment; done(t - 2) has been received for t >= 2, so
                // the compute side is past every stage that read this buffer.
                let bp = unsafe { std::slice::from_raw_parts_mut(job.bp[g % 2], job.bp_len) };
                pack_b(
                    job.trans,
                    b,
                    (job.n, job.k),
                    pc,
                    jc,
                    kc_eff,
                    nc_eff,
                    bp,
                    job.tnr,
                );
            }
            // SAFETY: buffer ap[t % 2] was last used by compute stage t - 2, whose
            // done has been received (or t < 2 and it was never used).
            let ap = unsafe { std::slice::from_raw_parts_mut(job.ap[t % 2], job.ap_len) };
            pack_a(
                job.trans,
                a,
                (job.m, job.k),
                job.row0 + ic,
                pc,
                mc_eff,
                kc_eff,
                ap,
                job.tmr,
            );
            if ready_tx.send(t).is_err() {
                return;
            }
        }
    }
}

/// A persistent per-thread packer: one OS thread plus its command/ready/done
/// channels, created on first double-buffered GEMM and reused for every
/// subsequent call on this thread (so the steady-state hot path allocates
/// nothing). Dropping the handle closes the command channel, which ends the
/// packer's main loop; the join then reaps the thread.
struct Packer {
    cmd_tx: Option<rayon::channel::Sender<PackJob>>,
    ready_rx: rayon::channel::Receiver<usize>,
    done_tx: rayon::channel::Sender<usize>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Packer {
    fn spawn() -> Self {
        let (cmd_tx, cmd_rx) = rayon::channel::bounded::<PackJob>(1);
        // Capacity 2: the packer runs at most one stage ahead, so at most two
        // ready tokens (and two done tokens) are ever in flight.
        let (ready_tx, ready_rx) = rayon::channel::bounded::<usize>(2);
        let (done_tx, done_rx) = rayon::channel::bounded::<usize>(2);
        let handle = std::thread::Builder::new()
            .name("mergesfl-gemm-pack".into())
            .spawn(move || packer_main(cmd_rx, ready_tx, done_rx))
            .expect("gemm: failed to spawn stage packer thread");
        Self {
            cmd_tx: Some(cmd_tx),
            ready_rx,
            done_tx,
            handle: Some(handle),
        }
    }
}

impl Drop for Packer {
    fn drop(&mut self) {
        drop(self.cmd_tx.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

std::thread_local! {
    static PACKER: std::cell::RefCell<Option<Packer>> = const { std::cell::RefCell::new(None) };
}

/// Double-buffered packed GEMM: identical loop nest and accumulation order to
/// [`gemm_packed_single`], with packing offloaded to the persistent stage thread.
#[allow(clippy::too_many_arguments)]
fn gemm_packed_double<const TMR: usize, const TNR: usize>(
    trans: Trans,
    dims: (usize, usize, usize),
    a: &[f32],
    b: &[f32],
    c_rows: &mut [f32],
    row0: usize,
    m_local: usize,
    part: &PartitionSize,
    pk: PanelKernel<TMR, TNR>,
) {
    let (m, n, k) = dims;
    if m_local == 0 || n == 0 || k == 0 {
        return;
    }
    let kc = part.kc.min(k);
    let mc = part.mc.min(m_local);
    let nc = part.nc.min(n);
    let ap_len = mc.div_ceil(TMR) * TMR * kc;
    let bp_len = nc.div_ceil(TNR) * TNR * kc;
    // Two buffers per operand for the double buffer; like the single-stage
    // driver, every slot read is written by the packer first, so the checkout
    // skips zeroing. The Vecs themselves must stay untouched until the job
    // drains — the packer writes through raw views of their heap storage.
    let mut ap_bufs = [
        crate::pool::take_uninit::<f32>(ap_len),
        crate::pool::take_uninit::<f32>(ap_len),
    ];
    let mut bp_bufs = [
        crate::pool::take_uninit::<f32>(bp_len),
        crate::pool::take_uninit::<f32>(bp_len),
    ];

    let ics = m_local.div_ceil(mc);
    let pcs = k.div_ceil(kc);
    let jcs = n.div_ceil(nc);
    let total = jcs * pcs * ics;

    let job = PackJob {
        trans,
        m,
        n,
        k,
        row0,
        m_local,
        mc,
        kc,
        nc,
        tmr: TMR,
        tnr: TNR,
        a: a.as_ptr(),
        a_len: a.len(),
        b: b.as_ptr(),
        b_len: b.len(),
        ap: [ap_bufs[0].as_mut_ptr(), ap_bufs[1].as_mut_ptr()],
        ap_len,
        bp: [bp_bufs[0].as_mut_ptr(), bp_bufs[1].as_mut_ptr()],
        bp_len,
        total,
        ics,
        pcs,
    };
    let ap_ptrs = job.ap;
    let bp_ptrs = job.bp;

    PACKER.with(|cell| {
        let mut slot = cell.borrow_mut();
        let packer = slot.get_or_insert_with(Packer::spawn);
        if packer
            .cmd_tx
            .as_ref()
            .expect("gemm: packer command channel closed")
            .send(job)
            .is_err()
        {
            panic!("gemm: stage packer thread terminated");
        }
        let mut wait_ns = 0u64;
        for t in 0..total {
            let t0 = std::time::Instant::now();
            match packer.ready_rx.recv() {
                Some(tok) => debug_assert_eq!(tok, t),
                None => panic!("gemm: stage packer thread terminated mid-job"),
            }
            wait_ns += t0.elapsed().as_nanos() as u64;
            let (jc, _pc, ic, nc_eff, kc_eff, mc_eff, _r) =
                stage_coords(t, ics, pcs, (mc, kc, nc), (m_local, n, k));
            let g = t / ics;
            // SAFETY: ready(t) guarantees the packer has finished writing
            // ap[t % 2] (stage t) and bp[g % 2] (stage pair g) and will not
            // touch either again before done(t) / done of this pair's last
            // stage — which cannot be sent before these reads complete.
            let (ap, bp) = unsafe {
                (
                    std::slice::from_raw_parts(ap_ptrs[t % 2], ap_len),
                    std::slice::from_raw_parts(bp_ptrs[g % 2], bp_len),
                )
            };
            pk.fold_block(ap, bp, c_rows, n, jc, ic, mc_eff, nc_eff, kc_eff);
            // The packer only waits for done(t) before packing stage t + 2, so
            // the last two stages need no token (and sending one would strand
            // it in the channel for the next job).
            if t + 2 < total && packer.done_tx.send(t).is_err() {
                panic!("gemm: stage packer thread terminated mid-job");
            }
        }
        record_stage_wait(wait_ns, total as u64);
    });

    let [ap0, ap1] = ap_bufs;
    let [bp0, bp1] = bp_bufs;
    crate::pool::recycle(ap0);
    crate::pool::recycle(ap1);
    crate::pool::recycle(bp0);
    crate::pool::recycle(bp1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::tiling::TileSize;
    use crate::rng::seeded;
    use rand::Rng;

    fn random_vec(rng: &mut impl Rng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
    }

    fn tiny_scheme(stage: Staging) -> TilingScheme {
        TilingScheme {
            tile: TileSize { mr: 4, nr: 8 },
            partition: PartitionSize {
                mc: 8,
                kc: 8,
                nc: 8,
            },
            stage,
        }
    }

    fn check_parity(trans: Trans, m: usize, n: usize, k: usize, seed: u64) {
        let mut rng = seeded(seed);
        let a = random_vec(&mut rng, m * k);
        let b = random_vec(&mut rng, k * n);
        let mut c_naive = random_vec(&mut rng, m * n);
        let seeded_c = c_naive.clone();
        gemm_naive(trans, m, n, k, &a, &b, &mut c_naive);
        // Tiny blocking forces many ragged panels and kc splits through every staging.
        for stage in [Staging::Direct, Staging::Single, Staging::Double] {
            let mut c_tiled = seeded_c.clone();
            gemm_with_scheme(
                trans,
                m,
                n,
                k,
                &a,
                &b,
                &mut c_tiled,
                Epilogue::None,
                &tiny_scheme(stage),
                MicroSelect::Auto,
            );
            assert_eq!(
                c_naive,
                c_tiled,
                "{trans:?} {m}x{n}x{k} {}: tiled result must be bit-identical to naive",
                stage.name()
            );
        }
    }

    #[test]
    fn all_stagings_match_naive_on_ragged_shapes() {
        for &(m, n, k) in &[
            (1, 1, 1),
            (4, 8, 16),
            (5, 9, 7),
            (13, 17, 11),
            (3, 33, 2),
            (20, 6, 31),
        ] {
            check_parity(Trans::Nn, m, n, k, 100 + m as u64);
            check_parity(Trans::Nt, m, n, k, 200 + n as u64);
            check_parity(Trans::Tn, m, n, k, 300 + k as u64);
        }
    }

    #[test]
    fn double_buffering_reuses_one_packer_across_many_stage_shapes() {
        // Stage counts 1, 2 and many (ragged in every dimension) through the same
        // thread-local packer, interleaved — exercises the job framing (no stranded
        // ready/done tokens between jobs).
        let (m, n, k) = (23, 19, 31);
        let mut rng = seeded(42);
        let a = random_vec(&mut rng, m * k);
        let b = random_vec(&mut rng, k * n);
        let mut want = vec![0.0f32; m * n];
        gemm_naive(Trans::Nn, m, n, k, &a, &b, &mut want);
        for (mc, kc, nc) in [
            (32, 32, 32), // 1 stage
            (12, 32, 32), // 2 stages (ic split only)
            (8, 8, 8),    // 36 stages
            (5, 7, 6),    // ragged everywhere
        ] {
            let scheme = TilingScheme {
                tile: TileSize { mr: 4, nr: 8 },
                partition: PartitionSize { mc, kc, nc },
                stage: Staging::Double,
            };
            let mut c = vec![0.0f32; m * n];
            gemm_with_scheme(
                Trans::Nn,
                m,
                n,
                k,
                &a,
                &b,
                &mut c,
                Epilogue::None,
                &scheme,
                MicroSelect::Auto,
            );
            assert_eq!(
                want, c,
                "double-buffered diverged at mc={mc} kc={kc} nc={nc}"
            );
        }
    }

    #[test]
    fn row_sliced_execution_matches_naive_for_every_layout() {
        // Replays exactly what the threaded fan-out does — split C into contiguous row
        // slices and run the dispatcher on each with its row0 offset — so the non-zero
        // row0 bookkeeping (including the strided Trans::Tn column indexing of A) is
        // covered even on single-core hosts where the parallel branch never triggers.
        let (m, n, k) = (37, 19, 23);
        for trans in [Trans::Nn, Trans::Nt, Trans::Tn] {
            let mut rng = seeded(500);
            let a = random_vec(&mut rng, m * k);
            let b = random_vec(&mut rng, k * n);
            let mut c_naive = vec![0.0f32; m * n];
            gemm_naive(trans, m, n, k, &a, &b, &mut c_naive);
            for stage in [Staging::Direct, Staging::Single, Staging::Double] {
                let scheme = TilingScheme::packed(TileSize { mr: 4, nr: 8 }, stage);
                for rows_per in [5usize, 8, 16, 37] {
                    let mut c_sliced = vec![0.0f32; m * n];
                    for (t, chunk) in c_sliced.chunks_mut(rows_per * n).enumerate() {
                        let m_local = chunk.len() / n;
                        gemm_dispatch(
                            trans,
                            (m, n, k),
                            &a,
                            &b,
                            chunk,
                            t * rows_per,
                            m_local,
                            &scheme,
                            MicroSelect::Auto,
                        );
                    }
                    assert_eq!(
                        c_naive,
                        c_sliced,
                        "{trans:?} {} diverged with {rows_per} rows per slice",
                        stage.name()
                    );
                }
            }
        }
    }

    #[test]
    fn large_product_through_public_api_matches_naive() {
        // 2*260*100*90 = 4.68M flops clears PAR_MIN_FLOPS (1<<22 = 4.19M) as well as
        // the packed-scheme threshold, so this exercises runtime selection and, on
        // multi-core hosts (CI runners), the threaded row-panel fan-out end to end.
        let (m, n, k) = (260, 100, 90);
        let mut rng = seeded(7);
        let a = random_vec(&mut rng, m * k);
        let b = random_vec(&mut rng, k * n);
        let mut c_naive = vec![0.0f32; m * n];
        let mut c_blocked = vec![0.0f32; m * n];
        gemm_nn(
            KernelBackend::Naive,
            m,
            n,
            k,
            &a,
            &b,
            &mut c_naive,
            Epilogue::None,
        );
        gemm_nn(
            KernelBackend::Blocked,
            m,
            n,
            k,
            &a,
            &b,
            &mut c_blocked,
            Epilogue::None,
        );
        assert_eq!(c_naive, c_blocked);
    }

    #[test]
    fn known_values_all_layouts() {
        // A = [[1,2],[3,4]], B = [[5,6],[7,8]] -> AB = [[19,22],[43,50]]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = [0.0f32; 4];
        gemm_nn(
            KernelBackend::Blocked,
            2,
            2,
            2,
            &a,
            &b,
            &mut c,
            Epilogue::None,
        );
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);

        // A·Bᵀ with B stored transposed reproduces the same product.
        let bt = [5.0, 7.0, 6.0, 8.0];
        let mut c = [0.0f32; 4];
        gemm_nt(
            KernelBackend::Blocked,
            2,
            2,
            2,
            &a,
            &bt,
            &mut c,
            Epilogue::None,
        );
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);

        // Aᵀ·B with A stored transposed reproduces the same product.
        let at = [1.0, 3.0, 2.0, 4.0];
        let mut c = [0.0f32; 4];
        gemm_tn(
            KernelBackend::Blocked,
            2,
            2,
            2,
            &at,
            &b,
            &mut c,
            Epilogue::None,
        );
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn accumulates_into_existing_c() {
        let a = [1.0, 0.0, 0.0, 1.0];
        let b = [1.0, 2.0, 3.0, 4.0];
        let mut c = [10.0f32, 10.0, 10.0, 10.0];
        gemm_nn(
            KernelBackend::Blocked,
            2,
            2,
            2,
            &a,
            &b,
            &mut c,
            Epilogue::None,
        );
        assert_eq!(c, [11.0, 12.0, 13.0, 14.0]);
    }

    #[test]
    fn epilogues_apply_after_product() {
        let a = [1.0, -1.0];
        let b = [2.0, 2.0];
        let bias = [1.0, -10.0];
        for backend in [KernelBackend::Naive, KernelBackend::Blocked] {
            let mut c = [0.0f32; 2];
            gemm_nn(
                backend,
                1,
                2,
                1,
                &a[..1],
                &b[..2],
                &mut c,
                Epilogue::BiasRow(&bias),
            );
            assert_eq!(c, [3.0, -8.0]);
            let mut c = [0.0f32; 2];
            gemm_nn(
                backend,
                1,
                2,
                1,
                &a[..1],
                &b[..2],
                &mut c,
                Epilogue::BiasRowRelu(&bias),
            );
            assert_eq!(c, [3.0, 0.0]);
            let mut c = [-1.0f32, 5.0];
            gemm_nn(backend, 1, 2, 0, &[], &[], &mut c, Epilogue::Relu);
            assert_eq!(c, [0.0, 5.0]);
        }
    }

    #[test]
    fn degenerate_dimensions() {
        for backend in [KernelBackend::Naive, KernelBackend::Blocked] {
            // Empty m / n / k all leave (or produce) well-formed outputs.
            let mut c: [f32; 0] = [];
            gemm_nn(backend, 0, 0, 0, &[], &[], &mut c, Epilogue::None);
            let mut c = [7.0f32, 8.0];
            gemm_nn(backend, 1, 2, 0, &[], &[], &mut c, Epilogue::None);
            assert_eq!(c, [7.0, 8.0], "k = 0 must leave C untouched");
            let mut c: Vec<f32> = vec![];
            gemm_nt(backend, 0, 4, 3, &[], &random(12), &mut c, Epilogue::None);
        }
        // Degenerate shapes through every explicit staging.
        for stage in [Staging::Direct, Staging::Single, Staging::Double] {
            let scheme = TilingScheme::packed(TileSize { mr: 4, nr: 8 }, stage);
            let mut c: [f32; 0] = [];
            gemm_with_scheme(
                Trans::Nn,
                0,
                0,
                0,
                &[],
                &[],
                &mut c,
                Epilogue::None,
                &scheme,
                MicroSelect::Auto,
            );
            let mut c = [7.0f32, 8.0];
            gemm_with_scheme(
                Trans::Nn,
                1,
                2,
                0,
                &[],
                &[],
                &mut c,
                Epilogue::None,
                &scheme,
                MicroSelect::Auto,
            );
            assert_eq!(c, [7.0, 8.0], "k = 0 must leave C untouched");
        }
    }

    fn random(len: usize) -> Vec<f32> {
        let mut rng = seeded(1);
        random_vec(&mut rng, len)
    }

    /// Folds one product through both entries of the handle it is dispatched — packed from
    /// a packed copy, gathered in place, the last row tile ragged — and reports the handle.
    struct Probe<'a>(&'a mut Option<(usize, usize, MicroKernelId)>);

    impl PanelOp for Probe<'_> {
        fn run<const MR: usize, const NR: usize>(self, pk: PanelKernel<MR, NR>) {
            let kc = 13;
            let a = random(400);
            let bp = random(kc * NR);
            let rows: Vec<usize> = (0..MR + 3).map(|i| (i * 31) % 200).collect();
            let offs: Vec<usize> = (0..kc).map(|p| (p * 67 + 9) % 200).collect();
            let operand = Gather::new(&a, &rows, &offs);
            for r0 in [0, MR] {
                // Rows past the table read offset 0, like a packed panel padded with them.
                let row = |i: usize| rows.get(r0 + i).copied().unwrap_or(0);
                let ap: Vec<f32> = offs
                    .iter()
                    .flat_map(|off| (0..MR).map(move |i| (i, off)))
                    .map(|(i, off)| a[row(i) + off])
                    .collect();
                let mut want = [[0.5f32; NR]; MR];
                let mut got = want;
                pk.fold(&ap, &bp, &mut want);
                // Two k blocks continue one accumulator.
                pk.fold_gather(&operand, r0, 0..5, &bp[..5 * NR], &mut got);
                pk.fold_gather(&operand, r0, 5..kc, &bp[5 * NR..], &mut got);
                assert_eq!(want, got, "{} {MR}x{NR}, rows from {r0}", pk.id.name());
            }
            *self.0 = Some((MR, NR, pk.id));
        }
    }

    #[test]
    fn every_selection_resolves_both_entries_to_one_kernel_or_the_generic_pair() {
        // A forced kernel runs its own two bodies on its own tile and nowhere else: any
        // other tile — the portable 4x8 always, which has no SIMD body — and a kernel the
        // host lacks get the generic pair, so forcing (the `portable` CI cell included)
        // can only ever swap one packed/gathered pair for another, on every host shape.
        let forced = crate::kernels::ALL_MICRO_KERNELS.map(MicroSelect::Force);
        for select in std::iter::once(MicroSelect::Auto).chain(forced) {
            for tile in crate::kernels::tiling::SUPPORTED_TILES {
                let scheme = TilingScheme::packed(tile, Staging::Single);
                let mut seen = None;
                dispatch_tile(&scheme, select, Probe(&mut seen));
                let simd = crate::kernels::ALL_MICRO_KERNELS
                    .into_iter()
                    .skip(1)
                    .find(|id| id.tile() == tile && select.allows(*id) && id.is_available());
                let want = simd.unwrap_or(MicroKernelId::Portable);
                assert_eq!(
                    seen,
                    Some((tile.mr, tile.nr, want)),
                    "{select:?} on {tile:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "must stay inside the operand")]
    fn gather_rejects_a_table_pair_that_leaves_the_operand() {
        // 4 + 6 is one past the last element, although no single entry is.
        let a = random(10);
        Gather::new(&a, &[0, 4], &[6, 1]);
    }

    /// Folds over an operand that has offsets but no rows (an empty batch): nothing may be
    /// read, whatever the offsets say.
    struct NoRows;

    impl PanelOp for NoRows {
        fn run<const MR: usize, const NR: usize>(self, pk: PanelKernel<MR, NR>) {
            let operand = Gather::new(&[], &[], &[3, 900]);
            let mut acc = [[1.5f32; NR]; MR];
            pk.fold_gather(&operand, 0, 0..2, &random(2 * NR), &mut acc);
            assert_eq!(acc, [[1.5f32; NR]; MR]);
        }
    }

    #[test]
    fn fold_gather_over_an_operand_without_rows_reads_nothing() {
        for tile in crate::kernels::tiling::SUPPORTED_TILES {
            let scheme = TilingScheme::packed(tile, Staging::Single);
            dispatch_tile(&scheme, MicroSelect::Auto, NoRows);
        }
    }

    /// Calls `fold_gather` with a panel one element short.
    struct ShortPanel;

    impl PanelOp for ShortPanel {
        fn run<const MR: usize, const NR: usize>(self, pk: PanelKernel<MR, NR>) {
            let a = random(64);
            let operand = Gather::new(&a, &[0, 1, 2], &[0, 8, 16]);
            let mut acc = [[0.0f32; NR]; MR];
            pk.fold_gather(&operand, 0, 0..3, &random(3 * NR - 1), &mut acc);
        }
    }

    #[test]
    #[should_panic(expected = "bp must be offs.len() x")]
    fn fold_gather_rejects_a_panel_that_does_not_match_its_offsets() {
        let scheme = TilingScheme::packed(TileSize { mr: 4, nr: 8 }, Staging::Single);
        dispatch_tile(&scheme, MicroSelect::Auto, ShortPanel);
    }
}
