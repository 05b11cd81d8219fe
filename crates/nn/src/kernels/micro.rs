//! Pluggable GEMM micro-kernels behind one common signature.
//!
//! A micro-kernel folds `kc` rank-1 updates from a packed A panel (`kc × mr`,
//! `p`-major) and a packed B panel (`kc × nr`, `p`-major) into an `mr × nr`
//! accumulator tile, in ascending `p` order. Every kernel here performs the
//! *same* per-element operation sequence — load C, then `acc += a * b` one `p`
//! at a time, deliberately never a fused multiply-add (FMA rounds once instead
//! of twice and would break bit-identity with the naive oracle). A wider kernel
//! therefore changes wall-clock time only, never results.
//!
//! Four kernels exist, each tied to a register tile:
//!
//! | id | tile | requires |
//! |---|---|---|
//! | `portable` | any supported tile | nothing (pure safe Rust) |
//! | `avx` | `8×8` | x86-64 AVX (runtime-detected) |
//! | `avx512` | `16×8` | x86-64 AVX-512F + AVX-512VL (runtime-detected) |
//! | `avx512w` | `16×16` | x86-64 AVX-512F (full-width `zmm`, runtime-detected) |
//!
//! Each kernel has two entries, both monomorphised per tile; the drivers in
//! [`crate::kernels::gemm`] resolve the pair per call from the scheme's tile and
//! the [`MicroSelect`] policy:
//!
//! | entry | signature | broadcast operand |
//! |---|---|---|
//! | packed (`microkernel`) | `unsafe fn(ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR])` | `ap[p·MR + i]`, a packed `kc × MR` panel |
//! | gathered (`gather`) | `unsafe fn(a: &[f32], rows: &[usize; MR], offs: &[usize], bp: &[f32], acc: &mut [[f32; NR]; MR])` | `a[rows[i] + offs[p]]`, read in place through two offset tables |
//!
//! The gathered entry is the packed one with its broadcast operand addressed
//! instead of packed — `acc[i][j] += a[rows[i] + offs[p]] · bp[p·NR + j]`, `p`
//! ascending over `offs`, the same separate multiply and add — so an operand
//! whose rows are shifted views of one buffer (the patches of a convolution)
//! never has to be copied into panels. A fold gives the same bits through
//! either entry.

use super::tiling::TileSize;

/// Identity of a concrete micro-kernel implementation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MicroKernelId {
    /// Generic scalar kernel; runs any supported tile on any host.
    Portable,
    /// AVX `8×8` kernel (one `__m256` per accumulator row).
    Avx8x8,
    /// AVX-512 `16×8` kernel (sixteen `__m256` accumulators — the EVEX-extended
    /// `ymm16..31` register file is what makes the 16-row tile register-resident).
    Avx512_16x8,
    /// AVX-512 wide `16×16` kernel: sixteen full-width `__m512` accumulators, one
    /// 16-lane vector per row. Twice the lanes per instruction of the `16×8`
    /// kernel; the fastest kernel wherever `zmm` execution is not heavily
    /// downclocked.
    Avx512_16x16,
}

/// All micro-kernel identities, in preference order (widest last).
pub const ALL_MICRO_KERNELS: [MicroKernelId; 4] = [
    MicroKernelId::Portable,
    MicroKernelId::Avx8x8,
    MicroKernelId::Avx512_16x8,
    MicroKernelId::Avx512_16x16,
];

impl MicroKernelId {
    /// Short name used in logs, the `MERGESFL_MICROKERNEL` knob and bench output.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Portable => "portable",
            Self::Avx8x8 => "avx",
            Self::Avx512_16x8 => "avx512",
            Self::Avx512_16x16 => "avx512w",
        }
    }

    /// Parses a `MERGESFL_MICROKERNEL` value (ASCII case-insensitive).
    pub fn from_name(name: &str) -> Option<Self> {
        ALL_MICRO_KERNELS
            .into_iter()
            .find(|k| name.eq_ignore_ascii_case(k.name()))
    }

    /// The register tile this kernel's SIMD body is written for. The portable
    /// kernel is generic over tiles; its nominal tile is the `4×8` default.
    pub fn tile(&self) -> TileSize {
        match self {
            Self::Portable => TileSize { mr: 4, nr: 8 },
            Self::Avx8x8 => TileSize { mr: 8, nr: 8 },
            Self::Avx512_16x8 => TileSize { mr: 16, nr: 8 },
            Self::Avx512_16x16 => TileSize { mr: 16, nr: 16 },
        }
    }

    /// Whether the running CPU can execute this kernel.
    pub fn is_available(&self) -> bool {
        match self {
            Self::Portable => true,
            Self::Avx8x8 => avx_available(),
            Self::Avx512_16x8 => avx512_available(),
            Self::Avx512_16x16 => avx512f_available(),
        }
    }
}

/// How the driver chooses the micro-kernel for a scheme's tile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MicroSelect {
    /// Use the SIMD kernel matching the tile when the host supports it,
    /// otherwise the generic portable kernel at the same tile.
    Auto,
    /// Use exactly this kernel where its tile matches; every other tile (and
    /// an unavailable forced kernel) falls back to the generic portable
    /// kernel, so a forced selection can never change results or crash.
    Force(MicroKernelId),
}

impl MicroSelect {
    /// Whether `id` may be used under this policy (availability already checked
    /// by the caller).
    #[inline]
    pub fn allows(&self, id: MicroKernelId) -> bool {
        match self {
            Self::Auto => true,
            Self::Force(forced) => *forced == id,
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn avx_available() -> bool {
    std::arch::is_x86_feature_detected!("avx")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx_available() -> bool {
    false
}

#[cfg(target_arch = "x86_64")]
fn avx512_available() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512vl")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx512_available() -> bool {
    false
}

#[cfg(target_arch = "x86_64")]
fn avx512f_available() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx512f_available() -> bool {
    false
}

/// The generic scalar micro-kernel: folds `kc` rank-1 updates into the
/// accumulator in ascending `p` order for any `TMR × TNR` tile. `ap` is
/// `kc × TMR`, `bp` is `kc × TNR`, both `p`-major.
///
/// Marked `unsafe fn` only to share a function-pointer type with the SIMD
/// kernels; the body is safe code.
///
/// # Safety
/// None of the SIMD kernels' preconditions apply: any slice lengths are
/// accepted (short panels simply fold fewer updates), so calling this is
/// always sound.
pub unsafe fn microkernel_generic<const TMR: usize, const TNR: usize>(
    ap: &[f32],
    bp: &[f32],
    acc: &mut [[f32; TNR]; TMR],
) {
    for (a_col, b_row) in ap.chunks_exact(TMR).zip(bp.chunks_exact(TNR)) {
        for i in 0..TMR {
            let av = a_col[i];
            for j in 0..TNR {
                acc[i][j] += av * b_row[j];
            }
        }
    }
}

/// The generic gathered micro-kernel: [`microkernel_generic`] with row `i` of the
/// broadcast operand read in place as `a[rows[i] + offs[p]]`. `bp` is `offs.len() × TNR`,
/// `p`-major.
///
/// Marked `unsafe fn` only to share a function-pointer type with the SIMD
/// kernels; the body is safe code.
///
/// # Safety
/// None of the SIMD kernels' preconditions apply: every read is bounds-checked (an
/// offset pair past the end of `a` panics) and a short `bp` folds fewer updates, so
/// calling this is always sound.
pub unsafe fn gather_generic<const TMR: usize, const TNR: usize>(
    a: &[f32],
    rows: &[usize; TMR],
    offs: &[usize],
    bp: &[f32],
    acc: &mut [[f32; TNR]; TMR],
) {
    for (&off, b_row) in offs.iter().zip(bp.chunks_exact(TNR)) {
        let a_off = &a[off..];
        for i in 0..TMR {
            let av = a_off[rows[i]];
            for j in 0..TNR {
                acc[i][j] += av * b_row[j];
            }
        }
    }
}

/// AVX micro-kernel: an `8×8` register tile of `__m256` mul+add (deliberately *not* FMA —
/// fused multiply-add rounds once instead of twice and would break bit-identity with the
/// naive oracle). Selected at runtime when the host supports AVX.
#[cfg(target_arch = "x86_64")]
pub mod avx {
    use std::arch::x86_64::*;

    /// Register-tile height of the AVX micro-kernel.
    pub const MR: usize = 8;
    /// Register-tile width: one 8-lane `__m256` per accumulator row.
    pub const NR: usize = 8;

    /// Folds `kc` rank-1 updates into the accumulator tile in ascending `p` order, exactly
    /// like the portable kernel but eight lanes at a time.
    ///
    /// # Safety
    ///
    /// Callers must guarantee [`super::MicroKernelId::Avx8x8`] reported available. Slice
    /// lengths must be multiples of `MR` (for `ap`) and `NR` (for `bp`) with equal `p`
    /// extents, which the packed panel layout guarantees.
    #[target_feature(enable = "avx")]
    pub unsafe fn microkernel(ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
        debug_assert_eq!(ap.len() / MR, bp.len() / NR);
        let kc = ap.len() / MR;
        // SAFETY: the `# Safety` contract above — AVX verified by the caller, so the
        // intrinsics are available; every pointer offset below stays inside `ap`
        // (`kc × MR` elements) and `bp` (`kc × NR` elements), and the unaligned
        // load/store intrinsics have no alignment requirement.
        unsafe {
            let mut r = [_mm256_setzero_ps(); MR];
            for (ri, row) in r.iter_mut().zip(acc.iter()) {
                *ri = _mm256_loadu_ps(row.as_ptr());
            }
            let a_ptr = ap.as_ptr();
            let b_ptr = bp.as_ptr();
            for p in 0..kc {
                let b_row = _mm256_loadu_ps(b_ptr.add(p * NR));
                let a_col = a_ptr.add(p * MR);
                for (i, ri) in r.iter_mut().enumerate() {
                    let a_bcast = _mm256_broadcast_ss(&*a_col.add(i));
                    *ri = _mm256_add_ps(*ri, _mm256_mul_ps(a_bcast, b_row));
                }
            }
            for (ri, row) in r.iter().zip(acc.iter_mut()) {
                _mm256_storeu_ps(row.as_mut_ptr(), *ri);
            }
        }
    }

    /// The gathered entry: [`microkernel`] with row `i` of the broadcast operand read in
    /// place as `a[rows[i] + offs[p]]` — same tile, same ascending-`p` mul+add sequence.
    ///
    /// # Safety
    ///
    /// Callers must guarantee [`super::MicroKernelId::Avx8x8`] reported available,
    /// that `rows[i] + offs[p] < a.len()` for every `i` and `p`, and that `bp` holds
    /// `offs.len() × NR` elements.
    #[target_feature(enable = "avx")]
    pub unsafe fn gather(
        a: &[f32],
        rows: &[usize; MR],
        offs: &[usize],
        bp: &[f32],
        acc: &mut [[f32; NR]; MR],
    ) {
        debug_assert_eq!(bp.len(), offs.len() * NR);
        // SAFETY: the `# Safety` contract above — AVX verified by the caller, so the
        // intrinsics are available; every `a` read is at `rows[i] + offs[p]`, which the
        // caller bounds by `a.len()`, every `bp` read inside its `offs.len() × NR`
        // elements, and the unaligned load/store intrinsics have no alignment requirement.
        unsafe {
            let mut r = [_mm256_setzero_ps(); MR];
            for (ri, row) in r.iter_mut().zip(acc.iter()) {
                *ri = _mm256_loadu_ps(row.as_ptr());
            }
            let a_ptr = a.as_ptr();
            let b_ptr = bp.as_ptr();
            for (p, &off) in offs.iter().enumerate() {
                let b_row = _mm256_loadu_ps(b_ptr.add(p * NR));
                let a_col = a_ptr.add(off);
                for (ri, &row) in r.iter_mut().zip(rows) {
                    let a_bcast = _mm256_broadcast_ss(&*a_col.add(row));
                    *ri = _mm256_add_ps(*ri, _mm256_mul_ps(a_bcast, b_row));
                }
            }
            for (ri, row) in r.iter().zip(acc.iter_mut()) {
                _mm256_storeu_ps(row.as_mut_ptr(), *ri);
            }
        }
    }
}

/// AVX-512 micro-kernel: a `16×8` register tile. Each accumulator row is one
/// 8-lane `__m256`; with AVX-512VL the compiler can allocate the EVEX-extended
/// `ymm16..31` registers, so all sixteen rows plus the broadcast and B-row
/// temporaries stay register-resident — twice the rows per packed-B reuse of
/// the AVX kernel. Mul+add only, never FMA, for bit-identity with the oracle.
#[cfg(target_arch = "x86_64")]
pub mod avx512 {
    use std::arch::x86_64::*;

    /// Register-tile height of the AVX-512 micro-kernel.
    pub const MR: usize = 16;
    /// Register-tile width: one 8-lane `__m256` per accumulator row.
    pub const NR: usize = 8;

    /// Folds `kc` rank-1 updates into the accumulator tile in ascending `p` order, exactly
    /// like the portable kernel but eight lanes × sixteen rows at a time.
    ///
    /// # Safety
    ///
    /// Callers must guarantee [`super::MicroKernelId::Avx512_16x8`] reported available
    /// (AVX-512F **and** AVX-512VL — the VL extension is what permits 256-bit EVEX
    /// encodings over the extended register file). Slice lengths must be multiples of
    /// `MR` (for `ap`) and `NR` (for `bp`) with equal `p` extents, which the packed
    /// panel layout guarantees.
    #[target_feature(enable = "avx512f,avx512vl")]
    pub unsafe fn microkernel(ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
        debug_assert_eq!(ap.len() / MR, bp.len() / NR);
        let kc = ap.len() / MR;
        // SAFETY: the `# Safety` contract above — AVX-512F+VL verified by the caller,
        // so the intrinsics are available; every pointer offset below stays inside
        // `ap` (`kc × MR` elements) and `bp` (`kc × NR` elements), and the unaligned
        // load/store intrinsics have no alignment requirement.
        unsafe {
            let mut r = [_mm256_setzero_ps(); MR];
            for (ri, row) in r.iter_mut().zip(acc.iter()) {
                *ri = _mm256_loadu_ps(row.as_ptr());
            }
            let a_ptr = ap.as_ptr();
            let b_ptr = bp.as_ptr();
            for p in 0..kc {
                let b_row = _mm256_loadu_ps(b_ptr.add(p * NR));
                let a_col = a_ptr.add(p * MR);
                for (i, ri) in r.iter_mut().enumerate() {
                    let a_bcast = _mm256_broadcast_ss(&*a_col.add(i));
                    *ri = _mm256_add_ps(*ri, _mm256_mul_ps(a_bcast, b_row));
                }
            }
            for (ri, row) in r.iter().zip(acc.iter_mut()) {
                _mm256_storeu_ps(row.as_mut_ptr(), *ri);
            }
        }
    }

    /// The gathered entry: [`microkernel`] with row `i` of the broadcast operand read in
    /// place as `a[rows[i] + offs[p]]` — same tile, same ascending-`p` mul+add sequence.
    ///
    /// # Safety
    ///
    /// Callers must guarantee [`super::MicroKernelId::Avx512_16x8`] reported available
    /// (AVX-512F **and** AVX-512VL),
    /// that `rows[i] + offs[p] < a.len()` for every `i` and `p`, and that `bp` holds
    /// `offs.len() × NR` elements.
    #[target_feature(enable = "avx512f,avx512vl")]
    pub unsafe fn gather(
        a: &[f32],
        rows: &[usize; MR],
        offs: &[usize],
        bp: &[f32],
        acc: &mut [[f32; NR]; MR],
    ) {
        debug_assert_eq!(bp.len(), offs.len() * NR);
        // SAFETY: the `# Safety` contract above — AVX-512F+VL verified by the caller, so the
        // intrinsics are available; every `a` read is at `rows[i] + offs[p]`, which the
        // caller bounds by `a.len()`, every `bp` read inside its `offs.len() × NR`
        // elements, and the unaligned load/store intrinsics have no alignment requirement.
        unsafe {
            let mut r = [_mm256_setzero_ps(); MR];
            for (ri, row) in r.iter_mut().zip(acc.iter()) {
                *ri = _mm256_loadu_ps(row.as_ptr());
            }
            let a_ptr = a.as_ptr();
            let b_ptr = bp.as_ptr();
            for (p, &off) in offs.iter().enumerate() {
                let b_row = _mm256_loadu_ps(b_ptr.add(p * NR));
                let a_col = a_ptr.add(off);
                for (ri, &row) in r.iter_mut().zip(rows) {
                    let a_bcast = _mm256_broadcast_ss(&*a_col.add(row));
                    *ri = _mm256_add_ps(*ri, _mm256_mul_ps(a_bcast, b_row));
                }
            }
            for (ri, row) in r.iter().zip(acc.iter_mut()) {
                _mm256_storeu_ps(row.as_mut_ptr(), *ri);
            }
        }
    }
}

/// AVX-512 wide micro-kernel: a `16×16` register tile, one full-width 16-lane
/// `__m512` accumulator per row — half the instructions per folded element of
/// the `16×8` kernel and one packed-B vector load per rank-1 update. Mul+add
/// only, never FMA, for bit-identity with the oracle.
#[cfg(target_arch = "x86_64")]
pub mod avx512w {
    use std::arch::x86_64::*;

    /// Register-tile height of the wide AVX-512 micro-kernel.
    pub const MR: usize = 16;
    /// Register-tile width: one 16-lane `__m512` per accumulator row.
    pub const NR: usize = 16;

    /// Folds `kc` rank-1 updates into the accumulator tile in ascending `p` order, exactly
    /// like the portable kernel but sixteen lanes × sixteen rows at a time.
    ///
    /// # Safety
    ///
    /// Callers must guarantee [`super::MicroKernelId::Avx512_16x16`] reported available
    /// (AVX-512F is sufficient — every intrinsic below is a full-width `zmm` operation).
    /// Slice lengths must be multiples of `MR` (for `ap`) and `NR` (for `bp`) with equal
    /// `p` extents, which the packed panel layout guarantees.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn microkernel(ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
        debug_assert_eq!(ap.len() / MR, bp.len() / NR);
        let kc = ap.len() / MR;
        // SAFETY: the `# Safety` contract above — AVX-512F verified by the caller, so
        // the intrinsics are available; every pointer offset below stays inside `ap`
        // (`kc × MR` elements) and `bp` (`kc × NR` elements), and the unaligned
        // load/store intrinsics have no alignment requirement.
        unsafe {
            let mut r = [_mm512_setzero_ps(); MR];
            for (ri, row) in r.iter_mut().zip(acc.iter()) {
                *ri = _mm512_loadu_ps(row.as_ptr());
            }
            let a_ptr = ap.as_ptr();
            let b_ptr = bp.as_ptr();
            for p in 0..kc {
                let b_row = _mm512_loadu_ps(b_ptr.add(p * NR));
                let a_col = a_ptr.add(p * MR);
                for (i, ri) in r.iter_mut().enumerate() {
                    let a_bcast = _mm512_set1_ps(*a_col.add(i));
                    *ri = _mm512_add_ps(*ri, _mm512_mul_ps(a_bcast, b_row));
                }
            }
            for (ri, row) in r.iter().zip(acc.iter_mut()) {
                _mm512_storeu_ps(row.as_mut_ptr(), *ri);
            }
        }
    }

    /// The gathered entry: [`microkernel`] with row `i` of the broadcast operand read in
    /// place as `a[rows[i] + offs[p]]` — same tile, same ascending-`p` mul+add sequence.
    ///
    /// # Safety
    ///
    /// Callers must guarantee [`super::MicroKernelId::Avx512_16x16`] reported available,
    /// that `rows[i] + offs[p] < a.len()` for every `i` and `p`, and that `bp` holds
    /// `offs.len() × NR` elements.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn gather(
        a: &[f32],
        rows: &[usize; MR],
        offs: &[usize],
        bp: &[f32],
        acc: &mut [[f32; NR]; MR],
    ) {
        debug_assert_eq!(bp.len(), offs.len() * NR);
        // SAFETY: the `# Safety` contract above — AVX-512F verified by the caller, so the
        // intrinsics are available; every `a` read is at `rows[i] + offs[p]`, which the
        // caller bounds by `a.len()`, every `bp` read inside its `offs.len() × NR`
        // elements, and the unaligned load/store intrinsics have no alignment requirement.
        unsafe {
            let mut r = [_mm512_setzero_ps(); MR];
            for (ri, row) in r.iter_mut().zip(acc.iter()) {
                *ri = _mm512_loadu_ps(row.as_ptr());
            }
            let a_ptr = a.as_ptr();
            let b_ptr = bp.as_ptr();
            for (p, &off) in offs.iter().enumerate() {
                let b_row = _mm512_loadu_ps(b_ptr.add(p * NR));
                let a_col = a_ptr.add(off);
                for (ri, &row) in r.iter_mut().zip(rows) {
                    let a_bcast = _mm512_set1_ps(*a_col.add(row));
                    *ri = _mm512_add_ps(*ri, _mm512_mul_ps(a_bcast, b_row));
                }
            }
            for (ri, row) in r.iter().zip(acc.iter_mut()) {
                _mm512_storeu_ps(row.as_mut_ptr(), *ri);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for id in ALL_MICRO_KERNELS {
            assert_eq!(MicroKernelId::from_name(id.name()), Some(id));
            assert_eq!(
                MicroKernelId::from_name(&id.name().to_ascii_uppercase()),
                Some(id)
            );
            assert!(id.tile().is_supported());
        }
        assert_eq!(MicroKernelId::from_name("neon"), None);
    }

    #[test]
    fn portable_is_always_available() {
        assert!(MicroKernelId::Portable.is_available());
    }

    #[test]
    fn select_policy() {
        assert!(MicroSelect::Auto.allows(MicroKernelId::Avx512_16x8));
        let forced = MicroSelect::Force(MicroKernelId::Portable);
        assert!(forced.allows(MicroKernelId::Portable));
        assert!(!forced.allows(MicroKernelId::Avx8x8));
    }

    /// The SIMD kernels must be bit-identical to the generic kernel at their
    /// tile — including when the accumulator starts non-zero and when panels
    /// carry zero-padding.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_kernels_match_generic_bitwise() {
        fn panels(kc: usize, mr: usize, nr: usize) -> (Vec<f32>, Vec<f32>) {
            let ap: Vec<f32> = (0..kc * mr)
                .map(|i| ((i * 37 + 11) % 23) as f32 * 0.37 - 3.0)
                .collect();
            let bp: Vec<f32> = (0..kc * nr)
                .map(|i| ((i * 53 + 7) % 29) as f32 * 0.23 - 2.0)
                .collect();
            (ap, bp)
        }
        for kc in [0usize, 1, 2, 7, 64] {
            if MicroKernelId::Avx8x8.is_available() {
                let (ap, bp) = panels(kc, avx::MR, avx::NR);
                let mut want = [[0.5f32; avx::NR]; avx::MR];
                let mut got = want;
                // SAFETY: the generic kernel is safe for any input; the AVX kernel's
                // feature requirement was just verified and the panels have the
                // required kc×MR / kc×NR lengths.
                unsafe {
                    microkernel_generic::<{ avx::MR }, { avx::NR }>(&ap, &bp, &mut want);
                    avx::microkernel(&ap, &bp, &mut got);
                }
                assert_eq!(want, got, "avx kernel diverged at kc={kc}");
            }
            if MicroKernelId::Avx512_16x8.is_available() {
                let (ap, bp) = panels(kc, avx512::MR, avx512::NR);
                let mut want = [[-1.25f32; avx512::NR]; avx512::MR];
                let mut got = want;
                // SAFETY: as above, with AVX-512F+VL verified by is_available.
                unsafe {
                    microkernel_generic::<{ avx512::MR }, { avx512::NR }>(&ap, &bp, &mut want);
                    avx512::microkernel(&ap, &bp, &mut got);
                }
                assert_eq!(want, got, "avx512 kernel diverged at kc={kc}");
            }
            if MicroKernelId::Avx512_16x16.is_available() {
                let (ap, bp) = panels(kc, avx512w::MR, avx512w::NR);
                let mut want = [[2.75f32; avx512w::NR]; avx512w::MR];
                let mut got = want;
                // SAFETY: as above, with AVX-512F verified by is_available.
                unsafe {
                    microkernel_generic::<{ avx512w::MR }, { avx512w::NR }>(&ap, &bp, &mut want);
                    avx512w::microkernel(&ap, &bp, &mut got);
                }
                assert_eq!(want, got, "avx512w kernel diverged at kc={kc}");
            }
        }
    }

    /// Every gathered kernel the host can run — the generic one at all four tiles, the SIMD
    /// ones at theirs — is bit-identical to the packed generic kernel fed a packed copy of
    /// the rows it reads in place: repeated and zero row offsets, offsets that do not
    /// ascend, a non-zero accumulator, and fold depths from none to many.
    #[test]
    fn gathered_kernels_match_the_packed_generic_on_a_packed_copy_bitwise() {
        // SAFETY: only ever a gathered kernel of this module that the call sites below pass
        // after `is_available()`; the one call through it states the remaining conditions.
        #[rustfmt::skip]
        type Gathered<const MR: usize, const NR: usize> = unsafe fn(&[f32], &[usize; MR], &[usize], &[f32], &mut [[f32; NR]; MR]);

        fn check<const MR: usize, const NR: usize>(name: &str, gather: Gathered<MR, NR>) {
            let a: Vec<f32> = (0..257)
                .map(|i| ((i * 37 + 11) % 23) as f32 * 0.37 - 3.0)
                .collect();
            // Rows 0 and 1 coincide, row 2 sits at offset zero, the rest spread out.
            let mut rows = [0usize; MR];
            for (i, row) in rows.iter_mut().enumerate().skip(3) {
                *row = (i * 29) % 97;
            }
            (rows[0], rows[1]) = (41, 41);
            for kc in [0usize, 1, 2, 7, 64] {
                let offs: Vec<usize> = (0..kc).map(|p| (p * 67 + 5) % 160).collect();
                let bp: Vec<f32> = (0..kc * NR)
                    .map(|i| ((i * 53 + 7) % 29) as f32 * 0.23 - 2.0)
                    .collect();
                let (a, rows) = (&a, &rows);
                let ap: Vec<f32> = offs
                    .iter()
                    .flat_map(|off| rows.iter().map(move |row| a[row + off]))
                    .collect();
                let mut want = [[0.75f32; NR]; MR];
                let mut got = want;
                // SAFETY: the generic kernel is safe for any input; `gather` is either the
                // generic gathered kernel (safe likewise) or a SIMD one whose features the
                // caller verified, every `rows[i] + offs[p]` is below 97 + 160 = `a.len()`,
                // and `bp` holds `kc × NR` elements.
                unsafe {
                    microkernel_generic::<MR, NR>(&ap, &bp, &mut want);
                    gather(a, rows, &offs, &bp, &mut got);
                }
                assert_eq!(want, got, "{name} gathered kernel diverged at kc={kc}");
            }
        }
        check::<4, 8>("generic 4x8", gather_generic::<4, 8>);
        check::<8, 8>("generic 8x8", gather_generic::<8, 8>);
        check::<16, 8>("generic 16x8", gather_generic::<16, 8>);
        check::<16, 16>("generic 16x16", gather_generic::<16, 16>);
        #[cfg(target_arch = "x86_64")]
        {
            if MicroKernelId::Avx8x8.is_available() {
                check::<{ avx::MR }, { avx::NR }>("avx", avx::gather);
            }
            if MicroKernelId::Avx512_16x8.is_available() {
                check::<{ avx512::MR }, { avx512::NR }>("avx512", avx512::gather);
            }
            if MicroKernelId::Avx512_16x16.is_available() {
                check::<{ avx512w::MR }, { avx512w::NR }>("avx512w", avx512w::gather);
            }
        }
    }

    /// The generic gathered kernel is safe code: an offset pair past the operand panics
    /// instead of reading.
    #[test]
    #[should_panic]
    fn generic_gathered_kernel_panics_past_the_operand() {
        let (a, bp) = ([1.0f32; 8], [1.0f32; 8]);
        let mut acc = [[0.0f32; 8]; 4];
        // SAFETY: the generic kernel has no preconditions; it bounds-checks every read.
        unsafe { gather_generic::<4, 8>(&a, &[0, 1, 2, 7], &[1], &bp, &mut acc) };
    }
}
