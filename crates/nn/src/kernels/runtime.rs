//! Kernel planning: per-shape scheme selection and the two kernel knobs.
//!
//! [`plan`] decides how one GEMM runs — the naive nest or an explicit
//! [`TilingScheme`] plus micro-kernel policy — and
//! [`crate::kernels::gemm::gemm_cfg`] executes the plan it returns. Layer code
//! never names a scheme or a micro-kernel.
//!
//! Selection policy ([`plan`]) — layout-aware, because the naive nests
//! vectorise very differently per layout (measured on the reference host):
//!
//! 1. `2·m·n·k < SMALL_MIN_FLOPS` → [`GemmPlan::Naive`]: at a few hundred
//!    flops even the register tile's setup loses to the plain loops.
//! 2. `Nn`/`Tn` (B rows contiguous — the naive inner loop auto-vectorises):
//!    naive until [`BLOCKED_MIN_FLOPS`], where packing overtakes it; skinny
//!    shapes (`m < 4` or `n < 8`, e.g. the `[batch, 1, k]` bias-grad GEMVs)
//!    stay naive at any size — no register tile beats a contiguous axpy.
//! 3. `Nt` (the `y = x·Wᵀ` Linear layout — the naive inner loop is a *scalar*
//!    dot product): packed from [`SMALL_MIN_FLOPS`] up, except the skinny-`m`
//!    wide-`n` band (`m < 4`, `n ≥ 8`), where the **direct** unpacked scheme is
//!    the fastest allocation-free plan. This replaces the old cliff where every
//!    sub-threshold shape bounced to the scalar naive nest and everything above
//!    it paid packing overhead it could not amortise.
//! 4. Packed schemes take their tile from the widest available micro-kernel
//!    (AVX-512 wide `16×16` → AVX-512 `16×8` → AVX `8×8` → portable `4×8`)
//!    and pack single-stage, whatever the thread count: a plan depends on the
//!    shape and the knobs only.
//! 5. The convolutions, which bring their own operands, take the same packed
//!    scheme ([`panel_scheme`]) — on the 8-lane tile instead of the 16-lane
//!    one when the product has at most eight lanes to fill.
//!
//! Two knobs adjust the plan (env or `RunConfig`): `MERGESFL_MICROKERNEL`
//! (`portable`/`avx`/`avx512`/`avx512w` — kernels the host lacks degrade to
//! portable) and `MERGESFL_TILING` (`mc=..,kc=..,nc=..,tile=MRxNR`, applied on
//! top of selection for packed schemes). Each is parsed by one function
//! ([`parse_micro_kernel_setting`], [`parse_tiling_setting`]) that panics on a
//! value it does not know. Every scheme produces bit-identical results, so the
//! knobs are pure performance controls.

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Once;

use super::gemm::Trans;
use super::micro::{MicroKernelId, MicroSelect};
use super::tiling::{Staging, TileSize, TilingOverride, TilingScheme};

/// Below this many flops (`2·m·n·k`) the naive loops win outright.
pub const SMALL_MIN_FLOPS: usize = 1 << 9;

/// Packing crossover for the row-contiguous layouts (`Nn`/`Tn`): below this
/// many flops (`2·m·n·k`) their auto-vectorised naive nests win; above it the
/// packed drivers do. Measured at ~`24³` on the reference host. `Nt` ignores
/// this constant — its naive nest is scalar, so packing pays from
/// [`SMALL_MIN_FLOPS`] up.
pub const BLOCKED_MIN_FLOPS: usize = 1 << 15;

/// The execution plan [`plan`] picks for one GEMM shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GemmPlan {
    /// Run the naive oracle loops (tiny products).
    Naive,
    /// Run the tiled drivers with this scheme and micro-kernel policy.
    Tiled(TilingScheme, MicroSelect),
}

/// Plans one `op(A)·op(B)` product of logical shape `m × n × k` (see the module
/// docs for the policy). The layout participates because the relative cost of
/// the naive, direct and packed plans depends on which operands are contiguous.
/// Accepts any shape, zero extents included, without panicking.
pub fn plan(trans: Trans, m: usize, n: usize, k: usize) -> GemmPlan {
    let micro = micro_select();
    let flops = m.saturating_mul(2).saturating_mul(n).saturating_mul(k);
    if flops < SMALL_MIN_FLOPS {
        return GemmPlan::Naive;
    }
    let small_tile = TilingScheme::small(m, n, k).tile;
    let skinny = m < small_tile.mr || n < small_tile.nr;
    match trans {
        // B rows contiguous: the naive nest auto-vectorises and beats any
        // tile until packing amortises.
        Trans::Nn | Trans::Tn => {
            if skinny || flops < BLOCKED_MIN_FLOPS {
                return GemmPlan::Naive;
            }
        }
        // Scalar naive nest: packing pays almost immediately, except the
        // skinny-m wide-n band where the unpacked register tile is the
        // fastest allocation-free plan.
        Trans::Nt => {
            if m < small_tile.mr && n >= small_tile.nr {
                return GemmPlan::Tiled(TilingScheme::small(m, n, k), micro);
            }
            if n < small_tile.nr {
                return GemmPlan::Naive;
            }
        }
    }
    GemmPlan::Tiled(packed_scheme(micro), micro)
}

/// The packed scheme of the current knobs: the preferred tile of `micro`, default cache
/// blocking, `MERGESFL_TILING` applied on top.
fn packed_scheme(micro: MicroSelect) -> TilingScheme {
    scheme_for(preferred_tile(micro))
}

/// The scheme of a panel driver that brings its own operands (the convolutions) and fills
/// `lanes` accumulator lanes: [`packed_scheme`]'s, so both honour the same
/// overrides — except that an automatic selection that has no more than eight lanes to
/// fill (a `c_out ≤ 8` convolution) takes the 8-lane tile of the same height instead of
/// the 16-lane one: full 256-bit vectors beat half-empty 512-bit ones (0.8× the time on
/// the zoo's first layers). A forced micro-kernel and `MERGESFL_TILING`'s tile still win.
pub(super) fn panel_scheme(micro: MicroSelect, lanes: usize) -> TilingScheme {
    let (wide, narrow) = (MicroKernelId::Avx512_16x16, MicroKernelId::Avx512_16x8);
    let mut tile = preferred_tile(micro);
    if micro == MicroSelect::Auto
        && tile == wide.tile()
        && lanes <= narrow.tile().nr
        && narrow.is_available()
    {
        tile = narrow.tile();
    }
    scheme_for(tile)
}

fn scheme_for(tile: TileSize) -> TilingScheme {
    let mut scheme = TilingScheme::packed(tile, Staging::Single);
    tiling_override().apply(&mut scheme);
    scheme.validate();
    scheme
}

/// The widest tile the `micro` policy can actually run on this host. A forced
/// but unavailable kernel degrades to the portable tile rather than erroring,
/// so `MERGESFL_MICROKERNEL=avx512` is safe on any machine.
fn preferred_tile(micro: MicroSelect) -> TileSize {
    match micro {
        MicroSelect::Force(id) if id.is_available() => id.tile(),
        MicroSelect::Force(_) => MicroKernelId::Portable.tile(),
        MicroSelect::Auto => {
            if MicroKernelId::Avx512_16x16.is_available() {
                MicroKernelId::Avx512_16x16.tile()
            } else if MicroKernelId::Avx512_16x8.is_available() {
                MicroKernelId::Avx512_16x8.tile()
            } else if MicroKernelId::Avx8x8.is_available() {
                MicroKernelId::Avx8x8.tile()
            } else {
                MicroKernelId::Portable.tile()
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Override knobs.
//
// Stored lock-free so `plan` (one read per gemm call) costs a few relaxed
// atomic loads and zero allocations. Env values are folded in once, lazily;
// the RunConfig setters below overwrite them for the rest of the process.
// ---------------------------------------------------------------------------

const MICRO_AUTO: u8 = 0;

static MICRO_OVERRIDE: AtomicU8 = AtomicU8::new(MICRO_AUTO);
static OVERRIDE_MC: AtomicUsize = AtomicUsize::new(0);
static OVERRIDE_KC: AtomicUsize = AtomicUsize::new(0);
static OVERRIDE_NC: AtomicUsize = AtomicUsize::new(0);
static OVERRIDE_TILE: AtomicU8 = AtomicU8::new(0);
static ENV_INIT: Once = Once::new();

fn micro_tag(id: MicroKernelId) -> u8 {
    match id {
        MicroKernelId::Portable => 1,
        MicroKernelId::Avx8x8 => 2,
        MicroKernelId::Avx512_16x8 => 3,
        MicroKernelId::Avx512_16x16 => 4,
    }
}

fn micro_from_tag(tag: u8) -> Option<MicroKernelId> {
    match tag {
        1 => Some(MicroKernelId::Portable),
        2 => Some(MicroKernelId::Avx8x8),
        3 => Some(MicroKernelId::Avx512_16x8),
        4 => Some(MicroKernelId::Avx512_16x16),
        _ => None,
    }
}

fn tile_tag(tile: TileSize) -> u8 {
    match (tile.mr, tile.nr) {
        (4, 8) => 1,
        (8, 8) => 2,
        (16, 8) => 3,
        (16, 16) => 4,
        _ => 0,
    }
}

fn tile_from_tag(tag: u8) -> Option<TileSize> {
    match tag {
        1 => Some(TileSize { mr: 4, nr: 8 }),
        2 => Some(TileSize { mr: 8, nr: 8 }),
        3 => Some(TileSize { mr: 16, nr: 8 }),
        4 => Some(TileSize { mr: 16, nr: 16 }),
        _ => None,
    }
}

/// Parses a `MERGESFL_MICROKERNEL` setting. Unset or empty means auto-selection; any
/// other value must name a micro-kernel (ASCII case-insensitive) — a mistyped one panics
/// instead of silently running the automatic choice. A named kernel the host lacks is
/// still accepted: planning degrades it to the portable tile.
pub fn parse_micro_kernel_setting(setting: Option<&str>) -> Option<MicroKernelId> {
    match setting.map(str::trim) {
        None | Some("") => None,
        Some(name) => Some(MicroKernelId::from_name(name).unwrap_or_else(|| {
            panic!(
                "MERGESFL_MICROKERNEL={name:?} is not a micro-kernel; \
                 accepted values: portable, avx, avx512, avx512w"
            )
        })),
    }
}

/// Parses a `MERGESFL_TILING` setting. Unset or empty means no override; any other value
/// must be a spec [`TilingOverride::parse`] accepts — an unknown key or a malformed value
/// panics instead of silently dropping the whole spec.
pub fn parse_tiling_setting(setting: Option<&str>) -> TilingOverride {
    TilingOverride::parse(setting.unwrap_or("")).unwrap_or_else(|msg| {
        panic!(
            "{msg}; accepted: comma-separated mc=N, kc=N, nc=N (positive integers), \
             tile=4x8|8x8|16x8|16x16"
        )
    })
}

fn init_overrides_from_env() {
    ENV_INIT.call_once(|| {
        store_micro_override(parse_micro_kernel_setting(
            crate::env::var("MERGESFL_MICROKERNEL").as_deref(),
        ));
        store_tiling_override(parse_tiling_setting(
            crate::env::var("MERGESFL_TILING").as_deref(),
        ));
    });
}

fn store_micro_override(id: Option<MicroKernelId>) {
    MICRO_OVERRIDE.store(id.map_or(MICRO_AUTO, micro_tag), Ordering::Relaxed);
}

fn store_tiling_override(ov: TilingOverride) {
    OVERRIDE_MC.store(ov.mc.unwrap_or(0), Ordering::Relaxed);
    OVERRIDE_KC.store(ov.kc.unwrap_or(0), Ordering::Relaxed);
    OVERRIDE_NC.store(ov.nc.unwrap_or(0), Ordering::Relaxed);
    OVERRIDE_TILE.store(ov.tile.map_or(0, tile_tag), Ordering::Relaxed);
}

/// Sets (or clears, with `None`) the process-wide micro-kernel override.
/// Plumbed from `RunConfig`; takes precedence over `MERGESFL_MICROKERNEL`.
pub fn set_micro_override(id: Option<MicroKernelId>) {
    init_overrides_from_env();
    store_micro_override(id);
}

/// Sets the process-wide tiling override (the default value clears it).
/// Plumbed from `RunConfig`; takes precedence over `MERGESFL_TILING`.
pub fn set_tiling_override(ov: TilingOverride) {
    init_overrides_from_env();
    store_tiling_override(ov);
}

/// The effective micro-kernel policy: forced when an override names an
/// available kernel, auto otherwise.
pub fn micro_select() -> MicroSelect {
    init_overrides_from_env();
    match micro_from_tag(MICRO_OVERRIDE.load(Ordering::Relaxed)) {
        Some(id) if id.is_available() => MicroSelect::Force(id),
        _ => MicroSelect::Auto,
    }
}

/// The effective tiling override applied to packed schemes.
pub fn tiling_override() -> TilingOverride {
    init_overrides_from_env();
    TilingOverride {
        mc: match OVERRIDE_MC.load(Ordering::Relaxed) {
            0 => None,
            v => Some(v),
        },
        kc: match OVERRIDE_KC.load(Ordering::Relaxed) {
            0 => None,
            v => Some(v),
        },
        nc: match OVERRIDE_NC.load(Ordering::Relaxed) {
            0 => None,
            v => Some(v),
        },
        tile: tile_from_tag(OVERRIDE_TILE.load(Ordering::Relaxed)),
    }
}

/// What the retired double-buffered GEMM driver counted: how long the compute side
/// waited for its packer thread, over how many stages. Packed GEMMs now pack inline,
/// so nothing waits and both stay zero. Kept, with [`reset_stage_stats`] and
/// [`stage_stats`], only because the benchmark package's trace imports them; they go
/// with the benchmark commit of ROADMAP item 12.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Nanoseconds the compute side spent blocked waiting for a packed stage.
    pub compute_wait_ns: u64,
    /// Number of double-buffered stages executed.
    pub stages: u64,
}

/// Does nothing: there are no stage counters left to reset (see [`StageStats`]).
pub fn reset_stage_stats() {}

/// Always [`StageStats::default()`]: no driver waits on a packer (see [`StageStats`]).
pub fn stage_stats() -> StageStats {
    StageStats::default()
}

/// The overrides are process-global; every unit test that writes them, or asserts on
/// what it reads, holds this lock so parallel test threads cannot observe each other's
/// state.
#[cfg(test)]
pub(crate) fn override_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::override_lock as lock;
    use super::*;

    fn clear_overrides() {
        set_micro_override(None);
        set_tiling_override(TilingOverride::default());
    }

    #[test]
    fn plan_never_panics_on_degenerate_shapes() {
        let _guard = lock();
        clear_overrides();
        for trans in [Trans::Nn, Trans::Nt, Trans::Tn] {
            for &(m, n, k) in &[
                (0, 0, 0),
                (0, 5, 5),
                (5, 0, 5),
                (5, 5, 0),
                (1, 1, 1),
                (1, 1, 1 << 20),
                (usize::MAX >> 24, 1, 1),
                (usize::MAX >> 1, usize::MAX >> 1, 1),
                (usize::MAX, usize::MAX, usize::MAX),
            ] {
                if let GemmPlan::Tiled(scheme, _) = plan(trans, m, n, k) {
                    scheme.validate();
                }
            }
        }
    }

    #[test]
    fn crossover_regression() {
        // Pins the layout-aware scheme-selection crossovers the cliff fix
        // introduced. Each boundary below was measured on the reference host;
        // moving one deliberately means re-measuring, not just editing the test.
        let _guard = lock();
        clear_overrides();

        // 2*4*4*4 = 128 flops < SMALL_MIN_FLOPS: naive for every layout.
        for trans in [Trans::Nn, Trans::Nt, Trans::Tn] {
            assert_eq!(plan(trans, 4, 4, 4), GemmPlan::Naive, "{trans:?}");
        }

        // Row-contiguous layouts: the vectorised naive nest wins below the
        // packing crossover...
        assert_eq!(plan(Trans::Nn, 12, 12, 12), GemmPlan::Naive);
        assert_eq!(plan(Trans::Nn, 24, 24, 24), GemmPlan::Naive);
        // ... and skinny shapes (the [1, n, k] bias-grad GEMV, [m, 1, k]
        // weight-grad slivers) stay naive at any size.
        assert_eq!(plan(Trans::Tn, 1, 64, 256), GemmPlan::Naive);
        assert_eq!(plan(Trans::Nn, 64, 1, 1 << 12), GemmPlan::Naive);
        // 2*32^3 = 65536 >= BLOCKED_MIN_FLOPS: packed.
        match plan(Trans::Nn, 32, 32, 32) {
            GemmPlan::Tiled(scheme, _) => assert_ne!(scheme.stage, Staging::Direct),
            plan => panic!("32^3 Nn should be packed, got {plan:?}"),
        }

        // Nt (scalar naive nest): packed from just above SMALL_MIN_FLOPS...
        match plan(Trans::Nt, 8, 8, 8) {
            GemmPlan::Tiled(scheme, _) => assert_ne!(scheme.stage, Staging::Direct),
            plan => panic!("8x8x8 Nt should be packed, got {plan:?}"),
        }
        // ... the skinny-m wide-n band runs the direct unpacked scheme ...
        match plan(Trans::Nt, 3, 48, 64) {
            GemmPlan::Tiled(scheme, _) => assert_eq!(scheme.stage, Staging::Direct),
            plan => panic!("3x48x64 Nt should run the direct scheme, got {plan:?}"),
        }
        // ... and skinny-n falls back to naive (nothing vectorises it).
        assert_eq!(plan(Trans::Nt, 64, 1, 256), GemmPlan::Naive);

        // 256^3 is packed, with the default partition and a supported tile.
        match plan(Trans::Nn, 256, 256, 256) {
            GemmPlan::Tiled(scheme, _) => {
                assert_ne!(scheme.stage, Staging::Direct);
                assert!(scheme.tile.is_supported());
                assert_eq!(scheme.partition.kc, 256);
            }
            plan => panic!("256^3 should be packed, got {plan:?}"),
        }
    }

    #[test]
    fn overrides_shape_the_packed_plan() {
        let _guard = lock();
        clear_overrides();
        set_tiling_override(TilingOverride {
            mc: Some(64),
            kc: Some(64),
            nc: Some(64),
            tile: Some(TileSize { mr: 4, nr: 8 }),
        });
        match plan(Trans::Nn, 256, 256, 256) {
            GemmPlan::Tiled(scheme, _) => {
                assert_eq!(scheme.partition.mc, 64);
                assert_eq!(scheme.stage, Staging::Single);
                assert_eq!(scheme.tile, TileSize { mr: 4, nr: 8 });
            }
            plan => panic!("expected packed plan, got {plan:?}"),
        }
        // Direct plans ignore the partition override.
        match plan(Trans::Nt, 3, 48, 64) {
            GemmPlan::Tiled(scheme, _) => assert_eq!(scheme.stage, Staging::Direct),
            plan => panic!("expected direct plan, got {plan:?}"),
        }
        clear_overrides();
    }

    #[test]
    fn forced_micro_kernel_controls_tile() {
        let _guard = lock();
        clear_overrides();
        set_micro_override(Some(MicroKernelId::Portable));
        assert_eq!(micro_select(), MicroSelect::Force(MicroKernelId::Portable));
        match plan(Trans::Nn, 256, 256, 256) {
            GemmPlan::Tiled(scheme, _) => assert_eq!(scheme.tile, TileSize { mr: 4, nr: 8 }),
            plan => panic!("expected packed plan, got {plan:?}"),
        }
        clear_overrides();
        assert_eq!(micro_select(), MicroSelect::Auto);
    }

    #[test]
    fn panel_schemes_narrow_the_tile_for_lane_starved_products_only_when_automatic() {
        let _guard = lock();
        clear_overrides();
        let (wide, narrow) = (MicroKernelId::Avx512_16x16, MicroKernelId::Avx512_16x8);
        // Enough lanes: the packed scheme's tile, on any host.
        let full = panel_scheme(MicroSelect::Auto, 16);
        assert_eq!(full, packed_scheme(MicroSelect::Auto));
        assert_eq!(panel_scheme(MicroSelect::Auto, 9), full);
        // Eight lanes or fewer: the 8-lane tile where the 16-lane one was the choice.
        let starved = panel_scheme(MicroSelect::Auto, 8);
        if wide.is_available() && narrow.is_available() {
            assert_eq!((full.tile, starved.tile), (wide.tile(), narrow.tile()));
        } else {
            assert_eq!(starved, full);
        }
        assert_eq!(panel_scheme(MicroSelect::Auto, 1), starved);
        // A forced kernel and an overridden tile are obeyed whatever the lane count.
        for id in crate::kernels::ALL_MICRO_KERNELS {
            if id.is_available() {
                assert_eq!(panel_scheme(MicroSelect::Force(id), 6).tile, id.tile());
            }
        }
        set_tiling_override(TilingOverride {
            tile: Some(TileSize { mr: 8, nr: 8 }),
            kc: Some(5),
            ..TilingOverride::default()
        });
        let overridden = panel_scheme(MicroSelect::Auto, 6);
        assert_eq!(overridden.tile, TileSize { mr: 8, nr: 8 });
        assert_eq!(overridden.partition.kc, 5);
        clear_overrides();
    }

    #[test]
    fn plan_does_not_depend_on_the_thread_count() {
        // Fan-out splits a product into row slices; it never changes the scheme a slice
        // runs. Setting the count starts no thread.
        let _guard = lock();
        clear_overrides();
        let shapes = [
            (4, 4, 4),
            (3, 48, 64),
            (32, 32, 32),
            (64, 1, 256),
            (32, 576, 192),
            (128, 128, 128),
            (256, 256, 256),
            (260, 100, 90),
        ];
        for trans in [Trans::Nn, Trans::Nt, Trans::Tn] {
            for (m, n, k) in shapes {
                rayon::set_num_threads(1);
                let one = plan(trans, m, n, k);
                rayon::set_num_threads(4);
                let four = plan(trans, m, n, k);
                assert_eq!(one, four, "{trans:?} {m}x{n}x{k}");
            }
        }
        rayon::set_num_threads(0);
    }

    #[test]
    fn unset_or_empty_knob_settings_mean_auto() {
        assert_eq!(parse_micro_kernel_setting(None), None);
        assert_eq!(parse_micro_kernel_setting(Some(" ")), None);
        assert_eq!(
            parse_micro_kernel_setting(Some("avx512w")),
            Some(MicroKernelId::Avx512_16x16)
        );
        assert_eq!(parse_tiling_setting(None), TilingOverride::default());
        assert_eq!(parse_tiling_setting(Some("")), TilingOverride::default());
    }

    #[test]
    #[should_panic(expected = "MERGESFL_MICROKERNEL=\"avx2\" is not a micro-kernel")]
    fn mistyped_micro_kernel_setting_fails_loudly() {
        parse_micro_kernel_setting(Some("avx2"));
    }

    #[test]
    #[should_panic(expected = "MERGESFL_TILING: stages=2 is not a staging")]
    fn retired_double_staging_setting_fails_loudly() {
        // Once valid; silently dropping the whole spec would also drop its `mc`.
        parse_tiling_setting(Some("mc=96,stages=2"));
    }
}
