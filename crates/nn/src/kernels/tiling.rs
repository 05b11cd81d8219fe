//! Explicit tiling schemes: the execution-plan vocabulary of the kernel runtime.
//!
//! A [`TilingScheme`] describes *how* one GEMM runs, at the three levels the
//! CubeCL-style runtime distinguishes:
//!
//! * [`TileSize`] — the register tile the micro-kernel accumulates (`mr × nr`).
//!   The tile picks the micro-kernel: `4×8` is the portable scalar kernel,
//!   `8×8` the AVX kernel, `16×8` the AVX-512 kernel (each falling back to a
//!   generic scalar implementation of the same tile when the SIMD feature is
//!   absent or the portable kernel is forced).
//! * [`PartitionSize`] — the cache blocking (`mc/kc/nc`), i.e. how much of A, B
//!   and C one packing round stages through L1/L2. This replaces the hardcoded
//!   `MC/KC/NC` constants of the previous `GemmBlocking` struct.
//! * [`Staging`] — whether panels are packed: [`Staging::Direct`] skips
//!   packing entirely (the small-shape scheme), [`Staging::Single`] packs
//!   inline on the compute thread, one block at a time.
//!
//! Whatever the scheme, every output element folds its `k` contributions in
//! ascending order, so all schemes produce bit-identical results — the scheme
//! changes wall-clock time only. Scheme *selection* lives in
//! [`crate::kernels::runtime`]; this module only defines the types, their
//! validation, and the `MERGESFL_TILING` override parser.

/// Register-tile footprint of a micro-kernel: `mr` rows × `nr` columns of C
/// held in accumulators while the shared dimension streams through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileSize {
    /// Accumulator rows (micro-panel height of packed A).
    pub mr: usize,
    /// Accumulator columns (micro-panel width of packed B).
    pub nr: usize,
}

/// The register tiles the runtime can execute. Each maps to a monomorphised
/// driver; arbitrary tiles would need a dynamically-sized accumulator and lose
/// the register residency that makes tiling worthwhile.
pub const SUPPORTED_TILES: [TileSize; 4] = [
    TileSize { mr: 4, nr: 8 },
    TileSize { mr: 8, nr: 8 },
    TileSize { mr: 16, nr: 8 },
    TileSize { mr: 16, nr: 16 },
];

impl TileSize {
    /// Whether a monomorphised driver exists for this tile.
    pub fn is_supported(&self) -> bool {
        SUPPORTED_TILES.contains(self)
    }
}

/// Cache-blocking sizes: one packing round stages an `mc × kc` block of A and a
/// `kc × nc` block of B. The defaults target a ~32 KiB L1 / 256 KiB–1 MiB L2
/// CPU: one packed A panel (`mr·kc` floats) plus one packed B panel (`nr·kc`
/// floats) stay L1-resident while the `kc × nc` B block lives in L2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartitionSize {
    /// Row-block height of A (and C) processed per packing round.
    pub mc: usize,
    /// Depth of the shared dimension packed per round.
    pub kc: usize,
    /// Column-block width of B (and C) processed per packing round.
    pub nc: usize,
}

impl Default for PartitionSize {
    fn default() -> Self {
        Self {
            mc: 128,
            kc: 256,
            nc: 512,
        }
    }
}

/// Whether the micro-kernel reads packed panels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Staging {
    /// No packing at all: the register tile reads A and B in place. The
    /// small-shape scheme — packing cannot amortise below a few k-iterations,
    /// and skinny shapes (`n < nr`) would pad most of every packed panel.
    Direct,
    /// Panels are packed inline on the compute thread, one block at a time
    /// (the classic BLIS loop nest).
    Single,
}

impl Staging {
    /// Short name used in logs and benchmark output.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Direct => "direct",
            Self::Single => "single",
        }
    }
}

/// One GEMM execution plan: register tile, cache partition, panel staging.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TilingScheme {
    /// Register tile (selects the micro-kernel).
    pub tile: TileSize,
    /// Cache-blocking partition.
    pub partition: PartitionSize,
    /// Panel staging mode.
    pub stage: Staging,
}

impl TilingScheme {
    /// The packed scheme for a given tile with default cache blocking.
    pub fn packed(tile: TileSize, stage: Staging) -> Self {
        Self {
            tile,
            partition: PartitionSize::default(),
            stage,
        }
    }

    /// The small-shape scheme: an unpacked `4×8` register tile over the whole
    /// problem. The partition is set to the full problem extent purely for
    /// introspection — the direct driver does not block.
    pub fn small(m: usize, n: usize, k: usize) -> Self {
        Self {
            tile: TileSize { mr: 4, nr: 8 },
            partition: PartitionSize {
                mc: m.max(1),
                kc: k.max(1),
                nc: n.max(1),
            },
            stage: Staging::Direct,
        }
    }

    /// Panics unless the scheme is executable: a supported tile and positive
    /// partition sizes.
    pub fn validate(&self) {
        assert!(
            self.tile.is_supported(),
            "TilingScheme: unsupported register tile {}x{} (supported: 4x8, 8x8, 16x8, 16x16)",
            self.tile.mr,
            self.tile.nr
        );
        assert!(
            self.partition.mc > 0 && self.partition.kc > 0 && self.partition.nc > 0,
            "TilingScheme: partition sizes must be positive"
        );
    }
}

/// Parsed form of the `MERGESFL_TILING` override: any subset of the scheme's
/// knobs, applied on top of the runtime's per-shape selection for packed
/// schemes.
///
/// Spec grammar: comma-separated `key=value` pairs, e.g.
/// `mc=96,kc=192,nc=384,tile=16x8`. Keys: `mc`, `kc`, `nc` (positive
/// integers), `tile` (`MRxNR`, one of the supported tiles). Unknown keys or
/// malformed values make the whole spec invalid. `stages=1` is also accepted
/// and changes nothing: it names the one packed staging there is, and specs
/// written when a second one existed still pin it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TilingOverride {
    /// Override of [`PartitionSize::mc`].
    pub mc: Option<usize>,
    /// Override of [`PartitionSize::kc`].
    pub kc: Option<usize>,
    /// Override of [`PartitionSize::nc`].
    pub nc: Option<usize>,
    /// Override of the register tile.
    pub tile: Option<TileSize>,
}

impl TilingOverride {
    /// Parses a `MERGESFL_TILING` spec. Returns `Err` with a description on
    /// any malformed component, so callers can surface the problem instead of
    /// silently ignoring the knob.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut out = Self::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("MERGESFL_TILING: `{part}` is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            let parse_dim = |v: &str| -> Result<usize, String> {
                v.parse::<usize>().ok().filter(|&d| d > 0).ok_or_else(|| {
                    format!("MERGESFL_TILING: `{key}={v}` is not a positive integer")
                })
            };
            match key {
                "mc" => out.mc = Some(parse_dim(value)?),
                "kc" => out.kc = Some(parse_dim(value)?),
                "nc" => out.nc = Some(parse_dim(value)?),
                "stages" if value == "1" => {}
                "stages" => {
                    return Err(format!(
                        "MERGESFL_TILING: stages={value} is not a staging; packed GEMMs run \
                         single-stage (stages=1)"
                    ))
                }
                "tile" => {
                    let (mr, nr) = value
                        .split_once('x')
                        .ok_or_else(|| format!("MERGESFL_TILING: tile={value} is not MRxNR"))?;
                    let tile = TileSize {
                        mr: parse_dim(mr.trim())?,
                        nr: parse_dim(nr.trim())?,
                    };
                    if !tile.is_supported() {
                        return Err(format!(
                            "MERGESFL_TILING: tile={value} unsupported (4x8, 8x8, 16x8 or 16x16)"
                        ));
                    }
                    out.tile = Some(tile);
                }
                other => return Err(format!("MERGESFL_TILING: unknown key `{other}`")),
            }
        }
        Ok(out)
    }

    /// Applies the override to a packed scheme (partition, tile).
    /// Direct (small-shape) schemes are left alone — their "partition" is just
    /// the problem extent.
    pub fn apply(&self, scheme: &mut TilingScheme) {
        if scheme.stage == Staging::Direct {
            return;
        }
        if let Some(mc) = self.mc {
            scheme.partition.mc = mc;
        }
        if let Some(kc) = self.kc {
            scheme.partition.kc = kc;
        }
        if let Some(nc) = self.nc {
            scheme.partition.nc = nc;
        }
        if let Some(tile) = self.tile {
            scheme.tile = tile;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supported_tiles_and_validation() {
        for tile in SUPPORTED_TILES {
            TilingScheme::packed(tile, Staging::Single).validate();
        }
        assert!(!TileSize { mr: 3, nr: 5 }.is_supported());
    }

    #[test]
    #[should_panic(expected = "unsupported register tile")]
    fn unsupported_tile_fails_validation() {
        TilingScheme::packed(TileSize { mr: 2, nr: 2 }, Staging::Single).validate();
    }

    #[test]
    fn override_parses_and_applies() {
        let ov = TilingOverride::parse("mc=96, kc=192,nc=384,stages=1,tile=16x8").unwrap();
        let mut scheme = TilingScheme::packed(TileSize { mr: 8, nr: 8 }, Staging::Single);
        ov.apply(&mut scheme);
        assert_eq!(
            scheme,
            TilingScheme {
                tile: TileSize { mr: 16, nr: 8 },
                partition: PartitionSize {
                    mc: 96,
                    kc: 192,
                    nc: 384,
                },
                stage: Staging::Single,
            }
        );
        // Direct schemes are never overridden.
        let mut small = TilingScheme::small(4, 4, 4);
        ov.apply(&mut small);
        assert_eq!(small, TilingScheme::small(4, 4, 4));
    }

    #[test]
    fn override_rejects_malformed_specs() {
        for bad in [
            "mc=0", "mc=abc", "stages=2", "stages=3", "tile=5x5", "tile=8", "bogus=1", "mc",
        ] {
            assert!(
                TilingOverride::parse(bad).is_err(),
                "{bad} should not parse"
            );
        }
        // Empty specs and stray commas are fine (no overrides).
        assert_eq!(
            TilingOverride::parse("").unwrap(),
            TilingOverride::default()
        );
        assert_eq!(
            TilingOverride::parse(" , ").unwrap(),
            TilingOverride::default()
        );
    }
}
