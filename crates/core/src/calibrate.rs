//! Per-architecture server cost calibration from measured kernel timings.
//!
//! The simulator's original server cost model was two global constants
//! (`SERVER_GFLOPS`, `SERVER_CRITICAL_FRACTION` in `mergesfl_simnet::profile`): every
//! architecture's top model was charged at the same effective throughput and with the
//! same critical/overlappable split. In reality the server's effective rate depends on
//! the kernel mix the top model runs — small fully-connected GEMMs sustain a fraction of
//! what large square GEMMs do, and convolutions sit in between — and the share of
//! a step that gates gradient dispatch depends on the measured forward/backward balance.
//!
//! [`ServerCostModel::for_architecture`] derives both quantities from `kernel_bench`
//! measurements (the frozen [`REFERENCE_MEASUREMENTS`] snapshot, overridable with a
//! freshly measured `BENCH_kernels.json` via the `MERGESFL_BENCH_JSON` environment
//! variable):
//!
//! * **Throughput** — each architecture maps to the benchmark shapes its top model is
//!   dominated by. The aggregate measured GFLOP/s over those shapes (forward plus a
//!   backward at the measured or flop-scaled rate), relative to the aggregate over the
//!   whole zoo, scales the paper-grade [`SERVER_GFLOPS`] baseline: architectures whose
//!   kernels run efficiently are charged proportionally faster servers.
//! * **Critical fraction** — gradient dispatch waits on forward plus the input-gradient
//!   half of backward; the weight-gradient half and the optimizer step overlap with the
//!   workers' next iteration. The measured backward/forward time ratio `r` gives
//!   `(t_f + t_b/2) / (t_f + t_b)` per architecture.
//!
//! The calibrated values are recorded in every `RoundRecord` so a run's JSON trace is
//! self-describing about the cost model it was simulated under.

use crate::json::{self, JsonValue};
use mergesfl_nn::zoo::Architecture;
use mergesfl_simnet::profile::SERVER_GFLOPS;
use std::sync::OnceLock;

/// One `kernel_bench` measurement: a named shape, its FLOP count, and the blocked-kernel
/// wall time — the three fields calibration reads from a `BENCH_kernels.json` entry.
#[derive(Clone, Copy, Debug)]
pub struct BenchMeasurement {
    /// Shape name as emitted by `kernel_bench` (e.g. `"gemm_nn_256x256x256"`).
    pub name: &'static str,
    /// FLOPs of one invocation.
    pub flops: f64,
    /// Best measured wall time of the blocked backend, nanoseconds.
    pub blocked_ns: f64,
}

/// The reference measurements calibration runs against: a **frozen snapshot** of the
/// `BENCH_kernels.json` recorded when the kernel runtime landed (PR 9), baked in so
/// calibration is deterministic wherever the binary runs. It is deliberately *not* a mirror
/// of the repo-root file, which later kernel work re-records: these values parametrise the
/// *simulated* server, so editing them moves simulated time in every figure. A freshly
/// measured file can be substituted at runtime with
/// `MERGESFL_BENCH_JSON=/path/to/BENCH_kernels.json`; entries missing from the file fall
/// back to these values.
pub const REFERENCE_MEASUREMENTS: &[BenchMeasurement] = &[
    BenchMeasurement {
        name: "gemm_nn_64x64x64",
        flops: 524_288.0,
        blocked_ns: 18_037.0,
    },
    BenchMeasurement {
        name: "gemm_nn_128x128x128",
        flops: 4_194_304.0,
        blocked_ns: 84_742.0,
    },
    BenchMeasurement {
        name: "gemm_nn_256x256x256",
        flops: 33_554_432.0,
        blocked_ns: 574_833.0,
    },
    BenchMeasurement {
        name: "gemm_nt_256x256x256_bias_relu",
        flops: 33_554_432.0,
        blocked_ns: 563_124.0,
    },
    BenchMeasurement {
        name: "linear_cnnh_fc1_b32",
        flops: 221_184.0,
        blocked_ns: 8_724.0,
    },
    BenchMeasurement {
        name: "linear_alexnet_fc1_b64",
        flops: 393_216.0,
        blocked_ns: 15_110.0,
    },
    BenchMeasurement {
        name: "linear_vgg_fc1_b32",
        flops: 65_536.0,
        blocked_ns: 2_840.0,
    },
    BenchMeasurement {
        name: "linear_vgg_fc2_b32",
        flops: 196_608.0,
        blocked_ns: 7_131.0,
    },
    BenchMeasurement {
        name: "linear_vgg_fc2_b3",
        flops: 18_432.0,
        blocked_ns: 6_000.0,
    },
    BenchMeasurement {
        name: "gemv_bias_grad_1x64x256",
        flops: 32_768.0,
        blocked_ns: 2_474.0,
    },
    BenchMeasurement {
        name: "gemm_nn_12x12x12_small",
        flops: 3_456.0,
        blocked_ns: 612.0,
    },
    BenchMeasurement {
        name: "conv2d_vgg_c2_b16_fwd",
        flops: 1_179_648.0,
        blocked_ns: 216_432.0,
    },
    BenchMeasurement {
        name: "conv2d_cnnh_c1_b32_fwd",
        flops: 497_664.0,
        blocked_ns: 128_252.0,
    },
    BenchMeasurement {
        name: "conv2d_alexnet_c1_b16_fwd",
        flops: 1_769_472.0,
        blocked_ns: 301_877.0,
    },
    BenchMeasurement {
        name: "conv2d_alexnet_c1_b16_bwd",
        flops: 3_538_944.0,
        blocked_ns: 650_971.0,
    },
    BenchMeasurement {
        name: "conv1d_cnns_c1_b16_fwd",
        flops: 81_920.0,
        blocked_ns: 20_974.0,
    },
    BenchMeasurement {
        name: "conv1d_cnns_c1_b16_bwd",
        flops: 163_840.0,
        blocked_ns: 87_922.0,
    },
];

/// The calibrated server cost model of one architecture: what the engine charges instead
/// of the two global constants.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServerCostModel {
    /// Effective server training throughput for this architecture's top model, GFLOP/s.
    pub gflops: f64,
    /// Fraction of a top-model step that gates gradient dispatch (forward + the
    /// input-gradient half of backward); the rest overlaps with the workers.
    pub critical_fraction: f64,
}

/// Representative benchmark shapes per architecture: the forward entries its top model is
/// dominated by, and the measured backward entries where `kernel_bench` provides them
/// (otherwise backward is charged at the forward rate with the 2x flop ratio).
fn representative_shapes(arch: Architecture) -> (&'static [&'static str], &'static [&'static str]) {
    match arch {
        // CNN-H's top model is its conv tail plus two small FC layers.
        Architecture::CnnH => (&["conv2d_cnnh_c1_b32_fwd", "linear_cnnh_fc1_b32"], &[]),
        // CNN-S is 1-D convolution dominated; both directions are measured.
        Architecture::CnnS => (&["conv1d_cnns_c1_b16_fwd"], &["conv1d_cnns_c1_b16_bwd"]),
        // AlexNet mixes measured conv forward/backward with its first FC shape.
        Architecture::AlexNetLite => (
            &["conv2d_alexnet_c1_b16_fwd", "linear_alexnet_fc1_b64"],
            &["conv2d_alexnet_c1_b16_bwd"],
        ),
        // VGG16's top layers are convolutions costed as large square GEMMs, with a measured conv
        // stage and its two head FC layers rounding out the forward mix.
        Architecture::Vgg16Lite => (
            &[
                "gemm_nn_256x256x256",
                "conv2d_vgg_c2_b16_fwd",
                "linear_vgg_fc1_b32",
                "linear_vgg_fc2_b32",
            ],
            &["gemm_nt_256x256x256_bias_relu"],
        ),
    }
}

fn lookup<'a>(measurements: &'a [BenchMeasurement], name: &str) -> &'a BenchMeasurement {
    measurements
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("calibration shape '{name}' missing from measurements"))
}

/// Parses a `BENCH_kernels.json` document into measurements, keeping the reference value
/// for any shape the file does not provide (so a trimmed or older file still calibrates).
fn parse_bench_json(text: &str) -> Result<Vec<BenchMeasurement>, String> {
    let doc = json::parse(text)?;
    let entries = doc
        .get("entries")
        .and_then(JsonValue::as_array)
        .ok_or("BENCH_kernels.json: missing 'entries' array")?;
    let mut merged: Vec<BenchMeasurement> = REFERENCE_MEASUREMENTS.to_vec();
    for entry in entries {
        let Some(name) = entry.get("name").and_then(JsonValue::as_str) else {
            continue;
        };
        let (Some(flops), Some(blocked_ns)) = (
            entry.get("flops").and_then(JsonValue::as_f64),
            entry.get("blocked_ns").and_then(JsonValue::as_f64),
        ) else {
            continue;
        };
        if !(flops > 0.0 && blocked_ns > 0.0) {
            continue;
        }
        if let Some(slot) = merged.iter_mut().find(|m| m.name == name) {
            slot.flops = flops;
            slot.blocked_ns = blocked_ns;
        }
    }
    Ok(merged)
}

/// The measurement set calibration runs against: `MERGESFL_BENCH_JSON` when set and
/// readable, the frozen reference snapshot otherwise. Resolved once per process.
fn active_measurements() -> &'static [BenchMeasurement] {
    static ACTIVE: OnceLock<Vec<BenchMeasurement>> = OnceLock::new();
    ACTIVE.get_or_init(|| {
        if let Some(path) = mergesfl_nn::env::var("MERGESFL_BENCH_JSON") {
            match std::fs::read_to_string(&path).map_err(|e| e.to_string()).and_then(|t| parse_bench_json(&t)) {
                Ok(measurements) => return measurements,
                Err(err) => {
                    eprintln!(
                        "[mergesfl] MERGESFL_BENCH_JSON={path}: {err}; using the committed reference measurements"
                    );
                }
            }
        }
        REFERENCE_MEASUREMENTS.to_vec()
    })
}

impl ServerCostModel {
    /// Calibrates the server cost model of one architecture from the active measurement
    /// set (see module docs for the formula).
    pub fn for_architecture(arch: Architecture) -> Self {
        Self::from_measurements(arch, active_measurements())
    }

    /// Calibration against an explicit measurement set (exposed for tests).
    pub fn from_measurements(arch: Architecture, measurements: &[BenchMeasurement]) -> Self {
        let (fwd_shapes, bwd_shapes) = representative_shapes(arch);
        // Forward workload of the representative mix.
        let mut fwd_flops = 0.0;
        let mut fwd_ns = 0.0;
        for name in fwd_shapes {
            let m = lookup(measurements, name);
            fwd_flops += m.flops;
            fwd_ns += m.blocked_ns;
        }
        // Backward workload: measured where available, otherwise the flop-scaled forward
        // (backward runs ~2x the forward flops at the same kernel efficiency).
        let (mut bwd_flops, mut bwd_ns) = (0.0, 0.0);
        for name in bwd_shapes {
            let m = lookup(measurements, name);
            bwd_flops += m.flops;
            bwd_ns += m.blocked_ns;
        }
        if bwd_shapes.is_empty() {
            bwd_flops = 2.0 * fwd_flops;
            bwd_ns = 2.0 * fwd_ns;
        }

        // Architecture efficiency vs the whole-zoo efficiency the old constant stood for.
        let arch_rate = (fwd_flops + bwd_flops) / (fwd_ns + bwd_ns);
        let zoo_flops: f64 = measurements.iter().map(|m| m.flops).sum();
        let zoo_ns: f64 = measurements.iter().map(|m| m.blocked_ns).sum();
        let zoo_rate = zoo_flops / zoo_ns;
        let gflops = SERVER_GFLOPS * arch_rate / zoo_rate;

        // Dispatch gates on forward + the input-gradient half of backward.
        let critical_fraction = (fwd_ns + 0.5 * bwd_ns) / (fwd_ns + bwd_ns);

        assert!(
            gflops.is_finite() && gflops > 0.0,
            "calibration produced a bogus throughput for {arch:?}"
        );
        assert!(
            (0.0..=1.0).contains(&critical_fraction),
            "calibration produced a bogus critical fraction for {arch:?}"
        );
        Self {
            gflops,
            critical_fraction,
        }
    }

    /// Seconds this architecture's top model takes for one step over `total_batch` merged
    /// samples on a single shard, at the calibrated throughput.
    pub fn server_step_seconds(&self, top_gflop_per_sample: f64, total_batch: usize) -> f64 {
        total_batch as f64 * top_gflop_per_sample / self.gflops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_architecture_calibrates_to_sane_values() {
        for arch in Architecture::all() {
            let model = ServerCostModel::for_architecture(arch);
            assert!(model.gflops > 0.0, "{arch:?}");
            assert!(
                (0.05..=0.95).contains(&model.critical_fraction),
                "{arch:?}: fraction {} out of the plausible band",
                model.critical_fraction
            );
        }
    }

    #[test]
    fn calibration_differs_across_architectures() {
        // The point of calibration: conv-bound and GEMM-bound top models must not be
        // charged the same server throughput, and the measured backward/forward balance
        // must separate at least some critical fractions.
        let models: Vec<ServerCostModel> = Architecture::all()
            .into_iter()
            .map(ServerCostModel::for_architecture)
            .collect();
        let mut rates: Vec<f64> = models.iter().map(|m| m.gflops).collect();
        rates.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(
            rates.last().unwrap() / rates.first().unwrap() > 2.0,
            "throughput spread {rates:?} too small to matter"
        );
        let fractions: Vec<f64> = models.iter().map(|m| m.critical_fraction).collect();
        assert!(
            fractions.iter().any(|f| (f - fractions[0]).abs() > 1e-3),
            "critical fractions {fractions:?} degenerate to a single constant"
        );
    }

    #[test]
    fn gemm_dominated_vgg_is_charged_the_fastest_server() {
        let vgg = ServerCostModel::for_architecture(Architecture::Vgg16Lite);
        for arch in [
            Architecture::CnnH,
            Architecture::CnnS,
            Architecture::AlexNetLite,
        ] {
            let other = ServerCostModel::for_architecture(arch);
            assert!(
                vgg.gflops > other.gflops,
                "VGG {} should beat {arch:?} {}",
                vgg.gflops,
                other.gflops
            );
        }
    }

    #[test]
    fn step_seconds_scale_linearly_with_batch() {
        let model = ServerCostModel::for_architecture(Architecture::CnnH);
        let one = model.server_step_seconds(0.006, 8);
        let eight = model.server_step_seconds(0.006, 64);
        assert!(one > 0.0);
        assert!((eight - 8.0 * one).abs() < 1e-12);
    }

    #[test]
    fn bench_json_overrides_merge_into_the_reference_set() {
        let doc = r#"{
  "schema": "mergesfl-kernel-bench/v1",
  "entries": [
    {"name": "gemm_nn_256x256x256", "flops": 33554432, "blocked_ns": 361631},
    {"name": "unknown_shape", "flops": 10, "blocked_ns": 10},
    {"name": "conv1d_cnns_c1_b16_fwd", "flops": -1, "blocked_ns": 0}
  ]
}"#;
        let merged = parse_bench_json(doc).expect("valid document");
        assert_eq!(merged.len(), REFERENCE_MEASUREMENTS.len());
        // The valid override landed…
        assert_eq!(lookup(&merged, "gemm_nn_256x256x256").blocked_ns, 361_631.0);
        // …the invalid one was ignored…
        assert_eq!(
            lookup(&merged, "conv1d_cnns_c1_b16_fwd").blocked_ns,
            20_974.0
        );
        // …and a 2x-faster gate shape calibrates VGG to a faster server.
        let faster = ServerCostModel::from_measurements(Architecture::Vgg16Lite, &merged);
        let reference =
            ServerCostModel::from_measurements(Architecture::Vgg16Lite, REFERENCE_MEASUREMENTS);
        assert!(faster.gflops > reference.gflops);
    }

    #[test]
    fn malformed_bench_json_is_rejected() {
        assert!(parse_bench_json("not json").is_err());
        assert!(parse_bench_json("{}").is_err());
    }

    #[test]
    fn both_schema_versions_calibrate() {
        // v1 documents predate `allocs_per_iter`; v2 documents carry it (possibly as
        // null when counting was disabled). Calibration only consumes name / flops /
        // blocked_ns, so `MERGESFL_BENCH_JSON` pointing at either vintage must load.
        let v1 = r#"{
  "schema": "mergesfl-kernel-bench/v1",
  "entries": [{"name": "gemm_nn_256x256x256", "flops": 33554432, "blocked_ns": 500000}]
}"#;
        let v2 = r#"{
  "schema": "mergesfl-kernel-bench/v2",
  "entries": [
    {"name": "gemm_nn_256x256x256", "flops": 33554432, "blocked_ns": 500000, "allocs_per_iter": 0},
    {"name": "gemm_nn_128x128x128", "flops": 4194304, "blocked_ns": 100000, "allocs_per_iter": null}
  ]
}"#;
        let from_v1 = parse_bench_json(v1).expect("v1 parses");
        let from_v2 = parse_bench_json(v2).expect("v2 parses");
        assert_eq!(
            lookup(&from_v1, "gemm_nn_256x256x256").blocked_ns,
            500_000.0
        );
        assert_eq!(
            lookup(&from_v2, "gemm_nn_256x256x256").blocked_ns,
            500_000.0
        );
        assert_eq!(
            lookup(&from_v2, "gemm_nn_128x128x128").blocked_ns,
            100_000.0
        );
        let a = ServerCostModel::from_measurements(Architecture::Vgg16Lite, &from_v1);
        let b = ServerCostModel::from_measurements(Architecture::Vgg16Lite, &from_v2);
        assert!(a.gflops > 0.0 && b.gflops > 0.0);
    }
}
