//! Paper-scale model profiles used for timing and traffic accounting.
//!
//! The models actually trained by `mergesfl-nn` are scaled-down analogues (so that CPU-only
//! training converges in minutes), but the *simulated* time and traffic are charged at the
//! scale of the paper's real models: a VGG16 is 321 MB, its bottom model 56 MB, and a
//! batch-64 feature tensor at the 13th layer about 3 MB. Keeping the two scales separate
//! means accuracy curves come from real SGD dynamics while time/traffic figures land in the
//! same regime as the paper's testbed.

use mergesfl_nn::zoo::Architecture;
use serde::{Deserialize, Serialize};

const MB: f64 = 1024.0 * 1024.0;

/// Architecture-independent throughput of the parameter server's GPU workstation, in
/// GFLOP/s. The paper's PS is a deep-learning workstation whose sustained throughput
/// dwarfs the Jetson workers (whose effective rates are single-digit GFLOP/s at best);
/// 2 TFLOP/s of sustained training throughput is a conservative figure for such a
/// machine. It charges FedAvg aggregation ([`ModelProfile::aggregate_seconds_per_state`])
/// and is what the FL engine records; the split top-model step is charged at the
/// per-architecture [`ModelProfile::server_gflops`] instead.
pub const SERVER_GFLOPS: f64 = 2000.0;

/// Fraction of a server top-model step that must complete before the split-layer
/// gradients can be dispatched (merge + top forward + backward). The remainder — the
/// optimizer update of the top model and per-round bookkeeping — can overlap with the
/// workers' bottom-backward and next bottom-forward in the pipelined schedule.
///
/// This is the architecture-independent value the FL engine records (it has no split
/// top-model step); the SFL engine charges and records the per-architecture
/// [`ModelProfile::server_critical_fraction`].
pub const SERVER_CRITICAL_FRACTION: f64 = 0.75;

/// Bandwidth of the datacenter interconnect between parameter-server shards, in Gb/s.
/// Cross-shard top-model synchronisation (the replicated topology's periodic all-reduce)
/// is charged at this rate; PS shards are co-located workstation-class machines on a
/// switched network, unlike the WiFi-attached workers.
pub const SERVER_INTERCONNECT_GBPS: f64 = 10.0;

/// Paper-scale cost model of one architecture.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ModelProfile {
    /// Size of the full model in bytes (what FedAvg/PyramidFL must exchange per worker).
    pub full_model_bytes: f64,
    /// Size of the bottom (worker-side) model in bytes (what SFL exchanges at aggregation).
    pub bottom_model_bytes: f64,
    /// Feature (smashed data) size per sample at the split layer, in bytes — the constant
    /// `c` of the paper's bandwidth constraint (Eq. 10). Gradients at the split layer have
    /// the same size.
    pub feature_bytes_per_sample: f64,
    /// Training workload (forward + backward) per sample in GFLOPs for a full-model update.
    pub full_gflop_per_sample: f64,
    /// Training workload per sample in GFLOPs for the worker-side bottom model only.
    pub bottom_gflop_per_sample: f64,
    /// Effective parameter-server throughput on this architecture's top model, GFLOP/s.
    /// Small fully-connected GEMMs sustain a fraction of what large square GEMMs do, so
    /// the rate depends on the top model's kernel mix.
    pub server_gflops: f64,
    /// Fraction of a top-model step that gates gradient dispatch (forward plus the
    /// input-gradient half of backward); the rest — the weight-gradient half and the
    /// optimizer update — overlaps with the workers in the pipelined schedule.
    pub server_critical_fraction: f64,
}

impl ModelProfile {
    /// Paper-scale profile for an architecture.
    ///
    /// AlexNet (136 MB) and VGG16 (321 MB, 56 MB bottom, ~3 MB features at batch 64) use the
    /// figures quoted in the paper; CNN-H and CNN-S use sizes consistent with their layer
    /// counts and input dimensions.
    ///
    /// The two server fields were derived once from blocked-kernel timings of the shapes
    /// each top model is dominated by: the throughput scales [`SERVER_GFLOPS`] by that
    /// mix's measured FLOP rate relative to the rate of the whole benchmark zoo, and the
    /// critical fraction is `(t_fwd + t_bwd/2) / (t_fwd + t_bwd)`. They are model
    /// constants: editing one moves the simulated clock of every figure.
    pub fn for_architecture(arch: Architecture) -> Self {
        match arch {
            Architecture::CnnH => Self {
                full_model_bytes: 4.5 * MB,
                bottom_model_bytes: 0.35 * MB,
                feature_bytes_per_sample: 2.0 * 1024.0,
                full_gflop_per_sample: 0.018,
                bottom_gflop_per_sample: 0.012,
                server_gflops: 352.9776973417413,
                server_critical_fraction: 0.6666666666666666,
            },
            Architecture::CnnS => Self {
                full_model_bytes: 7.0 * MB,
                bottom_model_bytes: 0.6 * MB,
                feature_bytes_per_sample: 1.5 * 1024.0,
                full_gflop_per_sample: 0.05,
                bottom_gflop_per_sample: 0.04,
                server_gflops: 151.7937700491847,
                server_critical_fraction: 0.5963028945048486,
            },
            Architecture::AlexNetLite => Self {
                full_model_bytes: 136.0 * MB,
                bottom_model_bytes: 4.0 * MB,
                feature_bytes_per_sample: 9.0 * 1024.0,
                full_gflop_per_sample: 0.35,
                bottom_gflop_per_sample: 0.25,
                server_gflops: 396.1843775163836,
                server_critical_fraction: 0.6637400589695007,
            },
            Architecture::Vgg16Lite => Self {
                full_model_bytes: 321.0 * MB,
                bottom_model_bytes: 56.0 * MB,
                feature_bytes_per_sample: 3.0 * MB / 64.0,
                full_gflop_per_sample: 2.8,
                bottom_gflop_per_sample: 2.2,
                server_gflops: 3379.3822089784153,
                server_critical_fraction: 0.7936307133014747,
            },
        }
    }

    /// Training workload per sample of the server-side (top) model, in GFLOPs: whatever of
    /// the full model is not computed by the workers.
    pub fn top_gflop_per_sample(&self) -> f64 {
        self.full_gflop_per_sample - self.bottom_gflop_per_sample
    }

    /// Size of the server-side (top) model in bytes: whatever of the full model the
    /// workers do not hold. This is what the replicated shard topology must move over the
    /// datacenter interconnect at every cross-shard synchronisation point.
    pub fn top_model_bytes(&self) -> f64 {
        self.full_model_bytes - self.bottom_model_bytes
    }

    /// Seconds one cross-shard top-model synchronisation takes with `shards` replicated
    /// parameter-server instances: a reduce + broadcast of the top-model state over the
    /// [`SERVER_INTERCONNECT_GBPS`] switch, where each shard exchanges the `(S-1)/S`
    /// share of the state it does not already hold in the aggregate. One shard has
    /// nothing to synchronise.
    pub fn cross_shard_sync_seconds(&self, shards: usize) -> f64 {
        if shards <= 1 {
            return 0.0;
        }
        let interconnect_bytes_per_sec = SERVER_INTERCONNECT_GBPS * 1e9 / 8.0;
        let share = (shards as f64 - 1.0) / shards as f64;
        2.0 * self.top_model_bytes() * share / interconnect_bytes_per_sec
    }

    /// Total bytes crossing the server interconnect for one cross-shard synchronisation
    /// of the replicated topology: every one of the `shards` instances exchanges the
    /// `(S-1)/S` share of the top-model state it does not hold, twice (reduce +
    /// broadcast) — `2·(S-1)` top-model states in aggregate. One shard moves nothing.
    pub fn cross_shard_sync_bytes(&self, shards: usize) -> f64 {
        if shards <= 1 {
            return 0.0;
        }
        2.0 * (shards as f64 - 1.0) * self.top_model_bytes()
    }

    /// Total bytes crossing the server interconnect for **one iteration** of the
    /// output-partitioned topology with `shards` instances over `samples` merged
    /// samples: the all-gather that re-assembles the feature stripes arriving on the
    /// `S` instance NICs plus the all-reduce of the partial split-layer gradients
    /// before dispatch — each shard receives the `(S-1)/S` share it does not hold of
    /// two `c`-bytes-per-sample tensors, `2·(S-1)` feature-sized passes in aggregate
    /// (the same aggregate convention as [`ModelProfile::cross_shard_sync_bytes`], so
    /// the two topologies' server-plane traffic meters compare like for like). The
    /// partial-logit all-gather itself (a few bytes of class scores per sample) is
    /// negligible against the feature tensors at paper scale and is folded into these
    /// two terms. One shard exchanges nothing.
    pub fn partitioned_exchange_bytes(&self, shards: usize, samples: usize) -> f64 {
        if shards <= 1 {
            return 0.0;
        }
        2.0 * (shards as f64 - 1.0) * samples as f64 * self.feature_bytes_per_sample
    }

    /// Seconds one iteration's partitioned activation exchange takes over the
    /// [`SERVER_INTERCONNECT_GBPS`] switch: the shards transfer their `(S-1)/S` shares
    /// concurrently, so the wall time is the aggregate volume divided across the `S`
    /// links (mirroring the per-share [`ModelProfile::cross_shard_sync_seconds`]).
    pub fn partitioned_exchange_seconds(&self, shards: usize, samples: usize) -> f64 {
        if shards <= 1 {
            return 0.0;
        }
        let interconnect_bytes_per_sec = SERVER_INTERCONNECT_GBPS * 1e9 / 8.0;
        self.partitioned_exchange_bytes(shards, samples)
            / shards as f64
            / interconnect_bytes_per_sec
    }

    /// Seconds the parameter server spends on one top-model step over a merged batch of
    /// `total_batch` samples (forward + backward + update) at this architecture's
    /// [`ModelProfile::server_gflops`].
    pub fn server_step_seconds(&self, total_batch: usize) -> f64 {
        total_batch as f64 * self.top_gflop_per_sample() / self.server_gflops
    }

    /// Seconds the parameter server spends folding one worker's full-model state into the
    /// FedAvg aggregate (a few FLOPs per parameter; 4 bytes per f32 parameter).
    pub fn aggregate_seconds_per_state(&self) -> f64 {
        let params = self.full_model_bytes / 4.0;
        // Scale + accumulate per parameter: ~2 FLOPs each.
        2.0 * params / (SERVER_GFLOPS * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vgg16_matches_paper_quoted_sizes() {
        let p = ModelProfile::for_architecture(Architecture::Vgg16Lite);
        assert!((p.full_model_bytes / MB - 321.0).abs() < 1.0);
        assert!((p.bottom_model_bytes / MB - 56.0).abs() < 1.0);
        // Batch-64 features are about 3 MB.
        assert!((p.feature_bytes_per_sample * 64.0 / MB - 3.0).abs() < 0.1);
    }

    #[test]
    fn alexnet_matches_paper_quoted_size() {
        let p = ModelProfile::for_architecture(Architecture::AlexNetLite);
        assert!((p.full_model_bytes / MB - 136.0).abs() < 1.0);
    }

    #[test]
    fn bottom_is_smaller_than_full_for_every_architecture() {
        for arch in Architecture::all() {
            let p = ModelProfile::for_architecture(arch);
            assert!(p.bottom_model_bytes < p.full_model_bytes, "{arch:?}");
            assert!(
                p.bottom_gflop_per_sample < p.full_gflop_per_sample,
                "{arch:?}"
            );
            assert!(p.feature_bytes_per_sample > 0.0, "{arch:?}");
        }
    }

    #[test]
    fn server_costs_are_positive_and_small() {
        for arch in Architecture::all() {
            let p = ModelProfile::for_architecture(arch);
            assert!(p.top_gflop_per_sample() > 0.0, "{arch:?}");
            let step = p.server_step_seconds(64);
            assert!(step > 0.0, "{arch:?}");
            // The PS is far faster than the workers: a batch-64 top step stays well under
            // a second even for VGG16.
            assert!(step < 1.0, "{arch:?}: server step {step} implausibly slow");
            assert!(
                (0.05..=0.95).contains(&p.server_critical_fraction),
                "{arch:?}: critical fraction {} out of the plausible band",
                p.server_critical_fraction
            );
            assert!(p.aggregate_seconds_per_state() > 0.0, "{arch:?}");
        }
    }

    #[test]
    fn server_throughput_spreads_across_architectures() {
        // Conv-bound and GEMM-bound top models are not charged the same server
        // throughput, and the measured backward/forward balance separates at least some
        // critical fractions.
        let profiles: Vec<ModelProfile> = Architecture::all()
            .into_iter()
            .map(ModelProfile::for_architecture)
            .collect();
        let mut rates: Vec<f64> = profiles.iter().map(|p| p.server_gflops).collect();
        rates.sort_by(f64::total_cmp);
        assert!(
            rates[rates.len() - 1] / rates[0] > 2.0,
            "throughput spread {rates:?} too small to matter"
        );
        let fractions: Vec<f64> = profiles
            .iter()
            .map(|p| p.server_critical_fraction)
            .collect();
        assert!(
            fractions.iter().any(|f| (f - fractions[0]).abs() > 1e-3),
            "critical fractions {fractions:?} degenerate to a single constant"
        );
    }

    #[test]
    fn gemm_dominated_vgg_is_charged_the_fastest_server() {
        let vgg = ModelProfile::for_architecture(Architecture::Vgg16Lite);
        for arch in [
            Architecture::CnnH,
            Architecture::CnnS,
            Architecture::AlexNetLite,
        ] {
            let other = ModelProfile::for_architecture(arch).server_gflops;
            assert!(
                vgg.server_gflops > other,
                "VGG {} should beat {arch:?} {other}",
                vgg.server_gflops
            );
        }
    }

    #[test]
    fn server_step_scales_linearly_with_batch() {
        for arch in Architecture::all() {
            let p = ModelProfile::for_architecture(arch);
            let one = p.server_step_seconds(8);
            let eight = p.server_step_seconds(64);
            assert!(one > 0.0, "{arch:?}");
            assert!((eight - 8.0 * one).abs() < 1e-12, "{arch:?}");
        }
    }

    #[test]
    fn cross_shard_sync_is_free_for_one_shard_and_grows_with_model_size() {
        for arch in Architecture::all() {
            let p = ModelProfile::for_architecture(arch);
            assert!(p.top_model_bytes() > 0.0, "{arch:?}");
            assert_eq!(p.cross_shard_sync_seconds(1), 0.0, "{arch:?}");
            let two = p.cross_shard_sync_seconds(2);
            let four = p.cross_shard_sync_seconds(4);
            assert!(two > 0.0, "{arch:?}");
            // More shards exchange a larger share of the state, but the cost is bounded
            // by a full 2x state exchange.
            assert!(four > two, "{arch:?}");
            let bound = 2.0 * p.top_model_bytes() / (SERVER_INTERCONNECT_GBPS * 1e9 / 8.0);
            assert!(four < bound, "{arch:?}");
        }
        // VGG16's 265 MB top model takes longest to synchronise.
        let vgg = ModelProfile::for_architecture(Architecture::Vgg16Lite);
        let cnn = ModelProfile::for_architecture(Architecture::CnnH);
        assert!(vgg.cross_shard_sync_seconds(4) > cnn.cross_shard_sync_seconds(4));
    }

    #[test]
    fn partitioned_exchange_is_free_for_one_shard_and_consistent_with_sync_accounting() {
        for arch in Architecture::all() {
            let p = ModelProfile::for_architecture(arch);
            assert_eq!(p.partitioned_exchange_bytes(1, 64), 0.0, "{arch:?}");
            assert_eq!(p.partitioned_exchange_seconds(1, 64), 0.0, "{arch:?}");
            let two = p.partitioned_exchange_seconds(2, 64);
            let four = p.partitioned_exchange_seconds(4, 64);
            assert!(two > 0.0, "{arch:?}");
            // More shards exchange a larger per-shard share in wall time...
            assert!(four > two, "{arch:?}");
            // ...while the aggregate volume is exactly 2·(S-1) feature-sized passes —
            // the same convention as the replicated sync bytes, so fig8 can diff the
            // two topologies' server-plane meters like for like.
            let pass = 64.0 * p.feature_bytes_per_sample;
            assert_eq!(p.partitioned_exchange_bytes(4, 64), 6.0 * pass, "{arch:?}");
            assert_eq!(
                p.cross_shard_sync_bytes(4),
                6.0 * p.top_model_bytes(),
                "{arch:?}"
            );
            // Per-shard wall time is the aggregate spread across the S links.
            let rate = SERVER_INTERCONNECT_GBPS * 1e9 / 8.0;
            assert!((four - 6.0 * pass / 4.0 / rate).abs() < 1e-12, "{arch:?}");
            // Linear in the merged batch.
            let half = p.partitioned_exchange_seconds(4, 32);
            assert!((four - 2.0 * half).abs() < 1e-12, "{arch:?}");
        }
    }

    #[test]
    fn feature_per_sample_is_much_smaller_than_bottom_model() {
        // The communication argument of SFL: per-iteration feature traffic is tiny compared
        // to shipping models around.
        for arch in Architecture::all() {
            let p = ModelProfile::for_architecture(arch);
            assert!(
                p.feature_bytes_per_sample * 64.0 < p.full_model_bytes,
                "{arch:?}"
            );
        }
    }
}
