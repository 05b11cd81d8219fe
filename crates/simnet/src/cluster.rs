//! The assembled heterogeneous edge cluster.
//!
//! Reproduces the paper's testbed composition: 80 Jetson devices (30 TX2, 40 NX, 10 AGX)
//! split into four groups of 20 placed at 2 m / 8 m / 14 m / 20 m from their WiFi routers.
//! Device performance modes are re-drawn every 20 communication rounds; per-worker bandwidth
//! is re-drawn every round. Scaling to other cluster sizes (the paper's Fig. 12 uses 100–400
//! simulated workers) keeps the same 3:4:1 device-kind mix and round-robin distance groups.

use crate::bandwidth::{mbps_to_bytes_per_sec, BandwidthModel, DistanceGroup};
use crate::device::{mode_at_epoch, DeviceKind};
use crate::profile::ModelProfile;
use mergesfl_nn::rng::derive_seed;
use serde::{Deserialize, Serialize};

/// Device kinds assigned round-robin over this pattern: 3 TX2, 4 NX, 1 AGX per block of 8,
/// i.e. the paper's 30:40:10 mix for any multiple-of-8 fleet.
const KIND_PATTERN: [DeviceKind; 8] = [
    DeviceKind::JetsonTx2,
    DeviceKind::JetsonNx,
    DeviceKind::JetsonNx,
    DeviceKind::JetsonTx2,
    DeviceKind::JetsonNx,
    DeviceKind::JetsonAgx,
    DeviceKind::JetsonTx2,
    DeviceKind::JetsonNx,
];

/// How often device performance modes are re-drawn (in communication rounds), as in the paper.
pub const MODE_SWITCH_PERIOD: usize = 20;

/// Configuration of a simulated cluster.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Total number of workers.
    pub num_workers: usize,
    /// Mean parameter-server ingress bandwidth budget in Mb/s.
    pub ps_ingress_mean_mbps: f64,
    /// RNG seed controlling device modes and bandwidth draws.
    pub seed: u64,
}

impl ClusterConfig {
    /// The paper's default 80-device testbed.
    pub fn paper_testbed(seed: u64) -> Self {
        Self {
            num_workers: 80,
            ps_ingress_mean_mbps: 300.0,
            seed,
        }
    }

    /// A smaller cluster for quick experiments and tests.
    pub fn small(num_workers: usize, seed: u64) -> Self {
        Self {
            num_workers,
            ps_ingress_mean_mbps: 150.0,
            seed,
        }
    }
}

/// Snapshot of one worker's true (simulator-side) state in a round. The control module does
/// not see this directly; it sees the noisy/lagged observations it collects from workers.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkerState {
    /// Worker identifier.
    pub worker_id: usize,
    /// Which Jetson kit the worker is.
    pub kind: DeviceKind,
    /// Current performance mode.
    pub mode: usize,
    /// Computing time per sample for the worker-side (bottom) model, seconds.
    pub bottom_compute_per_sample: f64,
    /// Computing time per sample for the full model (FL baselines), seconds.
    pub full_compute_per_sample: f64,
    /// Bandwidth to the PS this round, Mb/s.
    pub bandwidth_mbps: f64,
    /// Transfer time per sample (feature up + gradient down), seconds.
    pub transfer_per_sample: f64,
}

/// The simulated cluster.
///
/// Stores **no per-worker state**: a worker's device kind and distance group are arithmetic
/// functions of its id, its performance mode is lazily re-derived from the current round's
/// mode epoch (see [`mode_at_epoch`]), and its bandwidth is a pure per-(worker, round) draw.
/// Memory is O(1) in the fleet size, which is what lets a registered fleet of 10^5–10^6
/// clients coexist with per-round work that only touches the active cohort.
pub struct Cluster {
    num_workers: usize,
    seed: u64,
    bandwidth: BandwidthModel,
    profile: ModelProfile,
    current_round: usize,
}

impl Cluster {
    /// Builds a cluster for a given model profile.
    ///
    /// Device kinds follow the paper's 30:40:10 TX2/NX/AGX ratio (i.e. 3:4:1), assigned
    /// round-robin so any prefix of workers keeps roughly the same mix; distance groups
    /// cycle through the four placements, giving groups of equal size.
    pub fn new(config: &ClusterConfig, profile: ModelProfile) -> Self {
        assert!(config.num_workers > 0, "Cluster: need at least one worker");
        let bandwidth = BandwidthModel::new(
            config.ps_ingress_mean_mbps,
            derive_seed(config.seed, 0xBA4D),
        );
        Self {
            num_workers: config.num_workers,
            seed: config.seed,
            bandwidth,
            profile,
            current_round: 0,
        }
    }

    /// Number of workers in the cluster.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// The model profile used for timing/traffic accounting.
    pub fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    /// Advances the cluster to round `round`.
    ///
    /// Performance modes are re-drawn every [`MODE_SWITCH_PERIOD`] rounds; because the mode
    /// is derived from the round's epoch (`round / MODE_SWITCH_PERIOD`) rather than
    /// edge-triggered on the call sequence, skipping rounds lands on exactly the modes a
    /// contiguous replay would have (19 → 21 still switches once, 5 → 45 switches twice).
    pub fn begin_round(&mut self, round: usize) {
        self.current_round = round;
    }

    /// Which Jetson kit worker `worker_id` is (pure arithmetic on the id).
    pub fn device_kind(&self, worker_id: usize) -> DeviceKind {
        KIND_PATTERN[worker_id % KIND_PATTERN.len()]
    }

    /// The worker's current performance mode, derived lazily from the round's mode epoch.
    fn mode_of(&self, worker_id: usize) -> usize {
        mode_at_epoch(
            self.device_kind(worker_id),
            derive_seed(self.seed, worker_id as u64),
            self.current_round / MODE_SWITCH_PERIOD,
        )
    }

    /// Ground-truth state of one worker in the current round.
    pub fn worker_state(&self, worker_id: usize) -> WorkerState {
        assert!(
            worker_id < self.num_workers,
            "Cluster: worker {worker_id} out of range"
        );
        let kind = self.device_kind(worker_id);
        let mode = self.mode_of(worker_id);
        let bandwidth_mbps = self.worker_bandwidth_mbps(worker_id);
        WorkerState {
            worker_id,
            kind,
            mode,
            bottom_compute_per_sample: kind
                .compute_time_for_mode(mode, self.profile.bottom_gflop_per_sample),
            full_compute_per_sample: kind
                .compute_time_for_mode(mode, self.profile.full_gflop_per_sample),
            bandwidth_mbps,
            transfer_per_sample: BandwidthModel::transfer_time_per_sample(
                self.profile.feature_bytes_per_sample,
                bandwidth_mbps,
            ),
        }
    }

    /// Ground-truth state of every worker in the current round.
    pub fn all_worker_states(&self) -> Vec<WorkerState> {
        (0..self.num_workers())
            .map(|i| self.worker_state(i))
            .collect()
    }

    /// The PS ingress bandwidth budget `B^h` for the current round, in bytes per second.
    pub fn ps_ingress_budget(&self) -> f64 {
        self.bandwidth.ps_ingress_bytes_per_sec(self.current_round)
    }

    /// A worker's link bandwidth this round, Mb/s — the bandwidth-only query path.
    ///
    /// [`Cluster::worker_state`] reuses this; callers that only need the link speed (e.g.
    /// model-sync transfer accounting) avoid the mode replay and the two compute-time
    /// log-normal draws a full state query performs.
    pub fn worker_bandwidth_mbps(&self, worker_id: usize) -> f64 {
        assert!(
            worker_id < self.num_workers,
            "Cluster: worker {worker_id} out of range"
        );
        self.bandwidth.worker_mbps(
            worker_id,
            self.distance_group(worker_id),
            self.current_round,
        )
    }

    /// Time (seconds) to transfer `bytes` over a worker's current link.
    pub fn transfer_seconds(&self, worker_id: usize, bytes: f64) -> f64 {
        bytes / mbps_to_bytes_per_sec(self.worker_bandwidth_mbps(worker_id))
    }

    /// Seconds the parameter server spends on one top-model step over a merged batch of
    /// `total_batch` samples, at the architecture's server throughput (see
    /// [`ModelProfile::server_step_seconds`]).
    pub fn server_step_seconds(&self, total_batch: usize) -> f64 {
        self.profile.server_step_seconds(total_batch)
    }

    /// Seconds the parameter server spends folding one worker's full-model state into the
    /// FedAvg aggregate (full-model FL rounds).
    pub fn aggregate_seconds_per_state(&self) -> f64 {
        self.profile.aggregate_seconds_per_state()
    }

    /// Distance group of a worker (pure arithmetic on the id: blocks of 4 cycle through
    /// the four placements, so equal-size groups at any multiple-of-16 fleet).
    pub fn distance_group(&self, worker_id: usize) -> DistanceGroup {
        let group_pattern = DistanceGroup::all();
        group_pattern[(worker_id / group_pattern.len().max(1)) % group_pattern.len()]
    }

    /// Composition of the cluster as (TX2, NX, AGX) counts, computed arithmetically from
    /// the kind pattern (3:4:1 per block of 8) — O(1) in the fleet size.
    pub fn composition(&self) -> (usize, usize, usize) {
        let blocks = self.num_workers / KIND_PATTERN.len();
        let mut tx2 = 3 * blocks;
        let mut nx = 4 * blocks;
        let mut agx = blocks;
        for kind in &KIND_PATTERN[..self.num_workers % KIND_PATTERN.len()] {
            match kind {
                DeviceKind::JetsonTx2 => tx2 += 1,
                DeviceKind::JetsonNx => nx += 1,
                DeviceKind::JetsonAgx => agx += 1,
            }
        }
        (tx2, nx, agx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mergesfl_nn::zoo::Architecture;

    fn paper_cluster() -> Cluster {
        Cluster::new(
            &ClusterConfig::paper_testbed(1),
            ModelProfile::for_architecture(Architecture::AlexNetLite),
        )
    }

    #[test]
    fn paper_testbed_composition_matches_30_40_10() {
        let cluster = paper_cluster();
        assert_eq!(cluster.num_workers(), 80);
        let (tx2, nx, agx) = cluster.composition();
        assert_eq!(tx2, 30);
        assert_eq!(nx, 40);
        assert_eq!(agx, 10);
    }

    #[test]
    fn distance_groups_are_balanced() {
        let cluster = paper_cluster();
        let mut counts = std::collections::BTreeMap::new();
        for i in 0..cluster.num_workers() {
            *counts
                .entry(format!("{:?}", cluster.distance_group(i)))
                .or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 4);
        for (_, c) in counts {
            assert_eq!(c, 20);
        }
    }

    #[test]
    fn worker_states_are_heterogeneous() {
        let mut cluster = paper_cluster();
        cluster.begin_round(0);
        let states = cluster.all_worker_states();
        let min = states
            .iter()
            .map(|s| s.bottom_compute_per_sample)
            .fold(f64::INFINITY, f64::min);
        let max = states
            .iter()
            .map(|s| s.bottom_compute_per_sample)
            .fold(0.0, f64::max);
        // The paper says capabilities can differ by more than tenfold.
        assert!(
            max / min > 10.0,
            "heterogeneity ratio {} too small",
            max / min
        );
    }

    #[test]
    fn modes_switch_every_twenty_rounds() {
        let mut cluster = paper_cluster();
        cluster.begin_round(0);
        let before: Vec<usize> = cluster.all_worker_states().iter().map(|s| s.mode).collect();
        // Rounds 1..19 must not change modes.
        for r in 1..20 {
            cluster.begin_round(r);
        }
        let mid: Vec<usize> = cluster.all_worker_states().iter().map(|s| s.mode).collect();
        assert_eq!(before, mid);
        cluster.begin_round(20);
        let after: Vec<usize> = cluster.all_worker_states().iter().map(|s| s.mode).collect();
        assert_ne!(before, after, "modes should change at round 20");
    }

    /// Regression for the edge-triggered mode-switch bug: advancing the cluster over a
    /// round gap must land on exactly the modes a contiguous round-by-round replay sees.
    /// The old `begin_round` only switched when called *at* a multiple of 20, so 19 → 21
    /// never switched and 5 → 45 switched once instead of twice.
    #[test]
    fn mode_switches_survive_round_skips() {
        let mut contiguous = paper_cluster();
        let modes_at = |cluster: &Cluster| -> Vec<usize> {
            cluster.all_worker_states().iter().map(|s| s.mode).collect()
        };

        let mut reference = Vec::new();
        for r in 0..=45 {
            contiguous.begin_round(r);
            reference.push(modes_at(&contiguous));
        }

        // 19 → 21 crosses the round-20 epoch boundary exactly once.
        let mut skipper = paper_cluster();
        skipper.begin_round(19);
        assert_eq!(modes_at(&skipper), reference[19]);
        skipper.begin_round(21);
        assert_eq!(modes_at(&skipper), reference[21]);
        assert_ne!(reference[19], reference[21]);

        // 5 → 45 crosses two boundaries; the modes must be two switches ahead, not one.
        let mut jumper = paper_cluster();
        jumper.begin_round(5);
        assert_eq!(modes_at(&jumper), reference[5]);
        jumper.begin_round(45);
        assert_eq!(modes_at(&jumper), reference[45]);
        assert_ne!(reference[45], reference[21]);
    }

    /// The bandwidth-only query must agree bitwise with the bandwidth a full worker-state
    /// query reports — it is the same draw, minus the compute-side work.
    #[test]
    fn bandwidth_only_query_matches_full_state() {
        let mut cluster = paper_cluster();
        for round in [0, 7, 20, 41] {
            cluster.begin_round(round);
            for w in [0, 1, 39, 79] {
                assert_eq!(
                    cluster.worker_bandwidth_mbps(w).to_bits(),
                    cluster.worker_state(w).bandwidth_mbps.to_bits()
                );
            }
        }
    }

    #[test]
    fn bottom_compute_is_cheaper_than_full_compute() {
        let mut cluster = paper_cluster();
        cluster.begin_round(3);
        for s in cluster.all_worker_states() {
            assert!(s.bottom_compute_per_sample < s.full_compute_per_sample);
            assert!(s.transfer_per_sample > 0.0);
            assert!((1.0..=30.0).contains(&s.bandwidth_mbps));
        }
    }

    #[test]
    fn scaling_preserves_device_mix() {
        let cluster = Cluster::new(
            &ClusterConfig::small(400, 9),
            ModelProfile::for_architecture(Architecture::AlexNetLite),
        );
        let (tx2, nx, agx) = cluster.composition();
        assert_eq!(tx2 + nx + agx, 400);
        // Same 3:4:1 proportions as the paper's testbed.
        assert_eq!(tx2, 150);
        assert_eq!(nx, 200);
        assert_eq!(agx, 50);
    }

    #[test]
    fn ingress_budget_is_positive_and_varies() {
        let mut cluster = paper_cluster();
        cluster.begin_round(0);
        let a = cluster.ps_ingress_budget();
        cluster.begin_round(1);
        let b = cluster.ps_ingress_budget();
        assert!(a > 0.0 && b > 0.0);
        assert_ne!(a, b);
    }

    #[test]
    fn server_stage_costs_scale_with_batch() {
        let cluster = paper_cluster();
        let small = cluster.server_step_seconds(8);
        let large = cluster.server_step_seconds(64);
        assert!(small > 0.0);
        assert!((large - 8.0 * small).abs() < 1e-12);
        assert!(cluster.aggregate_seconds_per_state() > 0.0);
    }

    #[test]
    fn transfer_seconds_scale_with_bytes() {
        let mut cluster = paper_cluster();
        cluster.begin_round(0);
        let one = cluster.transfer_seconds(0, 1_000_000.0);
        let two = cluster.transfer_seconds(0, 2_000_000.0);
        assert!((two - 2.0 * one).abs() < 1e-9);
    }

    /// Pins down that worker-state queries are pure reads: interrogating workers in a
    /// different order (here: reversed) must not perturb any state bit-for-bit. This is
    /// the property that lets the engine forbid hash-ordered iteration in the simulator —
    /// trajectory reproducibility only holds if query order can never leak into results.
    #[test]
    fn worker_state_queries_are_order_independent() {
        let mut forward = paper_cluster();
        let mut reversed = paper_cluster();
        forward.begin_round(3);
        reversed.begin_round(3);

        let n = forward.num_workers();
        let a: Vec<WorkerState> = (0..n).map(|i| forward.worker_state(i)).collect();
        let mut b: Vec<WorkerState> = (0..n).rev().map(|i| reversed.worker_state(i)).collect();
        b.reverse();

        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.worker_id, y.worker_id);
            assert_eq!(format!("{:?}", x.kind), format!("{:?}", y.kind));
            assert_eq!(x.mode, y.mode);
            // Bitwise, not approximate: the contract is bit-identity, not closeness.
            assert_eq!(
                x.bottom_compute_per_sample.to_bits(),
                y.bottom_compute_per_sample.to_bits()
            );
            assert_eq!(
                x.full_compute_per_sample.to_bits(),
                y.full_compute_per_sample.to_bits()
            );
            assert_eq!(x.bandwidth_mbps.to_bits(), y.bandwidth_mbps.to_bits());
            assert_eq!(
                x.transfer_per_sample.to_bits(),
                y.transfer_per_sample.to_bits()
            );
        }
    }
}
