//! Experiment configuration.

pub use crate::sfl::server::ShardTopology;
use mergesfl_data::DatasetKind;
/// The blessed environment-read helper: every `MERGESFL_*` knob is documented in
/// its module docs, and the `env-read` lint confines raw `std::env::var` there.
pub use mergesfl_nn::env;
pub use mergesfl_nn::kernels::{KernelBackend, MicroKernelId, TilingOverride};
use serde::{Deserialize, Serialize};

/// Configuration of one training run (one approach on one dataset at one non-IID level).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunConfig {
    /// Which dataset/task to train on.
    pub dataset: DatasetKind,
    /// Non-IID level `p = 1/δ` (0 = IID); the paper evaluates p ∈ {0, 1, 2, 4, 5, 10}.
    pub non_iid_level: f32,
    /// Number of workers in the cluster (the paper's testbed has 80).
    pub num_workers: usize,
    /// Number of communication rounds to run.
    pub rounds: usize,
    /// Local updating frequency τ (iterations per round). `None` uses the paper's default
    /// for the dataset.
    pub local_iterations: Option<usize>,
    /// Default maximum batch size `D` assigned to the fastest worker.
    pub max_batch: usize,
    /// Batch size used by approaches without batch-size regulation.
    pub uniform_batch: usize,
    /// Number of workers selected per round by approaches that select a fixed-size cohort
    /// (FedAvg, PyramidFL, and the upper bound for MergeSFL's genetic selection).
    pub participants_per_round: usize,
    /// KL threshold ε for MergeSFL's batch fine-tuning step.
    pub kl_epsilon: f32,
    /// Mean parameter-server ingress bandwidth budget in Mb/s.
    pub ps_ingress_mean_mbps: f64,
    /// Evaluate the global model every this many rounds.
    pub eval_every: usize,
    /// Maximum number of test samples used per evaluation (subsampled for speed).
    pub eval_samples: usize,
    /// Number of training samples to generate (`None` uses the dataset default).
    pub train_size: Option<usize>,
    /// Base RNG seed.
    pub seed: u64,
    /// Moving-average factor α for worker-state estimation (paper uses 0.8).
    pub estimate_alpha: f32,
    /// Fan per-round worker training out across OS threads. Runs are bit-identical to
    /// sequential execution: every worker owns an RNG derived from the base seed via
    /// `derive_seed`, and results are always reduced in cohort order.
    pub parallel: bool,
    /// Stage each round through a producer/consumer pipeline so iteration `h+1` worker
    /// compute overlaps iteration `h` server compute, and charge simulated time with the
    /// overlap-aware makespan instead of the barrier sum. Model trajectories are
    /// bit-identical to the barrier loop (updates are still applied in cohort/iteration
    /// order — only scheduling overlaps); simulated round times are lower. Constructors
    /// honour the `MERGESFL_PIPELINE` environment variable (`on`/`off`); the barrier loop
    /// remains the default and the correctness oracle.
    pub pipeline: bool,
    /// Which compute-kernel backend runs the NN hot path (blocked GEMM/conv panels by default,
    /// or the naive loop-nest oracle). Applied process-wide by `experiment::run`;
    /// constructors honour the `MERGESFL_KERNELS` environment variable.
    pub kernel_backend: KernelBackend,
    /// GEMM micro-kernel override: force one of the runtime's kernels (`portable`, `avx`,
    /// `avx512`) instead of auto-selecting the widest the host supports. Kernels the host
    /// cannot run fall back to portable. Pure performance control — every kernel is
    /// bit-identical. Applied process-wide by `experiment::run`; constructors honour the
    /// `MERGESFL_MICROKERNEL` environment variable.
    pub micro_kernel: Option<MicroKernelId>,
    /// Tiling-scheme override applied on top of the runtime's per-shape selection for
    /// packed GEMMs: cache partition (`mc`/`kc`/`nc`), staging (`stages=1|2`) and register
    /// tile. Pure performance control — every scheme is bit-identical. Applied
    /// process-wide by `experiment::run`; constructors honour the `MERGESFL_TILING`
    /// environment variable (`mc=..,kc=..,nc=..,stages=..,tile=MRxNR`).
    pub tiling: TilingOverride,
    /// Whether tensor storage and kernel scratch check pages out of the size-classed
    /// memory pool (`mergesfl_nn::pool`) instead of allocating. Pooling changes where
    /// buffers live, never their contents — trajectories are bit-identical either way.
    /// Applied process-wide by `experiment::run`; constructors honour the
    /// `MERGESFL_TENSOR_POOL` environment variable (`off` disables; default on).
    pub tensor_pool: bool,
    /// Number of parameter-server instances the top model is sharded across. With 1 (the
    /// default) the engine is the single-server loop; with more, the layout is decided by
    /// [`RunConfig::topology`]: replicated shards each train a full replica on the cohort
    /// members routed to them (averaged every [`RunConfig::sync_every`] rounds), while
    /// under output partitioning the count (capped at the class count) only sets the
    /// simulated clock and traffic of one exact top model. Either way the planner budgets
    /// the cohort against the aggregate `S·B^h` ingress capacity. Constructors honour the
    /// `MERGESFL_NUM_SERVERS` environment variable.
    pub num_servers: usize,
    /// Cross-shard synchronisation period in rounds: shard replicas of the top model are
    /// averaged (weighted by samples processed since the last sync) at the end of every
    /// `sync_every`-th round. Irrelevant when `num_servers == 1` or under the
    /// output-partitioned topology (which has no replica state to synchronise).
    /// Constructors honour the `MERGESFL_SYNC_EVERY` environment variable.
    pub sync_every: usize,
    /// How the top model is laid out across the `num_servers` parameter-server instances:
    /// `Replicated` (each shard trains a full replica on its routed uploads, periodically
    /// averaged) or `OutputPartitioned` — a timing and traffic model over one top model:
    /// the trajectory is the single server's, while each instance is charged `1/S` of the
    /// server step plus a per-iteration activation exchange on the server interconnect.
    /// Constructors honour the `MERGESFL_TOPOLOGY` environment variable (`replicated` /
    /// `partitioned`; any other non-empty value panics).
    pub topology: ShardTopology,
    /// Bounded-staleness window `k`: each top-model shard may compute its split-layer
    /// gradients on parameter state up to `k` optimizer steps older than the state the
    /// update is applied to, letting round `h+1` planning/broadcast overlap round `h`
    /// aggregation and cross-shard sync. `0` (the default) is the synchronous loop and
    /// stays trajectory-bit-identical to the barrier oracle; `k > 0` deliberately breaks
    /// bit-identity and is validated statistically by the `tests/convergence.rs`
    /// harness. Constructors honour the `MERGESFL_STALENESS` environment variable.
    pub staleness: usize,
    /// Registered fleet size: how many clients the control plane knows about. `None`
    /// (the default) registers exactly `num_workers` clients — the classic fixed-cohort
    /// regime, bit-identical to runs from before the fleet axis existed. `Some(F)` with
    /// `F > num_workers` switches the run onto the event-driven fleet path: `F` clients
    /// share the `num_workers` data shards (client `c` holds shard `c % num_workers`),
    /// per-round memory and planning work scale with the active cohort, and cohort
    /// members are materialised on demand. Constructors honour the `MERGESFL_FLEET`
    /// environment variable.
    pub fleet: Option<usize>,
    /// Client availability churn: when on, each registered client's availability follows
    /// a deterministic diurnal wave (per-client phase) and selected clients may drop out
    /// mid-round, feeding the engines' degenerate-cohort handling. Off by default — and
    /// off is a hard no-op, preserving bit-identity with pre-churn trajectories.
    /// Constructors honour the `MERGESFL_CHURN` environment variable (`on`/`off`).
    pub churn: bool,
    /// Diurnal availability-wave period in rounds. Constructors honour
    /// `MERGESFL_CHURN_PERIOD`.
    pub churn_period: usize,
    /// Floor of the availability probability (the wave's trough), in (0, 1].
    /// Constructors honour `MERGESFL_CHURN_MIN_AVAIL`.
    pub churn_min_availability: f64,
    /// Probability that a selected client drops out mid-round, in [0, 1). Constructors
    /// honour `MERGESFL_CHURN_DROPOUT`.
    pub churn_dropout: f64,
}

/// Reads the pipelined-execution default from the `MERGESFL_PIPELINE` environment
/// variable: `on`/`1`/`true` enable it, anything else (or unset) keeps the barrier loop.
pub fn pipeline_from_env() -> bool {
    env::flag_on("MERGESFL_PIPELINE")
}

/// Reads the tensor-pool toggle from the `MERGESFL_TENSOR_POOL` environment variable;
/// the pool is on by default and `off`/`0`/`false` disables it (every checkout then
/// falls through to the heap — the bit-identical baseline the determinism tests
/// compare against).
pub fn tensor_pool_from_env() -> bool {
    !env::flag_off("MERGESFL_TENSOR_POOL")
}

/// Reads the top-model shard count from the `MERGESFL_NUM_SERVERS` environment variable;
/// unset, empty or unparsable values keep the single-server default of 1.
pub fn num_servers_from_env() -> usize {
    env::parsed::<usize>("MERGESFL_NUM_SERVERS")
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// Reads the cross-shard sync period from the `MERGESFL_SYNC_EVERY` environment variable;
/// unset, empty or unparsable values sync every round.
pub fn sync_every_from_env() -> usize {
    env::parsed::<usize>("MERGESFL_SYNC_EVERY")
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// Reads the bounded-staleness window from the `MERGESFL_STALENESS` environment variable;
/// unset, empty or unparsable values keep the synchronous default of 0.
pub fn staleness_from_env() -> usize {
    env::parsed::<usize>("MERGESFL_STALENESS").unwrap_or(0)
}

/// Reads the registered-fleet size from the `MERGESFL_FLEET` environment variable;
/// unset, empty, zero or unparsable values keep the classic `None` (fleet == workers).
pub fn fleet_from_env() -> Option<usize> {
    env::parsed::<usize>("MERGESFL_FLEET").filter(|&n| n >= 1)
}

/// Reads the availability-churn toggle from the `MERGESFL_CHURN` environment variable:
/// `on`/`1`/`true` enable it, anything else (or unset) keeps churn off.
pub fn churn_from_env() -> bool {
    env::flag_on("MERGESFL_CHURN")
}

/// Reads the churn wave period (rounds) from `MERGESFL_CHURN_PERIOD`; unset, empty,
/// zero or unparsable values keep the default of 48 rounds per cycle.
pub fn churn_period_from_env() -> usize {
    env::parsed::<usize>("MERGESFL_CHURN_PERIOD")
        .filter(|&n| n >= 1)
        .unwrap_or(48)
}

/// Reads the availability floor from `MERGESFL_CHURN_MIN_AVAIL`; values outside (0, 1]
/// (or unset/unparsable) keep the default floor of 0.6.
pub fn churn_min_availability_from_env() -> f64 {
    env::parsed::<f64>("MERGESFL_CHURN_MIN_AVAIL")
        .filter(|&v| v > 0.0 && v <= 1.0)
        .unwrap_or(0.6)
}

/// Reads the mid-round dropout probability from `MERGESFL_CHURN_DROPOUT`; values outside
/// [0, 1) (or unset/unparsable) keep the default of 0.05.
pub fn churn_dropout_from_env() -> f64 {
    env::parsed::<f64>("MERGESFL_CHURN_DROPOUT")
        .filter(|&v| (0.0..1.0).contains(&v))
        .unwrap_or(0.05)
}

/// Reads the GEMM micro-kernel override from the `MERGESFL_MICROKERNEL` environment
/// variable (`portable` / `avx` / `avx512`); unset, empty or unknown values keep
/// auto-selection.
pub fn micro_kernel_from_env() -> Option<MicroKernelId> {
    mergesfl_nn::env::var("MERGESFL_MICROKERNEL").and_then(|v| MicroKernelId::from_name(v.trim()))
}

/// Reads the tiling-scheme override from the `MERGESFL_TILING` environment variable;
/// unset or malformed specs keep per-shape auto-selection (malformed specs are also
/// reported by the kernel runtime itself).
pub fn tiling_from_env() -> TilingOverride {
    mergesfl_nn::env::var("MERGESFL_TILING")
        .and_then(|v| TilingOverride::parse(&v).ok())
        .unwrap_or_default()
}

/// Reads the server topology from the `MERGESFL_TOPOLOGY` environment variable; see
/// `parse_topology_setting`.
pub fn topology_from_env() -> ShardTopology {
    // Qualified path: the env-read lint treats a bare `env::var` as a raw read
    // (it cannot see imports), so helper calls spell the crate out.
    parse_topology_setting(mergesfl_nn::env::var("MERGESFL_TOPOLOGY").as_deref())
}

/// Parses a `MERGESFL_TOPOLOGY` setting. Unset or empty means replicated; any other value
/// must name a topology (`replicated`, `partitioned` / `output-partitioned`) — a mistyped
/// one panics instead of silently running the default layout.
fn parse_topology_setting(setting: Option<&str>) -> ShardTopology {
    match setting.map(str::trim) {
        None | Some("") => ShardTopology::default(),
        Some(name) => ShardTopology::parse(name).unwrap_or_else(|| {
            panic!(
                "MERGESFL_TOPOLOGY={name:?} is not a server topology; \
                 accepted values: replicated, partitioned, output-partitioned"
            )
        }),
    }
}

impl RunConfig {
    /// Full-scale configuration mirroring the paper's setup for a dataset (80 workers and
    /// the paper's round budget). Heavy — intended for the figure-regeneration binaries.
    pub fn paper(dataset: DatasetKind, non_iid_level: f32, seed: u64) -> Self {
        let spec = dataset.spec();
        Self {
            dataset,
            non_iid_level,
            num_workers: 80,
            rounds: spec.paper_rounds,
            local_iterations: None,
            max_batch: 32,
            uniform_batch: 16,
            participants_per_round: 10,
            kl_epsilon: 0.05,
            ps_ingress_mean_mbps: 300.0,
            eval_every: 5,
            eval_samples: 400,
            train_size: None,
            seed,
            estimate_alpha: 0.8,
            parallel: true,
            pipeline: pipeline_from_env(),
            kernel_backend: KernelBackend::from_env(),
            micro_kernel: micro_kernel_from_env(),
            tiling: tiling_from_env(),
            tensor_pool: tensor_pool_from_env(),
            num_servers: num_servers_from_env(),
            sync_every: sync_every_from_env(),
            topology: topology_from_env(),
            staleness: staleness_from_env(),
            fleet: fleet_from_env(),
            churn: churn_from_env(),
            churn_period: churn_period_from_env(),
            churn_min_availability: churn_min_availability_from_env(),
            churn_dropout: churn_dropout_from_env(),
        }
    }

    /// A scaled-down configuration that keeps the experimental structure (heterogeneous
    /// cluster, selection, regulation) but finishes in seconds on one CPU core. Used by the
    /// default bench binaries, the examples and the integration tests.
    pub fn quick(dataset: DatasetKind, non_iid_level: f32, seed: u64) -> Self {
        Self {
            dataset,
            non_iid_level,
            num_workers: 20,
            rounds: 12,
            local_iterations: Some(4),
            max_batch: 16,
            uniform_batch: 8,
            participants_per_round: 6,
            kl_epsilon: 0.05,
            ps_ingress_mean_mbps: 150.0,
            eval_every: 2,
            eval_samples: 200,
            train_size: Some(1200),
            seed,
            estimate_alpha: 0.8,
            parallel: true,
            pipeline: pipeline_from_env(),
            kernel_backend: KernelBackend::from_env(),
            micro_kernel: micro_kernel_from_env(),
            tiling: tiling_from_env(),
            tensor_pool: tensor_pool_from_env(),
            num_servers: num_servers_from_env(),
            sync_every: sync_every_from_env(),
            topology: topology_from_env(),
            staleness: staleness_from_env(),
            fleet: fleet_from_env(),
            churn: churn_from_env(),
            churn_period: churn_period_from_env(),
            churn_min_availability: churn_min_availability_from_env(),
            churn_dropout: churn_dropout_from_env(),
        }
    }

    /// A configuration sized between [`RunConfig::quick`] and [`RunConfig::paper`], used by
    /// the figure-regeneration binaries by default.
    pub fn standard(dataset: DatasetKind, non_iid_level: f32, seed: u64) -> Self {
        Self {
            dataset,
            non_iid_level,
            num_workers: 40,
            rounds: 30,
            local_iterations: Some(6),
            max_batch: 24,
            uniform_batch: 12,
            participants_per_round: 8,
            kl_epsilon: 0.05,
            ps_ingress_mean_mbps: 200.0,
            eval_every: 3,
            eval_samples: 300,
            train_size: Some(2000),
            seed,
            estimate_alpha: 0.8,
            parallel: true,
            pipeline: pipeline_from_env(),
            kernel_backend: KernelBackend::from_env(),
            micro_kernel: micro_kernel_from_env(),
            tiling: tiling_from_env(),
            tensor_pool: tensor_pool_from_env(),
            num_servers: num_servers_from_env(),
            sync_every: sync_every_from_env(),
            topology: topology_from_env(),
            staleness: staleness_from_env(),
            fleet: fleet_from_env(),
            churn: churn_from_env(),
            churn_period: churn_period_from_env(),
            churn_min_availability: churn_min_availability_from_env(),
            churn_dropout: churn_dropout_from_env(),
        }
    }

    /// Effective local updating frequency τ for this run.
    pub fn tau(&self) -> usize {
        self.local_iterations
            .unwrap_or_else(|| self.dataset.spec().local_iterations)
    }

    /// Effective registered fleet size: the `fleet` override, or `num_workers`.
    pub fn fleet_size(&self) -> usize {
        self.fleet.unwrap_or(self.num_workers)
    }

    /// Whether this run uses the event-driven fleet path (more registered clients than
    /// data shards, or availability churn). When false, the engines run the classic
    /// dense loop, bit-identical to runs from before the fleet axis existed.
    pub fn fleet_mode(&self) -> bool {
        self.fleet_size() > self.num_workers || self.churn
    }

    /// The churn process this run's control plane consults (disabled unless `churn` is
    /// on). Seed stream 7 of the base seed, alongside the engines' streams 1–6.
    pub fn churn_model(&self) -> mergesfl_simnet::ChurnModel {
        if self.churn {
            mergesfl_simnet::ChurnModel::new(
                mergesfl_nn::rng::derive_seed(self.seed, 7),
                self.churn_period,
                self.churn_min_availability,
                self.churn_dropout,
            )
        } else {
            mergesfl_simnet::ChurnModel::disabled()
        }
    }

    /// Validates internal consistency; panics with a descriptive message on error.
    pub fn validate(&self) {
        assert!(self.num_workers > 0, "RunConfig: need at least one worker");
        assert!(self.rounds > 0, "RunConfig: need at least one round");
        assert!(self.max_batch > 0, "RunConfig: max batch must be positive");
        assert!(
            self.uniform_batch > 0,
            "RunConfig: uniform batch must be positive"
        );
        assert!(
            self.participants_per_round > 0 && self.participants_per_round <= self.num_workers,
            "RunConfig: participants_per_round must be in [1, num_workers]"
        );
        assert!(
            self.non_iid_level >= 0.0,
            "RunConfig: non-IID level must be non-negative"
        );
        assert!(
            self.kl_epsilon >= 0.0,
            "RunConfig: KL epsilon must be non-negative"
        );
        assert!(
            self.eval_every > 0,
            "RunConfig: eval_every must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&self.estimate_alpha),
            "RunConfig: alpha must be in [0, 1]"
        );
        assert!(
            self.num_servers >= 1,
            "RunConfig: need at least one parameter-server shard"
        );
        assert!(
            self.sync_every >= 1,
            "RunConfig: sync_every must be positive"
        );
        if let Some(fleet) = self.fleet {
            assert!(
                fleet >= self.num_workers,
                "RunConfig: fleet ({fleet}) must be at least num_workers ({})",
                self.num_workers
            );
        }
        assert!(
            self.churn_period >= 1,
            "RunConfig: churn_period must be at least one round"
        );
        assert!(
            self.churn_min_availability > 0.0 && self.churn_min_availability <= 1.0,
            "RunConfig: churn_min_availability must be in (0, 1]"
        );
        assert!(
            (0.0..1.0).contains(&self.churn_dropout),
            "RunConfig: churn_dropout must be in [0, 1)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_uses_paper_round_budget() {
        let c = RunConfig::paper(DatasetKind::Har, 10.0, 1);
        assert_eq!(c.rounds, 150);
        assert_eq!(c.num_workers, 80);
        assert_eq!(c.tau(), 10);
        c.validate();
    }

    #[test]
    fn quick_config_is_small_and_valid() {
        for kind in DatasetKind::all() {
            let c = RunConfig::quick(kind, 0.0, 2);
            assert!(c.rounds <= 20);
            assert!(c.num_workers <= 40);
            c.validate();
        }
    }

    #[test]
    fn tau_override_takes_precedence() {
        let mut c = RunConfig::paper(DatasetKind::Cifar10, 0.0, 3);
        assert_eq!(c.tau(), 30);
        c.local_iterations = Some(5);
        assert_eq!(c.tau(), 5);
    }

    #[test]
    #[should_panic(expected = "parameter-server shard")]
    fn validate_rejects_zero_servers() {
        let mut c = RunConfig::quick(DatasetKind::Har, 0.0, 1);
        c.num_servers = 0;
        c.validate();
    }

    #[test]
    fn server_topology_defaults_are_single_server_every_round() {
        // The test environment may pin MERGESFL_NUM_SERVERS/MERGESFL_SYNC_EVERY (the CI
        // matrix does); only assert the explicit single-shard setting validates and that
        // a multi-shard one does too.
        for (servers, sync) in [(1, 1), (4, 1), (4, 3)] {
            let mut c = RunConfig::quick(DatasetKind::Har, 0.0, 1);
            c.num_servers = servers;
            c.sync_every = sync;
            c.validate();
        }
    }

    #[test]
    fn any_staleness_window_validates() {
        // The test environment may pin MERGESFL_STALENESS (the CI matrix does); assert
        // explicit settings across the harness's sweep validate, including the
        // synchronous default.
        for k in [0, 1, 2, 4, 16] {
            let mut c = RunConfig::quick(DatasetKind::Har, 0.0, 1);
            c.staleness = k;
            c.validate();
        }
    }

    #[test]
    fn topology_setting_parses_the_accepted_names() {
        assert_eq!(parse_topology_setting(None), ShardTopology::Replicated);
        assert_eq!(parse_topology_setting(Some("")), ShardTopology::Replicated);
        assert_eq!(
            parse_topology_setting(Some("replicated")),
            ShardTopology::Replicated
        );
        assert_eq!(
            parse_topology_setting(Some("partitioned")),
            ShardTopology::OutputPartitioned
        );
        assert_eq!(
            parse_topology_setting(Some("output-partitioned")),
            ShardTopology::OutputPartitioned
        );
    }

    #[test]
    #[should_panic(expected = "accepted values: replicated, partitioned, output-partitioned")]
    fn mistyped_topology_setting_fails_loudly() {
        parse_topology_setting(Some("partitoned"));
    }

    #[test]
    #[should_panic(expected = "participants_per_round")]
    fn validate_rejects_too_many_participants() {
        let mut c = RunConfig::quick(DatasetKind::Har, 0.0, 1);
        c.participants_per_round = c.num_workers + 1;
        c.validate();
    }

    #[test]
    fn fleet_defaults_are_the_classic_regime() {
        // The test environment may pin MERGESFL_FLEET/MERGESFL_CHURN (the CI fleet cell
        // does); assert on explicit settings, not on what the constructor read.
        let mut c = RunConfig::quick(DatasetKind::Har, 0.0, 1);
        c.fleet = None;
        c.churn = false;
        assert_eq!(c.fleet_size(), c.num_workers);
        assert!(!c.fleet_mode());
        assert!(!c.churn_model().enabled());
        c.validate();

        c.fleet = Some(10_000);
        assert_eq!(c.fleet_size(), 10_000);
        assert!(c.fleet_mode());
        c.validate();

        c.fleet = None;
        c.churn = true;
        assert!(c.fleet_mode(), "churn alone must select the fleet path");
        assert!(c.churn_model().enabled());
        c.validate();
    }

    #[test]
    #[should_panic(expected = "fleet")]
    fn validate_rejects_fleet_smaller_than_workers() {
        let mut c = RunConfig::quick(DatasetKind::Har, 0.0, 1);
        c.fleet = Some(c.num_workers - 1);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "churn_dropout")]
    fn validate_rejects_certain_dropout() {
        let mut c = RunConfig::quick(DatasetKind::Har, 0.0, 1);
        c.churn_dropout = 1.0;
        c.validate();
    }
}
