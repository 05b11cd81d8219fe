//! Experiment configuration.

pub use crate::sfl::server::ShardTopology;
use mergesfl_data::DatasetKind;
use mergesfl_nn::env::{integer, parsed, setting, switch};
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
    /// Charge simulated time with the pipelined schedule — iteration `h+1` worker compute
    /// overlapping iteration `h`'s PS ingress and top-model step — instead of the barrier
    /// sum. A clock schedule only: every round executes the same way either way, so model
    /// trajectories are bit-identical and only the simulated round times (lower when
    /// pipelined) differ. Both makespans are recorded every round. Barrier is the default;
    /// `with_env_overrides` reads `MERGESFL_PIPELINE`.
    pub pipeline: bool,
    /// Which compute-kernel backend runs the NN hot path (blocked GEMM/conv panels by default,
    /// or the naive loop-nest oracle). Applied process-wide by `experiment::run`;
    /// `with_env_overrides` reads `MERGESFL_KERNELS`.
    pub kernel_backend: KernelBackend,
    /// GEMM micro-kernel override: force one of the runtime's kernels (`portable`, `avx`,
    /// `avx512`, `avx512w`) instead of auto-selecting the widest the host supports.
    /// Kernels the host cannot run fall back to portable. Pure performance control — every
    /// kernel is bit-identical. Applied process-wide by `experiment::run`;
    /// `with_env_overrides` reads `MERGESFL_MICROKERNEL`.
    pub micro_kernel: Option<MicroKernelId>,
    /// Tiling-scheme override applied on top of the runtime's per-shape selection for
    /// packed GEMMs: cache partition (`mc`/`kc`/`nc`) and register tile. Pure performance
    /// control — every scheme is bit-identical. Applied process-wide by
    /// `experiment::run`; `with_env_overrides` reads `MERGESFL_TILING`
    /// (`mc=..,kc=..,nc=..,tile=MRxNR`).
    pub tiling: TilingOverride,
    /// Whether tensor storage and kernel scratch check pages out of the size-classed
    /// memory pool (`mergesfl_nn::pool`) instead of allocating. Pooling changes where
    /// buffers live, never their contents — trajectories are bit-identical either way.
    /// On by default. Applied process-wide by `experiment::run`; `with_env_overrides`
    /// reads `MERGESFL_TENSOR_POOL`.
    pub tensor_pool: bool,
    /// Number of parameter-server instances the top model is sharded across. With 1 (the
    /// default) the engine is the single-server loop; with more, the layout is decided by
    /// [`RunConfig::topology`]: replicated shards each train a full replica on the cohort
    /// members routed to them (averaged every [`RunConfig::sync_every`] rounds), while
    /// under output partitioning the count (capped at the class count) only sets the
    /// simulated clock and traffic of one exact top model. Either way the planner budgets
    /// the cohort against the aggregate `S·B^h` ingress capacity. `with_env_overrides`
    /// reads `MERGESFL_NUM_SERVERS`.
    pub num_servers: usize,
    /// Cross-shard synchronisation period in rounds: shard replicas of the top model are
    /// averaged (weighted by samples processed since the last sync) at the end of every
    /// `sync_every`-th round. Irrelevant when `num_servers == 1` or under the
    /// output-partitioned topology (which has no replica state to synchronise).
    /// `with_env_overrides` reads `MERGESFL_SYNC_EVERY`.
    pub sync_every: usize,
    /// How the top model is laid out across the `num_servers` parameter-server instances:
    /// `Replicated` (each shard trains a full replica on its routed uploads, periodically
    /// averaged) or `OutputPartitioned` — a timing and traffic model over one top model:
    /// the trajectory is the single server's, while each instance is charged `1/S` of the
    /// server step plus a per-iteration activation exchange on the server interconnect.
    /// `with_env_overrides` reads `MERGESFL_TOPOLOGY`.
    pub topology: ShardTopology,
    /// Bounded-staleness window `k`: each top-model shard may compute its split-layer
    /// gradients on parameter state up to `k` optimizer steps older than the state the
    /// update is applied to, letting round `h+1` planning/broadcast overlap round `h`
    /// aggregation and cross-shard sync. `0` (the default) is the synchronous loop and
    /// stays trajectory-bit-identical to the barrier oracle; `k > 0` deliberately breaks
    /// bit-identity and is validated statistically by the `tests/convergence.rs`
    /// harness. `with_env_overrides` reads `MERGESFL_STALENESS`.
    pub staleness: usize,
    /// Registered fleet size: how many clients the control plane knows about. `None`
    /// (the default) registers exactly `num_workers` clients — the classic fixed-cohort
    /// regime, bit-identical to runs from before the fleet axis existed. `Some(F)` with
    /// `F > num_workers` switches the run onto the event-driven fleet path: `F` clients
    /// share the `num_workers` data shards (client `c` holds shard `c % num_workers`),
    /// per-round memory and planning work scale with the active cohort, and cohort
    /// members are materialised on demand. `with_env_overrides` reads `MERGESFL_FLEET`.
    pub fleet: Option<usize>,
    /// Client availability churn: when on, each registered client's availability follows
    /// a deterministic diurnal wave (per-client phase) and selected clients may drop out
    /// mid-round, feeding the engines' degenerate-cohort handling. Off by default — and
    /// off is a hard no-op, preserving bit-identity with pre-churn trajectories.
    /// `with_env_overrides` reads `MERGESFL_CHURN`.
    pub churn: bool,
    /// Diurnal availability-wave period in rounds (48 by default).
    pub churn_period: usize,
    /// Floor of the availability probability (the wave's trough), in (0, 1] (0.6 by
    /// default).
    pub churn_min_availability: f64,
    /// Probability that a selected client drops out mid-round, in [0, 1) (0.05 by
    /// default).
    pub churn_dropout: f64,
}

impl RunConfig {
    /// Full-scale configuration mirroring the paper's setup for a dataset (80 workers and
    /// the paper's round budget). Heavy — intended for the figure-regeneration binaries.
    /// Every knob below the seed is at its documented default; the presets read nothing.
    pub fn paper(dataset: DatasetKind, non_iid_level: f32, seed: u64) -> Self {
        Self {
            dataset,
            non_iid_level,
            num_workers: 80,
            rounds: dataset.spec().paper_rounds,
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
            pipeline: false,
            kernel_backend: KernelBackend::Blocked,
            micro_kernel: None,
            tiling: TilingOverride::default(),
            tensor_pool: true,
            num_servers: 1,
            sync_every: 1,
            topology: ShardTopology::Replicated,
            staleness: 0,
            fleet: None,
            churn: false,
            churn_period: 48,
            churn_min_availability: 0.6,
            churn_dropout: 0.05,
        }
    }

    /// A scaled-down configuration that keeps the experimental structure (heterogeneous
    /// cluster, selection, regulation) but finishes in seconds on one CPU core. Used by the
    /// default bench binaries, the examples and the integration tests.
    pub fn quick(dataset: DatasetKind, non_iid_level: f32, seed: u64) -> Self {
        Self {
            num_workers: 20,
            rounds: 12,
            local_iterations: Some(4),
            max_batch: 16,
            uniform_batch: 8,
            participants_per_round: 6,
            ps_ingress_mean_mbps: 150.0,
            eval_every: 2,
            eval_samples: 200,
            train_size: Some(1200),
            ..Self::paper(dataset, non_iid_level, seed)
        }
    }

    /// A configuration sized between [`RunConfig::quick`] and [`RunConfig::paper`], used by
    /// the figure-regeneration binaries by default.
    pub fn standard(dataset: DatasetKind, non_iid_level: f32, seed: u64) -> Self {
        Self {
            num_workers: 40,
            rounds: 30,
            local_iterations: Some(6),
            max_batch: 24,
            uniform_batch: 12,
            participants_per_round: 8,
            ps_ingress_mean_mbps: 200.0,
            eval_every: 3,
            eval_samples: 300,
            train_size: Some(2000),
            ..Self::paper(dataset, non_iid_level, seed)
        }
    }

    /// Applies the `MERGESFL_*` run knobs (the table in `mergesfl_nn::env`) on top of a
    /// preset: the one place a run configuration reads the environment, called only by
    /// the figure binaries and the examples. An unset or empty knob keeps its field; any
    /// other value must parse, or this panics naming the knob and its accepted values.
    pub fn with_env_overrides(mut self) -> Self {
        let c = &mut self;
        c.pipeline = switch("MERGESFL_PIPELINE").unwrap_or(c.pipeline);
        c.tensor_pool = switch("MERGESFL_TENSOR_POOL").unwrap_or(c.tensor_pool);
        c.churn = switch("MERGESFL_CHURN").unwrap_or(c.churn);
        c.num_servers = integer("MERGESFL_NUM_SERVERS", 1).unwrap_or(c.num_servers);
        c.sync_every = integer("MERGESFL_SYNC_EVERY", 1).unwrap_or(c.sync_every);
        c.staleness = integer("MERGESFL_STALENESS", 0).unwrap_or(c.staleness);
        c.fleet = integer("MERGESFL_FLEET", 1).or(c.fleet);
        let backends = "blocked, naive";
        let backend = parsed("MERGESFL_KERNELS", backends, KernelBackend::from_name);
        c.kernel_backend = backend.unwrap_or(c.kernel_backend);
        let micros = "portable, avx, avx512, avx512w";
        let micro = parsed("MERGESFL_MICROKERNEL", micros, MicroKernelId::from_name);
        c.micro_kernel = micro.or(c.micro_kernel);
        let topologies = "replicated, partitioned, output-partitioned";
        let topology = parsed("MERGESFL_TOPOLOGY", topologies, ShardTopology::parse);
        c.topology = topology.unwrap_or(c.topology);
        if let Some(spec) = setting("MERGESFL_TILING") {
            c.tiling = TilingOverride::parse(&spec).unwrap_or_else(|msg| {
                panic!("{msg}; accepted: comma-separated mc=N, kc=N, nc=N, tile=MRxNR")
            });
        }
        self
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
    use mergesfl_nn::kernels::ALL_MICRO_KERNELS;
    use std::panic::{catch_unwind, UnwindSafe};
    use std::sync::Mutex;

    /// Environment variables are process-global; the tests that export knobs take turns.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    /// Runs `read` with the `KNOB=value` pairs of `line` exported, then removes them, also
    /// when `read` panics.
    fn exported<T>(line: &str, read: impl FnOnce() -> T + UnwindSafe) -> T {
        let _lock = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let knobs: Vec<_> = line
            .split(' ')
            .filter_map(|kv| kv.split_once('='))
            .collect();
        knobs.iter().for_each(|(k, v)| std::env::set_var(k, v));
        let result = catch_unwind(read);
        knobs.iter().for_each(|(k, _)| std::env::remove_var(k));
        result.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }

    /// `quick` with the knobs of `line` exported while the overlay reads them.
    fn overlay(line: &str) -> RunConfig {
        exported(line, || {
            RunConfig::quick(DatasetKind::Har, 0.0, 1).with_env_overrides()
        })
    }

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
        let c = RunConfig::quick(DatasetKind::Har, 0.0, 1);
        assert_eq!((c.num_servers, c.sync_every), (1, 1));
        assert_eq!(c.topology, ShardTopology::Replicated);
        for (servers, sync) in [(1, 1), (4, 1), (4, 3)] {
            let mut c = c.clone();
            c.num_servers = servers;
            c.sync_every = sync;
            c.validate();
        }
    }

    #[test]
    fn any_staleness_window_validates() {
        assert_eq!(RunConfig::quick(DatasetKind::Har, 0.0, 1).staleness, 0);
        for k in [0, 1, 2, 4, 16] {
            let mut c = RunConfig::quick(DatasetKind::Har, 0.0, 1);
            c.staleness = k;
            c.validate();
        }
    }

    #[test]
    fn named_knobs_read_unset_empty_and_every_accepted_name() {
        let preset = format!("{:?}", RunConfig::quick(DatasetKind::Har, 0.0, 1));
        for unset_or_empty in ["", "MERGESFL_KERNELS= MERGESFL_TILING= MERGESFL_TOPOLOGY="] {
            assert_eq!(format!("{:?}", overlay(unset_or_empty)), preset);
        }
        for backend in [KernelBackend::Blocked, KernelBackend::Naive] {
            let name = backend.name().to_uppercase();
            let c = overlay(&format!("MERGESFL_KERNELS={name}"));
            assert_eq!(c.kernel_backend, backend);
        }
        for id in ALL_MICRO_KERNELS {
            let name = id.name().to_uppercase();
            let c = overlay(&format!("MERGESFL_MICROKERNEL={name}"));
            assert_eq!(c.micro_kernel, Some(id));
        }
        for (name, want) in [
            ("replicated", ShardTopology::Replicated),
            ("partitioned", ShardTopology::OutputPartitioned),
            ("output-partitioned", ShardTopology::OutputPartitioned),
        ] {
            let c = overlay(&format!("MERGESFL_TOPOLOGY={name}"));
            assert_eq!(c.topology, want);
        }
        let tiling = overlay("MERGESFL_TILING=mc=96,tile=16x8").tiling;
        assert_eq!(tiling, TilingOverride::parse("mc=96,tile=16x8").unwrap());
    }

    #[test]
    fn a_bad_knob_value_panics_naming_the_knob() {
        let bad = "MERGESFL_STALENESS=two MERGESFL_NUM_SERVERS=0 MERGESFL_SYNC_EVERY=x \
                   MERGESFL_FLEET=-1 MERGESFL_CHURN=yes MERGESFL_TENSOR_POOL=of \
                   MERGESFL_KERNELS=naiv MERGESFL_MICROKERNEL=avx2 MERGESFL_PIPELINE=yes \
                   MERGESFL_TOPOLOGY=partitoned MERGESFL_TILING=mc=96,stages=1";
        for knob in bad.split(' ') {
            let panic = catch_unwind(|| overlay(knob)).expect_err(knob);
            let message = panic.downcast_ref::<String>().expect("a formatted panic");
            let (name, _) = knob.split_once('=').unwrap();
            assert!(message.starts_with(name), "{message}");
        }
    }

    #[test]
    fn presets_read_nothing_and_the_overlay_moves_every_run_knob() {
        let preset = format!("{:?}", RunConfig::quick(DatasetKind::Har, 0.0, 1));
        let every_knob = "MERGESFL_PIPELINE=on MERGESFL_KERNELS=naive \
                          MERGESFL_MICROKERNEL=portable MERGESFL_TILING=mc=64 \
                          MERGESFL_TENSOR_POOL=off MERGESFL_NUM_SERVERS=4 MERGESFL_SYNC_EVERY=2 \
                          MERGESFL_STALENESS=3 MERGESFL_TOPOLOGY=partitioned \
                          MERGESFL_FLEET=1000 MERGESFL_CHURN=on";
        let (quick, c) = exported(every_knob, || {
            let quick = RunConfig::quick(DatasetKind::Har, 0.0, 1);
            (format!("{quick:?}"), quick.with_env_overrides())
        });
        assert_eq!(quick, preset, "a preset read the environment");
        assert!(c.pipeline && !c.tensor_pool && c.churn);
        assert_eq!(c.kernel_backend, KernelBackend::Naive);
        assert_eq!(c.micro_kernel, Some(MicroKernelId::Portable));
        assert_eq!(c.tiling.mc, Some(64));
        assert_eq!((c.num_servers, c.sync_every, c.staleness), (4, 2, 3));
        assert_eq!(
            (c.topology, c.fleet),
            (ShardTopology::OutputPartitioned, Some(1000))
        );
        c.validate();
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
        let mut c = RunConfig::quick(DatasetKind::Har, 0.0, 1);
        assert_eq!((c.fleet, c.churn), (None, false));
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
