//! The four training workloads and the hermetic configuration each one runs.
//!
//! `RunConfig::quick` fills fourteen fields from `MERGESFL_*` environment variables.
//! The benchmark's inputs may depend on nothing but `--workload` and `--seed`, so
//! [`hermetic_quick`] overwrites every one of them with its documented default and
//! [`apply_process_settings`] repeats the four process-wide setters `experiment::run`
//! applies, plus the thread pin.

use mergesfl::config::{KernelBackend, RunConfig, ShardTopology, TilingOverride};
use mergesfl::fl::{FlEngine, FlStrategy};
use mergesfl::sfl::{SflEngine, SflStrategy};
use mergesfl::RunResult;
use mergesfl_data::DatasetKind;

/// Non-IID level `p` every workload partitions with (the paper's hardest setting).
const NON_IID_LEVEL: f32 = 10.0;

/// Upper limit on the thread count of the multi-threaded twin runs of a traced run.
const MT_THREAD_CAP: usize = 4;

/// Which engine a workload drives, with its strategy preset.
#[derive(Clone, Copy)]
pub enum Approach {
    /// `sfl::SflEngine`.
    Sfl(SflStrategy),
    /// `fl::FlEngine`.
    Fl(FlStrategy),
}

/// Threads every workload's timed runs pin: one, so that neither worker fan-out nor
/// 2-stage GEMM staging runs and wall-clock is compute. What threading costs on this host
/// is measured by the traced run's twin runs at [`mt_threads`] (`engine.mt_speedup`,
/// `kernels.*`); as a timed workload of its own it spread 25 % from seed to seed on two
/// cores (README, "Why no multi-threaded workload"), wider than any bound can be.
pub const TIMED_THREADS: usize = 1;

/// One benchmark workload. `why` is the one-line reason recorded in `BENCHMARK.json`.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub approach: fn() -> Approach,
    pub dataset: DatasetKind,
    /// Overrides applied on top of [`hermetic_quick`].
    pub shape: fn(&mut RunConfig),
    /// Work of one round at seed 42, in trained-sample equivalents (see
    /// `measure::Trajectory::work`). Cohorts and batch sizes are drawn from the seed, so
    /// a round's work differs from seed to seed by up to a third; the `round_ms_*`
    /// metrics are wall-clock per unit of work times this constant, which makes them
    /// `run()` ÷ `rounds` at seed 42 and comparable at every other seed. Written as
    /// (trained samples + evaluations · 200 evaluated samples ÷ 3) ÷ rounds. A scale
    /// only: it stays as it is when a later change moves the trajectory.
    pub reference_work_per_round: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "cifar_merge_t1",
        why: "MergeSFL on CIFAR-10/AlexNet-lite at 1 thread: the quickstart shape; conv2d bottom forward+backward is ~78% of the round, so conv/GEMM work shows as pure compute",
        approach: || Approach::Sfl(SflStrategy::merge_sfl()),
        dataset: DatasetKind::Cifar10,
        shape: |c| c.rounds = 6,
        reference_work_per_round: (1124.0 + 4.0 * 200.0 / 3.0) / 6.0,
    },
    Workload {
        name: "speech_seq_t1",
        why: "LocFedMix-SL on Speech/CNN-S: bypasses conv2d, merging, regulation and KL selection; conv1d, small GEMMs and one top step per worker, so a gain for big merged batches that costs small ones shows",
        approach: || Approach::Sfl(SflStrategy::locfedmix_sl()),
        dataset: DatasetKind::Speech,
        shape: |c| c.rounds = 30,
        reference_work_per_round: (5760.0 + 16.0 * 200.0 / 3.0) / 30.0,
    },
    Workload {
        name: "har_fleet_t1",
        why: "MergeSFL on HAR/CNN-H over a 100000-client fleet with churn: lazy cohort materialisation, O(cohort log fleet) planning, 64-state aggregation; control overhead and memory have their largest share",
        approach: || Approach::Sfl(SflStrategy::merge_sfl()),
        dataset: DatasetKind::Har,
        shape: |c| {
            c.num_workers = 80;
            c.participants_per_round = 64;
            c.train_size = Some(4800);
            c.local_iterations = Some(2);
            c.eval_every = 3;
            c.fleet = Some(100_000);
            c.churn = true;
            c.rounds = 4;
        },
        reference_work_per_round: (7808.0 + 2.0 * 200.0 / 3.0) / 4.0,
    },
    Workload {
        name: "image100_fedavg_t1",
        why: "FedAvg on IMAGE-100/VGG16-lite: the second engine (fl.rs), full-model local SGD and full-state aggregation; shares every nn kernel with the SFL workloads and none of sfl::*",
        approach: || Approach::Fl(FlStrategy::fedavg()),
        dataset: DatasetKind::Image100,
        shape: |c| c.rounds = 8,
        reference_work_per_round: (1536.0 + 5.0 * 200.0 / 3.0) / 8.0,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `RunConfig::quick` with every environment-derived field set to its default.
fn hermetic_quick(dataset: DatasetKind, seed: u64) -> RunConfig {
    let mut c = RunConfig::quick(dataset, NON_IID_LEVEL, seed);
    c.pipeline = false;
    c.kernel_backend = KernelBackend::Blocked;
    c.micro_kernel = None;
    c.tiling = TilingOverride::default();
    c.tensor_pool = true;
    c.num_servers = 1;
    c.sync_every = 1;
    c.topology = ShardTopology::Replicated;
    c.staleness = 0;
    c.fleet = None;
    c.churn = false;
    c.churn_period = 48;
    c.churn_min_availability = 0.6;
    c.churn_dropout = 0.05;
    c
}

impl Workload {
    /// The complete configuration of this workload for a seed.
    pub fn config(&self, seed: u64) -> RunConfig {
        let mut c = hermetic_quick(self.dataset, seed);
        (self.shape)(&mut c);
        c
    }

    /// The oracle variant of `config`: the first `min(rounds, 3)` rounds on `backend`,
    /// without thread fan-out and without the tensor pool.
    pub fn oracle_config(&self, seed: u64, backend: KernelBackend) -> RunConfig {
        let mut c = self.config(seed);
        c.rounds = c.rounds.min(ORACLE_ROUNDS);
        c.kernel_backend = backend;
        c.parallel = false;
        c.tensor_pool = false;
        c
    }
}

/// Rounds the oracles run at most.
pub const ORACLE_ROUNDS: usize = 3;

/// Cores the operating system lets this process use (1 when it will not say).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The thread count a user gets by default on this host, capped: `min(nproc, 4)`.
pub fn mt_threads() -> usize {
    host_parallelism().min(MT_THREAD_CAP)
}

/// Applies a configuration's process-wide settings the way `mergesfl::experiment::run`
/// does, then pins the fan-out width. Every engine construction in this benchmark goes
/// through [`construct`] right after a call to this.
pub fn apply_process_settings(config: &RunConfig, threads: usize) {
    mergesfl_nn::kernels::set_default_backend(config.kernel_backend);
    mergesfl_nn::kernels::set_micro_override(config.micro_kernel);
    mergesfl_nn::kernels::set_tiling_override(config.tiling);
    mergesfl_nn::pool::set_enabled(config.tensor_pool);
    rayon::set_num_threads(threads);
}

/// A constructed engine of either family, ready to run.
pub enum Engine {
    Sfl(Box<SflEngine>),
    Fl(Box<FlEngine>),
}

/// Builds the engine (the timed set-up: dataset synthesis, partition, registry, replicas).
pub fn construct(approach: Approach, config: &RunConfig) -> Engine {
    match approach {
        Approach::Sfl(strategy) => Engine::Sfl(Box::new(SflEngine::new(strategy, config))),
        Approach::Fl(strategy) => Engine::Fl(Box::new(FlEngine::new(strategy, config))),
    }
}

impl Engine {
    /// Runs every configured round (the timed operation).
    pub fn run(self) -> RunResult {
        match self {
            Engine::Sfl(engine) => engine.run(),
            Engine::Fl(engine) => engine.run(),
        }
    }
}
