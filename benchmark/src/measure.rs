//! The timed runs: one operation is one complete training run, engine construction
//! (set-up) followed by `run()`, closed loop on one driver thread, tracing off.

use crate::hash::trajectory_hash;
use crate::stats::median;
use crate::workloads::{apply_process_settings, construct, Workload, ORACLE_ROUNDS, TIMED_THREADS};
use mergesfl::config::KernelBackend;
use mergesfl::{RunConfig, RunResult};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Timed runs a workload always makes, however short `--seconds` is. Also the run after
/// which peak memory is read: resident memory grows with every run repeated in one
/// process, so a peak taken after a time-dependent number of runs would reward slowness.
pub const MIN_RUNS: usize = 8;

/// Relative distance within which the timed runs' losses must agree with the naive
/// backend's. The loop-nest kernels sum the conv input gradient's kernel taps in another
/// order than im2col/col2im does (`tests/kernel_parity.rs` holds that one reduction to a
/// few ULPs, everything else to bit equality), so whole trajectories drift apart by ULPs
/// per step; over the three-round prefix the drift measured is below 1e-6.
pub const NAIVE_LOSS_TOLERANCE: f32 = 1e-4;

/// How long to keep starting timed runs.
#[derive(Clone, Copy)]
pub enum Budget {
    /// Until this much wall-clock has been measured (the driver's `--seconds`).
    Time(Duration),
    /// Exactly this many runs (`--repeats`).
    Runs(usize),
}

/// `(train_loss bits, total_batch, participants)` of one round.
pub type RoundKey = (u32, usize, usize);

/// What one training run produced, reduced to what the benchmark checks.
pub struct Trajectory {
    pub hash: u64,
    pub final_accuracy: f32,
    /// The run's work in trained-sample equivalents: Σ over rounds of `total_batch · τ`
    /// trained samples, plus a third of a sample for each evaluated one — a trained
    /// sample is a forward and a backward pass, the backward costing two forwards, and
    /// an evaluated sample is a forward only. Cohorts and batch sizes are drawn from the
    /// seed, so wall-clock is only comparable across seeds per unit of this.
    pub work: f64,
    pub rounds: Vec<RoundKey>,
    pub all_finite: bool,
}

impl Trajectory {
    pub fn of(result: &RunResult, config: &RunConfig) -> Self {
        let trained: usize = result
            .records
            .iter()
            .map(|r| r.total_batch * config.tau())
            .sum();
        let eval_set = config.eval_samples.min(config.dataset.spec().test_size);
        let evaluations = result
            .records
            .iter()
            .filter(|r| r.accuracy.is_some())
            .count();
        Self {
            hash: trajectory_hash(&result.records),
            final_accuracy: result.final_accuracy(),
            work: trained as f64 + (eval_set * evaluations) as f64 / 3.0,
            rounds: result
                .records
                .iter()
                .map(|r| (r.train_loss.to_bits(), r.total_batch, r.participants))
                .collect(),
            all_finite: result.records.iter().all(|r| r.train_loss.is_finite()),
        }
    }
}

/// One timed operation.
struct TimedRun {
    setup_s: f64,
    run_s: f64,
    trajectory: Trajectory,
}

/// Constructs and runs a configuration once; `None` when the run panicked.
fn timed_run(workload: &Workload, config: &RunConfig) -> Option<TimedRun> {
    catch_unwind(AssertUnwindSafe(|| {
        let start = Instant::now();
        let engine = construct((workload.approach)(), config);
        let built = Instant::now();
        let result = std::hint::black_box(engine.run());
        let done = Instant::now();
        TimedRun {
            setup_s: (built - start).as_secs_f64(),
            run_s: (done - built).as_secs_f64(),
            trajectory: Trajectory::of(&result, config),
        }
    }))
    .ok()
}

/// Whether the timed runs' first rounds agree with two independent executions of the
/// same configuration, both sequential and without the tensor pool:
///
/// * on the blocked kernels, bit for bit — fan-out, pooling and staging may change
///   scheduling and buffer placement, never a value;
/// * on the naive loop nests, cohort and batch sizes exactly and losses within
///   [`NAIVE_LOSS_TOLERANCE`] — the reference that shares no kernel code with the runs.
///
/// Restores the workload's process settings afterwards.
fn oracle_agrees(workload: &Workload, seed: u64, reference: &[RoundKey]) -> bool {
    let prefix = workload.config(seed).rounds.min(ORACLE_ROUNDS);
    let mut agrees = reference.len() >= prefix;
    for backend in [KernelBackend::Blocked, KernelBackend::Naive] {
        let config = workload.oracle_config(seed, backend);
        apply_process_settings(&config, 1);
        let rounds = timed_run(workload, &config).map(|run| run.trajectory.rounds);
        agrees &= rounds.is_some_and(|rounds| {
            rounds.len() == prefix
                && rounds.iter().zip(reference).all(|(oracle, timed)| {
                    let sizes = (oracle.1, oracle.2) == (timed.1, timed.2);
                    let (a, b) = (f32::from_bits(oracle.0), f32::from_bits(timed.0));
                    let loss = match backend {
                        KernelBackend::Blocked => oracle.0 == timed.0,
                        KernelBackend::Naive => (a - b).abs() <= NAIVE_LOSS_TOLERANCE * a.abs(),
                    };
                    sizes && loss
                })
        });
    }
    apply_process_settings(&workload.config(seed), TIMED_THREADS);
    agrees
}

/// Resident-set figures of this process in MB, from `/proc/self/status`.
#[derive(Clone, Copy, Default)]
pub struct Rss {
    pub current_mb: f64,
    pub peak_mb: f64,
}

/// Reads `VmRSS` and `VmHWM`; zeros where the kernel does not expose them.
pub fn rss() -> Rss {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|line| line.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kb| kb.parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    };
    Rss {
        current_mb: field("VmRSS:"),
        peak_mb: field("VmHWM:"),
    }
}

/// Everything the timed phase of one workload measured.
pub struct Measurement {
    pub rounds: usize,
    /// Runs attempted, warm-up excluded.
    pub attempted: usize,
    /// Runs that panicked, recorded a non-finite loss, hashed differently from the
    /// warm-up run or rest on a trajectory the oracle rejects.
    pub failed: usize,
    pub trajectory_hash: u64,
    pub final_accuracy: f32,
    /// Work of one run in trained-sample equivalents (see [`Trajectory::work`]).
    pub work_per_run: f64,
    /// The engine's own per-round record, which the phase replay must reproduce.
    pub reference_rounds: Vec<RoundKey>,
    pub warmup_run_s: f64,
    pub setup_s: Vec<f64>,
    pub run_s: Vec<f64>,
    pub rss_after_warmup: Rss,
    /// Read after timed run number [`MIN_RUNS`].
    pub rss_at_min_runs: Rss,
    pub rss_after_runs: Rss,
}

impl Measurement {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Per-run `run()` wall-clock per reference round, in milliseconds: the run's
    /// wall-clock per unit of work, times the work of the workload's reference round.
    /// At the reference seed this is `run()` ÷ `rounds`.
    pub fn round_ms(&self, reference_work_per_round: f64) -> Vec<f64> {
        let scale = reference_work_per_round / self.work_per_run.max(1.0);
        self.run_s.iter().map(|s| s * 1e3 * scale).collect()
    }

    /// Per-run throughput in trained-sample equivalents per second.
    pub fn samples_per_s(&self) -> Vec<f64> {
        self.run_s
            .iter()
            .map(|s| self.work_per_run / s.max(f64::MIN_POSITIVE))
            .collect()
    }

    /// Median `run()` wall-clock divided by the round count, unscaled, in milliseconds.
    pub fn raw_round_ms_p50(&self) -> f64 {
        median(&self.run_s) * 1e3 / self.rounds as f64
    }

    pub fn rss_growth_mb_per_run(&self) -> f64 {
        (self.rss_after_runs.current_mb - self.rss_after_warmup.current_mb)
            / self.run_s.len().max(1) as f64
    }
}

/// Warm-up run, oracle check, then timed runs until the budget is spent.
pub fn measure(workload: &Workload, seed: u64, budget: Budget) -> Measurement {
    let config = workload.config(seed);
    apply_process_settings(&config, TIMED_THREADS);

    let mut m = Measurement {
        rounds: config.rounds,
        attempted: 0,
        failed: 0,
        trajectory_hash: 0,
        final_accuracy: 0.0,
        work_per_run: 0.0,
        reference_rounds: Vec::new(),
        warmup_run_s: 0.0,
        setup_s: Vec::new(),
        run_s: Vec::new(),
        rss_after_warmup: Rss::default(),
        rss_at_min_runs: Rss::default(),
        rss_after_runs: Rss::default(),
    };

    // Untimed warm-up: fills the tensor pool and fixes the trajectory every repeat must
    // reproduce.
    let Some(warmup) = timed_run(workload, &config) else {
        m.attempted = 1;
        m.failed = 1;
        return m;
    };
    m.warmup_run_s = warmup.run_s;
    let reference = warmup.trajectory;
    m.trajectory_hash = reference.hash;
    m.final_accuracy = reference.final_accuracy;
    m.work_per_run = reference.work;
    let reference_ok = reference.all_finite && oracle_agrees(workload, seed, &reference.rounds);
    m.reference_rounds = reference.rounds;
    m.rss_after_warmup = rss();

    let started = Instant::now();
    loop {
        let go_on = match budget {
            Budget::Runs(n) => m.attempted < n,
            Budget::Time(limit) => {
                // Stop before a run that would overshoot the budget.
                let next = Duration::from_secs_f64(median(&m.run_s) + median(&m.setup_s));
                m.attempted < MIN_RUNS || started.elapsed() + next <= limit
            }
        };
        if !go_on {
            break;
        }
        m.attempted += 1;
        match timed_run(workload, &config) {
            Some(run) => {
                if run.trajectory.hash != reference.hash {
                    m.failed += 1;
                }
                m.setup_s.push(run.setup_s);
                m.run_s.push(run.run_s);
            }
            None => m.failed += 1,
        }
        if m.attempted == MIN_RUNS {
            m.rss_at_min_runs = rss();
        }
    }
    if !reference_ok {
        // A rejected reference fails every repeat that reproduced it.
        m.failed = m.attempted.max(1);
        m.attempted = m.attempted.max(1);
    }
    m.rss_after_runs = rss();
    if m.attempted < MIN_RUNS {
        m.rss_at_min_runs = m.rss_after_runs;
    }
    m
}
