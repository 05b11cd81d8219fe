//! The traced run: phase replays, the layer profile and the counters, folded into the
//! per-layer metrics. Never mixed into the timed runs; reads the timed runs' result only
//! to say how far the replay is from it.

use crate::hash::trajectory_hash;
use crate::layers;
use crate::measure::Measurement;
use crate::replay::{dataset_spec, replay_fl, replay_sfl, Replay};
use crate::span::{to_json_lines, SETUP_ROUND};
use crate::stats::median;
use crate::workloads::{apply_process_settings, construct, mt_threads, Approach, Workload};
use mergesfl_data::{synth, WorkerLoader};
use mergesfl_nn::kernels::runtime::{reset_stage_stats, stage_stats};
use mergesfl_nn::rng::derive_seed;
use mergesfl_nn::zoo;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Replays a traced run makes at most, and batches drawn for `data.batch_us`.
const MAX_REPLAYS: usize = 25;
const BATCH_DRAWS: usize = 200;

/// Multi-threaded twin runs: at least, at most, and their share of the replay budget.
const MT_MIN_RUNS: usize = 2;
const MT_MAX_RUNS: usize = 8;
const MT_BUDGET_DIVISOR: u32 = 4;

/// Per-layer metric values by name, the first replay's spans as JSON lines, and how many
/// of the twin engine runs were made and how many left the timed runs' trajectory.
pub struct Traced {
    pub values: BTreeMap<&'static str, f64>,
    pub spans_jsonl: String,
    pub twin_runs: usize,
    pub twin_failures: usize,
}

fn usize_median(values: impl Iterator<Item = usize>) -> f64 {
    median(&values.map(|v| v as f64).collect::<Vec<_>>())
}

/// Replays until `budget` is spent, profiles the layers, and derives every per-layer
/// metric. `timed` is this workload's tracing-off measurement from the same process.
pub fn trace(workload: &Workload, seed: u64, timed: &Measurement, budget: Duration) -> Traced {
    let config = workload.config(seed);
    let rounds = config.rounds as f64;
    apply_process_settings(&config, 1);

    // Each replay is followed by one engine run at the same single thread. Wall-clock on
    // a shared host drifts by tens of percent over seconds; taking the two in turns puts
    // both under the same drift, so their ratio says how much of the engine's round the
    // replay accounts for and not when each happened to run. The twin must reproduce the
    // timed runs' trajectory.
    let started = Instant::now();
    let mut replays: Vec<Replay> = Vec::new();
    let mut engine_round_ms: Vec<f64> = Vec::new();
    let (mut twin_runs, mut twin_failures) = (0usize, 0usize);
    let mut twin_run = |threads: usize| {
        apply_process_settings(&config, threads);
        reset_stage_stats();
        let engine = construct((workload.approach)(), &config);
        let start = Instant::now();
        let result = std::hint::black_box(engine.run());
        let wall = start.elapsed();
        twin_runs += 1;
        if trajectory_hash(&result.records) != timed.trajectory_hash {
            twin_failures += 1;
        }
        wall
    };
    while replays.is_empty() || (replays.len() < MAX_REPLAYS && started.elapsed() < budget) {
        replays.push(match (workload.approach)() {
            Approach::Sfl(strategy) => replay_sfl(strategy, &config),
            Approach::Fl(_) => replay_fl(&config),
        });
        engine_round_ms.push(twin_run(1).as_secs_f64() * 1e3 / rounds);
    }

    // Then the same configuration at the thread count a user gets by default, in a block
    // of its own: a run that follows a multi-threaded one starts with its tensor pages
    // parked in other threads' pools and measured a quarter slower, which must not leak
    // into the replay-against-engine comparison above. Fan-out changes scheduling, never
    // a value, so these runs too must reproduce the trajectory.
    let mut mt_round_ms: Vec<f64> = Vec::new();
    let mut mt_stages: Vec<f64> = Vec::new();
    let (mut mt_wait_ns, mut mt_wall_ns) = (0.0f64, 0.0f64);
    let mt_started = Instant::now();
    while mt_round_ms.len() < MT_MIN_RUNS
        || (mt_round_ms.len() < MT_MAX_RUNS && mt_started.elapsed() < budget / MT_BUDGET_DIVISOR)
    {
        let wall = twin_run(mt_threads());
        let stages = stage_stats();
        mt_round_ms.push(wall.as_secs_f64() * 1e3 / rounds);
        mt_stages.push(stages.stages as f64);
        mt_wait_ns += stages.compute_wait_ns as f64;
        mt_wall_ns += wall.as_nanos() as f64;
    }
    apply_process_settings(&config, 1);
    let first = &replays[0];

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    // Mean per round within a replay, median over the replays, in the unit's scale.
    let mut phase = |metric: &'static str, span: &str, per_ns: f64, per_round: bool| {
        let per_replay: Vec<f64> = replays
            .iter()
            .map(|r| {
                let total: u64 = r
                    .tracer
                    .spans()
                    .iter()
                    .filter(|s| s.name == span && (s.round != SETUP_ROUND) == per_round)
                    .map(|s| s.duration_ns())
                    .sum();
                total as f64 / per_ns / if per_round { rounds } else { 1.0 }
            })
            .collect();
        values.insert(metric, median(&per_replay));
    };
    const MS: f64 = 1e6;
    const US: f64 = 1e3;
    phase("data.synth_ms", "data.synth", MS, false);
    phase("data.partition_ms", "data.partition", MS, false);
    phase("simnet.observe_us", "simnet.observe", US, true);
    phase("control.plan_ms", "control.plan", MS, true);
    phase("worker.materialize_ms", "worker.materialize", MS, true);
    phase("worker.load_bottom_us", "worker.load_bottom", US, true);
    phase("worker.forward_ms", "worker.forward", MS, true);
    phase("worker.backward_ms", "worker.backward", MS, true);
    phase("worker.state_us", "worker.state", US, true);
    phase("merge.merge_us", "merge.merge", US, true);
    phase("merge.align_us", "merge.align", US, true);
    phase("server.begin_step_ms", "server.begin_step", MS, true);
    phase("server.finish_step_ms", "server.finish_step", MS, true);
    phase("server.sequential_ms", "server.sequential", MS, true);
    phase("server.aggregate_us", "server.aggregate", US, true);
    phase("server.eval_ms", "server.eval", MS, true);
    phase("fl.local_train_ms", "fl.local_train", MS, true);
    phase("fl.aggregate_ms", "fl.aggregate", MS, true);
    phase("fl.eval_ms", "fl.eval", MS, true);
    phase("engine.replay_ms", "round", MS, true);

    // Counts repeat exactly from replay to replay; the first one speaks for all.
    values.insert(
        "control.records_touched",
        usize_median(first.rounds.iter().map(|r| r.records_touched)),
    );
    values.insert(
        "control.cohort_size",
        usize_median(first.rounds.iter().map(|r| r.cohort)),
    );
    values.insert(
        "control.total_batch",
        usize_median(first.rounds.iter().map(|r| r.total_batch)),
    );
    values.insert(
        "merge.bytes_per_iter",
        median(
            &first
                .merge_bytes
                .iter()
                .map(|&b| b as f64)
                .collect::<Vec<_>>(),
        ),
    );
    let over_replays =
        |f: &dyn Fn(&Replay) -> f64| median(&replays.iter().map(f).collect::<Vec<_>>());
    values.insert(
        "alloc.count_per_round",
        over_replays(&|r| r.allocs as f64 / rounds),
    );
    values.insert(
        "alloc.bytes_per_round",
        over_replays(&|r| r.alloc_bytes as f64 / rounds),
    );
    values.insert("pool.hit_rate", over_replays(&|r| r.pool.hit_rate()));
    values.insert("pool.pages", over_replays(&|r| r.pool.pages as f64));
    values.insert(
        "pool.bytes_mb",
        over_replays(&|r| r.pool.bytes as f64 / (1024.0 * 1024.0)),
    );

    // Fidelity of the reconstruction against the engine's own records.
    let matches = first.rounds.len() == timed.reference_rounds.len()
        && first.rounds.iter().zip(&timed.reference_rounds).all(
            |(r, &(loss_bits, total_batch, participants))| {
                (r.loss_bits, r.total_batch, r.cohort) == (loss_bits, total_batch, participants)
            },
        );
    values.insert("trace.replay_match", f64::from(u8::from(matches)));

    // The layer profile at the batch sizes this workload plans.
    let spec = dataset_spec(&config);
    let (train, _) = synth::generate_default(&spec, derive_seed(config.seed, 1));
    let worker_batch = usize_median(first.worker_batches.iter().copied()) as usize;
    let (split, top_batch) = match (workload.approach)() {
        Approach::Sfl(strategy) => {
            let split = zoo::build(spec.architecture, spec.num_classes, config.seed).split_index;
            let merged = usize_median(first.rounds.iter().map(|r| r.total_batch)) as usize;
            (
                split,
                if strategy.feature_merging {
                    merged
                } else {
                    worker_batch
                },
            )
        }
        // Full-model local SGD: every layer runs at the worker's batch.
        Approach::Fl(_) => (0, worker_batch),
    };
    let profile = layers::profile(
        spec.architecture,
        spec.num_classes,
        derive_seed(config.seed, 4),
        &train,
        split,
        worker_batch,
        top_batch,
    );
    values.insert("nn.conv_fwd_ms", profile.conv_fwd_ms);
    values.insert("nn.conv_bwd_ms", profile.conv_bwd_ms);
    values.insert("nn.linear_fwd_ms", profile.linear_fwd_ms);
    values.insert("nn.linear_bwd_ms", profile.linear_bwd_ms);
    values.insert("nn.pool_fwd_ms", profile.pool_fwd_ms);
    values.insert("nn.pool_bwd_ms", profile.pool_bwd_ms);
    values.insert("nn.other_fwd_ms", profile.other_fwd_ms);
    values.insert("nn.other_bwd_ms", profile.other_bwd_ms);
    values.insert("nn.optim_step_us", profile.optim_step_us);
    values.insert("nn.loss_us", profile.loss_us);

    let mut loader = WorkerLoader::new((0..train.len()).collect(), seed);
    let draws: Vec<f64> = (0..BATCH_DRAWS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(loader.next_batch(&train, worker_batch.max(1)));
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    values.insert("data.batch_us", median(&draws));

    // Time the compute side of the double-buffered GEMM sat waiting for its packer, as a
    // share of the multi-threaded twins' wall-clock, and stages per run.
    values.insert("kernels.stage_wait_share", mt_wait_ns / mt_wall_ns.max(1.0));
    values.insert("kernels.stages", median(&mt_stages));

    let one_thread_p50 = median(&engine_round_ms);
    let replay_ms = values["engine.replay_ms"];
    values.insert("engine.overhead_share", 1.0 - replay_ms / one_thread_p50);
    values.insert(
        "trace.replay_gap_share",
        (replay_ms - one_thread_p50).abs() / one_thread_p50,
    );
    values.insert("engine.mt_speedup", one_thread_p50 / median(&mt_round_ms));
    values.insert(
        "engine.cold_run_ratio",
        timed.warmup_run_s / median(&timed.run_s),
    );

    Traced {
        values,
        spans_jsonl: to_json_lines(first.tracer.spans()),
        twin_runs,
        twin_failures,
    }
}
