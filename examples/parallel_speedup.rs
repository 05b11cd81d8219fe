//! Scalability sanity check: the fig12 configuration at 50 workers, run sequentially and
//! with the threaded fan-out, verifying that (a) both modes produce identical accuracy
//! series, and (b) on multi-core hardware the parallel mode is measurably faster.
//!
//! ```text
//! cargo run --release --example parallel_speedup
//! ```
//!
//! On a single-core host the harness degrades to sequential execution, so only the
//! determinism half of the check is meaningful there (the speedup is reported but not
//! asserted).

use mergesfl::config::RunConfig;
use mergesfl::experiment::{run, Approach};
use mergesfl_data::DatasetKind;
use std::time::Instant;

fn main() {
    let mut config = RunConfig::quick(DatasetKind::Cifar10, 10.0, 121).with_env_overrides();
    config.num_workers = 50;
    config.participants_per_round = 12;
    config.rounds = 6;
    config.local_iterations = Some(3);

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("parallel speedup check: 50 workers, 6 rounds, {cores} core(s) available");

    let mut sequential_config = config.clone();
    sequential_config.parallel = false;
    let start = Instant::now();
    let sequential = run(Approach::MergeSfl, &sequential_config);
    let sequential_time = start.elapsed();

    let mut parallel_config = config;
    parallel_config.parallel = true;
    let start = Instant::now();
    let parallel = run(Approach::MergeSfl, &parallel_config);
    let parallel_time = start.elapsed();

    assert_eq!(
        sequential.accuracy_curve(),
        parallel.accuracy_curve(),
        "parallel execution changed the accuracy series"
    );
    assert_eq!(
        sequential, parallel,
        "parallel execution changed the run trace"
    );
    println!(
        "accuracy series identical across modes ({} evaluation points)",
        sequential.accuracy_curve().len()
    );
    println!(
        "sequential: {:>8.2?}   parallel: {:>8.2?}   speedup: {:.2}x",
        sequential_time,
        parallel_time,
        sequential_time.as_secs_f64() / parallel_time.as_secs_f64().max(1e-9)
    );
    // Shared CI runners report 4 vCPUs but give no scheduling guarantees, so the hard
    // assertion only engages on hosts with real parallel headroom; below that the
    // speedup is reported but only determinism is asserted.
    if cores >= 8 {
        assert!(
            parallel_time.as_secs_f64() < sequential_time.as_secs_f64() * 0.9,
            "expected a measurable speedup on {cores} cores (sequential {sequential_time:?}, parallel {parallel_time:?})"
        );
        println!("speedup asserted: parallel is measurably faster on {cores} cores");
    } else {
        println!("(<8 cores: speedup not asserted; determinism verified)");
    }
}
