//! Quickstart: train the CIFAR-10 analogue with MergeSFL on a small simulated edge cluster
//! under non-IID data and print the accuracy curve, traffic and waiting-time summary.
//!
//! Run with `cargo run --release --example quickstart`.

use mergesfl::config::RunConfig;
use mergesfl::experiment::{run, Approach};
use mergesfl_data::DatasetKind;

fn main() {
    // A scaled-down configuration: 20 simulated Jetson workers, 12 communication rounds,
    // non-IID level p = 10 (each worker's data concentrated on few classes).
    // Exported `MERGESFL_*` run knobs (e.g. `MERGESFL_PIPELINE=on`) apply on top.
    let config = RunConfig::quick(DatasetKind::Cifar10, 10.0, 42).with_env_overrides();
    println!(
        "Training {:?} with MergeSFL: {} workers, {} rounds, tau = {}",
        config.dataset,
        config.num_workers,
        config.rounds,
        config.tau()
    );

    let result = run(Approach::MergeSfl, &config);

    println!("\nround  sim-time(s)  accuracy  waiting(s)  traffic(MB)  merged-batch  cohort-KL");
    for r in &result.records {
        println!(
            "{:>5}  {:>11.1}  {:>8}  {:>10.2}  {:>11.1}  {:>12}  {:>9.4}",
            r.round,
            r.sim_time,
            r.accuracy
                .map(|a| format!("{a:.3}"))
                .unwrap_or_else(|| "-".into()),
            r.avg_waiting_time,
            r.traffic_mb,
            r.total_batch,
            r.cohort_kl,
        );
    }
    println!(
        "\nfinal accuracy {:.3}, total simulated time {:.0} s, total traffic {:.1} MB",
        result.final_accuracy(),
        result.total_sim_time(),
        result.total_traffic_mb()
    );
}
