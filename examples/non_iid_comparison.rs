//! Compares MergeSFL against the paper's baselines (AdaSFL, LocFedMix-SL, FedAvg, PyramidFL)
//! on the HAR analogue under strongly non-IID data, reporting final accuracy,
//! time-to-accuracy and traffic — a miniature of the paper's Fig. 7/8 experiment.
//!
//! Run with `cargo run --release --example non_iid_comparison`.

use mergesfl::config::RunConfig;
use mergesfl::experiment::{run, Approach};
use mergesfl_data::DatasetKind;

fn main() {
    let config = RunConfig::quick(DatasetKind::Har, 10.0, 7).with_env_overrides();
    println!(
        "HAR analogue, non-IID (p = 10), {} workers, {} rounds\n",
        config.num_workers, config.rounds
    );

    let mut results = Vec::new();
    for approach in Approach::evaluation_set() {
        println!("running {} ...", approach.name());
        results.push(run(approach, &config));
    }

    // Pick a target accuracy that every approach reaches so time-to-accuracy is comparable.
    let target = results
        .iter()
        .map(|r| r.best_accuracy())
        .fold(f32::INFINITY, f32::min)
        * 0.9;

    println!(
        "\n{:<14} {:>10} {:>14} {:>14} {:>12}",
        "approach", "final acc", "time-to-acc(s)", "traffic(MB)", "avg wait(s)"
    );
    for r in &results {
        println!(
            "{:<14} {:>10.3} {:>14} {:>14.1} {:>12.2}",
            r.approach,
            r.final_accuracy(),
            r.time_to_accuracy(target)
                .map(|t| format!("{t:.0}"))
                .unwrap_or_else(|| "-".into()),
            r.total_traffic_mb(),
            r.mean_waiting_time(),
        );
    }
    println!("\n(target accuracy for time-to-accuracy: {target:.3})");
}
