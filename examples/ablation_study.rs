//! Ablation of MergeSFL's two key strategies (feature merging and batch size regulation) on
//! the CIFAR-10 analogue — a miniature of the paper's Fig. 11 experiment.
//!
//! Run with `cargo run --release --example ablation_study`.

use mergesfl::config::RunConfig;
use mergesfl::experiment::{run, Approach};
use mergesfl_data::DatasetKind;

fn main() {
    for (label, p) in [("IID (p = 0)", 0.0f32), ("non-IID (p = 10)", 10.0)] {
        println!("=== {label} ===");
        let config = RunConfig::quick(DatasetKind::Cifar10, p, 5).with_env_overrides();
        for approach in Approach::ablation_set() {
            let r = run(approach, &config);
            println!(
                "  {:<18} final acc {:.3}   sim time {:>8.0}s   avg wait {:>6.2}s",
                r.approach,
                r.final_accuracy(),
                r.total_sim_time(),
                r.mean_waiting_time()
            );
        }
        println!();
    }
    println!("Expected: removing feature merging mainly hurts non-IID accuracy; removing batch");
    println!("size regulation mainly increases round time / waiting time.");
}
