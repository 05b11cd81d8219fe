//! Fig. 12: scalability — completion time to a target accuracy and training curves for
//! clusters of 100, 200, 300 and 400 workers (simulation experiment in the paper), plus
//! the repo's fleet extension: the same cohort against 10^5–10^6 *registered* clients on
//! the event-driven control plane (set `MERGESFL_FLEET`; `MERGESFL_CHURN=on` adds
//! availability churn).

use mergesfl::experiment::Approach;
use mergesfl_bench::{datasets_from_env, format_curve, run_and_report, Scale};
use mergesfl_data::DatasetKind;

fn main() {
    let scale = Scale::from_env();
    // The paper's figure uses CIFAR-10; an explicit MERGESFL_DATASETS (first entry)
    // lets smoke runs swap in the small HAR analogue to keep CI time bounded.
    let dataset = if mergesfl_nn::env::var("MERGESFL_DATASETS").is_some() {
        datasets_from_env()[0]
    } else {
        DatasetKind::Cifar10
    };
    let worker_counts: Vec<usize> = match scale {
        Scale::Quick => vec![20, 40, 60, 80],
        _ => vec![100, 200, 300, 400],
    };
    println!(
        "Fig. 12 — scalability with the number of workers ({} analogue, non-IID p = 10)\n",
        dataset.spec().name
    );
    let mut merge_results = Vec::new();
    for &n in &worker_counts {
        let mut config = scale.config(dataset, 10.0, 121);
        config.num_workers = n;
        config.participants_per_round = config.participants_per_round.min(n);
        // The classic sweep stays classic even when the fleet knobs are exported for
        // the fleet section below.
        config.fleet = None;
        config.churn = false;
        println!("== {n} workers ==");
        for approach in [Approach::MergeSfl, Approach::AdaSfl, Approach::FedAvg] {
            let r = run_and_report(approach, &config);
            if approach == Approach::MergeSfl {
                merge_results.push((n, r));
            }
        }
        println!();
    }
    println!("MergeSFL training curves by cluster size (Fig. 12b):");
    for (n, r) in &merge_results {
        println!("  {:>4} workers  {}", n, format_curve(r));
    }
    println!("\nExpected shape: more workers converge faster (more local data per round);");
    println!("MergeSFL stays ahead of the baselines at every scale.");

    // Fleet extension: registered clients beyond the data-shard count, planned by the
    // event-driven control plane. The sweep holds the cohort fixed and scales only the
    // registry (a decade below the requested fleet, then the fleet itself), so the
    // per-round state-touch gauge isolates what registration costs: it should track
    // the candidate pool, not the fleet.
    let base = scale.config(dataset, 10.0, 121);
    if let Some(fleet) = base.fleet {
        let mut points = vec![fleet / 10, fleet];
        points.retain(|&f| f > base.num_workers);
        points.dedup();
        println!(
            "\nFleet extension — registered clients at cohort {} (churn: {}):",
            base.participants_per_round,
            if base.churn { "on" } else { "off" }
        );
        for &f in &points {
            let mut config = base.clone();
            config.fleet = Some(f);
            config.rounds = config.rounds.min(6);
            println!("== {f} registered clients ==");
            let r = run_and_report(Approach::MergeSfl, &config);
            let touched = r.records.iter().map(|x| x.fleet_active).max().unwrap_or(0);
            println!("   registry records touched per round: <= {touched} of {f}");
        }
        println!("\nExpected shape: sim time and state touches stay flat as the registry");
        println!("grows — per-round cost follows the cohort, not the registered fleet.");
    }
}
