//! Shared harness for the figure-regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper (README.md lists
//! them). They all read the experiment scale from the `MERGESFL_SCALE` environment
//! variable:
//!
//! * `quick` (default) — minutes-scale runs that show the qualitative shape of every figure;
//! * `standard` — larger runs closer to the paper's setting;
//! * `paper` — the paper's 80-worker, full-round-budget setting (hours of CPU time).
//!
//! Results are printed as aligned text tables and, when `MERGESFL_JSON` is on, additionally
//! as JSON lines for machine consumption.

// No unsafe anywhere in this crate: the workspace's only audited unsafe lives in
// mergesfl_nn (pool.rs, kernels/gemm.rs, kernels/micro.rs).
#![forbid(unsafe_code)]

use mergesfl::config::RunConfig;
use mergesfl::experiment::{run, Approach};
use mergesfl::metrics::RunResult;
use mergesfl_data::DatasetKind;

/// Experiment scale selected through the `MERGESFL_SCALE` environment variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-to-minutes runs (default).
    Quick,
    /// Larger runs, tens of minutes.
    Standard,
    /// The paper's full setting, hours of CPU time.
    Paper,
}

impl Scale {
    /// Reads the scale from the `MERGESFL_SCALE` environment variable. Unset or empty
    /// means quick; any other value must name a scale, or this panics instead of silently
    /// running the quick scale.
    pub fn from_env() -> Self {
        let scales = "quick, standard, paper";
        mergesfl_nn::env::parsed("MERGESFL_SCALE", scales, Self::from_name).unwrap_or(Self::Quick)
    }

    /// Parses a scale name (`quick`, `standard`, `paper`, ASCII case-insensitive).
    fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "quick" => Some(Self::Quick),
            "standard" => Some(Self::Standard),
            "paper" => Some(Self::Paper),
            _ => None,
        }
    }

    /// Builds the run configuration for a dataset and non-IID level at this scale, with
    /// the `MERGESFL_*` run knobs applied (`RunConfig::with_env_overrides`).
    pub fn config(&self, dataset: DatasetKind, non_iid_level: f32, seed: u64) -> RunConfig {
        self.preset(dataset, non_iid_level, seed)
            .with_env_overrides()
    }

    /// This scale's `RunConfig` preset, which reads no environment.
    fn preset(&self, dataset: DatasetKind, non_iid_level: f32, seed: u64) -> RunConfig {
        match self {
            Self::Quick => RunConfig::quick(dataset, non_iid_level, seed),
            Self::Standard => RunConfig::standard(dataset, non_iid_level, seed),
            Self::Paper => RunConfig::paper(dataset, non_iid_level, seed),
        }
    }
}

/// Whether JSON-lines output was requested: `MERGESFL_JSON` is an on/off switch, off
/// when unset, and any value it does not accept panics.
pub fn json_output() -> bool {
    mergesfl_nn::env::switch("MERGESFL_JSON").unwrap_or(false)
}

/// Runs one approach and prints a one-line summary; returns the full result.
pub fn run_and_report(approach: Approach, config: &RunConfig) -> RunResult {
    let result = run(approach, config);
    println!(
        "  {:<18} final_acc={:.3}  best_acc={:.3}  sim_time={:>10.1}s  traffic={:>9.1}MB  avg_wait={:>7.2}s",
        result.approach,
        result.final_accuracy(),
        result.best_accuracy(),
        result.total_sim_time(),
        result.total_traffic_mb(),
        result.mean_waiting_time(),
    );
    if json_output() {
        println!("JSON {}", result.to_json());
    }
    result
}

/// Runs the paper's five evaluation approaches on one dataset and returns their results.
pub fn run_evaluation_set(
    dataset: DatasetKind,
    non_iid_level: f32,
    scale: Scale,
    seed: u64,
) -> Vec<RunResult> {
    let config = scale.config(dataset, non_iid_level, seed);
    println!(
        "== {} (p = {}) — {} workers, {} rounds ==",
        dataset.name(),
        non_iid_level,
        config.num_workers,
        config.rounds
    );
    Approach::evaluation_set()
        .iter()
        .map(|&a| run_and_report(a, &config))
        .collect()
}

/// Prints each approach's total simulated round makespan under the barrier schedule next
/// to the overlap-aware pipelined one (both are recorded on every run, whichever schedule
/// advanced the clock), with the relative saving — the pipeline's simulated win.
pub fn print_makespan_summary(results: &[RunResult]) {
    println!("round makespan, barrier → pipelined (simulated):");
    for r in results {
        let barrier = r.total_barrier_makespan();
        let pipelined = r.total_pipelined_makespan();
        let saved = if barrier > 0.0 {
            100.0 * (1.0 - pipelined / barrier)
        } else {
            0.0
        };
        println!(
            "  {:<14} {:>10.1} s → {:>10.1} s  ({saved:>4.1}% saved)",
            r.approach, barrier, pipelined
        );
    }
}

/// Prints the per-shard server breakdown recorded in each approach's `RoundRecord`s: the
/// server topology, how the merged batch was routed (replicated) or striped
/// (output-partitioned) across the parameter-server shards, the per-iteration server
/// seconds each shard carried, the topology's server-plane cost — total cross-shard sync
/// time for replication, total activation-exchange traffic for partitioning — and the
/// server throughput and critical fraction the run was charged under (the
/// architecture's `ModelProfile` constants). FL baselines (no split server) are
/// skipped.
pub fn print_shard_summary(results: &[RunResult]) {
    let sharded: Vec<&RunResult> = results
        .iter()
        .filter(|r| r.records.iter().any(|x| !x.shards.is_empty()))
        .collect();
    if sharded.is_empty() {
        return;
    }
    println!("server shards (per-iteration seconds, averaged over rounds):");
    for r in sharded {
        let rounds: Vec<_> = r.records.iter().filter(|x| !x.shards.is_empty()).collect();
        let num_shards = rounds.iter().map(|x| x.shards.len()).max().unwrap_or(1);
        let total_sync: f64 = r.records.iter().map(|x| x.cross_sync_seconds).sum();
        let exchange_mb: f64 =
            r.records.iter().map(|x| x.exchange_bytes).sum::<f64>() / (1024.0 * 1024.0);
        let topology = rounds
            .first()
            .map(|x| x.topology.name())
            .unwrap_or("replicated");
        let server_plane = if exchange_mb > 0.0 {
            format!("activation exchange {exchange_mb:.1} MB total")
        } else {
            format!("cross-shard sync {total_sync:.3} s total")
        };
        let (gflops, fraction) = rounds
            .first()
            .map(|x| (x.server_gflops, x.server_critical_fraction))
            .unwrap_or_default();
        println!(
            "  {:<14} {num_shards} {topology} shard(s), calibrated {gflops:.0} GFLOP/s, \
             critical {:.0}%, {server_plane}",
            r.approach,
            100.0 * fraction
        );
        for shard in 0..num_shards {
            let mut batch = 0.0f64;
            let mut ingress = 0.0f64;
            let mut server = 0.0f64;
            let mut n = 0usize;
            for record in &rounds {
                if let Some(s) = record.shards.iter().find(|s| s.shard == shard) {
                    batch += s.batch as f64;
                    ingress += s.ingress_seconds;
                    server += s.server_critical_seconds + s.server_overlap_seconds;
                    n += 1;
                }
            }
            if n == 0 {
                continue;
            }
            let n = n as f64;
            println!(
                "    shard {shard}: {:>5.1} samples/iter  ingress {:>8.4} s  server {:>8.4} s",
                batch / n,
                ingress / n,
                server / n
            );
        }
    }
}

/// Formats an accuracy-over-time curve as `time:acc` pairs for compact printing.
pub fn format_curve(result: &RunResult) -> String {
    result
        .accuracy_curve()
        .iter()
        .map(|(t, a)| format!("{t:.0}s:{a:.3}"))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Datasets restricted by the optional `MERGESFL_DATASETS` environment variable; see
/// `parse_datasets`. Unset or empty means all four; a token that names no dataset panics
/// instead of being skipped.
pub fn datasets_from_env() -> Vec<DatasetKind> {
    let accepted = "a comma-separated list of har, speech, cifar10 (cifar), image100 (image)";
    mergesfl_nn::env::parsed("MERGESFL_DATASETS", accepted, parse_datasets)
        .unwrap_or_else(|| DatasetKind::all().to_vec())
}

/// Parses a `MERGESFL_DATASETS` setting: a comma-separated subset of `har`, `speech`,
/// `cifar10` (alias `cifar`) and `image100` (alias `image`), ASCII case-insensitive.
/// Only-empty tokens mean all four; `None` if a non-empty token names no dataset.
fn parse_datasets(setting: &str) -> Option<Vec<DatasetKind>> {
    let mut out = Vec::new();
    for token in setting.split(',').map(str::trim) {
        out.push(match token.to_ascii_lowercase().as_str() {
            "" => continue,
            "har" => DatasetKind::Har,
            "speech" => DatasetKind::Speech,
            "cifar10" | "cifar" => DatasetKind::Cifar10,
            "image100" | "image" => DatasetKind::Image100,
            _ => return None,
        });
    }
    if out.is_empty() {
        out = DatasetKind::all().to_vec();
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_names_parse_case_insensitively() {
        assert_eq!(Scale::from_name("quick"), Some(Scale::Quick));
        assert_eq!(Scale::from_name("Standard"), Some(Scale::Standard));
        assert_eq!(Scale::from_name("PAPER"), Some(Scale::Paper));
        assert_eq!(Scale::from_name("papr"), None);
    }

    #[test]
    fn datasets_setting_filters_and_defaults_to_all() {
        let all = Some(DatasetKind::all().to_vec());
        assert_eq!(parse_datasets(""), all);
        assert_eq!(parse_datasets(","), all);
        assert_eq!(parse_datasets("har"), Some(vec![DatasetKind::Har]));
        assert_eq!(
            parse_datasets("Image, cifar10,"),
            Some(vec![DatasetKind::Image100, DatasetKind::Cifar10])
        );
    }

    #[test]
    fn mistyped_dataset_setting_is_rejected() {
        // `env::parsed` turns the rejection into a panic naming the knob.
        assert_eq!(parse_datasets("har,cifr10"), None);
    }

    #[test]
    fn scales_produce_increasingly_large_configs() {
        let q = Scale::Quick.preset(DatasetKind::Cifar10, 10.0, 1);
        let s = Scale::Standard.preset(DatasetKind::Cifar10, 10.0, 1);
        let p = Scale::Paper.preset(DatasetKind::Cifar10, 10.0, 1);
        assert!(q.rounds < s.rounds && s.rounds < p.rounds);
        assert!(q.num_workers <= s.num_workers && s.num_workers <= p.num_workers);
    }

    #[test]
    fn curve_formatting_is_compact() {
        let mut r = RunResult::new("X", "Y", 0.0);
        r.push(mergesfl::metrics::RoundRecord {
            round: 0,
            sim_time: 12.0,
            accuracy: Some(0.5),
            train_loss: 1.0,
            avg_waiting_time: 0.0,
            round_makespan_barrier: 14.0,
            round_makespan_pipelined: 12.0,
            traffic_mb: 1.0,
            participants: 1,
            total_batch: 8,
            cohort_kl: 0.0,
            fleet_registered: 1,
            fleet_active: 1,
            shards: Vec::new(),
            topology: Default::default(),
            exchange_bytes: 0.0,
            cross_sync_seconds: 0.0,
            server_gflops: 2000.0,
            server_critical_fraction: 0.75,
            staleness: 0,
            version_lag: Vec::new(),
            pool_pages: 0,
            pool_bytes: 0,
            pool_hit_rate: 1.0,
        });
        assert_eq!(format_curve(&r), "12s:0.500");
    }
}
