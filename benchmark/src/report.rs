//! Metric definitions, the per-workload report, and its JSON and table forms.
//!
//! The definitions here and `BENCHMARK.json` at the repo root must agree name for name;
//! `tests/contract.rs` checks that in both directions.

use mergesfl::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric the benchmark reports. `bound` is the relative worsening that counts as a
/// regression; per-layer metrics have none.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, per workload. Bounds come from measurement (README,
/// "Bound evidence"), not from a wish.
pub const END_TO_END: &[MetricDef] = &[
    end_to_end("setup_s", "s", Lower, 0.25),
    end_to_end("round_ms_p50", "ms", Lower, 0.25),
    end_to_end("samples_per_s", "samples/s", Higher, 0.25),
    end_to_end("peak_rss_mb", "MB", Lower, 0.05),
    end_to_end("rss_growth_mb_per_run", "MB/run", Lower, 0.10),
];

/// Single-layer metrics from the traced replay, grouped by the module they watch.
pub const PER_LAYER: &[MetricDef] = &[
    layer("data.synth_ms", "ms", Lower),
    layer("data.partition_ms", "ms", Lower),
    layer("data.batch_us", "us", Lower),
    layer("simnet.observe_us", "us", Lower),
    layer("control.plan_ms", "ms", Lower),
    layer("control.records_touched", "count", Lower),
    layer("control.cohort_size", "count", Higher),
    layer("control.total_batch", "count", Higher),
    layer("worker.materialize_ms", "ms", Lower),
    layer("worker.load_bottom_us", "us", Lower),
    layer("worker.forward_ms", "ms", Lower),
    layer("worker.backward_ms", "ms", Lower),
    layer("worker.state_us", "us", Lower),
    layer("merge.merge_us", "us", Lower),
    layer("merge.align_us", "us", Lower),
    layer("merge.bytes_per_iter", "bytes", Lower),
    layer("server.begin_step_ms", "ms", Lower),
    layer("server.finish_step_ms", "ms", Lower),
    layer("server.sequential_ms", "ms", Lower),
    layer("server.aggregate_us", "us", Lower),
    layer("server.eval_ms", "ms", Lower),
    layer("fl.local_train_ms", "ms", Lower),
    layer("fl.aggregate_ms", "ms", Lower),
    layer("fl.eval_ms", "ms", Lower),
    layer("nn.conv_fwd_ms", "ms", Lower),
    layer("nn.conv_bwd_ms", "ms", Lower),
    layer("nn.linear_fwd_ms", "ms", Lower),
    layer("nn.linear_bwd_ms", "ms", Lower),
    layer("nn.pool_fwd_ms", "ms", Lower),
    layer("nn.pool_bwd_ms", "ms", Lower),
    layer("nn.other_fwd_ms", "ms", Lower),
    layer("nn.other_bwd_ms", "ms", Lower),
    layer("nn.optim_step_us", "us", Lower),
    layer("nn.loss_us", "us", Lower),
    layer("kernels.stage_wait_share", "ratio", Lower),
    layer("kernels.stages", "count", Lower),
    layer("pool.hit_rate", "ratio", Higher),
    layer("pool.pages", "count", Lower),
    layer("pool.bytes_mb", "MB", Lower),
    layer("alloc.count_per_round", "count", Lower),
    layer("alloc.bytes_per_round", "bytes", Lower),
    layer("engine.replay_ms", "ms", Lower),
    layer("engine.overhead_share", "ratio", Lower),
    layer("engine.mt_speedup", "ratio", Higher),
    layer("engine.cold_run_ratio", "ratio", Lower),
    layer("trace.replay_match", "count", Higher),
    layer("trace.replay_gap_share", "ratio", Lower),
];

/// Looks an end-to-end metric up by name.
pub fn end_to_end_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A measured value, with the quartiles of the per-run samples behind it where the
/// metric is a statistic over runs.
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub unit: String,
    pub quartiles: Option<(f64, f64)>,
}

/// Everything one workload's process reports.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadReport {
    pub workload: String,
    pub seed: u64,
    pub threads: usize,
    /// Timed runs behind the timing metrics.
    pub n: usize,
    /// Highest percentile `n` backs with ten samples beyond it; the upper quartile
    /// printed beside `round_ms_p50` is a supported tail only when this is at least 75.
    pub tail_percentile: u32,
    pub attempted: usize,
    pub failed: usize,
    pub correct: bool,
    pub trajectory_hash: String,
    pub final_accuracy: f64,
    /// Work of one round at this seed in trained-sample equivalents, and the unscaled
    /// median `run()` ÷ `rounds` the `round_ms_*` metrics were scaled from.
    pub work_per_round: f64,
    pub raw_round_ms_p50: f64,
    pub end_to_end: BTreeMap<String, Measured>,
    pub per_layer: BTreeMap<String, Measured>,
}

fn write_metrics(
    out: &mut String,
    metrics: &BTreeMap<String, Measured>,
    order: &[MetricDef],
    quartiles: bool,
) {
    out.push('{');
    let mut first = true;
    for def in order {
        let Some(m) = metrics.get(def.name) else {
            continue;
        };
        if !first {
            out.push_str(", ");
        }
        first = false;
        json::write_escaped(out, def.name);
        out.push_str(": {\"value\": ");
        json::write_f64(out, m.value);
        out.push_str(", \"unit\": ");
        json::write_escaped(out, &m.unit);
        if let (true, Some((q1, q3))) = (quartiles, m.quartiles) {
            out.push_str(", \"q1\": ");
            json::write_f64(out, q1);
            out.push_str(", \"q3\": ");
            json::write_f64(out, q3);
        }
        out.push('}');
    }
    out.push('}');
}

impl WorkloadReport {
    /// The driver's result line: exactly `correct`, `attempted`, `failed`, `metrics`,
    /// the metrics being the per-layer set for a traced run and the end-to-end set
    /// otherwise.
    pub fn contract_line(&self, traced: bool) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": ",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        if traced {
            write_metrics(&mut out, &self.per_layer, PER_LAYER, false);
        } else {
            write_metrics(&mut out, &self.end_to_end, END_TO_END, false);
        }
        out.push('}');
        out
    }

    /// The full report as one JSON object on one line.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"workload\": ");
        json::write_escaped(&mut out, &self.workload);
        let _ = write!(
            out,
            ", \"seed\": {}, \"threads\": {}, \"n\": {}, \"tail_percentile\": {}, \"attempted\": {}, \"failed\": {}, \"correct\": {}, \"trajectory_hash\": ",
            self.seed, self.threads, self.n, self.tail_percentile, self.attempted, self.failed, self.correct
        );
        json::write_escaped(&mut out, &self.trajectory_hash);
        for (key, value) in [
            ("final_accuracy", self.final_accuracy),
            ("work_per_round", self.work_per_round),
            ("raw_round_ms_p50", self.raw_round_ms_p50),
        ] {
            let _ = write!(out, ", \"{key}\": ");
            json::write_f64(&mut out, value);
        }
        out.push_str(", \"end_to_end\": ");
        write_metrics(&mut out, &self.end_to_end, END_TO_END, true);
        out.push_str(", \"per_layer\": ");
        write_metrics(&mut out, &self.per_layer, PER_LAYER, true);
        out.push('}');
        out
    }

    /// Reads a report back from its [`WorkloadReport::to_json`] form.
    pub fn from_json(value: &JsonValue) -> Result<Self, String> {
        let text = |key: &str| {
            value
                .get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("workload report: missing string `{key}`"))
        };
        let number = |key: &str| {
            value
                .get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("workload report: missing number `{key}`"))
        };
        let metrics = |key: &str| -> Result<BTreeMap<String, Measured>, String> {
            let Some(JsonValue::Object(map)) = value.get(key) else {
                return Err(format!("workload report: missing object `{key}`"));
            };
            map.iter()
                .map(|(name, m)| {
                    let field = |f: &str| m.get(f).and_then(JsonValue::as_f64);
                    let measured = Measured {
                        value: field("value")
                            .ok_or_else(|| format!("metric `{name}`: no value"))?,
                        unit: m
                            .get("unit")
                            .and_then(JsonValue::as_str)
                            .ok_or_else(|| format!("metric `{name}`: no unit"))?
                            .to_string(),
                        quartiles: field("q1").zip(field("q3")),
                    };
                    Ok((name.clone(), measured))
                })
                .collect()
        };
        Ok(Self {
            workload: text("workload")?,
            seed: number("seed")? as u64,
            threads: number("threads")? as usize,
            n: number("n")? as usize,
            tail_percentile: number("tail_percentile")? as u32,
            attempted: number("attempted")? as usize,
            failed: number("failed")? as usize,
            correct: matches!(value.get("correct"), Some(JsonValue::Bool(true))),
            trajectory_hash: text("trajectory_hash")?,
            final_accuracy: number("final_accuracy")?,
            work_per_round: number("work_per_round")?,
            raw_round_ms_p50: number("raw_round_ms_p50")?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// Every metric by name with its unit, one per line, for people.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} (seed {}, {} thread{}, n = {} timed runs, tail supported up to p{}) ==",
            self.workload,
            self.seed,
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            self.n,
            self.tail_percentile
        );
        let _ = writeln!(
            out,
            "  check  trajectory_hash {}  final_accuracy {:.4}  failed {}/{}  correct {}",
            self.trajectory_hash, self.final_accuracy, self.failed, self.attempted, self.correct
        );
        let _ = writeln!(
            out,
            "  scale  run()/rounds p50 {:.4} ms unscaled at {:.2} trained-sample equivalents per round",
            self.raw_round_ms_p50, self.work_per_round
        );
        for (defs, metrics) in [(END_TO_END, &self.end_to_end), (PER_LAYER, &self.per_layer)] {
            for def in defs {
                if let Some(m) = metrics.get(def.name) {
                    let spread = m.quartiles.map_or(String::new(), |(q1, q3)| {
                        format!("  [q1 {q1:.4}, q3 {q3:.4}]")
                    });
                    let _ = writeln!(
                        out,
                        "  {:<28} {:>14.4} {:<10} ({} is better){spread}",
                        def.name,
                        m.value,
                        m.unit,
                        def.better.name()
                    );
                }
            }
        }
        out
    }
}

/// The shape of the host the numbers were taken on.
pub fn host_json() -> String {
    let mut features: Vec<&str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for (name, present) in [
            ("avx", std::arch::is_x86_feature_detected!("avx")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ] {
            if present {
                features.push(name);
            }
        }
    }
    format!(
        "{{\"nproc\": {}, \"arch\": \"{}\", \"cpu_features\": \"{}\"}}",
        crate::workloads::host_parallelism(),
        std::env::consts::ARCH,
        features.join(",")
    )
}

/// One set: every workload's report from one invocation, as a single-line JSON document
/// that ends with `"claim": null` — defining the benchmark claims no gain.
pub fn summary_json(seed: u64, reports: &[WorkloadReport]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"benchmark\": \"mergesfl\", \"seed\": {seed}, \"host\": {}, \"workloads\": [",
        host_json()
    );
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&r.to_json());
    }
    out.push_str("], \"claim\": null}");
    out
}

/// Reads the workload reports out of a summary document.
pub fn parse_summary(text: &str) -> Result<Vec<WorkloadReport>, String> {
    let doc = json::parse(text)?;
    doc.get("workloads")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| "summary: missing `workloads` array".to_string())?
        .iter()
        .map(WorkloadReport::from_json)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> WorkloadReport {
        let mut end_to_end = BTreeMap::new();
        end_to_end.insert(
            "round_ms_p50".to_string(),
            Measured {
                value: 56.510_25,
                unit: "ms".to_string(),
                quartiles: Some((55.9, 58.25)),
            },
        );
        end_to_end.insert(
            "peak_rss_mb".to_string(),
            Measured {
                value: 203.3125,
                unit: "MB".to_string(),
                quartiles: None,
            },
        );
        let mut per_layer = BTreeMap::new();
        per_layer.insert(
            "pool.hit_rate".to_string(),
            Measured {
                value: 0.9975,
                unit: "ratio".to_string(),
                quartiles: None,
            },
        );
        WorkloadReport {
            workload: "cifar_merge_t1".to_string(),
            seed: 42,
            threads: 1,
            n: 40,
            tail_percentile: 75,
            attempted: 40,
            failed: 0,
            correct: true,
            trajectory_hash: "bd9c7db11bb0b45e".to_string(),
            final_accuracy: 0.15,
            work_per_round: 231.75,
            raw_round_ms_p50: 56.5,
            end_to_end,
            per_layer,
        }
    }

    #[test]
    fn emitted_json_parses_back_through_the_repo_parser() {
        let report = sample_report();
        let parsed = json::parse(&report.to_json()).expect("emitter writes valid JSON");
        assert_eq!(WorkloadReport::from_json(&parsed).unwrap(), report);

        let summary = summary_json(42, &[report.clone(), report.clone()]);
        assert!(summary.ends_with("\"claim\": null}"));
        assert!(!summary.contains('\n'));
        assert_eq!(
            parse_summary(&summary).unwrap(),
            vec![report.clone(), report]
        );
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_one_metric_set() {
        let report = sample_report();
        for (traced, present, absent) in [
            (false, "round_ms_p50", "pool.hit_rate"),
            (true, "pool.hit_rate", "round_ms_p50"),
        ] {
            let line = report.contract_line(traced);
            let JsonValue::Object(map) = json::parse(&line).unwrap() else {
                panic!("contract line is an object");
            };
            let keys: Vec<&str> = map.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let metrics = &map["metrics"];
            assert!(metrics.get(present).is_some());
            assert!(metrics.get(absent).is_none());
            let m = metrics.get(present).unwrap();
            let JsonValue::Object(fields) = m else {
                panic!("a metric is an object");
            };
            assert_eq!(fields.len(), 2, "value and unit only: {line}");
        }
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(def.name.len() <= 64);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!def.unit.is_empty() && def.unit.len() <= 16);
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = end_to_end_def("setup_s").expect("the contract requires setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    /// `BENCHMARK.json` is what the driver reads and these tables are what the program
    /// reports; every name, unit, direction, bound and reason must be the same in both.
    #[test]
    fn benchmark_json_and_the_code_name_the_same_workloads_and_metrics() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let entries = |key: &str| -> Vec<&JsonValue> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json has a `{key}` list"))
                .iter()
                .collect()
        };
        let text = |entry: &JsonValue, key: &str| -> String {
            entry
                .get(key)
                .and_then(JsonValue::as_str)
                .unwrap_or_else(|| panic!("`{key}` is a string"))
                .to_string()
        };
        let well_formed = |name: &str| {
            !name.is_empty()
                && name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };

        let listed: Vec<(String, String)> = entries("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let coded: Vec<(String, String)> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, coded);
        assert!(coded
            .iter()
            .all(|(name, why)| well_formed(name) && why.len() <= 200));

        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String, String, Option<f64>)> = entries(key)
                .iter()
                .map(|m| {
                    let bound = m.get("bound").and_then(JsonValue::as_f64);
                    (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
                })
                .collect();
            let coded: Vec<(String, String, String, Option<f64>)> = defs
                .iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        d.better.name().to_string(),
                        d.bound,
                    )
                })
                .collect();
            assert_eq!(
                listed, coded,
                "`{key}` differs between BENCHMARK.json and report.rs"
            );
            assert!(coded.iter().all(|(name, ..)| well_formed(name)));
        }
    }
}
