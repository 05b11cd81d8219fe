//! Run metrics: per-round records and whole-run summaries.
//!
//! These are the quantities the paper's evaluation reports: test accuracy over simulated
//! time (Figs. 6–7), time-to-accuracy, network traffic to reach a target accuracy (Fig. 8),
//! and average per-round waiting time (Fig. 9).

use crate::json::{self, JsonValue};
use crate::sfl::server::ShardTopology;
use serde::{Deserialize, Serialize};

/// Per-shard slice of one round's server-side timing: how one parameter-server instance
/// spent the round on its routed share of the cohort's uploads.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ShardBreakdown {
    /// Shard index.
    pub shard: usize,
    /// Number of cohort members routed to this shard.
    pub participants: usize,
    /// Samples per iteration routed to this shard (its merged mini-batch size).
    pub batch: usize,
    /// Per-iteration drain of this shard's routed uploads through its ingress link, s.
    pub ingress_seconds: f64,
    /// Per-iteration pre-dispatch server time on this shard, seconds.
    pub server_critical_seconds: f64,
    /// Per-iteration overlappable server time on this shard, seconds.
    pub server_overlap_seconds: f64,
}

/// Measurements taken at the end of one communication round.
///
/// Equality compares the *trajectory* — every field except the `pool_*` gauges, which
/// read process-global pool counters and therefore depend on how warm the pool already
/// was (a second same-seed run in the same process sees higher hit rates, not a
/// different model). The determinism suite's "bit-identical traces" contract is about
/// the trajectory; the pool gauges are telemetry riding along.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Communication round index (0-based).
    pub round: usize,
    /// Simulated wall-clock time elapsed since the start of training (seconds).
    pub sim_time: f64,
    /// Test accuracy of the global model, if evaluated this round.
    pub accuracy: Option<f32>,
    /// Mean training loss observed during the round.
    pub train_loss: f32,
    /// Average waiting time of participating workers this round (seconds).
    pub avg_waiting_time: f64,
    /// Simulated round makespan under the barrier schedule (every stage serialised).
    pub round_makespan_barrier: f64,
    /// Simulated round makespan under the pipelined schedule (iteration `h+1` worker
    /// compute overlapping iteration `h` server compute). Both makespans are recorded for
    /// every round regardless of which schedule advanced the clock, so a single run can
    /// report the pipeline's win.
    pub round_makespan_pipelined: f64,
    /// Cumulative network traffic since the start of training (megabytes).
    pub traffic_mb: f64,
    /// Number of workers that participated in this round.
    pub participants: usize,
    /// Sum of the participants' batch sizes (the merged mini-batch size).
    pub total_batch: usize,
    /// KL divergence of the selected cohort's label mixture from the IID reference.
    pub cohort_kl: f32,
    /// Registered fleet size the round planned over (equals the worker count for
    /// classic fixed-cohort runs).
    pub fleet_registered: usize,
    /// Per-client registry records the planner actually touched this round — the active
    /// set of the event-driven fleet path (the whole fleet on the dense path). The
    /// scalability contract is `fleet_active ≪ fleet_registered`.
    pub fleet_active: usize,
    /// Per-shard server-side breakdown of the round (one entry per parameter-server
    /// shard the plan routed uploads to; empty for FL rounds).
    pub shards: Vec<ShardBreakdown>,
    /// Server topology the round trained under (`Replicated` for FL rounds).
    pub topology: ShardTopology,
    /// Cross-shard top-model sync charged this round, seconds (0 when no sync was due,
    /// a single shard serves the round, or the topology never syncs state).
    pub cross_sync_seconds: f64,
    /// Server-interconnect bytes the output-partitioned topology exchanged this round
    /// (per-iteration feature all-gather + split-gradient all-reduce, summed over the
    /// round's iterations; 0 under replication, whose server-plane cost is the periodic
    /// sync reported in `cross_sync_seconds`).
    pub exchange_bytes: f64,
    /// Server throughput the round's top-model steps were charged at, GFLOP/s: the
    /// architecture's `ModelProfile::server_gflops` for SFL rounds, the global
    /// `SERVER_GFLOPS` for FL rounds.
    pub server_gflops: f64,
    /// Dispatch-critical fraction of a server step the round was charged with (the
    /// architecture's `ModelProfile::server_critical_fraction` for SFL rounds).
    pub server_critical_fraction: f64,
    /// Bounded-staleness window `k` the round trained under (0 for the synchronous loop
    /// and FL rounds).
    pub staleness: usize,
    /// Histogram of observed top-model version lags this round (index = lag in optimizer
    /// steps, length `staleness + 1`); empty for synchronous rounds and FL rounds.
    pub version_lag: Vec<usize>,
    /// Pages held by the tensor memory pool at the end of the round (cumulative: pages
    /// are never freed, only recycled). 0 for pool-disabled runs.
    pub pool_pages: usize,
    /// Bytes held by the tensor memory pool at the end of the round. 0 for pool-disabled
    /// runs.
    pub pool_bytes: usize,
    /// Fraction of this round's pool checkouts served without a heap allocation
    /// (local hit or reservoir refill). 1.0 after warmup on the steady-state path;
    /// 0.0 for pool-disabled runs.
    pub pool_hit_rate: f64,
}

impl PartialEq for RoundRecord {
    fn eq(&self, other: &Self) -> bool {
        // Everything except the pool gauges (see the struct docs for why).
        self.round == other.round
            && self.sim_time == other.sim_time
            && self.accuracy == other.accuracy
            && self.train_loss == other.train_loss
            && self.avg_waiting_time == other.avg_waiting_time
            && self.round_makespan_barrier == other.round_makespan_barrier
            && self.round_makespan_pipelined == other.round_makespan_pipelined
            && self.traffic_mb == other.traffic_mb
            && self.participants == other.participants
            && self.total_batch == other.total_batch
            && self.cohort_kl == other.cohort_kl
            && self.fleet_registered == other.fleet_registered
            && self.fleet_active == other.fleet_active
            && self.shards == other.shards
            && self.topology == other.topology
            && self.cross_sync_seconds == other.cross_sync_seconds
            && self.exchange_bytes == other.exchange_bytes
            && self.server_gflops == other.server_gflops
            && self.server_critical_fraction == other.server_critical_fraction
            && self.staleness == other.staleness
            && self.version_lag == other.version_lag
    }
}

/// The full trace of one training run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Name of the approach that produced this run (e.g. "MergeSFL").
    pub approach: String,
    /// Dataset name (e.g. "CIFAR-10").
    pub dataset: String,
    /// Non-IID level `p` of the run.
    pub non_iid_level: f32,
    /// Per-round records, in order.
    pub records: Vec<RoundRecord>,
}

impl RunResult {
    /// Creates an empty result for an approach/dataset pair.
    pub fn new(approach: &str, dataset: &str, non_iid_level: f32) -> Self {
        Self {
            approach: approach.to_string(),
            dataset: dataset.to_string(),
            non_iid_level,
            records: Vec::new(),
        }
    }

    /// Appends a round record.
    pub fn push(&mut self, record: RoundRecord) {
        self.records.push(record);
    }

    /// The last recorded accuracy (0.0 if the model was never evaluated).
    pub fn final_accuracy(&self) -> f32 {
        self.records
            .iter()
            .rev()
            .find_map(|r| r.accuracy)
            .unwrap_or(0.0)
    }

    /// The best accuracy observed at any evaluation point.
    pub fn best_accuracy(&self) -> f32 {
        self.records
            .iter()
            .filter_map(|r| r.accuracy)
            .fold(0.0, f32::max)
    }

    /// Total simulated training time (seconds).
    pub fn total_sim_time(&self) -> f64 {
        self.records.last().map(|r| r.sim_time).unwrap_or(0.0)
    }

    /// Total network traffic (megabytes).
    pub fn total_traffic_mb(&self) -> f64 {
        self.records.last().map(|r| r.traffic_mb).unwrap_or(0.0)
    }

    /// Mean of the per-round average waiting times (seconds).
    pub fn mean_waiting_time(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.avg_waiting_time).sum::<f64>() / self.records.len() as f64
    }

    /// Sum of the per-round barrier makespans (seconds): the simulated run duration had
    /// every round been executed with the strict barrier schedule.
    pub fn total_barrier_makespan(&self) -> f64 {
        self.records.iter().map(|r| r.round_makespan_barrier).sum()
    }

    /// Sum of the per-round pipelined makespans (seconds): the simulated run duration with
    /// iteration-level overlap between worker and server compute.
    pub fn total_pipelined_makespan(&self) -> f64 {
        self.records
            .iter()
            .map(|r| r.round_makespan_pipelined)
            .sum()
    }

    /// Simulated time (seconds) at which the run first reached `target` accuracy, if ever.
    pub fn time_to_accuracy(&self, target: f32) -> Option<f64> {
        self.records
            .iter()
            .find(|r| r.accuracy.map(|a| a >= target).unwrap_or(false))
            .map(|r| r.sim_time)
    }

    /// Network traffic (megabytes) consumed when the run first reached `target` accuracy.
    pub fn traffic_to_accuracy(&self, target: f32) -> Option<f64> {
        self.records
            .iter()
            .find(|r| r.accuracy.map(|a| a >= target).unwrap_or(false))
            .map(|r| r.traffic_mb)
    }

    /// The (sim_time, accuracy) series of evaluation points — the curves of Figs. 6–7.
    pub fn accuracy_curve(&self) -> Vec<(f64, f32)> {
        self.records
            .iter()
            .filter_map(|r| r.accuracy.map(|a| (r.sim_time, a)))
            .collect()
    }

    /// Serialises the result as a JSON string (used by the bench binaries to persist runs).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.records.len() * 160);
        out.push_str("{\"approach\":");
        json::write_escaped(&mut out, &self.approach);
        out.push_str(",\"dataset\":");
        json::write_escaped(&mut out, &self.dataset);
        out.push_str(",\"non_iid_level\":");
        json::write_f64(&mut out, f64::from(self.non_iid_level));
        out.push_str(",\"records\":[");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            use std::fmt::Write as _;
            let _ = write!(out, "{{\"round\":{},\"sim_time\":", r.round);
            json::write_f64(&mut out, r.sim_time);
            out.push_str(",\"accuracy\":");
            match r.accuracy {
                Some(a) => json::write_f64(&mut out, f64::from(a)),
                None => out.push_str("null"),
            }
            out.push_str(",\"train_loss\":");
            json::write_f64(&mut out, f64::from(r.train_loss));
            out.push_str(",\"avg_waiting_time\":");
            json::write_f64(&mut out, r.avg_waiting_time);
            out.push_str(",\"round_makespan_barrier\":");
            json::write_f64(&mut out, r.round_makespan_barrier);
            out.push_str(",\"round_makespan_pipelined\":");
            json::write_f64(&mut out, r.round_makespan_pipelined);
            out.push_str(",\"traffic_mb\":");
            json::write_f64(&mut out, r.traffic_mb);
            let _ = write!(
                out,
                ",\"participants\":{},\"total_batch\":{},\"cohort_kl\":",
                r.participants, r.total_batch
            );
            json::write_f64(&mut out, f64::from(r.cohort_kl));
            let _ = write!(
                out,
                ",\"fleet_registered\":{},\"fleet_active\":{}",
                r.fleet_registered, r.fleet_active
            );
            out.push_str(",\"server_gflops\":");
            json::write_f64(&mut out, r.server_gflops);
            out.push_str(",\"server_critical_fraction\":");
            json::write_f64(&mut out, r.server_critical_fraction);
            out.push_str(",\"cross_sync_seconds\":");
            json::write_f64(&mut out, r.cross_sync_seconds);
            out.push_str(",\"topology\":");
            json::write_escaped(&mut out, r.topology.name());
            out.push_str(",\"exchange_bytes\":");
            json::write_f64(&mut out, r.exchange_bytes);
            let _ = write!(
                out,
                ",\"pool_pages\":{},\"pool_bytes\":{},\"pool_hit_rate\":",
                r.pool_pages, r.pool_bytes
            );
            json::write_f64(&mut out, r.pool_hit_rate);
            let _ = write!(out, ",\"staleness\":{},\"version_lag\":[", r.staleness);
            for (j, count) in r.version_lag.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{count}");
            }
            out.push(']');
            out.push_str(",\"shards\":[");
            for (j, s) in r.shards.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"shard\":{},\"participants\":{},\"batch\":{},\"ingress_seconds\":",
                    s.shard, s.participants, s.batch
                );
                json::write_f64(&mut out, s.ingress_seconds);
                out.push_str(",\"server_critical_seconds\":");
                json::write_f64(&mut out, s.server_critical_seconds);
                out.push_str(",\"server_overlap_seconds\":");
                json::write_f64(&mut out, s.server_overlap_seconds);
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Parses a result previously produced by [`RunResult::to_json`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let str_field = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field '{key}'"))
        };
        // `to_json` writes non-finite floats as `null` (JSON has no NaN/inf), so a float
        // field that parses as null round-trips back to NaN rather than failing — a
        // diverged run's trace must stay readable. Integer fields still reject null.
        let num = |value: &JsonValue, key: &str| -> Result<f64, String> {
            match value.get(key) {
                Some(JsonValue::Null) => Ok(f64::NAN),
                other => other
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("missing numeric field '{key}'")),
            }
        };
        let int = |value: &JsonValue, key: &str| -> Result<usize, String> {
            let n = value
                .get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("missing integer field '{key}'"))?;
            if n.is_finite() && n >= 0.0 {
                Ok(n as usize)
            } else {
                Err(format!("field '{key}' is not a valid non-negative integer"))
            }
        };
        let mut result = RunResult::new(&str_field("approach")?, &str_field("dataset")?, 0.0);
        result.non_iid_level = num(&doc, "non_iid_level")? as f32;
        let records = doc
            .get("records")
            .and_then(JsonValue::as_array)
            .ok_or("missing 'records' array")?;
        fn array<'a>(value: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], String> {
            value
                .get(key)
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("missing array field '{key}'"))
        }
        for r in records {
            let mut shards = Vec::new();
            for s in array(r, "shards")? {
                shards.push(ShardBreakdown {
                    shard: int(s, "shard")?,
                    participants: int(s, "participants")?,
                    batch: int(s, "batch")?,
                    ingress_seconds: num(s, "ingress_seconds")?,
                    server_critical_seconds: num(s, "server_critical_seconds")?,
                    server_overlap_seconds: num(s, "server_overlap_seconds")?,
                });
            }
            let mut version_lag = Vec::new();
            for e in array(r, "version_lag")? {
                let n = e.as_f64().ok_or("non-numeric 'version_lag' entry")?;
                if !n.is_finite() || n < 0.0 {
                    return Err(
                        "'version_lag' entry is not a valid non-negative integer".to_string()
                    );
                }
                version_lag.push(n as usize);
            }
            result.push(RoundRecord {
                round: int(r, "round")?,
                sim_time: num(r, "sim_time")?,
                accuracy: match r.get("accuracy") {
                    None => return Err("missing field 'accuracy'".to_string()),
                    Some(JsonValue::Null) => None,
                    Some(v) => Some(v.as_f64().ok_or("non-numeric 'accuracy'")? as f32),
                },
                train_loss: num(r, "train_loss")? as f32,
                avg_waiting_time: num(r, "avg_waiting_time")?,
                round_makespan_barrier: num(r, "round_makespan_barrier")?,
                round_makespan_pipelined: num(r, "round_makespan_pipelined")?,
                traffic_mb: num(r, "traffic_mb")?,
                participants: int(r, "participants")?,
                total_batch: int(r, "total_batch")?,
                cohort_kl: num(r, "cohort_kl")? as f32,
                fleet_registered: int(r, "fleet_registered")?,
                fleet_active: int(r, "fleet_active")?,
                shards,
                topology: r
                    .get("topology")
                    .and_then(JsonValue::as_str)
                    .and_then(ShardTopology::parse)
                    .ok_or("missing or unknown 'topology'")?,
                exchange_bytes: num(r, "exchange_bytes")?,
                cross_sync_seconds: num(r, "cross_sync_seconds")?,
                server_gflops: num(r, "server_gflops")?,
                server_critical_fraction: num(r, "server_critical_fraction")?,
                staleness: int(r, "staleness")?,
                pool_pages: int(r, "pool_pages")?,
                pool_bytes: int(r, "pool_bytes")?,
                pool_hit_rate: num(r, "pool_hit_rate")?,
                version_lag,
            });
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(round: usize, time: f64, acc: Option<f32>, traffic: f64) -> RoundRecord {
        RoundRecord {
            round,
            sim_time: time,
            accuracy: acc,
            train_loss: 1.0,
            avg_waiting_time: 2.0,
            round_makespan_barrier: 12.0,
            round_makespan_pipelined: 9.0,
            traffic_mb: traffic,
            participants: 5,
            total_batch: 40,
            cohort_kl: 0.01,
            fleet_registered: 100_000,
            fleet_active: 64,
            shards: vec![
                ShardBreakdown {
                    shard: 0,
                    participants: 3,
                    batch: 24,
                    ingress_seconds: 0.004,
                    server_critical_seconds: 0.002,
                    server_overlap_seconds: 0.001,
                },
                ShardBreakdown {
                    shard: 1,
                    participants: 2,
                    batch: 16,
                    ingress_seconds: 0.003,
                    server_critical_seconds: 0.0015,
                    server_overlap_seconds: 0.0008,
                },
            ],
            topology: if round % 2 == 1 {
                ShardTopology::OutputPartitioned
            } else {
                ShardTopology::Replicated
            },
            exchange_bytes: if round % 2 == 1 { 81_920.0 } else { 0.0 },
            cross_sync_seconds: if round % 2 == 1 { 0.006 } else { 0.0 },
            server_gflops: 450.25,
            server_critical_fraction: 0.7,
            staleness: if round % 2 == 1 { 2 } else { 0 },
            version_lag: if round % 2 == 1 {
                vec![1, 3, 12]
            } else {
                Vec::new()
            },
            pool_pages: 17,
            pool_bytes: 1_048_576,
            pool_hit_rate: 0.96875,
        }
    }

    fn sample_run() -> RunResult {
        let mut r = RunResult::new("MergeSFL", "CIFAR-10", 10.0);
        r.push(record(0, 10.0, Some(0.2), 5.0));
        r.push(record(1, 20.0, None, 10.0));
        r.push(record(2, 30.0, Some(0.5), 15.0));
        r.push(record(3, 40.0, Some(0.6), 20.0));
        r
    }

    #[test]
    fn final_and_best_accuracy() {
        let r = sample_run();
        assert_eq!(r.final_accuracy(), 0.6);
        assert_eq!(r.best_accuracy(), 0.6);
        assert_eq!(r.total_sim_time(), 40.0);
        assert_eq!(r.total_traffic_mb(), 20.0);
    }

    #[test]
    fn time_and_traffic_to_accuracy() {
        let r = sample_run();
        assert_eq!(r.time_to_accuracy(0.5), Some(30.0));
        assert_eq!(r.traffic_to_accuracy(0.5), Some(15.0));
        assert_eq!(r.time_to_accuracy(0.9), None);
    }

    #[test]
    fn accuracy_curve_skips_unevaluated_rounds() {
        let r = sample_run();
        let curve = r.accuracy_curve();
        assert_eq!(curve.len(), 3);
        assert_eq!(curve[1], (30.0, 0.5));
    }

    #[test]
    fn empty_run_is_safe() {
        let r = RunResult::new("FedAvg", "HAR", 0.0);
        assert_eq!(r.final_accuracy(), 0.0);
        assert_eq!(r.total_sim_time(), 0.0);
        assert_eq!(r.mean_waiting_time(), 0.0);
        assert!(r.time_to_accuracy(0.1).is_none());
    }

    #[test]
    fn json_roundtrip() {
        let r = sample_run();
        let json = r.to_json();
        let back = RunResult::from_json(&json).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.approach, "MergeSFL");
    }

    #[test]
    fn json_roundtrip_preserves_unevaluated_rounds() {
        let r = sample_run();
        let back = RunResult::from_json(&r.to_json()).unwrap();
        assert_eq!(back.records[1].accuracy, None);
        assert_eq!(back.records[0].accuracy, Some(0.2));
    }

    #[test]
    fn json_roundtrip_survives_non_finite_losses() {
        // A diverged run writes NaN/inf floats as `null`; parsing must map them back to
        // NaN instead of rejecting the document, so the trace stays readable.
        let mut r = sample_run();
        r.records[1].train_loss = f32::NAN;
        r.records[2].avg_waiting_time = f64::INFINITY;
        let back = RunResult::from_json(&r.to_json()).unwrap();
        assert!(back.records[1].train_loss.is_nan());
        assert!(back.records[2].avg_waiting_time.is_nan());
        assert_eq!(back.records[0], r.records[0]);
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        assert!(RunResult::from_json("not json").is_err());
        assert!(RunResult::from_json("{}").is_err());
        assert!(RunResult::from_json(r#"{"approach":"A","dataset":"B"}"#).is_err());
    }

    #[test]
    fn json_roundtrip_preserves_the_per_shard_breakdown() {
        let r = sample_run();
        let back = RunResult::from_json(&r.to_json()).unwrap();
        assert_eq!(back.records[0].shards.len(), 2);
        assert_eq!(back.records[0].shards[1].shard, 1);
        assert_eq!(back.records[0].shards[1].batch, 16);
        assert_eq!(back.records[0].shards[0].ingress_seconds, 0.004);
        assert_eq!(back.records[1].cross_sync_seconds, 0.006);
        assert_eq!(back.records[0].topology, ShardTopology::Replicated);
        assert_eq!(back.records[1].topology, ShardTopology::OutputPartitioned);
        assert_eq!(back.records[0].exchange_bytes, 0.0);
        assert_eq!(back.records[1].exchange_bytes, 81_920.0);
        assert_eq!(back.records[0].server_gflops, 450.25);
        assert_eq!(back.records[0].server_critical_fraction, 0.7);
        assert_eq!(back, r);
    }

    /// Serialises a parsed document back to text (test-only inverse of `json::parse`).
    fn write_value(value: &JsonValue, out: &mut String) {
        match value {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => json::write_f64(out, *n),
            JsonValue::String(s) => json::write_escaped(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_value(item, out);
                }
                out.push(']');
            }
            JsonValue::Object(map) => {
                out.push('{');
                for (i, (key, item)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    json::write_escaped(out, key);
                    out.push(':');
                    write_value(item, out);
                }
                out.push('}');
            }
        }
    }

    #[test]
    fn every_record_field_is_required() {
        // `to_json` writes every field, so a record missing any one key was not written
        // by it and must be rejected rather than silently defaulted.
        let doc = json::parse(&sample_run().to_json()).unwrap();
        let mut text = String::new();
        write_value(&doc, &mut text);
        assert_eq!(RunResult::from_json(&text).unwrap(), sample_run());
        let keys: Vec<String> = match &doc.get("records").unwrap().as_array().unwrap()[0] {
            JsonValue::Object(map) => map.keys().cloned().collect(),
            other => panic!("record is not an object: {other:?}"),
        };
        assert_eq!(keys.len(), 24, "one key per RoundRecord field: {keys:?}");
        for key in &keys {
            let mut pruned = doc.clone();
            let JsonValue::Object(top) = &mut pruned else {
                unreachable!()
            };
            let Some(JsonValue::Array(records)) = top.get_mut("records") else {
                unreachable!()
            };
            let JsonValue::Object(record) = &mut records[0] else {
                unreachable!()
            };
            record.remove(key);
            let mut text = String::new();
            write_value(&pruned, &mut text);
            let err = RunResult::from_json(&text).expect_err(key);
            assert!(err.contains(key.as_str()), "{key}: {err}");
        }
    }

    #[test]
    fn json_roundtrip_preserves_the_version_lag_histogram() {
        let r = sample_run();
        let back = RunResult::from_json(&r.to_json()).unwrap();
        assert_eq!(back.records[0].staleness, 0);
        assert!(back.records[0].version_lag.is_empty());
        assert_eq!(back.records[1].staleness, 2);
        assert_eq!(back.records[1].version_lag, vec![1, 3, 12]);
        assert_eq!(back, r);
    }

    #[test]
    fn json_roundtrip_preserves_the_pool_gauges() {
        // Equality ignores the pool gauges, so their roundtrip is pinned field by field.
        let r = sample_run();
        let back = RunResult::from_json(&r.to_json()).unwrap();
        for rec in &back.records {
            assert_eq!(rec.pool_pages, 17);
            assert_eq!(rec.pool_bytes, 1_048_576);
            assert_eq!(rec.pool_hit_rate, 0.96875);
        }
    }

    #[test]
    fn equality_compares_the_trajectory_not_the_pool_gauges() {
        // Two same-seed runs in one process see different pool warmth (first run fills
        // the arena, second run hits it), so trace equality must not depend on the
        // gauges — but any trajectory field still breaks it.
        let r = sample_run();
        let mut warm = r.clone();
        warm.records[0].pool_pages = 0;
        warm.records[0].pool_bytes = 0;
        warm.records[0].pool_hit_rate = 0.0;
        assert_eq!(warm, r);
        let mut diverged = r.clone();
        diverged.records[0].train_loss += 1.0;
        assert_ne!(diverged, r);
    }

    #[test]
    fn json_roundtrip_preserves_the_fleet_gauges() {
        // Unlike the pool gauges, the fleet gauges are part of the trajectory: a planner
        // that touched a different number of registry records made different decisions.
        let r = sample_run();
        let back = RunResult::from_json(&r.to_json()).unwrap();
        for rec in &back.records {
            assert_eq!(rec.fleet_registered, 100_000);
            assert_eq!(rec.fleet_active, 64);
        }
        let mut diverged = r.clone();
        diverged.records[0].fleet_active += 1;
        assert_ne!(diverged, r, "fleet gauges must participate in equality");
    }

    #[test]
    fn mean_waiting_time_averages_rounds() {
        let r = sample_run();
        assert!((r.mean_waiting_time() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn makespan_totals_sum_per_round_makespans() {
        let r = sample_run();
        assert!((r.total_barrier_makespan() - 48.0).abs() < 1e-9);
        assert!((r.total_pipelined_makespan() - 36.0).abs() < 1e-9);
        let back = RunResult::from_json(&r.to_json()).unwrap();
        assert_eq!(back.records[0].round_makespan_barrier, 12.0);
        assert_eq!(back.records[0].round_makespan_pipelined, 9.0);
    }
}
