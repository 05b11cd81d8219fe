//! The repo benchmark: wall-clock round time and memory of four training workloads, with
//! an outside-in phase/layer replay trace. See `README.md` beside this package and
//! `BENCHMARK.json` at the repo root.
//!
//! Configuration is command-line flags only; the process reads no environment variable.

#![forbid(unsafe_code)]

mod compare;
mod hash;
mod layers;
mod measure;
mod replay;
mod report;
mod span;
mod stats;
mod trace;
mod workloads;

use measure::{Budget, Measurement};
use report::{Measured, WorkloadReport, END_TO_END, PER_LAYER};
use stats::median_and_quartiles;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;
use workloads::{Workload, WORKLOADS};

/// Allocation counts are read only around the traced replay; the counter's constant
/// cost is the same on every commit the benchmark compares.
#[global_allocator]
static ALLOC: mergesfl_nn::pool::CountingAlloc = mergesfl_nn::pool::CountingAlloc;

const USAGE: &str = "usage: mergesfl-benchmark [--workload NAME] [--seed N] [--seconds S | --repeats N] [--trace [0|1]] [--json]
       mergesfl-benchmark --compare A.json B.json

  --workload NAME  run one workload in this process (default: every workload, each in a process of its own)
  --seed N         seed of the generated configuration (default 42)
  --seconds S      keep starting timed runs for S seconds (the driver's form)
  --repeats N      make exactly N timed runs (default 40 when --seconds is absent)
  --trace [0|1]    add the phase replay, layer profile and counters; the timed runs then get 40 % of --seconds
  --json           print JSON instead of tables (one line; ends with \"claim\": null for a full set)
  --compare A B    compare two files of --json sets, a as base; exit 0 ok, 1 regressed, 2 unresolved";

/// Timed runs made when neither `--seconds` nor `--repeats` is given: enough for ten
/// samples beyond p75.
const DEFAULT_REPEATS: usize = stats::P75_MIN_SAMPLES;

/// Shares of `--seconds` a traced run gives to the timed runs and to the replays.
const TRACED_TIMED_SHARE: f64 = 0.4;
const TRACED_REPLAY_SHARE: f64 = 0.4;

/// Wall-clock the replays get when the budget is a run count.
const REPLAY_SECONDS_DEFAULT: f64 = 5.0;

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    repeats: Option<usize>,
    trace: bool,
    json: bool,
    compare: Option<(String, String)>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 42,
        seconds: None,
        repeats: None,
        trace: false,
        json: false,
        compare: None,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--workload" => o.workload = Some(value(&mut i, flag)?),
            "--seed" => {
                o.seed = value(&mut i, flag)?
                    .parse()
                    .map_err(|_| "--seed takes a non-negative whole number".to_string())?
            }
            "--seconds" => {
                let s: f64 = value(&mut i, flag)?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
                o.seconds = Some(s);
            }
            "--repeats" => {
                let n: usize = value(&mut i, flag)?
                    .parse()
                    .map_err(|_| "--repeats takes a whole number".to_string())?;
                if n == 0 || n > 10_000 {
                    return Err("--repeats must be in [1, 10000]".to_string());
                }
                o.repeats = Some(n);
            }
            "--trace" => {
                o.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                }
            }
            "--json" => o.json = true,
            "--compare" => o.compare = Some((value(&mut i, flag)?, value(&mut i, flag)?)),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if let Some(name) = &o.workload {
        if workloads::find(name).is_none() {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload `{name}`; one of {}",
                names.join(", ")
            ));
        }
    }
    Ok(o)
}

fn measured(value: f64, unit: &str, quartiles: Option<(f64, f64)>) -> Measured {
    Measured {
        value,
        unit: unit.to_string(),
        quartiles,
    }
}

fn end_to_end_values(workload: &Workload, m: &Measurement) -> BTreeMap<String, Measured> {
    let unit = |name: &str| report::end_to_end_def(name).map_or("", |d| d.unit);
    // Interference on a shared host only ever adds time, and set-up is tens of
    // milliseconds: its lower quartile ranged half as far as its median over same-code
    // sets (README, "Bound evidence"), so that is the figure reported.
    let (_, setup_q) = median_and_quartiles(&m.setup_s);
    let round_ms = m.round_ms(workload.reference_work_per_round);
    let (p50, round_q) = median_and_quartiles(&round_ms);
    let (throughput, throughput_q) = median_and_quartiles(&m.samples_per_s());
    let mut values = BTreeMap::new();
    let mut put = |name: &str, value: f64, quartiles: Option<(f64, f64)>| {
        values.insert(name.to_string(), measured(value, unit(name), quartiles));
    };
    put("setup_s", setup_q.0, Some(setup_q));
    put("round_ms_p50", p50, Some(round_q));
    put("samples_per_s", throughput, Some(throughput_q));
    put("peak_rss_mb", m.rss_at_min_runs.peak_mb, None);
    put("rss_growth_mb_per_run", m.rss_growth_mb_per_run(), None);
    values
}

/// Measures one workload in this process.
fn run_workload(workload: &Workload, o: &Options) -> WorkloadReport {
    let timed_share = if o.trace { TRACED_TIMED_SHARE } else { 1.0 };
    let budget = match (o.repeats, o.seconds) {
        (Some(n), _) => Budget::Runs(n),
        (None, Some(s)) => Budget::Time(Duration::from_secs_f64(s * timed_share)),
        (None, None) => Budget::Runs(DEFAULT_REPEATS),
    };
    eprintln!("[benchmark] {}: {}", workload.name, workload.why);
    let m = measure::measure(workload, o.seed, budget);
    let mut report = WorkloadReport {
        workload: workload.name.to_string(),
        seed: o.seed,
        threads: workloads::TIMED_THREADS,
        n: m.run_s.len(),
        tail_percentile: stats::supported_tail_percentile(m.run_s.len()),
        attempted: m.attempted,
        failed: m.failed,
        correct: m.correct(),
        trajectory_hash: format!("{:016x}", m.trajectory_hash),
        final_accuracy: f64::from(m.final_accuracy),
        work_per_round: m.work_per_run / m.rounds as f64,
        raw_round_ms_p50: m.raw_round_ms_p50(),
        end_to_end: end_to_end_values(workload, &m),
        per_layer: BTreeMap::new(),
    };
    if o.trace && !m.run_s.is_empty() {
        let replay_seconds = o
            .seconds
            .map_or(REPLAY_SECONDS_DEFAULT, |s| s * TRACED_REPLAY_SHARE);
        let traced = trace::trace(
            workload,
            o.seed,
            &m,
            Duration::from_secs_f64(replay_seconds),
        );
        for def in PER_LAYER {
            // A metric the trace did not produce stays out, and `main` reports the hole.
            if let Some(&value) = traced.values.get(def.name) {
                report
                    .per_layer
                    .insert(def.name.to_string(), measured(value, def.unit, None));
            }
        }
        report.attempted += traced.twin_runs;
        report.failed += traced.twin_failures;
        report.correct &= traced.twin_failures == 0;
        write_spans(workload.name, &traced.spans_jsonl);
    }
    report
}

/// Writes the spans next to the executable, which is inside the build directory.
fn write_spans(workload: &str, jsonl: &str) {
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|p| p.to_path_buf()))
    else {
        return;
    };
    let path = dir.join(format!("trace-{workload}.jsonl"));
    match std::fs::write(&path, jsonl) {
        Ok(()) => eprintln!("[benchmark] spans written to {}", path.display()),
        Err(e) => eprintln!("[benchmark] could not write {}: {e}", path.display()),
    }
}

/// Runs every workload, each in a process of its own, and collects their reports.
fn run_all(o: &Options) -> Result<Vec<WorkloadReport>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut reports = Vec::with_capacity(WORKLOADS.len());
    for workload in &WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args([
            "--workload",
            workload.name,
            "--json",
            "--seed",
            &o.seed.to_string(),
        ]);
        if let Some(n) = o.repeats {
            cmd.args(["--repeats", &n.to_string()]);
        } else if let Some(s) = o.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        if o.trace {
            cmd.args(["--trace", "1"]);
        }
        eprintln!("[benchmark] running {}", workload.name);
        let output = cmd
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", workload.name))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout
            .lines()
            .last()
            .ok_or_else(|| format!("{}: no output", workload.name))?;
        let parsed = mergesfl::json::parse(line).map_err(|e| format!("{}: {e}", workload.name))?;
        reports.push(WorkloadReport::from_json(&parsed)?);
    }
    Ok(reports)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse_args(&args) {
        Ok(o) => o,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    if let Some((a, b)) = &o.compare {
        return match (compare::read_sets(a), compare::read_sets(b)) {
            (Ok(a), Ok(b)) => {
                let (table, worst) = compare::compare(&a, &b);
                print!("{table}");
                println!("result: {worst:?}");
                match worst {
                    compare::Verdict::Ok => ExitCode::SUCCESS,
                    compare::Verdict::Regressed => ExitCode::from(1),
                    compare::Verdict::Unresolved => ExitCode::from(2),
                }
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("error: {e}");
                ExitCode::from(3)
            }
        };
    }

    let reports = match &o.workload {
        Some(name) => {
            let workload = workloads::find(name).expect("parse_args checked the name");
            let report = run_workload(workload, &o);
            if o.json {
                println!("{}", report.to_json());
            } else {
                print!("{}", report.table());
                println!("{}", report.contract_line(o.trace));
            }
            vec![report]
        }
        None => match run_all(&o) {
            Ok(reports) => {
                if o.json {
                    println!("{}", report::summary_json(o.seed, &reports));
                } else {
                    println!("host {}", report::host_json());
                    for report in &reports {
                        print!("{}", report.table());
                    }
                    println!("claim: none (this benchmark measures; it claims no gain)");
                }
                reports
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(3);
            }
        },
    };

    // Every metric definition must have been reported; a hole is a bug here, not a result.
    let complete = reports.iter().all(|r| {
        END_TO_END.iter().all(|d| r.end_to_end.contains_key(d.name))
            && (!o.trace || PER_LAYER.iter().all(|d| r.per_layer.contains_key(d.name)))
    });
    if reports.iter().all(|r| r.correct) && complete {
        ExitCode::SUCCESS
    } else {
        eprintln!("[benchmark] FAILED: a run was incorrect or a metric is missing");
        ExitCode::from(1)
    }
}
