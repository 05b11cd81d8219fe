//! The benchmark's inputs come from its flags alone: exporting the repo's environment
//! knobs changes neither the trajectory nor the thread count, and correctness failures
//! and misuse surface in the exit status.

use mergesfl::json::{self, JsonValue};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_mergesfl-benchmark");

/// The cheapest workload, three timed runs, full JSON report.
fn speech(envs: &[(&str, &str)]) -> JsonValue {
    let mut cmd = Command::new(BIN);
    cmd.args([
        "--workload",
        "speech_seq_t1",
        "--seed",
        "7",
        "--repeats",
        "3",
        "--json",
    ]);
    for (key, value) in envs {
        cmd.env(key, value);
    }
    let output = cmd.output().expect("the benchmark binary starts");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 report");
    json::parse(stdout.lines().last().expect("a report line")).expect("a JSON report")
}

#[test]
fn environment_knobs_change_neither_trajectory_nor_threads() {
    let plain = speech(&[]);
    let exported = speech(&[
        ("MERGESFL_KERNELS", "naive"),
        ("MERGESFL_PIPELINE", "on"),
        ("MERGESFL_FLEET", "7"),
        ("MERGESFL_TENSOR_POOL", "off"),
        ("MERGESFL_TILING", "stages=1"),
        ("MERGESFL_NUM_SERVERS", "3"),
        ("RAYON_NUM_THREADS", "7"),
    ]);
    for key in [
        "trajectory_hash",
        "threads",
        "final_accuracy",
        "work_per_round",
        "correct",
    ] {
        assert_eq!(
            plain.get(key),
            exported.get(key),
            "`{key}` moved with the environment"
        );
    }
    assert_eq!(plain.get("threads").and_then(JsonValue::as_f64), Some(1.0));
    assert_eq!(plain.get("correct"), Some(&JsonValue::Bool(true)));
}

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("the benchmark binary starts")
}

#[test]
fn driver_form_ends_with_the_four_key_result_line() {
    let output = run(&[
        "--workload",
        "speech_seq_t1",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    let JsonValue::Object(result) = json::parse(stdout.lines().last().unwrap()).unwrap() else {
        panic!("the last line is a JSON object");
    };
    let keys: Vec<&str> = result.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result["correct"], JsonValue::Bool(true));
    assert_eq!(result["failed"], JsonValue::Number(0.0));
    assert!(result["attempted"].as_f64().unwrap() >= 8.0);
    let setup = result["metrics"]
        .get("setup_s")
        .expect("setup_s is always reported");
    assert!(setup.get("value").and_then(JsonValue::as_f64).unwrap() > 0.0);
    assert_eq!(setup.get("unit").and_then(JsonValue::as_str), Some("s"));
}

#[test]
fn misuse_exits_non_zero_without_a_result() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--seconds", "0"],
        &["--frobnicate"],
        &["--compare", "/nonexistent/a.json", "/nonexistent/b.json"],
    ] {
        let output = run(args);
        assert!(!output.status.success(), "{args:?} must fail");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
