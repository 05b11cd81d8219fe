//! The benchmark package (`benchmark/`) sits outside the cargo workspace and compiles
//! unmodified against the workspace's public API (`ShardedServer::begin_step` and
//! `finish_step`, the engines, the data and simnet crates). A workspace change that
//! breaks one of those names would otherwise pass every workspace test and fail only
//! when the benchmark is built; this test type-checks the benchmark so the break shows
//! here. It checks into its own target directory, so it never contends with the lock of
//! the build that runs it.

use std::path::Path;
use std::process::Command;

#[test]
fn benchmark_package_type_checks_against_the_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let output = Command::new(env!("CARGO"))
        .current_dir(root)
        .args([
            "check",
            "--offline",
            "--quiet",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--target-dir",
            "target/benchmark",
        ])
        .output()
        .expect("failed to start cargo");
    assert!(
        output.status.success(),
        "`cargo check` of the benchmark package failed ({}):\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
}
