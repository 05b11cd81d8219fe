#!/usr/bin/env bash
# Builds the benchmark package (release, offline) and runs it with the arguments given.
#
#   benchmark/run.sh                      every workload, 40 timed runs each, tables
#   benchmark/run.sh --trace --json       the same plus the per-layer metrics, as one JSON line
#   benchmark/run.sh --workload cifar_merge_t1 --seed 7 --seconds 20 --trace 0    (the driver's form)
#   benchmark/run.sh --compare a.json b.json
#
# Build output goes to target/benchmark at the repo root (git-ignored, and outside what
# mergesfl-lint scans), or to CARGO_TARGET_DIR when the caller sets it. Cargo's own
# progress goes to stderr; stdout carries only the benchmark's report.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../target/benchmark}"
cargo build --release --offline --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/mergesfl-benchmark" "$@"
