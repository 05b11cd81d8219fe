//! The single home for environment reads — every `MERGESFL_*` knob, documented.
//!
//! Every environment read goes through this module — the root `clippy.toml`
//! disallows raw `std::env::var` / `var_os` / `vars`, and [`var`] here and the rayon
//! shim (which cannot depend on this crate) are the only reads excused with an
//! `#[expect]` — for two reasons:
//!
//! 1. **Allocation.** `std::env::var` clones the value on every successful read —
//!    PR 7's alloc gate caught exactly one steady-state allocation hiding inside a
//!    per-iteration env read. Funnelling reads through here makes them easy to
//!    audit; hot-path callers must still cache the result (`OnceLock`, atomics),
//!    never call [`var`] per iteration.
//! 2. **Discoverability.** Scattered reads mean no one can enumerate the knobs.
//!    The table below is the authoritative list; adding a knob means adding a row
//!    (`tests/knobs.rs` holds the table to the code, README.md and CI).
//!
//! The eleven run knobs are read in one place, `RunConfig::with_env_overrides`
//! (`mergesfl::config`), which only the figure binaries and the examples call: the
//! presets, the libraries, the tests and the benchmark read nothing. An unset or empty
//! knob keeps the preset's value; any other value must parse ([`switch`], [`integer`],
//! [`parsed`]) or the run panics naming the knob and the values it accepts.
//!
//! The last column says what setting a knob changes — trajectory, simulated clock,
//! traffic, allocations, or nothing — and names the test that pins each "same
//! trajectory" claim; a claim no test pins is marked unverified.
//!
//! | Variable | Read by | Meaning | Changes |
//! |---|---|---|---|
//! | `MERGESFL_PIPELINE` | `RunConfig::with_env_overrides` | simulated-clock schedule: `on` charges the pipelined makespan, `off` (default) the barrier one. Execution and trajectories are the same either way | the simulated clock only; same trajectory and traffic (`determinism::pipelined_matches_barrier_trajectory_bit_for_bit`) |
//! | `MERGESFL_KERNELS` | `RunConfig::with_env_overrides` | compute backend: `blocked` (default) or `naive` (the oracle) | nothing: blocked and naive kernels agree bit for bit (`kernel_parity::{gemm,conv2d,conv1d}_matches_naive_across_shapes`); unverified for whole runs in tier-1 (the benchmark's naive oracle holds losses within 1e-4) |
//! | `MERGESFL_MICROKERNEL` | `RunConfig::with_env_overrides` | force a GEMM micro-kernel: `portable`/`avx`/`avx512`/`avx512w` (unavailable ones fall back to portable; default: widest available) | nothing: `portable` gives the same run (`determinism::forced_portable_micro_kernel_is_bit_identical_to_auto`), and every kernel the same bits (`kernel_parity::parity_matrix_micro_kernel_by_scheme_by_layout`); the SIMD kernels are unverified for whole runs |
//! | `MERGESFL_TILING` | `RunConfig::with_env_overrides` | tiling-scheme override for packed GEMMs: `mc=..,kc=..,nc=..,tile=MRxNR` (any subset; default: per-shape selection); an unknown key or a malformed value panics | nothing: every scheme gives the same kernel bits (`kernel_parity::parity_matrix_micro_kernel_by_scheme_by_layout`); unverified for whole runs |
//! | `MERGESFL_TENSOR_POOL` | `RunConfig::with_env_overrides` | pooled tensor memory: `on` (default) or `off` | allocations only; same trajectory (`determinism::tensor_pool_is_bit_identical_across_the_execution_matrix`) |
//! | `MERGESFL_NUM_SERVERS` | `RunConfig::with_env_overrides` | number of top-model shards (integer ≥ 1, default 1) | above 1: trajectory, clock and traffic under `replicated`; clock and traffic only under `partitioned` (`determinism::output_partitioned_shards_are_bit_identical_to_the_single_server`) |
//! | `MERGESFL_SYNC_EVERY` | `RunConfig::with_env_overrides` | rounds between cross-shard synchronisations (integer ≥ 1, default 1) | nothing at one server (`determinism::single_shard_is_bit_identical_to_the_reference_across_the_full_matrix`); trajectory, clock and traffic with replicated shards |
//! | `MERGESFL_STALENESS` | `RunConfig::with_env_overrides` | bounded-staleness window (integer ≥ 0; default 0 = fully synchronous) | above 0: trajectory and clock (`convergence::{positive_staleness_changes_the_trajectory, stale_pipelined_rounds_finish_earlier_than_synchronous_pipelining}`) |
//! | `MERGESFL_TOPOLOGY` | `RunConfig::with_env_overrides` | server-shard topology: `replicated` (default) or `partitioned` / `output-partitioned` | with several servers, `partitioned` keeps the one-server model trajectory and changes clock and traffic (`determinism::output_partitioned_shards_are_bit_identical_to_the_single_server`); unverified at one server |
//! | `MERGESFL_FLEET` | `RunConfig::with_env_overrides` | registered fleet size (integer ≥ num_workers; default: the classic dense regime) | above `num_workers`: trajectory, clock, traffic and allocations; nothing at `num_workers` (`determinism::trivial_fleet_is_bit_identical_to_the_classic_path_across_the_matrix`) |
//! | `MERGESFL_CHURN` | `RunConfig::with_env_overrides` | availability churn: `on` or `off` (default) | `on`: trajectory, clock and traffic (client availability and mid-round dropout) |
//! | `MERGESFL_PERF_FLOOR` | `kernel_bench` | fraction of the committed baseline's gate speedup a fresh `--check` run must reach (positive number, default 0.70); any other value fails `--check` | nothing in a run: only the pass threshold of `kernel_bench --check` |
//! | `MERGESFL_SCALE` | `mergesfl_bench` | experiment scale: `quick` (default; also when unset or empty) / `standard` / `paper`; any other value panics | everything: it picks the preset |
//! | `MERGESFL_JSON` | `mergesfl_bench` | JSON-lines output: `on` adds a `JSON {...}` line per run to the tables, `off` (default) prints tables only; any other value panics | nothing but output: adds lines to stdout; unverified (no test compares the tables with and without it) |
//! | `MERGESFL_DATASETS` | `mergesfl_bench` | comma-separated dataset filter over `har`, `speech`, `cifar10` / `cifar`, `image100` / `image` (default: all four); any other token panics | which runs execute; that each run is the same is unverified |
//! | `RAYON_NUM_THREADS` | rayon shim | worker-thread cap (read directly by the shim) | nothing but wall-clock and allocations (thread spawns): kernels give the same bits at 1 and 4 threads (`kernels::pool::tests::plane_fan_out_matches_the_single_thread_scan`), and fanned-out runs equal sequential ones (`determinism::parallel_matches_sequential_exactly_for_sfl`); unverified across thread counts for whole runs |

/// Reads `name`, returning `None` when unset or not valid Unicode.
///
/// Allocates on success (it clones the value) — never call per iteration; cache
/// the result at setup time.
#[expect(
    clippy::disallowed_methods,
    reason = "the one sanctioned environment read; every knob is documented above"
)]
pub fn var(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// The trimmed value of `knob`; `None` when it is unset or empty, so the caller keeps
/// its default.
pub fn setting(knob: &str) -> Option<String> {
    let value = var(knob)?.trim().to_owned();
    (!value.is_empty()).then_some(value)
}

/// A set `knob` read through `parse`. A value `parse` rejects panics naming the knob and
/// the `accepted` values, instead of silently meaning the default.
pub fn parsed<T>(knob: &str, accepted: &str, parse: impl FnOnce(&str) -> Option<T>) -> Option<T> {
    let value = setting(knob)?;
    let reject = || panic!("{knob}={value:?} is not a valid setting; accepted values: {accepted}");
    Some(parse(&value).unwrap_or_else(reject))
}

/// An on/off knob: `on`/`1`/`true` or `off`/`0`/`false`, ASCII case-insensitive.
pub fn switch(knob: &str) -> Option<bool> {
    parsed(knob, "on, 1, true, off, 0, false", |v| {
        match v.to_ascii_lowercase().as_str() {
            "on" | "1" | "true" => Some(true),
            "off" | "0" | "false" => Some(false),
            _ => None,
        }
    })
}

/// An integer knob of at least `min`.
pub fn integer(knob: &str, min: usize) -> Option<usize> {
    let accepted = format!("an integer >= {min}");
    parsed(knob, &accepted, |v| v.parse().ok().filter(|&n| n >= min))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Env vars are process-global; serialise the tests that mutate them.
    static LOCK: Mutex<()> = Mutex::new(());

    /// Reads `knob` through `read` with it set to each of `values` in turn.
    fn read_each<T>(knob: &str, values: &[&str], read: impl Fn() -> T) -> Vec<T> {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let read = values.iter().map(|value| {
            std::env::set_var(knob, value);
            read()
        });
        let values = read.collect();
        std::env::remove_var(knob);
        values
    }

    #[test]
    fn unset_and_empty_knobs_keep_the_default() {
        let knob = "MERGESFL_ENV_TEST_A";
        let read = || (setting(knob), switch(knob), integer(knob, 1));
        assert_eq!(read(), (None, None, None));
        assert_eq!(
            read_each(knob, &["", " "], read),
            [(None, None, None), (None, None, None)]
        );
    }

    #[test]
    fn every_accepted_spelling_parses() {
        let knob = "MERGESFL_ENV_TEST_B";
        let trimmed = read_each(knob, &[" x "], || setting(knob));
        assert_eq!(trimmed, [Some("x".to_owned())]);
        let on = ["on", "1", "true", "ON", " True "];
        assert_eq!(read_each(knob, &on, || switch(knob)), [Some(true); 5]);
        let off = ["off", "0", "false", "OFF", "False"];
        assert_eq!(read_each(knob, &off, || switch(knob)), [Some(false); 5]);
        assert_eq!(read_each(knob, &["0"], || integer(knob, 0)), [Some(0)]);
        let at_least_one = read_each(knob, &["1", " 16"], || integer(knob, 1));
        assert_eq!(at_least_one, [Some(1), Some(16)]);
    }

    #[test]
    #[should_panic(expected = "MERGESFL_ENV_TEST_C=\"0\" is not a valid setting; \
                               accepted values: an integer >= 1")]
    fn a_value_below_the_minimum_panics_naming_the_knob() {
        // The variable outlives the panic; no other test reads it.
        let knob = "MERGESFL_ENV_TEST_C";
        read_each(knob, &["0"], || integer(knob, 1));
    }
}
