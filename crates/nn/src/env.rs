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
//!    The table below is the authoritative list; adding a knob means adding a row.
//!
//! | Variable | Read by | Meaning |
//! |---|---|---|
//! | `MERGESFL_PIPELINE` | `mergesfl::config` | simulated-clock schedule: `on`/`1`/`true` charges the pipelined makespan, `off`/`0`/`false` (default; also when unset or empty) the barrier one; any other value panics. Execution and trajectories are the same either way |
//! | `MERGESFL_KERNELS` | `mergesfl_nn::kernels` | `naive` selects the oracle backend (default: blocked) |
//! | `MERGESFL_MICROKERNEL` | `mergesfl_nn::kernels::runtime`, `mergesfl::config` | force a GEMM micro-kernel: `portable`/`avx`/`avx512`/`avx512w` (unavailable ones fall back to portable; default, also when unset or empty: widest available); any other value panics |
//! | `MERGESFL_TILING` | `mergesfl_nn::kernels::runtime`, `mergesfl::config` | tiling-scheme override for packed GEMMs: `mc=..,kc=..,nc=..,tile=MRxNR` (any subset; default, also when unset or empty: per-shape selection); an unknown key or a malformed value panics, and `stages=1` is accepted and changes nothing |
//! | `MERGESFL_TENSOR_POOL` | `mergesfl::config`, `mergesfl_nn::pool` | `off`/`0`/`false` disables pooled tensor memory |
//! | `MERGESFL_COUNT_ALLOCS` | `mergesfl_nn::pool` | `1`/`on`/`true` enables the counting global allocator |
//! | `MERGESFL_NUM_SERVERS` | `mergesfl::config` | number of top-model shards (integer ≥ 1) |
//! | `MERGESFL_SYNC_EVERY` | `mergesfl::config` | rounds between full synchronisations |
//! | `MERGESFL_STALENESS` | `mergesfl::config` | bounded-staleness window (0 = fully synchronous) |
//! | `MERGESFL_TOPOLOGY` | `mergesfl::config` | server-shard topology: `replicated` (default; also when unset or empty) or `partitioned` / `output-partitioned`; any other value panics |
//! | `MERGESFL_FLEET` | `mergesfl::config` | registered fleet size (integer ≥ num_workers; unset = classic dense regime) |
//! | `MERGESFL_CHURN` | `mergesfl::config` | `on`/`1`/`true` enables availability churn |
//! | `MERGESFL_CHURN_PERIOD` | `mergesfl::config` | diurnal availability-wave period in rounds (default 48) |
//! | `MERGESFL_CHURN_MIN_AVAIL` | `mergesfl::config` | availability floor in (0, 1] (default 0.6) |
//! | `MERGESFL_CHURN_DROPOUT` | `mergesfl::config` | mid-round dropout probability in [0, 1) (default 0.05) |
//! | `MERGESFL_PERF_FLOOR` | `kernel_bench` | fraction of the committed baseline's gate speedup a fresh `--check` run must reach (default 0.70) |
//! | `MERGESFL_SCALE` | `mergesfl_bench` | experiment scale: `quick` (default; also when unset or empty) / `standard` / `paper`; any other value panics |
//! | `MERGESFL_JSON` | `mergesfl_bench` | `1` switches bench output to JSON lines |
//! | `MERGESFL_DATASETS` | `mergesfl_bench` | comma-separated dataset filter over `har`, `speech`, `cifar10` / `cifar`, `image100` / `image` (default: all four); any other token panics |
//! | `RAYON_NUM_THREADS` | rayon shim | worker-thread cap (read directly by the shim) |

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

/// Whether `name` is explicitly switched **on**: set to `1`, `on` or `true`
/// (ASCII case-insensitive). Unset or anything else reads as off.
pub fn flag_on(name: &str) -> bool {
    var(name).is_some_and(|v| {
        v.eq_ignore_ascii_case("1")
            || v.eq_ignore_ascii_case("on")
            || v.eq_ignore_ascii_case("true")
    })
}

/// Whether `name` is explicitly switched **off**: set to `0`, `off` or `false`
/// (ASCII case-insensitive). Unset or anything else reads as "not disabled", so
/// features that default to on stay on.
pub fn flag_off(name: &str) -> bool {
    var(name).is_some_and(|v| {
        v.eq_ignore_ascii_case("0")
            || v.eq_ignore_ascii_case("off")
            || v.eq_ignore_ascii_case("false")
    })
}

/// Reads and parses `name` (whitespace-trimmed); `None` when unset, unparsable,
/// or not valid Unicode.
pub fn parsed<T: std::str::FromStr>(name: &str) -> Option<T> {
    var(name).and_then(|v| v.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, OnceLock};

    /// Env vars are process-global; serialise the tests that mutate them.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(Mutex::default)
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn var_and_parsed_round_trip() {
        let _guard = lock();
        std::env::set_var("MERGESFL_ENV_TEST_A", " 42 ");
        assert_eq!(var("MERGESFL_ENV_TEST_A").as_deref(), Some(" 42 "));
        assert_eq!(parsed::<usize>("MERGESFL_ENV_TEST_A"), Some(42));
        std::env::remove_var("MERGESFL_ENV_TEST_A");
        assert_eq!(var("MERGESFL_ENV_TEST_A"), None);
        assert_eq!(parsed::<usize>("MERGESFL_ENV_TEST_A"), None);
    }

    #[test]
    fn flags_are_case_insensitive_and_default_closed() {
        let _guard = lock();
        for v in ["1", "ON", "true"] {
            std::env::set_var("MERGESFL_ENV_TEST_B", v);
            assert!(flag_on("MERGESFL_ENV_TEST_B"), "{v}");
            assert!(!flag_off("MERGESFL_ENV_TEST_B"), "{v}");
        }
        for v in ["0", "off", "False"] {
            std::env::set_var("MERGESFL_ENV_TEST_B", v);
            assert!(flag_off("MERGESFL_ENV_TEST_B"), "{v}");
            assert!(!flag_on("MERGESFL_ENV_TEST_B"), "{v}");
        }
        std::env::set_var("MERGESFL_ENV_TEST_B", "banana");
        assert!(!flag_on("MERGESFL_ENV_TEST_B"));
        assert!(!flag_off("MERGESFL_ENV_TEST_B"));
        std::env::remove_var("MERGESFL_ENV_TEST_B");
        assert!(!flag_on("MERGESFL_ENV_TEST_B"));
        assert!(!flag_off("MERGESFL_ENV_TEST_B"));
    }
}
