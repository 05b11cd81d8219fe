//! One canary per root `clippy.toml` entry. Clippy reports an entry whose path
//! resolves to nothing only as a warning that `-D warnings` does not promote, so a
//! typo in `clippy.toml` would silently drop the contract. Each canary is one use
//! of the entry under `#[expect]`: if the entry stops firing, the expectation goes
//! unfulfilled and `cargo clippy --all-targets -- -D warnings` fails.

#![expect(
    dead_code,
    reason = "compile-only: clippy checks the uses, nothing runs them"
)]

/// Expects `$lint` on each expression, one `#[expect]` per expression so every
/// entry is checked on its own.
macro_rules! canary {
    ($lint:ident: $($e:expr),+ $(,)?) => {
        $(
            #[expect(clippy::$lint, reason = "canary")]
            let _ = $e;
        )+
    };
}

fn env_fma_and_hash_containers() {
    canary!(disallowed_methods:
        std::env::var("MERGESFL_CANARY"),
        std::env::var_os("MERGESFL_CANARY"),
        std::env::vars(),
        1.0f32.mul_add(2.0, 3.0),
        1.0f64.mul_add(2.0, 3.0),
    );
    canary!(disallowed_types:
        std::collections::HashMap::<u8, u8>::new(),
        std::collections::HashSet::<u8>::new(),
    );
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
fn fma_intrinsics() {
    use std::arch::x86_64::*;
    let (s, d) = (_mm_setzero_ps(), _mm_setzero_pd());
    canary!(disallowed_methods:
        _mm_fmadd_ps(s, s, s), _mm_fmadd_pd(d, d, d),
        _mm_fmsub_ps(s, s, s), _mm_fmsub_pd(d, d, d),
        _mm_fnmadd_ps(s, s, s), _mm_fnmadd_pd(d, d, d),
        _mm_fnmsub_ps(s, s, s), _mm_fnmsub_pd(d, d, d),
    );
    let (s, d) = (_mm256_setzero_ps(), _mm256_setzero_pd());
    canary!(disallowed_methods:
        _mm256_fmadd_ps(s, s, s), _mm256_fmadd_pd(d, d, d),
        _mm256_fmsub_ps(s, s, s), _mm256_fmsub_pd(d, d, d),
        _mm256_fnmadd_ps(s, s, s), _mm256_fnmadd_pd(d, d, d),
        _mm256_fnmsub_ps(s, s, s), _mm256_fnmsub_pd(d, d, d),
    );
    let (s, d) = (_mm512_setzero_ps(), _mm512_setzero_pd());
    canary!(disallowed_methods:
        _mm512_fmadd_ps(s, s, s), _mm512_fmadd_pd(d, d, d),
        _mm512_fmsub_ps(s, s, s), _mm512_fmsub_pd(d, d, d),
        _mm512_fnmadd_ps(s, s, s), _mm512_fnmadd_pd(d, d, d),
        _mm512_fnmsub_ps(s, s, s), _mm512_fnmsub_pd(d, d, d),
    );
}
