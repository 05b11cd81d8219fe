//! Offline stand-in for [`rayon`](https://crates.io/crates/rayon).
//!
//! The build environment has no crates.io access, so this crate provides the slice of
//! the rayon API the training engines use — `Vec::into_par_iter().map(f).collect()`
//! and `for_each`, and `current_num_threads` — implemented with `std::thread::scope`.
//! [`set_num_threads`] is not rayon API: it repins the fan-out width at run time, where
//! rayon sizes its pool once. There is no work stealing: the input is split into one
//! contiguous chunk per available core and each chunk runs on its own scoped thread.
//! Results are written into pre-assigned slots, so output order always equals input order
//! regardless of thread scheduling — which is what keeps parallel training runs
//! bit-identical to sequential ones.
//!
//! On a single-core host (or for single-element inputs) everything degrades to a plain
//! sequential loop with zero thread overhead.

// The shim is pure safe Rust (scoped threads + pre-assigned output slots);
// if unsafe ever creeps in, each operation must be spelled out in its own block.
#![forbid(unsafe_code)]

/// The traits engines import via `use rayon::prelude::*`.
pub mod prelude {
    pub use crate::IntoParallelIterator;
}

/// Runtime override of the fan-out width; 0 means "no override". Set via
/// [`set_num_threads`], checked before the cached environment/host default.
static THREAD_OVERRIDE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Pins (or, with 0, unpins) the fan-out width for subsequent parallel calls,
/// process-wide. The allocation-counting phase of `kernel_bench` and the allocation
/// budget test pin 1 so thread spawns stay out of their heap-allocation counts; real
/// rayon has no such hook because its pool is sized once at build time.
pub fn set_num_threads(n: usize) {
    THREAD_OVERRIDE.store(n, std::sync::atomic::Ordering::Relaxed);
}

/// Number of worker threads a parallel call may fan out to: the [`set_num_threads`]
/// override if one is pinned, else the standard `RAYON_NUM_THREADS` environment
/// variable (like real rayon's pool-build default), else the host parallelism. The
/// environment and host lookups both allocate, so their result is resolved once and
/// cached — this function is called on every parallel fan-out, including from the
/// allocation-free kernel hot path.
pub fn current_num_threads() -> usize {
    let pinned = THREAD_OVERRIDE.load(std::sync::atomic::Ordering::Relaxed);
    if pinned >= 1 {
        return pinned;
    }
    static DEFAULT: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *DEFAULT.get_or_init(|| {
        #[expect(
            clippy::disallowed_methods,
            reason = "the shim cannot depend on mergesfl_nn::env; RAYON_NUM_THREADS is upstream's knob"
        )]
        let raw = std::env::var("RAYON_NUM_THREADS");
        raw
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// Order-preserving parallel map over an owned list of tasks.
///
/// Tasks are moved to scoped threads chunk-by-chunk; `out[i]` always holds `f(items[i])`.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let threads = current_num_threads().min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }

    let mut slots: Vec<Option<T>> = items.into_iter().map(Some).collect();
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        for (in_chunk, out_chunk) in slots.chunks_mut(chunk).zip(out.chunks_mut(chunk)) {
            let f = &f;
            scope.spawn(move || {
                for (slot, result) in in_chunk.iter_mut().zip(out_chunk.iter_mut()) {
                    let task = slot.take().expect("task slot filled exactly once");
                    *result = Some(f(task));
                }
            });
        }
    });
    out.into_iter()
        .map(|r| r.expect("every task slot produces a result"))
        .collect()
}

/// Conversion into a parallel iterator (the shim only supports owned `Vec`s).
pub trait IntoParallelIterator {
    /// Element type of the parallel iterator.
    type Item: Send;
    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

/// A parallel iterator over an owned list of items.
pub struct ParIter<T: Send> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Maps every item in parallel, preserving order.
    pub fn map<R, F>(self, f: F) -> ParMap<T, R, F>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Runs `f` on every item in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        par_map(self.items, f);
    }
}

/// A mapped parallel iterator, consumed by [`ParMap::collect`].
pub struct ParMap<T: Send, R: Send, F: Fn(T) -> R + Sync> {
    items: Vec<T>,
    f: F,
}

impl<T: Send, R: Send, F: Fn(T) -> R + Sync> ParMap<T, R, F> {
    /// Executes the map and collects the results in input order.
    pub fn collect<C: From<Vec<R>>>(self) -> C {
        C::from(par_map(self.items, self.f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let input: Vec<usize> = (0..1000).collect();
        let out: Vec<usize> = input.clone().into_par_iter().map(|x| x * 2).collect();
        assert_eq!(out, input.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn mutable_borrows_fan_out() {
        let mut values = vec![0u64; 64];
        let tasks: Vec<(&mut u64, u64)> = values.iter_mut().zip(0u64..).collect();
        tasks.into_par_iter().for_each(|(v, i)| *v = i * i);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(*v, (i * i) as u64);
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u8> = Vec::new();
        let out: Vec<u8> = empty.into_par_iter().map(|x| x + 1).collect();
        assert!(out.is_empty());
        let one: Vec<u8> = vec![3].into_par_iter().map(|x| x + 1).collect();
        assert_eq!(one, vec![4]);
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(current_num_threads() >= 1);
    }
}
