//! Deterministic subsampling of evaluation sets.
//!
//! Evaluating on the *first* `n` test samples measures accuracy on whatever slice the
//! generator happened to emit first — for class-ordered or otherwise structured test sets
//! that slice is biased, and every engine that truncated the test set this way inherited
//! the bias. [`eval_subsample`] draws an unbiased, seed-deterministic subsample from the
//! whole test set instead: the same seed always evaluates on the same indices, so accuracy
//! curves stay comparable across rounds and runs while covering the full label mixture.

use mergesfl_nn::rng::seeded;
use rand::Rng;

/// Draws `n` distinct indices uniformly from `0..len` via a partial Fisher–Yates shuffle.
///
/// Deterministic in `seed`. If `n >= len` the whole range is returned in natural order
/// (evaluation then covers the full set and no sampling is needed). The returned indices
/// are in shuffle order, not sorted — callers that batch in chunks still get unbiased
/// chunks that mix the whole set.
pub fn eval_subsample(len: usize, n: usize, seed: u64) -> Vec<usize> {
    if n >= len {
        return (0..len).collect();
    }
    let mut rng = seeded(seed);
    let mut pool: Vec<usize> = (0..len).collect();
    for i in 0..n {
        let j = rng.gen_range(i..len);
        pool.swap(i, j);
    }
    pool.truncate(n);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn draws_distinct_in_range_indices_of_the_requested_size() {
        let sample = eval_subsample(1000, 64, 7);
        assert_eq!(sample.len(), 64);
        let unique: BTreeSet<usize> = sample.iter().copied().collect();
        assert_eq!(unique.len(), 64);
        assert!(sample.iter().all(|&i| i < 1000));
    }

    #[test]
    fn is_deterministic_per_seed_and_varies_across_seeds() {
        assert_eq!(eval_subsample(500, 50, 3), eval_subsample(500, 50, 3));
        assert_ne!(eval_subsample(500, 50, 3), eval_subsample(500, 50, 4));
    }

    #[test]
    fn is_not_the_first_n_prefix() {
        // The regression this module fixes: the old evaluation used `(0..n).collect()`.
        let sample = eval_subsample(400, 120, 42);
        let prefix: Vec<usize> = (0..120).collect();
        assert_ne!(sample, prefix, "subsample degenerated to the biased prefix");
        // And it must actually reach beyond the prefix with overwhelming probability.
        assert!(
            sample.iter().any(|&i| i >= 120),
            "subsample never left the first-n prefix"
        );
    }

    #[test]
    fn oversized_requests_return_the_whole_range() {
        assert_eq!(eval_subsample(10, 10, 1), (0..10).collect::<Vec<_>>());
        assert_eq!(eval_subsample(10, 99, 1), (0..10).collect::<Vec<_>>());
        assert_eq!(eval_subsample(0, 5, 1), Vec::<usize>::new());
    }

    #[test]
    fn covers_the_whole_set_across_seeds() {
        // Sampling 32 of 64 across many seeds should touch every index — a smoke check
        // that the draw is uniform over the whole set rather than over a sub-window.
        let mut touched = BTreeSet::new();
        for seed in 0..32 {
            touched.extend(eval_subsample(64, 32, seed));
        }
        assert_eq!(touched.len(), 64);
    }
}
