//! Per-worker mini-batch loading.
//!
//! In MergeSFL a worker's batch size changes from round to round (batch-size regulation), so
//! the loader exposes `next_batch(batch_size)` rather than fixing the batch size at
//! construction time. Batches cycle through a shuffled permutation of the worker's local
//! shard, reshuffling whenever an epoch boundary is crossed.

use crate::dataset::Dataset;
use mergesfl_nn::rng::seeded;
use mergesfl_nn::Tensor;
use rand::rngs::StdRng;
use rand::Rng;

/// Cycles through a worker's local data shard in shuffled order, producing mini-batches.
pub struct WorkerLoader {
    shard: Vec<usize>,
    order: Vec<usize>,
    cursor: usize,
    epochs_completed: usize,
    rng: StdRng,
}

impl WorkerLoader {
    /// Creates a loader over the given sample indices of a dataset.
    pub fn new(shard: Vec<usize>, seed: u64) -> Self {
        assert!(!shard.is_empty(), "WorkerLoader: empty shard");
        let order: Vec<usize> = (0..shard.len()).collect();
        let mut loader = Self {
            shard,
            order,
            cursor: 0,
            epochs_completed: 0,
            rng: seeded(seed),
        };
        loader.shuffle();
        loader
    }

    /// Number of samples in the worker's shard.
    pub fn shard_size(&self) -> usize {
        self.shard.len()
    }

    /// Number of completed passes over the shard.
    pub fn epochs_completed(&self) -> usize {
        self.epochs_completed
    }

    fn shuffle(&mut self) {
        for i in (1..self.order.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            self.order.swap(i, j);
        }
    }

    /// Returns the dataset indices for the next mini-batch of the requested size.
    ///
    /// If the batch size exceeds the remaining samples of the current epoch, the loader
    /// reshuffles and continues from the next epoch, so batches may span epoch boundaries
    /// (samples within one batch are still unique as long as `batch_size <= shard_size`).
    pub fn next_indices(&mut self, batch_size: usize) -> Vec<usize> {
        assert!(batch_size > 0, "WorkerLoader: batch size must be positive");
        let mut out = Vec::with_capacity(batch_size);
        while out.len() < batch_size {
            if self.cursor >= self.order.len() {
                self.cursor = 0;
                self.epochs_completed += 1;
                self.shuffle();
            }
            out.push(self.shard[self.order[self.cursor]]);
            self.cursor += 1;
        }
        out
    }

    /// Materialises the next mini-batch of inputs and labels from the dataset.
    pub fn next_batch(&mut self, dataset: &Dataset, batch_size: usize) -> (Tensor, Vec<usize>) {
        let indices = self.next_indices(batch_size);
        dataset.batch(&indices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::DatasetKind;
    use crate::synth::generate_default;
    use std::collections::BTreeSet;

    fn toy() -> Dataset {
        generate_default(&DatasetKind::Har.spec(), 1).0
    }

    #[test]
    fn batches_have_requested_size_and_shape() {
        let d = toy();
        let mut loader = WorkerLoader::new((0..100).collect(), 1);
        let (x, y) = loader.next_batch(&d, 16);
        assert_eq!(x.batch(), 16);
        assert_eq!(y.len(), 16);
        assert_eq!(&x.shape()[1..], d.sample_shape());
    }

    #[test]
    fn one_epoch_visits_every_sample_once() {
        let shard: Vec<usize> = (10..42).collect();
        let mut loader = WorkerLoader::new(shard.clone(), 2);
        let mut seen = Vec::new();
        for _ in 0..8 {
            seen.extend(loader.next_indices(4));
        }
        assert_eq!(seen.len(), 32);
        let unique: BTreeSet<usize> = seen.iter().copied().collect();
        assert_eq!(unique.len(), 32);
        assert!(unique.iter().all(|i| shard.contains(i)));
    }

    #[test]
    fn reshuffles_between_epochs() {
        let shard: Vec<usize> = (0..64).collect();
        let mut loader = WorkerLoader::new(shard, 3);
        let first: Vec<usize> = loader.next_indices(64);
        let second: Vec<usize> = loader.next_indices(64);
        assert_eq!(loader.epochs_completed(), 1);
        assert_ne!(first, second, "order should change between epochs");
        let a: BTreeSet<usize> = first.into_iter().collect();
        let b: BTreeSet<usize> = second.into_iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn batch_larger_than_shard_wraps_around() {
        let mut loader = WorkerLoader::new(vec![1, 2, 3], 4);
        let batch = loader.next_indices(7);
        assert_eq!(batch.len(), 7);
        assert!(batch.iter().all(|i| [1, 2, 3].contains(i)));
    }

    #[test]
    fn variable_batch_sizes_are_supported() {
        let mut loader = WorkerLoader::new((0..50).collect(), 5);
        for &size in &[1usize, 8, 3, 17] {
            assert_eq!(loader.next_indices(size).len(), size);
        }
    }

    #[test]
    #[should_panic(expected = "empty shard")]
    fn rejects_empty_shard() {
        let _ = WorkerLoader::new(vec![], 0);
    }
}
