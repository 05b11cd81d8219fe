//! Label distributions and divergence measures.
//!
//! The control module of MergeSFL reasons about the *label distribution* `V_i` of each
//! worker — a categorical distribution over the `M` classes — and about the KL divergence
//! between the label distribution of the merged feature sequence `Φ^h` and the global IID
//! distribution `Φ0` (paper Eq. 11–12).

use serde::{Deserialize, Serialize};

/// A categorical distribution over class labels (the paper's `V` vector).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LabelDistribution {
    probs: Vec<f32>,
}

impl LabelDistribution {
    /// Creates a distribution from raw probabilities, normalising them to sum to 1.
    ///
    /// Panics if the vector is empty, contains negative values, or sums to zero.
    pub fn new(probs: Vec<f32>) -> Self {
        assert!(
            !probs.is_empty(),
            "LabelDistribution: empty probability vector"
        );
        assert!(
            probs.iter().all(|&p| p >= 0.0),
            "LabelDistribution: negative probability"
        );
        let sum: f32 = probs.iter().sum();
        assert!(sum > 0.0, "LabelDistribution: probabilities sum to zero");
        Self {
            probs: probs.iter().map(|p| p / sum).collect(),
        }
    }

    /// Builds the empirical label distribution of a set of labels over `num_classes` classes.
    pub fn from_labels(labels: &[usize], num_classes: usize) -> Self {
        assert!(
            num_classes > 0,
            "LabelDistribution: need at least one class"
        );
        let mut counts = vec![0.0f32; num_classes];
        for &l in labels {
            assert!(l < num_classes, "LabelDistribution: label {l} out of range");
            counts[l] += 1.0;
        }
        if labels.is_empty() {
            // An empty shard is treated as uniform; it contributes nothing anyway because it
            // will always be weighted by a batch size of zero.
            return Self::uniform(num_classes);
        }
        Self::new(counts)
    }

    /// The uniform distribution over `num_classes` classes.
    pub fn uniform(num_classes: usize) -> Self {
        assert!(
            num_classes > 0,
            "LabelDistribution: need at least one class"
        );
        Self {
            probs: vec![1.0 / num_classes as f32; num_classes],
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.probs.len()
    }

    /// Probability of each class (sums to 1).
    pub fn probs(&self) -> &[f32] {
        &self.probs
    }

    /// Weighted mixture of several distributions: `Φ = Σ w_i V_i / Σ w_i` (paper Eq. 11,
    /// where the weights are the workers' batch sizes).
    pub fn mixture(dists: &[&LabelDistribution], weights: &[f32]) -> Self {
        assert!(!dists.is_empty(), "mixture: no distributions");
        assert_eq!(dists.len(), weights.len(), "mixture: weight count mismatch");
        let classes = dists[0].num_classes();
        for d in dists {
            assert_eq!(d.num_classes(), classes, "mixture: class count mismatch");
        }
        let total: f32 = weights.iter().sum();
        assert!(total > 0.0, "mixture: weights must sum to a positive value");
        let mut probs = vec![0.0f32; classes];
        for (d, &w) in dists.iter().zip(weights) {
            for (p, &dp) in probs.iter_mut().zip(d.probs()) {
                *p += w * dp;
            }
        }
        for p in &mut probs {
            *p /= total;
        }
        Self { probs }
    }

    /// Unweighted average of distributions: the paper's IID reference `Φ0 = (1/N) Σ V_i`.
    pub fn average(dists: &[&LabelDistribution]) -> Self {
        let weights = vec![1.0f32; dists.len()];
        Self::mixture(dists, &weights)
    }

    /// KL divergence `KL(self ‖ other)` in nats (paper Eq. 12).
    ///
    /// Zero-probability classes in `self` contribute zero; classes where `other` is zero but
    /// `self` is not are smoothed with a small epsilon to keep the value finite, matching
    /// the common practical treatment of empirical label histograms.
    pub fn kl_divergence(&self, other: &LabelDistribution) -> f32 {
        assert_eq!(
            self.num_classes(),
            other.num_classes(),
            "kl_divergence: class count mismatch"
        );
        kl_divergence(&self.probs, &other.probs)
    }

    /// Total-variation distance to another distribution, in `[0, 1]`.
    pub fn total_variation(&self, other: &LabelDistribution) -> f32 {
        assert_eq!(
            self.num_classes(),
            other.num_classes(),
            "total_variation: class count mismatch"
        );
        0.5 * self
            .probs
            .iter()
            .zip(&other.probs)
            .map(|(p, q)| (p - q).abs())
            .sum::<f32>()
    }
}

/// `KL(p ‖ q)` over equally long probability slices: the arithmetic of
/// [`LabelDistribution::kl_divergence`], for callers that fold a mixture into scratch
/// storage instead of building a distribution.
pub fn kl_divergence(p: &[f32], q: &[f32]) -> f32 {
    const EPS: f32 = 1e-8;
    p.iter()
        .zip(q)
        .map(|(&p, &q)| {
            if p <= 0.0 {
                0.0
            } else {
                p * (p / q.max(EPS)).ln()
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_labels_counts_correctly() {
        let d = LabelDistribution::from_labels(&[0, 0, 1, 2], 3);
        assert_eq!(d.probs(), &[0.5, 0.25, 0.25]);
    }

    #[test]
    fn empty_labels_give_uniform() {
        let d = LabelDistribution::from_labels(&[], 4);
        assert_eq!(d, LabelDistribution::uniform(4));
    }

    #[test]
    fn kl_of_identical_distributions_is_zero() {
        let d = LabelDistribution::from_labels(&[0, 1, 2, 3], 4);
        assert!(d.kl_divergence(&d).abs() < 1e-7);
    }

    #[test]
    fn kl_is_positive_for_different_distributions() {
        let skewed = LabelDistribution::new(vec![0.9, 0.1]);
        let uniform = LabelDistribution::uniform(2);
        let kl = skewed.kl_divergence(&uniform);
        assert!(kl > 0.0);
        // Known value: 0.9 ln(1.8) + 0.1 ln(0.2) ≈ 0.368.
        assert!((kl - 0.368).abs() < 1e-2);
    }

    #[test]
    fn mixture_recovers_uniform_from_complementary_shards() {
        // Two workers each holding a single (different) class merge into a uniform mixture
        // when their weights are equal — the essence of feature merging.
        let a = LabelDistribution::new(vec![1.0, 0.0]);
        let b = LabelDistribution::new(vec![0.0, 1.0]);
        let mix = LabelDistribution::mixture(&[&a, &b], &[8.0, 8.0]);
        assert_eq!(mix.probs(), &[0.5, 0.5]);
        assert!(mix.kl_divergence(&LabelDistribution::uniform(2)) < 1e-7);
    }

    #[test]
    fn mixture_respects_weights() {
        let a = LabelDistribution::new(vec![1.0, 0.0]);
        let b = LabelDistribution::new(vec![0.0, 1.0]);
        let mix = LabelDistribution::mixture(&[&a, &b], &[3.0, 1.0]);
        assert!((mix.probs()[0] - 0.75).abs() < 1e-6);
    }

    #[test]
    fn average_is_equal_weight_mixture() {
        let a = LabelDistribution::new(vec![1.0, 0.0]);
        let b = LabelDistribution::new(vec![0.0, 1.0]);
        assert_eq!(
            LabelDistribution::average(&[&a, &b]),
            LabelDistribution::mixture(&[&a, &b], &[1.0, 1.0])
        );
    }

    #[test]
    fn total_variation_bounds() {
        let a = LabelDistribution::new(vec![1.0, 0.0]);
        let b = LabelDistribution::new(vec![0.0, 1.0]);
        assert!((a.total_variation(&b) - 1.0).abs() < 1e-6);
        assert!(a.total_variation(&a) < 1e-7);
    }

    #[test]
    fn probabilities_are_normalised() {
        let d = LabelDistribution::new(vec![2.0, 2.0, 4.0]);
        let s: f32 = d.probs().iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
        assert_eq!(d.probs()[2], 0.5);
    }
}
