//! Feature merging and gradient dispatching (paper Section IV-B).
//!
//! Each selected worker uploads the split-layer features of its mini-batch together with the
//! labels. The PS concatenates them — in worker order — into one *mixed feature sequence*
//! whose label distribution approximates the IID distribution, runs the top model on it, and
//! then segments the merged gradient back into per-worker chunks of exactly the sizes that
//! were merged, dispatching each chunk to its worker.

use mergesfl_nn::Tensor;

/// One worker's upload for an iteration: split-layer features plus the matching labels.
#[derive(Clone, Debug)]
pub struct FeatureUpload {
    /// Worker id the upload came from.
    pub worker_id: usize,
    /// Split-layer features, shape `[d_i, ...]`.
    pub features: Tensor,
    /// Labels of the `d_i` samples.
    pub labels: Vec<usize>,
}

impl FeatureUpload {
    /// Creates an upload, validating that features and labels agree on the batch size.
    pub fn new(worker_id: usize, features: Tensor, labels: Vec<usize>) -> Self {
        assert_eq!(
            features.batch(),
            labels.len(),
            "FeatureUpload: feature/label count mismatch"
        );
        assert!(!labels.is_empty(), "FeatureUpload: empty upload");
        Self {
            worker_id,
            features,
            labels,
        }
    }

    /// Mini-batch size of this upload.
    pub fn batch_size(&self) -> usize {
        self.labels.len()
    }
}

/// The merged feature sequence along with the bookkeeping needed to dispatch gradients back.
#[derive(Clone, Debug)]
pub struct MergedBatch {
    /// Mixed feature sequence `G^{h,k}` of shape `[Σ d_i, ...]`.
    pub features: Tensor,
    /// Labels aligned with the merged features.
    pub labels: Vec<usize>,
    /// Worker ids in merge order.
    pub worker_order: Vec<usize>,
    /// Per-worker batch sizes in merge order.
    pub sizes: Vec<usize>,
}

impl MergedBatch {
    /// Total number of merged samples.
    pub fn total(&self) -> usize {
        self.labels.len()
    }
}

/// Merges per-worker uploads into a single mixed feature sequence (feature merging).
pub fn merge_features(uploads: &[FeatureUpload]) -> MergedBatch {
    // Cohort-sized ref list (tens of pointers per round)
    let refs: Vec<&FeatureUpload> = uploads.iter().collect();
    merge_feature_refs(&refs)
}

/// [`merge_features`] over borrowed uploads: the shard router merges each shard's routed
/// subset of one iteration's uploads without cloning feature tensors out of the cohort's
/// upload buffer.
pub fn merge_feature_refs(uploads: &[&FeatureUpload]) -> MergedBatch {
    assert!(!uploads.is_empty(), "merge_features: no uploads");
    // Cohort-sized ref list (tens of pointers per round)
    let tensors: Vec<&Tensor> = uploads.iter().map(|u| &u.features).collect();
    let features = Tensor::concat_batch(&tensors);
    // Per-round merge metadata (labels, order, sizes)
    // scales with cohort size, not feature volume; the feature payload is pooled
    let mut labels = Vec::with_capacity(features.batch());
    let mut worker_order = Vec::with_capacity(uploads.len());
    let mut sizes = Vec::with_capacity(uploads.len());
    for u in uploads {
        labels.extend_from_slice(&u.labels);
        worker_order.push(u.worker_id);
        sizes.push(u.batch_size());
    }
    MergedBatch {
        features,
        labels,
        worker_order,
        sizes,
    }
}

/// Reorders dispatched `(worker_id, gradient)` pairs into cohort (plan) order so the
/// per-worker gradient applications line up with the cohort's `&mut` borrows, whatever
/// order the server produced them in. Workers without a gradient get `None`; a gradient
/// for a worker outside the cohort panics (it would mean dispatch bookkeeping corrupted).
pub fn align_gradients(
    cohort_order: &[usize],
    gradients: Vec<(usize, Tensor)>,
) -> Vec<Option<Tensor>> {
    // Cohort-sized slot list rebuilt once per round
    let mut aligned: Vec<Option<Tensor>> = (0..cohort_order.len()).map(|_| None).collect();
    for (worker_id, grad) in gradients {
        let pos = cohort_order
            .iter()
            .position(|&w| w == worker_id)
            .expect("align_gradients: gradient for unselected worker");
        assert!(
            aligned[pos].is_none(),
            "align_gradients: duplicate gradient for worker {worker_id}"
        );
        aligned[pos] = Some(grad);
    }
    aligned
}

/// Segments the merged split-layer gradient back into per-worker gradients (gradient
/// dispatching). Returns `(worker_id, gradient)` pairs in merge order.
pub fn dispatch_gradients(merged: &MergedBatch, grad: &Tensor) -> Vec<(usize, Tensor)> {
    assert_eq!(
        grad.batch(),
        merged.total(),
        "dispatch_gradients: gradient batch {} does not match merged batch {}",
        grad.batch(),
        merged.total()
    );
    let parts = grad.split_batch(&merged.sizes);
    // Cohort-sized pair list; tensor payloads are pooled
    merged.worker_order.iter().copied().zip(parts).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upload(worker: usize, values: &[f32], labels: &[usize]) -> FeatureUpload {
        let features = Tensor::from_vec(
            values.to_vec(),
            &[labels.len(), values.len() / labels.len()],
        );
        FeatureUpload::new(worker, features, labels.to_vec())
    }

    #[test]
    fn merge_concatenates_in_worker_order() {
        let a = upload(3, &[1.0, 2.0, 3.0, 4.0], &[0, 1]);
        let b = upload(7, &[5.0, 6.0], &[1]);
        let merged = merge_features(&[a, b]);
        assert_eq!(merged.total(), 3);
        assert_eq!(merged.features.shape(), &[3, 2]);
        assert_eq!(merged.features.data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(merged.labels, vec![0, 1, 1]);
        assert_eq!(merged.worker_order, vec![3, 7]);
        assert_eq!(merged.sizes, vec![2, 1]);
    }

    #[test]
    fn dispatch_returns_each_workers_own_rows() {
        let a = upload(3, &[1.0, 2.0, 3.0, 4.0], &[0, 1]);
        let b = upload(7, &[5.0, 6.0], &[1]);
        let merged = merge_features(&[a, b]);
        let grad = Tensor::from_vec(vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0], &[3, 2]);
        let dispatched = dispatch_gradients(&merged, &grad);
        assert_eq!(dispatched.len(), 2);
        assert_eq!(dispatched[0].0, 3);
        assert_eq!(dispatched[0].1.data(), &[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(dispatched[1].0, 7);
        assert_eq!(dispatched[1].1.data(), &[50.0, 60.0]);
    }

    #[test]
    fn merge_then_dispatch_is_a_round_trip_on_shapes() {
        let uploads: Vec<FeatureUpload> = (0..4)
            .map(|w| {
                let d = w + 1;
                let features = Tensor::full(&[d, 3], w as f32);
                FeatureUpload::new(w, features, vec![0; d])
            })
            .collect();
        let merged = merge_features(&uploads);
        assert_eq!(merged.total(), 1 + 2 + 3 + 4);
        let grad = Tensor::zeros(merged.features.shape());
        let dispatched = dispatch_gradients(&merged, &grad);
        for (i, (worker, g)) in dispatched.iter().enumerate() {
            assert_eq!(*worker, i);
            assert_eq!(g.batch(), i + 1);
        }
    }

    #[test]
    fn merged_label_distribution_mixes_worker_shards() {
        // Worker 0 holds only class 0, worker 1 only class 1: the merged sequence is
        // balanced, which is the statistical point of feature merging.
        let a = upload(0, &[0.0; 8], &[0, 0, 0, 0]);
        let b = upload(1, &[0.0; 8], &[1, 1, 1, 1]);
        let merged = merge_features(&[a, b]);
        let zeros = merged.labels.iter().filter(|&&l| l == 0).count();
        assert_eq!(zeros, 4);
        assert_eq!(merged.total(), 8);
    }

    #[test]
    fn merging_refs_equals_merging_owned_uploads() {
        // The shard router merges borrowed subsets; the result must be exactly what
        // merging an owned slice of the same uploads produces.
        let uploads = vec![
            upload(2, &[1.0, 2.0, 3.0, 4.0], &[0, 1]),
            upload(5, &[5.0, 6.0], &[1]),
            upload(9, &[7.0, 8.0, 9.0, 10.0], &[2, 0]),
        ];
        let owned = merge_features(&uploads);
        let refs: Vec<&FeatureUpload> = uploads.iter().collect();
        let borrowed = merge_feature_refs(&refs);
        assert_eq!(owned.features.data(), borrowed.features.data());
        assert_eq!(owned.labels, borrowed.labels);
        assert_eq!(owned.worker_order, borrowed.worker_order);
        assert_eq!(owned.sizes, borrowed.sizes);
        // A routed subset keeps its own order and sizes.
        let subset = merge_feature_refs(&[&uploads[2], &uploads[0]]);
        assert_eq!(subset.worker_order, vec![9, 2]);
        assert_eq!(subset.sizes, vec![2, 2]);
        assert_eq!(subset.labels, vec![2, 0, 0, 1]);
    }

    #[test]
    fn align_gradients_reorders_into_cohort_order() {
        let grads = vec![
            (7, Tensor::full(&[1, 2], 7.0)),
            (3, Tensor::full(&[2, 2], 3.0)),
        ];
        let aligned = align_gradients(&[3, 5, 7], grads);
        assert_eq!(aligned.len(), 3);
        assert_eq!(aligned[0].as_ref().unwrap().data(), &[3.0; 4]);
        assert!(aligned[1].is_none());
        assert_eq!(aligned[2].as_ref().unwrap().data(), &[7.0; 2]);
    }

    #[test]
    #[should_panic(expected = "unselected worker")]
    fn align_gradients_rejects_unknown_worker() {
        let _ = align_gradients(&[0, 1], vec![(9, Tensor::zeros(&[1, 1]))]);
    }

    #[test]
    #[should_panic(expected = "feature/label count mismatch")]
    fn rejects_mismatched_upload() {
        let features = Tensor::zeros(&[2, 3]);
        let _ = FeatureUpload::new(0, features, vec![0]);
    }

    #[test]
    #[should_panic(expected = "does not match merged batch")]
    fn rejects_wrong_gradient_size() {
        let a = upload(0, &[1.0, 2.0], &[0]);
        let merged = merge_features(&[a]);
        let grad = Tensor::zeros(&[2, 2]);
        let _ = dispatch_gradients(&merged, &grad);
    }
}
