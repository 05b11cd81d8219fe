//! Dense row-major `f32` tensors.
//!
//! The tensor type is intentionally small: it supports exactly the operations needed by the
//! layers in this workspace (2-D matmul, broadcast add over the last axis, element-wise
//! arithmetic, batch-axis concatenation/segmentation, and simple reductions). All data is
//! stored contiguously in row-major order, so a shape `[n, c, h, w]` indexes as
//! `((n * C + c) * H + h) * W + w`.
//!
//! Storage lives in a [`PoolBuf`], so every tensor — activations, gradients, merge staging,
//! short-lived temporaries — checks its page out of the size-classed memory pool
//! ([`crate::pool`]) and returns it on drop. In steady state no tensor operation touches
//! the heap allocator; values are bit-identical to plain `Vec` storage either way.

use crate::pool::{self, PoolBuf};
use std::fmt;

/// A dense, row-major tensor of `f32` values.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: PoolBuf,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}, len={})", self.shape, self.data.len())
    }
}

impl Tensor {
    /// Creates a tensor from raw data and a shape. Panics if the element count mismatches.
    /// The buffer is adopted without copying and joins the pool when the tensor drops.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let expected: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            expected,
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Self {
            shape: shape.to_vec(),
            data: PoolBuf::from_vec(data),
        }
    }

    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: PoolBuf::zeroed(n),
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with a constant value.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n: usize = shape.iter().product();
        let mut data = PoolBuf::uninit(n);
        data.fill(value);
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Internal constructor over pooled storage; the caller guarantees the element count.
    fn from_buf(shape: Vec<usize>, data: PoolBuf) -> Self {
        debug_assert_eq!(shape.iter().product::<usize>(), data.len());
        Self { shape, data }
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying buffer (withdrawing it from the
    /// pool; recycle it by re-adopting through [`Tensor::from_vec`] or dropping it).
    pub fn into_vec(self) -> Vec<f32> {
        self.data.into_vec()
    }

    /// Size of the leading (batch) dimension; 0 for rank-0 tensors.
    pub fn batch(&self) -> usize {
        self.shape.first().copied().unwrap_or(0)
    }

    /// Number of elements per batch entry.
    pub fn per_item(&self) -> usize {
        if self.shape.is_empty() || self.shape[0] == 0 {
            0
        } else {
            self.data.len() / self.shape[0]
        }
    }

    /// Returns a tensor with the same data and a new shape (element count must match).
    pub fn reshape(&self, shape: &[usize]) -> Self {
        let expected: usize = shape.iter().product();
        assert_eq!(
            self.data.len(),
            expected,
            "cannot reshape {:?} to {:?}",
            self.shape,
            shape
        );
        Self {
            shape: shape.to_vec(),
            data: self.data.clone(),
        }
    }

    /// [`Tensor::reshape`] of an owned tensor: the same buffer under a new shape, no copy.
    pub fn into_shape(mut self, shape: &[usize]) -> Self {
        let expected: usize = shape.iter().product();
        assert_eq!(
            self.data.len(),
            expected,
            "cannot reshape {:?} to {:?}",
            self.shape,
            shape
        );
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        self
    }

    /// Element access for a 2-D tensor.
    pub fn at2(&self, i: usize, j: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[i * self.shape[1] + j]
    }

    /// Mutable element access for a 2-D tensor.
    pub fn at2_mut(&mut self, i: usize, j: usize) -> &mut f32 {
        debug_assert_eq!(self.shape.len(), 2);
        let cols = self.shape[1];
        &mut self.data[i * cols + j]
    }

    /// Element-wise addition; shapes must match exactly.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "add: shape mismatch");
        let mut data = PoolBuf::uninit(self.data.len());
        for ((o, a), b) in data.iter_mut().zip(self.data.iter()).zip(other.data.iter()) {
            *o = a + b;
        }
        Tensor::from_buf(self.shape.clone(), data)
    }

    /// Element-wise in-place addition.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Element-wise subtraction; shapes must match exactly.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "sub: shape mismatch");
        let mut data = PoolBuf::uninit(self.data.len());
        for ((o, a), b) in data.iter_mut().zip(self.data.iter()).zip(other.data.iter()) {
            *o = a - b;
        }
        Tensor::from_buf(self.shape.clone(), data)
    }

    /// Element-wise multiplication; shapes must match exactly.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "mul: shape mismatch");
        let mut data = PoolBuf::uninit(self.data.len());
        for ((o, a), b) in data.iter_mut().zip(self.data.iter()).zip(other.data.iter()) {
            *o = a * b;
        }
        Tensor::from_buf(self.shape.clone(), data)
    }

    /// Multiplication by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        let mut data = PoolBuf::uninit(self.data.len());
        for (o, a) in data.iter_mut().zip(self.data.iter()) {
            *o = a * s;
        }
        Tensor::from_buf(self.shape.clone(), data)
    }

    /// In-place multiplication by a scalar.
    pub fn scale_assign(&mut self, s: f32) {
        for a in self.data.iter_mut() {
            *a *= s;
        }
    }

    /// In-place `self += alpha * other` (axpy), used by the optimizers and aggregation.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        for a in self.data.iter_mut() {
            *a = 0.0;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// L2 norm of the tensor viewed as a flat vector.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|a| a * a).sum::<f32>().sqrt()
    }

    /// Cosine similarity between two tensors viewed as flat vectors.
    ///
    /// Returns 0.0 when either vector has zero norm.
    pub fn cosine_similarity(&self, other: &Tensor) -> f32 {
        assert_eq!(
            self.len(),
            other.len(),
            "cosine_similarity: length mismatch"
        );
        let dot: f32 = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum();
        let denom = self.norm() * other.norm();
        if denom <= f32::EPSILON {
            0.0
        } else {
            dot / denom
        }
    }

    /// Matrix multiplication of two 2-D tensors: `[m, k] x [k, n] -> [m, n]`.
    ///
    /// Dispatches through the process-wide [`crate::kernels`] backend: the cache-blocked
    /// GEMM by default, or the naive triple loop under [`crate::kernels::KernelBackend::Naive`].
    /// Both produce bit-identical results on finite inputs.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "matmul: lhs must be 2-D");
        assert_eq!(other.shape.len(), 2, "matmul: rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul: inner dimensions differ ({k} vs {k2})");
        let mut out = pool::take_zeroed(m * n);
        crate::kernels::gemm_nn(
            crate::kernels::default_backend(),
            m,
            n,
            k,
            &self.data,
            &other.data,
            &mut out,
            crate::kernels::Epilogue::None,
        );
        Tensor::from_buf(vec![m, n], PoolBuf::from_vec(out))
    }

    /// Transpose of a 2-D tensor.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "transpose2: tensor must be 2-D");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = PoolBuf::uninit(m * n);
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_buf(vec![n, m], out)
    }

    /// Adds a 1-D bias of length `n` to every row of a 2-D `[m, n]` tensor.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "add_row_broadcast: tensor must be 2-D");
        assert_eq!(bias.shape.len(), 1, "add_row_broadcast: bias must be 1-D");
        assert_eq!(
            self.shape[1], bias.shape[0],
            "add_row_broadcast: width mismatch"
        );
        let n = self.shape[1];
        let mut data = self.data.clone();
        for row in data.chunks_mut(n) {
            for (x, b) in row.iter_mut().zip(bias.data.iter()) {
                *x += b;
            }
        }
        Tensor::from_buf(self.shape.clone(), data)
    }

    /// Sums a 2-D `[m, n]` tensor over rows, producing a 1-D `[n]` tensor.
    pub fn sum_rows(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "sum_rows: tensor must be 2-D");
        let n = self.shape[1];
        let mut out = PoolBuf::zeroed(n);
        for row in self.data.chunks(n) {
            for (o, x) in out.iter_mut().zip(row) {
                *o += x;
            }
        }
        Tensor::from_buf(vec![n], out)
    }

    /// Concatenates tensors along the leading (batch) axis.
    ///
    /// All inputs must share the same per-item shape. This is the primitive behind the
    /// paper's *feature merging*: features from multiple workers, each a `[d_i, ...]` batch,
    /// are merged into one `[sum d_i, ...]` mixed feature sequence.
    pub fn concat_batch(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_batch: no parts");
        let item_shape: Vec<usize> = parts[0].shape[1..].to_vec();
        let mut total_elems = 0usize;
        let mut total = 0usize;
        for p in parts {
            assert_eq!(
                &p.shape[1..],
                item_shape.as_slice(),
                "concat_batch: item shape mismatch"
            );
            total += p.shape[0];
            total_elems += p.data.len();
        }
        let mut data = PoolBuf::uninit(total_elems);
        let mut offset = 0usize;
        for p in parts {
            data[offset..offset + p.data.len()].copy_from_slice(&p.data);
            offset += p.data.len();
        }
        let mut shape = vec![total];
        shape.extend_from_slice(&item_shape);
        Tensor::from_buf(shape, data)
    }

    /// Splits a tensor along the leading (batch) axis into chunks of the given sizes.
    ///
    /// The sizes must sum to the batch dimension. This is the primitive behind *gradient
    /// dispatching*: the merged gradient is segmented back into the per-worker mini-batch
    /// gradients in the same order the features were merged.
    pub fn split_batch(&self, sizes: &[usize]) -> Vec<Tensor> {
        let total: usize = sizes.iter().sum();
        assert_eq!(
            total,
            self.batch(),
            "split_batch: sizes {:?} do not sum to batch {}",
            sizes,
            self.batch()
        );
        let per_item = self.per_item();
        let item_shape: Vec<usize> = self.shape[1..].to_vec();
        let mut out = Vec::with_capacity(sizes.len());
        let mut offset = 0usize;
        for &s in sizes {
            let mut shape = vec![s];
            shape.extend_from_slice(&item_shape);
            let data = PoolBuf::copy_of(&self.data[offset * per_item..(offset + s) * per_item]);
            out.push(Tensor::from_buf(shape, data));
            offset += s;
        }
        out
    }

    /// Selects a contiguous range `[start, start + count)` of batch items.
    pub fn slice_batch(&self, start: usize, count: usize) -> Tensor {
        assert!(start + count <= self.batch(), "slice_batch: out of range");
        let per_item = self.per_item();
        let mut shape = self.shape.clone();
        shape[0] = count;
        let data = PoolBuf::copy_of(&self.data[start * per_item..(start + count) * per_item]);
        Tensor::from_buf(shape, data)
    }

    /// Gathers arbitrary batch items by index.
    pub fn gather_batch(&self, indices: &[usize]) -> Tensor {
        let per_item = self.per_item();
        let mut shape = self.shape.clone();
        shape[0] = indices.len();
        let mut data = PoolBuf::uninit(indices.len() * per_item);
        for (k, &i) in indices.iter().enumerate() {
            assert!(i < self.batch(), "gather_batch: index {i} out of range");
            data[k * per_item..(k + 1) * per_item]
                .copy_from_slice(&self.data[i * per_item..(i + 1) * per_item]);
        }
        Tensor::from_buf(shape, data)
    }

    /// Row-wise argmax of a 2-D tensor (used for classification accuracy).
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.shape.len(), 2, "argmax_rows: tensor must be 2-D");
        let n = self.shape[1];
        self.data
            .chunks(n)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Returns true if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_and_shape() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.len(), 6);
        assert_eq!(t.at2(1, 2), 6.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_bad_shape() {
        let _ = Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros(&[2, 2]).sum(), 0.0);
        assert_eq!(Tensor::ones(&[2, 2]).sum(), 4.0);
        assert_eq!(Tensor::full(&[3], 2.5).sum(), 7.5);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::zeros(&[3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        a.axpy(0.5, &b);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let eye = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
        assert_eq!(a.matmul(&eye), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let t = a.transpose2();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.transpose2(), a);
    }

    #[test]
    fn broadcast_bias_and_sum_rows() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let c = a.add_row_broadcast(&b);
        assert_eq!(c.data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
        assert_eq!(c.sum_rows().data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn concat_then_split_roundtrip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0], &[1, 2]);
        let merged = Tensor::concat_batch(&[&a, &b]);
        assert_eq!(merged.shape(), &[3, 2]);
        let parts = merged.split_batch(&[2, 1]);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn slice_and_gather() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[4, 3]);
        let s = a.slice_batch(1, 2);
        assert_eq!(s.shape(), &[2, 3]);
        assert_eq!(s.data(), &[3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let g = a.gather_batch(&[3, 0]);
        assert_eq!(g.data(), &[9.0, 10.0, 11.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn argmax_rows_picks_largest() {
        let a = Tensor::from_vec(vec![0.1, 0.9, 0.0, 0.3, 0.2, 0.5], &[2, 3]);
        assert_eq!(a.argmax_rows(), vec![1, 2]);
    }

    #[test]
    fn cosine_similarity_bounds() {
        let a = Tensor::from_vec(vec![1.0, 0.0], &[2]);
        let b = Tensor::from_vec(vec![0.0, 1.0], &[2]);
        assert!((a.cosine_similarity(&a) - 1.0).abs() < 1e-6);
        assert!(a.cosine_similarity(&b).abs() < 1e-6);
        let zero = Tensor::zeros(&[2]);
        assert_eq!(a.cosine_similarity(&zero), 0.0);
    }

    #[test]
    fn norm_and_mean() {
        let a = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        assert!((a.norm() - 5.0).abs() < 1e-6);
        assert!((a.mean() - 3.5).abs() < 1e-6);
        assert_eq!(Tensor::zeros(&[0]).mean(), 0.0);
    }

    #[test]
    fn non_finite_detection() {
        let mut a = Tensor::zeros(&[2]);
        assert!(!a.has_non_finite());
        a.data_mut()[0] = f32::NAN;
        assert!(a.has_non_finite());
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let b = a.reshape(&[3, 2]);
        assert_eq!(b.shape(), &[3, 2]);
        assert_eq!(b.data(), a.data());
    }

    // Pooling is an allocation-placement concern only: a dropped tensor's page comes
    // back for the next same-class tensor, carrying no trace of its old contents into
    // any observable value.
    #[test]
    fn dropped_tensor_storage_is_reused() {
        let _guard = crate::pool::POOL_TEST_LOCK
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        let a = Tensor::full(&[33, 7], 3.5);
        let ptr = a.data().as_ptr();
        drop(a);
        let b = Tensor::zeros(&[33, 7]);
        if crate::pool::enabled() {
            assert_eq!(b.data().as_ptr(), ptr);
        }
        assert!(b.data().iter().all(|&v| v == 0.0));
    }
}
