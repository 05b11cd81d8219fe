//! Sequential model container.
//!
//! [`Sequential`] owns an ordered list of boxed [`Layer`]s and provides forward/backward
//! passes plus flat parameter (de)serialisation. The flat-vector view is what federated
//! aggregation operates on: bottom models from multiple workers are averaged element-wise
//! (optionally with per-worker weights) and loaded back.

use crate::layers::{Layer, Param};
use crate::tensor::Tensor;
use crate::F32_BYTES;

/// An ordered stack of layers applied one after another.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl Sequential {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Creates a model from pre-built layers.
    pub fn from_layers(layers: Vec<Box<dyn Layer>>) -> Self {
        Self { layers }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: Box<dyn Layer>) -> Self {
        self.layers.push(layer);
        self
    }

    /// Appends a layer in place.
    pub fn add(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers in the model.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Whether the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Layer names in order (used for summaries and split-point validation).
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Runs a forward pass through every layer: the input is copied once and every
    /// intermediate is handed to the next layer by value. Only a `train` pass leaves the
    /// caches [`Self::backward`] consumes; an inference pass clears them.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(x, train);
        }
        x
    }

    /// Runs a backward pass through every layer in reverse order, returning the gradient
    /// with respect to the model input.
    pub fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut layers = self.layers.iter_mut().rev();
        // The last layer borrows the caller's gradient; only an empty model copies it.
        let Some(last) = layers.next() else {
            return grad_output.clone();
        };
        let mut g = last.backward(grad_output);
        for layer in layers {
            g = layer.backward(&g);
        }
        g
    }

    /// [`Self::backward`] for a model whose input gradient nobody reads (a worker's bottom
    /// model, a full model in local training): the same parameter gradients, without the
    /// first layer's input-gradient product.
    pub fn backward_params(&mut self, grad_output: &Tensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        // The last layer borrows the caller's gradient, as in `backward`.
        let mut g: Option<Tensor> = None;
        for layer in rest.iter_mut().rev() {
            g = Some(layer.backward(g.as_ref().unwrap_or(grad_output)));
        }
        first.backward_params(g.as_ref().unwrap_or(grad_output));
    }

    /// Clears all parameter gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            for p in layer.params_mut() {
                p.zero_grad();
            }
        }
    }

    /// Clears cached activations in every layer.
    pub fn reset_cache(&mut self) {
        for layer in &mut self.layers {
            layer.reset_cache();
        }
    }

    /// All parameters of the model, in layer order.
    pub fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// Mutable access to all parameters of the model, in layer order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Total number of trainable scalars.
    pub fn num_params(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Size of the serialised parameters in bytes (used for traffic accounting).
    pub fn param_bytes(&self) -> usize {
        self.num_params() * F32_BYTES
    }

    /// Copies all parameters into one flat vector (layer order, value order within layer).
    /// The buffer is pooled — dropping it (or passing it back through
    /// [`crate::pool::recycle`]) keeps the page for the next snapshot.
    pub fn state(&self) -> Vec<f32> {
        let mut out = crate::pool::take_uninit::<f32>(self.num_params());
        let mut offset = 0usize;
        for p in self.params() {
            let data = p.value.data();
            out[offset..offset + data.len()].copy_from_slice(data);
            offset += data.len();
        }
        out
    }

    /// Copies all parameter gradients into one flat vector (same ordering as [`Self::state`]).
    pub fn grad_state(&self) -> Vec<f32> {
        let mut out = crate::pool::take_uninit::<f32>(self.num_params());
        let mut offset = 0usize;
        for p in self.params() {
            let data = p.grad.data();
            out[offset..offset + data.len()].copy_from_slice(data);
            offset += data.len();
        }
        out
    }

    /// Loads parameters from a flat vector produced by [`Self::state`] on a model with the
    /// same architecture. Panics if the length does not match.
    pub fn load_state(&mut self, state: &[f32]) {
        let expected = self.num_params();
        assert_eq!(
            state.len(),
            expected,
            "load_state: expected {expected} values, got {}",
            state.len()
        );
        let mut offset = 0usize;
        for p in self.params_mut() {
            let n = p.len();
            p.value
                .data_mut()
                .copy_from_slice(&state[offset..offset + n]);
            offset += n;
        }
    }

    /// Splits the model into `(bottom, top)` at `split_index`: layers `[0, split_index)` go
    /// to the bottom model, layers `[split_index, len)` to the top model.
    pub fn split_at(self, split_index: usize) -> (Sequential, Sequential) {
        assert!(
            split_index <= self.layers.len(),
            "split_at: index {split_index} beyond {} layers",
            self.layers.len()
        );
        let mut layers = self.layers;
        let top_layers = layers.split_off(split_index);
        (Sequential { layers }, Sequential { layers: top_layers })
    }
}

/// Computes a weighted average of flat parameter states.
///
/// This implements the paper's bottom-model aggregation (Eq. 17): each worker's bottom model
/// is weighted by its batch size `d_i` relative to the total. Passing equal weights recovers
/// plain FedAvg aggregation (Eq. 4).
pub fn weighted_average_states(states: &[Vec<f32>], weights: &[f32]) -> Vec<f32> {
    assert!(!states.is_empty(), "weighted_average_states: no states");
    assert_eq!(
        states.len(),
        weights.len(),
        "weighted_average_states: weight count mismatch"
    );
    let len = states[0].len();
    for s in states {
        assert_eq!(
            s.len(),
            len,
            "weighted_average_states: state length mismatch"
        );
    }
    let total: f32 = weights.iter().sum();
    assert!(
        total > 0.0,
        "weighted_average_states: weights must sum to a positive value"
    );
    let mut out = crate::pool::take_zeroed::<f32>(len);
    for (state, &w) in states.iter().zip(weights) {
        let coeff = w / total;
        for (o, &v) in out.iter_mut().zip(state) {
            *o += coeff * v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::KernelBackend;
    use crate::layers::{Linear, Relu};
    use crate::rng::seeded;
    use crate::zoo::{self, Architecture};

    fn tiny_mlp(seed: u64) -> Sequential {
        let mut rng = seeded(seed);
        Sequential::new()
            .push(Box::new(Linear::new(&mut rng, 4, 8)))
            .push(Box::new(Relu::new()))
            .push(Box::new(Linear::new(&mut rng, 8, 3)))
    }

    #[test]
    fn forward_shape() {
        let mut model = tiny_mlp(0);
        let x = Tensor::ones(&[5, 4]);
        let y = model.forward(&x, true);
        assert_eq!(y.shape(), &[5, 3]);
        assert_eq!(model.num_layers(), 3);
    }

    #[test]
    fn state_roundtrip() {
        let mut a = tiny_mlp(1);
        let mut b = tiny_mlp(2);
        let x = Tensor::ones(&[2, 4]);
        assert_ne!(a.forward(&x, false).data(), b.forward(&x, false).data());
        let state = a.state();
        assert_eq!(state.len(), a.num_params());
        b.load_state(&state);
        assert_eq!(a.forward(&x, false).data(), b.forward(&x, false).data());
    }

    #[test]
    fn zero_grad_clears_gradients() {
        let mut model = tiny_mlp(3);
        let x = Tensor::ones(&[2, 4]);
        let y = model.forward(&x, true);
        model.backward(&Tensor::ones(y.shape()));
        assert!(model.grad_state().iter().any(|&g| g != 0.0));
        model.zero_grad();
        assert!(model.grad_state().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn split_preserves_composition() {
        let mut full = tiny_mlp(4);
        let x = Tensor::ones(&[3, 4]);
        let y_full = full.forward(&x, false);

        let (mut bottom, mut top) = tiny_mlp(4).split_at(2);
        assert_eq!(bottom.num_layers(), 2);
        assert_eq!(top.num_layers(), 1);
        let features = bottom.forward(&x, false);
        let y_split = top.forward(&features, false);
        assert_eq!(y_full.data(), y_split.data());
    }

    /// The message `model.backward(grad)` panics with, if it does.
    fn backward_panic(model: &mut Sequential, grad: &Tensor) -> Option<String> {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            model.backward(grad);
        }));
        let payload = outcome.err()?;
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()));
        Some(message.unwrap_or_default())
    }

    /// A zoo model taken apart into one-layer models, in order, with a deterministic
    /// non-constant input batch.
    fn zoo_layers(arch: Architecture, seed: u64) -> (Vec<Sequential>, Tensor) {
        let spec = zoo::build(arch, 7, seed);
        let mut shape = vec![5];
        shape.extend_from_slice(&spec.input_shape);
        let len: usize = shape.iter().product();
        let x = Tensor::from_vec((0..len).map(|i| (i as f32 * 0.37).sin()).collect(), &shape);
        let mut layers = Vec::new();
        let mut rest = spec.model;
        while !rest.is_empty() {
            let (first, tail) = rest.split_at(1);
            layers.push(first);
            rest = tail;
        }
        (layers, x)
    }

    #[test]
    fn inference_forward_caches_nothing_and_clears_a_training_cache() {
        const NO_CACHE: &str = "called without a cached forward pass";
        for arch in Architecture::all() {
            let (layers, mut x) = zoo_layers(arch, 5);
            for mut layer in layers {
                let name = layer.layer_names()[0];
                // Dropout draws no mask outside training, and its backward is then the
                // identity rather than an error.
                let expect_panic = name != "Dropout";
                let y = layer.forward(&x, false);
                let grad = Tensor::ones(y.shape());
                let after_inference = backward_panic(&mut layer, &grad);
                assert_eq!(after_inference.is_some(), expect_panic, "{arch:?} {name}");
                if let Some(message) = after_inference {
                    assert!(message.contains(NO_CACHE), "{arch:?} {name}: {message}");
                }
                // A training forward is followed by a backward; one overwritten by an
                // inference forward is not.
                layer.forward(&x, true);
                assert_eq!(backward_panic(&mut layer, &grad), None, "{arch:?} {name}");
                layer.forward(&x, true);
                layer.forward(&x, false);
                let stale = backward_panic(&mut layer, &grad);
                assert_eq!(stale.is_some(), expect_panic, "{arch:?} {name}");
                x = y;
            }
        }
        let mut model = tiny_mlp(6);
        model.forward(&Tensor::ones(&[2, 4]), false);
        let message = backward_panic(&mut model, &Tensor::ones(&[2, 3])).expect("no cache");
        assert!(message.contains(NO_CACHE), "{message}");
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// The owned hand-off changes where activations live, never what they hold: a training
    /// pass through `Sequential` equals, bit for bit, the same layers driven one at a time
    /// on borrowed (hence copied) inputs; and the params-only backward accumulates exactly
    /// the parameter gradients of the full one.
    #[test]
    fn pipeline_matches_layer_by_layer_and_params_only_backward_matches_full() {
        let _guard = crate::kernels::runtime::override_lock();
        let before = crate::kernels::default_backend();
        for backend in [KernelBackend::Blocked, KernelBackend::Naive] {
            crate::kernels::set_default_backend(backend);
            for arch in Architecture::all() {
                let ctx = format!("{arch:?} on {}", backend.name());
                let (mut layers, x) = zoo_layers(arch, 8);
                let mut acts = vec![x.clone()];
                for layer in &mut layers {
                    let y = layer.forward(acts.last().expect("seeded with the input"), true);
                    acts.push(y);
                }
                let logits = acts.pop().expect("at least the input");
                let grad_logits = Tensor::from_vec(
                    (0..logits.len()).map(|i| (i as f32 * 0.11).cos()).collect(),
                    logits.shape(),
                );
                let mut grad = grad_logits.clone();
                for layer in layers.iter_mut().rev() {
                    grad = layer.backward(&grad);
                }
                let mut grads: Vec<f32> = Vec::new();
                for layer in &layers {
                    grads.extend(layer.grad_state());
                }

                let mut full = zoo::build(arch, 7, 8).model;
                assert_eq!(
                    bits(full.forward(&x, true).data()),
                    bits(logits.data()),
                    "{ctx}"
                );
                let grad_in = full.backward(&grad_logits);
                assert_eq!(bits(grad_in.data()), bits(grad.data()), "input grad: {ctx}");
                assert_eq!(bits(&full.grad_state()), bits(&grads), "param grads: {ctx}");

                let mut lean = zoo::build(arch, 7, 8).model;
                assert_eq!(
                    bits(lean.forward(&x, true).data()),
                    bits(logits.data()),
                    "{ctx}"
                );
                lean.backward_params(&grad_logits);
                assert_eq!(bits(&lean.grad_state()), bits(&grads), "params-only: {ctx}");
                // The pass consumed every cache, the first layer's included.
                assert!(backward_panic(&mut lean, &grad_logits).is_some(), "{ctx}");
            }
        }
        crate::kernels::set_default_backend(before);
    }

    #[test]
    fn weighted_average_equal_weights_is_mean() {
        let a = vec![0.0, 2.0];
        let b = vec![4.0, 6.0];
        let avg = weighted_average_states(&[a, b], &[1.0, 1.0]);
        assert_eq!(avg, vec![2.0, 4.0]);
    }

    #[test]
    fn weighted_average_respects_weights() {
        let a = vec![0.0];
        let b = vec![10.0];
        let avg = weighted_average_states(&[a, b], &[3.0, 1.0]);
        assert!((avg[0] - 2.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "state length mismatch")]
    fn weighted_average_rejects_mismatched_lengths() {
        let _ = weighted_average_states(&[vec![1.0], vec![1.0, 2.0]], &[1.0, 1.0]);
    }

    #[test]
    fn param_bytes_matches_f32_size() {
        let model = tiny_mlp(5);
        assert_eq!(model.param_bytes(), model.num_params() * 4);
    }
}
