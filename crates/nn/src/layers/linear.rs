//! Fully-connected (dense) layer.

use super::{Layer, Param};
use crate::init;
use crate::kernels::{self, Epilogue};
use crate::tensor::Tensor;
use rand::Rng;

/// A fully-connected layer computing `y = x W^T + b`.
///
/// * input: `[batch, in_features]`
/// * weight: `[out_features, in_features]`
/// * bias: `[out_features]`
/// * output: `[batch, out_features]`
pub struct Linear {
    in_features: usize,
    out_features: usize,
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a new linear layer with Xavier-initialised weights and zero bias.
    pub fn new<R: Rng>(rng: &mut R, in_features: usize, out_features: usize) -> Self {
        assert!(
            in_features > 0 && out_features > 0,
            "Linear: dimensions must be positive"
        );
        let weight =
            init::xavier_uniform(rng, &[out_features, in_features], in_features, out_features);
        Self {
            in_features,
            out_features,
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[out_features])),
            cached_input: None,
        }
    }

    /// The parameter half of the backward pass; consumes the cached input.
    fn accumulate_param_grads(&mut self, grad_output: &Tensor) {
        let input = self
            .cached_input
            .take()
            .expect("Linear::backward called without a cached forward pass");
        assert_eq!(
            grad_output.shape()[1],
            self.out_features,
            "Linear: grad dim mismatch"
        );
        // dL/dW = grad_output^T @ input       -> [out, in]
        // dL/db = sum_rows(grad_output)        -> [out]
        let batch = input.shape()[0];
        let mut grad_w = crate::pool::take_zeroed::<f32>(self.out_features * self.in_features);
        kernels::gemm_tn(
            kernels::default_backend(),
            self.out_features,
            self.in_features,
            batch,
            grad_output.data(),
            input.data(),
            &mut grad_w,
            Epilogue::None,
        );
        self.weight
            .grad
            .add_assign(&Tensor::from_vec(grad_w, self.weight.value.shape()));
        self.bias.grad.add_assign(&grad_output.sum_rows());
    }

    /// Input feature dimension.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature dimension.
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

impl Layer for Linear {
    fn name(&self) -> &'static str {
        "Linear"
    }

    fn forward(&mut self, input: Tensor, train: bool) -> Tensor {
        assert_eq!(input.shape().len(), 2, "Linear: input must be 2-D");
        assert_eq!(
            input.shape()[1],
            self.in_features,
            "Linear: feature dim mismatch"
        );
        // y = x W^T + b, straight through the GEMM kernels (no transposed copy of W) with
        // the bias broadcast as a fused epilogue.
        let batch = input.shape()[0];
        let mut out = crate::pool::take_zeroed::<f32>(batch * self.out_features);
        kernels::gemm_nt(
            kernels::default_backend(),
            batch,
            self.out_features,
            self.in_features,
            input.data(),
            self.weight.value.data(),
            &mut out,
            Epilogue::BiasRow(self.bias.value.data()),
        );
        self.cached_input = train.then_some(input);
        Tensor::from_vec(out, &[batch, self.out_features])
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.accumulate_param_grads(grad_output);
        // dL/dx = grad_output @ W              -> [batch, in]
        let batch = grad_output.shape()[0];
        let mut grad_in = crate::pool::take_zeroed::<f32>(batch * self.in_features);
        kernels::gemm_nn(
            kernels::default_backend(),
            batch,
            self.in_features,
            self.out_features,
            grad_output.data(),
            self.weight.value.data(),
            &mut grad_in,
            Epilogue::None,
        );
        Tensor::from_vec(grad_in, &[batch, self.in_features])
    }

    fn backward_params(&mut self, grad_output: &Tensor) {
        self.accumulate_param_grads(grad_output);
    }

    fn params(&self) -> Vec<&Param> {
        // lint: allow(hot-path-alloc) two-element parameter enumeration, called
        // once per optimizer step rather than per sample
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        // lint: allow(hot-path-alloc) two-element parameter enumeration, called
        // once per optimizer step rather than per sample
        vec![&mut self.weight, &mut self.bias]
    }

    fn reset_cache(&mut self) {
        self.cached_input = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::check_input_gradient;
    use crate::rng::seeded;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = seeded(0);
        let mut layer = Linear::new(&mut rng, 4, 3);
        // Zero the weights so output equals the bias broadcast.
        layer.weight.value.fill_zero();
        layer
            .bias
            .value
            .data_mut()
            .copy_from_slice(&[1.0, 2.0, 3.0]);
        let x = Tensor::ones(&[2, 4]);
        let y = layer.forward(x.clone(), true);
        assert_eq!(y.shape(), &[2, 3]);
        assert_eq!(y.data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = seeded(1);
        let mut layer = Linear::new(&mut rng, 5, 4);
        let x = init::kaiming_normal(&mut rng, &[3, 5], 5);
        check_input_gradient(&mut layer, &x, 1e-2, 1e-2);
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut rng = seeded(2);
        let mut layer = Linear::new(&mut rng, 3, 2);
        let x = init::kaiming_normal(&mut rng, &[2, 3], 3);

        let out = layer.forward(x.clone(), true);
        let grad_out = Tensor::ones(out.shape());
        layer.backward(&grad_out);
        let analytic = layer.weight.grad.clone();

        let eps = 1e-2f32;
        for idx in 0..layer.weight.value.len() {
            let orig = layer.weight.value.data()[idx];
            layer.weight.value.data_mut()[idx] = orig + eps;
            let f_plus = layer.forward(x.clone(), true).sum();
            layer.weight.value.data_mut()[idx] = orig - eps;
            let f_minus = layer.forward(x.clone(), true).sum();
            layer.weight.value.data_mut()[idx] = orig;
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let a = analytic.data()[idx];
            assert!(
                (numeric - a).abs() < 1e-2 * (1.0 + numeric.abs()),
                "dW mismatch: {numeric} vs {a}"
            );
        }
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut rng = seeded(3);
        let mut layer = Linear::new(&mut rng, 2, 2);
        let x = Tensor::ones(&[1, 2]);
        for _ in 0..2 {
            let y = layer.forward(x.clone(), true);
            layer.backward(&Tensor::ones(y.shape()));
        }
        let accumulated = layer.bias.grad.clone();
        assert_eq!(accumulated.data(), &[2.0, 2.0]);
        layer.params_mut().iter_mut().for_each(|p| p.zero_grad());
        assert_eq!(layer.bias.grad.sum(), 0.0);
    }

    #[test]
    fn num_params_counts_weight_and_bias() {
        let mut rng = seeded(4);
        let layer = Linear::new(&mut rng, 7, 5);
        assert_eq!(layer.num_params(), 7 * 5 + 5);
    }
}
