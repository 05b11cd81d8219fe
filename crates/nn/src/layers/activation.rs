//! Activation layers.

use super::Layer;
use crate::kernels;
use crate::tensor::Tensor;

/// Rectified linear unit: `y = max(0, x)`, applied element-wise to any shape.
///
/// The forward clamps the buffer it is given. The backward mask is read from the layer's
/// own output (`y > 0.0` exactly where `x > 0.0`), a pooled copy of which a training
/// forward keeps — an inference forward keeps nothing.
#[derive(Default)]
pub struct Relu {
    cached_output: Option<Tensor>,
}

impl Relu {
    /// Creates a new ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "ReLU"
    }

    fn forward(&mut self, input: Tensor, train: bool) -> Tensor {
        let mut output = input;
        kernels::relu_in_place(output.data_mut());
        self.cached_output = train.then(|| output.clone());
        output
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let output = self
            .cached_output
            .take()
            .expect("Relu::backward called without a cached forward pass");
        let grad_in = kernels::relu_backward(grad_output.data(), output.data());
        Tensor::from_vec(grad_in, grad_output.shape())
    }

    fn reset_cache(&mut self) {
        self.cached_output = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::check_input_gradient;

    #[test]
    fn forward_clamps_negatives() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.5], &[1, 3]);
        let y = relu.forward(x, true);
        assert_eq!(y.data(), &[0.0, 0.0, 2.5]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 3.0, -0.5, 4.0], &[2, 2]);
        let _ = relu.forward(x, true);
        let g = relu.backward(&Tensor::ones(&[2, 2]));
        assert_eq!(g.data(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn gradient_matches_finite_difference_away_from_kink() {
        let mut relu = Relu::new();
        // Values well away from zero so the finite difference is valid.
        let x = Tensor::from_vec(vec![-2.0, -1.0, 1.0, 2.0, 3.0, -3.0], &[2, 3]);
        check_input_gradient(&mut relu, &x, 1e-3, 1e-3);
    }

    #[test]
    fn has_no_parameters() {
        let relu = Relu::new();
        assert_eq!(relu.num_params(), 0);
        assert!(relu.params().is_empty());
    }
}
