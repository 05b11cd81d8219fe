//! Flatten layer: collapses every non-batch dimension into one feature dimension.

use super::Layer;
use crate::tensor::Tensor;

/// Reshapes `[batch, d1, d2, ...]` into `[batch, d1*d2*...]`.
///
/// Used at the boundary between convolutional feature extractors and fully-connected
/// classifier heads (the typical split-layer position in the paper's models).
#[derive(Default)]
pub struct Flatten {
    input_shape: Option<Vec<usize>>,
    /// Buffer recycled between `backward` (which takes `input_shape`) and the next
    /// `forward`, so the shape cache allocates once, not once per iteration.
    shape_spare: Vec<usize>,
}

impl Flatten {
    /// Creates a new flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn name(&self) -> &'static str {
        "Flatten"
    }

    fn forward(&mut self, input: Tensor, train: bool) -> Tensor {
        assert!(
            input.shape().len() >= 2,
            "Flatten: input must have a batch dimension"
        );
        self.input_shape = train.then(|| {
            let mut shape = std::mem::take(&mut self.shape_spare);
            shape.clear();
            shape.extend_from_slice(input.shape());
            shape
        });
        let batch = input.batch();
        let features = input.per_item();
        input.into_shape(&[batch, features])
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let shape = self
            .input_shape
            .take()
            .expect("Flatten::backward called without a cached forward pass");
        let grad = grad_output.reshape(&shape);
        self.shape_spare = shape;
        grad
    }

    fn reset_cache(&mut self) {
        self.input_shape = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_and_restore() {
        let mut layer = Flatten::new();
        let x = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 2, 2]);
        let y = layer.forward(x.clone(), true);
        assert_eq!(y.shape(), &[2, 12]);
        let g = layer.backward(&y);
        assert_eq!(g.shape(), &[2, 3, 2, 2]);
        assert_eq!(g.data(), x.data());
    }

    #[test]
    fn already_flat_input_is_unchanged() {
        let mut layer = Flatten::new();
        let x = Tensor::ones(&[4, 7]);
        let y = layer.forward(x, false);
        assert_eq!(y.shape(), &[4, 7]);
    }
}
