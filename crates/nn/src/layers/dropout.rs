//! Inverted dropout.

use super::Layer;
use crate::rng;
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;

/// Inverted dropout: during training, each activation is zeroed with probability `p` and the
/// survivors are scaled by `1 / (1 - p)`; at evaluation time the layer is the identity.
pub struct Dropout {
    p: f32,
    rng: StdRng,
    mask: Option<Vec<f32>>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p` in `[0, 1)` and a dedicated seed.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "Dropout: p must be in [0, 1)");
        Self {
            p,
            rng: rng::seeded(seed),
            mask: None,
        }
    }

    /// Drop probability.
    pub fn p(&self) -> f32 {
        self.p
    }
}

impl Layer for Dropout {
    fn name(&self) -> &'static str {
        "Dropout"
    }

    fn forward(&mut self, mut input: Tensor, train: bool) -> Tensor {
        self.reset_cache();
        if !train || self.p == 0.0 {
            return input;
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        // Pooled mask, applied to the owned input in place; the RNG consumes one draw
        // per element in element order, which is what keeps trajectories fixed.
        let mut mask = crate::pool::take_uninit::<f32>(input.len());
        for m in mask.iter_mut() {
            *m = if self.rng.gen::<f32>() < keep {
                scale
            } else {
                0.0
            };
        }
        for (x, m) in input.data_mut().iter_mut().zip(&mask) {
            *x *= m;
        }
        self.mask = Some(mask);
        input
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        match self.mask.take() {
            Some(mask) => {
                let mut data = crate::pool::take_uninit::<f32>(grad_output.len());
                for ((o, g), m) in data.iter_mut().zip(grad_output.data()).zip(&mask) {
                    *o = g * m;
                }
                crate::pool::recycle(mask);
                Tensor::from_vec(data, grad_output.shape())
            }
            // No mask was drawn (p == 0): the forward was the identity.
            None => grad_output.clone(),
        }
    }

    fn reset_cache(&mut self) {
        if let Some(mask) = self.mask.take() {
            crate::pool::recycle(mask);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_mode_is_identity_and_clears_the_mask() {
        let mut layer = Dropout::new(0.5, 0);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let _ = layer.forward(x.clone(), true);
        assert!(layer.mask.is_some());
        let y = layer.forward(x.clone(), false);
        assert_eq!(y, x);
        assert!(layer.mask.is_none());
    }

    #[test]
    fn zero_probability_is_the_identity_both_ways() {
        let mut layer = Dropout::new(0.0, 0);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(layer.forward(x.clone(), true), x);
        let g = layer.backward(&Tensor::ones(&[2, 2]));
        assert_eq!(g.data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn training_preserves_expectation_roughly() {
        let mut layer = Dropout::new(0.5, 7);
        let x = Tensor::ones(&[1, 4096]);
        let y = layer.forward(x, true);
        // Inverted dropout keeps E[y] = E[x]; with 4096 samples the mean stays near 1.
        assert!((y.mean() - 1.0).abs() < 0.1, "mean {} drifted", y.mean());
    }

    #[test]
    fn backward_uses_same_mask_as_forward() {
        let mut layer = Dropout::new(0.3, 11);
        let x = Tensor::ones(&[1, 64]);
        let y = layer.forward(x, true);
        let g = layer.backward(&Tensor::ones(&[1, 64]));
        // The gradient is zero exactly where the output was zero.
        for (yo, go) in y.data().iter().zip(g.data()) {
            assert_eq!(*yo == 0.0, *go == 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "p must be in [0, 1)")]
    fn rejects_invalid_probability() {
        let _ = Dropout::new(1.0, 0);
    }
}
