//! Max-pooling layers (2-D and 1-D).
//!
//! Both layers are thin wrappers around the shared plane kernels in
//! [`crate::kernels::pool`]: a 2-D pool scans `k × k` windows over every
//! `(batch, channel)` plane, a 1-D pool is the height-1 special case.

use super::Layer;
use crate::kernels::pool::{maxpool_backward, maxpool_forward, maxpool_forward_values};
use crate::tensor::Tensor;

/// What a training forward leaves for the backward pass, shared by both layers.
#[derive(Default)]
struct Routing {
    /// Flat index (into the input) of the argmax of every output element; `None` unless
    /// the last forward was a training one.
    argmax: Option<Vec<usize>>,
    /// Shape of that forward's input. The buffer persists across iterations, so the
    /// shape cache allocates once, not once per forward.
    input_shape: Vec<usize>,
}

impl Routing {
    /// Pools `input` viewed as `planes` planes of `h × w` with a `kh × kw` window; records
    /// the argmax only when `train`.
    fn forward(
        &mut self,
        input: &Tensor,
        planes: usize,
        (h, w): (usize, usize),
        (kh, kw): (usize, usize),
        train: bool,
    ) -> Vec<f32> {
        self.clear();
        if !train {
            return maxpool_forward_values(input.data(), planes, h, w, kh, kw);
        }
        let (out, argmax) = maxpool_forward(input.data(), planes, h, w, kh, kw);
        self.argmax = Some(argmax);
        self.input_shape.clear();
        self.input_shape.extend_from_slice(input.shape());
        out
    }

    fn backward(&mut self, layer: &str, grad_output: &Tensor) -> Tensor {
        let argmax = self
            .argmax
            .take()
            .unwrap_or_else(|| panic!("{layer}::backward called without a cached forward pass"));
        let input_len = self.input_shape.iter().product();
        let grad_in = maxpool_backward(grad_output.data(), &argmax, input_len);
        crate::pool::recycle(argmax);
        Tensor::from_vec(grad_in, &self.input_shape)
    }

    fn clear(&mut self) {
        if let Some(argmax) = self.argmax.take() {
            crate::pool::recycle(argmax);
        }
    }
}

/// 2-D max pooling with a square window, stride equal to the window size.
pub struct MaxPool2d {
    window: usize,
    routing: Routing,
}

impl MaxPool2d {
    /// Creates a max-pool layer with the given window size (also used as the stride).
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "MaxPool2d: window must be positive");
        Self {
            window,
            routing: Routing::default(),
        }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "MaxPool2d"
    }

    fn forward(&mut self, input: Tensor, train: bool) -> Tensor {
        let &[n, c, h, w] = input.shape() else {
            panic!("MaxPool2d: input must be [N, C, H, W]");
        };
        let k = self.window;
        assert!(h >= k && w >= k, "MaxPool2d: input smaller than window");
        let out = self.routing.forward(&input, n * c, (h, w), (k, k), train);
        Tensor::from_vec(out, &[n, c, h / k, w / k])
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.routing.backward("MaxPool2d", grad_output)
    }

    fn reset_cache(&mut self) {
        self.routing.clear();
    }
}

/// 1-D max pooling with stride equal to the window size.
pub struct MaxPool1d {
    window: usize,
    routing: Routing,
}

impl MaxPool1d {
    /// Creates a 1-D max-pool layer with the given window size (also the stride).
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "MaxPool1d: window must be positive");
        Self {
            window,
            routing: Routing::default(),
        }
    }
}

impl Layer for MaxPool1d {
    fn name(&self) -> &'static str {
        "MaxPool1d"
    }

    fn forward(&mut self, input: Tensor, train: bool) -> Tensor {
        let &[n, c, l] = input.shape() else {
            panic!("MaxPool1d: input must be [N, C, L]");
        };
        let k = self.window;
        assert!(l >= k, "MaxPool1d: input smaller than window");
        let out = self.routing.forward(&input, n * c, (1, l), (1, k), train);
        Tensor::from_vec(out, &[n, c, l / k])
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.routing.backward("MaxPool1d", grad_output)
    }

    fn reset_cache(&mut self) {
        self.routing.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool2d_picks_window_maxima() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 1.0, 2.0, 3.0, //
                0.0, 5.0, 4.0, 1.0,
            ],
            &[1, 1, 4, 4],
        );
        let y = pool.forward(x, true);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[4.0, 8.0, 9.0, 4.0]);
    }

    #[test]
    fn maxpool2d_backward_routes_gradient_to_argmax() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let _ = pool.forward(x, true);
        let g = pool.backward(&Tensor::from_vec(vec![10.0], &[1, 1, 1, 1]));
        assert_eq!(g.data(), &[0.0, 0.0, 0.0, 10.0]);
    }

    #[test]
    fn maxpool1d_forward_and_backward() {
        let mut pool = MaxPool1d::new(2);
        let x = Tensor::from_vec(vec![1.0, 5.0, 2.0, 3.0, 9.0, 0.0], &[1, 1, 6]);
        let y = pool.forward(x, true);
        assert_eq!(y.data(), &[5.0, 3.0, 9.0]);
        let g = pool.backward(&Tensor::from_vec(vec![1.0, 1.0, 1.0], &[1, 1, 3]));
        assert_eq!(g.data(), &[0.0, 1.0, 0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn pooling_has_no_parameters() {
        assert_eq!(MaxPool2d::new(2).num_params(), 0);
        assert_eq!(MaxPool1d::new(2).num_params(), 0);
    }

    #[test]
    fn odd_sizes_are_truncated() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::zeros(&[1, 1, 5, 5]);
        let y = pool.forward(x, true);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
    }
}
