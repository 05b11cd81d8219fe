//! 2-D convolution.

use super::{Layer, Param};
use crate::init;
use crate::kernels::{self, conv::ConvGeom};
use crate::tensor::Tensor;
use rand::Rng;

/// A 2-D convolution over `[batch, in_channels, height, width]` inputs.
///
/// Square kernels, symmetric zero padding, configurable stride. Forward and backward run
/// through [`crate::kernels::conv`]: the gathered blocked kernel by default, or the
/// original direct loop nest under [`kernels::KernelBackend::Naive`].
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution layer with Kaiming-initialised weights and zero bias.
    pub fn new<R: Rng>(
        rng: &mut R,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        assert!(
            in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0,
            "Conv2d: invalid config"
        );
        let fan_in = in_channels * kernel * kernel;
        let weight =
            init::kaiming_normal(rng, &[out_channels, in_channels, kernel, kernel], fan_in);
        Self {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[out_channels])),
            cached_input: None,
        }
    }

    /// Output spatial size for a given input spatial size.
    pub fn output_size(&self, input: usize) -> usize {
        (input + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Geometry of this layer applied to a checked `[N, C, H, W]` input.
    fn geom(&self, input: &Tensor) -> ConvGeom {
        let shape = input.shape();
        ConvGeom::conv2d(
            shape[0],
            shape[1],
            shape[2],
            shape[3],
            self.out_channels,
            self.kernel,
            self.stride,
            self.padding,
        )
    }

    fn take_cached_input(&mut self) -> Tensor {
        self.cached_input
            .take()
            .expect("Conv2d::backward called without a cached forward pass")
    }

    fn check_input(&self, input: &Tensor) {
        assert_eq!(input.shape().len(), 4, "Conv2d: input must be [N, C, H, W]");
        assert_eq!(
            input.shape()[1],
            self.in_channels,
            "Conv2d: channel mismatch"
        );
        assert!(
            input.shape()[2] + 2 * self.padding >= self.kernel
                && input.shape()[3] + 2 * self.padding >= self.kernel,
            "Conv2d: input smaller than kernel"
        );
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "Conv2d"
    }

    fn forward(&mut self, input: Tensor, train: bool) -> Tensor {
        self.check_input(&input);
        let geom = self.geom(&input);
        let out = kernels::conv::conv_forward(
            kernels::default_backend(),
            &geom,
            input.data(),
            self.weight.value.data(),
            self.bias.value.data(),
        );
        let shape = [geom.n, self.out_channels, geom.h_out(), geom.w_out()];
        self.cached_input = train.then_some(input);
        Tensor::from_vec(out, &shape)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self.take_cached_input();
        let geom = self.geom(&input);
        let grad_in = kernels::conv::conv_backward(
            kernels::default_backend(),
            &geom,
            input.data(),
            self.weight.value.data(),
            grad_output.data(),
            self.weight.grad.data_mut(),
            self.bias.grad.data_mut(),
        );
        Tensor::from_vec(grad_in, input.shape())
    }

    fn backward_params(&mut self, grad_output: &Tensor) {
        let input = self.take_cached_input();
        kernels::conv::conv_backward_params(
            kernels::default_backend(),
            &self.geom(&input),
            input.data(),
            self.weight.value.data(),
            grad_output.data(),
            self.weight.grad.data_mut(),
            self.bias.grad.data_mut(),
        );
    }

    fn params(&self) -> Vec<&Param> {
        // Two-element list, built once per optimizer step rather than per sample
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
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
    fn output_shape_with_padding_and_stride() {
        let mut rng = seeded(0);
        let mut conv = Conv2d::new(&mut rng, 3, 8, 3, 1, 1);
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let y = conv.forward(x.clone(), true);
        assert_eq!(y.shape(), &[2, 8, 8, 8]);

        let mut strided = Conv2d::new(&mut rng, 3, 4, 3, 2, 0);
        let y2 = strided.forward(x.clone(), true);
        assert_eq!(y2.shape(), &[2, 4, 3, 3]);
    }

    #[test]
    fn known_convolution_value() {
        let mut rng = seeded(1);
        let mut conv = Conv2d::new(&mut rng, 1, 1, 2, 1, 0);
        // Set the 2x2 kernel to all ones, bias to zero: output is sum of each 2x2 window.
        conv.weight.value.data_mut().copy_from_slice(&[1.0; 4]);
        conv.bias.value.fill_zero();
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
            &[1, 1, 3, 3],
        );
        let y = conv.forward(x.clone(), true);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = seeded(2);
        let mut conv = Conv2d::new(&mut rng, 2, 3, 3, 1, 1);
        let x = init::kaiming_normal(&mut rng, &[1, 2, 4, 4], 4);
        check_input_gradient(&mut conv, &x, 1e-2, 2e-2);
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut rng = seeded(3);
        let mut conv = Conv2d::new(&mut rng, 1, 2, 2, 1, 0);
        let x = init::kaiming_normal(&mut rng, &[2, 1, 3, 3], 3);

        let y = conv.forward(x.clone(), true);
        conv.backward(&Tensor::ones(y.shape()));
        let analytic = conv.weight.grad.clone();

        let eps = 1e-2f32;
        for idx in 0..conv.weight.value.len() {
            let orig = conv.weight.value.data()[idx];
            conv.weight.value.data_mut()[idx] = orig + eps;
            let f_plus = conv.forward(x.clone(), true).sum();
            conv.weight.value.data_mut()[idx] = orig - eps;
            let f_minus = conv.forward(x.clone(), true).sum();
            conv.weight.value.data_mut()[idx] = orig;
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let a = analytic.data()[idx];
            assert!(
                (numeric - a).abs() < 2e-2 * (1.0 + numeric.abs()),
                "dW mismatch: {numeric} vs {a}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn rejects_wrong_channel_count() {
        let mut rng = seeded(4);
        let mut conv = Conv2d::new(&mut rng, 3, 4, 3, 1, 1);
        let x = Tensor::zeros(&[1, 2, 8, 8]);
        let _ = conv.forward(x.clone(), true);
    }
}
