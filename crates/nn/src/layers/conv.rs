//! Convolution layer wrapping the `tdfm-tensor` conv kernels.

use crate::layer::{Layer, Mode, Param};
use tdfm_tensor::ops::{
    conv2d_backward_params_with, conv2d_backward_with, conv2d_forward_with, Conv2dSpec,
};
use tdfm_tensor::rng::Rng;
use tdfm_tensor::{Scratch, ScratchHandle, Tensor};

/// A 2-D convolution layer with optional stride, padding and groups.
///
/// `groups == in_channels` produces the depthwise convolution MobileNet
/// uses; `kernel == 1` with `groups == 1` is its pointwise companion.
///
/// The input activation is cached only under [`Mode::Train`]; evaluation
/// passes drop any previous cache so inference never retains (or trains
/// against) stale activations.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    spec: Conv2dSpec,
    input_cache: Option<Tensor>,
    scratch: ScratchHandle,
}

impl Conv2d {
    /// Creates a convolution with He-initialised kernels.
    ///
    /// # Panics
    ///
    /// Panics if channel counts are not divisible by `spec.groups`.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        spec: Conv2dSpec,
        rng: &mut Rng,
    ) -> Self {
        assert!(
            in_channels.is_multiple_of(spec.groups),
            "in_channels vs groups"
        );
        assert!(
            out_channels.is_multiple_of(spec.groups),
            "out_channels vs groups"
        );
        let fan_in = (in_channels / spec.groups) * kernel * kernel;
        let std = (2.0 / fan_in as f32).sqrt();
        Self {
            weight: Param::new(Tensor::randn(
                &[out_channels, in_channels / spec.groups, kernel, kernel],
                std,
                rng,
            )),
            bias: Param::new(Tensor::zeros(&[out_channels])),
            spec,
            input_cache: None,
            scratch: Scratch::shared().clone(),
        }
    }

    /// The convolution geometry.
    pub fn spec(&self) -> Conv2dSpec {
        self.spec
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.weight.value.shape().dim(0)
    }

    /// `true` when a Train-mode forward pass has left an activation cached.
    pub fn has_cached_input(&self) -> bool {
        self.input_cache.is_some()
    }

    fn cached_input(&self) -> &Tensor {
        self.input_cache
            .as_ref()
            .expect("Train-mode forward before backward")
    }

    /// Adds one backward pass's weight and bias gradients to the
    /// accumulated ones and recycles them.
    fn accumulate(&mut self, gw: Tensor, gb: Tensor) {
        self.weight.grad.axpy(1.0, &gw);
        self.bias.grad.axpy(1.0, &gb);
        self.scratch.recycle(gw);
        self.scratch.recycle(gb);
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let out = conv2d_forward_with(
            input,
            &self.weight.value,
            Some(&self.bias.value),
            self.spec,
            &self.scratch,
        );
        if let Some(old) = self.input_cache.take() {
            self.scratch.recycle(old);
        }
        if mode == Mode::Train {
            let mut cache = self.scratch.tensor_uninit(input.shape().dims());
            cache.data_mut().copy_from_slice(input.data());
            self.input_cache = Some(cache);
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let grads = conv2d_backward_with(
            self.cached_input(),
            &self.weight.value,
            grad_output,
            self.spec,
            &self.scratch,
        );
        self.accumulate(grads.grad_weight, grads.grad_bias);
        grads.grad_input
    }

    fn backward_params(&mut self, grad_output: &Tensor) -> Option<Tensor> {
        let (gw, gb) = conv2d_backward_params_with(
            self.cached_input(),
            &self.weight.value,
            grad_output,
            self.spec,
            &self.scratch,
        );
        self.accumulate(gw, gb);
        None
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn bind_scratch(&mut self, scratch: &ScratchHandle) {
        self.scratch = scratch.clone();
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape_respects_spec() {
        let mut rng = Rng::seed_from(0);
        let mut c = Conv2d::new(
            3,
            8,
            3,
            Conv2dSpec {
                stride: 2,
                pad: 1,
                groups: 1,
            },
            &mut rng,
        );
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let y = c.forward(&x, Mode::Train);
        assert_eq!(y.shape().dims(), &[2, 8, 4, 4]);
    }

    #[test]
    fn depthwise_parameter_count() {
        let mut rng = Rng::seed_from(1);
        let mut c = Conv2d::new(
            8,
            8,
            3,
            Conv2dSpec {
                stride: 1,
                pad: 1,
                groups: 8,
            },
            &mut rng,
        );
        // 8 kernels of 1x3x3 plus 8 biases.
        assert_eq!(c.param_count(), 8 * 9 + 8);
    }

    #[test]
    fn backward_gradient_check() {
        let mut rng = Rng::seed_from(2);
        let mut c = Conv2d::new(2, 3, 3, Conv2dSpec::same(3), &mut rng);
        let x = Tensor::randn(&[1, 2, 5, 5], 1.0, &mut rng);
        let y = c.forward(&x, Mode::Train);
        let gx = c.backward(&Tensor::ones(y.shape().dims()));
        let eps = 1e-2;
        for i in [0usize, 13, 27, 49] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (c.forward(&xp, Mode::Train).sum() - c.forward(&xm, Mode::Train).sum())
                / (2.0 * eps);
            assert!((num - gx.data()[i]).abs() < 2e-2, "x[{i}]");
        }
    }

    #[test]
    fn eval_forward_leaves_no_cached_input() {
        // Regression test: forward used to cache the input unconditionally.
        let mut rng = Rng::seed_from(3);
        let mut c = Conv2d::new(1, 2, 3, Conv2dSpec::same(3), &mut rng);
        let x = Tensor::randn(&[1, 1, 4, 4], 1.0, &mut rng);
        let _ = c.forward(&x, Mode::Eval);
        assert!(!c.has_cached_input(), "Eval must not cache activations");
        let _ = c.forward(&x, Mode::Train);
        assert!(c.has_cached_input());
        let _ = c.forward(&x, Mode::Eval);
        assert!(!c.has_cached_input(), "Eval must drop a stale Train cache");
    }

    #[test]
    fn nan_input_poisons_forward_even_with_zero_weights() {
        let mut rng = Rng::seed_from(4);
        let mut c = Conv2d::new(1, 1, 3, Conv2dSpec::same(3), &mut rng);
        c.weight.value.fill(0.0);
        let mut x = Tensor::zeros(&[1, 1, 4, 4]);
        x.data_mut()[5] = f32::NAN;
        let y = c.forward(&x, Mode::Train);
        // Every window covering index 5 must see 0·NaN = NaN.
        assert!(y.data()[5].is_nan(), "NaN must not be skipped: {:?}", y);
    }
}
