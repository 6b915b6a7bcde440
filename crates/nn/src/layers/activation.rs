//! Activation functions.

use crate::layer::{Layer, Mode};
use tdfm_tensor::{simd, Scratch, ScratchHandle, Tensor};

/// Rectified linear unit: `y = if 0.0 > x { 0.0 } else { x }`.
///
/// The only activation the seven architectures of the study use between
/// layers (softmax lives inside the losses). Unlike `x.max(0.0)`, the form
/// keeps NaN activations (IEEE faithfulness: a poisoned activation keeps
/// poisoning the forward pass) and `-0.0`. Forward and backward run
/// through the vector kernels in `tdfm_tensor::simd`. A [`Mode::Train`]
/// forward stores the `x > 0.0` mask as all-ones/all-zeros words, so the
/// backward pass is one bitwise AND; a [`Mode::Eval`] forward writes no
/// mask (no backward can follow it, and `backward` then panics) and gives
/// the same output bits. The mask and the output buffer are reused across
/// batches, so steady-state forward/backward passes allocate nothing.
#[derive(Debug, Clone)]
pub struct ReLU {
    mask: Vec<u32>,
    scratch: ScratchHandle,
}

impl ReLU {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Default for ReLU {
    fn default() -> Self {
        Self {
            mask: Vec::new(),
            scratch: Scratch::shared().clone(),
        }
    }
}

impl Layer for ReLU {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        // Cleared, not freed: the capacity serves the next Train pass.
        self.mask.clear();
        let mut out = self.scratch.tensor_uninit(input.shape().dims());
        let mask = (mode == Mode::Train).then(|| {
            self.mask.resize(input.numel(), 0);
            &mut self.mask[..]
        });
        simd::relu_forward(input.data(), out.data_mut(), mask);
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        assert_eq!(
            grad_output.numel(),
            self.mask.len(),
            "backward called with mismatched shape (or without a Train-mode forward)"
        );
        let mut out = self.scratch.tensor_uninit(grad_output.shape().dims());
        simd::relu_backward(grad_output.data(), &self.mask, out.data_mut());
        out
    }

    fn bind_scratch(&mut self, scratch: &ScratchHandle) {
        self.scratch = scratch.clone();
    }

    fn name(&self) -> &'static str {
        "ReLU"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut r = ReLU::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[1, 3]);
        let y = r.forward(&x, Mode::Train);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut r = ReLU::new();
        let x = Tensor::from_vec(vec![-1.0, 3.0], &[1, 2]);
        let _ = r.forward(&x, Mode::Train);
        let gx = r.backward(&Tensor::from_vec(vec![5.0, 7.0], &[1, 2]));
        assert_eq!(gx.data(), &[0.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "mismatched shape")]
    fn backward_before_forward_panics() {
        let mut r = ReLU::new();
        let _ = r.backward(&Tensor::ones(&[1, 2]));
    }

    #[test]
    fn eval_output_is_bit_identical_to_train_output() {
        let x = Tensor::from_vec(
            vec![
                f32::from_bits(0x7fc0_0123),
                -0.0,
                0.0,
                -1.5,
                2.5,
                f32::NEG_INFINITY,
                f32::INFINITY,
                f32::from_bits(0xffc0_0456),
                -3.0,
                1e-40,
                -1e-40,
            ],
            &[1, 11],
        );
        let mut r = ReLU::new();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let train = bits(&r.forward(&x, Mode::Train));
        let eval = bits(&r.forward(&x, Mode::Eval));
        assert_eq!(eval, train);
        // The NaN payloads and the sign of zero survive.
        assert_eq!(eval[0], 0x7fc0_0123);
        assert_eq!(eval[1], (-0.0f32).to_bits());
        assert_eq!(eval[7], 0xffc0_0456);
    }

    #[test]
    #[should_panic(expected = "without a Train-mode forward")]
    fn backward_after_eval_forward_panics() {
        let mut r = ReLU::new();
        let x = Tensor::from_vec(vec![-1.0, 3.0], &[1, 2]);
        let _ = r.forward(&x, Mode::Train);
        // The evaluation pass drops the Train mask.
        let _ = r.forward(&x, Mode::Eval);
        let _ = r.backward(&Tensor::ones(&[1, 2]));
    }

    #[test]
    fn nan_activations_stay_nan() {
        // `f32::max(NaN, 0.0)` returns 0.0 — the layer must not use it to
        // launder a poisoned activation into a clean zero.
        let mut r = ReLU::new();
        let x = Tensor::from_vec(vec![f32::NAN, -1.0, 2.0], &[1, 3]);
        let y = r.forward(&x, Mode::Train);
        assert!(y.data()[0].is_nan());
        assert_eq!(&y.data()[1..], &[0.0, 2.0]);
    }
}
