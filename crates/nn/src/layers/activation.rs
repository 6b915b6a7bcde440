//! Activation functions.

use crate::layer::{Layer, Mode};
use tdfm_tensor::{simd, Scratch, ScratchHandle, Tensor};

/// Rectified linear unit: `y = max(0, x)`.
///
/// The only activation the seven architectures of the study use between
/// layers (softmax lives inside the losses). Forward and backward run
/// through the vector kernels in `tdfm_tensor::simd`: NaN activations pass
/// through unlaundered (IEEE faithfulness) and the sign mask is stored as
/// all-ones/all-zeros words so the backward pass is one bitwise AND. The
/// mask and the output buffer are reused across batches, so steady-state
/// forward/backward passes allocate nothing.
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
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        self.mask.clear();
        self.mask.resize(input.numel(), 0);
        let mut out = self.scratch.tensor_uninit(input.shape().dims());
        // The kernel keeps NaN activations intact (`f32::max` would
        // launder them into 0.0; a poisoned activation must keep poisoning
        // the forward pass) and records the x > 0.0 mask in one sweep.
        simd::relu_forward(input.data(), out.data_mut(), &mut self.mask);
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        assert_eq!(
            grad_output.numel(),
            self.mask.len(),
            "backward called with mismatched shape (or before forward)"
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
