//! Flattening between convolutional and dense stages.

use crate::layer::{Layer, Mode};
use tdfm_tensor::{Scratch, ScratchHandle, Tensor};

/// Flattens `[N, ...]` to `[N, prod(...)]`, remembering the original shape
/// for the backward pass. Both directions copy through the scratch arena,
/// so steady-state passes allocate nothing.
#[derive(Debug, Clone)]
pub struct Flatten {
    input_dims: Vec<usize>,
    scratch: ScratchHandle,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Default for Flatten {
    fn default() -> Self {
        Self {
            input_dims: Vec::new(),
            scratch: Scratch::shared().clone(),
        }
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        self.input_dims.clear();
        self.input_dims.extend_from_slice(input.shape().dims());
        let n = self.input_dims[0];
        let mut out = self.scratch.tensor_uninit(&[n, input.numel() / n]);
        out.data_mut().copy_from_slice(input.data());
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        assert!(!self.input_dims.is_empty(), "forward before backward");
        let mut out = self.scratch.tensor_uninit(&self.input_dims);
        out.data_mut().copy_from_slice(grad_output.data());
        out
    }

    fn bind_scratch(&mut self, scratch: &ScratchHandle) {
        self.scratch = scratch.clone();
    }

    fn name(&self) -> &'static str {
        "Flatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 2, 2]);
        let y = f.forward(&x, Mode::Train);
        assert_eq!(y.shape().dims(), &[2, 12]);
        let gx = f.backward(&y);
        assert_eq!(gx.shape().dims(), &[2, 3, 2, 2]);
        assert_eq!(gx.data(), x.data());
    }
}
