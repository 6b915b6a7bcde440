//! Inverted dropout.

use crate::layer::{Layer, Mode};
use tdfm_tensor::rng::Rng;
use tdfm_tensor::{Scratch, ScratchHandle, Tensor};

/// Inverted dropout: during training each activation is zeroed with
/// probability `p` and the survivors are scaled by `1/(1-p)`; evaluation is
/// the identity.
///
/// DeconvNet (Table III) uses `p = 0.5` before its dense layers. The mask
/// and output buffers are reused across batches.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    rng: Rng,
    mask: Vec<f32>,
    last_was_train: bool,
    scratch: ScratchHandle,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p < 1`.
    pub fn new(p: f32, rng: Rng) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0, 1)"
        );
        Self {
            p,
            rng,
            mask: Vec::new(),
            last_was_train: false,
            scratch: Scratch::shared().clone(),
        }
    }

    /// Drop probability.
    pub fn probability(&self) -> f32 {
        self.p
    }

    fn copy_out(&self, src: &Tensor) -> Tensor {
        let mut out = self.scratch.tensor_uninit(src.shape().dims());
        out.data_mut().copy_from_slice(src.data());
        out
    }
}

impl Layer for Dropout {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        match mode {
            Mode::Eval => {
                self.last_was_train = false;
                self.copy_out(input)
            }
            Mode::Train => {
                self.last_was_train = true;
                let keep = 1.0 - self.p;
                let scale = 1.0 / keep;
                self.mask.clear();
                let rng = &mut self.rng;
                self.mask.extend((0..input.numel()).map(|_| {
                    if rng.chance(keep) {
                        scale
                    } else {
                        0.0
                    }
                }));
                let mut out = self.scratch.tensor_uninit(input.shape().dims());
                for ((o, &x), &m) in out.data_mut().iter_mut().zip(input.data()).zip(&self.mask) {
                    *o = x * m;
                }
                out
            }
        }
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        if !self.last_was_train {
            return self.copy_out(grad_output);
        }
        assert_eq!(
            grad_output.numel(),
            self.mask.len(),
            "forward before backward"
        );
        let mut out = self.scratch.tensor_uninit(grad_output.shape().dims());
        for ((o, &g), &m) in out
            .data_mut()
            .iter_mut()
            .zip(grad_output.data())
            .zip(&self.mask)
        {
            *o = g * m;
        }
        out
    }

    fn bind_scratch(&mut self, scratch: &ScratchHandle) {
        self.scratch = scratch.clone();
    }

    fn name(&self) -> &'static str {
        "Dropout"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_is_identity() {
        let mut d = Dropout::new(0.5, Rng::seed_from(0));
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
        assert_eq!(d.forward(&x, Mode::Eval), x);
    }

    #[test]
    fn train_preserves_expectation() {
        let mut d = Dropout::new(0.5, Rng::seed_from(1));
        let x = Tensor::ones(&[1, 10_000]);
        let y = d.forward(&x, Mode::Train);
        // E[y] = 1; with 10k samples the mean should be close.
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {}", y.mean());
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, Rng::seed_from(2));
        let x = Tensor::ones(&[1, 64]);
        let y = d.forward(&x, Mode::Train);
        let gx = d.backward(&Tensor::ones(&[1, 64]));
        // Grad must be zero exactly where the output was zero.
        for (o, g) in y.data().iter().zip(gx.data()) {
            assert_eq!(*o == 0.0, *g == 0.0);
        }
    }

    #[test]
    fn zero_probability_is_identity_in_train() {
        let mut d = Dropout::new(0.0, Rng::seed_from(3));
        let x = Tensor::from_vec(vec![1.0, -2.0], &[1, 2]);
        assert_eq!(d.forward(&x, Mode::Train).data(), x.data());
    }
}
