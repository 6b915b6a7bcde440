//! Batch normalisation over channels of NCHW tensors.

use crate::layer::{Layer, Mode, Param};
use tdfm_tensor::{Scratch, ScratchHandle, Tensor};

/// 2-D batch normalisation: normalises each channel over the batch and
/// spatial dimensions, then applies a learned scale (`gamma`) and shift
/// (`beta`).
///
/// Running statistics are tracked with exponential moving averages and used
/// in [`Mode::Eval`]; the ResNet and MobileNet analogues rely on this layer
/// to train stably at the study's depths. Per-channel work buffers are
/// reused across batches and the activation tensors come from the scratch
/// arena, so steady-state passes allocate nothing.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    // Caches for backward.
    x_hat: Option<Tensor>,
    inv_std: Vec<f32>,
    count: usize,
    last_was_train: bool,
    // Reused per-channel work buffers.
    mean_buf: Vec<f32>,
    var_buf: Vec<f32>,
    sum_gy: Vec<f32>,
    sum_gy_xhat: Vec<f32>,
    scratch: ScratchHandle,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` channels.
    pub fn new(channels: usize) -> Self {
        Self {
            gamma: Param::new(Tensor::ones(&[channels])),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            eps: 1e-5,
            x_hat: None,
            inv_std: vec![0.0; channels],
            count: 0,
            last_was_train: false,
            mean_buf: vec![0.0; channels],
            var_buf: vec![0.0; channels],
            sum_gy: vec![0.0; channels],
            sum_gy_xhat: vec![0.0; channels],
            scratch: Scratch::shared().clone(),
        }
    }

    fn channel_stats(input: &Tensor) -> (usize, usize, usize) {
        assert_eq!(input.shape().rank(), 4, "batch norm input must be NCHW");
        let n = input.shape().dim(0);
        let c = input.shape().dim(1);
        let hw = input.shape().dim(2) * input.shape().dim(3);
        (n, c, hw)
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let (n, c, hw) = Self::channel_stats(input);
        assert_eq!(c, self.gamma.numel(), "channel count mismatch");
        let count = n * hw;
        self.count = count;
        self.last_was_train = mode == Mode::Train;

        self.mean_buf.fill(0.0);
        self.var_buf.fill(0.0);
        if mode == Mode::Train {
            for s in 0..n {
                for (ch, m) in self.mean_buf.iter_mut().enumerate() {
                    let base = (s * c + ch) * hw;
                    let slice = &input.data()[base..base + hw];
                    *m += slice.iter().sum::<f32>();
                }
            }
            for m in &mut self.mean_buf {
                *m /= count as f32;
            }
            for s in 0..n {
                for ch in 0..c {
                    let base = (s * c + ch) * hw;
                    for &x in &input.data()[base..base + hw] {
                        let d = x - self.mean_buf[ch];
                        self.var_buf[ch] += d * d;
                    }
                }
            }
            for v in &mut self.var_buf {
                *v /= count as f32;
            }
            for ch in 0..c {
                self.running_mean[ch] = (1.0 - self.momentum) * self.running_mean[ch]
                    + self.momentum * self.mean_buf[ch];
                self.running_var[ch] =
                    (1.0 - self.momentum) * self.running_var[ch] + self.momentum * self.var_buf[ch];
            }
        } else {
            self.mean_buf.copy_from_slice(&self.running_mean);
            self.var_buf.copy_from_slice(&self.running_var);
        }

        let eps = self.eps;
        self.inv_std.clear();
        self.inv_std
            .extend(self.var_buf.iter().map(|v| 1.0 / (v + eps).sqrt()));

        let mut out = self.scratch.tensor_uninit(input.shape().dims());
        let mut x_hat = self.scratch.tensor_uninit(input.shape().dims());
        let g = self.gamma.value.data();
        let b = self.beta.value.data();
        for s in 0..n {
            for ch in 0..c {
                let base = (s * c + ch) * hw;
                let (m, is) = (self.mean_buf[ch], self.inv_std[ch]);
                let (gc, bc) = (g[ch], b[ch]);
                let src = &input.data()[base..base + hw];
                let xh = &mut x_hat.data_mut()[base..base + hw];
                let o = &mut out.data_mut()[base..base + hw];
                for i in 0..hw {
                    let norm = (src[i] - m) * is;
                    xh[i] = norm;
                    o[i] = gc * norm + bc;
                }
            }
        }
        if let Some(old) = self.x_hat.take() {
            self.scratch.recycle(old);
        }
        if mode == Mode::Train {
            self.x_hat = Some(x_hat);
        } else {
            self.scratch.recycle(x_hat);
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        assert!(
            self.last_was_train,
            "backward requires a Train-mode forward"
        );
        let x_hat = self.x_hat.as_ref().expect("forward before backward");
        let (n, c, hw) = Self::channel_stats(grad_output);
        let count = self.count as f32;

        // Per-channel reductions.
        self.sum_gy.fill(0.0);
        self.sum_gy_xhat.fill(0.0);
        for s in 0..n {
            for ch in 0..c {
                let base = (s * c + ch) * hw;
                let gy = &grad_output.data()[base..base + hw];
                let xh = &x_hat.data()[base..base + hw];
                for i in 0..hw {
                    self.sum_gy[ch] += gy[i];
                    self.sum_gy_xhat[ch] += gy[i] * xh[i];
                }
            }
        }
        for ch in 0..c {
            self.beta.grad.data_mut()[ch] += self.sum_gy[ch];
            self.gamma.grad.data_mut()[ch] += self.sum_gy_xhat[ch];
        }

        let g = self.gamma.value.data();
        let mut grad_input = self.scratch.tensor_uninit(grad_output.shape().dims());
        for s in 0..n {
            #[allow(
                clippy::needless_range_loop,
                reason = "`ch` indexes four per-channel buffers at once; a counted loop reads better than chained enumerates"
            )]
            for ch in 0..c {
                let base = (s * c + ch) * hw;
                let coeff = g[ch] * self.inv_std[ch];
                let mean_gy = self.sum_gy[ch] / count;
                let mean_gy_xhat = self.sum_gy_xhat[ch] / count;
                let xh = &x_hat.data()[base..base + hw];
                let gy = &grad_output.data()[base..base + hw];
                let gi = &mut grad_input.data_mut()[base..base + hw];
                for i in 0..hw {
                    gi[i] = coeff * (gy[i] - mean_gy - xh[i] * mean_gy_xhat);
                }
            }
        }
        grad_input
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn state_mut(&mut self) -> Vec<&mut [f32]> {
        vec![
            self.running_mean.as_mut_slice(),
            self.running_var.as_mut_slice(),
        ]
    }

    fn bind_scratch(&mut self, scratch: &ScratchHandle) {
        self.scratch = scratch.clone();
    }

    fn name(&self) -> &'static str {
        "BatchNorm2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdfm_tensor::rng::Rng;

    #[test]
    fn train_output_is_normalised() {
        let mut rng = Rng::seed_from(0);
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::randn(&[4, 2, 3, 3], 5.0, &mut rng).map(|v| v + 10.0);
        let y = bn.forward(&x, Mode::Train);
        // Each channel of y should have ~zero mean and ~unit variance.
        for ch in 0..2 {
            let mut vals = Vec::new();
            for s in 0..4 {
                let base = (s * 2 + ch) * 9;
                vals.extend_from_slice(&y.data()[base..base + 9]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-3, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut rng = Rng::seed_from(1);
        let mut bn = BatchNorm2d::new(1);
        // Warm up running statistics.
        for _ in 0..200 {
            let x = Tensor::randn(&[8, 1, 2, 2], 2.0, &mut rng).map(|v| v + 3.0);
            let _ = bn.forward(&x, Mode::Train);
        }
        let x = Tensor::full(&[1, 1, 2, 2], 3.0);
        let y = bn.forward(&x, Mode::Eval);
        // Input at the running mean -> output near beta (= 0).
        assert!(y.max_abs() < 0.2, "{:?}", y);
    }

    #[test]
    fn backward_gradient_check() {
        let mut rng = Rng::seed_from(2);
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::randn(&[3, 2, 2, 2], 1.0, &mut rng);
        // Random projection so the loss is sensitive to normalisation.
        let proj = Tensor::randn(&[3 * 2 * 2 * 2], 1.0, &mut rng);
        let loss = |bn: &mut BatchNorm2d, x: &Tensor| -> f32 {
            let y = bn.forward(x, Mode::Train);
            y.data().iter().zip(proj.data()).map(|(a, b)| a * b).sum()
        };
        let y = bn.forward(&x, Mode::Train);
        let gy = Tensor::from_vec(proj.data().to_vec(), y.shape().dims());
        let gx = bn.backward(&gy);
        let eps = 1e-2;
        for i in [0usize, 5, 13, 23] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&mut bn, &xp) - loss(&mut bn, &xm)) / (2.0 * eps);
            assert!(
                (num - gx.data()[i]).abs() < 2e-2,
                "x[{i}]: {num} vs {}",
                gx.data()[i]
            );
        }
    }
}
