//! Fully-connected layer.

use crate::layer::{Layer, Mode, Param};
use tdfm_tensor::ops::{matmul_a_bt_with, matmul_at_b_with, matmul_with};
use tdfm_tensor::rng::Rng;
use tdfm_tensor::{Scratch, ScratchHandle, Tensor};

/// A fully-connected (dense) layer: `y = x · W + b`.
///
/// `x` is `[N, in]`, `W` is `[in, out]`, `b` is `[out]`.
///
/// Weights use He initialisation (`std = sqrt(2 / in)`), the convention for
/// the ReLU networks of the study.
///
/// The input activation is cached only under [`Mode::Train`]; evaluation
/// passes drop any previous cache so inference never retains (or trains
/// against) stale activations.
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Param,
    bias: Param,
    input_cache: Option<Tensor>,
    scratch: ScratchHandle,
}

impl Dense {
    /// Creates a dense layer with He-initialised weights.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(in_features: usize, out_features: usize, rng: &mut Rng) -> Self {
        assert!(
            in_features > 0 && out_features > 0,
            "dense dims must be positive"
        );
        let std = (2.0 / in_features as f32).sqrt();
        Self {
            weight: Param::new(Tensor::randn(&[in_features, out_features], std, rng)),
            bias: Param::new(Tensor::zeros(&[out_features])),
            input_cache: None,
            scratch: Scratch::shared().clone(),
        }
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.weight.value.shape().dim(0)
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.weight.value.shape().dim(1)
    }

    /// `true` when a Train-mode forward pass has left an activation cached.
    pub fn has_cached_input(&self) -> bool {
        self.input_cache.is_some()
    }

    /// Adds the weight and bias gradients of one backward pass to the
    /// accumulated ones.
    fn accumulate(&mut self, grad_output: &Tensor) {
        let input = self
            .input_cache
            .as_ref()
            .expect("Train-mode forward before backward");
        let gw = matmul_at_b_with(input, grad_output, &self.scratch);
        self.weight.grad.axpy(1.0, &gw);
        self.scratch.recycle(gw);
        let k = self.out_features();
        let bg = self.bias.grad.data_mut();
        for row in grad_output.data().chunks(k) {
            for (g, &v) in bg.iter_mut().zip(row) {
                *g += v;
            }
        }
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(input.shape().rank(), 2, "dense input must be [N, in]");
        let mut out = matmul_with(input, &self.weight.value, &self.scratch);
        let k = self.out_features();
        let b = self.bias.value.data();
        for row in out.data_mut().chunks_mut(k) {
            for (o, &bv) in row.iter_mut().zip(b) {
                *o += bv;
            }
        }
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
        self.accumulate(grad_output);
        matmul_a_bt_with(grad_output, &self.weight.value, &self.scratch)
    }

    fn backward_params(&mut self, grad_output: &Tensor) -> Option<Tensor> {
        self.accumulate(grad_output);
        None
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn bind_scratch(&mut self, scratch: &ScratchHandle) {
        self.scratch = scratch.clone();
    }

    fn name(&self) -> &'static str {
        "Dense"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdfm_tensor::assert_close;

    fn loss_sum(layer: &mut Dense, x: &Tensor) -> f32 {
        layer.forward(x, Mode::Train).sum()
    }

    #[test]
    fn forward_matches_hand_computed() {
        let mut rng = Rng::seed_from(0);
        let mut d = Dense::new(2, 2, &mut rng);
        d.weight.value = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        d.bias.value = Tensor::from_vec(vec![0.5, -0.5], &[2]);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let y = d.forward(&x, Mode::Train);
        assert_eq!(y.data(), &[4.5, 5.5]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng::seed_from(1);
        let mut d = Dense::new(3, 4, &mut rng);
        let x = Tensor::randn(&[2, 3], 1.0, &mut rng);
        let y = d.forward(&x, Mode::Train);
        let gx = d.backward(&Tensor::ones(y.shape().dims()));

        let eps = 1e-2;
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss_sum(&mut d, &xp) - loss_sum(&mut d, &xm)) / (2.0 * eps);
            assert!((num - gx.data()[i]).abs() < 1e-2, "x[{i}]");
        }
        // Weight gradient: restore cache with original input first.
        let _ = d.forward(&x, Mode::Train);
        for p in d.params_mut() {
            p.zero_grad();
        }
        let _ = d.backward(&Tensor::ones(&[2, 4]));
        for i in [0usize, 5, 11] {
            let orig = d.weight.value.data()[i];
            d.weight.value.data_mut()[i] = orig + eps;
            let fp = loss_sum(&mut d, &x);
            d.weight.value.data_mut()[i] = orig - eps;
            let fm = loss_sum(&mut d, &x);
            d.weight.value.data_mut()[i] = orig;
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - d.weight.grad.data()[i]).abs() < 1e-2, "w[{i}]");
        }
    }

    #[test]
    fn bias_grad_counts_rows() {
        let mut rng = Rng::seed_from(2);
        let mut d = Dense::new(2, 3, &mut rng);
        let x = Tensor::randn(&[5, 2], 1.0, &mut rng);
        let _ = d.forward(&x, Mode::Train);
        let _ = d.backward(&Tensor::ones(&[5, 3]));
        assert_close(d.bias.grad.data(), &[5.0, 5.0, 5.0], 1e-5);
    }

    #[test]
    fn grad_accumulates_across_backwards() {
        let mut rng = Rng::seed_from(3);
        let mut d = Dense::new(2, 2, &mut rng);
        let x = Tensor::ones(&[1, 2]);
        let _ = d.forward(&x, Mode::Train);
        let _ = d.backward(&Tensor::ones(&[1, 2]));
        let first = d.bias.grad.clone();
        let _ = d.forward(&x, Mode::Train);
        let _ = d.backward(&Tensor::ones(&[1, 2]));
        assert_close(d.bias.grad.data(), first.map(|v| v * 2.0).data(), 1e-6);
    }

    #[test]
    fn eval_forward_leaves_no_cached_input() {
        // Regression test: forward used to cache the input unconditionally,
        // so inference both retained activation memory and let a later
        // backward silently train against an evaluation batch.
        let mut rng = Rng::seed_from(4);
        let mut d = Dense::new(3, 2, &mut rng);
        let x = Tensor::randn(&[2, 3], 1.0, &mut rng);
        let _ = d.forward(&x, Mode::Eval);
        assert!(!d.has_cached_input(), "Eval must not cache activations");
        // An Eval pass after training clears the stale Train cache too.
        let _ = d.forward(&x, Mode::Train);
        assert!(d.has_cached_input());
        let _ = d.forward(&x, Mode::Eval);
        assert!(!d.has_cached_input(), "Eval must drop a stale Train cache");
    }

    #[test]
    #[should_panic(expected = "Train-mode forward before backward")]
    fn backward_after_eval_forward_panics() {
        let mut rng = Rng::seed_from(5);
        let mut d = Dense::new(2, 2, &mut rng);
        let x = Tensor::ones(&[1, 2]);
        let _ = d.forward(&x, Mode::Eval);
        let _ = d.backward(&Tensor::ones(&[1, 2]));
    }

    #[test]
    fn nan_input_poisons_forward_and_backward() {
        // IEEE faithfulness end to end: a NaN activation must reach every
        // output the layer computes, through forward and both gradient
        // products, even against zero weights.
        let mut rng = Rng::seed_from(6);
        let mut d = Dense::new(2, 2, &mut rng);
        d.weight.value.fill(0.0);
        let x = Tensor::from_vec(vec![f32::NAN, 1.0], &[1, 2]);
        let y = d.forward(&x, Mode::Train);
        assert!(y.data().iter().all(|v| v.is_nan()), "forward: {:?}", y);
        let gx = d.backward(&Tensor::ones(&[1, 2]));
        // Weight grad = xᵀ·gy has NaN in the row fed by the NaN input.
        assert!(d.weight.grad.data()[0].is_nan());
        assert!(d.weight.grad.data()[1].is_nan());
        // Input grad = gy·Wᵀ is finite (weights are finite zeros).
        assert!(gx.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn infinite_input_propagates_through_forward() {
        let mut rng = Rng::seed_from(7);
        let mut d = Dense::new(2, 1, &mut rng);
        d.weight.value = Tensor::from_vec(vec![0.0, 1.0], &[2, 1]);
        d.bias.value.fill(0.0);
        // 0·∞ = NaN must not be skipped away by a sparsity shortcut.
        let x = Tensor::from_vec(vec![f32::INFINITY, 2.0], &[1, 2]);
        let y = d.forward(&x, Mode::Train);
        assert!(y.data()[0].is_nan(), "0*inf must produce NaN, got {:?}", y);
    }
}
