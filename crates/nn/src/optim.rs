//! The optimiser: SGD with momentum and weight decay.

use crate::layer::Param;
use tdfm_tensor::Tensor;

/// A gradient-descent update rule.
///
/// Optimisers keep per-parameter state indexed by position, so the same
/// parameter list (in the same order) must be passed to every `step` —
/// which [`crate::trainer::train`] guarantees.
pub trait Optimizer: Send {
    /// Applies one update using each parameter's accumulated gradient,
    /// then zeroes the gradients.
    fn step(&mut self, params: &mut [&mut Param]);

    /// Adjusts the learning rate (used for per-epoch decay schedules).
    fn set_learning_rate(&mut self, lr: f32);

    /// Current learning rate.
    fn learning_rate(&self) -> f32;
}

/// Stochastic gradient descent with momentum and decoupled weight decay.
///
/// `v = momentum * v + g + weight_decay * w; w -= lr * v` — the classic
/// recipe the paper's TensorFlow configurations used.
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates an SGD optimiser.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`, `momentum < 0` or `weight_decay < 0`.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        assert!(weight_decay >= 0.0, "weight decay must be non-negative");
        Self {
            lr,
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Param]) {
        if self.velocity.is_empty() {
            self.velocity = params
                .iter()
                .map(|p| Tensor::zeros(p.value.shape().dims()))
                .collect();
        }
        assert_eq!(
            self.velocity.len(),
            params.len(),
            "parameter list changed between steps"
        );
        for (p, v) in params.iter_mut().zip(self.velocity.iter_mut()) {
            tdfm_tensor::simd::momentum_update(
                v.data_mut(),
                p.grad.data(),
                p.value.data(),
                self.momentum,
                self.weight_decay,
            );
            p.value.axpy(-self.lr, v);
            p.zero_grad();
        }
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_step(opt: &mut dyn Optimizer, w: &mut Param) {
        // Loss = 0.5 * w^2 -> grad = w.
        w.grad = w.value.clone();
        opt.step(&mut [w]);
    }

    #[test]
    fn sgd_minimises_quadratic() {
        let mut opt = Sgd::new(0.1, 0.0, 0.0);
        let mut w = Param::new(Tensor::full(&[4], 10.0));
        for _ in 0..200 {
            quadratic_step(&mut opt, &mut w);
        }
        assert!(w.value.max_abs() < 1e-3, "{:?}", w.value);
    }

    #[test]
    fn momentum_accelerates_convergence() {
        let run = |momentum: f32| {
            let mut opt = Sgd::new(0.01, momentum, 0.0);
            let mut w = Param::new(Tensor::full(&[1], 10.0));
            for _ in 0..50 {
                quadratic_step(&mut opt, &mut w);
            }
            w.value.data()[0].abs()
        };
        assert!(run(0.9) < run(0.0));
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient() {
        let mut opt = Sgd::new(0.1, 0.0, 0.1);
        let mut w = Param::new(Tensor::full(&[1], 1.0));
        // Zero gradient; decay alone should shrink the weight.
        opt.step(&mut [&mut w]);
        assert!(w.value.data()[0] < 1.0);
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut opt = Sgd::new(0.1, 0.0, 0.0);
        let mut w = Param::new(Tensor::full(&[2], 1.0));
        w.grad.fill(3.0);
        opt.step(&mut [&mut w]);
        assert_eq!(w.grad.data(), &[0.0, 0.0]);
    }

    #[test]
    fn learning_rate_is_adjustable() {
        let mut opt = Sgd::new(0.1, 0.0, 0.0);
        opt.set_learning_rate(0.05);
        assert_eq!(opt.learning_rate(), 0.05);
    }

    #[test]
    #[should_panic(expected = "parameter list changed")]
    fn changing_param_list_is_detected() {
        let mut opt = Sgd::new(0.1, 0.0, 0.0);
        let mut a = Param::new(Tensor::zeros(&[1]));
        let mut b = Param::new(Tensor::zeros(&[1]));
        opt.step(&mut [&mut a]);
        opt.step(&mut [&mut a, &mut b]);
    }
}
