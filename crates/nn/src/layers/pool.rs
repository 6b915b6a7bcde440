//! Pooling layers wrapping the `tdfm-tensor` kernels.

use crate::layer::{Layer, Mode};
use tdfm_tensor::ops::{
    global_avg_pool_backward_with, global_avg_pool_forward_with, max_pool2d_backward_with,
    max_pool2d_forward_train_with, max_pool2d_forward_with, MaxPoolCache,
};
use tdfm_tensor::{Scratch, ScratchHandle, Tensor};

/// Max pooling over square windows (ConvNet / VGG families).
///
/// The argmax cache is kept only under [`Mode::Train`], as the dense and
/// conv layers keep their input caches: an evaluation pass computes values
/// alone and drops any previous cache, so a `backward` after it panics.
/// The cache's index buffer is recycled through the scratch arena between
/// batches.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    k: usize,
    s: usize,
    cache: Option<MaxPoolCache>,
    scratch: ScratchHandle,
}

impl MaxPool2d {
    /// Creates a max pool with window `k` and stride `s`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `s == 0`.
    pub fn new(k: usize, s: usize) -> Self {
        assert!(k > 0 && s > 0, "pool window and stride must be positive");
        Self {
            k,
            s,
            cache: None,
            scratch: Scratch::shared().clone(),
        }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        if let Some(old) = self.cache.take() {
            old.recycle(&self.scratch);
        }
        if mode != Mode::Train {
            return max_pool2d_forward_with(input, self.k, self.s, &self.scratch);
        }
        let (out, cache) = max_pool2d_forward_train_with(input, self.k, self.s, &self.scratch);
        self.cache = Some(cache);
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let cache = self
            .cache
            .as_ref()
            .expect("Train-mode forward before backward");
        max_pool2d_backward_with(grad_output, cache, &self.scratch)
    }

    fn bind_scratch(&mut self, scratch: &ScratchHandle) {
        self.scratch = scratch.clone();
    }

    fn name(&self) -> &'static str {
        "MaxPool2d"
    }
}

/// Global average pooling: `[N,C,H,W] -> [N,C]` (ResNet / MobileNet heads).
#[derive(Debug, Clone)]
pub struct GlobalAvgPool {
    input_dims: Vec<usize>,
    scratch: ScratchHandle,
}

impl GlobalAvgPool {
    /// Creates a global average pool.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Default for GlobalAvgPool {
    fn default() -> Self {
        Self {
            input_dims: Vec::new(),
            scratch: Scratch::shared().clone(),
        }
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        self.input_dims.clear();
        self.input_dims.extend_from_slice(input.shape().dims());
        global_avg_pool_forward_with(input, &self.scratch)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        assert!(!self.input_dims.is_empty(), "forward before backward");
        global_avg_pool_backward_with(grad_output, &self.input_dims, &self.scratch)
    }

    fn bind_scratch(&mut self, scratch: &ScratchHandle) {
        self.scratch = scratch.clone();
    }

    fn name(&self) -> &'static str {
        "GlobalAvgPool"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_layer_roundtrip() {
        let mut p = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]);
        let y = p.forward(&x, Mode::Train);
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        let gx = p.backward(&Tensor::ones(&[1, 1, 2, 2]));
        assert_eq!(gx.data().iter().sum::<f32>(), 4.0);
    }

    #[test]
    fn max_pool_eval_forward_equals_train_forward() {
        let mut rng = tdfm_tensor::rng::Rng::seed_from(3);
        let mut x = Tensor::randn(&[4, 3, 9, 8], 1.0, &mut rng);
        x.data_mut()[5] = f32::from_bits(0x7fc0_0123);
        x.data_mut()[6] = -0.0;
        let arena = std::sync::Arc::new(Scratch::new());
        let mut p = MaxPool2d::new(2, 2);
        p.bind_scratch(&arena);
        let train = p.forward(&x, Mode::Train);
        // Output and index buffer, and the row fold's values and indices.
        assert_eq!(arena.stats().checkouts(), 4);
        let eval = p.forward(&x, Mode::Eval);
        // The output and the row fold's values: evaluation checks out no
        // index buffer.
        assert_eq!(arena.stats().checkouts(), 6);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&eval), bits(&train));
    }

    #[test]
    #[should_panic(expected = "forward before backward")]
    fn max_pool_backward_after_eval_forward_panics() {
        let mut p = MaxPool2d::new(2, 2);
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let _ = p.forward(&x, Mode::Train);
        // The evaluation pass drops the Train cache.
        let _ = p.forward(&x, Mode::Eval);
        let _ = p.backward(&Tensor::ones(&[1, 1, 2, 2]));
    }

    #[test]
    fn global_avg_pool_layer_shapes() {
        let mut p = GlobalAvgPool::new();
        let x = Tensor::ones(&[2, 3, 4, 4]);
        let y = p.forward(&x, Mode::Eval);
        assert_eq!(y.shape().dims(), &[2, 3]);
        assert!(y.data().iter().all(|&v| (v - 1.0).abs() < 1e-6));
        let gx = p.backward(&Tensor::ones(&[2, 3]));
        assert_eq!(gx.shape().dims(), &[2, 3, 4, 4]);
    }
}
