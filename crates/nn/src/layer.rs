//! The [`Layer`] trait and trainable [`Param`]s.

use tdfm_tensor::{ScratchHandle, Tensor};

/// Whether a forward pass is part of training or evaluation.
///
/// Dropout and batch normalisation behave differently between the two —
/// exactly the distinction the paper's overhead study (Section IV-E) draws
/// between training time and inference time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training: dropout active, batch statistics collected.
    Train,
    /// Inference: deterministic, running statistics used.
    Eval,
}

/// One trainable tensor with its gradient accumulator.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current parameter values.
    pub value: Tensor,
    /// Gradient accumulated by the latest backward pass.
    pub grad: Tensor,
}

impl Param {
    /// Wraps initial values with a zeroed gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().dims());
        Self { value, grad }
    }

    /// Resets the gradient to zero (called once per optimiser step).
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }

    /// Number of scalar parameters.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }
}

/// A differentiable network component.
///
/// Layers own their parameters and the activation caches backpropagation
/// needs; `forward` must be called before the matching `backward`. All
/// layers are `Send` so ensemble members can train on worker threads, and
/// `Clone` (through [`CloneLayer`]) so a built network can be copied
/// instead of rebuilt — see [`crate::Network::replica`].
pub trait Layer: Send + CloneLayer {
    /// Computes the layer output, caching whatever `backward` will need.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor;

    /// Propagates the output gradient, accumulating parameter gradients and
    /// returning the input gradient.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward`.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// [`Layer::backward`] where nothing reads the input gradient: the
    /// same parameter gradients, bit for bit, and the input gradient only
    /// if the layer computed it anyway, for the caller to recycle. A
    /// network's training step ends its backward pass here, at its first
    /// layer that holds parameters. Layers with parameters override it to
    /// skip the input gradient; the default runs `backward`.
    fn backward_params(&mut self, grad_output: &Tensor) -> Option<Tensor> {
        Some(self.backward(grad_output))
    }

    /// Mutable access to the layer's trainable parameters (may be empty).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Mutable access to non-trainable state that must survive
    /// checkpointing (batch-norm running statistics). Most layers have
    /// none.
    fn state_mut(&mut self) -> Vec<&mut [f32]> {
        Vec::new()
    }

    /// Rebinds the layer onto a scratch arena for activation and gradient
    /// buffers. Layers default to the process-wide shared arena, so calling
    /// this is only needed to isolate a training run (e.g. one arena per
    /// ensemble member). Container layers must forward the call to their
    /// children.
    fn bind_scratch(&mut self, _scratch: &ScratchHandle) {}

    /// Short human-readable layer name for summaries.
    fn name(&self) -> &'static str;

    /// Total scalar parameter count (for Table III style summaries).
    fn param_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.numel()).sum()
    }
}

/// Object-safe cloning for boxed layers. Implemented for every
/// `Layer + Clone` type by the blanket impl below, so a layer only derives
/// `Clone`; it never implements this trait itself.
pub trait CloneLayer {
    /// A boxed copy of the layer: parameters, state, caches and RNG
    /// streams alike.
    fn clone_layer(&self) -> Box<dyn Layer>;
}

impl<T: Layer + Clone + 'static> CloneLayer for T {
    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        (**self).clone_layer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_starts_with_zero_grad() {
        let p = Param::new(Tensor::ones(&[2, 3]));
        assert_eq!(p.grad.data(), &[0.0; 6]);
        assert_eq!(p.numel(), 6);
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::new(Tensor::ones(&[2]));
        p.grad.fill(5.0);
        p.zero_grad();
        assert_eq!(p.grad.data(), &[0.0, 0.0]);
    }
}
