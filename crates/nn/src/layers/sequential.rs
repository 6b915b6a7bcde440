//! Ordered composition of layers.

use crate::layer::{Layer, Mode, Param};
use tdfm_tensor::{Scratch, ScratchHandle, Tensor};

/// A straight-line stack of layers applied in order.
///
/// Most of the seven architectures are a single `Sequential`; the ResNet
/// analogues nest [`crate::layers::ResidualBlock`]s inside one.
///
/// Intermediate activations and gradients are recycled into the scratch
/// arena as soon as the next layer has consumed them — layers cache copies,
/// never references, so the buffers are dead the moment the next call
/// returns. This keeps whole-network passes allocation-free once warm.
#[derive(Clone)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    /// The first layer that holds parameters, where
    /// [`Layer::backward_params`] stops.
    first_param: Option<usize>,
    scratch: ScratchHandle,
}

impl Default for Sequential {
    fn default() -> Self {
        Self {
            layers: Vec::new(),
            first_param: None,
            scratch: Scratch::shared().clone(),
        }
    }
}

impl Sequential {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer (builder style).
    #[must_use]
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.add(Box::new(layer));
        self
    }

    /// Appends a boxed layer in place.
    pub fn add(&mut self, mut layer: Box<dyn Layer>) {
        if self.first_param.is_none() && !layer.params_mut().is_empty() {
            self.first_param = Some(self.layers.len());
        }
        self.layers.push(layer);
    }

    /// Number of directly contained layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` when the stack contains no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Names of the contained layers, in order.
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Number of parameter tensors owned by each directly contained layer,
    /// in order. Summing gives `params_mut().len()`; the model-fault
    /// injector uses this to map per-layer selectors onto the flat
    /// parameter list.
    pub fn layer_param_counts(&mut self) -> Vec<usize> {
        self.layers
            .iter_mut()
            .map(|l| l.params_mut().len())
            .collect()
    }

    /// [`Layer::forward`] with a hook invoked after each directly
    /// contained layer produces its output.
    ///
    /// The hook receives the layer's position, its name, and mutable
    /// access to the activation tensor — the seam activation-fault
    /// injection uses. The hook fires at *top-level* resolution: layers
    /// nested inside a residual block are not hooked individually, the
    /// block's output is.
    ///
    /// Mutating an activation changes what every subsequent layer sees
    /// (and, in training mode, what it caches for backward); the layer
    /// that produced the tensor has already cached its own pre-hook
    /// values, so this models a transient upset on the wire between
    /// layers, not a persistent memory corruption.
    pub fn forward_hooked(
        &mut self,
        input: &Tensor,
        mode: Mode,
        hook: &mut dyn FnMut(usize, &'static str, &mut Tensor),
    ) -> Tensor {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return input.clone();
        };
        let mut x = first.forward(input, mode);
        hook(0, first.name(), &mut x);
        for (i, layer) in rest.iter_mut().enumerate() {
            let mut y = layer.forward(&x, mode);
            hook(i + 1, layer.name(), &mut y);
            self.scratch.recycle(std::mem::replace(&mut x, y));
        }
        x
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential({:?})", self.layer_names())
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return input.clone();
        };
        let mut x = first.forward(input, mode);
        for layer in rest {
            let y = layer.forward(&x, mode);
            self.scratch.recycle(std::mem::replace(&mut x, y));
        }
        x
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut rev = self.layers.iter_mut().rev();
        let Some(last) = rev.next() else {
            return grad_output.clone();
        };
        let mut g = last.backward(grad_output);
        for layer in rev {
            let g2 = layer.backward(&g);
            self.scratch.recycle(std::mem::replace(&mut g, g2));
        }
        g
    }

    /// Runs `backward` through the layers after the first one that holds
    /// parameters and [`Layer::backward_params`] on that one, and stops:
    /// the layers before it have no parameters, and their gradients would
    /// only feed the input gradient nobody reads. Every gradient it made
    /// goes back to the scratch arena, so it returns `None`.
    fn backward_params(&mut self, grad_output: &Tensor) -> Option<Tensor> {
        let first = self.first_param?;
        let (head, tail) = self.layers[first..]
            .split_first_mut()
            .expect("the first layer with parameters is in the stack");
        let mut g: Option<Tensor> = None;
        for layer in tail.iter_mut().rev() {
            let next = layer.backward(g.as_ref().unwrap_or(grad_output));
            if let Some(done) = g.replace(next) {
                self.scratch.recycle(done);
            }
        }
        let unread = head.backward_params(g.as_ref().unwrap_or(grad_output));
        for t in g.into_iter().chain(unread) {
            self.scratch.recycle(t);
        }
        None
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn state_mut(&mut self) -> Vec<&mut [f32]> {
        self.layers.iter_mut().flat_map(|l| l.state_mut()).collect()
    }

    fn bind_scratch(&mut self, scratch: &ScratchHandle) {
        self.scratch = scratch.clone();
        for layer in &mut self.layers {
            layer.bind_scratch(scratch);
        }
    }

    fn name(&self) -> &'static str {
        "Sequential"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, ReLU};
    use tdfm_tensor::rng::Rng;

    #[test]
    fn forward_composes_in_order() {
        let mut rng = Rng::seed_from(0);
        // Compose an identity map with a doubling map.
        let mut seq = Sequential::new();
        let mut id = Dense::new(2, 2, &mut rng);
        id.params_mut()[0].value = Tensor::eye(2);
        id.params_mut()[1].value.fill(0.0);
        let mut dbl = Dense::new(2, 2, &mut rng);
        dbl.params_mut()[0].value = Tensor::from_vec(vec![2.0, 0.0, 0.0, 2.0], &[2, 2]);
        dbl.params_mut()[1].value.fill(0.0);
        seq.add(Box::new(id));
        seq.add(Box::new(dbl));
        let x = Tensor::from_vec(vec![1.0, -1.0], &[1, 2]);
        let y = seq.forward(&x, Mode::Train);
        assert_eq!(y.data(), &[2.0, -2.0]);
    }

    #[test]
    fn backward_composes_in_reverse() {
        let mut rng = Rng::seed_from(1);
        let seq = Sequential::new()
            .push(Dense::new(3, 4, &mut rng))
            .push(ReLU::new())
            .push(Dense::new(4, 2, &mut rng));
        let mut seq = seq;
        let x = Tensor::randn(&[2, 3], 1.0, &mut rng);
        let y = seq.forward(&x, Mode::Train);
        let gx = seq.backward(&Tensor::ones(y.shape().dims()));
        assert_eq!(gx.shape().dims(), x.shape().dims());
        // Finite-difference check through the whole stack.
        let eps = 1e-2;
        for i in [0usize, 3, 5] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (seq.forward(&xp, Mode::Train).sum() - seq.forward(&xm, Mode::Train).sum())
                / (2.0 * eps);
            assert!((num - gx.data()[i]).abs() < 2e-2, "x[{i}]");
        }
    }

    #[test]
    fn params_collects_all_layers() {
        let mut rng = Rng::seed_from(2);
        let mut seq = Sequential::new()
            .push(Dense::new(2, 3, &mut rng))
            .push(Dense::new(3, 2, &mut rng));
        assert_eq!(seq.params_mut().len(), 4);
        assert_eq!(seq.param_count(), 2 * 3 + 3 + 3 * 2 + 2);
    }

    #[test]
    fn bind_scratch_reaches_nested_layers() {
        use std::sync::Arc;
        let mut rng = Rng::seed_from(3);
        let mut seq = Sequential::new()
            .push(Dense::new(2, 2, &mut rng))
            .push(ReLU::new());
        let arena: ScratchHandle = Arc::new(Scratch::new());
        seq.bind_scratch(&arena);
        let x = Tensor::ones(&[1, 2]);
        let _ = seq.forward(&x, Mode::Train);
        let _ = seq.backward(&Tensor::ones(&[1, 2]));
        // Every activation and gradient buffer came from the bound arena.
        assert!(arena.stats().misses > 0, "arena was never used");
    }
}
