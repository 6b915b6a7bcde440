//! A trained (or trainable) classifier: layers plus classifier metadata.

use crate::layer::{Layer, Mode, Param};
use crate::layers::Sequential;
use tdfm_tensor::ops::argmax_rows;
use tdfm_tensor::{Scratch, ScratchHandle, Tensor, MAX_RANK};

/// Hook invoked after each top-level layer produces its forward output.
///
/// Receives the layer's position in the body, its name, and mutable access
/// to the activation tensor. Installed via
/// [`Network::set_activation_hook`]; `tdfm-inject`'s model-fault subsystem
/// uses it to flip activation bits mid-forward (SEU simulation) without
/// the network crate knowing anything about fault plans.
pub type ActivationHook = Box<dyn FnMut(usize, &'static str, &mut Tensor) + Send>;

/// A classification network: a layer stack producing `[N, classes]` logits.
///
/// `Network` adds to [`Sequential`] the conveniences the study needs —
/// batched evaluation-mode inference ([`Network::logits`],
/// [`Network::predict`]) and gradient bookkeeping.
pub struct Network {
    name: String,
    classes: usize,
    body: Sequential,
    activation_hook: Option<ActivationHook>,
    /// The arena the layers are bound to; [`Network::logits`] draws its
    /// mini-batch copies from it.
    scratch: ScratchHandle,
}

impl Network {
    /// Wraps a layer stack.
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0`.
    pub fn new(name: impl Into<String>, classes: usize, body: Sequential) -> Self {
        assert!(classes > 0, "a classifier needs at least one class");
        Self {
            name: name.into(),
            classes,
            body,
            activation_hook: None,
            scratch: Scratch::shared().clone(),
        }
    }

    /// A copy of this network: parameters, BatchNorm state, dropout RNG
    /// streams and layer caches, bound to the same scratch arenas. Taken
    /// from a fresh build, it is bit-for-bit the network a second build
    /// with the same config would produce, without paying for the
    /// initialisation again.
    ///
    /// # Panics
    ///
    /// Panics if an activation hook is installed: a hook cannot be copied,
    /// and a replica that silently lost it would run fault-free.
    pub fn replica(&self) -> Network {
        assert!(
            self.activation_hook.is_none(),
            "cannot replicate network {} while an activation hook is installed; \
             clear the hook first",
            self.name
        );
        Network {
            name: self.name.clone(),
            classes: self.classes,
            body: self.body.clone(),
            activation_hook: None,
            scratch: self.scratch.clone(),
        }
    }

    /// Human-readable architecture name (e.g. `"ResNet50"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Training-mode forward pass (caches activations for `backward`).
    ///
    /// When an activation hook is installed it fires after every top-level
    /// layer, in training and evaluation mode alike.
    pub fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        match self.activation_hook.as_mut() {
            Some(hook) => self.body.forward_hooked(input, mode, hook),
            None => self.body.forward(input, mode),
        }
    }

    /// Installs an activation-fault hook (replacing any previous one).
    ///
    /// The hook stays active for every subsequent [`Network::forward`],
    /// [`Network::logits`], [`Network::predict`] and [`Network::accuracy`]
    /// call until [`Network::clear_activation_hook`].
    pub fn set_activation_hook(&mut self, hook: ActivationHook) {
        self.activation_hook = Some(hook);
    }

    /// Removes the activation hook, restoring fault-free forwards.
    pub fn clear_activation_hook(&mut self) {
        self.activation_hook = None;
    }

    /// `true` while an activation hook is installed.
    pub fn has_activation_hook(&self) -> bool {
        self.activation_hook.is_some()
    }

    /// Names of the body's top-level layers, in order — the resolution at
    /// which the activation hook fires.
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.body.layer_names()
    }

    /// Parameter-tensor count per top-level body layer (see
    /// [`Sequential::layer_param_counts`]).
    pub fn layer_param_counts(&mut self) -> Vec<usize> {
        self.body.layer_param_counts()
    }

    /// Backpropagates a logits gradient, accumulating parameter gradients.
    pub fn backward(&mut self, grad_logits: &Tensor) -> Tensor {
        self.body.backward(grad_logits)
    }

    /// [`Network::backward`] for a training step, which reads no input
    /// gradient: the same parameter gradients, bit for bit, with the pass
    /// stopped at the first layer that holds parameters, which computes
    /// only its own (see [`Layer::backward_params`]).
    pub fn backward_params(&mut self, grad_logits: &Tensor) {
        // A `Sequential` recycles every gradient it made and returns none.
        self.body.backward_params(grad_logits);
    }

    /// All trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.body.params_mut()
    }

    /// All non-trainable state buffers (batch-norm running statistics),
    /// in deterministic construction order — see
    /// [`crate::serialize::SavedModel`].
    pub fn state_mut(&mut self) -> Vec<&mut [f32]> {
        self.body.state_mut()
    }

    /// Rebinds every layer onto `scratch` for activation/gradient buffers.
    ///
    /// Layers default to the process-wide shared arena; use this to give a
    /// training run (e.g. one ensemble member) a private arena.
    pub fn bind_scratch(&mut self, scratch: &ScratchHandle) {
        self.body.bind_scratch(scratch);
        self.scratch = scratch.clone();
    }

    /// Zeroes every parameter gradient.
    pub fn zero_grad(&mut self) {
        for p in self.body.params_mut() {
            p.zero_grad();
        }
    }

    /// Total scalar parameter count.
    pub fn param_count(&mut self) -> usize {
        self.body.param_count()
    }

    /// Evaluation-mode logits over a whole set, processed in mini-batches
    /// of `batch` to bound activation memory.
    ///
    /// Each mini-batch is copied into a tensor from the network's scratch
    /// arena (see [`Network::bind_scratch`]) and handed back after its
    /// forward pass, so once the arena is warm the result is the call's
    /// only allocation.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn logits(&mut self, inputs: &Tensor, batch: usize) -> Tensor {
        assert!(batch > 0, "batch size must be positive");
        let n = inputs.shape().dim(0);
        let scratch = &self.scratch;
        let mut out = Tensor::zeros(&[n, self.classes]);
        let rank = inputs.shape().rank();
        let mut dims = [0; MAX_RANK];
        dims[..rank].copy_from_slice(inputs.shape().dims());
        let row = inputs.numel() / n;
        let mut start = 0;
        while start < n {
            let end = (start + batch).min(n);
            dims[0] = end - start;
            let mut chunk = scratch.tensor_uninit(&dims[..rank]);
            chunk
                .data_mut()
                .copy_from_slice(&inputs.data()[start * row..end * row]);
            let logits = match self.activation_hook.as_mut() {
                Some(hook) => self.body.forward_hooked(&chunk, Mode::Eval, hook),
                None => self.body.forward(&chunk, Mode::Eval),
            };
            assert_eq!(
                logits.shape().dims(),
                &[end - start, self.classes],
                "network produced wrong logits shape"
            );
            out.data_mut()[start * self.classes..end * self.classes].copy_from_slice(logits.data());
            scratch.recycle(chunk);
            scratch.recycle(logits);
            start = end;
        }
        out
    }

    /// Predicted class per input (argmax of evaluation-mode logits).
    pub fn predict(&mut self, inputs: &Tensor, batch: usize) -> Vec<u32> {
        argmax_rows(&self.logits(inputs, batch))
    }

    /// Fraction of `labels` the network predicts correctly.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the input batch dimension.
    pub fn accuracy(&mut self, inputs: &Tensor, labels: &[u32], batch: usize) -> f32 {
        assert_eq!(inputs.shape().dim(0), labels.len(), "label count mismatch");
        let preds = self.predict(inputs, batch);
        let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        correct as f32 / labels.len() as f32
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Network {{ name: {}, classes: {}, body: {:?} }}",
            self.name, self.classes, self.body
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Flatten};
    use tdfm_tensor::rng::Rng;

    fn tiny_net(rng: &mut Rng) -> Network {
        let body = Sequential::new()
            .push(Flatten::new())
            .push(Dense::new(4, 3, rng));
        Network::new("tiny", 3, body)
    }

    #[test]
    fn logits_batching_matches_single_pass() {
        let mut rng = Rng::seed_from(0);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn(&[7, 1, 2, 2], 1.0, &mut rng);
        let full = net.logits(&x, 7);
        let chunked = net.logits(&x, 3);
        tdfm_tensor::assert_close(full.data(), chunked.data(), 1e-5);
    }

    #[test]
    fn accuracy_of_perfect_predictor_is_one() {
        let mut rng = Rng::seed_from(1);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn(&[5, 1, 2, 2], 1.0, &mut rng);
        let preds = net.predict(&x, 2);
        assert!((net.accuracy(&x, &preds, 2) - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn zero_classes_rejected() {
        let _ = Network::new("bad", 0, Sequential::new());
    }

    #[test]
    fn activation_hook_fires_per_layer_and_can_mutate() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let mut rng = Rng::seed_from(4);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn(&[3, 1, 2, 2], 1.0, &mut rng);
        let clean = net.logits(&x, 3);
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        net.set_activation_hook(Box::new(move |_idx, _name, t: &mut Tensor| {
            seen.fetch_add(1, Ordering::Relaxed);
            // Zero everything: downstream layers must see the mutation.
            t.fill(0.0);
        }));
        assert!(net.has_activation_hook());
        let hooked = net.logits(&x, 3);
        // Two top-level layers (Flatten, Dense), one batch.
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert!(hooked.data().iter().all(|&v| v == 0.0));
        net.clear_activation_hook();
        assert_eq!(net.logits(&x, 3).data(), clean.data());
    }

    #[test]
    #[should_panic(expected = "while an activation hook is installed")]
    fn replica_refuses_a_hooked_network() {
        let mut net = tiny_net(&mut Rng::seed_from(6));
        net.set_activation_hook(Box::new(|_, _, _: &mut Tensor| {}));
        let _ = net.replica();
    }

    #[test]
    fn layer_param_counts_partition_flat_params() {
        let mut rng = Rng::seed_from(5);
        let mut net = tiny_net(&mut rng);
        let counts = net.layer_param_counts();
        assert_eq!(counts, vec![0, 2], "Flatten has none, Dense has W and b");
        assert_eq!(counts.iter().sum::<usize>(), net.params_mut().len());
        assert_eq!(net.layer_names(), vec!["Flatten", "Dense"]);
    }
}
