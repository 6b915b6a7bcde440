//! Mini-batch training with wall-clock accounting.
//!
//! The paper trains every (model, technique, dataset, fault) configuration
//! with the same loop and measures both accuracy effects and runtime
//! overheads (Section IV-E). [`train`] is that loop: one epoch/step
//! pipeline — shuffle, gather, forward, loss, screen, backward, clip,
//! optimiser step, per-epoch report — with exactly two variation points,
//! the [`NonFinitePolicy`] and the [`GradientSource`]. [`fit`],
//! [`fit_fault_aware`] and `tdfm-core`'s sharded trainer are thin drivers
//! over it.

use crate::loss::{Loss, Target};
use crate::network::Network;
use crate::optim::{Optimizer, Sgd};
use crate::Mode;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use tdfm_obs::{event, span, Level};
use tdfm_tensor::bitops::bitflip_f32;
use tdfm_tensor::rng::Rng;
use tdfm_tensor::{Scratch, Tensor};

/// Cached handle on the global grad-clip counter: per-batch increments
/// must not pay the registry's name lookup.
fn clip_counter() -> &'static tdfm_obs::metrics::Counter {
    static HANDLE: OnceLock<Arc<tdfm_obs::metrics::Counter>> = OnceLock::new();
    HANDLE.get_or_init(|| tdfm_obs::global().counter("grad_clip_activations"))
}

/// Cached handle on the global batches-trained counter.
fn batches_counter() -> &'static tdfm_obs::metrics::Counter {
    static HANDLE: OnceLock<Arc<tdfm_obs::metrics::Counter>> = OnceLock::new();
    HANDLE.get_or_init(|| tdfm_obs::global().counter("batches_trained"))
}

/// Whole-training-set targets, batched on demand.
///
/// The five TDFM techniques differ in what they train against:
/// plain/smoothed hard labels, corrected soft distributions (label
/// correction), or hard labels plus teacher logits (distillation).
#[derive(Debug, Clone)]
pub enum TargetSource {
    /// Integer labels per training sample.
    Hard(Vec<u32>),
    /// A full `[N, K]` soft distribution per training sample.
    Soft(Tensor),
    /// Hard labels plus per-sample teacher logits `[N, K]`.
    Distill {
        /// Ground-truth (possibly faulty) labels.
        labels: Vec<u32>,
        /// Teacher logits for every training sample.
        teacher_logits: Tensor,
    },
}

impl TargetSource {
    /// Number of training samples covered.
    pub fn len(&self) -> usize {
        match self {
            TargetSource::Hard(l) => l.len(),
            TargetSource::Soft(t) => t.shape().dim(0),
            TargetSource::Distill { labels, .. } => labels.len(),
        }
    }

    /// `true` when no samples are covered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Extracts the target rows for one mini-batch.
    pub fn batch(&self, indices: &[usize]) -> BatchTarget {
        match self {
            TargetSource::Hard(l) => BatchTarget::Hard(indices.iter().map(|&i| l[i]).collect()),
            TargetSource::Soft(t) => BatchTarget::Soft(t.gather_rows(indices)),
            TargetSource::Distill {
                labels,
                teacher_logits,
            } => BatchTarget::Distill {
                labels: indices.iter().map(|&i| labels[i]).collect(),
                teacher_logits: teacher_logits.gather_rows(indices),
            },
        }
    }
}

/// Owned per-batch target produced by [`TargetSource::batch`].
#[derive(Debug, Clone)]
pub enum BatchTarget {
    /// Hard labels for the batch.
    Hard(Vec<u32>),
    /// Soft distributions for the batch.
    Soft(Tensor),
    /// Labels plus teacher logits for the batch.
    Distill {
        /// Batch labels.
        labels: Vec<u32>,
        /// Batch teacher logits.
        teacher_logits: Tensor,
    },
}

impl BatchTarget {
    /// Borrows the batch target as a [`Target`].
    pub fn as_target(&self) -> Target<'_> {
        match self {
            BatchTarget::Hard(l) => Target::Hard(l),
            BatchTarget::Soft(t) => Target::Soft(t),
            BatchTarget::Distill {
                labels,
                teacher_logits,
            } => Target::Distill {
                labels,
                teacher_logits,
            },
        }
    }
}

/// Hyperparameters of one training run.
#[derive(Debug, Clone, Copy)]
pub struct FitConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Initial learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Multiplicative learning-rate decay applied after each epoch.
    pub lr_decay: f32,
    /// Global gradient-norm clip (0 disables). Stabilises the deep models
    /// (VGG16, ResNet50) at the study's small widths.
    pub grad_clip: f32,
    /// Seed for mini-batch shuffling.
    pub shuffle_seed: u64,
}

impl Default for FitConfig {
    fn default() -> Self {
        Self {
            epochs: 10,
            batch_size: 32,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            lr_decay: 0.9,
            grad_clip: 5.0,
            shuffle_seed: 0,
        }
    }
}

/// Configuration of fault-aware training (Vinck et al. 2024): stochastic
/// weight bit-flips are injected before each optimisation step's forward
/// pass and reverted before the weight update, so the network learns to
/// produce correct outputs under transient SEU-style weight corruption.
#[derive(Debug, Clone, Copy)]
pub struct FaultAwareConfig {
    /// Simultaneous bit-flips injected per optimisation step.
    pub flips_per_step: usize,
    /// Lowest bit position faults may hit (0 = LSB of the mantissa).
    pub bit_lo: u32,
    /// Highest bit position faults may hit, inclusive (31 = sign).
    pub bit_hi: u32,
    /// Seed of the injection stream (independent of the shuffle seed).
    pub seed: u64,
}

impl Default for FaultAwareConfig {
    fn default() -> Self {
        Self {
            flips_per_step: 2,
            bit_lo: 0,
            bit_hi: 31,
            seed: 0,
        }
    }
}

/// What a training run produced.
#[derive(Debug, Clone)]
pub struct FitReport {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Wall-clock time of each epoch — the Section IV-E overhead numbers
    /// at per-epoch grain instead of one total.
    pub epoch_walls: Vec<Duration>,
    /// Mean pre-clip global gradient L2 norm per epoch.
    pub epoch_grad_norms: Vec<f32>,
    /// Wall-clock training time (feeds the Section IV-E overhead study).
    pub wall: Duration,
    /// Steps dropped under [`NonFinitePolicy::Drop`] (always 0 for plain
    /// [`fit`] runs, which panic instead).
    pub skipped_batches: usize,
}

impl FitReport {
    /// Loss of the final epoch.
    ///
    /// # Panics
    ///
    /// Panics if no epochs were run.
    pub fn final_loss(&self) -> f32 {
        *self.epoch_losses.last().expect("no epochs were run")
    }
}

/// What the pipeline does with a step whose loss or gradient norm is
/// non-finite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NonFinitePolicy {
    /// Fail loudly, in every build profile: outside fault injection a NaN
    /// would silently corrupt every subsequent update.
    Panic,
    /// Discard the step and count it in [`FitReport::skipped_batches`]:
    /// an injected fault can legitimately blow a step up, and dropping it
    /// keeps every corrupted value away from the model.
    Drop,
}

/// Where a training step's gradients come from: local backward, fault-
/// aware flip → backward → restore, or `tdfm-core`'s sharded workers.
pub trait GradientSource {
    /// The network the optimiser updates.
    fn net(&mut self) -> &mut Network;

    /// Reshuffles the batch order for `epoch` and returns its step count.
    fn begin_epoch(&mut self, epoch: usize) -> usize;

    /// Leaves step `step`'s gradients in [`GradientSource::net`]'s
    /// parameters and returns the step loss (non-finite when the step
    /// produced nothing usable).
    fn gradients(&mut self, step: usize) -> f32;

    /// Undoes a step's non-parameter side effects once the pipeline has
    /// dropped it (BatchNorm running statistics, see [`StateSnapshot`]).
    fn discard(&mut self);

    /// Called after the optimiser applied a step.
    fn stepped(&mut self) {}
}

/// Shuffled mini-batch order over one training set, reshuffled per epoch.
#[derive(Debug)]
pub struct Batches {
    order: Vec<usize>,
    rng: Rng,
    batch_size: usize,
}

impl Batches {
    /// Batches of `batch_size` over `len` samples, shuffled by `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn new(len: usize, batch_size: usize, rng: Rng) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        Self {
            order: (0..len).collect(),
            rng,
            batch_size,
        }
    }

    /// Reshuffles for a new epoch and returns the batch count.
    pub fn shuffle(&mut self) -> usize {
        self.rng.shuffle(&mut self.order);
        self.order.len().div_ceil(self.batch_size)
    }

    /// Sample indices of batch `step`, wrapping around the batch cycle (a
    /// shorter shard repeats batches while longer shards finish theirs).
    pub fn batch(&self, step: usize) -> &[usize] {
        let batches = self.order.len().div_ceil(self.batch_size);
        let lo = (step % batches) * self.batch_size;
        &self.order[lo..(lo + self.batch_size).min(self.order.len())]
    }
}

/// Copies the NCHW `images` rows named by `indices` into a tensor from the
/// shared scratch arena instead of a fresh allocation; recycle it after the
/// step.
pub fn gather(images: &Tensor, indices: &[usize]) -> Tensor {
    let row_len = images.numel() / images.shape().dim(0).max(1);
    let mut dims = [0usize; 4];
    dims.copy_from_slice(images.shape().dims());
    dims[0] = indices.len();
    let mut x = Scratch::shared().tensor_uninit(&dims);
    for (row, &i) in x.data_mut().chunks_exact_mut(row_len).zip(indices) {
        row.copy_from_slice(&images.data()[i * row_len..(i + 1) * row_len]);
    }
    x
}

/// A network's BatchNorm running statistics, saved before a step that may
/// be dropped: the Train-mode forward writes them before the loss is
/// screened, so a dropped step must put them back.
#[derive(Debug, Default)]
pub struct StateSnapshot(Vec<f32>);

impl StateSnapshot {
    /// Saves `net`'s state, reusing the snapshot's buffer.
    pub fn save(&mut self, net: &mut Network) {
        self.0.clear();
        for s in net.state_mut() {
            self.0.extend_from_slice(s);
        }
    }

    /// Restores the state saved by [`StateSnapshot::save`].
    pub fn restore(&self, net: &mut Network) {
        let mut saved = self.0.as_slice();
        for s in net.state_mut() {
            let (head, rest) = saved.split_at(s.len());
            s.copy_from_slice(head);
            saved = rest;
        }
    }
}

/// Runs the training pipeline: `cfg.epochs` epochs of the source's steps,
/// each screened, globally clipped and applied by one SGD optimiser built
/// from `cfg`, with the learning rate decayed per epoch.
///
/// # Panics
///
/// Panics if `cfg.epochs == 0`, and under [`NonFinitePolicy::Panic`] on a
/// non-finite loss or gradient norm, naming the epoch and batch.
pub fn train(
    source: &mut dyn GradientSource,
    cfg: &FitConfig,
    policy: NonFinitePolicy,
) -> FitReport {
    assert!(cfg.epochs > 0, "must train for at least one epoch");
    let start = Instant::now();
    let mut opt = Sgd::new(cfg.lr, cfg.momentum, cfg.weight_decay);
    let mut lr = cfg.lr;
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    let mut epoch_walls = Vec::with_capacity(cfg.epochs);
    let mut epoch_grad_norms = Vec::with_capacity(cfg.epochs);
    let mut skipped_batches = 0usize;

    for epoch in 0..cfg.epochs {
        let epoch_start = Instant::now();
        let steps = source.begin_epoch(epoch);
        let mut total_loss = 0.0f32;
        let mut total_norm = 0.0f32;
        let mut batches = 0usize;
        for step in 0..steps {
            let loss = source.gradients(step);
            let mut params = source.net().params_mut();
            let norm = global_grad_norm(&params);
            if !loss.is_finite() || !norm.is_finite() {
                if policy == NonFinitePolicy::Drop {
                    // The clip below cannot rescale a non-finite norm, and
                    // stepping unclipped would blast the weights into the
                    // 1e34 range and kill the rest of the run.
                    for p in params.iter_mut() {
                        p.zero_grad();
                    }
                    drop(params);
                    source.discard();
                    skipped_batches += 1;
                    event!(
                        Level::Debug,
                        "step_dropped",
                        epoch = epoch,
                        step = step,
                        loss = loss,
                        grad_norm = norm
                    );
                    continue;
                }
                // Leave evidence in the trace file before the panic
                // message dies on a joined worker thread.
                let (what, name) = if loss.is_finite() {
                    ("gradient norm", "grad_nonfinite")
                } else {
                    ("loss", "loss_nonfinite")
                };
                event!(
                    Level::Error,
                    name,
                    loss = loss,
                    grad_norm = norm,
                    epoch = epoch,
                    batch = batches,
                    lr = lr
                );
                tdfm_obs::flush();
                panic!(
                    "training produced a non-finite {what} (loss {loss}, gradient norm {norm}) \
                     at epoch {epoch}, batch {batches} — an unscreened step here would \
                     silently corrupt every subsequent update"
                );
            }
            if cfg.grad_clip > 0.0 && norm > cfg.grad_clip {
                let scale = cfg.grad_clip / norm;
                for p in params.iter_mut() {
                    p.grad.scale(scale);
                }
                clip_counter().inc();
            }
            opt.step(&mut params);
            drop(params);
            source.stepped();
            event!(
                Level::Trace,
                "batch",
                epoch = epoch,
                batch = batches,
                loss = loss,
                grad_norm = norm
            );
            total_loss += loss;
            total_norm += norm;
            batches += 1;
        }
        batches_counter().add(batches as u64);
        let denom = batches.max(1) as f32;
        epoch_losses.push(total_loss / denom);
        epoch_grad_norms.push(total_norm / denom);
        epoch_walls.push(epoch_start.elapsed());
        event!(
            Level::Debug,
            "epoch",
            epoch = epoch,
            loss = total_loss / denom,
            lr = lr,
            grad_norm = total_norm / denom,
            seconds = epoch_start.elapsed()
        );
        lr *= cfg.lr_decay;
        opt.set_learning_rate(lr);
    }

    FitReport {
        epoch_losses,
        epoch_walls,
        epoch_grad_norms,
        wall: start.elapsed(),
        skipped_batches,
    }
}

/// Global L2 norm over all parameter gradients.
fn global_grad_norm(params: &[&mut crate::layer::Param]) -> f32 {
    params
        .iter()
        .map(|p| p.grad.data().iter().map(|g| g * g).sum::<f32>())
        .sum::<f32>()
        .sqrt()
}

/// The in-process gradient source of [`fit`] and [`fit_fault_aware`]: one
/// backward pass per batch, optionally under fault-aware weight flips.
struct Local<'a> {
    net: &'a mut Network,
    loss: &'a dyn Loss,
    images: &'a Tensor,
    targets: &'a TargetSource,
    batches: Batches,
    /// Fault-aware runs draw flip locations from their own stream so the
    /// shuffle order stays identical to a fault-free run with the same
    /// shuffle seed.
    fault: Option<(FaultAwareConfig, Rng)>,
    flips: Vec<(usize, usize, u32)>,
    state: StateSnapshot,
}

impl GradientSource for Local<'_> {
    fn net(&mut self) -> &mut Network {
        self.net
    }

    fn begin_epoch(&mut self, _epoch: usize) -> usize {
        self.batches.shuffle()
    }

    fn gradients(&mut self, step: usize) -> f32 {
        let chunk = self.batches.batch(step);
        let x = gather(self.images, chunk);
        let target = self.targets.batch(chunk);
        // Fault-aware training flips weight bits for the duration of this
        // step's forward/backward, remembering the locations so the flips
        // can be reverted bit-exactly (XOR involution) before the
        // optimiser touches the weights. Only these steps can be dropped,
        // so only they pay for the state snapshot.
        if let Some((fa, rng)) = &mut self.fault {
            self.state.save(self.net);
            let mut params = self.net.params_mut();
            for _ in 0..fa.flips_per_step {
                let tensor = rng.below(params.len());
                let data = params[tensor].value.data_mut();
                let element = rng.below(data.len());
                let bit = fa.bit_lo + rng.below((fa.bit_hi - fa.bit_lo + 1) as usize) as u32;
                data[element] = bitflip_f32(data[element], bit);
                self.flips.push((tensor, element, bit));
            }
        }
        let logits = self.net.forward(&x, Mode::Train);
        let out = self.loss.evaluate(&logits, &target.as_target());
        self.net.backward_params(&out.grad);
        // Gradients were computed under the fault; the update must land on
        // the clean weights.
        if !self.flips.is_empty() {
            let mut params = self.net.params_mut();
            for (tensor, element, bit) in self.flips.drain(..) {
                let data = params[tensor].value.data_mut();
                data[element] = bitflip_f32(data[element], bit);
            }
        }
        for t in [x, logits, out.grad] {
            Scratch::shared().recycle(t);
        }
        out.loss
    }

    fn discard(&mut self) {
        self.state.restore(self.net);
    }
}

/// Trains `net` on `(images, targets)` with SGD + momentum.
///
/// Mini-batches are reshuffled every epoch; the learning rate decays by
/// `cfg.lr_decay` per epoch. Returns per-epoch losses and wall-clock time.
///
/// # Panics
///
/// Panics if `images` is not NCHW, if the target count does not match the
/// image count, if `cfg.batch_size == 0`, and — in every build profile — if
/// a batch produces a non-finite loss or gradient norm
/// ([`NonFinitePolicy::Panic`]).
pub fn fit(
    net: &mut Network,
    loss: &dyn Loss,
    images: &Tensor,
    targets: &TargetSource,
    cfg: &FitConfig,
) -> FitReport {
    fit_local(net, loss, images, targets, cfg, None)
}

/// Fault-aware training (Vinck et al. 2024): [`fit`] plus stochastic
/// weight bit-flips, injected before each step's forward pass and reverted
/// (XOR is involutive, so reversal is bit-exact) before the optimiser
/// updates the weights. Gradients are therefore computed *under* the
/// fault but applied to the clean weights — the scheme that teaches the
/// network to tolerate transient SEUs at inference time.
///
/// Unlike [`fit`], a non-finite loss or gradient does **not** panic here:
/// an exponent-bit flip legitimately drives the loss to Inf/NaN, so the
/// step is dropped ([`NonFinitePolicy::Drop`]) and counted in
/// [`FitReport::skipped_batches`]. A dropped step leaves no trace: the
/// flips are reverted and the BatchNorm running statistics restored.
///
/// # Panics
///
/// As [`fit`], and additionally if `fa` names an invalid bit range or the
/// network has no parameters to flip.
pub fn fit_fault_aware(
    net: &mut Network,
    loss: &dyn Loss,
    images: &Tensor,
    targets: &TargetSource,
    cfg: &FitConfig,
    fa: &FaultAwareConfig,
) -> FitReport {
    assert!(fa.flips_per_step > 0, "fault-aware training needs flips");
    assert!(
        fa.bit_lo <= fa.bit_hi && fa.bit_hi < 32,
        "invalid bit range {}..={}",
        fa.bit_lo,
        fa.bit_hi
    );
    assert!(
        !net.params_mut().is_empty(),
        "fault-aware training needs trainable parameters"
    );
    fit_local(net, loss, images, targets, cfg, Some(fa))
}

fn fit_local(
    net: &mut Network,
    loss: &dyn Loss,
    images: &Tensor,
    targets: &TargetSource,
    cfg: &FitConfig,
    fault: Option<&FaultAwareConfig>,
) -> FitReport {
    assert_eq!(images.shape().rank(), 4, "images must be NCHW");
    let n = images.shape().dim(0);
    assert_eq!(n, targets.len(), "target count must match image count");
    let _fit_span = span!("fit", epochs = cfg.epochs, samples = n, loss = loss.name());
    let mut source = Local {
        net,
        loss,
        images,
        targets,
        batches: Batches::new(
            n,
            cfg.batch_size,
            Rng::seed_from(cfg.shuffle_seed ^ 0xF17_5EED),
        ),
        fault: fault.map(|fa| (*fa, Rng::seed_from(fa.seed ^ 0xB17F_11B5))),
        flips: Vec::new(),
        state: StateSnapshot::default(),
    };
    let policy = fault.map_or(NonFinitePolicy::Panic, |_| NonFinitePolicy::Drop);
    train(&mut source, cfg, policy)
}

/// Gradients exported from one forward/backward pass — the unit a
/// data-parallel shard worker ships to a gradient aggregator
/// (`tdfm-core`'s `distributed` module).
#[derive(Debug, Clone)]
pub struct BatchGradients {
    /// One gradient tensor per parameter, in `Network::params_mut` order.
    pub grads: Vec<Tensor>,
    /// The batch loss.
    pub loss: f32,
    /// Global L2 norm over the exported gradients (non-finite whenever any
    /// exported gradient value is, so callers can screen workers cheaply).
    pub grad_norm: f32,
}

impl BatchGradients {
    /// `true` when the loss and every gradient value are finite.
    pub fn is_finite(&self) -> bool {
        self.loss.is_finite() && self.grad_norm.is_finite()
    }
}

/// Runs one forward/backward pass on a batch and exports the resulting
/// parameter gradients instead of stepping an optimiser.
///
/// The network's accumulated gradients are zeroed on exit, so exporting
/// never bleeds state into a later `fit` or another export.
///
/// # Panics
///
/// Panics if `images` is not NCHW.
pub fn export_batch_gradients(
    net: &mut Network,
    loss: &dyn Loss,
    images: &Tensor,
    target: &Target<'_>,
) -> BatchGradients {
    assert_eq!(images.shape().rank(), 4, "images must be NCHW");
    let logits = net.forward(images, Mode::Train);
    let out = loss.evaluate(&logits, target);
    net.backward_params(&out.grad);
    let mut params = net.params_mut();
    let grads: Vec<Tensor> = params.iter().map(|p| p.grad.clone()).collect();
    let grad_norm = global_grad_norm(&params);
    for p in params.iter_mut() {
        p.zero_grad();
    }
    BatchGradients {
        grads,
        loss: out.loss,
        grad_norm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::CrossEntropy;
    use crate::models::{ModelConfig, ModelKind};
    use tdfm_tensor::ops::one_hot;

    /// Two linearly separable blobs rendered as tiny "images".
    fn blob_data(n: usize, seed: u64) -> (Tensor, Vec<u32>) {
        let mut rng = Rng::seed_from(seed);
        let mut x = Tensor::zeros(&[n, 1, 4, 4]);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let class = (i % 2) as u32;
            let base = if class == 0 { -1.0 } else { 1.0 };
            for j in 0..16 {
                x.data_mut()[i * 16 + j] = base + rng.normal() * 0.3;
            }
            y.push(class);
        }
        (x, y)
    }

    /// A loss that is always NaN: forces the non-finite path every step.
    struct NanLoss;
    impl Loss for NanLoss {
        fn name(&self) -> &'static str {
            "NanLoss"
        }
        fn evaluate(&self, logits: &Tensor, _target: &Target) -> crate::loss::LossOutput {
            crate::loss::LossOutput {
                loss: f32::NAN,
                grad: Tensor::zeros(&[logits.shape().dim(0), logits.shape().dim(1)]),
            }
        }
    }

    fn param_bits(net: &mut Network) -> Vec<Vec<u32>> {
        net.params_mut()
            .iter()
            .map(|p| p.value.data().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    fn state_bits(net: &mut Network) -> Vec<Vec<u32>> {
        net.state_mut()
            .iter()
            .map(|s| s.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn fit_reduces_loss_on_separable_data() {
        let (x, y) = blob_data(64, 0);
        let cfg = ModelConfig {
            in_shape: (1, 4, 4),
            classes: 2,
            width: 2,
            seed: 1,
        };
        let mut net = ModelKind::ConvNet.build(&cfg);
        let report = fit(
            &mut net,
            &CrossEntropy,
            &x,
            &TargetSource::Hard(y.clone()),
            &FitConfig {
                epochs: 8,
                batch_size: 16,
                lr: 0.05,
                ..FitConfig::default()
            },
        );
        assert!(
            report.final_loss() < report.epoch_losses[0] * 0.5,
            "losses: {:?}",
            report.epoch_losses
        );
        assert!(net.accuracy(&x, &y, 32) > 0.9);
    }

    #[test]
    fn fit_is_deterministic_given_seeds() {
        let (x, y) = blob_data(32, 1);
        let cfg = ModelConfig {
            in_shape: (1, 4, 4),
            classes: 2,
            width: 2,
            seed: 3,
        };
        let fit_once = || {
            let mut net = ModelKind::ConvNet.build(&cfg);
            let report = fit(
                &mut net,
                &CrossEntropy,
                &x,
                &TargetSource::Hard(y.clone()),
                &FitConfig {
                    epochs: 2,
                    batch_size: 8,
                    ..FitConfig::default()
                },
            );
            report.epoch_losses
        };
        assert_eq!(fit_once(), fit_once());
    }

    #[test]
    fn soft_targets_train_too() {
        let (x, y) = blob_data(32, 2);
        let soft = one_hot(&y, 2);
        let cfg = ModelConfig {
            in_shape: (1, 4, 4),
            classes: 2,
            width: 2,
            seed: 4,
        };
        let mut net = ModelKind::ConvNet.build(&cfg);
        let report = fit(
            &mut net,
            &CrossEntropy,
            &x,
            &TargetSource::Soft(soft),
            &FitConfig {
                epochs: 4,
                batch_size: 8,
                ..FitConfig::default()
            },
        );
        assert!(report.final_loss() < report.epoch_losses[0]);
    }

    #[test]
    fn wall_clock_is_recorded() {
        let (x, y) = blob_data(16, 3);
        let cfg = ModelConfig {
            in_shape: (1, 4, 4),
            classes: 2,
            width: 2,
            seed: 5,
        };
        let mut net = ModelKind::ConvNet.build(&cfg);
        let report = fit(
            &mut net,
            &CrossEntropy,
            &x,
            &TargetSource::Hard(y),
            &FitConfig {
                epochs: 1,
                batch_size: 8,
                ..FitConfig::default()
            },
        );
        assert!(report.wall > Duration::ZERO);
    }

    #[test]
    fn per_epoch_walls_and_grad_norms_are_populated() {
        let (x, y) = blob_data(16, 11);
        let cfg = ModelConfig {
            in_shape: (1, 4, 4),
            classes: 2,
            width: 2,
            seed: 12,
        };
        let mut net = ModelKind::ConvNet.build(&cfg);
        let report = fit(
            &mut net,
            &CrossEntropy,
            &x,
            &TargetSource::Hard(y),
            &FitConfig {
                epochs: 3,
                batch_size: 8,
                ..FitConfig::default()
            },
        );
        assert_eq!(report.epoch_walls.len(), 3);
        assert_eq!(report.epoch_grad_norms.len(), 3);
        assert!(report.epoch_walls.iter().all(|w| *w > Duration::ZERO));
        // Gradients on separable data are real, finite and non-zero.
        assert!(report
            .epoch_grad_norms
            .iter()
            .all(|g| g.is_finite() && *g > 0.0));
        // The per-epoch walls decompose the total.
        let summed: Duration = report.epoch_walls.iter().sum();
        assert!(summed <= report.wall);
    }

    #[test]
    #[should_panic(expected = "target count")]
    fn mismatched_targets_rejected() {
        let (x, _) = blob_data(8, 4);
        let cfg = ModelConfig {
            in_shape: (1, 4, 4),
            classes: 2,
            width: 2,
            seed: 6,
        };
        let mut net = ModelKind::ConvNet.build(&cfg);
        let _ = fit(
            &mut net,
            &CrossEntropy,
            &x,
            &TargetSource::Hard(vec![0, 1]),
            &FitConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "non-finite loss")]
    fn non_finite_loss_fails_loudly_in_every_build() {
        let (x, y) = blob_data(8, 9);
        let cfg = ModelConfig {
            in_shape: (1, 4, 4),
            classes: 2,
            width: 2,
            seed: 10,
        };
        let mut net = ModelKind::ConvNet.build(&cfg);
        let _ = fit(
            &mut net,
            &NanLoss,
            &x,
            &TargetSource::Hard(y),
            &FitConfig::default(),
        );
    }

    #[test]
    fn shared_arena_runs_are_bit_identical() {
        // Buffer reuse must be invisible to numerics: two identical runs
        // on the shared scratch arena (so the second run trains entirely
        // out of recycled buffers) must produce byte-identical loss curves
        // and gradient norms.
        let (x, y) = blob_data(32, 13);
        let cfg = ModelConfig {
            in_shape: (1, 4, 4),
            classes: 2,
            width: 2,
            seed: 14,
        };
        let run = || {
            let mut net = ModelKind::ConvNet.build(&cfg);
            fit(
                &mut net,
                &CrossEntropy,
                &x,
                &TargetSource::Hard(y.clone()),
                &FitConfig {
                    epochs: 2,
                    batch_size: 8,
                    ..FitConfig::default()
                },
            )
        };
        let first = run();
        let hits = Scratch::shared().stats().hits;
        let second = run();
        let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|f| f.to_bits()).collect() };
        assert_eq!(bits(&first.epoch_losses), bits(&second.epoch_losses));
        assert_eq!(
            bits(&first.epoch_grad_norms),
            bits(&second.epoch_grad_norms)
        );
        // The second run actually exercised recycled buffers.
        assert!(
            Scratch::shared().stats().hits > hits,
            "arena never served a reuse"
        );
    }

    #[test]
    #[should_panic(expected = "non-finite loss")]
    fn nan_training_input_reaches_the_loss_and_fails_loudly() {
        // End-to-end IEEE faithfulness: one NaN pixel must survive every
        // kernel (no sparsity shortcut may swallow it) and surface as a
        // non-finite loss instead of silently corrupting training.
        let (mut x, y) = blob_data(8, 15);
        x.data_mut()[3] = f32::NAN;
        let cfg = ModelConfig {
            in_shape: (1, 4, 4),
            classes: 2,
            width: 2,
            seed: 16,
        };
        let mut net = ModelKind::ConvNet.build(&cfg);
        let _ = fit(
            &mut net,
            &CrossEntropy,
            &x,
            &TargetSource::Hard(y),
            &FitConfig {
                epochs: 1,
                batch_size: 8,
                ..FitConfig::default()
            },
        );
    }

    #[test]
    fn fault_aware_training_still_learns() {
        // Low-mantissa flips are tiny perturbations: fault-aware training
        // must converge about as well as plain training.
        let (x, y) = blob_data(64, 20);
        let cfg = ModelConfig {
            in_shape: (1, 4, 4),
            classes: 2,
            width: 2,
            seed: 21,
        };
        let mut net = ModelKind::ConvNet.build(&cfg);
        let report = fit_fault_aware(
            &mut net,
            &CrossEntropy,
            &x,
            &TargetSource::Hard(y.clone()),
            &FitConfig {
                epochs: 8,
                batch_size: 16,
                ..FitConfig::default()
            },
            &FaultAwareConfig {
                flips_per_step: 2,
                bit_lo: 0,
                bit_hi: 15,
                seed: 1,
            },
        );
        assert!(report.final_loss() < report.epoch_losses[0]);
        assert!(net.accuracy(&x, &y, 32) > 0.8);
    }

    #[test]
    fn fault_aware_flips_are_reverted_bit_exactly() {
        // With a loss whose gradient is identically zero (and zero
        // momentum/weight decay) the optimiser's update is `w += -lr * 0`,
        // which leaves every weight's bit pattern unchanged — so after
        // training the network must hold its initial weights bit-for-bit,
        // even though every step injected (and reverted) exponent- and
        // sign-bit flips.
        struct ZeroLoss;
        impl Loss for ZeroLoss {
            fn name(&self) -> &'static str {
                "ZeroLoss"
            }
            fn evaluate(&self, logits: &Tensor, _target: &Target) -> crate::loss::LossOutput {
                crate::loss::LossOutput {
                    loss: 0.0,
                    grad: Tensor::zeros(&[logits.shape().dim(0), logits.shape().dim(1)]),
                }
            }
        }
        let (x, y) = blob_data(16, 22);
        let cfg = ModelConfig {
            in_shape: (1, 4, 4),
            classes: 2,
            width: 2,
            seed: 23,
        };
        let mut net = ModelKind::ConvNet.build(&cfg);
        let before = param_bits(&mut net);
        let _ = fit_fault_aware(
            &mut net,
            &ZeroLoss,
            &x,
            &TargetSource::Hard(y),
            &FitConfig {
                epochs: 2,
                batch_size: 8,
                momentum: 0.0,
                weight_decay: 0.0,
                ..FitConfig::default()
            },
            &FaultAwareConfig {
                flips_per_step: 4,
                bit_lo: 23,
                bit_hi: 31,
                seed: 3,
            },
        );
        let after = param_bits(&mut net);
        assert_eq!(before, after, "reverted flips must restore exact bits");
    }

    #[test]
    fn fault_aware_is_deterministic_given_seeds() {
        let (x, y) = blob_data(32, 24);
        let cfg = ModelConfig {
            in_shape: (1, 4, 4),
            classes: 2,
            width: 2,
            seed: 25,
        };
        let run = || {
            let mut net = ModelKind::ConvNet.build(&cfg);
            fit_fault_aware(
                &mut net,
                &CrossEntropy,
                &x,
                &TargetSource::Hard(y.clone()),
                &FitConfig {
                    epochs: 2,
                    batch_size: 8,
                    ..FitConfig::default()
                },
                &FaultAwareConfig::default(),
            )
            .epoch_losses
        };
        let bits = |v: Vec<f32>| -> Vec<u32> { v.iter().map(|f| f.to_bits()).collect() };
        assert_eq!(bits(run()), bits(run()));
    }

    #[test]
    fn fault_aware_skips_nonfinite_batches_instead_of_panicking() {
        // Force the skip path deterministically with a loss that is always
        // NaN: every batch must be dropped, reverted and counted — the
        // plain trainer panics in this exact situation (test above).
        let (x, y) = blob_data(16, 26);
        let cfg = ModelConfig {
            in_shape: (1, 4, 4),
            classes: 2,
            width: 2,
            seed: 27,
        };
        let mut net = ModelKind::ConvNet.build(&cfg);
        let before = param_bits(&mut net);
        let report = fit_fault_aware(
            &mut net,
            &NanLoss,
            &x,
            &TargetSource::Hard(y),
            &FitConfig {
                epochs: 2,
                batch_size: 8,
                ..FitConfig::default()
            },
            &FaultAwareConfig::default(),
        );
        assert_eq!(report.skipped_batches, 4, "2 epochs x 2 batches");
        assert_eq!(report.epoch_losses, vec![0.0, 0.0]);
        let after = param_bits(&mut net);
        assert_eq!(before, after, "skipped batches must leave weights clean");
    }

    #[test]
    fn dropped_fault_aware_steps_leave_batchnorm_state_untouched() {
        // The Train-mode forward writes every BatchNorm running mean/var
        // before the loss is screened; a dropped step must put them back,
        // or a fault that never reached the weights still leaks into the
        // model through its normalisation statistics.
        let (x, y) = blob_data(16, 34);
        for kind in [ModelKind::ResNet18, ModelKind::MobileNet] {
            let mut net = kind.build(&ModelConfig {
                in_shape: (1, 4, 4),
                classes: 2,
                width: 2,
                seed: 35,
            });
            assert!(!net.state_mut().is_empty(), "{kind:?} has BatchNorm state");
            let before = (param_bits(&mut net), state_bits(&mut net));
            let report = fit_fault_aware(
                &mut net,
                &NanLoss,
                &x,
                &TargetSource::Hard(y.clone()),
                &FitConfig {
                    epochs: 1,
                    batch_size: 8,
                    ..FitConfig::default()
                },
                &FaultAwareConfig::default(),
            );
            assert_eq!(report.skipped_batches, 2, "{kind:?}");
            assert_eq!(
                before,
                (param_bits(&mut net), state_bits(&mut net)),
                "{kind:?}: a dropped step changed the model"
            );
        }
    }

    /// Finite loss, non-finite gradient — the combination a fault-blown
    /// forward pass can produce (the loss saturates while an intermediate
    /// gradient overflows), which the clip cannot rescale.
    struct InfGradLoss;
    impl Loss for InfGradLoss {
        fn name(&self) -> &'static str {
            "InfGradLoss"
        }
        fn evaluate(&self, logits: &Tensor, _target: &Target) -> crate::loss::LossOutput {
            let mut grad = Tensor::zeros(&[logits.shape().dim(0), logits.shape().dim(1)]);
            grad.data_mut()[0] = f32::INFINITY;
            crate::loss::LossOutput { loss: 1.0, grad }
        }
    }

    #[test]
    fn fault_aware_skips_nonfinite_gradients_instead_of_stepping() {
        // Regression: the clip guard used to silently *skip clipping* on a
        // non-finite norm, so the optimiser stepped with overflowed
        // gradients and blasted weights into the 1e34 range — after which
        // every batch went non-finite and training never recovered. The
        // batch must be dropped and the clean weights left bit-exact.
        let (x, y) = blob_data(16, 30);
        let cfg = ModelConfig {
            in_shape: (1, 4, 4),
            classes: 2,
            width: 2,
            seed: 31,
        };
        let mut net = ModelKind::ConvNet.build(&cfg);
        let before = param_bits(&mut net);
        let report = fit_fault_aware(
            &mut net,
            &InfGradLoss,
            &x,
            &TargetSource::Hard(y),
            &FitConfig {
                epochs: 2,
                batch_size: 8,
                momentum: 0.0,
                weight_decay: 0.0,
                ..FitConfig::default()
            },
            &FaultAwareConfig::default(),
        );
        assert_eq!(report.skipped_batches, 4, "2 epochs x 2 batches");
        let after = param_bits(&mut net);
        assert_eq!(before, after, "dropped gradients must not touch weights");
    }

    #[test]
    #[should_panic(expected = "non-finite gradient norm")]
    fn plain_training_panics_on_nonfinite_gradients() {
        // Outside fault-aware runs a non-finite gradient is the same
        // corruption class as a non-finite loss: fail loudly.
        let (x, y) = blob_data(8, 32);
        let cfg = ModelConfig {
            in_shape: (1, 4, 4),
            classes: 2,
            width: 2,
            seed: 33,
        };
        let mut net = ModelKind::ConvNet.build(&cfg);
        let _ = fit(
            &mut net,
            &InfGradLoss,
            &x,
            &TargetSource::Hard(y),
            &FitConfig {
                epochs: 1,
                batch_size: 8,
                ..FitConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "invalid bit range")]
    fn fault_aware_rejects_bad_bit_range() {
        let (x, y) = blob_data(8, 28);
        let cfg = ModelConfig {
            in_shape: (1, 4, 4),
            classes: 2,
            width: 2,
            seed: 29,
        };
        let mut net = ModelKind::ConvNet.build(&cfg);
        let _ = fit_fault_aware(
            &mut net,
            &CrossEntropy,
            &x,
            &TargetSource::Hard(y),
            &FitConfig::default(),
            &FaultAwareConfig {
                bit_hi: 32,
                ..FaultAwareConfig::default()
            },
        );
    }

    #[test]
    fn export_flags_non_finite_gradients() {
        let (mut x, y) = blob_data(8, 42);
        x.data_mut()[0] = f32::NAN;
        let cfg = ModelConfig {
            in_shape: (1, 4, 4),
            classes: 2,
            width: 2,
            seed: 43,
        };
        let mut net = ModelKind::ConvNet.build(&cfg);
        let export = export_batch_gradients(&mut net, &CrossEntropy, &x, &Target::Hard(&y));
        assert!(!export.is_finite(), "NaN input must surface in the export");
        // Export must leave no gradient residue behind.
        assert!(net
            .params_mut()
            .iter()
            .all(|p| p.grad.data().iter().all(|&g| g == 0.0)));
    }

    #[test]
    fn target_source_batching() {
        let src = TargetSource::Hard(vec![5, 6, 7, 8]);
        match src.batch(&[3, 0]) {
            BatchTarget::Hard(l) => assert_eq!(l, vec![8, 5]),
            _ => panic!("wrong variant"),
        }
        assert_eq!(src.len(), 4);
        assert!(!src.is_empty());
    }
}
