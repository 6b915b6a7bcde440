//! Byzantine-robust sharded training (ROADMAP item 2): the production-scale
//! story where training data arrives sharded across N logical workers and a
//! fault afflicts *one shard*, not the monolithic corpus.
//!
//! Each worker holds one shard of a [`LabeledDataset`] partition and
//! computes per-batch gradients on its own model replica; a pluggable
//! [`Aggregator`] combines the per-worker gradients into one update, which
//! the shared training pipeline (`tdfm_nn::trainer::train`) applies to
//! worker 0's replica before copying its parameters to the others —
//! synchronous data-parallel SGD. The robust aggregators ([`AggregatorKind::TrimmedMean`],
//! [`AggregatorKind::Median`], [`AggregatorKind::Ctma`] after Dahan & Levy's
//! CTMA with double momentum) bound the damage a faulty shard's gradients
//! can do; [`crate::detect::localize_faulty_shards`] then *fingers* the
//! shard FedDebug-style from per-shard held-out disagreement.
//!
//! Every replica starts from one build of the model: worker 0's network is
//! built once and the others receive [`Network::replica`] copies of it.
//!
//! # Determinism
//!
//! Every aggregator reduces in a fixed order regardless of worker
//! scheduling: per coordinate, the per-worker values are sorted in
//! [`f32::total_cmp`] order and summed in ascending order. This makes every
//! aggregator permutation-invariant over worker order, makes
//! `TrimmedMean { f: 0 }` bit-identical to `Mean`, and — because workers
//! are collected indexed by shard before reduction — makes results
//! byte-identical across `TDFM_THREADS` like the rest of the repo.
//!
//! The sort runs blockwise rather than per coordinate: 64 coordinates of
//! every worker are loaded as order-preserving integer keys into one row
//! each, and an odd-even transposition network of lane-wise min/max sorts
//! all 64 columns at once. The key map is a bijection that preserves
//! `total_cmp` order, so each coordinate's sorted values — and every
//! reducer's result — are bit for bit those of a per-coordinate
//! `sort_unstable_by(f32::total_cmp)`.

use crate::experiment::{rep_seed, run_indexed, CellResult, RunLog};
use crate::metrics::{accuracy, accuracy_delta, ConfidenceInterval};
use crate::technique::EVAL_BATCH;
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use tdfm_data::{DatasetKind, LabeledDataset, Scale};
use tdfm_inject::{ProvenanceBuilder, ShardFaultPlan};
use tdfm_json::json_struct;
use tdfm_nn::loss::{CrossEntropy, Target};
use tdfm_nn::models::{ModelConfig, ModelKind};
use tdfm_nn::trainer::{
    export_batch_gradients, gather, train, Batches, FitConfig, GradientSource, NonFinitePolicy,
    StateSnapshot,
};
use tdfm_nn::Network;
use tdfm_obs::{event, span, Level, ManifestCell, RunManifest};
use tdfm_tensor::rng::Rng;
use tdfm_tensor::{Scratch, Tensor};

/// Cached handle on the global trimmed-contribution counter: one increment
/// per worker contribution an aggregator excluded from a round's update.
fn trims_counter() -> &'static tdfm_obs::metrics::Counter {
    static HANDLE: OnceLock<Arc<tdfm_obs::metrics::Counter>> = OnceLock::new();
    HANDLE.get_or_init(|| tdfm_obs::global().counter("aggregator_trims"))
}

/// Cached handle on the non-finite worker-drop counter (the distributed
/// analogue of PR 5's drop-batch semantics).
fn drops_counter() -> &'static tdfm_obs::metrics::Counter {
    static HANDLE: OnceLock<Arc<tdfm_obs::metrics::Counter>> = OnceLock::new();
    HANDLE.get_or_init(|| tdfm_obs::global().counter("shard_worker_drops"))
}

/// One worker's gradient contribution to a round: its shard index plus its
/// per-parameter gradient tensors (in `Network::params_mut` order).
#[derive(Debug)]
pub struct WorkerGrads<'a> {
    /// The contributing worker's shard index.
    pub worker: usize,
    /// The worker's per-parameter gradients.
    pub grads: &'a [Tensor],
}

/// What an aggregation round produced.
#[derive(Debug)]
pub struct Aggregated {
    /// The combined per-parameter gradients.
    pub grads: Vec<Tensor>,
    /// Worker contributions the aggregator excluded this round (trimmed
    /// extremes, non-median workers, CTMA outliers).
    pub trimmed: usize,
}

/// A gradient-combining rule for synchronous data-parallel training.
///
/// # Contract
///
/// Implementations must be **permutation-invariant over worker order** and
/// reduce in a fixed order (sort each coordinate's values in
/// [`f32::total_cmp`] order, sum ascending — the shipped aggregators do
/// both through [`sorted_reduce`]'s sorting network and
/// [`invariant_mean`]): the trainer collects contributions indexed by
/// shard, but byte-identical results across thread counts require the
/// reduction itself to be order-free.
/// Aggregators may keep per-worker state across rounds (CTMA's momentum);
/// state must be keyed by [`WorkerGrads::worker`], never by slice position.
pub trait Aggregator: Send {
    /// Display name, e.g. `"TrimmedMean(f=1)"`.
    fn name(&self) -> String;

    /// Combines the surviving workers' gradients into one update.
    ///
    /// `workers` holds the finite-gradient contributions of a round in
    /// ascending shard order (the trainer screens non-finite workers out
    /// before aggregation and counts them separately).
    fn aggregate(&mut self, workers: &[WorkerGrads<'_>]) -> Aggregated;

    /// `true` when the aggregator's output is already a momentum estimate
    /// (CTMA): the trainer then runs the server optimiser with zero
    /// momentum, because stacking a second 0.9-EMA on top of the worker
    /// EMA compounds to ~0.99 effective momentum and destabilises the
    /// study's small models.
    fn replaces_server_momentum(&self) -> bool {
        false
    }
}

/// Coordinates per block of the sorting network: wide enough to fill the
/// vector lanes, small enough that one reduction's scratch (`n` rows of
/// keys) stays a few KiB whatever the tensor sizes.
const BLOCK: usize = 64;

/// Maps float bits to an `i32` whose signed order is [`f32::total_cmp`]'s
/// order — the bit trick `total_cmp` itself uses. The map is a bijection
/// and its own inverse, so it also maps keys back to float bits.
fn total_key(bits: i32) -> i32 {
    bits ^ (((bits >> 31) as u32) >> 1) as i32
}

/// One block of sorted coordinates: rank row `r` holds, lane by lane, the
/// `r`-th smallest worker value of each coordinate under
/// [`f32::total_cmp`].
struct Ranks<'a> {
    keys: &'a [i32],
    lanes: usize,
}

impl Ranks<'_> {
    /// Number of rank rows (the worker count).
    fn len(&self) -> usize {
        self.keys.len() / BLOCK
    }

    /// The values of rank `r`, one per coordinate of the block.
    fn row(&self, r: usize) -> impl Iterator<Item = f32> + '_ {
        self.keys[r * BLOCK..r * BLOCK + self.lanes]
            .iter()
            .map(|&k| f32::from_bits(total_key(k) as u32))
    }
}

/// Odd-even transposition network over worker-major key rows: `n` passes
/// of lane-wise min/max compare-exchange between adjacent rows leave every
/// lane sorted ascending. Branch-free and data-independent, so the compiler
/// vectorises the inner loop.
fn sort_lanes(keys: &mut [i32]) {
    let n = keys.len() / BLOCK;
    for pass in 0..n {
        for lo in (pass % 2..n - 1).step_by(2) {
            let (a, b) = keys[lo * BLOCK..(lo + 2) * BLOCK].split_at_mut(BLOCK);
            for (x, y) in a.iter_mut().zip(b) {
                let (small, large) = ((*x).min(*y), (*x).max(*y));
                *x = small;
                *y = large;
            }
        }
    }
}

/// Sorts each coordinate's per-worker values and hands them to `reduce` as
/// rank rows — the fixed reduction order every aggregator shares.
///
/// Works per tensor in blocks of [`BLOCK`] coordinates: each worker's block
/// is loaded as [`total_key`]s into one row, the rows are sorted lane-wise
/// by [`sort_lanes`], and `reduce` writes the block's combined coordinates
/// from the resulting [`Ranks`]. Because the key map preserves
/// `total_cmp` order bijectively, each coordinate's rank sequence is bit
/// for bit what sorting its values with `total_cmp` gives.
fn sorted_reduce(sets: &[&[Tensor]], reduce: impl Fn(&Ranks<'_>, &mut [f32])) -> Vec<Tensor> {
    assert!(!sets.is_empty(), "cannot aggregate zero workers");
    let mut keys = vec![0i32; sets.len() * BLOCK];
    (0..sets[0].len())
        .map(|p| {
            let mut out = Tensor::zeros(sets[0][p].shape().dims());
            for (b, block) in out.data_mut().chunks_mut(BLOCK).enumerate() {
                let start = b * BLOCK;
                for (row, set) in keys.chunks_exact_mut(BLOCK).zip(sets) {
                    let values = &set[p].data()[start..start + block.len()];
                    for (k, &v) in row.iter_mut().zip(values) {
                        *k = total_key(v.to_bits() as i32);
                    }
                }
                // Lanes past a short final block hold stale keys; they are
                // sorted along but never read.
                sort_lanes(&mut keys);
                let ranks = Ranks {
                    keys: &keys,
                    lanes: block.len(),
                };
                reduce(&ranks, block);
            }
            out
        })
        .collect()
}

/// Sums the rank rows `kept` lane-wise in ascending order from `0.0` and
/// divides — the invariant mean `Mean`, `TrimmedMean` and CTMA bottom out
/// in, which is what makes `TrimmedMean { f: 0 }` and `Mean` bit-identical.
fn invariant_mean(ranks: &Ranks<'_>, kept: Range<usize>, out: &mut [f32]) {
    let len = kept.len() as f32;
    out.fill(0.0);
    for r in kept {
        for (o, v) in out.iter_mut().zip(ranks.row(r)) {
            *o += v;
        }
    }
    for o in out {
        *o /= len;
    }
}

/// Coordinate-wise mean after dropping the `t` lowest and `t` highest
/// values of each coordinate.
fn trimmed_mean(sets: &[&[Tensor]], t: usize) -> Vec<Tensor> {
    sorted_reduce(sets, |ranks, out| {
        invariant_mean(ranks, t..ranks.len() - t, out)
    })
}

fn grad_sets<'a>(workers: &'a [WorkerGrads<'_>]) -> Vec<&'a [Tensor]> {
    workers.iter().map(|w| w.grads).collect()
}

/// Plain coordinate-wise mean.
#[derive(Debug, Default)]
pub struct Mean;

impl Aggregator for Mean {
    fn name(&self) -> String {
        "Mean".to_string()
    }

    fn aggregate(&mut self, workers: &[WorkerGrads<'_>]) -> Aggregated {
        Aggregated {
            grads: trimmed_mean(&grad_sets(workers), 0),
            trimmed: 0,
        }
    }
}

/// Coordinate-wise trimmed mean: drops the `f` lowest and `f` highest
/// values per coordinate, then averages the rest. `f` is clamped so at
/// least one value survives.
#[derive(Debug)]
pub struct TrimmedMean {
    /// Per-coordinate trim width on each side.
    pub f: usize,
}

impl Aggregator for TrimmedMean {
    fn name(&self) -> String {
        format!("TrimmedMean(f={})", self.f)
    }

    fn aggregate(&mut self, workers: &[WorkerGrads<'_>]) -> Aggregated {
        let n = workers.len();
        let t = self.f.min((n - 1) / 2);
        Aggregated {
            grads: trimmed_mean(&grad_sets(workers), t),
            trimmed: 2 * t,
        }
    }
}

/// Coordinate-wise median (mean of the two middle values for even worker
/// counts).
#[derive(Debug, Default)]
pub struct Median;

impl Aggregator for Median {
    fn name(&self) -> String {
        "Median".to_string()
    }

    fn aggregate(&mut self, workers: &[WorkerGrads<'_>]) -> Aggregated {
        let n = workers.len();
        let grads = sorted_reduce(&grad_sets(workers), |ranks, out| {
            let m = ranks.len() / 2;
            if ranks.len() % 2 == 1 {
                for (o, v) in out.iter_mut().zip(ranks.row(m)) {
                    *o = v;
                }
            } else {
                for ((o, lo), hi) in out.iter_mut().zip(ranks.row(m - 1)).zip(ranks.row(m)) {
                    *o = (lo + hi) / 2.0;
                }
            }
        });
        Aggregated {
            grads,
            trimmed: n - if n % 2 == 1 { 1 } else { 2 },
        }
    }
}

/// Centered Trimmed Meta Aggregator (Dahan & Levy 2024) with worker-side
/// momentum. The momenta are used twice — once to pick the trimmed center
/// and the surviving workers, once as the update direction itself (the
/// paper's double-momentum scheme); the trainer therefore runs the server
/// optimiser without its own momentum (see
/// [`Aggregator::replaces_server_momentum`]).
///
/// Each worker smooths its gradient stream into a heavy-ball momentum
/// `m_w ← β·m_w + g_w` — the same accumulator form (and so the same
/// update magnitude) as the server optimiser's own momentum, moved to
/// the worker side where it can also absorb per-shard gradient noise
/// before the Byzantine filter sees it. The round's *center* is the
/// coordinate-wise trimmed mean of the momenta, and the `n − f` momenta
/// closest to the center (squared L2, accumulated in f64 coordinate
/// order) are averaged into the update. Distance ties break by ascending
/// shard index.
#[derive(Debug)]
pub struct Ctma {
    /// Number of suspect workers to exclude.
    pub f: usize,
    /// Worker-side momentum coefficient.
    pub beta: f32,
    momentum: Vec<Option<Vec<Tensor>>>,
}

impl Ctma {
    /// Creates a CTMA aggregator tolerating `f` faulty workers with the
    /// conventional β = 0.9 worker momentum.
    pub fn new(f: usize) -> Self {
        Self {
            f,
            beta: 0.9,
            momentum: Vec::new(),
        }
    }

    /// One aggregation round, with the coordinate-wise trimmed mean passed
    /// in so tests can run the round over a reference reduction.
    fn round(
        &mut self,
        workers: &[WorkerGrads<'_>],
        trimmed_mean: fn(&[&[Tensor]], usize) -> Vec<Tensor>,
    ) -> Aggregated {
        let n = workers.len();
        // Update each present worker's momentum, keyed by shard index so
        // state survives rounds where some workers were screened out.
        for w in workers {
            if self.momentum.len() <= w.worker {
                self.momentum.resize_with(w.worker + 1, || None);
            }
            match &mut self.momentum[w.worker] {
                Some(m) => {
                    for (mt, gt) in m.iter_mut().zip(w.grads) {
                        for (mv, &gv) in mt.data_mut().iter_mut().zip(gt.data()) {
                            *mv = self.beta * *mv + gv;
                        }
                    }
                }
                slot @ None => {
                    *slot = Some(w.grads.to_vec());
                }
            }
        }
        let momenta: Vec<&[Tensor]> = workers
            .iter()
            .map(|w| {
                self.momentum[w.worker]
                    .as_deref()
                    .expect("momentum initialised above")
            })
            .collect();
        let t = self.f.min((n - 1) / 2);
        let center = trimmed_mean(&momenta, t);
        // Squared distances to the center, accumulated in f64 coordinate
        // order — the same fixed sequence for every worker permutation.
        let mut ranked: Vec<(f64, usize, usize)> = workers
            .iter()
            .enumerate()
            .map(|(slot, w)| {
                let dist: f64 = momenta[slot]
                    .iter()
                    .zip(&center)
                    .map(|(m, c)| {
                        m.data()
                            .iter()
                            .zip(c.data())
                            .map(|(&a, &b)| {
                                let d = (a - b) as f64;
                                d * d
                            })
                            .sum::<f64>()
                    })
                    .sum();
                (dist, w.worker, slot)
            })
            .collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let keep = n - self.f.min(n - 1);
        let selected: Vec<&[Tensor]> = ranked[..keep].iter().map(|&(_, _, s)| momenta[s]).collect();
        Aggregated {
            grads: trimmed_mean(&selected, 0),
            trimmed: n - keep,
        }
    }
}

impl Aggregator for Ctma {
    fn name(&self) -> String {
        format!("Ctma(f={})", self.f)
    }

    fn replaces_server_momentum(&self) -> bool {
        true
    }

    fn aggregate(&mut self, workers: &[WorkerGrads<'_>]) -> Aggregated {
        self.round(workers, trimmed_mean)
    }
}

/// The aggregator menu, as named in sweeps and harness output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregatorKind {
    /// Plain mean — the non-robust baseline.
    Mean,
    /// Coordinate-wise trimmed mean with trim width `f`.
    TrimmedMean {
        /// Per-side trim width.
        f: usize,
    },
    /// Coordinate-wise median.
    Median,
    /// CTMA with double momentum, excluding `f` suspects.
    Ctma {
        /// Number of suspects excluded per round.
        f: usize,
    },
}

impl AggregatorKind {
    /// The harness line-up: the non-robust baseline plus the three robust
    /// aggregators at `f = 1`.
    pub fn standard_set() -> Vec<AggregatorKind> {
        vec![
            AggregatorKind::Mean,
            AggregatorKind::TrimmedMean { f: 1 },
            AggregatorKind::Median,
            AggregatorKind::Ctma { f: 1 },
        ]
    }

    /// Display name (also the manifest cell's technique field).
    pub fn name(self) -> String {
        match self {
            AggregatorKind::Mean => "Mean".to_string(),
            AggregatorKind::TrimmedMean { f } => format!("TrimmedMean(f={f})"),
            AggregatorKind::Median => "Median".to_string(),
            AggregatorKind::Ctma { f } => format!("Ctma(f={f})"),
        }
    }

    /// Builds a fresh aggregator instance.
    pub fn build(self) -> Box<dyn Aggregator> {
        match self {
            AggregatorKind::Mean => Box::new(Mean),
            AggregatorKind::TrimmedMean { f } => Box::new(TrimmedMean { f }),
            AggregatorKind::Median => Box::new(Median),
            AggregatorKind::Ctma { f } => Box::new(Ctma::new(f)),
        }
    }
}

/// What a sharded training run produced.
#[derive(Debug, Clone, Default)]
pub struct ShardedFitReport {
    /// Mean per-round training loss per epoch (over surviving workers).
    pub epoch_losses: Vec<f32>,
    /// Synchronous aggregation rounds run.
    pub rounds: usize,
    /// Worker contributions the aggregator excluded, summed over rounds.
    pub trimmed_contributions: u64,
    /// Worker contributions dropped for non-finite gradients before
    /// aggregation (PR 5's drop-batch semantics, per worker per round).
    pub dropped_contributions: u64,
    /// Rounds skipped entirely because no finite contribution survived.
    pub skipped_rounds: usize,
    /// Cumulative gradient-computation wall clock per worker.
    pub worker_walls: Vec<Duration>,
}

/// Per-worker mutable state: a model replica, its shard's batch order, the
/// replica's pre-round BatchNorm state, and its wall clock.
struct Worker {
    net: Network,
    batches: Batches,
    state: StateSnapshot,
    wall: Duration,
}

/// The sharded [`GradientSource`]: every worker exports one batch's
/// gradients from its own replica, non-finite contributions are dropped,
/// and the aggregate lands in worker 0's gradients for the pipeline to
/// clip and apply.
struct Sharded<'a> {
    shards: &'a [LabeledDataset],
    workers: Vec<Worker>,
    aggregator: &'a mut dyn Aggregator,
    epoch: usize,
    report: ShardedFitReport,
}

impl GradientSource for Sharded<'_> {
    fn net(&mut self) -> &mut Network {
        &mut self.workers[0].net
    }

    fn begin_epoch(&mut self, epoch: usize) -> usize {
        self.epoch = epoch;
        // Shards differ by at most one sample; the longest shard sets the
        // round count and shorter shards wrap around their batch cycle.
        self.workers
            .iter_mut()
            .map(|w| w.batches.shuffle())
            .max()
            .expect("non-empty shards")
    }

    fn gradients(&mut self, step: usize) -> f32 {
        // Every worker computes gradients for its own batch, in parallel
        // under the two-level thread budget; each call gets its worker by
        // exclusive borrow.
        let items = self.workers.iter_mut().zip(self.shards);
        let exports = run_indexed(items, |(worker, shard)| {
            worker.state.save(&mut worker.net);
            let batch = worker.batches.batch(step);
            let images = gather(shard.images(), batch);
            let labels: Vec<u32> = batch.iter().map(|&i| shard.labels()[i]).collect();
            let started = Instant::now();
            let export = export_batch_gradients(
                &mut worker.net,
                &CrossEntropy,
                &images,
                &Target::Hard(&labels),
            );
            worker.wall += started.elapsed();
            Scratch::shared().recycle(images);
            if !export.is_finite() {
                worker.state.restore(&mut worker.net);
            }
            export
        });
        // Screen, then aggregate in ascending-shard order.
        let mut survivors = Vec::with_capacity(exports.len());
        for (worker, e) in exports.iter().enumerate() {
            if e.is_finite() {
                survivors.push(WorkerGrads {
                    worker,
                    grads: &e.grads,
                });
                continue;
            }
            self.report.dropped_contributions += 1;
            drops_counter().inc();
            event!(
                Level::Debug,
                "shard_worker_drop",
                aggregator = self.aggregator.name().as_str(),
                worker = worker,
                epoch = self.epoch,
                step = step,
                loss = e.loss,
                grad_norm = e.grad_norm
            );
        }
        if survivors.is_empty() {
            return f32::NAN;
        }
        let loss = survivors
            .iter()
            .map(|s| exports[s.worker].loss)
            .sum::<f32>()
            / survivors.len() as f32;
        let aggregated = self.aggregator.aggregate(&survivors);
        self.report.trimmed_contributions += aggregated.trimmed as u64;
        trims_counter().add(aggregated.trimmed as u64);
        for (p, g) in self.net().params_mut().into_iter().zip(aggregated.grads) {
            p.grad = g;
        }
        loss
    }

    fn discard(&mut self) {
        for worker in &mut self.workers {
            worker.state.restore(&mut worker.net);
        }
    }

    fn stepped(&mut self) {
        // One optimiser steps worker 0's replica; the others receive its
        // parameters. BatchNorm running statistics stay per replica.
        self.report.rounds += 1;
        let (first, rest) = self.workers.split_first_mut().expect("worker 0 exists");
        let params = first.net.params_mut();
        for w in rest {
            for (dst, src) in w.net.params_mut().into_iter().zip(&params) {
                dst.value.data_mut().copy_from_slice(src.value.data());
            }
        }
    }
}

/// Trains one logical model across `shards.len()` data-parallel workers
/// with synchronous robust gradient aggregation, returning worker 0's
/// replica (every replica holds the same parameters).
///
/// A thin driver over [`tdfm_nn::trainer::train`] with the drop policy:
/// per round, each worker exports gradients for one mini-batch of its
/// shard ([`export_batch_gradients`]) on its own replica; non-finite
/// contributions are dropped, counted and traced, and their replica's
/// BatchNorm state restored; the survivors are aggregated in fixed order;
/// the pipeline clips the aggregate and steps one optimiser on worker 0,
/// whose parameters are then copied to every other replica.
///
/// Workers fan out over threads through the same two-level budget as the
/// grid runner: spawned worker threads re-establish `with_inner_threads`
/// so a run inside a `Runner::run_grid` cell divides the cell's budget
/// instead of multiplying `TDFM_THREADS`.
///
/// # Panics
///
/// Panics if `shards` is empty or the fit config has zero epochs/batch
/// size.
pub fn fit_sharded(
    model: ModelKind,
    config: &ModelConfig,
    shards: &[LabeledDataset],
    cfg: &FitConfig,
    aggregator: &mut dyn Aggregator,
) -> (Network, ShardedFitReport) {
    let (mut replicas, report) = fit_replicas(model, config, shards, cfg, aggregator);
    (replicas.swap_remove(0), report)
}

/// [`fit_sharded`], returning every worker's replica in shard order.
fn fit_replicas(
    model: ModelKind,
    config: &ModelConfig,
    shards: &[LabeledDataset],
    cfg: &FitConfig,
    aggregator: &mut dyn Aggregator,
) -> (Vec<Network>, ShardedFitReport) {
    assert!(!shards.is_empty(), "need at least one shard");
    let _span = span!("fit_sharded", workers = shards.len(), epochs = cfg.epochs);
    let mut server = *cfg;
    if aggregator.replaces_server_momentum() {
        server.momentum = 0.0;
    }
    // Every replica starts from the same initialisation: build it once and
    // copy it, instead of paying for the weight draws once per worker.
    let lead = model.build(config);
    let copies: Vec<Network> = (1..shards.len()).map(|_| lead.replica()).collect();
    let workers = std::iter::once(lead)
        .chain(copies)
        .zip(shards)
        .enumerate()
        .map(|(w, (net, shard))| Worker {
            net,
            batches: Batches::new(
                shard.len(),
                cfg.batch_size,
                Rng::seed_from(cfg.shuffle_seed ^ 0x5_4A2D).derive(w as u64),
            ),
            state: StateSnapshot::default(),
            wall: Duration::ZERO,
        })
        .collect();
    let mut source = Sharded {
        shards,
        workers,
        aggregator,
        epoch: 0,
        report: ShardedFitReport::default(),
    };
    let fit = train(&mut source, &server, NonFinitePolicy::Drop);
    let mut report = source.report;
    report.epoch_losses = fit.epoch_losses;
    report.skipped_rounds = fit.skipped_batches;
    let replicas = source
        .workers
        .into_iter()
        .map(|worker| {
            tdfm_obs::global()
                .histogram("shard_worker_seconds")
                .record(worker.wall);
            report.worker_walls.push(worker.wall);
            worker.net
        })
        .collect();
    (replicas, report)
}

/// A shard-fault sweep: every listed aggregator scored against every listed
/// shard-fault plan, sharing one clean reference fit per (aggregator,
/// repetition).
#[derive(Debug, Clone)]
pub struct ShardFaultSweep {
    /// Dataset sharded across workers.
    pub dataset: DatasetKind,
    /// Architecture under study.
    pub model: ModelKind,
    /// Aggregators to score.
    pub aggregators: Vec<AggregatorKind>,
    /// Shard-fault plans to score each aggregator against (include
    /// [`ShardFaultPlan::clean`] for the zero-faulty-shard column).
    pub plans: Vec<ShardFaultPlan>,
    /// Number of logical workers / shards.
    pub workers: usize,
    /// Experiment scale.
    pub scale: Scale,
    /// Repetitions per (aggregator, plan) cell.
    pub repetitions: usize,
    /// Base seed; repetition `r` derives its own seed exactly like the
    /// other runners.
    pub seed: u64,
}

/// Raw outcome of one repetition of one (aggregator, plan) cell.
#[derive(Debug, Clone)]
pub struct ShardFaultRepetition {
    /// Test accuracy of the clean-reference sharded fit.
    pub clean_accuracy: f32,
    /// Test accuracy under the shard fault.
    pub faulty_accuracy: f32,
    /// Accuracy delta against the clean reference's predictions.
    pub accuracy_delta: f32,
    /// The localizer's top-ranked suspect shard.
    pub suspect: u64,
    /// The top suspect's disagreement score.
    pub suspect_score: f32,
    /// `true` when the top suspect is the injected shard (always `false`
    /// for clean plans — there is nothing to find).
    pub localizer_hit: bool,
    /// Worker contributions the aggregator trimmed during the fit.
    pub trimmed: u64,
    /// Worker contributions dropped for non-finite gradients.
    pub dropped: u64,
}

json_struct!(ShardFaultRepetition {
    clean_accuracy,
    faulty_accuracy,
    accuracy_delta,
    suspect,
    suspect_score,
    localizer_hit,
    trimmed,
    dropped
});

/// Aggregated outcome of one (aggregator, plan) cell.
#[derive(Debug, Clone)]
pub struct ShardFaultResult {
    /// Dataset sharded across workers.
    pub dataset: DatasetKind,
    /// Architecture under study.
    pub model: ModelKind,
    /// Aggregator name (see [`AggregatorKind::name`]).
    pub aggregator: String,
    /// Number of logical workers / shards.
    pub workers: usize,
    /// The shard-fault plan's label (see [`ShardFaultPlan::label`]).
    pub fault_label: String,
    /// Experiment scale.
    pub scale: Scale,
    /// Base seed of the sweep.
    pub seed: u64,
    /// Per-repetition raw results.
    pub repetitions: Vec<ShardFaultRepetition>,
    /// Clean-reference accuracy mean and 95% CI.
    pub clean_accuracy: ConfidenceInterval,
    /// Faulted accuracy mean and CI.
    pub faulty_accuracy: ConfidenceInterval,
    /// AD mean and CI.
    pub ad: ConfidenceInterval,
    /// Repetitions whose top-ranked suspect was the injected shard.
    pub localization_hits: usize,
    /// Wall-clock spent on this cell's faulted fits, seconds.
    pub wall_seconds: f64,
}

json_struct!(ShardFaultResult {
    dataset,
    model,
    aggregator,
    workers,
    fault_label,
    scale,
    seed,
    repetitions,
    clean_accuracy,
    faulty_accuracy,
    ad,
    localization_hits,
    wall_seconds
});

impl ShardFaultResult {
    /// Zeroes the wall-clock field — everything else is a deterministic
    /// function of the sweep, so normalised results diff byte-for-byte.
    pub fn normalize_timings(&mut self) {
        self.wall_seconds = 0.0;
    }
}

/// Shared hyperparameters of a sweep's sharded fits: the grid trainer's
/// defaults tuned to the per-shard sample count, with the epoch floor
/// keeping the synchronous round count meaningful at tiny scales.
fn sharded_fit_config(scale: Scale, shard_len: usize, seed: u64) -> FitConfig {
    let batch_size = (shard_len / 8).clamp(4, 32).min(shard_len);
    let rounds_per_epoch = shard_len.div_ceil(batch_size).max(1);
    let epochs = scale.epochs().max(160usize.div_ceil(rounds_per_epoch));
    FitConfig {
        epochs,
        batch_size,
        shuffle_seed: seed,
        ..FitConfig::default()
    }
}

/// Splits every (possibly faulted) shard into a training part and a
/// held-out part the localizer scores on. The held-out slice inherits the
/// shard's label fault — disagreement between the aggregated model and a
/// shard's *own* labels on unseen samples is the localization signal.
fn split_holdouts(shards: &[LabeledDataset]) -> (Vec<LabeledDataset>, Vec<LabeledDataset>) {
    let mut train = Vec::with_capacity(shards.len());
    let mut holdout = Vec::with_capacity(shards.len());
    for shard in shards {
        let k = shard.len() - (shard.len() / 5).max(1);
        let (t, h) = shard.split_at(k.max(1));
        train.push(t);
        holdout.push(h);
    }
    (train, holdout)
}

impl CellResult for ShardFaultResult {
    /// The aggregator rides in the cell's technique field.
    fn manifest_cell(&self, index: usize) -> ManifestCell {
        ManifestCell {
            index,
            dataset: self.dataset.name().to_string(),
            model: self.model.name().to_string(),
            technique: self.aggregator.clone(),
            fault: self.fault_label.clone(),
            scale: self.scale.name().to_string(),
            repetitions: self.repetitions.len(),
            seed: self.seed,
            wall_seconds: self.wall_seconds,
        }
    }

    fn ad_mean(&self) -> f32 {
        self.ad.mean
    }
}

/// Runs shard-fault sweeps, sharing one clean reference fit per
/// (aggregator, repetition).
///
/// Like the other runners, each instance keeps its metrics and its
/// provenance (which shard was hit and where the flipped labels sat) in a
/// `RunLog`; [`ShardFaultRunner::manifest`] writes it out merged with
/// the process globals (including `aggregator_trims` and
/// `shard_worker_drops`).
#[derive(Default)]
pub struct ShardFaultRunner {
    log: RunLog,
}

impl ShardFaultRunner {
    /// Creates a runner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of sharded fits performed (the sharing regression guard: a
    /// sweep costs `aggregators × repetitions × (1 + faulty plans)` fits —
    /// clean plans reuse the reference fit).
    pub fn sharded_fits(&self) -> usize {
        self.log.metrics.counter("sharded_fits").get() as usize
    }

    /// Snapshot of this runner's private metrics.
    pub fn metrics_snapshot(&self) -> tdfm_obs::MetricsSnapshot {
        self.log.metrics.snapshot()
    }

    /// Runs the sweep, returning one result per (aggregator, plan) pair in
    /// aggregator-major order.
    ///
    /// Aggregators fan out across worker threads; each sharded fit inside
    /// a cell fans its shard workers out over the cell's inner budget.
    /// Output is deterministic in the sweep's seeds and byte-identical
    /// across `TDFM_THREADS` — see [`ShardFaultResult::normalize_timings`].
    ///
    /// # Panics
    ///
    /// Panics if the sweep has no aggregators, no plans, no repetitions or
    /// fewer than two workers.
    pub fn run_sweep(&self, sweep: &ShardFaultSweep) -> Vec<ShardFaultResult> {
        assert!(!sweep.aggregators.is_empty(), "sweep needs aggregators");
        assert!(!sweep.plans.is_empty(), "sweep needs shard-fault plans");
        assert!(sweep.repetitions > 0, "need at least one repetition");
        assert!(sweep.workers >= 2, "sharded training needs >= 2 workers");
        let per_aggregator = run_indexed(0..sweep.aggregators.len(), |a| {
            let kind = sweep.aggregators[a];
            let started = Instant::now();
            let results = self.run_aggregator(sweep, kind);
            self.log
                .metrics
                .histogram("aggregator_seconds")
                .record(started.elapsed());
            event!(
                Level::Info,
                "shard_fault_progress",
                aggregator = kind.name().as_str(),
                done = a + 1,
                total = sweep.aggregators.len()
            );
            results
        });
        per_aggregator.into_iter().flatten().collect()
    }

    /// Fits the clean reference once per repetition and scores every plan
    /// against it.
    fn run_aggregator(
        &self,
        sweep: &ShardFaultSweep,
        kind: AggregatorKind,
    ) -> Vec<ShardFaultResult> {
        let name = kind.name();
        let mut reps_per_plan: Vec<Vec<ShardFaultRepetition>> =
            vec![Vec::with_capacity(sweep.repetitions); sweep.plans.len()];
        let mut walls = vec![0.0f64; sweep.plans.len()];
        let mut prov_per_plan = vec![ProvenanceBuilder::new(); sweep.plans.len()];
        for r in 0..sweep.repetitions {
            let rep_seed = rep_seed(sweep.seed, r);
            let data = sweep.dataset.generate(sweep.scale, rep_seed);
            let shards = data.train.shards(sweep.workers);
            let shard_len = shards[0].len();
            let cfg = sharded_fit_config(sweep.scale, shard_len, rep_seed);
            let (c, h, w) = data.train.image_shape();
            let model_config = ModelConfig {
                in_shape: (c, h, w),
                classes: data.train.classes(),
                width: sweep.scale.model_width(),
                seed: rep_seed,
            };

            // Clean reference: same shards, same seeds, no fault. Shared by
            // every plan of this repetition.
            let (clean_train, clean_holdouts) = split_holdouts(&shards);
            self.log.metrics.counter("sharded_fits").inc();
            let mut agg = kind.build();
            let (mut clean_net, clean_report) =
                fit_sharded(sweep.model, &model_config, &clean_train, &cfg, agg.as_mut());
            let clean_preds = clean_net.predict(data.test.images(), EVAL_BATCH);
            let clean_accuracy = accuracy(&clean_preds, data.test.labels());

            for (p, plan) in sweep.plans.iter().enumerate() {
                let started = Instant::now();
                let rep = if plan.is_clean() {
                    let loc =
                        crate::detect::localize_faulty_shards(&mut clean_net, &clean_holdouts);
                    ShardFaultRepetition {
                        clean_accuracy,
                        faulty_accuracy: clean_accuracy,
                        accuracy_delta: 0.0,
                        suspect: loc.top() as u64,
                        suspect_score: loc.scores[loc.top()],
                        localizer_hit: false,
                        trimmed: clean_report.trimmed_contributions,
                        dropped: clean_report.dropped_contributions,
                    }
                } else {
                    let inject_seed = sweep.seed ^ rep_seed ^ ((p as u64) << 32);
                    let (faulty_shards, inj_report) = plan.apply(&shards, inject_seed);
                    prov_per_plan[p].extend(&inj_report.records);
                    let (faulty_train, faulty_holdouts) = split_holdouts(&faulty_shards);
                    self.log.metrics.counter("sharded_fits").inc();
                    let mut agg = kind.build();
                    let (mut net, report) = fit_sharded(
                        sweep.model,
                        &model_config,
                        &faulty_train,
                        &cfg,
                        agg.as_mut(),
                    );
                    let preds = net.predict(data.test.images(), EVAL_BATCH);
                    let loc = crate::detect::localize_faulty_shards(&mut net, &faulty_holdouts);
                    ShardFaultRepetition {
                        clean_accuracy,
                        faulty_accuracy: accuracy(&preds, data.test.labels()),
                        accuracy_delta: accuracy_delta(&clean_preds, &preds, data.test.labels()),
                        suspect: loc.top() as u64,
                        suspect_score: loc.scores[loc.top()],
                        localizer_hit: loc.top() == plan.shard,
                        trimmed: report.trimmed_contributions,
                        dropped: report.dropped_contributions,
                    }
                };
                walls[p] += started.elapsed().as_secs_f64();
                reps_per_plan[p].push(rep);
            }
        }
        for (plan, prov) in sweep.plans.iter().zip(&prov_per_plan) {
            self.log.add_provenance(
                sweep.dataset,
                sweep.model,
                &name,
                &plan.label(),
                &prov.records(),
            );
        }
        sweep
            .plans
            .iter()
            .zip(reps_per_plan)
            .zip(walls)
            .map(|((plan, reps), wall_seconds)| {
                let clean: Vec<f32> = reps.iter().map(|r| r.clean_accuracy).collect();
                let faulty: Vec<f32> = reps.iter().map(|r| r.faulty_accuracy).collect();
                let ad: Vec<f32> = reps.iter().map(|r| r.accuracy_delta).collect();
                let localization_hits = reps.iter().filter(|r| r.localizer_hit).count();
                ShardFaultResult {
                    dataset: sweep.dataset,
                    model: sweep.model,
                    aggregator: name.clone(),
                    workers: sweep.workers,
                    fault_label: plan.label(),
                    scale: sweep.scale,
                    seed: sweep.seed,
                    clean_accuracy: ConfidenceInterval::t95(&clean),
                    faulty_accuracy: ConfidenceInterval::t95(&faulty),
                    ad: ConfidenceInterval::t95(&ad),
                    localization_hits,
                    repetitions: reps,
                    wall_seconds,
                }
            })
            .collect()
    }

    /// The run manifest of a batch of sweep results, one cell per
    /// (aggregator, plan) pair; see [`crate::experiment::Runner::manifest`].
    pub fn manifest(&self, name: &str, results: &[ShardFaultResult]) -> RunManifest {
        self.log.manifest(name, results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use tdfm_nn::trainer::{fit, TargetSource};
    use tdfm_tensor::parallel::{num_threads, with_inner_threads};

    /// Synthetic per-worker gradients: two tensors per worker, values drawn
    /// from a seeded normal stream.
    fn synth_grads(workers: usize, seed: u64) -> Vec<Vec<Tensor>> {
        let mut rng = Rng::seed_from(seed);
        (0..workers)
            .map(|_| {
                vec![
                    Tensor::from_vec((0..6).map(|_| rng.normal()).collect(), &[2, 3]),
                    Tensor::from_vec((0..4).map(|_| rng.normal()).collect(), &[4]),
                ]
            })
            .collect()
    }

    fn as_worker_grads(grads: &[Vec<Tensor>]) -> Vec<WorkerGrads<'_>> {
        grads
            .iter()
            .enumerate()
            .map(|(worker, g)| WorkerGrads { worker, grads: g })
            .collect()
    }

    fn bits(tensors: &[Tensor]) -> Vec<Vec<u32>> {
        tensors
            .iter()
            .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// The per-coordinate reduction the sorting network replaced: gather
    /// each coordinate's worker values, sort them with `total_cmp`, fold.
    fn reference_reduce(sets: &[&[Tensor]], reduce: impl Fn(&[f32]) -> f32) -> Vec<Tensor> {
        let mut buf = vec![0.0f32; sets.len()];
        (0..sets[0].len())
            .map(|p| {
                let mut out = Tensor::zeros(sets[0][p].shape().dims());
                for (c, slot) in out.data_mut().iter_mut().enumerate() {
                    for (v, set) in buf.iter_mut().zip(sets) {
                        *v = set[p].data()[c];
                    }
                    buf.sort_unstable_by(|a, b| a.total_cmp(b));
                    *slot = reduce(&buf);
                }
                out
            })
            .collect()
    }

    fn reference_trimmed_mean(sets: &[&[Tensor]], t: usize) -> Vec<Tensor> {
        reference_reduce(sets, |sorted| {
            let kept = &sorted[t..sorted.len() - t];
            kept.iter().fold(0.0f32, |acc, &v| acc + v) / kept.len() as f32
        })
    }

    fn reference_median(sets: &[&[Tensor]]) -> Vec<Tensor> {
        reference_reduce(sets, |sorted| {
            let m = sorted.len() / 2;
            if sorted.len() % 2 == 1 {
                sorted[m]
            } else {
                (sorted[m - 1] + sorted[m]) / 2.0
            }
        })
    }

    /// Values that stress the ordering: signed zeros, repeats, subnormals,
    /// ±MAX and infinities (the generator also negates them).
    const STRESS: [f32; 8] = [
        0.0,
        1.0,
        f32::MAX,
        1e-40,
        f32::MIN_POSITIVE,
        f32::INFINITY,
        0.5,
        // The last entry only joins when NaNs are asked for.
        f32::NAN,
    ];

    const STRESS_LENS: [usize; 5] = [1, BLOCK - 1, BLOCK, BLOCK + 1, 2051];

    /// Per-worker gradients over tensors of [`STRESS_LENS`] elements:
    /// mixed-sign normals interleaved with [`STRESS`] values of both signs,
    /// NaNs included only when `nans` is set.
    fn stress_grads(workers: usize, seed: u64, nans: bool) -> Vec<Vec<Tensor>> {
        let palette = &STRESS[..STRESS.len() - usize::from(!nans)];
        let mut rng = Rng::seed_from(seed);
        (0..workers)
            .map(|_| {
                STRESS_LENS
                    .iter()
                    .map(|&len| {
                        let values = (0..len).map(|_| match rng.below(3) {
                            0 => rng.normal(),
                            1 => palette[rng.below(palette.len())],
                            _ => -palette[rng.below(palette.len())],
                        });
                        Tensor::from_vec(values.collect(), &[len])
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn sorting_network_matches_the_per_coordinate_sort_bit_for_bit() {
        for n in 1..=9 {
            // Rank rows are pure data movement, so they must match the
            // total_cmp sort even through NaNs of either sign.
            let grads = stress_grads(n, 40 + n as u64, true);
            let workers = as_worker_grads(&grads);
            let sets = grad_sets(&workers);
            for r in 0..n {
                let rank = sorted_reduce(&sets, |ranks, out| {
                    for (o, v) in out.iter_mut().zip(ranks.row(r)) {
                        *o = v;
                    }
                });
                let reference = reference_reduce(&sets, |sorted| sorted[r]);
                assert_eq!(bits(&rank), bits(&reference), "rank {r} of {n}");
            }
            // Reducers do arithmetic, and Rust leaves the sign and payload
            // of a NaN result unspecified; non-finite gradients never reach
            // an aggregator in `fit_sharded`, so NaN inputs stay out here.
            let grads = stress_grads(n, 50 + n as u64, false);
            let workers = as_worker_grads(&grads);
            let sets = grad_sets(&workers);
            assert_eq!(
                bits(&Mean.aggregate(&workers).grads),
                bits(&reference_trimmed_mean(&sets, 0)),
                "Mean over {n} workers"
            );
            for f in 0..=3 {
                let t = f.min((n - 1) / 2);
                assert_eq!(
                    bits(&TrimmedMean { f }.aggregate(&workers).grads),
                    bits(&reference_trimmed_mean(&sets, t)),
                    "TrimmedMean(f={f}) over {n} workers"
                );
            }
            assert_eq!(
                bits(&Median.aggregate(&workers).grads),
                bits(&reference_median(&sets)),
                "Median over {n} workers"
            );
        }
    }

    #[test]
    fn ctma_over_the_network_matches_ctma_over_the_per_coordinate_sort() {
        for n in 2..=9 {
            let mut fast = Ctma::new(1);
            let mut reference = Ctma::new(1);
            for round in 0..3u64 {
                let grads = stress_grads(n, 80 + 10 * n as u64 + round, false);
                let mut workers = as_worker_grads(&grads);
                if round == 1 {
                    // Screened out this round; its momentum must carry over.
                    workers.remove(n / 2);
                }
                let a = fast.aggregate(&workers);
                let b = reference.round(&workers, reference_trimmed_mean);
                assert_eq!(bits(&a.grads), bits(&b.grads), "round {round}, {n} workers");
                assert_eq!(a.trimmed, b.trimmed);
            }
        }
    }

    #[test]
    fn every_aggregator_is_permutation_invariant_over_worker_order() {
        let kinds = AggregatorKind::standard_set();
        // Three rounds so CTMA's per-worker momentum is exercised too.
        let rounds: Vec<Vec<Vec<Tensor>>> =
            (0..3).map(|r| synth_grads(5, 100 + r as u64)).collect();
        // An adversarial shuffle of slice positions (worker ids ride along).
        let perm = [3usize, 0, 4, 1, 2];
        for kind in kinds {
            let mut forward = kind.build();
            let mut shuffled = kind.build();
            for round in &rounds {
                let ordered = as_worker_grads(round);
                let permuted: Vec<WorkerGrads<'_>> = perm
                    .iter()
                    .map(|&i| WorkerGrads {
                        worker: i,
                        grads: &round[i],
                    })
                    .collect();
                let a = forward.aggregate(&ordered);
                let b = shuffled.aggregate(&permuted);
                assert_eq!(
                    bits(&a.grads),
                    bits(&b.grads),
                    "{} is order-sensitive",
                    kind.name()
                );
                assert_eq!(a.trimmed, b.trimmed);
            }
        }
    }

    #[test]
    fn trimmed_mean_with_zero_f_equals_mean_bit_exactly() {
        let grads = synth_grads(6, 7);
        let workers = as_worker_grads(&grads);
        let mean = Mean.aggregate(&workers);
        let trimmed = TrimmedMean { f: 0 }.aggregate(&workers);
        assert_eq!(bits(&mean.grads), bits(&trimmed.grads));
        assert_eq!(trimmed.trimmed, 0);
    }

    #[test]
    fn robust_aggregators_bound_a_byzantine_worker() {
        // One worker reports a huge gradient; the robust rules must stay
        // near the honest consensus while the mean is dragged away.
        let mut grads = synth_grads(5, 8);
        for t in &mut grads[4] {
            for v in t.data_mut() {
                *v = 1000.0;
            }
        }
        let workers = as_worker_grads(&grads);
        let honest = as_worker_grads(&grads[..4]);
        let honest_mean = Mean.aggregate(&honest).grads;
        let mean = Mean.aggregate(&workers).grads;
        let tm = TrimmedMean { f: 1 }.aggregate(&workers);
        let med = Median.aggregate(&workers).grads;
        let ctma = Ctma::new(1).aggregate(&workers);
        let max_dev = |a: &[Tensor], b: &[Tensor]| {
            a.iter()
                .zip(b)
                .flat_map(|(x, y)| x.data().iter().zip(y.data()).map(|(p, q)| (p - q).abs()))
                .fold(0.0f32, |m, d| if d > m || d.is_nan() { d } else { m })
        };
        assert!(max_dev(&mean, &honest_mean) > 50.0, "mean must be dragged");
        assert!(max_dev(&tm.grads, &honest_mean) < 2.0);
        assert!(max_dev(&med, &honest_mean) < 2.0);
        // CTMA averages momenta (scaled by 1-beta), so compare direction:
        // no coordinate may carry the Byzantine magnitude.
        assert!(
            ctma.grads
                .iter()
                .flat_map(|t| t.data())
                .all(|v| v.abs() < 10.0),
            "CTMA leaked the Byzantine gradient"
        );
        assert_eq!(tm.trimmed, 2);
        assert_eq!(ctma.trimmed, 1);
    }

    fn tiny_shards(workers: usize, seed: u64) -> (Vec<LabeledDataset>, LabeledDataset) {
        // Smoke-scale Pneumonia: 64 training samples, enough for
        // non-degenerate shards and holdouts.
        let tt = DatasetKind::Pneumonia.generate(Scale::Smoke, seed);
        (tt.train.shards(workers), tt.test)
    }

    fn quick_cfg(seed: u64) -> FitConfig {
        FitConfig {
            epochs: 6,
            batch_size: 4,
            shuffle_seed: seed,
            ..FitConfig::default()
        }
    }

    fn tiny_model_config(shards: &[LabeledDataset], seed: u64) -> ModelConfig {
        let (c, h, w) = shards[0].image_shape();
        ModelConfig {
            in_shape: (c, h, w),
            classes: shards[0].classes(),
            width: 2,
            seed,
        }
    }

    fn param_bits(net: &mut Network) -> Vec<Vec<u32>> {
        net.params_mut()
            .iter()
            .map(|p| p.value.data().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn sharded_training_learns_and_replicas_stay_in_lockstep() {
        let (shards, test) = tiny_shards(4, 20);
        let config = tiny_model_config(&shards, 21);
        let mut agg = Mean;
        let (mut replicas, report) = fit_replicas(
            ModelKind::ConvNet,
            &config,
            &shards,
            &quick_cfg(21),
            &mut agg,
        );
        let lead = param_bits(&mut replicas[0]);
        for (w, replica) in replicas.iter_mut().enumerate().skip(1) {
            assert!(param_bits(replica) == lead, "replica {w} diverged");
        }
        let net = &mut replicas[0];
        assert_eq!(report.epoch_losses.len(), 6);
        assert!(
            report.epoch_losses.last().unwrap() < &report.epoch_losses[0],
            "losses {:?}",
            report.epoch_losses
        );
        assert_eq!(report.rounds, 6 * 4); // 16-sample shards, batch 4
        assert_eq!(report.worker_walls.len(), 4);
        assert_eq!(report.dropped_contributions, 0);
        let acc = accuracy(&net.predict(test.images(), EVAL_BATCH), test.labels());
        assert!(acc > 0.55, "accuracy {acc}");
    }

    #[test]
    fn one_worker_mean_returns_the_export_with_negative_zero_made_positive() {
        let (shards, _) = tiny_shards(1, 30);
        let config = tiny_model_config(&shards, 31);
        let mut net = ModelKind::ConvNet.build(&config);
        let images = shards[0].images().slice_rows(0, 8);
        let labels = &shards[0].labels()[..8];
        let mut export =
            export_batch_gradients(&mut net, &CrossEntropy, &images, &Target::Hard(labels));
        // Layers accumulate onto a gradient zeroed to +0.0, and +0.0 + g is
        // never -0.0, so an export carries no -0.0 of its own. Plant some
        // to pin down what the fold from 0.0 does with them.
        let is_negative_zero = |v: f32| v.to_bits() == (-0.0f32).to_bits();
        assert!(!export
            .grads
            .iter()
            .flat_map(|g| g.data())
            .any(|&v| is_negative_zero(v)));
        for g in &mut export.grads {
            g.data_mut()[0] = -0.0;
        }
        let mean = Mean.aggregate(&[WorkerGrads {
            worker: 0,
            grads: &export.grads,
        }]);
        for (got, exported) in mean.grads.iter().zip(&export.grads) {
            for (&g, &e) in got.data().iter().zip(exported.data()) {
                let expected = if is_negative_zero(e) { 0.0 } else { e };
                assert_eq!(g.to_bits(), expected.to_bits());
            }
        }
    }

    #[test]
    fn one_shard_mean_trains_like_fit_once_the_batch_orders_agree() {
        // `fit` shuffles with `shuffle_seed ^ 0xF17_5EED`; `fit_sharded`
        // derives each worker's order from `shuffle_seed ^ 0x5_4A2D`. Give
        // the single worker `fit`'s order and the two runs must agree bit
        // for bit: the export/aggregate round trip changes nothing else.
        let (shards, _) = tiny_shards(1, 32);
        let config = tiny_model_config(&shards, 33);
        let cfg = quick_cfg(33);
        let mut local = ModelKind::ConvNet.build(&config);
        let labels = TargetSource::Hard(shards[0].labels().to_vec());
        let fitted = fit(&mut local, &CrossEntropy, shards[0].images(), &labels, &cfg);
        let mut agg = Mean;
        let mut source = Sharded {
            shards: &shards,
            workers: vec![Worker {
                net: ModelKind::ConvNet.build(&config),
                batches: Batches::new(
                    shards[0].len(),
                    cfg.batch_size,
                    Rng::seed_from(cfg.shuffle_seed ^ 0xF17_5EED),
                ),
                state: StateSnapshot::default(),
                wall: Duration::ZERO,
            }],
            aggregator: &mut agg,
            epoch: 0,
            report: ShardedFitReport::default(),
        };
        let sharded = train(&mut source, &cfg, NonFinitePolicy::Drop);
        assert_eq!(fitted.epoch_losses, sharded.epoch_losses);
        assert!(param_bits(&mut local) == param_bits(source.net()));
        // With its own batch order the sharded run trains differently.
        let (mut own, _) = fit_sharded(ModelKind::ConvNet, &config, &shards, &cfg, &mut Mean);
        assert!(param_bits(&mut local) != param_bits(&mut own));
    }

    #[test]
    fn sharded_training_is_byte_identical_across_thread_budgets() {
        // The shards' images are scaled by 1000, 1, 100 and 10, so the
        // workers' losses differ by orders of magnitude and summing them in
        // another order than the fixed one changes the epoch losses' bits.
        // A round-loss sum in `HashMap` order changes them in about nine of
        // ten runs, so three budgets are compared with the first.
        let (shards, _) = tiny_shards(4, 22);
        let shards: Vec<LabeledDataset> = shards
            .iter()
            .zip([1000.0, 1.0, 100.0, 10.0])
            .map(|(s, scale)| {
                let mut images = s.images().clone();
                images.data_mut().iter_mut().for_each(|v| *v *= scale);
                LabeledDataset::new(images, s.labels().to_vec(), s.classes())
            })
            .collect();
        let config = tiny_model_config(&shards, 23);
        let run = |threads: usize| {
            with_inner_threads(threads, || {
                let mut agg = TrimmedMean { f: 1 };
                let (mut net, report) = fit_sharded(
                    ModelKind::ConvNet,
                    &config,
                    &shards,
                    &quick_cfg(23),
                    &mut agg,
                );
                let weights = param_bits(&mut net);
                let losses: Vec<u32> = report.epoch_losses.iter().map(|l| l.to_bits()).collect();
                (weights, losses)
            })
        };
        let want = run(1);
        for threads in 2..=4 {
            assert!(run(threads) == want, "{threads} threads differ from 1");
        }
    }

    #[test]
    fn nan_gradient_shard_is_dropped_not_aggregated() {
        // Shard 2's images carry a NaN, so its every gradient export is
        // non-finite: the trainer must drop that worker's contribution each
        // round (PR 5's drop-batch semantics) and keep the model finite.
        let (mut shards, _) = tiny_shards(4, 24);
        let mut poisoned = shards[2].images().clone();
        for v in poisoned.data_mut() {
            *v = f32::NAN;
        }
        shards[2] = LabeledDataset::new(poisoned, shards[2].labels().to_vec(), shards[2].classes());
        let config = tiny_model_config(&shards, 25);
        let mut agg = Mean;
        let (mut net, report) = fit_sharded(
            ModelKind::ConvNet,
            &config,
            &shards,
            &quick_cfg(25),
            &mut agg,
        );
        assert_eq!(
            report.dropped_contributions as usize, report.rounds,
            "shard 2 must be dropped every round"
        );
        assert_eq!(report.skipped_rounds, 0, "three workers keep training");
        assert!(net
            .params_mut()
            .iter()
            .all(|p| p.value.data().iter().all(|v| v.is_finite())));
    }

    #[test]
    fn all_nan_shards_skip_every_round_and_keep_the_initial_weights() {
        // No worker ever contributes a finite gradient, so every round is
        // skipped and the returned model is the untouched initialisation.
        let (shards, _) = tiny_shards(4, 28);
        let shards: Vec<LabeledDataset> = shards
            .iter()
            .map(|s| {
                let mut images = s.images().clone();
                images.data_mut().fill(f32::NAN);
                LabeledDataset::new(images, s.labels().to_vec(), s.classes())
            })
            .collect();
        let config = tiny_model_config(&shards, 29);
        let initial = param_bits(&mut ModelKind::ConvNet.build(&config));
        let mut agg = Mean;
        let (mut net, report) = fit_sharded(
            ModelKind::ConvNet,
            &config,
            &shards,
            &quick_cfg(29),
            &mut agg,
        );
        assert_eq!(report.rounds, 0);
        assert_eq!(report.skipped_rounds, 6 * 4, "16-sample shards, batch 4");
        assert_eq!(report.dropped_contributions, 6 * 4 * 4);
        assert!(param_bits(&mut net) == initial, "weights moved");
    }

    #[test]
    fn every_replica_starts_as_the_models_fresh_build() {
        // With every round skipped no replica is ever stepped or synced,
        // so each one still holds the initialisation it was given.
        let (shards, _) = tiny_shards(4, 34);
        let shards: Vec<LabeledDataset> = shards
            .iter()
            .map(|s| {
                let mut images = s.images().clone();
                images.data_mut().fill(f32::NAN);
                LabeledDataset::new(images, s.labels().to_vec(), s.classes())
            })
            .collect();
        let config = tiny_model_config(&shards, 35);
        let initial = param_bits(&mut ModelKind::ConvNet.build(&config));
        let (mut replicas, _) = fit_replicas(
            ModelKind::ConvNet,
            &config,
            &shards,
            &quick_cfg(35),
            &mut Mean,
        );
        for (w, replica) in replicas.iter_mut().enumerate() {
            assert!(param_bits(replica) == initial, "replica {w}");
        }
    }

    #[test]
    fn shard_worker_fanout_never_exceeds_the_thread_budget() {
        // Regression guard for the two-level budget: shard workers spawned
        // inside a grid cell must divide the cell's `with_inner_threads`
        // budget, not multiply `TDFM_THREADS`.
        with_inner_threads(3, || {
            let live = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            run_indexed(0..12, |_| {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                // Inside a worker the residual budget is 3 / 3 = 1: the
                // worker's own parallel tensor ops stay single-threaded.
                assert_eq!(num_threads(), 1);
                std::thread::sleep(Duration::from_millis(2));
                live.fetch_sub(1, Ordering::SeqCst);
            });
            let peak = peak.load(Ordering::SeqCst);
            assert!(peak <= 3, "{peak} live workers exceeded the budget of 3");
        });
    }

    #[test]
    fn localizer_fingers_the_injected_shard() {
        // Seeded end-to-end check: pair-flip every label of shard 1, train
        // with a robust aggregator, and the held-out disagreement ranking
        // must put shard 1 first.
        let (shards, _) = tiny_shards(4, 26);
        let plan = ShardFaultPlan::pair_flip(1, 100.0);
        let (faulty, _) = plan.apply(&shards, 27);
        let (train, holdouts) = split_holdouts(&faulty);
        let config = tiny_model_config(&shards, 27);
        let mut agg = TrimmedMean { f: 1 };
        let (mut net, _) = fit_sharded(
            ModelKind::ConvNet,
            &config,
            &train,
            &quick_cfg(27),
            &mut agg,
        );
        let report = crate::detect::localize_faulty_shards(&mut net, &holdouts);
        assert_eq!(report.top(), 1, "scores {:?}", report.scores);
    }

    fn tiny_sweep(aggregators: Vec<AggregatorKind>, plans: Vec<ShardFaultPlan>) -> ShardFaultSweep {
        ShardFaultSweep {
            dataset: DatasetKind::Pneumonia,
            model: ModelKind::ConvNet,
            aggregators,
            plans,
            workers: 4,
            scale: Scale::Tiny,
            repetitions: 1,
            seed: 33,
        }
    }

    #[test]
    fn sweep_is_aggregator_major_and_shares_clean_fits() {
        let runner = ShardFaultRunner::new();
        let plans = vec![ShardFaultPlan::clean(), ShardFaultPlan::mislabel(1, 50.0)];
        let sweep = tiny_sweep(
            vec![AggregatorKind::Mean, AggregatorKind::TrimmedMean { f: 1 }],
            plans.clone(),
        );
        let results = runner.run_sweep(&sweep);
        assert_eq!(results.len(), 4);
        assert_eq!(results[0].aggregator, "Mean");
        assert_eq!(results[0].fault_label, "clean");
        assert_eq!(results[1].fault_label, plans[1].label());
        assert_eq!(results[2].aggregator, "TrimmedMean(f=1)");
        // One clean reference + one faulted fit per aggregator.
        assert_eq!(runner.sharded_fits(), 4);
        for result in &results {
            assert_eq!(result.repetitions.len(), 1);
            assert!((0.0..=1.0).contains(&result.clean_accuracy.mean));
            assert!((-1.0..=1.0).contains(&result.ad.mean));
        }
        // Clean cells report AD exactly 0 against their own reference.
        assert_eq!(results[0].ad.mean, 0.0);
        assert_eq!(results[0].localization_hits, 0);
    }

    #[test]
    fn sweeps_are_deterministic() {
        let sweep = tiny_sweep(
            vec![AggregatorKind::Ctma { f: 1 }],
            vec![ShardFaultPlan::pair_flip(2, 50.0)],
        );
        let run = || {
            let mut results = ShardFaultRunner::new().run_sweep(&sweep);
            for r in &mut results {
                r.normalize_timings();
            }
            tdfm_json::to_string_pretty(&results)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn provenance_of_sweeps_differing_only_in_model_stays_apart() {
        let sweep = |model| ShardFaultSweep {
            model,
            ..tiny_sweep(
                vec![AggregatorKind::Mean],
                vec![ShardFaultPlan::mislabel(1, 50.0)],
            )
        };
        let alone = ShardFaultRunner::new();
        let expected = alone
            .manifest("unit", &alone.run_sweep(&sweep(ModelKind::ConvNet)))
            .provenance;
        assert!(!expected.is_empty());

        let runner = ShardFaultRunner::new();
        let first = runner.run_sweep(&sweep(ModelKind::ConvNet));
        runner.run_sweep(&sweep(ModelKind::DeconvNet));
        let manifest = runner.manifest("unit", &first);
        assert_eq!(
            manifest.provenance, expected,
            "cell 0 sums only its own sweep"
        );
    }

    #[test]
    fn manifest_names_the_shard_in_provenance_and_round_trips() {
        let runner = ShardFaultRunner::new();
        let sweep = tiny_sweep(
            vec![AggregatorKind::Median],
            vec![ShardFaultPlan::clean(), ShardFaultPlan::mislabel(2, 50.0)],
        );
        let results = runner.run_sweep(&sweep);
        let json = tdfm_json::to_string_pretty(&results);
        let back: Vec<ShardFaultResult> = tdfm_json::from_str(&json).unwrap();
        assert_eq!(back.len(), results.len());
        assert_eq!(back[1].fault_label, results[1].fault_label);
        assert_eq!(back[1].ad.mean, results[1].ad.mean);

        let manifest = runner.manifest("unit", &results);
        assert_eq!(manifest.name, "unit");
        assert_eq!(manifest.scale, "tiny");
        assert_eq!(manifest.cells.len(), 2);
        assert_eq!(manifest.cells[0].technique, "Median");
        assert_eq!(manifest.cells[1].fault, "shard 2: Mislabelling 50%");
        // Provenance: only the faulty cell has records, targeting shard 2.
        assert!(!manifest.provenance.is_empty());
        assert!(manifest
            .provenance
            .iter()
            .all(|r| r.cell == 1 && r.source == "data" && r.target == "shard 2"));
        assert_eq!(
            manifest.provenance.iter().map(|r| r.count).sum::<u64>(),
            results[1].repetitions.len() as u64 * 3 // 50% of a 6-sample shard
        );
        // One clean reference fit plus one faulted fit; the clean plan
        // reuses the reference.
        assert_eq!(manifest.metrics.counter("sharded_fits"), Some(2));
    }
}
