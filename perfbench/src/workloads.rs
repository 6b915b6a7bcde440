//! The three workloads: fixed, deterministic rotations of short units,
//! each unit one call chain into the public API of the stack.
//!
//! * `grid-gtsrb` — data-fault training cells (inject, fit, predict, AD).
//! * `campaign-cifar` — model-fault inference trials on one clean model.
//! * `sharded-cifar` — short robust-aggregation sharded fits.
//!
//! Inputs depend on the run's seed only through a small set of data
//! variants (`seed % VARIANTS`), so every unit's output can be pinned.

use crate::trace::Tracer;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tdfm_core::distributed::{fit_sharded, AggregatorKind};
use tdfm_core::metrics::accuracy_delta;
use tdfm_core::technique::{FittedModel, TechniqueKind, TrainContext, EVAL_BATCH};
use tdfm_data::{DatasetKind, LabeledDataset, Scale};
use tdfm_inject::model::{
    apply_weight_faults, counting_activation_hook, BitRange, FaultSite, InjectionMode,
    ModelFaultPlan,
};
use tdfm_inject::{split_clean, FaultKind, FaultPlan, Injector, ShardFaultPlan};
use tdfm_nn::models::{ModelConfig, ModelKind};
use tdfm_nn::trainer::FitConfig;
use tdfm_nn::Network;

/// Number of data variants a seed can select; pins cover each of them.
pub const VARIANTS: u64 = 4;

/// Every workload operates at the study's smoke scale (8x8 images,
/// width-4 models).
pub const SCALE: Scale = Scale::Smoke;

/// Training samples in a grid cell's slice (one batch of 32).
pub const GRID_TRAIN: usize = 32;
/// Test samples a grid cell predicts (one evaluation batch).
pub const GRID_TEST: usize = 64;
/// Epochs of a grid cell's training run.
pub const GRID_EPOCHS: usize = 1;
/// Mislabelling rate injected into every grid cell, percent.
pub const GRID_FAULT_PERCENT: f32 = 30.0;
/// Training samples of a cell on a deep architecture (see [`is_deep`]):
/// a quarter of [`GRID_TRAIN`], so that these cells, too, take a few
/// milliseconds.
pub const DEEP_TRAIN: usize = 8;
/// Test samples a cell on a deep architecture predicts.
pub const DEEP_TEST: usize = 16;

/// The architectures whose grid cells train and predict on the smaller
/// [`DEEP_TRAIN`] / [`DEEP_TEST`] slices. At the full slices their cells
/// took 9-25 ms, while only the minimum of millisecond units repeats well
/// across runs on a shared host (see README.md).
pub fn is_deep(model: ModelKind) -> bool {
    matches!(
        model,
        ModelKind::Vgg11 | ModelKind::Vgg16 | ModelKind::ResNet18 | ModelKind::ResNet50
    )
}

/// Training samples of the campaign's clean model. Kept small so that the
/// clean fit, timed as one set-up stage, takes a few milliseconds.
pub const CAMPAIGN_TRAIN: usize = 128;
/// Epochs of the campaign's clean fit.
pub const CAMPAIGN_EPOCHS: usize = 2;

/// Workers (shards) of a sharded fit.
pub const SHARDS: usize = 8;
/// Samples per shard.
pub const SHARD_SAMPLES: usize = 16;
/// Mini-batch per worker in a sharded fit.
pub const SHARD_BATCH: usize = 8;
/// Epochs of a sharded fit.
pub const SHARD_EPOCHS: usize = 1;
/// The mislabelled shard and its fault rate, percent.
pub const VICTIM_SHARD: usize = 3;
/// Mislabelling rate of the victim shard, percent.
pub const SHARD_FAULT_PERCENT: f32 = 30.0;

/// Data seed of variant `v`.
pub fn data_seed(variant: u64) -> u64 {
    0x7D_F500 + variant
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Data-fault training cells on the GTSRB analogue.
    Grid,
    /// Model-fault inference trials on the CIFAR-10 analogue.
    Campaign,
    /// Sharded robust-aggregation training on the CIFAR-10 analogue.
    Sharded,
}

impl Kind {
    /// Every workload, in the order the traced run visits them.
    pub const ALL: [Kind; 3] = [Kind::Grid, Kind::Campaign, Kind::Sharded];

    /// The workload's command-line and metric name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Grid => "grid-gtsrb",
            Kind::Campaign => "campaign-cifar",
            Kind::Sharded => "sharded-cifar",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// What one unit of throughput is on this workload.
    pub fn work_name(self) -> &'static str {
        match self {
            Kind::Grid => "cells",
            Kind::Campaign => "trials",
            Kind::Sharded => "rounds",
        }
    }

    /// Builds the workload's inputs for `variant`, timing each stage.
    pub fn setup(self, variant: u64, stages: &mut Stages) -> Box<dyn Workload> {
        match self {
            Kind::Grid => Box::new(Grid::setup(variant, stages)),
            Kind::Campaign => Box::new(Campaign::setup(variant, stages)),
            Kind::Sharded => Box::new(Sharded::setup(variant, stages)),
        }
    }
}

/// Wall time of each set-up stage, in the order they ran.
#[derive(Debug, Default, Clone)]
pub struct Stages(pub Vec<(String, f64)>);

impl Stages {
    /// Runs `f` as stage `name`, recording its wall time.
    pub fn time<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> T {
        let start = crate::clock();
        let out = f();
        self.0.push((name.into(), start.elapsed().as_secs_f64()));
        out
    }
}

/// What one unit produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitOutput {
    /// Digest of the unit's outputs, compared with the pinned value.
    pub digest: u64,
    /// Throughput work done: 1 cell, 1 trial, or the aggregation rounds.
    pub work: u64,
    /// Faults injected by the unit: labels flipped or bits flipped.
    pub faults: u64,
}

/// A rotation of units.
pub trait Workload {
    /// One label per rotation position.
    fn labels(&self) -> Vec<String>;

    /// Runs the unit at `pos`, wrapping each layer call in a span.
    fn run(&mut self, pos: usize, tr: &Tracer) -> UnitOutput;

    /// Checks state the units must leave untouched (outside the timing).
    fn state_ok(&mut self) -> bool {
        true
    }
}

/// FNV-1a over the outputs a unit produces.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes in one 32-bit word.
    pub fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mixes in class predictions.
    pub fn labels(&mut self, v: &[u32]) {
        v.iter().for_each(|&w| self.word(w));
    }

    /// Mixes in the exact bits of floats.
    pub fn floats(&mut self, v: &[f32]) {
        v.iter().for_each(|f| self.word(f.to_bits()));
    }

    /// Mixes in every parameter of a network, in `params_mut` order.
    pub fn params(&mut self, net: &mut Network) {
        for p in net.params_mut() {
            self.floats(p.value.data());
        }
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The grid's rotation: the paper's techniques on ConvNet, then the
/// baseline on each other architecture.
pub const GRID: [(TechniqueKind, ModelKind); 12] = [
    (TechniqueKind::Baseline, ModelKind::ConvNet),
    (TechniqueKind::LabelSmoothing, ModelKind::ConvNet),
    (TechniqueKind::LabelCorrection, ModelKind::ConvNet),
    (TechniqueKind::RobustLoss, ModelKind::ConvNet),
    (TechniqueKind::KnowledgeDistillation, ModelKind::ConvNet),
    (TechniqueKind::FaultAwareTraining, ModelKind::ConvNet),
    (TechniqueKind::Baseline, ModelKind::DeconvNet),
    (TechniqueKind::Baseline, ModelKind::Vgg11),
    (TechniqueKind::Baseline, ModelKind::Vgg16),
    (TechniqueKind::Baseline, ModelKind::ResNet18),
    (TechniqueKind::Baseline, ModelKind::ResNet50),
    (TechniqueKind::Baseline, ModelKind::MobileNet),
];

/// Label of a grid position, e.g. `LS.ConvNet`.
pub fn grid_label(tech: TechniqueKind, model: ModelKind) -> String {
    format!("{}.{}", tech.abbrev(), model.name())
}

/// A context training for [`GRID_EPOCHS`] with the scale's defaults.
pub fn grid_context(seed: u64) -> TrainContext {
    let mut ctx = TrainContext::new(SCALE, seed);
    ctx.fit.epochs = GRID_EPOCHS;
    ctx
}

fn model_slot(model: ModelKind) -> usize {
    ModelKind::ALL
        .iter()
        .position(|&m| m == model)
        .expect("every model is in ModelKind::ALL")
}

/// `grid-gtsrb`: one data-fault training cell per unit.
pub struct Grid {
    /// The clean training slice.
    pub train: LabeledDataset,
    /// Label correction's reserved clean subset and the remainder.
    pub clean_split: (LabeledDataset, LabeledDataset),
    /// The test slice.
    pub test: LabeledDataset,
    /// The training and test slices of the deep architectures.
    pub deep: (LabeledDataset, LabeledDataset),
    golden: Vec<Vec<u32>>,
    contexts: Vec<TrainContext>,
    seed: u64,
}

impl Grid {
    /// Generates the GTSRB analogue, slices it and trains a golden model
    /// per architecture.
    pub fn setup(variant: u64, stages: &mut Stages) -> Self {
        let seed = data_seed(variant);
        let data = stages.time("data.generate", || DatasetKind::Gtsrb.generate(SCALE, seed));
        let (train, test, clean_split, deep) = stages.time("slice", || {
            let first = |d: &LabeledDataset, n: usize| d.select(&(0..n).collect::<Vec<_>>());
            let train = first(&data.train, GRID_TRAIN);
            let test = first(&data.test, GRID_TEST);
            let split = split_clean(&train, 0.1, seed ^ 0xC1EA);
            let deep = (first(&train, DEEP_TRAIN), first(&test, DEEP_TEST));
            (train, test, split, deep)
        });
        let ctx = grid_context(seed);
        let golden = ModelKind::ALL
            .iter()
            .map(|&m| {
                let (train, test) = if is_deep(m) {
                    (&deep.0, &deep.1)
                } else {
                    (&train, &test)
                };
                stages.time(format!("golden.{}", m.name()), || {
                    let mut fitted = TechniqueKind::Baseline.build().fit(m, train, &ctx);
                    fitted.predict(test.images())
                })
            })
            .collect();
        let contexts = (0..GRID.len())
            .map(|pos| {
                let mut ctx = grid_context(seed ^ ((pos as u64 + 1) << 8));
                if GRID[pos].0.build().wants_clean_subset() {
                    ctx.clean_subset = Some(clean_split.0.clone());
                }
                ctx
            })
            .collect();
        Self {
            train,
            clean_split,
            test,
            deep,
            golden,
            contexts,
            seed,
        }
    }
}

impl Workload for Grid {
    fn labels(&self) -> Vec<String> {
        GRID.iter().map(|&(t, m)| grid_label(t, m)).collect()
    }

    fn run(&mut self, pos: usize, tr: &Tracer) -> UnitOutput {
        let (tech, model) = GRID[pos];
        let ctx = &self.contexts[pos];
        let mitigation = tech.build();
        let (source, test) = if ctx.clean_subset.is_some() {
            (&self.clean_split.1, &self.test)
        } else if is_deep(model) {
            (&self.deep.0, &self.deep.1)
        } else {
            (&self.train, &self.test)
        };
        let plan = FaultPlan::single(FaultKind::Mislabelling, GRID_FAULT_PERCENT);
        let injector = Injector::new(self.seed ^ pos as u64);
        let (faulty, report) = tr.span("inject.apply", || injector.apply(source, &plan));
        let mut fitted = tr.span("core.fit", || mitigation.fit(model, &faulty, ctx));
        let preds = tr.span("core.predict", || fitted.predict(test.images()));
        let golden = &self.golden[model_slot(model)];
        let ad = tr.span("core.accuracy_delta", || {
            accuracy_delta(golden, &preds, test.labels())
        });
        let mut d = Digest::default();
        d.labels(&preds);
        d.floats(&[ad]);
        UnitOutput {
            digest: d.finish(),
            work: 1,
            faults: report.mislabelled as u64,
        }
    }
}

/// The campaign's fault plans: mantissa, exponent, sign and full-width
/// bit ranges on weights and on activations, each with a fixed seed.
pub fn campaign_plans() -> Vec<ModelFaultPlan> {
    let sign = BitRange::new(31, 31);
    let spec = [
        (FaultSite::Weights, BitRange::MANTISSA, 4),
        (FaultSite::Weights, BitRange::EXPONENT, 1),
        (FaultSite::Weights, sign, 4),
        (FaultSite::Weights, BitRange::FULL, 16),
        (FaultSite::Activations, BitRange::MANTISSA, 4),
        (FaultSite::Activations, BitRange::EXPONENT, 1),
        (FaultSite::Activations, sign, 4),
        (FaultSite::Activations, BitRange::FULL, 2),
    ];
    spec.iter()
        .enumerate()
        .map(|(i, &(site, bits, flips))| {
            let base = match site {
                FaultSite::Weights => ModelFaultPlan::weights(),
                FaultSite::Activations => ModelFaultPlan::activations(),
            };
            base.bits(bits).mode(InjectionMode::Stochastic {
                flips,
                seed: 101 + i as u64,
            })
        })
        .collect()
}

/// Label of a campaign plan, e.g. `weights.b23-30.x1`.
pub fn plan_label(plan: &ModelFaultPlan) -> String {
    let flips = match plan.mode {
        InjectionMode::Stochastic { flips, .. } => flips,
        InjectionMode::Exhaustive => 0,
    };
    format!(
        "{}.b{}-{}.x{flips}",
        plan.site.label(),
        plan.bits.lo(),
        plan.bits.hi()
    )
}

/// `campaign-cifar`: one model-fault trial per unit on a clean ConvNet.
pub struct Campaign {
    /// The clean model every trial faults and restores.
    pub net: Network,
    /// The test set every trial predicts.
    pub test: LabeledDataset,
    plans: Vec<ModelFaultPlan>,
    clean_digest: u64,
}

impl Campaign {
    /// Generates the CIFAR-10 analogue and trains the clean ConvNet.
    pub fn setup(variant: u64, stages: &mut Stages) -> Self {
        let seed = data_seed(variant);
        let data = stages.time("data.generate", || {
            DatasetKind::Cifar10.generate(SCALE, seed)
        });
        let train = stages.time("slice", || {
            data.train.select(&(0..CAMPAIGN_TRAIN).collect::<Vec<_>>())
        });
        let mut net = stages.time("clean_fit", || {
            let mut ctx = TrainContext::new(SCALE, seed);
            ctx.fit.epochs = CAMPAIGN_EPOCHS;
            let fitted = TechniqueKind::Baseline
                .build()
                .fit(ModelKind::ConvNet, &train, &ctx);
            let FittedModel::Single(net) = fitted else {
                panic!("the baseline fits a single network")
            };
            net
        });
        let mut d = Digest::default();
        d.params(&mut net);
        Self {
            net,
            test: data.test,
            plans: campaign_plans(),
            clean_digest: d.finish(),
        }
    }
}

impl Workload for Campaign {
    fn labels(&self) -> Vec<String> {
        self.plans.iter().map(plan_label).collect()
    }

    fn run(&mut self, pos: usize, tr: &Tracer) -> UnitOutput {
        let Campaign {
            net, test, plans, ..
        } = self;
        let plan = &plans[pos];
        let (preds, faults) = match plan.site {
            FaultSite::Weights => {
                let (instance, report) = tr.span("inject.weight_flip", || {
                    let instance = plan.weight_instances(net).swap_remove(0);
                    let report = apply_weight_faults(net, &instance);
                    (instance, report)
                });
                let preds = tr.span("nn.predict", || net.predict(test.images(), EVAL_BATCH));
                tr.span("inject.weight_restore", || {
                    apply_weight_faults(net, &instance)
                });
                (preds, report.flipped as u64)
            }
            FaultSite::Activations => {
                let fired = Arc::new(AtomicU64::new(0));
                tr.span("inject.activation_install", || {
                    net.set_activation_hook(counting_activation_hook(plan, Arc::clone(&fired)))
                });
                let preds = tr.span("nn.predict", || net.predict(test.images(), EVAL_BATCH));
                tr.span("inject.activation_clear", || net.clear_activation_hook());
                (preds, fired.load(Ordering::Relaxed))
            }
        };
        let mut d = Digest::default();
        d.labels(&preds);
        UnitOutput {
            digest: d.finish(),
            work: 1,
            faults,
        }
    }

    /// Every trial must restore the clean weights bit-exactly and remove
    /// its activation hook.
    fn state_ok(&mut self) -> bool {
        let mut d = Digest::default();
        d.params(&mut self.net);
        d.finish() == self.clean_digest && !self.net.has_activation_hook()
    }
}

/// The sharded rotation's aggregators, with their metric names.
pub const AGGREGATORS: [(&str, AggregatorKind); 4] = [
    ("Mean", AggregatorKind::Mean),
    ("TrimmedMean", AggregatorKind::TrimmedMean { f: 1 }),
    ("Median", AggregatorKind::Median),
    ("Ctma", AggregatorKind::Ctma { f: 1 }),
];

/// The fit configuration of every sharded unit.
pub fn shard_fit_config(seed: u64) -> FitConfig {
    FitConfig {
        epochs: SHARD_EPOCHS,
        batch_size: SHARD_BATCH,
        shuffle_seed: seed,
        ..FitConfig::default()
    }
}

/// `sharded-cifar`: one short sharded fit per unit.
pub struct Sharded {
    /// The shards, one of them mislabelled.
    pub shards: Vec<LabeledDataset>,
    /// The ConvNet every replica is built from.
    pub config: ModelConfig,
    fit: FitConfig,
}

impl Sharded {
    /// Generates the CIFAR-10 analogue, shards a slice of it and
    /// mislabels one shard.
    pub fn setup(variant: u64, stages: &mut Stages) -> Self {
        let seed = data_seed(variant);
        let data = stages.time("data.generate", || {
            DatasetKind::Cifar10.generate(SCALE, seed)
        });
        let shards = stages.time("shard", || {
            let slice = data
                .train
                .select(&(0..SHARDS * SHARD_SAMPLES).collect::<Vec<_>>());
            let plan = ShardFaultPlan::mislabel(VICTIM_SHARD, SHARD_FAULT_PERCENT);
            plan.apply(&slice.shards(SHARDS), seed).0
        });
        let mut ctx = TrainContext::new(SCALE, seed);
        ctx.fit = shard_fit_config(seed);
        Self {
            config: ctx.model_config(&shards[0]),
            shards,
            fit: ctx.fit,
        }
    }
}

impl Workload for Sharded {
    fn labels(&self) -> Vec<String> {
        AGGREGATORS.iter().map(|(n, _)| n.to_string()).collect()
    }

    fn run(&mut self, pos: usize, tr: &Tracer) -> UnitOutput {
        let mut aggregator = AGGREGATORS[pos].1.build();
        let (mut net, report) = tr.span("core.fit_sharded", || {
            fit_sharded(
                ModelKind::ConvNet,
                &self.config,
                &self.shards,
                &self.fit,
                aggregator.as_mut(),
            )
        });
        let mut d = Digest::default();
        d.params(&mut net);
        UnitOutput {
            digest: d.finish(),
            work: report.rounds as u64,
            faults: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One pass over `kind`'s rotation on a fresh set-up: the work and
    /// fault counts of each position.
    fn counts(kind: Kind) -> Vec<(u64, u64)> {
        let tr = Tracer::new(false);
        let mut w = kind.setup(0, &mut Stages::default());
        (0..w.labels().len())
            .map(|pos| {
                let out = w.run(pos, &tr);
                assert!(w.state_ok(), "{} position {pos}", kind.name());
                (out.work, out.faults)
            })
            .collect()
    }

    #[test]
    fn two_runs_report_identical_counts() {
        for kind in Kind::ALL {
            let first = counts(kind);
            assert_eq!(first, counts(kind), "{}", kind.name());
            assert!(first.iter().all(|&(work, _)| work > 0), "{}", kind.name());
        }
    }

    #[test]
    fn counts_follow_from_the_configuration() {
        let rounds = (SHARD_EPOCHS * SHARD_SAMPLES.div_ceil(SHARD_BATCH)) as u64;
        assert!(counts(Kind::Sharded)
            .iter()
            .all(|&(work, _)| work == rounds));
        let flipped = (GRID_TRAIN as f32 * GRID_FAULT_PERCENT / 100.0).round() as u64;
        assert_eq!(counts(Kind::Grid)[0], (1, flipped));
        let weight_flips: Vec<u64> = counts(Kind::Campaign)[..4].iter().map(|c| c.1).collect();
        assert_eq!(weight_flips, [4, 1, 4, 16]);
    }

    #[test]
    fn workload_names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("grid"), None);
    }
}
