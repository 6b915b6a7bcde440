//! The five TDFM techniques (paper Section III-B) behind one trait, plus
//! fault-aware training for the model-fault axis (ROADMAP item 1).

mod correction;
mod distillation;
mod ensemble;
mod fault_aware;
mod simple;

// The parametrised techniques are built only through `TechniqueKind`,
// which checks their parameters.
pub(crate) use correction::LabelCorrection;
pub(crate) use distillation::SelfDistillation;
pub(crate) use ensemble::Ensemble;
pub(crate) use fault_aware::FaultAwareTraining;
pub(crate) use simple::LabelSmoothing;
pub use simple::{Baseline, RobustLoss};

use crate::detect::{DetectAndFilter, NoiseDetector};
use std::borrow::Cow;
use tdfm_data::{LabeledDataset, Scale};
use tdfm_inject::split_clean;
use tdfm_json::{field, to_string, FromJson, JsonError, ToJson, Value};
use tdfm_nn::models::{ModelConfig, ModelKind};
use tdfm_nn::trainer::FitConfig;
use tdfm_nn::Network;
use tdfm_tensor::ops::softmax_rows;
use tdfm_tensor::Tensor;

/// Batch size used for evaluation-mode inference.
pub const EVAL_BATCH: usize = 64;

/// Everything a technique needs besides the (possibly faulty) training set.
#[derive(Debug, Clone)]
pub struct TrainContext {
    /// Experiment scale (drives width/epochs).
    pub scale: Scale,
    /// Per-repetition seed.
    pub seed: u64,
    /// Shared training hyperparameters.
    pub fit: FitConfig,
    /// Clean subset reserved from fault injection (label correction only;
    /// Section III-B2).
    pub clean_subset: Option<LabeledDataset>,
}

impl TrainContext {
    /// Builds a context with the scale's default hyperparameters.
    pub fn new(scale: Scale, seed: u64) -> Self {
        Self {
            scale,
            seed,
            fit: FitConfig {
                epochs: scale.epochs(),
                batch_size: 32,
                lr: 0.05,
                momentum: 0.9,
                weight_decay: 1e-4,
                lr_decay: 0.9,
                grad_clip: 5.0,
                shuffle_seed: seed,
            },
            clean_subset: None,
        }
    }

    /// Adapts the optimisation schedule to the training-set size.
    ///
    /// Small datasets (the Pneumonia analogue) would otherwise see a
    /// handful of gradient steps: the batch size targets roughly eight
    /// batches per epoch (clamped to `[4, 32]`), and the epoch count is
    /// raised until the run performs at least ~300 optimiser steps — the
    /// long-training regime in which the paper's models memorise label
    /// noise (its configurations trained ~45 minutes each).
    pub fn tune_for(&mut self, train_len: usize) {
        self.fit.batch_size = (train_len / 8).clamp(4, 32);
        let batches_per_epoch = train_len.div_ceil(self.fit.batch_size).max(1);
        let min_epochs = 300usize.div_ceil(batches_per_epoch);
        if min_epochs > self.fit.epochs {
            self.fit.epochs = min_epochs;
            // Stretch the decay schedule over the longer run.
            if self.fit.lr_decay < 0.97 {
                self.fit.lr_decay = 0.97;
            }
        }
    }

    /// Model construction parameters matching a training set.
    pub fn model_config(&self, train: &LabeledDataset) -> ModelConfig {
        let (c, h, w) = train.image_shape();
        ModelConfig {
            in_shape: (c, h, w),
            classes: train.classes(),
            width: self.scale.model_width(),
            seed: self.seed,
        }
    }
}

/// A model (or ensemble of models) produced by a technique.
pub enum FittedModel {
    /// One network.
    Single(Network),
    /// Several networks combined by majority vote (Section III-B5).
    Ensemble(Vec<Network>),
}

impl FittedModel {
    /// Predicted class per test image.
    ///
    /// Ensembles take a simple majority vote; ties are broken by the
    /// summed softmax probability, then by the lowest class index.
    pub fn predict(&mut self, images: &Tensor) -> Vec<u32> {
        match self {
            FittedModel::Single(net) => net.predict(images, EVAL_BATCH),
            FittedModel::Ensemble(nets) => {
                assert!(!nets.is_empty(), "empty ensemble");
                let n = images.shape().dim(0);
                let k = nets[0].classes();
                let mut votes = vec![0u32; n * k];
                let mut prob_sum = Tensor::zeros(&[n, k]);
                for net in nets.iter_mut() {
                    let logits = net.logits(images, EVAL_BATCH);
                    let preds = tdfm_tensor::ops::argmax_rows(&logits);
                    for (i, &p) in preds.iter().enumerate() {
                        votes[i * k + p as usize] += 1;
                    }
                    prob_sum.axpy(1.0, &softmax_rows(&logits, 1.0));
                }
                (0..n)
                    .map(|i| {
                        let v = &votes[i * k..(i + 1) * k];
                        let p = &prob_sum.data()[i * k..(i + 1) * k];
                        let mut best = 0usize;
                        for j in 1..k {
                            let better_votes = v[j] > v[best];
                            let tie_better_prob = v[j] == v[best] && p[j] > p[best];
                            if better_votes || tie_better_prob {
                                best = j;
                            }
                        }
                        best as u32
                    })
                    .collect()
            }
        }
    }

    /// Accuracy on a labelled dataset.
    pub fn accuracy(&mut self, ds: &LabeledDataset) -> f32 {
        crate::metrics::accuracy(&self.predict(ds.images()), ds.labels())
    }

    /// Mutable access to every member network (one for `Single`) — the
    /// model-fault runner uses this to flip weight bits and install
    /// activation hooks on each member.
    pub fn networks_mut(&mut self) -> Vec<&mut Network> {
        match self {
            FittedModel::Single(net) => vec![net],
            FittedModel::Ensemble(nets) => nets.iter_mut().collect(),
        }
    }

    /// Number of member networks (1 unless this is an ensemble).
    pub fn member_count(&self) -> usize {
        match self {
            FittedModel::Single(_) => 1,
            FittedModel::Ensemble(nets) => nets.len(),
        }
    }
}

impl std::fmt::Debug for FittedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FittedModel::Single(net) => write!(f, "FittedModel::Single({})", net.name()),
            FittedModel::Ensemble(nets) => {
                write!(f, "FittedModel::Ensemble({} members)", nets.len())
            }
        }
    }
}

/// A training-data fault-mitigation technique.
///
/// Implementations train on the *faulty* dataset the experiment runner
/// hands them (Fig. 2) and return a fitted model; the runner measures AD
/// against the architecture's golden model. What a technique is called,
/// and whether its fit can be shared across architectures, is answered by
/// its [`TechniqueKind`].
pub trait Mitigation: Send + Sync {
    /// Trains a protected model of the given architecture.
    fn fit(&self, model: ModelKind, train: &LabeledDataset, ctx: &TrainContext) -> FittedModel;

    /// Whether the technique consumes the reserved clean subset
    /// (label correction does; everything else ignores it).
    fn wants_clean_subset(&self) -> bool {
        false
    }
}

/// Unwraps a parameter check in a `const` constructor, panicking with the
/// broken rule.
pub(crate) const fn valid<T: Copy>(checked: Result<T, &'static str>) -> T {
    match checked {
        Ok(value) => value,
        Err(rule) => panic!("{}", rule),
    }
}

/// One variant per technique family, carrying the family's parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Spec {
    Baseline,
    LabelSmoothing(LabelSmoothing),
    LabelCorrection(LabelCorrection),
    RobustLoss,
    KnowledgeDistillation(SelfDistillation),
    Ensemble(Ensemble),
    FaultAwareTraining(FaultAwareTraining),
    DetectAndFilter(DetectAndFilter),
}

/// A technique with every hyperparameter it trains with: one column of the
/// paper's figures, or an ablation's variant of one.
///
/// The paper's columns are associated constants under their variant-style
/// names (`TechniqueKind::LabelSmoothing` is label smoothing with the
/// paper's `alpha = 0.1`); the `const fn` constructors build the other
/// parameter settings, and panic on an out-of-range one. Everything the
/// experiment runner decides per technique — which clean fraction to
/// reserve, whether a fit is shared across architectures, the cache and
/// provenance keys — is read from here, so two cells that differ in one
/// parameter never share a result.
///
/// A paper default serialises as its family name (`"LabelCorrection"`);
/// any other setting as `{"LabelCorrection": {"gamma": 0.05}}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechniqueKind(pub(crate) Spec);

#[allow(
    non_upper_case_globals,
    reason = "the paper's columns keep the names they had as enum variants"
)]
impl TechniqueKind {
    /// Unprotected model trained with plain cross entropy.
    pub const Baseline: Self = Self(Spec::Baseline);
    /// Label relaxation with `alpha = 0.1` (Section III-B1).
    pub const LabelSmoothing: Self = Self::label_smoothing(0.1);
    /// Meta label correction with clean fraction `gamma = 0.1` (III-B2).
    pub const LabelCorrection: Self = Self::label_correction(0.1);
    /// NCE+RCE active-passive loss with Ma et al.'s recommended
    /// per-dataset weights (III-B3).
    pub const RobustLoss: Self = Self(Spec::RobustLoss);
    /// Self-distillation with `alpha = 0.7`, `T = 4` (III-B4).
    pub const KnowledgeDistillation: Self = Self::knowledge_distillation(0.7, 4.0);
    /// 5-model heterogeneous majority-vote ensemble (III-B5).
    pub const Ensemble: Self = Self::ensemble(&[
        ModelKind::ConvNet,
        ModelKind::MobileNet,
        ModelKind::ResNet18,
        ModelKind::Vgg11,
        ModelKind::Vgg16,
    ]);
    /// Training under two full-word weight bit-flips per step — hardens
    /// against *model* faults (SEUs) instead of data faults.
    pub const FaultAwareTraining: Self = Self::fault_aware(2, 0, 31);
    /// Drop the suspects of a 3-fold ConvNet label-noise detector, then
    /// train the baseline — the detection strategy the paper scoped out
    /// (Section III-A), not one of its columns.
    pub const DetectAndFilter: Self =
        Self::detect_and_filter(NoiseDetector::new(3, ModelKind::ConvNet));

    /// The data-fault techniques in the paper's column order. Kept at the
    /// paper's six so results recorded against the original grid are
    /// unchanged; the model-fault study iterates [`TechniqueKind::ALL_EXTENDED`].
    pub const ALL: [TechniqueKind; 6] = [
        TechniqueKind::Baseline,
        TechniqueKind::LabelSmoothing,
        TechniqueKind::LabelCorrection,
        TechniqueKind::RobustLoss,
        TechniqueKind::KnowledgeDistillation,
        TechniqueKind::Ensemble,
    ];

    /// [`TechniqueKind::ALL`] plus fault-aware training — the column set
    /// of the model-fault harness.
    pub const ALL_EXTENDED: [TechniqueKind; 7] = [
        TechniqueKind::Baseline,
        TechniqueKind::LabelSmoothing,
        TechniqueKind::LabelCorrection,
        TechniqueKind::RobustLoss,
        TechniqueKind::KnowledgeDistillation,
        TechniqueKind::Ensemble,
        TechniqueKind::FaultAwareTraining,
    ];

    /// Label smoothing (relaxation) with `alpha` in `(0, 1)`.
    pub const fn label_smoothing(alpha: f32) -> Self {
        valid(Self(Spec::LabelSmoothing(LabelSmoothing { alpha })).check())
    }

    /// Label correction reserving the clean fraction `gamma` in `(0, 1)`.
    pub const fn label_correction(gamma: f32) -> Self {
        valid(Self(Spec::LabelCorrection(LabelCorrection { gamma })).check())
    }

    /// Self-distillation with teacher weight `alpha` in `[0, 1]` and a
    /// positive `temperature`.
    pub const fn knowledge_distillation(alpha: f32, temperature: f32) -> Self {
        let kd = SelfDistillation { alpha, temperature };
        valid(Self(Spec::KnowledgeDistillation(kd)).check())
    }

    /// A majority-vote ensemble of 1 to 8 `members`, repeats allowed.
    pub const fn ensemble(members: &[ModelKind]) -> Self {
        valid(Self::try_ensemble(members))
    }

    /// Fault-aware training with `flips_per_step > 0` weight bit-flips per
    /// step in bits `bit_lo..=bit_hi` (`hi < 32`).
    pub const fn fault_aware(flips_per_step: usize, bit_lo: u32, bit_hi: u32) -> Self {
        let fat = FaultAwareTraining {
            flips_per_step,
            bit_lo,
            bit_hi,
        };
        valid(Self(Spec::FaultAwareTraining(fat)).check())
    }

    /// Detect-and-filter with the given detector.
    pub const fn detect_and_filter(detector: NoiseDetector) -> Self {
        Self(Spec::DetectAndFilter(DetectAndFilter { detector }))
    }

    const fn try_ensemble(members: &[ModelKind]) -> Result<Self, &'static str> {
        if members.is_empty() || members.len() > Ensemble::MAX_MEMBERS {
            return Err("ensemble needs 1 to 8 members");
        }
        let len = members.len();
        let mut kinds = [ModelKind::ConvNet; Ensemble::MAX_MEMBERS];
        kinds.split_at_mut(len).0.copy_from_slice(members);
        Ok(Self(Spec::Ensemble(Ensemble {
            members: kinds,
            len,
        })))
    }

    /// The spec, or the first parameter rule it breaks.
    const fn check(self) -> Result<Self, &'static str> {
        let broken = match self.0 {
            Spec::LabelSmoothing(t) if !(t.alpha > 0.0 && t.alpha < 1.0) => {
                "alpha must be in (0, 1)"
            }
            Spec::LabelCorrection(t) if !(t.gamma > 0.0 && t.gamma < 1.0) => {
                "gamma must be in (0, 1)"
            }
            Spec::KnowledgeDistillation(t) if !(t.alpha >= 0.0 && t.alpha <= 1.0) => {
                "alpha must be in [0, 1]"
            }
            Spec::KnowledgeDistillation(t)
                if !(t.temperature > 0.0 && t.temperature.is_finite()) =>
            {
                "temperature must be positive and finite"
            }
            Spec::FaultAwareTraining(t) if t.flips_per_step == 0 => {
                "fault-aware training needs flips"
            }
            Spec::FaultAwareTraining(t) if t.bit_lo > t.bit_hi || t.bit_hi >= 32 => {
                "invalid bit range"
            }
            _ => return Ok(self),
        };
        Err(broken)
    }

    /// `(JSON family name, abbreviation, full name)` of the family.
    fn names(self) -> (&'static str, &'static str, &'static str) {
        match self.0 {
            Spec::Baseline => ("Baseline", "Base", "Baseline"),
            Spec::LabelSmoothing(_) => ("LabelSmoothing", "LS", "Label Smoothing"),
            Spec::LabelCorrection(_) => ("LabelCorrection", "LC", "Label Correction"),
            Spec::RobustLoss => ("RobustLoss", "RL", "Robust Loss"),
            Spec::KnowledgeDistillation(_) => {
                ("KnowledgeDistillation", "KD", "Knowledge Distillation")
            }
            Spec::Ensemble(_) => ("Ensemble", "Ens", "Ensemble"),
            Spec::FaultAwareTraining(_) => ("FaultAwareTraining", "FAT", "Fault-Aware Training"),
            Spec::DetectAndFilter(_) => ("DetectAndFilter", "DF", "Detect-and-Filter"),
        }
    }

    /// The family's parameters, as JSON values.
    fn params(self) -> Vec<(&'static str, Value)> {
        match self.0 {
            Spec::Baseline | Spec::RobustLoss => Vec::new(),
            Spec::LabelSmoothing(t) => vec![("alpha", t.alpha.to_json())],
            Spec::LabelCorrection(t) => vec![("gamma", t.gamma.to_json())],
            Spec::KnowledgeDistillation(t) => vec![
                ("alpha", t.alpha.to_json()),
                ("temperature", t.temperature.to_json()),
            ],
            Spec::Ensemble(t) => vec![("members", t.members().to_json())],
            Spec::FaultAwareTraining(t) => vec![
                ("flips_per_step", t.flips_per_step.to_json()),
                ("bit_lo", t.bit_lo.to_json()),
                ("bit_hi", t.bit_hi.to_json()),
            ],
            Spec::DetectAndFilter(t) => vec![
                ("folds", t.detector.folds.to_json()),
                ("probe", t.detector.model.to_json()),
            ],
        }
    }

    /// Whether this is a family's default: a paper column, or
    /// detect-and-filter's default detector.
    fn is_default(self) -> bool {
        Self::ALL_EXTENDED.contains(&self) || self == Self::DetectAndFilter
    }

    /// Abbreviation used in the paper's tables (`Base`, `LS`, ...); the
    /// same for every parameter setting of a family.
    pub fn abbrev(self) -> &'static str {
        self.names().1
    }

    /// Every parameter as `name value` (`"alpha 0.7, temperature 4.0"`;
    /// empty for Base and RL).
    pub fn parameters(self) -> String {
        let params = self.params().into_iter();
        let params = params.map(|(name, v)| format!("{name} {}", to_string(&v).replace('"', "")));
        params.collect::<Vec<_>>().join(", ")
    }

    /// Full name. A family default has the family's name (`"Label
    /// Correction"`); any other setting appends its parameters
    /// (`"Label Correction (gamma 0.05)"`). Distinct settings have
    /// distinct full names, so this is the technique part of every cache
    /// key, provenance key and manifest cell.
    pub fn full_name(self) -> String {
        let family = self.names().2;
        if self.is_default() {
            family.to_string()
        } else {
            format!("{family} ({})", self.parameters())
        }
    }

    /// Instantiates the implementation with this spec's parameters.
    pub fn build(self) -> Box<dyn Mitigation> {
        match self.0 {
            Spec::Baseline => Box::new(Baseline),
            Spec::LabelSmoothing(t) => Box::new(t),
            Spec::LabelCorrection(t) => Box::new(t),
            Spec::RobustLoss => Box::new(RobustLoss),
            Spec::KnowledgeDistillation(t) => Box::new(t),
            Spec::Ensemble(t) => Box::new(t),
            Spec::FaultAwareTraining(t) => Box::new(t),
            Spec::DetectAndFilter(t) => Box::new(t),
        }
    }

    /// Whether the fitted model is independent of the cell's architecture.
    ///
    /// True for ensembles, whose composition is part of the spec — the
    /// experiment runner then shares one fitted ensemble across the
    /// per-model panels of a figure, exactly as the paper's "Ens" bar is
    /// identical in every panel.
    pub fn model_independent(self) -> bool {
        matches!(self.0, Spec::Ensemble(_))
    }

    /// Reserves the spec's clean fraction of `train` *before* injection
    /// (label correction, III-B2): the clean subset goes into `ctx`, and
    /// the rest is returned for fault injection. Every other technique
    /// gets `train` back whole.
    pub(crate) fn reserve_clean<'a>(
        self,
        train: &'a LabeledDataset,
        ctx: &mut TrainContext,
    ) -> Cow<'a, LabeledDataset> {
        let Spec::LabelCorrection(lc) = self.0 else {
            return Cow::Borrowed(train);
        };
        let (clean, rest) = split_clean(train, lc.gamma, ctx.seed ^ 0xC1EA);
        ctx.clean_subset = Some(clean);
        Cow::Owned(rest)
    }
}

impl ToJson for TechniqueKind {
    fn to_json(&self) -> Value {
        let family = self.names().0.to_string();
        if self.is_default() {
            return Value::Str(family);
        }
        let params = self.params().into_iter();
        let params = params.map(|(name, v)| (name.to_string(), v)).collect();
        Value::Object(vec![(family, Value::Object(params))])
    }
}

impl FromJson for TechniqueKind {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let (family, params) = match v {
            Value::Str(family) => (family.as_str(), None),
            Value::Object(entries) if entries.len() == 1 => {
                (entries[0].0.as_str(), Some(&entries[0].1))
            }
            other => return Err(JsonError::expected("TechniqueKind", other)),
        };
        let default = Self::ALL_EXTENDED
            .into_iter()
            .chain([Self::DetectAndFilter])
            .find(|t| t.names().0 == family)
            .ok_or_else(|| JsonError::msg(format!("unknown technique `{family}`")))?;
        let Some(p) = params else {
            return Ok(default);
        };
        let err = |rule| JsonError::msg(format!("technique `{family}`: {rule}"));
        let spec = match default.0 {
            Spec::Baseline | Spec::RobustLoss => return Err(err("the family has no parameters")),
            Spec::LabelSmoothing(_) => Spec::LabelSmoothing(LabelSmoothing {
                alpha: field(p, "alpha")?,
            }),
            Spec::LabelCorrection(_) => Spec::LabelCorrection(LabelCorrection {
                gamma: field(p, "gamma")?,
            }),
            Spec::KnowledgeDistillation(_) => Spec::KnowledgeDistillation(SelfDistillation {
                alpha: field(p, "alpha")?,
                temperature: field(p, "temperature")?,
            }),
            Spec::Ensemble(_) => {
                return Self::try_ensemble(&field::<Vec<ModelKind>>(p, "members")?).map_err(err)
            }
            Spec::FaultAwareTraining(_) => Spec::FaultAwareTraining(FaultAwareTraining {
                flips_per_step: field(p, "flips_per_step")?,
                bit_lo: field(p, "bit_lo")?,
                bit_hi: field(p, "bit_hi")?,
            }),
            Spec::DetectAndFilter(_) => Spec::DetectAndFilter(DetectAndFilter {
                detector: NoiseDetector::try_new(field(p, "folds")?, field(p, "probe")?)
                    .map_err(err)?,
            }),
        };
        Self(spec).check().map_err(err)
    }
}

impl std::fmt::Display for TechniqueKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.abbrev())
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use tdfm_data::DatasetKind;

    /// A tiny train/test pair plus context for technique unit tests.
    ///
    /// The Pneumonia analogue at `Scale::Tiny` has only ~24 training
    /// samples; with the scale's default batch size and epochs the models
    /// would see a handful of gradient steps, so the test context trains a
    /// little longer with small batches.
    pub fn tiny_setup() -> (LabeledDataset, LabeledDataset, TrainContext) {
        let tt = DatasetKind::Pneumonia.generate(Scale::Tiny, 1);
        let mut ctx = TrainContext::new(Scale::Tiny, 1);
        ctx.fit.epochs = 12;
        ctx.fit.batch_size = 8;
        (tt.train, tt.test, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_have_unique_abbrevs() {
        let set: std::collections::HashSet<_> = TechniqueKind::ALL_EXTENDED
            .iter()
            .map(|t| t.abbrev())
            .collect();
        assert_eq!(set.len(), 7);
    }

    #[test]
    fn extended_set_is_all_plus_fault_aware() {
        assert_eq!(&TechniqueKind::ALL_EXTENDED[..6], &TechniqueKind::ALL[..]);
        assert_eq!(
            TechniqueKind::ALL_EXTENDED[6],
            TechniqueKind::FaultAwareTraining
        );
    }

    #[test]
    fn paper_defaults_keep_their_wire_format_and_names() {
        let expected = [
            ("Baseline", "Baseline"),
            ("LabelSmoothing", "Label Smoothing"),
            ("LabelCorrection", "Label Correction"),
            ("RobustLoss", "Robust Loss"),
            ("KnowledgeDistillation", "Knowledge Distillation"),
            ("Ensemble", "Ensemble"),
            ("FaultAwareTraining", "Fault-Aware Training"),
        ];
        for (kind, (wire, full)) in TechniqueKind::ALL_EXTENDED.into_iter().zip(expected) {
            assert_eq!(tdfm_json::to_string(&kind), format!("\"{wire}\""));
            assert_eq!(kind.full_name(), full);
            assert_eq!(
                tdfm_json::from_str::<TechniqueKind>(&format!("\"{wire}\"")).unwrap(),
                kind
            );
        }
    }

    #[test]
    fn parameter_settings_round_trip_under_distinct_names() {
        let specs = [
            TechniqueKind::label_smoothing(0.4),
            TechniqueKind::label_correction(0.05),
            TechniqueKind::knowledge_distillation(0.3, 4.0),
            TechniqueKind::ensemble(&[ModelKind::ConvNet; 5]),
            TechniqueKind::fault_aware(4, 0, 31),
            TechniqueKind::fault_aware(2, 23, 30),
            TechniqueKind::DetectAndFilter,
            TechniqueKind::detect_and_filter(NoiseDetector::new(5, ModelKind::DeconvNet)),
        ];
        for kind in specs {
            let json = tdfm_json::to_string(&kind);
            assert_eq!(
                tdfm_json::from_str::<TechniqueKind>(&json).unwrap(),
                kind,
                "{json}"
            );
        }
        assert_eq!(
            tdfm_json::to_string(&specs[1]),
            r#"{"LabelCorrection":{"gamma":0.05}}"#
        );
        assert_eq!(specs[1].full_name(), "Label Correction (gamma 0.05)");
        assert_eq!(
            specs[3].full_name(),
            "Ensemble (members [ConvNet,ConvNet,ConvNet,ConvNet,ConvNet])"
        );
        let names: std::collections::BTreeSet<String> = specs
            .iter()
            .chain(&TechniqueKind::ALL_EXTENDED)
            .map(|t| t.full_name())
            .collect();
        assert_eq!(names.len(), specs.len() + 7);
    }

    #[test]
    fn malformed_or_out_of_range_parameters_are_errors() {
        for text in [
            r#"{"LabelCorrection":{"gamma":1.5}}"#,
            r#"{"LabelCorrection":{"gamma":0}}"#,
            r#"{"LabelCorrection":{}}"#,
            r#"{"LabelSmoothing":{"alpha":"x"}}"#,
            r#"{"KnowledgeDistillation":{"alpha":0.5,"temperature":0}}"#,
            r#"{"KnowledgeDistillation":{"alpha":1.5,"temperature":4}}"#,
            r#"{"Ensemble":{"members":[]}}"#,
            r#"{"Ensemble":{"members":["ConvNet","ConvNet","ConvNet","ConvNet","ConvNet","ConvNet","ConvNet","ConvNet","ConvNet"]}}"#,
            r#"{"Ensemble":{"members":["NoSuchNet"]}}"#,
            r#"{"FaultAwareTraining":{"flips_per_step":0,"bit_lo":0,"bit_hi":31}}"#,
            r#"{"FaultAwareTraining":{"flips_per_step":-1,"bit_lo":0,"bit_hi":31}}"#,
            r#"{"FaultAwareTraining":{"flips_per_step":1,"bit_lo":8,"bit_hi":32}}"#,
            r#"{"DetectAndFilter":{"folds":1,"probe":"ConvNet"}}"#,
            r#"{"Baseline":{}}"#,
            r#"{"NoSuchTechnique":{}}"#,
            r#""NoSuchTechnique""#,
            r#"{"LabelSmoothing":{"alpha":0.1},"LabelCorrection":{"gamma":0.1}}"#,
            r#"{"LabelSmoothing":0.1}"#,
            "[]",
            "7",
        ] {
            assert!(
                tdfm_json::from_str::<TechniqueKind>(text).is_err(),
                "{text}"
            );
        }
    }

    #[test]
    fn only_label_correction_wants_clean_data() {
        for kind in TechniqueKind::ALL_EXTENDED {
            let wants = kind.build().wants_clean_subset();
            assert_eq!(wants, kind == TechniqueKind::LabelCorrection, "{kind}");
            assert_eq!(
                kind.model_independent(),
                kind == TechniqueKind::Ensemble,
                "{kind}"
            );
        }
    }

    #[test]
    fn clean_reservation_follows_gamma() {
        let tt = tdfm_data::DatasetKind::Cifar10.generate(Scale::Tiny, 2);
        let reserved = |kind: TechniqueKind| {
            let mut ctx = TrainContext::new(Scale::Tiny, 2);
            let rest = kind.reserve_clean(&tt.train, &mut ctx).len();
            (ctx.clean_subset.map_or(0, |c| c.len()), rest)
        };
        let n = tt.train.len();
        assert_eq!(reserved(TechniqueKind::Baseline), (0, n));
        let (small, rest) = reserved(TechniqueKind::label_correction(0.05));
        assert_eq!(small + rest, n);
        let (large, _) = reserved(TechniqueKind::label_correction(0.2));
        assert!(0 < small && small < large, "{small} vs {large}");
    }

    #[test]
    fn context_derives_model_config() {
        let (train, _, ctx) = test_support::tiny_setup();
        let cfg = ctx.model_config(&train);
        assert_eq!(cfg.classes, 2);
        assert_eq!(cfg.in_shape.0, 1);
        assert_eq!(cfg.width, Scale::Tiny.model_width());
    }
}
