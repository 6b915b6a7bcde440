//! Label-noise *detection* — the complement the paper's introduction
//! distinguishes from mitigation ("articles that propose techniques to
//! mitigate the effects of label noise, rather than mechanisms for
//! detecting label noise", Section III-A).
//!
//! This module implements a confident-learning-style detector in the
//! spirit of Northcutt et al. (paper reference \[12\], cited for pervasive
//! label errors): out-of-sample predicted probabilities from k-fold
//! cross-validation, per-class confidence thresholds, and a suspect rule
//! that flags samples whose given label looks inconsistent with a
//! confidently predicted other class. Detect-and-filter
//! ([`crate::TechniqueKind::DetectAndFilter`]) turns the detector into a
//! sixth mitigation: drop the suspects, then retrain — usable as a
//! baseline against the paper's five techniques.

use crate::technique::{valid, Baseline, FittedModel, Mitigation, TrainContext, EVAL_BATCH};
use tdfm_data::LabeledDataset;
use tdfm_json::json_struct;
use tdfm_nn::loss::CrossEntropy;
use tdfm_nn::models::ModelKind;
use tdfm_nn::trainer::{fit, TargetSource};
use tdfm_obs::{event, Level};
use tdfm_tensor::ops::softmax_rows;
use tdfm_tensor::rng::Rng;
use tdfm_tensor::Tensor;

/// Confident-learning-style label-noise detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseDetector {
    pub(crate) folds: usize,
    pub(crate) model: ModelKind,
}

impl Default for NoiseDetector {
    fn default() -> Self {
        Self::new(3, ModelKind::ConvNet)
    }
}

impl NoiseDetector {
    /// Creates a detector with `folds`-fold cross-validation using the
    /// given probe architecture.
    ///
    /// # Panics
    ///
    /// Panics if `folds < 2`.
    pub const fn new(folds: usize, model: ModelKind) -> Self {
        valid(Self::try_new(folds, model))
    }

    /// [`NoiseDetector::new`], returning the broken rule on bad input.
    pub const fn try_new(folds: usize, model: ModelKind) -> Result<Self, &'static str> {
        if folds >= 2 {
            Ok(Self { folds, model })
        } else {
            Err("cross-validation needs at least two folds")
        }
    }

    /// Computes out-of-sample class probabilities for every training
    /// sample via k-fold cross-validation.
    fn out_of_sample_probs(&self, train: &LabeledDataset, ctx: &TrainContext) -> Tensor {
        let n = train.len();
        let classes = train.classes();
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = Rng::seed_from(ctx.seed ^ 0x00DE_7EC7);
        rng.shuffle(&mut order);
        let mut probs = Tensor::zeros(&[n, classes]);
        for fold in 0..self.folds {
            let held_out: Vec<usize> = order
                .iter()
                .copied()
                .skip(fold)
                .step_by(self.folds)
                .collect();
            let held_set: std::collections::HashSet<usize> = held_out.iter().copied().collect();
            let fit_idx: Vec<usize> = (0..n).filter(|i| !held_set.contains(i)).collect();
            if fit_idx.is_empty() || held_out.is_empty() {
                continue;
            }
            let fit_set = train.select(&fit_idx);
            let mut cfg = ctx.model_config(train);
            cfg.seed = ctx.seed ^ (fold as u64) << 16;
            let mut net = self.model.build(&cfg);
            fit(
                &mut net,
                &CrossEntropy,
                fit_set.images(),
                &TargetSource::Hard(fit_set.labels().to_vec()),
                &ctx.fit,
            );
            let held_images = train.images().gather_rows(&held_out);
            let p = softmax_rows(&net.logits(&held_images, EVAL_BATCH), 1.0);
            for (row, &i) in held_out.iter().enumerate() {
                probs.data_mut()[i * classes..(i + 1) * classes]
                    .copy_from_slice(&p.data()[row * classes..(row + 1) * classes]);
            }
        }
        probs
    }

    /// Runs detection over a (possibly faulty) training set.
    ///
    /// # Panics
    ///
    /// Panics if the dataset has fewer samples than folds.
    pub fn detect(&self, train: &LabeledDataset, ctx: &TrainContext) -> DetectionReport {
        assert!(train.len() >= self.folds, "dataset smaller than fold count");
        let classes = train.classes();
        let probs = self.out_of_sample_probs(train, ctx);

        // Per-class confidence threshold: mean probability the class gets
        // on samples *labelled* with it (the confident-joint thresholds of
        // confident learning).
        let mut sums = vec![0.0f32; classes];
        let mut counts = vec![0usize; classes];
        for (i, &y) in train.labels().iter().enumerate() {
            sums[y as usize] += probs.data()[i * classes + y as usize];
            counts[y as usize] += 1;
        }
        let thresholds: Vec<f32> = sums
            .iter()
            .zip(&counts)
            .map(|(&s, &c)| if c == 0 { f32::INFINITY } else { s / c as f32 })
            .collect();

        let mut suspects = Vec::new();
        let mut scores = vec![0.0f32; train.len()];
        for (i, &y) in train.labels().iter().enumerate() {
            let row = &probs.data()[i * classes..(i + 1) * classes];
            let py = row[y as usize];
            // Cleanlab-style rule: the sample must look *unlike* its own
            // class (below that class's confident threshold) and *like*
            // some other class (at or above that class's threshold).
            if py >= thresholds[y as usize] {
                continue;
            }
            let mut best: Option<(usize, f32)> = None;
            for (j, (&pj, &tj)) in row.iter().zip(&thresholds).enumerate() {
                if j != y as usize && pj >= tj && pj > py {
                    let margin = pj - py;
                    if best.is_none_or(|(_, m)| margin > m) {
                        best = Some((j, margin));
                    }
                }
            }
            if let Some((_, margin)) = best {
                scores[i] = margin;
                suspects.push(i);
            }
        }
        // Most suspicious first. `total_cmp`, not `partial_cmp`: a NaN
        // margin must not silently scramble the ranking (and ties break by
        // ascending index, keeping the order deterministic).
        suspects.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
        DetectionReport {
            suspects,
            scores,
            thresholds,
        }
    }
}

/// What the detector found.
#[derive(Debug, Clone)]
pub struct DetectionReport {
    /// Indices of suspected mislabelled samples, most suspicious first.
    pub suspects: Vec<usize>,
    /// Per-sample suspicion margin (0 for unsuspected samples).
    pub scores: Vec<f32>,
    /// Per-class confidence thresholds used by the suspect rule.
    pub thresholds: Vec<f32>,
}

/// Detection quality against the injector's ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionQuality {
    /// Fraction of flagged samples that really were mislabelled.
    pub precision: f32,
    /// Fraction of mislabelled samples that were flagged.
    pub recall: f32,
    /// Harmonic mean of precision and recall (0 when both are 0).
    pub f1: f32,
}

json_struct!(DetectionReport {
    suspects,
    scores,
    thresholds
});

json_struct!(DetectionQuality {
    precision,
    recall,
    f1
});

impl DetectionReport {
    /// Scores the detection against known fault positions (from
    /// [`tdfm_inject::InjectionReport::mislabelled_indices`]).
    pub fn evaluate(&self, truly_faulty: &[usize]) -> DetectionQuality {
        let truth: std::collections::HashSet<usize> = truly_faulty.iter().copied().collect();
        let flagged: std::collections::HashSet<usize> = self.suspects.iter().copied().collect();
        let hits = flagged.intersection(&truth).count();
        let precision = if flagged.is_empty() {
            0.0
        } else {
            hits as f32 / flagged.len() as f32
        };
        let recall = if truth.is_empty() {
            0.0
        } else {
            hits as f32 / truth.len() as f32
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        DetectionQuality {
            precision,
            recall,
            f1,
        }
    }
}

/// Detect-and-filter mitigation: flag suspects, drop them, retrain the
/// baseline on the cleaned set.
///
/// This is *not* one of the paper's five techniques — it is the detection
/// strategy the paper deliberately scoped out, implemented here so the two
/// philosophies can be compared on the same harness (see the `detector`
/// bench binary).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct DetectAndFilter {
    pub(crate) detector: NoiseDetector,
}

impl DetectAndFilter {
    /// `train` without its `suspects`, unless that keeps less than half of
    /// it: then the full set, counted in the global `df_fallbacks` counter
    /// (so every run manifest shows it) and logged as a warning.
    fn filtered(train: &LabeledDataset, suspects: &[usize]) -> LabeledDataset {
        let flagged: std::collections::HashSet<usize> = suspects.iter().copied().collect();
        let keep: Vec<usize> = (0..train.len()).filter(|i| !flagged.contains(i)).collect();
        if keep.len() >= train.len() / 2 {
            return train.select(&keep);
        }
        tdfm_obs::global().counter("df_fallbacks").inc();
        event!(
            Level::Warn,
            "df_fallback",
            flagged = flagged.len(),
            samples = train.len()
        );
        train.clone()
    }
}

impl Mitigation for DetectAndFilter {
    fn fit(&self, model: ModelKind, train: &LabeledDataset, ctx: &TrainContext) -> FittedModel {
        let report = self.detector.detect(train, ctx);
        Baseline.fit(model, &Self::filtered(train, &report.suspects), ctx)
    }
}

/// What shard localization found: per-shard disagreement scores and the
/// shards ranked most-suspect first.
#[derive(Debug, Clone)]
pub struct ShardLocalizationReport {
    /// Per-shard disagreement between the aggregated model's predictions
    /// and the shard's own held-out labels (fraction in `[0, 1]`).
    pub scores: Vec<f32>,
    /// Shard indices ranked by descending score (ties break by ascending
    /// index).
    pub suspects: Vec<usize>,
}

json_struct!(ShardLocalizationReport { scores, suspects });

impl ShardLocalizationReport {
    /// The top-ranked suspect shard.
    ///
    /// # Panics
    ///
    /// Panics if the report covers no shards.
    pub fn top(&self) -> usize {
        *self.suspects.first().expect("no shards were scored")
    }
}

/// FedDebug-style faulty-shard localization: scores each worker's shard by
/// the disagreement between the aggregated model's predictions and the
/// shard's *own* labels on that shard's held-out slice.
///
/// A mislabelled shard keeps its bad labels in the held-out slice, while a
/// robustly aggregated model predicts the consensus of the clean majority
/// — so the faulty shard's disagreement stands out. Scores use
/// `total_cmp` for the ranking, so a NaN score (an empty-prediction bug
/// upstream) cannot scramble the suspect order.
///
/// # Panics
///
/// Panics if `holdouts` is empty.
pub fn localize_faulty_shards(
    net: &mut tdfm_nn::Network,
    holdouts: &[LabeledDataset],
) -> ShardLocalizationReport {
    assert!(!holdouts.is_empty(), "no shards to localize over");
    let scores: Vec<f32> = holdouts
        .iter()
        .map(|shard| {
            let preds = net.predict(shard.images(), EVAL_BATCH);
            let disagreements = preds
                .iter()
                .zip(shard.labels())
                .filter(|(p, l)| p != l)
                .count();
            disagreements as f32 / shard.len() as f32
        })
        .collect();
    let mut suspects: Vec<usize> = (0..holdouts.len()).collect();
    suspects.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    ShardLocalizationReport { scores, suspects }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdfm_data::{DatasetKind, Scale};
    use tdfm_inject::{FaultKind, FaultPlan, Injector};

    fn setup() -> (LabeledDataset, Vec<usize>, TrainContext) {
        let tt = DatasetKind::Cifar10.generate(Scale::Tiny, 8);
        let plan = FaultPlan::single(FaultKind::Mislabelling, 30.0);
        let (faulty, report) = Injector::new(8).apply(&tt.train, &plan);
        let mut ctx = TrainContext::new(Scale::Tiny, 8);
        ctx.fit.epochs = 8;
        ctx.fit.batch_size = 16;
        (faulty, report.mislabelled_indices, ctx)
    }

    #[test]
    fn detector_beats_random_guessing() {
        let (faulty, truth, ctx) = setup();
        let report = NoiseDetector::default().detect(&faulty, &ctx);
        let quality = report.evaluate(&truth);
        // Random flagging at the same budget would have precision ~30%
        // (the injection rate); the detector must do better.
        assert!(
            quality.precision > 0.35,
            "precision {} not better than chance",
            quality.precision
        );
        assert!(quality.recall > 0.2, "recall {}", quality.recall);
    }

    #[test]
    fn strong_probe_separates_clean_from_noisy() {
        // At smoke scale the probe classifies the CIFAR analogue well, so
        // clean data yields few false positives while noisy data yields
        // many true ones — the regime the detector is designed for.
        let tt = DatasetKind::Cifar10.generate(Scale::Smoke, 9);
        let mut ctx = TrainContext::new(Scale::Smoke, 9);
        ctx.tune_for(tt.train.len());
        let clean_flags = NoiseDetector::default()
            .detect(&tt.train, &ctx)
            .suspects
            .len();
        let plan = FaultPlan::single(FaultKind::Mislabelling, 40.0);
        let (faulty, report) = Injector::new(9).apply(&tt.train, &plan);
        let noisy = NoiseDetector::default().detect(&faulty, &ctx);
        assert!(
            noisy.suspects.len() > clean_flags,
            "noisy {} vs clean {clean_flags}",
            noisy.suspects.len()
        );
        let quality = noisy.evaluate(&report.mislabelled_indices);
        assert!(quality.precision > 0.6, "precision {}", quality.precision);
        assert!(quality.recall > 0.5, "recall {}", quality.recall);
    }

    #[test]
    fn quality_math() {
        let report = DetectionReport {
            suspects: vec![0, 1, 2, 3],
            scores: vec![0.5; 8],
            thresholds: vec![0.5; 2],
        };
        let q = report.evaluate(&[0, 1, 6, 7]);
        assert!((q.precision - 0.5).abs() < 1e-6);
        assert!((q.recall - 0.5).abs() < 1e-6);
        assert!((q.f1 - 0.5).abs() < 1e-6);
        let none = report.evaluate(&[]);
        assert_eq!(none.recall, 0.0);
    }

    #[test]
    fn detect_and_filter_trains() {
        let (faulty, _, ctx) = setup();
        let mut fitted = DetectAndFilter::default().fit(ModelKind::ConvNet, &faulty, &ctx);
        let tt = DatasetKind::Cifar10.generate(Scale::Tiny, 8);
        let acc = fitted.accuracy(&tt.test);
        assert!(acc > 0.15, "accuracy {acc}");
    }

    #[test]
    fn filter_falls_back_to_the_full_set_and_counts_it() {
        let (faulty, _, _) = setup();
        let fallbacks = || tdfm_obs::global().counter("df_fallbacks").get();
        let before = fallbacks();
        let third: Vec<usize> = (0..faulty.len() / 3).collect();
        assert_eq!(
            DetectAndFilter::filtered(&faulty, &third).len(),
            faulty.len() - third.len()
        );
        let most: Vec<usize> = (0..faulty.len() * 2 / 3).collect();
        assert_eq!(
            DetectAndFilter::filtered(&faulty, &most).len(),
            faulty.len()
        );
        // Other tests share the global registry, so it may move further.
        assert!(fallbacks() > before, "the fallback is counted");
    }

    #[test]
    #[should_panic(expected = "at least two folds")]
    fn single_fold_rejected() {
        let _ = NoiseDetector::new(1, ModelKind::ConvNet);
    }

    #[test]
    fn class_starved_shard_does_not_break_thresholds() {
        // Sharding can starve a class entirely (satellite of the sharded-
        // training work): a dataset whose histogram has zero entries for
        // some class must still detect cleanly — the per-class threshold
        // guard maps empty classes to +inf instead of dividing by zero.
        let tt = DatasetKind::Cifar10.generate(Scale::Tiny, 14);
        let starved_idx: Vec<usize> = (0..tt.train.len())
            .filter(|&i| tt.train.labels()[i] != 0)
            .collect();
        let starved = tt.train.select(&starved_idx);
        assert_eq!(starved.class_histogram()[0], 0, "class 0 must be absent");
        let mut ctx = TrainContext::new(Scale::Tiny, 14);
        ctx.fit.epochs = 2;
        let report = NoiseDetector::default().detect(&starved, &ctx);
        assert!(report.thresholds[0].is_infinite());
        assert!(report.suspects.iter().all(|&s| s < starved.len()));
    }

    #[test]
    fn localizer_ranks_fully_flipped_holdout_first() {
        // Train a model on clean data, then hand the localizer holdout
        // shards where one shard's labels are all wrong: that shard's
        // disagreement must dominate.
        let tt = DatasetKind::Pneumonia.generate(Scale::Tiny, 15);
        let mut ctx = TrainContext::new(Scale::Tiny, 15);
        ctx.tune_for(tt.train.len());
        let mut fitted = Baseline.fit(ModelKind::ConvNet, &tt.train, &ctx);
        let FittedModel::Single(net) = &mut fitted else {
            panic!("baseline fits a single model");
        };
        let mut holdouts = tt.test.shards(4);
        let flipped: Vec<u32> = holdouts[2]
            .labels()
            .iter()
            .map(|&l| (l + 1) % holdouts[2].classes() as u32)
            .collect();
        holdouts[2] = holdouts[2].with_labels(flipped);
        let report = localize_faulty_shards(net, &holdouts);
        assert_eq!(report.top(), 2, "scores {:?}", report.scores);
        assert_eq!(report.suspects.len(), 4);
        assert!(report.scores.iter().all(|s| (0.0..=1.0).contains(s)));
    }

    #[test]
    fn localizer_breaks_ties_by_ascending_shard() {
        // Identical shards score identically, so the ranking must fall
        // back to ascending shard index — the deterministic tie-break.
        let tt = DatasetKind::Pneumonia.generate(Scale::Tiny, 16);
        let mut ctx = TrainContext::new(Scale::Tiny, 16);
        ctx.fit.epochs = 1;
        let mut fitted = Baseline.fit(ModelKind::ConvNet, &tt.train, &ctx);
        let FittedModel::Single(net) = &mut fitted else {
            panic!("baseline fits a single model");
        };
        let shard = tt.test.shards(4).remove(0);
        let holdouts = vec![shard.clone(), shard.clone(), shard];
        let report = localize_faulty_shards(net, &holdouts);
        assert_eq!(report.suspects, vec![0, 1, 2]);
        assert_eq!(report.scores[0], report.scores[1]);
    }
}
