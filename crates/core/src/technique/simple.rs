//! Techniques that are a single training run with a different criterion:
//! the baseline, label smoothing and robust loss.

use super::{FittedModel, Mitigation, TrainContext};
use tdfm_data::LabeledDataset;
use tdfm_nn::loss::{ActivePassiveLoss, CrossEntropy, LabelRelaxationLoss};
use tdfm_nn::models::ModelKind;
use tdfm_nn::trainer::{fit, TargetSource};

/// The unprotected model: plain cross entropy on the (faulty) data.
///
/// Every figure in the paper compares techniques against this baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct Baseline;

impl Mitigation for Baseline {
    fn fit(&self, model: ModelKind, train: &LabeledDataset, ctx: &TrainContext) -> FittedModel {
        let mut net = model.build(&ctx.model_config(train));
        fit(
            &mut net,
            &CrossEntropy,
            train.images(),
            &TargetSource::Hard(train.labels().to_vec()),
            &ctx.fit,
        );
        FittedModel::Single(net)
    }
}

/// Label smoothing via *label relaxation* — the representative
/// label-smoothing technique of Table I (Lienen & Hüllermeier).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelSmoothing {
    /// Relaxation coefficient in `(0, 1)`; the paper uses 0.1.
    pub(crate) alpha: f32,
}

impl Mitigation for LabelSmoothing {
    fn fit(&self, model: ModelKind, train: &LabeledDataset, ctx: &TrainContext) -> FittedModel {
        let mut net = model.build(&ctx.model_config(train));
        fit(
            &mut net,
            &LabelRelaxationLoss::new(self.alpha),
            train.images(),
            &TargetSource::Hard(train.labels().to_vec()),
            &ctx.fit,
        );
        FittedModel::Single(net)
    }
}

/// Robust loss: the NCE+RCE active-passive combination (Ma et al.) —
/// the representative robust-loss technique of Table I.
///
/// The paper uses the implementers' recommended hyperparameters; Ma et
/// al. recommend `alpha = beta = 1` for few-class datasets and a much
/// stronger active term (`alpha = 10`, `beta = 0.1`, their CIFAR-100
/// setting) once the class count grows, because NCE's normalisation term
/// scales with the number of classes. The weights follow that rule per
/// dataset: `(1, 1)` up to 20 classes, `(10, 0.1)` beyond.
#[derive(Debug, Clone, Copy, Default)]
pub struct RobustLoss;

impl Mitigation for RobustLoss {
    fn fit(&self, model: ModelKind, train: &LabeledDataset, ctx: &TrainContext) -> FittedModel {
        let (alpha, beta) = if train.classes() > 20 {
            (10.0, 0.1)
        } else {
            (1.0, 1.0)
        };
        let mut net = model.build(&ctx.model_config(train));
        fit(
            &mut net,
            &ActivePassiveLoss::new(alpha, beta),
            train.images(),
            &TargetSource::Hard(train.labels().to_vec()),
            &ctx.fit,
        );
        FittedModel::Single(net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::technique::test_support::tiny_setup;

    #[test]
    fn baseline_learns_tiny_pneumonia() {
        let (train, test, ctx) = tiny_setup();
        let mut fitted = Baseline.fit(ModelKind::ConvNet, &train, &ctx);
        let acc = fitted.accuracy(&test);
        // Must beat the 74% majority class at least a little.
        assert!(acc > 0.5, "accuracy {acc}");
        assert_eq!(fitted.member_count(), 1);
    }

    #[test]
    fn label_smoothing_learns_tiny_pneumonia() {
        let (train, test, ctx) = tiny_setup();
        let mut fitted = LabelSmoothing { alpha: 0.1 }.fit(ModelKind::ConvNet, &train, &ctx);
        assert!(fitted.accuracy(&test) > 0.5);
    }

    #[test]
    fn robust_loss_learns_tiny_pneumonia() {
        let (train, test, ctx) = tiny_setup();
        let mut fitted = RobustLoss.fit(ModelKind::ConvNet, &train, &ctx);
        assert!(fitted.accuracy(&test) > 0.4);
    }

    #[test]
    fn techniques_are_deterministic() {
        let (train, test, ctx) = tiny_setup();
        let preds = |_: usize| {
            let mut fitted = Baseline.fit(ModelKind::ConvNet, &train, &ctx);
            fitted.predict(test.images())
        };
        assert_eq!(preds(0), preds(1));
    }
}
