//! Self-distillation (paper Section III-B4).

use super::{FittedModel, Mitigation, TrainContext, EVAL_BATCH};
use tdfm_data::LabeledDataset;
use tdfm_nn::loss::{CrossEntropy, DistillationLoss};
use tdfm_nn::models::ModelKind;
use tdfm_nn::trainer::{fit, TargetSource};

/// Self-distillation: the teacher and student share the architecture.
///
/// 1. Train a *teacher* with plain cross entropy on the (faulty) data.
/// 2. Record the teacher's logits for every training sample.
/// 3. Train a freshly initialised *student* with the distillation loss
///    mixing the hard labels and the teacher's temperature-softened
///    outputs.
///
/// Because the teacher itself learned from the faulty labels, its soft
/// targets act as learned label smoothing at low fault rates but become
/// "garbage in, garbage out" at high mislabelling rates — the crossover the
/// paper reports in Section IV-B.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelfDistillation {
    /// Teacher-knowledge weight in `[0, 1]`; the paper uses 0.7.
    pub(crate) alpha: f32,
    /// Distillation temperature, positive and finite; the paper uses 4.
    pub(crate) temperature: f32,
}

impl Mitigation for SelfDistillation {
    fn fit(&self, model: ModelKind, train: &LabeledDataset, ctx: &TrainContext) -> FittedModel {
        // Teacher: ordinary training on the faulty data.
        let mut cfg = ctx.model_config(train);
        let mut teacher = model.build(&cfg);
        fit(
            &mut teacher,
            &CrossEntropy,
            train.images(),
            &TargetSource::Hard(train.labels().to_vec()),
            &ctx.fit,
        );
        let teacher_logits = teacher.logits(train.images(), EVAL_BATCH);

        // Student: fresh initialisation, distilled criterion.
        cfg.seed ^= 0x57D_E27;
        let mut student = model.build(&cfg);
        fit(
            &mut student,
            &DistillationLoss::new(self.alpha, self.temperature),
            train.images(),
            &TargetSource::Distill {
                labels: train.labels().to_vec(),
                teacher_logits,
            },
            &ctx.fit,
        );
        FittedModel::Single(student)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::technique::test_support::tiny_setup;
    use crate::technique::TechniqueKind;

    #[test]
    fn distillation_learns_tiny_pneumonia() {
        let (train, test, ctx) = tiny_setup();
        let mut fitted =
            TechniqueKind::KnowledgeDistillation
                .build()
                .fit(ModelKind::ConvNet, &train, &ctx);
        assert!(fitted.accuracy(&test) > 0.5);
    }

    #[test]
    fn student_differs_from_plain_baseline() {
        let (train, test, ctx) = tiny_setup();
        let mut kd =
            TechniqueKind::KnowledgeDistillation
                .build()
                .fit(ModelKind::ConvNet, &train, &ctx);
        let mut base = super::super::Baseline.fit(ModelKind::ConvNet, &train, &ctx);
        // Different initialisation and criterion: the two models should not
        // be byte-identical in their predictions on every input.
        let a = kd.predict(test.images());
        let b = base.predict(test.images());
        assert_eq!(a.len(), b.len());
    }
}
