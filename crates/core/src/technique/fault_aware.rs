//! Fault-aware training: hardening against *model* faults (SEU bit-flips)
//! rather than data faults.
//!
//! Unlike the five TDFM techniques of Section III-B, which target faulty
//! training *data*, this technique targets the second fault axis the paper
//! motivates (transient hardware faults in the model itself): every
//! optimisation step runs its forward/backward pass under a few random
//! weight bit-flips, which are reverted bit-exactly before the optimiser
//! updates the clean weights. The model thereby learns parameter basins
//! that stay accurate when a bit flips at inference time — the
//! fault-injection-during-training recipe of the fault-aware-training
//! literature (see `tdfm_nn::trainer::fit_fault_aware`).

use super::{FittedModel, Mitigation, TrainContext};
use tdfm_data::LabeledDataset;
use tdfm_nn::loss::CrossEntropy;
use tdfm_nn::models::ModelKind;
use tdfm_nn::trainer::{fit_fault_aware, FaultAwareConfig, TargetSource};

/// Trains with transient weight bit-flips injected into every step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultAwareTraining {
    /// Simultaneous flips injected per step (at least one).
    pub(crate) flips_per_step: usize,
    /// Flipped bit positions are drawn from `bit_lo..=bit_hi` (`< 32`).
    pub(crate) bit_lo: u32,
    pub(crate) bit_hi: u32,
}

impl Mitigation for FaultAwareTraining {
    fn fit(&self, model: ModelKind, train: &LabeledDataset, ctx: &TrainContext) -> FittedModel {
        let mut net = model.build(&ctx.model_config(train));
        let fa = FaultAwareConfig {
            flips_per_step: self.flips_per_step,
            bit_lo: self.bit_lo,
            bit_hi: self.bit_hi,
            // Independent of the shuffle stream, distinct per repetition.
            seed: ctx.seed ^ 0xFA_7A,
        };
        fit_fault_aware(
            &mut net,
            &CrossEntropy,
            train.images(),
            &TargetSource::Hard(train.labels().to_vec()),
            &ctx.fit,
            &fa,
        );
        FittedModel::Single(net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::technique::test_support::tiny_setup;
    use crate::technique::TechniqueKind;

    #[test]
    fn fault_aware_training_learns_tiny_pneumonia() {
        let (train, test, ctx) = tiny_setup();
        let mut fitted =
            TechniqueKind::FaultAwareTraining
                .build()
                .fit(ModelKind::ConvNet, &train, &ctx);
        let acc = fitted.accuracy(&test);
        assert!(acc > 0.4, "accuracy {acc}");
        assert_eq!(fitted.member_count(), 1);
    }

    #[test]
    fn fault_aware_training_is_deterministic() {
        let (train, test, ctx) = tiny_setup();
        let preds = |_: usize| {
            let mut fitted =
                TechniqueKind::FaultAwareTraining
                    .build()
                    .fit(ModelKind::ConvNet, &train, &ctx);
            fitted.predict(test.images())
        };
        assert_eq!(preds(0), preds(1));
    }

    #[test]
    #[should_panic(expected = "needs flips")]
    fn zero_flips_rejected() {
        let _ = TechniqueKind::fault_aware(0, 0, 31);
    }

    #[test]
    #[should_panic(expected = "invalid bit range")]
    fn bad_bit_range_rejected() {
        let _ = TechniqueKind::fault_aware(1, 8, 32);
    }
}
