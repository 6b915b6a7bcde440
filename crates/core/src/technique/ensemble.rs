//! Ensemble learning (paper Section III-B5).

use super::{FittedModel, Mitigation, TrainContext};
use crate::experiment::run_indexed;
use tdfm_data::LabeledDataset;
use tdfm_nn::loss::CrossEntropy;
use tdfm_nn::models::ModelKind;
use tdfm_nn::trainer::{fit, FitConfig, TargetSource};

/// A majority-vote ensemble of independently trained networks.
///
/// The paper's ensemble is the five models with the lowest baseline AD —
/// ConvNet, MobileNet, ResNet18, VGG11 and VGG16 (Section IV) — each
/// trained on the same (faulty) data with its own initialisation, combined
/// by simple majority vote at inference time. Architecture diversity is
/// what lets the ensemble tolerate faults: a fault must fool a majority of
/// structurally different models simultaneously.
///
/// Members are trained on worker threads (the study's stand-in for the
/// paper's GPU cluster) under the two-level thread budget, so members and
/// their kernels together never exceed it. The `model` argument of
/// [`Mitigation::fit`] is ignored — the ensemble's composition is part of
/// the technique, exactly as in the paper's figures where the "Ens" bar is
/// the same in every per-model panel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ensemble {
    /// The member architectures, in `members[..len]`; the rest is filler.
    pub(crate) members: [ModelKind; Ensemble::MAX_MEMBERS],
    pub(crate) len: usize,
}

impl Ensemble {
    /// The largest ensemble a spec can hold (the paper's has five).
    pub const MAX_MEMBERS: usize = 8;

    /// The member architectures.
    pub fn members(&self) -> &[ModelKind] {
        &self.members[..self.len]
    }
}

impl Mitigation for Ensemble {
    fn fit(&self, _model: ModelKind, train: &LabeledDataset, ctx: &TrainContext) -> FittedModel {
        let targets = TargetSource::Hard(train.labels().to_vec());
        FittedModel::Ensemble(run_indexed(0..self.len, |i| {
            let mut cfg = ctx.model_config(train);
            // Decorrelate members: distinct init and batch order.
            cfg.seed = ctx.seed ^ ((i as u64 + 1) * 0x9E37_79B9);
            let mut net = self.members[i].build(&cfg);
            fit(
                &mut net,
                &CrossEntropy,
                train.images(),
                &targets,
                &FitConfig {
                    shuffle_seed: ctx.fit.shuffle_seed ^ (i as u64) << 8,
                    ..ctx.fit
                },
            );
            net
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::technique::test_support::tiny_setup;
    use crate::technique::{Spec, TechniqueKind};

    #[test]
    fn paper_default_has_the_five_models() {
        let TechniqueKind(Spec::Ensemble(e)) = TechniqueKind::Ensemble else {
            panic!("the paper's ensemble is an ensemble");
        };
        assert_eq!(
            e.members(),
            &[
                ModelKind::ConvNet,
                ModelKind::MobileNet,
                ModelKind::ResNet18,
                ModelKind::Vgg11,
                ModelKind::Vgg16,
            ]
        );
    }

    #[test]
    fn ensemble_learns_tiny_pneumonia() {
        let (train, test, ctx) = tiny_setup();
        // Three members keep the unit test quick; the experiment runner
        // uses the paper's five.
        let ens = TechniqueKind::ensemble(&[
            ModelKind::ConvNet,
            ModelKind::DeconvNet,
            ModelKind::MobileNet,
        ])
        .build();
        let mut fitted = ens.fit(ModelKind::ConvNet, &train, &ctx);
        assert_eq!(fitted.member_count(), 3);
        assert!(fitted.accuracy(&test) > 0.5);
    }

    #[test]
    fn homogeneous_members_differ_by_seed() {
        let (train, test, ctx) = tiny_setup();
        let ens = TechniqueKind::ensemble(&[ModelKind::ConvNet; 2]).build();
        let mut fitted = ens.fit(ModelKind::ConvNet, &train, &ctx);
        if let FittedModel::Ensemble(nets) = &mut fitted {
            let a = nets[0].logits(test.images(), 32);
            let b = nets[1].logits(test.images(), 32);
            assert_ne!(a.data(), b.data(), "members should not be identical");
        } else {
            panic!("expected an ensemble");
        }
    }

    #[test]
    fn members_predict_identically_under_any_thread_budget() {
        use tdfm_tensor::parallel::with_inner_threads;
        let (train, test, ctx) = tiny_setup();
        let ens = TechniqueKind::ensemble(&[
            ModelKind::ConvNet,
            ModelKind::DeconvNet,
            ModelKind::MobileNet,
        ])
        .build();
        let predict = |threads| {
            with_inner_threads(threads, || {
                ens.fit(ModelKind::ConvNet, &train, &ctx)
                    .predict(test.images())
            })
        };
        assert_eq!(predict(1), predict(4));
    }

    #[test]
    fn majority_vote_is_deterministic() {
        let (train, test, ctx) = tiny_setup();
        let ens = TechniqueKind::ensemble(&[ModelKind::ConvNet; 3]).build();
        let mut a = ens.fit(ModelKind::ConvNet, &train, &ctx);
        let mut b = ens.fit(ModelKind::ConvNet, &train, &ctx);
        assert_eq!(a.predict(test.images()), b.predict(test.images()));
    }
}
