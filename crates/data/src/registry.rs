//! The three datasets of Table II and their synthetic specs.

use crate::synth::{ClassWeights, SynthSpec};
use crate::{LabeledDataset, Scale};
use tdfm_json::{json_struct_to, json_unit_enum};

/// The datasets of the study (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// 10 balanced object classes, cluttered colour images.
    Cifar10,
    /// 43 traffic-sign classes, focused colour images, imbalanced.
    Gtsrb,
    /// 2-class grayscale chest X-rays, ~1/10 the size of the others.
    Pneumonia,
}

/// Table II row: the paper's dataset statistics plus this reproduction's
/// synthetic sizes at a given scale.
#[derive(Debug, Clone)]
pub struct DatasetInfo {
    /// Dataset name as printed in the paper.
    pub name: &'static str,
    /// The paper's training-set size.
    pub paper_train: usize,
    /// The paper's test-set size.
    pub paper_test: usize,
    /// The paper's task description.
    pub task: &'static str,
    /// Number of classes.
    pub classes: usize,
}

json_unit_enum!(DatasetKind {
    Cifar10,
    Gtsrb,
    Pneumonia
});
json_struct_to!(DatasetInfo {
    name,
    paper_train,
    paper_test,
    task,
    classes
});

/// A train/test pair drawn from the same synthetic distribution.
#[derive(Debug, Clone)]
pub struct TrainTest {
    /// Training split (this is what the fault injector corrupts).
    pub train: LabeledDataset,
    /// Held-out test split (never injected; used for accuracy and AD).
    pub test: LabeledDataset,
}

impl DatasetKind {
    /// All datasets in Table II order.
    pub const ALL: [DatasetKind; 3] = [
        DatasetKind::Cifar10,
        DatasetKind::Gtsrb,
        DatasetKind::Pneumonia,
    ];

    /// Dataset name as printed in the paper.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Cifar10 => "CIFAR-10",
            DatasetKind::Gtsrb => "GTSRB",
            DatasetKind::Pneumonia => "Pneumonia",
        }
    }

    /// Number of label classes (Table II).
    pub fn classes(self) -> usize {
        match self {
            DatasetKind::Cifar10 => 10,
            DatasetKind::Gtsrb => 43,
            DatasetKind::Pneumonia => 2,
        }
    }

    /// Table II metadata.
    pub fn info(self) -> DatasetInfo {
        match self {
            DatasetKind::Cifar10 => DatasetInfo {
                name: self.name(),
                paper_train: 50_000,
                paper_test: 10_000,
                task: "Objects and animals",
                classes: 10,
            },
            DatasetKind::Gtsrb => DatasetInfo {
                name: self.name(),
                paper_train: 39_209,
                paper_test: 12_630,
                task: "Traffic signs",
                classes: 43,
            },
            DatasetKind::Pneumonia => DatasetInfo {
                name: self.name(),
                paper_train: 5_239,
                paper_test: 624,
                task: "Chest X-rays",
                classes: 2,
            },
        }
    }

    /// The synthetic distribution standing in for this dataset.
    ///
    /// The knob values encode the paper's explanations (Section IV-D):
    /// CIFAR-10 gets clutter and distractors, GTSRB gets focus and a
    /// long-tailed class distribution, Pneumonia is grayscale and small.
    pub fn synth_spec(self, scale: Scale) -> SynthSpec {
        let side = scale.image_side();
        match self {
            DatasetKind::Cifar10 => SynthSpec {
                classes: 10,
                channels: 3,
                side,
                prototype_amplitude: 0.9,
                sample_noise: 0.30,
                clutter: 0.65,
                focus: 0.0,
                weights: ClassWeights::Balanced,
                prototype_seed: 0xC1FA_0010,
            },
            DatasetKind::Gtsrb => SynthSpec {
                classes: 43,
                channels: 3,
                side,
                prototype_amplitude: 2.2,
                sample_noise: 0.15,
                clutter: 0.10,
                focus: 0.6,
                weights: ClassWeights::Geometric(0.96),
                prototype_seed: 0x6757_0043,
            },
            DatasetKind::Pneumonia => SynthSpec {
                classes: 2,
                channels: 1,
                side,
                prototype_amplitude: 0.55,
                sample_noise: 0.55,
                clutter: 0.35,
                focus: 0.0,
                // 74% pneumonia / 26% normal, like the Kermany dataset.
                weights: ClassWeights::Explicit(vec![0.26, 0.74]),
                prototype_seed: 0x1446_0002,
            },
        }
    }

    /// Training-set size at a scale (Pneumonia is ~1/10 the others;
    /// Table II).
    pub fn train_size(self, scale: Scale) -> usize {
        match self {
            DatasetKind::Cifar10 => scale.train_size(),
            // GTSRB is slightly smaller than CIFAR-10 in the paper, and its
            // size must cover 43 classes.
            DatasetKind::Gtsrb => (scale.train_size() * 4 / 5).max(43 * 2),
            DatasetKind::Pneumonia => (scale.train_size() / 10).max(24),
        }
    }

    /// Test-set size at a scale.
    pub fn test_size(self, scale: Scale) -> usize {
        match self {
            DatasetKind::Cifar10 => scale.test_size(),
            DatasetKind::Gtsrb => scale.test_size().max(43 * 2),
            DatasetKind::Pneumonia => (scale.test_size() / 4).max(16),
        }
    }

    /// Generates the train/test pair for this dataset.
    ///
    /// `seed` perturbs the *samples* only; the class prototypes are fixed
    /// per dataset so repeated experiments draw from the same underlying
    /// distribution, exactly as the paper retrains on a fixed dataset.
    pub fn generate(self, scale: Scale, seed: u64) -> TrainTest {
        let [train, test] = self.synth_spec(scale).generate_splits([
            (self.train_size(scale), seed ^ 0x0071_2411),
            (self.test_size(scale), seed ^ 0x007E_5722),
        ]);
        TrainTest { train, test }
    }
}

impl std::fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_metadata_matches_paper() {
        let c = DatasetKind::Cifar10.info();
        assert_eq!(
            (c.paper_train, c.paper_test, c.classes),
            (50_000, 10_000, 10)
        );
        let g = DatasetKind::Gtsrb.info();
        assert_eq!(
            (g.paper_train, g.paper_test, g.classes),
            (39_209, 12_630, 43)
        );
        let p = DatasetKind::Pneumonia.info();
        assert_eq!((p.paper_train, p.paper_test, p.classes), (5_239, 624, 2));
    }

    #[test]
    fn generate_produces_consistent_pair() {
        let tt = DatasetKind::Cifar10.generate(Scale::Tiny, 0);
        assert_eq!(tt.train.classes(), 10);
        assert_eq!(tt.test.classes(), 10);
        assert_eq!(tt.train.image_shape(), tt.test.image_shape());
        assert_ne!(
            tt.train.images().data()[..64],
            tt.test.images().data()[..64]
        );
    }

    #[test]
    fn pneumonia_is_an_order_of_magnitude_smaller() {
        for scale in [Scale::Smoke, Scale::Default, Scale::Full] {
            let big = DatasetKind::Cifar10.train_size(scale);
            let small = DatasetKind::Pneumonia.train_size(scale);
            assert!(small * 5 <= big, "{scale}: {small} vs {big}");
        }
    }

    #[test]
    fn gtsrb_covers_all_43_classes() {
        let tt = DatasetKind::Gtsrb.generate(Scale::Tiny, 1);
        let hist = tt.train.class_histogram();
        assert_eq!(hist.len(), 43);
        assert!(hist.iter().all(|&c| c >= 1), "{hist:?}");
        // Long-tailed: most frequent class strictly more common than rarest.
        assert!(hist.iter().max() > hist.iter().min());
    }

    #[test]
    fn pneumonia_is_imbalanced_towards_class_one() {
        let tt = DatasetKind::Pneumonia.generate(Scale::Smoke, 2);
        let hist = tt.train.class_histogram();
        assert!(hist[1] > hist[0] * 2, "{hist:?}");
    }

    #[test]
    fn pneumonia_is_grayscale() {
        let tt = DatasetKind::Pneumonia.generate(Scale::Tiny, 3);
        assert_eq!(tt.train.image_shape().0, 1);
    }

    /// FNV-1a over the bits of every image and label of both splits.
    fn digest(tt: &TrainTest) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for ds in [&tt.train, &tt.test] {
            let floats = ds.images().data().iter().map(|v| v.to_bits());
            for w in floats.chain(ds.labels().iter().copied()) {
                for b in w.to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        h
    }

    /// Every result and benchmark pin rests on these bits: prototypes,
    /// background fields, distractors and pixel noise. Smoke scale is the
    /// benchmark's: 8×8 images, whose bilinear upsampling Tiny's 6×6 does
    /// not cover.
    #[test]
    fn datasets_match_their_pins() {
        for (kind, scale, pin) in [
            (DatasetKind::Cifar10, Scale::Tiny, 0x3d98_8676_3cc2_f3da_u64),
            (DatasetKind::Gtsrb, Scale::Tiny, 0x4674_641d_51b0_e3e2),
            (DatasetKind::Pneumonia, Scale::Tiny, 0x68c5_742c_3446_7a95),
            (DatasetKind::Cifar10, Scale::Smoke, 0xf5f0_a291_736d_34b4),
            (DatasetKind::Gtsrb, Scale::Smoke, 0x97ca_fad6_aaa8_58ff),
            (DatasetKind::Pneumonia, Scale::Smoke, 0xd2b1_773b_a5ba_e4e8),
        ] {
            let got = digest(&kind.generate(scale, 0));
            assert_eq!(got, pin, "{kind}/{scale}: digest {got:#018x}");
        }
    }

    #[test]
    fn seeds_change_samples_not_structure() {
        let a = DatasetKind::Cifar10.generate(Scale::Tiny, 10);
        let b = DatasetKind::Cifar10.generate(Scale::Tiny, 11);
        assert_eq!(a.train.len(), b.train.len());
        assert_ne!(a.train.images().data(), b.train.images().data());
    }
}
