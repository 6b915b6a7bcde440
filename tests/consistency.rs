//! Cross-crate consistency: the survey's representatives line up with the
//! implemented techniques, registries match the paper's tables, and the
//! injector composes correctly with dataset generation.

use tdfm::core::TechniqueKind;
use tdfm::data::{DatasetKind, Scale};
use tdfm::inject::{FaultKind, FaultPlan, Injector};
use tdfm::nn::models::ModelKind;
use tdfm::survey::{catalog, select_representatives, Approach};

#[test]
fn survey_representatives_cover_all_implemented_techniques() {
    let cat = catalog();
    let reps = select_representatives(&cat);
    // Five approaches -> five representatives -> five TechniqueKind
    // variants beyond the baseline.
    assert_eq!(reps.len(), TechniqueKind::ALL.len() - 1);
    let approach_for = |t: TechniqueKind| match t.abbrev() {
        // Neither the unprotected baseline nor fault-aware training (a
        // model-fault mitigation, beyond the paper's data-fault survey)
        // maps to a surveyed approach.
        "Base" | "FAT" => None,
        "LS" => Some(Approach::LabelSmoothing),
        "LC" => Some(Approach::LabelCorrection),
        "RL" => Some(Approach::RobustLoss),
        "KD" => Some(Approach::KnowledgeDistillation),
        "Ens" => Some(Approach::Ensemble),
        other => panic!("column {other} is not mapped"),
    };
    for kind in TechniqueKind::ALL_EXTENDED {
        if let Some(approach) = approach_for(kind) {
            assert!(
                reps.iter().any(|t| t.approach == approach),
                "{kind} has no survey representative"
            );
        }
    }
}

#[test]
fn dataset_registry_matches_paper_table_ii() {
    assert_eq!(DatasetKind::ALL.len(), 3);
    assert_eq!(DatasetKind::Cifar10.classes(), 10);
    assert_eq!(DatasetKind::Gtsrb.classes(), 43);
    assert_eq!(DatasetKind::Pneumonia.classes(), 2);
    // The generated data agrees with the registry.
    for kind in DatasetKind::ALL {
        let tt = kind.generate(Scale::Tiny, 0);
        assert_eq!(tt.train.classes(), kind.classes());
        assert_eq!(tt.train.len(), kind.train_size(Scale::Tiny));
        assert_eq!(tt.test.len(), kind.test_size(Scale::Tiny));
    }
}

#[test]
fn model_registry_matches_paper_table_iii() {
    assert_eq!(ModelKind::ALL.len(), 7);
    let names: Vec<&str> = ModelKind::ALL.iter().map(|m| m.name()).collect();
    for expected in [
        "ConvNet",
        "DeconvNet",
        "VGG11",
        "VGG16",
        "ResNet18",
        "ResNet50",
        "MobileNet",
    ] {
        assert!(names.contains(&expected), "missing {expected}");
    }
}

#[test]
fn injector_composes_with_every_dataset() {
    let plan = FaultPlan::single(FaultKind::Mislabelling, 25.0)
        .and(FaultKind::Repetition, 10.0)
        .and(FaultKind::Removal, 10.0);
    for kind in DatasetKind::ALL {
        let tt = kind.generate(Scale::Tiny, 5);
        let before = tt.train.len();
        let (faulty, report) = Injector::new(5).apply(&tt.train, &plan);
        assert_eq!(report.before, before, "{kind}");
        assert_eq!(report.after, faulty.len(), "{kind}");
        assert_eq!(faulty.classes(), tt.train.classes(), "{kind}");
        // Mislabelled count is exact.
        assert_eq!(
            report.mislabelled,
            (0.25f32 * before as f32).round() as usize,
            "{kind}"
        );
    }
}

#[test]
fn fault_labels_render_for_reporting() {
    let plan = FaultPlan::single(FaultKind::Mislabelling, 30.0).and(FaultKind::Removal, 10.0);
    assert_eq!(plan.label(), "Mislabelling 30% + Removal 10%");
    assert_eq!(FaultPlan::none().label(), "clean");
}
