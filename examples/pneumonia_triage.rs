//! The paper's motivating scenario (Section II): a pneumonia-screening
//! model trained on partially mislabelled X-rays, and what that does to
//! patients.
//!
//! Class 0 = normal, class 1 = pneumonia. A *false negative* (pneumonia
//! read as normal) leaves a patient untreated; a *false positive* subjects
//! a healthy patient to unnecessary procedures.
//!
//! Run with: `cargo run --release --example pneumonia_triage`

use tdfm::core::technique::{Baseline, Mitigation, TechniqueKind, TrainContext};
use tdfm::data::{DatasetKind, Scale};
use tdfm::inject::{FaultKind, FaultPlan, Injector};
use tdfm::nn::models::ModelKind;

fn triage(preds: &[u32], labels: &[u32]) -> (usize, usize) {
    let mut false_neg = 0;
    let mut false_pos = 0;
    for (&p, &l) in preds.iter().zip(labels) {
        if l == 1 && p == 0 {
            false_neg += 1;
        }
        if l == 0 && p == 1 {
            false_pos += 1;
        }
    }
    (false_neg, false_pos)
}

fn main() {
    let scale = Scale::from_env();
    println!("pneumonia triage at scale '{scale}'\n");
    let data = DatasetKind::Pneumonia.generate(scale, 2);
    let mut ctx = TrainContext::new(scale, 2);
    ctx.tune_for(data.train.len());

    // Golden model: trained on the expert-verified dataset.
    let mut golden = Baseline.fit(ModelKind::ResNet50, &data.train, &ctx);
    let golden_preds = golden.predict(data.test.images());
    let (fn0, fp0) = triage(&golden_preds, data.test.labels());
    println!(
        "golden ResNet50  : {:.0}% accurate, {} untreated pneumonia, {} unnecessary procedures",
        100.0 * golden.accuracy(&data.test),
        fn0,
        fp0
    );

    // 10% of labels corrupted — within the 7.4-20% range reported for
    // public medical datasets.
    let plan = FaultPlan::single(FaultKind::Mislabelling, 10.0);
    let (faulty_train, _) = Injector::new(2).apply(&data.train, &plan);
    let mut faulty = Baseline.fit(ModelKind::ResNet50, &faulty_train, &ctx);
    let faulty_preds = faulty.predict(data.test.images());
    let (fn1, fp1) = triage(&faulty_preds, data.test.labels());
    println!(
        "faulty ResNet50  : {:.0}% accurate, {} untreated pneumonia, {} unnecessary procedures",
        100.0 * faulty.accuracy(&data.test),
        fn1,
        fp1
    );

    // The paper's most resilient technique: a heterogeneous ensemble.
    let mut protected =
        TechniqueKind::Ensemble
            .build()
            .fit(ModelKind::ResNet50, &faulty_train, &ctx);
    let protected_preds = protected.predict(data.test.images());
    let (fn2, fp2) = triage(&protected_preds, data.test.labels());
    println!(
        "ensemble (5 nets): {:.0}% accurate, {} untreated pneumonia, {} unnecessary procedures",
        100.0 * protected.accuracy(&data.test),
        fn2,
        fp2
    );

    println!(
        "\naccuracy delta vs golden: unprotected {:.1}%, ensemble {:.1}%",
        100.0 * tdfm::core::accuracy_delta(&golden_preds, &faulty_preds, data.test.labels()),
        100.0 * tdfm::core::accuracy_delta(&golden_preds, &protected_preds, data.test.labels()),
    );
}
