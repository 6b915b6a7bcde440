//! Quickstart: train a model on faulty data, watch accuracy drop, then
//! protect it with a TDFM technique.
//!
//! Run with: `cargo run --release --example quickstart`

use tdfm::core::technique::{Baseline, Mitigation, TechniqueKind, TrainContext};
use tdfm::data::{DatasetKind, Scale};
use tdfm::inject::{FaultKind, FaultPlan, Injector};
use tdfm::nn::models::ModelKind;

fn main() {
    let scale = Scale::from_env();
    println!("quickstart at scale '{scale}' (set TDFM_SCALE to change)\n");

    // 1. A synthetic stand-in for GTSRB: 43 traffic-sign classes.
    let data = DatasetKind::Gtsrb.generate(scale, 1);
    println!(
        "dataset: {} train / {} test images, {} classes",
        data.train.len(),
        data.test.len(),
        data.train.classes()
    );

    // 2. Train the golden (fault-free) model.
    let mut ctx = TrainContext::new(scale, 1);
    ctx.tune_for(data.train.len());
    let mut golden = Baseline.fit(ModelKind::ConvNet, &data.train, &ctx);
    println!(
        "golden accuracy          : {:.1}%",
        100.0 * golden.accuracy(&data.test)
    );

    // 3. Inject 30% mislabelling faults — the dominant fault type in
    //    real-world datasets per the paper's survey.
    let plan = FaultPlan::single(FaultKind::Mislabelling, 30.0);
    let (faulty_train, report) = Injector::new(1).apply(&data.train, &plan);
    println!(
        "injected: {} of {} training labels flipped",
        report.mislabelled, report.before
    );

    // 4. The unprotected model suffers.
    let mut faulty = Baseline.fit(ModelKind::ConvNet, &faulty_train, &ctx);
    println!(
        "unprotected accuracy     : {:.1}%",
        100.0 * faulty.accuracy(&data.test)
    );

    // 5. Label smoothing (the paper's runner-up technique) recovers much
    //    of the loss at negligible extra cost.
    let mut protected =
        TechniqueKind::LabelSmoothing
            .build()
            .fit(ModelKind::ConvNet, &faulty_train, &ctx);
    println!(
        "label-smoothed accuracy  : {:.1}%",
        100.0 * protected.accuracy(&data.test)
    );
}
