//! Traffic-sign recognition for an AV fleet whose training pipeline
//! ingested crowd-sourced labels — a third of which are wrong (the paper
//! cites Udacity Dataset 2 with 33% missing/incorrect labels).
//!
//! Shows why the paper's ensemble wins: each member makes *different*
//! mistakes, and the majority vote absorbs them.
//!
//! Run with: `cargo run --release --example traffic_sign_fleet`

use tdfm::core::technique::{TechniqueKind, TrainContext};
use tdfm::core::FittedModel;
use tdfm::data::{DatasetKind, Scale};
use tdfm::inject::{FaultKind, FaultPlan, Injector};
use tdfm::nn::models::ModelKind;

fn main() {
    let scale = Scale::from_env();
    println!("traffic-sign fleet at scale '{scale}'\n");
    let data = DatasetKind::Gtsrb.generate(scale, 3);
    let mut ctx = TrainContext::new(scale, 3);
    ctx.tune_for(data.train.len());

    // Crowd-sourced labels: 33% mislabelled, like Udacity Dataset 2.
    let plan = FaultPlan::single(FaultKind::Mislabelling, 33.0);
    let (faulty_train, report) = Injector::new(3).apply(&data.train, &plan);
    println!(
        "training on {} signs, {} of them mislabelled\n",
        report.before, report.mislabelled
    );

    let mut fitted = TechniqueKind::Ensemble
        .build()
        .fit(ModelKind::ConvNet, &faulty_train, &ctx);

    // Per-member accuracy vs the vote.
    if let FittedModel::Ensemble(members) = &mut fitted {
        for net in members.iter_mut() {
            let acc = net.accuracy(data.test.images(), data.test.labels(), 64);
            println!("  member {:<10} accuracy {:>5.1}%", net.name(), 100.0 * acc);
        }
    }
    let vote_acc = fitted.accuracy(&data.test);
    println!(
        "  {:<17} accuracy {:>5.1}%",
        "majority vote",
        100.0 * vote_acc
    );

    println!(
        "\nThe vote should match or beat the best member: a sign is misread only\n\
         when a majority of five structurally different networks fail together."
    );
}
