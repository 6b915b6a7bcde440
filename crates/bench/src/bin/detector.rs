//! Extension study: label-noise *detection* vs the paper's mitigation
//! techniques.
//!
//! The paper deliberately scopes detection out (Section III-A); this
//! binary puts a confident-learning-style detect-and-filter strategy on
//! the same harness and compares it with the baseline, label smoothing
//! and the ensemble under mislabelling faults, and reports raw detection
//! precision/recall against the injector's ground truth.

use tdfm_bench::{ad_cell, banner};
use tdfm_core::detect::NoiseDetector;
use tdfm_core::technique::TrainContext;
use tdfm_core::{ExperimentConfig, Runner, TechniqueKind};
use tdfm_data::{DatasetKind, Scale};
use tdfm_inject::{FaultKind, FaultPlan, Injector};
use tdfm_nn::models::ModelKind;

fn main() {
    let scale = Scale::from_env();
    banner(
        "Extension: detection vs mitigation (CIFAR-10, ConvNet)",
        scale,
        "Section III-A scope",
    );
    let runner = Runner::new();

    // Raw detection quality per fault amount.
    println!("detector quality (3-fold confident learning):");
    println!(
        "{:<10}{:>12}{:>12}{:>12}{:>12}",
        "fault %", "flagged", "precision", "recall", "F1"
    );
    for percent in [10.0f32, 30.0, 50.0] {
        let data = DatasetKind::Cifar10.generate(scale, 13);
        let plan = FaultPlan::single(FaultKind::Mislabelling, percent);
        let (faulty, report) = Injector::new(13).apply(&data.train, &plan);
        let mut ctx = TrainContext::new(scale, 13);
        ctx.tune_for(faulty.len());
        let detection = NoiseDetector::default().detect(&faulty, &ctx);
        let quality = detection.evaluate(&report.mislabelled_indices);
        println!(
            "{:<10}{:>12}{:>11.1}%{:>11.1}%{:>11.1}%",
            percent,
            detection.suspects.len(),
            100.0 * quality.precision,
            100.0 * quality.recall,
            100.0 * quality.f1,
        );
    }

    // AD comparison: detect-and-filter vs the paper's techniques, all
    // twelve cells fanned out as one grid.
    println!("\nAD under mislabelling (lower is better):");
    println!("{:<22}{:>15}{:>15}{:>15}", "Technique", "10%", "30%", "50%");
    let percents = [10.0f32, 30.0, 50.0];
    let repetitions = scale.repetitions().min(2);
    let configs: Vec<ExperimentConfig> = [
        TechniqueKind::Baseline,
        TechniqueKind::LabelSmoothing,
        TechniqueKind::Ensemble,
        TechniqueKind::DetectAndFilter,
    ]
    .into_iter()
    .flat_map(|technique| {
        percents.map(|percent| ExperimentConfig {
            dataset: DatasetKind::Cifar10,
            model: ModelKind::ConvNet,
            technique,
            fault_plan: FaultPlan::single(FaultKind::Mislabelling, percent),
            scale,
            repetitions,
            seed: 13,
        })
    })
    .collect();
    let results = runner.run_grid(&configs);
    for row in results.chunks(percents.len()) {
        print!("{:<22}", row[0].config.technique.full_name());
        for result in row {
            print!("{:>15}", ad_cell(&result.ad));
        }
        println!();
    }
    // A detector that flags more than half the set leaves the fit on the
    // full set: such a cell is the baseline under another name.
    println!(
        "detect-and-filter fell back to the full training set in {} of {} fits",
        tdfm_obs::global().counter("df_fallbacks").get(),
        percents.len() * repetitions
    );
    println!(
        "\nExpectation: detect-and-filter lands between the baseline and the best\n\
         mitigation — it removes most flipped labels but also some clean samples."
    );
}
