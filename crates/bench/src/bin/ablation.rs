//! Ablation studies for the design choices DESIGN.md §4 calls out:
//!
//! 1. Ensemble diversity — heterogeneous (the paper's) vs homogeneous
//!    ensembles of the same size.
//! 2. Knowledge-distillation alpha — the "garbage in, garbage out"
//!    crossover as teacher weight grows.
//! 3. Label-correction clean fraction gamma.
//! 4. Label smoothing alpha.
//! 5. Noise model: uniform vs pair-flip mislabelling.
//!
//! Every cell is a plain [`ExperimentConfig`] whose technique carries the
//! ablated parameter, so the whole study is one `run_grid` call and each
//! row is labelled from its own config.

use tdfm_bench::{ad_cell, banner};
use tdfm_core::{ExperimentConfig, Runner, TechniqueKind};
use tdfm_data::{DatasetKind, Scale};
use tdfm_inject::{FaultKind, FaultPlan};
use tdfm_nn::models::ModelKind;

fn main() {
    let scale = Scale::from_env();
    banner(
        "Ablations (GTSRB, 30% mislabelling unless noted)",
        scale,
        "DESIGN.md §4",
    );
    let cell = |technique, fault, percent| ExperimentConfig {
        dataset: DatasetKind::Gtsrb,
        model: ModelKind::ConvNet,
        technique,
        fault_plan: FaultPlan::single(fault, percent),
        scale,
        repetitions: scale.repetitions(),
        seed: 4,
    };
    let mislabel = |technique| cell(technique, FaultKind::Mislabelling, 30.0);
    let sections: [(&str, Vec<ExperimentConfig>); 5] = [
        (
            "1. Ensemble diversity: heterogeneous (paper) vs homogeneous",
            vec![
                mislabel(TechniqueKind::Ensemble),
                mislabel(TechniqueKind::ensemble(&[ModelKind::ConvNet; 5])),
            ],
        ),
        (
            "2. KD teacher weight alpha (50% mislabelling)",
            [0.3, 0.7, 0.9]
                .map(|alpha| {
                    let kd = TechniqueKind::knowledge_distillation(alpha, 4.0);
                    cell(kd, FaultKind::Mislabelling, 50.0)
                })
                .to_vec(),
        ),
        (
            "3. LC clean fraction gamma",
            [0.05, 0.2]
                .map(|gamma| mislabel(TechniqueKind::label_correction(gamma)))
                .to_vec(),
        ),
        (
            "4. Label smoothing alpha (relaxation)",
            [0.05, 0.1, 0.4]
                .map(|alpha| mislabel(TechniqueKind::label_smoothing(alpha)))
                .to_vec(),
        ),
        (
            "5. Noise model: uniform vs pair-flip mislabelling (baseline)",
            [FaultKind::Mislabelling, FaultKind::PairFlipMislabelling]
                .map(|fault| cell(TechniqueKind::Baseline, fault, 30.0))
                .to_vec(),
        ),
    ];

    let configs: Vec<ExperimentConfig> = sections.iter().flat_map(|(_, c)| c.clone()).collect();
    let results = Runner::new().run_grid(&configs);
    let mut results = results.iter();
    for (title, cells) in &sections {
        println!("--- {title} ---");
        for result in results.by_ref().take(cells.len()) {
            let technique = result.config.technique;
            println!(
                "  {:<4}{:<56}{:<18} AD {}",
                technique.abbrev(),
                technique.parameters(),
                result.fault_label,
                ad_cell(&result.ad)
            );
        }
    }
}
