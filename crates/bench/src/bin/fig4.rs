//! Regenerates Fig. 4: AD across all three datasets — (ResNet50,
//! mislabelling) and (MobileNet, repetition) per dataset at 10/30/50%.
//!
//! All panels are submitted as one [`Runner::run_grid`] call; results come
//! back in submission order, so the printed output matches a sequential
//! run. Each panel is printed as the numeric series plus an ASCII bar
//! chart of the 30% column.

use tdfm_bench::{ad_cell, banner, render_bars, results_to_json, write_json, write_manifest};
use tdfm_core::{ExperimentConfig, ExperimentResult, Runner, TechniqueKind};
use tdfm_data::{DatasetKind, Scale};
use tdfm_inject::{FaultKind, FaultPlan};
use tdfm_nn::models::ModelKind;

const PERCENTS: [f32; 3] = [10.0, 30.0, 50.0];

fn main() -> std::io::Result<()> {
    let scale = Scale::from_env();
    banner("Fig. 4: AD across datasets", scale, "Section IV-D, Fig. 4");
    // Panels in the paper's order: (a)-(f).
    let panels = [
        (
            'a',
            DatasetKind::Cifar10,
            ModelKind::ResNet50,
            FaultKind::Mislabelling,
        ),
        (
            'b',
            DatasetKind::Cifar10,
            ModelKind::MobileNet,
            FaultKind::Repetition,
        ),
        (
            'c',
            DatasetKind::Gtsrb,
            ModelKind::ResNet50,
            FaultKind::Mislabelling,
        ),
        (
            'd',
            DatasetKind::Gtsrb,
            ModelKind::MobileNet,
            FaultKind::Repetition,
        ),
        (
            'e',
            DatasetKind::Pneumonia,
            ModelKind::ResNet50,
            FaultKind::Mislabelling,
        ),
        (
            'f',
            DatasetKind::Pneumonia,
            ModelKind::MobileNet,
            FaultKind::Repetition,
        ),
    ];
    let runner = Runner::new();

    // Build the full grid first: one row of three doses per (panel,
    // technique) pair, in print order.
    let mut rows: Vec<(usize, TechniqueKind)> = Vec::new();
    let mut flat: Vec<ExperimentConfig> = Vec::new();
    for (i, (_, dataset, model, fault)) in panels.iter().enumerate() {
        for technique in TechniqueKind::ALL {
            if technique == TechniqueKind::LabelCorrection && *fault != FaultKind::Mislabelling {
                continue;
            }
            rows.push((i, technique));
            flat.extend(PERCENTS.iter().map(|&p| ExperimentConfig {
                dataset: *dataset,
                model: *model,
                technique,
                fault_plan: FaultPlan::single(*fault, p),
                scale,
                repetitions: scale.repetitions(),
                seed: 4,
            }));
        }
    }
    let mut remaining = runner.run_grid(&flat).into_iter();

    let mut results = Vec::new();
    let mut row_iter = rows.into_iter().peekable();
    for (i, (panel, dataset, model, fault)) in panels.iter().enumerate() {
        println!(
            "--- Fig. 4{panel}: {dataset}, {}, {fault} ---",
            model.name()
        );
        println!("{:<8}{:>15}{:>15}{:>15}", "Tech", "10%", "30%", "50%");
        let mut bars: Vec<(String, f32, f32)> = Vec::new();
        while row_iter.peek().is_some_and(|(p, _)| *p == i) {
            let (_, technique) = row_iter.next().expect("peeked row exists");
            let series: Vec<ExperimentResult> = remaining.by_ref().take(PERCENTS.len()).collect();
            print!("{:<8}", technique.abbrev());
            for result in &series {
                print!("{:>15}", ad_cell(&result.ad));
            }
            println!();
            if let Some(r) = series.get(1) {
                bars.push((technique.abbrev().to_string(), r.ad.mean, r.ad.half_width));
            }
            results.extend(series);
        }
        println!("\n{}", render_bars("AD at 30% (bar chart):", &bars));
    }
    let path = write_json("fig4.json", &results_to_json(&results))?;
    println!("wrote {}", path.display());
    let path = write_manifest("fig4", &runner.manifest("fig4", &results))?;
    println!("wrote {}", path.display());
    println!(
        "\nPaper shape check: CIFAR-10 and Pneumonia mislabelling ADs higher than\n\
         GTSRB's; repetition ADs low everywhere; Ens lowest overall, LS second;\n\
         LC best at 50% mislabelling on the few-class datasets (a, e) but not on\n\
         GTSRB (c)."
    );
    Ok(())
}
