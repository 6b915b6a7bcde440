//! Regenerates Fig. 3: AD of protected models vs the baseline on GTSRB,
//! with mislabelling faults (panels a-d) and removal faults (panels e-h),
//! for ResNet50, VGG16, ConvNet and MobileNet at 10/30/50% fault amounts.
//!
//! All cells of all eight panels are submitted as one grid to
//! [`Runner::run_grid`], which fans them across the machine's thread
//! budget (`TDFM_THREADS`); results come back in submission order, so the
//! printed panels are identical to a sequential run.
//!
//! Each panel is printed as the numeric series plus an ASCII bar chart of
//! the 30% column (the paper's middle dose).

use tdfm_bench::{ad_cell, banner, render_bars, results_to_json, write_json, write_manifest};
use tdfm_core::{ExperimentConfig, ExperimentResult, Runner, TechniqueKind};
use tdfm_data::{DatasetKind, Scale};
use tdfm_inject::{FaultKind, FaultPlan};
use tdfm_nn::models::ModelKind;

const PERCENTS: [f32; 3] = [10.0, 30.0, 50.0];

fn panel_configs(
    scale: Scale,
    dataset: DatasetKind,
    model: ModelKind,
    fault: FaultKind,
) -> Vec<(TechniqueKind, Vec<ExperimentConfig>)> {
    TechniqueKind::ALL
        .into_iter()
        .filter(|t| {
            // The paper does not run label correction on non-mislabelling
            // faults (it has no effect on them; Section IV-C).
            *t != TechniqueKind::LabelCorrection || fault == FaultKind::Mislabelling
        })
        .map(|technique| {
            // The mislabelling panels are the headline result and get the
            // full repetition budget; the (much flatter) removal panels
            // use one fewer.
            let reps = if fault == FaultKind::Mislabelling {
                scale.repetitions()
            } else {
                scale.repetitions().saturating_sub(1).max(2)
            };
            let series = PERCENTS
                .iter()
                .map(|&p| ExperimentConfig {
                    dataset,
                    model,
                    technique,
                    fault_plan: FaultPlan::single(fault, p),
                    scale,
                    repetitions: reps,
                    seed: 4,
                })
                .collect();
            (technique, series)
        })
        .collect()
}

fn print_panel(name: &str, rows: &[(TechniqueKind, Vec<ExperimentResult>)]) {
    println!("--- {name} ---");
    println!("{:<8}{:>15}{:>15}{:>15}", "Tech", "10%", "30%", "50%");
    for (technique, series) in rows {
        print!("{:<8}", technique.abbrev());
        for result in series {
            print!("{:>15}", ad_cell(&result.ad));
        }
        println!();
    }
    let bars: Vec<(String, f32, f32)> = rows
        .iter()
        .map(|(t, series)| {
            (
                t.abbrev().to_string(),
                series[1].ad.mean,
                series[1].ad.half_width,
            )
        })
        .collect();
    println!("\n{}", render_bars("AD at 30% (bar chart):", &bars));
}

fn main() -> std::io::Result<()> {
    let scale = Scale::from_env();
    banner(
        "Fig. 3: AD on GTSRB (a-d mislabelling, e-h removal)",
        scale,
        "Section IV-B and IV-C, Fig. 3",
    );
    let models = [
        ModelKind::ResNet50,
        ModelKind::Vgg16,
        ModelKind::ConvNet,
        ModelKind::MobileNet,
    ];
    let runner = Runner::new();

    // Build every panel's cells up front, then run them as one grid.
    type PanelSeries = Vec<(TechniqueKind, Vec<ExperimentConfig>)>;
    let mut panels: Vec<(String, PanelSeries)> = Vec::new();
    let mut panel = b'a';
    for fault in [FaultKind::Mislabelling, FaultKind::Removal] {
        for model in models {
            panels.push((
                format!(
                    "Fig. 3{}: GTSRB, {}, {}",
                    panel as char,
                    model.name(),
                    fault
                ),
                panel_configs(scale, DatasetKind::Gtsrb, model, fault),
            ));
            panel += 1;
        }
    }
    let flat: Vec<ExperimentConfig> = panels
        .iter()
        .flat_map(|(_, rows)| rows.iter().flat_map(|(_, s)| s.iter().cloned()))
        .collect();
    let mut remaining = runner.run_grid(&flat).into_iter();

    let mut results = Vec::new();
    for (name, config_rows) in &panels {
        let rows: Vec<(TechniqueKind, Vec<ExperimentResult>)> = config_rows
            .iter()
            .map(|(t, series)| (*t, remaining.by_ref().take(series.len()).collect()))
            .collect();
        print_panel(name, &rows);
        results.extend(rows.into_iter().flat_map(|(_, s)| s));
    }
    let path = write_json("fig3.json", &results_to_json(&results))?;
    println!("wrote {}", path.display());
    let path = write_manifest("fig3", &runner.manifest("fig3", &results))?;
    println!("wrote {}", path.display());
    println!(
        "\nPaper shape check: baseline AD grows with mislabelling; LS and Ens lowest;\n\
         KD good at 10% but worse than baseline at 30-50%; removal ADs much lower\n\
         than mislabelling ADs across the board."
    );
    Ok(())
}
