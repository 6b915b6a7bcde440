//! The model-fault study (ROADMAP item 1, second fault axis): every TDFM
//! technique — plus fault-aware training — scored under SEU bit-flip
//! sweeps in model weights and activations.
//!
//! Each technique trains once per repetition on *clean* data; faults then
//! strike the fitted model at inference time at three rates per site
//! (1, 4 and 16 simultaneous flips), and the table reports the accuracy
//! delta against the model's own fault-free predictions. Weight flips are
//! applied and reverted bit-exactly via the XOR involution; activation
//! flips ride the `Network` forward hook.

use tdfm_bench::{ad_cell, banner, pct, results_to_json, write_json, write_manifest};
use tdfm_core::model_fault::{ModelFaultRunner, ModelFaultSweep};
use tdfm_core::TechniqueKind;
use tdfm_data::{DatasetKind, Scale};
use tdfm_inject::model::{InjectionMode, ModelFaultPlan};
use tdfm_nn::models::ModelKind;

/// Simultaneous flips per trial — the study's three fault rates.
const RATES: [usize; 3] = [1, 4, 16];

fn plans() -> Vec<ModelFaultPlan> {
    let mut plans = Vec::new();
    for &flips in &RATES {
        plans.push(ModelFaultPlan::weights().mode(InjectionMode::Stochastic {
            flips,
            seed: 40 + flips as u64,
        }));
    }
    for &flips in &RATES {
        plans.push(
            ModelFaultPlan::activations().mode(InjectionMode::Stochastic {
                flips,
                seed: 40 + flips as u64,
            }),
        );
    }
    plans
}

fn main() -> std::io::Result<()> {
    let scale = Scale::from_env();
    banner(
        "Model-fault study: SEU bit-flips in weights and activations",
        scale,
        "ROADMAP item 1 (beyond the paper's data-fault axis)",
    );
    let plans = plans();
    let sweep = ModelFaultSweep {
        dataset: DatasetKind::Pneumonia,
        model: ModelKind::ConvNet,
        techniques: TechniqueKind::ALL_EXTENDED.to_vec(),
        plans: plans.clone(),
        scale,
        repetitions: scale.repetitions(),
        seed: 6,
    };
    let runner = ModelFaultRunner::new();
    let results = runner.run_sweep(&sweep);

    // Column legend: short headers, full plan labels below the table.
    let headers: Vec<String> = RATES
        .iter()
        .map(|f| format!("W x{f}"))
        .chain(RATES.iter().map(|f| format!("A x{f}")))
        .collect();
    print!("{:<10}{:>8}", "Technique", "clean");
    for h in &headers {
        print!("{h:>14}");
    }
    println!();
    for (t, technique) in sweep.techniques.iter().enumerate() {
        let row = &results[t * plans.len()..(t + 1) * plans.len()];
        print!(
            "{:<10}{:>8}",
            technique.abbrev(),
            pct(row[0].clean_accuracy.mean)
        );
        for cell in row {
            print!("{:>14}", ad_cell(&cell.ad));
        }
        println!();
    }
    println!("\ncolumns (AD, % ± 95% CI half-width):");
    for (h, plan) in headers.iter().zip(&plans) {
        println!("  {:<6} = {}", h, plan.label());
    }

    let path = write_json("model_faults.json", &results_to_json(&results))?;
    println!("\nwrote {}", path.display());
    let path = write_manifest("model_faults", &runner.manifest("model_faults", &results))?;
    println!("wrote {}", path.display());
    println!(
        "\nShape check: weight faults hurt more as the flip count grows; fault-aware\n\
         training (FAT) should sit below the baseline under weight faults."
    );
    Ok(())
}
