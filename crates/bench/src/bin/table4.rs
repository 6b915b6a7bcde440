//! Regenerates Table IV: model accuracies when trained **without** fault
//! injection, for every technique (the golden-accuracy baseline of the
//! study).
//!
//! All 72 cells run as one [`Runner::run_grid`] call, fanned across the
//! thread budget (`TDFM_THREADS`); results come back in row-major order.
//!
//! Paper layout: rows = (model, dataset), columns = Base, LS, LC, RL, KD,
//! Ens; datasets 1 = CIFAR-10, 2 = GTSRB, 3 = Pneumonia.

use tdfm_bench::{banner, pct, results_to_json, write_json, write_manifest};
use tdfm_core::{ExperimentConfig, Runner, TechniqueKind};
use tdfm_data::{DatasetKind, Scale};
use tdfm_inject::FaultPlan;
use tdfm_nn::models::ModelKind;

fn main() -> std::io::Result<()> {
    let scale = Scale::from_env();
    banner(
        "Table IV: accuracies without fault injection",
        scale,
        "Section IV-A, Table IV",
    );
    let models = [
        ModelKind::ResNet50,
        ModelKind::Vgg16,
        ModelKind::ConvNet,
        ModelKind::MobileNet,
    ];
    let runner = Runner::new();
    // Accuracy percentages need fewer repetitions than the AD error bars.
    let reps = scale.repetitions().min(2);

    // Row-major grid: (model, dataset) rows x technique columns.
    let configs: Vec<ExperimentConfig> = models
        .iter()
        .flat_map(|&model| {
            DatasetKind::ALL.iter().flat_map(move |&dataset| {
                TechniqueKind::ALL
                    .into_iter()
                    .map(move |technique| ExperimentConfig {
                        dataset,
                        model,
                        technique,
                        fault_plan: FaultPlan::none(),
                        scale,
                        repetitions: reps,
                        seed: 4,
                    })
            })
        })
        .collect();
    let results = runner.run_grid(&configs);

    println!(
        "{:<11}{:<11}{:>7}{:>7}{:>7}{:>7}{:>7}{:>7}",
        "Model", "Dataset", "Base", "LS", "LC", "RL", "KD", "Ens"
    );
    println!("{}", "-".repeat(64));
    let mut cells = results.iter();
    for model in models {
        for (i, dataset) in DatasetKind::ALL.iter().enumerate() {
            print!(
                "{:<11}{:<11}",
                model.name(),
                format!("{} ({})", i + 1, dataset.name())
            );
            for _ in TechniqueKind::ALL {
                let result = cells.next().expect("grid covers every cell");
                print!("{:>7}", pct(result.faulty_accuracy.mean));
            }
            println!();
        }
    }
    let path = write_json("table4.json", &results_to_json(&results))?;
    println!("\nwrote {}", path.display());
    let path = write_manifest("table4", &runner.manifest("table4", &results))?;
    println!("wrote {}", path.display());
    println!(
        "\nPaper shape check: techniques should not collapse the golden accuracy in most \
         cells;\nLC and RL may degrade on Pneumonia (small dataset), as in the paper."
    );
    Ok(())
}
