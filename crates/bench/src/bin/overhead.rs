//! Regenerates the Section IV-E runtime-overhead analysis: training and
//! inference time multipliers of each technique relative to the baseline.
//!
//! Paper expectations: inference 1x for everything except ensembles (5x);
//! training lowest for LS (~1x), ~1.5x for KD, higher for LC, highest for
//! ensembles (~5x).

use tdfm_bench::{banner, write_json};
use tdfm_core::overhead::measure_overheads;
use tdfm_data::{DatasetKind, Scale};
use tdfm_nn::models::ModelKind;

fn main() -> std::io::Result<()> {
    let scale = Scale::from_env();
    banner("Section IV-E: runtime overheads", scale, "Section IV-E");
    let mut all = Vec::new();
    for (dataset, model) in [
        (DatasetKind::Gtsrb, ModelKind::ConvNet),
        (DatasetKind::Cifar10, ModelKind::ResNet18),
    ] {
        println!("--- {dataset} / {} ---", model.name());
        println!(
            "{:<10}{:>12}{:>12}{:>14}{:>14}",
            "Tech", "train (s)", "infer (s)", "train mult", "infer mult"
        );
        let rows = measure_overheads(dataset, model, scale, 11);
        for row in &rows {
            println!(
                "{:<10}{:>12.3}{:>12.4}{:>13.2}x{:>13.2}x",
                row.technique.abbrev(),
                row.train_seconds,
                row.infer_seconds,
                row.train_multiplier,
                row.infer_multiplier,
            );
        }
        println!();
        all.extend(rows);
    }
    let json = tdfm_json::to_string_pretty(&all);
    let path = write_json("overhead.json", &json)?;
    println!("wrote {}", path.display());
    println!(
        "\nPaper shape check: Ens ~5x in both phases; KD between 1.5x and 2x training;\n\
         LS ~1x; LC above the single-model techniques."
    );
    Ok(())
}
