//! Regenerates the motivating example (Section II) and its per-technique
//! follow-up (Section III-D): ResNet50 on Pneumonia with 10% mislabelling.
//!
//! Paper numbers: golden 90%, faulty 55%; technique ADs of 5% (LS),
//! 29% (LC), 15% (RL), 13% (KD), 5% (Ens).

use tdfm_bench::{ad_cell, banner, pct, results_to_json, write_json, write_manifest};
use tdfm_core::{ExperimentConfig, Runner, TechniqueKind};
use tdfm_data::{DatasetKind, Scale};
use tdfm_inject::{FaultKind, FaultPlan};
use tdfm_nn::models::ModelKind;

fn main() -> std::io::Result<()> {
    let scale = Scale::from_env();
    banner(
        "Motivating example: Pneumonia + ResNet50 + 10% mislabelling",
        scale,
        "Sections II and III-D",
    );
    let runner = Runner::new();
    // The Pneumonia analogue is small and cheap to train, so the headline
    // example affords extra repetitions for tighter intervals.
    let reps = scale.repetitions().max(8);

    // One cell per technique (baseline first), run as one grid; every cell
    // shares the same golden models through the runner's cache.
    let configs: Vec<ExperimentConfig> = TechniqueKind::ALL
        .into_iter()
        .map(|technique| ExperimentConfig {
            dataset: DatasetKind::Pneumonia,
            model: ModelKind::ResNet50,
            technique,
            fault_plan: FaultPlan::single(FaultKind::Mislabelling, 10.0),
            scale,
            repetitions: reps,
            seed: 4,
        })
        .collect();
    let results = runner.run_grid(&configs);

    // Section II: accuracy collapse of the unprotected model.
    let base = &results[0];
    println!(
        "golden accuracy : {} (paper: 90%)",
        pct(base.golden_accuracy.mean)
    );
    println!(
        "faulty accuracy : {} (paper: 55%)",
        pct(base.faulty_accuracy.mean)
    );
    println!("baseline AD     : {}\n", ad_cell(&base.ad));

    // Section III-D: each technique applied to the faulty model.
    println!("{:<10}{:>16}{:>14}", "Technique", "AD (ours)", "AD (paper)");
    let paper_ad = [
        ("LS", "5%"),
        ("LC", "29%"),
        ("RL", "15%"),
        ("KD", "13%"),
        ("Ens", "5%"),
    ];
    for (technique, result) in TechniqueKind::ALL.into_iter().zip(&results).skip(1) {
        let paper = paper_ad
            .iter()
            .find(|(n, _)| *n == technique.abbrev())
            .map(|(_, v)| *v)
            .unwrap_or("-");
        println!(
            "{:<10}{:>16}{:>14}",
            technique.abbrev(),
            ad_cell(&result.ad),
            paper
        );
    }
    let path = write_json("motivating.json", &results_to_json(&results))?;
    println!("\nwrote {}", path.display());
    let path = write_manifest("motivating", &runner.manifest("motivating", &results))?;
    println!("wrote {}", path.display());
    println!(
        "\nPaper shape check: mislabelling costs the unprotected model real accuracy;\n\
         LS and Ens should be the two lowest-AD techniques."
    );
    Ok(())
}
