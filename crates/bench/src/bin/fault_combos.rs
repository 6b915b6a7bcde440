//! Regenerates the Section IV-C combined-fault experiments: injecting two
//! fault types together and checking the AD is statistically similar to
//! the dominant individual fault type.

use tdfm_bench::{ad_cell, banner, results_to_json, write_json, write_manifest};
use tdfm_core::{ExperimentConfig, ExperimentResult, Runner, TechniqueKind};
use tdfm_data::{DatasetKind, Scale};
use tdfm_inject::{FaultKind, FaultPlan};
use tdfm_nn::models::ModelKind;

fn plan_config(scale: Scale, plan: FaultPlan) -> ExperimentConfig {
    ExperimentConfig {
        dataset: DatasetKind::Gtsrb,
        model: ModelKind::ConvNet,
        technique: TechniqueKind::Baseline,
        fault_plan: plan,
        scale,
        repetitions: scale.repetitions().max(3),
        seed: 4,
    }
}

fn main() -> std::io::Result<()> {
    let scale = Scale::from_env();
    banner(
        "Section IV-C: combined fault types (GTSRB, ConvNet)",
        scale,
        "Section IV-C",
    );
    let runner = Runner::new();
    // All six plans share one golden model per repetition seed; the grid
    // runs them concurrently while the cache trains each golden once.
    let configs: Vec<ExperimentConfig> = [
        FaultPlan::single(FaultKind::Mislabelling, 30.0),
        FaultPlan::single(FaultKind::Removal, 30.0),
        FaultPlan::single(FaultKind::Repetition, 30.0),
        FaultPlan::single(FaultKind::Mislabelling, 30.0).and(FaultKind::Removal, 30.0),
        FaultPlan::single(FaultKind::Mislabelling, 30.0).and(FaultKind::Repetition, 30.0),
        FaultPlan::single(FaultKind::Removal, 30.0).and(FaultKind::Repetition, 30.0),
    ]
    .into_iter()
    .map(|plan| plan_config(scale, plan))
    .collect();
    let mut grid = runner.run_grid(&configs).into_iter();
    let mut next = || grid.next().expect("grid covers every plan");
    let (mislabel, removal, repetition) = (next(), next(), next());
    let (mis_rem, mis_rep, rem_rep) = (next(), next(), next());

    let all = [
        &mislabel,
        &removal,
        &repetition,
        &mis_rem,
        &mis_rep,
        &rem_rep,
    ];
    println!("{:<36}{:>16}", "Fault plan", "Baseline AD");
    println!("{}", "-".repeat(52));
    for r in all {
        println!("{:<36}{:>16}", r.fault_label, ad_cell(&r.ad));
    }

    println!("\nStatistical-similarity checks (CI overlap + Welch t-test, alpha = 0.05):");
    for (label, combo, single) in [
        ("mislabelling+removal ~ mislabelling", &mis_rem, &mislabel),
        (
            "mislabelling+repetition ~ mislabelling",
            &mis_rep,
            &mislabel,
        ),
        ("removal+repetition ~ repetition", &rem_rep, &repetition),
    ] {
        let combo_ads: Vec<f32> = combo.repetitions.iter().map(|r| r.accuracy_delta).collect();
        let single_ads: Vec<f32> = single
            .repetitions
            .iter()
            .map(|r| r.accuracy_delta)
            .collect();
        let welch = tdfm_core::stats::welch_t_test(&combo_ads, &single_ads);
        println!(
            "  {label}: CI {} / Welch p = {:.3} -> {}",
            if combo.ad.overlaps(&single.ad) {
                "overlap"
            } else {
                "disjoint"
            },
            welch.p_value,
            if welch.similar_at(0.05) {
                "similar"
            } else {
                "DIFFERENT"
            }
        );
    }

    let owned: Vec<ExperimentResult> = all.into_iter().cloned().collect();
    let path = write_json("fault_combos.json", &results_to_json(&owned))?;
    println!("\nwrote {}", path.display());
    let path = write_manifest("fault_combos", &runner.manifest("fault_combos", &owned))?;
    println!("wrote {}", path.display());
    Ok(())
}
