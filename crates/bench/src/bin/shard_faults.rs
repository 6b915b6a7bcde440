//! The Byzantine-robust sharded-training study (ROADMAP item 2,
//! production-scale axis): data-parallel training over 8 logical shard
//! workers where one shard's labelling pipeline has drifted.
//!
//! Each aggregator trains a clean reference per repetition, then retrains
//! with one shard mislabelled at the paper's three fault rates; the table
//! reports the accuracy delta against the aggregator's own clean run plus
//! how often the FedDebug-style localizer ranked the injected shard first.

use tdfm_bench::{ad_cell, banner, pct, results_to_json, write_json, write_manifest};
use tdfm_core::{AggregatorKind, ShardFaultRunner, ShardFaultSweep};
use tdfm_data::{DatasetKind, Scale};
use tdfm_inject::ShardFaultPlan;
use tdfm_nn::models::ModelKind;

/// The paper's mislabelling rates (Fig. 3/4), applied to the one victim
/// shard.
const RATES: [f32; 3] = [10.0, 30.0, 50.0];

/// Which of the 8 shards the fault strikes.
const VICTIM: usize = 1;

/// Logical shard workers.
const WORKERS: usize = 8;

fn plans() -> Vec<ShardFaultPlan> {
    let mut plans = vec![ShardFaultPlan::clean()];
    plans.extend(RATES.iter().map(|&r| ShardFaultPlan::mislabel(VICTIM, r)));
    plans
}

fn main() -> std::io::Result<()> {
    let scale = Scale::from_env();
    banner(
        "Byzantine-robust sharded training: one faulty shard in eight",
        scale,
        "ROADMAP item 2 (beyond the paper's single-trainer setting)",
    );
    let plans = plans();
    let sweep = ShardFaultSweep {
        dataset: DatasetKind::Cifar10,
        model: ModelKind::ConvNet,
        aggregators: AggregatorKind::standard_set(),
        plans: plans.clone(),
        workers: WORKERS,
        scale,
        repetitions: scale.repetitions(),
        seed: 8,
    };
    let runner = ShardFaultRunner::new();
    let results = runner.run_sweep(&sweep);

    print!("{:<18}{:>8}", "Aggregator", "clean");
    for &r in &RATES {
        print!("{:>14}", format!("AD @{r:.0}%"));
    }
    println!("{:>8}", "loc");
    for (a, kind) in sweep.aggregators.iter().enumerate() {
        let row = &results[a * plans.len()..(a + 1) * plans.len()];
        print!("{:<18}{:>8}", kind.name(), pct(row[0].clean_accuracy.mean));
        for cell in &row[1..] {
            print!("{:>14}", ad_cell(&cell.ad));
        }
        let hits: usize = row[1..].iter().map(|c| c.localization_hits).sum();
        let trials = row[1..].len() * sweep.repetitions;
        println!("{:>8}", format!("{hits}/{trials}"));
    }
    println!(
        "\ncolumns: AD vs the aggregator's own clean run (% ± 95% CI half-width)\n\
         at each mislabelling rate on shard {VICTIM} of {WORKERS}; `loc` counts how\n\
         often the localizer's top suspect was the injected shard."
    );

    let path = write_json("shard_faults.json", &results_to_json(&results))?;
    println!("\nwrote {}", path.display());
    let path = write_manifest("shard_faults", &runner.manifest("shard_faults", &results))?;
    println!("wrote {}", path.display());
    println!(
        "\nShape check: Mean degrades as the victim rate grows; TrimmedMean/Median/\n\
         CTMA stay near zero AD, and the localizer fingers shard {VICTIM} at the top rate."
    );
    Ok(())
}
