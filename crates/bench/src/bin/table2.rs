//! Regenerates Table II: the dataset registry (paper statistics plus the
//! synthetic analogue sizes at the current scale).

use tdfm_bench::banner;
use tdfm_data::{DatasetKind, Scale};

fn main() -> std::io::Result<()> {
    let scale = Scale::from_env();
    banner(
        "Table II: image classification datasets",
        scale,
        "Section IV, Table II",
    );
    println!(
        "{:<12}{:>14}{:>12}{:>26}  {:>13}{:>12}",
        "Name", "Paper train", "Paper test", "Task (# classes)", "Synth train", "Synth test"
    );
    println!("{}", "-".repeat(92));
    for kind in DatasetKind::ALL {
        let info = kind.info();
        println!(
            "{:<12}{:>14}{:>12}{:>26}  {:>13}{:>12}",
            info.name,
            info.paper_train,
            info.paper_test,
            format!("{} ({})", info.task, info.classes),
            kind.train_size(scale),
            kind.test_size(scale),
        );
    }
    // Structural facts the table asserts, verified live.
    let tt = DatasetKind::Gtsrb.generate(scale, 0);
    assert_eq!(tt.train.classes(), 43);
    let infos: Vec<_> = DatasetKind::ALL.iter().map(|k| k.info()).collect();
    let json = tdfm_json::to_string_pretty(&infos);
    let path = tdfm_bench::write_json("table2.json", &json)?;
    println!("\nwrote {}", path.display());
    Ok(())
}
