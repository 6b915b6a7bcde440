//! Regenerates Table III: the architecture registry, with live parameter
//! counts at the current scale's width.

use tdfm_bench::banner;
use tdfm_data::Scale;
use tdfm_nn::models::{ModelConfig, ModelKind};

fn main() -> std::io::Result<()> {
    let scale = Scale::from_env();
    banner(
        "Table III: neural network architectures",
        scale,
        "Section IV, Table III",
    );
    let cfg = ModelConfig {
        in_shape: (3, scale.image_side(), scale.image_side()),
        classes: 10,
        width: scale.model_width(),
        seed: 0,
    };
    println!(
        "{:<12}{:<10}{:<32}{:>12}",
        "Name", "Depth", "Architecture Summary", "Params"
    );
    println!("{}", "-".repeat(66));
    for kind in ModelKind::ALL {
        let info = kind.info();
        let mut net = kind.build(&cfg);
        println!(
            "{:<12}{:<10}{:<32}{:>12}",
            info.name,
            info.depth.to_string(),
            info.summary,
            net.param_count(),
        );
    }
    let infos: Vec<_> = ModelKind::ALL.iter().map(|k| k.info()).collect();
    let json = tdfm_json::to_string_pretty(&infos);
    let path = tdfm_bench::write_json("table3.json", &json)?;
    println!("\nwrote {}", path.display());
    Ok(())
}
