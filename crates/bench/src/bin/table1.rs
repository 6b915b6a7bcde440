//! Regenerates Table I: the survey's technique-selection matrix.

use tdfm_survey::{catalog, render_table_i, select_representatives};

fn main() -> std::io::Result<()> {
    let cat = catalog();
    print!("{}", render_table_i(&cat));
    println!();
    let reps = select_representatives(&cat);
    println!("Selected representatives (one per TDFM approach):");
    for t in &reps {
        println!("  {:<24} -> {} {}", t.approach.name(), t.name, t.reference);
    }
    let json = tdfm_json::to_string_pretty(&cat);
    let path = tdfm_bench::write_json("table1.json", &json)?;
    println!("\nwrote {}", path.display());
    Ok(())
}
