#![forbid(unsafe_code)]
//! # tdfm-bench
//!
//! The experiment harness regenerating every table and figure of the TDFM
//! paper. Each binary prints the paper's rows/series at the scale selected
//! by the `TDFM_SCALE` environment variable (`tiny|smoke|default|full`) and
//! writes machine-readable JSON under `results/`.
//!
//! | Binary         | Reproduces                                     |
//! |----------------|------------------------------------------------|
//! | `table1`       | Table I (survey selection matrix)              |
//! | `table2`       | Table II (dataset registry)                    |
//! | `table3`       | Table III (architecture registry)              |
//! | `table4`       | Table IV (golden accuracies)                   |
//! | `fig3`         | Fig. 3a–h (AD on GTSRB, mislabelling/removal)  |
//! | `fig4`         | Fig. 4a–f (AD across datasets)                 |
//! | `overhead`     | Section IV-E (runtime overheads)               |
//! | `motivating`   | Section II + III-D (Pneumonia example)         |
//! | `fault_combos` | Section IV-C (combined fault types)            |
//! | `ablation`     | DESIGN.md §4 (ensemble diversity, KD, LC, LS)  |
//! | `shard_faults` | DESIGN.md §2.10 (Byzantine-robust aggregation) |
//!
//! Every binary writes its results with [`write_json`] (a runner's
//! results serialised by [`results_to_json`]) and its run manifest with
//! [`write_manifest`]; a failed write makes the binary exit non-zero.
//!
//! [`figures`] turns those result documents into SVG charts (`tdfm
//! figures`). Performance is measured by the benchmark in `perfbench/`,
//! outside this workspace, and gated by `scripts/bench_ab.py`.

pub mod figures;

use std::path::PathBuf;
use tdfm_data::Scale;
use tdfm_json::ToJson;
use tdfm_obs::RunManifest;

/// Where experiment binaries drop their JSON results.
pub fn results_dir() -> PathBuf {
    #[expect(
        clippy::disallowed_methods,
        reason = "documented config site: TDFM_RESULTS"
    )]
    let dir = std::env::var("TDFM_RESULTS").unwrap_or_else(|_| "results".to_string());
    PathBuf::from(dir)
}

/// Writes a JSON document under [`results_dir`], creating it if needed.
///
/// # Errors
///
/// Returns any filesystem error encountered.
pub fn write_json(name: &str, payload: &str) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    std::fs::write(&path, payload)?;
    Ok(path)
}

/// Writes a run's manifest next to its results under [`results_dir`] as
/// `<stem>.manifest.json` (e.g. `results/table4.manifest.json`); `tdfm
/// report` consumes it.
///
/// # Errors
///
/// Returns any filesystem error encountered.
pub fn write_manifest(stem: &str, manifest: &RunManifest) -> std::io::Result<PathBuf> {
    let path = results_dir().join(format!("{stem}.manifest.json"));
    manifest.write(&path)?;
    Ok(path)
}

/// Serialises a batch of results of any runner to one JSON array
/// document, each element pretty-printed.
pub fn results_to_json<T: ToJson>(results: &[T]) -> String {
    let inner: Vec<String> = results.iter().map(tdfm_json::to_string_pretty).collect();
    format!("[\n{}\n]", inner.join(",\n"))
}

/// Prints the standard harness banner: what is being reproduced, at which
/// scale, and where the paper's version of the numbers lives.
pub fn banner(what: &str, scale: Scale, paper_ref: &str) {
    println!("=== {what} ===");
    println!("scale: {scale} (set TDFM_SCALE=tiny|smoke|default|full)");
    println!("paper reference: {paper_ref}");
    println!();
}

/// Formats a percentage cell like the paper's tables (`"93%"`).
pub fn pct(x: f32) -> String {
    format!("{:.0}%", 100.0 * x)
}

/// Formats an AD value with its confidence half-width (`"12.3 ± 4.5"`,
/// both in percent).
pub fn ad_cell(ci: &tdfm_core::ConfidenceInterval) -> String {
    format!("{:5.1} ± {:4.1}", 100.0 * ci.mean, 100.0 * ci.half_width)
}

/// Renders one figure panel as horizontal ASCII bars — the terminal
/// analogue of the paper's bar charts. Values are percentages in `[0, 1]`;
/// the `+-` suffix shows the 95% half-width.
pub fn render_bars(title: &str, series: &[(String, f32, f32)]) -> String {
    const WIDTH: usize = 40;
    let mut out = format!("{title}\n");
    let max = series
        .iter()
        .map(|(_, v, _)| *v)
        .fold(0.0f32, f32::max)
        .max(1e-6);
    for (label, value, half) in series {
        let filled = ((value / max) * WIDTH as f32).round() as usize;
        out.push_str(&format!(
            "  {:<10} |{:<width$}| {:5.1}% +- {:4.1}\n",
            label,
            "#".repeat(filled.min(WIDTH)),
            100.0 * value,
            100.0 * half,
            width = WIDTH
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats_like_the_paper() {
        assert_eq!(pct(0.93), "93%");
        assert_eq!(pct(0.906), "91%");
        assert_eq!(pct(1.0), "100%");
    }

    #[test]
    fn ad_cell_formats_mean_and_width() {
        let ci = tdfm_core::ConfidenceInterval {
            mean: 0.123,
            half_width: 0.045,
        };
        assert_eq!(ad_cell(&ci), " 12.3 ±  4.5");
    }

    #[test]
    fn render_bars_scales_to_max() {
        let s = render_bars(
            "panel",
            &[
                ("Base".to_string(), 0.4, 0.1),
                ("Ens".to_string(), 0.1, 0.02),
            ],
        );
        assert!(s.starts_with("panel\n"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        // The largest value fills the full bar width.
        assert!(lines[1].contains(&"#".repeat(40)));
        assert!(lines[1].contains("40.0%"));
        assert!(lines[2].contains("10.0%"));
    }

    #[test]
    fn render_bars_handles_all_zero() {
        let s = render_bars("z", &[("a".to_string(), 0.0, 0.0)]);
        assert!(s.contains("0.0%"));
    }

    #[test]
    fn write_json_creates_file() {
        std::env::set_var("TDFM_RESULTS", "/tmp/tdfm-test-results");
        let path = write_json("unit.json", "[]").unwrap();
        assert!(path.exists());
        std::fs::remove_file(path).unwrap();
        std::env::remove_var("TDFM_RESULTS");
    }
}
