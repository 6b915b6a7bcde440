//! Renders `results/fig3.json` and `results/fig4.json` into paper-style
//! SVG bar-chart panels (`results/fig3-*.svg`, `results/fig4-*.svg`).
//!
//! Run after `fig3`/`fig4`: the JSON is grouped into panels by
//! (dataset, model, fault kind), one SVG per panel.
#![allow(
    clippy::print_stderr,
    reason = "a CLI front end reports to its user on stderr"
)]

use std::collections::BTreeMap;
use tdfm_bench::svg::{panel_from_results, render_panel, PanelSpec};
use tdfm_bench::{results_dir, write_json};
use tdfm_core::ExperimentResult;

fn panels_from_file(name: &str) -> Vec<(String, Vec<ExperimentResult>)> {
    let path = results_dir().join(name);
    let Ok(text) = std::fs::read_to_string(&path) else {
        eprintln!("skipping {name}: run the corresponding harness binary first");
        return Vec::new();
    };
    let results: Vec<ExperimentResult> = match tdfm_json::from_str(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("skipping {name}: {e}");
            return Vec::new();
        }
    };
    // Group into panels by (dataset, model, fault kind).
    let mut panels: BTreeMap<String, Vec<ExperimentResult>> = BTreeMap::new();
    for r in results {
        let fault = r
            .config
            .fault_plan
            .specs()
            .first()
            .map(|s| s.kind.name())
            .unwrap_or("clean");
        let key = format!(
            "{}, {}, {}",
            r.config.dataset.name(),
            r.config.model.name(),
            fault
        );
        panels.entry(key).or_default().push(r);
    }
    panels.into_iter().collect()
}

fn main() {
    let mut written = 0;
    for source in ["fig3.json", "fig4.json"] {
        let stem = source.trim_end_matches(".json");
        for (i, (title, results)) in panels_from_file(source).into_iter().enumerate() {
            let groups = panel_from_results(&results, &[10.0, 30.0, 50.0]);
            if groups.iter().all(|g| g.bars.is_empty()) {
                continue;
            }
            let spec = PanelSpec {
                title: title.clone(),
                ..PanelSpec::default()
            };
            let svg = render_panel(&spec, &groups);
            let name = format!("{stem}-{}.svg", (b'a' + i as u8) as char);
            match write_json(&name, &svg) {
                Ok(path) => {
                    println!("wrote {} ({title})", path.display());
                    written += 1;
                }
                Err(e) => eprintln!("could not write {name}: {e}"),
            }
        }
    }
    if written == 0 {
        eprintln!("nothing rendered; run fig3/fig4 first");
        std::process::exit(1);
    }
}
