//! Results → figures: turns committed result JSONs into deterministic
//! SVG charts (the `tdfm figures` subcommand).
//!
//! The renderer primitives live in [`tdfm_obs::figure`]; this module owns
//! the *semantics* — which chart a results document becomes:
//!
//! * An array of [`ExperimentResult`]s (data-fault sweeps — `fig3.json`,
//!   `motivating.json`, `tdfm sweep` output) groups by
//!   (dataset, model, fault kinds). Groups spanning several fault rates
//!   render as AD-vs-fault-rate curves per technique (the paper's Fig. 3
//!   shape); single-rate groups render as a per-technique error-bar
//!   scatter (the Fig. 4 / motivating-example shape).
//! * An array of [`ModelFaultResult`]s (`model_faults.json`) renders a
//!   technique × fault-plan AD heatmap and a fault-rate × bit-position AD
//!   heatmap of the unprotected baseline.
//! * An array of [`ShardFaultResult`]s (`shard_faults.json`) renders an
//!   aggregator × fault-rate AD heatmap (the Byzantine-robustness
//!   picture: Mean's row heats up with the victim rate, the robust rows
//!   stay cold).
//!
//! Everything downstream of the parsed JSON is a pure function, so the
//! committed SVGs are byte-identical across regenerations, machines and
//! `TDFM_THREADS` settings — CI drift-gates them like result JSONs.

use std::collections::BTreeMap;
use tdfm_core::{ExperimentResult, ModelFaultResult, ShardFaultResult};
use tdfm_obs::{Heatmap, LineChart, Series};

/// Renders every figure a results document supports.
///
/// Returns `(file name, svg document)` pairs in deterministic order. The
/// document must be a JSON array of experiment results, model-fault
/// results or shard-fault results.
///
/// # Errors
///
/// Returns a description of a parse failure or an empty/unrecognised
/// document.
pub fn render_figures(text: &str) -> Result<Vec<(String, String)>, String> {
    if let Ok(results) = tdfm_json::from_str::<Vec<ExperimentResult>>(text) {
        if !results.is_empty() {
            return Ok(experiment_figures(&results));
        }
    }
    if let Ok(results) = tdfm_json::from_str::<Vec<ModelFaultResult>>(text) {
        if !results.is_empty() {
            return Ok(model_fault_figures(&results));
        }
    }
    if let Ok(results) = tdfm_json::from_str::<Vec<ShardFaultResult>>(text) {
        if !results.is_empty() {
            return Ok(shard_fault_figures(&results));
        }
    }
    Err(
        "not a recognised results document (expected a non-empty JSON array of \
         experiment results, model-fault results or shard-fault results)"
            .to_string(),
    )
}

/// Lower-cases and squeezes a label into a file-name fragment.
fn slug(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') && !out.is_empty() {
            out.push('-');
        }
    }
    out.trim_end_matches('-').to_string()
}

/// The fault kinds of a plan, joined (`"Mislabelling"`,
/// `"Mislabelling+Removal"`, `"clean"` for the empty plan).
fn kinds_label(result: &ExperimentResult) -> String {
    let specs = result.config.fault_plan.specs();
    if specs.is_empty() {
        return "clean".to_string();
    }
    specs
        .iter()
        .map(|s| s.kind.name())
        .collect::<Vec<_>>()
        .join("+")
}

/// Total fault percentage of a plan (summed over specs, so combined
/// plans still order along one axis).
fn fault_percent(result: &ExperimentResult) -> f64 {
    result
        .config
        .fault_plan
        .specs()
        .iter()
        .map(|s| s.percent as f64)
        .sum()
}

/// `(fault percent, AD mean, AD half-width)` — one plotted point.
type AdPoint = (f64, f64, f64);

fn experiment_figures(results: &[ExperimentResult]) -> Vec<(String, String)> {
    // Group by (dataset, model, fault kinds); BTreeMap for stable output.
    let mut groups: BTreeMap<(String, String, String), Vec<&ExperimentResult>> = BTreeMap::new();
    for r in results {
        let key = (
            r.config.dataset.name().to_string(),
            r.config.model.name().to_string(),
            kinds_label(r),
        );
        groups.entry(key).or_default().push(r);
    }
    let mut figures = Vec::new();
    for ((dataset, model, kinds), members) in &groups {
        // Technique → (percent, ad, half_width), in first-seen order so
        // series colors track the input document.
        let mut by_technique: Vec<(String, Vec<AdPoint>)> = Vec::new();
        for r in members {
            let name = r.config.technique.full_name().to_string();
            let point = (fault_percent(r), r.ad.mean as f64, r.ad.half_width as f64);
            match by_technique.iter_mut().find(|(n, _)| *n == name) {
                Some((_, points)) => points.push(point),
                None => by_technique.push((name, vec![point])),
            }
        }
        let mut percents: Vec<f64> = members.iter().map(|r| fault_percent(r)).collect();
        percents.sort_by(f64::total_cmp);
        percents.dedup();

        let chart = if percents.len() > 1 {
            // Fig. 3 shape: AD vs fault rate, one curve per technique.
            LineChart {
                title: format!("AD vs fault rate — {dataset} / {model} / {kinds}"),
                x_label: format!("{kinds} (%)"),
                y_label: "Accuracy Delta".to_string(),
                x_ticks: Vec::new(),
                series: by_technique
                    .into_iter()
                    .map(|(label, mut points)| {
                        points.sort_by(|a, b| a.0.total_cmp(&b.0));
                        Series {
                            label,
                            err: points.iter().map(|p| p.2).collect(),
                            points: points.into_iter().map(|p| (p.0, p.1)).collect(),
                        }
                    })
                    .collect(),
            }
        } else {
            // Fig. 4 / motivating shape: one fault rate, techniques on a
            // categorical axis.
            let percent = percents.first().copied().unwrap_or(0.0);
            LineChart {
                title: format!("AD at {percent:.0}% {kinds} — {dataset} / {model}"),
                x_label: "technique".to_string(),
                y_label: "Accuracy Delta".to_string(),
                x_ticks: by_technique
                    .iter()
                    .enumerate()
                    .map(|(i, (name, _))| {
                        let abbrev = members
                            .iter()
                            .find(|r| r.config.technique.full_name() == *name)
                            .map(|r| r.config.technique.abbrev())
                            .unwrap_or(name);
                        (i as f64, abbrev.to_string())
                    })
                    .collect(),
                series: by_technique
                    .into_iter()
                    .enumerate()
                    .map(|(i, (label, points))| Series {
                        label,
                        err: points.iter().map(|p| p.2).collect(),
                        points: points.iter().map(|p| (i as f64, p.1)).collect(),
                    })
                    .collect(),
            }
        };
        figures.push((
            format!("ad_{}_{}_{}.svg", slug(dataset), slug(model), slug(kinds)),
            chart.render(),
        ));
    }
    figures
}

/// Splits a [`tdfm_inject::model::ModelFaultPlan`] label
/// (`"weights/all/bits 23-30/x4@seed9"`) into a short row label
/// (`"weights x4"`) and the inclusive bit range.
fn plan_parts(label: &str) -> (String, u32, u32) {
    let segments: Vec<&str> = label.split('/').collect();
    let site = segments.first().copied().unwrap_or("?");
    let mode = segments.last().copied().unwrap_or("?");
    let flips = mode.split('@').next().unwrap_or(mode);
    let (lo, hi) = segments
        .iter()
        .find_map(|s| s.strip_prefix("bits "))
        .and_then(|range| {
            let (lo, hi) = range.split_once('-')?;
            Some((lo.parse().ok()?, hi.parse().ok()?))
        })
        .unwrap_or((0, 31));
    (format!("{site} {flips}"), lo, hi)
}

fn model_fault_figures(results: &[ModelFaultResult]) -> Vec<(String, String)> {
    // Techniques and plans in first-appearance (sweep) order.
    let mut techniques: Vec<String> = Vec::new();
    let mut plans: Vec<String> = Vec::new();
    for r in results {
        let t = r.technique.full_name().to_string();
        if !techniques.contains(&t) {
            techniques.push(t);
        }
        if !plans.contains(&r.fault_label) {
            plans.push(r.fault_label.clone());
        }
    }
    let ad_of = |technique: &str, plan: &str| -> Option<f64> {
        results
            .iter()
            .find(|r| r.technique.full_name() == technique && r.fault_label == plan)
            .map(|r| r.ad.mean as f64)
    };

    // Figure 1: technique × plan AD heatmap.
    let technique_map = Heatmap {
        title: "Model-fault AD by technique and fault plan".to_string(),
        x_label: "fault plan (site × simultaneous flips)".to_string(),
        y_label: "technique".to_string(),
        col_labels: plans.iter().map(|p| plan_parts(p).0).collect(),
        row_labels: techniques.clone(),
        cells: techniques
            .iter()
            .map(|t| plans.iter().map(|p| ad_of(t, p)).collect())
            .collect(),
        value_scale: 100.0,
    };

    // Figure 2: fault-rate × bit-position AD map of the unprotected
    // baseline — each plan's AD painted across the bit range it flips.
    let baseline = techniques.first().cloned().unwrap_or_default();
    let bit_rows: Vec<&String> = plans.iter().collect();
    let bits_map = Heatmap {
        title: format!("{baseline} AD by fault plan and bit position"),
        x_label: "bit position (0 = mantissa LSB, 31 = sign)".to_string(),
        y_label: "fault plan".to_string(),
        col_labels: (0u32..32).map(|b| b.to_string()).collect(),
        row_labels: bit_rows.iter().map(|p| plan_parts(p).0).collect(),
        cells: bit_rows
            .iter()
            .map(|p| {
                let (_, lo, hi) = plan_parts(p);
                let ad = ad_of(&baseline, p);
                (0u32..32)
                    .map(|b| if (lo..=hi).contains(&b) { ad } else { None })
                    .collect()
            })
            .collect(),
        value_scale: 100.0,
    };

    vec![
        (
            "model_faults_techniques.svg".to_string(),
            technique_map.render(),
        ),
        ("model_faults_bits.svg".to_string(), bits_map.render()),
    ]
}

/// Drops the `"shard N: "` prefix of a [`tdfm_inject::ShardFaultPlan`]
/// label so heatmap columns read as fault rates (`"Mislabelling 50%"`,
/// `"clean"`).
fn shard_fault_rate(label: &str) -> String {
    label
        .split_once(": ")
        .map_or(label, |(_, rate)| rate)
        .to_string()
}

fn shard_fault_figures(results: &[ShardFaultResult]) -> Vec<(String, String)> {
    // Aggregators and fault labels in first-appearance (sweep) order.
    let mut aggregators: Vec<String> = Vec::new();
    let mut faults: Vec<String> = Vec::new();
    for r in results {
        if !aggregators.contains(&r.aggregator) {
            aggregators.push(r.aggregator.clone());
        }
        if !faults.contains(&r.fault_label) {
            faults.push(r.fault_label.clone());
        }
    }
    let heatmap = Heatmap {
        title: "Sharded-training AD by aggregator and shard fault rate".to_string(),
        x_label: "fault on the victim shard".to_string(),
        y_label: "aggregator".to_string(),
        col_labels: faults.iter().map(|f| shard_fault_rate(f)).collect(),
        row_labels: aggregators.clone(),
        cells: aggregators
            .iter()
            .map(|a| {
                faults
                    .iter()
                    .map(|f| {
                        results
                            .iter()
                            .find(|r| r.aggregator == *a && r.fault_label == *f)
                            .map(|r| r.ad.mean as f64)
                    })
                    .collect()
            })
            .collect(),
        value_scale: 100.0,
    };
    vec![("shard_faults_aggregators.svg".to_string(), heatmap.render())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdfm_core::{ConfidenceInterval, ExperimentConfig, ExperimentResult, TechniqueKind};
    use tdfm_data::{DatasetKind, Scale};
    use tdfm_inject::{FaultKind, FaultPlan};
    use tdfm_nn::models::ModelKind;

    fn data_result(technique: TechniqueKind, percent: f32, ad: f32) -> ExperimentResult {
        let fault_plan = if percent == 0.0 {
            FaultPlan::none()
        } else {
            FaultPlan::single(FaultKind::Mislabelling, percent)
        };
        ExperimentResult {
            fault_label: fault_plan.label(),
            config: ExperimentConfig {
                dataset: DatasetKind::Pneumonia,
                model: ModelKind::ConvNet,
                technique,
                fault_plan,
                scale: Scale::Tiny,
                repetitions: 1,
                seed: 42,
            },
            repetitions: Vec::new(),
            ad: ConfidenceInterval {
                mean: ad,
                half_width: 0.01,
            },
            golden_accuracy: ConfidenceInterval {
                mean: 0.9,
                half_width: 0.0,
            },
            faulty_accuracy: ConfidenceInterval {
                mean: 0.9 - ad,
                half_width: 0.0,
            },
        }
    }

    fn model_result(technique: TechniqueKind, fault_label: &str, ad: f32) -> ModelFaultResult {
        ModelFaultResult {
            dataset: DatasetKind::Pneumonia,
            model: ModelKind::ConvNet,
            technique,
            fault_label: fault_label.to_string(),
            scale: Scale::Tiny,
            seed: 42,
            repetitions: Vec::new(),
            clean_accuracy: ConfidenceInterval {
                mean: 0.9,
                half_width: 0.0,
            },
            faulty_accuracy: ConfidenceInterval {
                mean: 0.9 - ad,
                half_width: 0.0,
            },
            ad: ConfidenceInterval {
                mean: ad,
                half_width: 0.005,
            },
            wall_seconds: 0.5,
        }
    }

    #[test]
    fn multi_rate_sweep_renders_line_chart_per_group() {
        let mut results = Vec::new();
        for technique in [TechniqueKind::Baseline, TechniqueKind::Ensemble] {
            for (percent, ad) in [(10.0, 0.05), (30.0, 0.15), (50.0, 0.30)] {
                results.push(data_result(technique, percent, ad));
            }
        }
        let text = tdfm_json::to_string(&results);
        let figures = render_figures(&text).unwrap();
        assert_eq!(figures.len(), 1);
        let (name, svg) = &figures[0];
        assert_eq!(name, "ad_pneumonia_convnet_mislabelling.svg");
        assert!(svg.contains("AD vs fault rate"));
        assert!(svg.contains("Ensemble"));
    }

    #[test]
    fn single_rate_results_render_categorical_scatter() {
        let results = vec![
            data_result(TechniqueKind::Baseline, 10.0, 0.12),
            data_result(TechniqueKind::LabelSmoothing, 10.0, 0.08),
            data_result(TechniqueKind::Ensemble, 10.0, 0.03),
        ];
        let text = tdfm_json::to_string(&results);
        let figures = render_figures(&text).unwrap();
        assert_eq!(figures.len(), 1);
        let svg = &figures[0].1;
        // Categorical axis: technique abbreviations as tick labels.
        for abbrev in ["Base", "LS", "Ens"] {
            assert!(svg.contains(abbrev), "missing tick {abbrev}");
        }
        assert!(svg.contains("AD at 10%"));
    }

    #[test]
    fn model_fault_results_render_both_heatmaps() {
        let results = vec![
            model_result(
                TechniqueKind::Baseline,
                "weights/all/bits 23-30/x4@seed9",
                0.2,
            ),
            model_result(
                TechniqueKind::Baseline,
                "activations/all/bits 0-31/x1@seed9",
                0.1,
            ),
            model_result(
                TechniqueKind::Ensemble,
                "weights/all/bits 23-30/x4@seed9",
                0.05,
            ),
            model_result(
                TechniqueKind::Ensemble,
                "activations/all/bits 0-31/x1@seed9",
                0.02,
            ),
        ];
        let text = tdfm_json::to_string(&results);
        let figures = render_figures(&text).unwrap();
        let names: Vec<&str> = figures.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            ["model_faults_techniques.svg", "model_faults_bits.svg"]
        );
        let techniques = &figures[0].1;
        assert!(techniques.contains("weights x4"));
        assert!(techniques.contains("activations x1"));
        assert!(techniques.contains("Ensemble"));
        // The bits map names the baseline and spans all 32 bit columns.
        let bits = &figures[1].1;
        assert!(bits.contains("Baseline AD by fault plan and bit position"));
        assert!(bits.contains(">31<"));
    }

    fn shard_result(aggregator: &str, fault_label: &str, ad: f32) -> ShardFaultResult {
        ShardFaultResult {
            dataset: DatasetKind::Cifar10,
            model: ModelKind::ConvNet,
            aggregator: aggregator.to_string(),
            workers: 8,
            fault_label: fault_label.to_string(),
            scale: Scale::Tiny,
            seed: 8,
            repetitions: Vec::new(),
            clean_accuracy: ConfidenceInterval {
                mean: 0.8,
                half_width: 0.0,
            },
            faulty_accuracy: ConfidenceInterval {
                mean: 0.8 - ad,
                half_width: 0.0,
            },
            ad: ConfidenceInterval {
                mean: ad,
                half_width: 0.01,
            },
            localization_hits: 1,
            wall_seconds: 0.5,
        }
    }

    #[test]
    fn shard_fault_results_render_the_aggregator_heatmap() {
        let results = vec![
            shard_result("Mean", "clean", 0.0),
            shard_result("Mean", "shard 1: Mislabelling 50%", 0.25),
            shard_result("TrimmedMean(f=1)", "clean", 0.0),
            shard_result("TrimmedMean(f=1)", "shard 1: Mislabelling 50%", 0.02),
        ];
        let text = tdfm_json::to_string(&results);
        let figures = render_figures(&text).unwrap();
        assert_eq!(figures.len(), 1);
        let (name, svg) = &figures[0];
        assert_eq!(name, "shard_faults_aggregators.svg");
        assert!(svg.contains("aggregator"));
        assert!(svg.contains("Mean"));
        // Column labels are rates, with the shard prefix stripped.
        assert!(svg.contains("Mislabelling 50%"));
        assert!(!svg.contains("shard 1:"));
        // Determinism, like the other renderers.
        assert_eq!(render_figures(&text).unwrap(), figures);
    }

    #[test]
    fn shard_fault_rate_strips_the_shard_prefix() {
        assert_eq!(
            shard_fault_rate("shard 1: Mislabelling 50%"),
            "Mislabelling 50%"
        );
        assert_eq!(shard_fault_rate("clean"), "clean");
    }

    #[test]
    fn plan_labels_parse_into_row_labels_and_bit_ranges() {
        assert_eq!(
            plan_parts("weights/all/bits 23-30/x4@seed9"),
            ("weights x4".to_string(), 23, 30)
        );
        assert_eq!(
            plan_parts("activations/layers[0, 2]/bits 0-31/x16@seed56"),
            ("activations x16".to_string(), 0, 31)
        );
    }

    #[test]
    fn rendering_is_deterministic() {
        let results = vec![
            model_result(
                TechniqueKind::Baseline,
                "weights/all/bits 23-30/x4@seed9",
                0.2,
            ),
            model_result(
                TechniqueKind::Ensemble,
                "weights/all/bits 23-30/x4@seed9",
                0.05,
            ),
        ];
        let text = tdfm_json::to_string(&results);
        assert_eq!(
            render_figures(&text).unwrap(),
            render_figures(&text).unwrap()
        );
    }

    #[test]
    fn unrecognised_documents_are_rejected() {
        for text in ["[]", "{\"not\": \"an array\"}", "definitely not json"] {
            let err = render_figures(text).unwrap_err();
            for kind in [
                "experiment results",
                "model-fault results",
                "shard-fault results",
            ] {
                assert!(err.contains(kind), "{err}");
            }
        }
    }
}
