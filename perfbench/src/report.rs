//! Metric names, the result document, and the rules both must follow.

use crate::workloads::{Kind, AGGREGATORS, GRID};
use tdfm_core::technique::TechniqueKind;
use tdfm_json::{Number, Value};
use tdfm_nn::models::ModelKind;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms`, `1/s`, `count`.
    pub unit: &'static str,
}

/// Metrics of one run, in the order they were measured.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The value of metric `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// A metric name: starts with a letter or digit, at most 64 characters
/// from `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// The end-to-end metrics every untraced run reports.
pub const END_TO_END: [&str; 3] = ["units_per_s", "setup_s", "peak_rss_mb"];

/// Technique abbreviations timed as `core.fit_ms.<abbrev>` (the grid's
/// ConvNet positions, plus the ensemble in the traced run only).
pub fn fit_techniques() -> Vec<&'static str> {
    let mut out: Vec<&str> = GRID
        .iter()
        .filter(|(_, m)| *m == ModelKind::ConvNet)
        .map(|(t, _)| t.abbrev())
        .collect();
    out.push(TechniqueKind::Ensemble.abbrev());
    out
}

/// Every metric the traced run reports.
pub fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "tensor.gemm_gflops",
        "tensor.gemm_flops",
        "tensor.gemm_peak_gflops",
        "tensor.conv_fwd_us",
        "tensor.conv_bwd_us",
        "tensor.scratch_hit_ratio",
        "tensor.scratch_checkouts",
        "tensor.parallel_speedup_t2",
    ]
    .map(String::from)
    .to_vec();
    names.extend(ModelKind::ALL.map(|m| format!("nn.train_step_us.{}", m.name())));
    names.extend(
        [
            "nn.predict_us.ConvNet",
            "nn.allocs_per_step.fit",
            "nn.alloc_steps.fit",
            "nn.allocs_per_step.sharded",
            "nn.alloc_steps.sharded",
            "nn.step_coverage",
            "nn.steps_per_fit",
            "data.generate_ms.gtsrb",
            "data.generate_ms.cifar10",
            "inject.apply_us",
            "inject.labels_flipped",
            "inject.weight_flip_us",
            "inject.bits_flipped",
        ]
        .map(String::from),
    );
    names.extend(fit_techniques().iter().map(|t| format!("core.fit_ms.{t}")));
    names.extend(AGGREGATORS.map(|(a, _)| format!("core.aggregate_us.{a}")));
    names.extend(AGGREGATORS.map(|(a, _)| format!("core.sharded_fit_ms.{a}")));
    names.extend(
        [
            "core.golden_hit_ratio",
            "core.golden_lookups",
            "core.run_cell_ms",
        ]
        .map(String::from),
    );
    names.extend(Kind::ALL.map(|k| format!("obs.trace_overhead.{}", k.name())));
    names.extend(["host.calib_us", "host.contention", "host.calib_samples"].map(String::from));
    names
}

/// The result document the benchmark prints as its last line.
pub fn document(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> Value {
    let metrics = metrics
        .0
        .iter()
        .map(|m| {
            let body = Value::Object(vec![
                ("value".into(), Value::Num(Number::F64(m.value))),
                ("unit".into(), Value::Str(m.unit.into())),
            ]);
            (m.name.clone(), body)
        })
        .collect();
    Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Num(Number::UInt(attempted))),
        ("failed".into(), Value::Num(Number::UInt(failed))),
        ("metrics".into(), Value::Object(metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn name_grammar() {
        for good in [
            "setup_s",
            "nn.train_step_us.VGG16",
            "obs.trace_overhead.grid-gtsrb",
            "9x",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "core.aggregate_us.TrimmedMean(f=1)",
            "has space",
            "slash/name",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut seen = BTreeSet::new();
        for name in END_TO_END
            .iter()
            .map(|s| s.to_string())
            .chain(per_layer_names())
        {
            assert!(valid_name(&name), "{name}");
            assert!(seen.insert(name.clone()), "duplicate {name}");
        }
        assert!(per_layer_names().len() <= 128);
    }

    #[test]
    fn document_round_trips_through_tdfm_json() {
        let mut m = Metrics::default();
        m.push("units_per_s", 83.218_774_501_9, "1/s");
        m.push("setup_s", 0.812_7, "s");
        m.push("peak_rss_mb", 41.0, "MB");
        let doc = document(true, 1000, 0, &m);
        let text = tdfm_json::to_string(&doc);
        assert!(!text.contains('\n'), "one line");
        let back = tdfm_json::parse(&text).expect("valid JSON");
        assert_eq!(back, doc);
        assert_eq!(back.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(back.get("attempted").and_then(Value::as_u64), Some(1000));
        assert_eq!(back.get("failed").and_then(Value::as_u64), Some(0));
        let metrics = back.get("metrics").expect("metrics");
        for orig in &m.0 {
            let entry = metrics.get(&orig.name).expect("metric present");
            assert_eq!(entry.get("value").and_then(Value::as_f64), Some(orig.value));
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(orig.unit));
        }
    }

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// metrics this program reports.
    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = tdfm_json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Value::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END.map(String::from).to_vec());
        assert_eq!(names("per_layer"), per_layer_names());
        let workloads = names("workloads");
        assert_eq!(workloads, Kind::ALL.map(|k| k.name().to_string()).to_vec());
    }
}
