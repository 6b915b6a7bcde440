//! SARIF 2.1.0 rendering of a lint run, for CI code-scanning upload.
//!
//! One `run` with the `tdfm-lint` driver; every registered rule is listed
//! under the driver (id + short description from [`Rule::summary`]), and
//! each diagnostic becomes a `result` with a physical location. Columns
//! are character-based, which is exactly SARIF's default
//! (`columnKind: "unicodeCodePoints"`).
//!
//! [`Rule::summary`]: crate::rules::Rule::summary

use tdfm_json::{Number, Value};

use crate::diag::Diagnostic;
use crate::rules::all_rules;

const SARIF_SCHEMA: &str = "https://json.schemastore.org/sarif-2.1.0.json";
const SARIF_VERSION: &str = "2.1.0";

fn s(text: impl Into<String>) -> Value {
    Value::Str(text.into())
}

fn num(n: u64) -> Value {
    Value::Num(Number::UInt(n))
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn text_message(text: impl Into<String>) -> Value {
    obj(vec![("text", s(text))])
}

fn rule_descriptor(id: &str, summary: &str) -> Value {
    obj(vec![
        ("id", s(id)),
        ("shortDescription", text_message(summary)),
    ])
}

fn result(d: &Diagnostic) -> Value {
    let location = obj(vec![(
        "physicalLocation",
        obj(vec![
            ("artifactLocation", obj(vec![("uri", s(&*d.file))])),
            (
                "region",
                obj(vec![
                    ("startLine", num(u64::from(d.line))),
                    ("startColumn", num(u64::from(d.col))),
                ]),
            ),
        ]),
    )]);
    obj(vec![
        ("ruleId", s(d.rule)),
        ("level", s("warning")),
        (
            "message",
            text_message(format!("{} (help: {})", d.message, d.suggestion)),
        ),
        ("locations", Value::Array(vec![location])),
    ])
}

/// Renders the run as a SARIF 2.1.0 document. `bad-suppression` is an
/// engine-level finding, not a registered rule, so it gets a descriptor
/// of its own.
pub fn report_sarif(diags: &[Diagnostic]) -> String {
    let mut rules: Vec<Value> = all_rules()
        .iter()
        .map(|r| rule_descriptor(r.id(), r.summary()))
        .collect();
    rules.push(rule_descriptor(
        "bad-suppression",
        "malformed, reasonless or stale `tdfm-lint: allow(...)` suppression comment",
    ));
    let driver = obj(vec![
        ("name", s("tdfm-lint")),
        ("rules", Value::Array(rules)),
    ]);
    let run = obj(vec![
        ("tool", obj(vec![("driver", driver)])),
        ("columnKind", s("unicodeCodePoints")),
        ("results", Value::Array(diags.iter().map(result).collect())),
    ]);
    let doc = obj(vec![
        ("$schema", s(SARIF_SCHEMA)),
        ("version", s(SARIF_VERSION)),
        ("runs", Value::Array(vec![run])),
    ]);
    tdfm_json::to_string_pretty(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic {
            file: "crates/tensor/src/ops/gemm.rs".to_string(),
            line: 12,
            col: 9,
            rule: "hot-path-alloc",
            message: "`.to_vec()` allocates".to_string(),
            suggestion: "use the Scratch arena".to_string(),
        }
    }

    #[test]
    fn sarif_parses_and_locates_the_finding() {
        let text = report_sarif(&[sample()]);
        let v = tdfm_json::parse(&text).expect("SARIF is valid JSON");
        assert_eq!(v.get("version").and_then(Value::as_str), Some("2.1.0"));
        let runs = v.get("runs").and_then(Value::as_array).expect("runs");
        let results = runs[0]
            .get("results")
            .and_then(Value::as_array)
            .expect("results");
        assert_eq!(results.len(), 1);
        assert_eq!(
            results[0].get("ruleId").and_then(Value::as_str),
            Some("hot-path-alloc")
        );
        let region = results[0]
            .get("locations")
            .and_then(Value::as_array)
            .and_then(|l| l[0].get("physicalLocation"))
            .and_then(|p| p.get("region"))
            .expect("region");
        assert_eq!(region.get("startLine").and_then(Value::as_u64), Some(12));
        assert_eq!(region.get("startColumn").and_then(Value::as_u64), Some(9));
    }

    #[test]
    fn every_registered_rule_has_a_descriptor() {
        let text = report_sarif(&[]);
        let v = tdfm_json::parse(&text).expect("valid JSON");
        let rules = v
            .get("runs")
            .and_then(Value::as_array)
            .and_then(|r| r[0].get("tool"))
            .and_then(|t| t.get("driver"))
            .and_then(|d| d.get("rules"))
            .and_then(Value::as_array)
            .expect("rules array");
        for rule in crate::rules::all_rules() {
            assert!(
                rules
                    .iter()
                    .any(|r| r.get("id").and_then(Value::as_str) == Some(rule.id())),
                "missing descriptor for {}",
                rule.id()
            );
        }
    }
}
