//! `tdfm report`: aggregate run manifests and JSONL traces into a
//! human-readable summary (slowest cells, golden-cache hit rate,
//! histogram percentiles, event counts).
//!
//! Parsing is strict — a malformed manifest or a trace line that is not
//! valid JSON is an error, which is what lets CI use `tdfm report` as the
//! "trace is valid JSONL and the manifest parses" assertion.

use crate::manifest::RunManifest;
use crate::sink::Level;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use tdfm_json::Value;

/// How many slowest cells a manifest section lists.
const SLOWEST: usize = 5;

/// How many provenance records a manifest section lists.
const PROVENANCE_TOP: usize = 10;

/// Renders a summary of the given manifest / trace files.
///
/// A file with a `.jsonl` extension — or whose first line is a complete
/// JSON object carrying a `ts_ms` field — is treated as a JSONL trace
/// where every non-empty line must parse as a JSON object with `ts_ms`,
/// `level` and `event` fields; anything else is parsed as a
/// [`RunManifest`].
///
/// # Errors
///
/// Returns a description of the first unreadable or malformed input.
pub fn render_report(paths: &[impl AsRef<Path>]) -> Result<String, String> {
    if paths.is_empty() {
        return Err("report needs at least one manifest or trace file".to_string());
    }
    let mut out = String::new();
    for path in paths {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        if looks_like_trace(path, &text) {
            let summary = TraceSummary::parse(path, &text)?;
            summary.render(&mut out, path);
        } else {
            let manifest = RunManifest::load(path)?;
            render_manifest(&mut out, path, &manifest);
        }
    }
    Ok(out)
}

fn looks_like_trace(path: &Path, text: &str) -> bool {
    if path.extension().is_some_and(|e| e == "jsonl") {
        return true;
    }
    // A pretty-printed manifest's first line is a lone `{`, which does not
    // parse on its own; a trace's first line is a complete record.
    text.lines()
        .find(|l| !l.trim().is_empty())
        .and_then(|l| tdfm_json::parse(l).ok())
        .is_some_and(|v| v.get("ts_ms").is_some())
}

fn render_manifest(out: &mut String, path: &Path, m: &RunManifest) {
    let _ = writeln!(out, "== manifest: {} ({}) ==", m.name, path.display());
    let _ = writeln!(
        out,
        "cells: {}   scale: {}   thread budget: {}   total cell wall: {:.2}s   run wall: {:.2}s",
        m.cells.len(),
        m.scale,
        m.thread_budget,
        m.total_wall_seconds(),
        m.wall_seconds
    );

    let lookups = m.metrics.counter("golden_lookups").unwrap_or(0);
    let trained = m.metrics.counter("golden_trainings").unwrap_or(0);
    if lookups > 0 {
        let hits = lookups.saturating_sub(trained);
        let _ = writeln!(
            out,
            "golden cache: {} lookups, {} trained — hit rate {:.1}%",
            lookups,
            trained,
            100.0 * hits as f64 / lookups as f64
        );
    }

    if !m.cells.is_empty() {
        let mut by_wall: Vec<_> = m.cells.iter().collect();
        by_wall.sort_by(|a, b| b.wall_seconds.total_cmp(&a.wall_seconds));
        let _ = writeln!(out, "slowest cells:");
        for cell in by_wall.iter().take(SLOWEST) {
            let _ = writeln!(
                out,
                "  {:>9.3}s  [{:>3}] {} / {} / {} / {}",
                cell.wall_seconds, cell.index, cell.dataset, cell.model, cell.technique, cell.fault
            );
        }
    }

    let live: Vec<_> = m
        .metrics
        .histograms
        .iter()
        .filter(|h| h.count > 0)
        .collect();
    if !live.is_empty() {
        let _ = writeln!(out, "histograms:");
        for h in live {
            let _ = writeln!(
                out,
                "  {:<24} count {:>7}  mean {:>10.4}s  p50 {:>10.4}s  p90 {:>10.4}s  p99 {:>10.4}s  max {:>10.4}s",
                h.name, h.count, h.mean_seconds, h.p50_seconds, h.p90_seconds, h.p99_seconds, h.max_seconds
            );
        }
    }
    let counters: Vec<_> = m.metrics.counters.iter().filter(|c| c.value > 0).collect();
    if !counters.is_empty() {
        let _ = writeln!(out, "counters:");
        for c in counters {
            let _ = writeln!(out, "  {:<24} {:>10}", c.name, c.value);
        }
    }
    if m.peak_rss_bytes > 0 || m.allocations > 0 {
        let _ = writeln!(
            out,
            "memory: peak RSS {:.1} MiB, {} heap allocation(s) counted",
            m.peak_rss_bytes as f64 / (1024.0 * 1024.0),
            m.allocations
        );
    }
    if !m.provenance.is_empty() {
        let _ = writeln!(
            out,
            "injection provenance ({} record(s), top {} by |AD|·count):",
            m.provenance.len(),
            PROVENANCE_TOP.min(m.provenance.len())
        );
        let mut ranked: Vec<_> = m.provenance.iter().collect();
        // Damage-weighted count surfaces the faults that both fired often
        // and sat in a cell whose predictions actually moved.
        ranked.sort_by(|a, b| {
            let weight = |r: &crate::manifest::ProvenanceRecord| r.ad_mean.abs() * r.count as f64;
            weight(b)
                .total_cmp(&weight(a))
                .then(a.cell.cmp(&b.cell))
                .then(a.kind.cmp(&b.kind))
                .then(a.target.cmp(&b.target))
                .then(a.bucket.cmp(&b.bucket))
        });
        for r in ranked.iter().take(PROVENANCE_TOP) {
            let target = if r.kind == "bitflip" {
                format!("{} bits {}-{}", r.target, r.bit_lo, r.bit_hi)
            } else {
                r.target.clone()
            };
            let _ = writeln!(
                out,
                "  [{:>3}] {:<11} {:<12} {:<22} {:<12} x{:<8} AD {:+.4}",
                r.cell, r.source, r.kind, target, r.bucket, r.count, r.ad_mean
            );
        }
    }
    out.push('\n');
}

/// Aggregated view of one JSONL trace file.
struct TraceSummary {
    records: usize,
    by_level: BTreeMap<String, usize>,
    by_event: BTreeMap<String, usize>,
    span_seconds: BTreeMap<String, (usize, f64)>,
    first_ts_ms: u64,
    last_ts_ms: u64,
    errors: Vec<String>,
}

impl TraceSummary {
    fn parse(path: &Path, text: &str) -> Result<TraceSummary, String> {
        let mut summary = TraceSummary {
            records: 0,
            by_level: BTreeMap::new(),
            by_event: BTreeMap::new(),
            span_seconds: BTreeMap::new(),
            first_ts_ms: u64::MAX,
            last_ts_ms: 0,
            errors: Vec::new(),
        };
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let record = tdfm_json::parse(line)
                .map_err(|e| format!("{}:{}: invalid JSON: {e}", path.display(), lineno + 1))?;
            let ts = record
                .get("ts_ms")
                .and_then(Value::as_u64)
                .ok_or_else(|| missing(path, lineno, "ts_ms"))?;
            let level = record
                .get("level")
                .and_then(Value::as_str)
                .ok_or_else(|| missing(path, lineno, "level"))?;
            if Level::parse(level).is_none() {
                return Err(format!(
                    "{}:{}: unknown level `{level}`",
                    path.display(),
                    lineno + 1
                ));
            }
            let event = record
                .get("event")
                .and_then(Value::as_str)
                .ok_or_else(|| missing(path, lineno, "event"))?;

            summary.records += 1;
            summary.first_ts_ms = summary.first_ts_ms.min(ts);
            summary.last_ts_ms = summary.last_ts_ms.max(ts);
            *summary.by_level.entry(level.to_string()).or_default() += 1;
            *summary.by_event.entry(event.to_string()).or_default() += 1;
            if event == "span_close" {
                let span = record
                    .get("span")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string();
                let seconds = record
                    .get("fields")
                    .and_then(|f| f.get("seconds"))
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0);
                let entry = summary.span_seconds.entry(span).or_insert((0, 0.0));
                entry.0 += 1;
                entry.1 += seconds;
            }
            if level == "error" {
                let mut msg = event.to_string();
                if let Some(Value::Object(fields)) = record.get("fields") {
                    for (k, v) in fields {
                        let _ = write!(msg, " {k}={}", tdfm_json::to_string(v));
                    }
                }
                summary.errors.push(msg);
            }
        }
        Ok(summary)
    }

    fn render(&self, out: &mut String, path: &Path) {
        let _ = writeln!(out, "== trace: {} ==", path.display());
        let wall = if self.records > 0 {
            (self.last_ts_ms.saturating_sub(self.first_ts_ms)) as f64 / 1e3
        } else {
            0.0
        };
        let _ = writeln!(out, "{} records spanning {:.2}s", self.records, wall);
        if !self.by_level.is_empty() {
            let levels: Vec<String> = self
                .by_level
                .iter()
                .map(|(l, n)| format!("{l} x{n}"))
                .collect();
            let _ = writeln!(out, "levels: {}", levels.join(", "));
        }
        if !self.by_event.is_empty() {
            let _ = writeln!(out, "events:");
            let mut events: Vec<_> = self.by_event.iter().collect();
            events.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
            for (event, n) in events {
                let _ = writeln!(out, "  {event:<24} x{n}");
            }
        }
        if !self.span_seconds.is_empty() {
            let _ = writeln!(out, "span wall-clock totals:");
            for (span, (n, secs)) in &self.span_seconds {
                let span = if span.is_empty() { "(root)" } else { span };
                let _ = writeln!(out, "  {span:<24} x{n:<6} total {secs:>9.3}s");
            }
        }
        for e in &self.errors {
            let _ = writeln!(out, "ERROR: {e}");
        }
        out.push('\n');
    }
}

fn missing(path: &Path, lineno: usize, field: &str) -> String {
    format!(
        "{}:{}: record is missing required field `{field}`",
        path.display(),
        lineno + 1
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str, content: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("tdfm-obs-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, content).unwrap();
        path
    }

    #[test]
    fn reports_a_valid_trace() {
        let path = tmp(
            "ok.jsonl",
            concat!(
                "{\"ts_ms\":1000,\"level\":\"info\",\"span\":\"\",\"event\":\"grid_cell\",\"fields\":{\"cell\":1}}\n",
                "{\"ts_ms\":2500,\"level\":\"debug\",\"span\":\"cell\",\"event\":\"span_close\",\"fields\":{\"seconds\":1.5}}\n",
                "{\"ts_ms\":2600,\"level\":\"error\",\"span\":\"\",\"event\":\"loss_nonfinite\",\"fields\":{\"loss\":null}}\n",
            ),
        );
        let report = render_report(&[&path]).unwrap();
        assert!(report.contains("3 records"), "{report}");
        assert!(report.contains("grid_cell"), "{report}");
        assert!(report.contains("ERROR: loss_nonfinite"), "{report}");
        assert!(report.contains("1.500s"), "{report}");
    }

    #[test]
    fn rejects_invalid_trace_lines() {
        let path = tmp("bad.jsonl", "this is not json\n");
        assert!(render_report(&[&path]).is_err());
        let path = tmp("short.jsonl", "{\"level\":\"info\"}\n");
        let err = render_report(&[&path]).unwrap_err();
        assert!(err.contains("ts_ms"), "{err}");
        let path = tmp(
            "lvl.jsonl",
            "{\"ts_ms\":1,\"level\":\"loud\",\"event\":\"x\"}\n",
        );
        assert!(render_report(&[&path]).unwrap_err().contains("loud"));
    }

    #[test]
    fn empty_input_list_is_an_error() {
        assert!(render_report(&Vec::<std::path::PathBuf>::new()).is_err());
    }

    #[test]
    fn manifest_report_shows_provenance_and_memory() {
        use crate::manifest::{ProvenanceRecord, RunManifest};
        let mut m = RunManifest::new("prov", "tiny", 2);
        m.peak_rss_bytes = 64 * 1024 * 1024;
        m.allocations = 12;
        m.wall_seconds = 7.25;
        let record = |cell, kind: &str, bucket: &str, count, ad_mean| ProvenanceRecord {
            cell,
            source: "data".into(),
            kind: kind.into(),
            target: "-".into(),
            bit_lo: 0,
            bit_hi: 0,
            bucket: bucket.into(),
            count,
            ad_mean,
        };
        // The damaging cell must outrank the quiet one despite fewer faults.
        m.provenance
            .push(record(1, "Mislabelling", "idx 0-63", 5, 0.4));
        m.provenance.push(record(0, "Removal", "-", 100, 0.001));
        let path = tmp("prov.manifest.json", &m.to_json());
        let report = render_report(&[&path]).unwrap();
        assert!(report.contains("peak RSS 64.0 MiB"), "{report}");
        assert!(report.contains("12 heap allocation(s)"), "{report}");
        assert!(report.contains("run wall: 7.25s"), "{report}");
        let mislabel = report.find("Mislabelling").unwrap();
        let removal = report.find("Removal").unwrap();
        assert!(mislabel < removal, "damage-weighted order\n{report}");
        assert!(report.contains("idx 0-63"), "{report}");
    }
}
