//! Run manifests: the machine-readable record of what a run executed.
//!
//! Every harness binary and `tdfm sweep` writes a `*.manifest.json` next
//! to its results: the configuration grid (one [`ManifestCell`] per
//! experiment cell, with its wall time), the seeds, the thread budget and
//! a [`MetricsSnapshot`] of every counter and histogram at the end of the
//! run. `tdfm report` aggregates one or more manifests (and JSONL traces)
//! into a human summary.

use crate::metrics::MetricsSnapshot;
use std::path::Path;
use tdfm_json::json_struct;

/// One experiment cell as recorded in a manifest. All identity fields are
/// plain strings so the manifest schema is independent of the experiment
/// crates (and readable by any JSON tool).
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestCell {
    /// Position in the run's grid (0-based).
    pub index: usize,
    /// Dataset name.
    pub dataset: String,
    /// Model architecture name.
    pub model: String,
    /// Mitigation technique name.
    pub technique: String,
    /// Human-readable fault label (`"Mislabelling 30%"`).
    pub fault: String,
    /// Experiment scale name.
    pub scale: String,
    /// Repetitions run for this cell.
    pub repetitions: usize,
    /// Base seed of the cell.
    pub seed: u64,
    /// Wall-clock seconds spent in this cell (training + inference summed
    /// over repetitions).
    pub wall_seconds: f64,
}

json_struct!(ManifestCell {
    index,
    dataset,
    model,
    technique,
    fault,
    scale,
    repetitions,
    seed,
    wall_seconds
});

/// One injection-provenance record of a run: how many faults of one kind
/// landed on one target of one cell, joined with that cell's mean
/// accuracy delta — so the manifest records which faults *mattered*, not
/// just how many fired. Written by the experiment runners from the
/// injector-level records; all identity fields are plain strings for the
/// same schema-independence reasons as [`ManifestCell`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProvenanceRecord {
    /// Index of the [`ManifestCell`] these faults belong to.
    pub cell: usize,
    /// Fault axis: `"data"`, `"weights"` or `"activations"`.
    pub source: String,
    /// Fault kind (`"Mislabelling"`, `"bitflip"`, ...).
    pub kind: String,
    /// What was hit (`"tensor 3"`, `"all layers"`, `"-"` for data faults).
    pub target: String,
    /// Lowest bit flipped (inclusive; 0 for data faults).
    pub bit_lo: u32,
    /// Highest bit flipped (inclusive; 0 for data faults).
    pub bit_hi: u32,
    /// Sample-index bucket (`"idx 0-63"`) or `"-"`.
    pub bucket: String,
    /// Faults that fired with this key, summed over the cell's
    /// repetitions.
    pub count: u64,
    /// The owning cell's mean accuracy delta — the join that turns raw
    /// counts into "did these faults move the model".
    pub ad_mean: f64,
}

json_struct!(ProvenanceRecord {
    cell,
    source,
    kind,
    target,
    bit_lo,
    bit_hi,
    bucket,
    count,
    ad_mean
});

/// The manifest of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Run name (usually the harness binary or sweep output stem).
    pub name: String,
    /// Seconds since the Unix epoch when the manifest was written.
    pub created_unix: u64,
    /// Scale the run executed at.
    pub scale: String,
    /// Worker-thread budget the run saw (`TDFM_THREADS` resolution).
    pub thread_budget: usize,
    /// Every cell of the run's grid, in execution-grid order.
    pub cells: Vec<ManifestCell>,
    /// Counter and histogram snapshot at the end of the run.
    pub metrics: MetricsSnapshot,
    /// Per-cell injection provenance (which faults fired where, joined
    /// with each cell's AD). Empty for runs whose harness predates the
    /// field — it parses as a default on old manifests.
    pub provenance: Vec<ProvenanceRecord>,
    /// Peak resident set size of the process at manifest time, bytes
    /// (`VmHWM` on Linux; 0 where unavailable).
    pub peak_rss_bytes: u64,
    /// Heap allocations observed by the counting allocator, when a
    /// harness opted in (0 otherwise).
    pub allocations: u64,
    /// Wall-clock seconds of the whole run, from the start of its record
    /// to manifest time (0 on manifests that predate the field).
    pub wall_seconds: f64,
}

json_struct!(RunManifest {
    name,
    created_unix,
    scale,
    thread_budget,
    cells,
    metrics,
    provenance = default,
    peak_rss_bytes = default,
    allocations = default,
    wall_seconds = default
});

impl RunManifest {
    /// Creates an empty manifest stamped with the current time.
    pub fn new(name: impl Into<String>, scale: impl Into<String>, thread_budget: usize) -> Self {
        let created_unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        Self {
            name: name.into(),
            created_unix,
            scale: scale.into(),
            thread_budget,
            cells: Vec::new(),
            metrics: MetricsSnapshot::default(),
            provenance: Vec::new(),
            peak_rss_bytes: crate::memory::peak_rss_bytes(),
            allocations: crate::memory::allocations(),
            wall_seconds: 0.0,
        }
    }

    /// Total wall seconds across all cells.
    pub fn total_wall_seconds(&self) -> f64 {
        self.cells.iter().map(|c| c.wall_seconds).sum()
    }

    /// Serialises to pretty JSON.
    pub fn to_json(&self) -> String {
        tdfm_json::to_string_pretty(self)
    }

    /// Writes the manifest to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Returns any filesystem error encountered.
    pub fn write(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json())
    }

    /// Reads and parses a manifest.
    ///
    /// # Errors
    ///
    /// Returns a description of the filesystem or parse failure.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        tdfm_json::from_str(&text).map_err(|e| format!("bad manifest {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use std::time::Duration;

    fn sample() -> RunManifest {
        let reg = Registry::new();
        reg.counter("golden_lookups").add(4);
        reg.counter("golden_trainings").add(1);
        reg.histogram("span.cell")
            .record(Duration::from_millis(120));
        let mut m = RunManifest::new("unit", "Tiny", 4);
        m.cells.push(ManifestCell {
            index: 0,
            dataset: "cifar-10".into(),
            model: "resnet50".into(),
            technique: "Ensemble".into(),
            fault: "Mislabelling 30%".into(),
            scale: "Tiny".into(),
            repetitions: 2,
            seed: 42,
            wall_seconds: 1.25,
        });
        m.metrics = reg.snapshot();
        m
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let m = sample();
        let back: RunManifest = tdfm_json::from_str(&m.to_json()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.metrics.counter("golden_lookups"), Some(4));
        assert!((back.total_wall_seconds() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn manifest_writes_and_loads() {
        let dir = std::env::temp_dir().join("tdfm-obs-manifest-test");
        let path = dir.join("run.manifest.json");
        let m = sample();
        m.write(&path).unwrap();
        let back = RunManifest::load(&path).unwrap();
        assert_eq!(back, m);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn provenance_and_memory_fields_round_trip() {
        let mut m = sample();
        m.peak_rss_bytes = 123_456_789;
        m.allocations = 42;
        m.wall_seconds = 3.5;
        m.provenance.push(ProvenanceRecord {
            cell: 0,
            source: "data".into(),
            kind: "Mislabelling".into(),
            target: "-".into(),
            bit_lo: 0,
            bit_hi: 0,
            bucket: "idx 0-63".into(),
            count: 17,
            ad_mean: 0.25,
        });
        let back: RunManifest = tdfm_json::from_str(&m.to_json()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.provenance[0].count, 17);
    }

    #[test]
    fn manifests_without_new_fields_still_parse() {
        // A manifest written before provenance / memory accounting / run
        // wall time existed must load with defaults, not fail.
        let mut m = sample();
        m.provenance.clear();
        m.wall_seconds = 2.0;
        let mut json = m.to_json();
        for field in [
            "\"provenance\"",
            "\"peak_rss_bytes\"",
            "\"allocations\"",
            "\"wall_seconds\": 2",
        ] {
            assert!(json.contains(field));
        }
        // Strip the new fields out of the serialised form.
        let value: tdfm_json::Value = tdfm_json::from_str(&json).unwrap();
        let tdfm_json::Value::Object(mut map) = value else {
            panic!("manifest is an object")
        };
        map.retain(|(k, _)| {
            !matches!(
                k.as_str(),
                "provenance" | "peak_rss_bytes" | "allocations" | "wall_seconds"
            )
        });
        json = tdfm_json::to_string(&tdfm_json::Value::Object(map));
        let back: RunManifest = tdfm_json::from_str(&json).unwrap();
        assert!(back.provenance.is_empty());
        assert_eq!(back.peak_rss_bytes, 0);
        assert_eq!(back.allocations, 0);
        assert_eq!(back.wall_seconds, 0.0);
        assert_eq!(back.cells, m.cells);
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = std::env::temp_dir().join("tdfm-obs-manifest-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.manifest.json");
        std::fs::write(&path, "{not json").unwrap();
        assert!(RunManifest::load(&path).is_err());
        assert!(RunManifest::load(dir.join("missing.json")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
