//! The experiment protocol of Fig. 2: golden model vs technique-protected
//! faulty model, repeated and summarised with confidence intervals.
//!
//! The runner exploits two levels of parallelism, mirroring how the paper
//! spread its 33 days of GPU time over a cluster:
//!
//! * [`Runner::run_grid`] fans independent experiment cells across worker
//!   threads, and each cell does the same for its repetitions. Results are
//!   collected by index, so output order (and the serialised JSON) is
//!   identical to a sequential run.
//! * Each worker hands the nested tensor kernels a reduced thread budget
//!   via [`tdfm_tensor::parallel::with_inner_threads`], so grid-level and
//!   kernel-level parallelism share one global budget instead of
//!   oversubscribing the machine.
//!
//! Golden-model and shared-fit caches are keyed maps of
//! [`OnceLock`] slots: concurrent cells that need the same golden model
//! block on one training instead of racing to train it twice.
//!
//! `RunLog` is the record of a run that all three fault runners share
//! (this runner, [`crate::model_fault::ModelFaultRunner`] and
//! [`crate::distributed::ShardFaultRunner`]): metrics, injection provenance
//! and wall time, written out as one [`RunManifest`].

use crate::metrics::{accuracy, accuracy_delta, ConfidenceInterval};
use crate::technique::{TechniqueKind, TrainContext};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use tdfm_data::{DatasetKind, Scale, TrainTest};
use tdfm_inject::{FaultPlan, FaultRecord, Injector, ProvenanceBuilder};
use tdfm_json::json_struct;
use tdfm_nn::models::ModelKind;
use tdfm_obs::{event, span, Level, ManifestCell, ProvenanceRecord, RunManifest};
use tdfm_tensor::parallel::{num_threads, with_inner_threads};

/// One experiment cell: a (dataset, model, technique, fault plan) tuple at
/// a given scale, repeated `repetitions` times.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Dataset under study.
    pub dataset: DatasetKind,
    /// Architecture under study (ignored by the ensemble technique, whose
    /// composition is fixed — see the paper's figures).
    pub model: ModelKind,
    /// Mitigation technique (or the baseline).
    pub technique: TechniqueKind,
    /// Faults injected into the training data.
    pub fault_plan: FaultPlan,
    /// Experiment scale.
    pub scale: Scale,
    /// Number of repetitions (the paper used 20).
    pub repetitions: usize,
    /// Base seed; repetition `r` derives its own seed.
    pub seed: u64,
}

json_struct!(ExperimentConfig {
    dataset,
    model,
    technique,
    fault_plan,
    scale,
    repetitions,
    seed
});

/// Raw outcome of one repetition.
#[derive(Debug, Clone)]
pub struct RepetitionResult {
    /// Test accuracy of the golden (clean-trained, unprotected) model.
    pub golden_accuracy: f32,
    /// Test accuracy of the technique-protected faulty model.
    pub faulty_accuracy: f32,
    /// Accuracy delta (Fig. 2).
    pub accuracy_delta: f32,
    /// Wall-clock training time of the protected model, seconds.
    pub train_seconds: f64,
    /// Wall-clock test-set inference time of the protected model, seconds.
    pub infer_seconds: f64,
}

json_struct!(RepetitionResult {
    golden_accuracy,
    faulty_accuracy,
    accuracy_delta,
    train_seconds,
    infer_seconds
});

/// Aggregated outcome of one experiment cell.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The configuration this result belongs to.
    pub config: ExperimentConfig,
    /// Human-readable fault label (e.g. `"Mislabelling 30%"`).
    pub fault_label: String,
    /// Per-repetition raw results.
    pub repetitions: Vec<RepetitionResult>,
    /// AD mean and 95% CI over repetitions.
    pub ad: ConfidenceInterval,
    /// Golden accuracy mean and CI.
    pub golden_accuracy: ConfidenceInterval,
    /// Faulty (protected) accuracy mean and CI.
    pub faulty_accuracy: ConfidenceInterval,
}

json_struct!(ExperimentResult {
    config,
    fault_label,
    repetitions,
    ad,
    golden_accuracy,
    faulty_accuracy
});

impl ExperimentResult {
    /// Serialises the result as pretty JSON.
    pub fn to_json(&self) -> String {
        tdfm_json::to_string_pretty(self)
    }

    /// Zeroes the wall-clock fields, which are the only part of a result
    /// that is not a deterministic function of the configuration. Used by
    /// callers comparing parallel against sequential output byte for byte.
    pub fn normalize_timings(&mut self) {
        for rep in &mut self.repetitions {
            rep.train_seconds = 0.0;
            rep.infer_seconds = 0.0;
        }
    }
}

#[derive(Clone)]
struct GoldenEntry {
    predictions: Vec<u32>,
    accuracy: f32,
}

type GoldenKey = (DatasetKind, ModelKind, Scale, u64);

#[derive(Clone)]
struct SharedFit {
    predictions: Vec<u32>,
    train_seconds: f64,
    infer_seconds: f64,
}

/// Key for model-independent techniques: (technique full name, dataset,
/// scale, repetition seed, fault label).
type SharedKey = (String, DatasetKind, Scale, u64, String);

/// A cache of `V` values computed at most once per key.
///
/// The map lock is only held to look up or insert the per-key slot — never
/// while computing a value — so concurrent workers stay off each other's
/// keys. Workers that race on the *same* key block on the slot's
/// [`OnceLock`] and share the single computed value, which is what makes
/// the golden cache safe under [`Runner::run_grid`].
struct OnceMap<K, V> {
    slots: Mutex<HashMap<K, Arc<OnceLock<Arc<V>>>>>,
}

impl<K, V> Default for OnceMap<K, V> {
    fn default() -> Self {
        Self {
            slots: Mutex::new(HashMap::new()),
        }
    }
}

impl<K: std::hash::Hash + Eq + Clone, V> OnceMap<K, V> {
    fn get_or_compute(&self, key: &K, compute: impl FnOnce() -> V) -> Arc<V> {
        let slot = {
            let mut map = self.slots.lock().expect("cache lock poisoned");
            Arc::clone(map.entry(key.clone()).or_default())
        };
        Arc::clone(slot.get_or_init(|| Arc::new(compute())))
    }
}

/// A cell result a [`RunLog`] can write into a [`RunManifest`]: the result
/// types of all three runners supply their manifest cell, the fault axis
/// of their provenance and their AD.
pub(crate) trait CellResult {
    /// The cell's manifest entry at grid position `index`.
    fn manifest_cell(&self, index: usize) -> ManifestCell;
    /// Fault axis of the cell's provenance: `"data"` unless the result
    /// says `"weights"` or `"activations"`.
    fn provenance_source(&self) -> &'static str {
        "data"
    }
    /// Mean accuracy delta, joined onto each of the cell's provenance
    /// records.
    fn ad_mean(&self) -> f32;
}

/// The provenance key of a cell: its [`ManifestCell`] identity (scale and
/// seed are fixed per run and would only split identical cells apart).
fn cell_identity(dataset: &str, model: &str, technique: &str, fault: &str) -> String {
    format!("{dataset}|{model}|{technique}|{fault}")
}

/// The record of one run, held by each of the three fault runners.
///
/// It owns a private [`tdfm_obs::Registry`], so cache counters and
/// cell/repetition timings stay exact even when several runners share a
/// process (as the test suite does), and the injection provenance of every
/// cell identity, summed over every repetition the runner executed for it.
/// [`RunLog::manifest`] snapshots both, merged with the process-global
/// registry, into a [`RunManifest`] stamped with the seconds since the log
/// was created.
pub(crate) struct RunLog {
    pub(crate) metrics: tdfm_obs::Registry,
    /// Keyed by [`cell_identity`]; a `BTreeMap` keeps manifest output
    /// deterministic under thread fan-out.
    provenance: Mutex<BTreeMap<String, ProvenanceBuilder>>,
    started: Instant,
}

impl Default for RunLog {
    fn default() -> Self {
        Self {
            metrics: tdfm_obs::Registry::new(),
            provenance: Mutex::new(BTreeMap::new()),
            started: Instant::now(),
        }
    }
}

impl RunLog {
    /// Adds injection records to the cell (`dataset`, `model`,
    /// `technique`, `fault`).
    pub(crate) fn add_provenance(
        &self,
        dataset: DatasetKind,
        model: ModelKind,
        technique: &str,
        fault: &str,
        records: &[FaultRecord],
    ) {
        if records.is_empty() {
            return;
        }
        let key = cell_identity(dataset.name(), model.name(), technique, fault);
        self.provenance
            .lock()
            .expect("provenance lock poisoned")
            .entry(key)
            .or_default()
            .extend(records);
    }

    /// Builds the run manifest of a batch of results (see
    /// [`Runner::manifest`]).
    pub(crate) fn manifest<T: CellResult>(&self, name: &str, results: &[T]) -> RunManifest {
        let cells: Vec<ManifestCell> = results
            .iter()
            .enumerate()
            .map(|(index, result)| result.manifest_cell(index))
            .collect();
        let scale = match cells.split_first() {
            None => "-",
            Some((first, rest)) if rest.iter().any(|c| c.scale != first.scale) => "mixed",
            Some((first, _)) => first.scale.as_str(),
        };
        let mut manifest = RunManifest::new(name, scale, num_threads());
        // A snapshot, so no lock is held while the results are joined.
        let provenance = self
            .provenance
            .lock()
            .expect("provenance lock poisoned")
            .clone();
        for (cell, result) in cells.iter().zip(results) {
            let key = cell_identity(&cell.dataset, &cell.model, &cell.technique, &cell.fault);
            let Some(builder) = provenance.get(&key) else {
                continue;
            };
            manifest
                .provenance
                .extend(builder.records().into_iter().map(|r| ProvenanceRecord {
                    cell: cell.index,
                    source: result.provenance_source().to_string(),
                    kind: r.kind,
                    target: r.target,
                    bit_lo: r.bit_lo,
                    bit_hi: r.bit_hi,
                    bucket: r.bucket,
                    count: r.count,
                    ad_mean: result.ad_mean() as f64,
                }));
        }
        manifest.cells = cells;
        let mut metrics = self.metrics.snapshot();
        metrics.merge(&tdfm_obs::global().snapshot());
        manifest.metrics = metrics;
        manifest.wall_seconds = self.started.elapsed().as_secs_f64();
        manifest
    }
}

/// The seed of repetition `r` under base seed `seed`, the same rule on
/// every runner.
pub(crate) fn rep_seed(seed: u64, r: usize) -> u64 {
    seed.wrapping_add(1 + r as u64).wrapping_mul(0x9E37_79B9)
}

impl CellResult for ExperimentResult {
    fn manifest_cell(&self, index: usize) -> ManifestCell {
        ManifestCell {
            index,
            dataset: self.config.dataset.name().to_string(),
            model: self.config.model.name().to_string(),
            technique: self.config.technique.full_name(),
            fault: self.fault_label.clone(),
            scale: self.config.scale.name().to_string(),
            repetitions: self.config.repetitions,
            seed: self.config.seed,
            wall_seconds: self
                .repetitions
                .iter()
                .map(|rep| rep.train_seconds + rep.infer_seconds)
                .sum(),
        }
    }

    fn ad_mean(&self) -> f32 {
        self.ad.mean
    }
}

/// Runs experiment cells, caching golden-model predictions.
///
/// The golden model for a `(dataset, model, scale, repetition-seed)` tuple
/// is shared by every technique and fault amount, and fitted ensembles are
/// shared across per-model panels — the same sharing the paper exploits to
/// keep 33 days of GPU time tractable. The run's metrics and provenance
/// live in its `RunLog`.
#[derive(Default)]
pub struct Runner {
    golden: OnceMap<GoldenKey, GoldenEntry>,
    shared: OnceMap<SharedKey, SharedFit>,
    log: RunLog,
}

/// Runs `work` on every item on up to [`num_threads`] workers,
/// collecting the results in item order so output order never depends on
/// scheduling. Each worker runs under an inner thread budget of
/// `total / workers`, keeping nested parallelism (tensor kernels, ensemble
/// members, per-cell repetitions) within the global budget.
///
/// Items move into the workers, so an item may be a `&mut` borrow: each
/// one reaches exactly one call. Pass `0..count` to run by index.
pub(crate) fn run_indexed<I: Send, T: Send>(
    items: impl IntoIterator<Item = I, IntoIter: ExactSizeIterator + Send>,
    work: impl Fn(I) -> T + Sync,
) -> Vec<T> {
    let items = items.into_iter();
    let count = items.len();
    let budget = num_threads();
    let workers = budget.min(count);
    if workers <= 1 {
        return items.map(work).collect();
    }
    let inner = (budget / workers).max(1);
    // A worker holds the queue lock only to take its next item.
    let queue = Mutex::new(items.enumerate());
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let queue = &queue;
            let slots = &slots;
            let work = &work;
            scope.spawn(move || {
                // The budget must be re-established here: thread-locals do
                // not cross the spawn.
                with_inner_threads(inner, || loop {
                    let next = queue.lock().expect("queue lock poisoned").next();
                    let Some((i, item)) = next else { break };
                    let result = work(item);
                    *slots[i].lock().expect("slot lock poisoned") = Some(result);
                });
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock poisoned")
                .expect("every slot is filled")
        })
        .collect()
}

impl Runner {
    /// Creates a runner with an empty golden cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of golden models actually *trained* (cache hits don't
    /// count). Under [`Runner::run_grid`] this must equal the number of
    /// distinct golden keys, however many cells share them — the
    /// regression guard for the cache's in-flight deduplication.
    ///
    /// Backed by this runner's `golden_trainings` metrics counter, which
    /// also lands in the run manifest.
    pub fn golden_trainings(&self) -> usize {
        self.log.metrics.counter("golden_trainings").get() as usize
    }

    /// Snapshot of this runner's private metrics (cache counters, cell and
    /// repetition timings).
    pub fn metrics_snapshot(&self) -> tdfm_obs::MetricsSnapshot {
        self.log.metrics.snapshot()
    }

    fn golden_entry(
        &self,
        dataset: DatasetKind,
        model: ModelKind,
        scale: Scale,
        rep_seed: u64,
        data: &TrainTest,
    ) -> Arc<GoldenEntry> {
        let key = (dataset, model, scale, rep_seed);
        self.log.metrics.counter("golden_lookups").inc();
        self.golden.get_or_compute(&key, || {
            self.log.metrics.counter("golden_trainings").inc();
            event!(
                Level::Debug,
                "golden_training",
                dataset = dataset.name(),
                model = model.name(),
                scale = scale.name(),
                rep_seed = rep_seed
            );
            let mut ctx = TrainContext::new(scale, rep_seed);
            ctx.tune_for(data.train.len());
            let mut fitted = TechniqueKind::Baseline
                .build()
                .fit(model, &data.train, &ctx);
            let predictions = fitted.predict(data.test.images());
            GoldenEntry {
                accuracy: accuracy(&predictions, data.test.labels()),
                predictions,
            }
        })
    }

    /// Runs one experiment cell.
    ///
    /// Per repetition: generate the dataset, obtain (or reuse) the golden
    /// model's test predictions, inject the fault plan into the training
    /// data, fit the technique, and measure accuracy + AD on the test set.
    ///
    /// Repetitions execute on worker threads (within the current thread
    /// budget) and are collected by index, so the aggregated result is
    /// identical to a sequential run: each repetition is a deterministic
    /// function of its derived seed.
    ///
    /// # Panics
    ///
    /// Panics if `repetitions == 0`.
    pub fn run(&self, config: &ExperimentConfig) -> ExperimentResult {
        assert!(config.repetitions > 0, "need at least one repetition");
        let reps = run_indexed(0..config.repetitions, |r| {
            let rep_seed = rep_seed(config.seed, r);
            let _rep_span = span!("repetition", rep = r, seed = rep_seed);
            let started = Instant::now();
            let result = self.run_repetition(config, rep_seed);
            self.log
                .metrics
                .histogram("repetition_seconds")
                .record(started.elapsed());
            result
        });
        let ad_samples: Vec<f32> = reps.iter().map(|r| r.accuracy_delta).collect();
        let golden_samples: Vec<f32> = reps.iter().map(|r| r.golden_accuracy).collect();
        let faulty_samples: Vec<f32> = reps.iter().map(|r| r.faulty_accuracy).collect();
        ExperimentResult {
            fault_label: config.fault_plan.label(),
            ad: ConfidenceInterval::t95(&ad_samples),
            golden_accuracy: ConfidenceInterval::t95(&golden_samples),
            faulty_accuracy: ConfidenceInterval::t95(&faulty_samples),
            repetitions: reps,
            config: config.clone(),
        }
    }

    fn run_repetition(&self, config: &ExperimentConfig, rep_seed: u64) -> RepetitionResult {
        let technique = config.technique;
        let data = config.dataset.generate(config.scale, rep_seed);
        let golden = self.golden_entry(config.dataset, config.model, config.scale, rep_seed, &data);

        let mut ctx = TrainContext::new(config.scale, rep_seed);
        ctx.tune_for(data.train.len());
        let source = technique.reserve_clean(&data.train, &mut ctx);
        let (faulty_train, injection) =
            Injector::new(rep_seed ^ 0xFA_17).apply(&source, &config.fault_plan);
        self.log.add_provenance(
            config.dataset,
            config.model,
            &technique.full_name(),
            &config.fault_plan.label(),
            &injection.records,
        );

        let fit_once = || {
            self.log.metrics.counter("technique_fits").inc();
            let t0 = Instant::now();
            let mut fitted = technique.build().fit(config.model, &faulty_train, &ctx);
            let train_seconds = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let predictions = fitted.predict(data.test.images());
            let infer_seconds = t1.elapsed().as_secs_f64();
            SharedFit {
                predictions,
                train_seconds,
                infer_seconds,
            }
        };
        let fit = if technique.model_independent() {
            let key = (
                technique.full_name(),
                config.dataset,
                config.scale,
                rep_seed,
                config.fault_plan.label(),
            );
            self.shared.get_or_compute(&key, fit_once)
        } else {
            Arc::new(fit_once())
        };

        RepetitionResult {
            golden_accuracy: golden.accuracy,
            faulty_accuracy: accuracy(&fit.predictions, data.test.labels()),
            accuracy_delta: accuracy_delta(
                &golden.predictions,
                &fit.predictions,
                data.test.labels(),
            ),
            train_seconds: fit.train_seconds,
            infer_seconds: fit.infer_seconds,
        }
    }

    /// Runs a grid of cells concurrently, returning results in input order.
    ///
    /// Cells are fanned across up to [`num_threads`] workers; each worker
    /// keeps its nested parallelism (repetitions, ensemble members, tensor
    /// kernels) within its share of the budget. Every cell is deterministic
    /// in its own seeds, so apart from wall-clock timings the output is
    /// byte-identical to calling [`Runner::run`] per cell — see
    /// [`ExperimentResult::normalize_timings`].
    ///
    /// With `TDFM_LOG=info` (or a trace file) each completed cell emits a
    /// `grid_progress` event — `cell 7/40` plus an ETA extrapolated from
    /// the cells finished so far.
    pub fn run_grid(&self, configs: &[ExperimentConfig]) -> Vec<ExperimentResult> {
        let total = configs.len();
        let grid_started = Instant::now();
        let completed = AtomicUsize::new(0);
        run_indexed(0..total, |i| {
            let config = &configs[i];
            let _cell_span = span!(
                "cell",
                index = i,
                dataset = config.dataset.name(),
                model = config.model.name(),
                technique = config.technique.full_name(),
                fault = config.fault_plan.label()
            );
            let started = Instant::now();
            let result = self.run(config);
            self.log
                .metrics
                .histogram("cell_seconds")
                .record(started.elapsed());
            self.log.metrics.counter("cells_completed").inc();
            let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
            event!(
                Level::Info,
                "grid_progress",
                cell = done,
                total = total,
                eta_seconds = {
                    let elapsed = grid_started.elapsed().as_secs_f64();
                    elapsed / done as f64 * (total - done) as f64
                }
            );
            result
        })
    }

    /// Builds the run manifest for a batch of results produced by this
    /// runner: one [`ManifestCell`] per result, each cell's injection
    /// provenance joined with its AD, this runner's metrics merged with
    /// the process-global registry (kernel-op and span timings, grad-clip
    /// counts) and the run's wall time since the runner was created.
    /// Harness binaries and `tdfm sweep` write it next to their results
    /// files; `tdfm report` aggregates it back.
    pub fn manifest(&self, name: &str, results: &[ExperimentResult]) -> RunManifest {
        self.log.manifest(name, results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdfm_inject::FaultKind;

    fn tiny_config(technique: TechniqueKind, percent: f32) -> ExperimentConfig {
        ExperimentConfig {
            dataset: DatasetKind::Pneumonia,
            model: ModelKind::ConvNet,
            technique,
            fault_plan: if percent > 0.0 {
                FaultPlan::single(FaultKind::Mislabelling, percent)
            } else {
                FaultPlan::none()
            },
            scale: Scale::Tiny,
            repetitions: 2,
            seed: 42,
        }
    }

    #[test]
    fn runner_produces_valid_metrics() {
        let runner = Runner::new();
        let result = runner.run(&tiny_config(TechniqueKind::Baseline, 30.0));
        assert_eq!(result.repetitions.len(), 2);
        for rep in &result.repetitions {
            assert!((0.0..=1.0).contains(&rep.accuracy_delta));
            assert!((0.0..=1.0).contains(&rep.golden_accuracy));
            assert!((0.0..=1.0).contains(&rep.faulty_accuracy));
            assert!(rep.train_seconds > 0.0);
        }
        assert!((0.0..=1.0).contains(&result.ad.mean));
    }

    #[test]
    fn golden_cache_is_shared_across_techniques() {
        let runner = Runner::new();
        let _ = runner.run(&tiny_config(TechniqueKind::Baseline, 10.0));
        let after_first = runner.golden_trainings();
        let _ = runner.run(&tiny_config(TechniqueKind::LabelSmoothing, 10.0));
        // Same dataset/model/scale/seed tuple: no new golden trainings.
        assert_eq!(runner.golden_trainings(), after_first);
    }

    #[test]
    fn runs_are_deterministic() {
        let runner = Runner::new();
        let a = runner.run(&tiny_config(TechniqueKind::Baseline, 30.0));
        let b = runner.run(&tiny_config(TechniqueKind::Baseline, 30.0));
        assert_eq!(a.ad.mean, b.ad.mean);
        assert_eq!(a.faulty_accuracy.mean, b.faulty_accuracy.mean);
    }

    #[test]
    fn clean_plan_yields_zero_ish_ad_for_baseline() {
        // With no faults, the "faulty" model is the golden model retrained
        // with the same seed — predictions should match almost exactly.
        let runner = Runner::new();
        let result = runner.run(&tiny_config(TechniqueKind::Baseline, 0.0));
        assert!(result.ad.mean < 0.05, "AD {}", result.ad.mean);
    }

    #[test]
    fn json_serialisation_round_trips() {
        let runner = Runner::new();
        let result = runner.run(&tiny_config(TechniqueKind::Baseline, 10.0));
        let json = result.to_json();
        let back: ExperimentResult = tdfm_json::from_str(&json).unwrap();
        assert_eq!(back.ad.mean, result.ad.mean);
        assert_eq!(back.fault_label, result.fault_label);
    }

    #[test]
    fn parallel_run_matches_sequential() {
        let runner = Runner::new();
        let configs = vec![
            tiny_config(TechniqueKind::Baseline, 10.0),
            tiny_config(TechniqueKind::LabelSmoothing, 30.0),
        ];
        let seq: Vec<ExperimentResult> = configs.iter().map(|c| runner.run(c)).collect();
        let par = with_inner_threads(2, || Runner::new().run_grid(&configs));
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.ad.mean, b.ad.mean);
            assert_eq!(a.faulty_accuracy.mean, b.faulty_accuracy.mean);
        }
    }

    #[test]
    fn grid_is_byte_identical_to_sequential_and_trains_each_golden_once() {
        // Four cells: the first two share every golden key (same dataset,
        // model, scale and seed), the third differs by seed, the fourth by
        // model. With 2 repetitions each that is 6 distinct golden keys
        // for 8 (cell, repetition) pairs. (The third seed must not be
        // adjacent to 42: repetition seeds are (seed + 1 + r) · φ, so seed
        // 43 would share a golden key with repetition 1 of seed 42.)
        let mut third = tiny_config(TechniqueKind::Baseline, 30.0);
        third.seed = 50;
        let mut fourth = tiny_config(TechniqueKind::Baseline, 10.0);
        fourth.model = ModelKind::DeconvNet;
        let configs = vec![
            tiny_config(TechniqueKind::Baseline, 10.0),
            tiny_config(TechniqueKind::LabelSmoothing, 30.0),
            third,
            fourth,
        ];

        let sequential_runner = Runner::new();
        let sequential: Vec<ExperimentResult> =
            configs.iter().map(|c| sequential_runner.run(c)).collect();

        let grid_runner = Runner::new();
        // Force real fan-out even on a small CI machine.
        let grid = with_inner_threads(4, || grid_runner.run_grid(&configs));

        assert_eq!(
            grid_runner.golden_trainings(),
            6,
            "each golden key trains once"
        );

        for (mut a, mut b) in sequential.into_iter().zip(grid) {
            a.normalize_timings();
            b.normalize_timings();
            assert_eq!(
                a.to_json(),
                b.to_json(),
                "grid output must match sequential"
            );
        }
    }

    #[test]
    fn manifest_captures_cells_counters_and_round_trips() {
        let runner = Runner::new();
        let configs = vec![
            tiny_config(TechniqueKind::Baseline, 10.0),
            tiny_config(TechniqueKind::LabelSmoothing, 10.0),
        ];
        let results = runner.run_grid(&configs);
        let manifest = runner.manifest("unit", &results);

        assert_eq!(manifest.name, "unit");
        assert_eq!(manifest.scale, "tiny");
        assert_eq!(manifest.cells.len(), 2);
        assert!(manifest.thread_budget >= 1);
        for (i, cell) in manifest.cells.iter().enumerate() {
            assert_eq!(cell.index, i);
            assert_eq!(cell.dataset, "Pneumonia");
            assert_eq!(cell.repetitions, 2);
            assert!(cell.wall_seconds > 0.0);
        }
        // Two cells x two repetitions share every golden key: four lookups,
        // two trainings — a 50% hit rate in `tdfm report` terms.
        assert_eq!(manifest.metrics.counter("golden_lookups"), Some(4));
        assert_eq!(manifest.metrics.counter("golden_trainings"), Some(2));
        assert_eq!(manifest.metrics.counter("cells_completed"), Some(2));
        assert_eq!(manifest.metrics.counter("technique_fits"), Some(4));

        let back: RunManifest = tdfm_json::from_str(&manifest.to_json()).unwrap();
        assert_eq!(back, manifest);
    }

    #[test]
    fn manifest_joins_injection_provenance_with_ad() {
        let runner = Runner::new();
        let configs = vec![
            tiny_config(TechniqueKind::Baseline, 30.0),
            tiny_config(TechniqueKind::Baseline, 0.0), // clean: no provenance
        ];
        let results = runner.run_grid(&configs);
        let manifest = runner.manifest("unit", &results);

        assert!(
            !manifest.provenance.is_empty(),
            "faulty cell has provenance"
        );
        // Only the faulty cell (index 0) contributes records.
        assert!(manifest.provenance.iter().all(|r| r.cell == 0));
        for r in &manifest.provenance {
            assert_eq!(r.source, "data");
            assert_eq!(r.kind, "Mislabelling");
            assert!(r.bucket.starts_with("idx "), "bucketed victims: {r:?}");
            assert!(r.count > 0);
            assert_eq!(r.ad_mean, results[0].ad.mean as f64);
        }
        // Counts reconcile with the injection totals: 30% of the training
        // set, per repetition.
        let total: u64 = manifest.provenance.iter().map(|r| r.count).sum();
        let expected: u64 = results[0]
            .repetitions
            .len()
            .checked_mul({
                let n = DatasetKind::Pneumonia.generate(Scale::Tiny, 1).train.len();
                ((0.3 * n as f32).round()) as usize
            })
            .unwrap() as u64;
        assert_eq!(total, expected);

        let back: RunManifest = tdfm_json::from_str(&manifest.to_json()).unwrap();
        assert_eq!(back.provenance, manifest.provenance);
    }

    #[test]
    fn every_technique_parameter_reaches_the_cell() {
        // Pairs of cells that differ in one technique parameter only. A
        // parameter that the runner drops (a shared-fit key or a clean
        // split that ignores it) gives both cells the same outcome. GTSRB,
        // the ablations' dataset: on tiny CIFAR-10 both KD students of
        // the pair collapse to one class, so equal outcomes there would
        // not tell a dropped parameter from a degenerate model.
        let pairs = [
            (
                TechniqueKind::Ensemble,
                TechniqueKind::ensemble(&[ModelKind::ConvNet; 5]),
            ),
            (
                TechniqueKind::label_correction(0.05),
                TechniqueKind::label_correction(0.2),
            ),
            (
                TechniqueKind::label_smoothing(0.05),
                TechniqueKind::label_smoothing(0.4),
            ),
            (
                TechniqueKind::knowledge_distillation(0.3, 4.0),
                TechniqueKind::knowledge_distillation(0.9, 4.0),
            ),
            (
                TechniqueKind::fault_aware(1, 0, 31),
                TechniqueKind::fault_aware(4, 0, 31),
            ),
        ];
        let configs: Vec<ExperimentConfig> = pairs
            .iter()
            .flat_map(|&(a, b)| [a, b])
            .map(|technique| ExperimentConfig {
                dataset: DatasetKind::Gtsrb,
                repetitions: 1,
                ..tiny_config(technique, 30.0)
            })
            .collect();
        let outcomes: Vec<String> = Runner::new()
            .run_grid(&configs)
            .into_iter()
            .map(|mut result| {
                result.normalize_timings();
                tdfm_json::to_string(&result.repetitions)
            })
            .collect();
        for (pair, outcome) in pairs.iter().zip(outcomes.chunks(2)) {
            assert_ne!(
                outcome[0],
                outcome[1],
                "{} vs {}",
                pair.0.full_name(),
                pair.1.full_name()
            );
        }
    }

    #[test]
    fn label_correction_gets_clean_subset() {
        let runner = Runner::new();
        // Must not panic; LC path reserves the clean subset internally.
        let result = runner.run(&tiny_config(TechniqueKind::LabelCorrection, 30.0));
        assert!((0.0..=1.0).contains(&result.ad.mean));
    }
}
