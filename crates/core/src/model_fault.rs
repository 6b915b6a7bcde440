//! The model-fault experiment protocol (ROADMAP item 1): how well does
//! each mitigation technique tolerate SEU bit-flips in the *model*?
//!
//! The data-fault protocol of [`crate::experiment`] trains a technique on
//! faulty data and compares against a clean-trained golden model. The
//! model-fault protocol inverts the axes: every technique trains on
//! *clean* data, and faults strike the fitted model at inference time —
//! weight bits flipped in place (and reverted bit-exactly between trials,
//! exploiting the XOR involution) or activation bits flipped mid-forward
//! through the [`tdfm_nn::Network`] hook. The reference point is the
//! fitted model's own fault-free predictions, so the reported AD isolates
//! the damage the fault does, not the technique's clean-data skill.
//!
//! One technique fit is shared by every fault plan in a sweep — the
//! model-fault analogue of the golden cache: a sweep of `P` plans at `R`
//! repetitions costs `R` trainings per technique, not `P·R`.

use crate::experiment::{rep_seed, run_indexed, CellResult, RunLog};
use crate::metrics::{accuracy, accuracy_delta, ConfidenceInterval};
use crate::technique::{FittedModel, TechniqueKind, TrainContext};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tdfm_data::{DatasetKind, LabeledDataset, Scale};
use tdfm_inject::model::{
    apply_weight_faults, counting_activation_hook, FaultSite, InjectionMode, ModelFaultPlan,
    TensorSelector,
};
use tdfm_inject::provenance::weight_provenance;
use tdfm_inject::ProvenanceBuilder;
use tdfm_json::json_struct;
use tdfm_nn::models::ModelKind;
use tdfm_obs::{event, Level, ManifestCell, RunManifest};

/// A model-fault sweep: every listed technique scored against every
/// listed fault plan, sharing one fit per (technique, repetition).
#[derive(Debug, Clone)]
pub struct ModelFaultSweep {
    /// Dataset techniques train on (clean — faults hit the model).
    pub dataset: DatasetKind,
    /// Architecture under study.
    pub model: ModelKind,
    /// Techniques to score (typically [`TechniqueKind::ALL_EXTENDED`]).
    pub techniques: Vec<TechniqueKind>,
    /// Fault plans to score each technique against.
    pub plans: Vec<ModelFaultPlan>,
    /// Experiment scale.
    pub scale: Scale,
    /// Repetitions per (technique, plan) cell.
    pub repetitions: usize,
    /// Base seed; repetition `r` derives its own seed exactly like the
    /// data-fault runner, and stochastic plans are re-seeded per
    /// repetition so fault sets are independent draws.
    pub seed: u64,
}

/// Raw outcome of one repetition of one (technique, plan) cell.
#[derive(Debug, Clone)]
pub struct ModelFaultRepetition {
    /// Fault-free test accuracy of the fitted model.
    pub clean_accuracy: f32,
    /// Test accuracy under the fault plan (mean over trials for
    /// exhaustive campaigns).
    pub faulty_accuracy: f32,
    /// Accuracy delta of the faulted model against its own fault-free
    /// predictions.
    pub accuracy_delta: f32,
    /// Weights driven non-finite by the applied flips (0 for activation
    /// plans, whose faults never persist in the model).
    pub made_nonfinite: usize,
}

json_struct!(ModelFaultRepetition {
    clean_accuracy,
    faulty_accuracy,
    accuracy_delta,
    made_nonfinite
});

/// Aggregated outcome of one (technique, plan) cell.
#[derive(Debug, Clone)]
pub struct ModelFaultResult {
    /// Dataset trained on.
    pub dataset: DatasetKind,
    /// Architecture under study.
    pub model: ModelKind,
    /// Technique protecting the model.
    pub technique: TechniqueKind,
    /// The fault plan's label (see [`ModelFaultPlan::label`]).
    pub fault_label: String,
    /// Experiment scale.
    pub scale: Scale,
    /// Base seed of the sweep.
    pub seed: u64,
    /// Per-repetition raw results.
    pub repetitions: Vec<ModelFaultRepetition>,
    /// Fault-free accuracy mean and 95% CI.
    pub clean_accuracy: ConfidenceInterval,
    /// Faulted accuracy mean and CI.
    pub faulty_accuracy: ConfidenceInterval,
    /// AD mean and CI.
    pub ad: ConfidenceInterval,
    /// Wall-clock spent scoring this cell's fault trials, seconds
    /// (training time is shared across the technique's cells and reported
    /// in the manifest metrics instead).
    pub wall_seconds: f64,
}

json_struct!(ModelFaultResult {
    dataset,
    model,
    technique,
    fault_label,
    scale,
    seed,
    repetitions,
    clean_accuracy,
    faulty_accuracy,
    ad,
    wall_seconds
});

impl ModelFaultResult {
    /// Zeroes the wall-clock field — everything else is a deterministic
    /// function of the sweep, so normalised results diff byte-for-byte.
    pub fn normalize_timings(&mut self) {
        self.wall_seconds = 0.0;
    }
}

impl CellResult for ModelFaultResult {
    fn manifest_cell(&self, index: usize) -> ManifestCell {
        ManifestCell {
            index,
            dataset: self.dataset.name().to_string(),
            model: self.model.name().to_string(),
            technique: self.technique.full_name(),
            fault: self.fault_label.clone(),
            scale: self.scale.name().to_string(),
            repetitions: self.repetitions.len(),
            seed: self.seed,
            wall_seconds: self.wall_seconds,
        }
    }

    fn provenance_source(&self) -> &'static str {
        if self.fault_label.starts_with("activations") {
            "activations"
        } else {
            "weights"
        }
    }

    fn ad_mean(&self) -> f32 {
        self.ad.mean
    }
}

/// Runs model-fault sweeps, sharing one technique fit across fault plans.
///
/// Like [`crate::experiment::Runner`], each runner keeps its metrics and
/// its provenance (which (tensor, bit) pairs the applied weight faults
/// hit, and how many activation flips actually fired) in a
/// `RunLog`, which [`ModelFaultRunner::manifest`] writes out.
#[derive(Default)]
pub struct ModelFaultRunner {
    log: RunLog,
}

impl ModelFaultRunner {
    /// Creates a runner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of technique fits performed (the sharing regression guard:
    /// a sweep costs `techniques × repetitions` fits however many plans
    /// it scores).
    pub fn technique_fits(&self) -> usize {
        self.log.metrics.counter("technique_fits").get() as usize
    }

    /// Snapshot of this runner's private metrics.
    pub fn metrics_snapshot(&self) -> tdfm_obs::MetricsSnapshot {
        self.log.metrics.snapshot()
    }

    /// Runs the sweep, returning one result per (technique, plan) pair in
    /// technique-major order.
    ///
    /// Techniques fan out across worker threads (they are independent);
    /// within a technique, repetitions run sequentially and every plan is
    /// scored against the same fitted model. Output is deterministic in
    /// the sweep's seeds — see [`ModelFaultResult::normalize_timings`].
    ///
    /// # Panics
    ///
    /// Panics if the sweep has no techniques, no plans or no repetitions.
    pub fn run_sweep(&self, sweep: &ModelFaultSweep) -> Vec<ModelFaultResult> {
        assert!(!sweep.techniques.is_empty(), "sweep needs techniques");
        assert!(!sweep.plans.is_empty(), "sweep needs fault plans");
        assert!(sweep.repetitions > 0, "need at least one repetition");
        let per_technique = run_indexed(sweep.techniques.len(), |t| {
            let kind = sweep.techniques[t];
            let started = Instant::now();
            let results = self.run_technique(sweep, kind);
            self.log
                .metrics
                .histogram("technique_seconds")
                .record(started.elapsed());
            event!(
                Level::Info,
                "model_fault_progress",
                technique = kind.full_name(),
                done = t + 1,
                total = sweep.techniques.len()
            );
            results
        });
        per_technique.into_iter().flatten().collect()
    }

    /// Fits `kind` once per repetition and scores every plan against it.
    fn run_technique(&self, sweep: &ModelFaultSweep, kind: TechniqueKind) -> Vec<ModelFaultResult> {
        let technique = kind.build();
        let mut reps_per_plan: Vec<Vec<ModelFaultRepetition>> =
            vec![Vec::with_capacity(sweep.repetitions); sweep.plans.len()];
        let mut walls = vec![0.0f64; sweep.plans.len()];
        let mut prov_per_plan = vec![ProvenanceBuilder::new(); sweep.plans.len()];
        for r in 0..sweep.repetitions {
            let rep_seed = rep_seed(sweep.seed, r);
            let data = sweep.dataset.generate(sweep.scale, rep_seed);
            let mut ctx = TrainContext::new(sweep.scale, rep_seed);
            ctx.tune_for(data.train.len());
            // Training data stays clean (faults hit the model), but label
            // correction still runs its clean-subset machinery.
            let train = kind.reserve_clean(&data.train, &mut ctx);
            self.log.metrics.counter("technique_fits").inc();
            let mut fitted = technique.fit(sweep.model, &train, &ctx);
            let clean_preds = fitted.predict(data.test.images());
            let clean_accuracy = accuracy(&clean_preds, data.test.labels());
            for (p, plan) in sweep.plans.iter().enumerate() {
                let started = Instant::now();
                // Repetition r of plan p samples its own fault set; the
                // plan's original seed keeps distinct plans distinct.
                let plan = plan.clone().reseed(match plan.mode {
                    InjectionMode::Stochastic { seed, .. } => seed ^ rep_seed ^ ((p as u64) << 32),
                    InjectionMode::Exhaustive => 0,
                });
                let rep = match plan.site {
                    FaultSite::Weights => self.score_weight_plan(
                        &mut fitted,
                        &plan,
                        &data.test,
                        &clean_preds,
                        clean_accuracy,
                        &mut prov_per_plan[p],
                    ),
                    FaultSite::Activations => self.score_activation_plan(
                        &mut fitted,
                        &plan,
                        &data.test,
                        &clean_preds,
                        clean_accuracy,
                        &mut prov_per_plan[p],
                    ),
                };
                walls[p] += started.elapsed().as_secs_f64();
                reps_per_plan[p].push(rep);
            }
        }
        for (plan, prov) in sweep.plans.iter().zip(&prov_per_plan) {
            self.log.add_provenance(
                sweep.dataset,
                sweep.model,
                &kind.full_name(),
                &plan.label(),
                &prov.records(),
            );
        }
        sweep
            .plans
            .iter()
            .zip(reps_per_plan)
            .zip(walls)
            .map(|((plan, reps), wall_seconds)| {
                let clean: Vec<f32> = reps.iter().map(|r| r.clean_accuracy).collect();
                let faulty: Vec<f32> = reps.iter().map(|r| r.faulty_accuracy).collect();
                let ad: Vec<f32> = reps.iter().map(|r| r.accuracy_delta).collect();
                ModelFaultResult {
                    dataset: sweep.dataset,
                    model: sweep.model,
                    technique: kind,
                    fault_label: plan.label(),
                    scale: sweep.scale,
                    seed: sweep.seed,
                    clean_accuracy: ConfidenceInterval::t95(&clean),
                    faulty_accuracy: ConfidenceInterval::t95(&faulty),
                    ad: ConfidenceInterval::t95(&ad),
                    repetitions: reps,
                    wall_seconds,
                }
            })
            .collect()
    }

    /// Scores a weight plan: apply flips, predict, undo via XOR.
    ///
    /// Stochastic plans inject one independently-drawn fault set into
    /// *every* member network (an upset per replica — the pessimistic
    /// reading for ensembles). Exhaustive plans score every single-flip
    /// instance in turn and report the mean.
    fn score_weight_plan(
        &self,
        fitted: &mut FittedModel,
        plan: &ModelFaultPlan,
        test: &LabeledDataset,
        clean_preds: &[u32],
        clean_accuracy: f32,
        prov: &mut ProvenanceBuilder,
    ) -> ModelFaultRepetition {
        match plan.mode {
            InjectionMode::Exhaustive => {
                assert_eq!(
                    fitted.member_count(),
                    1,
                    "exhaustive weight campaigns require a single-model technique"
                );
                let instances = plan.weight_instances(fitted.networks_mut()[0]);
                prov.extend(&weight_provenance(&instances));
                let mut acc_sum = 0.0f64;
                let mut ad_sum = 0.0f64;
                let mut made_nonfinite = 0usize;
                for instance in &instances {
                    let report = apply_weight_faults(fitted.networks_mut()[0], instance);
                    made_nonfinite += report.made_nonfinite;
                    let preds = fitted.predict(test.images());
                    apply_weight_faults(fitted.networks_mut()[0], instance);
                    acc_sum += accuracy(&preds, test.labels()) as f64;
                    ad_sum += accuracy_delta(clean_preds, &preds, test.labels()) as f64;
                    self.log.metrics.counter("weight_trials").inc();
                }
                let k = instances.len() as f64;
                ModelFaultRepetition {
                    clean_accuracy,
                    faulty_accuracy: (acc_sum / k) as f32,
                    accuracy_delta: (ad_sum / k) as f32,
                    made_nonfinite,
                }
            }
            InjectionMode::Stochastic { seed, .. } => {
                let mut made_nonfinite = 0usize;
                let mut applied = Vec::new();
                for (m, net) in fitted.networks_mut().into_iter().enumerate() {
                    let member_plan = plan
                        .clone()
                        .reseed(seed ^ (m as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    let instance = member_plan.weight_instances(net).swap_remove(0);
                    let report = apply_weight_faults(net, &instance);
                    made_nonfinite += report.made_nonfinite;
                    applied.push(instance);
                    self.log.metrics.counter("weight_trials").inc();
                }
                let preds = fitted.predict(test.images());
                for (net, instance) in fitted.networks_mut().into_iter().zip(&applied) {
                    apply_weight_faults(net, instance);
                }
                prov.extend(&weight_provenance(&applied));
                ModelFaultRepetition {
                    clean_accuracy,
                    faulty_accuracy: accuracy(&preds, test.labels()),
                    accuracy_delta: accuracy_delta(clean_preds, &preds, test.labels()),
                    made_nonfinite,
                }
            }
        }
    }

    /// Scores an activation plan: hook every member, predict, unhook.
    ///
    /// The hooks count the flips they actually inject (the activation
    /// fault space depends on the evaluation batching, so the count is
    /// only knowable at forward time); the total lands in `prov` keyed by
    /// the plan's layer scope and bit range.
    fn score_activation_plan(
        &self,
        fitted: &mut FittedModel,
        plan: &ModelFaultPlan,
        test: &LabeledDataset,
        clean_preds: &[u32],
        clean_accuracy: f32,
        prov: &mut ProvenanceBuilder,
    ) -> ModelFaultRepetition {
        let InjectionMode::Stochastic { seed, .. } = plan.mode else {
            panic!("activation fault spaces depend on the data; use stochastic mode")
        };
        let fired = Arc::new(AtomicU64::new(0));
        for (m, net) in fitted.networks_mut().into_iter().enumerate() {
            let member_plan = plan
                .clone()
                .reseed(seed ^ (m as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            net.set_activation_hook(counting_activation_hook(&member_plan, Arc::clone(&fired)));
        }
        let preds = fitted.predict(test.images());
        for net in fitted.networks_mut() {
            net.clear_activation_hook();
        }
        let target = match &plan.selector {
            TensorSelector::All => "all layers".to_string(),
            TensorSelector::Layers(l) => format!("layers{l:?}"),
            TensorSelector::Params(_) => unreachable!("rejected by the hook builder"),
        };
        prov.add(
            "bitflip",
            &target,
            plan.bits.lo(),
            plan.bits.hi(),
            "-",
            fired.load(Ordering::Relaxed),
        );
        self.log.metrics.counter("activation_trials").inc();
        ModelFaultRepetition {
            clean_accuracy,
            faulty_accuracy: accuracy(&preds, test.labels()),
            accuracy_delta: accuracy_delta(clean_preds, &preds, test.labels()),
            made_nonfinite: 0,
        }
    }

    /// The run manifest of a batch of sweep results, one cell per
    /// (technique, plan) pair; see [`crate::experiment::Runner::manifest`].
    pub fn manifest(&self, name: &str, results: &[ModelFaultResult]) -> RunManifest {
        self.log.manifest(name, results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdfm_inject::model::BitRange;

    fn tiny_sweep(techniques: Vec<TechniqueKind>, plans: Vec<ModelFaultPlan>) -> ModelFaultSweep {
        ModelFaultSweep {
            dataset: DatasetKind::Pneumonia,
            model: ModelKind::ConvNet,
            techniques,
            plans,
            scale: Scale::Tiny,
            repetitions: 2,
            seed: 42,
        }
    }

    fn low_mantissa_weights() -> ModelFaultPlan {
        ModelFaultPlan::weights()
            .bits(BitRange::new(0, 10))
            .mode(InjectionMode::Stochastic { flips: 1, seed: 7 })
    }

    #[test]
    fn sweep_is_technique_major_and_shares_fits() {
        let runner = ModelFaultRunner::new();
        let plans = vec![
            low_mantissa_weights(),
            ModelFaultPlan::activations().mode(InjectionMode::Stochastic { flips: 1, seed: 7 }),
        ];
        let sweep = tiny_sweep(
            vec![TechniqueKind::Baseline, TechniqueKind::LabelSmoothing],
            plans.clone(),
        );
        let results = runner.run_sweep(&sweep);
        assert_eq!(results.len(), 4);
        assert_eq!(results[0].technique, TechniqueKind::Baseline);
        assert_eq!(results[0].fault_label, plans[0].label());
        assert_eq!(results[1].fault_label, plans[1].label());
        assert_eq!(results[2].technique, TechniqueKind::LabelSmoothing);
        // One fit per (technique, repetition), however many plans.
        assert_eq!(runner.technique_fits(), 4);
        for result in &results {
            assert_eq!(result.repetitions.len(), 2);
            assert!((0.0..=1.0).contains(&result.ad.mean));
            assert!((0.0..=1.0).contains(&result.clean_accuracy.mean));
        }
    }

    #[test]
    fn low_mantissa_flip_is_benign() {
        let runner = ModelFaultRunner::new();
        let sweep = tiny_sweep(vec![TechniqueKind::Baseline], vec![low_mantissa_weights()]);
        let result = &runner.run_sweep(&sweep)[0];
        // A single low-mantissa flip perturbs one weight by < 0.05%: the
        // model's predictions cannot move.
        assert_eq!(result.ad.mean, 0.0, "AD {}", result.ad.mean);
        assert_eq!(result.faulty_accuracy.mean, result.clean_accuracy.mean);
    }

    #[test]
    fn sweeps_are_deterministic() {
        let plans = vec![
            ModelFaultPlan::weights().mode(InjectionMode::Stochastic { flips: 4, seed: 3 }),
            ModelFaultPlan::activations()
                .bits(BitRange::EXPONENT)
                .mode(InjectionMode::Stochastic { flips: 2, seed: 3 }),
        ];
        let sweep = tiny_sweep(vec![TechniqueKind::Baseline], plans);
        let run = || {
            let mut results = ModelFaultRunner::new().run_sweep(&sweep);
            for r in &mut results {
                r.normalize_timings();
            }
            tdfm_json::to_string_pretty(&results)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn weight_faults_are_undone_between_plans() {
        // A catastrophic plan scored before a benign plan must not leak
        // flipped bits into the benign plan's trials: the benign result
        // matches a sweep that never saw the catastrophic plan.
        let catastrophic = ModelFaultPlan::weights()
            .bits(BitRange::EXPONENT)
            .mode(InjectionMode::Stochastic { flips: 16, seed: 1 });
        let both = tiny_sweep(
            vec![TechniqueKind::Baseline],
            vec![catastrophic, low_mantissa_weights()],
        );
        let alone = tiny_sweep(vec![TechniqueKind::Baseline], vec![low_mantissa_weights()]);
        let from_both = &ModelFaultRunner::new().run_sweep(&both)[1];
        let from_alone = &ModelFaultRunner::new().run_sweep(&alone)[0];
        assert_eq!(
            from_both.faulty_accuracy.mean,
            from_alone.faulty_accuracy.mean
        );
        assert_eq!(from_both.ad.mean, from_alone.ad.mean);
    }

    #[test]
    fn exhaustive_campaign_scores_every_instance() {
        let runner = ModelFaultRunner::new();
        // Sign-bit-only campaign over one small parameter tensor keeps the
        // instance count bounded while exercising the exhaustive path.
        let plan = ModelFaultPlan::weights()
            .select(tdfm_inject::model::TensorSelector::Params(vec![1]))
            .bits(BitRange::new(31, 31))
            .mode(InjectionMode::Exhaustive);
        let mut sweep = tiny_sweep(vec![TechniqueKind::Baseline], vec![plan]);
        sweep.repetitions = 1;
        let results = runner.run_sweep(&sweep);
        assert_eq!(results.len(), 1);
        let trials = runner.metrics_snapshot().counter("weight_trials");
        assert!(trials.unwrap_or(0) > 0, "no trials recorded");
        assert!((0.0..=1.0).contains(&results[0].faulty_accuracy.mean));
    }

    #[test]
    fn manifest_records_weight_and_activation_provenance() {
        let runner = ModelFaultRunner::new();
        let plans = vec![
            ModelFaultPlan::weights()
                .bits(BitRange::EXPONENT)
                .mode(InjectionMode::Stochastic { flips: 3, seed: 7 }),
            ModelFaultPlan::activations().mode(InjectionMode::Stochastic { flips: 2, seed: 7 }),
        ];
        let sweep = tiny_sweep(vec![TechniqueKind::Baseline], plans);
        let results = runner.run_sweep(&sweep);
        let manifest = runner.manifest("unit", &results);

        let weight: Vec<_> = manifest
            .provenance
            .iter()
            .filter(|r| r.source == "weights")
            .collect();
        let activation: Vec<_> = manifest
            .provenance
            .iter()
            .filter(|r| r.source == "activations")
            .collect();
        assert!(!weight.is_empty() && !activation.is_empty());

        // Weight records: one per (tensor, bit) hit; 3 flips x 2 reps.
        assert!(weight.iter().all(|r| r.cell == 0
            && r.kind == "bitflip"
            && r.target.starts_with("tensor ")
            && (23..=30).contains(&r.bit_lo)
            && r.bit_lo == r.bit_hi));
        assert_eq!(weight.iter().map(|r| r.count).sum::<u64>(), 3 * 2);

        // Activation records: the counted flips that actually fired.
        assert!(activation.iter().all(|r| r.cell == 1
            && r.kind == "bitflip"
            && r.target == "all layers"
            && (r.bit_lo, r.bit_hi) == (0, 31)
            && r.count > 0));
        // Each cell's records carry that cell's AD.
        for r in &manifest.provenance {
            assert_eq!(r.ad_mean, results[r.cell].ad.mean as f64);
        }
    }

    #[test]
    fn provenance_of_sweeps_differing_only_in_model_stays_apart() {
        let sweep = |model| ModelFaultSweep {
            model,
            repetitions: 1,
            ..tiny_sweep(
                vec![TechniqueKind::Baseline],
                vec![ModelFaultPlan::weights()
                    .bits(BitRange::EXPONENT)
                    .mode(InjectionMode::Stochastic { flips: 3, seed: 7 })],
            )
        };
        let alone = ModelFaultRunner::new();
        let expected = alone
            .manifest("unit", &alone.run_sweep(&sweep(ModelKind::ConvNet)))
            .provenance;
        assert!(!expected.is_empty());

        let runner = ModelFaultRunner::new();
        let first = runner.run_sweep(&sweep(ModelKind::ConvNet));
        runner.run_sweep(&sweep(ModelKind::DeconvNet));
        let manifest = runner.manifest("unit", &first);
        assert_eq!(
            manifest.provenance, expected,
            "cell 0 sums only its own sweep"
        );
    }

    #[test]
    fn results_round_trip_through_json_and_manifest() {
        let runner = ModelFaultRunner::new();
        let sweep = tiny_sweep(vec![TechniqueKind::Baseline], vec![low_mantissa_weights()]);
        let results = runner.run_sweep(&sweep);
        let json = tdfm_json::to_string_pretty(&results);
        let back: Vec<ModelFaultResult> = tdfm_json::from_str(&json).unwrap();
        assert_eq!(back.len(), results.len());
        assert_eq!(back[0].fault_label, results[0].fault_label);
        assert_eq!(back[0].ad.mean, results[0].ad.mean);

        let manifest = runner.manifest("unit", &results);
        assert_eq!(manifest.name, "unit");
        assert_eq!(manifest.scale, "tiny");
        assert_eq!(manifest.cells.len(), 1);
        assert_eq!(manifest.cells[0].technique, "Baseline");
        assert_eq!(manifest.cells[0].fault, results[0].fault_label);
        assert_eq!(manifest.metrics.counter("technique_fits"), Some(2));
    }
}
