//! Runtime-overhead study (paper Section IV-E).
//!
//! Measures each technique's training-time and inference-time multipliers
//! relative to the unprotected baseline, on clean data (overheads are a
//! property of the technique, not of the faults).

use crate::technique::{TechniqueKind, TrainContext};
use std::time::Instant;
use tdfm_data::{DatasetKind, Scale};
use tdfm_json::json_struct;
use tdfm_nn::models::ModelKind;

/// One row of the overhead comparison.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// The technique measured.
    pub technique: TechniqueKind,
    /// Wall-clock training time, seconds.
    pub train_seconds: f64,
    /// Wall-clock test-set inference time, seconds.
    pub infer_seconds: f64,
    /// Training time relative to the baseline (baseline = 1.0).
    pub train_multiplier: f64,
    /// Inference time relative to the baseline (baseline = 1.0).
    pub infer_multiplier: f64,
}

json_struct!(OverheadRow {
    technique,
    train_seconds,
    infer_seconds,
    train_multiplier,
    infer_multiplier
});

/// Measures all six techniques once on clean data and normalises by the
/// baseline.
///
/// The paper's qualitative expectations: label smoothing ~1x training,
/// knowledge distillation ~1.5-2x, label correction higher, ensembles
/// highest (~5x training and ~5x inference).
///
/// # Panics
///
/// Panics if the baseline measures a zero time (cannot happen for real
/// training runs).
pub fn measure_overheads(
    dataset: DatasetKind,
    model: ModelKind,
    scale: Scale,
    seed: u64,
) -> Vec<OverheadRow> {
    let data = dataset.generate(scale, seed);
    let mut raw = Vec::new();
    for kind in TechniqueKind::ALL {
        let mut ctx = TrainContext::new(scale, seed);
        ctx.tune_for(data.train.len());
        let train = kind.reserve_clean(&data.train, &mut ctx);
        let technique = kind.build();
        let t0 = Instant::now();
        let mut fitted = technique.fit(model, &train, &ctx);
        let train_seconds = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let _ = fitted.predict(data.test.images());
        let infer_seconds = t1.elapsed().as_secs_f64();
        raw.push((kind, train_seconds, infer_seconds));
    }
    let (base_train, base_infer) = raw
        .iter()
        .find(|(k, _, _)| *k == TechniqueKind::Baseline)
        .map(|(_, t, i)| (*t, *i))
        .expect("baseline is always measured");
    assert!(
        base_train > 0.0 && base_infer > 0.0,
        "baseline measured zero time"
    );
    raw.into_iter()
        .map(|(technique, train_seconds, infer_seconds)| OverheadRow {
            technique,
            train_seconds,
            infer_seconds,
            train_multiplier: train_seconds / base_train,
            infer_multiplier: infer_seconds / base_infer,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overheads_follow_the_papers_ordering() {
        let rows = measure_overheads(DatasetKind::Pneumonia, ModelKind::ConvNet, Scale::Tiny, 7);
        assert_eq!(rows.len(), 6);
        let get = |k: TechniqueKind| rows.iter().find(|r| r.technique == k).unwrap();
        let base = get(TechniqueKind::Baseline);
        assert!((base.train_multiplier - 1.0).abs() < 1e-9);
        // Ensembles train five models: more expensive than the baseline in
        // both phases. (Thresholds are loose: the test machine may be
        // loaded, and wall-clock multipliers at tiny scale are noisy.)
        let ens = get(TechniqueKind::Ensemble);
        assert!(
            ens.train_multiplier > 1.1,
            "ens train x{}",
            ens.train_multiplier
        );
        assert!(
            ens.infer_multiplier > 1.1,
            "ens infer x{}",
            ens.infer_multiplier
        );
        // Distillation trains teacher + student.
        let kd = get(TechniqueKind::KnowledgeDistillation);
        assert!(
            kd.train_multiplier > 1.05,
            "kd train x{}",
            kd.train_multiplier
        );
    }
}
