//! Dataset diagnostics.
//!
//! DESIGN.md claims the synthetic analogues preserve the *properties* the
//! paper's findings depend on — GTSRB focused and separable, CIFAR-10
//! cluttered, Pneumonia small and imbalanced. This module measures those
//! properties directly (no training involved) so they are pinned by tests
//! rather than asserted in prose.

use crate::LabeledDataset;

/// Per-dataset first and second moments.
#[derive(Debug, Clone, PartialEq)]
pub struct PixelStats {
    /// Mean over all pixels.
    pub mean: f32,
    /// Standard deviation over all pixels.
    pub std: f32,
}

/// Computes global pixel statistics.
///
/// # Panics
///
/// Panics if the dataset is empty.
pub fn pixel_stats(ds: &LabeledDataset) -> PixelStats {
    assert!(!ds.is_empty(), "cannot analyse an empty dataset");
    let data = ds.images().data();
    let mean = data.iter().sum::<f32>() / data.len() as f32;
    let var = data.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / data.len() as f32;
    PixelStats {
        mean,
        std: var.sqrt(),
    }
}

/// Per-class mean images ("centroids"), `classes x [C*H*W]`.
///
/// Classes with no samples yield all-zero centroids.
pub fn class_centroids(ds: &LabeledDataset) -> Vec<Vec<f32>> {
    let pix = ds.images().numel() / ds.len();
    let mut sums = vec![vec![0.0f32; pix]; ds.classes()];
    let mut counts = vec![0usize; ds.classes()];
    for (i, &label) in ds.labels().iter().enumerate() {
        let img = &ds.images().data()[i * pix..(i + 1) * pix];
        for (s, &v) in sums[label as usize].iter_mut().zip(img) {
            *s += v;
        }
        counts[label as usize] += 1;
    }
    for (sum, &count) in sums.iter_mut().zip(&counts) {
        if count > 0 {
            for s in sum.iter_mut() {
                *s /= count as f32;
            }
        }
    }
    sums
}

/// Fisher-style separability index: mean inter-class centroid distance
/// divided by mean intra-class scatter (both L2, averaged over pixels).
///
/// Larger values mean classes are easier to tell apart; the GTSRB
/// analogue must score above the CIFAR-10 analogue for the paper's
/// dataset-difficulty ordering (Section IV-D) to emerge from training.
///
/// # Panics
///
/// Panics if the dataset is empty or has a single class.
pub fn separability_index(ds: &LabeledDataset) -> f32 {
    assert!(ds.classes() > 1, "separability needs at least two classes");
    let pix = ds.images().numel() / ds.len();
    let centroids = class_centroids(ds);
    let hist = ds.class_histogram();

    // Mean intra-class scatter.
    let mut scatter = 0.0f64;
    for (i, &label) in ds.labels().iter().enumerate() {
        let img = &ds.images().data()[i * pix..(i + 1) * pix];
        let c = &centroids[label as usize];
        let d2: f32 = img.iter().zip(c).map(|(a, b)| (a - b) * (a - b)).sum();
        scatter += (d2 / pix as f32) as f64;
    }
    let scatter = (scatter / ds.len() as f64).sqrt() as f32;

    // Mean pairwise inter-class centroid distance over populated classes.
    let populated: Vec<usize> = (0..ds.classes()).filter(|&k| hist[k] > 0).collect();
    let mut inter = 0.0f64;
    let mut pairs = 0usize;
    for (ai, &a) in populated.iter().enumerate() {
        for &b in &populated[ai + 1..] {
            let d2: f32 = centroids[a]
                .iter()
                .zip(&centroids[b])
                .map(|(x, y)| (x - y) * (x - y))
                .sum();
            inter += ((d2 / pix as f32) as f64).sqrt();
            pairs += 1;
        }
    }
    assert!(pairs > 0, "need at least two populated classes");
    let inter = (inter / pairs as f64) as f32;
    // Floor the divisor; a NaN scatter stays NaN.
    inter / if scatter < 1e-6 { 1e-6 } else { scatter }
}

/// Imbalance ratio: most frequent class count over least frequent
/// (populated) class count. 1.0 means perfectly balanced.
///
/// # Panics
///
/// Panics if the dataset is empty.
pub fn imbalance_ratio(ds: &LabeledDataset) -> f32 {
    let hist = ds.class_histogram();
    let max = hist.iter().copied().max().expect("non-empty");
    let min = hist
        .iter()
        .copied()
        .filter(|&c| c > 0)
        .min()
        .expect("non-empty");
    max as f32 / min as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DatasetKind, Scale};
    use tdfm_tensor::Tensor;

    fn toy() -> LabeledDataset {
        // Two well-separated classes with tiny within-class noise.
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..8 {
            let class = (i % 2) as u32;
            let base = if class == 0 { -1.0 } else { 1.0 };
            for j in 0..4 {
                data.push(base + 0.01 * (i + j) as f32);
            }
            labels.push(class);
        }
        LabeledDataset::new(Tensor::from_vec(data, &[8, 1, 2, 2]), labels, 2)
    }

    #[test]
    fn pixel_stats_basics() {
        let ds = toy();
        let stats = pixel_stats(&ds);
        assert!(stats.mean.abs() < 0.2, "mean {}", stats.mean);
        assert!(stats.std > 0.9, "std {}", stats.std);
    }

    #[test]
    fn centroids_reflect_class_means() {
        let ds = toy();
        let centroids = class_centroids(&ds);
        assert!(centroids[0][0] < -0.9);
        assert!(centroids[1][0] > 0.9);
    }

    #[test]
    fn separability_high_for_clean_separation() {
        assert!(separability_index(&toy()) > 10.0);
    }

    #[test]
    fn gtsrb_more_separable_than_cifar() {
        // The data-level anchor for the paper's Section IV-D ordering:
        // focused signs are easier than cluttered objects.
        let gtsrb = DatasetKind::Gtsrb.generate(Scale::Smoke, 3).train;
        let cifar = DatasetKind::Cifar10.generate(Scale::Smoke, 3).train;
        let sg = separability_index(&gtsrb);
        let sc = separability_index(&cifar);
        assert!(sg > sc, "GTSRB {sg} should exceed CIFAR {sc}");
    }

    #[test]
    fn pneumonia_is_imbalanced_cifar_is_not() {
        let pneumonia = DatasetKind::Pneumonia.generate(Scale::Smoke, 4).train;
        let cifar = DatasetKind::Cifar10.generate(Scale::Smoke, 4).train;
        assert!(imbalance_ratio(&pneumonia) > 2.0);
        assert!(imbalance_ratio(&cifar) < 1.5);
    }

    #[test]
    fn gtsrb_has_long_tailed_frequencies() {
        let gtsrb = DatasetKind::Gtsrb.generate(Scale::Default, 5).train;
        assert!(imbalance_ratio(&gtsrb) > 1.5);
    }
}
