//! Procedural image generator behind the three dataset analogues.
//!
//! Every class has a fixed *prototype* pattern (a low-resolution random
//! field upsampled to image size, optionally focused towards the image
//! centre). A sample is its class prototype plus pixel noise, a random
//! background field, and — for cluttered datasets — a distractor patch
//! borrowed from another class's prototype. The knobs map one-to-one onto
//! the properties the paper uses to explain per-dataset differences
//! (Section IV-D): focus, clutter, class count and class imbalance.
//!
//! Every result rests on these bits (the `registry.rs` digests pin them
//! at tiny and smoke scale), so the fast paths keep them: a field's
//! channels draw their lattices in one [`Rng::fill_normal`] (consecutive
//! fills with one `std` are one fill), each axis coordinate's bilinear
//! cell and weight are computed once per field, and the prototypes once
//! for all splits ([`SynthSpec::generate_splits`]).

use crate::LabeledDataset;
use tdfm_tensor::rng::Rng;
use tdfm_tensor::Tensor;

/// How samples are distributed over classes.
#[derive(Debug, Clone, PartialEq)]
pub enum ClassWeights {
    /// Every class equally likely (CIFAR-10 is balanced; Table II).
    Balanced,
    /// Class `k` has weight `ratio^k` — a long-tailed distribution like
    /// GTSRB's sign frequencies.
    Geometric(f32),
    /// Explicit weights, e.g. Pneumonia's 74/26 split.
    Explicit(Vec<f32>),
}

impl ClassWeights {
    /// Deterministic per-class sample counts for a dataset of size `n`
    /// (largest-remainder rounding; every class gets at least one sample
    /// when `n >= classes`).
    ///
    /// # Panics
    ///
    /// Panics if weights are non-positive or the count does not match
    /// `classes` for [`ClassWeights::Explicit`].
    pub fn counts(&self, classes: usize, n: usize) -> Vec<usize> {
        let weights: Vec<f32> = match self {
            ClassWeights::Balanced => vec![1.0; classes],
            ClassWeights::Geometric(r) => {
                assert!(*r > 0.0, "geometric ratio must be positive");
                (0..classes).map(|k| r.powi(k as i32)).collect()
            }
            ClassWeights::Explicit(w) => {
                assert_eq!(w.len(), classes, "weight count must equal class count");
                assert!(w.iter().all(|&x| x > 0.0), "weights must be positive");
                w.clone()
            }
        };
        let total: f32 = weights.iter().sum();
        let mut counts: Vec<usize> = weights
            .iter()
            .map(|w| ((w / total) * n as f32) as usize)
            .collect();
        // Guarantee coverage, then fix the total with largest remainders.
        if n >= classes {
            for c in counts.iter_mut() {
                if *c == 0 {
                    *c = 1;
                }
            }
        }
        let mut assigned: usize = counts.iter().sum();
        let mut k = 0;
        while assigned < n {
            counts[k % classes] += 1;
            assigned += 1;
            k += 1;
        }
        while assigned > n {
            let idx = counts
                .iter()
                .enumerate()
                .max_by_key(|(_, &c)| c)
                .map(|(i, _)| i)
                .expect("classes > 0");
            counts[idx] -= 1;
            assigned -= 1;
        }
        counts
    }
}

/// Full description of a synthetic dataset distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthSpec {
    /// Number of label classes.
    pub classes: usize,
    /// Image channels (3 = colour, 1 = grayscale).
    pub channels: usize,
    /// Image side length (images are square).
    pub side: usize,
    /// Amplitude of the class prototypes — larger means classes are easier
    /// to separate.
    pub prototype_amplitude: f32,
    /// Per-pixel Gaussian noise added to every sample.
    pub sample_noise: f32,
    /// Background clutter and cross-class distractor strength in `[0, 1]`.
    pub clutter: f32,
    /// Centre focus in `[0, 1]`: 1 concentrates prototype energy centrally
    /// (sign-like images), 0 spreads it uniformly.
    pub focus: f32,
    /// Class frequency distribution.
    pub weights: ClassWeights,
    /// Seed defining the class prototypes (shared by train and test).
    pub prototype_seed: u64,
}

impl SynthSpec {
    /// Generates `n` labelled samples. `sample_seed` varies between train
    /// and test splits; prototypes derive only from `prototype_seed`, so
    /// splits share the same class structure.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the spec is degenerate (no classes/pixels).
    pub fn generate(&self, n: usize, sample_seed: u64) -> LabeledDataset {
        let [ds] = self.generate_splits([(n, sample_seed)]);
        ds
    }

    /// [`SynthSpec::generate`] for each `(n, sample_seed)` split, computing
    /// the class prototypes once for all of them.
    ///
    /// # Panics
    ///
    /// Panics if a split is empty or the spec is degenerate.
    pub fn generate_splits<const S: usize>(
        &self,
        splits: [(usize, u64); S],
    ) -> [LabeledDataset; S] {
        assert!(
            self.classes > 0 && self.channels > 0 && self.side > 0,
            "degenerate spec"
        );
        let protos = self.prototypes();
        splits.map(|(n, sample_seed)| self.render(&protos, n, sample_seed))
    }

    fn render(&self, protos: &[Vec<f32>], n: usize, sample_seed: u64) -> LabeledDataset {
        assert!(n > 0, "cannot generate an empty dataset");
        let counts = self.weights.counts(self.classes, n);
        let mut labels = Vec::with_capacity(n);
        for (k, &c) in counts.iter().enumerate() {
            labels.extend(std::iter::repeat_n(k as u32, c));
        }
        let mut rng = Rng::seed_from(sample_seed ^ 0xDA7A_5EED);
        rng.shuffle(&mut labels);

        let pix = self.channels * self.side * self.side;
        let mut images = Tensor::zeros(&[n, self.channels, self.side, self.side]);
        for (i, &label) in labels.iter().enumerate() {
            let sample = self.render_sample(protos, label as usize, &mut rng);
            images.data_mut()[i * pix..(i + 1) * pix].copy_from_slice(&sample);
        }
        LabeledDataset::new(images, labels, self.classes)
    }

    /// The fixed per-class prototype images, `classes x [C*H*W]`.
    pub fn prototypes(&self) -> Vec<Vec<f32>> {
        (0..self.classes)
            .map(|k| {
                let mut rng = Rng::seed_from(
                    self.prototype_seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                let mut proto = smooth_field(
                    self.channels,
                    self.side,
                    4,
                    self.prototype_amplitude,
                    &mut rng,
                );
                if self.focus > 0.0 {
                    apply_focus(&mut proto, self.channels, self.side, self.focus);
                }
                proto
            })
            .collect()
    }

    fn render_sample(&self, protos: &[Vec<f32>], label: usize, rng: &mut Rng) -> Vec<f32> {
        let mut img = protos[label].clone();
        // Background field (sample specific).
        if self.clutter > 0.0 {
            let bg = smooth_field(self.channels, self.side, 3, self.clutter * 0.8, rng);
            for (x, b) in img.iter_mut().zip(&bg) {
                *x += b;
            }
            // Distractor patch borrowed from another class.
            if self.classes > 1 && rng.chance(self.clutter) {
                let mut other = rng.below(self.classes);
                if other == label {
                    other = (other + 1) % self.classes;
                }
                blend_quadrant(
                    &mut img,
                    &protos[other],
                    self.channels,
                    self.side,
                    self.clutter * 0.7,
                    rng,
                );
            }
        }
        // Pixel noise and a mild brightness jitter.
        let brightness = rng.normal() * 0.05;
        let mut noise = vec![0.0; img.len()];
        rng.fill_normal(&mut noise, self.sample_noise);
        for (x, n) in img.iter_mut().zip(&noise) {
            *x += n + brightness;
        }
        img
    }
}

/// A smooth random field: a `grid x grid` Gaussian lattice per channel,
/// bilinearly upsampled to `side x side` and scaled by `amplitude`.
///
/// All channels' lattices come from one [`Rng::fill_normal`], channel by
/// channel, and each axis coordinate's bilinear cell and weight once per
/// call: both axes map pixel `i` to the same `(i0, i1, d)`.
pub fn smooth_field(
    channels: usize,
    side: usize,
    grid: usize,
    amplitude: f32,
    rng: &mut Rng,
) -> Vec<f32> {
    let g = grid.max(2);
    if side == 0 {
        return Vec::new();
    }
    let mut lattices = vec![0.0f32; channels * g * g];
    rng.fill_normal(&mut lattices, amplitude);
    // Map pixel centre to lattice coordinates.
    let cells: Vec<(usize, usize, f32)> = (0..side)
        .map(|i| {
            let f = i as f32 / (side - 1).max(1) as f32 * (g - 1) as f32;
            let i0 = f as usize;
            (i0, (i0 + 1).min(g - 1), f - i0 as f32)
        })
        .collect();
    let mut out = vec![0.0f32; channels * side * side];
    for (plane, lattice) in out
        .chunks_exact_mut(side * side)
        .zip(lattices.chunks_exact(g * g))
    {
        for (row, &(i0, i1, di)) in plane.chunks_exact_mut(side).zip(&cells) {
            for (v, &(j0, j1, dj)) in row.iter_mut().zip(&cells) {
                *v = lattice[i0 * g + j0] * (1.0 - di) * (1.0 - dj)
                    + lattice[i1 * g + j0] * di * (1.0 - dj)
                    + lattice[i0 * g + j1] * (1.0 - di) * dj
                    + lattice[i1 * g + j1] * di * dj;
            }
        }
    }
    out
}

/// Scales pixels towards the image centre: `focus = 1` suppresses borders
/// entirely (sign-like images), `focus = 0` is a no-op.
fn apply_focus(img: &mut [f32], channels: usize, side: usize, focus: f32) {
    let centre = (side as f32 - 1.0) / 2.0;
    let max_d = centre * std::f32::consts::SQRT_2;
    for c in 0..channels {
        let plane = &mut img[c * side * side..(c + 1) * side * side];
        for i in 0..side {
            for j in 0..side {
                let d = ((i as f32 - centre).powi(2) + (j as f32 - centre).powi(2)).sqrt() / max_d;
                let mask = 1.0 - focus * d;
                plane[i * side + j] *= if mask < 0.0 { 0.0 } else { mask };
            }
        }
    }
}

/// Blends a random quadrant of `src` into `dst` with the given weight.
fn blend_quadrant(
    dst: &mut [f32],
    src: &[f32],
    channels: usize,
    side: usize,
    weight: f32,
    rng: &mut Rng,
) {
    let half = (side / 2).max(1);
    let oi = rng.below(side - half + 1);
    let oj = rng.below(side - half + 1);
    for c in 0..channels {
        let base = c * side * side;
        for i in oi..oi + half {
            for j in oj..oj + half {
                dst[base + i * side + j] =
                    (1.0 - weight) * dst[base + i * side + j] + weight * src[base + i * side + j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SynthSpec {
        SynthSpec {
            classes: 4,
            channels: 3,
            side: 8,
            prototype_amplitude: 1.0,
            sample_noise: 0.2,
            clutter: 0.5,
            focus: 0.0,
            weights: ClassWeights::Balanced,
            prototype_seed: 11,
        }
    }

    #[test]
    fn generate_produces_requested_size_and_classes() {
        let ds = spec().generate(40, 1);
        assert_eq!(ds.len(), 40);
        assert_eq!(ds.classes(), 4);
        assert_eq!(ds.class_histogram(), vec![10, 10, 10, 10]);
    }

    #[test]
    fn prototypes_are_stable_across_splits() {
        let s = spec();
        let a = s.prototypes();
        let b = s.prototypes();
        assert_eq!(a, b);
    }

    #[test]
    fn different_sample_seeds_differ() {
        let s = spec();
        let a = s.generate(10, 1);
        let b = s.generate(10, 2);
        assert_ne!(a.images().data(), b.images().data());
    }

    #[test]
    fn same_seed_reproduces_exactly() {
        let s = spec();
        assert_eq!(s.generate(10, 3), s.generate(10, 3));
    }

    #[test]
    fn class_means_are_separable() {
        // Per-class mean images should be closer to their own prototype
        // than to other prototypes; otherwise no model could learn.
        let s = SynthSpec {
            sample_noise: 0.1,
            clutter: 0.2,
            ..spec()
        };
        let ds = s.generate(200, 5);
        let protos = s.prototypes();
        let pix = 3 * 8 * 8;
        for k in 0..s.classes {
            let mut mean = vec![0.0f32; pix];
            let mut count = 0;
            for (i, &l) in ds.labels().iter().enumerate() {
                if l as usize == k {
                    for (m, &v) in mean
                        .iter_mut()
                        .zip(&ds.images().data()[i * pix..(i + 1) * pix])
                    {
                        *m += v;
                    }
                    count += 1;
                }
            }
            for m in &mut mean {
                *m /= count as f32;
            }
            let dist =
                |p: &[f32]| -> f32 { mean.iter().zip(p).map(|(a, b)| (a - b) * (a - b)).sum() };
            let own = dist(&protos[k]);
            for (j, p) in protos.iter().enumerate() {
                if j != k {
                    assert!(own < dist(p), "class {k} mean closer to prototype {j}");
                }
            }
        }
    }

    #[test]
    fn focus_suppresses_borders() {
        let mut focused = spec();
        focused.focus = 1.0;
        let protos = focused.prototypes();
        // Corner pixels should be (near) zero after focusing.
        for p in &protos {
            assert!(p[0].abs() < 1e-6, "corner {}", p[0]);
        }
    }

    #[test]
    fn geometric_weights_are_long_tailed() {
        let counts = ClassWeights::Geometric(0.8).counts(10, 1000);
        assert!(counts[0] > counts[9]);
        assert_eq!(counts.iter().sum::<usize>(), 1000);
    }

    #[test]
    fn explicit_weights_match_ratio() {
        let counts = ClassWeights::Explicit(vec![0.26, 0.74]).counts(2, 100);
        assert_eq!(counts.iter().sum::<usize>(), 100);
        assert!((24..=28).contains(&counts[0]), "{counts:?}");
    }

    #[test]
    fn counts_always_sum_to_n() {
        let mut rng = tdfm_tensor::rng::Rng::seed_from(0xC0);
        for _ in 0..32 {
            let classes = 1 + rng.below(19);
            let n = 1 + rng.below(499);
            let counts = ClassWeights::Balanced.counts(classes, n);
            assert_eq!(counts.iter().sum::<usize>(), n);
        }
    }

    #[test]
    fn counts_cover_all_classes_when_possible() {
        let mut rng = tdfm_tensor::rng::Rng::seed_from(0xC1);
        for _ in 0..32 {
            let classes = 1 + rng.below(9);
            let n = classes + rng.below(100);
            let counts = ClassWeights::Geometric(0.5).counts(classes, n);
            assert_eq!(counts.iter().sum::<usize>(), n);
            assert!(counts.iter().all(|&c| c >= 1));
        }
    }
}
