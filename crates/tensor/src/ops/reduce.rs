//! Row-wise reductions: softmax, log-softmax, argmax, one-hot, sums.
//!
//! All operate on `[N, K]` matrices — a batch of `N` logit/probability rows
//! over `K` classes, the shape every classifier head in the study produces.

use crate::Tensor;

/// Numerically stable softmax applied to each row of an `[N, K]` tensor.
///
/// # Panics
///
/// Panics if `logits` is not 2-D.
///
/// # Examples
///
/// ```
/// use tdfm_tensor::{ops, Tensor};
///
/// let logits = Tensor::from_vec(vec![0.0, 0.0], &[1, 2]);
/// let p = ops::softmax_rows(&logits, 1.0);
/// assert!((p.data()[0] - 0.5).abs() < 1e-6);
/// ```
pub fn softmax_rows(logits: &Tensor, temperature: f32) -> Tensor {
    assert_eq!(logits.shape().rank(), 2, "softmax input must be [N, K]");
    assert!(temperature > 0.0, "temperature must be positive");
    let k = logits.shape().dim(1);
    let mut out = logits.clone();
    for row in out.data_mut().chunks_mut(k) {
        #[expect(
            clippy::disallowed_methods,
            reason = "max-shift for numerical stability only; a NaN row element still reaches the exp below and propagates"
        )]
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
        // The exp + running sum is a *serial* fold — vector lanes would
        // reassociate it — so it stays scalar; the normalisation sweep is
        // elementwise and goes through the SIMD scale kernel.
        let mut sum = 0.0;
        for x in row.iter_mut() {
            *x = ((*x - max) / temperature).exp();
            sum += *x;
        }
        crate::simd::scale(row, 1.0 / sum);
    }
    out
}

/// Numerically stable log-softmax applied to each row.
///
/// # Panics
///
/// Panics if `logits` is not 2-D.
pub fn log_softmax_rows(logits: &Tensor) -> Tensor {
    assert_eq!(logits.shape().rank(), 2, "log-softmax input must be [N, K]");
    let k = logits.shape().dim(1);
    let mut out = logits.clone();
    for row in out.data_mut().chunks_mut(k) {
        #[expect(
            clippy::disallowed_methods,
            reason = "max-shift for numerical stability only; a NaN row element still reaches the exp below and propagates"
        )]
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
        let log_sum = row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln() + max;
        // `x - log_sum` == `x + (-log_sum)` exactly (IEEE negation is
        // exact), so the shared add_scalar kernel preserves the bytes.
        crate::simd::add_scalar(row, -log_sum);
    }
    out
}

/// Index of the largest element in each row (ties go to the first).
///
/// # Panics
///
/// Panics if the input is not 2-D.
pub fn argmax_rows(t: &Tensor) -> Vec<u32> {
    assert_eq!(t.shape().rank(), 2, "argmax input must be [N, K]");
    let k = t.shape().dim(1);
    t.data()
        .chunks(k)
        .map(|row| {
            let mut best = 0usize;
            for (i, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = i;
                }
            }
            best as u32
        })
        .collect()
}

/// One-hot encodes labels into an `[N, K]` matrix.
///
/// # Panics
///
/// Panics if any label is `>= classes`.
pub fn one_hot(labels: &[u32], classes: usize) -> Tensor {
    let mut out = Tensor::zeros(&[labels.len().max(1), classes]);
    if labels.is_empty() {
        return Tensor::zeros(&[1, classes]);
    }
    for (i, &l) in labels.iter().enumerate() {
        assert!(
            (l as usize) < classes,
            "label {l} out of range for {classes} classes"
        );
        out.data_mut()[i * classes + l as usize] = 1.0;
    }
    out
}

/// Sums an `[N, K]` tensor over its rows, producing `[K]`.
///
/// Used for bias gradients of dense layers.
///
/// # Panics
///
/// Panics if the input is not 2-D.
pub fn sum_rows(t: &Tensor) -> Tensor {
    assert_eq!(t.shape().rank(), 2, "sum_rows input must be [N, K]");
    let k = t.shape().dim(1);
    let mut out = Tensor::zeros(&[k]);
    // Row-major accumulation: each output element folds its column in
    // ascending-row order on every SIMD level (lanes span columns, which
    // are independent, so no reassociation).
    for row in t.data().chunks(k) {
        crate::simd::add_assign(out.data_mut(), row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    #[test]
    fn softmax_rows_sum_to_one() {
        let mut rng = Rng::seed_from(1);
        let logits = Tensor::randn(&[5, 7], 3.0, &mut rng);
        let p = softmax_rows(&logits, 1.0);
        for row in p.data().chunks(7) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn softmax_is_stable_for_huge_logits() {
        let logits = Tensor::from_vec(vec![1000.0, 999.0], &[1, 2]);
        let p = softmax_rows(&logits, 1.0);
        assert!(!p.has_non_finite());
        assert!(p.data()[0] > p.data()[1]);
    }

    #[test]
    fn temperature_softens_distribution() {
        let logits = Tensor::from_vec(vec![2.0, 0.0, 0.0], &[1, 3]);
        let sharp = softmax_rows(&logits, 1.0);
        let soft = softmax_rows(&logits, 4.0);
        // Higher temperature -> flatter distribution (the distilled softmax
        // of Section III-B4 of the paper).
        assert!(soft.data()[0] < sharp.data()[0]);
        assert!(soft.data()[1] > sharp.data()[1]);
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let mut rng = Rng::seed_from(2);
        let logits = Tensor::randn(&[4, 5], 2.0, &mut rng);
        let a = log_softmax_rows(&logits);
        let b = softmax_rows(&logits, 1.0).map(|x| x.ln());
        crate::assert_close(a.data(), b.data(), 1e-4);
    }

    #[test]
    fn argmax_first_tie_wins() {
        let t = Tensor::from_vec(vec![1.0, 3.0, 3.0, 0.1, 0.2, 0.5], &[2, 3]);
        assert_eq!(argmax_rows(&t), vec![1, 2]);
    }

    #[test]
    fn one_hot_encodes() {
        let t = one_hot(&[2, 0], 3);
        assert_eq!(t.data(), &[0.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn one_hot_rejects_bad_label() {
        let _ = one_hot(&[3], 3);
    }

    #[test]
    fn sum_rows_accumulates() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(sum_rows(&t).data(), &[4.0, 6.0]);
    }

    #[test]
    fn softmax_simplex_invariant() {
        let mut rng = Rng::seed_from(0x50F);
        for _ in 0..64 {
            let k = 2 + rng.below(10);
            let v: Vec<f32> = (0..k).map(|_| rng.uniform(-20.0, 20.0)).collect();
            let temp = rng.uniform(0.5, 8.0);
            let t = Tensor::from_vec(v, &[1, k]);
            let p = softmax_rows(&t, temp);
            let s: f32 = p.data().iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
            assert!(p.data().iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn argmax_is_invariant_under_softmax() {
        let mut rng = Rng::seed_from(0xA6);
        for _ in 0..64 {
            let k = 2 + rng.below(6);
            let v: Vec<f32> = (0..k).map(|_| rng.uniform(-5.0, 5.0)).collect();
            let t = Tensor::from_vec(v, &[1, k]);
            let before = argmax_rows(&t);
            let after = argmax_rows(&softmax_rows(&t, 1.0));
            assert_eq!(before, after);
        }
    }
}
