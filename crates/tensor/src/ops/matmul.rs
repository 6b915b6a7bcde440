//! Blocked, thread-parallel matrix multiplication.
//!
//! Three variants cover everything backpropagation needs without ever
//! materialising a transpose in the public API:
//!
//! * [`matmul_with`]      — `C = A · B`
//! * [`matmul_at_b_with`] — `C = Aᵀ · B` (weight gradients)
//! * [`matmul_a_bt_with`] — `C = A · Bᵀ` (input gradients)
//!
//! Large products pack `B` into [`NR`](super::gemm::NR)-wide column panels
//! and accumulate `MR`×`NR` register tiles (see [`super::gemm`]); small
//! ones use direct loops with bit-identical results. Each variant draws its
//! output (and packing scratch) from a caller-supplied [`Scratch`] arena,
//! so steady-state training reuses buffers instead of allocating; the
//! one-off [`matmul`] uses the process-shared arena.
//!
//! # IEEE faithfulness
//!
//! No kernel here skips "cheap" products: `0 × NaN` is `NaN` and
//! `0 × ∞` is `NaN`, and both must reach the output so injected faults
//! propagate instead of being silently masked (the historical
//! `if a_ip == 0.0 { continue; }` shortcut violated exactly this).

use super::gemm::{
    gemm_direct, gemm_direct_abt, gemm_direct_atb, gemm_packed_block, pack_b, pack_bt, packed_len,
    transpose_into, use_packed, MR,
};
use crate::parallel::parallel_chunks_mut;
use crate::scratch::Scratch;
use crate::Tensor;
use tdfm_obs::OpTimer;

/// `C[m,n] = A[m,k] · B[k,n]`.
///
/// Uses the process-shared scratch arena; see [`matmul_with`].
///
/// # Panics
///
/// Panics if the operands are not 2-D or the inner dimensions disagree.
///
/// # Examples
///
/// ```
/// use tdfm_tensor::{ops, Tensor};
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
/// let c = ops::matmul(&a, &b);
/// assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_with(a, b, Scratch::shared())
}

/// [`matmul`] drawing its output and packing buffers from `scratch`.
///
/// Row blocks of `C` are computed independently on worker threads against
/// a shared packed copy of `B`.
///
/// # Panics
///
/// Panics if the operands are not 2-D or the inner dimensions disagree.
pub fn matmul_with(a: &Tensor, b: &Tensor, scratch: &Scratch) -> Tensor {
    let _t = OpTimer::start("matmul");
    assert!(
        a.shape().matmul_compatible(b.shape()),
        "matmul shape mismatch: {} x {}",
        a.shape(),
        b.shape()
    );
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let n = b.shape().dim(1);
    let mut out = scratch.tensor_uninit(&[m, n]);
    let a_data = a.data();
    let b_data = b.data();
    if use_packed(m, k, n) {
        let mut packed = scratch.take(packed_len(k, n));
        pack_b(b_data, k, n, &mut packed);
        let packed = &packed[..];
        parallel_chunks_mut(out.data_mut(), MR * n, k, |blk, rows_out| {
            let i0 = blk * MR;
            let rows = rows_out.len() / n;
            gemm_packed_block(
                &a_data[i0 * k..(i0 + rows) * k],
                rows,
                k,
                n,
                packed,
                rows_out,
                false,
            );
        });
    } else {
        gemm_direct(a_data, m, k, n, b_data, out.data_mut(), false);
    }
    out
}

/// `C[m,n] = Aᵀ[m,k] · B[k,n]` where `A` is stored as `[k, m]`.
///
/// Draws its output and packing buffers from `scratch`.
///
/// # Panics
///
/// Panics if operands are not 2-D or leading dimensions disagree.
pub fn matmul_at_b_with(a: &Tensor, b: &Tensor, scratch: &Scratch) -> Tensor {
    let _t = OpTimer::start("matmul_at_b");
    assert_eq!(a.shape().rank(), 2, "matmul_at_b requires matrices");
    assert_eq!(b.shape().rank(), 2, "matmul_at_b requires matrices");
    let (k, m) = (a.shape().dim(0), a.shape().dim(1));
    let (k2, n) = (b.shape().dim(0), b.shape().dim(1));
    assert_eq!(k, k2, "matmul_at_b inner dim mismatch: {} vs {}", k, k2);
    let mut out = scratch.tensor_uninit(&[m, n]);
    let a_data = a.data();
    let b_data = b.data();
    if use_packed(m, k, n) {
        // Transposing A up front turns the column gather into the same
        // row-major tiled product as `matmul`; per-output accumulation
        // order over `p` is unchanged.
        let mut at = scratch.take(m * k);
        transpose_into(a_data, k, m, &mut at);
        let mut packed = scratch.take(packed_len(k, n));
        pack_b(b_data, k, n, &mut packed);
        let at = &at[..];
        let packed = &packed[..];
        parallel_chunks_mut(out.data_mut(), MR * n, k, |blk, rows_out| {
            let i0 = blk * MR;
            let rows = rows_out.len() / n;
            gemm_packed_block(
                &at[i0 * k..(i0 + rows) * k],
                rows,
                k,
                n,
                packed,
                rows_out,
                false,
            );
        });
    } else {
        gemm_direct_atb(a_data, b_data, k, m, n, out.data_mut(), false);
    }
    out
}

/// `C[m,n] = A[m,k] · Bᵀ[k,n]` where `B` is stored as `[n, k]`.
///
/// Draws its output and packing buffers from `scratch`.
///
/// # Panics
///
/// Panics if operands are not 2-D or trailing dimensions disagree.
pub fn matmul_a_bt_with(a: &Tensor, b: &Tensor, scratch: &Scratch) -> Tensor {
    let _t = OpTimer::start("matmul_a_bt");
    assert_eq!(a.shape().rank(), 2, "matmul_a_bt requires matrices");
    assert_eq!(b.shape().rank(), 2, "matmul_a_bt requires matrices");
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let (n, k2) = (b.shape().dim(0), b.shape().dim(1));
    assert_eq!(k, k2, "matmul_a_bt inner dim mismatch: {} vs {}", k, k2);
    let mut out = scratch.tensor_uninit(&[m, n]);
    let a_data = a.data();
    let b_data = b.data();
    if use_packed(m, k, n) {
        // Packing Bᵀ into panels replaces the strict-FP scalar dot (which
        // cannot vectorise) with independent column lanes.
        let mut packed = scratch.take(packed_len(k, n));
        pack_bt(b_data, n, k, &mut packed);
        let packed = &packed[..];
        parallel_chunks_mut(out.data_mut(), MR * n, k, |blk, rows_out| {
            let i0 = blk * MR;
            let rows = rows_out.len() / n;
            gemm_packed_block(
                &a_data[i0 * k..(i0 + rows) * k],
                rows,
                k,
                n,
                packed,
                rows_out,
                false,
            );
        });
    } else {
        gemm_direct_abt(a_data, b_data, m, k, n, out.data_mut(), false);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;
    use crate::rng::Rng;
    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape().dim(0), a.shape().dim(1));
        let n = b.shape().dim(1);
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.at(&[i, p]) * b.at(&[p, j]);
                }
                out.set(&[i, j], acc);
            }
        }
        out
    }

    #[test]
    fn matmul_matches_hand_computed() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = Rng::seed_from(1);
        let a = Tensor::randn(&[5, 5], 1.0, &mut rng);
        assert_close(matmul(&a, &Tensor::eye(5)).data(), a.data(), 1e-6);
        assert_close(matmul(&Tensor::eye(5), &a).data(), a.data(), 1e-6);
    }

    #[test]
    fn transposed_variants_match_explicit_transpose() {
        let mut rng = Rng::seed_from(2);
        let a = Tensor::randn(&[4, 6], 1.0, &mut rng);
        let b = Tensor::randn(&[4, 5], 1.0, &mut rng);
        let c = matmul_at_b_with(&a, &b, Scratch::shared());
        let reference = matmul(&a.transpose2d(), &b);
        assert_close(c.data(), reference.data(), 1e-5);

        let a2 = Tensor::randn(&[3, 7], 1.0, &mut rng);
        let b2 = Tensor::randn(&[5, 7], 1.0, &mut rng);
        let c2 = matmul_a_bt_with(&a2, &b2, Scratch::shared());
        let reference2 = matmul(&a2, &b2.transpose2d());
        assert_close(c2.data(), reference2.data(), 1e-5);
    }

    #[test]
    fn large_matmul_matches_naive() {
        let mut rng = Rng::seed_from(3);
        // Large enough to exercise the parallel packed path.
        let a = Tensor::randn(&[64, 48], 1.0, &mut rng);
        let b = Tensor::randn(&[48, 72], 1.0, &mut rng);
        assert_close(matmul(&a, &b).data(), naive(&a, &b).data(), 1e-3);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn incompatible_shapes_rejected() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn matmul_matches_naive_random() {
        for seed in 0..16u64 {
            let mut rng = Rng::seed_from(seed);
            let (m, k, n) = (1 + rng.below(8), 1 + rng.below(8), 1 + rng.below(8));
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            let fast = matmul(&a, &b);
            let slow = naive(&a, &b);
            for (x, y) in fast.data().iter().zip(slow.data()) {
                assert!((x - y).abs() < 1e-4, "{m}x{k}x{n} seed {seed}");
            }
        }
    }

    /// Property sweep over all three variants at shapes spanning the
    /// packed/direct routing boundary, including degenerate 1×k and k×1.
    #[test]
    fn all_variants_match_naive_across_random_shapes() {
        for seed in 0..32u64 {
            let mut rng = Rng::seed_from(1000 + seed);
            let (m, k, n) = match seed % 4 {
                0 => (1, 1 + rng.below(40), 1 + rng.below(40)), // 1×k row vector
                1 => (1 + rng.below(40), 1 + rng.below(40), 1), // k×1 column output
                2 => (1 + rng.below(12), 1 + rng.below(12), 1 + rng.below(12)),
                _ => (1 + rng.below(40), 1 + rng.below(40), 1 + rng.below(40)),
            };
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            let want = naive(&a, &b);
            let tol = 1e-3;
            assert_close(matmul(&a, &b).data(), want.data(), tol);
            assert_close(
                matmul_at_b_with(&a.transpose2d(), &b, Scratch::shared()).data(),
                want.data(),
                tol,
            );
            assert_close(
                matmul_a_bt_with(&a, &b.transpose2d(), Scratch::shared()).data(),
                want.data(),
                tol,
            );
        }
    }

    #[test]
    fn matmul_distributes_over_addition() {
        for seed in 0..16u64 {
            let mut rng = Rng::seed_from(seed);
            let a = Tensor::randn(&[4, 4], 1.0, &mut rng);
            let b = Tensor::randn(&[4, 4], 1.0, &mut rng);
            let c = Tensor::randn(&[4, 4], 1.0, &mut rng);
            let lhs = matmul(&a, &b.zip(&c, |x, y| x + y));
            let rhs = matmul(&a, &b).zip(&matmul(&a, &c), |x, y| x + y);
            for (x, y) in lhs.data().iter().zip(rhs.data()) {
                assert!((x - y).abs() < 1e-3, "seed {seed}");
            }
        }
    }

    #[test]
    fn with_variants_reuse_arena_buffers() {
        let scratch = Scratch::new();
        let mut rng = Rng::seed_from(11);
        let a = Tensor::randn(&[6, 5], 1.0, &mut rng);
        let b = Tensor::randn(&[5, 7], 1.0, &mut rng);
        let first = matmul_with(&a, &b, &scratch);
        let baseline = scratch.stats();
        scratch.recycle(first);
        let second = matmul_with(&a, &b, &scratch);
        let after = scratch.stats();
        assert_eq!(
            after.misses, baseline.misses,
            "second call must not allocate"
        );
        assert_close(second.data(), naive(&a, &b).data(), 1e-4);
    }

    // ---- IEEE fault-propagation regression tests (the zero-skip bugfix).
    // A zero entry meeting NaN/∞ must poison the output, not hide it.

    #[test]
    fn nan_propagates_through_matmul_despite_zero_row() {
        let mut a = Tensor::zeros(&[2, 3]);
        a.set(&[0, 1], f32::NAN);
        let b = Tensor::ones(&[3, 4]);
        let c = matmul(&a, &b);
        for j in 0..4 {
            assert!(c.at(&[0, j]).is_nan(), "NaN row must poison column {j}");
            assert_eq!(c.at(&[1, j]), 0.0, "clean row stays clean");
        }
        // The mirrored case: NaN in B, all-zero A.
        let z = Tensor::zeros(&[2, 3]);
        let mut bn = Tensor::ones(&[3, 4]);
        bn.set(&[2, 1], f32::NAN);
        let c2 = matmul(&z, &bn);
        assert!(c2.at(&[0, 1]).is_nan());
        assert!(c2.at(&[1, 1]).is_nan());
        assert_eq!(c2.at(&[0, 0]), 0.0);
    }

    #[test]
    fn infinity_times_zero_yields_nan_in_matmul() {
        let mut a = Tensor::zeros(&[1, 2]);
        a.set(&[0, 0], f32::INFINITY);
        let b = Tensor::zeros(&[2, 2]);
        let c = matmul(&a, &b);
        assert!(c.at(&[0, 0]).is_nan(), "inf × 0 must be NaN");
        assert!(c.at(&[0, 1]).is_nan());
    }

    #[test]
    fn nan_propagates_through_matmul_at_b() {
        let mut a = Tensor::zeros(&[3, 2]); // stored [k, m]
        a.set(&[1, 0], f32::NAN);
        let b = Tensor::ones(&[3, 4]);
        let c = matmul_at_b_with(&a, &b, Scratch::shared());
        for j in 0..4 {
            assert!(c.at(&[0, j]).is_nan(), "column {j}");
            assert_eq!(c.at(&[1, j]), 0.0);
        }
        // Large enough for the packed path.
        let mut big_a = Tensor::zeros(&[16, 8]);
        big_a.set(&[5, 3], f32::INFINITY);
        let big_b = Tensor::zeros(&[16, 16]);
        let cb = matmul_at_b_with(&big_a, &big_b, Scratch::shared());
        for j in 0..16 {
            assert!(cb.at(&[3, j]).is_nan(), "inf × 0 column {j}");
        }
    }

    #[test]
    fn nan_propagates_through_matmul_a_bt() {
        let mut a = Tensor::zeros(&[2, 3]);
        a.set(&[1, 2], f32::NAN);
        let b = Tensor::ones(&[4, 3]); // stored [n, k]
        let c = matmul_a_bt_with(&a, &b, Scratch::shared());
        for j in 0..4 {
            assert!(c.at(&[1, j]).is_nan(), "column {j}");
            assert_eq!(c.at(&[0, j]), 0.0);
        }
        // Packed-path shape.
        let mut big_a = Tensor::zeros(&[8, 16]);
        big_a.set(&[2, 9], f32::NAN);
        let big_b = Tensor::ones(&[16, 16]);
        let cb = matmul_a_bt_with(&big_a, &big_b, Scratch::shared());
        for j in 0..16 {
            assert!(cb.at(&[2, j]).is_nan(), "column {j}");
            assert_eq!(cb.at(&[0, j]), 0.0);
        }
    }
}
