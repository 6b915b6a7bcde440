//! SIMD-vs-scalar equivalence property sweeps.
//!
//! Every vector kernel in `tdfm_tensor::simd` (and the GEMM microkernel
//! behind the matmul/conv ops) claims *byte-identical* output across SIMD
//! levels — no FMA, no lane reassociation (DESIGN.md §2.1a). These sweeps
//! pin that claim over randomised GEMM shapes and conv geometries, at
//! every level the host CPU supports, including NaN/Inf propagation
//! through the vector paths. `Rng::fill_normal`'s Box–Muller has its own
//! binary, `fill_normal.rs`.
//!
//! `force_simd` flips a process-global, so every test in this binary runs
//! under one shared lock.

use tdfm_tensor::ops::{
    self, conv2d_backward_with, conv2d_forward_with, max_pool2d_forward_train_with,
    max_pool2d_forward_with, Conv2dSpec,
};
use tdfm_tensor::rng::Rng;
use tdfm_tensor::simd::{available_levels, force_simd};
use tdfm_tensor::{Scratch, Tensor};

use std::sync::{Mutex, MutexGuard, OnceLock};

fn level_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Like [`bits`], but collapses every NaN to one canonical bit pattern.
///
/// When two NaNs meet in an accumulator (`NaN + NaN`), x86 returns the
/// *first* operand's payload — and LLVM may commute the scalar `acc + prod`
/// while the intrinsics pin vector operand order — so NaN *payload* bits
/// are not reproducible across levels. NaN *positions* are. The finite
/// sweeps above use raw [`bits`]; the poison tests use this. Goldens
/// contain no NaNs, so the drift gates are unaffected (DESIGN.md §2.1a).
fn bits_nan_canonical(t: &Tensor) -> Vec<u32> {
    t.data()
        .iter()
        .map(|v| if v.is_nan() { 0x7fc0_0000 } else { v.to_bits() })
        .collect()
}

/// Runs `f` under every available SIMD level (best first, scalar last)
/// and asserts all results are identical; returns the agreed result.
fn assert_levels_agree<T, F>(label: &str, mut f: F) -> T
where
    T: PartialEq + std::fmt::Debug,
    F: FnMut() -> T,
{
    let levels = available_levels();
    force_simd(Some(levels[0]));
    let want = f();
    for &level in &levels[1..] {
        force_simd(Some(level));
        let got = f();
        assert_eq!(
            want,
            got,
            "{label}: {level:?} disagrees with {best:?}",
            best = levels[0]
        );
    }
    force_simd(None);
    want
}

#[test]
fn gemm_sweep_is_bit_identical_across_levels() {
    let _guard = level_lock();
    // ~32 randomised shapes spanning the packed and direct cost-model
    // regimes, over all three matmul variants.
    for seed in 0..32u64 {
        let mut rng = Rng::seed_from(0x9E44 + seed);
        let (m, k, n) = (1 + rng.below(33), 1 + rng.below(48), 1 + rng.below(40));
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let at = Tensor::randn(&[k, m], 1.0, &mut rng);
        let bt = Tensor::randn(&[n, k], 1.0, &mut rng);
        assert_levels_agree(&format!("matmul {m}x{k}x{n} seed {seed}"), || {
            bits(&ops::matmul(&a, &b))
        });
        assert_levels_agree(&format!("matmul_at_b {m}x{k}x{n} seed {seed}"), || {
            bits(&ops::matmul_at_b_with(&at, &b, Scratch::shared()))
        });
        assert_levels_agree(&format!("matmul_a_bt {m}x{k}x{n} seed {seed}"), || {
            bits(&ops::matmul_a_bt_with(&a, &bt, Scratch::shared()))
        });
    }
}

/// Forward plus all three backward gradients of one convolution, as bits,
/// agreed on by every SIMD level.
fn assert_conv_levels_agree(label: &str, input: &Tensor, weight: &Tensor, spec: Conv2dSpec) {
    let mut rng = Rng::seed_from(input.numel() as u64);
    let bias = Tensor::randn(&[weight.shape().dim(0)], 0.1, &mut rng);
    assert_levels_agree(label, || {
        // A fresh arena per run keeps buffer histories identical.
        let scratch = Scratch::new();
        let out = conv2d_forward_with(input, weight, Some(&bias), spec, &scratch);
        let grads = conv2d_backward_with(input, weight, &out, spec, &scratch);
        (
            bits(&out),
            bits(&grads.grad_input),
            bits(&grads.grad_weight),
            bits(&grads.grad_bias),
        )
    });
}

#[test]
fn conv_sweep_is_bit_identical_across_levels() {
    let _guard = level_lock();
    // 16 randomised geometries: kernel sizes, strides, padding, groups and
    // batches of up to 40 samples (several sample blocks), checked through
    // forward and all three backward gradients.
    for seed in 0..16u64 {
        let mut rng = Rng::seed_from(0xC04 + seed);
        let groups = [1, 1, 1, 2][rng.below(4)];
        let cg = 1 + rng.below(3);
        let c = cg * groups;
        let o = groups * (1 + rng.below(4));
        let kh = 1 + rng.below(3);
        let kw = 1 + rng.below(3);
        let stride = 1 + rng.below(2);
        let pad = rng.below(kh.min(kw));
        let h = kh + rng.below(8);
        let w = kw + rng.below(8);
        let n = 1 + rng.below(40);
        let spec = Conv2dSpec {
            stride,
            pad,
            groups,
        };
        let input = Tensor::randn(&[n, c, h, w], 1.0, &mut rng);
        let weight = Tensor::randn(&[o, cg, kh, kw], 0.5, &mut rng);
        let label =
            format!("conv n{n} c{c} {h}x{w} k{kh}x{kw} s{stride} p{pad} g{groups} seed {seed}");
        assert_conv_levels_agree(&label, &input, &weight, spec);
    }
    // 1×1 outputs (VGG stages 4–5, ResNet stage 4 at smoke scale): a
    // whole sample is one GEMM column, so a panel spans eight samples.
    // (n, c, side, o, k, stride, pad, groups)
    for (i, (n, c, side, o, k, stride, pad, groups)) in [
        (8, 16, 1, 16, 3, 1, 1, 1),
        (37, 4, 3, 6, 3, 1, 0, 1),
        (40, 8, 2, 8, 3, 2, 1, 8),
        (29, 6, 1, 5, 1, 1, 0, 1),
    ]
    .into_iter()
    .enumerate()
    {
        let mut rng = Rng::seed_from(0xC14 + i as u64);
        let spec = Conv2dSpec {
            stride,
            pad,
            groups,
        };
        let input = Tensor::randn(&[n, c, side, side], 1.0, &mut rng);
        let weight = Tensor::randn(&[o, c / groups, k, k], 0.5, &mut rng);
        let label =
            format!("1x1-output conv n{n} c{c} {side}x{side} k{k} s{stride} p{pad} g{groups}");
        assert_conv_levels_agree(&label, &input, &weight, spec);
    }
}

#[test]
fn max_pool_sweep_is_bit_identical_across_levels() {
    let _guard = level_lock();
    let mut rng = Rng::seed_from(0x9001);
    // (dims, k, s): the window/stride pairs 2/2, 2/1, 3/1, 3/2 and 1/1 on
    // odd sizes, and 2/2 on the study's even planes, whose output rows of
    // 1, 2 and 4 share the lanes, and on rows of 8 and 9 outputs.
    let cases: [([usize; 4], usize, usize); 12] = [
        ([1, 1, 4, 4], 2, 2),
        ([1, 1, 3, 3], 2, 1),
        ([2, 3, 7, 5], 3, 1),
        ([2, 3, 7, 6], 3, 2),
        ([3, 2, 5, 7], 2, 2),
        ([2, 2, 3, 5], 1, 1),
        ([3, 5, 9, 8], 2, 1),
        ([10, 3, 8, 8], 2, 2),
        ([10, 3, 4, 4], 2, 2),
        ([10, 3, 2, 2], 2, 2),
        ([3, 2, 16, 18], 2, 2),
        ([2, 3, 11, 13], 3, 2),
    ];
    for (dims, k, s) in cases {
        let mut x = Tensor::randn(&dims, 1.0, &mut rng);
        // NaNs with distinct payloads (quiet and signalling-sign), signed
        // zeros, -inf and ties, densely enough to meet in one window.
        for (i, v) in x.data_mut().iter_mut().enumerate() {
            *v = match i % 11 {
                0 => f32::from_bits(0x7fc0_0000 | (i as u32 & 0xffff)),
                3 => -0.0,
                4 => 0.0,
                6 if i % 3 == 0 => f32::NEG_INFINITY,
                7 => f32::from_bits(0xffc0_0000 | (i as u32 & 0xffff)),
                8 => 0.5,
                9 => 0.5,
                _ => *v,
            };
        }
        let label = format!("max pool {dims:?} k{k} s{s}");
        assert_levels_agree(&label, || {
            let scratch = Scratch::new();
            let eval = max_pool2d_forward_with(&x, k, s, &scratch);
            let (train, cache) = max_pool2d_forward_train_with(&x, k, s, &scratch);
            (bits(&eval), bits(&train), cache.argmax().to_vec())
        });
    }
}

#[test]
fn reductions_are_bit_identical_across_levels() {
    let _guard = level_lock();
    for seed in 0..8u64 {
        let mut rng = Rng::seed_from(0x5EED + seed);
        let n = 1 + rng.below(16);
        let k = 1 + rng.below(40);
        let t = Tensor::randn(&[n, k], 4.0, &mut rng);
        assert_levels_agree(&format!("softmax {n}x{k} seed {seed}"), || {
            bits(&ops::softmax_rows(&t, 2.0))
        });
        assert_levels_agree(&format!("log_softmax {n}x{k} seed {seed}"), || {
            bits(&ops::log_softmax_rows(&t))
        });
        assert_levels_agree(&format!("sum_rows {n}x{k} seed {seed}"), || {
            bits(&ops::sum_rows(&t))
        });
    }
}

#[test]
fn nan_and_inf_propagate_through_vector_gemm() {
    let _guard = level_lock();
    // NaN in A must reach every output column; 0 × Inf must produce NaN —
    // on every SIMD level (no sparsity skips, no max-laundering in lanes).
    let (m, k, n) = (9, 12, 21); // multi-tile on both axes
    let mut a = Tensor::zeros(&[m, k]);
    a.data_mut()[k + 3] = f32::NAN; // row 1
    let mut b = Tensor::ones(&[k, n]);
    b.data_mut()[2 * n + 5] = f32::INFINITY; // 0 × inf = NaN in column 5
    assert_levels_agree("gemm nan/inf", || bits_nan_canonical(&ops::matmul(&a, &b)));
    force_simd(None);
    let out = ops::matmul(&a, &b);
    for j in 0..n {
        assert!(out.data()[n + j].is_nan(), "NaN row must poison column {j}");
    }
    for i in 0..m {
        assert!(
            out.data()[i * n + 5].is_nan(),
            "0 x inf must be NaN in row {i}"
        );
    }
    assert_eq!(out.data()[0], 0.0, "finite zeros stay exact");
}

#[test]
fn nan_and_inf_propagate_through_vector_conv() {
    let _guard = level_lock();
    let mut rng = Rng::seed_from(77);
    let spec = Conv2dSpec {
        stride: 1,
        pad: 1,
        groups: 1,
    };
    let mut input = Tensor::randn(&[1, 2, 8, 8], 1.0, &mut rng);
    input.data_mut()[3 * 8 + 4] = f32::NAN; // poison one pixel
    let weight = Tensor::randn(&[3, 2, 3, 3], 0.5, &mut rng);
    let got = assert_levels_agree("conv nan", || {
        let scratch = Scratch::new();
        bits_nan_canonical(&conv2d_forward_with(&input, &weight, None, spec, &scratch))
    });
    let nan_outputs = got.iter().filter(|&&b| f32::from_bits(b).is_nan()).count();
    assert!(
        nan_outputs > 0,
        "poisoned input pixel must reach the output under every level"
    );
}
