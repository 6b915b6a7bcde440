//! 2-D convolution via im2col, with strides, zero padding and groups.
//!
//! `groups == in_channels` yields the depthwise convolutions MobileNet is
//! built from (Table III of the paper); `groups == 1` is an ordinary dense
//! convolution. The batch dimension is processed on worker threads; the
//! per-sample GEMMs are deliberately serial to avoid nested parallelism.
//!
//! All temporaries (im2col columns, packed GEMM panels, per-worker
//! gradient accumulators) come from a [`Scratch`] arena, so steady-state
//! training reuses the same buffers batch after batch. 1×1 stride-1
//! unpadded convolutions skip im2col entirely — the column matrix would be
//! an exact copy of the input.

use super::gemm::{
    gemm_direct, gemm_direct_abt, gemm_direct_atb, gemm_packed_block, pack_b, pack_bt, packed_len,
    transpose_into, use_packed,
};
use crate::parallel::{parallel_chunks_mut, parallel_map_reduce};
use crate::scratch::Scratch;
use crate::Tensor;
use tdfm_obs::OpTimer;

/// Stride / padding / groups configuration of one convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Step between output samples, in input pixels (same for both axes).
    pub stride: usize,
    /// Zero padding added on every border.
    pub pad: usize,
    /// Channel groups; `in_channels` gives a depthwise convolution.
    pub groups: usize,
}

impl Default for Conv2dSpec {
    fn default() -> Self {
        Self {
            stride: 1,
            pad: 0,
            groups: 1,
        }
    }
}

impl Conv2dSpec {
    /// A stride-1 convolution with "same" padding for odd kernel `k`.
    pub fn same(k: usize) -> Self {
        Self {
            stride: 1,
            pad: k / 2,
            groups: 1,
        }
    }

    /// Whether this spec makes im2col the identity (1×1 kernel, stride 1,
    /// no padding): the column matrix would equal the input, so kernels
    /// can read the input directly.
    fn is_pointwise(&self, kh: usize, kw: usize) -> bool {
        kh == 1 && kw == 1 && self.stride == 1 && self.pad == 0
    }
}

/// Output extent of one spatial axis.
///
/// # Panics
///
/// Panics if `stride` is zero, or if the kernel does not fit in the padded
/// input.
pub fn conv_out_dim(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    assert!(stride > 0, "stride must be positive");
    let padded = input + 2 * pad;
    assert!(
        padded >= kernel,
        "kernel {kernel} does not fit input {input} with pad {pad}"
    );
    (padded - kernel) / stride + 1
}

/// Gradients produced by [`conv2d_backward_with`].
#[derive(Debug, Clone)]
pub struct ConvGrads {
    /// Gradient w.r.t. the input, shaped like the input.
    pub grad_input: Tensor,
    /// Gradient w.r.t. the kernel weights, shaped like the weights.
    pub grad_weight: Tensor,
    /// Gradient w.r.t. the bias, shaped `[out_channels]`.
    pub grad_bias: Tensor,
}

/// Unfolds one sample's channel range into a column matrix.
///
/// `input` is the sample's `[channels, h, w]` buffer; the result is written
/// into `col`, a `[channels*kh*kw, oh*ow]` buffer (row-major).
///
/// # Panics
///
/// Panics if `col` has the wrong length.
pub fn im2col(
    input: &[f32],
    (channels, h, w): (usize, usize, usize),
    (kh, kw): (usize, usize),
    stride: usize,
    pad: usize,
    col: &mut [f32],
) {
    let oh = conv_out_dim(h, kh, stride, pad);
    let ow = conv_out_dim(w, kw, stride, pad);
    assert_eq!(
        col.len(),
        channels * kh * kw * oh * ow,
        "im2col buffer size"
    );
    let mut r = 0;
    for c in 0..channels {
        let plane = &input[c * h * w..(c + 1) * h * w];
        for ki in 0..kh {
            for kj in 0..kw {
                let row = &mut col[r * oh * ow..(r + 1) * oh * ow];
                r += 1;
                for oi in 0..oh {
                    let ii = (oi * stride + ki) as isize - pad as isize;
                    let dst = &mut row[oi * ow..(oi + 1) * ow];
                    if ii < 0 || ii >= h as isize {
                        dst.fill(0.0);
                        continue;
                    }
                    let src_row = &plane[ii as usize * w..(ii as usize + 1) * w];
                    if stride == 1 {
                        // Contiguous case: jj = oj + kj - pad walks the
                        // source row at unit stride, so the valid span is
                        // one memcpy flanked by zero padding.
                        // hi >= lo always: both are saturating-clamped
                        // images of pad-kj <= w+pad-kj under min(ow).
                        let lo = pad.saturating_sub(kj).min(ow);
                        let hi = (w + pad).saturating_sub(kj).min(ow);
                        dst[..lo].fill(0.0);
                        if hi > lo {
                            let src0 = lo + kj - pad;
                            dst[lo..hi].copy_from_slice(&src_row[src0..src0 + (hi - lo)]);
                        }
                        dst[hi..].fill(0.0);
                    } else {
                        for (oj, d) in dst.iter_mut().enumerate() {
                            let jj = (oj * stride + kj) as isize - pad as isize;
                            *d = if jj < 0 || jj >= w as isize {
                                0.0
                            } else {
                                src_row[jj as usize]
                            };
                        }
                    }
                }
            }
        }
    }
}

/// Folds a column matrix back into an image, accumulating overlaps.
///
/// The adjoint of [`im2col`]: used to push output gradients back to the
/// input.
///
/// # Panics
///
/// Panics if `col` or `out` has the wrong length.
pub fn col2im(
    col: &[f32],
    (channels, h, w): (usize, usize, usize),
    (kh, kw): (usize, usize),
    stride: usize,
    pad: usize,
    out: &mut [f32],
) {
    let oh = conv_out_dim(h, kh, stride, pad);
    let ow = conv_out_dim(w, kw, stride, pad);
    assert_eq!(col.len(), channels * kh * kw * oh * ow, "col2im col size");
    assert_eq!(out.len(), channels * h * w, "col2im output size");
    out.fill(0.0);
    let mut r = 0;
    for c in 0..channels {
        let plane_start = c * h * w;
        for ki in 0..kh {
            for kj in 0..kw {
                let row = &col[r * oh * ow..(r + 1) * oh * ow];
                r += 1;
                for oi in 0..oh {
                    let ii = (oi * stride + ki) as isize - pad as isize;
                    if ii < 0 || ii >= h as isize {
                        continue;
                    }
                    if stride == 1 {
                        // Adjoint of im2col's memcpy span: one vectorised
                        // `+=` over the contiguous valid range. Each output
                        // element is touched once per (c,ki,kj,oi) visit in
                        // the same order as the scalar loop, so bytes match.
                        let lo = pad.saturating_sub(kj).min(ow);
                        let hi = (w + pad).saturating_sub(kj).min(ow);
                        if hi > lo {
                            let dst0 = plane_start + ii as usize * w + (lo + kj - pad);
                            crate::simd::add_assign(
                                &mut out[dst0..dst0 + (hi - lo)],
                                &row[oi * ow + lo..oi * ow + hi],
                            );
                        }
                    } else {
                        for oj in 0..ow {
                            let jj = (oj * stride + kj) as isize - pad as isize;
                            if jj < 0 || jj >= w as isize {
                                continue;
                            }
                            out[plane_start + ii as usize * w + jj as usize] += row[oi * ow + oj];
                        }
                    }
                }
            }
        }
    }
}

/// One group's GEMM: `y[m,n] = a[m,k] · b[k,n]`, packed when worth it.
///
/// `b` is the (possibly implicit) column matrix; `scratch` supplies the
/// panel buffer. Both paths accumulate in ascending-`p` order, so results
/// are bit-identical whichever is chosen.
#[allow(
    clippy::too_many_arguments,
    reason = "a GEMM takes its shape, both operands, the output, the accumulate flag and the panel scratch"
)]
fn group_gemm(
    a: &[f32],
    m: usize,
    k: usize,
    n: usize,
    b: &[f32],
    out: &mut [f32],
    accumulate: bool,
    scratch: &Scratch,
) {
    if use_packed(m, k, n) {
        let mut packed = scratch.take(packed_len(k, n));
        pack_b(b, k, n, &mut packed);
        gemm_packed_block(a, m, k, n, &packed, out, accumulate);
    } else {
        gemm_direct(a, m, k, n, b, out, accumulate);
    }
}

struct ConvDims {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    o: usize,
    kh: usize,
    kw: usize,
    oh: usize,
    ow: usize,
    cg: usize,
    og: usize,
}

fn check_dims(input: &Tensor, weight: &Tensor, spec: Conv2dSpec) -> ConvDims {
    assert_eq!(input.shape().rank(), 4, "conv input must be NCHW");
    assert_eq!(
        weight.shape().rank(),
        4,
        "conv weight must be [O, C/g, KH, KW]"
    );
    let (n, c, h, w) = (
        input.shape().dim(0),
        input.shape().dim(1),
        input.shape().dim(2),
        input.shape().dim(3),
    );
    let (o, cg, kh, kw) = (
        weight.shape().dim(0),
        weight.shape().dim(1),
        weight.shape().dim(2),
        weight.shape().dim(3),
    );
    assert!(spec.groups > 0, "groups must be positive");
    assert_eq!(
        c % spec.groups,
        0,
        "in_channels {c} not divisible by groups {}",
        spec.groups
    );
    assert_eq!(
        o % spec.groups,
        0,
        "out_channels {o} not divisible by groups {}",
        spec.groups
    );
    assert_eq!(
        cg,
        c / spec.groups,
        "weight channel dim {cg} != C/groups {}",
        c / spec.groups
    );
    let oh = conv_out_dim(h, kh, spec.stride, spec.pad);
    let ow = conv_out_dim(w, kw, spec.stride, spec.pad);
    ConvDims {
        n,
        c,
        h,
        w,
        o,
        kh,
        kw,
        oh,
        ow,
        cg,
        og: o / spec.groups,
    }
}

/// Convolution forward pass.
///
/// * `input`  — `[N, C, H, W]`
/// * `weight` — `[O, C/groups, KH, KW]`
/// * `bias`   — optional `[O]`
///
/// Returns `[N, O, OH, OW]`.
///
/// Draws every temporary from `scratch`.
///
/// # Panics
///
/// Panics on any shape inconsistency (see [`Conv2dSpec`]).
pub fn conv2d_forward_with(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
    scratch: &Scratch,
) -> Tensor {
    let _t = OpTimer::start("conv2d_forward");
    let d = check_dims(input, weight, spec);
    if let Some(b) = bias {
        assert_eq!(b.shape().dims(), &[d.o], "bias must be [out_channels]");
    }
    let mut out = scratch.tensor_uninit(&[d.n, d.o, d.oh, d.ow]);
    let x = input.data();
    let wt = weight.data();
    let kdim = d.cg * d.kh * d.kw;
    let sample_in = d.c * d.h * d.w;
    let sample_out = d.o * d.oh * d.ow;
    let pointwise = spec.is_pointwise(d.kh, d.kw);
    let work = kdim; // MACs per output element
    parallel_chunks_mut(out.data_mut(), sample_out, work, |s, y| {
        let xin = &x[s * sample_in..(s + 1) * sample_in];
        let mut col = if pointwise {
            None // im2col would be an exact copy of the input
        } else {
            Some(scratch.take(kdim * d.oh * d.ow))
        };
        for g in 0..spec.groups {
            let xin_g = &xin[g * d.cg * d.h * d.w..(g + 1) * d.cg * d.h * d.w];
            let cols: &[f32] = match col.as_mut() {
                None => xin_g,
                Some(col) => {
                    im2col(
                        xin_g,
                        (d.cg, d.h, d.w),
                        (d.kh, d.kw),
                        spec.stride,
                        spec.pad,
                        col,
                    );
                    col
                }
            };
            let w_g = &wt[g * d.og * kdim..(g + 1) * d.og * kdim];
            let y_g = &mut y[g * d.og * d.oh * d.ow..(g + 1) * d.og * d.oh * d.ow];
            group_gemm(w_g, d.og, kdim, d.oh * d.ow, cols, y_g, false, scratch);
        }
        if let Some(b) = bias {
            let bd = b.data();
            for (oc, plane) in y.chunks_mut(d.oh * d.ow).enumerate() {
                crate::simd::add_scalar(plane, bd[oc]);
            }
        }
    });
    out
}

/// Convolution backward pass.
///
/// Given the forward inputs and the gradient w.r.t. the output, computes
/// the gradients w.r.t. input, weights and bias. Weight/bias gradients are
/// accumulated per worker and reduced.
///
/// Draws every temporary from `scratch`.
///
/// # Panics
///
/// Panics on any shape inconsistency.
pub fn conv2d_backward_with(
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
    spec: Conv2dSpec,
    scratch: &Scratch,
) -> ConvGrads {
    let _t = OpTimer::start("conv2d_backward");
    let d = check_dims(input, weight, spec);
    assert_eq!(
        grad_output.shape().dims(),
        &[d.n, d.o, d.oh, d.ow],
        "grad_output shape mismatch"
    );
    let x = input.data();
    let wt = weight.data();
    let gy = grad_output.data();
    let kdim = d.cg * d.kh * d.kw;
    let sample_in = d.c * d.h * d.w;
    let sample_out = d.o * d.oh * d.ow;
    let ohow = d.oh * d.ow;
    let pointwise = spec.is_pointwise(d.kh, d.kw);

    // Input gradient: grad_col[kdim, ohow] = w_gᵀ · gy_g, folded back with
    // col2im. The weight transpose is shared across samples, so build it
    // once when the packed path will use it.
    let input_packed = use_packed(kdim, d.og, ohow);
    let wt_t = if input_packed {
        let mut t = scratch.take(d.o * kdim);
        for g in 0..spec.groups {
            transpose_into(
                &wt[g * d.og * kdim..(g + 1) * d.og * kdim],
                d.og,
                kdim,
                &mut t[g * kdim * d.og..(g + 1) * kdim * d.og],
            );
        }
        Some(t)
    } else {
        None
    };
    let wt_t = wt_t.as_deref();
    let mut grad_input = scratch.tensor_uninit(input.shape().dims());
    parallel_chunks_mut(grad_input.data_mut(), sample_in, kdim, |s, gx| {
        let gys = &gy[s * sample_out..(s + 1) * sample_out];
        let mut grad_col = if pointwise {
            None // col2im would be the identity: write gx directly
        } else {
            Some(scratch.take(kdim * ohow))
        };
        for g in 0..spec.groups {
            let gy_g = &gys[g * d.og * ohow..(g + 1) * d.og * ohow];
            let dst: &mut [f32] = match grad_col.as_mut() {
                None => &mut gx[g * d.cg * d.h * d.w..(g + 1) * d.cg * d.h * d.w],
                Some(col) => col,
            };
            if let Some(wt_t) = wt_t {
                let wt_g = &wt_t[g * kdim * d.og..(g + 1) * kdim * d.og];
                let mut packed = scratch.take(packed_len(d.og, ohow));
                pack_b(gy_g, d.og, ohow, &mut packed);
                gemm_packed_block(wt_g, kdim, d.og, ohow, &packed, dst, false);
            } else {
                let w_g = &wt[g * d.og * kdim..(g + 1) * d.og * kdim];
                gemm_direct_atb(w_g, gy_g, d.og, kdim, ohow, dst, false);
            }
            if let Some(col) = grad_col.as_deref() {
                col2im(
                    col,
                    (d.cg, d.h, d.w),
                    (d.kh, d.kw),
                    spec.stride,
                    spec.pad,
                    &mut gx[g * d.cg * d.h * d.w..(g + 1) * d.cg * d.h * d.w],
                );
            }
        }
    });

    // Weight and bias gradients: map-reduce over samples. Each worker
    // accumulates into pooled buffers; the reduced sums are copied into
    // pooled tensors at the end (both sides of the copy reuse warm arena
    // buffers, so steady state stays allocation-free).
    let weight_packed = use_packed(d.og, ohow, kdim);
    let per_sample_work = d.o * ohow * kdim;
    let reduced = parallel_map_reduce(
        d.n,
        per_sample_work,
        |range| {
            let mut gw = scratch.take_zeroed(d.o * kdim);
            let mut gb = scratch.take_zeroed(d.o);
            let mut col = if pointwise {
                None
            } else {
                Some(scratch.take(kdim * ohow))
            };
            for s in range {
                let xin = &x[s * sample_in..(s + 1) * sample_in];
                let gys = &gy[s * sample_out..(s + 1) * sample_out];
                for g in 0..spec.groups {
                    let xin_g = &xin[g * d.cg * d.h * d.w..(g + 1) * d.cg * d.h * d.w];
                    let cols: &[f32] = match col.as_mut() {
                        None => xin_g,
                        Some(col) => {
                            im2col(
                                xin_g,
                                (d.cg, d.h, d.w),
                                (d.kh, d.kw),
                                spec.stride,
                                spec.pad,
                                col,
                            );
                            col
                        }
                    };
                    let gy_g = &gys[g * d.og * ohow..(g + 1) * d.og * ohow];
                    let gw_g = &mut gw[g * d.og * kdim..(g + 1) * d.og * kdim];
                    // gw_g[og, kdim] += gy_g[og, ohow] · colsᵀ[ohow, kdim]
                    if weight_packed {
                        let mut packed = scratch.take(packed_len(ohow, kdim));
                        pack_bt(cols, kdim, ohow, &mut packed);
                        gemm_packed_block(gy_g, d.og, ohow, kdim, &packed, gw_g, true);
                    } else {
                        gemm_direct_abt(gy_g, cols, d.og, ohow, kdim, gw_g, true);
                    }
                }
                for (oc, plane) in gys.chunks(ohow).enumerate() {
                    gb[oc] += plane.iter().sum::<f32>();
                }
            }
            (gw, gb)
        },
        |(mut gw_a, mut gb_a), (gw_b, gb_b)| {
            crate::simd::add_assign(&mut gw_a, &gw_b);
            crate::simd::add_assign(&mut gb_a, &gb_b);
            (gw_a, gb_a)
        },
    )
    .expect("batch dimension is non-zero");

    let mut grad_weight = scratch.tensor_uninit(weight.shape().dims());
    grad_weight.data_mut().copy_from_slice(&reduced.0);
    let mut grad_bias = scratch.tensor_uninit(&[d.o]);
    grad_bias.data_mut().copy_from_slice(&reduced.1);
    ConvGrads {
        grad_input,
        grad_weight,
        grad_bias,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;
    use crate::rng::Rng;

    fn naive_conv(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: Conv2dSpec,
    ) -> Tensor {
        let (n, c, h, w) = (
            input.shape().dim(0),
            input.shape().dim(1),
            input.shape().dim(2),
            input.shape().dim(3),
        );
        let (o, cg, kh, kw) = (
            weight.shape().dim(0),
            weight.shape().dim(1),
            weight.shape().dim(2),
            weight.shape().dim(3),
        );
        let oh = conv_out_dim(h, kh, spec.stride, spec.pad);
        let ow = conv_out_dim(w, kw, spec.stride, spec.pad);
        let og = o / spec.groups;
        let mut out = Tensor::zeros(&[n, o, oh, ow]);
        for s in 0..n {
            for oc in 0..o {
                let g = oc / og;
                for oi in 0..oh {
                    for oj in 0..ow {
                        let mut acc = bias.map_or(0.0, |b| b.data()[oc]);
                        for ic in 0..cg {
                            let c_in = g * cg + ic;
                            for ki in 0..kh {
                                for kj in 0..kw {
                                    let ii = (oi * spec.stride + ki) as isize - spec.pad as isize;
                                    let jj = (oj * spec.stride + kj) as isize - spec.pad as isize;
                                    if ii < 0 || jj < 0 || ii >= h as isize || jj >= w as isize {
                                        continue;
                                    }
                                    acc += input.at(&[s, c_in, ii as usize, jj as usize])
                                        * weight.at(&[oc, ic, ki, kj]);
                                }
                            }
                        }
                        out.set(&[s, oc, oi, oj], acc);
                    }
                }
            }
        }
        let _ = c;
        out
    }

    #[test]
    fn forward_matches_naive_basic() {
        let mut rng = Rng::seed_from(1);
        let x = Tensor::randn(&[2, 3, 6, 6], 1.0, &mut rng);
        let w = Tensor::randn(&[4, 3, 3, 3], 0.5, &mut rng);
        let b = Tensor::randn(&[4], 0.5, &mut rng);
        let spec = Conv2dSpec {
            stride: 1,
            pad: 1,
            groups: 1,
        };
        let fast = conv2d_forward_with(&x, &w, Some(&b), spec, Scratch::shared());
        let slow = naive_conv(&x, &w, Some(&b), spec);
        assert_eq!(fast.shape().dims(), &[2, 4, 6, 6]);
        assert_close(fast.data(), slow.data(), 1e-4);
    }

    #[test]
    fn forward_matches_naive_strided() {
        let mut rng = Rng::seed_from(2);
        let x = Tensor::randn(&[1, 2, 7, 7], 1.0, &mut rng);
        let w = Tensor::randn(&[3, 2, 3, 3], 0.5, &mut rng);
        let spec = Conv2dSpec {
            stride: 2,
            pad: 1,
            groups: 1,
        };
        let fast = conv2d_forward_with(&x, &w, None, spec, Scratch::shared());
        let slow = naive_conv(&x, &w, None, spec);
        assert_eq!(fast.shape().dims(), &[1, 3, 4, 4]);
        assert_close(fast.data(), slow.data(), 1e-4);
    }

    #[test]
    fn forward_matches_naive_depthwise() {
        let mut rng = Rng::seed_from(3);
        let x = Tensor::randn(&[2, 4, 5, 5], 1.0, &mut rng);
        let w = Tensor::randn(&[4, 1, 3, 3], 0.5, &mut rng);
        let spec = Conv2dSpec {
            stride: 1,
            pad: 1,
            groups: 4,
        };
        let fast = conv2d_forward_with(&x, &w, None, spec, Scratch::shared());
        let slow = naive_conv(&x, &w, None, spec);
        assert_close(fast.data(), slow.data(), 1e-4);
    }

    /// Property sweep: random geometries (including 1×1 kernels, stride 2,
    /// depthwise groups) against the reference implementation, exercising
    /// both GEMM paths and the pointwise fast path.
    #[test]
    fn forward_and_weight_grads_match_naive_across_random_geometries() {
        for seed in 0..16u64 {
            let mut rng = Rng::seed_from(2000 + seed);
            let groups = [1, 1, 2, 4][rng.below(4)];
            let cg = 1 + rng.below(3);
            let c = cg * groups;
            let og = 1 + rng.below(3);
            let o = og * groups;
            let k = [1, 2, 3][rng.below(3)];
            let stride = 1 + rng.below(2);
            let pad = rng.below(k); // pad < k keeps the kernel fitting
            let h = k + rng.below(6);
            let w = k + rng.below(6);
            let n = 1 + rng.below(3);
            let spec = Conv2dSpec {
                stride,
                pad,
                groups,
            };
            let x = Tensor::randn(&[n, c, h, w], 1.0, &mut rng);
            let wt = Tensor::randn(&[o, cg, k, k], 0.5, &mut rng);
            let fast = conv2d_forward_with(&x, &wt, None, spec, Scratch::shared());
            let slow = naive_conv(&x, &wt, None, spec);
            assert_close(fast.data(), slow.data(), 1e-3);

            // Weight gradient of loss = sum(out) equals a convolution of
            // ones; check against finite differences at a few entries.
            let gy = Tensor::ones(fast.shape().dims());
            let grads = conv2d_backward_with(&x, &wt, &gy, spec, Scratch::shared());
            let eps = 1e-2;
            for i in [0, wt.numel() / 2, wt.numel() - 1] {
                let mut wp = wt.clone();
                wp.data_mut()[i] += eps;
                let mut wm = wt.clone();
                wm.data_mut()[i] -= eps;
                let num = (conv2d_forward_with(&x, &wp, None, spec, Scratch::shared()).sum()
                    - conv2d_forward_with(&x, &wm, None, spec, Scratch::shared()).sum())
                    / (2.0 * eps);
                let ana = grads.grad_weight.data()[i];
                assert!(
                    (num - ana).abs() < 2e-2,
                    "seed {seed} w[{i}]: {num} vs {ana}"
                );
            }
        }
    }

    #[test]
    fn im2col_col2im_adjoint() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property.
        let mut rng = Rng::seed_from(4);
        let (c, h, w, kh, kw, stride, pad) = (2, 5, 5, 3, 3, 2, 1);
        let oh = conv_out_dim(h, kh, stride, pad);
        let ow = conv_out_dim(w, kw, stride, pad);
        let x = Tensor::randn(&[c * h * w], 1.0, &mut rng);
        let y = Tensor::randn(&[c * kh * kw * oh * ow], 1.0, &mut rng);
        let mut cx = vec![0.0; c * kh * kw * oh * ow];
        im2col(x.data(), (c, h, w), (kh, kw), stride, pad, &mut cx);
        let mut ay = vec![0.0; c * h * w];
        col2im(y.data(), (c, h, w), (kh, kw), stride, pad, &mut ay);
        let lhs: f32 = cx.iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.data().iter().zip(&ay).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    /// Numerical check of the full backward pass against finite differences.
    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = Rng::seed_from(5);
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        let w = Tensor::randn(&[2, 2, 3, 3], 0.5, &mut rng);
        let b = Tensor::randn(&[2], 0.5, &mut rng);
        let spec = Conv2dSpec {
            stride: 1,
            pad: 1,
            groups: 1,
        };
        // Loss = sum(conv(x)) so grad_output = ones.
        let y = conv2d_forward_with(&x, &w, Some(&b), spec, Scratch::shared());
        let gy = Tensor::ones(y.shape().dims());
        let grads = conv2d_backward_with(&x, &w, &gy, spec, Scratch::shared());

        let eps = 1e-2;
        // d loss / d x[i] via central differences.
        for i in [0usize, 7, 13, 31] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fp = conv2d_forward_with(&xp, &w, Some(&b), spec, Scratch::shared()).sum();
            let fm = conv2d_forward_with(&xm, &w, Some(&b), spec, Scratch::shared()).sum();
            let num = (fp - fm) / (2.0 * eps);
            let ana = grads.grad_input.data()[i];
            assert!((num - ana).abs() < 1e-2, "x[{i}]: {num} vs {ana}");
        }
        for i in [0usize, 5, 17, 35] {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let fp = conv2d_forward_with(&x, &wp, Some(&b), spec, Scratch::shared()).sum();
            let fm = conv2d_forward_with(&x, &wm, Some(&b), spec, Scratch::shared()).sum();
            let num = (fp - fm) / (2.0 * eps);
            let ana = grads.grad_weight.data()[i];
            assert!((num - ana).abs() < 1e-2, "w[{i}]: {num} vs {ana}");
        }
        // Bias gradient is the number of output pixels per channel.
        let pixels = (y.numel() / 2) as f32;
        assert_close(grads.grad_bias.data(), &[pixels, pixels], 1e-2);
    }

    #[test]
    fn backward_depthwise_finite_differences() {
        let mut rng = Rng::seed_from(6);
        let x = Tensor::randn(&[1, 3, 4, 4], 1.0, &mut rng);
        let w = Tensor::randn(&[3, 1, 3, 3], 0.5, &mut rng);
        let spec = Conv2dSpec {
            stride: 1,
            pad: 1,
            groups: 3,
        };
        let y = conv2d_forward_with(&x, &w, None, spec, Scratch::shared());
        let gy = Tensor::ones(y.shape().dims());
        let grads = conv2d_backward_with(&x, &w, &gy, spec, Scratch::shared());
        let eps = 1e-2;
        for i in [0usize, 10, 26] {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let num = (conv2d_forward_with(&x, &wp, None, spec, Scratch::shared()).sum()
                - conv2d_forward_with(&x, &wm, None, spec, Scratch::shared()).sum())
                / (2.0 * eps);
            let ana = grads.grad_weight.data()[i];
            assert!((num - ana).abs() < 1e-2, "w[{i}]: {num} vs {ana}");
        }
    }

    #[test]
    fn backward_pointwise_matches_padded_1x1() {
        // The pointwise fast path (1×1, stride 1, pad 0) must agree with
        // the generic im2col path; compare against a padded 1×1 conv that
        // is forced down the generic route on the interior.
        let mut rng = Rng::seed_from(12);
        let x = Tensor::randn(&[2, 3, 4, 4], 1.0, &mut rng);
        let w = Tensor::randn(&[5, 3, 1, 1], 0.5, &mut rng);
        let fast_spec = Conv2dSpec::default(); // pointwise fast path
        let y = conv2d_forward_with(&x, &w, None, fast_spec, Scratch::shared());
        let slow = naive_conv(&x, &w, None, fast_spec);
        assert_close(y.data(), slow.data(), 1e-4);

        let gy = Tensor::ones(y.shape().dims());
        let grads = conv2d_backward_with(&x, &w, &gy, fast_spec, Scratch::shared());
        let eps = 1e-2;
        for i in [0usize, 20, 47] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (conv2d_forward_with(&xp, &w, None, fast_spec, Scratch::shared()).sum()
                - conv2d_forward_with(&xm, &w, None, fast_spec, Scratch::shared()).sum())
                / (2.0 * eps);
            let ana = grads.grad_input.data()[i];
            assert!((num - ana).abs() < 1e-2, "x[{i}]: {num} vs {ana}");
        }
        for i in [0usize, 7, 14] {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let num = (conv2d_forward_with(&x, &wp, None, fast_spec, Scratch::shared()).sum()
                - conv2d_forward_with(&x, &wm, None, fast_spec, Scratch::shared()).sum())
                / (2.0 * eps);
            let ana = grads.grad_weight.data()[i];
            assert!((num - ana).abs() < 1e-2, "w[{i}]: {num} vs {ana}");
        }
    }

    #[test]
    #[should_panic(expected = "not divisible by groups")]
    fn bad_groups_rejected() {
        let x = Tensor::zeros(&[1, 3, 4, 4]);
        let w = Tensor::zeros(&[2, 1, 3, 3]);
        let _ = conv2d_forward_with(
            &x,
            &w,
            None,
            Conv2dSpec {
                stride: 1,
                pad: 1,
                groups: 2,
            },
            Scratch::shared(),
        );
    }

    #[test]
    fn out_dim_formula() {
        assert_eq!(conv_out_dim(8, 3, 1, 1), 8); // "same"
        assert_eq!(conv_out_dim(8, 3, 2, 1), 4);
        assert_eq!(conv_out_dim(5, 5, 1, 0), 1);
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_names_the_stride() {
        let _ = conv_out_dim(8, 3, 0, 1);
    }

    #[test]
    #[should_panic(expected = "kernel 5 does not fit input 3 with pad 0")]
    fn oversized_kernel_names_the_kernel() {
        let _ = conv_out_dim(3, 5, 1, 0);
    }

    #[test]
    fn nan_in_input_poisons_forward_output() {
        // Zero weights must not mask an injected NaN: 0 × NaN = NaN.
        let mut x = Tensor::zeros(&[1, 1, 4, 4]);
        x.data_mut()[5] = f32::NAN;
        let w = Tensor::zeros(&[1, 1, 3, 3]);
        let spec = Conv2dSpec {
            stride: 1,
            pad: 0,
            groups: 1,
        };
        let y = conv2d_forward_with(&x, &w, None, spec, Scratch::shared());
        // Every output window covering x[1,1] must be NaN.
        assert!(y.data().iter().all(|v| v.is_nan()), "{:?}", y.data());
    }

    #[test]
    fn pointwise_1x1_is_a_channel_mix() {
        // A 1x1 convolution is a per-pixel linear map over channels.
        let mut rng = Rng::seed_from(7);
        let x = Tensor::randn(&[1, 2, 3, 3], 1.0, &mut rng);
        let w = Tensor::from_vec(vec![2.0, 0.0, 0.0, 3.0], &[2, 2, 1, 1]);
        let spec = Conv2dSpec {
            stride: 1,
            pad: 0,
            groups: 1,
        };
        let y = conv2d_forward_with(&x, &w, None, spec, Scratch::shared());
        for i in 0..9 {
            assert!((y.data()[i] - 2.0 * x.data()[i]).abs() < 1e-5);
            assert!((y.data()[9 + i] - 3.0 * x.data()[9 + i]).abs() < 1e-5);
        }
    }

    #[test]
    fn stride_larger_than_kernel() {
        let mut rng = Rng::seed_from(8);
        let x = Tensor::randn(&[1, 1, 7, 7], 1.0, &mut rng);
        let w = Tensor::randn(&[1, 1, 1, 1], 1.0, &mut rng);
        let spec = Conv2dSpec {
            stride: 3,
            pad: 0,
            groups: 1,
        };
        let y = conv2d_forward_with(&x, &w, None, spec, Scratch::shared());
        assert_eq!(y.shape().dims(), &[1, 1, 3, 3]);
        let slow = naive_conv(&x, &w, None, spec);
        assert_close(y.data(), slow.data(), 1e-5);
    }

    #[test]
    fn grouped_conv_between_dense_and_depthwise() {
        // groups = 2 with 4 in / 6 out channels.
        let mut rng = Rng::seed_from(9);
        let x = Tensor::randn(&[2, 4, 5, 5], 1.0, &mut rng);
        let w = Tensor::randn(&[6, 2, 3, 3], 0.4, &mut rng);
        let spec = Conv2dSpec {
            stride: 1,
            pad: 1,
            groups: 2,
        };
        let fast = conv2d_forward_with(&x, &w, None, spec, Scratch::shared());
        // Cross-check group separation: zeroing group 2's input must not
        // change group 1's output.
        let mut x2 = x.clone();
        for s in 0..2 {
            for c in 2..4 {
                let base = (s * 4 + c) * 25;
                x2.data_mut()[base..base + 25].fill(0.0);
            }
        }
        let fast2 = conv2d_forward_with(&x2, &w, None, spec, Scratch::shared());
        // Output channels 0..3 belong to group 1 and depend only on input
        // channels 0..1.
        for s in 0..2 {
            for oc in 0..3 {
                let base = (s * 6 + oc) * 25;
                assert_close(
                    &fast.data()[base..base + 25],
                    &fast2.data()[base..base + 25],
                    1e-5,
                );
            }
        }
    }
}
