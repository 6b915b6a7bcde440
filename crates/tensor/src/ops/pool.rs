//! Max, average and global-average pooling (forward + backward).
//!
//! Table III of the paper distinguishes the architecture families partly by
//! their pooling: ConvNet/VGG use max pooling, ResNet/MobileNet end in
//! (global) average pooling.

use crate::ops::conv_out_dim;
use crate::parallel::parallel_chunks_mut;
use crate::scratch::Scratch;
use crate::Tensor;

/// Indices of the winning elements of a max-pool forward pass, needed to
/// route gradients in the backward pass.
#[derive(Debug, Clone)]
pub struct MaxPoolCache {
    argmax: Vec<u32>,
    input_dims: [usize; 4],
}

impl MaxPoolCache {
    /// Hands the cache's index buffer back to `scratch` so the next
    /// forward pass reuses it instead of allocating.
    pub fn recycle(self, scratch: &Scratch) {
        scratch.recycle_u32(self.argmax);
    }
}

/// Max pooling over `k`×`k` windows with stride `s`.
///
/// Returns the pooled tensor and a cache for [`max_pool2d_backward_with`].
///
/// Draws the output and index buffers from `scratch`.
///
/// The argmax pass runs first (one `(sample, channel)` plane per task),
/// then the values are gathered through the winning indices — the two
/// passes replace a locked per-plane copy and allocate nothing.
///
/// # Panics
///
/// Panics if the input is not NCHW or the window does not fit.
pub fn max_pool2d_forward_with(
    input: &Tensor,
    k: usize,
    s: usize,
    scratch: &Scratch,
) -> (Tensor, MaxPoolCache) {
    assert_eq!(input.shape().rank(), 4, "max pool input must be NCHW");
    let (n, c, h, w) = (
        input.shape().dim(0),
        input.shape().dim(1),
        input.shape().dim(2),
        input.shape().dim(3),
    );
    let oh = conv_out_dim(h, k, s, 0);
    let ow = conv_out_dim(w, k, s, 0);
    let mut out = scratch.tensor_uninit(&[n, c, oh, ow]);
    let mut argmax = scratch.take_u32(n * c * oh * ow).into_vec();
    let x = input.data();
    let plane_in = h * w;
    let plane_out = oh * ow;
    parallel_chunks_mut(&mut argmax, plane_out, k * k, |p, arg| {
        let plane = &x[p * plane_in..(p + 1) * plane_in];
        for oi in 0..oh {
            for oj in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = 0usize;
                for ki in 0..k {
                    for kj in 0..k {
                        let idx = (oi * s + ki) * w + (oj * s + kj);
                        let v = plane[idx];
                        // A NaN wins the window and then sticks (nothing
                        // compares greater than NaN), matching the
                        // reference frameworks instead of silently
                        // dropping the poisoned lane. Finite-only windows
                        // are untouched.
                        if v > best || v.is_nan() {
                            best = v;
                            best_idx = idx;
                        }
                    }
                }
                arg[oi * ow + oj] = best_idx as u32;
            }
        }
    });
    {
        let arg = &argmax[..];
        parallel_chunks_mut(out.data_mut(), plane_out, 1, |p, y| {
            let plane = &x[p * plane_in..(p + 1) * plane_in];
            let arg_plane = &arg[p * plane_out..(p + 1) * plane_out];
            for (o, &idx) in y.iter_mut().zip(arg_plane) {
                *o = plane[idx as usize];
            }
        });
    }
    (
        out,
        MaxPoolCache {
            argmax,
            input_dims: [n, c, h, w],
        },
    )
}

/// Routes output gradients back to the winning input positions.
///
/// Draws the gradient buffer from `scratch`.
///
/// # Panics
///
/// Panics if `grad_output` does not match the cached geometry.
pub fn max_pool2d_backward_with(
    grad_output: &Tensor,
    cache: &MaxPoolCache,
    scratch: &Scratch,
) -> Tensor {
    let mut grad_input = scratch.tensor_zeroed(&cache.input_dims);
    let (n, c) = (cache.input_dims[0], cache.input_dims[1]);
    let plane_in = cache.input_dims[2] * cache.input_dims[3];
    let planes = n * c;
    assert_eq!(
        grad_output.numel(),
        cache.argmax.len(),
        "grad_output size mismatch"
    );
    let plane_out = grad_output.numel() / planes;
    let gy = grad_output.data();
    let arg = &cache.argmax;
    parallel_chunks_mut(grad_input.data_mut(), plane_in, 1, |p, gx| {
        let gy_plane = &gy[p * plane_out..(p + 1) * plane_out];
        let arg_plane = &arg[p * plane_out..(p + 1) * plane_out];
        for (g, &a) in gy_plane.iter().zip(arg_plane) {
            gx[a as usize] += g;
        }
    });
    grad_input
}

/// Average pooling over `k`×`k` windows with stride `s`.
///
/// Draws the output buffer from `scratch`.
///
/// # Panics
///
/// Panics if the input is not NCHW or the window does not fit.
pub fn avg_pool2d_forward_with(input: &Tensor, k: usize, s: usize, scratch: &Scratch) -> Tensor {
    assert_eq!(input.shape().rank(), 4, "avg pool input must be NCHW");
    let (n, c, h, w) = (
        input.shape().dim(0),
        input.shape().dim(1),
        input.shape().dim(2),
        input.shape().dim(3),
    );
    let oh = conv_out_dim(h, k, s, 0);
    let ow = conv_out_dim(w, k, s, 0);
    let mut out = scratch.tensor_uninit(&[n, c, oh, ow]);
    let x = input.data();
    let plane_in = h * w;
    let plane_out = oh * ow;
    let inv = 1.0 / (k * k) as f32;
    parallel_chunks_mut(out.data_mut(), plane_out, k * k, |p, y| {
        let plane = &x[p * plane_in..(p + 1) * plane_in];
        for oi in 0..oh {
            for oj in 0..ow {
                let mut acc = 0.0;
                for ki in 0..k {
                    for kj in 0..k {
                        acc += plane[(oi * s + ki) * w + (oj * s + kj)];
                    }
                }
                y[oi * ow + oj] = acc * inv;
            }
        }
    });
    out
}

/// Backward pass of [`avg_pool2d_forward_with`].
///
/// Draws the gradient buffer from `scratch`.
///
/// # Panics
///
/// Panics if the geometries are inconsistent.
pub fn avg_pool2d_backward_with(
    grad_output: &Tensor,
    input_dims: &[usize],
    k: usize,
    s: usize,
    scratch: &Scratch,
) -> Tensor {
    assert_eq!(input_dims.len(), 4, "input dims must be NCHW");
    let (h, w) = (input_dims[2], input_dims[3]);
    let oh = conv_out_dim(h, k, s, 0);
    let ow = conv_out_dim(w, k, s, 0);
    assert_eq!(
        grad_output.shape().dims(),
        &[input_dims[0], input_dims[1], oh, ow],
        "grad_output shape mismatch"
    );
    let mut grad_input = scratch.tensor_zeroed(input_dims);
    let plane_in = h * w;
    let plane_out = oh * ow;
    let gy = grad_output.data();
    let inv = 1.0 / (k * k) as f32;
    parallel_chunks_mut(grad_input.data_mut(), plane_in, k * k, |p, gx| {
        let gy_plane = &gy[p * plane_out..(p + 1) * plane_out];
        for oi in 0..oh {
            for oj in 0..ow {
                let g = gy_plane[oi * ow + oj] * inv;
                for ki in 0..k {
                    for kj in 0..k {
                        gx[(oi * s + ki) * w + (oj * s + kj)] += g;
                    }
                }
            }
        }
    });
    grad_input
}

/// Collapses each channel plane to its mean: `[N,C,H,W] -> [N,C]`.
///
/// Draws the output buffer from `scratch`.
///
/// # Panics
///
/// Panics if the input is not 4-D.
pub fn global_avg_pool_forward_with(input: &Tensor, scratch: &Scratch) -> Tensor {
    assert_eq!(
        input.shape().rank(),
        4,
        "global avg pool input must be NCHW"
    );
    let (n, c, h, w) = (
        input.shape().dim(0),
        input.shape().dim(1),
        input.shape().dim(2),
        input.shape().dim(3),
    );
    let mut out = scratch.tensor_uninit(&[n, c]);
    let plane = h * w;
    let inv = 1.0 / plane as f32;
    for (i, o) in out.data_mut().iter_mut().enumerate() {
        let start = i * plane;
        *o = input.data()[start..start + plane].iter().sum::<f32>() * inv;
    }
    out
}

/// Backward pass of [`global_avg_pool_forward_with`].
///
/// Draws the gradient buffer from `scratch`.
///
/// # Panics
///
/// Panics if shapes are inconsistent.
pub fn global_avg_pool_backward_with(
    grad_output: &Tensor,
    input_dims: &[usize],
    scratch: &Scratch,
) -> Tensor {
    assert_eq!(input_dims.len(), 4, "input dims must be NCHW");
    assert_eq!(
        grad_output.shape().dims(),
        &[input_dims[0], input_dims[1]],
        "grad_output must be [N, C]"
    );
    let plane = input_dims[2] * input_dims[3];
    let inv = 1.0 / plane as f32;
    let mut grad_input = scratch.tensor_uninit(input_dims);
    for (i, chunk) in grad_input.data_mut().chunks_mut(plane).enumerate() {
        chunk.fill(grad_output.data()[i] * inv);
    }
    grad_input
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;
    use crate::rng::Rng;

    #[test]
    fn max_pool_picks_window_maxima() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
            &[1, 1, 4, 4],
        );
        let (y, _) = max_pool2d_forward_with(&x, 2, 2, Scratch::shared());
        assert_eq!(y.data(), &[4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let x = Tensor::from_vec(vec![1.0, 3.0, 2.0, 0.0], &[1, 1, 2, 2]);
        let (_, cache) = max_pool2d_forward_with(&x, 2, 2, Scratch::shared());
        let gy = Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]);
        let gx = max_pool2d_backward_with(&gy, &cache, Scratch::shared());
        assert_eq!(gx.data(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn avg_pool_matches_mean() {
        let x = Tensor::from_vec((1..=16).map(|v| v as f32).collect(), &[1, 1, 4, 4]);
        let y = avg_pool2d_forward_with(&x, 2, 2, Scratch::shared());
        assert_eq!(y.data(), &[3.5, 5.5, 11.5, 13.5]);
    }

    #[test]
    fn avg_pool_backward_finite_differences() {
        let mut rng = Rng::seed_from(1);
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        let y = avg_pool2d_forward_with(&x, 2, 2, Scratch::shared());
        let gy = Tensor::ones(y.shape().dims());
        let gx = avg_pool2d_backward_with(&gy, x.shape().dims(), 2, 2, Scratch::shared());
        let eps = 1e-2;
        for i in [0usize, 9, 21, 31] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (avg_pool2d_forward_with(&xp, 2, 2, Scratch::shared()).sum()
                - avg_pool2d_forward_with(&xm, 2, 2, Scratch::shared()).sum())
                / (2.0 * eps);
            assert!((num - gx.data()[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn global_avg_pool_roundtrip() {
        let mut rng = Rng::seed_from(2);
        let x = Tensor::randn(&[2, 3, 4, 4], 1.0, &mut rng);
        let y = global_avg_pool_forward_with(&x, Scratch::shared());
        assert_eq!(y.shape().dims(), &[2, 3]);
        // Mean of channel 0 of sample 0.
        let expect: f32 = x.data()[0..16].iter().sum::<f32>() / 16.0;
        assert!((y.data()[0] - expect).abs() < 1e-5);
        let gy = Tensor::ones(&[2, 3]);
        let gx = global_avg_pool_backward_with(&gy, x.shape().dims(), Scratch::shared());
        assert_close(&[gx.data().iter().sum::<f32>()], &[6.0], 1e-4);
    }

    #[test]
    fn max_pool_propagates_nan_windows() {
        // A window of injected NaNs must yield NaN, not −∞.
        let x = Tensor::from_vec(vec![f32::NAN, f32::NAN, f32::NAN, f32::NAN], &[1, 1, 2, 2]);
        let (y, _) = max_pool2d_forward_with(&x, 2, 2, Scratch::shared());
        assert!(y.data()[0].is_nan());
        // Any NaN in the window poisons the output, like the reference
        // frameworks — a silently dropped NaN would hide the fault.
        let x2 = Tensor::from_vec(vec![1.0, f32::NAN, 0.5, -2.0], &[1, 1, 2, 2]);
        let (y2, _) = max_pool2d_forward_with(&x2, 2, 2, Scratch::shared());
        assert!(y2.data()[0].is_nan());
        // Finite windows are untouched by the NaN branch.
        let x3 = Tensor::from_vec(vec![1.0, 3.0, 0.5, -2.0], &[1, 1, 2, 2]);
        let (y3, _) = max_pool2d_forward_with(&x3, 2, 2, Scratch::shared());
        assert_eq!(y3.data()[0], 3.0);
    }

    #[test]
    fn max_pool_cache_recycles_into_arena() {
        let scratch = Scratch::new();
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]);
        let (y, cache) = max_pool2d_forward_with(&x, 2, 2, &scratch);
        scratch.recycle(y);
        cache.recycle(&scratch);
        let baseline = scratch.stats().misses;
        let (_y2, _c2) = max_pool2d_forward_with(&x, 2, 2, &scratch);
        assert_eq!(
            scratch.stats().misses,
            baseline,
            "second forward must reuse both pooled buffers"
        );
    }

    #[test]
    fn max_pool_stride_one_overlapping() {
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
            &[1, 1, 3, 3],
        );
        let (y, cache) = max_pool2d_forward_with(&x, 2, 1, Scratch::shared());
        assert_eq!(y.data(), &[5.0, 6.0, 8.0, 9.0]);
        let gy = Tensor::ones(&[1, 1, 2, 2]);
        let gx = max_pool2d_backward_with(&gy, &cache, Scratch::shared());
        // Each window winner receives exactly one unit.
        assert_eq!(gx.data()[4], 1.0); // value 5
        assert_eq!(gx.data()[8], 1.0); // value 9
        assert_eq!(gx.data().iter().sum::<f32>(), 4.0);
    }
}
