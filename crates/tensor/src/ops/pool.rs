//! Max, average and global-average pooling (forward + backward).
//!
//! Table III of the paper distinguishes the architecture families partly by
//! their pooling: ConvNet/VGG use max pooling, ResNet/MobileNet end in
//! (global) average pooling.

use crate::ops::conv_out_dim;
use crate::parallel::{parallel_chunks_mut, parallel_zip_chunks_mut};
use crate::scratch::Scratch;
use crate::Tensor;
use std::hint::select_unpredictable;

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

/// The geometry of one max-pool call: `[n, c, h, w]` in, `oh × ow` planes
/// out, `k`×`k` windows at stride `s`.
struct PoolGeom {
    dims: [usize; 4],
    oh: usize,
    ow: usize,
    k: usize,
    s: usize,
}

impl PoolGeom {
    fn new(input: &Tensor, k: usize, s: usize) -> Self {
        assert_eq!(input.shape().rank(), 4, "max pool input must be NCHW");
        let d = input.shape().dims();
        let dims = [d[0], d[1], d[2], d[3]];
        Self {
            dims,
            oh: conv_out_dim(dims[2], k, s, 0),
            ow: conv_out_dim(dims[3], k, s, 0),
            k,
            s,
        }
    }

    fn out_dims(&self) -> [usize; 4] {
        [self.dims[0], self.dims[1], self.oh, self.ow]
    }

    fn plane_in(&self) -> usize {
        self.dims[2] * self.dims[3]
    }

    fn plane_out(&self) -> usize {
        self.oh * self.ow
    }

    /// Max-pools one input `plane` into its output plane `y`; with `TRACK`,
    /// also writes each window's winning plane index into `arg`.
    ///
    /// Every window is read in row-major order, and a tap `v` replaces the
    /// running best when `v > best || v.is_nan()`. So a NaN wins and then
    /// stays unless a later NaN replaces it (the last NaN in window order
    /// wins, with its payload), an equal value never replaces the best (a
    /// `-0.0`/`+0.0` tie keeps the first element), and an all-`-inf`
    /// window yields `-inf` at its first element.
    ///
    /// The scan goes tap by tap over all of the plane's windows at once,
    /// with each running best held in `y`: the windows are independent, so
    /// no long serial chain forms. The select is a conditional move on the
    /// value's bits (with the index packed alongside under `TRACK`), never
    /// a branch: which tap wins depends on fresh activations, so a branch
    /// on it mispredicts. A select on the `f32`s themselves compiles to a
    /// branch on x86-64 without SSE4.1, hence the bits.
    #[inline(always)]
    fn scan_plane<const TRACK: bool>(&self, plane: &[f32], y: &mut [f32], arg: &mut [u32]) {
        let (w, k, s, ow) = (self.dims[3], self.k, self.s, self.ow);
        y.fill(f32::NEG_INFINITY);
        if TRACK {
            for (o, a) in arg.iter_mut().enumerate() {
                *a = ((o / ow) * s * w + (o % ow) * s) as u32;
            }
        }
        for ki in 0..k {
            for kj in 0..k {
                for (oi, y_row) in y.chunks_exact_mut(ow).enumerate() {
                    let r = (oi * s + ki) * w + kj;
                    let taps = &plane[r..=r + (ow - 1) * s];
                    if TRACK {
                        let a_row = &mut arg[oi * ow..(oi + 1) * ow];
                        for (j, (b, a)) in y_row.iter_mut().zip(a_row).enumerate() {
                            let v = taps[j * s];
                            let old = (u64::from(b.to_bits()) << 32) | u64::from(*a);
                            let new = (u64::from(v.to_bits()) << 32) | (r + j * s) as u64;
                            let won = select_unpredictable(wins(v, *b), new, old);
                            *b = f32::from_bits((won >> 32) as u32);
                            *a = won as u32;
                        }
                    } else {
                        for (j, b) in y_row.iter_mut().enumerate() {
                            let v = taps[j * s];
                            let won = select_unpredictable(wins(v, *b), v.to_bits(), b.to_bits());
                            *b = f32::from_bits(won);
                        }
                    }
                }
            }
        }
    }
}

/// Whether tap `v` replaces the running maximum `best`: it is greater, or
/// it is a NaN (which then sticks, since nothing compares greater).
#[inline(always)]
fn wins(v: f32, best: f32) -> bool {
    (v > best) | v.is_nan()
}

/// Max pooling over `k`×`k` windows with stride `s`, values only.
///
/// The evaluation pass: one window scan per output, no index bookkeeping.
/// Values are bit-identical to [`max_pool2d_forward_train_with`]'s.
/// Draws the output buffer from `scratch`.
///
/// # Panics
///
/// Panics if the input is not NCHW or the window does not fit.
pub fn max_pool2d_forward_with(input: &Tensor, k: usize, s: usize, scratch: &Scratch) -> Tensor {
    let g = PoolGeom::new(input, k, s);
    let mut out = scratch.tensor_uninit(&g.out_dims());
    let x = input.data();
    let plane_in = g.plane_in();
    parallel_chunks_mut(out.data_mut(), g.plane_out(), k * k, |p, y| {
        let plane = &x[p * plane_in..(p + 1) * plane_in];
        g.scan_plane::<false>(plane, y, &mut []);
    });
    out
}

/// Max pooling over `k`×`k` windows with stride `s`, recording each
/// window's winning index for [`max_pool2d_backward_with`].
///
/// The training pass: the same window scan as [`max_pool2d_forward_with`]
/// writes the value and the index together, one `(sample, channel)` plane
/// per task. Draws the output and index buffers from `scratch`.
///
/// # Panics
///
/// Panics if the input is not NCHW or the window does not fit.
pub fn max_pool2d_forward_train_with(
    input: &Tensor,
    k: usize,
    s: usize,
    scratch: &Scratch,
) -> (Tensor, MaxPoolCache) {
    let g = PoolGeom::new(input, k, s);
    let mut out = scratch.tensor_uninit(&g.out_dims());
    let mut argmax = scratch.take_u32(out.numel()).into_vec();
    let x = input.data();
    let (plane_in, plane_out) = (g.plane_in(), g.plane_out());
    parallel_zip_chunks_mut(
        out.data_mut(),
        plane_out,
        &mut argmax,
        plane_out,
        k * k,
        |p, y, arg| {
            let plane = &x[p * plane_in..(p + 1) * plane_in];
            g.scan_plane::<true>(plane, y, arg);
        },
    );
    (
        out,
        MaxPoolCache {
            argmax,
            input_dims: g.dims,
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
    use crate::parallel::{with_inner_threads, SERIAL_THRESHOLD};
    use crate::rng::Rng;

    /// A NaN with payload `p` (quiet bit set, so it survives copies).
    fn nan(p: u32) -> f32 {
        f32::from_bits(0x7fc0_0000 | p)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Max pooling written the obvious way: per window, the last NaN if
    /// there is one, otherwise the first element that no other element
    /// exceeds. Returns the values and their plane indices.
    fn naive_max_pool(x: &Tensor, k: usize, s: usize) -> (Vec<f32>, Vec<u32>) {
        let d = x.shape().dims();
        let (planes, h, w) = (d[0] * d[1], d[2], d[3]);
        let (oh, ow) = ((h - k) / s + 1, (w - k) / s + 1);
        let (mut vals, mut idxs) = (Vec::new(), Vec::new());
        for p in 0..planes {
            let plane = &x.data()[p * h * w..(p + 1) * h * w];
            for oi in 0..oh {
                for oj in 0..ow {
                    let window: Vec<usize> = (0..k * k)
                        .map(|t| (oi * s + t / k) * w + oj * s + t % k)
                        .collect();
                    let at = |i: &usize| plane[*i];
                    let win = match window.iter().rposition(|i| at(i).is_nan()) {
                        Some(j) => window[j],
                        None => *window
                            .iter()
                            .find(|i| window.iter().all(|u| at(u) <= at(i)))
                            .expect("a finite or infinite window has a maximum"),
                    };
                    vals.push(plane[win]);
                    idxs.push(win as u32);
                }
            }
        }
        (vals, idxs)
    }

    /// Values, and training-mode indices, bit for bit against
    /// [`naive_max_pool`] at 1, 2 and 3 kernel threads.
    #[test]
    fn max_pool_matches_naive_reference() {
        let (inf, z) = (f32::INFINITY, 0.0f32);
        // Batches big enough to fan out, with NaNs (distinct payloads),
        // signed zeros and infinities scattered through them.
        let mut rng = Rng::seed_from(7);
        let mut big = |dims: &[usize]| {
            let mut t = Tensor::randn(dims, 1.0, &mut rng);
            for (i, v) in t.data_mut().iter_mut().enumerate() {
                *v = match i % 97 {
                    0 => nan(i as u32 & 0xffff),
                    13 | 14 => -z,
                    15 => z,
                    40 => -inf,
                    _ => *v,
                };
            }
            t
        };
        let (big_k3, big_k2) = (big(&[32, 16, 35, 33]), big(&[64, 16, 34, 33]));
        // (input, k, s, expected values; empty = reference only)
        #[rustfmt::skip]
        let rows: Vec<(Tensor, usize, usize, Vec<f32>)> = vec![
            // Window maxima, 2/2.
            (Tensor::from_vec(vec![
                1.0, 2.0, 5.0, 6.0,
                3.0, 4.0, 7.0, 8.0,
                9.0, 10.0, 13.0, 14.0,
                11.0, 12.0, 15.0, 16.0,
            ], &[1, 1, 4, 4]), 2, 2, vec![4.0, 8.0, 12.0, 16.0]),
            // Overlapping windows, 2/1.
            (Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 1, 3, 3]),
                2, 1, vec![5.0, 6.0, 8.0, 9.0]),
            // One NaN poisons its window; a finite window is untouched.
            (Tensor::from_vec(vec![1.0, nan(1), 0.5, 3.0, -2.0, 0.5], &[1, 1, 2, 3]),
                2, 1, vec![nan(1), nan(1)]),
            // Two NaNs with distinct payloads: the last in window order wins.
            (Tensor::from_vec(vec![nan(2), 1.0, 7.0, nan(3)], &[1, 1, 2, 2]),
                2, 2, vec![nan(3)]),
            (Tensor::from_vec(vec![nan(4), nan(5), nan(6), nan(7)], &[1, 1, 2, 2]),
                2, 2, vec![nan(7)]),
            // Signed-zero ties keep the first element.
            (Tensor::from_vec(vec![-z, z, z, -z, z, -z, -z, z], &[1, 1, 2, 4]),
                2, 2, vec![-z, z]),
            // All-`-inf` windows, away from the plane's first element too.
            (Tensor::from_vec(vec![1.0, 2.0, -inf, -inf, 3.0, 4.0, -inf, -inf], &[1, 1, 2, 4]),
                2, 2, vec![4.0, -inf]),
            (Tensor::from_vec(vec![-inf; 8], &[2, 1, 2, 2]), 2, 2, vec![-inf, -inf]),
            // Sizes the window does not divide: 3/1, 3/2, 2/2 and 1/1.
            (Tensor::randn(&[2, 3, 7, 5], 1.0, &mut rng), 3, 1, vec![]),
            (Tensor::randn(&[2, 3, 7, 6], 1.0, &mut rng), 3, 2, vec![]),
            (Tensor::randn(&[3, 2, 5, 7], 1.0, &mut rng), 2, 2, vec![]),
            (Tensor::randn(&[2, 2, 3, 5], 1.0, &mut rng), 1, 1, vec![]),
            (big_k3.clone(), 3, 2, vec![]),
            (big_k3, 3, 1, vec![]),
            (big_k2, 2, 2, vec![]),
        ];
        for (row, (x, k, s, expect)) in rows.iter().enumerate() {
            let (want, want_idx) = naive_max_pool(x, *k, *s);
            if row >= rows.len() - 3 {
                let work = want.len() * k * k;
                assert!(work >= SERIAL_THRESHOLD, "row {row} must fan out");
            }
            if !expect.is_empty() {
                assert_eq!(bits(&want), bits(expect), "row {row}: reference");
            }
            for threads in 1..=3 {
                with_inner_threads(threads, || {
                    let scratch = Scratch::new();
                    let eval = max_pool2d_forward_with(x, *k, *s, &scratch);
                    let (train, cache) = max_pool2d_forward_train_with(x, *k, *s, &scratch);
                    let at = format!("row {row}, k{k} s{s}, {threads} threads");
                    assert_eq!(bits(eval.data()), bits(&want), "{at}: eval values");
                    assert_eq!(bits(train.data()), bits(&want), "{at}: train values");
                    assert_eq!(cache.argmax, want_idx, "{at}: train indices");
                });
            }
        }
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let x = Tensor::from_vec(vec![1.0, 3.0, 2.0, 0.0], &[1, 1, 2, 2]);
        let (_, cache) = max_pool2d_forward_train_with(&x, 2, 2, Scratch::shared());
        let gy = Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]);
        let gx = max_pool2d_backward_with(&gy, &cache, Scratch::shared());
        assert_eq!(gx.data(), &[0.0, 5.0, 0.0, 0.0]);
        // Overlapping windows: each window's winner receives one unit.
        let x = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 1, 3, 3]);
        let (_, cache) = max_pool2d_forward_train_with(&x, 2, 1, Scratch::shared());
        let gx = max_pool2d_backward_with(&Tensor::ones(&[1, 1, 2, 2]), &cache, Scratch::shared());
        assert_eq!(gx.data(), &[0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
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
    fn max_pool_cache_recycles_into_arena() {
        let scratch = Scratch::new();
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]);
        let (y, cache) = max_pool2d_forward_train_with(&x, 2, 2, &scratch);
        scratch.recycle(y);
        cache.recycle(&scratch);
        let baseline = scratch.stats().misses;
        let (_y2, _c2) = max_pool2d_forward_train_with(&x, 2, 2, &scratch);
        assert_eq!(
            scratch.stats().misses,
            baseline,
            "second forward must reuse both pooled buffers"
        );
    }
}
