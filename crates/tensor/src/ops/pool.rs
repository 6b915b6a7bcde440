//! Max, average and global-average pooling (forward + backward).
//!
//! Table III of the paper distinguishes the architecture families partly by
//! their pooling: ConvNet/VGG use max pooling, ResNet/MobileNet end in
//! (global) average pooling.
//!
//! # Max pooling as one separable fold
//!
//! A window's maximum follows one rule over its taps in row-major order:
//! the last NaN wins, with its payload; without a NaN, the first element
//! that no other exceeds wins, so a `-0.0`/`+0.0` tie keeps the first and
//! an all-`-inf` window yields `-inf` at its first element. A left fold
//! computes it: a later tap `v` replaces the running best `b` when
//! `v > b || v.is_nan()`. The fold is associative: cut the taps into
//! consecutive runs, fold each run, then fold the runs' winners in order,
//! and the same tap wins. The last run holding a NaN holds the last NaN;
//! without NaNs, the first run that reaches the maximum holds its first
//! occurrence, and a later run's equal winner never replaces it.
//!
//! So every `(k, s)` folds in two stages, over runs that are consecutive
//! in window order. The row fold takes each input row's `k` taps at stride
//! `s`. The column fold then takes, for each output, the row-fold results
//! of its window's `k` rows. Under `Train` the winner's input index rides
//! along through the same selects. Both stages are one lane kernel
//! ([`crate::simd::run_lanes`]), eight outputs per step, whose select is a
//! compare mask blended into the value's bits and the index, never a
//! branch: which tap wins depends on fresh activations, so a branch on it
//! mispredicts. The AVX2 and baseline instances run the same operations,
//! so they give the same bits. Strides 1 and 2 are compile-time constants,
//! so a stride-2 run of taps loads as whole vectors and shuffles, and
//! output rows 1, 2 or 4 wide share a lane vector when the windows tile
//! the planes. A task covers a run of whole planes, so the output is the
//! same at every thread count.
#![allow(
    unsafe_code,
    reason = "the max-pool fold loads taps without bounds checks; each run asserts its largest index once"
)]

use crate::ops::conv_out_dim;
use crate::parallel::{parallel_chunks_mut, parallel_zip_chunks_mut, threads_for};
use crate::scratch::Scratch;
use crate::simd::{run_lanes, LaneKernel, LANES};
use crate::Tensor;

/// The winning elements of a max-pool forward pass, as indices into the
/// whole input, needed to route gradients in the backward pass.
#[derive(Debug, Clone)]
pub struct MaxPoolCache {
    argmax: Vec<u32>,
    input_dims: [usize; 4],
}

impl MaxPoolCache {
    /// Each window's winner, as an index into the whole input, in output
    /// order.
    pub fn argmax(&self) -> &[u32] {
        &self.argmax
    }

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
        assert!(
            u32::try_from(input.numel()).is_ok(),
            "max pool input too large for u32 indices"
        );
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

    /// Row-fold results per input row. When the stride divides the width,
    /// one row's `w / s` results run straight on into the next row's, so
    /// a task's planes fold as one strided sequence (results past `ow` in
    /// a row straddle two rows and are never read); otherwise each row
    /// folds on its own into `ow` results.
    fn fold_width(&self) -> usize {
        let (w, s) = (self.dims[3], self.s);
        if w.is_multiple_of(s) {
            w / s
        } else {
            self.ow
        }
    }

    /// Planes per task: all planes split evenly over the kernel threads
    /// the call fans out to, so a serial call is one task.
    fn task_planes(&self) -> usize {
        let planes = self.dims[0] * self.dims[1];
        let threads = threads_for(planes * self.plane_out() * self.k * self.k);
        planes.div_ceil(threads).max(1)
    }

    /// Max-pools the planes of the input `x` from plane `p0` on into `y`
    /// and, under `TRACK`, their winners' input indices into `arg`,
    /// drawing the row-fold buffers from `scratch`.
    fn pool<const TRACK: bool>(
        &self,
        (x, p0): (&[f32], usize),
        y: &mut [f32],
        arg: &mut [u32],
        scratch: &Scratch,
    ) {
        let planes = y.len() / self.plane_out();
        let first = p0 * self.plane_in();
        let len = planes * self.dims[2] * self.fold_width();
        let mut rows = scratch.take(len);
        let mut rows_at = TRACK.then(|| scratch.take_u32(len));
        let x = &x[first..][..planes * self.plane_in()];
        let rows = (&mut rows[..], rows_at.as_deref_mut().unwrap_or_default());
        run_lanes(MaxFold::<TRACK> {
            g: self,
            x: (x, first),
            rows,
            y,
            arg,
        });
    }
}

/// One task's max pooling: the planes `x.0`, whose first element is input
/// element `x.1`, into the outputs `y` and, under `TRACK`, the winners'
/// input indices `arg`. `rows` holds the row fold's values and indices.
struct MaxFold<'a, const TRACK: bool> {
    g: &'a PoolGeom,
    x: (&'a [f32], usize),
    rows: (&'a mut [f32], &'a mut [u32]),
    y: &'a mut [f32],
    arg: &'a mut [u32],
}

impl<const TRACK: bool> LaneKernel for MaxFold<'_, TRACK> {
    #[inline(always)]
    fn lane_loop(self) {
        // A constant stride lets the compiler load a strided run of taps
        // as whole vectors and shuffles.
        match self.g.s {
            1 => self.fold::<1>(),
            2 => self.fold::<2>(),
            _ => self.fold::<0>(),
        }
    }
}

impl<const TRACK: bool> MaxFold<'_, TRACK> {
    /// Both stages, with the row fold's stride `S` (0: not a constant).
    #[inline(always)]
    fn fold<const S: usize>(self) {
        let Self {
            g,
            x: (x, first),
            rows: (rows, rows_at),
            y,
            arg,
        } = self;
        let [_, _, h, w] = g.dims;
        let (k, s, oh, ow, fw) = (g.k, g.s, g.oh, g.ow, g.fold_width());
        let planes = y.len() / g.plane_out();
        let at_len = |n: usize| if TRACK { n } else { 0 };
        // The row fold: result `j` of input row `r` folds the taps
        // `r·w + j·s + (0..k)`.
        let taps = Taps::new((x, Counted(first)), (s, 0, 1, k));
        if fw * s == w {
            let n = (planes * h - 1) * fw + ow;
            fold_run::<S, TRACK, _>(taps, 0, &mut rows[..n], &mut rows_at[..at_len(n)]);
        } else {
            for r in 0..planes * h {
                let dst_at = &mut rows_at[at_len(r * ow)..][..at_len(ow)];
                fold_run::<S, TRACK, _>(taps, r * w, &mut rows[r * ow..][..ow], dst_at);
            }
        }
        // The column fold: output `(oi, j)` of plane `p` folds the row-fold
        // results `j` of input rows `p·h + oi·s + (0..k)`, `fw` apart.
        let rows = (&*rows, Stored(&*rows_at));
        if h == oh * s {
            // Output row `m` starts at row-fold row `m·s`: whole output
            // rows narrower than eight share the lanes.
            let taps = Taps::new(rows, (1, s * fw, fw, k));
            match ow {
                1 => return fold_tiles::<8, 1, TRACK, _>(taps, y, arg),
                2 => return fold_tiles::<4, 2, TRACK, _>(taps, y, arg),
                4 => return fold_tiles::<2, 4, TRACK, _>(taps, y, arg),
                _ => {}
            }
        }
        let taps = Taps::new(rows, (1, 0, fw, k));
        for (m, y) in y.chunks_exact_mut(ow).enumerate() {
            let r0 = ((m / oh) * h + (m % oh) * s) * fw;
            fold_run::<1, TRACK, _>(taps, r0, y, &mut arg[at_len(m * ow)..][..at_len(ow)]);
        }
    }
}

/// Windows laid out in lanes: lane `(r, c)` of a vector whose first window
/// starts at value `i` reads tap `t` at `v[i + r·row + c·stride + t·step]`,
/// for `t` in `0..k`; `at` gives each tap's input index.
#[derive(Clone, Copy)]
struct Taps<'a, I> {
    v: &'a [f32],
    at: I,
    stride: usize,
    row: usize,
    step: usize,
    k: usize,
}

impl<'a, I> Taps<'a, I> {
    fn new((v, at): (&'a [f32], I), (stride, row, step, k): (usize, usize, usize, usize)) -> Self {
        Taps {
            v,
            at,
            stride,
            row,
            step,
            k,
        }
    }

    /// Asserts that every tap of `rows × cols` windows from value `i`
    /// (`rows` of them `row` apart, `cols` of them `stride` apart) lies
    /// in the values, and under `TRACK` has an index.
    fn check<const TRACK: bool>(&self, i: usize, (rows, cols): (usize, usize))
    where
        I: TapIndex,
    {
        let last = i + (rows - 1) * self.row + (cols - 1) * self.stride + (self.k - 1) * self.step;
        assert!(
            self.k > 0 && last < self.v.len(),
            "max-pool tap out of bounds"
        );
        assert!(
            !TRACK || self.at.covers(self.v.len()),
            "max-pool indices too short"
        );
    }
}

/// Where the input indices of the taps come from.
trait TapIndex: Copy {
    /// The indices of the taps at `i + (l / C)·row + (l % C)·stride`, for
    /// lanes `l` in `0..N`.
    ///
    /// # Safety
    ///
    /// Every such tap must be in bounds of the values, and stored indices
    /// must cover the values.
    unsafe fn lanes<const N: usize, const C: usize>(
        self,
        i: usize,
        row: usize,
        stride: usize,
    ) -> [u32; N];

    /// Whether the indices cover `len` tapped values.
    fn covers(self, len: usize) -> bool;
}

/// Taps read straight from the input: `v[i]` is input element `first + i`.
#[derive(Clone, Copy)]
struct Counted(usize);

impl TapIndex for Counted {
    #[inline(always)]
    unsafe fn lanes<const N: usize, const C: usize>(
        self,
        i: usize,
        row: usize,
        stride: usize,
    ) -> [u32; N] {
        // `PoolGeom::new` checked that every input index fits in a `u32`.
        std::array::from_fn(|l| (self.0 + i + (l / C) * row + (l % C) * stride) as u32)
    }

    fn covers(self, _: usize) -> bool {
        true
    }
}

/// Taps read from the row fold, whose winners' indices sit alongside.
#[derive(Clone, Copy)]
struct Stored<'a>(&'a [u32]);

impl TapIndex for Stored<'_> {
    #[inline(always)]
    unsafe fn lanes<const N: usize, const C: usize>(
        self,
        i: usize,
        row: usize,
        stride: usize,
    ) -> [u32; N] {
        // SAFETY: the caller keeps every tap in bounds of the values,
        // which the stored indices cover.
        std::array::from_fn(|l| unsafe {
            *self.0.get_unchecked(i + (l / C) * row + (l % C) * stride)
        })
    }

    fn covers(self, len: usize) -> bool {
        self.0.len() >= len
    }
}

/// Folds the `dst.len()` windows of `taps` from value `i` on, `stride`
/// apart, into `dst` and, under `TRACK`, their winners' input indices into
/// `dst_at`: eight windows per step, then the rest four, two and one at a
/// time. `S` is the stride when it is a constant, else 0.
///
/// # Panics
///
/// Panics if a tap lies outside the values, or under `TRACK` if `dst_at`
/// or the stored indices are too short.
#[inline(always)]
fn fold_run<const S: usize, const TRACK: bool, I: TapIndex>(
    taps: Taps<'_, I>,
    i: usize,
    dst: &mut [f32],
    dst_at: &mut [u32],
) {
    let n = dst.len();
    if n == 0 {
        return;
    }
    assert!(S == 0 || (S == taps.stride && (S == 1 || taps.step == 1)));
    assert!(!TRACK || dst_at.len() == n);
    taps.check::<TRACK>(i, (1, n));
    let mut q = 0;
    while q + LANES <= n {
        let at = at_range::<TRACK>(dst_at, q, LANES);
        fold_lanes::<LANES, LANES, S, TRACK, I>(
            &taps,
            i + q * taps.stride,
            &mut dst[q..][..LANES],
            at,
        );
        q += LANES;
    }
    for width in [4, 2, 1] {
        if n - q >= width {
            let (i, y, at) = (
                i + q * taps.stride,
                &mut dst[q..][..width],
                at_range::<TRACK>(dst_at, q, width),
            );
            match width {
                4 => fold_lanes::<4, 4, S, TRACK, I>(&taps, i, y, at),
                2 => fold_lanes::<2, 2, S, TRACK, I>(&taps, i, y, at),
                _ => fold_lanes::<1, 1, S, TRACK, I>(&taps, i, y, at),
            }
            q += width;
        }
    }
}

/// Folds whole output rows of `C` windows, `T` rows per lane vector: row
/// `m` of `y` holds the windows from value `m·row` on.
///
/// # Panics
///
/// As [`fold_run`].
#[inline(always)]
fn fold_tiles<const T: usize, const C: usize, const TRACK: bool, I: TapIndex>(
    taps: Taps<'_, I>,
    y: &mut [f32],
    arg: &mut [u32],
) {
    let rows = y.len() / C;
    if rows == 0 {
        return;
    }
    assert!(taps.stride == 1 && y.len() == rows * C && (!TRACK || arg.len() == y.len()));
    taps.check::<TRACK>(0, (rows, C));
    let mut m = 0;
    while m + T <= rows {
        let at = at_range::<TRACK>(arg, m * C, T * C);
        fold_lanes::<LANES, C, 1, TRACK, I>(&taps, m * taps.row, &mut y[m * C..][..T * C], at);
        m += T;
    }
    for m in m..rows {
        let at = at_range::<TRACK>(arg, m * C, C);
        fold_lanes::<C, C, 1, TRACK, I>(&taps, m * taps.row, &mut y[m * C..][..C], at);
    }
}

/// `len` indices from `q` on under `TRACK`, else none.
#[inline(always)]
fn at_range<const TRACK: bool>(at: &mut [u32], q: usize, len: usize) -> &mut [u32] {
    if TRACK {
        &mut at[q..][..len]
    } else {
        &mut []
    }
}

/// The `N` windows of `taps` from value `i` on, one per lane, into `dst`
/// (and their winners' indices into `dst_at` under `TRACK`): lane `l` is
/// window `l % C` of row `l / C`.
///
/// With a constant stride `S` above 1, the `S` taps from `t` on of a row
/// of windows are consecutive values (`fold_run` asserts `step` 1 there):
/// they load as one block, and window `c` takes its taps from row `c` of
/// it.
///
/// The caller asserts that every tap lies in the values.
#[inline(always)]
fn fold_lanes<const N: usize, const C: usize, const S: usize, const TRACK: bool, I: TapIndex>(
    taps: &Taps<'_, I>,
    i: usize,
    dst: &mut [f32],
    dst_at: &mut [u32],
) {
    let stride = if S == 0 { taps.stride } else { S };
    let (row, step, k) = (taps.row, taps.step, taps.k);
    let at = |t: usize, l: usize| i + t * step + (l / C) * row + (l % C) * stride;
    let load = |t: usize| -> [f32; N] {
        // SAFETY: the caller asserted that every tap of these windows lies
        // in the values.
        std::array::from_fn(|l| unsafe { *taps.v.get_unchecked(at(t, l)) })
    };
    let load_block = |t: usize| -> [[f32; S]; N] {
        std::array::from_fn(|l| {
            // SAFETY: as for `load`; a block holds taps `t .. t + S`.
            std::array::from_fn(|j| unsafe { *taps.v.get_unchecked(at(t + j, l)) })
        })
    };
    let index = |t: usize| -> [u32; N] {
        if TRACK {
            // SAFETY: as for `load`; the caller asserted under `TRACK`
            // that stored indices cover the values.
            unsafe { taps.at.lanes::<N, C>(at(t, 0), row, stride) }
        } else {
            [0; N]
        }
    };
    let (mut best, mut won_at, mut t);
    if S > 1 && S <= k {
        let block = load_block(0);
        (best, won_at) = (block.map(|b| b[0]), index(0));
        for j in 1..S {
            select::<N, TRACK>((&mut best, &mut won_at), block.map(|b| b[j]), index(j));
        }
        t = S;
    } else {
        (best, won_at, t) = (load(0), index(0), 1);
    }
    while t < k {
        if S > 1 && t + S <= k {
            let block = load_block(t);
            for j in 0..S {
                select::<N, TRACK>((&mut best, &mut won_at), block.map(|b| b[j]), index(t + j));
            }
            t += S;
        } else {
            select::<N, TRACK>((&mut best, &mut won_at), load(t), index(t));
            t += 1;
        }
    }
    dst.copy_from_slice(&best);
    if TRACK {
        dst_at.copy_from_slice(&won_at);
    }
}

/// One step of the fold in every lane: a later tap `v` (input index `vi`)
/// replaces the running best when it is greater or a NaN. Branch-free: a
/// compare mask blended into the bits of the value and the index.
#[inline(always)]
fn select<const N: usize, const TRACK: bool>(
    (best, at): (&mut [f32; N], &mut [u32; N]),
    v: [f32; N],
    vi: [u32; N],
) {
    let won: [u32; N] =
        std::array::from_fn(|l| u32::from((v[l] > best[l]) | v[l].is_nan()).wrapping_neg());
    *best = std::array::from_fn(|l| {
        f32::from_bits(v[l].to_bits() & won[l] | best[l].to_bits() & !won[l])
    });
    if TRACK {
        *at = std::array::from_fn(|l| vi[l] & won[l] | at[l] & !won[l]);
    }
}

/// Max pooling over `k`×`k` windows with stride `s`, values only.
///
/// The evaluation pass: the fold of the module docs without the index
/// bookkeeping. Values are bit-identical to
/// [`max_pool2d_forward_train_with`]'s. Draws the output and the row-fold
/// buffer from `scratch`.
///
/// # Panics
///
/// Panics if the input is not NCHW or the window does not fit.
pub fn max_pool2d_forward_with(input: &Tensor, k: usize, s: usize, scratch: &Scratch) -> Tensor {
    let g = PoolGeom::new(input, k, s);
    let mut out = scratch.tensor_uninit(&g.out_dims());
    let planes = g.task_planes();
    parallel_chunks_mut(out.data_mut(), planes * g.plane_out(), k * k, |i, y| {
        g.pool::<false>((input.data(), i * planes), y, &mut [], scratch);
    });
    out
}

/// Max pooling over `k`×`k` windows with stride `s`, recording each
/// window's winner as an index into the input for
/// [`max_pool2d_backward_with`].
///
/// The training pass: the same fold as [`max_pool2d_forward_with`],
/// carrying each winner's index through its selects. Draws the output,
/// index and row-fold buffers from `scratch`.
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
    let planes = g.task_planes();
    let task = planes * g.plane_out();
    parallel_zip_chunks_mut(
        out.data_mut(),
        task,
        &mut argmax,
        task,
        k * k,
        |i, y, arg| g.pool::<true>((input.data(), i * planes), y, arg, scratch),
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
        // Each window's winner lies in the window's own plane.
        let first = p * plane_in;
        for (g, &a) in gy_plane.iter().zip(arg_plane) {
            gx[a as usize - first] += g;
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
    /// exceeds. Returns the values and their indices into the input.
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
                    idxs.push((p * h * w + win) as u32);
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
        // Output rows of 4, 2 and 1, so whole rows share a lane vector.
        let tiles = [4, 2, 1].map(|ow| big(&[10, 3, 2 * ow, 2 * ow]));
        let big_tiles = big(&[2048, 16, 8, 8]);
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
            // Output rows of 4, 2 and 1 sharing the lanes, with specials.
            (tiles[0].clone(), 2, 2, vec![]),
            (tiles[1].clone(), 2, 2, vec![]),
            (tiles[2].clone(), 2, 2, vec![]),
            (big_k3.clone(), 3, 2, vec![]),
            (big_k3, 3, 1, vec![]),
            (big_k2, 2, 2, vec![]),
            (big_tiles, 2, 2, vec![]),
        ];
        for (row, (x, k, s, expect)) in rows.iter().enumerate() {
            let (want, want_idx) = naive_max_pool(x, *k, *s);
            if row >= rows.len() - 4 {
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
                    assert_eq!(cache.argmax(), want_idx, "{at}: train indices");
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
