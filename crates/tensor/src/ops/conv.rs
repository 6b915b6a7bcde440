//! 2-D convolution computed directly, eight samples at a time in the eight
//! SIMD lanes, with strides, zero padding and groups.
//!
//! `groups == in_channels` yields the depthwise convolutions MobileNet is
//! built from (Table III of the paper); `groups == 1` is an ordinary dense
//! convolution.
//!
//! # Lane layout
//!
//! The batch is cut into blocks of [`LANES`] = 8 consecutive samples (the
//! last one ragged, its unused lanes zero). A block's input is copied once
//! into zero-padded `[C][H+2p][W+2p][8]` planes and its output gradient
//! into `[O][OH·OW][8]`: lane `l` belongs to sample `s0 + l`. Each pass is
//! then a plain loop over tiles of eight *items*, each one `[f32; 8]`
//! accumulator: (output channel, pixel) items sum over the taps for the
//! forward pass; (tap, pixel) items, tap-major, sum over the group's
//! output channels and land on zeroed padded planes for the input
//! gradient; (output channel, tap) items sum over the pixels, per block,
//! for the weight gradient. Items run over all groups in one flat order,
//! so tiles stay full on small planes and depthwise convolutions. No tap
//! panel is built and nothing is folded back. The bodies are written once
//! over `[f32; 8]` and compiled for AVX2 and for the baseline target
//! ([`crate::simd::run_lanes`]); only the 8×8 transposes in and out of
//! the lane layout are intrinsics.
//!
//! Two geometries take a shorter road through the same bodies. A 1×1
//! unpadded forward pass whose output planes hold whole octets of pixels
//! puts eight pixels of one sample in the lanes: NCHW data is then the
//! lane layout, so nothing is transposed. A weight gradient over
//! one-pixel planes (one group, taps in whole octets) adds each sample's
//! single product straight to the accumulator, eight taps per vector,
//! with no transpose (the bits match; see `OnePixelWeightGrad`).
//!
//! # Fold order
//!
//! Every output element is summed in one fixed order, whatever the SIMD
//! level or thread count:
//!
//! * forward: the taps in ascending `(c, ki, kj)` order from `+0.0`,
//!   padding taps included as `0·w` products, then the bias;
//! * input gradient: each tap's value, summed over the group's output
//!   channels in ascending order from `+0.0`, added onto a zeroed input
//!   plane in ascending tap order;
//! * weight and bias gradients: each sample's partial sum over its output
//!   pixels in ascending order from `+0.0`, added to the accumulator in
//!   sample order.
//!
//! Lanes cannot change a bit: lane `l` only meets lane `l` of another
//! vector, so a vector operation is eight independent scalar operations in
//! that order. The weight gradient's fold over samples transposes a tile
//! of partial sums (a data move) and adds sample `l`'s before sample
//! `l + 1`'s, eight vector adds. A ragged block's unused lanes are never
//! stored or folded. Kernel threads split the forward pass and the input
//! gradient over lane blocks and the weight gradient over ranges of its
//! items, never over the sample fold: the same bits at every thread
//! count. Temporaries come from a [`Scratch`] arena.
#![allow(
    unsafe_code,
    reason = "the lane kernels' inner loops load without bounds checks; each kernel asserts its largest index once per call"
)]

use crate::parallel::{num_threads, parallel_chunks_mut};
use crate::scratch::Scratch;
use crate::simd::{lanes_to_rows, rows_to_lanes, run_lanes, transpose8, LaneKernel, Lanes, LANES};
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

/// The geometry of one convolution call, with the derived sizes every
/// kernel below needs. Offsets into lane planes count [`Lanes`] vectors.
#[derive(Clone, Copy)]
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
    groups: usize,
    stride: usize,
    pad: usize,
    /// Taps per output element: `cg · kh · kw`.
    kdim: usize,
    /// Output pixels per plane: `oh · ow`.
    ohow: usize,
    sample_in: usize,
    sample_out: usize,
    /// Width of a zero-padded input row: `w + 2·pad`.
    pw: usize,
    /// Extent of a zero-padded input plane: `(h + 2·pad) · (w + 2·pad)`.
    pplane: usize,
}

impl ConvDims {
    /// The taps' offsets into one group's padded planes, in ascending
    /// `(c, ki, kj)` order.
    fn taps(&self) -> Window<'_> {
        Window::new(self, (self.kh, self.kw), self.kdim, 0)
    }

    /// Where each input element sits in the padded planes, in NCHW order
    /// over one sample.
    fn interior(&self) -> Window<'_> {
        Window::new(
            self,
            (self.h, self.w),
            self.sample_in,
            self.pad * (self.pw + 1),
        )
    }

    /// One more than the largest padded-plane index a window reads: the
    /// last group's planes, at the last pixel's corner, plus the last tap.
    fn x_span(&self) -> usize {
        let last_pixel = ((self.oh - 1) * self.pw + self.ow - 1) * self.stride;
        let last_tap = (self.cg - 1) * self.pplane + (self.kh - 1) * self.pw + self.kw - 1;
        (self.groups - 1) * self.cg * self.pplane + last_pixel + last_tap + 1
    }

    /// Whether the forward pass puts eight pixels of one sample in the
    /// lanes instead of eight samples: a 1×1 unpadded convolution whose
    /// output planes hold whole octets of pixels, where NCHW data (at
    /// stride 1) is already the lane layout and needs no transposes.
    fn pixel_lanes(&self) -> bool {
        self.kdim == self.cg && self.pad == 0 && self.ohow.is_multiple_of(LANES)
    }

    /// Copies the pixels a 1×1 unpadded convolution reads from one
    /// sample's planes `x` into `buf`, plane after plane, and returns them.
    fn subsample<'b>(&self, x: &[f32], buf: &'b mut [f32]) -> &'b [f32] {
        let buf = &mut buf[..self.c * self.ohow];
        for (plane, src) in buf
            .chunks_exact_mut(self.ohow)
            .zip(x.chunks_exact(self.h * self.w))
        {
            for (row, i) in plane
                .chunks_exact_mut(self.ow)
                .zip((0..).step_by(self.stride))
            {
                for (v, j) in row.iter_mut().zip((0..).step_by(self.stride)) {
                    *v = src[i * self.w + j];
                }
            }
        }
        buf
    }

    /// The geometry those pixel lanes see: each plane is `ohow / 8`
    /// vectors of eight pixels.
    fn octets(&self) -> ConvDims {
        let planes = self.ohow / LANES;
        ConvDims {
            h: planes,
            w: 1,
            oh: planes,
            ow: 1,
            ohow: planes,
            stride: 1,
            sample_in: self.c * planes,
            sample_out: self.o * planes,
            pw: 1,
            pplane: planes,
            ..*self
        }
    }

    /// Vectors in one block's padded input planes.
    fn block_in(&self) -> usize {
        self.c * self.pplane
    }

    /// Vectors in one block's output (or output gradient).
    fn block_out(&self) -> usize {
        self.o * self.ohow
    }
}

fn check_dims(input: &Tensor, weight: &Tensor, spec: Conv2dSpec) -> ConvDims {
    let &[n, c, h, w] = input.shape().dims() else {
        panic!("conv input must be NCHW");
    };
    let &[o, cg, kh, kw] = weight.shape().dims() else {
        panic!("conv weight must be [O, C/g, KH, KW]");
    };
    let groups = spec.groups;
    assert!(groups > 0, "groups must be positive");
    let divides = c.is_multiple_of(groups) && o.is_multiple_of(groups);
    assert!(
        divides,
        "channels {c} -> {o} not divisible by groups {groups}"
    );
    assert!(
        cg == c / groups,
        "weight channel dim {cg} != C/groups {}",
        c / groups
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
        groups: spec.groups,
        stride: spec.stride,
        pad: spec.pad,
        kdim: cg * kh * kw,
        ohow: oh * ow,
        sample_in: c * h * w,
        sample_out: o * oh * ow,
        pw: w + 2 * spec.pad,
        pplane: (h + 2 * spec.pad) * (w + 2 * spec.pad),
    }
}

/// The indices of a `rows × cols` window in consecutive padded planes,
/// row by row and plane by plane, from index `at`: a kernel's taps, or
/// the interior of the input planes.
struct Window<'d> {
    d: &'d ConvDims,
    shape: (usize, usize),
    left: usize,
    i: usize,
    j: usize,
    at: usize,
}

impl<'d> Window<'d> {
    fn new(d: &'d ConvDims, shape: (usize, usize), left: usize, at: usize) -> Self {
        let (i, j) = (0, 0);
        Window {
            d,
            shape,
            left,
            i,
            j,
            at,
        }
    }
}

impl Iterator for Window<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        self.left = self.left.checked_sub(1)?;
        let (d, (rows, cols), at) = (self.d, self.shape, self.at);
        (self.j, self.at) = (self.j + 1, self.at + 1);
        if self.j == cols {
            // Past the window's right edge to its next row; past its
            // bottom edge to the next plane.
            (self.i, self.j, self.at) = (self.i + 1, 0, self.at + d.pw - cols);
            if self.i == rows {
                (self.i, self.at) = (0, self.at + d.pplane - rows * d.pw);
            }
        }
        Some(at)
    }
}

/// Walks the output pixels in row-major order, plane after plane;
/// `corner` is the current pixel's window corner in a padded plane.
#[derive(Clone, Copy, Default)]
struct PixelWalk {
    oi: usize,
    oj: usize,
    corner: usize,
}

impl PixelWalk {
    /// Steps to the next pixel; returns whether that completed a plane.
    #[inline(always)]
    fn advance(&mut self, d: &ConvDims) -> bool {
        (self.oj, self.corner) = (self.oj + 1, self.corner + d.stride);
        if self.oj < d.ow {
            return false;
        }
        (self.oi, self.oj) = (self.oi + 1, 0);
        self.corner = self.oi * d.stride * d.pw;
        if self.oi < d.oh {
            return false;
        }
        *self = Self::default();
        true
    }
}

/// Transposes `samples` rows of `m` floats, row `l` starting at
/// `src[l·stride]`, into `m` lane vectors: the `k`-th goes to `dst` at the
/// `k`-th index of `at`, with element `k` of row `l` in lane `l` and
/// zeros in the lanes past `samples`.
#[inline(always)]
fn to_lanes(
    src: &[f32],
    (stride, samples, m): (usize, usize, usize),
    mut at: impl Iterator<Item = usize>,
    dst: &mut [Lanes],
) {
    for k0 in (0..m).step_by(LANES) {
        let width = LANES.min(m - k0);
        let mut idx = [0; LANES];
        idx.iter_mut()
            .zip(at.by_ref().take(width))
            .for_each(|(i, a)| *i = a);
        if width == LANES && samples == LANES {
            rows_to_lanes(&src[k0..], stride, idx, dst);
            continue;
        }
        for (k, &i) in idx[..width].iter().enumerate() {
            let mut v = [0.0; LANES];
            for (l, v) in v[..samples].iter_mut().enumerate() {
                *v = src[l * stride + k0 + k];
            }
            dst[i] = v;
        }
    }
}

/// The inverse of [`to_lanes`]: lanes `0..samples` of the `m` vectors at
/// the indices `at` of `src` become rows of `m` floats, row `l` starting at
/// `dst[l·stride]`.
#[inline(always)]
fn from_lanes(
    src: &[Lanes],
    mut at: impl Iterator<Item = usize>,
    (stride, samples, m): (usize, usize, usize),
    dst: &mut [f32],
) {
    for k0 in (0..m).step_by(LANES) {
        let width = LANES.min(m - k0);
        let mut idx = [0; LANES];
        idx.iter_mut()
            .zip(at.by_ref().take(width))
            .for_each(|(i, a)| *i = a);
        if width == LANES {
            lanes_to_rows(src, idx, samples, &mut dst[k0..], stride);
            continue;
        }
        for (k, &i) in idx[..width].iter().enumerate() {
            for (l, &v) in src[i][..samples].iter().enumerate() {
                dst[l * stride + k0 + k] = v;
            }
        }
    }
}

/// Copies the `samples` samples from `s0` on into one block's zero-padded
/// lane planes `xb`.
#[inline(always)]
fn pack_input(x: &[f32], d: &ConvDims, (s0, samples): (usize, usize), xb: &mut [Lanes]) {
    if d.pad > 0 {
        xb.fill([0.0; LANES]);
    }
    let (src, dims) = (&x[s0 * d.sample_in..], (d.sample_in, samples, d.sample_in));
    // Unpadded planes are contiguous: a range walks them fastest.
    if d.pad > 0 {
        to_lanes(src, dims, d.interior(), xb);
    } else {
        to_lanes(src, dims, 0..d.sample_in, xb);
    }
}

/// `v[i]` without a bounds check, for the kernels' inner loops.
///
/// # Safety
///
/// `i < v.len()`.
#[inline(always)]
unsafe fn unchecked<T: Copy>(v: &[T], i: usize) -> T {
    debug_assert!(i < v.len());
    // SAFETY: the caller guarantees `i < v.len()`.
    unsafe { *v.get_unchecked(i) }
}

/// Copies every lane block of the input `x` into `xl`, as the forward pass
/// does, and of the output gradient `gy` into `gyl`.
struct PackBlocks<'a>(
    &'a ConvDims,
    (&'a [f32], &'a [f32]),
    &'a mut [Lanes],
    &'a mut [Lanes],
);

impl LaneKernel for PackBlocks<'_> {
    #[inline(always)]
    fn lane_loop(self) {
        let Self(d, (x, gy), xl, gyl) = self;
        let blocks = xl
            .chunks_exact_mut(d.block_in())
            .zip(gyl.chunks_exact_mut(d.block_out()));
        for (b, (xb, gyb)) in blocks.enumerate() {
            let (s0, samples) = (b * LANES, LANES.min(d.n - b * LANES));
            pack_input(x, d, (s0, samples), xb);
            let dims = (d.sample_out, samples, d.sample_out);
            to_lanes(&gy[s0 * d.sample_out..], dims, 0..d.sample_out, gyb);
        }
    }
}

/// The forward pass of one lane block: packs the samples from `s0` on of
/// the input `x` into the padded planes `xb`, then writes their outputs
/// `y`. Item `i = oc·ohow + pix` is element `i` of every sample's output,
/// so a tile's transposed sums are eight contiguous outputs per sample.
struct Forward<'a>(
    &'a ConvDims,
    (&'a [f32], usize),
    (&'a [f32], Option<&'a [f32]>),
    &'a mut [Lanes],
    &'a mut [f32],
);

impl LaneKernel for Forward<'_> {
    #[inline(always)]
    fn lane_loop(self) {
        let Self(d, (x, s0), operands, xb, y) = self;
        if d.pixel_lanes() {
            // NCHW data already holds eight pixels of one sample per lane
            // vector, in the layout of `d.octets()`; at a stride above 1,
            // once the pixels the windows read are gathered into `xb`.
            let (xs, od) = (x[s0 * d.sample_in..].chunks_exact(d.sample_in), d.octets());
            for (xs, ys) in xs.zip(y.chunks_exact_mut(d.sample_out)) {
                let xs = if d.stride == 1 {
                    xs
                } else {
                    d.subsample(xs, xb.as_flattened_mut())
                };
                let ys = ys.as_chunks_mut().0;
                forward_tiles(&od, operands, xs.as_chunks().0, |i0, width, acc| {
                    ys[i0..i0 + width].copy_from_slice(&acc[..width]);
                });
            }
            return;
        }
        let samples = y.len() / d.sample_out;
        pack_input(x, d, (s0, samples), xb);
        forward_tiles(d, operands, xb, |i0, width, acc| {
            from_lanes(acc, 0..width, (d.sample_out, samples, width), &mut y[i0..]);
        });
    }
}

/// The forward pass over lane planes `xb` laid out as `d` describes:
/// hands each tile's first item, width and sums to `store`.
#[inline(always)]
fn forward_tiles(
    d: &ConvDims,
    (wt, bias): (&[f32], Option<&[f32]>),
    xb: &[Lanes],
    mut store: impl FnMut(usize, usize, &[Lanes; LANES]),
) {
    assert!(d.o * d.kdim <= wt.len() && d.x_span() <= xb.len());
    // The next item's output channel, that channel's index in its
    // group, its group's planes, and its pixel.
    let (mut oc, mut r, mut planes, mut px) = (0, 0, 0, PixelWalk::default());
    for i0 in (0..d.sample_out).step_by(LANES) {
        let width = LANES.min(d.sample_out - i0);
        // Unused slots read item 0's operands; their sums are dropped.
        let (mut w_at, mut x_at, mut oc_at) = ([0; LANES], [0; LANES], [0; LANES]);
        for j in 0..width {
            (w_at[j], x_at[j], oc_at[j]) = (oc * d.kdim, planes + px.corner, oc);
            if px.advance(d) {
                (oc, r) = (oc + 1, r + 1);
                if r == d.og {
                    (r, planes) = (0, planes + d.cg * d.pplane);
                }
            }
        }
        let mut acc = [[0.0; LANES]; LANES];
        if oc_at[0] == oc_at[width - 1] {
            // One output channel: one weight per tap for the tile.
            for (p, t) in d.taps().enumerate() {
                // SAFETY: `w_at[0] + p < o·kdim`, asserted above.
                let w = unsafe { unchecked(wt, w_at[0] + p) };
                for (acc, &x) in acc.iter_mut().zip(&x_at) {
                    // SAFETY: `x + t < x_span`, asserted above.
                    let x = unsafe { unchecked(xb, x + t) };
                    for (a, x) in acc.iter_mut().zip(x) {
                        *a += w * x;
                    }
                }
            }
        } else {
            for (p, t) in d.taps().enumerate() {
                for ((acc, &w), &x) in acc.iter_mut().zip(&w_at).zip(&x_at) {
                    // SAFETY: `w + p < o·kdim` and `x + t < x_span`,
                    // asserted above.
                    let (w, x) = unsafe { (unchecked(wt, w + p), unchecked(xb, x + t)) };
                    for (a, x) in acc.iter_mut().zip(x) {
                        *a += w * x;
                    }
                }
            }
        }
        if let Some(bias) = bias {
            for (acc, &oc) in acc.iter_mut().zip(&oc_at) {
                acc.iter_mut().for_each(|v| *v += bias[oc]);
            }
        }
        store(i0, width, &acc);
    }
}

/// The input gradient `gx` of one lane block, from the weights `wt` and
/// the block's output gradient `gyb`, summed onto the zeroed padded planes
/// `gpad`.
struct InputGrad<'a>(
    &'a ConvDims,
    &'a [f32],
    &'a [Lanes],
    &'a mut [Lanes],
    &'a mut [f32],
);

impl LaneKernel for InputGrad<'_> {
    #[inline(always)]
    fn lane_loop(self) {
        let Self(d, wt, gyb, gpad, gx) = self;
        assert!(d.o * d.kdim <= wt.len() && d.block_out() <= gyb.len());
        gpad.fill([0.0; LANES]);
        // The next item's group, tap index and offset, and pixel.
        let (mut g, mut t, mut pix, mut px) = (0, 0, 0, PixelWalk::default());
        let mut taps = d.taps();
        let mut tap = taps.next().unwrap_or(0);
        let items = d.groups * d.kdim * d.ohow;
        for i0 in (0..items).step_by(LANES) {
            let width = LANES.min(items - i0);
            // Each item's first weight, first output gradient and position
            // in the padded planes.
            let mut items_at = [(0, 0, 0); LANES];
            for item in &mut items_at[..width] {
                *item = (
                    g * d.og * d.kdim + t,
                    g * d.og * d.ohow + pix,
                    g * d.cg * d.pplane + tap + px.corner,
                );
                pix += 1;
                if px.advance(d) {
                    (t, pix) = (t + 1, 0);
                    tap = taps.next().unwrap_or_else(|| {
                        (g, t, taps) = (g + 1, 0, d.taps());
                        taps.next().unwrap_or(0)
                    });
                }
            }
            let mut acc = [[0.0; LANES]; LANES];
            for r in 0..d.og {
                for (acc, &(w, gy, _)) in acc.iter_mut().zip(&items_at) {
                    // SAFETY: `w + r·kdim < o·kdim` and `gy + r·ohow <
                    // o·ohow`, asserted above.
                    let (w, gy) = unsafe {
                        (
                            unchecked(wt, w + r * d.kdim),
                            unchecked(gyb, gy + r * d.ohow),
                        )
                    };
                    for (a, gy) in acc.iter_mut().zip(gy) {
                        *a += w * gy;
                    }
                }
            }
            for (acc, &(_, _, dst)) in acc.iter().zip(&items_at[..width]) {
                gpad[dst].iter_mut().zip(acc).for_each(|(g, v)| *g += v);
            }
        }
        let dims = (d.sample_in, gx.len() / d.sample_in, d.sample_in);
        if d.pad > 0 {
            from_lanes(gpad, d.interior(), dims, gx);
        } else {
            from_lanes(gpad, 0..d.sample_in, dims, gx);
        }
    }
}

/// The weight gradient `gw` of the items from `first` on, item
/// `oc·kdim + tap`, over every block of the lane-packed input `xl` and
/// output gradient `gyl`.
struct WeightGrad<'a>(
    &'a ConvDims,
    (&'a [Lanes], &'a [Lanes]),
    usize,
    &'a mut [f32],
);

impl LaneKernel for WeightGrad<'_> {
    #[inline(always)]
    fn lane_loop(self) {
        let Self(d, (xl, gyl), first, gw) = self;
        assert!(d.x_span() <= d.block_in());
        // The next item's output channel, its group's planes, and its tap.
        let (mut oc, mut taps) = (first / d.kdim, d.taps());
        let mut planes = oc / d.og * d.cg * d.pplane;
        let mut tap = taps.nth(first % d.kdim).unwrap_or(0);
        for out in gw.chunks_mut(LANES) {
            let (mut gy_at, mut x_at) = ([0; LANES], [0; LANES]);
            for (gy, x) in gy_at.iter_mut().zip(&mut x_at).take(out.len()) {
                (*gy, *x) = (oc * d.ohow, planes + tap);
                tap = taps.next().unwrap_or_else(|| {
                    oc += 1;
                    planes = oc / d.og * d.cg * d.pplane;
                    taps = d.taps();
                    taps.next().unwrap_or(0)
                });
            }
            let mut acc = [0.0; LANES];
            let blocks = xl
                .chunks_exact(d.block_in())
                .zip(gyl.chunks_exact(d.block_out()));
            for (b, (xb, gyb)) in blocks.enumerate() {
                let (mut part, mut px) = ([[0.0; LANES]; LANES], PixelWalk::default());
                for pix in 0..d.ohow {
                    for ((part, &gy), &x) in part.iter_mut().zip(&gy_at).zip(&x_at) {
                        // SAFETY: `gy + pix < o·ohow` and `x + corner <
                        // x_span`, asserted above.
                        let (gy, x) =
                            unsafe { (unchecked(gyb, gy + pix), unchecked(xb, x + px.corner)) };
                        for ((p, gy), x) in part.iter_mut().zip(gy).zip(x) {
                            *p += gy * x;
                        }
                    }
                    px.advance(d);
                }
                // part[l] becomes sample l's partials of the eight items.
                transpose8(&mut part);
                for sample in &part[..LANES.min(d.n - b * LANES)] {
                    acc.iter_mut().zip(sample).for_each(|(a, v)| *a += v);
                }
            }
            if out.len() == LANES {
                out.copy_from_slice(&acc);
            } else {
                out.iter_mut().zip(acc).for_each(|(o, a)| *o = a);
            }
        }
    }
}

/// Each sample's tap row when every output plane is one pixel (one
/// group): `rows[s·kdim + t]` is tap `t` of sample `s`, from the
/// lane-packed input `xl`.
struct TapRows<'a>(&'a ConvDims, &'a [Lanes], &'a mut [f32]);

impl LaneKernel for TapRows<'_> {
    #[inline(always)]
    fn lane_loop(self) {
        let Self(d, xl, rows) = self;
        for (b, xb) in xl.chunks_exact(d.block_in()).enumerate() {
            let (s0, samples) = (b * LANES, LANES.min(d.n - b * LANES));
            let mut taps = d.taps();
            for t0 in (0..d.kdim).step_by(LANES) {
                let mut at = [0; LANES];
                at.iter_mut().zip(taps.by_ref()).for_each(|(a, t)| *a = t);
                lanes_to_rows(xb, at, samples, &mut rows[s0 * d.kdim + t0..], d.kdim);
            }
        }
    }
}

/// The weight gradient `gw` of the items from `first` on when every
/// output plane is one pixel. Each sample's partial sum is then one
/// product `p`, and `+0.0 + p` differs from `p` only for `p = -0.0`,
/// which leaves an accumulator that starts at `+0.0` (and so is never
/// `-0.0`) unchanged either way: adding the products straight to the
/// accumulator in sample order gives the fold's bits without a transpose.
/// Lanes run over eight taps of one output channel, from the tap rows
/// `rows` and the output gradient `gy`, eight tiles at a time.
struct OnePixelWeightGrad<'a>(&'a ConvDims, (&'a [Lanes], &'a [f32]), usize, &'a mut [f32]);

impl LaneKernel for OnePixelWeightGrad<'_> {
    #[inline(always)]
    fn lane_loop(self) {
        let Self(d, (rows, gy), first, gw) = self;
        let tiles = d.kdim / LANES;
        assert!(d.n * tiles <= rows.len() && d.n * d.o <= gy.len());
        for (i, out) in gw.chunks_mut(LANES * LANES).enumerate() {
            // Each tile's output channel and first tap tile; unused slots
            // read item 0's operands and are dropped.
            let (mut oc, mut t) = ([0; LANES], [0; LANES]);
            for (j, (oc, t)) in oc
                .iter_mut()
                .zip(&mut t)
                .take(out.len() / LANES)
                .enumerate()
            {
                let tile = (first + (i * LANES + j) * LANES) / LANES;
                (*oc, *t) = (tile / tiles, tile % tiles);
            }
            let mut acc = [[0.0; LANES]; LANES];
            for s in 0..d.n {
                for ((acc, &oc), &t) in acc.iter_mut().zip(&oc).zip(&t) {
                    // SAFETY: `oc < o` and `t < kdim / 8`, asserted above.
                    let (g, x) =
                        unsafe { (unchecked(gy, s * d.o + oc), unchecked(rows, s * tiles + t)) };
                    for (a, x) in acc.iter_mut().zip(x) {
                        *a += g * x;
                    }
                }
            }
            for (out, acc) in out.chunks_exact_mut(LANES).zip(&acc) {
                out.copy_from_slice(acc);
            }
        }
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
    let operands = (weight.data(), bias.map(Tensor::data));
    let mut out = scratch.tensor_uninit(&[d.n, d.o, d.oh, d.ow]);
    parallel_chunks_mut(out.data_mut(), LANES * d.sample_out, d.kdim, |blk, y| {
        let mut xb = scratch.take(d.block_in() * LANES);
        let xb = xb.as_chunks_mut().0;
        run_lanes(Forward(&d, (input.data(), blk * LANES), operands, xb, y));
    });
    out
}

/// Convolution backward pass.
///
/// Given the forward inputs and the gradient w.r.t. the output, computes
/// the gradients w.r.t. input, weights and bias, in the fold order of the
/// module docs: the same bits at every thread count.
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
    let (x, wt, gy) = (input.data(), weight.data(), grad_output.data());
    // Both gradients read every block's lanes: pack the batch once.
    let blocks = d.n.div_ceil(LANES);
    let mut xl = scratch.take(blocks * d.block_in() * LANES);
    let mut gyl = scratch.take(blocks * d.block_out() * LANES);
    let (xl, gyl) = (xl.as_chunks_mut().0, gyl.as_chunks_mut().0);
    run_lanes(PackBlocks(&d, (x, gy), &mut *xl, &mut *gyl));
    let (xl, gyl) = (&*xl, &*gyl);

    // The input gradient, one lane block per task.
    let mut grad_input = scratch.tensor_uninit(input.shape().dims());
    parallel_chunks_mut(
        grad_input.data_mut(),
        LANES * d.sample_in,
        d.kdim,
        |b, gx| {
            let gyb = &gyl[b * d.block_out()..][..d.block_out()];
            let mut gpad = scratch.take(d.block_in() * LANES);
            run_lanes(InputGrad(&d, wt, gyb, gpad.as_chunks_mut().0, gx));
        },
    );

    // The weight gradient, split over ranges of whole tiles of its items
    // so every kernel thread can own one. The split decides who computes
    // which items, never the order of any sum.
    let tiles = (d.o * d.kdim).div_ceil(LANES);
    let range = tiles.div_ceil(num_threads().clamp(1, tiles.max(1))).max(1) * LANES;
    let one_pixel = d.ohow == 1 && d.groups == 1 && d.kdim.is_multiple_of(LANES);
    let mut rows = scratch.take(if one_pixel { d.n * d.kdim } else { 0 });
    if one_pixel {
        run_lanes(TapRows(&d, xl, &mut rows));
    }
    let rows = rows.as_chunks().0;
    let mut grad_weight = scratch.tensor_uninit(weight.shape().dims());
    parallel_chunks_mut(grad_weight.data_mut(), range, d.n * d.ohow, |i, gw| {
        if one_pixel {
            run_lanes(OnePixelWeightGrad(&d, (rows, gy), i * range, gw));
        } else {
            run_lanes(WeightGrad(&d, (xl, gyl), i * range, gw));
        }
    });

    // Plane `i` is channel `i mod o` of sample `i / o`: partials in sample
    // order.
    let mut grad_bias = scratch.tensor_zeroed(&[d.o]);
    for (i, plane) in gy.chunks_exact(d.ohow).enumerate() {
        grad_bias.data_mut()[i % d.o] += plane.iter().sum::<f32>();
    }
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
    use crate::parallel::with_inner_threads;
    use crate::rng::Rng;

    /// `x[s, c, i - pad, j - pad]` for padded-input coordinates `(i, j)`,
    /// `0.0` in the padding.
    fn tap(x: &Tensor, spec: Conv2dSpec, (s, c): (usize, usize), (i, j): (usize, usize)) -> f32 {
        let (h, w) = (x.shape().dim(2), x.shape().dim(3));
        let ii = i.checked_sub(spec.pad).filter(|&ii| ii < h);
        let jj = j.checked_sub(spec.pad).filter(|&jj| jj < w);
        match (ii, jj) {
            (Some(ii), Some(jj)) => x.at(&[s, c, ii, jj]),
            _ => 0.0,
        }
    }

    /// Everything the order-faithful reference computes.
    struct Reference {
        y: Tensor,
        gx: Tensor,
        gw: Tensor,
        gb: Tensor,
    }

    /// Order-faithful reference: each sum runs in the order the module
    /// docs fix, one scalar at a time.
    ///
    /// * `y`: taps in ascending `(c, ki, kj)` order from `+0.0`, padding
    ///   taps included as `0.0` products, then the bias;
    /// * `gx`: per tap, `Σ_oc w·gy` from `+0.0`; those added onto `+0.0`
    ///   in ascending tap order;
    /// * `gw`, `gb`: each sample's partial sum from `+0.0`, added to the
    ///   accumulator in sample order.
    fn reference(
        x: &Tensor,
        wt: &Tensor,
        bias: &Tensor,
        gy: &Tensor,
        spec: Conv2dSpec,
    ) -> Reference {
        let (n, c, h, w) = (
            x.shape().dim(0),
            x.shape().dim(1),
            x.shape().dim(2),
            x.shape().dim(3),
        );
        let (o, cg, kh, kw) = (
            wt.shape().dim(0),
            wt.shape().dim(1),
            wt.shape().dim(2),
            wt.shape().dim(3),
        );
        let oh = conv_out_dim(h, kh, spec.stride, spec.pad);
        let ow = conv_out_dim(w, kw, spec.stride, spec.pad);
        let og = o / spec.groups;
        // Padded-input coordinates of output (oi, oj) at tap (ki, kj).
        let at = |oi: usize, ki: usize| oi * spec.stride + ki;
        let mut y = Tensor::zeros(&[n, o, oh, ow]);
        for s in 0..n {
            for oc in 0..o {
                let g = oc / og;
                for oi in 0..oh {
                    for oj in 0..ow {
                        let mut acc = 0.0f32;
                        for ic in 0..cg {
                            for ki in 0..kh {
                                for kj in 0..kw {
                                    let v =
                                        tap(x, spec, (s, g * cg + ic), (at(oi, ki), at(oj, kj)));
                                    acc += wt.at(&[oc, ic, ki, kj]) * v;
                                }
                            }
                        }
                        y.set(&[s, oc, oi, oj], acc + bias.data()[oc]);
                    }
                }
            }
        }
        // The input gradient's columns: Σ_oc w[oc, tap] · gy[s, oc, pix].
        let col =
            |s: usize, g: usize, (ic, ki, kj): (usize, usize, usize), oi: usize, oj: usize| {
                let mut acc = 0.0f32;
                for r in 0..og {
                    let oc = g * og + r;
                    acc += wt.at(&[oc, ic, ki, kj]) * gy.at(&[s, oc, oi, oj]);
                }
                acc
            };
        let mut gx = Tensor::zeros(&[n, c, h, w]);
        for s in 0..n {
            for ch in 0..c {
                let (g, ic) = (ch / cg, ch % cg);
                for ii in 0..h {
                    for jj in 0..w {
                        let mut acc = 0.0f32;
                        for ki in 0..kh {
                            for kj in 0..kw {
                                let (pi, pj) = (ii + spec.pad, jj + spec.pad);
                                let hit = |p: usize, k: usize, out: usize| {
                                    (p >= k && (p - k).is_multiple_of(spec.stride))
                                        .then(|| (p - k) / spec.stride)
                                        .filter(|&o| o < out)
                                };
                                if let (Some(oi), Some(oj)) = (hit(pi, ki, oh), hit(pj, kj, ow)) {
                                    acc += col(s, g, (ic, ki, kj), oi, oj);
                                }
                            }
                        }
                        gx.set(&[s, ch, ii, jj], acc);
                    }
                }
            }
        }
        let mut gw = Tensor::zeros(&[o, cg, kh, kw]);
        let mut gb = Tensor::zeros(&[o]);
        for oc in 0..o {
            let g = oc / og;
            for ic in 0..cg {
                for ki in 0..kh {
                    for kj in 0..kw {
                        let mut acc = 0.0f32;
                        for s in 0..n {
                            let mut part = 0.0f32;
                            for oi in 0..oh {
                                for oj in 0..ow {
                                    let v =
                                        tap(x, spec, (s, g * cg + ic), (at(oi, ki), at(oj, kj)));
                                    part += gy.at(&[s, oc, oi, oj]) * v;
                                }
                            }
                            acc += part;
                        }
                        gw.set(&[oc, ic, ki, kj], acc);
                    }
                }
            }
            let mut acc = 0.0f32;
            for s in 0..n {
                let at = (s * o + oc) * oh * ow;
                acc += gy.data()[at..at + oh * ow].iter().sum::<f32>();
            }
            gb.data_mut()[oc] = acc;
        }
        Reference { y, gx, gw, gb }
    }

    /// Bit patterns, with every NaN mapped to one canonical NaN (payloads
    /// are not part of the fold-order contract).
    fn bits(t: &Tensor) -> Vec<u32> {
        t.data()
            .iter()
            .map(|v| {
                if v.is_nan() {
                    f32::NAN.to_bits()
                } else {
                    v.to_bits()
                }
            })
            .collect()
    }

    /// `(n, c, side, o, k, stride, pad, groups)`.
    type Geometry = (usize, usize, usize, usize, usize, usize, usize, usize);

    /// What the operands of a reference check hold.
    #[derive(Clone, Copy, PartialEq)]
    enum Data {
        /// Normal samples.
        Normal,
        /// Normal samples, and NaN at output channel 0's tap `(0, 0, 0)`.
        NanTap,
        /// Only `+0.0`, `-0.0`, `1.0` and `-1.0`, so many products are
        /// signed zeros.
        SignedZeros,
    }

    fn operand(dims: &[usize], std: f32, data: Data, rng: &mut Rng) -> Tensor {
        let mut t = Tensor::randn(dims, std, rng);
        if data == Data::SignedZeros {
            for v in t.data_mut() {
                *v = if v.abs() < 0.5 * std {
                    0.0f32.copysign(*v)
                } else {
                    v.signum()
                };
            }
        }
        t
    }

    /// Runs the kernels at 1, 2 and 3 kernel threads and checks every
    /// output against the reference bit for bit.
    fn check_against_reference(geometry: Geometry, seed: u64, data: Data) {
        let (n, c, side, o, k, stride, pad, groups) = geometry;
        let spec = Conv2dSpec {
            stride,
            pad,
            groups,
        };
        let mut rng = Rng::seed_from(seed);
        let x = operand(&[n, c, side, side], 1.0, data, &mut rng);
        let mut wt = operand(&[o, c / groups, k, k], 0.5, data, &mut rng);
        if data == Data::NanTap {
            wt.data_mut()[0] = f32::NAN;
        }
        let bias = operand(&[o], 0.5, data, &mut rng);
        let oh = conv_out_dim(side, k, stride, pad);
        let gy = operand(&[n, o, oh, oh], 1.0, data, &mut rng);
        let want = reference(&x, &wt, &bias, &gy, spec);
        for threads in [1, 2, 3] {
            let label = format!("{geometry:?} seed {seed} at {threads} threads");
            let (y, grads) = with_inner_threads(threads, || {
                let y = conv2d_forward_with(&x, &wt, Some(&bias), spec, Scratch::shared());
                (
                    y,
                    conv2d_backward_with(&x, &wt, &gy, spec, Scratch::shared()),
                )
            });
            assert_eq!(bits(&y), bits(&want.y), "forward, {label}");
            assert_eq!(
                bits(&grads.grad_input),
                bits(&want.gx),
                "grad_input, {label}"
            );
            assert_eq!(
                bits(&grads.grad_weight),
                bits(&want.gw),
                "grad_weight, {label}"
            );
            assert_eq!(bits(&grads.grad_bias), bits(&want.gb), "grad_bias, {label}");
        }
    }

    #[test]
    fn kernels_match_the_order_faithful_reference_bit_for_bit() {
        let sweep: [Geometry; 12] = [
            (5, 4, 1, 6, 3, 1, 1, 1), // 1x1 output through padding (VGG stage 5)
            (3, 2, 3, 4, 3, 1, 0, 1), // 1x1 output, no padding
            (4, 3, 4, 5, 3, 2, 1, 1), // 2x2 output, stride 2, pad 1
            (2, 3, 4, 4, 3, 1, 1, 1), // 4x4 output
            (3, 2, 5, 3, 3, 1, 1, 1), // 5x5: ohow not a multiple of 8
            (3, 2, 7, 3, 3, 2, 0, 1), // stride 2, pad 0
            (4, 4, 5, 4, 3, 1, 1, 4), // depthwise
            (2, 4, 5, 6, 3, 1, 1, 2), // grouped
            (3, 6, 3, 5, 1, 1, 0, 1), // pointwise
            (9, 8, 1, 8, 1, 1, 0, 1), // pointwise on 1x1 planes
            (2, 1, 7, 1, 1, 3, 0, 1), // stride larger than the kernel
            (2, 3, 6, 2, 2, 2, 1, 1), // even kernel, stride 2
        ];
        for (i, &geometry) in sweep.iter().enumerate() {
            check_against_reference(geometry, 3000 + i as u64, Data::Normal);
        }
    }

    #[test]
    fn batches_spanning_several_blocks_match_the_reference() {
        // Four whole 8-sample blocks and a ragged fifth of three samples.
        let geometry = (35, 8, 8, 4, 3, 1, 1, 1);
        assert!(geometry.0 > 4 * LANES && geometry.0 % LANES != 0);
        check_against_reference(geometry, 3100, Data::Normal);
    }

    #[test]
    fn lane_block_edges_match_the_reference() {
        // Batches below, at and just past one block, and over several
        // blocks ending ragged, for each kind of convolution the models
        // use: dense 3x3, one-pixel planes with 144 taps, depthwise at
        // stride 2, pointwise, and a pointwise projection at stride 2.
        let kinds: [Geometry; 5] = [
            (0, 3, 8, 4, 3, 1, 1, 1),
            (0, 16, 1, 16, 3, 1, 1, 1),
            (0, 8, 5, 8, 3, 2, 1, 8),
            (0, 4, 4, 8, 1, 1, 0, 1),
            (0, 4, 8, 8, 1, 2, 0, 1),
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            for (j, n) in [1, 7, 8, 9, 17, 33].into_iter().enumerate() {
                let geometry = (n, kind.1, kind.2, kind.3, kind.4, kind.5, kind.6, kind.7);
                check_against_reference(geometry, 3400 + (10 * i + j) as u64, Data::Normal);
            }
        }
    }

    #[test]
    fn signed_zero_products_fold_like_the_reference() {
        // `-0.0` products are where folding a sum in another order, or
        // skipping the `+0.0` a partial starts from (as the one-pixel
        // weight gradient does), would show.
        let sweep: [Geometry; 5] = [
            (12, 4, 1, 3, 3, 1, 1, 1),
            (11, 8, 1, 4, 3, 1, 1, 1), // one pixel, whole tiles of taps
            (9, 3, 3, 4, 3, 1, 0, 1),
            (10, 4, 1, 4, 1, 1, 0, 2),
            (6, 2, 4, 3, 3, 1, 1, 1),
        ];
        for (i, &geometry) in sweep.iter().enumerate() {
            check_against_reference(geometry, 3300 + i as u64, Data::SignedZeros);
        }
    }

    #[test]
    fn nan_weight_reaches_border_outputs_through_padding_taps() {
        // Tap (0, 0) of output channel 0 reads padding at the top-left
        // border: 0 x NaN = NaN must still poison those outputs.
        for (i, geometry) in [(2, 2, 4, 3, 3, 1, 1, 1), (3, 3, 1, 2, 3, 1, 1, 1)]
            .into_iter()
            .enumerate()
        {
            check_against_reference(geometry, 3200 + i as u64, Data::NanTap);
            let mut rng = Rng::seed_from(3200 + i as u64);
            let (n, c, side, o, k, _, _, _) = geometry;
            let x = Tensor::randn(&[n, c, side, side], 1.0, &mut rng);
            let mut wt = Tensor::randn(&[o, c, k, k], 0.5, &mut rng);
            wt.data_mut()[0] = f32::NAN;
            let y = conv2d_forward_with(&x, &wt, None, Conv2dSpec::same(3), Scratch::shared());
            let plane = side * side;
            for s in 0..n {
                let at = s * o * plane;
                assert!(
                    y.data()[at..at + plane].iter().all(|v| v.is_nan()),
                    "{geometry:?}"
                );
                assert!(y.data()[at + plane..at + o * plane]
                    .iter()
                    .all(|v| v.is_finite()));
            }
        }
    }

    /// Property sweep: random geometries (including 1×1 kernels, stride 2,
    /// depthwise groups) against the reference, bit for bit.
    #[test]
    fn kernels_match_the_reference_across_random_geometries() {
        for seed in 0..16u64 {
            let mut rng = Rng::seed_from(2000 + seed);
            let groups = [1, 1, 2, 4][rng.below(4)];
            let cg = 1 + rng.below(3);
            let og = 1 + rng.below(3);
            let k = [1, 2, 3][rng.below(3)];
            let stride = 1 + rng.below(2);
            let pad = rng.below(k); // pad < k keeps the kernel fitting
            let side = k + rng.below(6);
            let n = 1 + rng.below(3);
            let geometry = (n, cg * groups, side, og * groups, k, stride, pad, groups);
            check_against_reference(geometry, 2100 + seed, Data::Normal);
        }
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
    fn backward_pointwise_matches_finite_differences() {
        // A 1×1 stride-1 unpadded convolution's gradients against finite
        // differences.
        let mut rng = Rng::seed_from(12);
        let x = Tensor::randn(&[2, 3, 4, 4], 1.0, &mut rng);
        let w = Tensor::randn(&[5, 3, 1, 1], 0.5, &mut rng);
        let fast_spec = Conv2dSpec::default(); // 1×1, stride 1, no padding
        let y = conv2d_forward_with(&x, &w, None, fast_spec, Scratch::shared());
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
        let y = conv2d_forward_with(&x, &w, None, Conv2dSpec::default(), Scratch::shared());
        for i in 0..9 {
            assert!((y.data()[i] - 2.0 * x.data()[i]).abs() < 1e-5);
            assert!((y.data()[9 + i] - 3.0 * x.data()[9 + i]).abs() < 1e-5);
        }
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
