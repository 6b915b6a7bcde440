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
//! accumulator:
//!
//! * forward: (output channel, pixel) items sum over the taps;
//! * input gradient: the items are the input elements, summed on the
//!   stack [`GATHER_ITEMS`] at a time. A tile holds eight (item, tap)
//!   pairs for the taps that meet an output pixel, whichever items they
//!   belong to, so border items with few taps still fill it; each pair's
//!   partial sums the group's output channels and is added onto its item;
//! * weight gradient: (output channel, tap) items sum over one block's
//!   pixels.
//!
//! Items run over all groups in one flat order, so tiles stay full on
//! small planes and depthwise convolutions. No tap panel is built and
//! nothing is scattered or folded back. The bodies are written once over
//! `[f32; 8]` and compiled for AVX2 and for the baseline target
//! ([`crate::simd::run_lanes`]); only the 8×8 transposes in and out of
//! the lane layout are intrinsics.
//!
//! Two geometries take a shorter road through the same bodies:
//!
//! * a 1×1 unpadded forward pass whose output planes hold whole octets of
//!   pixels puts eight pixels of one sample in the lanes: NCHW data is
//!   then the lane layout, so nothing is transposed;
//! * a weight gradient over planes of at most [`TAP_LANE_PIXELS`] pixels
//!   (one group) puts eight taps in the lanes instead of eight samples: a
//!   tile is eight output channels by one octet of taps and the samples
//!   are folded one after another, with no transpose (`TapWeightGrad`).
//!
//! # Fold order
//!
//! Every output element is summed in one fixed order, whatever the SIMD
//! level or thread count:
//!
//! * forward: the taps in ascending `(c, ki, kj)` order from `+0.0`,
//!   padding taps included as `0·w` products, then the bias;
//! * input gradient: for each tap that meets an output pixel, in ascending
//!   tap order, its partial, summed over the group's output channels in
//!   ascending order from `+0.0`, is added to a sum that starts at `+0.0`.
//!   A tap that meets no output pixel is skipped, never read as a product
//!   with padding, so a non-finite weight reaches only the elements it
//!   multiplies;
//! * weight and bias gradients: each sample's partial sum over its output
//!   pixels in ascending order from `+0.0`, added to the accumulator in
//!   sample order.
//!
//! Lanes cannot change a bit: lane `l` only meets lane `l` of another
//! vector, so a vector operation is eight independent scalar operations in
//! that order. The sample-lane weight gradient's fold over samples
//! transposes a tile of partial sums (a data move) and adds sample `l`'s
//! before sample `l + 1`'s, eight vector adds. A partial that starts from
//! its first product instead of `+0.0` differs at most in the sign of a
//! zero (`+0.0 + p` differs from `p` only for `p = -0.0`), and a sum that
//! starts at `+0.0` is never `-0.0`, so adding either leaves it the same:
//! the gathered partials and the tap-lane partials start so, and one-pixel
//! products go straight onto the accumulator. A ragged block's unused
//! lanes are never stored or folded. Kernel threads split the forward pass
//! and the input gradient over lane blocks and the weight gradient over
//! whole output channels, never over the sample fold: the same bits at
//! every thread count. Temporaries come from a [`Scratch`] arena.
#![allow(
    unsafe_code,
    reason = "the lane kernels' inner loops load without bounds checks; each kernel asserts its largest index once per call"
)]

use crate::parallel::{num_threads, parallel_chunks_mut};
use crate::scratch::{Scratch, ScratchBuf};
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

/// The largest output plane, in pixels, whose weight gradient runs in tap
/// lanes (see [`ConvDims::tap_lanes`]).
const TAP_LANE_PIXELS: usize = 4;

/// Items the input gradient sums at a time (see [`InputGrad`]). Tiles of
/// (item, tap) pairs fill up across them, so where few items meet an
/// output pixel (one in four at a strided 1×1 convolution) the tiles still
/// run full.
const GATHER_ITEMS: usize = 4 * LANES;

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

    /// Whether the weight gradient puts eight taps in the lanes and folds
    /// the samples one after another: one group, and planes of at most
    /// [`TAP_LANE_PIXELS`] pixels, where the sample lanes' transpose per
    /// tile and block outweighs the few multiply-adds it finishes.
    fn tap_lanes(&self) -> bool {
        self.groups == 1 && self.ohow <= TAP_LANE_PIXELS
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

/// Copies every lane block of `src` into `dst`: the input into padded
/// planes, as the forward pass does, or with `grad` the output gradient
/// into `[O][OH·OW][8]`.
struct PackBlocks<'a>(&'a ConvDims, (&'a [f32], bool), &'a mut [Lanes]);

impl LaneKernel for PackBlocks<'_> {
    #[inline(always)]
    fn lane_loop(self) {
        let Self(d, (src, grad), dst) = self;
        let block = if grad { d.block_out() } else { d.block_in() };
        for (b, dst) in dst.chunks_exact_mut(block).enumerate() {
            let (s0, samples) = (b * LANES, LANES.min(d.n - b * LANES));
            if grad {
                let dims = (d.sample_out, samples, d.sample_out);
                to_lanes(&src[s0 * d.sample_out..], dims, 0..d.sample_out, dst);
            } else {
                pack_input(src, d, (s0, samples), dst);
            }
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

/// The kernel offsets along one axis at which the padded-input coordinate
/// `a` meets an output pixel: `k < kernel` with `a - k = o·stride` for an
/// output `o < out`. Returns the first offset, the output it meets, and
/// how many there are; offset `first + m·stride` meets output `o0 - m`.
fn hits(a: usize, kernel: usize, stride: usize, out: usize) -> [usize; 3] {
    let top = (out - 1) * stride;
    let first = if a > top { a - top } else { a % stride };
    if first >= kernel {
        return [0; 3];
    }
    let o0 = (a - first) / stride;
    [first, o0, ((kernel - 1 - first) / stride).min(o0) + 1]
}

/// The [`hits`] of every input row, then of every input column, three
/// numbers each: computed once per call, so the input gradient's walk
/// divides by nothing.
fn tap_hits(d: &ConvDims, table: &mut [u32]) {
    let rows = (0..d.h).map(|i| hits(i + d.pad, d.kh, d.stride, d.oh));
    let cols = (0..d.w).map(|j| hits(j + d.pad, d.kw, d.stride, d.ow));
    for (dst, hit) in table.chunks_exact_mut(3).zip(rows.chain(cols)) {
        for (dst, v) in dst.iter_mut().zip(hit) {
            *dst = u32::try_from(v).expect("convolution extents fit in u32");
        }
    }
}

/// The input gradient `gx` of one lane block, gathered from the weights
/// `wt` and the block's output gradient `gyb`. Item `i` is element `i` of
/// every sample's input, summed on the stack over the taps that meet an
/// output pixel, [`GATHER_ITEMS`] items at a time. The walk goes over runs
/// of items in one input row: a row that meets no output row is skipped
/// whole; otherwise its tap rows go in ascending order, each over the
/// run's items and their tap columns, so every item still receives its
/// taps in ascending order.
/// A tile holds eight (item, tap) pairs, whichever items they belong to,
/// so border items with few taps still fill it; a tap that meets no output
/// pixel is never read, so a non-finite weight reaches only the elements
/// it multiplies.
struct InputGrad<'a>(
    &'a ConvDims,
    (&'a [f32], &'a [u32]),
    &'a [Lanes],
    &'a mut [f32],
);

impl LaneKernel for InputGrad<'_> {
    #[inline(always)]
    fn lane_loop(self) {
        let Self(d, (wt, table), gyb, gx) = self;
        assert!(d.o * d.kdim <= wt.len() && d.block_out() <= gyb.len());
        let samples = gx.len() / d.sample_in;
        let hit = |i: usize| {
            let t = &table[3 * i..3 * i + 3];
            [t[0] as usize, t[1] as usize, t[2] as usize]
        };
        // The next item's channel in its group, row and column, the first
        // weight of its channel's taps, its group's first output gradient,
        // and the taps its row meets.
        let (mut ic, mut ii, mut jj, mut w0, mut gy0) = (0, 0, 0, 0, 0);
        let mut rows = hit(0);
        // A tile's pairs: first weight, first output gradient, item.
        let (mut w_at, mut gy_at, mut item) = ([0; LANES], [0; LANES], [0; LANES]);
        for i0 in (0..d.sample_in).step_by(GATHER_ITEMS) {
            let width = GATHER_ITEMS.min(d.sample_in - i0);
            let (mut acc, mut pairs) = ([[0.0; LANES]; GATHER_ITEMS], 0);
            // The items from `j` on are a run of the current row: for each
            // tap row that meets an output row, in ascending order, the
            // run's items and their tap columns; a row meeting none adds
            // nothing.
            let mut j = 0;
            while j < width {
                let run = (d.w - jj).min(width - j);
                let [ki, oi, nr] = rows;
                for m in 0..nr {
                    let w_row = w0 + (ki + m * d.stride) * d.kw;
                    let gy_row = gy0 + (oi - m) * d.ow;
                    for t in 0..run {
                        let [kj, oj, nc] = hit(d.h + jj + t);
                        let (w, gy) = (w_row + kj, gy_row + oj);
                        for q in 0..nc {
                            (w_at[pairs], gy_at[pairs]) = (w + q * d.stride, gy - q);
                            item[pairs] = j + t;
                            pairs += 1;
                            if pairs == LANES {
                                // SAFETY: every pair's operands lie in `wt`
                                // and `gyb`, whose extents are asserted
                                // above.
                                unsafe {
                                    gather_tile(d, (wt, gyb), (&w_at, &gy_at), &item, &mut acc)
                                };
                                pairs = 0;
                            }
                        }
                    }
                }
                (j, jj) = (j + run, jj + run);
                if jj == d.w {
                    (ii, jj) = (ii + 1, 0);
                    if ii == d.h {
                        (ic, ii, w0) = (ic + 1, 0, w0 + d.kh * d.kw);
                        if ic == d.cg {
                            (ic, w0, gy0) = (0, w0 + (d.og - 1) * d.kdim, gy0 + d.og * d.ohow);
                        }
                    }
                    rows = hit(ii);
                }
            }
            if pairs > 0 {
                let items = &item[..pairs];
                // SAFETY: as for the full tiles above.
                unsafe { gather_tile(d, (wt, gyb), (&w_at, &gy_at), items, &mut acc) };
            }
            from_lanes(&acc, 0..width, (d.sample_in, samples, width), &mut gx[i0..]);
        }
    }
}

/// Adds a tile's pairs onto their items' sums `acc`: pair `p` is the
/// partial `Σ_r w[w_at[p] + r·kdim] · gy[gy_at[p] + r·ohow]` over its
/// group's output channels, started from its first product (see the
/// module docs), and belongs to item `items[p]`. Slots past `items` read
/// an earlier pair's operands and are dropped.
///
/// # Safety
///
/// For every slot `p` and output channel `r < og`, `w_at[p] + r·kdim <
/// wt.len()` and `gy_at[p] + r·ohow < gyb.len()`.
#[inline(always)]
unsafe fn gather_tile(
    d: &ConvDims,
    (wt, gyb): (&[f32], &[Lanes]),
    (w_at, gy_at): (&[usize; LANES], &[usize; LANES]),
    items: &[usize],
    acc: &mut [Lanes; GATHER_ITEMS],
) {
    let mut part = [[0.0; LANES]; LANES];
    // SAFETY: the caller's guarantee, at `r = 0` and then each `r < og`.
    unsafe {
        products::<true>(&mut part, (wt, w_at, 0), (gyb, gy_at, 0));
        for r in 1..d.og {
            products::<false>(&mut part, (wt, w_at, r * d.kdim), (gyb, gy_at, r * d.ohow));
        }
    }
    for (part, &j) in part.iter().zip(items) {
        acc[j].iter_mut().zip(part).for_each(|(a, p)| *a += p);
    }
}

/// One product per tile slot: `part[k] = s[s_at[k] + s_off] ·
/// v[v_at[k] + v_off]`, a scalar times a vector, or added onto `part[k]`
/// unless `FIRST`.
///
/// # Safety
///
/// `s_at[k] + s_off < s.len()` and `v_at[k] + v_off < v.len()` for every
/// slot `k`.
#[inline(always)]
unsafe fn products<const FIRST: bool>(
    part: &mut [Lanes; LANES],
    (s, s_at, s_off): (&[f32], &[usize; LANES], usize),
    (v, v_at, v_off): (&[Lanes], &[usize; LANES], usize),
) {
    for ((part, &i), &j) in part.iter_mut().zip(s_at).zip(v_at) {
        // SAFETY: the caller guarantees both indices are in bounds.
        let (s, v) = unsafe { (unchecked(s, i + s_off), unchecked(v, j + v_off)) };
        for (p, v) in part.iter_mut().zip(v) {
            *p = if FIRST { s * v } else { *p + s * v };
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

/// The operands of the weight gradient in tap lanes (one group), laid out
/// per sample and output pixel from each lane block of the input `x`,
/// packed into the padded planes `xb` first, and of the output gradient
/// `gyl`:
///
/// * `cols[(s·ohow + pix)·row + t]` is tap `t` of pixel `pix` of sample
///   `s`, padding taps as zeros, `row` = `kdim` rounded up to whole
///   octets;
/// * `gyt[(s·ohow + pix)·o8 + oc]`, unless `None`, is output channel `oc`
///   of that pixel, `o8` = `o` rounded up to whole octets.
///
/// The slots past `kdim` and `o` hold stale values and are never stored.
struct TapRows<'a>(
    &'a ConvDims,
    (&'a [f32], &'a [Lanes]),
    &'a mut [Lanes],
    (&'a mut [f32], Option<&'a mut [f32]>),
);

impl LaneKernel for TapRows<'_> {
    #[inline(always)]
    fn lane_loop(self) {
        let Self(d, (x, gyl), xb, (cols, mut gyt)) = self;
        let (row, o8) = (d.kdim.next_multiple_of(LANES), d.o.next_multiple_of(LANES));
        for (b, gyb) in gyl.chunks_exact(d.block_out()).enumerate() {
            let (s0, samples) = (b * LANES, LANES.min(d.n - b * LANES));
            pack_input(x, d, (s0, samples), xb);
            let mut px = PixelWalk::default();
            for pix in 0..d.ohow {
                let mut taps = d.taps();
                for t0 in (0..row).step_by(LANES) {
                    let mut at = [0; LANES];
                    at.iter_mut()
                        .zip(taps.by_ref())
                        .for_each(|(a, t)| *a = t + px.corner);
                    let dst = &mut cols[(s0 * d.ohow + pix) * row + t0..];
                    lanes_to_rows(xb, at, samples, dst, d.ohow * row);
                }
                px.advance(d);
                let Some(gyt) = gyt.as_deref_mut() else {
                    continue;
                };
                for o0 in (0..o8).step_by(LANES) {
                    let mut at = [0; LANES];
                    for (k, at) in at.iter_mut().enumerate().take(d.o - o0) {
                        *at = (o0 + k) * d.ohow + pix;
                    }
                    let dst = &mut gyt[(s0 * d.ohow + pix) * o8 + o0..];
                    lanes_to_rows(gyb, at, samples, dst, d.ohow * o8);
                }
            }
        }
    }
}

/// `part[k] = g[k]·x` for eight channels' gradients `g` and one octet of
/// taps `x`, or added onto `part[k]` unless `FIRST`.
#[inline(always)]
fn tap_products<const FIRST: bool>(part: &mut [Lanes; LANES], (g, x): (&[f32], Lanes)) {
    for (part, &g) in part.iter_mut().zip(g) {
        for (p, x) in part.iter_mut().zip(x) {
            *p = if FIRST { g * x } else { *p + g * x };
        }
    }
}

/// The weight gradient `gw` of whole output channels from `first` on, in
/// tap lanes. A tile is eight output channels by one octet of taps; each
/// sample's partial over its pixels, from the tap columns `cols` and the
/// transposed output gradient `gyt` (`[N][OH·OW][O]`, channels padded to
/// whole octets), is added to the accumulator in sample order. The eight
/// channels' gradients are neighbours in `gyt` and the octet is one vector
/// of `cols`, so nothing is transposed and the loop computes no addresses:
/// on planes of a few pixels the multiply-adds are the whole cost.
struct TapWeightGrad<'a>(&'a ConvDims, (&'a [Lanes], &'a [f32]), usize, &'a mut [f32]);

impl LaneKernel for TapWeightGrad<'_> {
    #[inline(always)]
    fn lane_loop(self) {
        let Self(d, (cols, gyt), first, gw) = self;
        let (tiles, o8) = (d.kdim.div_ceil(LANES), d.o.next_multiple_of(LANES));
        let (row, channels) = (d.ohow * tiles, gw.len() / d.kdim);
        assert!(d.n * row <= cols.len() && d.n * d.ohow * o8 <= gyt.len());
        assert!(first.is_multiple_of(LANES) && first + channels <= d.o);
        for oc in (0..channels).step_by(LANES) {
            let width = LANES.min(channels - oc);
            for t in 0..tiles {
                let mut acc = [[0.0; LANES]; LANES];
                for s in 0..d.n {
                    let (gs, cs) = (s * d.ohow * o8 + first + oc, s * row + t);
                    let at = |pix: usize| {
                        // SAFETY: `cs + pix·tiles < n·row`, asserted above.
                        let x = unsafe { unchecked(cols, cs + pix * tiles) };
                        (&gyt[gs + pix * o8..][..LANES], x)
                    };
                    if d.ohow == 1 {
                        // A one-pixel partial is one product `p`, and
                        // `+0.0 + p` differs from `p` only for `p = -0.0`,
                        // which leaves the accumulator (never `-0.0`) as
                        // it is either way: add it straight on.
                        tap_products::<false>(&mut acc, at(0));
                        continue;
                    }
                    let mut part = [[0.0; LANES]; LANES];
                    tap_products::<true>(&mut part, at(0));
                    for pix in 1..d.ohow {
                        tap_products::<false>(&mut part, at(pix));
                    }
                    for (acc, part) in acc.iter_mut().zip(&part) {
                        acc.iter_mut().zip(part).for_each(|(a, p)| *a += p);
                    }
                }
                let taps = LANES.min(d.kdim - t * LANES);
                for (k, acc) in acc[..width].iter().enumerate() {
                    let out = &mut gw[(oc + k) * d.kdim + t * LANES..][..taps];
                    out.iter_mut().zip(acc).for_each(|(o, a)| *o = *a);
                }
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

/// Checks a backward call's shapes and returns its geometry.
fn backward_dims(
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
    spec: Conv2dSpec,
) -> ConvDims {
    let d = check_dims(input, weight, spec);
    assert_eq!(
        grad_output.shape().dims(),
        &[d.n, d.o, d.oh, d.ow],
        "grad_output shape mismatch"
    );
    d
}

/// Copies every lane block of the output gradient into a buffer from
/// `scratch`.
fn pack_grad<'s>(d: &ConvDims, gy: &[f32], scratch: &'s Scratch) -> ScratchBuf<'s> {
    let mut gyl = scratch.take(d.n.div_ceil(LANES) * d.block_out() * LANES);
    run_lanes(PackBlocks(d, (gy, true), gyl.as_chunks_mut().0));
    gyl
}

/// The weight and bias gradients, from the input `x`, the output gradient
/// `gy` and its lane blocks `gyl`.
fn weight_grads(
    d: &ConvDims,
    (x, gy, gyl): (&[f32], &[f32], &[Lanes]),
    scratch: &Scratch,
) -> (Tensor, Tensor) {
    // The split over kernel threads runs over whole output channels. It
    // decides who computes which items, never the order of any sum.
    let per = d.o.div_ceil(num_threads().clamp(1, d.o));
    let mut grad_weight = scratch.tensor_uninit(&[d.o, d.cg, d.kh, d.kw]);
    let gw = grad_weight.data_mut();
    if d.tap_lanes() {
        // One checkout for the tap columns, the gradient rows and one
        // block's padded planes.
        let (row, o8) = (d.kdim.next_multiple_of(LANES), d.o.next_multiple_of(LANES));
        let mut buf = scratch.take(d.n * d.ohow * (row + o8) + d.block_in() * LANES);
        let (cols, rest) = buf.split_at_mut(d.n * d.ohow * row);
        let (gyt, xb) = rest.split_at_mut(d.n * d.ohow * o8);
        // One-pixel planes in whole octets of channels are rows already.
        let rows = d.ohow > 1 || d.o < o8;
        let xb = xb.as_chunks_mut().0;
        run_lanes(TapRows(d, (x, gyl), xb, (cols, rows.then_some(&mut *gyt))));
        let (cols, gyt) = (cols.as_chunks().0, if rows { &*gyt } else { gy });
        let per = per.next_multiple_of(LANES);
        parallel_chunks_mut(gw, per * d.kdim, d.n * d.ohow, |i, gw| {
            run_lanes(TapWeightGrad(d, (cols, gyt), i * per, gw));
        });
    } else {
        let mut xl = scratch.take(d.n.div_ceil(LANES) * d.block_in() * LANES);
        run_lanes(PackBlocks(d, (x, false), xl.as_chunks_mut().0));
        let xl = xl.as_chunks().0;
        parallel_chunks_mut(gw, per * d.kdim, d.n * d.ohow, |i, gw| {
            run_lanes(WeightGrad(d, (xl, gyl), i * per * d.kdim, gw));
        });
    }
    // Plane `i` is channel `i mod o` of sample `i / o`: partials in sample
    // order.
    let mut grad_bias = scratch.tensor_zeroed(&[d.o]);
    for (i, plane) in gy.chunks_exact(d.ohow).enumerate() {
        grad_bias.data_mut()[i % d.o] += plane.iter().sum::<f32>();
    }
    (grad_weight, grad_bias)
}

/// The weight and bias gradients of a convolution, without the input
/// gradient: what a network's first layer needs, whose input gradient
/// nothing reads. The same bits as [`conv2d_backward_with`]'s
/// `grad_weight` and `grad_bias`, under the op timer
/// `conv2d_backward_weight`.
///
/// # Panics
///
/// Panics on any shape inconsistency.
pub fn conv2d_backward_params_with(
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
    spec: Conv2dSpec,
    scratch: &Scratch,
) -> (Tensor, Tensor) {
    let _t = OpTimer::start("conv2d_backward_weight");
    let d = backward_dims(input, weight, grad_output, spec);
    let gy = grad_output.data();
    let gyl = pack_grad(&d, gy, scratch);
    weight_grads(&d, (input.data(), gy, gyl.as_chunks().0), scratch)
}

/// Convolution backward pass.
///
/// Given the forward inputs and the gradient w.r.t. the output, computes
/// the gradients w.r.t. input, weights and bias, in the fold order of the
/// module docs: the same bits at every thread count.
///
/// Draws every temporary from `scratch`. Two op timers split the time:
/// `conv2d_backward_input` (packing the output gradient into lane blocks,
/// then the input gradient) and `conv2d_backward_weight` (the weight and
/// bias gradients, as [`conv2d_backward_params_with`] computes them, over
/// the same packed output gradient).
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
    let timer = OpTimer::start("conv2d_backward_input");
    let d = backward_dims(input, weight, grad_output, spec);
    let (wt, gy) = (weight.data(), grad_output.data());
    // Both gradients read the output gradient's lane blocks: pack the
    // batch once.
    let gyl = pack_grad(&d, gy, scratch);
    let gyl = gyl.as_chunks().0;
    let block = |b: usize| &gyl[b * d.block_out()..][..d.block_out()];

    // The input gradient, one lane block per task.
    let mut grad_input = scratch.tensor_uninit(input.shape().dims());
    let (gx, chunk) = (grad_input.data_mut(), LANES * d.sample_in);
    let mut table = scratch.take_u32(3 * (d.h + d.w));
    tap_hits(&d, &mut table);
    let table = &*table;
    parallel_chunks_mut(gx, chunk, d.kdim, |b, gx| {
        run_lanes(InputGrad(&d, (wt, table), block(b), gx));
    });
    drop(timer);
    let _t = OpTimer::start("conv2d_backward_weight");
    let (grad_weight, grad_bias) = weight_grads(&d, (input.data(), gy, gyl), scratch);
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
        /// Normal samples, and the value at weight index `i`: tap `i` of
        /// output channel 0.
        Poisoned(f32, usize),
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
    /// output, and the weight-only entry's, against the reference bit for
    /// bit. Returns the reference.
    fn check_against_reference(geometry: Geometry, seed: u64, data: Data) -> Reference {
        let (n, c, side, o, k, stride, pad, groups) = geometry;
        let spec = Conv2dSpec {
            stride,
            pad,
            groups,
        };
        let mut rng = Rng::seed_from(seed);
        let x = operand(&[n, c, side, side], 1.0, data, &mut rng);
        let mut wt = operand(&[o, c / groups, k, k], 0.5, data, &mut rng);
        if let Data::Poisoned(v, i) = data {
            wt.data_mut()[i] = v;
        }
        let bias = operand(&[o], 0.5, data, &mut rng);
        let oh = conv_out_dim(side, k, stride, pad);
        let gy = operand(&[n, o, oh, oh], 1.0, data, &mut rng);
        let want = reference(&x, &wt, &bias, &gy, spec);
        for threads in [1, 2, 3] {
            let label = format!("{geometry:?} seed {seed} at {threads} threads");
            let (y, grads, (gw, gb)) = with_inner_threads(threads, || {
                let y = conv2d_forward_with(&x, &wt, Some(&bias), spec, Scratch::shared());
                (
                    y,
                    conv2d_backward_with(&x, &wt, &gy, spec, Scratch::shared()),
                    conv2d_backward_params_with(&x, &wt, &gy, spec, Scratch::shared()),
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
            assert_eq!(
                bits(&gw),
                bits(&want.gw),
                "weight-only grad_weight, {label}"
            );
            assert_eq!(bits(&gb), bits(&want.gb), "weight-only grad_bias, {label}");
        }
        want
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
    fn gather_and_tap_lane_roads_match_the_reference() {
        let sweep: [Geometry; 14] = [
            (9, 3, 5, 4, 3, 2, 1, 1),   // odd 5x5 plane, 3x3 stride 2
            (10, 2, 7, 3, 3, 2, 1, 1),  // odd 7x7 plane, 3x3 stride 2
            (9, 4, 5, 6, 1, 2, 0, 1),   // 1x1 at stride 2 on an odd plane
            (10, 8, 4, 16, 1, 2, 0, 1), // 1x1 at stride 2, 2x2 output
            (9, 4, 7, 4, 3, 2, 1, 4),   // depthwise at stride 2
            (10, 5, 1, 6, 3, 1, 1, 1),  // tap lanes: 1x1 output, 45 taps
            (9, 16, 1, 12, 1, 1, 0, 1), // tap lanes: pointwise on 1x1
            (9, 3, 2, 5, 3, 1, 1, 1),   // tap lanes: 2x2 output, 27 taps
            (17, 8, 2, 16, 3, 1, 1, 1), // tap lanes: 2x2, two channel tiles
            (9, 3, 2, 12, 3, 1, 1, 1),  // tap lanes: a ragged channel tile
            (9, 4, 3, 8, 3, 1, 1, 1),   // 3x3 output: sample lanes again
            (9, 4, 3, 8, 2, 1, 0, 1),   // even kernel, 2x2 output
            (9, 1, 37, 2, 3, 1, 1, 1),  // rows longer than GATHER_ITEMS
            (9, 2, 35, 3, 1, 2, 0, 1),  // long rows, 1x1 at stride 2
        ];
        for (i, &geometry) in sweep.iter().enumerate() {
            check_against_reference(geometry, 3500 + i as u64, Data::Normal);
        }
    }

    #[test]
    fn non_finite_weights_reach_exactly_the_reference_elements() {
        // The corner taps meet no output pixel from the far border rows
        // and columns of the input: an input gradient that read them as
        // products with padding zeros would turn those elements non-finite
        // where the reference leaves them finite.
        let geometries: [Geometry; 4] = [
            (9, 2, 5, 3, 3, 1, 1, 1),
            (9, 2, 7, 3, 3, 2, 1, 1),
            (9, 4, 6, 4, 3, 2, 1, 4),
            (9, 8, 2, 8, 3, 1, 1, 1),
        ];
        for (i, geometry) in geometries.into_iter().enumerate() {
            for (j, v) in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN]
                .into_iter()
                .enumerate()
            {
                for tap in [0, geometry.4 * geometry.4 - 1] {
                    let seed = 3600 + (10 * i + j) as u64;
                    let want = check_against_reference(geometry, seed, Data::Poisoned(v, tap));
                    let finite = want.gx.data().iter().filter(|v| v.is_finite()).count();
                    assert!(
                        finite > 0 && finite < want.gx.numel(),
                        "{geometry:?}: the poisoned tap must reach some elements and miss others"
                    );
                }
            }
        }
    }

    #[test]
    fn signed_zero_products_fold_like_the_reference() {
        // `-0.0` products are where folding a sum in another order, or
        // skipping the `+0.0` a partial starts from (as the one-pixel
        // weight gradient does), would show.
        let sweep: [Geometry; 7] = [
            (12, 4, 1, 3, 3, 1, 1, 1),
            (11, 8, 1, 4, 3, 1, 1, 1), // one pixel, whole tiles of taps
            (9, 3, 3, 4, 3, 1, 0, 1),
            (10, 4, 1, 4, 1, 1, 0, 2),
            (6, 2, 4, 3, 3, 1, 1, 1),
            (10, 3, 2, 9, 3, 1, 1, 1), // tap lanes over 2x2 planes
            (10, 6, 4, 4, 1, 2, 0, 1), // pointwise at stride 2
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
            check_against_reference(geometry, 3200 + i as u64, Data::Poisoned(f32::NAN, 0));
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
