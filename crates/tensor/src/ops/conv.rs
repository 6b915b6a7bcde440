//! 2-D convolution lowered a block of samples at a time, with strides,
//! zero padding and groups.
//!
//! `groups == in_channels` yields the depthwise convolutions MobileNet is
//! built from (Table III of the paper); `groups == 1` is an ordinary dense
//! convolution.
//!
//! # Block lowering
//!
//! The batch is cut into blocks of consecutive samples. For each block and
//! group, the samples' zero-padded input planes are copied straight into
//! the [`NR`]-wide column panels the packed GEMM reads: panel row
//! `p = (c·kh + ki)·kw + kj` is a kernel tap, and the columns run over the
//! block's samples and output pixels. One GEMM per group and block then
//! computes the forward pass (`[og × kdim] · [kdim × block·oh·ow]`), and
//! one more the input gradient (`wᵀ · gy`, folded back onto each sample's
//! planes). No im2col matrix is built and nothing is packed twice. A block
//! holds as many samples as keep its packed matrix under [`BLOCK_FLOATS`]
//! (64 KiB), and at least one; that bound is a constant, not a setting.
//!
//! # Fold order
//!
//! Every output element is summed in one fixed order, whatever the block
//! size, SIMD level or thread count:
//!
//! * forward: the taps in ascending `(c, ki, kj)` order from `+0.0`,
//!   padding taps included as `0.0` products, then the bias;
//! * input gradient: each tap's column, summed over the group's output
//!   channels in ascending order from `+0.0`, added onto a zeroed input
//!   plane in ascending tap order;
//! * weight and bias gradients: each sample's partial sum over its output
//!   pixels, from `+0.0`, added to the accumulator in sample order (one
//!   accumulating GEMM per sample; when an output plane is one pixel, one
//!   GEMM over the samples gives the same bits).
//!
//! Kernel threads split the forward pass and the input gradient over
//! sample blocks, and the weight gradient over disjoint ranges of its tap
//! panels, never over the sample fold. The results are therefore the same
//! bits at every thread count.
//!
//! All temporaries (packed panels, GEMM products, gradient accumulators)
//! come from a [`Scratch`] arena, so steady-state training reuses the same
//! buffers batch after batch.

use super::gemm::{gemm_packed_block, packed_len, transpose_into, NR};
use crate::parallel::{num_threads, parallel_chunks_mut};
use crate::scratch::Scratch;
use crate::Tensor;
use std::ops::Range;
use tdfm_obs::OpTimer;

/// Most floats one block's packed matrix holds (16 Ki floats, 64 KiB)
/// unless a single sample needs more.
const BLOCK_FLOATS: usize = 16 * 1024;

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
/// kernel below needs.
struct ConvDims {
    n: usize,
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
    /// Samples per block when each sample contributes `rows` packed rows
    /// of `ohow` columns: as many as stay under [`BLOCK_FLOATS`], at least
    /// one, and no more than an even share of the batch per kernel thread.
    /// The block size never changes a result bit, only the work split.
    fn block_samples(&self, rows: usize) -> usize {
        let fit = BLOCK_FLOATS / (rows * self.ohow);
        fit.min(self.n.div_ceil(num_threads())).max(1)
    }

    /// The taps' offsets into a sample's padded planes.
    fn taps(&self) -> Taps<'_> {
        Taps {
            d: self,
            left: self.kdim,
            ki: 0,
            kj: 0,
            offset: 0,
        }
    }

    /// One group's `[cg, h, w]` planes of sample `s`, as an offset into the
    /// input.
    fn group_input(&self, s: usize, g: usize) -> usize {
        s * self.sample_in + g * self.cg * self.h * self.w
    }
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

/// Zeroes the lanes at and past `jw` of every `NR`-wide row of a panel.
fn zero_tail_lanes(panel: &mut [f32], jw: usize) {
    if jw < NR {
        for row in panel.chunks_exact_mut(NR) {
            row[jw..].fill(0.0);
        }
    }
}

/// Fills one `NR`-wide panel row with `src[a + t]` for each lane offset
/// `a` in `at`. The packers hand out strictly increasing offsets (and a
/// smaller one in unused tail lanes), so a last lane exactly `NR - 1` past
/// the first means one contiguous run: a plain copy.
fn gather(row: &mut [f32], src: &[f32], at: &[usize; NR], t: usize) {
    if at[NR - 1] == at[0] + NR - 1 {
        row.copy_from_slice(&src[at[0] + t..at[0] + t + NR]);
    } else {
        for (v, &a) in row.iter_mut().zip(at) {
            *v = src[a + t];
        }
    }
}

/// Each tap's offset into one sample's zero-padded group planes, in
/// ascending `(c, ki, kj)` order.
struct Taps<'d> {
    d: &'d ConvDims,
    left: usize,
    ki: usize,
    kj: usize,
    offset: usize,
}

impl Iterator for Taps<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        self.left = self.left.checked_sub(1)?;
        let d = self.d;
        let offset = self.offset;
        (self.kj, self.offset) = (self.kj + 1, self.offset + 1);
        if self.kj == d.kw {
            (self.ki, self.kj, self.offset) = (self.ki + 1, 0, self.offset + d.pw - d.kw);
            if self.ki == d.kh {
                (self.ki, self.offset) = (0, self.offset + d.pplane - d.kh * d.pw);
            }
        }
        Some(offset)
    }
}

/// Input planes in which every tap reads in bounds: padded row `i`,
/// column `j` of channel `c` of block sample `sl` is
/// `data[base + sl·sample + c·padded_plane + i·(w + 2·pad) + j]`.
struct Planes<'a> {
    data: &'a [f32],
    base: usize,
    sample: usize,
}

/// Group `g`'s planes of the `samples` samples from `s0` on. Unpadded
/// convolutions read the input itself; padded ones get a copy in `buf`
/// with the zero border made explicit.
fn padded_planes<'a>(
    x: &'a [f32],
    d: &ConvDims,
    (g, s0, samples): (usize, usize, usize),
    buf: Option<&'a mut [f32]>,
) -> Planes<'a> {
    let Some(buf) = buf else {
        return Planes {
            data: x,
            base: d.group_input(s0, g),
            sample: d.sample_in,
        };
    };
    let (pad, pw, plane) = (d.pad, d.pw, d.pplane);
    let buf = &mut buf[..samples * d.cg * plane];
    for (i, dst) in buf.chunks_exact_mut(plane).enumerate() {
        let at = d.group_input(s0 + i / d.cg, g) + i % d.cg * d.h * d.w;
        let rows = x[at..at + d.h * d.w].chunks_exact(d.w);
        dst[..pad * pw].fill(0.0);
        for (row, src) in dst[pad * pw..(pad + d.h) * pw]
            .chunks_exact_mut(pw)
            .zip(rows)
        {
            row[..pad].fill(0.0);
            row[pad..pad + d.w].copy_from_slice(src);
            row[pad + d.w..].fill(0.0);
        }
        dst[(pad + d.h) * pw..].fill(0.0);
    }
    Planes {
        data: buf,
        base: 0,
        sample: d.cg * plane,
    }
}

/// Packs the column matrix of a block's planes, `cols` columns, into
/// `NR`-wide panels of `kdim` rows: row `p` (tap `(c, ki, kj)`), column
/// `sl·ohow + oi·ow + oj` holds padded input
/// `(c, oi·stride + ki, oj·stride + kj)` of block sample `sl`. Lanes past
/// `cols` are zero.
fn pack_columns(src: &Planes, d: &ConvDims, cols: usize, packed: &mut [f32]) {
    let (mut sl, mut oi, mut oj) = (0, 0, 0);
    for (pj, panel) in packed.chunks_exact_mut(d.kdim * NR).enumerate() {
        let jw = NR.min(cols - pj * NR);
        // Each lane's top-left tap; lanes past `cols` read `base` and are
        // zeroed below.
        let mut at = [src.base; NR];
        for a in &mut at[..jw] {
            *a = src.base + sl * src.sample + (oi * d.pw + oj) * d.stride;
            oj += 1;
            if oj == d.ow {
                (oi, oj) = (oi + 1, 0);
                if oi == d.oh {
                    (sl, oi) = (sl + 1, 0);
                }
            }
        }
        for (row, t) in panel.chunks_exact_mut(NR).zip(d.taps()) {
            gather(row, src.data, &at, t);
        }
        zero_tail_lanes(panel, jw);
    }
}

/// Packs the transposed column matrix of `samples` consecutive samples'
/// planes, for the taps `span` only, into `NR`-wide panels of
/// `samples·ohow` rows: lane `l` of panel `q`, row `sl·ohow + oi·ow + oj`
/// holds tap `span.start + q·NR + l` of sample `sl` at output pixel
/// `(oi, oj)`. Lanes past the last tap are zero.
fn pack_taps(src: &Planes, d: &ConvDims, span: Range<usize>, samples: usize, packed: &mut [f32]) {
    let rows = samples * d.ohow;
    let mut taps = d.taps().skip(span.start).take(span.len());
    for panel in packed.chunks_exact_mut(rows * NR) {
        let mut at = [src.base; NR];
        let mut lanes = 0;
        for (a, t) in at.iter_mut().zip(taps.by_ref()) {
            (*a, lanes) = (src.base + t, lanes + 1);
        }
        for (sl, sample_rows) in panel.chunks_exact_mut(d.ohow * NR).enumerate() {
            for (oi, out_row) in sample_rows.chunks_exact_mut(d.ow * NR).enumerate() {
                for (oj, px) in out_row.chunks_exact_mut(NR).enumerate() {
                    gather(
                        px,
                        src.data,
                        &at,
                        sl * src.sample + (oi * d.pw + oj) * d.stride,
                    );
                }
            }
        }
        zero_tail_lanes(panel, lanes);
    }
}

/// Packs group `g`'s output gradient over the samples from `s0` on into
/// `NR`-wide panels of `og` rows: row `r`, column `(s - s0)·ohow + pix`
/// holds `gy[s, g·og + r, pix]`. Lanes past `cols` are zero.
fn pack_grads(gy: &[f32], d: &ConvDims, (g, s0): (usize, usize), cols: usize, packed: &mut [f32]) {
    let base = s0 * d.sample_out + g * d.og * d.ohow;
    let (mut sl, mut pix) = (0, 0);
    for (pj, panel) in packed.chunks_exact_mut(d.og * NR).enumerate() {
        let jw = NR.min(cols - pj * NR);
        let mut at = [base; NR];
        for a in &mut at[..jw] {
            *a = base + sl * d.sample_out + pix;
            pix += 1;
            if pix == d.ohow {
                (sl, pix) = (sl + 1, 0);
            }
        }
        for (r, row) in panel.chunks_exact_mut(NR).enumerate() {
            gather(row, gy, &at, r * d.ohow);
        }
        zero_tail_lanes(panel, jw);
    }
}

/// Folds one sample's input-gradient columns back onto its group planes
/// `gx` (`[cg, h, w]`). Tap `p`'s columns start at `col[p·ld + off]`; each
/// tap's contributions are added onto zero in ascending tap order.
/// Padded convolutions fold into the padded planes `gpad` and keep their
/// interior.
fn fold_columns(
    col: &[f32],
    (ld, off): (usize, usize),
    d: &ConvDims,
    gpad: Option<&mut [f32]>,
    gx: &mut [f32],
) {
    let Some(gpad) = gpad else {
        fold_taps(col, (ld, off), d, gx);
        return;
    };
    let (pad, pw) = (d.pad, d.pw);
    let gpad = &mut gpad[..d.cg * d.pplane];
    fold_taps(col, (ld, off), d, gpad);
    for (dst, src) in gx
        .chunks_exact_mut(d.h * d.w)
        .zip(gpad.chunks_exact(d.pplane))
    {
        for (row, src) in dst
            .chunks_exact_mut(d.w)
            .zip(src[pad * pw..].chunks_exact(pw))
        {
            row.copy_from_slice(&src[pad..pad + d.w]);
        }
    }
}

/// The fold itself, onto planes of padded width `w + 2·pad`.
fn fold_taps(col: &[f32], (ld, off): (usize, usize), d: &ConvDims, acc: &mut [f32]) {
    acc.fill(0.0);
    for (p, t) in d.taps().enumerate() {
        let src = &col[p * ld + off..p * ld + off + d.ohow];
        for (oi, src_row) in src.chunks_exact(d.ow).enumerate() {
            let at = t + oi * d.stride * d.pw;
            if d.stride == 1 {
                for (a, &v) in acc[at..at + d.ow].iter_mut().zip(src_row) {
                    *a += v;
                }
            } else {
                for (oj, &v) in src_row.iter().enumerate() {
                    acc[at + oj * d.stride] += v;
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
    let (x, wt) = (input.data(), weight.data());
    let bias = bias.map(Tensor::data);
    let mut out = scratch.tensor_uninit(&[d.n, d.o, d.oh, d.ow]);
    let bs = d.block_samples(d.kdim.max(d.og));
    parallel_chunks_mut(out.data_mut(), bs * d.sample_out, d.kdim, |blk, y| {
        let samples = y.len() / d.sample_out;
        let cols = samples * d.ohow;
        let mut packed = scratch.take(packed_len(d.kdim, cols));
        // When each sample's columns fill whole panels (or there is one
        // sample), each sample's product lands straight in its NCHW
        // planes; otherwise the block's product is scattered to them.
        let whole_panels = samples == 1 || d.ohow.is_multiple_of(NR);
        let mut product = (!whole_panels).then(|| scratch.take(d.og * cols));
        let mut pad_buf = (d.pad > 0).then(|| scratch.take(samples * d.cg * d.pplane));
        for g in 0..d.groups {
            let planes = padded_planes(x, &d, (g, blk * bs, samples), pad_buf.as_deref_mut());
            pack_columns(&planes, &d, cols, &mut packed);
            let w_g = &wt[g * d.og * d.kdim..(g + 1) * d.og * d.kdim];
            let y_g = g * d.og * d.ohow;
            let Some(product) = product.as_deref_mut() else {
                let per_sample = packed_len(d.kdim, d.ohow);
                for (sl, panels) in packed.chunks_exact(per_sample).enumerate() {
                    let at = sl * d.sample_out + y_g;
                    let y_s = &mut y[at..at + d.og * d.ohow];
                    gemm_packed_block(w_g, d.og, d.kdim, d.ohow, panels, y_s, false);
                }
                continue;
            };
            gemm_packed_block(w_g, d.og, d.kdim, cols, &packed, product, false);
            for (r, row) in product.chunks_exact(cols).enumerate() {
                for (sl, src) in row.chunks_exact(d.ohow).enumerate() {
                    let at = sl * d.sample_out + y_g + r * d.ohow;
                    y[at..at + d.ohow].copy_from_slice(src);
                }
            }
        }
        if let Some(b) = bias {
            for (i, plane) in y.chunks_exact_mut(d.ohow).enumerate() {
                crate::simd::add_scalar(plane, b[i % d.o]);
            }
        }
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
    let gy = grad_output.data();
    let grad_input = input_grad(&d, weight.data(), gy, input.shape().dims(), scratch);
    let grad_weight = weight_grad(&d, input.data(), gy, weight.shape().dims(), scratch);
    let mut grad_bias = scratch.tensor_zeroed(&[d.o]);
    for gys in gy.chunks_exact(d.sample_out) {
        for (gb, plane) in grad_bias
            .data_mut()
            .iter_mut()
            .zip(gys.chunks_exact(d.ohow))
        {
            *gb += plane.iter().sum::<f32>();
        }
    }
    ConvGrads {
        grad_input,
        grad_weight,
        grad_bias,
    }
}

/// `w_gᵀ · gy_g` per group and sample block, folded back onto each
/// sample's input planes.
fn input_grad(d: &ConvDims, wt: &[f32], gy: &[f32], dims: &[usize], scratch: &Scratch) -> Tensor {
    // Every block shares the transposed weights: build them once.
    let mut wt_t = scratch.take(d.o * d.kdim);
    for g in 0..d.groups {
        let (a, b) = (g * d.og * d.kdim, (g + 1) * d.og * d.kdim);
        transpose_into(&wt[a..b], d.og, d.kdim, &mut wt_t[a..b]);
    }
    let wt_t = &wt_t[..];
    let mut grad_input = scratch.tensor_uninit(dims);
    let group_in = d.cg * d.h * d.w;
    let bs = d.block_samples(d.kdim.max(d.og));
    parallel_chunks_mut(
        grad_input.data_mut(),
        bs * d.sample_in,
        d.kdim,
        |blk, gx| {
            let samples = gx.len() / d.sample_in;
            let cols = samples * d.ohow;
            let mut packed = scratch.take(packed_len(d.og, cols));
            // As in the forward pass: when each sample's columns fill whole
            // panels, multiply and fold one sample at a time, so the column
            // matrix holds one sample, not the block.
            let chunk = if samples == 1 || d.ohow.is_multiple_of(NR) {
                d.ohow
            } else {
                cols
            };
            let mut col = scratch.take(d.kdim * chunk);
            let mut gpad = (d.pad > 0).then(|| scratch.take(d.cg * d.pplane));
            for g in 0..d.groups {
                pack_grads(gy, d, (g, blk * bs), cols, &mut packed);
                let wt_g = &wt_t[g * d.kdim * d.og..(g + 1) * d.kdim * d.og];
                let chunk_samples = chunk / d.ohow;
                for (ci, panels) in packed.chunks_exact(packed_len(d.og, chunk)).enumerate() {
                    gemm_packed_block(wt_g, d.kdim, d.og, chunk, panels, &mut col, false);
                    for j in 0..chunk_samples {
                        let at = (ci * chunk_samples + j) * d.sample_in + g * group_in;
                        let gx_g = &mut gx[at..at + group_in];
                        fold_columns(&col, (chunk, j * d.ohow), d, gpad.as_deref_mut(), gx_g);
                    }
                }
            }
        },
    );
    grad_input
}

/// `gw_g += gy_g · col_sᵀ` for every sample `s` in order, one per-sample
/// GEMM each, split over `(group, tap-panel range)` items.
fn weight_grad(d: &ConvDims, x: &[f32], gy: &[f32], dims: &[usize], scratch: &Scratch) -> Tensor {
    // Cut each group's tap panels into ranges so every kernel thread can
    // own at least one item; a range's accumulator is `og` rows of its
    // taps. The split decides who computes which taps, never the order
    // of any sum.
    let panels = d.kdim.div_ceil(NR);
    let ranges = num_threads().div_ceil(d.groups).min(panels);
    let range_panels = panels.div_ceil(ranges);
    let ranges = panels.div_ceil(range_panels);
    let item = d.og * range_panels * NR;
    let span = |idx: usize| {
        let t0 = idx % ranges * range_panels * NR;
        t0..(t0 + range_panels * NR).min(d.kdim)
    };
    let mut acc = scratch.take(d.groups * ranges * item);
    parallel_chunks_mut(&mut acc, item, d.n * d.ohow, |idx, acc| {
        let (g, span) = (idx / ranges, span(idx));
        let acc = &mut acc[..d.og * span.len()];
        if d.ohow == 1 && d.n > 0 {
            one_pixel_weight_grad(d, x, gy, (g, span), scratch, acc);
            return;
        }
        acc.fill(0.0);
        let mut packed = scratch.take(packed_len(d.ohow, span.len()));
        let mut pad_buf = (d.pad > 0).then(|| scratch.take(d.cg * d.pplane));
        for s in 0..d.n {
            let planes = padded_planes(x, d, (g, s, 1), pad_buf.as_deref_mut());
            pack_taps(&planes, d, span.start..span.end, 1, &mut packed);
            let at = s * d.sample_out + g * d.og * d.ohow;
            let gy_g = &gy[at..at + d.og * d.ohow];
            gemm_packed_block(gy_g, d.og, d.ohow, span.len(), &packed, acc, true);
        }
    });
    let mut grad_weight = scratch.tensor_uninit(dims);
    let gw = grad_weight.data_mut();
    for (idx, acc) in acc.chunks_exact(item).enumerate() {
        let (g, span) = (idx / ranges, span(idx));
        for (r, src) in acc[..d.og * span.len()]
            .chunks_exact(span.len())
            .enumerate()
        {
            let at = (g * d.og + r) * d.kdim;
            gw[at + span.start..at + span.end].copy_from_slice(src);
        }
    }
    grad_weight
}

/// The weight gradient of group `g`, taps `span`, when each output plane
/// is a single pixel: one GEMM whose inner dimension runs over the
/// samples, `acc = Σ_s gy[s]ᵀ · col_s` from `+0.0`.
///
/// The per-sample partial sum is then one product `p` added to `+0.0`,
/// and the fold `((+0.0 + (0.0 + p₀)) + (0.0 + p₁)) + …` is bit for bit the
/// chain `((0.0 + p₀) + p₁) + …`: `0.0 + p` differs from `p` only for
/// `p = -0.0`, and adding `±0.0` to an accumulator that is never `-0.0`
/// (it starts at `+0.0`, and a sum is `-0.0` only when both terms are)
/// gives the same value.
fn one_pixel_weight_grad(
    d: &ConvDims,
    x: &[f32],
    gy: &[f32],
    (g, span): (usize, Range<usize>),
    scratch: &Scratch,
    acc: &mut [f32],
) {
    let mut pad_buf = (d.pad > 0).then(|| scratch.take(d.n * d.cg * d.pplane));
    let planes = padded_planes(x, d, (g, 0, d.n), pad_buf.as_deref_mut());
    let width = span.len();
    let mut packed = scratch.take(packed_len(d.n, width));
    pack_taps(&planes, d, span, d.n, &mut packed);
    // gy_t[r, s] = gy[s, g·og + r]: the group's gradients, sample-minor.
    let mut gy_t = scratch.take(d.og * d.n);
    for (r, row) in gy_t.chunks_exact_mut(d.n).enumerate() {
        for (s, v) in row.iter_mut().enumerate() {
            *v = gy[s * d.sample_out + g * d.og + r];
        }
    }
    gemm_packed_block(&gy_t, d.og, d.n, width, &packed, acc, false);
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
            (3, 2, 5, 3, 3, 1, 1, 1), // 5x5: ohow not a multiple of NR
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
        // (8, 8, 8, ...): 72 taps x 64 pixels a sample, three a block.
        // (120, 16, 1, ...): 144 taps x 1 pixel a sample, 113 a block.
        for (i, geometry) in [(8, 8, 8, 4, 3, 1, 1, 1), (120, 16, 1, 4, 3, 1, 1, 1)]
            .into_iter()
            .enumerate()
        {
            let (n, c, side, _, k, stride, pad, groups) = geometry;
            let ohow = conv_out_dim(side, k, stride, pad).pow(2);
            assert!(
                n * (c / groups) * k * k * ohow > BLOCK_FLOATS,
                "{geometry:?}"
            );
            check_against_reference(geometry, 3100 + i as u64, Data::Normal);
        }
    }

    #[test]
    fn signed_zero_products_fold_like_the_reference() {
        // The one-pixel weight gradient folds samples in one GEMM chain
        // instead of adding per-sample partials; `-0.0` products are where
        // the two could part ways.
        let sweep: [Geometry; 4] = [
            (12, 4, 1, 3, 3, 1, 1, 1),
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
