//! GEMM building blocks of the matmul variants: panel packing + a
//! register-tiled microkernel.
//!
//! Every matmul variant reduces to `C[m,n] (+)= A[m,k] · B[k,n]`. This
//! module implements that product two ways with **bit-identical** results:
//!
//! * a *packed* path — `B` is repacked into [`NR`]-wide column panels
//!   (contiguous per `p` step, zero-padded at the right edge) and an
//!   [`MR`]×[`NR`] block of `C` is accumulated in registers. The `NR`
//!   independent `j` lanes map directly onto one 8-lane `__m256` (or two
//!   `__m128`s): the microkernel dispatches through [`crate::simd`] to an
//!   explicitly vectorised AVX2/SSE2 body, with the scalar tile as
//!   fallback — which a strict-FP dot product (`acc += x*y` over `p`)
//!   could never be.
//! * a *direct* path — the classic loops, used when the operand is too
//!   small to amortise packing; its row-sweep inner loop goes through the
//!   shared [`crate::simd::axpy`] kernel.
//!
//! Bit-identity holds because every output element is accumulated in
//! ascending-`p` order starting from `+0.0` on all paths: the same
//! sequence of f32 rounding steps, whether the partial sum lives in a
//! scalar register, a vector lane, or memory. The vector bodies use
//! separate `mul` + `add` (never FMA — fusing would round once where the
//! scalar loop rounds twice and break byte-identity across SIMD levels;
//! see DESIGN.md §2.1a). Products are **never skipped** — `0 × NaN` must
//! stay `NaN` so injected faults propagate (adding a `±0.0` product is an
//! exact identity on finite partial sums, so finite results are unchanged
//! relative to the historical zero-skipping kernels).

/// Register-tile height: rows of `C` accumulated at once.
pub(crate) const MR: usize = 4;
/// Register-tile width and `B`-panel width, in columns.
pub(crate) const NR: usize = 8;

/// Length of the packed buffer for a `[k, n]` operand: `ceil(n/NR)` panels
/// of `k × NR` elements.
pub(crate) fn packed_len(k: usize, n: usize) -> usize {
    n.div_ceil(NR) * k * NR
}

/// Whether packing `B` pays off for a `m×k×n` product.
///
/// Packing costs `O(k·n)` copies against `O(m·k·n)` fused multiply-adds,
/// and a panel narrower than half the tile wastes most of its vector
/// lanes, so tiny or skinny products use the direct loops instead. Both
/// paths produce bit-identical results; this is purely a cost model.
pub(crate) fn use_packed(m: usize, k: usize, n: usize) -> bool {
    m >= 2 && n >= NR / 2 && m * k * n >= 1024
}

/// Packs row-major `b[k, n]` into `NR`-wide column panels.
///
/// Panel `pj` holds columns `pj*NR .. pj*NR+NR`; element `(p, jj)` of the
/// panel lives at `pj*k*NR + p*NR + jj`. Columns past `n` are zero so the
/// microkernel can always run full-width (the padded lanes are computed
/// but never stored).
pub(crate) fn pack_b(b: &[f32], k: usize, n: usize, packed: &mut [f32]) {
    debug_assert_eq!(b.len(), k * n);
    let panels = n.div_ceil(NR);
    debug_assert!(packed.len() >= panels * k * NR);
    for pj in 0..panels {
        let j0 = pj * NR;
        let jw = NR.min(n - j0);
        let dst_panel = &mut packed[pj * k * NR..(pj + 1) * k * NR];
        for p in 0..k {
            let src = &b[p * n + j0..p * n + j0 + jw];
            let dst = &mut dst_panel[p * NR..(p + 1) * NR];
            dst[..jw].copy_from_slice(src);
            dst[jw..].fill(0.0);
        }
    }
}

/// Packs `bᵀ` into `NR`-wide column panels, where `b` is stored `[n, k]`.
///
/// Produces the same layout as [`pack_b`] applied to the materialised
/// transpose, without materialising it: panel column `jj` is row `j0+jj`
/// of `b`, read at unit stride.
pub(crate) fn pack_bt(b: &[f32], n: usize, k: usize, packed: &mut [f32]) {
    debug_assert_eq!(b.len(), n * k);
    let panels = n.div_ceil(NR);
    debug_assert!(packed.len() >= panels * k * NR);
    for pj in 0..panels {
        let j0 = pj * NR;
        let jw = NR.min(n - j0);
        let dst_panel = &mut packed[pj * k * NR..(pj + 1) * k * NR];
        for jj in 0..jw {
            let src = &b[(j0 + jj) * k..(j0 + jj + 1) * k];
            for (p, &v) in src.iter().enumerate() {
                dst_panel[p * NR + jj] = v;
            }
        }
        if jw < NR {
            for p in 0..k {
                dst_panel[p * NR + jw..(p + 1) * NR].fill(0.0);
            }
        }
    }
}

/// Transposes row-major `a[k, m]` into `at[m, k]`.
pub(crate) fn transpose_into(a: &[f32], k: usize, m: usize, at: &mut [f32]) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(at.len(), m * k);
    for p in 0..k {
        let src = &a[p * m..(p + 1) * m];
        for (i, &v) in src.iter().enumerate() {
            at[i * k + p] = v;
        }
    }
}

/// The register microkernel: `MRC` rows × one `NR`-wide panel.
///
/// `a` starts at the tile's first row (row-major, leading dimension `k`);
/// `out` starts at the tile's first output element (leading dimension `n`,
/// `jw` valid columns). Accumulation runs over ascending `p` into
/// zero-initialised registers, then stores (or adds) once per element.
#[inline(always)]
fn micro_tile<const MRC: usize>(
    a: &[f32],
    k: usize,
    panel: &[f32],
    out: &mut [f32],
    n: usize,
    jw: usize,
    accumulate: bool,
) {
    let mut acc = [[0.0f32; NR]; MRC];
    for p in 0..k {
        let brow = &panel[p * NR..(p + 1) * NR];
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let av = a[r * k + p];
            for c in 0..NR {
                acc_row[c] += av * brow[c];
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        let dst = &mut out[r * n..r * n + jw];
        if accumulate {
            for (o, v) in dst.iter_mut().zip(&acc_row[..jw]) {
                *o += *v;
            }
        } else {
            dst.copy_from_slice(&acc_row[..jw]);
        }
    }
}

/// `out[rows, n] (+)= a[rows, k] · B` where `B` was packed with
/// [`pack_b`] / [`pack_bt`].
///
/// `a` and `out` are the row range being produced (callers parallelise by
/// handing disjoint row blocks to worker threads). With
/// `accumulate == false` the output is fully overwritten, so it may start
/// uninitialised.
///
/// Dispatches once per block to the runtime-selected SIMD level; all three
/// bodies produce byte-identical output (see the module docs).
#[allow(unsafe_code, reason = "dispatch into the target_feature bodies below")]
pub(crate) fn gemm_packed_block(
    a: &[f32],
    rows: usize,
    k: usize,
    n: usize,
    packed: &[f32],
    out: &mut [f32],
    accumulate: bool,
) {
    debug_assert_eq!(a.len(), rows * k);
    debug_assert_eq!(out.len(), rows * n);
    debug_assert!(packed.len() >= packed_len(k, n));
    match crate::simd::simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: simd_level() returns Avx2 only when AVX2 was detected at
        // runtime on this CPU.
        crate::simd::SimdLevel::Avx2 => unsafe {
            x86::gemm_packed_block_avx2(a, rows, k, n, packed, out, accumulate)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is unconditionally present on x86-64.
        crate::simd::SimdLevel::Sse2 => unsafe {
            x86::gemm_packed_block_sse2(a, rows, k, n, packed, out, accumulate)
        },
        _ => gemm_packed_block_scalar(a, rows, k, n, packed, out, accumulate),
    }
}

/// The scalar tile sweep — canonical semantics for all SIMD levels.
fn gemm_packed_block_scalar(
    a: &[f32],
    rows: usize,
    k: usize,
    n: usize,
    packed: &[f32],
    out: &mut [f32],
    accumulate: bool,
) {
    let panels = n.div_ceil(NR);
    let mut i0 = 0;
    while i0 < rows {
        let mr = MR.min(rows - i0);
        let a_rows = &a[i0 * k..(i0 + mr) * k];
        for pj in 0..panels {
            let j0 = pj * NR;
            let jw = NR.min(n - j0);
            let panel = &packed[pj * k * NR..(pj + 1) * k * NR];
            let out_tile = &mut out[i0 * n + j0..];
            match mr {
                4 => micro_tile::<4>(a_rows, k, panel, out_tile, n, jw, accumulate),
                3 => micro_tile::<3>(a_rows, k, panel, out_tile, n, jw, accumulate),
                2 => micro_tile::<2>(a_rows, k, panel, out_tile, n, jw, accumulate),
                _ => micro_tile::<1>(a_rows, k, panel, out_tile, n, jw, accumulate),
            }
        }
        i0 += mr;
    }
}

/// Explicitly vectorised tile sweeps. Each mirrors
/// [`gemm_packed_block_scalar`] exactly: the `NR`-wide accumulator row
/// becomes one `__m256` (AVX2) or an `__m128` pair (SSE2), and every lane
/// performs the scalar element's `mul` + `add` sequence in the same
/// ascending-`p` order — no FMA, no reassociation, so the bytes match.
#[cfg(target_arch = "x86_64")]
#[allow(
    unsafe_code,
    reason = "the AVX2/SSE2 kernels are target_feature fns over raw intrinsics"
)]
mod x86 {
    use super::{MR, NR};
    use std::arch::x86_64::*;

    /// # Safety
    ///
    /// Callers must ensure AVX2 is supported by the executing CPU.
    /// Slice bounds follow [`super::gemm_packed_block`]'s debug-asserted
    /// contract (`a.len() == rows*k`, `out.len() == rows*n`,
    /// `packed.len() >= packed_len(k, n)`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm_packed_block_avx2(
        a: &[f32],
        rows: usize,
        k: usize,
        n: usize,
        packed: &[f32],
        out: &mut [f32],
        accumulate: bool,
    ) {
        let panels = n.div_ceil(NR);
        let mut i0 = 0;
        while i0 < rows {
            let mr = MR.min(rows - i0);
            let a_rows = &a[i0 * k..(i0 + mr) * k];
            for pj in 0..panels {
                let j0 = pj * NR;
                let jw = NR.min(n - j0);
                let panel = &packed[pj * k * NR..(pj + 1) * k * NR];
                let out_tile = &mut out[i0 * n + j0..];
                // SAFETY: AVX2 is available (this fn's own contract).
                unsafe {
                    match mr {
                        4 => micro_tile_avx2::<4>(a_rows, k, panel, out_tile, n, jw, accumulate),
                        3 => micro_tile_avx2::<3>(a_rows, k, panel, out_tile, n, jw, accumulate),
                        2 => micro_tile_avx2::<2>(a_rows, k, panel, out_tile, n, jw, accumulate),
                        _ => micro_tile_avx2::<1>(a_rows, k, panel, out_tile, n, jw, accumulate),
                    }
                }
            }
            i0 += mr;
        }
    }

    /// One `MRC`×[`NR`] register tile, AVX2: the scalar tile's `[f32; NR]`
    /// accumulator row is one `__m256`.
    ///
    /// # Safety
    ///
    /// Callers must ensure AVX2 is supported; `a.len() >= MRC*k`,
    /// `panel.len() >= k*NR`, and `out` must cover the tile
    /// (`(MRC-1)*n + jw` elements).
    #[target_feature(enable = "avx2")]
    unsafe fn micro_tile_avx2<const MRC: usize>(
        a: &[f32],
        k: usize,
        panel: &[f32],
        out: &mut [f32],
        n: usize,
        jw: usize,
        accumulate: bool,
    ) {
        let mut acc = [_mm256_setzero_ps(); MRC];
        for p in 0..k {
            // SAFETY: p < k and panel.len() >= k*NR, so the 8 floats at
            // panel[p*NR] are in bounds; loadu needs no alignment.
            let b = unsafe { _mm256_loadu_ps(panel.as_ptr().add(p * NR)) };
            for (r, acc_row) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_ps(a[r * k + p]);
                // mul then add: each lane rounds exactly like the scalar
                // `acc_row[c] += av * brow[c]` (two roundings, no FMA).
                *acc_row = _mm256_add_ps(*acc_row, _mm256_mul_ps(av, b));
            }
        }
        for (r, acc_row) in acc.iter().enumerate() {
            let dst = &mut out[r * n..r * n + jw];
            if jw == NR {
                if accumulate {
                    // SAFETY: dst is exactly NR == 8 floats.
                    unsafe {
                        let cur = _mm256_loadu_ps(dst.as_ptr());
                        _mm256_storeu_ps(dst.as_mut_ptr(), _mm256_add_ps(cur, *acc_row));
                    }
                } else {
                    // SAFETY: dst is exactly NR == 8 floats.
                    unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), *acc_row) };
                }
            } else {
                let mut lanes = [0.0f32; NR];
                // SAFETY: lanes is exactly 8 floats.
                unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), *acc_row) };
                if accumulate {
                    for (o, v) in dst.iter_mut().zip(&lanes[..jw]) {
                        *o += *v;
                    }
                } else {
                    dst.copy_from_slice(&lanes[..jw]);
                }
            }
        }
    }

    /// # Safety
    ///
    /// Requires nothing beyond x86-64 (SSE2 is baseline). Slice
    /// bounds follow [`super::gemm_packed_block`]'s contract.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn gemm_packed_block_sse2(
        a: &[f32],
        rows: usize,
        k: usize,
        n: usize,
        packed: &[f32],
        out: &mut [f32],
        accumulate: bool,
    ) {
        let panels = n.div_ceil(NR);
        let mut i0 = 0;
        while i0 < rows {
            let mr = MR.min(rows - i0);
            let a_rows = &a[i0 * k..(i0 + mr) * k];
            for pj in 0..panels {
                let j0 = pj * NR;
                let jw = NR.min(n - j0);
                let panel = &packed[pj * k * NR..(pj + 1) * k * NR];
                let out_tile = &mut out[i0 * n + j0..];
                // SAFETY: SSE2 is baseline on x86-64.
                unsafe {
                    match mr {
                        4 => micro_tile_sse2::<4>(a_rows, k, panel, out_tile, n, jw, accumulate),
                        3 => micro_tile_sse2::<3>(a_rows, k, panel, out_tile, n, jw, accumulate),
                        2 => micro_tile_sse2::<2>(a_rows, k, panel, out_tile, n, jw, accumulate),
                        _ => micro_tile_sse2::<1>(a_rows, k, panel, out_tile, n, jw, accumulate),
                    }
                }
            }
            i0 += mr;
        }
    }

    /// One `MRC`×[`NR`] register tile, SSE2: the `[f32; NR]` accumulator
    /// row is a pair of `__m128`s (lanes 0..4 and 4..8).
    ///
    /// # Safety
    ///
    /// Callers must uphold the same bounds contract as [`micro_tile_avx2`];
    /// SSE2 is baseline.
    #[target_feature(enable = "sse2")]
    unsafe fn micro_tile_sse2<const MRC: usize>(
        a: &[f32],
        k: usize,
        panel: &[f32],
        out: &mut [f32],
        n: usize,
        jw: usize,
        accumulate: bool,
    ) {
        let mut acc = [[_mm_setzero_ps(); 2]; MRC];
        for p in 0..k {
            // SAFETY: p < k and panel.len() >= k*NR, so the 8 floats at
            // panel[p*NR] are in bounds; loadu needs no alignment.
            let (b0, b1) = unsafe {
                let base = panel.as_ptr().add(p * NR);
                (_mm_loadu_ps(base), _mm_loadu_ps(base.add(4)))
            };
            for (r, acc_row) in acc.iter_mut().enumerate() {
                let av = _mm_set1_ps(a[r * k + p]);
                acc_row[0] = _mm_add_ps(acc_row[0], _mm_mul_ps(av, b0));
                acc_row[1] = _mm_add_ps(acc_row[1], _mm_mul_ps(av, b1));
            }
        }
        for (r, acc_row) in acc.iter().enumerate() {
            let dst = &mut out[r * n..r * n + jw];
            if jw == NR {
                if accumulate {
                    // SAFETY: dst is exactly NR == 8 floats (two halves).
                    unsafe {
                        let cur0 = _mm_loadu_ps(dst.as_ptr());
                        let cur1 = _mm_loadu_ps(dst.as_ptr().add(4));
                        _mm_storeu_ps(dst.as_mut_ptr(), _mm_add_ps(cur0, acc_row[0]));
                        _mm_storeu_ps(dst.as_mut_ptr().add(4), _mm_add_ps(cur1, acc_row[1]));
                    }
                } else {
                    // SAFETY: dst is exactly NR == 8 floats (two halves).
                    unsafe {
                        _mm_storeu_ps(dst.as_mut_ptr(), acc_row[0]);
                        _mm_storeu_ps(dst.as_mut_ptr().add(4), acc_row[1]);
                    }
                }
            } else {
                let mut lanes = [0.0f32; NR];
                // SAFETY: lanes is exactly 8 floats (two halves).
                unsafe {
                    _mm_storeu_ps(lanes.as_mut_ptr(), acc_row[0]);
                    _mm_storeu_ps(lanes.as_mut_ptr().add(4), acc_row[1]);
                }
                if accumulate {
                    for (o, v) in dst.iter_mut().zip(&lanes[..jw]) {
                        *o += *v;
                    }
                } else {
                    dst.copy_from_slice(&lanes[..jw]);
                }
            }
        }
    }
}

/// Direct `out[m,n] (+)= a[m,k] · b[k,n]` (row-major `b`, `ikj` order).
pub(crate) fn gemm_direct(
    a: &[f32],
    m: usize,
    k: usize,
    n: usize,
    b: &[f32],
    out: &mut [f32],
    accumulate: bool,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        if !accumulate {
            out_row.fill(0.0);
        }
        for (p, &a_ip) in a_row.iter().enumerate() {
            let b_row = &b[p * n..(p + 1) * n];
            crate::simd::axpy(a_ip, b_row, out_row);
        }
    }
}

/// Direct `out[m,n] (+)= aᵀ · b` where `a` is stored `[k, m]`, `b` `[k, n]`.
///
/// Reads `a` down its columns without transposing; preferable to the
/// packed path only for skinny products.
pub(crate) fn gemm_direct_atb(
    a: &[f32],
    b: &[f32],
    k: usize,
    m: usize,
    n: usize,
    out: &mut [f32],
    accumulate: bool,
) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if !accumulate {
        out.fill(0.0);
    }
    for p in 0..k {
        let a_row = &a[p * m..(p + 1) * m];
        let b_row = &b[p * n..(p + 1) * n];
        for (i, &a_pi) in a_row.iter().enumerate() {
            let out_row = &mut out[i * n..(i + 1) * n];
            crate::simd::axpy(a_pi, b_row, out_row);
        }
    }
}

/// Direct `out[m,n] (+)= a[m,k] · bᵀ` where `b` is stored `[n, k]`.
///
/// Stays scalar by design: its inner loop is a *serial* dot-product fold,
/// and distributing that sum over vector lanes would reassociate it and
/// change the bytes (see DESIGN.md §2.1a). Only skinny products take this
/// path, so there is little to win.
pub(crate) fn gemm_direct_abt(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    accumulate: bool,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0;
            for (&x, &y) in a_row.iter().zip(b_row) {
                acc += x * y;
            }
            if accumulate {
                out[i * n + j] += acc;
            } else {
                out[i * n + j] = acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn naive(a: &[f32], m: usize, k: usize, n: usize, b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    fn random(len: usize, rng: &mut Rng) -> Vec<f32> {
        (0..len).map(|_| rng.normal()).collect()
    }

    #[test]
    fn packed_block_matches_naive_over_shapes() {
        for seed in 0..24u64 {
            let mut rng = Rng::seed_from(seed);
            let (m, k, n) = (1 + rng.below(13), 1 + rng.below(20), 1 + rng.below(21));
            let a = random(m * k, &mut rng);
            let b = random(k * n, &mut rng);
            let mut packed = vec![0.0; packed_len(k, n)];
            pack_b(&b, k, n, &mut packed);
            let mut out = vec![f32::NAN; m * n]; // stores must overwrite
            gemm_packed_block(&a, m, k, n, &packed, &mut out, false);
            let want = naive(&a, m, k, n, &b);
            for (i, (x, y)) in out.iter().zip(&want).enumerate() {
                assert!((x - y).abs() < 1e-4, "{m}x{k}x{n} seed {seed} elem {i}");
            }
        }
    }

    #[test]
    fn packed_and_direct_paths_are_bit_identical() {
        // The cost model may route the same shape either way between
        // releases; goldens rely on the two paths agreeing exactly.
        for seed in 0..16u64 {
            let mut rng = Rng::seed_from(100 + seed);
            let (m, k, n) = (1 + rng.below(9), 1 + rng.below(17), 1 + rng.below(17));
            let a = random(m * k, &mut rng);
            let b = random(k * n, &mut rng);
            let mut packed = vec![0.0; packed_len(k, n)];
            pack_b(&b, k, n, &mut packed);
            let mut fast = vec![0.0; m * n];
            gemm_packed_block(&a, m, k, n, &packed, &mut fast, false);
            let mut direct = vec![0.0; m * n];
            gemm_direct(&a, m, k, n, &b, &mut direct, false);
            assert_eq!(
                fast.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                direct.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{m}x{k}x{n} seed {seed}"
            );
        }
    }

    #[test]
    fn pack_bt_equals_pack_of_transpose() {
        let mut rng = Rng::seed_from(7);
        let (n, k) = (11, 9);
        let bt = random(n * k, &mut rng); // stored [n, k]
        let mut b = vec![0.0; k * n];
        transpose_into(&bt, n, k, &mut b); // b[k, n]
        let mut packed_a = vec![0.0; packed_len(k, n)];
        pack_bt(&bt, n, k, &mut packed_a);
        let mut packed_b = vec![0.0; packed_len(k, n)];
        pack_b(&b, k, n, &mut packed_b);
        assert_eq!(packed_a, packed_b);
    }

    #[test]
    fn accumulate_adds_on_top() {
        let mut rng = Rng::seed_from(8);
        let (m, k, n) = (5, 6, 10);
        let a = random(m * k, &mut rng);
        let b = random(k * n, &mut rng);
        let base = random(m * n, &mut rng);
        let mut packed = vec![0.0; packed_len(k, n)];
        pack_b(&b, k, n, &mut packed);
        let mut out = base.clone();
        gemm_packed_block(&a, m, k, n, &packed, &mut out, true);
        let want = naive(&a, m, k, n, &b);
        for i in 0..m * n {
            assert!((out[i] - (base[i] + want[i])).abs() < 1e-4);
        }
    }

    #[test]
    fn nan_in_a_reaches_every_output_column() {
        // The heart of the bugfix: 0 × NaN must not be skipped.
        let (m, k, n) = (3, 4, 9);
        let mut a = vec![0.0; m * k]; // all-zero A would have skipped every product
        a[k + 2] = f32::NAN; // row 1
        let b = vec![1.0; k * n];
        let mut packed = vec![0.0; packed_len(k, n)];
        pack_b(&b, k, n, &mut packed);
        let mut out = vec![0.0; m * n];
        gemm_packed_block(&a, m, k, n, &packed, &mut out, false);
        for j in 0..n {
            assert!(out[n + j].is_nan(), "column {j}");
            assert_eq!(out[j], 0.0);
            assert_eq!(out[2 * n + j], 0.0);
        }
        let mut direct = vec![0.0; m * n];
        gemm_direct(&a, m, k, n, &b, &mut direct, false);
        assert!(direct[n..2 * n].iter().all(|v| v.is_nan()));
    }

    #[test]
    fn zero_times_nan_in_b_propagates_too() {
        let (m, k, n) = (2, 3, 5);
        let a = vec![0.0; m * k];
        let mut b = vec![2.0; k * n];
        b[n + 3] = f32::INFINITY; // 0 × inf = NaN
        let mut packed = vec![0.0; packed_len(k, n)];
        pack_b(&b, k, n, &mut packed);
        let mut out = vec![0.0; m * n];
        gemm_packed_block(&a, m, k, n, &packed, &mut out, false);
        for i in 0..m {
            assert!(out[i * n + 3].is_nan(), "row {i}");
            assert_eq!(out[i * n], 0.0);
        }
    }

    #[test]
    fn direct_transposed_variants_match_naive() {
        let mut rng = Rng::seed_from(9);
        let (m, k, n) = (6, 7, 5);
        let at = random(k * m, &mut rng); // stored [k, m]
        let b = random(k * n, &mut rng);
        let mut a = vec![0.0; m * k];
        transpose_into(&at, k, m, &mut a);
        let want = naive(&a, m, k, n, &b);
        let mut out = vec![f32::NAN; m * n];
        gemm_direct_atb(&at, &b, k, m, n, &mut out, false);
        for (x, y) in out.iter().zip(&want) {
            assert!((x - y).abs() < 1e-4);
        }

        let bt = random(n * k, &mut rng); // stored [n, k]
        let mut b2 = vec![0.0; k * n];
        transpose_into(&bt, n, k, &mut b2);
        let a2 = random(m * k, &mut rng);
        let want2 = naive(&a2, m, k, n, &b2);
        let mut out2 = vec![f32::NAN; m * n];
        gemm_direct_abt(&a2, &bt, m, k, n, &mut out2, false);
        for (x, y) in out2.iter().zip(&want2) {
            assert!((x - y).abs() < 1e-4);
        }
    }
}
