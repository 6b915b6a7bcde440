//! Runtime-dispatched SIMD kernels (AVX2 / SSE2 / scalar).
//!
//! Every vector kernel in the workspace funnels through this module: one
//! dispatch point per op, selected once per process from CPU detection
//! (`is_x86_feature_detected!`) and the `TDFM_SIMD` environment variable.
//! Callers never change — `Tensor::axpy`, the GEMM microkernel and the nn
//! layers call the same functions whether the machine has AVX2 or not.
//!
//! # Bit-identity policy (why there is no FMA here)
//!
//! The repo's goldens and drift gates rely on results being byte-identical
//! across thread counts *and* across SIMD levels. A fused multiply-add
//! rounds once where `mul` + `add` round twice, so an FMA kernel would
//! produce different bytes than the scalar loop — and different bytes on
//! machines without FMA. Instead, every vector kernel performs the exact
//! same sequence of f32 operations as its scalar fallback, just eight (or
//! four) independent lanes at a time: lane `j` of the vector accumulator
//! sees precisely the roundings that scalar element `j` would. Reductions
//! whose scalar form is a *serial* fold (dot products, softmax sums) are
//! left scalar, because distributing them over lanes reassociates the sum.
//! Box–Muller (`Rng::fill_normal`) follows the same rule in `f64`: the
//! ports of glibc's `logf` and `cosf` in `crate::mathf` keep every
//! multiply and add separate, as glibc's SSE2 build does, instead of
//! calling the host libm, and `fill_normal`'s AVX2 body repeats those
//! operations in order in vector lanes (four `f64` lanes a register, the
//! `logf` table read by gathers). See DESIGN.md §2.1a.
//!
//! # NaN discipline
//!
//! No lane kernel may launder NaN: comparisons use ordered predicates that
//! return false on NaN (matching scalar `>`), and the ReLU forward keeps
//! the exact "return x unless 0.0 > x" form whose vector equivalent
//! (`max_ps` with the zero operand first) propagates NaN inputs unchanged.
//!
//! # Overriding dispatch
//!
//! `TDFM_SIMD` (read once per process): `auto` (default) picks the best
//! detected level; `avx2` / `sse2` request a level (clamped to what the
//! CPU supports); `off` / `scalar` force the scalar fallbacks. Unknown
//! values conservatively mean `off`. Tests and benches can override
//! in-process with [`force_simd`].
#![allow(
    unsafe_code,
    reason = "the vector kernels are target_feature fns over raw intrinsics"
)]

use crate::rng::{box_muller, Rng};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Which kernel family [`simd_level`] dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Plain scalar loops — the canonical semantics.
    Scalar,
    /// 4-lane `__m128` kernels (baseline on every x86-64).
    Sse2,
    /// 8-lane `__m256` kernels (runtime-detected).
    Avx2,
}

impl SimdLevel {
    /// Stable lowercase name, used as bench/manifest provenance.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// In-process override set by [`force_simd`]; 0 = none, else level + 1.
static FORCED: AtomicU8 = AtomicU8::new(0);

#[expect(
    clippy::disallowed_methods,
    reason = "documented read-once config site: TDFM_SIMD (README \"Parallelism\")"
)]
fn detected_level() -> SimdLevel {
    static DETECTED: OnceLock<SimdLevel> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        let best = best_hardware_level();
        match std::env::var("TDFM_SIMD").as_deref() {
            Ok("auto") | Err(_) => best,
            Ok("avx2") => {
                if best == SimdLevel::Avx2 {
                    SimdLevel::Avx2
                } else {
                    best
                }
            }
            Ok("sse2") => {
                if best == SimdLevel::Scalar {
                    SimdLevel::Scalar
                } else {
                    SimdLevel::Sse2
                }
            }
            // "off", "scalar", and any typo: conservatively scalar.
            Ok(_) => SimdLevel::Scalar,
        }
    })
}

#[cfg(target_arch = "x86_64")]
fn best_hardware_level() -> SimdLevel {
    if std::arch::is_x86_feature_detected!("avx2") {
        SimdLevel::Avx2
    } else {
        // SSE2 is part of the x86-64 baseline: always present.
        SimdLevel::Sse2
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn best_hardware_level() -> SimdLevel {
    SimdLevel::Scalar
}

/// The level every dispatch point uses for this call.
///
/// Resolution order: [`force_simd`] override, then `TDFM_SIMD` + CPU
/// detection (cached for the life of the process).
pub fn simd_level() -> SimdLevel {
    match FORCED.load(Ordering::Relaxed) {
        1 => SimdLevel::Scalar,
        2 => SimdLevel::Sse2,
        3 => SimdLevel::Avx2,
        _ => detected_level(),
    }
}

/// Provenance string for manifests and bench records.
pub fn simd_name() -> &'static str {
    simd_level().name()
}

/// Overrides the dispatch level in-process (the SIMD equivalence tests).
///
/// `Some(level)` forces that level — clamped to the hardware's best, so
/// forcing `Avx2` on a machine without it silently degrades (the
/// equivalence tests compare levels *up to* the detected best). `None`
/// restores `TDFM_SIMD` + detection. Affects all threads.
pub fn force_simd(level: Option<SimdLevel>) {
    let code = match level {
        None => 0,
        Some(want) => {
            let best = best_hardware_level();
            let eff = match (want, best) {
                (SimdLevel::Avx2, SimdLevel::Avx2) => SimdLevel::Avx2,
                (SimdLevel::Avx2, b) | (SimdLevel::Sse2, b) => {
                    if b == SimdLevel::Scalar {
                        SimdLevel::Scalar
                    } else {
                        SimdLevel::Sse2
                    }
                }
                (SimdLevel::Scalar, _) => SimdLevel::Scalar,
            };
            eff as u8 + 1
        }
    };
    FORCED.store(code, Ordering::Relaxed);
}

/// Levels worth testing on this machine, best first.
pub fn available_levels() -> Vec<SimdLevel> {
    match best_hardware_level() {
        SimdLevel::Avx2 => vec![SimdLevel::Avx2, SimdLevel::Sse2, SimdLevel::Scalar],
        SimdLevel::Sse2 => vec![SimdLevel::Sse2, SimdLevel::Scalar],
        SimdLevel::Scalar => vec![SimdLevel::Scalar],
    }
}

// ---------------------------------------------------------------------------
// Elementwise kernels. Each op has one scalar body (the canonical
// semantics) and per-level vector bodies that replicate it lane-wise:
// identical operation order per element, so results are byte-identical
// across levels.
// ---------------------------------------------------------------------------

/// `y[i] += alpha * x[i]` (separate mul and add — two roundings, same as
/// the scalar loop; never fused).
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: simd_level() returns Avx2 only when AVX2 was detected at
        // runtime on this CPU.
        SimdLevel::Avx2 => unsafe { x86::axpy_avx2(alpha, x, y) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is unconditionally present on x86-64.
        SimdLevel::Sse2 => unsafe { x86::axpy_sse2(alpha, x, y) },
        _ => axpy_scalar(alpha, x, y),
    }
}

fn axpy_scalar(alpha: f32, x: &[f32], y: &mut [f32]) {
    for (o, &v) in y.iter_mut().zip(x) {
        *o += alpha * v;
    }
}

/// `x[i] *= alpha`.
pub fn scale(x: &mut [f32], alpha: f32) {
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: simd_level() returns Avx2 only when AVX2 was detected.
        SimdLevel::Avx2 => unsafe { x86::scale_avx2(x, alpha) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is unconditionally present on x86-64.
        SimdLevel::Sse2 => unsafe { x86::scale_sse2(x, alpha) },
        _ => scale_scalar(x, alpha),
    }
}

fn scale_scalar(x: &mut [f32], alpha: f32) {
    for v in x {
        *v *= alpha;
    }
}

/// `x[i] += alpha` (used as `x - s` via `alpha = -s`: IEEE negation is
/// exact, so `x + (-s)` rounds identically to `x - s`).
pub fn add_scalar(x: &mut [f32], alpha: f32) {
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: simd_level() returns Avx2 only when AVX2 was detected.
        SimdLevel::Avx2 => unsafe { x86::add_scalar_avx2(x, alpha) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is unconditionally present on x86-64.
        SimdLevel::Sse2 => unsafe { x86::add_scalar_sse2(x, alpha) },
        _ => add_scalar_scalar(x, alpha),
    }
}

fn add_scalar_scalar(x: &mut [f32], alpha: f32) {
    for v in x {
        *v += alpha;
    }
}

/// `y[i] += x[i]`.
pub fn add_assign(y: &mut [f32], x: &[f32]) {
    debug_assert_eq!(x.len(), y.len());
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: simd_level() returns Avx2 only when AVX2 was detected.
        SimdLevel::Avx2 => unsafe { x86::add_assign_avx2(y, x) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is unconditionally present on x86-64.
        SimdLevel::Sse2 => unsafe { x86::add_assign_sse2(y, x) },
        _ => add_assign_scalar(y, x),
    }
}

fn add_assign_scalar(y: &mut [f32], x: &[f32]) {
    for (o, &v) in y.iter_mut().zip(x) {
        *o += v;
    }
}

/// SGD momentum update: `v[i] = m*v[i] + g[i] + wd*w[i]`, evaluated in
/// exactly that association — `(m*v + g) + wd*w` — on every path.
pub fn momentum_update(v: &mut [f32], g: &[f32], w: &[f32], m: f32, wd: f32) {
    debug_assert_eq!(v.len(), g.len());
    debug_assert_eq!(v.len(), w.len());
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: simd_level() returns Avx2 only when AVX2 was detected.
        SimdLevel::Avx2 => unsafe { x86::momentum_update_avx2(v, g, w, m, wd) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is unconditionally present on x86-64.
        SimdLevel::Sse2 => unsafe { x86::momentum_update_sse2(v, g, w, m, wd) },
        _ => momentum_update_scalar(v, g, w, m, wd),
    }
}

fn momentum_update_scalar(v: &mut [f32], g: &[f32], w: &[f32], m: f32, wd: f32) {
    for ((vi, &gi), &wi) in v.iter_mut().zip(g).zip(w) {
        *vi = m * *vi + gi + wd * wi;
    }
}

/// ReLU forward: `out[i] = if 0.0 > x[i] { 0.0 } else { x[i] }` and, when
/// a mask is given, `mask[i] = if x[i] > 0.0 { !0 } else { 0 }`.
///
/// NaN propagates (`0.0 > NaN` is false, so NaN inputs pass through) and
/// `-0.0` is preserved — exactly the semantics of `max_ps(zero, x)`,
/// which returns its *second* operand on NaN or equal zeros. The output
/// bits do not depend on whether the mask is written.
pub fn relu_forward(x: &[f32], out: &mut [f32], mask: Option<&mut [u32]>) {
    debug_assert_eq!(x.len(), out.len());
    debug_assert!(mask.as_ref().is_none_or(|m| m.len() == x.len()));
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: simd_level() returns Avx2 only when AVX2 was detected.
        SimdLevel::Avx2 => unsafe { x86::relu_forward_avx2(x, out, mask) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is unconditionally present on x86-64.
        SimdLevel::Sse2 => unsafe { x86::relu_forward_sse2(x, out, mask) },
        _ => relu_forward_scalar(x, out, mask),
    }
}

fn relu_forward_scalar(x: &[f32], out: &mut [f32], mask: Option<&mut [u32]>) {
    for (o, &v) in out.iter_mut().zip(x) {
        *o = if 0.0 > v { 0.0 } else { v };
    }
    if let Some(mask) = mask {
        for (m, &v) in mask.iter_mut().zip(x) {
            *m = if v > 0.0 { !0 } else { 0 };
        }
    }
}

/// ReLU backward: `out[i] = g[i]` where the forward mask is set, else
/// `+0.0` — implemented as a bitwise AND with the all-ones/all-zeros mask.
pub fn relu_backward(g: &[f32], mask: &[u32], out: &mut [f32]) {
    debug_assert_eq!(g.len(), out.len());
    debug_assert_eq!(g.len(), mask.len());
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: simd_level() returns Avx2 only when AVX2 was detected.
        SimdLevel::Avx2 => unsafe { x86::relu_backward_avx2(g, mask, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is unconditionally present on x86-64.
        SimdLevel::Sse2 => unsafe { x86::relu_backward_sse2(g, mask, out) },
        _ => relu_backward_scalar(g, mask, out),
    }
}

fn relu_backward_scalar(g: &[f32], mask: &[u32], out: &mut [f32]) {
    for ((o, &m), &gv) in out.iter_mut().zip(mask).zip(g) {
        *o = f32::from_bits(gv.to_bits() & m);
    }
}

// ---------------------------------------------------------------------------
// Lane kernels: loop bodies written once over `[f32; 8]`, each lane an
// independent scalar computation (the convolution puts one sample in each
// lane). The body is compiled twice, for AVX2 and for the baseline target;
// neither form fuses a multiply and an add, so both give the same bits.
// ---------------------------------------------------------------------------

/// Lanes of one [`Lanes`] vector.
pub(crate) const LANES: usize = 8;

/// One value per lane.
pub(crate) type Lanes = [f32; LANES];

/// A loop body over [`Lanes`] that [`run_lanes`] compiles per SIMD level.
pub(crate) trait LaneKernel {
    /// Runs the body. Implementations mark it `#[inline(always)]`, so it is
    /// compiled into [`run_lanes`]'s AVX2 instance with AVX2 enabled.
    fn lane_loop(self);
}

/// Runs `kernel` compiled for AVX2 when that level is dispatched, and as
/// baseline code otherwise.
pub(crate) fn run_lanes(kernel: impl LaneKernel) {
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: simd_level() returns Avx2 only when AVX2 was detected.
        SimdLevel::Avx2 => unsafe { x86::run_lanes_avx2(kernel) },
        _ => kernel.lane_loop(),
    }
}

/// [`Rng::fill_normal`]: its octet loop ([`Rng::fill_octets`]) with
/// Box–Muller in AVX2 lanes when that level is dispatched, and through the
/// generic [`crate::mathf`] bodies otherwise. Both run the same `f64` and
/// `f32` operations in the same order, so every level gives the same bits.
pub(crate) fn fill_normal(rng: &mut Rng, out: &mut [f32], std: f32) {
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: simd_level() returns Avx2 only when AVX2 was detected.
        SimdLevel::Avx2 => unsafe { x86::fill_normal_avx2(rng, out, std) },
        _ => rng.fill_octets(out, std, box_muller),
    }
}

/// A function of one octet.
#[cfg(test)]
pub(crate) type LaneFn = fn(Lanes) -> Lanes;

/// The AVX2 `logf` and `cosf` bodies of [`fill_normal`] over one octet,
/// when this CPU has AVX2, so the digest tests of [`crate::mathf`] hold
/// them to the same pins as the generic bodies.
#[cfg(test)]
pub(crate) fn avx2_logf_cosf() -> Option<[LaneFn; 2]> {
    #[cfg(target_arch = "x86_64")]
    if best_hardware_level() == SimdLevel::Avx2 {
        return Some([
            // SAFETY: AVX2 was detected on this CPU.
            |x| unsafe { x86::logf_array(x) },
            // SAFETY: AVX2 was detected on this CPU.
            |x| unsafe { x86::cosf_array(x) },
        ]);
    }
    None
}

/// Transposes an 8×8 tile in place: `t[i][j]` and `t[j][i]` swap. A data
/// move, so every level gives the same bits.
#[inline(always)]
pub(crate) fn transpose8(t: &mut [Lanes; LANES]) {
    let rows = *t;
    lanes_to_rows(
        &rows,
        [0, 1, 2, 3, 4, 5, 6, 7],
        LANES,
        t.as_flattened_mut(),
        LANES,
    );
}

/// Transposes eight rows of eight floats, row `l` at `src[l·stride..]`,
/// into eight lane vectors: vector `k` (element `k` of every row) goes to
/// `dst[at[k]]`.
///
/// # Panics
///
/// Panics if a row or an index is out of bounds.
#[inline(always)]
pub(crate) fn rows_to_lanes(src: &[f32], stride: usize, at: [usize; LANES], dst: &mut [Lanes]) {
    assert!((LANES - 1) * stride + LANES <= src.len() && at.iter().all(|&i| i < dst.len()));
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: simd_level() returns Avx2 only when AVX2 was detected;
        // the bounds were asserted above.
        SimdLevel::Avx2 => unsafe { x86::rows_to_lanes_avx2(src, stride, at, dst) },
        _ => {
            for (k, &i) in at.iter().enumerate() {
                for (l, v) in dst[i].iter_mut().enumerate() {
                    *v = src[l * stride + k];
                }
            }
        }
    }
}

/// The inverse of [`rows_to_lanes`] for the first `rows` rows: lane `l`
/// of the vectors `src[at[k]]` becomes row `l`, `dst[l·stride..][..8]`.
///
/// # Panics
///
/// Panics if `rows > 8`, or if a row or an index is out of bounds.
#[inline(always)]
pub(crate) fn lanes_to_rows(
    src: &[Lanes],
    at: [usize; LANES],
    rows: usize,
    dst: &mut [f32],
    stride: usize,
) {
    assert!(rows <= LANES && at.iter().all(|&i| i < src.len()));
    assert!(rows == 0 || (rows - 1) * stride + LANES <= dst.len());
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: simd_level() returns Avx2 only when AVX2 was detected;
        // the bounds were asserted above.
        SimdLevel::Avx2 => unsafe { x86::lanes_to_rows_avx2(src, at, rows, dst, stride) },
        _ => {
            for l in 0..rows {
                for (k, &i) in at.iter().enumerate() {
                    dst[l * stride + k] = src[i][l];
                }
            }
        }
    }
}

/// The x86-64 vector bodies. Every function replicates its scalar
/// counterpart lane-wise with unaligned loads/stores (the Scratch arena
/// hands out 32-byte-aligned buffers, which makes these loads fast, but
/// correctness never depends on alignment). Tails shorter than a vector
/// run the scalar loop.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// One unaligned 8-lane load from `s[i..i+8]`.
    ///
    /// # Safety
    ///
    /// Callers must uphold `i + 8 <= s.len()`.
    #[inline(always)]
    unsafe fn ld256(s: &[f32], i: usize) -> __m256 {
        debug_assert!(i + 8 <= s.len());
        // SAFETY: caller guarantees i+8 <= s.len(), so the 32 bytes at
        // s[i] are inside the slice; loadu has no alignment requirement.
        unsafe { _mm256_loadu_ps(s.as_ptr().add(i)) }
    }

    /// One unaligned 8-lane store to `s[i..i+8]`.
    ///
    /// # Safety
    ///
    /// Callers must uphold `i + 8 <= s.len()`.
    #[inline(always)]
    unsafe fn st256(s: &mut [f32], i: usize, v: __m256) {
        debug_assert!(i + 8 <= s.len());
        // SAFETY: caller guarantees i+8 <= s.len(); storeu is unaligned.
        unsafe { _mm256_storeu_ps(s.as_mut_ptr().add(i), v) }
    }

    /// One unaligned 4-lane load from `s[i..i+4]`.
    ///
    /// # Safety
    ///
    /// Callers must uphold `i + 4 <= s.len()`.
    #[inline(always)]
    unsafe fn ld128(s: &[f32], i: usize) -> __m128 {
        debug_assert!(i + 4 <= s.len());
        // SAFETY: caller guarantees i+4 <= s.len(); loadu is unaligned.
        unsafe { _mm_loadu_ps(s.as_ptr().add(i)) }
    }

    /// One unaligned 4-lane store to `s[i..i+4]`.
    ///
    /// # Safety
    ///
    /// Callers must uphold `i + 4 <= s.len()`.
    #[inline(always)]
    unsafe fn st128(s: &mut [f32], i: usize, v: __m128) {
        debug_assert!(i + 4 <= s.len());
        // SAFETY: caller guarantees i+4 <= s.len(); storeu is unaligned.
        unsafe { _mm_storeu_ps(s.as_mut_ptr().add(i), v) }
    }

    /// [`super::LaneKernel::lane_loop`], inlined here and compiled with AVX2.
    ///
    /// # Safety
    ///
    /// Callers must ensure AVX2 is supported by the executing CPU.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn run_lanes_avx2(kernel: impl super::LaneKernel) {
        kernel.lane_loop();
    }

    /// Eight floats into a register.
    ///
    /// # Safety
    ///
    /// Callers must ensure AVX2 is supported by the executing CPU.
    #[cfg(test)]
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load8(x: &super::Lanes) -> __m256 {
        // SAFETY: `x` is eight floats; loadu has no alignment requirement.
        unsafe { _mm256_loadu_ps(x.as_ptr()) }
    }

    /// A register into eight floats.
    ///
    /// # Safety
    ///
    /// Callers must ensure AVX2 is supported by the executing CPU.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn store8(v: __m256) -> super::Lanes {
        let mut out = [0.0; super::LANES];
        // SAFETY: `out` is eight floats; storeu has no alignment requirement.
        unsafe { _mm256_storeu_ps(out.as_mut_ptr(), v) };
        out
    }

    /// [`crate::mathf::logf`] over eight lanes: the same `f64` operations
    /// in the same order, four lanes per `f64` register, the `(1/c, ln c)`
    /// table read by gathers instead of eight scalar loads.
    ///
    /// # Safety
    ///
    /// Callers must ensure AVX2 is supported by the executing CPU.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn logf_lanes(x: __m256) -> __m256 {
        use crate::mathf::{c, LN2, LOGF_POLY, LOGF_TAB, OFF};
        let ix = _mm256_castps_si256(x);
        let tmp = _mm256_sub_epi32(ix, _mm256_set1_epi32(OFF as i32));
        // Entry `i` of the table is the `f64` pair at `2i` and `2i + 1`.
        let at = _mm256_and_si256(_mm256_srli_epi32::<19>(tmp), _mm256_set1_epi32(15));
        let at = _mm256_slli_epi32::<1>(at);
        let k = _mm256_srai_epi32::<23>(tmp);
        let top = _mm256_and_si256(tmp, _mm256_set1_epi32(0xff80_0000_u32 as i32));
        let z = _mm256_castsi256_ps(_mm256_sub_epi32(ix, top));
        let tab = LOGF_TAB.as_ptr().cast::<f64>();
        let [a0, a1, a2] = LOGF_POLY.map(|a| _mm256_set1_pd(c(a)));
        let (one, ln2) = (_mm256_set1_pd(1.0), _mm256_set1_pd(c(LN2)));
        let half = |at: __m128i, k: __m128i, z: __m128| {
            // SAFETY: every index is `2i` with `i < 16`, so both gathers
            // read inside the table's 32 `f64`s.
            let (invc, logc) = unsafe {
                (
                    _mm256_i32gather_pd::<8>(tab, at),
                    _mm256_i32gather_pd::<8>(tab.add(1), at),
                )
            };
            let (z, k) = (_mm256_cvtps_pd(z), _mm256_cvtepi32_pd(k));
            let r = _mm256_sub_pd(_mm256_mul_pd(z, invc), one);
            let y0 = _mm256_add_pd(logc, _mm256_mul_pd(k, ln2));
            let r2 = _mm256_mul_pd(r, r);
            let y = _mm256_add_pd(_mm256_mul_pd(a1, r), a2);
            let y = _mm256_add_pd(_mm256_mul_pd(a0, r2), y);
            _mm256_cvtpd_ps(_mm256_add_pd(_mm256_mul_pd(y, r2), _mm256_add_pd(y0, r)))
        };
        let lo = half(
            _mm256_castsi256_si128(at),
            _mm256_castsi256_si128(k),
            _mm256_castps256_ps128(z),
        );
        let hi = half(
            _mm256_extracti128_si256::<1>(at),
            _mm256_extracti128_si256::<1>(k),
            _mm256_extractf128_ps::<1>(z),
        );
        _mm256_set_m128(hi, lo)
    }

    /// [`crate::mathf::cosf`] over eight lanes: the same `f64` operations
    /// in the same order, the quadrant `n` in `i32` lanes, its parity
    /// selecting the sine by a blend and its sign flip an `f32` xor.
    ///
    /// # Safety
    ///
    /// Callers must ensure AVX2 is supported by the executing CPU.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn cosf_lanes(y: __m256) -> __m256 {
        use crate::mathf::{c, COS_POLY, HPI, HPI_INV, ROUND_MAGIC, SIN_POLY};
        let (hpi_inv, magic) = (_mm256_set1_pd(c(HPI_INV)), _mm256_set1_pd(c(ROUND_MAGIC)));
        let x = [
            _mm256_cvtps_pd(_mm256_castps256_ps128(y)),
            _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(y)),
        ];
        // `floor(x · 2/π · 2²⁴)` in the low word of each 64-bit lane:
        // adding the all-ones compare mask subtracts one where the magic
        // add rounded up.
        let q = x.map(|x| {
            let t = _mm256_mul_pd(x, hpi_inv);
            let r = _mm256_add_pd(t, magic);
            let up = _mm256_cmp_pd::<_CMP_GT_OQ>(_mm256_sub_pd(r, magic), t);
            _mm256_castsi256_ps(_mm256_add_epi64(
                _mm256_castpd_si256(r),
                _mm256_castpd_si256(up),
            ))
        });
        // The low words of both halves, then back in lane order.
        let q = _mm256_castps_si256(_mm256_shuffle_ps::<0x88>(q[0], q[1]));
        let q = _mm256_permute4x64_epi64::<0xd8>(q);
        let n = _mm256_srai_epi32::<24>(_mm256_add_epi32(q, _mm256_set1_epi32(0x80_0000)));
        // Bit 0 of `n` in the sign bit, where the blend reads it.
        let odd = _mm256_slli_epi32::<31>(n);
        let hpi = _mm256_set1_pd(c(HPI));
        let [c0, c1, c2, c3, c4] = COS_POLY.map(|a| _mm256_set1_pd(c(a)));
        let [s0, s1, s2] = SIN_POLY.map(|a| _mm256_set1_pd(c(a)));
        let half = |x: __m256d, n: __m128i, odd: __m128i| {
            let x = _mm256_sub_pd(x, _mm256_mul_pd(_mm256_cvtepi32_pd(n), hpi));
            let x2 = _mm256_mul_pd(x, x);
            let x4 = _mm256_mul_pd(x2, x2);
            let cos_hi = _mm256_add_pd(c3, _mm256_mul_pd(x2, c4));
            let cos_lo = _mm256_add_pd(c0, _mm256_mul_pd(x2, c1));
            let x6 = _mm256_mul_pd(x4, x2);
            let cos = _mm256_add_pd(cos_lo, _mm256_mul_pd(x4, c2));
            let cos = _mm256_add_pd(cos, _mm256_mul_pd(x6, cos_hi));
            let x3 = _mm256_mul_pd(x, x2);
            let sin_hi = _mm256_add_pd(s1, _mm256_mul_pd(x2, s2));
            let x5 = _mm256_mul_pd(x3, x2);
            let sin = _mm256_add_pd(x, _mm256_mul_pd(x3, s0));
            let sin = _mm256_add_pd(sin, _mm256_mul_pd(x5, sin_hi));
            let odd = _mm256_castsi256_pd(_mm256_cvtepi32_epi64(odd));
            _mm256_cvtpd_ps(_mm256_blendv_pd(cos, sin, odd))
        };
        let v = _mm256_set_m128(
            half(
                x[1],
                _mm256_extracti128_si256::<1>(n),
                _mm256_extracti128_si256::<1>(odd),
            ),
            half(x[0], _mm256_castsi256_si128(n), _mm256_castsi256_si128(odd)),
        );
        // Quadrants 1 and 2 negate.
        let neg = _mm256_slli_epi32::<31>(_mm256_xor_si256(n, _mm256_srai_epi32::<1>(n)));
        _mm256_xor_ps(v, _mm256_castsi256_ps(neg))
    }

    /// [`crate::rng::box_muller`] over eight word pairs, in lanes.
    ///
    /// # Safety
    ///
    /// Callers must ensure AVX2 is supported by the executing CPU.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn box_muller_lanes(w1: [u32; super::LANES], w2: [u32; super::LANES]) -> super::Lanes {
        let unit = |w: [u32; super::LANES]| {
            // SAFETY: `w` is eight words; loadu has no alignment
            // requirement.
            let w = unsafe { _mm256_loadu_si256(w.as_ptr().cast()) };
            // The 24 high bits convert exactly, as signed or unsigned.
            let u = _mm256_cvtepi32_ps(_mm256_srli_epi32::<8>(w));
            _mm256_mul_ps(u, _mm256_set1_ps(1.0 / (1u32 << 24) as f32))
        };
        let ln = logf_lanes(unit(w1));
        let angle = _mm256_mul_ps(_mm256_set1_ps(std::f32::consts::TAU), unit(w2));
        let cos = cosf_lanes(angle);
        let r = _mm256_sqrt_ps(_mm256_mul_ps(_mm256_set1_ps(-2.0), ln));
        store8(_mm256_mul_ps(r, cos))
    }

    /// [`super::fill_normal`] with Box–Muller in AVX2 lanes.
    ///
    /// # Safety
    ///
    /// Callers must ensure AVX2 is supported by the executing CPU.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fill_normal_avx2(rng: &mut super::Rng, out: &mut [f32], std: f32) {
        rng.fill_octets(out, std, |w1, w2| box_muller_lanes(w1, w2));
    }

    /// [`logf_lanes`] over an array.
    ///
    /// # Safety
    ///
    /// Callers must ensure AVX2 is supported by the executing CPU.
    #[cfg(test)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn logf_array(x: super::Lanes) -> super::Lanes {
        store8(logf_lanes(load8(&x)))
    }

    /// [`cosf_lanes`] over an array.
    ///
    /// # Safety
    ///
    /// Callers must ensure AVX2 is supported by the executing CPU.
    #[cfg(test)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn cosf_array(x: super::Lanes) -> super::Lanes {
        store8(cosf_lanes(load8(&x)))
    }

    /// The 8×8 transpose of eight registers, as three rounds of
    /// shuffles: interleave row pairs, then pairs of pairs, then swap
    /// 128-bit halves.
    ///
    /// # Safety
    ///
    /// Callers must ensure AVX2 is supported by the executing CPU.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn transpose_regs(r: [__m256; 8]) -> [__m256; 8] {
        let a = [
            _mm256_unpacklo_ps(r[0], r[1]),
            _mm256_unpackhi_ps(r[0], r[1]),
            _mm256_unpacklo_ps(r[2], r[3]),
            _mm256_unpackhi_ps(r[2], r[3]),
            _mm256_unpacklo_ps(r[4], r[5]),
            _mm256_unpackhi_ps(r[4], r[5]),
            _mm256_unpacklo_ps(r[6], r[7]),
            _mm256_unpackhi_ps(r[6], r[7]),
        ];
        let b = [
            _mm256_shuffle_ps::<0x44>(a[0], a[2]),
            _mm256_shuffle_ps::<0xEE>(a[0], a[2]),
            _mm256_shuffle_ps::<0x44>(a[1], a[3]),
            _mm256_shuffle_ps::<0xEE>(a[1], a[3]),
            _mm256_shuffle_ps::<0x44>(a[4], a[6]),
            _mm256_shuffle_ps::<0xEE>(a[4], a[6]),
            _mm256_shuffle_ps::<0x44>(a[5], a[7]),
            _mm256_shuffle_ps::<0xEE>(a[5], a[7]),
        ];
        [
            _mm256_permute2f128_ps::<0x20>(b[0], b[4]),
            _mm256_permute2f128_ps::<0x20>(b[1], b[5]),
            _mm256_permute2f128_ps::<0x20>(b[2], b[6]),
            _mm256_permute2f128_ps::<0x20>(b[3], b[7]),
            _mm256_permute2f128_ps::<0x31>(b[0], b[4]),
            _mm256_permute2f128_ps::<0x31>(b[1], b[5]),
            _mm256_permute2f128_ps::<0x31>(b[2], b[6]),
            _mm256_permute2f128_ps::<0x31>(b[3], b[7]),
        ]
    }

    /// # Safety
    ///
    /// Callers must ensure AVX2 is supported, that every row
    /// `src[l·stride..][..8]` is in bounds and that every `at[k] <
    /// dst.len()`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn rows_to_lanes_avx2(
        src: &[f32],
        stride: usize,
        at: [usize; super::LANES],
        dst: &mut [super::Lanes],
    ) {
        let mut r = [_mm256_setzero_ps(); super::LANES];
        for (l, v) in r.iter_mut().enumerate() {
            // SAFETY: row l is in bounds (this fn's contract).
            *v = unsafe { ld256(src, l * stride) };
        }
        for (v, &i) in transpose_regs(r).iter().zip(&at) {
            // SAFETY: i < dst.len() (this fn's contract); a lane vector is
            // eight floats.
            unsafe { _mm256_storeu_ps(dst.as_mut_ptr().add(i).cast(), *v) };
        }
    }

    /// # Safety
    ///
    /// Callers must ensure AVX2 is supported, that `rows <= 8`, that every
    /// `at[k] < src.len()` and that rows `0..rows` of `dst` are in bounds.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn lanes_to_rows_avx2(
        src: &[super::Lanes],
        at: [usize; super::LANES],
        rows: usize,
        dst: &mut [f32],
        stride: usize,
    ) {
        let mut r = [_mm256_setzero_ps(); super::LANES];
        for (v, &i) in r.iter_mut().zip(&at) {
            // SAFETY: i < src.len() (this fn's contract).
            *v = unsafe { _mm256_loadu_ps(src.as_ptr().add(i).cast()) };
        }
        for (l, v) in transpose_regs(r).iter().enumerate().take(rows) {
            // SAFETY: row l < rows is in bounds (this fn's contract).
            unsafe { st256(dst, l * stride, *v) };
        }
    }

    /// # Safety
    ///
    /// Callers must ensure AVX2 is supported by the executing CPU.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_avx2(alpha: f32, x: &[f32], y: &mut [f32]) {
        let n = x.len();
        let a = _mm256_set1_ps(alpha);
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: i + 8 <= n = x.len() = y.len().
            unsafe {
                let prod = _mm256_mul_ps(a, ld256(x, i));
                st256(y, i, _mm256_add_ps(ld256(y, i), prod));
            }
            i += 8;
        }
        super::axpy_scalar(alpha, &x[i..], &mut y[i..]);
    }

    /// # Safety
    ///
    /// Requires nothing beyond x86-64 (SSE2 is baseline).
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn axpy_sse2(alpha: f32, x: &[f32], y: &mut [f32]) {
        let n = x.len();
        let a = _mm_set1_ps(alpha);
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: i + 4 <= n = x.len() = y.len().
            unsafe {
                let prod = _mm_mul_ps(a, ld128(x, i));
                st128(y, i, _mm_add_ps(ld128(y, i), prod));
            }
            i += 4;
        }
        super::axpy_scalar(alpha, &x[i..], &mut y[i..]);
    }

    /// # Safety
    ///
    /// Callers must ensure AVX2 is supported by the executing CPU.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scale_avx2(x: &mut [f32], alpha: f32) {
        let n = x.len();
        let a = _mm256_set1_ps(alpha);
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: i + 8 <= n = x.len().
            unsafe { st256(x, i, _mm256_mul_ps(ld256(x, i), a)) };
            i += 8;
        }
        super::scale_scalar(&mut x[i..], alpha);
    }

    /// # Safety
    ///
    /// Requires nothing beyond x86-64 (SSE2 is baseline).
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn scale_sse2(x: &mut [f32], alpha: f32) {
        let n = x.len();
        let a = _mm_set1_ps(alpha);
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: i + 4 <= n = x.len().
            unsafe { st128(x, i, _mm_mul_ps(ld128(x, i), a)) };
            i += 4;
        }
        super::scale_scalar(&mut x[i..], alpha);
    }

    /// # Safety
    ///
    /// Callers must ensure AVX2 is supported by the executing CPU.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn add_scalar_avx2(x: &mut [f32], alpha: f32) {
        let n = x.len();
        let a = _mm256_set1_ps(alpha);
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: i + 8 <= n = x.len().
            unsafe { st256(x, i, _mm256_add_ps(ld256(x, i), a)) };
            i += 8;
        }
        super::add_scalar_scalar(&mut x[i..], alpha);
    }

    /// # Safety
    ///
    /// Requires nothing beyond x86-64 (SSE2 is baseline).
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn add_scalar_sse2(x: &mut [f32], alpha: f32) {
        let n = x.len();
        let a = _mm_set1_ps(alpha);
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: i + 4 <= n = x.len().
            unsafe { st128(x, i, _mm_add_ps(ld128(x, i), a)) };
            i += 4;
        }
        super::add_scalar_scalar(&mut x[i..], alpha);
    }

    /// # Safety
    ///
    /// Callers must ensure AVX2 is supported by the executing CPU.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn add_assign_avx2(y: &mut [f32], x: &[f32]) {
        let n = x.len();
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: i + 8 <= n = x.len() = y.len().
            unsafe { st256(y, i, _mm256_add_ps(ld256(y, i), ld256(x, i))) };
            i += 8;
        }
        super::add_assign_scalar(&mut y[i..], &x[i..]);
    }

    /// # Safety
    ///
    /// Requires nothing beyond x86-64 (SSE2 is baseline).
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn add_assign_sse2(y: &mut [f32], x: &[f32]) {
        let n = x.len();
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: i + 4 <= n = x.len() = y.len().
            unsafe { st128(y, i, _mm_add_ps(ld128(y, i), ld128(x, i))) };
            i += 4;
        }
        super::add_assign_scalar(&mut y[i..], &x[i..]);
    }

    /// # Safety
    ///
    /// Callers must ensure AVX2 is supported by the executing CPU.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn momentum_update_avx2(
        v: &mut [f32],
        g: &[f32],
        w: &[f32],
        m: f32,
        wd: f32,
    ) {
        let n = v.len();
        let mv = _mm256_set1_ps(m);
        let wdv = _mm256_set1_ps(wd);
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: i + 8 <= n = v.len() = g.len() = w.len().
            unsafe {
                // Same association as scalar: (m*v + g) + wd*w.
                let t = _mm256_add_ps(_mm256_mul_ps(mv, ld256(v, i)), ld256(g, i));
                st256(v, i, _mm256_add_ps(t, _mm256_mul_ps(wdv, ld256(w, i))));
            }
            i += 8;
        }
        super::momentum_update_scalar(&mut v[i..], &g[i..], &w[i..], m, wd);
    }

    /// # Safety
    ///
    /// Requires nothing beyond x86-64 (SSE2 is baseline).
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn momentum_update_sse2(
        v: &mut [f32],
        g: &[f32],
        w: &[f32],
        m: f32,
        wd: f32,
    ) {
        let n = v.len();
        let mv = _mm_set1_ps(m);
        let wdv = _mm_set1_ps(wd);
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: i + 4 <= n = v.len() = g.len() = w.len().
            unsafe {
                let t = _mm_add_ps(_mm_mul_ps(mv, ld128(v, i)), ld128(g, i));
                st128(v, i, _mm_add_ps(t, _mm_mul_ps(wdv, ld128(w, i))));
            }
            i += 4;
        }
        super::momentum_update_scalar(&mut v[i..], &g[i..], &w[i..], m, wd);
    }

    /// # Safety
    ///
    /// Callers must ensure AVX2 is supported by the executing CPU.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn relu_forward_avx2(
        x: &[f32],
        out: &mut [f32],
        mut mask: Option<&mut [u32]>,
    ) {
        let n = x.len();
        let zero = _mm256_setzero_ps();
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: i + 8 <= n = x.len() = out.len() = mask.len() (when
            // given); the mask store writes 8 u32 (32 bytes) inside mask.
            unsafe {
                let v = ld256(x, i);
                // max_ps(zero, x): returns x on NaN or equal zeros —
                // NaN-propagating, -0.0-preserving ReLU.
                st256(out, i, _mm256_max_ps(zero, v));
                if let Some(mask) = mask.as_deref_mut() {
                    // Ordered greater-than: false (mask 0) on NaN.
                    let m = _mm256_cmp_ps::<_CMP_GT_OQ>(v, zero);
                    _mm256_storeu_si256(
                        mask.as_mut_ptr().add(i) as *mut __m256i,
                        _mm256_castps_si256(m),
                    );
                }
            }
            i += 8;
        }
        let tail = mask.map(|m| &mut m[i..]);
        super::relu_forward_scalar(&x[i..], &mut out[i..], tail);
    }

    /// # Safety
    ///
    /// Requires nothing beyond x86-64 (SSE2 is baseline).
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn relu_forward_sse2(
        x: &[f32],
        out: &mut [f32],
        mut mask: Option<&mut [u32]>,
    ) {
        let n = x.len();
        let zero = _mm_setzero_ps();
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: i + 4 <= n = x.len() = out.len() = mask.len() (when
            // given); the mask store writes 4 u32 (16 bytes) inside mask.
            unsafe {
                let v = ld128(x, i);
                st128(out, i, _mm_max_ps(zero, v));
                if let Some(mask) = mask.as_deref_mut() {
                    // cmpgt is an ordered predicate: false (mask 0) on NaN.
                    let m = _mm_cmpgt_ps(v, zero);
                    _mm_storeu_si128(
                        mask.as_mut_ptr().add(i) as *mut __m128i,
                        _mm_castps_si128(m),
                    );
                }
            }
            i += 4;
        }
        let tail = mask.map(|m| &mut m[i..]);
        super::relu_forward_scalar(&x[i..], &mut out[i..], tail);
    }

    /// # Safety
    ///
    /// Callers must ensure AVX2 is supported by the executing CPU.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn relu_backward_avx2(g: &[f32], mask: &[u32], out: &mut [f32]) {
        let n = g.len();
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: i + 8 <= n = g.len() = mask.len() = out.len(); the
            // mask load reads 8 u32 (32 bytes) inside mask.
            unsafe {
                let m = _mm256_loadu_si256(mask.as_ptr().add(i) as *const __m256i);
                st256(out, i, _mm256_and_ps(ld256(g, i), _mm256_castsi256_ps(m)));
            }
            i += 8;
        }
        super::relu_backward_scalar(&g[i..], &mask[i..], &mut out[i..]);
    }

    /// # Safety
    ///
    /// Requires nothing beyond x86-64 (SSE2 is baseline).
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn relu_backward_sse2(g: &[f32], mask: &[u32], out: &mut [f32]) {
        let n = g.len();
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: i + 4 <= n = g.len() = mask.len() = out.len(); the
            // mask load reads 4 u32 (16 bytes) inside mask.
            unsafe {
                let m = _mm_loadu_si128(mask.as_ptr().add(i) as *const __m128i);
                st128(out, i, _mm_and_ps(ld128(g, i), _mm_castsi128_ps(m)));
            }
            i += 4;
        }
        super::relu_backward_scalar(&g[i..], &mask[i..], &mut out[i..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Serialises tests that flip the process-global forced level.
    fn forced_lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    fn random(len: usize, rng: &mut Rng) -> Vec<f32> {
        (0..len).map(|_| rng.normal()).collect()
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn all_levels_produce_identical_bytes() {
        let _guard = forced_lock();
        let mut rng = Rng::seed_from(42);
        // Lengths straddle vector widths to exercise every tail case.
        for len in [0usize, 1, 3, 4, 7, 8, 9, 15, 16, 17, 31, 33, 100] {
            let x = random(len, &mut rng);
            let g = random(len, &mut rng);
            let w = random(len, &mut rng);
            let mut want: Option<Vec<Vec<u32>>> = None;
            for level in available_levels() {
                force_simd(Some(level));
                let mut y = g.clone();
                axpy(0.37, &x, &mut y);
                let mut s = x.clone();
                scale(&mut s, -1.25);
                let mut v = w.clone();
                momentum_update(&mut v, &g, &x, 0.9, 5e-4);
                let mut relu_out = vec![0.0; len];
                let mut mask = vec![0u32; len];
                relu_forward(&x, &mut relu_out, Some(&mut mask));
                let mut maskless = vec![0.0; len];
                relu_forward(&x, &mut maskless, None);
                assert_eq!(
                    bits(&maskless),
                    bits(&relu_out),
                    "len {len} level {level:?}"
                );
                let mut back = vec![0.0; len];
                relu_backward(&g, &mask, &mut back);
                let got = vec![bits(&y), bits(&s), bits(&v), bits(&relu_out), bits(&back)];
                match &want {
                    None => want = Some(got),
                    Some(w0) => assert_eq!(w0, &got, "len {len} level {level:?}"),
                }
            }
            force_simd(None);
        }
    }

    #[test]
    fn relu_propagates_nan_and_keeps_negative_zero_on_every_level() {
        let _guard = forced_lock();
        let x = [
            f32::NAN,
            -1.0,
            -0.0,
            0.0,
            2.5,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -3.0,
            f32::NAN,
            1.0,
        ];
        for level in available_levels() {
            force_simd(Some(level));
            let mut out = [0.0f32; 10];
            let mut mask = [0u32; 10];
            relu_forward(&x, &mut out, Some(&mut mask));
            assert!(out[0].is_nan(), "{level:?}: NaN must pass through");
            assert!(out[8].is_nan(), "{level:?}: NaN in the tail too");
            assert_eq!(out[1].to_bits(), 0.0f32.to_bits(), "{level:?}");
            assert_eq!(
                out[2].to_bits(),
                (-0.0f32).to_bits(),
                "{level:?}: -0.0 preserved"
            );
            assert_eq!(out[4], 2.5, "{level:?}");
            assert_eq!(out[5], f32::INFINITY, "{level:?}");
            assert_eq!(out[6].to_bits(), 0.0f32.to_bits(), "{level:?}");
            // NaN compares false: masked out of the backward pass.
            assert_eq!(mask[0], 0, "{level:?}");
            assert_eq!(mask[4], !0, "{level:?}");
        }
        force_simd(None);
    }

    #[test]
    fn forced_level_is_clamped_to_hardware() {
        let _guard = forced_lock();
        force_simd(Some(SimdLevel::Avx2));
        let got = simd_level();
        assert!(available_levels().contains(&got));
        force_simd(None);
    }
}
