//! Bit-exact ports of glibc's `logf` and `cosf` for the Box–Muller draws
//! of [`crate::rng::Rng`].
//!
//! glibc 2.28 and later computes `logf` and `cosf` with the algorithms of
//! Arm's optimized-routines (`math/logf.c`, `math/cosf.c`; MIT OR
//! Apache-2.0, like this workspace): each widens to `f64`, evaluates a
//! short polynomial and rounds once to `f32`. The functions here repeat
//! those `f64` operations in the same order, with the same constants, so
//! they return the host libm's bits without calling it. The constants were
//! read from glibc 2.36's `libm.so.6` on x86-64 (`__logf_data`,
//! `__sincosf_table`), and the tests pin a digest of each port's outputs
//! over its whole Box–Muller input domain: 2²⁴ − 1 arguments for
//! `logf`, 2²⁴ for `cosf`.
//!
//! Rust never contracts `a * b + c` into a fused multiply-add, so every
//! multiply and every add rounds on its own, in the instruction order of
//! glibc's SSE2 build. glibc's FMA build rounds some pairs once and
//! returns the same `f32`s on these domains (both builds were compared on
//! every argument): the `f64` error is far below half an `f32` ulp. The
//! ports thus keep the no-FMA bit-identity policy of [`crate::simd`] and
//! give the same bits at every SIMD level.
//!
//! Both functions run over `[f32; N]` with no branch on the data, so
//! [`crate::rng::Rng::normal`] (`N = 1`) and
//! [`crate::rng::Rng::fill_normal`] below AVX2 (`N = 8`) share one body.
//! `fill_normal`'s AVX2 instance runs an intrinsic copy in `crate::simd`,
//! which the digest tests hold to the same pins. They cover only the
//! arguments Box–Muller produces: `logf` positive normal `f32`s below
//! one, `cosf` finite `f32`s in `[0, 120)`. glibc's special cases (zero,
//! subnormals, negatives, NaN, `|x| ≥ 120`) are not ported.

/// `logf`'s table: `(1/c, ln c)` for 16 subintervals of `[OFF, 2·OFF)`.
pub(crate) static LOGF_TAB: [(u64, u64); 16] = [
    (0x3ff6_61ec_79f8_f3be, 0xbfd5_7bf7_808c_aade),
    (0x3ff5_71ed_4aaf_883d, 0xbfd2_bef0_a7c0_6ddb),
    (0x3ff4_9539_f0f0_10b0, 0xbfd0_1eae_7f51_3a67),
    (0x3ff3_c995_b0b8_0385, 0xbfcb_31d8_a682_24e9),
    (0x3ff3_0d19_0c88_64a5, 0xbfc6_574f_0ac0_7758),
    (0x3ff2_5e22_7b0b_8ea0, 0xbfc1_aa2b_c79c_8100),
    (0x3ff1_bb4a_4a1a_343f, 0xbfba_4e76_ce8c_0e5e),
    (0x3ff1_2358_f08a_e5ba, 0xbfb1_973c_5a61_1ccc),
    (0x3ff0_953f_4199_00a7, 0xbfa2_52f4_38e1_0c1e),
    (0x3ff0_0000_0000_0000, 0x0000_0000_0000_0000),
    (0x3fee_608c_fd9a_47ac, 0x3faa_a5aa_5df2_5984),
    (0x3fec_a4b3_1f02_6aa0, 0x3fbc_5e53_aa36_2eb4),
    (0x3feb_2036_576a_fce6, 0x3fc5_26e5_7720_db08),
    (0x3fe9_c2d1_63a1_aa2d, 0x3fcb_c286_0d22_4770),
    (0x3fe8_86e6_0378_41ed, 0x3fd1_058b_c8a0_7ee1),
    (0x3fe7_67dc_f553_4862, 0x3fd4_0430_57b6_ee09),
];

/// `ln 2`.
pub(crate) const LN2: u64 = 0x3fe6_2e42_fefa_39ef;

/// `log1p(r) ≈ r + A0·r² + A1·r³ + A2·r⁴`.
pub(crate) const LOGF_POLY: [u64; 3] = [
    0xbfd0_0ea3_48b8_8334,
    0x3fd5_575b_0be0_0b6a,
    0xbfdf_fffe_f20a_4123,
];

/// The bits of `0x3f33_0000` (≈ 0.7): `logf` splits `x = 2^k · z` with
/// `z` in `[OFF, 2·OFF)`.
pub(crate) const OFF: u32 = 0x3f33_0000;

/// `2/π · 2²⁴`: the quadrant lands in bits 24..32 of the product.
pub(crate) const HPI_INV: u64 = 0x4164_5f30_6dc9_c883;

/// `2⁵²`: adding it to a non-negative `f64` below 2⁵² rounds to an
/// integer held in the low mantissa bits.
pub(crate) const ROUND_MAGIC: u64 = 0x4330_0000_0000_0000;

/// `π/2`.
pub(crate) const HPI: u64 = 0x3ff9_21fb_5444_2d18;

/// `cos r ≈ C0 + C1·r² + C2·r⁴ + C3·r⁶ + C4·r⁸` on `|r| ≤ π/4`.
pub(crate) const COS_POLY: [u64; 5] = [
    0x3ff0_0000_0000_0000,
    0xbfdf_ffff_fd0c_621c,
    0x3fa5_5553_e106_8f19,
    0xbf56_c087_e89a_359d,
    0x3ef9_9343_027b_f8c3,
];

/// `sin r ≈ r + S1·r³ + S2·r⁵ + S3·r⁷` on `|r| ≤ π/4`.
pub(crate) const SIN_POLY: [u64; 3] = [
    0xbfc5_5554_5995_a603,
    0x3f81_1076_0523_0bc4,
    0xbf29_94eb_3774_cf24,
];

#[inline(always)]
pub(crate) fn c(bits: u64) -> f64 {
    f64::from_bits(bits)
}

/// glibc's `logf`, lane by lane, for positive normal arguments.
#[inline(always)]
pub(crate) fn logf<const N: usize>(x: [f32; N]) -> [f32; N] {
    // The integer split and the table lookup first, then the arithmetic
    // over whole arrays, so the second loop vectorises.
    let (mut z, mut invc, mut logc, mut k) = ([0.0f64; N], [0.0; N], [0.0; N], [0.0; N]);
    for l in 0..N {
        let ix = x[l].to_bits();
        let tmp = ix.wrapping_sub(OFF);
        let (inv, log) = LOGF_TAB[(tmp >> 19) as usize % 16];
        (invc[l], logc[l]) = (c(inv), c(log));
        k[l] = f64::from(tmp as i32 >> 23);
        z[l] = f64::from(f32::from_bits(ix.wrapping_sub(tmp & 0xff80_0000)));
    }
    let a = LOGF_POLY.map(c);
    let mut out = [0.0f32; N];
    for l in 0..N {
        // log x = log1p(z/c - 1) + log c + k·ln 2.
        let r = z[l] * invc[l] - 1.0;
        let y0 = logc[l] + k[l] * c(LN2);
        let r2 = r * r;
        let y = a[1] * r + a[2];
        let y = a[0] * r2 + y;
        out[l] = (y * r2 + (y0 + r)) as f32;
    }
    out
}

/// glibc's `cosf`, lane by lane, for finite arguments in `[0, 120)`.
///
/// glibc branches three ways: `1.0` below 2⁻¹², the cosine polynomial
/// below π/4 and a reduction to `[-π/4, π/4]` above. For arguments below
/// π/4 the reduction finds quadrant 0 and leaves the argument exact, and
/// below 2⁻¹² the polynomial rounds to `1.0`, so reducing every lane
/// gives all three paths' bits. The quadrant's table swap and sine sign
/// only negate the polynomial exactly, so they become one sign flip.
#[inline(always)]
pub(crate) fn cosf<const N: usize>(y: [f32; N]) -> [f32; N] {
    let (cp, sp) = (COS_POLY.map(c), SIN_POLY.map(c));
    let mut out = [0.0f32; N];
    for l in 0..N {
        let x = f64::from(y[l]);
        // `x · 2/π · 2²⁴` lies in `[0, 2³¹)`, so glibc's truncating
        // conversion is a floor: round through the 2⁵² magic add, whose
        // low word is then the nearest integer, and step down where that
        // rounded up. Unlike `as i32`, which saturates, this stays in
        // vector registers.
        let t = x * c(HPI_INV);
        let r = t + c(ROUND_MAGIC);
        let q = (r.to_bits() as i32).wrapping_sub(i32::from(r - c(ROUND_MAGIC) > t));
        let n = (q + 0x80_0000) >> 24;
        let x = x - f64::from(n) * c(HPI);
        let x2 = x * x;
        let x4 = x2 * x2;
        let cos_hi = cp[3] + x2 * cp[4];
        let cos_lo = cp[0] + x2 * cp[1];
        let x6 = x4 * x2;
        let cos = cos_lo + x4 * cp[2];
        let cos = cos + x6 * cos_hi;
        let x3 = x * x2;
        let sin_hi = sp[1] + x2 * sp[2];
        let x5 = x3 * x2;
        let sin = x + x3 * sp[0];
        let sin = sin + x5 * sin_hi;
        // Even quadrants take the cosine, odd ones the sine, through a bit
        // mask: a branch here is taken at random. Quadrants 1 and 2
        // negate the result.
        let odd = u64::from(n as u32 & 1).wrapping_neg();
        let v = f64::from_bits(cos.to_bits() & !odd | sin.to_bits() & odd) as f32;
        out[l] = f32::from_bits(v.to_bits() ^ ((n ^ (n >> 1)) as u32 & 1) << 31);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::{cosf, logf};

    /// FNV-1a over the bits of `port` at `arg(k)` for every `k` in `ks`,
    /// eight arguments at a time (the width of `fill_normal`'s lane
    /// kernel); asserts that one at a time (`normal`'s width) agrees.
    fn digest(
        ks: std::ops::Range<u32>,
        arg: impl Fn(u32) -> f32,
        port8: impl Fn([f32; 8]) -> [f32; 8],
        port1: impl Fn([f32; 1]) -> [f32; 1],
    ) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for k0 in ks.clone().step_by(8) {
            // Lanes past the end repeat the last argument and are not hashed.
            let x = std::array::from_fn(|l| arg((k0 + l as u32).min(ks.end - 1)));
            let used = (ks.end - k0).min(8) as usize;
            for (&v, &x) in port8(x).iter().zip(&x).take(used) {
                assert_eq!(v.to_bits(), port1([x])[0].to_bits(), "at {x:e}");
                for b in v.to_bits().to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        h
    }

    /// The `u` of `Rng::unit` for the 24-bit word `k`.
    fn unit(k: u32) -> f32 {
        k as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Every `u1` Box–Muller accepts: `k / 2²⁴` for `k` in `1..2²⁴`.
    /// The pin equals the digest of glibc 2.36's `logf` on these inputs.
    /// `fill_normal`'s AVX2 body, where the CPU has it, must match too.
    #[test]
    fn logf_matches_its_pin_on_every_unit_draw() {
        let got = digest(1..1 << 24, unit, logf, logf);
        assert_eq!(got, 0x3082_b50a_d06e_eacf, "logf digest {got:#018x}");
        if let Some([logf8, _]) = crate::simd::avx2_logf_cosf() {
            let got = digest(1..1 << 24, unit, logf8, logf);
            assert_eq!(got, 0x3082_b50a_d06e_eacf, "AVX2 logf digest {got:#018x}");
        }
    }

    /// Every angle `2π·u2`, `u2 = k / 2²⁴` for `k` in `0..2²⁴`. The pin
    /// equals the digest of glibc 2.36's `cosf` on these inputs.
    /// `fill_normal`'s AVX2 body, where the CPU has it, must match too.
    #[test]
    fn cosf_matches_its_pin_on_every_angle_draw() {
        let angle = |k| std::f32::consts::TAU * unit(k);
        let got = digest(0..1 << 24, angle, cosf, cosf);
        assert_eq!(got, 0xe07b_64a8_dea8_4cdf, "cosf digest {got:#018x}");
        if let Some([_, cosf8]) = crate::simd::avx2_logf_cosf() {
            let got = digest(0..1 << 24, angle, cosf8, cosf);
            assert_eq!(got, 0xe07b_64a8_dea8_4cdf, "AVX2 cosf digest {got:#018x}");
        }
    }
}
