//! Deterministic random-number utilities.
//!
//! Every stochastic component of the study (weight initialisation, dataset
//! synthesis, fault injection, batch shuffling, dropout) draws from an
//! [`Rng`] seeded from the experiment seed, so entire experiments replay
//! bit-for-bit. The paper ran 20 repetitions per configuration to control
//! variance; deterministic seeding lets us additionally replay any single
//! repetition.
//!
//! The generator is xoshiro256++ seeded through SplitMix64 — the same
//! algorithm `rand`'s `SmallRng` uses on 64-bit targets — implemented
//! in-repo so the workspace builds without network access.
//!
//! Normal draws use Box–Muller in `f32`, with `ln` and `cos` from in-repo
//! ports of glibc's `logf` and `cosf` (`crate::mathf`), checked bit for
//! bit against glibc 2.36 on every argument Box–Muller produces. No draw
//! calls the host libm, so the bits do not depend on the host.
//! [`Rng::normal`] draws one value through `mathf`'s generic body.
//! [`Rng::fill_normal`] draws eight per step, drawing the next octet's
//! words while the current octet's math runs: in AVX2 lanes where that
//! level is dispatched (`crate::simd`, the same `f64` operations in the
//! same order), through the generic body eight wide otherwise. Every
//! level gives the bits of repeated `normal()`.

use crate::mathf::{cosf, logf};
use crate::simd::{self, Lanes, LANES};
use tdfm_obs::OpTimer;

/// A small, fast, seedable RNG with the handful of distributions the study
/// needs.
///
/// # Examples
///
/// ```
/// use tdfm_tensor::rng::Rng;
///
/// let mut a = Rng::seed_from(1);
/// let mut b = Rng::seed_from(1);
/// assert_eq!(a.below(100), b.below(100));
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    state: [u64; 4],
}

/// SplitMix64 increment.
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 output step.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(PHI);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates an RNG from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        // Expand the seed into the 256-bit xoshiro state via SplitMix64,
        // so nearby seeds still give uncorrelated streams.
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { state }
    }

    /// Derives an independent child RNG. `salt` distinguishes siblings.
    ///
    /// Used to hand each component (dataset, injector, model init, ...) its
    /// own stream so that adding draws to one component does not perturb
    /// another — a property the experiment runner's caching relies on.
    pub fn derive(&self, salt: u64) -> Rng {
        // SplitMix64-style mixing of the parent's next word with the salt.
        // The parent is cloned so deriving never advances its stream.
        let mut z = salt.wrapping_mul(PHI).wrapping_add(self.clone().next_u64());
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng::seed_from(z ^ (z >> 31))
    }

    /// Uniform `f32` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo < hi, "uniform range is empty: {lo}..{hi}");
        let v = lo + self.unit() * (hi - lo);
        // Guard the half-open contract against rounding at the top end.
        if v >= hi {
            hi - (hi - lo) * f32::EPSILON
        } else {
            v
        }
    }

    /// Uniform `f32` in `[0, 1)`.
    pub fn unit(&mut self) -> f32 {
        unit_of(self.next_u32())
    }

    /// Standard normal sample: Box–Muller over two [`Rng::unit`] draws
    /// `u1`, `u2`, `sqrt(-2 ln u1) · cos(2π u2)` in `f32`. A `u1` of zero
    /// is redrawn (one word); then `u2` takes the next word.
    #[inline]
    pub fn normal(&mut self) -> f32 {
        loop {
            let w1 = self.next_u32();
            if w1 >> 8 != 0 {
                return box_muller([w1], [self.next_u32()])[0];
            }
        }
    }

    /// Fills `out` with `N(0, std²)` samples: the same bits, from the same
    /// words, as `normal() * std` for each element in turn, and the same
    /// state afterwards.
    ///
    /// Box–Muller runs eight draws at a time, in AVX2 lanes where that
    /// level is dispatched (`simd::fill_normal`). An octet with a
    /// zero `u1` word (probability 2⁻²⁴ per draw) would shift the pairing
    /// of its words: it is rewound and replayed through [`Rng::normal`].
    pub fn fill_normal(&mut self, out: &mut [f32], std: f32) {
        let _t = OpTimer::start("randn");
        simd::fill_normal(self, out, std);
    }

    /// [`Rng::fill_normal`]'s loop, `box_muller` the octet body of the
    /// dispatched level. The words of each octet are drawn while the
    /// previous octet's math runs: the serial xoshiro steps and the lane
    /// arithmetic do not wait on each other.
    #[inline(always)]
    pub(crate) fn fill_octets(
        &mut self,
        out: &mut [f32],
        std: f32,
        box_muller: impl Fn([u32; LANES], [u32; LANES]) -> Lanes,
    ) {
        let mut pending: Option<([u32; LANES], [u32; LANES], &mut [f32])> = None;
        for octet in out.chunks_mut(LANES) {
            let start = self.state;
            // A short last octet runs its unused lanes on all-ones words,
            // whose math is finite; they are not stored.
            let (mut w1, mut w2) = ([!0u32; LANES], [!0u32; LANES]);
            for (w1, w2) in w1.iter_mut().zip(&mut w2).take(octet.len()) {
                (*w1, *w2) = (self.next_u32(), self.next_u32());
            }
            if let Some((w1, w2, out)) = pending.take() {
                store_scaled(box_muller(w1, w2), std, out);
            }
            if w1.iter().any(|&w| w >> 8 == 0) {
                self.state = start;
                octet.iter_mut().for_each(|v| *v = self.normal() * std);
            } else {
                pending = Some((w1, w2, octet));
            }
        }
        if let Some((w1, w2, out)) = pending {
            store_scaled(box_muller(w1, w2), std, out);
        }
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is undefined");
        // Lemire's widening-multiply method: reject the first `2^64 % n`
        // low words so every outcome is exactly equally likely.
        let n = n as u64;
        let threshold = n.wrapping_neg() % n;
        loop {
            let m = u128::from(self.next_u64()) * u128::from(n);
            if m as u64 >= threshold {
                return (m >> 64) as usize;
            }
        }
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f32) -> bool {
        self.unit() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `0..n` (partial Fisher–Yates).
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} from {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Raw 64-bit word (for seeding sub-systems).
    pub fn next_u64(&mut self) -> u64 {
        // xoshiro256++ step.
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Raw 32-bit word (low half of the next 64-bit word).
    pub fn next_u32(&mut self) -> u32 {
        self.next_u64() as u32
    }
}

/// [`Rng::unit`] of one word: its 24 high bits → all representable
/// multiples of 2^-24, the standard float conversion.
#[inline(always)]
fn unit_of(word: u32) -> f32 {
    (word >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
}

/// `sqrt(-2 ln u1) · cos(2π u2)` lane by lane, `u` the [`Rng::unit`] of
/// each word. A lane whose `w1 >> 8` is zero gets an unspecified value.
#[inline(always)]
pub(crate) fn box_muller<const N: usize>(w1: [u32; N], w2: [u32; N]) -> [f32; N] {
    let ln = logf(w1.map(unit_of));
    let cos = cosf(w2.map(|w| std::f32::consts::TAU * unit_of(w)));
    std::array::from_fn(|l| (-2.0 * ln[l]).sqrt() * cos[l])
}

/// Stores the first `out.len()` draws of an octet, each times `std`.
#[inline(always)]
fn store_scaled(v: Lanes, std: f32, out: &mut [f32]) {
    for (o, v) in out.iter_mut().zip(v) {
        *o = v * std;
    }
}

#[cfg(test)]
mod tests {
    use super::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from(99);
        let mut b = Rng::seed_from(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn derive_streams_differ_by_salt() {
        let root = Rng::seed_from(1);
        let mut a = root.derive(0);
        let mut b = root.derive(1);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(
            same < 2,
            "derived streams should be effectively independent"
        );
    }

    #[test]
    fn derive_does_not_advance_parent() {
        let mut a = Rng::seed_from(7);
        let mut b = Rng::seed_from(7);
        let _ = a.derive(3);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::seed_from(5);
        let xs: Vec<f32> = (0..20_000).map(|_| rng.normal()).collect();
        let mean = xs.iter().sum::<f32>() / xs.len() as f32;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / xs.len() as f32;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn unit_stays_in_half_open_range() {
        let mut rng = Rng::seed_from(3);
        for _ in 0..10_000 {
            let v = rng.unit();
            assert!((0.0..1.0).contains(&v), "unit() out of range: {v}");
        }
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = Rng::seed_from(21);
        for _ in 0..10_000 {
            let v = rng.uniform(-2.5, 4.0);
            assert!((-2.5..4.0).contains(&v), "uniform() out of range: {v}");
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::seed_from(11);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::seed_from(2);
        assert!((0..100).all(|_| !rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.1)));
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        // Deterministic sweep standing in for the previous property test.
        for seed in 0..64u64 {
            let n = 1 + (seed as usize * 37) % 199;
            let k = n / 2;
            let mut rng = Rng::seed_from(seed);
            let s = rng.sample_indices(n, k);
            assert_eq!(s.len(), k);
            let set: std::collections::HashSet<_> = s.iter().collect();
            assert_eq!(set.len(), k, "indices must be distinct (n={n})");
            assert!(s.iter().all(|&i| i < n));
        }
    }

    #[test]
    fn below_in_range() {
        for seed in 0..32u64 {
            let n = 1 + (seed as usize * 97) % 999;
            let mut rng = Rng::seed_from(seed);
            for _ in 0..64 {
                assert!(rng.below(n) < n);
            }
        }
    }

    #[test]
    fn below_covers_small_ranges() {
        let mut rng = Rng::seed_from(17);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[rng.below(5)] = true;
        }
        assert!(seen.iter().all(|&s| s), "below(5) should hit every value");
    }
}
