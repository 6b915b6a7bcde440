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
//! [`Rng::fill_normal`] draws a whole buffer in a lane kernel;
//! [`Rng::normal`] draws one value through the same body.

use crate::mathf::{cosf, logf};
use crate::simd::{run_lanes, LaneKernel, LANES};
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
    /// Each block of [`FILL_BLOCK`] draws takes its `2·len` words first
    /// and runs Box–Muller in a lane kernel. A block with a zero `u1` word
    /// (probability 2⁻²⁴ per draw) would shift the pairing of its words:
    /// it is rewound and replayed through [`Rng::normal`].
    pub fn fill_normal(&mut self, out: &mut [f32], std: f32) {
        let _t = OpTimer::start("randn");
        let mut words = [[0u32; FILL_BLOCK]; 2];
        for block in out.chunks_mut(FILL_BLOCK) {
            let start = self.state;
            let [w1, w2] = &mut words;
            for (w1, w2) in w1.iter_mut().zip(w2).take(block.len()) {
                (*w1, *w2) = (self.next_u32(), self.next_u32());
            }
            if w1[..block.len()].iter().any(|&w| w >> 8 == 0) {
                self.state = start;
                block.iter_mut().for_each(|v| *v = self.normal() * std);
            } else {
                run_lanes(BoxMuller(&words, std, block));
            }
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

/// Draws per block of [`Rng::fill_normal`].
const FILL_BLOCK: usize = 64;

/// [`Rng::unit`] of one word: its 24 high bits → all representable
/// multiples of 2^-24, the standard float conversion.
#[inline(always)]
fn unit_of(word: u32) -> f32 {
    (word >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
}

/// `sqrt(-2 ln u1) · cos(2π u2)` lane by lane, `u` the [`Rng::unit`] of
/// each word. A lane whose `w1 >> 8` is zero gets an unspecified value.
#[inline(always)]
fn box_muller<const N: usize>(w1: [u32; N], w2: [u32; N]) -> [f32; N] {
    let ln = logf(w1.map(unit_of));
    let cos = cosf(w2.map(|w| std::f32::consts::TAU * unit_of(w)));
    std::array::from_fn(|l| (-2.0 * ln[l]).sqrt() * cos[l])
}

/// [`Rng::fill_normal`]'s kernel: Box–Muller over a block's `u1` and `u2`
/// words, scaled by `std`, eight draws per step.
struct BoxMuller<'a>(&'a [[u32; FILL_BLOCK]; 2], f32, &'a mut [f32]);

impl LaneKernel for BoxMuller<'_> {
    #[inline(always)]
    fn lane_loop(self) {
        let BoxMuller([w1, w2], std, out) = self;
        for (i, out) in out.chunks_mut(LANES).enumerate() {
            // A short last octet also runs its unused lanes, on words left
            // from an earlier block (or zero); they are not stored.
            let lanes = |w: &[u32; FILL_BLOCK]| -> [u32; LANES] {
                std::array::from_fn(|l| w[i * LANES + l])
            };
            let v = box_muller(lanes(w1), lanes(w2));
            for (o, v) in out.iter_mut().zip(v) {
                *o = v * std;
            }
        }
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

    /// `fill_normal` against `normal() * std`, element by element: the
    /// same bits and the same stream position afterwards.
    fn assert_fill_matches_normal(rng: &Rng, len: usize, std: f32) {
        let (mut a, mut b) = (rng.clone(), rng.clone());
        let mut got = vec![0.0f32; len];
        a.fill_normal(&mut got, std);
        let want: Vec<f32> = (0..len).map(|_| b.normal() * std).collect();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "len {len}");
        for _ in 0..4 {
            assert_eq!(a.next_u64(), b.next_u64(), "state after len {len}");
        }
    }

    #[test]
    fn fill_normal_is_repeated_normal() {
        for (seed, len) in [0usize, 1, 63, 64, 65, 1000].into_iter().enumerate() {
            assert_fill_matches_normal(&Rng::seed_from(seed as u64), len, 0.37);
        }
    }

    /// A zero `u1` word makes `normal` redraw, shifting the pairing of
    /// every later word; the block holding it must be replayed.
    #[test]
    fn fill_normal_replays_a_block_with_a_zero_u1_word() {
        let mut scan = Rng::seed_from(3);
        let first_zero = (0u64..)
            .find(|_| scan.next_u32() >> 8 == 0)
            .expect("the stream has a zero 24-bit word");
        // Start 21 draws (42 words) earlier, so the zero word is the u1 of
        // draw 21, inside the first block; no earlier word is zero.
        let mut rng = Rng::seed_from(3);
        assert!(first_zero >= 42);
        (0..first_zero - 42).for_each(|_| {
            rng.next_u64();
        });
        assert_fill_matches_normal(&rng, 100, 1.0);
        // The redraw consumed one extra word.
        let (mut a, mut b) = (rng.clone(), rng);
        a.fill_normal(&mut [0.0; 100], 1.0);
        (0..201).for_each(|_| {
            b.next_u64();
        });
        assert_eq!(a.next_u64(), b.next_u64());
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
