//! `Rng::fill_normal` against `normal() * std`, element by element, at
//! every SIMD level the host has: the same bits and the same stream state
//! afterwards, over lengths around the octet width and with a zero `u1`
//! word (which makes `normal` redraw) at each place an octet can hold it.
//!
//! `force_simd` flips a process-global, so this binary has one test.

use tdfm_tensor::rng::Rng;
use tdfm_tensor::simd::{available_levels, force_simd};

/// Fills `len` draws from a copy of `rng` both ways and compares the bits
/// and the next words; returns the filled copy.
fn assert_fill_matches_normal(rng: &Rng, len: usize, std: f32, what: &str) -> Rng {
    let (mut a, mut b) = (rng.clone(), rng.clone());
    let mut got = vec![0.0f32; len];
    a.fill_normal(&mut got, std);
    let want: Vec<f32> = (0..len).map(|_| b.normal() * std).collect();
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got), bits(&want), "{what}");
    let after = a.clone();
    for _ in 0..4 {
        assert_eq!(a.next_u64(), b.next_u64(), "state after {what}");
    }
    after
}

/// `rng` advanced by `words` words.
fn skip(rng: &Rng, words: u64) -> Rng {
    let mut r = rng.clone();
    (0..words).for_each(|_| {
        r.next_u64();
    });
    r
}

#[test]
fn fill_normal_is_repeated_normal_at_every_simd_level() {
    // The first zero 24-bit word of seed 3's stream, and a start 200 words
    // before it (no earlier word of the stream is zero).
    let mut scan = Rng::seed_from(3);
    let zero = (0u64..)
        .find(|_| scan.next_u32() >> 8 == 0)
        .expect("the stream has a zero 24-bit word");
    assert!(zero >= 200);
    let base = skip(&Rng::seed_from(3), zero - 200);

    for level in available_levels() {
        force_simd(Some(level));
        for (seed, len) in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000]
            .into_iter()
            .enumerate()
        {
            let what = format!("{level:?}: len {len}");
            assert_fill_matches_normal(&Rng::seed_from(seed as u64), len, 0.37, &what);
        }
        // (draw whose u1 is the zero word, length): lane 0 and lane 7 of
        // an octet, lane 2 of a short last octet, the last draw of a
        // buffer and the draws either side of 64.
        for (draw, len) in [
            (8, 24),
            (15, 24),
            (10, 13),
            (12, 13),
            (63, 100),
            (64, 100),
            (0, 1),
        ] {
            let what = format!("{level:?}: zero u1 at draw {draw} of {len}");
            let rng = skip(&base, 200 - 2 * draw);
            let mut after = assert_fill_matches_normal(&rng, len, 1.0, &what);
            // The redraw took one word more than the pairs.
            let mut want = skip(&rng, 2 * len as u64 + 1);
            assert_eq!(after.next_u64(), want.next_u64(), "redraw in {what}");
        }
        // A zero u2 word is an angle of zero, not a redraw.
        let what = format!("{level:?}: zero u2 at draw 5 of 16");
        let rng = skip(&base, 200 - 2 * 5 - 1);
        let mut after = assert_fill_matches_normal(&rng, 16, 1.0, &what);
        assert_eq!(after.next_u64(), skip(&rng, 32).next_u64(), "{what}");
    }
    force_simd(None);
}
