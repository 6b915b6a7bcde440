//! The benchmark's estimator.
//!
//! A workload is a fixed rotation of short units (a few milliseconds
//! each). Every timed end-to-end metric is the sum, over the rotation, of
//! each position's minimum time in the run: on a shared two-core host the
//! minimum of millisecond units is the only statistic that repeated within
//! a few percent across runs, while medians moved by 13-18%. The per-
//! position median and tail percentile are kept beside it as diagnostics.

/// Timing samples (seconds) for every position of a rotation.
#[derive(Debug, Clone)]
pub struct Rotation {
    samples: Vec<Vec<f64>>,
}

impl Rotation {
    /// An empty record for a rotation of `positions` units.
    pub fn new(positions: usize) -> Self {
        assert!(positions > 0, "a rotation needs at least one position");
        Self {
            samples: vec![Vec::new(); positions],
        }
    }

    /// Number of positions in the rotation.
    pub fn positions(&self) -> usize {
        self.samples.len()
    }

    /// Records one timed unit at `pos`.
    pub fn record(&mut self, pos: usize, seconds: f64) {
        self.samples[pos].push(seconds);
    }

    /// Samples recorded at `pos`.
    pub fn samples(&self, pos: usize) -> &[f64] {
        &self.samples[pos]
    }

    /// Complete passes over the rotation (the smallest per-position count).
    pub fn passes(&self) -> usize {
        self.samples.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// The fastest sample at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` has no samples.
    pub fn min(&self, pos: usize) -> f64 {
        let s = &self.samples[pos];
        assert!(!s.is_empty(), "position {pos} has no samples");
        s.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// The estimator: the sum over positions of each position's minimum.
    ///
    /// # Panics
    ///
    /// Panics if any position has no samples.
    pub fn min_sum(&self) -> f64 {
        (0..self.positions()).map(|p| self.min(p)).sum()
    }

    /// Sum over positions of each position's `q`-quantile (diagnostic).
    ///
    /// # Panics
    ///
    /// Panics if any position has no samples.
    pub fn quantile_sum(&self, q: f64) -> f64 {
        self.samples.iter().map(|s| quantile(s, q)).sum()
    }
}

/// Nearest-rank quantile (`q` in `[0, 1]`) of unsorted samples.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Percentiles considered for the tail, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile that has at least ten samples beyond it, with
/// its value: `(percentile, value)`. `None` below eleven samples.
pub fn tail_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    TAIL_PERCENTILES
        .iter()
        .find(|&&p| n - rank(n, p / 100.0) >= 10)
        .map(|&p| (p, quantile(samples, p / 100.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimator_sums_per_position_minimum() {
        let mut r = Rotation::new(3);
        for (pos, t) in [(0, 3.0), (1, 5.0), (2, 1.0), (0, 2.0), (1, 7.0), (2, 4.0)] {
            r.record(pos, t);
        }
        assert_eq!(r.min(0), 2.0);
        assert_eq!(r.min(1), 5.0);
        assert_eq!(r.min(2), 1.0);
        assert_eq!(r.min_sum(), 8.0);
        assert_eq!(r.passes(), 2);
    }

    #[test]
    fn a_slow_pass_does_not_move_the_estimate() {
        let mut r = Rotation::new(2);
        for _ in 0..5 {
            r.record(0, 1.0);
            r.record(1, 2.0);
        }
        let before = r.min_sum();
        r.record(0, 100.0);
        r.record(1, 100.0);
        assert_eq!(r.min_sum(), before);
    }

    #[test]
    #[should_panic(expected = "has no samples")]
    fn an_unsampled_position_is_an_error() {
        let mut r = Rotation::new(2);
        r.record(0, 1.0);
        r.min_sum();
    }

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 5.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 10.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        let of = |n: usize| {
            let s: Vec<f64> = (1..=n).map(|v| v as f64).collect();
            tail_percentile(&s)
        };
        assert_eq!(of(10), None);
        // 11 samples: the median (rank 6) has 5 beyond it, too few.
        assert_eq!(of(11), None);
        // 20 samples: median rank 10 leaves exactly 10 beyond.
        assert_eq!(of(20), Some((50.0, 10.0)));
        // 100 samples: p90 (rank 90) leaves 10; p95 would leave 5.
        assert_eq!(of(100), Some((90.0, 90.0)));
        // 1000 samples: p99 (rank 990) leaves 10.
        assert_eq!(of(1000), Some((99.0, 990.0)));
        for n in [20, 57, 100, 333, 1000, 20000] {
            let (p, _) = of(n).expect("enough samples");
            assert!(n - rank(n, p / 100.0) >= 10, "n={n} p={p}");
        }
    }
}
