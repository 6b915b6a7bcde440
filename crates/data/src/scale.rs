//! Experiment scale presets.

use tdfm_json::json_unit_enum;

/// How large the whole study runs.
///
/// The paper burned 33 days of P100 GPU time; this reproduction runs on CPU,
/// so every experiment is parameterised by a scale preset controlling image
/// size, sample counts, model width, epochs and repetition counts. Relative
/// effects (which technique wins, where crossovers fall) are stable across
/// scales; absolute accuracies grow with scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Minimal: unit tests. Seconds per experiment.
    Tiny,
    /// Small: integration tests and CI benches. Tens of seconds.
    Smoke,
    /// The default for the bench binaries. Minutes.
    Default,
    /// The largest preset; closest to the paper's regime. Tens of minutes.
    Full,
}

json_unit_enum!(Scale {
    Tiny,
    Smoke,
    Default,
    Full
});

impl Scale {
    /// Reads the scale from the `TDFM_SCALE` environment variable
    /// (`tiny|smoke|default|full`), falling back to [`Scale::Smoke`].
    #[expect(
        clippy::disallowed_methods,
        reason = "documented config site: TDFM_SCALE (README \"Parallelism\")"
    )]
    pub fn from_env() -> Self {
        match std::env::var("TDFM_SCALE").as_deref() {
            Ok("tiny") => Scale::Tiny,
            Ok("smoke") => Scale::Smoke,
            Ok("default") => Scale::Default,
            Ok("full") => Scale::Full,
            _ => Scale::Smoke,
        }
    }

    /// Image side length (images are square).
    pub fn image_side(self) -> usize {
        match self {
            Scale::Tiny => 6,
            Scale::Smoke => 8,
            Scale::Default => 10,
            Scale::Full => 14,
        }
    }

    /// Training-set size for the two large datasets (CIFAR-10/GTSRB
    /// analogues). The Pneumonia analogue is ~1/10 of this (Table II).
    pub fn train_size(self) -> usize {
        match self {
            Scale::Tiny => 160,
            Scale::Smoke => 640,
            Scale::Default => 1600,
            Scale::Full => 4000,
        }
    }

    /// Test-set size for the two large datasets.
    pub fn test_size(self) -> usize {
        match self {
            Scale::Tiny => 80,
            Scale::Smoke => 240,
            Scale::Default => 500,
            Scale::Full => 1200,
        }
    }

    /// Base channel width of the models.
    pub fn model_width(self) -> usize {
        match self {
            Scale::Tiny => 2,
            Scale::Smoke => 4,
            Scale::Default => 6,
            Scale::Full => 8,
        }
    }

    /// Training epochs.
    pub fn epochs(self) -> usize {
        match self {
            Scale::Tiny => 3,
            Scale::Smoke => 10,
            Scale::Default => 12,
            Scale::Full => 16,
        }
    }

    /// Experiment repetitions (the paper used 20).
    pub fn repetitions(self) -> usize {
        match self {
            Scale::Tiny => 1,
            Scale::Smoke => 3,
            Scale::Default => 3,
            Scale::Full => 5,
        }
    }

    /// Lower-case name (matches the `TDFM_SCALE` values).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Smoke => "smoke",
            Scale::Default => "default",
            Scale::Full => "full",
        }
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_monotone() {
        let order = [Scale::Tiny, Scale::Smoke, Scale::Default, Scale::Full];
        for pair in order.windows(2) {
            assert!(pair[0].train_size() < pair[1].train_size());
            assert!(pair[0].image_side() <= pair[1].image_side());
            assert!(pair[0].epochs() <= pair[1].epochs());
            assert!(pair[0].model_width() <= pair[1].model_width());
        }
    }

    #[test]
    fn names_round_trip() {
        for s in [Scale::Tiny, Scale::Smoke, Scale::Default, Scale::Full] {
            assert_eq!(s.to_string(), s.name());
        }
    }

    #[test]
    fn image_side_supports_models() {
        // Models require at least 4x4 input.
        assert!(Scale::Tiny.image_side() >= 4);
    }
}
