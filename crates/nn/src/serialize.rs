//! Saving and loading trained models.
//!
//! Networks are rebuilt from their `(ModelKind, ModelConfig)` recipe, so a
//! saved model is just that recipe plus the flat parameter buffers in
//! construction order — compact, versionable, and independent of layer
//! internals. The experiment runner's golden models and the examples'
//! trained classifiers can thus be checkpointed to disk and reloaded
//! bit-exactly.

use crate::models::{InvalidConfig, ModelConfig, ModelKind};
use crate::Network;
use tdfm_json::{FromJson, JsonError, ToJson, Value};

/// A serialisable snapshot of a trained [`Network`].
///
/// # Examples
///
/// ```
/// use tdfm_nn::models::{ModelConfig, ModelKind};
/// use tdfm_nn::serialize::SavedModel;
///
/// let cfg = ModelConfig { in_shape: (1, 4, 4), classes: 2, width: 2, seed: 0 };
/// let mut net = ModelKind::ConvNet.build(&cfg);
/// let saved = SavedModel::capture(ModelKind::ConvNet, cfg, &mut net);
/// let mut restored = saved.restore().unwrap();
/// assert_eq!(restored.param_count(), net.param_count());
/// ```
#[derive(Debug, Clone)]
pub struct SavedModel {
    /// Architecture recipe.
    pub kind: ModelKind,
    /// Construction parameters.
    pub config: ModelConfig,
    /// Flat parameter buffers in `params_mut()` order.
    pub params: Vec<Vec<f32>>,
    /// Non-trainable state (batch-norm running statistics) in
    /// `state_mut()` order. Defaults to empty when absent, so snapshots
    /// written before state was captured still load.
    pub state: Vec<Vec<f32>>,
}

// Hand-written (de)serialization instead of `json_struct!`: weight buffers
// are stored as IEEE-754 bit patterns (`params_bits`/`state_bits`,
// `Vec<Vec<u32>>`) because the float wire format writes non-finite values
// as `null` and reads `null` back as NaN — an Inf weight (the common result
// of an exponent-bit SEU flip) would silently become NaN and a NaN payload
// would be lost. Bit patterns round-trip every f32 exactly.
impl ToJson for SavedModel {
    fn to_json(&self) -> Value {
        let bits = |buffers: &[Vec<f32>]| {
            Value::Array(
                buffers
                    .iter()
                    .map(|buf| {
                        buf.iter()
                            .map(|v| v.to_bits())
                            .collect::<Vec<u32>>()
                            .to_json()
                    })
                    .collect(),
            )
        };
        Value::Object(vec![
            ("kind".to_string(), self.kind.to_json()),
            ("config".to_string(), self.config.to_json()),
            ("params_bits".to_string(), bits(&self.params)),
            ("state_bits".to_string(), bits(&self.state)),
        ])
    }
}

impl FromJson for SavedModel {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let from_bits = |v: &Value, name: &str| -> Result<Vec<Vec<f32>>, JsonError> {
            let raw: Vec<Vec<u32>> = tdfm_json::field(v, name)?;
            Ok(raw
                .into_iter()
                .map(|buf| buf.into_iter().map(f32::from_bits).collect())
                .collect())
        };
        let params = if v.get("params_bits").is_some() {
            from_bits(v, "params_bits")?
        } else {
            // Legacy float format (pre-0.4.0 checkpoints).
            tdfm_json::field(v, "params")?
        };
        let state = if v.get("state_bits").is_some() {
            from_bits(v, "state_bits")?
        } else {
            tdfm_json::field_or_default(v, "state")?
        };
        Ok(Self {
            kind: tdfm_json::field(v, "kind")?,
            config: tdfm_json::field(v, "config")?,
            params,
            state,
        })
    }
}

/// Errors returned when restoring a saved model.
#[derive(Debug)]
pub enum RestoreError {
    /// The snapshot's configuration cannot build any architecture.
    InvalidConfig(InvalidConfig),
    /// The snapshot's parameter count does not match the rebuilt network
    /// (e.g. the snapshot was produced by an incompatible version).
    ParameterMismatch {
        /// Parameter tensors the architecture expects.
        expected: usize,
        /// Parameter tensors found in the snapshot.
        found: usize,
    },
    /// One parameter buffer has the wrong number of elements.
    ShapeMismatch {
        /// Index of the offending parameter.
        index: usize,
        /// Elements the architecture expects.
        expected: usize,
        /// Elements found in the snapshot.
        found: usize,
    },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::InvalidConfig(e) => write!(f, "snapshot config is invalid: {e}"),
            RestoreError::ParameterMismatch { expected, found } => write!(
                f,
                "snapshot has {found} parameter tensors, architecture expects {expected}"
            ),
            RestoreError::ShapeMismatch {
                index,
                expected,
                found,
            } => write!(
                f,
                "parameter {index} has {found} elements, architecture expects {expected}"
            ),
        }
    }
}

impl std::error::Error for RestoreError {}

impl SavedModel {
    /// Captures the current parameters and state of a network built from
    /// `(kind, config)`.
    pub fn capture(kind: ModelKind, config: ModelConfig, net: &mut Network) -> Self {
        let params = net
            .params_mut()
            .iter()
            .map(|p| p.value.data().to_vec())
            .collect();
        let state = net.state_mut().iter().map(|s| s.to_vec()).collect();
        Self {
            kind,
            config,
            params,
            state,
        }
    }

    /// Rebuilds the network and restores the captured parameters.
    ///
    /// # Errors
    ///
    /// Returns [`RestoreError`] when the snapshot does not match the
    /// architecture the recipe builds.
    pub fn restore(&self) -> Result<Network, RestoreError> {
        self.config
            .validate()
            .map_err(RestoreError::InvalidConfig)?;
        let mut net = self.kind.build(&self.config);
        let mut params = net.params_mut();
        if params.len() != self.params.len() {
            return Err(RestoreError::ParameterMismatch {
                expected: params.len(),
                found: self.params.len(),
            });
        }
        for (i, (param, saved)) in params.iter_mut().zip(&self.params).enumerate() {
            if param.value.numel() != saved.len() {
                return Err(RestoreError::ShapeMismatch {
                    index: i,
                    expected: param.value.numel(),
                    found: saved.len(),
                });
            }
            param.value.data_mut().copy_from_slice(saved);
        }
        let mut state = net.state_mut();
        if state.len() != self.state.len() {
            return Err(RestoreError::ParameterMismatch {
                expected: state.len(),
                found: self.state.len(),
            });
        }
        for (i, (buf, saved)) in state.iter_mut().zip(&self.state).enumerate() {
            if buf.len() != saved.len() {
                return Err(RestoreError::ShapeMismatch {
                    index: i,
                    expected: buf.len(),
                    found: saved.len(),
                });
            }
            buf.copy_from_slice(saved);
        }
        Ok(net)
    }

    /// Serialises to JSON.
    pub fn to_json(&self) -> String {
        tdfm_json::to_string(self)
    }

    /// Deserialises from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying parse error on malformed input.
    pub fn from_json(json: &str) -> Result<Self, tdfm_json::JsonError> {
        tdfm_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::CrossEntropy;
    use crate::trainer::{fit, FitConfig, TargetSource};
    use tdfm_tensor::rng::Rng;
    use tdfm_tensor::Tensor;

    fn trained_net() -> (ModelConfig, Network, Tensor) {
        let cfg = ModelConfig {
            in_shape: (1, 4, 4),
            classes: 2,
            width: 2,
            seed: 3,
        };
        let mut net = ModelKind::ConvNet.build(&cfg);
        let mut rng = Rng::seed_from(0);
        let x = Tensor::randn(&[16, 1, 4, 4], 1.0, &mut rng);
        let y: Vec<u32> = (0..16).map(|i| (i % 2) as u32).collect();
        fit(
            &mut net,
            &CrossEntropy,
            &x,
            &TargetSource::Hard(y),
            &FitConfig {
                epochs: 2,
                batch_size: 8,
                ..FitConfig::default()
            },
        );
        (cfg, net, x)
    }

    #[test]
    fn roundtrip_preserves_predictions() {
        let (cfg, mut net, x) = trained_net();
        let saved = SavedModel::capture(ModelKind::ConvNet, cfg, &mut net);
        let mut restored = saved.restore().unwrap();
        assert_eq!(restored.predict(&x, 8), net.predict(&x, 8));
        let logits_a = net.logits(&x, 8);
        let logits_b = restored.logits(&x, 8);
        assert_eq!(logits_a.data(), logits_b.data());
    }

    #[test]
    fn json_roundtrip() {
        let (cfg, mut net, x) = trained_net();
        let saved = SavedModel::capture(ModelKind::ConvNet, cfg, &mut net);
        let json = saved.to_json();
        let back = SavedModel::from_json(&json).unwrap();
        let mut restored = back.restore().unwrap();
        assert_eq!(restored.predict(&x, 8), net.predict(&x, 8));
    }

    #[test]
    fn mismatched_snapshot_is_rejected() {
        let (cfg, mut net, _) = trained_net();
        let mut saved = SavedModel::capture(ModelKind::ConvNet, cfg, &mut net);
        saved.params.pop();
        assert!(matches!(
            saved.restore(),
            Err(RestoreError::ParameterMismatch { .. })
        ));

        let mut saved2 = SavedModel::capture(ModelKind::ConvNet, cfg, &mut net);
        saved2.params[0].push(0.0);
        assert!(matches!(
            saved2.restore(),
            Err(RestoreError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn snapshot_with_zero_width_is_rejected() {
        let (cfg, mut net, _) = trained_net();
        let mut saved = SavedModel::capture(ModelKind::ConvNet, cfg, &mut net);
        saved.config.width = 0;
        let back = SavedModel::from_json(&saved.to_json()).unwrap();
        assert!(matches!(
            back.restore(),
            Err(RestoreError::InvalidConfig(InvalidConfig::ZeroWidth))
        ));
    }

    #[test]
    fn snapshot_with_input_below_4x4_is_rejected() {
        let (cfg, mut net, _) = trained_net();
        let mut saved = SavedModel::capture(ModelKind::ConvNet, cfg, &mut net);
        saved.config.in_shape = (1, 3, 8);
        let back = SavedModel::from_json(&saved.to_json()).unwrap();
        let err = back.restore().err().unwrap();
        assert!(matches!(
            err,
            RestoreError::InvalidConfig(InvalidConfig::InputTooSmall {
                height: 3,
                width: 8
            })
        ));
        assert_eq!(
            err.to_string(),
            "snapshot config is invalid: input must be at least 4x4, got 3x8"
        );
    }

    #[test]
    fn batch_norm_running_statistics_survive_checkpointing() {
        // Regression test: running statistics are state, not parameters;
        // dropping them silently changes eval-mode predictions.
        let cfg = ModelConfig {
            in_shape: (1, 4, 4),
            classes: 2,
            width: 2,
            seed: 5,
        };
        let mut net = ModelKind::ResNet18.build(&cfg);
        let mut rng = Rng::seed_from(2);
        let x = Tensor::randn(&[8, 1, 4, 4], 1.0, &mut rng).map(|v| v * 3.0 + 1.0);
        let y: Vec<u32> = (0..8).map(|i| (i % 2) as u32).collect();
        fit(
            &mut net,
            &CrossEntropy,
            &x,
            &TargetSource::Hard(y),
            &FitConfig {
                epochs: 3,
                batch_size: 4,
                ..FitConfig::default()
            },
        );
        let saved = SavedModel::capture(ModelKind::ResNet18, cfg, &mut net);
        assert!(!saved.state.is_empty(), "ResNet18 must expose BN state");
        // Trained running stats are not the initialisation values.
        assert!(saved
            .state
            .iter()
            .any(|s| s.iter().any(|&v| v != 0.0 && v != 1.0)));
        let mut restored = saved.restore().unwrap();
        assert_eq!(
            restored.logits(&x, 4).data(),
            net.logits(&x, 4).data(),
            "eval-mode outputs must match bit-for-bit"
        );
    }

    #[test]
    fn non_finite_and_denormal_weights_round_trip_bit_exactly() {
        // A fault-injected checkpoint routinely holds Inf (exponent-bit
        // flip), NaN (possibly with payload bits) and denormals. The old
        // float wire format laundered all of these through `null`.
        let (cfg, mut net, _) = trained_net();
        let mut saved = SavedModel::capture(ModelKind::ConvNet, cfg, &mut net);
        let specials = [
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(0x7FC0_1234), // NaN with payload
            f32::from_bits(0x0000_0001), // smallest positive denormal
            f32::MIN_POSITIVE / 2.0,     // denormal
            -0.0,
        ];
        for (i, &v) in specials.iter().enumerate() {
            saved.params[0][i] = v;
        }
        let back = SavedModel::from_json(&saved.to_json()).unwrap();
        for (a, b) in saved.params.iter().zip(&back.params) {
            let a_bits: Vec<u32> = a.iter().map(|v| v.to_bits()).collect();
            let b_bits: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a_bits, b_bits, "params must survive bit-for-bit");
        }
        for (a, b) in saved.state.iter().zip(&back.state) {
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    fn bitflipped_to_inf_weight_survives_save_load() {
        // The acceptance criterion verbatim: flip a weight's top exponent
        // bit (1.0 -> +Inf), checkpoint, reload, and find the same bits.
        let (cfg, mut net, _) = trained_net();
        let mut saved = SavedModel::capture(ModelKind::ConvNet, cfg, &mut net);
        saved.params[0][0] = tdfm_tensor::bitops::bitflip_f32(1.0, 30);
        assert!(saved.params[0][0].is_infinite());
        let back = SavedModel::from_json(&saved.to_json()).unwrap();
        assert_eq!(back.params[0][0].to_bits(), f32::INFINITY.to_bits());
        let restored = back.restore().unwrap();
        drop(restored); // restore() must accept non-finite buffers
    }

    #[test]
    fn legacy_float_format_still_loads() {
        // Pre-0.4.0 checkpoints carry `params`/`state` as float arrays
        // (and may omit `state` entirely); from_json must keep reading them.
        let (cfg, mut net, x) = trained_net();
        let saved = SavedModel::capture(ModelKind::ConvNet, cfg, &mut net);
        let legacy = tdfm_json::to_string(&LegacySavedModel {
            kind: saved.kind,
            config: saved.config,
            params: saved.params.clone(),
            state: saved.state.clone(),
        });
        let back = SavedModel::from_json(&legacy).unwrap();
        let mut restored = back.restore().unwrap();
        assert_eq!(restored.predict(&x, 8), net.predict(&x, 8));
        // `state` may be absent in the oldest snapshots.
        let no_state = legacy.replace(",\"state\":", ",\"ignored\":");
        let back2 = SavedModel::from_json(&no_state).unwrap();
        assert!(back2.state.is_empty());
    }

    // The old wire format, reconstructed for the compatibility test above.
    struct LegacySavedModel {
        kind: ModelKind,
        config: ModelConfig,
        params: Vec<Vec<f32>>,
        state: Vec<Vec<f32>>,
    }
    tdfm_json::json_struct!(LegacySavedModel {
        kind,
        config,
        params,
        state
    });

    #[test]
    fn works_for_every_architecture() {
        let cfg = ModelConfig {
            in_shape: (3, 6, 6),
            classes: 4,
            width: 2,
            seed: 9,
        };
        let mut rng = Rng::seed_from(1);
        let x = Tensor::randn(&[2, 3, 6, 6], 1.0, &mut rng);
        for kind in ModelKind::ALL {
            let mut net = kind.build(&cfg);
            let saved = SavedModel::capture(kind, cfg, &mut net);
            let mut restored = saved.restore().unwrap();
            assert_eq!(
                restored.logits(&x, 2).data(),
                net.logits(&x, 2).data(),
                "{kind}"
            );
        }
    }
}
