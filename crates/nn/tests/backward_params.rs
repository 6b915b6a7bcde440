//! Proof that a training step's backward pass, which stops at the first
//! layer that holds parameters (`Network::backward_params`), leaves every
//! parameter gradient and every BatchNorm statistic bit-identical to the
//! full `Network::backward`.
//!
//! For each of the seven `ModelKind`s and a `Flatten` → `Dense` MLP like
//! label correction's secondary model, at batches of 8 (one whole lane
//! block) and 10 (a ragged one), and at every SIMD level this machine has,
//! two copies of a freshly built network take the same training forward
//! pass and the same logits gradient; one runs the full backward pass and
//! the other the trainer's.
//!
//! One test, because `force_simd` sets a process-wide level.

use tdfm_nn::layers::{Dense, Flatten, ReLU, Sequential};
use tdfm_nn::models::{ModelConfig, ModelKind};
use tdfm_nn::{Mode, Network};
use tdfm_tensor::rng::Rng;
use tdfm_tensor::simd::{available_levels, force_simd};
use tdfm_tensor::Tensor;

/// Every parameter gradient, then every state buffer, as bit patterns.
fn gradient_and_state_bits(net: &mut Network) -> Vec<u32> {
    let mut bits = Vec::new();
    for p in net.params_mut() {
        bits.extend(p.grad.data().iter().map(|v| v.to_bits()));
    }
    for state in net.state_mut() {
        bits.extend(state.iter().map(|v| v.to_bits()));
    }
    bits
}

/// Runs the full and the trainer's backward pass on copies of `net` and
/// requires the same bits.
fn assert_same_gradients(name: &str, net: &Network, x: &Tensor) {
    let (mut full, mut trainer) = (net.replica(), net.replica());
    let logits = full.forward(x, Mode::Train);
    assert_eq!(
        trainer.forward(x, Mode::Train).data(),
        logits.data(),
        "{name}: the copies' forward passes differ"
    );
    let grad = Tensor::randn(logits.shape().dims(), 1.0, &mut Rng::seed_from(0x6AD));
    let _ = full.backward(&grad);
    trainer.backward_params(&grad);
    let (want, got) = (
        gradient_and_state_bits(&mut full),
        gradient_and_state_bits(&mut trainer),
    );
    assert_eq!(want.len(), got.len(), "{name}");
    let differ = want.iter().zip(&got).filter(|(a, b)| a != b).count();
    assert_eq!(
        differ, 0,
        "{name}: {differ} gradient or state values differ"
    );
    assert!(
        want.iter().any(|&b| f32::from_bits(b) != 0.0),
        "{name}: every gradient is zero, so the check proves nothing"
    );
}

#[test]
fn trainer_backward_matches_the_full_backward_bit_for_bit() {
    for level in available_levels() {
        force_simd(Some(level));
        for batch in [8, 10] {
            let x = Tensor::randn(&[batch, 3, 8, 8], 1.0, &mut Rng::seed_from(0x5EED));
            for kind in ModelKind::ALL {
                let cfg = ModelConfig {
                    in_shape: (3, 8, 8),
                    classes: 10,
                    width: 4,
                    seed: 7,
                };
                let name = format!("{kind} at batch {batch}, {level:?}");
                assert_same_gradients(&name, &kind.build(&cfg), &x);
            }
            let mut rng = Rng::seed_from(11);
            let body = Sequential::new()
                .push(Flatten::new())
                .push(Dense::new(20, 16, &mut rng))
                .push(ReLU::new())
                .push(Dense::new(16, 10, &mut rng));
            let mlp = Network::new("mlp", 10, body);
            let x = Tensor::randn(&[batch, 20, 1, 1], 1.0, &mut rng);
            assert_same_gradients(&format!("MLP at batch {batch}, {level:?}"), &mlp, &x);
        }
    }
    force_simd(None);
}
