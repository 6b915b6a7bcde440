//! A NaN reaches the logits of every model, from any weight and from the
//! input.
//!
//! The model-fault study flips exponent bits, and a flip that makes a value
//! NaN or infinite is the one that changes predictions. So no kernel may
//! drop a NaN: not by skipping a product whose other operand is zero (a
//! "sparsity skip"), nor through a NaN-discarding `max`. For each of the
//! seven `ModelKind`s, in evaluation mode and at every SIMD level this
//! machine has:
//!
//! - a NaN planted in one element of any parameter tensor, with an
//!   all-zero input, makes some logit NaN (a skip on the input operand
//!   would drop it);
//! - a NaN planted in one input element, with every parameter zero, makes
//!   some logit NaN (a skip on the weight operand would drop it).
//!
//! One test, because `force_simd` sets a process-wide level.

use tdfm_nn::models::{ModelConfig, ModelKind};
use tdfm_nn::{Mode, Network};
use tdfm_tensor::simd::{available_levels, force_simd};
use tdfm_tensor::Tensor;

const CONFIG: ModelConfig = ModelConfig {
    in_shape: (3, 8, 8),
    classes: 10,
    width: 4,
    seed: 7,
};

/// The element of a parameter tensor to poison: the centre tap of the
/// middle (output, input) channel pair, so it hits a real pixel even where
/// a 3×3 convolution runs over a 1×1 plane; the middle element of any
/// other tensor.
fn centre(dims: &[usize]) -> usize {
    match *dims {
        [o, i, kh, kw] => ((o / 2 * i + i / 2) * kh + kh / 2) * kw + kw / 2,
        _ => dims.iter().product::<usize>() / 2,
    }
}

fn any_nan(logits: &Tensor) -> bool {
    logits.data().iter().any(|v| v.is_nan())
}

fn nan_weight_reaches_logits(name: &str, net: &Network) {
    let zeros = Tensor::zeros(&[8, 3, 8, 8]);
    let count = net.replica().params_mut().len();
    for p in 0..count {
        let mut poisoned = net.replica();
        let mut params = poisoned.params_mut();
        let value = &mut params[p].value;
        let at = centre(value.shape().dims());
        value.data_mut()[at] = f32::NAN;
        assert!(
            any_nan(&poisoned.forward(&zeros, Mode::Eval)),
            "{name}: a NaN in parameter tensor {p} (element {at}) vanished before the logits"
        );
    }
}

fn nan_input_reaches_logits(name: &str, net: &Network) {
    let mut zeroed = net.replica();
    for p in zeroed.params_mut() {
        p.value.fill(0.0);
    }
    // Element 0 lies in every strided convolution's and pooling window's
    // sampling grid.
    let mut x = Tensor::zeros(&[8, 3, 8, 8]);
    x.data_mut()[0] = f32::NAN;
    assert!(
        any_nan(&zeroed.forward(&x, Mode::Eval)),
        "{name}: a NaN input through all-zero weights vanished before the logits"
    );
}

#[test]
fn a_nan_weight_or_input_reaches_the_logits_of_every_model() {
    for level in available_levels() {
        force_simd(Some(level));
        for kind in ModelKind::ALL {
            let net = kind.build(&CONFIG);
            let name = format!("{kind}, {level:?}");
            nan_weight_reaches_logits(&name, &net);
            nan_input_reaches_logits(&name, &net);
        }
    }
    force_simd(None);
}
