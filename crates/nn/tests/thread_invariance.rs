//! Training and prediction are the same bits at every kernel thread count.
//!
//! A cell that runs alone, or a repetition when fewer items than
//! `TDFM_THREADS` share the machine, hands its kernels a budget of two or
//! more threads. Every architecture must then train to exactly the
//! weights, and predict exactly the logits, it reaches on one thread. The
//! budget is set with `with_inner_threads`, which is thread-local, so these
//! tests change no global state.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use tdfm_nn::loss::CrossEntropy;
use tdfm_nn::models::{ModelConfig, ModelKind};
use tdfm_nn::trainer::{fit, FitConfig, TargetSource};
use tdfm_nn::Mode;
use tdfm_tensor::parallel::{with_inner_threads, SERIAL_THRESHOLD};
use tdfm_tensor::rng::Rng;
use tdfm_tensor::Tensor;

/// Batches of 256 give the convolutions enough work to fan out past the
/// serial threshold.
const BATCH: usize = 256;

const CFG: ModelConfig = ModelConfig {
    in_shape: (3, 8, 8),
    classes: 5,
    width: 4,
    seed: 11,
};

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Trains `kind` for two epochs on 512 smoke-scale images at `threads`
/// kernel threads and returns every parameter's bits, then the bits of
/// the evaluation-mode logits of those images.
fn trained_bits(kind: ModelKind, threads: usize) -> [Vec<u32>; 2] {
    let mut rng = Rng::seed_from(0x7EAD);
    let x = Tensor::randn(&[512, 3, 8, 8], 1.0, &mut rng);
    let labels = (0..512u32).map(|i| (i * 7) % 5).collect();
    with_inner_threads(threads, || {
        let mut net = kind.build(&CFG);
        fit(
            &mut net,
            &CrossEntropy,
            &x,
            &TargetSource::Hard(labels),
            &FitConfig {
                epochs: 2,
                batch_size: BATCH,
                ..FitConfig::default()
            },
        );
        let params = net
            .params_mut()
            .iter()
            .flat_map(|p| bits(&p.value))
            .collect();
        [params, bits(&net.logits(&x, BATCH))]
    })
}

/// The multiply-adds of `kind`'s first convolution on one batch: its
/// output elements times its kernel volume.
fn first_conv_work(kind: ModelKind) -> usize {
    let mut net = kind.build(&CFG);
    assert_eq!(net.layer_names()[0], "Conv2d", "{kind}");
    let kdim: usize = net.params_mut()[0].value.shape().dims()[1..]
        .iter()
        .product();
    let outputs = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&outputs);
    net.set_activation_hook(Box::new(move |layer, _, y| {
        if layer == 0 {
            seen.store(y.numel(), Ordering::Relaxed);
        }
    }));
    let x = Tensor::zeros(&[BATCH, 3, 8, 8]);
    net.forward(&x, Mode::Eval);
    outputs.load(Ordering::Relaxed) * kdim
}

#[test]
fn fit_is_bit_identical_at_every_kernel_thread_count() {
    for kind in ModelKind::ALL {
        let work = first_conv_work(kind);
        assert!(
            work >= SERIAL_THRESHOLD,
            "{kind}: the first convolution's {work} work units stay serial"
        );
        let one = trained_bits(kind, 1);
        // CI pins TDFM_THREADS=4.
        for threads in [2, 3, 4] {
            let got = trained_bits(kind, threads);
            for (name, (a, b)) in ["parameters", "logits"].iter().zip(one.iter().zip(&got)) {
                let differ = a.iter().zip(b).filter(|(a, b)| a != b).count();
                assert_eq!(
                    differ,
                    0,
                    "{kind}: {differ} of {} {name} differ between 1 and {threads} threads",
                    a.len()
                );
            }
        }
    }
}
