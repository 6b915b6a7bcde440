//! Training is the same bits at every kernel thread count.
//!
//! A cell that runs alone, or a repetition when fewer items than
//! `TDFM_THREADS` share the machine, hands its kernels a budget of two or
//! more threads. Every architecture must then train to exactly the
//! weights it reaches on one thread. The budget is set with
//! `with_inner_threads`, which is thread-local, so these tests change no
//! global state.

use tdfm_nn::loss::CrossEntropy;
use tdfm_nn::models::{ModelConfig, ModelKind};
use tdfm_nn::trainer::{fit, FitConfig, TargetSource};
use tdfm_tensor::parallel::with_inner_threads;
use tdfm_tensor::rng::Rng;
use tdfm_tensor::Tensor;

/// Trains `kind` for two epochs on 512 smoke-scale images at `threads`
/// kernel threads and returns every parameter's bits. Batches of 256 give
/// the convolutions enough work to fan out past the serial threshold.
fn trained_bits(kind: ModelKind, threads: usize) -> Vec<u32> {
    let cfg = ModelConfig {
        in_shape: (3, 8, 8),
        classes: 5,
        width: 4,
        seed: 11,
    };
    let mut rng = Rng::seed_from(0x7EAD);
    let x = Tensor::randn(&[512, 3, 8, 8], 1.0, &mut rng);
    let labels = (0..512u32).map(|i| (i * 7) % 5).collect();
    with_inner_threads(threads, || {
        let mut net = kind.build(&cfg);
        fit(
            &mut net,
            &CrossEntropy,
            &x,
            &TargetSource::Hard(labels),
            &FitConfig {
                epochs: 2,
                batch_size: 256,
                ..FitConfig::default()
            },
        );
        net.params_mut()
            .iter()
            .flat_map(|p| p.value.data().iter().map(|v| v.to_bits()))
            .collect()
    })
}

#[test]
fn fit_is_bit_identical_at_every_kernel_thread_count() {
    for kind in ModelKind::ALL {
        let one = trained_bits(kind, 1);
        for threads in [2, 3] {
            let got = trained_bits(kind, threads);
            let differ = one.iter().zip(&got).filter(|(a, b)| a != b).count();
            assert_eq!(
                differ,
                0,
                "{kind}: {differ} of {} parameters differ between 1 and {threads} threads",
                one.len()
            );
        }
    }
}
