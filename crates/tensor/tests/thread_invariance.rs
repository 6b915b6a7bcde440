//! Convolution results are the same bits at every kernel thread count.
//!
//! The thread budget is set with `with_inner_threads`, which is
//! thread-local, so these tests change no global state. Every geometry
//! carries enough work for the kernels to fan out at two or more threads.

use tdfm_tensor::ops::{conv2d_backward_with, conv2d_forward_with, Conv2dSpec};
use tdfm_tensor::parallel::{with_inner_threads, SERIAL_THRESHOLD};
use tdfm_tensor::rng::Rng;
use tdfm_tensor::{Scratch, Tensor};

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Forward output and the three gradients, as bits, at `threads` kernel
/// threads.
fn conv_bits(
    x: &Tensor,
    w: &Tensor,
    b: &Tensor,
    gy: &Tensor,
    spec: Conv2dSpec,
    threads: usize,
) -> [Vec<u32>; 4] {
    with_inner_threads(threads, || {
        let scratch = Scratch::new();
        let y = conv2d_forward_with(x, w, Some(b), spec, &scratch);
        let g = conv2d_backward_with(x, w, gy, spec, &scratch);
        [
            bits(&y),
            bits(&g.grad_input),
            bits(&g.grad_weight),
            bits(&g.grad_bias),
        ]
    })
}

#[test]
fn conv_gradients_do_not_depend_on_the_kernel_thread_count() {
    let same = Conv2dSpec::same(3);
    // (input dims, weight dims, spec)
    let geometries = [
        ([256, 3, 8, 8], [4, 3, 3, 3], same),
        ([32, 8, 8, 8], [8, 8, 3, 3], same),
        ([512, 16, 1, 1], [16, 16, 3, 3], same),
        (
            [224, 4, 9, 9],
            [6, 4, 3, 3],
            Conv2dSpec {
                stride: 2,
                pad: 1,
                groups: 1,
            },
        ),
        (
            [128, 16, 8, 8],
            [16, 1, 3, 3],
            Conv2dSpec {
                stride: 1,
                pad: 1,
                groups: 16,
            },
        ),
        ([288, 16, 4, 4], [16, 16, 1, 1], Conv2dSpec::default()),
    ];
    for (i, (xd, wd, spec)) in geometries.into_iter().enumerate() {
        let mut rng = Rng::seed_from(0x7A + i as u64);
        let x = Tensor::randn(&xd, 1.0, &mut rng);
        let w = Tensor::randn(&wd, 0.5, &mut rng);
        let b = Tensor::randn(&[wd[0]], 0.5, &mut rng);
        let y = conv2d_forward_with(&x, &w, Some(&b), spec, Scratch::shared());
        // The forward and input-gradient work estimates (multiply-adds) of
        // every geometry reach the serial threshold.
        let kdim = wd[1] * wd[2] * wd[3];
        for work in [y.numel() * kdim, x.numel() * kdim] {
            assert!(
                work >= SERIAL_THRESHOLD,
                "{xd:?} * {wd:?}: {work} work units"
            );
        }
        let gy = Tensor::randn(y.shape().dims(), 1.0, &mut rng);
        let one = conv_bits(&x, &w, &b, &gy, spec, 1);
        for threads in [2, 3] {
            let got = conv_bits(&x, &w, &b, &gy, spec, threads);
            for (name, (a, b)) in ["output", "grad_input", "grad_weight", "grad_bias"]
                .iter()
                .zip(one.iter().zip(&got))
            {
                let differ = a.iter().zip(b).filter(|(a, b)| a != b).count();
                assert_eq!(
                    differ,
                    0,
                    "{xd:?} * {wd:?} {spec:?}: {differ} of {} {name} elements differ \
                     between 1 and {threads} threads",
                    a.len()
                );
            }
        }
    }
}
