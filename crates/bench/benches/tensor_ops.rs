//! Micro-benchmarks of the tensor substrate: the matmul and convolution
//! kernels every experiment spends its time in.

use tdfm_bench::harness::{bench, group};
use tdfm_tensor::ops::{
    conv2d_backward_with, conv2d_forward_with, matmul, softmax_rows, Conv2dSpec,
};
use tdfm_tensor::rng::Rng;
use tdfm_tensor::Scratch;
use tdfm_tensor::Tensor;

fn main() {
    group("matmul");
    for &n in &[16usize, 64, 128] {
        let mut rng = Rng::seed_from(0);
        let a = Tensor::randn(&[n, n], 1.0, &mut rng);
        let b = Tensor::randn(&[n, n], 1.0, &mut rng);
        bench(&format!("matmul/{n}"), || matmul(&a, &b));
    }

    group("conv2d");
    let mut rng = Rng::seed_from(1);
    let spec = Conv2dSpec::same(3);
    for &(batch, ch) in &[(8usize, 4usize), (32, 8)] {
        let x = Tensor::randn(&[batch, ch, 8, 8], 1.0, &mut rng);
        let w = Tensor::randn(&[ch * 2, ch, 3, 3], 0.3, &mut rng);
        let bias = Tensor::zeros(&[ch * 2]);
        bench(&format!("conv2d/forward/{batch}x{ch}"), || {
            conv2d_forward_with(&x, &w, Some(&bias), spec, Scratch::shared())
        });
        let y = conv2d_forward_with(&x, &w, Some(&bias), spec, Scratch::shared());
        let gy = Tensor::ones(y.shape().dims());
        bench(&format!("conv2d/backward/{batch}x{ch}"), || {
            conv2d_backward_with(&x, &w, &gy, spec, Scratch::shared())
        });
    }

    group("depthwise + softmax");
    let mut rng = Rng::seed_from(2);
    let x = Tensor::randn(&[32, 8, 8, 8], 1.0, &mut rng);
    let w = Tensor::randn(&[8, 1, 3, 3], 0.3, &mut rng);
    let spec = Conv2dSpec {
        stride: 1,
        pad: 1,
        groups: 8,
    };
    bench("depthwise_conv_forward", || {
        conv2d_forward_with(&x, &w, None, spec, Scratch::shared())
    });

    let mut rng = Rng::seed_from(3);
    let logits = Tensor::randn(&[256, 43], 2.0, &mut rng);
    bench("softmax_256x43", || softmax_rows(&logits, 1.0));
}
