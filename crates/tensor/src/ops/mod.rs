//! Numerical kernels: matrix multiplication, convolution, pooling,
//! reductions and softmax.
//!
//! These are the operations the paper's TensorFlow stack provided; every
//! model in the study (Table III) is built from exactly these kernels.

mod conv;
mod gemm;
mod matmul;
mod pool;
mod reduce;

pub use conv::{
    conv2d_backward_params_with, conv2d_backward_with, conv2d_forward_with, conv_out_dim,
    Conv2dSpec, ConvGrads,
};
pub use matmul::{matmul, matmul_a_bt_with, matmul_at_b_with, matmul_with};
pub use pool::{
    global_avg_pool_backward_with, global_avg_pool_forward_with, max_pool2d_backward_with,
    max_pool2d_forward_train_with, max_pool2d_forward_with, MaxPoolCache,
};
pub use reduce::{argmax_rows, log_softmax_rows, one_hot, softmax_rows, sum_rows};
