//! The layer zoo used by the seven architectures of Table III.

mod activation;
mod batchnorm;
mod conv;
mod dense;
mod dropout;
mod flatten;
mod pool;
mod residual;
mod sequential;

pub use activation::ReLU;
pub use batchnorm::BatchNorm2d;
pub use conv::Conv2d;
pub use dense::Dense;
pub use dropout::Dropout;
pub use flatten::Flatten;
pub use pool::{GlobalAvgPool, MaxPool2d};
pub use residual::ResidualBlock;
pub use sequential::Sequential;
