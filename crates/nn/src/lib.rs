#![forbid(unsafe_code)]
//! # tdfm-nn
//!
//! The neural-network framework for the TDFM reproduction ("The Fault in Our
//! Data Stars", DSN 2022). It supplies everything the paper's TensorFlow
//! stack provided for the study:
//!
//! * [`layer`] — a [`layer::Layer`] trait with explicit forward/backward
//!   passes, plus the layers the seven architectures need (dense,
//!   convolution, batch norm, pooling, dropout, residual blocks, ...).
//! * [`loss`] — every loss in the study: plain cross entropy, label
//!   smoothing, label relaxation (the representative label-smoothing
//!   technique), NCE/RCE and their Active-Passive combination (robust
//!   loss), and the distillation loss (Section III-B of the paper).
//! * [`optim`] — SGD with momentum and weight decay.
//! * [`models`] — the seven-model zoo of Table III (ConvNet, DeconvNet,
//!   VGG11, VGG16, ResNet18, ResNet50, MobileNet) as width-scaled analogues.
//! * [`trainer`] — the one mini-batch training pipeline behind plain,
//!   fault-aware and sharded training, with wall-clock accounting (needed
//!   by the paper's Section IV-E overhead study).
//!
//! # Examples
//!
//! Train a tiny ConvNet on random data:
//!
//! ```
//! use tdfm_nn::models::{ModelConfig, ModelKind};
//! use tdfm_nn::loss::CrossEntropy;
//! use tdfm_nn::trainer::{fit, FitConfig, TargetSource};
//! use tdfm_tensor::{rng::Rng, Tensor};
//!
//! let cfg = ModelConfig { in_shape: (1, 8, 8), classes: 2, width: 2, seed: 0 };
//! let mut net = ModelKind::ConvNet.build(&cfg);
//! let mut rng = Rng::seed_from(1);
//! let x = Tensor::randn(&[8, 1, 8, 8], 1.0, &mut rng);
//! let y: Vec<u32> = (0..8).map(|i| (i % 2) as u32).collect();
//! let report = fit(
//!     &mut net,
//!     &CrossEntropy,
//!     &x,
//!     &TargetSource::Hard(y),
//!     &FitConfig { epochs: 1, ..FitConfig::default() },
//! );
//! assert_eq!(report.epoch_losses.len(), 1);
//! ```

pub mod layer;
pub mod layers;
pub mod loss;
pub mod models;
pub mod network;
pub mod optim;
pub mod serialize;
pub mod trainer;

pub use layer::{CloneLayer, Layer, Mode, Param};
pub use network::{ActivationHook, Network};
