#![forbid(unsafe_code)]
//! # tdfm
//!
//! A from-scratch Rust reproduction of **"The Fault in Our Data Stars:
//! Studying Mitigation Techniques against Faulty Training Data in Machine
//! Learning Applications"** (Chan, Gujarati, Pattabiraman,
//! Gopalakrishnan — DSN 2022).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`tensor`] — pure-Rust CPU tensors, convolution/matmul kernels, and a
//!   scoped-thread parallel runtime.
//! * [`nn`] — layers, losses, optimisers, the seven-model zoo of Table III,
//!   and the training loop.
//! * [`data`] — synthetic stand-ins for CIFAR-10, GTSRB and Pneumonia that
//!   preserve the properties the paper's findings depend on.
//! * [`inject`] — the TF-DM-equivalent fault injector (mislabelling,
//!   repetition, removal).
//! * [`survey`] — Table I's candidate techniques and selection criteria.
//! * [`json`] — the dependency-free JSON reader/writer every result file
//!   goes through.
//! * [`obs`] — zero-dependency structured tracing, metrics and run
//!   manifests (`TDFM_LOG`, `TDFM_TRACE`, `tdfm report`).
//! * [`core`] — the five TDFM techniques, the accuracy-delta metric, the
//!   experiment runner and the overhead study.
//! * [`bench`] — the harness behind every committed result, drift
//!   comparison, and the SVG figure pipeline (`tdfm figures`).
//!
//! # Quickstart
//!
//! Inject 30% mislabelling into a synthetic GTSRB and compare the baseline
//! against label smoothing:
//!
//! ```no_run
//! use tdfm::core::{ExperimentConfig, Runner, TechniqueKind};
//! use tdfm::data::{DatasetKind, Scale};
//! use tdfm::inject::{FaultKind, FaultPlan};
//! use tdfm::nn::models::ModelKind;
//!
//! let runner = Runner::new();
//! for technique in [TechniqueKind::Baseline, TechniqueKind::LabelSmoothing] {
//!     let result = runner.run(&ExperimentConfig {
//!         dataset: DatasetKind::Gtsrb,
//!         model: ModelKind::ConvNet,
//!         technique,
//!         fault_plan: FaultPlan::single(FaultKind::Mislabelling, 30.0),
//!         scale: Scale::Smoke,
//!         repetitions: 3,
//!         seed: 0,
//!     });
//!     println!("{technique}: AD {}", result.ad);
//! }
//! ```
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure.

pub use tdfm_bench as bench;
pub use tdfm_core as core;
pub use tdfm_data as data;
pub use tdfm_inject as inject;
pub use tdfm_json as json;
pub use tdfm_nn as nn;
pub use tdfm_obs as obs;
pub use tdfm_survey as survey;
pub use tdfm_tensor as tensor;
