#![deny(unsafe_code)]
//! # tdfm-tensor
//!
//! Pure-Rust CPU tensor substrate for the TDFM reproduction ("The Fault in
//! Our Data Stars", DSN 2022). The paper's experiments ran on TensorFlow;
//! this crate replaces the numerical kernels TensorFlow provided:
//!
//! * [`Shape`] and [`Tensor`] — dense row-major `f32` tensors with the NCHW
//!   image convention used throughout the study.
//! * [`parallel`] — a scoped-thread data-parallel runtime used by the
//!   convolution/matmul kernels and by ensemble training.
//! * [`ops`] — panel-packed, register-tiled matrix multiplication,
//!   direct convolution with eight samples in the SIMD lanes
//!   (forward/backward, with strides, padding and groups for depthwise
//!   convolutions), max/average pooling, reductions and softmax.
//! * [`simd`] — runtime-dispatched AVX2/SSE2/scalar kernels behind every
//!   hot loop, byte-identical across levels (`TDFM_SIMD` overrides).
//! * [`Scratch`] — a reusable buffer arena threaded through the kernels so
//!   steady-state training allocates nothing per batch; its raw `f32`
//!   checkouts are 32-byte aligned for the vector kernels.
//! * [`rng`] — deterministic random-number helpers so every experiment in
//!   the study is reproducible from a single seed.
//! * [`bitops`] — IEEE-754 bit manipulation ([`bitops::bitflip_f32`]) used
//!   by the SEU-style model-fault injection subsystem.
//!
//! # Examples
//!
//! ```
//! use tdfm_tensor::{Tensor, ops};
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = ops::matmul(&a, &b);
//! assert_eq!(c.data(), a.data());
//! ```

mod align;
pub mod bitops;
pub mod ops;
pub mod parallel;
pub mod rng;
mod scratch;
mod shape;
pub mod simd;
mod tensor;

pub use align::{AlignedVec, SIMD_ALIGN};
pub use scratch::{Scratch, ScratchBuf, ScratchBufU32, ScratchHandle, ScratchStats};
pub use shape::{Shape, MAX_RANK};
pub use tensor::Tensor;

/// Absolute tolerance used by the crate's own tests when comparing floats.
pub const TEST_EPS: f32 = 1e-4;

/// Asserts that two float slices are element-wise close.
///
/// # Panics
///
/// Panics if lengths differ or any element pair differs by more than `tol`.
pub fn assert_close(a: &[f32], b: &[f32], tol: f32) {
    assert_eq!(
        a.len(),
        b.len(),
        "length mismatch: {} vs {}",
        a.len(),
        b.len()
    );
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert!(
            (x - y).abs() <= tol,
            "element {i} differs: {x} vs {y} (tol {tol})"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assert_close_accepts_equal() {
        assert_close(&[1.0, 2.0], &[1.0, 2.0], 1e-9);
    }

    #[test]
    #[should_panic(expected = "element 1 differs")]
    fn assert_close_rejects_distant() {
        assert_close(&[1.0, 2.0], &[1.0, 3.0], 1e-3);
    }
}
