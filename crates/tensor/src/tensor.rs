//! Dense row-major `f32` tensors.

use crate::rng::Rng;
use crate::Shape;
use std::fmt;

/// A dense, row-major tensor of `f32` values.
///
/// This is the single numeric container used across the TDFM study: model
/// parameters, activations, gradients and image batches are all `Tensor`s.
/// Images use the NCHW layout (batch, channels, height, width).
///
/// # Examples
///
/// ```
/// use tdfm_tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.numel(), 6);
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = vec![0.0; shape.numel()];
        Self { shape, data }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let data = vec![value; shape.numel()];
        Self { shape, data }
    }

    /// Creates a 2-D identity matrix of side `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the product of `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.numel(),
            "buffer length {} does not match shape {shape}",
            data.len()
        );
        Self { shape, data }
    }

    /// Samples i.i.d. `N(0, std^2)` entries using the provided RNG.
    pub fn randn(dims: &[usize], std: f32, rng: &mut Rng) -> Self {
        let shape = Shape::new(dims);
        let mut data = vec![0.0; shape.numel()];
        rng.fill_normal(&mut data, std);
        Self { shape, data }
    }

    /// Samples i.i.d. `U(lo, hi)` entries using the provided RNG.
    pub fn uniform(dims: &[usize], lo: f32, hi: f32, rng: &mut Rng) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.numel()).map(|_| rng.uniform(lo, hi)).collect();
        Self { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the backing buffer (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range or of the wrong rank.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.flat_index(idx)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range or of the wrong rank.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let flat = self.shape.flat_index(idx);
        self.data[flat] = value;
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        let shape = Shape::new(dims);
        assert_eq!(
            shape.numel(),
            self.numel(),
            "cannot reshape {} elements into {shape}",
            self.numel()
        );
        Tensor {
            shape,
            data: self.data.clone(),
        }
    }

    /// In-place reshape (no copy).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape_in_place(&mut self, dims: &[usize]) {
        let shape = Shape::new(dims);
        assert_eq!(shape.numel(), self.numel(), "cannot reshape in place");
        self.shape = shape;
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise combination with another tensor of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip(&self, rhs: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, rhs.shape, "shape mismatch in zip");
        Tensor {
            shape: self.shape,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// `self += alpha * rhs`, element-wise.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f32, rhs: &Tensor) {
        assert_eq!(self.shape, rhs.shape, "shape mismatch in axpy");
        crate::simd::axpy(alpha, &rhs.data, &mut self.data);
    }

    /// Multiplies every element by `s` in place.
    pub fn scale(&mut self, s: f32) {
        crate::simd::scale(&mut self.data, s);
    }

    /// Sets every element to zero (gradient reset between steps).
    pub fn fill(&mut self, value: f32) {
        for x in &mut self.data {
            *x = value;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.numel() as f32
    }

    /// Largest absolute element (useful for gradient diagnostics); NaN
    /// when any element is NaN, so a bound such as `max_abs() < eps`
    /// fails on a NaN tensor.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| {
            let a = x.abs();
            // Once `m` is NaN neither test holds, so NaN stays.
            if a > m || a.is_nan() {
                a
            } else {
                m
            }
        })
    }

    /// `true` when any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Extracts rows `[start, end)` of the leading dimension as a new tensor.
    ///
    /// For an NCHW batch this selects a contiguous sub-batch.
    ///
    /// # Panics
    ///
    /// Panics if `start >= end` or `end` exceeds the leading dimension.
    pub fn slice_rows(&self, start: usize, end: usize) -> Tensor {
        assert!(
            start < end && end <= self.shape.dim(0),
            "row slice out of range"
        );
        let row = self.numel() / self.shape.dim(0);
        let mut dims = self.shape.dims().to_vec();
        dims[0] = end - start;
        Tensor::from_vec(self.data[start * row..end * row].to_vec(), &dims)
    }

    /// Gathers the given rows of the leading dimension into a new tensor.
    ///
    /// Used to assemble shuffled mini-batches.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or any index is out of range.
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        assert!(
            !indices.is_empty(),
            "gather_rows requires at least one index"
        );
        let n = self.shape.dim(0);
        let row = self.numel() / n;
        let mut data = Vec::with_capacity(indices.len() * row);
        for &i in indices {
            assert!(i < n, "row index {i} out of range (n = {n})");
            data.extend_from_slice(&self.data[i * row..(i + 1) * row]);
        }
        let mut dims = self.shape.dims().to_vec();
        dims[0] = indices.len();
        Tensor::from_vec(data, &dims)
    }

    /// Transposes a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose2d(&self) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "transpose2d requires a matrix");
        let (m, n) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = Tensor::zeros(&[n, m]);
        for i in 0..m {
            for j in 0..n {
                out.data[j * m + i] = self.data[i * n + j];
            }
        }
        out
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let preview: Vec<f32> = self.data.iter().take(8).copied().collect();
        write!(
            f,
            "Tensor {{ shape: {}, data: {:?}{} }}",
            self.shape,
            preview,
            if self.numel() > 8 { ", ..." } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    #[test]
    fn constructors_fill_correctly() {
        assert!(Tensor::zeros(&[3]).data().iter().all(|&x| x == 0.0));
        assert!(Tensor::ones(&[3]).data().iter().all(|&x| x == 1.0));
        assert!(Tensor::full(&[3], 2.5).data().iter().all(|&x| x == 2.5));
    }

    #[test]
    fn eye_is_identity() {
        let t = Tensor::eye(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(t.at(&[i, j]), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_bad_length() {
        let _ = Tensor::from_vec(vec![1.0; 5], &[2, 3]);
    }

    #[test]
    fn randn_is_roughly_standard() {
        let mut rng = Rng::seed_from(42);
        let t = Tensor::randn(&[10_000], 1.0, &mut rng);
        assert!(t.mean().abs() < 0.05, "mean {}", t.mean());
        let var = t.data().iter().map(|x| x * x).sum::<f32>() / 10_000.0;
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = Rng::seed_from(7);
        let t = Tensor::uniform(&[1000], -2.0, 3.0, &mut rng);
        assert!(t.data().iter().all(|&x| (-2.0..3.0).contains(&x)));
    }

    #[test]
    fn at_and_set_agree() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 9.0);
        assert_eq!(t.at(&[1, 2]), 9.0);
        assert_eq!(t.data()[5], 9.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let r = t.reshape(&[3, 2]);
        assert_eq!(r.data(), t.data());
        assert_eq!(r.shape().dims(), &[3, 2]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::ones(&[3]);
        let b = Tensor::full(&[3], 2.0);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn slice_and_gather_rows() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[4, 3]);
        let s = t.slice_rows(1, 3);
        assert_eq!(s.shape().dims(), &[2, 3]);
        assert_eq!(s.data(), &[3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let g = t.gather_rows(&[3, 0]);
        assert_eq!(g.data(), &[9.0, 10.0, 11.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn transpose2d_involution() {
        let mut rng = Rng::seed_from(3);
        let t = Tensor::randn(&[3, 5], 1.0, &mut rng);
        assert_eq!(t.transpose2d().transpose2d(), t);
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(&[2]);
        assert!(!t.has_non_finite());
        t.data_mut()[0] = f32::NAN;
        assert!(t.has_non_finite());
    }

    #[test]
    fn max_abs_is_nan_when_any_element_is_nan() {
        // `max_abs() < eps` must fail on a NaN tensor, wherever the NaN is.
        for data in [
            vec![f32::NAN, f32::NAN],
            vec![f32::NAN, 5.0],
            vec![1.0, f32::NAN, -3.0],
        ] {
            let t = Tensor::from_vec(data.clone(), &[data.len()]);
            assert!(t.max_abs().is_nan(), "{data:?}");
        }
        let t = Tensor::from_vec(vec![1.0, -3.0, 2.0, f32::NEG_INFINITY], &[4]);
        assert_eq!(t.max_abs(), f32::INFINITY);
        assert_eq!(Tensor::from_vec(vec![1.0, -3.0], &[2]).max_abs(), 3.0);
        assert_eq!(Tensor::zeros(&[3]).max_abs(), 0.0);
    }

    #[test]
    fn map_then_inverse_is_identity() {
        let mut rng = Rng::seed_from(0x7E);
        for _ in 0..32 {
            let n = 1 + rng.below(31);
            let v: Vec<f32> = (0..n).map(|_| rng.uniform(-10.0, 10.0)).collect();
            let t = Tensor::from_vec(v, &[n]);
            let back = t.map(|x| x + 3.0).map(|x| x - 3.0);
            for (a, b) in t.data().iter().zip(back.data()) {
                assert!((a - b).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn gather_all_rows_is_identity() {
        for rows in 1usize..6 {
            for cols in 1usize..6 {
                let t =
                    Tensor::from_vec((0..rows * cols).map(|x| x as f32).collect(), &[rows, cols]);
                let idx: Vec<usize> = (0..rows).collect();
                assert_eq!(t.gather_rows(&idx), t);
            }
        }
    }
}
