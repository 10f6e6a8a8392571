//! A minimal owned, contiguous, row-major tensor of `f32` values.
//!
//! [`Tensor`] deliberately implements only what the BERRY training loop
//! needs: construction, element-wise arithmetic, 2-D matrix multiplication,
//! simple reductions and shape manipulation.  All operations are bounds
//! checked and allocate fresh output tensors; in-place variants are provided
//! where the DQN inner loop benefits from them.

use crate::error::NnError;
use crate::Result;
use serde::{Deserialize, Serialize};

/// An owned, contiguous, row-major tensor of `f32` values.
///
/// # Examples
///
/// ```
/// use berry_nn::tensor::Tensor;
///
/// # fn main() -> Result<(), berry_nn::NnError> {
/// let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
/// let b = Tensor::full(&[2, 2], 1.0);
/// let c = a.add(&b)?;
/// assert_eq!(c.data(), &[2.0, 3.0, 4.0, 5.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a shape and a data buffer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeDataMismatch`] if the product of the shape
    /// does not equal `data.len()`.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Result<Self> {
        let expected: usize = shape.iter().product();
        if expected != data.len() {
            return Err(NnError::ShapeDataMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Self { shape, data })
    }

    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        let len = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let len = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![value; len],
        }
    }

    /// Creates a tensor with values drawn from a uniform distribution over
    /// `[low, high)` using the supplied random number generator.
    pub fn rand_uniform<R: rand::Rng + ?Sized>(
        shape: &[usize],
        low: f32,
        high: f32,
        rng: &mut R,
    ) -> Self {
        let len: usize = shape.iter().product();
        let data = (0..len).map(|_| rng.gen_range(low..high)).collect();
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Creates a tensor with values drawn from a normal distribution with the
    /// given mean and standard deviation (Box–Muller transform, so only the
    /// supplied [`rand::Rng`] is needed).
    pub fn rand_normal<R: rand::Rng + ?Sized>(
        shape: &[usize],
        mean: f32,
        std: f32,
        rng: &mut R,
    ) -> Self {
        let len: usize = shape.iter().product();
        let mut data = Vec::with_capacity(len);
        while data.len() < len {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let mag = (-2.0 * u1.ln()).sqrt();
            let z0 = mag * (2.0 * std::f32::consts::PI * u2).cos();
            let z1 = mag * (2.0 * std::f32::consts::PI * u2).sin();
            data.push(mean + std * z0);
            if data.len() < len {
                data.push(mean + std * z1);
            }
        }
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Tensor rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Immutable view of the underlying data in row-major order.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data in row-major order.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its data buffer.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Returns a copy with a new shape holding the same number of elements.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeDataMismatch`] if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Self> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(NnError::ShapeDataMismatch {
                expected,
                actual: self.data.len(),
            });
        }
        Ok(Self {
            shape: shape.to_vec(),
            data: self.data.clone(),
        })
    }

    /// [`Tensor::reshape`] without the copy: consumes the tensor and keeps
    /// its buffer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeDataMismatch`] if the element counts differ.
    pub(crate) fn into_reshaped(mut self, shape: &[usize]) -> Result<Self> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(NnError::ShapeDataMismatch {
                expected,
                actual: self.data.len(),
            });
        }
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        Ok(self)
    }

    /// Element access by flat (row-major) index.
    pub fn get(&self, index: usize) -> Option<f32> {
        self.data.get(index).copied()
    }

    /// Element access for rank-2 tensors.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or the indices are out of bounds.
    pub fn at2(&self, row: usize, col: usize) -> f32 {
        assert_eq!(self.rank(), 2, "at2 requires a rank-2 tensor");
        let cols = self.shape[1];
        self.data[row * cols + col]
    }

    /// Mutable element access for rank-2 tensors.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or the indices are out of bounds.
    pub fn at2_mut(&mut self, row: usize, col: usize) -> &mut f32 {
        assert_eq!(self.rank(), 2, "at2_mut requires a rank-2 tensor");
        let cols = self.shape[1];
        &mut self.data[row * cols + col]
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, |a, b| a + b)
    }

    /// Element-wise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, |a, b| a - b)
    }

    /// Element-wise multiplication (Hadamard product).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, |a, b| a * b)
    }

    /// In-place `self += scale * other`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the shapes differ.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) -> Result<()> {
        if self.shape != other.shape {
            return Err(NnError::ShapeMismatch {
                left: self.shape.clone(),
                right: other.shape.clone(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += scale * b;
        }
        Ok(())
    }

    /// Returns a new tensor whose elements are `self * scalar`.
    pub fn scale(&self, scalar: f32) -> Tensor {
        self.map(|v| v * scalar)
    }

    /// In-place multiplication by a scalar.
    pub fn scale_in_place(&mut self, scalar: f32) {
        for v in &mut self.data {
            *v *= scalar;
        }
    }

    /// Fills the tensor with a constant value.
    pub fn fill(&mut self, value: f32) {
        for v in &mut self.data {
            *v = value;
        }
    }

    /// Reshapes the tensor in place to `shape`, growing or shrinking the
    /// backing buffer while reusing its allocation.
    ///
    /// Existing element values are unspecified afterwards; callers are
    /// expected to overwrite every element (this is the resize primitive
    /// behind the reusable inference scratch buffers).
    pub fn reset(&mut self, shape: &[usize]) {
        let len: usize = shape.iter().product();
        self.data.resize(len, 0.0);
        self.shape.clear();
        self.shape.extend_from_slice(shape);
    }

    /// Copies `other`'s shape and data into `self`, reusing `self`'s
    /// allocations.
    pub fn copy_from(&mut self, other: &Tensor) {
        self.reset(other.shape());
        self.data.copy_from_slice(&other.data);
    }

    /// Applies `f` element-wise, producing a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f` element-wise in place.
    pub fn map_in_place<F: Fn(f32) -> f32>(&mut self, f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Combines two same-shape tensors element-wise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the shapes differ.
    pub fn zip_map<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, f: F) -> Result<Tensor> {
        if self.shape != other.shape {
            return Err(NnError::ShapeMismatch {
                left: self.shape.clone(),
                right: other.shape.clone(),
            });
        }
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Matrix multiplication of two rank-2 tensors: `[m,k] x [k,n] -> [m,n]`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::RankMismatch`] if either operand is not rank 2, or
    /// [`NnError::MatmulMismatch`] if the inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(NnError::RankMismatch {
                expected: 2,
                actual: self.rank(),
            });
        }
        if other.rank() != 2 {
            return Err(NnError::RankMismatch {
                expected: 2,
                actual: other.rank(),
            });
        }
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        if k != k2 {
            return Err(NnError::MatmulMismatch {
                left_cols: k,
                right_rows: k2,
            });
        }
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let row = &self.data[i * k..(i + 1) * k];
            for (p, &a) in row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let brow = &other.data[p * n..(p + 1) * n];
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &b) in orow.iter_mut().zip(brow.iter()) {
                    *o += a * b;
                }
            }
        }
        Tensor::from_vec(vec![m, n], out)
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::RankMismatch`] if the tensor is not rank 2.
    pub fn transpose(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(NnError::RankMismatch {
                expected: 2,
                actual: self.rank(),
            });
        }
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_vec(vec![n, m], out)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for the empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (negative infinity for the empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for the empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Maximum absolute value of any element (0.0 for the empty tensor).
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Index of the maximum element (ties resolved toward the lower index).
    ///
    /// Returns `None` for an empty tensor.
    pub fn argmax(&self) -> Option<usize> {
        argmax_slice(&self.data)
    }

    /// L2 norm of the tensor viewed as a flat vector.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Clamps every element into `[lo, hi]` in place.
    pub fn clamp_in_place(&mut self, lo: f32, hi: f32) {
        for v in &mut self.data {
            *v = v.clamp(lo, hi);
        }
    }

    /// Extracts row `index` of a rank-2 tensor as a `[1, cols]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or the row index is out of bounds.
    pub fn row(&self, index: usize) -> Tensor {
        assert_eq!(self.rank(), 2, "row requires a rank-2 tensor");
        let cols = self.shape[1];
        let start = index * cols;
        Tensor {
            shape: vec![1, cols],
            data: self.data[start..start + cols].to_vec(),
        }
    }

    /// Stacks rank-1 or `[1, n]` tensors into a `[rows, n]` batch tensor.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidArgument`] if `rows` is empty or the rows do
    /// not all share the same length.
    pub fn stack_rows(rows: &[Tensor]) -> Result<Tensor> {
        if rows.is_empty() {
            return Err(NnError::InvalidArgument(
                "stack_rows requires at least one row".into(),
            ));
        }
        let width = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * width);
        for r in rows {
            if r.len() != width {
                return Err(NnError::InvalidArgument(format!(
                    "stack_rows: row of length {} does not match width {}",
                    r.len(),
                    width
                )));
            }
            data.extend_from_slice(r.data());
        }
        Tensor::from_vec(vec![rows.len(), width], data)
    }
}

/// Index of the maximum element of a slice, with ties resolved toward the
/// lower index; `None` for an empty slice.
///
/// This is the **single source** of the argmax scan and tie-break shared by
/// [`Tensor::argmax`] and the batched rollout engine's per-row greedy
/// action selection — the two must agree bitwise for the lane-count
/// invariance contract to hold, so neither reimplements the loop.
pub fn argmax_slice(data: &[f32]) -> Option<usize> {
    if data.is_empty() {
        return None;
    }
    let mut best = 0usize;
    let mut best_v = data[0];
    for (i, &v) in data.iter().enumerate().skip(1) {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    Some(best)
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{} elements]", self.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(vec![2, 2], vec![1.0; 4]).is_ok());
        let err = Tensor::from_vec(vec![2, 2], vec![1.0; 3]).unwrap_err();
        assert_eq!(
            err,
            NnError::ShapeDataMismatch {
                expected: 4,
                actual: 3
            }
        );
    }

    #[test]
    fn zeros_ones_full() {
        let z = Tensor::zeros(&[3, 2]);
        assert_eq!(z.len(), 6);
        assert!(z.data().iter().all(|&v| v == 0.0));
        let o = Tensor::ones(&[2]);
        assert!(o.data().iter().all(|&v| v == 1.0));
        let f = Tensor::full(&[2, 2], 3.5);
        assert!(f.data().iter().all(|&v| v == 3.5));
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Tensor::from_vec(vec![2, 2], vec![4.0, 3.0, 2.0, 1.0]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[5.0, 5.0, 5.0, 5.0]);
        assert_eq!(a.sub(&b).unwrap().data(), &[-3.0, -1.0, 1.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[4.0, 6.0, 6.0, 4.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn elementwise_shape_mismatch_errors() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[4]);
        assert!(matches!(
            a.add(&b).unwrap_err(),
            NnError::ShapeMismatch { .. }
        ));
    }

    #[test]
    fn matmul_correctness() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Tensor::from_vec(vec![3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(matches!(
            a.matmul(&b).unwrap_err(),
            NnError::MatmulMismatch { .. }
        ));
        let v = Tensor::zeros(&[3]);
        assert!(matches!(
            v.matmul(&b).unwrap_err(),
            NnError::RankMismatch { .. }
        ));
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let t = a.transpose().unwrap();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.at2(0, 1), 4.0);
        let back = t.transpose().unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![4], vec![1.0, -2.0, 3.0, 0.5]).unwrap();
        assert_eq!(a.sum(), 2.5);
        assert!((a.mean() - 0.625).abs() < 1e-6);
        assert_eq!(a.max(), 3.0);
        assert_eq!(a.min(), -2.0);
        assert_eq!(a.abs_max(), 3.0);
        assert_eq!(a.argmax(), Some(2));
    }

    #[test]
    fn argmax_of_empty_is_none() {
        let a = Tensor::zeros(&[0]);
        assert_eq!(a.argmax(), None);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let r = a.reshape(&[3, 2]).unwrap();
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), a.data());
        assert!(a.reshape(&[7]).is_err());
    }

    #[test]
    fn row_and_stack_rows() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let r1 = a.row(1);
        assert_eq!(r1.data(), &[4.0, 5.0, 6.0]);
        let stacked = Tensor::stack_rows(&[a.row(0), a.row(1)]).unwrap();
        assert_eq!(stacked, a);
        assert!(Tensor::stack_rows(&[]).is_err());
    }

    #[test]
    fn rand_normal_statistics_are_sane() {
        let mut r = rng();
        let t = Tensor::rand_normal(&[10_000], 1.0, 2.0, &mut r);
        let mean = t.mean();
        let var = t.data().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / t.len() as f32;
        assert!((mean - 1.0).abs() < 0.1, "mean was {mean}");
        assert!((var - 4.0).abs() < 0.4, "variance was {var}");
    }

    #[test]
    fn rand_uniform_respects_bounds() {
        let mut r = rng();
        let t = Tensor::rand_uniform(&[1000], -0.5, 0.5, &mut r);
        assert!(t.data().iter().all(|&v| (-0.5..0.5).contains(&v)));
    }

    #[test]
    fn add_scaled_and_scale_in_place() {
        let mut a = Tensor::from_vec(vec![3], vec![1.0, 2.0, 3.0]).unwrap();
        let b = Tensor::from_vec(vec![3], vec![1.0, 1.0, 1.0]).unwrap();
        a.add_scaled(&b, 0.5).unwrap();
        assert_eq!(a.data(), &[1.5, 2.5, 3.5]);
        a.scale_in_place(2.0);
        assert_eq!(a.data(), &[3.0, 5.0, 7.0]);
        let c = Tensor::zeros(&[2]);
        assert!(a.add_scaled(&c, 1.0).is_err());
    }

    #[test]
    fn reset_and_copy_from_reuse_buffers() {
        let mut t = Tensor::from_vec(vec![2, 3], vec![1.0; 6]).unwrap();
        t.reset(&[4]);
        assert_eq!(t.shape(), &[4]);
        assert_eq!(t.len(), 4);
        let src = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        t.copy_from(&src);
        assert_eq!(t, src);
    }

    #[test]
    fn clamp_in_place_bounds_values() {
        let mut a = Tensor::from_vec(vec![4], vec![-5.0, -0.5, 0.5, 5.0]).unwrap();
        a.clamp_in_place(-1.0, 1.0);
        assert_eq!(a.data(), &[-1.0, -0.5, 0.5, 1.0]);
    }

    #[test]
    fn display_is_compact_for_large_tensors() {
        let a = Tensor::zeros(&[100]);
        let s = format!("{a}");
        assert!(s.contains("100 elements"));
        let b = Tensor::zeros(&[2]);
        assert!(format!("{b}").contains("[0.0, 0.0]"));
    }

    proptest! {
        #[test]
        fn prop_add_commutes(values in proptest::collection::vec(-1e3f32..1e3, 1..64)) {
            let n = values.len();
            let a = Tensor::from_vec(vec![n], values.clone()).unwrap();
            let rev: Vec<f32> = values.iter().rev().copied().collect();
            let b = Tensor::from_vec(vec![n], rev).unwrap();
            let ab = a.add(&b).unwrap();
            let ba = b.add(&a).unwrap();
            prop_assert_eq!(ab.data(), ba.data());
        }

        #[test]
        fn prop_transpose_is_involution(rows in 1usize..8, cols in 1usize..8, seed in 0u64..1000) {
            let mut r = rand::rngs::StdRng::seed_from_u64(seed);
            let t = Tensor::rand_uniform(&[rows, cols], -1.0, 1.0, &mut r);
            let tt = t.transpose().unwrap().transpose().unwrap();
            prop_assert_eq!(t, tt);
        }

        #[test]
        fn prop_matmul_identity(n in 1usize..8, seed in 0u64..1000) {
            let mut r = rand::rngs::StdRng::seed_from_u64(seed);
            let a = Tensor::rand_uniform(&[n, n], -1.0, 1.0, &mut r);
            let mut eye = Tensor::zeros(&[n, n]);
            for i in 0..n {
                *eye.at2_mut(i, i) = 1.0;
            }
            let prod = a.matmul(&eye).unwrap();
            for (x, y) in prod.data().iter().zip(a.data().iter()) {
                prop_assert!((x - y).abs() < 1e-5);
            }
        }

        #[test]
        fn prop_scale_then_sum_scales_sum(scale in -10.0f32..10.0, values in proptest::collection::vec(-100.0f32..100.0, 1..32)) {
            let n = values.len();
            let t = Tensor::from_vec(vec![n], values).unwrap();
            let lhs = t.scale(scale).sum();
            let rhs = t.sum() * scale;
            prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + rhs.abs()));
        }
    }
}
