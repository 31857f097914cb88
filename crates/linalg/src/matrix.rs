//! Row-major dense `f64` matrix.
//!
//! [`Matrix`] is the workhorse value type of the workspace: the autodiff
//! engine stores activations and gradients in it, the ridge baseline builds
//! normal equations with it, and PCA projects through it. Matrix products
//! route through the packed, register-blocked kernels in [`crate::gemm`]
//! (with a naive fallback for tiny shapes); both paths produce
//! bit-identical results.

// Indexed loops mirror the textbook formulations of these numeric
// kernels; iterator rewrites would obscure them.
#![allow(clippy::needless_range_loop)]

use serde::Serialize;

use crate::error::{Error, Result};
use crate::gemm;

/// Tile edge of the blocked [`Matrix::transpose`]: 32×32 doubles is 8 KiB,
/// small enough for both the source rows and destination columns of a
/// tile to stay L1-resident.
const TRANSPOSE_BLOCK: usize = 32;

/// Minimum row count before `col_means` switches to chunked
/// accumulation. The chunked sum reassociates the column sums, so the
/// gate is on size only and the bits of every tall fit depend on it.
const COL_STATS_CHUNKED_ROWS: usize = 8192;

/// Rows per `col_means` chunk; the partial sums are folded in ascending
/// chunk order.
const COL_STATS_CHUNK: usize = 2048;

/// A dense matrix of `f64` stored in row-major order.
///
/// Deserialisation goes through [`Matrix::from_vec`], so a document whose
/// `data` length disagrees with `rows × cols` fails to load instead of
/// panicking at first use.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of the given shape filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix of the given shape filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n`-by-`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// Returns an error when `data.len() != rows * cols`, including when
    /// `rows * cols` overflows.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(Error::ShapeMismatch {
                op: "from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, f: impl FnMut(usize, usize) -> f64) -> Self {
        Matrix::from_fn_with(rows, cols, Vec::new(), f)
    }

    /// [`Matrix::from_fn`] writing into `storage` (cleared and refilled),
    /// so callers with a buffer pool can avoid the allocation.
    pub fn from_fn_with(
        rows: usize,
        cols: usize,
        mut storage: Vec<f64>,
        mut f: impl FnMut(usize, usize) -> f64,
    ) -> Self {
        storage.clear();
        storage.reserve(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                storage.push(f(i, j));
            }
        }
        Matrix {
            rows,
            cols,
            data: storage,
        }
    }

    /// Creates a single-row matrix from a slice.
    pub fn row_vector(v: &[f64]) -> Self {
        Matrix {
            rows: 1,
            cols: v.len(),
            data: v.to_vec(),
        }
    }

    /// Creates a single-column matrix from a slice.
    pub fn col_vector(v: &[f64]) -> Self {
        Matrix {
            rows: v.len(),
            cols: 1,
            data: v.to_vec(),
        }
    }

    /// Creates a matrix from a slice of equal-length rows.
    ///
    /// Returns an error when the rows have differing lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Ok(Matrix::zeros(0, 0));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(Error::ShapeMismatch {
                    op: "from_rows",
                    lhs: (i, cols),
                    rhs: (i, r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as a `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow of the underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning the row-major data vector.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Clone of `self` written into `storage` (cleared and refilled), so
    /// callers with a buffer pool can avoid the copy's allocation.
    pub fn clone_with(&self, mut storage: Vec<f64>) -> Matrix {
        storage.clear();
        storage.extend_from_slice(&self.data);
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: storage,
        }
    }

    /// Element at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics when the indices are out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        self.data[i * self.cols + j]
    }

    /// Sets the element at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics when the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        self.data[i * self.cols + j] = v;
    }

    /// Borrow of row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics when `i >= rows`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics when `i >= rows`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index out of bounds");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy of column `j`.
    ///
    /// Allocates a fresh vector; hot loops that only need to *read* a
    /// column should use [`Matrix::col_iter`] instead.
    ///
    /// # Panics
    ///
    /// Panics when `j >= cols`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        self.col_iter(j).collect()
    }

    /// Allocation-free strided iterator over column `j`, top to bottom.
    ///
    /// # Panics
    ///
    /// Panics when `j >= cols`.
    pub fn col_iter(&self, j: usize) -> impl ExactSizeIterator<Item = f64> + '_ {
        assert!(j < self.cols, "column index out of bounds");
        self.data[j..].iter().step_by(self.cols.max(1)).copied()
    }

    /// The transpose, copied tile-by-tile ([`TRANSPOSE_BLOCK`]² blocks)
    /// so both the source and the destination of each tile stay
    /// cache-resident instead of one side streaming with a full-row
    /// stride.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        let (r, c) = (self.rows, self.cols);
        for i0 in (0..r).step_by(TRANSPOSE_BLOCK) {
            let i1 = (i0 + TRANSPOSE_BLOCK).min(r);
            for j0 in (0..c).step_by(TRANSPOSE_BLOCK) {
                let j1 = (j0 + TRANSPOSE_BLOCK).min(c);
                for i in i0..i1 {
                    for j in j0..j1 {
                        out.data[j * r + i] = self.data[i * c + j];
                    }
                }
            }
        }
        out
    }

    /// Matrix product `self * rhs` through the packed, register-blocked
    /// kernels of [`crate::gemm`] (naive `ikj` fallback for tiny
    /// shapes).
    ///
    /// Every output element is produced by the exact same ascending-`k`
    /// accumulation chain on either kernel, so the result is
    /// bit-identical for both.
    ///
    /// Returns an error when the inner dimensions disagree.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        self.matmul_with(rhs, Vec::new())
    }

    /// [`Matrix::matmul`] writing into `storage` (cleared and resized),
    /// so callers with a buffer pool can avoid the output allocation.
    pub fn matmul_with(&self, rhs: &Matrix, storage: Vec<f64>) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(Error::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Self::zeros_with(self.rows, rhs.cols, storage);
        gemm::gemm_nn(
            &self.data,
            self.rows,
            self.cols,
            &rhs.data,
            rhs.cols,
            &mut out.data,
        );
        Ok(out)
    }

    /// Matrix product `self * rhsᵀ` without materialising the transpose;
    /// bit-identical to `self.matmul(&rhs.transpose())`.
    ///
    /// Returns an error when `self.cols != rhs.cols`.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Result<Matrix> {
        self.matmul_nt_with(rhs, Vec::new())
    }

    /// [`Matrix::matmul_nt`] writing into `storage` (cleared and
    /// resized).
    pub fn matmul_nt_with(&self, rhs: &Matrix, storage: Vec<f64>) -> Result<Matrix> {
        if self.cols != rhs.cols {
            return Err(Error::ShapeMismatch {
                op: "matmul_nt",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Self::zeros_with(self.rows, rhs.rows, storage);
        gemm::gemm_nt(
            &self.data,
            self.rows,
            self.cols,
            &rhs.data,
            rhs.rows,
            &mut out.data,
        );
        Ok(out)
    }

    /// Matrix product `selfᵀ * rhs` without materialising the transpose;
    /// bit-identical to `self.transpose().matmul(&rhs)`.
    ///
    /// Returns an error when `self.rows != rhs.rows`.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Result<Matrix> {
        self.matmul_tn_with(rhs, Vec::new())
    }

    /// [`Matrix::matmul_tn`] writing into `storage` (cleared and
    /// resized).
    pub fn matmul_tn_with(&self, rhs: &Matrix, storage: Vec<f64>) -> Result<Matrix> {
        if self.rows != rhs.rows {
            return Err(Error::ShapeMismatch {
                op: "matmul_tn",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Self::zeros_with(self.cols, rhs.cols, storage);
        gemm::gemm_tn(
            &self.data,
            self.rows,
            self.cols,
            &rhs.data,
            rhs.cols,
            &mut out.data,
        );
        Ok(out)
    }

    /// Builds a zeroed `rows×cols` matrix on top of `storage`, reusing
    /// its heap allocation when the capacity suffices.
    /// All-zero matrix written into `storage` (cleared and resized), the
    /// buffer-pooling counterpart of [`Matrix::zeros`].
    pub fn zeros_with(rows: usize, cols: usize, mut storage: Vec<f64>) -> Matrix {
        storage.clear();
        storage.resize(rows * cols, 0.0);
        Matrix {
            rows,
            cols,
            data: storage,
        }
    }

    /// Matrix-vector product `self * v`: one dot product per row.
    ///
    /// Returns an error when `v.len() != cols`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(Error::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        Ok((0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Element-wise sum `self + rhs`.
    ///
    /// Returns an error on shape mismatch.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// [`Matrix::add`] writing into `storage` (cleared and refilled).
    pub fn add_with(&self, rhs: &Matrix, storage: Vec<f64>) -> Result<Matrix> {
        self.zip_with_storage(rhs, "add", storage, |a, b| a + b)
    }

    /// Element-wise difference `self - rhs`.
    ///
    /// Returns an error on shape mismatch.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// [`Matrix::sub`] writing into `storage` (cleared and refilled).
    pub fn sub_with(&self, rhs: &Matrix, storage: Vec<f64>) -> Result<Matrix> {
        self.zip_with_storage(rhs, "sub", storage, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product `self ⊙ rhs`.
    ///
    /// Returns an error on shape mismatch.
    pub fn hadamard(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "hadamard", |a, b| a * b)
    }

    /// [`Matrix::hadamard`] writing into `storage` (cleared and
    /// refilled).
    pub fn hadamard_with(&self, rhs: &Matrix, storage: Vec<f64>) -> Result<Matrix> {
        self.zip_with_storage(rhs, "hadamard", storage, |a, b| a * b)
    }

    fn zip_with_storage(
        &self,
        rhs: &Matrix,
        op: &'static str,
        mut storage: Vec<f64>,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(Error::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        storage.clear();
        storage.extend(self.data.iter().zip(&rhs.data).map(|(&a, &b)| f(a, b)));
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: storage,
        })
    }

    fn zip_with(
        &self,
        rhs: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(Error::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// In-place element-wise addition of `rhs` scaled by `alpha`
    /// (`self += alpha * rhs`, the `axpy` idiom).
    ///
    /// Returns an error on shape mismatch.
    pub fn axpy(&mut self, alpha: f64, rhs: &Matrix) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(Error::ShapeMismatch {
                op: "axpy",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Scalar multiple `alpha * self`.
    pub fn scale(&self, alpha: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| alpha * x).collect(),
        }
    }

    /// [`Matrix::scale`] writing into `storage` (cleared and refilled).
    pub fn scale_with(&self, alpha: f64, storage: Vec<f64>) -> Matrix {
        self.map_with(storage, |x| alpha * x)
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// [`Matrix::map`] writing into `storage` (cleared and refilled).
    pub fn map_with(&self, mut storage: Vec<f64>, f: impl Fn(f64) -> f64) -> Matrix {
        storage.clear();
        storage.extend(self.data.iter().map(|&x| f(x)));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: storage,
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute element, or `0.0` for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &x| m.max(x.abs()))
    }

    /// Whether all elements are finite (no NaN or infinity).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// A new matrix consisting of the selected rows, in order.
    ///
    /// Returns an error when any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Result<Matrix> {
        self.select_rows_with(indices, Vec::new())
    }

    /// [`Matrix::select_rows`] writing into `storage` (cleared and
    /// refilled), so callers with a buffer pool can avoid the allocation.
    ///
    /// Returns an error when any index is out of bounds.
    pub fn select_rows_with(&self, indices: &[usize], mut storage: Vec<f64>) -> Result<Matrix> {
        storage.clear();
        storage.reserve(indices.len() * self.cols);
        for &i in indices {
            if i >= self.rows {
                return Err(Error::IndexOutOfBounds {
                    index: i,
                    len: self.rows,
                });
            }
            storage.extend_from_slice(self.row(i));
        }
        Ok(Matrix {
            rows: indices.len(),
            cols: self.cols,
            data: storage,
        })
    }

    /// Stacks `self` on top of `below`.
    ///
    /// Returns an error when column counts differ.
    pub fn vstack(&self, below: &Matrix) -> Result<Matrix> {
        Matrix::vstack_all(&[self, below])
    }

    /// Stacks `parts` top to bottom. The output is sized once and each
    /// part copied once, so pooling many frames costs one pass over
    /// their rows (stacking them pairwise re-copies every earlier row).
    ///
    /// Returns an error for an empty list or when column counts differ.
    pub fn vstack_all(parts: &[&Matrix]) -> Result<Matrix> {
        let Some(first) = parts.first() else {
            return Err(Error::Empty { routine: "vstack" });
        };
        let cols = first.cols;
        if let Some(bad) = parts.iter().find(|p| p.cols != cols) {
            return Err(Error::ShapeMismatch {
                op: "vstack",
                lhs: first.shape(),
                rhs: bad.shape(),
            });
        }
        let rows = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Concatenates `self` with `right` column-wise.
    ///
    /// Returns an error when row counts differ.
    pub fn hstack(&self, right: &Matrix) -> Result<Matrix> {
        if self.rows != right.rows {
            return Err(Error::ShapeMismatch {
                op: "hstack",
                lhs: self.shape(),
                rhs: right.shape(),
            });
        }
        let cols = self.cols + right.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for i in 0..self.rows {
            data.extend_from_slice(self.row(i));
            data.extend_from_slice(right.row(i));
        }
        Ok(Matrix {
            rows: self.rows,
            cols,
            data,
        })
    }

    /// Per-column means, or zeros for a matrix with no rows.
    ///
    /// Tall matrices (≥ [`COL_STATS_CHUNKED_ROWS`] rows) sum each
    /// [`COL_STATS_CHUNK`]-row chunk on its own and fold the partial sums
    /// in ascending chunk order; shorter ones sum row by row. The gate is
    /// on size only, and the chunking fixes the bits of every tall fit.
    pub fn col_means(&self) -> Vec<f64> {
        if self.rows == 0 {
            return vec![0.0; self.cols];
        }
        let chunk = if self.rows >= COL_STATS_CHUNKED_ROWS {
            COL_STATS_CHUNK
        } else {
            self.rows
        };
        let width = self.cols.max(1);
        let mut means = vec![0.0; self.cols];
        let mut partial = vec![0.0; self.cols];
        for (ci, rows) in self.data.chunks(chunk * width).enumerate() {
            // The first chunk's sums seed the fold; later ones add on.
            let sums = if ci == 0 { &mut means } else { &mut partial };
            sums.fill(0.0);
            for row in rows.chunks(width) {
                for (s, &x) in sums.iter_mut().zip(row) {
                    *s += x;
                }
            }
            if ci > 0 {
                for (m, &p) in means.iter_mut().zip(&partial) {
                    *m += p;
                }
            }
        }
        for m in &mut means {
            *m /= self.rows as f64;
        }
        means
    }

    /// The Gram matrix `selfᵀ * self`, exploiting symmetry.
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut out = Matrix::zeros(n, n);
        for row in 0..self.rows {
            let r = self.row(row);
            let row_finite = r.iter().all(|x| x.is_finite());
            for i in 0..n {
                let ri = r[i];
                // envlint: allow(float-cmp) — exact sparsity skip: only a bitwise
                // zero contributes nothing, and only within a finite row
                // (IEEE-754: 0·NaN = 0·inf = NaN).
                if ri == 0.0 && row_finite {
                    continue;
                }
                for j in i..n {
                    out.data[i * n + j] += ri * r[j];
                }
            }
        }
        for i in 0..n {
            for j in 0..i {
                out.data[i * n + j] = out.data[j * n + i];
            }
        }
        out
    }
}

impl serde::Deserialize for Matrix {
    fn deserialize(value: &serde::Value) -> std::result::Result<Self, serde::Error> {
        let rows = usize::deserialize(value.field("rows")?)?;
        let cols = usize::deserialize(value.field("cols")?)?;
        let data = Vec::<f64>::deserialize(value.field("data")?)?;
        Matrix::from_vec(rows, cols, data).map_err(|e| serde::Error::new(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m23() -> Matrix {
        Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let m = m23();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).is_err());
    }

    #[test]
    fn from_rows_empty_is_0x0() {
        let m = Matrix::from_rows(&[]).unwrap();
        assert_eq!(m.shape(), (0, 0));
        assert!(m.is_empty());
    }

    #[test]
    fn identity_matmul_is_noop() {
        let m = m23();
        let left = Matrix::identity(2).matmul(&m).unwrap();
        let right = m.matmul(&Matrix::identity(3)).unwrap();
        assert_eq!(left, m);
        assert_eq!(right, m);
    }

    #[test]
    fn matmul_known_product() {
        let a = m23();
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = m23();
        assert!(a.matmul(&m23()).is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let m = m23();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn matvec_matches_matmul() {
        let m = m23();
        let v = [1.0, 0.5, -1.0];
        let got = m.matvec(&v).unwrap();
        let expect = m.matmul(&Matrix::col_vector(&v)).unwrap();
        assert_eq!(got, expect.into_vec());
    }

    #[test]
    fn elementwise_ops() {
        let a = m23();
        let b = a.scale(2.0);
        assert_eq!(a.add(&b).unwrap().get(0, 0), 3.0);
        assert_eq!(b.sub(&a).unwrap(), a);
        assert_eq!(a.hadamard(&a).unwrap().get(1, 2), 36.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::zeros(2, 3);
        a.axpy(0.5, &m23()).unwrap();
        assert_eq!(a.get(1, 1), 2.5);
        assert!(a.axpy(1.0, &Matrix::zeros(3, 2)).is_err());
    }

    #[test]
    fn stacking() {
        let a = m23();
        let v = a.vstack(&a).unwrap();
        assert_eq!(v.shape(), (4, 3));
        assert_eq!(v.row(3), a.row(1));
        let h = a.hstack(&a).unwrap();
        assert_eq!(h.shape(), (2, 6));
        assert_eq!(h.get(0, 4), 2.0);
        assert!(a.vstack(&Matrix::zeros(1, 2)).is_err());
        assert!(a.hstack(&Matrix::zeros(3, 1)).is_err());

        let b = Matrix::filled(1, 3, 7.0);
        let all = Matrix::vstack_all(&[&a, &b, &a]).unwrap();
        assert_eq!(all, a.vstack(&b).unwrap().vstack(&a).unwrap());
        assert_eq!(all.row(2), &[7.0; 3]);
        assert!(Matrix::vstack_all(&[&a, &b, &Matrix::zeros(1, 2)]).is_err());
        assert!(Matrix::vstack_all(&[]).is_err());
    }

    #[test]
    fn select_rows_orders_and_bounds() {
        let a = m23();
        let s = a.select_rows(&[1, 0, 1]).unwrap();
        assert_eq!(s.rows(), 3);
        assert_eq!(s.row(0), a.row(1));
        assert!(a.select_rows(&[2]).is_err());
    }

    #[test]
    fn reductions() {
        let a = m23();
        assert_eq!(a.sum(), 21.0);
        assert!((a.frobenius_norm() - 91.0_f64.sqrt()).abs() < 1e-12);
        assert_eq!(a.max_abs(), 6.0);
        assert_eq!(a.col_means(), vec![2.5, 3.5, 4.5]);
    }

    #[test]
    fn gram_matches_explicit_product() {
        let a = m23();
        let g = a.gram();
        let explicit = a.transpose().matmul(&a).unwrap();
        for (x, y) in g.as_slice().iter().zip(explicit.as_slice()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_times_nonfinite_propagates_through_matmul() {
        // Regression: the sparsity skip used to turn 0·NaN and 0·inf
        // into 0.0, hiding non-finite values from downstream checks.
        let zero = Matrix::from_vec(1, 1, vec![0.0]).unwrap();
        let nan = Matrix::from_vec(1, 1, vec![f64::NAN]).unwrap();
        let inf = Matrix::from_vec(1, 1, vec![f64::INFINITY]).unwrap();
        assert!(zero.matmul(&nan).unwrap().get(0, 0).is_nan());
        assert!(zero.matmul(&inf).unwrap().get(0, 0).is_nan());
        // Mixed case: the zero left entry meets NaN in one column and a
        // finite value in the other.
        let a = Matrix::from_vec(1, 2, vec![0.0, 1.0]).unwrap();
        let b = Matrix::from_vec(2, 2, vec![f64::NAN, 2.0, 3.0, 4.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert!(c.get(0, 0).is_nan(), "0·NaN lost: {}", c.get(0, 0));
        // The finite entries of the non-finite row still multiply
        // normally: 0·2 + 1·4 = 4.
        assert_eq!(c.get(0, 1), 4.0);
        let finite_b = Matrix::from_vec(2, 2, vec![9.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(a.matmul(&finite_b).unwrap().as_slice(), &[3.0, 4.0]);
    }

    #[test]
    fn zero_times_nonfinite_propagates_through_gram() {
        let m = Matrix::from_vec(1, 2, vec![0.0, f64::INFINITY]).unwrap();
        let g = m.gram();
        // Column 0 is all zeros but shares a row with inf: 0·0 = 0 is
        // fine, 0·inf must be NaN.
        assert_eq!(g.get(0, 0), 0.0);
        assert!(g.get(0, 1).is_nan());
        assert!(g.get(1, 0).is_nan());
        assert!(g.get(1, 1).is_infinite());
    }

    /// `col_means` by hand: 2048-row chunks summed on their own, partials
    /// folded in ascending order. Also returns the naive top-to-bottom sum,
    /// which must differ somewhere for the input to pin the chunking.
    fn chunked_and_naive_means(m: &Matrix) -> (Vec<f64>, Vec<f64>) {
        let rows = m.rows() as f64;
        let chunked = (0..m.cols())
            .map(|j| {
                let col = m.col(j);
                let partials = col.chunks(2048).map(|c| c.iter().fold(0.0, |a, &x| a + x));
                partials.reduce(|a, p| a + p).unwrap() / rows
            })
            .collect();
        let naive = (0..m.cols())
            .map(|j| m.col_iter(j).fold(0.0, |a, x| a + x) / rows)
            .collect();
        (chunked, naive)
    }

    #[test]
    fn chunked_col_means_is_thread_count_independent() {
        // Both inputs reach the chunked (reassociated) path, which has
        // no thread count to depend on: the bits equal a fixed chunked
        // fold, and a naive sum would move them.
        let inputs = [
            Matrix::from_fn(8192, 3, |i, j| ((i * 7 + j) % 1009) as f64 * 1e-3 - 0.5),
            Matrix::from_fn(9000, 5, |i, j| ((i * 17 + j) % 1013) as f64 * 1e-4),
        ];
        for m in &inputs {
            let (chunked, naive) = chunked_and_naive_means(m);
            let got = m.col_means();
            for (j, (g, c)) in got.iter().zip(&chunked).enumerate() {
                assert_eq!(g.to_bits(), c.to_bits(), "{:?} column {j}", m.shape());
            }
            assert!(
                chunked
                    .iter()
                    .zip(&naive)
                    .any(|(c, n)| c.to_bits() != n.to_bits()),
                "{:?}: the naive sum agrees, so this input pins nothing",
                m.shape()
            );
        }
    }

    #[test]
    fn deserialize_checks_the_shape() {
        let m = m23();
        let json = serde::Serialize::serialize(&m);
        let back: Matrix = serde::Deserialize::deserialize(&json).unwrap();
        assert_eq!(back, m);
        let doc = |rows: u64, cols: u64, len: usize| {
            serde::Value::Object(vec![
                ("rows".into(), serde::Value::UInt(rows)),
                ("cols".into(), serde::Value::UInt(cols)),
                (
                    "data".into(),
                    serde::Value::Array(vec![serde::Value::Float(1.0); len]),
                ),
            ])
        };
        // One value short of 2×3.
        assert!(<Matrix as serde::Deserialize>::deserialize(&doc(2, 3, 5)).is_err());
        // A shape whose element count overflows `usize`, with empty data.
        let huge = 1u64 << 33;
        assert!(<Matrix as serde::Deserialize>::deserialize(&doc(huge, huge, 0)).is_err());
        assert!(Matrix::from_vec(usize::MAX, 2, Vec::new()).is_err());
    }

    #[test]
    fn finite_detection() {
        let mut a = m23();
        assert!(a.is_finite());
        a.set(0, 0, f64::NAN);
        assert!(!a.is_finite());
    }

    #[test]
    fn map_and_map_inplace_agree() {
        let a = m23();
        let mut b = a.clone();
        b.map_inplace(|x| x * x);
        assert_eq!(a.map(|x| x * x), b);
    }
}
