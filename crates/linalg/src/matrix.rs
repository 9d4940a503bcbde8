//! Row-major dense matrix of `f64`.

use crate::error::LinalgError;
use crate::vector;
use std::fmt;
use std::ops::{Index, IndexMut};

/// Column-tile width of the matmul kernel: 256 `f64`s (2 KiB) of the output
/// row and of each `other` row stay hot while `k` sweeps. Products narrower
/// than one tile run exactly the untiled i-k-j loop.
const MATMUL_J_TILE: usize = 256;

/// A dense, row-major matrix of `f64` values.
///
/// This is the single array type shared by the whole workspace: datasets are
/// `n × d` matrices, covariance/precision matrices are `d × d`, projection
/// direction pairs are `2 × d`, and so on.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of size `n × n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Diagonal matrix from the given entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &v) in diag.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Build from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Build from row slices.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Build with a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True when `rows == cols`.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Raw row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "col index {} out of bounds", j);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Overwrite row `i` with `values`.
    pub fn set_row(&mut self, i: usize, values: &[f64]) {
        assert_eq!(values.len(), self.cols, "set_row: length mismatch");
        self.row_mut(i).copy_from_slice(values);
    }

    /// Overwrite column `j` with `values`.
    pub fn set_col(&mut self, j: usize, values: &[f64]) {
        assert_eq!(values.len(), self.rows, "set_col: length mismatch");
        for (i, &v) in values.iter().enumerate() {
            self[(i, j)] = v;
        }
    }

    /// Swap two rows in place.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (a, b) = (a.min(b), a.max(b));
        let (head, tail) = self.data.split_at_mut(b * self.cols);
        head[a * self.cols..(a + 1) * self.cols].swap_with_slice(&mut tail[..self.cols]);
    }

    /// Extract the sub-matrix given by `row_indices` (all columns).
    pub fn select_rows(&self, row_indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(row_indices.len(), self.cols);
        for (k, &i) in row_indices.iter().enumerate() {
            out.row_mut(k).copy_from_slice(self.row(i));
        }
        out
    }

    /// Transpose into a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * other`.
    ///
    /// Cache-friendly i-k-j loop order with column tiling for wide outputs;
    /// per-element accumulation always runs over `k` ascending, so the
    /// result is bit-identical to the textbook i-j-k triple loop (and to
    /// [`Matrix::matmul_with`] at any thread count).
    ///
    /// # Panics
    /// Panics if inner dimensions differ.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_rows_into(other, 0, self.rows, out.as_mut_slice());
        out
    }

    /// Matrix product `self * other`, splitting the rows of `self` across
    /// the pool when the product is large enough to amortize dispatch.
    /// Bit-identical to [`Matrix::matmul`]: every output row is computed by
    /// exactly the same kernel, whole rows are never split.
    pub fn matmul_with(&self, other: &Matrix, pool: &sider_par::ThreadPool) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        let p = other.cols;
        let flops = self.rows.saturating_mul(self.cols).saturating_mul(p);
        let pool = pool.gated(flops);
        if pool.threads() <= 1 || p == 0 {
            self.matmul_rows_into(other, 0, self.rows, out.as_mut_slice());
            return out;
        }
        let rows_per_chunk = self.rows.div_ceil(pool.threads() * 4).max(1);
        pool.par_chunks_mut(
            out.as_mut_slice(),
            rows_per_chunk * p,
            |chunk_idx, out_chunk| {
                let start = chunk_idx * rows_per_chunk;
                let end = start + out_chunk.len() / p;
                self.matmul_rows_into(other, start, end, out_chunk);
            },
        );
        out
    }

    /// Product of a column subset with another matrix:
    /// `self[:, cols] · other`, where `other` is `cols.len() × p`.
    ///
    /// This is the blocked rank-k basis product of the eigensolver stack
    /// (`V[:, nd] · Q` in the secular merge): it reads the selected
    /// columns in place instead of materializing the `n × m` sub-matrix,
    /// and reuses the [`Matrix::matmul`] column tiling. For every output
    /// element the accumulation runs over `k` ascending, so the result is
    /// bit-identical to `select`-copying the columns and calling
    /// [`Matrix::matmul`].
    ///
    /// # Panics
    /// Panics if `other.rows != cols.len()` or any index is out of range.
    pub fn matmul_select_cols(&self, cols: &[usize], other: &Matrix) -> Matrix {
        assert_eq!(
            cols.len(),
            other.rows,
            "matmul_select_cols: {} selected columns vs {} rows",
            cols.len(),
            other.rows
        );
        assert!(
            cols.iter().all(|&c| c < self.cols),
            "matmul_select_cols: column index out of range"
        );
        let p = other.cols;
        let mut out = Matrix::zeros(self.rows, p);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = out.row_mut(i);
            for jb in (0..p).step_by(MATMUL_J_TILE) {
                let je = (jb + MATMUL_J_TILE).min(p);
                for (k, &c) in cols.iter().enumerate() {
                    let a = a_row[c];
                    if a == 0.0 {
                        continue;
                    }
                    let orow = &other.row(k)[jb..je];
                    for (o, &b) in out_row[jb..je].iter_mut().zip(orow) {
                        *o += a * b;
                    }
                }
            }
        }
        out
    }

    /// Kernel shared by the serial and parallel products: rows
    /// `row_start..row_end` of `self * other` into `out` (row-major,
    /// `(row_end − row_start) × other.cols`). The `j` loop is tiled so the
    /// active slices of `out` and `other` stay cache-resident when the
    /// output is wide; for every output element the `k` accumulation order
    /// is unchanged (ascending), keeping all paths bit-identical.
    fn matmul_rows_into(&self, other: &Matrix, row_start: usize, row_end: usize, out: &mut [f64]) {
        let p = other.cols;
        debug_assert_eq!(out.len(), (row_end - row_start) * p);
        for i in row_start..row_end {
            let a_row = self.row(i);
            let out_row = &mut out[(i - row_start) * p..(i - row_start + 1) * p];
            for jb in (0..p).step_by(MATMUL_J_TILE) {
                let je = (jb + MATMUL_J_TILE).min(p);
                for (k, &a) in a_row.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    let orow = &other.row(k)[jb..je];
                    for (o, &b) in out_row[jb..je].iter_mut().zip(orow) {
                        *o += a * b;
                    }
                }
            }
        }
    }

    /// Matrix–vector product `self * x`.
    ///
    /// Runs the four-row interleaved kernel of [`Matrix::matvec_into`], so
    /// every entry equals `vector::dot(self.row(i), x)` bit for bit.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec: length mismatch");
        let mut out = vec![0.0; self.rows];
        self.for_each_row_dot(x, |i, v| out[i] = v);
        out
    }

    /// Matrix–vector product `self * x` written into a caller-provided
    /// buffer — the allocation-free kernel behind per-row sampling and
    /// whitening.
    ///
    /// Four rows share one pass over `x`, each in its own accumulator
    /// lane that starts at `-0.0` and adds in ascending column order, so
    /// every entry equals `vector::dot(self.row(i), x)` bit for bit. The
    /// one to three rows left over take that per-row `dot` directly.
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec_into: x length mismatch");
        assert_eq!(out.len(), self.rows, "matvec_into: out length mismatch");
        self.for_each_row_dot(x, |i, v| out[i] = v);
    }

    /// Calls `f(i, row_i · x)` for every row in ascending `i`: four rows
    /// per pass over `x`, one independent lane each, so the four addition
    /// chains overlap while each lane keeps `vector::dot`'s order and
    /// bits (a `-0.0` start, `row[k] * x[k]` added for ascending `k`).
    #[inline]
    fn for_each_row_dot(&self, x: &[f64], mut f: impl FnMut(usize, f64)) {
        let d = self.cols;
        let quads = self.rows / 4;
        for q in 0..quads {
            let block = &self.data[4 * q * d..4 * (q + 1) * d];
            let (r0, rest) = block.split_at(d);
            let (r1, rest) = rest.split_at(d);
            let (r2, r3) = rest.split_at(d);
            let (mut a0, mut a1, mut a2, mut a3) = (-0.0, -0.0, -0.0, -0.0);
            for ((((&xk, &b0), &b1), &b2), &b3) in x.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
                a0 += b0 * xk;
                a1 += b1 * xk;
                a2 += b2 * xk;
                a3 += b3 * xk;
            }
            f(4 * q, a0);
            f(4 * q + 1, a1);
            f(4 * q + 2, a2);
            f(4 * q + 3, a3);
        }
        for i in 4 * quads..self.rows {
            f(i, vector::dot(self.row(i), x));
        }
    }

    /// `selfᵀ * self` (Gram matrix), exploiting symmetry.
    pub fn gram(&self) -> Matrix {
        let d = self.cols;
        let mut g = Matrix::zeros(d, d);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..d {
                let ri = row[i];
                if ri == 0.0 {
                    continue;
                }
                for j in i..d {
                    g[(i, j)] += ri * row[j];
                }
            }
        }
        for i in 0..d {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    /// Element-wise difference.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "sub: shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Scale all entries by `alpha` into a new matrix.
    pub fn scale(&self, alpha: f64) -> Matrix {
        let data = self.data.iter().map(|a| a * alpha).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// In-place `self += alpha * other`.
    pub fn add_assign_scaled(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign_scaled: shape");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Rank-1 update `self += alpha * u vᵀ`.
    pub fn add_outer(&mut self, alpha: f64, u: &[f64], v: &[f64]) {
        assert_eq!(u.len(), self.rows, "add_outer: u length");
        assert_eq!(v.len(), self.cols, "add_outer: v length");
        for i in 0..self.rows {
            let au = alpha * u[i];
            if au == 0.0 {
                continue;
            }
            vector::axpy(au, v, self.row_mut(i));
        }
    }

    /// Quadratic form `xᵀ self x` for a square matrix.
    ///
    /// The row dots come from the four-row interleaved kernel of
    /// [`Matrix::matvec_into`]; `x[i]·(row_i·x)` is then added to a `+0.0`
    /// accumulator in ascending `i`, so the result is bit-identical to
    /// summing per-row `vector::dot`s.
    pub fn quad_form(&self, x: &[f64]) -> f64 {
        assert!(self.is_square(), "quad_form: matrix not square");
        assert_eq!(x.len(), self.rows, "quad_form: length mismatch");
        let mut acc = 0.0;
        self.for_each_row_dot(x, |i, v| acc += x[i] * v);
        acc
    }

    /// Force exact symmetry: `self = (self + selfᵀ)/2`.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize: matrix not square");
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let v = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = v;
                self[(j, i)] = v;
            }
        }
    }

    /// Maximum absolute deviation from symmetry.
    fn asymmetry(&self) -> f64 {
        if !self.is_square() {
            return f64::INFINITY;
        }
        let mut worst = 0.0_f64;
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                worst = worst.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        worst
    }

    /// True if square and symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        self.is_square() && self.asymmetry() <= tol
    }

    /// Trace of a square matrix.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace: matrix not square");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Largest absolute entry.
    pub fn max_abs(&self) -> f64 {
        vector::max_abs(&self.data)
    }

    /// True if every entry is finite.
    pub fn is_finite(&self) -> bool {
        vector::is_finite(&self.data)
    }

    /// Column means as a vector of length `cols`.
    pub fn col_means(&self) -> Vec<f64> {
        let mut m = vec![0.0; self.cols];
        if self.rows == 0 {
            return m;
        }
        for i in 0..self.rows {
            vector::axpy(1.0, self.row(i), &mut m);
        }
        vector::scale(&mut m, 1.0 / self.rows as f64);
        m
    }

    /// Subtract `center` from every row into a new matrix.
    pub fn center_rows(&self, center: &[f64]) -> Matrix {
        assert_eq!(center.len(), self.cols, "center_rows: length mismatch");
        let mut out = self.clone();
        for i in 0..out.rows {
            vector::axpy(-1.0, center, out.row_mut(i));
        }
        out
    }

    /// Apply `f` to every entry into a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.data.iter().map(|&v| f(v)).collect(),
        )
    }

    /// Validate that the matrix is square, returning a typed error otherwise.
    pub fn require_square(&self) -> Result<(), LinalgError> {
        if self.is_square() {
            Ok(())
        } else {
            Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            })
        }
    }

    /// Maximum absolute difference to another matrix of the same shape.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff: shape");
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for i in 0..show_rows {
            write!(f, "  [")?;
            let show_cols = self.cols.min(8);
            for j in 0..show_cols {
                write!(f, "{:10.4}", self[(i, j)])?;
                if j + 1 < show_cols {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]])
    }

    #[test]
    fn construction_and_shape() {
        let m = sample();
        assert_eq!(m.shape(), (3, 2));
        assert!(!m.is_square());
        assert_eq!(m[(2, 1)], 6.0);
    }

    #[test]
    fn identity_has_unit_diagonal() {
        let i3 = Matrix::identity(3);
        assert_eq!(i3.trace(), 3.0);
        assert_eq!(i3[(0, 1)], 0.0);
        assert_eq!(i3[(1, 1)], 1.0);
    }

    #[test]
    fn from_diag_places_entries() {
        let d = Matrix::from_diag(&[2.0, 3.0]);
        assert_eq!(d[(0, 0)], 2.0);
        assert_eq!(d[(1, 1)], 3.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(0, 2)], 5.0);
    }

    #[test]
    fn matmul_against_hand_computation() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn matmul_with_identity_is_noop() {
        let m = sample();
        assert_eq!(m.matmul(&Matrix::identity(2)), m);
        assert_eq!(Matrix::identity(3).matmul(&m), m);
    }

    /// The pre-tiling implementation: per-element indexed i-j-k triple
    /// loop, kept as the reference the optimized kernel must reproduce
    /// exactly (same ascending-`k` accumulation order ⇒ same bits).
    fn matmul_reference(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a[(i, k)] * b[(k, j)];
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    fn pseudo_random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut s = seed;
        Matrix::from_fn(rows, cols, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
    }

    #[test]
    fn tiled_matmul_matches_reference_exactly_on_random_matrices() {
        // Shapes straddling the j-tile boundary and the parallel threshold.
        for (n, k, p, seed) in [
            (7, 5, 3, 1u64),
            (33, 17, 300, 2), // wide output: tiling active
            (64, 64, 64, 3),
            (5, 300, 513, 4), // deep inner dimension + 2 tiles and a tail
        ] {
            let a = pseudo_random_matrix(n, k, seed);
            let b = pseudo_random_matrix(k, p, seed ^ 0xabcdef);
            let expected = matmul_reference(&a, &b);
            let got = a.matmul(&b);
            assert_eq!(got, expected, "{n}x{k}x{p}: tiled kernel diverged");
        }
    }

    #[test]
    fn parallel_matmul_is_bit_identical_at_any_thread_count() {
        let a = pseudo_random_matrix(120, 40, 7);
        let b = pseudo_random_matrix(40, 96, 8);
        let serial = a.matmul(&b);
        for threads in [1usize, 2, 4] {
            let pool = sider_par::ThreadPool::new(threads);
            assert_eq!(a.matmul_with(&b, &pool), serial, "{threads} threads");
        }
    }

    #[test]
    fn matmul_select_cols_matches_select_copy_then_matmul() {
        // Column subset straddling the j-tile boundary, unsorted and with
        // gaps: the fused kernel must reproduce copy-then-multiply bit
        // for bit (same ascending-k accumulation per output element).
        let a = pseudo_random_matrix(37, 50, 11);
        let cols: Vec<usize> = vec![48, 0, 7, 33, 21, 2, 45, 19];
        let b = pseudo_random_matrix(cols.len(), 300, 12);
        let mut selected = Matrix::zeros(a.rows(), cols.len());
        for i in 0..a.rows() {
            for (j, &c) in cols.iter().enumerate() {
                selected[(i, j)] = a[(i, c)];
            }
        }
        let expected = selected.matmul(&b);
        let got = a.matmul_select_cols(&cols, &b);
        assert_eq!(got, expected, "fused column-select matmul diverged");
        // Empty selection produces the zero-shaped product.
        assert_eq!(
            a.matmul_select_cols(&[], &Matrix::zeros(0, 4)).shape(),
            (37, 4)
        );
    }

    /// The per-row kernels the four-row interleaved ones replaced, kept as
    /// the references they must reproduce bit for bit.
    fn matvec_reference(m: &Matrix, x: &[f64]) -> Vec<f64> {
        (0..m.rows()).map(|i| vector::dot(m.row(i), x)).collect()
    }

    fn quad_form_reference(m: &Matrix, x: &[f64]) -> f64 {
        let mut acc = 0.0;
        for i in 0..m.rows() {
            acc += x[i] * vector::dot(m.row(i), x);
        }
        acc
    }

    /// Entries mixing signs, magnitudes, `±0.0` and subnormals; every
    /// fifth row holds only signed zeros, whose dot sign depends on the
    /// lane starting at `-0.0`.
    fn awkward_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        const PALETTE: [f64; 8] = [0.0, -0.0, 5e-324, -2.5e-310, 1e150, -3.0, 0.1, -1e-5];
        let mut s = seed;
        Matrix::from_fn(rows, cols, |i, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = s >> 11;
            if i % 5 == 4 {
                return if r & 1 == 0 { -0.0 } else { 0.0 };
            }
            if r.is_multiple_of(3) {
                PALETTE[(r >> 8) as usize % PALETTE.len()]
            } else {
                ((r >> 12) as f64 / (1u64 << 41) as f64) - 0.5
            }
        })
    }

    #[test]
    fn interleaved_row_dots_match_per_row_dot_bit_for_bit() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for rows in [1usize, 2, 3, 4, 5, 7, 19, 100, 101] {
            for cols in [1usize, 3, 19, 100] {
                let m = awkward_matrix(rows, cols, (rows * 1000 + cols) as u64);
                let x = awkward_matrix(1, cols, cols as u64 ^ 0x5eed)
                    .row(0)
                    .to_vec();
                let xs = [x.clone(), vec![1.0; cols], vec![-0.0; cols]];
                for x in &xs {
                    let expected = bits(&matvec_reference(&m, x));
                    assert_eq!(bits(&m.matvec(x)), expected, "matvec {rows}x{cols}");
                    let mut out = vec![f64::NAN; rows];
                    m.matvec_into(x, &mut out);
                    assert_eq!(bits(&out), expected, "matvec_into {rows}x{cols}");
                }
            }
            let sq = awkward_matrix(rows, rows, rows as u64);
            let x = awkward_matrix(1, rows, 77 + rows as u64).row(0).to_vec();
            for x in [x, vec![-0.0; rows]] {
                assert_eq!(
                    sq.quad_form(&x).to_bits(),
                    quad_form_reference(&sq, &x).to_bits(),
                    "quad_form {rows}x{rows}"
                );
            }
        }
    }

    #[test]
    fn matvec_into_matches_matvec() {
        let m = sample();
        let x = [1.5, -2.0];
        let mut out = [0.0; 3];
        m.matvec_into(&x, &mut out);
        assert_eq!(out.to_vec(), m.matvec(&x));
    }

    #[test]
    fn matvec_computes_row_dots() {
        let m = sample();
        let x = vec![1.0, -1.0];
        assert_eq!(m.matvec(&x), vec![-1.0, -1.0, -1.0]);
    }

    #[test]
    fn gram_matches_explicit_product() {
        let m = sample();
        let g = m.gram();
        let g2 = m.transpose().matmul(&m);
        assert!(g.max_abs_diff(&g2) < 1e-12);
        assert!(g.is_symmetric(0.0));
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 5.0]]);
        assert_eq!(b.sub(&a), Matrix::from_rows(&[vec![2.0, 3.0]]));
        assert_eq!(a.scale(2.0), Matrix::from_rows(&[vec![2.0, 4.0]]));
        let mut c = a.clone();
        c.add_assign_scaled(10.0, &b);
        assert_eq!(c, Matrix::from_rows(&[vec![31.0, 52.0]]));
    }

    #[test]
    fn add_outer_rank1() {
        let mut m = Matrix::zeros(2, 2);
        m.add_outer(2.0, &[1.0, 3.0], &[4.0, 5.0]);
        assert_eq!(m, Matrix::from_rows(&[vec![8.0, 10.0], vec![24.0, 30.0]]));
    }

    #[test]
    fn quad_form_matches_explicit() {
        let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let x = [1.0, 2.0];
        // xᵀMx = 2 + 2 + 2 + 12 = 18
        assert_eq!(m.quad_form(&x), 18.0);
    }

    #[test]
    fn symmetrize_and_asymmetry() {
        let mut m = Matrix::from_rows(&[vec![1.0, 2.0], vec![4.0, 1.0]]);
        assert_eq!(m.asymmetry(), 2.0);
        assert!(!m.is_symmetric(1e-12));
        m.symmetrize();
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert!(m.is_symmetric(0.0));
    }

    #[test]
    fn row_and_col_access() {
        let mut m = sample();
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0, 5.0]);
        m.set_row(0, &[9.0, 9.0]);
        assert_eq!(m.row(0), &[9.0, 9.0]);
        m.set_col(1, &[1.0, 2.0, 3.0]);
        assert_eq!(m.col(1), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn swap_rows_exchanges_contents() {
        let mut m = sample();
        m.swap_rows(0, 2);
        assert_eq!(m.row(0), &[5.0, 6.0]);
        assert_eq!(m.row(2), &[1.0, 2.0]);
        m.swap_rows(1, 1); // no-op
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn select_rows_picks_subset() {
        let m = sample();
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s, Matrix::from_rows(&[vec![5.0, 6.0], vec![1.0, 2.0]]));
    }

    #[test]
    fn col_means_and_centering() {
        let m = sample();
        let means = m.col_means();
        assert_eq!(means, vec![3.0, 4.0]);
        let c = m.center_rows(&means);
        assert_eq!(c.col_means(), vec![0.0, 0.0]);
    }

    #[test]
    fn norms_and_finiteness() {
        let m = Matrix::from_rows(&[vec![3.0, 4.0]]);
        assert_eq!(m.frobenius_norm(), 5.0);
        assert_eq!(m.max_abs(), 4.0);
        assert!(m.is_finite());
        let bad = Matrix::from_rows(&[vec![f64::NAN]]);
        assert!(!bad.is_finite());
    }

    #[test]
    fn map_applies_function() {
        let m = Matrix::from_rows(&[vec![1.0, -2.0]]);
        assert_eq!(m.map(f64::abs), Matrix::from_rows(&[vec![1.0, 2.0]]));
    }

    #[test]
    fn require_square_errors_on_rectangular() {
        assert!(sample().require_square().is_err());
        assert!(Matrix::identity(2).require_square().is_ok());
    }

    #[test]
    fn debug_format_is_bounded() {
        let big = Matrix::zeros(20, 20);
        let s = format!("{:?}", big);
        assert!(s.contains("Matrix 20x20"));
        assert!(s.len() < 4000);
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }
}
