//! The dense row-major `f32` matrix used throughout the workspace.

use groupsa_json::impl_json_struct;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of `f32`.
///
/// This is the single numeric container of the workspace: model
/// parameters, embeddings, activations, gradients, masks and metric
/// accumulators are all `Matrix` values. Vectors are represented as
/// `1×n` (row) or `n×1` (column) matrices; scalars as `1×1`.
///
/// All shape preconditions panic on violation — a mismatched shape is a
/// bug in the caller, never an input-dependent condition.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl_json_struct!(Matrix { rows, cols, data });

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows × cols` matrix filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix whose rows are the given equal-length slices.
    ///
    /// # Panics
    /// If `rows` is empty or the rows have differing lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "Matrix::from_rows: no rows given");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), cols, "Matrix::from_rows: row {i} has length {} != {cols}", row.len());
            data.extend_from_slice(row);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// Creates a `1×n` row vector.
    pub fn row_vector(data: Vec<f32>) -> Self {
        let n = data.len();
        Self::from_vec(1, n, data)
    }

    /// Creates an `n×n` identity matrix.
    pub fn eye(n: usize) -> Self {
        Self::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
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

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row-major backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable row-major backing slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its row-major data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    /// If `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "Matrix::row: row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    /// If `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "Matrix::row_mut: row {r} out of bounds ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterates over the rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// The value of a `1×1` matrix.
    ///
    /// # Panics
    /// If the matrix is not `1×1`.
    pub fn scalar(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "Matrix::scalar: shape is {}x{}", self.rows, self.cols);
        self.data[0]
    }

    /// Fills every element with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    /// Returns a new matrix with `f` applied element-wise.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` element-wise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        self.data.iter_mut().for_each(|x| *x = f(*x));
    }

    /// Returns a new matrix with `f(a, b)` applied to paired elements.
    ///
    /// # Panics
    /// If the shapes differ.
    pub fn zip_map(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Self {
        self.assert_same_shape(other, "zip_map");
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// Element-wise sum.
    ///
    /// # Panics
    /// If the shapes differ.
    pub fn add(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a + b)
    }

    /// Element-wise difference.
    ///
    /// # Panics
    /// If the shapes differ.
    pub fn sub(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    /// If the shapes differ.
    pub fn mul_elem(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a * b)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|x| x * s)
    }

    /// `self += other` element-wise.
    ///
    /// # Panics
    /// If the shapes differ.
    pub fn add_assign(&mut self, other: &Self) {
        self.assert_same_shape(other, "add_assign");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += s * other` element-wise (AXPY).
    ///
    /// # Panics
    /// If the shapes differ.
    pub fn add_scaled_assign(&mut self, other: &Self, s: f32) {
        self.assert_same_shape(other, "add_scaled_assign");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += s * b;
        }
    }

    /// `self *= s` element-wise.
    pub fn scale_assign(&mut self, s: f32) {
        self.data.iter_mut().for_each(|x| *x *= s);
    }

    /// Adds the `1×cols` row vector `bias` to every row.
    ///
    /// # Panics
    /// If `bias` is not `1×cols`.
    pub fn add_row_broadcast(&self, bias: &Self) -> Self {
        let mut out = self.clone();
        out.add_row_broadcast_assign(bias);
        out
    }

    /// `self += bias` on every row, for a `1×cols` row vector `bias`.
    ///
    /// # Panics
    /// If `bias` is not `1×cols`.
    pub fn add_row_broadcast_assign(&mut self, bias: &Self) {
        assert_eq!(
            bias.shape(),
            (1, self.cols),
            "add_row_broadcast: bias shape {:?} incompatible with {}x{}",
            bias.shape(),
            self.rows,
            self.cols
        );
        for r in 0..self.rows {
            for (o, &b) in self.row_mut(r).iter_mut().zip(&bias.data) {
                *o += b;
            }
        }
    }

    /// Standard matrix product `self · other`.
    ///
    /// Shape-specialised kernels, each **bit-identical** to
    /// [`Matrix::matmul_naive`]: every output element is the naive
    /// k-ascending chain of `+= a·b` from `+0.0`, with exact-zero
    /// coefficients skipped (which also keeps `0·inf = NaN` out).
    ///
    /// * `n ≥ 2`: register-resident output tiles 32, then 8, then 1
    ///   column wide. A tile's accumulators stay in registers across
    ///   the whole k loop, so the output row is stored once, not once
    ///   per k-step. The AVX-512F build makes each tile four rows tall,
    ///   adding every product, zero coefficients included, when that
    ///   is exact: (a) the block's 4×k coefficients hold no zero of
    ///   either sign, or (b) every entry of `other` is finite, so each
    ///   skipped product is `±0.0` and adding it to a `+0.0`-seeded
    ///   accumulator changes nothing (the argument below). Any other
    ///   block, the `m mod 4` rows left over and every other build run
    ///   one row per tile, with the skip.
    /// * `n == 1` (the matvec of every output layer): 8 rows at a time
    ///   as independent chains, with the zero skip written as a select
    ///   that adds `+0.0` instead of a branch. An accumulator that
    ///   starts at `+0.0` can never become `-0.0` under
    ///   round-to-nearest, so adding `+0.0` leaves it unchanged, and
    ///   the discarded product never reaches it even when `b` is
    ///   non-finite.
    ///
    /// On x86-64 the `n ≥ 2` tiles run as an AVX-512F build when the
    /// CPU has it. Otherwise, and always for the matvec (which measured
    /// slower compiled for AVX-512F), the kernels run as an AVX2 build
    /// when the CPU has that, else portably. Each feature is detected
    /// once at run time. Mul-then-add is kept (no fused multiply-add,
    /// which would round differently), so every build agrees bit for
    /// bit. The equivalence tests in
    /// `tests/kernel_equivalence.rs` pin this across every tile and
    /// row-block boundary, sparse rows and non-finite inputs.
    ///
    /// # Panics
    /// If `self.cols != other.rows`.
    pub fn matmul(&self, other: &Self) -> Self {
        assert_eq!(
            self.cols, other.rows,
            "matmul: inner dimensions differ ({}x{} · {}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        let (k, n) = (self.cols, other.cols);
        let mut out = Matrix::zeros(self.rows, n);
        if k == 0 || n == 0 {
            return out;
        }
        // The `n == 1` matvec stays on the AVX2 build: compiled for
        // AVX-512F it ran 1.3-1.6x slower at 256x32*32x1 (two-core Xeon).
        #[cfg(target_arch = "x86_64")]
        if n > 1 && std::is_x86_feature_detected!("avx512f") {
            // SAFETY: the CPU was just detected to support AVX-512F, the
            // only target feature `matmul_kernel_avx512` enables.
            unsafe { matmul_kernel_avx512(&self.data, &other.data, k, n, &mut out.data) };
            return out;
        }
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU was just detected to support AVX2, the only
            // target feature `matmul_kernel_avx2` enables.
            unsafe { matmul_kernel_avx2(&self.data, &other.data, k, n, &mut out.data) };
            return out;
        }
        matmul_kernel::<1>(&self.data, &other.data, k, n, &mut out.data);
        out
    }

    /// Reference (unblocked) implementation of [`Matrix::matmul`]:
    /// the cache-friendly i-k-j loop with the exact-zero sparsity
    /// skip. Retained as the bit-identical oracle for the tiled
    /// kernels (equivalence tests, `kernel_bench` speedup ratios).
    ///
    /// # Panics
    /// If `self.cols != other.rows`.
    pub fn matmul_naive(&self, other: &Self) -> Self {
        assert_eq!(
            self.cols, other.rows,
            "matmul_naive: inner dimensions differ ({}x{} · {}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for (p, &a) in a_row.iter().enumerate() {
                // Sparsity skip: exact-zero entries contribute exactly
                // nothing, so this is a speedup with identical output.
                if a == 0.0 { // lint: allow(float-eq)
                    continue;
                }
                let b_row = &other.data[p * n..(p + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self · otherᵀ` without materialising the transpose.
    ///
    /// Register-blocked: four output columns (rows of `other`) are
    /// computed per pass over the shared `self` row, giving four
    /// independent accumulator chains where the naive kernel's single
    /// serial dot chain is latency-bound. Each accumulator still sums
    /// strictly in k-ascending order, so every output element is
    /// bit-identical to [`Matrix::matmul_transpose_b_naive`].
    ///
    /// # Panics
    /// If `self.cols != other.cols`.
    pub fn matmul_transpose_b(&self, other: &Self) -> Self {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose_b: column counts differ ({}x{} · ({}x{})ᵀ)",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            let out_row = &mut out.data[i * n..(i + 1) * n];
            let mut j = 0;
            while j + 4 <= n {
                let b0 = &other.data[j * k..(j + 1) * k];
                let b1 = &other.data[(j + 1) * k..(j + 2) * k];
                let b2 = &other.data[(j + 2) * k..(j + 3) * k];
                let b3 = &other.data[(j + 3) * k..(j + 4) * k];
                // -0.0 is the additive identity `Iterator::sum` folds
                // from; starting there keeps the four chains bitwise
                // equal to `dot` even for k = 0 (where the sign of the
                // zero is the entire result).
                let (mut s0, mut s1, mut s2, mut s3) = (-0.0f32, -0.0f32, -0.0f32, -0.0f32);
                for ((((&a, &v0), &v1), &v2), &v3) in
                    a_row.iter().zip(b0).zip(b1).zip(b2).zip(b3)
                {
                    s0 += a * v0;
                    s1 += a * v1;
                    s2 += a * v2;
                    s3 += a * v3;
                }
                out_row[j] = s0;
                out_row[j + 1] = s1;
                out_row[j + 2] = s2;
                out_row[j + 3] = s3;
                j += 4;
            }
            for (o, jj) in out_row[j..].iter_mut().zip(j..n) {
                *o = dot(a_row, &other.data[jj * k..(jj + 1) * k]);
            }
        }
        out
    }

    /// Reference (single-chain) implementation of
    /// [`Matrix::matmul_transpose_b`]: one serial dot product per
    /// output element. Retained as the bit-identical oracle for the
    /// register-blocked kernel.
    ///
    /// # Panics
    /// If `self.cols != other.cols`.
    pub fn matmul_transpose_b_naive(&self, other: &Self) -> Self {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose_b_naive: column counts differ ({}x{} · ({}x{})ᵀ)",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &other.data[j * k..(j + 1) * k];
                out.data[i * n + j] = dot(a_row, b_row);
            }
        }
        out
    }

    /// The transposed matrix.
    pub fn transpose(&self) -> Self {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Horizontal concatenation `[self | other]`.
    ///
    /// # Panics
    /// If the row counts differ.
    pub fn concat_cols(&self, other: &Self) -> Self {
        assert_eq!(
            self.rows, other.rows,
            "concat_cols: row counts differ ({} vs {})",
            self.rows, other.rows
        );
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
            data.extend_from_slice(other.row(r));
        }
        Self { rows: self.rows, cols, data }
    }

    /// Vertical concatenation (`self` on top of `other`).
    ///
    /// # Panics
    /// If the column counts differ.
    pub fn concat_rows(&self, other: &Self) -> Self {
        assert_eq!(
            self.cols, other.cols,
            "concat_rows: column counts differ ({} vs {})",
            self.cols, other.cols
        );
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Self { rows: self.rows + other.rows, cols: self.cols, data }
    }

    /// Copies rows `start..start + len` into a new matrix.
    ///
    /// # Panics
    /// If the range exceeds the row count.
    pub fn slice_rows(&self, start: usize, len: usize) -> Self {
        assert!(
            start + len <= self.rows,
            "slice_rows: {start}..{} out of bounds ({} rows)",
            start + len,
            self.rows
        );
        Self {
            rows: len,
            cols: self.cols,
            data: self.data[start * self.cols..(start + len) * self.cols].to_vec(),
        }
    }

    /// Gathers the given rows (with repetition allowed) into a new matrix.
    ///
    /// # Panics
    /// If any index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> Self {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Self { rows: indices.len(), cols: self.cols, data }
    }

    /// Adds row `r` of `src` into row `indices[r]` of `self`
    /// (the adjoint of [`Matrix::gather_rows`]).
    ///
    /// # Panics
    /// If shapes are incompatible or an index is out of bounds.
    pub fn scatter_add_rows(&mut self, indices: &[usize], src: &Self) {
        assert_eq!(src.rows, indices.len(), "scatter_add_rows: {} rows vs {} indices", src.rows, indices.len());
        assert_eq!(src.cols, self.cols, "scatter_add_rows: column counts differ");
        for (r, &i) in indices.iter().enumerate() {
            assert!(i < self.rows, "scatter_add_rows: index {i} out of bounds ({} rows)", self.rows);
            let dst = &mut self.data[i * self.cols..(i + 1) * self.cols];
            for (d, &s) in dst.iter_mut().zip(src.row(r)) {
                *d += s;
            }
        }
    }

    /// Repeats a `1×c` row `times` times.
    ///
    /// # Panics
    /// If `self` is not a single row.
    pub fn repeat_rows(&self, times: usize) -> Self {
        assert_eq!(self.rows, 1, "repeat_rows: expected a 1-row matrix, got {} rows", self.rows);
        let mut data = Vec::with_capacity(times * self.cols);
        for _ in 0..times {
            data.extend_from_slice(&self.data);
        }
        Self { rows: times, cols: self.cols, data }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (`0.0` for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Column-wise sum as a `1×cols` row vector.
    pub fn sum_rows(&self) -> Self {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, &x) in out.data.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
        out
    }

    /// Column-wise mean as a `1×cols` row vector.
    ///
    /// # Panics
    /// If the matrix has zero rows.
    pub fn mean_rows(&self) -> Self {
        assert!(self.rows > 0, "mean_rows: matrix has no rows");
        let mut out = self.sum_rows();
        out.scale_assign(1.0 / self.rows as f32);
        out
    }

    /// Maximum element (`-inf` for an empty matrix).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (`+inf` for an empty matrix).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Index of the maximum element of row `r` (first on ties).
    ///
    /// # Panics
    /// If the matrix has zero columns or `r` is out of bounds.
    pub fn argmax_row(&self, r: usize) -> usize {
        assert!(self.cols > 0, "argmax_row: matrix has no columns");
        let row = self.row(r);
        let mut best = 0;
        for (i, &x) in row.iter().enumerate() {
            if x > row[best] {
                best = i;
            }
        }
        best
    }

    /// `true` when every paired element differs by at most `tol`.
    ///
    /// Shapes must match for the comparison to succeed.
    pub fn approx_eq(&self, other: &Self, tol: f32) -> bool {
        self.shape() == other.shape()
            && self.data.iter().zip(&other.data).all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// `true` when every element is finite (no NaN / ±inf).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    #[inline]
    fn assert_same_shape(&self, other: &Self, what: &str) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "{what}: shapes differ ({}x{} vs {}x{})",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
    }
}

/// Dot product of two equal-length slices.
#[inline]
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// Widest output tile of [`Matrix::matmul`]: 32 accumulators, four
/// AVX2 or eight SSE registers per row.
const TILE_WIDE: usize = 32;
/// Narrow output tile for the columns a wide tile leaves over.
const TILE_NARROW: usize = 8;
/// Output rows per register tile in the AVX-512 build: four rows of a
/// wide tile hold eight of its 32 vector registers.
const TILE_ROWS_AVX512: usize = 4;
/// Rows scored side by side by the `n == 1` matvec.
const MATVEC_ROWS: usize = 8;

/// `out = a · b` for row-major `a` (`m×k`) and `b` (`k×n`), with
/// `k, n ≥ 1` and `out` zeroed; see [`Matrix::matmul`]. For `R > 1`,
/// each block of `R` rows runs as `R`-row tiles when adding every
/// product is exact, and as single-row tiles otherwise; the `m mod R`
/// rows left over always run as single-row tiles.
#[inline(always)]
fn matmul_kernel<const R: usize>(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    if n == 1 {
        matvec(a, b, k, out);
        return;
    }
    let mut blocked = 0;
    if R > 1 {
        // Whether `b` is all finite, worked out at most once, and only
        // when a block holds a zero coefficient.
        let mut b_finite = None;
        for (block, out_block) in a.chunks_exact(k * R).zip(out.chunks_exact_mut(n * R)) {
            if !has_zero(block) || *b_finite.get_or_insert_with(|| all_finite(b)) {
                block_tiles::<R>(block, b, k, n, out_block);
            } else {
                for (a_row, out_row) in block.chunks_exact(k).zip(out_block.chunks_exact_mut(n)) {
                    row_tiles(a_row, b, n, out_row);
                }
            }
            blocked += R;
        }
    }
    for (a_row, out_row) in a[blocked * k..].chunks_exact(k).zip(out[blocked * n..].chunks_exact_mut(n)) {
        row_tiles(a_row, b, n, out_row);
    }
}

/// [`matmul_kernel`] compiled for AVX2, one row per tile. Only mul and
/// add are used (no FMA), so its results equal the portable build's
/// bit for bit.
///
/// # Safety
/// Calling it is `unsafe` outside AVX2 code: the caller must have
/// checked that the running CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn matmul_kernel_avx2(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    matmul_kernel::<1>(a, b, k, n, out);
}

/// [`matmul_kernel`] compiled for AVX-512F, [`TILE_ROWS_AVX512`] rows
/// per tile. Only mul and add are used (no FMA), so its results equal
/// the portable build's bit for bit.
///
/// # Safety
/// Calling it is `unsafe` outside AVX-512F code: the caller must have
/// checked that the running CPU supports AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn matmul_kernel_avx512(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    matmul_kernel::<TILE_ROWS_AVX512>(a, b, k, n, out);
}

/// Whether any entry is an exact zero of either sign. A fold, not a
/// short-circuiting `any`, so that it compiles to a vector scan.
#[inline(always)]
fn has_zero(xs: &[f32]) -> bool {
    xs.iter().fold(false, |z, &x| z | (x == 0.0)) // lint: allow(float-eq)
}

/// Whether every entry is finite: its largest magnitude bit pattern
/// lies below infinity's (every NaN pattern lies above it).
#[inline(always)]
fn all_finite(xs: &[f32]) -> bool {
    xs.iter().fold(0, |m, &x| m.max(x.to_bits() & 0x7fff_ffff)) < f32::INFINITY.to_bits()
}

/// One output row as tiles 32, then 8, then 1 column wide.
#[inline(always)]
fn row_tiles(a_row: &[f32], b: &[f32], n: usize, out_row: &mut [f32]) {
    let mut j = 0;
    while j + TILE_WIDE <= n {
        tile::<TILE_WIDE>(a_row, b, n, j, &mut out_row[j..j + TILE_WIDE]);
        j += TILE_WIDE;
    }
    while j + TILE_NARROW <= n {
        tile::<TILE_NARROW>(a_row, b, n, j, &mut out_row[j..j + TILE_NARROW]);
        j += TILE_NARROW;
    }
    while j < n {
        tile::<1>(a_row, b, n, j, &mut out_row[j..j + 1]);
        j += 1;
    }
}

/// Columns `j..j + W` of one output row, accumulated in registers over
/// the whole k loop in the naive order, skipping zero coefficients.
#[inline(always)]
fn tile<const W: usize>(a_row: &[f32], b: &[f32], n: usize, j: usize, out: &mut [f32]) {
    let mut acc = [0.0f32; W];
    for (&a, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
        if a == 0.0 { // lint: allow(float-eq)
            continue;
        }
        for (s, &v) in acc.iter_mut().zip(&b_row[j..j + W]) {
            *s += a * v;
        }
    }
    out.copy_from_slice(&acc);
}

/// An `R`-row block of output as tiles 32, then 8, then 1 column wide.
#[inline(always)]
fn block_tiles<const R: usize>(block: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    let mut j = 0;
    while j + TILE_WIDE <= n {
        block_tile::<R, TILE_WIDE>(block, b, k, n, j, out);
        j += TILE_WIDE;
    }
    while j + TILE_NARROW <= n {
        block_tile::<R, TILE_NARROW>(block, b, k, n, j, out);
        j += TILE_NARROW;
    }
    while j < n {
        block_tile::<R, 1>(block, b, k, n, j, out);
        j += 1;
    }
}

/// Columns `j..j + W` of `R` output rows, accumulated in registers
/// over the whole k loop in the naive order. Every product is added,
/// zero coefficients included: [`matmul_kernel`] runs a block here
/// only when skipping them could not change a bit.
#[inline(always)]
fn block_tile<const R: usize, const W: usize>(
    block: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    j: usize,
    out: &mut [f32],
) {
    let rows: [&[f32]; R] = std::array::from_fn(|r| &block[r * k..][..k]);
    let mut acc = [[0.0f32; W]; R];
    for (p, b_row) in (0..k).zip(b.chunks_exact(n)) {
        let v: &[f32; W] = b_row[j..j + W].try_into().expect("the range is W long");
        for (acc_row, row) in acc.iter_mut().zip(&rows) {
            let a = row[p];
            for c in 0..W {
                acc_row[c] += a * v[c];
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out[r * n + j..r * n + j + W].copy_from_slice(acc_row);
    }
}

/// `out = a · b` for a `k×1` column `b`: up to [`MATVEC_ROWS`] rows per
/// pass as independent dot chains, with the zero skip as a select (see
/// [`Matrix::matmul`] for why adding `+0.0` is exact). Each pass moves
/// the block's next 8 columns into a square register tile, transposed,
/// so one k-step is a single 8-lane multiply-select-add across rows.
#[inline(always)]
fn matvec(a: &[f32], b: &[f32], k: usize, out: &mut [f32]) {
    let b = &b[..k];
    for (block, o) in a.chunks(k * MATVEC_ROWS).zip(out.chunks_mut(MATVEC_ROWS)) {
        // A last block of fewer rows leaves its spare lanes at `+0.0`.
        let mut acc = [0.0f32; MATVEC_ROWS];
        let mut steps = b.chunks_exact(MATVEC_ROWS);
        let mut p = 0;
        for step in steps.by_ref() {
            let mut cols = [[0.0f32; MATVEC_ROWS]; MATVEC_ROWS];
            for (r, row) in (0..MATVEC_ROWS).zip(block.chunks_exact(k)) {
                for (col, &c) in cols.iter_mut().zip(&row[p..p + MATVEC_ROWS]) {
                    col[r] = c;
                }
            }
            for (col, &v) in cols.iter().zip(step) {
                for (s, &c) in acc.iter_mut().zip(col) {
                    *s += skip_zero(c, v);
                }
            }
            p += MATVEC_ROWS;
        }
        for (q, &v) in steps.remainder().iter().enumerate() {
            for (s, row) in acc.iter_mut().zip(block.chunks_exact(k)) {
                *s += skip_zero(row[p + q], v);
            }
        }
        o.copy_from_slice(&acc[..o.len()]);
    }
}

/// `c·v`, or `+0.0` when `c` is an exact zero of either sign.
#[inline(always)]
fn skip_zero(c: f32, v: f32) -> f32 {
    if c == 0.0 { 0.0 } else { c * v } // lint: allow(float-eq)
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds for {}x{}", self.rows, self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds for {}x{}", self.rows, self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        const MAX_ROWS: usize = 8;
        for r in 0..self.rows.min(MAX_ROWS) {
            write!(f, "  [")?;
            const MAX_COLS: usize = 8;
            for (c, v) in self.row(r).iter().take(MAX_COLS).enumerate() {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v:.4}")?;
            }
            if self.cols > MAX_COLS {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > MAX_ROWS {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_full() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        assert!(Matrix::ones(2, 2).as_slice().iter().all(|&x| x == 1.0));
        assert!(Matrix::full(1, 4, 7.5).as_slice().iter().all(|&x| x == 7.5));
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_bad_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_fn_and_index() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(1, 2)], 12.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn eye_is_identity_under_matmul() {
        let m = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        let i = Matrix::eye(3);
        assert!(m.matmul(&i).approx_eq(&m, 1e-6));
        assert!(i.matmul(&m).approx_eq(&m, 1e-6));
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        let expected = Matrix::from_vec(2, 2, vec![58.0, 64.0, 139.0, 154.0]);
        assert!(c.approx_eq(&expected, 1e-5));
    }

    /// Pseudo-random row-major fill where about half the entries are
    /// exact zeros of either sign, with `±inf`/NaN planted when `poison`.
    fn sparse_fill(len: usize, seed: u64, poison: bool) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let u = (state >> 33) as u32;
                match u % 16 {
                    0..=6 => 0.0,
                    7 => -0.0,
                    8 if poison => [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][(u as usize >> 4) % 3],
                    _ => (u as f32 / u32::MAX as f32 - 0.5) * 4.0,
                }
            })
            .collect()
    }

    #[test]
    fn matvec_of_all_zero_rows_is_positive_zero() {
        // Every coefficient is a zero of either sign and `b` is all
        // non-finite: the select must contribute `+0.0` every step.
        for m in [1usize, 3, 8, 9, 17] {
            let a = Matrix::from_fn(m, 11, |r, c| if (r + c) % 2 == 0 { 0.0 } else { -0.0 });
            let b = Matrix::from_fn(11, 1, |r, _| [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][r % 3]);
            for x in a.matmul(&b).as_slice() {
                assert_eq!(x.to_bits(), 0.0f32.to_bits(), "m={m}: {x:?}");
            }
        }
    }

    /// Asserts that `kernel` agrees with the portable build bit for bit
    /// on shapes crossing every tile and row-block boundary, with zeros
    /// of either sign in `a` and, in one pass of two, `±inf`/NaN in `b`.
    #[cfg(target_arch = "x86_64")]
    fn assert_agrees_with_portable(build: &str, kernel: impl Fn(&[f32], &[f32], usize, usize, &mut [f32])) {
        let shapes = [
            (1, 96, 32),
            (4, 96, 32),
            (256, 96, 32),
            (256, 32, 1),
            (13, 17, 1),
            (5, 33, 65),
            (9, 7, 40),
            (8, 11, 33),
            (2, 3, 9),
        ];
        for (i, &(m, k, n)) in shapes.iter().enumerate() {
            for poison in [false, true] {
                let a = sparse_fill(m * k, i as u64, false);
                let b = sparse_fill(k * n, i as u64 + 100, poison);
                let mut portable = vec![0.0; m * n];
                let mut built = vec![0.0; m * n];
                matmul_kernel::<1>(&a, &b, k, n, &mut portable);
                kernel(&a, &b, k, n, &mut built);
                for (j, (x, y)) in portable.iter().zip(&built).enumerate() {
                    let same = x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
                    assert!(same, "{m}x{k}*{k}x{n} (poison {poison}) element {j}: portable {x:?} vs {build} {y:?}");
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn portable_and_avx2_kernels_agree_bit_for_bit() {
        if !std::is_x86_feature_detected!("avx2") {
            return;
        }
        // SAFETY: AVX2 support was detected above.
        assert_agrees_with_portable("avx2", |a, b, k, n, out| unsafe { matmul_kernel_avx2(a, b, k, n, out) });
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn portable_and_avx512_kernels_agree_bit_for_bit() {
        if !std::is_x86_feature_detected!("avx512f") {
            return;
        }
        // SAFETY: AVX-512F support was detected above.
        assert_agrees_with_portable("avx512", |a, b, k, n, out| unsafe { matmul_kernel_avx512(a, b, k, n, out) });
    }

    #[test]
    fn matmul_transpose_b_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 4, |r, c| (r + c) as f32 * 0.5);
        let b = Matrix::from_fn(5, 4, |r, c| (r * c) as f32 * 0.25 - 1.0);
        assert!(a.matmul_transpose_b(&b).approx_eq(&a.matmul(&b.transpose()), 1e-5));
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(4, 2)], m[(2, 4)]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul_elem(&b).as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn add_assign_and_axpy() {
        let mut a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(1, 2, vec![10.0, 20.0]);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[11.0, 22.0]);
        a.add_scaled_assign(&b, 0.5);
        assert_eq!(a.as_slice(), &[16.0, 32.0]);
    }

    #[test]
    fn row_broadcast_add() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let bias = Matrix::from_vec(1, 2, vec![10.0, 20.0]);
        assert_eq!(m.add_row_broadcast(&bias).as_slice(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn concat_cols_and_rows() {
        let a = Matrix::from_vec(2, 1, vec![1.0, 2.0]);
        let b = Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let c = a.concat_cols(&b);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1.0, 3.0, 4.0]);
        assert_eq!(c.row(1), &[2.0, 5.0, 6.0]);

        let d = Matrix::from_vec(1, 3, vec![7.0, 8.0, 9.0]);
        let e = c.concat_rows(&d);
        assert_eq!(e.shape(), (3, 3));
        assert_eq!(e.row(2), &[7.0, 8.0, 9.0]);
    }

    #[test]
    fn slice_gather_scatter_roundtrip() {
        let m = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32);
        let s = m.slice_rows(1, 2);
        assert_eq!(s.row(0), m.row(1));
        assert_eq!(s.row(1), m.row(2));

        let g = m.gather_rows(&[3, 0, 3]);
        assert_eq!(g.row(0), m.row(3));
        assert_eq!(g.row(2), m.row(3));

        let mut acc = Matrix::zeros(4, 2);
        acc.scatter_add_rows(&[3, 0, 3], &g);
        // row 3 gathered twice → accumulated twice.
        assert_eq!(acc.row(3), &[12.0, 14.0]);
        assert_eq!(acc.row(0), &[0.0, 1.0]);
        assert_eq!(acc.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn repeat_rows_tiles_single_row() {
        let v = Matrix::row_vector(vec![1.0, 2.0]);
        let t = v.repeat_rows(3);
        assert_eq!(t.shape(), (3, 2));
        assert!(t.rows_iter().all(|r| r == [1.0, 2.0]));
    }

    #[test]
    fn reductions() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.sum(), 10.0);
        assert_eq!(m.mean(), 2.5);
        assert_eq!(m.sum_rows().as_slice(), &[4.0, 6.0]);
        assert_eq!(m.mean_rows().as_slice(), &[2.0, 3.0]);
        assert_eq!(m.max(), 4.0);
        assert_eq!(m.min(), 1.0);
        assert!((m.frobenius_norm() - 30.0_f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn argmax_first_on_ties() {
        let m = Matrix::from_vec(1, 4, vec![0.5, 2.0, 2.0, 1.0]);
        assert_eq!(m.argmax_row(0), 1);
    }

    #[test]
    fn scalar_extraction() {
        assert_eq!(Matrix::full(1, 1, 3.25).scalar(), 3.25);
    }

    #[test]
    fn json_roundtrip() {
        let m = Matrix::from_fn(2, 3, |r, c| (r + c) as f32 + 0.125);
        let json = groupsa_json::to_string(&m);
        let back: Matrix = groupsa_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut m = Matrix::ones(2, 2);
        assert!(m.is_finite());
        m[(0, 1)] = f32::NAN;
        assert!(!m.is_finite());
    }
}
