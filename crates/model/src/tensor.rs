//! Minimal dense matrix type used by the tiny-transformer substrate.
//!
//! The TLT reproduction intentionally avoids external linear-algebra crates: the
//! models involved are small (hidden sizes of a few dozen to a few hundred), so a
//! straightforward row-major `Vec<f32>` matrix with cache-friendly loops is both
//! sufficient and easy to audit.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major `rows x cols` matrix of `f32`.
///
/// # Examples
///
/// ```
/// use tlt_model::tensor::Mat;
///
/// let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Mat::eye(2);
/// let c = a.matmul(&b);
/// assert_eq!(c.get(1, 0), 3.0);
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Mat({}x{})", self.rows, self.cols)
    }
}

impl Mat {
    /// Creates a zero-filled matrix.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows.checked_mul(cols).expect("matrix size overflow");
        Mat {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Creates a matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        let mut m = Mat::zeros(rows, cols);
        m.data.fill(value);
        m
    }

    /// Creates an identity matrix of size `n x n`.
    pub fn eye(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from an existing row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Mat { rows, cols, data }
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        if rows.is_empty() {
            return Mat::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "inconsistent row length");
            data.extend_from_slice(r);
        }
        Mat {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix with entries drawn uniformly from `[-scale, scale]`.
    pub fn random_uniform<R: rand::Rng>(rows: usize, cols: usize, scale: f32, rng: &mut R) -> Self {
        let mut m = Mat::zeros(rows, cols);
        for v in &mut m.data {
            *v = rng.gen_range(-scale..=scale);
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the `(rows, cols)` shape tuple.
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

    /// Immutable access to the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies `src` into row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `src.len() != self.cols()`.
    pub fn set_row(&mut self, r: usize, src: &[f32]) {
        assert_eq!(src.len(), self.cols, "row length mismatch");
        self.row_mut(r).copy_from_slice(src);
    }

    /// Returns a new matrix holding rows `start..end`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Mat {
        assert!(start <= end && end <= self.rows, "row slice out of range");
        Mat {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Stacks matrices vertically (all must share the same column count).
    pub fn vstack(parts: &[&Mat]) -> Mat {
        if parts.is_empty() {
            return Mat::zeros(0, 0);
        }
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(p.cols, cols, "vstack column mismatch");
            data.extend_from_slice(&p.data);
        }
        Mat { rows, cols, data }
    }

    /// Concatenates matrices horizontally (all must share the same row count).
    pub fn hconcat(parts: &[&Mat]) -> Mat {
        if parts.is_empty() {
            return Mat::zeros(0, 0);
        }
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Mat::zeros(rows, cols);
        for r in 0..rows {
            let mut offset = 0;
            for p in parts {
                assert_eq!(p.rows, rows, "hconcat row mismatch");
                out.row_mut(r)[offset..offset + p.cols].copy_from_slice(p.row(r));
                offset += p.cols;
            }
        }
        out
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Mat) -> Mat {
        let mut out = Mat::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// Register-tiled matrix product `self * other`, written into `out`.
    ///
    /// `out` is fully overwritten. Each output row is one pass of the 64/32/16
    /// tile ladder plus a scalar tail, with the shared dimension `k` advancing
    /// in strictly increasing order per output element, so results are
    /// bit-identical to the naive i-k-j loop and the `rows == 1` decode shape
    /// is the same allocation-free code as any other row.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension or output-shape mismatch.
    pub fn matmul_into(&self, other: &Mat, out: &mut Mat) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            out.shape(),
            (self.rows, other.cols),
            "matmul output shape mismatch"
        );
        let n = other.cols;
        for i in 0..self.rows {
            let mut pass = RowPass {
                a_row: &self.data[i * self.cols..(i + 1) * self.cols],
                b: &other.data,
                n,
                out: &mut out.data[i * n..(i + 1) * n],
            };
            run_tile_ladder(&mut pass, n);
        }
    }

    /// Matrix product `self * other^T`.
    pub fn matmul_transposed(&self, other: &Mat) -> Mat {
        let mut out = Mat::zeros(self.rows, other.rows);
        self.matmul_transposed_into(other, &mut out);
        out
    }

    /// Matrix product `self * other^T`, written into `out`.
    ///
    /// Every output element is an independent dot product sharing [`dot`]'s
    /// lane layout and reduction order; four run per pass over the left row,
    /// then singles, so the `rows == 1` mat-vec case needs no separate code
    /// path and every element is bit-identical to a standalone [`dot`] call.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension or output-shape mismatch.
    pub fn matmul_transposed_into(&self, other: &Mat, out: &mut Mat) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transposed shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            out.shape(),
            (self.rows, other.rows),
            "matmul_transposed output shape mismatch"
        );
        let n = other.rows;
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * n..(i + 1) * n];
            // Batched dot products amortise the loads of `a_row`.
            let mut j = 0;
            while j + 4 <= n {
                let d = dot4(
                    a_row,
                    [
                        other.row(j),
                        other.row(j + 1),
                        other.row(j + 2),
                        other.row(j + 3),
                    ],
                );
                out_row[j..j + 4].copy_from_slice(&d);
                j += 4;
            }
            for (o, jj) in out_row[j..].iter_mut().zip(j..n) {
                *o = dot(a_row, other.row(jj));
            }
        }
    }

    /// Matrix product `self^T * other`.
    pub fn transposed_matmul(&self, other: &Mat) -> Mat {
        let mut out = Mat::zeros(self.cols, other.cols);
        self.transposed_matmul_into(other, &mut out);
        out
    }

    /// Register-tiled matrix product `self^T * other`, written into `out`.
    ///
    /// `out` is fully overwritten; per-element accumulation stays in
    /// increasing-`k` order (`k` indexes the shared row dimension), matching
    /// the naive loop bit for bit.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension or output-shape mismatch.
    pub fn transposed_matmul_into(&self, other: &Mat, out: &mut Mat) {
        assert_eq!(
            self.rows, other.rows,
            "transposed_matmul shape mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            out.shape(),
            (self.cols, other.cols),
            "transposed_matmul output shape mismatch"
        );
        let n = other.cols;
        // Output row i weights `other`'s rows by column i of `self`; the strided
        // column gather is the only non-contiguous access and the accumulators
        // stay in registers.
        for i in 0..self.cols {
            let mut pass = ColPass {
                a: &self.data,
                a_cols: self.cols,
                i,
                a_rows: self.rows,
                b: &other.data,
                n,
                out: &mut out.data[i * n..(i + 1) * n],
            };
            run_tile_ladder(&mut pass, n);
        }
    }

    /// Returns the transpose of this matrix.
    pub fn transpose(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Writes `self + other` into `out` (fully overwritten).
    ///
    /// # Panics
    ///
    /// Panics if the three shapes differ.
    pub fn add_into(&self, other: &Mat, out: &mut Mat) {
        assert_eq!(self.shape(), other.shape(), "add_into shape mismatch");
        assert_eq!(self.shape(), out.shape(), "add_into output shape mismatch");
        for ((o, &a), &b) in out
            .data
            .iter_mut()
            .zip(self.data.iter())
            .zip(other.data.iter())
        {
            *o = a + b;
        }
    }

    /// Copies `other` into `self` (shapes must match).
    pub fn copy_from(&mut self, other: &Mat) {
        assert_eq!(self.shape(), other.shape(), "copy_from shape mismatch");
        self.data.copy_from_slice(&other.data);
    }

    /// Resizes the matrix to `rows x cols`, reusing the existing buffer.
    ///
    /// Contents become unspecified (callers are expected to overwrite them). No
    /// allocation occurs when the buffer capacity already covers the new size —
    /// this is what makes workspace-based decode steps allocation-free.
    pub fn set_rows(&mut self, rows: usize, cols: usize) {
        let len = rows.checked_mul(cols).expect("matrix size overflow");
        self.data.resize(len, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Pre-allocates capacity for `rows x cols` elements without changing the shape.
    pub fn reserve_rows(&mut self, rows: usize, cols: usize) {
        let target = rows.checked_mul(cols).expect("matrix size overflow");
        if target > self.data.capacity() {
            self.data.reserve(target - self.data.len());
        }
    }

    /// Appends rows `start..end` of `other` to this matrix (column counts must
    /// match). Grows the buffer amortised; reserve ahead of time to avoid
    /// reallocation.
    pub fn extend_rows_range(&mut self, other: &Mat, start: usize, end: usize) {
        assert_eq!(self.cols, other.cols, "extend_rows_range column mismatch");
        assert!(start <= end && end <= other.rows, "row range out of bounds");
        self.data
            .extend_from_slice(&other.data[start * other.cols..end * other.cols]);
        self.rows += end - start;
    }

    /// Element-wise sum `self + other`.
    pub fn add(&self, other: &Mat) -> Mat {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        let mut out = self.clone();
        for (o, &b) in out.data.iter_mut().zip(other.data.iter()) {
            *o += b;
        }
        out
    }

    /// In-place element-wise addition.
    pub fn add_assign(&mut self, other: &Mat) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (o, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *o += b;
        }
    }

    /// In-place `self += alpha * other` (AXPY).
    pub fn add_scaled(&mut self, other: &Mat, alpha: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        for (o, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *o += alpha * b;
        }
    }

    /// Element-wise difference `self - other`.
    pub fn sub(&self, other: &Mat) -> Mat {
        assert_eq!(self.shape(), other.shape(), "sub shape mismatch");
        let mut out = self.clone();
        for (o, &b) in out.data.iter_mut().zip(other.data.iter()) {
            *o -= b;
        }
        out
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, other: &Mat) -> Mat {
        assert_eq!(self.shape(), other.shape(), "hadamard shape mismatch");
        let mut out = self.clone();
        for (o, &b) in out.data.iter_mut().zip(other.data.iter()) {
            *o *= b;
        }
        out
    }

    /// Returns `self * scalar`.
    pub fn scale(&self, scalar: f32) -> Mat {
        let mut out = self.clone();
        for v in &mut out.data {
            *v *= scalar;
        }
        out
    }

    /// In-place scalar multiplication.
    pub fn scale_assign(&mut self, scalar: f32) {
        for v in &mut self.data {
            *v *= scalar;
        }
    }

    /// Sets every element to zero.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Sum of absolute values (L1 norm of the flattened matrix).
    pub fn l1_norm(&self) -> f32 {
        self.data.iter().map(|v| v.abs()).sum()
    }

    /// Mean of all elements. Returns `0.0` for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }

    /// Maximum absolute element. Returns `0.0` for an empty matrix.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |acc, v| acc.max(v.abs()))
    }

    /// Clips every element into `[-limit, limit]`.
    pub fn clip(&mut self, limit: f32) {
        assert!(limit >= 0.0, "clip limit must be non-negative");
        for v in &mut self.data {
            *v = v.clamp(-limit, limit);
        }
    }
}

/// One fixed-width tile pass of the row-product kernel: accumulates
/// `a_row * B[:, j0..j0+W]` into vector-register partial sums and stores them.
/// The shared dimension `k` advances in strictly increasing order for every
/// element, so the tile width never changes results.
#[inline]
fn row_product_tile<const W: usize>(
    a_row: &[f32],
    b: &[f32],
    n: usize,
    j0: usize,
    out: &mut [f32],
) {
    let mut acc = [0.0f32; W];
    for (k, &a) in a_row.iter().enumerate() {
        let b_seg: &[f32; W] = b[k * n + j0..k * n + j0 + W]
            .try_into()
            .expect("tile width");
        for (acc_c, &b_c) in acc.iter_mut().zip(b_seg.iter()) {
            *acc_c += a * b_c;
        }
    }
    out[j0..j0 + W].copy_from_slice(&acc);
}

/// Same tile pass over a strided column of `a` (the `A^T * B` kernel).
#[allow(clippy::too_many_arguments)]
#[inline]
fn col_product_tile<const W: usize>(
    a: &[f32],
    a_cols: usize,
    i: usize,
    a_rows: usize,
    b: &[f32],
    n: usize,
    j0: usize,
    out: &mut [f32],
) {
    let mut acc = [0.0f32; W];
    for k in 0..a_rows {
        let w = a[k * a_cols + i];
        let b_seg: &[f32; W] = b[k * n + j0..k * n + j0 + W]
            .try_into()
            .expect("tile width");
        for (acc_c, &b_c) in acc.iter_mut().zip(b_seg.iter()) {
            *acc_c += w * b_c;
        }
    }
    out[j0..j0 + W].copy_from_slice(&acc);
}

/// One kernel family's fixed-width tile pass plus its variable-width tail,
/// driven by [`run_tile_ladder`]. Implementations capture the operands; the
/// ladder only decides tile boundaries, so both families share one copy of the
/// width-descent logic.
trait TilePass {
    /// Runs one `W`-wide tile starting at output column `j0`.
    fn tile<const W: usize>(&mut self, j0: usize);
    /// Runs the final sub-16-wide scalar tail starting at `j0`.
    fn tail(&mut self, j0: usize, width: usize);
}

/// Walks an `n`-wide output row in descending register tiles: 64-wide passes
/// while they fit, then 32, then 16, then the scalar tail. Tile boundaries
/// never affect results (per-element accumulation order is tile-independent).
fn run_tile_ladder<P: TilePass>(pass: &mut P, n: usize) {
    let mut j0 = 0;
    while j0 + 64 <= n {
        pass.tile::<64>(j0);
        j0 += 64;
    }
    while j0 + 32 <= n {
        pass.tile::<32>(j0);
        j0 += 32;
    }
    while j0 + 16 <= n {
        pass.tile::<16>(j0);
        j0 += 16;
    }
    if j0 < n {
        pass.tail(j0, n - j0);
    }
}

/// Row-product tile pass over `a_row * B` for [`run_tile_ladder`].
struct RowPass<'a> {
    a_row: &'a [f32],
    b: &'a [f32],
    n: usize,
    out: &'a mut [f32],
}

impl TilePass for RowPass<'_> {
    fn tile<const W: usize>(&mut self, j0: usize) {
        row_product_tile::<W>(self.a_row, self.b, self.n, j0, self.out);
    }

    fn tail(&mut self, j0: usize, width: usize) {
        let mut acc = [0.0f32; 16];
        for (k, &a) in self.a_row.iter().enumerate() {
            let b_seg = &self.b[k * self.n + j0..k * self.n + j0 + width];
            for (acc_c, &b_c) in acc[..width].iter_mut().zip(b_seg.iter()) {
                *acc_c += a * b_c;
            }
        }
        self.out[j0..j0 + width].copy_from_slice(&acc[..width]);
    }
}

/// Column-product tile pass over column `i` of `a` against `B` for
/// [`run_tile_ladder`].
struct ColPass<'a> {
    a: &'a [f32],
    a_cols: usize,
    i: usize,
    a_rows: usize,
    b: &'a [f32],
    n: usize,
    out: &'a mut [f32],
}

impl TilePass for ColPass<'_> {
    fn tile<const W: usize>(&mut self, j0: usize) {
        col_product_tile::<W>(
            self.a,
            self.a_cols,
            self.i,
            self.a_rows,
            self.b,
            self.n,
            j0,
            self.out,
        );
    }

    fn tail(&mut self, j0: usize, width: usize) {
        let mut acc = [0.0f32; 16];
        for k in 0..self.a_rows {
            let w = self.a[k * self.a_cols + self.i];
            let b_seg = &self.b[k * self.n + j0..k * self.n + j0 + width];
            for (acc_c, &b_c) in acc[..width].iter_mut().zip(b_seg.iter()) {
                *acc_c += w * b_c;
            }
        }
        self.out[j0..j0 + width].copy_from_slice(&acc[..width]);
    }
}

/// Reduces one 8-lane accumulator with the fixed pairwise tree shared by [`dot`]
/// and [`dot4`], then adds the remainder contribution.
#[inline]
fn reduce8(acc: &[f32; 8], tail: f32) -> f32 {
    let q = [
        acc[0] + acc[1],
        acc[2] + acc[3],
        acc[4] + acc[5],
        acc[6] + acc[7],
    ];
    ((q[0] + q[1]) + (q[2] + q[3])) + tail
}

/// Four dot products of `a` against `bs` in one pass over `a`.
///
/// Each output uses exactly the lane layout and reduction order of [`dot`], so
/// `dot4(a, bs)[c] == dot(a, bs[c])` bit for bit.
#[inline]
fn dot4(a: &[f32], bs: [&[f32]; 4]) -> [f32; 4] {
    let mut accs = [[0.0f32; 8]; 4];
    let chunks = a.len() / 8;
    for ci in 0..chunks {
        let off = ci * 8;
        let ac: &[f32; 8] = a[off..off + 8].try_into().expect("chunk width");
        for (acc, b) in accs.iter_mut().zip(bs.iter()) {
            let bc: &[f32; 8] = b[off..off + 8].try_into().expect("chunk width");
            for (x, (&a_c, &b_c)) in acc.iter_mut().zip(ac.iter().zip(bc.iter())) {
                *x += a_c * b_c;
            }
        }
    }
    let rem = chunks * 8;
    let mut out = [0.0f32; 4];
    for ((o, acc), b) in out.iter_mut().zip(accs.iter()).zip(bs.iter()) {
        let tail: f32 = a[rem..]
            .iter()
            .zip(b[rem..].iter())
            .map(|(x, y)| x * y)
            .sum();
        *o = reduce8(acc, tail);
    }
    out
}

/// Computes the dot product of two equal-length slices.
///
/// Uses eight independent accumulator lanes (one AVX register) with a fixed
/// pairwise reduction, so the compiler can vectorise the loop; every dot product
/// in the stack (attention scores, `matmul_transposed`) goes through this single
/// kernel so row-1 and row-n code paths agree bit for bit.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    if let (Ok(a8), Ok(b8)) = (<&[f32; 8]>::try_from(a), <&[f32; 8]>::try_from(b)) {
        // Fixed-length fast path (the attention head_dim shape); exactly the same
        // lane products and reduction order as one iteration of the general loop.
        let acc = [
            a8[0] * b8[0],
            a8[1] * b8[1],
            a8[2] * b8[2],
            a8[3] * b8[3],
            a8[4] * b8[4],
            a8[5] * b8[5],
            a8[6] * b8[6],
            a8[7] * b8[7],
        ];
        return reduce8(&acc, 0.0);
    }
    let mut acc = [0.0f32; 8];
    let a_chunks = a.chunks_exact(8);
    let b_chunks = b.chunks_exact(8);
    let tail: f32 = a_chunks
        .remainder()
        .iter()
        .zip(b_chunks.remainder())
        .map(|(x, y)| x * y)
        .sum();
    for (ca, cb) in a_chunks.zip(b_chunks) {
        for (acc_c, (&x, &y)) in acc.iter_mut().zip(ca.iter().zip(cb.iter())) {
            *acc_c += x * y;
        }
    }
    reduce8(&acc, tail)
}

/// In-place `a += alpha * b` over slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(a: &mut [f32], b: &[f32], alpha: f32) {
    assert_eq!(a.len(), b.len(), "axpy length mismatch");
    for (x, &y) in a.iter_mut().zip(b.iter()) {
        *x += alpha * y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_shape() {
        let m = Mat::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(!m.is_empty());
        assert_eq!(m.get(2, 3), 0.0);
    }

    #[test]
    fn identity_matmul_is_noop() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Mat::random_uniform(4, 4, 1.0, &mut rng);
        let i = Mat::eye(4);
        let out = a.matmul(&i);
        assert_eq!(out, a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn matmul_transposed_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Mat::random_uniform(3, 5, 1.0, &mut rng);
        let b = Mat::random_uniform(4, 5, 1.0, &mut rng);
        let direct = a.matmul_transposed(&b);
        let explicit = a.matmul(&b.transpose());
        for (x, y) in direct.as_slice().iter().zip(explicit.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn transposed_matmul_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Mat::random_uniform(6, 3, 1.0, &mut rng);
        let b = Mat::random_uniform(6, 4, 1.0, &mut rng);
        let direct = a.transposed_matmul(&b);
        let explicit = a.transpose().matmul(&b);
        for (x, y) in direct.as_slice().iter().zip(explicit.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn add_sub_roundtrip() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Mat::random_uniform(2, 3, 1.0, &mut rng);
        let b = Mat::random_uniform(2, 3, 1.0, &mut rng);
        let c = a.add(&b).sub(&b);
        for (x, y) in c.as_slice().iter().zip(a.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn hconcat_and_vstack() {
        let a = Mat::from_rows(&[&[1.0], &[2.0]]);
        let b = Mat::from_rows(&[&[3.0], &[4.0]]);
        let h = Mat::hconcat(&[&a, &b]);
        assert_eq!(h.shape(), (2, 2));
        assert_eq!(h.row(0), &[1.0, 3.0]);
        let v = Mat::vstack(&[&a, &b]);
        assert_eq!(v.shape(), (4, 1));
        assert_eq!(v.get(3, 0), 4.0);
    }

    #[test]
    fn slice_rows_returns_expected_block() {
        let m = Mat::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let s = m.slice_rows(1, 3);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.row(0), &[2.0, 2.0]);
    }

    #[test]
    fn norms_and_stats() {
        let m = Mat::from_rows(&[&[3.0, -4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
        assert!((m.l1_norm() - 7.0).abs() < 1e-6);
        assert!((m.mean() + 0.5).abs() < 1e-6);
        assert!((m.max_abs() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn clip_bounds_values() {
        let mut m = Mat::from_rows(&[&[10.0, -10.0, 0.5]]);
        m.clip(1.0);
        assert_eq!(m.row(0), &[1.0, -1.0, 0.5]);
    }

    #[test]
    fn dot_and_axpy() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        assert!((dot(&a, &b) - 32.0).abs() < 1e-6);
        let mut c = [1.0, 1.0, 1.0];
        axpy(&mut c, &b, 2.0);
        assert_eq!(c, [9.0, 11.0, 13.0]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(4, 2);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matvec_fast_path_is_bit_identical_to_blocked_rows() {
        // The rows==1 decode path and the blocked multi-row path must agree
        // bit for bit so speculative verification reproduces vanilla decoding.
        let mut rng = StdRng::seed_from_u64(20);
        let a = Mat::random_uniform(5, 100, 1.0, &mut rng);
        let b = Mat::random_uniform(100, 150, 1.0, &mut rng);
        let full = a.matmul(&b);
        for i in 0..a.rows() {
            let single = a.slice_rows(i, i + 1).matmul(&b);
            assert_eq!(single.row(0), full.row(i), "row {i}");
        }
        let full_t = a.matmul_transposed(&a);
        for i in 0..a.rows() {
            let single = a.slice_rows(i, i + 1).matmul_transposed(&a);
            assert_eq!(single.row(0), full_t.row(i), "row {i}");
        }
    }

    #[test]
    fn into_variants_match_allocating_variants() {
        let mut rng = StdRng::seed_from_u64(21);
        let a = Mat::random_uniform(70, 130, 1.0, &mut rng);
        let b = Mat::random_uniform(130, 90, 1.0, &mut rng);
        let mut out = Mat::full(70, 90, 7.0); // stale contents must be overwritten
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));

        let c = Mat::random_uniform(80, 130, 1.0, &mut rng);
        let mut out_t = Mat::full(70, 80, 7.0);
        a.matmul_transposed_into(&c, &mut out_t);
        assert_eq!(out_t, a.matmul_transposed(&c));

        let d = Mat::random_uniform(70, 40, 1.0, &mut rng);
        let mut out_tm = Mat::full(130, 40, 7.0);
        a.transposed_matmul_into(&d, &mut out_tm);
        assert_eq!(out_tm, a.transposed_matmul(&d));
    }

    #[test]
    fn empty_shapes_are_supported() {
        let a = Mat::zeros(0, 5);
        let b = Mat::zeros(5, 3);
        assert_eq!(a.matmul(&b).shape(), (0, 3));
        let c = Mat::zeros(0, 0);
        assert_eq!(c.matmul(&c).shape(), (0, 0));
        assert_eq!(a.matmul_transposed(&a).shape(), (0, 0));
        assert_eq!(a.transposed_matmul(&a).shape(), (5, 5));
    }

    #[test]
    fn set_rows_reuses_capacity_and_add_into_overwrites() {
        let mut m = Mat::zeros(4, 8);
        let cap_ptr = m.as_slice().as_ptr();
        m.set_rows(2, 8);
        assert_eq!(m.shape(), (2, 8));
        assert_eq!(m.as_slice().as_ptr(), cap_ptr, "no reallocation on shrink");
        let a = Mat::full(2, 8, 1.5);
        let b = Mat::full(2, 8, 2.0);
        a.add_into(&b, &mut m);
        assert_eq!(m, Mat::full(2, 8, 3.5));
    }

    #[test]
    fn extend_rows_range_appends_expected_rows() {
        let mut m = Mat::from_rows(&[&[1.0, 2.0]]);
        let other = Mat::from_rows(&[&[3.0, 4.0], &[5.0, 6.0], &[7.0, 8.0]]);
        m.extend_rows_range(&other, 1, 3);
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(m.row(1), &[5.0, 6.0]);
        assert_eq!(m.row(2), &[7.0, 8.0]);
    }
}
