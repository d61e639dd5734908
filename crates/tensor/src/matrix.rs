//! Row-major dense matrices and vectors.
//!
//! Extreme classification is dominated by the transformation `z = W h + b`
//! (paper Eq. 1) where `W` has one row per category. The storage here is
//! deliberately row-major so that "gather the rows of the selected
//! candidates" — the access pattern of candidates-only classification
//! (paper §4.2, Fig. 6c) — is a contiguous-slice operation, exactly as it is
//! on the ENMC DIMM.

use crate::TensorError;

/// A dense `f32` vector.
///
/// A thin newtype over `Vec<f32>` that carries the vector-space operations
/// the screening algorithm needs. Converts freely from/to `Vec<f32>`.
///
/// # Example
///
/// ```
/// use enmc_tensor::Vector;
/// let v = Vector::from(vec![1.0, 2.0]);
/// let w = Vector::from(vec![3.0, -1.0]);
/// assert_eq!(v.dot(&w), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vector {
    data: Vec<f32>,
}

impl Vector {
    /// Creates a zero vector of length `len`.
    pub fn zeros(len: usize) -> Self {
        Vector { data: vec![0.0; len] }
    }

    /// Length of the vector.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the vector and returns the underlying storage.
    pub fn into_inner(self) -> Vec<f32> {
        self.data
    }

    /// Inner product with another vector.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dot(&self, other: &Vector) -> f32 {
        assert_eq!(self.len(), other.len(), "dot: length mismatch");
        dot(&self.data, &other.data)
    }

    /// Adds `other` element-wise into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn add_assign(&mut self, other: &Vector) {
        assert_eq!(self.len(), other.len(), "add_assign: length mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += *b;
        }
    }

    /// Scales every element by `s`.
    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// `self += s * other` (axpy).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn axpy(&mut self, s: f32, other: &Vector) {
        assert_eq!(self.len(), other.len(), "axpy: length mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += s * *b;
        }
    }

    /// Maximum absolute value (`0.0` for an empty vector).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, &x| m.max(x.abs()))
    }
}

impl From<Vec<f32>> for Vector {
    fn from(data: Vec<f32>) -> Self {
        Vector { data }
    }
}

impl From<Vector> for Vec<f32> {
    fn from(v: Vector) -> Self {
        v.data
    }
}

impl AsRef<[f32]> for Vector {
    fn as_ref(&self) -> &[f32] {
        &self.data
    }
}

impl FromIterator<f32> for Vector {
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        Vector { data: iter.into_iter().collect() }
    }
}

impl std::ops::Index<usize> for Vector {
    type Output = f32;
    fn index(&self, i: usize) -> &f32 {
        &self.data[i]
    }
}

impl std::ops::IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f32 {
        &mut self.data[i]
    }
}

/// A dense row-major `f32` matrix.
///
/// For an extreme classifier, `rows` is the category count `l` and `cols` is
/// the hidden dimension `d`; each row is one category's weight vector.
///
/// # Example
///
/// ```
/// use enmc_tensor::{Matrix, Vector};
/// let m = Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..]]);
/// let z = m.matvec(&Vector::from(vec![1.0, 1.0]));
/// assert_eq!(z.as_slice(), &[3.0, 7.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows
            .checked_mul(cols)
            .unwrap_or_else(|| panic!("Matrix::zeros: {rows}x{cols} overflows usize"));
        Matrix { rows, cols, data: vec![0.0; len] }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len() != rows * cols`
    /// (including when `rows * cols` overflows).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, TensorError> {
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(TensorError::ShapeMismatch {
                op: "Matrix::from_vec",
                expected: (rows, cols),
                found: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a slice of equally-long rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows: need at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Matrix { rows: rows.len(), cols, data }
    }

    /// Number of rows (categories `l` for a classifier).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (hidden dimension `d` for a classifier).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Immutable view of the whole row-major storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the whole row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element access.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Full matrix-vector product `z = W h` (paper Eq. 1 without bias).
    ///
    /// # Panics
    ///
    /// Panics if `h.len() != cols`.
    pub fn matvec(&self, h: &Vector) -> Vector {
        assert_eq!(h.len(), self.cols, "matvec: dimension mismatch");
        let mut out = Vec::with_capacity(self.rows);
        self.row_dots(0..self.rows, h.as_slice(), |_, z| out.push(z));
        Vector::from(out)
    }

    /// Matrix-vector product with bias: `z = W h + b` (paper Eq. 1).
    ///
    /// # Panics
    ///
    /// Panics if `h.len() != cols` or `b.len() != rows`.
    pub fn matvec_bias(&self, h: &Vector, b: &Vector) -> Vector {
        assert_eq!(b.len(), self.rows, "matvec_bias: bias length mismatch");
        let mut z = self.matvec(h);
        z.add_assign(b);
        z
    }

    /// Computes inner products for a subset of rows only — the
    /// candidates-only classification of paper Fig. 6(c).
    ///
    /// Returns `(index, w_index · h + b_index)` pairs in input order.
    ///
    /// # Panics
    ///
    /// Panics if `h.len() != cols`, `b.len() != rows`, or any index is out of
    /// bounds.
    pub fn matvec_rows(&self, indices: &[usize], h: &Vector, b: &Vector) -> Vec<(usize, f32)> {
        assert_eq!(h.len(), self.cols, "matvec_rows: dimension mismatch");
        assert_eq!(b.len(), self.rows, "matvec_rows: bias length mismatch");
        let mut out = Vec::with_capacity(indices.len());
        self.row_dots(indices.iter().copied(), h.as_slice(), |i, z| out.push((i, z + b[i])));
        out
    }

    /// Calls `emit(i, dot(self.row(i), h))` for each `i` of `rows`, in order,
    /// computing four rows at a time with [`dot_rows`].
    fn row_dots(
        &self,
        rows: impl Iterator<Item = usize>,
        h: &[f32],
        mut emit: impl FnMut(usize, f32),
    ) {
        let mut block = [0; 4];
        let mut n = 0;
        for i in rows {
            block[n] = i;
            n += 1;
            if n == 4 {
                let z = dot_rows(block.map(|i| self.row(i)), h);
                for (&i, z) in block.iter().zip(z) {
                    emit(i, z);
                }
                n = 0;
            }
        }
        for &i in &block[..n] {
            emit(i, dot(self.row(i), h));
        }
    }

    /// Transposed matrix-vector product `y = Wᵀ x` (used by SGD gradients).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    pub fn matvec_t(&self, x: &Vector) -> Vector {
        assert_eq!(x.len(), self.rows, "matvec_t: dimension mismatch");
        let mut out = vec![0.0_f32; self.cols];
        for r in 0..self.rows {
            let xr = x[r];
            if xr == 0.0 {
                continue;
            }
            for (o, w) in out.iter_mut().zip(self.row(r)) {
                *o += xr * *w;
            }
        }
        Vector::from(out)
    }

    /// Rank-1 update `W += s · x yᵀ` (outer product), the SGD weight step.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows` or `y.len() != cols`.
    pub fn rank_one_update(&mut self, s: f32, x: &Vector, y: &Vector) {
        assert_eq!(x.len(), self.rows, "rank_one_update: row mismatch");
        assert_eq!(y.len(), self.cols, "rank_one_update: col mismatch");
        for r in 0..self.rows {
            let sx = s * x[r];
            if sx == 0.0 {
                continue;
            }
            for (w, yv) in self.row_mut(r).iter_mut().zip(y.as_slice()) {
                *w += sx * *yv;
            }
        }
    }

    /// Dense matrix-matrix product `self * other`.
    ///
    /// Only used offline (SVD baseline, training); the simulated hardware
    /// never performs it.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul: inner dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[r * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let orow = &other.data[k * other.cols..(k + 1) * other.cols];
                let dst = &mut out.data[r * other.cols..(r + 1) * other.cols];
                for (d, &o) in dst.iter_mut().zip(orow) {
                    *d += a * o;
                }
            }
        }
        out
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Maximum absolute element value (`0.0` for an empty matrix).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, &x| m.max(x.abs()))
    }

}

/// Plain dot product over two equally-long slices.
///
/// Manually unrolled by 4 to keep the dependency chain short; this is the
/// single hottest loop of the whole repository.
///
/// # Panics
///
/// Panics (via `assert_eq!`) if the lengths differ.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    let mut s0 = 0.0_f32;
    let mut s1 = 0.0_f32;
    let mut s2 = 0.0_f32;
    let mut s3 = 0.0_f32;
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let j = i * 4;
        s0 += a[j] * b[j];
        s1 += a[j + 1] * b[j + 1];
        s2 += a[j + 2] * b[j + 2];
        s3 += a[j + 3] * b[j + 3];
    }
    let mut s = s0 + s1 + s2 + s3;
    for j in chunks * 4..a.len() {
        s += a[j] * b[j];
    }
    s
}

/// [`dot`] of four rows against `b` at once: the same result, bit for
/// bit, for each row.
///
/// Each row keeps `dot`'s arithmetic exactly: four lane accumulators over
/// chunks of four, then `s0 + s1 + s2 + s3`, then the sequential tail, with
/// multiply and add kept separate. Interleaving rows only gives the CPU
/// four independent accumulator chains instead of one.
///
/// # Panics
///
/// Panics if a row's length differs from `b`'s.
fn dot_rows(rows: [&[f32]; 4], b: &[f32]) -> [f32; 4] {
    for r in rows {
        assert_eq!(r.len(), b.len(), "dot_rows: length mismatch");
    }
    let (b_body, b_tail) = b.as_chunks::<4>();
    let [r0, r1, r2, r3] = rows.map(|r| &r.as_chunks::<4>().0[..b_body.len()]);
    let mut acc = [[0.0_f32; 4]; 4];
    // Indexing rather than an iterator chain: as fast in release, and
    // unoptimized builds, which the test suite runs, stay faster than `dot`.
    for c in 0..b_body.len() {
        let b = &b_body[c];
        mac4(&mut acc[0], &r0[c], b);
        mac4(&mut acc[1], &r1[c], b);
        mac4(&mut acc[2], &r2[c], b);
        mac4(&mut acc[3], &r3[c], b);
    }
    let tail = b_body.len() * 4;
    std::array::from_fn(|r| finish(acc[r], &rows[r][tail..], b_tail))
}

/// [`dot`]'s end for one row: `s0 + s1 + s2 + s3` of the lane sums, then
/// the sequential tail `a · b`.
///
/// Out of line on purpose: inlined into [`dot_rows`], LLVM vectorizes the
/// four rows' sums together and so transposes the accumulators on every
/// step of the loop, which made the gather about 1.5× slower.
#[inline(never)]
fn finish(lanes: [f32; 4], a: &[f32], b: &[f32]) -> f32 {
    let [s0, s1, s2, s3] = lanes;
    let mut s = s0 + s1 + s2 + s3;
    for (a, b) in a.iter().zip(b) {
        s += a * b;
    }
    s
}

/// One chunk of [`dot`]'s lane accumulation: `s[l] += a[l] * b[l]`.
fn mac4(s: &mut [f32; 4], a: &[f32; 4], b: &[f32; 4]) {
    s[0] += a[0] * b[0];
    s[1] += a[1] * b[1];
    s[2] += a[2] * b[2];
    s[3] += a[3] * b[3];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_basics() {
        let mut v = Vector::zeros(3);
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
        v[0] = 1.0;
        v[2] = -2.0;
        assert_eq!(v.as_slice(), &[1.0, 0.0, -2.0]);
        assert_eq!(v.max_abs(), 2.0);
    }

    #[test]
    fn vector_dot() {
        let v = Vector::from(vec![3.0, 4.0]);
        assert_eq!(v.dot(&v), 25.0);
    }

    #[test]
    fn vector_axpy() {
        let mut v = Vector::from(vec![1.0, 1.0]);
        v.axpy(2.0, &Vector::from(vec![1.0, -1.0]));
        assert_eq!(v.as_slice(), &[3.0, -1.0]);
    }

    #[test]
    fn vector_from_iterator() {
        let v: Vector = (0..4).map(|i| i as f32).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn matrix_from_vec_shape_checked() {
        assert!(Matrix::from_vec(2, 2, vec![0.0; 4]).is_ok());
        let err = Matrix::from_vec(2, 2, vec![0.0; 3]).unwrap_err();
        assert!(matches!(err, TensorError::ShapeMismatch { .. }));
    }

    #[test]
    fn from_vec_rejects_a_shape_whose_size_overflows() {
        // 2^63 x 2 wraps to 0 elements, 2^63+1 x 2 to 2.
        for (rows, data) in [(1usize << 63, vec![]), ((1 << 63) + 1, vec![0.0; 2])] {
            let err = Matrix::from_vec(rows, 2, data).unwrap_err();
            assert!(matches!(err, TensorError::ShapeMismatch { .. }), "{rows}x2");
        }
    }

    #[test]
    #[should_panic(expected = "Matrix::zeros: 9223372036854775808x2 overflows usize")]
    fn zeros_names_a_shape_whose_size_overflows() {
        Matrix::zeros(1 << 63, 2);
    }

    #[test]
    fn matvec_matches_manual() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0][..], &[-1.0, 0.0, 1.0][..]]);
        let h = Vector::from(vec![1.0, 0.5, 2.0]);
        let z = m.matvec(&h);
        assert_eq!(z.as_slice(), &[8.0, 1.0]);
    }

    #[test]
    fn matvec_bias_adds_bias() {
        let m = Matrix::from_rows(&[&[1.0][..], &[2.0][..]]);
        let z = m.matvec_bias(&Vector::from(vec![2.0]), &Vector::from(vec![10.0, 20.0]));
        assert_eq!(z.as_slice(), &[12.0, 24.0]);
    }

    #[test]
    fn matvec_rows_gathers_candidates() {
        let m = Matrix::from_rows(&[&[1.0][..], &[2.0][..], &[3.0][..]]);
        let out = m.matvec_rows(&[2, 0], &Vector::from(vec![10.0]), &Vector::zeros(3));
        assert_eq!(out, vec![(2, 30.0), (0, 10.0)]);
    }

    #[test]
    fn matvec_t_is_transpose_product() {
        let m = Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..]]);
        let y = m.matvec_t(&Vector::from(vec![1.0, 1.0]));
        assert_eq!(y.as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn rank_one_update_outer_product() {
        let mut m = Matrix::zeros(2, 2);
        m.rank_one_update(0.5, &Vector::from(vec![2.0, 4.0]), &Vector::from(vec![1.0, 3.0]));
        assert_eq!(m.as_slice(), &[1.0, 3.0, 2.0, 6.0]);
    }

    #[test]
    fn matmul_identity() {
        let m = Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..]]);
        let id = Matrix::from_rows(&[&[1.0, 0.0][..], &[0.0, 1.0][..]]);
        assert_eq!(m.matmul(&id), m);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0][..], &[4.0, 5.0, 6.0][..]]);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().shape(), (3, 2));
        assert_eq!(m.transpose().get(2, 1), 6.0);
    }

    /// Deterministic test values: mostly ordinary, with NaN, ±inf, -0.0 and
    /// subnormals mixed in when `special` is set.
    fn values(n: usize, seed: u64, special: bool) -> Vec<f32> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let u = (s >> 40) as f32 / (1u32 << 24) as f32;
                match (s >> 32) % 16 {
                    0 if special => f32::NAN,
                    1 if special => f32::INFINITY,
                    2 if special => f32::NEG_INFINITY,
                    3 if special => -0.0,
                    4 if special => f32::from_bits((s >> 42) as u32 | 1), // subnormal
                    _ => (u - 0.5) * 8.0,
                }
            })
            .collect()
    }

    /// Bit identity, except that a NaN result need only be NaN: Rust leaves
    /// the payload of a NaN produced by arithmetic unspecified.
    fn assert_same(got: f32, want: f32, what: &str) {
        assert!(
            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
            "{what}: {got:e} ({:#x}) != {want:e} ({:#x})",
            got.to_bits(),
            want.to_bits()
        );
    }

    #[test]
    fn matvec_and_matvec_rows_match_dot_bit_for_bit() {
        for rows in [1, 7, 8, 9, 33] {
            for cols in [1, 3, 15, 16, 17, 64, 100, 256] {
                for special in [false, true] {
                    let seed = (rows * 1000 + cols) as u64;
                    let m =
                        Matrix::from_vec(rows, cols, values(rows * cols, seed, special)).unwrap();
                    let h = Vector::from(values(cols, !seed, special));
                    let b = Vector::from(values(rows, seed ^ 0x55, false));
                    let what = format!("{rows}x{cols} special={special}");
                    let z = m.matvec(&h);
                    for r in 0..rows {
                        assert_same(
                            z[r],
                            dot(m.row(r), h.as_slice()),
                            &format!("matvec {what} row {r}"),
                        );
                    }
                    let descending: Vec<usize> = (0..rows).rev().collect();
                    let duplicates: Vec<usize> =
                        (0..2 * rows + 1).map(|i| (i * 5) % rows).collect();
                    for idx in [vec![], descending, duplicates] {
                        let out = m.matvec_rows(&idx, &h, &b);
                        assert_eq!(out.len(), idx.len());
                        for (&(i, z), &want) in out.iter().zip(&idx) {
                            assert_eq!(i, want);
                            let expect = dot(m.row(i), h.as_slice()) + b[i];
                            assert_same(z, expect, &format!("matvec_rows {what} row {i}"));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dot_rows_matches_dot_on_each_row() {
        for n in [0, 1, 3, 4, 5, 15, 16, 17, 64, 100, 256] {
            for special in [false, true] {
                let rows: Vec<Vec<f32>> =
                    (0..4).map(|r| values(n, r as u64 + 7, special)).collect();
                let b = values(n, 99, special);
                let z = dot_rows([&rows[0], &rows[1], &rows[2], &rows[3]], &b);
                for r in 0..4 {
                    assert_same(z[r], dot(&rows[r], &b), &format!("n={n} row {r}"));
                }
            }
        }
    }

    #[test]
    fn dot_handles_remainder_lengths() {
        for n in 0..9 {
            let a: Vec<f32> = (0..n).map(|i| i as f32).collect();
            let expect: f32 = a.iter().map(|x| x * x).sum();
            assert_eq!(dot(&a, &a), expect, "n={n}");
        }
    }
}
