//! Achlioptas sparse random projection (paper §4.2, Eq. 3).
//!
//! The screening module first projects the `d`-dimensional hidden vector `h`
//! into a `k`-dimensional space with
//! `P ∈ √(3/k) · {−1, 0, 1}^{k×d}`, where each entry is `+1` with
//! probability 1/6, `−1` with probability 1/6 and `0` with probability 2/3
//! (Achlioptas, PODS'01 — the paper's reference \[1\]). The paper notes the
//! matrix "can be represented in 2-bit format" with overhead "less than
//! 0.1%" of the classifier weights; we store only the non-zero coordinates,
//! which is even cheaper and makes `P h` an O(nnz) operation.

use crate::matrix::{Matrix, Vector};
use crate::TensorError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A sparse `{−1, 0, +1}` random projection with scale `√(3/k)`.
///
/// Stored as per-row lists of `(column, sign)` pairs.
///
/// # Example
///
/// ```
/// use enmc_tensor::{SparseProjection, Vector};
/// let p = SparseProjection::new(8, 64, 42).unwrap();
/// let h = Vector::from(vec![1.0; 64]);
/// let ph = p.project(&h);
/// assert_eq!(ph.len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct SparseProjection {
    k: usize,
    d: usize,
    /// `(col, +1/-1)` pairs for each of the `k` rows.
    rows: Vec<Vec<(u32, i8)>>,
    scale: f32,
}

impl SparseProjection {
    /// Samples a fresh `k × d` projection from `seed`.
    ///
    /// Entries are `+1`/`−1` each with probability 1/6 and `0` otherwise,
    /// scaled by `√(3/k)` when applied.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `k == 0` or `d == 0`.
    pub fn new(k: usize, d: usize, seed: u64) -> Result<Self, TensorError> {
        if k == 0 || d == 0 {
            return Err(TensorError::InvalidArgument("projection dims must be nonzero"));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(k);
        for _ in 0..k {
            let mut row = Vec::new();
            for c in 0..d {
                // P(+1) = P(-1) = 1/6, P(0) = 2/3.
                let u: u32 = rng.random_range(0..6);
                match u {
                    0 => row.push((c as u32, 1)),
                    1 => row.push((c as u32, -1)),
                    _ => {}
                }
            }
            rows.push(row);
        }
        Ok(SparseProjection { k, d, rows, scale: (3.0 / k as f32).sqrt() })
    }

    /// Input (hidden) dimension `d`.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Applies the projection: `y = P h`, `y ∈ ℝᵏ`.
    ///
    /// # Panics
    ///
    /// Panics if `h.len() != d`.
    pub fn project(&self, h: &Vector) -> Vector {
        assert_eq!(h.len(), self.d, "project: dimension mismatch");
        let hs = h.as_slice();
        let mut out = Vec::with_capacity(self.k);
        for row in &self.rows {
            let mut acc = 0.0_f32;
            for &(c, s) in row {
                let v = hs[c as usize];
                if s > 0 {
                    acc += v;
                } else {
                    acc -= v;
                }
            }
            out.push(acc * self.scale);
        }
        Vector::from(out)
    }

    /// Materializes the dense `k × d` matrix: the reference [`Self::project`]
    /// is tested against.
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.k, self.d);
        for (r, row) in self.rows.iter().enumerate() {
            for &(c, s) in row {
                m.set(r, c as usize, s as f32 * self.scale);
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_dims() {
        assert!(SparseProjection::new(0, 4, 0).is_err());
        assert!(SparseProjection::new(4, 0, 0).is_err());
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = SparseProjection::new(4, 32, 7).unwrap();
        let b = SparseProjection::new(4, 32, 7).unwrap();
        let h: Vector = (0..32).map(|i| i as f32).collect();
        assert_eq!(a.project(&h), b.project(&h));
    }

    #[test]
    fn differs_across_seeds() {
        let a = SparseProjection::new(4, 128, 1).unwrap();
        let b = SparseProjection::new(4, 128, 2).unwrap();
        let h: Vector = (0..128).map(|i| (i as f32).sin()).collect();
        assert_ne!(a.project(&h), b.project(&h));
    }

    #[test]
    fn sparse_matches_dense_apply() {
        let p = SparseProjection::new(6, 40, 3).unwrap();
        let h: Vector = (0..40).map(|i| (i as f32 * 0.1).cos()).collect();
        let sparse = p.project(&h);
        let dense = p.to_dense().matvec(&h);
        for (a, b) in sparse.as_slice().iter().zip(dense.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn density_is_about_one_third() {
        let p = SparseProjection::new(64, 512, 11).unwrap();
        let nnz: usize = p.rows.iter().map(Vec::len).sum();
        let density = nnz as f64 / (64.0 * 512.0);
        assert!((0.28..0.39).contains(&density), "density {density}");
    }

    #[test]
    fn scale_is_sqrt_3_over_k() {
        let p = SparseProjection::new(12, 8, 0).unwrap();
        assert!((p.scale - (3.0_f32 / 12.0).sqrt()).abs() < 1e-7);
    }

    #[test]
    fn preserves_norms_approximately() {
        // Johnson–Lindenstrauss: expected squared norm is preserved.
        // Average over several vectors to keep the test robust.
        let d = 512;
        let k = 128;
        let p = SparseProjection::new(k, d, 99).unwrap();
        let mut ratio_sum = 0.0_f64;
        let n = 20;
        for s in 0..n {
            let h: Vector = (0..d).map(|i| ((i * 31 + s * 17) as f32 * 0.01).sin()).collect();
            let ph = p.project(&h);
            ratio_sum += (ph.dot(&ph).sqrt() / h.dot(&h).sqrt()) as f64;
        }
        let mean_ratio = ratio_sum / n as f64;
        assert!((0.85..1.15).contains(&mean_ratio), "mean norm ratio {mean_ratio}");
    }
}
