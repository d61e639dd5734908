//! SVD-softmax baseline (Shim et al., NeurIPS'17 — the paper's reference \[37\]).
//!
//! SVD-softmax factorizes the classifier `W = U Σ Vᵀ` offline and at
//! inference:
//!
//! 1. transforms the hidden vector once: `h̃ = Vᵀ h` (`d²` MACs);
//! 2. computes a *preview* for every category using only the first `r`
//!    columns of `B = U Σ` (the "preview window", `l·r` MACs) — the
//!    singular-value ordering makes the leading columns most informative;
//! 3. refines the top-`N` preview scores with the full `d`-wide product.
//!
//! Unlike approximate screening the preview runs at FP32 and the preview
//! window must be wide enough to respect the classifier's spectrum — the
//! paper measures its computation overhead at ~4× that of screening.
//!
//! The SVD itself is computed from the eigendecomposition of the `d × d`
//! Gram matrix `WᵀW` (cyclic Jacobi), avoiding any `l × l` work.

use crate::cost::ClassificationCost;
use enmc_tensor::select::top_k_indices;
use enmc_tensor::{Matrix, TensorError, Vector};

/// The offline-factorized SVD-softmax classifier.
#[derive(Debug, Clone)]
pub struct SvdSoftmax {
    /// `B = U Σ`, `l × d`, columns ordered by decreasing singular value.
    b: Matrix,
    /// `V`, `d × d`, columns are right singular vectors (same order).
    v: Matrix,
    bias: Vector,
    /// Preview window width `r`.
    window: usize,
}

impl SvdSoftmax {
    /// Factorizes `weights` with preview window `window`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `window` is zero or
    /// exceeds `d`, or the matrix is empty.
    pub fn new(weights: &Matrix, bias: Vector, window: usize) -> Result<Self, TensorError> {
        let (l, d) = weights.shape();
        if l == 0 || d == 0 {
            return Err(TensorError::InvalidArgument("empty classifier"));
        }
        if window == 0 || window > d {
            return Err(TensorError::InvalidArgument("preview window out of range"));
        }
        if bias.len() != l {
            return Err(TensorError::ShapeMismatch {
                op: "SvdSoftmax::new",
                expected: (l, 1),
                found: (bias.len(), 1),
            });
        }
        // Gram matrix G = WᵀW (d × d), eigendecomposition via Jacobi.
        let gram = gram_matrix(weights);
        let (eigvals, unsorted_v) = jacobi_eigen(&gram, 64);
        // Sort by decreasing eigenvalue and reorder V's columns; the
        // singular values are implicit in B = W·V.
        let mut order: Vec<usize> = (0..d).collect();
        order.sort_by(|&a, &b| eigvals[b].partial_cmp(&eigvals[a]).expect("finite eigenvalues"));
        let mut v = Matrix::zeros(d, d);
        for (new_c, &old_c) in order.iter().enumerate() {
            for r in 0..d {
                v.set(r, new_c, unsorted_v.get(r, old_c));
            }
        }
        // B = W V  (l × d).
        let b = weights.matmul(&v);
        Ok(SvdSoftmax { b, v, bias, window })
    }

    /// Runs SVD-softmax for one query, refining the top-`refine` preview
    /// scores: returns mixed logits (refined for those candidates, preview
    /// elsewhere), the refined indices, and the cost. The refinement count
    /// is per call, so one factorization can serve a whole quality/speedup
    /// sweep.
    ///
    /// # Panics
    ///
    /// Panics if `h.len()` differs from `d`.
    pub fn classify(&self, h: &Vector, refine: usize) -> (Vector, Vec<usize>, ClassificationCost) {
        let (l, d) = self.b.shape();
        let r = self.window;
        // h̃ = Vᵀ h.
        let ht = self.v.matvec_t(h);
        let hts = ht.as_slice();
        // Preview: first r columns of B.
        let mut logits: Vector = (0..l)
            .map(|i| {
                let row = self.b.row(i);
                let mut acc = self.bias[i];
                for c in 0..r {
                    acc += row[c] * hts[c];
                }
                acc
            })
            .collect();
        // Refine top-N with the full width.
        let cands = top_k_indices(logits.as_slice(), refine);
        for &i in &cands {
            let row = self.b.row(i);
            let mut acc = self.bias[i];
            for c in 0..d {
                acc += row[c] * hts[c];
            }
            logits[i] = acc;
        }
        let cost = ClassificationCost {
            fp32_macs: (d * d + l * r + refine * d) as u64,
            int_macs: 0,
            // Preview columns of B streamed at FP32 + V + refined rows.
            bytes_read: (l * r * 4 + d * d * 4 + refine * d * 4 + l * 4) as u64,
            bytes_written: (l * 4) as u64,
        };
        (logits, cands, cost)
    }
}

/// `WᵀW` without materializing the transpose.
fn gram_matrix(w: &Matrix) -> Matrix {
    let (l, d) = w.shape();
    let mut g = Matrix::zeros(d, d);
    for r in 0..l {
        let row = w.row(r);
        for i in 0..d {
            let wi = row[i];
            if wi == 0.0 {
                continue;
            }
            let grow = g.row_mut(i);
            for j in 0..d {
                grow[j] += wi * row[j];
            }
        }
    }
    g
}

/// Cyclic Jacobi eigendecomposition of a symmetric matrix.
///
/// Returns `(eigenvalues, V)` with `A = V diag(λ) Vᵀ`. `sweeps` bounds the
/// number of full cyclic sweeps; convergence is checked against the
/// off-diagonal norm.
fn jacobi_eigen(a: &Matrix, sweeps: usize) -> (Vec<f32>, Matrix) {
    let n = a.rows();
    assert_eq!(n, a.cols(), "jacobi: square matrix required");
    let mut m = a.clone();
    let mut v = Matrix::zeros(n, n);
    for i in 0..n {
        v.set(i, i, 1.0);
    }
    for _ in 0..sweeps {
        // Off-diagonal Frobenius norm.
        let mut off = 0.0_f64;
        for i in 0..n {
            for j in i + 1..n {
                off += (m.get(i, j) as f64).powi(2);
            }
        }
        if off.sqrt() < 1e-9 {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = m.get(p, q);
                if apq.abs() < 1e-12 {
                    continue;
                }
                let app = m.get(p, p);
                let aqq = m.get(q, q);
                let theta = 0.5 * (aqq - app) as f64 / apq as f64;
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                let (c, s) = (c as f32, s as f32);
                // Rotate rows/cols p and q.
                for i in 0..n {
                    let mip = m.get(i, p);
                    let miq = m.get(i, q);
                    m.set(i, p, c * mip - s * miq);
                    m.set(i, q, s * mip + c * miq);
                }
                for i in 0..n {
                    let mpi = m.get(p, i);
                    let mqi = m.get(q, i);
                    m.set(p, i, c * mpi - s * mqi);
                    m.set(q, i, s * mpi + c * mqi);
                }
                for i in 0..n {
                    let vip = v.get(i, p);
                    let viq = v.get(i, q);
                    v.set(i, p, c * vip - s * viq);
                    v.set(i, q, s * vip + c * viq);
                }
            }
        }
    }
    let eig = (0..n).map(|i| m.get(i, i)).collect();
    (eig, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use enmc_tensor::dist::standard_normal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_classifier(l: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = Matrix::zeros(l, d);
        for v in w.as_mut_slice() {
            *v = standard_normal(&mut rng) / (d as f32).sqrt();
        }
        w
    }

    #[test]
    fn jacobi_diagonalizes_known_matrix() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Matrix::from_rows(&[&[2.0, 1.0][..], &[1.0, 2.0][..]]);
        let (mut eig, _) = jacobi_eigen(&a, 32);
        eig.sort_by(|x, y| y.partial_cmp(x).unwrap());
        assert!((eig[0] - 3.0).abs() < 1e-4);
        assert!((eig[1] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn jacobi_reconstructs_matrix() {
        let w = random_classifier(8, 8, 1);
        let mut sym = w.matmul(&w.transpose());
        for i in 0..8 {
            sym.set(i, i, sym.get(i, i) + 0.5);
        }
        let (eig, v) = jacobi_eigen(&sym, 64);
        // Reconstruct V diag(eig) Vᵀ.
        let mut lam = Matrix::zeros(8, 8);
        for i in 0..8 {
            lam.set(i, i, eig[i]);
        }
        let rec = v.matmul(&lam).matmul(&v.transpose());
        for i in 0..8 {
            for j in 0..8 {
                assert!((rec.get(i, j) - sym.get(i, j)).abs() < 1e-3, "({i},{j})");
            }
        }
    }

    #[test]
    fn new_validates_window() {
        let w = random_classifier(16, 8, 2);
        assert!(SvdSoftmax::new(&w, Vector::zeros(16), 0).is_err());
        assert!(SvdSoftmax::new(&w, Vector::zeros(16), 9).is_err());
        assert!(SvdSoftmax::new(&w, Vector::zeros(15), 4).is_err());
    }

    #[test]
    fn full_window_is_exact() {
        // window == d means the preview is the exact product (orthogonal V).
        let w = random_classifier(32, 8, 3);
        let svd = SvdSoftmax::new(&w, Vector::zeros(32), 8).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let h: Vector = (0..8).map(|_| standard_normal(&mut rng)).collect();
        let (logits, ..) = svd.classify(&h, 4);
        let exact = w.matvec(&h);
        for (a, b) in logits.as_slice().iter().zip(exact.as_slice()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn refined_candidates_are_exact() {
        let w = random_classifier(64, 16, 5);
        let svd = SvdSoftmax::new(&w, Vector::zeros(64), 4).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let h: Vector = (0..16).map(|_| standard_normal(&mut rng)).collect();
        let (logits, cands, _) = svd.classify(&h, 8);
        let exact = w.matvec(&h);
        assert_eq!(cands.len(), 8);
        for &c in &cands {
            assert!((logits[c] - exact[c]).abs() < 1e-3);
        }
    }

    #[test]
    fn preview_identifies_top1_often() {
        // On a low-rank-ish classifier the preview should surface the true
        // argmax into the refined set most of the time.
        let base = random_classifier(16, 16, 7);
        let mix = random_classifier(128, 16, 8);
        let w = mix.matmul(&base); // effective rank ≤ 16, shaped 128×16
        let svd = SvdSoftmax::new(&w, Vector::zeros(128), 8).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let mut hit = 0;
        let trials = 40;
        for _ in 0..trials {
            let h: Vector = (0..16).map(|_| standard_normal(&mut rng)).collect();
            let exact = w.matvec(&h);
            let top = top_k_indices(exact.as_slice(), 1)[0];
            let (_, cands, _) = svd.classify(&h, 16);
            if cands.contains(&top) {
                hit += 1;
            }
        }
        assert!(hit as f64 / trials as f64 > 0.8, "hit rate {}", hit as f64 / trials as f64);
    }

    #[test]
    fn cost_grows_with_window() {
        let w = random_classifier(64, 16, 10);
        let narrow = SvdSoftmax::new(&w, Vector::zeros(64), 2).unwrap();
        let wide = SvdSoftmax::new(&w, Vector::zeros(64), 8).unwrap();
        let h = Vector::zeros(16);
        let (_, _, c1) = narrow.classify(&h, 4);
        let (_, _, c2) = wide.classify(&h, 4);
        assert!(c2.fp32_macs > c1.fp32_macs);
        assert!(c2.bytes_read > c1.bytes_read);
    }
}
