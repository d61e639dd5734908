//! Learning the screening module (paper §4.3, Algorithm 1).
//!
//! The screener is distilled from the frozen full classifier by minimizing
//! the MSE between full and approximate logits over batched context vectors
//! (Eq. 4):
//!
//! ```text
//! L = (1/s) Σ_s ‖(W h + b) − (W̃ P h + b̃)‖²
//! ```
//!
//! Only `W̃` and `b̃` are updated; `W`, `b` and `P` stay fixed. We provide
//! the paper's SGD loop ([`train_sgd`]) and a closed-form ridge
//! least-squares fit ([`fit_least_squares`]) that solves the same objective
//! directly — useful for large benchmark sweeps where thousands of SGD
//! epochs would dominate runtime. Both converge to the same optimum on
//! well-conditioned data (see the crate's integration tests).

use crate::screener::Screener;
use enmc_tensor::{Matrix, Vector};

/// Hyper-parameters of the SGD distillation loop.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size `s` in Eq. 4.
    pub batch_size: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// Multiplicative learning-rate decay applied after each epoch.
    pub lr_decay: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig { epochs: 10, batch_size: 8, learning_rate: 0.05, lr_decay: 0.9 }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean MSE loss at the end of each epoch.
    pub epoch_losses: Vec<f64>,
}

impl TrainReport {
    /// `true` if the loss decreased from first to last epoch.
    pub fn converged(&self) -> bool {
        match (self.epoch_losses.first(), self.epoch_losses.last()) {
            (Some(a), Some(b)) => b < a,
            _ => false,
        }
    }
}

/// Runs Algorithm 1: SGD over the distillation MSE.
///
/// `samples` are the context vectors `h_i`; the training targets
/// `z_i = W h_i + b` are computed once up front from the frozen classifier.
///
/// # Panics
///
/// Panics if `samples` is empty, shapes are inconsistent, or
/// `config.batch_size == 0`.
pub fn train_sgd(
    screener: &mut Screener,
    classifier: &Matrix,
    classifier_bias: &Vector,
    samples: &[Vector],
    config: &TrainConfig,
) -> TrainReport {
    assert!(!samples.is_empty(), "need at least one training sample");
    assert!(config.batch_size > 0, "batch size must be nonzero");
    assert_eq!(classifier.rows(), screener.categories(), "category mismatch");
    assert_eq!(classifier.cols(), screener.hidden_dim(), "hidden-dim mismatch");

    // Precompute targets and projections (P is fixed during distillation).
    let targets: Vec<Vector> =
        samples.iter().map(|h| classifier.matvec_bias(h, classifier_bias)).collect();
    let projected: Vec<Vector> = samples.iter().map(|h| screener.projection().project(h)).collect();

    let l = screener.categories();
    let mut lr = config.learning_rate;
    let mut epoch_losses = Vec::with_capacity(config.epochs);

    for _epoch in 0..config.epochs {
        let mut epoch_loss = 0.0_f64;
        let mut count = 0usize;
        for batch in projected.chunks(config.batch_size).zip(targets.chunks(config.batch_size)) {
            let (phs, zs) = batch;
            // Accumulate the batch gradient.
            let mut grad_b = Vector::zeros(l);
            let mut residuals: Vec<Vector> = Vec::with_capacity(phs.len());
            for (ph, z) in phs.iter().zip(zs) {
                let mut pred = screener.weights().matvec(ph);
                pred.add_assign(screener.bias());
                // residual r = pred − target; dL/dW̃ = (2/s) r phᵀ.
                let r: Vector = pred
                    .as_slice()
                    .iter()
                    .zip(z.as_slice())
                    .map(|(p, t)| p - t)
                    .collect();
                epoch_loss += r.as_slice().iter().map(|&x| (x as f64).powi(2)).sum::<f64>()
                    / l as f64;
                count += 1;
                grad_b.add_assign(&r);
                residuals.push(r);
            }
            let s = phs.len() as f32;
            let step = -2.0 * lr / s;
            for (r, ph) in residuals.iter().zip(phs) {
                screener.weights_mut().rank_one_update(step, r, ph);
            }
            screener.bias_mut().axpy(step, &grad_b);
        }
        epoch_losses.push(epoch_loss / count.max(1) as f64);
        lr *= config.lr_decay;
    }
    TrainReport { epoch_losses }
}

/// Solves the distillation objective in closed form (ridge least squares).
///
/// Writing `y = P h`, the optimum of Eq. 4 satisfies
/// `W̃ = Z Yᵀ (Y Yᵀ + λI)⁻¹` where `Y` stacks projected samples and `Z`
/// stacks targets; since `Z = W H + b 1ᵀ` this reduces to `k × k` solves
/// that avoid touching `l × d` more than once. The bias is fit as the mean
/// residual.
///
/// # Panics
///
/// Panics if `samples` is empty or shapes are inconsistent.
pub fn fit_least_squares(
    screener: &mut Screener,
    classifier: &Matrix,
    classifier_bias: &Vector,
    samples: &[Vector],
    ridge: f32,
) -> f64 {
    assert!(!samples.is_empty(), "need at least one sample");
    assert_eq!(classifier.rows(), screener.categories(), "category mismatch");
    assert_eq!(classifier.cols(), screener.hidden_dim(), "hidden-dim mismatch");
    let k = screener.reduced_dim();
    let n = samples.len();

    // Projected samples Y (n × k) and Gram matrix G = Σ y yᵀ + λI (k × k).
    let ys: Vec<Vector> = samples.iter().map(|h| screener.projection().project(h)).collect();
    let mut gram = Matrix::zeros(k, k);
    for y in &ys {
        gram.rank_one_update(1.0, y, y);
    }
    for i in 0..k {
        let v = gram.get(i, i) + ridge;
        gram.set(i, i, v);
    }
    let gram_inv = invert_spd(&gram);

    // A = Σ h yᵀ  (d × k): cross-correlation of inputs and projections.
    let d = screener.hidden_dim();
    let mut a = Matrix::zeros(d, k);
    for (h, y) in samples.iter().zip(&ys) {
        a.rank_one_update(1.0, h, y);
    }
    // W̃ = W · A · G⁻¹  (l×d · d×k · k×k) — never materializes l×n.
    let ag = a.matmul(&gram_inv);
    let wt = classifier.matmul(&ag);
    *screener.weights_mut() = wt;

    // Bias: mean residual between targets and W̃ y, plus classifier bias.
    let l = screener.categories();
    let mut bias_acc = Vector::zeros(l);
    for (h, y) in samples.iter().zip(&ys) {
        let target = classifier.matvec(h);
        let pred = screener.weights().matvec(y);
        for i in 0..l {
            bias_acc[i] += target[i] - pred[i];
        }
    }
    bias_acc.scale(1.0 / n as f32);
    bias_acc.add_assign(classifier_bias);
    *screener.bias_mut() = bias_acc;

    // Report the final MSE over the fitting set.
    let mut loss = 0.0_f64;
    for h in samples {
        let target = classifier.matvec_bias(h, classifier_bias);
        let pred = screener.screen_fp32(h);
        loss += pred
            .as_slice()
            .iter()
            .zip(target.as_slice())
            .map(|(p, t)| ((p - t) as f64).powi(2))
            .sum::<f64>()
            / l as f64;
    }
    loss / n as f64
}

/// Inverts a symmetric positive-definite matrix via Cholesky decomposition.
///
/// # Panics
///
/// Panics if the matrix is not SPD (ridge regularization in the caller
/// guarantees it is).
fn invert_spd(m: &Matrix) -> Matrix {
    let n = m.rows();
    assert_eq!(n, m.cols(), "invert_spd: must be square");
    // Cholesky: m = L Lᵀ.
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = m.get(i, j);
            for p in 0..j {
                sum -= l.get(i, p) * l.get(j, p);
            }
            if i == j {
                assert!(sum > 0.0, "matrix not positive definite");
                l.set(i, j, sum.sqrt());
            } else {
                l.set(i, j, sum / l.get(j, j));
            }
        }
    }
    // Invert by solving L Lᵀ X = I column by column.
    let mut inv = Matrix::zeros(n, n);
    for col in 0..n {
        // Forward solve L v = e_col.
        let mut v = vec![0.0_f32; n];
        for i in 0..n {
            let mut sum = if i == col { 1.0 } else { 0.0 };
            for p in 0..i {
                sum -= l.get(i, p) * v[p];
            }
            v[i] = sum / l.get(i, i);
        }
        // Backward solve Lᵀ x = v.
        let mut x = vec![0.0_f32; n];
        for i in (0..n).rev() {
            let mut sum = v[i];
            for p in i + 1..n {
                sum -= l.get(p, i) * x[p];
            }
            x[i] = sum / l.get(i, i);
        }
        for i in 0..n {
            inv.set(i, col, x[i]);
        }
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::screener::ScreenerConfig;
    use enmc_tensor::dist::standard_normal;
    use enmc_tensor::quant::Precision;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize, scale: f32) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for v in m.as_mut_slice() {
            *v = standard_normal(rng) * scale;
        }
        m
    }

    fn random_samples(rng: &mut StdRng, n: usize, d: usize) -> Vec<Vector> {
        (0..n).map(|_| (0..d).map(|_| standard_normal(rng)).collect()).collect()
    }

    fn setup(l: usize, d: usize, scale: f64) -> (Screener, Matrix, Vector, Vec<Vector>) {
        let mut rng = StdRng::seed_from_u64(17);
        let w = random_matrix(&mut rng, l, d, 1.0 / (d as f32).sqrt());
        let b = Vector::zeros(l);
        let samples = random_samples(&mut rng, 64, d);
        let cfg = ScreenerConfig { scale, precision: Precision::Fp32, per_row_scales: false, seed: 3 };
        let s = Screener::new(l, d, &cfg).unwrap();
        (s, w, b, samples)
    }

    #[test]
    fn sgd_loss_decreases() {
        let (mut s, w, b, samples) = setup(32, 24, 0.5);
        let report = train_sgd(&mut s, &w, &b, &samples, &TrainConfig::default());
        assert!(report.converged(), "losses: {:?}", report.epoch_losses);
        let last = *report.epoch_losses.last().unwrap();
        assert!(last < report.epoch_losses[0] * 0.8);
    }

    #[test]
    fn least_squares_beats_or_matches_sgd() {
        let (mut s_sgd, w, b, samples) = setup(32, 24, 0.5);
        let report = train_sgd(&mut s_sgd, &w, &b, &samples, &TrainConfig::default());
        let (mut s_ls, ..) = setup(32, 24, 0.5);
        let ls_loss = fit_least_squares(&mut s_ls, &w, &b, &samples, 1e-3);
        let sgd_loss = *report.epoch_losses.last().unwrap();
        assert!(ls_loss <= sgd_loss * 1.5 + 1e-6, "ls {ls_loss} vs sgd {sgd_loss}");
    }

    #[test]
    fn least_squares_loss_shrinks_with_capacity() {
        // The sparse ternary projection at k == d is not guaranteed
        // invertible (rows can collide), but more capacity must explain
        // more target variance: loss(k=d) ≪ loss(k=d/4) ≪ Var(z).
        let (mut s_small, w, b, samples) = setup(16, 32, 0.25);
        let loss_small = fit_least_squares(&mut s_small, &w, &b, &samples, 1e-5);
        let (mut s_big, ..) = setup(16, 32, 1.0);
        let loss_big = fit_least_squares(&mut s_big, &w, &b, &samples, 1e-5);
        assert!(loss_big < loss_small, "big {loss_big} vs small {loss_small}");
        // Targets have roughly unit variance by construction; a full-width
        // screener should explain the vast majority of it.
        assert!(loss_big < 0.15, "loss {loss_big}");
    }

    #[test]
    fn training_learns_bias() {
        let mut rng = StdRng::seed_from_u64(5);
        let l = 8;
        let d = 8;
        let w = Matrix::zeros(l, d); // classifier is pure bias
        let b: Vector = (0..l).map(|i| i as f32).collect();
        let samples = random_samples(&mut rng, 32, d);
        let cfg = ScreenerConfig { scale: 0.5, precision: Precision::Fp32, per_row_scales: false, seed: 1 };
        let mut s = Screener::new(l, d, &cfg).unwrap();
        let config = TrainConfig { epochs: 60, learning_rate: 0.2, ..Default::default() };
        train_sgd(&mut s, &w, &b, &samples, &config);
        for i in 0..l {
            assert!((s.bias()[i] - i as f32).abs() < 0.25, "bias[{i}] = {}", s.bias()[i]);
        }
    }

    #[test]
    fn invert_spd_identity() {
        let mut m = Matrix::zeros(4, 4);
        for i in 0..4 {
            m.set(i, i, 2.0);
        }
        let inv = invert_spd(&m);
        for i in 0..4 {
            for j in 0..4 {
                let expect = if i == j { 0.5 } else { 0.0 };
                assert!((inv.get(i, j) - expect).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn invert_spd_random_roundtrip() {
        let mut rng = StdRng::seed_from_u64(23);
        let a = random_matrix(&mut rng, 6, 6, 1.0);
        // SPD: A Aᵀ + I.
        let mut spd = a.matmul(&a.transpose());
        for i in 0..6 {
            spd.set(i, i, spd.get(i, i) + 1.0);
        }
        let inv = invert_spd(&spd);
        let prod = spd.matmul(&inv);
        for i in 0..6 {
            for j in 0..6 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod.get(i, j) - expect).abs() < 1e-3, "({i},{j}) {}", prod.get(i, j));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one training sample")]
    fn sgd_rejects_empty_samples() {
        let (mut s, w, b, _) = setup(4, 4, 0.5);
        train_sgd(&mut s, &w, &b, &[], &TrainConfig::default());
    }
}
