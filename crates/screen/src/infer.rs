//! End-to-end approximate classification (paper §4.2, Fig. 6).
//!
//! [`ApproxClassifier`] owns the full classifier and a trained
//! [`Screener`]; each query runs screen → filter → candidates-only exact
//! computation → mix, and reports both the mixed logits and the cost
//! accounting used for speedup figures.

use crate::cost::ClassificationCost;
use crate::screener::Screener;
use enmc_tensor::select::{threshold_filter, top_k_indices};
use enmc_tensor::{Matrix, TensorError, Vector};

/// How candidates are selected from the approximate logits (paper §4.2:
/// "top-m searching or thresholding, where the threshold value can be tuned
/// on validation sets").
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum SelectionPolicy {
    /// Select exactly the `m` highest approximate logits.
    TopM(usize),
    /// Select every approximate logit above the threshold (the hardware
    /// FILTER instruction path).
    Threshold(f32),
}

impl SelectionPolicy {
    /// Applies the policy to approximate logits.
    pub fn select(&self, approx: &[f32]) -> Vec<usize> {
        match *self {
            SelectionPolicy::TopM(m) => top_k_indices(approx, m),
            SelectionPolicy::Threshold(t) => {
                threshold_filter(approx, t).into_iter().map(|c| c.index).collect()
            }
        }
    }
}

/// Output of one approximate classification.
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxOutput {
    /// Mixed logits: exact for candidates, approximate elsewhere.
    pub logits: Vector,
    /// The candidate indices that received exact computation.
    pub candidates: Vec<usize>,
    /// Cost of this query (screening + candidates-only).
    pub cost: ClassificationCost,
}

/// A full classifier paired with its trained screening module.
#[derive(Debug, Clone)]
pub struct ApproxClassifier {
    weights: Matrix,
    bias: Vector,
    screener: Screener,
    policy: SelectionPolicy,
}

impl ApproxClassifier {
    /// Bundles a trained screener with its classifier.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the screener was built for
    /// different `(l, d)`.
    pub fn new(
        weights: Matrix,
        bias: Vector,
        screener: Screener,
        policy: SelectionPolicy,
    ) -> Result<Self, TensorError> {
        if screener.categories() != weights.rows() || screener.hidden_dim() != weights.cols() {
            return Err(TensorError::ShapeMismatch {
                op: "ApproxClassifier::new",
                expected: (weights.rows(), weights.cols()),
                found: (screener.categories(), screener.hidden_dim()),
            });
        }
        if bias.len() != weights.rows() {
            return Err(TensorError::ShapeMismatch {
                op: "ApproxClassifier::new",
                expected: (weights.rows(), 1),
                found: (bias.len(), 1),
            });
        }
        Ok(ApproxClassifier { weights, bias, screener, policy })
    }

    /// The candidate selection policy.
    pub fn policy(&self) -> SelectionPolicy {
        self.policy
    }

    /// Replaces the selection policy (e.g. after threshold calibration).
    pub fn set_policy(&mut self, policy: SelectionPolicy) {
        self.policy = policy;
    }

    /// The full classifier weights.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// The full classifier bias.
    pub fn bias(&self) -> &Vector {
        &self.bias
    }

    /// The screening module.
    pub fn screener(&self) -> &Screener {
        &self.screener
    }

    /// Number of categories.
    pub fn categories(&self) -> usize {
        self.weights.rows()
    }

    /// Exact full classification (the reference and the CPU baseline).
    pub fn full_logits(&self, h: &Vector) -> Vector {
        self.weights.matvec_bias(h, &self.bias)
    }

    /// Cost of one full classification at batch size 1.
    pub fn full_cost(&self) -> ClassificationCost {
        ClassificationCost::full(self.weights.rows(), self.weights.cols(), 1)
    }

    /// Runs the approximate pipeline for a batch of queries.
    ///
    /// Screening weights are streamed once for the whole batch (the
    /// hardware's weight-reuse path), so the per-query cost of the
    /// screening phase is amortized: the returned outputs carry the
    /// amortized accounting.
    ///
    /// # Panics
    ///
    /// Panics if any query's length differs from the hidden dimension or
    /// the batch is empty.
    pub fn classify_batch(&mut self, batch: &[Vector]) -> Vec<ApproxOutput> {
        self.freeze();
        self.classify_batch_ref(batch)
    }

    /// [`ApproxClassifier::classify_batch`] through a shared reference;
    /// requires [`ApproxClassifier::freeze`] first. Bit-identical to the
    /// `&mut self` path, and safe to call from several threads at once on
    /// disjoint batch shards.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty, any query's length differs from the
    /// hidden dimension, or the classifier is not frozen.
    pub fn classify_batch_ref(&self, batch: &[Vector]) -> Vec<ApproxOutput> {
        assert!(!batch.is_empty(), "batch must be non-empty");
        let n = batch.len() as u64;
        let mut outs: Vec<ApproxOutput> =
            batch.iter().map(|h| self.classify_ref(h)).collect();
        // Amortize the weight-stream bytes and integer MACs' storage
        // traffic: the stream is read once per batch, not once per query.
        let stream_bytes = self.screener.weight_bytes();
        for out in &mut outs {
            out.cost.bytes_read =
                out.cost.bytes_read - stream_bytes + stream_bytes.div_ceil(n);
        }
        outs
    }

    /// Quantizes the screener weights for deployment so the classifier can
    /// serve queries through a shared reference
    /// ([`ApproxClassifier::classify_ref`]). Idempotent; called implicitly
    /// by the `&mut self` classification entry points.
    pub fn freeze(&mut self) {
        self.screener.freeze().expect("freeze cannot fail on trained weights");
    }

    /// Runs the approximate pipeline for one query.
    ///
    /// # Panics
    ///
    /// Panics if `h.len()` differs from the hidden dimension.
    pub fn classify(&mut self, h: &Vector) -> ApproxOutput {
        self.freeze();
        self.classify_ref(h)
    }

    /// [`ApproxClassifier::classify`] through a shared reference; requires
    /// [`ApproxClassifier::freeze`] first.
    ///
    /// # Panics
    ///
    /// Panics if `h.len()` differs from the hidden dimension or the
    /// classifier is not frozen.
    pub fn classify_ref(&self, h: &Vector) -> ApproxOutput {
        self.classify_ref_with(h, self.policy)
    }

    /// [`ApproxClassifier::classify_ref`] under an explicit selection
    /// policy, ignoring the configured one. This is the serving degrade
    /// path: one frozen classifier shared across threads can answer
    /// queries at different `(K, screening-level)` tiers concurrently,
    /// with no `&mut self` policy swap racing between them.
    ///
    /// # Panics
    ///
    /// Panics if `h.len()` differs from the hidden dimension or the
    /// classifier is not frozen.
    pub fn classify_ref_with(&self, h: &Vector, policy: SelectionPolicy) -> ApproxOutput {
        let l = self.weights.rows();
        let d = self.weights.cols();
        let k = self.screener.reduced_dim();

        // (1) screening at the configured precision.
        let approx = self.screener.screen_ref(h);

        // (2)–(4) candidate selection, candidates-only exact computation,
        // mix.
        let (logits, candidates) =
            Self::mix_candidates(approx, &self.weights, &self.bias, h, policy);

        let m = candidates.len();
        let cost = ClassificationCost {
            // Projection (k·d MACs at FP32 on CPU; the sparse P has ~d·k/3
            // nonzeros but we charge the dense cost conservatively), plus
            // candidate rows at FP32.
            fp32_macs: (k * d + m * d) as u64,
            int_macs: (l * k) as u64,
            bytes_read: self.screener.weight_bytes() + (m * d * 4) as u64 + (d * 4) as u64,
            bytes_written: (l * 4) as u64,
        };
        ApproxOutput { logits, candidates, cost }
    }

    /// Steps (2)–(4) of [`ApproxClassifier::classify_ref_with`] on a screen
    /// computed elsewhere: select candidates from `screen` under `policy`,
    /// compute their rows of `weights` and `bias` exactly, and write those
    /// logits into `screen`. Returns the mixed logits and the candidates.
    ///
    /// The resilience sweep runs it on clean and on fault-injected screens
    /// and weights, so both its paths are this pipeline step for step.
    ///
    /// # Panics
    ///
    /// Panics if `h.len()` differs from `weights.cols()` or a selected
    /// candidate is out of range for `weights` or `bias`.
    pub fn mix_candidates(
        screen: Vector,
        weights: &Matrix,
        bias: &Vector,
        h: &Vector,
        policy: SelectionPolicy,
    ) -> (Vector, Vec<usize>) {
        let candidates = policy.select(screen.as_slice());
        let exact = weights.matvec_rows(&candidates, h, bias);
        let mut logits = screen;
        for (idx, val) in exact {
            logits[idx] = val;
        }
        (logits, candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::screener::ScreenerConfig;
    use crate::train::fit_least_squares;
    use enmc_tensor::dist::standard_normal;
    use enmc_tensor::quant::Precision;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Builds a *low-rank* classifier (rank 8 factors + small noise) — the
    /// structure real extreme classifiers have and screening exploits.
    fn build(l: usize, d: usize, policy: SelectionPolicy) -> (ApproxClassifier, Vec<Vector>) {
        let mut rng = StdRng::seed_from_u64(31);
        let rank = 8;
        let mut u = Matrix::zeros(l, rank);
        let mut v = Matrix::zeros(rank, d);
        for x in u.as_mut_slice() {
            *x = standard_normal(&mut rng);
        }
        for x in v.as_mut_slice() {
            *x = standard_normal(&mut rng) / (d as f32).sqrt();
        }
        let mut w = u.matmul(&v);
        for x in w.as_mut_slice() {
            *x += standard_normal(&mut rng) * 0.02 / (d as f32).sqrt();
        }
        let b = Vector::zeros(l);
        // Queries concentrate near classifier rows (in-distribution data):
        // h = 2·ŵ_t + noise, like a trained front-end would produce.
        let samples: Vec<Vector> = (0..64)
            .map(|_| {
                let t = rng.random_range(0..l);
                let row = w.row(t);
                let norm: f32 = row.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-9);
                row.iter()
                    .map(|&x| 2.0 * x / norm + standard_normal(&mut rng) / (d as f32).sqrt())
                    .collect()
            })
            .collect();
        let cfg = ScreenerConfig { scale: 0.5, precision: Precision::Fp32, per_row_scales: false, seed: 2 };
        let mut s = Screener::new(l, d, &cfg).unwrap();
        fit_least_squares(&mut s, &w, &b, &samples, 1e-3);
        let clf = ApproxClassifier::new(w, b, s, policy).unwrap();
        (clf, samples)
    }

    #[test]
    fn new_rejects_shape_mismatch() {
        let cfg = ScreenerConfig::default();
        let s = Screener::new(10, 8, &cfg).unwrap();
        let err =
            ApproxClassifier::new(Matrix::zeros(12, 8), Vector::zeros(12), s, SelectionPolicy::TopM(1));
        assert!(err.is_err());
    }

    #[test]
    fn candidates_get_exact_logits() {
        let (mut clf, samples) = build(64, 16, SelectionPolicy::TopM(8));
        let h = &samples[0];
        let full = clf.full_logits(h);
        let out = clf.classify(h);
        assert_eq!(out.candidates.len(), 8);
        for &c in &out.candidates {
            assert!(
                (out.logits[c] - full[c]).abs() < 1e-5,
                "candidate {c}: {} vs {}",
                out.logits[c],
                full[c]
            );
        }
    }

    #[test]
    fn top1_agrees_with_full_when_screener_good() {
        // k = 16 comfortably covers the rank-8 classifier structure.
        let (mut clf, samples) = build(64, 32, SelectionPolicy::TopM(8));
        let mut agree = 0;
        for h in &samples {
            let full = clf.full_logits(h);
            let out = clf.classify(h);
            let t_full = top_k_indices(full.as_slice(), 1)[0];
            let t_out = top_k_indices(out.logits.as_slice(), 1)[0];
            if t_full == t_out {
                agree += 1;
            }
        }
        let rate = agree as f64 / samples.len() as f64;
        assert!(rate > 0.85, "top-1 agreement {rate}");
    }

    #[test]
    fn classify_ref_with_overrides_policy_without_mutation() {
        let (mut clf, samples) = build(64, 16, SelectionPolicy::TopM(8));
        clf.freeze();
        let h = &samples[0];
        // An explicit policy matching the configured one is bit-identical
        // to the default path.
        let via_default = clf.classify_ref(h);
        let via_explicit = clf.classify_ref_with(h, SelectionPolicy::TopM(8));
        assert_eq!(via_default.candidates, via_explicit.candidates);
        assert_eq!(via_default.logits.as_slice(), via_explicit.logits.as_slice());
        // A degraded tier narrows the candidate set; the configured
        // policy is untouched.
        let degraded = clf.classify_ref_with(h, SelectionPolicy::TopM(2));
        assert_eq!(degraded.candidates.len(), 2);
        assert_eq!(clf.policy(), SelectionPolicy::TopM(8));
        assert!(degraded.cost.bytes_read < via_default.cost.bytes_read);
    }

    #[test]
    fn threshold_policy_uses_filter() {
        let (mut clf, samples) = build(64, 16, SelectionPolicy::Threshold(f32::INFINITY));
        let out = clf.classify(&samples[0]);
        assert!(out.candidates.is_empty());
        clf.set_policy(SelectionPolicy::Threshold(f32::NEG_INFINITY));
        let out = clf.classify(&samples[0]);
        assert_eq!(out.candidates.len(), 64);
    }

    #[test]
    fn cost_is_far_below_full() {
        // Paper-like configuration: scale 0.25 + INT4 screening weights.
        let mut rng = StdRng::seed_from_u64(77);
        let (l, d) = (2048, 128);
        let mut w = Matrix::zeros(l, d);
        for v in w.as_mut_slice() {
            *v = standard_normal(&mut rng) / (d as f32).sqrt();
        }
        let cfg = ScreenerConfig { scale: 0.25, precision: Precision::Int4, per_row_scales: false, seed: 5 };
        let s = Screener::new(l, d, &cfg).unwrap();
        let mut clf =
            ApproxClassifier::new(w, Vector::zeros(l), s, SelectionPolicy::TopM(16)).unwrap();
        let h = Vector::from(vec![0.1; d]);
        let out = clf.classify(&h);
        let full = clf.full_cost();
        assert!(out.cost.total_bytes() * 8 < full.total_bytes(), "{out:?}");
        assert!(out.cost.fp32_macs * 8 < full.fp32_macs);
    }

    #[test]
    fn batch_amortizes_the_weight_stream() {
        let (mut clf, samples) = build(64, 32, SelectionPolicy::TopM(8));
        let single = clf.classify(&samples[0]).cost;
        let batch = clf.classify_batch(&samples[..4]);
        assert_eq!(batch.len(), 4);
        // Per-query bytes must drop when the stream is shared.
        assert!(batch[0].cost.bytes_read < single.bytes_read);
        // And the results themselves are identical to one-at-a-time runs.
        let again = clf.classify(&samples[0]);
        assert_eq!(batch[0].logits, again.logits);
        assert_eq!(batch[0].candidates, again.candidates);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_batch_rejected() {
        let (mut clf, _) = build(64, 32, SelectionPolicy::TopM(8));
        clf.classify_batch(&[]);
    }

    #[test]
    fn classify_ref_matches_classify() {
        let (mut clf, samples) = build(64, 32, SelectionPolicy::TopM(8));
        let expected: Vec<ApproxOutput> = samples.iter().map(|h| clf.classify(h)).collect();
        clf.freeze();
        let shared = &clf;
        let got: Vec<ApproxOutput> = samples.iter().map(|h| shared.classify_ref(h)).collect();
        assert_eq!(got, expected);
    }

    #[test]
    #[should_panic(expected = "frozen")]
    fn classify_ref_requires_freeze() {
        let cfg = ScreenerConfig { precision: Precision::Int4, ..Default::default() };
        let s = Screener::new(16, 8, &cfg).unwrap();
        let clf = ApproxClassifier::new(
            Matrix::zeros(16, 8),
            Vector::zeros(16),
            s,
            SelectionPolicy::TopM(2),
        )
        .unwrap();
        clf.classify_ref(&Vector::zeros(8));
    }

    #[test]
    fn policy_select_topm_and_threshold() {
        let scores = [1.0, 5.0, 3.0];
        assert_eq!(SelectionPolicy::TopM(2).select(&scores), vec![1, 2]);
        assert_eq!(SelectionPolicy::Threshold(2.0).select(&scores), vec![1, 2]);
    }
}
