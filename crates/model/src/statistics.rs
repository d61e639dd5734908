//! Workload realism statistics.
//!
//! The substitution argument in DESIGN.md §1 rests on the synthetic
//! workloads having the *statistical properties* approximate screening
//! exploits on real classifiers. This module measures those properties —
//! logit concentration, effective rank, popularity skew — so the claim is
//! checked by tests rather than asserted in prose.

use crate::synth::SyntheticClassifier;
use enmc_tensor::activation::softmax;
use enmc_tensor::select::top_k_indices;

/// Distributional statistics of a synthetic workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadStats {
    /// Mean probability mass captured by the top-10 categories per query
    /// (concentration — high for trained models on in-distribution data).
    pub top10_mass: f64,
    /// Mean softmax entropy in nats (low = concentrated).
    pub entropy: f64,
    /// Fraction of total row-space energy captured by the top `r`
    /// principal directions (effective-rank proxy), where `r` is the
    /// cluster count used at generation.
    pub spectral_mass: f64,
    /// Fraction of query targets falling in the most popular 10 % of
    /// categories (popularity skew).
    pub head_mass: f64,
}

/// Measures `synth` over `queries` sampled queries.
///
/// The spectral mass is estimated by projecting rows onto the span of the
/// per-cluster mean rows (cheap, avoids a full SVD) — an underestimate of
/// the true top-`r` spectral mass, hence a conservative bound.
pub fn measure(synth: &SyntheticClassifier, queries: usize, seed: u64) -> WorkloadStats {
    let qs = synth.sample_queries_seeded(queries.max(1), seed);
    let mut top10 = 0.0;
    let mut entropy = 0.0;
    let mut head = 0usize;
    let head_cut = synth.categories() / 10;
    for q in &qs {
        let z = synth.full_logits(&q.hidden);
        let p = softmax(z.as_slice());
        top10 += top_k_indices(&p, 10).iter().map(|&i| p[i] as f64).sum::<f64>();
        entropy += -p
            .iter()
            .filter(|&&x| x > 0.0)
            .map(|&x| (x as f64) * (x as f64).ln())
            .sum::<f64>();
        if q.target < head_cut {
            head += 1;
        }
    }
    let n = qs.len() as f64;

    // Spectral-mass proxy: energy of rows explained by the K-means-style
    // span of `clusters` random anchor rows' directions.
    let w = synth.weights();
    let clusters = synth.config().clusters.min(w.rows());
    let anchors: Vec<usize> =
        (0..clusters).map(|c| c * w.rows() / clusters).collect();
    let mut explained = 0.0_f64;
    let mut total = 0.0_f64;
    for r in 0..w.rows() {
        let row = w.row(r);
        let norm2: f64 = row.iter().map(|&x| (x as f64).powi(2)).sum();
        total += norm2;
        // Best single-anchor projection (lower bound on span projection).
        let mut best = 0.0_f64;
        for &a in &anchors {
            let anchor = w.row(a);
            let a_norm2: f64 = anchor.iter().map(|&x| (x as f64).powi(2)).sum();
            if a_norm2 == 0.0 {
                continue;
            }
            let dot: f64 =
                row.iter().zip(anchor).map(|(&x, &y)| x as f64 * y as f64).sum();
            best = best.max(dot * dot / a_norm2);
        }
        explained += best.min(norm2);
    }
    WorkloadStats {
        top10_mass: top10 / n,
        entropy: entropy / n,
        spectral_mass: if total > 0.0 { explained / total } else { 0.0 },
        head_mass: head as f64 / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SynthesisConfig;

    fn synth(query_signal: f32, zipf: f64) -> SyntheticClassifier {
        SyntheticClassifier::generate(&SynthesisConfig {
            categories: 1500,
            hidden: 64,
            clusters: 24,
            row_noise: 0.4,
            zipf_exponent: zipf,
            bias_scale: 1.0,
            query_signal,
            seed: 31,
        })
        .expect("valid synth")
    }

    #[test]
    fn queries_are_concentrated() {
        // In-distribution queries of a trained classifier put most softmax
        // mass on a few categories (the paper's §3.1 approximation
        // opportunity).
        let s = measure(&synth(2.2, 1.0), 60, 9);
        // A uniform distribution would put 10/1500 = 0.67% in the top-10;
        // the synthetic queries concentrate several times that, and the
        // entropy sits clearly below the uniform maximum ln(1500) = 7.31.
        let uniform_top10 = 10.0 / 1500.0;
        assert!(s.top10_mass > 5.0 * uniform_top10, "top-10 mass {}", s.top10_mass);
        assert!(s.entropy < (1500.0_f64).ln() * 0.97, "entropy {}", s.entropy);
    }

    #[test]
    fn stronger_signal_concentrates_more() {
        let weak = measure(&synth(1.0, 1.0), 60, 9);
        let strong = measure(&synth(3.0, 1.0), 60, 9);
        assert!(strong.top10_mass > weak.top10_mass);
        assert!(strong.entropy < weak.entropy);
    }

    #[test]
    fn rows_have_low_effective_rank() {
        let s = measure(&synth(2.2, 1.0), 10, 9);
        // Cluster structure: a large share of row energy lies along the
        // anchor directions even with the conservative single-anchor bound.
        assert!(s.spectral_mass > 0.4, "spectral mass {}", s.spectral_mass);
    }

    #[test]
    fn zipf_skews_targets_to_the_head() {
        let flat = measure(&synth(2.2, 0.0), 400, 9);
        let skewed = measure(&synth(2.2, 1.2), 400, 9);
        assert!(skewed.head_mass > flat.head_mass + 0.1,
            "skewed {} vs flat {}", skewed.head_mass, flat.head_mass);
        // Uniform targets put ~10% in the head decile.
        assert!((flat.head_mass - 0.1).abs() < 0.06, "flat head {}", flat.head_mass);
    }
}
