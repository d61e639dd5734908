//! Memory footprint scaling (paper Fig. 5a).
//!
//! The classifier's memory usage grows linearly with the category count and
//! hidden dimension; at industrial scale it exceeds accelerator and even
//! host memory (190 GB at 100M × 512). This module provides the points for
//! the Fig. 5(a) sweep and the screening-module footprint used to verify
//! the paper's "<0.1 % projection overhead / ~3 % screening weights" claims.

use enmc_tensor::quant::Precision;

/// Memory footprint of one classification configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footprint {
    /// Category count `l`.
    pub categories: usize,
    /// Hidden dimension `d`.
    pub hidden: usize,
    /// Full classifier bytes (FP32 weights + bias).
    pub classifier_bytes: u64,
    /// Screening-module bytes (quantized `W̃` + bias + 2-bit `P`).
    pub screener_bytes: u64,
}

impl Footprint {
    /// Computes the footprint for a classifier with a screening module of
    /// reduction `scale` (`k = scale·d`) at `precision`.
    pub fn compute(categories: usize, hidden: usize, scale: f64, precision: Precision) -> Self {
        let k = reduced_dim(hidden, scale);
        let classifier_bytes = categories as u64 * hidden as u64 * 4 + categories as u64 * 4;
        let wt_bytes = precision.nbytes(categories * k) as u64;
        let bias_bytes = categories as u64 * 4;
        let proj_bytes = ((k * hidden).div_ceil(4)) as u64; // 2-bit dense P
        Footprint {
            categories,
            hidden,
            classifier_bytes,
            screener_bytes: wt_bytes + bias_bytes + proj_bytes,
        }
    }
}

/// Reduced dimension `k = round(scale · d)`, minimum 1.
pub fn reduced_dim(hidden: usize, scale: f64) -> usize {
    ((hidden as f64 * scale).round() as usize).max(1)
}

/// The Fig. 5(a) category sweep at `d = 512`: 10K → 100M.
pub fn figure5a_sweep() -> Vec<Footprint> {
    [10_000, 100_000, 1_000_000, 10_000_000, 100_000_000]
        .iter()
        .map(|&l| Footprint::compute(l, 512, 0.25, Precision::Int4))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_linear_in_categories() {
        let a = Footprint::compute(1000, 512, 0.25, Precision::Int4);
        let b = Footprint::compute(2000, 512, 0.25, Precision::Int4);
        // Bias contributes linearly too, so exactly 2x.
        assert_eq!(b.classifier_bytes, a.classifier_bytes * 2);
    }

    #[test]
    fn s100m_footprint_about_190_gb() {
        let f = Footprint::compute(100_000_000, 512, 0.25, Precision::Int4);
        let gb = f.classifier_bytes as f64 / (1u64 << 30) as f64;
        assert!((180.0..200.0).contains(&gb), "{gb} GB");
    }

    #[test]
    fn screener_overhead_near_three_percent() {
        // scale 0.25 at INT4 = 1/4 dims × 1/8 bytes ≈ 3.1% of the classifier
        // (paper §7.1 sets screening overhead to 3.1% of full classification).
        let f = Footprint::compute(267_744, 512, 0.25, Precision::Int4);
        let frac = f.screener_bytes as f64 / f.classifier_bytes as f64;
        assert!((0.028..0.045).contains(&frac), "screener fraction {frac}");
    }

    #[test]
    fn reduced_dim_rounds_and_clamps() {
        assert_eq!(reduced_dim(512, 0.25), 128);
        assert_eq!(reduced_dim(1500, 0.25), 375);
        assert_eq!(reduced_dim(4, 0.01), 1);
    }

    #[test]
    fn sweep_is_monotone() {
        let sweep = figure5a_sweep();
        assert_eq!(sweep.len(), 5);
        for pair in sweep.windows(2) {
            assert!(pair[1].classifier_bytes > pair[0].classifier_bytes);
        }
    }
}
