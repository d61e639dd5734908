//! Random distributions for workload synthesis.
//!
//! The allowed dependency set includes `rand` but not `rand_distr`, so the
//! two distributions workload generation needs — Gaussian (hidden vectors,
//! classifier weights) and Zipf (category popularity, which shapes the
//! logit bias `b` and query targets) — are implemented here.

use rand::Rng;

/// Standard normal sample via the Box–Muller transform.
///
/// Uses both uniform draws but returns a single variate to keep the API
/// stateless.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    // Avoid u1 == 0 so ln is finite.
    let u1: f64 = loop {
        let u: f64 = rng.random();
        if u > 1e-12 {
            break u;
        }
    };
    let u2: f64 = rng.random();
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

/// Zipf-distributed integer sampler over `{0, 1, …, n-1}` with exponent `s`.
///
/// Rank 0 is the most popular category. Sampling uses an inverse-CDF table
/// built once at construction (O(n) memory, O(log n) per sample), which is
/// fine for the validation-set sizes used in workload generation.
///
/// # Example
///
/// ```
/// use enmc_tensor::dist::Zipf;
/// use rand::{rngs::StdRng, SeedableRng};
/// let zipf = Zipf::new(1000, 1.0).unwrap();
/// let mut rng = StdRng::seed_from_u64(0);
/// let x = zipf.sample(&mut rng);
/// assert!(x < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a sampler over `n` ranks with exponent `s >= 0`.
    ///
    /// # Errors
    ///
    /// Returns an error message if `n == 0` or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Result<Self, &'static str> {
        if n == 0 {
            return Err("Zipf needs at least one rank");
        }
        if !s.is_finite() || s < 0.0 {
            return Err("Zipf exponent must be finite and non-negative");
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0_f64;
        for rank in 1..=n {
            acc += (rank as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Ok(Zipf { cdf })
    }

    /// Probability mass of `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= n`.
    pub fn pmf(&self, rank: usize) -> f64 {
        assert!(rank < self.cdf.len(), "rank out of range");
        if rank == 0 {
            self.cdf[0]
        } else {
            self.cdf[rank] - self.cdf[rank - 1]
        }
    }

    /// Draws one rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        match self.cdf.binary_search_by(|probe| probe.partial_cmp(&u).expect("finite cdf")) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_mean_and_std() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| 2.0 + 3.0 * standard_normal(&mut rng)).collect();
        let mean: f64 = samples.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
        let var: f64 =
            samples.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 3.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn zipf_validates_input() {
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(10, -1.0).is_err());
        assert!(Zipf::new(10, f64::NAN).is_err());
        assert!(Zipf::new(10, 0.0).is_ok());
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(100, 1.2).unwrap();
        let total: f64 = (0..100).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_rank_zero_most_popular() {
        let z = Zipf::new(50, 1.0).unwrap();
        assert!(z.pmf(0) > z.pmf(1));
        assert!(z.pmf(1) > z.pmf(10));
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(10, 0.0).unwrap();
        for r in 0..10 {
            assert!((z.pmf(r) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_empirical_matches_pmf() {
        let z = Zipf::new(20, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let n = 50_000;
        let mut counts = [0usize; 20];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for r in 0..20 {
            let emp = counts[r] as f64 / n as f64;
            assert!((emp - z.pmf(r)).abs() < 0.01, "rank {r}: {emp} vs {}", z.pmf(r));
        }
    }

    #[test]
    fn zipf_samples_in_range() {
        let z = Zipf::new(5, 2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 5);
        }
    }
}
