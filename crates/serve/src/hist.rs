//! Log-bucketed latency histograms for tail reporting.
//!
//! Request latencies span several orders of magnitude under load, so the
//! buckets are geometric: four per octave (ratio 2^(1/4) ≈ 1.19), from 1
//! cycle up past 2^30 — a worst-case quantile error under 19%, constant
//! memory, and exact mergeability. The multipliers are hard-coded
//! constants so bucket edges never depend on the platform's `powf`.

use enmc_obs::metrics::Histogram;

/// Quarter-octave multipliers: 2^(0/4), 2^(1/4), 2^(2/4), 2^(3/4).
const QUARTER_OCTAVE: [f64; 4] = [1.0, 1.189_207_115_002_721, std::f64::consts::SQRT_2, 1.681_792_830_507_429];

/// Octaves covered by [`cycle_bounds`]; the top bucket edge is 2^30
/// cycles (~0.8 s of DRAM time), far beyond any sane request latency.
const OCTAVES: usize = 31;

/// The shared bucket-bound ladder for latency-in-cycles histograms.
pub fn cycle_bounds() -> Vec<f64> {
    let mut bounds = Vec::with_capacity(OCTAVES * QUARTER_OCTAVE.len());
    for octave in 0..OCTAVES {
        let base = (1u64 << octave) as f64;
        for m in QUARTER_OCTAVE {
            bounds.push(base * m);
        }
    }
    bounds
}

/// A latency histogram over [`cycle_bounds`] with tail-quantile helpers.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    inner: Histogram,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty latency histogram.
    pub fn new() -> Self {
        LatencyHistogram { inner: Histogram::with_bounds(&cycle_bounds()) }
    }

    /// Records one request latency in cycles.
    pub fn observe(&mut self, cycles: u64) {
        self.inner.observe(cycles as f64);
    }

    /// Total latencies recorded.
    pub fn count(&self) -> u64 {
        self.inner.count
    }

    /// Median latency (bucket upper bound), cycles.
    pub fn p50(&self) -> f64 {
        self.inner.quantile(0.50)
    }

    /// 90th-percentile latency (bucket upper bound), cycles.
    pub fn p90(&self) -> f64 {
        self.inner.quantile(0.90)
    }

    /// 99th-percentile latency (bucket upper bound), cycles.
    pub fn p99(&self) -> f64 {
        self.inner.quantile(0.99)
    }

    /// 99.9th-percentile latency (bucket upper bound), cycles.
    pub fn p999(&self) -> f64 {
        self.inner.quantile(0.999)
    }

    /// Merges another latency histogram.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        self.inner.merge(&other.inner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_strictly_ascending_geometric() {
        let b = cycle_bounds();
        assert_eq!(b.len(), OCTAVES * 4);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        // Ratio between adjacent bounds is always 2^(1/4).
        for w in b.windows(2) {
            let r = w[1] / w[0];
            assert!((r - 2f64.powf(0.25)).abs() < 1e-9, "ratio {r}");
        }
    }

    #[test]
    fn quantiles_track_the_tail() {
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.observe(1000);
        }
        h.observe(1_000_000);
        assert_eq!(h.count(), 100);
        assert!(h.p50() >= 1000.0 && h.p50() < 1400.0, "p50 {}", h.p50());
        assert!(h.p99() < 2000.0, "p99 {}", h.p99());
        assert!(h.p999() >= 1_000_000.0, "p999 {}", h.p999());
        // A quarter-octave bucket never overstates by more than ~19%.
        assert!(h.p999() <= 1_000_000.0 * 1.19, "p999 {}", h.p999());
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.observe(10);
        b.observe(20);
        b.observe(30);
        a.merge(&b);
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn empty_histogram_reports_zero_for_every_quantile() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        for q in [h.p50(), h.p90(), h.p99(), h.p999()] {
            assert_eq!(q, 0.0);
        }
    }

    #[test]
    fn single_sample_lands_in_its_bucket_at_every_quantile() {
        let mut h = LatencyHistogram::new();
        h.observe(1000);
        assert_eq!(h.count(), 1);
        // With one sample, every quantile is that sample's bucket bound:
        // at least the value, overstating by at most one quarter-octave.
        for q in [h.p50(), h.p90(), h.p99(), h.p999()] {
            assert!((1000.0..1000.0 * 1.19).contains(&q), "quantile {q}");
        }
    }

    #[test]
    fn observations_beyond_the_ladder_saturate_at_the_top_bound() {
        let mut h = LatencyHistogram::new();
        // Far past the 2^30-cycle top edge: lands in the overflow bucket.
        h.observe(u64::MAX);
        let top = *cycle_bounds().last().unwrap();
        assert_eq!(h.p50(), top);
        assert_eq!(h.p999(), top);
    }

    proptest::proptest! {
        /// Quantiles are monotone in `q` and bracketed by the observed
        /// extremes' bucket bounds, for arbitrary latency batches.
        #[test]
        fn quantiles_are_monotone_and_bracketed(
            latencies in proptest::collection::vec(1u64..1_000_000_000, 1..64),
        ) {
            let mut h = LatencyHistogram::new();
            for &c in &latencies {
                h.observe(c);
            }
            let qs = [h.p50(), h.p90(), h.p99(), h.p999()];
            for w in qs.windows(2) {
                proptest::prop_assert!(w[0] <= w[1], "quantiles not monotone: {qs:?}");
            }
            let lo = *latencies.iter().min().unwrap() as f64;
            let hi = *latencies.iter().max().unwrap() as f64;
            // Bucket upper bounds never understate, and overstate by at
            // most one quarter-octave step.
            proptest::prop_assert!(qs[0] >= lo, "p50 {} below min {lo}", qs[0]);
            proptest::prop_assert!(qs[3] <= hi * 1.19, "p999 {} above max bucket of {hi}", qs[3]);
        }
    }
}
