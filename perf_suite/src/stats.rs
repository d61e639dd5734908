//! Order statistics over host-time samples.

/// `num / den`, or 0 when `den` is not positive (a layer that never ran).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median (midpoint average for even counts); `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| enmc_perf::bench::median(samples))
}

/// First and third quartiles by the "exclusive" method Python's
/// `statistics.quantiles(values, n=4)` uses, so the spreads this binary
/// prints match the ones Python computes over its outputs. `None`
/// for fewer than two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The `pct`-th percentile (nearest rank), reported only when at least
/// ten samples lie beyond it: p50 needs 20 samples, p90 100, p99 1,000.
/// A tail percentile over fewer samples is one or two outliers, not a
/// distribution.
pub fn percentile(samples: &[f64], pct: u32) -> Option<f64> {
    assert!(
        (1..100).contains(&pct),
        "percentile must be in 1..100, got {pct}"
    );
    let n = samples.len();
    if n * (100 - pct as usize) < 1000 {
        return None;
    }
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let rank = (n * pct as usize).div_ceil(100);
    Some(data[rank.max(1) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(percentile(&ramp(999), 99), None);
        assert_eq!(percentile(&ramp(1000), 99), Some(990.0));
        assert_eq!(percentile(&ramp(99), 90), None);
        assert_eq!(percentile(&ramp(100), 90), Some(90.0));
        assert_eq!(percentile(&ramp(19), 50), None);
        assert_eq!(percentile(&ramp(20), 50), Some(10.0));
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.median / statistics.quantiles(n=4) on the same data.
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(quartiles(&[1.0]), None);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some((1.0, 5.0)));
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
    }
}
