//! A unified metrics registry: typed counters, gauges, and histograms
//! with labels, snapshotted into a serializable [`MetricsReport`].
//!
//! Producers register samples under a metric name plus a label set
//! (`("channel", "0")`-style pairs); labels are canonicalized by sorting,
//! so `[("a","1"),("b","2")]` and `[("b","2"),("a","1")]` address the same
//! series. A [`MetricsRegistry`] is cheap to create and turns into a
//! [`MetricsReport`] — plain data with a JSON round trip — via
//! [`MetricsRegistry::snapshot`].
//!
//! # Example
//!
//! ```
//! use enmc_obs::metrics::MetricsRegistry;
//!
//! let mut reg = MetricsRegistry::new();
//! reg.counter_add("dram.reads", &[("channel", "0")], 128);
//! reg.gauge_set("dram.row_hit_rate", &[("channel", "0")], 0.93);
//! reg.observe_with("dram.request_latency_cycles", &[], &[32.0, 64.0], 37.0);
//! let report = reg.snapshot();
//! assert_eq!(report.counters.len(), 1);
//! assert_eq!(report.counters[0].value, 128);
//! ```

use crate::json;
use crate::record;
use std::collections::BTreeMap;

/// Canonical identity of one metric series: name + sorted labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name, dot-separated by convention (`dram.reads`).
    pub name: String,
    /// Label pairs, sorted by key then value.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Builds a key, canonicalizing the label order.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        labels.sort();
        MetricKey { name: name.to_string(), labels }
    }
}

/// A histogram with explicit upper bucket bounds plus an overflow bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Inclusive upper bounds, ascending; an implicit `+inf` bucket
    /// follows.
    pub bounds: Vec<f64>,
    /// Observation counts per bucket (`bounds.len() + 1` entries).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

impl Histogram {
    /// An empty histogram over `bounds`.
    ///
    /// # Panics
    ///
    /// Panics unless the bounds are finite and strictly ascending:
    /// [`Histogram::observe`] finds a value's bucket by binary search,
    /// which picks the first bound at or above the value only on such
    /// bounds.
    pub fn with_bounds(bounds: &[f64]) -> Self {
        if let Err(why) = check_bounds(bounds) {
            panic!("invalid histogram bounds: {why}");
        }
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    /// Records one observation in the first bucket whose bound is at or
    /// above it; a value above every bound, or NaN, lands in the overflow
    /// bucket.
    // `!(value <= b)` rather than `value > b`: NaN is above no bound and
    // at or below none, and must land in the overflow bucket.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn observe(&mut self, value: f64) {
        let idx = self.bounds.partition_point(|b| !(value <= *b));
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 ..= 1.0`).
    ///
    /// Returns the inclusive upper bound of the bucket containing the
    /// quantile rank — a conservative (never-understating) estimate whose
    /// error is bounded by the bucket width. Observations that landed in
    /// the overflow bucket report the last explicit bound; an empty
    /// histogram reports 0.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 || self.bounds.is_empty() {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based, in bucket order.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let idx = i.min(self.bounds.len() - 1);
                return self.bounds[idx];
            }
        }
        self.bounds[self.bounds.len() - 1]
    }

    /// Merges another histogram with identical bounds.
    ///
    /// # Panics
    ///
    /// Panics if the bucket bounds differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "histogram bounds must match to merge");
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// Why `bounds` cannot bucket a histogram: a bound that is not finite,
/// or one not above its predecessor.
fn check_bounds(bounds: &[f64]) -> Result<(), String> {
    if let Some(i) = bounds.iter().position(|b| !b.is_finite()) {
        return Err(format!("has {} at index {i}, expected finite numbers", bounds[i]));
    }
    match bounds.windows(2).position(|w| w[0] >= w[1]) {
        Some(i) => Err(format!(
            "is not strictly ascending: {} at index {} follows {}",
            bounds[i + 1],
            i + 1,
            bounds[i]
        )),
        None => Ok(()),
    }
}

record! {
    /// One counter series in a snapshot.
    #[derive(Eq)]
    CounterSample {
        /// Metric name.
        name: String,
        /// Sorted label pairs.
        labels: Vec<(String, String)>,
        /// Accumulated value.
        value: u64,
    }
}

record! {
    /// One gauge series in a snapshot.
    GaugeSample {
        /// Metric name.
        name: String,
        /// Sorted label pairs.
        labels: Vec<(String, String)>,
        /// Last set value.
        value: f64,
    }
}

record! {
    /// One histogram series in a snapshot: a [`Histogram`]'s state under
    /// its name and labels.
    HistogramSample {
        /// Metric name.
        name: String,
        /// Sorted label pairs.
        labels: Vec<(String, String)>,
        /// Inclusive upper bucket bounds, ascending.
        bounds: Vec<f64>,
        /// Observation counts per bucket (`bounds.len() + 1` entries).
        counts: Vec<u64>,
        /// Total observations.
        count: u64,
        /// Sum of observed values.
        sum: f64,
    }
    check HistogramSample::check
}

impl HistogramSample {
    /// Rejects what no [`Histogram`] can hold: bounds that are not finite
    /// and strictly ascending, bucket counts that do not match the bounds
    /// plus overflow, and a total that is not the sum of the buckets.
    fn check(&self, path: &str) -> Result<(), String> {
        let at = |key| json::key_path(path, key);
        check_bounds(&self.bounds).map_err(|why| json::field_error(&at("bounds"), why))?;
        let (n, want) = (self.counts.len(), self.bounds.len() + 1);
        if n != want {
            return Err(json::field_error(
                &at("counts"),
                format_args!("has {n} values, expected {want} (bounds plus overflow)"),
            ));
        }
        let sum = self.counts.iter().try_fold(0u64, |acc, &c| acc.checked_add(c));
        if sum != Some(self.count) {
            let sum = sum.map_or("more than u64 holds".to_string(), |s| s.to_string());
            return Err(json::field_error(
                &at("count"),
                format_args!("is {}, but the bucket counts sum to {sum}", self.count),
            ));
        }
        Ok(())
    }
}

record! {
    /// An immutable snapshot of a [`MetricsRegistry`], ordered by metric key.
    MetricsReport {
        /// Counter series.
        counters: Vec<CounterSample>,
        /// Gauge series.
        gauges: Vec<GaugeSample>,
        /// Histogram series.
        histograms: Vec<HistogramSample>,
    }
}

impl MetricsReport {
    /// The value of a gauge series, if present.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let key = MetricKey::new(name, labels);
        self.gauges
            .iter()
            .find(|g| g.name == key.name && g.labels == key.labels)
            .map(|g| g.value)
    }
}

/// The mutable registry producers write into.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, f64>,
    histograms: BTreeMap<MetricKey, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to a counter series, creating it at zero if needed.
    pub fn counter_add(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        *self.counters.entry(MetricKey::new(name, labels)).or_insert(0) += delta;
    }

    /// Current value of a counter series (0 when absent).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.counters.get(&MetricKey::new(name, labels)).copied().unwrap_or(0)
    }

    /// Sets a gauge series.
    pub fn gauge_set(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.gauges.insert(MetricKey::new(name, labels), value);
    }

    /// Records `value` into a histogram series with explicit bounds (used
    /// on first touch; later observations reuse the existing buckets).
    pub fn observe_with(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
        value: f64,
    ) {
        self.histograms
            .entry(MetricKey::new(name, labels))
            .or_insert_with(|| Histogram::with_bounds(bounds))
            .observe(value);
    }

    /// Snapshots the registry into plain ordered data.
    pub fn snapshot(&self) -> MetricsReport {
        MetricsReport {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| CounterSample {
                    name: k.name.clone(),
                    labels: k.labels.clone(),
                    value: *v,
                })
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(k, v)| GaugeSample {
                    name: k.name.clone(),
                    labels: k.labels.clone(),
                    value: *v,
                })
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| HistogramSample {
                    name: k.name.clone(),
                    labels: k.labels.clone(),
                    bounds: h.bounds.clone(),
                    counts: h.counts.clone(),
                    count: h.count,
                    sum: h.sum,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_reports_bucket_upper_bounds() {
        let mut h = Histogram::with_bounds(&[1.0, 2.0, 4.0, 8.0]);
        assert_eq!(h.quantile(0.99), 0.0); // empty
        for v in [0.5, 1.5, 1.5, 3.0] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.0), 1.0); // first occupied bucket
        assert_eq!(h.quantile(0.25), 1.0);
        assert_eq!(h.quantile(0.5), 2.0);
        assert_eq!(h.quantile(0.75), 2.0);
        assert_eq!(h.quantile(1.0), 4.0);
        // Overflow observations clamp to the last explicit bound.
        h.observe(100.0);
        assert_eq!(h.quantile(1.0), 8.0);
    }

    #[test]
    fn label_order_is_canonicalized() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("x", &[("a", "1"), ("b", "2")], 3);
        reg.counter_add("x", &[("b", "2"), ("a", "1")], 4);
        assert_eq!(reg.counter_value("x", &[("a", "1"), ("b", "2")]), 7);
        assert_eq!(reg.snapshot().counters.len(), 1);
    }

    #[test]
    fn distinct_labels_are_distinct_series() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("reads", &[("channel", "0")], 1);
        reg.counter_add("reads", &[("channel", "1")], 1);
        reg.counter_add("reads", &[], 1);
        assert_eq!(reg.snapshot().counters.len(), 3);
        assert_eq!(reg.counter_value("reads", &[("channel", "0")]), 1);
        assert_eq!(reg.counter_value("reads", &[("channel", "7")]), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let mut reg = MetricsRegistry::new();
        reg.gauge_set("util", &[], 0.2);
        reg.gauge_set("util", &[], 0.9);
        assert_eq!(reg.snapshot().gauge("util", &[]), Some(0.9));
    }

    #[test]
    fn histogram_buckets_count_and_sum() {
        let mut h = Histogram::with_bounds(&[1.0, 10.0, 100.0]);
        for v in [0.5, 5.0, 50.0, 500.0] {
            h.observe(v);
        }
        assert_eq!(h.counts, vec![1, 1, 1, 1]);
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 555.5);
    }

    #[test]
    fn observe_picks_the_bucket_the_linear_scan_picks() {
        let bounds = [-2.5, 0.0, 1.0, 1.5, 8.0, 1e9];
        let scan = |v: f64| bounds.iter().position(|b| v <= *b).unwrap_or(bounds.len());
        let probes = [
            -1e300, -2.5, -2.4, -0.0, 0.0, 1e-300, 0.5, 1.0, 1.25, 1.5, 7.999, 8.0, 8.001, 1e9,
            1e9 + 1.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN,
        ];
        for v in probes {
            let mut h = Histogram::with_bounds(&bounds);
            h.observe(v);
            let mut want = vec![0; bounds.len() + 1];
            want[scan(v)] = 1;
            assert_eq!(h.counts, want, "value {v}");
        }
        // A long ladder, probed on and on either side of every bound.
        let ladder: Vec<f64> = (0..40).map(|i| (1u64 << i) as f64).collect();
        let mut h = Histogram::with_bounds(&ladder);
        for b in h.bounds.clone() {
            for v in [b - 0.25, b, b + 0.25] {
                let before = h.counts.clone();
                h.observe(v);
                let got = h.counts.iter().zip(&before).position(|(a, b)| a != b);
                let want = h.bounds.iter().position(|x| v <= *x).unwrap_or(h.bounds.len());
                assert_eq!(got, Some(want), "value {v}");
            }
        }
    }

    #[test]
    fn bounds_must_be_finite_and_strictly_ascending() {
        assert_eq!(check_bounds(&[]), Ok(()));
        assert_eq!(check_bounds(&[1.0, 2.0]), Ok(()));
        for (bounds, why) in [
            (vec![1.0, 1.0], "is not strictly ascending: 1 at index 1 follows 1"),
            (vec![1.0, 4.0, 2.0], "is not strictly ascending: 2 at index 2 follows 4"),
            (vec![1.0, f64::NAN], "has NaN at index 1, expected finite numbers"),
            (vec![f64::INFINITY], "has inf at index 0, expected finite numbers"),
        ] {
            assert_eq!(check_bounds(&bounds), Err(why.to_string()));
            let built = std::panic::catch_unwind(|| Histogram::with_bounds(&bounds));
            assert!(built.is_err(), "{bounds:?} built a histogram");
        }
    }

    #[test]
    fn report_json_round_trip() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("dram.reads", &[("channel", "0")], 42);
        reg.gauge_set("bus_util", &[], 0.75);
        reg.observe_with("latency", &[], &[8.0, 64.0], 17.0);
        let report = reg.snapshot();
        let back: MetricsReport = json::decode(&json::encode(&report)).unwrap();
        assert_eq!(back, report);
    }
}
