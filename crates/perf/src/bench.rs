//! Bench-trajectory records and the regression differ.
//!
//! Bench binaries emit one stable `BENCH_<name>.json` per run: a
//! [`BenchRecord`] holding *deterministic* metrics (simulated cycles,
//! energy, quality — bit-identical across hosts and thread counts) and
//! *wall* metrics (median-of-N host timings, noisy by nature). [`diff`]
//! compares two records with the matching policies: deterministic
//! metrics are gated at **zero tolerance** — any drift, in either
//! direction, fails so the trajectory is always acknowledged — while
//! wall metrics only fail when the new median regresses past a noise
//! threshold.

use enmc_obs::record;
use std::collections::BTreeMap;

/// Version stamp of the `BENCH_<name>.json` format.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// Which comparison policy a metric uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Bit-stable simulation output; compared at zero tolerance.
    Deterministic,
    /// Host wall time; compared against a noise tolerance.
    Wall,
}

record! {
    /// A recorded wall-time metric.
    #[derive(Copy)]
    WallStat {
        /// Median of the recorded samples, nanoseconds.
        median_ns: f64,
        /// How many samples the median was taken over.
        samples: u64,
    }
}

record! {
    /// One bench run's stable record.
    BenchRecord {
        /// Bench name (the `<name>` in `BENCH_<name>.json`).
        name: String,
        /// Format version ([`BENCH_SCHEMA_VERSION`]).
        schema: u32,
        /// Deterministic metrics by name ([`BenchRecord::metric`] keeps
        /// them sorted).
        deterministic: Vec<(String, f64)>,
        /// Wall metrics by name, kept sorted the same way.
        wall: Vec<(String, WallStat)>,
    }
}

/// Median of `samples` (midpoint average for even counts).
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

impl BenchRecord {
    /// An empty record named `name`.
    pub fn new(name: &str) -> BenchRecord {
        BenchRecord {
            name: name.to_string(),
            schema: BENCH_SCHEMA_VERSION,
            deterministic: Vec::new(),
            wall: Vec::new(),
        }
    }

    /// Records (or overwrites) a deterministic metric.
    pub fn metric(&mut self, name: &str, value: f64) {
        // `+ 0.0` stores a negative zero as `0`, which is how records have
        // always written it.
        upsert(&mut self.deterministic, name, value + 0.0);
    }

    /// Records (or overwrites) a wall metric as the median of
    /// `samples_ns`.
    ///
    /// # Panics
    ///
    /// Panics if `samples_ns` is empty.
    pub fn wall_metric(&mut self, name: &str, samples_ns: &[f64]) {
        let stat =
            WallStat { median_ns: median(samples_ns) + 0.0, samples: samples_ns.len() as u64 };
        upsert(&mut self.wall, name, stat);
    }
}

fn upsert<T>(rows: &mut Vec<(String, T)>, name: &str, value: T) {
    match rows.binary_search_by(|(k, _)| k.as_str().cmp(name)) {
        Ok(i) => rows[i].1 = value,
        Err(i) => rows.insert(i, (name.to_string(), value)),
    }
}

/// Per-metric comparison outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Equal (deterministic) or within tolerance (wall).
    Unchanged,
    /// Lower than before.
    Improved,
    /// Higher than before.
    Regressed,
    /// Present only in the new record.
    Added,
    /// Present only in the old record.
    Removed,
}

/// One row of a diff.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Metric name.
    pub metric: String,
    /// Comparison policy applied.
    pub kind: MetricKind,
    /// Old value (median for wall metrics); `None` when [`Verdict::Added`].
    pub old: Option<f64>,
    /// New value; `None` when [`Verdict::Removed`].
    pub new: Option<f64>,
    /// Outcome label.
    pub verdict: Verdict,
    /// Whether this row fails the gate.
    pub fails: bool,
}

/// Result of diffing two bench records.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// All compared metrics, deterministic first, each set in name order.
    pub rows: Vec<DiffRow>,
}

impl DiffReport {
    /// True when any row fails the gate.
    pub fn failed(&self) -> bool {
        self.rows.iter().any(|r| r.fails)
    }

    /// Renders the diff as one line per metric plus a verdict line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            let kind = match row.kind {
                MetricKind::Deterministic => "det ",
                MetricKind::Wall => "wall",
            };
            let status = if row.fails { "FAIL" } else { " ok " };
            let delta = match (row.old, row.new) {
                (Some(o), Some(n)) if o != 0.0 => {
                    format!("{o} -> {n} ({:+.3}%)", (n - o) / o * 100.0)
                }
                (Some(o), Some(n)) => format!("{o} -> {n}"),
                (Some(o), None) => format!("{o} -> (removed)"),
                (None, Some(n)) => format!("(added) -> {n}"),
                (None, None) => String::new(),
            };
            let verdict = match row.verdict {
                Verdict::Unchanged => "unchanged",
                Verdict::Improved => "improved",
                Verdict::Regressed => "regressed",
                Verdict::Added => "added",
                Verdict::Removed => "removed",
            };
            out.push_str(&format!("[{status}] {kind} {}: {delta} {verdict}\n", row.metric));
        }
        out.push_str(if self.failed() { "verdict: FAIL\n" } else { "verdict: PASS\n" });
        out
    }

    /// One line per *failing* metric, each naming the old value, the new
    /// value, and the percentage delta — so the last lines of a CI log
    /// say what regressed and by how much without scrolling back through
    /// the full table. Empty when the gate passes.
    pub fn failure_summary(&self) -> String {
        let mut out = String::new();
        for row in self.rows.iter().filter(|r| r.fails) {
            let detail = match (row.old, row.new) {
                (Some(o), Some(n)) if o != 0.0 => {
                    format!("old {o}, new {n}, delta {:+.3}%", (n - o) / o * 100.0)
                }
                (Some(o), Some(n)) => format!("old {o}, new {n} (old is zero, no delta)"),
                (Some(o), None) => format!("old {o}, metric removed in new record"),
                (None, Some(n)) => format!("metric absent in old record, new {n}"),
                (None, None) => unreachable!("a diff row always has at least one side"),
            };
            out.push_str(&format!("bench-diff failure: {}: {detail}\n", row.metric));
        }
        out
    }
}

/// Compares two records.
///
/// Deterministic metrics fail on **any** difference — improvements too,
/// so a better number still forces the baseline to be refreshed — and on
/// any metric added or removed. Wall metrics fail only when
/// `new > old × (1 + wall_tolerance)`; additions and removals of wall
/// metrics are reported but do not gate.
///
/// Returns an error when the records' schema versions differ.
pub fn diff(old: &BenchRecord, new: &BenchRecord, wall_tolerance: f64) -> Result<DiffReport, String> {
    if old.schema != new.schema {
        return Err(format!(
            "schema mismatch: old is v{}, new is v{}",
            old.schema, new.schema
        ));
    }
    let mut rows = Vec::new();

    for (name, old_v, new_v) in join(&old.deterministic, &new.deterministic) {
        let (verdict, fails) = match (old_v, new_v) {
            (Some(o), Some(n)) if o == n => (Verdict::Unchanged, false),
            (Some(o), Some(n)) if n < o => (Verdict::Improved, true),
            (Some(_), Some(_)) => (Verdict::Regressed, true),
            (None, Some(_)) => (Verdict::Added, true),
            (Some(_), None) => (Verdict::Removed, true),
            (None, None) => unreachable!("join yields at least one side"),
        };
        rows.push(DiffRow {
            metric: name,
            kind: MetricKind::Deterministic,
            old: old_v,
            new: new_v,
            verdict,
            fails,
        });
    }

    let old_wall: Vec<(String, f64)> =
        old.wall.iter().map(|(k, s)| (k.clone(), s.median_ns)).collect();
    let new_wall: Vec<(String, f64)> =
        new.wall.iter().map(|(k, s)| (k.clone(), s.median_ns)).collect();
    for (name, old_v, new_v) in join(&old_wall, &new_wall) {
        let (verdict, fails) = match (old_v, new_v) {
            (Some(o), Some(n)) if n > o * (1.0 + wall_tolerance) => (Verdict::Regressed, true),
            (Some(o), Some(n)) if n < o * (1.0 - wall_tolerance) => (Verdict::Improved, false),
            (Some(_), Some(_)) => (Verdict::Unchanged, false),
            (None, Some(_)) => (Verdict::Added, false),
            (Some(_), None) => (Verdict::Removed, false),
            (None, None) => unreachable!("join yields at least one side"),
        };
        rows.push(DiffRow {
            metric: name,
            kind: MetricKind::Wall,
            old: old_v,
            new: new_v,
            verdict,
            fails,
        });
    }

    Ok(DiffReport { rows })
}

/// Full outer join of two metric lists, in name order.
fn join(old: &[(String, f64)], new: &[(String, f64)]) -> Vec<(String, Option<f64>, Option<f64>)> {
    let mut rows: BTreeMap<&str, (Option<f64>, Option<f64>)> = BTreeMap::new();
    for (name, v) in old {
        rows.entry(name).or_default().0 = Some(*v);
    }
    for (name, v) in new {
        rows.entry(name).or_default().1 = Some(*v);
    }
    rows.into_iter().map(|(name, (o, n))| (name.to_string(), o, n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use enmc_obs::json;

    fn record() -> BenchRecord {
        let mut r = BenchRecord::new("fig13");
        r.metric("sim_cycles", 123_456.0);
        r.metric("energy_nj", 789.25);
        r.metric("quality_pct", 99.5);
        r.wall_metric("run_ns", &[1_000.0, 1_200.0, 900.0]);
        r
    }

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    #[should_panic(expected = "median of no samples")]
    fn median_of_nothing_panics() {
        median(&[]);
    }

    #[test]
    fn record_round_trips_through_json() {
        let r = record();
        let back = json::decode::<BenchRecord>(&json::encode(&r)).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.wall[0].1, WallStat { median_ns: 1_000.0, samples: 3 });
    }

    #[test]
    fn json_is_byte_stable() {
        assert_eq!(json::encode(&record()), json::encode(&record()));
        let mut reordered = BenchRecord::new("fig13");
        reordered.metric("quality_pct", 99.5);
        reordered.metric("energy_nj", 789.25);
        reordered.metric("sim_cycles", 123_456.0);
        reordered.wall_metric("run_ns", &[1_000.0, 1_200.0, 900.0]);
        // Insertion order does not leak into the serialized form.
        assert_eq!(json::encode(&reordered), json::encode(&record()));
    }

    #[test]
    fn self_diff_passes() {
        let r = record();
        let d = diff(&r, &r, 0.2).unwrap();
        assert!(!d.failed());
        assert!(d.render().contains("verdict: PASS"));
    }

    #[test]
    fn deterministic_drift_fails_both_directions() {
        let old = record();
        let mut worse = record();
        worse.metric("sim_cycles", 123_457.0);
        let d = diff(&old, &worse, 0.2).unwrap();
        assert!(d.failed());
        assert!(d.render().contains("regressed"));

        let mut better = record();
        better.metric("sim_cycles", 123_000.0);
        let d = diff(&old, &better, 0.2).unwrap();
        assert!(d.failed(), "improvements still force a baseline refresh");
        assert!(d.render().contains("improved"));
    }

    #[test]
    fn failure_summary_names_values_and_percentage_delta() {
        let old = record();
        let mut worse = record();
        worse.metric("sim_cycles", 135_801.6); // +10% on 123456
        let d = diff(&old, &worse, 0.2).unwrap();
        let summary = d.failure_summary();
        assert_eq!(
            summary,
            "bench-diff failure: sim_cycles: old 123456, new 135801.6, delta +10.000%\n"
        );
        // Only failing rows appear; a clean gate has nothing to say.
        assert_eq!(diff(&old, &old, 0.2).unwrap().failure_summary(), "");
        // One-sided rows still name the value that exists.
        let mut extra = record();
        extra.metric("extra", 1.0);
        let added = diff(&old, &extra, 0.2).unwrap().failure_summary();
        assert!(added.contains("extra: metric absent in old record, new 1"), "{added}");
        let removed = diff(&extra, &old, 0.2).unwrap().failure_summary();
        assert!(removed.contains("extra: old 1, metric removed in new record"), "{removed}");
    }

    #[test]
    fn added_or_removed_deterministic_metric_fails() {
        let old = record();
        let mut new = record();
        new.metric("extra", 1.0);
        assert!(diff(&old, &new, 0.2).unwrap().failed());
        assert!(diff(&new, &old, 0.2).unwrap().failed());
    }

    #[test]
    fn wall_noise_within_tolerance_passes() {
        let old = record();
        let mut new = record();
        new.wall_metric("run_ns", &[1_100.0]); // +10% on a 20% tolerance
        let d = diff(&old, &new, 0.2).unwrap();
        assert!(!d.failed());
    }

    #[test]
    fn wall_regression_past_tolerance_fails() {
        let old = record();
        let mut new = record();
        new.wall_metric("run_ns", &[1_300.0]); // +30% on a 20% tolerance
        let d = diff(&old, &new, 0.2).unwrap();
        assert!(d.failed());
        let row = d.rows.iter().find(|r| r.metric == "run_ns").unwrap();
        assert_eq!(row.verdict, Verdict::Regressed);
    }

    #[test]
    fn wall_metric_churn_does_not_gate() {
        let old = record();
        let mut new = record();
        new.wall_metric("other_ns", &[5.0]);
        let d = diff(&old, &new, 0.2).unwrap();
        assert!(!d.failed());
    }

    #[test]
    fn schema_mismatch_is_an_error() {
        let old = record();
        let mut new = record();
        new.schema = 99;
        assert!(diff(&old, &new, 0.2).is_err());
    }

    #[test]
    fn parse_rejects_malformed_records() {
        assert!(json::decode::<BenchRecord>("{}").is_err());
        assert!(json::decode::<BenchRecord>("not json").is_err());
        assert!(json::decode::<BenchRecord>(
            r#"{"name":"x","schema":1,"deterministic":{"a":"oops"},"wall":{}}"#
        )
        .is_err());
    }

    #[test]
    fn negative_zero_writes_as_zero() {
        let mut r = BenchRecord::new("z");
        r.metric("delta", -0.0);
        assert!(json::encode(&r).contains(r#""delta":0"#), "{}", json::encode(&r));
    }
}
