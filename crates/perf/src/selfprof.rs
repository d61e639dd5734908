//! Host-side self-profiler: scoped span aggregation.
//!
//! A [`SelfProfiler`] tracks a stack of named spans over host wall time
//! and aggregates them into per-name rollups with *inclusive* (span
//! start to end) and *exclusive* (inclusive minus child spans) time.
//! Nested calls to the same name accumulate into one rollup entry.
//!
//! Wall time is nondeterministic; report it separately from the
//! deterministic cost trees (the `enmc profile` command only prints this
//! rollup behind `--self-profile` so its default output stays
//! byte-stable).

use std::collections::BTreeMap;
use std::time::Instant;

/// Aggregate timing for one span name.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpanStat {
    /// Times the span was entered.
    pub calls: u64,
    /// Total nanoseconds between enter and exit.
    pub inclusive_ns: f64,
    /// Inclusive time minus time spent in child spans.
    pub exclusive_ns: f64,
}

/// One in-flight stack frame.
struct Frame {
    name: String,
    start: Instant,
    child_ns: f64,
}

/// Scoped span aggregator over host wall time.
#[derive(Default)]
pub struct SelfProfiler {
    stack: Vec<Frame>,
    rollup: BTreeMap<String, SpanStat>,
}

impl SelfProfiler {
    /// An empty profiler.
    pub fn new() -> SelfProfiler {
        SelfProfiler::default()
    }

    /// Enters a span.
    pub fn begin(&mut self, name: &str) {
        self.stack.push(Frame { name: name.to_string(), start: Instant::now(), child_ns: 0.0 });
    }

    /// Exits the innermost span, which must be named `name`.
    ///
    /// # Panics
    ///
    /// Panics if no span is open or the innermost open span has a
    /// different name (unbalanced instrumentation is a bug worth
    /// failing loudly on).
    pub fn end(&mut self, name: &str) {
        let frame = self.stack.pop().unwrap_or_else(|| panic!("end('{name}') with no open span"));
        assert_eq!(
            frame.name, name,
            "unbalanced spans: end('{name}') while '{}' is innermost",
            frame.name
        );
        let ns = frame.start.elapsed().as_nanos() as f64;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += ns;
        }
        let stat = self.rollup.entry(frame.name).or_default();
        stat.calls += 1;
        stat.inclusive_ns += ns;
        stat.exclusive_ns += ns - frame.child_ns;
    }

    /// The rollup, sorted by exclusive time descending (ties by name so
    /// the order is total).
    pub fn rollup(&self) -> Vec<(String, SpanStat)> {
        let mut rows: Vec<(String, SpanStat)> =
            self.rollup.iter().map(|(k, v)| (k.clone(), *v)).collect();
        rows.sort_by(|a, b| {
            b.1.exclusive_ns.total_cmp(&a.1.exclusive_ns).then_with(|| a.0.cmp(&b.0))
        });
        rows
    }

    /// Renders the rollup as an aligned text table.
    pub fn render(&self) -> String {
        let rows = self.rollup();
        let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(4).max(4);
        let mut out = format!(
            "{:<width$}  {:>6}  {:>14}  {:>14}\n",
            "span", "calls", "exclusive_us", "inclusive_us"
        );
        for (name, stat) in &rows {
            out.push_str(&format!(
                "{name:<width$}  {:>6}  {:>14.1}  {:>14.1}\n",
                stat.calls,
                stat.exclusive_ns / 1e3,
                stat.inclusive_ns / 1e3,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_split_exclusive_time() {
        let mut p = SelfProfiler::new();
        p.begin("outer");
        p.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        p.end("inner");
        p.end("outer");
        let rows = p.rollup();
        assert_eq!(rows.len(), 2);
        let get = |n: &str| rows.iter().find(|(k, _)| k == n).map(|(_, s)| *s).unwrap();
        let outer = get("outer");
        let inner = get("inner");
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        // Outer's exclusive time excludes the inner sleep.
        assert!(outer.exclusive_ns <= outer.inclusive_ns);
        assert!(inner.inclusive_ns <= outer.inclusive_ns);
        assert!(outer.exclusive_ns < inner.inclusive_ns + outer.inclusive_ns);
        assert!((outer.exclusive_ns - (outer.inclusive_ns - inner.inclusive_ns)).abs() < 1.0);
    }

    #[test]
    fn repeated_spans_accumulate() {
        let mut p = SelfProfiler::new();
        for _ in 0..3 {
            p.begin("work");
            p.end("work");
        }
        let rows = p.rollup();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1.calls, 3);
    }

    #[test]
    fn rollup_sorts_by_exclusive_descending() {
        let mut p = SelfProfiler::new();
        p.begin("fast");
        p.end("fast");
        p.begin("slow");
        std::thread::sleep(std::time::Duration::from_millis(3));
        p.end("slow");
        let rows = p.rollup();
        assert_eq!(rows[0].0, "slow");
    }

    #[test]
    fn render_lists_every_span() {
        let mut p = SelfProfiler::new();
        p.begin("alpha");
        p.begin("beta");
        p.end("beta");
        p.end("alpha");
        let text = p.render();
        assert!(text.contains("alpha"));
        assert!(text.contains("beta"));
        assert!(text.starts_with("span"));
    }

    #[test]
    #[should_panic(expected = "unbalanced spans")]
    fn mismatched_end_panics() {
        let mut p = SelfProfiler::new();
        p.begin("a");
        p.end("b");
    }

    #[test]
    #[should_panic(expected = "no open span")]
    fn end_without_begin_panics() {
        SelfProfiler::new().end("ghost");
    }
}
