//! Layer spans recorded from the benchmark's own files, around each call
//! into a crate.
//!
//! A [`Spans`] is either off — a span then just runs its closure, so the
//! untraced pass pays one branch — or recording, in which case every span
//! enters an [`enmc_perf::SelfProfiler`] (calls, inclusive and self time
//! per name) and a begin/end pair of Chrome trace events. The set-up and
//! every pass record into their own `Spans`; the traced run folds them
//! into one [`Profile`].

use enmc_obs::trace::{export_chrome, validate_chrome, TraceEvent};
use enmc_perf::selfprof::{SelfProfiler, SpanStat};
use std::collections::BTreeMap;
use std::time::Instant;

/// Chrome events kept per recorder; past this the rollups keep counting but
/// no more events are written, so a long traced pass cannot exhaust memory.
const MAX_EVENTS: usize = 400_000;

/// Span recorder.
pub struct Spans {
    rec: Option<Recording>,
}

struct Recording {
    epoch: Instant,
    prof: SelfProfiler,
    /// Open spans: name, start, whether its begin event was written.
    open: Vec<(&'static str, Instant, bool)>,
    events: Vec<TraceEvent>,
    counts: BTreeMap<&'static str, f64>,
    top_ns: f64,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Spans {
        Spans { rec: None }
    }

    /// A recording span stack; timestamps count from `epoch`, which every
    /// recorder of one run shares.
    pub fn on(epoch: Instant) -> Spans {
        Spans {
            rec: Some(Recording {
                epoch,
                prof: SelfProfiler::new(),
                open: Vec::new(),
                events: Vec::new(),
                counts: BTreeMap::new(),
                top_ns: 0.0,
            }),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.rec.is_some()
    }

    /// Runs `f` inside the span `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let Some(rec) = self.rec.as_mut() else {
            return f(self);
        };
        let start = Instant::now();
        let logged = rec.events.len() < MAX_EVENTS;
        if logged {
            rec.events
                .push(TraceEvent::begin(name, "layer", ts(rec.epoch, start), 0, 0));
        }
        rec.open.push((name, start, logged));
        rec.prof.begin(name);
        let out = f(self);
        let rec = self
            .rec
            .as_mut()
            .expect("recording cannot stop inside a span");
        rec.prof.end(name);
        let (open, start, logged) = rec.open.pop().expect("span stack is balanced");
        debug_assert_eq!(open, name);
        let end = Instant::now();
        if logged {
            rec.events
                .push(TraceEvent::end(name, "layer", ts(rec.epoch, end), 0, 0));
        }
        if rec.open.is_empty() {
            rec.top_ns += (end - start).as_nanos() as f64;
        }
        out
    }

    /// Adds `v` to the work counter `key` (bytes moved, rows read, ...).
    pub fn count(&mut self, key: &'static str, v: f64) {
        if let Some(rec) = self.rec.as_mut() {
            *rec.counts.entry(key).or_default() += v;
        }
    }

    /// The recorded spans, counters and events (empty when off).
    pub fn into_profile(self) -> Profile {
        let mut p = Profile::default();
        if let Some(rec) = self.rec {
            assert!(rec.open.is_empty(), "profile taken with spans still open");
            p.spans = rec.prof.rollup().into_iter().collect();
            p.counts = rec.counts;
            p.events = rec.events;
            p.top_ns = rec.top_ns;
        }
        p
    }
}

fn ts(epoch: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(epoch).as_nanos() as u64
}

/// Spans, counters and trace events folded over a run's recorders.
#[derive(Default)]
pub struct Profile {
    spans: BTreeMap<String, SpanStat>,
    counts: BTreeMap<&'static str, f64>,
    events: Vec<TraceEvent>,
    /// Nanoseconds spent inside outermost spans.
    pub top_ns: f64,
}

impl Profile {
    /// Folds another recorder's profile into this one.
    pub fn absorb(&mut self, other: Profile) {
        for (name, s) in other.spans {
            let d = self.spans.entry(name).or_default();
            d.calls += s.calls;
            d.inclusive_ns += s.inclusive_ns;
            d.exclusive_ns += s.exclusive_ns;
        }
        for (k, v) in other.counts {
            *self.counts.entry(k).or_default() += v;
        }
        self.events.extend(other.events);
        self.top_ns += other.top_ns;
    }

    /// Inclusive nanoseconds spent in spans named `name`.
    pub fn ns(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |s| s.inclusive_ns)
    }

    /// Times a span named `name` was entered.
    pub fn calls(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |s| s.calls)
    }

    /// Inclusive microseconds per call of `name` (0 when never entered).
    pub fn us_per_call(&self, name: &str) -> f64 {
        match self.calls(name) {
            0 => 0.0,
            n => self.ns(name) / 1e3 / n as f64,
        }
    }

    /// The work counter `key` (0 when never counted).
    pub fn count(&self, key: &str) -> f64 {
        self.counts.get(key).copied().unwrap_or(0.0)
    }

    /// `count(key)` per second of span `name` (0 when the span never ran).
    pub fn rate(&self, key: &str, name: &str) -> f64 {
        crate::stats::ratio(self.count(key), self.ns(name) * 1e-9)
    }

    /// The events as a Chrome `trace_event` document (timestamps are
    /// nanoseconds, exported as microseconds), checked by
    /// [`validate_chrome`].
    ///
    /// # Errors
    ///
    /// Returns the validator's description of a malformed trace.
    pub fn chrome(&self) -> Result<String, String> {
        let doc = export_chrome(&self.events, 1.0);
        validate_chrome(&doc)?;
        Ok(doc)
    }

    /// Per-span table ordered by self time: calls, self and inclusive
    /// milliseconds.
    pub fn table(&self) -> String {
        let mut rows: Vec<(&String, &SpanStat)> = self.spans.iter().collect();
        rows.sort_by(|a, b| {
            b.1.exclusive_ns
                .total_cmp(&a.1.exclusive_ns)
                .then(a.0.cmp(b.0))
        });
        let mut out = format!(
            "{:<28} {:>9} {:>12} {:>12}\n",
            "span", "calls", "self_ms", "incl_ms"
        );
        for (name, s) in rows {
            out.push_str(&format!(
                "{name:<28} {:>9} {:>12.3} {:>12.3}\n",
                s.calls,
                s.exclusive_ns / 1e6,
                s.inclusive_ns / 1e6
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nested_spans_split_self_time_and_export_valid_chrome() {
        let epoch = Instant::now();
        let mut s = Spans::on(epoch);
        s.span("outer", |s| {
            std::thread::sleep(Duration::from_millis(2));
            s.span("inner", |s| {
                s.count("bytes", 64.0);
                std::thread::sleep(Duration::from_millis(3));
            });
        });
        let mut p = s.into_profile();
        let outer = p.spans["outer"];
        let inner = p.spans["inner"];
        assert_eq!((outer.calls, inner.calls), (1, 1));
        // Self time of the parent excludes the child it waited on.
        assert!((outer.exclusive_ns - (outer.inclusive_ns - inner.inclusive_ns)).abs() < 1.0);
        assert!(outer.exclusive_ns >= 2e6 && inner.exclusive_ns >= 3e6);
        assert_eq!(inner.exclusive_ns, inner.inclusive_ns);
        // Only the outermost span counts toward covered time.
        assert!(
            (p.top_ns - outer.inclusive_ns).abs() < 1e5,
            "{} vs {}",
            p.top_ns,
            outer.inclusive_ns
        );
        assert_eq!(p.count("bytes"), 64.0);

        // A later recorder folds in and the trace stays balanced.
        let mut t = Spans::on(epoch);
        t.span("inner", |_| ());
        p.absorb(t.into_profile());
        assert_eq!(p.calls("inner"), 2);
        let summary = validate_chrome(&p.chrome().unwrap()).unwrap();
        assert_eq!((summary.begins, summary.ends), (3, 3));
        assert!(p.table().lines().nth(1).unwrap().starts_with("inner"));
    }

    #[test]
    fn disabled_spans_run_the_closure_and_record_nothing() {
        let mut s = Spans::off();
        assert_eq!(s.span("x", |s| s.span("y", |_| 41) + 1), 42);
        s.count("bytes", 1.0);
        let p = s.into_profile();
        assert_eq!((p.calls("x"), p.count("bytes"), p.top_ns), (0, 0.0, 0.0));
    }
}
