//! Cycle-level event tracing: a ring-buffered collector and a
//! Chrome/Perfetto `trace_event` exporter.
//!
//! Producers (the DRAM controller, the rank-unit pipelines) record
//! [`TraceEvent`]s into a [`TraceBuffer`]. The hot paths hold an
//! `Option<TraceBuffer>`, so a disabled trace costs one branch — no
//! allocation, no formatting, no virtual dispatch.
//!
//! Timestamps are **DRAM-clock cycles**; conversion to wall time happens
//! only at export. [`export_chrome`] produces a JSON document loadable by
//! `chrome://tracing` or <https://ui.perfetto.dev>, and
//! [`validate_chrome`] re-parses such a document and checks the
//! structural invariants the test-suite relies on (monotone timestamps,
//! balanced begin/end pairs per track).

use crate::json::{write_escaped, Value};
use std::collections::VecDeque;

/// Event category for DRAM command-bus activity.
pub const CAT_DRAM: &str = "dram";
/// Event category for NMP pipeline-stage activity.
pub const CAT_PIPELINE: &str = "pipeline";
/// Event category for DDR4 protocol-conformance violations.
pub const CAT_PROTOCOL: &str = "protocol";

/// Track id used for per-phase summary spans.
pub const TID_PHASES: u32 = 999;
/// Track id for the integer (screening) MAC pipeline.
pub const TID_SCREENER: u32 = 1000;
/// Track id for the FP32 (executor) MAC pipeline.
pub const TID_EXECUTOR: u32 = 1001;
/// Track id for the special-function unit.
pub const TID_SFU: u32 = 1002;
/// Track id for sampled counter series (queue depth, busy lanes, open
/// rows). Counter events render as their own value graph per name, so a
/// single track id is enough.
pub const TID_COUNTERS: u32 = 1100;

/// What kind of mark an event is (mirrors the Chrome `ph` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanPhase {
    /// Opens a span on its `(pid, tid)` track (`ph: "B"`).
    Begin,
    /// Closes the innermost open span on its track (`ph: "E"`).
    End,
    /// A zero-duration marker (`ph: "i"`).
    Instant,
    /// A sampled counter value (`ph: "C"`); the event's args are the
    /// series values the viewer plots over time.
    Counter,
}

/// One trace event, timestamped in DRAM-clock cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event name (shown by the viewer; `Begin`/`End` pairs must match).
    pub name: &'static str,
    /// Category (e.g. [`CAT_DRAM`], [`CAT_PIPELINE`]).
    pub category: &'static str,
    /// The mark kind.
    pub phase: SpanPhase,
    /// Timestamp in DRAM-clock cycles.
    pub ts: u64,
    /// Process id (by convention: the DRAM channel / unit index).
    pub pid: u32,
    /// Thread id (by convention: a bank or pipeline track).
    pub tid: u32,
    /// Numeric key/value annotations.
    pub args: Vec<(&'static str, u64)>,
}

impl TraceEvent {
    /// A span-opening event.
    pub fn begin(name: &'static str, category: &'static str, ts: u64, pid: u32, tid: u32) -> Self {
        TraceEvent { name, category, phase: SpanPhase::Begin, ts, pid, tid, args: Vec::new() }
    }

    /// A span-closing event.
    pub fn end(name: &'static str, category: &'static str, ts: u64, pid: u32, tid: u32) -> Self {
        TraceEvent { name, category, phase: SpanPhase::End, ts, pid, tid, args: Vec::new() }
    }

    /// A zero-duration marker.
    pub fn instant(
        name: &'static str,
        category: &'static str,
        ts: u64,
        pid: u32,
        tid: u32,
    ) -> Self {
        TraceEvent { name, category, phase: SpanPhase::Instant, ts, pid, tid, args: Vec::new() }
    }

    /// A sampled counter value; attach the plotted series via
    /// [`TraceEvent::with_arg`] (arg key = series name, value = sample).
    pub fn counter(
        name: &'static str,
        category: &'static str,
        ts: u64,
        pid: u32,
        tid: u32,
    ) -> Self {
        TraceEvent { name, category, phase: SpanPhase::Counter, ts, pid, tid, args: Vec::new() }
    }

    /// Attaches a numeric annotation (builder style).
    #[must_use]
    pub fn with_arg(mut self, key: &'static str, value: u64) -> Self {
        self.args.push((key, value));
        self
    }
}

/// A bounded ring buffer of trace events.
///
/// When full, the oldest events are evicted and counted in
/// [`TraceBuffer::dropped`]. Use [`TraceBuffer::unbounded`] when a
/// complete trace matters more than memory (the CLI exporter does).
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl TraceBuffer {
    /// A ring holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        TraceBuffer { events: VecDeque::new(), capacity: capacity.max(1), dropped: 0 }
    }

    /// A buffer that never evicts.
    pub fn unbounded() -> Self {
        TraceBuffer { events: VecDeque::new(), capacity: usize::MAX, dropped: 0 }
    }

    /// `true` when no events are held.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates the held events in record order.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Removes and returns all held events in record order.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        self.events.drain(..).collect()
    }

    /// Records one event, evicting the oldest when full.
    pub fn record(&mut self, event: TraceEvent) {
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

/// Serializes `events` as a Chrome `trace_event` JSON document.
///
/// Events are stably sorted by timestamp (record order breaks ties, which
/// keeps same-cycle `End`-before-`Begin` sequences valid). `ns_per_cycle`
/// converts cycle timestamps to the microsecond `ts` field the format
/// requires.
pub fn export_chrome(events: &[TraceEvent], ns_per_cycle: f64) -> String {
    let mut order: Vec<&TraceEvent> = events.iter().collect();
    order.sort_by_key(|e| e.ts);
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, e) in order.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        write_escaped(&mut out, e.name);
        out.push_str(",\"cat\":");
        write_escaped(&mut out, e.category);
        let ph = match e.phase {
            SpanPhase::Begin => "B",
            SpanPhase::End => "E",
            SpanPhase::Instant => "i",
            SpanPhase::Counter => "C",
        };
        out.push_str(&format!(",\"ph\":\"{ph}\""));
        if e.phase == SpanPhase::Instant {
            out.push_str(",\"s\":\"t\"");
        }
        let us = e.ts as f64 * ns_per_cycle / 1000.0;
        out.push_str(&format!(",\"ts\":{us},\"pid\":{},\"tid\":{}", e.pid, e.tid));
        if !e.args.is_empty() {
            out.push_str(",\"args\":{");
            for (j, (k, v)) in e.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write_escaped(&mut out, k);
                out.push_str(&format!(":{v}"));
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Summary returned by [`validate_chrome`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChromeSummary {
    /// Total events in the document.
    pub events: usize,
    /// Span-opening events.
    pub begins: usize,
    /// Span-closing events.
    pub ends: usize,
    /// Instant markers.
    pub instants: usize,
    /// Counter samples.
    pub counters: usize,
    /// Distinct categories observed, sorted.
    pub categories: Vec<String>,
}

impl ChromeSummary {
    /// `true` if `category` appeared in the trace.
    pub fn has_category(&self, category: &str) -> bool {
        self.categories.iter().any(|c| c == category)
    }
}

/// Parses a Chrome `trace_event` document and checks its structural
/// invariants: every event carries `name`/`ph`/`ts`/`pid`/`tid`,
/// timestamps are non-decreasing in document order, and on every
/// `(pid, tid)` track the `B`/`E` events form balanced, well-nested pairs
/// with matching names.
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn validate_chrome(text: &str) -> Result<ChromeSummary, String> {
    let doc = Value::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or_else(|| "missing traceEvents array".to_string())?;
    let mut summary = ChromeSummary { events: events.len(), ..Default::default() };
    let mut categories: Vec<String> = Vec::new();
    let mut last_ts = f64::NEG_INFINITY;
    let mut stacks: std::collections::HashMap<(u64, u64), Vec<String>> =
        std::collections::HashMap::new();
    for (i, e) in events.iter().enumerate() {
        let name = e
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        let ph = e
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let ts = e
            .get("ts")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        let pid = e
            .get("pid")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("event {i}: missing pid"))?;
        let tid = e
            .get("tid")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("event {i}: missing tid"))?;
        if ts < last_ts {
            return Err(format!("event {i}: timestamp {ts} precedes {last_ts}"));
        }
        last_ts = ts;
        if let Some(cat) = e.get("cat").and_then(Value::as_str) {
            if !categories.iter().any(|c| c == cat) {
                categories.push(cat.to_string());
            }
        }
        let stack = stacks.entry((pid, tid)).or_default();
        match ph {
            "B" => {
                summary.begins += 1;
                stack.push(name.to_string());
            }
            "E" => {
                summary.ends += 1;
                match stack.pop() {
                    Some(open) if open == name => {}
                    Some(open) => {
                        return Err(format!(
                            "event {i}: end '{name}' closes span '{open}' on {pid}/{tid}"
                        ));
                    }
                    None => {
                        return Err(format!(
                            "event {i}: end '{name}' with no open span on {pid}/{tid}"
                        ));
                    }
                }
            }
            "i" | "I" => summary.instants += 1,
            "C" => {
                summary.counters += 1;
                if e.get("args").and_then(Value::as_obj).is_none_or(|a| a.is_empty()) {
                    return Err(format!("event {i}: counter '{name}' carries no args"));
                }
            }
            other => return Err(format!("event {i}: unsupported ph '{other}'")),
        }
    }
    for ((pid, tid), stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("span '{open}' left open on {pid}/{tid}"));
        }
    }
    categories.sort();
    summary.categories = categories;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut buf = TraceBuffer::new(2);
        buf.record(TraceEvent::instant("a", CAT_DRAM, 0, 0, 0));
        buf.record(TraceEvent::instant("b", CAT_DRAM, 1, 0, 0));
        buf.record(TraceEvent::instant("c", CAT_DRAM, 2, 0, 0));
        assert_eq!(buf.dropped(), 1);
        let names: Vec<&str> = buf.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["b", "c"]);
    }

    #[test]
    fn export_round_trips_through_validation() {
        let events = vec![
            TraceEvent::begin("screen_tile", CAT_PIPELINE, 0, 0, TID_SCREENER)
                .with_arg("tile", 0),
            TraceEvent::instant("ACT", CAT_DRAM, 1, 0, 3).with_arg("row", 17),
            TraceEvent::end("screen_tile", CAT_PIPELINE, 5, 0, TID_SCREENER),
        ];
        let json = export_chrome(&events, 0.833);
        let summary = validate_chrome(&json).expect("valid trace");
        assert_eq!(summary.events, 3);
        assert_eq!(summary.begins, 1);
        assert_eq!(summary.ends, 1);
        assert_eq!(summary.instants, 1);
        assert!(summary.has_category(CAT_DRAM));
        assert!(summary.has_category(CAT_PIPELINE));
    }

    #[test]
    fn export_sorts_events_stably() {
        // End recorded before a same-cycle Begin must stay before it.
        let events = vec![
            TraceEvent::begin("s", CAT_PIPELINE, 0, 0, 1),
            TraceEvent::end("s", CAT_PIPELINE, 4, 0, 1),
            TraceEvent::begin("s", CAT_PIPELINE, 4, 0, 1),
            TraceEvent::end("s", CAT_PIPELINE, 9, 0, 1),
        ];
        let json = export_chrome(&events, 1.0);
        validate_chrome(&json).expect("stable order keeps pairs balanced");
    }

    #[test]
    fn counter_events_round_trip() {
        let events = vec![
            TraceEvent::counter("queue_depth", CAT_DRAM, 0, 0, TID_COUNTERS).with_arg("value", 3),
            TraceEvent::counter("open_rows", CAT_DRAM, 8, 0, TID_COUNTERS).with_arg("value", 1),
            TraceEvent::counter("queue_depth", CAT_DRAM, 16, 0, TID_COUNTERS)
                .with_arg("value", 0),
        ];
        let json = export_chrome(&events, 0.833);
        assert!(json.contains("\"ph\":\"C\""));
        let summary = validate_chrome(&json).expect("valid counter trace");
        assert_eq!(summary.counters, 3);
        assert_eq!(summary.begins, 0);
        assert_eq!(summary.ends, 0);
    }

    #[test]
    fn validation_rejects_counter_without_args() {
        let json = r#"{"traceEvents":[
            {"name":"queue_depth","ph":"C","ts":1,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome(json).is_err());
    }

    #[test]
    fn validation_rejects_unbalanced_spans() {
        let events = vec![TraceEvent::begin("s", CAT_PIPELINE, 0, 0, 1)];
        let json = export_chrome(&events, 1.0);
        assert!(validate_chrome(&json).is_err());
    }

    #[test]
    fn validation_rejects_mismatched_names() {
        let events = vec![
            TraceEvent::begin("a", CAT_PIPELINE, 0, 0, 1),
            TraceEvent::end("b", CAT_PIPELINE, 1, 0, 1),
        ];
        let json = export_chrome(&events, 1.0);
        assert!(validate_chrome(&json).is_err());
    }

    #[test]
    fn validation_rejects_non_monotone_timestamps() {
        let json = r#"{"traceEvents":[
            {"name":"a","ph":"i","ts":5,"pid":0,"tid":0},
            {"name":"b","ph":"i","ts":4,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome(json).is_err());
    }
}
