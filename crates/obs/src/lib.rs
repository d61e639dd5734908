//! # `enmc-obs` — workspace-wide observability
//!
//! The instrumentation layer every other crate reports through: a
//! simulator only becomes a *system* once its internals are observable
//! without recompiling. This crate is deliberately dependency-free so the
//! lowest layers (the DRAM model, the rank units) can emit into it without
//! dragging anything extra into their build.
//!
//! Three pillars:
//!
//! * **Event tracing** ([`trace`]) — a ring-buffered collector
//!   ([`trace::TraceBuffer`]) and a Chrome/Perfetto `trace_event`
//!   exporter ([`trace::export_chrome`]).
//!   The DRAM controller emits ACT/PRE/RD/WR/REF command events; the NMP
//!   unit models emit per-stage pipeline spans. A disabled trace costs a
//!   single branch on the hot path.
//! * **Metrics** ([`metrics`]) — typed counters, gauges, and histograms
//!   with canonicalized labels, snapshotted into a serializable
//!   [`metrics::MetricsReport`].
//! * **Run reports** ([`report`]) — phase-scoped wall-clock + simulated
//!   cycle timing rolled into a [`report::RunReport`] with a JSON round
//!   trip, the machine-readable result format shared by the CLI and the
//!   figure/table harness.
//!
//! Serialization uses the built-in [`json`] codec, so none of this
//! requires external crates.
//!
//! # Conventions
//!
//! Trace timestamps are **DRAM-clock cycles**; wall-time conversion
//! happens once, at export. `pid` identifies a DRAM channel or unit,
//! `tid` a bank (DRAM command events) or a pipeline track
//! ([`trace::TID_SCREENER`], [`trace::TID_EXECUTOR`], [`trace::TID_SFU`],
//! [`trace::TID_PHASES`]). Metric names are dot-separated
//! (`dram.reads`, `unit.screen_bytes`) with labels for dimensions that
//! fan out (channel, scheme, workload).

pub mod json;
pub mod metrics;
pub mod report;
pub mod trace;

pub use json::Value;
pub use metrics::{MetricsRegistry, MetricsReport};
pub use report::{BreakdownRow, PhaseSpan, RunReport};
pub use trace::{
    export_chrome, validate_chrome, ChromeSummary, SpanPhase, TraceBuffer, TraceEvent,
};
