//! Performance attribution and regression observability.
//!
//! Three pieces, layered on [`enmc_obs`]:
//!
//! * [`cost`] — top-down cost attribution: a deterministic tree that
//!   splits a run's simulated cycles by pipeline phase (screen / gather /
//!   activation, compute vs memory stall) and its energy by component
//!   (per-channel DRAM access, DRAM static, logic), flattened into
//!   [`enmc_obs::BreakdownRow`]s for the run report. Every leaf is a
//!   `counter × constant` product over deterministic counters, so the
//!   tree is bit-identical for any host thread count and the leaves sum
//!   *exactly* to the reported totals by construction.
//! * [`selfprof`] — a host-side self-profiler: scoped span aggregation
//!   with inclusive/exclusive wall-time rollups. Wall times are
//!   nondeterministic by nature; keep this output behind a flag when a
//!   consumer wants byte-stable stdout.
//! * [`mod@bench`] — the bench-trajectory harness: stable `BENCH_<name>.json`
//!   records (deterministic simulation metrics plus median-of-N host
//!   wall times) and a differ that gates deterministic metrics at zero
//!   tolerance while holding wall clocks only to a noise threshold.

pub mod bench;
pub mod cost;
pub mod selfprof;

pub use bench::{BenchRecord, DiffReport, DiffRow, MetricKind, Verdict};
pub use cost::{attribute, CostAttribution, CostNode};
pub use selfprof::SelfProfiler;
