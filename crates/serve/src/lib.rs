//! Shared building blocks of the ENMC serving studies.
//!
//! The rest of the workspace answers "how fast is one batch?"; serving
//! asks what happens when *traffic* hits the accelerator: requests
//! arrive over time, queue, get batched, and miss or meet deadlines. The
//! one discrete-event loop that answers it lives in `enmc-fleet`
//! (`simulate_fleet`); `enmc serve-sim` runs it as a 1-node, 1-shard,
//! 1-tenant fleet. This crate holds the pieces that loop, the offload
//! planner in `enmc-tune` and the `perf_suite` benchmark share:
//!
//! 1. [`arrival`] — seeded arrival-process generators (Poisson, bursty
//!    MMPP-2, diurnal ramp, replayed trace) producing timestamped
//!    requests.
//! 2. [`sim`] — the calibration pass that prices every `(degrade tier,
//!    batch size)` point on the rank-sharded cycle simulator (or the
//!    audited surrogate) and returns a [`ServiceTable`] in DRAM cycles.
//! 3. [`tier`] — the [`tier::DegradeTier`] ladder the admission
//!    controller steps through under load.
//! 4. [`hist`] — log-bucketed latency histograms for p50/p90/p99/p999
//!    tail reporting.
//! 5. [`offload`] — the [`OffloadPlan`] an external planner (enmc-tune)
//!    computes to route each `(tier, batch)` point to NMP or the CPU
//!    roofline at its pre-planned cost.
//!
//! # Determinism contract
//!
//! Everything is a function of the configuration and its seeds: arrivals
//! come from a [`arrival::SplitMix64`] stream and service times from the
//! thread-invariant sharded simulator. Host wall-clock time never enters
//! any output, so a serving report is byte-identical for any
//! `ENMC_THREADS` — worker counts only change how fast the calibration
//! pass runs.

pub mod arrival;
pub mod hist;
pub mod offload;
pub mod sim;
pub mod tier;

pub use arrival::ArrivalProcess;
pub use hist::LatencyHistogram;
pub use offload::OffloadPlan;
pub use sim::{calibrate_service_table, ServiceTable};
pub use tier::{parse_tiers, DegradeTier};
