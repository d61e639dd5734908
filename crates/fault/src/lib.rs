//! Fault injection and resilience analysis for approximate DRAM.
//!
//! ENMC streams its screening weights `W̃` out of DRAM on every query, so the
//! whole screening pipeline rides on weight integrity. EDEN (Koppula et al.,
//! MICRO '19) showed that DNN inference tolerates *approximate DRAM* —
//! relaxed refresh intervals and reduced tRCD — for large energy wins. This
//! crate turns the reproduction into that robustness testbed:
//!
//! * [`model`] — seeded, deterministic bit-error models: uniform BER,
//!   retention-failure cell maps keyed by a refresh-interval multiplier, and
//!   a reduced-tRCD weak-column model. Every per-bit decision is a stateless
//!   hash of `(seed, surface, word address, bit index)`, so injection is
//!   independent of iteration order and worker count.
//! * [`ecc`] — a SEC-DED (72,64) extended-Hamming layer with
//!   corrected/detected-uncorrectable counters and the per-access
//!   latency/energy surcharges the energy model charges for it.
//! * [`inject`] — corruption of the packed/quantized weight images at DRAM
//!   read granularity (64-bit words, 72-bit codewords under ECC), for both
//!   the screener's INT stream and the exact-path FP32 rows.
//! * [`sweep`] — the resilience pipeline: re-screens a query set against
//!   corrupted weights, reuses [`enmc_model::quality::QualityAccumulator`]
//!   per shard, attributes top-1 flips to candidate drops vs logit spikes,
//!   counts how many corrupted exact rows screening *masked* (pruned rows
//!   are never read), and joins each refresh-multiplier point with the
//!   relaxed-refresh DRAM energy for a quality-vs-energy Pareto curve.
//!   The join simulates the system once per sweep and prices that run
//!   under each point's energy model.
//!
//! Determinism contract: with a nominal [`model::FaultModel`] (zero BER,
//! multiplier 1, no weak columns) the injected pipeline is byte-identical to
//! the fault-free pipeline at any worker count — the CI `fault-smoke` job
//! diffs exactly that.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod ecc;
pub mod inject;
pub mod model;
pub mod sweep;

pub use ecc::{Decoded, EccCounters, ECC_NS_PER_BURST};
pub use inject::{corrupt_image, corrupt_matrix, corrupt_screener, InjectionStats};
pub use model::FaultModel;
pub use sweep::{
    pareto_frontier, run_resilience_sweep, run_sweep, FaultSweepSpec, ParetoRow, SweepPoint,
    TierOutcome, FAULT_SHARDS,
};
