//! Constraint-driven design-space auto-tuner for the ENMC accelerator.
//!
//! The rest of the workspace evaluates *one* design — the paper's
//! Table 3 point. This crate searches the neighborhood the paper never
//! swept: a declared lattice of rank counts, screener lane counts and
//! bitwidths, screening levels, candidate counts, and serving knobs,
//! priced with the Table 4/5 synthesis model and constrained by
//! user-declared area/power budgets.
//!
//! 1. [`space`] — the [`TuneSpace`] lattice, mixed-radix design
//!    indexing, the [`price_design`] Table 4/5 composition, and
//!    [`Budget`] admission.
//! 2. [`eval`] — a lattice point becomes a configured
//!    [`enmc_arch::SystemModel`] and runs through a per-design
//!    [`enmc_surrogate::CostModel`] into latency / energy / quality
//!    coordinates.
//! 3. [`pareto`] — frontier extraction over (latency ↓, energy ↓,
//!    quality ↑) and the deterministic `tune-frontier-v1` JSON fixture.
//! 4. [`search`] — the exhaustive and guided (seeded
//!    local-neighborhood) drivers and the `tune` report.
//!
//! # Determinism contract
//!
//! Every design's evaluation is a pure function of
//! `(space, seed, lattice index)`: per-design cost models keep the audit
//! lottery independent of worker count, evaluation order, and search
//! strategy. Frontiers are sorted by `(latency, energy, lattice index)`
//! and the frontier fixture excludes evaluated-design counts, so guided
//! and exhaustive searches over the same space — at any `ENMC_THREADS` —
//! render byte-identical frontier files.

pub mod eval;
pub mod pareto;
pub mod search;
pub mod space;

pub use eval::{evaluate_design, evaluate_designs, EvaluatedDesign};
pub use pareto::{dominates, frontier_json, pareto_frontier, FrontierPoint};
pub use search::{tune, tune_report, SearchMode, TuneConfig, TuneResult};
pub use space::{price_design, Budget, DesignPoint, TuneSpace, MAX_BATCH};
