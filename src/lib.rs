//! # ENMC: Extreme Near-Memory Classification via Approximate Screening
//!
//! A full-system Rust reproduction of the MICRO'21 paper: the approximate
//! screening algorithm, a cycle-level DDR4 simulator, the ENMC near-memory
//! DIMM microarchitecture with its instruction set and compiler, the CPU
//! and NMP baselines, and the energy/area models — everything needed to
//! regenerate the paper's tables and figures.
//!
//! ## Crate map
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`tensor`] | `enmc-tensor` | matrices, quantization, projections, softmax |
//! | [`model`] | `enmc-model` | workloads (Table 2), synthetic data, quality metrics |
//! | [`screen`] | `enmc-screen` | approximate screening + SVD-softmax / FGD baselines |
//! | [`dram`] | `enmc-dram` | cycle-level DDR4 simulator (the Ramulator stand-in) |
//! | [`isa`] | `enmc-isa` | the ENMC instruction set + PRECHARGE-frame codec |
//! | [`compiler`] | `enmc-compiler` | tiling compiler to instruction streams |
//! | [`arch`] | `enmc-arch` | ENMC / NDA / Chameleon / TensorDIMM / CPU models |
//! | [`obs`] | `enmc-obs` | event tracing, metrics registry, structured run reports |
//! | [`perf`] | `enmc-perf` | cost attribution, self-profiler, bench-trajectory diffing |
//! | [`par`] | `enmc-par` | deterministic worker pool + run configuration |
//! | [`serve`] | `enmc-serve` | serving pieces: arrivals, service-time calibration and per-query offload, degrade tiers |
//! | [`fault`] | `enmc-fault` | approximate-DRAM error models, SEC-DED ECC, resilience sweeps |
//! | [`surrogate`] | `enmc-surrogate` | hybrid-fidelity cost model with randomized cycle-accurate audits |
//! | [`tune`] | `enmc-tune` | design-space auto-tuner: budgeted lattice search, Pareto frontiers |
//! | [`fleet`] | `enmc-fleet` | the serving loop (`serve-sim` is its 1-node case): placement, routing, capacity |
//!
//! ## Quickstart
//!
//! ```
//! use enmc::pipeline::{Pipeline, PipelineConfig};
//!
//! // A small end-to-end run: synthesize a classifier, distill a screener,
//! // measure quality, and simulate the hardware.
//! let mut pipeline = Pipeline::build(&PipelineConfig {
//!     categories: 2000,
//!     hidden: 64,
//!     candidates: 40,
//!     train_queries: 64,
//!     seed: 7,
//!     ..Default::default()
//! })
//! .expect("valid configuration");
//! let quality = pipeline.evaluate_quality(50);
//! assert!(quality.top1_agreement > 0.8);
//! let perf = pipeline.simulate_enmc();
//! assert!(perf.ns > 0.0);
//! ```

pub use enmc_arch as arch;
pub use enmc_obs as obs;
pub use enmc_compiler as compiler;
pub use enmc_dram as dram;
pub use enmc_fault as fault;
pub use enmc_fleet as fleet;
pub use enmc_isa as isa;
pub use enmc_mem as mem;
pub use enmc_model as model;
pub use enmc_par as par;
pub use enmc_perf as perf;
pub use enmc_screen as screen;
pub use enmc_serve as serve;
pub use enmc_surrogate as surrogate;
pub use enmc_tensor as tensor;
pub use enmc_tune as tune;

pub mod cli;
pub mod pipeline;
pub mod resilience;
