// Numeric kernels index multiple arrays in lockstep; iterator
// rewrites would obscure the math.
#![allow(clippy::needless_range_loop)]

//! The ENMC near-memory architecture simulator and its baselines
//! (paper §5, §6.2, §7.2).
//!
//! The paper evaluates ENMC with a cycle-accurate simulator interfaced with
//! Ramulator; this crate plays that role on top of the [`enmc_dram`]
//! substrate:
//!
//! * [`config`] — the Table 3 ENMC configuration (400 MHz logic, 128 INT4
//!   MACs, 16 FP32 MACs, 256 B buffers) and the Table 4 iso-budget NMP
//!   baselines (NDA, Chameleon, TensorDIMM, TensorDIMM-Large);
//! * [`mod@unit`] — the cycle-level model of one rank's ENMC logic: Screener
//!   and Executor pipelines running in parallel against the rank's DRAM
//!   (dual-module architecture, §5.1–5.2), and the homogeneous-FP32 NMP
//!   engines the paper compares against, including the z̃ spill-to-DRAM
//!   behaviour that limited buffers force (§7.2); `simulate_traced`
//!   additionally emits per-stage `enmc_obs` spans and DRAM command events
//!   for the Chrome/Perfetto trace exporter;
//! * [`baseline`] — which NMP baselines exist and their Table 4 configs;
//! * [`cpu`] — the Xeon 8280 roofline model (§6.2);
//! * [`system`] — whole-system composition: what each scheme deploys on
//!   the memory preset, a workload partitioned over its rank units
//!   (8 channels × 8 ranks for ENMC); system time is the slowest rank;
//! * [`energy`] — compute/control energy from the Table 5 power numbers,
//!   combined with DRAM access/static energy from [`enmc_dram::energy`]
//!   (Fig. 14's three-way split);
//! * [`physical`] — the analytic area/power model reproducing Tables 4
//!   and 5.

pub mod baseline;
pub mod functional;
pub mod config;
pub mod cpu;
pub mod energy;
pub mod physical;
pub mod program_timing;
pub mod scaleout;
pub mod system;
pub mod unit;

pub use baseline::BaselineKind;
pub use config::{EnmcConfig, NmpConfig};
pub use cpu::CpuModel;
pub use functional::{FunctionalDimm, HostRuntime};
pub use energy::{LogicEnergyModel, SystemEnergy};
pub use physical::{AreaPower, PhysicalModel};
pub use system::{ClassificationJob, SchemeResult, SystemModel};
pub use unit::{RankUnit, UnitReport};
