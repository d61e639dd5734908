//! A cycle-level DDR4 DRAM simulator — the substrate the paper obtains from
//! Ramulator (Kim et al., CAL'15).
//!
//! The simulator models the command-level behaviour of a DDR4 memory
//! subsystem at the granularity the paper's evaluation needs:
//!
//! * the **device hierarchy** — channel → rank → bank group → bank, with a
//!   row buffer per bank ([`bank`], [`rank`]);
//! * the **command protocol** — ACT / PRE / PREA / RD / WR / RDA / WRA /
//!   REF with the full DDR4 timing-constraint set (tRCD, tRP, tRAS, tRC,
//!   CL, CWL, tCCD_S/L, tRRD_S/L, tFAW, tWR, tRTP, tWTR, tRFC, tREFI),
//!   parameterized by [`config::Timing`] with the paper's Table 3 values
//!   as the default ([`config::DramConfig::enmc_table3`]); the controller
//!   issues RD / WR, and RDA / WRA appear in the golden model's
//!   closed-page schedule;
//! * a **memory controller** per channel — the one Table 3 fixes: a
//!   [`QUEUE_DEPTH`]-entry request queue of [`BURST_BYTES`]-byte bursts,
//!   FR-FCFS scheduling, open-page policy, demand refresh ([`controller`]).
//!   A [`DramConfig`] varies only geometry and timing;
//! * **address mapping** from flat physical addresses to device coordinates
//!   ([`mapping`]);
//! * **statistics and energy counters** — row hits/misses/conflicts, bus
//!   utilization, and an IDD-derived energy model of one rank with the
//!   activate/read/write/refresh/background split used by Fig. 14 and an
//!   on/off SEC-DED surcharge ([`energy`]);
//! * **command-event tracing** — when enabled via
//!   [`system::DramSystem::enable_trace`], every issued ACT / PRE / RD / WR /
//!   REF becomes an `enmc_obs` trace event (one `pid` per channel, one `tid`
//!   per bank) that the CLI exports as a Chrome/Perfetto trace. Disabled by
//!   default at the cost of a single branch per issued command;
//! * a **conformance subsystem** — a runtime protocol checker that shadows
//!   every issued command and flags DDR4 timing violations ([`checker`]), an
//!   obviously-correct closed-page golden reference model that replays and
//!   cross-checks the controller's command log ([`golden`]), and a
//!   deterministic adversarial traffic fuzzer with reproducer shrinking
//!   ([`fuzz`]). All opt-in: the release path pays one `Option` branch per
//!   issued command.
//!
//! # Example
//!
//! ```
//! use enmc_dram::{DramConfig, DramSystem, MemRequest};
//!
//! let mut sys = DramSystem::new(DramConfig::enmc_table3());
//! let id = sys.enqueue(MemRequest::read(0)).expect("queue has space");
//! let mut done = Vec::new();
//! while done.is_empty() {
//!     sys.tick();
//!     done.extend(sys.drain_completions());
//! }
//! assert_eq!(done[0].id, id);
//! ```

pub mod bank;
pub mod checker;
pub mod command;
pub mod config;
pub mod controller;
pub mod energy;
pub mod fuzz;
pub mod golden;
pub mod mapping;
pub mod rank;
pub mod stats;
pub mod system;

pub use checker::{ProtocolViolation, Rule, TimingChecker};
pub use command::{Command, CommandKind, TimedCommand};
pub use config::{DramConfig, Organization, Timing, BURST_BYTES, QUEUE_DEPTH};
pub use controller::ChannelController;
pub use energy::{EnergyBreakdown, EnergyModel, ECC_NJ_PER_BURST};
pub use fuzz::{FuzzOutcome, FuzzRequest, InjectedBug, PatternKind, Reproducer};
pub use golden::{golden_closed_page, GoldenOutcome, GoldenRequest, ReplayReport};
pub use mapping::{AddressMapping, Coord};
pub use stats::DramStats;
pub use system::{Completion, DramSystem, MemRequest, RequestId, RequestKind};
