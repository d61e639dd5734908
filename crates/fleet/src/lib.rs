//! The serving event loop of the ENMC reproduction, from one node to a
//! multi-tenant fleet.
//!
//! This crate holds the workspace's only queue/batch/lane loop. Its
//! degenerate configuration — one node, one shard, one tenant — answers
//! "what happens when traffic hits *one* accelerator node?" and is what
//! `enmc serve-sim` runs; the general one scales the question out to a
//! fleet, the paper's §8 deployment story made operational. An S10M/S100M
//! classifier is sharded row-wise across simulated DIMM-group nodes
//! (each a full Table 3 system), hot shards get extra replicas, a
//! cluster router sends each query to the least-backlogged holder of its
//! shard, and multiple tenants with distinct SLOs and degrade ladders
//! contend for the same nodes:
//!
//! 1. [`placement`] — shard→node maps: a consistent-hash ring (64
//!    vnodes/node, minimal disruption on membership change) and a
//!    popularity-aware placer that spends a replica budget on the Zipf
//!    hot head.
//! 2. [`sim`] — the fleet discrete-event loop: per-tenant seeded
//!    arrival streams merged into one timeline, per-node FIFO queues and
//!    dynamic batchers (batch-max + linger), per-tenant admission
//!    control and cluster-global degrade ladders, and an interconnect
//!    charge per remote query priced by
//!    [`enmc_arch::scaleout::Network`].
//! 3. [`serve`] — the `serve-sim` view of a 1-node, 1-tenant run: its
//!    report, `serve.*` metrics and queue/lane trace, rendered from the
//!    outcome after the loop.
//!
//! # Determinism contract
//!
//! Every output is a pure function of the configuration and its seeds.
//! Arrivals and shard draws come from pinned
//! [`enmc_serve::arrival::SplitMix64`] streams, placement is seed-free
//! hashing, service times come from the thread-invariant calibration
//! pass, and the event loop folds nodes and tenants in fixed index order.
//! Host wall-clock never enters any output, so a serving or fleet report
//! is byte-identical for any `ENMC_THREADS` and any worker count.

pub mod placement;
pub mod serve;
pub mod sim;

pub use placement::{place, zipf_weights, HashRing, Placement, PlacementPolicy, VNODES};
pub use sim::{
    simulate_fleet, FleetBatchRecord, FleetConfig, FleetOutcome, FleetRequest, TenantConfig,
    TenantOutcome,
};
