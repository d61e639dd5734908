//! Distributed scale-out of ENMC (paper §8: "our design can scale-out
//! from single-node to distributed nodes, where each node keeps an
//! approximate screener").
//!
//! For catalogues beyond one node's memory (S100M at 190 GB already
//! strains a 512 GB host), the classifier is sharded row-wise over `N`
//! nodes. Each node holds its shard's screening weights *and* classifier
//! rows, so a query is:
//!
//! 1. broadcast `h` to all nodes (small: `d` floats);
//! 2. every node screens its shard and computes its local candidates on
//!    its own ENMC DIMMs (perfectly parallel);
//! 3. nodes return their top local logits (a few KB); the root merges.
//!
//! The network model is a simple latency + bandwidth pipe; the point of
//! the analysis is that the returned data is *tiny* (candidates only), so
//! scale-out efficiency stays high — screening made the communication
//! cheap, not just the computation.

use crate::system::{ClassificationJob, Scheme, SchemeResult, SystemModel};

/// A cluster interconnect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Network {
    /// One-way latency per message, nanoseconds.
    pub latency_ns: f64,
    /// Bandwidth in bytes/second.
    pub bandwidth: f64,
}

impl Network {
    /// A 100 Gb/s RoCE-class fabric.
    pub fn roce_100g() -> Self {
        Network { latency_ns: 2_000.0, bandwidth: 12.5e9 }
    }

    /// Time to move `bytes` one way.
    pub fn transfer_ns(&self, bytes: u64) -> f64 {
        self.latency_ns + bytes as f64 / self.bandwidth * 1e9
    }

    /// [`Network::transfer_ns`] converted to whole DRAM-clock cycles
    /// (rounded up), for discrete-event simulators that account time in
    /// cycles. `ns_per_cycle` must be positive.
    pub fn transfer_cycles(&self, bytes: u64, ns_per_cycle: f64) -> u64 {
        debug_assert!(ns_per_cycle > 0.0, "cycle time must be positive");
        (self.transfer_ns(bytes) / ns_per_cycle).ceil() as u64
    }
}

/// Result of a scale-out projection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleOutResult {
    /// Number of nodes.
    pub nodes: usize,
    /// Per-query latency, nanoseconds.
    pub ns: f64,
    /// Fraction of time spent on the network.
    pub network_share: f64,
    /// Parallel efficiency vs the 1-node run (`t₁ / (N · t_N)`).
    pub efficiency: f64,
}

/// Projects `job` sharded over `nodes` machines, each a full Table 3
/// system running `scheme`.
///
/// # Panics
///
/// Panics if `nodes == 0`.
pub fn scale_out(
    system: &SystemModel,
    network: &Network,
    job: &ClassificationJob,
    scheme: Scheme,
    nodes: usize,
) -> ScaleOutResult {
    assert!(nodes > 0, "need at least one node");
    let shard = ClassificationJob {
        categories: job.categories.div_ceil(nodes),
        hidden: job.hidden,
        reduced: job.reduced,
        batch: job.batch,
        candidates: job.candidates.div_ceil(nodes),
        // Shards keep their per-node structure otherwise.
    };
    let local: SchemeResult = system.run(&shard, scheme);

    // Broadcast h (d floats per batch item) + gather each node's local
    // top logits (candidates × (index + value) = 8 B each).
    let bcast = network.transfer_ns((job.batch * job.hidden * 4) as u64);
    let gather =
        network.transfer_ns((job.batch * shard.candidates * 8) as u64) * (nodes as f64).log2().max(1.0);
    let network_ns = if nodes == 1 { 0.0 } else { bcast + gather };
    let total = local.ns + network_ns;

    // 1-node reference for efficiency.
    let t1 = system.run(job, scheme).ns;
    ScaleOutResult {
        nodes,
        ns: total,
        network_share: network_ns / total,
        efficiency: t1 / (nodes as f64 * total),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> ClassificationJob {
        ClassificationJob {
            categories: 1_048_576,
            hidden: 512,
            reduced: 128,
            batch: 1,
            candidates: 4096,
        }
    }

    #[test]
    fn network_transfer_model() {
        let n = Network::roce_100g();
        assert!(n.transfer_ns(0) == 2_000.0);
        // 12.5 GB at 12.5 GB/s = 1 s.
        assert!((n.transfer_ns(12_500_000_000) - 1e9 - 2000.0).abs() < 1.0);
    }

    #[test]
    fn transfer_cycles_round_up() {
        let n = Network::roce_100g();
        // 2000 ns latency at 0.75 ns/cycle = 2666.67 cycles -> 2667.
        assert_eq!(n.transfer_cycles(0, 0.75), 2667);
        assert!(n.transfer_cycles(1 << 20, 0.75) > n.transfer_cycles(0, 0.75));
    }

    #[test]
    fn more_nodes_cut_latency() {
        let sys = SystemModel::table3();
        let net = Network::roce_100g();
        let j = job();
        let one = scale_out(&sys, &net, &j, Scheme::Enmc, 1);
        let four = scale_out(&sys, &net, &j, Scheme::Enmc, 4);
        assert!(four.ns < one.ns, "4 nodes {} vs 1 node {}", four.ns, one.ns);
    }

    #[test]
    fn efficiency_degrades_gracefully() {
        let sys = SystemModel::table3();
        let net = Network::roce_100g();
        let j = job();
        let r4 = scale_out(&sys, &net, &j, Scheme::Enmc, 4);
        let r16 = scale_out(&sys, &net, &j, Scheme::Enmc, 16);
        assert!(r4.efficiency > r16.efficiency);
        assert!(r4.efficiency > 0.5, "4-node efficiency {}", r4.efficiency);
    }

    #[test]
    fn network_share_grows_with_nodes() {
        let sys = SystemModel::table3();
        let net = Network::roce_100g();
        let j = job();
        let r2 = scale_out(&sys, &net, &j, Scheme::Enmc, 2);
        let r32 = scale_out(&sys, &net, &j, Scheme::Enmc, 32);
        assert!(r32.network_share > r2.network_share);
    }

    #[test]
    fn single_node_has_no_network_cost() {
        let sys = SystemModel::table3();
        let net = Network::roce_100g();
        let r = scale_out(&sys, &net, &job(), Scheme::Enmc, 1);
        assert_eq!(r.network_share, 0.0);
        assert!((r.efficiency - 1.0).abs() < 1e-9);
    }
}
