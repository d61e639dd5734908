//! Distributed-systems invariants of the fleet simulator: consistent-hash
//! ring balance and minimal disruption, query conservation per tenant and
//! fleet-wide, realizable per-node batch schedules, and placement-policy
//! invariance of the routed work — over randomized cluster shapes and
//! traffic.

use enmc::arch::system::{ClassificationJob, SystemModel};
use enmc::fleet::{simulate_fleet, FleetConfig, HashRing, PlacementPolicy, TenantConfig};
use enmc::obs::MetricsRegistry;
use enmc::par::SimConfig;
use enmc::serve::arrival::SplitMix64;
use enmc::serve::tier::{default_tiers, DegradeTier};
use enmc::serve::ArrivalProcess;
use enmc::surrogate::{CostBackend, CostModel};
use proptest::prelude::*;

/// Small enough that each case's calibration pass stays in the
/// milliseconds (the same job `tests/serve_properties.rs` uses).
fn small_job() -> ClassificationJob {
    ClassificationJob { categories: 2048, hidden: 64, reduced: 16, batch: 1, candidates: 128 }
}

fn run(job: &ClassificationJob, cfg: &FleetConfig) -> enmc::fleet::FleetOutcome {
    let mut registry = MetricsRegistry::new();
    let mut cost = CostModel::new(CostBackend::CycleAccurate, cfg.seed);
    simulate_fleet(&SystemModel::table3(), job, cfg, &SimConfig::sequential(), &mut registry, &mut cost)
        .expect("cycle-accurate backend cannot violate an audit")
}

/// A randomized but always-valid two-tenant fleet scenario.
fn scenario() -> impl Strategy<Value = FleetConfig> {
    (
        (1usize..5, 1usize..7, 0usize..5, any::<bool>(), 0u8..4),
        (0.01f64..2.0, 4usize..32, 1usize..5, 100u64..3_000, 1usize..3),
        (2_000u64..200_000, any::<u64>()),
    )
        .prop_map(
            |(
                (nodes, shards, replicas, popularity, zipf_half_steps),
                (rate, requests, batch_max, linger_cycles, lanes),
                (slo_cycles, seed),
            )| {
                let tiers = default_tiers(&small_job());
                let mk = |i: u64, shed_depth: usize| {
                    let mut t = TenantConfig::new(
                        &format!("t{i}"),
                        ArrivalProcess::Poisson { rate },
                        requests,
                        slo_cycles * (i + 1),
                        tiers.clone(),
                        seed.wrapping_add(i),
                    );
                    t.shed_queue_depth = shed_depth;
                    t
                };
                FleetConfig {
                    nodes,
                    shards,
                    replicas,
                    placement: if popularity {
                        PlacementPolicy::PopularityAware
                    } else {
                        PlacementPolicy::ConsistentHash
                    },
                    zipf_s: zipf_half_steps as f64 * 0.5,
                    batch_max,
                    linger_cycles,
                    lanes,
                    tenants: vec![mk(0, 48), mk(1, 8)],
                    seed,
                    ..Default::default()
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The 64-vnode ring spreads keys evenly: no node owns more than
    /// 2.5x its fair share of a large uniform key population (the
    /// statistical bound for 64 vnodes is ~1.4x; 2.5x leaves slack so
    /// the test never flakes on an unlucky hash draw).
    #[test]
    fn ring_balance_is_bounded(nodes in 2usize..9, seed in any::<u64>()) {
        let ring = HashRing::new(nodes);
        let keys = 4096usize;
        let mut owned = vec![0u64; nodes];
        let mut rng = SplitMix64::new(seed);
        for _ in 0..keys {
            owned[ring.owner(rng.next_u64())] += 1;
        }
        let fair = keys as f64 / nodes as f64;
        for (n, &o) in owned.iter().enumerate() {
            prop_assert!(
                (o as f64) <= fair * 2.5,
                "node {n} owns {o} of {keys} keys (fair share {fair:.0})"
            );
        }
    }

    /// Adding a node moves keys *only onto the new node* (no key
    /// shuffles between surviving nodes), and the moved fraction is
    /// near the ideal 1/(n+1).
    #[test]
    fn ring_growth_causes_minimal_disruption(nodes in 2usize..9, seed in any::<u64>()) {
        let before = HashRing::new(nodes);
        let after = HashRing::new(nodes + 1);
        let keys = 4096usize;
        let mut moved = 0u64;
        let mut rng = SplitMix64::new(seed);
        for _ in 0..keys {
            let k = rng.next_u64();
            let (a, b) = (before.owner(k), after.owner(k));
            if a != b {
                prop_assert_eq!(b, nodes, "keys may only move to the new node {}, not {}", nodes, b);
                moved += 1;
            }
        }
        let ideal = keys as f64 / (nodes + 1) as f64;
        prop_assert!(
            (moved as f64) <= ideal * 2.5,
            "moved {moved} of {keys} keys; ideal {ideal:.0}"
        );
    }

    /// Every generated query is accounted for exactly once, per tenant
    /// and fleet-wide: shed at admission or completed (the fleet drains
    /// its queues), and the router's per-shard tallies cover exactly the
    /// admitted queries.
    #[test]
    fn queries_are_conserved(cfg in scenario()) {
        let job = small_job();
        let out = run(&job, &cfg);
        for t in &out.tenants {
            prop_assert_eq!(t.generated, t.admitted + t.shed, "{}", &t.name);
            prop_assert_eq!(t.admitted, t.completed, "{} queue must drain", &t.name);
            prop_assert_eq!(t.latency.count(), t.completed, "{} histogram", &t.name);
            prop_assert_eq!(
                t.per_tier_completed.iter().sum::<u64>(),
                t.completed,
                "{} per-tier sum",
                &t.name
            );
        }
        let admitted: u64 = out.tenants.iter().map(|t| t.admitted).sum();
        let routed: u64 = out.shard_queries.iter().sum();
        prop_assert_eq!(routed, admitted, "router tally");
        let in_batches: u64 = out.batches.iter().map(|b| b.size as u64).sum();
        prop_assert_eq!(in_batches, admitted, "batch membership");
    }

    /// Every node's batch schedule is realizable: no lane is
    /// double-booked, every batch is non-empty, within `batch_max`, on a
    /// real lane and takes time, and each tenant's batches on a node
    /// leave in FIFO order — dispatch times and oldest-member arrivals
    /// never decrease within a (node, tenant) pair.
    #[test]
    fn per_node_batches_are_realizable_and_fifo(cfg in scenario()) {
        let out = run(&small_job(), &cfg);
        let mut lane_free = vec![vec![0u64; cfg.lanes]; cfg.nodes];
        let mut last = vec![vec![(0u64, 0u64); cfg.tenants.len()]; cfg.nodes];
        for b in &out.batches {
            prop_assert!(b.size >= 1 && b.size <= cfg.batch_max, "size {}", b.size);
            prop_assert!(b.lane < cfg.lanes, "lane {} of {}", b.lane, cfg.lanes);
            prop_assert!(b.end > b.start, "empty service {}..{}", b.start, b.end);
            prop_assert!(b.start >= b.oldest_arrival, "dispatched before its arrival");
            prop_assert!(
                lane_free[b.node][b.lane] <= b.start,
                "node {} lane {} double-booked at {}",
                b.node, b.lane, b.start
            );
            lane_free[b.node][b.lane] = b.end;
            let (start, oldest) = last[b.node][b.tenant];
            prop_assert!(b.start >= start, "node {} tenant {} start went back", b.node, b.tenant);
            prop_assert!(
                b.oldest_arrival >= oldest,
                "node {} tenant {} dispatched out of FIFO order",
                b.node, b.tenant
            );
            last[b.node][b.tenant] = (b.start, b.oldest_arrival);
        }
    }

    /// With no replication, no shedding, and a flat ladder, the *routed
    /// work* is placement-invariant: both policies see identical
    /// per-shard query counts (the shard draw stream does not depend on
    /// where shards live) and complete every query.
    #[test]
    fn routed_work_is_placement_invariant_without_replication(
        nodes in 1usize..5,
        shards in 1usize..7,
        zipf_half_steps in 0u8..4,
        seed in any::<u64>(),
    ) {
        let job = small_job();
        let tiers = vec![DegradeTier { candidates: 128, screen_shift: 0 }];
        let mut t0 = TenantConfig::new(
            "t0",
            ArrivalProcess::Poisson { rate: 0.2 },
            24,
            10_000_000,
            tiers,
            seed,
        );
        // A bottomless queue: nothing sheds, so admissions equal draws.
        t0.shed_queue_depth = usize::MAX;
        let base = FleetConfig {
            nodes,
            shards,
            replicas: 0,
            zipf_s: zipf_half_steps as f64 * 0.5,
            tenants: vec![t0],
            seed,
            ..Default::default()
        };
        let ch = run(&job, &FleetConfig {
            placement: PlacementPolicy::ConsistentHash,
            ..base.clone()
        });
        let pa = run(&job, &FleetConfig {
            placement: PlacementPolicy::PopularityAware,
            ..base
        });
        prop_assert_eq!(&ch.shard_queries, &pa.shard_queries, "per-shard routed counts");
        for out in [&ch, &pa] {
            prop_assert_eq!(out.tenants[0].shed, 0);
            prop_assert_eq!(out.tenants[0].completed, out.tenants[0].generated);
            prop_assert_eq!(out.hot_shard_replicas, 0, "replica budget must stay unspent");
        }
    }
}
