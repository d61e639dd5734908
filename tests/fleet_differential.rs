//! Differential conformance for the fleet simulator: like every
//! simulator in this workspace, the fleet report must be byte-identical
//! across worker counts for every paper shape.

use enmc::arch::system::{ClassificationJob, SystemModel};
use enmc::fleet::{simulate_fleet, FleetConfig, PlacementPolicy, TenantConfig};
use enmc::obs::MetricsRegistry;
use enmc::par::SimConfig;
use enmc::serve::{ArrivalProcess, DegradeTier};
use enmc::surrogate::{CostBackend, CostModel};

/// Paper Table 2 shapes (categories x hidden) plus the S1M stress point,
/// with a ~0.1% screening budget — the same axis `tests/differential.rs`
/// sweeps, because the rank decomposition (and its non-divisible
/// remainders) is what calibration parallelism actually shards.
const SHAPES: &[(&str, usize, usize, usize)] = &[
    ("lstm", 33_278, 1_500, 33),
    ("transformer", 267_744, 512, 268),
    ("gnmt", 32_317, 1_024, 32),
    ("xmlcnn", 670_091, 512, 670),
    ("s1m", 1_000_000, 512, 1_000),
];

#[test]
fn fleet_report_is_byte_identical_across_worker_counts_for_every_paper_shape() {
    let sys = SystemModel::table3();
    for shape in SHAPES {
        let (name, categories, hidden, candidates) = *shape;
        let job = ClassificationJob { categories, hidden, reduced: 32, batch: 1, candidates };
        // A single-tier ladder keeps the calibration pass (the only
        // parallelizable phase) to two sharded runs per worker count; the
        // byte-identity contract is about those runs, not ladder depth.
        let tiers = vec![DegradeTier { candidates, screen_shift: 0 }];
        let tenants = vec![
            TenantConfig::new(
                "t0",
                ArrivalProcess::Poisson { rate: 0.02 },
                12,
                2_000_000,
                tiers.clone(),
                7,
            ),
            TenantConfig::new(
                "t1",
                ArrivalProcess::Poisson { rate: 0.02 },
                12,
                4_000_000,
                tiers.clone(),
                8,
            ),
        ];
        let cfg = FleetConfig {
            nodes: 2,
            shards: 2,
            replicas: 1,
            placement: PlacementPolicy::PopularityAware,
            zipf_s: 1.0,
            batch_max: 2,
            linger_cycles: 2_000,
            lanes: 1,
            tenants,
            seed: 7,
            ..Default::default()
        };
        let mut json = Vec::new();
        for threads in [1usize, 4] {
            let sim = SimConfig::with_threads(threads);
            let mut registry = MetricsRegistry::new();
            let mut cost = CostModel::new(CostBackend::CycleAccurate, 7);
            let out = simulate_fleet(&sys, &job, &cfg, &sim, &mut registry, &mut cost)
                .expect("cycle-accurate backend cannot violate an audit");
            json.push(out.report(name, &cfg, &registry).to_json());
        }
        assert_eq!(json[0], json[1], "{name}: fleet report must not depend on worker count");
    }
}
