//! Golden fleet-report regression: the schema-v11 `RunReport` of one
//! fixed two-tenant contention scenario is checked in at
//! `tests/golden/fleet_report.json`. The report's byte output — the
//! `serving`, `surrogate` and `fleet` sections (per-tenant rows
//! included), metrics snapshot, notes — must stay stable; only a change
//! to the core or to those sections re-blesses it, with
//! `ENMC_BLESS=1 cargo test --test fleet_golden`.
//!
//! The fixture runs on the **surrogate** cost backend with the audit
//! lottery at 100%, so every calibration point is re-simulated
//! cycle-accurately and the fixture doubles as a pinned end-to-end audit
//! pass (`audit_points > 0`, within bound, or the run would have failed).

use enmc::arch::system::{ClassificationJob, SystemModel};
use enmc::fleet::{simulate_fleet, FleetConfig, FleetOutcome, PlacementPolicy, TenantConfig};
use enmc::obs::report::RunReport;
use enmc::obs::MetricsRegistry;
use enmc::par::SimConfig;
use enmc::serve::tier::DegradeTier;
use enmc::serve::ArrivalProcess;
use enmc::surrogate::{CostBackend, CostModel};

const GOLDEN: &str = include_str!("golden/fleet_report.json");
const GOLDEN_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fleet_report.json");

/// The fixed scenario: two tenants contending for a 2-node fleet. Tenant
/// t0 (high priority, deep shed queue) must lose nothing; tenant t1
/// (low priority, shallow shed queue, heavier traffic) must shed — the
/// asymmetry the admission controller exists to produce.
fn golden_scenario() -> (ClassificationJob, FleetConfig) {
    let job =
        ClassificationJob { categories: 2048, hidden: 64, reduced: 16, batch: 1, candidates: 128 };
    let tiers = vec![
        DegradeTier { candidates: 128, screen_shift: 0 },
        DegradeTier { candidates: 64, screen_shift: 1 },
    ];
    let mut t0 = TenantConfig::new(
        "t0",
        ArrivalProcess::Poisson { rate: 0.2 },
        48,
        30_000,
        tiers.clone(),
        11,
    );
    t0.shed_queue_depth = 64;
    let mut t1 = TenantConfig::new(
        "t1",
        ArrivalProcess::Burst {
            calm_rate: 0.05,
            burst_rate: 40.0,
            calm_cycles: 20_000.0,
            burst_cycles: 10_000.0,
        },
        96,
        60_000,
        tiers,
        12,
    );
    t1.shed_queue_depth = 6;
    let cfg = FleetConfig {
        nodes: 2,
        shards: 2,
        replicas: 1,
        placement: PlacementPolicy::PopularityAware,
        zipf_s: 1.0,
        batch_max: 3,
        linger_cycles: 500,
        lanes: 1,
        tenants: vec![t0, t1],
        seed: 7,
        ..Default::default()
    };
    (job, cfg)
}

/// Re-runs the golden scenario exactly as the CLI would — surrogate
/// backend, every prediction audited — and renders its schema-v11 report
/// (trailing newline so the fixture is a POSIX file).
fn current_report() -> (FleetOutcome, String) {
    let (job, cfg) = golden_scenario();
    let mut registry = MetricsRegistry::new();
    let mut cost = CostModel::new(CostBackend::Surrogate { audit_rate: 1.0 }, cfg.seed);
    let out = simulate_fleet(
        &SystemModel::table3(),
        &job,
        &cfg,
        &SimConfig::sequential(),
        &mut registry,
        &mut cost,
    )
    .expect("every audited calibration point must stay within the surrogate bound");
    let json = format!("{}\n", out.report("golden", &cfg, &registry).to_json());
    (out, json)
}

#[test]
fn golden_fleet_report_is_reproduced_exactly() {
    let (_, json) = current_report();
    if std::env::var_os("ENMC_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &json).expect("write golden fixture");
        return;
    }
    assert!(
        json == GOLDEN,
        "fleet report drifted from tests/golden/fleet_report.json \
         ({} vs {} bytes); if the change is intentional, re-bless with \
         ENMC_BLESS=1 cargo test --test fleet_golden\n--- current ---\n{}",
        json.len(),
        GOLDEN.len(),
        json
    );
}

#[test]
fn golden_fixture_parses_and_pins_the_fleet_fields() {
    let report = RunReport::from_json(GOLDEN.trim_end()).expect("fixture parses");
    assert_eq!(report.schema_version, 11);
    assert_eq!(report.command, "fleet-sim");
    assert_eq!(report.sections(), ["serving", "surrogate", "fleet"]);
    let fleet = report.fleet.as_ref().unwrap();
    assert_eq!(fleet.nodes, 2);
    assert_eq!(fleet.placement, "popularity");
    assert_eq!(fleet.hot_shard_replicas, 1);
    assert!(fleet.network_share > 0.0, "a 2-node fleet must pay the interconnect");

    // The priority asymmetry: only the low-priority tenant sheds.
    assert_eq!(fleet.tenants.len(), 2);
    assert_eq!(fleet.tenants[0].name, "t0");
    assert_eq!(fleet.tenants[0].shed, 0, "high-priority tenant must lose nothing");
    assert!(fleet.tenants[1].shed > 0, "low-priority tenant must shed under contention");
    assert!(fleet.tenants[0].slo_attainment > 0.9, "t0 must mostly meet its SLO");
    for row in &fleet.tenants {
        assert!(row.p99_ns > 0.0, "{} p99", row.name);
        assert_eq!(row.admitted, row.completed, "{} queue must drain", row.name);
    }

    // The surrogate ran and the audit lottery exercised it end to end.
    let surrogate = report.surrogate.as_ref().unwrap();
    assert_eq!(surrogate.cost_backend, "surrogate");
    assert!(surrogate.fit_anchors > 0, "surrogate must have fitted anchors");
    assert!(surrogate.audit_points > 0, "the 100% audit lottery must have fired");
    assert!(surrogate.audit_max_rel_err >= 0.0);
    assert_eq!(report.protocol_violations, 0);

    // The fixture's claims match a fresh run of its scenario.
    let (out, _) = current_report();
    let serving = report.serving.as_ref().unwrap();
    assert_eq!(serving.shed, out.tenants.iter().map(|t| t.shed).sum::<u64>());
    assert_eq!(
        serving.degrade_transitions,
        out.tenants.iter().map(|t| t.degrade_transitions).sum::<u64>()
    );
    assert_eq!(surrogate.audit_points, out.surrogate.audit_points);
}
