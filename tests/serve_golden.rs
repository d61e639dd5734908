//! Golden serving-report regression: the schema-v11 `RunReport` of one
//! fixed burst scenario is checked in at `tests/golden/serve_report.json`.
//! The scenario runs the serving loop as `serve-sim` does — a 1-node,
//! 1-shard, 1-tenant fleet — and renders the single-node view of its
//! outcome. The report's byte output — headline numbers, the `serving`
//! and `surrogate` sections, metrics snapshot, notes — must stay stable;
//! only a change to the core or to those sections re-blesses it, with
//! `ENMC_BLESS=1 cargo test --test serve_golden`.

use enmc::arch::system::{ClassificationJob, SystemModel};
use enmc::fleet::{simulate_fleet, FleetConfig, FleetOutcome, TenantConfig};
use enmc::obs::report::RunReport;
use enmc::obs::trace::{export_chrome, validate_chrome};
use enmc::obs::{MetricsRegistry, TraceBuffer};
use enmc::par::SimConfig;
use enmc::serve::{ArrivalProcess, DegradeTier};
use enmc::surrogate::{CostBackend, CostModel};

const GOLDEN: &str = include_str!("golden/serve_report.json");
const GOLDEN_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/serve_report.json");

/// The fixed scenario the fixture was produced from: a burst overload on
/// a small job, tuned so the controller both sheds and walks the degrade
/// ladder (the interesting code paths) while p99 stays under the SLO.
fn golden_scenario() -> (ClassificationJob, FleetConfig) {
    let job =
        ClassificationJob { categories: 2048, hidden: 64, reduced: 16, batch: 1, candidates: 128 };
    let tenant = TenantConfig {
        name: "t0".to_string(),
        arrival: ArrivalProcess::Burst {
            calm_rate: 0.05,
            burst_rate: 50.0,
            calm_cycles: 20_000.0,
            burst_cycles: 10_000.0,
        },
        requests: 200,
        slo_cycles: 1_500,
        tiers: vec![
            DegradeTier { candidates: 128, screen_shift: 0 },
            DegradeTier { candidates: 64, screen_shift: 1 },
            DegradeTier { candidates: 32, screen_shift: 2 },
        ],
        degrade_queue_depth: 4,
        upgrade_queue_depth: 1,
        shed_queue_depth: 12,
        seed: 3,
    };
    let cfg = FleetConfig {
        nodes: 1,
        shards: 1,
        replicas: 0,
        zipf_s: 0.0,
        batch_max: 4,
        linger_cycles: 300,
        lanes: 1,
        tenants: vec![tenant],
        seed: 3,
        ..Default::default()
    };
    (job, cfg)
}

/// Re-runs the golden scenario exactly as the CLI would and renders its
/// schema-v11 report (trailing newline so the fixture is a POSIX file).
fn current_report() -> (FleetOutcome, String) {
    let (job, cfg) = golden_scenario();
    let mut cost = CostModel::new(CostBackend::CycleAccurate, 3);
    let sys = SystemModel::table3();
    let sim = SimConfig::sequential();
    let out = simulate_fleet(&sys, &job, &cfg, &sim, &mut MetricsRegistry::new(), &mut cost)
        .expect("cycle-accurate backend cannot violate an audit");
    let mut registry = MetricsRegistry::new();
    out.record_serve_metrics(&mut registry);
    let json = format!("{}\n", out.serve_report("golden", &cfg, &registry).to_json());
    (out, json)
}

#[test]
fn golden_serve_report_is_reproduced_exactly() {
    let (_, json) = current_report();
    if std::env::var_os("ENMC_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &json).expect("write golden fixture");
        return;
    }
    assert!(
        json == GOLDEN,
        "serving report drifted from tests/golden/serve_report.json \
         ({} vs {} bytes); if the change is intentional, re-bless with \
         ENMC_BLESS=1 cargo test --test serve_golden\n--- current ---\n{}",
        json.len(),
        GOLDEN.len(),
        json
    );
}

#[test]
fn golden_fixture_parses_and_exercises_the_interesting_paths() {
    let report = RunReport::from_json(GOLDEN.trim_end()).expect("fixture parses");
    assert_eq!(report.schema_version, 11);
    assert_eq!(report.command, "serve-sim");
    assert_eq!(report.sections(), ["serving", "surrogate"]);
    let serving = report.serving.as_ref().unwrap();
    assert!(serving.shed > 0, "fixture must shed");
    assert!(serving.degrade_transitions > 0, "fixture must walk the degrade ladder");
    assert!(serving.slo_attainment > 0.9, "fixture must mostly meet its SLO");
    assert!(serving.p99_ns > 0.0);
    assert_eq!(report.protocol_violations, 0);

    // The single-node report carries only the serve.* series.
    assert!(report.metrics.counters.iter().all(|c| c.name.starts_with("serve.")));
    assert!(report.metrics.gauges.iter().all(|g| g.name.starts_with("serve.")));
    assert!(report.metrics.histograms.iter().all(|h| h.name.starts_with("serve.")));

    // The fixture's claims match a fresh run of its scenario.
    let (out, _) = current_report();
    let t = &out.tenants[0];
    assert_eq!(serving.shed, t.shed);
    assert_eq!(serving.degrade_transitions, t.degrade_transitions);
    let slo_cycles = golden_scenario().1.tenants[0].slo_cycles as f64;
    assert!(
        t.latency.p99() <= slo_cycles,
        "p99 {} cycles must stay under the {} cycle SLO",
        t.latency.p99(),
        slo_cycles
    );
}

/// `serve-sim --trace-out` on the golden scenario: a valid Chrome trace
/// with one shed instant per shed request, one tier instant per degrade
/// transition, and a begin/end pair per batch.
#[test]
fn golden_scenario_trace_is_valid_and_counts_every_event() {
    let (out, _) = current_report();
    let mut tb = TraceBuffer::unbounded();
    out.serve_trace(&mut tb);
    let events = tb.drain();
    let count = |name: &str| events.iter().filter(|e| e.name == name).count() as u64;
    let t = &out.tenants[0];
    assert_eq!(count("shed"), t.shed);
    assert_eq!(count("degrade") + count("upgrade"), t.degrade_transitions);
    assert_eq!(count("batch"), 2 * out.batches.len() as u64);
    let summary = validate_chrome(&export_chrome(&events, out.ns_per_cycle)).unwrap();
    assert_eq!(summary.begins, out.batches.len());
    assert!(summary.has_category("serve"));
}
