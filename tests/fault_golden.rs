//! Golden fault-sweep regression: the schema-v11 `RunReport` of one fixed
//! resilience scenario is checked in at `tests/golden/fault_report.json`.
//! The report's byte output — the `fault` and `surrogate` sections,
//! metrics snapshot, notes — must stay stable; only a change to the core
//! or to those sections re-blesses it, with
//! `ENMC_BLESS=1 cargo test --test fault_golden`.

use enmc::cli::FaultShape;
use enmc::obs::report::RunReport;
use enmc::resilience::{run_fault_sweep, FaultSweepArgs};

const GOLDEN: &str = include_str!("golden/fault_report.json");
const GOLDEN_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fault_report.json");

/// The fixed scenario the fixture was produced from: a light uniform BER
/// with SEC-DED on and one relaxed-refresh point, so the fixture pins
/// every interesting path at once — injection, correction, retention
/// failures, and the energy join.
fn golden_args() -> FaultSweepArgs {
    FaultSweepArgs {
        shape: FaultShape::LstmWikitext2,
        ber: 1e-4,
        multipliers: vec![1.0, 32.0],
        weak_columns: 0.0,
        ecc: true,
        queries: 16,
        seed: 7,
        workers: 1,
        backend: enmc::surrogate::CostBackend::CycleAccurate,
        memory: enmc::mem::MemTech::Ddr4_2666,
        coeffs_in: None,
        coeffs_out: None,
    }
}

/// Re-runs the golden scenario exactly as the CLI would and renders its
/// schema-v11 report (trailing newline so the fixture is a POSIX file).
fn current_report() -> String {
    let (_, _, report) = run_fault_sweep(&golden_args(), None).expect("golden sweep runs");
    format!("{}\n", report.to_json())
}

#[test]
fn golden_fault_report_is_reproduced_exactly() {
    let json = current_report();
    if std::env::var_os("ENMC_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &json).expect("write golden fixture");
        return;
    }
    assert!(
        json == GOLDEN,
        "fault report drifted from tests/golden/fault_report.json \
         ({} vs {} bytes); if the change is intentional, re-bless with \
         ENMC_BLESS=1 cargo test --test fault_golden\n--- current ---\n{}",
        json.len(),
        GOLDEN.len(),
        json
    );
}

#[test]
fn golden_fixture_parses_and_pins_the_fault_fields() {
    let report = RunReport::from_json(GOLDEN.trim_end()).expect("fixture parses");
    assert_eq!(report.schema_version, 11);
    assert_eq!(report.command, "fault-sweep");
    assert_eq!(report.workload, "lstm-wikitext2");
    assert_eq!(report.memory_tech, "ddr4-2666");
    assert_eq!(report.sections(), ["fault", "surrogate"]);
    let fault = report.fault.as_ref().unwrap();
    assert_eq!(fault.ber_scale, 1.0);
    assert_eq!(fault.ber, 1e-4);
    assert_eq!(fault.refresh_multiplier, 32.0);
    assert!(fault.ecc_corrected > 0, "fixture must exercise SEC-DED correction");
    assert_eq!(report.threads, 0, "no host timing in worker-invariant reports");
    assert!(
        report.metrics.gauges.iter().any(|g| g.name.starts_with("fault.")),
        "fixture must carry the fault metrics snapshot"
    );
}
