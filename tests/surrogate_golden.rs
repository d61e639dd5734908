//! Golden surrogate regression: the schema-v11 `RunReport` of one fixed
//! fault-sweep scenario answered by the *surrogate* cost backend is
//! checked in at `tests/golden/surrogate_report.json`. It pins the
//! `surrogate` section end to end — backend name, anchor count, audited
//! points, worst bound-normalized audit error — plus the `fault` section
//! the predicted energy join feeds. Only a change to the core or to those
//! sections re-blesses it, with
//! `ENMC_BLESS=1 cargo test --test surrogate_golden`.

use enmc::cli::FaultShape;
use enmc::obs::report::RunReport;
use enmc::resilience::{run_fault_sweep, FaultSweepArgs};
use enmc::surrogate::{CostBackend, DECLARED_BOUND};

const GOLDEN: &str = include_str!("golden/surrogate_report.json");
const GOLDEN_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/surrogate_report.json");

/// The fixed scenario the fixture was produced from: the same sweep as
/// the fault golden but with every energy join predicted by the
/// surrogate and audited (rate 1.0), so any drift in the DoE plan, the
/// fit, the prediction arithmetic, or the audit accounting moves bytes.
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
        backend: CostBackend::Surrogate { audit_rate: 1.0 },
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
fn golden_surrogate_report_is_reproduced_exactly() {
    let json = current_report();
    if std::env::var_os("ENMC_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &json).expect("write golden fixture");
        return;
    }
    assert!(
        json == GOLDEN,
        "surrogate report drifted from tests/golden/surrogate_report.json \
         ({} vs {} bytes); if the change is intentional, re-bless with \
         ENMC_BLESS=1 cargo test --test surrogate_golden\n--- current ---\n{}",
        json.len(),
        GOLDEN.len(),
        json
    );
}

#[test]
fn golden_fixture_parses_and_pins_the_surrogate_fields() {
    let report = RunReport::from_json(GOLDEN.trim_end()).expect("fixture parses");
    assert_eq!(report.schema_version, 11);
    assert_eq!(report.command, "fault-sweep");
    assert_eq!(report.sections(), ["fault", "surrogate"]);
    let surrogate = report.surrogate.as_ref().unwrap();
    assert_eq!(surrogate.cost_backend, "surrogate");
    assert!(surrogate.fit_anchors > 0, "fixture must record the fit's anchor simulations");
    assert_eq!(surrogate.audit_points, 2, "audit rate 1.0 audits both sweep points");
    assert!(
        surrogate.audit_max_rel_err > 0.0 && surrogate.audit_max_rel_err <= DECLARED_BOUND.rel,
        "audit error must be recorded and within the declared bound, got {}",
        surrogate.audit_max_rel_err
    );
    assert_eq!(report.threads, 0, "no host timing in worker-invariant reports");
}
