//! Golden-trace regression: the Chrome `trace_event` export of one fixed
//! rank job is checked in at `tests/golden/rank_trace.chrome.json`. The
//! exporter's byte output, the span-nesting invariants and the per-phase
//! cycle totals must all stay stable; an intentional change to any of
//! them is re-blessed with `ENMC_BLESS=1 cargo test --test golden_trace`.

use enmc::arch::system::SystemModel;
use enmc::arch::unit::{RankJob, RankUnit, UnitReport};
use enmc::dram::DramConfig;
use enmc::obs::trace::{export_chrome, validate_chrome, TID_PHASES};
use enmc::obs::{TraceBuffer, Value};

const GOLDEN: &str = include_str!("golden/rank_trace.chrome.json");
const GOLDEN_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/rank_trace.chrome.json");

/// The fixed job the fixture was produced from. The uneven candidate
/// counts keep the gather phase's per-item spans distinguishable.
fn golden_job() -> RankJob {
    RankJob {
        categories: 512,
        hidden: 256,
        reduced: 64,
        batch: 2,
        candidates_per_item: vec![24, 17],
    }
}

/// Re-simulates the golden job and exports its trace exactly as the CLI
/// would (unbounded buffer, DDR4-2400 cycle-to-ns conversion).
fn current_trace() -> (UnitReport, String) {
    let unit = RankUnit::new(SystemModel::table3().enmc_unit_params());
    let mut trace = TraceBuffer::unbounded();
    let report = unit.simulate_traced(&golden_job(), Some(&mut trace), false);
    let ns_per_cycle = DramConfig::enmc_single_rank().timing.cycles_to_ns(1);
    let chrome = export_chrome(&trace.drain(), ns_per_cycle);
    (report, chrome)
}

#[test]
fn golden_trace_is_reproduced_exactly() {
    let (_, chrome) = current_trace();
    if std::env::var_os("ENMC_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &chrome).expect("write golden fixture");
        return;
    }
    assert!(
        chrome == GOLDEN,
        "trace export drifted from tests/golden/rank_trace.chrome.json \
         ({} vs {} bytes); if the change is intentional, re-bless with \
         ENMC_BLESS=1 cargo test --test golden_trace",
        chrome.len(),
        GOLDEN.len(),
    );
}

#[test]
fn golden_trace_passes_the_span_nesting_validator() {
    let summary = validate_chrome(GOLDEN).expect("golden trace must validate");
    assert!(summary.begins > 0, "no spans in fixture");
    assert_eq!(summary.begins, summary.ends, "unbalanced spans");
    assert!(summary.instants > 0, "no DRAM command markers");
    assert!(summary.has_category("dram"), "missing dram category");
    assert!(summary.has_category("pipeline"), "missing pipeline category");
}

#[test]
fn golden_phase_spans_carry_the_exact_cycle_totals() {
    // The screen/gather/activation summary spans in the fixture must
    // reproduce the simulator's phase boundaries cycle-for-cycle: the
    // trace is the observability layer's claim about where time went, and
    // it has to agree with the UnitReport the RunReport phases are built
    // from.
    let (report, _) = current_trace();
    let ns_per_cycle = DramConfig::enmc_single_rank().timing.cycles_to_ns(1);
    let to_cycles = |us: f64| (us * 1000.0 / ns_per_cycle).round() as u64;

    let doc = Value::parse(GOLDEN).expect("fixture parses");
    let events = doc.get("traceEvents").and_then(Value::as_arr).expect("traceEvents");
    let mut spans: Vec<(String, u64, u64)> = Vec::new(); // (name, begin, end)
    let mut open: Vec<(String, u64)> = Vec::new();
    for e in events {
        if e.get("tid").and_then(Value::as_u64) != Some(TID_PHASES as u64) {
            continue;
        }
        let name = e.get("name").and_then(Value::as_str).expect("name").to_string();
        let ts = to_cycles(e.get("ts").and_then(Value::as_f64).expect("ts"));
        match e.get("ph").and_then(Value::as_str) {
            Some("B") => open.push((name, ts)),
            Some("E") => {
                let (b_name, b_ts) = open.pop().expect("balanced");
                assert_eq!(b_name, name, "phase spans must nest trivially");
                spans.push((name, b_ts, ts));
            }
            other => panic!("unexpected ph {other:?} on the phase track"),
        }
    }
    assert!(open.is_empty(), "phase span left open");

    let expected = [
        ("screen", 0, report.screen_done_cycle),
        ("gather", report.screen_done_cycle, report.exec_done_cycle),
        ("activation", report.exec_done_cycle, report.dram_cycles),
    ];
    assert_eq!(spans.len(), expected.len(), "fixture phase spans: {spans:?}");
    for ((name, begin, end), (e_name, e_begin, e_end)) in spans.iter().zip(expected) {
        assert_eq!(name, e_name);
        assert_eq!((*begin, *end), (e_begin, e_end), "{name} span boundaries");
    }
    let total: u64 = spans.iter().map(|(_, b, e)| e - b).sum();
    assert_eq!(total, report.dram_cycles, "phase cycles must tile the run");
}
