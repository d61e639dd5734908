//! End-to-end checks of the observability layer: a traced simulation must
//! export a valid Chrome trace containing both DRAM command events and NMP
//! pipeline spans, and the structured run report must round-trip through
//! JSON with phase cycles that tile the headline latency exactly.

use enmc::arch::system::{ClassificationJob, Scheme, SystemModel};
use enmc::arch::unit::{RankJob, RankUnit};
use enmc::dram::DramConfig;
use enmc::obs::report::RunReport;
use enmc::obs::trace::{export_chrome, validate_chrome};
use enmc::obs::TraceBuffer;
use enmc::par::SimConfig;
use enmc::pipeline::report_from_sharded;

fn small_job() -> RankJob {
    RankJob {
        categories: 512,
        hidden: 256,
        reduced: 64,
        batch: 2,
        candidates_per_item: vec![24; 2],
    }
}

#[test]
fn traced_simulation_exports_a_valid_chrome_trace() {
    let unit = RankUnit::new(SystemModel::table3().enmc_unit_params());
    let mut trace = TraceBuffer::unbounded();
    let report = unit.simulate_traced(&small_job(), Some(&mut trace), false);
    assert!(report.dram_cycles > 0);

    let ns_per_cycle = DramConfig::enmc_single_rank().timing.cycles_to_ns(1);
    let events = trace.drain();
    assert!(!events.is_empty(), "traced run emitted no events");
    let chrome = export_chrome(&events, ns_per_cycle);
    let summary = validate_chrome(&chrome).expect("exported trace must validate");

    assert_eq!(summary.events, events.len());
    assert!(summary.begins > 0 && summary.begins == summary.ends, "unbalanced spans");
    assert!(summary.instants > 0, "no DRAM command events");
    assert!(summary.categories.iter().any(|c| c == "dram"), "missing dram category");
    assert!(summary.categories.iter().any(|c| c == "pipeline"), "missing pipeline category");
}

#[test]
fn system_run_report_is_consistent_and_round_trips() {
    let sys = SystemModel::table3();
    let job = ClassificationJob {
        categories: 33_278,
        hidden: 512,
        reduced: 128,
        batch: 1,
        candidates: 1_700,
    };
    let run = sys.run_sharded(&job, Scheme::Enmc, &SimConfig::sequential());
    let report = report_from_sharded("simulate", "lstm", &job, &sys, &run);

    assert!(report.is_consistent(), "phase cycles must tile the simulated cycles");
    assert_eq!(report.sim_cycles, report.phase_sim_cycles());
    let names: Vec<&str> = report.phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, ["screen", "gather", "activation"]);

    let parsed = RunReport::from_json(&report.to_json()).expect("report JSON parses");
    assert_eq!(parsed, report);
    assert_eq!(parsed.headline_ns, run.result.ns);
}

#[test]
fn analytic_schemes_report_a_single_phase() {
    let sys = SystemModel::table3();
    let job = ClassificationJob {
        categories: 8_192,
        hidden: 256,
        reduced: 64,
        batch: 1,
        candidates: 400,
    };
    let run = sys.run_sharded(&job, Scheme::CpuFull, &SimConfig::sequential());
    let report = report_from_sharded("simulate", "lstm", &job, &sys, &run);
    assert!(report.is_consistent());
    assert_eq!(report.phases.len(), 1);
    assert_eq!(report.phases[0].name, "analytic");
    assert_eq!(report.sim_cycles, 0);
}
