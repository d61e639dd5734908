//! Which sections each report path writes. A schema-v11 `RunReport` is
//! the core plus exactly the sections its command produced (the table on
//! `enmc::obs::report::SCHEMA_VERSION`); this suite builds every report
//! path the CLI prints, the way the CLI builds it, on small jobs, and
//! pins its section set. A path that starts or stops writing a section
//! fails here before it moves a golden.

use enmc::arch::system::{ClassificationJob, Scheme, SystemModel};
use enmc::cli::FaultShape;
use enmc::fleet::{simulate_fleet, FleetConfig, FleetOutcome, TenantConfig};
use enmc::mem::MemTech;
use enmc::obs::report::RunReport;
use enmc::obs::MetricsRegistry;
use enmc::par::SimConfig;
use enmc::pipeline::{report_from_result, report_from_sharded};
use enmc::resilience::{run_fault_sweep, FaultSweepArgs};
use enmc::serve::tier::default_tiers;
use enmc::serve::ArrivalProcess;
use enmc::surrogate::{CostBackend, CostModel};
use enmc::tune::{offload_report, plan_ladder, tune, tune_report, TuneConfig, TuneSpace};

/// Every section, in JSON order.
const SECTIONS: [&str; 7] =
    ["attribution", "serving", "fault", "surrogate", "fleet", "tune", "offload"];

fn small_job() -> ClassificationJob {
    ClassificationJob { categories: 2048, hidden: 64, reduced: 16, batch: 1, candidates: 64 }
}

/// `simulate`, representative rank or sharded over two workers.
fn simulate(scheme: Scheme, threads: Option<usize>) -> RunReport {
    let (sys, job) = (SystemModel::table3(), small_job());
    match threads {
        Some(n) => {
            let run = sys.run_sharded(&job, scheme, &SimConfig::with_threads(n));
            report_from_sharded("simulate", "small", &job, &sys, &run)
        }
        None => report_from_result("simulate", "small", &job, &sys.run(&job, scheme), 0.0),
    }
}

/// `profile`: a sharded ENMC run on the workers it was given.
fn profile() -> RunReport {
    let (sys, job) = (SystemModel::table3(), small_job());
    let run = sys.run_sharded(&job, Scheme::Enmc, &SimConfig::with_threads(1));
    report_from_sharded("profile", "small", &job, &sys, &run)
}

/// The fleet loop on `nodes` nodes and `tenants` tenants, as `serve-sim`
/// (one of each) and `fleet-sim` run it.
fn fleet_run(nodes: usize, tenants: usize, offload: bool) -> (FleetConfig, FleetOutcome) {
    let job = small_job();
    let tenant = |i: usize| {
        let arrival = ArrivalProcess::Poisson { rate: 0.05 };
        TenantConfig::new(&format!("t{i}"), arrival, 8, 400_000, default_tiers(&job), 11)
    };
    let cfg = FleetConfig {
        nodes,
        shards: nodes,
        batch_max: 2,
        tenants: (0..tenants).map(tenant).collect(),
        seed: 7,
        offload,
        ..Default::default()
    };
    let mut cost = CostModel::new(CostBackend::CycleAccurate, 7);
    let mut registry = MetricsRegistry::new();
    let seq = SimConfig::sequential();
    let out = simulate_fleet(&SystemModel::table3(), &job, &cfg, &seq, &mut registry, &mut cost)
        .expect("cycle-accurate runs cannot violate an audit");
    (cfg, out)
}

fn serve_sim(offload: bool) -> RunReport {
    let (cfg, out) = fleet_run(1, 1, offload);
    out.serve_report("small", &cfg, &MetricsRegistry::new())
}

fn fleet_sim(offload: bool) -> RunReport {
    let (cfg, out) = fleet_run(2, 2, offload);
    out.report("small", &cfg, &MetricsRegistry::new())
}

fn fault_sweep() -> RunReport {
    let args = FaultSweepArgs {
        shape: FaultShape::LstmWikitext2,
        ber: 1e-4,
        multipliers: vec![1.0],
        weak_columns: 0.0,
        ecc: true,
        queries: 2,
        seed: 7,
        workers: 1,
        backend: CostBackend::CycleAccurate,
        memory: MemTech::Ddr4_2666,
        coeffs_in: None,
        coeffs_out: None,
    };
    run_fault_sweep(&args, None).expect("the sweep runs").2
}

/// `tune` over a one-design space.
fn tune_run() -> RunReport {
    let space = TuneSpace {
        ranks: vec![64],
        lanes: vec![128],
        candidates: vec![64],
        screen_shift: vec![0],
        ..TuneSpace::small()
    };
    let cfg = TuneConfig { space, backend: CostBackend::CycleAccurate, ..TuneConfig::default() };
    let result = tune(&SystemModel::table3(), &small_job(), &cfg).expect("the design evaluates");
    tune_report("small", &cfg, &result, &CostModel::new(cfg.backend, cfg.seed))
}

fn offload_plan() -> RunReport {
    let (sys, job) = (SystemModel::table3(), small_job());
    let tiers = default_tiers(&job);
    let mut cost = CostModel::new(CostBackend::CycleAccurate, 7);
    let (_, decisions, _) = plan_ladder(&sys, &job, &tiers, 2, &SimConfig::sequential(), &mut cost)
        .expect("cycle-accurate calibration cannot violate an audit");
    offload_report("small", &job, 2, &decisions, &cost)
}

#[test]
fn every_report_path_writes_exactly_its_sections() {
    type Row = (&'static str, fn() -> RunReport, &'static [&'static str]);
    let rows: &[Row] = &[
        ("simulate", || simulate(Scheme::Enmc, None), &[]),
        ("simulate --threads 2", || simulate(Scheme::Enmc, Some(2)), &["attribution"]),
        ("simulate --threads 2 --scheme cpu", || simulate(Scheme::CpuFull, Some(2)), &[]),
        ("profile", profile, &["attribution"]),
        ("serve-sim", || serve_sim(false), &["serving", "surrogate"]),
        ("serve-sim --offload", || serve_sim(true), &["serving", "surrogate", "offload"]),
        ("fleet-sim", || fleet_sim(false), &["serving", "surrogate", "fleet"]),
        ("fleet-sim --offload", || fleet_sim(true), &["serving", "surrogate", "fleet", "offload"]),
        ("fault-sweep", fault_sweep, &["fault", "surrogate"]),
        ("tune", tune_run, &["surrogate", "tune"]),
        ("offload-plan", offload_plan, &["surrogate", "offload"]),
    ];
    for (path, build, want) in rows {
        let report = build();
        assert_eq!(report.sections(), *want, "{path}");
        let json = report.to_json();
        for section in SECTIONS {
            let key = format!("\"{section}\":{{");
            assert_eq!(json.contains(&key), want.contains(&section), "{path}: {section} in JSON");
        }
        assert_eq!(RunReport::from_json(&json).as_ref(), Ok(&report), "{path} round-trips");
    }
}
