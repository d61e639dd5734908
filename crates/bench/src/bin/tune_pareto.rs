//! Design-space tuning harness (extension): Pareto frontiers over the
//! default small lattice, with the frontier-validity and
//! guided-equals-exhaustive invariants asserted inline.
//!
//! The harness runs both search strategies over the same budgeted space
//! and gates on the tuner's contract:
//!
//! 1. the frontier is mutually non-dominating and within budget,
//! 2. guided search renders the byte-identical `tune-frontier-v1`
//!    fixture brute force does, while evaluating no more designs,
//! 3. the whole run is worker-invariant (1 vs 4 evaluation workers).
//!
//! Frontier coordinates stream into the bench-trajectory record so
//! `bench-diff` catches any silent drift in the evaluated objectives.

use enmc::cli::Command;
use enmc_arch::system::{ClassificationJob, SystemModel};
use enmc_bench::report::Reporter;
use enmc_bench::table::{fmt, Table};
use enmc_bench::trajectory::BenchEmitter;
use enmc_bench::{BENCH_JSON, JSON};
use enmc_tune::{
    dominates, frontier_json, tune, Budget, SearchMode, TuneConfig, TuneResult, TuneSpace,
};

const SEED: u64 = 7;
/// DIMM-population budget: excludes the priciest quarter of the default
/// space, so the budget path is exercised without emptying the lattice.
const MAX_AREA_MM2: f64 = 28.3;

fn job() -> ClassificationJob {
    ClassificationJob { categories: 2048, hidden: 64, reduced: 16, batch: 1, candidates: 128 }
}

fn cfg(mode: SearchMode, workers: usize) -> TuneConfig {
    TuneConfig {
        space: TuneSpace::small(),
        budget: Budget { max_area_mm2: Some(MAX_AREA_MM2), max_power_mw: None },
        seed: SEED,
        workers,
        mode,
        ..TuneConfig::default()
    }
}

fn assert_frontier_valid(r: &TuneResult) {
    assert!(!r.frontier.is_empty(), "a non-empty space always has a frontier");
    for a in &r.frontier {
        assert!(
            a.design.cost.area_mm2 <= MAX_AREA_MM2,
            "budget-violating design {} on the frontier",
            a.design.point.label()
        );
        for b in &r.frontier {
            assert!(
                !dominates(&a.design, &b.design),
                "dominated design {} on the frontier",
                b.design.point.label()
            );
        }
    }
}

const CMD: Command = Command::standalone("tune_pareto", &[&[JSON, BENCH_JSON]]);

fn main() {
    let (a, ()) = enmc_bench::parse(&CMD, |_| Ok(()));
    let mut bench = BenchEmitter::from_env(&a);
    let mut rep = Reporter::from_env(&a);
    let sys = SystemModel::table3();
    let job = job();
    println!("Design-space tuning: Pareto frontier over the default small lattice\n");

    let ex = bench
        .timed("wall/exhaustive", || tune(&sys, &job, &cfg(SearchMode::Exhaustive, 4)))
        .expect("audited evaluations stay within the surrogate bound");
    let gd = bench
        .timed("wall/guided", || tune(&sys, &job, &cfg(SearchMode::Guided, 4)))
        .expect("audited evaluations stay within the surrogate bound");

    assert_frontier_valid(&ex);
    assert_frontier_valid(&gd);
    let budget = cfg(SearchMode::Exhaustive, 4).budget;
    assert_eq!(
        frontier_json("bench", ex.space_size, &budget, &ex.frontier),
        frontier_json("bench", gd.space_size, &budget, &gd.frontier),
        "guided search must render the frontier brute force finds"
    );
    assert!(
        gd.evaluated.len() <= ex.evaluated.len(),
        "guided search may not evaluate more designs than brute force"
    );
    // Worker invariance: the whole result, not just the frontier.
    let solo = tune(&sys, &job, &cfg(SearchMode::Exhaustive, 1)).unwrap();
    assert_eq!(solo, ex, "evaluation must be bit-identical at any worker count");

    let mut t = Table::new(&["Design", "Latency (ns)", "nJ/query", "Quality %", "mm^2", "mW"]);
    for p in &ex.frontier {
        let d = &p.design;
        let label = d.point.label();
        t.row_owned(vec![
            label.clone(),
            fmt(d.latency_ns, 1),
            fmt(d.energy_per_query_nj, 1),
            fmt(d.quality_pct, 2),
            fmt(d.cost.area_mm2, 3),
            fmt(d.cost.power_mw, 1),
        ]);
        bench.det(&format!("latency_ns/{label}"), d.latency_ns);
        bench.det(&format!("energy_nj/{label}"), d.energy_per_query_nj);
        bench.det(&format!("quality_pct/{label}"), d.quality_pct);
    }
    t.print();
    bench.det("space_size", ex.space_size as f64);
    bench.det("rejected", ex.rejected as f64);
    bench.det("frontier_points", ex.frontier.len() as f64);
    bench.det("dominated_points", ex.dominated as f64);
    bench.det("guided_evaluated", gd.evaluated.len() as f64);
    bench.finish();

    rep.table("frontier", &t);
    rep.note(&format!(
        "{} designs, {} rejected by the {MAX_AREA_MM2} mm^2 budget; exhaustive evaluated {}, \
         guided {}; identical frontiers ({} points, {} dominated)",
        ex.space_size,
        ex.rejected,
        ex.evaluated.len(),
        gd.evaluated.len(),
        ex.frontier.len(),
        ex.dominated
    ));
    rep.finish();
    println!(
        "\nGuided search evaluated {}/{} designs and reproduced the exhaustive frontier exactly.",
        gd.evaluated.len(),
        ex.evaluated.len()
    );
}
