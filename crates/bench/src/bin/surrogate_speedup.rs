//! Surrogate prediction-throughput probe: a grid of 48 energy joins —
//! 4 Table 2 workloads × 6 refresh multipliers × ECC on/off, each asked
//! as its own system run — answered once cycle-accurately and once by
//! the fitted surrogate, reporting points per second for both backends.
//! The grid measures how fast a fit answers independent queries; it is
//! not what `enmc fault-sweep` runs, which simulates a cell once and
//! prices every multiplier from that run.
//!
//! The surrogate's anchor fits run in a warmup pass (they are the
//! backend's one-time capital cost, amortized over every query that
//! reuses the shape) and the timed surrogate pass audits nothing —
//! audit correctness is the CI gate's job (`serve-sim --audit-rate 0.1`
//! and a perturbed coefficient file that must trip the audit); this
//! binary measures steady-state throughput. The binary asserts the
//! surrogate answers the grid at least 50× faster and emits
//! `BENCH_surrogate_speedup.json` when asked (`--bench-json <file>` or
//! `ENMC_BENCH_DIR`).

use enmc::cli::Command;
use enmc_arch::system::{ClassificationJob, SystemModel};
use enmc_bench::table::{fmt, Table};
use enmc_bench::trajectory::BenchEmitter;
use enmc_bench::{candidate_fraction, BENCH_JSON};
use enmc_dram::energy::EnergyModel;
use enmc_model::workloads::WorkloadId;
use enmc_par::SimConfig;
use enmc_surrogate::{CostBackend, CostModel};
use std::time::Instant;

const MULTIPLIERS: [f64; 6] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0];
const SEED: u64 = 7;
const REQUIRED_SPEEDUP: f64 = 50.0;

fn grid_job(id: WorkloadId) -> ClassificationJob {
    let w = id.workload();
    ClassificationJob::of_workload(w.categories, w.hidden, 8, candidate_fraction(id))
}

/// Answers every (multiplier, ecc) join of one workload's grid row and
/// returns how many points were answered. Identical work for both
/// backends: build the relaxed-refresh energy model, rebind the system,
/// ask the cost model for the ENMC run.
fn answer_row(cost: &mut CostModel, sys: &SystemModel, job: &ClassificationJob) -> usize {
    let (mut points, seq) = (0, SimConfig::sequential());
    for &m in &MULTIPLIERS {
        for ecc in [false, true] {
            let dram = EnergyModel { ecc, ..*sys.energy_model() }.with_refresh_multiplier(m);
            let bound = sys.clone().with_energy_model(dram);
            let run = cost
                .run_sharded_enmc(&bound, job, &seq, "surrogate-speedup grid")
                .unwrap_or_else(|v| panic!("audit-free pass cannot violate: {v}"));
            assert!(run.result.ns > 0.0, "every join must produce a latency");
            points += 1;
        }
    }
    points
}

const CMD: Command = Command::standalone("surrogate_speedup", &[&[BENCH_JSON]]);

fn main() {
    let (a, ()) = enmc_bench::parse(&CMD, |_| Ok(()));
    let sys = SystemModel::table3();
    let mut bench = BenchEmitter::from_env(&a);
    println!(
        "Surrogate vs cycle-accurate throughput on the resilience grid \
         ({} workloads x {} multipliers x ECC on/off)\n",
        WorkloadId::table2().len(),
        MULTIPLIERS.len()
    );

    let mut t = Table::new(&[
        "Workload", "Points", "Cycle pts/s", "Surrogate pts/s", "Speedup",
    ]);
    let (mut cycle_total_ns, mut surr_total_ns, mut total_points) = (0.0f64, 0.0f64, 0usize);
    for id in WorkloadId::table2() {
        let job = grid_job(id);

        let mut cycle = CostModel::new(CostBackend::CycleAccurate, SEED);
        let start = Instant::now();
        let points = answer_row(&mut cycle, &sys, &job);
        let cycle_ns = start.elapsed().as_nanos() as f64;

        // Warmup: fit the shape's anchors outside the timed region, then
        // measure pure prediction throughput (audit rate 0).
        let mut surr = CostModel::new(CostBackend::Surrogate { audit_rate: 0.0 }, SEED);
        answer_row(&mut surr, &sys, &job);
        let start = Instant::now();
        let surr_points = answer_row(&mut surr, &sys, &job);
        let surr_ns = (start.elapsed().as_nanos() as f64).max(1.0);
        assert_eq!(points, surr_points, "both backends answer the same grid");

        let abbr = id.workload().abbr;
        t.row_owned(vec![
            abbr.to_string(),
            format!("{points}"),
            fmt(points as f64 / (cycle_ns / 1e9), 1),
            fmt(points as f64 / (surr_ns / 1e9), 0),
            fmt(cycle_ns / surr_ns, 0),
        ]);
        bench.wall_ns(&format!("{abbr}.cycle_accurate_ns"), &[cycle_ns]);
        bench.wall_ns(&format!("{abbr}.surrogate_ns"), &[surr_ns]);
        cycle_total_ns += cycle_ns;
        surr_total_ns += surr_ns;
        total_points += points;
    }
    t.print();

    let speedup = cycle_total_ns / surr_total_ns.max(1.0);
    println!(
        "\nGrid total: {} points; cycle-accurate {:.1} pts/s, surrogate {:.0} pts/s \
         => {speedup:.0}x",
        total_points,
        total_points as f64 / (cycle_total_ns / 1e9),
        total_points as f64 / (surr_total_ns / 1e9),
    );
    bench.det("grid_points", total_points as f64);
    bench.wall_ns("grid.cycle_accurate_ns", &[cycle_total_ns]);
    bench.wall_ns("grid.surrogate_ns", &[surr_total_ns]);
    bench.finish();
    assert!(
        speedup >= REQUIRED_SPEEDUP,
        "surrogate must answer the grid at least {REQUIRED_SPEEDUP}x faster than \
         cycle-accurate, measured {speedup:.1}x"
    );
}
