//! Quality-vs-refresh-energy resilience grid (the EDEN-style trade-off
//! applied to ENMC): for every Table 2 workload, with and without
//! SEC-DED, sweep the refresh-interval multiplier and print the Pareto
//! table of screening quality against refresh energy.
//!
//! The grid cells are independent (one fitted pipeline each), so they
//! shard across the bench workers via `par_rows`; within a cell the
//! sweep itself is worker-count invariant. The frontier is monotone
//! nonincreasing in both axes by construction — the binary verifies that
//! on every cell before printing.
//!
//! `--cost-model surrogate [--audit-rate R]` answers every energy join
//! with the fitted surrogate instead of the cycle-accurate system run;
//! audited points that miss the declared bound abort the grid (the CI
//! surrogate gate runs exactly that and requires zero violations).

use enmc::cli::{Command, AUDIT_RATE, COST_MODEL, THREADS};
use enmc_arch::system::{ClassificationJob, SystemModel};
use enmc_bench::report::Reporter;
use enmc_bench::table::{fmt, Table};
use enmc_bench::{candidate_fraction, fit_pipeline, par_rows, JSON};
use enmc_fault::{
    pareto_frontier, run_resilience_sweep, FaultModel, FaultSweepSpec, SweepError,
    SweepPoint,
};
use enmc_model::workloads::WorkloadId;
use enmc_par::SimConfig;
use enmc_surrogate::{CostBackend, CostModel};
use enmc_tensor::quant::Precision;

const MULTIPLIERS: [f64; 6] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0];
const QUERIES: usize = 96;
const SEED: u64 = 7;

fn sweep_cell(
    id: WorkloadId,
    ecc: bool,
    workers: usize,
    backend: CostBackend,
) -> (WorkloadId, bool, Vec<SweepPoint>) {
    let fitted = fit_pipeline(id, 0.25, Precision::Int4, SEED);
    let w = &fitted.workload;
    let job = ClassificationJob {
        categories: w.categories,
        hidden: w.hidden,
        reduced: (w.hidden / 4).max(1),
        // Stretch the run past several tREFI windows so the refresh
        // schedule is observable in the energy join.
        batch: 8,
        candidates: ((w.categories as f64) * candidate_fraction(id)).round() as usize,
    };
    let k = match fitted.classifier.policy() {
        enmc_screen::infer::SelectionPolicy::TopM(m) => m,
        _ => unreachable!("fit_pipeline always configures top-M"),
    };
    let spec = FaultSweepSpec {
        model: FaultModel::nominal(SEED),
        multipliers: MULTIPLIERS.to_vec(),
        ecc,
        queries: QUERIES,
        query_seed: SEED ^ 0xfa17,
        tiers: vec![k, (k / 2).max(1)],
    };
    let mut cost = CostModel::new(backend, SEED);
    let points = run_resilience_sweep(
        &fitted.synth,
        &fitted.classifier,
        &SystemModel::table3(),
        &job,
        &spec,
        workers,
        None,
        None,
        &mut cost,
    )
    .unwrap_or_else(|e| match e {
        SweepError::Tensor(t) => panic!("frozen per-tensor screeners inject cleanly: {t}"),
        SweepError::Surrogate(v) => panic!("surrogate audit failed: {v}"),
    });
    (id, ecc, points)
}

const CMD: Command =
    Command::standalone("fault_sweep", &[&[THREADS, JSON, COST_MODEL, AUDIT_RATE]]);

fn main() {
    let (a, (cfg, backend)) =
        enmc_bench::parse(&CMD, |a| Ok((SimConfig::resolve(a.threads()?, false), a.backend()?)));
    let mut rep = Reporter::from_env(&a);
    println!("Resilience grid: screening quality vs refresh energy (retention faults)\n");
    let mut grid = Vec::new();
    for id in WorkloadId::table2() {
        for ecc in [false, true] {
            grid.push((id, ecc));
        }
    }
    // One independent fitted pipeline per cell; shard cells across the
    // bench workers (within a cell the sweep runs sequentially).
    let cells = par_rows(&cfg, grid, |&(id, ecc)| sweep_cell(id, ecc, 1, backend));

    let mut t = Table::new(&[
        "Workload", "ECC", "Mult", "Refresh uJ", "Top-1 %", "Fault degr %", "Masked rows",
        "ECC corr/uncorr",
    ]);
    for (id, ecc, points) in &cells {
        let abbr = id.workload().abbr;
        let frontier = pareto_frontier(points);
        for w in frontier.windows(2) {
            assert!(
                w[1].top1_agreement <= w[0].top1_agreement
                    && w[1].refresh_energy_nj <= w[0].refresh_energy_nj,
                "{abbr}: Pareto frontier must be monotone nonincreasing"
            );
        }
        for (p, row) in points.iter().zip(&frontier) {
            t.row_owned(vec![
                abbr.to_string(),
                if *ecc { "secded" } else { "off" }.to_string(),
                fmt(p.refresh_multiplier, 0),
                fmt(row.refresh_energy_nj / 1e3, 1),
                fmt(100.0 * row.top1_agreement, 2),
                fmt(p.quality_degradation_pct(), 3),
                format!("{}", p.primary().corrupted_rows_masked),
                format!("{}/{}", p.ecc_corrected(), p.ecc_uncorrected()),
            ]);
        }
    }
    t.print();
    rep.table("resilience_grid", &t);
    rep.finish();
    println!(
        "\nEDEN-style reading: relaxed refresh cuts REF energy linearly while screening \
         quality holds until the retention-failure tail, and SEC-DED extends the usable range."
    );
}
