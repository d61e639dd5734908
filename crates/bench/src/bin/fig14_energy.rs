//! Regenerates paper Fig. 14: energy breakdown (DRAM static / DRAM access
//! / computation & control) of ENMC vs TensorDIMM and TensorDIMM-Large,
//! normalized to TensorDIMM.

use enmc::cli::{Command, THREADS};
use enmc_arch::baseline::BaselineKind;
use enmc_arch::system::{ClassificationJob, Scheme, SystemModel};
use enmc_bench::report::Reporter;
use enmc_bench::table::{fmt, Table};
use enmc_bench::trajectory::BenchEmitter;
use enmc_bench::{candidate_fraction, par_rows, BENCH_JSON, JSON};
use enmc_model::workloads::WorkloadId;
use enmc_par::SimConfig;

const CMD: Command = Command::standalone("fig14_energy", &[&[THREADS, JSON, BENCH_JSON]]);

fn main() {
    let (a, cfg) = enmc_bench::parse(&CMD, |a| Ok(SimConfig::resolve(a.threads()?, false)));
    let mut bench = BenchEmitter::from_env(&a);
    let mut rep = Reporter::from_env(&a);
    let sys = SystemModel::table3();
    println!("Figure 14: energy breakdown normalized to TensorDIMM\n");
    let mut t = Table::new(&[
        "Workload", "Scheme", "DRAM static", "DRAM access", "Compute+ctrl", "Total",
    ]);
    let mut ratios_td = Vec::new();
    let mut ratios_tdl = Vec::new();
    // One independent three-scheme simulation per workload; shard them
    // across the bench workers.
    let runs = bench.timed("harness/sweep_ns", || par_rows(&cfg, WorkloadId::table2().to_vec(), |&id| {
        let w = id.workload();
        let job = ClassificationJob {
            categories: w.categories,
            hidden: w.hidden,
            reduced: (w.hidden / 4).max(1),
            batch: 1,
            candidates: ((w.categories as f64) * candidate_fraction(id)).round() as usize,
        };
        let td = sys
            .run(&job, Scheme::Baseline(BaselineKind::TensorDimm))
            .energy
            .expect("simulated");
        let tdl = sys
            .run(&job, Scheme::Baseline(BaselineKind::TensorDimmLarge))
            .energy
            .expect("simulated");
        let enmc = sys.run(&job, Scheme::Enmc).energy.expect("simulated");
        (w.abbr, td, tdl, enmc)
    }));
    for (abbr, td, tdl, enmc) in &runs {
        let norm = td.total_nj();
        bench.det(&format!("energy_nj/{abbr}/enmc"), enmc.total_nj());
        bench.det(&format!("energy_ratio/{abbr}/td_over_enmc"), td.total_nj() / enmc.total_nj());
        for (name, e) in [("TensorDIMM", td), ("TensorDIMM-L", tdl), ("ENMC", enmc)] {
            t.row_owned(vec![
                abbr.to_string(),
                name.to_string(),
                fmt(e.dram_static_nj / norm, 3),
                fmt(e.dram_access_nj / norm, 3),
                fmt(e.logic_nj / norm, 3),
                fmt(e.total_nj() / norm, 3),
            ]);
        }
        ratios_td.push(td.total_nj() / enmc.total_nj());
        ratios_tdl.push(tdl.total_nj() / enmc.total_nj());
    }
    t.print();
    rep.table("energy_breakdown", &t);
    rep.finish();
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    bench.det("energy_ratio/avg/td_over_enmc", avg(&ratios_td));
    bench.det("energy_ratio/avg/tdl_over_enmc", avg(&ratios_tdl));
    bench.finish();
    println!("\nAverage energy reduction of ENMC: {:.1}x vs TensorDIMM, {:.1}x vs TensorDIMM-Large",
        avg(&ratios_td), avg(&ratios_tdl));
    println!("Paper reference: 5.0x and 8.4x (static-energy reductions 9.3x / 4.8x).");
}
