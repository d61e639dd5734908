//! Workload-realism report: measures the statistical properties the
//! DESIGN.md substitution argument relies on, for every Table 2 workload's
//! synthetic instantiation.

use enmc::cli::{Command, THREADS};
use enmc_bench::report::Reporter;
use enmc_bench::table::{fmt, Table};
use enmc_bench::{eval_shape, fit_pipeline, par_rows, JSON};
use enmc_model::statistics::measure;
use enmc_model::workloads::WorkloadId;
use enmc_par::SimConfig;
use enmc_tensor::quant::Precision;

const CMD: Command = Command::standalone("workload_stats", &[&[THREADS, JSON]]);

fn main() {
    let (a, cfg) = enmc_bench::parse(&CMD, |a| Ok(SimConfig::resolve(a.threads()?, false)));
    let mut rep = Reporter::from_env(&a);
    println!("Synthetic workload statistics (the screenability properties)\n");
    let mut t = Table::new(&[
        "Workload", "eval shape", "top-10 mass", "entropy (nats)", "spectral mass", "head mass",
    ]);
    let ids = WorkloadId::table2().to_vec();
    let fitted_all = par_rows(&cfg, ids, |&id| fit_pipeline(id, 0.25, Precision::Int4, 42));
    for fitted in &fitted_all {
        let (l, d) = eval_shape(&fitted.workload);
        let s = measure(&fitted.synth, 80, 7);
        t.row_owned(vec![
            fitted.workload.abbr.to_string(),
            format!("{l}x{d}"),
            fmt(s.top10_mass, 3),
            format!("{:.2} / {:.2} max", s.entropy, (l as f64).ln()),
            fmt(s.spectral_mass, 3),
            fmt(s.head_mass, 3),
        ]);
    }
    t.print();
    rep.table("statistics", &t);
    rep.finish();
    println!("\ntop-10 mass well above uniform (10/l), entropy below the uniform");
    println!("maximum, high spectral mass (low effective rank) and a popular head:");
    println!("the geometry approximate screening exploits, verified per workload.");
}
