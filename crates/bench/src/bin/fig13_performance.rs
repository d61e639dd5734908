//! Regenerates paper Fig. 13: speedup of CPU+AS, NDA, Chameleon,
//! TensorDIMM and ENMC over the vanilla (full-classification) CPU, for the
//! four Table 2 workloads at batch sizes 1, 2 and 4.
//!
//! All NMP schemes run the approximate screening algorithm (as in the
//! paper); the CPU normalization baseline runs full classification.

use enmc::cli::{Command, THREADS};
use enmc_arch::system::{ClassificationJob, Scheme, SystemModel};
use enmc_bench::report::Reporter;
use enmc_bench::trajectory::BenchEmitter;
use enmc_bench::{candidate_fraction, par_rows, BENCH_JSON, JSON};
use enmc_bench::table::{fmt_speedup, Table};
use enmc_model::workloads::WorkloadId;
use enmc_par::SimConfig;
use enmc_tensor::stats::geometric_mean;

const CMD: Command = Command::standalone("fig13_performance", &[&[THREADS, JSON, BENCH_JSON]]);

fn main() {
    let (a, cfg) = enmc_bench::parse(&CMD, |a| Ok(SimConfig::resolve(a.threads()?, false)));
    let mut bench = BenchEmitter::from_env(&a);
    let mut rep = Reporter::from_env(&a);
    let sys = SystemModel::table3();
    println!("Figure 13: performance normalized to the full-classification CPU\n");

    let mut per_scheme: Vec<(String, Vec<f64>)> = vec![
        ("CPU+AS".into(), Vec::new()),
        ("NDA".into(), Vec::new()),
        ("Chameleon".into(), Vec::new()),
        ("TensorDIMM".into(), Vec::new()),
        ("ENMC".into(), Vec::new()),
    ];

    let mut t = Table::new(&[
        "Workload", "Batch", "CPU+AS", "NDA", "Chameleon", "TensorDIMM", "ENMC",
    ]);
    let points: Vec<(WorkloadId, usize)> = WorkloadId::table2()
        .iter()
        .flat_map(|&id| [1usize, 2, 4].map(|batch| (id, batch)))
        .collect();
    // Every (workload, batch) point simulates independently; shard them
    // across the bench workers. Rows come back in sweep order.
    let rows = bench.timed("harness/sweep_ns", || par_rows(&cfg, points, |&(id, batch)| {
        let w = id.workload();
        let job =
            ClassificationJob::of_workload(w.categories, w.hidden, batch, candidate_fraction(id));
        let cpu_full = sys.run(&job, Scheme::CpuFull);
        let speedups: Vec<f64> = sys
            .run_figure13_schemes(&job)
            .iter()
            .map(|r| r.speedup_over(&cpu_full))
            .collect();
        (w.abbr, batch, speedups)
    }));
    for (abbr, batch, speedups) in rows {
        let mut cells = vec![abbr.to_string(), batch.to_string()];
        // The last scheme column is ENMC; its per-point speedup is a pure
        // function of simulated cycles, so it gates at zero tolerance.
        if let Some(enmc) = speedups.last() {
            bench.det(&format!("speedup/{abbr}/b{batch}/enmc"), *enmc);
        }
        for (i, s) in speedups.into_iter().enumerate() {
            per_scheme[i].1.push(s);
            cells.push(fmt_speedup(s));
        }
        t.row_owned(cells);
    }
    t.print();
    rep.table("speedups", &t);

    println!("\nGeometric-mean speedups over CPU-full:");
    let mut means = Vec::new();
    for (name, vals) in &per_scheme {
        let g = geometric_mean(vals);
        means.push((name.clone(), g));
        println!("  {name:<12} {}", fmt_speedup(g));
        rep.note(&format!("geomean {name}: {}", fmt_speedup(g)));
        bench.det(&format!("speedup/geomean/{}", name.to_lowercase()), g);
    }
    rep.finish();
    bench.finish();
    let enmc = means.last().expect("five schemes").1;
    println!("\nENMC advantage over baselines:");
    for (name, g) in &means[..means.len() - 1] {
        println!("  vs {name:<12} {}", fmt_speedup(enmc / g));
    }
    println!("\nPaper reference: AS on CPU 7.3x; ENMC 56.5x over CPU;");
    println!("3.5x / 5.6x / 2.7x over NDA / Chameleon / TensorDIMM.");
}
