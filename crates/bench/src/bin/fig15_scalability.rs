//! Regenerates paper Fig. 15: end-to-end scalability on the synthetic
//! S1M / S10M / S100M datasets (XMLCNN front-end), comparing ENMC with
//! TensorDIMM and TensorDIMM-Large, normalized to the host-only CPU.
//!
//! Pass `--scale N` to simulate `1/N` of each rank's category slice and
//! extrapolate linearly (the pipelines are streaming, so time is linear in
//! the slice size); the default scale keeps the full runs tractable.

use enmc::cli::{count, flag, Command, Flag, THREADS};
use enmc_arch::baseline::BaselineKind;
use enmc_arch::cpu::CpuModel;
use enmc_arch::endtoend::end_to_end;
use enmc_arch::system::{ClassificationJob, Scheme, SystemModel};
use enmc_bench::report::Reporter;
use enmc_bench::table::{fmt_speedup, Table};
use enmc_bench::trajectory::BenchEmitter;
use enmc_bench::{candidate_fraction, par_rows, BENCH_JSON, JSON};
use enmc_model::workloads::WorkloadId;
use enmc_par::SimConfig;

/// The largest `--scale` that leaves each simulated rank unit at least
/// one category of the smallest dataset: S1M's 10^6 categories over the
/// 8 channels × 8 ranks of one system give 10^6 / 64 = 15,625.
const MAX_SCALE: u64 = 1_000_000 / 64;
const SCALE: Flag =
    flag("--scale", "N", "8", "simulate 1/N of each category slice, extrapolate").at_most(MAX_SCALE);
const CMD: Command =
    Command::standalone("fig15_scalability", &[&[THREADS, JSON, BENCH_JSON, SCALE]]);

fn main() {
    let (a, (scale, cfg)) = enmc_bench::parse(&CMD, |a| {
        Ok((a.get("--scale", count::<usize>)?, SimConfig::resolve(a.threads()?, false)))
    });
    let mut bench = BenchEmitter::from_env(&a);
    let mut rep = Reporter::from_env(&a);
    let sys = SystemModel::table3();
    let cpu = CpuModel::xeon_8280();
    println!("Figure 15: end-to-end scalability (XMLCNN front-end), sim scale 1/{scale}\n");

    let mut t = Table::new(&["Dataset", "CPU", "TensorDIMM", "TensorDIMM-L", "ENMC"]);
    let mut adv_td = Vec::new();
    let mut adv_tdl = Vec::new();
    // The three datasets simulate independently; shard them across the
    // bench workers.
    let rows = par_rows(&cfg, WorkloadId::scaling().to_vec(), |&id| {
        let w = id.workload();
        let fe_ops = w.front_end.ops_per_query();
        // Scaled job: each rank simulates 1/scale of its slice; streaming
        // pipelines are linear in slice size, so latency extrapolates by
        // the same factor (validated on the smaller datasets).
        let job = ClassificationJob {
            categories: w.categories / scale,
            hidden: w.hidden,
            reduced: (w.hidden / 4).max(1),
            batch: 1,
            candidates: (((w.categories / scale) as f64) * candidate_fraction(id)).round()
                as usize,
        };
        let unscale = |ns: f64| ns * scale as f64;

        let cpu_serial = cpu.front_end_ns(fe_ops, 1)
            + unscale(sys.run(&job, Scheme::CpuFull).ns);
        let mut row = vec![w.abbr.to_string(), "1.0x".to_string()];
        let mut scheme_ns = Vec::new();
        for scheme in [
            Scheme::Baseline(BaselineKind::TensorDimm),
            Scheme::Baseline(BaselineKind::TensorDimmLarge),
            Scheme::Enmc,
        ] {
            let e = end_to_end(&sys, &cpu, &job, fe_ops, scheme);
            let ns = e.front_end_ns.max(unscale(e.classification_ns));
            scheme_ns.push(ns);
            row.push(fmt_speedup(cpu_serial / ns));
        }
        (row, scheme_ns)
    });
    for (row, scheme_ns) in rows {
        let abbr = row[0].clone();
        adv_td.push(scheme_ns[0] / scheme_ns[2]);
        adv_tdl.push(scheme_ns[1] / scheme_ns[2]);
        bench.det(&format!("end_to_end_ns/{abbr}/tensordimm"), scheme_ns[0]);
        bench.det(&format!("end_to_end_ns/{abbr}/tensordimm-large"), scheme_ns[1]);
        bench.det(&format!("end_to_end_ns/{abbr}/enmc"), scheme_ns[2]);
        bench.det(
            &format!("advantage/{abbr}/vs-tensordimm"),
            scheme_ns[0] / scheme_ns[2],
        );
        t.row_owned(row);
    }
    t.print();
    bench.finish();
    rep.table("scalability", &t);
    rep.note(&format!("sim scale 1/{scale}"));
    rep.finish();
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!("\nENMC advantage: {:.1}x vs TensorDIMM, {:.1}x vs TensorDIMM-Large (average)",
        avg(&adv_td), avg(&adv_tdl));
    println!("and it grows with dataset size: vs TensorDIMM {:?}",
        adv_td.iter().map(|x| format!("{x:.1}x")).collect::<Vec<_>>());
    println!("\nPaper reference: 4.7x / 2.9x average; 2.2x/1.6x on the small and");
    println!("7.1x/4.2x on the largest datasets.");
}
