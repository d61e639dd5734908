//! Regenerates paper Fig. 5: (a) classifier footprint and CPU execution
//! time vs category count; (b) roofline placement of the major kernels.

use enmc::cli::Command;
use enmc_arch::cpu::CpuModel;
use enmc_bench::report::Reporter;
use enmc_bench::table::{fmt, fmt_bytes, Table};
use enmc_bench::JSON;
use enmc_model::footprint::figure5a_sweep;
use enmc_model::roofline::{figure5b_points, Roofline};

const CMD: Command = Command::standalone("fig05_motivation", &[&[JSON]]);

fn main() {
    let (a, ()) = enmc_bench::parse(&CMD, |_| Ok(()));
    let mut rep = Reporter::from_env(&a);
    println!("Figure 5(a): classifier memory footprint and CPU time (d = 512)\n");
    let cpu = CpuModel::xeon_8280();
    let mut t = Table::new(&["Categories", "Classifier bytes", "Screener bytes", "CPU time (ms)"]);
    for f in figure5a_sweep() {
        let ms = cpu.full_classification_ns(f.categories, f.hidden, 1) / 1e6;
        t.row_owned(vec![
            f.categories.to_string(),
            fmt_bytes(f.classifier_bytes),
            fmt_bytes(f.screener_bytes),
            fmt(ms, 2),
        ]);
    }
    t.print();
    rep.table("fig05a_footprint", &t);

    println!("\nFigure 5(b): roofline placement (Xeon 8280, ridge at {:.1} FLOP/B)\n",
        Roofline::xeon_8280().ridge_point());
    let roof = Roofline::xeon_8280();
    let mut t = Table::new(&["Kernel", "Batch", "FLOP/byte", "Attainable GFLOP/s", "Bound"]);
    for batch in [1usize, 2, 4] {
        for p in figure5b_points(267_744, 512, 128, 13_387, 0.5, batch) {
            let oi = p.intensity();
            t.row_owned(vec![
                p.name.to_string(),
                batch.to_string(),
                fmt(oi, 2),
                fmt(roof.attainable_gflops(oi), 0),
                if roof.is_memory_bound(oi) { "memory" } else { "compute" }.to_string(),
            ]);
        }
    }
    t.print();
    rep.table("fig05b_roofline", &t);
    rep.finish();
    println!("\nShape check: screening and candidate-only classification sit left of");
    println!("the ridge (memory-bound) at deployment batch sizes; the front-end");
    println!("moves right with batch size.");
}
