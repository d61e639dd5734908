//! Regenerates paper Fig. 12: sensitivity of Approximate Screening to
//! (a) the parameter-reduction scale and (b) the quantization level.

use enmc::cli::{Command, THREADS};
use enmc_bench::report::Reporter;
use enmc_bench::table::{fmt, Table};
use enmc_bench::{eval_shape, fit_pipeline, par_rows, JSON};
use enmc_model::quality::QualityAccumulator;
use enmc_model::workloads::WorkloadId;
use enmc_par::SimConfig;
use enmc_screen::infer::SelectionPolicy;
use enmc_tensor::quant::Precision;

const QUERIES: usize = 100;
/// A deliberately tight candidate budget (1% of categories): with fewer
/// exact slots, errors in the *screening* step become visible — which is
/// exactly what the sensitivity study measures.
const TIGHT_FRACTION: f64 = 0.01;

fn evaluate(id: WorkloadId, scale: f64, precision: Precision) -> (f64, f64, f64) {
    let mut fitted = fit_pipeline(id, scale, precision, 42);
    let l = fitted.shape.0;
    let m = ((l as f64 * TIGHT_FRACTION).round() as usize).max(1);
    fitted.classifier.set_policy(SelectionPolicy::TopM(m));
    let queries = fitted.synth.sample_queries_seeded(QUERIES, 99);
    let mut acc = QualityAccumulator::new(10);
    for q in &queries {
        let full = fitted.synth.full_logits(&q.hidden);
        let out = fitted.classifier.classify(&q.hidden);
        acc.add(full.as_slice(), out.logits.as_slice(), q.target);
    }
    let r = acc.finish();
    (r.top1_agreement, r.perplexity_ratio(), r.precision_at_k)
}

const CMD: Command = Command::standalone("fig12_sensitivity", &[&[THREADS, JSON]]);

fn main() {
    let (a, cfg) = enmc_bench::parse(&CMD, |a| Ok(SimConfig::resolve(a.threads()?, false)));
    let mut rep = Reporter::from_env(&a);
    let id = WorkloadId::TransformerW268K;
    let w = id.workload();
    let (l, d) = eval_shape(&w);
    println!(
        "Figure 12: AS sensitivity on {} (eval shape {}x{}, tight m = {:.0}% of l)\n",
        w.abbr,
        l,
        d,
        100.0 * TIGHT_FRACTION
    );

    println!("(a) Parameter-reduction scale (at INT4):\n");
    let mut t = Table::new(&["scale", "k", "top-1 agree", "ppl ratio", "P@10"]);
    let scales = vec![0.0625, 0.125, 0.25, 0.5];
    // Every sweep point refits from scratch — shard them across workers.
    let rows = par_rows(&cfg, scales, |&scale| (scale, evaluate(id, scale, Precision::Int4)));
    for (scale, (agree, ppl, p10)) in rows {
        t.row_owned(vec![
            format!("{scale}"),
            format!("{}", ((d as f64) * scale).round() as usize),
            fmt(agree, 3),
            fmt(ppl, 3),
            fmt(p10, 3),
        ]);
    }
    t.print();
    rep.table("fig12a_scale", &t);

    println!("\n(b) Quantization level (at scale 0.25):\n");
    let mut t = Table::new(&["precision", "top-1 agree", "ppl ratio", "P@10"]);
    let rows = par_rows(&cfg, Precision::sweep().to_vec(), |&precision| {
        (precision, evaluate(id, 0.25, precision))
    });
    for (precision, (agree, ppl, p10)) in rows {
        t.row_owned(vec![precision.to_string(), fmt(agree, 3), fmt(ppl, 3), fmt(p10, 3)]);
    }
    t.print();
    rep.table("fig12b_precision", &t);
    rep.finish();

    println!("\nShape check: quality saturates around scale 0.25 (the paper's pick)");
    println!("and INT4 matches FP32 while INT2 degrades — Fig. 12's conclusions.");
}
