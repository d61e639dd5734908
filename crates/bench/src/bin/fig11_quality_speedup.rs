//! Regenerates paper Fig. 11: quality vs speedup trade-off of Approximate
//! Screening (AS) against the SVD-softmax and FGD baselines, on all four
//! Table 2 workloads.
//!
//! Quality is measured against the exact full classification on the same
//! queries (top-1 agreement = BLEU/accuracy proxy, perplexity ratio for
//! the LM tasks, precision@10 for recommendation); speedup is the CPU
//! roofline time of full classification divided by the method's time.
//! Workloads run at their algorithm-level eval shapes (see DESIGN.md) —
//! relative positions of the three frontiers are the result.

use enmc::cli::{Command, THREADS};
use enmc_bench::report::Reporter;
use enmc_bench::table::{fmt, fmt_speedup, Table};
use enmc_bench::{eval_shape, fit_pipeline, par_rows, JSON};
use enmc_model::quality::QualityAccumulator;
use enmc_model::workloads::WorkloadId;
use enmc_par::SimConfig;
use enmc_screen::cost::{ClassificationCost, CpuCostModel};
use enmc_screen::fgd::{FgdConfig, FgdIndex};
use enmc_screen::infer::SelectionPolicy;
use enmc_screen::svd::SvdSoftmax;
use enmc_tensor::quant::Precision;

const QUERIES: usize = 100;
const FRACTIONS: [f64; 5] = [0.01, 0.02, 0.05, 0.10, 0.15];

const CMD: Command = Command::standalone("fig11_quality_speedup", &[&[THREADS, JSON]]);

fn main() {
    let cpu = CpuCostModel::default();
    let (a, cfg) = enmc_bench::parse(&CMD, |a| Ok(SimConfig::resolve(a.threads()?, false)));
    let mut rep = Reporter::from_env(&a);
    println!("Figure 11: quality vs speedup — AS vs SVD-softmax vs FGD");
    println!("(eval shapes; quality vs exact full classification on the same queries)\n");

    // Each workload's frontier is independent; shard them across the bench
    // workers (the output order stays fixed).
    let tables = par_rows(&cfg, WorkloadId::table2().to_vec(), |&id| {
        let w = id.workload();
        let (l, d) = eval_shape(&w);
        let mut t = Table::new(&["method", "setting", "top-1 agree", "ppl ratio", "P@10", "speedup"]);

        // --- Approximate Screening (the paper's method, INT4, scale 0.25).
        let mut fitted = fit_pipeline(id, 0.25, Precision::Int4, 42);
        let queries = fitted.synth.sample_queries_seeded(QUERIES, 99);
        let full_cost = ClassificationCost::full(l, d, 1);
        for frac in FRACTIONS {
            let m = ((l as f64 * frac).round() as usize).max(1);
            fitted.classifier.set_policy(SelectionPolicy::TopM(m));
            let mut acc = QualityAccumulator::new(10);
            let mut cost_sum = ClassificationCost::default();
            for q in &queries {
                let full = fitted.synth.full_logits(&q.hidden);
                let out = fitted.classifier.classify(&q.hidden);
                acc.add(full.as_slice(), out.logits.as_slice(), q.target);
                cost_sum = cost_sum.add(&out.cost);
            }
            let r = acc.finish();
            let mean_cost = scale_cost(&cost_sum, QUERIES);
            t.row_owned(vec![
                "AS".into(),
                format!("m={m}"),
                fmt(r.top1_agreement, 3),
                fmt(r.perplexity_ratio(), 3),
                fmt(r.precision_at_k, 3),
                fmt_speedup(cpu.speedup(&full_cost, &mean_cost)),
            ]);
        }

        // --- SVD-softmax: preview window d/8, refine count swept
        // (factorized once, reused across the sweep).
        let window = (d / 8).max(1);
        let svd = SvdSoftmax::new(fitted.synth.weights(), fitted.synth.bias().clone(), window)
            .expect("valid SVD config");
        for frac in FRACTIONS {
            let n = ((l as f64 * frac).round() as usize).max(1);
            let mut acc = QualityAccumulator::new(10);
            let mut cost_sum = ClassificationCost::default();
            for q in &queries {
                let full = fitted.synth.full_logits(&q.hidden);
                let (logits, _, cost) = svd.classify(&q.hidden, n);
                acc.add(full.as_slice(), logits.as_slice(), q.target);
                cost_sum = cost_sum.add(&cost);
            }
            let r = acc.finish();
            let mean_cost = scale_cost(&cost_sum, QUERIES);
            t.row_owned(vec![
                "SVD".into(),
                format!("r={window},N={n}"),
                fmt(r.top1_agreement, 3),
                fmt(r.perplexity_ratio(), 3),
                fmt(r.precision_at_k, 3),
                fmt_speedup(cpu.speedup(&full_cost, &mean_cost)),
            ]);
        }

        // --- FGD: graph search with swept beam width.
        let index = FgdIndex::build(
            fitted.synth.weights().clone(),
            fitted.synth.bias().clone(),
            &FgdConfig::default(),
        )
        .expect("valid FGD config");
        for ef in [16usize, 32, 64, 128, 256] {
            let mut acc = QualityAccumulator::new(10);
            let mut cost_sum = ClassificationCost::default();
            for q in &queries {
                let full = fitted.synth.full_logits(&q.hidden);
                let (logits, _, cost) = index.classify(&q.hidden, 10, ef);
                acc.add(full.as_slice(), logits.as_slice(), q.target);
                cost_sum = cost_sum.add(&cost);
            }
            let r = acc.finish();
            let mean_cost = scale_cost(&cost_sum, QUERIES);
            t.row_owned(vec![
                "FGD".into(),
                format!("ef={ef}"),
                fmt(r.top1_agreement, 3),
                fmt(r.perplexity_ratio(), 3),
                fmt(r.precision_at_k, 3),
                fmt_speedup(cpu.speedup(&full_cost, &mean_cost)),
            ]);
        }
        (w, l, d, t)
    });
    for (w, l, d, t) in &tables {
        println!("== {} (eval shape {}x{}) ==", w.abbr, l, d);
        t.print();
        rep.table(w.abbr, t);
        println!();
    }
    rep.finish();
    println!("Shape check: at matched quality, AS sits at higher speedup than SVD");
    println!("(whose FP32 preview costs ~4x AS's INT4 screening). FGD's ppl ratio");
    println!("is far below 1 because its truncated output concentrates all mass on");
    println!("the visited categories — its distribution is degenerate, which is why");
    println!("the paper evaluates it only on top-k tasks.");
}

fn scale_cost(total: &ClassificationCost, n: usize) -> ClassificationCost {
    ClassificationCost {
        fp32_macs: total.fp32_macs / n as u64,
        int_macs: total.int_macs / n as u64,
        bytes_read: total.bytes_read / n as u64,
        bytes_written: total.bytes_written / n as u64,
    }
}
