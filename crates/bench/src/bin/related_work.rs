//! Related-work comparison (paper §8): Approximate Screening vs MACH
//! (count-min-sketch classification) vs two-level hierarchical softmax.
//!
//! The paper argues MACH "cannot mitigate overall memory usage much and
//! suffers from classification accuracy drop" and that pure approximation
//! methods truncate the output distribution; this harness quantifies both
//! on the same synthetic workload.

use enmc::cli::{Command, THREADS};
use enmc_bench::report::Reporter;
use enmc_bench::table::{fmt, fmt_speedup, Table};
use enmc_bench::{fit_pipeline, JSON};
use enmc_model::quality::{QualityAccumulator, QualityReport};
use enmc_model::synth::Query;
use enmc_model::workloads::WorkloadId;
use enmc_par::SimConfig;
use enmc_screen::cost::{ClassificationCost, CpuCostModel};
use enmc_screen::hierarchical::Hierarchical;
use enmc_screen::mach::{Mach, MachConfig};
use enmc_tensor::quant::Precision;
use enmc_tensor::Vector;

const QUERIES: usize = 100;

/// Scores one method over the query set, sharded across the bench
/// workers (8 fixed shards merged in order — worker-count independent).
fn score<F>(
    cfg: &SimConfig,
    queries: &[Query],
    full_logits: impl Fn(&Query) -> Vector + Sync,
    f: F,
) -> (QualityReport, ClassificationCost)
where
    F: Fn(&Query) -> (Vector, ClassificationCost) + Sync,
{
    let shards = enmc_par::shard_ranges(queries.len(), 8);
    let parts = enmc_par::par_map(cfg.worker_count(), shards, |_, range| {
        let mut acc = QualityAccumulator::new(10);
        let mut cost = ClassificationCost::default();
        for q in &queries[range] {
            let full = full_logits(q);
            let (logits, c) = f(q);
            acc.add(full.as_slice(), logits.as_slice(), q.target);
            cost = cost.add(&c);
        }
        (acc, cost)
    });
    let mut acc = QualityAccumulator::new(10);
    let mut cost = ClassificationCost::default();
    for (a, c) in &parts {
        acc.merge(a);
        cost = cost.add(c);
    }
    (acc.finish(), cost)
}

const CMD: Command = Command::standalone("related_work", &[&[THREADS, JSON]]);

fn main() {
    let cpu = CpuCostModel::default();
    let (a, cfg) = enmc_bench::parse(&CMD, |a| Ok(SimConfig::resolve(a.threads()?, false)));
    let mut rep = Reporter::from_env(&a);
    let id = WorkloadId::Xmlcnn670K;
    let fitted = fit_pipeline(id, 0.25, Precision::Int4, 42);
    let (l, d) = fitted.shape;
    println!("Related-work comparison on {} (eval shape {l}x{d})\n", fitted.workload.abbr);
    let queries = fitted.synth.sample_queries_seeded(QUERIES, 99);
    let full = |q: &Query| fitted.synth.full_logits(&q.hidden);
    let full_cost = ClassificationCost::full(l, d, 1);

    let mut t = Table::new(&["method", "setting", "top-1 agree", "P@10", "memory", "speedup"]);

    // Approximate Screening at the paper's configuration.
    {
        let (r, cost) = score(&cfg, &queries, full, |q| {
            let out = fitted.classifier.classify_ref(&q.hidden);
            (out.logits, out.cost)
        });
        let mean = mean_cost(&cost, QUERIES);
        t.row_owned(vec![
            "AS".into(),
            "k=d/4, INT4".into(),
            fmt(r.top1_agreement, 3),
            fmt(r.precision_at_k, 3),
            "1.03x full".into(), // full W + 3% screener
            fmt_speedup(cpu.speedup(&full_cost, &mean)),
        ]);
    }

    // MACH at two compression points.
    for (reps, buckets) in [(2usize, 128usize), (6, 512)] {
        let mach = Mach::distill(
            fitted.synth.weights(),
            &MachConfig { repetitions: reps, buckets, seed: 1 },
            &[],
        )
        .expect("valid MACH config");
        let (r, cost) = score(&cfg, &queries, full, |q| mach.classify(&q.hidden));
        let mean = mean_cost(&cost, QUERIES);
        t.row_owned(vec![
            "MACH".into(),
            format!("R={reps},B={buckets}"),
            fmt(r.top1_agreement, 3),
            fmt(r.precision_at_k, 3),
            format!("1/{:.0} of full", mach.compression()),
            fmt_speedup(cpu.speedup(&full_cost, &mean)),
        ]);
    }

    // Hierarchical softmax at two beam widths.
    let hier = Hierarchical::build(
        fitted.synth.weights().clone(),
        fitted.synth.bias().clone(),
        (l as f64).sqrt() as usize,
        6,
    )
    .expect("valid hierarchy");
    for top in [2usize, 8] {
        let (r, cost) = score(&cfg, &queries, full, |q| {
            let (logits, _, c) = hier.classify(&q.hidden, top);
            (logits, c)
        });
        let mean = mean_cost(&cost, QUERIES);
        t.row_owned(vec![
            "Hier. softmax".into(),
            format!("top-{top} clusters"),
            fmt(r.top1_agreement, 3),
            fmt(r.precision_at_k, 3),
            "~1x full".into(),
            fmt_speedup(cpu.speedup(&full_cost, &mean)),
        ]);
    }

    t.print();
    rep.table("methods", &t);
    rep.finish();
    println!("\nReading: MACH trades accuracy for memory exactly as the paper");
    println!("claims; hierarchical softmax is fast but truncates unvisited");
    println!("clusters; AS keeps full-output fidelity at comparable speedups.");
}

fn mean_cost(total: &ClassificationCost, n: usize) -> ClassificationCost {
    ClassificationCost {
        fp32_macs: total.fp32_macs / n as u64,
        int_macs: total.int_macs / n as u64,
        bytes_read: total.bytes_read / n as u64,
        bytes_written: total.bytes_written / n as u64,
    }
}
