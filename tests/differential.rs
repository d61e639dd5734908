//! Differential conformance for the parallel execution mode: the sharded
//! whole-system path must be **bit-identical** to the same decomposition
//! run sequentially, for every paper workload shape — logits, DRAM
//! statistics, energy and the RunReport cycle sums all diff clean. The
//! shard decomposition is fixed by the workload (per-rank / fixed batch
//! shard counts), never by the worker count, so threads may only change
//! host wall-clock measurements.

use enmc::arch::system::{ClassificationJob, Scheme, SystemModel};
use enmc::model::synth::Query;
use enmc::obs::report::RunReport;
use enmc::par::SimConfig;
use enmc::pipeline::{report_from_sharded, Pipeline, PipelineConfig};
use enmc::screen::infer::ApproxOutput;
use enmc::tensor::quant::Precision;

/// Paper Table 2 shapes (categories x hidden) plus the S1M stress point.
/// The rank decomposition depends on (categories, batch, ranks), so the
/// shapes — including the non-divisible remainders they leave across 64
/// ranks — are the interesting axis. Candidate counts use a ~0.1%
/// screening budget and `reduced` is held at 32: both only scale the
/// number of simulated DRAM cycles (debug-mode runtime), not the shard
/// decomposition or the merge logic under test.
const SHAPES: &[(&str, usize, usize, usize)] = &[
    ("lstm", 33_278, 1_500, 33),
    ("transformer", 267_744, 512, 268),
    ("gnmt", 32_317, 1_024, 32),
    ("xmlcnn", 670_091, 512, 670),
    ("s1m", 1_000_000, 512, 1_000),
];

fn job_for(shape: &(&str, usize, usize, usize), batch: usize) -> ClassificationJob {
    let (_, categories, hidden, candidates) = *shape;
    ClassificationJob { categories, hidden, reduced: 32, batch, candidates }
}

/// Zeroes every host-wall-clock-derived field so two reports produced by
/// runs with different worker counts can be compared bit-for-bit on the
/// deterministic remainder (cycles, simulated ns, metrics, phases).
fn canonical(mut report: RunReport) -> RunReport {
    report.threads = 0;
    report.speedup = 0.0;
    for phase in &mut report.phases {
        phase.wall_ns = 0.0;
    }
    report.notes.retain(|n| !n.contains("sharded run"));
    report
}

#[test]
fn sharded_enmc_is_bit_identical_for_every_paper_shape() {
    let sys = SystemModel::table3();
    for shape in SHAPES {
        let job = job_for(shape, 1);
        let seq = sys.run_sharded(&job, Scheme::Enmc, &SimConfig::sequential());
        let par = sys.run_sharded(&job, Scheme::Enmc, &SimConfig::with_threads(4));
        // SchemeResult equality covers ns, the straggler-merged UnitReport
        // (cycle marks, work counters, DramStats) and the summed energy.
        assert_eq!(seq.result, par.result, "{}: sequential vs 4 workers", shape.0);
        assert_eq!(seq.shards, par.shards, "{}: shard count must not depend on workers", shape.0);

        let rep_seq = canonical(report_from_sharded("simulate", shape.0, &job, &sys, &seq));
        let rep_par = canonical(report_from_sharded("simulate", shape.0, &job, &sys, &par));
        assert_eq!(rep_seq, rep_par, "{}: canonical RunReports diverge", shape.0);
        assert!(rep_par.is_consistent(), "{}: phase cycles must tile sim_cycles", shape.0);
        assert_eq!(rep_seq.sim_cycles, rep_seq.phase_sim_cycles(), "{}: cycle sum", shape.0);
        // The attribution rides along and is part of the bit-exact diff:
        // RunReport equality above covered it, and its leaves tile the
        // headline totals exactly.
        let attr = rep_par.attribution.as_ref().expect("a simulated scheme attributes");
        assert!(!attr.breakdown.is_empty(), "{}: missing breakdown", shape.0);
        let leaf_cycles: u64 = attr
            .breakdown
            .iter()
            .filter(|r| r.path.starts_with("cycles/"))
            .map(|r| r.cycles)
            .sum();
        assert_eq!(leaf_cycles, rep_par.sim_cycles, "{}: breakdown cycle sum", shape.0);
        let leaf_nj: f64 = attr
            .breakdown
            .iter()
            .filter(|r| r.path.starts_with("energy/"))
            .map(|r| r.nj)
            .sum();
        assert_eq!(
            leaf_nj.to_bits(),
            attr.energy_nj.to_bits(),
            "{}: breakdown energy sum",
            shape.0
        );
    }
}

#[test]
fn sharded_run_is_worker_count_invariant() {
    // Odd worker counts exercise uneven work-stealing interleavings; the
    // merged result must not notice.
    let sys = SystemModel::table3();
    let job = job_for(&SHAPES[0], 2);
    let baseline = sys.run_sharded(&job, Scheme::Enmc, &SimConfig::sequential());
    for workers in [3usize, 5, 8] {
        let run = sys.run_sharded(&job, Scheme::Enmc, &SimConfig::with_threads(workers));
        assert_eq!(baseline.result, run.result, "{workers} workers");
        assert_eq!(run.workers, workers);
    }
}

#[test]
fn sharded_baselines_match_sequential() {
    use enmc::arch::baseline::BaselineKind;
    let sys = SystemModel::table3();
    let job = job_for(&SHAPES[0], 1);
    for kind in [BaselineKind::TensorDimm, BaselineKind::Chameleon] {
        let scheme = Scheme::Baseline(kind);
        let seq = sys.run_sharded(&job, scheme, &SimConfig::sequential());
        let par = sys.run_sharded(&job, scheme, &SimConfig::with_threads(4));
        assert_eq!(seq.result, par.result, "{kind:?}");
    }
}

#[test]
fn analytic_schemes_are_unaffected_by_threads() {
    // CPU schemes have nothing to shard; the parallel config must fall
    // through to the same closed-form latency.
    let sys = SystemModel::table3();
    let job = job_for(&SHAPES[2], 2);
    for scheme in [Scheme::CpuFull, Scheme::CpuScreened] {
        let seq = sys.run_sharded(&job, scheme, &SimConfig::sequential());
        let par = sys.run_sharded(&job, scheme, &SimConfig::with_threads(4));
        assert_eq!(seq.result, par.result);
        assert_eq!(par.shards, 1);
    }
}

/// Algorithm-level differential: classifying a query stream through the
/// batch-sharded path must reproduce the sequential logits exactly —
/// not approximately — for any worker count.
#[test]
fn batch_sharded_logits_diff_clean() {
    let p = Pipeline::build(&PipelineConfig {
        categories: 2_000,
        hidden: 64,
        candidates: 60,
        train_queries: 64,
        seed: 11,
        ..Default::default()
    })
    .expect("pipeline builds");
    let queries: Vec<Query> = p.synth().sample_queries_seeded(200, 77);
    // Pipeline::build freezes the classifier, so the shared-reference
    // classification path is available without further mutation.
    let classifier = p.classifier();

    let sequential: Vec<ApproxOutput> =
        queries.iter().map(|q| classifier.classify_ref(&q.hidden)).collect();

    for workers in [2usize, 4, 7] {
        let shards = enmc::par::shard_ranges(queries.len(), 8);
        let queries_ref = &queries[..];
        let sharded: Vec<ApproxOutput> = enmc::par::par_map(workers, shards, |_, range| {
            queries_ref[range].iter().map(|q| classifier.classify_ref(&q.hidden)).collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        // ApproxOutput equality covers logits bit-patterns, candidate
        // sets and the cost model counters.
        assert_eq!(sequential, sharded, "{workers} workers");
    }
}

#[test]
fn quality_evaluation_is_worker_count_invariant() {
    let cfg = PipelineConfig {
        categories: 1_500,
        hidden: 48,
        candidates: 45,
        train_queries: 64,
        precision: Precision::Int4,
        seed: 5,
        ..Default::default()
    };
    let mut p = Pipeline::build(&cfg).expect("pipeline builds");
    let sequential = p.evaluate_quality_with(400, &SimConfig::sequential());
    for workers in [2usize, 4, 8] {
        let mut q = Pipeline::build(&cfg).expect("pipeline builds");
        let parallel = q.evaluate_quality_with(400, &SimConfig::with_threads(workers));
        assert_eq!(sequential, parallel, "{workers} workers");
    }
}
