//! Shared infrastructure for the figure/table regeneration harness.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` for the index). This library holds what they share:
//!
//! * [`eval_shape`] — the scaled-down "evaluation shapes" used for
//!   algorithm-level experiments (quality needs real matrices in memory;
//!   performance experiments always use the full nominal shapes), and
//!   [`candidate_fraction`] — the per-workload candidate budgets implied
//!   by the paper's reported speedups; both live in
//!   [`enmc_model::workloads`], re-exported here;
//! * [`fit_pipeline`] — synthesize + distill for one workload;
//! * [`table`] — fixed-width table printing for harness output;
//! * [`parse`] — each binary declares an [`enmc::cli::Command`] of the
//!   flags it reads ([`JSON`], [`BENCH_JSON`] and `enmc`'s shared flags)
//!   and checks its command line against it before any work;
//! * [`report`] — the shared JSON report emitter: every binary mirrors its
//!   printed tables into `<name>.json` when `--json <file>` or
//!   `ENMC_REPORT_DIR` asks for it;
//! * [`trajectory`] — the bench-trajectory emitter: headline metrics land
//!   in `BENCH_<name>.json` records that `enmc bench-diff` gates on.

pub mod report;
pub mod table;
pub mod trajectory;

pub use enmc_model::workloads::{candidate_fraction, eval_shape};

use enmc::cli::{flag, Args, Command, Flag};
use enmc_model::synth::{SynthesisConfig, SyntheticClassifier};
use enmc_model::workloads::{Workload, WorkloadId};
use enmc_par::SimConfig;
use enmc_screen::infer::{ApproxClassifier, SelectionPolicy};
use enmc_screen::screener::{Screener, ScreenerConfig};
use enmc_screen::train::fit_least_squares;
use enmc_tensor::quant::Precision;

/// `--json FILE`: where [`report::Reporter`] mirrors the printed tables.
#[rustfmt::skip]
pub const JSON: Flag = flag("--json", "FILE", "", "mirror the tables to FILE; ENMC_REPORT_DIR/<binary>.json when unset");

/// `--bench-json FILE`: where [`trajectory::BenchEmitter`] writes its record.
#[rustfmt::skip]
pub const BENCH_JSON: Flag = flag("--bench-json", "FILE", "", "write the bench record to FILE; ENMC_BENCH_DIR/BENCH_<binary>.json when unset");

/// The process's command line checked against `cmd`, with the values
/// `read` takes from it, before any work. A usage error or a value `read`
/// rejects prints its message on stderr and exits 2, as `enmc` does.
pub fn parse<T>(cmd: &'static Command, read: impl FnOnce(&Args) -> Result<T, String>) -> (Args, T) {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = cmd.parse(&argv).and_then(|a| read(&a).map(|values| (a, values)));
    parsed.unwrap_or_else(|msg| {
        eprintln!("{}", msg.trim_end());
        std::process::exit(2)
    })
}

/// Maps `f` over `items` on `cfg`'s workers. Results keep
/// the input order, so a parallel harness run prints exactly the
/// sequential output — `--threads` only changes wall-clock time.
pub fn par_rows<T, U, F>(cfg: &SimConfig, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    enmc_par::par_map(cfg.worker_count(), items, |_, item| f(&item))
}

/// Stable per-workload seed perturbation so each workload's synthetic data
/// is distinct even under a shared base seed.
fn workload_seed(id: WorkloadId, seed: u64) -> u64 {
    let tag = match id {
        WorkloadId::LstmW33K => 1u64,
        WorkloadId::TransformerW268K => 2,
        WorkloadId::GnmtE32K => 3,
        WorkloadId::Xmlcnn670K => 4,
        WorkloadId::S1M => 5,
        WorkloadId::S10M => 6,
        WorkloadId::S100M => 7,
    };
    seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// A fitted algorithm-level pipeline for one workload's eval shape.
pub struct FittedWorkload {
    /// The workload description.
    pub workload: Workload,
    /// The synthetic classifier.
    pub synth: SyntheticClassifier,
    /// The approximate classifier (screener distilled, policy top-m).
    pub classifier: ApproxClassifier,
    /// Evaluation shape `(l_eval, d_eval)`.
    pub shape: (usize, usize),
}

/// Synthesizes and distills one workload at its eval shape.
///
/// # Panics
///
/// Panics if generation fails (cannot happen for the Table 2 shapes).
pub fn fit_pipeline(id: WorkloadId, scale: f64, precision: Precision, seed: u64) -> FittedWorkload {
    let workload = id.workload();
    let (l, d) = eval_shape(&workload);
    let seed = workload_seed(id, seed);
    // Recommendation catalogues are broader and flatter than vocabularies:
    // more clusters, weaker query concentration.
    let recommendation = matches!(workload.task, enmc_model::workloads::TaskKind::Recommendation);
    let synth_cfg = SynthesisConfig {
        categories: l,
        hidden: d,
        clusters: if recommendation { 96.min(l) } else { 48.min(l) },
        row_noise: if recommendation { 0.5 } else { 0.4 },
        zipf_exponent: if recommendation { 0.9 } else { 1.0 },
        bias_scale: 1.0,
        query_signal: if recommendation { 1.9 } else { 2.2 },
        seed,
    };
    let synth = SyntheticClassifier::generate(&synth_cfg).expect("valid synth config");
    let cfg = ScreenerConfig { scale, precision, per_row_scales: false, seed: seed ^ 0x51ee };
    let mut screener = Screener::new(l, d, &cfg).expect("valid screener dims");
    let train: Vec<_> = synth
        .sample_queries_seeded(192, seed ^ 0x7421)
        .into_iter()
        .map(|q| q.hidden)
        .collect();
    fit_least_squares(&mut screener, synth.weights(), synth.bias(), &train, 1e-4);
    let m = ((l as f64) * candidate_fraction(id)).round() as usize;
    let mut classifier = ApproxClassifier::new(
        synth.weights().clone(),
        synth.bias().clone(),
        screener,
        SelectionPolicy::TopM(m.max(1)),
    )
    .expect("shape-consistent classifier");
    // Frozen so the harness binaries can classify through shared
    // references when sharding query loops across workers.
    classifier.freeze();
    FittedWorkload { workload, synth, classifier, shape: (l, d) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_shapes_are_bounded() {
        for id in WorkloadId::table2() {
            let (l, d) = eval_shape(&id.workload());
            assert!(l <= 6000 && d <= 256, "{id}: {l}x{d}");
        }
    }

    #[test]
    fn candidate_fractions_order_matches_paper_speedups() {
        // Higher paper speedup → smaller candidate fraction.
        assert!(
            candidate_fraction(WorkloadId::Xmlcnn670K)
                < candidate_fraction(WorkloadId::GnmtE32K)
        );
        assert!(
            candidate_fraction(WorkloadId::GnmtE32K)
                < candidate_fraction(WorkloadId::TransformerW268K)
        );
    }

    #[test]
    fn fit_pipeline_produces_consistent_shapes() {
        let f = fit_pipeline(WorkloadId::GnmtE32K, 0.25, Precision::Fp32, 1);
        assert_eq!(f.classifier.categories(), f.shape.0);
        assert_eq!(f.synth.hidden(), f.shape.1);
    }

    #[test]
    fn par_rows_preserves_input_order() {
        let items: Vec<usize> = (0..37).collect();
        let seq = par_rows(&SimConfig::sequential(), items.clone(), |&i| i * i);
        let par = par_rows(&SimConfig::with_threads(4), items, |&i| i * i);
        assert_eq!(seq, par);
        assert_eq!(seq[36], 36 * 36);
    }
}
