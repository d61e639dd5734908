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
//! * [`report`] — the shared JSON report emitter: every binary mirrors its
//!   printed tables into `<name>.json` when `--json <file>` or
//!   `ENMC_REPORT_DIR` asks for it;
//! * [`trajectory`] — the bench-trajectory emitter: headline metrics land
//!   in `BENCH_<name>.json` records that `enmc bench-diff` gates on.

pub mod report;
pub mod table;
pub mod trajectory;

pub use enmc_model::workloads::{candidate_fraction, eval_shape};

use enmc_model::synth::{SynthesisConfig, SyntheticClassifier};
use enmc_model::workloads::{Workload, WorkloadId};
use enmc_par::SimConfig;
use enmc_screen::infer::{ApproxClassifier, SelectionPolicy};
use enmc_screen::screener::{Screener, ScreenerConfig};
use enmc_screen::train::fit_least_squares;
use enmc_surrogate::CostBackend;
use enmc_tensor::quant::Precision;
use std::path::PathBuf;

/// The value after `name` on the command line `args`: `None` when the
/// flag is absent, `""` when it is the last argument.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == name)?;
    Some(args.get(i + 1).map_or("", String::as_str))
}

/// `name`'s value as an integer >= 1; `None` when the flag is absent.
fn positive(args: &[String], name: &str) -> Result<Option<usize>, String> {
    let read = |raw: &str| {
        let n = raw.parse::<usize>().ok().filter(|&n| n >= 1);
        n.ok_or_else(|| format!("{name} expects an integer >= 1, got '{raw}'"))
    };
    flag(args, name).map(read).transpose()
}

/// Bench-wide execution policy: `--threads N` on the command line `args`
/// wins, then the `ENMC_THREADS` environment hook, else sequential. Every
/// figure/table binary reads its policy from here so the CI matrix can
/// drive the whole harness through one environment variable.
///
/// # Errors
///
/// Names the flag, the value and the range when `--threads` is not an
/// integer >= 1 (`--threads expects an integer >= 1, got '0'`).
pub fn sim_config(args: &[String]) -> Result<SimConfig, String> {
    Ok(SimConfig::resolve(positive(args, "--threads")?, false))
}

/// `--scale N`: the binary simulates `1/N` of each category slice;
/// `default` when the flag is absent.
///
/// # Errors
///
/// Names the flag, the value and the range when `N` is not an integer
/// >= 1.
pub fn scale(args: &[String], default: usize) -> Result<usize, String> {
    Ok(positive(args, "--scale")?.unwrap_or(default))
}

/// Bench-wide cost backend: `--cost-model {cycle-accurate|surrogate}`
/// (`default` when absent) picks who answers sweep points, and
/// `--audit-rate R` (default 0.1) the fraction of surrogate predictions
/// re-run cycle-accurately. Mirrors the `enmc` CLI flags so the CI
/// surrogate gate drives the grid benches the same way it drives the
/// serving and fault commands.
///
/// # Errors
///
/// Names the flag, the value and the accepted values when the model is
/// unknown or the audit rate is not in `[0, 1]` (checked whichever model
/// is chosen).
pub fn cost_backend(args: &[String], default: &str) -> Result<CostBackend, String> {
    let audit_rate = match flag(args, "--audit-rate") {
        None => 0.1,
        Some(raw) => {
            raw.parse::<f64>().ok().filter(|r| (0.0..=1.0).contains(r)).ok_or_else(|| {
                format!("--audit-rate expects a finite number in [0, 1], got '{raw}'")
            })?
        }
    };
    match flag(args, "--cost-model").unwrap_or(default) {
        "cycle-accurate" | "cycle" => Ok(CostBackend::CycleAccurate),
        "surrogate" => Ok(CostBackend::Surrogate { audit_rate }),
        raw => Err(format!(
            "--cost-model expects one of cycle-accurate, cycle, surrogate, got '{raw}'"
        )),
    }
}

/// Where a harness document goes: the path after `name` on the command
/// line `args`, else `file` in the directory the `env` variable names,
/// else nowhere.
///
/// # Errors
///
/// Names the flag when no path follows it: it is the last argument, or
/// the next argument is another flag (`--json expects a file path, got
/// '--threads'`).
fn destination(
    args: &[String],
    name: &str,
    env: &str,
    file: String,
) -> Result<Option<PathBuf>, String> {
    match flag(args, name) {
        Some(raw) if raw.is_empty() || raw.starts_with("--") => {
            Err(format!("{name} expects a file path, got '{raw}'"))
        }
        Some(raw) => Ok(Some(PathBuf::from(raw))),
        None => Ok(std::env::var_os(env).map(|dir| PathBuf::from(dir).join(file))),
    }
}

/// The value of a flag reader, or its message on stderr and exit code 2,
/// as `enmc` does for a bad flag value.
pub fn or_exit<T>(read: Result<T, String>) -> T {
    read.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// Maps `f` over `items` under the bench execution policy. Results keep
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

/// Fits several workloads under the bench execution policy; the results
/// always come back in `ids` order.
pub fn fit_pipelines(
    ids: &[WorkloadId],
    scale: f64,
    precision: Precision,
    seed: u64,
    cfg: &SimConfig,
) -> Vec<FittedWorkload> {
    par_rows(cfg, ids.to_vec(), |&id| fit_pipeline(id, scale, precision, seed))
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
    fn flag_readers_name_the_flag_the_value_and_the_range() {
        let argv = |line: &str| -> Vec<String> { line.split(' ').map(str::to_string).collect() };
        assert_eq!(sim_config(&argv("x --threads 4")), Ok(SimConfig::with_threads(4)));
        assert_eq!((scale(&argv("x"), 8), scale(&argv("x --scale 2"), 8)), (Ok(8), Ok(2)));
        let surrogate = Ok(CostBackend::Surrogate { audit_rate: 0.5 });
        assert_eq!(cost_backend(&argv("x --audit-rate 0.5"), "surrogate"), surrogate);
        assert_eq!(cost_backend(&argv("x"), "cycle-accurate"), Ok(CostBackend::CycleAccurate));
        for (read, want) in [
            (
                sim_config(&argv("x --threads 0")).err(),
                "--threads expects an integer >= 1, got '0'",
            ),
            (
                sim_config(&argv("x --threads four")).err(),
                "--threads expects an integer >= 1, got 'four'",
            ),
            (scale(&argv("x --scale 0"), 8).err(), "--scale expects an integer >= 1, got '0'"),
            (scale(&argv("x --scale"), 8).err(), "--scale expects an integer >= 1, got ''"),
            (
                cost_backend(&argv("x --cost-model surogate"), "cycle").err(),
                "--cost-model expects one of cycle-accurate, cycle, surrogate, got 'surogate'",
            ),
            (
                cost_backend(&argv("x --audit-rate 2"), "surrogate").err(),
                "--audit-rate expects a finite number in [0, 1], got '2'",
            ),
        ] {
            assert_eq!(read.as_deref(), Some(want));
        }
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
