//! Root glue for `enmc fault-sweep`: builds a paper-shape pipeline, runs
//! the fault/resilience sweep from `enmc-fault`, and renders the
//! quality-vs-refresh-energy Pareto table plus a structured [`RunReport`]
//! carrying the `fault` and `surrogate` sections.
//!
//! The sweep is memory-technology aware: `--memory` swaps the system
//! onto another preset, and the preset's error profile scales the
//! injected fault model (BER × `ber_scale`, retention base, weak-column
//! incidence × `weak_column_scale`) before the sweep runs.
//!
//! Like the bench harness, quality runs on a scaled *evaluation shape*
//! (real matrices must fit in memory) while the energy join simulates the
//! workload's full nominal shape — the refresh schedule is only
//! observable on runs long enough to issue REF commands.
//!
//! Everything here is worker-count invariant: the sweep shards over a
//! fixed shard count, the report records no host timing, and the fault
//! maps are stateless hashes — so `--threads 4` output is byte-identical
//! to `--threads 1` (CI diffs exactly that).

use crate::cli::FaultShape;
use crate::pipeline::{Pipeline, PipelineConfig};
use enmc_arch::system::ClassificationJob;
use enmc_fault::{
    pareto_frontier, run_resilience_sweep, FaultModel, FaultSweepSpec, ParetoRow,
    SweepError, SweepPoint,
};
use enmc_surrogate::{CostBackend, CostModel};
use enmc_mem::MemTech;
use enmc_model::workloads::{candidate_fraction, eval_shape, WorkloadId};
use enmc_obs::report::{Fault, RunReport};
use enmc_obs::{MetricsRegistry, TraceBuffer};

/// The Table 2 workload behind a fault-sweep shape.
fn shape_workload(shape: FaultShape) -> WorkloadId {
    match shape {
        FaultShape::LstmWikitext2 => WorkloadId::LstmW33K,
        FaultShape::TransformerWikitext103 => WorkloadId::TransformerW268K,
        FaultShape::GnmtWmt16 => WorkloadId::GnmtE32K,
        FaultShape::XmlcnnAmazon670k => WorkloadId::Xmlcnn670K,
    }
}

/// Pipeline configuration for one shape's algorithm-level evaluation.
pub fn shape_config(shape: FaultShape, seed: u64) -> PipelineConfig {
    let id = shape_workload(shape);
    let (l, d) = eval_shape(&id.workload());
    PipelineConfig {
        categories: l,
        hidden: d,
        candidates: (((l as f64) * candidate_fraction(id)).round() as usize).max(1),
        train_queries: 128,
        seed,
        ..Default::default()
    }
}

/// The full nominal hardware job the energy join simulates. `batch`
/// stretches the run so every rank issues several refresh windows.
pub fn shape_job(shape: FaultShape, batch: usize) -> ClassificationJob {
    let id = shape_workload(shape);
    let w = id.workload();
    ClassificationJob {
        categories: w.categories,
        hidden: w.hidden,
        reduced: (w.hidden / 4).max(1),
        batch,
        candidates: (((w.categories as f64) * candidate_fraction(id)).round() as usize).max(1),
    }
}

/// Default candidate tiers for the per-tier masking breakdown: the
/// headline K, then half and a quarter of it (the serving degrade ladder
/// shape).
pub fn default_fault_tiers(k: usize) -> Vec<usize> {
    let mut tiers = vec![k.max(1), (k / 2).max(1), (k / 4).max(1)];
    tiers.dedup();
    tiers
}

/// Batch size of the energy-join job: long enough that every rank's run
/// spans several tREFI windows, so relaxing the refresh schedule has an
/// observable energy effect.
const ENERGY_JOIN_BATCH: usize = 8;

/// Everything `enmc fault-sweep` needs parsed and validated.
#[derive(Debug, Clone)]
pub struct FaultSweepArgs {
    /// Which paper shape to evaluate.
    pub shape: FaultShape,
    /// Uniform bit-error rate of the channel.
    pub ber: f64,
    /// Refresh-interval multipliers to sweep.
    pub multipliers: Vec<f64>,
    /// Fraction of tRCD-marginal bit columns.
    pub weak_columns: f64,
    /// Protect both weight surfaces with SEC-DED (72,64).
    pub ecc: bool,
    /// Queries evaluated per sweep point.
    pub queries: usize,
    /// Seed for the fault maps and the query sample.
    pub seed: u64,
    /// Worker threads (result is bit-identical for any count).
    pub workers: usize,
    /// Cost backend answering the per-point energy join.
    pub backend: CostBackend,
    /// Memory technology preset: sets the timing/energy model of the
    /// energy join and scales the injected fault model by the preset's
    /// error profile.
    pub memory: MemTech,
    /// Surrogate coefficient file to load instead of fitting fresh
    /// (ignored on the cycle-accurate backend).
    pub coeffs_in: Option<String>,
    /// Where to write the surrogate's fitted coefficients (ignored on
    /// the cycle-accurate backend).
    pub coeffs_out: Option<String>,
}

/// Runs the sweep end to end: pipeline build, injection, quality, energy
/// join, Pareto frontier, and the structured report.
///
/// # Errors
///
/// Returns a description when the pipeline cannot be built or injection
/// fails.
pub fn run_fault_sweep(
    args: &FaultSweepArgs,
    trace: Option<&mut TraceBuffer>,
) -> Result<(Vec<SweepPoint>, Vec<ParetoRow>, RunReport), String> {
    let pipeline = Pipeline::build(&shape_config(args.shape, args.seed))
        .map_err(|e| format!("cannot build {} pipeline: {e}", args.shape.name()))?;
    let job = shape_job(args.shape, ENERGY_JOIN_BATCH);
    let system = pipeline.system().clone().with_memory(args.memory);
    let profile = system.memory().error;
    let model = FaultModel::nominal(args.seed)
        .with_ber((args.ber * profile.ber_scale).min(1.0))
        .with_retention_base(profile.retention_base)
        .with_weak_columns((args.weak_columns * profile.weak_column_scale).min(1.0));
    let tiers = default_fault_tiers(pipeline.config().candidates);
    let spec = FaultSweepSpec {
        model,
        multipliers: args.multipliers.clone(),
        ecc: args.ecc,
        queries: args.queries,
        query_seed: args.seed ^ 0xfa17,
        tiers: tiers.clone(),
    };
    let mut registry = MetricsRegistry::new();
    let mut cost = CostModel::new(args.backend, args.seed);
    if let Some(path) = &args.coeffs_in {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read --coeffs {path}: {e}"))?;
        cost.load_coeffs(&text).map_err(|e| format!("cannot load --coeffs {path}: {e}"))?;
    }
    let points = run_resilience_sweep(
        pipeline.synth(),
        pipeline.classifier(),
        &system,
        &job,
        &spec,
        args.workers,
        Some(&mut registry),
        trace,
        &mut cost,
    )
    .map_err(|e| match e {
        SweepError::Tensor(t) => format!("fault injection failed: {t}"),
        SweepError::Surrogate(v) => format!("surrogate audit failed: {v}"),
    })?;
    if let Some(path) = &args.coeffs_out {
        std::fs::write(path, cost.coeffs_to_json())
            .map_err(|e| format!("cannot write --coeffs-out {path}: {e}"))?;
    }
    let frontier = pareto_frontier(&points);

    let mut report = RunReport::new("fault-sweep", args.shape.name(), "enmc");
    report.batch = job.batch as u64;
    report.candidates = job.candidates as u64;
    report.memory_tech = args.memory.name().to_string();
    report.fault = Some(Fault {
        ber: args.ber,
        refresh_multiplier: args.multipliers.iter().copied().fold(1.0f64, f64::max),
        ecc_corrected: points.iter().map(SweepPoint::ecc_corrected).sum(),
        ecc_uncorrected: points.iter().map(SweepPoint::ecc_uncorrected).sum(),
        quality_degradation_pct: points
            .iter()
            .map(SweepPoint::quality_degradation_pct)
            .fold(0.0f64, f64::max),
        ber_scale: profile.ber_scale,
        retention_base: profile.retention_base,
        weak_column_scale: profile.weak_column_scale,
    });
    report.surrogate = Some(cost.stats().section(cost.backend()));
    report.metrics = registry.snapshot();
    let cfg = pipeline.config();
    report.notes.push(format!(
        "eval shape {}x{}, tiers {:?}, {} queries, seed {}",
        cfg.categories, cfg.hidden, tiers, args.queries, args.seed
    ));
    report.notes.push(format!(
        "ecc {}; weak-column fraction {}; scalar fields summarize the worst sweep point",
        if args.ecc { "on" } else { "off" },
        args.weak_columns
    ));
    // No host timing in the report: the sweep promises byte-identical
    // output at any worker count.
    Ok((points, frontier, report))
}

/// Renders the sweep as the fixed-width tables `enmc fault-sweep` prints.
pub fn render_text(points: &[SweepPoint], frontier: &[ParetoRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "  mult   refresh uJ   total uJ    top1 %   degr %   flips (drop/spike)   rows read/masked   ecc corr/uncorr\n",
    );
    for p in points {
        let t = p.primary();
        out.push_str(&format!(
            "  {:<6} {:>10.2} {:>10.2} {:>9.2} {:>8.3}   {:>6} ({}/{})   {:>8}/{:<8}   {}/{}\n",
            p.refresh_multiplier,
            p.refresh_energy_nj / 1e3,
            p.total_energy_nj / 1e3,
            100.0 * t.quality.top1_agreement,
            p.quality_degradation_pct(),
            t.fault_top1_flips,
            t.flips_candidate_drop,
            t.flips_logit_spike,
            t.corrupted_rows_read,
            t.corrupted_rows_masked,
            p.ecc_corrected(),
            p.ecc_uncorrected(),
        ));
    }
    out.push_str("  pareto frontier (running-min quality, nonincreasing by construction):\n");
    for row in frontier {
        out.push_str(&format!(
            "    m={:<6} refresh {:>10.2} uJ   top1 {:>6.2} %\n",
            row.refresh_multiplier,
            row.refresh_energy_nj / 1e3,
            100.0 * row.top1_agreement,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_configs_are_buildable_and_bounded() {
        for shape in [
            FaultShape::LstmWikitext2,
            FaultShape::TransformerWikitext103,
            FaultShape::GnmtWmt16,
            FaultShape::XmlcnnAmazon670k,
        ] {
            let cfg = shape_config(shape, 7);
            assert!(cfg.categories <= 6000 && cfg.hidden <= 256, "{shape:?}");
            assert!(cfg.candidates >= 1 && cfg.candidates < cfg.categories);
            let job = shape_job(shape, 1);
            assert!(job.categories >= cfg.categories, "{shape:?} job is nominal-shape");
            assert!(job.candidates >= 1);
        }
    }

    #[test]
    fn default_tiers_halve_and_dedup() {
        assert_eq!(default_fault_tiers(576), vec![576, 288, 144]);
        assert_eq!(default_fault_tiers(2), vec![2, 1]);
        assert_eq!(default_fault_tiers(1), vec![1]);
        assert_eq!(default_fault_tiers(0), vec![1]);
    }

    #[test]
    fn nominal_sweep_reports_zero_degradation_and_is_worker_invariant() {
        let args = FaultSweepArgs {
            shape: FaultShape::LstmWikitext2,
            ber: 0.0,
            multipliers: vec![1.0],
            weak_columns: 0.0,
            ecc: false,
            queries: 24,
            seed: 7,
            workers: 1,
            backend: CostBackend::CycleAccurate,
            memory: MemTech::Ddr4_2666,
            coeffs_in: None,
            coeffs_out: None,
        };
        let (points, frontier, report) = run_fault_sweep(&args, None).unwrap();
        let fault = report.fault.as_ref().unwrap();
        let surrogate = report.surrogate.as_ref().unwrap();
        assert_eq!(fault.quality_degradation_pct, 0.0);
        assert_eq!(report.memory_tech, "ddr4-2666");
        assert_eq!(fault.ber_scale, 1.0);
        assert_eq!(fault.ecc_corrected, 0);
        assert_eq!(surrogate.cost_backend, "cycle-accurate");
        assert_eq!(surrogate.fit_anchors, 0);
        assert_eq!(points[0].primary().fault_top1_flips, 0);
        assert_eq!(frontier.len(), 1);
        assert!(points[0].refresh_energy_nj > 0.0, "energy join must see refreshes");
        let par = FaultSweepArgs { workers: 4, ..args };
        let (p4, _, r4) = run_fault_sweep(&par, None).unwrap();
        assert_eq!(p4, points, "sweep points diverged across worker counts");
        assert_eq!(r4.to_json(), report.to_json(), "report diverged across worker counts");
    }

    #[test]
    fn surrogate_backend_survives_a_full_audit_and_reports_its_stats() {
        let args = FaultSweepArgs {
            shape: FaultShape::LstmWikitext2,
            ber: 0.0,
            multipliers: vec![1.0, 8.0],
            weak_columns: 0.0,
            ecc: false,
            queries: 24,
            seed: 7,
            workers: 1,
            backend: CostBackend::Surrogate { audit_rate: 1.0 },
            memory: MemTech::Ddr4_2666,
            coeffs_in: None,
            coeffs_out: None,
        };
        let (points, _, report) = run_fault_sweep(&args, None).unwrap();
        let surrogate = report.surrogate.unwrap();
        assert_eq!(surrogate.cost_backend, "surrogate");
        assert!(surrogate.fit_anchors > 0, "surrogate must have fitted anchors");
        assert_eq!(surrogate.audit_points, 2, "audit rate 1.0 audits every point");
        assert!(
            surrogate.audit_max_rel_err <= enmc_surrogate::DECLARED_BOUND.rel,
            "observed {}",
            surrogate.audit_max_rel_err
        );
        assert!(points[0].refresh_energy_nj > 0.0, "predicted energy join sees refreshes");
        assert!(
            points[1].refresh_energy_nj < points[0].refresh_energy_nj,
            "relaxed refresh must cost less refresh energy"
        );
    }

    #[test]
    fn injected_ber_degrades_quality_and_the_frontier_is_monotone() {
        let args = FaultSweepArgs {
            shape: FaultShape::LstmWikitext2,
            ber: 1e-4,
            multipliers: vec![1.0, 16.0, 64.0],
            weak_columns: 0.0,
            ecc: false,
            queries: 24,
            seed: 7,
            workers: 2,
            backend: CostBackend::CycleAccurate,
            memory: MemTech::Ddr4_2666,
            coeffs_in: None,
            coeffs_out: None,
        };
        let (points, frontier, report) = run_fault_sweep(&args, None).unwrap();
        let fault = report.fault.as_ref().unwrap();
        assert!(fault.quality_degradation_pct > 0.0, "1e-4 BER without ECC must degrade");
        assert_eq!(fault.refresh_multiplier, 64.0);
        assert_eq!(report.schema_version, 11);
        for w in frontier.windows(2) {
            assert!(w[1].top1_agreement <= w[0].top1_agreement, "quality must not increase");
            assert!(
                w[1].refresh_energy_nj <= w[0].refresh_energy_nj,
                "refresh energy must not increase"
            );
        }
        assert!(points.iter().any(|p| p.screener.raw_flips > 0));
    }

    #[test]
    fn lpddr4_preset_scales_the_injected_fault_model() {
        let args = FaultSweepArgs {
            shape: FaultShape::LstmWikitext2,
            ber: 1e-4,
            multipliers: vec![1.0],
            weak_columns: 0.0,
            ecc: false,
            queries: 24,
            seed: 7,
            workers: 1,
            backend: CostBackend::CycleAccurate,
            memory: MemTech::Lpddr4_3200,
            coeffs_in: None,
            coeffs_out: None,
        };
        let (points, _, report) = run_fault_sweep(&args, None).unwrap();
        let profile = MemTech::Lpddr4_3200.preset().error;
        let fault = report.fault.unwrap();
        assert_eq!(report.memory_tech, "lpddr4-3200");
        assert_eq!(fault.ber, 1e-4, "fault.ber stays the requested channel BER");
        assert_eq!(fault.ber_scale, profile.ber_scale);
        assert_eq!(fault.retention_base, profile.retention_base);
        assert_eq!(fault.weak_column_scale, profile.weak_column_scale);
        assert!(
            fault.quality_degradation_pct > 0.0,
            "scaled BER on LPDDR4 must still degrade quality"
        );
        // The energy join ran on the LPDDR4 timing/energy model, whose
        // refresh schedule differs from the DDR4 baseline.
        let base = FaultSweepArgs { memory: MemTech::Ddr4_2666, ..args };
        let (bp, _, _) = run_fault_sweep(&base, None).unwrap();
        assert_ne!(
            points[0].refresh_energy_nj, bp[0].refresh_energy_nj,
            "presets must reach the energy join, not just the report"
        );
    }
}
