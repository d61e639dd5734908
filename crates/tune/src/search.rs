//! The search driver: exhaustive and guided exploration of a budgeted
//! [`TuneSpace`], and the `tune` and `offload-plan` run reports.
//!
//! Both strategies share one invariant: a design's evaluation is a pure
//! function of `(space, seed, lattice index)` — see [`crate::eval`] — so
//! wherever the two strategies evaluate the *same* designs they get the
//! *same* numbers, and identical frontiers render identical fixtures.
//! Guided search is a seeded local-neighborhood frontier fixpoint
//! (successive halving over the lattice): it seeds with the admitted
//! extremes plus a deterministic sample, keeps the running frontier, and
//! expands the single-axis lattice neighbors of frontier points until no
//! expansion changes the frontier. CI verifies it equals brute force on
//! small spaces.

use crate::eval::{admit_by_budget, evaluate_designs, EvaluatedDesign};
use crate::pareto::{dominated_count, pareto_frontier, FrontierPoint};
use crate::planner::OffloadDecision;
use crate::space::{Budget, TuneSpace};
use enmc_arch::{ClassificationJob, SystemModel};
use enmc_obs::report::{Offload, RunReport, Tune};
use enmc_serve::arrival::SplitMix64;
use enmc_surrogate::{AuditStats, CostBackend, CostModel, SurrogateViolation};
use std::collections::BTreeSet;

/// How the driver walks the admitted lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMode {
    /// Evaluate every admitted design.
    Exhaustive,
    /// Seeded sample + frontier-neighborhood fixpoint.
    Guided,
}

impl SearchMode {
    /// CLI / report name.
    pub fn name(&self) -> &'static str {
        match self {
            SearchMode::Exhaustive => "exhaustive",
            SearchMode::Guided => "guided",
        }
    }
}

/// A full tuning run's configuration.
#[derive(Debug, Clone)]
pub struct TuneConfig {
    /// The declared space (normalized on entry to [`tune`]).
    pub space: TuneSpace,
    /// Area/power budget rejected designs violate.
    pub budget: Budget,
    /// Cost backend every survivor is evaluated through.
    pub backend: CostBackend,
    /// Base seed for the per-design audit lotteries and the guided
    /// sampler.
    pub seed: u64,
    /// Worker threads for the evaluation fan-out.
    pub workers: usize,
    /// Search strategy.
    pub mode: SearchMode,
}

impl Default for TuneConfig {
    fn default() -> Self {
        TuneConfig {
            space: TuneSpace::small(),
            budget: Budget::default(),
            backend: CostBackend::Surrogate { audit_rate: 0.1 },
            seed: 7,
            workers: 1,
            mode: SearchMode::Exhaustive,
        }
    }
}

/// A completed tuning run.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneResult {
    /// Designs in the declared lattice.
    pub space_size: usize,
    /// Designs the budget rejected before evaluation.
    pub rejected: u64,
    /// Every evaluated design, ascending by lattice index.
    pub evaluated: Vec<EvaluatedDesign>,
    /// The Pareto frontier over the evaluated designs.
    pub frontier: Vec<FrontierPoint>,
    /// Evaluated designs dominated by at least one frontier point.
    pub dominated: u64,
}

impl TuneResult {
    /// Evaluated designs whose audit lottery fired (or that ran
    /// cycle-accurately outright).
    pub fn audited(&self) -> u64 {
        self.evaluated.iter().filter(|d| d.audited).count() as u64
    }
}

/// Runs one tuning search.
///
/// # Errors
///
/// Returns the [`SurrogateViolation`] when any design's audit misses the
/// declared bound.
///
/// # Panics
///
/// Panics when the space normalizes to zero designs (empty axes panic in
/// [`TuneSpace::normalize`]).
pub fn tune(
    sys: &SystemModel,
    job: &ClassificationJob,
    cfg: &TuneConfig,
) -> Result<TuneResult, SurrogateViolation> {
    let space = cfg.space.clone().normalize();
    let space_size = space.size();
    let (admitted, rejected) = admit_by_budget(&space, &cfg.budget);
    let evaluated = match cfg.mode {
        SearchMode::Exhaustive => {
            evaluate_designs(sys, job, &space, &admitted, cfg.backend, cfg.seed, cfg.workers)?
        }
        SearchMode::Guided => guided(sys, job, &space, &admitted, cfg)?,
    };
    let frontier = pareto_frontier(&evaluated);
    let dominated = dominated_count(&evaluated, &frontier);
    Ok(TuneResult {
        space_size,
        rejected: rejected.len() as u64,
        evaluated,
        frontier,
        dominated,
    })
}

/// Seeded local-neighborhood search. Evaluation results accumulate in a
/// lattice-index-ordered map, so the returned vector (and thus the
/// frontier) is independent of the wave order designs were discovered
/// in.
fn guided(
    sys: &SystemModel,
    job: &ClassificationJob,
    space: &TuneSpace,
    admitted: &[usize],
    cfg: &TuneConfig,
) -> Result<Vec<EvaluatedDesign>, SurrogateViolation> {
    if admitted.is_empty() {
        return Ok(Vec::new());
    }
    let admitted_set: BTreeSet<usize> = admitted.iter().copied().collect();

    // Wave 0: the admitted extremes plus a seeded sample of roughly half
    // the admitted lattice (successive halving's first rung).
    let mut wave: BTreeSet<usize> = BTreeSet::new();
    wave.insert(*admitted.first().expect("admitted is non-empty"));
    wave.insert(*admitted.last().expect("admitted is non-empty"));
    let mut rng = SplitMix64::new(cfg.seed ^ 0x7475_6e65); // "tune"
    let samples = (admitted.len() / 2).max(4).min(admitted.len());
    for _ in 0..samples {
        let pick = admitted[(rng.next_u64() % admitted.len() as u64) as usize];
        wave.insert(pick);
    }

    let mut evaluated: Vec<EvaluatedDesign> = Vec::new();
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    loop {
        let fresh: Vec<usize> = wave.iter().copied().filter(|i| seen.insert(*i)).collect();
        if fresh.is_empty() {
            break;
        }
        let new = evaluate_designs(sys, job, space, &fresh, cfg.backend, cfg.seed, cfg.workers)?;
        evaluated.extend(new);
        evaluated.sort_by_key(|d| d.point.index);

        // Next wave: unexplored admitted neighbors of the running
        // frontier.
        wave.clear();
        for f in pareto_frontier(&evaluated) {
            for n in space.neighbors(f.design.point.index) {
                if admitted_set.contains(&n) && !seen.contains(&n) {
                    wave.insert(n);
                }
            }
        }
    }
    Ok(evaluated)
}

/// Builds the tuning [`RunReport`]: the `tune` and `surrogate`
/// sections. `cost` is the CLI-level cost model carrying nothing
/// (per-design models do the work); only its backend name is reported,
/// with the anchors and worst audit error summed over the designs.
/// Simulation cycles stay zero — a tuning run has no single timeline — so
/// the report is trivially phase-consistent.
pub fn tune_report(
    workload: &str,
    cfg: &TuneConfig,
    result: &TuneResult,
    cost: &CostModel,
) -> RunReport {
    let mut report = RunReport::new("tune", workload, "enmc");
    // A design counts as an audit point when the audit re-ran its
    // surrogate prediction; a cycle-accurate run predicts nothing.
    let audited = match cost.backend() {
        CostBackend::Surrogate { .. } => result.audited(),
        CostBackend::CycleAccurate => 0,
    };
    let stats = AuditStats {
        fit_anchors: result.evaluated.iter().map(|d| d.fit_anchors).sum(),
        audited,
        max_rel_err: result.evaluated.iter().map(|d| d.audit_max_rel_err).fold(0.0, f64::max),
        ..AuditStats::default()
    };
    report.surrogate = Some(stats.section(cost.backend()));
    report.tune = Some(Tune {
        space_size: result.space_size as u64,
        evaluated_designs: result.evaluated.len() as u64,
        audited_designs: result.audited(),
        frontier_points: result.frontier.len() as u64,
        dominated_points: result.dominated,
        max_area_mm2: cfg.budget.max_area_mm2.unwrap_or(0.0),
        max_power_mw: cfg.budget.max_power_mw.unwrap_or(0.0),
    });
    if let Some(best) = result.frontier.first() {
        report.headline_ns = best.design.latency_ns;
        report.batch = best.design.point.batch_max as u64;
        report.candidates = best.design.point.candidates as u64;
    }
    report.notes.push(format!(
        "{} search over {} design(s): {} rejected by budget, {} evaluated, {} on frontier",
        cfg.mode.name(),
        result.space_size,
        result.rejected,
        result.evaluated.len(),
        result.frontier.len(),
    ));
    for p in &result.frontier {
        let d = &p.design;
        report.notes.push(format!(
            "frontier {}: {:.1} ns, {:.1} nJ/query, {:.2} % quality, {:.3} mm2, {:.1} mW, {} ({} dominated)",
            d.point.label(),
            d.latency_ns,
            d.energy_per_query_nj,
            d.quality_pct,
            d.cost.area_mm2,
            d.cost.power_mw,
            d.provenance(),
            p.dominates,
        ));
    }
    report
}

/// Builds the `offload-plan` [`RunReport`]: the ladder's largest batch
/// and the job's candidates, the `offload` and `surrogate` sections, and
/// one note per admission point.
pub fn offload_report(
    workload: &str,
    job: &ClassificationJob,
    batch_max: usize,
    decisions: &[OffloadDecision],
    cost: &CostModel,
) -> RunReport {
    let mut report = RunReport::new("offload-plan", workload, "enmc");
    report.batch = batch_max as u64;
    report.candidates = job.candidates as u64;
    let offload_nmp = decisions.iter().filter(|d| d.nmp).count() as u64;
    let offload_cpu = decisions.len() as u64 - offload_nmp;
    report.offload = Some(Offload { offload_nmp, offload_cpu });
    report.surrogate = Some(cost.stats().section(cost.backend()));
    for d in decisions {
        report.notes.push(format!(
            "tier {} batch {}: cpu {} cy, nmp {} cy -> {}",
            d.tier,
            d.batch,
            d.cpu_cycles,
            d.nmp_cycles,
            d.executor()
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::dominates;

    fn small_job() -> ClassificationJob {
        ClassificationJob { categories: 2048, hidden: 64, reduced: 16, batch: 4, candidates: 128 }
    }

    fn base_cfg() -> TuneConfig {
        TuneConfig {
            backend: CostBackend::Surrogate { audit_rate: 0.25 },
            ..TuneConfig::default()
        }
    }

    #[test]
    fn guided_matches_exhaustive_on_the_small_space() {
        let sys = SystemModel::table3();
        let job = small_job();
        let ex = tune(&sys, &job, &base_cfg()).unwrap();
        let gd =
            tune(&sys, &job, &TuneConfig { mode: SearchMode::Guided, ..base_cfg() }).unwrap();
        // Same non-dominated designs with identical coordinates; only
        // the per-point dominance counts (over each strategy's smaller
        // or larger evaluated set) may differ.
        let designs = |r: &TuneResult| -> Vec<EvaluatedDesign> {
            r.frontier.iter().map(|f| f.design.clone()).collect()
        };
        assert_eq!(designs(&ex), designs(&gd));
        assert!(gd.evaluated.len() <= ex.evaluated.len());
        let budget = Budget::default();
        assert_eq!(
            crate::pareto::frontier_json("lstm", ex.space_size, &budget, &ex.frontier),
            crate::pareto::frontier_json("lstm", gd.space_size, &budget, &gd.frontier),
        );
    }

    #[test]
    fn tuning_is_worker_invariant() {
        let sys = SystemModel::table3();
        let job = small_job();
        for mode in [SearchMode::Exhaustive, SearchMode::Guided] {
            let one = tune(&sys, &job, &TuneConfig { mode, workers: 1, ..base_cfg() }).unwrap();
            let four = tune(&sys, &job, &TuneConfig { mode, workers: 4, ..base_cfg() }).unwrap();
            assert_eq!(one, four, "{mode:?}");
        }
    }

    #[test]
    fn budget_excludes_designs_from_frontier() {
        let sys = SystemModel::table3();
        let job = small_job();
        let cfg = TuneConfig {
            budget: Budget { max_area_mm2: Some(15.0), max_power_mw: None },
            ..base_cfg()
        };
        let r = tune(&sys, &job, &cfg).unwrap();
        assert!(r.rejected > 0);
        assert_eq!(r.evaluated.len() + r.rejected as usize, r.space_size);
        for f in &r.frontier {
            assert!(f.design.cost.area_mm2 <= 15.0);
            assert_eq!(f.design.point.ranks, 32);
        }
    }

    #[test]
    fn frontier_is_mutually_non_dominating() {
        let sys = SystemModel::table3();
        let job = small_job();
        let r = tune(&sys, &job, &base_cfg()).unwrap();
        assert!(!r.frontier.is_empty());
        for a in &r.frontier {
            for b in &r.frontier {
                assert!(!dominates(&a.design, &b.design), "frontier point dominated");
            }
        }
    }

    #[test]
    fn report_is_consistent_and_carries_its_sections() {
        let sys = SystemModel::table3();
        let job = small_job();
        for backend in [base_cfg().backend, CostBackend::CycleAccurate] {
            let cfg = TuneConfig { backend, ..base_cfg() };
            let r = tune(&sys, &job, &cfg).unwrap();
            let cost = CostModel::new(cfg.backend, cfg.seed);
            let report = tune_report("lstm", &cfg, &r, &cost);
            assert_eq!(report.schema_version, enmc_obs::report::SCHEMA_VERSION);
            assert!(report.is_consistent());
            assert_eq!(report.sections(), ["surrogate", "tune"]);
            let tune = report.tune.as_ref().unwrap();
            assert_eq!(tune.space_size, 32);
            assert_eq!(tune.frontier_points, r.frontier.len() as u64);
            let surrogate = report.surrogate.as_ref().unwrap();
            assert_eq!(surrogate.cost_backend, backend.name());
            // Audit points count the designs whose prediction the audit
            // re-ran; the cycle-accurate backend predicts none.
            let audit_points = match backend {
                CostBackend::Surrogate { .. } => tune.audited_designs,
                CostBackend::CycleAccurate => 0,
            };
            assert!(tune.audited_designs > 0);
            assert_eq!(surrogate.audit_points, audit_points);
            assert_eq!(RunReport::from_json(&report.to_json()).unwrap(), report);
        }
    }
}
