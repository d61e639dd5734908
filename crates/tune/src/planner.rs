//! The per-query offload planner (NMPO-style): given a design's
//! calibrated NMP service table and the host's CPU roofline, pick the
//! cheaper executor for every `(tier, batch)` admission point and emit
//! the [`OffloadPlan`] the serving simulators install.
//!
//! The planner is pure table arithmetic over two deterministic models,
//! so a plan is a function of `(system, job, ladder, table)` alone —
//! same bytes at any worker count, any audit rate, any search strategy.

use enmc_arch::{ClassificationJob, SystemModel};
use enmc_par::SimConfig;
use enmc_serve::sim::{calibrate_service_table, ServiceTable};
use enmc_serve::tier::DegradeTier;
use enmc_serve::OffloadPlan;
use enmc_surrogate::{CostModel, SurrogateViolation};

/// One admission point's comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffloadDecision {
    /// Degrade-tier index.
    pub tier: usize,
    /// Batch size (1-based).
    pub batch: usize,
    /// CPU-roofline service time in DRAM cycles.
    pub cpu_cycles: u64,
    /// Calibrated NMP service time in DRAM cycles.
    pub nmp_cycles: u64,
    /// `true` when NMP is no slower than the CPU (NMP wins ties — the
    /// host stays free for everything that is not this workload).
    pub nmp: bool,
}

impl OffloadDecision {
    /// The winning executor's name: `nmp` or `cpu`.
    pub fn executor(&self) -> &'static str {
        if self.nmp {
            "nmp"
        } else {
            "cpu"
        }
    }

    /// The planned service time: the winner's cycles.
    pub fn cycles(&self) -> u64 {
        if self.nmp {
            self.nmp_cycles
        } else {
            self.cpu_cycles
        }
    }
}

/// Compares every `(tier, batch)` point of a calibrated service table
/// against the CPU roofline for the same degraded job.
///
/// # Panics
///
/// Panics when `table.ns_per_cycle` is not positive — a calibrated
/// table always carries the DRAM clock.
pub fn plan_decisions(
    sys: &SystemModel,
    job: &ClassificationJob,
    tiers: &[DegradeTier],
    table: &ServiceTable,
) -> Vec<OffloadDecision> {
    assert!(
        table.ns_per_cycle > 0.0,
        "service table must carry a positive ns-per-cycle calibration"
    );
    let screen_bits = sys.enmc_config().screen_bits;
    let mut out = Vec::new();
    for (t, tier) in tiers.iter().enumerate() {
        let tjob = tier.apply(job);
        for (bi, &nmp_cycles) in table.cycles[t].iter().enumerate() {
            let batch = bi + 1;
            let cpu_ns = sys.cpu().screened_classification_ns(
                tjob.categories,
                tjob.hidden,
                tjob.reduced,
                tier.candidates,
                screen_bits,
                batch,
            );
            let cpu_cycles = ((cpu_ns / table.ns_per_cycle).ceil() as u64).max(1);
            out.push(OffloadDecision {
                tier: t,
                batch,
                cpu_cycles,
                nmp_cycles,
                nmp: nmp_cycles <= cpu_cycles,
            });
        }
    }
    out
}

/// Folds per-point decisions into the [`OffloadPlan`] the serving
/// simulators install.
pub fn plan_from_decisions(
    tiers: usize,
    batch_max: usize,
    decisions: &[OffloadDecision],
) -> OffloadPlan {
    let mut cycles = vec![vec![0u64; batch_max]; tiers];
    let mut nmp = vec![vec![false; batch_max]; tiers];
    for d in decisions {
        cycles[d.tier][d.batch - 1] = d.cycles().max(1);
        nmp[d.tier][d.batch - 1] = d.nmp;
    }
    let plan = OffloadPlan { cycles, nmp };
    plan.check_shape(tiers, batch_max);
    plan
}

/// [`plan_decisions`] + [`plan_from_decisions`] over a calibrated table.
pub fn plan_from_table(
    sys: &SystemModel,
    job: &ClassificationJob,
    tiers: &[DegradeTier],
    table: &ServiceTable,
) -> OffloadPlan {
    let batch_max = table.cycles.first().map_or(0, Vec::len);
    plan_from_decisions(tiers.len(), batch_max, &plan_decisions(sys, job, tiers, table))
}

/// Calibrates a service ladder through `cost` and plans it: the one-call
/// entry the CLI's `offload-plan` command and `serve-sim --offload` use.
///
/// # Errors
///
/// Returns the [`SurrogateViolation`] when an audited calibration point
/// misses the declared bound.
pub fn plan_ladder(
    sys: &SystemModel,
    job: &ClassificationJob,
    tiers: &[DegradeTier],
    batch_max: usize,
    sim: &SimConfig,
    cost: &mut CostModel,
) -> Result<(ServiceTable, Vec<OffloadDecision>, OffloadPlan), SurrogateViolation> {
    let table = calibrate_service_table(
        sys,
        job,
        tiers,
        batch_max,
        sim,
        cost,
        "offload-plan calibration",
    )?;
    let decisions = plan_decisions(sys, job, tiers, &table);
    let plan = plan_from_decisions(tiers.len(), batch_max, &decisions);
    Ok((table, decisions, plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use enmc_surrogate::CostBackend;

    fn small_job() -> ClassificationJob {
        ClassificationJob { categories: 2048, hidden: 64, reduced: 16, batch: 1, candidates: 128 }
    }

    fn ladder() -> Vec<DegradeTier> {
        vec![
            DegradeTier { candidates: 128, screen_shift: 0 },
            DegradeTier { candidates: 32, screen_shift: 2 },
        ]
    }

    fn calibrated() -> (SystemModel, ClassificationJob, Vec<DegradeTier>, ServiceTable) {
        let sys = SystemModel::table3();
        let job = small_job();
        let tiers = ladder();
        let mut cost = CostModel::new(CostBackend::CycleAccurate, 7);
        let table = calibrate_service_table(
            &sys,
            &job,
            &tiers,
            4,
            &SimConfig::sequential(),
            &mut cost,
            "test",
        )
        .unwrap();
        (sys, job, tiers, table)
    }

    #[test]
    fn every_decision_picks_the_cheaper_executor() {
        let (sys, job, tiers, table) = calibrated();
        let decisions = plan_decisions(&sys, &job, &tiers, &table);
        assert_eq!(decisions.len(), tiers.len() * 4);
        for d in &decisions {
            assert_eq!(d.cycles(), d.cpu_cycles.min(d.nmp_cycles));
            assert_eq!(d.nmp, d.nmp_cycles <= d.cpu_cycles, "NMP wins ties");
        }
    }

    #[test]
    fn plan_matches_decisions_and_shape() {
        let (sys, job, tiers, table) = calibrated();
        let decisions = plan_decisions(&sys, &job, &tiers, &table);
        let plan = plan_from_table(&sys, &job, &tiers, &table);
        plan.check_shape(tiers.len(), 4);
        for d in &decisions {
            assert_eq!(plan.cycles[d.tier][d.batch - 1], d.cycles().max(1));
            assert_eq!(plan.nmp[d.tier][d.batch - 1], d.nmp);
        }
    }

    #[test]
    fn plan_never_exceeds_the_calibrated_table() {
        // The planned service time is min(cpu, nmp) — installing a plan
        // can only speed a scenario up.
        let (sys, job, tiers, table) = calibrated();
        let plan = plan_from_table(&sys, &job, &tiers, &table);
        for (t, row) in plan.cycles.iter().enumerate() {
            for (b, &c) in row.iter().enumerate() {
                assert!(c <= table.cycles[t][b]);
            }
        }
    }

    #[test]
    fn plan_ladder_is_deterministic() {
        let sys = SystemModel::table3();
        let job = small_job();
        let tiers = ladder();
        let mut c1 = CostModel::new(CostBackend::CycleAccurate, 7);
        let mut c2 = CostModel::new(CostBackend::CycleAccurate, 7);
        let (t1, d1, p1) =
            plan_ladder(&sys, &job, &tiers, 4, &SimConfig::sequential(), &mut c1).unwrap();
        let (t2, d2, p2) =
            plan_ladder(&sys, &job, &tiers, 4, &SimConfig::with_threads(4), &mut c2).unwrap();
        assert_eq!(t1, t2);
        assert_eq!(d1, d2);
        assert_eq!(p1, p2);
    }
}
