//! The serving calibration pass: the bridge between event-loop time and
//! cycle-simulator time.
//!
//! Everything a serving loop does runs in DRAM-clock cycles. The
//! calibration pass runs the rank-sharded cycle simulator
//! ([`SystemModel::run_sharded`]) once per `(degrade tier, batch size)`
//! point and records the straggler rank's cycle count as that point's
//! service time. The event loop (`enmc_fleet::simulate_fleet`, which
//! `serve-sim` runs as a 1-node, 1-tenant fleet) then never touches the
//! cycle simulator again: dispatching a batch of size `b` at tier `t`
//! occupies a lane for `cycles[t][b-1]` cycles. The calibration is the
//! only parallelizable phase, and it is thread-invariant by the
//! workspace's determinism contract — so a whole serving outcome is a
//! pure function of its configuration.

use enmc_arch::system::{ClassificationJob, SystemModel};
use enmc_par::SimConfig;
use enmc_surrogate::{CostModel, SurrogateViolation};

use crate::tier::DegradeTier;

/// A calibrated `[tier][batch-1]` service-time table plus the clock
/// scale and protocol-violation count the calibration pass observed.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceTable {
    /// Service cycles, indexed `[tier][batch_size - 1]`; every entry is
    /// at least 1.
    pub cycles: Vec<Vec<u64>>,
    /// Simulated nanoseconds per DRAM cycle (from the last calibrated
    /// point; identical across points of one system model).
    pub ns_per_cycle: f64,
    /// DDR4 protocol violations observed during calibration runs.
    pub protocol_violations: u64,
}

/// Calibrates the `[tier][batch-1]` service-time table by running every
/// point through the cost model — the rank-sharded cycle simulator on
/// the cycle-accurate backend, pure arithmetic (with seeded audits) on
/// the surrogate backend. `context` prefixes the per-point audit context
/// (`"fleet-sim calibration (ladder 0)"`, `"offload-plan calibration"`,
/// …) so a surrogate violation names the point that produced it.
///
/// The serving loop and the offload planner both fill their tables here,
/// so a planned ladder and a served ladder see the same service times.
///
/// # Errors
///
/// Returns the [`SurrogateViolation`] when an audited calibration point
/// misses the declared bound.
pub fn calibrate_service_table(
    sys: &SystemModel,
    job: &ClassificationJob,
    tiers: &[DegradeTier],
    batch_max: usize,
    sim: &SimConfig,
    cost: &mut CostModel,
    context: &str,
) -> Result<ServiceTable, SurrogateViolation> {
    let mut table = vec![vec![0u64; batch_max]; tiers.len()];
    let mut ns_per_cycle = 0.0;
    let mut violations = 0u64;
    for (t, tier) in tiers.iter().enumerate() {
        let tier_job = tier.apply(job);
        for b in 1..=batch_max {
            let context = format!("{context} (tier {t}, batch {b})");
            let run = cost.run_sharded_enmc(
                sys,
                &tier_job.with_load(b, tier.candidates),
                sim,
                &context,
            )?;
            let r = run.result.rank_report.expect("ENMC runs are cycle-simulated");
            table[t][b - 1] = r.dram_cycles.max(1);
            violations += r.protocol_violations;
            if r.dram_cycles > 0 {
                ns_per_cycle = r.ns / r.dram_cycles as f64;
            }
        }
    }
    Ok(ServiceTable { cycles: table, ns_per_cycle, protocol_violations: violations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier::default_tiers;
    use enmc_surrogate::CostBackend;

    #[test]
    fn service_table_is_monotone_enough_and_tiers_cheaper() {
        let job =
            ClassificationJob { categories: 2048, hidden: 64, reduced: 16, batch: 1, candidates: 128 };
        let mut cost = CostModel::new(CostBackend::CycleAccurate, 11);
        let table = calibrate_service_table(
            &SystemModel::table3(),
            &job,
            &default_tiers(&job),
            3,
            &SimConfig::sequential(),
            &mut cost,
            "test",
        )
        .unwrap();
        // Bigger batches never get cheaper in total time.
        for row in &table.cycles {
            assert!(row.windows(2).all(|w| w[1] >= w[0]), "batch scaling: {row:?}");
        }
        // A degraded tier is never slower than full quality at batch 1.
        let full = table.cycles[0][0];
        let degraded = *table.cycles.last().unwrap().first().unwrap();
        assert!(degraded <= full, "degraded {degraded} vs full {full}");
        assert!(table.ns_per_cycle > 0.0);
    }
}
