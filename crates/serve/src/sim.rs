//! The serving calibration pass: the bridge between event-loop time and
//! cycle-simulator time.
//!
//! Everything a serving loop does runs in DRAM-clock cycles. The
//! calibration pass runs the rank-sharded cycle simulator
//! ([`SystemModel::run_sharded`]) once per `(degrade tier, batch size)`
//! point and records the straggler rank's cycle count as that point's
//! service time. The event loop (`enmc_fleet::serve_fleet`, which
//! `serve-sim` runs as a 1-node, 1-tenant fleet) then never touches the
//! cycle simulator again: dispatching a batch of size `b` at tier `t`
//! occupies a lane for `cycles[t][b-1]` cycles. The calibration is the
//! only parallelizable phase, and it is thread-invariant by the
//! workspace's determinism contract — so a whole serving outcome is a
//! pure function of its configuration.
//!
//! [`ServiceTable::offload`] is the NMPO-style per-query offload step on
//! a calibrated table: each point moves to the CPU roofline where that
//! executor is faster, in place, so the loop charges the cheaper cost
//! and counts which executor served each batch.

use enmc_arch::system::{ClassificationJob, SystemModel};
use enmc_obs::report::{Offload, RunReport};
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
    /// Each point's executor, indexed like `cycles`: `true` (NMP) for
    /// every point as calibrated, `false` where [`ServiceTable::offload`]
    /// moved the point to the CPU roofline.
    pub nmp: Vec<Vec<bool>>,
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
/// (`"service-table calibration (ladder 0)"`, `"offload-plan calibration"`,
/// …) so a surrogate violation names the point that produced it.
///
/// The serving loop and `offload-plan` both fill their tables here, so
/// a planned ladder and a served ladder see the same service times.
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
    let nmp = vec![vec![true; batch_max]; tiers.len()];
    Ok(ServiceTable { cycles: table, nmp, ns_per_cycle, protocol_violations: violations })
}

/// One admission point's offload comparison.
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

impl ServiceTable {
    /// Prices every point of this freshly calibrated table against the
    /// CPU roofline for the same degraded job
    /// ([`enmc_arch::CpuModel::screened_classification_ns`]) and keeps
    /// the cheaper cost in place, NMP winning ties. A point the CPU wins
    /// holds the roofline's cycles (at least 1) and is tagged `false` in
    /// [`ServiceTable::nmp`]. Returns one decision per point, tier-major.
    ///
    /// # Panics
    ///
    /// Panics when `ns_per_cycle` is not positive — a calibrated table
    /// always carries the DRAM clock.
    pub fn offload(
        &mut self,
        sys: &SystemModel,
        job: &ClassificationJob,
        tiers: &[DegradeTier],
    ) -> Vec<OffloadDecision> {
        assert!(
            self.ns_per_cycle > 0.0,
            "service table must carry a positive ns-per-cycle calibration"
        );
        let screen_bits = sys.enmc_config().screen_bits;
        let mut out = Vec::new();
        for (t, tier) in tiers.iter().enumerate() {
            let tjob = tier.apply(job);
            for (bi, cycles) in self.cycles[t].iter_mut().enumerate() {
                let batch = bi + 1;
                let cpu_ns = sys.cpu().screened_classification_ns(
                    tjob.categories,
                    tjob.hidden,
                    tjob.reduced,
                    tier.candidates,
                    screen_bits,
                    batch,
                );
                let cpu_cycles = ((cpu_ns / self.ns_per_cycle).ceil() as u64).max(1);
                let d = OffloadDecision {
                    tier: t,
                    batch,
                    cpu_cycles,
                    nmp_cycles: *cycles,
                    nmp: *cycles <= cpu_cycles,
                };
                *cycles = d.cycles();
                self.nmp[t][bi] = d.nmp;
                out.push(d);
            }
        }
        out
    }
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
    use crate::tier::default_tiers;
    use enmc_surrogate::CostBackend;

    fn small_job() -> ClassificationJob {
        ClassificationJob { categories: 2048, hidden: 64, reduced: 16, batch: 1, candidates: 128 }
    }

    fn calibrated(job: &ClassificationJob, batch_max: usize) -> ServiceTable {
        let mut cost = CostModel::new(CostBackend::CycleAccurate, 11);
        calibrate_service_table(
            &SystemModel::table3(),
            job,
            &default_tiers(job),
            batch_max,
            &SimConfig::sequential(),
            &mut cost,
            "test",
        )
        .unwrap()
    }

    #[test]
    fn service_table_is_monotone_enough_and_tiers_cheaper() {
        let table = calibrated(&small_job(), 3);
        // Bigger batches never get cheaper in total time.
        for row in &table.cycles {
            assert!(row.windows(2).all(|w| w[1] >= w[0]), "batch scaling: {row:?}");
        }
        // A degraded tier is never slower than full quality at batch 1.
        let full = table.cycles[0][0];
        let degraded = *table.cycles.last().unwrap().first().unwrap();
        assert!(degraded <= full, "degraded {degraded} vs full {full}");
        assert!(table.ns_per_cycle > 0.0);
        assert!(table.nmp.iter().flatten().all(|&n| n), "calibration runs every point on NMP");
    }

    #[test]
    fn offload_moves_every_point_the_cpu_roofline_wins() {
        // Every calibrated point scaled far past any CPU roofline: the
        // offload step must rewrite each one to the roofline's cycles.
        let (sys, job) = (SystemModel::table3(), small_job());
        let tiers = default_tiers(&job);
        let mut table = calibrated(&job, 2);
        table.cycles.iter_mut().flatten().for_each(|c| *c *= 1_000_000);
        let decisions = table.offload(&sys, &job, &tiers);
        assert_eq!(decisions.len(), tiers.len() * 2);
        for d in &decisions {
            assert_eq!(table.cycles[d.tier][d.batch - 1], d.cpu_cycles);
            assert!(!table.nmp[d.tier][d.batch - 1], "tier {} batch {}", d.tier, d.batch);
            assert_eq!(d.executor(), "cpu");
        }
    }
}
