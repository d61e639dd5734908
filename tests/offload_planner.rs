//! Differential tests over the per-query offload step, driven through
//! the public `enmc::serve` API exactly as `enmc offload-plan` and
//! `serve-sim --offload` use it: a calibrated [`ServiceTable`] is
//! offloaded in place, every `(tier, batch)` decision must pick the
//! cheaper executor, the offloaded table must mirror the decisions, and
//! the whole result must be a pure function of the scenario — same
//! bytes at any worker count and under either cost backend's audits.

use enmc::arch::system::{ClassificationJob, SystemModel};
use enmc::par::SimConfig;
use enmc::serve::tier::{default_tiers, DegradeTier};
use enmc::serve::{calibrate_service_table, OffloadDecision, ServiceTable};
use enmc::surrogate::{CostBackend, CostModel};

const SEED: u64 = 7;
const BATCH_MAX: usize = 4;

fn job() -> ClassificationJob {
    ClassificationJob { categories: 2048, hidden: 64, reduced: 16, batch: 1, candidates: 128 }
}

/// Calibrates the ladder through `cost` on `sim`, then offloads it:
/// the calibrated table, the offloaded one and the decisions.
fn offload(
    tiers: &[DegradeTier],
    sim: &SimConfig,
    cost: &mut CostModel,
) -> (ServiceTable, ServiceTable, Vec<OffloadDecision>) {
    let (sys, job) = (SystemModel::table3(), job());
    let calibrated = calibrate_service_table(&sys, &job, tiers, BATCH_MAX, sim, cost, "test")
        .expect("audits stay within the declared bound");
    let mut table = calibrated.clone();
    let decisions = table.offload(&sys, &job, tiers);
    (calibrated, table, decisions)
}

#[test]
fn every_planned_point_picks_the_cheaper_executor() {
    let tiers = default_tiers(&job());
    let mut cost = CostModel::new(CostBackend::CycleAccurate, SEED);
    let (calibrated, table, decisions) = offload(&tiers, &SimConfig::sequential(), &mut cost);

    assert_eq!(decisions.len(), tiers.len() * BATCH_MAX, "one decision per admission point");
    for d in &decisions {
        let (t, b) = (d.tier, d.batch - 1);
        // The differential: the pick is exactly the cheaper of the two
        // independently-derived service times, NMP winning ties.
        assert_eq!(
            d.cycles(),
            d.cpu_cycles.min(d.nmp_cycles),
            "tier {} batch {} must pick the cheaper executor",
            d.tier,
            d.batch
        );
        assert_eq!(d.nmp, d.nmp_cycles <= d.cpu_cycles, "NMP wins ties");
        assert_eq!(d.nmp_cycles, calibrated.cycles[t][b]);
        // The offloaded table mirrors the decision made for its point.
        assert_eq!(table.cycles[t][b], d.cycles().max(1));
        assert_eq!(table.nmp[t][b], d.nmp);
        // Offloading can only speed an admission point up.
        assert!(table.cycles[t][b] <= calibrated.cycles[t][b]);
    }
}

#[test]
fn plan_is_invariant_across_worker_counts_and_audit_lotteries() {
    let tiers = default_tiers(&job());

    let mut seq = CostModel::new(CostBackend::CycleAccurate, SEED);
    let (c1, t1, d1) = offload(&tiers, &SimConfig::sequential(), &mut seq);
    let mut par = CostModel::new(CostBackend::CycleAccurate, SEED);
    let (c2, t2, d2) = offload(&tiers, &SimConfig::with_threads(4), &mut par);
    assert_eq!(c1, c2, "calibration must not depend on the worker count");
    assert_eq!(d1, d2);
    assert_eq!(t1, t2);

    // The surrogate backend audits a seeded subset of its calibration
    // points against the cycle-accurate model; whichever points the
    // lottery picks, the calibrated table is the same deterministic
    // function, so the executor choices cannot wobble with the audit
    // rate.
    for rate in [0.0, 1.0] {
        let mut sur = CostModel::new(CostBackend::Surrogate { audit_rate: rate }, SEED);
        let (_, ts, ds) = offload(&tiers, &SimConfig::sequential(), &mut sur);
        let mut again = CostModel::new(CostBackend::Surrogate { audit_rate: rate }, SEED);
        let (_, ts2, ds2) = offload(&tiers, &SimConfig::with_threads(4), &mut again);
        assert_eq!(ds, ds2, "audit rate {rate}: decisions must be thread-invariant");
        assert_eq!(ts, ts2, "audit rate {rate}: offloaded tables must be thread-invariant");
        for d in &ds {
            assert_eq!(d.cycles(), d.cpu_cycles.min(d.nmp_cycles));
        }
    }
}
