//! Design evaluation: a lattice point becomes a configured
//! [`SystemModel`], runs through the cost backend, and comes back as
//! latency / energy / quality coordinates for the frontier.
//!
//! Every design gets its **own** [`CostModel`] seeded from the base seed
//! and its lattice index, so the audit lottery is a pure function of
//! `(seed, index)` — never of worker count, evaluation order, or which
//! search strategy asked. That is the property the guided-equals-
//! exhaustive and thread-invariance guarantees rest on.

use crate::space::{price_design, Budget, DesignPoint, TuneSpace};
use enmc_arch::{AreaPower, ClassificationJob, EnmcConfig, PhysicalModel, SystemModel};
use enmc_par::{par_map, SimConfig};
use enmc_surrogate::{CostBackend, CostModel, SurrogateViolation};

/// One evaluated design: the lattice point, its Table 4/5 price, and its
/// measured (or predicted) serving coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluatedDesign {
    /// The lattice point.
    pub point: DesignPoint,
    /// Priced area/power over the whole DIMM population.
    pub cost: AreaPower,
    /// Batch latency including the linger window, nanoseconds.
    pub latency_ns: f64,
    /// Energy per query, nanojoules.
    pub energy_per_query_nj: f64,
    /// Analytic screening-quality proxy in percent (higher is better).
    pub quality_pct: f64,
    /// Whether the audit lottery re-ran this design cycle-accurately
    /// (always true on the cycle-accurate backend).
    pub audited: bool,
    /// Cycle-accurate anchors the design's fit consumed.
    pub fit_anchors: u64,
    /// Worst audited relative leaf error for this design.
    pub audit_max_rel_err: f64,
}

impl EvaluatedDesign {
    /// Report/fixture provenance tag: `audited` when a cycle-accurate
    /// pass backs the numbers, `surrogate` when only the fit did.
    pub fn provenance(&self) -> &'static str {
        if self.audited {
            "audited"
        } else {
            "surrogate"
        }
    }
}

/// The [`SystemModel`] a design point configures: memory technology,
/// rank count, lane count, and screener bitwidth applied to the base
/// platform, with SEC-DED's DRAM energy surcharge when the design carries
/// ECC. The design's memory axis always rebases the platform (so the
/// energy model is the chosen technology's nominal one before ECC turns
/// on).
pub fn configure_system(base: &SystemModel, d: &DesignPoint) -> SystemModel {
    let cfg = EnmcConfig {
        int4_macs: d.lanes,
        screen_bits: d.screen_bits,
        ..*base.enmc_config()
    };
    let mut sys = base
        .clone()
        .with_memory(d.memory)
        .with_total_ranks(d.ranks)
        .with_enmc_config(cfg);
    if d.ecc {
        let mut em = *sys.energy_model();
        em.ecc = true;
        sys = sys.with_energy_model(em);
    }
    sys
}

/// The workload a design point is evaluated at: the base shape with the
/// design's screening level, candidate count, and batch applied.
pub fn configure_job(base: &ClassificationJob, d: &DesignPoint) -> ClassificationJob {
    ClassificationJob {
        reduced: (base.reduced >> d.screen_shift).max(1),
        batch: d.batch_max.max(1),
        candidates: d.candidates.max(1),
        ..*base
    }
}

/// Analytic screening-quality proxy in percent: a saturating function of
/// the fraction of candidates kept, screening dimensions kept, and
/// screener bitwidth relative to the paper's 4-bit operating point.
/// Deliberately restricted to `+ * / sqrt` — all exactly-rounded IEEE
/// operations — so the number is bit-identical on any conforming host.
pub fn quality_proxy(base: &ClassificationJob, d: &DesignPoint) -> f64 {
    let cand_frac = (d.candidates as f64 / base.categories as f64).min(1.0);
    let kept = ((base.reduced >> d.screen_shift).max(1)) as f64 / base.reduced.max(1) as f64;
    let bits = d.screen_bits as f64 / 4.0;
    let m = 8.0 * cand_frac.sqrt() * kept.sqrt() * bits.sqrt();
    100.0 * (m * m) / (1.0 + m * m)
}

/// Mixes the tuner seed with a design's lattice index into the
/// per-design audit seed (SplitMix64 finalizer).
fn design_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Evaluates one design through its own cost model.
///
/// # Errors
///
/// Returns the [`SurrogateViolation`] when the design's audit misses the
/// declared bound.
pub fn evaluate_design(
    base_sys: &SystemModel,
    base_job: &ClassificationJob,
    space: &TuneSpace,
    index: usize,
    backend: CostBackend,
    seed: u64,
) -> Result<EvaluatedDesign, SurrogateViolation> {
    let point = space.design(index);
    let sys = configure_system(base_sys, &point);
    let job = configure_job(base_job, &point);
    let mut cost = CostModel::new(backend, design_seed(seed, index));
    let context = format!("tune design {}", point.label());
    let run = cost.run_sharded_enmc(&sys, &job, &SimConfig::sequential(), &context)?;
    let report = run.result.rank_report.as_ref().expect("ENMC runs are cycle-simulated");
    let ns_per_cycle = if report.dram_cycles > 0 { report.ns / report.dram_cycles as f64 } else { 0.0 };
    let latency_ns = run.result.ns + point.linger_cycles as f64 * ns_per_cycle;
    let energy = run.result.energy.expect("ENMC runs carry energy");
    let energy_per_query_nj = energy.total_nj() / job.batch.max(1) as f64;
    let stats = cost.stats();
    Ok(EvaluatedDesign {
        point,
        cost: price_design(&PhysicalModel::tsmc28(), &point),
        latency_ns,
        energy_per_query_nj,
        quality_pct: quality_proxy(base_job, &point),
        audited: matches!(backend, CostBackend::CycleAccurate) || stats.audited > 0,
        fit_anchors: stats.fit_anchors,
        audit_max_rel_err: stats.max_rel_err,
    })
}

/// Evaluates a set of lattice indices in parallel, preserving index
/// order. Results are bit-identical for any `workers`: each design's
/// evaluation is self-contained, `par_map` preserves input order, and a
/// violation anywhere reports the one with the *lowest lattice index*
/// regardless of which worker hit it first.
///
/// # Errors
///
/// Returns the lowest-indexed [`SurrogateViolation`] among the evaluated
/// designs.
pub fn evaluate_designs(
    base_sys: &SystemModel,
    base_job: &ClassificationJob,
    space: &TuneSpace,
    indices: &[usize],
    backend: CostBackend,
    seed: u64,
    workers: usize,
) -> Result<Vec<EvaluatedDesign>, SurrogateViolation> {
    let results = par_map(workers.max(1), indices.to_vec(), |_, index| {
        evaluate_design(base_sys, base_job, space, index, backend, seed)
    });
    let mut out = Vec::with_capacity(results.len());
    for r in results {
        out.push(r?);
    }
    Ok(out)
}

/// Prices every design of the space and splits it into budget-admitted
/// and rejected index sets (both ascending).
pub fn admit_by_budget(space: &TuneSpace, budget: &Budget) -> (Vec<usize>, Vec<usize>) {
    let model = PhysicalModel::tsmc28();
    let mut admitted = Vec::new();
    let mut rejected = Vec::new();
    for i in 0..space.size() {
        let d = space.design(i);
        if budget.admits(&price_design(&model, &d)) {
            admitted.push(i);
        } else {
            rejected.push(i);
        }
    }
    (admitted, rejected)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_job() -> ClassificationJob {
        ClassificationJob { categories: 2048, hidden: 64, reduced: 16, batch: 4, candidates: 128 }
    }

    #[test]
    fn quality_proxy_orders_sensibly() {
        let job = small_job();
        let space = TuneSpace::small().normalize();
        let base = space.design(0);
        let more_cand = DesignPoint { candidates: 128, ..base };
        let fewer_cand = DesignPoint { candidates: 64, ..base };
        assert!(quality_proxy(&job, &more_cand) > quality_proxy(&job, &fewer_cand));
        let sharp = DesignPoint { screen_shift: 0, ..base };
        let coarse = DesignPoint { screen_shift: 1, ..base };
        assert!(quality_proxy(&job, &sharp) > quality_proxy(&job, &coarse));
        let q = quality_proxy(&job, &base);
        assert!((0.0..=100.0).contains(&q));
    }

    #[test]
    fn evaluation_is_worker_invariant() {
        let sys = SystemModel::table3();
        let job = small_job();
        let space = TuneSpace::small().normalize();
        let indices: Vec<usize> = (0..space.size()).collect();
        let backend = CostBackend::Surrogate { audit_rate: 0.2 };
        let one = evaluate_designs(&sys, &job, &space, &indices, backend, 7, 1).unwrap();
        let four = evaluate_designs(&sys, &job, &space, &indices, backend, 7, 4).unwrap();
        assert_eq!(one, four);
    }

    #[test]
    fn evaluation_is_order_invariant() {
        // The same design evaluates identically whether asked alone or
        // within any subset — the per-design cost model guarantees it.
        let sys = SystemModel::table3();
        let job = small_job();
        let space = TuneSpace::small().normalize();
        let backend = CostBackend::Surrogate { audit_rate: 0.2 };
        let all: Vec<usize> = (0..space.size()).collect();
        let full = evaluate_designs(&sys, &job, &space, &all, backend, 7, 1).unwrap();
        let solo = evaluate_design(&sys, &job, &space, 5, backend, 7).unwrap();
        assert_eq!(full[5], solo);
    }

    #[test]
    fn ecc_design_spends_more_energy() {
        let sys = SystemModel::table3();
        let job = small_job();
        let space = TuneSpace::small().normalize();
        let plain_i = (0..space.size()).find(|&i| !space.design(i).ecc).unwrap();
        let plain_pt = space.design(plain_i);
        let ecc_i = (0..space.size())
            .find(|&i| {
                let d = space.design(i);
                d.ecc
                    && DesignPoint { ecc: false, index: 0, ..d }
                        == DesignPoint { ecc: false, index: 0, ..plain_pt }
            })
            .unwrap();
        let backend = CostBackend::CycleAccurate;
        let plain = evaluate_design(&sys, &job, &space, plain_i, backend, 7).unwrap();
        let ecc = evaluate_design(&sys, &job, &space, ecc_i, backend, 7).unwrap();
        assert!(ecc.energy_per_query_nj > plain.energy_per_query_nj);
        assert!((ecc.latency_ns - plain.latency_ns).abs() < 1e-9, "ECC is an energy cost");
    }

    #[test]
    fn memory_axis_changes_the_evaluation() {
        use enmc_mem::MemTech;
        let sys = SystemModel::table3();
        let job = small_job();
        let mut space = TuneSpace::small();
        space.memory = MemTech::ALL.to_vec();
        let space = space.normalize();
        assert_eq!(space.size(), 32 * 4);
        let backend = CostBackend::CycleAccurate;
        // Four designs identical except for the memory axis: distinct
        // latency/energy coordinates, identical quality proxy.
        let evals: Vec<EvaluatedDesign> = (0..4)
            .map(|i| evaluate_design(&sys, &job, &space, i, backend, 7).unwrap())
            .collect();
        for pair in evals.windows(2) {
            assert_ne!(pair[0].point.memory, pair[1].point.memory);
            assert_ne!(
                (pair[0].latency_ns, pair[0].energy_per_query_nj),
                (pair[1].latency_ns, pair[1].energy_per_query_nj),
                "{} vs {}",
                pair[0].point.label(),
                pair[1].point.label()
            );
            assert_eq!(pair[0].quality_pct, pair[1].quality_pct, "quality is tech-independent");
        }
    }

    #[test]
    fn budget_rejects_big_designs() {
        let space = TuneSpace::small().normalize();
        let (admitted, rejected) = admit_by_budget(
            &space,
            &Budget { max_area_mm2: Some(15.0), max_power_mw: None },
        );
        assert_eq!(admitted.len() + rejected.len(), space.size());
        // 64-rank designs cost at least 64 × 0.35 mm² > 15.
        assert!(admitted.iter().all(|&i| space.design(i).ranks == 32));
        assert!(!admitted.is_empty());
        assert!(!rejected.is_empty());
    }
}
