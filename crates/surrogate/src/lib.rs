//! # Hybrid-fidelity surrogate cost model
//!
//! Every sweep in the repo (resilience grids, serving calibration, the
//! figure benches) bottlenecks on the cycle-accurate DDR4 simulator. This
//! crate trades fidelity for throughput *without trading away trust*: a
//! seeded design-of-experiments pass runs the cycle-accurate rank-unit on
//! a handful of anchor points per shape, fits per-counter affine models
//! ([`fit`]), and then answers arbitrary sweep points in pure arithmetic —
//! orders of magnitude faster than simulation.
//!
//! The heart of the design is the **audit path**: at a configurable rate,
//! seeded-randomly chosen sweep points are re-run cycle-accurately and the
//! relative error on *every* [`enmc_perf::cost`] attribution leaf must
//! stay within the declared bound ([`DECLARED_BOUND`]), or the run fails
//! with a structured [`SurrogateViolation`] (mirroring the DDR4 checker's
//! `ProtocolViolation`). Downstream sweeps are trustworthy because the
//! bound is enforced, not assumed.
//!
//! Predictions reconstruct full [`UnitReport`]s, so *all* downstream
//! arithmetic — [`UnitReport::merge_parallel`], energy joins, cost
//! attribution, serving tables — is the exact code the simulator output
//! feeds. The surrogate is worker-count invariant by construction (no
//! threads, no host timing), and auditing never changes the returned
//! prediction, so output is byte-identical at any audit rate.

pub mod fit;

use enmc_arch::system::{
    ClassificationJob, RankSlices, Scheme, SchemeResult, ShardedRun, CHANNELS,
};
use enmc_arch::unit::UnitReport;
use enmc_arch::{LogicEnergyModel, SystemEnergy, SystemModel};
use enmc_dram::DramStats;
use enmc_obs::json;
use enmc_obs::record;
use enmc_obs::report::Surrogate;
use enmc_par::SimConfig;
use fit::{splitmix64, ShapeFit, TABLE_COLS, TARGETS};
use std::collections::BTreeMap;
use std::fmt;

/// Which cost backend a sweep runs on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CostBackend {
    /// Every point simulates cycle-accurately (the default).
    CycleAccurate,
    /// Points are predicted by the fitted surrogate; a seeded fraction
    /// `audit_rate` of them re-runs cycle-accurately and must match every
    /// attribution leaf within [`DECLARED_BOUND`].
    Surrogate {
        /// Fraction of predicted points audited cycle-accurately, in
        /// `[0, 1]`.
        audit_rate: f64,
    },
}

impl CostBackend {
    /// The CLI / report name of the backend.
    pub fn name(&self) -> &'static str {
        match self {
            CostBackend::CycleAccurate => "cycle-accurate",
            CostBackend::Surrogate { .. } => "surrogate",
        }
    }
}

/// Declared per-leaf error bound of the surrogate: a prediction is in
/// bounds when `|pred - actual| <= max(rel * |actual|, floor)`, where
/// the floor is the larger of an absolute noise floor (cycles or
/// nanojoules by leaf kind) and a *materiality* floor of `total_frac`
/// of the audited point's end-to-end total (total cycles for cycle
/// leaves, whole-tree energy for energy leaves).
///
/// The noise floors keep tiny leaves (a few cycles of mem-stall, a
/// handful of nanojoules) from failing on rounding noise. The
/// materiality floor bounds how much any *one* leaf's error can move
/// the totals downstream sweeps consume: a leaf may be a few percent of
/// the whole and intrinsically jagged (DRAM power-down eligibility
/// flips on single-cycle queue gaps), and holding it to 5 % of itself
/// would demand more precision than it contributes to any decision.
/// Every leaf error is therefore under `max(rel, total_frac)` of the
/// end-to-end number, and smooth leaves stay under `rel` of themselves.
///
/// One physically motivated exception: the two DRAM background-power
/// leaves additionally carry a floor of one refresh window of energy per
/// audited shard, because the simulator quantizes power-down idle to the
/// tREFI window — no continuous model can resolve below that quantum
/// (see `CostModel::check`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorBound {
    /// Relative error allowed on every attribution leaf.
    pub rel: f64,
    /// Absolute floor for cycle leaves (simulated DRAM cycles).
    pub abs_cycles: f64,
    /// Absolute floor for energy leaves (nanojoules).
    pub abs_nj: f64,
    /// Materiality floor: fraction of the end-to-end total (cycles or
    /// whole-tree energy) any single leaf's error may reach.
    pub total_frac: f64,
}

/// The bound the audit enforces (see `DESIGN.md` for how it was chosen:
/// the fitted counters are near-affine in batch and candidate load, so
/// 5 % absorbs the residual plus integer rounding; 2 % of the end-to-end
/// total caps what a jagged minor leaf can hide).
pub const DECLARED_BOUND: ErrorBound =
    ErrorBound { rel: 0.05, abs_cycles: 512.0, abs_nj: 2_000.0, total_frac: 0.02 };

/// A structured audit failure: one attribution leaf of one audited sweep
/// point fell outside the declared bound.
#[derive(Debug, Clone, PartialEq)]
pub struct SurrogateViolation {
    /// What the audited point was doing (e.g. `fault-sweep energy join`).
    pub context: String,
    /// The attribution leaf (or scalar) that missed, e.g.
    /// `cycles/gather/mem_stall`.
    pub leaf: String,
    /// The surrogate's prediction for the leaf.
    pub predicted: f64,
    /// The cycle-accurate value.
    pub actual: f64,
    /// Observed relative error (`|pred - actual| / max(|actual|, floor)`).
    pub rel_err: f64,
    /// The relative bound the leaf had to meet.
    pub bound: f64,
}

impl fmt::Display for SurrogateViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "surrogate violation in {}: leaf {} predicted {:.3} vs cycle-accurate {:.3} \
             (rel err {:.4} > bound {:.4})",
            self.context, self.leaf, self.predicted, self.actual, self.rel_err, self.bound
        )
    }
}

impl std::error::Error for SurrogateViolation {}

/// Running audit statistics of one [`CostModel`], reported in the run
/// report's [`Surrogate`] section.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AuditStats {
    /// Cycle-accurate anchor simulations run by fits.
    pub fit_anchors: u64,
    /// Points answered by the surrogate (0 on the cycle-accurate backend).
    pub predicted: u64,
    /// Predicted points that were re-run cycle-accurately.
    pub audited: u64,
    /// Worst observed relative leaf error over all audited points.
    pub max_rel_err: f64,
}

impl AuditStats {
    /// The run report's [`Surrogate`] section: `backend` plus these
    /// audit figures.
    pub fn section(&self, backend: CostBackend) -> Surrogate {
        Surrogate {
            cost_backend: backend.name().to_string(),
            fit_anchors: self.fit_anchors,
            audit_points: self.audited,
            audit_max_rel_err: self.max_rel_err,
        }
    }
}

/// A cost backend with its fitted state: either a thin pass-through to
/// the cycle-accurate simulator, or the fitted surrogate plus its audit
/// machinery. One `CostModel` is threaded through a whole sweep so fits
/// amortize and the audit lottery stays seeded and deterministic.
#[derive(Debug, Clone)]
pub struct CostModel {
    backend: CostBackend,
    seed: u64,
    fits: BTreeMap<(usize, usize, usize), ShapeFit>,
    stats: AuditStats,
    /// Points the audit lottery has drawn for, across the model's life.
    lottery: u64,
}

impl CostModel {
    /// A cost model on `backend`, auditing with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if a surrogate backend's audit rate is not a fraction.
    pub fn new(backend: CostBackend, seed: u64) -> Self {
        if let CostBackend::Surrogate { audit_rate } = backend {
            assert!(
                audit_rate.is_finite() && (0.0..=1.0).contains(&audit_rate),
                "audit rate must be a fraction in [0, 1], got {audit_rate}"
            );
        }
        CostModel { backend, seed, fits: BTreeMap::new(), stats: AuditStats::default(), lottery: 0 }
    }

    /// The backend this model answers with.
    pub fn backend(&self) -> CostBackend {
        self.backend
    }

    /// Audit statistics so far.
    pub fn stats(&self) -> AuditStats {
        self.stats
    }

    /// Mirrors [`SystemModel::run`] for the ENMC scheme: the
    /// representative-rank result, either simulated or predicted.
    ///
    /// # Errors
    ///
    /// Returns the [`SurrogateViolation`] when an audited prediction
    /// misses the declared bound.
    pub fn run_enmc(
        &mut self,
        sys: &SystemModel,
        job: &ClassificationJob,
        context: &str,
    ) -> Result<SchemeResult, SurrogateViolation> {
        let CostBackend::Surrogate { audit_rate } = self.backend else {
            return Ok(sys.run(job, Scheme::Enmc));
        };
        let ranks = sys.total_ranks;
        let rank_job = job.rank_slice(ranks);
        let (report, window) = {
            let fit = self.fit_for(sys, job);
            (fit.predict(&rank_job), fit.refresh_window())
        };
        self.stats.predicted += 1;
        if self.draw(audit_rate) {
            let actual = sys.run(job, Scheme::Enmc);
            let actual_report = actual.rank_report.as_ref().expect("ENMC runs are simulated");
            self.stats.audited += 1;
            self.check(context, &report, &[], actual_report, &[], sys, window)?;
        }
        let energy = SystemEnergy::from_rank(
            &report,
            ranks,
            sys.energy_model(),
            &LogicEnergyModel::enmc_table5(),
        );
        Ok(SchemeResult { scheme: Scheme::Enmc, ns: report.ns, energy: Some(energy), rank_report: Some(report) })
    }

    /// Mirrors [`SystemModel::run_sharded`] for the ENMC scheme: every
    /// distinct rank slice predicted once and assembled with the
    /// simulator's own per-rank merge ([`RankSlices::assemble`]), or
    /// delegated to the real sharded run. Predicted runs carry no host
    /// wall-clock (the fields are zero) — they cost microseconds and the
    /// numbers would be meaningless.
    ///
    /// # Errors
    ///
    /// Returns the [`SurrogateViolation`] when an audited prediction
    /// misses the declared bound.
    pub fn run_sharded_enmc(
        &mut self,
        sys: &SystemModel,
        job: &ClassificationJob,
        cfg: &SimConfig,
        context: &str,
    ) -> Result<ShardedRun, SurrogateViolation> {
        let CostBackend::Surrogate { audit_rate } = self.backend else {
            return Ok(sys.run_sharded(job, Scheme::Enmc, cfg));
        };
        let slices = RankSlices::of(job, sys.total_ranks);
        let (reports, window) = {
            let fit = self.fit_for(sys, job);
            let reports: Vec<UnitReport> = slices.distinct.iter().map(|j| fit.predict(j)).collect();
            (reports, fit.refresh_window())
        };
        let logic = LogicEnergyModel::enmc_table5();
        let run = slices.assemble(Scheme::Enmc, &reports, sys.energy_model(), &logic);
        self.stats.predicted += 1;
        if self.draw(audit_rate) {
            let actual = sys.run_sharded(job, Scheme::Enmc, cfg);
            let actual_report =
                actual.result.rank_report.as_ref().expect("ENMC runs are simulated");
            let merged = run.result.rank_report.as_ref().expect("assembled runs carry a report");
            self.stats.audited += 1;
            self.check(
                context,
                merged,
                &run.shard_dram,
                actual_report,
                &actual.shard_dram,
                sys,
                window,
            )?;
        }
        Ok(ShardedRun { workers: cfg.worker_count(), ..run })
    }

    /// The fitted shape for `job`, fitting on demand (and refitting when
    /// a query exceeds the anchored envelope so predictions interpolate
    /// rather than extrapolate far).
    fn fit_for(&mut self, sys: &SystemModel, job: &ClassificationJob) -> &ShapeFit {
        let ranks = sys.total_ranks;
        let rank_job = job.rank_slice(ranks);
        let key = (rank_job.categories, rank_job.hidden, rank_job.reduced);
        let cand = rank_job.candidates_per_item.first().copied().unwrap_or(1).max(1);
        let needs_fit = match self.fits.get(&key) {
            None => true,
            Some(f) => job.batch > f.batch_hi || cand > f.cand_hi,
        };
        if needs_fit {
            let batch_hi = job.batch.max(8);
            let cand_hi = cand;
            let fit = ShapeFit::fit(
                &sys.enmc_unit_params(),
                rank_job.categories,
                rank_job.hidden,
                rank_job.reduced,
                batch_hi,
                cand_hi,
                self.seed,
            );
            self.stats.fit_anchors += fit.anchors as u64;
            self.fits.insert(key, fit);
        }
        self.fits.get(&key).expect("fit inserted above")
    }

    /// Seeded audit lottery: deterministic in (seed, draw index), so the
    /// audited point set never depends on worker count or host state.
    fn draw(&mut self, audit_rate: f64) -> bool {
        let i = self.lottery;
        self.lottery += 1;
        if audit_rate <= 0.0 {
            return false;
        }
        let u = splitmix64(self.seed ^ 0xa0d1_7000u64.wrapping_add(i)) as f64
            / u64::MAX as f64;
        u < audit_rate
    }

    /// Compares predicted vs cycle-accurate attribution leaf by leaf
    /// (plus the latency scalars) against [`DECLARED_BOUND`]. `window` is
    /// the fit's refresh-window estimate in DRAM cycles: power-down idle
    /// is quantized to it (eligibility flips when the quiet span crosses
    /// a tREFI boundary), so the two background-power leaves carry an
    /// extra floor of one window's worth of energy per audited shard —
    /// the resolution limit of *any* continuous model of that leaf.
    #[allow(clippy::too_many_arguments)]
    fn check(
        &mut self,
        context: &str,
        predicted: &UnitReport,
        predicted_shards: &[DramStats],
        actual: &UnitReport,
        actual_shards: &[DramStats],
        sys: &SystemModel,
        window: f64,
    ) -> Result<(), SurrogateViolation> {
        let logic = LogicEnergyModel::enmc_table5();
        let pred_attr =
            enmc_perf::attribute(predicted, predicted_shards, CHANNELS, sys.energy_model(), &logic);
        let act_attr =
            enmc_perf::attribute(actual, actual_shards, CHANNELS, sys.energy_model(), &logic);
        let pred_rows = pred_attr.rows();
        let act_rows = act_attr.rows();
        let b = DECLARED_BOUND;
        // Materiality floors: a leaf also passes while its error stays
        // under `total_frac` of the audited point's end-to-end total —
        // total cycles for cycle leaves, whole-tree energy for energy
        // leaves (see [`ErrorBound`]).
        let cycle_floor =
            b.abs_cycles.max(b.total_frac * actual.dram_cycles as f64);
        let total_nj: f64 = act_rows
            .iter()
            .filter(|r| !r.path.starts_with("cycles/"))
            .map(|r| r.nj)
            .sum();
        let nj_floor = b.abs_nj.max(b.total_frac * total_nj);
        // One-window quantum floors for the background-power leaves: the
        // simulator's power-down idle is `(total - 1) mod tREFI` where the
        // quiet span reaches the end of the run and zero elsewhere, so a
        // single-cycle shift of the predicted total across a window
        // boundary legitimately moves a whole window of energy between
        // the active and idle leaves, per shard.
        let em = sys.energy_model();
        let shards_n = actual_shards.len().max(1) as f64;
        let window_nj_per_w = window * em.tck_ps * 1e-3 * em.ranks as f64 * shards_n;
        let bg_active_floor = nj_floor.max(window_nj_per_w * em.background_w);
        let bg_idle_floor = nj_floor.max(window_nj_per_w * em.powerdown_w);
        let mut judge = |leaf: &str, p: f64, a: f64, floor: f64| -> Result<(), SurrogateViolation> {
            let err = (p - a).abs();
            // Error normalized against the allowance and rescaled so a
            // leaf *at* its bound reads exactly `b.rel` — directly
            // comparable to the declared bound even where the absolute
            // floor governs.
            let allowance = (b.rel * a.abs()).max(floor);
            let rel = err / allowance * b.rel;
            if rel > self.stats.max_rel_err {
                self.stats.max_rel_err = rel;
            }
            if err <= allowance {
                Ok(())
            } else {
                Err(SurrogateViolation {
                    context: context.to_string(),
                    leaf: leaf.to_string(),
                    predicted: p,
                    actual: a,
                    rel_err: rel,
                    bound: b.rel,
                })
            }
        };
        judge("ns", predicted.ns, actual.ns, cycle_floor)?;
        judge("dram_cycles", predicted.dram_cycles as f64, actual.dram_cycles as f64, cycle_floor)?;
        for (p, a) in pred_rows.iter().zip(&act_rows) {
            debug_assert_eq!(p.path, a.path, "attribution trees must have the same leaves");
            if p.path.starts_with("cycles/") {
                judge(&p.path, p.cycles as f64, a.cycles as f64, cycle_floor)?;
            } else {
                let floor = if p.path.ends_with("background_active") {
                    bg_active_floor
                } else if p.path.ends_with("background_idle") {
                    bg_idle_floor
                } else {
                    nj_floor
                };
                judge(&p.path, p.nj, a.nj, floor)?;
            }
        }
        Ok(())
    }

    /// Serializes the fitted coefficients as a [`CoeffFile`] (shapes in
    /// key order, targets in [`TARGETS`] order) so a sweep can reuse a
    /// fit — and so CI can perturb one coefficient and prove the audit
    /// catches it.
    pub fn coeffs_to_json(&self) -> String {
        let fits = self.fits.values().cloned().collect();
        json::encode(&CoeffFile { surrogate_coeffs: 1, seed: self.seed, fits })
    }

    /// Loads coefficients serialized by [`CostModel::coeffs_to_json`]
    /// into this model (replacing any fitted shapes). Loaded fits count
    /// no anchors — the simulations happened in the producing run.
    ///
    /// # Errors
    ///
    /// Returns the codec's error naming the field when the text is not a
    /// [`CoeffFile`]: bad JSON, a missing, mistyped or non-finite value,
    /// a wrong tag, no fit, or a grid, table or coefficient row of the
    /// wrong size.
    pub fn load_coeffs(&mut self, json: &str) -> Result<(), String> {
        let file: CoeffFile = json::decode(json)?;
        let key = |fit: &ShapeFit| (fit.categories, fit.hidden, fit.reduced);
        self.fits = file.fits.into_iter().map(|fit| (key(&fit), fit)).collect();
        Ok(())
    }

    /// Mutable access to a fitted shape's model, for tests that plant a
    /// perturbed value and assert the audit trips. `target` names either
    /// a regression row ([`fit::TARGETS`]) or an anchor-table column
    /// ([`fit::TABLE_COLS`]); every coefficient of the row — or every
    /// cell of the column — is scaled by `factor`.
    pub fn perturb_coeff(&mut self, target: &str, factor: f64) -> usize {
        let mut touched = 0;
        if let Some(t) = TARGETS.iter().position(|n| *n == target) {
            for fit in self.fits.values_mut() {
                for c in &mut fit.targets[t].1 {
                    *c *= factor;
                }
                touched += 1;
            }
        } else if let Some(k) = TABLE_COLS.iter().position(|n| *n == target) {
            for fit in self.fits.values_mut() {
                for row in &mut fit.table {
                    for cell in row {
                        cell[k] *= factor;
                    }
                }
                touched += 1;
            }
        } else {
            panic!("unknown surrogate target {target}");
        }
        touched
    }
}

record! {
    /// A surrogate coefficient file, as `--coeffs-out` writes it and
    /// `--coeffs` reads it.
    CoeffFile {
        /// Format tag; always 1.
        surrogate_coeffs: u64,
        /// Audit seed of the model that wrote the file (informative; a
        /// loading model keeps its own).
        seed: u64,
        /// One entry per fitted shape, in shape-key order.
        fits: Vec<ShapeFit>,
    }
    check CoeffFile::check
}

impl CoeffFile {
    fn check(&self, path: &str) -> Result<(), String> {
        let at = |key| json::key_path(path, key);
        if self.surrogate_coeffs != 1 {
            let tag = self.surrogate_coeffs;
            return Err(json::field_error(
                &at("surrogate_coeffs"),
                format_args!("is {tag}, expected 1"),
            ));
        }
        if self.fits.is_empty() {
            return Err(json::field_error(&at("fits"), "holds no fitted shape"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_job() -> ClassificationJob {
        ClassificationJob { categories: 33_278, hidden: 1_500, reduced: 32, batch: 2, candidates: 33 }
    }

    #[test]
    fn cycle_accurate_backend_is_a_pass_through() {
        let sys = SystemModel::table3();
        let job = small_job();
        let mut cost = CostModel::new(CostBackend::CycleAccurate, 7);
        let got = cost.run_enmc(&sys, &job, "test").unwrap();
        let want = sys.run(&job, Scheme::Enmc);
        assert_eq!(got, want);
        assert_eq!(cost.stats().predicted, 0);
        assert_eq!(cost.stats().fit_anchors, 0);
    }

    #[test]
    fn surrogate_predictions_pass_a_forced_audit() {
        let sys = SystemModel::table3();
        let job = small_job();
        let mut cost = CostModel::new(CostBackend::Surrogate { audit_rate: 1.0 }, 7);
        let got = cost.run_enmc(&sys, &job, "unit test").expect("audit within bound");
        assert!(got.ns > 0.0);
        let s = cost.stats();
        assert_eq!(s.predicted, 1);
        assert_eq!(s.audited, 1);
        assert!(s.fit_anchors > 0);
        assert!(s.max_rel_err <= DECLARED_BOUND.rel, "observed {}", s.max_rel_err);
    }

    #[test]
    fn audit_rate_zero_never_audits_and_output_matches_audited_output() {
        let sys = SystemModel::table3();
        let job = small_job();
        let mut silent = CostModel::new(CostBackend::Surrogate { audit_rate: 0.0 }, 7);
        let mut audited = CostModel::new(CostBackend::Surrogate { audit_rate: 1.0 }, 7);
        let a = silent.run_enmc(&sys, &job, "t").unwrap();
        let b = audited.run_enmc(&sys, &job, "t").unwrap();
        assert_eq!(a, b, "auditing must never change the prediction");
        assert_eq!(silent.stats().audited, 0);
    }

    #[test]
    fn perturbed_coefficients_trip_the_audit() {
        let sys = SystemModel::table3();
        let job = small_job();
        let mut cost = CostModel::new(CostBackend::Surrogate { audit_rate: 1.0 }, 7);
        cost.run_enmc(&sys, &job, "warm up the fit").unwrap();
        assert!(cost.perturb_coeff("dram_cycles", 2.0) > 0);
        let err = cost.run_enmc(&sys, &job, "perturbed").unwrap_err();
        assert!(err.rel_err > DECLARED_BOUND.rel);
        let msg = err.to_string();
        assert!(msg.contains("surrogate violation"), "{msg}");
    }

    #[test]
    fn coefficients_round_trip_through_json() {
        let sys = SystemModel::table3();
        let job = small_job();
        let mut cost = CostModel::new(CostBackend::Surrogate { audit_rate: 0.0 }, 7);
        cost.run_enmc(&sys, &job, "t").unwrap();
        let json = cost.coeffs_to_json();
        let mut loaded = CostModel::new(CostBackend::Surrogate { audit_rate: 0.0 }, 7);
        loaded.load_coeffs(&json).unwrap();
        assert_eq!(loaded.fits.len(), 1);
        let a = cost.run_enmc(&sys, &job, "t").unwrap();
        let b = loaded.run_enmc(&sys, &job, "t").unwrap();
        assert_eq!(a, b, "loaded coefficients must predict identically");
        assert_eq!(json, loaded.coeffs_to_json(), "serialization must round-trip bytewise");
    }

    #[test]
    fn load_rejects_garbage() {
        let mut cost = CostModel::new(CostBackend::Surrogate { audit_rate: 0.0 }, 7);
        assert!(cost.load_coeffs("{}").is_err());
        let err = cost.load_coeffs("{\"surrogate_coeffs\":1,\"seed\":7,\"fits\":[]}").unwrap_err();
        assert!(err.contains("'fits' holds no fitted shape"), "{err}");
    }

    /// The coefficient file of one hand-built fit (no simulation).
    fn tiny_coeffs() -> String {
        let mut cost = CostModel::new(CostBackend::Surrogate { audit_rate: 0.0 }, u64::MAX);
        let fit = ShapeFit {
            categories: 520,
            hidden: 1500,
            reduced: 32,
            batch_reuse: 4,
            anchors: 0,
            batch_hi: 8,
            cand_hi: 1,
            ns_per_cycle: 0.75,
            targets: TARGETS.iter().map(|t| (t.to_string(), vec![0.5; fit::N_FEATURES])).collect(),
            grid_batches: vec![1, 2],
            grid_cands: vec![0, 1],
            table: vec![vec![[1.0, 2.0, 0.25, 1e-3]; 2]; 2],
        };
        cost.fits.insert((520, 1500, 32), fit);
        cost.coeffs_to_json()
    }

    #[test]
    fn load_rejects_bad_numbers_and_shapes_naming_the_field() {
        let good = tiny_coeffs();
        assert!(good.starts_with("{\"surrogate_coeffs\":1,\"seed\":18446744073709551615,"));
        let mut cost = CostModel::new(CostBackend::Surrogate { audit_rate: 0.0 }, u64::MAX);
        cost.load_coeffs(&good).unwrap();
        assert_eq!(cost.coeffs_to_json(), good, "a loaded file writes back byte for byte");
        let table = good.find("\"table\"").unwrap();
        for (bad, field) in [
            (
                good.replace("\"ns_per_cycle\":0.75", "\"ns_per_cycle\":NaN"),
                "'fits[0].ns_per_cycle'",
            ),
            (
                good.replace("\"ns_per_cycle\":0.75", "\"ns_per_cycle\":1e999"),
                "'fits[0].ns_per_cycle' is not a finite number",
            ),
            (good.replacen("0.25", "-1e999", 1), "'fits[0].table[0][0][2]'"),
            (good[..table + 12].to_string(), "'fits[0].table"),
            (
                good.replace("\"grid_cands\":[0,1]", "\"grid_cands\":[]"),
                "'fits[0].grid_cands' is empty",
            ),
            (good.replacen(",0.001]", "]", 1), "'fits[0].table[0][0]' has 3 values, expected 4"),
            (good.replacen("0.5,", "", 1), "'fits[0].targets.screener_busy' has 5 values"),
            (good.replace("\"grid_batches\":[1,2]", "\"grid_batches\":[1]"), "'fits[0].table'"),
            (
                good.replace("\"hidden\":1500", "\"hidden\":-1"),
                "'fits[0].hidden' is -1, outside usize",
            ),
            (
                good.replace("\"surrogate_coeffs\":1", "\"surrogate_coeffs\":2"),
                "'surrogate_coeffs' is 2",
            ),
            (good.replace("\"screener_busy\"", "\"screener_idle\""), "'fits[0].targets' has keys"),
        ] {
            let err = cost.load_coeffs(&bad).unwrap_err();
            assert!(err.contains(field), "{field}: {err}");
        }
    }

    #[test]
    fn sharded_prediction_matches_run_level_straggler_semantics() {
        let sys = SystemModel::table3();
        let job = small_job();
        let mut cost = CostModel::new(CostBackend::Surrogate { audit_rate: 0.0 }, 7);
        let run = cost.run_sharded_enmc(&sys, &job, &SimConfig::sequential(), "t").unwrap();
        assert_eq!(run.shards, job.rank_jobs(sys.total_ranks).len());
        assert_eq!(run.shard_dram.len(), run.shards);
        let merged = run.result.rank_report.expect("predicted report");
        assert!(merged.dram_cycles > 0);
        assert_eq!(run.wall_ns, 0.0, "predicted runs carry no host timing");
        // Same worker-count invariance contract as the simulator.
        let mut cost2 = CostModel::new(CostBackend::Surrogate { audit_rate: 0.0 }, 7);
        let run4 = cost2.run_sharded_enmc(&sys, &job, &SimConfig::with_threads(4), "t").unwrap();
        assert_eq!(run.result, run4.result, "prediction must not depend on workers");
    }

    #[test]
    fn one_prediction_per_distinct_slice_equals_one_per_rank() {
        let sys = SystemModel::table3();
        let job = small_job();
        let ranks = sys.total_ranks;
        assert!(!job.categories.is_multiple_of(ranks) && !job.candidates.is_multiple_of(ranks));
        let mut cost = CostModel::new(CostBackend::Surrogate { audit_rate: 0.0 }, 7);
        let run = cost.run_sharded_enmc(&sys, &job, &SimConfig::sequential(), "t").unwrap();
        assert!(RankSlices::of(&job, ranks).distinct.len() > 1, "remainders make slices differ");
        // Every rank predicted on its own and merged rank by rank.
        let fit = cost.fits.values().next().expect("the run fitted its shape");
        let reports: Vec<UnitReport> = job.rank_jobs(ranks).iter().map(|j| fit.predict(j)).collect();
        let logic = LogicEnergyModel::enmc_table5();
        let mut energy = SystemEnergy::default();
        for r in &reports {
            let e = SystemEnergy::from_rank(r, 1, sys.energy_model(), &logic);
            energy.dram_static_nj += e.dram_static_nj;
            energy.dram_access_nj += e.dram_access_nj;
            energy.logic_nj += e.logic_nj;
        }
        let merged = UnitReport::merge_parallel(&reports);
        assert_eq!(run.result.rank_report, Some(merged));
        assert_eq!(run.result.ns, merged.ns);
        assert_eq!(run.result.energy, Some(energy));
        assert_eq!(run.shard_dram, reports.iter().map(|r| r.dram).collect::<Vec<_>>());
        assert_eq!(run.shards, ranks);
    }

    #[test]
    #[should_panic(expected = "audit rate")]
    fn invalid_audit_rate_rejected() {
        CostModel::new(CostBackend::Surrogate { audit_rate: 1.5 }, 7);
    }
}
