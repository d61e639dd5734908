//! Whole-system composition: a classification job over 8 channels × 8
//! ranks of ENMC DIMMs (Table 3), or over the CPU / NMP baselines.
//!
//! The classifier is partitioned row-wise across the 64 rank-units; every
//! unit screens its slice and computes the candidates that fall in it.
//! Rank-units are symmetric and independent (each has its own DRAM timing
//! domain), so system latency is one representative rank's latency — the
//! candidate load is spread uniformly by the partitioning.

use crate::baseline::{BaselineKind, NmpBaseline};
use crate::config::EnmcConfig;
use crate::cpu::CpuModel;
use crate::energy::{LogicEnergyModel, SystemEnergy};
use crate::unit::{RankJob, RankUnit, UnitParams, UnitReport};
use enmc_dram::energy::EnergyModel;
use enmc_dram::DramStats;
use enmc_mem::{MemPreset, MemTech};
use enmc_obs::trace::TraceBuffer;
use enmc_par::SimConfig;

/// DRAM channels in the Table 3 platform; rank-units spread evenly
/// across them (8 ranks per channel for ENMC). Cost attribution groups
/// per-shard statistics into this many channel buckets.
pub const CHANNELS: usize = 8;

/// Table 4 logic-power totals for the homogeneous-FP32 NMP baselines,
/// in milliwatts per unit.
fn baseline_total_mw(kind: BaselineKind) -> f64 {
    match kind {
        BaselineKind::Nda => 293.6,
        BaselineKind::Chameleon => 249.0,
        BaselineKind::TensorDimm => 303.5,
        BaselineKind::TensorDimmLarge => 303.5 * 2.5,
    }
}

/// A classification job at system scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassificationJob {
    /// Total categories `l`.
    pub categories: usize,
    /// Hidden dimension `d`.
    pub hidden: usize,
    /// Reduced dimension `k`.
    pub reduced: usize,
    /// Batch size.
    pub batch: usize,
    /// Total candidates per batch item (across all ranks).
    pub candidates: usize,
}

impl ClassificationJob {
    /// The same workload shape at a different serving load point:
    /// `batch` concurrent requests, each screened down to `candidates`
    /// survivors. Categories and dimensions are untouched, so a serving
    /// simulator can sweep batch size × degrade tier without re-deriving
    /// the model shape.
    pub fn with_load(&self, batch: usize, candidates: usize) -> Self {
        ClassificationJob { batch: batch.max(1), candidates: candidates.max(1), ..*self }
    }

    /// The slice of this job one of `ranks` symmetric units executes.
    pub fn rank_slice(&self, ranks: usize) -> RankJob {
        RankJob {
            categories: self.categories.div_ceil(ranks).max(1),
            hidden: self.hidden,
            reduced: self.reduced,
            batch: self.batch,
            candidates_per_item: vec![self.candidates.div_ceil(ranks); self.batch],
        }
    }

    /// The exact per-rank slices of this job across `ranks` symmetric
    /// units: every category and every candidate lands in exactly one
    /// slice (earlier ranks absorb the remainders).
    ///
    /// Unlike [`ClassificationJob::rank_slice`] — which rounds the load up
    /// to a representative worst-rank slice — the returned jobs partition
    /// the work with no duplication, so simulating all of them yields the
    /// whole system's traffic. When the job has fewer categories than
    /// ranks, only `categories` non-empty slices are returned.
    pub fn rank_jobs(&self, ranks: usize) -> Vec<RankJob> {
        let cat_ranges = enmc_par::shard_ranges(self.categories, ranks);
        let cand_ranges = enmc_par::shard_ranges(self.candidates, cat_ranges.len().max(1));
        cat_ranges
            .iter()
            .enumerate()
            .map(|(r, cats)| RankJob {
                categories: cats.len(),
                hidden: self.hidden,
                reduced: self.reduced,
                batch: self.batch,
                candidates_per_item: vec![
                    cand_ranges.get(r).map_or(0, |c| c.len());
                    self.batch
                ],
            })
            .collect()
    }
}

/// Which scheme executed a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Host CPU running full classification (the normalization baseline).
    CpuFull,
    /// Host CPU running approximate screening + candidates.
    CpuScreened,
    /// An NMP baseline running approximate screening.
    Baseline(BaselineKind),
    /// The ENMC architecture.
    Enmc,
}

/// Result of running a job under one scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeResult {
    /// The scheme.
    pub scheme: Scheme,
    /// Wall-clock latency in nanoseconds for the whole batch.
    pub ns: f64,
    /// Energy breakdown (absent for the analytic CPU model).
    pub energy: Option<SystemEnergy>,
    /// Per-rank simulation report (absent for the CPU).
    pub rank_report: Option<UnitReport>,
}

impl SchemeResult {
    /// Speedup of this result relative to `baseline`.
    pub fn speedup_over(&self, baseline: &SchemeResult) -> f64 {
        baseline.ns / self.ns
    }
}

/// Result of a sharded full-system run ([`SystemModel::run_sharded`]):
/// the scheme result plus the host-side parallel execution record.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedRun {
    /// The merged scheme result (bit-identical for any worker count).
    pub result: SchemeResult,
    /// Worker threads the run executed on.
    pub workers: usize,
    /// Independent job shards simulated.
    pub shards: usize,
    /// Host wall-clock nanoseconds of the parallel region.
    pub wall_ns: f64,
    /// Summed per-shard host wall time (the sequential-equivalent cost).
    pub shard_wall_ns: f64,
    /// Per-shard DRAM statistics in rank order (empty for analytic CPU
    /// schemes). The shard decomposition is fixed by the workload, so
    /// this vector is bit-identical for any worker count — it is the
    /// per-channel/per-rank input to cost attribution.
    pub shard_dram: Vec<DramStats>,
}

impl ShardedRun {
    /// Observed parallel speedup: summed shard time over region wall
    /// time. Approximately 1.0 on one worker.
    pub fn speedup(&self) -> f64 {
        if self.wall_ns > 0.0 {
            self.shard_wall_ns / self.wall_ns
        } else {
            1.0
        }
    }
}

/// The exact per-rank slices of a job ([`ClassificationJob::rank_jobs`])
/// grouped by shape. Symmetric sharding yields at most a handful of
/// distinct slices (remainder categories and candidates land on the
/// earliest ranks), so a deterministic per-slice cost — a cycle-level
/// simulation or a surrogate prediction — runs once per distinct slice,
/// and every rank sharing it reuses that report bit-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankSlices {
    /// The distinct slices, in order of first appearance (rank order).
    pub distinct: Vec<RankJob>,
    /// For every rank in rank order, the index of its slice in
    /// `distinct`.
    pub slot: Vec<usize>,
}

impl RankSlices {
    /// `job` split over `ranks` symmetric units and grouped by slice.
    pub fn of(job: &ClassificationJob, ranks: usize) -> Self {
        let mut distinct: Vec<RankJob> = Vec::new();
        let slot = job
            .rank_jobs(ranks)
            .into_iter()
            .map(|j| {
                distinct.iter().position(|d| *d == j).unwrap_or_else(|| {
                    distinct.push(j);
                    distinct.len() - 1
                })
            })
            .collect();
        RankSlices { distinct, slot }
    }

    /// The whole-system run assembled from one report per distinct slice
    /// (`reports[i]` answers `distinct[i]`): every rank's report merged
    /// in rank order ([`UnitReport::merge_parallel`]), every rank's
    /// energy summed in rank order, and the per-rank DRAM statistics.
    /// The host-side fields are those of an instantaneous one-worker run
    /// (`workers` 1, zero wall time); a caller that timed the reports
    /// overrides them.
    ///
    /// # Panics
    ///
    /// Panics when `reports` does not hold one report per distinct slice.
    pub fn assemble(
        &self,
        scheme: Scheme,
        reports: &[UnitReport],
        dram_model: &EnergyModel,
        logic_model: &LogicEnergyModel,
    ) -> ShardedRun {
        assert_eq!(reports.len(), self.distinct.len(), "one report per distinct slice");
        let per_rank: Vec<UnitReport> = self.slot.iter().map(|&i| reports[i]).collect();
        let merged = UnitReport::merge_parallel(&per_rank);
        // Every rank's own activity and always-on window, summed exactly.
        let slice_energy: Vec<SystemEnergy> =
            reports.iter().map(|r| SystemEnergy::from_rank(r, 1, dram_model, logic_model)).collect();
        let mut energy = SystemEnergy::default();
        for &i in &self.slot {
            let e = &slice_energy[i];
            energy.dram_static_nj += e.dram_static_nj;
            energy.dram_access_nj += e.dram_access_nj;
            energy.logic_nj += e.logic_nj;
        }
        ShardedRun {
            result: SchemeResult {
                scheme,
                ns: merged.ns,
                energy: Some(energy),
                rank_report: Some(merged),
            },
            workers: 1,
            shards: self.slot.len(),
            wall_ns: 0.0,
            shard_wall_ns: 0.0,
            shard_dram: per_rank.iter().map(|r| r.dram).collect(),
        }
    }
}

/// The complete evaluation platform: CPU model + rank-unit models.
#[derive(Debug, Clone)]
pub struct SystemModel {
    cpu: CpuModel,
    enmc: EnmcConfig,
    /// Rank-units in the system (Table 3: 8 channels × 8 ranks).
    pub total_ranks: usize,
    /// Per-rank DRAM energy model applied to every simulated scheme
    /// (the memory preset's nominal model; the fault subsystem swaps in
    /// relaxed-refresh / ECC-surcharged variants via
    /// [`SystemModel::with_energy_model`]).
    energy_model: EnergyModel,
    /// The memory-technology preset every simulated rank runs on
    /// (timing domain + energy coefficients + error profile). Defaults
    /// to the Table 3 DDR4 baseline, which is bit-exact with the
    /// pre-preset platform.
    mem: MemPreset,
}

impl Default for SystemModel {
    fn default() -> Self {
        Self::table3()
    }
}

impl SystemModel {
    /// The paper's evaluation platform.
    pub fn table3() -> Self {
        SystemModel {
            cpu: CpuModel::xeon_8280(),
            enmc: EnmcConfig::table3(),
            total_ranks: 64,
            energy_model: EnergyModel::ddr4_2400_rank(1),
            mem: MemPreset::ddr4_2666(),
        }
    }

    /// Returns the model re-based on a memory-technology preset: the
    /// simulated ranks' DRAM timing domain, the per-rank energy model,
    /// and the error profile all switch to `tech`. Call before any
    /// [`SystemModel::with_energy_model`] fault override — this resets
    /// the energy model to the preset's nominal one.
    pub fn with_memory(mut self, tech: MemTech) -> Self {
        self.mem = tech.preset();
        self.energy_model = self.mem.energy_model(1);
        self
    }

    /// The memory-technology preset in use.
    pub fn memory(&self) -> &MemPreset {
        &self.mem
    }

    /// Returns the model with a different per-rank ENMC logic
    /// configuration — the design-space tuner's lever for lane count and
    /// screener bitwidth. Every subsequent run simulates with
    /// [`UnitParams::enmc`] over this configuration.
    pub fn with_enmc_config(mut self, cfg: EnmcConfig) -> Self {
        self.enmc = cfg;
        self
    }

    /// Returns the model with a different rank-unit count (the tuner's
    /// capacity axis; Table 3 ships 64).
    pub fn with_total_ranks(mut self, ranks: usize) -> Self {
        self.total_ranks = ranks.max(1);
        self
    }

    /// The per-rank ENMC logic configuration in use.
    pub fn enmc_config(&self) -> &EnmcConfig {
        &self.enmc
    }

    /// Returns the model with a different per-rank DRAM energy model
    /// (`ranks` is ignored; the system always scales a one-rank model by
    /// `total_ranks`).
    pub fn with_energy_model(mut self, model: EnergyModel) -> Self {
        self.energy_model = EnergyModel { ranks: 1, ..model };
        self
    }

    /// The per-rank DRAM energy model in use.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy_model
    }

    /// The CPU model in use.
    pub fn cpu(&self) -> &CpuModel {
        &self.cpu
    }

    /// The per-rank unit parameters an ENMC run simulates with — the
    /// exact configuration [`SystemModel::run`] hands to [`RankUnit`],
    /// exposed so surrogate fits anchor on the same simulator.
    pub fn enmc_unit_params(&self) -> UnitParams {
        UnitParams::enmc_on(&self.enmc, self.mem.single_rank_config(), self.mem.io_mhz())
    }

    /// The logic-power model a simulated scheme draws per unit (`None`
    /// for the analytic CPU schemes, which model no NMP logic).
    pub fn logic_energy_model(&self, scheme: Scheme) -> Option<LogicEnergyModel> {
        match scheme {
            Scheme::Enmc => Some(LogicEnergyModel::enmc_table5()),
            Scheme::Baseline(kind) => {
                Some(LogicEnergyModel::baseline(baseline_total_mw(kind)))
            }
            Scheme::CpuFull | Scheme::CpuScreened => None,
        }
    }

    /// Runs `job` under `scheme`.
    pub fn run(&self, job: &ClassificationJob, scheme: Scheme) -> SchemeResult {
        self.run_traced(job, scheme, None)
    }

    /// [`SystemModel::run`] with an optional trace collector for the
    /// simulated schemes. One representative rank-unit is traced (they are
    /// symmetric); the analytic CPU schemes emit nothing.
    pub fn run_traced(
        &self,
        job: &ClassificationJob,
        scheme: Scheme,
        trace: Option<&mut TraceBuffer>,
    ) -> SchemeResult {
        self.run_checked(job, scheme, trace, false)
    }

    /// [`SystemModel::run_traced`] with the DDR4 protocol conformance
    /// checker optionally attached to the simulated rank's DRAM
    /// controller (analytic CPU schemes have no DRAM to check).
    pub fn run_checked(
        &self,
        job: &ClassificationJob,
        scheme: Scheme,
        trace: Option<&mut TraceBuffer>,
        check_protocol: bool,
    ) -> SchemeResult {
        match scheme {
            Scheme::CpuFull => SchemeResult {
                scheme,
                ns: self.cpu.full_classification_ns(job.categories, job.hidden, job.batch),
                energy: None,
                rank_report: None,
            },
            Scheme::CpuScreened => SchemeResult {
                scheme,
                ns: self.cpu.screened_classification_ns(
                    job.categories,
                    job.hidden,
                    job.reduced,
                    job.candidates,
                    4,
                    job.batch,
                ),
                energy: None,
                rank_report: None,
            },
            Scheme::Enmc => {
                let unit = RankUnit::new(self.enmc_unit_params());
                let report =
                    unit.simulate_checked(&job.rank_slice(self.total_ranks), trace, check_protocol);
                let energy = SystemEnergy::from_rank(
                    &report,
                    self.total_ranks,
                    &self.energy_model,
                    &LogicEnergyModel::enmc_table5(),
                );
                SchemeResult {
                    scheme,
                    ns: report.ns,
                    energy: Some(energy),
                    rank_report: Some(report),
                }
            }
            Scheme::Baseline(kind) => {
                let baseline = NmpBaseline::new(kind);
                // "Large" variants deploy more rank-units per channel.
                let units = kind.config().units_per_channel * 8;
                let report =
                    baseline.unit().simulate_checked(&job.rank_slice(units), trace, check_protocol);
                // Energy scales with the number of units actually deployed
                // (TensorDIMM-Large doubles them).
                let energy = SystemEnergy::from_rank(
                    &report,
                    units,
                    &self.energy_model,
                    &LogicEnergyModel::baseline(baseline_total_mw(kind)),
                );
                SchemeResult {
                    scheme,
                    ns: report.ns,
                    energy: Some(energy),
                    rank_report: Some(report),
                }
            }
        }
    }

    /// Runs `job` with **every** rank-unit simulated on its exact job
    /// slice (no representative-rank shortcut), the slices executed on
    /// the worker pool `cfg` requests.
    ///
    /// The shard decomposition is fixed by the workload
    /// ([`ClassificationJob::rank_jobs`]) and the reports merge in rank
    /// order ([`UnitReport::merge_parallel`]), so the result is
    /// bit-identical for any worker count — threads only change the
    /// wall-clock time recorded in the returned [`ShardedRun`]. Analytic
    /// CPU schemes have nothing to shard and run as a single unit of
    /// work.
    pub fn run_sharded(&self, job: &ClassificationJob, scheme: Scheme, cfg: &SimConfig) -> ShardedRun {
        let workers = cfg.worker_count();
        let sharded_units = match scheme {
            Scheme::Enmc => Some((self.enmc_unit_params(), self.total_ranks, LogicEnergyModel::enmc_table5())),
            Scheme::Baseline(kind) => {
                let units = kind.config().units_per_channel * 8;
                Some((
                    *NmpBaseline::new(kind).unit().params(),
                    units,
                    LogicEnergyModel::baseline(baseline_total_mw(kind)),
                ))
            }
            Scheme::CpuFull | Scheme::CpuScreened => None,
        };
        let Some((params, units, logic_model)) = sharded_units else {
            let wall = std::time::Instant::now();
            let result = self.run(job, scheme);
            let wall_ns = wall.elapsed().as_secs_f64() * 1e9;
            return ShardedRun {
                result,
                workers: 1,
                shards: 1,
                wall_ns,
                shard_wall_ns: wall_ns,
                shard_dram: Vec::new(),
            };
        };

        let slices = RankSlices::of(job, units);
        let check = cfg.check_protocol;
        let wall = std::time::Instant::now();
        let per_slice: Vec<(UnitReport, f64)> =
            enmc_par::par_map(workers, slices.distinct.clone(), |_, rank_job| {
                let shard_wall = std::time::Instant::now();
                let report = RankUnit::new(params).simulate_checked(&rank_job, None, check);
                (report, shard_wall.elapsed().as_secs_f64() * 1e9)
            });
        let wall_ns = wall.elapsed().as_secs_f64() * 1e9;
        // Host-side work per simulated slice; replicated ranks cost
        // nothing on the host.
        let shard_wall_ns: f64 = per_slice.iter().map(|(_, ns)| ns).sum();
        let reports: Vec<UnitReport> = per_slice.iter().map(|(r, _)| *r).collect();
        let run = slices.assemble(scheme, &reports, &self.energy_model, &logic_model);
        ShardedRun { workers, wall_ns, shard_wall_ns, ..run }
    }

    /// Runs the Fig. 13 scheme set on one job, returning results in the
    /// paper's order: CPU-screened, NDA, Chameleon, TensorDIMM, ENMC —
    /// all normalized against CPU-full by the caller.
    pub fn run_figure13_schemes(&self, job: &ClassificationJob) -> Vec<SchemeResult> {
        let mut out = vec![self.run(job, Scheme::CpuScreened)];
        for kind in BaselineKind::figure13() {
            out.push(self.run(job, Scheme::Baseline(kind)));
        }
        out.push(self.run(job, Scheme::Enmc));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> ClassificationJob {
        // A Transformer-W268K-like shape, scaled so tests stay fast: each
        // rank still sees thousands of categories.
        ClassificationJob {
            categories: 262_144,
            hidden: 512,
            reduced: 128,
            batch: 1,
            candidates: 262_144 / 20, // ~5% of rows need exact compute
        }
    }

    #[test]
    fn with_load_rescales_only_the_load_axes() {
        let j = job();
        let scaled = j.with_load(8, 1000);
        assert_eq!(scaled.batch, 8);
        assert_eq!(scaled.candidates, 1000);
        assert_eq!(scaled.categories, j.categories);
        assert_eq!(scaled.hidden, j.hidden);
        assert_eq!(scaled.reduced, j.reduced);
        // Degenerate loads clamp to one rather than producing empty jobs.
        let empty = j.with_load(0, 0);
        assert_eq!((empty.batch, empty.candidates), (1, 1));
    }

    #[test]
    fn rank_slice_partitions_evenly() {
        let j = job();
        let slice = j.rank_slice(64);
        assert_eq!(slice.categories, 4096);
        assert_eq!(slice.candidates_per_item, vec![205]);
    }

    #[test]
    fn rank_jobs_partition_exactly() {
        let j = job();
        for ranks in [1usize, 7, 64] {
            let jobs = j.rank_jobs(ranks);
            assert_eq!(jobs.len(), ranks);
            let cats: usize = jobs.iter().map(|r| r.categories).sum();
            let cands: usize = jobs.iter().map(|r| r.candidates_per_item[0]).sum();
            assert_eq!(cats, j.categories, "{ranks} ranks drop/duplicate categories");
            assert_eq!(cands, j.candidates, "{ranks} ranks drop/duplicate candidates");
            let max = jobs.iter().map(|r| r.categories).max().unwrap();
            let min = jobs.iter().map(|r| r.categories).min().unwrap();
            assert!(max - min <= 1, "unbalanced category split");
        }
        // Degenerate: more ranks than categories → one category each.
        let tiny = ClassificationJob { categories: 3, hidden: 8, reduced: 4, batch: 1, candidates: 2 };
        let jobs = tiny.rank_jobs(64);
        assert_eq!(jobs.len(), 3);
        assert!(jobs.iter().all(|r| r.categories == 1));
        assert_eq!(jobs.iter().map(|r| r.candidates_per_item[0]).sum::<usize>(), 2);
    }

    fn small_job() -> ClassificationJob {
        ClassificationJob { categories: 32_768, hidden: 128, reduced: 32, batch: 1, candidates: 512 }
    }

    #[test]
    fn sharded_run_is_bit_identical_across_worker_counts() {
        let sys = SystemModel::table3();
        let j = small_job();
        let seq = sys.run_sharded(&j, Scheme::Enmc, &enmc_par::SimConfig::sequential());
        assert_eq!(seq.workers, 1);
        assert_eq!(seq.shards, 64);
        for threads in [2usize, 4] {
            let par = sys.run_sharded(&j, Scheme::Enmc, &enmc_par::SimConfig::with_threads(threads));
            assert_eq!(par.workers, threads);
            assert_eq!(seq.result, par.result, "{threads} threads diverge");
        }
    }

    #[test]
    fn sharded_run_covers_the_whole_system() {
        let sys = SystemModel::table3();
        let j = small_job();
        let sharded = sys.run_sharded(&j, Scheme::Enmc, &enmc_par::SimConfig::sequential());
        let representative = sys.run(&j, Scheme::Enmc);
        let merged = sharded.result.rank_report.expect("simulated");
        let one = representative.rank_report.expect("simulated");
        // All 64 ranks' screening traffic ≈ 64× the representative rank's
        // (exact split vs div_ceil rounding makes it ≤).
        assert!(merged.screen_bytes > 32 * one.screen_bytes);
        assert!(merged.screen_bytes <= 64 * one.screen_bytes);
        // Latency is a straggler, not a sum.
        assert!(sharded.result.ns < 2.0 * representative.ns);
        assert!(sharded.result.ns > 0.5 * representative.ns);
        // Phase boundaries still tile the headline cycle count.
        assert!(merged.screen_done_cycle <= merged.exec_done_cycle);
        assert!(merged.exec_done_cycle <= merged.dram_cycles);
    }

    #[test]
    fn sharded_cpu_schemes_fall_back_to_analytic() {
        let sys = SystemModel::table3();
        let j = small_job();
        let run = sys.run_sharded(&j, Scheme::CpuFull, &enmc_par::SimConfig::with_threads(4));
        assert_eq!(run.shards, 1);
        assert_eq!(run.result.ns, sys.run(&j, Scheme::CpuFull).ns);
    }

    #[test]
    fn merge_parallel_picks_lowest_index_straggler() {
        use crate::unit::UnitReport;
        let mut a = UnitReport::default();
        a.dram_cycles = 100;
        a.ns = 1.0;
        a.screen_bytes = 10;
        let mut b = UnitReport::default();
        b.dram_cycles = 100;
        b.ns = 2.0;
        b.screen_bytes = 20;
        let m = UnitReport::merge_parallel(&[a, b]);
        assert_eq!(m.ns, 1.0, "tie must resolve to the first report");
        assert_eq!(m.screen_bytes, 30, "traffic must sum");
        let m2 = UnitReport::merge_parallel(&[b, a]);
        assert_eq!(m2.ns, 2.0);
    }

    #[test]
    fn enmc_beats_cpu_by_a_wide_margin() {
        let sys = SystemModel::table3();
        let j = job();
        let cpu = sys.run(&j, Scheme::CpuFull);
        let enmc = sys.run(&j, Scheme::Enmc);
        let speedup = enmc.speedup_over(&cpu);
        // Paper: ENMC delivers 56.5× average over CPU-full (55.5–600×
        // at batch 1). Accept a broad band around that.
        assert!(speedup > 20.0, "speedup {speedup}");
    }

    #[test]
    fn cpu_screening_alone_is_single_digit_speedup() {
        let sys = SystemModel::table3();
        let j = job();
        let full = sys.run(&j, Scheme::CpuFull);
        let screened = sys.run(&j, Scheme::CpuScreened);
        let s = screened.speedup_over(&full);
        assert!((3.0..16.0).contains(&s), "speedup {s}");
    }

    #[test]
    fn enmc_beats_every_nmp_baseline() {
        let sys = SystemModel::table3();
        let j = job();
        let enmc = sys.run(&j, Scheme::Enmc);
        for kind in BaselineKind::figure13() {
            let b = sys.run(&j, Scheme::Baseline(kind));
            let adv = enmc.speedup_over(&b);
            assert!(adv > 1.5, "{:?}: only {adv}×", kind);
        }
    }

    #[test]
    fn enmc_energy_below_tensordimm() {
        let sys = SystemModel::table3();
        let j = job();
        let enmc = sys.run(&j, Scheme::Enmc).energy.expect("simulated");
        let td = sys.run(&j, Scheme::Baseline(BaselineKind::TensorDimm)).energy.expect("simulated");
        assert!(
            td.total_nj() > 2.0 * enmc.total_nj(),
            "TensorDIMM {} vs ENMC {}",
            td.total_nj(),
            enmc.total_nj()
        );
    }

    #[test]
    fn relaxed_refresh_energy_model_reaches_the_per_rank_merge() {
        // Few ranks + a large slice each, so every rank's run spans several
        // tREFI windows and actually issues REF commands.
        let j = ClassificationJob {
            categories: 65_536,
            hidden: 256,
            reduced: 64,
            batch: 1,
            candidates: 512,
        };
        let mut nominal = SystemModel::table3();
        nominal.total_ranks = 2;
        let mut relaxed = nominal
            .clone()
            .with_energy_model(EnergyModel::ddr4_2400_rank(1).with_refresh_multiplier(8.0));
        relaxed.total_ranks = 2;
        let cfg = enmc_par::SimConfig::sequential();
        let e_nom = nominal.run_sharded(&j, Scheme::Enmc, &cfg).result.energy.unwrap();
        let e_rel = relaxed.run_sharded(&j, Scheme::Enmc, &cfg).result.energy.unwrap();
        // Refresh is static energy: relaxing it must cut the summed static
        // term of the per-rank merge while leaving access and logic alone.
        assert!(e_rel.dram_static_nj < e_nom.dram_static_nj, "{e_rel:?} vs {e_nom:?}");
        assert_eq!(e_rel.dram_access_nj, e_nom.dram_access_nj);
        assert_eq!(e_rel.logic_nj, e_nom.logic_nj);
        // The representative-rank path sees the same model.
        let r_nom = nominal.run(&j, Scheme::Enmc).energy.unwrap();
        let r_rel = relaxed.run(&j, Scheme::Enmc).energy.unwrap();
        assert!(r_rel.dram_static_nj < r_nom.dram_static_nj);
        // ECC surcharge lands in the merged access term instead.
        let mut ecc = nominal
            .clone()
            .with_energy_model(EnergyModel::ddr4_2400_rank(1).with_ecc_surcharge(0.4));
        ecc.total_ranks = 2;
        let e_ecc = ecc.run_sharded(&j, Scheme::Enmc, &cfg).result.energy.unwrap();
        assert!(e_ecc.dram_access_nj > e_nom.dram_access_nj);
        assert_eq!(e_ecc.dram_static_nj, e_nom.dram_static_nj);
    }

    #[test]
    fn run_traced_collects_events_for_simulated_schemes() {
        let sys = SystemModel::table3();
        let j = ClassificationJob {
            categories: 32_768,
            hidden: 128,
            reduced: 32,
            batch: 1,
            candidates: 256,
        };
        let mut tb = TraceBuffer::unbounded();
        let traced = sys.run_traced(&j, Scheme::Enmc, Some(&mut tb));
        assert!(!tb.is_empty(), "ENMC run must emit trace events");
        // Tracing must not change the answer.
        let plain = sys.run(&j, Scheme::Enmc);
        assert_eq!(plain.ns, traced.ns);
        // Analytic CPU schemes have nothing to trace.
        let mut cpu_tb = TraceBuffer::unbounded();
        sys.run_traced(&j, Scheme::CpuFull, Some(&mut cpu_tb));
        assert!(cpu_tb.is_empty());
    }

    #[test]
    fn default_memory_preset_is_bit_exact_with_table3() {
        let sys = SystemModel::table3();
        let explicit = SystemModel::table3().with_memory(MemTech::Ddr4_2666);
        let j = small_job();
        assert_eq!(sys.memory().tech, MemTech::Ddr4_2666);
        assert_eq!(sys.run(&j, Scheme::Enmc), explicit.run(&j, Scheme::Enmc));
        assert_eq!(sys.enmc_unit_params(), UnitParams::enmc(sys.enmc_config()));
    }

    #[test]
    fn memory_presets_change_results_but_stay_worker_invariant() {
        let j = small_job();
        let base = SystemModel::table3().run(&j, Scheme::Enmc);
        for tech in [MemTech::Ddr5_4800, MemTech::Lpddr4_3200, MemTech::Hbm2] {
            let sys = SystemModel::table3().with_memory(tech);
            let r = sys.run(&j, Scheme::Enmc);
            assert_ne!(r.ns, base.ns, "{tech} must differ from the baseline");
            let seq = sys.run_sharded(&j, Scheme::Enmc, &enmc_par::SimConfig::sequential());
            let par = sys.run_sharded(&j, Scheme::Enmc, &enmc_par::SimConfig::with_threads(4));
            assert_eq!(seq.result, par.result, "{tech} diverges across workers");
        }
    }

    #[test]
    fn hbm2_is_fastest_and_lpddr4_cheapest_on_the_stream() {
        let j = small_job();
        let run = |tech: MemTech| {
            let r = SystemModel::table3().with_memory(tech).run(&j, Scheme::Enmc);
            (r.ns, r.energy.expect("simulated").total_nj())
        };
        let (ns_d4, e_d4) = run(MemTech::Ddr4_2666);
        let (ns_hbm, _) = run(MemTech::Hbm2);
        let (_, e_lp) = run(MemTech::Lpddr4_3200);
        assert!(ns_hbm < ns_d4, "HBM2 {ns_hbm} vs DDR4 {ns_d4}");
        assert!(e_lp < e_d4, "LPDDR4 {e_lp} vs DDR4 {e_d4}");
    }

    #[test]
    fn protocol_check_is_clean_under_every_memory_preset() {
        let j = small_job();
        for tech in MemTech::ALL {
            let sys = SystemModel::table3().with_memory(tech);
            let r = sys.run_checked(&j, Scheme::Enmc, None, true);
            let report = r.rank_report.expect("simulated");
            assert_eq!(report.protocol_violations, 0, "{tech}");
        }
    }

    #[test]
    fn figure13_scheme_set_order() {
        let sys = SystemModel::table3();
        let results = sys.run_figure13_schemes(&ClassificationJob {
            categories: 32_768,
            hidden: 128,
            reduced: 32,
            batch: 1,
            candidates: 256,
        });
        assert_eq!(results.len(), 5);
        assert_eq!(results[0].scheme, Scheme::CpuScreened);
        assert_eq!(results[4].scheme, Scheme::Enmc);
    }
}
