//! Whole-system composition: a classification job over 8 channels × 8
//! ranks of ENMC DIMMs (Table 3), or over the CPU / NMP baselines.
//!
//! The classifier is partitioned row-wise across a scheme's rank-units;
//! every unit screens its exact slice ([`ClassificationJob::rank_jobs`])
//! and computes the candidates that fall in it. Rank-units are independent
//! (each has its own DRAM timing domain), so system latency is the
//! straggler rank's latency and system energy sums every rank's own.
//!
//! [`SystemModel::deployment`] is the one place that decides what a
//! simulated scheme deploys: ENMC's and every NMP baseline's rank units
//! run on the memory preset's single-rank timing domain and I/O clock, at
//! the logic power the synthesis model ([`crate::physical`]) gives them.

use crate::baseline::BaselineKind;
use crate::config::EnmcConfig;
use crate::cpu::CpuModel;
use crate::energy::{LogicEnergyModel, SystemEnergy};
use crate::physical::PhysicalModel;
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
/// in milliwatts per unit (TensorDIMM-Large draws 2.5× TensorDIMM).
fn baseline_total_mw(kind: BaselineKind) -> f64 {
    let p = PhysicalModel::tsmc28();
    match kind {
        BaselineKind::Nda => p.nda_unit(),
        BaselineKind::Chameleon => p.chameleon_unit(),
        BaselineKind::TensorDimm => p.tensordimm_unit(),
        BaselineKind::TensorDimmLarge => p.tensordimm_unit().scale(2.5),
    }
    .power_mw
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
    /// The job a workload of `categories` classes over hidden dimension
    /// `hidden` poses at `batch`: screening down to `k = d/4` (the
    /// screener's default scale) and computing the fraction `frac` of its
    /// categories exactly.
    pub fn of_workload(categories: usize, hidden: usize, batch: usize, frac: f64) -> Self {
        ClassificationJob {
            categories,
            hidden,
            reduced: (hidden / 4).max(1),
            batch,
            candidates: (categories as f64 * frac).round() as usize,
        }
    }

    /// One of `shards` row-wise shards of this job: `1/shards` of the
    /// categories and of the candidate budget, rounded up, everything
    /// else untouched.
    pub fn shard(&self, shards: usize) -> Self {
        ClassificationJob {
            categories: self.categories.div_ceil(shards),
            candidates: self.candidates.div_ceil(shards),
            ..*self
        }
    }

    /// The same workload shape at a different serving load point:
    /// `batch` concurrent requests, each screened down to `candidates`
    /// survivors. Categories and dimensions are untouched, so a serving
    /// simulator can sweep batch size × degrade tier without re-deriving
    /// the model shape.
    pub fn with_load(&self, batch: usize, candidates: usize) -> Self {
        ClassificationJob { batch: batch.max(1), candidates: candidates.max(1), ..*self }
    }

    /// The exact per-rank slices of this job across `ranks` symmetric
    /// units: every category and every candidate lands in exactly one
    /// slice (earlier ranks absorb the remainders), so simulating all of
    /// them yields the whole system's traffic. When the job has fewer
    /// categories than ranks, only `categories` non-empty slices are
    /// returned.
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
    /// Every rank unit's report merged in rank order
    /// ([`UnitReport::merge_parallel`]; absent for the CPU).
    pub rank_report: Option<UnitReport>,
}

impl SchemeResult {
    /// Speedup of this result relative to `baseline`.
    pub fn speedup_over(&self, baseline: &SchemeResult) -> f64 {
        baseline.ns / self.ns
    }
}

/// What a simulated scheme deploys ([`SystemModel::deployment`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deployment {
    /// One rank unit's engine parameters, on the memory preset in use.
    pub params: UnitParams,
    /// Rank units working in parallel, one job slice each.
    pub units: usize,
    /// The logic power each unit draws.
    pub logic: LogicEnergyModel,
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
    /// energy summed in rank order ([`SystemEnergy::of_ranks`]), and the
    /// per-rank DRAM statistics.
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
        let shard_dram: Vec<DramStats> = per_rank.iter().map(|r| r.dram).collect();
        // Every rank's own activity and always-on window, summed exactly.
        let logic_nj = per_rank.iter().fold(0.0, |sum, r| sum + logic_model.logic_nj(r));
        let energy = SystemEnergy::of_ranks(&shard_dram, dram_model, logic_nj);
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
            shard_dram,
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
    /// One rank's DRAM energy model, applied to every simulated rank
    /// (the memory preset's nominal model; the tuner's ECC axis swaps in
    /// an ECC variant via [`SystemModel::with_energy_model`]).
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
    /// The paper's evaluation platform: one rank unit per rank of the
    /// Table 3 DDR4 system.
    pub fn table3() -> Self {
        let mem = MemPreset::ddr4_2666();
        let org = mem.system_config().organization;
        SystemModel {
            cpu: CpuModel::xeon_8280(),
            enmc: EnmcConfig::table3(),
            total_ranks: org.channels * org.ranks,
            energy_model: mem.energy,
            mem,
        }
    }

    /// Returns the model re-based on a memory-technology preset: the
    /// simulated ranks' DRAM timing domain, the per-rank energy model,
    /// and the error profile all switch to `tech`. Call before any
    /// [`SystemModel::with_energy_model`] override — this resets the
    /// energy model to the preset's nominal one.
    pub fn with_memory(mut self, tech: MemTech) -> Self {
        self.mem = tech.preset();
        self.energy_model = self.mem.energy;
        self
    }

    /// The memory-technology preset in use.
    pub fn memory(&self) -> &MemPreset {
        &self.mem
    }

    /// Returns the model with a different per-rank ENMC logic
    /// configuration — the design-space tuner's lever for lane count and
    /// screener bitwidth. Every subsequent ENMC run simulates this
    /// configuration ([`SystemModel::deployment`]).
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

    /// Returns the model pricing every rank's DRAM activity with
    /// `model` (a refresh stretch or SEC-DED on the preset's nominal
    /// model).
    pub fn with_energy_model(mut self, model: EnergyModel) -> Self {
        self.energy_model = model;
        self
    }

    /// The one-rank DRAM energy model in use. The energy model prices
    /// DRAM activity but never changes it, so the resilience sweep runs
    /// a job once and re-prices its per-rank statistics
    /// ([`ShardedRun::shard_dram`]) under a variant of this model per
    /// refresh multiplier ([`SystemEnergy::of_ranks`]).
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy_model
    }

    /// The CPU model in use.
    pub fn cpu(&self) -> &CpuModel {
        &self.cpu
    }

    /// What `scheme` deploys: its rank units' parameters on this model's
    /// memory preset (single-rank timing domain and I/O clock), how many
    /// units share a job, and the logic power each draws. `None` for the
    /// analytic CPU schemes, which deploy no rank units.
    pub fn deployment(&self, scheme: Scheme) -> Option<Deployment> {
        let (dram, io_mhz) = (self.mem.single_rank_config(), self.mem.io_mhz());
        match scheme {
            Scheme::Enmc => Some(Deployment {
                params: UnitParams::enmc_on(&self.enmc, dram, io_mhz),
                units: self.total_ranks,
                logic: LogicEnergyModel::enmc_table5(),
            }),
            Scheme::Baseline(kind) => {
                let cfg = kind.config();
                Some(Deployment {
                    params: UnitParams::nmp_on(&cfg, dram, io_mhz),
                    // "Large" variants deploy more rank-units per channel.
                    units: cfg.units_per_channel * CHANNELS,
                    logic: LogicEnergyModel::baseline(baseline_total_mw(kind)),
                })
            }
            Scheme::CpuFull | Scheme::CpuScreened => None,
        }
    }

    /// The per-rank unit parameters an ENMC run simulates with, exposed
    /// so surrogate fits anchor on the same simulator.
    pub fn enmc_unit_params(&self) -> UnitParams {
        self.deployment(Scheme::Enmc).expect("ENMC deploys rank units").params
    }

    /// The logic-power model a simulated scheme draws per unit (`None`
    /// for the analytic CPU schemes, which model no NMP logic).
    pub fn logic_energy_model(&self, scheme: Scheme) -> Option<LogicEnergyModel> {
        self.deployment(scheme).map(|d| d.logic)
    }

    /// Runs `job` under `scheme` on one worker:
    /// [`SystemModel::run_sharded`]'s result.
    pub fn run(&self, job: &ClassificationJob, scheme: Scheme) -> SchemeResult {
        self.run_sharded(job, scheme, &SimConfig::sequential()).result
    }

    /// [`SystemModel::run_traced`] with no trace collector.
    pub fn run_sharded(&self, job: &ClassificationJob, scheme: Scheme, cfg: &SimConfig) -> ShardedRun {
        self.run_traced(job, scheme, cfg, None)
    }

    /// Runs `job` with every rank-unit simulated on its exact job slice,
    /// the slices executed on the worker pool `cfg` requests, with the
    /// DDR4 protocol conformance checker on every rank's DRAM controller
    /// when `cfg` asks for it.
    ///
    /// The shard decomposition is fixed by the workload
    /// ([`ClassificationJob::rank_jobs`]) and the reports merge in rank
    /// order ([`RankSlices::assemble`]), so the result is bit-identical
    /// for any worker count — threads only change the wall-clock time
    /// recorded in the returned [`ShardedRun`]. `trace` collects rank 0's
    /// slice, the one that takes the remainders; tracing changes no
    /// field of the result. Analytic CPU schemes have nothing to shard or
    /// trace and run as a single unit of work.
    pub fn run_traced(
        &self,
        job: &ClassificationJob,
        scheme: Scheme,
        cfg: &SimConfig,
        trace: Option<&mut TraceBuffer>,
    ) -> ShardedRun {
        let wall = std::time::Instant::now();
        let Some(d) = self.deployment(scheme) else {
            let ns = match scheme {
                Scheme::CpuScreened => self.cpu.screened_classification_ns(
                    job.categories,
                    job.hidden,
                    job.reduced,
                    job.candidates,
                    4,
                    job.batch,
                ),
                // `CpuFull`, the only other scheme without rank units.
                _ => self.cpu.full_classification_ns(job.categories, job.hidden, job.batch),
            };
            let wall_ns = wall.elapsed().as_secs_f64() * 1e9;
            return ShardedRun {
                result: SchemeResult { scheme, ns, energy: None, rank_report: None },
                workers: 1,
                shards: 1,
                wall_ns,
                shard_wall_ns: wall_ns,
                shard_dram: Vec::new(),
            };
        };

        let workers = cfg.worker_count();
        let slices = RankSlices::of(job, d.units);
        let check = cfg.check_protocol;
        // Only slice 0 takes the collector out; the lock is never contended.
        let trace = std::sync::Mutex::new(trace);
        let per_slice: Vec<(UnitReport, f64)> =
            enmc_par::par_map(workers, slices.distinct.clone(), |i, rank_job| {
                let shard_wall = std::time::Instant::now();
                let tb = if i == 0 { trace.lock().expect("trace lock").take() } else { None };
                let report = RankUnit::new(d.params).simulate_traced(&rank_job, tb, check);
                (report, shard_wall.elapsed().as_secs_f64() * 1e9)
            });
        let wall_ns = wall.elapsed().as_secs_f64() * 1e9;
        // Host-side work per simulated slice; replicated ranks cost
        // nothing on the host.
        let shard_wall_ns: f64 = per_slice.iter().map(|(_, ns)| ns).sum();
        let reports: Vec<UnitReport> = per_slice.iter().map(|(r, _)| *r).collect();
        let run = slices.assemble(scheme, &reports, &self.energy_model, &d.logic);
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
    use enmc_model::workloads::WorkloadId;

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
    fn every_workload_screens_to_the_dimension_the_screener_fits() {
        // The hardware side streams the k the algorithm side trains.
        let screener = enmc_screen::ScreenerConfig::default();
        for id in WorkloadId::table2().into_iter().chain(WorkloadId::scaling()) {
            let w = id.workload();
            let job = ClassificationJob::of_workload(w.categories, w.hidden, 1, 0.01);
            assert_eq!(job.reduced, screener.reduced_dim(w.hidden), "{id}");
        }
    }

    #[test]
    fn shards_round_rows_and_candidates_up() {
        let shard = job().shard(3);
        assert_eq!(shard.categories, 262_144usize.div_ceil(3));
        assert_eq!(shard.candidates, (262_144usize / 20).div_ceil(3));
        assert_eq!((shard.hidden, shard.reduced, shard.batch), (512, 128, 1));
        assert_eq!(job().shard(1), job());
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
        let seq = sys.run_sharded(&j, Scheme::Enmc, &SimConfig::sequential());
        assert_eq!(seq.workers, 1);
        assert_eq!(seq.shards, 64);
        for threads in [2usize, 4] {
            let par = sys.run_sharded(&j, Scheme::Enmc, &SimConfig::with_threads(threads));
            assert_eq!(par.workers, threads);
            assert_eq!(seq.result, par.result, "{threads} threads diverge");
        }
    }

    #[test]
    fn sharded_run_covers_the_whole_system() {
        let sys = SystemModel::table3();
        // Neither axis divides by any deployment's unit count, so the
        // ranks run different slices.
        let j =
            ClassificationJob { categories: 32_771, hidden: 128, reduced: 32, batch: 1, candidates: 517 };
        for scheme in simulated_schemes() {
            let sharded = sys.run_sharded(&j, scheme, &SimConfig::with_threads(4));
            assert_eq!(sys.run(&j, scheme), sharded.result, "{scheme:?}");
            let d = sys.deployment(scheme).expect("simulated");
            let jobs = j.rank_jobs(d.units);
            assert!(jobs.iter().any(|r| *r != jobs[0]), "{scheme:?} slices must differ");
            let per_rank: Vec<UnitReport> =
                jobs.iter().map(|r| RankUnit::new(d.params).simulate(r)).collect();
            let merged = sharded.result.rank_report.expect("simulated");
            // Every rank's screening traffic, each counted once.
            assert_eq!(merged.screen_bytes, per_rank.iter().map(|r| r.screen_bytes).sum::<u64>());
            assert_eq!(sharded.shard_dram, per_rank.iter().map(|r| r.dram).collect::<Vec<_>>());
            // Latency is the straggler's (the first on a tie), and its
            // phase boundaries tile its cycles.
            let straggler = per_rank.iter().rev().max_by_key(|r| r.dram_cycles).expect("ranks");
            let phases = |r: &UnitReport| (r.screen_done_cycle, r.exec_done_cycle, r.dram_cycles);
            assert_eq!(phases(&merged), phases(straggler), "{scheme:?}");
            assert_eq!(sharded.result.ns, straggler.ns, "{scheme:?}");
            assert!(merged.screen_done_cycle <= merged.exec_done_cycle);
            assert!(merged.exec_done_cycle <= merged.dram_cycles);
        }
    }

    #[test]
    fn sharded_cpu_schemes_fall_back_to_analytic() {
        let sys = SystemModel::table3();
        let j = small_job();
        let run = sys.run_sharded(&j, Scheme::CpuFull, &SimConfig::with_threads(4));
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
    fn enmc_advantage_grows_with_categories() {
        // Fig. 15: ENMC's edge over TensorDIMM widens on larger synthetic
        // datasets because it streams without buffering intermediates.
        // The host front end and classification pipeline across batches
        // (Fig. 10), so the slower phase sets steady-state throughput.
        let sys = SystemModel::table3();
        let front_end_ns = sys.cpu().front_end_ns(32 * 512 * 512, 1); // XMLCNN front end
        let steady = |j: &ClassificationJob, scheme| front_end_ns.max(sys.run(j, scheme).ns);
        let mut advantages = Vec::new();
        for l in [262_144usize, 2_097_152] {
            let j = ClassificationJob {
                categories: l,
                hidden: 512,
                reduced: 128,
                batch: 1,
                candidates: l / 128,
            };
            let td = steady(&j, Scheme::Baseline(BaselineKind::TensorDimm));
            advantages.push(td / steady(&j, Scheme::Enmc));
        }
        assert!(advantages[1] >= advantages[0] * 0.95, "advantage shrank: {advantages:?}");
        assert!(advantages[1] > 1.5, "{advantages:?}");
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
            .with_energy_model(EnergyModel::ddr4_2400_rank().with_refresh_multiplier(8.0));
        relaxed.total_ranks = 2;
        let cfg = SimConfig::sequential();
        let e_nom = nominal.run_sharded(&j, Scheme::Enmc, &cfg).result.energy.unwrap();
        let e_rel = relaxed.run_sharded(&j, Scheme::Enmc, &cfg).result.energy.unwrap();
        // Refresh is static energy: relaxing it must cut the summed static
        // term of the per-rank merge while leaving access and logic alone.
        assert!(e_rel.dram_static_nj < e_nom.dram_static_nj, "{e_rel:?} vs {e_nom:?}");
        assert_eq!(e_rel.dram_access_nj, e_nom.dram_access_nj);
        assert_eq!(e_rel.logic_nj, e_nom.logic_nj);
        // The SEC-DED surcharge lands in the merged access term instead.
        let mut ecc = nominal
            .clone()
            .with_energy_model(EnergyModel { ecc: true, ..EnergyModel::ddr4_2400_rank() });
        ecc.total_ranks = 2;
        let e_ecc = ecc.run_sharded(&j, Scheme::Enmc, &cfg).result.energy.unwrap();
        assert!(e_ecc.dram_access_nj > e_nom.dram_access_nj);
        assert_eq!(e_ecc.dram_static_nj, e_nom.dram_static_nj);
    }

    #[test]
    fn tracing_records_rank_zero_and_changes_no_result_field() {
        let sys = SystemModel::table3();
        let j =
            ClassificationJob { categories: 32_771, hidden: 128, reduced: 32, batch: 1, candidates: 257 };
        let cfg = SimConfig::with_threads(4);
        let mut tb = TraceBuffer::unbounded();
        let traced = sys.run_traced(&j, Scheme::Enmc, &cfg, Some(&mut tb));
        let plain = sys.run_sharded(&j, Scheme::Enmc, &cfg);
        assert_eq!(traced.result, plain.result);
        assert_eq!(traced.shard_dram, plain.shard_dram);
        assert_eq!((traced.workers, traced.shards), (plain.workers, plain.shards));
        // The trace is rank 0's run on its own.
        let mut want = TraceBuffer::unbounded();
        let rank0 = &j.rank_jobs(sys.total_ranks)[0];
        RankUnit::new(sys.enmc_unit_params()).simulate_traced(rank0, Some(&mut want), false);
        assert!(!want.is_empty(), "ENMC runs must emit trace events");
        assert_eq!(tb.drain(), want.drain());
        // Analytic CPU schemes have nothing to trace.
        let mut cpu_tb = TraceBuffer::unbounded();
        sys.run_traced(&j, Scheme::CpuFull, &cfg, Some(&mut cpu_tb));
        assert!(cpu_tb.is_empty());
    }

    #[test]
    fn default_memory_preset_is_bit_exact_with_table3() {
        let sys = SystemModel::table3();
        let explicit = SystemModel::table3().with_memory(MemTech::Ddr4_2666);
        let j = small_job();
        assert_eq!(sys.memory().tech, MemTech::Ddr4_2666);
        assert_eq!(sys.run(&j, Scheme::Enmc), explicit.run(&j, Scheme::Enmc));
        // Every unit runs on Table 3's DDR4 rank at its 1200 MHz bus clock.
        let ddr4 = enmc_dram::DramConfig::enmc_single_rank();
        assert_eq!(sys.enmc_unit_params(), UnitParams::enmc_on(sys.enmc_config(), ddr4, 1200));
        for kind in BaselineKind::figure13().into_iter().chain([BaselineKind::TensorDimmLarge]) {
            let deployed = sys.deployment(Scheme::Baseline(kind)).expect("simulated");
            assert_eq!(deployed.params, UnitParams::nmp_on(&kind.config(), ddr4, 1200), "{kind:?}");
        }
    }

    /// ENMC and the three Fig. 13 baselines.
    fn simulated_schemes() -> impl Iterator<Item = Scheme> {
        std::iter::once(Scheme::Enmc).chain(BaselineKind::figure13().map(Scheme::Baseline))
    }

    #[test]
    fn memory_presets_change_results_but_stay_worker_invariant() {
        let j = small_job();
        for scheme in simulated_schemes() {
            let base = SystemModel::table3().run(&j, scheme);
            for tech in [MemTech::Ddr5_4800, MemTech::Lpddr4_3200, MemTech::Hbm2] {
                let sys = SystemModel::table3().with_memory(tech);
                let r = sys.run(&j, scheme);
                assert_ne!(r.ns, base.ns, "{scheme:?} on {tech} must differ from the baseline");
                if tech == MemTech::Hbm2 {
                    // HBM2's 1 ns clock, not DDR4's 0.833 ns.
                    let cycles = r.rank_report.expect("simulated").dram_cycles;
                    assert_eq!(r.ns, cycles as f64, "{scheme:?} on {tech}");
                }
                let seq = sys.run_sharded(&j, scheme, &SimConfig::sequential());
                let par = sys.run_sharded(&j, scheme, &SimConfig::with_threads(4));
                assert_eq!(seq.result, par.result, "{scheme:?} on {tech} diverges across workers");
            }
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
        for scheme in simulated_schemes() {
            for tech in MemTech::ALL {
                let sys = SystemModel::table3().with_memory(tech);
                let r = sys.run_sharded(&j, scheme, &SimConfig::sequential().with_protocol_check());
                let report = r.result.rank_report.expect("simulated");
                assert_eq!(report.protocol_violations, 0, "{scheme:?} on {tech}");
            }
        }
    }

    #[test]
    fn table4_totals_read_the_synthesis_model_bit_exactly() {
        let totals = [
            BaselineKind::Nda,
            BaselineKind::Chameleon,
            BaselineKind::TensorDimm,
            BaselineKind::TensorDimmLarge,
        ]
        .map(baseline_total_mw);
        assert_eq!(totals, [293.6, 249.0, 303.5, 303.5 * 2.5]);
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
