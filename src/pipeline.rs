//! High-level end-to-end pipeline: synthesize → distill → screen →
//! simulate.
//!
//! This is the programmer-facing API of Fig. 9(a): build an `ENMC`-backed
//! classifier once, then classify queries and/or ask for hardware
//! performance projections. The heavy lifting lives in the sub-crates;
//! this module wires them together the way the paper's evaluation does.

use enmc_arch::baseline::BaselineKind;
use enmc_arch::system::{ClassificationJob, Scheme, SchemeResult, ShardedRun, SystemModel, CHANNELS};
use enmc_perf::CostAttribution;
use enmc_model::quality::{QualityAccumulator, QualityReport};
use enmc_par::SimConfig;
use enmc_obs::report::{Attribution, RunReport};
use enmc_obs::MetricsRegistry;
use enmc_model::synth::{SynthesisConfig, SyntheticClassifier};
use enmc_screen::infer::{ApproxClassifier, SelectionPolicy};
use enmc_screen::screener::{Screener, ScreenerConfig};
use enmc_screen::train::fit_least_squares;
use enmc_tensor::quant::Precision;

/// Fixed shard count for the quality-evaluation query stream. The
/// decomposition depends only on this constant (never on the worker
/// count), so sequential and parallel evaluations produce bit-identical
/// reports.
pub const QUALITY_SHARDS: usize = 8;

/// Configuration for a complete pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Categories to materialize for the algorithm-level evaluation.
    pub categories: usize,
    /// Hidden dimension.
    pub hidden: usize,
    /// Screening parameter-reduction scale (paper default 0.25).
    pub scale: f64,
    /// Screening precision (paper default INT4).
    pub precision: Precision,
    /// Candidates computed exactly per query.
    pub candidates: usize,
    /// Queries used to distill the screener.
    pub train_queries: usize,
    /// RNG seed for everything.
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            categories: 4000,
            hidden: 128,
            scale: 0.25,
            precision: Precision::Int4,
            candidates: 80,
            train_queries: 128,
            seed: 0xe2c,
        }
    }
}

/// A built pipeline: synthetic workload + trained approximate classifier +
/// hardware models.
#[derive(Debug)]
pub struct Pipeline {
    synth: SyntheticClassifier,
    classifier: ApproxClassifier,
    system: SystemModel,
    config: PipelineConfig,
}

impl Pipeline {
    /// Synthesizes the workload, distills the screening module (closed-form
    /// least squares) and assembles the approximate classifier.
    ///
    /// # Errors
    ///
    /// Returns a description when the configuration is degenerate (zero
    /// dimensions, more clusters than categories, …).
    pub fn build(config: &PipelineConfig) -> Result<Self, String> {
        let synth_cfg = SynthesisConfig {
            categories: config.categories,
            hidden: config.hidden,
            clusters: 32.min(config.categories),
            row_noise: 0.4,
            zipf_exponent: 1.0,
            bias_scale: 1.0,
            query_signal: 2.2,
            seed: config.seed,
        };
        let synth = SyntheticClassifier::generate(&synth_cfg)?;
        let screener_cfg = ScreenerConfig {
            scale: config.scale,
            precision: config.precision,
            per_row_scales: false, seed: config.seed ^ 0xabcd,
        };
        let mut screener = Screener::new(config.categories, config.hidden, &screener_cfg)
            .map_err(|e| e.to_string())?;
        let train: Vec<_> = synth
            .sample_queries_seeded(config.train_queries, config.seed ^ 0x7ea1)
            .into_iter()
            .map(|q| q.hidden)
            .collect();
        fit_least_squares(&mut screener, synth.weights(), synth.bias(), &train, 1e-4);
        let mut classifier = ApproxClassifier::new(
            synth.weights().clone(),
            synth.bias().clone(),
            screener,
            SelectionPolicy::TopM(config.candidates),
        )
        .map_err(|e| e.to_string())?;
        // Freeze up front so classification can run through shared
        // references (and therefore across threads) later.
        classifier.freeze();
        Ok(Pipeline { synth, classifier, system: SystemModel::table3(), config: config.clone() })
    }

    /// The synthetic workload.
    pub fn synth(&self) -> &SyntheticClassifier {
        &self.synth
    }

    /// The approximate classifier (screener + full weights).
    pub fn classifier(&self) -> &ApproxClassifier {
        &self.classifier
    }

    /// The configuration this pipeline was built from.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The hardware system model projections run against.
    pub fn system(&self) -> &SystemModel {
        &self.system
    }

    /// Classifies `n` fresh queries approximately and scores them against
    /// the exact classifier (top-1 agreement, precision@10, perplexity).
    pub fn evaluate_quality(&mut self, n: usize) -> QualityReport {
        self.evaluate_quality_with(n, &SimConfig::sequential())
    }

    /// [`Pipeline::evaluate_quality`] with an explicit execution policy.
    ///
    /// The query stream is decomposed into [`QUALITY_SHARDS`] fixed shards
    /// regardless of worker count, each shard accumulated independently and
    /// merged in shard order — so the report is bit-identical for any
    /// number of workers (including sequential).
    pub fn evaluate_quality_with(&mut self, n: usize, cfg: &SimConfig) -> QualityReport {
        let policy = self.classifier.policy();
        self.evaluate_quality_policy_with(n, policy, cfg)
    }

    /// [`Pipeline::evaluate_quality_with`] under an explicit selection
    /// policy, leaving the configured one untouched.
    ///
    /// This is how a serving deployment prices its degrade ladder: one
    /// built pipeline scores every `(K, screening-level)` tier over the
    /// *same* seeded query stream, so tier-to-tier quality deltas are not
    /// confounded by sampling noise. Same determinism guarantee as
    /// [`Pipeline::evaluate_quality_with`].
    pub fn evaluate_quality_policy_with(
        &mut self,
        n: usize,
        policy: SelectionPolicy,
        cfg: &SimConfig,
    ) -> QualityReport {
        let queries = self.synth.sample_queries_seeded(n, self.config.seed ^ 0x5ca1e);
        self.classifier.freeze();
        let synth = &self.synth;
        let classifier = &self.classifier;
        let queries = &queries[..];
        let shards = enmc_par::shard_ranges(queries.len(), QUALITY_SHARDS);
        let accs = enmc_par::par_map(cfg.worker_count(), shards, |_, range| {
            let mut acc = QualityAccumulator::new(10);
            for q in &queries[range] {
                let full = synth.full_logits(&q.hidden);
                let out = classifier.classify_ref_with(&q.hidden, policy);
                acc.add(full.as_slice(), out.logits.as_slice(), q.target);
            }
            acc
        });
        let mut merged = QualityAccumulator::new(10);
        for acc in &accs {
            merged.merge(acc);
        }
        merged.finish()
    }

    /// The hardware-level job this pipeline's shape corresponds to.
    pub fn job(&self, batch: usize) -> ClassificationJob {
        ClassificationJob {
            categories: self.config.categories,
            hidden: self.config.hidden,
            reduced: self.classifier.screener().reduced_dim(),
            batch,
            candidates: self.config.candidates,
        }
    }

    /// Simulates the job on the ENMC architecture (batch 1).
    pub fn simulate_enmc(&self) -> SchemeResult {
        self.system.run(&self.job(1), Scheme::Enmc)
    }

    /// Simulates the job under any scheme.
    pub fn simulate(&self, scheme: Scheme, batch: usize) -> SchemeResult {
        self.system.run(&self.job(batch), scheme)
    }
}

/// The CLI-facing name of a scheme (matches `enmc simulate --scheme`).
pub fn scheme_label(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::CpuFull => "cpu",
        Scheme::CpuScreened => "cpu-as",
        Scheme::Baseline(BaselineKind::Nda) => "nda",
        Scheme::Baseline(BaselineKind::Chameleon) => "chameleon",
        Scheme::Baseline(BaselineKind::TensorDimm) => "tensordimm",
        Scheme::Baseline(BaselineKind::TensorDimmLarge) => "tensordimm-large",
        Scheme::Enmc => "enmc",
    }
}

/// Builds a [`RunReport`] from one scheme run.
///
/// For simulated schemes the report carries the representative rank's
/// screen / gather / activation phases — their cycle totals sum exactly to
/// the headline `sim_cycles` — plus the full `unit.*` / `dram.*` metrics
/// snapshot. `sim_wall_ns` (host time spent inside the simulator) is
/// apportioned to the simulated phases by their cycle share. Analytic CPU
/// schemes report a single zero-cycle `analytic` phase.
pub fn report_from_result(
    command: &str,
    workload: &str,
    job: &ClassificationJob,
    result: &SchemeResult,
    sim_wall_ns: f64,
) -> RunReport {
    let label = scheme_label(result.scheme);
    let mut report = RunReport::new(command, workload, label);
    report.batch = job.batch as u64;
    report.candidates = job.candidates as u64;
    report.headline_ns = result.ns;
    match &result.rank_report {
        Some(r) => {
            report.sim_cycles = r.dram_cycles;
            report.protocol_violations = r.protocol_violations;
            let ns_per_cycle =
                if r.dram_cycles == 0 { 0.0 } else { r.ns / r.dram_cycles as f64 };
            let phases = [
                ("screen", r.screen_done_cycle),
                ("gather", r.exec_done_cycle - r.screen_done_cycle),
                ("activation", r.dram_cycles - r.exec_done_cycle),
            ];
            for (name, cycles) in phases {
                let share = if r.dram_cycles == 0 {
                    0.0
                } else {
                    cycles as f64 / r.dram_cycles as f64
                };
                report.push_phase(
                    name,
                    sim_wall_ns * share,
                    cycles,
                    cycles as f64 * ns_per_cycle,
                );
            }
            let mut registry = MetricsRegistry::new();
            r.record_into(&mut registry, &[("scheme", label), ("workload", workload)]);
            report.metrics = registry.snapshot();
            report
                .notes
                .push("phases describe one representative rank-unit".to_string());
        }
        None => {
            report.push_phase("analytic", sim_wall_ns, 0, result.ns);
            report.notes.push("analytic CPU model; no cycle-level simulation".to_string());
        }
    }
    report
}

/// Builds the top-down cost attribution for a sharded run: the merged
/// rank report plus the per-shard DRAM statistics, priced with the
/// system's DRAM and logic energy models. `None` for analytic CPU
/// schemes (nothing cycle-level to attribute).
///
/// Every input is bit-identical for any worker count, so the attribution
/// (and everything derived from it — report rows, the `enmc profile`
/// tree) is too.
pub fn attribute_run(sys: &SystemModel, run: &ShardedRun) -> Option<CostAttribution> {
    let merged = run.result.rank_report.as_ref()?;
    let logic = sys.logic_energy_model(run.result.scheme)?;
    Some(enmc_perf::attribute(
        merged,
        &run.shard_dram,
        CHANNELS,
        sys.energy_model(),
        &logic,
    ))
}

/// Builds a [`RunReport`] from a sharded whole-system run.
///
/// Same phase structure as [`report_from_result`], but the rank report is
/// the straggler-merge over every simulated rank unit, and the report
/// additionally records the worker count, the observed parallel speedup
/// (summed shard wall time over region wall time), and — for simulated
/// schemes — the `attribution` section from [`attribute_run`], whose
/// leaves sum exactly to `sim_cycles` and `energy_nj`.
pub fn report_from_sharded(
    command: &str,
    workload: &str,
    job: &ClassificationJob,
    sys: &SystemModel,
    run: &ShardedRun,
) -> RunReport {
    let mut report = report_from_result(command, workload, job, &run.result, run.wall_ns);
    report.threads = run.workers as u64;
    report.speedup = run.speedup();
    if run.result.rank_report.is_some() {
        // The representative-rank note does not apply to a sharded run.
        report.notes.retain(|n| !n.contains("representative rank-unit"));
        report.notes.push(format!(
            "sharded run: {} rank shards on {} worker(s), speedup {:.2}x",
            run.shards,
            run.workers,
            run.speedup()
        ));
    }
    report.attribution = attribute_run(sys, run)
        .map(|attr| Attribution { energy_nj: attr.energy_nj(), breakdown: attr.rows() });
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_evaluate_small_pipeline() {
        let mut p = Pipeline::build(&PipelineConfig {
            categories: 1000,
            hidden: 48,
            candidates: 30,
            train_queries: 64,
            seed: 3,
            ..Default::default()
        })
        .unwrap();
        let q = p.evaluate_quality(40);
        assert!(q.top1_agreement > 0.75, "agreement {}", q.top1_agreement);
        assert!(q.perplexity_ratio() < 1.5, "ppl ratio {}", q.perplexity_ratio());
    }

    #[test]
    fn enmc_simulation_is_faster_than_cpu() {
        let p = Pipeline::build(&PipelineConfig {
            categories: 8192,
            hidden: 128,
            candidates: 128,
            train_queries: 16,
            seed: 4,
            ..Default::default()
        })
        .unwrap();
        let cpu = p.simulate(Scheme::CpuFull, 1);
        let enmc = p.simulate_enmc();
        assert!(enmc.ns < cpu.ns);
    }

    /// What `enmc simulate --threads N` reports for `p`'s job.
    fn sharded(p: &Pipeline, scheme: Scheme, cfg: &SimConfig) -> (ShardedRun, RunReport) {
        let job = p.job(1);
        let run = p.system.run_sharded(&job, scheme, cfg);
        let report = report_from_sharded("pipeline", "synthetic", &job, &p.system, &run);
        (run, report)
    }

    #[test]
    fn run_report_phases_sum_to_headline() {
        let p = Pipeline::build(&PipelineConfig {
            categories: 8192,
            hidden: 128,
            candidates: 128,
            train_queries: 16,
            seed: 4,
            ..Default::default()
        })
        .unwrap();
        let job = p.job(1);
        let result = p.simulate(Scheme::Enmc, 1);
        let report = report_from_result("pipeline", "synthetic", &job, &result, 1e6);
        assert!(report.is_consistent(), "phase cycles must sum to the headline");
        assert_eq!(report.sim_cycles, result.rank_report.as_ref().unwrap().dram_cycles);
        // screen/gather/activation.
        assert_eq!(report.phases.len(), 3);
        assert_eq!(report.scheme, "enmc");
        let back = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
        // Analytic schemes stay consistent with zero simulated cycles.
        let cpu = p.simulate(Scheme::CpuFull, 1);
        let cpu = report_from_result("pipeline", "synthetic", &job, &cpu, 1e6);
        assert!(cpu.is_consistent());
        assert_eq!(cpu.sim_cycles, 0);
        assert_eq!(cpu.scheme, "cpu");
    }

    #[test]
    fn quality_is_bit_identical_across_worker_counts() {
        let cfg = PipelineConfig {
            categories: 1000,
            hidden: 48,
            candidates: 30,
            train_queries: 32,
            seed: 9,
            ..Default::default()
        };
        let mut p = Pipeline::build(&cfg).unwrap();
        let seq = p.evaluate_quality_with(48, &SimConfig::sequential());
        for workers in [2, 4, 8] {
            let par = p.evaluate_quality_with(48, &SimConfig::with_threads(workers));
            assert_eq!(par, seq, "{workers} workers diverged");
        }
    }

    #[test]
    fn tiered_quality_degrades_monotonically_in_candidates() {
        let mut p = Pipeline::build(&PipelineConfig {
            categories: 1000,
            hidden: 48,
            candidates: 40,
            train_queries: 64,
            seed: 3,
            ..Default::default()
        })
        .unwrap();
        let cfg = SimConfig::sequential();
        let full = p.evaluate_quality_policy_with(48, SelectionPolicy::TopM(40), &cfg);
        let degraded = p.evaluate_quality_policy_with(48, SelectionPolicy::TopM(2), &cfg);
        // The explicit-policy path at the configured K matches the default.
        assert_eq!(full, p.evaluate_quality_with(48, &cfg));
        assert!(degraded.top1_agreement <= full.top1_agreement);
        assert!(degraded.precision_at_k < full.precision_at_k);
        // The configured policy survives the tier sweep.
        assert_eq!(p.classifier().policy(), SelectionPolicy::TopM(40));
    }

    #[test]
    fn sharded_report_records_threads_and_speedup() {
        let p = Pipeline::build(&PipelineConfig {
            categories: 4096,
            hidden: 64,
            candidates: 64,
            train_queries: 16,
            seed: 6,
            ..Default::default()
        })
        .unwrap();
        let (run, report) = sharded(&p, Scheme::Enmc, &SimConfig::with_threads(2));
        assert!(report.is_consistent(), "phase cycles must sum to the headline");
        assert_eq!(report.threads, 2);
        assert!(report.speedup > 0.0);
        assert!(report.notes.iter().any(|n| n.contains("sharded run")));
        assert!(!report.notes.iter().any(|n| n.contains("representative")));
        // Bit-identical to the sequential sharded run.
        let (seq, seq_report) = sharded(&p, Scheme::Enmc, &SimConfig::sequential());
        assert_eq!(run.result, seq.result);
        assert_eq!(seq_report.threads, 1);
        // Analytic schemes still produce a consistent report.
        let (_, cpu) = sharded(&p, Scheme::CpuFull, &SimConfig::with_threads(2));
        assert!(cpu.is_consistent());
        assert_eq!(cpu.sim_cycles, 0);
    }

    #[test]
    fn sharded_report_attribution_leaves_sum_to_totals() {
        let p = Pipeline::build(&PipelineConfig {
            categories: 4096,
            hidden: 64,
            candidates: 64,
            train_queries: 16,
            seed: 6,
            ..Default::default()
        })
        .unwrap();
        let (_, report) = sharded(&p, Scheme::Enmc, &SimConfig::with_threads(3));
        let attr = report.attribution.as_ref().expect("a simulated scheme attributes");
        assert!(!attr.breakdown.is_empty());
        let cyc: u64 = attr
            .breakdown
            .iter()
            .filter(|r| r.path.starts_with("cycles/"))
            .map(|r| r.cycles)
            .sum();
        assert_eq!(cyc, report.sim_cycles);
        let nj: f64 = attr
            .breakdown
            .iter()
            .filter(|r| r.path.starts_with("energy/"))
            .map(|r| r.nj)
            .sum();
        assert_eq!(nj.to_bits(), attr.energy_nj.to_bits(), "leaves must sum exactly");
        // Bit-identical attribution regardless of worker count.
        let (_, seq) = sharded(&p, Scheme::Enmc, &SimConfig::sequential());
        assert_eq!(seq.attribution, report.attribution);
        // Analytic CPU schemes carry no attribution.
        let (_, cpu) = sharded(&p, Scheme::CpuFull, &SimConfig::with_threads(2));
        assert!(cpu.attribution.is_none());
    }

    #[test]
    fn build_rejects_degenerate_config() {
        let bad = PipelineConfig { categories: 0, ..Default::default() };
        assert!(Pipeline::build(&bad).is_err());
    }
}
