//! The resilience pipeline: quality-vs-refresh-energy sweeps.
//!
//! For each refresh-interval multiplier the sweep corrupts both weight
//! surfaces once, re-screens a fixed query set against the faulted
//! pipeline, and measures quality with [`QualityAccumulator`] — sharded
//! over a *fixed* shard count and merged in shard order, so the result is
//! bit-identical at any worker count (the same discipline as the rest of
//! the workspace).
//!
//! Per candidate tier the sweep also attributes every fault-induced top-1
//! flip to one of two causes:
//!
//! * **candidate drop** — the clean pipeline's winner no longer survives
//!   screening (the corrupted screener pruned it);
//! * **logit spike** — the winner was still a candidate but some other
//!   logit (a corrupted exact row or an inflated approximate score)
//!   overtook it.
//!
//! And it counts how many corrupted exact-path rows each tier actually
//! *read*: corruption in a row that screening prunes for every query is
//! masked — the DRAM error physically exists but can never reach a logit.
//! This is the screening-masks-errors effect the sweep quantifies.
//!
//! [`run_resilience_sweep`] additionally joins each point with the
//! relaxed-refresh DRAM energy of the full rank-parallel system, giving
//! the quality-vs-energy Pareto data of the EDEN-style trade-off. The
//! system runs once per sweep: a refresh multiplier changes what the
//! simulated DRAM activity costs, not the activity, so every point
//! prices the same run.

use crate::ecc::{ECC_MW, ECC_NS_PER_BURST};
use crate::inject::{corrupt_matrix, corrupt_screener, InjectionStats, WEIGHTS_BASE_ADDR};
use crate::model::FaultModel;
use enmc_arch::energy::SystemEnergy;
use enmc_arch::system::{ClassificationJob, Scheme, SystemModel};
use enmc_dram::energy::{EnergyModel, ECC_NJ_PER_BURST};
use enmc_model::quality::{QualityAccumulator, QualityReport};
use enmc_model::synth::SyntheticClassifier;
use enmc_obs::trace::{TraceBuffer, TraceEvent};
use enmc_obs::MetricsRegistry;
use enmc_par::SimConfig;
use enmc_screen::{ApproxClassifier, SelectionPolicy};
use enmc_tensor::{top_k_indices, TensorError};

/// Fixed shard count for quality evaluation — like the pipeline's
/// `QUALITY_SHARDS`, decoupled from the worker count so results are
/// worker-count invariant.
pub const FAULT_SHARDS: usize = 8;

/// Precision@k measured by the quality accumulators (matches the
/// pipeline's quality evaluation).
const PRECISION_AT: usize = 10;

/// One resilience sweep: which channel to model and where to sample it.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSweepSpec {
    /// Base error model; `refresh_multiplier` is overridden per point.
    pub model: FaultModel,
    /// Refresh-interval multipliers to sweep (each ≥ 1).
    pub multipliers: Vec<f64>,
    /// Protect both weight surfaces with SEC-DED (72,64).
    pub ecc: bool,
    /// Queries evaluated per point.
    pub queries: usize,
    /// Seed for the query sample.
    pub query_seed: u64,
    /// Candidate counts to break the analysis down by (first entry is the
    /// headline tier).
    pub tiers: Vec<usize>,
}

/// Per-tier quality and attribution at one sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct TierOutcome {
    /// Candidate count (top-M) of this tier.
    pub candidates: usize,
    /// Quality of the faulted pipeline vs the clean *full* classifier.
    pub quality: QualityReport,
    /// Queries whose top-1 differs between the clean and the faulted
    /// approximate pipeline.
    pub fault_top1_flips: u64,
    /// ... because the clean winner no longer survived screening.
    pub flips_candidate_drop: u64,
    /// ... because another (corrupted or inflated) logit overtook it.
    pub flips_logit_spike: u64,
    /// Corrupted exact-path rows read by at least one query at this tier.
    pub corrupted_rows_read: usize,
    /// Corrupted exact-path rows no query ever read — errors masked by
    /// screening.
    pub corrupted_rows_masked: usize,
}

/// One point of the sweep: injection accounting, per-tier quality, and
/// (when run through [`run_resilience_sweep`]) the system energy at this
/// refresh setting.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Refresh-interval multiplier of this point.
    pub refresh_multiplier: f64,
    /// Uniform BER of the channel (constant across points).
    pub ber: f64,
    /// Whether SEC-DED protected the surfaces.
    pub ecc: bool,
    /// Flip accounting on the screener's packed INT stream.
    pub screener: InjectionStats,
    /// Flip accounting on the exact-path FP32 image.
    pub weights: InjectionStats,
    /// Screener rows holding at least one corrupted code.
    pub screener_rows_corrupted: usize,
    /// Exact-path rows holding at least one corrupted bit.
    pub weights_rows_corrupted: usize,
    /// Per-tier breakdown (same order as the spec's `tiers`).
    pub tiers: Vec<TierOutcome>,
    /// Refresh energy of the whole system at this multiplier, nJ
    /// (0 until the energy join runs).
    pub refresh_energy_nj: f64,
    /// Total system energy (DRAM + logic) at this multiplier, nJ.
    pub total_energy_nj: f64,
    /// Energy paid for ECC decodes, nJ.
    pub ecc_energy_nj: f64,
    /// Aggregate decode latency added to the run's read bursts, ns.
    pub ecc_latency_ns: f64,
}

impl SweepPoint {
    /// The headline tier (first in the spec).
    pub fn primary(&self) -> &TierOutcome {
        &self.tiers[0]
    }

    /// Headline fault-induced quality degradation: the fraction of
    /// queries whose top-1 flipped versus the *clean approximate*
    /// pipeline, in percent. Exactly 0 under a nominal channel — the
    /// screener's own approximation loss (quality vs the full
    /// classifier) is deliberately excluded, so this field isolates what
    /// the DRAM faults cost.
    pub fn quality_degradation_pct(&self) -> f64 {
        let t = self.primary();
        100.0 * t.fault_top1_flips as f64 / t.quality.queries.max(1) as f64
    }

    /// Total ECC outcomes across both surfaces.
    pub fn ecc_corrected(&self) -> u64 {
        self.screener.ecc.corrected + self.weights.ecc.corrected
    }

    /// Total detected-uncorrectable words across both surfaces.
    pub fn ecc_uncorrected(&self) -> u64 {
        self.screener.ecc.detected_uncorrected + self.weights.ecc.detected_uncorrected
    }
}

/// Per-shard partial result of one tier at one point.
struct TierShard {
    acc: QualityAccumulator,
    flips: u64,
    drops: u64,
    spikes: u64,
    read_rows: Vec<bool>,
}

/// Runs the quality half of the sweep (no energy join): one [`SweepPoint`]
/// per multiplier, energy fields left at zero.
///
/// Per point, each query's full logits, clean screen and faulted screen
/// are computed once and shared by every tier; each tier then finishes
/// both screens through [`ApproxClassifier::mix_candidates`], the steps
/// [`ApproxClassifier::classify_ref_with`] runs after screening, so a
/// nominal channel is bit-identical to the clean classifier.
///
/// # Errors
///
/// Propagates injection errors (unfrozen or per-row-scale screeners).
///
/// # Panics
///
/// Panics if the spec has no multipliers, no tiers, or zero queries.
pub fn run_sweep(
    synth: &SyntheticClassifier,
    classifier: &ApproxClassifier,
    spec: &FaultSweepSpec,
    workers: usize,
) -> Result<Vec<SweepPoint>, TensorError> {
    assert!(!spec.multipliers.is_empty(), "sweep needs at least one multiplier");
    assert!(!spec.tiers.is_empty(), "sweep needs at least one candidate tier");
    assert!(spec.queries > 0, "sweep needs at least one query");
    let queries = synth.sample_queries_seeded(spec.queries, spec.query_seed);
    let policies: Vec<SelectionPolicy> =
        spec.tiers.iter().map(|&tier| SelectionPolicy::TopM(tier)).collect();
    let (weights, bias) = (classifier.weights(), classifier.bias());
    let mut points = Vec::with_capacity(spec.multipliers.len());
    for &m in &spec.multipliers {
        let model = spec.model.with_refresh_multiplier(m);
        let (faulted_screener, screener_stats, screener_rows) =
            corrupt_screener(classifier.screener(), &model, spec.ecc)?;
        let (faulted_weights, weights_stats, weights_rows) =
            corrupt_matrix(weights, WEIGHTS_BASE_ADDR, &model, spec.ecc);

        let ranges = enmc_par::shard_ranges(queries.len(), FAULT_SHARDS);
        let shards: Vec<Vec<TierShard>> = enmc_par::par_map(workers, ranges, |_, range| {
            let mut out: Vec<TierShard> = policies
                .iter()
                .map(|_| TierShard {
                    acc: QualityAccumulator::new(PRECISION_AT),
                    flips: 0,
                    drops: 0,
                    spikes: 0,
                    read_rows: vec![false; classifier.categories()],
                })
                .collect();
            for q in &queries[range] {
                let h = &q.hidden;
                let full = synth.full_logits(h);
                let clean_screen = classifier.screener().screen_ref(h);
                let faulted_screen = faulted_screener.screen_ref(h);
                for (t, &policy) in out.iter_mut().zip(&policies) {
                    let (clean, _) = ApproxClassifier::mix_candidates(
                        clean_screen.clone(),
                        weights,
                        bias,
                        h,
                        policy,
                    );
                    let (logits, candidates) = ApproxClassifier::mix_candidates(
                        faulted_screen.clone(),
                        &faulted_weights,
                        bias,
                        h,
                        policy,
                    );
                    for &idx in &candidates {
                        t.read_rows[idx] = true;
                    }
                    t.acc.add(full.as_slice(), logits.as_slice(), q.target);
                    let clean_top1 = top_k_indices(clean.as_slice(), 1)[0];
                    let fault_top1 = top_k_indices(logits.as_slice(), 1)[0];
                    if fault_top1 != clean_top1 {
                        t.flips += 1;
                        if candidates.contains(&clean_top1) {
                            t.spikes += 1;
                        } else {
                            t.drops += 1;
                        }
                    }
                }
            }
            out
        });

        let corrupted_total = weights_rows.iter().filter(|&&c| c).count();
        let tiers = spec
            .tiers
            .iter()
            .enumerate()
            .map(|(t, &tier)| {
                // Merge in shard order: worker-count invariant.
                let mut acc = QualityAccumulator::new(PRECISION_AT);
                let (mut flips, mut drops, mut spikes) = (0u64, 0u64, 0u64);
                let mut read_rows = vec![false; classifier.categories()];
                for s in shards.iter().map(|shard| &shard[t]) {
                    acc.merge(&s.acc);
                    flips += s.flips;
                    drops += s.drops;
                    spikes += s.spikes;
                    for (dst, &src) in read_rows.iter_mut().zip(&s.read_rows) {
                        *dst |= src;
                    }
                }
                let corrupted_rows_read = weights_rows
                    .iter()
                    .zip(&read_rows)
                    .filter(|&(&corrupt, &read)| corrupt && read)
                    .count();
                TierOutcome {
                    candidates: tier,
                    quality: acc.finish(),
                    fault_top1_flips: flips,
                    flips_candidate_drop: drops,
                    flips_logit_spike: spikes,
                    corrupted_rows_read,
                    corrupted_rows_masked: corrupted_total - corrupted_rows_read,
                }
            })
            .collect();
        points.push(SweepPoint {
            refresh_multiplier: m,
            ber: spec.model.ber,
            ecc: spec.ecc,
            screener: screener_stats,
            weights: weights_stats,
            screener_rows_corrupted: screener_rows.iter().filter(|&&r| r).count(),
            weights_rows_corrupted: corrupted_total,
            tiers,
            refresh_energy_nj: 0.0,
            total_energy_nj: 0.0,
            ecc_energy_nj: 0.0,
            ecc_latency_ns: 0.0,
        });
    }
    Ok(points)
}

/// [`run_sweep`] joined with the system energy at each refresh setting.
/// The whole rank-parallel system runs `job` once, every rank on its own
/// slice and the slices on `workers` threads. A refresh multiplier or an
/// ECC surcharge changes what that DRAM activity costs, never the
/// activity (the controller counts the nominal REF schedule), so each
/// point prices the one run: every rank's DRAM statistics under an
/// [`EnergyModel`] with the point's refresh multiplier (plus the SEC-DED
/// surcharges when ECC is on), summed in rank order, plus the run's own
/// logic energy. Optionally records `fault.*` metrics and per-point trace
/// events.
///
/// # Errors
///
/// Propagates injection errors (unfrozen or per-row-scale screeners).
#[allow(clippy::too_many_arguments)]
pub fn run_resilience_sweep(
    synth: &SyntheticClassifier,
    classifier: &ApproxClassifier,
    system: &SystemModel,
    job: &ClassificationJob,
    spec: &FaultSweepSpec,
    workers: usize,
    registry: Option<&mut MetricsRegistry>,
    mut trace: Option<&mut TraceBuffer>,
) -> Result<Vec<SweepPoint>, TensorError> {
    let mut points = run_sweep(synth, classifier, spec, workers)?;
    let logic = system.logic_energy_model(Scheme::Enmc).expect("ENMC draws logic power");
    let run = system.run_sharded(job, Scheme::Enmc, &SimConfig::with_threads(workers));
    let report = run.result.rank_report.as_ref().expect("ENMC runs are simulated");
    let logic_nj = run.result.energy.expect("ENMC runs carry energy").logic_nj;
    let (ecc_logic_nj, ecc_energy_nj, ecc_latency_ns) = if spec.ecc {
        // Logic-side ECC power over every rank's own cycles, charged on
        // top of the scheme's Table 5 logic model.
        let rank_cycles: u64 = run.shard_dram.iter().map(|s| s.total_cycles).sum();
        let ecc_logic_nj = ECC_MW * rank_cycles as f64 * logic.tck_ps * 1e-12 * 1e-3 * 1e9;
        // The merged counters are sums over every rank.
        let bursts = report.dram.reads + report.dram.writes;
        // Ranks decode in parallel: the busiest rank sets the latency.
        let max_reads = run.shard_dram.iter().map(|s| s.reads).max().unwrap_or(0);
        (
            ecc_logic_nj,
            bursts as f64 * ECC_NJ_PER_BURST + ecc_logic_nj,
            max_reads as f64 * ECC_NS_PER_BURST,
        )
    } else {
        (0.0, 0.0, 0.0)
    };
    for point in &mut points {
        // The system's own one-rank energy model (the memory preset's
        // coefficients) under the point's refresh multiplier, with SEC-DED
        // as the sweep asks.
        let dram = EnergyModel { ecc: spec.ecc, ..*system.energy_model() }
            .with_refresh_multiplier(point.refresh_multiplier);
        let energy = SystemEnergy::of_ranks(&run.shard_dram, &dram, logic_nj);
        point.refresh_energy_nj = dram.refresh_energy_nj(report.dram.refreshes);
        point.total_energy_nj = energy.total_nj() + ecc_logic_nj;
        point.ecc_energy_nj = ecc_energy_nj;
        point.ecc_latency_ns = ecc_latency_ns;
        if let Some(tb) = trace.as_deref_mut() {
            tb.record(
                TraceEvent::instant("fault_point", "fault", 0, 0, 0)
                    .with_arg("refresh_multiplier_milli", (point.refresh_multiplier * 1e3) as u64)
                    .with_arg("raw_flips", point.screener.raw_flips + point.weights.raw_flips)
                    .with_arg(
                        "residual_flips",
                        point.screener.residual_flips + point.weights.residual_flips,
                    )
                    .with_arg("top1_flips", point.primary().fault_top1_flips),
            );
        }
    }
    if let Some(registry) = registry {
        record_metrics(&points, registry);
    }
    Ok(points)
}

/// Records sweep aggregates into the metrics registry under `fault.*`.
pub fn record_metrics(points: &[SweepPoint], registry: &mut MetricsRegistry) {
    for p in points {
        let m = format!("{}", p.refresh_multiplier);
        let labels: &[(&str, &str)] = &[("multiplier", m.as_str())];
        registry.counter_add("fault.raw_flips", labels, p.screener.raw_flips + p.weights.raw_flips);
        registry.counter_add(
            "fault.residual_flips",
            labels,
            p.screener.residual_flips + p.weights.residual_flips,
        );
        registry.counter_add("fault.ecc_corrected", labels, p.ecc_corrected());
        registry.counter_add("fault.ecc_uncorrected", labels, p.ecc_uncorrected());
        registry.counter_add("fault.top1_flips", labels, p.primary().fault_top1_flips);
        registry.gauge_set("fault.quality_degradation_pct", labels, p.quality_degradation_pct());
        registry.gauge_set("fault.refresh_energy_nj", labels, p.refresh_energy_nj);
    }
}

/// One row of the quality-vs-refresh-energy Pareto frontier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoRow {
    /// Refresh-interval multiplier.
    pub refresh_multiplier: f64,
    /// System refresh energy at that multiplier, nJ.
    pub refresh_energy_nj: f64,
    /// Best (running-minimum) headline top-1 agreement at ≤ this
    /// multiplier — monotone nonincreasing by construction.
    pub top1_agreement: f64,
}

/// Derives the Pareto frontier from raw sweep points: sorted by
/// multiplier (refresh energy nonincreasing, since the nominal REF count
/// is fixed by the workload), with quality replaced by its running
/// minimum so the curve is monotone nonincreasing even when individual
/// sample points jitter upward.
pub fn pareto_frontier(points: &[SweepPoint]) -> Vec<ParetoRow> {
    let mut sorted: Vec<&SweepPoint> = points.iter().collect();
    sorted.sort_by(|a, b| {
        a.refresh_multiplier
            .partial_cmp(&b.refresh_multiplier)
            .expect("multipliers are finite")
    });
    let mut best = f64::INFINITY;
    sorted
        .into_iter()
        .map(|p| {
            best = best.min(p.primary().quality.top1_agreement);
            ParetoRow {
                refresh_multiplier: p.refresh_multiplier,
                refresh_energy_nj: p.refresh_energy_nj,
                top1_agreement: best,
            }
        })
        .collect()
}
