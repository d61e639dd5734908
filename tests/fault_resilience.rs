//! End-to-end resilience-subsystem tests over the public `fault-sweep`
//! surface: the nominal channel is bit-identical to the fault-free path
//! at any worker count, injected bit errors measurably degrade quality,
//! SEC-DED recovers it, the quality-vs-refresh-energy frontier is
//! monotone nonincreasing in both axes, and the energy join's one run per
//! sweep prices every point exactly as one run per point would.

use enmc::arch::physical::PhysicalModel;
use enmc::arch::system::{ClassificationJob, Scheme, SystemModel};
use enmc::cli::FaultShape;
use enmc::dram::energy::{EnergyModel, ECC_NJ_PER_BURST};
use enmc::fault::{run_resilience_sweep, FaultModel, FaultSweepSpec, ECC_NS_PER_BURST};
use enmc::mem::MemTech;
use enmc::par::SimConfig;
use enmc::pipeline::{Pipeline, PipelineConfig};
use enmc::resilience::{render_text, run_fault_sweep, FaultSweepArgs};

/// Small-but-representative sweep arguments; tests override what they
/// exercise. 24 queries keeps each sweep point cheap while still giving
/// degradation percentages a visible resolution (1/24 ≈ 4.2%).
fn base_args() -> FaultSweepArgs {
    FaultSweepArgs {
        shape: FaultShape::LstmWikitext2,
        ber: 0.0,
        multipliers: vec![1.0],
        weak_columns: 0.0,
        ecc: false,
        queries: 24,
        seed: 7,
        workers: 1,
        memory: MemTech::Ddr4_2666,
    }
}

#[test]
fn zero_ber_sweep_is_the_fault_free_path_and_worker_invariant() {
    let mut args = base_args();
    let (points, frontier, report) = run_fault_sweep(&args, None).expect("nominal sweep runs");

    // The nominal channel is the identity: nothing flips, nothing is
    // corrupted, nothing needs masking or correcting.
    assert_eq!(points.len(), 1);
    let p = &points[0];
    assert_eq!(p.screener_rows_corrupted, 0);
    assert_eq!(p.weights_rows_corrupted, 0);
    for tier in &p.tiers {
        assert_eq!(tier.fault_top1_flips, 0, "no faults, no flips");
        assert_eq!(tier.corrupted_rows_read, 0);
        assert_eq!(tier.corrupted_rows_masked, 0);
    }
    assert_eq!(p.quality_degradation_pct(), 0.0);
    let fault = report.fault.as_ref().expect("fault-sweep writes its fault section");
    assert_eq!(fault.quality_degradation_pct, 0.0);
    assert_eq!(fault.ecc_corrected, 0);
    assert_eq!(fault.ecc_uncorrected, 0);
    assert_eq!(report.schema_version, 11);
    // No host timing leaks into the report (that would break the
    // cross-worker byte-identity below).
    assert_eq!(report.threads, 0);

    // Byte-identical at a different worker count: same points, same
    // rendered tables, same serialized report.
    args.workers = 4;
    let (points4, frontier4, report4) = run_fault_sweep(&args, None).expect("parallel sweep runs");
    assert_eq!(points, points4);
    assert_eq!(render_text(&points, &frontier), render_text(&points4, &frontier4));
    assert_eq!(report.to_json(), report4.to_json());
}

#[test]
fn unprotected_bit_errors_degrade_quality_and_secded_recovers_it() {
    let mut args = base_args();
    args.ber = 1e-4;
    let (points, _, report) = run_fault_sweep(&args, None).expect("faulty sweep runs");
    let unprotected = points[0].quality_degradation_pct();
    assert!(
        unprotected > 0.0,
        "1e-4 BER on unprotected FP32 weights must flip some top-1 decisions"
    );
    let fault = report.fault.expect("fault-sweep writes its fault section");
    assert_eq!(fault.quality_degradation_pct, unprotected);
    assert_eq!(fault.ber, 1e-4);

    args.ecc = true;
    let (points_ecc, _, report_ecc) = run_fault_sweep(&args, None).expect("ECC sweep runs");
    let protected = points_ecc[0].quality_degradation_pct();
    assert!(
        protected < unprotected,
        "SEC-DED must recover quality: {protected}% vs {unprotected}% unprotected"
    );
    let corrected = report_ecc.fault.map(|f| f.ecc_corrected);
    assert!(corrected > Some(0), "single-bit errors must be corrected");
}

#[test]
fn retention_sweep_frontier_is_monotone_in_both_axes() {
    let mut args = base_args();
    args.multipliers = vec![1.0, 8.0, 32.0, 64.0];
    let (points, frontier, report) = run_fault_sweep(&args, None).expect("retention sweep runs");
    assert_eq!(frontier.len(), 4);
    for w in frontier.windows(2) {
        assert!(
            w[1].top1_agreement <= w[0].top1_agreement,
            "frontier quality must be nonincreasing"
        );
        assert!(
            w[1].refresh_energy_nj <= w[0].refresh_energy_nj,
            "relaxing refresh must not cost refresh energy"
        );
    }
    // The sweep spans enough refresh windows that relaxing the schedule
    // saves real energy, and the retention tail costs real quality.
    assert!(frontier[0].refresh_energy_nj > 0.0);
    assert!(frontier[3].refresh_energy_nj < frontier[0].refresh_energy_nj);
    let worst = points
        .iter()
        .map(|p| p.quality_degradation_pct())
        .fold(0.0f64, f64::max);
    assert!(worst > 0.0, "64x refresh must hit retention failures");
    let fault = report.fault.expect("fault-sweep writes its fault section");
    assert_eq!(fault.refresh_multiplier, 64.0);
    assert_eq!(fault.quality_degradation_pct, worst);
}

/// The energy join as it was priced before the sweep ran the system once:
/// the whole system re-simulated under the point's energy model, then
/// `[refresh, total, ecc energy (nJ), ecc latency (ns)]` read off that run.
fn energy_join_of_one_point(
    system: &SystemModel,
    job: &ClassificationJob,
    multiplier: f64,
    ecc: bool,
    workers: usize,
) -> [f64; 4] {
    let dram =
        EnergyModel { ecc, ..*system.energy_model() }.with_refresh_multiplier(multiplier);
    let sys = system.clone().with_energy_model(dram);
    let run = sys.run_sharded(job, Scheme::Enmc, &SimConfig::with_threads(workers));
    let report = run.result.rank_report.expect("ENMC runs are simulated");
    let energy = run.result.energy.expect("ENMC runs carry energy");
    let refresh = dram.refresh_energy_nj(report.dram.refreshes);
    let mut ecc_nj =
        if ecc { (report.dram.reads + report.dram.writes) as f64 * ECC_NJ_PER_BURST } else { 0.0 };
    let max_reads = run.shard_dram.iter().map(|s| s.reads).max().unwrap_or(0);
    let ecc_ns = if ecc { max_reads as f64 * ECC_NS_PER_BURST } else { 0.0 };
    let ecc_logic_nj = if ecc {
        let logic = system.logic_energy_model(Scheme::Enmc).expect("ENMC draws logic power");
        let rank_cycles: u64 = run.shard_dram.iter().map(|s| s.total_cycles).sum();
        let ecc_mw = PhysicalModel::tsmc28().secded().power_mw;
        ecc_mw * rank_cycles as f64 * logic.tck_ps * 1e-12 * 1e-3 * 1e9
    } else {
        0.0
    };
    ecc_nj += ecc_logic_nj;
    [refresh, energy.total_nj() + ecc_logic_nj, ecc_nj, ecc_ns]
}

#[test]
fn one_run_per_sweep_prices_every_point_as_a_run_per_point_would() {
    let pipeline = Pipeline::build(&PipelineConfig {
        categories: 256,
        hidden: 32,
        candidates: 16,
        train_queries: 32,
        seed: 7,
        ..Default::default()
    })
    .expect("valid configuration");
    // A few thousand categories split unevenly over the ranks, long
    // enough per rank to issue refreshes, on a preset whose energy model
    // is not the DDR4 default.
    let system = SystemModel::table3().with_memory(MemTech::Lpddr4_3200).with_total_ranks(8);
    let (categories, candidates) = (3001, 150);
    let job = ClassificationJob { categories, hidden: 512, reduced: 128, batch: 4, candidates };
    let multipliers = [1.0, 8.0, 32.0];
    for ecc in [false, true] {
        for workers in [1, 4] {
            let spec = FaultSweepSpec {
                model: FaultModel::nominal(7),
                multipliers: multipliers.to_vec(),
                ecc,
                queries: 2,
                query_seed: 7,
                tiers: vec![16],
            };
            let points = run_resilience_sweep(
                pipeline.synth(),
                pipeline.classifier(),
                &system,
                &job,
                &spec,
                workers,
                None,
                None,
            )
            .expect("frozen per-tensor screeners inject cleanly");
            for (p, &m) in points.iter().zip(&multipliers) {
                let one_run =
                    [p.refresh_energy_nj, p.total_energy_nj, p.ecc_energy_nj, p.ecc_latency_ns];
                let per_point = energy_join_of_one_point(&system, &job, m, ecc, workers);
                assert_eq!(
                    one_run.map(f64::to_bits),
                    per_point.map(f64::to_bits),
                    "ecc {ecc}, {workers} workers, multiplier {m}: {one_run:?} vs {per_point:?}"
                );
            }
            assert!(points[0].refresh_energy_nj > points[2].refresh_energy_nj, "{points:?}");
            assert!(points[2].refresh_energy_nj > 0.0, "the job must issue refreshes");
            assert_eq!(points[0].ecc_energy_nj > 0.0, ecc);
        }
    }
}
