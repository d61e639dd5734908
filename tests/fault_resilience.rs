//! End-to-end resilience-subsystem tests over the public `fault-sweep`
//! surface: the nominal channel is bit-identical to the fault-free path
//! at any worker count, injected bit errors measurably degrade quality,
//! SEC-DED recovers it, and the quality-vs-refresh-energy frontier is
//! monotone nonincreasing in both axes.

use enmc::cli::FaultShape;
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
        backend: enmc::surrogate::CostBackend::CycleAccurate,
        memory: enmc::mem::MemTech::Ddr4_2666,
        coeffs_in: None,
        coeffs_out: None,
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
