//! Queueing-theory invariants of the single-node serving configuration
//! (`serve-sim`: the fleet loop on one node, one shard and one tenant):
//! conservation, FIFO dispatch, batching bounds, linger deadlines,
//! histogram consistency, and worker-count invariance — over randomized
//! arrival processes and controller configurations.

use enmc::arch::system::{ClassificationJob, SystemModel};
use enmc::fleet::{simulate_fleet, FleetConfig, FleetOutcome, TenantConfig};
use enmc::obs::MetricsRegistry;
use enmc::par::SimConfig;
use enmc::serve::tier::default_tiers;
use enmc::serve::ArrivalProcess;
use enmc::surrogate::{CostBackend, CostModel};
use proptest::prelude::*;

/// Small enough that each case's calibration pass (tiers × batch sizes
/// sharded runs) stays in the milliseconds.
fn small_job() -> ClassificationJob {
    ClassificationJob { categories: 2048, hidden: 64, reduced: 16, batch: 1, candidates: 128 }
}

/// A randomized but always-valid single-node serving scenario. Rates
/// span from idle to heavily overloaded so shedding and degradation both
/// get exercised.
fn scenario() -> impl Strategy<Value = FleetConfig> {
    let arrival = prop_oneof![
        (0.01f64..2.0).prop_map(|rate| ArrivalProcess::Poisson { rate }),
        (0.01f64..0.5, 1.0f64..20.0).prop_map(|(calm, burst)| ArrivalProcess::Burst {
            calm_rate: calm,
            burst_rate: burst,
            calm_cycles: 5_000.0,
            burst_cycles: 2_000.0,
        }),
        (0.01f64..0.5, 1.0f64..4.0).prop_map(|(trough, peak)| ArrivalProcess::Diurnal {
            trough_rate: trough,
            peak_rate: peak,
            period_cycles: 20_000,
        }),
    ];
    (
        (arrival, 8usize..40, 1usize..5, 50u64..3_000, 1usize..4),
        (200u64..20_000, 2usize..16, 4usize..32, any::<u64>()),
    )
        .prop_map(
            |((arrival, requests, batch_max, linger_cycles, lanes), (slo_cycles, dq, sq, seed))| {
                let tenant = TenantConfig {
                    name: "t0".to_string(),
                    arrival,
                    requests,
                    slo_cycles,
                    tiers: default_tiers(&small_job()),
                    degrade_queue_depth: dq,
                    upgrade_queue_depth: (dq / 4).max(1),
                    shed_queue_depth: sq.max(dq + 1),
                    seed,
                };
                FleetConfig {
                    nodes: 1,
                    shards: 1,
                    replicas: 0,
                    zipf_s: 0.0,
                    batch_max,
                    linger_cycles,
                    lanes,
                    tenants: vec![tenant],
                    seed,
                    ..Default::default()
                }
            },
        )
}

/// Runs the scenario and records its `serve.*` metrics, as `serve-sim`
/// does.
fn run(cfg: &FleetConfig, sim: &SimConfig) -> (FleetOutcome, MetricsRegistry) {
    let mut cost = CostModel::new(CostBackend::CycleAccurate, cfg.seed);
    let out = simulate_fleet(
        &SystemModel::table3(),
        &small_job(),
        cfg,
        sim,
        &mut MetricsRegistry::new(),
        &mut cost,
    )
    .expect("cycle-accurate backend cannot violate an audit");
    let mut registry = MetricsRegistry::new();
    out.record_serve_metrics(&mut registry);
    (out, registry)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every generated request is accounted for exactly once: shed at
    /// admission or completed; nothing is lost in the queue.
    #[test]
    fn requests_are_conserved(cfg in scenario()) {
        let (out, _) = run(&cfg, &SimConfig::sequential());
        let t = &out.tenants[0];
        prop_assert_eq!(t.generated, t.admitted + t.shed);
        prop_assert_eq!(t.admitted, t.completed);
        prop_assert_eq!(out.requests.len() as u64, t.generated);
        let shed = out.requests.iter().filter(|r| r.shed).count() as u64;
        let done = out.requests.iter().filter(|r| r.completion.is_some()).count() as u64;
        prop_assert_eq!(shed, t.shed);
        prop_assert_eq!(done, t.completed);
    }

    /// Batches leave the queue in arrival order and respect the size cap:
    /// dispatch times and oldest-member arrivals are both non-decreasing,
    /// and no batch exceeds `batch_max` or is empty.
    #[test]
    fn dispatch_is_fifo_and_bounded(cfg in scenario()) {
        let (out, _) = run(&cfg, &SimConfig::sequential());
        prop_assert_eq!(
            out.batches.iter().map(|b| b.size as u64).sum::<u64>(),
            out.tenants[0].completed
        );
        for pair in out.batches.windows(2) {
            prop_assert!(pair[1].start >= pair[0].start);
            prop_assert!(pair[1].oldest_arrival >= pair[0].oldest_arrival);
        }
        for b in &out.batches {
            prop_assert!(b.size >= 1 && b.size <= cfg.batch_max, "size {}", b.size);
            prop_assert!(b.lane < cfg.lanes);
            prop_assert!(b.end > b.start);
            prop_assert!(b.start >= b.oldest_arrival);
        }
    }

    /// No batch is held past its linger deadline while a lane sits idle:
    /// each dispatch happens by the later of the oldest member's linger
    /// expiry and the first moment any lane was free.
    #[test]
    fn linger_deadline_is_honored(cfg in scenario()) {
        let (out, _) = run(&cfg, &SimConfig::sequential());
        let mut lane_free = vec![0u64; cfg.lanes];
        for b in &out.batches {
            let earliest_free = lane_free.iter().copied().min().unwrap();
            let deadline = b.oldest_arrival.saturating_add(cfg.linger_cycles).max(earliest_free);
            prop_assert!(
                b.start <= deadline,
                "batch at {} held past linger deadline {} (oldest {}, lanes free {:?})",
                b.start, deadline, b.oldest_arrival, lane_free
            );
            prop_assert!(lane_free[b.lane] <= b.start, "lane {} double-booked", b.lane);
            lane_free[b.lane] = b.end;
        }
    }

    /// The latency histogram observed exactly the completed requests, and
    /// every recorded latency is consistent with its quantiles.
    #[test]
    fn histogram_matches_completions(cfg in scenario()) {
        let (out, _) = run(&cfg, &SimConfig::sequential());
        let t = &out.tenants[0];
        prop_assert_eq!(t.latency.count(), t.completed);
        if t.completed > 0 {
            prop_assert!(t.latency.p50() <= t.latency.p99());
            prop_assert!(t.latency.p99() <= t.latency.p999());
            let max_lat = out
                .requests
                .iter()
                .filter_map(|r| r.completion.map(|c| c - r.arrival))
                .max()
                .unwrap();
            // Quantiles report bucket upper bounds, so p999 dominates the
            // true maximum latency.
            prop_assert!(t.latency.p999() >= max_lat as f64);
        }
    }

    /// The outcome and the emitted `serve-sim` report are bit-identical
    /// whether calibration runs sequentially or on four workers.
    #[test]
    fn outcome_is_worker_count_invariant(cfg in scenario()) {
        let (seq, reg_seq) = run(&cfg, &SimConfig::sequential());
        let (par, reg_par) = run(&cfg, &SimConfig::with_threads(4));
        prop_assert_eq!(&seq, &par);
        let a = seq.serve_report("prop", &cfg, &reg_seq).to_json();
        let b = par.serve_report("prop", &cfg, &reg_par).to_json();
        prop_assert_eq!(a, b);
    }
}
