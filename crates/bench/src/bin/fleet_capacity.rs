//! Fleet capacity planning (extension): queries/sec per DIMM at 99% SLO
//! attainment vs model size, for both shard-placement policies, on the
//! synthetic S1M / S10M / S100M datasets.
//!
//! For each dataset and placement policy the harness bisects the offered
//! Poisson rate to the largest load at which at least 99% of *generated*
//! queries complete within the SLO — a shed query counts as a miss, so
//! the admission controller cannot buy attainment by dropping work. The
//! headline is the capacity *ratio*: under a Zipf-skewed shard
//! population, popularity-aware placement (hot head replicated, traffic
//! spread across copies) must beat the popularity-oblivious
//! consistent-hash baseline, whose hot shard pins one node at
//! saturation while the rest idle.
//!
//! Pass `--scale N` to simulate `1/N` of each category space and
//! extrapolate linearly, exactly as `fig15_scalability` does (the
//! pipelines are streaming, so per-query service time is linear in the
//! slice). The capacity search runs on the surrogate cost backend by
//! default (audit lottery at 10%) because a bisection re-calibrates the
//! same service table dozens of times — the textbook surrogate win;
//! `--cost-model cycle-accurate` forces the slow path.

use enmc::cli::{count, flag, Command, Flag, AUDIT_RATE, COST_MODEL, THREADS};
use enmc_arch::system::{ClassificationJob, SystemModel};
use enmc_bench::report::Reporter;
use enmc_bench::table::{fmt, Table};
use enmc_bench::trajectory::BenchEmitter;
use enmc_bench::{candidate_fraction, par_rows, BENCH_JSON, JSON};
use enmc_fleet::{simulate_fleet, FleetConfig, FleetOutcome, PlacementPolicy, TenantConfig};
use enmc_model::workloads::WorkloadId;
use enmc_obs::MetricsRegistry;
use enmc_par::SimConfig;
use enmc_serve::tier::DegradeTier;
use enmc_serve::ArrivalProcess;
use enmc_surrogate::CostModel;

const NODES: usize = 4;
const SHARDS: usize = 8;
const REPLICAS: usize = 3;
const ZIPF_S: f64 = 1.5;
const LANES: usize = 2;
const BATCH_MAX: usize = 4;
const REQUESTS: usize = 240;
/// The attainment bar: ≥ 99% of generated queries meet the SLO.
const TARGET: f64 = 0.99;
/// Table 3 platform: 8 channels × 8 ranks per node, one 8-rank DIMM per
/// channel — the per-DIMM normalization the capacity curve reports.
const DIMMS_PER_NODE: usize = 8;
const SEED: u64 = 7;
const POLICIES: [PlacementPolicy; 2] =
    [PlacementPolicy::ConsistentHash, PlacementPolicy::PopularityAware];

fn capacity_job(id: WorkloadId, scale: usize) -> ClassificationJob {
    let w = id.workload();
    let categories = (w.categories / scale).max(SHARDS);
    ClassificationJob {
        categories,
        hidden: w.hidden,
        reduced: (w.hidden / 4).max(1),
        batch: 1,
        candidates: ((categories as f64) * candidate_fraction(id)).round().max(1.0) as usize,
    }
}

/// One capacity probe: a single tenant offering a Poisson load of `rate`
/// requests per kilocycle against the fixed Zipf-skewed fleet. The
/// ladder is a single full-quality tier so the only degree of freedom
/// between the two policies is *where shards live* — no degrade ladder
/// to mask a hot node.
fn probe(
    sys: &SystemModel,
    job: &ClassificationJob,
    placement: PlacementPolicy,
    rate: f64,
    slo_cycles: u64,
    cost: &mut CostModel,
) -> FleetOutcome {
    let tiers = vec![DegradeTier { candidates: job.candidates, screen_shift: 0 }];
    let tenant = TenantConfig::new(
        "t0",
        ArrivalProcess::Poisson { rate },
        REQUESTS,
        slo_cycles,
        tiers,
        SEED,
    );
    let cfg = FleetConfig {
        nodes: NODES,
        shards: SHARDS,
        replicas: REPLICAS,
        placement,
        zipf_s: ZIPF_S,
        batch_max: BATCH_MAX,
        linger_cycles: 500,
        lanes: LANES,
        tenants: vec![tenant],
        seed: SEED,
        ..Default::default()
    };
    let mut registry = MetricsRegistry::new();
    simulate_fleet(sys, job, &cfg, &SimConfig::sequential(), &mut registry, cost)
        .expect("audited calibration points must stay within the surrogate bound")
}

/// Fraction of *generated* queries that met the SLO — sheds are misses.
fn strict_attainment(out: &FleetOutcome) -> f64 {
    let generated: u64 = out.tenants.iter().map(|t| t.generated).sum();
    let met: u64 = out.tenants.iter().map(|t| t.slo_met).sum();
    met as f64 / generated.max(1) as f64
}

/// Bisects the offered rate to the capacity edge: the largest rate (to
/// ~0.1% resolution) whose probe still clears [`TARGET`].
fn capacity_search(
    sys: &SystemModel,
    job: &ClassificationJob,
    placement: PlacementPolicy,
    slo_cycles: u64,
    ideal_rate: f64,
    cost: &mut CostModel,
) -> f64 {
    let mut lo = 0.0;
    let mut hi = ideal_rate * 2.0;
    // Grow until the upper bracket fails (it practically always does at
    // 2x the loss-free ideal; the cap keeps a degenerate probe finite).
    while strict_attainment(&probe(sys, job, placement, hi, slo_cycles, cost)) >= TARGET {
        lo = hi;
        hi *= 2.0;
        if hi > ideal_rate * 64.0 {
            return lo;
        }
    }
    for _ in 0..10 {
        let mid = 0.5 * (lo + hi);
        if strict_attainment(&probe(sys, job, placement, mid, slo_cycles, cost)) >= TARGET {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The largest `--scale` that leaves every simulated rank of the smallest
/// dataset at least one category: S1M's 10^6 categories over `SHARDS`
/// shards of 8 channels × 8 ranks each give 10^6 / (8 × 64) = 1,953.
const MAX_SCALE: u64 = 1_000_000 / (SHARDS as u64 * 64);
const SCALE: Flag =
    flag("--scale", "N", "64", "simulate 1/N of each category slice, extrapolate").at_most(MAX_SCALE);
const COST: Flag = Flag { default: "surrogate", ..COST_MODEL };
const CMD: Command =
    Command::standalone("fleet_capacity", &[&[THREADS, JSON, BENCH_JSON, SCALE, COST, AUDIT_RATE]]);

fn main() {
    let (a, (scale, backend, cfg)) = enmc_bench::parse(&CMD, |a| {
        Ok((a.get("--scale", count)?, a.backend()?, SimConfig::resolve(a.threads()?, false)))
    });
    let sys = SystemModel::table3();
    let mut bench = BenchEmitter::from_env(&a);
    let mut rep = Reporter::from_env(&a);
    println!(
        "Fleet capacity: qps/DIMM at {:.0}% SLO vs model size, sim scale 1/{scale}, \
         {NODES} nodes x {SHARDS} shards (zipf {ZIPF_S}), cost model {}\n",
        TARGET * 100.0,
        backend.name(),
    );

    // The three datasets search independently; shard them across the
    // bench workers. Each worker reuses one surrogate across every probe
    // of its dataset, so anchors fitted bracketing the capacity edge pay
    // off on all later bisection steps.
    let rows = par_rows(&cfg, WorkloadId::scaling().to_vec(), |&id| {
        let job = capacity_job(id, scale);
        let mut cost = CostModel::new(backend, SEED);

        // A warm probe at negligible load yields the calibrated service
        // table; the SLO and the loss-free ideal rate derive from it.
        // The table is placement-independent, so both policies face the
        // same bar.
        let warm = probe(&sys, &job, PlacementPolicy::ConsistentHash, 0.01, u64::MAX / 4, &mut cost);
        let full_batch = warm.tenants[0].service_cycles[0][BATCH_MAX - 1].max(1);
        let slo_cycles = 16 * full_batch;
        let ideal_rate = 1000.0 * (NODES * LANES * BATCH_MAX) as f64 / full_batch as f64;

        let caps: Vec<f64> = POLICIES
            .iter()
            .map(|&p| capacity_search(&sys, &job, p, slo_cycles, ideal_rate, &mut cost))
            .collect();
        // requests/kilocycle → queries/sec, unscaled back to the full
        // category space, normalized per DIMM.
        let qps_per_dimm = |rate: f64| {
            rate * 1e6 / warm.ns_per_cycle / scale as f64 / (NODES * DIMMS_PER_NODE) as f64
        };
        (id, qps_per_dimm(caps[0]), qps_per_dimm(caps[1]))
    });

    let mut t = Table::new(&["Dataset", "qps/DIMM (hash)", "qps/DIMM (popularity)", "ratio"]);
    let mut failures = Vec::new();
    for (id, ch, pa) in rows {
        let abbr = id.workload().abbr;
        let ratio = pa / ch.max(f64::MIN_POSITIVE);
        t.row_owned(vec![
            abbr.to_string(),
            fmt(ch, 1),
            fmt(pa, 1),
            format!("{ratio:.2}x"),
        ]);
        bench.det(&format!("qps_per_dimm/{abbr}/consistent-hash"), ch);
        bench.det(&format!("qps_per_dimm/{abbr}/popularity"), pa);
        bench.det(&format!("capacity_ratio/{abbr}"), ratio);
        if ratio < 1.2 {
            failures.push(format!("{abbr}: {ratio:.2}x"));
        }
    }
    t.print();
    bench.finish();

    rep.table("capacity", &t);
    rep.note(&format!(
        "capacity = max Poisson rate with >= {:.0}% of generated queries meeting a \
         16x-full-batch SLO (sheds count as misses); sim scale 1/{scale}",
        TARGET * 100.0
    ));
    rep.finish();

    println!(
        "\nPopularity-aware placement spreads the Zipf hot head over its replicas; \
         consistent hashing saturates the hot shard's node first."
    );
    assert!(
        failures.is_empty(),
        "popularity-aware capacity must be >= 1.2x consistent hashing under zipf {ZIPF_S}: {}",
        failures.join(", ")
    );
}
