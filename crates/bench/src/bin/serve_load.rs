//! Online serving study (extension): offered load × degrade policy over
//! the four paper workloads, on the whole-system serving simulator.
//!
//! The paper evaluates one batch at a time (Fig. 13); this study asks
//! the deployment question it leaves open: when a query stream overruns
//! an ENMC appliance, is it better to shed requests at full quality or
//! to degrade the screening budget and keep serving? Each row runs the
//! serving loop (`enmc_fleet::serve_fleet` on one node, one shard and
//! one tenant, exactly as `enmc serve-sim` does) at a utilization
//! relative to the workload's own measured capacity, under either a
//! single full-quality tier ("fixed") or a three-step degrade ladder
//! ("adaptive"). Each (workload, ladder) table is calibrated once and
//! served at every utilization; the capacity is the fixed ladder's
//! full-batch service time.
//!
//! The candidate budget is capped at 1% of the category space so the
//! calibration pass stays tractable for XMLCNN-670K; the relative
//! ordering of policies is insensitive to the cap (see `DESIGN.md`,
//! "Serving simulation").

use enmc::cli::{Command, THREADS};
use enmc_arch::system::{ClassificationJob, SystemModel};
use enmc_bench::report::Reporter;
use enmc_bench::table::{fmt, Table};
use enmc_bench::{par_rows, JSON};
use enmc_fleet::{calibrate_fleet, serve_fleet, FleetConfig, TenantConfig};
use enmc_model::workloads::WorkloadId;
use enmc_obs::MetricsRegistry;
use enmc_par::SimConfig;
use enmc_serve::tier::default_tiers;
use enmc_serve::ArrivalProcess;
use enmc_surrogate::{CostBackend, CostModel};

const WORKLOADS: [WorkloadId; 4] = [
    WorkloadId::LstmW33K,
    WorkloadId::TransformerW268K,
    WorkloadId::GnmtE32K,
    WorkloadId::Xmlcnn670K,
];
const UTILIZATIONS: [f64; 2] = [0.7, 1.5];
const POLICIES: [&str; 2] = ["fixed", "adaptive"];
const LANES: usize = 2;
const BATCH_MAX: usize = 2;

fn serving_job(id: WorkloadId) -> ClassificationJob {
    let w = id.workload();
    ClassificationJob::of_workload(w.categories, w.hidden, 1, 0.01)
}

const SEED: u64 = 0x5e12;

/// One node serving one tenant's Poisson load of `rate` requests per
/// kilocycle, under the `policy` ladder.
fn serving_fleet(job: &ClassificationJob, policy: &str, rate: f64) -> FleetConfig {
    let ladder = default_tiers(job);
    let tenant = TenantConfig {
        name: "t0".to_string(),
        arrival: ArrivalProcess::Poisson { rate },
        requests: 96,
        slo_cycles: 60_000,
        tiers: if policy == "fixed" { ladder[..1].to_vec() } else { ladder },
        degrade_queue_depth: 6,
        upgrade_queue_depth: 2,
        shed_queue_depth: 24,
        seed: SEED,
    };
    FleetConfig {
        nodes: 1,
        shards: 1,
        replicas: 0,
        zipf_s: 0.0,
        batch_max: BATCH_MAX,
        linger_cycles: 1_500,
        lanes: LANES,
        tenants: vec![tenant],
        seed: SEED,
        ..Default::default()
    }
}

const CMD: Command = Command::standalone("serve_load", &[&[THREADS, JSON]]);

fn main() {
    let (a, sim) = enmc_bench::parse(&CMD, |a| Ok(SimConfig::resolve(a.threads()?, false)));
    let mut rep = Reporter::from_env(&a);
    let sys = SystemModel::table3();

    println!("Serving load sweep: utilization x degrade policy, 4 paper shapes\n");
    let mut t = Table::new(&[
        "workload", "util", "policy", "completed", "shed", "p99 (us)", "slo %", "transitions",
    ]);

    // One calibration per (workload, ladder): a table depends on neither
    // the offered load nor the seed, so every utilization serves it. The
    // calibration never reads the config's placeholder rate.
    let rows = par_rows(&sim, WORKLOADS.to_vec(), |&id| {
        let job = serving_job(id);
        let calibrated = POLICIES.map(|policy| {
            let mut cost = CostModel::new(CostBackend::CycleAccurate, SEED);
            calibrate_fleet(&sys, &job, &serving_fleet(&job, policy, 0.0), &sim, &mut cost)
                .expect("cycle-accurate backend cannot violate an audit")
        });
        // The saturation rate: a full batch on the fixed ladder's
        // full-quality tier, in requests per kilocycle across all lanes.
        // The utilizations are multiples of it.
        let full_batch = calibrated[0].tables()[0].cycles[0][BATCH_MAX - 1];
        let capacity = 1000.0 * (LANES * BATCH_MAX) as f64 / full_batch as f64;
        let mut rows = Vec::new();
        for util in UTILIZATIONS {
            for (policy, cal) in POLICIES.into_iter().zip(&calibrated) {
                let cfg = serving_fleet(&job, policy, capacity * util);
                let out = serve_fleet(cal, &cfg, &mut MetricsRegistry::new());
                let served = &out.tenants[0];
                let us = |cycles: f64| cycles * out.ns_per_cycle / 1e3;
                rows.push(vec![
                    id.workload().abbr.to_string(),
                    fmt(util, 1),
                    policy.to_string(),
                    served.completed.to_string(),
                    served.shed.to_string(),
                    fmt(us(served.latency.p99()), 1),
                    fmt(100.0 * served.slo_attainment(), 1),
                    served.degrade_transitions.to_string(),
                ]);
            }
        }
        rows
    });
    for row in rows.into_iter().flatten() {
        t.row_owned(row);
    }
    t.print();

    rep.table("load_sweep", &t);
    rep.note(
        "utilization is relative to each workload's probed full-quality capacity; \
         candidates capped at 1% of categories to bound calibration time",
    );
    rep.finish();
}
