//! Distributed scale-out projection (paper §8's future-work direction):
//! shard an S10M-class catalogue over 1-32 nodes, each running ENMC DIMMs,
//! with a 100 Gb/s fabric for broadcast/gather.

use enmc::cli::{Command, THREADS};
use enmc_arch::scaleout::{scale_out, Network};
use enmc_arch::system::{ClassificationJob, Scheme, SystemModel};
use enmc_bench::report::Reporter;
use enmc_bench::table::{fmt, Table};
use enmc_bench::{par_rows, JSON};
use enmc_par::SimConfig;

const CMD: Command = Command::standalone("scaleout", &[&[THREADS, JSON]]);

fn main() {
    let (a, sim) = enmc_bench::parse(&CMD, |a| Ok(SimConfig::resolve(a.threads()?, false)));
    let mut rep = Reporter::from_env(&a);
    let sys = SystemModel::table3();
    let net = Network::roce_100g();
    // An S10M-class shardable job (scaled 1/8 like fig15; latencies are
    // per-shard so relative scaling is exact).
    let job = ClassificationJob {
        categories: 1_250_000,
        hidden: 512,
        reduced: 128,
        batch: 1,
        candidates: 7_500,
    };
    println!("ENMC scale-out: S10M-class catalogue sharded over N nodes\n");
    let mut t = Table::new(&["nodes", "latency (us)", "speedup", "network share", "efficiency"]);
    let base = scale_out(&sys, &net, &job, Scheme::Enmc, 1);
    // Node counts simulate independently; shard them across the workers.
    let rows = par_rows(&sim, vec![1usize, 2, 4, 8, 16, 32], |&nodes| {
        let r = scale_out(&sys, &net, &job, Scheme::Enmc, nodes);
        vec![
            nodes.to_string(),
            fmt(r.ns / 1e3, 1),
            format!("{:.1}x", base.ns / r.ns),
            format!("{:.1}%", 100.0 * r.network_share),
            format!("{:.0}%", 100.0 * r.efficiency),
        ]
    });
    for row in rows {
        t.row_owned(row);
    }
    t.print();
    rep.table("node_sweep", &t);
    rep.finish();
    println!("\nScreening makes the gathered payload tiny (candidates only), so the");
    println!("fabric stays a small share of latency until deep into the node sweep.");
}
