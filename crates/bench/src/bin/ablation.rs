//! Ablation study of ENMC's design choices (beyond the paper's figures —
//! each row removes or resizes one mechanism DESIGN.md calls out).
//!
//! * screening precision (INT4 → INT8 → FP32 storage/compute)
//! * the comparator-array inline filter vs spill-and-refilter
//! * dual-module Screener ∥ Executor overlap vs serial phases
//! * prefetch (double-buffering) depth
//! * INT4 MAC array width

use enmc::cli::{Command, THREADS};
use enmc_arch::system::SystemModel;
use enmc_arch::unit::{RankJob, RankUnit, UnitParams};
use enmc_bench::report::Reporter;
use enmc_bench::table::{fmt, Table};
use enmc_bench::{par_rows, JSON};
use enmc_par::SimConfig;

fn job() -> RankJob {
    // One rank's slice of a Transformer-W268K-like job with ~5% candidates.
    RankJob {
        categories: 4184,
        hidden: 512,
        reduced: 128,
        batch: 2,
        candidates_per_item: vec![209; 2],
    }
}

fn run(params: UnitParams) -> f64 {
    RankUnit::new(params).simulate(&job()).ns
}

const CMD: Command = Command::standalone("ablation", &[&[THREADS, JSON]]);

fn main() {
    let (a, cfg) = enmc_bench::parse(&CMD, |a| Ok(SimConfig::resolve(a.threads()?, false)));
    let mut rep = Reporter::from_env(&a);
    let base = SystemModel::table3().enmc_unit_params();
    let base_ns = run(base);
    println!("ENMC design-choice ablations (one rank, Transformer-like slice, batch 2)\n");
    let mut t = Table::new(&["variant", "latency (us)", "slowdown vs ENMC"]);

    let variants: Vec<(&str, UnitParams)> = vec![
        ("ENMC (Table 3)", base),
        // Screening precision: wider storage = more DRAM traffic; the MAC
        // count stays at 128 lanes of the corresponding width.
        ("screening at INT8", UnitParams { screen_bits: 8, ..base }),
        ("screening at FP32", UnitParams { screen_bits: 32, ..base }),
        // Remove the comparator array: logits spill to DRAM and are re-read
        // for a compute-based filter (the naive-NMP path of §7.2).
        ("no inline filter (spill + refilter)", UnitParams { inline_filter: false, ..base }),
        // Serialize the dual modules: the Executor waits for screening.
        ("serial Screener→Executor", UnitParams { serial_phases: true, ..base }),
        // Prefetch depth (double buffering).
        ("prefetch depth 1 (no double buffer)", UnitParams { prefetch_depth: 1, ..base }),
        ("prefetch depth 4", UnitParams { prefetch_depth: 4, ..base }),
        // MAC array width.
        ("32 INT4 MACs", UnitParams { screen_macs_per_cycle: 32.0, ..base }),
        ("64 INT4 MACs", UnitParams { screen_macs_per_cycle: 64.0, ..base }),
        ("256 INT4 MACs", UnitParams { screen_macs_per_cycle: 256.0, ..base }),
    ];
    // Each variant simulates independently; shard them across the bench
    // workers (rows keep the listed order).
    let rows = par_rows(&cfg, variants, |&(name, params)| (name, run(params)));
    for (name, ns) in rows {
        t.row_owned(vec![name.into(), fmt(ns / 1e3, 2), format!("{:.2}x", ns / base_ns)]);
    }

    t.print();
    rep.table("ablations", &t);
    rep.finish();
    println!("\nReading: INT4 storage and the inline filter are the big levers");
    println!("(they set DRAM traffic); MAC width beyond 128 buys little because");
    println!("screening is bandwidth-bound (Fig. 5b).");
}
