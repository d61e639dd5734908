//! Consistency properties of the timing simulators: monotonicity and
//! conservation laws that any sane performance model must satisfy.

use enmc::arch::config::EnmcConfig;
use enmc::arch::unit::{RankJob, RankUnit, UnitParams};
use enmc::dram::fuzz::{self, PatternKind};
use enmc::dram::golden::audit_channel;
use enmc::dram::{AddressMapping, DramConfig, DramSystem, MemRequest};
use proptest::prelude::*;

fn job(l: usize, batch: usize, m: usize) -> RankJob {
    RankJob {
        categories: l,
        hidden: 256,
        reduced: 64,
        batch,
        candidates_per_item: vec![m; batch],
    }
}

fn enmc() -> RankUnit {
    RankUnit::new(UnitParams::enmc(&EnmcConfig::table3()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// More categories never make the job faster.
    #[test]
    fn cycles_monotone_in_categories(l in 256usize..2048, extra in 1usize..1024) {
        let a = enmc().simulate(&job(l, 1, 8));
        let b = enmc().simulate(&job(l + extra, 1, 8));
        prop_assert!(b.dram_cycles >= a.dram_cycles, "{l}+{extra}: {} < {}", b.dram_cycles, a.dram_cycles);
    }

    /// More candidates never make the job faster.
    #[test]
    fn cycles_monotone_in_candidates(m in 0usize..64, extra in 1usize..64) {
        let a = enmc().simulate(&job(1024, 1, m));
        let b = enmc().simulate(&job(1024, 1, m + extra));
        prop_assert!(b.dram_cycles >= a.dram_cycles);
        prop_assert!(b.exact_bytes > a.exact_bytes);
    }

    /// Larger batches never make the job faster, and never more than
    /// linearly slower.
    #[test]
    fn cycles_sane_in_batch(batch in 1usize..4) {
        let a = enmc().simulate(&job(1024, batch, 8));
        let b = enmc().simulate(&job(1024, batch + 1, 8));
        prop_assert!(b.dram_cycles >= a.dram_cycles);
        let ratio = b.dram_cycles as f64 / a.dram_cycles as f64;
        prop_assert!(ratio <= (batch + 1) as f64 / batch as f64 + 0.25, "ratio {ratio}");
    }

    /// DRAM stats conservation: every enqueued read completes exactly once
    /// and bytes match 64 × reads.
    #[test]
    fn dram_conserves_requests(n in 1u64..512) {
        let mut sys = DramSystem::new(DramConfig::enmc_single_rank());
        let mut sent = 0u64;
        let mut done = 0u64;
        while done < n {
            while sent < n && sys.enqueue(MemRequest::read(sent * 64)).is_some() {
                sent += 1;
            }
            sys.tick();
            done += sys.drain_completions().len() as u64;
            prop_assert!(sys.cycle() < 10_000_000, "stalled");
        }
        let stats = sys.stats();
        prop_assert_eq!(stats.reads, n);
        prop_assert_eq!(stats.bytes(), n * 64);
        prop_assert!(sys.is_idle());
    }

    /// Latency sanity: no read completes faster than the pure pipeline
    /// latency, and the first read pays exactly the cold-start cost.
    #[test]
    fn dram_latency_bounds(addr in 0u64..(1u64 << 30)) {
        let cfg = DramConfig::enmc_single_rank();
        let t = cfg.timing;
        let mut sys = DramSystem::new(cfg);
        sys.enqueue(MemRequest::read(addr & !63)).expect("queue empty");
        let done = sys.run_until_idle(100_000);
        prop_assert_eq!(done.len(), 1);
        prop_assert_eq!(done[0].latency(), t.trcd + t.cl + t.tbl);
    }

    /// The real controller never violates DDR4 timing and never diverges
    /// from the golden reference model, whatever the seeded adversarial
    /// traffic shape (this is the fuzzer's full harness: checker, command
    /// replay audit, completion-set equality, serial bound).
    #[test]
    fn controller_conforms_under_seeded_traffic(
        seed in 0u64..4096,
        pidx in 0usize..PatternKind::ALL.len(),
    ) {
        let p = PatternKind::ALL[pidx];
        let (_, out) = fuzz::run_seed(p, seed, 40, None);
        prop_assert!(
            out.is_clean(),
            "{} seed {seed}: violations {:?}, divergences {:?}",
            p.name(), out.violations, out.divergences
        );
    }

    /// Golden command-stream replay agrees with the controller's own
    /// accounting: per-command issue legality plus exact ACT/PRE/RD/WR/REF
    /// and busy-cycle counter equality.
    #[test]
    fn golden_replay_matches_controller_counters(seed in 0u64..4096) {
        let cfg = DramConfig::enmc_single_rank();
        let mut sys = DramSystem::with_mapping(cfg, AddressMapping::RoRaBaCoBg);
        sys.enable_protocol_check();
        sys.enable_command_log();
        let mut lcg = seed.wrapping_mul(2) + 1;
        for _ in 0..48 {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let addr = ((lcg >> 16) % cfg.organization.channel_bytes()) & !63;
            let req = if lcg & 1 == 0 { MemRequest::read(addr) } else { MemRequest::write(addr) };
            while sys.enqueue(req).is_none() {
                sys.tick();
            }
        }
        sys.run_until_idle(10_000_000);
        prop_assert_eq!(sys.protocol_violation_count(), 0);
        let logs = sys.take_command_log();
        let stats = sys.channel_stats();
        for (ch, (log, st)) in logs.iter().zip(stats.iter()).enumerate() {
            let divergences = audit_channel(log, st, &cfg);
            prop_assert!(divergences.is_empty(), "channel {ch}: {divergences:?}");
        }
    }

    /// The drain of the 8-channel Table 3 system stays protocol-clean,
    /// with the checker shadowing every channel.
    #[test]
    fn eight_channel_drain_is_checker_clean(seed in 0u64..4096) {
        let cfg = DramConfig::enmc_table3();
        let space = cfg.organization.channels as u64 * cfg.organization.channel_bytes();
        let mut addrs = Vec::new();
        let mut lcg = seed.wrapping_mul(2) + 1;
        for _ in 0..48 {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            addrs.push(((lcg >> 16) % space) & !63);
        }
        let mut sys = DramSystem::new(cfg);
        sys.enable_protocol_check();
        for (i, &addr) in addrs.iter().enumerate() {
            let req = if i % 3 == 0 { MemRequest::write(addr) } else { MemRequest::read(addr) };
            while sys.enqueue(req).is_none() {
                sys.tick();
            }
        }
        sys.run_until_idle(10_000_000);
        prop_assert!(sys.is_idle());
        let violations = sys.take_protocol_violations();
        prop_assert!(violations.is_empty(), "{violations:?}");
    }
}

#[test]
fn screener_busy_bounded_by_total() {
    let r = enmc().simulate(&job(2048, 2, 16));
    assert!(r.screener_busy <= r.dram_cycles);
    assert!(r.executor_busy <= r.dram_cycles);
}

#[test]
fn traffic_accounting_adds_up() {
    let r = enmc().simulate(&job(1024, 1, 16));
    // Every byte the unit requested is visible in the DRAM stats.
    let requested = r.screen_bytes + r.exact_bytes + r.spill_bytes;
    assert_eq!(r.dram.bytes(), requested, "{:?}", r);
}
