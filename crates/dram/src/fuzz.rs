//! Deterministic DRAM traffic fuzzer.
//!
//! Generates seeded adversarial access patterns, drives them through the
//! real FR-FCFS controller with the [`crate::checker::TimingChecker`] and
//! command log enabled, then cross-validates the run against the golden
//! reference model ([`crate::golden`]): command-stream replay, counter
//! audit, completion-set equality with the closed-page serial schedule,
//! and the serial upper bound on cycle count. Any failing case shrinks —
//! ddmin-style, fully deterministically — to a minimal reproducer that
//! serializes to JSON for check-in as a regression fixture.
//!
//! Everything is a pure function of `(pattern, seed, len, injected bug)`:
//! no wall clock, no global RNG, so CI failures replay exactly.

use crate::checker::{ProtocolViolation, TimingChecker};
use crate::config::{DramConfig, Timing};
use crate::golden::{audit_channel, golden_closed_page, GoldenRequest};
use crate::mapping::AddressMapping;
use crate::system::{DramSystem, MemRequest, RequestKind};
use enmc_obs::json::{self, Nullable};
use enmc_obs::record;

record! {
    /// One fuzzed memory request.
    #[derive(Copy, Eq)]
    FuzzRequest {
        /// Earliest cycle the request is presented to the controller.
        at: u64,
        /// Byte address (burst aligned by the generator).
        addr: u64,
        /// Write (vs read).
        write: bool,
    }
}

impl FuzzRequest {
    fn to_mem(self) -> MemRequest {
        if self.write {
            MemRequest::write(self.addr)
        } else {
            MemRequest::read(self.addr)
        }
    }
}

/// SplitMix64 — tiny, seedable, and good enough for traffic shapes;
/// keeps this crate free of an RNG dependency.
#[derive(Debug, Clone, Copy)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0x2545_f491_4f6c_dd1d))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// The adversarial traffic shapes the fuzzer knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternKind {
    /// Sequential burst sweep — the screener's streaming shape (tCCD_S).
    StreamSweep,
    /// Two-row ping-pong on a single bank (tRC/tRAS/tRP/tRTP pressure).
    SameBankHammer,
    /// Round-robin activations over every bank (tRRD/tFAW pressure).
    BankGroupConflict,
    /// Request bursts timed to land across tREFI boundaries (PREA drain +
    /// REF + tRFC re-warm).
    RefreshStraddle,
    /// Uniformly random rows — every access a miss or conflict.
    RowThrash,
    /// Tight read/write alternation on open rows (tWTR / read→write).
    TurnaroundMix,
    /// picoram-style moving-inversion memtest walk: write a row window
    /// ascending, then read-and-write-back (the 0→1→0 inversion) walking
    /// ascending, then again descending — per-preset stress on row
    /// open/close, turnaround, and both walk directions.
    MovingInversion,
}

impl PatternKind {
    /// Every pattern, in the order the CLI fuzzes them.
    pub const ALL: [PatternKind; 7] = [
        PatternKind::StreamSweep,
        PatternKind::SameBankHammer,
        PatternKind::BankGroupConflict,
        PatternKind::RefreshStraddle,
        PatternKind::RowThrash,
        PatternKind::TurnaroundMix,
        PatternKind::MovingInversion,
    ];

    /// Stable CLI/JSON name.
    pub fn name(self) -> &'static str {
        match self {
            PatternKind::StreamSweep => "stream-sweep",
            PatternKind::SameBankHammer => "same-bank-hammer",
            PatternKind::BankGroupConflict => "bank-group-conflict",
            PatternKind::RefreshStraddle => "refresh-straddle",
            PatternKind::RowThrash => "row-thrash",
            PatternKind::TurnaroundMix => "turnaround-mix",
            PatternKind::MovingInversion => "moving-inversion",
        }
    }

    /// Generates `len` requests for `seed`, already sorted by arrival.
    pub fn generate(
        self,
        seed: u64,
        len: usize,
        cfg: &DramConfig,
        mapping: AddressMapping,
    ) -> Vec<FuzzRequest> {
        let org = cfg.organization;
        let mut rng = Rng::new(seed ^ (self as u64) << 32);
        let enc = |bg: usize, bank: usize, row: usize, col: usize| {
            mapping.encode(
                &crate::mapping::Coord {
                    channel: 0,
                    rank: 0,
                    bank_group: bg % org.bank_groups,
                    bank: bank % org.banks_per_group,
                    row: row % org.rows,
                    column: col % org.bursts_per_row(),
                },
                &org,
            )
        };
        let mut out = Vec::with_capacity(len);
        match self {
            PatternKind::StreamSweep => {
                let base = (rng.below(org.channel_bytes() / 2)) & !63;
                for i in 0..len as u64 {
                    out.push(FuzzRequest {
                        at: i / 2,
                        addr: base + i * 64,
                        write: rng.chance(10),
                    });
                }
            }
            PatternKind::SameBankHammer => {
                let (bg, bank) = (rng.below(4) as usize, rng.below(4) as usize);
                let row = rng.below(1024) as usize;
                for i in 0..len {
                    out.push(FuzzRequest {
                        at: i as u64,
                        addr: enc(bg, bank, row + (i & 1), rng.below(16) as usize),
                        write: rng.chance(20),
                    });
                }
            }
            PatternKind::BankGroupConflict => {
                let row = rng.below(4096) as usize;
                let banks = org.banks_per_rank();
                for i in 0..len {
                    out.push(FuzzRequest {
                        at: (i / 4) as u64,
                        addr: enc(i % 4, (i / 4) % 4, row + i / banks, 0),
                        write: rng.chance(15),
                    });
                }
            }
            PatternKind::RefreshStraddle => {
                let trefi = cfg.timing.trefi;
                let burst = (len / 4).max(1);
                for i in 0..len {
                    let k = 1 + (i / burst) as u64;
                    out.push(FuzzRequest {
                        at: (k * trefi).saturating_sub(25) + (i % burst) as u64,
                        addr: enc(
                            rng.below(4) as usize,
                            rng.below(4) as usize,
                            rng.below(64) as usize,
                            rng.below(8) as usize,
                        ),
                        write: rng.chance(25),
                    });
                }
            }
            PatternKind::RowThrash => {
                for i in 0..len {
                    out.push(FuzzRequest {
                        at: (i / 2) as u64,
                        addr: enc(
                            rng.below(4) as usize,
                            rng.below(4) as usize,
                            rng.below(org.rows as u64) as usize,
                            rng.below(org.bursts_per_row() as u64) as usize,
                        ),
                        write: rng.chance(30),
                    });
                }
            }
            PatternKind::TurnaroundMix => {
                let rows = [rng.below(512) as usize, rng.below(512) as usize];
                for i in 0..len {
                    out.push(FuzzRequest {
                        at: i as u64,
                        addr: enc(i % 2, 0, rows[i % 2], (i / 2) % 32),
                        write: i % 2 == (seed % 2) as usize,
                    });
                }
            }
            PatternKind::MovingInversion => {
                // Three passes over a row window in one bank: write the
                // window ascending, then invert (read + write-back) each
                // word ascending, then invert again descending. Window
                // sized so the three passes emit at least `len` requests.
                let (bg, bank) = (rng.below(4) as usize, rng.below(4) as usize);
                let cols = 8usize;
                let window = (len.div_ceil(5 * cols)).max(1);
                let base_row = rng.below(4096) as usize;
                let mut ops: Vec<(usize, usize, bool)> = Vec::new();
                for r in 0..window {
                    for c in 0..cols {
                        ops.push((base_row + r, c, true));
                    }
                }
                for r in 0..window {
                    for c in 0..cols {
                        ops.push((base_row + r, c, false));
                        ops.push((base_row + r, c, true));
                    }
                }
                for r in (0..window).rev() {
                    for c in (0..cols).rev() {
                        ops.push((base_row + r, c, false));
                        ops.push((base_row + r, c, true));
                    }
                }
                for (i, &(row, col, write)) in ops.iter().take(len).enumerate() {
                    out.push(FuzzRequest { at: (i / 2) as u64, addr: enc(bg, bank, row, col), write });
                }
            }
        }
        out
    }
}

/// A deliberately planted controller-timing bug, for validating that the
/// checker and fuzzer actually catch violations (the conformance suite's
/// "would we notice?" test, run in CI via `enmc fuzz-dram --inject-bug`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedBug {
    /// tFAW window one cycle short.
    TfawMinusOne,
    /// tRCD one cycle short.
    TrcdMinusOne,
    /// tRP one cycle short.
    TrpMinusOne,
    /// Write→read turnaround one cycle short.
    TwtrMinusOne,
}

impl InjectedBug {
    /// Every bug the fuzzer can plant.
    pub const ALL: [InjectedBug; 4] = [
        InjectedBug::TfawMinusOne,
        InjectedBug::TrcdMinusOne,
        InjectedBug::TrpMinusOne,
        InjectedBug::TwtrMinusOne,
    ];

    /// Stable CLI/JSON name.
    pub fn name(self) -> &'static str {
        match self {
            InjectedBug::TfawMinusOne => "tfaw-1",
            InjectedBug::TrcdMinusOne => "trcd-1",
            InjectedBug::TrpMinusOne => "trp-1",
            InjectedBug::TwtrMinusOne => "twtr-1",
        }
    }

    /// Inverse of [`InjectedBug::name`].
    pub fn parse(s: &str) -> Option<InjectedBug> {
        Self::ALL.iter().copied().find(|b| b.name() == s)
    }

    /// The buggy timing the controller will (incorrectly) schedule with.
    pub fn apply(self, mut t: Timing) -> Timing {
        match self {
            InjectedBug::TfawMinusOne => t.tfaw -= 1,
            InjectedBug::TrcdMinusOne => t.trcd -= 1,
            InjectedBug::TrpMinusOne => t.trp -= 1,
            InjectedBug::TwtrMinusOne => t.twtr -= 1,
        }
        t
    }
}

/// Everything one fuzz case produced.
#[derive(Debug, Clone, Default)]
pub struct FuzzOutcome {
    /// Protocol violations the checker recorded.
    pub violations: Vec<ProtocolViolation>,
    /// Golden-model divergences (replay, counters, completions, bound).
    pub divergences: Vec<String>,
    /// Cycle the controller went idle at.
    pub controller_cycles: u64,
    /// Cycle the golden closed-page schedule finished at.
    pub golden_cycles: u64,
}

impl FuzzOutcome {
    /// `true` when the run conformed and cross-validated cleanly.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.divergences.is_empty()
    }
}

/// Drives `reqs` through the controller (configured with `cfg`, which may
/// carry an injected bug) while checking against `reference` timing, then
/// cross-validates against the golden model (always using `reference`).
pub fn run_case(
    reqs: &[FuzzRequest],
    cfg: &DramConfig,
    mapping: AddressMapping,
    reference: &Timing,
) -> FuzzOutcome {
    let mut out = FuzzOutcome::default();
    let mut sys = DramSystem::with_mapping(*cfg, mapping);
    sys.enable_protocol_check_against(*reference);
    sys.enable_command_log();
    let limit = reqs.last().map(|r| r.at).unwrap_or(0)
        + 2000 * reqs.len() as u64
        + 4 * cfg.timing.trefi;
    let mut completions = Vec::with_capacity(reqs.len());
    let mut next = 0usize;
    while next < reqs.len() || !sys.is_idle() {
        while next < reqs.len() && reqs[next].at <= sys.cycle() {
            if sys.enqueue(reqs[next].to_mem()).is_some() {
                next += 1;
            } else {
                break; // queue full: tick and retry
            }
        }
        sys.tick();
        completions.extend(sys.drain_completions());
        if sys.cycle() > limit {
            out.divergences.push(format!("controller stalled past cycle {limit}"));
            break;
        }
    }
    out.controller_cycles = sys.cycle();
    out.violations = sys.take_protocol_violations();

    // Golden cross-validation runs with the *reference* timing.
    let golden_cfg = DramConfig { timing: *reference, ..*cfg };

    // 1. Replay + counter audit, per channel.
    let logs = sys.take_command_log();
    let stats = sys.channel_stats();
    for (ch, (log, st)) in logs.iter().zip(stats.iter()).enumerate() {
        for d in audit_channel(log, st, &golden_cfg) {
            out.divergences.push(format!("channel {ch}: {d}"));
        }
    }

    // 2. Closed-page serial schedule: completion-set equality and the
    // serial upper bound. Requests are grouped per channel in enqueue
    // order; enqueue order equals request order, so ids are the indices.
    let org = cfg.organization;
    let mut per_channel: Vec<Vec<GoldenRequest>> = vec![Vec::new(); org.channels];
    for (i, r) in reqs.iter().enumerate() {
        let coord = mapping.decode(r.addr, &org);
        per_channel[coord.channel].push(GoldenRequest {
            id: i as u64,
            kind: if r.write { RequestKind::Write } else { RequestKind::Read },
            coord,
            arrival: r.at,
        });
    }
    let mut golden_ids: Vec<u64> = Vec::with_capacity(reqs.len());
    for chan_reqs in &per_channel {
        let golden = golden_closed_page(chan_reqs, &golden_cfg);
        out.golden_cycles = out.golden_cycles.max(golden.finish_cycle);
        golden_ids.extend(golden.completions.iter().map(|&(id, _)| id));
        // The golden model checks itself: its own command stream must be
        // violation-free under the reference checker.
        let mut ck = TimingChecker::new(*reference, org, 0);
        for c in &golden.commands {
            let vs = ck.observe(c.cycle, c.command.kind, &c.command.coord);
            if !vs.is_empty() {
                out.divergences
                    .push(format!("golden model self-check failed at cycle {}", c.cycle));
            }
        }
    }
    let mut ctrl_ids: Vec<u64> = completions.iter().map(|c| c.id.0).collect();
    ctrl_ids.sort_unstable();
    golden_ids.sort_unstable();
    if ctrl_ids != golden_ids {
        out.divergences.push(format!(
            "completion sets differ: controller {} vs golden {}",
            ctrl_ids.len(),
            golden_ids.len()
        ));
    }
    // The pipelined controller must not be slower than the fully serial
    // closed-page schedule (small slack for a trailing refresh).
    let bound = out.golden_cycles + cfg.timing.trfc + 64;
    if out.controller_cycles > bound {
        out.divergences.push(format!(
            "controller needed {} cycles, serial golden bound is {bound}",
            out.controller_cycles
        ));
    }
    out
}

/// Generates and runs one `(pattern, seed)` case on the single-rank ENMC
/// configuration, optionally planting `bug` in the controller's timing.
pub fn run_seed(
    pattern: PatternKind,
    seed: u64,
    len: usize,
    bug: Option<InjectedBug>,
) -> (Vec<FuzzRequest>, FuzzOutcome) {
    run_seed_on(&DramConfig::enmc_single_rank(), pattern, seed, len, bug)
}

/// [`run_seed`] against an arbitrary single-rank reference configuration
/// — the memory-technology preset entry point: the generator, the
/// controller under test, the checker, and the golden model all derive
/// their constraint sets from `reference`.
pub fn run_seed_on(
    reference: &DramConfig,
    pattern: PatternKind,
    seed: u64,
    len: usize,
    bug: Option<InjectedBug>,
) -> (Vec<FuzzRequest>, FuzzOutcome) {
    let mut cfg = *reference;
    if let Some(b) = bug {
        cfg.timing = b.apply(cfg.timing);
    }
    let reqs = pattern.generate(seed, len, reference, AddressMapping::RoRaBaCoBg);
    let outcome = run_case(&reqs, &cfg, AddressMapping::RoRaBaCoBg, &reference.timing);
    (reqs, outcome)
}

/// ddmin-style greedy shrink: repeatedly removes chunks (halving the
/// chunk size down to single requests) while `fails` keeps reporting the
/// failure. Deterministic; the result is 1-minimal with respect to
/// removal.
pub fn shrink<F: Fn(&[FuzzRequest]) -> bool>(reqs: &[FuzzRequest], fails: F) -> Vec<FuzzRequest> {
    let mut cur = reqs.to_vec();
    if cur.is_empty() || !fails(&cur) {
        return cur;
    }
    let mut parts = 2usize;
    loop {
        let chunk = cur.len().div_ceil(parts).max(1);
        let mut reduced = false;
        let mut start = 0usize;
        while start < cur.len() && cur.len() > 1 {
            let end = (start + chunk).min(cur.len());
            let mut candidate = Vec::with_capacity(cur.len() - (end - start));
            candidate.extend_from_slice(&cur[..start]);
            candidate.extend_from_slice(&cur[end..]);
            if !candidate.is_empty() && fails(&candidate) {
                cur = candidate;
                reduced = true;
                // Same granularity, rescan from the front.
                start = 0;
            } else {
                start = end;
            }
        }
        if !reduced {
            if chunk == 1 {
                break;
            }
            parts = (parts * 2).min(cur.len());
        } else {
            parts = parts.min(cur.len().max(2));
        }
    }
    cur
}

record! {
    /// A minimized failing case, serializable for check-in under
    /// `tests/golden/fuzz_repro_*.json`.
    #[derive(Eq)]
    Reproducer {
        /// Pattern that produced the case.
        pattern: String,
        /// Seed that produced the case.
        seed: u64,
        /// The injected controller bug ([`InjectedBug::name`]), `null`
        /// when none.
        bug: Nullable<String>,
        /// Memory-technology preset name the case ran under (left out for
        /// the DDR4 baseline, so pre-preset fixtures stay byte-identical;
        /// resolved by the CLI, which knows the preset table).
        memory: Option<String>,
        /// The minimized request list.
        requests: Vec<FuzzRequest>,
    }
    check Reproducer::check
}

impl Reproducer {
    /// Rejects a bug name the fuzzer cannot plant, which would otherwise
    /// replay with no bug.
    fn check(&self, path: &str) -> Result<(), String> {
        match self.bug.0.as_deref() {
            Some(name) if InjectedBug::parse(name).is_none() => Err(json::field_error(
                &json::key_path(path, "bug"),
                format_args!("is '{name}', not an injected bug"),
            )),
            _ => Ok(()),
        }
    }

    /// Re-runs the minimized case exactly as the fuzzer would, on the
    /// baseline configuration. Cases recorded under a non-baseline
    /// `memory` preset must go through [`Reproducer::replay_on`] with the
    /// resolved configuration instead.
    pub fn replay(&self) -> FuzzOutcome {
        self.replay_on(&DramConfig::enmc_single_rank())
    }

    /// Re-runs the minimized case against `reference` (the single-rank
    /// configuration of the preset named in `memory`).
    pub fn replay_on(&self, reference: &DramConfig) -> FuzzOutcome {
        let mut cfg = *reference;
        if let Some(b) = self.bug.0.as_deref().and_then(InjectedBug::parse) {
            cfg.timing = b.apply(cfg.timing);
        }
        run_case(&self.requests, &cfg, AddressMapping::RoRaBaCoBg, &reference.timing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patterns_are_deterministic() {
        let cfg = DramConfig::enmc_single_rank();
        for p in PatternKind::ALL {
            let a = p.generate(7, 64, &cfg, AddressMapping::RoRaBaCoBg);
            let b = p.generate(7, 64, &cfg, AddressMapping::RoRaBaCoBg);
            assert_eq!(a, b, "{}", p.name());
            assert_eq!(a.len(), 64);
            assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "{} arrivals unsorted", p.name());
            let c = p.generate(8, 64, &cfg, AddressMapping::RoRaBaCoBg);
            assert_ne!(a, c, "{} ignores its seed", p.name());
        }
    }

    #[test]
    fn clean_controller_fuzzes_clean() {
        for p in PatternKind::ALL {
            let (_, outcome) = run_seed(p, 3, 48, None);
            assert!(
                outcome.is_clean(),
                "{}: violations {:?} divergences {:?}",
                p.name(),
                outcome.violations,
                outcome.divergences
            );
            assert!(outcome.controller_cycles <= outcome.golden_cycles + 500);
        }
    }

    #[test]
    fn injected_trcd_bug_is_caught_and_shrinks() {
        let (reqs, outcome) = run_seed(PatternKind::RowThrash, 11, 64, Some(InjectedBug::TrcdMinusOne));
        assert!(!outcome.is_clean(), "tRCD-1 not caught");
        assert!(outcome
            .violations
            .iter()
            .any(|v| v.rule == crate::checker::Rule::Trcd));
        let reference = DramConfig::enmc_single_rank();
        let mut cfg = reference;
        cfg.timing = InjectedBug::TrcdMinusOne.apply(cfg.timing);
        let minimal = shrink(&reqs, |r| {
            !run_case(r, &cfg, AddressMapping::RoRaBaCoBg, &reference.timing).is_clean()
        });
        assert!(!minimal.is_empty());
        assert!(minimal.len() <= reqs.len());
        // A single cold read reproduces a tRCD violation, so the shrinker
        // should reach (or closely approach) one request.
        assert!(minimal.len() <= 2, "shrunk to {} requests", minimal.len());
        let still = run_case(&minimal, &cfg, AddressMapping::RoRaBaCoBg, &reference.timing);
        assert!(!still.is_clean());
    }

    #[test]
    fn reproducer_roundtrips_through_json() {
        let repro = Reproducer {
            pattern: "row-thrash".to_string(),
            seed: 11,
            bug: Nullable(Some("trcd-1".to_string())),
            memory: None,
            requests: vec![
                FuzzRequest { at: 0, addr: 64, write: false },
                FuzzRequest { at: 3, addr: 128, write: true },
            ],
        };
        let text = json::encode(&repro);
        assert!(!text.contains("memory"), "baseline cases must omit the field");
        let back = json::decode::<Reproducer>(&text).expect("parses");
        assert_eq!(back, repro);
        assert!(!back.replay().is_clean());
    }

    #[test]
    fn reproducer_memory_field_roundtrips() {
        let repro = Reproducer {
            pattern: "moving-inversion".to_string(),
            seed: 1,
            bug: Nullable(None),
            memory: Some("ddr5-4800".to_string()),
            requests: vec![FuzzRequest { at: 0, addr: 64, write: true }],
        };
        let text = json::encode(&repro);
        assert!(text.contains("\"memory\":\"ddr5-4800\""));
        assert_eq!(json::decode::<Reproducer>(&text).expect("parses"), repro);
    }

    #[test]
    fn reproducer_reader_rejects_a_bug_it_cannot_plant() {
        let text = r#"{"pattern":"row-thrash","seed":11,"bug":"trcd-2","requests":[]}"#;
        let err = json::decode::<Reproducer>(text).unwrap_err();
        assert!(err.contains("'bug' is 'trcd-2', not an injected bug"), "{err}");
    }

    #[test]
    fn moving_inversion_walks_one_bank_in_three_passes() {
        let cfg = DramConfig::enmc_single_rank();
        let reqs =
            PatternKind::MovingInversion.generate(5, 80, &cfg, AddressMapping::RoRaBaCoBg);
        assert_eq!(reqs.len(), 80);
        // First pass is all writes; inversion passes alternate read/write.
        assert!(reqs.iter().take(8).all(|r| r.write));
        let tail: Vec<bool> = reqs.iter().skip(16).map(|r| r.write).collect();
        assert!(tail.chunks(2).take(8).all(|c| c == [false, true]), "inversion pairs");
        // Everything lands in one bank.
        let org = cfg.organization;
        let coords: Vec<_> =
            reqs.iter().map(|r| AddressMapping::RoRaBaCoBg.decode(r.addr, &org)).collect();
        assert!(coords.iter().all(|c| (c.bank_group, c.bank) == (coords[0].bank_group, coords[0].bank)));
    }

    #[test]
    fn run_seed_on_matches_run_seed_for_the_baseline() {
        let baseline = DramConfig::enmc_single_rank();
        for p in [PatternKind::StreamSweep, PatternKind::MovingInversion] {
            let (a_reqs, a_out) = run_seed(p, 9, 32, None);
            let (b_reqs, b_out) = run_seed_on(&baseline, p, 9, 32, None);
            assert_eq!(a_reqs, b_reqs);
            assert_eq!(a_out.controller_cycles, b_out.controller_cycles);
            assert!(b_out.is_clean());
        }
    }
}
