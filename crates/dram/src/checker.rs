//! Runtime DDR4 protocol conformance checker.
//!
//! [`TimingChecker`] shadows every command a channel controller issues and
//! independently re-derives the full DDR4 constraint set from the raw
//! command history — it shares no timing registers with [`crate::bank`] or
//! [`crate::rank`], so a bookkeeping bug in the optimized controller path
//! cannot hide itself from the checker. Each command is checked against:
//!
//! * **bank-state legality** — no double ACT, no column command to a
//!   precharged bank or the wrong row, no REF with a bank open;
//! * **bank timing** — tRCD, tRP, tRC, tRAS, tRTP, write recovery (tWR);
//! * **rank timing** — tRRD_S/L, the tFAW four-activation window,
//!   tCCD_S/L, the write→read (tWTR) and read→write bus turnarounds,
//!   tRFC, and the tREFI refresh-postponement window.
//!
//! Violations become structured [`ProtocolViolation`] records (capped at
//! [`MAX_RECORDED_VIOLATIONS`]; the total count is exact) that the
//! controller forwards into the enmc-obs trace/report pipeline. The
//! checker is off by default and costs one branch per issued command when
//! disabled.

use crate::command::CommandKind;
use crate::config::{Organization, Timing};
use crate::mapping::Coord;
use std::collections::VecDeque;

/// Cap on stored violation records; beyond it only the count grows.
pub const MAX_RECORDED_VIOLATIONS: usize = 4096;

/// DDR4 allows up to eight postponed refreshes, so the gap between
/// consecutive REF commands must stay within `9 × tREFI`.
pub const REFI_POSTPONE_WINDOW: u64 = 9;

/// The specific DDR4 rule a command violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// ACT to a bank that already has a row open.
    DoubleAct,
    /// Column command to a precharged bank.
    ClosedBank,
    /// Column command to an open bank, but the wrong row.
    WrongRow,
    /// REF while a bank of the rank still has a row open.
    RefOpenBank,
    /// Column command earlier than tRCD after the ACT.
    Trcd,
    /// ACT earlier than tRP after the (explicit or auto) precharge began.
    Trp,
    /// ACT earlier than tRC after the previous ACT to the same bank.
    Trc,
    /// PRE earlier than tRAS after the ACT.
    Tras,
    /// Column command earlier than tCCD_L after one in the same bank group.
    TccdL,
    /// Column command earlier than tCCD_S after one in another bank group.
    TccdS,
    /// ACT earlier than tRRD_L after an ACT in the same bank group.
    TrrdL,
    /// ACT earlier than tRRD_S after an ACT in another bank group.
    TrrdS,
    /// Fifth ACT inside a tFAW four-activation window.
    Tfaw,
    /// Read earlier than CWL + tBL + tWTR after a write.
    Twtr,
    /// Write before the previous read burst cleared the DQ bus.
    RdToWr,
    /// PRE earlier than write recovery (CWL + tBL + tWR) after a write.
    Twr,
    /// PRE earlier than tRTP after a read.
    Trtp,
    /// Command to a rank still inside tRFC after a REF.
    Trfc,
    /// REF later than the 9 × tREFI postponement window allows.
    TrefiWindow,
}

impl Rule {
    /// Every rule, in declaration order (structural rules first).
    pub const ALL: [Rule; 19] = [
        Rule::DoubleAct,
        Rule::ClosedBank,
        Rule::WrongRow,
        Rule::RefOpenBank,
        Rule::Trcd,
        Rule::Trp,
        Rule::Trc,
        Rule::Tras,
        Rule::TccdL,
        Rule::TccdS,
        Rule::TrrdL,
        Rule::TrrdS,
        Rule::Tfaw,
        Rule::Twtr,
        Rule::RdToWr,
        Rule::Twr,
        Rule::Trtp,
        Rule::Trfc,
        Rule::TrefiWindow,
    ];

    /// Stable rule name, also used as the trace-event name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::DoubleAct => "ddr4.double_act",
            Rule::ClosedBank => "ddr4.closed_bank",
            Rule::WrongRow => "ddr4.wrong_row",
            Rule::RefOpenBank => "ddr4.ref_open_bank",
            Rule::Trcd => "ddr4.tRCD",
            Rule::Trp => "ddr4.tRP",
            Rule::Trc => "ddr4.tRC",
            Rule::Tras => "ddr4.tRAS",
            Rule::TccdL => "ddr4.tCCD_L",
            Rule::TccdS => "ddr4.tCCD_S",
            Rule::TrrdL => "ddr4.tRRD_L",
            Rule::TrrdS => "ddr4.tRRD_S",
            Rule::Tfaw => "ddr4.tFAW",
            Rule::Twtr => "ddr4.tWTR",
            Rule::RdToWr => "ddr4.rd_to_wr",
            Rule::Twr => "ddr4.tWR",
            Rule::Trtp => "ddr4.tRTP",
            Rule::Trfc => "ddr4.tRFC",
            Rule::TrefiWindow => "ddr4.tREFI_window",
        }
    }

    /// `true` for bank-state legality rules (no timing threshold).
    pub fn is_structural(self) -> bool {
        matches!(
            self,
            Rule::DoubleAct | Rule::ClosedBank | Rule::WrongRow | Rule::RefOpenBank
        )
    }
}

/// One detected protocol violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolViolation {
    /// Cycle the offending command was issued at.
    pub cycle: u64,
    /// Channel the checker shadows.
    pub channel: u32,
    /// Rank the command addressed.
    pub rank: usize,
    /// Bank group the command addressed (the checked bank for PREA/REF).
    pub bank_group: usize,
    /// Bank within the group.
    pub bank: usize,
    /// The offending command.
    pub command: CommandKind,
    /// Which rule it broke.
    pub rule: Rule,
    /// Earliest cycle the rule would have allowed (`u64::MAX` for
    /// structural rules; for [`Rule::TrefiWindow`] the *latest* legal
    /// cycle, since that rule is a deadline, not a minimum gap).
    pub earliest_legal: u64,
}

/// Shadow state of one bank, tracked as raw event times so each rule is
/// evaluated from first principles rather than from merged registers.
#[derive(Debug, Clone, Default)]
struct ShadowBank {
    open_row: Option<usize>,
    /// Cycle of the most recent ACT.
    last_act: Option<u64>,
    /// Cycle the precharge in effect *began* (explicit PRE: issue cycle;
    /// RDA: column + tRTP; WRA: column + CWL + tBL + tWR).
    pre_start: Option<u64>,
    /// Most recent read column command to this bank.
    last_rd: Option<u64>,
    /// Most recent write column command to this bank.
    last_wr: Option<u64>,
}

/// Shadow state of one rank.
#[derive(Debug, Clone)]
struct ShadowRank {
    banks: Vec<ShadowBank>,
    /// Up to the last four ACT cycles (tFAW window).
    acts: VecDeque<u64>,
    /// Last ACT on the rank: (cycle, bank group).
    last_act: Option<(u64, usize)>,
    /// Last column command on the rank: (cycle, bank group, was_write).
    last_col: Option<(u64, usize, bool)>,
    /// Last REF cycle.
    last_ref: Option<u64>,
}

impl ShadowRank {
    fn new(banks: usize) -> Self {
        ShadowRank {
            banks: (0..banks).map(|_| ShadowBank::default()).collect(),
            acts: VecDeque::with_capacity(4),
            last_act: None,
            last_col: None,
            last_ref: None,
        }
    }
}

/// Shadows one channel's command stream and records every DDR4 violation.
#[derive(Debug, Clone)]
pub struct TimingChecker {
    timing: Timing,
    org: Organization,
    channel: u32,
    ranks: Vec<ShadowRank>,
    recorded: Vec<ProtocolViolation>,
    total: u64,
    dropped: u64,
}

impl TimingChecker {
    /// A checker validating against `reference` timing. Pass the
    /// controller's own configured timing for self-checking, or a known
    /// good reference to hunt for mis-configured (e.g. fuzzer-injected)
    /// constraint values.
    pub fn new(reference: Timing, org: Organization, channel: u32) -> Self {
        TimingChecker {
            timing: reference,
            org,
            channel,
            ranks: (0..org.ranks).map(|_| ShadowRank::new(org.banks_per_rank())).collect(),
            recorded: Vec::new(),
            total: 0,
            dropped: 0,
        }
    }

    /// Exact number of violations observed so far (recorded or not).
    pub fn violation_count(&self) -> u64 {
        self.total
    }

    /// Violations the record cap refused; taking the record does not
    /// change it.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Removes and returns the recorded violations; counting continues.
    pub fn take_violations(&mut self) -> Vec<ProtocolViolation> {
        std::mem::take(&mut self.recorded)
    }

    /// Observes one issued command, returning the violations it triggered
    /// (empty in the common, conforming case — no allocation then).
    ///
    /// Shadow state is updated unconditionally, mirroring what the DRAM
    /// device would actually do, so a single early command does not
    /// cascade into spurious reports for every later one.
    pub fn observe(&mut self, now: u64, kind: CommandKind, coord: &Coord) -> Vec<ProtocolViolation> {
        let mut fresh = Vec::new();
        match kind {
            CommandKind::Act => self.observe_act(now, coord, &mut fresh),
            CommandKind::Pre => self.observe_pre(now, kind, coord.rank, self.flat(coord), &mut fresh),
            CommandKind::PreA => {
                // PREA is one command but precharges every open bank; check
                // and close each, attributing violations to that bank.
                for flat in 0..self.org.banks_per_rank() {
                    if self.ranks[coord.rank].banks[flat].open_row.is_some() {
                        self.observe_pre(now, kind, coord.rank, flat, &mut fresh);
                    }
                }
            }
            CommandKind::Rd | CommandKind::Wr | CommandKind::Rda | CommandKind::Wra => {
                self.observe_column(now, kind, coord, &mut fresh)
            }
            CommandKind::Ref => self.observe_ref(now, coord.rank, &mut fresh),
        }
        self.total += fresh.len() as u64;
        let room = MAX_RECORDED_VIOLATIONS.saturating_sub(self.recorded.len());
        self.recorded.extend(fresh.iter().take(room).copied());
        self.dropped += fresh.len().saturating_sub(room) as u64;
        fresh
    }

    fn flat(&self, coord: &Coord) -> usize {
        coord.flat_bank(&self.org)
    }

    fn record(
        fresh: &mut Vec<ProtocolViolation>,
        channel: u32,
        org: &Organization,
        now: u64,
        kind: CommandKind,
        rank: usize,
        flat: usize,
        rule: Rule,
        earliest: u64,
    ) {
        fresh.push(ProtocolViolation {
            cycle: now,
            channel,
            rank,
            bank_group: flat / org.banks_per_group,
            bank: flat % org.banks_per_group,
            command: kind,
            rule,
            earliest_legal: earliest,
        });
    }

    /// tRFC: no command may address a rank still refreshing.
    fn check_trfc(&self, now: u64, rank: usize) -> Option<u64> {
        let end = self.ranks[rank].last_ref? + self.timing.trfc;
        (now < end).then_some(end)
    }

    fn observe_act(&mut self, now: u64, coord: &Coord, fresh: &mut Vec<ProtocolViolation>) {
        let t = self.timing;
        let flat = self.flat(coord);
        let kind = CommandKind::Act;
        let (channel, org) = (self.channel, self.org);
        {
            let r = &self.ranks[coord.rank];
            let b = &r.banks[flat];
            let mut v = |rule, earliest| {
                Self::record(fresh, channel, &org, now, kind, coord.rank, flat, rule, earliest)
            };
            if b.open_row.is_some() {
                v(Rule::DoubleAct, u64::MAX);
            }
            if let Some(p) = b.pre_start {
                if now < p + t.trp {
                    v(Rule::Trp, p + t.trp);
                }
            }
            if let Some(a) = b.last_act {
                if now < a + t.trc {
                    v(Rule::Trc, a + t.trc);
                }
            }
            if let Some((a, bg)) = r.last_act {
                let (trrd, rule) = if bg == coord.bank_group {
                    (t.trrd_l, Rule::TrrdL)
                } else {
                    (t.trrd_s, Rule::TrrdS)
                };
                if now < a + trrd {
                    v(rule, a + trrd);
                }
            }
            if r.acts.len() == 4 && now < r.acts[0] + t.tfaw {
                v(Rule::Tfaw, r.acts[0] + t.tfaw);
            }
        }
        if let Some(end) = self.check_trfc(now, coord.rank) {
            Self::record(fresh, channel, &org, now, kind, coord.rank, flat, Rule::Trfc, end);
        }
        // Apply.
        let r = &mut self.ranks[coord.rank];
        let b = &mut r.banks[flat];
        b.open_row = Some(coord.row);
        b.last_act = Some(now);
        if r.acts.len() == 4 {
            r.acts.pop_front();
        }
        r.acts.push_back(now);
        r.last_act = Some((now, coord.bank_group));
    }

    /// One bank's share of a PRE or PREA. A PRE to an already-closed bank
    /// is a legal NOP and never reaches here via PREA; via explicit PRE it
    /// is simply ignored (state unchanged, nothing to check).
    fn observe_pre(
        &mut self,
        now: u64,
        kind: CommandKind,
        rank: usize,
        flat: usize,
        fresh: &mut Vec<ProtocolViolation>,
    ) {
        let t = self.timing;
        let (channel, org) = (self.channel, self.org);
        let b = &self.ranks[rank].banks[flat];
        if b.open_row.is_none() {
            return;
        }
        let mut v =
            |rule, earliest| Self::record(fresh, channel, &org, now, kind, rank, flat, rule, earliest);
        if let Some(a) = b.last_act {
            if now < a + t.tras {
                v(Rule::Tras, a + t.tras);
            }
        }
        if let Some(rd) = b.last_rd {
            if now < rd + t.trtp {
                v(Rule::Trtp, rd + t.trtp);
            }
        }
        if let Some(wr) = b.last_wr {
            let recovery = wr + t.cwl + t.tbl + t.twr;
            if now < recovery {
                v(Rule::Twr, recovery);
            }
        }
        // Apply: the bank closes, write/read recovery is consumed.
        let b = &mut self.ranks[rank].banks[flat];
        b.open_row = None;
        b.pre_start = Some(now);
        b.last_rd = None;
        b.last_wr = None;
    }

    fn observe_column(
        &mut self,
        now: u64,
        kind: CommandKind,
        coord: &Coord,
        fresh: &mut Vec<ProtocolViolation>,
    ) {
        let t = self.timing;
        let flat = self.flat(coord);
        let (channel, org) = (self.channel, self.org);
        {
            let r = &self.ranks[coord.rank];
            let b = &r.banks[flat];
            let mut v = |rule, earliest| {
                Self::record(fresh, channel, &org, now, kind, coord.rank, flat, rule, earliest)
            };
            match b.open_row {
                None => v(Rule::ClosedBank, u64::MAX),
                Some(row) if row != coord.row => v(Rule::WrongRow, u64::MAX),
                Some(_) => {}
            }
            if let Some(a) = b.last_act {
                if now < a + t.trcd {
                    v(Rule::Trcd, a + t.trcd);
                }
            }
            if let Some((c, bg, was_write)) = r.last_col {
                let (tccd, rule) = if bg == coord.bank_group {
                    (t.tccd_l, Rule::TccdL)
                } else {
                    (t.tccd_s, Rule::TccdS)
                };
                if now < c + tccd {
                    v(rule, c + tccd);
                }
                if was_write && kind.is_read() {
                    let turn = c + t.cwl + t.tbl + t.twtr;
                    if now < turn {
                        v(Rule::Twtr, turn);
                    }
                } else if !was_write && kind.is_write() {
                    let turn = c + t.cl + t.tbl + 2 - t.cwl;
                    if now < turn {
                        v(Rule::RdToWr, turn);
                    }
                }
            }
        }
        if let Some(end) = self.check_trfc(now, coord.rank) {
            Self::record(fresh, channel, &org, now, kind, coord.rank, flat, Rule::Trfc, end);
        }
        // Apply.
        let r = &mut self.ranks[coord.rank];
        {
            let b = &mut r.banks[flat];
            if kind.is_read() {
                b.last_rd = Some(now);
            } else {
                b.last_wr = Some(now);
            }
            if kind.auto_precharge() {
                b.open_row = None;
                b.pre_start = Some(if kind.is_read() {
                    now + t.trtp
                } else {
                    now + t.cwl + t.tbl + t.twr
                });
                b.last_rd = None;
                b.last_wr = None;
            }
        }
        r.last_col = Some((now, coord.bank_group, kind.is_write()));
    }

    fn observe_ref(&mut self, now: u64, rank: usize, fresh: &mut Vec<ProtocolViolation>) {
        let t = self.timing;
        let kind = CommandKind::Ref;
        let (channel, org) = (self.channel, self.org);
        {
            let r = &self.ranks[rank];
            for (flat, b) in r.banks.iter().enumerate() {
                let mut v = |rule, earliest| {
                    Self::record(fresh, channel, &org, now, kind, rank, flat, rule, earliest)
                };
                if b.open_row.is_some() {
                    v(Rule::RefOpenBank, u64::MAX);
                }
                if let Some(p) = b.pre_start {
                    if now < p + t.trp {
                        v(Rule::Trp, p + t.trp);
                    }
                }
                if let Some(a) = b.last_act {
                    if now < a + t.trc {
                        v(Rule::Trc, a + t.trc);
                    }
                }
            }
        }
        if let Some(end) = self.check_trfc(now, rank) {
            Self::record(fresh, channel, &org, now, kind, rank, 0, Rule::Trfc, end);
        }
        // Refresh postponement deadline: DDR4 tolerates at most eight
        // postponed refreshes, i.e. REF-to-REF gaps within 9 × tREFI.
        let anchor = self.ranks[rank].last_ref.unwrap_or(0);
        let deadline = anchor + REFI_POSTPONE_WINDOW * t.trefi;
        if now > deadline {
            Self::record(fresh, channel, &org, now, kind, rank, 0, Rule::TrefiWindow, deadline);
        }
        self.ranks[rank].last_ref = Some(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;

    fn checker() -> (TimingChecker, Timing) {
        let cfg = DramConfig::enmc_table3();
        (TimingChecker::new(cfg.timing, cfg.organization, 0), cfg.timing)
    }

    fn coord(bg: usize, bank: usize, row: usize, col: usize) -> Coord {
        Coord { channel: 0, rank: 0, bank_group: bg, bank, row, column: col }
    }

    #[test]
    fn conforming_open_page_sequence_is_clean() {
        let (mut ck, t) = checker();
        let c = coord(0, 0, 7, 0);
        assert!(ck.observe(0, CommandKind::Act, &c).is_empty());
        assert!(ck.observe(t.trcd, CommandKind::Rd, &c).is_empty());
        assert!(ck.observe(t.trcd + t.tccd_l, CommandKind::Rd, &c).is_empty());
        let pre = (t.trcd + t.tccd_l + t.trtp).max(t.tras);
        assert!(ck.observe(pre, CommandKind::Pre, &c).is_empty());
        assert!(ck.observe(pre + t.trp, CommandKind::Act, &coord(0, 0, 8, 0)).is_empty());
        assert_eq!(ck.violation_count(), 0);
    }

    #[test]
    fn early_read_flags_trcd_once() {
        let (mut ck, t) = checker();
        let c = coord(1, 2, 3, 0);
        ck.observe(0, CommandKind::Act, &c);
        let vs = ck.observe(t.trcd - 1, CommandKind::Rd, &c);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, Rule::Trcd);
        assert_eq!(vs[0].earliest_legal, t.trcd);
        assert_eq!(vs[0].command, CommandKind::Rd);
        assert_eq!((vs[0].bank_group, vs[0].bank), (1, 2));
        // The shadow state still applied the command: the next read at a
        // legal spacing is clean.
        assert!(ck.observe(t.trcd - 1 + t.tccd_l, CommandKind::Rd, &c).is_empty());
        assert_eq!(ck.violation_count(), 1);
    }

    #[test]
    fn structural_rules_have_no_threshold() {
        let (mut ck, _t) = checker();
        let c = coord(0, 0, 1, 0);
        let vs = ck.observe(0, CommandKind::Rd, &c);
        assert_eq!(vs[0].rule, Rule::ClosedBank);
        assert_eq!(vs[0].earliest_legal, u64::MAX);
        assert!(vs[0].rule.is_structural());
    }

    #[test]
    fn prea_checks_every_open_bank() {
        let (mut ck, t) = checker();
        ck.observe(0, CommandKind::Act, &coord(0, 0, 1, 0));
        ck.observe(t.trrd_s, CommandKind::Act, &coord(1, 0, 2, 0));
        // PREA well before either bank's tRAS: two violations, one per bank.
        let vs = ck.observe(t.trrd_s + 1, CommandKind::PreA, &coord(0, 0, 0, 0));
        assert_eq!(vs.len(), 2);
        assert!(vs.iter().all(|v| v.rule == Rule::Tras));
        assert_eq!(vs[0].bank_group, 0);
        assert_eq!(vs[1].bank_group, 1);
    }

    #[test]
    fn record_cap_keeps_exact_total() {
        let (mut ck, _t) = checker();
        let c = coord(0, 0, 1, 0);
        for i in 0..(MAX_RECORDED_VIOLATIONS as u64 + 10) {
            // Every observe: RD to a closed bank (structural, non-cascading).
            let vs = ck.observe(i * 100, CommandKind::Rd, &c);
            assert_eq!(vs.len(), 1);
        }
        assert_eq!(ck.violation_count(), MAX_RECORDED_VIOLATIONS as u64 + 10);
        assert_eq!(ck.dropped(), 10);
        assert_eq!(ck.take_violations().len(), MAX_RECORDED_VIOLATIONS);
        // Taking the record drops nothing; the emptied record fills to its
        // cap again before the next violation is dropped.
        assert_eq!(ck.dropped(), 10);
        let start = MAX_RECORDED_VIOLATIONS as u64 + 10;
        for i in start..start + MAX_RECORDED_VIOLATIONS as u64 + 3 {
            assert_eq!(ck.observe(i * 100, CommandKind::Rd, &c).len(), 1);
        }
        assert_eq!(ck.violation_count(), 2 * MAX_RECORDED_VIOLATIONS as u64 + 13);
        assert_eq!(ck.dropped(), 13);
        assert_eq!(ck.take_violations().len(), MAX_RECORDED_VIOLATIONS);
    }

    #[test]
    fn rule_names_are_distinct() {
        let names: std::collections::HashSet<&str> = Rule::ALL.iter().map(|r| r.name()).collect();
        assert_eq!(names.len(), Rule::ALL.len());
    }
}
