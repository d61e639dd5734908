//! Per-rank state: banks plus the constraints that span banks.
//!
//! tRRD (ACT→ACT across banks), tFAW (≤4 ACTs per window), tCCD
//! (column→column, same vs different bank group), the read/write bus
//! turnaround (tWTR / CL-vs-CWL gaps) and refresh are all rank-level.

use crate::bank::{Bank, RowState};
use crate::command::CommandKind;
use crate::config::{Organization, Timing};
use crate::mapping::Coord;
use std::collections::VecDeque;

/// One rank: a set of banks and rank-wide timing state.
#[derive(Debug, Clone)]
pub struct RankState {
    banks: Vec<Bank>,
    org: Organization,
    timing: Timing,
    /// Timestamps of the last four ACTs (for tFAW).
    act_window: VecDeque<u64>,
    /// Earliest next ACT due to tRRD (per last-ACT bank group).
    last_act_cycle: Option<(u64, usize)>,
    /// Earliest next column command due to tCCD (cycle, bank group).
    last_col_cycle: Option<(u64, usize, bool)>, // (cycle, bank_group, was_write)
    /// Cycle at which a scheduled refresh completes (banks blocked).
    refresh_until: u64,
}

impl RankState {
    /// A fresh rank with all banks precharged.
    pub fn new(org: &Organization, timing: &Timing) -> Self {
        RankState {
            banks: (0..org.banks_per_rank()).map(|_| Bank::new()).collect(),
            org: *org,
            timing: *timing,
            act_window: VecDeque::with_capacity(4),
            last_act_cycle: None,
            last_col_cycle: None,
            refresh_until: 0,
        }
    }

    /// Number of banks.
    pub fn banks(&self) -> usize {
        self.banks.len()
    }

    /// `true` if every bank is precharged (needed before REF).
    pub fn all_closed(&self) -> bool {
        self.banks.iter().all(|b| b.state() == RowState::Closed)
    }

    /// Earliest cycle at which `cmd` may issue, considering both bank-local
    /// and rank-level constraints. Returns `u64::MAX` if the command is
    /// structurally illegal right now.
    pub fn earliest(&self, kind: CommandKind, coord: &Coord) -> u64 {
        if kind == CommandKind::PreA {
            // PreA must be legal for every open bank simultaneously.
            let mut e = self.refresh_until;
            for b in &self.banks {
                if b.state() != RowState::Closed {
                    e = e.max(b.earliest(CommandKind::Pre));
                }
            }
            return e;
        }
        let flat = coord.flat_bank(&self.org);
        let bank = &self.banks[flat];
        if !bank.permits(kind, coord.row) {
            return u64::MAX;
        }
        let mut earliest = bank.earliest(kind).max(self.refresh_until);
        match kind {
            CommandKind::Act => {
                if let Some((cycle, bg)) = self.last_act_cycle {
                    let trrd = if bg == coord.bank_group {
                        self.timing.trrd_l
                    } else {
                        self.timing.trrd_s
                    };
                    earliest = earliest.max(cycle + trrd);
                }
                if self.act_window.len() == 4 {
                    earliest = earliest.max(self.act_window[0] + self.timing.tfaw);
                }
            }
            k if k.is_column() => {
                if let Some((cycle, bg, was_write)) = self.last_col_cycle {
                    let t = self.timing;
                    let tccd = if bg == coord.bank_group { t.tccd_l } else { t.tccd_s };
                    earliest = earliest.max(cycle + tccd);
                    // Bus turnaround: write→read needs CWL+BL+tWTR; read→write
                    // needs the read burst to clear the bus.
                    if was_write && k.is_read() {
                        earliest = earliest.max(cycle + t.cwl + t.tbl + t.twtr);
                    } else if !was_write && k.is_write() {
                        earliest = earliest.max(cycle + t.cl + t.tbl + 2 - t.cwl);
                    }
                }
            }
            CommandKind::Ref => {
                if !self.all_closed() {
                    return u64::MAX;
                }
                // Every bank must have completed its precharge (tRP) and
                // respect tRC from its last activation.
                for b in &self.banks {
                    earliest = earliest.max(b.earliest(CommandKind::Ref));
                }
            }
            _ => {}
        }
        earliest
    }

    /// Issues `cmd` at `now`, updating all state.
    ///
    /// # Panics
    ///
    /// Debug-asserts legality; the controller must check
    /// [`RankState::earliest`] first.
    pub fn issue(&mut self, kind: CommandKind, coord: &Coord, now: u64) {
        debug_assert!(now >= self.earliest(kind, coord), "{kind:?} issued too early");
        let t = &self.timing;
        let flat = coord.flat_bank(&self.org);
        match kind {
            CommandKind::Act => {
                self.banks[flat].issue(kind, coord.row, now, t);
                if self.act_window.len() == 4 {
                    self.act_window.pop_front();
                }
                self.act_window.push_back(now);
                self.last_act_cycle = Some((now, coord.bank_group));
            }
            CommandKind::PreA => {
                for b in &mut self.banks {
                    if b.state() != RowState::Closed {
                        b.issue(CommandKind::Pre, 0, now, t);
                    }
                }
            }
            CommandKind::Ref => {
                self.refresh_until = now + t.trfc;
                for b in &mut self.banks {
                    b.issue(CommandKind::Ref, 0, now, t);
                }
            }
            k if k.is_column() => {
                self.banks[flat].issue(kind, coord.row, now, t);
                self.last_col_cycle = Some((now, coord.bank_group, k.is_write()));
            }
            _ => {
                self.banks[flat].issue(kind, coord.row, now, t);
            }
        }
    }

    /// The open row of a bank, if any.
    pub fn open_row(&self, flat_bank: usize) -> Option<usize> {
        match self.banks[flat_bank].state() {
            RowState::Open(r) => Some(r),
            RowState::Closed => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;

    fn setup() -> (RankState, Timing, Organization) {
        let cfg = DramConfig::enmc_table3();
        (RankState::new(&cfg.organization, &cfg.timing), cfg.timing, cfg.organization)
    }

    fn coord(bg: usize, bank: usize, row: usize, col: usize) -> Coord {
        Coord { channel: 0, rank: 0, bank_group: bg, bank, row, column: col }
    }

    #[test]
    fn trrd_spacing_between_acts() {
        let (mut r, t, _) = setup();
        let c0 = coord(0, 0, 1, 0);
        let c1 = coord(1, 0, 2, 0);
        r.issue(CommandKind::Act, &c0, 0);
        let e = r.earliest(CommandKind::Act, &c1);
        assert_eq!(e, t.trrd_s); // different bank group
        let c2 = coord(0, 1, 3, 0);
        let e = r.earliest(CommandKind::Act, &c2);
        assert_eq!(e, t.trrd_l); // same bank group
    }

    #[test]
    fn tfaw_limits_four_acts() {
        let (mut r, t, _) = setup();
        let mut now = 0;
        for i in 0..4 {
            let c = coord(i % 4, i / 4, 1, 0);
            now = r.earliest(CommandKind::Act, &c).max(now);
            r.issue(CommandKind::Act, &c, now);
        }
        // Fifth ACT to a fresh bank must wait for the tFAW window.
        let c = coord(0, 1, 1, 0);
        let e = r.earliest(CommandKind::Act, &c);
        assert!(e >= t.tfaw, "fifth ACT at {e}, tFAW {}", t.tfaw);
    }

    #[test]
    fn tccd_spacing_between_reads() {
        let (mut r, t, _) = setup();
        let c = coord(0, 0, 1, 0);
        r.issue(CommandKind::Act, &c, 0);
        r.issue(CommandKind::Rd, &c, t.trcd);
        let same_bg = r.earliest(CommandKind::Rd, &coord(0, 0, 1, 1));
        assert_eq!(same_bg, t.trcd + t.tccd_l);
    }

    #[test]
    fn write_to_read_turnaround() {
        let (mut r, t, _) = setup();
        let c = coord(0, 0, 1, 0);
        r.issue(CommandKind::Act, &c, 0);
        r.issue(CommandKind::Wr, &c, t.trcd);
        let e = r.earliest(CommandKind::Rd, &coord(0, 0, 1, 1));
        assert!(e >= t.trcd + t.cwl + t.tbl + t.twtr);
    }

    #[test]
    fn refresh_requires_all_banks_closed() {
        let (mut r, t, _) = setup();
        let c = coord(0, 0, 1, 0);
        r.issue(CommandKind::Act, &c, 0);
        assert_eq!(r.earliest(CommandKind::Ref, &c), u64::MAX);
        r.issue(CommandKind::Pre, &c, t.tras);
        assert!(r.all_closed());
        let e = r.earliest(CommandKind::Ref, &c);
        assert!(e < u64::MAX);
    }

    #[test]
    fn refresh_blocks_activations() {
        let (mut r, t, _) = setup();
        let c = coord(0, 0, 1, 0);
        r.issue(CommandKind::Ref, &c, 0);
        let e = r.earliest(CommandKind::Act, &c);
        assert!(e >= t.trfc);
    }

    #[test]
    fn prea_closes_everything() {
        let (mut r, t, _) = setup();
        r.issue(CommandKind::Act, &coord(0, 0, 1, 0), 0);
        r.issue(CommandKind::Act, &coord(1, 0, 2, 0), t.trrd_s);
        let now = t.tras + t.trrd_s;
        r.issue(CommandKind::PreA, &coord(0, 0, 0, 0), now);
        assert!(r.all_closed());
    }

    #[test]
    fn open_row_reports_state() {
        let (mut r, _t, org) = setup();
        let c = coord(2, 1, 42, 0);
        assert_eq!(r.open_row(c.flat_bank(&org)), None);
        r.issue(CommandKind::Act, &c, 0);
        assert_eq!(r.open_row(c.flat_bank(&org)), Some(42));
    }
}
