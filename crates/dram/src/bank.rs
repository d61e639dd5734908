//! Per-bank state machine and timing registers.
//!
//! Each bank tracks whether a row is open in its row buffer and the
//! earliest cycle at which each command class may legally be issued to it.
//! Constraints that span banks (tRRD, tFAW, tCCD, bus occupancy, tWTR)
//! live in [`crate::rank::RankState`].

use crate::command::CommandKind;
use crate::config::Timing;

/// Row-buffer state of one bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowState {
    /// No row open; bank is precharged.
    Closed,
    /// `row` is latched in the row buffer.
    Open(usize),
}

/// One DRAM bank.
#[derive(Debug, Clone)]
pub struct Bank {
    state: RowState,
    /// Earliest cycle an ACT may issue.
    next_act: u64,
    /// Earliest cycle a PRE may issue.
    next_pre: u64,
    /// Earliest cycle a RD may issue.
    next_rd: u64,
    /// Earliest cycle a WR may issue.
    next_wr: u64,
}

impl Default for Bank {
    fn default() -> Self {
        Self::new()
    }
}

impl Bank {
    /// A freshly precharged bank.
    pub fn new() -> Self {
        Bank {
            state: RowState::Closed,
            next_act: 0,
            next_pre: 0,
            next_rd: 0,
            next_wr: 0,
        }
    }

    /// Current row-buffer state.
    pub fn state(&self) -> RowState {
        self.state
    }

    /// `true` if `row` is open in the buffer.
    pub fn is_open(&self, row: usize) -> bool {
        self.state == RowState::Open(row)
    }

    /// Earliest legal issue cycle for `kind` at this bank (bank-local
    /// constraints only).
    pub fn earliest(&self, kind: CommandKind) -> u64 {
        match kind {
            CommandKind::Act => self.next_act,
            CommandKind::Pre | CommandKind::PreA => self.next_pre,
            CommandKind::Rd | CommandKind::Rda => self.next_rd,
            CommandKind::Wr | CommandKind::Wra => self.next_wr,
            CommandKind::Ref => self.next_act, // REF needs the bank idle
        }
    }

    /// `true` if `kind` targeting `row` is legal *structurally* (ignores
    /// timing): ACT needs a closed bank, column commands need the row open.
    pub fn permits(&self, kind: CommandKind, row: usize) -> bool {
        match kind {
            CommandKind::Act => self.state == RowState::Closed,
            CommandKind::Pre | CommandKind::PreA => true,
            CommandKind::Rd | CommandKind::Rda | CommandKind::Wr | CommandKind::Wra => {
                self.is_open(row)
            }
            CommandKind::Ref => self.state == RowState::Closed,
        }
    }

    /// Applies `kind` at cycle `now`, updating state and bank-local timing
    /// registers.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) if the command is structurally illegal or
    /// violates a bank-local timing constraint — the controller must only
    /// issue legal commands.
    pub fn issue(&mut self, kind: CommandKind, row: usize, now: u64, t: &Timing) {
        debug_assert!(self.permits(kind, row), "illegal {kind:?} in state {:?}", self.state);
        debug_assert!(now >= self.earliest(kind), "{kind:?} too early: {now} < {}", self.earliest(kind));
        match kind {
            CommandKind::Act => {
                self.state = RowState::Open(row);
                self.next_act = now + t.trc;
                self.next_pre = now + t.tras;
                self.next_rd = now + t.trcd;
                self.next_wr = now + t.trcd;
            }
            CommandKind::Pre | CommandKind::PreA => {
                self.state = RowState::Closed;
                self.next_act = self.next_act.max(now + t.trp);
            }
            CommandKind::Rd | CommandKind::Rda => {
                // Read-to-precharge.
                self.next_pre = self.next_pre.max(now + t.trtp);
                if kind == CommandKind::Rda {
                    self.state = RowState::Closed;
                    self.next_act = self.next_act.max(now + t.trtp + t.trp);
                }
            }
            CommandKind::Wr | CommandKind::Wra => {
                // Write recovery before precharge.
                self.next_pre = self.next_pre.max(now + t.cwl + t.tbl + t.twr);
                if kind == CommandKind::Wra {
                    self.state = RowState::Closed;
                    self.next_act = self.next_act.max(now + t.cwl + t.tbl + t.twr + t.trp);
                }
            }
            CommandKind::Ref => {
                self.next_act = self.next_act.max(now + t.trfc);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Timing {
        Timing::ddr4_2400_table3()
    }

    #[test]
    fn starts_closed_and_ready() {
        let b = Bank::new();
        assert_eq!(b.state(), RowState::Closed);
        assert_eq!(b.earliest(CommandKind::Act), 0);
        assert!(b.permits(CommandKind::Act, 5));
        assert!(!b.permits(CommandKind::Rd, 5));
    }

    #[test]
    fn act_opens_row_and_sets_trcd() {
        let t = t();
        let mut b = Bank::new();
        b.issue(CommandKind::Act, 7, 10, &t);
        assert!(b.is_open(7));
        assert!(!b.is_open(8));
        assert_eq!(b.earliest(CommandKind::Rd), 10 + t.trcd);
        assert_eq!(b.earliest(CommandKind::Act), 10 + t.trc);
        assert_eq!(b.earliest(CommandKind::Pre), 10 + t.tras);
    }

    #[test]
    fn pre_closes_and_enforces_trp() {
        let t = t();
        let mut b = Bank::new();
        b.issue(CommandKind::Act, 3, 0, &t);
        let pre_at = t.tras;
        b.issue(CommandKind::Pre, 3, pre_at, &t);
        assert_eq!(b.state(), RowState::Closed);
        // tRC from the ACT dominates tRP from the PRE here (tRAS+tRP = tRC).
        assert_eq!(b.earliest(CommandKind::Act), t.trc);
    }

    #[test]
    fn rda_auto_precharges() {
        let t = t();
        let mut b = Bank::new();
        b.issue(CommandKind::Act, 1, 0, &t);
        b.issue(CommandKind::Rda, 1, t.trcd, &t);
        assert_eq!(b.state(), RowState::Closed);
        assert!(b.earliest(CommandKind::Act) >= t.trcd + t.trtp + t.trp);
    }

    #[test]
    fn write_delays_precharge_by_recovery() {
        let t = t();
        let mut b = Bank::new();
        b.issue(CommandKind::Act, 1, 0, &t);
        b.issue(CommandKind::Wr, 1, t.trcd, &t);
        assert!(b.earliest(CommandKind::Pre) >= t.trcd + t.cwl + t.tbl + t.twr);
    }

    #[test]
    fn reads_then_precharge_at_tras_then_act_at_trc_are_legal() {
        let t = t();
        let mut b = Bank::new();
        // Precharge as soon as tRAS allows; the next ACT is gated by tRC.
        let steps = [
            (CommandKind::Act, 1, 0),
            (CommandKind::Rd, 1, t.trcd),
            (CommandKind::Rd, 1, t.trcd + t.tccd_s),
            (CommandKind::Pre, 1, t.tras),
            (CommandKind::Act, 2, t.trc),
        ];
        for (kind, row, at) in steps {
            assert!(b.permits(kind, row), "{kind:?} not permitted");
            assert!(b.earliest(kind) <= at, "{kind:?} at {at} is too early");
            b.issue(kind, row, at, &t);
        }
        assert!(b.is_open(2));
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn illegal_read_on_closed_bank_panics() {
        let t = t();
        let mut b = Bank::new();
        b.issue(CommandKind::Rd, 0, 0, &t);
    }
}
