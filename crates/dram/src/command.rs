//! DDR4 command set.

use crate::mapping::Coord;

/// The kind of a DDR command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommandKind {
    /// Activate a row into the bank's row buffer.
    Act,
    /// Precharge (close) one bank's row buffer.
    Pre,
    /// Precharge all banks of a rank.
    PreA,
    /// Column read (row must be open).
    Rd,
    /// Column write (row must be open).
    Wr,
    /// Read with auto-precharge.
    Rda,
    /// Write with auto-precharge.
    Wra,
    /// Refresh (all banks of a rank).
    Ref,
}

impl CommandKind {
    /// `true` for column commands that move data on the DQ bus.
    pub fn is_column(self) -> bool {
        matches!(self, CommandKind::Rd | CommandKind::Wr | CommandKind::Rda | CommandKind::Wra)
    }

    /// `true` for reads (with or without auto-precharge).
    pub fn is_read(self) -> bool {
        matches!(self, CommandKind::Rd | CommandKind::Rda)
    }

    /// `true` for writes (with or without auto-precharge).
    pub fn is_write(self) -> bool {
        matches!(self, CommandKind::Wr | CommandKind::Wra)
    }

    /// `true` if the command auto-precharges its bank.
    pub fn auto_precharge(self) -> bool {
        matches!(self, CommandKind::Rda | CommandKind::Wra)
    }

    /// The conventional mnemonic, as it appears in trace output.
    pub fn name(self) -> &'static str {
        match self {
            CommandKind::Act => "ACT",
            CommandKind::Pre => "PRE",
            CommandKind::PreA => "PREA",
            CommandKind::Rd => "RD",
            CommandKind::Wr => "WR",
            CommandKind::Rda => "RDA",
            CommandKind::Wra => "WRA",
            CommandKind::Ref => "REF",
        }
    }
}

/// A fully addressed DDR command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Command {
    /// What to do.
    pub kind: CommandKind,
    /// Where (bank-level coordinates; row/column ignored where
    /// meaningless, e.g. for REF).
    pub coord: Coord,
}

impl Command {
    /// Convenience constructor.
    pub fn new(kind: CommandKind, coord: Coord) -> Self {
        Command { kind, coord }
    }
}

/// A command stamped with its issue cycle — one entry of the command log
/// the golden reference model replays (see [`crate::golden`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedCommand {
    /// Memory-clock cycle the command issued at.
    pub cycle: u64,
    /// The command.
    pub command: Command,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_predicates() {
        assert!(CommandKind::Rd.is_column());
        assert!(CommandKind::Wra.is_column());
        assert!(!CommandKind::Act.is_column());
        assert!(CommandKind::Rd.is_read());
        assert!(CommandKind::Rda.is_read());
        assert!(!CommandKind::Wr.is_read());
        assert!(CommandKind::Wr.is_write());
        assert!(CommandKind::Wra.is_write());
        assert!(CommandKind::Rda.auto_precharge());
        assert!(!CommandKind::Rd.auto_precharge());
    }

    #[test]
    fn mnemonics_are_distinct() {
        let all = [
            CommandKind::Act,
            CommandKind::Pre,
            CommandKind::PreA,
            CommandKind::Rd,
            CommandKind::Wr,
            CommandKind::Rda,
            CommandKind::Wra,
            CommandKind::Ref,
        ];
        let names: std::collections::HashSet<&str> = all.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), all.len());
    }
}
