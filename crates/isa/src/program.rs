//! Instruction sequences and their summary statistics.

use crate::asm;
use crate::inst::Instruction;
use crate::IsaError;

/// An ordered ENMC instruction sequence, as produced by the compiler or the
/// assembler.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    instructions: Vec<Instruction>,
}

/// Instruction-mix summary of a program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgramStats {
    /// Total instructions.
    pub total: usize,
    /// Compute-class instructions.
    pub compute: usize,
    /// Data-transfer-class instructions.
    pub transfer: usize,
    /// Control/initialization instructions.
    pub control: usize,
    /// Instructions that carry a DQ payload.
    pub with_data: usize,
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses assembly text.
    ///
    /// # Errors
    ///
    /// Propagates [`IsaError::Parse`] with line information.
    pub fn parse(text: &str) -> Result<Self, IsaError> {
        Ok(Program { instructions: asm::assemble(text)? })
    }

    /// Appends one instruction.
    pub fn push(&mut self, inst: Instruction) {
        self.instructions.push(inst);
    }

    /// The instructions in order.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Iterates over the instructions.
    pub fn iter(&self) -> std::slice::Iter<'_, Instruction> {
        self.instructions.iter()
    }

    /// Disassembles the whole program to text.
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        for inst in &self.instructions {
            out.push_str(&asm::disassemble(inst));
            out.push('\n');
        }
        out
    }

    /// Computes the instruction-mix summary.
    pub fn stats(&self) -> ProgramStats {
        let mut s = ProgramStats { total: self.instructions.len(), ..Default::default() };
        for i in &self.instructions {
            if i.is_compute() {
                s.compute += 1;
            } else if i.is_transfer() {
                s.transfer += 1;
            } else {
                s.control += 1;
            }
            if i.has_data() {
                s.with_data += 1;
            }
        }
        s
    }

    /// Total bytes on the command/data wires: 2 per command word (13 bits
    /// rounded up) + 8 per DQ payload. Used to budget instruction
    /// bandwidth against regular memory traffic.
    pub fn wire_bytes(&self) -> u64 {
        self.instructions
            .iter()
            .map(|i| 2 + if i.has_data() { 8 } else { 0 })
            .sum()
    }
}

impl FromIterator<Instruction> for Program {
    fn from_iter<I: IntoIterator<Item = Instruction>>(iter: I) -> Self {
        Program { instructions: iter.into_iter().collect() }
    }
}

impl<'a> IntoIterator for &'a Program {
    type Item = &'a Instruction;
    type IntoIter = std::slice::Iter<'a, Instruction>;
    fn into_iter(self) -> Self::IntoIter {
        self.instructions.iter()
    }
}

impl Extend<Instruction> for Program {
    fn extend<I: IntoIterator<Item = Instruction>>(&mut self, iter: I) {
        self.instructions.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BufferId, RegId};

    fn sample() -> Program {
        [
            Instruction::Init { reg: RegId::VocabSize, data: 1000 },
            Instruction::Ldr { buffer: BufferId::FeatureInt4, addr: 0 },
            Instruction::MulAddInt4 { a: BufferId::FeatureInt4, b: BufferId::WeightInt4 },
            Instruction::Filter { buffer: BufferId::PsumInt4 },
            Instruction::Return,
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn stats_classify_instructions() {
        let s = sample().stats();
        assert_eq!(s.total, 5);
        assert_eq!(s.compute, 2); // MulAdd + Filter
        assert_eq!(s.transfer, 1); // Ldr
        assert_eq!(s.control, 2); // Init + Return
        assert_eq!(s.with_data, 2); // Init + Ldr
    }

    #[test]
    fn wire_bytes_accounts_payloads() {
        // 5 commands × 2 B + 2 payloads × 8 B.
        assert_eq!(sample().wire_bytes(), 26);
    }

    #[test]
    fn parse_and_disassemble_roundtrip() {
        let p = sample();
        let text = p.disassemble();
        let back = Program::parse(&text).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn collect_from_iterator() {
        let p: Program = vec![Instruction::Nop, Instruction::Return].into_iter().collect();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn extend_appends() {
        let mut p = Program::new();
        p.extend(vec![Instruction::Nop]);
        p.push(Instruction::Clr);
        assert_eq!(p.instructions().len(), 2);
    }
}
