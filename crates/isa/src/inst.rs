//! The typed ENMC instruction set (paper Table 1).

/// On-DIMM buffers addressable by data-transfer and compute instructions
/// (paper Fig. 7: two input buffers + PSUM per unit, plus output and index
/// buffers). Encoded in 4 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufferId {
    /// Screener input: quantized feature vector.
    FeatureInt4,
    /// Screener input: quantized screening-weight tile.
    WeightInt4,
    /// Screener partial sums.
    PsumInt4,
    /// Executor input: FP32 feature vector.
    FeatureFp32,
    /// Executor input: FP32 classifier-weight rows.
    WeightFp32,
    /// Executor partial sums.
    PsumFp32,
    /// Result buffer returned to the host.
    Output,
    /// Candidate indices produced by FILTER.
    Index,
}

impl BufferId {
    /// All buffers, in encoding order.
    pub const ALL: [BufferId; 8] = [
        BufferId::FeatureInt4,
        BufferId::WeightInt4,
        BufferId::PsumInt4,
        BufferId::FeatureFp32,
        BufferId::WeightFp32,
        BufferId::PsumFp32,
        BufferId::Output,
        BufferId::Index,
    ];

    /// 4-bit encoding.
    pub fn code(self) -> u8 {
        Self::ALL.iter().position(|&b| b == self).expect("in table") as u8
    }

    /// Decodes a 4-bit field.
    pub fn from_code(code: u8) -> Option<Self> {
        Self::ALL.get(code as usize).copied()
    }

    /// The mnemonic operand syntax (`buffer_N`).
    pub fn mnemonic(self) -> String {
        format!("buffer_{}", self.code())
    }
}

/// Status registers in the ENMC controller (paper §5.2: "addresses and
/// sizes of input features, vocabulary, and screening weight", plus the
/// instruction counter). Encoded in 5 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegId {
    /// Base DRAM address of the input feature vectors.
    FeatureAddr,
    /// Number of features (batch × hidden dim elements).
    FeatureSize,
    /// Base DRAM address of the quantized screening weights.
    ScreenWeightAddr,
    /// Size of the screening weight array in bytes.
    ScreenWeightSize,
    /// Base DRAM address of the full classifier weights.
    ClassifierAddr,
    /// Vocabulary / category count `l`.
    VocabSize,
    /// Hidden dimension `d`.
    HiddenDim,
    /// Reduced dimension `k`.
    ReducedDim,
    /// Preloaded FILTER threshold (IEEE-754 bits).
    Threshold,
    /// Executed-instruction counter (read-only from the host).
    InstCounter,
    /// Completed-batch counter.
    BatchCounter,
    /// Number of candidates produced by the last FILTER.
    CandidateCount,
    /// Base DRAM address of the screening bias vector.
    ScreenBiasAddr,
    /// Per-tensor scale of the quantized screening weights (f32 bits).
    WeightScale,
    /// Per-tensor scale of the quantized feature vector (f32 bits).
    FeatureScale,
}

impl RegId {
    /// All registers, in encoding order.
    pub const ALL: [RegId; 15] = [
        RegId::FeatureAddr,
        RegId::FeatureSize,
        RegId::ScreenWeightAddr,
        RegId::ScreenWeightSize,
        RegId::ClassifierAddr,
        RegId::VocabSize,
        RegId::HiddenDim,
        RegId::ReducedDim,
        RegId::Threshold,
        RegId::InstCounter,
        RegId::BatchCounter,
        RegId::CandidateCount,
        RegId::ScreenBiasAddr,
        RegId::WeightScale,
        RegId::FeatureScale,
    ];

    /// 5-bit encoding.
    pub fn code(self) -> u8 {
        Self::ALL.iter().position(|&r| r == self).expect("in table") as u8
    }

    /// Decodes a 5-bit field.
    pub fn from_code(code: u8) -> Option<Self> {
        Self::ALL.get(code as usize).copied()
    }

    /// The mnemonic operand syntax (`reg_N`).
    pub fn mnemonic(self) -> String {
        format!("reg_{}", self.code())
    }
}

/// One ENMC instruction (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instruction {
    /// Initialize a status register with a 64-bit value (DQ burst).
    Init {
        /// Target register.
        reg: RegId,
        /// Value transferred over the DQ bus.
        data: u64,
    },
    /// Load a DRAM burst into an on-DIMM buffer.
    Ldr {
        /// Destination buffer.
        buffer: BufferId,
        /// DRAM byte address (DQ burst).
        addr: u64,
    },
    /// Store a buffer back to DRAM.
    Str {
        /// Source buffer.
        buffer: BufferId,
        /// DRAM byte address (DQ burst).
        addr: u64,
    },
    /// Copy between two buffers (e.g. PSUM → Output).
    Move {
        /// Destination.
        dst: BufferId,
        /// Source.
        src: BufferId,
    },
    /// Element-wise INT4 addition of two buffers.
    AddInt4 {
        /// First operand.
        a: BufferId,
        /// Second operand.
        b: BufferId,
    },
    /// Element-wise INT4 multiplication.
    MulInt4 {
        /// First operand.
        a: BufferId,
        /// Second operand.
        b: BufferId,
    },
    /// Element-wise FP32 addition.
    AddFp32 {
        /// First operand.
        a: BufferId,
        /// Second operand.
        b: BufferId,
    },
    /// Element-wise FP32 multiplication.
    MulFp32 {
        /// First operand.
        a: BufferId,
        /// Second operand.
        b: BufferId,
    },
    /// Multiply feature × weight buffers, accumulate into the INT4 PSUM.
    MulAddInt4 {
        /// Feature buffer.
        a: BufferId,
        /// Weight buffer.
        b: BufferId,
    },
    /// Multiply feature × weight buffers, accumulate into the FP32 PSUM.
    MulAddFp32 {
        /// Feature buffer.
        a: BufferId,
        /// Weight buffer.
        b: BufferId,
    },
    /// Threshold-filter a buffer; indices of survivors go to the index
    /// buffer.
    Filter {
        /// Buffer to filter (normally the INT4 PSUM).
        buffer: BufferId,
    },
    /// Softmax over the FP32 PSUM buffer (special-function unit).
    Softmax,
    /// Sigmoid over the FP32 PSUM buffer (special-function unit).
    Sigmoid,
    /// Wait until outstanding memory/compute/data movement completes.
    Barrier,
    /// Pipeline bubble.
    Nop,
    /// Read a status register back to the host.
    Query {
        /// Register to read.
        reg: RegId,
    },
    /// Return the output buffer to the host.
    Return,
    /// Clear and reset all buffers and registers.
    Clr,
}

impl Instruction {
    /// `true` if this instruction carries a 64-bit DQ payload.
    pub fn has_data(&self) -> bool {
        matches!(
            self,
            Instruction::Init { .. } | Instruction::Ldr { .. } | Instruction::Str { .. }
        )
    }

    /// `true` for compute instructions (the paper's Compute class).
    pub fn is_compute(&self) -> bool {
        matches!(
            self,
            Instruction::AddInt4 { .. }
                | Instruction::MulInt4 { .. }
                | Instruction::AddFp32 { .. }
                | Instruction::MulFp32 { .. }
                | Instruction::MulAddInt4 { .. }
                | Instruction::MulAddFp32 { .. }
                | Instruction::Filter { .. }
                | Instruction::Softmax
                | Instruction::Sigmoid
                | Instruction::Barrier
                | Instruction::Nop
        )
    }

    /// `true` for data-transfer instructions.
    pub fn is_transfer(&self) -> bool {
        matches!(
            self,
            Instruction::Ldr { .. } | Instruction::Str { .. } | Instruction::Move { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_codes_roundtrip() {
        for b in BufferId::ALL {
            assert_eq!(BufferId::from_code(b.code()), Some(b));
            assert!(b.code() < 16, "must fit 4 bits");
        }
        assert_eq!(BufferId::from_code(15), None);
    }

    #[test]
    fn reg_codes_roundtrip() {
        for r in RegId::ALL {
            assert_eq!(RegId::from_code(r.code()), Some(r));
            assert!(r.code() < 32, "must fit 5 bits");
        }
        assert_eq!(RegId::from_code(31), None);
        assert_eq!(RegId::ALL.len(), 15);
    }

    #[test]
    fn payload_classification() {
        assert!(Instruction::Init { reg: RegId::Threshold, data: 1 }.has_data());
        assert!(Instruction::Ldr { buffer: BufferId::FeatureInt4, addr: 64 }.has_data());
        assert!(!Instruction::Softmax.has_data());
        assert!(!Instruction::Query { reg: RegId::InstCounter }.has_data());
    }

    #[test]
    fn class_predicates() {
        assert!(Instruction::MulAddInt4 { a: BufferId::FeatureInt4, b: BufferId::WeightInt4 }
            .is_compute());
        assert!(Instruction::Move { dst: BufferId::Output, src: BufferId::PsumFp32 }
            .is_transfer());
        assert!(!Instruction::Return.is_compute());
        assert!(!Instruction::Return.is_transfer());
    }

    #[test]
    fn mnemonics() {
        assert_eq!(BufferId::FeatureInt4.mnemonic(), "buffer_0");
        assert_eq!(RegId::FeatureAddr.mnemonic(), "reg_0");
    }
}
