//! Programming support for ENMC (paper §5.4, Fig. 9).
//!
//! The paper wraps ENMC kernels in high-level APIs; "when translating the
//! applications into ENMC instructions, the compiler tiles the operation
//! with initialized parameters and hardware configurations and executes the
//! instruction in a loop". This crate is that compiler:
//!
//! * [`TaskDescriptor`] — the classification task as the host sees it
//!   (shapes, precisions, selection threshold, base addresses);
//! * [`Tiling`] — how matrices are cut into buffer-sized tiles given the
//!   hardware configuration (256-byte buffers, Table 3);
//! * [`lower_screening`] — emits the screening-phase program
//!   (INIT → per-batch LDR/MUL_ADD_INT4 loop → FILTER → BARRIER → RETURN);
//!   candidate-only FP32 instructions are generated *at runtime* by the
//!   ENMC controller's instruction generator (paper §5.2), so they are not
//!   part of the static program;
//! * [`lower_full_classification`] — the homogeneous FP32 program a naive
//!   NMP baseline (e.g. TensorDIMM) runs for the same task, used by the
//!   architecture comparison;
//! * [`estimate_candidate_program`] — the instruction count the controller
//!   generates per candidate, for budgeting.

pub mod layout;
pub mod lower;
pub mod tile;

pub use layout::MemoryLayout;
pub use lower::{estimate_candidate_program, lower_full_classification, lower_screening};
pub use tile::Tiling;

use enmc_tensor::quant::Precision;

/// A classification task to compile.
#[derive(Debug, Clone)]
pub struct TaskDescriptor {
    /// Category count `l`.
    pub categories: usize,
    /// Hidden dimension `d`.
    pub hidden: usize,
    /// Reduced (screening) dimension `k`.
    pub reduced: usize,
    /// Screening precision (INT4 in the paper's configuration).
    pub screen_precision: Precision,
    /// Batch size.
    pub batch: usize,
    /// FILTER threshold as IEEE-754 bits (preloaded into a status reg).
    pub threshold_bits: u32,
    /// Per-tensor scale of the quantized screening weights (f32 bits).
    pub weight_scale_bits: u32,
    /// Per-tensor scale of the quantized feature vector (f32 bits).
    pub feature_scale_bits: u32,
    /// Use SOFTMAX (`true`) or SIGMOID (`false`) in the Executor.
    pub softmax: bool,
}

impl TaskDescriptor {
    /// A task with the paper's default configuration (scale 0.25 → `k =
    /// d/4`, INT4 screening, softmax).
    pub fn paper_default(categories: usize, hidden: usize, batch: usize) -> Self {
        TaskDescriptor {
            categories,
            hidden,
            reduced: (hidden / 4).max(1),
            screen_precision: Precision::Int4,
            batch,
            threshold_bits: 0f32.to_bits(),
            weight_scale_bits: 1f32.to_bits(),
            feature_scale_bits: 1f32.to_bits(),
            softmax: true,
        }
    }

    /// Bytes of quantized screening weights (`l × k` at the screening
    /// precision) plus the FP32 screening bias.
    pub fn screen_weight_bytes(&self) -> u64 {
        self.screen_precision.nbytes(self.categories * self.reduced) as u64
            + self.categories as u64 * 4
    }

    /// Bytes of the full classifier (`l × d` FP32 + bias).
    pub fn classifier_bytes(&self) -> u64 {
        self.categories as u64 * self.hidden as u64 * 4 + self.categories as u64 * 4
    }

    /// Bytes of one FP32 classifier row.
    pub fn row_bytes(&self) -> u64 {
        self.hidden as u64 * 4
    }
}

/// Compiler errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A task dimension was zero.
    EmptyTask(&'static str),
    /// The hardware buffer cannot hold even one element row.
    BufferTooSmall {
        /// Required bytes for the smallest schedulable unit.
        needed: usize,
        /// Available buffer bytes.
        available: usize,
    },
}

impl core::fmt::Display for CompileError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CompileError::EmptyTask(what) => write!(f, "task has zero {what}"),
            CompileError::BufferTooSmall { needed, available } => {
                write!(f, "buffer too small: need {needed} B, have {available} B")
            }
        }
    }
}

impl std::error::Error for CompileError {}
