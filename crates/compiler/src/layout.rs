//! DRAM placement of the task's tensors on one ENMC rank.
//!
//! Weights are laid out contiguously so the Screener can stream them with
//! maximal row-buffer locality; addresses are burst (64 B) aligned.

use crate::TaskDescriptor;

/// Base addresses of each tensor in one rank's address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryLayout {
    /// Quantized screening weights `W̃` (packed codes).
    pub screen_weights: u64,
    /// FP32 screening bias `b̃` (one float per category).
    pub screen_bias: u64,
    /// Full FP32 classifier `W` (+ bias appended).
    pub classifier: u64,
    /// Input feature vectors (batch × d FP32 + batch × k quantized).
    pub features: u64,
    /// Output logits region.
    pub outputs: u64,
    /// Total bytes occupied.
    pub end: u64,
}

/// Rounds `x` up to the next 64-byte burst boundary.
pub fn align_burst(x: u64) -> u64 {
    x.div_ceil(64) * 64
}

impl MemoryLayout {
    /// Packs the task's tensors from address 0 upward.
    pub fn for_task(task: &TaskDescriptor) -> Self {
        let screen_weights = 0u64;
        let code_bytes =
            task.screen_precision.nbytes(task.categories * task.reduced) as u64;
        let screen_bias = align_burst(screen_weights + code_bytes);
        let classifier = align_burst(screen_bias + task.categories as u64 * 4);
        let features_base = align_burst(classifier + task.classifier_bytes());
        let feature_bytes = task.batch as u64
            * (task.hidden as u64 * 4
                + task.screen_precision.nbytes(task.reduced) as u64);
        let outputs = align_burst(features_base + feature_bytes);
        let output_bytes = task.batch as u64 * task.categories as u64 * 4;
        let end = align_burst(outputs + output_bytes);
        MemoryLayout { screen_weights, screen_bias, classifier, features: features_base, outputs, end }
    }

    /// Address of FP32 classifier row `row`.
    pub fn classifier_row(&self, task: &TaskDescriptor, row: usize) -> u64 {
        self.classifier + row as u64 * task.row_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_burst_rounds_up() {
        assert_eq!(align_burst(0), 0);
        assert_eq!(align_burst(1), 64);
        assert_eq!(align_burst(64), 64);
        assert_eq!(align_burst(65), 128);
    }

    #[test]
    fn regions_are_ordered_and_disjoint() {
        let task = TaskDescriptor::paper_default(10_000, 512, 4);
        let l = MemoryLayout::for_task(&task);
        assert!(l.screen_weights < l.screen_bias);
        assert!(l.screen_bias < l.classifier);
        assert!(l.classifier < l.features);
        assert!(l.features < l.outputs);
        assert!(l.outputs < l.end);
        // Classifier region starts after all screening weights.
        assert!(l.classifier >= task.screen_weight_bytes());
    }

    #[test]
    fn classifier_rows_are_row_bytes_apart() {
        let task = TaskDescriptor::paper_default(100, 512, 1);
        let l = MemoryLayout::for_task(&task);
        assert_eq!(
            l.classifier_row(&task, 1) - l.classifier_row(&task, 0),
            task.row_bytes()
        );
    }

    #[test]
    fn everything_burst_aligned() {
        let task = TaskDescriptor::paper_default(12_345, 300, 3);
        let l = MemoryLayout::for_task(&task);
        for a in [l.screen_weights, l.screen_bias, l.classifier, l.features, l.outputs, l.end] {
            assert_eq!(a % 64, 0, "{a} not aligned");
        }
    }
}
