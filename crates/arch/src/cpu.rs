//! The CPU baseline (paper §6.2): Intel Xeon Platinum 8280.
//!
//! Extreme classification on the CPU is bandwidth-bound (Fig. 5b), so its
//! execution time is the roofline maximum of the bandwidth term and the
//! compute term. The cost accounting comes from `enmc_screen::cost` so the
//! algorithm-level (Fig. 11/12) and architecture-level (Fig. 13) numbers
//! share one model.

use enmc_screen::cost::{ClassificationCost, CpuCostModel};

/// The host-CPU performance model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModel {
    cost_model: CpuCostModel,
}

impl Default for CpuModel {
    fn default() -> Self {
        Self::xeon_8280()
    }
}

impl CpuModel {
    /// The paper's Xeon 8280 configuration (28 cores, 6×DDR4-2666,
    /// 512 GB, 128 GB/s ideal bandwidth).
    pub fn xeon_8280() -> Self {
        CpuModel { cost_model: CpuCostModel::default() }
    }

    /// Nanoseconds to execute `cost`.
    pub fn ns(&self, cost: &ClassificationCost) -> f64 {
        self.cost_model.seconds(cost) * 1e9
    }

    /// Nanoseconds for a full classification of shape `(l, d)` at `batch`.
    pub fn full_classification_ns(&self, l: usize, d: usize, batch: usize) -> f64 {
        self.ns(&ClassificationCost::full(l, d, batch))
    }

    /// Nanoseconds for approximate screening + candidates-only
    /// classification on the CPU: quantized screening weights streamed
    /// once per batch, `m` candidate rows gathered per query.
    pub fn screened_classification_ns(
        &self,
        l: usize,
        d: usize,
        k: usize,
        m: usize,
        screen_bits: u32,
        batch: usize,
    ) -> f64 {
        let screen_weight_bytes = (l * k * screen_bits as usize).div_ceil(8) as u64;
        let cost = ClassificationCost {
            fp32_macs: ((k * d + m * d) * batch) as u64,
            int_macs: (l * k * batch) as u64,
            bytes_read: screen_weight_bytes
                + l as u64 * 4
                + (batch * (m * d * 4 + d * 4)) as u64,
            bytes_written: (l * batch * 4) as u64,
        };
        self.ns(&cost)
    }

    /// Nanoseconds for a compute-bound front-end of `ops` MACs per query.
    pub fn front_end_ns(&self, ops: u64, batch: usize) -> f64 {
        (ops as f64 * batch as f64 / self.cost_model.peak_fp32_macs) * 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_classification_time_is_bandwidth_bound() {
        let cpu = CpuModel::xeon_8280();
        let ns = cpu.full_classification_ns(267_744, 512, 1);
        // 548 MB / ~97 GB/s ≈ 5.6 ms.
        let ms = ns / 1e6;
        assert!((4.0..9.0).contains(&ms), "{ms} ms");
    }

    #[test]
    fn screening_gives_high_single_digit_speedup() {
        // Paper §7.1/§7.2: approximate screening alone yields ~7.3× average
        // over full classification on CPU.
        let cpu = CpuModel::xeon_8280();
        let (l, d, k) = (267_744, 512, 128);
        // The paper's speedups (5.7-17.4x, 7.3x average) imply the exact
        // phase touches roughly 5-10% of the rows.
        let m = l / 20;
        let full = cpu.full_classification_ns(l, d, 1);
        let screened = cpu.screened_classification_ns(l, d, k, m, 4, 1);
        let speedup = full / screened;
        assert!((4.0..15.0).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn speedup_falls_with_more_candidates() {
        let cpu = CpuModel::xeon_8280();
        let (l, d, k) = (100_000, 512, 128);
        let fast = cpu.screened_classification_ns(l, d, k, 100, 4, 1);
        let slow = cpu.screened_classification_ns(l, d, k, 10_000, 4, 1);
        assert!(slow > fast);
    }

    #[test]
    fn front_end_scales_with_batch() {
        let cpu = CpuModel::xeon_8280();
        assert!(cpu.front_end_ns(1_000_000, 4) > cpu.front_end_ns(1_000_000, 1));
    }
}
