//! Cost accounting and the bandwidth-bound CPU speedup model.
//!
//! The algorithm-level speedups of Fig. 11/12 are reported relative to full
//! classification on the CPU baseline. Extreme classification on CPU is
//! bandwidth-bound (Fig. 5b), so execution time is modelled as
//! `max(bytes/BW, flops/peak)` — in practice the byte term dominates for
//! every kernel here. The same accounting feeds the architecture simulator.

/// Operation and byte counts of one classification strategy for one query
/// batch.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClassificationCost {
    /// Multiply-accumulate operations at full (FP32) precision.
    pub fp32_macs: u64,
    /// Multiply-accumulate operations at reduced (integer) precision.
    pub int_macs: u64,
    /// Bytes read from memory (weights + activations).
    pub bytes_read: u64,
    /// Bytes written to memory (outputs, spills).
    pub bytes_written: u64,
}

impl ClassificationCost {
    /// Cost of a full classification: `l × d` FP32 MACs and streaming the
    /// whole weight matrix plus bias.
    pub fn full(l: usize, d: usize, batch: usize) -> Self {
        let macs = l as u64 * d as u64 * batch as u64;
        ClassificationCost {
            fp32_macs: macs,
            int_macs: 0,
            // Weights are streamed once per batch (they do not fit in
            // cache); outputs written per query.
            bytes_read: l as u64 * d as u64 * 4 + l as u64 * 4 + (batch * d) as u64 * 4,
            bytes_written: (l * batch) as u64 * 4,
        }
    }

    /// Element-wise sum of two costs.
    pub fn add(&self, other: &ClassificationCost) -> ClassificationCost {
        ClassificationCost {
            fp32_macs: self.fp32_macs + other.fp32_macs,
            int_macs: self.int_macs + other.int_macs,
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_written: self.bytes_written + other.bytes_written,
        }
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

/// Bandwidth/compute model of the CPU baseline (Xeon 8280, §6.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuCostModel {
    /// Sustained memory bandwidth in bytes/second.
    pub bandwidth: f64,
    /// Peak FP32 MACs/second.
    pub peak_fp32_macs: f64,
    /// Peak integer MACs/second (VNNI-style, higher than FP32).
    pub peak_int_macs: f64,
}

impl Default for CpuCostModel {
    fn default() -> Self {
        // 128 GB/s ideal, ~76% sustained on streaming kernels; AVX-512:
        // 28 cores × 2.7 GHz × 32 FP32 MAC/cycle; int8 ~2× that.
        CpuCostModel {
            bandwidth: 128.0e9 * 0.76,
            peak_fp32_macs: 28.0 * 2.7e9 * 32.0,
            peak_int_macs: 28.0 * 2.7e9 * 64.0,
        }
    }
}

impl CpuCostModel {
    /// Execution time of a cost on this CPU: the max of the bandwidth term
    /// and the compute term (roofline).
    pub fn seconds(&self, cost: &ClassificationCost) -> f64 {
        let mem = cost.total_bytes() as f64 / self.bandwidth;
        let compute = cost.fp32_macs as f64 / self.peak_fp32_macs
            + cost.int_macs as f64 / self.peak_int_macs;
        mem.max(compute)
    }

    /// Speedup of `approx` relative to `baseline` (both on this CPU).
    pub fn speedup(&self, baseline: &ClassificationCost, approx: &ClassificationCost) -> f64 {
        self.seconds(baseline) / self.seconds(approx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_cost_scales_with_shape() {
        let a = ClassificationCost::full(1000, 512, 1);
        let b = ClassificationCost::full(2000, 512, 1);
        assert_eq!(b.fp32_macs, 2 * a.fp32_macs);
        assert!(b.bytes_read > a.bytes_read);
    }

    #[test]
    fn add_is_elementwise() {
        let a = ClassificationCost { fp32_macs: 1, int_macs: 2, bytes_read: 3, bytes_written: 4 };
        let s = a.add(&a);
        assert_eq!(s.fp32_macs, 2);
        assert_eq!(s.int_macs, 4);
        assert_eq!(s.total_bytes(), 14);
    }

    #[test]
    fn full_classification_is_bandwidth_bound() {
        let model = CpuCostModel::default();
        let cost = ClassificationCost::full(267_744, 512, 1);
        let mem = cost.total_bytes() as f64 / model.bandwidth;
        assert!((model.seconds(&cost) - mem).abs() / mem < 1e-9);
    }

    #[test]
    fn speedup_matches_byte_ratio_when_memory_bound() {
        let model = CpuCostModel::default();
        let full = ClassificationCost::full(100_000, 512, 1);
        let cheap = ClassificationCost {
            fp32_macs: 0,
            int_macs: full.fp32_macs / 4,
            bytes_read: full.bytes_read / 32,
            bytes_written: full.bytes_written,
        };
        let s = model.speedup(&full, &cheap);
        let byte_ratio = full.total_bytes() as f64 / cheap.total_bytes() as f64;
        assert!((s - byte_ratio).abs() / byte_ratio < 0.05, "{s} vs {byte_ratio}");
    }
}
