//! Hardware configurations (paper Tables 3 and 4).

/// Configuration of the ENMC logic on one rank (Table 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnmcConfig {
    /// Logic frequency in MHz (Table 3: 400).
    pub freq_mhz: u64,
    /// INT4 multiply-accumulate lanes in the Screener (Table 3: 128).
    pub int4_macs: usize,
    /// Bits per screening-weight element (Table 3: 4; the auto-tuner
    /// explores wider screeners).
    pub screen_bits: u32,
    /// FP32 multiply-accumulate lanes in the Executor (Table 3: 16).
    pub fp32_macs: usize,
    /// Input-buffer capacity in bytes (Table 3: 256 B each).
    pub buffer_bytes: usize,
    /// Comparators in the threshold filter (one per INT4 lane).
    pub filter_width: usize,
    /// Tiles the Screener may have in flight (double buffering).
    pub prefetch_depth: usize,
}

impl Default for EnmcConfig {
    fn default() -> Self {
        Self::table3()
    }
}

impl EnmcConfig {
    /// The paper's Table 3 configuration.
    pub fn table3() -> Self {
        EnmcConfig {
            freq_mhz: 400,
            int4_macs: 128,
            screen_bits: 4,
            fp32_macs: 16,
            buffer_bytes: 256,
            filter_width: 128,
            prefetch_depth: 2,
        }
    }

    /// DRAM-bus cycles per logic cycle (DDR4-2400 bus at 1200 MHz).
    pub fn dram_cycles_per_logic_cycle(&self, dram_freq_mhz: u64) -> u64 {
        (dram_freq_mhz / self.freq_mhz).max(1)
    }
}

/// Configuration of a homogeneous NMP baseline (Table 4).
///
/// All baselines carry only FP32-class lanes; screening data must therefore
/// be stored and streamed at full precision, and filtering requires
/// materializing the approximate logits (no comparator array).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NmpConfig {
    /// Display name.
    pub name: &'static str,
    /// Logic frequency in MHz.
    pub freq_mhz: u64,
    /// FP32 lanes.
    pub fp32_macs: usize,
    /// Sustained utilization of the lanes on matrix-vector work (systolic
    /// arrays utilize poorly on MV; vector units utilize well).
    pub mv_efficiency: f64,
    /// On-logic working buffer in bytes.
    pub buffer_bytes: usize,
    /// Output/intermediate storage before spilling to DRAM, in bytes.
    pub spill_buffer_bytes: usize,
    /// Number of rank-level units (TensorDIMM-Large doubles them).
    pub units_per_channel: usize,
}

impl NmpConfig {
    /// NDA (Farmahini-Farahani et al., HPCA'15): 4×4 CGRA functional units
    /// + 1 KB memory. CGRAs sustain moderate MV utilization.
    pub fn nda() -> Self {
        NmpConfig {
            name: "NDA",
            freq_mhz: 400,
            fp32_macs: 16,
            mv_efficiency: 0.55,
            buffer_bytes: 1024,
            spill_buffer_bytes: 1024,
            units_per_channel: 8,
        }
    }

    /// Chameleon (Asghari-Moghaddam et al., MICRO'16): 4×4 systolic array
    /// plus 1 KB memory. Systolic arrays are built for matrix-matrix reuse
    /// and idle heavily on matrix-vector streams.
    pub fn chameleon() -> Self {
        NmpConfig {
            name: "Chameleon",
            freq_mhz: 400,
            fp32_macs: 16,
            mv_efficiency: 0.30,
            buffer_bytes: 1024,
            spill_buffer_bytes: 1024,
            units_per_channel: 8,
        }
    }

    /// TensorDIMM (Kwon et al., MICRO'19): 16-lane vector unit + three
    /// 512 B queues. Vector units stream MV well but the small queues
    /// spill intermediates.
    pub fn tensordimm() -> Self {
        NmpConfig {
            name: "TensorDIMM",
            freq_mhz: 400,
            fp32_macs: 16,
            mv_efficiency: 0.90,
            buffer_bytes: 512,
            spill_buffer_bytes: 512,
            units_per_channel: 8,
        }
    }

    /// TensorDIMM-Large: the scaled-up variant of Fig. 14/15 with 4× the
    /// lanes and buffering and twice the rank-units per channel (beyond
    /// the Table 4 iso-budget envelope).
    pub fn tensordimm_large() -> Self {
        NmpConfig {
            name: "TensorDIMM-Large",
            freq_mhz: 400,
            fp32_macs: 64,
            mv_efficiency: 0.90,
            buffer_bytes: 2048,
            spill_buffer_bytes: 2048,
            units_per_channel: 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_values() {
        let c = EnmcConfig::table3();
        assert_eq!(c.freq_mhz, 400);
        assert_eq!(c.int4_macs, 128);
        assert_eq!(c.fp32_macs, 16);
        assert_eq!(c.buffer_bytes, 256);
    }

    #[test]
    fn clock_ratio_is_three() {
        let c = EnmcConfig::table3();
        assert_eq!(c.dram_cycles_per_logic_cycle(1200), 3);
    }

    #[test]
    fn baselines_are_iso_lane_budget() {
        for b in [NmpConfig::nda(), NmpConfig::chameleon(), NmpConfig::tensordimm()] {
            assert_eq!(b.fp32_macs, 16, "{}", b.name);
        }
    }

    #[test]
    fn tensordimm_streams_best_chameleon_worst() {
        let (nda, cham, td) = (NmpConfig::nda(), NmpConfig::chameleon(), NmpConfig::tensordimm());
        assert!(td.mv_efficiency > nda.mv_efficiency);
        assert!(nda.mv_efficiency > cham.mv_efficiency);
    }

    #[test]
    fn large_variant_is_bigger() {
        let td = NmpConfig::tensordimm();
        let tdl = NmpConfig::tensordimm_large();
        assert!(tdl.fp32_macs > td.fp32_macs);
        assert!(tdl.spill_buffer_bytes > td.spill_buffer_bytes);
    }
}
