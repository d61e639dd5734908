//! The NMP baselines (paper §6.2, Table 4): NDA, Chameleon, TensorDIMM and
//! TensorDIMM-Large, all equipped with the approximate screening algorithm
//! but limited to homogeneous FP32 compute units.

use crate::config::NmpConfig;
use crate::unit::{RankUnit, UnitParams};

/// Which baseline architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaselineKind {
    /// NDA: CGRA-based near-DRAM acceleration (HPCA'15).
    Nda,
    /// Chameleon: systolic-array near-DRAM acceleration (MICRO'16).
    Chameleon,
    /// TensorDIMM: 16-lane vector unit per rank (MICRO'19).
    TensorDimm,
    /// TensorDIMM with 4× lanes and buffers (Fig. 14/15).
    TensorDimmLarge,
}

impl BaselineKind {
    /// The three Table 4 / Fig. 13 baselines.
    pub fn figure13() -> [BaselineKind; 3] {
        [BaselineKind::Nda, BaselineKind::Chameleon, BaselineKind::TensorDimm]
    }

    /// The hardware configuration.
    pub fn config(self) -> NmpConfig {
        match self {
            BaselineKind::Nda => NmpConfig::nda(),
            BaselineKind::Chameleon => NmpConfig::chameleon(),
            BaselineKind::TensorDimm => NmpConfig::tensordimm(),
            BaselineKind::TensorDimmLarge => NmpConfig::tensordimm_large(),
        }
    }
}

/// A baseline NMP rank-unit model.
#[derive(Debug, Clone)]
pub struct NmpBaseline {
    unit: RankUnit,
}

impl NmpBaseline {
    /// Builds the rank engine for `kind`.
    pub fn new(kind: BaselineKind) -> Self {
        NmpBaseline { unit: RankUnit::new(Self::params(kind)) }
    }

    /// The rank engine.
    pub fn unit(&self) -> &RankUnit {
        &self.unit
    }

    /// Derives [`UnitParams`] from the baseline's [`NmpConfig`]:
    /// homogeneous FP32 lanes (screening weights stored at 32 bits), no
    /// comparator array (spill-filter path), and the shared 1200 MHz DRAM
    /// bus clock.
    pub fn params(kind: BaselineKind) -> UnitParams {
        let cfg = kind.config();
        let lanes = cfg.fp32_macs as f64 * cfg.mv_efficiency;
        UnitParams {
            screen_bits: 32,
            screen_macs_per_cycle: lanes,
            fp32_macs_per_cycle: lanes,
            buffer_bytes: cfg.buffer_bytes,
            prefetch_depth: 2,
            clock_ratio: (1200 / cfg.freq_mhz).max(1),
            inline_filter: false,
            serial_phases: false,
            sfu_per_cycle: 1.0, // exp via Taylor on the general lanes
            dram: enmc_dram::DramConfig::enmc_single_rank(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::RankJob;

    fn job() -> RankJob {
        RankJob {
            categories: 2048,
            hidden: 512,
            reduced: 128,
            batch: 1,
            candidates_per_item: vec![16],
        }
    }

    #[test]
    fn params_reflect_configs() {
        let td = NmpBaseline::params(BaselineKind::TensorDimm);
        assert_eq!(td.screen_bits, 32);
        assert!(!td.inline_filter);
        let ch = NmpBaseline::params(BaselineKind::Chameleon);
        assert!(td.screen_macs_per_cycle > ch.screen_macs_per_cycle);
    }

    #[test]
    fn tensordimm_beats_chameleon() {
        // The paper's ordering (Fig. 13): TensorDIMM is the strongest
        // baseline, Chameleon the weakest.
        let j = job();
        let td = NmpBaseline::new(BaselineKind::TensorDimm).unit().simulate(&j);
        let ch = NmpBaseline::new(BaselineKind::Chameleon).unit().simulate(&j);
        let nda = NmpBaseline::new(BaselineKind::Nda).unit().simulate(&j);
        assert!(td.dram_cycles < nda.dram_cycles, "td {} nda {}", td.dram_cycles, nda.dram_cycles);
        assert!(nda.dram_cycles < ch.dram_cycles, "nda {} ch {}", nda.dram_cycles, ch.dram_cycles);
    }

    #[test]
    fn large_variant_is_faster() {
        let j = job();
        let td = NmpBaseline::new(BaselineKind::TensorDimm).unit().simulate(&j);
        let tdl = NmpBaseline::new(BaselineKind::TensorDimmLarge).unit().simulate(&j);
        assert!(tdl.dram_cycles < td.dram_cycles);
    }
}
