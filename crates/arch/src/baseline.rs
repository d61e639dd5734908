//! The NMP baselines (paper §6.2, Table 4): NDA, Chameleon, TensorDIMM and
//! TensorDIMM-Large, all equipped with the approximate screening algorithm
//! but limited to homogeneous FP32 compute units. Their rank units are
//! [`UnitParams::nmp_on`](crate::unit::UnitParams::nmp_on) engines, which
//! [`SystemModel::deployment`](crate::system::SystemModel::deployment)
//! builds on the memory preset in use.

use crate::config::NmpConfig;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{Scheme, SystemModel};
    use crate::unit::{RankJob, RankUnit, UnitParams};

    /// The baseline's rank-unit parameters on the Table 3 platform.
    fn params(kind: BaselineKind) -> UnitParams {
        let deployed = SystemModel::table3().deployment(Scheme::Baseline(kind));
        deployed.expect("NMP schemes deploy rank units").params
    }

    fn unit(kind: BaselineKind) -> RankUnit {
        RankUnit::new(params(kind))
    }

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
        let td = params(BaselineKind::TensorDimm);
        assert_eq!(td.screen_bits, 32);
        assert!(!td.inline_filter);
        let ch = params(BaselineKind::Chameleon);
        assert!(td.screen_macs_per_cycle > ch.screen_macs_per_cycle);
    }

    #[test]
    fn tensordimm_beats_chameleon() {
        // The paper's ordering (Fig. 13): TensorDIMM is the strongest
        // baseline, Chameleon the weakest.
        let j = job();
        let td = unit(BaselineKind::TensorDimm).simulate(&j);
        let ch = unit(BaselineKind::Chameleon).simulate(&j);
        let nda = unit(BaselineKind::Nda).simulate(&j);
        assert!(td.dram_cycles < nda.dram_cycles, "td {} nda {}", td.dram_cycles, nda.dram_cycles);
        assert!(nda.dram_cycles < ch.dram_cycles, "nda {} ch {}", nda.dram_cycles, ch.dram_cycles);
    }

    #[test]
    fn large_variant_is_faster() {
        let j = job();
        let td = unit(BaselineKind::TensorDimm).simulate(&j);
        let tdl = unit(BaselineKind::TensorDimmLarge).simulate(&j);
        assert!(tdl.dram_cycles < td.dram_cycles);
    }
}
