//! System energy: the three-way split of Fig. 14.
//!
//! *DRAM static* and *DRAM access* come from [`enmc_dram::energy`];
//! *computation & control logic* is computed here from the Table 5
//! component powers: MAC arrays draw power in proportion to their busy
//! time, while buffers and controllers draw power whenever the unit is
//! active.

use crate::physical::PhysicalModel;
use crate::unit::UnitReport;
use enmc_dram::energy::EnergyModel;
use enmc_dram::DramStats;

/// Power of each logic component, in milliwatts (Table 5 values for the
/// ENMC configuration; scaled for baselines by the physical model).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogicEnergyModel {
    /// Integer MAC array power when busy.
    pub int_array_mw: f64,
    /// FP32 MAC array power when busy.
    pub fp32_array_mw: f64,
    /// Compute buffers (always on while the unit runs).
    pub compute_buffer_mw: f64,
    /// Control buffers (instruction FIFO, status regs).
    pub control_buffer_mw: f64,
    /// ENMC controller.
    pub controller_mw: f64,
    /// On-DIMM DRAM controller.
    pub dram_ctrl_mw: f64,
    /// DRAM-bus clock period in picoseconds (converts cycles → time).
    pub tck_ps: f64,
}

impl LogicEnergyModel {
    /// Table 5's ENMC power breakdown, as the synthesis model
    /// ([`PhysicalModel::tsmc28`]) composes it.
    pub fn enmc_table5() -> Self {
        let p = PhysicalModel::tsmc28();
        LogicEnergyModel {
            int_array_mw: p.int4_mac.scale(128.0).power_mw,
            fp32_array_mw: p.fp32_mac.scale(16.0).power_mw,
            compute_buffer_mw: p.buffer_kb.power_mw,
            control_buffer_mw: p.control_buffer().power_mw,
            controller_mw: p.enmc_ctrl.power_mw,
            dram_ctrl_mw: p.dram_ctrl.power_mw,
            tck_ps: 833.0,
        }
    }

    /// A homogeneous-FP32 baseline drawing `total_mw` across its unit
    /// (Table 4 totals); MAC power scales with busy time, the remainder is
    /// always-on.
    pub fn baseline(total_mw: f64) -> Self {
        // Assume ~25% of the budget is the MAC array (Table 5's ratio).
        LogicEnergyModel {
            int_array_mw: 0.0,
            fp32_array_mw: total_mw * 0.25,
            compute_buffer_mw: total_mw * 0.30,
            control_buffer_mw: 0.0,
            controller_mw: total_mw * 0.15,
            dram_ctrl_mw: total_mw * 0.30,
            tck_ps: 833.0,
        }
    }

    /// Computation + control energy for one rank's run, in nanojoules.
    pub fn logic_nj(&self, r: &UnitReport) -> f64 {
        let s = |cycles: u64| cycles as f64 * self.tck_ps * 1e-12; // seconds
        let total = s(r.dram_cycles);
        let always_on_mw = self.compute_buffer_mw
            + self.control_buffer_mw
            + self.controller_mw
            + self.dram_ctrl_mw;
        let mj_per_s = 1e-3; // mW × s = mJ
        (self.int_array_mw * s(r.screener_busy)
            + self.fp32_array_mw * s(r.executor_busy + r.sfu_cycles)
            + always_on_mw * total)
            * mj_per_s
            * 1e9 // mJ → nJ... (mW·s = mJ; ×1e6 = nJ)
    }
}

/// The Fig. 14 energy decomposition for one scheme on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SystemEnergy {
    /// Background + refresh DRAM energy, nJ.
    pub dram_static_nj: f64,
    /// Activate + read/write DRAM energy, nJ.
    pub dram_access_nj: f64,
    /// Computation and control logic energy, nJ.
    pub logic_nj: f64,
}

impl SystemEnergy {
    /// The breakdown of a whole-system run: every rank's DRAM statistics
    /// (`ranks`, in rank order) priced under `dram_model` and summed in
    /// rank order, plus the ranks' summed `logic_nj`.
    pub fn of_ranks(ranks: &[DramStats], dram_model: &EnergyModel, logic_nj: f64) -> Self {
        let mut energy = SystemEnergy { logic_nj, ..SystemEnergy::default() };
        for stats in ranks {
            let dram = dram_model.breakdown(stats);
            energy.dram_static_nj += dram.static_nj;
            energy.dram_access_nj += dram.access_nj;
        }
        energy
    }

    /// Total energy in nanojoules.
    pub fn total_nj(&self) -> f64 {
        self.dram_static_nj + self.dram_access_nj + self.logic_nj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cycles: u64, busy: u64) -> UnitReport {
        UnitReport {
            dram_cycles: cycles,
            screener_busy: busy,
            executor_busy: busy / 2,
            sfu_cycles: 0,
            dram: DramStats { reads: 100, activations: 10, total_cycles: cycles, ..Default::default() },
            ..Default::default()
        }
    }

    #[test]
    fn logic_energy_grows_with_time_and_activity() {
        let m = LogicEnergyModel::enmc_table5();
        let short = m.logic_nj(&report(1000, 500));
        let long = m.logic_nj(&report(2000, 1000));
        assert!(long > short);
    }

    #[test]
    fn mj_to_nj_conversion_sane() {
        // 1000 cycles at 0.833 ns = 0.833 µs; always-on ≈ 217 mW
        // → 0.833e-6 s × 0.217 W ≈ 1.8e-7 J = 181 nJ.
        let m = LogicEnergyModel::enmc_table5();
        let r = report(1000, 0);
        let nj = m.logic_nj(&r);
        assert!((100.0..300.0).contains(&nj), "{nj} nJ");
    }

    #[test]
    fn table5_model_reads_the_synthesis_rows_bit_exactly() {
        let m = LogicEnergyModel::enmc_table5();
        let mw = [
            m.int_array_mw,
            m.fp32_array_mw,
            m.compute_buffer_mw,
            m.control_buffer_mw,
            m.controller_mw,
            m.dram_ctrl_mw,
        ];
        assert_eq!(mw, [10.4, 58.0, 56.8, 49.3, 32.9, 78.0]);
        assert_eq!(m.tck_ps, 833.0);
    }

    #[test]
    fn baseline_split_sums_to_total() {
        let m = LogicEnergyModel::baseline(300.0);
        let sum = m.fp32_array_mw + m.compute_buffer_mw + m.controller_mw + m.dram_ctrl_mw;
        assert!((sum - 300.0).abs() < 1e-9);
    }
}
