//! System energy: the three-way split of Fig. 14.
//!
//! *DRAM static* and *DRAM access* come from [`enmc_dram::energy`];
//! *computation & control logic* is computed here from the Table 5
//! component powers: MAC arrays draw power in proportion to their busy
//! time, while buffers and controllers draw power whenever the unit is
//! active.

use crate::unit::UnitReport;
use enmc_dram::energy::{EnergyBreakdown, EnergyModel};

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
    /// SEC-DED encode/decode logic on the weight stream (0 unless the rank
    /// runs with ECC; always-on while the unit is active, like the other
    /// datapath-adjacent logic).
    pub ecc_mw: f64,
    /// DRAM-bus clock period in picoseconds (converts cycles → time).
    pub tck_ps: f64,
}

impl LogicEnergyModel {
    /// Table 5's ENMC power breakdown.
    pub fn enmc_table5() -> Self {
        LogicEnergyModel {
            int_array_mw: 10.4,
            fp32_array_mw: 58.0,
            compute_buffer_mw: 56.8,
            control_buffer_mw: 49.3,
            controller_mw: 32.9,
            dram_ctrl_mw: 78.0,
            ecc_mw: 0.0,
            tck_ps: 833.0,
        }
    }

    /// Returns the model with SEC-DED encode/decode logic drawing `mw`
    /// milliwatts while the unit is active.
    ///
    /// # Panics
    ///
    /// Panics if `mw` is not finite or negative.
    pub fn with_ecc(mut self, mw: f64) -> Self {
        assert!(mw.is_finite() && mw >= 0.0, "ECC power must be >= 0, got {mw}");
        self.ecc_mw = mw;
        self
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
            ecc_mw: 0.0,
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
            + self.dram_ctrl_mw
            + self.ecc_mw;
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
    /// Assembles the breakdown for `ranks` symmetric rank-units, each
    /// having produced `per_rank` activity.
    pub fn from_rank(
        per_rank: &UnitReport,
        ranks: usize,
        dram_model: &EnergyModel,
        logic_model: &LogicEnergyModel,
    ) -> Self {
        let dram: EnergyBreakdown = dram_model.breakdown(&per_rank.dram);
        SystemEnergy {
            dram_static_nj: dram.static_nj * ranks as f64,
            dram_access_nj: dram.access_nj * ranks as f64,
            logic_nj: logic_model.logic_nj(per_rank) * ranks as f64,
        }
    }

    /// Total energy in nanojoules.
    pub fn total_nj(&self) -> f64 {
        self.dram_static_nj + self.dram_access_nj + self.logic_nj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enmc_dram::DramStats;

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
    fn system_energy_scales_with_ranks() {
        let m = LogicEnergyModel::enmc_table5();
        let dm = EnergyModel::ddr4_2400_rank(1);
        let r = report(1000, 100);
        let one = SystemEnergy::from_rank(&r, 1, &dm, &m);
        let many = SystemEnergy::from_rank(&r, 64, &dm, &m);
        assert!((many.total_nj() - 64.0 * one.total_nj()).abs() < 1e-6 * many.total_nj());
    }

    #[test]
    fn ecc_logic_power_adds_to_always_on_draw() {
        let plain = LogicEnergyModel::enmc_table5();
        let ecc = plain.with_ecc(12.0);
        let r = report(1000, 100);
        let delta = ecc.logic_nj(&r) - plain.logic_nj(&r);
        // 12 mW over 1000 cycles × 0.833 ns ≈ 10 nJ.
        let expect = 12.0 * 1000.0 * 833.0e-12 * 1e-3 * 1e9;
        assert!((delta - expect).abs() < 1e-6, "{delta} vs {expect}");
    }

    #[test]
    fn baseline_split_sums_to_total() {
        let m = LogicEnergyModel::baseline(300.0);
        let sum = m.fp32_array_mw + m.compute_buffer_mw + m.controller_mw + m.dram_ctrl_mw;
        assert!((sum - 300.0).abs() < 1e-9);
    }
}
