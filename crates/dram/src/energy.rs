//! DRAM energy model.
//!
//! Event energies and background power are derived from the Micron DDR4
//! 8 Gb ×8 power calculator (IDD0/IDD4R/IDD4W/IDD5B at VDD = 1.2 V),
//! scaled to a rank of eight devices. Fig. 14 of the paper splits energy
//! into *DRAM static* (background + refresh), *DRAM access* (activate +
//! read/write bursts) and *computation & control logic* (reported by the
//! architecture crate); this module provides the first two.

use crate::config::Timing;
use crate::stats::DramStats;

/// Extra DRAM energy per 64-byte burst for the eight (72,64) SEC-DED
/// decodes it carries, in nanojoules (≈15 pJ per decode at 22 nm, scaled
/// from the Table 5 methodology): what every read and write burst of a
/// rank with [`EnergyModel::ecc`] on pays.
pub const ECC_NJ_PER_BURST: f64 = 0.12;

/// Per-event energies (nanojoules) and background power (watts) for one
/// rank. Every system prices each of its ranks with its own statistics,
/// so a model never covers more than one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy of one ACT+PRE pair (row activation), nJ.
    pub act_nj: f64,
    /// Energy of one 64-byte read burst, nJ.
    pub read_nj: f64,
    /// Energy of one 64-byte write burst, nJ.
    pub write_nj: f64,
    /// Energy of one all-bank REF command, nJ.
    pub refresh_nj: f64,
    /// Background (standby + clocking) power, W.
    pub background_w: f64,
    /// Background power in precharge power-down, W.
    pub powerdown_w: f64,
    /// Memory-clock period in picoseconds (to convert cycles → time).
    pub tck_ps: f64,
    /// Refresh-interval stretch factor (`tREFI × m`, EDEN-style approximate
    /// DRAM). `1.0` is nominal 64 ms retention; `m > 1` issues `1/m` as many
    /// REF commands for `1/m` the refresh energy, at the cost of retention
    /// bit errors modeled by `enmc-fault`.
    pub refresh_interval_multiplier: f64,
    /// Whether the rank's controller carries SEC-DED ECC, charging
    /// [`ECC_NJ_PER_BURST`] on every read and write burst.
    pub ecc: bool,
}

impl EnergyModel {
    /// DDR4-2400 8 Gb ×8 rank (eight devices) on the Table 3 clock.
    pub fn ddr4_2400_rank() -> Self {
        EnergyModel {
            act_nj: 2.1,
            read_nj: 4.2,
            write_nj: 4.4,
            refresh_nj: 210.0,
            background_w: 0.38,
            powerdown_w: 0.11,
            tck_ps: Timing::ddr4_2400_table3().tck_ps as f64,
            refresh_interval_multiplier: 1.0,
            ecc: false,
        }
    }

    /// Returns the model with the refresh interval stretched by `m ≥ 1`
    /// (REF energy scales as `1/m`).
    ///
    /// # Panics
    ///
    /// Panics if `m` is not finite or `m < 1`.
    pub fn with_refresh_multiplier(mut self, m: f64) -> Self {
        assert!(m.is_finite() && m >= 1.0, "refresh multiplier must be >= 1, got {m}");
        self.refresh_interval_multiplier = m;
        self
    }

    /// The SEC-DED surcharge per read/write burst, nJ:
    /// [`ECC_NJ_PER_BURST`] with [`EnergyModel::ecc`] on, else 0.
    pub fn ecc_nj_per_burst(&self) -> f64 {
        if self.ecc {
            ECC_NJ_PER_BURST
        } else {
            0.0
        }
    }

    /// Refresh energy for `refreshes` nominal-schedule REF commands under
    /// the configured interval multiplier. The controller counters always
    /// record the *nominal* schedule; stretching tREFI by `m` issues `1/m`
    /// as many commands.
    pub fn refresh_energy_nj(&self, refreshes: u64) -> f64 {
        refreshes as f64 * self.refresh_nj / self.refresh_interval_multiplier
    }

    /// Computes the breakdown for observed activity.
    pub fn breakdown(&self, stats: &DramStats) -> EnergyBreakdown {
        let access_nj = stats.activations as f64 * self.act_nj
            + stats.reads as f64 * self.read_nj
            + stats.writes as f64 * self.write_nj
            + (stats.reads + stats.writes) as f64 * self.ecc_nj_per_burst();
        let refresh_nj = self.refresh_energy_nj(stats.refreshes);
        let seconds = stats.total_cycles as f64 * self.tck_ps * 1e-12;
        // Idle cycles draw power-down power; the rest standby power.
        let idle_s = stats.idle_cycles.min(stats.total_cycles) as f64 * self.tck_ps * 1e-12;
        let active_s = seconds - idle_s;
        let background_nj = (self.background_w * active_s + self.powerdown_w * idle_s) * 1e9;
        EnergyBreakdown {
            access_nj,
            static_nj: background_nj + refresh_nj,
        }
    }
}

/// DRAM energy split the way Fig. 14 plots it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Activate + read/write burst energy ("DRAM access").
    pub access_nj: f64,
    /// Background + refresh energy ("DRAM static cost").
    pub static_nj: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_energy_scales_with_traffic() {
        let m = EnergyModel::ddr4_2400_rank();
        let a = m.breakdown(&DramStats { reads: 100, activations: 10, ..Default::default() });
        let b = m.breakdown(&DramStats { reads: 200, activations: 20, ..Default::default() });
        assert!((b.access_nj - 2.0 * a.access_nj).abs() < 1e-9);
    }

    #[test]
    fn static_energy_scales_with_time() {
        let m = EnergyModel::ddr4_2400_rank();
        let e1 = m.breakdown(&DramStats { total_cycles: 1_000_000, ..Default::default() });
        let e8 = m.breakdown(&DramStats { total_cycles: 8_000_000, ..Default::default() });
        assert!((e8.static_nj - 8.0 * e1.static_nj).abs() < 1e-6);
    }

    #[test]
    fn idle_time_draws_powerdown_power() {
        let m = EnergyModel::ddr4_2400_rank();
        let active = m.breakdown(&DramStats { total_cycles: 10_000, ..Default::default() });
        let idle = m.breakdown(&DramStats {
            total_cycles: 10_000,
            idle_cycles: 10_000,
            ..Default::default()
        });
        assert!(idle.static_nj < active.static_nj * 0.5, "{} vs {}", idle.static_nj, active.static_nj);
    }

    #[test]
    fn refresh_counts_as_static() {
        let m = EnergyModel::ddr4_2400_rank();
        let without = m.breakdown(&DramStats { total_cycles: 100, ..Default::default() });
        let with =
            m.breakdown(&DramStats { total_cycles: 100, refreshes: 5, ..Default::default() });
        assert!(with.static_nj > without.static_nj);
        assert_eq!(with.access_nj, without.access_nj);
    }

    #[test]
    fn refresh_energy_scales_inversely_with_interval_multiplier() {
        let stats = DramStats { total_cycles: 100, refreshes: 40, ..Default::default() };
        let nominal = EnergyModel::ddr4_2400_rank();
        let background = nominal.breakdown(&DramStats { total_cycles: 100, ..Default::default() }).static_nj;
        let refresh_at = |m: f64| {
            nominal.with_refresh_multiplier(m).breakdown(&stats).static_nj - background
        };
        // m = 1 is the nominal 64 ms schedule; m = 4 issues a quarter of
        // the REF commands for a quarter of the energy.
        assert!((refresh_at(1.0) - 40.0 * nominal.refresh_nj).abs() < 1e-9);
        assert!((refresh_at(4.0) - 10.0 * nominal.refresh_nj).abs() < 1e-9);
        // Monotone nonincreasing along a sweep.
        let sweep: Vec<f64> = [1.0, 2.0, 4.0, 8.0, 16.0].iter().map(|&m| refresh_at(m)).collect();
        assert!(sweep.windows(2).all(|w| w[1] <= w[0]), "{sweep:?}");
    }

    #[test]
    fn refresh_multiplier_leaves_access_energy_alone() {
        let stats = DramStats { reads: 64, writes: 8, refreshes: 10, ..Default::default() };
        let a = EnergyModel::ddr4_2400_rank().breakdown(&stats);
        let b = EnergyModel::ddr4_2400_rank().with_refresh_multiplier(8.0).breakdown(&stats);
        assert_eq!(a.access_nj, b.access_nj);
        assert!(b.static_nj < a.static_nj);
    }

    #[test]
    fn ecc_surcharge_taxes_each_burst() {
        let stats = DramStats { reads: 100, writes: 20, activations: 10, ..Default::default() };
        let plain = EnergyModel::ddr4_2400_rank();
        let ecc = EnergyModel { ecc: true, ..plain };
        let delta = ecc.breakdown(&stats).access_nj - plain.breakdown(&stats).access_nj;
        assert!((delta - 120.0 * ECC_NJ_PER_BURST).abs() < 1e-9);
        assert_eq!(ecc.breakdown(&stats).static_nj, plain.breakdown(&stats).static_nj);
    }

    #[test]
    #[should_panic(expected = "refresh multiplier")]
    fn refresh_multiplier_below_one_rejected() {
        EnergyModel::ddr4_2400_rank().with_refresh_multiplier(0.5);
    }
}
