//! Memory-technology presets: the device as a *parameter*, not a constant.
//!
//! Every earlier layer of the reproduction pinned the platform to the
//! paper's Table 3 DDR4 bin — timing constants, conformance rules, energy
//! coefficients, and the fault models all assumed one device. This crate
//! bundles everything device-specific into a [`MemPreset`] selected by a
//! [`MemTech`] tag, in the picoram style of a `Timings` value chosen per
//! device:
//!
//! * JEDEC-style timing constraints ([`enmc_dram::config::Timing`]) that
//!   the controller, `TimingChecker`, and golden model all derive their
//!   constraint sets from,
//! * bank/channel geometry ([`enmc_dram::config::Organization`]),
//! * per-command and background energy coefficients
//!   ([`enmc_dram::energy::EnergyModel`]), and
//! * a per-technology [`ErrorProfile`] (BER scale, retention-curve base,
//!   weak-column incidence) consumed by `enmc-fault`.
//!
//! The [`MemTech::Ddr4_2666`] baseline reproduces the existing Table 3
//! platform **bit-exactly** (same `DramConfig`, same `EnergyModel`), so
//! selecting no preset — or the default one — changes nothing about any
//! report the repo has ever blessed. The other three presets are
//! plausible same-capacity stand-ins for their families, not certified
//! JEDEC bins; DESIGN.md documents what each models and omits.

use enmc_dram::config::{DramConfig, Organization, PagePolicy, Timing};
use enmc_dram::energy::EnergyModel;

/// The four supported memory technologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemTech {
    /// The paper's Table 3 DDR4 reference bin (the docs' "DDR4-2666"
    /// platform). Bit-exact alias of the pre-preset configuration.
    Ddr4_2666,
    /// DDR5-4800-class: twice the transfer rate, 8 bank groups, higher
    /// absolute core latencies, on-die-ECC-assisted error profile.
    Ddr5_4800,
    /// LPDDR4-3200-class: low background power, slower core timing,
    /// weaker retention.
    Lpddr4_3200,
    /// HBM2-style wide/slow-clock stack: short latencies in cycles at a
    /// 1 GHz clock, high background power, strong retention.
    Hbm2,
}

impl MemTech {
    /// All presets, in canonical (baseline-first) order.
    pub const ALL: [MemTech; 4] =
        [MemTech::Ddr4_2666, MemTech::Ddr5_4800, MemTech::Lpddr4_3200, MemTech::Hbm2];

    /// Canonical CLI / report name.
    pub fn name(&self) -> &'static str {
        match self {
            MemTech::Ddr4_2666 => "ddr4-2666",
            MemTech::Ddr5_4800 => "ddr5-4800",
            MemTech::Lpddr4_3200 => "lpddr4-3200",
            MemTech::Hbm2 => "hbm2",
        }
    }

    /// Short label used in design-point names (`m<label>` suffix).
    pub fn short(&self) -> &'static str {
        match self {
            MemTech::Ddr4_2666 => "d4",
            MemTech::Ddr5_4800 => "d5",
            MemTech::Lpddr4_3200 => "lp4",
            MemTech::Hbm2 => "hbm",
        }
    }

    /// The full preset bundle for this technology.
    pub fn preset(&self) -> MemPreset {
        match self {
            MemTech::Ddr4_2666 => MemPreset::ddr4_2666(),
            MemTech::Ddr5_4800 => MemPreset::ddr5_4800(),
            MemTech::Lpddr4_3200 => MemPreset::lpddr4_3200(),
            MemTech::Hbm2 => MemPreset::hbm2(),
        }
    }
}

impl Default for MemTech {
    fn default() -> Self {
        MemTech::Ddr4_2666
    }
}

impl std::fmt::Display for MemTech {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-technology error behavior, consumed by `enmc-fault` (EDEN-style:
/// different DRAM families sit at different points on the
/// retention/variation curves).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorProfile {
    /// Multiplier on the ambient bit-error rate a fault sweep requests
    /// (on-die ECC pushes it below 1; LPDDR's density/voltage push above).
    pub ber_scale: f64,
    /// Base coefficient of the retention-failure curve
    /// `p = base · (m − 1)²` for refresh-interval multiplier `m`.
    pub retention_base: f64,
    /// Multiplier on the weak-column incidence fraction.
    pub weak_column_scale: f64,
}

impl ErrorProfile {
    /// The baseline DDR4 profile: exactly the pre-preset fault-model
    /// behavior (`RETENTION_BASE = 2.0e-5`, unscaled BER and weak
    /// columns).
    pub fn ddr4_baseline() -> Self {
        ErrorProfile { ber_scale: 1.0, retention_base: 2.0e-5, weak_column_scale: 1.0 }
    }
}

/// Everything device-specific, bundled: timing, geometry, energy, errors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemPreset {
    /// Which technology this is.
    pub tech: MemTech,
    /// JEDEC-style timing constraint set (drives controller, checker, and
    /// golden model alike).
    pub timing: Timing,
    /// Bank groups per rank.
    pub bank_groups: usize,
    /// Banks per bank group.
    pub banks_per_group: usize,
    /// Per-rank energy coefficients (with `ranks = 1`; scale via
    /// [`MemPreset::energy_model`]).
    pub energy: EnergyModel,
    /// Per-technology error behavior.
    pub error: ErrorProfile,
}

impl MemPreset {
    /// The Table 3 baseline. `timing`/geometry/energy are byte-for-byte
    /// the pre-preset constants, so the default path is bit-exact.
    pub fn ddr4_2666() -> Self {
        MemPreset {
            tech: MemTech::Ddr4_2666,
            timing: Timing::ddr4_2400_table3(),
            bank_groups: 4,
            banks_per_group: 4,
            energy: EnergyModel::ddr4_2400_rank(1),
            error: ErrorProfile::ddr4_baseline(),
        }
    }

    /// DDR5-4800-class bin: 416 ps clock, 8 bank groups, deeper
    /// latencies in cycles, on-die ECC halves the ambient BER but the
    /// denser cells retain slightly worse.
    pub fn ddr5_4800() -> Self {
        MemPreset {
            tech: MemTech::Ddr5_4800,
            timing: Timing {
                tck_ps: 416,
                cl: 40,
                cwl: 36,
                trcd: 39,
                trp: 39,
                tras: 76,
                trc: 115,
                tccd_l: 12,
                tccd_s: 8,
                trrd_l: 12,
                trrd_s: 8,
                tfaw: 40,
                twr: 58,
                trtp: 18,
                twtr: 24,
                tbl: 8, // BL16 at twice the rate: still one 64 B burst
                trfc: 708,  // ~295 ns
                trefi: 9360, // ~3.9 µs (per-rank average with REFab)
            },
            bank_groups: 8,
            banks_per_group: 4,
            energy: EnergyModel {
                act_nj: 1.6,
                read_nj: 3.2,
                write_nj: 3.4,
                refresh_nj: 260.0,
                background_w: 0.42,
                powerdown_w: 0.09,
                tck_ps: 416.0,
                ranks: 1,
                refresh_interval_multiplier: 1.0,
                ecc_nj_per_access: 0.0,
            },
            error: ErrorProfile { ber_scale: 0.5, retention_base: 4.0e-5, weak_column_scale: 1.5 },
        }
    }

    /// LPDDR4-3200-class: 625 ps clock, modeled as 2 bank groups × 4
    /// banks (LPDDR4 has 8 flat banks; the group split keeps the
    /// same-vs-different-group constraint pair exercised — see
    /// DESIGN.md), very low background power, weak retention.
    pub fn lpddr4_3200() -> Self {
        MemPreset {
            tech: MemTech::Lpddr4_3200,
            timing: Timing {
                tck_ps: 625,
                cl: 28,
                cwl: 14,
                trcd: 29,
                trp: 34,
                tras: 67,
                trc: 101,
                tccd_l: 8,
                tccd_s: 8, // flat banks: no short/long split
                trrd_l: 10,
                trrd_s: 10,
                tfaw: 64,
                twr: 29,
                trtp: 12,
                twtr: 16,
                tbl: 8, // BL16
                trfc: 448,  // ~280 ns
                trefi: 6240, // ~3.9 µs
            },
            bank_groups: 2,
            banks_per_group: 4,
            energy: EnergyModel {
                act_nj: 1.1,
                read_nj: 2.0,
                write_nj: 2.2,
                refresh_nj: 140.0,
                background_w: 0.07,
                powerdown_w: 0.02,
                tck_ps: 625.0,
                ranks: 1,
                refresh_interval_multiplier: 1.0,
                ecc_nj_per_access: 0.0,
            },
            error: ErrorProfile { ber_scale: 1.2, retention_base: 5.0e-5, weak_column_scale: 2.0 },
        }
    }

    /// HBM2-style stack: wide interface at a slow 1 GHz clock, so core
    /// latencies are short *in cycles*; high background power from the
    /// stack, strong retention (low-temp-graded cells).
    pub fn hbm2() -> Self {
        MemPreset {
            tech: MemTech::Hbm2,
            timing: Timing {
                tck_ps: 1000,
                cl: 14,
                cwl: 7,
                trcd: 12,
                trp: 12,
                tras: 29,
                trc: 41,
                tccd_l: 4,
                tccd_s: 2,
                trrd_l: 6,
                trrd_s: 4,
                tfaw: 30,
                twr: 16,
                trtp: 7,
                twtr: 8,
                tbl: 2, // 128-bit pseudo-channel pair: 64 B in 2 clocks
                trfc: 260,
                trefi: 3900,
            },
            bank_groups: 4,
            banks_per_group: 4,
            energy: EnergyModel {
                act_nj: 0.9,
                read_nj: 1.7,
                write_nj: 1.8,
                refresh_nj: 180.0,
                background_w: 0.50,
                powerdown_w: 0.18,
                tck_ps: 1000.0,
                ranks: 1,
                refresh_interval_multiplier: 1.0,
                ecc_nj_per_access: 0.0,
            },
            error: ErrorProfile { ber_scale: 0.8, retention_base: 1.5e-5, weak_column_scale: 0.7 },
        }
    }

    /// The Table 3 system shape (8 channels × 8 ranks, 64 GiB/channel)
    /// under this technology's timing and bank geometry. For the DDR4
    /// baseline this is exactly `DramConfig::enmc_table3()`.
    pub fn system_config(&self) -> DramConfig {
        DramConfig {
            organization: Organization {
                channels: 8,
                ranks: 8,
                bank_groups: self.bank_groups,
                banks_per_group: self.banks_per_group,
                // Rows scale inversely with bank count so every preset
                // offers the same capacity (the preset layer varies
                // timing/energy/errors, never workload footprint).
                rows: 1_048_576 / (self.bank_groups * self.banks_per_group),
                columns: 1024,
                access_bytes: 64,
            },
            timing: self.timing,
            queue_depth: 64,
            page_policy: PagePolicy::Open,
        }
    }

    /// The single-rank timing domain one on-DIMM ENMC unit sees. For the
    /// DDR4 baseline this is exactly `DramConfig::enmc_single_rank()`.
    pub fn single_rank_config(&self) -> DramConfig {
        let mut cfg = self.system_config();
        cfg.organization.channels = 1;
        cfg.organization.ranks = 1;
        cfg
    }

    /// Per-rank energy model scaled to `ranks` ranks.
    pub fn energy_model(&self, ranks: usize) -> EnergyModel {
        EnergyModel { ranks, ..self.energy }
    }

    /// I/O clock frequency in MHz (rounded): the `dram_freq_mhz` input to
    /// `EnmcConfig::dram_cycles_per_logic_cycle`.
    pub fn io_mhz(&self) -> u64 {
        (1.0e6 / self.timing.tck_ps as f64).round() as u64
    }

    /// Nanoseconds per memory-clock cycle under this preset.
    pub fn ns_per_cycle(&self) -> f64 {
        self.timing.cycles_to_ns(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_bit_exact_with_table3() {
        let p = MemTech::Ddr4_2666.preset();
        assert_eq!(p.system_config(), DramConfig::enmc_table3());
        assert_eq!(p.single_rank_config(), DramConfig::enmc_single_rank());
        assert_eq!(p.energy_model(1), EnergyModel::ddr4_2400_rank(1));
        assert_eq!(p.energy_model(8), EnergyModel::ddr4_2400_rank(8));
        assert_eq!(p.error, ErrorProfile::ddr4_baseline());
    }

    #[test]
    fn names_round_trip() {
        for t in MemTech::ALL {
            assert_eq!(t.preset().tech, t);
            assert_eq!(format!("{t}"), t.name());
        }
        assert_eq!(MemTech::default(), MemTech::Ddr4_2666);
    }

    #[test]
    fn short_labels_are_unique() {
        let mut shorts: Vec<_> = MemTech::ALL.iter().map(|t| t.short()).collect();
        shorts.sort_unstable();
        shorts.dedup();
        assert_eq!(shorts.len(), MemTech::ALL.len());
    }

    #[test]
    fn io_clock_ratios() {
        // round(1e6/tck)/400 drives the unit's DRAM:logic clock ratio.
        let mhz: Vec<u64> = MemTech::ALL.iter().map(|t| t.preset().io_mhz()).collect();
        assert_eq!(mhz, vec![1200, 2404, 1600, 1000]);
    }

    /// Every preset must satisfy the structural premises the generic
    /// conformance boundary tests rely on — the same inequalities
    /// `tests/ddr4_conformance.rs` exploits for the baseline.
    #[test]
    fn presets_satisfy_conformance_premises() {
        for t in MemTech::ALL {
            let p = t.preset();
            let tm = &p.timing;
            let name = t.name();
            // tRC decomposes as tRAS + tRP (closed-page golden model).
            assert_eq!(tm.trc, tm.tras + tm.trp, "{name}: tRC != tRAS + tRP");
            // RD→PRE via tRTP must land inside the tRAS window.
            assert!(tm.trcd + tm.trtp + tm.trp < tm.trc, "{name}: tRTP not testable");
            // tFAW must actually bind beyond 4 × tRRD_S.
            assert!(4 * tm.trrd_s < tm.tfaw, "{name}: tFAW non-binding");
            // WR→RD turnaround must bind after tCCD_L.
            assert!(tm.cwl + tm.tbl + tm.twtr > tm.tccd_l, "{name}: tWTR non-binding");
            // RD→WR bus turnaround must bind after tCCD_L.
            assert!(tm.cl + tm.tbl + 2 > tm.cwl + tm.tccd_l, "{name}: RD→WR non-binding");
            // Write recovery must extend the precharge point past tRAS.
            assert!(tm.trcd + tm.cwl + tm.tbl + tm.twr > tm.tras, "{name}: tWR non-binding");
            // Same/different-group ordering.
            assert!(tm.tccd_s <= tm.tccd_l, "{name}: tCCD ordering");
            assert!(tm.trrd_s <= tm.trrd_l, "{name}: tRRD ordering");
            // The boundary tests need a second bank group to probe the
            // short constraints.
            assert!(p.bank_groups >= 2, "{name}: needs >= 2 bank groups");
            // Refresh must be schedulable: tRFC far below tREFI.
            assert!(tm.trfc * 2 < tm.trefi, "{name}: refresh starves");
        }
    }

    #[test]
    fn error_profiles_are_positive_and_distinct() {
        let mut seen = Vec::new();
        for t in MemTech::ALL {
            let e = t.preset().error;
            assert!(e.ber_scale > 0.0 && e.ber_scale.is_finite());
            assert!(e.retention_base > 0.0 && e.retention_base.is_finite());
            assert!(e.weak_column_scale > 0.0 && e.weak_column_scale.is_finite());
            seen.push((e.ber_scale.to_bits(), e.retention_base.to_bits()));
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), MemTech::ALL.len(), "profiles must differ per tech");
    }

    #[test]
    fn energy_models_use_the_preset_clock() {
        for t in MemTech::ALL {
            let p = t.preset();
            assert_eq!(p.energy.tck_ps, p.timing.tck_ps as f64, "{t}: clock mismatch");
            assert_eq!(p.energy.ranks, 1);
            assert_eq!(p.energy.refresh_interval_multiplier, 1.0);
            assert_eq!(p.energy.ecc_nj_per_access, 0.0);
            assert_eq!(p.energy_model(4).ranks, 4);
        }
    }

    #[test]
    fn capacity_is_preserved_across_presets() {
        // Same workload footprint fits on every technology: the preset
        // layer varies timing/energy/errors, never capacity.
        let base = MemTech::Ddr4_2666.preset().system_config().organization.total_bytes();
        for t in MemTech::ALL {
            let cfg = t.preset().system_config();
            assert_eq!(cfg.organization.total_bytes(), base, "{t}");
            assert_eq!(cfg.organization.banks_per_rank() >= 8, true, "{t}");
        }
    }

    #[test]
    fn bandwidth_ordering_matches_the_families() {
        let bw = |t: MemTech| t.preset().timing.peak_channel_bandwidth();
        assert!(bw(MemTech::Ddr5_4800) > bw(MemTech::Lpddr4_3200));
        assert!(bw(MemTech::Lpddr4_3200) > bw(MemTech::Ddr4_2666));
        assert!(bw(MemTech::Ddr4_2666) > bw(MemTech::Hbm2)); // per 64-bit channel
    }

    #[test]
    fn lpddr4_has_the_cheapest_background_power() {
        for t in [MemTech::Ddr4_2666, MemTech::Ddr5_4800, MemTech::Hbm2] {
            assert!(
                MemTech::Lpddr4_3200.preset().energy.background_w < t.preset().energy.background_w
            );
        }
    }

    #[test]
    fn hbm2_has_the_shortest_row_cycle_in_time() {
        let ns = |t: MemTech| {
            let p = t.preset();
            p.timing.cycles_to_ns(p.timing.trc)
        };
        for t in [MemTech::Ddr4_2666, MemTech::Ddr5_4800, MemTech::Lpddr4_3200] {
            assert!(ns(MemTech::Hbm2) < ns(t), "HBM2 {} vs {t} {}", ns(MemTech::Hbm2), ns(t));
        }
    }
}
