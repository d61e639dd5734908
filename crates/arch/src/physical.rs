//! Analytic area/power model (paper Tables 4 and 5, TSMC 28 nm, 400 MHz).
//!
//! The paper obtains these numbers from RTL synthesis with Design
//! Compiler; we encode the per-component costs the synthesis produced and
//! the compositional rule that reproduces both tables: a design's area and
//! power are the sum of its compute primitives, its SRAM buffers, and its
//! controllers.

/// Area (mm²) and power (mW) of one design or component.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AreaPower {
    /// Silicon area in mm².
    pub area_mm2: f64,
    /// Power in mW.
    pub power_mw: f64,
}

impl AreaPower {
    /// Component-wise sum.
    pub fn add(&self, other: &AreaPower) -> AreaPower {
        AreaPower {
            area_mm2: self.area_mm2 + other.area_mm2,
            power_mw: self.power_mw + other.power_mw,
        }
    }

    /// Scales both metrics.
    pub fn scale(&self, s: f64) -> AreaPower {
        AreaPower { area_mm2: self.area_mm2 * s, power_mw: self.power_mw * s }
    }
}

/// Per-primitive synthesis costs at 28 nm / 400 MHz.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhysicalModel {
    /// One INT4 multiply-accumulate lane.
    pub int4_mac: AreaPower,
    /// One FP32 multiply-accumulate lane.
    pub fp32_mac: AreaPower,
    /// One CGRA functional unit (NDA).
    pub cgra_fu: AreaPower,
    /// One systolic processing element (Chameleon).
    pub systolic_pe: AreaPower,
    /// One vector-unit lane (TensorDIMM).
    pub vpu_lane: AreaPower,
    /// One kibibyte of SRAM buffer (register-file based).
    pub buffer_kb: AreaPower,
    /// The ENMC controller block.
    pub enmc_ctrl: AreaPower,
    /// The simplified on-DIMM DRAM controller.
    pub dram_ctrl: AreaPower,
}

impl Default for PhysicalModel {
    fn default() -> Self {
        Self::tsmc28()
    }
}

impl PhysicalModel {
    /// Constants back-derived from Tables 4 and 5.
    pub fn tsmc28() -> Self {
        PhysicalModel {
            // Table 5: 128 INT4 MACs = 0.013 mm² / 10.4 mW.
            int4_mac: AreaPower { area_mm2: 0.013 / 128.0, power_mw: 10.4 / 128.0 },
            // Table 5: 16 FP32 MACs = 0.145 mm² / 58.0 mW.
            fp32_mac: AreaPower { area_mm2: 0.145 / 16.0, power_mw: 58.0 / 16.0 },
            // Table 4: NDA = 16 FUs + 1 KB = 0.445 mm² / 293.6 mW.
            cgra_fu: AreaPower {
                area_mm2: (0.445 - 0.061) / 16.0,
                power_mw: (293.6 - 56.8) / 16.0,
            },
            // Table 4: Chameleon = 16 PEs + 1 KB = 0.398 mm² / 249.0 mW.
            systolic_pe: AreaPower {
                area_mm2: (0.398 - 0.061) / 16.0,
                power_mw: (249.0 - 56.8) / 16.0,
            },
            // Table 4: TensorDIMM = 16 lanes + 1.5 KB = 0.457 mm²/303.5 mW.
            vpu_lane: AreaPower {
                area_mm2: (0.457 - 0.061 * 1.5) / 16.0,
                power_mw: (303.5 - 56.8 * 1.5) / 16.0,
            },
            // Table 5: compute buffer (4 × 256 B = 1 KB) = 0.061 / 56.8.
            buffer_kb: AreaPower { area_mm2: 0.061, power_mw: 56.8 },
            // Table 5 rows.
            enmc_ctrl: AreaPower { area_mm2: 0.035, power_mw: 32.9 },
            dram_ctrl: AreaPower { area_mm2: 0.135, power_mw: 78.0 },
        }
    }

    /// The control-buffer block of Table 5 (instruction + threshold
    /// storage), a fixed cost every ENMC-style unit pays regardless of
    /// lane count.
    pub fn control_buffer(&self) -> AreaPower {
        AreaPower { area_mm2: 0.053, power_mw: 49.3 }
    }

    /// The full ENMC unit (Table 5): 128 INT4 + 16 FP32 MACs, 1 KB compute
    /// buffers, ~1 KB control buffers, both controllers.
    pub fn enmc_unit(&self) -> AreaPower {
        self.int4_mac
            .scale(128.0)
            .add(&self.fp32_mac.scale(16.0))
            .add(&self.buffer_kb) // compute buffers: 4 × 256 B
            .add(&self.control_buffer())
            .add(&self.enmc_ctrl)
            .add(&self.dram_ctrl)
    }

    /// NDA's accelerator core (Table 4; control/DRAM controllers excluded
    /// per the table's note).
    pub fn nda_unit(&self) -> AreaPower {
        self.cgra_fu.scale(16.0).add(&self.buffer_kb)
    }

    /// Chameleon's accelerator core (Table 4).
    pub fn chameleon_unit(&self) -> AreaPower {
        self.systolic_pe.scale(16.0).add(&self.buffer_kb)
    }

    /// TensorDIMM's accelerator core (Table 4): 16-lane VPU + 3 × 512 B
    /// queues.
    pub fn tensordimm_unit(&self) -> AreaPower {
        self.vpu_lane.scale(16.0).add(&self.buffer_kb.scale(1.5))
    }

    /// ENMC's row in the Table 4 comparison. The paper quotes the same
    /// 0.442 mm² / 285.4 mW envelope as Table 5's total, so this is the
    /// full unit.
    pub fn enmc_table4(&self) -> AreaPower {
        self.enmc_unit()
    }
}

/// The Table 5 component rows, for printing.
pub fn table5_rows(model: &PhysicalModel) -> Vec<(&'static str, AreaPower)> {
    vec![
        ("INT4 MAC", model.int4_mac.scale(128.0)),
        ("FP32 MAC", model.fp32_mac.scale(16.0)),
        ("Compute Buffer", model.buffer_kb),
        ("Control Buffer", model.control_buffer()),
        ("ENMC Ctrl", model.enmc_ctrl),
        ("DRAM Ctrl", model.dram_ctrl),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_total_reproduced() {
        let m = PhysicalModel::tsmc28();
        let total = m.enmc_unit();
        assert!((total.area_mm2 - 0.442).abs() < 0.005, "area {}", total.area_mm2);
        assert!((total.power_mw - 285.4).abs() < 1.0, "power {}", total.power_mw);
    }

    #[test]
    fn table4_baselines_reproduced() {
        let m = PhysicalModel::tsmc28();
        let nda = m.nda_unit();
        assert!((nda.area_mm2 - 0.445).abs() < 0.005);
        assert!((nda.power_mw - 293.6).abs() < 1.0);
        let ch = m.chameleon_unit();
        assert!((ch.area_mm2 - 0.398).abs() < 0.005);
        assert!((ch.power_mw - 249.0).abs() < 1.0);
        let td = m.tensordimm_unit();
        assert!((td.area_mm2 - 0.457).abs() < 0.005);
        assert!((td.power_mw - 303.5).abs() < 1.0);
    }

    #[test]
    fn table5_rows_reproduced_exactly() {
        // Every Table 5 row must come back bit-exact from the primitive
        // costs: the primitives are defined by dividing these numbers, so
        // multiplying back must invert without drift.
        let m = PhysicalModel::tsmc28();
        let expect = [
            ("INT4 MAC", 0.013, 10.4),
            ("FP32 MAC", 0.145, 58.0),
            ("Compute Buffer", 0.061, 56.8),
            ("Control Buffer", 0.053, 49.3),
            ("ENMC Ctrl", 0.035, 32.9),
            ("DRAM Ctrl", 0.135, 78.0),
        ];
        let rows = table5_rows(&m);
        assert_eq!(rows.len(), expect.len());
        for ((name, ap), (ename, area, power)) in rows.iter().zip(expect) {
            assert_eq!(*name, ename);
            assert!((ap.area_mm2 - area).abs() < 1e-12, "{name} area {}", ap.area_mm2);
            assert!((ap.power_mw - power).abs() < 1e-12, "{name} power {}", ap.power_mw);
        }
        let total = m.enmc_unit();
        let area: f64 = expect.iter().map(|r| r.1).sum();
        let power: f64 = expect.iter().map(|r| r.2).sum();
        assert!((total.area_mm2 - area).abs() < 1e-12, "total area {}", total.area_mm2);
        assert!((total.power_mw - power).abs() < 1e-12, "total power {}", total.power_mw);
    }

    #[test]
    fn table4_rows_reproduced_exactly() {
        // Table 4 quotes each baseline's core at the same numbers the
        // primitives were back-derived from; composition must be exact.
        let m = PhysicalModel::tsmc28();
        let rows = [
            (m.enmc_table4(), 0.442, 285.4),
            (m.nda_unit(), 0.445, 293.6),
            (m.chameleon_unit(), 0.398, 249.0),
            (m.tensordimm_unit(), 0.457, 303.5),
        ];
        for (ap, area, power) in rows {
            assert!((ap.area_mm2 - area).abs() < 1e-12, "area {}", ap.area_mm2);
            assert!((ap.power_mw - power).abs() < 1e-12, "power {}", ap.power_mw);
        }
    }

    #[test]
    fn designs_are_iso_budget() {
        // Table 4's point: all four designs sit in the same area/power
        // envelope (within ~15%).
        let m = PhysicalModel::tsmc28();
        let designs = [m.enmc_table4(), m.nda_unit(), m.chameleon_unit(), m.tensordimm_unit()];
        let max_area = designs.iter().map(|d| d.area_mm2).fold(0.0, f64::max);
        let min_area = designs.iter().map(|d| d.area_mm2).fold(f64::MAX, f64::min);
        assert!(max_area / min_area < 1.2, "{min_area}..{max_area}");
    }

    #[test]
    fn compute_units_fraction_of_table5() {
        // §7.2: "the compute unit takes 40.8% of the total area and 25% of
        // the total power" — INT4 + FP32 arrays offer roughly that share.
        let m = PhysicalModel::tsmc28();
        let compute = m.int4_mac.scale(128.0).add(&m.fp32_mac.scale(16.0));
        let total = m.enmc_unit();
        let area_frac = compute.area_mm2 / total.area_mm2;
        let power_frac = compute.power_mw / total.power_mw;
        assert!((0.30..0.45).contains(&area_frac), "area frac {area_frac}");
        assert!((0.18..0.30).contains(&power_frac), "power frac {power_frac}");
    }

    #[test]
    fn table5_rows_sum_to_total() {
        let m = PhysicalModel::tsmc28();
        let sum = table5_rows(&m)
            .iter()
            .fold(AreaPower::default(), |acc, (_, ap)| acc.add(ap));
        let total = m.enmc_unit();
        assert!((sum.area_mm2 - total.area_mm2).abs() < 1e-9);
        assert!((sum.power_mw - total.power_mw).abs() < 1e-9);
    }
}
