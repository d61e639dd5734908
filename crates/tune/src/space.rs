//! The declared design space: axis lists, mixed-radix lattice indexing,
//! the Table 4/5 pricing rule, and area/power budget admission.
//!
//! A [`TuneSpace`] is a small cartesian lattice over the accelerator's
//! sizing levers. Every design has a stable *lattice index* — its
//! mixed-radix position over the normalized (sorted, deduplicated) axis
//! lists — and everything downstream (evaluation seeds, frontier
//! ordering, provenance) is keyed to that index, never to evaluation
//! order. That is what makes guided search, exhaustive search, and any
//! worker count produce byte-identical frontiers over the same space.

use enmc_arch::{AreaPower, ClassificationJob, PhysicalModel};
use enmc_mem::MemTech;
use enmc_serve::tier::MAX_SCREEN_SHIFT;

/// Area/power surcharge of SEC-DED (72,64) ECC on the on-DIMM DRAM
/// controller: 8 extra bits per 64 = 12.5 % more controller datapath
/// area, at the fault crate's measured 11.6 mW ECC engine power.
const ECC_AREA_FRACTION: f64 = 0.125;
const ECC_POWER_MW: f64 = 11.6;

/// The declared design space: one sorted, deduplicated level list per
/// axis. The lattice a [`TuneSpace`] spans is the cartesian product of
/// the lists, indexed mixed-radix with `ranks` as the slowest axis and
/// `ecc` the fastest.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneSpace {
    /// DIMM rank-unit counts (capacity axis; Table 3 ships 64).
    pub ranks: Vec<usize>,
    /// INT4 screener lanes per rank unit (Table 3: 128).
    pub lanes: Vec<usize>,
    /// Screening-weight bitwidths (Table 3: 4).
    pub screen_bits: Vec<u32>,
    /// Screening-level shifts: reduced dimension halved this many times.
    pub screen_shift: Vec<u32>,
    /// Candidates surviving the screen (`K`).
    pub candidates: Vec<usize>,
    /// Serving-side maximum batch size the design is evaluated at.
    pub batch_max: Vec<usize>,
    /// Batching linger windows in DRAM cycles (a latency adder).
    pub linger_cycles: Vec<u64>,
    /// Whether the DRAM controller carries SEC-DED ECC.
    pub ecc: Vec<bool>,
    /// Memory technologies to evaluate the design on (Table 3 DDR4
    /// baseline unless widened; the 9th axis, fastest in the lattice).
    pub memory: Vec<MemTech>,
}

impl Default for TuneSpace {
    fn default() -> Self {
        Self::small()
    }
}

/// The largest `batch_max` level, and `serve-sim`'s `--batch-max` bound.
pub const MAX_BATCH: usize = 1024;

/// The widest `screen_bits` level: an FP32 element, the widest any
/// screener streams.
const MAX_SCREEN_BITS: u32 = 32;

impl TuneSpace {
    /// Checks the levels the job bounds: no `candidates` level above its
    /// categories, no `batch_max` level above [`MAX_BATCH`], no
    /// `screen_bits` level above 32, an FP32 element, and no
    /// `screen_shift` level above [`MAX_SCREEN_SHIFT`], the deepest
    /// degrade tier.
    ///
    /// # Errors
    ///
    /// Returns a flag-worthy message naming the axis's flag, its first
    /// level past the bound, and the bound.
    pub fn check(&self, job: &ClassificationJob) -> Result<(), String> {
        fn within<T: PartialOrd + std::fmt::Display>(
            flag: &str,
            levels: &[T],
            bound: T,
            what: &str,
        ) -> Result<(), String> {
            match levels.iter().find(|&l| *l > bound) {
                Some(l) => Err(format!("{flag} level '{l}' exceeds {what}")),
                None => Ok(()),
            }
        }
        let categories = format!("the workload's {} categories", job.categories);
        within("--candidates", &self.candidates, job.categories, &categories)?;
        let batch = format!("the largest batch, {MAX_BATCH}");
        within("--batch-max", &self.batch_max, MAX_BATCH, &batch)?;
        let bits = format!("{MAX_SCREEN_BITS} bits, an FP32 element");
        within("--screen-bits", &self.screen_bits, MAX_SCREEN_BITS, &bits)?;
        let shift = format!("{MAX_SCREEN_SHIFT} halvings, the deepest degrade tier");
        within("--screen-shift", &self.screen_shift, MAX_SCREEN_SHIFT, &shift)
    }

    /// The default small space the CLI explores when no axes are given:
    /// 2 × 2 × 1 × 2 × 2 × 1 × 1 × 2 = 32 designs around the Table 3
    /// point.
    pub fn small() -> Self {
        TuneSpace {
            ranks: vec![32, 64],
            lanes: vec![64, 128],
            screen_bits: vec![4],
            screen_shift: vec![0, 1],
            candidates: vec![64, 128],
            batch_max: vec![4],
            linger_cycles: vec![2_000],
            ecc: vec![false, true],
            memory: vec![MemTech::Ddr4_2666],
        }
    }

    /// Sorts and deduplicates every axis list.
    ///
    /// # Panics
    ///
    /// Panics when any axis is empty or holds a zero level where zero is
    /// meaningless (ranks, lanes, bits, candidates, batch).
    pub fn normalize(mut self) -> Self {
        fn norm<T: Ord + Copy>(name: &str, v: &mut Vec<T>) {
            assert!(!v.is_empty(), "axis {name} must declare at least one level");
            v.sort_unstable();
            v.dedup();
        }
        norm("ranks", &mut self.ranks);
        norm("lanes", &mut self.lanes);
        norm("screen-bits", &mut self.screen_bits);
        norm("screen-shift", &mut self.screen_shift);
        norm("candidates", &mut self.candidates);
        norm("batch-max", &mut self.batch_max);
        norm("linger", &mut self.linger_cycles);
        norm("ecc", &mut self.ecc);
        norm("memory", &mut self.memory);
        assert!(self.ranks[0] > 0, "ranks levels must be positive");
        assert!(self.lanes[0] > 0, "lane levels must be positive");
        assert!(self.screen_bits[0] > 0, "screen-bits levels must be positive");
        assert!(self.candidates[0] > 0, "candidate levels must be positive");
        assert!(self.batch_max[0] > 0, "batch-max levels must be positive");
        self
    }

    /// Per-axis level counts, slowest axis first.
    fn radices(&self) -> [usize; 9] {
        [
            self.ranks.len(),
            self.lanes.len(),
            self.screen_bits.len(),
            self.screen_shift.len(),
            self.candidates.len(),
            self.batch_max.len(),
            self.linger_cycles.len(),
            self.ecc.len(),
            self.memory.len(),
        ]
    }

    /// Total designs in the lattice.
    pub fn size(&self) -> usize {
        self.radices().iter().product()
    }

    /// Decodes a lattice index into per-axis level coordinates.
    ///
    /// # Panics
    ///
    /// Panics when `index >= self.size()`.
    pub fn coords(&self, index: usize) -> [usize; 9] {
        assert!(index < self.size(), "design index {index} out of range");
        let radices = self.radices();
        let mut c = [0usize; 9];
        let mut rest = index;
        for axis in (0..9).rev() {
            c[axis] = rest % radices[axis];
            rest /= radices[axis];
        }
        c
    }

    /// Encodes per-axis level coordinates back into the lattice index.
    pub fn index_of(&self, coords: &[usize; 9]) -> usize {
        let radices = self.radices();
        let mut index = 0usize;
        for axis in 0..9 {
            debug_assert!(coords[axis] < radices[axis]);
            index = index * radices[axis] + coords[axis];
        }
        index
    }

    /// The concrete design at a lattice index.
    pub fn design(&self, index: usize) -> DesignPoint {
        let c = self.coords(index);
        DesignPoint {
            index,
            ranks: self.ranks[c[0]],
            lanes: self.lanes[c[1]],
            screen_bits: self.screen_bits[c[2]],
            screen_shift: self.screen_shift[c[3]],
            candidates: self.candidates[c[4]],
            batch_max: self.batch_max[c[5]],
            linger_cycles: self.linger_cycles[c[6]],
            ecc: self.ecc[c[7]],
            memory: self.memory[c[8]],
        }
    }

    /// Lattice indices one level step away from `index` along any single
    /// axis, ascending. The guided search expands these around frontier
    /// points.
    pub fn neighbors(&self, index: usize) -> Vec<usize> {
        let radices = self.radices();
        let base = self.coords(index);
        let mut out = Vec::new();
        for axis in 0..9 {
            for step in [-1isize, 1] {
                let level = base[axis] as isize + step;
                if level < 0 || level as usize >= radices[axis] {
                    continue;
                }
                let mut c = base;
                c[axis] = level as usize;
                out.push(self.index_of(&c));
            }
        }
        out.sort_unstable();
        out
    }
}

/// One concrete design: a point of the lattice with its stable index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesignPoint {
    /// Mixed-radix lattice index within the declaring [`TuneSpace`].
    pub index: usize,
    /// Rank units on the DIMM population.
    pub ranks: usize,
    /// INT4 screener lanes per unit.
    pub lanes: usize,
    /// Screening-weight bitwidth.
    pub screen_bits: u32,
    /// Screening-level shift applied to the reduced dimension.
    pub screen_shift: u32,
    /// Candidates surviving the screen.
    pub candidates: usize,
    /// Maximum evaluation batch size.
    pub batch_max: usize,
    /// Batching linger window (DRAM cycles), charged as added latency.
    pub linger_cycles: u64,
    /// SEC-DED ECC on the DRAM controller.
    pub ecc: bool,
    /// Memory technology the design is evaluated on.
    pub memory: MemTech,
}

impl DesignPoint {
    /// A compact stable label, e.g.
    /// `r64.l128.b4.s0.c128.bm4.lg2000.ecc0.md4`.
    pub fn label(&self) -> String {
        format!(
            "r{}.l{}.b{}.s{}.c{}.bm{}.lg{}.ecc{}.m{}",
            self.ranks,
            self.lanes,
            self.screen_bits,
            self.screen_shift,
            self.candidates,
            self.batch_max,
            self.linger_cycles,
            u8::from(self.ecc),
            self.memory.short()
        )
    }
}

/// Prices a design with the Table 4/5 synthesis model: per-unit cost is
/// the INT4 array scaled to the design's lane count and bitwidth, the
/// fixed FP32 executor, both buffer blocks, both controllers, and the
/// ECC surcharge when enabled; the DIMM total scales the unit by the
/// rank count. The power envelope also carries the memory technology's
/// own background draw per rank — that is what lets a `--max-power-mw`
/// budget discriminate between technologies (HBM2's standby watts price
/// it out of tight envelopes that LPDDR4 fits with room to spare). At
/// the Table 3 point (128 lanes, 4-bit, no ECC) the per-unit *silicon*
/// price reduces exactly to [`PhysicalModel::enmc_unit`].
pub fn price_design(model: &PhysicalModel, d: &DesignPoint) -> AreaPower {
    let int4 = model.int4_mac.scale(d.lanes as f64 * d.screen_bits as f64 / 4.0);
    let mut unit = int4
        .add(&model.fp32_mac.scale(16.0))
        .add(&model.buffer_kb)
        .add(&model.control_buffer())
        .add(&model.enmc_ctrl)
        .add(&model.dram_ctrl);
    if d.ecc {
        unit = unit.add(&AreaPower {
            area_mm2: model.dram_ctrl.area_mm2 * ECC_AREA_FRACTION,
            power_mw: ECC_POWER_MW,
        });
    }
    unit = unit.add(&AreaPower {
        area_mm2: 0.0,
        power_mw: d.memory.preset().energy.background_w * 1e3,
    });
    unit.scale(d.ranks as f64)
}

/// User-declared DIMM-population budget the tuner must respect.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Budget {
    /// Maximum total silicon area in mm² (`None` = unconstrained).
    pub max_area_mm2: Option<f64>,
    /// Maximum total power in mW (`None` = unconstrained).
    pub max_power_mw: Option<f64>,
}

impl Budget {
    /// Whether a priced design fits the budget.
    pub fn admits(&self, cost: &AreaPower) -> bool {
        self.max_area_mm2.map_or(true, |cap| cost.area_mm2 <= cap)
            && self.max_power_mw.map_or(true, |cap| cost.power_mw <= cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrips_over_the_whole_lattice() {
        let space = TuneSpace::small().normalize();
        assert_eq!(space.size(), 32);
        for i in 0..space.size() {
            let c = space.coords(i);
            assert_eq!(space.index_of(&c), i);
            assert_eq!(space.design(i).index, i);
        }
    }

    #[test]
    fn normalize_sorts_and_dedups() {
        let mut space = TuneSpace::small();
        space.lanes = vec![128, 64, 128];
        space.candidates = vec![128, 64];
        let space = space.normalize();
        assert_eq!(space.lanes, vec![64, 128]);
        assert_eq!(space.candidates, vec![64, 128]);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn empty_axis_panics() {
        let mut space = TuneSpace::small();
        space.ranks = vec![];
        let _ = space.normalize();
    }

    #[test]
    fn neighbors_are_single_axis_steps() {
        let space = TuneSpace::small().normalize();
        for i in 0..space.size() {
            let base = space.coords(i);
            for n in space.neighbors(i) {
                let c = space.coords(n);
                let diff: usize = (0..9)
                    .map(|a| usize::from(base[a] != c[a]))
                    .sum();
                assert_eq!(diff, 1, "{base:?} vs {c:?}");
            }
        }
    }

    #[test]
    fn table3_point_prices_at_enmc_unit_plus_dram_background() {
        // 128 lanes, 4-bit screener, no ECC must reduce to Table 5's
        // unit exactly on silicon; power adds only the technology's own
        // per-rank background draw.
        let model = PhysicalModel::tsmc28();
        let d = DesignPoint {
            index: 0,
            ranks: 1,
            lanes: 128,
            screen_bits: 4,
            screen_shift: 0,
            candidates: 128,
            batch_max: 4,
            linger_cycles: 0,
            ecc: false,
            memory: MemTech::Ddr4_2666,
        };
        let priced = price_design(&model, &d);
        let unit = model.enmc_unit();
        let background = MemTech::Ddr4_2666.preset().energy.background_w * 1e3;
        assert!((priced.area_mm2 - unit.area_mm2).abs() < 1e-12);
        assert!((priced.power_mw - (unit.power_mw + background)).abs() < 1e-12);
        let dimm = price_design(&model, &DesignPoint { ranks: 64, ..d });
        assert!((dimm.area_mm2 - 64.0 * unit.area_mm2).abs() < 1e-9);
    }

    #[test]
    fn memory_technology_moves_the_power_envelope_not_the_silicon() {
        let model = PhysicalModel::tsmc28();
        let d = TuneSpace::small().normalize().design(0);
        let by_tech: Vec<AreaPower> = MemTech::ALL
            .iter()
            .map(|&m| price_design(&model, &DesignPoint { memory: m, ..d }))
            .collect();
        for p in &by_tech {
            assert!((p.area_mm2 - by_tech[0].area_mm2).abs() < 1e-12, "area is tech-independent");
        }
        let power = |m: MemTech| {
            by_tech[MemTech::ALL.iter().position(|&t| t == m).unwrap()].power_mw
        };
        assert!(power(MemTech::Hbm2) > power(MemTech::Ddr4_2666));
        assert!(power(MemTech::Lpddr4_3200) < power(MemTech::Ddr4_2666));
    }

    #[test]
    fn ecc_costs_extra() {
        let model = PhysicalModel::tsmc28();
        let d = TuneSpace::small().normalize().design(0);
        let plain = price_design(&model, &DesignPoint { ecc: false, ..d });
        let ecc = price_design(&model, &DesignPoint { ecc: true, ..d });
        assert!(ecc.area_mm2 > plain.area_mm2);
        assert!(ecc.power_mw > plain.power_mw);
    }

    #[test]
    fn budget_admission() {
        let b = Budget { max_area_mm2: Some(10.0), max_power_mw: None };
        assert!(b.admits(&AreaPower { area_mm2: 10.0, power_mw: 1e9 }));
        assert!(!b.admits(&AreaPower { area_mm2: 10.1, power_mw: 0.0 }));
        assert!(Budget::default().admits(&AreaPower { area_mm2: 1e9, power_mw: 1e9 }));
    }
}
