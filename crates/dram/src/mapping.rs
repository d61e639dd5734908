//! Physical-address → device-coordinate mapping.
//!
//! The mapping determines how a streaming access pattern spreads over
//! channels, ranks and banks — and therefore how much bank-level
//! parallelism and row-buffer locality a workload sees. We implement the
//! two schemes relevant here:
//!
//! * [`AddressMapping::RoBaRaCoCh`] — row : bank : rank : column : channel
//!   (from MSB to LSB). Sequential cache lines interleave across channels
//!   first, then walk a row. The standard host-side mapping.
//! * [`AddressMapping::RoRaBaCoBg`] — row : rank : bank : column : bank-group.
//!   Used for the on-DIMM ENMC controller: consecutive bursts alternate
//!   across the four bank groups (so back-to-back column commands pay the
//!   short tCCD_S, keeping the DQ bus saturated) while each bank still
//!   streams an entire row before moving on.

use crate::config::{Organization, BURST_BYTES};

/// Bank-level coordinates of one 64-byte burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Channel index.
    pub channel: usize,
    /// Rank within the channel.
    pub rank: usize,
    /// Bank group within the rank.
    pub bank_group: usize,
    /// Bank within the bank group.
    pub bank: usize,
    /// Row within the bank.
    pub row: usize,
    /// Burst-aligned column (0..bursts_per_row).
    pub column: usize,
}

impl Coord {
    /// Flat bank id within a rank.
    pub fn flat_bank(&self, org: &Organization) -> usize {
        self.bank_group * org.banks_per_group + self.bank
    }
}

/// Supported address-interleaving schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddressMapping {
    /// Row:Bank:Rank:Column:Channel — channel-interleaved (host default).
    RoBaRaCoCh,
    /// Row:Rank:Bank:Column:BankGroup — bank-group-interleaved row
    /// streaming (ENMC on-DIMM).
    RoRaBaCoBg,
}

impl AddressMapping {
    /// Decodes a byte address into coordinates.
    ///
    /// The offset within a [`BURST_BYTES`] burst is dropped first. A
    /// field whose size is a power of two (every preset's) takes a mask
    /// and a shift instead of a remainder and a division.
    pub fn decode(&self, addr: u64, org: &Organization) -> Coord {
        let mut a = addr / BURST_BYTES; // burst-aligned
        let mut take = |n: usize| -> usize {
            let n = n as u64;
            let v = if n.is_power_of_two() {
                let v = a & (n - 1);
                a >>= n.trailing_zeros();
                v
            } else {
                let v = a % n;
                a /= n;
                v
            };
            v as usize
        };
        match self {
            AddressMapping::RoBaRaCoCh => {
                let channel = take(org.channels);
                let column = take(org.bursts_per_row());
                let rank = take(org.ranks);
                let bank = take(org.banks_per_group);
                let bank_group = take(org.bank_groups);
                let row = take(org.rows);
                Coord { channel, rank, bank_group, bank, row, column }
            }
            AddressMapping::RoRaBaCoBg => {
                let bank_group = take(org.bank_groups);
                let column = take(org.bursts_per_row());
                let bank = take(org.banks_per_group);
                let rank = take(org.ranks);
                let row = take(org.rows);
                Coord { channel: 0, rank, bank_group, bank, row, column }
            }
        }
    }

    /// Encodes coordinates back to a byte address (inverse of
    /// [`AddressMapping::decode`]).
    pub fn encode(&self, c: &Coord, org: &Organization) -> u64 {
        let mut addr: u64 = 0;
        let mut shiftmul: u64 = 1;
        let put = |v: usize, n: usize, addr: &mut u64, shiftmul: &mut u64| {
            *addr += v as u64 * *shiftmul;
            *shiftmul *= n as u64;
        };
        match self {
            AddressMapping::RoBaRaCoCh => {
                put(c.channel, org.channels, &mut addr, &mut shiftmul);
                put(c.column, org.bursts_per_row(), &mut addr, &mut shiftmul);
                put(c.rank, org.ranks, &mut addr, &mut shiftmul);
                put(c.bank, org.banks_per_group, &mut addr, &mut shiftmul);
                put(c.bank_group, org.bank_groups, &mut addr, &mut shiftmul);
                put(c.row, org.rows, &mut addr, &mut shiftmul);
            }
            AddressMapping::RoRaBaCoBg => {
                put(c.bank_group, org.bank_groups, &mut addr, &mut shiftmul);
                put(c.column, org.bursts_per_row(), &mut addr, &mut shiftmul);
                put(c.bank, org.banks_per_group, &mut addr, &mut shiftmul);
                put(c.rank, org.ranks, &mut addr, &mut shiftmul);
                put(c.row, org.rows, &mut addr, &mut shiftmul);
            }
        }
        addr * BURST_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;

    fn org() -> Organization {
        DramConfig::enmc_table3().organization
    }

    /// An organization with no power-of-two size, so `decode` takes the
    /// remainder-and-division form for every field.
    fn odd_org() -> Organization {
        Organization {
            channels: 3,
            ranks: 3,
            bank_groups: 3,
            banks_per_group: 5,
            rows: 1000,
            columns: 8 * 24,
        }
    }

    #[test]
    fn roundtrip_robaracoch() {
        let m = AddressMapping::RoBaRaCoCh;
        let cases = [
            (org(), [0u64, 64, 4096, 1 << 20, (1 << 33) + 64 * 7]),
            (odd_org(), [0, 64, 4096, 64 * 12_345, 64 * 3_000_007]),
        ];
        for (org, addrs) in cases {
            for addr in addrs {
                let c = m.decode(addr, &org);
                assert_eq!(m.encode(&c, &org), addr, "addr {addr} on {org:?}");
            }
        }
    }

    #[test]
    fn roundtrip_rorabaco() {
        let m = AddressMapping::RoRaBaCoBg;
        let cases = [
            (org(), [0u64, 64, 8192, 1 << 22, (1 << 30) + 64 * 3]),
            (odd_org(), [0, 64, 8192, 64 * 12_345, 64 * 1_000_003]),
        ];
        for (org, addrs) in cases {
            for addr in addrs {
                let c = m.decode(addr, &org);
                assert_eq!(m.encode(&c, &org), addr, "addr {addr} on {org:?}");
            }
        }
    }

    #[test]
    fn sequential_lines_interleave_channels_in_host_mapping() {
        let org = org();
        let m = AddressMapping::RoBaRaCoCh;
        let c0 = m.decode(0, &org);
        let c1 = m.decode(64, &org);
        assert_ne!(c0.channel, c1.channel);
        assert_eq!(c0.row, c1.row);
    }

    #[test]
    fn sequential_lines_alternate_bank_groups_in_enmc_mapping() {
        let org = org();
        let m = AddressMapping::RoRaBaCoBg;
        let c0 = m.decode(0, &org);
        let c1 = m.decode(64, &org);
        // Adjacent bursts hit different bank groups (tCCD_S path)...
        assert_ne!(c0.bank_group, c1.bank_group);
        assert_eq!(c0.row, c1.row);
        // ...and burst 4 returns to the same bank, next column.
        let c4 = m.decode(256, &org);
        assert_eq!(c4.flat_bank(&org), c0.flat_bank(&org));
        assert_eq!(c4.column, c0.column + 1);
    }

    #[test]
    fn enmc_mapping_streams_whole_rows_before_switching_banks() {
        let org = org();
        let m = AddressMapping::RoRaBaCoBg;
        // One interleaved row group = bank_groups × row bytes.
        let group_bytes = (org.bank_groups * org.bursts_per_row()) as u64 * BURST_BYTES;
        let c0 = m.decode(0, &org);
        let c_next = m.decode(group_bytes, &org);
        assert_ne!(c0.bank, c_next.bank);
        assert_eq!(c0.row, c_next.row);
    }

    #[test]
    fn flat_bank_covers_all_banks() {
        let org = org();
        let mut seen = std::collections::HashSet::new();
        for bg in 0..org.bank_groups {
            for b in 0..org.banks_per_group {
                let c = Coord { channel: 0, rank: 0, bank_group: bg, bank: b, row: 0, column: 0 };
                seen.insert(c.flat_bank(&org));
            }
        }
        assert_eq!(seen.len(), org.banks_per_rank());
    }
}
