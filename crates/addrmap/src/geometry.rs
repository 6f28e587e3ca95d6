//! DRAM system organization (channels, ranks, bank groups, banks, rows,
//! columns) at cache-block granularity.


/// Size of one cache block / DRAM burst transfer (64 B = BL8 on a 64-bit bus).
pub const BLOCK_BYTES: u64 = 64;
/// log2 of [`BLOCK_BYTES`].
pub const BLOCK_SHIFT: u32 = 6;

/// Physical DRAM organization. All counts are powers of two.
///
/// The default matches the paper's evaluated system (§IV, Fig. 4a): the
/// Skylake mapping has one channel bit and one rank bit, and DDR4 devices
/// have 4 bank groups of 4 banks, giving 2 CH-level, 4 DV-level, and 16
/// BG-level PIM units ("for StepStone-BG there are 16 active PIMs", §V-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    pub channels: u32,
    pub ranks_per_channel: u32,
    pub bankgroups_per_rank: u32,
    pub banks_per_bankgroup: u32,
    pub rows_per_bank: u32,
    /// Cache blocks per DRAM row (per rank). 8 KiB rows → 128 blocks.
    pub blocks_per_row: u32,
}

impl Default for Geometry {
    fn default() -> Self {
        Self {
            channels: 2,
            ranks_per_channel: 2,
            bankgroups_per_rank: 4,
            banks_per_bankgroup: 4,
            rows_per_bank: 32768,
            blocks_per_row: 128,
        }
    }
}

impl Geometry {
    /// Bits needed for each coordinate field.
    pub fn channel_bits(&self) -> u32 {
        self.channels.trailing_zeros()
    }
    pub fn rank_bits(&self) -> u32 {
        self.ranks_per_channel.trailing_zeros()
    }
    pub fn bankgroup_bits(&self) -> u32 {
        self.bankgroups_per_rank.trailing_zeros()
    }
    pub fn bank_bits(&self) -> u32 {
        self.banks_per_bankgroup.trailing_zeros()
    }
    pub fn row_bits(&self) -> u32 {
        self.rows_per_bank.trailing_zeros()
    }
    pub fn column_bits(&self) -> u32 {
        self.blocks_per_row.trailing_zeros()
    }

    /// Total physical-address bits above the block offset.
    pub fn block_addr_bits(&self) -> u32 {
        self.channel_bits()
            + self.rank_bits()
            + self.bankgroup_bits()
            + self.bank_bits()
            + self.row_bits()
            + self.column_bits()
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        (self.channels as u64)
            * (self.ranks_per_channel as u64)
            * (self.bankgroups_per_rank as u64)
            * (self.banks_per_bankgroup as u64)
            * (self.rows_per_bank as u64)
            * (self.blocks_per_row as u64)
            * BLOCK_BYTES
    }

    /// Total banks across the whole system.
    pub fn total_banks(&self) -> u32 {
        self.channels
            * self.ranks_per_channel
            * self.bankgroups_per_rank
            * self.banks_per_bankgroup
    }

    fn assert_pow2(v: u32, what: &str) {
        assert!(v.is_power_of_two(), "{what} must be a power of two, got {v}");
    }

    /// Panic unless every field is a power of two.
    pub fn validate(&self) {
        Self::assert_pow2(self.channels, "channels");
        Self::assert_pow2(self.ranks_per_channel, "ranks_per_channel");
        Self::assert_pow2(self.bankgroups_per_rank, "bankgroups_per_rank");
        Self::assert_pow2(self.banks_per_bankgroup, "banks_per_bankgroup");
        Self::assert_pow2(self.rows_per_bank, "rows_per_bank");
        Self::assert_pow2(self.blocks_per_row, "blocks_per_row");
    }
}

/// A fully decoded DRAM coordinate for one cache block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramCoord {
    pub channel: u32,
    pub rank: u32,
    pub bankgroup: u32,
    pub bank: u32,
    pub row: u32,
    /// Column index in cache-block units within the row.
    pub col: u32,
}

impl DramCoord {
    /// Flat index of this coordinate's bank within the whole system.
    pub fn bank_index(&self, g: &Geometry) -> usize {
        (((self.channel * g.ranks_per_channel + self.rank) * g.bankgroups_per_rank
            + self.bankgroup)
            * g.banks_per_bankgroup
            + self.bank) as usize
    }

    /// Flat index of this coordinate's bank group within the whole system.
    pub fn bankgroup_index(&self, g: &Geometry) -> usize {
        ((self.channel * g.ranks_per_channel + self.rank) * g.bankgroups_per_rank
            + self.bankgroup) as usize
    }

    /// Flat index of this coordinate's rank within the whole system.
    pub fn rank_index(&self, g: &Geometry) -> usize {
        (self.channel * g.ranks_per_channel + self.rank) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_matches_paper() {
        let g = Geometry::default();
        g.validate();
        assert_eq!(g.channels * g.ranks_per_channel * g.bankgroups_per_rank, 16);
        assert_eq!(g.block_addr_bits(), 1 + 1 + 2 + 2 + 15 + 7);
        // 2 ch × 2 rk × 16 banks × 32768 rows × 8 KiB = 16 GiB
        assert_eq!(g.capacity_bytes(), 16 << 30);
        assert_eq!(g.total_banks(), 64);
    }

    #[test]
    fn bank_indexing_is_dense_and_unique() {
        let g = Geometry::default();
        let mut seen = std::collections::HashSet::new();
        for channel in 0..g.channels {
            for rank in 0..g.ranks_per_channel {
                for bankgroup in 0..g.bankgroups_per_rank {
                    for bank in 0..g.banks_per_bankgroup {
                        let c = DramCoord { channel, rank, bankgroup, bank, row: 0, col: 0 };
                        assert!(seen.insert(c.bank_index(&g)));
                        assert!(c.bank_index(&g) < g.total_banks() as usize);
                    }
                }
            }
        }
        assert_eq!(seen.len(), g.total_banks() as usize);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn validate_rejects_non_pow2() {
        let g = Geometry { channels: 3, ..Geometry::default() };
        g.validate();
    }
}
