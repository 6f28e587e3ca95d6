//! PIM placement levels (channel / device / bank group) and PIM-ID extraction.
//!
//! A PIM unit owns all cache blocks whose DRAM coordinate matches its
//! position at the chosen level (paper §III-A, Fig. 3a). The *PIM ID* of a
//! block is therefore a parity vector over physical-address bits, obtained
//! directly from the mapping's coordinate-bit masks.

use crate::geometry::Geometry;
use crate::mapping::{Field, XorMapping};

/// Where PIM units are integrated (paper Fig. 3a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PimLevel {
    /// StepStone-CH: one PIM per memory channel.
    Channel,
    /// StepStone-DV: one PIM per rank (buffer-chip level).
    Device,
    /// StepStone-BG: one PIM per bank group in every rank.
    BankGroup,
}

impl PimLevel {
    pub const ALL: [PimLevel; 3] = [PimLevel::Channel, PimLevel::Device, PimLevel::BankGroup];

    /// Short display name used in figures ("CH" / "DV" / "BG").
    pub fn tag(&self) -> &'static str {
        match self {
            PimLevel::Channel => "CH",
            PimLevel::Device => "DV",
            PimLevel::BankGroup => "BG",
        }
    }

    /// Number of PIM units this level instantiates in `geom`.
    pub fn pim_count(&self, geom: &Geometry) -> u32 {
        match self {
            PimLevel::Channel => geom.channels,
            PimLevel::Device => geom.channels * geom.ranks_per_channel,
            PimLevel::BankGroup => {
                geom.channels * geom.ranks_per_channel * geom.bankgroups_per_rank
            }
        }
    }

    /// Number of PIM-ID bits at this level.
    pub fn id_bits(&self, geom: &Geometry) -> u32 {
        self.pim_count(geom).trailing_zeros()
    }

    /// PA-bit parity masks for each PIM-ID bit, lowest ID bit first.
    ///
    /// ID bit order is channel bits, then rank bits, then bank-group bits, so
    /// the PIM ID equals `ch | rank << cb | bg << (cb+rb)`.
    pub fn id_masks(&self, mapping: &XorMapping) -> Vec<u64> {
        let mut masks = mapping.field_masks(Field::Channel).to_vec();
        if matches!(self, PimLevel::Device | PimLevel::BankGroup) {
            masks.extend_from_slice(mapping.field_masks(Field::Rank));
        }
        if matches!(self, PimLevel::BankGroup) {
            masks.extend_from_slice(mapping.field_masks(Field::BankGroup));
        }
        masks
    }

    /// The PIM ID owning the cache block at physical address `pa`.
    pub fn pim_id_of(&self, mapping: &XorMapping, pa: u64) -> u32 {
        let mut id = 0u32;
        for (i, m) in self.id_masks(mapping).iter().enumerate() {
            id |= (((pa & m).count_ones()) & 1) << i;
        }
        id
    }

    /// Decompose a PIM ID into (channel, rank, bankgroup) indices; fields not
    /// covered by this level are zero.
    pub fn id_to_position(&self, geom: &Geometry, id: u32) -> (u32, u32, u32) {
        let cb = geom.channel_bits();
        let rb = geom.rank_bits();
        let ch = id & ((1 << cb) - 1);
        let (rk, bg) = match self {
            PimLevel::Channel => (0, 0),
            PimLevel::Device => ((id >> cb) & ((1 << rb) - 1), 0),
            PimLevel::BankGroup => ((id >> cb) & ((1 << rb) - 1), id >> (cb + rb)),
        };
        (ch, rk, bg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{mapping_by_id, MappingId};

    #[test]
    fn pim_counts_match_paper() {
        let geom = Geometry::default();
        assert_eq!(PimLevel::Channel.pim_count(&geom), 2);
        assert_eq!(PimLevel::Device.pim_count(&geom), 4);
        assert_eq!(PimLevel::BankGroup.pim_count(&geom), 16);
        assert_eq!(PimLevel::BankGroup.id_bits(&geom), 4);
    }

    #[test]
    fn pim_id_consistent_with_decode() {
        let m = mapping_by_id(MappingId::Skylake);
        let geom = *m.geometry();
        for pa in (0..10_000u64).map(|i| i * 64) {
            let c = m.decode(pa);
            for level in PimLevel::ALL {
                let id = level.pim_id_of(&m, pa);
                let (ch, rk, bg) = level.id_to_position(&geom, id);
                assert_eq!(ch, c.channel);
                match level {
                    PimLevel::Channel => {}
                    PimLevel::Device => assert_eq!(rk, c.rank),
                    PimLevel::BankGroup => {
                        assert_eq!(rk, c.rank);
                        assert_eq!(bg, c.bankgroup);
                    }
                }
            }
        }
    }

    #[test]
    fn every_pim_owns_an_equal_share() {
        let m = mapping_by_id(MappingId::Skylake);
        let geom = *m.geometry();
        let level = PimLevel::BankGroup;
        let n = level.pim_count(&geom) as usize;
        let blocks = 1 << 14;
        let mut counts = vec![0usize; n];
        for b in 0..blocks as u64 {
            counts[level.pim_id_of(&m, b * 64) as usize] += 1;
        }
        for &c in &counts {
            assert_eq!(c, blocks / n, "XOR interleaving must be balanced");
        }
    }
}
