//! The five XOR address mappings evaluated in the paper (Table II).
//!
//! Mapping 4 is the Skylake baseline reverse-engineered by DRAMA and used
//! throughout the paper; it reproduces the bits documented in Fig. 4a
//! (`BG0 = b7⊕b14`, `CH = b8⊕b9⊕b12⊕b13` within a 32 KiB matrix). Mappings
//! 0–3 are analogues of the Exynos / Haswell / Ivy Bridge / Sandy Bridge
//! mappings modified per the PAE randomization method (Liu et al.), built to
//! span the qualitative diversity the paper leans on in Fig. 11: different
//! input-sharing factors and fine vs coarse bank-group interleaving.

use crate::geometry::Geometry;
use crate::mapping::{BitSpec, Field, XorMapping};

/// Address-mapping identifiers, matching Table II's "ID" column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MappingId {
    /// ID 0: Exynos-like (modified).
    Exynos,
    /// ID 1: Haswell-like (modified).
    Haswell,
    /// ID 2: Ivy Bridge-like (modified).
    IvyBridge,
    /// ID 3: Sandy Bridge-like (modified).
    SandyBridge,
    /// ID 4: Skylake (baseline).
    Skylake,
}

impl MappingId {
    pub const ALL: [MappingId; 5] = [
        MappingId::Exynos,
        MappingId::Haswell,
        MappingId::IvyBridge,
        MappingId::SandyBridge,
        MappingId::Skylake,
    ];

    pub fn index(&self) -> usize {
        match self {
            MappingId::Exynos => 0,
            MappingId::Haswell => 1,
            MappingId::IvyBridge => 2,
            MappingId::SandyBridge => 3,
            MappingId::Skylake => 4,
        }
    }

    pub fn from_index(i: usize) -> Self {
        Self::ALL[i]
    }
}

/// Construct a preset mapping on the default geometry.
pub fn mapping_by_id(id: MappingId) -> XorMapping {
    mapping_on(id, Geometry::default())
}

/// Construct a preset mapping on a caller-provided geometry. Geometries
/// with the default field widths (1 channel bit, 1 rank bit, 2+2 bank
/// bits, 7 column bits) get the Table II bit layouts verbatim (the row
/// width may vary); anything else — the DDR5/LPDDR5/HBM `DramConfig`
/// preset geometries — falls back to `generic_mapping_on`, which builds
/// a mapping in the same XOR style sized to the actual field widths.
pub fn mapping_on(id: MappingId, geom: Geometry) -> XorMapping {
    if geom.channel_bits() != 1
        || geom.rank_bits() != 1
        || geom.bankgroup_bits() != 2
        || geom.bank_bits() != 2
        || geom.column_bits() != 7
    {
        return generic_mapping_on(id, geom);
    }
    use Field::*;
    let mut specs: Vec<BitSpec> = match id {
        // Low column bits first, wide ID bits in the middle of the page,
        // coarse 16 KiB channel stripes. Lowest input-sharing of the set
        // (its row-dependent ID structure is a single rank bit).
        MappingId::Exynos => vec![
            BitSpec::plain(Column, 0),             // b6
            BitSpec::plain(Column, 1),             // b7
            BitSpec::plain(Column, 2),             // b8
            BitSpec::plain(Column, 3),             // b9
            BitSpec::tapped(BankGroup, 0, &[28]),  // b10
            BitSpec::tapped(BankGroup, 1, &[22]),  // b11
            BitSpec::tapped(Channel, 0, &[23, 24]), // b12
            BitSpec::tapped(Bank, 0, &[25]),       // b13
            BitSpec::tapped(Bank, 1, &[26]),       // b14
            BitSpec::plain(Column, 4),             // b15
            BitSpec::plain(Column, 5),             // b16
            BitSpec::plain(Column, 6),             // b17
            BitSpec::tapped(Rank, 0, &[27]),       // b18
        ],
        // Haswell hashes the channel over many low bits; bank/bank-group
        // owner bits sit high (but BG0 taps a low column bit, keeping the
        // bank-group interleave fine). Highest input-sharing.
        MappingId::Haswell => vec![
            BitSpec::plain(Column, 0),                          // b6
            BitSpec::tapped(Channel, 0, &[8, 9, 12, 13, 26, 27]), // b7
            BitSpec::plain(Column, 1),                          // b8
            BitSpec::plain(Column, 2),                          // b9
            BitSpec::plain(Column, 3),                          // b10
            BitSpec::plain(Column, 4),                          // b11
            BitSpec::plain(Column, 5),                          // b12
            BitSpec::plain(Column, 6),                          // b13
            BitSpec::tapped(Bank, 0, &[22]),                    // b14
            BitSpec::tapped(Bank, 1, &[23]),                    // b15
            BitSpec::tapped(BankGroup, 0, &[6, 24]),            // b16
            BitSpec::tapped(BankGroup, 1, &[25]),               // b17
            BitSpec::tapped(Rank, 0, &[28]),                    // b18
        ],
        // Ivy Bridge-like: channel hashed over mid column bits, bank groups
        // interleaved at 32 KiB granularity (coarse — the Fig. 11 tCCDL
        // penalty case at channel level).
        MappingId::IvyBridge => vec![
            BitSpec::plain(Column, 0),                    // b6
            BitSpec::plain(Column, 1),                    // b7
            BitSpec::tapped(Channel, 0, &[9, 10, 12, 13]), // b8
            BitSpec::plain(Column, 2),                    // b9
            BitSpec::plain(Column, 3),                    // b10
            BitSpec::plain(Column, 4),                    // b11
            BitSpec::plain(Column, 5),                    // b12
            BitSpec::plain(Column, 6),                    // b13
            BitSpec::tapped(Bank, 0, &[20]),              // b14
            BitSpec::tapped(BankGroup, 0, &[21]),         // b15
            BitSpec::tapped(BankGroup, 1, &[22]),         // b16
            BitSpec::tapped(Bank, 1, &[23]),              // b17
            BitSpec::tapped(Rank, 0, &[24]),              // b18
        ],
        // Sandy Bridge-like: contiguous 8 KiB column run, then channel and
        // bank bits (coarse bank-group interleave).
        MappingId::SandyBridge => vec![
            BitSpec::plain(Column, 0),             // b6
            BitSpec::plain(Column, 1),             // b7
            BitSpec::plain(Column, 2),             // b8
            BitSpec::plain(Column, 3),             // b9
            BitSpec::plain(Column, 4),             // b10
            BitSpec::plain(Column, 5),             // b11
            BitSpec::plain(Column, 6),             // b12
            BitSpec::tapped(Channel, 0, &[14, 26]), // b13
            BitSpec::tapped(BankGroup, 0, &[27]),  // b14
            BitSpec::tapped(BankGroup, 1, &[22]),  // b15
            BitSpec::tapped(Bank, 0, &[23]),       // b16
            BitSpec::tapped(Bank, 1, &[24]),       // b17
            BitSpec::tapped(Rank, 0, &[25]),       // b18
        ],
        // Skylake (DRAMA): BG0 = b7⊕b14, CH = b8⊕b9⊕b12⊕b13 — exactly the
        // bits the paper names in Fig. 4a — with the remaining ID bits on
        // b15..b18 tapping row bits.
        MappingId::Skylake => vec![
            BitSpec::plain(Column, 0),                // b6
            BitSpec::tapped(BankGroup, 0, &[14]),     // b7
            BitSpec::tapped(Channel, 0, &[9, 12, 13]), // b8
            BitSpec::plain(Column, 1),                // b9
            BitSpec::plain(Column, 2),                // b10
            BitSpec::plain(Column, 3),                // b11
            BitSpec::plain(Column, 4),                // b12
            BitSpec::plain(Column, 5),                // b13
            BitSpec::plain(Column, 6),                // b14
            BitSpec::tapped(BankGroup, 1, &[19]),     // b15
            BitSpec::tapped(Bank, 0, &[20]),          // b16
            BitSpec::tapped(Bank, 1, &[21]),          // b17
            BitSpec::tapped(Rank, 0, &[22]),          // b18
        ],
    };
    for i in 0..geom.row_bits() {
        specs.push(BitSpec::plain(Field::Row, i)); // b19 and up
    }
    let name = match id {
        MappingId::Exynos => "exynos-mod",
        MappingId::Haswell => "haswell-mod",
        MappingId::IvyBridge => "ivybridge-mod",
        MappingId::SandyBridge => "sandybridge-mod",
        MappingId::Skylake => "skylake",
    };
    XorMapping::from_bit_specs(name, geom, &specs)
}

/// XOR mapping for an arbitrary geometry, in the style of the Table II
/// presets: one low column bit, then channel / bank-group / bank / rank ID
/// bits (finely interleaving consecutive blocks), then the remaining
/// column bits, then the row. Each ID bit additionally XOR-taps a distinct
/// *plain-owned* row PA bit — tap assignment rotates with the mapping ID
/// so the five presets stay distinct on any geometry — which keeps the
/// per-bit ownership matrix unit upper-triangular and hence always
/// invertible (the `linear_mapping` construction, plus taps).
fn generic_mapping_on(id: MappingId, geom: Geometry) -> XorMapping {
    use crate::geometry::BLOCK_SHIFT;
    use Field::*;
    let id_fields = [
        (Channel, geom.channel_bits()),
        (BankGroup, geom.bankgroup_bits()),
        (Bank, geom.bank_bits()),
        (Rank, geom.rank_bits()),
    ];
    let id_total: u32 = id_fields.iter().map(|(_, n)| n).sum();
    let (colb, rowb) = (geom.column_bits(), geom.row_bits());
    assert!(colb >= 1, "need at least one column bit");
    assert!(rowb >= id_total, "generic mapping taps one row bit per ID bit");
    // First PA bit plainly owned by the row (taps must land on plain bits).
    let row_base = BLOCK_SHIFT + colb + id_total;
    let mut specs: Vec<BitSpec> = vec![BitSpec::plain(Column, 0)];
    let mut next_tap = 0u32;
    for (field, n) in id_fields {
        for i in 0..n {
            let tap = row_base + (next_tap + id.index() as u32) % rowb;
            specs.push(BitSpec::tapped(field, i, &[tap]));
            next_tap += 1;
        }
    }
    for i in 1..colb {
        specs.push(BitSpec::plain(Column, i));
    }
    for i in 0..rowb {
        specs.push(BitSpec::plain(Row, i));
    }
    let name = match id {
        MappingId::Exynos => "exynos-mod",
        MappingId::Haswell => "haswell-mod",
        MappingId::IvyBridge => "ivybridge-mod",
        MappingId::SandyBridge => "sandybridge-mod",
        MappingId::Skylake => "skylake",
    };
    XorMapping::from_bit_specs(name, geom, &specs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::BLOCK_SHIFT;

    #[test]
    fn all_presets_build_and_roundtrip() {
        for id in MappingId::ALL {
            let m = mapping_by_id(id);
            for pa in (0..4096u64)
                .map(|i| i * 64)
                .chain([1 << 28, (1 << 25) | (77 << BLOCK_SHIFT)])
            {
                let c = m.decode(pa);
                assert_eq!(m.encode(c), pa & !63, "{id:?} pa={pa:#x}");
            }
        }
    }

    #[test]
    fn skylake_matches_paper_documented_bits() {
        let m = mapping_by_id(MappingId::Skylake);
        // BG0 = b7 ⊕ b14
        assert_eq!(m.decode(1 << 7).bankgroup & 1, 1);
        assert_eq!(m.decode(1 << 14).bankgroup & 1, 1);
        assert_eq!(m.decode((1 << 7) | (1 << 14)).bankgroup & 1, 0);
        // CH = b8 ⊕ b9 ⊕ b12 ⊕ b13
        for b in [8, 9, 12, 13] {
            assert_eq!(m.decode(1u64 << b).channel, 1, "bit {b}");
        }
        assert_eq!(m.decode((1 << 8) | (1 << 9)).channel, 0);
        // Within the Fig. 4 example's 32 KiB matrix, RK/BG1/BA stay fixed.
        for pa in (0..512u64).map(|b| b * 64) {
            let c = m.decode(pa);
            assert_eq!(c.rank, 0);
            assert_eq!(c.bankgroup & 2, 0);
            assert_eq!(c.bank, 0);
        }
    }

    #[test]
    fn generic_mapping_round_trips_on_preset_geometries() {
        // The DDR5 / LPDDR5 / HBM `DramConfig` preset geometries.
        let geoms = [
            Geometry {
                channels: 4,
                ranks_per_channel: 1,
                bankgroups_per_rank: 8,
                banks_per_bankgroup: 4,
                rows_per_bank: 32768,
                blocks_per_row: 64,
            },
            Geometry {
                channels: 2,
                ranks_per_channel: 1,
                bankgroups_per_rank: 4,
                banks_per_bankgroup: 4,
                rows_per_bank: 65536,
                blocks_per_row: 128,
            },
            Geometry {
                channels: 4,
                ranks_per_channel: 1,
                bankgroups_per_rank: 4,
                banks_per_bankgroup: 4,
                rows_per_bank: 65536,
                blocks_per_row: 64,
            },
        ];
        for geom in geoms {
            for id in MappingId::ALL {
                let m = mapping_on(id, geom);
                for pa in (0..4096u64)
                    .map(|i| i * 64)
                    .chain([1 << 30, 1 << 33, (1 << 33) | (1 << 31)])
                {
                    let c = m.decode(pa);
                    assert_eq!(m.encode(c), pa & !63, "{id:?} {geom:?} pa={pa:#x}");
                }
                // Consecutive blocks must still interleave finely across
                // channels (generic layout puts channel bits low).
                let coords: Vec<_> = (0..16u64).map(|b| m.decode(b * 64)).collect();
                assert!(coords.windows(2).any(|w| w[0].channel != w[1].channel));
                assert!(coords.windows(2).any(|w| w[0].bankgroup != w[1].bankgroup));
            }
        }
    }

    #[test]
    fn presets_are_distinct() {
        let maps: Vec<_> = MappingId::ALL.iter().map(|&i| mapping_by_id(i)).collect();
        for i in 0..maps.len() {
            for j in i + 1..maps.len() {
                let differ = (0..(1u64 << 16))
                    .any(|b| maps[i].decode(b * 64) != maps[j].decode(b * 64));
                assert!(differ, "mappings {i} and {j} are identical");
            }
        }
    }

    #[test]
    fn consecutive_blocks_spread_under_skylake() {
        // The XOR mapping must interleave consecutive cache blocks across
        // channels and bank groups at fine granularity (that is its job).
        let m = mapping_by_id(MappingId::Skylake);
        let coords: Vec<_> = (0..16u64).map(|b| m.decode(b * 64)).collect();
        assert!(coords.windows(2).any(|w| w[0].bankgroup != w[1].bankgroup));
        assert!(coords.windows(2).any(|w| w[0].channel != w[1].channel));
    }

    #[test]
    #[should_panic(expected = "need at least one column bit")]
    fn degenerate_geometry_without_columns_is_rejected() {
        let geom = Geometry { blocks_per_row: 1, ..Geometry::default() };
        mapping_on(MappingId::Skylake, geom);
    }

    #[test]
    #[should_panic(expected = "one row bit per ID bit")]
    fn degenerate_geometry_with_too_few_rows_is_rejected() {
        // 8 bank groups routes to the generic builder; two rows per bank
        // cannot absorb one tap per ID bit.
        let geom =
            Geometry { bankgroups_per_rank: 8, rows_per_bank: 2, ..Geometry::default() };
        mapping_on(MappingId::Skylake, geom);
    }
}
