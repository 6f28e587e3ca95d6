//! Invertible XOR-based physical-address → DRAM-coordinate mappings.
//!
//! CPUs distribute consecutive cache blocks across channels/ranks/banks with
//! XOR hashes of physical-address bits (DRAMA, paper §II). We represent a
//! mapping by giving every block-address bit an *owner* coordinate field and
//! letting bits additionally *tap into* (XOR with) other fields' coordinate
//! bits. Every coordinate bit is then the parity of a PA-bit mask, the whole
//! mapping is linear over GF(2), and invertibility (checked at construction)
//! makes encode/decode exact in both directions.

use crate::geometry::{DramCoord, Geometry, BLOCK_SHIFT};
use crate::gf2::Gf2Matrix;

/// A DRAM coordinate field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Field {
    Column,
    Bank,
    BankGroup,
    Rank,
    Channel,
    Row,
}

/// Declares that a physical-address bit is owned by `field` bit `index`, and
/// that this coordinate bit additionally XORs in the listed `taps`
/// (absolute PA bit positions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSpec {
    pub field: Field,
    pub index: u32,
    pub taps: Vec<u32>,
}

impl BitSpec {
    pub fn plain(field: Field, index: u32) -> Self {
        Self { field, index, taps: Vec::new() }
    }

    pub fn tapped(field: Field, index: u32, taps: &[u32]) -> Self {
        Self { field, index, taps: taps.to_vec() }
    }
}

/// An invertible XOR-based address mapping for a given [`Geometry`].
#[derive(Debug, Clone)]
pub struct XorMapping {
    name: String,
    geom: Geometry,
    /// PA-bit masks (absolute bit positions, all ≥ [`BLOCK_SHIFT`]) for each
    /// coordinate bit, per field.
    col_masks: Vec<u64>,
    bank_masks: Vec<u64>,
    bg_masks: Vec<u64>,
    rank_masks: Vec<u64>,
    ch_masks: Vec<u64>,
    row_masks: Vec<u64>,
    /// Inverse map: coordinate-bit vector → block-address bits.
    inverse: Option<Gf2Matrix>,
    /// Byte-indexed XOR tables for [`XorMapping::decode`]: one 256-entry
    /// table per PA byte, each entry the packed-coordinate contribution of
    /// that byte value. Decode is then 8 lookups + XORs instead of ~30
    /// mask/popcount gathers. Empty when a field exceeds the packed widths
    /// (falls back to the gather path).
    decode_lut: Vec<[u64; 256]>,
}

/// Packed-coordinate bit offsets used by the decode LUT
/// (col 8b | bank 4b | bankgroup 4b | rank 3b | channel 3b | row 32b).
const PACK_BANK: u32 = 8;
const PACK_BG: u32 = 12;
const PACK_RANK: u32 = 16;
const PACK_CH: u32 = 19;
const PACK_ROW: u32 = 22;

impl XorMapping {
    /// Build a mapping from one [`BitSpec`] per block-address bit, starting at
    /// PA bit [`BLOCK_SHIFT`]. Panics if the specs do not cover each
    /// coordinate bit exactly once or the resulting map is not invertible.
    pub fn from_bit_specs(name: &str, geom: Geometry, specs: &[BitSpec]) -> Self {
        geom.validate();
        let nbits = geom.block_addr_bits() as usize;
        assert_eq!(
            specs.len(),
            nbits,
            "mapping `{name}` must specify all {nbits} block-address bits"
        );
        let field_len = |f: Field| match f {
            Field::Column => geom.column_bits(),
            Field::Bank => geom.bank_bits(),
            Field::BankGroup => geom.bankgroup_bits(),
            Field::Rank => geom.rank_bits(),
            Field::Channel => geom.channel_bits(),
            Field::Row => geom.row_bits(),
        } as usize;
        let mut masks: std::collections::HashMap<(u8, u32), u64> = std::collections::HashMap::new();
        for (i, spec) in specs.iter().enumerate() {
            let pa_bit = BLOCK_SHIFT + i as u32;
            assert!(
                (spec.index as usize) < field_len(spec.field),
                "mapping `{name}`: {:?} bit {} out of range",
                spec.field,
                spec.index
            );
            let mut mask = 1u64 << pa_bit;
            for &tap in &spec.taps {
                assert!(
                    tap >= BLOCK_SHIFT && (tap as usize) < BLOCK_SHIFT as usize + nbits,
                    "mapping `{name}`: tap bit {tap} outside block-address range"
                );
                mask |= 1u64 << tap;
            }
            let key = (field_code(spec.field), spec.index);
            assert!(
                masks.insert(key, mask).is_none(),
                "mapping `{name}`: {:?} bit {} owned twice",
                spec.field,
                spec.index
            );
        }
        let collect = |f: Field| -> Vec<u64> {
            (0..field_len(f) as u32)
                .map(|i| {
                    *masks.get(&(field_code(f), i)).unwrap_or_else(|| {
                        panic!("mapping `{name}`: {f:?} bit {i} has no owner")
                    })
                })
                .collect()
        };
        let mut m = Self {
            name: name.to_string(),
            geom,
            col_masks: collect(Field::Column),
            bank_masks: collect(Field::Bank),
            bg_masks: collect(Field::BankGroup),
            rank_masks: collect(Field::Rank),
            ch_masks: collect(Field::Channel),
            row_masks: collect(Field::Row),
            inverse: None,
            decode_lut: Vec::new(),
        };
        let fwd = m.forward_matrix();
        let inv = fwd
            .inverse()
            .unwrap_or_else(|| panic!("mapping `{name}` is not invertible"));
        m.inverse = Some(inv);
        m.build_decode_lut();
        m
    }

    /// Precompute the byte-indexed decode tables (see `decode_lut`).
    fn build_decode_lut(&mut self) {
        let fits = self.col_masks.len() <= 8
            && self.bank_masks.len() <= 4
            && self.bg_masks.len() <= 4
            && self.rank_masks.len() <= 3
            && self.ch_masks.len() <= 3
            && self.row_masks.len() <= 32;
        if !fits {
            self.decode_lut = Vec::new();
            return;
        }
        // Packed contribution of each single PA bit.
        let mut bit_contrib = [0u64; 64];
        let mut add = |masks: &[u64], shift: u32| {
            for (i, &m) in masks.iter().enumerate() {
                let mut mm = m;
                while mm != 0 {
                    bit_contrib[mm.trailing_zeros() as usize] ^= 1u64 << (shift + i as u32);
                    mm &= mm - 1;
                }
            }
        };
        add(&self.col_masks, 0);
        add(&self.bank_masks, PACK_BANK);
        add(&self.bg_masks, PACK_BG);
        add(&self.rank_masks, PACK_RANK);
        add(&self.ch_masks, PACK_CH);
        add(&self.row_masks, PACK_ROW);
        let mut lut = vec![[0u64; 256]; 8];
        for (byte, table) in lut.iter_mut().enumerate() {
            for (v, entry) in table.iter_mut().enumerate() {
                let mut acc = 0u64;
                for b in 0..8 {
                    if v >> b & 1 == 1 {
                        acc ^= bit_contrib[byte * 8 + b];
                    }
                }
                *entry = acc;
            }
        }
        self.decode_lut = lut;
    }

    /// The PA-bit → coordinate-bit matrix (rows in canonical field order).
    fn forward_matrix(&self) -> Gf2Matrix {
        let nbits = self.geom.block_addr_bits() as usize;
        let rows: Vec<u64> = self
            .all_masks()
            .map(|m| m >> BLOCK_SHIFT)
            .collect();
        Gf2Matrix::from_rows(rows, nbits)
    }

    /// All coordinate-bit masks in canonical order:
    /// column, bank, bank group, rank, channel, row.
    pub fn all_masks(&self) -> impl Iterator<Item = u64> + '_ {
        self.col_masks
            .iter()
            .chain(&self.bank_masks)
            .chain(&self.bg_masks)
            .chain(&self.rank_masks)
            .chain(&self.ch_masks)
            .chain(&self.row_masks)
            .copied()
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// PA bits that feed *only* the column coordinate: owned by a column
    /// bit and tapped by no other field. Flipping such a bit changes the
    /// decoded column and nothing else, so a contiguous address run whose
    /// varying bits all lie in this mask stays on one (channel, rank, bank
    /// group, bank, row) — the guarantee behind [`crate::agen::SpanProgram`]
    /// run hints to the execution engine.
    pub fn column_pure_mask(&self) -> u64 {
        let union = |masks: &[u64]| masks.iter().fold(0u64, |a, &m| a | m);
        union(&self.col_masks)
            & !union(&self.bank_masks)
            & !union(&self.bg_masks)
            & !union(&self.rank_masks)
            & !union(&self.ch_masks)
            & !union(&self.row_masks)
    }

    /// PA-bit masks for a field's coordinate bits (absolute bit positions).
    pub fn field_masks(&self, field: Field) -> &[u64] {
        match field {
            Field::Column => &self.col_masks,
            Field::Bank => &self.bank_masks,
            Field::BankGroup => &self.bg_masks,
            Field::Rank => &self.rank_masks,
            Field::Channel => &self.ch_masks,
            Field::Row => &self.row_masks,
        }
    }

    /// Decode a physical (byte) address into its DRAM coordinate.
    #[inline]
    pub fn decode(&self, pa: u64) -> DramCoord {
        if let Some(lut) = self.decode_lut.first_chunk::<8>() {
            let p = lut[0][(pa & 0xFF) as usize]
                ^ lut[1][(pa >> 8 & 0xFF) as usize]
                ^ lut[2][(pa >> 16 & 0xFF) as usize]
                ^ lut[3][(pa >> 24 & 0xFF) as usize]
                ^ lut[4][(pa >> 32 & 0xFF) as usize]
                ^ lut[5][(pa >> 40 & 0xFF) as usize]
                ^ lut[6][(pa >> 48 & 0xFF) as usize]
                ^ lut[7][(pa >> 56 & 0xFF) as usize];
            return DramCoord {
                channel: (p >> PACK_CH & 0x7) as u32,
                rank: (p >> PACK_RANK & 0x7) as u32,
                bankgroup: (p >> PACK_BG & 0xF) as u32,
                bank: (p >> PACK_BANK & 0xF) as u32,
                row: (p >> PACK_ROW) as u32,
                col: (p & 0xFF) as u32,
            };
        }
        self.decode_gather(pa)
    }

    /// The mask/popcount gather fallback (geometries whose fields exceed
    /// the packed LUT widths).
    fn decode_gather(&self, pa: u64) -> DramCoord {
        let gather = |masks: &[u64]| -> u32 {
            let mut v = 0u32;
            for (i, &m) in masks.iter().enumerate() {
                v |= (((pa & m).count_ones()) & 1) << i;
            }
            v
        };
        DramCoord {
            channel: gather(&self.ch_masks),
            rank: gather(&self.rank_masks),
            bankgroup: gather(&self.bg_masks),
            bank: gather(&self.bank_masks),
            row: gather(&self.row_masks),
            col: gather(&self.col_masks),
        }
    }

    /// Encode a DRAM coordinate back into the physical (byte) address of the
    /// cache block.
    pub fn encode(&self, c: DramCoord) -> u64 {
        let g = &self.geom;
        debug_assert!(c.col < g.blocks_per_row && c.row < g.rows_per_bank);
        let mut y = 0u64;
        let mut off = 0u32;
        let mut push = |v: u32, bits: u32| {
            y |= (v as u64) << off;
            off += bits;
        };
        push(c.col, g.column_bits());
        push(c.bank, g.bank_bits());
        push(c.bankgroup, g.bankgroup_bits());
        push(c.rank, g.rank_bits());
        push(c.channel, g.channel_bits());
        push(c.row, g.row_bits());
        let inv = self.inverse.as_ref().expect("inverse built at construction");
        inv.mul_vec(y) << BLOCK_SHIFT
    }
}

fn field_code(f: Field) -> u8 {
    match f {
        Field::Column => 0,
        Field::Bank => 1,
        Field::BankGroup => 2,
        Field::Rank => 3,
        Field::Channel => 4,
        Field::Row => 5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A linear "no hashing" mapping: low bits column, then bank, bg, rank,
    /// channel, row.
    fn linear_mapping(geom: Geometry) -> XorMapping {
        let mut specs = Vec::new();
        for i in 0..geom.column_bits() {
            specs.push(BitSpec::plain(Field::Column, i));
        }
        for i in 0..geom.bank_bits() {
            specs.push(BitSpec::plain(Field::Bank, i));
        }
        for i in 0..geom.bankgroup_bits() {
            specs.push(BitSpec::plain(Field::BankGroup, i));
        }
        for i in 0..geom.rank_bits() {
            specs.push(BitSpec::plain(Field::Rank, i));
        }
        for i in 0..geom.channel_bits() {
            specs.push(BitSpec::plain(Field::Channel, i));
        }
        for i in 0..geom.row_bits() {
            specs.push(BitSpec::plain(Field::Row, i));
        }
        XorMapping::from_bit_specs("linear", geom, &specs)
    }

    #[test]
    fn linear_roundtrip() {
        let geom = Geometry::default();
        let m = linear_mapping(geom);
        for pa in [0u64, 64, 128, 4096, 1 << 20, (1 << 30) + 8192] {
            let c = m.decode(pa);
            assert_eq!(m.encode(c), pa & !63, "pa={pa:#x}");
        }
    }

    #[test]
    fn linear_decode_fields() {
        let geom = Geometry::default();
        let m = linear_mapping(geom);
        // Block 1 → column 1.
        assert_eq!(m.decode(64).col, 1);
        assert_eq!(m.decode(64).bank, 0);
        // First bank bit sits right above the 7 column bits: 64 << 7.
        let pa = 64u64 << 7;
        assert_eq!(m.decode(pa).bank, 1);
        assert_eq!(m.decode(pa).col, 0);
    }

    #[test]
    fn tapped_mapping_roundtrips() {
        let geom = Geometry::default();
        // Channel bit = b8 ⊕ b9 ⊕ b12: tap two column-owned bits.
        let mut specs = Vec::new();
        specs.push(BitSpec::plain(Field::Column, 0)); // b6
        specs.push(BitSpec::tapped(Field::BankGroup, 0, &[14])); // b7
        specs.push(BitSpec::tapped(Field::Channel, 0, &[9, 12])); // b8
        for (i, idx) in (9..15).zip(1..7) {
            let _ = i;
            specs.push(BitSpec::plain(Field::Column, idx)); // b9..b14
        }
        specs.push(BitSpec::tapped(Field::BankGroup, 1, &[19])); // b15
        specs.push(BitSpec::plain(Field::Bank, 0)); // b16
        specs.push(BitSpec::plain(Field::Bank, 1)); // b17
        specs.push(BitSpec::tapped(Field::Rank, 0, &[20])); // b18
        for i in 0..geom.row_bits() {
            specs.push(BitSpec::plain(Field::Row, i)); // b19..
        }
        let m = XorMapping::from_bit_specs("tapped", geom, &specs);
        for pa in (0..4096u64).map(|i| i * 64).chain([1 << 25, (1 << 22) | 832]) {
            let c = m.decode(pa);
            assert_eq!(m.encode(c), pa & !63, "pa={pa:#x}");
        }
        // The tap works: flipping b9 alone flips the channel.
        let c0 = m.decode(0);
        let c1 = m.decode(1 << 9);
        assert_ne!(c0.channel, c1.channel);
    }

    #[test]
    #[should_panic(expected = "owned twice")]
    fn duplicate_owner_rejected() {
        let geom = Geometry::default();
        let mut specs = vec![BitSpec::plain(Field::Column, 0); geom.block_addr_bits() as usize];
        specs[1] = BitSpec::plain(Field::Column, 0);
        XorMapping::from_bit_specs("dup", geom, &specs);
    }

    #[test]
    fn encode_decode_exhaustive_small_geometry() {
        let geom = Geometry {
            channels: 2,
            ranks_per_channel: 1,
            bankgroups_per_rank: 2,
            banks_per_bankgroup: 2,
            rows_per_bank: 4,
            blocks_per_row: 4,
        };
        let nbits = geom.block_addr_bits();
        let mut specs = vec![
            BitSpec::plain(Field::Column, 0),
            BitSpec::tapped(Field::Channel, 0, &[9, 11]),
            BitSpec::plain(Field::Column, 1),
            BitSpec::tapped(Field::BankGroup, 0, &[12]),
            BitSpec::plain(Field::Bank, 0),
            BitSpec::plain(Field::Row, 0),
            BitSpec::plain(Field::Row, 1),
        ];
        assert_eq!(specs.len(), nbits as usize);
        let m = XorMapping::from_bit_specs("small", geom, &specs);
        let blocks = 1u64 << nbits;
        let mut seen = std::collections::HashSet::new();
        for b in 0..blocks {
            let pa = b << BLOCK_SHIFT;
            let c = m.decode(pa);
            assert_eq!(m.encode(c), pa);
            assert!(seen.insert((c.channel, c.rank, c.bankgroup, c.bank, c.row, c.col)));
        }
        assert_eq!(seen.len(), blocks as usize);
        // And a second mapping differing only in taps maps differently.
        specs[1].taps = vec![9];
        let m2 = XorMapping::from_bit_specs("small2", geom, &specs);
        assert!((0..blocks).any(|b| m.decode(b << BLOCK_SHIFT) != m2.decode(b << BLOCK_SHIFT)));
    }
}
