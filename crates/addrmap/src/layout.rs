//! Layout of the weight matrix `A` in physical memory.
//!
//! StepStone keeps `A` contiguous in virtual and physical space in row-major
//! order (paper §III-B); all block-group math is driven by which address bits
//! select the position *within* a matrix row (MCOL) and which select the row
//! (MROW). Following the paper's footnote 2, dimensions are powers of two
//! (non-power-of-two GEMMs are decomposed upstream).

use crate::geometry::{BLOCK_BYTES, BLOCK_SHIFT};

/// A row-major `rows × cols` matrix of `elem_bytes`-sized elements at
/// physical base address `base`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixLayout {
    pub base: u64,
    pub rows: usize,
    pub cols: usize,
    pub elem_bytes: usize,
}

impl MatrixLayout {
    /// Standard f32 matrix. Panics unless dimensions are powers of two, each
    /// row spans at least one cache block, and `base` is naturally aligned to
    /// the full matrix size (which the paper's coloring allocator provides).
    pub fn new_f32(base: u64, rows: usize, cols: usize) -> Self {
        let l = Self { base, rows, cols, elem_bytes: 4 };
        l.validate();
        l
    }

    pub fn validate(&self) {
        assert!(self.rows.is_power_of_two(), "rows must be a power of two");
        assert!(self.cols.is_power_of_two(), "cols must be a power of two");
        assert!(
            self.elem_bytes.is_power_of_two(),
            "element size must be a power of two (got {})",
            self.elem_bytes
        );
        assert!(
            self.row_bytes() >= BLOCK_BYTES,
            "a matrix row must span at least one cache block"
        );
        assert_eq!(
            self.base & (self.total_bytes() - 1),
            0,
            "base must be naturally aligned to the matrix size"
        );
    }

    pub fn row_bytes(&self) -> u64 {
        (self.cols * self.elem_bytes) as u64
    }

    pub fn total_bytes(&self) -> u64 {
        self.row_bytes() * self.rows as u64
    }

    /// Cache blocks per matrix row.
    pub fn blocks_per_row(&self) -> u64 {
        self.row_bytes() / BLOCK_BYTES
    }

    /// Total cache blocks in the matrix.
    pub fn total_blocks(&self) -> u64 {
        self.total_bytes() / BLOCK_BYTES
    }

    /// Mask of PA bits that select the position within a matrix row (MCOL),
    /// restricted to block-address bits.
    pub fn mcol_mask(&self) -> u64 {
        (self.row_bytes() - 1) & !(BLOCK_BYTES - 1)
    }

    /// Mask of PA bits that select the matrix row (MROW).
    pub fn mrow_mask(&self) -> u64 {
        (self.total_bytes() - 1) & !(self.row_bytes() - 1)
    }

    /// Physical address of the block holding `(row, block-column kblk)`.
    pub fn block_pa(&self, row: usize, kblk: u64) -> u64 {
        debug_assert!(row < self.rows && kblk < self.blocks_per_row());
        self.base + row as u64 * self.row_bytes() + kblk * BLOCK_BYTES
    }

    /// Inverse of [`Self::block_pa`]: `(row, kblk)` of an in-matrix address.
    pub fn locate(&self, pa: u64) -> (usize, u64) {
        debug_assert!(self.contains(pa));
        let off = pa - self.base;
        ((off / self.row_bytes()) as usize, (off % self.row_bytes()) >> BLOCK_SHIFT)
    }

    pub fn contains(&self, pa: u64) -> bool {
        pa >= self.base && pa < self.base + self.total_bytes()
    }

    /// End address (exclusive).
    pub fn end(&self) -> u64 {
        self.base + self.total_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_partition_the_span() {
        let l = MatrixLayout::new_f32(0, 1024, 4096);
        assert_eq!(l.row_bytes(), 16384);
        assert_eq!(l.blocks_per_row(), 256);
        assert_eq!(l.mcol_mask(), 0x3FC0); // bits 6..13
        assert_eq!(l.mrow_mask(), 0xFFC000); // bits 14..23
        assert_eq!(l.mcol_mask() & l.mrow_mask(), 0);
        assert_eq!(
            l.mcol_mask() | l.mrow_mask() | (BLOCK_BYTES - 1),
            l.total_bytes() - 1
        );
    }

    #[test]
    fn block_pa_roundtrip() {
        let base = 1u64 << 30;
        let l = MatrixLayout::new_f32(base, 64, 512);
        for row in [0usize, 1, 63] {
            for kblk in [0u64, 1, 31] {
                let pa = l.block_pa(row, kblk);
                assert!(l.contains(pa));
                assert_eq!(l.locate(pa), (row, kblk));
            }
        }
        assert!(!l.contains(base + l.total_bytes()));
    }

    #[test]
    fn paper_example_16x512() {
        // Fig. 4 example: 16×512 4-byte words starting at PA 0 span the lower
        // 15 address bits; a row is 2 KiB.
        let l = MatrixLayout::new_f32(0, 16, 512);
        assert_eq!(l.total_bytes(), 1 << 15);
        assert_eq!(l.row_bytes(), 2048);
        assert_eq!(l.mcol_mask(), 0x7C0); // bits 6..10
        assert_eq!(l.mrow_mask(), 0x7800); // bits 11..14
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn misaligned_base_rejected() {
        MatrixLayout::new_f32(4096, 1024, 4096);
    }

    #[test]
    #[should_panic(expected = "rows must be a power of two")]
    fn non_pow2_rows_are_rejected() {
        MatrixLayout::new_f32(0, 3, 64);
    }

    #[test]
    #[should_panic(expected = "element size must be a power of two")]
    fn non_pow2_element_size_is_rejected() {
        let l = MatrixLayout { base: 0, rows: 4, cols: 64, elem_bytes: 3 };
        l.validate();
    }

    #[test]
    #[should_panic(expected = "at least one cache block")]
    fn sub_block_rows_are_rejected() {
        MatrixLayout::new_f32(0, 4, 4);
    }

}
