//! Functional backing store: sparse physical memory holding real data.
//!
//! The paper validates its execution flow by making Ramulator "read from and
//! write values to memory and check the final output against pre-calculated
//! results" (§IV). This store gives the simulator the same capability
//! without allocating the full simulated capacity.

use rustc_hash::FxHashMap;

const PAGE_SHIFT: u32 = 12;
const PAGE_BYTES: usize = 1 << PAGE_SHIFT;

/// Sparse byte-addressable physical memory (4 KiB pages, zero-fill on read).
///
/// Page lookup runs on every simulated byte access during functional
/// validation, so the index uses FxHash rather than SipHash — page numbers
/// are simulator-internal integers, not attacker-controlled keys.
#[derive(Debug, Default)]
pub struct SparseMem {
    pages: FxHashMap<u64, Box<[u8; PAGE_BYTES]>>,
}

impl SparseMem {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of materialized pages (for footprint assertions).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    pub fn read_bytes(&self, pa: u64, out: &mut [u8]) {
        let mut pa = pa;
        let mut out = out;
        while !out.is_empty() {
            let page = pa >> PAGE_SHIFT;
            let off = (pa & (PAGE_BYTES as u64 - 1)) as usize;
            let n = out.len().min(PAGE_BYTES - off);
            match self.pages.get(&page) {
                Some(p) => out[..n].copy_from_slice(&p[off..off + n]),
                None => out[..n].fill(0),
            }
            pa += n as u64;
            out = &mut out[n..];
        }
    }

    pub fn write_bytes(&mut self, pa: u64, data: &[u8]) {
        let mut pa = pa;
        let mut data = data;
        while !data.is_empty() {
            let page = pa >> PAGE_SHIFT;
            let off = (pa & (PAGE_BYTES as u64 - 1)) as usize;
            let n = data.len().min(PAGE_BYTES - off);
            let p = self.pages.entry(page).or_insert_with(|| Box::new([0u8; PAGE_BYTES]));
            p[off..off + n].copy_from_slice(&data[..n]);
            pa += n as u64;
            data = &data[n..];
        }
    }

    pub fn read_f32(&self, pa: u64) -> f32 {
        let mut b = [0u8; 4];
        self.read_bytes(pa, &mut b);
        f32::from_le_bytes(b)
    }

    pub fn write_f32(&mut self, pa: u64, v: f32) {
        self.write_bytes(pa, &v.to_le_bytes());
    }

    /// Read a whole cache block of f32 values (16 elements).
    pub fn read_block_f32(&self, pa: u64) -> [f32; 16] {
        let mut raw = [0u8; 64];
        self.read_bytes(pa, &mut raw);
        let mut out = [0f32; 16];
        for (i, chunk) in raw.chunks_exact(4).enumerate() {
            out[i] = f32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        out
    }

    pub fn write_block_f32(&mut self, pa: u64, vals: &[f32; 16]) {
        let mut raw = [0u8; 64];
        for (i, v) in vals.iter().enumerate() {
            raw[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
        self.write_bytes(pa, &raw);
    }

    /// Write an f32 slice starting at `pa`.
    pub fn write_f32_slice(&mut self, pa: u64, vals: &[f32]) {
        for (i, v) in vals.iter().enumerate() {
            self.write_f32(pa + 4 * i as u64, *v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_and_roundtrip() {
        let mut m = SparseMem::new();
        assert_eq!(m.read_f32(0x1000), 0.0);
        m.write_f32(0x1000, 3.5);
        assert_eq!(m.read_f32(0x1000), 3.5);
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn cross_page_write() {
        let mut m = SparseMem::new();
        let data: Vec<u8> = (0..=255).collect();
        m.write_bytes(4096 - 128, &data);
        let mut back = vec![0u8; 256];
        m.read_bytes(4096 - 128, &mut back);
        assert_eq!(back, data);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn block_f32_roundtrip() {
        let mut m = SparseMem::new();
        let vals: [f32; 16] = std::array::from_fn(|i| i as f32 * 0.25 - 1.0);
        m.write_block_f32(0x40, &vals);
        assert_eq!(m.read_block_f32(0x40), vals);
        // Neighboring blocks untouched.
        assert_eq!(m.read_block_f32(0x0), [0.0; 16]);
    }

    #[test]
    fn sparse_footprint_stays_small() {
        let mut m = SparseMem::new();
        for i in 0..64 {
            m.write_f32(i * (1 << 20), 1.0);
        }
        assert_eq!(m.resident_pages(), 64);
    }
}
