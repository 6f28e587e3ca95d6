//! GEMM problem specifications.
//!
//! The paper's convention (§II): `C[M,N] += A[M,K] × B[K,N]` where `A` is the
//! large, memory-resident weight matrix, `B` the small input activations
//! (CPU-cache resident), and `N` the batch-like dimension. Per footnote 2,
//! non-power-of-two dimensions are padded or decomposed into power-of-two
//! sub-GEMMs; [`GemmSpec::decompose_pow2`] implements the decomposition.


/// One GEMM: `A` is `m × k`, `B` is `k × n`, `C` is `m × n`, all f32.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmSpec {
    pub m: usize,
    pub k: usize,
    pub n: usize,
}

impl GemmSpec {
    pub fn new(m: usize, k: usize, n: usize) -> Self {
        assert!(m > 0 && k > 0 && n > 0);
        Self { m, k, n }
    }

    pub fn is_pow2(&self) -> bool {
        self.m.is_power_of_two() && self.k.is_power_of_two()
    }

    /// Weight-matrix bytes (the main-memory traffic driver).
    pub fn a_bytes(&self) -> u64 {
        (self.m * self.k * 4) as u64
    }

    pub fn b_bytes(&self) -> u64 {
        (self.k * self.n * 4) as u64
    }

    pub fn c_bytes(&self) -> u64 {
        (self.m * self.n * 4) as u64
    }

    /// Multiply–accumulate count.
    pub fn macs(&self) -> u64 {
        self.m as u64 * self.k as u64 * self.n as u64
    }

    /// Floating-point operations (2 per MAC).
    pub fn flops(&self) -> u64 {
        2 * self.macs()
    }

    /// Operational intensity in flops/byte counting only `A` traffic (the
    /// roofline x-axis of Figs. 1 and 7, where `B` and `C` are cached).
    pub fn operational_intensity(&self) -> f64 {
        self.flops() as f64 / self.a_bytes() as f64
    }

    /// Decompose into power-of-two sub-GEMMs by splitting `m` and `k` along
    /// their binary representations (paper footnote 2: "execution is
    /// partitioned/serialized into smaller, power-of-two matrices").
    /// `n` is the batch dimension and needs no decomposition.
    pub fn decompose_pow2(&self) -> Vec<GemmSpec> {
        let split = |mut v: usize| -> Vec<usize> {
            let mut parts = Vec::new();
            while v != 0 {
                // Largest power of two first keeps the dominant sub-GEMM
                // representative of the whole.
                let p = 1usize << (usize::BITS - 1 - v.leading_zeros());
                parts.push(p);
                v -= p;
            }
            parts
        };
        // Very small tail parts would under-fill a cache-block row. Merge
        // all sub-16 binary parts into a *single* padded 16-element part
        // (one block of f32): rounding each up independently (m=7 →
        // [4,2,1] → [16,16,16]) would triple the padded work and
        // double-count blocks in the cross product.
        let clamp = |parts: Vec<usize>| -> Vec<usize> {
            let mut out: Vec<usize> = parts.iter().copied().filter(|&p| p >= 16).collect();
            if out.len() < parts.len() {
                out.push(16);
            }
            out
        };
        let ms = clamp(split(self.m));
        let ks = clamp(split(self.k));
        let mut out = Vec::with_capacity(ms.len() * ks.len());
        for &m in &ms {
            for &k in &ks {
                out.push(GemmSpec { m, k, n: self.n });
            }
        }
        out
    }
}

impl std::fmt::Display for GemmSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{} (N={})", self.m, self.k, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_spec_decomposes_to_itself() {
        let g = GemmSpec::new(1024, 4096, 4);
        assert!(g.is_pow2());
        assert_eq!(g.decompose_pow2(), vec![g]);
    }

    #[test]
    fn non_pow2_decomposition_preserves_work() {
        // GPT2's 1600×6400 MLP (Table I).
        let g = GemmSpec::new(1600, 6400, 4);
        let parts = g.decompose_pow2();
        assert!(parts.iter().all(|p| p.is_pow2()));
        let macs: u64 = parts.iter().map(|p| p.macs()).sum();
        assert_eq!(macs, g.macs());
        // 1600 = 1024 + 512 + 64; 6400 = 4096 + 2048 + 256.
        assert_eq!(parts.len(), 9);
    }

    #[test]
    fn sub_16_tails_merge_into_one_padded_part() {
        // m = 7 → binary parts [4, 2, 1]: one padded 16 part, not three
        // (independent rounding tripled the padded work).
        let g = GemmSpec::new(7, 2048, 4);
        assert_eq!(g.decompose_pow2(), vec![GemmSpec::new(16, 2048, 4)]);
        // m = 23 = 16 + 4 + 2 + 1 → [16, 16]; k = 100 = 64 + 32 + 4 →
        // [64, 32, 16].
        let g = GemmSpec::new(23, 100, 2);
        let parts = g.decompose_pow2();
        assert_eq!(parts.len(), 6);
        let padded: u64 = parts.iter().map(|p| p.macs()).sum();
        assert_eq!(padded, 32 * 112 * 2, "Σm=32, Σk=112");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(200))]

        #[test]
        fn decomposition_work_is_minimally_padded(m in 1usize..3000, k in 1usize..3000) {
            // Work preservation under padding: the decomposition covers
            // exactly the block-row-padded matrix — each dimension rounds
            // up to the next multiple of 16 *once*, never per tail part.
            let g = GemmSpec::new(m | 1, k | 1, 3); // odd dims stress tails
            let parts = g.decompose_pow2();
            proptest::prop_assert!(parts.iter().all(|p| p.is_pow2() && p.m >= 16 && p.k >= 16));
            let padded_m = (g.m.div_ceil(16) * 16) as u64;
            let padded_k = (g.k.div_ceil(16) * 16) as u64;
            let macs: u64 = parts.iter().map(|p| p.macs()).sum();
            proptest::prop_assert_eq!(macs, padded_m * padded_k * g.n as u64);
        }
    }

    #[test]
    fn dlrm_bottom_mlp_decomposition() {
        // 2560 = 2048 + 512.
        let g = GemmSpec::new(2560, 512, 4);
        let parts = g.decompose_pow2();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], GemmSpec::new(2048, 512, 4));
        assert_eq!(parts[1], GemmSpec::new(512, 512, 4));
    }

    #[test]
    fn intensity_scales_with_batch() {
        let g1 = GemmSpec::new(1024, 4096, 1);
        let g32 = GemmSpec::new(1024, 4096, 32);
        assert!((g1.operational_intensity() - 0.5).abs() < 1e-12);
        assert!((g32.operational_intensity() - 16.0).abs() < 1e-12);
    }

    #[test]
    fn tiny_tail_dimensions_round_to_a_block() {
        // DLRM top MLP output dimension 1 → padded to 16 (one f32 block).
        let g = GemmSpec::new(128, 1, 4);
        let parts = g.decompose_pow2();
        assert_eq!(parts, vec![GemmSpec::new(128, 16, 4)]);
    }
}
