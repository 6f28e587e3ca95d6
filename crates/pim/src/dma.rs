//! Localization / reduction planning and per-PIM buffer regions
//! (paper §III-B, Fig. 5).
//!
//! Before a PIM GEMM, the input panel `B` is *localized*: replicated into a
//! per-PIM memory region, reorganized so the unit's group-ordered execution
//! reads it sequentially. After the GEMM, the per-PIM partial `C` results
//! are *reduced*. The paper accelerates both with a DMA engine at the PIM
//! controller ("without consuming CPU core resources"); prior schemes do the
//! copies with CPU loads/stores at lower efficiency — the "up to an
//! additional 40%" lever of §I.
//!
//! Because the per-PIM regions are carved out by the coloring allocator
//! (§III-E), their blocks are exactly the blocks whose PIM-ID matches under
//! the same XOR mapping; we enumerate them with the AGEN walk itself.

use stepstone_addr::groups::pim_region_constraints;
use stepstone_addr::{GroupAnalysis, PimLevel, StepStoneAgen, XorMapping, BLOCK_BYTES};


/// Who moves localization/reduction data, and how efficiently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalizationMode {
    /// The PIM controller's replication/reduction DMA engine: streams at
    /// full channel utilization and consumes no CPU time.
    AcceleratedDma,
    /// CPU-mediated copies (PEI, Chopim): loads/stores issued by cores with
    /// limited memory-level parallelism. `gap_cycles` of extra spacing are
    /// inserted between block writes (calibrated to ≈50% of peak).
    HostMediated { gap_cycles: u64 },
}

impl LocalizationMode {
    /// Extra cycles between consecutive localization block transfers.
    pub fn inter_block_gap(&self) -> u64 {
        match self {
            LocalizationMode::AcceleratedDma => 0,
            LocalizationMode::HostMediated { gap_cycles } => *gap_cycles,
        }
    }
}

/// Data volumes of the localization and reduction phases for one GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferPlan {
    /// `B` blocks written per active PIM (replication included).
    pub b_blocks_per_pim: u64,
    /// Partial-`C` blocks read per active PIM during reduction.
    pub c_blocks_per_pim: u64,
    /// Input replication factor (paper's "sharing").
    pub sharing: usize,
    /// Output reduction factor.
    pub reduction: usize,
    pub active_pims: usize,
}

impl TransferPlan {
    /// Compute volumes from the group analysis for batch `n`.
    ///
    /// `B` rows needed by a PIM = 16 × its distinct local column blocks;
    /// each holds `n` f32. Partial `C` rows per PIM hold `n` f32 each.
    pub fn for_gemm(ga: &GroupAnalysis, n: usize) -> Self {
        let b_bytes = ga.distinct_cols_per_pim() * 16 * n as u64 * 4;
        let c_bytes = ga.c_rows_per_pim() as u64 * n as u64 * 4;
        Self {
            b_blocks_per_pim: b_bytes.div_ceil(BLOCK_BYTES),
            c_blocks_per_pim: c_bytes.div_ceil(BLOCK_BYTES),
            sharing: ga.sharing(),
            reduction: ga.reduction(),
            active_pims: ga.active_pim_count(),
        }
    }

    /// Total localization blocks across all active PIMs.
    pub fn total_b_blocks(&self) -> u64 {
        self.b_blocks_per_pim * self.active_pims as u64
    }

    /// Total reduction blocks across all active PIMs.
    pub fn total_c_blocks(&self) -> u64 {
        self.c_blocks_per_pim * self.active_pims as u64
    }
}

/// The per-PIM localized-buffer region: the first `count` blocks at or above
/// `base` that are local to `pim` at `level` under `mapping`.
pub fn region_blocks(
    mapping: &XorMapping,
    level: PimLevel,
    pim: u32,
    base: u64,
    count: u64,
) -> Vec<u64> {
    let cs = pim_region_constraints(mapping, level, pim);
    // PIM-ID bits can involve high address bits (row-bit taps), so a PIM's
    // first local block may sit megabytes past `base`; walk unbounded and
    // take what is needed — the AGEN skips in O(ID bits) per step, and the
    // span-program cache replays the periodic walk structure.
    let end = base + (1u64 << 40);
    StepStoneAgen::new(cs, base, end)
        .span_program()
        .steps()
        .take(count as usize)
        .map(|s| s.pa)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stepstone_addr::{mapping_by_id, MappingId, MatrixLayout};

    #[test]
    fn transfer_plan_matches_replication_algebra() {
        let m = mapping_by_id(MappingId::Skylake);
        let ga = GroupAnalysis::analyze(
            &m,
            PimLevel::BankGroup,
            MatrixLayout::new_f32(0, 1024, 4096),
        );
        let n = 4;
        let plan = TransferPlan::for_gemm(&ga, n);
        // Total localized B bytes = sharing × |B|.
        let b_total_bytes = plan.total_b_blocks() * BLOCK_BYTES;
        assert_eq!(b_total_bytes, ga.sharing() as u64 * 4096 * n as u64 * 4);
        // Total partial-C bytes = reduction × |C|.
        let c_total_bytes = plan.total_c_blocks() * BLOCK_BYTES;
        assert_eq!(c_total_bytes, ga.reduction() as u64 * 1024 * n as u64 * 4);
    }

    #[test]
    fn region_blocks_are_local_and_ascending() {
        let m = mapping_by_id(MappingId::Skylake);
        let level = PimLevel::BankGroup;
        for pim in [0u32, 5, 15] {
            let blocks = region_blocks(&m, level, pim, 1 << 30, 128);
            assert_eq!(blocks.len(), 128);
            assert!(blocks.windows(2).all(|w| w[0] < w[1]));
            for &pa in &blocks {
                assert_eq!(level.pim_id_of(&m, pa), pim);
            }
        }
    }

    #[test]
    fn regions_of_different_pims_are_disjoint() {
        let m = mapping_by_id(MappingId::Skylake);
        let a = region_blocks(&m, PimLevel::Device, 0, 0, 256);
        let b = region_blocks(&m, PimLevel::Device, 1, 0, 256);
        let sa: std::collections::HashSet<_> = a.into_iter().collect();
        assert!(b.iter().all(|pa| !sa.contains(pa)));
    }

    #[test]
    fn host_mediated_mode_inserts_gaps() {
        assert_eq!(LocalizationMode::AcceleratedDma.inter_block_gap(), 0);
        assert_eq!(LocalizationMode::HostMediated { gap_cycles: 4 }.inter_block_gap(), 4);
    }
}
