//! Scratchpad capacity planning: splitting the per-unit buffer between the
//! input panel (`B`) and output accumulators (`C`), and deriving the row /
//! column partition counts of Algorithm 1.
//!
//! The paper processes blocks of rows first "because C offers greater reuse
//! as it is both read and written" (§III-C), and §V-F notes the search over
//! buffer splits converges quickly because there are only two buffers. The
//! planner below minimizes row partitions first (each extra row partition
//! re-reads every localized `B` panel), then sizes column partitions to fit
//! the remainder.

use stepstone_addr::GroupAnalysis;

/// How a PIM unit's scratchpad is used for one GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferPlan {
    /// Row partitions (outer loop of Algorithm 1).
    pub rparts: u32,
    /// Column partitions within each group.
    pub cparts: u32,
    /// Bytes reserved for the `C` accumulator buffer.
    pub c_buf_bytes: u64,
    /// Bytes reserved for the `B` panel buffer.
    pub b_buf_bytes: u64,
    /// `C` rows resident per row partition (per PIM).
    pub c_rows_resident: usize,
    /// `B` column blocks resident per (group, column partition).
    pub b_cols_resident: u64,
}

impl BufferPlan {
    /// Plan the buffer split for a PIM unit with `scratch_bytes` capacity
    /// executing the analyzed GEMM with batch `n`.
    pub fn plan(scratch_bytes: u64, n: usize, ga: &GroupAnalysis) -> BufferPlan {
        let row_bytes = (n * 4) as u64; // one C row: N f32 accumulators
        let bcol_bytes = (16 * n * 4) as u64; // one B column block: 16 rows × N
        assert!(
            scratch_bytes >= row_bytes + bcol_bytes,
            "scratchpad too small for even one C row and one B block \
             ({scratch_bytes} < {row_bytes} + {bcol_bytes})"
        );
        let c_rows_total = ga.c_rows_per_pim() as u64;
        let local_cols = ga.local_cols_per_group();
        let mut rparts = 1u64;
        loop {
            let c_rows_resident = c_rows_total.div_ceil(rparts);
            let c_need = c_rows_resident * row_bytes;
            if c_need + bcol_bytes <= scratch_bytes {
                let b_cap = scratch_bytes - c_need;
                let mut cparts = 1u64;
                while local_cols.div_ceil(cparts) * bcol_bytes > b_cap {
                    cparts *= 2;
                }
                return BufferPlan {
                    rparts: rparts as u32,
                    cparts: cparts as u32,
                    c_buf_bytes: c_need,
                    b_buf_bytes: b_cap,
                    c_rows_resident: c_rows_resident as usize,
                    b_cols_resident: local_cols.div_ceil(cparts),
                };
            }
            rparts *= 2;
            assert!(
                rparts <= c_rows_total.max(1) * 2,
                "buffer planning failed to converge"
            );
        }
    }

    /// Total bytes the plan actually reserves.
    pub fn used_bytes(&self) -> u64 {
        self.c_buf_bytes + self.b_buf_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stepstone_addr::{mapping_by_id, GroupAnalysis, MappingId, MatrixLayout, PimLevel};

    fn ga(rows: usize, cols: usize, level: PimLevel) -> GroupAnalysis {
        let m = mapping_by_id(MappingId::Skylake);
        GroupAnalysis::analyze(&m, level, MatrixLayout::new_f32(0, rows, cols))
    }

    #[test]
    fn small_gemm_fits_without_partitioning() {
        let ga = ga(128, 512, PimLevel::BankGroup);
        let plan = BufferPlan::plan(64 << 10, 4, &ga);
        assert_eq!(plan.rparts, 1);
        assert_eq!(plan.cparts, 1);
        assert!(plan.used_bytes() <= 64 << 10);
    }

    #[test]
    fn large_batch_forces_partitioning() {
        // 1024×4096 at batch 32 on a 64 KiB BG scratchpad cannot hold all
        // C rows and the full B panel at once.
        let ga = ga(1024, 4096, PimLevel::BankGroup);
        let plan = BufferPlan::plan(64 << 10, 32, &ga);
        assert!(plan.rparts > 1 || plan.cparts > 1);
        // Residency respects the capacity.
        let c = plan.c_rows_resident as u64 * 32 * 4;
        let b = plan.b_cols_resident * 16 * 32 * 4;
        assert!(c + b <= 64 << 10, "c={c} b={b}");
    }

    #[test]
    fn bigger_scratchpad_reduces_partitions() {
        let ga = ga(2048, 8192, PimLevel::BankGroup);
        let small = BufferPlan::plan(16 << 10, 16, &ga);
        let large = BufferPlan::plan(64 << 10, 16, &ga);
        assert!(large.rparts <= small.rparts);
        assert!(
            (large.rparts, large.cparts) != (small.rparts, small.cparts),
            "capacity change must alter the plan for this working set"
        );
    }

    #[test]
    fn relaxed_scratchpad_never_partitions() {
        let ga = ga(4096, 4096, PimLevel::Device);
        let plan = BufferPlan::plan(64 << 20, 32, &ga);
        assert_eq!((plan.rparts, plan.cparts), (1, 1));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn rejects_impossible_capacity() {
        let ga = ga(128, 512, PimLevel::BankGroup);
        BufferPlan::plan(256, 32, &ga);
    }
}
