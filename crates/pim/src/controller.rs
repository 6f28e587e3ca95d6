//! Host-side PIM controller: kernel launch packets and their command-bus
//! cost (paper §III-A, §V-G).
//!
//! StepStone's AGEN hardware lets one kernel command cover an entire
//! (row-partition × group × column-partition) sweep — a *long-running*
//! kernel. Chopim-style execution (eCHO) must instead issue one dot-product
//! kernel per matrix row per column partition, and PEI sends a packet per
//! cache block. Every packet crosses the DDR command bus, where it contends
//! with concurrent CPU traffic; this module quantifies packets and slots.

use crate::scratchpad::BufferPlan;
use stepstone_addr::GroupAnalysis;

/// Kernel granularity of the three main-memory PIM schemes compared in the
/// paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelGranularity {
    /// One coarse kernel per (PIM, row partition): StepStone.
    CoarseStepStone,
    /// One kernel per dot-product row per column partition: enhanced Chopim
    /// (Algorithm 1's non-StepStone branch).
    PerDotProduct,
    /// One command packet per cache block: PEI.
    PerCacheBlock,
}

/// Command-bus cost model for PIM control traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchModel {
    /// Command-bus slots per kernel-launch packet (descriptor registers).
    pub slots_per_launch: u64,
    /// Command-bus slots per PEI per-block instruction packet.
    pub slots_per_pei_packet: u64,
    /// Pipeline latency from packet arrival to kernel start (cycles).
    pub launch_latency: u64,
}

impl Default for LaunchModel {
    fn default() -> Self {
        // A kernel descriptor is a handful of memory-mapped register writes
        // (base addresses, shapes, constraint masks): 16 command slots. PEI
        // packets carry an opcode, a block pointer, and operand references —
        // a 16-byte instruction needs 4 slots of the DDR4 CA bus.
        Self { slots_per_launch: 16, slots_per_pei_packet: 4, launch_latency: 32 }
    }
}

impl LaunchModel {
    /// Kernel launches needed *per PIM unit* for one GEMM under the given
    /// granularity and buffer plan.
    pub fn launches_per_pim(
        &self,
        granularity: KernelGranularity,
        ga: &GroupAnalysis,
        plan: &BufferPlan,
    ) -> u64 {
        match granularity {
            KernelGranularity::CoarseStepStone => plan.rparts as u64,
            KernelGranularity::PerDotProduct => {
                // Algorithm 1: `for row in cpart: DOT(row)` inside every
                // (rpart, group, cpart) — one launch per C-row visit.
                ga.c_rows_per_pim() as u64 * plan.cparts as u64
            }
            KernelGranularity::PerCacheBlock => ga.blocks_per_pim(),
        }
    }

    /// Command-bus slots per launch for a granularity.
    pub fn slots_for(&self, granularity: KernelGranularity) -> u64 {
        match granularity {
            KernelGranularity::PerCacheBlock => self.slots_per_pei_packet,
            _ => self.slots_per_launch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stepstone_addr::{mapping_by_id, GroupAnalysis, MappingId, MatrixLayout, PimLevel};

    fn setup() -> (GroupAnalysis, BufferPlan) {
        let m = mapping_by_id(MappingId::Skylake);
        let ga = GroupAnalysis::analyze(
            &m,
            PimLevel::BankGroup,
            MatrixLayout::new_f32(0, 1024, 4096),
        );
        let plan = BufferPlan::plan(64 << 10, 4, &ga);
        (ga, plan)
    }

    #[test]
    fn stepstone_needs_orders_of_magnitude_fewer_launches() {
        let (ga, plan) = setup();
        let lm = LaunchModel::default();
        let stp = lm.launches_per_pim(KernelGranularity::CoarseStepStone, &ga, &plan);
        let echo = lm.launches_per_pim(KernelGranularity::PerDotProduct, &ga, &plan);
        let pei = lm.launches_per_pim(KernelGranularity::PerCacheBlock, &ga, &plan);
        assert!(stp <= plan.rparts as u64);
        assert!(echo >= 100 * stp, "echo={echo} stp={stp}");
        assert!(pei > echo, "pei={pei} echo={echo}");
        assert_eq!(pei, ga.blocks_per_pim());
    }

    #[test]
    fn pei_packets_are_smaller_than_kernel_descriptors() {
        let lm = LaunchModel::default();
        assert!(
            lm.slots_for(KernelGranularity::PerCacheBlock)
                < lm.slots_for(KernelGranularity::CoarseStepStone)
        );
    }
}
