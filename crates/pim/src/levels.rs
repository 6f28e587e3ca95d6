//! PIM unit configurations per integration level (paper Table II, §III-A).
//!
//! Table II gives *per-chip* resources: 8-wide SIMD + 8 KiB scratchpad per
//! DRAM device at bank-group level, 32-wide + 32 KiB per buffer chip at
//! device level, 256-wide + 256 KiB per channel. A rank is eight x8 devices
//! operating in lockstep on each 64-byte block, so the simulator models
//! *logical* PIM units that aggregate the lockstepped slices:
//!
//! * **StepStone-BG**: 8 lanes × 8 devices = 64 lanes, 64 KiB scratchpad.
//! * **StepStone-DV**: 32 lanes × 8 data-buffer slices = 256 lanes, 256 KiB
//!   (an LRDIMM-style rank has one data buffer per x8 device).
//! * **StepStone-CH**: 256 lanes, 256 KiB (one per channel, as stated).
//!
//! These logical widths reproduce the paper's stated balance behaviour
//! (§III-E): BG arithmetic stays comparable to its tCCDL-limited bandwidth
//! for N ≤ 16 (16·N/64 ≤ 6 up to N ≈ 24), DV arithmetic never binds before
//! its tCCDS-limited bandwidth for the inference batches the paper sweeps
//! (N ≤ 32), and the BG↔DV crossover lands between N = 16 and N = 32 as in
//! Fig. 6.

use stepstone_addr::PimLevel;
use stepstone_dram::Port;

/// Elements (f32) per cache block.
pub const ELEMS_PER_BLOCK: usize = 16;

/// Resources of one logical PIM unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PimLevelConfig {
    pub level: PimLevel,
    /// MAC lanes per logical unit (1 fp32 FMA per lane per cycle).
    pub simd_width: u32,
    /// Scratchpad bytes per logical unit.
    pub scratchpad_bytes: u64,
    /// Execution pipeline depth (hides AGEN and DRAM access latency;
    /// paper §III-A: "sufficiently deep … 20 stages in our case").
    pub pipeline_depth: u32,
}

impl PimLevelConfig {
    /// Nominal configuration for a level (Table II).
    pub fn nominal(level: PimLevel) -> Self {
        match level {
            PimLevel::BankGroup => Self {
                level,
                simd_width: 64,
                scratchpad_bytes: 64 << 10,
                pipeline_depth: 20,
            },
            PimLevel::Device => Self {
                level,
                simd_width: 256,
                scratchpad_bytes: 256 << 10,
                pipeline_depth: 20,
            },
            PimLevel::Channel => Self {
                level,
                simd_width: 256,
                scratchpad_bytes: 256 << 10,
                pipeline_depth: 20,
            },
        }
    }

    /// Relaxed-area configuration (the `*` bars of Fig. 6: "enough ALUs and
    /// large enough scratchpad memory").
    pub fn relaxed(level: PimLevel) -> Self {
        let mut c = Self::nominal(level);
        c.simd_width = 4096;
        c.scratchpad_bytes = 64 << 20;
        c
    }

    /// Override the logical scratchpad capacity (Fig. 12 sweep).
    pub fn with_scratchpad(mut self, bytes: u64) -> Self {
        self.scratchpad_bytes = bytes;
        self
    }

    /// The DRAM datapath this level's units read from.
    pub fn port(&self) -> Port {
        match self.level {
            PimLevel::Channel => Port::Channel,
            PimLevel::Device => Port::RankInternal,
            PimLevel::BankGroup => Port::BgInternal,
        }
    }

    /// SIMD cycles to process one A block against an N-column B panel:
    /// 16·N fp32 MACs on `simd_width` FMA lanes.
    pub fn compute_cycles_per_block(&self, n: usize) -> u64 {
        let macs = (ELEMS_PER_BLOCK * n) as u64;
        macs.div_ceil(self.simd_width as u64)
    }

    /// SIMD (lane-level MAC) operations per block — for the energy model.
    pub fn simd_ops_per_block(&self, n: usize) -> u64 {
        (ELEMS_PER_BLOCK * n) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_widths_follow_table_ii_aggregation() {
        let bg = PimLevelConfig::nominal(PimLevel::BankGroup);
        let dv = PimLevelConfig::nominal(PimLevel::Device);
        let ch = PimLevelConfig::nominal(PimLevel::Channel);
        assert_eq!(bg.simd_width, 64);
        assert_eq!(dv.simd_width, 256);
        assert_eq!(ch.simd_width, 256);
        assert_eq!(bg.scratchpad_bytes, 65536);
        assert_eq!(bg.pipeline_depth, 20);
    }

    #[test]
    fn arithmetic_balance_points_match_paper() {
        // §III-E: "comparable arithmetic execution times for 1 ≤ N ≤ 16 in
        // StepStone-BG and for 1 ≤ N ≤ 32 in StepStone-DV".
        let bg = PimLevelConfig::nominal(PimLevel::BankGroup);
        let dv = PimLevelConfig::nominal(PimLevel::Device);
        // BG supply: one block per tCCDL = 6 cycles.
        assert!(bg.compute_cycles_per_block(16) <= 6);
        assert!(bg.compute_cycles_per_block(32) > 6);
        // DV supply: one block per tCCDS = 4 cycles; arithmetic never binds
        // within the paper's batch sweep.
        assert!(dv.compute_cycles_per_block(32) <= 4);
        assert!(dv.compute_cycles_per_block(128) > 4);
    }

    #[test]
    fn compute_cycles_round_up() {
        let bg = PimLevelConfig::nominal(PimLevel::BankGroup);
        assert_eq!(bg.compute_cycles_per_block(1), 1);
        assert_eq!(bg.compute_cycles_per_block(4), 1);
        assert_eq!(bg.compute_cycles_per_block(5), 2);
    }

    #[test]
    fn ports_match_levels() {
        assert_eq!(PimLevelConfig::nominal(PimLevel::Channel).port(), Port::Channel);
        assert_eq!(PimLevelConfig::nominal(PimLevel::Device).port(), Port::RankInternal);
        assert_eq!(PimLevelConfig::nominal(PimLevel::BankGroup).port(), Port::BgInternal);
    }
}
