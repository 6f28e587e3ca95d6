//! PIM-level and subset selection (paper §III-E).
//!
//! "We do not discuss the algorithm for choosing the PIM level, but note
//! that a simple heuristic that estimates execution times and overheads
//! based on available bandwidth and transferred data volumes works well."
//! This module is that heuristic: a closed-form cycle estimate from the
//! block-group algebra, used by the end-to-end executor (Fig. 8's `STP`
//! mode, and XLM's dynamic BG→DV switching) and by the Fig. 10 subset
//! tradeoff.

use crate::config::SystemConfig;
use crate::cpu::CpuModel;
use crate::flow::SimOptions;
use crate::gemm::GemmSpec;
use stepstone_addr::{GroupAnalysis, MatrixLayout, PimLevel};
use stepstone_pim::{BufferPlan, PimLevelConfig, TransferPlan};

/// A candidate execution target for one GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Cpu,
    Pim { level: PimLevel, subset_drop_bits: u32 },
}

impl Backend {
    pub fn tag(&self) -> String {
        match self {
            Backend::Cpu => "CPU".into(),
            Backend::Pim { level, subset_drop_bits: 0 } => format!("PIM_{}", level.tag()),
            Backend::Pim { level, subset_drop_bits } => {
                format!("PIM_{}/{}", level.tag(), 1u32 << subset_drop_bits)
            }
        }
    }
}

/// Closed-form cycle estimate for StepStone execution of one power-of-two
/// GEMM at a level (mirrors the phase structure of `flow`).
pub fn estimate_pim_cycles(
    sys: &SystemConfig,
    spec: &GemmSpec,
    level: PimLevel,
    subset_drop_bits: u32,
) -> u64 {
    let mapping = sys.mapping();
    let mut total = 0u64;
    for sub in spec.decompose_pow2() {
        let layout = MatrixLayout::new_f32(
            sys.place_weights((sub.m * sub.k * 4) as u64),
            sub.m,
            sub.k,
        );
        let ga = if subset_drop_bits > 0 {
            GroupAnalysis::analyze_subset(&mapping, level, layout, subset_drop_bits)
        } else {
            GroupAnalysis::analyze(&mapping, level, layout)
        };
        let cfg = PimLevelConfig::nominal(level);
        let plan = BufferPlan::plan(cfg.scratchpad_bytes, sub.n, &ga);
        let transfer = TransferPlan::for_gemm(&ga, sub.n);
        let tp = &sys.dram.timing;
        // Per-block supply rate on the level's datapath.
        let supply = match level {
            PimLevel::BankGroup => tp.t_ccdl,
            _ => tp.t_ccds,
        };
        let blocks = ga.blocks_per_pim();
        let gemm = blocks * supply.max(cfg.compute_cycles_per_block(sub.n));
        // Buffer traffic at the same supply rate: B refilled per row
        // partition; C filled and drained once.
        let fills = plan.rparts as u64 * transfer.b_blocks_per_pim * supply
            + 2 * transfer.c_blocks_per_pim * supply;
        // Localization/reduction at full channel bandwidth, split across
        // channels.
        let channels = sys.dram.geom.channels as u64;
        let loc = transfer.total_b_blocks() * tp.t_bl / channels;
        let red = transfer.total_c_blocks() * tp.t_bl / channels;
        total += gemm + fills + loc + red;
    }
    total
}

/// Choose the best StepStone backend (BG vs DV, full vs half PIMs) plus the
/// CPU fallback for one GEMM. Returns candidates sorted by estimate.
pub fn choose_backend(sys: &SystemConfig, spec: &GemmSpec, cpu: &CpuModel) -> Backend {
    let mut best = (Backend::Cpu, cpu.cycles(spec));
    for (level, drop) in [
        (PimLevel::BankGroup, 0),
        (PimLevel::BankGroup, 1),
        (PimLevel::Device, 0),
    ] {
        let est = estimate_pim_cycles(sys, spec, level, drop);
        if est < best.1 {
            best = (Backend::Pim { level, subset_drop_bits: drop }, est);
        }
    }
    best.0
}

/// Options corresponding to a chosen backend (panics for CPU — the caller
/// routes CPU work to the CPU model).
pub fn options_for(backend: Backend) -> SimOptions {
    match backend {
        Backend::Cpu => panic!("CPU backend has no PIM options"),
        Backend::Pim { level, subset_drop_bits } => {
            SimOptions::stepstone(level).with_subset(subset_drop_bits)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_batch_prefers_bank_group_level() {
        // §III-E: "StepStone-BG is best when N ≤ 16".
        let sys = SystemConfig::default();
        let cpu = CpuModel::default();
        let b = choose_backend(&sys, &GemmSpec::new(1024, 4096, 2), &cpu);
        assert!(
            matches!(b, Backend::Pim { level: PimLevel::BankGroup, .. }),
            "{b:?}"
        );
    }

    #[test]
    fn large_batch_prefers_device_level() {
        let sys = SystemConfig::default();
        let cpu = CpuModel::default();
        let b = choose_backend(&sys, &GemmSpec::new(1024, 4096, 64), &cpu);
        assert_eq!(b, Backend::Pim { level: PimLevel::Device, subset_drop_bits: 0 }, "{b:?}");
    }

    #[test]
    fn estimates_track_simulation_ordering() {
        // The heuristic only has to rank options like the detailed sim does.
        let sys = SystemConfig::default();
        for (spec, expect_bg_faster) in [
            (GemmSpec::new(1024, 4096, 1), true),
            (GemmSpec::new(1024, 4096, 64), false),
        ] {
            let bg = estimate_pim_cycles(&sys, &spec, PimLevel::BankGroup, 0);
            let dv = estimate_pim_cycles(&sys, &spec, PimLevel::Device, 0);
            assert_eq!(bg < dv, expect_bg_faster, "{spec} bg={bg} dv={dv}");
        }
    }

    #[test]
    fn estimate_is_cheap_and_monotone_in_batch() {
        let sys = SystemConfig::default();
        let e1 = estimate_pim_cycles(&sys, &GemmSpec::new(1024, 4096, 1), PimLevel::Device, 0);
        let e32 = estimate_pim_cycles(&sys, &GemmSpec::new(1024, 4096, 32), PimLevel::Device, 0);
        assert!(e32 > e1);
    }

    #[test]
    fn backend_tags_are_readable() {
        assert_eq!(Backend::Cpu.tag(), "CPU");
        assert_eq!(
            Backend::Pim { level: PimLevel::BankGroup, subset_drop_bits: 0 }.tag(),
            "PIM_BG"
        );
        assert_eq!(
            Backend::Pim { level: PimLevel::BankGroup, subset_drop_bits: 1 }.tag(),
            "PIM_BG/2"
        );
    }
}
