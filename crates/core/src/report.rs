//! Per-phase latency breakdowns — the stacked-bar schema of Figs. 6, 10, 11
//! and 12 (GEMM / Buffer fill (B) / Buffer fill (C) / Buffer drain (C) /
//! Localization / Reduction / CPU time).

use stepstone_dram::DramStats;
use stepstone_fabric::FabricStats;

/// Execution phases attributed in the paper's breakdowns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// PIM arithmetic + weight streaming (the kernel proper).
    Gemm,
    /// Scratchpad fill of the localized `B` panel.
    FillB,
    /// Scratchpad fill of the `C` accumulators.
    FillC,
    /// Scratchpad drain of partial `C`.
    DrainC,
    /// `B` replication into per-PIM regions.
    Localization,
    /// Partial-`C` merge.
    Reduction,
    /// Kernel-launch packets (visible only under command-bus contention).
    Launch,
    /// Host-side execution (CPU baselines and `CPU_Other` operators).
    CpuTime,
}

impl Phase {
    pub const ALL: [Phase; 8] = [
        Phase::Gemm,
        Phase::FillB,
        Phase::FillC,
        Phase::DrainC,
        Phase::Localization,
        Phase::Reduction,
        Phase::Launch,
        Phase::CpuTime,
    ];

    pub fn label(&self) -> &'static str {
        match self {
            Phase::Gemm => "GEMM",
            Phase::FillB => "Buffer fill (B)",
            Phase::FillC => "Buffer fill (C)",
            Phase::DrainC => "Buffer drain (C)",
            Phase::Localization => "Localization",
            Phase::Reduction => "Reduction",
            Phase::Launch => "Launch",
            Phase::CpuTime => "CPU time",
        }
    }

    pub fn index(&self) -> usize {
        Phase::ALL.iter().position(|p| p == self).expect("phase in ALL")
    }
}

/// Event counts feeding the energy model (paper §V-H).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ActivityCounts {
    /// Lane-level MAC operations executed by PIM SIMD units.
    pub simd_ops: u64,
    /// Scratchpad block accesses (fills, drains, and operand reads).
    pub scratchpad_accesses: u64,
    /// Kernel launches issued.
    pub launches: u64,
    /// Total AGEN iterations and the per-step maximum (pipeline bubbles).
    pub agen_iterations: u64,
    pub agen_max_step: u32,
    /// Blocks whose AGEN step exceeded the DRAM burst window (bubbles).
    pub agen_bubbles: u64,
}

impl ActivityCounts {
    pub fn merge(&mut self, o: &ActivityCounts) {
        self.simd_ops += o.simd_ops;
        self.scratchpad_accesses += o.scratchpad_accesses;
        self.launches += o.launches;
        self.agen_iterations += o.agen_iterations;
        self.agen_max_step = self.agen_max_step.max(o.agen_max_step);
        self.agen_bubbles += o.agen_bubbles;
    }
}

/// The result of simulating one GEMM (or one model layer) on a backend.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyReport {
    /// Cycles attributed to each phase (critical-path PIM per category).
    pub phase_cycles: [u64; 8],
    /// End-to-end cycles of the whole execution.
    pub total: u64,
    /// DRAM event counters accumulated during the run.
    pub dram: DramStats,
    pub activity: ActivityCounts,
    /// Which backend produced this report (display tag, e.g. "STP-BG").
    pub backend: String,
    /// DRAM command clock the cycle counts are denominated in (set from
    /// the simulated `DramConfig`; presets differ from DDR4-2400's 1.2 GHz).
    pub clock_hz: u64,
    /// Inter-device fabric statistics — populated only when the reduce
    /// phase ran over the fabric (`ReduceVia::Fabric`); `None` on the
    /// default host-DMA path, preserving bit-identity with pre-fabric
    /// reports.
    pub fabric: Option<FabricStats>,
}

impl Default for LatencyReport {
    fn default() -> Self {
        Self {
            phase_cycles: [0; 8],
            total: 0,
            dram: DramStats::default(),
            activity: ActivityCounts::default(),
            backend: String::new(),
            clock_hz: 1_200_000_000,
            fabric: None,
        }
    }
}

impl LatencyReport {
    pub fn phase(&self, p: Phase) -> u64 {
        self.phase_cycles[p.index()]
    }

    pub fn add_phase(&mut self, p: Phase, cycles: u64) {
        self.phase_cycles[p.index()] += cycles;
    }

    pub fn total_cycles(&self) -> u64 {
        self.total
    }

    /// Sum of attributed phase cycles (≈ total for symmetric PIM loads).
    pub fn attributed(&self) -> u64 {
        self.phase_cycles.iter().sum()
    }

    /// Merge a sequential sub-execution (e.g. a decomposed sub-GEMM or the
    /// next layer of a model).
    pub fn chain(&mut self, o: &LatencyReport) {
        for i in 0..self.phase_cycles.len() {
            self.phase_cycles[i] += o.phase_cycles[i];
        }
        self.total += o.total;
        self.dram.merge(&o.dram);
        self.activity.merge(&o.activity);
        match (&mut self.fabric, &o.fabric) {
            (Some(f), Some(of)) => f.merge(of),
            (None, Some(of)) => self.fabric = Some(of.clone()),
            _ => {}
        }
    }

    /// Wall-clock seconds at the DRAM/PIM clock this report was simulated
    /// under (`clock_hz`).
    pub fn seconds(&self) -> f64 {
        self.total as f64 / self.clock_hz as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_indexing_is_stable() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert_eq!(Phase::Gemm.label(), "GEMM");
    }

    #[test]
    fn chain_accumulates() {
        let mut a = LatencyReport { total: 100, ..Default::default() };
        a.add_phase(Phase::Gemm, 80);
        let mut b = LatencyReport { total: 50, ..Default::default() };
        b.add_phase(Phase::Reduction, 50);
        b.activity.simd_ops = 7;
        a.chain(&b);
        assert_eq!(a.total, 150);
        assert_eq!(a.phase(Phase::Gemm), 80);
        assert_eq!(a.phase(Phase::Reduction), 50);
        assert_eq!(a.activity.simd_ops, 7);
        assert_eq!(a.attributed(), 130);
    }
}
