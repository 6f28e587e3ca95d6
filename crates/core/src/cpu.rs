//! CPU baselines: the measured-Xeon-equivalent model and the idealized CPU.
//!
//! The paper measures a 28-core Intel Xeon Platinum 8280 running oneDNN. We
//! have no Xeon; per the reproduction's substitution policy (DESIGN.md §4),
//! we use a calibrated analytic model that preserves the paper's measured
//! *ratios*, which is all the comparisons consume:
//!
//! * batch-1 1024×4096 GEMM ≈ 12× slower than StepStone-BG (§V-A) — the
//!   model's effective bandwidth of 13 B/cycle (≈15.6 GB/s) reflects
//!   oneDNN's packing pass and the poor prefetch behaviour of tall-skinny
//!   GEMMs on a real Xeon, not the machine's STREAM bandwidth;
//! * batch-32 ≈ 1.2–1.4× the batch-1 latency ("if the CPU is allowed 20%
//!   additional latency for batch-32 execution", §I);
//! * the idealized CPU (`iCPU`, Fig. 8) is StepStone-CH-like: it streams `A`
//!   at the full two-channel bandwidth (§V-B: "We estimate idealized
//!   performance with our StepStone-CH, which maximally utilizes memory
//!   channel bandwidth").

use crate::gemm::GemmSpec;
use crate::report::{LatencyReport, Phase};

/// Calibrated analytic model of the measured CPU.
#[derive(Debug, Clone, Copy)]
pub struct CpuModel {
    /// Effective weight-streaming bandwidth, bytes per DRAM cycle.
    pub eff_bw_bytes_per_cycle: f64,
    /// Effective fp32 throughput, flops per DRAM cycle (≈50% of the Xeon
    /// 8280's 4.8 Tflop/s peak, expressed at 1.2 GHz).
    pub eff_flops_per_cycle: f64,
    /// Per-batch-column latency growth (packing + more activation traffic).
    pub batch_slope: f64,
    /// Fixed per-GEMM software overhead in cycles (dispatch, packing setup).
    pub fixed_overhead: f64,
}

impl Default for CpuModel {
    fn default() -> Self {
        Self {
            eff_bw_bytes_per_cycle: 13.0,
            eff_flops_per_cycle: 2000.0,
            batch_slope: 0.012,
            fixed_overhead: 20_000.0,
        }
    }
}

impl CpuModel {
    /// Latency of one GEMM in DRAM cycles. The per-batch overhead models
    /// oneDNN's packing pass for small batches and saturates at batch 32 —
    /// past that, the GEMM behaves like a well-blocked compute-bound kernel.
    pub fn cycles(&self, spec: &GemmSpec) -> u64 {
        let mem = spec.a_bytes() as f64 / self.eff_bw_bytes_per_cycle;
        let comp = spec.flops() as f64 / self.eff_flops_per_cycle;
        let overhead_batch = spec.n.min(32) as f64;
        let base = (mem * (1.0 + self.batch_slope * overhead_batch)).max(comp);
        (base + self.fixed_overhead) as u64
    }

    pub fn report(&self, spec: &GemmSpec) -> LatencyReport {
        let mut r = LatencyReport { backend: "CPU".into(), ..Default::default() };
        r.total = self.cycles(spec);
        r.add_phase(Phase::CpuTime, r.total);
        r
    }

    /// Achieved Gflop/s for the roofline plots.
    pub fn gflops(&self, spec: &GemmSpec) -> f64 {
        // The host model is calibrated in DDR4-2400 command-clock cycles;
        // its wall-clock conversion is pinned to that clock regardless of
        // which DRAM preset the PIM side simulates.
        spec.flops() as f64
            / (self.cycles(spec) as f64 / stepstone_dram::DramConfig::default().clock_hz as f64)
            / 1e9
    }
}

/// The idealized CPU (iCPU): full two-channel streaming of all operands plus
/// peak-rate arithmetic.
#[derive(Debug, Clone, Copy)]
pub struct IdealCpuModel {
    /// Channels × bytes/cycle/channel.
    pub bytes_per_cycle: f64,
    /// Peak CPU flops per DRAM cycle.
    pub flops_per_cycle: f64,
}

impl Default for IdealCpuModel {
    fn default() -> Self {
        Self { bytes_per_cycle: 32.0, flops_per_cycle: 4032.0 }
    }
}

impl IdealCpuModel {
    pub fn cycles(&self, spec: &GemmSpec) -> u64 {
        let bytes = (spec.a_bytes() + spec.b_bytes() + spec.c_bytes()) as f64;
        let mem = bytes / self.bytes_per_cycle;
        let comp = spec.flops() as f64 / self.flops_per_cycle;
        mem.max(comp) as u64
    }

    pub fn report(&self, spec: &GemmSpec) -> LatencyReport {
        let mut r = LatencyReport { backend: "iCPU".into(), ..Default::default() };
        r.total = self.cycles(spec);
        r.add_phase(Phase::CpuTime, r.total);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch32_costs_at_most_40_percent_more() {
        // §I: the CPU reaches batch-32 within ~1.2× of its batch-1 latency.
        let cpu = CpuModel::default();
        let b1 = cpu.cycles(&GemmSpec::new(1024, 4096, 1));
        let b32 = cpu.cycles(&GemmSpec::new(1024, 4096, 32));
        let ratio = b32 as f64 / b1 as f64;
        assert!((1.1..1.45).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn icpu_is_faster_than_cpu() {
        let cpu = CpuModel::default();
        let icpu = IdealCpuModel::default();
        for n in [1, 4, 32] {
            let spec = GemmSpec::new(1024, 4096, n);
            assert!(icpu.cycles(&spec) < cpu.cycles(&spec));
        }
    }

    #[test]
    fn small_batch_gemm_is_bandwidth_bound() {
        // The motivating observation (§II): small-N GEMM throughput is far
        // below the compute roofline.
        let cpu = CpuModel::default();
        let spec = GemmSpec::new(1024, 4096, 4);
        let peak_gflops = cpu.eff_flops_per_cycle
            * stepstone_dram::DramConfig::default().clock_hz as f64
            / 1e9;
        assert!(cpu.gflops(&spec) < 0.2 * peak_gflops);
    }

    #[test]
    fn big_batch_becomes_compute_bound() {
        let cpu = CpuModel::default();
        let slow = cpu.cycles(&GemmSpec::new(1024, 4096, 1024));
        let mem_only = (GemmSpec::new(1024, 4096, 1024).a_bytes() as f64 / 13.0) as u64;
        assert!(slow > 2 * mem_only, "compute term must dominate at N=1024");
    }
}
