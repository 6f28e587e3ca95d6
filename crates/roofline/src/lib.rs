//! Roofline models and batch sweeps for Figs. 1 and 7.
//!
//! Fig. 1 motivates the paper: for inference-appropriate batch sizes
//! (N ≲ 32) the GEMM's operational intensity sits on the bandwidth-bound
//! slope of both the CPU and the GPU, and a host-memory-resident weight
//! matrix pushes the GPU onto the PCIe slope. Fig. 7 overlays the achieved
//! StepStone-BG/DV throughput from the detailed simulation.
//!
//! The GPU is modeled analytically from the Titan Xp's published peaks (see
//! DESIGN.md §4): 12.15 Tflop/s fp32, 547 GB/s device memory, ≈16 GB/s
//! PCIe 3.0 x16, with a CUTLASS-like efficiency factor.

use stepstone_addr::PimLevel;
use stepstone_core::{simulate_gemm, CpuModel, GemmSpec, SystemConfig};

/// A classic two-parameter roofline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roofline {
    pub name: &'static str,
    pub peak_gflops: f64,
    pub bw_gbps: f64,
}

impl Roofline {
    /// Attainable Gflop/s at operational intensity `oi` (flops/byte).
    pub fn attainable(&self, oi: f64) -> f64 {
        (oi * self.bw_gbps).min(self.peak_gflops)
    }

    /// The ridge point: intensity where compute starts to bind.
    pub fn ridge(&self) -> f64 {
        self.peak_gflops / self.bw_gbps
    }
}

/// Xeon 8280-class CPU roofline (2 × AVX-512 FMA × 28 cores at 2.7 GHz;
/// six DDR4-2933 channels ≈ 131 GB/s).
pub fn cpu_roofline() -> Roofline {
    Roofline { name: "CPU", peak_gflops: 4838.0, bw_gbps: 131.0 }
}

/// Titan Xp with weights resident in device memory.
pub fn gpu_device_roofline() -> Roofline {
    Roofline { name: "GPU (device mem)", peak_gflops: 12_150.0, bw_gbps: 547.0 }
}

/// Titan Xp with weights in host memory (PCIe 3.0 x16 data loading).
pub fn gpu_host_roofline() -> Roofline {
    Roofline { name: "GPU (host mem)", peak_gflops: 12_150.0, bw_gbps: 16.0 }
}

/// StepStone aggregate-bandwidth rooflines (per level, whole system).
pub fn stepstone_roofline(level: PimLevel) -> Roofline {
    // BG: 16 units × 64 B / tCCDL(6) ≈ 205 GB/s; DV: 4 × 64 B / tCCDS(4)
    // ≈ 77 GB/s; CH: 2 channels × 19.2 GB/s.
    match level {
        PimLevel::BankGroup => {
            Roofline { name: "StepStone-BG", peak_gflops: 2458.0, bw_gbps: 204.8 }
        }
        PimLevel::Device => Roofline { name: "StepStone-DV", peak_gflops: 2458.0, bw_gbps: 76.8 },
        PimLevel::Channel => Roofline { name: "StepStone-CH", peak_gflops: 1229.0, bw_gbps: 38.4 },
    }
}

/// One achieved-performance point on the roofline plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    pub n: usize,
    pub oi: f64,
    pub gflops: f64,
}

/// Measured-equivalent CPU points across a batch sweep.
pub fn sweep_cpu(m: usize, k: usize, batches: &[usize]) -> Vec<SweepPoint> {
    let cpu = CpuModel::default();
    batches
        .iter()
        .map(|&n| {
            let spec = GemmSpec::new(m, k, n);
            SweepPoint { n, oi: spec.operational_intensity(), gflops: cpu.gflops(&spec) }
        })
        .collect()
}

/// GPU model: roofline shape with a CUTLASS-like efficiency curve and a
/// fixed kernel launch overhead; host-resident weights stream over PCIe.
///
/// The memory-path efficiency falls off steeply for tall-skinny GEMMs
/// (CUTLASS 2.2's tiles waste most of each fetched A panel when N is a few
/// columns); the curve is calibrated to the paper's measured crossovers:
/// StepStone-BG stays ahead of the device-resident GPU for N ≤ 16 and the
/// GPU takes over beyond (Fig. 7, §V-A).
pub fn sweep_gpu(m: usize, k: usize, batches: &[usize], host_resident: bool) -> Vec<SweepPoint> {
    let rl = if host_resident { gpu_host_roofline() } else { gpu_device_roofline() };
    let eff = 0.75;
    let launch_overhead_s = 8e-6;
    batches
        .iter()
        .map(|&n| {
            let spec = GemmSpec::new(m, k, n);
            let flops = spec.flops() as f64;
            // PCIe streaming has no skinny-tile penalty; HBM reads do.
            let mem_eff = if host_resident {
                0.9
            } else {
                (n as f64 / 128.0).clamp(0.08, 0.85)
            };
            let t_data = spec.a_bytes() as f64 / (rl.bw_gbps * 1e9 * mem_eff);
            let t_comp = flops / (rl.peak_gflops * 1e9 * eff);
            let t = t_data.max(t_comp) + launch_overhead_s;
            SweepPoint { n, oi: spec.operational_intensity(), gflops: flops / t / 1e9 }
        })
        .collect()
}

/// Achieved StepStone performance from the detailed simulator (Fig. 7's
/// simulated points, including localization/reduction overheads). Batches
/// beyond the PIM chunk size run as several batch-32 GEMMs, exactly as the
/// paper serves large batches (§V-B's splitting).
pub fn sweep_stepstone(
    sys: &SystemConfig,
    m: usize,
    k: usize,
    batches: &[usize],
    level: PimLevel,
) -> Vec<SweepPoint> {
    batches
        .iter()
        .map(|&n| {
            let spec = GemmSpec::new(m, k, n);
            let r = if n > stepstone_core::PIM_CHUNK_BATCH {
                stepstone_core::simulate_split_batch(sys, m, k, n, level)
            } else {
                simulate_gemm(sys, &spec, level)
            };
            SweepPoint {
                n,
                oi: spec.operational_intensity(),
                gflops: spec.flops() as f64 / r.seconds() / 1e9,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roofline_shape() {
        let rl = cpu_roofline();
        assert!(rl.attainable(0.1) < rl.attainable(10.0));
        assert_eq!(rl.attainable(1e6), rl.peak_gflops);
        assert!((rl.attainable(1.0) - 131.0).abs() < 1e-9);
    }

    #[test]
    fn small_batches_are_bandwidth_bound_everywhere() {
        // Fig. 1: "all three systems are bandwidth bound for
        // inference-appropriate batch sizes (N ≲ 32)".
        for n in [1usize, 8, 32] {
            let oi = GemmSpec::new(1024, 4096, n).operational_intensity();
            assert!(oi < cpu_roofline().ridge());
            assert!(oi < gpu_device_roofline().ridge());
        }
        // And large batches are not.
        let oi = GemmSpec::new(1024, 4096, 1024).operational_intensity();
        assert!(oi > cpu_roofline().ridge());
    }

    #[test]
    fn gpu_loses_to_cpu_with_host_resident_weights() {
        // Fig. 1: "for such small batches, GPU performance is lower than
        // the CPU if matrix A is in host memory".
        let cpu = sweep_cpu(1024, 4096, &[1, 4]);
        let gpu = sweep_gpu(1024, 4096, &[1, 4], true);
        for (c, g) in cpu.iter().zip(&gpu) {
            assert!(g.gflops < c.gflops * 2.0, "PCIe-bound GPU ≈ or < CPU");
        }
        // Device-resident weights flip the comparison at larger batch.
        let gpu_dev = sweep_gpu(1024, 4096, &[64], false);
        let cpu64 = sweep_cpu(1024, 4096, &[64]);
        assert!(gpu_dev[0].gflops > cpu64[0].gflops);
    }

    #[test]
    fn stepstone_beats_cpu_and_host_gpu_at_small_batch() {
        // Fig. 7's headline: StepStone exhibits higher throughput at all
        // reasonable batch sizes when weights live in main memory.
        let sys = SystemConfig::default();
        let stp = sweep_stepstone(&sys, 1024, 4096, &[1, 4, 16], PimLevel::BankGroup);
        let cpu = sweep_cpu(1024, 4096, &[1, 4, 16]);
        let gpu = sweep_gpu(1024, 4096, &[1, 4, 16], true);
        for ((s, c), g) in stp.iter().zip(&cpu).zip(&gpu) {
            assert!(s.gflops > c.gflops, "N={}: stp {} vs cpu {}", s.n, s.gflops, c.gflops);
            assert!(s.gflops > g.gflops, "N={}: stp {} vs gpu {}", s.n, s.gflops, g.gflops);
        }
    }

    #[test]
    fn gpu_crossover_matches_paper() {
        // Fig. 7: "Even if the model fits in GPU memory, StepStone offers
        // higher performance for batches of 16 samples or less."
        let sys = SystemConfig::default();
        let stp = sweep_stepstone(&sys, 1024, 4096, &[8, 16, 32], PimLevel::BankGroup);
        let gpu = sweep_gpu(1024, 4096, &[8, 16, 32], false);
        assert!(stp[0].gflops > gpu[0].gflops, "N=8");
        assert!(stp[1].gflops > gpu[1].gflops, "N=16");
        assert!(stp[2].gflops < gpu[2].gflops, "N=32: GPU takes over");
    }

    #[test]
    fn simulated_points_sit_below_their_roofline() {
        // "The gap between the rooflines and simulated performance of
        // StepStone stems from the localization and reduction overheads."
        let sys = SystemConfig::default();
        for level in [PimLevel::BankGroup, PimLevel::Device] {
            let rl = stepstone_roofline(level);
            for p in sweep_stepstone(&sys, 1024, 4096, &[1, 8], level) {
                assert!(p.gflops <= rl.attainable(p.oi) * 1.05, "{level:?} N={}", p.n);
            }
        }
    }
}
