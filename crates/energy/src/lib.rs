//! Energy and power accounting for StepStone PIM executions
//! (paper §V-H, Fig. 14), using the Table II energy components.
//!
//! Two Table II entries are normalized for physical consistency (see
//! DESIGN.md §4): SIMD energy is taken as 11.3 **pJ**/op (nJ would make the
//! SIMD dominate, contradicting §V-H's "the power of DRAM access …
//! dominates the power of the SIMD units"), and the per-access scratchpad
//! energies are ordered smallest-structure-cheapest (BG = 0.03 nJ,
//! DV = 0.1 nJ, CH = 0.3 nJ).

use stepstone_addr::PimLevel;
use stepstone_core::{GemmSpec, LatencyReport};
use stepstone_dram::{DramConfig, Port};

/// Table II energy components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// In-device (near-bank) read/write energy, pJ per bit.
    pub in_device_pj_per_bit: f64,
    /// Off-chip (device I/O or channel) read/write energy, pJ per bit.
    pub off_chip_pj_per_bit: f64,
    /// SIMD MAC energy, pJ per lane-operation.
    pub simd_pj_per_op: f64,
    /// Scratchpad access energy per 64 B block, nJ, per level [CH, DV, BG].
    pub scratch_nj_per_access: [f64; 3],
}

impl Default for EnergyParams {
    fn default() -> Self {
        Self {
            in_device_pj_per_bit: 11.3,
            off_chip_pj_per_bit: 25.7,
            simd_pj_per_op: 11.3,
            scratch_nj_per_access: [0.3, 0.1, 0.03],
        }
    }
}

impl EnergyParams {
    pub fn scratch_nj(&self, level: PimLevel) -> f64 {
        match level {
            PimLevel::Channel => self.scratch_nj_per_access[0],
            PimLevel::Device => self.scratch_nj_per_access[1],
            PimLevel::BankGroup => self.scratch_nj_per_access[2],
        }
    }
}

/// Fig. 14's stack categories, in joules.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyReport {
    pub simd_j: f64,
    pub scratchpad_j: f64,
    /// PIM-side weight/buffer DRAM traffic.
    pub dram_j: f64,
    /// Channel traffic for localization and reduction.
    pub locred_j: f64,
}

impl EnergyReport {
    pub fn total_j(&self) -> f64 {
        self.simd_j + self.scratchpad_j + self.dram_j + self.locred_j
    }

    /// Average power per DRAM device in watts over `cycles` of a command
    /// clock running at `clock_hz` (take it from the simulated
    /// `DramConfig` — presets differ from DDR4-2400's 1.2 GHz).
    pub fn power_per_device_w(&self, cycles: u64, devices: u32, clock_hz: u64) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        self.total_j() * clock_hz as f64 / cycles as f64 / devices as f64
    }

    /// Energy per multiply–accumulate in picojoules.
    pub fn pj_per_op(&self, spec: &GemmSpec) -> f64 {
        self.total_j() * 1e12 / spec.macs() as f64
    }
}

/// Derive the energy breakdown of one simulated GEMM.
pub fn analyze(params: &EnergyParams, report: &LatencyReport, level: PimLevel) -> EnergyReport {
    let bits_of = |blocks: u64| blocks as f64 * 512.0;
    let d = &report.dram;
    let bg = Port::BgInternal.index();
    let rk = Port::RankInternal.index();
    let ch = Port::Channel.index();
    // Near-bank traffic stays in the device; rank-internal traffic crosses
    // the device I/O to the buffer chip; channel traffic is fully off-chip.
    let in_device_bits = bits_of(d.reads_by_port[bg] + d.writes_by_port[bg]);
    let rank_bits = bits_of(d.reads_by_port[rk] + d.writes_by_port[rk]);
    let chan_bits = bits_of(d.reads_by_port[ch] + d.writes_by_port[ch]);
    EnergyReport {
        simd_j: report.activity.simd_ops as f64 * params.simd_pj_per_op * 1e-12,
        scratchpad_j: report.activity.scratchpad_accesses as f64
            * params.scratch_nj(level)
            * 1e-9,
        dram_j: (in_device_bits * params.in_device_pj_per_bit
            + rank_bits * params.off_chip_pj_per_bit)
            * 1e-12,
        locred_j: chan_bits * params.off_chip_pj_per_bit * 1e-12,
    }
}

/// Devices participating in a run (x8 devices across the whole system).
pub fn device_count(cfg: &DramConfig) -> u32 {
    cfg.geom.channels * cfg.geom.ranks_per_channel * 8
}

#[cfg(test)]
mod tests {
    use super::*;
    use stepstone_addr::PimLevel;
    use stepstone_core::{simulate_gemm, SystemConfig};

    fn run(n: usize, level: PimLevel) -> (LatencyReport, EnergyReport) {
        let sys = SystemConfig::default();
        let spec = GemmSpec::new(1024, 4096, n);
        let r = simulate_gemm(&sys, &spec, level);
        let e = analyze(&EnergyParams::default(), &r, level);
        (r, e)
    }

    #[test]
    fn dram_energy_dominates_simd() {
        // §V-H: "overall, the power of DRAM access (either within the PIMs
        // or for localization and reduction) dominates the power of the
        // SIMD units".
        for level in [PimLevel::BankGroup, PimLevel::Device] {
            let (_, e) = run(4, level);
            assert!(e.dram_j + e.locred_j > 5.0 * e.simd_j, "{level:?}: {e:?}");
        }
    }

    #[test]
    fn bg_is_more_efficient_at_small_batch() {
        // §V-H: "StepStone-BG is more energy-efficient than StepStone-DV
        // when N is small. The main source … is that IO energy is much
        // smaller within a device."
        let spec = GemmSpec::new(1024, 4096, 1);
        let (_, ebg) = run(1, PimLevel::BankGroup);
        let (_, edv) = run(1, PimLevel::Device);
        assert!(ebg.pj_per_op(&spec) < edv.pj_per_op(&spec), "{ebg:?} vs {edv:?}");
    }

    #[test]
    fn locred_share_grows_with_batch_for_bg() {
        // §V-H: "as N increases, the energy for localization and reduction
        // dominates" (BG replicates 8×).
        let (_, e1) = run(1, PimLevel::BankGroup);
        let (_, e16) = run(16, PimLevel::BankGroup);
        let share = |e: &EnergyReport| e.locred_j / e.total_j();
        assert!(share(&e16) > share(&e1), "{} vs {}", share(&e16), share(&e1));
    }

    #[test]
    fn bg_energy_advantage_erodes_with_batch() {
        // §V-H: as N increases, localization/reduction energy grows for BG
        // (8× input replication) and erodes its in-device efficiency
        // advantage over DV. In our calibration the ratio falls from ≈2.2×
        // at N=1 toward parity (the paper's crossover) as N grows.
        let sys = SystemConfig::default();
        let ratio = |n: usize| {
            let spec = GemmSpec::new(1024, 4096, n);
            let rbg = simulate_gemm(&sys, &spec, PimLevel::BankGroup);
            let rdv = simulate_gemm(&sys, &spec, PimLevel::Device);
            let ebg = analyze(&EnergyParams::default(), &rbg, PimLevel::BankGroup);
            let edv = analyze(&EnergyParams::default(), &rdv, PimLevel::Device);
            edv.pj_per_op(&spec) / ebg.pj_per_op(&spec)
        };
        let (r1, r16, r32) = (ratio(1), ratio(16), ratio(32));
        assert!(r1 > 1.8, "BG clearly wins at N=1: {r1}");
        assert!(r16 < r1 && r32 < r16, "monotone erosion: {r1} {r16} {r32}");
        assert!(r32 < 1.35, "near parity at N=32: {r32}");
    }

    #[test]
    fn per_op_energy_drops_with_batch() {
        // More reuse per weight bit ⇒ lower pJ/op (Fig. 14 right).
        let (_, e1) = run(1, PimLevel::BankGroup);
        let (_, e16) = run(16, PimLevel::BankGroup);
        assert!(
            e16.pj_per_op(&GemmSpec::new(1024, 4096, 16))
                < e1.pj_per_op(&GemmSpec::new(1024, 4096, 1))
        );
    }

    #[test]
    fn power_per_device_is_plausible() {
        // Fig. 14 left: fractions of a watt up to ≈1.5 W per device.
        let cfg = DramConfig::default();
        let (r, e) = run(16, PimLevel::BankGroup);
        let w = e.power_per_device_w(r.total, device_count(&cfg), cfg.clock_hz);
        assert!(w > 0.01 && w < 5.0, "{w} W");
    }
}

/// Power-capped latency (§V-H: "if power exceeds the delivery/cooling
/// budget for a chip or module, performance can be throttled"): scale the
/// execution time so average per-device power meets `cap_w`.
pub fn throttled_cycles(
    e: &EnergyReport,
    cycles: u64,
    devices: u32,
    clock_hz: u64,
    cap_w: f64,
) -> u64 {
    let p = e.power_per_device_w(cycles, devices, clock_hz);
    if p <= cap_w {
        cycles
    } else {
        (cycles as f64 * p / cap_w).ceil() as u64
    }
}

#[cfg(test)]
mod throttle_tests {
    use super::*;
    use stepstone_addr::PimLevel;
    use stepstone_core::{simulate_gemm, GemmSpec, SystemConfig};

    #[test]
    fn throttling_only_kicks_in_below_the_measured_power() {
        let sys = SystemConfig::default();
        let spec = GemmSpec::new(1024, 4096, 16);
        let r = simulate_gemm(&sys, &spec, PimLevel::BankGroup);
        let e = analyze(&EnergyParams::default(), &r, PimLevel::BankGroup);
        let devs = device_count(&sys.dram);
        let hz = sys.dram.clock_hz;
        let p = e.power_per_device_w(r.total, devs, hz);
        assert_eq!(throttled_cycles(&e, r.total, devs, hz, p * 2.0), r.total);
        let capped = throttled_cycles(&e, r.total, devs, hz, p / 2.0);
        assert!((capped as f64 / r.total as f64 - 2.0).abs() < 0.01);
    }
}
