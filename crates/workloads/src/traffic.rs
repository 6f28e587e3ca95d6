//! Synthetic colocated-CPU memory traffic (paper §IV / §V-G).
//!
//! The paper drives the colocation study with mcf, lbm, omnetpp and
//! gemsFDTD from SPEC CPU 2017 on gem5. We have no gem5 or SPEC inputs; per
//! the substitution policy (DESIGN.md §4), the generator below reproduces
//! what actually matters for Fig. 13 — sustained demand on the DDR command
//! and data buses — using the published memory characteristics of those
//! workloads: high MPKI, mixed read/write, a blend of streaming (lbm,
//! gemsFDTD) and pointer-chasing (mcf, omnetpp) locality.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stepstone_dram::{TrafficReq, TrafficSource};

/// Intensity/locality profile of one synthetic application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficProfile {
    pub name: &'static str,
    /// Mean cycles between requests (per generator).
    pub mean_gap: f64,
    /// Fraction of writes.
    pub write_ratio: f64,
    /// Probability the next access stays in the current DRAM row (streaming
    /// vs pointer-chasing).
    pub row_locality: f64,
}

/// SPEC-2017-like profiles (relative intensities follow the memory-bound
/// ranking reported for these benchmarks: lbm > gemsFDTD > mcf > omnetpp).
pub fn spec_like_profiles() -> Vec<TrafficProfile> {
    vec![
        TrafficProfile { name: "mcf", mean_gap: 7.0, write_ratio: 0.25, row_locality: 0.2 },
        TrafficProfile { name: "lbm", mean_gap: 4.0, write_ratio: 0.45, row_locality: 0.8 },
        TrafficProfile { name: "omnetpp", mean_gap: 9.0, write_ratio: 0.3, row_locality: 0.3 },
        TrafficProfile { name: "gemsFDTD", mean_gap: 5.0, write_ratio: 0.35, row_locality: 0.7 },
    ]
}

/// An open-loop traffic generator over a private address range.
#[derive(Debug)]
pub struct SyntheticTraffic {
    profiles: Vec<TrafficProfile>,
    rng: StdRng,
    /// Current stream position per profile.
    cursors: Vec<u64>,
    /// Base and size (bytes) of the region the CPU touches.
    region_base: u64,
    region_blocks: u64,
    remaining: u64,
}

impl SyntheticTraffic {
    /// The paper's colocation mix: all four applications running together.
    pub fn spec_mix(seed: u64, requests: u64) -> Self {
        Self::new(spec_like_profiles(), seed, requests)
    }

    pub fn new(profiles: Vec<TrafficProfile>, seed: u64, requests: u64) -> Self {
        assert!(!profiles.is_empty());
        let n = profiles.len();
        Self {
            profiles,
            rng: StdRng::seed_from_u64(seed),
            cursors: vec![0; n],
            // Keep CPU data away from the PIM weight/buffer arenas.
            region_base: 1 << 36,
            region_blocks: 1 << 20,
            remaining: requests,
        }
    }

    /// Aggregate request rate in requests/cycle (for calibration).
    pub fn aggregate_rate(&self) -> f64 {
        self.profiles.iter().map(|p| 1.0 / p.mean_gap).sum()
    }
}

impl TrafficSource for SyntheticTraffic {
    fn next_req(&mut self) -> Option<TrafficReq> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // Pick the profile proportionally to its intensity.
        let total: f64 = self.aggregate_rate();
        let mut pick = self.rng.gen::<f64>() * total;
        let mut ix = 0;
        for (i, p) in self.profiles.iter().enumerate() {
            pick -= 1.0 / p.mean_gap;
            if pick <= 0.0 {
                ix = i;
                break;
            }
        }
        let p = self.profiles[ix];
        // Advance the stream: sequential-in-row or a jump.
        let cur = &mut self.cursors[ix];
        if self.rng.gen::<f64>() < p.row_locality {
            *cur = (*cur + 1) % self.region_blocks;
        } else {
            *cur = self.rng.gen_range(0..self.region_blocks);
        }
        // The mix's inter-arrival time: exponential-ish around the blended
        // mean (geometric sampling keeps it integral and cheap).
        let mean = 1.0 / total;
        let gap = if mean <= 1.0 {
            1
        } else {
            let u: f64 = self.rng.gen_range(0.0f64..1.0).max(1e-9);
            (-mean * u.ln()).round().max(1.0) as u64
        };
        Some(TrafficReq {
            pa: self.region_base + (*cur ^ (ix as u64) << 17) * 64,
            write: self.rng.gen::<f64>() < p.write_ratio,
            gap,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_per_seed() {
        let collect = |seed| {
            let mut t = SyntheticTraffic::spec_mix(seed, 100);
            std::iter::from_fn(|| t.next_req()).collect::<Vec<_>>()
        };
        assert_eq!(collect(7), collect(7));
        assert_ne!(collect(7), collect(8));
    }

    #[test]
    fn generator_exhausts_after_budget() {
        let mut t = SyntheticTraffic::spec_mix(1, 10);
        let n = std::iter::from_fn(|| t.next_req()).count();
        assert_eq!(n, 10);
        assert!(t.next_req().is_none());
    }

    #[test]
    fn rate_matches_profiles() {
        let t = SyntheticTraffic::spec_mix(1, 1000);
        // 1/7 + 1/4 + 1/9 + 1/5 ≈ 0.70 requests/cycle — memory-intensive
        // (four cores of mcf/lbm/omnetpp/gemsFDTD).
        let r = t.aggregate_rate();
        assert!((0.5..0.9).contains(&r), "{r}");
    }

    #[test]
    fn addresses_stay_in_cpu_region() {
        let mut t = SyntheticTraffic::spec_mix(3, 500);
        while let Some(req) = t.next_req() {
            assert!(req.pa >= 1 << 36);
            assert_eq!(req.pa % 64, 0);
            assert!(req.gap >= 1);
        }
    }

    #[test]
    fn mix_contains_reads_and_writes() {
        let mut t = SyntheticTraffic::spec_mix(5, 2000);
        let mut w = 0;
        let mut n = 0;
        while let Some(req) = t.next_req() {
            w += u64::from(req.write);
            n += 1;
        }
        let ratio = w as f64 / n as f64;
        assert!((0.15..0.55).contains(&ratio), "{ratio}");
    }
}
