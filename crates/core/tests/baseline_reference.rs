//! The nCHO and PEI baselines against their traced reference.
//!
//! Both baselines drive the exact engine: PEI sends one command packet per
//! cache block, nCHO runs a GEMM as one GEMV pass per batch column. Their
//! serial and per-channel sharded runs must report exactly what the traced
//! serial run reports, where every block takes the per-block FR-FCFS path
//! and the sharded engine falls back to the serial one.

use stepstone_addr::PimLevel;
use stepstone_core::{simulate_ncho, simulate_pei, GemmSpec, LatencyReport, SystemConfig};
use stepstone_dram::TrafficSource;

type Baseline =
    fn(&SystemConfig, &GemmSpec, PimLevel, Option<&mut dyn TrafficSource>) -> LatencyReport;

#[test]
fn baselines_match_their_traced_runs() {
    let sys = |parallel, trace| SystemConfig { parallel, trace, ..SystemConfig::default() };
    for spec in [GemmSpec::new(128, 256, 2), GemmSpec::new(256, 128, 4)] {
        for level in [PimLevel::BankGroup, PimLevel::Device] {
            let baselines: [(&str, Baseline); 2] = [("nCHO", simulate_ncho), ("PEI", simulate_pei)];
            for (name, run) in baselines {
                let traced = run(&sys(false, true), &spec, level, None);
                for parallel in [false, true] {
                    let r = run(&sys(parallel, false), &spec, level, None);
                    assert_eq!(r, traced, "{name} {spec} {level:?} parallel {parallel}");
                }
            }
        }
    }
}
