//! Profiling harness: run the streaming simulation N times in-process so a
//! sampling profiler sees a steady-state hot path.

use std::time::Instant;
use stepstone_addr::PimLevel;
use stepstone_core::{simulate_gemm_opt, GemmSpec, SimOptions, SystemConfig};

fn main() {
    let args: Vec<usize> = std::env::args().skip(1).filter_map(|a| a.parse().ok()).collect();
    let (m, k, n, reps) = match args.as_slice() {
        [m, k, n, r] => (*m, *k, *n, *r),
        [m, k, n] => (*m, *k, *n, 10),
        _ => (512, 512, 32, 10),
    };
    let sys = SystemConfig::default();
    let spec = GemmSpec::new(m, k, n);
    let opts = SimOptions::stepstone(PimLevel::BankGroup);
    let mut total = 0u64;
    for r in 0..reps {
        let t0 = Instant::now();
        let rep = simulate_gemm_opt(&sys, &spec, &opts, None);
        total ^= rep.total;
        println!("rep {r}: {:.1} ms", t0.elapsed().as_secs_f64() * 1e3);
    }
    println!("done ({total:x})");
}
