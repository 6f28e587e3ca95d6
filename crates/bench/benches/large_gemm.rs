//! End-to-end large-GEMM simulation throughput: the streaming engine vs
//! the frozen seed replay path, at a size big enough for memory effects
//! (materialized step programs miss cache) to show. `bench_sim` is the
//! tracked paper-scale run; this bench gives the quick Criterion-style
//! number during development.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use stepstone_addr::PimLevel;
use stepstone_bench::seed_replay::simulate_pow2_gemm_seed;
use stepstone_core::{simulate_gemm_opt, GemmSpec, SimOptions, SystemConfig};

fn bench_large_gemm(c: &mut Criterion) {
    let sys = SystemConfig::default();
    let spec = GemmSpec::new(1024, 4096, 32);
    let opts = SimOptions::stepstone(PimLevel::BankGroup);
    let mut g = c.benchmark_group("gemm_1024x4096_n32_bg");
    g.sample_size(10);
    g.bench_function("streaming", |b| {
        b.iter(|| {
            black_box(
                simulate_gemm_opt(&sys, &spec, &opts, None).total,
            )
        })
    });
    g.bench_function("seed_replay", |b| {
        b.iter(|| black_box(simulate_pow2_gemm_seed(&sys, &spec, &opts).total))
    });
    g.finish();
}

criterion_group!(benches, bench_large_gemm);
criterion_main!(benches);
