//! Host cost of the shape-dependent set-up layer: one cold
//! `GemmContext::build` (group analysis, row/column accounting, region
//! carving, key-run tabulation) at the two Table-I serving shapes, and the
//! analytic-tier pass-cost table a serving sweep prices before its first
//! request (194 context builds through a fresh `SessionCache` per
//! iteration; the process-wide AGEN caches are warm after the first).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use stepstone_addr::PimLevel;
use stepstone_core::{GemmContext, GemmSpec, SimOptions, SystemConfig};
use stepstone_dram::BackendKind;
use stepstone_serving::build_cost_table;

fn bench_context_build(c: &mut Criterion) {
    let sys = SystemConfig::default();
    let mut g = c.benchmark_group("context_build");
    for (m, k, n) in [(512, 512, 32), (1024, 4096, 4)] {
        let spec = GemmSpec::new(m, k, n);
        for (tag, level) in [("bg", PimLevel::BankGroup), ("dv", PimLevel::Device)] {
            let opts = SimOptions::stepstone(level);
            g.bench_function(&format!("{m}x{k}_n{n}_{tag}"), |b| {
                b.iter(|| black_box(GemmContext::build(&sys, &spec, &opts).active_pims.len()))
            });
        }
    }
    g.finish();

    let asys = SystemConfig::default().with_backend(BackendKind::Analytic);
    let mut g = c.benchmark_group("cost_table");
    g.sample_size(10);
    g.bench_function("analytic", |b| {
        b.iter(|| black_box(build_cost_table(&asys).len()))
    });
    g.finish();
}

criterion_group!(benches, bench_context_build);
criterion_main!(benches);
