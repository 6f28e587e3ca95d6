//! How much block-grouping locality survives VA→PA paging?
//!
//! The paper assumes physically contiguous arenas; this sweep fragments
//! them through a page-colored `PageMap` at every page size from 4 KB to
//! 1 GB and reports, per arm: simulated cycles vs the contiguous baseline,
//! the run-granularity counters (page-clipped hints shorten the whole-run
//! promises the engine can admit), and a sampled same-key run-length ratio
//! against the native stream. An identity map is asserted bit-identical,
//! and a PTW-cost arm shows when the page walk stops hiding under the
//! memory-bound stream.
//!
//! Usage: `cargo run --release --example paging_locality [M K N]`.

use stepstone_addr::{paged_run_stats, PageMap, PagingConfig, PimLevel};
use stepstone_core::engine::{reset_run_counters, run_counters};
use stepstone_core::{
    simulate_gemm_opt, GemmContext, GemmSpec, SimOptions, SystemConfig,
};

fn main() {
    let args: Vec<usize> = std::env::args().skip(1).filter_map(|a| a.parse().ok()).collect();
    let (m, k, n) = if args.len() == 3 { (args[0], args[1], args[2]) } else { (1024, 2048, 16) };
    let sys = SystemConfig { parallel: false, ..SystemConfig::default() };
    let spec = GemmSpec::new(m, k, n);
    let opts = SimOptions::stepstone(PimLevel::BankGroup);
    let mapping = sys.mapping();

    reset_run_counters();
    let base = simulate_gemm_opt(&sys, &spec, &opts, None);
    let base_rc = run_counters();
    println!(
        "{m}x{k} N={n} STP-BG contiguous: {} cycles, {} runs (mean {:.1} blocks)",
        base.total,
        base_rc.runs,
        base_rc.mean_run_len()
    );

    // Identity paging is free at any page size: the stream is never wrapped.
    let isys = sys.clone().with_paging(PagingConfig::identity(4096));
    let ir = simulate_gemm_opt(&isys, &spec, &opts, None);
    assert_eq!(ir.total, base.total, "identity paging must be bit-identical");
    println!("identity 4KB: bit-identical ({} cycles)", ir.total);

    // Sampled locality is measured on the first localized-B region plan.
    let ctx = GemmContext::build(&sys, &spec, &opts);
    let plan = &ctx.b_regions[0];
    let sample = plan.len().min(1 << 16);
    let native = {
        let map = PageMap::for_mapping(PagingConfig::identity(4096), &mapping);
        paged_run_stats(&map, plan, &mapping, sample)
    };

    println!("\nfragmented frame allocation (page-colored, seed 42):");
    println!(
        "{:>10}  {:>12}  {:>8}  {:>14}  {:>10}  {:>11}",
        "page", "cycles", "vs base", "runs (mean)", "locality", "page splits"
    );
    for page_bytes in [4096u64, 64 << 10, 2 << 20, 1 << 30] {
        let cfg = PagingConfig::fragmented(page_bytes, 42);
        let psys = sys.clone().with_paging(cfg);
        reset_run_counters();
        let r = simulate_gemm_opt(&psys, &spec, &opts, None);
        let rc = run_counters();
        let map = PageMap::for_mapping(cfg, &mapping);
        let s = paged_run_stats(&map, plan, &mapping, sample);
        let page = if page_bytes >= 1 << 30 {
            format!("{} GB", page_bytes >> 30)
        } else if page_bytes >= 1 << 20 {
            format!("{} MB", page_bytes >> 20)
        } else {
            format!("{} KB", page_bytes >> 10)
        };
        println!(
            "{:>10}  {:>12}  {:>+7.2}%  {:>6} ({:>5.1})  {:>10.3}  {:>11}",
            page,
            r.total,
            (r.total as f64 / base.total as f64 - 1.0) * 100.0,
            rc.runs,
            rc.mean_run_len(),
            s.mean_run_len() / native.mean_run_len(),
            s.page_splits,
        );
    }

    // The PTW cost model: a short walk hides under the memory-bound
    // stream; a long (uncached) walk surfaces in total latency.
    println!("\nPTW cost at 4 KB pages (extra AGEN cycles per page transition):");
    for ptw in [0u32, 20, 500] {
        let psys =
            sys.clone().with_paging(PagingConfig::fragmented(4096, 42).with_ptw(ptw));
        let r = simulate_gemm_opt(&psys, &spec, &opts, None);
        println!(
            "  ptw {ptw:>3}: {} cycles ({:+.2}% vs contiguous)",
            r.total,
            (r.total as f64 / base.total as f64 - 1.0) * 100.0
        );
    }
}
