//! Per-phase wall-clock breakdown of one streaming GEMM simulation —
//! the profiling companion to `bench_sim` (which times end-to-end runs).
//! Each phase also reports its run-granularity statistics: hinted runs
//! admitted as single scheduling objects, their mean length, the
//! per-block fallback split by cause (refresh / row / trace / traffic /
//! other), and the blocks the units issued in closed form, by mechanism,
//! with their share of the phase's blocks: admitted-run tails, single-key
//! A-walk stretches (StepStone-BG), and verified periods (transfer rounds
//! and multi-key A-walk stretches, with the snapshots their checks took).
//!
//! Usage: `cargo run --release --example phase_time [M K N] \
//!         [--preset=ddr4|ddr5|lpddr5|hbm2]`
//! (defaults to 2048 2048 64 on DDR4). The shape is profiled at
//! StepStone-BG, then at StepStone-DV. The engine always drives the exact
//! timing model.

use std::time::Instant;
use stepstone_addr::PimLevel;
use stepstone_core::engine::{
    reset_run_counters, run_counters, run_phase_auto, RunCounters, UnitCursor, FB_LABELS,
};
use stepstone_core::flow::{transfer_cursors, GemmContext, KernelStream};
use stepstone_core::{GemmSpec, Phase, SimOptions, SystemConfig};
use stepstone_dram::{CommandBus, DramConfig, MemoryBackend, TimingState};

fn main() {
    let mut dims: Vec<usize> = Vec::new();
    let mut dram = DramConfig::default();
    let mut preset = "ddr4".to_string();
    for arg in std::env::args().skip(1) {
        if let Some(name) = arg.strip_prefix("--preset=") {
            dram = DramConfig::by_name(name)
                .unwrap_or_else(|| panic!("unknown preset '{name}' (ddr4|ddr5|lpddr5|hbm2)"));
            preset = name.to_string();
        } else if let Ok(v) = arg.parse() {
            dims.push(v);
        }
    }
    let (m, k, n) =
        if dims.len() == 3 { (dims[0], dims[1], dims[2]) } else { (2048, 2048, 64) };
    let sys = SystemConfig { parallel: false, ..SystemConfig::default() }.with_dram(dram);
    println!("{preset} ({} MHz)", dram.clock_hz / 1_000_000);
    for level in [PimLevel::BankGroup, PimLevel::Device] {
        println!("StepStone-{}", level.tag());
        profile(&sys, m, k, n, level);
    }
}

fn profile(sys: &SystemConfig, m: usize, k: usize, n: usize, level: PimLevel) {
    let ts = &mut TimingState::new(sys.dram);
    let spec = GemmSpec::new(m, k, n);
    let opts = SimOptions::stepstone(level);
    let ctx = GemmContext::build(sys, &spec, &opts);
    let mut bus = CommandBus::new(sys.dram.geom.channels as usize);
    let loc_mode = sys.localization;

    let phase_stats = |label: &str, t0: Instant, blocks: u64, rc: RunCounters, units: &[UnitCursor]| {
        println!(
            "{label}: {:>9.1} ms  {:>6.1} ns/blk ({blocks} blocks)",
            t0.elapsed().as_secs_f64() * 1e3,
            t0.elapsed().as_nanos() as f64 / blocks.max(1) as f64,
        );
        let splits: Vec<String> = FB_LABELS
            .iter()
            .enumerate()
            .filter(|&(i, _)| rc.fallback[i] > 0)
            .map(|(i, l)| format!("{l} {}", rc.fallback[i]))
            .collect();
        println!(
            "        {} runs admitted, mean {:.1} blocks; per-block splits: {}",
            rc.runs,
            rc.mean_run_len(),
            if splits.is_empty() { "none".into() } else { splits.join(", ") },
        );
        let sum = |f: fn(&UnitCursor) -> u64| units.iter().map(f).sum::<u64>();
        let share = |b: u64| 100.0 * b as f64 / blocks.max(1) as f64;
        let (tail, stretch) = (sum(|u| u.tail_blocks), sum(|u| u.stretch_blocks));
        let (periods, jumped) = (sum(|u| u.jumped_periods), sum(|u| u.jumped_blocks));
        println!(
            "        closed form: run tails {tail} blocks ({:.1}%), single-key stretches \
             {stretch} ({:.1}%), verified periods {periods} covering {jumped} ({:.1}%); \
             {} snapshots",
            share(tail),
            share(stretch),
            share(jumped),
            sum(|u| u.snapshots),
        );
    };

    let t0 = Instant::now();
    reset_run_counters();
    let mut loc = transfer_cursors(
        &ctx,
        &ctx.b_regions,
        true,
        Phase::Localization,
        0,
        loc_mode.inter_block_gap(),
    );
    let loc_end = run_phase_auto(ts, &mut bus, &ctx.mapping, &mut loc, None, sys.parallel);
    let loc_blocks = ts.stats().accesses();
    phase_stats("loc   ", t0, loc_blocks, run_counters(), &loc);

    let t0 = Instant::now();
    reset_run_counters();
    let mut units: Vec<UnitCursor> = (0..ctx.active_pims.len())
        .map(|pix| {
            let mut u = UnitCursor::from_source(
                "pim",
                ctx.pim_channel(ctx.active_pims[pix]),
                opts.level_cfg.port(),
                KernelStream::new(&ctx, sys, &opts, pix),
                loc_end,
                opts.level_cfg.compute_cycles_per_block(ctx.n),
                opts.level_cfg.simd_ops_per_block(ctx.n),
                opts.level_cfg.pipeline_depth as usize,
                sys.launch.slots_for(opts.granularity),
                sys.launch.launch_latency,
                sys.dram.timing.t_bl,
                None,
            );
            u.exclusive = true;
            u
        })
        .collect();
    run_phase_auto(ts, &mut bus, &ctx.mapping, &mut units, None, sys.parallel);
    let kern_blocks = ts.stats().accesses() - loc_blocks;
    phase_stats("kernel", t0, kern_blocks, run_counters(), &units);

    let kernel_end = units.iter().map(|u| u.end_time).max().unwrap_or(loc_end);
    let t0 = Instant::now();
    reset_run_counters();
    let mut red = transfer_cursors(
        &ctx,
        &ctx.c_regions,
        false,
        Phase::Reduction,
        kernel_end,
        loc_mode.inter_block_gap(),
    );
    run_phase_auto(ts, &mut bus, &ctx.mapping, &mut red, None, sys.parallel);
    let red_blocks = ts.stats().accesses() - loc_blocks - kern_blocks;
    phase_stats("red   ", t0, red_blocks, run_counters(), &red);
}
