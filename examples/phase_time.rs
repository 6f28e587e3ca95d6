//! Per-phase wall-clock breakdown of streaming GEMM simulations — the
//! profiling companion to `bench_sim` (which times end-to-end runs).
//! Each phase also reports its run-granularity statistics: hinted runs
//! admitted as single scheduling objects, their mean length, the
//! per-block fallback split by cause (refresh / row / trace / traffic /
//! other), and the blocks the units issued in closed form, by mechanism,
//! with their share of the phase's blocks: admitted-run tails, A-walk
//! stretches (rounds of one or several window keys, jumped by arithmetic
//! on the unit's own state), and verified periods (transfer rounds, jumped
//! by the same arithmetic on the transfer's own issues). Each phase also
//! reports its promise checks by outcome, and kernel phases the span
//! key-equality tests their sources evaluated for them.
//!
//! Usage: `cargo run --release --example phase_time [M K N] \
//!         [--preset=ddr4|ddr5|lpddr5|hbm2]`
//! (defaults to 2048 2048 64 on DDR4). The shape is profiled at
//! StepStone-BG, then at StepStone-DV. The engine always drives the exact
//! timing model.
//!
//! `--table1 [--passes=R]` profiles the 80 Table-I GEMMs (10 weight shapes
//! × N ∈ {1, 4, 8, 32} × {BG, DV}) instead: one row per (level, N) with the
//! kernel blocks by closed-form mechanism, the localization and reduction
//! blocks with the share issued in verified periods, and each phase's host
//! time summed over the slice's power-of-two parts, as the minimum of `R`
//! passes (default 3). The kernel's stretch and tail shares are printed for
//! the first pass, which records the span skeletons and builds their
//! stretch tables, and for the last, which replays them; the other columns
//! are the first pass's. Then one row per (level, N) and pass (first, last)
//! with the kernel's promise checks by outcome and key-equality tests.
//! Contexts are built once, before timing; every pass runs the serial
//! engine on fresh memory.

use std::time::Instant;
use stepstone_addr::PimLevel;
use stepstone_core::engine::{
    reset_run_counters, run_counters, run_phase_auto, CheckCounts, RunCounters, UnitCursor,
    FB_LABELS,
};
use stepstone_core::flow::{transfer_cursors, GemmContext, KernelStream};
use stepstone_core::{GemmSpec, Phase, SimOptions, SystemConfig};
use stepstone_dram::{CommandBus, DramConfig, TimingState};

fn main() {
    let mut dims: Vec<usize> = Vec::new();
    let mut dram = DramConfig::default();
    let mut preset = "ddr4".to_string();
    let (mut table1, mut passes) = (false, 3);
    for arg in std::env::args().skip(1) {
        if let Some(name) = arg.strip_prefix("--preset=") {
            dram = DramConfig::by_name(name)
                .unwrap_or_else(|| panic!("unknown preset '{name}' (ddr4|ddr5|lpddr5|hbm2)"));
            preset = name.to_string();
        } else if let Some(r) = arg.strip_prefix("--passes=") {
            passes = r.parse().expect("--passes=R takes a positive count");
        } else if arg == "--table1" {
            table1 = true;
        } else if let Ok(v) = arg.parse() {
            dims.push(v);
        }
    }
    let sys = SystemConfig { parallel: false, ..SystemConfig::default() }.with_dram(dram);
    println!("{preset} ({} MHz)", dram.clock_hz / 1_000_000);
    if table1 {
        return table1_slices(&sys, passes.max(1));
    }
    let (m, k, n) =
        if dims.len() == 3 { (dims[0], dims[1], dims[2]) } else { (2048, 2048, 64) };
    for level in [PimLevel::BankGroup, PimLevel::Device] {
        println!("StepStone-{}", level.tag());
        let opts = SimOptions::stepstone(level);
        let ctx = GemmContext::build(&sys, &GemmSpec::new(m, k, n), &opts);
        let pass = run_pass(&sys, &ctx, &opts);
        for (label, p) in ["loc   ", "kernel", "red   "].iter().zip(&pass) {
            print_phase(label, p);
        }
    }
}

/// What one phase of a pass did: its host time, its blocks, its run
/// counters, and the blocks its units issued in closed form.
#[derive(Default, Clone, Copy)]
struct PhaseOut {
    ms: f64,
    blocks: u64,
    rc: RunCounters,
    /// Blocks of the kernel's A-walk (its compute blocks).
    awalk: u64,
    tail: u64,
    stretch: u64,
    periods: u64,
    jumped: u64,
    checks: CheckCounts,
    key_tests: u64,
}

impl PhaseOut {
    fn of(t0: Instant, blocks: u64, rc: RunCounters, units: &[UnitCursor], ops: u64) -> Self {
        let sum = |f: fn(&UnitCursor) -> u64| units.iter().map(f).sum::<u64>();
        PhaseOut {
            ms: t0.elapsed().as_secs_f64() * 1e3,
            blocks,
            rc,
            awalk: sum(|u| u.simd_ops) / ops.max(1),
            tail: sum(|u| u.tail_blocks),
            stretch: sum(|u| u.stretch_blocks),
            periods: sum(|u| u.jumped_periods),
            jumped: sum(|u| u.jumped_blocks),
            checks: units.iter().fold(CheckCounts::default(), |mut c, u| {
                c.add(&u.checks);
                c
            }),
            key_tests: sum(|u| u.key_tests()),
        }
    }

    /// Add `o`'s counts; host times add too.
    fn add(&mut self, o: &PhaseOut) {
        self.ms += o.ms;
        for (a, b) in [
            (&mut self.blocks, o.blocks),
            (&mut self.awalk, o.awalk),
            (&mut self.tail, o.tail),
            (&mut self.stretch, o.stretch),
            (&mut self.periods, o.periods),
            (&mut self.jumped, o.jumped),
            (&mut self.key_tests, o.key_tests),
        ] {
            *a += b;
        }
        self.checks.add(&o.checks);
    }
}

/// One pass of `ctx` — localization, the kernels, reduction — on fresh
/// memory with the serial engine.
fn run_pass(sys: &SystemConfig, ctx: &GemmContext, opts: &SimOptions) -> [PhaseOut; 3] {
    let ts = &mut TimingState::new(sys.dram);
    let mut bus = CommandBus::new(sys.dram.geom.channels as usize);
    let gap = sys.localization.inter_block_gap();
    let ops = opts.level_cfg.simd_ops_per_block(ctx.n);

    let t0 = Instant::now();
    reset_run_counters();
    let mut loc = transfer_cursors(ctx, &ctx.b_regions, true, Phase::Localization, 0, gap);
    let loc_end = run_phase_auto(ts, &mut bus, &ctx.mapping, &mut loc, None, sys.parallel);
    let loc_blocks = ts.stats().accesses();
    let loc = PhaseOut::of(t0, loc_blocks, run_counters(), &loc, ops);

    let t0 = Instant::now();
    reset_run_counters();
    let mut units: Vec<UnitCursor> = (0..ctx.active_pims.len())
        .map(|pix| {
            let mut u = UnitCursor::from_source(
                "pim",
                ctx.pim_channel(ctx.active_pims[pix]),
                opts.level_cfg.port(),
                KernelStream::new(ctx, sys, opts, pix),
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
    let kernel = PhaseOut::of(t0, kern_blocks, run_counters(), &units, ops);

    let kernel_end = units.iter().map(|u| u.end_time).max().unwrap_or(loc_end);
    let t0 = Instant::now();
    reset_run_counters();
    let mut red = transfer_cursors(ctx, &ctx.c_regions, false, Phase::Reduction, kernel_end, gap);
    run_phase_auto(ts, &mut bus, &ctx.mapping, &mut red, None, sys.parallel);
    let red_blocks = ts.stats().accesses() - loc_blocks - kern_blocks;
    let red = PhaseOut::of(t0, red_blocks, run_counters(), &red, ops);
    [loc, kernel, red]
}

fn share(b: u64, of: u64) -> f64 {
    100.0 * b as f64 / of.max(1) as f64
}

fn print_phase(label: &str, p: &PhaseOut) {
    println!(
        "{label}: {:>9.1} ms  {:>6.1} ns/blk ({} blocks)",
        p.ms,
        p.ms * 1e6 / p.blocks.max(1) as f64,
        p.blocks,
    );
    let splits: Vec<String> = FB_LABELS
        .iter()
        .enumerate()
        .filter(|&(i, _)| p.rc.fallback[i] > 0)
        .map(|(i, l)| format!("{l} {}", p.rc.fallback[i]))
        .collect();
    println!(
        "        {} runs admitted, mean {:.1} blocks; per-block splits: {}",
        p.rc.runs,
        p.rc.mean_run_len(),
        if splits.is_empty() { "none".into() } else { splits.join(", ") },
    );
    println!(
        "        closed form: run tails {} blocks ({:.1}%), A-walk stretches {} ({:.1}%), \
         verified periods {} covering {} ({:.1}%)",
        p.tail,
        share(p.tail, p.blocks),
        p.stretch,
        share(p.stretch, p.blocks),
        p.periods,
        p.jumped,
        share(p.jumped, p.blocks),
    );
    if p.checks.total() > 0 {
        println!("        promise checks: {}; {} key tests", checks_line(&p.checks), p.key_tests);
    }
}

/// Promise checks by outcome, and per jump.
fn checks_line(c: &CheckCounts) -> String {
    format!(
        "{} (no promise {}, foreign {}, first mark {}, failed {}, no room {}, jumped {}; {:.2} per \
         jump)",
        c.total(),
        c.no_promise,
        c.foreign,
        c.first_mark,
        c.failed,
        c.no_room,
        c.jumped,
        c.total() as f64 / c.jumped.max(1) as f64,
    )
}

/// The Table-I profile: one row per (level, N) slice.
fn table1_slices(sys: &SystemConfig, passes: usize) {
    println!(
        "80 Table-I GEMMs, power-of-two parts, serial engine; host ms are the minimum of {passes} \
         passes; 'last' columns are the last pass's kernel shares"
    );
    println!(
        "{:<6} {:>3} {:>5} {:>10} {:>10} {:>9} {:>8} {:>8} {:>9} {:>8} {:>9} {:>8} {:>9} {:>8} {:>8} \
         {:>8} {:>8}",
        "level", "N", "parts", "kernel", "A-walk", "stretch", "of walk", "tails", "last str",
        "last tl", "loc", "jumped", "red", "jumped", "loc ms", "kern ms", "red ms",
    );
    let mut checks = Vec::new();
    for level in [PimLevel::BankGroup, PimLevel::Device] {
        let opts = SimOptions::stepstone(level);
        for n in [1, 4, 8, 32] {
            let parts: Vec<GemmSpec> = stepstone_workloads::table1()
                .iter()
                .flat_map(|e| GemmSpec::new(e.m, e.k, n).decompose_pow2())
                .collect();
            let ctxs: Vec<GemmContext> =
                parts.iter().map(|p| GemmContext::build(sys, p, &opts)).collect();
            let mut best = [f64::INFINITY; 3];
            let (mut first, mut last) = ([PhaseOut::default(); 3], [PhaseOut::default(); 3]);
            for pass in 0..passes {
                let mut sum = [PhaseOut::default(); 3];
                for ctx in &ctxs {
                    let out = run_pass(sys, ctx, &opts);
                    sum.iter_mut().zip(&out).for_each(|(s, p)| s.add(p));
                }
                for (b, s) in best.iter_mut().zip(&sum) {
                    *b = b.min(s.ms);
                }
                if pass == 0 {
                    first = sum;
                }
                last = sum;
            }
            let [loc, k, red] = &first;
            let closed = |k: &PhaseOut, b: u64| format!("{:.1}%", share(b, k.blocks));
            let jumped = |p: &PhaseOut| format!("{:.1}%", share(p.jumped, p.blocks));
            println!(
                "{:<6} {:>3} {:>5} {:>10} {:>10} {:>9} {:>8} {:>8} {:>9} {:>8} {:>9} {:>8} {:>9} \
                 {:>8} {:>8.1} {:>8.1} {:>8.1}",
                level.tag(),
                n,
                parts.len(),
                k.blocks,
                k.awalk,
                closed(k, k.stretch),
                format!("{:.1}%", share(k.stretch, k.awalk)),
                closed(k, k.tail),
                closed(&last[1], last[1].stretch),
                closed(&last[1], last[1].tail),
                loc.blocks,
                jumped(loc),
                red.blocks,
                jumped(red),
                best[0],
                best[1],
                best[2],
            );
            checks.push((level, n, [first[1], last[1]]));
        }
    }
    println!("kernel promise checks");
    for (level, n, ks) in checks {
        for (pass, k) in ["first", "last"].iter().zip(ks) {
            let line = checks_line(&k.checks);
            println!("{:<6} {:>3} {pass:<5}  {line}; {} key tests", level.tag(), n, k.key_tests);
        }
    }
}
