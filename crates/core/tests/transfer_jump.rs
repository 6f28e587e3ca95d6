//! Differential suite of the periodic transfer jump.
//!
//! A DMA transfer cursor alone on its channel, with no colocated traffic,
//! refresh or command trace, issues verified periods of its round-robin
//! stream in closed form once its last two periods of issues repeat
//! (`UnitCursor::jumped_periods`, `UnitCursor::jumped_blocks`). The reference
//! here is the same phase on a trace-enabled backend, where the jump is
//! off and every block goes through the per-block FR-FCFS path. Both must
//! agree on the phase end, every public unit field, the DRAM statistics,
//! the run counters, and on an identical follow-up phase, which would
//! expose any wrongly extrapolated bank or path state.

use proptest::prelude::*;
use stepstone_addr::{PagingConfig, PimLevel, RegionPlan, BLOCK_BYTES};
use stepstone_core::engine::{
    reset_run_counters, run_counters, run_phase_auto, RunCounters, UnitCursor, FB_OTHER,
    FB_TRACE,
};
use stepstone_core::flow::{transfer_cursors, GemmContext};
use stepstone_core::{GemmSpec, Phase, SimOptions, SystemConfig};
use stepstone_dram::{CommandBus, DramStats, TimingState};
use stepstone_pim::LocalizationMode;

/// The run counters are process-global: tests reading them serialize.
fn counter_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One transfer phase's arm.
#[derive(Debug, Clone, Copy)]
struct Arm {
    write: bool,
    gap: u64,
    parallel: bool,
    start: u64,
}

/// Everything public a transfer cursor reports, minus the jump counters.
type UnitFields = (u32, u64, [u64; 8], u64, u64, u64, u64, u64, u32, u64);

fn fields(u: &UnitCursor) -> UnitFields {
    (
        u.channel,
        u.not_before,
        u.cat_cycles,
        u.end_time,
        u.launches,
        u.simd_ops,
        u.scratch_accesses,
        u.agen_iter_sum,
        u.agen_iter_max,
        u.agen_bubbles,
    )
}

/// What one phase produced: its end, per-unit fields, the statistics it
/// added, and its run counters.
#[derive(Debug, PartialEq)]
struct PhaseOut {
    end: u64,
    units: Vec<UnitFields>,
    stats: DramStats,
    counters: RunCounters,
}

/// Run the phase, then an identical follow-up phase from its end, on one
/// backend; returns both phases and the periods and blocks jumped in each.
fn run_twice(
    ctx: &GemmContext,
    regions: &[RegionPlan],
    arm: Arm,
    traced: bool,
) -> ([PhaseOut; 2], [(u64, u64); 2]) {
    let channels = ctx.mapping.geometry().channels as usize;
    let mut ts = TimingState::new(Default::default());
    if traced {
        ts.enable_trace();
    }
    let mut bus = CommandBus::new(channels);
    let cat = if arm.write { Phase::Localization } else { Phase::Reduction };
    let mut start = arm.start;
    let mut phase = || {
        let before = ts.stats;
        reset_run_counters();
        let mut units = transfer_cursors(ctx, regions, arm.write, cat, start, arm.gap);
        let end = run_phase_auto(&mut ts, &mut bus, &ctx.mapping, &mut units, None, arm.parallel);
        start = end;
        let out = PhaseOut {
            end,
            units: units.iter().map(fields).collect(),
            stats: ts.stats.delta(&before),
            counters: run_counters(),
        };
        let periods = units.iter().map(|u| u.jumped_periods).sum::<u64>();
        (out, (periods, units.iter().map(|u| u.jumped_blocks).sum::<u64>()))
    };
    let (first, j0) = phase();
    let (second, j1) = phase();
    ([first, second], [j0, j1])
}

/// Compare the jump-enabled run against the traced reference; returns the
/// periods the jump-enabled run issued in closed form, and the share of
/// its first phase's blocks they covered.
fn check(ctx: &GemmContext, regions: &[RegionPlan], arm: Arm) -> (u64, f64) {
    let (mut got, jumped) = run_twice(ctx, regions, arm, false);
    let (mut want, none) = run_twice(ctx, regions, arm, true);
    assert_eq!(none, [(0, 0); 2], "{arm:?}: the trace turns the jump off");
    let share = jumped[0].1 as f64 / got[0].stats.accesses() as f64;
    for (i, (g, w)) in got.iter_mut().zip(&mut want).enumerate() {
        let blocks = g.stats.accesses();
        assert_eq!(g.counters.runs, 0, "{arm:?} phase {i}: transfers admit no runs");
        assert_eq!(g.counters.fallback[FB_OTHER], blocks, "{arm:?} phase {i}: {:?}", g.counters);
        assert_eq!(w.counters.fallback[FB_TRACE], blocks, "{arm:?} phase {i}: {:?}", w.counters);
        // The causes differ by construction; everything else must not.
        g.counters.fallback = [0; 5];
        w.counters.fallback = [0; 5];
        assert_eq!(g, w, "{arm:?} phase {i}");
    }
    (jumped[0].0 + jumped[1].0, share)
}

/// A context whose regions carry key-run tables (not direct-scratchpad).
fn context(sys: &SystemConfig, level: PimLevel, spec: GemmSpec) -> GemmContext {
    let ctx = GemmContext::build(sys, &spec, &SimOptions::stepstone(level));
    assert!(!ctx.direct_scratchpad, "{spec}: transfers need tabulated key runs");
    ctx
}

/// Full-length localization and reduction regions of a Table-I serving
/// shape, with DMA and host-mediated pacing, serial and sharded, unpaged
/// and under fragmented paging. Every arm must match the reference. The
/// jump must fire unpaged and with 64 KiB pages (promises clipped at page
/// ends), covering at least 91% of each phase's blocks with DMA pacing
/// and 96% host-mediated (a key run's first jump waits for two periods of
/// its issues; 91.4–92.6% and 96.1–96.5% of the blocks at the time of
/// writing); a 4 KiB page holds too few blocks of a region for it.
#[test]
fn context_regions_jump_and_match_the_traced_reference() {
    let _serial = counter_lock();
    let host = LocalizationMode::HostMediated { gap_cycles: 4 }.inter_block_gap();
    for page in [None, Some(4096), Some(1 << 16)] {
        let paging = page.map(|p| PagingConfig::fragmented(p, 3));
        let sys = SystemConfig { paging, ..SystemConfig::default() };
        let ctx = context(&sys, PimLevel::BankGroup, GemmSpec::new(512, 512, 32));
        for (regions, write) in [(&ctx.b_regions, true), (&ctx.c_regions, false)] {
            for gap in [0, host] {
                for parallel in [false, true] {
                    let arm = Arm { write, gap, parallel, start: 0 };
                    let (jumped, share) = check(&ctx, regions, arm);
                    let floor = if gap == 0 { 0.91 } else { 0.96 };
                    if page != Some(4096) {
                        assert!(jumped > 0, "{arm:?} page {page:?}: the jump must fire");
                        assert!(share >= floor, "{arm:?} page {page:?}: {share:.4} jumped");
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Random region sets carved from a context's parity classes — random
    // lengths (so regions run dry at different rounds), arena offsets and
    // start times — in both directions, both pacings, serial and sharded,
    // unpaged and under 4 KiB and 64 KiB fragmented paging.
    #[test]
    fn random_region_sets_match_the_traced_reference(
        level_ix in 0usize..3,
        lens in proptest::collection::vec(0u64..3000, 16..17),
        offset in 0u64..4096,
        write in any::<bool>(),
        host in any::<bool>(),
        parallel in any::<bool>(),
        page_ix in 0usize..3,
        start in 0u64..5000,
    ) {
        let _serial = counter_lock();
        let paging = [None, Some(4096), Some(1 << 16)][page_ix]
            .map(|page| PagingConfig::fragmented(page, offset));
        let sys = SystemConfig { paging, ..SystemConfig::default() };
        let level = [PimLevel::BankGroup, PimLevel::Device, PimLevel::Channel][level_ix];
        // Large enough that no level bypasses its buffers.
        let ctx = context(&sys, level, GemmSpec::new(1024, 1024, 256));
        let arena = sys.buffer_base + offset * BLOCK_BYTES;
        let regions: Vec<RegionPlan> = ctx
            .active_pims
            .iter()
            .zip(lens.iter().cycle())
            .map(|(&pim, &len)| RegionPlan::carve(ctx.ga.pim_constraints(pim), arena, len))
            .collect();
        let gap = if host { 4 } else { 0 };
        check(&ctx, &regions, Arm { write, gap, parallel, start });
    }
}
