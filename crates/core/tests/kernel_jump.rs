//! Differential suite of the kernel A-walk jumps.
//!
//! An exclusive kernel unit on the fast path issues stretches of its
//! A-walk in closed form, by arithmetic on its own state
//! (`UnitCursor::stretch_blocks`): single-key stretches
//! (StepStone-BG) in the run stream, and multi-key stretches
//! (StepStone-DV) once its last two rounds of issues repeat. Two
//! references check both:
//!
//! * the same phase over a source that makes no round promises, so run
//!   admission and the span fast path are unchanged but the jump never
//!   fires — everything must match, run counters included;
//! * the same phase on a trace-enabled backend, where the jump is off and
//!   every block goes through the per-block FR-FCFS path — everything but
//!   the run counters must match (tracing withholds run admission, so its
//!   blocks all count as trace fallbacks).
//!
//! Each run is a kernel phase followed by an identical phase from its end,
//! which would expose any wrongly extrapolated bank, path or unit state.

use proptest::prelude::*;
use stepstone_addr::{PagingConfig, PimLevel};
use stepstone_core::engine::{
    reset_run_counters, run_counters, run_phase_auto, CheckCounts, RunCounters, Step, StepSource,
    SubsetRemap, TrafficCursor, UnitCursor, FB_TRACE,
};
use stepstone_core::flow::{transfer_cursors, GemmContext, KernelStream};
use stepstone_core::{GemmSpec, PagedSteps, Phase, SimOptions, SystemConfig};
use stepstone_dram::{CommandBus, DramConfig, DramStats, TimingState, TrafficReq, TrafficSource};

/// The run counters are process-global: tests reading them serialize.
fn counter_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A kernel stream without round promises: hints and admitted runs pass
/// through, so only the periodic jump is missing.
struct NoPromise<S>(S);

impl<S: Iterator<Item = Step>> Iterator for NoPromise<S> {
    type Item = Step;

    fn next(&mut self) -> Option<Step> {
        self.0.next()
    }
}

impl<S: StepSource> StepSource for NoPromise<S> {
    fn run_hint(&self) -> u64 {
        self.0.run_hint()
    }

    fn take_run(&mut self, n: u64) -> u64 {
        self.0.take_run(n)
    }
}

/// How the kernel phase runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Promising streams on an untraced backend: the jump may fire.
    Jump,
    /// Streams without promises.
    NoPromise,
    /// Promising streams on a traced backend.
    Traced,
}

/// Everything public a kernel unit reports, minus the jump counters.
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

/// One GEMM's kernel units as the pass builds them, starting at `start`.
fn kernel_units<'a>(
    ctx: &'a GemmContext,
    sys: &SystemConfig,
    opts: &SimOptions,
    start: u64,
    promise: bool,
) -> Vec<UnitCursor<'a>> {
    (0..ctx.active_pims.len())
        .map(|pix| {
            let steps = KernelStream::new(ctx, sys, opts, pix);
            let steps: Box<dyn StepSource + Send + 'a> =
                match (ctx.page_map.as_ref().filter(|pm| pm.affects_stream()), promise) {
                    (Some(pm), true) => Box::new(PagedSteps::new(steps, pm.clone(), true)),
                    (Some(pm), false) => {
                        Box::new(NoPromise(PagedSteps::new(steps, pm.clone(), true)))
                    }
                    (None, true) => Box::new(steps),
                    (None, false) => Box::new(NoPromise(steps)),
                };
            let mut u = UnitCursor::from_source(
                "pim",
                ctx.pim_channel(ctx.active_pims[pix]),
                opts.level_cfg.port(),
                steps,
                start,
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
        .collect()
}

/// What the kernel units of a run issued in closed form: blocks of
/// A-walk stretches and of verified transfer periods (kernels take none
/// of the latter).
#[derive(Debug, Default, Clone, Copy)]
struct Jumped {
    stretch: u64,
    period: u64,
}

impl Jumped {
    fn add(&mut self, units: &[UnitCursor]) {
        for u in units {
            self.stretch += u.stretch_blocks;
            self.period += u.jumped_blocks;
        }
    }

    /// Blocks issued in closed form by any jump.
    fn blocks(&self) -> u64 {
        self.stretch + self.period
    }

    /// Whether kernel stretches jumped, and no transfer period.
    fn stretches_only(&self) -> bool {
        self.stretch > 0 && self.period == 0
    }
}

/// Run the kernel phase, then an identical follow-up phase from its end,
/// on one backend; returns both phases and what they issued in closed
/// form.
fn run_twice(
    sys: &SystemConfig,
    ctx: &GemmContext,
    opts: &SimOptions,
    start: u64,
    mode: Mode,
) -> ([PhaseOut; 2], Jumped) {
    let mut ts = TimingState::new(sys.dram);
    if mode == Mode::Traced {
        ts.enable_trace();
    }
    let mut bus = CommandBus::new(sys.dram.geom.channels as usize);
    let mut start = start;
    let mut jumped = Jumped::default();
    let mut phase = || {
        let before = ts.stats;
        reset_run_counters();
        let mut units = kernel_units(ctx, sys, opts, start, mode != Mode::NoPromise);
        let end = run_phase_auto(&mut ts, &mut bus, &ctx.mapping, &mut units, None, sys.parallel);
        start = end;
        jumped.add(&units);
        PhaseOut {
            end,
            units: units.iter().map(fields).collect(),
            stats: ts.stats.delta(&before),
            counters: run_counters(),
        }
    };
    let out = [phase(), phase()];
    (out, jumped)
}

/// Compare the jump-enabled run with both references; returns what the
/// jump-enabled run issued in closed form.
fn check(sys: &SystemConfig, spec: GemmSpec, level: PimLevel, start: u64) -> Jumped {
    let opts = SimOptions::stepstone(level);
    let ctx = GemmContext::build(sys, &spec, &opts);
    let what = format!("{spec} {level:?} paged={} parallel={}", sys.paging.is_some(), sys.parallel);
    let (got, jumped) = run_twice(sys, &ctx, &opts, start, Mode::Jump);
    let (plain, none) = run_twice(sys, &ctx, &opts, start, Mode::NoPromise);
    assert_eq!(none.blocks(), 0, "{what}: a source without promises never jumps");
    assert_eq!(got, plain, "{what}: jump vs no promises");
    let (traced, none) = run_twice(sys, &ctx, &opts, start, Mode::Traced);
    assert_eq!(none.blocks(), 0, "{what}: the trace turns the jump off");
    for (i, (g, t)) in got.iter().zip(&traced).enumerate() {
        let blocks = t.stats.accesses();
        assert_eq!(t.counters.runs, 0, "{what} phase {i}: tracing admits no runs");
        assert_eq!(t.counters.fallback[FB_TRACE], blocks, "{what} phase {i}");
        assert_eq!((g.end, &g.units, g.stats), (t.end, &t.units, t.stats), "{what} phase {i}");
    }
    jumped
}

fn sys(page: Option<u64>, parallel: bool) -> SystemConfig {
    let paging = page.map(|p| PagingConfig::fragmented(p, 3));
    SystemConfig { paging, parallel, ..SystemConfig::default() }
}

/// A 256×4096 N=1 A-walk at StepStone-DV and -BG holds one row pair (DV)
/// or one row (BG) for 64 blocks per bank, like the 1024×4096 Table-I
/// shape. Unpaged, under 4 KiB and 64 KiB fragmented paging, serial and
/// sharded, the jumps must match both references; they must fire unpaged
/// and with 64 KiB pages (promises clipped at page ends).
#[test]
fn stretches_jump_and_match_both_references() {
    let _serial = counter_lock();
    let spec = GemmSpec::new(256, 4096, 1);
    let arms = [
        (PimLevel::Device, None, false),
        (PimLevel::Device, None, true),
        (PimLevel::Device, Some(4096), false),
        (PimLevel::Device, Some(1 << 16), false),
        (PimLevel::BankGroup, None, false),
        (PimLevel::BankGroup, Some(1 << 16), true),
    ];
    for (level, page, parallel) in arms {
        let jumped = check(&sys(page, parallel), spec, level, 0);
        let what = format!("{level:?} page {page:?} parallel={parallel}");
        assert_eq!(jumped.period, 0, "{what}: kernels take no transfer period");
        if page != Some(4096) {
            assert!(jumped.stretches_only(), "{what}: no jump");
        }
    }
}

/// StepStone-DV walks alternate two window keys, one per bank group: 16
/// spans per row pair on the K ≤ 2048 Table-I shapes (1024×1024 N=4),
/// unpaged and under 4 KiB and 64 KiB fragmented paging; and at N = 128 a
/// SIMD unit slower than the tCCDS cadence, whose stretches jump while the
/// pipeline cannot bind and once it is one cadence of the SIMD time
/// (unpaged and with 64 KiB pages: a 4 KiB page holds too little of its
/// stretches). Serial and sharded, over two phases, the multi-key jump
/// must match both references and fire.
#[test]
fn multi_key_stretches_jump_without_snapshots() {
    let _serial = counter_lock();
    let arms = [
        (GemmSpec::new(1024, 1024, 4), &[None, Some(4096), Some(1 << 16)][..]),
        (GemmSpec::new(256, 1024, 128), &[None, Some(1 << 16)][..]),
    ];
    for (spec, pages) in arms {
        for &page in pages {
            for parallel in [false, true] {
                let jumped = check(&sys(page, parallel), spec, PimLevel::Device, 0);
                let what = format!("{spec} page {page:?} parallel={parallel}");
                assert!(jumped.stretches_only(), "{what}: {jumped:?}");
            }
        }
    }
}

/// StepStone-BG walks hold one window key per stretch: 32 blocks on the
/// K ≤ 2048 Table-I shapes (1024×1024 N=4), and at N = 32 a SIMD unit
/// slower than the CAS cadence, whose
/// stretches run until its oldest completion binds and then at the SIMD
/// cadence. Unpaged, under 4 KiB and 64 KiB fragmented paging, serial and
/// sharded, over two phases, the single-key jump must match both
/// references and fire.
#[test]
fn single_key_stretches_jump_without_snapshots() {
    let _serial = counter_lock();
    for spec in [GemmSpec::new(1024, 1024, 4), GemmSpec::new(512, 1024, 32)] {
        for page in [None, Some(4096), Some(1 << 16)] {
            for parallel in [false, true] {
                let jumped = check(&sys(page, parallel), spec, PimLevel::BankGroup, 0);
                let what = format!("{spec} page {page:?} parallel={parallel}");
                assert!(jumped.stretches_only(), "{what}: {jumped:?}");
            }
        }
    }
}

/// The share of kernel blocks the 1024×4096 N=1 Table-I shape issues by
/// a stretch jump, pinned as lower bounds (the counts are deterministic),
/// and the promise checks per jump, pinned just above today's (4.04 at
/// StepStone-DV, 1.12 at -BG; 5.50 and 3.01 while every check looked ahead
/// span by span and asked again right after each jump).
#[test]
fn table1_shape_jump_shares() {
    let _serial = counter_lock();
    let spec = GemmSpec::new(1024, 4096, 1);
    let base = sys(None, false);
    for (level, share, checks) in [(PimLevel::Device, 0.85, 4.5), (PimLevel::BankGroup, 0.80, 1.5)] {
        let opts = SimOptions::stepstone(level);
        let ctx = GemmContext::build(&base, &spec, &opts);
        let mut ts = TimingState::new(base.dram);
        let mut bus = CommandBus::new(base.dram.geom.channels as usize);
        let mut units = kernel_units(&ctx, &base, &opts, 0, true);
        run_phase_auto(&mut ts, &mut bus, &ctx.mapping, &mut units, None, false);
        let mut jumped = Jumped::default();
        jumped.add(&units);
        let jumped = jumped.blocks();
        let got = jumped as f64 / ts.stats.accesses() as f64;
        assert!(got >= share, "{level:?}: jumped {jumped} of {} blocks", ts.stats.accesses());
        let mut done = CheckCounts::default();
        units.iter().for_each(|u| done.add(&u.checks));
        let per_jump = done.total() as f64 / done.jumped as f64;
        assert!(per_jump < checks, "{level:?}: {per_jump:.2} checks per jump ({done:?})");
    }
}

/// A source that pulls one request from each of a few channel-0 blocks.
struct Trickle(u32);

impl TrafficSource for Trickle {
    fn next_req(&mut self) -> Option<TrafficReq> {
        self.0 = self.0.checked_sub(1)?;
        Some(TrafficReq { pa: 64 * (self.0 as u64 + 1), write: false, gap: 50 })
    }
}

/// The kernel jumps stay off where their grant does not hold: under trace
/// (above), refresh, colocated traffic, a subset remap, eCHO's per-row
/// launches, and in a fused round, where a transfer cursor shares the
/// phase — the verified periods of StepStone-DV and the single-key
/// stretches of StepStone-BG alike.
#[test]
fn jump_stays_off_without_its_grant() {
    let _serial = counter_lock();
    for level in [PimLevel::Device, PimLevel::BankGroup] {
        stays_off_without_grant(level);
    }
}

fn stays_off_without_grant(level: PimLevel) {
    let spec = GemmSpec::new(256, 4096, 1);
    let base = sys(None, false);
    let opts = SimOptions::stepstone(level);
    let ctx = GemmContext::build(&base, &spec, &opts);
    let jumped = |units: &[UnitCursor]| {
        let mut j = Jumped::default();
        j.add(units);
        j.blocks()
    };
    let fresh = |dram: DramConfig| (TimingState::new(dram), CommandBus::new(2));

    let (mut ts, mut bus) = fresh(DramConfig::default());
    let mut units = kernel_units(&ctx, &base, &opts, 0, true);
    run_phase_auto(&mut ts, &mut bus, &ctx.mapping, &mut units, None, false);
    assert!(jumped(&units) > 0, "the granted arm jumps");

    let (mut ts, mut bus) = fresh(DramConfig { refresh: true, ..DramConfig::default() });
    let mut units = kernel_units(&ctx, &base, &opts, 0, true);
    run_phase_auto(&mut ts, &mut bus, &ctx.mapping, &mut units, None, false);
    assert_eq!(jumped(&units), 0, "refresh");

    let (mut ts, mut bus) = fresh(DramConfig::default());
    let mut src = Trickle(64);
    let mut traffic = TrafficCursor::new(&mut src, 0);
    let mut units = kernel_units(&ctx, &base, &opts, 0, true);
    run_phase_auto(&mut ts, &mut bus, &ctx.mapping, &mut units, Some(&mut traffic), false);
    assert_eq!(jumped(&units), 0, "colocated traffic");

    let (mut ts, mut bus) = fresh(DramConfig::default());
    let remap = SubsetRemap { dropped_masks: vec![], bg_bits: 0, row_bits: 16 };
    let mut units: Vec<UnitCursor> = (0..ctx.active_pims.len())
        .map(|pix| {
            let mut u = UnitCursor::from_source(
                "pim",
                ctx.pim_channel(ctx.active_pims[pix]),
                opts.level_cfg.port(),
                KernelStream::new(&ctx, &base, &opts, pix),
                0,
                opts.level_cfg.compute_cycles_per_block(ctx.n),
                opts.level_cfg.simd_ops_per_block(ctx.n),
                opts.level_cfg.pipeline_depth as usize,
                base.launch.slots_for(opts.granularity),
                base.launch.launch_latency,
                base.dram.timing.t_bl,
                Some(remap.clone()),
            );
            u.exclusive = true;
            u
        })
        .collect();
    run_phase_auto(&mut ts, &mut bus, &ctx.mapping, &mut units, None, false);
    assert_eq!(jumped(&units), 0, "subset remap");

    let echo = SimOptions::echo(level);
    let echo_ctx = GemmContext::build(&base, &spec, &echo);
    let (mut ts, mut bus) = fresh(DramConfig::default());
    let mut units = kernel_units(&echo_ctx, &base, &echo, 0, true);
    run_phase_auto(&mut ts, &mut bus, &echo_ctx.mapping, &mut units, None, false);
    assert_eq!(jumped(&units), 0, "eCHO");

    let (mut ts, mut bus) = fresh(DramConfig::default());
    let mut units = kernel_units(&ctx, &base, &opts, 0, true);
    units.extend(transfer_cursors(&ctx, &ctx.b_regions, true, Phase::Localization, 0, 0));
    run_phase_auto(&mut ts, &mut bus, &ctx.mapping, &mut units, None, false);
    assert_eq!(jumped(&units), 0, "fused round");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Random Table-I-like shapes at StepStone-DV and -BG, unpaged and
    // under 4 KiB fragmented paging, serial and sharded, from random start
    // times: the jump must match both references wherever it fires.
    #[test]
    fn random_shapes_match_both_references(
        dv in any::<bool>(),
        m_log in 7u32..10,
        k_log in 9u32..13,
        n_log in 0u32..4,
        paged in any::<bool>(),
        parallel in any::<bool>(),
        start in 0u64..5000,
    ) {
        let _serial = counter_lock();
        let level = if dv { PimLevel::Device } else { PimLevel::BankGroup };
        let spec = GemmSpec::new(1 << m_log, 1 << k_log, 1 << n_log);
        check(&sys(paged.then_some(4096), parallel), spec, level, start);
    }
}
