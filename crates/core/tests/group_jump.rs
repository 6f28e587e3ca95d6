//! Differential suite of the cell-group jump.
//!
//! The units of a rank check, at each group boundary of the rank's first
//! unit, whether the rank stands where it stood one group earlier, shifted
//! in time and with its rows renamed, and then jump every unit of the rank
//! and its timing state several groups at once (`UnitCursor::group_blocks`
//! counts the blocks). Two references check it:
//!
//! * the same phase over sources without group structure, so run
//!   admission, run tails and stretch checks are unchanged but no group
//!   jumps — everything must match, run counters included;
//! * the same phase on a trace-enabled backend, where every block goes
//!   through the per-block FR-FCFS path — everything but the run counters
//!   must match.
//!
//! Each run is a kernel phase followed by an identical phase from its end,
//! which would expose any wrongly shifted bank, path or unit state. One
//! shape runs with a four-times longer tFAW, so that the rank's shared ACT
//! window decides ACTs inside the jumped groups.

use stepstone_addr::agen::{agen_counters, reset_agen_counters};
use stepstone_addr::PimLevel;
use stepstone_core::engine::{
    reset_run_counters, run_counters, run_phase_auto, RunCounters, Step, StepSource, UnitCursor,
};
use stepstone_core::flow::{GemmContext, KernelStream};
use stepstone_core::{simulate_gemm_opt, GemmSpec, SimOptions, SystemConfig};
use stepstone_dram::{CommandBus, DramConfig, DramStats, TimingParams, TimingState};

/// The run and AGEN counters are process-global: tests reading them
/// serialize.
fn counter_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A kernel stream without group structure: hints, admitted runs and
/// round promises pass through, so only the group jump is missing.
struct NoGroups<S>(S);

impl<S: Iterator<Item = Step>> Iterator for NoGroups<S> {
    type Item = Step;

    fn next(&mut self) -> Option<Step> {
        self.0.next()
    }
}

impl<S: StepSource> StepSource for NoGroups<S> {
    fn run_hint(&self) -> u64 {
        self.0.run_hint()
    }

    fn take_run(&mut self, n: u64) -> u64 {
        self.0.take_run(n)
    }

    fn round_hint(&mut self, min_rounds: u64) -> Result<stepstone_core::engine::RoundHint, u64> {
        self.0.round_hint(min_rounds)
    }

    fn skip_rounds(&mut self, n: u64, bubble_over: u64) -> stepstone_core::engine::Skipped {
        self.0.skip_rounds(n, bubble_over)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Group-capable streams on an untraced backend: the jump may fire.
    Jump,
    /// Streams without group structure.
    NoGroups,
    /// Group-capable streams on a traced backend.
    Traced,
}

/// Everything public a kernel unit reports about its simulated state.
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

#[derive(Debug, PartialEq)]
struct PhaseOut {
    end: u64,
    units: Vec<UnitFields>,
    stats: DramStats,
    counters: RunCounters,
}

/// Run the kernel phase, then an identical phase from its end; returns
/// both and the blocks issued in group jumps.
fn run_twice(
    sys: &SystemConfig,
    ctx: &GemmContext,
    opts: &SimOptions,
    mode: Mode,
) -> ([PhaseOut; 2], u64) {
    let mut ts = TimingState::new(sys.dram);
    if mode == Mode::Traced {
        ts.enable_trace();
    }
    let mut bus = CommandBus::new(sys.dram.geom.channels as usize);
    let (mut start, mut grouped) = (0, 0);
    let mut phase = || {
        let before = ts.stats;
        reset_run_counters();
        let mut units: Vec<UnitCursor> = (0..ctx.active_pims.len())
            .map(|pix| {
                let steps = KernelStream::new(ctx, sys, opts, pix);
                let steps: Box<dyn StepSource + Send> = match mode {
                    Mode::NoGroups => Box::new(NoGroups(steps)),
                    _ => Box::new(steps),
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
            .collect();
        let end = run_phase_auto(&mut ts, &mut bus, &ctx.mapping, &mut units, None, sys.parallel);
        start = end;
        grouped += units.iter().map(|u| u.group_blocks).sum::<u64>();
        PhaseOut {
            end,
            units: units.iter().map(fields).collect(),
            stats: ts.stats.delta(&before),
            counters: run_counters(),
        }
    };
    ([phase(), phase()], grouped)
}

fn bg(m: usize, k: usize, n: usize, dram: DramConfig) -> (SystemConfig, GemmContext, SimOptions) {
    let sys = SystemConfig { parallel: false, ..SystemConfig::default() }.with_dram(dram);
    let opts = SimOptions::stepstone(PimLevel::BankGroup);
    let ctx = GemmContext::build(&sys, &GemmSpec::new(m, k, n), &opts);
    (sys, ctx, opts)
}

/// DDR4 with a four-times longer tFAW: four ACTs of a rank then span more
/// than a cell's A-walk, so the shared ACT window decides ACTs.
fn long_faw() -> DramConfig {
    let d = DramConfig::default();
    DramConfig { timing: TimingParams { t_faw: 4 * d.timing.t_faw, ..d.timing }, ..d }
}

/// Each shape's jumping kernel phases against the group-free and the
/// traced references.
#[test]
fn group_jumps_match_both_references() {
    let _serial = counter_lock();
    let shapes = [
        ((1024, 2048, 128), DramConfig::default()),
        ((512, 2048, 256), DramConfig::default()),
        ((1024, 2048, 128), long_faw()),
    ];
    for ((m, k, n), dram) in shapes {
        let (sys, ctx, opts) = bg(m, k, n, dram);
        let (jump, grouped) = run_twice(&sys, &ctx, &opts, Mode::Jump);
        let (plain, none) = run_twice(&sys, &ctx, &opts, Mode::NoGroups);
        let (traced, _) = run_twice(&sys, &ctx, &opts, Mode::Traced);
        let what = format!("{m}x{k}x{n} tFAW {}", dram.timing.t_faw);
        assert!(grouped > 0, "{what}: no group jumped");
        assert_eq!(none, 0, "{what}: the group-free reference jumped");
        assert_eq!(jump, plain, "{what}: group jumps vs the group-free reference");
        for (j, t) in jump.iter().zip(&traced) {
            assert_eq!((j.end, &j.units, j.stats), (t.end, &t.units, t.stats), "{what}: vs traced");
        }
    }
    // The longer tFAW changes the kernel's timing: its ACT window binds.
    let (sys, ctx, opts) = bg(1024, 2048, 128, DramConfig::default());
    let (base, _) = run_twice(&sys, &ctx, &opts, Mode::Jump);
    let (sys, ctx, opts) = bg(1024, 2048, 128, long_faw());
    let (faw, _) = run_twice(&sys, &ctx, &opts, Mode::Jump);
    assert!(faw[0].end > base[0].end, "tFAW does not bind the kernel");
}

/// A jump reads each unit's stream ahead in copies of it, which yield the
/// spans of the groups it skips, and re-reads the last group: each span
/// still counts once in the process-wide AGEN counters, as in the
/// group-free run (both over the warm skeleton cache).
#[test]
fn group_jumps_count_each_span_once() {
    let _serial = counter_lock();
    let (sys, ctx, opts) = bg(1024, 2048, 128, DramConfig::default());
    run_twice(&sys, &ctx, &opts, Mode::NoGroups);
    let counted = |mode| {
        reset_agen_counters();
        let (_, grouped) = run_twice(&sys, &ctx, &opts, mode);
        (agen_counters(), grouped)
    };
    let (plain, _) = counted(Mode::NoGroups);
    let (jump, grouped) = counted(Mode::Jump);
    assert!(grouped > 0, "no group jumped");
    assert!(plain.replayed_spans > 0, "no span counted");
    assert_eq!(jump, plain, "AGEN counters of the jumping run vs the group-free run");
}

/// Every `LatencyReport` field of a whole pass, serial and sharded,
/// equals the traced pass's.
#[test]
fn group_jump_reports_match_the_traced_pass() {
    let _serial = counter_lock();
    let spec = GemmSpec::new(1024, 2048, 128);
    let opts = SimOptions::stepstone(PimLevel::BankGroup);
    let sys = |parallel, trace| SystemConfig { parallel, trace, ..SystemConfig::default() };
    let traced = simulate_gemm_opt(&sys(false, true), &spec, &opts, None);
    for parallel in [false, true] {
        let r = simulate_gemm_opt(&sys(parallel, false), &spec, &opts, None);
        assert_eq!(r, traced, "parallel {parallel}");
    }
}

/// Most of a StepStone-BG kernel with several groups per row part goes in
/// group jumps, on the serial and the sharded engine.
#[test]
fn group_jumps_carry_most_of_a_bg_kernel() {
    let _serial = counter_lock();
    for parallel in [false, true] {
        let (mut sys, ctx, opts) = bg(1024, 2048, 128, DramConfig::default());
        sys.parallel = parallel;
        let ([first, _], grouped) = run_twice(&sys, &ctx, &opts, Mode::Jump);
        let blocks = 2 * first.stats.accesses();
        let share = grouped as f64 / blocks as f64;
        assert!(
            share >= 0.40,
            "parallel {parallel}: {:.1}% of blocks in group jumps",
            100.0 * share
        );
    }
}
