//! Frozen copy of the *seed* simulation path — materialize-then-replay with
//! the seed's execution engine — used as the benchmark baseline for
//! `bench_sim` / `BENCH_sim.json`.
//!
//! The production engine in `stepstone-core` streams step programs and
//! keeps getting optimized; comparing against a live engine would hide
//! those wins (or credit them to the baseline). This module pins the seed
//! behavior instead: the `UnitCursor` below is the seed's engine verbatim
//! (modulo borrowing the shared `Step`/`SubsetRemap` types from core), the
//! step programs are fully materialized `Vec<Step>`s, and the AGEN runs the
//! seed's per-candidate GF(2) corrector (`build_kernel_program_seed`).
//! `bench_sim` cross-checks cycle-exactness between this replayer and the
//! streaming engine on every run.
//!
//! Cost-basis note (PR 2): `GemmContext` now carves regions as lazy
//! `RegionPlan`s, so the seed's original materialize-everything carve no
//! longer happens inside `GemmContext::build`. The replay re-pays the
//! seed's carve price here — `transfer_programs` materializes every region
//! through the seed-era `StepStoneAgen` walk
//! ([`stepstone_addr::RegionPlan::materialize_seed`]) — but the kernel
//! programs' fill/drain addresses are generated through the production
//! region cursors (address-identical; single-digit-% of baseline wall
//! time). PR-2-and-later speedup numbers therefore sit on a slightly
//! different baseline measurement than PR 1's 2.24×; compare within a
//! basis, not across.

use std::collections::VecDeque;
use stepstone_addr::{DramCoord, XorMapping};
use stepstone_core::engine::{Step, SubsetRemap};
use stepstone_core::flow::{build_kernel_program_seed, GemmContext};
use stepstone_core::{GemmSpec, LatencyReport, Phase, SimOptions, SystemConfig};
use stepstone_dram::{CasKind, CommandBus, Port, TimingState};

/// The PIM-subset remap (§III-E) of `ctx`'s dropped ID bits, built the way
/// the production flow builds it (`None` when no bits are dropped).
fn subset_remap_for(
    ctx: &GemmContext,
    sys: &SystemConfig,
    opts: &SimOptions,
) -> Option<SubsetRemap> {
    let kept = ctx.ga.id_masks.len();
    (opts.subset_drop_bits > 0).then(|| SubsetRemap {
        dropped_masks: opts.level_cfg.level.id_masks(&ctx.mapping)[kept..].to_vec(),
        bg_bits: sys.dram.geom.bankgroup_bits(),
        row_bits: sys.dram.geom.row_bits(),
    })
}

/// Remap helper mirroring the seed engine's `SubsetRemap::remap` (private
/// in core).
fn subset_remap(su: &SubsetRemap, mut c: DramCoord, pa: u64) -> DramCoord {
    for (i, &mask) in su.dropped_masks.iter().enumerate() {
        let parity = (pa & mask).count_ones() & 1;
        let bg_bit = su.bg_bits - 1 - i as u32;
        c.bankgroup &= !(1 << bg_bit);
        c.row ^= parity << (su.row_bits + i as u32);
    }
    c
}

#[derive(Debug, Clone, Copy)]
struct WinEntry {
    coord: DramCoord,
    write: bool,
    cat: Phase,
    compute: bool,
    gen_ready: u64,
}

/// The seed's execution engine: a cursor over a pre-built `Vec<Step>`.
pub struct SeedUnitCursor {
    pub channel: u32,
    pub port: Port,
    steps: std::vec::IntoIter<Step>,
    peeked: Option<Step>,
    window: VecDeque<WinEntry>,
    window_cap: usize,
    gen_clock: u64,
    pub not_before: u64,
    simd_free: u64,
    inflight: VecDeque<u64>,
    launch_avail: u64,
    launch_req: u64,
    pending_kernel_start: bool,
    clock: u64,
    pub cat_cycles: [u64; 8],
    pub end_time: u64,
    compute_cycles_per_block: u64,
    simd_ops_per_block: u64,
    pipeline_depth: usize,
    launch_slots: u64,
    launch_latency: u64,
    pub pipelined_launch: bool,
    burst_window: u64,
    host_gap: u64,
    subset: Option<SubsetRemap>,
    pub launches: u64,
    pub simd_ops: u64,
    pub scratch_accesses: u64,
    pub agen_iter_sum: u64,
    pub agen_iter_max: u32,
    pub agen_bubbles: u64,
}

impl SeedUnitCursor {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        channel: u32,
        port: Port,
        steps: Vec<Step>,
        start: u64,
        compute_cycles_per_block: u64,
        simd_ops_per_block: u64,
        pipeline_depth: usize,
        launch_slots: u64,
        launch_latency: u64,
        burst_window: u64,
        subset: Option<SubsetRemap>,
    ) -> Self {
        Self {
            channel,
            port,
            steps: steps.into_iter(),
            peeked: None,
            window: VecDeque::with_capacity(8),
            window_cap: (pipeline_depth / 2).clamp(1, 8),
            gen_clock: start,
            not_before: start,
            simd_free: start,
            inflight: VecDeque::with_capacity(pipeline_depth),
            launch_avail: start,
            launch_req: start,
            pending_kernel_start: false,
            clock: start,
            cat_cycles: [0; 8],
            end_time: start,
            compute_cycles_per_block,
            simd_ops_per_block,
            pipeline_depth,
            launch_slots,
            launch_latency,
            pipelined_launch: false,
            burst_window,
            host_gap: 0,
            subset,
            launches: 0,
            simd_ops: 0,
            scratch_accesses: 0,
            agen_iter_sum: 0,
            agen_iter_max: 0,
            agen_bubbles: 0,
        }
    }

    pub fn transfer(channel: u32, port: Port, steps: Vec<Step>, start: u64, gap: u64) -> Self {
        let mut c = Self::new(channel, port, steps, start, 0, 0, 4, 0, 0, 4, None);
        c.host_gap = gap;
        c
    }

    fn peek(&mut self) -> Option<Step> {
        if self.peeked.is_none() {
            self.peeked = self.steps.next();
        }
        self.peeked
    }

    fn fill_window(&mut self, mapping: &XorMapping) {
        while self.window.len() < self.window_cap {
            match self.peek() {
                Some(Step::Access { pa, write, cat, agen_iters, compute }) => {
                    self.peeked = None;
                    self.gen_clock = self.gen_clock.max(self.not_before) + agen_iters as u64;
                    self.agen_iter_sum += agen_iters as u64;
                    self.agen_iter_max = self.agen_iter_max.max(agen_iters);
                    if agen_iters as u64 > self.burst_window {
                        self.agen_bubbles += 1;
                    }
                    let mut coord = mapping.decode(pa);
                    if let Some(su) = &self.subset {
                        coord = subset_remap(su, coord, pa);
                    }
                    self.window.push_back(WinEntry {
                        coord,
                        write,
                        cat,
                        compute,
                        gen_ready: self.gen_clock,
                    });
                }
                _ => break,
            }
        }
    }

    fn desired(&mut self, mapping: &XorMapping) -> Option<u64> {
        self.fill_window(mapping);
        if let Some(e) = self.window.front() {
            return Some(self.not_before.max(e.gen_ready));
        }
        self.peek()?;
        Some(self.not_before)
    }

    fn advance(&mut self, ts: &mut TimingState, bus: &mut CommandBus, mapping: &XorMapping) {
        self.fill_window(mapping);
        if self.window.is_empty() {
            let Some(step) = self.peeked.take().or_else(|| self.steps.next()) else {
                return;
            };
            match step {
                Step::Launch => {
                    self.launches += 1;
                    if self.launch_slots > 0 {
                        let grant =
                            bus.acquire(self.channel as usize, self.launch_req, self.launch_slots);
                        self.launch_avail = grant + self.launch_latency;
                        if self.pipelined_launch {
                            self.launch_req = grant;
                        }
                    } else {
                        self.launch_avail = self.not_before;
                    }
                    self.pending_kernel_start = !self.pipelined_launch;
                }
                Step::Access { .. } => unreachable!("fill_window consumes Access steps"),
            }
            return;
        }
        let base_nb = self.not_before.max(self.launch_avail);
        let mut best_ix = 0;
        let mut best_t = u64::MAX;
        for (i, e) in self.window.iter().enumerate() {
            let nb = base_nb.max(e.gen_ready);
            let kind = if e.write { CasKind::Write } else { CasKind::Read };
            let t = ts.probe(e.coord, kind, self.port, nb);
            if t < best_t {
                best_t = t;
                best_ix = i;
                if t <= base_nb {
                    break;
                }
            }
        }
        let e = self.window.remove(best_ix).expect("window entry");
        let mut nb = base_nb.max(e.gen_ready);
        if self.inflight.len() >= self.pipeline_depth {
            if let Some(t) = self.inflight.pop_front() {
                nb = nb.max(t);
            }
        }
        let kind = if e.write { CasKind::Write } else { CasKind::Read };
        let bt = ts.access(e.coord, kind, self.port, nb);
        if self.pending_kernel_start {
            self.pending_kernel_start = false;
            self.launch_req = bt.cas_at;
        }
        self.not_before = if self.host_gap > 0 {
            bt.cas_at + self.burst_window + self.host_gap
        } else {
            bt.cas_at
        };
        let mark = if e.compute {
            let done = self.simd_free.max(bt.data_end) + self.compute_cycles_per_block;
            self.simd_free = done;
            self.inflight.push_back(done);
            self.simd_ops += self.simd_ops_per_block;
            self.scratch_accesses += 2;
            bt.cas_at.max(self.clock)
        } else {
            self.scratch_accesses += 1;
            bt.data_end
        };
        let mark = mark.max(self.clock);
        self.cat_cycles[e.cat.index()] += mark - self.clock;
        self.clock = mark;
        self.end_time = self.end_time.max(bt.data_end).max(self.simd_free);
    }

    fn finish(&mut self) {
        if self.simd_free > self.clock {
            self.cat_cycles[Phase::Gemm.index()] += self.simd_free - self.clock;
            self.clock = self.simd_free;
        }
        self.end_time = self.end_time.max(self.clock);
    }
}

/// The seed's `run_phase`: linear scan over all units per step, against
/// the exact model.
pub fn run_phase_seed(
    ts: &mut TimingState,
    bus: &mut CommandBus,
    mapping: &XorMapping,
    units: &mut [SeedUnitCursor],
) -> u64 {
    loop {
        let mut best: Option<(usize, u64)> = None;
        for (i, u) in units.iter_mut().enumerate() {
            if let Some(t) = u.desired(mapping) {
                if best.is_none_or(|(_, bt)| t < bt) {
                    best = Some((i, t));
                }
            }
        }
        let Some((i, _)) = best else { break };
        units[i].advance(ts, bus, mapping);
    }
    let mut end = 0;
    for u in units.iter_mut() {
        u.finish();
        end = end.max(u.end_time);
    }
    end
}

/// Materialized per-channel DMA transfer programs (the seed built these
/// eagerly; one interleaved `Vec<Step>` per channel). The production path
/// streams region plans; the seed baseline faithfully materializes them.
fn transfer_programs(
    ctx: &GemmContext,
    regions: &[stepstone_addr::RegionPlan],
    write: bool,
    cat: Phase,
) -> Vec<(u32, Vec<Step>)> {
    let channels = ctx.mapping.geometry().channels;
    (0..channels)
        .map(|ch| {
            let mine: Vec<Vec<u64>> = ctx
                .active_pims
                .iter()
                .enumerate()
                .filter(|(_, &pim)| ctx.pim_channel(pim) == ch)
                .map(|(pix, _)| regions[pix].materialize_seed())
                .collect();
            let longest = mine.iter().map(|r| r.len()).max().unwrap_or(0);
            let mut steps = Vec::new();
            for j in 0..longest {
                for r in &mine {
                    if let Some(&pa) = r.get(j) {
                        steps.push(Step::Access { pa, write, cat, agen_iters: 1, compute: false });
                    }
                }
            }
            (ch, steps)
        })
        .collect()
}

/// End-to-end seed-path simulation of one power-of-two GEMM: materialize
/// every program (seed AGEN corrector included), then replay on the seed
/// engine. Returns the same `LatencyReport` shape as the production path.
pub fn simulate_pow2_gemm_seed(
    sys: &SystemConfig,
    spec: &GemmSpec,
    opts: &SimOptions,
) -> LatencyReport {
    let ctx = GemmContext::build(sys, spec, opts);
    let mut ts = TimingState::new(sys.dram);
    let mut bus = CommandBus::new(sys.dram.geom.channels as usize);
    let loc_mode = opts.localization.unwrap_or(sys.localization);
    let mut report = LatencyReport { clock_hz: sys.dram.clock_hz, ..Default::default() };

    let gap = loc_mode.inter_block_gap();
    let mut loc: Vec<SeedUnitCursor> =
        transfer_programs(&ctx, &ctx.b_regions, true, Phase::Localization)
            .into_iter()
            .map(|(ch, steps)| SeedUnitCursor::transfer(ch, Port::Channel, steps, 0, gap))
            .collect();
    let loc_end = run_phase_seed(&mut ts, &mut bus, &ctx.mapping, &mut loc);
    report.add_phase(Phase::Localization, loc_end);

    let remap = subset_remap_for(&ctx, sys, opts);
    let mut units: Vec<SeedUnitCursor> = (0..ctx.active_pims.len())
        .map(|pix| {
            let steps: Vec<Step> = build_kernel_program_seed(&ctx, sys, opts, pix);
            SeedUnitCursor::new(
                ctx.pim_channel(ctx.active_pims[pix]),
                opts.level_cfg.port(),
                steps,
                loc_end,
                opts.level_cfg.compute_cycles_per_block(ctx.n),
                opts.level_cfg.simd_ops_per_block(ctx.n),
                opts.level_cfg.pipeline_depth as usize,
                sys.launch.slots_for(opts.granularity),
                sys.launch.launch_latency,
                sys.dram.timing.t_bl,
                remap.clone(),
            )
        })
        .collect();
    run_phase_seed(&mut ts, &mut bus, &ctx.mapping, &mut units);
    for u in &units {
        for p in [Phase::Gemm, Phase::FillB, Phase::FillC, Phase::DrainC, Phase::Launch] {
            let i = p.index();
            report.phase_cycles[i] = report.phase_cycles[i].max(u.cat_cycles[i]);
        }
        report.activity.simd_ops += u.simd_ops;
        report.activity.scratchpad_accesses += u.scratch_accesses;
        report.activity.launches += u.launches;
        report.activity.agen_iterations += u.agen_iter_sum;
        report.activity.agen_max_step = report.activity.agen_max_step.max(u.agen_iter_max);
        report.activity.agen_bubbles += u.agen_bubbles;
    }

    let kernel_end = units.iter().map(|u| u.end_time).max().unwrap_or(loc_end);
    let mut red: Vec<SeedUnitCursor> =
        transfer_programs(&ctx, &ctx.c_regions, false, Phase::Reduction)
            .into_iter()
            .map(|(ch, steps)| SeedUnitCursor::transfer(ch, Port::Channel, steps, kernel_end, gap))
            .collect();
    let red_end = run_phase_seed(&mut ts, &mut bus, &ctx.mapping, &mut red);
    report.add_phase(Phase::Reduction, red_end - kernel_end);

    report.total = red_end;
    report.dram = ts.stats;
    report
}
