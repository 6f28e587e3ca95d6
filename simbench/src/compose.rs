//! The traced run's GEMM and pass-cost paths, re-composed from each
//! layer's public calls so a span can sit at every layer boundary.
//!
//! [`traced_gemm`] follows `simulate_gemm_session` on the exact tier:
//! `SessionCache::context` per power-of-two sub-GEMM, then localization
//! (`transfer_cursors` + `run_phase_auto`), the kernels (`KernelStream`,
//! wrapped in `PagedSteps` under a stream-affecting page map, driven by
//! `UnitCursor` + `run_phase_auto`) and reduction. [`traced_pass_cost`]
//! follows `ModelExecutor::pass_cost` on the analytic tier:
//! `choose_backend` → `options_for` → `SessionCache::context` →
//! `simulate_pow2_gemm_ctx`. Both must reproduce the one-call path
//! exactly; the harness counts an op as failed when they differ.

use crate::trace::Tracer;
use std::collections::HashMap;
use stepstone_core::engine::{
    reset_run_counters, run_counters, run_phase_auto, RunCounters, StepSource, UnitCursor,
};
use stepstone_core::flow::{transfer_cursors, KernelStream};
use stepstone_core::{
    choose_backend, options_for, simulate_pow2_gemm_ctx, Backend, CpuModel, ExecMode, GemmContext,
    GemmSpec, LatencyReport, PagedSteps, Phase, ReduceVia, SessionCache, SimOptions, SystemConfig,
};
use stepstone_dram::{BackendKind, CommandBus, MemoryBackend, TimingState};
use stepstone_models::{ModelGraph, Op};

/// Work one engine phase did: blocks moved and its run-granularity
/// counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PhaseWork {
    pub blocks: u64,
    pub rc: RunCounters,
}

impl PhaseWork {
    pub fn add(&mut self, blocks: u64, rc: &RunCounters) {
        self.blocks += blocks;
        add_counters(&mut self.rc, rc);
    }
}

pub fn add_counters(acc: &mut RunCounters, rc: &RunCounters) {
    acc.runs += rc.runs;
    acc.run_blocks += rc.run_blocks;
    for (a, b) in acc.hist.iter_mut().zip(rc.hist) {
        *a += b;
    }
    for (a, b) in acc.fallback.iter_mut().zip(rc.fallback) {
        *a += b;
    }
}

/// A re-composed GEMM: the report the one-call path would return, plus
/// the work of each engine phase (localization, kernel, reduction).
pub struct ComposedGemm {
    pub report: LatencyReport,
    pub phases: [PhaseWork; 3],
}

impl ComposedGemm {
    /// Run counters summed over the three phases (what the one-call path
    /// accumulates between a reset and a read).
    pub fn run_counters(&self) -> RunCounters {
        let mut rc = RunCounters::default();
        for p in &self.phases {
            add_counters(&mut rc, &p.rc);
        }
        rc
    }
}

/// [`stepstone_core::simulate_gemm_session`] on the exact tier, one span
/// per layer call.
pub fn traced_gemm(
    sys: &SystemConfig,
    spec: &GemmSpec,
    opts: &SimOptions,
    cache: &SessionCache,
    tr: &mut Tracer,
) -> ComposedGemm {
    assert_eq!(
        sys.backend,
        BackendKind::Exact,
        "the composed GEMM drives the exact tier"
    );
    assert_eq!(
        sys.reduce_via,
        ReduceVia::HostDma,
        "fabric reduction is not composed"
    );
    assert!(opts.subset_drop_bits == 0 && !sys.validate && !sys.trace);
    let mut out = ComposedGemm {
        report: LatencyReport {
            clock_hz: sys.dram.clock_hz,
            ..Default::default()
        },
        phases: [PhaseWork::default(); 3],
    };
    for sub in spec.decompose_pow2() {
        let ctx = tr.span("flow.session.context", |_| cache.context(sys, &sub, opts));
        let r = traced_pow2(sys, opts, &ctx, tr, &mut out.phases);
        out.report.chain(&r);
    }
    out
}

/// One power-of-two GEMM at `t0 = 0` over fresh timing state: the body
/// of `simulate_pow2_gemm_resident` for the streaming mode without
/// colocated traffic, subset remapping or fabric reduction.
fn traced_pow2(
    sys: &SystemConfig,
    opts: &SimOptions,
    ctx: &GemmContext,
    tr: &mut Tracer,
    phases: &mut [PhaseWork; 3],
) -> LatencyReport {
    let mut ts = TimingState::new(sys.dram);
    let mut bus = CommandBus::new(sys.dram.geom.channels as usize);
    let gap = opts
        .localization
        .unwrap_or(sys.localization)
        .inter_block_gap();
    let mut report = LatencyReport::default();
    let mut blocks_before = 0;
    let mut finish = |ts: &TimingState, work: &mut PhaseWork| {
        let blocks = ts.stats().accesses();
        work.add(blocks - blocks_before, &run_counters());
        blocks_before = blocks;
    };

    let id = tr.open("engine.loc");
    reset_run_counters();
    let mut loc = transfer_cursors(ctx, &ctx.b_regions, true, Phase::Localization, 0, gap);
    let loc_end = run_phase_auto(
        &mut ts,
        &mut bus,
        &ctx.mapping,
        &mut loc,
        None,
        sys.parallel,
    );
    drop(loc);
    tr.close(id);
    finish(&ts, &mut phases[0]);
    report.add_phase(Phase::Localization, loc_end);

    let id = tr.open("engine.kernel");
    reset_run_counters();
    let mut units: Vec<UnitCursor> = (0..ctx.active_pims.len())
        .map(|pix| {
            let steps = KernelStream::new(ctx, sys, opts, pix);
            let steps: Box<dyn StepSource + Send + '_> = match &ctx.page_map {
                Some(pm) if pm.affects_stream() => {
                    Box::new(PagedSteps::new(steps, pm.clone(), true))
                }
                _ => Box::new(steps),
            };
            let mut u = UnitCursor::from_source(
                "pim",
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
                None,
            );
            u.exclusive = true;
            u
        })
        .collect();
    run_phase_auto(
        &mut ts,
        &mut bus,
        &ctx.mapping,
        &mut units,
        None,
        sys.parallel,
    );
    for u in &units {
        for p in [
            Phase::Gemm,
            Phase::FillB,
            Phase::FillC,
            Phase::DrainC,
            Phase::Launch,
        ] {
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
    drop(units);
    tr.close(id);
    finish(&ts, &mut phases[1]);

    let id = tr.open("engine.red");
    reset_run_counters();
    let mut red = transfer_cursors(
        ctx,
        &ctx.c_regions,
        false,
        Phase::Reduction,
        kernel_end,
        gap,
    );
    let red_end = run_phase_auto(
        &mut ts,
        &mut bus,
        &ctx.mapping,
        &mut red,
        None,
        sys.parallel,
    );
    drop(red);
    tr.close(id);
    finish(&ts, &mut phases[2]);
    report.add_phase(Phase::Reduction, red_end - kernel_end);

    report.total = red_end;
    report.dram = *ts.stats();
    report
}

/// The PIM side of one model pass as `ModelExecutor::pass_cost` prices it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ComposedCost {
    pub pim_cycles: u64,
    pub data_cycles: u64,
    pub pim_gemms: usize,
    pub cpu_gemms: usize,
}

/// Per-GEMM selections already made, shared across the passes of one
/// executor (the executor's own memo table), plus every analytic report
/// simulated so far, chained.
#[derive(Default)]
pub struct CostMemo {
    picks: HashMap<GemmSpec, (Backend, u64, u64)>,
    pub simulated: LatencyReport,
    pub analytic_calls: u64,
}

/// [`stepstone_models::ModelExecutor::pass_cost`]'s PIM side on the
/// analytic tier, one span per layer call.
pub fn traced_pass_cost(
    asys: &SystemConfig,
    graph: &ModelGraph,
    cache: &SessionCache,
    memo: &mut CostMemo,
    tr: &mut Tracer,
) -> ComposedCost {
    assert_eq!(
        asys.backend,
        BackendKind::Analytic,
        "serving costs use the analytic tier"
    );
    let cpu = CpuModel::default();
    let mut cost = ComposedCost::default();
    for op in &graph.ops {
        let Op::Gemm(spec) = op else { continue };
        let (backend, cycles, data) = match memo.picks.get(spec) {
            Some(&hit) => hit,
            None => {
                let backend = tr.span("select", |_| choose_backend(asys, spec, &cpu));
                let pick = match backend {
                    Backend::Cpu => (backend, 0, 0),
                    Backend::Pim { .. } => {
                        let opts = options_for(backend);
                        let mut r = LatencyReport::default();
                        for sub in spec.decompose_pow2() {
                            let ctx = tr
                                .span("flow.session.context", |_| cache.context(asys, &sub, &opts));
                            let sr = tr.span("analytic.gemm", |_| {
                                simulate_pow2_gemm_ctx(
                                    asys,
                                    &sub,
                                    &opts,
                                    None,
                                    ExecMode::Streaming,
                                    &ctx,
                                    0,
                                )
                            });
                            memo.analytic_calls += 1;
                            r.chain(&sr);
                        }
                        memo.simulated.chain(&r);
                        (backend, r.total, r.dram.data_cycles)
                    }
                };
                memo.picks.insert(*spec, pick);
                pick
            }
        };
        match backend {
            Backend::Cpu => cost.cpu_gemms += 1,
            Backend::Pim { .. } => {
                cost.pim_cycles += cycles;
                cost.data_cycles += data;
                cost.pim_gemms += 1;
            }
        }
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use stepstone_addr::{PagingConfig, PimLevel};
    use stepstone_core::engine::run_counters;
    use stepstone_core::simulate_gemm_session;

    /// The engine's run counters are process-wide: tests that read them
    /// take turns.
    static COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn sys() -> SystemConfig {
        SystemConfig {
            parallel: false,
            ..SystemConfig::default()
        }
    }

    /// The re-composed path reproduces the one-call path's cycles,
    /// per-phase cycles, DRAM statistics, activity and run counters.
    fn assert_composes(sys: &SystemConfig, spec: GemmSpec, level: PimLevel) {
        let _turn = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
        let opts = SimOptions::stepstone(level);
        let cache = SessionCache::new();
        reset_run_counters();
        let one_call = simulate_gemm_session(sys, &spec, &opts, &cache, None);
        let rc = run_counters();
        let g = traced_gemm(sys, &spec, &opts, &cache, &mut Tracer::default());
        assert_eq!(g.report.total, one_call.total, "{spec:?} {level:?}");
        assert_eq!(
            g.report.phase_cycles, one_call.phase_cycles,
            "{spec:?} {level:?}"
        );
        assert_eq!(g.report.dram, one_call.dram, "{spec:?} {level:?}");
        assert_eq!(g.report.activity, one_call.activity, "{spec:?} {level:?}");
        assert_eq!(g.run_counters(), rc, "{spec:?} {level:?}");
        let blocks: u64 = g.phases.iter().map(|p| p.blocks).sum();
        assert_eq!(blocks, one_call.dram.accesses());
    }

    #[test]
    fn composed_gemm_equals_the_session_path() {
        for level in [PimLevel::BankGroup, PimLevel::Device] {
            assert_composes(&sys(), GemmSpec::new(512, 512, 32), level);
            assert_composes(&sys(), GemmSpec::new(1024, 4096, 4), level);
        }
    }

    #[test]
    fn composed_gemm_equals_the_session_path_under_paging() {
        let paged = sys().with_paging(PagingConfig::fragmented(4096, 7));
        assert_composes(&paged, GemmSpec::new(1024, 4096, 4), PimLevel::BankGroup);
    }

    #[test]
    fn composed_gemm_records_one_span_per_layer_call() {
        let _turn = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
        let mut tr = Tracer::default();
        let spec = GemmSpec::new(512, 512, 32);
        traced_gemm(
            &sys(),
            &spec,
            &SimOptions::stepstone(PimLevel::Device),
            &SessionCache::new(),
            &mut tr,
        );
        let t = tr.layer_times(0);
        for name in [
            "flow.session.context",
            "engine.loc",
            "engine.kernel",
            "engine.red",
        ] {
            assert_eq!(t[name].0, 1, "{name}");
        }
    }

    #[test]
    fn composed_pass_cost_equals_the_executor() {
        let asys = sys().with_backend(BackendKind::Analytic);
        let mut ex = stepstone_models::ModelExecutor::new(asys.clone());
        let cache = SessionCache::new();
        let mut memo = CostMemo::default();
        for graph in [stepstone_models::dlrm(4), stepstone_models::bert(2)] {
            let want = ex.pass_cost(&graph);
            let got = traced_pass_cost(&asys, &graph, &cache, &mut memo, &mut Tracer::default());
            assert_eq!(
                (
                    got.pim_cycles,
                    got.data_cycles,
                    got.pim_gemms,
                    got.cpu_gemms
                ),
                (
                    want.pim_cycles,
                    want.data_cycles,
                    want.pim_gemms,
                    want.cpu_gemms
                )
            );
        }
        assert!(memo.analytic_calls > 0);
    }
}
