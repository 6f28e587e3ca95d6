//! Prior main-memory PIM approaches compared in the paper: PEI (Ahn et al.)
//! and naive Chopim (Cho et al.), §IV "Comparisons".
//!
//! Both run on the *same* PIM hardware (Fig. 3) — only the
//! localization/reduction mechanism and the kernel granularity differ:
//!
//! * **PEI** processes one cache block per host-issued command packet; the
//!   command bus caps PIM throughput, which is why "using more PIMs with
//!   PEI only increases overhead" (§V-B).
//! * **nCHO** executes the GEMM as N independent GEMV kernels over aligned
//!   vectors: the weight matrix streams once *per batch column*, B vectors
//!   replicate to every active PIM, and per-PIM partial results cover all M
//!   rows — the missed-locality baseline motivating StepStone's grouping.
//!
//! The *enhanced* Chopim (eCHO) shares StepStone's flow and lives in
//! [`crate::flow`] (per-dot-product granularity + host-mediated copies).

use crate::config::SystemConfig;
use crate::engine::{run_phase_auto, Step, TrafficCursor, UnitCursor};
use crate::flow::{chain_pow2, fresh_memory, GemmContext, SimOptions};
use crate::gemm::GemmSpec;
use crate::report::{ActivityCounts, LatencyReport, Phase};
use stepstone_addr::{PimLevel, RegionPlan, StepStoneAgen};
use stepstone_dram::{CommandBus, TimingState, TrafficSource};
use stepstone_pim::{KernelGranularity, LocalizationMode, PimLevelConfig};

const HOST_COPY_GAP: u64 = 4;

/// Simulate PEI execution of one GEMM at the given PIM level.
pub fn simulate_pei(
    sys: &SystemConfig,
    spec: &GemmSpec,
    level: PimLevel,
    traffic: Option<&mut dyn TrafficSource>,
) -> LatencyReport {
    let opts = SimOptions {
        level_cfg: PimLevelConfig::nominal(level),
        granularity: KernelGranularity::PerCacheBlock,
        subset_drop_bits: 0,
        localization: Some(LocalizationMode::HostMediated { gap_cycles: HOST_COPY_GAP }),
    };
    chain_pow2(sys, spec, format!("PEI-{}", level.tag()), traffic, |sub, traffic| {
        let ctx = GemmContext::build(sys, sub, &opts);
        let (mut ts, mut bus) = fresh_memory(sys);
        let mut tcur = traffic.map(|t| TrafficCursor::new(t, 0));
        simulate_pei_engine(&mut ts, &mut bus, sys, &opts, tcur.as_mut(), &ctx)
    })
}

fn simulate_pei_engine(
    ts: &mut TimingState,
    bus: &mut CommandBus,
    sys: &SystemConfig,
    opts: &SimOptions,
    mut tcur: Option<&mut TrafficCursor>,
    ctx: &GemmContext,
) -> LatencyReport {
    let mut report = LatencyReport::default();

    // The CPU writes B operand panels into PIM scratchpads over the channel.
    let mut loc = crate::flow::transfer_cursors(
        ctx,
        &ctx.b_regions,
        true,
        Phase::Localization,
        0,
        HOST_COPY_GAP,
    );
    let loc_end = run_phase_auto(ts, bus, &ctx.mapping, &mut loc, tcur.as_deref_mut(), sys.parallel);
    report.add_phase(Phase::Localization, loc_end);

    // Kernel: one command packet per cache block, in plain address order
    // (the host performs address generation; no PIM-side AGEN). The packet
    // stream is generated lazily straight off the AGEN walk, replayed
    // through the span-program cache.
    let mut units: Vec<UnitCursor> = ctx
        .active_pims
        .iter()
        .map(|&pim| {
            let steps = StepStoneAgen::new(ctx.ga.pim_constraints(pim), ctx.layout.base, ctx.layout.end())
                .span_program()
                .steps()
                .flat_map(|s| {
                    [
                        Step::Launch,
                        Step::Access {
                            pa: s.pa,
                            write: false,
                            cat: Phase::Gemm,
                            agen_iters: 0,
                            compute: true,
                        },
                    ]
                });
            let mut u = UnitCursor::new(
                "pei",
                ctx.pim_channel(pim),
                opts.level_cfg.port(),
                steps,
                loc_end,
                opts.level_cfg.compute_cycles_per_block(ctx.n),
                opts.level_cfg.simd_ops_per_block(ctx.n),
                opts.level_cfg.pipeline_depth as usize,
                sys.launch.slots_per_pei_packet,
                sys.launch.launch_latency,
                sys.dram.timing.t_bl,
                None,
            );
            // PEI instruction packets stream back-to-back from the host.
            u.pipelined_launch = true;
            u
        })
        .collect();
    let kernel_end = run_phase_auto(ts, bus, &ctx.mapping, &mut units, tcur.as_deref_mut(), sys.parallel);
    let mut activity = ActivityCounts::default();
    for u in &units {
        report.phase_cycles[Phase::Gemm.index()] =
            report.phase_cycles[Phase::Gemm.index()].max(u.cat_cycles[Phase::Gemm.index()]);
        activity.simd_ops += u.simd_ops;
        activity.scratchpad_accesses += u.scratch_accesses;
        activity.launches += u.launches;
    }

    // The CPU reads back partial C from scratchpads.
    let mut red = crate::flow::transfer_cursors(
        ctx,
        &ctx.c_regions,
        false,
        Phase::Reduction,
        kernel_end,
        HOST_COPY_GAP,
    );
    let red_end = run_phase_auto(ts, bus, &ctx.mapping, &mut red, tcur, sys.parallel);
    report.add_phase(Phase::Reduction, red_end - kernel_end);
    report.total = red_end;
    report.dram = *ts.stats();
    report.activity = activity;
    report
}

/// Simulate naive Chopim (nCHO): the GEMM as N GEMV kernels.
pub fn simulate_ncho(
    sys: &SystemConfig,
    spec: &GemmSpec,
    level: PimLevel,
    traffic: Option<&mut dyn TrafficSource>,
) -> LatencyReport {
    let opts = SimOptions::stepstone(level);
    chain_pow2(sys, spec, format!("nCHO-{}", level.tag()), traffic, |sub, traffic| {
        // Context only provides the mapping/layout/partition algebra; nCHO
        // carves its own vector regions.
        let ctx = GemmContext::build(sys, sub, &opts);
        let (mut ts, mut bus) = fresh_memory(sys);
        let mut tcur = traffic.map(|t| TrafficCursor::new(t, 0));
        simulate_ncho_engine(&mut ts, &mut bus, sys, sub, &opts.level_cfg, tcur.as_mut(), &ctx)
    })
}

fn simulate_ncho_engine(
    ts: &mut TimingState,
    bus: &mut CommandBus,
    sys: &SystemConfig,
    spec: &GemmSpec,
    cfg: &PimLevelConfig,
    mut tcur: Option<&mut TrafficCursor>,
    ctx: &GemmContext,
) -> LatencyReport {
    let mut report = LatencyReport::default();

    // Per-PIM vector regions: b (K f32, fully replicated — "requires copies
    // across PIM units to ensure all data is local", §II) and y (M f32 of
    // partials — no grouping means every PIM touches every output row).
    let b_blocks = (spec.k as u64 * 4).div_ceil(64);
    let y_blocks = (spec.m as u64 * 4).div_ceil(64);
    let carve = |pim: u32, arena: u64, count: u64| -> RegionPlan {
        RegionPlan::carve(ctx.ga.pim_constraints(pim), arena, count)
    };
    let b_regions: Vec<RegionPlan> = ctx
        .active_pims
        .iter()
        .map(|&p| carve(p, sys.buffer_base, b_blocks))
        .collect();
    let y_regions: Vec<RegionPlan> = ctx
        .active_pims
        .iter()
        .map(|&p| carve(p, sys.buffer_base + (1 << 31), y_blocks))
        .collect();

    let mut activity = ActivityCounts::default();
    let mut t = 0u64;
    for _gemv in 0..spec.n {
        // Localize b_j to every PIM (host-mediated).
        let mut loc = crate::flow::transfer_cursors(
            ctx,
            &b_regions,
            true,
            Phase::Localization,
            t,
            HOST_COPY_GAP,
        );
        let loc_end = run_phase_auto(ts, bus, &ctx.mapping, &mut loc, tcur.as_deref_mut(), sys.parallel);
        report.add_phase(Phase::Localization, loc_end - t);

        // GEMV kernel per PIM: fill b, stream all local A blocks, drain y —
        // all three sections chained lazily.
        let mut units: Vec<UnitCursor> = ctx
            .active_pims
            .iter()
            .enumerate()
            .map(|(pix, &pim)| {
                let cs = ctx.ga.pim_constraints(pim);
                let fill_b = b_regions[pix].iter().map(|pa| Step::Access {
                    pa,
                    write: false,
                    cat: Phase::FillB,
                    agen_iters: 1,
                    compute: false,
                });
                // Chopim's aligned-vector walk: sequential within the
                // partition; no per-block AGEN cost. (Replayed spans keep
                // the N-fold re-walk of A cheap on the simulator side.)
                let gemv = StepStoneAgen::new(cs, ctx.layout.base, ctx.layout.end())
                    .span_program()
                    .steps()
                    .map(|s| Step::Access {
                        pa: s.pa,
                        write: false,
                        cat: Phase::Gemm,
                        agen_iters: 1,
                        compute: true,
                    });
                let drain_y = y_regions[pix].iter().map(|pa| Step::Access {
                    pa,
                    write: true,
                    cat: Phase::DrainC,
                    agen_iters: 1,
                    compute: false,
                });
                let steps = std::iter::once(Step::Launch).chain(fill_b).chain(gemv).chain(drain_y);
                UnitCursor::new(
                    "ncho",
                    ctx.pim_channel(pim),
                    cfg.port(),
                    steps,
                    loc_end,
                    cfg.compute_cycles_per_block(1),
                    cfg.simd_ops_per_block(1),
                    cfg.pipeline_depth as usize,
                    sys.launch.slots_per_launch,
                    sys.launch.launch_latency,
                    sys.dram.timing.t_bl,
                    None,
                )
            })
            .collect();
        let kernel_end = run_phase_auto(ts, bus, &ctx.mapping, &mut units, tcur.as_deref_mut(), sys.parallel);
        for u in &units {
            for p in [Phase::Gemm, Phase::FillB, Phase::DrainC] {
                let i = p.index();
                report.phase_cycles[i] += u.cat_cycles[i] / ctx.active_pims.len() as u64;
            }
            activity.simd_ops += u.simd_ops;
            activity.scratchpad_accesses += u.scratch_accesses;
            activity.launches += u.launches;
        }

        // Reduce y across all PIMs (host-mediated).
        let mut red = crate::flow::transfer_cursors(
            ctx,
            &y_regions,
            false,
            Phase::Reduction,
            kernel_end,
            HOST_COPY_GAP,
        );
        let red_end = run_phase_auto(ts, bus, &ctx.mapping, &mut red, tcur.as_deref_mut(), sys.parallel);
        report.add_phase(Phase::Reduction, red_end - kernel_end);
        t = red_end;
    }
    report.total = t;
    report.dram = *ts.stats();
    report.activity = activity;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::simulate_gemm;
    use stepstone_dram::Port;

    #[test]
    fn ncho_pays_for_missing_batch_locality() {
        // nCHO streams A once per batch column: ≈N× the weight traffic.
        let sys = SystemConfig::default();
        let spec = GemmSpec::new(512, 2048, 4);
        let stp = simulate_gemm(&sys, &spec, PimLevel::BankGroup);
        let ncho = simulate_ncho(&sys, &spec, PimLevel::BankGroup, None);
        assert!(
            ncho.total > 2 * stp.total,
            "ncho={} stp={}",
            ncho.total,
            stp.total
        );
        // A-traffic ratio ≈ N.
        let port = Port::BgInternal.index();
        let ratio =
            ncho.dram.reads_by_port[port] as f64 / stp.dram.reads_by_port[port] as f64;
        assert!(ratio > 2.5, "A re-read ratio = {ratio}");
    }

    #[test]
    fn pei_collapses_at_bank_group_level() {
        // §V-B: PEI cannot feed 16 BG PIMs through the command bus, so
        // "using more PIMs with PEI only increases overhead".
        let sys = SystemConfig::default();
        let spec = GemmSpec::new(512, 2048, 4);
        let stp_bg = simulate_gemm(&sys, &spec, PimLevel::BankGroup);
        let stp_dv = simulate_gemm(&sys, &spec, PimLevel::Device);
        let pei_bg = simulate_pei(&sys, &spec, PimLevel::BankGroup, None);
        let pei_dv = simulate_pei(&sys, &spec, PimLevel::Device, None);
        assert!(
            pei_bg.total as f64 > 1.5 * stp_bg.total as f64,
            "pei={} stp={}",
            pei_bg.total,
            stp_bg.total
        );
        // StepStone gains substantially from 4× the PIM units; PEI gains
        // almost nothing (command-bandwidth-bound).
        let stp_gain = stp_dv.total as f64 / stp_bg.total as f64;
        let pei_gain = pei_dv.total as f64 / pei_bg.total as f64;
        assert!(stp_gain > 1.4, "stp gain {stp_gain}");
        assert!(pei_gain < 1.25, "pei gain {pei_gain}");
    }

    #[test]
    fn baselines_slower_than_stepstone_end_to_end() {
        let sys = SystemConfig::default();
        let spec = GemmSpec::new(1024, 4096, 4);
        let stp = simulate_gemm(&sys, &spec, PimLevel::BankGroup).total;
        let echo = crate::flow::simulate_gemm_opt(
            &sys,
            &spec,
            &SimOptions::echo(PimLevel::BankGroup),
            None,
        )
        .total;
        let ncho = simulate_ncho(&sys, &spec, PimLevel::BankGroup, None).total;
        let pei = simulate_pei(&sys, &spec, PimLevel::BankGroup, None).total;
        assert!(stp < echo && echo < ncho, "stp={stp} echo={echo} ncho={ncho}");
        assert!(stp < pei, "stp={stp} pei={pei}");
    }
}
