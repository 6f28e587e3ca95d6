//! The closed-form analytic GEMM executor — the production path of the
//! `Analytic` memory-backend tier.
//!
//! Instead of driving the phase engine block by block, this module costs
//! each Algorithm-1 phase directly from the [`GemmContext`] aggregates
//! (per-PIM region sizes, per-cell `B` slice lengths, per-rpart resident
//! `C` blocks) using the steady-state recurrences the exact engine settles
//! into:
//!
//! * a same-(bank, row) run streams at the CAS cadence
//!   `max(tCCDL, tCCDS, tBL)` (or the SIMD's `compute_cycles_per_block`
//!   when the kernel is compute-bound),
//! * a row switch costs nothing while the row's run is long enough to
//!   cover the bank-cycle floor `tRC / banks` (ACT/PRE pipelined across
//!   the bank interleave), and the excess otherwise,
//! * DMA transfer phases stream one block per CAS slot per channel,
//!   round-robin across per-PIM regions.
//!
//! The model is *approximate by design*: command-bus slot contention,
//! FR-FCFS reordering transients, and read↔write turnarounds are not
//! modeled (they are second-order on the shapes the paper sweeps). The
//! four-activate window enters the row-switch floor (`tFAW/4` vs
//! `tRC/banks`), and refresh — when enabled — is costed as a uniform
//! `tREFI/(tREFI − tRFC)` availability stretch rather than discrete REFs.
//! The workspace root's `tests/engine_matrix.rs` pins the error band
//! against the exact tier and checks that relative latency ordering across
//! Table-I shapes is preserved; `bench_sim` commits the speedup floor.
//!
//! Only plain power-of-two passes without colocated traffic have a closed
//! form here. Every other request on the analytic tier (colocated
//! traffic, fused passes, PEI, nCHO) runs the exact engine and reports
//! exact cycles.

use crate::config::SystemConfig;
use crate::flow::{GemmContext, SimOptions};
use crate::gemm::GemmSpec;
use crate::report::{ActivityCounts, LatencyReport, Phase};
use stepstone_dram::{DramConfig, Port};
use stepstone_fabric::ReduceVia;
use stepstone_pim::KernelGranularity;

/// One streamed stage: `blocks` same-direction accesses with mean
/// same-(bank, row) run length `run`, at per-block cadence `d`.
/// Returns (cycles, row_switches).
fn stream_cycles(cfg: &DramConfig, blocks: u64, run: f64, d: u64) -> (u64, u64) {
    if blocks == 0 {
        return (0, 0);
    }
    let t = &cfg.timing;
    let rows = (blocks as f64 / run.max(1.0)).ceil() as u64;
    // ACT/PRE of the next row pipelines under the current run across the
    // bank interleave; only the shortfall against the bank-cycle floor
    // stalls the stream. The four-activate window caps ACT cadence at one
    // per tFAW/4 regardless of how many banks interleave, so the floor is
    // the max of both constraints.
    let banks = (cfg.geom.banks_per_bankgroup as u64).max(1);
    let floor = t.t_rc.div_ceil(banks).max(t.t_faw.div_ceil(4));
    let per_row = (run.max(1.0) as u64).saturating_mul(d);
    let excess = floor.saturating_sub(per_row);
    // First access of the stage opens its row.
    (t.t_rcd + t.t_cl + blocks * d + rows * excess, rows)
}

/// Cost one DMA transfer phase (localization or reduction): per-channel
/// block counts stream at the cross-bank-group CAS cadence, channels in
/// parallel. Returns (phase cycles, total blocks, per-channel cycles) —
/// the per-channel vector is each channel's own completion offset, which
/// the fabric reduce uses as injection times.
fn transfer_phase(
    sys: &SystemConfig,
    ctx: &GemmContext,
    per_pim_blocks: &[u64],
    gap: u64,
) -> (u64, u64, Vec<u64>) {
    let cfg = &sys.dram;
    let t = &cfg.timing;
    // Round-robin across regions alternates bank groups, so the stream
    // runs at tCCDS, not tCCDL; the DMA's inter-block gap binds when the
    // host mediates the transfer.
    let d = t.t_ccds.max(t.t_bl).max(gap);
    let channels = cfg.geom.channels;
    let mut per_ch = vec![0u64; channels as usize];
    for (pix, &pim) in ctx.active_pims.iter().enumerate() {
        per_ch[ctx.pim_channel(pim) as usize] += per_pim_blocks[pix];
    }
    let total: u64 = per_ch.iter().sum();
    let cycles: Vec<u64> =
        per_ch.iter().map(|&b| stream_cycles(cfg, b, 8.0, d).0).collect();
    let end = cycles.iter().copied().max().unwrap_or(0);
    (end, total, cycles)
}

/// Simulate one power-of-two GEMM in closed form (no per-command state).
pub(crate) fn execute_pow2_gemm(
    sys: &SystemConfig,
    _spec: &GemmSpec,
    opts: &SimOptions,
    ctx: &GemmContext,
) -> LatencyReport {
    let cfg = &sys.dram;
    let t = &cfg.timing;
    let cas = t.t_ccdl.max(t.t_ccds).max(t.t_bl);
    let echo = opts.granularity == KernelGranularity::PerDotProduct;
    let loc_mode = opts.localization.unwrap_or(sys.localization);
    let gap = loc_mode.inter_block_gap();
    let port = opts.level_cfg.port().index();
    let n = ctx.n;

    let mut report = LatencyReport::default();
    let mut stats = stepstone_dram::DramStats::default();
    let mut activity = ActivityCounts::default();

    // Phase 1: localization — replicate B into the per-PIM regions.
    let b_counts: Vec<u64> = ctx.b_slice_lens.iter().map(|l| l.iter().sum()).collect();
    let (loc_end, loc_blocks, _) = transfer_phase(sys, ctx, &b_counts, gap);
    report.add_phase(Phase::Localization, loc_end);
    stats.writes += loc_blocks;
    stats.writes_by_port[Port::Channel.index()] += loc_blocks;

    // Rows of each (group, rpart) cell — matrix rows, each owning
    // `cols_here` A blocks per admissible PIM.
    let rparts = ctx.plan.rparts as usize;
    let rows_by_rpart_group = &ctx.rows_by_rpart_group;

    // Phase 2: the kernel, per PIM; PIMs run in parallel on disjoint bank
    // partitions, so the phase ends at the slowest PIM.
    let d_gemm = cas.max(opts.level_cfg.compute_cycles_per_block(n));
    let simd_per_block = opts.level_cfg.simd_ops_per_block(n);
    // VA→PA paging composes analytically: a non-identity map can only
    // break a same-(bank, row) run at page crossings (within one page key
    // equality is translation-invariant), so expected boundaries add —
    // 1/L' = 1/L + 1/page_blocks — and every kernel stream pays the PTW's
    // AGEN cost once per page it touches. Identity maps leave runs alone.
    let paging = ctx.page_map.as_ref();
    let compose_run = |run: f64| match paging {
        Some(pm) if !pm.is_identity() => {
            let page_blocks = (pm.page_bytes() / stepstone_addr::BLOCK_BYTES) as f64;
            1.0 / (1.0 / run.max(1.0) + 1.0 / page_blocks)
        }
        _ => run,
    };
    let ptw_extra = |blocks: u64| match paging {
        Some(pm) if pm.ptw_cycles() > 0 && blocks > 0 => {
            let page_blocks = (pm.page_bytes() / stepstone_addr::BLOCK_BYTES).max(1);
            blocks.div_ceil(page_blocks) * pm.ptw_cycles() as u64
        }
        _ => 0,
    };
    let fill_run = |kr: &Option<stepstone_addr::KeyRuns>| {
        compose_run(kr.as_ref().map_or(cfg.geom.blocks_per_row as f64, |k| k.mean_run_len()))
    };
    let mut kernel_cycles = 0u64;
    let mut phase_max = [0u64; 8];
    for (pix, &pim) in ctx.active_pims.iter().enumerate() {
        let b_run = fill_run(&ctx.b_key_runs[pix]);
        let c_run = fill_run(&ctx.c_key_runs[pix]);
        let mut cells: Vec<(usize, u64)> = Vec::new(); // (group, b_len)
        let mut six = 0usize;
        for grp in 0..ctx.ga.n_groups() {
            if !ctx.ga.is_admissible(pim, grp) {
                continue;
            }
            for _cpart in 0..ctx.plan.cparts {
                cells.push((grp, ctx.b_slice_lens[pix][six]));
                six += 1;
            }
        }
        let mut cy = [0u64; 8]; // per-category cycles, this PIM
        let mut total = 0u64;
        #[allow(clippy::needless_range_loop)] // rp also indexes c_blocks_by_rpart
        for rp in 0..rparts {
            // Launch: one per rpart (coarse kernels) or one per matrix row
            // (eCHO per-dot-product kernels, counted in the cell loop).
            if !echo {
                total += sys.launch.launch_latency;
                cy[Phase::Launch.index()] += sys.launch.launch_latency;
                activity.launches += 1;
            }
            let fc = if ctx.direct_scratchpad { 0 } else { ctx.c_blocks_by_rpart[pix][rp] };
            let (fc_cy, fc_rows) = stream_cycles(cfg, fc, c_run, cas);
            let fc_cy = fc_cy + ptw_extra(fc);
            activity.agen_iterations += ptw_extra(fc);
            total += fc_cy;
            cy[Phase::FillC.index()] += fc_cy;
            stats.reads += fc;
            stats.reads_by_port[port] += fc;
            stats.row_misses += fc_rows;
            activity.scratchpad_accesses += fc;
            for &(grp, b_len) in &cells {
                let fb = if ctx.direct_scratchpad { 0 } else { b_len };
                let (fb_cy, fb_rows) = stream_cycles(cfg, fb, b_run, cas);
                let fb_cy = fb_cy + ptw_extra(fb);
                // A blocks of this cell: the cell's column blocks across
                // its admissible matrix rows in this rpart. Each span is a
                // same-row run of `cols_here` blocks.
                let cols_here = b_len / n.max(1) as u64;
                let g_blocks = cols_here * rows_by_rpart_group[rp][grp];
                let (g_cy, g_rows) =
                    stream_cycles(cfg, g_blocks, compose_run(cols_here.max(1) as f64), d_gemm);
                let g_cy = g_cy + ptw_extra(g_blocks);
                activity.agen_iterations += ptw_extra(fb) + ptw_extra(g_blocks);
                let launch_cy = if echo {
                    activity.launches += rows_by_rpart_group[rp][grp];
                    rows_by_rpart_group[rp][grp] * sys.launch.launch_latency
                } else {
                    0
                };
                total += fb_cy + g_cy + launch_cy;
                cy[Phase::FillB.index()] += fb_cy;
                cy[Phase::Gemm.index()] += g_cy;
                cy[Phase::Launch.index()] += launch_cy;
                stats.reads += fb + g_blocks;
                stats.reads_by_port[port] += fb + g_blocks;
                stats.row_misses += fb_rows + g_rows;
                activity.scratchpad_accesses += fb + 2 * g_blocks;
                activity.simd_ops += g_blocks * simd_per_block;
                activity.agen_iterations += g_blocks + g_rows; // span heads re-correct
            }
            let dc = if ctx.direct_scratchpad { 0 } else { ctx.c_blocks_by_rpart[pix][rp] };
            let (dc_cy, dc_rows) = stream_cycles(cfg, dc, c_run, cas);
            let dc_cy = dc_cy + ptw_extra(dc);
            activity.agen_iterations += ptw_extra(dc);
            total += dc_cy;
            cy[Phase::DrainC.index()] += dc_cy;
            stats.writes += dc;
            stats.writes_by_port[port] += dc;
            stats.row_misses += dc_rows;
            activity.scratchpad_accesses += dc;
        }
        kernel_cycles = kernel_cycles.max(total);
        for i in 0..8 {
            phase_max[i] = phase_max[i].max(cy[i]);
        }
    }
    for p in [Phase::Gemm, Phase::FillB, Phase::FillC, Phase::DrainC, Phase::Launch] {
        report.phase_cycles[p.index()] = phase_max[p.index()];
    }
    let kernel_end = loc_end + kernel_cycles;

    // Phase 3: reduction — drain the per-PIM partial-C regions.
    let c_counts: Vec<u64> =
        ctx.c_blocks_by_rpart.iter().map(|per| per.iter().sum()).collect();
    let (red_cycles, red_blocks, red_per_ch) = transfer_phase(sys, ctx, &c_counts, gap);
    // Same structure as the exact tier: the per-channel local drain is
    // unchanged (and so are the DRAM counters); under `ReduceVia::Fabric`
    // each channel's drain-completion offset becomes its fabric injection
    // time and the reduce extends to the fabric's completion.
    let red_cycles = if sys.reduce_via == ReduceVia::Fabric {
        let ready: Vec<u64> = red_per_ch.iter().map(|&c| kernel_end + c).collect();
        let (fab_end, fstats) = crate::flow::fabric_reduce(sys, ctx, &ready);
        report.fabric = Some(fstats);
        (kernel_end + red_cycles).max(fab_end) - kernel_end
    } else {
        red_cycles
    };
    report.add_phase(Phase::Reduction, red_cycles);
    stats.reads += red_blocks;
    stats.reads_by_port[Port::Channel.index()] += red_blocks;

    stats.acts += stats.row_misses;
    stats.row_hits = stats.accesses().saturating_sub(stats.row_misses);
    stats.data_cycles = stats.accesses() * t.t_bl;
    activity.agen_max_step = 1;

    report.total = kernel_end + red_cycles;

    // Refresh costing: with all-bank REF enabled, each tREFI window loses
    // tRFC cycles of array availability, stretching every phase by
    // tREFI / (tREFI − tRFC). Off by default — the factor is exactly 1.0
    // and the closed form stays bit-identical to the committed counters.
    if cfg.refresh && t.t_refi > t.t_rfc {
        let stretch = t.t_refi as f64 / (t.t_refi - t.t_rfc) as f64;
        let inflate = |c: u64| (c as f64 * stretch).round() as u64;
        for c in report.phase_cycles.iter_mut() {
            *c = inflate(*c);
        }
        report.total = inflate(report.total);
        let ranks = (cfg.geom.channels * cfg.geom.ranks_per_channel) as u64;
        stats.refreshes = report.total / t.t_refi.max(1) * ranks;
    }

    report.dram = stats;
    report.activity = activity;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{simulate_gemm, simulate_gemm_opt};
    use stepstone_addr::PimLevel;
    use stepstone_dram::BackendKind;

    fn run(sys: &SystemConfig, m: usize, k: usize, n: usize, level: PimLevel) -> LatencyReport {
        simulate_gemm(sys, &GemmSpec::new(m, k, n), level)
    }

    #[test]
    fn analytic_tracks_exact_within_error_band() {
        // The committed cross-validation: the closed-form tier lands
        // within a per-level band of the exact model on small shapes. It
        // reads StepStone-BG at 0.86–0.93 of exact and StepStone-DV at
        // 1.25–1.38 (table in docs/perf.md); each band leaves at least
        // 0.05 of margin on either side.
        let exact = SystemConfig::default();
        let fast = SystemConfig::default().with_backend(BackendKind::Analytic);
        let bands = [(PimLevel::BankGroup, 0.80..1.00), (PimLevel::Device, 1.15..1.50)];
        for (level, band) in bands {
            for (m, k, n) in [(1024, 4096, 1), (1024, 4096, 16), (512, 2048, 4)] {
                let e = run(&exact, m, k, n, level).total as f64;
                let a = run(&fast, m, k, n, level).total as f64;
                let ratio = a / e;
                assert!(
                    band.contains(&ratio),
                    "{level:?} {m}x{k} n={n}: analytic/exact = {ratio:.3} (a={a} e={e})"
                );
            }
        }
    }

    #[test]
    fn analytic_preserves_level_ordering_at_batch_1() {
        // Fig. 6's qualitative result must survive the fast tier.
        let fast = SystemConfig::default().with_backend(BackendKind::Analytic);
        let spec = GemmSpec::new(1024, 4096, 1);
        let bg = simulate_gemm(&fast, &spec, PimLevel::BankGroup).total;
        let dv = simulate_gemm(&fast, &spec, PimLevel::Device).total;
        let ch = simulate_gemm(&fast, &spec, PimLevel::Channel).total;
        assert!(bg < dv && dv < ch, "bg={bg} dv={dv} ch={ch}");
    }

    #[test]
    fn analytic_reads_every_a_block_once() {
        // Block conservation: the closed-form stats account each A block
        // exactly once on the PIM port, like the exact model.
        let fast = SystemConfig::default().with_backend(BackendKind::Analytic);
        let (m, k, n) = (1024usize, 4096usize, 2usize);
        let r = simulate_gemm_opt(
            &fast,
            &GemmSpec::new(m, k, n),
            &SimOptions::stepstone(PimLevel::BankGroup),
            None,
        );
        let a_blocks = (m * k * 4 / 64) as u64;
        assert!(
            r.dram.reads_by_port[Port::BgInternal.index()] >= a_blocks,
            "{} < {a_blocks}",
            r.dram.reads_by_port[Port::BgInternal.index()]
        );
        assert_eq!(r.clock_hz, stepstone_dram::DramConfig::default().clock_hz);
    }

    #[test]
    fn tfaw_ceiling_binds_when_faw_exceeds_bank_cycle() {
        // Synthetic part where tFAW/4 dominates tRC/banks: short rows must
        // pay the four-activate shortfall.
        let mut cfg = stepstone_dram::DramConfig::default();
        let base = stream_cycles(&cfg, 1024, 2.0, 6).0;
        cfg.timing.t_faw = 400; // tFAW/4 = 100 ≫ tRC/banks
        let capped = stream_cycles(&cfg, 1024, 2.0, 6).0;
        assert!(capped > base, "capped={capped} base={base}");
        // Long same-row runs cover the window; no penalty either way.
        let long_base = stream_cycles(&cfg, 1024, 64.0, 6).0;
        cfg.timing.t_faw = 26;
        assert_eq!(stream_cycles(&cfg, 1024, 64.0, 6).0, long_base);
    }

    #[test]
    fn preset_tfaw_never_exceeds_bank_cycle_floor() {
        // On every shipped part the bank-interleave floor dominates, so
        // adding the tFAW term leaves committed preset cycles unchanged.
        for name in stepstone_dram::DramConfig::PRESET_NAMES {
            let cfg = stepstone_dram::DramConfig::by_name(name).unwrap();
            let t = &cfg.timing;
            let banks = (cfg.geom.banks_per_bankgroup as u64).max(1);
            assert!(
                t.t_faw.div_ceil(4) <= t.t_rc.div_ceil(banks),
                "{name}: tFAW/4={} > tRC/banks={}",
                t.t_faw.div_ceil(4),
                t.t_rc.div_ceil(banks)
            );
        }
    }

    #[test]
    fn refresh_costing_stretches_analytic_latency() {
        let fast = SystemConfig::default().with_backend(BackendKind::Analytic);
        let mut refreshed = fast.clone();
        refreshed.dram.refresh = true;
        let spec = GemmSpec::new(1024, 4096, 4);
        let off = simulate_gemm(&fast, &spec, PimLevel::BankGroup);
        let on = simulate_gemm(&refreshed, &spec, PimLevel::BankGroup);
        assert!(on.total > off.total, "on={} off={}", on.total, off.total);
        // The stretch is tREFI/(tREFI-tRFC) ≈ 3.5% for DDR4-2400.
        let ratio = on.total as f64 / off.total as f64;
        assert!((1.0..1.10).contains(&ratio), "ratio={ratio}");
        assert!(on.dram.refreshes > 0);
        assert_eq!(off.dram.refreshes, 0);
    }

    #[test]
    fn analytic_runs_on_every_preset() {
        // Preset smoke: each DramConfig preset completes under both tiers
        // at a small shape and produces a nonzero latency.
        for name in stepstone_dram::DramConfig::PRESET_NAMES {
            let dram = stepstone_dram::DramConfig::by_name(name).unwrap();
            for backend in [BackendKind::Exact, BackendKind::Analytic] {
                let sys =
                    SystemConfig::default().with_dram(dram).with_backend(backend);
                let r = run(&sys, 256, 1024, 2, PimLevel::BankGroup);
                assert!(r.total > 0, "{name} {backend:?}");
                assert_eq!(r.clock_hz, dram.clock_hz, "{name} {backend:?}");
            }
        }
    }
}
