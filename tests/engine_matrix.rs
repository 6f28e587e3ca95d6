//! Engine equivalence matrix: the frozen-seed suite over the observable
//! configurations that select the engine's scheduling path.
//!
//! The engine picks its path from the phase's configuration alone (see
//! `stepstone_core::engine::run_phase`), so every path is reached through
//! an observable arm:
//!
//! * the default config — the span fast path of
//!   `UnitCursor::advance_batch` with run-granular admission (hinted runs
//!   admitted through `StepSource::take_run`, synthesized followers, the
//!   closed-form jump);
//! * `parallel` — per-channel sharding with `TimingState`/`CommandBus`
//!   adoption vs the serial min-heap scheduler;
//! * `trace` — command tracing forces the serial engine, the exact
//!   per-block FR-FCFS probe scan, and no admission (trace order is part
//!   of the contract);
//! * refresh — turns the fast path and admission off but leaves sharding
//!   on, so `parallel` with refresh shards the per-block path;
//! * a PIM-subset remap — withholds run hints, so the fast path runs
//!   without admission;
//! * a transfer cursor alone on its channel with a long round promise —
//!   the periodic jump of the localization and reduction streams once the
//!   cursor's last two periods of issues repeat, which trace and refresh
//!   turn off;
//! * exclusive kernel units over long A-walk stretches — the multi-key
//!   (StepStone-DV) stretches jumped once the unit's last two rounds of
//!   issues repeat, and the single-key (StepStone-BG) stretches issued in
//!   the run stream, which trace and refresh turn off too.
//!
//! Every arm must produce a `LatencyReport` identical to the frozen seed
//! engine, which replays fully materialized programs. The run counters
//! are process-global, so the tests serialize on one lock.

use stepstone_addr::{PagingConfig, PimLevel};
use stepstone_bench::seed_replay::simulate_pow2_gemm_seed;
use stepstone_core::engine::{
    reset_run_counters, run_counters, run_phase_auto, UnitCursor, FB_OTHER,
};
use stepstone_core::flow::{transfer_cursors, KernelStream};
use stepstone_core::{
    simulate_gemm_fused, simulate_gemm_opt, simulate_ncho, simulate_pei, FabricConfig,
    GemmContext, GemmSpec, LatencyReport, Phase, ReduceVia, SimOptions, SystemConfig,
    TopologyKind,
};
use stepstone_dram::{BackendKind, CommandBus, DramConfig, DramStats, TimingState};
use stepstone_workloads::SyntheticTraffic;

fn assert_reports_equal(a: &LatencyReport, b: &LatencyReport, what: &str) {
    assert_eq!(a.total, b.total, "{what}: total cycles");
    assert_eq!(a.phase_cycles, b.phase_cycles, "{what}: phase attribution");
    assert_eq!(a.dram, b.dram, "{what}: DRAM event counts");
    assert_eq!(a.activity, b.activity, "{what}: activity counts");
}

/// Every simulation adds to the process-global run counters, so the
/// matrix tests must not interleave: each holds this lock for its whole
/// run.
fn counter_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The three scheduling arms of the config-axis tests: serial, sharded,
/// and traced (the per-block probe path).
const SCHED_ARMS: [(bool, bool); 3] = [(false, false), (true, false), (false, true)];

#[test]
fn matrix_parallel_trace_refresh_match_frozen_seed() {
    let _serial = counter_lock();
    let mut admitted = 0u64;
    // (M, K, N, levels, refresh settings). 128x512 N=2 issues no REF, so
    // only the larger shape carries the refresh arm.
    type Case = (usize, usize, usize, &'static [PimLevel], &'static [bool]);
    let cases: &[Case] = &[
        (128, 512, 2, &[PimLevel::BankGroup], &[false]),
        (256, 1024, 4, &PimLevel::ALL, &[false, true]),
    ];
    for &(m, k, n, levels, refreshes) in cases {
        let spec = GemmSpec::new(m, k, n);
        for &level in levels {
            let opts = SimOptions::stepstone(level);
            for &refresh in refreshes {
                let sys = |parallel, trace| SystemConfig {
                    dram: DramConfig { refresh, ..DramConfig::default() },
                    parallel,
                    trace,
                    ..SystemConfig::default()
                };
                let seed = simulate_pow2_gemm_seed(&sys(false, false), &spec, &opts);
                assert_eq!(seed.dram.refreshes > 0, refresh, "{m}x{k} N={n}: REFs issued");
                for parallel in [false, true] {
                    for trace in [false, true] {
                        reset_run_counters();
                        let got = simulate_gemm_opt(&sys(parallel, trace), &spec, &opts, None);
                        let c = run_counters();
                        let what = format!(
                            "{m}x{k} N={n} {level:?} refresh={refresh} parallel={parallel} \
                             trace={trace}"
                        );
                        assert_reports_equal(&got, &seed, &what);
                        if refresh || trace {
                            assert_eq!(c.runs, 0, "{what}: refresh and trace withhold admission");
                        }
                        admitted += c.runs;
                    }
                }
            }
        }
    }
    assert!(admitted > 0, "some matrix config admits hinted runs");
}

/// Backend axis: {exact, analytic} × {serial, parallel, traced}. The
/// exact tier must stay bit-identical to the frozen seed on every
/// scheduling arm; the analytic tier must land within its
/// documented error band (0.5×–2× of exact, see `core::analytic`) and must
/// preserve the *relative latency ordering* of the workload shapes, which
/// is what the fast tier is for (design-space pruning, not cycle returns).
///
/// Routing: the analytic tier costs only plain power-of-two passes in
/// closed form. Colocated traffic, fused passes, PEI and nCHO have no
/// closed form, so on the analytic system they run the exact engine and
/// return the exact system's report.
#[test]
fn matrix_backend_tiers_exact_and_analytic() {
    let _serial = counter_lock();
    let exact_sys = SystemConfig::default();
    let analytic_sys = exact_sys.clone().with_backend(BackendKind::Analytic);
    let level = PimLevel::BankGroup;
    let opts = SimOptions::stepstone(level);
    let spec = GemmSpec::new(256, 1024, 2);
    let traffic = |sys: &SystemConfig| {
        let mut t = SyntheticTraffic::spec_mix(7, 2000);
        simulate_gemm_opt(sys, &spec, &opts, Some(&mut t))
    };
    let fused_spec = GemmSpec::new(384, 1024, 2);
    type Request<'a> = (&'a str, &'a dyn Fn(&SystemConfig) -> LatencyReport);
    let routed: [Request; 4] = [
        ("colocated traffic", &traffic),
        ("fused", &|sys| simulate_gemm_fused(sys, &fused_spec, &opts, None)),
        ("PEI", &|sys| simulate_pei(sys, &spec, level, None)),
        ("nCHO", &|sys| simulate_ncho(sys, &spec, level, None)),
    ];
    for (what, run) in routed {
        let exact = run(&exact_sys);
        assert_reports_equal(&run(&analytic_sys), &exact, &format!("analytic {what}"));
    }
    let plain = |sys: &SystemConfig| simulate_gemm_opt(sys, &spec, &opts, None).total;
    assert_ne!(plain(&analytic_sys), plain(&exact_sys), "a plain pass takes the closed form");

    // Table-I-flavored shapes (scaled to test budget), distinct enough to
    // have a meaningful latency order.
    let shapes: &[(usize, usize, usize)] = &[(256, 1024, 2), (512, 2048, 4), (1024, 4096, 4)];
    let mut exact_totals = Vec::new();
    let mut analytic_totals = Vec::new();
    for &(m, k, n) in shapes {
        let spec = GemmSpec::new(m, k, n);
        let opts = SimOptions::stepstone(PimLevel::BankGroup);
        let seed = simulate_pow2_gemm_seed(
            &SystemConfig { parallel: false, ..SystemConfig::default() },
            &spec,
            &opts,
        );
        let mut analytic_seen: Option<u64> = None;
        for (parallel, trace) in SCHED_ARMS {
            let sys = SystemConfig { parallel, trace, ..SystemConfig::default() };
            assert_eq!(sys.backend, BackendKind::Exact, "exact is the default tier");
            let exact = simulate_gemm_opt(&sys, &spec, &opts, None);
            let what = format!("{m}x{k} N={n} exact parallel={parallel} trace={trace}");
            assert_reports_equal(&exact, &seed, &what);

            let asys = sys.clone().with_backend(BackendKind::Analytic);
            let analytic = simulate_gemm_opt(&asys, &spec, &opts, None);
            // The closed-form tier is scheduling-independent: same answer
            // whatever the engine configuration.
            let prev = *analytic_seen.get_or_insert(analytic.total);
            assert_eq!(analytic.total, prev, "{what}: analytic must ignore engine scheduling");
            let ratio = analytic.total as f64 / exact.total as f64;
            assert!(
                (0.5..2.0).contains(&ratio),
                "{what}: analytic/exact ratio {ratio:.3} outside documented band"
            );
        }
        exact_totals.push(seed.total);
        analytic_totals.push(analytic_seen.unwrap());
    }
    let order = |v: &[u64]| {
        let mut ix: Vec<usize> = (0..v.len()).collect();
        ix.sort_by_key(|&i| v[i]);
        ix
    };
    assert_eq!(
        order(&exact_totals),
        order(&analytic_totals),
        "analytic must preserve the exact tier's latency ordering \
         (exact {exact_totals:?}, analytic {analytic_totals:?})"
    );
}

/// Reduce axis: {host-dma, fabric(ring), fabric(line)} × {serial,
/// parallel, traced}. The host-DMA arm is the default and must stay
/// bit-identical to the frozen seed on every scheduling arm. The fabric
/// arms run the *same* per-channel Phase-3 drain through the memory
/// backend — identical `DramStats` and identical non-Reduction phases —
/// and then extend the reduction with the PIM→PIM transit, so Reduction is
/// never shorter than host DMA's local drain and the report carries
/// per-link fabric statistics. Each fabric arm must also be invariant to
/// the engine's scheduling path (the fabric schedule is deterministic).
#[test]
fn matrix_reduce_via_host_dma_and_fabric() {
    let _serial = counter_lock();
    let shapes: &[(usize, usize, usize)] = &[(256, 1024, 2), (512, 2048, 4)];
    for &(m, k, n) in shapes {
        let spec = GemmSpec::new(m, k, n);
        let opts = SimOptions::stepstone(PimLevel::BankGroup);
        let seed = simulate_pow2_gemm_seed(
            &SystemConfig { parallel: false, ..SystemConfig::default() },
            &spec,
            &opts,
        );
        let mut fabric_seen: [Option<LatencyReport>; 2] = [None, None];
        for (parallel, trace) in SCHED_ARMS {
            let sys = SystemConfig { parallel, trace, ..SystemConfig::default() };
            assert_eq!(sys.reduce_via, ReduceVia::HostDma, "host DMA is the default");
            let host = simulate_gemm_opt(&sys, &spec, &opts, None);
            let what = format!("{m}x{k} N={n} host-dma parallel={parallel} trace={trace}");
            assert_reports_equal(&host, &seed, &what);
            assert!(host.fabric.is_none(), "{what}: no fabric stats on the default path");

            for (tix, topo) in [TopologyKind::Ring, TopologyKind::Line].iter().enumerate() {
                let fsys = sys
                    .clone()
                    .with_reduce_via(ReduceVia::Fabric)
                    .with_fabric(FabricConfig::default().with_topology(*topo));
                let fab = simulate_gemm_opt(&fsys, &spec, &opts, None);
                let what = format!(
                    "{m}x{k} N={n} fabric({}) parallel={parallel} trace={trace}",
                    topo.tag()
                );
                // Composes with the memory backend: same DRAM command
                // stream, so the event counters match host DMA exactly.
                assert_eq!(fab.dram, host.dram, "{what}: DRAM counters");
                assert_eq!(fab.activity, host.activity, "{what}: activity");
                for p in [Phase::Gemm, Phase::FillB, Phase::FillC, Phase::DrainC,
                          Phase::Localization, Phase::Launch] {
                    assert_eq!(fab.phase(p), host.phase(p), "{what}: {p:?} cycles");
                }
                assert!(
                    fab.phase(Phase::Reduction) >= host.phase(Phase::Reduction),
                    "{what}: fabric reduce cannot beat its own local drain"
                );
                let stats = fab.fabric.as_ref().unwrap_or_else(|| {
                    panic!("{what}: fabric stats missing")
                });
                assert_eq!(stats.topology, topo.tag(), "{what}");
                assert_eq!(stats.nodes, 4, "{what}: one node per DRAM channel");
                assert_eq!(stats.bytes_injected, stats.bytes_delivered, "{what}");
                assert!(stats.bytes_injected > 0, "{what}: partial sums moved");
                assert!(
                    stats.links.iter().any(|l| l.messages > 0 && l.peak_demand_bytes > 0),
                    "{what}: per-link peak-demand stats populated"
                );
                // Scheduling invariance: the fabric arm's whole report
                // is a pure function of the config, not the engine path.
                match &fabric_seen[tix] {
                    Some(prev) => {
                        assert_reports_equal(&fab, prev, &what);
                        assert_eq!(&fab.fabric, &prev.fabric, "{what}: link stats");
                    }
                    None => fabric_seen[tix] = Some(fab),
                }
            }
        }
    }
}

/// Paging axis. Two families of arms:
///
/// * **Provable reductions** — identity-policy paging at any page size
///   (no stream is ever wrapped), and a page covering the whole simulated
///   address range under a *non-identity* policy (one constant,
///   ID-parity-free frame offset relabels banks/rows uniformly). Both
///   must be bit-identical to the frozen contiguous seed.
/// * **Fragmented/permuted arms** — small-page translation (with and
///   without a PTW cost) through the full production machinery
///   (page-clipped run hints, span fast path, run-granular admission)
///   must be cycle-exact against the per-page live-walk oracle: the
///   traced serial run, where every block is a real source pull
///   translated one at a time through the per-block probe path.
#[test]
fn matrix_paging_identity_reduction_and_fragmented_oracle() {
    let _serial = counter_lock();
    let mut admitted = 0u64;
    // BankGroup partitions this shape into spans too short to admit runs
    // (every hint ends at length 1 even unpaged); Device-level spans are
    // long enough that page-clipped hints must still admit whole runs.
    let shapes: &[(usize, usize, usize, PimLevel)] = &[
        (256, 1024, 2, PimLevel::BankGroup),
        (512, 2048, 4, PimLevel::Device),
    ];
    for &(m, k, n, level) in shapes {
        let spec = GemmSpec::new(m, k, n);
        let opts = SimOptions::stepstone(level);
        let seed = simulate_pow2_gemm_seed(
            &SystemConfig { parallel: false, ..SystemConfig::default() },
            &spec,
            &opts,
        );
        for paging in [
            PagingConfig::identity(4096),
            PagingConfig::identity(1 << 30),
            PagingConfig::permuted(1 << 36, 11),
            PagingConfig::fragmented(1 << 36, 11),
        ] {
            for parallel in [false, true] {
                let sys =
                    SystemConfig { parallel, ..SystemConfig::default() }.with_paging(paging);
                let got = simulate_gemm_opt(&sys, &spec, &opts, None);
                let what = format!("{m}x{k} N={n} {level:?} {paging:?} parallel={parallel}");
                assert_reports_equal(&got, &seed, &what);
            }
        }
        for paging in [
            PagingConfig::fragmented(4096, 42),
            PagingConfig::fragmented(1 << 16, 42).with_ptw(40),
            PagingConfig::permuted(2 << 20, 7).with_ptw(20),
        ] {
            let osys = SystemConfig { parallel: false, trace: true, ..SystemConfig::default() }
                .with_paging(paging);
            let oracle = simulate_gemm_opt(&osys, &spec, &opts, None);
            for parallel in [false, true] {
                reset_run_counters();
                let sys =
                    SystemConfig { parallel, ..SystemConfig::default() }.with_paging(paging);
                let got = simulate_gemm_opt(&sys, &spec, &opts, None);
                let what = format!("{m}x{k} N={n} {level:?} {paging:?} parallel={parallel}");
                assert_reports_equal(&got, &oracle, &what);
                admitted += run_counters().runs;
            }
            // Translation must actually move traffic in these arms, or the
            // oracle proves nothing: same counters, different addresses.
            let pm = osys.page_map().expect("paging configured");
            assert!(!pm.is_identity(), "arm must translate");
        }
    }
    assert!(admitted > 0, "page-clipped hints must still admit whole runs");
}

#[test]
fn matrix_covers_subset_and_echo_program_shapes() {
    // The subset remap (dropped ID bits, run hints withheld) and eCHO
    // (per-row launches) program shapes on every scheduling arm, pinned
    // against the frozen seed. Untraced, the subset arm is the fast path
    // without admission: nothing is admitted and every block falls back
    // as "other".
    let _serial = counter_lock();
    let subset = SimOptions::stepstone(PimLevel::BankGroup).with_subset(1);
    let arms = [
        (GemmSpec::new(256, 1024, 2), subset.clone()),
        (GemmSpec::new(512, 2048, 4), subset),
        (GemmSpec::new(512, 2048, 4), SimOptions::echo(PimLevel::BankGroup)),
    ];
    for (spec, opts) in arms {
        let seed = simulate_pow2_gemm_seed(
            &SystemConfig { parallel: false, ..SystemConfig::default() },
            &spec,
            &opts,
        );
        for parallel in [false, true] {
            for trace in [false, true] {
                reset_run_counters();
                let sys = SystemConfig { parallel, trace, ..SystemConfig::default() };
                let got = simulate_gemm_opt(&sys, &spec, &opts, None);
                let c = run_counters();
                let what = format!(
                    "{spec} {:?} subset={} parallel={parallel} trace={trace}",
                    opts.granularity, opts.subset_drop_bits
                );
                assert_reports_equal(&got, &seed, &what);
                if opts.subset_drop_bits > 0 && !trace {
                    assert_eq!(c.runs, 0, "{what}: the subset remap withholds run hints");
                    assert_eq!(c.fallback[FB_OTHER], got.dram.accesses(), "{what}: {c:?}");
                }
            }
        }
    }
}

/// Transfer axis: the pass re-composed from its public phase calls, so the
/// transfer cursors' closed-form period counters are visible. On a serving
/// shape whose localization and reduction streams settle into verified
/// periods, the jump must fire in both transfer phases on the serial and
/// sharded engines and stay off under trace and refresh, and every arm
/// must match the frozen seed's phase ends, total and DRAM counters.
/// One composed pass of `ctx` — localization, the kernels, reduction —
/// on fresh memory: the phase ends, the DRAM statistics, and what each
/// phase issued in closed form (transfer periods, kernel blocks of
/// verified transfer periods; kernel blocks of A-walk stretches).
struct Composed {
    loc_end: u64,
    kernel_end: u64,
    red_end: u64,
    stats: DramStats,
    jumped: [u64; 3],
    stretched: u64,
}

fn composed_pass(
    ctx: &GemmContext,
    base: &SystemConfig,
    opts: &SimOptions,
    parallel: bool,
    trace: bool,
    refresh: bool,
) -> Composed {
    let dram = DramConfig { refresh, ..DramConfig::default() };
    let mut ts = TimingState::new(dram);
    if trace {
        ts.enable_trace();
    }
    let mut bus = CommandBus::new(dram.geom.channels as usize);
    let mut loc = transfer_cursors(ctx, &ctx.b_regions, true, Phase::Localization, 0, 0);
    let loc_end = run_phase_auto(&mut ts, &mut bus, &ctx.mapping, &mut loc, None, parallel);
    let mut units: Vec<UnitCursor> = (0..ctx.active_pims.len())
        .map(|pix| {
            let mut u = UnitCursor::from_source(
                "pim",
                ctx.pim_channel(ctx.active_pims[pix]),
                opts.level_cfg.port(),
                KernelStream::new(ctx, base, opts, pix),
                loc_end,
                opts.level_cfg.compute_cycles_per_block(ctx.n),
                opts.level_cfg.simd_ops_per_block(ctx.n),
                opts.level_cfg.pipeline_depth as usize,
                base.launch.slots_for(opts.granularity),
                base.launch.launch_latency,
                dram.timing.t_bl,
                None,
            );
            u.exclusive = true;
            u
        })
        .collect();
    run_phase_auto(&mut ts, &mut bus, &ctx.mapping, &mut units, None, parallel);
    let kernel_end = units.iter().map(|u| u.end_time).max().unwrap_or(loc_end);
    let mut red = transfer_cursors(ctx, &ctx.c_regions, false, Phase::Reduction, kernel_end, 0);
    let red_end = run_phase_auto(&mut ts, &mut bus, &ctx.mapping, &mut red, None, parallel);
    let jumped = [
        loc.iter().map(|u| u.jumped_periods).sum(),
        units.iter().map(|u| u.jumped_blocks).sum(),
        red.iter().map(|u| u.jumped_periods).sum(),
    ];
    let stretched = units.iter().map(|u| u.stretch_blocks).sum();
    let stats = *ts.stats();
    Composed { loc_end, kernel_end, red_end, stats, jumped, stretched }
}

/// Arms of the jump tests: (parallel, trace, refresh).
const JUMP_ARMS: [(bool, bool, bool); 4] =
    [(false, false, false), (true, false, false), (false, true, false), (true, false, true)];

/// A pass recomposed from its phases on the jump-enabled path: on a
/// shape whose localization and reduction streams settle into verified
/// periods, the jump must fire in both transfer phases on the serial and
/// sharded engines and stay off under trace and refresh, and every arm
/// must match the frozen seed's phase ends, total and DRAM counters.
#[test]
fn matrix_transfer_jump_matches_frozen_seed() {
    let _serial = counter_lock();
    let spec = GemmSpec::new(512, 512, 32);
    let opts = SimOptions::stepstone(PimLevel::BankGroup);
    let base = SystemConfig { parallel: false, ..SystemConfig::default() };
    let seed = simulate_pow2_gemm_seed(&base, &spec, &opts);
    let ctx = GemmContext::build(&base, &spec, &opts);
    for (parallel, trace, refresh) in JUMP_ARMS {
        let pass = composed_pass(&ctx, &base, &opts, parallel, trace, refresh);
        let jumped = [pass.jumped[0], pass.jumped[2]];
        let what = format!("{spec} parallel={parallel} trace={trace} refresh={refresh}");
        if refresh {
            // Refresh moves the pass away from the refresh-free seed; the
            // arm only pins that it turns the jump off.
            assert!(pass.stats.refreshes > 0, "{what}: REFs issued");
        } else {
            assert_eq!(pass.loc_end, seed.phase(Phase::Localization), "{what}: localization end");
            assert_eq!(
                pass.red_end - pass.kernel_end,
                seed.phase(Phase::Reduction),
                "{what}: reduction"
            );
            assert_eq!(pass.red_end, seed.total, "{what}: total");
            assert_eq!(pass.stats, seed.dram, "{what}: DRAM event counts");
        }
        if trace || refresh {
            assert_eq!(jumped, [0, 0], "{what}: trace and refresh turn the jump off");
        } else {
            assert!(jumped.iter().all(|&j| j > 0), "{what}: jumped periods {jumped:?}");
        }
    }
}

/// The multi-key stretch jump in a composed StepStone-DV pass: the A-walk
/// of a 256×4096 N=1 GEMM holds each row pair for 64 blocks per bank, so
/// the exclusive kernel units issue most of it in closed form as A-walk
/// stretches, on the serial and sharded engines, and not under trace or
/// refresh; every refresh-free arm must match the frozen seed's phase
/// ends, total and DRAM counters.
#[test]
fn matrix_kernel_jump_matches_frozen_seed() {
    let _serial = counter_lock();
    let spec = GemmSpec::new(256, 4096, 1);
    let opts = SimOptions::stepstone(PimLevel::Device);
    let base = SystemConfig { parallel: false, ..SystemConfig::default() };
    let seed = simulate_pow2_gemm_seed(&base, &spec, &opts);
    let ctx = GemmContext::build(&base, &spec, &opts);
    for (parallel, trace, refresh) in JUMP_ARMS {
        let pass = composed_pass(&ctx, &base, &opts, parallel, trace, refresh);
        let what = format!("{spec} DV parallel={parallel} trace={trace} refresh={refresh}");
        assert_eq!(pass.jumped[1], 0, "{what}: the kernels take no transfer period");
        if refresh {
            assert!(pass.stats.refreshes > 0, "{what}: REFs issued");
            assert_eq!(pass.stretched, 0, "{what}: refresh turns the kernel jump off");
            continue;
        }
        let kernel = pass.kernel_end - pass.loc_end;
        assert_eq!(pass.loc_end, seed.phase(Phase::Localization), "{what}: localization end");
        let seed_kernel =
            seed.total - seed.phase(Phase::Localization) - seed.phase(Phase::Reduction);
        assert_eq!(kernel, seed_kernel, "{what}: kernel phase");
        assert_eq!(pass.red_end, seed.total, "{what}: total");
        assert_eq!(pass.stats, seed.dram, "{what}: DRAM event counts");
        if trace {
            assert_eq!(pass.stretched, 0, "{what}: the trace turns the kernel jump off");
        } else {
            let kernel_blocks = seed.dram.accesses() - seed.dram.channel_accesses();
            assert!(
                pass.stretched * 2 > kernel_blocks,
                "{what}: jumped {} of {kernel_blocks} kernel blocks",
                pass.stretched
            );
        }
    }
}

/// The single-key stretch jump in a composed StepStone-BG pass: the A-walk
/// of a 256×1024 N=4 GEMM holds each row for 32 blocks (16 two-block
/// spans, like the K ≤ 2048 Table-I shapes), so the exclusive kernel units
/// issue most of it in closed form in the run stream on the serial and
/// sharded engines, with no transfer period, and not under trace or
/// refresh; every refresh-free arm must match the frozen seed's phase
/// ends, total and DRAM counters.
#[test]
fn matrix_bg_stretch_jump_matches_frozen_seed() {
    let _serial = counter_lock();
    let spec = GemmSpec::new(256, 1024, 4);
    let opts = SimOptions::stepstone(PimLevel::BankGroup);
    let base = SystemConfig { parallel: false, ..SystemConfig::default() };
    let seed = simulate_pow2_gemm_seed(&base, &spec, &opts);
    let ctx = GemmContext::build(&base, &spec, &opts);
    for (parallel, trace, refresh) in JUMP_ARMS {
        let pass = composed_pass(&ctx, &base, &opts, parallel, trace, refresh);
        let what = format!("{spec} BG parallel={parallel} trace={trace} refresh={refresh}");
        assert_eq!(pass.jumped[1], 0, "{what}: single-key rounds take no transfer period");
        if refresh {
            assert!(pass.stats.refreshes > 0, "{what}: REFs issued");
            assert_eq!(pass.stretched, 0, "{what}: refresh turns the stretch jump off");
            continue;
        }
        let kernel = pass.kernel_end - pass.loc_end;
        assert_eq!(pass.loc_end, seed.phase(Phase::Localization), "{what}: localization end");
        let seed_kernel =
            seed.total - seed.phase(Phase::Localization) - seed.phase(Phase::Reduction);
        assert_eq!(kernel, seed_kernel, "{what}: kernel phase");
        assert_eq!(pass.red_end, seed.total, "{what}: total");
        assert_eq!(pass.stats, seed.dram, "{what}: DRAM event counts");
        if trace {
            assert_eq!(pass.stretched, 0, "{what}: the trace turns the stretch jump off");
        } else {
            let kernel_blocks = seed.dram.accesses() - seed.dram.channel_accesses();
            assert!(
                pass.stretched * 2 > kernel_blocks,
                "{what}: jumped {} of {kernel_blocks} kernel blocks",
                pass.stretched
            );
        }
    }
}
