//! End-to-end simulator hot-path benchmark: the streaming engine (with and
//! without per-channel parallel sharding) vs the seed's
//! materialize-then-replay path, on a paper-scale GEMM, followed by the
//! sections that pin the rest of the simulator's output (sub-paper shape,
//! backend tiers and DRAM presets, serving, fabric, paging).
//!
//! Writes `BENCH_sim.json` in the working directory; the README's "Reading
//! `BENCH_sim.json`" says what each section means. The paper-shape
//! wall-clock figures are medians of interleaved repeated runs, every run
//! printed: each mode's `wall_ns` and `speedup_streaming_vs_seed` over 3
//! seed/streaming pairs (`streaming-serial` over the 5 serial runs of the
//! parallel/serial pairs), and `speedup_parallel_vs_serial` over those 5
//! pairs. The deterministic span-program and run-granularity counters are
//! recorded for the paper-scale streaming-serial run (`agen_counters`,
//! `run_counters`) and the sub-paper warm run (`subpaper`), and the serial
//! and parallel engines must agree on them.
//!
//! `bench_sim --check <fresh> <committed>` holds a fresh file to the gate
//! table in `stepstone_bench::gates` and prints one line per failing row;
//! it exits 1 on a failure and 2 when a file cannot be read as JSON.
//!
//! Usage: `bench_sim [--quick] [M K N]`. `--quick` (or
//! `STEPSTONE_SCALE=quick`) runs a reduced shape for smoke tests.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;
use stepstone_addr::groups::partition_constraints;
use stepstone_addr::{PimLevel, StepStoneAgen};
use stepstone_bench::gates;
use stepstone_bench::seed_replay::simulate_pow2_gemm_seed;
use stepstone_bench::Json;
use stepstone_core::engine::{reset_run_counters, run_counters, RunCounters, FB_LABELS};
use stepstone_core::flow::KernelStream;
use stepstone_core::{
    simulate_gemm_opt, FabricConfig, GemmContext, GemmSpec, LatencyReport, Phase, ReduceVia,
    SimOptions, SystemConfig, TopologyKind,
};
use stepstone_dram::{BackendKind, DramConfig};
use stepstone_serving::{
    build_cost_table, find_knee, run_serving, sweep_loads, ColdCoster, ServingConfig,
    SessionCoster,
};
use stepstone_workloads::{OpenLoopArrivals, RequestMix};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--check") {
        let [fresh, committed] = &args[i + 1..] else {
            eprintln!("usage: bench_sim --check <fresh.json> <committed.json>");
            std::process::exit(2);
        };
        std::process::exit(check(fresh, committed));
    }
    let quick = args.iter().any(|a| a == "--quick")
        || std::env::var("STEPSTONE_SCALE").as_deref() == Ok("quick");
    let dims: Vec<usize> = args.iter().filter_map(|a| a.parse().ok()).collect();
    let (m, k, n) = match dims.as_slice() {
        [m, k, n, ..] => (*m, *k, *n),
        _ if quick => (512, 2048, 8),
        _ => (4096, 4096, 256),
    };
    let level = PimLevel::BankGroup;
    let sys = SystemConfig::default();
    let serial_sys = SystemConfig { parallel: false, ..sys.clone() };
    let spec = GemmSpec::new(m, k, n);
    assert!(spec.is_pow2(), "bench uses a single power-of-two GEMM");
    let opts = SimOptions::stepstone(level);
    let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);

    // Resident accounting, outside the timed region. Streaming holds at
    // most the reorder window per unit; the materialized path holds the
    // whole kernel program per unit. Region addresses: the span-backed
    // plans hold O(address bits × 2^ID bits) words, the seed held every
    // address.
    let ctx = GemmContext::build(&sys, &spec, &opts);
    let units = ctx.active_pims.len() as u64;
    let window_cap = (opts.level_cfg.pipeline_depth as u64 / 2).clamp(1, 8);
    // Region residency is measured on the freshly carved plans: what a plan
    // must hold to *represent* the region. (Iterating a plan additionally
    // builds a bounded per-period offset cache — execution working memory,
    // reclaimed with the plan, not part of the representation.)
    let region_addrs_materialized: u64 = ctx
        .b_regions
        .iter()
        .chain(ctx.c_regions.iter())
        .map(|r| r.len())
        .sum();
    let region_addrs_resident: u64 = ctx
        .b_regions
        .iter()
        .chain(ctx.c_regions.iter())
        .map(|r| r.resident_words())
        .sum();
    let region_drop = region_addrs_materialized as f64 / region_addrs_resident.max(1) as f64;
    let materialized_steps: u64 = (0..ctx.active_pims.len())
        .map(|pix| KernelStream::new(&ctx, &sys, &opts, pix).count() as u64)
        .sum();
    drop(ctx);

    println!(
        "bench_sim: {m}x{k} N={n} STP-{} ({} PIMs, {threads} threads)",
        level.tag(),
        units
    );
    println!(
        "  region addresses: {region_addrs_materialized} materialized -> \
         {region_addrs_resident} resident words ({region_drop:.0}x drop)"
    );
    type SimFn = Box<dyn Fn() -> LatencyReport>;
    let cases: Vec<(&'static str, u64, SimFn)> = vec![
        (
            "streaming",
            units * (window_cap + 1),
            Box::new({
                let (sys, spec, opts) = (sys.clone(), spec, opts.clone());
                move || simulate_gemm_opt(&sys, &spec, &opts, None)
            }),
        ),
        (
            "streaming-serial",
            units * (window_cap + 1),
            Box::new({
                let (sys, spec, opts) = (serial_sys.clone(), spec, opts.clone());
                move || simulate_gemm_opt(&sys, &spec, &opts, None)
            }),
        ),
        (
            "seed-replay",
            materialized_steps,
            Box::new({
                let (sys, spec, opts) = (serial_sys.clone(), spec, opts.clone());
                move || simulate_pow2_gemm_seed(&sys, &spec, &opts)
            }),
        ),
    ];
    // Per-run AGEN span-program counters; the streaming-serial run's are
    // recorded in the JSON (deterministic: serial engine, warm cache).
    let mut agen_paper = stepstone_addr::agen::AgenCounters::default();
    // Run-granularity counters per mode: streaming and streaming-serial
    // must agree exactly (admission is engine-order independent); the
    // serial run's stats go into the JSON.
    let mut rc_paper = RunCounters::default();
    let mut rc_parallel = RunCounters::default();
    // Each mode's report; the streaming run's doubles as the host-DMA
    // reference for the fabric comparison (same shape, same engine, default
    // reduce path).
    let mut reports = Vec::new();
    for (label, resident, sim) in cases {
        stepstone_addr::agen::reset_agen_counters();
        reset_run_counters();
        let t0 = Instant::now();
        let report = sim();
        let wall_ns = t0.elapsed().as_nanos();
        let counters = stepstone_addr::agen::agen_counters();
        let rc = run_counters();
        if label == "streaming-serial" {
            agen_paper = counters;
            rc_paper = rc;
        } else if label == "streaming" {
            rc_parallel = rc;
        }
        let blocks = report.dram.accesses();
        println!(
            "  {label:<18} {:>8.1} ms  {:>7.1} ns/block  ({blocks} blocks, {} sim cycles, \
             {resident} resident steps)",
            wall_ns as f64 / 1e6,
            wall_ns as f64 / blocks as f64,
            report.total,
        );
        if label != "seed-replay" {
            println!(
                "  {:<18} spans {} live / {} replayed; boundaries {} live / {} jumped; \
                 skeletons {} hit / {} missed",
                "", counters.live_spans, counters.replayed_spans,
                counters.boundary_successors, counters.window_jumps,
                counters.skeleton_hits, counters.skeleton_misses,
            );
            println!(
                "  {:<18} runs {} admitted covering {} blocks (mean {:.1}); fallback {}",
                "",
                rc.runs,
                rc.run_blocks,
                rc.mean_run_len(),
                fallback_summary(&rc),
            );
        }
        reports.push((label, resident, report));
    }

    assert_eq!(
        rc_paper, rc_parallel,
        "run-granularity counters disagree between serial and parallel engines"
    );
    let exact_cycles = reports[0].2.total;

    // ---- sub-paper-scale serving shape (Table-I batch GEMMs) ----
    let sp = subpaper_section(&sys, &serial_sys);

    // ---- continuous serving: load sweep + warm-vs-cold sessions ----
    let sv = serving_section(&sys);

    // ---- inter-device fabric: PIM-to-PIM reduce, line vs ring ----
    let fb = fabric_section(&sys, &spec, &opts, &reports[0].2);

    // ---- VA->PA paging: locality preserved per page size ----
    let pg = paging_section(&sys, &serial_sys, &spec, &opts, exact_cycles, &rc_paper);

    let cycle_exact = reports.windows(2).all(|w| {
        w[0].2.total == w[1].2.total && w[0].2.dram.accesses() == w[1].2.dram.accesses()
    });
    assert!(cycle_exact, "execution modes disagree on simulated cycles/blocks");
    // The wall-clock figures are medians of interleaved repeated runs:
    // single samples of one build spread widely on a shared host.
    let seed = || {
        let t0 = Instant::now();
        simulate_pow2_gemm_seed(&serial_sys, &spec, &opts);
        t0.elapsed().as_nanos() as f64
    };
    let pairs = interleaved("streaming-vs-seed", ["seed", "streaming"], 3, seed, || {
        time(&sys, &spec, &opts)
    });
    let speedup = median(pairs.iter().map(|(seed, streaming)| seed / streaming));
    let seed_wall_ns = median(pairs.iter().map(|p| p.0)) as u128;
    let streaming_wall_ns = median(pairs.iter().map(|p| p.1)) as u128;
    println!(
        "  speedup streaming vs seed path: {speedup:.2}x, median of 3 pairs \
         (cycle-exact: {cycle_exact})"
    );
    let pairs = interleaved(
        "parallel-vs-serial",
        ["serial", "parallel"],
        5,
        || time(&serial_sys, &spec, &opts),
        || time(&sys, &spec, &opts),
    );
    let par_speedup = median(pairs.iter().map(|(serial, parallel)| serial / parallel));
    let serial_wall_ns = median(pairs.iter().map(|p| p.0)) as u128;
    println!(
        "  speedup parallel vs serial engine: {par_speedup:.2}x, median of 5 pairs \
         ({threads} threads); streaming-serial {:.1} ns/block, median of its 5 runs",
        serial_wall_ns as f64 / reports[1].2.dram.accesses() as f64
    );

    // ---- backend tiers: analytic fast model + device presets ----
    // Against the streaming median of the interleaved pairs above.
    let bk = backends_section(&sys, &spec, &opts, streaming_wall_ns, exact_cycles);

    let walls = [streaming_wall_ns, serial_wall_ns, seed_wall_ns];
    let runs = reports.iter().zip(walls).map(|((mode, resident, r), wall_ns)| {
        let blocks = r.dram.accesses();
        Json::obj([
            ("mode", (*mode).into()),
            ("wall_ns", wall_ns.into()),
            ("sim_cycles", r.total.into()),
            ("blocks", blocks.into()),
            ("ns_per_block", Json::fixed(wall_ns as f64 / blocks as f64, 2)),
            ("peak_resident_steps", (*resident).into()),
        ])
    });
    let doc = Json::obj([
        ("bench", "sim_hot_path".into()),
        (
            "config",
            Json::obj([
                ("m", m.into()),
                ("k", k.into()),
                ("n", n.into()),
                ("level", level.tag().into()),
                ("pims", units.into()),
                ("threads", threads.into()),
            ]),
        ),
        ("runs", Json::arr(runs)),
        (
            "region_addrs",
            Json::obj([
                ("materialized", region_addrs_materialized.into()),
                ("resident", region_addrs_resident.into()),
                ("drop", Json::fixed(region_drop, 1)),
            ]),
        ),
        ("speedup_streaming_vs_seed", Json::fixed(speedup, 3)),
        ("speedup_parallel_vs_serial", Json::fixed(par_speedup, 3)),
        ("subpaper", sp),
        (
            "agen_counters",
            Json::obj([
                ("live_spans", agen_paper.live_spans.into()),
                ("replayed_spans", agen_paper.replayed_spans.into()),
                ("window_jumps", agen_paper.window_jumps.into()),
                ("boundary_successors", agen_paper.boundary_successors.into()),
                ("skeleton_hits", agen_paper.skeleton_hits.into()),
                ("skeleton_misses", agen_paper.skeleton_misses.into()),
            ]),
        ),
        ("run_counters", runs_json(&rc_paper)),
        ("backends", bk),
        ("serving", sv),
        ("fabric", fb),
        ("paging", pg),
        ("cycle_exact", cycle_exact.into()),
    ]);
    std::fs::write("BENCH_sim.json", format!("{doc}\n")).expect("write BENCH_sim.json");
    println!("  [saved BENCH_sim.json]");
}

/// `--check`: every failing row of the gate table, one line each; the exit
/// code is 0 when all hold, 1 on a failure, 2 when a file cannot be read
/// as JSON.
fn check(fresh: &str, committed: &str) -> i32 {
    match gates::check_files(Path::new(fresh), Path::new(committed)) {
        Err(e) => {
            eprintln!("bench_sim --check: {e}");
            2
        }
        Ok(failures) if failures.is_empty() => {
            println!("bench_sim --check: {fresh} meets all {} gates", gates::GATES.len());
            0
        }
        Ok(failures) => {
            for f in &failures {
                println!("FAIL {f}");
            }
            println!("bench_sim --check: {} failures in {fresh}", failures.len());
            1
        }
    }
}

/// Host nanoseconds of one simulation of `spec` under `sys`.
fn time(sys: &SystemConfig, spec: &GemmSpec, opts: &SimOptions) -> f64 {
    let t0 = Instant::now();
    simulate_gemm_opt(sys, spec, opts, None);
    t0.elapsed().as_nanos() as f64
}

/// `n` interleaved pairs of host times of `a` and `b` (named `names`),
/// alternating which of the two runs first; every pair is printed with the
/// ratio of `a`'s time over `b`'s.
fn interleaved(
    what: &str,
    names: [&str; 2],
    n: usize,
    a: impl Fn() -> f64,
    b: impl Fn() -> f64,
) -> Vec<(f64, f64)> {
    (0..n)
        .map(|i| {
            let (ta, tb) = if i % 2 == 0 {
                let ta = a();
                (ta, b())
            } else {
                let tb = b();
                (a(), tb)
            };
            println!(
                "  {what} pair {i}: {} {:.1} ms, {} {:.1} ms, {:.2}x",
                names[0],
                ta / 1e6,
                names[1],
                tb / 1e6,
                ta / tb
            );
            (ta, tb)
        })
        .collect()
}

/// The median of `samples` (the upper one of an even count).
fn median(samples: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = samples.collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// The saturation knee of the serving sweep: the first load whose p99
/// exceeds this many times the unloaded p99.
const KNEE_FACTOR: f64 = 3.0;

/// The continuous-serving benchmark, on the analytic backend so the
/// 1000-request sweep fits the smoke budget. Two halves:
///
/// * A five-point offered-load sweep over the recommendation-heavy
///   DLRM/BERT/GPT2 mix, spanning unloaded to past-saturation. Everything
///   but wall-clock is deterministic (seeded arrivals, table-priced
///   batches), and the serial and `rayon::scope`-parallel sweeps must agree
///   bit-for-bit.
/// * The warm-vs-cold architecture differential: the same small trace
///   priced by one persistent session executor vs a fresh executor per
///   batch (the pre-refactor cold-start pipeline). Cycle-identical by
///   construction — asserted — so the wall-clock ratio isolates the cost
///   of rebuilding contexts/span programs/KeyRuns per request.
fn serving_section(sys: &SystemConfig) -> Json {
    let asys = sys.clone().with_backend(BackendKind::Analytic);
    let cfg = ServingConfig::for_system(&asys);
    let mix = RequestMix::recommendation_heavy();
    let t0 = Instant::now();
    let table = build_cost_table(&asys);
    let table_ms = t0.elapsed().as_nanos() as f64 / 1e6;
    const GAPS: &[f64] =
        &[400_000_000.0, 100_000_000.0, 25_000_000.0, 6_250_000.0, 1_562_500.0];
    let requests = 1000u64;
    let serial = sweep_loads(&table, &cfg, 5, mix, requests, GAPS, false);
    let sweep = sweep_loads(&table, &cfg, 5, mix, requests, GAPS, true);
    let serial_equals_parallel = serial == sweep;
    assert!(serial_equals_parallel, "parallel sweep diverged from serial");
    let knee = find_knee(&sweep, KNEE_FACTOR);
    println!(
        "  serving: {} pass costs in {table_ms:.0} ms; {requests}-request sweep, \
         knee at gap {:.0}",
        table.len(),
        GAPS[knee],
    );
    for (r, gap) in sweep.iter().zip(GAPS) {
        println!(
            "    gap {gap:>12.0}: p50 {:>11} p99 {:>11} served {:>4} rejected {:>4} \
             util {:.3}",
            r.p50, r.p99, r.served, r.rejected, r.channel_utilization,
        );
    }

    let diff_requests = 40u64;
    let dmix = RequestMix { dlrm: 0.8, bert: 0.2, gpt2: 0.0 };
    let trace = OpenLoopArrivals::trace(23, dmix, 400_000.0, diff_requests);
    let mut warm_coster = SessionCoster::new(asys.clone());
    let t0 = Instant::now();
    let warm = run_serving(&cfg, &trace, &mut warm_coster);
    let warm_wall_ns = t0.elapsed().as_nanos();
    let t0 = Instant::now();
    let cold = run_serving(&cfg, &trace, &mut ColdCoster::new(asys));
    let cold_wall_ns = t0.elapsed().as_nanos();
    assert_eq!(warm, cold, "session layer changed serving cycles");
    let session = warm_coster.executor().session();
    let warm_speedup = cold_wall_ns as f64 / warm_wall_ns.max(1) as f64;
    let warm_floor = gates::floor("serving.warm_vs_cold.speedup");
    println!(
        "  serving warm vs cold: {:.1} ms vs {:.1} ms ({warm_speedup:.1}x, floor \
         {warm_floor:.1}x; {} contexts, {} hits / {} misses)",
        warm_wall_ns as f64 / 1e6,
        cold_wall_ns as f64 / 1e6,
        session.len(),
        session.hits(),
        session.misses(),
    );
    let rows = sweep.iter().zip(GAPS).map(|(r, &gap)| {
        Json::obj([
            ("mean_gap_cycles", Json::fixed(gap, 0)),
            ("p50", r.p50.into()),
            ("p95", r.p95.into()),
            ("p99", r.p99.into()),
            ("served", r.served.into()),
            ("rejected", r.rejected.into()),
            ("batches", r.batches.into()),
            ("pim_batches", r.pim_batches.into()),
            ("mean_queue_depth", Json::fixed(r.mean_queue_depth, 3)),
            ("channel_utilization", Json::fixed(r.channel_utilization, 4)),
            ("internal_data_cycles", r.internal_data_cycles.into()),
        ])
    });
    Json::obj([
        ("requests", requests.into()),
        (
            "mix",
            Json::obj([
                ("dlrm", Json::fixed(mix.dlrm, 2)),
                ("bert", Json::fixed(mix.bert, 2)),
                ("gpt2", Json::fixed(mix.gpt2, 2)),
            ]),
        ),
        ("queue_cap", cfg.queue_cap.into()),
        ("max_batch_requests", cfg.max_batch_requests.into()),
        ("cost_table_entries", table.len().into()),
        ("sweep", Json::arr(rows)),
        ("knee_index", knee.into()),
        ("knee_factor", Json::fixed(KNEE_FACTOR, 1)),
        ("serial_equals_parallel", serial_equals_parallel.into()),
        (
            "warm_vs_cold",
            Json::obj([
                ("requests", diff_requests.into()),
                ("warm_wall_ns", warm_wall_ns.into()),
                ("cold_wall_ns", cold_wall_ns.into()),
                ("speedup", Json::fixed(warm_speedup, 2)),
                ("speedup_floor", Json::fixed(warm_floor, 1)),
                ("cycle_exact", true.into()),
                ("session_contexts", session.len().into()),
                ("session_hits", session.hits().into()),
                ("session_misses", session.misses().into()),
            ]),
        ),
    ])
}

/// The inter-device fabric comparison: the paper-scale GEMM on the exact
/// tier with `ReduceVia::Fabric` over a ring and a line of the four
/// DIMM-granular nodes, against the already-measured host-DMA streaming
/// run. The fabric path reuses the identical Phase-3 drain through the
/// memory backend and only *adds* PIM-to-PIM transit, so the DRAM command
/// stream, activity counts, and every non-Reduction phase must match the
/// host run bit for bit — asserted here, so `BENCH_sim.json` can never
/// record a fabric section that silently perturbed the default path.
/// Everything emitted (cycle counts, per-link byte/peak-demand stats, the
/// active-span GB/s figure) is deterministic.
fn fabric_section(
    sys: &SystemConfig,
    spec: &GemmSpec,
    opts: &SimOptions,
    host: &LatencyReport,
) -> Json {
    let cfg = FabricConfig::default();
    let host_reduce = host.phase(Phase::Reduction);
    let mut nodes = Vec::new();
    let mut topos = Vec::new();
    for kind in [TopologyKind::Ring, TopologyKind::Line] {
        let fsys =
            sys.clone().with_reduce_via(ReduceVia::Fabric).with_fabric(cfg.with_topology(kind));
        let t0 = Instant::now();
        let r = simulate_gemm_opt(&fsys, spec, opts, None);
        let wall_ms = t0.elapsed().as_nanos() as f64 / 1e6;
        assert_eq!(r.dram, host.dram, "fabric reduce changed the DRAM command stream");
        assert_eq!(r.activity, host.activity, "fabric reduce changed activity counts");
        for p in Phase::ALL {
            if p != Phase::Reduction {
                assert_eq!(r.phase(p), host.phase(p), "fabric reduce perturbed {p:?}");
            }
        }
        let stats = r.fabric.clone().expect("fabric stats under ReduceVia::Fabric");
        assert_eq!(stats.bytes_injected, stats.bytes_delivered, "fabric lost bytes in flight");
        assert!(stats.nodes >= 4, "paper-scale fabric must span >= 4 devices");
        let peak =
            stats.links.iter().map(|l| l.gbps_active(r.clock_hz)).fold(0.0f64, f64::max);
        println!(
            "  fabric {:<4} reduce {:>9} cycles (host-DMA {host_reduce}, +{} transit), \
             {} nodes, peak link {peak:.1} GB/s, {wall_ms:.0} ms",
            stats.topology,
            r.phase(Phase::Reduction),
            stats.reduce_fabric_cycles,
            stats.nodes,
        );
        let links = stats.links.iter().map(|l| {
            Json::obj([
                ("src", l.src.into()),
                ("dst", l.dst.into()),
                ("bytes", l.bytes.into()),
                ("busy_cycles", l.busy_cycles.into()),
                ("messages", l.messages.into()),
                ("peak_demand_bytes", l.peak_demand_bytes.into()),
                ("gbps", Json::fixed(l.gbps_active(host.clock_hz), 3)),
            ])
        });
        topos.push(Json::obj([
            ("topology", stats.topology.as_str().into()),
            ("total_cycles", r.total.into()),
            ("reduce_cycles", r.phase(Phase::Reduction).into()),
            ("fabric_cycles", stats.reduce_fabric_cycles.into()),
            ("bytes_injected", stats.bytes_injected.into()),
            ("peak_link_gbps", Json::fixed(peak, 3)),
            ("links", Json::arr(links)),
        ]));
        nodes.push(stats.nodes);
    }
    Json::obj([
        ("nodes", nodes[0].into()),
        ("link_bytes_per_cycle", cfg.link_bytes_per_cycle.into()),
        ("link_latency", cfg.link_latency.into()),
        (
            "host_dma",
            Json::obj([("total_cycles", host.total.into()), ("reduce_cycles", host_reduce.into())]),
        ),
        ("topologies", Json::arr(topos)),
        ("dram_identical", true.into()),
    ])
}

/// The VA->PA paging sweep: how much block-grouping locality each page
/// size preserves on the paper shape. The identity arm must stay
/// bit-identical to the contiguous baseline (asserted here); the
/// fragmented arms measure the real cost of a permuted frame allocation —
/// per-run cycle counts, run-granularity counters (page-clipped hints
/// shorten admitted runs), and a sampled same-key run-length ratio against
/// the native stream. All cycle counts and counters are deterministic
/// (serial engine).
fn paging_section(
    sys: &SystemConfig,
    serial_sys: &SystemConfig,
    spec: &GemmSpec,
    opts: &SimOptions,
    baseline_cycles: u64,
    baseline_rc: &RunCounters,
) -> Json {
    use stepstone_addr::{paged_run_stats, PageMap, PagingConfig};
    let isys = serial_sys.clone().with_paging(PagingConfig::identity(4096));
    let ir = simulate_gemm_opt(&isys, spec, opts, None);
    let identical = ir.total == baseline_cycles;
    assert!(identical, "identity paging diverged: {} vs {baseline_cycles}", ir.total);
    println!(
        "  paging identity-4KB: {} sim cycles (bit-identical to contiguous)",
        ir.total
    );

    // Representative fill plan for the sampled locality ratio: the first
    // localized-B region of the paper-shape context.
    let ctx = GemmContext::build(sys, spec, opts);
    let plan = &ctx.b_regions[0];
    let mapping = sys.mapping();
    let sample = plan.len().min(1 << 16);
    let native = {
        let map = PageMap::for_mapping(PagingConfig::identity(4096), &mapping);
        paged_run_stats(&map, plan, &mapping, sample)
    };
    let native_mean = native.mean_run_len();

    let mut arms = Vec::new();
    for page_bytes in [4096u64, 64 << 10, 2 << 20, 1 << 30] {
        let cfg = PagingConfig::fragmented(page_bytes, 42);
        let psys = serial_sys.clone().with_paging(cfg);
        reset_run_counters();
        let t0 = Instant::now();
        let r = simulate_gemm_opt(&psys, spec, opts, None);
        let wall_ns = t0.elapsed().as_nanos();
        let rc = run_counters();
        let map = PageMap::for_mapping(cfg, &mapping);
        // Locality sampled on the fill plan: same-key run length under this
        // page map vs the native (unpaged) key stream.
        let sampled = paged_run_stats(&map, plan, &mapping, sample);
        let blocks = r.dram.accesses();
        println!(
            "  paging {:>6} KiB: {:>7.1} ns/block, {} sim cycles ({:+.2}% vs contiguous), \
             runs {} (mean {:.1}, baseline {:.1}), sampled locality {:.2} ({} page splits)",
            page_bytes >> 10,
            wall_ns as f64 / blocks as f64,
            r.total,
            (r.total as f64 / baseline_cycles as f64 - 1.0) * 100.0,
            rc.runs,
            rc.mean_run_len(),
            baseline_rc.mean_run_len(),
            sampled.mean_run_len() / native_mean,
            sampled.page_splits,
        );
        arms.push(Json::obj([
            ("page_bytes", page_bytes.into()),
            ("wall_ns", wall_ns.into()),
            ("sim_cycles", r.total.into()),
            ("ns_per_block", Json::fixed(wall_ns as f64 / blocks as f64, 2)),
            ("cycles_vs_baseline", Json::fixed(r.total as f64 / baseline_cycles as f64, 4)),
            ("run_counters", runs_json(&rc)),
            (
                "sampled",
                Json::obj([
                    ("blocks", sampled.blocks.into()),
                    ("runs", sampled.runs.into()),
                    ("mean_run_len", Json::fixed(sampled.mean_run_len(), 2)),
                    ("page_splits", sampled.page_splits.into()),
                    ("locality_vs_native", Json::fixed(sampled.mean_run_len() / native_mean, 4)),
                ]),
            ),
        ]));
    }
    Json::obj([
        ("baseline_sim_cycles", baseline_cycles.into()),
        (
            "identity",
            Json::obj([
                ("page_bytes", 4096u64.into()),
                ("sim_cycles", ir.total.into()),
                ("bit_identical", identical.into()),
            ]),
        ),
        ("arms", Json::arr(arms)),
        ("native_sampled_mean_run_len", Json::fixed(native_mean, 2)),
    ])
}

/// Time the analytic tier on the paper-scale shape against the already
/// measured exact streaming time (the median of the interleaved
/// streaming runs), then smoke every DRAM preset on the exact
/// tier at a small shape (different geometry → generic mapping fallback;
/// the point is "completes and yields sane wall-clock seconds", the cycle
/// values are recorded for drift tracking, not compared across presets).
fn backends_section(
    sys: &SystemConfig,
    spec: &GemmSpec,
    opts: &SimOptions,
    exact_wall_ns: u128,
    exact_cycles: u64,
) -> Json {
    let asys = sys.clone().with_backend(BackendKind::Analytic);
    let mut analytic_wall_ns = u128::MAX;
    let mut analytic_cycles = 0u64;
    // Best-of-3: the closed-form executor is fast enough for host noise to
    // dominate a single measurement.
    for i in 0..3 {
        let t0 = Instant::now();
        let r = simulate_gemm_opt(&asys, spec, opts, None);
        let wall_ns = t0.elapsed().as_nanos();
        println!("  analytic run {i}: {:.2} ms", wall_ns as f64 / 1e6);
        analytic_wall_ns = analytic_wall_ns.min(wall_ns);
        analytic_cycles = r.total;
    }
    let speedup = exact_wall_ns as f64 / analytic_wall_ns.max(1) as f64;
    let cycles_ratio = analytic_cycles as f64 / exact_cycles as f64;
    let floor = gates::floor("backends.analytic.speedup_vs_exact");
    println!(
        "  analytic tier: {:>8.2} ms  ({analytic_cycles} sim cycles, {:.2}x of exact, \
         {speedup:.0}x faster than the streaming median {:.1} ms; floor {floor:.0}x)",
        analytic_wall_ns as f64 / 1e6,
        cycles_ratio,
        exact_wall_ns as f64 / 1e6,
    );

    let smoke = GemmSpec::new(512, 2048, 8);
    let presets = DramConfig::PRESET_NAMES.iter().map(|&name| {
        let psys = sys.clone().with_dram(DramConfig::by_name(name).expect("preset"));
        let r = simulate_gemm_opt(&psys, &smoke, opts, None);
        println!(
            "  preset {name:<7} {:>10} sim cycles @ {:>4} MHz = {:.3} ms simulated",
            r.total,
            psys.dram.clock_hz / 1_000_000,
            r.seconds() * 1e3,
        );
        Json::obj([
            ("name", name.into()),
            ("sim_cycles", r.total.into()),
            ("clock_hz", psys.dram.clock_hz.into()),
            ("seconds", Json::fixed(r.seconds(), 6)),
        ])
    });
    Json::obj([
        (
            "exact",
            Json::obj([("wall_ns", exact_wall_ns.into()), ("sim_cycles", exact_cycles.into())]),
        ),
        (
            "analytic",
            Json::obj([
                ("wall_ns", analytic_wall_ns.into()),
                ("sim_cycles", analytic_cycles.into()),
                ("cycles_ratio_vs_exact", Json::fixed(cycles_ratio, 4)),
                ("speedup_vs_exact", Json::fixed(speedup, 1)),
            ]),
        ),
        ("speedup_floor", Json::fixed(floor, 1)),
        ("presets", Json::arr(presets)),
    ])
}

/// Human-readable fallback split, nonzero causes only.
fn fallback_summary(c: &RunCounters) -> String {
    let mut s = String::new();
    for (i, label) in FB_LABELS.iter().enumerate() {
        if c.fallback[i] > 0 {
            let _ = write!(s, "{}{label}: {}", if s.is_empty() { "" } else { ", " }, c.fallback[i]);
        }
    }
    if s.is_empty() {
        s.push_str("none");
    }
    s
}

/// The run-granularity counters as a JSON object.
fn runs_json(c: &RunCounters) -> Json {
    Json::obj([
        ("runs", c.runs.into()),
        ("run_blocks", c.run_blocks.into()),
        ("mean_run_len", Json::fixed(c.mean_run_len(), 2)),
        ("hist", Json::arr(c.hist.iter().map(|&h| h.into()))),
        ("fallback", Json::obj(FB_LABELS.iter().zip(c.fallback).map(|(&l, n)| (l, n.into())))),
    ])
}

/// Measure the sub-paper serving shape: cold and warm streaming runs (the
/// span-program cache persists across simulations, so "warm" is the
/// steady state of repeated Table-I layers), the frozen seed replay for a
/// cycle cross-check, and the production span generator alone. The
/// span-program counters of the last, fully warm span-generation pass
/// (cache hits and misses, how window boundaries were crossed) and the
/// warm run's run-granularity counters are deterministic (serial loop).
fn subpaper_section(sys: &SystemConfig, serial_sys: &SystemConfig) -> Json {
    let (m, k, n) = (512, 512, 32);
    let spec = GemmSpec::new(m, k, n);
    let opts = SimOptions::stepstone(PimLevel::BankGroup);
    let timed = |sys: &SystemConfig| {
        let t0 = Instant::now();
        let rep = simulate_gemm_opt(sys, &spec, &opts, None);
        (t0.elapsed().as_nanos() as f64, rep)
    };
    let (cold_ns, cold) = timed(sys);
    reset_run_counters();
    let (warm_ns, warm) = timed(sys);
    let rc = run_counters();
    let t0 = Instant::now();
    let seed = simulate_pow2_gemm_seed(serial_sys, &spec, &opts);
    let seed_ns = t0.elapsed().as_nanos() as f64;
    let blocks = cold.dram.accesses() as f64;
    let cycle_exact = cold.total == warm.total
        && cold.total == seed.total
        && cold.dram.accesses() == seed.dram.accesses();
    assert!(cycle_exact, "sub-paper modes disagree on simulated cycles/blocks");

    // Span generation alone, over every Algorithm-1 cell, best-of-5. The
    // last pass's counters (fully warm: every window replayed, boundaries
    // crossed by the window successor) go into the JSON.
    let ctx = GemmContext::build(sys, &spec, &opts);
    let mut best_ns_per_span = f64::MAX;
    let mut spans = 0u64;
    let mut agen = stepstone_addr::agen::AgenCounters::default();
    for _ in 0..5 {
        let t0 = Instant::now();
        spans = 0;
        stepstone_addr::agen::reset_agen_counters();
        for &pim in &ctx.active_pims {
            for grp in 0..ctx.ga.n_groups() {
                if !ctx.ga.is_admissible(pim, grp) {
                    continue;
                }
                for rpart in 0..ctx.plan.rparts {
                    for cpart in 0..ctx.plan.cparts {
                        let mut cs = ctx.ga.constraints_for(pim, grp);
                        cs.extend(partition_constraints(
                            ctx.layout.mrow_mask(),
                            ctx.plan.rparts,
                            rpart,
                        ));
                        cs.extend(partition_constraints(
                            ctx.layout.mcol_mask(),
                            ctx.plan.cparts,
                            cpart,
                        ));
                        spans += StepStoneAgen::new(cs, ctx.layout.base, ctx.layout.end())
                            .span_program()
                            .count() as u64;
                    }
                }
            }
        }
        let ns = t0.elapsed().as_nanos() as f64 / spans.max(1) as f64;
        best_ns_per_span = best_ns_per_span.min(ns);
        agen = stepstone_addr::agen::agen_counters();
    }
    // Skeleton spans resident in the global span-program cache after the
    // runs (bounded by its caps; the replay working set).
    let cache_resident_spans = stepstone_addr::agen::span_cache_resident_spans();
    println!(
        "  sub-paper {m}x{k} N={n}: cold {:.1} / warm {:.1} / seed {:.1} ns/block, \
         agen {best_ns_per_span:.1} ns/span ({spans} spans, {:.2}x warm vs seed, \
         {cache_resident_spans} cached spans)",
        cold_ns / blocks,
        warm_ns / blocks,
        seed_ns / blocks,
        seed_ns / warm_ns,
    );
    println!(
        "  sub-paper agen (warm): {} hit / {} missed skeletons, boundaries {} live / {} jumped",
        agen.skeleton_hits, agen.skeleton_misses, agen.boundary_successors, agen.window_jumps,
    );
    println!(
        "  sub-paper runs (warm): {} admitted covering {} blocks (mean {:.1}); fallback {}",
        rc.runs,
        rc.run_blocks,
        rc.mean_run_len(),
        fallback_summary(&rc),
    );
    let (cold, warm, seed) = (cold_ns / blocks, warm_ns / blocks, seed_ns / blocks);
    Json::obj([
        ("m", m.into()),
        ("k", k.into()),
        ("n", n.into()),
        ("level", "BG".into()),
        ("cold_ns_per_block", Json::fixed(cold, 2)),
        ("warm_ns_per_block", Json::fixed(warm, 2)),
        ("seed_ns_per_block", Json::fixed(seed, 2)),
        ("speedup_warm_vs_seed", Json::fixed(seed / warm, 3)),
        ("agen_ns_per_span", Json::fixed(best_ns_per_span, 2)),
        ("cache_resident_spans", cache_resident_spans.into()),
        ("span_cache_hits", agen.skeleton_hits.into()),
        ("span_cache_misses", agen.skeleton_misses.into()),
        ("boundary_successors", agen.boundary_successors.into()),
        ("window_jumps", agen.window_jumps.into()),
        ("run_counters", runs_json(&rc)),
        ("cycle_exact", cycle_exact.into()),
    ])
}
