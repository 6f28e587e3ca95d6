//! End-to-end simulator hot-path benchmark: the streaming engine (with and
//! without per-channel parallel sharding) vs the seed's
//! materialize-then-replay path, on a paper-scale GEMM.
//!
//! Emits `BENCH_sim.json` (in the working directory) so the perf
//! trajectory of the simulation hot path is tracked from PR to PR:
//!
//! ```json
//! {
//!   "bench": "sim_hot_path",
//!   "config": {"m":…, "k":…, "n":…, "level":"BG", "pims":…, "threads":…},
//!   "runs": [{"mode":…, "wall_ns":…, "blocks":…, "ns_per_block":…,
//!             "sim_cycles":…, "peak_resident_steps":…}, …],
//!   "region_addrs": {"materialized":…, "resident":…, "drop":…},
//!   "speedup_streaming_vs_seed": …,
//!   "speedup_parallel_vs_serial": …,
//!   "subpaper": {"m":…, "k":…, "n":…, "cold_ns_per_block":…,
//!                "warm_ns_per_block":…, "seed_ns_per_block":…,
//!                "speedup_warm_vs_seed":…, "agen_ns_per_span":…,
//!                "cache_resident_spans":…,
//!                "span_cache_hits":…, "span_cache_misses":…,
//!                "boundary_successors":…, "window_jumps":…,
//!                "run_counters": {…}, "cycle_exact": true},
//!   "agen_counters": {"live_spans":…, "replayed_spans":…,
//!                     "window_jumps":…, "boundary_successors":…,
//!                     "skeleton_hits":…, "skeleton_misses":…},
//!   "run_counters": {"runs":…, "run_blocks":…, "mean_run_len":…,
//!                    "hist": […], "fallback": {"refresh":…, "row":…,
//!                    "trace":…, "traffic":…, "other":…}},
//!   "backends": {"exact": {"wall_ns":…, "sim_cycles":…},
//!                "analytic": {"wall_ns":…, "sim_cycles":…,
//!                             "cycles_ratio_vs_exact":…, "speedup_vs_exact":…},
//!                "speedup_floor": 20.0,
//!                "presets": [{"name":…, "sim_cycles":…, "clock_hz":…,
//!                             "seconds":…}, …]},
//!   "serving": {"requests": 1000, "mix": {…}, "queue_cap":…,
//!               "max_batch_requests":…, "cost_table_entries":…,
//!               "sweep": [{"mean_gap_cycles":…, "p50":…, "p95":…, "p99":…,
//!                          "served":…, "rejected":…, "batches":…,
//!                          "pim_batches":…, "mean_queue_depth":…,
//!                          "channel_utilization":…,
//!                          "internal_data_cycles":…}, …],
//!               "knee_index":…, "knee_factor": 3.0,
//!               "serial_equals_parallel": true,
//!               "warm_vs_cold": {"requests":…, "warm_wall_ns":…,
//!                                "cold_wall_ns":…, "speedup":…,
//!                                "speedup_floor": 1.2, "cycle_exact": true,
//!                                "session_contexts":…, "session_hits":…,
//!                                "session_misses":…}},
//!   "fabric": {"nodes":…, "link_bytes_per_cycle":…, "link_latency":…,
//!              "host_dma": {"total_cycles":…, "reduce_cycles":…},
//!              "topologies": [{"topology": "ring", "total_cycles":…,
//!                              "reduce_cycles":…, "fabric_cycles":…,
//!                              "bytes_injected":…, "peak_link_gbps":…,
//!                              "links": [{"src":…, "dst":…, "bytes":…,
//!                                         "busy_cycles":…, "messages":…,
//!                                         "peak_demand_bytes":…,
//!                                         "gbps":…}, …]}, …],
//!              "dram_identical": true},
//!   "paging": {"baseline_sim_cycles":…,
//!              "identity": {"page_bytes": 4096, "sim_cycles":…,
//!                           "bit_identical": true},
//!              "arms": [{"page_bytes":…, "wall_ns":…, "sim_cycles":…,
//!                        "ns_per_block":…, "cycles_vs_baseline":…,
//!                        "run_counters": {…},
//!                        "sampled": {"blocks":…, "runs":…,
//!                                    "mean_run_len":…, "page_splits":…,
//!                                    "locality_vs_native":…}}, …],
//!              "native_sampled_mean_run_len":…},
//!   "cycle_exact": true
//! }
//! ```
//!
//! The paper-shape wall-clock figures `make bench-smoke` gates are
//! medians of interleaved repeated runs, every run printed: each mode's
//! `wall_ns` and `speedup_streaming_vs_seed` over 3 seed/streaming pairs
//! (`streaming-serial` over the 5 serial runs of the parallel/serial
//! pairs), and `speedup_parallel_vs_serial` over those 5 pairs.
//!
//! The `subpaper` section tracks the Table-I serving shapes (batch-scale
//! GEMMs) where AGEN, not DRAM timing, dominates: `cold` is the first
//! simulation of the shape (span-program cache empty), `warm` the second —
//! the steady state of repeated layers — and `agen_ns_per_span` times the
//! production span generator alone across every Algorithm-1 cell
//! (best-of-N to damp host noise; regression-gated by `make bench-smoke`).
//! Span-program *counters* (deterministic, unlike wall time) are recorded
//! twice: `agen_counters` for the paper-scale streaming-serial run and the
//! `subpaper` hit/miss/boundary fields for the warm span-generation pass —
//! `make bench-smoke` gates the paper-scale `boundary_successors` count so
//! a window-successor or skeleton-cache regression cannot hide in host
//! noise. Run-granularity counters (PR 6) are recorded the same way:
//! `run_counters` holds the paper-scale streaming-serial admission stats
//! (runs, blocks-per-run histogram, per-block fallback splits by cause),
//! the `subpaper` section its warm-run equivalent — both deterministic,
//! both checked for serial/parallel agreement here and exact-match gated
//! by `make bench-smoke`.
//!
//! Usage: `bench_sim [--quick] [M K N]`. `--quick` (or
//! `STEPSTONE_SCALE=quick`) runs a reduced shape for smoke tests.

use std::fmt::Write as _;
use std::time::Instant;
use stepstone_addr::groups::partition_constraints;
use stepstone_addr::{PimLevel, StepStoneAgen};
use stepstone_bench::seed_replay::simulate_pow2_gemm_seed;
use stepstone_core::engine::{reset_run_counters, run_counters, RunCounters, FB_LABELS};
use stepstone_core::flow::KernelStream;
use stepstone_core::{
    simulate_gemm_opt, FabricConfig, FabricStats, GemmContext, GemmSpec,
    LatencyReport, Phase, ReduceVia, SimOptions, SystemConfig, TopologyKind,
};
use stepstone_dram::{BackendKind, DramConfig};
use stepstone_serving::{
    build_cost_table, find_knee, run_serving, sweep_loads, ColdCoster, ServingConfig,
    ServingReport, SessionCoster,
};
use stepstone_workloads::{OpenLoopArrivals, RequestMix};

struct Run {
    mode: &'static str,
    wall_ns: u128,
    sim_cycles: u64,
    blocks: u64,
    peak_resident_steps: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
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
    let mut runs = Vec::new();
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
    // The streaming run's full report doubles as the host-DMA reference for
    // the fabric comparison (same shape, same engine, default reduce path).
    let mut host_report: Option<LatencyReport> = None;
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
            host_report = Some(report.clone());
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
        runs.push(Run {
            mode: label,
            wall_ns,
            sim_cycles: report.total,
            blocks,
            peak_resident_steps: resident,
        });
    }

    assert_eq!(
        rc_paper, rc_parallel,
        "run-granularity counters disagree between serial and parallel engines"
    );

    // ---- sub-paper-scale serving shape (Table-I batch GEMMs) ----
    let sp = subpaper_section(&sys, &serial_sys);

    // ---- continuous serving (PR 8): load sweep + warm-vs-cold sessions ----
    let sv = serving_section(&sys);

    // ---- inter-device fabric (PR 9): PIM-to-PIM reduce, line vs ring ----
    let fb = fabric_section(&sys, &spec, &opts, host_report.as_ref().expect("streaming run"));

    // ---- VA->PA paging (PR 10): locality preserved per page size ----
    let pg = paging_section(&sys, &serial_sys, &spec, &opts, runs[0].sim_cycles, &rc_paper);

    let cycle_exact = runs.windows(2).all(|w| {
        w[0].sim_cycles == w[1].sim_cycles && w[0].blocks == w[1].blocks
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
    runs[2].wall_ns = median(pairs.iter().map(|p| p.0)) as u128;
    runs[0].wall_ns = median(pairs.iter().map(|p| p.1)) as u128;
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
    runs[1].wall_ns = median(pairs.iter().map(|p| p.0)) as u128;
    println!(
        "  speedup parallel vs serial engine: {par_speedup:.2}x, median of 5 pairs \
         ({threads} threads); streaming-serial {:.1} ns/block, median of its 5 runs",
        runs[1].wall_ns as f64 / runs[1].blocks as f64
    );

    // ---- backend tiers (PR 7): analytic fast model + device presets ----
    // Against the streaming median of the interleaved pairs above.
    let bk = backends_section(&sys, &spec, &opts, runs[0].wall_ns, runs[0].sim_cycles);

    let mut json = String::from("{\n  \"bench\": \"sim_hot_path\",\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"m\": {m}, \"k\": {k}, \"n\": {n}, \"level\": \"{}\", \
         \"pims\": {units}, \"threads\": {threads}}},",
        level.tag()
    );
    json.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"mode\": \"{}\", \"wall_ns\": {}, \"sim_cycles\": {}, \"blocks\": {}, \
             \"ns_per_block\": {:.2}, \"peak_resident_steps\": {}}}",
            r.mode,
            r.wall_ns,
            r.sim_cycles,
            r.blocks,
            r.wall_ns as f64 / r.blocks as f64,
            r.peak_resident_steps,
        );
        json.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"region_addrs\": {{\"materialized\": {region_addrs_materialized}, \
         \"resident\": {region_addrs_resident}, \"drop\": {region_drop:.1}}},"
    );
    let _ = writeln!(json, "  \"speedup_streaming_vs_seed\": {speedup:.3},");
    let _ = writeln!(json, "  \"speedup_parallel_vs_serial\": {par_speedup:.3},");
    let _ = writeln!(
        json,
        "  \"subpaper\": {{\"m\": {}, \"k\": {}, \"n\": {}, \"level\": \"BG\", \
         \"cold_ns_per_block\": {:.2}, \"warm_ns_per_block\": {:.2}, \
         \"seed_ns_per_block\": {:.2}, \"speedup_warm_vs_seed\": {:.3}, \
         \"agen_ns_per_span\": {:.2}, \"cache_resident_spans\": {}, \
         \"span_cache_hits\": {}, \"span_cache_misses\": {}, \
         \"boundary_successors\": {}, \"window_jumps\": {}, \
         \"run_counters\": {}, \"cycle_exact\": {}}},",
        sp.m,
        sp.k,
        sp.n,
        sp.cold_ns_per_block,
        sp.warm_ns_per_block,
        sp.seed_ns_per_block,
        sp.seed_ns_per_block / sp.warm_ns_per_block,
        sp.agen_ns_per_span,
        sp.cache_resident_spans,
        sp.agen.skeleton_hits,
        sp.agen.skeleton_misses,
        sp.agen.boundary_successors,
        sp.agen.window_jumps,
        run_counters_json(&sp.run_counters),
        sp.cycle_exact,
    );
    let _ = writeln!(
        json,
        "  \"agen_counters\": {{\"live_spans\": {}, \"replayed_spans\": {}, \
         \"window_jumps\": {}, \"boundary_successors\": {}, \
         \"skeleton_hits\": {}, \"skeleton_misses\": {}}},",
        agen_paper.live_spans,
        agen_paper.replayed_spans,
        agen_paper.window_jumps,
        agen_paper.boundary_successors,
        agen_paper.skeleton_hits,
        agen_paper.skeleton_misses,
    );
    let _ = writeln!(json, "  \"run_counters\": {},", run_counters_json(&rc_paper));
    json.push_str("  \"backends\": {\n");
    let _ = writeln!(
        json,
        "    \"exact\": {{\"wall_ns\": {}, \"sim_cycles\": {}}},",
        runs[0].wall_ns, runs[0].sim_cycles,
    );
    let _ = writeln!(
        json,
        "    \"analytic\": {{\"wall_ns\": {}, \"sim_cycles\": {}, \
         \"cycles_ratio_vs_exact\": {:.4}, \"speedup_vs_exact\": {:.1}}},",
        bk.analytic_wall_ns, bk.analytic_cycles, bk.cycles_ratio, bk.speedup,
    );
    let _ = writeln!(json, "    \"speedup_floor\": {:.1},", ANALYTIC_SPEEDUP_FLOOR);
    json.push_str("    \"presets\": [\n");
    for (i, p) in bk.presets.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"name\": \"{}\", \"sim_cycles\": {}, \"clock_hz\": {}, \
             \"seconds\": {:.6}}}",
            p.name, p.sim_cycles, p.clock_hz, p.seconds,
        );
        json.push_str(if i + 1 < bk.presets.len() { ",\n" } else { "\n" });
    }
    json.push_str("    ]\n  },\n");
    json.push_str("  \"serving\": {\n");
    let _ = writeln!(
        json,
        "    \"requests\": {}, \"mix\": {{\"dlrm\": {:.2}, \"bert\": {:.2}, \"gpt2\": {:.2}}},",
        sv.requests, sv.mix.dlrm, sv.mix.bert, sv.mix.gpt2,
    );
    let _ = writeln!(
        json,
        "    \"queue_cap\": {}, \"max_batch_requests\": {}, \"cost_table_entries\": {},",
        sv.cfg.queue_cap, sv.cfg.max_batch_requests, sv.table_entries,
    );
    json.push_str("    \"sweep\": [\n");
    for (i, (r, gap)) in sv.sweep.iter().zip(sv.gaps).enumerate() {
        let _ = write!(
            json,
            "      {{\"mean_gap_cycles\": {gap:.0}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \
             \"served\": {}, \"rejected\": {}, \"batches\": {}, \"pim_batches\": {}, \
             \"mean_queue_depth\": {:.3}, \"channel_utilization\": {:.4}, \
             \"internal_data_cycles\": {}}}",
            r.p50,
            r.p95,
            r.p99,
            r.served,
            r.rejected,
            r.batches,
            r.pim_batches,
            r.mean_queue_depth,
            r.channel_utilization,
            r.internal_data_cycles,
        );
        json.push_str(if i + 1 < sv.sweep.len() { ",\n" } else { "\n" });
    }
    json.push_str("    ],\n");
    let _ = writeln!(
        json,
        "    \"knee_index\": {}, \"knee_factor\": 3.0, \"serial_equals_parallel\": {},",
        sv.knee, sv.serial_equals_parallel,
    );
    let _ = writeln!(
        json,
        "    \"warm_vs_cold\": {{\"requests\": {}, \"warm_wall_ns\": {}, \"cold_wall_ns\": {}, \
         \"speedup\": {:.2}, \"speedup_floor\": {SERVING_WARM_SPEEDUP_FLOOR:.1}, \
         \"cycle_exact\": true, \"session_contexts\": {}, \"session_hits\": {}, \
         \"session_misses\": {}}}",
        sv.diff_requests,
        sv.warm_wall_ns,
        sv.cold_wall_ns,
        sv.warm_speedup,
        sv.session_contexts,
        sv.session_hits,
        sv.session_misses,
    );
    json.push_str("  },\n");
    json.push_str("  \"fabric\": {\n");
    let _ = writeln!(
        json,
        "    \"nodes\": {}, \"link_bytes_per_cycle\": {}, \"link_latency\": {},",
        fb.nodes, fb.link_bytes_per_cycle, fb.link_latency,
    );
    let _ = writeln!(
        json,
        "    \"host_dma\": {{\"total_cycles\": {}, \"reduce_cycles\": {}}},",
        fb.host_total, fb.host_reduce,
    );
    json.push_str("    \"topologies\": [\n");
    for (i, t) in fb.topos.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"topology\": \"{}\", \"total_cycles\": {}, \"reduce_cycles\": {}, \
             \"fabric_cycles\": {}, \"bytes_injected\": {}, \"peak_link_gbps\": {:.3},",
            t.stats.topology,
            t.total_cycles,
            t.reduce_cycles,
            t.stats.reduce_fabric_cycles,
            t.stats.bytes_injected,
            t.peak_link_gbps,
        );
        json.push_str("       \"links\": [\n");
        for (j, l) in t.stats.links.iter().enumerate() {
            let _ = write!(
                json,
                "        {{\"src\": {}, \"dst\": {}, \"bytes\": {}, \"busy_cycles\": {}, \
                 \"messages\": {}, \"peak_demand_bytes\": {}, \"gbps\": {:.3}}}",
                l.src,
                l.dst,
                l.bytes,
                l.busy_cycles,
                l.messages,
                l.peak_demand_bytes,
                l.gbps_active(fb.clock_hz),
            );
            json.push_str(if j + 1 < t.stats.links.len() { ",\n" } else { "\n" });
        }
        json.push_str("       ]}");
        json.push_str(if i + 1 < fb.topos.len() { ",\n" } else { "\n" });
    }
    json.push_str("    ],\n");
    json.push_str("    \"dram_identical\": true\n");
    json.push_str("  },\n");
    json.push_str("  \"paging\": {\n");
    let _ = writeln!(
        json,
        "    \"baseline_sim_cycles\": {}, \"identity\": {{\"page_bytes\": 4096, \
         \"sim_cycles\": {}, \"bit_identical\": {}}},",
        runs[0].sim_cycles, pg.identity_sim_cycles, pg.identity_bit_identical,
    );
    json.push_str("    \"arms\": [\n");
    for (i, a) in pg.arms.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"page_bytes\": {}, \"wall_ns\": {}, \"sim_cycles\": {}, \
             \"ns_per_block\": {:.2}, \"cycles_vs_baseline\": {:.4}, \
             \"run_counters\": {},",
            a.page_bytes,
            a.wall_ns,
            a.sim_cycles,
            a.wall_ns as f64 / a.blocks as f64,
            a.sim_cycles as f64 / runs[0].sim_cycles as f64,
            run_counters_json(&a.run_counters),
        );
        let _ = write!(
            json,
            "       \"sampled\": {{\"blocks\": {}, \"runs\": {}, \"mean_run_len\": {:.2}, \
             \"page_splits\": {}, \"locality_vs_native\": {:.4}}}}}",
            a.sampled.blocks,
            a.sampled.runs,
            a.sampled.mean_run_len(),
            a.sampled.page_splits,
            a.sampled.mean_run_len() / pg.native_mean_run_len,
        );
        json.push_str(if i + 1 < pg.arms.len() { ",\n" } else { "\n" });
    }
    json.push_str("    ],\n");
    let _ = writeln!(
        json,
        "    \"native_sampled_mean_run_len\": {:.2}\n  }},",
        pg.native_mean_run_len
    );
    let _ = writeln!(json, "  \"cycle_exact\": {cycle_exact}");
    json.push_str("}\n");
    std::fs::write("BENCH_sim.json", &json).expect("write BENCH_sim.json");
    println!("  [saved BENCH_sim.json]");
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

/// The committed analytic-tier speedup floor: the closed-form executor
/// must stay at least this much faster than the exact streaming engine on
/// the paper-scale shape (`make bench-smoke` gates it).
const ANALYTIC_SPEEDUP_FLOOR: f64 = 20.0;

/// Warm-session wall-clock floor: a serving run priced by the persistent
/// session executor must beat the same run priced by per-batch cold-start
/// executors by at least this factor (`make bench-smoke` gates it; the
/// measured ratio is far higher, the floor only guards the architecture).
const SERVING_WARM_SPEEDUP_FLOOR: f64 = 1.2;

struct ServingSection {
    requests: u64,
    mix: RequestMix,
    cfg: ServingConfig,
    table_entries: usize,
    gaps: &'static [f64],
    sweep: Vec<ServingReport>,
    knee: usize,
    serial_equals_parallel: bool,
    diff_requests: u64,
    warm_wall_ns: u128,
    cold_wall_ns: u128,
    warm_speedup: f64,
    session_contexts: usize,
    session_hits: u64,
    session_misses: u64,
}

/// The continuous-serving benchmark (PR 8), on the analytic backend so the
/// 1000-request sweep fits the smoke budget. Two halves:
///
/// * A five-point offered-load sweep over the recommendation-heavy
///   DLRM/BERT/GPT2 mix, spanning unloaded to past-saturation. Everything
///   but wall-clock is deterministic (seeded arrivals, table-priced
///   batches), so the smoke gate exact-matches the percentiles, and the
///   serial and `rayon::scope`-parallel sweeps must agree bit-for-bit.
/// * The warm-vs-cold architecture differential: the same small trace
///   priced by one persistent session executor vs a fresh executor per
///   batch (the pre-refactor cold-start pipeline). Cycle-identical by
///   construction — asserted — so the wall-clock ratio isolates the cost
///   of rebuilding contexts/span programs/KeyRuns per request.
fn serving_section(sys: &SystemConfig) -> ServingSection {
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
    let knee = find_knee(&sweep, 3.0);
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
    println!(
        "  serving warm vs cold: {:.1} ms vs {:.1} ms ({warm_speedup:.1}x, floor \
         {SERVING_WARM_SPEEDUP_FLOOR:.1}x; {} contexts, {} hits / {} misses)",
        warm_wall_ns as f64 / 1e6,
        cold_wall_ns as f64 / 1e6,
        session.len(),
        session.hits(),
        session.misses(),
    );
    ServingSection {
        requests,
        mix,
        cfg,
        table_entries: table.len(),
        gaps: GAPS,
        sweep,
        knee,
        serial_equals_parallel,
        diff_requests,
        warm_wall_ns,
        cold_wall_ns,
        warm_speedup,
        session_contexts: session.len(),
        session_hits: session.hits(),
        session_misses: session.misses(),
    }
}

struct FabricTopoRun {
    total_cycles: u64,
    reduce_cycles: u64,
    peak_link_gbps: f64,
    stats: FabricStats,
}

struct FabricSection {
    nodes: usize,
    link_bytes_per_cycle: u64,
    link_latency: u64,
    clock_hz: u64,
    host_total: u64,
    host_reduce: u64,
    topos: Vec<FabricTopoRun>,
}

/// The inter-device fabric comparison (PR 9): the paper-scale GEMM on the
/// exact tier with `ReduceVia::Fabric` over a ring and a line of the four
/// DIMM-granular nodes, against the already-measured host-DMA streaming
/// run. The fabric path reuses the identical Phase-3 drain through the
/// memory backend and only *adds* PIM-to-PIM transit, so the DRAM command
/// stream, activity counts, and every non-Reduction phase must match the
/// host run bit for bit — asserted here, so `BENCH_sim.json` can never
/// record a fabric section that silently perturbed the default path.
/// Everything emitted (cycle counts, per-link byte/peak-demand stats, the
/// active-span GB/s figure) is deterministic and exact-match gated by
/// `make bench-smoke`.
fn fabric_section(
    sys: &SystemConfig,
    spec: &GemmSpec,
    opts: &SimOptions,
    host: &LatencyReport,
) -> FabricSection {
    let cfg = FabricConfig::default();
    let host_reduce = host.phase(Phase::Reduction);
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
        topos.push(FabricTopoRun {
            total_cycles: r.total,
            reduce_cycles: r.phase(Phase::Reduction),
            peak_link_gbps: peak,
            stats,
        });
    }
    FabricSection {
        nodes: topos[0].stats.nodes,
        link_bytes_per_cycle: cfg.link_bytes_per_cycle,
        link_latency: cfg.link_latency,
        clock_hz: host.clock_hz,
        host_total: host.total,
        host_reduce,
        topos,
    }
}

struct PagingArm {
    page_bytes: u64,
    wall_ns: u128,
    sim_cycles: u64,
    blocks: u64,
    run_counters: RunCounters,
    /// Locality sampled on a representative fill plan: same-key run length
    /// under this page map vs the native (unpaged) key stream.
    sampled: stepstone_addr::PagedRunStats,
}

struct PagingSection {
    identity_sim_cycles: u64,
    identity_bit_identical: bool,
    native_mean_run_len: f64,
    arms: Vec<PagingArm>,
}

/// The VA->PA paging sweep (PR 10): how much block-grouping locality each
/// page size preserves on the paper shape. The identity arm must stay
/// bit-identical to the contiguous baseline (asserted here *and* gated in
/// `make bench-smoke`); the fragmented arms measure the real cost of a
/// permuted frame allocation — per-run cycle counts, run-granularity
/// counters (page-clipped hints shorten admitted runs), and a sampled
/// same-key run-length ratio against the native stream. All cycle counts
/// and counters are deterministic (serial engine) and exact-match gated.
fn paging_section(
    sys: &SystemConfig,
    serial_sys: &SystemConfig,
    spec: &GemmSpec,
    opts: &SimOptions,
    baseline_cycles: u64,
    baseline_rc: &RunCounters,
) -> PagingSection {
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
        arms.push(PagingArm {
            page_bytes,
            wall_ns,
            sim_cycles: r.total,
            blocks,
            run_counters: rc,
            sampled,
        });
    }
    PagingSection {
        identity_sim_cycles: ir.total,
        identity_bit_identical: identical,
        native_mean_run_len: native_mean,
        arms,
    }
}

struct PresetSmoke {
    name: &'static str,
    sim_cycles: u64,
    clock_hz: u64,
    seconds: f64,
}

struct BackendsSection {
    analytic_wall_ns: u128,
    analytic_cycles: u64,
    cycles_ratio: f64,
    speedup: f64,
    presets: Vec<PresetSmoke>,
}

/// Time the analytic tier on the paper-scale shape against the already
/// measured exact streaming time (the median of the interleaved
/// streaming runs), then smoke every DRAM preset on the exact
/// tier at a small shape (different geometry → generic mapping fallback;
/// the point is "completes and yields sane wall-clock seconds", the cycle
/// values are recorded for drift tracking, not gated across presets).
fn backends_section(
    sys: &SystemConfig,
    spec: &GemmSpec,
    opts: &SimOptions,
    exact_wall_ns: u128,
    exact_cycles: u64,
) -> BackendsSection {
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
    println!(
        "  analytic tier: {:>8.2} ms  ({analytic_cycles} sim cycles, {:.2}x of exact, \
         {speedup:.0}x faster than the streaming median {:.1} ms; floor \
         {ANALYTIC_SPEEDUP_FLOOR:.0}x)",
        analytic_wall_ns as f64 / 1e6,
        cycles_ratio,
        exact_wall_ns as f64 / 1e6,
    );

    let smoke = GemmSpec::new(512, 2048, 8);
    let presets = DramConfig::PRESET_NAMES
        .iter()
        .map(|&name| {
            let psys = sys.clone().with_dram(DramConfig::by_name(name).expect("preset"));
            let r = simulate_gemm_opt(&psys, &smoke, opts, None);
            println!(
                "  preset {name:<7} {:>10} sim cycles @ {:>4} MHz = {:.3} ms simulated",
                r.total,
                psys.dram.clock_hz / 1_000_000,
                r.seconds() * 1e3,
            );
            PresetSmoke {
                name,
                sim_cycles: r.total,
                clock_hz: psys.dram.clock_hz,
                seconds: r.seconds(),
            }
        })
        .collect();
    BackendsSection { analytic_wall_ns, analytic_cycles, cycles_ratio, speedup, presets }
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

/// The run-granularity counters as a JSON object (deterministic; gated
/// exact-match by `make bench-smoke`).
fn run_counters_json(c: &RunCounters) -> String {
    let hist: Vec<String> = c.hist.iter().map(|h| h.to_string()).collect();
    let fallback: Vec<String> = FB_LABELS
        .iter()
        .enumerate()
        .map(|(i, label)| format!("\"{label}\": {}", c.fallback[i]))
        .collect();
    format!(
        "{{\"runs\": {}, \"run_blocks\": {}, \"mean_run_len\": {:.2}, \"hist\": [{}], \
         \"fallback\": {{{}}}}}",
        c.runs,
        c.run_blocks,
        c.mean_run_len(),
        hist.join(", "),
        fallback.join(", "),
    )
}

struct SubPaper {
    m: usize,
    k: usize,
    n: usize,
    cold_ns_per_block: f64,
    warm_ns_per_block: f64,
    seed_ns_per_block: f64,
    agen_ns_per_span: f64,
    /// Skeleton spans resident in the global span-program cache after the
    /// runs (bounded by its caps; the replay working set).
    cache_resident_spans: usize,
    /// Span-program counters of the final (fully warm) span-generation
    /// pass: cache hits/misses and how window boundaries were crossed.
    /// Deterministic (serial loop), so the smoke gate can tell a cache or
    /// window-successor regression from host noise.
    agen: stepstone_addr::agen::AgenCounters,
    /// Run-granularity counters of the warm streaming run (deterministic,
    /// exact-match gated like the agen counters).
    run_counters: RunCounters,
    cycle_exact: bool,
}

/// Measure the sub-paper serving shape: cold and warm streaming runs (the
/// span-program cache persists across simulations, so "warm" is the
/// steady state of repeated Table-I layers), the frozen seed replay for a
/// cycle cross-check, and the production span generator alone.
fn subpaper_section(sys: &SystemConfig, serial_sys: &SystemConfig) -> SubPaper {
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
    SubPaper {
        m,
        k,
        n,
        cold_ns_per_block: cold_ns / blocks,
        warm_ns_per_block: warm_ns / blocks,
        seed_ns_per_block: seed_ns / blocks,
        agen_ns_per_span: best_ns_per_span,
        cache_resident_spans,
        agen,
        run_counters: rc,
        cycle_exact,
    }
}
