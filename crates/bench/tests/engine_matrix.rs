//! Engine equivalence matrix (PR 5, extended in PR 6): the frozen-seed
//! suite under {parallel on/off} × {command trace on/off} × {span fast
//! path on/off} × {run-granular admission on/off}.
//!
//! Each knob gates an all-or-nothing engine path that used to get only
//! incidental coverage:
//!
//! * `parallel` — per-channel sharding with `TimingState`/`CommandBus`
//!   adoption vs the serial min-heap scheduler;
//! * `trace` — command tracing forces the serial engine *and* the exact
//!   per-block FR-FCFS probe scan (trace order is part of the contract);
//! * span fast path — the all-or-nothing whole-run streaming of
//!   `UnitCursor::advance_batch`, forced off through the test-only
//!   `engine::set_span_fast_path` knob so the exact probe path runs even
//!   for exclusive-unit phases;
//! * run-granular — hinted runs admitted as single scheduling objects
//!   (`StepSource::take_run` + synthesized followers + the closed-form
//!   jump), forced off through `engine::set_run_granular` so every block
//!   goes through a real source pull.
//!
//! Every combination must produce a `LatencyReport` identical to the
//! frozen seed engine. The whole matrix runs inside one `#[test]` because
//! the fast-path knob is process-global.

use stepstone_addr::{PagingConfig, PimLevel};
use stepstone_bench::seed_replay::simulate_pow2_gemm_seed;
use stepstone_core::engine::{
    reset_run_counters, run_counters, set_run_granular, set_span_fast_path,
};
use stepstone_core::{
    simulate_gemm_opt, FabricConfig, GemmSpec, LatencyReport, Phase, ReduceVia,
    SimOptions, SystemConfig, TopologyKind,
};
use stepstone_dram::BackendKind;

fn assert_reports_equal(a: &LatencyReport, b: &LatencyReport, what: &str) {
    assert_eq!(a.total, b.total, "{what}: total cycles");
    assert_eq!(a.phase_cycles, b.phase_cycles, "{what}: phase attribution");
    assert_eq!(a.dram, b.dram, "{what}: DRAM event counts");
    assert_eq!(a.activity, b.activity, "{what}: activity counts");
}

/// The fast-path knob is process-global, so the two matrix tests must not
/// interleave: each holds this lock for its whole run.
fn knob_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Restore the global fast-path knob even when an assertion panics, so a
/// failure here cannot poison the other matrix test.
struct FastPathGuard(bool);

impl Drop for FastPathGuard {
    fn drop(&mut self) {
        set_span_fast_path(self.0);
    }
}

/// Same, for the run-granular admission knob.
struct RunGranularGuard(bool);

impl Drop for RunGranularGuard {
    fn drop(&mut self) {
        set_run_granular(self.0);
    }
}

#[test]
fn matrix_parallel_trace_fastpath_match_frozen_seed() {
    let _serial = knob_lock();
    let _guard = FastPathGuard(set_span_fast_path(true));
    let _guard_rg = RunGranularGuard(set_run_granular(true));
    let mut admitted = 0u64;
    let cases: &[(usize, usize, usize, &[PimLevel])] = &[
        (128, 512, 2, &[PimLevel::BankGroup]),
        (256, 1024, 4, &PimLevel::ALL),
    ];
    for &(m, k, n, levels) in cases {
        let spec = GemmSpec::new(m, k, n);
        for &level in levels {
            let opts = SimOptions::stepstone(level);
            let seed = simulate_pow2_gemm_seed(
                &SystemConfig { parallel: false, ..SystemConfig::default() },
                &spec,
                &opts,
            );
            for parallel in [false, true] {
                for trace in [false, true] {
                    for fast in [false, true] {
                        for rg in [false, true] {
                            set_span_fast_path(fast);
                            set_run_granular(rg);
                            reset_run_counters();
                            let sys =
                                SystemConfig { parallel, trace, ..SystemConfig::default() };
                            let got = simulate_gemm_opt(&sys, &spec, &opts, None);
                            let c = run_counters();
                            set_span_fast_path(true);
                            set_run_granular(true);
                            let what = format!(
                                "{m}x{k} N={n} {level:?} parallel={parallel} trace={trace} \
                                 fast={fast} rg={rg}"
                            );
                            assert_reports_equal(&got, &seed, &what);
                            if !(rg && fast) {
                                assert_eq!(c.runs, 0, "{what}: admission needs both knobs");
                            }
                            admitted += c.runs;
                        }
                    }
                }
            }
        }
    }
    assert!(admitted > 0, "some matrix config admits hinted runs");
}

/// PR 7 backend axis: {exact, analytic} × {parallel on/off} × {run-granular
/// on/off}. The exact tier must stay bit-identical to the frozen seed under
/// every knob combination; the analytic tier must land within its
/// documented error band (0.5×–2× of exact, see `core::analytic`) and must
/// preserve the *relative latency ordering* of the workload shapes, which
/// is what the fast tier is for (design-space pruning, not cycle returns).
#[test]
fn matrix_backend_tiers_exact_and_analytic() {
    let _serial = knob_lock();
    let _guard = FastPathGuard(set_span_fast_path(true));
    let _guard_rg = RunGranularGuard(set_run_granular(true));
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
        for parallel in [false, true] {
            for rg in [false, true] {
                set_run_granular(rg);
                let sys = SystemConfig { parallel, ..SystemConfig::default() };
                assert_eq!(sys.backend, BackendKind::Exact, "exact is the default tier");
                let exact = simulate_gemm_opt(&sys, &spec, &opts, None);
                let what = format!("{m}x{k} N={n} exact parallel={parallel} rg={rg}");
                assert_reports_equal(&exact, &seed, &what);

                let asys = sys.clone().with_backend(BackendKind::Analytic);
                let analytic = simulate_gemm_opt(&asys, &spec, &opts, None);
                set_run_granular(true);
                // The closed-form tier is knob-independent: same answer
                // whatever the engine scheduling configuration.
                let prev = *analytic_seen.get_or_insert(analytic.total);
                assert_eq!(analytic.total, prev, "{what}: analytic must ignore engine knobs");
                let ratio = analytic.total as f64 / exact.total as f64;
                assert!(
                    (0.5..2.0).contains(&ratio),
                    "{what}: analytic/exact ratio {ratio:.3} outside documented band"
                );
            }
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

/// PR 9 reduce axis: {host-dma, fabric(ring), fabric(line)} × {parallel
/// on/off} × {run-granular on/off}. The host-DMA arm is the default and
/// must stay bit-identical to the frozen seed under every knob. The fabric
/// arms run the *same* per-channel Phase-3 drain through the memory
/// backend — identical `DramStats` and identical non-Reduction phases —
/// and then extend the reduction with the PIM→PIM transit, so Reduction is
/// never shorter than host DMA's local drain and the report carries
/// per-link fabric statistics. Each fabric arm must also be engine-knob
/// invariant (the fabric schedule is deterministic).
#[test]
fn matrix_reduce_via_host_dma_and_fabric() {
    let _serial = knob_lock();
    let _guard = FastPathGuard(set_span_fast_path(true));
    let _guard_rg = RunGranularGuard(set_run_granular(true));
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
        for parallel in [false, true] {
            for rg in [false, true] {
                set_run_granular(rg);
                let sys = SystemConfig { parallel, ..SystemConfig::default() };
                assert_eq!(sys.reduce_via, ReduceVia::HostDma, "host DMA is the default");
                let host = simulate_gemm_opt(&sys, &spec, &opts, None);
                let what = format!("{m}x{k} N={n} host-dma parallel={parallel} rg={rg}");
                assert_reports_equal(&host, &seed, &what);
                assert!(host.fabric.is_none(), "{what}: no fabric stats on the default path");

                for (tix, topo) in [TopologyKind::Ring, TopologyKind::Line].iter().enumerate() {
                    let fsys = sys
                        .clone()
                        .with_reduce_via(ReduceVia::Fabric)
                        .with_fabric(FabricConfig::default().with_topology(*topo));
                    let fab = simulate_gemm_opt(&fsys, &spec, &opts, None);
                    let what = format!(
                        "{m}x{k} N={n} fabric({}) parallel={parallel} rg={rg}",
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
                    // Knob invariance: the fabric arm's whole report is a
                    // pure function of the config, not the engine knobs.
                    match &fabric_seen[tix] {
                        Some(prev) => {
                            assert_reports_equal(&fab, prev, &what);
                            assert_eq!(&fab.fabric, &prev.fabric, "{what}: link stats");
                        }
                        None => fabric_seen[tix] = Some(fab),
                    }
                }
                set_run_granular(true);
            }
        }
    }
}

/// PR 10 paging axis. Two families of arms:
///
/// * **Provable reductions** — identity-policy paging at any page size
///   (no stream is ever wrapped), and a page covering the whole simulated
///   address range under a *non-identity* policy (one constant,
///   ID-parity-free frame offset relabels banks/rows uniformly). Both
///   must be bit-identical to the frozen contiguous seed.
/// * **Fragmented/permuted arms** — small-page translation (with and
///   without a PTW cost) through the full production machinery
///   (page-clipped run hints, span fast path, run-granular admission)
///   must be cycle-exact against the per-page live-walk oracle: both
///   knobs forced off, so every block is a real source pull translated
///   one at a time.
#[test]
fn matrix_paging_identity_reduction_and_fragmented_oracle() {
    let _serial = knob_lock();
    let _guard = FastPathGuard(set_span_fast_path(true));
    let _guard_rg = RunGranularGuard(set_run_granular(true));
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
            set_span_fast_path(false);
            set_run_granular(false);
            let osys =
                SystemConfig { parallel: false, ..SystemConfig::default() }.with_paging(paging);
            let oracle = simulate_gemm_opt(&osys, &spec, &opts, None);
            set_span_fast_path(true);
            set_run_granular(true);
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
    // The subset remap (hints disabled, dropped ID bits) and eCHO
    // (per-row launches) program shapes under the same four knobs,
    // pinned against their own all-exact baseline.
    let _serial = knob_lock();
    let _guard = FastPathGuard(set_span_fast_path(true));
    let _guard_rg = RunGranularGuard(set_run_granular(true));
    let spec = GemmSpec::new(512, 2048, 4);
    for opts in [
        SimOptions::stepstone(PimLevel::BankGroup).with_subset(1),
        SimOptions::echo(PimLevel::BankGroup),
    ] {
        set_span_fast_path(false);
        let baseline = simulate_gemm_opt(
            &SystemConfig { parallel: false, trace: true, ..SystemConfig::default() },
            &spec,
            &opts,
            None,
        );
        for parallel in [false, true] {
            for trace in [false, true] {
                for fast in [false, true] {
                    for rg in [false, true] {
                        set_span_fast_path(fast);
                        set_run_granular(rg);
                        let sys = SystemConfig { parallel, trace, ..SystemConfig::default() };
                        let got = simulate_gemm_opt(&sys, &spec, &opts, None);
                        set_span_fast_path(true);
                        set_run_granular(true);
                        let what = format!(
                            "{:?} parallel={parallel} trace={trace} fast={fast} rg={rg}",
                            opts.granularity
                        );
                        assert_reports_equal(&got, &baseline, &what);
                    }
                }
            }
        }
    }
}
