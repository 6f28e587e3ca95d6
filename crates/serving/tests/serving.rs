//! Serving-layer acceptance tests: seeded determinism, serial==parallel
//! sweeps, batching-queue invariants over real cost tables, and the
//! warm-vs-cold session-cache differential.
//!
//! Sweep-shaped tests run on the analytic memory backend so the suite
//! stays fast in debug builds, and they share one precomputed cost table
//! (the only expensive step); cycle-exactness of the warm session layer
//! itself is pinned on the exact backend with a small shape.

use std::sync::OnceLock;
use stepstone_core::{ReduceVia, SystemConfig};
use stepstone_serving::{
    build_cost_table, find_knee, run_serving, sweep_loads, sweep_loads_with_threads, BatchCoster,
    ColdCoster, CostTable, ServingConfig, ServingReport, SessionCoster, TableCoster,
};
use stepstone_dram::BackendKind;
use stepstone_workloads::{OpenLoopArrivals, RequestKind, RequestMix};

fn fast_sys() -> SystemConfig {
    SystemConfig::default().with_backend(BackendKind::Analytic)
}

/// The full (kind, class) analytic cost table, built once for the whole
/// suite. Deterministic, so sharing it cannot couple tests.
fn table() -> &'static CostTable {
    static TABLE: OnceLock<CostTable> = OnceLock::new();
    TABLE.get_or_init(|| build_cost_table(&fast_sys()))
}

/// Channel utilization is the channel data-bus busy fraction: it lies in
/// [0, 1] at every load point.
fn assert_utilization_bounded(points: &[ServingReport]) {
    for (i, r) in points.iter().enumerate() {
        assert!(
            (0.0..=1.0).contains(&r.channel_utilization),
            "point {i}: channel utilization {}",
            r.channel_utilization
        );
    }
}

#[test]
fn sweep_is_deterministic_and_parallel_matches_serial() {
    let cfg = ServingConfig::for_system(&fast_sys());
    let mix = RequestMix::recommendation_heavy();
    let gaps = [400_000_000.0, 25_000_000.0, 1_562_500.0];
    let serial = sweep_loads(table(), &cfg, 17, mix, 300, &gaps, false);
    let serial2 = sweep_loads(table(), &cfg, 17, mix, 300, &gaps, false);
    let parallel = sweep_loads(table(), &cfg, 17, mix, 300, &gaps, true);
    assert_eq!(serial, serial2, "same seed must reproduce bit-identically");
    assert_eq!(serial, parallel, "parallel sweep must equal serial");
    assert_utilization_bounded(&serial);
    // Percentiles are real (nonzero) and load ordering is sane: heavier
    // offered load cannot lower p99.
    assert!(serial[0].p99 > 0);
    assert!(serial.last().unwrap().p99 >= serial[0].p99);
}

#[test]
fn different_seeds_give_different_timelines() {
    let cfg = ServingConfig::for_system(&fast_sys());
    let mix = RequestMix::recommendation_heavy();
    let a = sweep_loads(table(), &cfg, 1, mix, 300, &[25_000_000.0], false);
    let b = sweep_loads(table(), &cfg, 2, mix, 300, &[25_000_000.0], false);
    assert_ne!(a[0].records, b[0].records);
}

#[test]
fn queue_invariants_hold_under_real_costs() {
    let cfg = ServingConfig { queue_cap: 10_000, ..ServingConfig::for_system(&fast_sys()) };
    let trace = OpenLoopArrivals::trace(9, RequestMix::uniform(), 150_000.0, 600);
    let r = run_serving(&cfg, &trace, &mut TableCoster::new(table()));
    // No starvation: every admitted request completes.
    assert_eq!(r.served + r.rejected, 600);
    assert_eq!(r.rejected, 0, "cap is far above the offered load");
    assert_utilization_bounded(std::slice::from_ref(&r));
    // FIFO within each shape class: starts follow arrival order per kind.
    for kind in RequestKind::ALL {
        let mut prev = None;
        for rec in r.records.iter().filter(|x| x.kind == kind) {
            if let Some(p) = prev {
                assert!(rec.start >= p, "{kind:?} start order violated");
            }
            prev = Some(rec.start);
        }
    }
    // Every request's stamps are ordered.
    for rec in &r.records {
        assert!(rec.start >= rec.arrival && rec.done > rec.start, "{rec:?}");
    }
}

#[test]
fn warm_and_cold_costers_are_cycle_exact_equal() {
    // The architectural refactor must not change a single cycle: a serving
    // run priced by the persistent session executor equals one priced by
    // per-batch cold-started executors, record for record. GPT2 is left
    // out of this mix only to keep the cold baseline's debug wall-clock
    // down; per-GEMM session==one-shot equality is pinned in core::flow.
    let sys = fast_sys();
    let cfg = ServingConfig::for_system(&sys);
    let mix = RequestMix { dlrm: 0.8, bert: 0.2, gpt2: 0.0 };
    let trace = OpenLoopArrivals::trace(23, mix, 400_000.0, 40);
    let warm = run_serving(&cfg, &trace, &mut SessionCoster::new(sys.clone()));
    let cold = run_serving(&cfg, &trace, &mut ColdCoster::new(sys));
    assert_eq!(warm, cold);
    assert_utilization_bounded(&[warm]);
}

#[test]
fn warm_session_is_exact_on_the_exact_backend_too() {
    // One DLRM class on the cycle-exact tier: the session path and a cold
    // executor agree, and the warm coster's second call is a pure memo hit
    // (no new context builds).
    let sys = SystemConfig::default();
    let mut warm = SessionCoster::new(sys.clone());
    let mut cold = ColdCoster::new(sys);
    let w = warm.cost(RequestKind::Dlrm, 4);
    let c = cold.cost(RequestKind::Dlrm, 4);
    assert_eq!(w, c);
    let builds = warm.executor().session().misses();
    assert_eq!(warm.cost(RequestKind::Dlrm, 4), w);
    assert_eq!(warm.executor().session().misses(), builds);
}

#[test]
fn thousand_request_sweep_finds_the_knee() {
    // The acceptance-scale sweep shape (analytic backend keeps it quick in
    // debug): 1000 mixed requests per load point, load rising past
    // saturation; the knee sits strictly inside the sweep. Gaps are scaled
    // to the measured service times (a GPT2 batch alone is ~3e8 cycles),
    // so the lightest point is genuinely unsaturated.
    let cfg = ServingConfig::for_system(&fast_sys());
    let mix = RequestMix::recommendation_heavy();
    let gaps = [400_000_000.0, 100_000_000.0, 25_000_000.0, 6_250_000.0, 1_562_500.0];
    let sweep = sweep_loads(table(), &cfg, 5, mix, 1000, &gaps, false);
    for (r, gap) in sweep.iter().zip(gaps) {
        assert_eq!(r.served + r.rejected, 1000, "gap {gap}");
        assert!(r.batches > 0);
    }
    assert_utilization_bounded(&sweep);
    // Counting PIM-internal bursts as channel traffic (the old numerator)
    // reads above 1 on this ladder; they are reported separately.
    let all_bursts = |r: &ServingReport| {
        r.channel_utilization + r.internal_data_cycles as f64 / (r.makespan * cfg.channels) as f64
    };
    assert!(
        sweep.iter().any(|r| all_bursts(r) > 1.0),
        "ladder never saturates the PIMs"
    );
    assert!(sweep.iter().all(|r| r.internal_data_cycles > 0));
    // The lightest load is below saturation: nothing rejected, shallow queue.
    assert_eq!(sweep[0].rejected, 0);
    // Load past the knee saturates the servers: rejections appear and p99
    // blows out well past the unloaded baseline.
    let knee = find_knee(&sweep, 3.0);
    assert!(knee < sweep.len() - 1, "sweep never saturated: knee={knee}");
    assert!(sweep.last().unwrap().rejected > 0, "heaviest load never overflowed the queue");
    assert!(sweep.last().unwrap().p99 > sweep[0].p99 * 3);
}

#[test]
fn sweep_is_invariant_to_worker_thread_count() {
    // The per-point re-seeding fix: every load point derives its trace
    // seed purely from (base seed, point index), so which worker runs
    // which point cannot matter. Two same-seed sweeps must produce
    // identical `ServingReport`s at thread counts 1, 2, and 3 — including
    // counts that don't divide the point count, where work-stealing order
    // genuinely differs run to run.
    let cfg = ServingConfig::for_system(&fast_sys());
    let mix = RequestMix::recommendation_heavy();
    let gaps = [400_000_000.0, 25_000_000.0, 6_250_000.0, 1_562_500.0];
    let base = sweep_loads_with_threads(table(), &cfg, 41, mix, 300, &gaps, 1);
    assert_utilization_bounded(&base);
    for threads in [2usize, 3, 4] {
        let got = sweep_loads_with_threads(table(), &cfg, 41, mix, 300, &gaps, threads);
        assert_eq!(base, got, "threads={threads} must be bit-identical to serial");
    }
    // Different base seeds still diverge (the point seeds are a pure
    // function of the base seed, not a fixed stream).
    let other = sweep_loads_with_threads(table(), &cfg, 42, mix, 300, &gaps, 1);
    assert_ne!(base, other);
}

#[test]
fn fabric_reduce_serving_is_shift_invariant_and_knee_deterministic() {
    // `ReduceVia::Fabric` at serving scale. Warm-session shift-invariance:
    // the persistent session executor (whose passes start at arbitrary
    // virtual times over long-lived state) prices a fabric-reduce batch
    // identically to a cold start — the fabric schedule has no absolute-
    // time anchors. And the saturation knee of a fabric sweep is
    // deterministic: same seed, same knee, serial == parallel.
    let fsys = SystemConfig::default()
        .with_backend(BackendKind::Analytic)
        .with_reduce_via(ReduceVia::Fabric);
    let ftable = build_cost_table(&fsys);
    let cfg = ServingConfig::for_system(&fsys);
    let mix = RequestMix::recommendation_heavy();
    let gaps = [400_000_000.0, 100_000_000.0, 25_000_000.0, 6_250_000.0, 1_562_500.0];
    let serial = sweep_loads(&ftable, &cfg, 5, mix, 500, &gaps, false);
    let again = sweep_loads(&ftable, &cfg, 5, mix, 500, &gaps, false);
    let parallel = sweep_loads(&ftable, &cfg, 5, mix, 500, &gaps, true);
    assert_eq!(serial, again, "fabric sweep must reproduce bit-identically");
    assert_eq!(serial, parallel, "fabric sweep parallel == serial");
    assert_utilization_bounded(&serial);
    assert_eq!(
        find_knee(&serial, 3.0),
        find_knee(&parallel, 3.0),
        "knee index must be deterministic under fabric reduce"
    );
    // Warm == cold under fabric: the session layer's time-shifted passes
    // change nothing.
    let mix2 = RequestMix { dlrm: 0.8, bert: 0.2, gpt2: 0.0 };
    let trace = OpenLoopArrivals::trace(23, mix2, 400_000.0, 40);
    let warm = run_serving(&cfg, &trace, &mut SessionCoster::new(fsys.clone()));
    let cold = run_serving(&cfg, &trace, &mut ColdCoster::new(fsys.clone()));
    assert_eq!(warm, cold, "fabric warm session must stay cycle-exact");
    // Fabric reduce strictly reorders nothing for free: a fabric-priced
    // class can never be cheaper than its host-DMA counterpart (the local
    // drain is identical and the fabric transit is additive).
    let host_table = table();
    for (key, fcost) in ftable.iter().chain(host_table) {
        assert!(
            fcost.channel_data_cycles <= fcost.data_cycles,
            "{key:?}: {fcost:?}"
        );
    }
    for (key, fcost) in &ftable {
        let hcost = host_table.get(key).expect("same class set");
        assert!(
            fcost.pim_cycles >= hcost.pim_cycles,
            "{key:?}: fabric {} < host-dma {}",
            fcost.pim_cycles,
            hcost.pim_cycles
        );
    }
}
