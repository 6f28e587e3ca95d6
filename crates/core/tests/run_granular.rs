//! Differential suite for the run-granular engine core (PR 6).
//!
//! A hinted run admitted through [`StepSource::take_run`] is scheduled as
//! one object: synthesized into the reorder window from its anchor, issued
//! through the span fast path's steady CAS cadence, and — once the issue
//! state settles into an arithmetic cadence — jumped closed-form. All of
//! that must be *cycle-exact* with the per-block engine. This suite pins
//! the equivalence three ways:
//!
//! * whole-simulation reports (run-granular on vs off) across the configs
//!   that gate admission: refresh, command tracing, colocated CPU traffic,
//!   per-channel parallelism;
//! * property tests driving a synthetic hinted source — runs straddling
//!   row boundaries, launch barriers, partial skips, and refresh windows —
//!   against the identical program pulled per-block through `PlainSteps`;
//! * the process-wide run counters: deterministic across serial/parallel
//!   engines, zero when the knob is off, and fallback splits attributed to
//!   the config that forced them.
//!
//! The run-granular knob and the counters are process-global, so every
//! test here serializes on one lock and restores the knob on drop.

use proptest::prelude::*;
use stepstone_addr::{mapping_by_id, MappingId, PimLevel, XorMapping};
use stepstone_core::engine::{
    reset_run_counters, run_counters, run_phase, set_run_granular, Step, StepSource, UnitCursor,
    FB_REFRESH, FB_TRACE, FB_TRAFFIC,
};
use stepstone_core::{
    simulate_gemm_opt, GemmSpec, LatencyReport, Phase, SimOptions, SystemConfig,
};
use stepstone_dram::{
    CommandBus, DramConfig, DramStats, Port, TimingState, TrafficReq, TrafficSource,
};

/// The run-granular knob and run counters are process-global: tests that
/// touch either hold this lock end to end.
fn knob_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Restore the global run-granular knob even when an assertion panics.
struct RunGranularGuard(bool);

impl Drop for RunGranularGuard {
    fn drop(&mut self) {
        set_run_granular(self.0);
    }
}

fn assert_reports_equal(a: &LatencyReport, b: &LatencyReport, what: &str) {
    assert_eq!(a.total, b.total, "{what}: total cycles");
    assert_eq!(a.phase_cycles, b.phase_cycles, "{what}: phase attribution");
    assert_eq!(a.dram, b.dram, "{what}: DRAM event counts");
    assert_eq!(a.activity, b.activity, "{what}: activity counts");
}

// ---------------------------------------------------------------------------
// Whole-simulation differentials.
// ---------------------------------------------------------------------------

/// Run-granular on vs off must be report-identical for every config that
/// can force per-block fallback: plain, refresh, trace, parallel.
#[test]
fn run_granular_matches_per_block_reports() {
    let _serial = knob_lock();
    let _guard = RunGranularGuard(set_run_granular(true));
    let spec = GemmSpec::new(128, 512, 4);
    for level in [PimLevel::BankGroup, PimLevel::Device] {
        let opts = SimOptions::stepstone(level);
        for (refresh, trace, parallel) in [
            (false, false, false),
            (false, false, true),
            (false, true, false),
            (true, false, false),
            (true, false, true),
        ] {
            let sys = SystemConfig {
                dram: DramConfig { refresh, ..DramConfig::default() },
                parallel,
                trace,
                ..SystemConfig::default()
            };
            let run = |rg: bool| {
                set_run_granular(rg);
                let r = simulate_gemm_opt(&sys, &spec, &opts, None);
                set_run_granular(true);
                r
            };
            let on = run(true);
            let off = run(false);
            let what =
                format!("{level:?} refresh={refresh} trace={trace} parallel={parallel}");
            assert_reports_equal(&on, &off, &what);
        }
    }
}

/// A fixed-trace CPU traffic source (colocation forces per-block).
struct FixedTraffic(Vec<TrafficReq>);

impl TrafficSource for FixedTraffic {
    fn next_req(&mut self) -> Option<TrafficReq> {
        self.0.pop()
    }
}

fn colocation_reqs() -> Vec<TrafficReq> {
    // Reads marching through a CPU-private arena, far from PIM data.
    (0..256u64)
        .rev()
        .map(|i| TrafficReq { pa: (1 << 36) | (i * 64), write: i % 3 == 0, gap: 40 })
        .collect()
}

/// Colocated traffic: run-granular on vs off must agree, and the fallback
/// counters must attribute the per-block blocks to the traffic cause.
#[test]
fn run_granular_matches_under_colocated_traffic() {
    let _serial = knob_lock();
    let _guard = RunGranularGuard(set_run_granular(true));
    let sys = SystemConfig { parallel: false, ..SystemConfig::default() };
    let spec = GemmSpec::new(64, 256, 2);
    let opts = SimOptions::stepstone(PimLevel::BankGroup);
    let run = |rg: bool| {
        set_run_granular(rg);
        reset_run_counters();
        let mut src = FixedTraffic(colocation_reqs());
        let r = simulate_gemm_opt(&sys, &spec, &opts, Some(&mut src));
        let c = run_counters();
        set_run_granular(true);
        (r, c)
    };
    let (on, c_on) = run(true);
    let (off, c_off) = run(false);
    assert_reports_equal(&on, &off, "colocated traffic");
    // Traffic blocks admission in every phase it reaches; the kernel
    // phases all fall back with the traffic cause attributed.
    assert_eq!(c_on.runs, 0, "no run admitted under colocated traffic");
    assert!(c_on.fallback[FB_TRAFFIC] > 0, "{c_on:?}");
    assert_eq!(c_on.fallback, c_off.fallback, "cause split is knob-independent here");
}

// ---------------------------------------------------------------------------
// Run counters: determinism and cause attribution.
// ---------------------------------------------------------------------------

/// The counters are commutative sums flushed once per unit, so the serial
/// and per-channel-parallel engines must report identical totals — and a
/// multi-channel kernel phase must actually admit runs.
#[test]
fn run_counters_deterministic_serial_vs_parallel() {
    let _serial = knob_lock();
    let _guard = RunGranularGuard(set_run_granular(true));
    let spec = GemmSpec::new(256, 1024, 4);
    let opts = SimOptions::stepstone(PimLevel::Device);
    let count = |parallel: bool| {
        let sys = SystemConfig { parallel, ..SystemConfig::default() };
        reset_run_counters();
        let r = simulate_gemm_opt(&sys, &spec, &opts, None);
        (run_counters(), r)
    };
    let (serial, r_serial) = count(false);
    let (parallel, r_parallel) = count(true);
    assert_reports_equal(&r_serial, &r_parallel, "serial vs parallel");
    assert_eq!(serial, parallel, "counter totals are engine-order independent");
    assert!(serial.runs > 0, "kernel phases admit hinted runs: {serial:?}");
    assert!(serial.run_blocks >= serial.runs, "{serial:?}");
    assert_eq!(
        serial.hist.iter().sum::<u64>(),
        serial.runs,
        "every admitted run lands in one histogram bucket"
    );
    // With the knob off the same workload admits nothing.
    set_run_granular(false);
    reset_run_counters();
    let sys = SystemConfig { parallel: false, ..SystemConfig::default() };
    simulate_gemm_opt(&sys, &spec, &opts, None);
    let off = run_counters();
    set_run_granular(true);
    assert_eq!(off.runs, 0);
    assert_eq!(off.run_blocks, 0);
    assert!(off.fallback_blocks() > 0, "all blocks fall back: {off:?}");
}

/// Refresh and command tracing each force per-block scheduling; the
/// fallback split must name the cause.
#[test]
fn fallback_causes_attributed() {
    let _serial = knob_lock();
    let _guard = RunGranularGuard(set_run_granular(true));
    let spec = GemmSpec::new(64, 256, 2);
    let opts = SimOptions::stepstone(PimLevel::BankGroup);
    let causes = |refresh: bool, trace: bool| {
        let sys = SystemConfig {
            dram: DramConfig { refresh, ..DramConfig::default() },
            parallel: false,
            trace,
            ..SystemConfig::default()
        };
        reset_run_counters();
        simulate_gemm_opt(&sys, &spec, &opts, None);
        run_counters()
    };
    let refresh = causes(true, false);
    assert_eq!(refresh.runs, 0);
    assert!(refresh.fallback[FB_REFRESH] > 0, "{refresh:?}");
    let trace = causes(false, true);
    assert_eq!(trace.runs, 0);
    assert!(trace.fallback[FB_TRACE] > 0, "{trace:?}");
}

// ---------------------------------------------------------------------------
// Synthetic hinted source: property-based engine differentials.
// ---------------------------------------------------------------------------

/// Channel-0 block addresses grouped by window key (bank, row, direction
/// aside): each inner vec is one same-(bank,row) column set, in address
/// order. Runs built from one group are column-pure by construction.
/// Computed once (Skylake mapping) — proptest re-enters per case.
fn channel0_groups(mapping: &XorMapping) -> &'static [Vec<u64>] {
    static GROUPS: std::sync::OnceLock<Vec<Vec<u64>>> = std::sync::OnceLock::new();
    GROUPS.get_or_init(|| {
        let mut groups: std::collections::HashMap<u64, Vec<u64>> = std::collections::HashMap::new();
        let mut order: Vec<u64> = Vec::new();
        for b in 0..(1u64 << 14) {
            let pa = b * 64;
            let c = mapping.decode(pa);
            if c.channel != 0 {
                continue;
            }
            let key = (c.row as u64) << 32 | c.bank_index(mapping.geometry()) as u64;
            groups
                .entry(key)
                .or_insert_with(|| {
                    order.push(key);
                    Vec::new()
                })
                .push(pa);
        }
        order
            .into_iter()
            .filter_map(|k| {
                let v = groups.remove(&k).expect("keyed");
                (v.len() >= 8).then_some(v)
            })
            .collect()
    })
}

/// A step program with honest run hints computed by lookahead: `run_hint`
/// reports the maximal same-key Access run at the cursor, and `take_run`
/// skips within it — capped at `cap` steps when `cap > 0`, so partial
/// skips (and the engine's per-block fallback for the remainder) are
/// exercised too.
struct HintedVec {
    steps: Vec<Step>,
    /// Window key per step (`None` for launches).
    keys: Vec<Option<u64>>,
    pos: usize,
    cap: u64,
}

impl HintedVec {
    fn new(steps: Vec<Step>, mapping: &XorMapping, cap: u64) -> Self {
        let keys = steps
            .iter()
            .map(|s| match *s {
                Step::Access { pa, write, .. } => {
                    let c = mapping.decode(pa);
                    Some(
                        (c.bank_index(mapping.geometry()) as u64) << 33
                            | (c.row as u64) << 1
                            | write as u64,
                    )
                }
                Step::Launch => None,
            })
            .collect();
        Self { steps, keys, pos: 0, cap }
    }

    /// Length of the maximal run starting at `p`: consecutive Accesses
    /// sharing the window key, category, compute flag, and one AGEN
    /// iteration each (the `take_run` contract).
    fn run_len_at(&self, p: usize) -> u64 {
        let Some(Some(key)) = self.keys.get(p) else { return 1 };
        let (cat0, comp0) = match self.steps[p] {
            Step::Access { cat, compute, agen_iters: 1, .. } => (cat, compute),
            _ => return 1,
        };
        let mut n = 1;
        while let (Some(Some(k)), Some(s)) = (self.keys.get(p + n), self.steps.get(p + n)) {
            match *s {
                Step::Access { cat, compute, agen_iters: 1, .. }
                    if *k == *key && cat == cat0 && compute == comp0 =>
                {
                    n += 1
                }
                _ => break,
            }
        }
        n as u64
    }
}

impl Iterator for HintedVec {
    type Item = Step;

    fn next(&mut self) -> Option<Step> {
        let s = self.steps.get(self.pos).copied();
        self.pos += 1;
        s
    }
}

impl StepSource for HintedVec {
    fn run_hint(&self) -> u64 {
        self.run_len_at(self.pos)
    }

    fn take_run(&mut self, n: u64) -> u64 {
        // The anchor was just pulled (pos is one past it); the remaining
        // same-key steps from pos are exactly what the hint promised.
        let mut take = n;
        if self.cap > 0 {
            take = take.min(self.cap);
        }
        debug_assert!(
            self.pos > 0 && self.run_len_at(self.pos - 1) > take,
            "engine asked beyond the hinted run"
        );
        self.pos += take as usize;
        take
    }
}

/// One generated run: group selector, run length, direction, compute
/// flag, and whether a launch barrier precedes it.
type RunSpec = (usize, usize, bool, bool, bool);

fn build_program(groups: &[Vec<u64>], runs: &[RunSpec]) -> Vec<Step> {
    let mut steps = Vec::new();
    for &(gsel, len, write, compute, launch) in runs {
        if launch {
            steps.push(Step::Launch);
        }
        let g = &groups[gsel % groups.len()];
        for &pa in g.iter().take(len.clamp(1, g.len())) {
            steps.push(Step::Access { pa, write, cat: Phase::Gemm, agen_iters: 1, compute });
        }
    }
    steps
}

/// Everything observable about a finished unit.
type UnitObs = (u64, u64, [u64; 8], u64, u64, u64, u64, u32, u64, DramStats);

/// Drive one unit over `steps` through the serial phase engine and return
/// the full observable state. `hinted` selects the run-capable source;
/// `rg` the global knob; `cap` a partial-skip ceiling (0 = unlimited).
fn drive(
    mapping: &XorMapping,
    steps: Vec<Step>,
    refresh: bool,
    hinted: bool,
    rg: bool,
    cap: u64,
) -> UnitObs {
    let was = set_run_granular(rg);
    let mut ts = TimingState::new(DramConfig { refresh, ..DramConfig::default() });
    let mut bus = CommandBus::new(2);
    let mk = |steps: Box<dyn StepSource + Send>| {
        // Compute-capable kernel shape: SIMD pipeline, launch gating, the
        // 4-cycle AGEN burst window.
        let mut u =
            UnitCursor::from_source("rg", 0, Port::BgInternal, steps, 0, 2, 16, 8, 4, 10, 4, None);
        u.exclusive = true;
        u
    };
    let mut units = vec![if hinted {
        mk(Box::new(HintedVec::new(steps, mapping, cap)))
    } else {
        mk(Box::new(stepstone_core::engine::PlainSteps(steps.into_iter())))
    }];
    let end = run_phase(&mut ts, &mut bus, mapping, &mut units, None);
    set_run_granular(was);
    let u = &units[0];
    (
        end,
        u.end_time,
        u.cat_cycles,
        u.launches,
        u.simd_ops,
        u.scratch_accesses,
        u.agen_iter_sum,
        u.agen_iter_max,
        u.agen_bubbles,
        ts.stats,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Hinted + run-granular, hinted + per-block, and plain per-block
    // engines must agree on every observable — end cycle, per-category
    // cycle attribution, SIMD/scratch/AGEN counters, and the DRAM event
    // statistics — for programs whose runs straddle row boundaries,
    // launch barriers, partial skips, and refresh windows.
    #[test]
    fn hinted_runs_match_per_block_engine(
        runs in proptest::collection::vec(
            (0usize..64, 1usize..40, any::<bool>(), any::<bool>(), any::<bool>()),
            1..12,
        ),
        refresh in any::<bool>(),
        cap in 0u64..4,
    ) {
        let _serial = knob_lock();
        let mapping = mapping_by_id(MappingId::Skylake);
        let groups = channel0_groups(&mapping);
        let steps = build_program(groups, &runs);
        let granular = drive(&mapping, steps.clone(), refresh, true, true, cap);
        let hinted_off = drive(&mapping, steps.clone(), refresh, true, false, cap);
        let plain = drive(&mapping, steps, refresh, false, false, 0);
        prop_assert_eq!(&granular, &hinted_off, "run-granular vs per-block (hinted source)");
        prop_assert_eq!(&granular, &plain, "run-granular vs plain per-block source");
    }
}

/// Long single-key runs hit the closed-form jump (the steady cadence
/// settles after the pipeline fills); the result must still be exact and
/// the counters must see one run per admission.
#[test]
fn long_runs_jump_closed_form_exactly() {
    let _serial = knob_lock();
    let _guard = RunGranularGuard(set_run_granular(true));
    let mapping = mapping_by_id(MappingId::Skylake);
    let groups = channel0_groups(&mapping);
    // The longest group, twice, with a launch barrier between — compute
    // and non-compute variants.
    let longest = (0..groups.len()).max_by_key(|&i| groups[i].len()).unwrap();
    for compute in [false, true] {
        let runs: Vec<RunSpec> = vec![
            (longest, usize::MAX, false, compute, true),
            (longest, usize::MAX, true, compute, false),
        ];
        let steps = build_program(groups, &runs);
        let blocks = steps.iter().filter(|s| matches!(s, Step::Access { .. })).count() as u64;
        reset_run_counters();
        let granular = drive(&mapping, steps.clone(), false, true, true, 0);
        let c = run_counters();
        let plain = drive(&mapping, steps, false, false, false, 0);
        assert_eq!(granular, plain, "compute={compute}");
        assert_eq!(c.runs, 2, "both hinted runs admitted: {c:?}");
        assert_eq!(c.run_blocks, blocks, "anchors + followers: {c:?}");
    }
}
