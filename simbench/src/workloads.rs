//! The four workloads and one pass of each, untraced (the one-call
//! simulator entry points) or traced (the re-composed layer calls of
//! [`crate::compose`] inside spans).

use crate::check::{Fingerprints, OpResult};
use crate::compose::{traced_gemm, traced_pass_cost, CostMemo, PhaseWork};
use crate::trace::Tracer;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use stepstone_addr::agen::{agen_counters, reset_agen_counters, AgenCounters};
use stepstone_addr::{paged_run_stats, PagingConfig, PimLevel};
use stepstone_core::engine::{reset_run_counters, run_counters, RunCounters};
use stepstone_core::flow::{SpanSource, WalkCursor};
use stepstone_core::{
    simulate_gemm_session, GemmContext, GemmSpec, LatencyReport, Phase, SessionCache, SimOptions,
    SystemConfig,
};
use stepstone_dram::BackendKind;
use stepstone_models::{bert, dlrm, gpt2, ModelGraph, Op};
use stepstone_serving::{
    build_cost_table, classes, run_serving, CostTable, ServingConfig, TableCoster,
};
use stepstone_workloads::{table1, OpenLoopArrivals, RequestKind, RequestMix};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PaperGemm,
    Table1Layers,
    PagedGemm,
    ServingSweep,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::PaperGemm,
        Kind::Table1Layers,
        Kind::PagedGemm,
        Kind::ServingSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperGemm => "paper_gemm",
            Kind::Table1Layers => "table1_layers",
            Kind::PagedGemm => "paged_gemm",
            Kind::ServingSweep => "serving_sweep",
        }
    }

    pub fn by_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The paper-scale shape (§V): 4096×4096 weights, batch 256.
const PAPER_SHAPE: (usize, usize, usize) = (4096, 4096, 256);
/// Table-I batch sizes: language-model batches and small DLRM batches.
const TABLE1_NS: [usize; 4] = [1, 4, 8, 32];
/// Both StepStone levels that per-GEMM selection evaluates.
const TABLE1_LEVELS: [PimLevel; 2] = [PimLevel::BankGroup, PimLevel::Device];
/// Page size of the paged workload: 4 KiB frames clip runs hardest.
const PAGE_BYTES: u64 = 4096;
/// Mean inter-arrival gaps (cycles) of the serving ladder, unloaded to
/// past saturation.
const SERVING_GAPS: [f64; 5] = [
    400_000_000.0,
    100_000_000.0,
    25_000_000.0,
    6_250_000.0,
    1_562_500.0,
];
/// Requests per load point: enough that one ladder pass takes tens of
/// milliseconds of host time.
const SERVING_REQUESTS: u64 = 40_000;

/// One traced pass's work, beside the spans it recorded.
#[derive(Debug, Default, Clone)]
pub struct PassWork {
    /// Localization, kernel and reduction phases, summed over the pass.
    pub phases: [PhaseWork; 3],
    /// Simulated reports of the pass, chained.
    pub sim: LatencyReport,
    pub agen: AgenCounters,
    /// Timed walk over every Algorithm-1 cell: (host ns, spans).
    pub walk: (u64, u64),
    /// Serving outcomes summed over the load points: requests offered,
    /// served, rejected, batches.
    pub serving: [u64; 4],
    /// Session-cache lookups and context builds during the pass.
    pub lookups: u64,
    pub builds: u64,
}

/// One pass: its checked ops and its deterministic per-pass counters.
pub struct PassOut {
    pub ops: Vec<OpResult>,
    pub counters: Vec<u64>,
    pub work: PassWork,
}

pub fn exact_sys() -> SystemConfig {
    SystemConfig {
        parallel: false,
        ..SystemConfig::default()
    }
}

/// SplitMix64 step: the benchmark's only source of seeded choices.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// One value per process: variant sizes do not matter.
#[allow(clippy::large_enum_variant)]
pub enum Workload {
    Gemm(GemmWorkload),
    Serving(ServingWorkload),
}

impl Workload {
    /// Generate the workload's inputs from `seed`; simulates nothing.
    pub fn new(kind: Kind, seed: u64) -> Self {
        match kind {
            Kind::ServingSweep => Workload::Serving(ServingWorkload::new(seed)),
            _ => Workload::Gemm(GemmWorkload::new(kind, seed)),
        }
    }

    /// One pass through the one-call entry points.
    pub fn pass(&mut self) -> PassOut {
        match self {
            Workload::Gemm(w) => w.pass(),
            Workload::Serving(w) => w.pass(),
        }
    }

    /// One pass through the re-composed layer calls, spans in `tr`.
    pub fn traced_pass(&mut self, tr: &mut Tracer) -> PassOut {
        match self {
            Workload::Gemm(w) => w.traced_pass(tr),
            Workload::Serving(w) => w.traced_pass(tr),
        }
    }

    /// Timed walk over every Algorithm-1 cell of the workload's contexts:
    /// (host ns, spans pulled); (0, 0) without exact-tier GEMMs.
    pub fn agen_walk(&self) -> (u64, u64) {
        match self {
            Workload::Gemm(w) => w.agen_walk(),
            Workload::Serving(_) => (0, 0),
        }
    }

    /// Page-split count of the paging layer on the first localized-`B`
    /// region (0 without paging). Call after a pass.
    pub fn page_splits(&self) -> u64 {
        match self {
            Workload::Gemm(w) => w.page_splits(),
            Workload::Serving(_) => 0,
        }
    }
}

pub struct GemmWorkload {
    kind: Kind,
    sys: SystemConfig,
    ops: Vec<(GemmSpec, PimLevel)>,
    cache: SessionCache,
    /// Blocks an unpaged run of the same shape moves (paged workload).
    unpaged_blocks: Option<u64>,
}

/// Index of `reads` and `writes` in [`gemm_values`].
const READS_AT: usize = 9;

/// Fingerprinted outputs of one GEMM: total and per-phase cycles,
/// `DramStats`, and run counters.
fn gemm_values(r: &LatencyReport, rc: &RunCounters) -> Vec<u64> {
    let d = &r.dram;
    let mut v = vec![r.total];
    v.extend(r.phase_cycles);
    v.extend([d.reads, d.writes, d.acts, d.row_hits, d.row_misses]);
    v.extend(d.reads_by_port);
    v.extend(d.writes_by_port);
    v.extend([d.data_cycles, d.refreshes, rc.runs, rc.run_blocks]);
    v.extend(rc.fallback);
    v
}

impl GemmWorkload {
    fn new(kind: Kind, seed: u64) -> Self {
        let (m, k, n) = PAPER_SHAPE;
        let paper = vec![(GemmSpec::new(m, k, n), PimLevel::BankGroup)];
        let (sys, ops, unpaged_blocks) = match kind {
            Kind::PaperGemm => (exact_sys(), paper, None),
            Kind::PagedGemm => {
                let sys = exact_sys().with_paging(PagingConfig::fragmented(PAGE_BYTES, seed));
                let key = op_key(Kind::PaperGemm, &paper[0].0, paper[0].1);
                let fp = Fingerprints::recorded();
                let blocks = fp.get(&key).map(|v| v[READS_AT] + v[READS_AT + 1]);
                (sys, paper, blocks)
            }
            Kind::Table1Layers => {
                let mut ops = Vec::new();
                for e in table1() {
                    for n in TABLE1_NS {
                        for level in TABLE1_LEVELS {
                            ops.push((GemmSpec::new(e.m, e.k, n), level));
                        }
                    }
                }
                // Seeded Fisher-Yates: per-GEMM results must not depend
                // on the order shapes meet the session cache.
                let mut state = seed;
                for i in (1..ops.len()).rev() {
                    ops.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
                }
                (exact_sys(), ops, None)
            }
            Kind::ServingSweep => unreachable!("serving has its own workload"),
        };
        Self {
            kind,
            sys,
            ops,
            cache: SessionCache::new(),
            unpaged_blocks,
        }
    }

    fn op_result(
        &self,
        spec: &GemmSpec,
        level: PimLevel,
        r: &LatencyReport,
        rc: &RunCounters,
    ) -> OpResult {
        let d = &r.dram;
        let ports: u64 = d.reads_by_port.iter().chain(&d.writes_by_port).sum();
        let loc_red = r.phase(Phase::Localization) + r.phase(Phase::Reduction);
        let violation = if r.total == 0 || r.total < loc_red {
            Some(format!(
                "total {} below localization + reduction {loc_red}",
                r.total
            ))
        } else if ports != d.accesses() {
            Some(format!(
                "per-port blocks {ports} != accesses {}",
                d.accesses()
            ))
        } else if rc.run_blocks + rc.fallback_blocks() != d.accesses() {
            Some(format!(
                "run blocks {} + fallbacks {} != accesses {}",
                rc.run_blocks,
                rc.fallback_blocks(),
                d.accesses()
            ))
        } else {
            match self.unpaged_blocks {
                Some(b) if b != d.accesses() => {
                    Some(format!("paged blocks {} != unpaged {b}", d.accesses()))
                }
                _ => None,
            }
        };
        OpResult {
            key: op_key(self.kind, spec, level),
            values: gemm_values(r, rc),
            seed_dependent: self.kind == Kind::PagedGemm,
            violation,
        }
    }

    fn pass(&mut self) -> PassOut {
        reset_agen_counters();
        let mut ops = Vec::with_capacity(self.ops.len());
        for &(spec, level) in &self.ops {
            reset_run_counters();
            let r = simulate_gemm_session(
                &self.sys,
                &spec,
                &SimOptions::stepstone(level),
                &self.cache,
                None,
            );
            ops.push(self.op_result(&spec, level, &r, &run_counters()));
        }
        let agen = agen_counters();
        PassOut {
            ops,
            counters: agen_vec(&agen),
            work: PassWork {
                agen,
                ..PassWork::default()
            },
        }
    }

    fn traced_pass(&mut self, tr: &mut Tracer) -> PassOut {
        let (hits, misses) = (self.cache.hits(), self.cache.misses());
        let mut work = PassWork::default();
        let mut ops = Vec::with_capacity(self.ops.len());
        let root = tr.open("pass");
        reset_agen_counters();
        for &(spec, level) in &self.ops {
            let opts = SimOptions::stepstone(level);
            let g = tr.span("gemm", |tr| {
                traced_gemm(&self.sys, &spec, &opts, &self.cache, tr)
            });
            for (acc, p) in work.phases.iter_mut().zip(&g.phases) {
                acc.add(p.blocks, &p.rc);
            }
            work.sim.chain(&g.report);
            ops.push(self.op_result(&spec, level, &g.report, &g.run_counters()));
        }
        work.agen = agen_counters();
        tr.close(root);
        work.builds = self.cache.misses() - misses;
        work.lookups = self.cache.hits() - hits + work.builds;
        PassOut {
            ops,
            counters: agen_vec(&work.agen),
            work,
        }
    }

    /// Walk every Algorithm-1 cell of every context through
    /// `GemmContext::walk_stream`, pulling whole spans.
    fn agen_walk(&self) -> (u64, u64) {
        let ctxs = self.contexts();
        let t0 = Instant::now();
        let mut spans = 0u64;
        for ctx in &ctxs {
            for &pim in &ctx.active_pims {
                for rpart in 0..ctx.plan.rparts {
                    for grp in (0..ctx.ga.n_groups()).filter(|&g| ctx.ga.is_admissible(pim, g)) {
                        for cpart in 0..ctx.plan.cparts {
                            match ctx.walk_stream(self.sys.agen, pim, grp, rpart, cpart) {
                                WalkCursor::Spanned {
                                    spans: SpanSource::Program(p),
                                    ..
                                } => {
                                    for s in *p {
                                        black_box(s);
                                        spans += 1;
                                    }
                                }
                                mut w => {
                                    while let Some(step) = w.next() {
                                        black_box(step);
                                        spans += 1;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        (t0.elapsed().as_nanos() as u64, spans)
    }

    /// The pass's session contexts, one per power-of-two sub-GEMM.
    fn contexts(&self) -> Vec<Arc<GemmContext>> {
        let mut out = Vec::new();
        for &(spec, level) in &self.ops {
            let opts = SimOptions::stepstone(level);
            for sub in spec.decompose_pow2() {
                out.push(self.cache.context(&self.sys, &sub, &opts));
            }
        }
        out
    }

    fn page_splits(&self) -> u64 {
        let ctxs = self.contexts();
        let ctx = &ctxs[0];
        match &ctx.page_map {
            Some(map) => {
                let plan = &ctx.b_regions[0];
                paged_run_stats(map, plan, &ctx.mapping, plan.len().min(1 << 16)).page_splits
            }
            None => 0,
        }
    }
}

fn agen_vec(a: &AgenCounters) -> Vec<u64> {
    vec![
        a.live_spans,
        a.replayed_spans,
        a.window_jumps,
        a.boundary_successors,
        a.skeleton_hits,
        a.skeleton_misses,
    ]
}

fn op_key(kind: Kind, spec: &GemmSpec, level: PimLevel) -> String {
    format!(
        "{}/{}x{}x{}/{}",
        kind.name(),
        spec.m,
        spec.k,
        spec.n,
        level.tag()
    )
}

/// The model graph a (kind, batch class) pass executes.
fn graph_for(kind: RequestKind, class: usize) -> ModelGraph {
    match kind {
        RequestKind::Dlrm => dlrm(class),
        RequestKind::Bert => bert(class),
        RequestKind::Gpt2 => gpt2(class),
    }
}

pub struct ServingWorkload {
    asys: SystemConfig,
    cfg: ServingConfig,
    point_seeds: Vec<u64>,
    table: Option<CostTable>,
    /// Analytic reports behind the cost table (traced runs only).
    simulated: LatencyReport,
}

impl ServingWorkload {
    fn new(seed: u64) -> Self {
        let asys = exact_sys().with_backend(BackendKind::Analytic);
        let mut state = seed;
        Self {
            cfg: ServingConfig::for_system(&asys),
            asys,
            point_seeds: SERVING_GAPS.iter().map(|_| splitmix(&mut state)).collect(),
            table: None,
            simulated: LatencyReport::default(),
        }
    }

    fn pass(&mut self) -> PassOut {
        let mut ops = Vec::new();
        if self.table.is_none() {
            let table = build_cost_table(&self.asys);
            ops.extend(cost_ops(&table, None));
            self.table = Some(table);
        }
        self.ladder(ops, None)
    }

    fn traced_pass(&mut self, tr: &mut Tracer) -> PassOut {
        let mut ops = Vec::new();
        let (mut lookups, mut builds) = (0, 0);
        if self.table.is_none() {
            // Cold pass: price every batch class through the re-composed
            // executor, then check it against the one-call table.
            let cache = SessionCache::new();
            let mut memo = CostMemo::default();
            let mut composed = Vec::new();
            tr.span("pass", |tr| {
                for kind in RequestKind::ALL {
                    for class in classes(kind) {
                        let graph = graph_for(kind, class);
                        let cost = tr.span("executor.pass_cost", |tr| {
                            traced_pass_cost(&self.asys, &graph, &cache, &mut memo, tr)
                        });
                        composed.push(((kind, class), cost));
                    }
                }
            });
            builds = cache.misses();
            lookups = cache.hits() + builds;
            let table = build_cost_table(&self.asys);
            ops.extend(cost_ops(&table, Some(&composed)));
            self.table = Some(table);
            self.simulated = memo.simulated;
        }
        let mut out = self.ladder(ops, Some(tr));
        out.work.lookups = lookups;
        out.work.builds = builds;
        out.work.sim = self.simulated.clone();
        out
    }

    /// The offered-load ladder: one open-loop trace and serving run per
    /// load point, priced from the cost table.
    fn ladder(&self, mut ops: Vec<OpResult>, mut tr: Option<&mut Tracer>) -> PassOut {
        let table = self.table.as_ref().expect("cost table built");
        let mix = RequestMix::recommendation_heavy();
        let mut work = PassWork::default();
        let root = tr.as_deref_mut().map(|tr| tr.open("pass"));
        for (i, (&gap, &seed)) in SERVING_GAPS.iter().zip(&self.point_seeds).enumerate() {
            let (trace, r) = match tr.as_deref_mut() {
                Some(tr) => {
                    let trace = tr.span("serving.arrivals", |_| {
                        OpenLoopArrivals::trace(seed, mix, gap, SERVING_REQUESTS)
                    });
                    let r = tr.span("serving.loop", |_| {
                        run_serving(&self.cfg, &trace, &mut TableCoster::new(table))
                    });
                    (trace, r)
                }
                None => {
                    let trace = OpenLoopArrivals::trace(seed, mix, gap, SERVING_REQUESTS);
                    let r = run_serving(&self.cfg, &trace, &mut TableCoster::new(table));
                    (trace, r)
                }
            };
            let offered = trace.len() as u64;
            let violation = if r.served + r.rejected != offered {
                Some(format!(
                    "served {} + rejected {} != offered {offered}",
                    r.served, r.rejected
                ))
            } else if !(r.p50 <= r.p95 && r.p95 <= r.p99) {
                Some(format!(
                    "percentiles out of order: {} {} {}",
                    r.p50, r.p95, r.p99
                ))
            } else if r.batches == 0 || r.batches > r.served {
                Some(format!("{} batches for {} served", r.batches, r.served))
            } else {
                None
            };
            for (acc, v) in work
                .serving
                .iter_mut()
                .zip([offered, r.served, r.rejected, r.batches])
            {
                *acc += v;
            }
            ops.push(OpResult {
                key: format!("serving_sweep/point{i}"),
                values: vec![r.served, r.rejected, r.batches, r.p50, r.p95, r.p99],
                seed_dependent: true,
                violation,
            });
        }
        if let (Some(tr), Some(root)) = (tr, root) {
            tr.close(root);
        }
        PassOut {
            ops,
            counters: Vec::new(),
            work,
        }
    }
}

/// One op per cost-table entry. With `composed`, each entry must also
/// equal the re-composed executor's PIM side.
fn cost_ops(
    table: &CostTable,
    composed: Option<&[((RequestKind, usize), crate::compose::ComposedCost)]>,
) -> Vec<OpResult> {
    let mut ops = Vec::new();
    for kind in RequestKind::ALL {
        for class in classes(kind) {
            let c = table[&(kind, class)];
            let gemms = graph_for(kind, class)
                .ops
                .iter()
                .filter(|op| matches!(op, Op::Gemm(_)))
                .count();
            let mut violation = (c.pim_gemms + c.cpu_gemms != gemms)
                .then(|| format!("{} + {} GEMMs priced of {gemms}", c.pim_gemms, c.cpu_gemms));
            if let Some(composed) = composed {
                let (_, t) = composed
                    .iter()
                    .find(|(k, _)| *k == (kind, class))
                    .expect("composed");
                let one_call = (c.pim_cycles, c.data_cycles, c.pim_gemms, c.cpu_gemms);
                let traced = (t.pim_cycles, t.data_cycles, t.pim_gemms, t.cpu_gemms);
                if one_call != traced {
                    violation = Some(format!("composed {traced:?} != pass_cost {one_call:?}"));
                }
            }
            ops.push(OpResult {
                key: format!("serving_sweep/cost/{}/{class}", kind.name()),
                values: vec![
                    c.pim_cycles,
                    c.cpu_cycles,
                    c.data_cycles,
                    c.pim_gemms as u64,
                    c.cpu_gemms as u64,
                ],
                seed_dependent: false,
                violation,
            });
        }
    }
    ops
}
