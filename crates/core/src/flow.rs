//! The StepStone GEMM execution flow (paper §III-B/C, Algorithm 1) coupled
//! to the DRAM timing simulator.
//!
//! One GEMM proceeds through three serial macro-phases (§V-F finds
//! overlapping buffer traffic with arithmetic unprofitable):
//!
//! 1. **Localization** — the PIM controller's DMA engine (or the host, for
//!    eCHO/nCHO/PEI) replicates the cache-resident `B` panel into per-PIM
//!    regions, reorganized into consumption order (Fig. 5).
//! 2. **Kernel** — every active PIM walks Algorithm 1: per row partition,
//!    fill `C`; per block group and column partition, fill `B` and stream
//!    the PIM-local `A` blocks through the SIMD pipeline with AGEN-generated
//!    addresses; then drain `C`.
//! 3. **Reduction** — partial `C` copies are merged over the channel.

use crate::config::{AgenMode, SystemConfig};
use crate::engine::{
    run_phase_auto, RoundHint, Skipped, Step, StepSource, SubsetRemap, TrafficCursor, UnitCursor,
};
use crate::gemm::GemmSpec;
use crate::report::{LatencyReport, Phase};
use stepstone_addr::agen::{KeyTest, Spans, TableStretch};
use stepstone_addr::groups::partition_constraints;
use stepstone_addr::{
    AgenSpan, Geometry, GroupAnalysis, KeyRuns, MappingId, MatrixLayout, NaiveAgen, PageMap,
    PagingConfig, PimLevel, RegionIter, RegionPlan, SpanProgram, StepStoneAgen, XorMapping,
    BLOCK_BYTES, BLOCK_SHIFT,
};
use stepstone_dram::{BackendKind, CommandBus, Port, TimingState, TrafficSource};
use stepstone_fabric::{FabricState, FabricStats, ReduceVia};
use stepstone_pim::{
    BufferPlan, KernelGranularity, LocalizationMode, PimLevelConfig, TransferPlan,
};

/// Full options for one GEMM simulation.
#[derive(Debug, Clone)]
pub struct SimOptions {
    pub level_cfg: PimLevelConfig,
    pub granularity: KernelGranularity,
    /// High bank-group ID bits to drop (PIM-subset optimization, Fig. 10).
    pub subset_drop_bits: u32,
    /// Override the system's localization mode (None = use system's).
    pub localization: Option<LocalizationMode>,
}

impl SimOptions {
    pub fn stepstone(level: PimLevel) -> Self {
        Self {
            level_cfg: PimLevelConfig::nominal(level),
            granularity: KernelGranularity::CoarseStepStone,
            subset_drop_bits: 0,
            localization: None,
        }
    }

    /// Enhanced Chopim: StepStone's grouping but per-dot-product kernels and
    /// host-mediated localization/reduction (paper §IV "eCHO").
    pub fn echo(level: PimLevel) -> Self {
        Self {
            level_cfg: PimLevelConfig::nominal(level),
            granularity: KernelGranularity::PerDotProduct,
            subset_drop_bits: 0,
            localization: Some(LocalizationMode::HostMediated { gap_cycles: 4 }),
        }
    }

    pub fn with_level_cfg(mut self, cfg: PimLevelConfig) -> Self {
        self.level_cfg = cfg;
        self
    }

    pub fn with_subset(mut self, drop_bits: u32) -> Self {
        self.subset_drop_bits = drop_bits;
        self
    }
}

/// Simulate one GEMM with StepStone PIM at the given level (nominal config,
/// no colocated traffic). Non-power-of-two shapes are decomposed.
pub fn simulate_gemm(sys: &SystemConfig, spec: &GemmSpec, level: PimLevel) -> LatencyReport {
    simulate_gemm_opt(sys, spec, &SimOptions::stepstone(level), None)
}

/// Simulate one GEMM with explicit options and optional colocated traffic:
/// [`simulate_gemm_session`] over a throwaway [`SessionCache`].
pub fn simulate_gemm_opt(
    sys: &SystemConfig,
    spec: &GemmSpec,
    opts: &SimOptions,
    traffic: Option<&mut dyn TrafficSource>,
) -> LatencyReport {
    simulate_gemm_session(sys, spec, opts, &SessionCache::new(), traffic)
}

/// Chain one report per power-of-two sub-GEMM of `spec`, each simulated by
/// `pass`, into one report labeled `backend`.
pub(crate) fn chain_pow2(
    sys: &SystemConfig,
    spec: &GemmSpec,
    backend: String,
    mut traffic: Option<&mut dyn TrafficSource>,
    mut pass: impl FnMut(&GemmSpec, Option<&mut dyn TrafficSource>) -> LatencyReport,
) -> LatencyReport {
    let mut report = LatencyReport { clock_hz: sys.dram.clock_hz, ..Default::default() };
    for sub in spec.decompose_pow2() {
        report.chain(&pass(&sub, stepstone_dram::traffic::reborrow(&mut traffic)));
    }
    report.backend = backend;
    report
}

/// Fresh per-pass memory state of `sys`: a new exact timing state (traced
/// under `sys.trace`) and a new command bus. Every engine-driven request
/// runs on these, whatever `sys.backend` selects.
pub(crate) fn fresh_memory(sys: &SystemConfig) -> (TimingState, CommandBus) {
    let mut ts = TimingState::new(sys.dram);
    if sys.trace {
        ts.enable_trace();
    }
    (ts, CommandBus::new(sys.dram.geom.channels as usize))
}

/// Everything a [`GemmContext`] build consumes: the GEMM shape, the
/// option fields that change the mapping analysis, buffer plan, span
/// programs, or KeyRuns tables, and the system fields the build bakes in.
/// Two requests with equal keys can share one context, even when they come
/// from different systems sharing one [`SessionCache`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SessionKey {
    pub spec: GemmSpec,
    pub level: PimLevel,
    pub subset_drop_bits: u32,
    /// Scratchpad capacity drives the buffer plan (nominal vs relaxed).
    pub scratchpad_bytes: u64,
    /// [`KernelGranularity`] as a stable tag (it does not derive `Hash`).
    pub granularity: u8,
    /// The system's VA→PA paging layer: the context caches a [`PageMap`],
    /// so two systems differing only in paging must not share contexts.
    pub paging: Option<PagingConfig>,
    /// The address mapping (`SystemConfig::mapping`): its preset and the
    /// DRAM geometry it is laid over.
    pub mapping_id: MappingId,
    pub geom: Geometry,
    /// Arena bases the matrix and the per-PIM regions are placed at.
    pub weight_base: u64,
    pub buffer_base: u64,
}

impl SessionKey {
    /// The key of `(spec, opts)` under `sys`: the option fields above plus
    /// the system fields a [`GemmContext`] build bakes in (paging layer,
    /// address mapping, arena bases).
    pub fn for_system(sys: &SystemConfig, spec: &GemmSpec, opts: &SimOptions) -> Self {
        Self {
            spec: *spec,
            level: opts.level_cfg.level,
            subset_drop_bits: opts.subset_drop_bits,
            scratchpad_bytes: opts.level_cfg.scratchpad_bytes,
            granularity: match opts.granularity {
                KernelGranularity::CoarseStepStone => 0,
                KernelGranularity::PerDotProduct => 1,
                KernelGranularity::PerCacheBlock => 2,
            },
            paging: sys.paging,
            mapping_id: sys.mapping_id,
            geom: sys.dram.geom,
            weight_base: sys.weight_base,
            buffer_base: sys.buffer_base,
        }
    }
}

/// The persistent session layer of the serving architecture: shape-keyed
/// reuse of [`GemmContext`]s (mapping analysis, span programs, KeyRuns,
/// region plans) across requests. Build once per distinct shape, execute
/// per request — execution itself stays cycle-exact because timing state
/// is per-pass, not cached.
///
/// Shared by reference (`Arc<SessionCache>`) between executors and serving
/// loops; interior mutability keeps the call sites `&self`.
#[derive(Default)]
pub struct SessionCache {
    ctxs: std::sync::Mutex<rustc_hash::FxHashMap<SessionKey, std::sync::Arc<GemmContext>>>,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
}

impl SessionCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached context for `(spec, opts)` under `sys`, building (and
    /// retaining) it on first use. `spec` must already be power-of-two.
    pub fn context(
        &self,
        sys: &SystemConfig,
        spec: &GemmSpec,
        opts: &SimOptions,
    ) -> std::sync::Arc<GemmContext> {
        use std::sync::atomic::Ordering;
        let key = SessionKey::for_system(sys, spec, opts);
        if let Some(ctx) = self.ctxs.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return ctx.clone();
        }
        // Build outside the lock: context construction is the expensive
        // part and concurrent sweep threads should not serialize on it.
        // A racing duplicate build is benign (last insert wins).
        self.misses.fetch_add(1, Ordering::Relaxed);
        let ctx = std::sync::Arc::new(GemmContext::build(sys, spec, opts));
        self.ctxs.lock().unwrap().insert(key, ctx.clone());
        ctx
    }

    /// Requests served from an already-built context.
    pub fn hits(&self) -> u64 {
        self.hits.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Contexts built (first-use requests).
    pub fn misses(&self) -> u64 {
        self.misses.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Distinct shapes resident.
    pub fn len(&self) -> usize {
        self.ctxs.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Simulate one GEMM through the persistent session layer: each
/// power-of-two sub-GEMM takes its context from `cache` (built on first
/// use) and runs through [`simulate_pow2_gemm_ctx`]; the reports chain.
/// Repeated shapes skip the context build entirely.
pub fn simulate_gemm_session(
    sys: &SystemConfig,
    spec: &GemmSpec,
    opts: &SimOptions,
    cache: &SessionCache,
    traffic: Option<&mut dyn TrafficSource>,
) -> LatencyReport {
    let scheme = match opts.granularity {
        KernelGranularity::CoarseStepStone if opts.subset_drop_bits > 0 => "STP/subset",
        KernelGranularity::CoarseStepStone => "STP",
        KernelGranularity::PerDotProduct => "eCHO",
        KernelGranularity::PerCacheBlock => "PEI",
    };
    let backend = format!("{scheme}-{}", opts.level_cfg.level.tag());
    chain_pow2(sys, spec, backend, traffic, |sub, traffic| {
        let ctx = cache.context(sys, sub, opts);
        simulate_pow2_gemm_ctx(sys, sub, opts, traffic, ExecMode::Streaming, &ctx, 0)
    })
}

/// The static execution context shared by schedule building and validation.
pub struct GemmContext {
    pub mapping: XorMapping,
    pub layout: MatrixLayout,
    pub ga: GroupAnalysis,
    pub plan: BufferPlan,
    pub transfer: TransferPlan,
    pub active_pims: Vec<u32>,
    pub n: usize,
    /// Per-active-PIM localized `B` region (lazy span-backed plan).
    pub b_regions: Vec<RegionPlan>,
    /// Per-active-PIM partial-`C` region (lazy span-backed plan).
    pub c_regions: Vec<RegionPlan>,
    /// Matrix rows per (row partition, group): the one definition of rpart
    /// membership, shared by the build and the analytic tier.
    pub(crate) rows_by_rpart_group: Vec<Vec<u64>>,
    /// Per-PIM, per-row-partition resident `C` blocks.
    pub c_blocks_by_rpart: Vec<Vec<u64>>,
    /// Per-PIM, per (group visit index, cpart): `B` slice length in blocks.
    pub b_slice_lens: Vec<Vec<u64>>,
    /// Direct-scratchpad optimization active (small matrices, §III-E).
    pub direct_scratchpad: bool,
    /// Per-active-PIM tabulated same-(bank, row) run boundaries of the `B`
    /// region (None when the mapping period is untabulable or fills are
    /// bypassed): the kernel stream's fill-stage run hints.
    pub b_key_runs: Vec<Option<KeyRuns>>,
    /// Same for the partial-`C` region (FillC/DrainC hints).
    pub c_key_runs: Vec<Option<KeyRuns>>,
    /// The system's VA→PA translation map (page-colored for this context's
    /// mapping; `None` = the paper's physically contiguous arenas). Step
    /// streams translate through it and clip their run promises at page
    /// boundaries.
    pub page_map: Option<PageMap>,
    /// The span key-equality test of the mapping and the pages the kernel
    /// streams see: the A-walks' stretch promises ([`WalkCursor::stretch`]).
    pub(crate) keys: KeyTest,
}

impl GemmContext {
    pub fn build(sys: &SystemConfig, spec: &GemmSpec, opts: &SimOptions) -> Self {
        assert!(spec.is_pow2(), "decompose before building a context");
        let mapping = sys.mapping();
        let total_bytes = (spec.m * spec.k * 4) as u64;
        let base = sys.place_weights(total_bytes);
        let layout = MatrixLayout::new_f32(base, spec.m, spec.k);
        let level = opts.level_cfg.level;
        let ga = if opts.subset_drop_bits > 0 {
            GroupAnalysis::analyze_subset(&mapping, level, layout, opts.subset_drop_bits)
        } else {
            GroupAnalysis::analyze(&mapping, level, layout)
        };
        let plan = BufferPlan::plan(opts.level_cfg.scratchpad_bytes, spec.n, &ga);
        let transfer = TransferPlan::for_gemm(&ga, spec.n);
        let active_pims = ga.active_pims();
        let n = spec.n;

        // One pass over the rows counts matrix rows per (rpart, group), and
        // one over the block columns counts columns per (cpart, column
        // parity vector). A PIM's resident C rows in an rpart are the rows
        // of its admissible groups; its B columns of (group, cpart) are the
        // columns whose parity vector is `pim ^ fixed ^ group_vec(group)`.
        // BufferPlan keeps rparts ≤ rows and cparts ≤ block columns (powers
        // of two), so every partition spans at least one of each.
        let rows_per_rpart = layout.rows / plan.rparts as usize;
        let mut rows_by_rpart_group = vec![vec![0u64; ga.n_groups()]; plan.rparts as usize];
        for r in 0..layout.rows {
            rows_by_rpart_group[r / rows_per_rpart][ga.group_of_row(r)] += 1;
        }
        let cols_per_cpart = layout.blocks_per_row() / plan.cparts as u64;
        let mut cols_by_cpart_vec = vec![vec![0u64; 1 << ga.id_masks.len()]; plan.cparts as usize];
        for k in 0..layout.blocks_per_row() {
            let cpart = (k / cols_per_cpart) as usize;
            cols_by_cpart_vec[cpart][ga.col_parity_vec(k) as usize] += 1;
        }
        // Per PIM, in group visit order: B slice lengths per (group, cpart)
        // (one column block of B holds 16 rows × n f32 = n blocks) and
        // resident C blocks per rpart.
        let mut b_slice_lens = Vec::with_capacity(active_pims.len());
        let mut c_blocks_by_rpart = Vec::with_capacity(active_pims.len());
        for &pim in &active_pims {
            let groups: Vec<usize> = (0..ga.n_groups())
                .filter(|&g| ga.is_admissible(pim, g))
                .collect();
            b_slice_lens.push(
                groups
                    .iter()
                    .flat_map(|&g| {
                        let need = (pim ^ ga.fixed ^ ga.group_vec(g)) as usize;
                        cols_by_cpart_vec
                            .iter()
                            .map(move |cols| cols[need] * n as u64)
                    })
                    .collect::<Vec<u64>>(),
            );
            c_blocks_by_rpart.push(
                rows_by_rpart_group
                    .iter()
                    .map(|rows| {
                        let rows: u64 = groups.iter().map(|&g| rows[g]).sum();
                        (rows * n as u64 * 4).div_ceil(64)
                    })
                    .collect::<Vec<u64>>(),
            );
        }

        // Carve per-PIM regions out of the buffer arenas: span-backed plans
        // instead of materialized address lists (resident storage is
        // O(constrained bits × 2^ID bits) per plan, not O(region blocks)).
        let region = |pim: u32, arena: u64, count: u64| -> RegionPlan {
            RegionPlan::carve(ga.pim_constraints(pim), arena, count)
        };
        let c_arena = sys.buffer_base + (1u64 << 31);
        let mut b_regions = Vec::with_capacity(active_pims.len());
        let mut c_regions = Vec::with_capacity(active_pims.len());
        for (pix, &pim) in active_pims.iter().enumerate() {
            let b_count: u64 = b_slice_lens[pix].iter().sum();
            let c_count: u64 = c_blocks_by_rpart[pix].iter().sum();
            b_regions.push(region(pim, sys.buffer_base, b_count));
            c_regions.push(region(pim, c_arena, c_count));
        }

        let b_bytes_pp = transfer.b_blocks_per_pim * 64;
        let c_bytes_pp = transfer.c_blocks_per_pim * 64;
        let direct_scratchpad =
            b_bytes_pp + c_bytes_pp <= opts.level_cfg.scratchpad_bytes;

        // Tabulate the regions' same-(bank, row) run boundaries once per
        // context: the kernel streams hint whole fill runs to the engine
        // from these. Pointless when fills are bypassed entirely.
        let (b_key_runs, c_key_runs) = if direct_scratchpad {
            (vec![None; b_regions.len()], vec![None; c_regions.len()])
        } else {
            // The per-PIM plans of one matrix — B and C alike, which are
            // carved with the same masks — differ only in parity targets,
            // arena and length, none of which changes the table (see
            // `RegionPlan::same_key_runs`): tabulate each class once.
            let mut classes: Vec<(&RegionPlan, Option<KeyRuns>)> = Vec::new();
            let mut runs = Vec::with_capacity(b_regions.len() + c_regions.len());
            for r in b_regions.iter().chain(&c_regions) {
                let kr = match classes.iter().find(|(p, _)| p.same_key_runs(r)) {
                    Some((_, kr)) => kr.clone(),
                    None => {
                        let kr = r.key_runs(&mapping);
                        classes.push((r, kr.clone()));
                        kr
                    }
                };
                runs.push(kr);
            }
            let c = runs.split_off(b_regions.len());
            (runs, c)
        };

        let page_map = sys.page_map();
        Self {
            layout,
            ga,
            plan,
            transfer,
            active_pims,
            n,
            b_regions,
            c_regions,
            rows_by_rpart_group,
            c_blocks_by_rpart,
            b_slice_lens,
            direct_scratchpad,
            b_key_runs,
            c_key_runs,
            keys: KeyTest::new(
                &mapping,
                page_map.as_ref().filter(|m| m.affects_stream()).map(PageMap::page_mask),
            ),
            mapping,
            page_map,
        }
    }

    /// The tabulated same-key runs of a region plan carved from this
    /// context's masks: the table of the first `B` or `C` region sharing
    /// its class (see [`RegionPlan::same_key_runs`]).
    fn key_runs_of(&self, plan: &RegionPlan) -> Option<&KeyRuns> {
        let b = self.b_regions.iter().zip(&self.b_key_runs);
        let c = self.c_regions.iter().zip(&self.c_key_runs);
        b.chain(c).find(|(p, _)| p.same_key_runs(plan)).and_then(|(_, kr)| kr.as_ref())
    }

    /// The channel a PIM's control traffic rides on (lowest ID bits are the
    /// channel bits by construction).
    pub fn pim_channel(&self, pim: u32) -> u32 {
        pim & (self.mapping.geometry().channels - 1)
    }

    /// The block-walk for one (pim, group, rpart, cpart) cell of
    /// Algorithm 1, honoring the configured AGEN mode (materialized; the
    /// hot path uses [`GemmContext::walk_stream`]).
    pub fn walk(
        &self,
        sys: &SystemConfig,
        pim: u32,
        grp: usize,
        rpart: u32,
        cpart: u32,
    ) -> Vec<(u64, u32)> {
        let mut w = self.walk_stream(sys.agen, pim, grp, rpart, cpart);
        let mut out = Vec::new();
        while let Some(step) = w.next() {
            out.push(step);
        }
        out
    }

    /// Streaming form of [`GemmContext::walk`]: a cursor yielding
    /// `(pa, agen_iterations)` on demand, without materializing the walk.
    pub fn walk_stream(
        &self,
        agen: AgenMode,
        pim: u32,
        grp: usize,
        rpart: u32,
        cpart: u32,
    ) -> WalkCursor {
        self.walk_stream_impl(agen, pim, grp, rpart, cpart, false)
    }

    fn walk_stream_impl(
        &self,
        agen: AgenMode,
        pim: u32,
        grp: usize,
        rpart: u32,
        cpart: u32,
        uncached_corrector: bool,
    ) -> WalkCursor {
        let mut cs = self.ga.constraints_for(pim, grp);
        cs.extend(partition_constraints(
            self.layout.mrow_mask(),
            self.plan.rparts,
            rpart,
        ));
        cs.extend(partition_constraints(
            self.layout.mcol_mask(),
            self.plan.cparts,
            cpart,
        ));
        match agen {
            AgenMode::Naive => WalkCursor::Naive(NaiveAgen::new(cs, self.layout.base, self.layout.end())),
            AgenMode::StepStone(rules) => {
                let a = StepStoneAgen::with_rules(cs, self.layout.base, self.layout.end(), rules);
                let spans = if uncached_corrector {
                    // Seed baseline: live walk with the per-candidate
                    // corrector, no span-program cache.
                    SpanSource::Live(a.use_uncached_corrector().spans())
                } else {
                    SpanSource::Program(Box::new(a.span_program().with_keys(self.keys.clone())))
                };
                WalkCursor::Spanned { spans, cur: 0, remaining: 0, first_iters: 0, started: 0 }
            }
        }
    }
}

/// The span generator behind a [`WalkCursor`]: the cached periodic
/// [`SpanProgram`] on the production path, the plain live generator for the
/// frozen seed baseline.
pub enum SpanSource {
    /// Boxed: the span program carries window-successor state and counters,
    /// and would otherwise dominate the `WalkCursor` enum's size.
    Program(Box<SpanProgram>),
    Live(Spans),
}

impl SpanSource {
    #[inline]
    fn next(&mut self) -> Option<AgenSpan> {
        match self {
            SpanSource::Program(p) => p.next(),
            SpanSource::Live(s) => s.next(),
        }
    }
}

/// Blocks from `cur` on (at most `remaining`) that share one window key
/// under a mapping whose column-only address bits are `col_pure_mask`:
/// all of them when every varying bit is column-pure, else up to the
/// first boundary where a non-column bit flips.
#[inline]
fn same_key_prefix(cur: u64, remaining: u64, col_pure_mask: u64) -> u64 {
    if remaining <= 1 {
        return remaining;
    }
    let last = cur + (remaining - 1) * BLOCK_BYTES;
    let top = 63 - (cur ^ last).leading_zeros();
    let varying = (1u64 << (top + 1)) - (1u64 << BLOCK_SHIFT);
    let impure = varying & !col_pure_mask;
    if impure == 0 {
        return remaining;
    }
    // Addresses share every bit at or above the lowest impure varying bit
    // until the next multiple of it, so the run up to that boundary still
    // holds one window key.
    let b = impure.trailing_zeros();
    let boundary = ((cur >> b) + 1) << b;
    (boundary - cur) / BLOCK_BYTES
}

/// A lazy (pa, AGEN iterations) cursor over one Algorithm-1 cell.
///
/// The StepStone variant pulls batched [`stepstone_addr::AgenSpan`] runs —
/// replayed from the periodic span-program cache on the production path —
/// and unrolls them with a span counter, so the GF(2) corrector runs at
/// most once per run instead of once per block.
pub enum WalkCursor {
    Naive(NaiveAgen),
    /// `started`: spans started so far, skipped ones included.
    Spanned { spans: SpanSource, cur: u64, remaining: u64, first_iters: u32, started: u64 },
}

impl WalkCursor {
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(u64, u32)> {
        match self {
            WalkCursor::Naive(a) => a.next().map(|s| (s.pa, s.iterations)),
            WalkCursor::Spanned { spans, cur, remaining, first_iters, started } => {
                if *remaining == 0 {
                    let span = spans.next()?;
                    *started += 1;
                    *cur = span.start_pa;
                    *remaining = span.len;
                    *first_iters = span.iterations;
                }
                let pa = *cur;
                *cur += BLOCK_BYTES;
                *remaining -= 1;
                let iters = if *first_iters != 0 { std::mem::take(first_iters) } else { 1 };
                Some((pa, iters))
            }
        }
    }

    /// Whole-run hint for the engine: how many upcoming blocks (including
    /// the next) are contiguous with coordinates differing only in the
    /// column — i.e. the rest of the current span when every varying
    /// address bit is column-pure under the mapping, and otherwise the
    /// span's prefix up to the first boundary where a non-column bit
    /// flips. Long replayed spans (window-granular runs straddling a row
    /// or bank boundary) are thus promised chunk by chunk instead of not
    /// at all. 1 = no promise.
    #[inline]
    pub fn run_hint(&self, col_pure_mask: u64) -> u64 {
        match self {
            WalkCursor::Naive(_) => 1,
            WalkCursor::Spanned { cur, remaining, .. } => {
                same_key_prefix(*cur, *remaining, col_pure_mask).max(1)
            }
        }
    }

    /// Address of the next block this cursor will yield, without advancing
    /// — valid whenever a span is in flight (which [`WalkCursor::run_hint`]
    /// returning > 1 implies). Page-clipped hints key their boundary on it.
    #[inline]
    pub fn peek_pa(&self) -> Option<u64> {
        match self {
            WalkCursor::Naive(_) => None,
            WalkCursor::Spanned { cur, remaining, .. } => {
                (*remaining > 0).then_some(*cur)
            }
        }
    }

    /// Spans started so far (0 for the naive walk).
    fn spans_started(&self) -> u64 {
        match self {
            WalkCursor::Spanned { started, .. } => *started,
            WalkCursor::Naive(_) => 0,
        }
    }

    /// Key-equality tests evaluated for stretches so far.
    fn key_tests(&self) -> u64 {
        match self {
            WalkCursor::Spanned { spans: SpanSource::Program(p), .. } => p.key_tests,
            _ => 0,
        }
    }

    /// At a span boundary, the upcoming spans that repeat the key pattern
    /// of the span just completed, read off the span program's skeleton
    /// tables ([`SpanProgram::stretch`]; a cold window records its table on
    /// entry). `None` off a boundary and wherever the walk has no table to
    /// read: a range-edge window, a degenerate or keyless walk, a skeleton
    /// recorded under another mapping, the live seed walk.
    pub(crate) fn stretch(&mut self) -> Option<TableStretch> {
        match self {
            WalkCursor::Spanned { spans: SpanSource::Program(p), remaining: 0, .. } => p.stretch(),
            _ => None,
        }
    }

    /// Skip `n` spans a [`WalkCursor::stretch`] promised, by index
    /// ([`SpanProgram::skip_spans`]), without yielding them; returns their
    /// exact AGEN charges.
    pub(crate) fn skip_spans(&mut self, n: u64, bubble_over: u64) -> Skipped {
        let WalkCursor::Spanned { spans: SpanSource::Program(p), remaining, started, .. } = self
        else {
            unreachable!("skip_spans off a span program")
        };
        debug_assert!(*remaining == 0, "skip off a span boundary");
        let mut out = Skipped::default();
        p.skip_spans(n, |span| out.round(span.len, span.iterations.max(1), bubble_over));
        *started += n;
        out
    }

    /// Skip up to `n` blocks of the current span without yielding them
    /// (the [`StepSource::take_run`] contract: only callable for blocks a
    /// hint already promised, each a plain one-iteration continuation).
    /// Returns the number skipped; 0 when the cursor cannot promise
    /// one-iteration continuations (naive AGEN, or a span head whose
    /// corrector cost is still unconsumed).
    #[inline]
    pub fn take_run(&mut self, n: u64) -> u64 {
        match self {
            WalkCursor::Naive(_) => 0,
            WalkCursor::Spanned { cur, remaining, first_iters, .. } => {
                if *first_iters != 0 {
                    return 0;
                }
                let k = n.min(*remaining);
                *cur += k * BLOCK_BYTES;
                *remaining -= k;
                k
            }
        }
    }
}

/// How step programs reach the engine. `Streaming`, the only mode, feeds
/// each [`UnitCursor`] from a lazy [`KernelStream`], keeping resident step
/// storage at O(reorder window × active PIMs). The type survives only as
/// the ignored `mode` argument of [`simulate_pow2_gemm_ctx`]; the frozen
/// seed (`stepstone-bench::seed_replay`) is the materialized reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    #[default]
    Streaming,
}

/// Stage of the per-rpart section of Algorithm 1 a [`KernelStream`] is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KernelStage {
    Launch,
    FillC,
    FillB,
    Gemm,
    DrainC,
    Done,
}

/// Lazy generator of the kernel-phase step program for one PIM — the
/// streaming replacement for the seed's materialized `Vec<Step>`. Yields
/// exactly the sequence [`build_kernel_program_seed`] builds, but on
/// demand: the only per-block state is the AGEN walk cursor.
pub struct KernelStream<'a> {
    ctx: &'a GemmContext,
    agen: AgenMode,
    pim: u32,
    pix: usize,
    echo: bool,
    /// Per-rpart prefix offsets into the PIM's C region (len = rparts + 1).
    c_offsets: Vec<u64>,
    /// Admissible (group, cpart, b_offset, b_len) cells in visit order.
    cells: Vec<(usize, u32, u64, u64)>,
    rpart: u32,
    stage: KernelStage,
    /// Lazy cursor over the current fill/drain region slice.
    fill: Option<RegionIter<'a>>,
    cell_ix: usize,
    walk: Option<WalkCursor>,
    last_row: usize,
    /// Access queued behind an eCHO per-row Launch.
    queued: Option<Step>,
    /// Use the seed-era uncached GF(2) corrector (benchmark baseline).
    uncached_agen: bool,
    /// PA bits that only move the column coordinate (run-hint guard).
    col_pure: u64,
    /// Set when the system's paging layer affects this stream: run hints
    /// are clipped at page boundaries so promised runs never straddle a
    /// frame (translation can break keys there, and transitions must be
    /// real pulls that carry the PTW's AGEN cost).
    page: Option<PageMap>,
    /// A-walk spans of finished cells (round count of the stretch
    /// promise).
    spans_before: u64,
    /// Key-equality tests of finished cells' walks.
    tests_before: u64,
    /// Last emitted access address — debug builds verify every block a
    /// `take_run` skips against its (bank, row) key.
    #[cfg(debug_assertions)]
    last_pa: u64,
}

impl<'a> KernelStream<'a> {
    /// Build the lazy kernel-phase step stream for active PIM `pix`.
    pub fn new(
        ctx: &'a GemmContext,
        sys: &SystemConfig,
        opts: &SimOptions,
        pix: usize,
    ) -> Self {
        let pim = ctx.active_pims[pix];
        let mut c_offsets = Vec::with_capacity(ctx.plan.rparts as usize + 1);
        let mut acc = 0u64;
        c_offsets.push(0);
        for rp in 0..ctx.plan.rparts as usize {
            acc += ctx.c_blocks_by_rpart[pix][rp];
            c_offsets.push(acc);
        }
        let mut cells = Vec::new();
        let mut b_acc = 0u64;
        let mut slice_ix = 0usize;
        for grp in 0..ctx.ga.n_groups() {
            if !ctx.ga.is_admissible(pim, grp) {
                continue;
            }
            for cpart in 0..ctx.plan.cparts {
                let len = ctx.b_slice_lens[pix][slice_ix];
                slice_ix += 1;
                cells.push((grp, cpart, b_acc, len));
                b_acc += len;
            }
        }
        Self {
            ctx,
            agen: sys.agen,
            pim,
            pix,
            echo: opts.granularity == KernelGranularity::PerDotProduct,
            c_offsets,
            cells,
            rpart: 0,
            stage: KernelStage::Launch,
            fill: None,
            cell_ix: 0,
            walk: None,
            last_row: usize::MAX,
            queued: None,
            uncached_agen: false,
            col_pure: ctx.mapping.column_pure_mask(),
            page: ctx.page_map.clone().filter(|m| m.affects_stream()),
            spans_before: 0,
            tests_before: 0,
            #[cfg(debug_assertions)]
            last_pa: 0,
        }
    }

    /// Seed-faithful variant: same step sequence, but the AGEN rebuilds its
    /// GF(2) system per candidate position as the seed did.
    pub(crate) fn with_seed_agen(mut self) -> Self {
        self.uncached_agen = true;
        self
    }

    /// Lazy cursor over this rpart's slice of the PIM's C region.
    fn c_fill(&self) -> Option<RegionIter<'a>> {
        if self.ctx.direct_scratchpad {
            return None;
        }
        let lo = self.c_offsets[self.rpart as usize];
        let hi = self.c_offsets[self.rpart as usize + 1];
        Some(self.ctx.c_regions[self.pix].iter_range(lo, hi))
    }

    /// Lazy cursor over the current cell's slice of the PIM's B region.
    fn cell_fill(&self) -> Option<RegionIter<'a>> {
        if self.ctx.direct_scratchpad {
            return None;
        }
        let &(_, _, b_off, b_len) = self.cells.get(self.cell_ix)?;
        Some(self.ctx.b_regions[self.pix].iter_range(b_off, b_off + b_len))
    }
}

impl Iterator for KernelStream<'_> {
    type Item = Step;

    fn next(&mut self) -> Option<Step> {
        let step = self.next_step();
        #[cfg(debug_assertions)]
        if let Some(Step::Access { pa, .. }) = step {
            self.last_pa = pa;
        }
        step
    }
}

impl KernelStream<'_> {
    fn next_step(&mut self) -> Option<Step> {
        if let Some(step) = self.queued.take() {
            return Some(step);
        }
        loop {
            match self.stage {
                KernelStage::Launch => {
                    self.stage = KernelStage::FillC;
                    self.fill = self.c_fill();
                    if !self.echo {
                        return Some(Step::Launch);
                    }
                }
                KernelStage::FillC => {
                    if let Some(pa) = self.fill.as_mut().and_then(|it| it.next()) {
                        return Some(Step::Access {
                            pa,
                            write: false,
                            cat: Phase::FillC,
                            agen_iters: 1,
                            compute: false,
                        });
                    }
                    self.stage = KernelStage::FillB;
                    self.cell_ix = 0;
                    self.fill = self.cell_fill();
                }
                KernelStage::FillB => {
                    let Some(&(grp, cpart, _, _)) = self.cells.get(self.cell_ix) else {
                        self.stage = KernelStage::DrainC;
                        self.fill = self.c_fill();
                        continue;
                    };
                    if let Some(pa) = self.fill.as_mut().and_then(|it| it.next()) {
                        return Some(Step::Access {
                            pa,
                            write: false,
                            cat: Phase::FillB,
                            agen_iters: 1,
                            compute: false,
                        });
                    }
                    self.walk = Some(self.ctx.walk_stream_impl(
                        self.agen,
                        self.pim,
                        grp,
                        self.rpart,
                        cpart,
                        self.uncached_agen,
                    ));
                    self.last_row = usize::MAX;
                    self.stage = KernelStage::Gemm;
                }
                KernelStage::Gemm => {
                    let walk = self.walk.as_mut().expect("walk set on Gemm entry");
                    let Some((pa, iters)) = walk.next() else {
                        self.spans_before += walk.spans_started();
                        self.tests_before += walk.key_tests();
                        self.walk = None;
                        self.cell_ix += 1;
                        self.fill = self.cell_fill();
                        self.stage = KernelStage::FillB;
                        continue;
                    };
                    let access = Step::Access {
                        pa,
                        write: false,
                        cat: Phase::Gemm,
                        agen_iters: iters,
                        compute: true,
                    };
                    if self.echo {
                        let (row, _) = self.ctx.layout.locate(pa);
                        if row != self.last_row {
                            self.last_row = row;
                            self.queued = Some(access);
                            return Some(Step::Launch);
                        }
                    }
                    return Some(access);
                }
                KernelStage::DrainC => {
                    if let Some(pa) = self.fill.as_mut().and_then(|it| it.next()) {
                        return Some(Step::Access {
                            pa,
                            write: true,
                            cat: Phase::DrainC,
                            agen_iters: 1,
                            compute: false,
                        });
                    }
                    self.rpart += 1;
                    self.stage = if self.rpart < self.ctx.plan.rparts {
                        KernelStage::Launch
                    } else {
                        KernelStage::Done
                    };
                }
                KernelStage::Done => return None,
            }
        }
    }
}

impl KernelStream<'_> {
    /// The tabulated key-run boundaries governing the current fill stage.
    fn fill_key_runs(&self) -> &Option<KeyRuns> {
        match self.stage {
            KernelStage::FillB => &self.ctx.b_key_runs[self.pix],
            _ => &self.ctx.c_key_runs[self.pix],
        }
    }

    /// Debug check: a block `take_run` is about to skip must share the
    /// last emitted access's (bank, row) — the window key the engine's
    /// synthesized entries will carry.
    #[cfg(debug_assertions)]
    fn check_run_key(&self, pa: u64) {
        let m = &self.ctx.mapping;
        let g = m.geometry();
        let a = m.decode(self.last_pa);
        let c = m.decode(pa);
        assert_eq!(
            (c.bank_index(g), c.row),
            (a.bank_index(g), a.row),
            "take_run would skip across a key boundary (pa {pa:#x} after {:#x})",
            self.last_pa
        );
    }
}

impl StepSource for KernelStream<'_> {
    /// Promise upcoming same-key runs to the engine:
    ///
    /// * **Gemm** (non-eCHO) — the rest of the current AGEN span up to the
    ///   first non-column-pure boundary; the span program's replayed runs
    ///   surface here as whole-run window fills.
    /// * **FillC/FillB/DrainC** — the region cursor's tabulated
    ///   same-(bank, row) run from its current rank, clamped to the
    ///   remaining slice (fill runs are *not* contiguous in the address
    ///   space — the XOR mapping interleaves their columns — but the
    ///   non-column decode fields cancel; see
    ///   [`stepstone_addr::RegionPlan::key_runs`]).
    ///
    /// Under an active paging layer every promise is additionally clipped
    /// at the next page boundary: within one page key equality is
    /// translation-invariant (decode is XOR-linear and the frame is
    /// common), so a clipped promise that held on virtual addresses holds
    /// on the translated stream, while page transitions stay real pulls
    /// that carry the PTW cost.
    fn run_hint(&self) -> u64 {
        if self.queued.is_some() {
            return 1;
        }
        match self.stage {
            KernelStage::Gemm if !self.echo => {
                let Some(w) = self.walk.as_ref() else { return 1 };
                let h = w.run_hint(self.col_pure);
                match (&self.page, w.peek_pa()) {
                    (Some(pm), Some(va)) if h > 1 => {
                        // The A-walk's spans are address-contiguous.
                        let page_end = (va | pm.page_mask()) + 1;
                        h.min((page_end - va) / BLOCK_BYTES)
                    }
                    _ => h,
                }
            }
            KernelStage::FillC | KernelStage::FillB | KernelStage::DrainC => {
                let Some(it) = self.fill.as_ref() else { return 1 };
                let rem = it.len() as u64;
                if rem <= 1 {
                    return 1;
                }
                let h = self
                    .fill_key_runs()
                    .as_ref()
                    .map_or(1, |kr| kr.run_len_from(it.pos_rank()).min(rem));
                match (&self.page, it.peek_addr()) {
                    (Some(pm), Some(va)) if h > 1 => {
                        // Fill runs are not contiguous; count the region
                        // blocks below the boundary via the plan's rank.
                        let page_end = (va | pm.page_mask()) + 1;
                        h.min(it.plan().rank_below(page_end) - it.pos_rank())
                    }
                    _ => h,
                }
            }
            _ => 1,
        }
    }

    /// At an A-walk span boundary (not eCHO, whose rows each relaunch):
    /// the upcoming spans repeating the just-completed span's keys
    /// (same lengths, and address differences that move only the column),
    /// read off the span program's skeleton tables (`WalkCursor::stretch`).
    /// Short of `min_rounds`, the tables name the boundary where the next
    /// stretch may open, and the promise says how far past its end that
    /// is ([`RoundHint::after`]). A walk with no table to read promises
    /// nothing and is asked again at the next span boundary. Off the
    /// A-walk, the wait runs to the end of the current fill.
    fn round_hint(&mut self, min_rounds: u64) -> Result<RoundHint, u64> {
        if self.echo || self.stage == KernelStage::Done {
            return Err(u64::MAX);
        }
        if self.queued.is_some() {
            return Err(1);
        }
        if self.stage != KernelStage::Gemm {
            return Err(self.fill.as_ref().map_or(1, |it| it.len() as u64 + 1));
        }
        let Some(walk) = self.walk.as_mut() else { return Err(1) };
        let Some(st) = walk.stretch() else {
            return Err(match walk {
                WalkCursor::Spanned { remaining, .. } => (*remaining).max(1),
                WalkCursor::Naive(_) => u64::MAX,
            });
        };
        if st.spans < min_rounds {
            return Err((st.spans * st.len + st.after).max(1));
        }
        Ok(RoundHint {
            done: self.spans_before + walk.spans_started(),
            width: st.len,
            rounds: st.spans,
            max_iters: st.max_iters,
            after: st.after,
            next: st.next,
        })
    }

    fn skip_rounds(&mut self, n: u64, bubble_over: u64) -> Skipped {
        let walk = self.walk.as_mut().expect("a promise implies an A-walk");
        walk.skip_spans(n, bubble_over)
    }

    fn key_tests(&self) -> u64 {
        self.tests_before + self.walk.as_ref().map_or(0, WalkCursor::key_tests)
    }

    fn take_run(&mut self, n: u64) -> u64 {
        if self.queued.is_some() {
            return 0;
        }
        match self.stage {
            KernelStage::Gemm if !self.echo => {
                #[cfg(debug_assertions)]
                if let Some(WalkCursor::Spanned { cur, remaining, first_iters, .. }) = &self.walk {
                    if *first_iters == 0 {
                        for i in 0..n.min(*remaining) {
                            self.check_run_key(*cur + i * BLOCK_BYTES);
                        }
                    }
                }
                self.walk.as_mut().map_or(0, |w| w.take_run(n))
            }
            KernelStage::FillC | KernelStage::FillB | KernelStage::DrainC => {
                let Some(it) = self.fill.as_ref() else { return 0 };
                let k = n.min(it.len() as u64);
                #[cfg(debug_assertions)]
                {
                    let mut probe = it.clone();
                    for _ in 0..k {
                        let pa = probe.next().expect("skip stays within the slice");
                        self.check_run_key(pa);
                    }
                }
                if let Some(it) = self.fill.as_mut() {
                    it.skip_blocks(k);
                }
                k
            }
            _ => 0,
        }
    }
}

/// Materialize the kernel-phase step program for one PIM with the seed-era
/// uncached GF(2) corrector in the AGEN — the faithful seed program
/// builder, used by the benchmark baseline (`stepstone-bench::seed_replay`).
pub fn build_kernel_program_seed(
    ctx: &GemmContext,
    sys: &SystemConfig,
    opts: &SimOptions,
    pix: usize,
) -> Vec<Step> {
    KernelStream::new(ctx, sys, opts, pix).with_seed_agen().collect()
}

/// Lazily interleave per-PIM region cursors in the Fig. 5 DMA engine's
/// round-robin order: depth-first across regions, one block per region per
/// round, so consecutive writes hit different bank groups and stream at
/// tCCDS instead of tCCDL. Regions are pulled lazily from their
/// [`RegionPlan`]s — no address list is ever materialized.
///
/// At each round boundary it promises how many more full rounds keep every
/// region on its current (bank, row) key ([`StepSource::round_hint`]),
/// from the regions' [`KeyRuns`] tables; its run hint stays 1.
struct RegionInterleave<'a> {
    regions: Vec<RegionIter<'a>>,
    /// Each region's same-key run table (`None`: no round promise).
    key_runs: Vec<Option<&'a KeyRuns>>,
    /// Page clipping under a stream-affecting page map.
    page: Option<PageClip>,
    rix: usize,
    yielded_this_round: bool,
    /// Rounds completed before the current one.
    round: u64,
    write: bool,
    cat: Phase,
}

impl<'a> RegionInterleave<'a> {
    fn new(
        regions: Vec<RegionIter<'a>>,
        key_runs: Vec<Option<&'a KeyRuns>>,
        page: Option<&PageMap>,
        write: bool,
        cat: Phase,
    ) -> Self {
        let page = page.map(|pm| PageClip::new(pm.page_mask(), &regions));
        Self {
            regions,
            key_runs,
            page,
            rix: 0,
            yielded_this_round: false,
            round: 0,
            write,
            cat,
        }
    }
}

/// Page clipping of a [`RegionInterleave`]'s round promise.
struct PageClip {
    /// In-page offset bits.
    mask: u64,
    /// Most region blocks any page holds. A page is an aligned window, so
    /// a region's blocks in it solve one parity system on the in-page
    /// bits: none, or a coset of one kernel, the same size in every page.
    per_page: u64,
    /// Each region's last yielded address.
    last: Vec<u64>,
}

impl PageClip {
    fn new(mask: u64, regions: &[RegionIter]) -> Self {
        let per_page = regions
            .iter()
            .filter_map(|it| {
                let base = it.peek_addr()? & !mask;
                Some(it.plan().rank_below(base + mask + 1) - it.plan().rank_below(base))
            })
            .max()
            .unwrap_or(0);
        Self { mask, per_page, last: vec![0; regions.len()] }
    }
}

impl Iterator for RegionInterleave<'_> {
    type Item = Step;

    fn next(&mut self) -> Option<Step> {
        loop {
            if self.rix >= self.regions.len() {
                if !self.yielded_this_round {
                    return None;
                }
                self.rix = 0;
                self.round += 1;
                self.yielded_this_round = false;
            }
            let it = &mut self.regions[self.rix];
            self.rix += 1;
            if let Some(pa) = it.next() {
                self.yielded_this_round = true;
                if let Some(pc) = &mut self.page {
                    pc.last[self.rix - 1] = pa;
                }
                return Some(Step::Access {
                    pa,
                    write: self.write,
                    cat: self.cat,
                    agen_iters: 1,
                    compute: false,
                });
            }
        }
    }
}

impl StepSource for RegionInterleave<'_> {
    /// At a boundary (every region after the cursor exhausted), the
    /// promise is the minimum over active regions of the blocks left that
    /// continue the region's last key ([`KeyRuns::continues_from`]),
    /// clipped to the region's length and, under paging, to its last
    /// block's page: within one page key equality survives translation.
    /// The first region short of `min_rounds` ends the scan: its key run
    /// ends within those rounds, so no boundary before the one after it
    /// can promise `min_rounds` either. Pages holding fewer region blocks
    /// than that rule every promise out.
    fn round_hint(&mut self, min_rounds: u64) -> Result<RoundHint, u64> {
        if self.page.as_ref().is_some_and(|pc| pc.per_page < min_rounds) {
            return Err(u64::MAX);
        }
        let active = |its: &[RegionIter]| its.iter().filter(|it| it.len() > 0).count() as u64;
        let rest = active(&self.regions[self.rix..]);
        let width = active(&self.regions);
        if rest > 0 || !self.yielded_this_round || width == 0 {
            // Mid-round: ask again at the boundary. Nothing left: never.
            return Err(if rest > 0 { rest } else { u64::MAX });
        }
        let mut rounds = u64::MAX;
        for (r, it) in self.regions.iter().enumerate() {
            let left = it.len() as u64;
            if left == 0 {
                continue;
            }
            let Some(kr) = self.key_runs[r] else { return Err(u64::MAX) };
            let mut p = kr.continues_from(it.pos_rank()).min(left);
            if let (true, Some(pc)) = (p >= min_rounds, &self.page) {
                p = p.min(it.plan().rank_below((pc.last[r] | pc.mask) + 1) - it.pos_rank());
            }
            if p < min_rounds {
                return Err((p + 1) * width);
            }
            rounds = rounds.min(p);
        }
        Ok(RoundHint { done: self.round + 1, width, rounds, max_iters: 1, after: 0, next: 0 })
    }

    fn skip_rounds(&mut self, n: u64, bubble_over: u64) -> Skipped {
        let mut out = Skipped::default();
        for it in &mut self.regions {
            if it.len() > 0 {
                debug_assert!(it.len() as u64 >= n, "skip past a region's end");
                it.skip_blocks(n);
                out.add(n, 1, bubble_over);
            }
        }
        self.round += n;
        out
    }
}

/// VA→PA translating adapter over a step stream: every [`Step::Access`]
/// address goes through the [`PageMap`], and — when `charge_ptw` is set —
/// each page *transition* of the stream charges the PTW's extra AGEN
/// iterations (kernel streams walk their own page table; DMA transfers
/// are host-programmed with pre-translated descriptors, so they translate
/// without walking). The current page's frame is computed once, at the
/// transition, and reused while the stream stays in the page. Run hints
/// and skips forward unchanged: the inner sources clip their promises at
/// page boundaries, and within one page key equality is
/// translation-invariant, so a promise that held on virtual addresses
/// holds on the translated stream.
pub struct PagedSteps<S> {
    inner: S,
    map: PageMap,
    charge_ptw: bool,
    cur_vpn: Option<u64>,
    /// Physical base of `cur_vpn`'s frame.
    frame: u64,
}

impl<S> PagedSteps<S> {
    pub fn new(inner: S, map: PageMap, charge_ptw: bool) -> Self {
        Self { inner, map, charge_ptw, cur_vpn: None, frame: 0 }
    }
}

impl<S: Iterator<Item = Step>> Iterator for PagedSteps<S> {
    type Item = Step;

    fn next(&mut self) -> Option<Step> {
        let step = self.inner.next()?;
        Some(match step {
            Step::Access { pa, write, cat, agen_iters, compute } => {
                let vpn = self.map.vpn(pa);
                let mut agen_iters = agen_iters;
                if self.cur_vpn != Some(vpn) {
                    // The stream left its page (or is cold): re-walk.
                    if self.charge_ptw {
                        agen_iters += self.map.ptw_cycles();
                    }
                    self.cur_vpn = Some(vpn);
                    self.frame = self.map.translate(pa) & !self.map.page_mask();
                }
                let pa = self.frame | (pa & self.map.page_mask());
                Step::Access { pa, write, cat, agen_iters, compute }
            }
            s => s,
        })
    }
}

impl<S: StepSource> StepSource for PagedSteps<S> {
    fn run_hint(&self) -> u64 {
        self.inner.run_hint()
    }

    // Skipped blocks were promised by a page-clipped hint, so they share
    // the anchor's page: `cur_vpn` is already theirs.
    fn take_run(&mut self, n: u64) -> u64 {
        self.inner.take_run(n)
    }

    // Round promises are page-clipped too: skipped rounds never leave the
    // pages of the round just pulled, so none of them pays a page walk.
    fn round_hint(&mut self, min_rounds: u64) -> Result<RoundHint, u64> {
        self.inner.round_hint(min_rounds)
    }

    fn skip_rounds(&mut self, n: u64, bubble_over: u64) -> Skipped {
        self.inner.skip_rounds(n, bubble_over)
    }

    fn key_tests(&self) -> u64 {
        self.inner.key_tests()
    }
}

/// Build DMA transfer cursors (one per channel) over the given per-PIM
/// region plans. Under a non-identity paging layer the streams translate
/// their addresses (no PTW: the host pre-translates DMA descriptors).
pub fn transfer_cursors<'a>(
    ctx: &'a GemmContext,
    regions: &'a [RegionPlan],
    write: bool,
    cat: Phase,
    start: u64,
    gap: u64,
) -> Vec<UnitCursor<'a>> {
    let channels = ctx.mapping.geometry().channels;
    (0..channels)
        .map(|ch| {
            let mine: Vec<&'a RegionPlan> = ctx
                .active_pims
                .iter()
                .enumerate()
                .filter(|(_, &pim)| ctx.pim_channel(pim) == ch)
                .map(|(pix, _)| &regions[pix])
                .collect();
            let paged = ctx.page_map.as_ref().filter(|pm| !pm.is_identity());
            let steps = RegionInterleave::new(
                mine.iter().map(|r| r.iter()).collect(),
                mine.iter().map(|r| ctx.key_runs_of(r)).collect(),
                paged,
                write,
                cat,
            );
            match paged {
                Some(pm) => UnitCursor::transfer_source(
                    "dma",
                    ch,
                    Port::Channel,
                    PagedSteps::new(steps, pm.clone(), false),
                    start,
                    gap,
                ),
                None => UnitCursor::transfer_source("dma", ch, Port::Channel, steps, start, gap),
            }
        })
        .collect()
}

fn subset_remap(ctx: &GemmContext, sys: &SystemConfig, opts: &SimOptions) -> Option<SubsetRemap> {
    if opts.subset_drop_bits == 0 {
        return None;
    }
    let full_masks = opts.level_cfg.level.id_masks(&ctx.mapping);
    let kept = ctx.ga.id_masks.len();
    Some(SubsetRemap {
        dropped_masks: full_masks[kept..].to_vec(),
        bg_bits: sys.dram.geom.bankgroup_bits(),
        row_bits: sys.dram.geom.row_bits(),
    })
}

/// Simulate one power-of-two GEMM over a pre-built (possibly
/// session-cached) context, starting at virtual time `t0`. `_mode` is
/// ignored: [`ExecMode`] has the single `Streaming` variant, and the
/// argument stays only so existing callers keep compiling. On the
/// `Analytic` tier a request without colocated traffic takes the
/// closed-form executor (`crate::analytic`); every other request drives
/// [`simulate_pow2_gemm_resident`] over fresh exact timing state. The
/// report's cycle counts are *relative* to `t0` (latency, not absolute
/// completion time), so a request simulated at any offset yields the same
/// report as one at time zero when timing is shift-invariant (refresh
/// disabled — the default).
pub fn simulate_pow2_gemm_ctx(
    sys: &SystemConfig,
    spec: &GemmSpec,
    opts: &SimOptions,
    traffic: Option<&mut dyn TrafficSource>,
    _mode: ExecMode,
    ctx: &GemmContext,
    t0: u64,
) -> LatencyReport {
    // The closed-form executor has no notion of interleaved foreign
    // requests (and no Table-II bus model either way).
    let mut report = if sys.backend == BackendKind::Analytic && traffic.is_none() {
        crate::analytic::execute_pow2_gemm(sys, spec, opts, ctx)
    } else {
        let (mut ts, mut bus) = fresh_memory(sys);
        let mut tcur = traffic.map(|t| TrafficCursor::new(t, t0));
        simulate_pow2_gemm_resident(&mut ts, &mut bus, sys, opts, tcur.as_mut(), &[ctx], t0)
    };
    report.clock_hz = sys.dram.clock_hz;
    if sys.validate {
        let ok = crate::validate::validate_gemm(sys, spec, opts, ctx);
        assert!(ok, "functional validation failed for {spec}");
    }
    report
}

/// The engine driver of StepStone and eCHO passes, over *persistent*
/// memory-system state: the caller owns the timing state, command bus, and
/// (optionally) a colocated-traffic cursor that all survive across
/// back-to-back requests — the substrate of the continuous serving
/// simulator. The pass starts at virtual time `t0` (which must be at or
/// after every prior pass's completion on `ts`), and the returned report
/// counts cycles relative to `t0`.
///
/// `ctxs` are the pass's power-of-two sub-matrices in order. One context is
/// the plain Algorithm-1 pass: localize → kernel → reduce. Several are
/// §III-E's fused pipeline: while kernel *i* streams on the PIM-internal
/// datapaths, the DMA engine localizes sub-matrix *i+1* over the otherwise
/// idle channel (one engine phase per round, so the shared timing state
/// sees both in true time order), and the reductions follow in turn.
/// Kernel attribution takes the critical-path (max) PIM per category
/// within a round and sums across rounds ([`LatencyReport::chain`]
/// semantics).
#[inline]
pub fn simulate_pow2_gemm_resident(
    ts: &mut TimingState,
    bus: &mut CommandBus,
    sys: &SystemConfig,
    opts: &SimOptions,
    mut tcur: Option<&mut TrafficCursor>,
    ctxs: &[&GemmContext],
    t0: u64,
) -> LatencyReport {
    let gap = opts.localization.unwrap_or(sys.localization).inter_block_gap();
    let mut report = LatencyReport::default();
    let stats0 = *ts.stats();

    // Phase 1: localization (B replication; source is CPU-cached, §IV).
    let first = ctxs[0];
    let mut loc = transfer_cursors(first, &first.b_regions, true, Phase::Localization, t0, gap);
    let mut loc_end =
        run_phase_auto(ts, bus, &first.mapping, &mut loc, tcur.as_deref_mut(), sys.parallel);
    report.add_phase(Phase::Localization, loc_end - t0);

    // Phase 2: the PIM kernels, one round per sub-matrix.
    let mut kernel_end = t0;
    for (i, ctx) in ctxs.iter().enumerate() {
        let start = loc_end.max(kernel_end);
        let mut units = kernel_units(ctx, sys, opts, start);
        let n_kernels = units.len();
        if let Some(next) = ctxs.get(i + 1) {
            units.extend(transfer_cursors(
                next,
                &next.b_regions,
                true,
                Phase::Localization,
                loc_end,
                gap,
            ));
        }
        run_phase_auto(ts, bus, &ctx.mapping, &mut units, tcur.as_deref_mut(), sys.parallel);
        let (kernels, next_loc) = units.split_at(n_kernels);
        kernel_end = kernels.iter().map(|u| u.end_time).max().unwrap_or(start);
        loc_end = next_loc.iter().map(|u| u.end_time).max().unwrap_or(loc_end);
        let mut round = [0u64; 8];
        for u in kernels {
            for p in [Phase::Gemm, Phase::FillB, Phase::FillC, Phase::DrainC, Phase::Launch] {
                let ix = p.index();
                round[ix] = round[ix].max(u.cat_cycles[ix]);
            }
            let a = &mut report.activity;
            a.simd_ops += u.simd_ops;
            a.scratchpad_accesses += u.scratch_accesses;
            a.launches += u.launches;
            a.agen_iterations += u.agen_iter_sum;
            a.agen_max_step = a.agen_max_step.max(u.agen_iter_max);
            a.agen_bubbles += u.agen_bubbles;
        }
        for (total, r) in report.phase_cycles.iter_mut().zip(round) {
            *total += r;
        }
    }

    // Phase 3: reduction of each sub-matrix's partial C, in turn. Under
    // `ReduceVia::Fabric` the per-channel drain is unchanged — the
    // identical DRAM command stream runs through the memory backend, so
    // `DramStats` match the host-DMA path exactly — but the merged partial
    // sums then move PIM→PIM over the inter-device fabric instead of
    // through the host. Each channel's drain-completion time is its fabric
    // injection time, and the transit ends the round before the next
    // sub-matrix drains.
    let mut red_end = kernel_end;
    for ctx in ctxs {
        let round_start = red_end;
        let mut red =
            transfer_cursors(ctx, &ctx.c_regions, false, Phase::Reduction, round_start, gap);
        red_end =
            run_phase_auto(ts, bus, &ctx.mapping, &mut red, tcur.as_deref_mut(), sys.parallel);
        if sys.reduce_via == ReduceVia::Fabric {
            let ready: Vec<u64> = red.iter().map(|u| u.end_time.max(round_start)).collect();
            let (fab_end, stats) = fabric_reduce(sys, ctx, &ready);
            red_end = red_end.max(fab_end);
            match &mut report.fabric {
                Some(f) => f.merge(&stats),
                slot => *slot = Some(stats),
            }
        }
    }
    report.add_phase(Phase::Reduction, red_end - kernel_end);

    report.total = red_end - t0;
    report.dram = ts.stats().delta(&stats0);
    report
}

/// One kernel unit per active PIM of `ctx`, starting at `start`.
fn kernel_units<'a>(
    ctx: &'a GemmContext,
    sys: &SystemConfig,
    opts: &SimOptions,
    start: u64,
) -> Vec<UnitCursor<'a>> {
    let remap = subset_remap(ctx, sys, opts);
    (0..ctx.active_pims.len())
        .map(|pix| {
            // Kernel streams translate through the paging layer and pay
            // the PTW on page transitions.
            let steps = KernelStream::new(ctx, sys, opts, pix);
            let steps: Box<dyn StepSource + Send> = match &ctx.page_map {
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
                start,
                opts.level_cfg.compute_cycles_per_block(ctx.n),
                opts.level_cfg.simd_ops_per_block(ctx.n),
                opts.level_cfg.pipeline_depth as usize,
                sys.launch.slots_for(opts.granularity),
                sys.launch.launch_latency,
                sys.dram.timing.t_bl,
                remap.clone(),
            );
            // Each PIM owns its bank partition and internal datapath (the
            // ID parities pin channel/rank/BG bits), so steady CAS runs may
            // stream past other units' scheduler turns.
            u.exclusive = true;
            u
        })
        .collect()
}

/// The fabric leg of a `ReduceVia::Fabric` Phase 3: route every device's
/// locally drained partial-`C` payload to the root device over
/// `sys.fabric` and fold it in. Fabric nodes are DIMM-granular — one per
/// (channel, rank) pair, `node = channel × ranks + rank` — which is the
/// inter-DIMM boundary the fabric physically bridges (4 nodes on the
/// default 2-channel × 2-rank geometry). `ready` holds each *channel*'s
/// local drain completion time; both of a channel's DIMMs inject when
/// their shared channel drain ends. Returns the reduce completion cycle
/// and the fabric statistics for the report.
pub(crate) fn fabric_reduce(
    sys: &SystemConfig,
    ctx: &GemmContext,
    ready: &[u64],
) -> (u64, FabricStats) {
    let geom = ctx.mapping.geometry();
    let channels = geom.channels as usize;
    let ranks = (geom.ranks_per_channel as usize).max(1);
    let nodes = channels * ranks;
    debug_assert_eq!(ready.len(), channels);
    let drain_end = ready.iter().copied().max().unwrap_or(0);
    if nodes < 2 {
        // A single device has nothing to exchange; the reduce is local.
        return (drain_end, FabricStats::default());
    }
    let mut payloads: Vec<(u64, u64)> = (0..nodes)
        .map(|node| (ready[node / ranks], 0u64))
        .collect();
    for (pix, &pim) in ctx.active_pims.iter().enumerate() {
        let (ch, rk, _) = ctx.ga.level.id_to_position(geom, pim);
        let blocks: u64 = ctx.c_blocks_by_rpart[pix].iter().sum();
        payloads[ch as usize * ranks + rk as usize].1 += blocks * BLOCK_BYTES;
    }
    let mut fab = FabricState::new(sys.fabric, nodes);
    let end = fab.reduce_to_root(&payloads, 0);
    let injected: u64 =
        payloads.iter().enumerate().filter(|&(n, _)| n != 0).map(|(_, p)| p.1).sum();
    let stats = fab.stats(injected, end.saturating_sub(drain_end));
    (end, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stepstone_addr::PimLevel;

    fn sys() -> SystemConfig {
        SystemConfig::default()
    }

    #[test]
    fn bg_batch1_is_fast_and_balanced() {
        let r = simulate_gemm(&sys(), &GemmSpec::new(1024, 4096, 1), PimLevel::BankGroup);
        // 16 Ki blocks per PIM at one per tCCDL=6 ⇒ ≈ 98k cycles + overheads.
        let gemm = r.phase(Phase::Gemm);
        assert!(gemm > 90_000, "gemm={gemm}");
        assert!(gemm < 200_000, "gemm={gemm}");
        // All A blocks are read exactly once.
        assert!(
            r.dram.reads_by_port[Port::BgInternal.index()] >= 1024 * 4096 * 4 / 64
        );
        assert!(r.total > gemm);
    }

    #[test]
    fn bg_beats_dv_beats_ch_at_batch_1() {
        // Fig. 6: minimum-latency ordering at batch 1.
        let s = sys();
        let spec = GemmSpec::new(1024, 4096, 1);
        let bg = simulate_gemm(&s, &spec, PimLevel::BankGroup).total;
        let dv = simulate_gemm(&s, &spec, PimLevel::Device).total;
        let ch = simulate_gemm(&s, &spec, PimLevel::Channel).total;
        assert!(bg < dv, "bg={bg} dv={dv}");
        assert!(dv < ch, "dv={dv} ch={ch}");
        // BG ≈ 2.8× better than DV in the paper; accept 2–4×.
        let ratio = dv as f64 / bg as f64;
        assert!((1.8..4.5).contains(&ratio), "dv/bg = {ratio}");
    }

    #[test]
    fn bg_advantage_vanishes_with_batch_and_dv_takes_over() {
        // §III-E: BG's localization/replication overhead grows with N and
        // the number of block groups; its batch-1 advantage (≈2.6×) erodes
        // to parity around N = 32 and inverts beyond.
        let s = sys();
        let ratio = |n: usize| {
            let spec = GemmSpec::new(1024, 4096, n);
            let bg = simulate_gemm(&s, &spec, PimLevel::BankGroup).total as f64;
            let dv = simulate_gemm(&s, &spec, PimLevel::Device).total as f64;
            dv / bg
        };
        let r1 = ratio(1);
        let r16 = ratio(16);
        let r32 = ratio(32);
        let r64 = ratio(64);
        assert!(r1 > 2.0, "batch-1 BG advantage: {r1}");
        assert!(r16 < r1 && r32 < r16, "monotone convergence: {r1} {r16} {r32}");
        assert!(r32 < 1.3, "near parity at batch 32: {r32}");
        assert!(r64 < 1.0, "DV wins beyond the paper's sweep: {r64}");
    }

    #[test]
    fn echo_is_slower_than_stp_without_contention_but_close() {
        let s = sys();
        let spec = GemmSpec::new(1024, 4096, 4);
        let stp = simulate_gemm(&s, &spec, PimLevel::BankGroup).total;
        let echo =
            simulate_gemm_opt(&s, &spec, &SimOptions::echo(PimLevel::BankGroup), None).total;
        assert!(echo > stp, "echo={echo} stp={stp}");
        // Paper: StepStone flow improves 35–55% over Chopim-style execution;
        // accept a broad 1.05–3× band without contention.
        assert!((echo as f64) < stp as f64 * 3.0, "echo={echo} stp={stp}");
    }

    #[test]
    fn subset_helps_small_matrices() {
        // Fig. 10 left: with small matrices, half the BG PIMs win.
        let s = sys();
        let spec = GemmSpec::new(512, 2048, 32);
        let full = simulate_gemm(&s, &spec, PimLevel::BankGroup).total;
        let half = simulate_gemm_opt(
            &s,
            &spec,
            &SimOptions::stepstone(PimLevel::BankGroup).with_subset(1),
            None,
        )
        .total;
        assert!(half < full, "half={half} full={full}");
    }

    #[test]
    fn naive_agen_is_slower() {
        let s = sys();
        let spec = GemmSpec::new(1024, 4096, 4);
        let fast = simulate_gemm(&s, &spec, PimLevel::BankGroup).total;
        let naive = simulate_gemm(
            &SystemConfig { agen: AgenMode::Naive, ..s },
            &spec,
            PimLevel::BankGroup,
        )
        .total;
        assert!(naive > fast * 2, "naive={naive} fast={fast}");
    }

    #[test]
    fn streaming_and_materialized_kernel_programs_are_identical() {
        // The streaming generator must yield exactly the sequence the seed
        // materialized — including the seed-AGEN variant (same steps, only
        // generation cost differs).
        let s = sys();
        for (m, k, n) in [(256, 1024, 2), (128, 512, 4)] {
            for level in PimLevel::ALL {
                let opts = SimOptions::stepstone(level);
                let spec = GemmSpec::new(m, k, n);
                let ctx = GemmContext::build(&s, &spec, &opts);
                for pix in 0..ctx.active_pims.len() {
                    let streamed: Vec<Step> = KernelStream::new(&ctx, &s, &opts, pix).collect();
                    let seeded: Vec<Step> =
                        KernelStream::new(&ctx, &s, &opts, pix).with_seed_agen().collect();
                    assert_eq!(streamed, seeded, "{level:?} pim {pix}");
                }
            }
        }
    }

    #[test]
    fn streaming_engine_emits_the_exact_seed_command_trace() {
        // Cycle-exactness at command granularity: run the kernel phase with
        // hinted streaming sources and with the seed's materialized programs
        // against traced timing states; every issued DRAM command must match
        // in time and place.
        use crate::engine::{run_phase, PlainSteps};
        use stepstone_dram::{CommandBus, TimingState};
        let s = sys();
        let spec = GemmSpec::new(256, 1024, 2);
        for level in PimLevel::ALL {
            let opts = SimOptions::stepstone(level);
            let ctx = GemmContext::build(&s, &spec, &opts);
            let run = |materialize: bool| {
                let mut ts = TimingState::new(s.dram);
                ts.enable_trace();
                let mut bus = CommandBus::new(s.dram.geom.channels as usize);
                let mut units: Vec<UnitCursor> = (0..ctx.active_pims.len())
                    .map(|pix| {
                        let steps: Box<dyn StepSource + Send> = if materialize {
                            let seed = build_kernel_program_seed(&ctx, &s, &opts, pix);
                            Box::new(PlainSteps(seed.into_iter()))
                        } else {
                            Box::new(KernelStream::new(&ctx, &s, &opts, pix))
                        };
                        UnitCursor::from_source(
                            "t",
                            ctx.pim_channel(ctx.active_pims[pix]),
                            opts.level_cfg.port(),
                            steps,
                            0,
                            opts.level_cfg.compute_cycles_per_block(ctx.n),
                            opts.level_cfg.simd_ops_per_block(ctx.n),
                            opts.level_cfg.pipeline_depth as usize,
                            s.launch.slots_for(opts.granularity),
                            s.launch.launch_latency,
                            s.dram.timing.t_bl,
                            None,
                        )
                    })
                    .collect();
                let end = run_phase(&mut ts, &mut bus, &ctx.mapping, &mut units, None);
                (end, ts.take_trace().expect("trace enabled").records)
            };
            let (end_stream, trace_stream) = run(false);
            let (end_mat, trace_mat) = run(true);
            assert_eq!(end_stream, end_mat, "{level:?} phase end");
            assert_eq!(trace_stream, trace_mat, "{level:?} command trace");
            assert!(!trace_stream.is_empty());
        }
    }

    #[test]
    fn relaxed_area_improves_batch_32() {
        let s = sys();
        let spec = GemmSpec::new(1024, 4096, 32);
        let nominal = simulate_gemm(&s, &spec, PimLevel::Device).total;
        let relaxed = simulate_gemm_opt(
            &s,
            &spec,
            &SimOptions::stepstone(PimLevel::Device)
                .with_level_cfg(PimLevelConfig::relaxed(PimLevel::Device)),
            None,
        )
        .total;
        assert!(relaxed < nominal, "relaxed={relaxed} nominal={nominal}");
    }

    /// The session layer must be a pure build/execute split: routing
    /// repeated requests through the shared [`SessionCache`] yields
    /// bit-identical reports to the cold-start path, while only the first
    /// request of each shape pays the context build.
    #[test]
    fn session_cache_reports_are_cycle_exact_and_warm() {
        let s = sys();
        let cache = SessionCache::new();
        // A non-pow2 batch exercises decomposition inside the session path.
        let specs =
            [GemmSpec::new(512, 512, 3), GemmSpec::new(256, 1024, 4), GemmSpec::new(512, 512, 3)];
        for (i, spec) in specs.iter().enumerate() {
            let opts = SimOptions::stepstone(PimLevel::BankGroup);
            let cold = simulate_gemm_opt(&s, spec, &opts, None);
            let warm = simulate_gemm_session(&s, spec, &opts, &cache, None);
            assert_eq!(cold.total, warm.total, "request {i}: totals diverge");
            assert_eq!(cold.phase_cycles, warm.phase_cycles, "request {i}");
            assert_eq!(cold.dram, warm.dram, "request {i}: dram stats diverge");
        }
        // Decomposition splits m/k only (N rides along), so the mix has
        // two distinct pow2 shapes; the repeat of spec[0] is the lone hit.
        assert_eq!(cache.len() as u64, cache.misses());
        assert_eq!(cache.len(), 2, "len={}", cache.len());
        assert_eq!(cache.hits(), 1, "hits={}", cache.hits());
    }

    /// Distinct option sets and systems that change the build must get
    /// distinct contexts — level, subset bits, scratchpad, granularity, and
    /// the paging layer all key.
    #[test]
    fn session_key_separates_build_relevant_options() {
        let (s, paged) = (sys(), sys().with_paging(PagingConfig::fragmented(4096, 7)));
        let spec = GemmSpec::new(512, 512, 4);
        let base = SimOptions::stepstone(PimLevel::BankGroup);
        let relaxed = base.clone().with_level_cfg(PimLevelConfig::relaxed(PimLevel::BankGroup));
        let keys = [
            SessionKey::for_system(&s, &spec, &base),
            SessionKey::for_system(&s, &spec, &SimOptions::stepstone(PimLevel::Device)),
            SessionKey::for_system(&s, &spec, &base.clone().with_subset(1)),
            SessionKey::for_system(&s, &spec, &relaxed),
            SessionKey::for_system(&s, &spec, &SimOptions::echo(PimLevel::BankGroup)),
            SessionKey::for_system(&paged, &spec, &base),
        ];
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "keys {i} and {j} collide");
            }
        }
    }

    /// Systems differing in a field the context build bakes in — the DRAM
    /// geometry, the mapping preset, an arena base — can share one cache
    /// (`ModelExecutor::with_session`), and each must still get the report
    /// a fresh cache gives it.
    #[test]
    fn shared_cache_keys_every_system_field_the_build_reads() {
        use stepstone_dram::DramConfig;
        let spec = GemmSpec::new(512, 2048, 4);
        let opts = SimOptions::stepstone(PimLevel::BankGroup);
        let arms: [(&str, SystemConfig); 5] = [
            ("hbm2", sys().with_dram(DramConfig::hbm2())),
            ("ddr5", sys().with_dram(DramConfig::ddr5_4800())),
            ("haswell", sys().with_mapping(MappingId::Haswell)),
            ("weight_base", SystemConfig { weight_base: 3 << 30, ..sys() }),
            ("buffer_base", SystemConfig { buffer_base: 3 << 33, ..sys() }),
        ];
        for (name, s) in arms {
            let cache = SessionCache::new();
            simulate_gemm_session(&sys(), &spec, &opts, &cache, None);
            let shared = simulate_gemm_session(&s, &spec, &opts, &cache, None);
            let fresh = simulate_gemm_opt(&s, &spec, &opts, None);
            assert_eq!(shared.total, fresh.total, "{name}");
            assert_eq!(shared.phase_cycles, fresh.phase_cycles, "{name}");
            assert_eq!(shared.dram, fresh.dram, "{name}");
            assert_eq!(cache.misses(), 2, "{name}: the second system builds its own context");
        }
    }

    /// Identity-policy paging with zero PTW cost must be bit-identical to
    /// the contiguous baseline at any page size: translation is the
    /// identity and no stream is wrapped at all (`affects_stream` gates
    /// it). This is the flow-level arm of the CI bit-identity gate.
    #[test]
    fn identity_paging_is_bit_identical_to_contiguous() {
        use stepstone_addr::PagingConfig;
        let s = sys();
        let spec = GemmSpec::new(512, 512, 4);
        let base = simulate_gemm(&s, &spec, PimLevel::BankGroup);
        for page in [4096u64, 2 << 20] {
            let paged = s.clone().with_paging(PagingConfig::identity(page));
            let r = simulate_gemm(&paged, &spec, PimLevel::BankGroup);
            assert_eq!(r.total, base.total, "page {page}");
            assert_eq!(r.phase_cycles, base.phase_cycles, "page {page}");
            assert_eq!(r.dram, base.dram, "page {page}");
        }
    }

    /// A page size covering the whole simulated address range provably
    /// reduces to the contiguous path: every arena shares one page, so
    /// translation is a single constant frame offset above all decoded
    /// ID bits — a uniform (bank, row) relabeling that cannot change any
    /// timing decision. Bit-identical, even for a non-identity policy.
    #[test]
    fn whole_arena_page_reduces_to_contiguous() {
        use stepstone_addr::PagingConfig;
        let s = sys();
        let spec = GemmSpec::new(512, 512, 4);
        let base = simulate_gemm(&s, &spec, PimLevel::BankGroup);
        let paged = s.clone().with_paging(PagingConfig::permuted(1 << 36, 7));
        // The permuted policy actually moves the page (nonzero affine
        // constant); the reduction must hold anyway.
        let pm = paged.page_map().unwrap();
        assert_ne!(pm.translate(1 << 30), 1 << 30, "test must exercise a moved frame");
        let r = simulate_gemm(&paged, &spec, PimLevel::BankGroup);
        assert_eq!(r.total, base.total);
        assert_eq!(r.phase_cycles, base.phase_cycles);
        assert_eq!(r.dram, base.dram);
    }

    /// Fragmented small pages run end to end under the debug-build
    /// contract checks (hinted-run key verification, per-channel scope
    /// asserts), move exactly the same blocks, and — with a PTW cost —
    /// take strictly longer than the contiguous baseline.
    #[test]
    fn fragmented_paging_preserves_traffic_and_charges_the_ptw() {
        use stepstone_addr::PagingConfig;
        let s = sys();
        let spec = GemmSpec::new(512, 512, 4);
        let base = simulate_gemm(&s, &spec, PimLevel::BankGroup);
        let frag = s.clone().with_paging(PagingConfig::fragmented(4096, 42));
        let r = simulate_gemm(&frag, &spec, PimLevel::BankGroup);
        assert_eq!(r.dram.reads, base.dram.reads);
        assert_eq!(r.dram.writes, base.dram.writes);
        // A 20-cycle walk per 64-block page hides entirely under the
        // memory-bound stream; an uncached 500-cycle walk must not.
        let walked =
            s.clone().with_paging(PagingConfig::fragmented(4096, 42).with_ptw(500));
        let rw = simulate_gemm(&walked, &spec, PimLevel::BankGroup);
        assert_eq!(rw.dram.reads, base.dram.reads);
        assert!(rw.total > r.total, "ptw={} frag={}", rw.total, r.total);
        assert!(
            rw.activity.agen_iterations > r.activity.agen_iterations,
            "PTW must surface as AGEN iterations"
        );
    }

    /// Timing is shift-invariant with refresh disabled (the default): a
    /// pass started at a large virtual offset reports the same per-request
    /// latency as one at time zero. This is what makes session-layer
    /// service times reusable at any point in a serving timeline — on every
    /// memory preset, on the analytic tier, and under a paged arena.
    #[test]
    fn resident_pass_is_shift_invariant() {
        use stepstone_dram::DramConfig;
        let arms: [(&str, SystemConfig); 5] = [
            ("ddr4", sys()),
            ("ddr5", sys().with_dram(DramConfig::ddr5_4800())),
            ("hbm2", sys().with_dram(DramConfig::hbm2())),
            ("analytic", sys().with_backend(BackendKind::Analytic)),
            ("paged", sys().with_paging(PagingConfig::fragmented(4096, 9).with_ptw(20))),
        ];
        for (name, s) in arms {
            let spec = GemmSpec::new(512, 512, 4);
            let opts = SimOptions::stepstone(PimLevel::BankGroup);
            let ctx = GemmContext::build(&s, &spec, &opts);
            let r0 =
                simulate_pow2_gemm_ctx(&s, &spec, &opts, None, ExecMode::Streaming, &ctx, 0);
            let r1 = simulate_pow2_gemm_ctx(
                &s,
                &spec,
                &opts,
                None,
                ExecMode::Streaming,
                &ctx,
                1 << 30,
            );
            assert_eq!(r0.total, r1.total, "{name}");
            assert_eq!(r0.phase_cycles, r1.phase_cycles, "{name}");
            assert_eq!(r0.dram, r1.dram, "{name}");
        }
    }

    /// Back-to-back passes over one persistent timing state + bus report
    /// per-request (not cumulative) cycles and DRAM counters. The first
    /// pass on pristine state matches the one-shot path exactly; later
    /// passes move the same blocks but inherit residual bank state (open
    /// rows, ACT history) from the previous request, so their latency may
    /// drift by a few row cycles — bounded here to 2%.
    #[test]
    fn resident_passes_report_per_request_deltas() {
        use stepstone_dram::{CommandBus, TimingState};
        let s = sys();
        let spec = GemmSpec::new(512, 512, 4);
        let opts = SimOptions::stepstone(PimLevel::BankGroup);
        let ctx = GemmContext::build(&s, &spec, &opts);
        let oneshot = simulate_pow2_gemm_ctx(&s, &spec, &opts, None, ExecMode::Streaming, &ctx, 0);
        let mut ts = TimingState::new(s.dram);
        let mut bus = CommandBus::new(s.dram.geom.channels as usize);
        let mut t = 0u64;
        for pass in 0..3 {
            let r = simulate_pow2_gemm_resident(&mut ts, &mut bus, &s, &opts, None, &[&ctx], t);
            if pass == 0 {
                assert_eq!(r.total, oneshot.total, "pristine pass");
                assert_eq!(r.dram, oneshot.dram, "pristine pass");
            } else {
                assert_eq!(r.dram.reads, oneshot.dram.reads, "pass {pass}");
                assert_eq!(r.dram.writes, oneshot.dram.writes, "pass {pass}");
                let drift = r.total.abs_diff(oneshot.total) as f64 / oneshot.total as f64;
                assert!(drift < 0.02, "pass {pass}: total={} drift={drift}", r.total);
            }
            t += r.total;
        }
    }

    /// The one-pass row and column tables reproduce the per-(PIM, row)
    /// admissibility count and the per-(PIM, group) local-column scan the
    /// build used to run, and the shared key-run tables equal each region's
    /// own, on every power-of-two sub-GEMM of the ten Table-I weight
    /// shapes.
    #[test]
    fn row_and_column_accounting_match_per_pim_scans() {
        const TABLE1: [(usize, usize); 10] = [
            (1024, 4096),
            (4096, 1024),
            (1024, 1024),
            (1600, 6400),
            (6400, 1600),
            (1600, 1600),
            (2560, 512),
            (512, 32),
            (512, 128),
            (128, 1),
        ];
        let s = sys();
        let arms = [
            SimOptions::stepstone(PimLevel::BankGroup),
            SimOptions::stepstone(PimLevel::Device),
            SimOptions::stepstone(PimLevel::BankGroup).with_subset(1),
        ];
        let mut contexts = 0u32;
        for (m, k) in TABLE1 {
            for n in [1, 32] {
                for sub in GemmSpec::new(m, k, n).decompose_pow2() {
                    for opts in &arms {
                        let ctx = GemmContext::build(&s, &sub, opts);
                        let ga = &ctx.ga;
                        let rows = ctx.layout.rows;
                        let per_rpart = rows / ctx.plan.rparts as usize;
                        let total: u64 = ctx.rows_by_rpart_group.iter().flatten().sum();
                        assert_eq!(total, rows as u64, "{sub:?} {opts:?}");
                        for (pix, &pim) in ctx.active_pims.iter().enumerate() {
                            let per_col: Vec<u64> = (0..ga.n_groups())
                                .filter(|&g| ga.is_admissible(pim, g))
                                .flat_map(|g| {
                                    let cols = ga.local_cols(pim, g);
                                    let span = ctx.layout.blocks_per_row() / ctx.plan.cparts as u64;
                                    (0..ctx.plan.cparts as u64).map(move |cp| {
                                        let lo = cp * span;
                                        let here =
                                            cols.iter().filter(|&&c| c >= lo && c < lo + span);
                                        here.count() as u64 * sub.n as u64
                                    })
                                })
                                .collect();
                            assert_eq!(
                                ctx.b_slice_lens[pix], per_col,
                                "{sub:?} {opts:?} pim {pim}"
                            );
                            let per_row: Vec<u64> = (0..ctx.plan.rparts as usize)
                                .map(|rp| {
                                    let rows = (rp * per_rpart..(rp + 1) * per_rpart)
                                        .filter(|&r| ga.is_admissible(pim, ga.group_of_row(r)))
                                        .count()
                                        as u64;
                                    (rows * sub.n as u64 * 4).div_ceil(64)
                                })
                                .collect();
                            assert_eq!(
                                ctx.c_blocks_by_rpart[pix], per_row,
                                "{sub:?} {opts:?} pim {pim}"
                            );
                        }
                        // One key-run table serves every B and C region of
                        // a mask class.
                        if !ctx.direct_scratchpad {
                            let last = ctx.active_pims.len() - 1;
                            for pix in [0, last] {
                                let own = |r: &RegionPlan| r.key_runs(&ctx.mapping);
                                assert_eq!(
                                    ctx.b_key_runs[pix],
                                    own(&ctx.b_regions[pix]),
                                    "{sub:?}"
                                );
                                assert_eq!(
                                    ctx.c_key_runs[pix],
                                    own(&ctx.c_regions[pix]),
                                    "{sub:?}"
                                );
                            }
                        }
                        contexts += 1;
                    }
                }
            }
        }
        assert!(contexts >= 10 * 2 * 3, "{contexts} contexts");
    }

    /// Walks two cells of a GEMM twice each, checking at every span
    /// boundary the stretch the walk promises, and the AGEN charges of the
    /// spans it then skips, against the span-by-span reference: the key
    /// test spelled out on decoded coordinates down the cell's live spans,
    /// and `Skipped` summed span by span.
    /// Every boundary after a span of a window that lies fully in the
    /// walked range answers from its stretch table, on the first walk (a
    /// cold window records its table on entry) as on the second; a
    /// range-edge window's boundaries answer nothing (a window whose state
    /// a walk under another key test, or none, recorded first would answer
    /// nothing either; no other walk in this suite shares these states). A
    /// promise never overstates the stretch, and stops short of it only
    /// where the tables say they cannot see past (`after == 0`); no stretch
    /// opens before the wait the tables give; skipped charges, the head
    /// charges of the last spans skipped, and the blocks after a skip match
    /// the reference exactly. Returns the spans the tables promised and the skips that
    /// crossed into another window.
    fn check_stretches(
        s: &SystemConfig,
        spec: GemmSpec,
        level: PimLevel,
        seed: u64,
    ) -> (u64, u64) {
        let ctx = GemmContext::build(s, &spec, &SimOptions::stepstone(level));
        let pages = ctx.page_map.as_ref().filter(|m| m.affects_stream());
        let keys = KeyTest::new(&ctx.mapping, pages.map(PageMap::page_mask));
        let mut rng = seed | 1;
        let mut draw = |below: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % below
        };
        let (mut promised, mut crossed) = (0, 0);
        for &pim in ctx.active_pims.iter().take(2) {
            let grp = (0..ctx.ga.n_groups()).find(|&g| ctx.ga.is_admissible(pim, g)).unwrap();
            let reference: Vec<AgenSpan> = match ctx.walk_stream_impl(s.agen, pim, grp, 0, 0, true) {
                WalkCursor::Spanned { spans: SpanSource::Live(live), .. } => live.collect(),
                _ => unreachable!("the seed walk is live"),
            };
            // Span `s` repeats `r`'s keys: equal lengths, equal address
            // bits below the top bit varying in `r`, a difference that
            // decodes to the same (channel, rank, bank group, bank, row),
            // and under paging both in `r`'s page.
            let same = |r: &AgenSpan, s: &AgenSpan| {
                let inside = r.start_pa ^ (r.start_pa + (r.len - 1) * BLOCK_BYTES);
                let low = if inside == 0 { 0 } else { u64::MAX >> inside.leading_zeros() };
                let diff = r.start_pa ^ s.start_pa;
                let c = ctx.mapping.decode(diff);
                let want = s.len == r.len
                    && diff & low == 0
                    && c.channel | c.rank | c.bankgroup | c.bank | c.row == 0
                    && pages.is_none_or(|pm| (inside | diff) & !pm.page_mask() == 0);
                assert_eq!(keys.same(r, s), want, "key test on {r:?}, {s:?}");
                want
            };
            let repeats = |i: usize| {
                let r = &reference[i];
                reference[i + 1..].iter().take_while(|s| same(r, s)).count() as u64
            };
            let program = |w: &WalkCursor| match w {
                WalkCursor::Spanned { spans: SpanSource::Program(p), .. } => {
                    (p.window_jumps, p.window_bytes())
                }
                _ => unreachable!("the production walk replays"),
            };
            // Whether span `r`'s window lies fully in the walked range.
            let in_range = |r: &AgenSpan, window: Option<u64>| {
                window.is_some_and(|wb| {
                    let base = r.start_pa & !(wb - 1);
                    base >= ctx.layout.base && base + wb <= ctx.layout.end()
                })
            };
            for _ in 0..2 {
                let mut w = ctx.walk_stream(s.agen, pim, grp, 0, 0);
                let window = program(&w).1;
                let mut ix = 0;
                loop {
                    let answer = (ix > 0).then(|| w.stretch()).flatten();
                    if ix > 0 {
                        let tabled = in_range(&reference[ix - 1], window);
                        assert_eq!(answer.is_some(), tabled, "span {}", ix);
                    }
                    if let Some(st) = answer {
                        let full = repeats(ix - 1);
                        assert!(st.spans <= full, "span {}: {} > {}", ix, st.spans, full);
                        if st.spans < full {
                            assert_eq!(st.after, 0, "span {}", ix);
                        }
                        promised += st.spans;
                        let opener = ix + st.spans as usize;
                        if st.next > 0 {
                            assert_eq!(st.after, reference[opener].len, "span {}", ix);
                            assert!(repeats(opener) >= st.next, "span {}", ix);
                        }
                        let (mut j, mut blocks) = (ix + st.spans as usize, 0);
                        while j < reference.len() && blocks + reference[j].len < st.after {
                            blocks += reference[j].len;
                            assert_eq!(repeats(j), 0, "span {} opens before the wait", j);
                            j += 1;
                        }
                        let n = draw(st.spans + 1);
                        if n > 0 {
                            let before = program(&w).0;
                            let got = w.skip_spans(n, 4);
                            let mut want = Skipped::default();
                            for sp in &reference[ix..ix + n as usize] {
                                want.round(sp.len, sp.iterations.max(1), 4);
                            }
                            assert_eq!(got, want, "skip {} at span {}", n, ix);
                            crossed += (program(&w).0 > before) as u64;
                            ix += n as usize;
                            continue;
                        }
                    }
                    let Some(span) = reference.get(ix) else {
                        assert!(w.next().is_none(), "the walk ends with the reference");
                        break;
                    };
                    for b in 0..span.len {
                        let head = if b == 0 { span.iterations.max(1) } else { 1 };
                        assert_eq!(w.next(), Some((span.start_pa + b * BLOCK_BYTES, head)));
                    }
                    ix += 1;
                }
            }
        }
        (promised, crossed)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        // Random shapes at StepStone-BG and -DV, on the DDR4 and HBM2
        // mappings, unpaged and with 4 KiB and 64 KiB pages.
        #[test]
        fn stretches_match_the_span_by_span_reference(
            dv in proptest::prelude::any::<bool>(),
            hbm in proptest::prelude::any::<bool>(),
            page in 0usize..3,
            m_log in 7u32..10,
            k_log in 9u32..13,
            n_log in 0u32..3,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut s = sys();
            if hbm {
                s = s.with_dram(stepstone_dram::DramConfig::hbm2());
            }
            if let Some(bytes) = [None, Some(4096), Some(1 << 16)][page] {
                s = s.with_paging(PagingConfig::fragmented(bytes, 3));
            }
            let level = if dv { PimLevel::Device } else { PimLevel::BankGroup };
            let spec = GemmSpec::new(1 << m_log, 1 << k_log, 1 << n_log);
            check_stretches(&s, spec, level, seed);
        }
    }

    /// The reference check on a shape whose stretch tables carry promises
    /// and skips across windows (128×512 N=1: 14 crossing skips at
    /// StepStone-BG, 60 at -DV), at both levels.
    #[test]
    fn stretch_tables_promise_across_windows() {
        for level in [PimLevel::BankGroup, PimLevel::Device] {
            let spec = GemmSpec::new(128, 512, 1);
            let (promised, crossed) = check_stretches(&sys(), spec, level, 7);
            assert!(promised > 0 && crossed > 0, "{level:?} {spec}: {promised} {crossed}");
        }
    }
}
