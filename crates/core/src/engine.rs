//! Multi-agent, event-driven execution engine.
//!
//! Each PIM unit (or DMA channel, or the colocated CPU) is a *cursor* over a
//! lazily streamed step program (a [`StepSource`]: AGEN span programs,
//! region cursors — materialized `Vec<Step>`s survive only as the frozen
//! equivalence baseline). The engine repeatedly advances the cursor with
//! the earliest desired issue time, so commits into the shared memory
//! backend stay approximately time-ordered while PIM units with disjoint
//! bank partitions proceed concurrently.
//!
//! The engine core is generic over [`MemoryBackend`] — the exact
//! [`TimingState`](stepstone_dram::TimingState) Table-II model by default,
//! or the analytic fast tier — and everything monomorphizes, so the
//! default path compiles to the same code as when `TimingState` was
//! hardwired.
//!
//! The per-unit model implements the paper's pipeline semantics (§III-A,
//! §V-C): a 20-deep execution pipeline hides DRAM and AGEN latency; the
//! per-block issue rate is bounded by DRAM timing, by SIMD throughput
//! (back-pressure once `pipeline_depth` blocks are in flight), and by AGEN —
//! a step whose address generation exceeds the DRAM burst window inserts
//! bubbles.

use crate::report::Phase;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use stepstone_addr::{DramCoord, XorMapping};
use stepstone_dram::{
    CasKind, CommandBus, DramStats, MemoryBackend, Port, RunReply, TrafficSource,
};

/// Fallback-cause indices for [`RunStats::fallback`] /
/// [`RunCounters::fallback`]: why a block went through the per-block pull
/// path instead of riding an admitted run.
pub const FB_REFRESH: usize = 0;
pub const FB_ROW: usize = 1;
pub const FB_TRACE: usize = 2;
pub const FB_TRAFFIC: usize = 3;
pub const FB_OTHER: usize = 4;

/// Labels matching the `FB_*` indices (reporting convenience).
pub const FB_LABELS: [&str; 5] = ["refresh", "row", "trace", "traffic", "other"];

/// Per-unit run-granularity statistics, flushed into the process-wide
/// [`run_counters`] once per phase (order-independent sums, so serial and
/// per-channel-parallel engines report identical totals).
#[derive(Debug, Default, Clone, Copy)]
pub struct RunStats {
    /// Hinted runs admitted as single scheduling objects.
    pub runs: u64,
    /// Blocks covered by admitted runs (anchors included).
    pub run_blocks: u64,
    /// log2-bucketed run-length histogram: bucket `i` counts admitted runs
    /// of length `2^i ..= 2^(i+1) - 1`, saturating in the last bucket.
    pub hist: [u64; 16],
    /// Per-block fallback splits by cause (`FB_*` indices): blocks that
    /// went through the per-block path, and why.
    pub fallback: [u64; 5],
}

impl RunStats {
    #[inline]
    fn record_run(&mut self, len: u64) {
        self.runs += 1;
        self.run_blocks += len;
        self.hist[(63 - len.leading_zeros() as usize).min(15)] += 1;
    }
}

static G_RUNS: AtomicU64 = AtomicU64::new(0);
static G_RUN_BLOCKS: AtomicU64 = AtomicU64::new(0);
static G_HIST: [AtomicU64; 16] = [const { AtomicU64::new(0) }; 16];
static G_FALLBACK: [AtomicU64; 5] = [const { AtomicU64::new(0) }; 5];

/// Process-wide snapshot of the run-granularity counters (see
/// [`RunStats`] for field semantics). Deterministic for a fixed workload
/// and engine configuration: admission decisions depend only on per-unit
/// state, and the totals are commutative sums.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RunCounters {
    pub runs: u64,
    pub run_blocks: u64,
    pub hist: [u64; 16],
    pub fallback: [u64; 5],
}

impl RunCounters {
    /// Mean admitted-run length in blocks (0 when nothing was admitted).
    pub fn mean_run_len(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.run_blocks as f64 / self.runs as f64
        }
    }

    /// Total per-block fallbacks across all causes.
    pub fn fallback_blocks(&self) -> u64 {
        self.fallback.iter().sum()
    }
}

/// Zero the process-wide run counters (benchmark harnesses snapshot
/// per-run deltas by resetting before each simulation).
pub fn reset_run_counters() {
    G_RUNS.store(0, Ordering::Relaxed);
    G_RUN_BLOCKS.store(0, Ordering::Relaxed);
    for h in &G_HIST {
        h.store(0, Ordering::Relaxed);
    }
    for f in &G_FALLBACK {
        f.store(0, Ordering::Relaxed);
    }
}

/// Read the process-wide run counters accumulated since the last reset.
pub fn run_counters() -> RunCounters {
    let mut c = RunCounters {
        runs: G_RUNS.load(Ordering::Relaxed),
        run_blocks: G_RUN_BLOCKS.load(Ordering::Relaxed),
        ..RunCounters::default()
    };
    for (i, h) in G_HIST.iter().enumerate() {
        c.hist[i] = h.load(Ordering::Relaxed);
    }
    for (i, f) in G_FALLBACK.iter().enumerate() {
        c.fallback[i] = f.load(Ordering::Relaxed);
    }
    c
}

/// One operation in a unit's program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// A kernel-launch packet must cross the command bus before subsequent
    /// accesses may issue.
    Launch,
    /// One cache-block DRAM access.
    Access {
        pa: u64,
        write: bool,
        cat: Phase,
        /// AGEN iterations spent producing this address.
        agen_iters: u32,
        /// Whether the block feeds the SIMD pipeline (GEMM blocks) or is a
        /// pure buffer transfer.
        compute: bool,
    },
}

/// Remapping used for the PIM-subset optimization (§III-E): dropped
/// bank-group ID bits are pinned by the coloring allocator, folding the
/// dropped address parity into extra row bits of the same bank group.
#[derive(Debug, Clone)]
pub struct SubsetRemap {
    /// PA parity masks of the dropped ID bits.
    pub dropped_masks: Vec<u64>,
    /// Number of bank-group coordinate bits to clear (highest first).
    pub bg_bits: u32,
    /// Row-field width of the geometry (folded bits go just above it).
    pub row_bits: u32,
}

impl SubsetRemap {
    fn remap(&self, mut c: DramCoord, pa: u64) -> DramCoord {
        for (i, &mask) in self.dropped_masks.iter().enumerate() {
            let parity = (pa & mask).count_ones() & 1;
            let bg_bit = self.bg_bits - 1 - i as u32;
            c.bankgroup &= !(1 << bg_bit);
            c.row ^= parity << (self.row_bits + i as u32);
        }
        c
    }
}

/// A step-program source: an iterator plus an optional *run hint*.
///
/// `run_hint` describes the steps about to be pulled: a return of `R > 1`
/// promises that the next `R` items are `Step::Access`es whose DRAM
/// coordinates differ only in the column — i.e. they share one
/// `(bank, row, direction)` window key. The addresses need *not* be
/// contiguous: XOR mappings interleave a run's columns across the mapping
/// period, but the non-column decode fields still cancel (region cursors
/// tabulate these boundaries with [`stepstone_addr::KeyRuns`]; the span
/// program's replayed runs are column-pure by construction). The reorder
/// window reuses the run's key without per-entry comparisons; debug builds
/// verify the promised key on every hinted pull.
///
/// `take_run` is the run-granular escalation of the same promise: skip the
/// next `n` steps wholesale, *without* yielding them through `next`. It
/// may only skip steps the current hint covers — `Step::Access`es sharing
/// the just-pulled anchor's window key, category, compute flag, and
/// direction, each costing exactly one AGEN iteration — and returns how
/// many it skipped (possibly fewer than `n`; `0` means unsupported and the
/// engine falls back to per-block pulls). The engine synthesizes the
/// skipped entries from the anchor, so a source honoring the contract is
/// cycle-exact with the per-block path by construction.
pub trait StepSource: Iterator<Item = Step> {
    fn run_hint(&self) -> u64 {
        1
    }

    fn take_run(&mut self, _n: u64) -> u64 {
        0
    }
}

impl<S: StepSource + ?Sized> StepSource for Box<S> {
    fn run_hint(&self) -> u64 {
        (**self).run_hint()
    }

    fn take_run(&mut self, n: u64) -> u64 {
        (**self).take_run(n)
    }
}

/// Adapter giving any step iterator the trivial (hint-free) source shape.
pub struct PlainSteps<I>(pub I);

impl<I: Iterator<Item = Step>> Iterator for PlainSteps<I> {
    type Item = Step;

    fn next(&mut self) -> Option<Step> {
        self.0.next()
    }
}

impl<I: Iterator<Item = Step>> StepSource for PlainSteps<I> {}

#[derive(Debug, Clone, Copy)]
struct WinEntry {
    /// Decoded (and subset-remapped) coordinate, cached at window fill.
    coord: DramCoord,
    write: bool,
    cat: Phase,
    compute: bool,
    gen_ready: u64,
    /// Same-run identity: (bank index, row, direction). When every window
    /// entry shares one key, the FR-FCFS selection is trivially the front
    /// entry (probe times are nondecreasing along the window) and the span
    /// fast path applies.
    key: u64,
}

/// Execution state of one unit.
///
/// The step program is *streamed*: the cursor pulls from a lazy iterator
/// (AGEN walks, region interleaves) instead of a pre-materialized `Vec`,
/// so resident step storage is O(reorder window) per unit regardless of
/// matrix size.
pub struct UnitCursor<'a> {
    pub label: &'static str,
    /// Channel this unit's control packets ride on.
    pub channel: u32,
    pub port: Port,
    steps: Box<dyn StepSource + Send + 'a>,
    peeked: Option<Step>,
    /// Remaining pulls covered by the source's current run hint (entries
    /// that share `hint_key` without needing a comparison).
    hint_left: u64,
    /// Window key of the hinted run's first entry.
    hint_key: u64,
    /// Blocks of an admitted run still to be synthesized into the window
    /// (the source already skipped them via [`StepSource::take_run`]).
    run_left: u64,
    /// The admitted run's first window entry: synthesized followers clone
    /// it (fresh `gen_ready`; the stale column is never read — timing,
    /// probes, and stats are column-blind, and admission requires the
    /// trace to be off).
    run_anchor: Option<WinEntry>,
    /// How many window entries (always a suffix, while `run_left > 0`) are
    /// synthesized followers of the current admitted run. When the whole
    /// window is followers, the steady batch loop issues the remaining
    /// virtual followers without touching the window at all.
    win_synth: usize,
    /// Scheduler's per-phase grant of the span fast path, which includes
    /// run-granular admission of hinted runs (see [`run_phase`] for the
    /// conditions).
    fast: bool,
    /// Why this unit's blocks go per-block when `fast` is false
    /// (`FB_*` index chosen by the scheduler: traffic > refresh > trace >
    /// other).
    fallback_cause: u8,
    /// Run-granularity statistics, flushed to [`run_counters`] at phase
    /// end.
    pub run_stats: RunStats,
    /// All current window entries share (channel, rank, bank group,
    /// direction) — maintained incrementally on push/pop; always equal to
    /// [`UnitCursor::window_scope_uniform`] over the live window.
    win_uniform: bool,
    /// In-order AGEN output awaiting issue; the PIM's memory sequencer may
    /// issue any of these out of order (a small FR-FCFS-like window that a
    /// 20-deep pipeline implies; Ramulator's controller reorders the same
    /// way). Entries carry the time AGEN finished generating them.
    window: VecDeque<WinEntry>,
    window_cap: usize,
    gen_clock: u64,
    /// Earliest desired issue time of the next command.
    pub not_before: u64,
    simd_free: u64,
    inflight: VecDeque<u64>,
    launch_avail: u64,
    launch_req: u64,
    pending_kernel_start: bool,
    clock: u64,
    pub cat_cycles: [u64; 8],
    pub end_time: u64,
    // Static parameters.
    compute_cycles_per_block: u64,
    simd_ops_per_block: u64,
    pipeline_depth: usize,
    launch_slots: u64,
    launch_latency: u64,
    /// Per-cache-block packet schemes (PEI) stream packets back-to-back;
    /// kernel launches request when the previous kernel starts.
    pub pipelined_launch: bool,
    burst_window: u64,
    /// Extra spacing between blocks for host-mediated transfer streams.
    host_gap: u64,
    subset: Option<SubsetRemap>,
    /// The unit's accesses are confined to a bank partition and datapath no
    /// other unit in the phase touches (kernel PIMs: each owns its bank
    /// group / rank / channel by construction). Steady-state CAS runs of
    /// such units commit only unit-private timing state, so the scheduler
    /// may let them stream past other units' turns (see
    /// [`UnitCursor::advance_batch`]). Transfer cursors and anything that
    /// roams across bank partitions must leave this false.
    pub exclusive: bool,
    // Statistics.
    pub launches: u64,
    pub simd_ops: u64,
    pub scratch_accesses: u64,
    pub agen_iter_sum: u64,
    pub agen_iter_max: u32,
    pub agen_bubbles: u64,
}

impl<'a> UnitCursor<'a> {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        label: &'static str,
        channel: u32,
        port: Port,
        steps: impl Iterator<Item = Step> + Send + 'a,
        start: u64,
        compute_cycles_per_block: u64,
        simd_ops_per_block: u64,
        pipeline_depth: usize,
        launch_slots: u64,
        launch_latency: u64,
        burst_window: u64,
        subset: Option<SubsetRemap>,
    ) -> Self {
        Self::from_source(
            label,
            channel,
            port,
            PlainSteps(steps),
            start,
            compute_cycles_per_block,
            simd_ops_per_block,
            pipeline_depth,
            launch_slots,
            launch_latency,
            burst_window,
            subset,
        )
    }

    /// [`UnitCursor::new`] over a hint-capable [`StepSource`] (the
    /// streaming kernel path, whose span program promises whole runs).
    #[allow(clippy::too_many_arguments)]
    pub fn from_source(
        label: &'static str,
        channel: u32,
        port: Port,
        steps: impl StepSource + Send + 'a,
        start: u64,
        compute_cycles_per_block: u64,
        simd_ops_per_block: u64,
        pipeline_depth: usize,
        launch_slots: u64,
        launch_latency: u64,
        burst_window: u64,
        subset: Option<SubsetRemap>,
    ) -> Self {
        Self {
            label,
            channel,
            port,
            steps: Box::new(steps),
            peeked: None,
            hint_left: 0,
            hint_key: 0,
            run_left: 0,
            run_anchor: None,
            win_synth: 0,
            fast: false,
            fallback_cause: FB_OTHER as u8,
            run_stats: RunStats::default(),
            win_uniform: true,
            window: VecDeque::with_capacity(8),
            window_cap: (pipeline_depth / 2).clamp(1, 8),
            gen_clock: start,
            not_before: start,
            simd_free: start,
            inflight: VecDeque::with_capacity(pipeline_depth),
            launch_avail: start,
            launch_req: start,
            pending_kernel_start: false,
            clock: start,
            cat_cycles: [0; 8],
            end_time: start,
            compute_cycles_per_block,
            simd_ops_per_block,
            pipeline_depth,
            launch_slots,
            launch_latency,
            pipelined_launch: false,
            burst_window,
            host_gap: 0,
            subset,
            exclusive: false,
            launches: 0,
            simd_ops: 0,
            scratch_accesses: 0,
            agen_iter_sum: 0,
            agen_iter_max: 0,
            agen_bubbles: 0,
        }
    }

    /// A plain transfer stream (DMA, reductions): no compute, no launches.
    pub fn transfer(
        label: &'static str,
        channel: u32,
        port: Port,
        steps: impl Iterator<Item = Step> + Send + 'a,
        start: u64,
        inter_block_gap: u64,
    ) -> Self {
        let mut c = Self::new(label, channel, port, steps, start, 0, 0, 4, 0, 0, 4, None);
        // Host-mediated transfers insert idle gaps between blocks.
        c.host_gap = inter_block_gap;
        c
    }

    fn peek(&mut self) -> Option<Step> {
        if self.peeked.is_none() {
            self.peeked = self.steps.next();
        }
        self.peeked
    }

    /// Move consecutive Access steps into the reorder window, charging the
    /// (serial) AGEN for each generated address. A Launch is a barrier.
    fn fill_window(&mut self, mapping: &XorMapping) {
        let scope = scope_mask(mapping);
        while self.window.len() < self.window_cap {
            // An admitted run synthesizes its followers from the anchor:
            // the source already skipped these steps (take_run), promising
            // Accesses that share the anchor's key, category, and
            // direction at one AGEN iteration each — so the bookkeeping
            // below is the per-pull arithmetic verbatim, applied to the
            // promised values.
            if self.run_left > 0 {
                self.synth_follower(scope);
                continue;
            }
            // Ask the source for a run hint before pulling a fresh step;
            // the run's first entry computes and anchors the window key,
            // followers reuse it. The subset remap mixes address parities
            // into the coordinate, so hints are only honored without one.
            let mut run_first = false;
            if self.hint_left == 0 && self.peeked.is_none() && self.subset.is_none() {
                self.hint_left = self.steps.run_hint().max(1);
                run_first = true;
            }
            match self.peek() {
                Some(Step::Access { pa, write, cat, agen_iters, compute }) => {
                    self.peeked = None;
                    self.gen_clock = self.gen_clock.max(self.not_before) + agen_iters as u64;
                    self.agen_iter_sum += agen_iters as u64;
                    self.agen_iter_max = self.agen_iter_max.max(agen_iters);
                    if agen_iters as u64 > self.burst_window {
                        self.agen_bubbles += 1;
                    }
                    let mut coord = mapping.decode(pa);
                    if let Some(su) = &self.subset {
                        coord = su.remap(coord, pa);
                    }
                    // Per-channel phase sharding (run_phase_auto) relies on
                    // every access landing on the unit's declared channel;
                    // a violation would silently vanish at state merge.
                    debug_assert_eq!(
                        coord.channel, self.channel,
                        "unit '{}' issued a cross-channel access (pa {pa:#x})",
                        self.label
                    );
                    let computed_key = || {
                        (coord.bank_index(mapping.geometry()) as u64) << 33
                            | (coord.row as u64) << 1
                            | write as u64
                    };
                    let hinted = !run_first && self.hint_left > 0;
                    let key = if hinted {
                        debug_assert_eq!(
                            self.hint_key,
                            computed_key(),
                            "unit '{}': run hint promised a shared window key (pa {pa:#x})",
                            self.label
                        );
                        self.hint_key
                    } else {
                        computed_key()
                    };
                    if self.hint_left > 0 {
                        self.hint_left -= 1;
                        self.hint_key = key;
                    }
                    // Incremental scope-uniformity: a push into a uniform
                    // window stays uniform iff the new entry matches any
                    // resident entry's scope bits (transitivity). The back
                    // entry need not be the hinted run's predecessor (it
                    // may have been removed), so hinted entries compare
                    // like any other.
                    match self.window.back() {
                        None => self.win_uniform = true,
                        Some(b) => {
                            self.win_uniform = self.win_uniform && (key ^ b.key) & scope == 0;
                        }
                    }
                    let entry =
                        WinEntry { coord, write, cat, compute, gen_ready: self.gen_clock, key };
                    self.window.push_back(entry);
                    // Run-granular admission: a fresh hint promising more
                    // same-key blocks lets the source skip them wholesale;
                    // this entry anchors the synthesized followers.
                    let mut admitted = false;
                    if run_first && self.fast && self.hint_left > 0 {
                        let skipped = self.steps.take_run(self.hint_left);
                        if skipped > 0 {
                            debug_assert!(skipped <= self.hint_left, "over-skip");
                            self.hint_left -= skipped;
                            self.run_left = skipped;
                            self.run_anchor = Some(entry);
                            // The anchor itself is a real pull; only the
                            // synthesized followers pushed after it count
                            // toward the all-followers window test.
                            self.win_synth = 0;
                            self.run_stats.record_run(skipped + 1);
                            admitted = true;
                        }
                    }
                    if !admitted {
                        let cause = if !self.fast {
                            self.fallback_cause as usize
                        } else if run_first && self.hint_left == 0 {
                            // The hint ended here: the next step changes
                            // (bank, row, direction) or crosses a stage
                            // boundary.
                            FB_ROW
                        } else {
                            // Hinted follower of a run the source could
                            // not (or only partially) skip.
                            FB_OTHER
                        };
                        self.run_stats.fallback[cause] += 1;
                    }
                }
                _ => {
                    self.hint_left = 0;
                    break;
                }
            }
        }
    }

    /// Synthesize one admitted-run follower into the window: the exact
    /// per-pull arithmetic of [`UnitCursor::fill_window`] applied to the
    /// values [`StepSource::take_run`] promised (one AGEN iteration, the
    /// anchor's key and coordinate — the stale column is never read).
    #[inline]
    fn synth_follower(&mut self, scope: u64) {
        let anchor = self.run_anchor.expect("admitted run has an anchor");
        self.run_left -= 1;
        self.gen_clock = self.gen_clock.max(self.not_before) + 1;
        self.agen_iter_sum += 1;
        self.agen_iter_max = self.agen_iter_max.max(1);
        if 1 > self.burst_window {
            self.agen_bubbles += 1;
        }
        match self.window.back() {
            None => self.win_uniform = true,
            Some(b) => {
                self.win_uniform = self.win_uniform && (anchor.key ^ b.key) & scope == 0;
            }
        }
        self.window.push_back(WinEntry { gen_ready: self.gen_clock, ..anchor });
        self.win_synth += 1;
    }

    /// Decide whether the rest of the admitted run can be issued as one
    /// [`RunReply::Jump`], and at what per-block CAS distance `d`.
    ///
    /// Called with the unit just past `finish_block` of a frozen follower
    /// (`bt`), about to issue the next one. The per-block transition from
    /// here — AGEN tick, `issue_nb`, the steady CAS rule `cas' = max(cas +
    /// step, nb)`, and `finish_block` — is a max/plus circuit over the
    /// state vector (CAS, unit clock, AGEN clock, SIMD horizon, in-flight
    /// deque) whose only other inputs are per-run constants and the launch
    /// gate. Such a circuit commutes with shifting the whole state by `d`,
    /// so if one transition advances every live state component by exactly
    /// `d` — which this function verifies arithmetically — every later
    /// transition does too (the launch gate, once below the CAS, can never
    /// bind again), and all `run_left` remaining followers can be issued
    /// closed-form. Any failed condition just means "stream one more block
    /// and try again": the transient at a run's head (pipeline refilling,
    /// launch gate clearing, pre-run in-flight entries draining) settles
    /// within a few blocks.
    fn jump_len(
        &self,
        cur: &WinEntry,
        bt: stepstone_dram::BlockTiming,
        step: u64,
    ) -> Option<(u64, u64)> {
        let cas = bt.cas_at;
        // `gen_clock ≤ cas` makes the AGEN term exactly `cas + 1 ≤ cas +
        // step` on this and (by the shift) every later block — masked.
        if self.host_gap != 0
            || self.pending_kernel_start
            || self.launch_avail > cas
            || self.gen_clock > cas
        {
            return None;
        }
        // Predict the next transition exactly as issue_nb + the steady CAS
        // rule would compute it (the AGEN term is `max(gen_clock, cas) + 1
        // ≤ cas + step`, so it never decides the max).
        let full = self.inflight.len() >= self.pipeline_depth;
        let mut nb = cas + step;
        if full {
            nb = nb.max(*self.inflight.front().expect("pipeline_depth > 0"));
        }
        let d = nb - cas;
        if cur.compute {
            // The deque must already be one arithmetic cadence: then each
            // jumped block pops its front and pushes back + d, a pure
            // shift of the whole deque by d.
            if !full
                || self.simd_free != *self.inflight.back().unwrap()
                || self
                    .inflight
                    .iter()
                    .zip(self.inflight.iter().skip(1))
                    .any(|(a, b)| b.wrapping_sub(*a) != d)
            {
                return None;
            }
            // The next completion must continue that cadence…
            let done = self.simd_free.max(bt.data_end + d) + self.compute_cycles_per_block;
            if done != self.simd_free + d {
                return None;
            }
            // …and the unit clock must be tracking the CAS.
            if self.clock != cas {
                return None;
            }
        } else {
            // No pushes: any pops would drain pre-run completions that are
            // not part of the shift-invariant state.
            if full || self.clock != bt.data_end {
                return None;
            }
        }
        Some((self.run_left, d))
    }

    /// Account `k` jumped followers (see [`UnitCursor::jump_len`]): the
    /// exact per-block arithmetic of the virtual-issue path and
    /// [`UnitCursor::finish_block`], folded over `k` blocks that each
    /// advance the whole issue state by `d`.
    fn jump_followers(&mut self, cur: &WinEntry, bt: stepstone_dram::BlockTiming, k: u64, d: u64) {
        let kd = k * d;
        let last_cas = bt.cas_at + kd;
        let last_data_end = bt.data_end + kd;
        self.run_left -= k;
        // After issuing the last follower: one AGEN tick past the
        // previous block's CAS.
        self.gen_clock = last_cas - d + 1;
        self.agen_iter_sum += k;
        self.agen_iter_max = self.agen_iter_max.max(1);
        if 1 > self.burst_window {
            self.agen_bubbles += k;
        }
        self.not_before = last_cas;
        if cur.compute {
            for t in self.inflight.iter_mut() {
                *t += kd;
            }
            self.simd_free += kd;
            self.simd_ops += k * self.simd_ops_per_block;
            self.scratch_accesses += 2 * k;
        } else {
            self.scratch_accesses += k;
        }
        self.cat_cycles[cur.cat.index()] += kd;
        self.clock += kd;
        self.end_time = self.end_time.max(last_data_end).max(self.simd_free);
    }

    /// Remove window entry `ix`, restoring the uniformity flag when the
    /// departure of a mismatched entry makes the remainder uniform again.
    #[inline]
    fn take_entry(&mut self, ix: usize, scope: u64) -> WinEntry {
        // While a run is active its followers are exactly the entries
        // pushed since admission — a window suffix (only followers are
        // pushed while `run_left > 0`). After the run drains the count may
        // go stale; the next admission resets it before it is read again.
        if self.win_synth > 0 && ix >= self.window.len() - self.win_synth {
            self.win_synth -= 1;
        }
        let e = if ix == 0 {
            self.window.pop_front().expect("window entry")
        } else {
            self.window.remove(ix).expect("window entry")
        };
        if !self.win_uniform {
            self.win_uniform = self.window_scope_uniform(scope) || self.window.is_empty();
        }
        e
    }

    pub fn is_done(&mut self) -> bool {
        self.run_left == 0 && self.window.is_empty() && self.peek().is_none()
    }

    /// Desired time of the next command (scheduling key).
    pub fn desired(&mut self, mapping: &XorMapping) -> Option<u64> {
        self.fill_window(mapping);
        if let Some(e) = self.window.front() {
            return Some(self.not_before.max(e.gen_ready));
        }
        self.peek()?;
        Some(self.not_before)
    }

    /// Execute the next step. Under the fast-path grant the FR-FCFS probe
    /// scan is skipped when the front entry provably wins (see
    /// [`UnitCursor::window_scope_uniform`]; additionally requires the
    /// front to be a row *hit* — a row-conflict front can legitimately lose
    /// to a later entry whose bank precharges earlier).
    fn advance_one<B: MemoryBackend>(
        &mut self,
        ts: &mut B,
        bus: &mut CommandBus,
        mapping: &XorMapping,
    ) {
        self.fill_window(mapping);
        if self.window.is_empty() {
            let Some(step) = self.peeked.take().or_else(|| self.steps.next()) else {
                return;
            };
            match step {
                Step::Launch => {
                    self.launches += 1;
                    if self.launch_slots > 0 {
                        let grant =
                            bus.acquire(self.channel as usize, self.launch_req, self.launch_slots);
                        self.launch_avail = grant + self.launch_latency;
                        if self.pipelined_launch {
                            // Back-to-back packets: the next request queues
                            // right behind this one on the bus.
                            self.launch_req = grant;
                        }
                    } else {
                        self.launch_avail = self.not_before;
                    }
                    self.pending_kernel_start = !self.pipelined_launch;
                }
                Step::Access { .. } => unreachable!("fill_window consumes Access steps"),
            }
            return;
        }
        // Pick the window entry whose data would start earliest (the PIM
        // sequencer's FR-FCFS-like choice). `TimingState::probe` ignores the
        // column, so entries sharing (bank, row, direction) and an effective
        // not-before resolve to the same time — probe each distinct
        // combination once (sequential walks collapse to a single probe).
        // A window confined to one bank group and direction whose front is
        // a row hit needs no probes at all: the front entry provably wins
        // (see [`UnitCursor::window_scope_uniform`]).
        let base_nb = self.not_before.max(self.launch_avail);
        let mut best_ix = 0;
        debug_assert_eq!(
            self.win_uniform,
            self.window_scope_uniform(scope_mask(mapping)),
            "incremental uniformity flag out of sync"
        );
        let front_wins = self.fast
            && self.win_uniform
            && self.window.front().is_some_and(|e| ts.row_open(&e.coord));
        if !front_wins {
            let mut best_t = u64::MAX;
            let mut cache: [(u64, u64, u64); 8] = [(0, 0, 0); 8];
            let mut cache_len = 0usize;
            for (i, e) in self.window.iter().enumerate() {
                let nb = base_nb.max(e.gen_ready);
                // `WinEntry::key` already encodes (bank, row, direction) —
                // exactly the identity `TimingState::probe` depends on
                // beyond the not-before time.
                let cached = cache[..cache_len].iter().find(|&&(k, n, _)| k == e.key && n == nb);
                let t = match cached {
                    Some(&(_, _, t)) => t,
                    None => {
                        let kind = if e.write { CasKind::Write } else { CasKind::Read };
                        let t = ts.probe(e.coord, kind, self.port, nb);
                        if cache_len < cache.len() {
                            cache[cache_len] = (e.key, nb, t);
                            cache_len += 1;
                        }
                        t
                    }
                };
                if t < best_t {
                    best_t = t;
                    best_ix = i;
                    if t <= base_nb {
                        break; // cannot beat an immediate issue
                    }
                }
            }
        }
        let e = self.take_entry(best_ix, scope_mask(mapping));
        let nb = self.issue_nb(e.gen_ready);
        let kind = if e.write { CasKind::Write } else { CasKind::Read };
        let bt = ts.access(e.coord, kind, self.port, nb);
        self.finish_block(&e, bt);
    }

    /// Whether every window entry shares the front's bank group, rank, and
    /// direction (`scope_mask` selects those key bits). In that scope the
    /// FR-FCFS selection is provably the front entry: a same-path row hit
    /// can start no earlier than the shared tCCDL cadence the front already
    /// achieves, a row miss pays at least tRCD on top of it, and later
    /// entries' AGEN-ready times are nondecreasing — so the front's probe
    /// time is minimal and index order breaks the tie. (Entries in a
    /// *different* bank group could genuinely win — tCCDS < tCCDL is the
    /// reorder window's raison d'être — so they end the fast path.)
    #[inline]
    fn window_scope_uniform(&self, scope_mask: u64) -> bool {
        let mut it = self.window.iter();
        match it.next() {
            Some(first) => it.all(|e| (e.key ^ first.key) & scope_mask == 0),
            None => false,
        }
    }

    /// Per-block bookkeeping after a DRAM access issued for window entry
    /// `e`: clock/category attribution, SIMD pipeline, launch gating, and
    /// the next block's earliest desire.
    fn finish_block(&mut self, e: &WinEntry, bt: stepstone_dram::BlockTiming) {
        if self.pending_kernel_start {
            self.pending_kernel_start = false;
            self.launch_req = bt.cas_at;
        }
        // Host-mediated streams (CPU loads/stores) leave the bus idle
        // between transfers; the DMA engine does not.
        self.not_before = if self.host_gap > 0 {
            bt.cas_at + self.burst_window + self.host_gap
        } else {
            bt.cas_at
        };
        let mark = if e.compute {
            let done = self.simd_free.max(bt.data_end) + self.compute_cycles_per_block;
            self.simd_free = done;
            self.inflight.push_back(done);
            self.simd_ops += self.simd_ops_per_block;
            self.scratch_accesses += 2; // B panel read + C accumulate
            bt.cas_at.max(self.clock)
        } else {
            self.scratch_accesses += 1;
            bt.data_end
        };
        let mark = mark.max(self.clock);
        self.cat_cycles[e.cat.index()] += mark - self.clock;
        self.clock = mark;
        self.end_time = self.end_time.max(bt.data_end).max(self.simd_free);
    }

    /// Earliest issue time for the entry about to leave the window, with
    /// pipeline back-pressure applied. The batch loop must compute this
    /// *identically* to the per-block path — one shared definition.
    #[inline]
    fn issue_nb(&mut self, gen_ready: u64) -> u64 {
        let mut nb = self.not_before.max(self.launch_avail).max(gen_ready);
        if self.inflight.len() >= self.pipeline_depth {
            if let Some(t) = self.inflight.pop_front() {
                nb = nb.max(t);
            }
        }
        nb
    }

    /// Execute the next step, then — under the scheduler's fast-path grant
    /// — keep issuing on the span fast path for as long as the reorder
    /// window holds a scope-uniform run with a row-hit front.
    ///
    /// The grant is the scheduler's promise that every unit in the phase
    /// owns an [`UnitCursor::exclusive`] bank partition and no colocated
    /// traffic, refresh, or global-time trace is active. Under it, a
    /// steady row-hit run may stream arbitrarily far ahead of other units'
    /// scheduler turns: the FR-FCFS selection is provably the front entry
    /// (see `UnitCursor::window_scope_uniform`), the closed-form CAS
    /// cadence of [`MemoryBackend::access_run_stream`] is exact, and same-row
    /// CAS commands read and write only the unit's own bank and datapath
    /// stamps — so commits from other (lagging) units cannot change them,
    /// and batch-issuing the whole run commutes with the per-block
    /// interleave. Everything that touches shared state — PRE/ACT (rank
    /// tRRD/tFAW windows), refresh, kernel launches on the command bus,
    /// FR-FCFS probes of a mixed window — still waits for its exact
    /// scheduler turn, so results stay bit-identical to the per-block path.
    pub fn advance_batch<B: MemoryBackend>(
        &mut self,
        ts: &mut B,
        bus: &mut CommandBus,
        mapping: &XorMapping,
    ) {
        self.advance_one(ts, bus, mapping);
        if !self.fast {
            return;
        }
        let scope = scope_mask(mapping);
        loop {
            self.fill_window(mapping);
            let Some(front) = self.window.front() else { return };
            // A run may only start on a guaranteed row hit in a
            // scope-uniform window — the conditions under which the
            // FR-FCFS selection is provably the front entry. A row-miss
            // front goes back through the exact probe scan (another bank's
            // earlier precharge could win), and its PRE/ACT must order
            // against other units' rank state at its scheduler turn.
            debug_assert_eq!(self.win_uniform, self.window_scope_uniform(scope));
            if !self.win_uniform || !ts.row_open(&front.coord) {
                return;
            }
            let e0 = self.take_entry(0, scope);
            let kind = if e0.write { CasKind::Write } else { CasKind::Read };
            let nb = self.issue_nb(e0.gen_ready);
            let mut cur = e0;
            let step = ts.cas_step();
            let mut jumped = false;
            ts.access_run_stream(e0.coord, kind, self.port, nb, &mut |bt| {
                if jumped {
                    // The jump already accounted every block through this
                    // one (`bt` is the last jumped block's timing).
                    jumped = false;
                } else {
                    self.finish_block(&cur, bt);
                }
                // Frozen-window streaming: once the whole window consists
                // of the admitted run's synthesized followers, the entries
                // are interchangeable — identical but for `gen_ready`
                // stamps, which the CAS cadence provably masks (a
                // follower's stamp is at most one cycle past the previous
                // CAS, and the cadence step is at least the burst length).
                // So issue the remaining followers virtually, leaving the
                // window untouched: the arithmetic below is the synthesis
                // arithmetic verbatim, and `run_left` crosses zero at the
                // same issued-block position as in the push/pop interleave,
                // so post-run pulls resume at identical positions.
                if self.run_left > 0 && self.win_synth == self.window.len() {
                    let anchor = self.run_anchor.as_ref().expect("admitted run has an anchor");
                    if cur.key == anchor.key {
                        if let Some((k, d)) = self.jump_len(&cur, bt, step) {
                            self.jump_followers(&cur, bt, k, d);
                            jumped = true;
                            return RunReply::Jump { count: k, d };
                        }
                        self.run_left -= 1;
                        self.gen_clock = self.gen_clock.max(self.not_before) + 1;
                        self.agen_iter_sum += 1;
                        if 1 > self.burst_window {
                            self.agen_bubbles += 1;
                        }
                        // `cur` already carries the follower's coord, key,
                        // category, and compute flag; its `gen_ready` stamp
                        // is dead past `issue_nb`, so no rebuild is needed.
                        let nb = self.issue_nb(self.gen_clock);
                        return RunReply::Block(cur.coord, nb);
                    }
                }
                // Steady-state refill: one synthesized follower replaces
                // the entry just issued (the common case for admitted
                // runs), falling back to the general fill at run edges —
                // behaviorally identical to `fill_window`, minus its loop.
                if self.run_left > 0 && self.window.len() + 1 == self.window_cap {
                    self.synth_follower(scope);
                } else {
                    self.fill_window(mapping);
                }
                let Some(front) = self.window.front() else { return RunReply::End };
                // The run continues only within the same bank, row, and
                // direction (the row is necessarily still open, so every
                // follower is a closed-form hit); any boundary returns to
                // the outer loop, and a row/bank change from there to the
                // exact per-block path.
                if front.key != cur.key || !self.win_uniform {
                    return RunReply::End;
                }
                cur = self.take_entry(0, scope);
                let nb = self.issue_nb(cur.gen_ready);
                RunReply::Block(cur.coord, nb)
            });
        }
    }

    /// Close out attribution after the program is exhausted: the SIMD
    /// pipeline drains into the GEMM category.
    pub fn finish(&mut self) {
        if self.simd_free > self.clock {
            self.cat_cycles[Phase::Gemm.index()] += self.simd_free - self.clock;
            self.clock = self.simd_free;
        }
        self.end_time = self.end_time.max(self.clock);
    }

    /// Drain this unit's run statistics into the process-wide counters
    /// (called once per unit at phase end; the local copy is cleared so a
    /// unit driven through multiple phases never double-counts).
    fn flush_run_stats(&mut self) {
        let s = std::mem::take(&mut self.run_stats);
        if s.runs > 0 {
            G_RUNS.fetch_add(s.runs, Ordering::Relaxed);
            G_RUN_BLOCKS.fetch_add(s.run_blocks, Ordering::Relaxed);
            for (i, h) in s.hist.iter().enumerate() {
                if *h > 0 {
                    G_HIST[i].fetch_add(*h, Ordering::Relaxed);
                }
            }
        }
        for (i, f) in s.fallback.iter().enumerate() {
            if *f > 0 {
                G_FALLBACK[i].fetch_add(*f, Ordering::Relaxed);
            }
        }
    }
}

/// Key bits identifying (channel, rank, bank group, direction): everything
/// in `WinEntry::key` except the bank-within-group and row fields.
#[inline]
fn scope_mask(mapping: &XorMapping) -> u64 {
    (!0u64 << (33 + mapping.geometry().bank_bits())) | 1
}

/// Colocated CPU traffic as an engine participant.
pub struct TrafficCursor<'a> {
    src: &'a mut dyn TrafficSource,
    pending: Option<stepstone_dram::TrafficReq>,
    /// Arrival time of the pending request (open-loop process).
    arrival: u64,
    pub served: u64,
    pub last_issue: u64,
    /// Sum of request queueing delays (issue − arrival): the CPU-side cost
    /// of sharing the memory system with the PIMs.
    pub queueing_cycles: u64,
}

impl<'a> TrafficCursor<'a> {
    pub fn new(src: &'a mut dyn TrafficSource, start: u64) -> Self {
        Self { src, pending: None, arrival: start, served: 0, last_issue: start, queueing_cycles: 0 }
    }

    /// Mean request queueing delay in cycles.
    pub fn mean_latency(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.queueing_cycles as f64 / self.served as f64
        }
    }

    fn peek_time(&mut self) -> Option<u64> {
        self.peek_arrival()?;
        Some(self.arrival.max(self.last_issue))
    }

    /// Arrival time of the next pending request (pulls one if needed).
    fn peek_arrival(&mut self) -> Option<u64> {
        if self.pending.is_none() {
            let req = self.src.next_req()?;
            self.arrival += req.gap;
            self.pending = Some(req);
        }
        Some(self.arrival)
    }

    fn advance<B: MemoryBackend>(
        &mut self,
        ts: &mut B,
        bus: &mut CommandBus,
        mapping: &XorMapping,
    ) {
        let Some(req) = self.pending.take() else { return };
        let coord = mapping.decode(req.pa);
        let t = self.arrival.max(self.last_issue);
        let grant = bus.acquire(coord.channel as usize, t, self.src.slots_per_request());
        let kind = if req.write { CasKind::Write } else { CasKind::Read };
        let bt = ts.access(coord, kind, Port::Channel, grant);
        self.last_issue = bt.cas_at;
        self.queueing_cycles += bt.cas_at.saturating_sub(self.arrival);
        self.served += 1;
    }

    /// Serve every tenant request arriving at or before `t` — the serving
    /// loop's idle-gap catch-up between back-to-back PIM passes, when no
    /// phase engine is running to interleave the cursor.
    pub fn drain_until<B: MemoryBackend>(
        &mut self,
        ts: &mut B,
        bus: &mut CommandBus,
        mapping: &XorMapping,
        t: u64,
    ) {
        while self.peek_arrival().is_some_and(|a| a <= t) {
            self.advance(ts, bus, mapping);
        }
    }
}

/// Run all unit cursors (and optional colocated traffic) to completion.
/// Returns the phase end time (max unit end).
///
/// A unit's desired time depends only on its own state, so the ready queue
/// is a min-heap updated only for the unit that just advanced — identical
/// scheduling to the seed's linear scan (lowest index wins ties), at
/// O(log units) per step.
///
/// The scheduling path follows from the phase's observable configuration
/// alone: the span fast path and run-granular admission apply only on a
/// backend that supports closed-form runs, with no colocated traffic, no
/// refresh, no command trace, and every unit [`UnitCursor::exclusive`].
/// Otherwise every block goes through the exact per-block FR-FCFS probe
/// scan. Both paths produce identical results.
pub fn run_phase<B: MemoryBackend>(
    ts: &mut B,
    bus: &mut CommandBus,
    mapping: &XorMapping,
    units: &mut [UnitCursor],
    traffic: Option<&mut TrafficCursor>,
) -> u64 {
    let mut refs: Vec<&mut UnitCursor> = units.iter_mut().collect();
    run_units(ts, bus, mapping, &mut refs, traffic)
}

/// The serial phase engine over a pre-selected set of units.
fn run_units<B: MemoryBackend>(
    ts: &mut B,
    bus: &mut CommandBus,
    mapping: &XorMapping,
    units: &mut [&mut UnitCursor],
    mut traffic: Option<&mut TrafficCursor>,
) -> u64 {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    // The span fast path needs every actor's bank/path state to move only
    // at its own turn: no colocated traffic, no refresh, no global-time
    // trace, and every unit on a private bank partition. Exclusivity is
    // required even for the within-bound front-wins shortcut — a
    // non-exclusive unit (e.g. a DMA cursor in a fused round) can ACT a
    // row in another unit's bank and stamp its CAS on a *different* path,
    // leaving that bank's next_cas ahead of the other unit's own cadence
    // and breaking the "front row hit starts no later than any window
    // sibling" inference. Run-granular admission rides the same grant: an
    // admitted run is only ever issued through the fast path's closed-form
    // CAS cadence, so anything that forces per-block probing also forces
    // per-block pulls. The grant must be set *before* the heap build below
    // — `desired` already fills reorder windows. The fallback cause
    // explains the whole phase (precedence: traffic > refresh > trace >
    // other).
    let fast = ts.supports_closed_form_runs()
        && traffic.is_none()
        && !ts.config().refresh
        && !ts.trace_enabled()
        && units.iter().all(|u| u.exclusive);
    let cause = if traffic.is_some() {
        FB_TRAFFIC
    } else if ts.config().refresh {
        FB_REFRESH
    } else if ts.trace_enabled() {
        FB_TRACE
    } else {
        FB_OTHER
    } as u8;
    for u in units.iter_mut() {
        u.fast = fast;
        u.fallback_cause = cause;
    }
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = units
        .iter_mut()
        .enumerate()
        .filter_map(|(i, u)| u.desired(mapping).map(|t| Reverse((t, i))))
        .collect();
    while let Some(Reverse((t, i))) = heap.pop() {
        // Let CPU traffic that wants the bus earlier go first.
        if let Some(tc) = traffic.as_deref_mut() {
            while tc.peek_time().is_some_and(|tt| tt <= t) {
                tc.advance(ts, bus, mapping);
            }
        }
        units[i].advance_batch(ts, bus, mapping);
        if let Some(nt) = units[i].desired(mapping) {
            heap.push(Reverse((nt, i)));
        }
    }
    let mut end = 0;
    for u in units.iter_mut() {
        u.finish();
        u.flush_run_stats();
        end = end.max(u.end_time);
    }
    // Serve CPU traffic that arrived within the phase but after the last
    // unit event — leaving it pending would bias mean latency low (the
    // unserved tail simply vanished from the statistics). Requests arriving
    // past the phase end stay pending for the next phase.
    if let Some(tc) = traffic {
        while tc.peek_arrival().is_some_and(|a| a <= end) {
            tc.advance(ts, bus, mapping);
        }
    }
    end
}

/// Run a phase with per-channel parallelism when the unit set allows it.
///
/// PIM units and DMA transfer cursors only ever touch addresses on their
/// own channel (regions and walks are carved from the unit's PIM-ID
/// parities, which pin the channel bits), and all DRAM timing state —
/// banks, ranks, datapaths, refresh deadlines, command-bus slots — is
/// per-channel. Units on different channels therefore share *no* mutable
/// state, and simulating each channel group in isolation is cycle-exact
/// with the serial interleaving; only the global statistics need merging.
///
/// Falls back to the serial engine when colocated traffic is present (a
/// `TrafficCursor` may roam across channels), when command tracing is
/// active (the trace must stay time-ordered), or when fewer than two
/// channel groups exist.
pub fn run_phase_auto<B: MemoryBackend>(
    ts: &mut B,
    bus: &mut CommandBus,
    mapping: &XorMapping,
    units: &mut [UnitCursor],
    traffic: Option<&mut TrafficCursor>,
    parallel: bool,
) -> u64 {
    let multi_channel =
        units.first().is_some_and(|f| units.iter().any(|u| u.channel != f.channel));
    if !parallel || traffic.is_some() || ts.trace_enabled() || !multi_channel {
        return run_phase(ts, bus, mapping, units, traffic);
    }
    // Group units by channel, preserving intra-group order (the heap's
    // index tie-break is per-group, matching the serial order within a
    // channel — the only order that matters).
    let mut groups: Vec<(u32, Vec<&mut UnitCursor>)> = Vec::new();
    for u in units.iter_mut() {
        let ch = u.channel;
        match groups.iter_mut().find(|(c, _)| *c == ch) {
            Some((_, g)) => g.push(u),
            None => groups.push((ch, vec![u])),
        }
    }
    use rayon::prelude::*;
    let results: Vec<(u32, B, CommandBus, u64)> = groups
        .into_par_iter()
        .map(|(ch, mut group)| {
            let mut lts = ts.clone();
            *lts.stats_mut() = DramStats::default();
            let mut lbus = bus.clone();
            let end = run_units(&mut lts, &mut lbus, mapping, &mut group, None);
            (ch, lts, lbus, end)
        })
        .collect();
    let mut end = 0;
    for (ch, lts, lbus, group_end) in &results {
        ts.adopt_channel(lts, *ch);
        ts.stats_mut().merge(lts.stats());
        bus.adopt_channel(lbus, *ch as usize);
        end = end.max(*group_end);
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use stepstone_dram::TimingState;
    use stepstone_addr::{mapping_by_id, MappingId};
    use stepstone_dram::{DramConfig, TrafficReq};

    fn read_step(pa: u64) -> Step {
        Step::Access { pa, write: false, cat: Phase::Gemm, agen_iters: 1, compute: false }
    }

    fn run_single(steps: Vec<Step>, launch_slots: u64) -> UnitCursor<'static> {
        let mapping = mapping_by_id(MappingId::Skylake);
        let mut ts = TimingState::new(DramConfig::default());
        let mut bus = CommandBus::new(2);
        let mut units = vec![UnitCursor::new(
            "t", 0, Port::Channel, steps.into_iter(), 0, 0, 0, 8, launch_slots, 10, 4, None,
        )];
        run_phase(&mut ts, &mut bus, &mapping, &mut units, None);
        units.pop().expect("one unit")
    }

    #[test]
    fn launch_gates_first_access() {
        let u = run_single(vec![Step::Launch, read_step(0)], 16);
        // The access cannot start before the 16-slot packet + latency.
        assert!(u.end_time >= 26, "end={}", u.end_time);
        assert_eq!(u.launches, 1);
    }

    #[test]
    fn zero_slot_launch_is_free() {
        let gated = run_single(vec![Step::Launch, read_step(0)], 16);
        let free = run_single(vec![Step::Launch, read_step(0)], 0);
        assert!(free.end_time < gated.end_time);
    }

    #[test]
    fn reorder_window_beats_in_order_on_same_bg_pairs() {
        // Blocks alternating (same-BG, same-BG) pairs: the window interleaves
        // them across bank groups, reaching tCCDS instead of tCCDL pacing.
        let mapping = mapping_by_id(MappingId::Skylake);
        // Find 32 channel-0 blocks in address order.
        let blocks: Vec<u64> = (0..4096u64)
            .map(|b| b * 64)
            .filter(|&pa| mapping.decode(pa).channel == 0)
            .take(64)
            .collect();
        let steps: Vec<Step> = blocks.iter().map(|&pa| read_step(pa)).collect();
        let u = run_single(steps, 0);
        let per_block = (u.end_time as f64) / 64.0;
        assert!(per_block < 6.0, "windowed stream achieves < tCCDL per block: {per_block}");
    }

    #[test]
    fn agen_iterations_accumulate_and_bubble() {
        let steps = vec![
            Step::Access { pa: 0, write: false, cat: Phase::Gemm, agen_iters: 2, compute: false },
            Step::Access { pa: 64, write: false, cat: Phase::Gemm, agen_iters: 9, compute: false },
        ];
        let u = run_single(steps, 0);
        assert_eq!(u.agen_iter_sum, 11);
        assert_eq!(u.agen_iter_max, 9);
        assert_eq!(u.agen_bubbles, 1, "9 iterations exceed the 4-cycle burst window");
    }

    #[test]
    fn subset_remap_folds_dropped_bits_into_rows() {
        let remap = SubsetRemap { dropped_masks: vec![1 << 7], bg_bits: 2, row_bits: 15 };
        let base = DramCoord { channel: 0, rank: 0, bankgroup: 3, bank: 0, row: 5, col: 1 };
        let c0 = remap.remap(base, 0); // parity 0
        assert_eq!(c0.bankgroup, 1, "high BG bit cleared");
        assert_eq!(c0.row, 5);
        let c1 = remap.remap(base, 1 << 7); // parity 1
        assert_eq!(c1.bankgroup, 1);
        assert_eq!(c1.row, 5 | (1 << 15), "parity folded into a high row bit");
    }

    #[test]
    fn window_selection_respects_pending_refresh() {
        // Regression: `TimingState::probe` used to ignore pending refresh,
        // so the FR-FCFS window ordered accesses on estimates wrong by up
        // to tRFC right after a deadline. A unit holding [rank-0 hit
        // (refresh overdue), rank-1 hit (already refreshed)] must issue the
        // rank-1 access first once probe accounts for rank 0's REF stall.
        let mapping = mapping_by_id(MappingId::Skylake);
        let cfg = DramConfig { refresh: true, ..DramConfig::default() };
        let tp = cfg.timing;
        // Find channel-0 blocks on each rank.
        let pa_of = |rank: u32| {
            (0..1u64 << 20)
                .map(|b| b * 64)
                .find(|&pa| {
                    let c = mapping.decode(pa);
                    c.channel == 0 && c.rank == rank
                })
                .expect("block on rank")
        };
        let (pa0, pa1) = (pa_of(0), pa_of(1));
        let mut ts = TimingState::new(cfg);
        // Open both rows, then retire rank 1's refresh just past the
        // deadline; rank 0's stays pending.
        ts.access(mapping.decode(pa0), CasKind::Read, Port::Channel, 0);
        ts.access(mapping.decode(pa1), CasKind::Read, Port::Channel, 0);
        ts.access(mapping.decode(pa1), CasKind::Read, Port::Channel, tp.t_refi + 10);
        assert_eq!(ts.stats.refreshes, 1, "rank 1 refreshed, rank 0 still owes");
        ts.enable_trace();
        let start = tp.t_refi + 400;
        let steps = vec![read_step(pa0), read_step(pa1)];
        let mut units = vec![UnitCursor::new(
            "t", 0, Port::Channel, steps.into_iter(), start, 0, 0, 4, 0, 0, 4, None,
        )];
        let mut bus = CommandBus::new(2);
        run_phase(&mut ts, &mut bus, &mapping, &mut units, None);
        let trace = ts.take_trace().expect("trace").records;
        let first = trace.iter().find(|r| r.time >= start).expect("post-start command");
        assert_eq!(
            first.coord.rank, 1,
            "the refresh-free rank must be selected first (got {first:?})"
        );
        assert_eq!(ts.stats.refreshes, 2, "rank 0's REF then committed");
    }

    #[test]
    fn traffic_arriving_after_last_unit_event_is_drained() {
        // An open-loop source keeps generating requests after the lone
        // unit's single access completes. Requests arriving within the
        // phase must still be served (dropping them biased mean latency
        // low); requests arriving after the phase end stay pending.
        struct Gapped(u32);
        impl TrafficSource for Gapped {
            fn next_req(&mut self) -> Option<TrafficReq> {
                if self.0 == 0 {
                    return None;
                }
                self.0 -= 1;
                Some(TrafficReq { pa: 64 * (self.0 as u64 + 1), write: false, gap: 10 })
            }
        }
        let mapping = mapping_by_id(MappingId::Skylake);
        let mut ts = TimingState::new(DramConfig::default());
        let mut bus = CommandBus::new(2);
        let mut src = Gapped(1000);
        let mut tc = TrafficCursor::new(&mut src, 0);
        let mut units = vec![UnitCursor::new(
            "t", 0, Port::Channel, vec![read_step(0)].into_iter(), 0, 0, 0, 8, 0, 0, 4, None,
        )];
        let end = run_phase(&mut ts, &mut bus, &mapping, &mut units, Some(&mut tc));
        // Arrivals land at 10, 20, 30, …: everything up to the phase end is
        // served, nothing beyond.
        assert_eq!(tc.served, end / 10, "served all phase-window arrivals (end={end})");
        assert!(tc.served >= 2, "the unit's access outlives several arrivals");
        assert!(tc.served < 1000, "the drain is bounded by the phase end");
    }

    #[test]
    fn traffic_cursor_serves_in_arrival_order() {
        struct Two(Vec<TrafficReq>);
        impl TrafficSource for Two {
            fn next_req(&mut self) -> Option<TrafficReq> {
                self.0.pop()
            }
        }
        let mapping = mapping_by_id(MappingId::Skylake);
        let mut ts = TimingState::new(DramConfig::default());
        let mut bus = CommandBus::new(2);
        let mut src = Two(vec![
            TrafficReq { pa: 128, write: true, gap: 5 },
            TrafficReq { pa: 64, write: false, gap: 3 },
        ]);
        let mut tc = TrafficCursor::new(&mut src, 0);
        // Drive it alongside an empty unit set via a dummy unit.
        let mut units = vec![UnitCursor::new(
            "t", 0, Port::Channel, vec![read_step(1 << 20)].into_iter(), 100, 0, 0, 8, 0, 0, 4, None,
        )];
        run_phase(&mut ts, &mut bus, &mapping, &mut units, Some(&mut tc));
        assert_eq!(tc.served, 2);
        assert!(tc.last_issue >= 8, "second request waits for its arrival");
    }
}
