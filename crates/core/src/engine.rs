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
//! The engine drives the one DRAM model, the exact Table-II
//! [`TimingState`].
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
    CasKind, CommandBus, DramStats, Port, RunReply, TimingParams, TimingState, TrafficSource,
};

/// Fallback-cause indices for [`RunCounters::fallback`]: why a block was
/// not covered by an admitted hinted run.
pub const FB_REFRESH: usize = 0;
pub const FB_ROW: usize = 1;
pub const FB_TRACE: usize = 2;
pub const FB_TRAFFIC: usize = 3;
pub const FB_OTHER: usize = 4;

/// Labels matching the `FB_*` indices (reporting convenience).
pub const FB_LABELS: [&str; 5] = ["refresh", "row", "trace", "traffic", "other"];

static G_RUNS: AtomicU64 = AtomicU64::new(0);
static G_RUN_BLOCKS: AtomicU64 = AtomicU64::new(0);
static G_HIST: [AtomicU64; 16] = [const { AtomicU64::new(0) }; 16];
static G_FALLBACK: [AtomicU64; 5] = [const { AtomicU64::new(0) }; 5];

/// Run-granularity counters: a unit's own ([`UnitCursor::run_stats`],
/// flushed into the process-wide totals once per phase) and the
/// process-wide snapshot ([`run_counters`]). The totals are
/// order-independent sums, so serial and per-channel-parallel engines
/// report identical ones, and they are deterministic for a fixed workload
/// and engine configuration: admission decisions depend only on per-unit
/// state.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RunCounters {
    /// Hinted runs admitted as single scheduling objects.
    pub runs: u64,
    /// Blocks covered by admitted runs (anchors included).
    pub run_blocks: u64,
    /// log2-bucketed run-length histogram: bucket `i` counts admitted runs
    /// of length `2^i ..= 2^(i+1) - 1`, saturating in the last bucket.
    pub hist: [u64; 16],
    /// Blocks not covered by an admitted hinted run, by the cause that
    /// kept them out (`FB_*` indices). A periodic jump keeps the per-block
    /// accounting of the blocks it issues in closed form, so they count
    /// here (or as runs) exactly as if issued one by one.
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

    /// Blocks not covered by an admitted run, across all causes.
    pub fn fallback_blocks(&self) -> u64 {
        self.fallback.iter().sum()
    }

    #[inline]
    fn record_run(&mut self, len: u64) {
        self.runs += 1;
        self.run_blocks += len;
        self.hist[(63 - len.leading_zeros() as usize).min(15)] += 1;
    }

    /// `self + k·(self − a)/j`: `k` more stretches of the stream that each
    /// add what each of the `j` from `a` to `self` added.
    fn extrapolated(&self, a: &RunCounters, k: u64, j: u64) -> RunCounters {
        let ext = |b: &mut u64, a: u64| {
            let grew = *b - a;
            if grew > 0 {
                debug_assert_eq!(grew % j, 0, "{j} stretches that grew alike");
                *b += k * grew / j;
            }
        };
        let mut out = *self;
        ext(&mut out.runs, a.runs);
        ext(&mut out.run_blocks, a.run_blocks);
        out.hist.iter_mut().zip(a.hist).for_each(|(b, a)| ext(b, a));
        out.fallback.iter_mut().zip(a.fallback).for_each(|(b, a)| ext(b, a));
        out
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

/// A unit's promise checks (a kernel's A-walk stretch checks at span
/// boundaries, a transfer's period checks at round boundaries), by
/// outcome. Host-side observability like [`UnitCursor::stretch_blocks`]:
/// no simulated quantity depends on them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CheckCounts {
    /// The source promised no stretch (or none usable yet).
    pub no_promise: u64,
    /// Window entries of another key were still to issue.
    pub foreign: u64,
    /// The boundary opened a promise (no earlier boundary of it was
    /// marked), so only its mark was recorded.
    pub first_mark: u64,
    /// A repeat or settle test failed.
    pub failed: u64,
    /// Everything held, but the SIMD pipeline left no room for a round.
    pub no_room: u64,
    /// The stretch jumped.
    pub jumped: u64,
}

impl CheckCounts {
    /// Checks of every outcome.
    pub fn total(&self) -> u64 {
        self.no_promise + self.foreign + self.first_mark + self.failed + self.no_room + self.jumped
    }

    /// Add `o`'s counts.
    pub fn add(&mut self, o: &CheckCounts) {
        self.no_promise += o.no_promise;
        self.foreign += o.foreign;
        self.first_mark += o.first_mark;
        self.failed += o.failed;
        self.no_room += o.no_room;
        self.jumped += o.jumped;
    }
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
///
/// `round_hint` and `skip_rounds` describe periodic sources — the DMA
/// engine's region interleave (a round is one block per region) and the
/// kernel A-walk (a round is one AGEN span): see [`RoundHint`].
pub trait StepSource: Iterator<Item = Step> {
    fn run_hint(&self) -> u64 {
        1
    }

    fn take_run(&mut self, _n: u64) -> u64 {
        0
    }

    /// The round promise at a round boundary, if it covers at least
    /// `min_rounds` rounds. Otherwise `Err(n)`: no such promise can come
    /// within the next `n` pulls (mid-round, a stream's key run ending
    /// too soon, or — `u64::MAX`, the default — no round structure), so
    /// the engine asks again only after them.
    fn round_hint(&mut self, _min_rounds: u64) -> Result<RoundHint, u64> {
        Err(u64::MAX)
    }

    /// Skip `n` whole rounds without yielding them, and return their
    /// exact AGEN charges (a bubble is a block charged more than
    /// `bubble_over` iterations). Only callable at a round boundary for
    /// rounds the current [`RoundHint::rounds`] covers.
    fn skip_rounds(&mut self, _n: u64, _bubble_over: u64) -> Skipped {
        unreachable!("skip_rounds on a source without round promises")
    }

    /// Span key-equality tests the source has evaluated for its round
    /// promises so far, stretch-table builds included (host-side
    /// observability).
    fn key_tests(&self) -> u64 {
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

    fn round_hint(&mut self, min_rounds: u64) -> Result<RoundHint, u64> {
        (**self).round_hint(min_rounds)
    }

    fn skip_rounds(&mut self, n: u64, bubble_over: u64) -> Skipped {
        (**self).skip_rounds(n, bubble_over)
    }

    fn key_tests(&self) -> u64 {
        (**self).key_tests()
    }
}

/// What a periodic source promises at a round boundary: for a
/// round-robin transfer, where every active stream (region) has yielded
/// its block of the round; for a kernel A-walk, where an AGEN span ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundHint {
    /// Rounds completed so far (skipped rounds included).
    pub done: u64,
    /// Blocks per round: active streams, or the span length.
    pub width: u64,
    /// Upcoming full rounds whose blocks each repeat their counterpart in
    /// the round just completed: a `Step::Access` with the same window key
    /// — (bank, row, direction) — category, compute flag and run hints.
    pub rounds: u64,
    /// The largest AGEN charge of any block of those rounds (every block
    /// but a span's first costs one iteration).
    pub max_iters: u32,
    /// Pulls past those rounds before the source can promise again (0
    /// when it cannot tell: ask at their end).
    pub after: u64,
    /// When the round right after those opens the next promise (of width
    /// `after`): at least how many rounds after it that promise covers (0
    /// otherwise).
    pub next: u64,
}

/// The exact AGEN charges of rounds a source skipped
/// ([`StepSource::skip_rounds`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Skipped {
    pub blocks: u64,
    /// AGEN iterations over the skipped blocks.
    pub iters: u64,
    /// The largest single-block charge.
    pub max_iters: u32,
    /// Blocks charged more than the caller's bubble threshold.
    pub bubbles: u64,
    /// The charges of the first blocks of the last rounds skipped by
    /// [`Skipped::round`] (A-walk spans), newest first: at most 8, enough
    /// for every pull a full reorder window can hold after a jump
    /// (`UnitCursor::rebuilt_backs`).
    pub heads: [u32; 8],
}

impl Skipped {
    /// Account one round of `width` blocks: its first charged `head`
    /// iterations, every other one iteration.
    pub fn round(&mut self, width: u64, head: u32, bubble_over: u64) {
        self.add(1, head, bubble_over);
        self.add(width - 1, 1, bubble_over);
        self.heads.copy_within(..7, 1);
        self.heads[0] = head;
    }

    /// Account `n` blocks charged `iters` iterations each.
    pub fn add(&mut self, n: u64, iters: u32, bubble_over: u64) {
        self.blocks += n;
        self.iters += n * iters as u64;
        if n > 0 {
            self.max_iters = self.max_iters.max(iters);
        }
        if iters as u64 > bubble_over {
            self.bubbles += n;
        }
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
    /// Pull index (the unit's `pulls` when it was pulled, wrapping): its
    /// distance back from the source position names its AGEN charge.
    seq: u32,
}

/// The longest period a promise check looks for, in rounds. A kernel
/// stretch repeats every round; a transfer's round-robin over its regions
/// may take a few rounds to repeat its issues (three on the paper's DDR4
/// channel, where eight regions share two ranks).
const MAX_PERIOD_ROUNDS: u64 = 4;

/// A transfer checks for a period only at boundaries promising at least
/// this many further rounds. Its first check of a key run can jump only
/// once the issue ring holds two periods of it (6 rounds on the paper
/// shape), so shorter promises would not pay the ring and the checks
/// back: DV regions switch keys every 2–4 blocks, and a 4 KiB page holds
/// 16 blocks of a paper-shape region.
const MIN_TRANSFER_ROUNDS: u64 = 32;

/// Issues a unit remembers ([`UnitCursor::recent`]): a check compares
/// the last two periods, so periods of up to 32 issues fit (one round of
/// at most 8 kernel blocks, or up to [`MAX_PERIOD_ROUNDS`] transfer rounds
/// of 8 regions).
const RECENT: usize = 64;

/// A placeholder for the issue ring's unused entries.
const NO_COORD: DramCoord = DramCoord { channel: 0, rank: 0, bankgroup: 0, bank: 0, row: 0, col: 0 };

/// What a due round-promise check in the run stream decided
/// ([`UnitCursor::stretch_due`]).
enum Due {
    /// Issue this many further blocks, each this many cycles after the
    /// previous CAS ([`RunReply::Jump`]).
    Jump(u64, u64),
    /// A round with several window keys: end the run, so the outer loop
    /// checks it ([`UnitCursor::round_jump`]).
    Outer,
    /// Keep streaming; `round_wait` says when to check again.
    Stream,
}

/// One issue a unit remembers: the entry's window key, pull index and
/// coordinate, its CAS time, and whether it hit an open row.
#[derive(Debug, Clone, Copy)]
struct Issued {
    key: u64,
    seq: u32,
    hit: bool,
    cas: u64,
    coord: DramCoord,
}

/// A placeholder for the issue ring's unused entries.
const NO_ISSUE: Issued = Issued { key: 0, seq: 0, hit: false, cas: 0, coord: NO_COORD };

/// Where a transfer's issue state stood at a round boundary: each window
/// entry's pulls back and AGEN stamp, oldest first (its keys are the
/// mark's), then its AGEN clock, clock and not-before.
#[derive(Clone, Copy, Default)]
struct Stand {
    window: [(u64, u64); 8],
    len: usize,
    times: [u64; 3],
}

impl Stand {
    /// Whether `self` stands where `then` stood, `d` cycles later: the
    /// same pulls back, every time `d` later.
    fn is_shift_of(&self, then: &Stand, d: u64) -> bool {
        let same = |a: &(u64, u64), b: &(u64, u64)| a.0 == b.0 && a.1.wrapping_sub(b.1) == d;
        self.len == then.len
            && self.window[..self.len].iter().zip(&then.window).all(|(a, b)| same(a, b))
            && self.times.iter().zip(&then.times).all(|(a, b)| a.wrapping_sub(*b) == d)
    }
}

/// A round boundary the promise check visited ([`UnitCursor::round_jump`],
/// [`UnitCursor::stretch_due`]).
#[derive(Clone, Copy)]
struct Mark {
    /// [`RoundHint::done`] there, and the end of its promise.
    done: u64,
    end: u64,
    /// The run statistics there: every round up to `end` grows them alike.
    run: RunCounters,
    /// Whether the unit had settled there, so that neither the AGEN, the
    /// launch gate nor a host gap could decide the next round's issues
    /// ([`UnitCursor::settled`], at the multi-key bound `tCCDS`).
    settled: bool,
    /// The window's key sequence there, oldest first.
    window: [u64; 8],
    /// When the SIMD pipeline was one cadence of some `d` there:
    /// `(d, simd_free − not_before)`.
    pipe: Option<(u64, u64)>,
}

/// Per-phase state of the promise checks for one unit: the last round
/// boundaries checked, a ring of the latest (at `at`) and up to
/// [`MAX_PERIOD_ROUNDS`] before it, with a transfer's issue state at each.
#[derive(Default)]
struct PeriodTracker {
    marks: [Option<Mark>; MAX_PERIOD_ROUNDS as usize + 1],
    stands: [Stand; MAX_PERIOD_ROUNDS as usize + 1],
    at: usize,
    /// The period a jump commits: its issues' coordinates and CAS times.
    period: Vec<(DramCoord, u64)>,
}

impl PeriodTracker {
    /// The latest mark.
    fn now(&self) -> Option<&Mark> {
        self.marks[self.at].as_ref()
    }

    /// The mark `j` rounds before the latest and the issue state there,
    /// if its promise covers the latest: every round between them repeats
    /// its run hints.
    fn before(&self, j: u64) -> Option<(&Mark, &Stand)> {
        let now = self.now()?;
        let i = self.marks.iter().position(|m| m.is_some_and(|m| m.done + j == now.done))?;
        let then = self.marks[i].as_ref()?;
        (now.done <= then.end).then(|| (then, &self.stands[i]))
    }
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
    /// Scheduler's per-phase grant of the promise checks (a kernel's
    /// stretch jumps, a transfer's periodic jump: see
    /// [`UnitCursor::jump_due`]) with their round-boundary state; `None`
    /// when not granted.
    period: Option<Box<PeriodTracker>>,
    /// Blocks taken from the source so far: pulled, or skipped by an
    /// admitted run or a periodic jump (window entries' `seq` counts
    /// these).
    pulls: u64,
    /// Issues (one pull each) left before the source's round promise is
    /// worth asking for again.
    round_wait: u64,
    /// The unit's latest issues, a ring of [`RECENT`] newest at
    /// `recent_at`; the newest `recent_len` of them are this phase's, one
    /// by one, with nothing issued in closed form since. A unit alone on
    /// its bank partition and datapath, or on its channel, is the only one
    /// to move them, so its own issues tell what a row hit of its next
    /// round reads (see [`UnitCursor::round_jump`]). Empty while it does
    /// not record: only the round check reads it, so it starts once a
    /// check of this phase sees a round of several window keys
    /// (StepStone-DV) or a transfer's promise, and single-key kernels
    /// (StepStone-BG) never write it.
    recent: Vec<Issued>,
    recent_at: usize,
    recent_len: usize,
    // Blocks issued in closed form, by mechanism (host-side observability:
    // none of these is a simulated quantity, and no run counter sees them).
    /// Periods of a transfer's verified periodic stream issued in closed
    /// form.
    pub jumped_periods: u64,
    /// Blocks those periods covered.
    pub jumped_blocks: u64,
    /// Blocks of A-walk stretches issued in closed form: rounds of one
    /// window key (StepStone-BG) or several (StepStone-DV).
    pub stretch_blocks: u64,
    /// Blocks of admitted-run tails issued in the run stream.
    pub tail_blocks: u64,
    /// The unit's promise checks, by outcome.
    pub checks: CheckCounts,
    /// Run-granularity statistics, flushed to [`run_counters`] at phase
    /// end.
    pub run_stats: RunCounters,
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
            period: None,
            pulls: 0,
            round_wait: 0,
            recent: Vec::new(),
            recent_at: 0,
            recent_len: 0,
            jumped_periods: 0,
            jumped_blocks: 0,
            stretch_blocks: 0,
            tail_blocks: 0,
            checks: CheckCounts::default(),
            run_stats: RunCounters::default(),
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

    /// A transfer stream (DMA, reductions): no compute, no launches. Every
    /// transfer cursor comes from [`crate::flow::transfer_cursors`], over
    /// the DMA engine's region interleave, whose round promises enable the
    /// periodic jump.
    pub(crate) fn transfer_source(
        label: &'static str,
        channel: u32,
        port: Port,
        steps: impl StepSource + Send + 'a,
        start: u64,
        inter_block_gap: u64,
    ) -> Self {
        let mut c =
            Self::from_source(label, channel, port, steps, start, 0, 0, 4, 0, 0, 4, None);
        // Host-mediated transfers insert idle gaps between blocks.
        c.host_gap = inter_block_gap;
        c
    }

    /// Span key-equality tests the unit's source evaluated for its round
    /// promises ([`StepSource::key_tests`]).
    pub fn key_tests(&self) -> u64 {
        self.steps.key_tests()
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
                    self.charge_agen(agen_iters as u64);
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
                    let computed_key = || window_key(mapping, &coord, write);
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
                    let entry = WinEntry {
                        coord,
                        write,
                        cat,
                        compute,
                        gen_ready: self.gen_clock,
                        key,
                        seq: self.pulls as u32,
                    };
                    self.pulls += 1;
                    self.debug_assert_push_ordered();
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
                            self.pulls += skipped;
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
        // The skipped blocks were counted at admission: this follower is
        // the `run_left`-th from their end.
        let ix = self.pulls - self.run_left;
        self.run_left -= 1;
        self.charge_agen(1);
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
        self.debug_assert_push_ordered();
        self.window.push_back(WinEntry { gen_ready: self.gen_clock, seq: ix as u32, ..anchor });
        self.win_synth += 1;
    }

    /// Whether the window's AGEN stamps are nondecreasing in window order,
    /// as [`UnitCursor::window_scope_uniform`]'s front-wins argument and
    /// the shared-key run identity of [`WinEntry::key`] assume. A push
    /// keeps it (the AGEN clock never runs back); every jump that rebuilds
    /// stamps asserts it in debug builds.
    fn window_ordered(&self) -> bool {
        let w = &self.window;
        w.iter().zip(w.iter().skip(1)).all(|(a, b)| a.gen_ready <= b.gen_ready)
    }

    /// Debug check before a push stamped with the AGEN clock: it is not
    /// older than the window's newest stamp.
    #[inline]
    fn debug_assert_push_ordered(&self) {
        debug_assert!(
            self.window.back().is_none_or(|b| b.gen_ready <= self.gen_clock),
            "unit '{}': window stamps out of order",
            self.label
        );
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
        let d = self.cadence(cas, step);
        if cur.compute {
            // The pipeline must be one cadence of `d` and the unit clock
            // must be tracking the CAS.
            if !self.simd_cadence(bt.data_end, d) || self.clock != cas {
                return None;
            }
        } else {
            // No pushes: any pops would drain pre-run completions that are
            // not part of the shift-invariant state.
            if self.inflight.len() >= self.pipeline_depth || self.clock != bt.data_end {
                return None;
            }
        }
        Some((self.run_left, d))
    }

    /// The CAS-to-CAS distance of the next issue after a CAS at `cas` in a
    /// steady row-hit run with cadence floor `step`, when neither the AGEN
    /// nor the launch gate binds: the floor, or the oldest SIMD completion
    /// a full pipeline must retire first, if that is later.
    fn cadence(&self, cas: u64, step: u64) -> u64 {
        let mut nb = cas + step;
        if self.inflight.len() >= self.pipeline_depth {
            nb = nb.max(*self.inflight.front().expect("pipeline_depth > 0"));
        }
        nb - cas
    }

    /// Whether the SIMD pipeline is one arithmetic cadence of `d`: full,
    /// its completions `d` apart with the newest at the SIMD horizon, and
    /// the next block (its data ending `d` past `data_end`) completing `d`
    /// after it. Each issue at that cadence then pops the front and pushes
    /// the back plus `d`: a pure shift of the pipeline by `d`.
    fn simd_cadence(&self, data_end: u64, d: u64) -> bool {
        let q = &self.inflight;
        q.len() >= self.pipeline_depth
            && q.back() == Some(&self.simd_free)
            && q.iter().zip(q.iter().skip(1)).all(|(a, b)| b.wrapping_sub(*a) == d)
            && self.simd_free.max(data_end + d) + self.compute_cycles_per_block
                == self.simd_free + d
    }

    /// The SIMD completion of the `m`-th block (from 1) of a stretch whose
    /// CAS commands follow one at `cas` every `d` cycles, each block's data
    /// ending `data` after its CAS: the recurrence `done = max(simd_free,
    /// data end) + compute` over data ends `d` apart, in max/plus closed
    /// form — the SIMD backlog carried forward, or the first block's data
    /// end plus whichever of compute and `d` paces the later ones.
    fn simd_done(&self, cas: u64, d: u64, data: u64) -> impl Fn(u64) -> u64 {
        let (c, s) = (self.compute_cycles_per_block, self.simd_free);
        let first = cas + d + data + c;
        move |m| (s + m * c).max(first + (m - 1) * c.max(d))
    }

    /// How many blocks a stretch issuing a CAS every `d` cycles after one
    /// at `cas` (`d` the cadence floor) can issue before the SIMD pipeline
    /// binds. Issues retire nothing until the pipeline is full, then each
    /// retires the oldest completion, at `cas + t·d` for the `t`-th issue:
    /// first those in flight, then block `m`'s ([`UnitCursor::simd_done`])
    /// at issue `m + depth`. None may be later than its issue. Both terms
    /// of block `m`'s completion outgrow its retirement by `compute − d`
    /// per block, so a SIMD unit no slower than the cadence never binds if
    /// block 1 does not, and a slower one first binds at a block found by
    /// one division. The stretch is capped just before the first binding.
    fn simd_room(&self, cas: u64, d: u64, data: u64) -> u64 {
        let depth = self.pipeline_depth as u64;
        let c = self.compute_cycles_per_block;
        let idle = depth.saturating_sub(self.inflight.len() as u64);
        let late = self.inflight.iter().zip(idle + 1..).position(|(&f, t)| f > cas + t * d);
        if let Some(i) = late {
            return idle + i as u64;
        }
        let retire = cas + (depth + 1) * d;
        let mut blocks = u64::MAX;
        for first in [self.simd_free + c, cas + d + data + c] {
            if first > retire {
                // Only blocks still in flight at the end may issue.
                return depth;
            }
            if c > d {
                blocks = blocks.min(1 + (retire - first) / (c - d));
            }
        }
        depth.saturating_add(blocks)
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
        self.tail_blocks += k;
        self.recent_len = 0;
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
        debug_assert!(self.window_ordered(), "unit '{}': window stamps out of order", self.label);
    }

    /// The window key of the round just completed, if all its blocks carry
    /// one and none of them has issued: read off the window's newest
    /// `width` entries.
    fn round_key(&self, width: u64) -> Option<u64> {
        let w = self.window.len() as u64;
        if width > w || self.back(&self.window[(w - width) as usize]) != width - 1 {
            return None;
        }
        let mut round = self.window.iter().skip((w - width) as usize).map(|e| e.key);
        let key = round.next()?;
        round.all(|k| k == key).then_some(key)
    }

    /// Record the round boundary `done` as the latest mark, every round up
    /// to `end` repeating the run hints of the round after it, and return
    /// the mark before it if that one covers this boundary: the run
    /// statistics grew alike over every round between them.
    fn mark_boundary(
        &mut self,
        done: u64,
        end: u64,
        settled: bool,
        pipe: Option<(u64, u64)>,
    ) -> Option<Mark> {
        let mut window = [0; 8];
        for (slot, e) in window.iter_mut().zip(&self.window) {
            *slot = e.key;
        }
        let run = self.run_stats;
        let tr = self.period.as_mut().expect("periodic grant");
        let before = tr.marks[tr.at].filter(|m| m.done < done && done <= m.end);
        tr.at = (tr.at + 1) % tr.marks.len();
        tr.marks[tr.at] = Some(Mark { done, end, run, settled, window, pipe });
        before
    }

    /// Whether nothing but the memory and the SIMD pipeline can decide this
    /// unit's issues from a round boundary on, the last CAS at `c`, while
    /// every later CAS is at least `g` past the one before it and no
    /// promised block costs more than `g` AGEN iterations (`max_iters`):
    ///
    /// * no host gap and no pending kernel start, and the launch gate at
    ///   most `c`: it never moves again;
    /// * no run hint half used, and the window full of compute entries:
    ///   every issue pops one entry and is followed by one pull;
    /// * the AGEN clock and every window stamp at most `g` past `c`. A
    ///   pull starts at `max(AGEN clock, not-before)` and follows an issue;
    ///   the pull before it started at the previous CAS and ended at most
    ///   `g` later, so no later than this CAS. So every pull starts at the
    ///   CAS just issued and its stamp is at most `g` past it, while every
    ///   later CAS is at least `g` past it: no stamp decides an issue. At
    ///   `g = tCCDS`, every time the FR-FCFS probe finds for a window entry
    ///   is that far past the last CAS too (its datapath's CAS cadence), so
    ///   no stamp decides a probe either.
    fn settled(&self, c: u64, g: u64, max_iters: u32) -> bool {
        self.host_gap == 0
            && !self.pending_kernel_start
            && self.launch_avail <= c
            && self.hint_left == 0
            && max_iters as u64 <= g
            && self.gen_clock <= c + g
            && self.window.len() == self.window_cap
            && self.window.iter().all(|e| e.compute && e.gen_ready <= c + g)
    }

    /// `(d, simd_free − not_before)` when the SIMD pipeline is one cadence
    /// of `d`: full, its completions `d` apart with the newest at the SIMD
    /// horizon. The pipeline is then a function of the two.
    fn pipe_cadence(&self) -> Option<(u64, u64)> {
        let q = &self.inflight;
        let d = q.back()?.wrapping_sub(*q.get(q.len().checked_sub(2)?)?);
        let full = q.len() >= self.pipeline_depth && q.back() == Some(&self.simd_free);
        let even = q.iter().zip(q.iter().skip(1)).all(|(a, b)| b.wrapping_sub(*a) == d);
        (full && even && d > 0).then(|| (d, self.simd_free.wrapping_sub(self.not_before)))
    }

    /// The pulls back of every window entry after `n` more pulls whose
    /// keys repeat `pattern` (the key of the pull `b` back is
    /// `pattern[b mod len]`), if the window then carries the same key
    /// sequence: it holds the youngest pulls of each of its keys, as many
    /// as now, in pull order. (While no AGEN stamp decides a probe,
    /// entries of one key probe alike, so the oldest issues first.)
    fn rebuilt_backs(&self, n: u64, pattern: &[u64]) -> Option<[u64; 8]> {
        let w = self.window.len();
        let mut held = [(0, 0); 8];
        for (h, e) in held.iter_mut().zip(&self.window) {
            *h = (e.key, self.back(e));
        }
        let mut chosen = [(0, 0); 8];
        let mut m = 0;
        for (i, &(key, _)) in held[..w].iter().enumerate() {
            if held[..i].iter().any(|h| h.0 == key) {
                continue;
            }
            let need = held[..w].iter().filter(|h| h.0 == key).count();
            let period = pattern.len() as u64;
            let fresh = (0..n.min(8 * period)).filter(|b| pattern[(b % period) as usize] == key);
            // Held entries of the key, youngest first (the window is in
            // pull order).
            let older = held[..w].iter().rev().filter(|h| h.0 == key).map(|h| h.1 + n);
            for back in fresh.chain(older).take(need) {
                chosen[m] = (back, key);
                m += 1;
            }
        }
        chosen[..w].sort_unstable_by_key(|c| std::cmp::Reverse(c.0));
        let same = chosen[..w].iter().zip(&held[..w]).all(|(c, h)| c.1 == h.0);
        same.then(|| chosen.map(|c| c.0))
    }

    /// The single-key stretch jump: the run stream's check of a due round
    /// promise, just after `cur` issued at `bt` in a steady row-hit run
    /// whose cadence floor is `step`.
    ///
    /// At an A-walk span boundary where the source promises `P` more spans
    /// on the one window key that `cur` and every entry of the full reorder
    /// window carry, each of the `P·len` promised blocks is a row hit on
    /// the open row, and each issue pops the window front and pulls one
    /// block. If the checks below pass, each issues exactly `d` after the
    /// previous CAS — [`UnitCursor::jump_len`]'s max/plus shift argument
    /// over a promised stretch instead of one admitted run — so the source
    /// skips the spans and the run stream commits them as one
    /// [`RunReply::Jump`]. It is the one-key case of
    /// [`UnitCursor::round_jump`]: with one key, the memory state a block
    /// reads is the last CAS's alone, so no history is needed.
    ///
    /// * the unit is [`UnitCursor::settled`] at the bound `d`: every later
    ///   CAS is at least `d` past the one before it;
    /// * the SIMD pipeline does not change the cadence: either `d` is the
    ///   floor and no completion retires later than the issue that needs
    ///   its slot, which caps the stretch where the oldest would first
    ///   bind ([`UnitCursor::simd_room`]); or the pipeline is one cadence
    ///   of `d` ([`UnitCursor::simd_cadence`], a SIMD-bound stream whose
    ///   every issue waits on exactly its oldest completion).
    ///
    /// The unit then moves as [`UnitCursor::jump_rounds`] says. Run
    /// admission and fallback counts grow `P` times by what each span
    /// added since an earlier mark whose rounds up to here all repeat the
    /// run hints of the promised spans: a boundary of the same promise, or
    /// the end of the stretch jumped just before, when the span right
    /// after it opened this one ([`RoundHint::next`]; the jump marks it,
    /// and waits until every entry of the old key has issued). Otherwise a
    /// stretch's first check only marks it. A window still holding blocks
    /// of another key waits until they have issued; a round with several
    /// keys ends the run instead.
    fn stretch_due(
        &mut self,
        cur: &WinEntry,
        bt: stepstone_dram::BlockTiming,
        step: u64,
        tp: &TimingParams,
    ) -> Due {
        if self.peeked.is_some() {
            self.checks.no_promise += 1;
            self.round_wait = 1;
            return Due::Stream;
        }
        let hint = match self.steps.round_hint(1) {
            // The followers of an admitted run pull nothing from the
            // source, so they add to its wait.
            Err(wait) => {
                self.checks.no_promise += 1;
                self.round_wait = wait.saturating_add(self.run_left);
                return Due::Stream;
            }
            // Ask again once the admitted run is in the window.
            Ok(_) if self.run_left > 0 => {
                self.checks.no_promise += 1;
                self.round_wait = self.run_left;
                return Due::Stream;
            }
            Ok(hint) => hint,
        };
        let Some(key) = self.round_key(hint.width) else {
            self.checks.failed += 1;
            return Due::Outer;
        };
        let since = self.mark_boundary(hint.done, hint.done + hint.rounds, false, None);
        // Issues until `cur` and every window entry carry the round's key
        // (the stretch's blocks are the window's newest), rounded up to the
        // next span boundary.
        let foreign = match self.window.iter().rposition(|e| e.key != key) {
            Some(i) => i as u64 + 2,
            None => (cur.key != key) as u64,
        };
        self.round_wait = foreign.div_ceil(hint.width).max(1) * hint.width;
        let Some(marked) = since else {
            self.checks.first_mark += 1;
            return Due::Stream;
        };
        if foreign > 0 {
            self.checks.foreign += 1;
            return Due::Stream;
        }
        let cas = bt.cas_at;
        let d = self.cadence(cas, step);
        let data = if cur.write { tp.t_cwl } else { tp.t_cl } + tp.t_bl;
        let room = if !self.settled(cas, d, hint.max_iters) {
            None
        } else if d == step {
            Some(self.simd_room(cas, d, data))
        } else if self.simd_cadence(bt.data_end, d) {
            Some(u64::MAX)
        } else {
            None
        };
        let Some(room) = room else {
            self.checks.failed += 1;
            return Due::Stream;
        };
        let rounds = hint.rounds.min(room / hint.width);
        if rounds == 0 {
            self.checks.no_room += 1;
            return Due::Stream;
        }
        let Some(backs) = self.rebuilt_backs(rounds * hint.width, &[key]) else {
            self.checks.failed += 1;
            return Due::Stream;
        };
        self.checks.jumped += 1;
        let n = self.jump_rounds(cas, d, data, rounds, &hint, &marked, &backs);
        self.recent_len = 0;
        if rounds == hint.rounds && hint.next > 0 {
            // The round right after the stretch opens the next one, whose
            // rounds all repeat its run hints, so this boundary marks it.
            // It can first jump at the first of its boundaries by which
            // every entry of this stretch has issued (the full window and
            // `cur`, front first), if its promise reaches that far.
            let done = hint.done + rounds;
            let spans = (self.window_cap as u64 + 1).div_ceil(hint.after).max(1);
            if spans <= 1 + hint.next {
                self.mark_boundary(done, done + 1 + hint.next, false, None);
                self.round_wait = spans * hint.after + 1;
            }
        }
        Due::Jump(n, d)
    }

    /// The promise check at a round boundary outside the run stream, for
    /// a kernel's multi-key A-walk stretch (StepStone-DV) and a transfer's
    /// round-robin rounds alike. Returns whether it jumped.
    ///
    /// A row hit reads its bank's next-CAS time, its datapath's CAS,
    /// turnaround and bus stamps (on the channel port also the rank that
    /// last drove the bus, for tRTRS) and the unit's own times, and writes
    /// its bank's next-PRE time and those stamps. The unit is alone on its
    /// banks and datapath (a kernel on the fast path) or on its channel (a
    /// transfer). So when its last `n` issues, `j` rounds of `w` (from
    /// [`UnitCursor::recent`]), repeat the `n` before them issue for issue
    /// — the same window key, each CAS the same `D` later — in one
    /// direction with one key per bank ([`UnitCursor::ring_period`]),
    /// every stamp a later row hit of those keys reads is either the last
    /// write of one of those issues (each bank group's and rank's last
    /// CAS, the path's last CAS, bus end and bus rank) or older than its
    /// key's last issue, which it bound no later than it issued, so it
    /// binds no later issue. The rows stay open: each key's bank saw no
    /// other row since the key's issue a period earlier, so every issue of
    /// the last period hit, and every promised block hits. The memory such
    /// a block reads is the memory a period earlier, `D` later.
    ///
    /// If the unit's own state is too, the per-block transition — the
    /// FR-FCFS probe scan, `issue_nb`, the row hit, `finish_block`, one
    /// pull — is max/plus and commutes with the shift, and the promised
    /// rounds repeat the pulls' keys, so every further period repeats the
    /// last one `D` later:
    ///
    /// * a transfer (no SIMD pipeline, launch gate or half-used run hint)
    ///   checks at a boundary promising at least [`MIN_TRANSFER_ROUNDS`]
    ///   rounds and looks for the shortest period `j ≤`
    ///   [`MAX_PERIOD_ROUNDS`] at which the marked boundary `j` rounds
    ///   earlier stood where it stands, `D` earlier: window keys, pulls
    ///   back and AGEN stamps, AGEN clock, clock and not-before
    ///   ([`Stand::is_shift_of`]), so a host gap shifts too. It jumps
    ///   ⌊promise / j⌋ periods ([`UnitCursor::jump_periods`]);
    /// * a kernel's round is one span (`j = 1`), whose issues must follow
    ///   one cadence `d` (`D = w·d`), and the unit must be settled enough
    ///   for any number of rounds to jump ([`UnitCursor::kernel_round`]).
    ///
    /// The memory takes the periods' row hits in one closed-form commit
    /// ([`TimingState::commit_round_hits`]) of the last period's issues,
    /// each key at its last CAS plus the periods' shift. No snapshot of
    /// the memory is taken.
    #[inline(never)]
    fn round_jump(&mut self, ts: &mut TimingState, mapping: &XorMapping) -> bool {
        if self.peeked.is_some() || self.run_left > 0 {
            self.checks.no_promise += 1;
            return false;
        }
        // A kernel's one-round promise cannot jump: a stretch's first
        // boundary only marks it.
        let floor = if self.fast { 2 } else { MIN_TRANSFER_ROUNDS };
        let hint = match self.steps.round_hint(floor) {
            Ok(hint) => hint,
            Err(wait) => {
                self.checks.no_promise += 1;
                self.round_wait = wait;
                return false;
            }
        };
        if self.recent.is_empty() {
            // A transfer's ring starts with its first promise, a kernel's
            // with its first round of several keys: the window's newest
            // entries are the round just pulled.
            let mut round = self.window.iter().rev().take(hint.width as usize).map(|e| e.key);
            let first = round.next();
            if !self.fast || round.any(|k| Some(k) != first) {
                self.recent = vec![NO_ISSUE; RECENT];
            }
        }
        let jumped = if self.fast {
            self.kernel_round(ts, mapping, &hint)
        } else {
            self.transfer_periods(&hint)
        };
        let Some((n, shift, periods)) = jumped else { return false };
        self.checks.jumped += 1;
        let kind = if self.issued(0).key & 1 == 1 { CasKind::Write } else { CasKind::Read };
        let (ring, at) = (&self.recent, self.recent_at);
        let period = &mut self.period.as_mut().expect("periodic grant").period;
        period.clear();
        let issues = (0..n).rev().map(|p| ring[(at + RECENT - p) % RECENT]);
        period.extend(issues.map(|i| (i.coord, i.cas)));
        ts.commit_round_hits(period, kind, self.port, shift, periods);
        self.recent_len = 0;
        true
    }

    /// The issue `p` issues before the latest recorded one (0 = the
    /// latest).
    fn issued(&self, p: usize) -> Issued {
        self.recent[(self.recent_at + RECENT - p) % RECENT]
    }

    /// The issue ring's period test: whether the newest `n` recorded
    /// issues repeat the `n` before them issue for issue — the same window
    /// key, each CAS the same `D` later — in one direction with one key per
    /// bank. Returns `D`.
    fn ring_period(&self, n: usize) -> Option<u64> {
        if 2 * n > self.recent_len {
            return None;
        }
        let key = |p: usize| self.issued(p).key;
        let d = self.issued(0).cas.wrapping_sub(self.issued(n).cas);
        let repeats = (0..n).all(|p| {
            let (a, b) = (self.issued(p), self.issued(p + n));
            a.key == b.key && a.cas.wrapping_sub(b.cas) == d
        });
        // Each issue's key against the newer ones back to its own newer
        // issue, if any: every pair of distinct keys meets once.
        let clash = |a: u64, b: u64| a >> 33 == b >> 33 || (a ^ b) & 1 != 0;
        let one_per_bank = || {
            (0..n).all(|p| {
                let k = key(p);
                (0..p).rev().map(key).take_while(|&o| o != k).all(|o| !clash(o, k))
            })
        };
        if !repeats || !one_per_bank() {
            return None;
        }
        debug_assert!(
            (0..n).all(|p| self.issued(p).hit),
            "unit '{}': a key's bank changed rows within a period",
            self.label
        );
        Some(d)
    }

    /// The transfer half of [`UnitCursor::round_jump`]: mark the boundary,
    /// find the shortest period the ring and the marks verify, and jump
    /// ⌊promise / j⌋ of them. Returns the period's issues, its shift `D`
    /// and the periods jumped.
    fn transfer_periods(&mut self, hint: &RoundHint) -> Option<(usize, u64, u64)> {
        self.round_wait = hint.width;
        self.mark_boundary(hint.done, hint.done + hint.rounds, false, None);
        // Nothing but the issue state the marks record can decide an issue:
        // no SIMD pipeline, launch gate or half-used run hint.
        let free = self.inflight.is_empty()
            && !self.pending_kernel_start
            && self.hint_left == 0
            && self.window.iter().all(|e| !e.compute);
        let mut stand = Stand {
            len: self.window.len(),
            times: [self.gen_clock, self.clock, self.not_before],
            ..Stand::default()
        };
        for (slot, e) in stand.window.iter_mut().zip(&self.window) {
            *slot = (self.back(e), e.gen_ready);
        }
        let tr = self.period.as_mut().expect("periodic grant");
        tr.stands[tr.at] = stand;
        let tr = self.period.as_ref().expect("periodic grant");
        let now = tr.now().expect("just marked");
        let (mut opened, mut found) = (true, None);
        for j in 1..=MAX_PERIOD_ROUNDS {
            let Some((then, stood)) = tr.before(j) else { continue };
            opened = false;
            if !free || self.launch_avail > stood.times[2] || now.window != then.window {
                continue;
            }
            let Some(d) = self.ring_period(j as usize * hint.width as usize) else { continue };
            if stand.is_shift_of(stood, d) {
                found = Some((j, d, *then));
                break;
            }
        }
        let Some((j, d, then)) = found else {
            if opened {
                self.checks.first_mark += 1;
            } else {
                self.checks.failed += 1;
            }
            return None;
        };
        let k = hint.rounds / j;
        self.jump_periods(j, d, k, hint, &then);
        Some(((j * hint.width) as usize, d, k))
    }

    /// Account `k` periods of `j` promised rounds issued in closed form,
    /// each repeating the last period `d` cycles later (see
    /// [`UnitCursor::round_jump`]), with `marked` the mark `j` rounds
    /// back: the source skips them; every window entry keeps its key and
    /// pulls back; its AGEN stamp, the AGEN clock, not-before and the
    /// clock move `k·d`, the clock's cycles going to the rounds'
    /// category; scratchpad accesses grow per block, the AGEN sum, maximum
    /// and bubbles come from the source ([`Skipped`]), and run admission
    /// and fallback counts grow `k` times by what the period added.
    fn jump_periods(&mut self, j: u64, d: u64, k: u64, hint: &RoundHint, marked: &Mark) {
        let skipped = self.steps.skip_rounds(k * j, self.burst_window);
        let n = skipped.blocks;
        debug_assert_eq!(n, k * j * hint.width, "a promised period skips whole rounds");
        let kd = k * d;
        self.pulls += n;
        for e in &mut self.window {
            e.seq = e.seq.wrapping_add(n as u32);
            e.gen_ready += kd;
        }
        self.gen_clock += kd;
        self.not_before += kd;
        let cat = self.window.front().expect("a full window").cat;
        self.cat_cycles[cat.index()] += kd;
        self.clock += kd;
        // The clock is the latest data end.
        self.end_time = self.end_time.max(self.clock);
        self.scratch_accesses += n;
        self.agen_iter_sum += skipped.iters;
        self.agen_iter_max = self.agen_iter_max.max(skipped.max_iters);
        self.agen_bubbles += skipped.bubbles;
        self.run_stats = self.run_stats.extrapolated(&marked.run, k * j, j);
        self.jumped_periods += k;
        self.jumped_blocks += n;
        // Due again at once: the promise may go on past the periods.
        self.round_wait = 1;
        debug_assert!(self.window_ordered(), "unit '{}': window stamps out of order", self.label);
    }

    /// The kernel half of [`UnitCursor::round_jump`] (StepStone-DV), at a
    /// span boundary whose last CAS is the unit's not-before `c`. Returns
    /// the round's issues, its shift `w·d` and the rounds jumped.
    ///
    /// The round is one span of `w` issues, and the last two must follow
    /// one cadence `d`, hit `K ≥ 2` keys and carry the same keys in the
    /// window as one span earlier. Both boundaries, this one and the
    /// marked one a span earlier, must be [`UnitCursor::settled`] at
    /// `g = tCCDS` (every CAS on a datapath is that far past the one
    /// before it), so that neither the AGEN stamps, the launch gate nor a
    /// host gap decide an issue. Then the unit's state here is its state
    /// there shifted by `w·d`: the window and the memory it reads are, the
    /// launch gate and the AGEN decide nothing, and the SIMD pipeline
    /// either decides nothing or is the same cadence of `d` at both
    /// ([`UnitCursor::pipe_cadence`]). When `d` is the floor (`tCCDS`, or
    /// `cas_step()` for keys of one bank group) no issue of the last round
    /// could have been delayed by the pipeline, and
    /// [`UnitCursor::simd_room`] caps the stretch where it would first
    /// bind. The unit moves as [`UnitCursor::jump_rounds`] says.
    ///
    /// A boundary whose window still holds entries of keys the span just
    /// pulled does not carry records no mark: the next boundary cannot
    /// jump, and the check waits for the one before the first that can
    /// ([`UnitCursor::round_ring_wait`]).
    fn kernel_round(
        &mut self,
        ts: &TimingState,
        mapping: &XorMapping,
        hint: &RoundHint,
    ) -> Option<(usize, u64, u64)> {
        self.round_wait = self.round_ring_wait(hint.width);
        if self.round_wait > hint.width {
            // The next boundary cannot jump, so this one needs no mark.
            self.checks.foreign += 1;
            return None;
        }
        let tp = ts.config().timing;
        let c = self.not_before;
        let settled = self.settled(c, tp.t_ccds, hint.max_iters);
        let slow = self.compute_cycles_per_block > tp.t_ccds;
        let pipe = if slow { self.pipe_cadence() } else { None };
        let end = hint.done + hint.rounds;
        let Some(marked) = self.mark_boundary(hint.done, end, settled, pipe) else {
            self.checks.first_mark += 1;
            return None;
        };
        let w = hint.width as usize;
        let ring = settled && marked.settled && marked.done + 1 == hint.done;
        if !ring || self.ring_period(w).is_none() {
            self.checks.failed += 1;
            return None;
        }
        let d = c.wrapping_sub(self.issued(1).cas);
        let gap = |p: usize| self.issued(p).cas.wrapping_sub(self.issued(p + 1).cas);
        if self.issued(0).cas != c || (0..2 * w - 1).any(|p| gap(p) != d) {
            self.checks.failed += 1;
            return None;
        }
        // The round's keys: those of its issues.
        let key = |p: usize| self.issued(p).key;
        let k0 = key(0);
        let now = self.period.as_ref().and_then(|tr| tr.now()).expect("just marked");
        if self.window.iter().any(|e| (0..w).all(|p| key(p) != e.key)) {
            self.checks.foreign += 1;
            return None;
        }
        if (0..w).all(|p| key(p) == k0) || now.window != marked.window {
            self.checks.failed += 1;
            return None;
        }
        // The keys of the last span's pulls, by pulls back: each is still
        // in the window or issued in the last round.
        let mut pattern = [u64::MAX; 8];
        let held = self.window.iter().map(|e| (e.key, e.seq));
        let last = (0..w).map(|p| (key(p), self.issued(p).seq));
        for (k, seq) in held.chain(last) {
            let back = (self.pulls as u32).wrapping_sub(seq).wrapping_sub(1) as usize;
            if back < w {
                pattern[back] = k;
            }
        }
        if pattern[..w].contains(&u64::MAX) {
            self.checks.failed += 1;
            return None;
        }
        let one_group = (0..w).all(|p| (key(p) ^ k0) & scope_mask(mapping) == 0);
        let floor = if one_group { ts.cas_step() } else { tp.t_ccds };
        let write = k0 & 1 == 1;
        let data = if write { tp.t_cwl } else { tp.t_cl } + tp.t_bl;
        let room = if d == floor {
            self.simd_room(c, d, data)
        } else if d > floor && pipe.is_some_and(|(pd, _)| pd == d) && pipe == marked.pipe {
            u64::MAX
        } else {
            self.checks.failed += 1;
            return None;
        };
        let rounds = hint.rounds.min(room / hint.width);
        if rounds == 0 {
            self.checks.no_room += 1;
            return None;
        }
        let Some(backs) = self.rebuilt_backs(rounds * hint.width, &pattern[..w]) else {
            self.checks.failed += 1;
            return None;
        };
        self.jump_rounds(c, d, data, rounds, hint, &marked, &backs);
        Some((w, w as u64 * d, rounds))
    }

    /// Issues from a span boundary of `width` pulls to the boundary before
    /// the first at which the issue ring can show two repeating rounds of
    /// the span's keys, where the multi-key check must next mark. Every
    /// promised span repeats the keys of the span just pulled (the
    /// window's newest `width` entries), so each older entry of another
    /// key still has to issue, and the ring's last two rounds must all
    /// issue after the last of them: with `f` such entries, not before
    /// `f + 2·width` issues. With none, the next boundary.
    fn round_ring_wait(&self, width: u64) -> u64 {
        let w = (width as usize).min(self.window.len());
        let older = self.window.iter().take(self.window.len() - w);
        let round = || self.window.iter().skip(self.window.len() - w);
        let f = older.filter(|e| !round().any(|r| r.key == e.key)).count() as u64;
        if f == 0 {
            return width;
        }
        ((f + 2 * width).div_ceil(width) - 1) * width
    }

    /// Account `rounds` promised rounds of `hint.width` pulls issued in
    /// closed form after a CAS at `cas`, each block's CAS `d` after the
    /// previous and its data ending `data` after its CAS, exactly as the
    /// per-block path would (see [`UnitCursor::round_jump`] and
    /// [`UnitCursor::stretch_due`] for why every block issues so), with
    /// `marked` the mark of an earlier boundary of the promise and `backs`
    /// the window's pulls back afterwards
    /// ([`UnitCursor::rebuilt_backs`]). Returns the number of blocks.
    ///
    /// * the `m`-th block's CAS is `cas + m·d`; not-before, the clock, the
    ///   category cycles and the end time run to the last one;
    /// * every window entry keeps its key. One pulled within the jump
    ///   followed the issue that many issues before the last, so it is
    ///   stamped with that CAS plus its charge: one iteration, or for a
    ///   span's first block the head charge the source reports
    ///   ([`Skipped::heads`]); an older one is the entry of its key pulled
    ///   that many pulls later. The AGEN clock is the newest stamp;
    /// * the SIMD completions follow [`UnitCursor::simd_done`], and the
    ///   pipeline keeps its newest `depth`;
    /// * SIMD ops and scratchpad accesses grow per block; AGEN sum, maximum
    ///   and bubbles come from the source ([`Skipped`]);
    /// * run admission and fallback counts grow `rounds` times by what each
    ///   round added since `marked`.
    #[allow(clippy::too_many_arguments)]
    fn jump_rounds(
        &mut self,
        cas: u64,
        d: u64,
        data: u64,
        rounds: u64,
        hint: &RoundHint,
        marked: &Mark,
        backs: &[u64; 8],
    ) -> u64 {
        let n = rounds * hint.width;
        let skipped = self.steps.skip_rounds(rounds, self.burst_window);
        debug_assert_eq!(skipped.blocks, n, "a promised stretch skips whole spans");
        let last = cas + n * d;
        let w = self.window.len();
        let mut held = [(0, 0, 0); 8];
        for (h, e) in held.iter_mut().zip(&self.window) {
            *h = (e.key, self.back(e), e.gen_ready);
        }
        self.pulls += n;
        for (i, &back) in backs[..w].iter().enumerate() {
            let key = held[i].0;
            let stamp = match back.checked_sub(n) {
                Some(b) => held[..w].iter().find(|h| (h.0, h.1) == (key, b)).expect("held").2,
                None if back % hint.width + 1 == hint.width => {
                    last - back * d + skipped.heads[(back / hint.width) as usize] as u64
                }
                None => last - back * d + 1,
            };
            let e = &mut self.window[i];
            e.seq = (self.pulls - 1 - back) as u32;
            e.gen_ready = stamp;
        }
        self.gen_clock = self.window.back().expect("a full window").gen_ready;
        self.not_before = last;
        // Each issue adds its block's completion and, once the pipeline is
        // full, retires the oldest.
        let done = self.simd_done(cas, d, data);
        let inflight = self.inflight.len() as u64;
        let retired = (inflight + n).saturating_sub(self.pipeline_depth as u64);
        self.inflight.drain(..retired.min(inflight) as usize);
        self.inflight.extend((1 + retired.saturating_sub(inflight)..=n).map(&done));
        self.simd_free = done(n);
        self.simd_ops += n * self.simd_ops_per_block;
        self.scratch_accesses += 2 * n;
        let clock = self.clock.max(last);
        let cat = self.window.front().expect("a full window").cat;
        self.cat_cycles[cat.index()] += clock - self.clock;
        self.clock = clock;
        self.end_time = self.end_time.max(last + data).max(self.simd_free);
        self.agen_iter_sum += skipped.iters;
        self.agen_iter_max = self.agen_iter_max.max(skipped.max_iters);
        self.agen_bubbles += skipped.bubbles;
        self.run_stats = self.run_stats.extrapolated(&marked.run, rounds, hint.done - marked.done);
        self.stretch_blocks += n;
        // A promise jumped only in part is due again right away (the mark
        // stays at the boundary before the jump, whose promise covered
        // it); one used up is due where the source said the next may open.
        // The wait counts from the next issue, so it includes the check
        // that follows the jump at the same source position.
        self.round_wait = if rounds == hint.rounds { hint.after + 1 } else { 1 };
        debug_assert!(self.window_ordered(), "unit '{}': window stamps out of order", self.label);
        n
    }

    /// Charge the AGEN for a pull costing `iters`: it starts once the AGEN
    /// is free and the last issue is done.
    #[inline]
    fn charge_agen(&mut self, iters: u64) {
        self.gen_clock = self.gen_clock.max(self.not_before) + iters;
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
    fn advance_one(
        &mut self,
        ts: &mut TimingState,
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
        // sequencer's FR-FCFS-like choice; see [`fr_fcfs_pick`]). A window
        // confined to one bank group and direction whose front is a row
        // hit needs no probes at all: the front entry provably wins (see
        // [`UnitCursor::window_scope_uniform`]).
        let base_nb = self.not_before.max(self.launch_avail);
        debug_assert_eq!(
            self.win_uniform,
            self.window_scope_uniform(scope_mask(mapping)),
            "incremental uniformity flag out of sync"
        );
        let front_wins = self.fast
            && self.win_uniform
            && self.window.front().is_some_and(|e| ts.row_open(&e.coord));
        let best_ix = if front_wins { 0 } else { fr_fcfs_pick(ts, &self.window, self.port, base_nb) };
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
        if !self.recent.is_empty() {
            self.recent_at = (self.recent_at + 1) % RECENT;
            let hit = bt.row_hit;
            self.recent[self.recent_at] =
                Issued { key: e.key, seq: e.seq, hit, cas: bt.cas_at, coord: e.coord };
            self.recent_len = (self.recent_len + 1).min(RECENT);
        }
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
    /// cadence of [`TimingState::access_run_stream`] is exact, and same-row
    /// CAS commands read and write only the unit's own bank and datapath
    /// stamps — so commits from other (lagging) units cannot change them,
    /// and batch-issuing the whole run commutes with the per-block
    /// interleave. Everything that touches shared state — PRE/ACT (rank
    /// tRRD/tFAW windows), refresh, kernel launches on the command bus,
    /// FR-FCFS probes of a mixed window — still waits for its exact
    /// scheduler turn, so results stay bit-identical to the per-block path.
    ///
    /// Under the promise grant, the source's round promise is checked
    /// whenever it is due: `desired`, the batch loop or the run stream has
    /// just refilled the window, so at a round boundary the source and the
    /// window hold the state a jump starts from. Inside the run stream a
    /// single-key A-walk stretch jumps on the spot (see
    /// `UnitCursor::stretch_due`); any other round ends the run, and the
    /// batch loop checks it (see `UnitCursor::jump_due`). Every issue is
    /// followed by one pull, so the wait counts issues.
    #[inline]
    pub fn advance_batch(
        &mut self,
        ts: &mut TimingState,
        bus: &mut CommandBus,
        mapping: &XorMapping,
    ) {
        if self.jump_due(ts, mapping) {
            return;
        }
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
            // The previous issue's promise check (a unit leaving above
            // takes it at the top of its next turn).
            if self.jump_due(ts, mapping) {
                continue;
            }
            let e0 = self.take_entry(0, scope);
            let kind = if e0.write { CasKind::Write } else { CasKind::Read };
            let nb = self.issue_nb(e0.gen_ready);
            let mut cur = e0;
            let (step, tp) = (ts.cas_step(), ts.config().timing);
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
                            self.round_wait = self.round_wait.saturating_sub(k);
                            jumped = true;
                            return RunReply::Jump { count: k, d };
                        }
                        self.charge_agen(1);
                        self.run_left -= 1;
                        self.round_wait = self.round_wait.saturating_sub(1);
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
                // A due promise check: a single-key A-walk stretch jumps
                // right here; any other round ends the run, and the outer
                // loop checks it on committed memory state.
                if self.period.is_some() {
                    if self.round_wait > 1 {
                        self.round_wait -= 1;
                    } else {
                        match self.stretch_due(&cur, bt, step, &tp) {
                            Due::Jump(count, d) => {
                                jumped = true;
                                return RunReply::Jump { count, d };
                            }
                            Due::Outer => return RunReply::End,
                            Due::Stream => {}
                        }
                    }
                }
                cur = self.take_entry(0, scope);
                let nb = self.issue_nb(cur.gen_ready);
                RunReply::Block(cur.coord, nb)
            });
        }
    }

    /// Count one issue against the wait for the source's next round
    /// promise, and check the promise when it is due
    /// ([`UnitCursor::round_jump`]); returns whether it jumped.
    #[inline]
    fn jump_due(&mut self, ts: &mut TimingState, mapping: &XorMapping) -> bool {
        if self.period.is_none() {
            return false;
        }
        self.round_wait = self.round_wait.saturating_sub(1);
        self.round_wait == 0 && self.round_jump(ts, mapping)
    }

    /// Pulls since window entry `e` was pulled (0 = the latest pull).
    #[inline]
    fn back(&self, e: &WinEntry) -> u64 {
        (self.pulls as u32).wrapping_sub(e.seq).wrapping_sub(1) as u64
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

/// A window entry's same-run identity: (bank index, row, direction).
#[inline]
fn window_key(mapping: &XorMapping, c: &DramCoord, write: bool) -> u64 {
    (c.bank_index(mapping.geometry()) as u64) << 33 | (c.row as u64) << 1 | write as u64
}

/// Key bits identifying (channel, rank, bank group, direction): everything
/// in `WinEntry::key` except the bank-within-group and row fields.
#[inline]
fn scope_mask(mapping: &XorMapping) -> u64 {
    (!0u64 << (33 + mapping.geometry().bank_bits())) | 1
}

/// The FR-FCFS choice of a window: the first entry whose data would
/// start earliest, each probed at its not-before (`base_nb` or its AGEN
/// stamp). `TimingState::probe` ignores the column, and for one (bank,
/// row, direction) key it does not decrease as the not-before grows: a row
/// hit's CAS, a PRE/ACT chain and a pending refresh's ACT all start no
/// earlier. A later entry needs a strictly earlier time to win. So once a
/// key is probed at some not-before, no later entry of that key with a not
/// earlier one can win, and is skipped (window stamps are nondecreasing,
/// so every key is probed once).
fn fr_fcfs_pick(
    ts: &TimingState,
    window: &VecDeque<WinEntry>,
    port: Port,
    base_nb: u64,
) -> usize {
    let (mut best_ix, mut best_t) = (0, u64::MAX);
    let mut probed = [(0u64, 0u64); 8];
    let mut n = 0;
    for (i, e) in window.iter().enumerate() {
        let nb = base_nb.max(e.gen_ready);
        if probed[..n].iter().any(|&(k, p)| k == e.key && p <= nb) {
            continue;
        }
        let kind = if e.write { CasKind::Write } else { CasKind::Read };
        let t = ts.probe(e.coord, kind, port, nb);
        if n < probed.len() {
            probed[n] = (e.key, nb);
            n += 1;
        }
        if t < best_t {
            best_t = t;
            best_ix = i;
        }
    }
    best_ix
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

    fn advance(
        &mut self,
        ts: &mut TimingState,
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
    #[inline]
    pub fn drain_until(
        &mut self,
        ts: &mut TimingState,
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
/// alone: the span fast path and run-granular admission apply only with no
/// colocated traffic, no refresh, no command trace, and every unit
/// [`UnitCursor::exclusive`].
/// Otherwise every block goes through the exact per-block FR-FCFS probe
/// scan. Both paths produce identical results.
#[inline]
pub fn run_phase(
    ts: &mut TimingState,
    bus: &mut CommandBus,
    mapping: &XorMapping,
    units: &mut [UnitCursor],
    traffic: Option<&mut TrafficCursor>,
) -> u64 {
    let mut refs: Vec<&mut UnitCursor> = units.iter_mut().collect();
    run_units(ts, bus, mapping, &mut refs, traffic)
}

/// The serial phase engine over a pre-selected set of units.
fn run_units(
    ts: &mut TimingState,
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
    let fast = traffic.is_none()
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
    // The promise checks (see `UnitCursor::round_jump`) read the unit's
    // own issues for the memory state its next rounds read, so that state
    // must be moved by no one else: no traffic, refresh, or trace, and a
    // kernel on the fast path alone on its banks and datapath, any other
    // unit (a transfer) alone on its channel. A subset remap folds address
    // parities into the keys, so the source's promise would not name the
    // keys issued. SIMD-bound kernels take the stretch jumps too.
    let quiet = traffic.is_none() && !ts.config().refresh && !ts.trace_enabled();
    let channels: Vec<u32> = units.iter().map(|u| u.channel).collect();
    for u in units.iter_mut() {
        u.fast = fast;
        u.fallback_cause = cause;
        let alone = channels.iter().filter(|&&c| c == u.channel).count() == 1;
        let granted = u.subset.is_none() && (fast || quiet && alone);
        u.period = granted.then(Box::default);
        u.round_wait = 0;
        u.recent.clear();
        u.recent_len = 0;
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
// `#[inline]` here and on the other engine entry points: each calling crate
// compiles its own copy of the engine loop. With one shared copy, LLVM
// inlined the per-block helpers differently and simbench ran 3–6% slower.
#[inline]
pub fn run_phase_auto(
    ts: &mut TimingState,
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
    let results: Vec<(u32, TimingState, CommandBus, u64)> = groups
        .into_par_iter()
        .map(|(ch, mut group)| {
            let mut lts = ts.clone();
            lts.stats = DramStats::default();
            let mut lbus = bus.clone();
            let end = run_units(&mut lts, &mut lbus, mapping, &mut group, None);
            (ch, lts, lbus, end)
        })
        .collect();
    let mut end = 0;
    for (ch, lts, lbus, group_end) in &results {
        ts.adopt_channel(lts, *ch);
        ts.stats.merge(&lts.stats);
        bus.adopt_channel(lbus, *ch as usize);
        end = end.max(*group_end);
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{transfer_cursors, GemmContext, KernelStream};
    use crate::{GemmSpec, SimOptions, SystemConfig};
    use stepstone_addr::PimLevel;
    use stepstone_addr::{mapping_by_id, MappingId};
    use proptest::prelude::*;
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        // `simd_room` against a per-block replay of the SIMD recurrence
        // (`issue_nb` retires the oldest completion of a full pipeline,
        // `finish_block` pushes the block's): over random pipelines,
        // compute times, cadences and data latencies, no completion
        // retired within the room is later than the issue that retires it,
        // and when the room is finite, the next block's is.
        #[test]
        fn simd_room_matches_a_per_block_replay(
            depth in 1usize..24,
            held in 0usize..24,
            seed in any::<u64>(),
            compute in 1u64..24,
            d in 1u64..12,
            data in 1u64..40,
        ) {
            let mut u = UnitCursor::new(
                "t", 0, Port::Channel, std::iter::empty(), 0, compute, 0, depth, 0, 0, 4, None,
            );
            let cas = 1000;
            let mut state = seed;
            let mut next = |below: u64| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) % below
            };
            let mut t = cas - 60 + next(120);
            for _ in 0..held.min(depth) {
                t += next(2 * compute + 1);
                u.inflight.push_back(t);
            }
            u.simd_free = u.inflight.back().copied().unwrap_or(cas - 60 + next(120));
            let room = u.simd_room(cas, d, data);
            let (mut q, mut free) = (u.inflight.clone(), u.simd_free);
            for t in 1..=room.saturating_add(1).min(4096) {
                let issue = cas + t * d;
                let retired = if q.len() >= depth { q.pop_front() } else { None };
                let binds = retired.is_some_and(|r| r > issue);
                prop_assert_eq!(binds, t > room, "issue {} of room {}", t, room);
                free = free.max(issue + data) + compute;
                q.push_back(free);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // `fr_fcfs_pick`, which probes each key once, against the full
        // scan it prunes (probe every entry, keep the first least time):
        // over random windows of channel-0 blocks (few rows, so keys
        // repeat; both directions; nondecreasing AGEN stamps) and random
        // timing states left by earlier accesses, with refresh on and off,
        // both choose the same entry.
        #[test]
        fn fr_fcfs_pick_matches_the_full_scan(
            refresh in any::<bool>(),
            seed in any::<u64>(),
            len in 1usize..9,
            prior in 0usize..16,
        ) {
            let mapping = mapping_by_id(MappingId::Skylake);
            let cfg = DramConfig { refresh, ..DramConfig::default() };
            let g = *mapping.geometry();
            let mut state = seed;
            let mut next = |below: u64| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) % below
            };
            let coord = |next: &mut dyn FnMut(u64) -> u64| DramCoord {
                channel: 0,
                rank: next(g.ranks_per_channel as u64) as u32,
                bankgroup: next(g.bankgroups_per_rank as u64) as u32,
                bank: next(2) as u32,
                row: next(3) as u32,
                col: 0,
            };
            let mut ts = TimingState::new(cfg);
            let mut t = next(cfg.timing.t_refi);
            for _ in 0..prior {
                let kind = if next(4) == 0 { CasKind::Write } else { CasKind::Read };
                let c = coord(&mut next);
                t = ts.access(c, kind, Port::Channel, t).cas_at + next(40);
            }
            let mut window = VecDeque::new();
            let mut stamp = t.saturating_sub(30);
            for i in 0..len {
                let c = coord(&mut next);
                let write = next(4) == 0;
                stamp += next(12);
                let key = window_key(&mapping, &c, write);
                let (cat, compute, seq) = (Phase::Gemm, true, i as u32);
                window.push_back(WinEntry { coord: c, write, cat, compute, gen_ready: stamp, key, seq });
            }
            let base_nb = t + next(20);
            let full = window
                .iter()
                .enumerate()
                .map(|(i, e)| {
                    let kind = if e.write { CasKind::Write } else { CasKind::Read };
                    (ts.probe(e.coord, kind, Port::Channel, base_nb.max(e.gen_ready)), i)
                })
                .min()
                .expect("a nonempty window")
                .1;
            prop_assert_eq!(fr_fcfs_pick(&ts, &window, Port::Channel, base_nb), full);
        }
    }

    /// Forwards a source's round promises but none of its run hints, so no
    /// admitted run puts synthesized followers, whose stale stamps the run
    /// stream masks by design, in the window.
    struct RoundsOnly<S>(S);

    impl<S: Iterator<Item = Step>> Iterator for RoundsOnly<S> {
        type Item = Step;

        fn next(&mut self) -> Option<Step> {
            self.0.next()
        }
    }

    impl<S: StepSource> StepSource for RoundsOnly<S> {
        fn round_hint(&mut self, min_rounds: u64) -> Result<RoundHint, u64> {
            self.0.round_hint(min_rounds)
        }

        fn skip_rounds(&mut self, n: u64, bubble_over: u64) -> Skipped {
            self.0.skip_rounds(n, bubble_over)
        }
    }

    /// Where a unit's next issues stand: each window entry's key, pulls
    /// back and AGEN stamp; its AGEN clock, not-before, clock and SIMD
    /// horizon; its in-flight SIMD completions.
    type UnitStand = (Vec<[u64; 3]>, [u64; 4], Vec<u64>);

    fn stand(u: &UnitCursor) -> UnitStand {
        let window = u.window.iter().map(|e| [e.key, u.back(e), e.gen_ready]).collect();
        let times = [u.gen_clock, u.not_before, u.clock, u.simd_free];
        (window, times, u.inflight.iter().copied().collect())
    }

    fn issued(u: &UnitCursor) -> u64 {
        u.pulls - u.window.len() as u64
    }

    /// Steps `jumping`, granted the promise checks, one `advance_batch` at
    /// a time, and after each call steps `reference`, the same stream with
    /// no grant, one block (or launch) at a time to the same issues and
    /// launches: both must then stand alike. Returns the blocks `jumping`
    /// issued in closed form.
    fn stands_alike(sys: &SystemConfig, mut jumping: UnitCursor, mut reference: UnitCursor) -> u64 {
        let mapping = &sys.mapping();
        jumping.period = Some(Box::default());
        let (mut ts, mut bus) = crate::flow::fresh_memory(sys);
        let (mut ts_ref, mut bus_ref) = crate::flow::fresh_memory(sys);
        while jumping.desired(mapping).is_some() {
            jumping.advance_batch(&mut ts, &mut bus, mapping);
            jumping.desired(mapping);
            while issued(&reference) < issued(&jumping) || reference.launches < jumping.launches {
                assert!(reference.desired(mapping).is_some(), "the reference ended early");
                reference.advance_one(&mut ts_ref, &mut bus_ref, mapping);
            }
            reference.desired(mapping);
            assert_eq!(stand(&jumping), stand(&reference), "after {} issues", issued(&jumping));
        }
        jumping.stretch_blocks + jumping.jumped_blocks
    }

    /// The first active PIM's kernel unit over `steps`, on the span fast
    /// path.
    fn kernel_unit<'a>(
        sys: &SystemConfig,
        ctx: &GemmContext,
        opts: &SimOptions,
        steps: impl StepSource + Send + 'a,
    ) -> UnitCursor<'a> {
        let lc = &opts.level_cfg;
        let mut u = UnitCursor::from_source(
            "pim",
            ctx.pim_channel(ctx.active_pims[0]),
            lc.port(),
            steps,
            0,
            lc.compute_cycles_per_block(ctx.n),
            lc.simd_ops_per_block(ctx.n),
            lc.pipeline_depth as usize,
            sys.launch.slots_for(opts.granularity),
            sys.launch.launch_latency,
            sys.dram.timing.t_bl,
            None,
        );
        u.exclusive = true;
        u.fast = true;
        u
    }

    /// Every jump leaves the unit where per-block issues would: the window
    /// it rebuilds (keys, pulls back, AGEN stamps, span heads charged
    /// their AGEN iterations), the AGEN clock, not-before, clock and SIMD
    /// pipeline, checked after every `advance_batch` call against a unit
    /// issuing the same stream block by block. The A-walk stretches of a
    /// StepStone-BG and a StepStone-DV kernel (256×4096 N=1, span heads of
    /// several iterations), of a StepStone-BG kernel whose SIMD pipeline
    /// caps them (256×1024 N=32), and the verified periods of a 512×512×32
    /// StepStone-BG localization all jump.
    #[test]
    fn jumps_leave_the_unit_where_per_block_issues_would() {
        let sys = SystemConfig::default();
        let (bg, dv) = (PimLevel::BankGroup, PimLevel::Device);
        for (level, k, n) in [(bg, 4096, 1), (dv, 4096, 1), (bg, 1024, 32)] {
            let opts = SimOptions::stepstone(level);
            let ctx = GemmContext::build(&sys, &GemmSpec::new(256, k, n), &opts);
            let stream = || KernelStream::new(&ctx, &sys, &opts, 0);
            let jumping = kernel_unit(&sys, &ctx, &opts, RoundsOnly(stream()));
            let reference = kernel_unit(&sys, &ctx, &opts, PlainSteps(stream()));
            let jumped = stands_alike(&sys, jumping, reference);
            assert!(jumped > 0, "{level:?} N={n}: no stretch jumped");
        }
        let opts = SimOptions::stepstone(PimLevel::BankGroup);
        let ctx = GemmContext::build(&sys, &GemmSpec::new(512, 512, 32), &opts);
        let gap = sys.localization.inter_block_gap();
        let dma = || transfer_cursors(&ctx, &ctx.b_regions, true, Phase::Localization, 0, gap);
        assert!(stands_alike(&sys, dma().swap_remove(0), dma().swap_remove(0)) > 0, "no period");
    }

    /// A transfer-shaped round source on channel 0: rounds of one block of
    /// each of two row-hit keys in different bank groups, after a lead
    /// that opens both rows and, when `stale`, pulls a block of the first
    /// key's bank on another row. FR-FCFS leaves that row conflict behind
    /// in the two-entry window while the row hits go on.
    struct TwoKeyRounds {
        steps: Vec<Step>,
        pos: usize,
        /// Pulls before the first round.
        lead: usize,
    }

    impl TwoKeyRounds {
        const ROUNDS: u32 = 100;

        fn new(mapping: &XorMapping, stale: bool) -> Self {
            let at = |bankgroup, row, col| {
                let c = DramCoord { channel: 0, rank: 0, bankgroup, bank: 0, row, col };
                let (pa, cat) = (mapping.encode(c), Phase::Localization);
                Step::Access { pa, write: false, cat, agen_iters: 1, compute: false }
            };
            let last = mapping.geometry().blocks_per_row - 1;
            let mut steps = vec![at(0, 1, last), at(1, 1, last)];
            if stale {
                steps.push(at(0, 2, 0));
            }
            let lead = steps.len();
            steps.extend((0..Self::ROUNDS).flat_map(|col| [at(0, 1, col), at(1, 1, col)]));
            Self { steps, pos: 0, lead }
        }
    }

    impl Iterator for TwoKeyRounds {
        type Item = Step;

        fn next(&mut self) -> Option<Step> {
            let s = self.steps.get(self.pos).copied();
            self.pos += 1;
            s
        }
    }

    impl StepSource for TwoKeyRounds {
        fn round_hint(&mut self, min_rounds: u64) -> Result<RoundHint, u64> {
            let first = self.lead + 2;
            if self.pos < first {
                return Err((first - self.pos) as u64);
            }
            let pulled = (self.pos - self.lead) as u64;
            if pulled % 2 == 1 {
                return Err(1);
            }
            let rounds = (self.steps.len() - self.pos) as u64 / 2;
            if rounds < min_rounds {
                return Err(u64::MAX);
            }
            Ok(RoundHint { done: pulled / 2, width: 2, rounds, max_iters: 1, after: 0, next: 0 })
        }

        fn skip_rounds(&mut self, n: u64, bubble_over: u64) -> Skipped {
            self.pos += 2 * n as usize;
            let mut s = Skipped::default();
            s.add(2 * n, 1, bubble_over);
            s
        }
    }

    /// A transfer jumps only where its window stands as it stood a period
    /// earlier, not merely where its last two periods of issues repeat.
    /// Without the stale row conflict, the two-key rounds jump and leave
    /// the unit where per-block issues would. With it, the last two rounds
    /// of issues repeat and the window holds the same keys as a round
    /// earlier, but the stale entry is two pulls further back each round
    /// while its AGEN stamp stays put. A jump would keep the one and shift
    /// the other, so it must not fire.
    #[test]
    fn transfer_jump_waits_for_the_window_to_stand() {
        let sys = SystemConfig::default();
        let mapping = &sys.mapping();
        let unit = |stale| {
            let src = TwoKeyRounds::new(mapping, stale);
            UnitCursor::transfer_source("dma", 0, Port::Channel, src, 0, 0)
        };
        assert!(stands_alike(&sys, unit(false), unit(false)) > 0, "no period jumped");
        let mut u = unit(true);
        u.period = Some(Box::default());
        let (mut ts, mut bus) = crate::flow::fresh_memory(&sys);
        let mut repeats = 0;
        while u.desired(mapping).is_some() {
            let failed = u.checks.failed;
            assert!(!u.jump_due(&mut ts, mapping), "jumped on a window that does not stand");
            let tr = u.period.as_deref().expect("granted");
            let keys = |m: Option<&Mark>| m.map(|m| m.window);
            let same_keys = keys(tr.before(1).map(|(then, _)| then)) == keys(tr.now());
            if u.checks.failed > failed && same_keys {
                repeats += u.ring_period(2).is_some() as u64;
            }
            u.advance_one(&mut ts, &mut bus, mapping);
        }
        assert!(repeats > 0, "no boundary repeated its issues and keys");
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
