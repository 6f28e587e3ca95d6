//! StepStone address generation (paper §III-D, Fig. 4c).
//!
//! During a PIM kernel, the unit must walk — in ascending address order — the
//! cache blocks that belong to its (PIM, group, partition) under the XOR
//! address mapping. Membership is a conjunction of parity constraints over
//! physical-address bits, so after a plain block increment the address may
//! land on a different PIM and must be *skipped forward*.
//!
//! Two generators produce the identical sequence:
//!
//! * [`NaiveAgen`] — increments block by block, re-checking the IDs each
//!   time. Iterations per step equal the address gap, which grows with the
//!   number of active PIMs and stalls the 4-cycle DRAM burst pipeline.
//! * [`StepStoneAgen`] — increment-correct-and-check: increments only at
//!   ID-affecting bit positions, restoring all mask parities with the
//!   minimal suffix correction. The iteration count is bounded by the number
//!   of ID-affecting bits and is further compressed by the paper's two
//!   rules: *instant correction* of adjacent bits feeding the same ID bit
//!   (rule 1) and *carry forwarding* across contiguous chains of bits
//!   feeding different ID bits (rule 2).
//!
//! Sequence equality between the two generators is enforced by unit and
//! property tests — the same validation the paper performs against
//! pre-generated address traces (§IV).
//!
//! On top of the generators sits the **periodic span program**
//! ([`SpanProgram`]): the satisfying set of a parity system is periodic in
//! every aligned window whose prefix folds to the same residual parity
//! state, so the corrector walk only needs to run *once* per (low-mask
//! system, parity state) — every later window with the same state replays
//! the recorded [`AgenSpan`] skeleton with pure offset arithmetic. See the
//! `SpanProgram` docs for the exactness argument.

use crate::geometry::BLOCK_BYTES;
use crate::gf2::Gf2System;
use crate::mapping::XorMapping;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// `parity(pa & mask) == parity` must hold for a block to be emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParityConstraint {
    pub mask: u64,
    pub parity: bool,
}

impl ParityConstraint {
    pub fn satisfied_by(&self, pa: u64) -> bool {
        ((pa & self.mask).count_ones() & 1 == 1) == self.parity
    }
}

/// Do all constraints hold at `pa`?
pub fn satisfies(pa: u64, cs: &[ParityConstraint]) -> bool {
    cs.iter().all(|c| c.satisfied_by(pa))
}

/// One generated address plus the number of AGEN iterations it cost. The
/// pipeline inserts bubbles whenever `iterations` exceeds the DRAM burst
/// window (paper §V-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgenStep {
    pub pa: u64,
    pub iterations: u32,
}

/// Which of the paper's two iteration-compression rules are active; both on
/// is the full StepStone AGEN, both off is a plain bit-serial corrector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AgenRules {
    /// Rule 1: adjacent bits feeding the same ID bit correct in one step.
    pub instant_correction: bool,
    /// Rule 2: a carry across a chain of contiguous bits feeding different
    /// ID bits is forwarded directly to the next-higher bit.
    pub carry_forwarding: bool,
}

impl Default for AgenRules {
    fn default() -> Self {
        Self { instant_correction: true, carry_forwarding: true }
    }
}

impl AgenRules {
    pub const NONE: AgenRules = AgenRules { instant_correction: false, carry_forwarding: false };
}

/// The baseline generator: scan one block at a time (paper §III-D "a simple
/// iterative approach of incrementing the address until the address is again
/// within this same block and PIM ID").
#[derive(Debug, Clone)]
pub struct NaiveAgen {
    cs: Vec<ParityConstraint>,
    next_candidate: u64,
    end: u64,
}

impl NaiveAgen {
    /// Generate all satisfying blocks in `[start, end)`; `start` must be
    /// block-aligned.
    pub fn new(cs: Vec<ParityConstraint>, start: u64, end: u64) -> Self {
        debug_assert_eq!(start % BLOCK_BYTES, 0);
        Self { cs, next_candidate: start, end }
    }
}

impl Iterator for NaiveAgen {
    type Item = AgenStep;

    fn next(&mut self) -> Option<AgenStep> {
        let mut iterations = 0u32;
        let mut pa = self.next_candidate;
        while pa < self.end {
            iterations += 1;
            if satisfies(pa, &self.cs) {
                self.next_candidate = pa + BLOCK_BYTES;
                return Some(AgenStep { pa, iterations });
            }
            pa += BLOCK_BYTES;
        }
        None
    }
}

/// A run of contiguous satisfying blocks: `len` blocks starting at
/// `start_pa`, where only the first block paid a full corrector step
/// (`iterations`); the rest are plain increments (1 iteration each).
///
/// Runs are *guaranteed* — every address in `[start_pa, start_pa + 64·len)`
/// satisfies the constraints because no constrained bit changes inside the
/// run — but not necessarily maximal: two adjacent spans may abut when the
/// increment across the boundary happens to keep all parities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgenSpan {
    pub start_pa: u64,
    /// Number of blocks in the run (≥ 1).
    pub len: u64,
    /// AGEN iterations charged for the first block of the run.
    pub iterations: u32,
}

/// One candidate bit position of the corrector, pre-echelonized so a
/// successor query only evaluates parities (no per-call `Gf2System`).
///
/// For position `p`, the solvable system is `(cs[i].mask & low_mask)·x =
/// rhs[i]` where only `rhs` depends on the candidate base address. Rows
/// store which original constraints were folded together (`sources`), so
/// the query-time RHS of each echelon row is a parity over the per-call
/// constraint RHS bits.
#[derive(Debug, Clone, Default)]
struct PreparedLevel {
    /// Reduced-echelon rows: (non-zero coefficient mask, source-constraint
    /// bitmask).
    rows: Vec<(u64, u32)>,
    /// Source masks of rows that eliminated to zero coefficients: the
    /// system is consistent iff each has even RHS parity.
    zero_rows: Vec<u32>,
}

impl PreparedLevel {
    fn prepare(cs: &[ParityConstraint], p: u32) -> Self {
        let low_mask = (1u64 << p) - 1;
        let mut lvl = PreparedLevel::default();
        for (i, c) in cs.iter().enumerate() {
            let mut coeff = c.mask & low_mask;
            let mut src = 1u32 << i;
            for &(rc, rs) in &lvl.rows {
                if coeff & (rc & rc.wrapping_neg()) != 0 {
                    coeff ^= rc;
                    src ^= rs;
                }
            }
            if coeff == 0 {
                lvl.zero_rows.push(src);
                continue;
            }
            let lead = coeff & coeff.wrapping_neg();
            for (rc, rs) in &mut lvl.rows {
                if *rc & lead != 0 {
                    *rc ^= coeff;
                    *rs ^= src;
                }
            }
            lvl.rows.push((coeff, src));
        }
        lvl
    }

    /// Minimal solution for the given per-constraint RHS bits, or `None`
    /// if inconsistent. Equivalent to `Gf2System::min_solution` on the
    /// same equations.
    #[inline]
    fn min_solution(&self, rhs_bits: u32) -> Option<u64> {
        for &z in &self.zero_rows {
            if (rhs_bits & z).count_ones() & 1 == 1 {
                return None;
            }
        }
        let mut x = 0u64;
        for &(c, s) in &self.rows {
            if (rhs_bits & s).count_ones() & 1 == 1 {
                x |= c & c.wrapping_neg();
            }
        }
        Some(x)
    }
}

/// The echelonized corrector state of a constraint system: every quantity a
/// successor query needs that depends only on the constraint *masks* (and
/// the compression rules) — parities enter a query only through the RHS
/// bits. Walks with the same mask sequence (every Algorithm-1 cell of one
/// GEMM: same ID masks, same group masks, same partition bits — only the
/// parities differ per PIM/group/partition) share one table set through
/// [`corrector_tables`], so the per-walk construction cost is paid once per
/// shape instead of once per cell.
#[derive(Debug)]
struct CorrectorTables {
    /// Ascending ID-affecting bit positions (the union of constraint masks).
    sbits: Vec<u32>,
    /// `unit_start[u]` = lowest bit position of compressed iteration unit
    /// `u`, per the active rules.
    unit_starts: Vec<u32>,
    /// Precomputed corrector systems indexed by `p - BLOCK_SHIFT`.
    levels: Vec<PreparedLevel>,
    /// Byte span over which no constrained bit changes (`1 << sbits[0]`).
    run_bytes: u64,
}

impl CorrectorTables {
    fn build(cs: &[ParityConstraint], p_max: u32, rules: AgenRules) -> Self {
        let mut union = 0u64;
        for c in cs {
            union |= c.mask;
        }
        let mut sbits = Vec::new();
        let mut u = union;
        while u != 0 {
            sbits.push(u.trailing_zeros());
            u &= u - 1;
        }
        let unit_starts = compress_units(cs, &sbits, rules);
        let levels = (crate::geometry::BLOCK_SHIFT..=p_max)
            .map(|p| PreparedLevel::prepare(cs, p))
            .collect();
        let run_bytes = sbits.first().map_or(u64::MAX, |&b| 1 << b);
        Self { sbits, unit_starts, levels, run_bytes }
    }
}

/// Distinct (mask sequence, level range, rules) corrector-table entries kept
/// process-wide; beyond the cap, tables are built privately per walk.
const CORRECTOR_CACHE_CAP: usize = 1024;

/// Keyed by constraint *masks* only (plus level range and rules): this is
/// complete, not an aliasing hazard. [`CorrectorTables::build`] never reads
/// a constraint's parity — `compress_units` and `PreparedLevel::prepare`
/// depend on masks alone, and the RHS is folded in per walk at solve time
/// (`rhs_bits`). Distinct geometries/presets produce distinct mask
/// sequences, so cross-preset walks cannot collide on a stale entry
/// (pinned by `interleaved_geometries_share_agen_caches_without_aliasing`).
type CorrectorKey = (Vec<u64>, u32, AgenRules);

fn corrector_cache() -> &'static Mutex<HashMap<CorrectorKey, Arc<CorrectorTables>>> {
    static CACHE: OnceLock<Mutex<HashMap<CorrectorKey, Arc<CorrectorTables>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Shared corrector tables for a constraint system (see [`CorrectorTables`]).
fn corrector_tables(cs: &[ParityConstraint], p_max: u32, rules: AgenRules) -> Arc<CorrectorTables> {
    let key: CorrectorKey = (cs.iter().map(|c| c.mask).collect(), p_max, rules);
    let mut cache = corrector_cache().lock().expect("corrector cache poisoned");
    if let Some(t) = cache.get(&key) {
        return Arc::clone(t);
    }
    let t = Arc::new(CorrectorTables::build(cs, p_max, rules));
    if cache.len() < CORRECTOR_CACHE_CAP {
        cache.insert(key, Arc::clone(&t));
    }
    t
}

/// The window-level (gate-row) view of a constraint system at a fixed
/// pivot: everything needed to enumerate the *nonempty* aligned
/// `2^pivot`-byte windows arithmetically, without visiting the empty ones.
///
/// Echelon-reducing the constraints' low masks (`mask ∧ (2^pivot − 1)`)
/// leaves zero rows: sets `S` of constraints whose low parts cancel. For
/// an aligned window `W` the folded requirement of such a row is a pure
/// *window* constraint — `parity(W ∧ ⊕_{i∈S} maskᵢ) = ⊕_{i∈S} parityᵢ`
/// (the XOR of the masks has no bits below the pivot). A window is
/// nonempty **iff every gate row holds**: the non-zero echelon rows are
/// always solvable inside the window, and parity is GF(2)-linear in the
/// mask, so consistency of the in-window system is exactly the
/// conjunction of the gate rows. Pure-high constraints are the simplest
/// gates (singleton `S`); the echelon generalizes them to combinations.
///
/// The next nonempty window after `w` is then the successor query of the
/// gate system *at window granularity* — the same prepared-level scan as
/// the block-level corrector, but starting at the pivot instead of
/// `BLOCK_SHIFT`, so the sub-pivot levels (the bulk of the 28-level live
/// scan at paper scale) are never touched. Everything here is mask-only
/// (parities enter per-walk through [`WindowTables::gate_rhs`]), so one
/// table set is shared by every cell of a shape via [`window_tables`].
#[derive(Debug)]
struct WindowTables {
    /// Per gate row: (window-bit parity mask, source-constraint bitmask).
    gates: Vec<(u64, u32)>,
    /// Gate corrector levels indexed by `p - pivot` for `p` in
    /// `pivot..=top`.
    levels: Vec<PreparedLevel>,
    pivot: u32,
    top: u32,
    /// Bytes over which no gate bit changes: all windows of one aligned
    /// `run_bytes` chunk agree on nonemptiness (`u64::MAX` when the gate
    /// system is empty — every window is nonempty).
    run_bytes: u64,
}

impl WindowTables {
    fn build(cs: &[ParityConstraint], pivot: u32, p_max: u32) -> Self {
        let lvl = PreparedLevel::prepare(cs, pivot);
        let gates: Vec<(u64, u32)> = lvl
            .zero_rows
            .iter()
            .map(|&src| {
                let mut mask = 0u64;
                for (i, c) in cs.iter().enumerate() {
                    if src >> i & 1 == 1 {
                        mask ^= c.mask;
                    }
                }
                debug_assert_eq!(mask & ((1u64 << pivot) - 1), 0, "gate rows are pure-high");
                (mask, src)
            })
            .collect();
        let gate_cs: Vec<ParityConstraint> =
            gates.iter().map(|&(mask, _)| ParityConstraint { mask, parity: false }).collect();
        let top = p_max.max(pivot);
        let levels = (pivot..=top).map(|p| PreparedLevel::prepare(&gate_cs, p)).collect();
        let union: u64 = gates.iter().fold(0, |u, g| u | g.0);
        let run_bytes = if union == 0 { u64::MAX } else { 1 << union.trailing_zeros() };
        Self { gates, levels, pivot, top, run_bytes }
    }

    /// Fold a walk's packed constraint parities into per-gate RHS bits.
    fn gate_rhs(&self, parity_bits: u32) -> u32 {
        let mut rhs = 0u32;
        for (g, &(_, src)) in self.gates.iter().enumerate() {
            rhs |= ((parity_bits & src).count_ones() & 1) << g;
        }
        rhs
    }

    /// Do all gate rows hold at aligned window base `w`?
    fn satisfied(&self, w: u64, gate_rhs: u32) -> bool {
        self.gates
            .iter()
            .enumerate()
            .all(|(g, &(mask, _))| (w & mask).count_ones() & 1 == gate_rhs >> g & 1)
    }

    /// Smallest aligned window base `> w` whose gate system holds, or
    /// `None` when no later window is nonempty. Mirrors
    /// [`StepStoneAgen::successor`] at window granularity.
    fn next_window(&self, w: u64, gate_rhs: u32) -> Option<u64> {
        let wb = 1u64 << self.pivot;
        let cand = w + wb;
        if self.satisfied(cand, gate_rhs) {
            return Some(cand);
        }
        let mut best: Option<u64> = None;
        for p in self.pivot..=self.top {
            let base = ((w >> p) + 1) << p;
            if let Some(b) = best {
                if base >= b {
                    break;
                }
            }
            let mut rhs_bits = 0u32;
            for (g, &(mask, _)) in self.gates.iter().enumerate() {
                let prefix = (base & mask).count_ones() & 1;
                rhs_bits |= ((gate_rhs >> g & 1) ^ prefix) << g;
            }
            let Some(fix) = self.levels[(p - self.pivot) as usize].min_solution(rhs_bits) else {
                continue;
            };
            let cand = base | fix;
            debug_assert!(cand > w);
            debug_assert_eq!(cand & (wb - 1), 0, "gate fixes stay window-aligned");
            if best.is_none_or(|b| cand < b) {
                best = Some(cand);
            }
        }
        best
    }

    /// Exclusive end of the contiguous nonempty-window run containing the
    /// gate-satisfying window `w`.
    fn run_end(&self, w: u64) -> u64 {
        if self.run_bytes == u64::MAX {
            u64::MAX
        } else {
            (w / self.run_bytes + 1) * self.run_bytes
        }
    }
}

/// Distinct (mask sequence, pivot, level range) window-table entries kept
/// process-wide; beyond the cap, tables are built privately per walk.
const WINDOW_CACHE_CAP: usize = 1024;

/// Mask-only key, like [`CorrectorKey`]: [`WindowTables::build`] erases
/// parities up front (gate rows are built over `parity: false` copies) and
/// re-derives the gate RHS from the walk's own parity bits in `gate_rhs`,
/// so entries are shared safely across presets with different parities but
/// identical mask sequences — and never across different geometries.
type WindowKey = (Vec<u64>, u32, u32);

fn window_cache() -> &'static Mutex<HashMap<WindowKey, Arc<WindowTables>>> {
    static CACHE: OnceLock<Mutex<HashMap<WindowKey, Arc<WindowTables>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Shared window tables for a constraint system (see [`WindowTables`]).
fn window_tables(cs: &[ParityConstraint], pivot: u32, p_max: u32) -> Arc<WindowTables> {
    let key: WindowKey = (cs.iter().map(|c| c.mask).collect(), pivot, p_max);
    let mut cache = window_cache().lock().expect("window cache poisoned");
    if let Some(t) = cache.get(&key) {
        return Arc::clone(t);
    }
    let t = Arc::new(WindowTables::build(cs, pivot, p_max));
    if cache.len() < WINDOW_CACHE_CAP {
        cache.insert(key, Arc::clone(&t));
    }
    t
}

/// The StepStone increment-correct-and-check generator.
#[derive(Debug, Clone)]
pub struct StepStoneAgen {
    cs: Vec<ParityConstraint>,
    /// Mask-derived corrector state, shared across walks with equal masks.
    tables: Arc<CorrectorTables>,
    /// Iteration-compression rules the tables were built with.
    rules: AgenRules,
    /// Next block to emit within the current guaranteed run.
    cur: u64,
    /// Exclusive end of the current run.
    span_end: u64,
    /// Iterations owed by the next emitted block (first block of a run).
    pending_iters: u32,
    /// Last emitted address (successor scan base), or `start` before the
    /// first emission.
    last_pa: u64,
    started: bool,
    exhausted: bool,
    end: u64,
    /// Use the seed-era per-call `Gf2System` corrector instead of the
    /// prepared levels (benchmark baseline; identical output).
    uncached_corrector: bool,
}

impl StepStoneAgen {
    pub fn new(cs: Vec<ParityConstraint>, start: u64, end: u64) -> Self {
        Self::with_rules(cs, start, end, AgenRules::default())
    }

    pub fn with_rules(cs: Vec<ParityConstraint>, start: u64, end: u64, rules: AgenRules) -> Self {
        debug_assert_eq!(start % BLOCK_BYTES, 0);
        let mut union = 0u64;
        for c in &cs {
            union |= c.mask;
        }
        // Highest position the successor scan can visit for any x < end
        // (capped at bit 63 — u64 addresses have nothing above it, and an
        // uncapped level would shift-overflow for end ≥ 2^62).
        let top_sbit = if union == 0 { 6 } else { 63 - union.leading_zeros() };
        let hi = 63 - end.max(1).leading_zeros().min(57);
        let p_max = (hi.max(top_sbit) + 2).min(63);
        let tables = corrector_tables(&cs, p_max, rules);
        Self {
            cs,
            tables,
            rules,
            cur: 0,
            span_end: 0,
            pending_iters: 0,
            last_pa: start,
            started: false,
            exhausted: false,
            end,
            uncached_corrector: false,
        }
    }

    /// Switch to the seed-era corrector that rebuilds a [`Gf2System`] per
    /// candidate position. Output is identical; kept as the benchmark
    /// baseline for the prepared-level corrector.
    pub fn use_uncached_corrector(mut self) -> Self {
        self.uncached_corrector = true;
        self
    }

    /// Number of compressed iteration units (hardware loop bound).
    pub fn unit_count(&self) -> usize {
        self.tables.unit_starts.len()
    }

    /// Consume the generator as batched runs of contiguous blocks.
    pub fn spans(self) -> Spans {
        Spans { agen: self }
    }

    /// Consume the generator as batched runs through the periodic
    /// span-program cache (identical span stream; see [`SpanProgram`]).
    pub fn span_program(self) -> SpanProgram {
        SpanProgram::new(self)
    }

    /// Hardware iterations charged for a step that won at bit position `p`:
    /// the initial increment-and-check plus one per unit below `p`.
    fn iterations_for(&self, p: u32) -> u32 {
        1 + self.tables.unit_starts.iter().take_while(|&&s| s < p).count() as u32
    }

    /// Smallest satisfying block address strictly greater than `x`, or
    /// `None` if the constraint system is unsatisfiable (e.g. a row
    /// partition that contains no rows of the requested group).
    fn successor(&self, x: u64) -> Option<(u64, u32)> {
        // Fast path: the plain increment stays on this PIM and group. With
        // the baseline Skylake mapping pairs of blocks are contiguous
        // (lowest ID bit is PA bit 7), so this hits half the time.
        let cand = x + BLOCK_BYTES;
        if satisfies(cand, &self.cs) {
            return Some((cand, 1));
        }
        let mut best: Option<(u64, u32)> = None;
        // Candidate prefixes: increment at each bit position `p`, zero the
        // free bits below, and restore the parities with the minimal
        // assignment of ID-affecting bits below `p`. The true successor is
        // produced at `p` = its highest bit differing from `x`, so scanning
        // all positions (with monotone-base pruning) is exact.
        let top = 63 - x.max(1).leading_zeros().min(57);
        let top = (top.max(self.tables.sbits.last().copied().unwrap_or(6)) + 2).min(63);
        for p in crate::geometry::BLOCK_SHIFT..=top {
            let base = ((x >> p) + 1) << p;
            if let Some((b, _)) = best {
                if base >= b {
                    break;
                }
            }
            let fix = if self.uncached_corrector {
                self.solve_uncached(base, p)
            } else {
                // `base` has no bits below `p`, so each constraint's RHS is
                // its parity corrected by the prefix contribution.
                let mut rhs_bits = 0u32;
                for (i, c) in self.cs.iter().enumerate() {
                    let prefix = (base & c.mask).count_ones() & 1;
                    rhs_bits |= (c.parity as u32 ^ prefix) << i;
                }
                self.tables.levels[(p - crate::geometry::BLOCK_SHIFT) as usize]
                    .min_solution(rhs_bits)
            };
            let Some(fix) = fix else { continue };
            let cand = base | fix;
            debug_assert!(cand > x);
            debug_assert!(satisfies(cand, &self.cs));
            if best.is_none_or(|(b, _)| cand < b) {
                best = Some((cand, self.iterations_for(p)));
            }
        }
        best
    }

    /// Iterations the live [`StepStoneAgen::successor`] charges for the
    /// step from `x` to its (already known) successor `y`, reconstructed
    /// arithmetically — no corrector solve.
    ///
    /// The live scan first tries the plain increment (`y == x + 64` costs 1
    /// iteration), then produces `y` at every level `p` whose carry chain
    /// is intact — `((x >> p) + 1) << p` equals `y`'s prefix, i.e. every
    /// bit of `[p, p*)` (`p*` = highest differing bit) is 1 in `x` and 0 in
    /// `y` — and keeps the *first* (lowest) producing level, whose unit
    /// count it charges. The window-level successor uses this to replay a
    /// window's first span without running the scan; exactness against the
    /// live walk is pinned by the differential suite in
    /// `tests/window_successor.rs`.
    fn boundary_iters(&self, x: u64, y: u64) -> u32 {
        debug_assert!(y > x);
        if y == x + BLOCK_BYTES {
            return 1;
        }
        let p_star = 63 - (x ^ y).leading_zeros();
        let chain_broken = (!x | y) & ((1u64 << p_star) - 1) & !(BLOCK_BYTES - 1);
        let p_min = if chain_broken == 0 {
            crate::geometry::BLOCK_SHIFT
        } else {
            64 - chain_broken.leading_zeros()
        };
        self.iterations_for(p_min)
    }

    /// The seed-era corrector: build and solve a fresh GF(2) system.
    fn solve_uncached(&self, base: u64, p: u32) -> Option<u64> {
        let low_mask = (1u64 << p) - 1;
        let mut sys = Gf2System::new();
        for c in &self.cs {
            let coeff = c.mask & low_mask;
            let rhs = c.parity ^ ((base & c.mask & !low_mask).count_ones() & 1 == 1);
            if !sys.add(coeff, rhs) {
                return None;
            }
        }
        Some(sys.min_solution().expect("consistent system has a solution"))
    }

    /// Locate the next guaranteed run after the current one; `false` when
    /// the walk is exhausted.
    fn advance_span(&mut self) -> bool {
        if self.exhausted {
            return false;
        }
        let found = if !self.started {
            self.started = true;
            if self.last_pa >= self.end {
                None
            } else if satisfies(self.last_pa, &self.cs) {
                Some((self.last_pa, 1))
            } else {
                self.successor(self.last_pa)
            }
        } else {
            self.successor(self.last_pa)
        };
        let Some((pa, iterations)) = found else {
            self.exhausted = true;
            return false;
        };
        if pa >= self.end {
            self.exhausted = true;
            return false;
        }
        // All blocks up to the next constrained-bit boundary share every
        // mask parity with `pa`, so the whole run satisfies.
        let boundary = if self.tables.run_bytes == u64::MAX {
            u64::MAX
        } else {
            ((pa >> self.tables.sbits[0]) + 1) << self.tables.sbits[0]
        };
        let end_aligned = self.end.div_ceil(BLOCK_BYTES) * BLOCK_BYTES;
        self.cur = pa;
        self.span_end = boundary.min(end_aligned);
        self.pending_iters = iterations;
        self.last_pa = self.span_end - BLOCK_BYTES;
        true
    }

    /// Continue the walk after `span`, yielded from a skeleton: the next
    /// successor scan starts from its last block.
    #[inline]
    fn resume_after(&mut self, span: &AgenSpan) {
        self.last_pa = span.start_pa + (span.len - 1) * BLOCK_BYTES;
        self.cur = 0;
        self.span_end = 0;
    }

    /// The next span of the live walk: the rest of the current guaranteed
    /// run, or the next run once that one is consumed. [`Spans`] yields
    /// these directly, and [`SpanProgram`] falls back to them.
    fn next_span(&mut self) -> Option<AgenSpan> {
        if self.cur >= self.span_end && !self.advance_span() {
            return None;
        }
        let span = AgenSpan {
            start_pa: self.cur,
            len: (self.span_end - self.cur) / BLOCK_BYTES,
            iterations: if self.pending_iters != 0 { self.pending_iters } else { 1 },
        };
        self.cur = self.span_end;
        self.pending_iters = 0;
        Some(span)
    }
}

impl Iterator for StepStoneAgen {
    type Item = AgenStep;

    fn next(&mut self) -> Option<AgenStep> {
        if self.cur >= self.span_end && !self.advance_span() {
            return None;
        }
        let pa = self.cur;
        self.cur += BLOCK_BYTES;
        let iterations = if self.pending_iters != 0 {
            std::mem::take(&mut self.pending_iters)
        } else {
            1
        };
        Some(AgenStep { pa, iterations })
    }
}

/// Batched-run view of a [`StepStoneAgen`] (see [`AgenSpan`]).
#[derive(Debug, Clone)]
pub struct Spans {
    agen: StepStoneAgen,
}

impl Iterator for Spans {
    type Item = AgenSpan;

    fn next(&mut self) -> Option<AgenSpan> {
        self.agen.next_span()
    }
}

/// One recorded span of a window skeleton: block offset from the window
/// base, run length in blocks, the corrector iterations of the run's first
/// block (meaningful for every span but the window's first, whose
/// iteration count depends on the *previous* window and is recomputed live
/// at replay time), and the stretch table's entry: how many following
/// spans of the skeleton repeat its window keys under the skeleton's key
/// test ([`Skeleton::key`]). Every field fits 16 bits: a window holds at
/// most `2^SPAN_WINDOW_BLOCK_BITS` blocks, and a charge counts at most one
/// iteration per address bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SkelSpan {
    off: u16,
    len: u16,
    iters: u16,
    run: u16,
}

const _: () = assert!(1 << SPAN_WINDOW_BLOCK_BITS <= u16::MAX as u64);

impl SkelSpan {
    fn new(w: u64, span: &AgenSpan) -> Self {
        let off = (span.start_pa - w) / BLOCK_BYTES;
        Self { off: off as u16, len: span.len as u16, iters: span.iterations as u16, run: 0 }
    }

    /// The span in window `w`, charged its recorded head iterations.
    #[inline]
    fn at(&self, w: u64) -> AgenSpan {
        AgenSpan {
            start_pa: w + self.off as u64 * BLOCK_BYTES,
            len: self.len as u64,
            iterations: self.iters as u32,
        }
    }
}

/// A recorded window skeleton. Its spans carry the stretch table under the
/// mapping of the walk that recorded it (`key`, [`KeyTest::id`];
/// `u32::MAX` when that walk had none). Page sizes clip the table at query
/// time ([`Runs::run`]); a walk under another mapping reads no table from
/// it ([`Skeleton::runs`]), so its stretch queries answer nothing there.
#[derive(Debug)]
struct Skeleton {
    spans: Vec<SkelSpan>,
    key: u32,
}

impl Skeleton {
    /// The stretch table under `keys`, if the skeleton was recorded under
    /// its mapping.
    fn runs(&self, keys: &KeyTest) -> Option<Runs<'_>> {
        let page_mask = keys.0.page_mask;
        (self.key == keys.id()).then_some(Runs { spans: &self.spans, page_mask })
    }
}

/// The stretch table of a skeleton under a mapping: for each span, how
/// many following spans repeat its keys, pages aside. Inside a replayed
/// window every span starts at the window base OR its skeleton offset, so
/// two spans of one window differ by their offsets' XOR alone, and
/// [`KeyTest::same`] between them depends only on the skeleton, the
/// mapping and the page size: it holds for every window that replays the
/// skeleton. One test per adjacent pair builds it (the test is an
/// equivalence, so repeats chain).
fn stretch_runs(spans: &mut [SkelSpan], keys: &KeyTest, tests: &mut u64) {
    for i in (0..spans.len().saturating_sub(1)).rev() {
        *tests += 1;
        if keys.same_unpaged(&spans[i].at(0), &spans[i + 1].at(0)) {
            spans[i].run = spans[i + 1].run + 1;
        }
    }
}

/// The span key-equality test of one mapping and page size, interned: walks
/// under one mapping share an `id`, which names the mapping a skeleton's
/// stretch table was built under.
///
/// Span `s` repeats span `r`'s window keys block by block, with the same
/// run hints, when: their lengths are equal and so are their address bits
/// below the top bit that varies inside `r` (so blocks at equal offsets
/// differ by `r.start ^ s.start` exactly); that difference moves only the
/// column — the mapping decodes XOR-linearly, so it moves no other
/// coordinate bit iff it has even parity under every non-column mask; and,
/// under paging, both spans lie in `r`'s page, where translation keeps key
/// equality. The test is an equivalence: equal low bits give `s` the same
/// varying bits as `r`, and differences compose by XOR.
#[derive(Debug, Clone)]
pub struct KeyTest(Arc<KeyMasks>);

#[derive(Debug, PartialEq, Eq)]
struct KeyMasks {
    /// Equal for equal `moves`.
    id: u32,
    /// The mapping's bank, bank-group, rank, channel and row masks.
    moves: Vec<u64>,
    page_mask: Option<u64>,
}

impl KeyTest {
    pub fn new(mapping: &XorMapping, page_mask: Option<u64>) -> Self {
        use crate::mapping::Field;
        static TESTS: Mutex<Vec<Arc<KeyMasks>>> = Mutex::new(Vec::new());
        let fields = [Field::Bank, Field::BankGroup, Field::Rank, Field::Channel, Field::Row];
        let moves: Vec<u64> =
            fields.iter().flat_map(|&f| mapping.field_masks(f).iter().copied()).collect();
        let mut tests = TESTS.lock().expect("key tests poisoned");
        if let Some(t) = tests.iter().find(|t| t.moves == moves && t.page_mask == page_mask) {
            return Self(Arc::clone(t));
        }
        let id = match tests.iter().find(|t| t.moves == moves) {
            Some(t) => t.id,
            None => tests.iter().map(|t| t.id + 1).max().unwrap_or(0),
        };
        let t = Arc::new(KeyMasks { id, moves, page_mask });
        tests.push(Arc::clone(&t));
        Self(t)
    }

    fn id(&self) -> u32 {
        self.0.id
    }

    /// Does span `s` repeat span `r`'s window keys?
    pub fn same(&self, r: &AgenSpan, s: &AgenSpan) -> bool {
        self.same_unpaged(r, s)
            && self.0.page_mask.is_none_or(|pm| (inside(r) | (r.start_pa ^ s.start_pa)) & !pm == 0)
    }

    /// [`KeyTest::same`] without the page condition.
    fn same_unpaged(&self, r: &AgenSpan, s: &AgenSpan) -> bool {
        let inside = inside(r);
        let low = if inside == 0 { 0 } else { u64::MAX >> inside.leading_zeros() };
        let diff = r.start_pa ^ s.start_pa;
        s.len == r.len
            && diff & low == 0
            && self.0.moves.iter().all(|m| (diff & m).count_ones() & 1 == 0)
    }
}

/// The address bits that vary inside span `r`.
#[inline]
fn inside(r: &AgenSpan) -> u64 {
    r.start_pa ^ (r.start_pa + (r.len - 1) * BLOCK_BYTES)
}

/// A stretch read off a [`SpanProgram`]'s skeleton tables
/// ([`SpanProgram::stretch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableStretch {
    /// Upcoming spans repeating the last yielded span's keys.
    pub spans: u64,
    /// Their length in blocks (the last yielded span's).
    pub len: u64,
    /// The largest head charge among them (1 when there are none).
    pub max_iters: u32,
    /// Blocks past them to the end of the next span that may open a
    /// stretch; 0 when that lies beyond the windows the tables know.
    pub after: u64,
    /// When the span right after them opens a stretch: spans of its window
    /// that repeat it (at least 1; 0 otherwise).
    pub next: u64,
}

/// Per-(low-mask system, rules, pivot) skeleton store: one recorded span
/// sequence per residual parity state, shared by every [`SpanProgram`] with
/// the same key — across PIMs, groups, partitions, phases, and repeated
/// layers.
#[derive(Debug, Default)]
struct SharedSkeletons {
    by_state: Mutex<HashMap<u32, Arc<Skeleton>>>,
}

/// Caps for the global span-program cache: distinct (low-mask, pivot,
/// rules) keys, and total recorded spans across all skeletons. Past either
/// cap the walk simply stays live — output is identical either way.
const SPAN_PROGRAM_KEY_CAP: usize = 512;
const SPAN_PROGRAM_SPAN_CAP: usize = 1 << 20;

/// Largest replay window: `2^(BLOCK_SHIFT + 14)` bytes = 16 Ki blocks, so a
/// single skeleton never exceeds 16 Ki spans (the global span cap bounds
/// total resident spans).
const SPAN_WINDOW_BLOCK_BITS: u32 = 14;

/// Windows are sized so the walked range holds at least ~2^6 of them:
/// smaller windows mean more states repeat within one walk (pure-high
/// constraint rows become gates that fold out of the state entirely), which
/// is where within-walk replay comes from.
const SPAN_WINDOWS_PER_RANGE_BITS: u32 = 6;

/// Skeletons are shared by (low-mask sequence, pivot, rules) and, inside
/// [`SharedSkeletons`], by the window's residual parity state — together a
/// complete key: the satisfying offsets within an aligned window are a pure
/// function of the constraints' low-mask rows and the per-window RHS, with
/// all geometry- and parity-dependence folded into `state_of`. Walks under
/// different presets therefore interleave through this cache safely.
type SpanProgramKey = (Vec<u64>, u32, AgenRules);

struct SpanProgramCache {
    programs: Mutex<HashMap<SpanProgramKey, Arc<SharedSkeletons>>>,
    cached_spans: AtomicUsize,
}

fn span_program_cache() -> &'static SpanProgramCache {
    static CACHE: OnceLock<SpanProgramCache> = OnceLock::new();
    CACHE.get_or_init(|| SpanProgramCache {
        programs: Mutex::new(HashMap::new()),
        cached_spans: AtomicUsize::new(0),
    })
}

/// Test/bench hook: spans currently resident in the global skeleton cache.
pub fn span_cache_resident_spans() -> usize {
    span_program_cache().cached_spans.load(Ordering::Relaxed)
}

/// Process-wide [`SpanProgram`] event totals (bench/test hook): how the
/// A-walk's spans were produced and what each window boundary cost. Every
/// program flushes its per-walk counters here on drop, so a whole
/// simulation can be audited after the fact — `bench_sim` records these so
/// the smoke gate can tell a cache regression from host noise.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AgenCounters {
    /// Spans produced by the live generator (cold windows, range edges).
    pub live_spans: u64,
    /// Spans yielded from skeletons (incl. window-first spans synthesized
    /// by the window successor). A cold window's spans after its first are
    /// produced live to record it on entry and then yielded from its
    /// skeleton, so they count here too.
    pub replayed_spans: u64,
    /// Window boundaries crossed arithmetically via the gate-row window
    /// successor (no corrector scan).
    pub window_jumps: u64,
    /// Window boundaries crossed by a full live successor scan.
    pub boundary_successors: u64,
    /// Skeleton-cache lookups that hit (window replayed).
    pub skeleton_hits: u64,
    /// Skeleton-cache lookups that missed (window recorded on entry).
    pub skeleton_misses: u64,
}

#[derive(Default)]
struct GlobalAgenCounters {
    live_spans: AtomicU64,
    replayed_spans: AtomicU64,
    window_jumps: AtomicU64,
    boundary_successors: AtomicU64,
    skeleton_hits: AtomicU64,
    skeleton_misses: AtomicU64,
}

fn global_agen_counters() -> &'static GlobalAgenCounters {
    static C: OnceLock<GlobalAgenCounters> = OnceLock::new();
    C.get_or_init(GlobalAgenCounters::default)
}

/// Snapshot the process-wide AGEN counters (see [`AgenCounters`]).
pub fn agen_counters() -> AgenCounters {
    let c = global_agen_counters();
    AgenCounters {
        live_spans: c.live_spans.load(Ordering::Relaxed),
        replayed_spans: c.replayed_spans.load(Ordering::Relaxed),
        window_jumps: c.window_jumps.load(Ordering::Relaxed),
        boundary_successors: c.boundary_successors.load(Ordering::Relaxed),
        skeleton_hits: c.skeleton_hits.load(Ordering::Relaxed),
        skeleton_misses: c.skeleton_misses.load(Ordering::Relaxed),
    }
}

impl AgenCounters {
    /// Add `o`'s counts to these.
    pub fn add(&mut self, o: &AgenCounters) {
        self.live_spans += o.live_spans;
        self.replayed_spans += o.replayed_spans;
        self.window_jumps += o.window_jumps;
        self.boundary_successors += o.boundary_successors;
        self.skeleton_hits += o.skeleton_hits;
        self.skeleton_misses += o.skeleton_misses;
    }
}

/// Add `a` to the process-wide AGEN counters: what a walk's copy that read
/// ahead yielded, once the walk takes the copy's place (see
/// [`SpanProgram::take_counters`]).
pub fn add_agen_counters(a: &AgenCounters) {
    let c = global_agen_counters();
    c.live_spans.fetch_add(a.live_spans, Ordering::Relaxed);
    c.replayed_spans.fetch_add(a.replayed_spans, Ordering::Relaxed);
    c.window_jumps.fetch_add(a.window_jumps, Ordering::Relaxed);
    c.boundary_successors.fetch_add(a.boundary_successors, Ordering::Relaxed);
    c.skeleton_hits.fetch_add(a.skeleton_hits, Ordering::Relaxed);
    c.skeleton_misses.fetch_add(a.skeleton_misses, Ordering::Relaxed);
}

/// Zero the process-wide AGEN counters (bench/test hook).
pub fn reset_agen_counters() {
    let c = global_agen_counters();
    c.live_spans.store(0, Ordering::Relaxed);
    c.replayed_spans.store(0, Ordering::Relaxed);
    c.window_jumps.store(0, Ordering::Relaxed);
    c.boundary_successors.store(0, Ordering::Relaxed);
    c.skeleton_hits.store(0, Ordering::Relaxed);
    c.skeleton_misses.store(0, Ordering::Relaxed);
}

/// A [`StepStoneAgen`] span stream that caches and replays the A-walk
/// periodically — identical output to [`StepStoneAgen::spans`], with the
/// GF(2) corrector running once per *window state* instead of once per
/// span.
///
/// # Why this is exact
///
/// Fix a window size `2^p` (`p` = pivot, above the lowest constrained bit
/// and at most one above the highest). For an aligned window `W`,
/// membership of `W + o` depends only on each constraint's low mask
/// `mᵢ ∧ (2^p − 1)` and the *residual parity* `rᵢ = parityᵢ ⊕
/// parity(W ∧ mᵢ ∧ ¬(2^p − 1))` — the window prefix folds into the RHS.
/// Therefore two windows (of any two walks) with equal low-mask sequences
/// and equal residual states contain the *same* span pattern. The
/// successor scan for an in-window span also only consults levels below
/// `p` (a candidate prefix at or above `p` lands in a later window and can
/// never beat an in-window successor), and its iteration count counts
/// compressed units starting below `p`, which are equally determined by
/// the low masks and rules. The only per-window quantity that depends on
/// *more* than the state is the corrector cost of entering the window —
/// the scan from the previous window's last address — so the replay path
/// recomputes exactly that one successor live per window and replays the
/// rest of the skeleton arithmetically.
///
/// A skeleton is recorded when the live walk enters a fully-in-range window
/// whose state has none: the walk enters at the window's first satisfying
/// address, generates the rest of the window at once, and replays it from
/// the skeleton's second span, so a cold window answers stretch queries as
/// a warm one does. Skeletons live in a process-wide cache keyed like
/// [`crate::region::RegionPlan`]'s offset tables (bounded; see
/// `SPAN_PROGRAM_*` caps; a skeleton past them still replays its own
/// window) and are shared across units, phases, and repeated layers.
/// Degenerate systems — no constraints, more than 20 constraints, windows
/// no larger than a single contiguous run, or ranges without one full
/// window — simply keep the live walk.
pub struct SpanProgram {
    agen: StepStoneAgen,
    /// Replay machinery active (range and system are eligible).
    enabled: bool,
    /// `2^pivot`-byte replay window.
    window_bytes: u64,
    /// Per-constraint mask bits at or above the pivot (RHS folding).
    hi_masks: Vec<u64>,
    /// Packed constraint parities (`state = parities ⊕ fold(W)`).
    parity_bits: u32,
    start: u64,
    shared: Arc<SharedSkeletons>,
    /// `shared` lives in the process-wide cache (vs a private store after
    /// key-cap overflow, whose spans die with the walk and must not be
    /// charged to the global span budget).
    shared_in_cache: bool,
    /// Window of the most recently emitted span (`u64::MAX` before any).
    cur_window: u64,
    replay: Option<Replay>,
    /// Windows after `chain_from` that stretch queries found the window
    /// successor will replay, nearest first: (window, nonempty-run end,
    /// replay state). `chain_end`: the window after the last of them will
    /// not replay. Stale once `cur_window` moves off `chain_from` other
    /// than by entering the chain's first window.
    chain: VecDeque<(u64, u64, Replay)>,
    chain_from: u64,
    chain_end: bool,
    /// Gate-row window-successor tables plus this walk's folded gate RHS
    /// (`None` when replay is disabled).
    wtables: Option<(Arc<WindowTables>, u32)>,
    /// `cur_window`'s contiguous nonempty-window run extends to here; the
    /// next window before this bound is nonempty without a gate query.
    win_run_end: u64,
    /// The current window's span skeleton is fully consumed, so the next
    /// span starts in a *later* window and the window successor may jump.
    at_boundary: bool,
    /// Spans produced by the live generator (stats/test hook).
    pub live_spans: u64,
    /// Spans replayed from a cached skeleton (stats/test hook).
    pub replayed_spans: u64,
    /// Window boundaries crossed arithmetically (gate-row successor).
    pub window_jumps: u64,
    /// Window boundaries crossed by a full live successor scan.
    pub boundary_successors: u64,
    /// Skeleton-cache hits (windows replayed instead of walked).
    pub skeleton_hits: u64,
    /// Skeleton-cache misses (windows recorded on entry).
    pub skeleton_misses: u64,
    /// The key test of the walk's stretch queries, which also builds the
    /// stretch tables of the windows it records (see [`Skeleton`]).
    keys: Option<KeyTest>,
    /// Span key-equality tests evaluated for stretch queries, table builds
    /// included (host-side).
    pub key_tests: u64,
}

/// The replayed window: its skeleton and the index of the next span to
/// yield.
#[derive(Clone)]
struct Replay {
    skel: Arc<Skeleton>,
    ix: usize,
}

impl Replay {
    fn new(skel: Arc<Skeleton>) -> Self {
        Self { skel, ix: 1 }
    }
}

/// A skeleton's spans with their stretch table ([`stretch_runs`]) and the
/// page mask that clips it.
#[derive(Clone, Copy)]
struct Runs<'a> {
    spans: &'a [SkelSpan],
    page_mask: Option<u64>,
}

impl Runs<'_> {
    /// Following spans that repeat span `i`'s keys, pages aside.
    fn unpaged(&self, i: usize) -> usize {
        self.spans[i].run as usize
    }

    /// Following spans that repeat span `i`'s keys. Under paging the
    /// repeats must also lie in span `i`'s page, which must hold all of
    /// it: spans ascend, so that clips the table's run to a prefix. The
    /// window base cancels from both tests (it has no bit below the
    /// window's size), so offsets decide.
    fn run(&self, i: usize) -> usize {
        let n = self.unpaged(i);
        let Some(pm) = self.page_mask else { return n };
        let page = |s: &SkelSpan| (s.off as u64 * BLOCK_BYTES) & !pm;
        let first = &self.spans[i];
        if inside(&first.at(0)) & !pm != 0 {
            return 0;
        }
        self.spans[i + 1..=i + n].iter().take_while(|s| page(s) == page(first)).count()
    }

    /// Whether span `i` opens a stretch: [`Runs::run`]` > 0`.
    fn opens(&self, i: usize) -> bool {
        self.unpaged(i) > 0 && (self.page_mask.is_none() || self.run(i) > 0)
    }

    /// The largest head charge among the `n` spans after span `i`.
    fn max_iters(&self, i: usize, n: usize) -> u32 {
        self.spans[i + 1..=i + n].iter().map(|s| s.iters as u32).max().unwrap_or(0)
    }

    /// From span `from` on: the blocks to the end of the first span that
    /// may open a stretch — one the next span repeats, or the skeleton's
    /// last, whose stretch may run on into the next window — and how many
    /// spans repeat `from` itself (0 unless it opens one).
    fn next_stretch(&self, from: usize) -> (u64, u64) {
        let mut blocks = 0;
        let mut j = from;
        loop {
            blocks += self.spans[j].len as u64;
            if self.opens(j) || j + 1 == self.spans.len() {
                return (blocks, self.run(from) as u64);
            }
            j += 1;
        }
    }
}

/// A copy of the walk at its current position, for a caller that reads
/// ahead of it: the copy's span counters start at zero, and a copy whose
/// spans the walk will yield again hands its counts on or drops them
/// ([`SpanProgram::take_counters`]), so each span adds to the process-wide
/// counters once.
impl Clone for SpanProgram {
    fn clone(&self) -> Self {
        Self {
            agen: self.agen.clone(),
            hi_masks: self.hi_masks.clone(),
            shared: self.shared.clone(),
            replay: self.replay.clone(),
            chain: self.chain.clone(),
            wtables: self.wtables.clone(),
            keys: self.keys.clone(),
            live_spans: 0,
            replayed_spans: 0,
            window_jumps: 0,
            boundary_successors: 0,
            skeleton_hits: 0,
            skeleton_misses: 0,
            ..*self
        }
    }
}

impl Drop for SpanProgram {
    fn drop(&mut self) {
        add_agen_counters(&self.take_counters());
    }
}

impl SpanProgram {
    /// The walk's span counters, which start over at zero: what it adds
    /// to the process-wide counters on drop is only what it yields after.
    pub fn take_counters(&mut self) -> AgenCounters {
        AgenCounters {
            live_spans: std::mem::take(&mut self.live_spans),
            replayed_spans: std::mem::take(&mut self.replayed_spans),
            window_jumps: std::mem::take(&mut self.window_jumps),
            boundary_successors: std::mem::take(&mut self.boundary_successors),
            skeleton_hits: std::mem::take(&mut self.skeleton_hits),
            skeleton_misses: std::mem::take(&mut self.skeleton_misses),
        }
    }

    fn new(agen: StepStoneAgen) -> Self {
        let start = agen.last_pa;
        let sbits = &agen.tables.sbits;
        let mut enabled = !sbits.is_empty()
            && agen.cs.len() <= 20
            && !agen.uncached_corrector;
        // Window pivot: small enough that the range holds many windows (so
        // states recur and high constraint rows act as gates), large enough
        // that a window spans several contiguous runs; hard-capped so one
        // skeleton stays bounded.
        let pivot = if enabled {
            let lo = (sbits.first().expect("nonempty") + 1)
                .max(crate::geometry::BLOCK_SHIFT + 1);
            let hi = (sbits.last().expect("nonempty") + 1)
                .min(crate::geometry::BLOCK_SHIFT + SPAN_WINDOW_BLOCK_BITS);
            let range = agen.end.saturating_sub(start).max(1);
            let by_range =
                (63 - range.leading_zeros()).saturating_sub(SPAN_WINDOWS_PER_RANGE_BITS);
            if lo > hi {
                enabled = false;
                crate::geometry::BLOCK_SHIFT
            } else {
                by_range.clamp(lo, hi)
            }
        } else {
            crate::geometry::BLOCK_SHIFT
        };
        let window_bytes = 1u64 << pivot;
        // At least one full window must fit in [start, end).
        let w0 = start.div_ceil(window_bytes) * window_bytes;
        enabled = enabled && w0.checked_add(window_bytes).is_some_and(|e| e <= agen.end);
        let low_mask = window_bytes - 1;
        let hi_masks: Vec<u64> = agen.cs.iter().map(|c| c.mask & !low_mask).collect();
        let mut parity_bits = 0u32;
        for (i, c) in agen.cs.iter().enumerate() {
            parity_bits |= (c.parity as u32) << i;
        }
        let (shared, shared_in_cache) = if enabled {
            Self::shared_for(
                agen.cs.iter().map(|c| c.mask & low_mask).collect(),
                pivot,
                agen.rules,
            )
        } else {
            (Arc::new(SharedSkeletons::default()), false)
        };
        let wtables = if enabled {
            // The corrector tables' level range already covers every bit
            // the walk can visit; the gate scan shares that ceiling.
            let p_max =
                crate::geometry::BLOCK_SHIFT + agen.tables.levels.len() as u32 - 1;
            let wt = window_tables(&agen.cs, pivot, p_max);
            let rhs = wt.gate_rhs(parity_bits);
            Some((wt, rhs))
        } else {
            None
        };
        Self {
            agen,
            enabled,
            window_bytes,
            hi_masks,
            parity_bits,
            start,
            shared,
            shared_in_cache,
            cur_window: u64::MAX,
            replay: None,
            chain: VecDeque::new(),
            chain_from: u64::MAX,
            chain_end: false,
            wtables,
            win_run_end: 0,
            // A window-aligned start has no partial prefix window, so the
            // walk may enter its very first window through the window
            // successor (the common case for naturally aligned layouts —
            // at paper scale this removes the last live scan per walk).
            at_boundary: enabled && start.is_multiple_of(window_bytes),
            live_spans: 0,
            replayed_spans: 0,
            window_jumps: 0,
            boundary_successors: 0,
            skeleton_hits: 0,
            skeleton_misses: 0,
            keys: None,
            key_tests: 0,
        }
    }

    /// Answer stretch queries under `keys` ([`SpanProgram::stretch`]),
    /// building the stretch table of every window the walk records.
    pub fn with_keys(mut self, keys: KeyTest) -> Self {
        self.keys = Some(keys);
        self
    }

    /// The cache-resident skeleton store for a key, or a private one (not
    /// globally counted) once the key cap is reached.
    fn shared_for(
        low_masks: Vec<u64>,
        pivot: u32,
        rules: AgenRules,
    ) -> (Arc<SharedSkeletons>, bool) {
        let cache = span_program_cache();
        let key = (low_masks, pivot, rules);
        let mut programs = cache.programs.lock().expect("span cache poisoned");
        if let Some(s) = programs.get(&key) {
            return (Arc::clone(s), true);
        }
        let s = Arc::new(SharedSkeletons::default());
        if programs.len() < SPAN_PROGRAM_KEY_CAP {
            programs.insert(key, Arc::clone(&s));
            return (s, true);
        }
        (s, false)
    }

    /// Is skeleton replay active for this walk (false for degenerate or
    /// short-range systems, which keep the live walk)?
    pub fn replay_enabled(&self) -> bool {
        self.enabled
    }

    /// Residual parity state of an aligned window: each constraint's RHS
    /// after folding the window prefix.
    #[inline]
    fn state_of(&self, w: u64) -> u32 {
        let mut fold = 0u32;
        for (i, &m) in self.hi_masks.iter().enumerate() {
            fold |= ((w & m).count_ones() & 1) << i;
        }
        self.parity_bits ^ fold
    }

    /// Is `w`'s window entirely inside the walked range (so a skeleton can
    /// be recorded from or replayed into it without clipping)?
    #[inline]
    fn window_in_range(&self, w: u64) -> bool {
        w >= self.start && w + self.window_bytes <= self.agen.end
    }

    /// The replay window's size in bytes (`None` when replay is off).
    pub fn window_bytes(&self) -> Option<u64> {
        self.enabled.then_some(self.window_bytes)
    }

    /// Record window `w` of residual state `state`, which the walk just
    /// entered at its first satisfying address with span `first`: generate
    /// the rest of the window live, build the stretch table under the
    /// walk's key test, publish the skeleton unless the state is already
    /// recorded or the span budget is spent, and resume the live generator
    /// after `first`, so the window replays from the skeleton's second
    /// span.
    fn record(&mut self, w: u64, state: u32, first: &AgenSpan) -> Arc<Skeleton> {
        let end = w + self.window_bytes;
        let mut spans = vec![SkelSpan::new(w, first)];
        while let Some(span) = self.agen.next_span().filter(|s| s.start_pa < end) {
            spans.push(SkelSpan::new(w, &span));
        }
        self.live_spans += spans.len() as u64 - 1;
        self.agen.resume_after(first);
        let key = match &self.keys {
            Some(keys) => {
                stretch_runs(&mut spans, keys, &mut self.key_tests);
                keys.id()
            }
            None => u32::MAX,
        };
        let skel = Arc::new(Skeleton { spans, key });
        let n = skel.spans.len();
        let mut by_state = self.shared.by_state.lock().expect("skeleton map poisoned");
        // Another walk may have recorded the same state meanwhile (the
        // spans are identical by construction). Only cache-resident stores
        // count against the global span budget; a private (key-cap
        // overflow) store dies with the walk.
        if let Entry::Vacant(slot) = by_state.entry(state) {
            let cache = span_program_cache();
            let over = self.shared_in_cache
                && cache.cached_spans.fetch_add(n, Ordering::Relaxed) + n > SPAN_PROGRAM_SPAN_CAP;
            if over {
                cache.cached_spans.fetch_sub(n, Ordering::Relaxed);
            } else {
                slot.insert(Arc::clone(&skel));
            }
        }
        skel
    }

    fn lookup(&self, state: u32) -> Option<Arc<Skeleton>> {
        self.shared.by_state.lock().expect("skeleton map poisoned").get(&state).cloned()
    }

    /// The next nonempty aligned window after window `w` (`u64::MAX`: the
    /// walk's first), from the gate-row system, and the end of the
    /// nonempty-window run it lies in, given `w`'s (`run_end`); `None` when
    /// no nonempty window remains (or replay is off).
    fn locate_after(&self, w: u64, run_end: u64) -> Option<(u64, u64)> {
        let (wt, gate_rhs) = self.wtables.as_ref()?;
        if w == u64::MAX {
            // Walk start (window-aligned, so no partial prefix): the first
            // nonempty window at or after `start`.
            let w = if wt.satisfied(self.start, *gate_rhs) {
                self.start
            } else {
                wt.next_window(self.start, *gate_rhs)?
            };
            return Some((w, wt.run_end(w)));
        }
        let cand = w + self.window_bytes;
        if cand < run_end {
            return Some((cand, run_end));
        }
        let w2 = wt.next_window(w, *gate_rhs)?;
        Some((w2, wt.run_end(w2)))
    }

    /// The next window after `w` with its skeleton, when the window
    /// successor would replay it: fully in range, its state recorded.
    fn replayable_after(&self, w: u64, run_end: u64) -> Option<(u64, u64, Replay)> {
        let (next, run_end) = self.locate_after(w, run_end)?;
        if next + self.window_bytes > self.agen.end {
            return None;
        }
        Some((next, run_end, Replay::new(self.lookup(self.state_of(next))?)))
    }

    /// The `k`-th window after the current one (from 0), when the window
    /// successor will replay it and every window before it: found once and
    /// kept, with its skeleton, for [`SpanProgram::window_jump`].
    fn peek(&mut self, k: usize) -> Option<u64> {
        if self.chain_from != self.cur_window {
            self.chain.clear();
            self.chain_end = false;
            self.chain_from = self.cur_window;
        }
        while self.chain.len() <= k && !self.chain_end {
            let (w, run_end) = match self.chain.back() {
                Some(&(w, run_end, _)) => (w, run_end),
                None => (self.cur_window, self.win_run_end),
            };
            match self.replayable_after(w, run_end) {
                Some(next) => self.chain.push_back(next),
                None => self.chain_end = true,
            }
        }
        self.chain.get(k).map(|c| c.0)
    }

    /// Cross the consumed-window boundary arithmetically: enumerate the
    /// next nonempty aligned window from the gate-row system and replay
    /// its cached skeleton — *including* the window's first span, whose
    /// live-successor iteration charge is reconstructed by
    /// [`StepStoneAgen::boundary_iters`]. Returns `None` (deferring to the
    /// live walk) for the clipped tail, for a cold (unrecorded) window
    /// state, or when no nonempty window remains.
    fn window_jump(&mut self) -> Option<AgenSpan> {
        let peeked = match self.chain_from == self.cur_window {
            true => self.chain.pop_front(),
            false => None,
        };
        let (next_w, rep) = match peeked {
            Some((w, run_end, rep)) => {
                self.win_run_end = run_end;
                (w, rep)
            }
            None => {
                self.chain.clear();
                self.chain_end = false;
                let (w, run_end) = self.locate_after(self.cur_window, self.win_run_end)?;
                self.win_run_end = run_end;
                if w + self.window_bytes > self.agen.end {
                    return None;
                }
                (w, Replay::new(self.lookup(self.state_of(w))?))
            }
        };
        self.skeleton_hits += 1;
        let AgenSpan { start_pa: pa, len, .. } = rep.skel.spans[0].at(next_w);
        // The windows skipped over are empty (their gate rows fail), so
        // `pa` is the true successor of the previous span's last address —
        // or, before the first emission, the walk's first address (which
        // the live generator charges a single check when it is `start`
        // itself).
        let iterations = if !self.agen.started && pa == self.agen.last_pa {
            1
        } else {
            self.agen.boundary_iters(self.agen.last_pa, pa)
        };
        self.agen.started = true;
        self.cur_window = next_w;
        // The rest of the chain follows the window just entered.
        self.chain_from = next_w;
        self.agen.last_pa = pa + (len - 1) * BLOCK_BYTES;
        self.agen.cur = 0;
        self.agen.span_end = 0;
        self.window_jumps += 1;
        self.replayed_spans += 1;
        self.replay = Some(rep);
        Some(AgenSpan { start_pa: pa, len, iterations })
    }

    /// At a span boundary inside a replayed window, the stretch after the
    /// span just yielded, read off the skeletons' stretch tables under the
    /// walk's key test (`stretch_runs`): the spans of its window that
    /// repeat its keys and, each time they reach a window's end, the leading
    /// repeats of the next window, which one test of the actual spans
    /// decides (two windows' spans differ by the window bases' difference
    /// XOR their offsets', and the test is an equivalence); a stretch
    /// stops, unseen past, at a window whose skeleton has no table under
    /// the walk's mapping. `None` while the walk is live (a range edge or
    /// a degenerate system), has no key test, or replays a skeleton
    /// recorded under another mapping or none. A cold window answers from
    /// the table it records on entry.
    pub fn stretch(&mut self) -> Option<TableStretch> {
        let keys = self.keys.take()?;
        let st = self.stretch_under(&keys);
        self.keys = Some(keys);
        st
    }

    /// [`SpanProgram::stretch`] under `keys`.
    fn stretch_under(&mut self, keys: &KeyTest) -> Option<TableStretch> {
        let rep = self.replay.as_ref()?;
        let a = rep.ix - 1;
        let runs = rep.skel.runs(keys)?;
        let r = runs.spans[a].at(self.cur_window);
        let run = runs.run(a);
        let mut st = TableStretch {
            spans: run as u64,
            len: r.len,
            max_iters: runs.max_iters(a, run).max(1),
            after: 0,
            next: 0,
        };
        if a + run + 1 < runs.spans.len() {
            (st.after, st.next) = runs.next_stretch(a + run + 1);
            return Some(st);
        }
        let tail = |w: u64, spans: &[SkelSpan]| {
            let last = spans[spans.len() - 1].at(w);
            last.start_pa + (last.len - 1) * BLOCK_BYTES
        };
        let mut tail_pa = tail(self.cur_window, runs.spans);
        for k in 0.. {
            let Some(w) = self.peek(k) else { break };
            let Some(runs) = self.chain[k].2.skel.runs(keys) else { break };
            let first = runs.spans[0].at(w);
            let head = AgenSpan {
                iterations: self.agen.boundary_iters(tail_pa, first.start_pa),
                ..first
            };
            self.key_tests += 1;
            if !keys.same(&r, &head) {
                (st.after, st.next) = runs.next_stretch(0);
                break;
            }
            let run = runs.run(0);
            st.spans += 1 + run as u64;
            st.max_iters = st.max_iters.max(head.iterations).max(runs.max_iters(0, run));
            if run + 1 < runs.spans.len() {
                (st.after, st.next) = runs.next_stretch(run + 1);
                break;
            }
            tail_pa = tail(w, runs.spans);
        }
        Some(st)
    }

    /// Skip the next `n` spans, which [`SpanProgram::stretch`] promised, by
    /// index: the replay index moves past them — into the next window
    /// through the window successor, as [`Iterator::next`] would cross —
    /// and `visit` sees each skipped span. They count as replayed.
    pub fn skip_spans(&mut self, mut n: u64, mut visit: impl FnMut(&AgenSpan)) {
        while n > 0 {
            let window = self.cur_window;
            let rep = self.replay.as_mut().expect("a promised stretch replays");
            let left = rep.skel.spans.len() - rep.ix;
            if left == 0 {
                self.replay = None;
                let span = self.window_jump().expect("a promised next window replays");
                visit(&span);
                n -= 1;
                continue;
            }
            let k = (n as usize).min(left);
            let spans = &rep.skel.spans[rep.ix..rep.ix + k];
            spans.iter().for_each(|s| visit(&s.at(window)));
            // Keep the live generator's successor base in sync, as `next`
            // does for every replayed span.
            self.agen.resume_after(&spans[k - 1].at(window));
            rep.ix += k;
            n -= k as u64;
            self.replayed_spans += k as u64;
        }
    }
}

impl Iterator for SpanProgram {
    type Item = AgenSpan;

    fn next(&mut self) -> Option<AgenSpan> {
        if let Some(rep) = &mut self.replay {
            if let Some(s) = rep.skel.spans.get(rep.ix) {
                rep.ix += 1;
                let span = s.at(self.cur_window);
                // Keep the live generator's successor base in sync so the
                // next boundary crossing scans from the true predecessor.
                self.agen.resume_after(&span);
                self.replayed_spans += 1;
                return Some(span);
            }
            self.replay = None;
            // The replayed window is fully consumed: the next span starts
            // in a later window, which the gate system can locate without
            // a live corrector scan.
            self.at_boundary = true;
        }
        if self.at_boundary {
            self.at_boundary = false;
            if let Some(span) = self.window_jump() {
                return Some(span);
            }
        }
        let span = self.agen.next_span()?;
        self.live_spans += 1;
        if self.enabled {
            let w = span.start_pa & !(self.window_bytes - 1);
            if w != self.cur_window {
                self.boundary_successors += 1;
                self.cur_window = w;
                // The walk enters a fully-in-range window at its first
                // satisfying address: replay the window's skeleton from its
                // second span, recording it first if it is cold.
                if self.window_in_range(w) {
                    let state = self.state_of(w);
                    let skel = match self.lookup(state) {
                        Some(skel) => {
                            self.skeleton_hits += 1;
                            skel
                        }
                        None => {
                            self.skeleton_misses += 1;
                            self.record(w, state, &span)
                        }
                    };
                    debug_assert_eq!(skel.spans[0].at(w).start_pa, span.start_pa);
                    debug_assert_eq!(skel.spans[0].len as u64, span.len);
                    self.replay = Some(Replay::new(skel));
                }
            }
        }
        Some(span)
    }
}

/// Per-block view of a [`SpanProgram`]: the [`AgenStep`] stream of the
/// underlying walk, with replayed spans unrolled by a counter. Drop-in for
/// iterating a [`StepStoneAgen`] directly, at the span program's cost.
pub struct ProgramSteps {
    prog: SpanProgram,
    cur: u64,
    remaining: u64,
    first_iters: u32,
}

impl Iterator for ProgramSteps {
    type Item = AgenStep;

    fn next(&mut self) -> Option<AgenStep> {
        if self.remaining == 0 {
            let span = self.prog.next()?;
            self.cur = span.start_pa;
            self.remaining = span.len;
            self.first_iters = span.iterations;
        }
        let pa = self.cur;
        self.cur += BLOCK_BYTES;
        self.remaining -= 1;
        let iterations =
            if self.first_iters != 0 { std::mem::take(&mut self.first_iters) } else { 1 };
        Some(AgenStep { pa, iterations })
    }
}

impl SpanProgram {
    /// Flatten the span stream back to per-block [`AgenStep`]s.
    pub fn steps(self) -> ProgramSteps {
        ProgramSteps { prog: self, cur: 0, remaining: 0, first_iters: 0 }
    }
}

/// Compress ascending ID-affecting bit positions into hardware iteration
/// units per the active rules. Without rules every bit is its own unit;
/// rule 1 merges an adjacent pair feeding the same ID bit; rule 2 merges a
/// contiguous chain of bits feeding pairwise different ID bits; with both
/// rules any contiguous run collapses to one unit.
fn compress_units(cs: &[ParityConstraint], sbits: &[u32], rules: AgenRules) -> Vec<u32> {
    let share_mask = |a: u32, b: u32| {
        cs.iter().any(|c| c.mask >> a & 1 == 1 && c.mask >> b & 1 == 1)
    };
    let mut unit_starts = Vec::new();
    let mut prev: Option<u32> = None;
    for &b in sbits {
        let merged = match prev {
            Some(p) if b == p + 1 => {
                let same = share_mask(p, b);
                (same && rules.instant_correction) || (!same && rules.carry_forwarding)
            }
            _ => false,
        };
        if !merged {
            unit_starts.push(b);
        }
        prev = Some(b);
    }
    unit_starts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groups::GroupAnalysis;
    use crate::layout::MatrixLayout;
    use crate::pimlevel::PimLevel;
    use crate::presets::{mapping_by_id, MappingId};

    fn collect_both(
        cs: &[ParityConstraint],
        start: u64,
        end: u64,
    ) -> (Vec<AgenStep>, Vec<AgenStep>) {
        let naive: Vec<_> = NaiveAgen::new(cs.to_vec(), start, end).collect();
        let fast: Vec<_> = StepStoneAgen::new(cs.to_vec(), start, end).collect();
        (naive, fast)
    }

    #[test]
    fn unconstrained_walks_every_block() {
        let (naive, fast) = collect_both(&[], 0, 1024);
        assert_eq!(naive.len(), 16);
        assert_eq!(fast.len(), 16);
        for (i, (n, f)) in naive.iter().zip(&fast).enumerate() {
            assert_eq!(n.pa, i as u64 * 64);
            assert_eq!(n.pa, f.pa);
            assert_eq!(f.iterations, 1);
        }
    }

    #[test]
    fn single_bit_constraint() {
        let cs = vec![ParityConstraint { mask: 1 << 6, parity: true }];
        let (naive, fast) = collect_both(&cs, 0, 64 * 16);
        let pas: Vec<u64> = naive.iter().map(|s| s.pa).collect();
        assert_eq!(pas, vec![64, 192, 320, 448, 576, 704, 832, 960]);
        assert_eq!(pas, fast.iter().map(|s| s.pa).collect::<Vec<_>>());
    }

    #[test]
    fn xor_constraint_sequences_match() {
        // BG0-style constraint: b7 ⊕ b14 = 0.
        let cs = vec![ParityConstraint { mask: (1 << 7) | (1 << 14), parity: false }];
        let (naive, fast) = collect_both(&cs, 0, 1 << 16);
        assert!(!naive.is_empty());
        assert_eq!(
            naive.iter().map(|s| s.pa).collect::<Vec<_>>(),
            fast.iter().map(|s| s.pa).collect::<Vec<_>>()
        );
        // Exactly half the blocks satisfy a single XOR parity.
        assert_eq!(naive.len(), 1 << 9);
    }

    #[test]
    fn matches_naive_on_real_pim_group_walk() {
        let m = mapping_by_id(MappingId::Skylake);
        let layout = MatrixLayout::new_f32(0, 64, 1024);
        for level in PimLevel::ALL {
            let ga = GroupAnalysis::analyze(&m, level, layout);
            let pim = ga.active_pims()[0];
            for g in 0..ga.n_groups() {
                if !ga.is_admissible(pim, g) {
                    continue;
                }
                let cs = ga.constraints_for(pim, g);
                let (naive, fast) = collect_both(&cs, layout.base, layout.end());
                assert_eq!(
                    naive.iter().map(|s| s.pa).collect::<Vec<_>>(),
                    fast.iter().map(|s| s.pa).collect::<Vec<_>>(),
                    "{level:?} group {g}"
                );
                // The walk covers exactly the (pim, group) blocks.
                let expect = ga.local_cols_per_group() * ga.rows_of_group(g).len() as u64;
                assert_eq!(naive.len() as u64, expect);
            }
        }
    }

    #[test]
    fn stepstone_iterations_bounded_by_units() {
        let m = mapping_by_id(MappingId::Skylake);
        let layout = MatrixLayout::new_f32(0, 256, 4096);
        let ga = GroupAnalysis::analyze(&m, PimLevel::BankGroup, layout);
        let pim = ga.active_pims()[0];
        let g = (0..ga.n_groups()).find(|&g| ga.is_admissible(pim, g)).unwrap();
        let cs = ga.constraints_for(pim, g);
        let agen = StepStoneAgen::new(cs.clone(), layout.base, layout.end());
        let bound = agen.unit_count() as u32 + 1;
        let mut worst_naive = 0;
        for (f, n) in agen.zip(NaiveAgen::new(cs, layout.base, layout.end())) {
            assert!(f.iterations <= bound, "{} > {bound}", f.iterations);
            worst_naive = worst_naive.max(n.iterations);
        }
        // The naive generator needs long scans somewhere in the walk.
        assert!(worst_naive as usize > bound as usize);
    }

    #[test]
    fn rules_reduce_unit_count() {
        let m = mapping_by_id(MappingId::Skylake);
        let layout = MatrixLayout::new_f32(0, 1024, 4096);
        let ga = GroupAnalysis::analyze(&m, PimLevel::BankGroup, layout);
        let pim = ga.active_pims()[0];
        let g = (0..ga.n_groups()).find(|&g| ga.is_admissible(pim, g)).unwrap();
        let cs = ga.constraints_for(pim, g);
        let full = StepStoneAgen::with_rules(cs.clone(), 0, 64, AgenRules::default());
        let none = StepStoneAgen::with_rules(cs.clone(), 0, 64, AgenRules::NONE);
        assert!(full.unit_count() < none.unit_count());
        // Without rules, one unit per ID-affecting bit.
        assert_eq!(none.unit_count(), none.tables.sbits.len());
    }

    #[test]
    fn unsatisfiable_constraints_yield_empty_walks() {
        // Contradictory parities on the same mask: no address matches.
        let cs = vec![
            ParityConstraint { mask: 1 << 8, parity: true },
            ParityConstraint { mask: 1 << 8, parity: false },
        ];
        let fast: Vec<_> = StepStoneAgen::new(cs.clone(), 0, 1 << 20).collect();
        assert!(fast.is_empty());
        let naive: Vec<_> = NaiveAgen::new(cs, 0, 1 << 20).collect();
        assert!(naive.is_empty());
    }

    #[test]
    fn open_ended_walk_near_u64_top_does_not_overflow() {
        // An effectively unbounded walk (end ≥ 2^62) must not shift-
        // overflow while preparing corrector levels; the first addresses
        // still match the naive generator.
        let cs = vec![ParityConstraint { mask: (1 << 7) | (1 << 14), parity: true }];
        let fast: Vec<u64> = StepStoneAgen::new(cs.clone(), 0, u64::MAX >> 1)
            .take(64)
            .map(|s| s.pa)
            .collect();
        let naive: Vec<u64> =
            NaiveAgen::new(cs, 0, u64::MAX >> 1).take(64).map(|s| s.pa).collect();
        assert_eq!(fast, naive);
    }

    #[test]
    fn start_at_valid_address_is_emitted() {
        let cs = vec![ParityConstraint { mask: 1 << 7, parity: false }];
        let fast: Vec<_> = StepStoneAgen::new(cs.clone(), 0, 256).collect();
        assert_eq!(fast[0].pa, 0, "a satisfying start address must be emitted");
        let naive: Vec<_> = NaiveAgen::new(cs, 0, 256).collect();
        assert_eq!(naive[0].pa, 0);
    }

    fn spans_of(cs: &[ParityConstraint], start: u64, end: u64) -> Vec<AgenSpan> {
        StepStoneAgen::new(cs.to_vec(), start, end).spans().collect()
    }

    #[test]
    fn span_program_replays_real_pim_walks_exactly() {
        let m = mapping_by_id(MappingId::Skylake);
        let layout = MatrixLayout::new_f32(0, 256, 2048);
        for level in PimLevel::ALL {
            let ga = GroupAnalysis::analyze(&m, level, layout);
            for &pim in ga.active_pims().iter().take(4) {
                for g in 0..ga.n_groups() {
                    if !ga.is_admissible(pim, g) {
                        continue;
                    }
                    let cs = ga.constraints_for(pim, g);
                    let live = spans_of(&cs, layout.base, layout.end());
                    let prog: Vec<AgenSpan> =
                        StepStoneAgen::new(cs, layout.base, layout.end())
                            .span_program()
                            .collect();
                    assert_eq!(live, prog, "{level:?} pim {pim} group {g}");
                }
            }
        }
    }

    #[test]
    fn span_program_warm_walk_actually_replays() {
        // A small-period system over a multi-window range: the second walk
        // with the same key must replay, and still match the live stream.
        let cs = vec![
            ParityConstraint { mask: (1 << 7) | (1 << 9), parity: true },
            ParityConstraint { mask: (1 << 8) | (1 << 11), parity: false },
        ];
        let end = 1 << 16;
        let cold: Vec<AgenSpan> =
            StepStoneAgen::new(cs.clone(), 0, end).span_program().collect();
        let mut warm = StepStoneAgen::new(cs.clone(), 0, end).span_program();
        assert!(warm.replay_enabled());
        let warm_spans: Vec<AgenSpan> = warm.by_ref().collect();
        assert_eq!(cold, warm_spans);
        assert_eq!(warm_spans, spans_of(&cs, 0, end));
        // Every span beyond a window's first replays from the cache (the
        // first is the live boundary successor).
        assert!(
            warm.replayed_spans >= warm.live_spans && warm.replayed_spans > 0,
            "warm walk must replay window interiors ({} replayed, {} live)",
            warm.replayed_spans,
            warm.live_spans
        );
    }

    #[test]
    fn span_program_unaligned_start_and_truncated_end_stay_exact() {
        let cs = vec![
            ParityConstraint { mask: (1 << 7) | (1 << 10), parity: false },
            ParityConstraint { mask: 1 << 9, parity: true },
        ];
        // Starts not aligned to the 2^11 window, ends mid-window and
        // mid-block-run; every variant must match the live stream.
        for start_blk in [0u64, 1, 7, 31, 33] {
            for end in [1 << 15, (1 << 15) + 192, (1 << 15) + 64 * 13] {
                let start = start_blk * BLOCK_BYTES;
                let live = spans_of(&cs, start, end);
                let prog: Vec<AgenSpan> = StepStoneAgen::new(cs.clone(), start, end)
                    .span_program()
                    .collect();
                assert_eq!(live, prog, "start {start} end {end}");
            }
        }
    }

    #[test]
    fn span_program_degenerate_systems_fall_back_to_live() {
        // Unconstrained: one giant run, nothing to cache.
        let p = StepStoneAgen::new(vec![], 0, 1 << 20).span_program();
        assert!(!p.replay_enabled());
        assert_eq!(p.count(), 1);
        // Range shorter than one window (2^(lowest sbit + 1) = 256 B here):
        // live walk.
        let cs = vec![ParityConstraint { mask: (1 << 7) | (1 << 12), parity: true }];
        let p = StepStoneAgen::new(cs.clone(), 0, 192).span_program();
        assert!(!p.replay_enabled());
        assert_eq!(p.map(|s| s.start_pa).collect::<Vec<_>>(), spans_of(&cs, 0, 192)
            .iter()
            .map(|s| s.start_pa)
            .collect::<Vec<_>>());
        // Unsatisfiable: empty either way.
        let cs = vec![
            ParityConstraint { mask: 1 << 8, parity: true },
            ParityConstraint { mask: 1 << 8, parity: false },
        ];
        assert_eq!(StepStoneAgen::new(cs, 0, 1 << 20).span_program().count(), 0);
    }

    #[test]
    fn span_program_shares_skeletons_across_parities() {
        // Two PIM parities with the same masks explore disjoint residual
        // states but share one skeleton store; both must stay exact.
        let masks = [(1u64 << 7) | (1 << 13), (1u64 << 8) | (1 << 12)];
        for parity_bits in 0..4u32 {
            let cs: Vec<ParityConstraint> = masks
                .iter()
                .enumerate()
                .map(|(i, &mask)| ParityConstraint { mask, parity: parity_bits >> i & 1 == 1 })
                .collect();
            let live = spans_of(&cs, 0, 1 << 17);
            let prog: Vec<AgenSpan> =
                StepStoneAgen::new(cs, 0, 1 << 17).span_program().collect();
            assert_eq!(live, prog, "parities {parity_bits:#b}");
        }
    }

    #[test]
    fn stretch_tables_answer_only_the_recording_mapping() {
        // A skeleton answers stretch queries only under the mapping of the
        // walk that recorded it: a walk under another mapping, or one
        // replaying skeletons a keyless walk recorded, gets `None` (it
        // promises nothing there) while the spans stay exact.
        let skylake = KeyTest::new(&mapping_by_id(MappingId::Skylake), None);
        let haswell = KeyTest::new(&mapping_by_id(MappingId::Haswell), None);
        // (answered, replayed) boundaries of a walk over `cs`.
        let walk = |cs: &[ParityConstraint], keys: Option<&KeyTest>| {
            let end = 1 << 17;
            let mut p = StepStoneAgen::new(cs.to_vec(), 0, end).span_program();
            if let Some(keys) = keys {
                p = p.with_keys(keys.clone());
            }
            let (mut spans, mut answered) = (Vec::new(), 0);
            while let Some(span) = p.next() {
                spans.push(span);
                answered += p.stretch().is_some() as u64;
            }
            assert_eq!(spans, spans_of(cs, 0, end));
            (answered, p.replayed_spans)
        };
        // Two systems whose masks differ below the 2^11 window, so two
        // skeleton stores (the store is keyed by those low bits).
        let cs = |a: u32, b: u32| {
            [(1u64 << a) | (1 << 14), (1u64 << b) | (1 << 12)]
                .map(|mask| ParityConstraint { mask, parity: false })
        };
        // Recorded under Skylake: warm Skylake walks answer, Haswell not.
        walk(&cs(6, 9), Some(&skylake));
        let (answered, replayed) = walk(&cs(6, 9), Some(&skylake));
        assert!(answered > 0 && replayed > 0, "{answered} of {replayed}");
        assert_eq!(walk(&cs(6, 9), Some(&haswell)).0, 0);
        // Recorded by a keyless walk: no keyed walk reads a table.
        walk(&cs(7, 10), None);
        let (answered, replayed) = walk(&cs(7, 10), Some(&skylake));
        assert!(answered == 0 && replayed > 0, "{answered} of {replayed}");
    }

    #[test]
    fn partitioned_walk_skips_other_partitions() {
        use crate::groups::partition_constraints;
        let m = mapping_by_id(MappingId::Skylake);
        let layout = MatrixLayout::new_f32(0, 64, 1024);
        let ga = GroupAnalysis::analyze(&m, PimLevel::Device, layout);
        let pim = ga.active_pims()[0];
        let g = (0..ga.n_groups()).find(|&g| ga.is_admissible(pim, g)).unwrap();
        let mut seen = Vec::new();
        for part in 0..4u32 {
            let mut cs = ga.constraints_for(pim, g);
            cs.extend(partition_constraints(layout.mcol_mask(), 4, part));
            let walk: Vec<_> = StepStoneAgen::new(cs, layout.base, layout.end()).collect();
            assert!(!walk.is_empty());
            seen.extend(walk.iter().map(|s| s.pa));
        }
        // The four column partitions exactly tile the unpartitioned walk.
        let full: Vec<u64> = StepStoneAgen::new(ga.constraints_for(pim, g), 0, layout.end())
            .map(|s| s.pa)
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, full);
    }
}
