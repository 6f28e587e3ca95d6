//! Lazy per-PIM region plans (the streaming replacement for materialized
//! region address lists).
//!
//! A PIM's localized `B`/partial-`C` region is "the first *N* cache blocks
//! at or above the arena base whose PIM-ID parities match the unit" — an
//! ascending walk of the solution set of a small GF(2) parity system, the
//! same set [`StepStoneAgen`] enumerates. The seed materialized that walk
//! into a `Vec<u64>` per PIM (O(matrix footprint) resident addresses, just
//! moved from steps to addresses). [`RegionPlan`] stores the *pattern*
//! instead of the addresses:
//!
//! * The satisfying set is periodic with period `2^(h+1)` (h = highest
//!   constrained PA bit): adding the period flips no constrained bit.
//! * Within a period it is a GF(2) coset, so per bit position we can count
//!   satisfying blocks in an aligned sub-window for each residual parity
//!   state (≤ `2^constraints` states). That table supports O(address bits)
//!   rank/select — exact indexed lookup of the i-th region block — in
//!   O(address bits × 2^constraints) resident words, independent of the
//!   region's block count.
//!
//! Sequential consumers ([`RegionPlan::iter`]) additionally exploit the
//! span structure surfaced by [`StepStoneAgen::spans`]: inside a
//! contiguous run (no constrained bit changes) the next address is a plain
//! block increment, so select() runs once per span, not once per block.
//!
//! Every count the descent divides by is 0 or a power of two. The blocks
//! of an aligned window that leave residual state `s` are the preimage of
//! `s` under a linear GF(2) map (block bits → constraint parities), so
//! they are empty or a coset of the map's kernel: `counts[i][s]` is 0 or
//! `2^dim(kernel)`. A level's `pair` (`counts[i][s] + counts[i][s ^ δ]`)
//! and the per-period count add two such cosets of one kernel, and the
//! period is a power of two by construction. rank/select therefore split
//! indices with shifts and masks, never `/` or `%`.

use crate::agen::{satisfies, ParityConstraint, StepStoneAgen};
use crate::geometry::{BLOCK_BYTES, BLOCK_SHIFT};
use crate::mapping::XorMapping;
use std::sync::OnceLock;

/// Largest pattern for which [`RegionPlan`] builds the per-period offset
/// table (16 Ki offsets = 128 KiB). Above this, cursors fall back to the
/// per-run rank/select descent.
const PERIOD_CACHE_CAP: u64 = 1 << 14;

/// Succinct rank/select representation of one carved region: the first
/// `len` satisfying block addresses at or above an arena base, in
/// ascending order, without materializing them.
///
/// Only *constrained* bit positions get a counting level; runs of free
/// bits between them are handled with plain chunk arithmetic, so resident
/// storage is O(constrained bits × 2^constraints).
#[derive(Debug, Clone)]
pub struct RegionPlan {
    /// Cleaned constraints (block-offset bits masked away; trivial rows
    /// dropped) — kept for debug assertions and span detection.
    cs: Vec<ParityConstraint>,
    /// Ascending constrained PA bit positions (union of the masks).
    pbits: Vec<u32>,
    /// `deltas[i]`: constraint-state flip when bit `pbits[i]` is set
    /// (bit j set iff constraint j's mask covers that PA bit).
    deltas: Vec<u32>,
    /// `counts[i][s]`: satisfying blocks in an aligned `2^pbits[i]`-byte
    /// window whose residual parity requirement over the constrained bits
    /// below `pbits[i]` is the state bitset `s`.
    counts: Vec<Vec<u64>>,
    /// Required parity state at the top of the descent.
    target: u32,
    /// Pattern period in bytes (`2^(h+1)`; one block when unconstrained).
    period: u64,
    /// Satisfying blocks per period.
    per_period: u64,
    /// Satisfying blocks below the arena base (global select offset).
    base_rank: u64,
    /// Arena base the region was carved from.
    arena: u64,
    /// Contiguous-run span in bytes (`1 << lowest constrained bit`);
    /// `u64::MAX` when unconstrained (one unbounded run).
    run_bytes: u64,
    len: u64,
    /// Lazily built offset table for the hot path: the satisfying set is
    /// periodic, so `select(m) = (m / per_period) · period +
    /// offsets[m % per_period]` — one descent per *residue*, ever, instead
    /// of one per run. Built on first use when `per_period ≤
    /// PERIOD_CACHE_CAP` and shared by every cursor of the plan.
    period_offsets: OnceLock<Vec<u64>>,
}

impl RegionPlan {
    /// Plan the first `count` satisfying blocks at or above `arena`
    /// (block-aligned). Exactly equivalent to
    /// `StepStoneAgen::new(cs, arena, ∞).take(count)` addresses.
    pub fn carve(cs: Vec<ParityConstraint>, arena: u64, count: u64) -> Self {
        debug_assert_eq!(arena % BLOCK_BYTES, 0, "arena must be block-aligned");
        let mut clean = Vec::with_capacity(cs.len());
        let mut unsat = false;
        for c in cs {
            let mask = c.mask & !(BLOCK_BYTES - 1);
            if mask == 0 {
                // Block addresses never set offset bits: the constraint is
                // a constant — vacuous if even parity, unsatisfiable if odd.
                unsat |= c.parity;
            } else {
                clean.push(ParityConstraint { mask, parity: c.parity });
            }
        }
        let n = clean.len();
        assert!(n <= 16, "region constraint systems are small (got {n})");
        let union: u64 = clean.iter().fold(0, |u, c| u | c.mask);
        let mut pbits = Vec::new();
        let mut u = union;
        while u != 0 {
            pbits.push(u.trailing_zeros());
            u &= u - 1;
        }
        let states = 1usize << n;
        let deltas: Vec<u32> = pbits
            .iter()
            .map(|&p| {
                let mut d = 0u32;
                for (j, c) in clean.iter().enumerate() {
                    d |= ((c.mask >> p & 1) as u32) << j;
                }
                d
            })
            .collect();
        // counts[0]: a window below the lowest constrained bit is entirely
        // free — all `2^(p_0 - BLOCK_SHIFT)` blocks satisfy iff no parity
        // is still owed.
        let mut counts = Vec::with_capacity(pbits.len());
        if let Some(&p0) = pbits.first() {
            let mut row = vec![0u64; states];
            row[0] = 1u64 << (p0 - BLOCK_SHIFT);
            counts.push(row);
            for i in 0..pbits.len() - 1 {
                let free = pbits[i + 1] - pbits[i] - 1;
                let prev = &counts[i];
                let next: Vec<u64> = (0..states)
                    .map(|s| (prev[s] + prev[s ^ deltas[i] as usize]) << free)
                    .collect();
                counts.push(next);
            }
        }
        let mut target = 0u32;
        for (j, c) in clean.iter().enumerate() {
            target |= (c.parity as u32) << j;
        }
        let (period, per_period) = match pbits.last() {
            Some(&h) => {
                let t = pbits.len() - 1;
                let top = &counts[t];
                (
                    BLOCK_BYTES << (h + 1 - BLOCK_SHIFT),
                    top[target as usize] + top[(target ^ deltas[t]) as usize],
                )
            }
            None => (BLOCK_BYTES, 1),
        };
        let per_period = if unsat { 0 } else { per_period };
        debug_assert!(
            counts
                .iter()
                .flatten()
                .chain([&per_period])
                .all(|&c| c & c.wrapping_sub(1) == 0),
            "window counts are coset sizes: 0 or a power of two"
        );
        assert!(
            count == 0 || per_period > 0,
            "cannot carve {count} blocks from an unsatisfiable region"
        );
        let mut plan = Self {
            run_bytes: if union == 0 { u64::MAX } else { 1 << union.trailing_zeros() },
            cs: clean,
            pbits,
            deltas,
            counts,
            target,
            period,
            per_period,
            base_rank: 0,
            arena,
            len: count,
            period_offsets: OnceLock::new(),
        };
        plan.base_rank = plan.rank(arena);
        plan
    }

    /// Number of blocks in the region.
    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resident `u64`-equivalent words this plan holds (the benchmark's
    /// "resident region addresses" figure; a materialized region holds
    /// `len()` words).
    pub fn resident_words(&self) -> u64 {
        self.counts.iter().map(|row| row.len() as u64).sum::<u64>()
            + self.pbits.len() as u64
            + self.deltas.len() as u64
            + self.cs.len() as u64
            + self.period_offsets.get().map_or(0, |v| v.len() as u64)
    }

    /// The per-residue offset table (see `period_offsets`), or `None` when
    /// the pattern is too large to cache — or larger than the region it
    /// would serve: a sub-paper-scale region of `len` blocks only ever
    /// touches ~`len` residues, so building a full-period table would cost
    /// more select() descents than it saves (cursors then amortize one
    /// descent per contiguous run instead).
    fn offsets(&self) -> Option<&[u64]> {
        if self.per_period == 0 || self.per_period > PERIOD_CACHE_CAP || self.per_period > self.len
        {
            return None;
        }
        Some(self.period_offsets.get_or_init(|| {
            let mut offs = Vec::with_capacity(self.per_period as usize);
            self.walk_period(&mut |a| offs.push(a));
            offs
        }))
    }

    /// Visit the satisfying blocks of the first period instance in
    /// ascending order — `select(0)`, …, `select(per_period - 1)` — as one
    /// depth-first walk of the counting levels instead of a descent per
    /// block.
    fn walk_period(&self, f: &mut impl FnMut(u64)) {
        if self.per_period > 0 {
            self.walk_level(
                self.pbits.len(),
                self.target,
                0,
                self.period.trailing_zeros(),
                f,
            );
        }
    }

    /// [`RegionPlan::walk_period`] below the top `level` constrained bits:
    /// every satisfying block of the aligned `2^window_top`-byte window at
    /// `prefix` whose residual parity state is `s`.
    fn walk_level(
        &self,
        level: usize,
        s: u32,
        prefix: u64,
        window_top: u32,
        f: &mut impl FnMut(u64),
    ) {
        let Some(i) = level.checked_sub(1) else {
            // Below the lowest constrained bit every block satisfies.
            debug_assert_eq!(s, self.tail_state());
            for j in 0..1u64 << (window_top - BLOCK_SHIFT) {
                f(prefix | j << BLOCK_SHIFT);
            }
            return;
        };
        let p = self.pbits[i];
        let flipped = s ^ self.deltas[i];
        let (stay, flip) = (
            self.counts[i][s as usize] > 0,
            self.counts[i][flipped as usize] > 0,
        );
        for chunk in 0..1u64 << (window_top - p - 1) {
            let base = prefix | chunk << (p + 1);
            if stay {
                self.walk_level(i, s, base, p, f);
            }
            if flip {
                self.walk_level(i, flipped, base | 1 << p, p, f);
            }
        }
    }

    /// Address of the `m`-th satisfying block: one lookup in the period
    /// offset table when it exists, else a select() descent.
    #[inline]
    fn addr_of(&self, m: u64) -> u64 {
        match self.offsets() {
            Some(offs) => {
                let shift = self.per_period.trailing_zeros();
                ((m >> shift) << self.period.trailing_zeros())
                    + offs[(m & (self.per_period - 1)) as usize]
            }
            None => self.select(m),
        }
    }

    /// Satisfying blocks with address strictly below `x`.
    fn rank(&self, x: u64) -> u64 {
        let mut window_top = self.period.trailing_zeros();
        let mut acc = (x >> window_top) * self.per_period;
        let r = x & (self.period - 1);
        let mut s = self.target;
        for i in (0..self.pbits.len()).rev() {
            let p = self.pbits[i];
            // Free bits strictly between p and the window top: each value
            // below ours contributes one full 2^(p+1) chunk of blocks.
            let free_val = (r >> (p + 1)) & ((1u64 << (window_top - p - 1)) - 1);
            let pair =
                self.counts[i][s as usize] + self.counts[i][(s ^ self.deltas[i]) as usize];
            acc += free_val * pair;
            if r >> p & 1 == 1 {
                acc += self.counts[i][s as usize];
                s ^= self.deltas[i];
            }
            window_top = p;
        }
        // The fully-free tail below the lowest constrained bit.
        if s == self.tail_state() {
            acc += (r & ((1u64 << window_top) - 1)) >> BLOCK_SHIFT;
        }
        acc
    }

    /// Address of the `m`-th satisfying block (global, 0-indexed from
    /// address 0).
    fn select(&self, m: u64) -> u64 {
        debug_assert!(self.per_period.is_power_of_two());
        let mut window_top = self.period.trailing_zeros();
        let mut r = m & (self.per_period - 1);
        let mut addr = (m >> self.per_period.trailing_zeros()) << window_top;
        let mut s = self.target;
        for i in (0..self.pbits.len()).rev() {
            let p = self.pbits[i];
            let pair =
                self.counts[i][s as usize] + self.counts[i][(s ^ self.deltas[i]) as usize];
            debug_assert!(pair.is_power_of_two(), "level {i} state {s}: pair {pair}");
            let chunk = r >> pair.trailing_zeros();
            r &= pair - 1;
            debug_assert!(chunk < (1u64 << (window_top - p - 1)));
            addr |= chunk << (p + 1);
            let left = self.counts[i][s as usize];
            if r >= left {
                r -= left;
                addr |= 1u64 << p;
                s ^= self.deltas[i];
            }
            window_top = p;
        }
        debug_assert!(s == self.tail_state(), "descent must discharge every parity");
        addr |= r << BLOCK_SHIFT;
        debug_assert!(satisfies(addr, &self.cs));
        addr
    }

    /// The only satisfiable residual state once all constrained bits are
    /// fixed: every parity discharged.
    #[inline]
    fn tail_state(&self) -> u32 {
        0
    }

    /// Number of satisfying blocks — counted globally from address 0, the
    /// index space of [`RegionIter::pos_rank`] — with address strictly
    /// below `x`. This is the page-clipping primitive: the number of
    /// upcoming region blocks a cursor can touch before crossing a page
    /// boundary at `x` is `rank_below(x) - pos_rank()`.
    pub fn rank_below(&self, x: u64) -> u64 {
        self.rank(x)
    }

    /// Address of the `ix`-th region block — O(address bits), no lookup
    /// table proportional to the region.
    pub fn get(&self, ix: u64) -> u64 {
        assert!(ix < self.len, "region index {ix} out of bounds ({})", self.len);
        self.select(self.base_rank + ix)
    }

    /// Lazy ascending iteration over all region blocks.
    pub fn iter(&self) -> RegionIter<'_> {
        self.iter_range(0, self.len)
    }

    /// Lazy ascending iteration over region indices `[lo, hi)`.
    pub fn iter_range(&self, lo: u64, hi: u64) -> RegionIter<'_> {
        assert!(lo <= hi && hi <= self.len, "bad region range {lo}..{hi} of {}", self.len);
        RegionIter { plan: self, ix: lo, end: hi, next_addr: None }
    }

    /// Materialize the whole region via the plan's own cursors (tests).
    pub fn to_vec(&self) -> Vec<u64> {
        self.iter().collect()
    }

    /// Precompute the region's same-window-key run boundaries: maximal
    /// stretches of *consecutive region blocks* whose DRAM coordinates
    /// agree on everything but the column (same bank index and row — one
    /// FR-FCFS window key). Returns `None` when the pattern is too large
    /// to tabulate (`per_period > PERIOD_CACHE_CAP`).
    ///
    /// Correctness rests on two linearity facts. `select(m) = q·period +
    /// off[m mod per_period]` with `period` a power of two and `off <
    /// period`, so two blocks of the *same* period instance differ by
    /// `off_i ^ off_j`. And the mapping's decode is XOR-linear
    /// (`decode(a ^ b) = decode(a) ^ decode(b)` fieldwise), so their
    /// non-column coordinates agree iff the non-column coordinates of
    /// `decode(off_i)` and `decode(off_j)` agree — a per-residue property,
    /// identical in every period instance. Period-instance boundaries
    /// (where the `q·period` prefix changes) conservatively start a new
    /// run. Multi-bit XOR differences routinely *cancel* in the
    /// non-column fields, so runs here are much longer than any
    /// single-bit column-purity test would predict.
    pub fn key_runs(&self, mapping: &XorMapping) -> Option<KeyRuns> {
        if self.per_period == 0 || self.per_period > PERIOD_CACHE_CAP {
            return None;
        }
        let g = mapping.geometry();
        let pp = self.per_period;
        let mut starts = vec![0u64; pp.div_ceil(64) as usize];
        let mut prev = (usize::MAX, u32::MAX);
        let mut r = 0u64;
        self.walk_period(&mut |a| {
            let c = mapping.decode(a);
            let k = (c.bank_index(g), c.row);
            if k != prev {
                starts[(r / 64) as usize] |= 1 << (r % 64);
                prev = k;
            }
            r += 1;
        });
        // Residue 0 is always a start (new period instance).
        starts[0] |= 1;
        Some(KeyRuns { per_period: pp, starts })
    }

    /// Whether `other` provably shares this plan's [`RegionPlan::key_runs`]
    /// table, so one tabulation can serve both. True when the cleaned
    /// constraint *masks* coincide. Arena and length may differ (the table
    /// is indexed by global residue and reads neither), and so may parity
    /// targets: the two satisfying sets are then cosets of one GF(2)
    /// subspace, and the ascending enumeration of a coset is the
    /// subspace's ascending enumeration XOR-translated by the coset leader
    /// (echelon reduction by the subspace basis is linear, and clearing the
    /// highest reducible bit of each element greedily is exactly the
    /// numeric minimum of its coset). A constant XOR shifts every decoded
    /// coordinate fieldwise by one constant, so consecutive-block key
    /// equality — hence every run boundary — is identical.
    pub fn same_key_runs(&self, other: &RegionPlan) -> bool {
        self.cs.len() == other.cs.len()
            && self.cs.iter().zip(&other.cs).all(|(a, b)| a.mask == b.mask)
    }

    /// Materialize the region with the *seed-era* `StepStoneAgen` walk —
    /// identical addresses, but the seed's generation cost. The frozen
    /// seed-replay baseline must pay the seed's price for region carving,
    /// not whatever this plan's rank/select machinery costs today.
    pub fn materialize_seed(&self) -> Vec<u64> {
        StepStoneAgen::new(self.cs.clone(), self.arena, self.arena + (1 << 40))
            .take(self.len as usize)
            .map(|s| s.pa)
            .collect()
    }
}

/// Same-window-key run boundaries of a [`RegionPlan`], tabulated once per
/// period residue (see [`RegionPlan::key_runs`]). Supports O(run/64)
/// queries of "how many upcoming region blocks share the current block's
/// (bank, row) window key" — the engine's run-hint oracle for region
/// fills.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyRuns {
    per_period: u64,
    /// Bitset over period residues: bit `r` set ⇔ a new same-key run
    /// starts at residue `r`.
    starts: Vec<u64>,
}

impl KeyRuns {
    /// Mean same-key run length over one period, in blocks — the analytic
    /// memory tier's row-switch-rate estimate for region fills.
    pub fn mean_run_len(&self) -> f64 {
        let runs: u64 = self.starts.iter().map(|w| w.count_ones() as u64).sum();
        self.per_period as f64 / runs.max(1) as f64
    }

    /// Number of consecutive region blocks from global satisfying-block
    /// index `m` (inclusive) that share block `m - 1`'s window key: 0 when
    /// a run starts at `m`, else [`KeyRuns::run_len_from`]`(m)`.
    pub fn continues_from(&self, m: u64) -> u64 {
        let r = m & (self.per_period - 1);
        if self.starts[(r / 64) as usize] >> (r % 64) & 1 == 1 {
            0
        } else {
            self.run_len_from(m)
        }
    }

    /// Number of consecutive region blocks sharing one window key,
    /// starting at global satisfying-block index `m` (inclusive): the
    /// distance from `m` to the next run boundary, clipped to the end of
    /// `m`'s period instance.
    pub fn run_len_from(&self, m: u64) -> u64 {
        // `per_period` is a power of two (see the module docs).
        let r = m & (self.per_period - 1);
        let mut w = (r / 64) as usize;
        // The next start strictly after r: mask off bit r and below.
        let mut bits = self.starts[w] & (!0u64).checked_shl((r % 64) as u32 + 1).unwrap_or(0);
        loop {
            if bits != 0 {
                let s = (w as u64) * 64 + bits.trailing_zeros() as u64;
                return s.min(self.per_period) - r;
            }
            w += 1;
            if w >= self.starts.len() {
                return self.per_period - r;
            }
            bits = self.starts[w];
        }
    }
}

/// Lazy cursor over a [`RegionPlan`]: one select() per contiguous run,
/// plain block increments inside a run.
#[derive(Debug, Clone)]
pub struct RegionIter<'a> {
    plan: &'a RegionPlan,
    ix: u64,
    end: u64,
    /// Precomputed next address when it is a same-run increment.
    next_addr: Option<u64>,
}

impl<'a> RegionIter<'a> {
    /// Global satisfying-block index of the *next* block this cursor will
    /// yield — the index [`KeyRuns::run_len_from`] keys on.
    #[inline]
    pub fn pos_rank(&self) -> u64 {
        self.plan.base_rank + self.ix
    }

    /// Skip the next `n` blocks in O(1) — no addresses are computed. The
    /// next `next()` re-seeds from the plan's rank/select machinery.
    #[inline]
    pub fn skip_blocks(&mut self, n: u64) {
        self.ix = (self.ix + n).min(self.end);
        self.next_addr = None;
    }

    /// The plan this cursor walks (for key-run lookups by the consumer).
    #[inline]
    pub fn plan(&self) -> &'a RegionPlan {
        self.plan
    }

    /// Address of the next block this cursor will yield, without
    /// advancing — what page-clipped run hints key their boundary on.
    #[inline]
    pub fn peek_addr(&self) -> Option<u64> {
        if self.ix >= self.end {
            return None;
        }
        Some(match self.next_addr {
            Some(a) => a,
            None => self.plan.addr_of(self.pos_rank()),
        })
    }
}

impl Iterator for RegionIter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.ix >= self.end {
            return None;
        }
        let addr = match self.next_addr.take() {
            Some(a) => a,
            None => self.plan.addr_of(self.pos_rank()),
        };
        self.ix += 1;
        if self.ix < self.end {
            let cand = addr + BLOCK_BYTES;
            let contiguous = match self.plan.run_bytes {
                u64::MAX => true,
                rb => !cand.is_multiple_of(rb),
            };
            if contiguous {
                self.next_addr = Some(cand);
            }
        }
        Some(addr)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.end - self.ix) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for RegionIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agen::NaiveAgen;
    use crate::pimlevel::PimLevel;
    use crate::presets::{mapping_by_id, MappingId};

    fn naive_region(cs: &[ParityConstraint], arena: u64, count: u64) -> Vec<u64> {
        NaiveAgen::new(cs.to_vec(), arena, u64::MAX >> 1)
            .take(count as usize)
            .map(|s| s.pa)
            .collect()
    }

    fn id_constraints(level: PimLevel, mapping_id: MappingId, pim: u32) -> Vec<ParityConstraint> {
        let m = mapping_by_id(mapping_id);
        level
            .id_masks(&m)
            .iter()
            .enumerate()
            .map(|(i, &mask)| ParityConstraint { mask, parity: pim >> i & 1 == 1 })
            .collect()
    }

    #[test]
    fn matches_naive_walk_for_all_levels_and_pims() {
        for mapping_id in [MappingId::Skylake, MappingId::Haswell, MappingId::Exynos] {
            for level in PimLevel::ALL {
                let geom = *mapping_by_id(mapping_id).geometry();
                for pim in 0..level.pim_count(&geom) {
                    let cs = id_constraints(level, mapping_id, pim);
                    let arena = 1u64 << 33;
                    let count = 300;
                    let plan = RegionPlan::carve(cs.clone(), arena, count);
                    let naive = naive_region(&cs, arena, count);
                    assert_eq!(plan.len(), count);
                    let via_get: Vec<u64> = (0..count).map(|i| plan.get(i)).collect();
                    let via_iter: Vec<u64> = plan.iter().collect();
                    assert_eq!(via_get, naive, "{mapping_id:?} {level:?} pim {pim} (get)");
                    assert_eq!(via_iter, naive, "{mapping_id:?} {level:?} pim {pim} (iter)");
                }
            }
        }
    }

    #[test]
    fn spans_multiple_periods_and_unaligned_arenas() {
        // Small masks → small period, so a few hundred blocks wrap the
        // pattern many times; the arena is deliberately not period-aligned.
        let cs = vec![
            ParityConstraint { mask: (1 << 7) | (1 << 9), parity: true },
            ParityConstraint { mask: 1 << 8, parity: false },
        ];
        let plan = RegionPlan::carve(cs.clone(), 0, 4);
        assert_eq!(plan.period, 1 << 10, "period = 2^(highest constrained bit + 1)");
        for arena_blk in [0u64, 1, 3, 17, 100] {
            let arena = arena_blk * BLOCK_BYTES;
            let count = 500;
            let plan = RegionPlan::carve(cs.clone(), arena, count);
            assert_eq!(plan.to_vec(), naive_region(&cs, arena, count), "arena {arena}");
        }
    }

    #[test]
    fn unconstrained_region_is_contiguous() {
        let plan = RegionPlan::carve(vec![], 1 << 20, 64);
        let expect: Vec<u64> = (0..64u64).map(|i| (1 << 20) + i * BLOCK_BYTES).collect();
        assert_eq!(plan.to_vec(), expect);
        assert_eq!(plan.get(63), (1 << 20) + 63 * BLOCK_BYTES);
    }

    #[test]
    fn iter_range_matches_indexed_access() {
        let cs = id_constraints(PimLevel::BankGroup, MappingId::Skylake, 11);
        let plan = RegionPlan::carve(cs, 1 << 33, 1000);
        let lo = 123;
        let hi = 777;
        let ranged: Vec<u64> = plan.iter_range(lo, hi).collect();
        let indexed: Vec<u64> = (lo..hi).map(|i| plan.get(i)).collect();
        assert_eq!(ranged, indexed);
        assert_eq!(plan.iter_range(5, 5).count(), 0);
    }

    #[test]
    fn seed_materialization_matches_plan_cursors() {
        let cs = id_constraints(PimLevel::BankGroup, MappingId::Skylake, 9);
        let plan = RegionPlan::carve(cs, 1 << 33, 700);
        assert_eq!(plan.materialize_seed(), plan.to_vec());
    }

    #[test]
    fn resident_storage_is_independent_of_region_size() {
        let cs = id_constraints(PimLevel::BankGroup, MappingId::Skylake, 5);
        let small = RegionPlan::carve(cs.clone(), 1 << 33, 100);
        let large = RegionPlan::carve(cs, 1 << 33, 1_000_000);
        assert_eq!(small.resident_words(), large.resident_words());
        assert!(large.resident_words() * 100 < large.len(), "≥100× below materialized");
    }

    #[test]
    fn offset_table_builds_only_when_period_fits_region() {
        // A single bit-9 constraint: period 1 KiB = 16 blocks, 8 satisfying
        // per period. The offset table exists iff per_period <= len — the
        // boundary the doc comment promises (a region smaller than its
        // pattern would pay more select() descents building the table than
        // it saves).
        let cs = vec![ParityConstraint { mask: 1 << 9, parity: false }];
        for (len, expect_table) in [(7u64, false), (8, true), (9, true)] {
            let plan = RegionPlan::carve(cs.clone(), 0, len);
            assert_eq!(plan.per_period, 8, "8 of 16 blocks satisfy a single parity");
            let base = plan.resident_words();
            let via_iter: Vec<u64> = plan.iter().collect();
            let via_get: Vec<u64> = (0..len).map(|i| plan.get(i)).collect();
            assert_eq!(via_iter, via_get, "len {len}");
            let grew = plan.resident_words() > base;
            assert_eq!(
                grew, expect_table,
                "len {len}: offset table built iff per_period <= len"
            );
        }
    }

    #[test]
    fn offset_table_cap_boundary_at_16ki_residues() {
        // Single constraint at bit h: per_period = 2^(h-6). h = 20 sits
        // exactly at the 16 Ki cap (table built); h = 21 overflows it
        // (cursors keep the per-run descent). Both must agree with
        // indexed select() everywhere we sample.
        for (h, expect_table) in [(20u32, true), (21, false)] {
            let cs = vec![ParityConstraint { mask: 1 << h, parity: true }];
            let plan = RegionPlan::carve(cs.clone(), 0, PERIOD_CACHE_CAP * 4);
            assert_eq!(plan.per_period, 1 << (h - 6));
            let base = plan.resident_words();
            // Sample the iterator across several periods (full iteration at
            // this size is slow in debug builds); compare against select().
            let mut it = plan.iter();
            for ix in 0..plan.len() {
                let a = it.next().expect("cursor in range");
                if ix % 997 == 0 || ix < 4 {
                    assert_eq!(a, plan.get(ix), "h {h} ix {ix}");
                }
            }
            assert!(it.next().is_none());
            assert_eq!(
                plan.resident_words() > base,
                expect_table,
                "h {h}: cap is {PERIOD_CACHE_CAP} residues"
            );
            if expect_table {
                assert_eq!(
                    plan.resident_words() - base,
                    plan.per_period,
                    "table holds one offset per residue"
                );
            }
        }
    }

    #[test]
    fn key_runs_match_brute_force_key_scan() {
        // The tabulated per-residue run boundaries must agree with a
        // brute-force (bank, row) scan of the actual absolute addresses,
        // across multiple period instances and for unaligned arenas (the
        // base_rank offset shifts every residue).
        let mut tabulable = 0u32;
        for mapping_id in [MappingId::Skylake, MappingId::Haswell] {
            let m = mapping_by_id(mapping_id);
            let g = *m.geometry();
            for level in [PimLevel::BankGroup, PimLevel::Device] {
                for pim in [0u32, 3] {
                    if pim >= level.pim_count(&g) {
                        continue;
                    }
                    let cs = id_constraints(level, mapping_id, pim);
                    let plan = RegionPlan::carve(cs, (1 << 33) + 4096, 6000);
                    let Some(kr) = plan.key_runs(&m) else {
                        assert!(
                            plan.per_period > PERIOD_CACHE_CAP,
                            "{mapping_id:?} {level:?}: None only above the tabulation cap"
                        );
                        continue;
                    };
                    tabulable += 1;
                    let addrs = plan.to_vec();
                    let key = |pa: u64| {
                        let c = m.decode(pa);
                        (c.bank_index(&g), c.row)
                    };
                    let mut ix = 0u64;
                    while ix < plan.len() {
                        let promised = kr.run_len_from(plan.base_rank + ix);
                        assert!(promised >= 1);
                        // Every promised follower shares the anchor's key.
                        let run_end = (ix + promised).min(plan.len());
                        for j in ix..run_end {
                            assert_eq!(
                                key(addrs[j as usize]),
                                key(addrs[ix as usize]),
                                "{mapping_id:?} {level:?} pim {pim}: block {j} breaks the \
                                 promised run starting at {ix}"
                            );
                        }
                        ix = run_end;
                    }
                    // The promises are also *maximal* within a period
                    // instance: a run only ends at a real key change or an
                    // instance boundary.
                    let pp = plan.per_period;
                    for ix in 1..plan.len().min(3000) {
                        let m_ix = plan.base_rank + ix;
                        if !m_ix.is_multiple_of(pp)
                            && key(addrs[ix as usize]) == key(addrs[ix as usize - 1])
                        {
                            assert!(
                                kr.run_len_from(m_ix - 1) >= 2,
                                "{mapping_id:?} {level:?} pim {pim}: run split at {ix} \
                                 without a key change"
                            );
                        }
                        // Blocks continuing block ix-1's key: exactly the
                        // rest of its run, or none at a run start.
                        let cont = kr.continues_from(m_ix);
                        for j in ix..(ix + cont).min(plan.len()) {
                            assert_eq!(key(addrs[j as usize]), key(addrs[ix as usize - 1]));
                        }
                        let starts = cont == 0;
                        assert_eq!(starts, kr.run_len_from(m_ix - 1) == 1, "block {ix}");
                    }
                }
            }
        }
        assert!(tabulable > 0, "no config exercised key_runs");
    }

    #[test]
    fn key_runs_invariant_under_parity_targets() {
        // Plans whose constraint masks coincide must produce identical
        // run tables whatever the parity targets (the coset-leader
        // translation argument behind `RegionPlan::same_key_runs`) —
        // this is what lets GemmContext tabulate once per matrix instead
        // of once per PIM.
        let mut checked = 0u32;
        for mapping_id in [MappingId::Skylake, MappingId::Haswell] {
            let m = mapping_by_id(mapping_id);
            let g = *m.geometry();
            for level in [PimLevel::BankGroup, PimLevel::Device] {
                let base = id_constraints(level, mapping_id, 0);
                let Some(kr0) =
                    RegionPlan::carve(base.clone(), 1 << 33, 4000).key_runs(&m)
                else {
                    continue;
                };
                for pim in 1..level.pim_count(&g).min(8) {
                    let cs = id_constraints(level, mapping_id, pim);
                    assert_eq!(cs.len(), base.len());
                    let plan = RegionPlan::carve(cs, 1 << 33, 4000);
                    assert!(plan.same_key_runs(&RegionPlan::carve(base.clone(), 1 << 33, 4000)));
                    assert_eq!(
                        plan.key_runs(&m),
                        Some(kr0.clone()),
                        "{mapping_id:?} {level:?} pim {pim}: parity targets changed the table"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "no config exercised the invariance");
    }

    #[test]
    fn skip_blocks_is_equivalent_to_pulling() {
        let cs = id_constraints(PimLevel::BankGroup, MappingId::Skylake, 7);
        let plan = RegionPlan::carve(cs, 1 << 33, 1000);
        for (skip_at, n) in [(0u64, 5u64), (3, 1), (10, 64), (100, 900), (500, 10_000)] {
            let mut a = plan.iter();
            let mut b = plan.iter();
            for _ in 0..skip_at {
                a.next();
                b.next();
            }
            for _ in 0..n {
                a.next();
            }
            b.skip_blocks(n);
            assert_eq!(a.pos_rank(), b.pos_rank(), "skip_at {skip_at} n {n}");
            assert_eq!(a.len(), b.len());
            let ra: Vec<u64> = a.collect();
            let rb: Vec<u64> = b.collect();
            assert_eq!(ra, rb, "skip_at {skip_at} n {n}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        // The coset argument behind the shift/mask rank/select: every
        // window count, level pair and per-period count is 0 or a power
        // of two, and the division-free cursors still walk exactly the
        // naive satisfying sequence — over small periods (many period
        // instances per region) and arenas at any block offset.
        #[test]
        fn window_counts_are_cosets_and_cursors_match_naive(
            n in 0usize..7,
            raw in proptest::collection::vec(proptest::any::<u64>(), 6..7),
            parities in proptest::any::<u8>(),
            top in 8u32..17,
            arena_blk in 0u64..4096,
            count in 1u64..700,
        ) {
            let cs: Vec<ParityConstraint> = (0..n)
                .map(|j| ParityConstraint {
                    mask: raw[j] & ((1u64 << top) - 1) & !(BLOCK_BYTES - 1),
                    parity: parities >> j & 1 == 1,
                })
                .collect();
            let mut sys = crate::gf2::Gf2System::new();
            let consistent = cs.iter().all(|c| sys.add(c.mask, c.parity));
            proptest::prop_assume!(consistent);
            let arena = arena_blk * BLOCK_BYTES;
            let plan = RegionPlan::carve(cs.clone(), arena, count);
            let pow2_or_zero = |c: u64| c == 0 || c.is_power_of_two();
            for (i, row) in plan.counts.iter().enumerate() {
                for (s, &c) in row.iter().enumerate() {
                    proptest::prop_assert!(pow2_or_zero(c), "counts[{i}][{s}] = {c}");
                    let pair = c + row[s ^ plan.deltas[i] as usize];
                    proptest::prop_assert!(pow2_or_zero(pair), "pair[{i}][{s}] = {pair}");
                }
            }
            proptest::prop_assert!(plan.per_period.is_power_of_two());
            proptest::prop_assert!(plan.period.is_power_of_two());
            let mut walked = Vec::new();
            plan.walk_period(&mut |a| walked.push(a));
            let selected: Vec<u64> = (0..plan.per_period).map(|m| plan.select(m)).collect();
            proptest::prop_assert_eq!(walked, selected);

            let naive = naive_region(&cs, arena, count);
            let via_get: Vec<u64> = (0..count).map(|i| plan.get(i)).collect();
            proptest::prop_assert_eq!(&via_get, &naive);
            proptest::prop_assert_eq!(&plan.to_vec(), &naive);
            let mut it = plan.iter_range(count / 3, count);
            for &want in &naive[(count / 3) as usize..] {
                proptest::prop_assert_eq!(it.peek_addr(), Some(want));
                proptest::prop_assert_eq!(it.next(), Some(want));
            }
            proptest::prop_assert_eq!(it.peek_addr(), None);

            let below_arena = NaiveAgen::new(cs.clone(), 0, arena).count() as u64;
            proptest::prop_assert_eq!(plan.rank_below(arena), below_arena);
            for (i, &a) in naive.iter().enumerate() {
                proptest::prop_assert_eq!(plan.rank_below(a), below_arena + i as u64);
                proptest::prop_assert_eq!(plan.rank_below(a + BLOCK_BYTES), below_arena + i as u64 + 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "unsatisfiable")]
    fn unsatisfiable_carve_panics() {
        let cs = vec![
            ParityConstraint { mask: 1 << 8, parity: true },
            ParityConstraint { mask: 1 << 8, parity: false },
        ];
        let _ = RegionPlan::carve(cs, 0, 10);
    }

    #[test]
    fn vacuous_and_zero_mask_constraints_are_cleaned() {
        // A mask entirely inside the block offset can never be odd for a
        // block address: parity=false is vacuous.
        let cs = vec![ParityConstraint { mask: 0x3f, parity: false }];
        let plan = RegionPlan::carve(cs, 0, 8);
        assert_eq!(plan.to_vec(), (0..8u64).map(|i| i * BLOCK_BYTES).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "region constraint systems are small")]
    fn oversized_constraint_systems_are_rejected() {
        let cs: Vec<ParityConstraint> = (6..23)
            .map(|b| ParityConstraint { mask: 1 << b, parity: false })
            .collect();
        RegionPlan::carve(cs, 0, 1);
    }

    #[test]
    #[should_panic(expected = "unsatisfiable region")]
    fn carving_from_an_unsatisfiable_region_is_rejected() {
        // An odd-parity constraint on sub-block bits can never be met by a
        // block address.
        let cs = vec![ParityConstraint { mask: 1, parity: true }];
        RegionPlan::carve(cs, 0, 4);
    }
}
