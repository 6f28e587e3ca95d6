//! The cell-group jump: the units of a rank, checked at each group
//! boundary of the rank's first unit and jumped together (see
//! [`RankGroup::check`]).

use super::{RunCounters, UnitCursor};
use crate::report::Phase;
use std::collections::VecDeque;
use stepstone_addr::XorMapping;
use stepstone_dram::{DramStats, RankCopy, TimingState};

/// A run of a unit's pulls as the fast path takes them from its source:
/// one pull and the followers its run admission skipped (a pull without a
/// run is a chunk of one), all on one window key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// Pull index of its first block.
    pub pos: u64,
    /// Window key: (bank, row, direction).
    pub key: u64,
    pub len: u32,
    /// AGEN charge of its first block (every follower costs one).
    pub iters: u16,
    pub cat: Phase,
    pub compute: bool,
}

impl Chunk {
    /// The chunk of a pull at `pos` and the `len − 1` followers it
    /// admitted; one that does not fit the fields (a huge AGEN charge or
    /// run) is kept as a gap, whose key no group check verifies.
    pub fn new(pos: u64, len: u64, key: u64, iters: u32, cat: Phase, compute: bool) -> Self {
        let (len, iters, key) = match (u32::try_from(len), u16::try_from(iters)) {
            (Ok(len), Ok(iters)) => (len, iters, key),
            _ => (len.min(u32::MAX as u64) as u32, 0, GAP),
        };
        Chunk { pos, key, len, iters, cat, compute }
    }

    /// One past its last pull.
    pub fn end(&self) -> u64 {
        self.pos + self.len as u64
    }
}

/// The key of a record chunk standing for pulls the record did not see
/// (a closed-form stretch): no group check verifies across it.
pub(super) const GAP: u64 = u64::MAX;

/// A rank's group checks by outcome (host-side observability, kept on
/// the rank's first unit; see `run_units`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GroupChecks {
    /// No earlier point of the row part to compare with, or no group the
    /// streams could read ahead.
    pub no_promise: u64,
    /// The rank's state was not the previous point's shifted, or the
    /// pulls ahead do not repeat the last group.
    pub differs: u64,
    /// The rank jumped.
    pub jumped: u64,
}

/// Pulls of a unit's record kept before its rank's latest group check
/// point. The check verifies from half as far back: every window entry,
/// every pull whose row a bank holds open, and every pull an issue after
/// the point can compare rows with lies within that reach.
pub(super) const GROUP_LOOKBACK: u64 = 1024;

/// Pulls within which a unit's issues may leave pull order: twice the
/// largest reorder window.
const REORDER_REACH: u64 = 16;

/// Where one unit stood at a group check point of its rank.
struct UnitStand {
    pulls: u64,
    /// Window entries: pulls back, AGEN stamp, key, category, compute.
    window: Vec<(u64, u64, u64, Phase, bool)>,
    /// Run-hint pulls left, admitted followers left, synthesized entries.
    hint: [u64; 3],
    /// Pulls back of the admitted run's anchor while followers are left.
    anchor: Option<u64>,
    /// AGEN clock, not-before, clock, SIMD horizon, end time.
    times: [u64; 5],
    inflight: Vec<u64>,
    /// Launch gate and launch request: kept, not moved.
    launch: [u64; 2],
    /// No step peeked and no kernel start pending.
    steady: bool,
    /// Category cycles, SIMD ops, scratchpad accesses, AGEN iterations
    /// and bubbles, launches: what a group adds.
    counts: [u64; 13],
    run: RunCounters,
    /// The unit's recorded pulls before the point.
    lookback: Vec<Chunk>,
}

impl UnitStand {
    fn of(u: &UnitCursor) -> Self {
        let mut counts = [0; 13];
        counts[..8].copy_from_slice(&u.cat_cycles);
        counts[8..].copy_from_slice(&[
            u.simd_ops,
            u.scratch_accesses,
            u.agen_iter_sum,
            u.agen_bubbles,
            u.launches,
        ]);
        UnitStand {
            pulls: u.pulls,
            window: u
                .window
                .iter()
                .map(|e| (u.back(e), e.gen_ready, e.key, e.cat, e.compute))
                .collect(),
            hint: [u.hint_left, u.run_left, u.win_synth as u64],
            anchor: u.run_anchor.filter(|_| u.run_left > 0).map(|a| u.back(&a)),
            times: [u.gen_clock, u.not_before, u.clock, u.simd_free, u.end_time],
            inflight: u.inflight.iter().copied().collect(),
            launch: [u.launch_avail, u.launch_req],
            steady: u.peeked.is_none() && !u.pending_kernel_start,
            counts,
            run: u.run_stats,
            lookback: u.record.iter().flatten().copied().collect(),
        }
    }

    /// Whether `self` stands where `then` stood, `d` cycles later: the
    /// same pulls back and keys' banks and directions, every time `d`
    /// later, the launch state kept and behind every unit of the rank
    /// (`dead`), nothing launched between.
    fn is_shift_of(&self, then: &UnitStand, d: u64, dead: u64) -> bool {
        let same_entry = |a: &(u64, u64, u64, Phase, bool), b: &(u64, u64, u64, Phase, bool)| {
            a.0 == b.0
                && a.1 == b.1 + d
                && a.2 >> 33 == b.2 >> 33
                && a.2 & 1 == b.2 & 1
                && (a.3, a.4) == (b.3, b.4)
        };
        self.steady
            && then.steady
            && self.pulls > then.pulls
            && self.window.len() == then.window.len()
            && self.window.iter().zip(&then.window).all(|(a, b)| same_entry(a, b))
            && self.hint == then.hint
            && self.anchor == then.anchor
            && self.times.iter().zip(&then.times).all(|(a, b)| *a == b + d)
            && self.inflight.len() == then.inflight.len()
            && self.inflight.iter().zip(&then.inflight).all(|(a, b)| *a == b + d)
            && self.launch == then.launch
            && self.launch[0] <= dead
            && self.counts[12] == then.counts[12]
    }
}

/// A unit of a rank (its index there) and one of its pulls.
type Pulled = (usize, u64);

/// A rank at a group check point: its units' stands, its timing state,
/// and for each of its banks the open row and the record position of the
/// latest pull of that row (`None`: closed, or older than the records).
struct RankStand {
    point: u64,
    units: Vec<UnitStand>,
    dram: RankCopy,
    open: Vec<(Option<u32>, Option<Pulled>)>,
}

/// The units sharing one rank's ACT budget in a kernel phase, checked and
/// jumped together.
struct RankGroup {
    channel: u32,
    rank: u32,
    /// Unit indices, the first one leading: its check points are the
    /// rank's.
    units: Vec<usize>,
    /// The stand at the last check point.
    then: Option<RankStand>,
}

/// The ranks of a kernel phase under the cell-group grant: each unit is
/// ranked by its first access, and once every unit is, each rank's first
/// unit takes the rank's checks at its turns.
pub(super) struct Ranks {
    groups: Vec<RankGroup>,
    of: Vec<Option<usize>>,
    unranked: usize,
}

impl Ranks {
    pub(super) fn new(units: usize) -> Self {
        Ranks { groups: Vec::new(), of: vec![None; units], unranked: units }
    }

    /// Unit `i`'s turn: rank it if its window shows its rank, and take its
    /// rank's check if it leads it. Returns whether the rank jumped.
    #[inline(never)]
    pub(super) fn turn(
        &mut self,
        i: usize,
        ts: &mut TimingState,
        units: &mut [&mut UnitCursor],
        mapping: &XorMapping,
    ) -> bool {
        if self.unranked > 0 && self.of[i].is_none() {
            let Some(c) = units[i].window.front().map(|e| e.coord) else { return false };
            let at = |g: &RankGroup| (g.channel, g.rank) == (c.channel, c.rank);
            let r = self.groups.iter().position(at).unwrap_or_else(|| {
                let g = RankGroup { channel: c.channel, rank: c.rank, units: vec![], then: None };
                self.groups.push(g);
                self.groups.len() - 1
            });
            self.groups[r].units.push(i);
            self.groups[r].units.sort_unstable();
            self.of[i] = Some(r);
            self.unranked -= 1;
        }
        match self.of[i] {
            Some(r) if self.unranked == 0 && self.groups[r].units[0] == i => {
                let g = &mut self.groups[r];
                match units[i].steps.group_point() {
                    Some(p) if g.then.as_ref().is_none_or(|t| t.point != p) => {
                        g.check(ts, units, mapping, p)
                    }
                    _ => false,
                }
            }
            _ => false,
        }
    }
}

/// The row of a window key.
fn key_row(key: u64) -> u32 {
    (key >> 1) as u32
}

impl RankGroup {
    fn stand(&self, ts: &TimingState, units: &mut [&mut UnitCursor], point: u64) -> RankStand {
        let dram = ts.rank_copy(self.channel, self.rank);
        let g = ts.config().geom;
        let per_rank = (g.bankgroups_per_rank * g.banks_per_bankgroup) as u64;
        let bank0 = (self.channel * g.ranks_per_channel + self.rank) as u64 * per_rank;
        let mut open = Vec::with_capacity(per_rank as usize);
        for b in 0..per_rank {
            let row = dram.open_row(b as usize);
            let latest = row.and_then(|r| {
                let pulled = self.units.iter().enumerate().filter_map(|(m, &i)| {
                    let rec = units[i].record.as_ref()?;
                    let c = rec
                        .iter()
                        .rev()
                        .find(|c| c.key >> 33 == bank0 + b && key_row(c.key) == r)?;
                    Some((m, c.pos))
                });
                pulled.max_by_key(|&(_, pos)| pos)
            });
            open.push((row, latest));
        }
        let units = self.units.iter().map(|&i| UnitStand::of(units[i])).collect();
        RankStand { point, units, dram, open }
    }

    /// The check at the leader's turn, its stream having passed a new check
    /// point: stand the rank there and, if the rank stood at the point
    /// before, try the jump. Returns whether the rank jumped. Kept out of
    /// line: the scheduler loop stays as small as without groups.
    ///
    /// The rank jumps `k` groups when:
    ///
    /// * every unit stands where it stood at the previous point, the same
    ///   `D` cycles later ([`UnitStand::is_shift_of`]), and so does the
    ///   rank's timing state ([`TimingState::shift_rank`]);
    /// * each open row is the row of a pull exactly one unit group (its
    ///   pulls between the points) after the one the row was then, or the
    ///   bank was closed, or untouched, both times;
    /// * each unit's pulls from before the previous point through `k`
    ///   groups ahead ([`StepSource::group_ahead`]) repeat the group
    ///   before them: chunk for chunk the same length, bank, direction,
    ///   AGEN charge, category and compute flag, and every row equality
    ///   an issue may read — a chunk's with each chunk of its bank from
    ///   [`REORDER_REACH`] pulls before the previous one on that bank
    ///   ([`repeated_groups`]).
    ///
    /// The per-block transition of the rank — the scheduler's choice of
    /// unit (desired times, index order), FR-FCFS, the ACT, CAS and SIMD
    /// recurrences — is max/plus in the times and reads rows only through
    /// equality, so it commutes with a shift of every time and a renaming
    /// of the rows of each bank. Nothing outside the rank reads or writes
    /// its state between launches (no traffic, refresh or trace; its
    /// units are exclusive; other ranks share only the command bus). So
    /// each of the `k` groups repeats the last one `D` cycles later with
    /// the rows the pulls name, and the rank jumps to where it stands
    /// after them ([`RankGroup::jump`]).
    #[inline(never)]
    fn check(
        &mut self,
        ts: &mut TimingState,
        units: &mut [&mut UnitCursor],
        mapping: &XorMapping,
        point: u64,
    ) -> bool {
        let lead = self.units[0];
        let mut counts = units[lead].group_checks;
        let then = self.then.take().filter(|t| t.point + 1 == point);
        for &i in &self.units {
            units[i].record.get_or_insert_with(VecDeque::new);
        }
        let now = self.stand(ts, units, point);
        let jumped = match &then {
            Some(then) => self.try_jump(ts, units, mapping, then, &now),
            None => None,
        };
        match jumped {
            None => counts.no_promise += 1,
            Some(false) => counts.differs += 1,
            Some(true) => counts.jumped += 1,
        }
        units[lead].group_checks = counts;
        self.then = Some(if jumped == Some(true) {
            let point = units[lead].steps.group_point().expect("a jump lands inside the groups");
            self.stand(ts, units, point)
        } else {
            now
        });
        // The next check reads the group from here back from these copies.
        for &i in &self.units {
            units[i].steps.group_mark();
        }
        jumped == Some(true)
    }

    /// The jump of [`RankGroup::check`] from `now`, the rank having stood
    /// at `then` one point earlier: `None` when no unit can read a whole
    /// group ahead, `Some(false)` when a condition fails.
    fn try_jump(
        &mut self,
        ts: &mut TimingState,
        units: &mut [&mut UnitCursor],
        mapping: &XorMapping,
        then: &RankStand,
        now: &RankStand,
    ) -> Option<bool> {
        let d = now.units[0].times[1].wrapping_sub(then.units[0].times[1]);
        let dead = then.units.iter().map(|u| u.times[1]).min().unwrap_or(0);
        let stands = d > 0
            && d < u64::MAX / 2
            && now.units.iter().zip(&then.units).all(|(n, t)| n.is_shift_of(t, d, dead));
        let opens = now.open.iter().zip(&then.open).all(|(n, t)| match (n.1, t.1) {
            (Some((m, p)), Some((tm, tp))) => {
                m == tm
                    && now.units[m].pulls - p == then.units[m].pulls - tp
                    && then.units[m].pulls - tp <= GROUP_LOOKBACK / 2
            }
            (None, None) => n.0 == t.0,
            _ => false,
        });
        if !stands || !opens || !ts.shift_rank(&then.dram, d, dead, 0, &[]) {
            return Some(false);
        }
        // Each unit's pulls from before the previous point through the
        // groups ahead, and how many groups repeat. A unit keeps only the
        // pulls a jump reads: those within the lookback before each
        // landing, now included.
        let mut k = u64::MAX;
        let (mut aheads, mut writes) = (Vec::new(), Vec::new());
        for (m, &i) in self.units.iter().enumerate() {
            let (n, t) = (&now.units[m], &then.units[m]);
            let g = n.pulls - t.pulls;
            let u = &mut *units[i];
            let mut chunks = t.lookback.clone();
            let seen = chunks.len();
            if !u.steps.group_past(mapping, t.hint[0], g, &mut chunks) {
                return Some(false);
            }
            // Room for eight more groups in one allocation: these lists
            // are the check's largest.
            chunks.reserve_exact(8 * (chunks.len() - seen));
            chunks[seen..].iter_mut().for_each(|c| c.pos += t.pulls);
            writes.push(
                chunks[seen..].iter().filter(|c| c.key & 1 == 1).map(|c| c.len as u64).sum::<u64>(),
            );
            let seen = chunks.len();
            if !u.steps.group_ahead(mapping, g, u.hint_left, &mut chunks) {
                return None;
            }
            chunks[seen..].iter_mut().for_each(|c| c.pos += n.pulls);
            let from = t.pulls.saturating_sub(GROUP_LOOKBACK / 2);
            k = k.min(repeated_groups(&chunks, from, n.pulls, g));
            let kept = |c: &Chunk| {
                let to = c.end().saturating_sub(n.pulls).div_ceil(g) * g;
                c.end() > n.pulls && to <= k * g && c.pos + GROUP_LOOKBACK >= n.pulls + to
                    || c.pos < n.pulls && c.pos + GROUP_LOOKBACK >= n.pulls
            };
            aheads.push(chunks.iter().filter(|c| kept(c)).copied().collect());
        }
        if k == 0 {
            return Some(false);
        }
        self.jump(ts, units, then, now, (d, dead, k), (&aheads, &writes));
        Some(true)
    }

    /// Move every unit of the rank and its timing state `k` groups on (see
    /// [`RankGroup::check`]; `dead` as there): each source becomes its copy `k` groups
    /// ahead; each unit's pulls grow by `k` of its groups, its window
    /// entries, run hint and anchor take the keys of the pulls `k` groups
    /// on, its times move `k·D`, and its category cycles, SIMD ops,
    /// scratchpad accesses, AGEN sums and run statistics grow `k` times by
    /// what the last group added; the rank's times move `k·D`, each open
    /// row becomes the row of its pull `k` groups on, and the DRAM
    /// statistics grow `k` times by the group's issues and ACTs. Host-side
    /// jump state (issue ring, promise marks) starts over.
    fn jump(
        &mut self,
        ts: &mut TimingState,
        units: &mut [&mut UnitCursor],
        then: &RankStand,
        now: &RankStand,
        (d, dead, k): (u64, u64, u64),
        (aheads, writes): (&[Vec<Chunk>], &[u64]),
    ) {
        let kd = k * d;
        let mut stats = DramStats::default();
        let t_bl = ts.config().timing.t_bl;
        let mut rows = Vec::with_capacity(now.open.len());
        let key_at = |rec: &[Chunk], p: u64| {
            let c = rec[rec.partition_point(|c| c.end() <= p)];
            debug_assert!(c.pos <= p, "a pull the jump kept");
            c.key
        };
        for (row, id) in &now.open {
            rows.push(match id {
                Some((m, p)) => {
                    let g = now.units[*m].pulls - then.units[*m].pulls;
                    Some(key_row(key_at(&aheads[*m], p + k * g)))
                }
                None => *row,
            });
        }
        for (m, &i) in self.units.iter().enumerate() {
            let (n, t) = (&now.units[m], &then.units[m]);
            let g = n.pulls - t.pulls;
            let u = &mut *units[i];
            let rec = &aheads[m];
            let grew = |p: u64| key_at(rec, p + k * g);
            // The group's issues: its pulls, by direction.
            let (writes, reads) = (writes[m], g - writes[m]);
            stats.reads += k * reads;
            stats.writes += k * writes;
            stats.reads_by_port[u.port.index()] += k * reads;
            stats.writes_by_port[u.port.index()] += k * writes;
            stats.data_cycles += k * g * t_bl;
            u.steps.group_skip(k);
            let pulls = u.pulls;
            for e in u.window.iter_mut() {
                let pos = pulls - 1 - (pulls as u32).wrapping_sub(e.seq).wrapping_sub(1) as u64;
                e.key = grew(pos);
                e.coord.row = key_row(e.key);
                e.seq = e.seq.wrapping_add((k * g) as u32);
                e.gen_ready += kd;
            }
            if u.hint_left > 0 {
                u.hint_key = grew(pulls - 1);
            }
            if let (Some(a), true) = (u.run_anchor.as_mut(), u.run_left > 0) {
                let pos = pulls - 1 - (pulls as u32).wrapping_sub(a.seq).wrapping_sub(1) as u64;
                a.key = grew(pos);
                a.coord.row = key_row(a.key);
                a.seq = a.seq.wrapping_add((k * g) as u32);
            }
            u.pulls += k * g;
            for x in [
                &mut u.gen_clock,
                &mut u.not_before,
                &mut u.clock,
                &mut u.simd_free,
                &mut u.end_time,
            ] {
                *x += kd;
            }
            u.inflight.iter_mut().for_each(|x| *x += kd);
            let grow = |x: &mut u64, i: usize| *x += k * (n.counts[i] - t.counts[i]);
            for (c, x) in u.cat_cycles.iter_mut().enumerate() {
                grow(x, c);
            }
            grow(&mut u.simd_ops, 8);
            grow(&mut u.scratch_accesses, 9);
            grow(&mut u.agen_iter_sum, 10);
            grow(&mut u.agen_bubbles, 11);
            u.run_stats = u.run_stats.extrapolated(&t.run, k, 1);
            u.group_blocks += k * g;
            u.recent.clear();
            u.recent_len = 0;
            u.round_wait = 0;
            if u.period.is_some() {
                u.period = Some(Box::default());
            }
            let keep = u.pulls.saturating_sub(GROUP_LOOKBACK);
            u.record =
                Some(rec.iter().filter(|c| c.pos >= keep && c.pos < u.pulls).copied().collect());
            debug_assert!(u.window_ordered(), "unit '{}': window stamps out of order", u.label);
        }
        let acts = ts.rank_copy(self.channel, self.rank).acts() - then.dram.acts();
        stats.acts = k * acts;
        stats.row_misses = k * acts;
        stats.row_hits = stats.reads + stats.writes - k * acts;
        let moved = ts.shift_rank(&then.dram, d, dead, k, &rows);
        debug_assert!(moved, "the rank was checked before the jump");
        ts.stats.merge(&stats);
    }
}

/// How many whole groups of `g` pulls after pull `now` the chunks `c`
/// (in pull order, contiguous) repeat the group before them, checking
/// from pull `from` on (see [`RankGroup::check`]); 0 if a chunk before
/// `now` does not.
fn repeated_groups(c: &[Chunk], from: u64, now: u64, g: u64) -> u64 {
    let Some(y0) = c.iter().position(|k| k.pos >= from) else { return 0 };
    let Some(x0) = c.iter().position(|k| k.pos == c[y0].pos + g) else { return 0 };
    let m = x0 - y0;
    let bank = |k: &Chunk| k.key >> 33;
    let end = c.last().map_or(now, Chunk::end);
    for x in x0..c.len() {
        let (a, b) = (c[x], c[x - m]);
        let mut ok = b.pos + g == a.pos
            && (x + 1 == c.len() || a.end() == c[x + 1].pos)
            && a.key != GAP
            && b.key != GAP
            && (a.len, bank(&a), a.key & 1, a.iters, a.cat, a.compute)
                == (b.len, bank(&b), b.key & 1, b.iters, b.cat, b.compute);
        // Row equalities an issue may read: with each chunk of the bank
        // from `REORDER_REACH` pulls before the previous one on it.
        let prev = c[..x].iter().rposition(|z| bank(z) == bank(&a));
        let low = prev.map_or(a.pos, |z| a.pos.min(c[z].end())).saturating_sub(REORDER_REACH);
        let mut z = x;
        while ok && z > 0 && c[z - 1].end() > low {
            z -= 1;
            if bank(&c[z]) == bank(&a) {
                ok = z >= m && (c[z].key == a.key) == (c[z - m].key == b.key);
            }
        }
        if !ok {
            return a.pos.saturating_sub(now) / g;
        }
    }
    (end - now) / g
}

#[cfg(test)]
mod tests {
    use super::super::{StepSource, FB_OTHER};
    use super::*;
    use crate::flow::{fresh_memory, GemmContext, KernelStream};
    use crate::{GemmSpec, SimOptions, SystemConfig};
    use stepstone_addr::PimLevel;
    use stepstone_dram::{DramConfig, TimingParams};

    /// A kernel stream that names its group points but reads no group
    /// ahead: its rank checks and never jumps.
    struct PointsOnly<S>(S);

    impl<S: Iterator<Item = super::super::Step>> Iterator for PointsOnly<S> {
        type Item = super::super::Step;

        fn next(&mut self) -> Option<Self::Item> {
            self.0.next()
        }
    }

    impl<S: StepSource> StepSource for PointsOnly<S> {
        fn run_hint(&self) -> u64 {
            self.0.run_hint()
        }

        fn take_run(&mut self, n: u64) -> u64 {
            self.0.take_run(n)
        }

        fn round_hint(&mut self, min_rounds: u64) -> Result<super::super::RoundHint, u64> {
            self.0.round_hint(min_rounds)
        }

        fn skip_rounds(&mut self, n: u64, bubble_over: u64) -> super::super::Skipped {
            self.0.skip_rounds(n, bubble_over)
        }

        fn group_point(&self) -> Option<u64> {
            self.0.group_point()
        }
    }

    /// A coordinate but its column, which no timing reads (a jump renames
    /// rows only).
    type Coord = [u32; 5];

    fn coord(c: &stepstone_addr::DramCoord) -> Coord {
        [c.channel, c.rank, c.bankgroup, c.bank, c.row]
    }

    /// Everything simulated a unit holds: pulls, window entries (key, pull
    /// index, AGEN stamp, coordinate, direction, category, compute), run
    /// hint, admitted run and its anchor, times, SIMD pipeline, launch
    /// state and the sums a group adds.
    type Unit = (
        u64,
        Vec<(u64, u32, u64, Coord, bool, Phase, bool)>,
        [u64; 4],
        Option<(u64, u32, Coord)>,
        [u64; 7],
        Vec<u64>,
        [u64; 8],
        [u64; 5],
        u32,
        RunCounters,
    );

    fn unit(u: &UnitCursor) -> Unit {
        let hint_key = if u.hint_left > 0 { u.hint_key } else { 0 };
        (
            u.pulls,
            u.window
                .iter()
                .map(|e| (e.key, e.seq, e.gen_ready, coord(&e.coord), e.write, e.cat, e.compute))
                .collect(),
            [u.hint_left, hint_key, u.run_left, u.win_synth as u64],
            u.run_anchor.filter(|_| u.run_left > 0).map(|a| (a.key, a.seq, coord(&a.coord))),
            [
                u.gen_clock,
                u.not_before,
                u.clock,
                u.simd_free,
                u.end_time,
                u.launch_avail,
                u.launch_req,
            ],
            u.inflight.iter().copied().collect(),
            u.cat_cycles,
            [u.simd_ops, u.scratch_accesses, u.agen_iter_sum, u.agen_bubbles, u.launches],
            u.agen_iter_max,
            u.run_stats,
        )
    }

    /// Where a rank stands at a turn of its first unit: its units and its
    /// timing state.
    type Stand = (Vec<Unit>, RankCopy);

    /// A turn of a rank's first unit: the unit and its stream's group point.
    type Turn = (usize, u64);

    /// Runs the kernel phase as `run_units` runs it on the fast path, and
    /// at each turn of a rank's first unit whose stream has passed a new
    /// group point records where the rank stands, keyed by the unit and
    /// the point — after the jump when the rank jumps there. Returns the
    /// stands and the landings of the jumps.
    fn stands(
        sys: &SystemConfig,
        ctx: &GemmContext,
        opts: &SimOptions,
        jump: bool,
    ) -> (Vec<(Turn, Stand)>, Vec<Turn>) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mapping = &ctx.mapping;
        let lc = &opts.level_cfg;
        let mut cursors: Vec<UnitCursor> = (0..ctx.active_pims.len())
            .map(|pix| {
                let s = KernelStream::new(ctx, sys, opts, pix);
                let steps: Box<dyn StepSource + Send> =
                    if jump { Box::new(s) } else { Box::new(PointsOnly(s)) };
                let mut u = UnitCursor::from_source(
                    "pim",
                    ctx.pim_channel(ctx.active_pims[pix]),
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
                u.fallback_cause = FB_OTHER as u8;
                u.period = Some(Box::default());
                u
            })
            .collect();
        let units: &mut Vec<&mut UnitCursor> = &mut cursors.iter_mut().collect();
        let (mut ts, mut bus) = fresh_memory(sys);
        let mut ranks = Ranks::new(units.len());
        let mut seen = vec![None; units.len()];
        let (mut out, mut landings) = (Vec::new(), Vec::new());
        let stand = |ranks: &Ranks, ts: &TimingState, units: &[&mut UnitCursor], i: usize| {
            let g = &ranks.groups[ranks.of[i]?];
            (ranks.unranked == 0 && g.units[0] == i).then(|| {
                let rank = g.units.iter().map(|&j| unit(units[j])).collect();
                (rank, ts.rank_copy(g.channel, g.rank))
            })
        };
        let desired = |units: &mut Vec<&mut UnitCursor>| -> BinaryHeap<Reverse<(u64, usize)>> {
            units
                .iter_mut()
                .enumerate()
                .filter_map(|(j, u)| u.desired(mapping).map(|t| Reverse((t, j))))
                .collect()
        };
        let mut heap = desired(units);
        while let Some(Reverse((_, i))) = heap.pop() {
            if let Some(p) = units[i].steps.group_point().filter(|&p| seen[i] != Some(p)) {
                if let Some(s) = stand(&ranks, &ts, units, i) {
                    seen[i] = Some(p);
                    out.push(((i, p), s));
                }
            }
            if ranks.turn(i, &mut ts, units, mapping) {
                heap = desired(units);
                let point = units[i].steps.group_point().expect("a jump lands inside the groups");
                seen[i] = Some(point);
                landings.push((i, point));
                out.push(((i, point), stand(&ranks, &ts, units, i).expect("a leader")));
                continue;
            }
            units[i].advance_batch(&mut ts, &mut bus, mapping);
            if let Some(t) = units[i].desired(mapping) {
                heap.push(Reverse((t, i)));
            }
        }
        (out, landings)
    }

    /// Each jump leaves every unit of the rank, and the rank's timing
    /// state, where the run whose checks never jump stands at the same
    /// turn: at the rank's first unit's first turn past the landing point.
    /// Window keys, rows and pull indices, the run hint and anchor, every
    /// time, the SIMD pipeline and the sums are compared, and so are the
    /// rank's banks, ACT window and datapaths. One shape's four-times
    /// longer tFAW makes the shared ACT window decide ACTs inside the
    /// jumped groups.
    #[test]
    fn jumps_leave_the_rank_where_per_block_issues_would() {
        let d = DramConfig::default();
        let faw =
            DramConfig { timing: TimingParams { t_faw: 4 * d.timing.t_faw, ..d.timing }, ..d };
        for dram in [d, faw] {
            let sys = SystemConfig { parallel: false, ..SystemConfig::default() }.with_dram(dram);
            let opts = SimOptions::stepstone(PimLevel::BankGroup);
            let ctx = GemmContext::build(&sys, &GemmSpec::new(1024, 2048, 128), &opts);
            let (jumped, landings) = stands(&sys, &ctx, &opts, true);
            let (reference, none) = stands(&sys, &ctx, &opts, false);
            assert!(!landings.is_empty(), "tFAW {}: no rank jumped", dram.timing.t_faw);
            assert!(none.is_empty(), "the reference jumped");
            let at = |key| reference.iter().find(|(k, _)| *k == key).map(|(_, s)| s);
            for (key, s) in &jumped {
                let landed = if landings.contains(key) { "after a jump" } else { "before" };
                assert_eq!(
                    Some(s),
                    at(*key),
                    "tFAW {}: unit {} point {:#x} {landed}",
                    dram.timing.t_faw,
                    key.0,
                    key.1
                );
            }
        }
    }
}
