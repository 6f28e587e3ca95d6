//! DDR4 bank/rank/path timing state machines.
//!
//! The model tracks, per bank, the open row and the earliest legal times for
//! ACT/CAS/PRE; per rank, the tRRD/tFAW activation constraints (shared by
//! *all* access ports — the paper notes StepStone-BG "accounts for
//! device-level timing parameters such as tRCD and tFAW using control logic
//! at the I/O port of each device"); and per *data path*, CAS-to-CAS and
//! turnaround constraints plus data-bus occupancy.
//!
//! Three path kinds model where PIM units tap the datapath (Fig. 3a):
//! * [`Port::Channel`] — the external bus: host, DMA engine, StepStone-CH.
//!   Cross-rank transfers pay tRTRS; all Table II CAS constraints apply.
//! * [`Port::RankInternal`] — StepStone-DV buffer-chip access: full rank
//!   bandwidth, no rank-to-rank switching (single rank by construction).
//! * [`Port::BgInternal`] — StepStone-BG near-bank access: each bank group
//!   has a private datapath, so only tCCDL within the group throttles it;
//!   this is precisely the "underutilized bandwidth within a DRAM device"
//!   the paper exploits (§III-E).

use crate::audit::{CmdKind, CmdRecord, CommandTrace};
use crate::config::DramConfig;
use stepstone_addr::{DramCoord, Geometry};

/// Which datapath an access uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Port {
    Channel,
    RankInternal,
    BgInternal,
}

impl Port {
    pub const ALL: [Port; 3] = [Port::Channel, Port::RankInternal, Port::BgInternal];

    pub fn index(&self) -> usize {
        match self {
            Port::Channel => 0,
            Port::RankInternal => 1,
            Port::BgInternal => 2,
        }
    }
}

/// Column command direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CasKind {
    Read,
    Write,
}

/// Timing of one completed block access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockTiming {
    /// When the column command issued.
    pub cas_at: u64,
    /// First cycle of data transfer.
    pub data_start: u64,
    /// One past the last data cycle.
    pub data_end: u64,
    /// Whether the access hit an open row.
    pub row_hit: bool,
    /// Activations this access needed (0 or 1).
    pub acts: u32,
}

/// Caller's reply in [`TimingState::access_run_stream`]: the next block of
/// the run, a closed-form jump over blocks whose CAS times are promised to
/// advance by a fixed delta, or the end of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunReply {
    /// Issue one block at `(coord, not_before)`, exactly as a single
    /// [`TimingState::access`] would.
    Block(DramCoord, u64),
    /// Issue `count` further blocks of the current steady run, each
    /// repeating the previous coordinate with its CAS exactly `d` cycles
    /// after its predecessor's (`d ≥ max(tCCDL, tCCDS, tBL)`).
    Jump {
        /// Blocks to issue.
        count: u64,
        /// Exact CAS-to-CAS distance of every jumped block.
        d: u64,
    },
    /// End the run.
    End,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct BankState {
    open_row: Option<u32>,
    next_act: u64,
    next_cas: u64,
    next_pre: u64,
}

/// Event times are stored as `t + 1`, with 0 meaning "never happened", so a
/// legitimate event at cycle 0 is distinguishable from no event.
type Stamp = u64;

#[inline]
fn stamp(t: u64) -> Stamp {
    t + 1
}

#[inline]
fn after(s: Stamp, gap: u64) -> u64 {
    if s == 0 {
        0
    } else {
        (s - 1) + gap
    }
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct RankState {
    /// Times of up to the last four ACTs (tFAW window).
    act_window: Vec<u64>,
    /// Last ACT stamp per bank group (tRRDL) and rank-wide (tRRDS).
    last_act_by_bg: Vec<Stamp>,
    last_act: Stamp,
    /// Next refresh deadline (when refresh is enabled).
    next_ref: u64,
    /// ACTs issued so far (one per row miss while refresh is off).
    acts: u64,
}

/// Per-path CAS bookkeeping.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct PathState {
    /// Last CAS stamp per bank group in this path's scope (tCCDL).
    last_cas_by_bg: Vec<Stamp>,
    /// Last write stamp per bank group (long write-to-read turnaround).
    last_wr_by_bg: Vec<Stamp>,
    last_cas: Stamp,
    /// Last read/write command stamp per rank in scope (turnarounds).
    last_rd_by_rank: Vec<Stamp>,
    last_wr_by_rank: Vec<Stamp>,
    /// Data-bus occupancy: end of the last burst and which rank drove it.
    bus_free: u64,
    bus_last_rank: u32,
    bus_used: bool,
}

/// Aggregate DRAM event counters, split by port for the energy model
/// (in-device vs off-chip transfers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    pub reads: u64,
    pub writes: u64,
    pub acts: u64,
    pub row_hits: u64,
    pub row_misses: u64,
    pub reads_by_port: [u64; 3],
    pub writes_by_port: [u64; 3],
    /// Sum of burst cycles transferred (utilization numerator).
    pub data_cycles: u64,
    pub refreshes: u64,
}

impl DramStats {
    pub fn merge(&mut self, o: &DramStats) {
        self.reads += o.reads;
        self.writes += o.writes;
        self.acts += o.acts;
        self.row_hits += o.row_hits;
        self.row_misses += o.row_misses;
        for i in 0..3 {
            self.reads_by_port[i] += o.reads_by_port[i];
            self.writes_by_port[i] += o.writes_by_port[i];
        }
        self.data_cycles += o.data_cycles;
        self.refreshes += o.refreshes;
    }

    /// Total blocks moved.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Blocks that crossed the channel data bus: the `Channel` port only,
    /// not the rank- or bank-group-internal bursts of PIM kernels.
    pub fn channel_accesses(&self) -> u64 {
        self.reads_by_port[Port::Channel.index()] + self.writes_by_port[Port::Channel.index()]
    }

    /// Counters accumulated since an earlier snapshot `base` of the same
    /// state — what one request contributed to a persistent serving-mode
    /// timing state. Saturating so a foreign snapshot cannot panic.
    pub fn delta(&self, base: &DramStats) -> DramStats {
        let mut d = DramStats {
            reads: self.reads.saturating_sub(base.reads),
            writes: self.writes.saturating_sub(base.writes),
            acts: self.acts.saturating_sub(base.acts),
            row_hits: self.row_hits.saturating_sub(base.row_hits),
            row_misses: self.row_misses.saturating_sub(base.row_misses),
            data_cycles: self.data_cycles.saturating_sub(base.data_cycles),
            refreshes: self.refreshes.saturating_sub(base.refreshes),
            ..DramStats::default()
        };
        for i in 0..3 {
            d.reads_by_port[i] = self.reads_by_port[i].saturating_sub(base.reads_by_port[i]);
            d.writes_by_port[i] = self.writes_by_port[i].saturating_sub(base.writes_by_port[i]);
        }
        d
    }
}

/// A copy of one rank's timing state: its banks, its ACT window and the
/// datapaths inside it (rank-internal and bank-group-internal), taken by
/// [`TimingState::rank_copy`] for a later [`TimingState::shift_rank`].
#[derive(Debug, Clone, Default)]
pub struct RankCopy {
    /// Channel and rank.
    at: (u32, u32),
    banks: Vec<BankState>,
    rank: RankState,
    paths: Vec<PathState>,
}

/// Copies are equal when every timing reads the same from them: the ACT
/// window's entries before its last four, which no ACT reads, aside.
impl PartialEq for RankCopy {
    fn eq(&self, o: &Self) -> bool {
        let faw = |c: &RankCopy| {
            let w = &c.rank.act_window;
            RankState { act_window: w[w.len().saturating_sub(4)..].to_vec(), ..c.rank.clone() }
        };
        (self.at, &self.banks, &self.paths) == (o.at, &o.banks, &o.paths) && faw(self) == faw(o)
    }
}

impl RankCopy {
    /// ACTs the rank had issued when copied.
    pub fn acts(&self) -> u64 {
        self.rank.acts
    }

    /// The open row of the rank's `b`-th bank (bank-group major).
    pub fn open_row(&self, b: usize) -> Option<u32> {
        self.banks[b].open_row
    }
}

/// The shared timing state of the whole DRAM system.
///
/// The engine drives it **execute-and-stall**, never latency-query: it asks
/// the model to *perform* each access or closed-form commit and learns when
/// the data moved. The DRAMsim3-integration postmortems that seeded this
/// design (SNIPPETS.md) found latency-query interfaces over stateful memory
/// models wrong by construction: the answer changes as soon as any other
/// access commits. Every timing call either commits state (`access`,
/// `access_run_stream`, `commit_round_hits`, `adopt_channel`,
/// `shift_rank`) or is the non-committing estimate FR-FCFS front
/// selection uses (`probe`). A unit's closed-form commit is verified from
/// the unit's own issues; a rank's group jump compares the rank's state
/// with a copy of it one period earlier (`rank_copy`, `shift_rank`).
#[derive(Debug, Clone)]
pub struct TimingState {
    cfg: DramConfig,
    banks: Vec<BankState>,
    ranks: Vec<RankState>,
    /// Path states: `[channels]` channel paths, then `[channels×ranks]`
    /// rank-internal paths, then `[channels×ranks×bgs]` BG-internal paths.
    paths: Vec<PathState>,
    pub stats: DramStats,
    /// Optional command recorder for the auditor (tests/debugging).
    trace: Option<CommandTrace>,
}

impl TimingState {
    pub fn new(cfg: DramConfig) -> Self {
        let g = cfg.geom;
        let n_banks = g.total_banks() as usize;
        let n_ranks = (g.channels * g.ranks_per_channel) as usize;
        let n_paths = g.channels as usize
            + n_ranks
            + (g.channels * g.ranks_per_channel * g.bankgroups_per_rank) as usize;
        let mut ranks = vec![RankState::default(); n_ranks];
        for r in &mut ranks {
            r.last_act_by_bg = vec![0; g.bankgroups_per_rank as usize];
            r.next_ref = cfg.timing.t_refi;
        }
        let mut paths = vec![PathState::default(); n_paths];
        let bg_total = (g.ranks_per_channel * g.bankgroups_per_rank) as usize;
        for (i, p) in paths.iter_mut().enumerate() {
            let (bgs, rks) = if i < g.channels as usize {
                (bg_total, g.ranks_per_channel as usize)
            } else if i < g.channels as usize + n_ranks {
                (g.bankgroups_per_rank as usize, 1)
            } else {
                (1, 1)
            };
            p.last_cas_by_bg = vec![0; bgs];
            p.last_wr_by_bg = vec![0; bgs];
            p.last_rd_by_rank = vec![0; rks];
            p.last_wr_by_rank = vec![0; rks];
        }
        Self {
            cfg,
            banks: vec![BankState::default(); n_banks],
            ranks,
            paths,
            stats: DramStats::default(),
            trace: None,
        }
    }

    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Aggregate statistics committed so far.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Start recording all issued commands for auditing.
    pub fn enable_trace(&mut self) {
        self.trace = Some(CommandTrace::default());
    }

    /// Take the recorded trace (if tracing was enabled).
    pub fn take_trace(&mut self) -> Option<CommandTrace> {
        self.trace.take()
    }

    /// Whether command tracing is active (parallel phase execution must
    /// fall back to the serial engine to keep the trace time-ordered).
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// The CAS-to-CAS cadence floor of a steady same-row run (see
    /// [`TimingState::access_run_stream`]): the minimum distance between
    /// consecutive CAS commands on one bank, and the lower bound on the
    /// `d` of a [`RunReply::Jump`].
    pub fn cas_step(&self) -> u64 {
        let tp = self.cfg.timing;
        tp.t_ccdl.max(tp.t_ccds).max(tp.t_bl)
    }

    /// Adopt channel `ch`'s bank, rank, and path state from `other` (a
    /// clone of `self` advanced independently). Channels share no timing
    /// state — banks, ranks, and all three path kinds are channel-major —
    /// so per-channel simulation followed by adoption is exact. Statistics
    /// are *not* adopted; merge [`TimingState::stats()`] separately.
    pub fn adopt_channel(&mut self, other: &TimingState, ch: u32) {
        assert_eq!(self.cfg.geom, other.cfg.geom, "adopt_channel requires identical geometry");
        let [banks, ranks, p_ch, p_rk, p_bg] = self.channel_ranges(ch);
        self.banks[banks.clone()].copy_from_slice(&other.banks[banks]);
        self.ranks[ranks.clone()].clone_from_slice(&other.ranks[ranks]);
        for r in [p_ch, p_rk, p_bg] {
            self.paths[r.clone()].clone_from_slice(&other.paths[r]);
        }
    }

    /// Index ranges of channel `ch`'s banks, ranks, and its channel,
    /// rank-internal and BG-internal paths: every table is channel-major.
    fn channel_ranges(&self, ch: u32) -> [std::ops::Range<usize>; 5] {
        let g = self.cfg.geom;
        let ch = ch as usize;
        let banks = (g.ranks_per_channel * g.bankgroups_per_rank * g.banks_per_bankgroup) as usize;
        let ranks = g.ranks_per_channel as usize;
        let bgs = (g.ranks_per_channel * g.bankgroups_per_rank) as usize;
        let nch = g.channels as usize;
        let nrk = (g.channels * g.ranks_per_channel) as usize;
        [
            ch * banks..(ch + 1) * banks,
            ch * ranks..(ch + 1) * ranks,
            ch..ch + 1,
            nch + ch * ranks..nch + (ch + 1) * ranks,
            nch + nrk + ch * bgs..nch + nrk + (ch + 1) * bgs,
        ]
    }

    /// Rank `rk` of channel `ch`: its bank range, its index, and the
    /// indices of its rank-internal path and bank-group-internal paths.
    fn rank_parts(&self, ch: u32, rk: u32) -> (std::ops::Range<usize>, usize, Vec<usize>) {
        let g = self.cfg.geom;
        let [banks, ranks, _, p_rk, p_bg] = self.channel_ranges(ch);
        let (rk, bgs) = (rk as usize, g.bankgroups_per_rank as usize);
        let per_rank = bgs * g.banks_per_bankgroup as usize;
        let bank0 = banks.start + rk * per_rank;
        let paths =
            [p_rk.start + rk].into_iter().chain(p_bg.start + rk * bgs..p_bg.start + (rk + 1) * bgs);
        (bank0..bank0 + per_rank, ranks.start + rk, paths.collect())
    }

    /// Copy rank `rk` of channel `ch` (see [`RankCopy`]).
    pub fn rank_copy(&self, ch: u32, rk: u32) -> RankCopy {
        let (banks, rank, paths) = self.rank_parts(ch, rk);
        RankCopy {
            at: (ch, rk),
            banks: self.banks[banks].to_vec(),
            rank: self.ranks[rank].clone(),
            paths: paths.iter().map(|&p| self.paths[p].clone()).collect(),
        }
    }

    /// The rank-scoped compare-and-shift of a periodic jump. Checks that
    /// the rank copied in `then` stands where it stood then, `d > 0` cycles
    /// earlier: every time it keeps (a bank's next ACT, CAS and PRE, the
    /// last four ACTs and the last ACT per bank group, each path's CAS,
    /// turnaround and bus stamps) is either `then`'s plus `d`, or
    /// `then`'s unchanged and so old that it binds nothing at or after
    /// `dead` (every later event of the rank's units is at least that
    /// late). Open rows, bus owners and the refresh deadline are left to
    /// the caller, which renames the rows. If it holds and `k > 0`, every
    /// time that moved moves `k·d` further and each bank opens the row
    /// `rows` names for it (bank-group major): the state `k` periods on.
    pub fn shift_rank(
        &mut self,
        then: &RankCopy,
        d: u64,
        dead: u64,
        k: u64,
        rows: &[Option<u32>],
    ) -> bool {
        let tp = self.cfg.timing;
        let reach = [tp.t_faw, tp.t_rc, tp.t_rrdl, tp.t_rrds, tp.t_ccdl, tp.t_ccds, tp.rtw()]
            .into_iter()
            .chain([tp.wtr(true), tp.wtr(false), tp.t_cwl + tp.t_bl + tp.t_wr])
            .max()
            .unwrap_or(0);
        // A time `t` (stamps hold `t + 1`; 0 is never) moved by `d`, or
        // kept and dead.
        let ok = |now: u64, was: u64| now == was + d || now == was && was + reach <= dead;
        let stamp_ok = |now: Stamp, was: Stamp| now == was && was == 0 || ok(now, was);
        let (banks, rix, paths) = self.rank_parts(then.at.0, then.at.1);
        let rank = &self.ranks[rix];
        let window = |w: &[u64]| w[w.len().saturating_sub(4)..].to_vec();
        let (wn, wt) = (window(&rank.act_window), window(&then.rank.act_window));
        let verified = self.banks[banks.clone()].iter().zip(&then.banks).all(|(n, t)| {
            ok(n.next_act, t.next_act) && ok(n.next_cas, t.next_cas) && ok(n.next_pre, t.next_pre)
        }) && wn.len() == wt.len()
            && wn.iter().zip(&wt).all(|(&n, &t)| ok(n, t))
            && stamp_ok(rank.last_act, then.rank.last_act)
            && rank
                .last_act_by_bg
                .iter()
                .zip(&then.rank.last_act_by_bg)
                .all(|(&n, &t)| stamp_ok(n, t))
            && paths.iter().map(|&p| &self.paths[p]).zip(&then.paths).all(|(n, t)| {
                let stamps = |p: &PathState| {
                    let v = [
                        &p.last_cas_by_bg,
                        &p.last_wr_by_bg,
                        &p.last_rd_by_rank,
                        &p.last_wr_by_rank,
                    ];
                    v.into_iter().flatten().copied().chain([p.last_cas]).collect::<Vec<_>>()
                };
                n.bus_used == t.bus_used
                    && n.bus_last_rank == t.bus_last_rank
                    && (!n.bus_used || ok(n.bus_free, t.bus_free))
                    && stamps(n).iter().zip(stamps(t)).all(|(&a, b)| stamp_ok(a, b))
            });
        if !verified || k == 0 {
            return verified;
        }
        let kd = k * d;
        let mv = |now: &mut u64, was: u64| {
            if *now != was {
                *now += kd;
            }
        };
        for ((n, t), row) in self.banks[banks].iter_mut().zip(&then.banks).zip(rows) {
            mv(&mut n.next_act, t.next_act);
            mv(&mut n.next_cas, t.next_cas);
            mv(&mut n.next_pre, t.next_pre);
            n.open_row = *row;
        }
        let rank = &mut self.ranks[rix];
        let at = rank.act_window.len() - wn.len();
        for (n, t) in rank.act_window[at..].iter_mut().zip(&wt) {
            mv(n, *t);
        }
        mv(&mut rank.last_act, then.rank.last_act);
        for (n, t) in rank.last_act_by_bg.iter_mut().zip(&then.rank.last_act_by_bg) {
            mv(n, *t);
        }
        rank.acts += k * (rank.acts - then.rank.acts);
        for (&p, t) in paths.iter().zip(&then.paths) {
            let n = &mut self.paths[p];
            if n.bus_used {
                mv(&mut n.bus_free, t.bus_free);
            }
            mv(&mut n.last_cas, t.last_cas);
            let pairs = [
                (&mut n.last_cas_by_bg, &t.last_cas_by_bg),
                (&mut n.last_wr_by_bg, &t.last_wr_by_bg),
                (&mut n.last_rd_by_rank, &t.last_rd_by_rank),
                (&mut n.last_wr_by_rank, &t.last_wr_by_rank),
            ];
            for (nv, tv) in pairs {
                nv.iter_mut().zip(tv).for_each(|(a, b)| mv(a, *b));
            }
        }
        true
    }

    fn record(&mut self, time: u64, kind: CmdKind, coord: DramCoord, port: Port) {
        if let Some(t) = &mut self.trace {
            t.push(CmdRecord { time, kind, coord, port });
        }
    }

    fn geom(&self) -> &Geometry {
        &self.cfg.geom
    }

    /// Index of the datapath `port` reaches `c` by in the path table:
    /// channel paths, then rank-internal, then BG-internal ones.
    fn path_index(&self, port: Port, c: &DramCoord) -> usize {
        let g = self.geom();
        match port {
            Port::Channel => c.channel as usize,
            Port::RankInternal => g.channels as usize + c.rank_index(g),
            Port::BgInternal => {
                g.channels as usize
                    + (g.channels * g.ranks_per_channel) as usize
                    + c.bankgroup_index(g)
            }
        }
    }

    /// Index of `c`'s bank group within the path's `last_cas_by_bg` table
    /// and of its rank within the turnaround tables.
    fn path_scope(&self, port: Port, c: &DramCoord) -> (usize, usize) {
        let g = self.geom();
        match port {
            Port::Channel => (
                (c.rank * g.bankgroups_per_rank + c.bankgroup) as usize,
                c.rank as usize,
            ),
            Port::RankInternal => (c.bankgroup as usize, 0),
            Port::BgInternal => (0, 0),
        }
    }

    /// Earliest legal ACT time for `c` at or after `t`.
    fn earliest_act(&self, c: &DramCoord, t: u64) -> u64 {
        let tp = &self.cfg.timing;
        let bank = &self.banks[c.bank_index(self.geom())];
        let rank = &self.ranks[c.rank_index(self.geom())];
        let mut at = t.max(bank.next_act);
        at = at.max(after(rank.last_act_by_bg[c.bankgroup as usize], tp.t_rrdl));
        at = at.max(after(rank.last_act, tp.t_rrds));
        if rank.act_window.len() >= 4 {
            at = at.max(rank.act_window[rank.act_window.len() - 4] + tp.t_faw);
        }
        at
    }

    fn commit_act(&mut self, c: &DramCoord, t: u64) {
        let tp = self.cfg.timing;
        let g = *self.geom();
        let bank = &mut self.banks[c.bank_index(&g)];
        bank.open_row = Some(c.row);
        bank.next_cas = t + tp.t_rcd;
        bank.next_pre = bank.next_pre.max(t + tp.t_ras);
        bank.next_act = t + tp.t_rc;
        let rank = &mut self.ranks[c.rank_index(&g)];
        rank.last_act_by_bg[c.bankgroup as usize] = stamp(t);
        rank.last_act = stamp(t);
        rank.act_window.push(t);
        if rank.act_window.len() > 8 {
            rank.act_window.drain(..4);
        }
        rank.acts += 1;
        self.stats.acts += 1;
    }

    /// Earliest legal PRE time for `c` at or after `t`.
    fn earliest_pre(&self, c: &DramCoord, t: u64) -> u64 {
        t.max(self.banks[c.bank_index(self.geom())].next_pre)
    }

    fn commit_pre(&mut self, c: &DramCoord, t: u64) {
        let tp = self.cfg.timing;
        let g = *self.geom();
        let bank = &mut self.banks[c.bank_index(&g)];
        bank.open_row = None;
        bank.next_act = bank.next_act.max(t + tp.t_rp);
    }

    /// Earliest legal CAS time on `port` at or after `t` (row already open).
    fn earliest_cas(&self, c: &DramCoord, kind: CasKind, port: Port, t: u64) -> u64 {
        let tp = &self.cfg.timing;
        let bank = &self.banks[c.bank_index(self.geom())];
        let path = &self.paths[self.path_index(port, c)];
        let (bg_ix, rk_ix) = self.path_scope(port, c);
        let mut at = t.max(bank.next_cas);
        at = at.max(after(path.last_cas, tp.t_ccds));
        at = at.max(after(path.last_cas_by_bg[bg_ix], tp.t_ccdl));
        // Same-rank turnaround constraints.
        match kind {
            CasKind::Read => {
                // Short turnaround after any same-rank write, long after a
                // write in the same bank group.
                at = at.max(after(path.last_wr_by_rank[rk_ix], tp.wtr(false)));
                at = at.max(after(path.last_wr_by_bg[bg_ix], tp.wtr(true)));
            }
            CasKind::Write => {
                at = at.max(after(path.last_rd_by_rank[rk_ix], tp.rtw()));
            }
        }
        // Data-bus occupancy (+ rank switch penalty on the shared channel).
        let latency = match kind {
            CasKind::Read => tp.t_cl,
            CasKind::Write => tp.t_cwl,
        };
        if path.bus_used {
            let mut bus_ready = path.bus_free;
            if port == Port::Channel && path.bus_last_rank != c.rank {
                bus_ready += tp.t_rtrs;
            }
            at = at.max(bus_ready.saturating_sub(latency));
        }
        at
    }

    fn commit_cas(&mut self, c: &DramCoord, kind: CasKind, port: Port, t: u64) -> (u64, u64) {
        let tp = self.cfg.timing;
        let g = *self.geom();
        let (bg_ix, rk_ix) = self.path_scope(port, c);
        let path_ix = self.path_index(port, c);
        let latency = match kind {
            CasKind::Read => tp.t_cl,
            CasKind::Write => tp.t_cwl,
        };
        let data_start = t + latency;
        let data_end = data_start + tp.t_bl;
        let bank = &mut self.banks[c.bank_index(&g)];
        match kind {
            CasKind::Read => bank.next_pre = bank.next_pre.max(t + tp.t_rtp),
            CasKind::Write => bank.next_pre = bank.next_pre.max(t + tp.t_cwl + tp.t_bl + tp.t_wr),
        }
        let path = &mut self.paths[path_ix];
        path.last_cas = stamp(t);
        path.last_cas_by_bg[bg_ix] = stamp(t);
        match kind {
            CasKind::Read => path.last_rd_by_rank[rk_ix] = stamp(t),
            CasKind::Write => {
                path.last_wr_by_rank[rk_ix] = stamp(t);
                path.last_wr_by_bg[bg_ix] = stamp(t);
            }
        }
        path.bus_free = data_end;
        path.bus_last_rank = c.rank;
        path.bus_used = true;
        match kind {
            CasKind::Read => {
                self.stats.reads += 1;
                self.stats.reads_by_port[port.index()] += 1;
            }
            CasKind::Write => {
                self.stats.writes += 1;
                self.stats.writes_by_port[port.index()] += 1;
            }
        }
        self.stats.data_cycles += tp.t_bl;
        (data_start, data_end)
    }

    /// Non-committing refresh query: if rank `rk` has refresh deadlines at
    /// or before `t`, return when the owed all-bank REFs complete (issued
    /// back-to-back starting no earlier than `t` and every bank's `next_pre`)
    /// and how many are owed. `None` when no refresh is due.
    fn refresh_due(&self, rk: usize, t: u64) -> Option<(u64, u64)> {
        if !self.cfg.refresh || t < self.ranks[rk].next_ref {
            return None;
        }
        let g = self.geom();
        let tp = &self.cfg.timing;
        // Every interval whose deadline passed is owed exactly once.
        let owed = (t - self.ranks[rk].next_ref) / tp.t_refi + 1;
        let bank_base = rk * (g.bankgroups_per_rank * g.banks_per_bankgroup) as usize;
        let nb = (g.bankgroups_per_rank * g.banks_per_bankgroup) as usize;
        let mut start = t;
        for b in 0..nb {
            start = start.max(self.banks[bank_base + b].next_pre);
        }
        Some((start + tp.t_rp + owed * tp.t_rfc, owed))
    }

    /// Refresh handling: if the rank's deadline passed, simulate the owed
    /// all-bank REFs starting no earlier than `t` and return when the rank
    /// is usable. A rank that idled through many intervals pays its whole
    /// refresh debt here, once — `next_ref` advances past `t`, so the *next*
    /// access does not eat another catch-up REF.
    fn maybe_refresh(&mut self, c: &DramCoord, t: u64) -> u64 {
        let g = *self.geom();
        let rk = c.rank_index(&g);
        let Some((done, owed)) = self.refresh_due(rk, t) else {
            return t;
        };
        let bank_base = rk * (g.bankgroups_per_rank * g.banks_per_bankgroup) as usize;
        let nb = (g.bankgroups_per_rank * g.banks_per_bankgroup) as usize;
        for b in 0..nb {
            let bank = &mut self.banks[bank_base + b];
            bank.open_row = None;
            bank.next_act = bank.next_act.max(done);
        }
        self.ranks[rk].next_ref += owed * self.cfg.timing.t_refi;
        self.stats.refreshes += owed;
        done
    }

    /// Perform one block access on `port`, issuing PRE/ACT as needed, no
    /// earlier than `not_before`. Greedy in-order semantics per caller; the
    /// engine keeps callers approximately time-sorted.
    pub fn access(
        &mut self,
        coord: DramCoord,
        kind: CasKind,
        port: Port,
        not_before: u64,
    ) -> BlockTiming {
        let t0 = self.maybe_refresh(&coord, not_before);
        let g = *self.geom();
        let bank_ix = coord.bank_index(&g);
        let (row_hit, acts, cas_from) = match self.banks[bank_ix].open_row {
            Some(r) if r == coord.row => (true, 0, t0),
            Some(_) => {
                let pre_at = self.earliest_pre(&coord, t0);
                self.commit_pre(&coord, pre_at);
                self.record(pre_at, CmdKind::Pre, coord, port);
                let act_at = self.earliest_act(&coord, pre_at + self.cfg.timing.t_rp);
                self.commit_act(&coord, act_at);
                self.record(act_at, CmdKind::Act, coord, port);
                (false, 1, act_at)
            }
            None => {
                let act_at = self.earliest_act(&coord, t0);
                self.commit_act(&coord, act_at);
                self.record(act_at, CmdKind::Act, coord, port);
                (false, 1, act_at)
            }
        };
        if row_hit {
            self.stats.row_hits += 1;
        } else {
            self.stats.row_misses += 1;
        }
        let cas_at = self.earliest_cas(&coord, kind, port, cas_from);
        let (data_start, data_end) = self.commit_cas(&coord, kind, port, cas_at);
        self.record(
            cas_at,
            if kind == CasKind::Read { CmdKind::Read } else { CmdKind::Write },
            coord,
            port,
        );
        BlockTiming { cas_at, data_start, data_end, row_hit, acts }
    }

    /// Whether `c`'s bank currently holds `c.row` open — the next access to
    /// it is a guaranteed row hit that reads no rank-shared state.
    pub fn row_open(&self, c: &DramCoord) -> bool {
        self.banks[c.bank_index(self.geom())].open_row == Some(c.row)
    }

    /// Non-committing estimate of when the *data* of an access would start.
    ///
    /// Mirrors [`TimingState::access`] including a pending refresh: a rank
    /// whose deadline has passed gets its rows closed and stalls until the
    /// owed REFs complete before the estimate's ACT — otherwise the estimate
    /// is wrong by up to tRFC right after a refresh deadline and the
    /// engine's FR-FCFS selection orders accesses on fiction.
    pub fn probe(&self, coord: DramCoord, kind: CasKind, port: Port, not_before: u64) -> u64 {
        let g = *self.geom();
        let bank = &self.banks[coord.bank_index(&g)];
        let tp = &self.cfg.timing;
        let refreshed = self.refresh_due(coord.rank_index(&g), not_before);
        let cas_from = match (refreshed, bank.open_row) {
            // A pending refresh closes every row in the rank; the ACT waits
            // for the REF chain (and any standing tRC floor on the bank).
            (Some((done, _)), _) => self.earliest_act(&coord, done.max(bank.next_act)) + tp.t_rcd,
            (None, Some(r)) if r == coord.row => not_before,
            (None, Some(_)) => self.earliest_pre(&coord, not_before) + tp.t_rp + tp.t_rcd,
            (None, None) => self.earliest_act(&coord, not_before) + tp.t_rcd,
        };
        let cas_at = self.earliest_cas(&coord, kind, port, cas_from);
        cas_at
            + match kind {
                CasKind::Read => tp.t_cl,
                CasKind::Write => tp.t_cwl,
            }
    }

    /// Issue a *run* of same-direction block accesses with a closed-form
    /// fast path. The first block goes through the full [`TimingState::access`]
    /// machinery (refresh, PRE/ACT, every Table II constraint). Each
    /// subsequent block is supplied by `next`, which receives the timing of
    /// the block just issued and replies with the next block
    /// ([`RunReply::Block`] with its `(coord, not_before)`), a closed-form
    /// jump, or [`RunReply::End`].
    ///
    /// While a follower stays in the *steady state* — same bank and row as
    /// the previous block, no refresh deadline crossed — its CAS time is
    /// exact in closed form: every constraint that does not advance within
    /// a same-row run (tRCD from the opening ACT, write→read / read→write
    /// turnarounds against pre-run commands) was already folded into the
    /// previous CAS, so the only live constraints are the CAS-to-CAS cadence
    /// and data-bus occupancy, `cas = max(nb, prev_cas + max(tCCDL, tCCDS,
    /// tBL))`. Bank/path stamps, bus occupancy, and [`DramStats`] are
    /// batch-committed when the steady state breaks or the run ends.
    /// Followers that leave the steady state (row or bank change, pending
    /// refresh) — and every block when command tracing is on — fall back to
    /// the full per-block path, so the sequence of [`BlockTiming`]s, the
    /// stats, and the trace are bit-identical to single `access` calls.
    ///
    /// The caller may answer [`RunReply::Jump`] to issue `count` further
    /// blocks of the current steady run in one step, promising that each
    /// would repeat the previous coordinate with a CAS time exactly `d`
    /// cycles after its predecessor (`d ≥` the CAS-to-CAS cadence floor,
    /// so the cadence constraint holds and per-block `not_before` values
    /// never bind). The promise is the caller's: it is only sound when
    /// the caller's own issue state advances by exactly `d` per block —
    /// see the shift-invariance detection in the engine's batch loop —
    /// and when no refresh deadline or trace can interleave (the jump is
    /// rejected by debug assertion otherwise). The next callback
    /// invocation receives the timing of the *last* jumped block, which
    /// the caller must treat as already accounted.
    ///
    /// Returns the number of blocks issued (≥ 1).
    pub fn access_run_stream<F: FnMut(BlockTiming) -> RunReply>(
        &mut self,
        first: DramCoord,
        kind: CasKind,
        port: Port,
        not_before: u64,
        next: &mut F,
    ) -> u64 {
        let g = *self.geom();
        let tp = self.cfg.timing;
        let step = tp.t_ccdl.max(tp.t_ccds).max(tp.t_bl);
        let latency = match kind {
            CasKind::Read => tp.t_cl,
            CasKind::Write => tp.t_cwl,
        };
        let mut bt = self.access(first, kind, port, not_before);
        let mut n = 1u64;
        let mut run = first;
        let mut bank_ix = run.bank_index(&g);
        let mut rank_ix = run.rank_index(&g);
        // Followers issued in closed form but not yet committed.
        let mut pending = 0u64;
        let mut last_cas = bt.cas_at;
        // Once a follower passes the full steady test, its invariant parts
        // (no trace, the run's row open in the run's bank) cannot change
        // until the next full `access` — steady iterations touch no bank or
        // trace state. A follower repeating the previous coordinate
        // verbatim therefore only needs the refresh-deadline recheck, the
        // one condition that advances with `nb`.
        let mut verified = false;
        let mut next_ref = u64::MAX;
        loop {
            let (c, nb) = match next(bt) {
                RunReply::End => break,
                RunReply::Jump { count, d } => {
                    debug_assert!(
                        count > 0 && d >= step && self.trace.is_none() && !self.cfg.refresh,
                        "RunReply::Jump requires a steady, trace- and refresh-free run"
                    );
                    last_cas += count * d;
                    bt = BlockTiming {
                        cas_at: last_cas,
                        data_start: last_cas + latency,
                        data_end: last_cas + latency + tp.t_bl,
                        row_hit: true,
                        acts: 0,
                    };
                    pending += count;
                    n += count;
                    continue;
                }
                RunReply::Block(c, nb) => (c, nb),
            };
            let steady = (verified && c == run && (!self.cfg.refresh || nb < next_ref)) || {
                let full = self.trace.is_none()
                    && c.row == run.row
                    && c.bank_index(&g) == bank_ix
                    && (!self.cfg.refresh || nb < self.ranks[rank_ix].next_ref)
                    && self.banks[bank_ix].open_row == Some(run.row);
                if full {
                    run = c;
                    verified = true;
                    next_ref = self.ranks[rank_ix].next_ref;
                }
                full
            };
            if steady {
                let cas_at = nb.max(last_cas + step);
                bt = BlockTiming {
                    cas_at,
                    data_start: cas_at + latency,
                    data_end: cas_at + latency + tp.t_bl,
                    row_hit: true,
                    acts: 0,
                };
                last_cas = cas_at;
                pending += 1;
            } else {
                self.commit_run(&run, kind, port, pending, last_cas);
                pending = 0;
                bt = self.access(c, kind, port, nb);
                run = c;
                bank_ix = run.bank_index(&g);
                rank_ix = run.rank_index(&g);
                last_cas = bt.cas_at;
                // The full access may have refreshed or re-opened rows;
                // re-establish the invariants before trusting them again.
                verified = false;
            }
            n += 1;
        }
        self.commit_run(&run, kind, port, pending, last_cas);
        n
    }

    /// Batch-commit `count` closed-form followers of a steady run ending at
    /// `last_cas`: all per-block updates are monotone in the CAS time, so
    /// only the final values need storing.
    fn commit_run(&mut self, c: &DramCoord, kind: CasKind, port: Port, count: u64, last_cas: u64) {
        if count == 0 {
            return;
        }
        let tp = self.cfg.timing;
        let g = *self.geom();
        let (bg_ix, rk_ix) = self.path_scope(port, c);
        let path_ix = self.path_index(port, c);
        let latency = match kind {
            CasKind::Read => tp.t_cl,
            CasKind::Write => tp.t_cwl,
        };
        let bank = &mut self.banks[c.bank_index(&g)];
        match kind {
            CasKind::Read => bank.next_pre = bank.next_pre.max(last_cas + tp.t_rtp),
            CasKind::Write => {
                bank.next_pre = bank.next_pre.max(last_cas + tp.t_cwl + tp.t_bl + tp.t_wr)
            }
        }
        let path = &mut self.paths[path_ix];
        path.last_cas = stamp(last_cas);
        path.last_cas_by_bg[bg_ix] = stamp(last_cas);
        match kind {
            CasKind::Read => path.last_rd_by_rank[rk_ix] = stamp(last_cas),
            CasKind::Write => {
                path.last_wr_by_rank[rk_ix] = stamp(last_cas);
                path.last_wr_by_bg[bg_ix] = stamp(last_cas);
            }
        }
        path.bus_free = last_cas + latency + tp.t_bl;
        path.bus_last_rank = c.rank;
        path.bus_used = true;
        match kind {
            CasKind::Read => {
                self.stats.reads += count;
                self.stats.reads_by_port[port.index()] += count;
            }
            CasKind::Write => {
                self.stats.writes += count;
                self.stats.writes_by_port[port.index()] += count;
            }
        }
        self.stats.row_hits += count;
        self.stats.data_cycles += count * tp.t_bl;
    }

    /// Commit `periods` repetitions of a period of row hits in closed
    /// form: `period` lists one period's blocks in issue order with their
    /// CAS times, and each repetition issues every block again, on the
    /// same bank and open row, `shift` cycles after its counterpart one
    /// period earlier. The caller promises what [`RunReply::Jump`] promises
    /// for one key: the rows are open, no refresh or trace interleaves,
    /// and every block issues at its time.
    ///
    /// Every field a row hit writes is monotone in its CAS time, so the
    /// state after the blocks is `commit_run` of each key's blocks (bank
    /// and row) at its last CAS of the last period, committed in CAS order
    /// (the latest wins the path's and bus's stamps), and the statistics
    /// grow per block.
    pub fn commit_round_hits(
        &mut self,
        period: &[(DramCoord, u64)],
        kind: CasKind,
        port: Port,
        shift: u64,
        periods: u64,
    ) {
        debug_assert!(self.trace.is_none() && !self.cfg.refresh, "closed-form row hits");
        debug_assert!(period.windows(2).all(|w| w[0].1 < w[1].1), "a period in issue order");
        let g = *self.geom();
        let key = |c: &DramCoord| (c.bank_index(&g), c.row);
        for (i, (c, cas)) in period.iter().enumerate() {
            // Each key commits once, at its last place in the period.
            if period[i + 1..].iter().any(|(o, _)| key(o) == key(c)) {
                continue;
            }
            debug_assert_eq!(self.banks[c.bank_index(&g)].open_row, Some(c.row), "row hits");
            let per_period = period.iter().filter(|(o, _)| key(o) == key(c)).count() as u64;
            self.commit_run(c, kind, port, periods * per_period, cas + periods * shift);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stepstone_addr::{mapping_by_id, MappingId};

    fn coord(ch: u32, rk: u32, bg: u32, bank: u32, row: u32, col: u32) -> DramCoord {
        DramCoord { channel: ch, rank: rk, bankgroup: bg, bank, row, col }
    }

    #[test]
    fn row_hit_stream_paces_at_ccdl_same_bg() {
        let mut ts = TimingState::new(DramConfig::default());
        let tp = ts.cfg.timing;
        let c0 = coord(0, 0, 0, 0, 0, 0);
        let first = ts.access(c0, CasKind::Read, Port::BgInternal, 0);
        assert!(!first.row_hit);
        let mut prev = first.cas_at;
        for col in 1..10 {
            let bt = ts.access(coord(0, 0, 0, 0, 0, col), CasKind::Read, Port::BgInternal, 0);
            assert!(bt.row_hit);
            assert_eq!(bt.cas_at - prev, tp.t_ccdl, "same-BG CAS gap");
            prev = bt.cas_at;
        }
    }

    #[test]
    fn rank_port_reaches_ccds_across_bankgroups() {
        let mut ts = TimingState::new(DramConfig::default());
        let tp = ts.cfg.timing;
        // Open a row in each bank group first.
        for bg in 0..4 {
            ts.access(coord(0, 0, bg, 0, 0, 0), CasKind::Read, Port::RankInternal, 0);
        }
        // Now interleave: consecutive CAS to different bank groups pace at
        // tCCDS = tBL (full rank bandwidth).
        let mut last = 0;
        for i in 0..8 {
            let bt =
                ts.access(coord(0, 0, i % 4, 0, 0, 1 + i / 4), CasKind::Read, Port::RankInternal, 0);
            if i > 0 {
                assert_eq!(bt.cas_at - last, tp.t_ccds);
            }
            last = bt.cas_at;
        }
    }

    #[test]
    fn bg_internal_paths_are_independent() {
        let mut ts = TimingState::new(DramConfig::default());
        // Two BG PIMs in the same rank stream concurrently without CAS
        // interference (separate internal datapaths).
        let a0 = ts.access(coord(0, 0, 0, 0, 0, 0), CasKind::Read, Port::BgInternal, 0);
        let b0 = ts.access(coord(0, 0, 1, 0, 0, 0), CasKind::Read, Port::BgInternal, 0);
        // Second ACT pays tRRDS (shared rank activation budget) but the CAS
        // gap is not tCCD-linked across the two paths.
        assert_eq!(b0.cas_at - a0.cas_at, ts.cfg.timing.t_rrds);
        let a1 = ts.access(coord(0, 0, 0, 0, 0, 1), CasKind::Read, Port::BgInternal, 0);
        let b1 = ts.access(coord(0, 0, 1, 0, 0, 1), CasKind::Read, Port::BgInternal, 0);
        assert_eq!(a1.cas_at - a0.cas_at, ts.cfg.timing.t_ccdl);
        assert_eq!(b1.cas_at - b0.cas_at, ts.cfg.timing.t_ccdl);
    }

    #[test]
    fn row_conflict_pays_precharge_and_activate() {
        let mut ts = TimingState::new(DramConfig::default());
        let tp = ts.cfg.timing;
        let first = ts.access(coord(0, 0, 0, 0, 0, 0), CasKind::Read, Port::Channel, 0);
        let conflict = ts.access(coord(0, 0, 0, 0, 7, 0), CasKind::Read, Port::Channel, 0);
        assert!(!conflict.row_hit);
        // PRE cannot issue before tRTP after the read; ACT follows tRP; CAS
        // follows tRCD.
        let min_cas = first.cas_at + tp.t_rtp + tp.t_rp + tp.t_rcd;
        assert!(conflict.cas_at >= min_cas);
    }

    #[test]
    fn faw_throttles_activation_bursts() {
        let mut ts = TimingState::new(DramConfig::default());
        let tp = ts.cfg.timing;
        let mut act_cas = Vec::new();
        // 5 activations to distinct banks in one rank.
        for b in 0..5 {
            let bt = ts.access(coord(0, 0, b % 4, b / 4, 0, 0), CasKind::Read, Port::Channel, 0);
            act_cas.push(bt.cas_at - tp.t_rcd);
        }
        assert!(act_cas[4] - act_cas[0] >= tp.t_faw, "5th ACT respects tFAW");
    }

    #[test]
    fn write_to_read_turnaround_enforced() {
        let mut ts = TimingState::new(DramConfig::default());
        let tp = ts.cfg.timing;
        let w = ts.access(coord(0, 0, 0, 0, 0, 0), CasKind::Write, Port::Channel, 0);
        let r = ts.access(coord(0, 0, 0, 0, 0, 1), CasKind::Read, Port::Channel, 0);
        assert!(r.cas_at >= w.cas_at + tp.wtr(true));
    }

    #[test]
    fn rank_switch_pays_rtrs_on_channel() {
        let mut ts = TimingState::new(DramConfig::default());
        let tp = ts.cfg.timing;
        // Warm both ranks (open rows).
        ts.access(coord(0, 0, 0, 0, 0, 0), CasKind::Read, Port::Channel, 0);
        ts.access(coord(0, 1, 0, 0, 0, 0), CasKind::Read, Port::Channel, 0);
        let a = ts.access(coord(0, 0, 1, 0, 0, 0), CasKind::Read, Port::Channel, 1000);
        let b = ts.access(coord(0, 1, 1, 0, 0, 0), CasKind::Read, Port::Channel, 1000);
        // Bursts must be separated by at least tBL + tRTRS on the shared bus.
        assert!(b.data_start >= a.data_end + tp.t_rtrs);
    }

    #[test]
    fn channels_are_fully_independent() {
        let mut ts = TimingState::new(DramConfig::default());
        let a = ts.access(coord(0, 0, 0, 0, 0, 0), CasKind::Read, Port::Channel, 0);
        let b = ts.access(coord(1, 0, 0, 0, 0, 0), CasKind::Read, Port::Channel, 0);
        assert_eq!(a.cas_at, b.cas_at, "different channels do not interact");
    }

    #[test]
    fn refresh_blocks_the_rank_when_enabled() {
        let cfg = DramConfig { refresh: true, ..DramConfig::default() };
        let mut ts = TimingState::new(cfg);
        let c = coord(0, 0, 0, 0, 0, 0);
        ts.access(c, CasKind::Read, Port::Channel, 0);
        let after = ts.access(coord(0, 0, 0, 0, 0, 1), CasKind::Read, Port::Channel, 10_000);
        assert_eq!(ts.stats.refreshes, 1);
        assert!(after.cas_at >= 10_000 + cfg.timing.t_rfc, "post-refresh access is delayed");
    }

    #[test]
    fn long_idle_rank_pays_its_refresh_debt_once() {
        let cfg = DramConfig { refresh: true, ..DramConfig::default() };
        let tp = cfg.timing;
        let mut ts = TimingState::new(cfg);
        let c = coord(0, 0, 0, 0, 0, 0);
        ts.access(c, CasKind::Read, Port::Channel, 0);
        assert_eq!(ts.stats.refreshes, 0);
        // Idle through 10 whole refresh intervals, then touch the rank.
        let t = tp.t_refi * 10 + tp.t_refi / 2;
        let first = ts.access(coord(0, 0, 0, 0, 0, 1), CasKind::Read, Port::Channel, t);
        assert_eq!(ts.stats.refreshes, 10, "every missed interval is owed exactly once");
        assert!(first.cas_at >= t + 10 * tp.t_rfc, "the debt is charged to this access");
        // The *next* access must not eat another catch-up REF: next_ref has
        // advanced past `t`, so only the regular cadence remains.
        let second = ts.access(coord(0, 0, 0, 0, 0, 2), CasKind::Read, Port::Channel, first.cas_at);
        assert_eq!(ts.stats.refreshes, 10, "no further catch-up REF");
        assert!(second.cas_at < first.cas_at + tp.t_rfc, "second access is cadence-paced");
    }

    #[test]
    fn probe_accounts_for_pending_refresh() {
        let cfg = DramConfig { refresh: true, ..DramConfig::default() };
        let mut ts = TimingState::new(cfg);
        let c = coord(0, 0, 0, 0, 3, 0);
        ts.access(c, CasKind::Read, Port::Channel, 0);
        // Just past the deadline: the non-committing estimate must match
        // what the committing access actually achieves (and not be
        // optimistic by up to tRFC).
        let t = cfg.timing.t_refi + 5;
        let next = coord(0, 0, 1, 0, 3, 0);
        let est = ts.probe(next, CasKind::Read, Port::Channel, t);
        assert_eq!(ts.stats.refreshes, 0, "probe commits nothing");
        let bt = ts.access(next, CasKind::Read, Port::Channel, t);
        assert_eq!(est, bt.data_start, "estimate equals the committed data start");
        assert_eq!(ts.stats.refreshes, 1);
        assert!(est >= t + cfg.timing.t_rfc, "estimate includes the REF stall");
    }

    #[test]
    fn probe_refresh_estimate_is_consistent_on_the_open_rank() {
        // Same-rank probe with a pending refresh: rows will be closed by
        // the REF, so even a would-be row hit must estimate a full ACT.
        let cfg = DramConfig { refresh: true, ..DramConfig::default() };
        let mut ts = TimingState::new(cfg);
        let c = coord(0, 0, 0, 0, 3, 0);
        ts.access(c, CasKind::Read, Port::Channel, 0);
        let t = cfg.timing.t_refi + 1;
        let est = ts.probe(coord(0, 0, 0, 0, 3, 1), CasKind::Read, Port::Channel, t);
        let bt = ts.access(coord(0, 0, 0, 0, 3, 1), CasKind::Read, Port::Channel, t);
        assert_eq!(est, bt.data_start);
        assert!(!bt.row_hit, "refresh closed the row");
    }

    /// The whole timing state: banks, ranks, paths and statistics.
    fn state(ts: &TimingState) -> (&[BankState], &[RankState], &[PathState], DramStats) {
        (&ts.banks, &ts.ranks, &ts.paths, ts.stats)
    }

    /// Issue `blocks` per block, each no earlier than the previous CAS (a
    /// DMA engine's pacing), and return their CAS times.
    fn issue(ts: &mut TimingState, blocks: &[DramCoord], kind: CasKind, port: Port) -> Vec<u64> {
        let mut nb = 0;
        let mut cas = Vec::new();
        for (m, c) in blocks.iter().enumerate() {
            nb = ts.access(DramCoord { col: m as u32 % 128, ..*c }, kind, port, nb).cas_at;
            cas.push(nb);
        }
        cas
    }

    /// Committing `periods` further periods of `period`'s row hits in
    /// closed form, shifted `shift` each from its last issue at `cas`,
    /// lands on the state, statistics and next timings of per-block
    /// `access` calls; the other bank of `untouched` keeps its row.
    fn commit_matches_per_block(
        ts: &mut TimingState,
        period: &[(DramCoord, u64)],
        kind: CasKind,
        port: Port,
        shift: u64,
        periods: u64,
    ) {
        let before = ts.stats;
        let mut jumped = ts.clone();
        jumped.commit_round_hits(period, kind, port, shift, periods);
        let blocks: Vec<DramCoord> =
            (0..periods).flat_map(|_| period.iter().map(|p| p.0)).collect();
        let mut nb = period.last().expect("a period").1;
        for (m, c) in blocks.iter().enumerate() {
            let bt = ts.access(DramCoord { col: m as u32 % 128, ..*c }, kind, port, nb);
            let (q, i) = (m as u64 / period.len() as u64, m % period.len());
            let want = period[i].1 + (q + 1) * shift;
            assert_eq!((bt.cas_at, bt.row_hit), (want, true), "{port:?} {kind:?} block {m}");
            nb = bt.cas_at;
        }
        assert!(state(&jumped) == state(ts), "{port:?} {kind:?}: {} per period", period.len());
        assert_eq!(ts.stats.delta(&before).row_hits, blocks.len() as u64);
        for c in period.iter().map(|p| p.0) {
            for k in [CasKind::Read, CasKind::Write] {
                let next = |t: &TimingState| t.clone().access(c, k, port, 0);
                assert_eq!(next(&jumped), next(ts), "the next {k:?} to {c:?}");
            }
        }
    }

    /// Committing further periods of row hits in closed form lands on the
    /// state, statistics and next timings of per-block `access` calls:
    ///
    /// * a rank-internal stream alternating two bank groups at tCCDS (a
    ///   StepStone-DV A-walk), with a round holding each key once or
    ///   twice, leaving the rest of the channel alone;
    /// * a channel-port stream over four keys on two ranks (a DMA engine's
    ///   round-robin) whose period of `j ≤ 4` rounds visits the keys in a
    ///   different rotation each round, so its rank switches, and the
    ///   tRTRS gaps they cost, make the CAS offsets irregular; reads and
    ///   writes.
    #[test]
    fn round_hits_commit_like_per_block_accesses() {
        let port = Port::RankInternal;
        let keys = [coord(0, 1, 0, 0, 9, 0), coord(0, 1, 1, 0, 9, 0)];
        let mut ts = TimingState::new(DramConfig::default());
        // The host opens another bank of the rank over the channel.
        let other = ts.access(coord(0, 1, 2, 3, 4, 0), CasKind::Read, Port::Channel, 0);
        let mut nb = *issue(&mut ts, &[keys, keys, keys, keys, keys, keys, keys, keys].concat(),
            CasKind::Read, port).last().expect("warm-up");
        let t_ccds = ts.cfg.timing.t_ccds;
        for (round, rounds) in [(keys.to_vec(), 7), ([keys, keys].concat(), 3)] {
            let len = round.len() as u64;
            let period: Vec<(DramCoord, u64)> =
                round.iter().enumerate().map(|(i, &c)| (c, nb - (len - 1 - i as u64) * t_ccds)).collect();
            commit_matches_per_block(&mut ts, &period, CasKind::Read, port, len * t_ccds, rounds);
            nb += rounds * len * t_ccds;
        }
        let again = ts.access(coord(0, 1, 2, 3, 4, 1), CasKind::Read, Port::Channel, 0);
        assert!(again.row_hit && again.cas_at >= other.cas_at, "the other bank kept its row");

        let keys = [
            coord(0, 0, 0, 0, 5, 0),
            coord(0, 0, 1, 0, 7, 0),
            coord(0, 1, 0, 0, 6, 0),
            coord(0, 1, 2, 1, 8, 0),
        ];
        for kind in [CasKind::Read, CasKind::Write] {
            for j in 1..=4 {
                let period: Vec<DramCoord> =
                    (0..j).flat_map(|r| (0..4).map(move |i| keys[(i + r) % 4])).collect();
                let mut ts = TimingState::new(DramConfig::default());
                let cas = issue(&mut ts, &period.repeat(6), kind, Port::Channel);
                let (older, last) = cas[cas.len() - 2 * period.len()..].split_at(period.len());
                let shift = last[0] - older[0];
                assert!(
                    older.iter().zip(last).all(|(a, b)| b - a == shift),
                    "{kind:?} j={j}: the stream settles into periods"
                );
                let gaps: Vec<u64> = last.windows(2).map(|w| w[1] - w[0]).collect();
                assert!(gaps.iter().any(|&g| g != gaps[0]), "{kind:?} j={j}: irregular {gaps:?}");
                let period: Vec<(DramCoord, u64)> =
                    period.iter().copied().zip(last.iter().copied()).collect();
                commit_matches_per_block(&mut ts, &period, kind, Port::Channel, shift, 5);
            }
        }
    }

    #[test]
    fn stream_through_mapping_counts_every_block(){
        let m = mapping_by_id(MappingId::Skylake);
        let mut ts = TimingState::new(DramConfig::default());
        let n = 512u64;
        for b in 0..n {
            let c = m.decode(b * 64);
            ts.access(c, CasKind::Read, Port::Channel, 0);
        }
        assert_eq!(ts.stats.reads, n);
        assert_eq!(ts.stats.reads_by_port[Port::Channel.index()], n);
        assert_eq!(ts.stats.row_hits + ts.stats.row_misses, n);
    }

    #[test]
    fn delta_saturates_when_a_counter_resets_across_sessions() {
        // The serving session layer snapshots cumulative stats and reports
        // per-request deltas. If the underlying counters ever restart
        // mid-timeline (fresh `TimingState` reused against an old
        // snapshot), every field must clamp to zero rather than wrap to
        // ~u64::MAX and poison downstream per-request accounting.
        let before = DramStats {
            reads: 100,
            writes: 50,
            acts: 10,
            row_hits: 9,
            row_misses: 1,
            reads_by_port: [5, 6, 7],
            writes_by_port: [1, 2, 3],
            data_cycles: 400,
            refreshes: 2,
        };
        let after = DramStats { reads: 1, ..DramStats::default() };
        assert_eq!(after.delta(&before), DramStats::default());
        // And the normal direction still subtracts exactly.
        assert_eq!(before.delta(&after).reads, 99);
    }

    /// `shift_rank` accepts a rank whose every time moved one period on,
    /// rejects one where a single access came late, and its move `k`
    /// periods on lands where issuing those periods does. A period is a
    /// row miss and a hit in bank 0 of each bank group of rank 0, on a new
    /// row each period.
    #[test]
    fn shift_rank_checks_and_moves_one_rank() {
        let cfg = DramConfig { refresh: false, ..DramConfig::default() };
        let (d, per_bg) = (4000, cfg.geom.banks_per_bankgroup as usize);
        // Periods 0..n, the last one's bank-group-3 access `late` cycles
        // late; returns the state and the rank's copy before the last one.
        let run = |n: u64, late: u64| {
            let mut ts = TimingState::new(cfg);
            let mut then = ts.rank_copy(0, 0);
            for p in 0..n {
                then = ts.rank_copy(0, 0);
                for bg in 0..4 {
                    let nb = p * d + 40 * bg as u64 + if p + 1 == n && bg == 3 { late } else { 0 };
                    for (col, kind) in [(0, CasKind::Read), (1, CasKind::Write)] {
                        let c = coord(0, 0, bg, 0, p as u32, col);
                        ts.access(c, kind, Port::RankInternal, nb);
                    }
                }
            }
            (ts, then)
        };
        let (mut ts, then) = run(3, 0);
        assert!(ts.shift_rank(&then, d, 2 * d, 0, &[]), "a repeated period");
        let (mut late, then_late) = run(3, 7);
        assert!(!late.shift_rank(&then_late, d, 2 * d, 0, &[]), "an access came late");
        let rows: Vec<_> = (0..then.banks.len()).map(|b| (b % per_bg == 0).then_some(4)).collect();
        assert!(ts.shift_rank(&then, d, 2 * d, 2, &rows));
        assert_eq!(ts.rank_copy(0, 0), run(5, 0).0.rank_copy(0, 0), "two periods on");
    }
}
