//! The analytic fast memory tier: closed-form row-hit/row-miss costing.
//!
//! [`AnalyticState`] implements [`MemoryBackend`]
//! with O(1) state per bank/rank/path and straight-line arithmetic per
//! access — no FR-FCFS interplay, no turnaround bookkeeping, no refresh
//! machinery. It keeps only what closed-form costing needs:
//!
//! * per **bank**: the open row and a tRC floor on the next activate —
//!   enough to classify hit/miss and charge `tRP + tRCD` per miss;
//! * per **rank**: a four-entry activate ring — the tFAW activate
//!   throughput bound;
//! * per **path** (same channel/rank-internal/BG-internal layout as the
//!   exact model): the last CAS, its bank group, and data-bus occupancy —
//!   the steady-state cadence `max(tCCD, tBL)`.
//!
//! The model is deliberately *consistent* with the exact tier where the
//! engine relies on structure: a steady same-bank-group, same-row run
//! advances at exactly [`cas_step`](crate::MemoryBackend::cas_step) per
//! block (so the run-granular `RunReply::Jump` cadence is well-defined),
//! and `probe` is the non-committing image of `access`. Everything else —
//! cross-rank turnarounds, write-to-read penalties, refresh — is dropped;
//! that is the speed/accuracy trade the tier exists for. The differential
//! harness (the workspace root's `tests/engine_matrix.rs`) pins the
//! resulting error band and checks latency *ordering* against the exact
//! model.
//!
//! The production analytic path for whole GEMMs does not even drive the
//! engine: `stepstone-core` costs phases per region/cell in closed form
//! (see `core::analytic::execute_pow2_gemm`). `AnalyticState` exists so
//! the *same generic engine* can execute on the analytic model for
//! cross-validation, and for traffic patterns with no closed form.

use stepstone_addr::DramCoord;

use crate::audit::CommandTrace;
use crate::backend::MemoryBackend;
use crate::config::DramConfig;
use crate::timing::{BlockTiming, CasKind, DramStats, Port, RunReply};

/// Store `t` such that 0 means "never".
fn stamp(t: u64) -> u64 {
    t + 1
}

/// Earliest time ≥ `stamped + gap` (0-safe).
fn after(stamped: u64, gap: u64) -> u64 {
    if stamped == 0 {
        0
    } else {
        stamped - 1 + gap
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct ABank {
    open_row: Option<u32>,
    /// tRC floor: earliest next activate.
    next_act: u64,
    /// tRAS/tRTP/tWR floor: earliest next precharge. Anchors the row-miss
    /// penalty to the bank's last transfer instead of letting the CAS
    /// cadence swallow it.
    next_pre: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct ARank {
    /// Activate times of the last four ACTs (ring buffer) — tFAW window.
    acts: [u64; 4],
    head: u8,
}

#[derive(Debug, Clone, Copy, Default)]
struct APath {
    /// Stamped time of the last CAS on this path (0 = never).
    last_cas: u64,
    /// Bank group of that CAS (same-BG cadence is the longer tCCD_L).
    last_bg: u32,
    /// One past the last data cycle on this path's bus.
    bus_free: u64,
}

/// Closed-form analytic DRAM model (the `BackendKind::Analytic` tier).
#[derive(Debug, Clone)]
pub struct AnalyticState {
    cfg: DramConfig,
    pub stats: DramStats,
    banks: Vec<ABank>,
    ranks: Vec<ARank>,
    /// `[channels]` channel paths, then `[channels×ranks]` rank-internal,
    /// then `[channels×ranks×bgs]` BG-internal (same layout as the exact
    /// model, so `adopt_channel` is a channel-major slice copy).
    paths: Vec<APath>,
}

impl AnalyticState {
    pub fn new(cfg: DramConfig) -> Self {
        let g = cfg.geom;
        let n_ranks = (g.channels * g.ranks_per_channel) as usize;
        let n_paths = g.channels as usize
            + n_ranks
            + (g.channels * g.ranks_per_channel * g.bankgroups_per_rank) as usize;
        Self {
            cfg,
            stats: DramStats::default(),
            banks: vec![ABank::default(); g.total_banks() as usize],
            ranks: vec![ARank::default(); n_ranks],
            paths: vec![APath::default(); n_paths],
        }
    }

    fn path_index(&self, port: Port, c: &DramCoord) -> usize {
        let g = &self.cfg.geom;
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

    fn latency(&self, kind: CasKind) -> u64 {
        match kind {
            CasKind::Read => self.cfg.timing.t_cl,
            CasKind::Write => self.cfg.timing.t_cwl,
        }
    }

    /// Earliest CAS for `c` at or after `from`, given path cadence and bus
    /// occupancy. Non-committing.
    fn cas_floor(&self, c: &DramCoord, kind: CasKind, port: Port, from: u64) -> u64 {
        let tp = &self.cfg.timing;
        let path = &self.paths[self.path_index(port, c)];
        let mut at = from;
        at = at.max(after(path.last_cas, tp.ccd(path.last_bg == c.bankgroup)));
        at = at.max(path.bus_free.saturating_sub(self.latency(kind)));
        at.max(after(path.last_cas, tp.t_bl))
    }

    /// Earliest CAS assuming the row must be opened first (row miss /
    /// closed bank). Non-committing; ignores tFAW (probe-side only).
    fn miss_cas_floor(&self, c: &DramCoord, t: u64) -> u64 {
        let tp = &self.cfg.timing;
        let bank = &self.banks[c.bank_index(&self.cfg.geom)];
        let act_at = if bank.open_row.is_some() {
            (t.max(bank.next_pre) + tp.t_rp).max(bank.next_act)
        } else {
            t.max(bank.next_act)
        };
        act_at + tp.t_rcd
    }
}

impl MemoryBackend for AnalyticState {
    fn config(&self) -> &DramConfig {
        &self.cfg
    }

    fn stats(&self) -> &DramStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut DramStats {
        &mut self.stats
    }

    /// The analytic tier has no command stream to record.
    fn enable_trace(&mut self) {}

    fn take_trace(&mut self) -> Option<CommandTrace> {
        None
    }

    fn trace_enabled(&self) -> bool {
        false
    }

    fn cas_step(&self) -> u64 {
        let tp = self.cfg.timing;
        tp.t_ccdl.max(tp.t_ccds).max(tp.t_bl)
    }

    fn row_open(&self, c: &DramCoord) -> bool {
        self.banks[c.bank_index(&self.cfg.geom)].open_row == Some(c.row)
    }

    fn probe(&self, coord: DramCoord, kind: CasKind, port: Port, not_before: u64) -> u64 {
        let hit = self.row_open(&coord);
        let from = if hit { not_before } else { self.miss_cas_floor(&coord, not_before) };
        self.cas_floor(&coord, kind, port, from) + self.latency(kind)
    }

    fn access(
        &mut self,
        coord: DramCoord,
        kind: CasKind,
        port: Port,
        not_before: u64,
    ) -> BlockTiming {
        let g = self.cfg.geom;
        let tp = self.cfg.timing;
        let bank_ix = coord.bank_index(&g);
        let row_hit = self.banks[bank_ix].open_row == Some(coord.row);
        let cas_from = if row_hit {
            not_before
        } else {
            // Row cycle: PRE (if a row was open) + ACT + tRCD, throttled by
            // the bank's tRC/tRAS floors and the rank's tFAW window.
            let bank = self.banks[bank_ix];
            let mut act_at = if bank.open_row.is_some() {
                (not_before.max(bank.next_pre) + tp.t_rp).max(bank.next_act)
            } else {
                not_before.max(bank.next_act)
            };
            let rank = &mut self.ranks[coord.rank_index(&g)];
            act_at = act_at.max(rank.acts[rank.head as usize] + tp.t_faw);
            rank.acts[rank.head as usize] = act_at;
            rank.head = (rank.head + 1) % 4;
            let bank = &mut self.banks[bank_ix];
            bank.open_row = Some(coord.row);
            bank.next_act = act_at + tp.t_rc;
            bank.next_pre = bank.next_pre.max(act_at + tp.t_ras);
            self.stats.acts += 1;
            act_at + tp.t_rcd
        };
        let cas_at = self.cas_floor(&coord, kind, port, cas_from);
        let latency = self.latency(kind);
        let data_start = cas_at + latency;
        let data_end = data_start + tp.t_bl;
        let bank = &mut self.banks[bank_ix];
        bank.next_pre = bank.next_pre.max(match kind {
            CasKind::Read => cas_at + tp.t_rtp,
            CasKind::Write => cas_at + tp.t_cwl + tp.t_bl + tp.t_wr,
        });
        let path_ix = self.path_index(port, &coord);
        let path = &mut self.paths[path_ix];
        path.last_cas = stamp(cas_at);
        path.last_bg = coord.bankgroup;
        path.bus_free = data_end;
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
        if row_hit {
            self.stats.row_hits += 1;
        } else {
            self.stats.row_misses += 1;
        }
        self.stats.data_cycles += tp.t_bl;
        BlockTiming { cas_at, data_start, data_end, row_hit, acts: u32::from(!row_hit) }
    }

    fn access_run_stream<F: FnMut(BlockTiming) -> RunReply>(
        &mut self,
        first: DramCoord,
        kind: CasKind,
        port: Port,
        not_before: u64,
        next: &mut F,
    ) -> u64 {
        let g = self.cfg.geom;
        let tp = self.cfg.timing;
        let step = self.cas_step();
        let latency = self.latency(kind);
        let mut bt = self.access(first, kind, port, not_before);
        let mut n = 1u64;
        let mut run = first;
        let mut bank_ix = run.bank_index(&g);
        let mut last_cas = bt.cas_at;
        // Steady followers batch their stats/path commit, like the exact
        // model's `commit_run`.
        let mut pending = 0u64;
        loop {
            let (c, nb) = match next(bt) {
                RunReply::End => break,
                RunReply::Jump { count, d } => {
                    debug_assert!(count > 0 && d >= step, "Jump below the cadence floor");
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
            let steady =
                c.row == run.row && c.bank_index(&g) == bank_ix && self.row_open(&run);
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
                last_cas = bt.cas_at;
            }
            n += 1;
        }
        self.commit_run(&run, kind, port, pending, last_cas);
        n
    }

    fn adopt_channel(&mut self, other: &Self, ch: u32) {
        let g = self.cfg.geom;
        assert_eq!(g, other.cfg.geom, "adopt_channel requires identical geometry");
        let ch = ch as usize;
        let banks_per_ch =
            (g.ranks_per_channel * g.bankgroups_per_rank * g.banks_per_bankgroup) as usize;
        let b0 = ch * banks_per_ch;
        self.banks[b0..b0 + banks_per_ch].copy_from_slice(&other.banks[b0..b0 + banks_per_ch]);
        let ranks_per_ch = g.ranks_per_channel as usize;
        let r0 = ch * ranks_per_ch;
        self.ranks[r0..r0 + ranks_per_ch].copy_from_slice(&other.ranks[r0..r0 + ranks_per_ch]);
        let nch = g.channels as usize;
        let nrk = (g.channels * g.ranks_per_channel) as usize;
        self.paths[ch..ch + 1].copy_from_slice(&other.paths[ch..ch + 1]);
        self.paths[nch + r0..nch + r0 + ranks_per_ch]
            .copy_from_slice(&other.paths[nch + r0..nch + r0 + ranks_per_ch]);
        let bgs_per_ch = (g.ranks_per_channel * g.bankgroups_per_rank) as usize;
        let bg0 = ch * bgs_per_ch;
        self.paths[nch + nrk + bg0..nch + nrk + bg0 + bgs_per_ch]
            .copy_from_slice(&other.paths[nch + nrk + bg0..nch + nrk + bg0 + bgs_per_ch]);
    }
}

impl AnalyticState {
    /// Batch-commit `count` steady followers ending at `last_cas`.
    fn commit_run(&mut self, c: &DramCoord, kind: CasKind, port: Port, count: u64, last_cas: u64) {
        if count == 0 {
            return;
        }
        let tp = self.cfg.timing;
        let latency = self.latency(kind);
        let bank = &mut self.banks[c.bank_index(&self.cfg.geom)];
        bank.next_pre = bank.next_pre.max(match kind {
            CasKind::Read => last_cas + tp.t_rtp,
            CasKind::Write => last_cas + tp.t_cwl + tp.t_bl + tp.t_wr,
        });
        let path_ix = self.path_index(port, c);
        let path = &mut self.paths[path_ix];
        path.last_cas = stamp(last_cas);
        path.last_bg = c.bankgroup;
        path.bus_free = last_cas + latency + tp.t_bl;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::TimingState;

    fn coord(bank: u32, row: u32, col: u32) -> DramCoord {
        DramCoord { channel: 0, rank: 0, bankgroup: 0, bank, row, col }
    }

    #[test]
    fn steady_run_advances_at_cas_step() {
        let mut a = AnalyticState::new(DramConfig::default());
        let step = a.cas_step();
        let b0 = a.access(coord(0, 3, 0), CasKind::Read, Port::BgInternal, 0);
        assert!(!b0.row_hit);
        let mut prev = b0.cas_at;
        for col in 1..8 {
            let bt = a.access(coord(0, 3, col), CasKind::Read, Port::BgInternal, 0);
            assert!(bt.row_hit);
            assert_eq!(bt.cas_at, prev + step, "steady cadence must equal cas_step");
            prev = bt.cas_at;
        }
    }

    #[test]
    fn row_miss_costs_a_row_cycle_more_than_a_hit() {
        let cfg = DramConfig::default();
        let mut a = AnalyticState::new(cfg);
        a.access(coord(0, 1, 0), CasKind::Read, Port::BgInternal, 0);
        let hit = a.probe(coord(0, 1, 1), CasKind::Read, Port::BgInternal, 1000);
        let miss = a.probe(coord(0, 2, 1), CasKind::Read, Port::BgInternal, 1000);
        assert_eq!(miss - hit, cfg.timing.t_rp + cfg.timing.t_rcd);
        // probe is non-committing and matches the access it predicts.
        let bt = a.access(coord(0, 2, 1), CasKind::Read, Port::BgInternal, 1000);
        assert_eq!(bt.data_start, miss);
    }

    #[test]
    fn tfaw_throttles_activate_bursts() {
        let cfg = DramConfig::default();
        let mut a = AnalyticState::new(cfg);
        // 5 back-to-back misses to distinct banks: the 5th ACT must wait
        // for the tFAW window even though banks are independent.
        let mut cas = Vec::new();
        for bank in 0..4 {
            cas.push(a.access(coord(bank, 9, 0), CasKind::Read, Port::Channel, 0).cas_at);
        }
        let fifth = a
            .access(
                DramCoord { bankgroup: 1, ..coord(0, 9, 0) },
                CasKind::Read,
                Port::Channel,
                0,
            )
            .cas_at;
        assert!(fifth >= cfg.timing.t_faw + cfg.timing.t_rcd, "fifth ACT inside tFAW window");
    }

    #[test]
    fn run_stream_matches_per_block_access() {
        let cfg = DramConfig::default();
        let mut via_run = AnalyticState::new(cfg);
        let mut per_block = AnalyticState::new(cfg);
        let mut streamed = Vec::new();
        let mut col = 0u32;
        via_run.access_run_stream(coord(0, 5, 0), CasKind::Read, Port::BgInternal, 0, &mut |bt| {
            streamed.push(bt);
            col += 1;
            if col < 10 {
                RunReply::Block(coord(0, 5, col), 0)
            } else {
                RunReply::End
            }
        });
        let direct: Vec<BlockTiming> = (0..10)
            .map(|c| per_block.access(coord(0, 5, c), CasKind::Read, Port::BgInternal, 0))
            .collect();
        assert_eq!(streamed, direct[..streamed.len()]);
        assert_eq!(via_run.stats.reads, per_block.stats.reads);
        assert_eq!(via_run.stats.row_hits, per_block.stats.row_hits);
    }

    #[test]
    fn jump_advances_cadence_and_stats() {
        let cfg = DramConfig::default();
        let mut a = AnalyticState::new(cfg);
        let step = a.cas_step();
        let mut last = None;
        let mut fed = 0;
        let n = a.access_run_stream(coord(0, 5, 0), CasKind::Read, Port::BgInternal, 0, &mut |bt| {
            last = Some(bt);
            fed += 1;
            if fed == 1 {
                RunReply::Jump { count: 7, d: step }
            } else {
                RunReply::End
            }
        });
        assert_eq!(n, 8);
        assert_eq!(a.stats.reads, 8);
        assert_eq!(a.stats.row_hits, 7);
        let first_cas = last.unwrap().cas_at - 7 * step;
        // Next access on the path continues from the jumped cadence.
        let next = a.access(coord(0, 5, 9), CasKind::Read, Port::BgInternal, 0);
        assert_eq!(next.cas_at, first_cas + 8 * step);
    }

    #[test]
    fn ordering_tracks_the_exact_model_on_mixed_patterns() {
        // The analytic tier's contract: cheaper patterns under the exact
        // model must not become more expensive under the analytic one.
        let cfg = DramConfig::default();
        let run = |rows_stride: u32| -> (u64, u64) {
            let mut exact = TimingState::new(cfg);
            let mut fast = AnalyticState::new(cfg);
            let mut e_end = 0;
            let mut f_end = 0;
            for i in 0..64u32 {
                let c = coord(0, 1 + i / 16 * rows_stride, i % 16);
                e_end = exact.access(c, CasKind::Read, Port::BgInternal, 0).data_end;
                f_end = MemoryBackend::access(&mut fast, c, CasKind::Read, Port::BgInternal, 0)
                    .data_end;
            }
            (e_end, f_end)
        };
        let (e_seq, f_seq) = run(0); // one row, pure hits
        let (e_mix, f_mix) = run(3); // row miss every 16 blocks
        assert!(e_seq < e_mix && f_seq < f_mix, "ordering preserved");
        // Error band: within 25% on these simple patterns.
        for (e, f) in [(e_seq, f_seq), (e_mix, f_mix)] {
            let ratio = f as f64 / e as f64;
            assert!((0.75..1.25).contains(&ratio), "ratio {ratio}");
        }
    }

    #[test]
    fn adopt_channel_transfers_per_channel_state() {
        let cfg = DramConfig::default();
        let mut base = AnalyticState::new(cfg);
        let mut adv = base.clone();
        let c = DramCoord { channel: 1, rank: 0, bankgroup: 2, bank: 1, row: 42, col: 0 };
        adv.access(c, CasKind::Write, Port::BgInternal, 100);
        base.adopt_channel(&adv, 1);
        assert!(base.row_open(&c));
        // Stats are not adopted (caller merges).
        assert_eq!(base.stats.writes, 0);
        // Channel-0 state untouched.
        assert!(!base.row_open(&DramCoord { channel: 0, ..c }));
    }
}
