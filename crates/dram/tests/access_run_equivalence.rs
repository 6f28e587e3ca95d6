//! The span fast path must be invisible: a run driven through
//! `access_run_stream` with block-at-a-time `RunReply::Block` / `End`
//! replies must produce exactly the `BlockTiming` sequence, `DramStats`,
//! and command trace of independent `access` calls over the same
//! coordinates — including runs that straddle row ends and refresh
//! deadlines, every port, both CAS directions, and arbitrary not-before
//! pressure.

use proptest::prelude::*;
use stepstone_addr::{DramCoord, Geometry};
use stepstone_dram::{BlockTiming, CasKind, DramConfig, Port, RunReply, TimingState};

fn coord(rank: u32, bg: u32, bank: u32, row: u32, col: u32) -> DramCoord {
    DramCoord { channel: 0, rank, bankgroup: bg, bank, row, col }
}

/// The next block of a physically contiguous run: columns increment,
/// wrapping into the next row.
fn next_coord(g: &Geometry, mut c: DramCoord) -> DramCoord {
    c.col += 1;
    if c.col >= g.blocks_per_row {
        c.col = 0;
        c.row = (c.row + 1) % g.rows_per_bank;
    }
    c
}

/// `len` contiguous blocks from `first` through `access_run_stream`; `nb` maps
/// the timing of the block just issued to the next block's not-before.
fn stream_run(
    ts: &mut TimingState,
    first: DramCoord,
    kind: CasKind,
    port: Port,
    not_before: u64,
    len: u64,
    nb: impl Fn(&BlockTiming) -> u64,
) -> Vec<BlockTiming> {
    assert!(len >= 1, "a run has at least one block");
    let g = ts.config().geom;
    let mut out = Vec::with_capacity(len as usize);
    let mut cur = first;
    let issued = ts.access_run_stream(first, kind, port, not_before, &mut |bt| {
        out.push(bt);
        if out.len() as u64 == len {
            return RunReply::End;
        }
        cur = next_coord(&g, cur);
        RunReply::Block(cur, nb(&bt))
    });
    assert_eq!(issued, len, "access_run_stream counts every issued block");
    out
}

/// The per-block reference: `len` single `access` calls over the same
/// coordinate and not-before sequence [`stream_run`] issues.
fn reference_run(
    ts: &mut TimingState,
    mut c: DramCoord,
    kind: CasKind,
    port: Port,
    not_before: u64,
    len: u64,
    nb: impl Fn(&BlockTiming) -> u64,
) -> Vec<BlockTiming> {
    let g = ts.config().geom;
    let mut out = Vec::with_capacity(len as usize);
    let mut t = not_before;
    for _ in 0..len {
        let bt = ts.access(c, kind, port, t);
        t = nb(&bt);
        out.push(bt);
        c = next_coord(&g, c);
    }
    out
}

#[derive(Debug, Clone, Copy)]
struct RunSpec {
    rank: u32,
    bg: u32,
    bank: u32,
    row: u32,
    col: u32,
    write: bool,
    port: u8,
    not_before: u64,
    len: u64,
}

fn run_spec() -> impl Strategy<Value = RunSpec> {
    (
        (0u32..2, 0u32..4, 0u32..4, 0u32..64),
        0u32..128,
        any::<bool>(),
        0u8..3,
        0u64..4000,
        1u64..200,
    )
        .prop_map(|((rank, bg, bank, row), col, write, port, not_before, len)| RunSpec {
            rank,
            bg,
            bank,
            row,
            col,
            write,
            port,
            not_before,
            len,
        })
}

fn port_of(ix: u8) -> Port {
    Port::ALL[ix as usize % 3]
}

fn apply_runs(cfg: DramConfig, specs: &[RunSpec], trace: bool, fast: bool) -> TimingState {
    let mut ts = TimingState::new(cfg);
    if trace {
        ts.enable_trace();
    }
    for s in specs {
        let c = coord(s.rank, s.bg, s.bank, s.row, s.col);
        let kind = if s.write { CasKind::Write } else { CasKind::Read };
        let port = port_of(s.port);
        let fixed = |_: &BlockTiming| s.not_before;
        if fast {
            stream_run(&mut ts, c, kind, port, s.not_before, s.len, fixed);
        } else {
            reference_run(&mut ts, c, kind, port, s.not_before, s.len, fixed);
        }
    }
    ts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // One run at a time from a cold state: identical timings and stats,
    // with and without refresh, across random coords/kinds/ports/lengths
    // (lengths up to 200 blocks straddle the 128-block rows).
    #[test]
    fn single_run_matches_per_block(spec in run_spec(), refresh in any::<bool>()) {
        let cfg = DramConfig { refresh, ..DramConfig::default() };
        let c = coord(spec.rank, spec.bg, spec.bank, spec.row, spec.col);
        let kind = if spec.write { CasKind::Write } else { CasKind::Read };
        let port = port_of(spec.port);
        let fixed = |_: &BlockTiming| spec.not_before;

        let mut fast = TimingState::new(cfg);
        let got = stream_run(&mut fast, c, kind, port, spec.not_before, spec.len, fixed);
        let mut slow = TimingState::new(cfg);
        let want = reference_run(&mut slow, c, kind, port, spec.not_before, spec.len, fixed);

        prop_assert_eq!(&got, &want);
        prop_assert_eq!(fast.stats, slow.stats);
    }

    // Sequences of runs over a shared state — mixed directions, ports,
    // banks — so the batch commit of one run feeds the constraints of the
    // next. Stats and (traced) command streams must match exactly.
    #[test]
    fn run_sequences_match_per_block(specs in proptest::collection::vec(run_spec(), 1..12),
                                     refresh in any::<bool>()) {
        let cfg = DramConfig { refresh, ..DramConfig::default() };
        let fast = apply_runs(cfg, &specs, false, true);
        let slow = apply_runs(cfg, &specs, false, false);
        prop_assert_eq!(fast.stats, slow.stats);
    }

    // With command tracing on, the fast path must still record every
    // PRE/ACT/REF/CAS at the same time, place, and order.
    #[test]
    fn traced_runs_match_per_block(specs in proptest::collection::vec(run_spec(), 1..8)) {
        let cfg = DramConfig { refresh: true, ..DramConfig::default() };
        let mut fast = apply_runs(cfg, &specs, true, true);
        let mut slow = apply_runs(cfg, &specs, true, false);
        let ft = fast.take_trace().expect("trace").records;
        let st = slow.take_trace().expect("trace").records;
        prop_assert_eq!(ft, st);
    }

    // An engine-style greedy run (each block's not-before is the previous
    // CAS) driven across a refresh deadline: the fast path must fall back
    // for the refresh block mid-run and stay bit-identical.
    #[test]
    fn runs_straddle_refresh_deadlines(len in 2u64..2500, headroom in 0u64..2000) {
        let cfg = DramConfig { refresh: true, ..DramConfig::default() };
        let start = cfg.timing.t_refi.saturating_sub(headroom);
        let first = coord(0, 0, 0, 7, 0);
        let greedy = |bt: &BlockTiming| bt.cas_at;

        let mut fast = TimingState::new(cfg);
        let got = stream_run(&mut fast, first, CasKind::Read, Port::Channel, start, len, greedy);
        let mut slow = TimingState::new(cfg);
        let want =
            reference_run(&mut slow, first, CasKind::Read, Port::Channel, start, len, greedy);

        prop_assert_eq!(&got, &want);
        prop_assert_eq!(fast.stats, slow.stats);
        // Long runs starting near the deadline must actually cross it.
        if len > 400 {
            prop_assert!(fast.stats.refreshes >= 1, "run crossed no deadline");
        }
    }
}
