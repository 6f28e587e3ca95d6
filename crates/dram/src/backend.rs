//! The engine↔DRAM boundary: the memory-backend trait.
//!
//! [`MemoryBackend`] is cut at the exact surface the engine consumes from
//! [`TimingState`] — **execute-and-stall**, never latency-query. The
//! engine asks the model to *perform* each access (or closed-form run) and
//! learns when the data moved; it never asks "how long would this take?"
//! and then advances its own clock. The DRAMsim3-integration postmortems
//! that seeded this design (SNIPPETS.md) found latency-query interfaces
//! over stateful memory models to be wrong by construction: the answer
//! changes as soon as any other access commits. Every method here either
//! commits state (`access`, `access_run_stream`, `commit_round_hits`,
//! `adopt_channel`) or is an explicitly non-committing estimate used only
//! for FR-FCFS front selection (`probe`). No method exports the model's
//! internal state: a closed-form commit is verified by the engine from
//! the unit's own issues (what it asked the model to do and when the
//! model did it), never by reading the model's fields back.
//!
//! The one implementor is [`TimingState`], the exact Table-II model. The
//! analytic tier ([`BackendKind::Analytic`]) is not a second model behind
//! this trait: it costs whole power-of-two GEMMs in closed form
//! (`core::analytic`), and a request without a closed form runs the exact
//! engine over a [`TimingState`].
//!
//! The trait keeps the generic-closure run-streaming method
//! (`access_run_stream` is generic over `F`, not `dyn FnMut`): the engine
//! is generic over `B: MemoryBackend`, so everything monomorphizes to the
//! inherent [`TimingState`] calls.

use stepstone_addr::DramCoord;

use crate::audit::CommandTrace;
use crate::config::DramConfig;
use crate::timing::{BlockTiming, CasKind, DramStats, Port, RunReply, TimingState};

/// Which memory-model tier a simulation runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The exact cycle-level Table-II model ([`TimingState`]).
    #[default]
    Exact,
    /// The closed-form analytic executor in `stepstone-core`
    /// (`core::analytic`): whole power-of-two GEMMs without colocated
    /// traffic are costed in closed form; every other request (colocated
    /// traffic, fused passes, PEI, nCHO) runs the exact engine and
    /// reports exact cycles.
    Analytic,
}

impl BackendKind {
    /// Stable lowercase name (CLI flags, report tags, JSON sections).
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Exact => "exact",
            BackendKind::Analytic => "analytic",
        }
    }

    /// Parse a CLI/env selector.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "exact" | "timing" | "ddr" => Some(BackendKind::Exact),
            "analytic" | "fast" => Some(BackendKind::Analytic),
            _ => None,
        }
    }
}

/// A DRAM timing model the engine can drive.
///
/// Semantics contract ([`TimingState`] is the one implementor):
///
/// * `access` commits one block and returns its [`BlockTiming`];
///   `probe` is the non-committing estimate of the same access's data
///   start, used by FR-FCFS front selection.
/// * `access_run_stream` commits a whole same-(bank,row,direction) run,
///   calling `next` after each block; the reply may jump the settled tail
///   in closed form ([`RunReply::Jump`] with cadence `d ≥ cas_step()`).
/// * `adopt_channel` copies channel `ch`'s state from an independently
///   advanced clone — channels must share no timing state (this is what
///   makes per-channel parallel phase execution exact). Statistics are
///   *not* adopted; the caller merges them.
pub trait MemoryBackend: Clone + Send + Sync {
    fn config(&self) -> &DramConfig;

    /// Aggregate statistics committed so far.
    fn stats(&self) -> &DramStats;
    fn stats_mut(&mut self) -> &mut DramStats;

    /// Start recording issued commands (auditing). A traced model sends
    /// the engine down its per-block path, whose command order is part of
    /// the trace contract.
    fn enable_trace(&mut self);
    fn take_trace(&mut self) -> Option<CommandTrace>;
    fn trace_enabled(&self) -> bool;

    /// CAS-to-CAS cadence floor of a steady same-row run; lower bound on
    /// the `d` of a [`RunReply::Jump`].
    fn cas_step(&self) -> u64;

    /// Whether `coord`'s row is open in its bank right now.
    fn row_open(&self, c: &DramCoord) -> bool;

    /// Non-committing estimate of when the data of this access would start.
    fn probe(&self, coord: DramCoord, kind: CasKind, port: Port, not_before: u64) -> u64;

    /// Execute one block access, committing all state it implies.
    fn access(
        &mut self,
        coord: DramCoord,
        kind: CasKind,
        port: Port,
        not_before: u64,
    ) -> BlockTiming;

    /// Execute a same-(bank,row,direction) run: issue `first`, then keep
    /// consuming replies from `next` (fed the just-issued block's timing)
    /// until it returns [`RunReply::End`]. Returns the number of blocks
    /// issued (≥ 1).
    fn access_run_stream<F: FnMut(BlockTiming) -> RunReply>(
        &mut self,
        first: DramCoord,
        kind: CasKind,
        port: Port,
        not_before: u64,
        next: &mut F,
    ) -> u64;

    /// Adopt channel `ch`'s timing state from `other` (a clone advanced
    /// independently). Statistics are not adopted.
    fn adopt_channel(&mut self, other: &Self, ch: u32);

    /// Commit `periods` repetitions of a period of row hits on open rows
    /// in closed form: every block of `period` (coordinates with their CAS
    /// times, in issue order) again, `shift` cycles after its counterpart
    /// one period earlier (see [`TimingState::commit_round_hits`]).
    fn commit_round_hits(
        &mut self,
        period: &[(DramCoord, u64)],
        kind: CasKind,
        port: Port,
        shift: u64,
        periods: u64,
    );
}

impl MemoryBackend for TimingState {
    fn config(&self) -> &DramConfig {
        TimingState::config(self)
    }

    fn stats(&self) -> &DramStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut DramStats {
        &mut self.stats
    }

    fn enable_trace(&mut self) {
        TimingState::enable_trace(self)
    }

    fn take_trace(&mut self) -> Option<CommandTrace> {
        TimingState::take_trace(self)
    }

    fn trace_enabled(&self) -> bool {
        TimingState::trace_enabled(self)
    }

    fn cas_step(&self) -> u64 {
        TimingState::cas_step(self)
    }

    fn row_open(&self, c: &DramCoord) -> bool {
        TimingState::row_open(self, c)
    }

    fn probe(&self, coord: DramCoord, kind: CasKind, port: Port, not_before: u64) -> u64 {
        TimingState::probe(self, coord, kind, port, not_before)
    }

    fn access(
        &mut self,
        coord: DramCoord,
        kind: CasKind,
        port: Port,
        not_before: u64,
    ) -> BlockTiming {
        TimingState::access(self, coord, kind, port, not_before)
    }

    fn access_run_stream<F: FnMut(BlockTiming) -> RunReply>(
        &mut self,
        first: DramCoord,
        kind: CasKind,
        port: Port,
        not_before: u64,
        next: &mut F,
    ) -> u64 {
        TimingState::access_run_stream(self, first, kind, port, not_before, next)
    }

    fn adopt_channel(&mut self, other: &Self, ch: u32) {
        TimingState::adopt_channel(self, other, ch)
    }

    fn commit_round_hits(
        &mut self,
        period: &[(DramCoord, u64)],
        kind: CasKind,
        port: Port,
        shift: u64,
        periods: u64,
    ) {
        TimingState::commit_round_hits(self, period, kind, port, shift, periods)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The engine is generic over `B: MemoryBackend`; this pins the exact
    /// model's trait surface to the inherent one (same results through
    /// either dispatch path).
    fn drive<B: MemoryBackend>(b: &mut B) -> (u64, u64) {
        let c = DramCoord { channel: 0, rank: 0, bankgroup: 0, bank: 0, row: 7, col: 0 };
        let bt = b.access(c, CasKind::Read, Port::Channel, 0);
        let probed =
            b.probe(DramCoord { col: 1, ..c }, CasKind::Read, Port::Channel, bt.cas_at);
        (bt.data_end, probed)
    }

    #[test]
    fn trait_dispatch_matches_inherent_calls() {
        let cfg = DramConfig::default();
        let mut via_trait = TimingState::new(cfg);
        let (end_t, probe_t) = drive(&mut via_trait);

        let mut direct = TimingState::new(cfg);
        let c = DramCoord { channel: 0, rank: 0, bankgroup: 0, bank: 0, row: 7, col: 0 };
        let bt = TimingState::access(&mut direct, c, CasKind::Read, Port::Channel, 0);
        let probed = TimingState::probe(
            &direct,
            DramCoord { col: 1, ..c },
            CasKind::Read,
            Port::Channel,
            bt.cas_at,
        );
        assert_eq!((end_t, probe_t), (bt.data_end, probed));
        assert_eq!(via_trait.stats().reads, 1);
        assert!(MemoryBackend::row_open(&via_trait, &c));
    }

    #[test]
    fn backend_kind_names_round_trip() {
        for k in [BackendKind::Exact, BackendKind::Analytic] {
            assert_eq!(BackendKind::by_name(k.name()), Some(k));
        }
        assert_eq!(BackendKind::default(), BackendKind::Exact);
        assert!(BackendKind::by_name("dramsim").is_none());
    }
}
