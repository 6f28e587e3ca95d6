//! Cycle-level DDR4 timing simulator with PIM access ports.
//!
//! This crate rebuilds the substrate the paper evaluates on (a modified
//! Ramulator, §IV): the full Table II DDR4-2400R timing model, bank/rank
//! state machines, per-port datapaths (external channel, rank-internal for
//! StepStone-DV, bank-group-internal for StepStone-BG), a functional backing
//! store for end-to-end result checking, a command-bus contention model for
//! kernel-launch packets, and a command-trace auditor used by property tests
//! to prove the simulator never emits an illegal schedule.
//!
//! The design is deliberately event-driven rather than cycle-stepped: each
//! access computes its legal issue time from explicit constraint registers
//! (the Ramulator approach), so simulating a multi-million-cycle GEMM costs
//! microseconds per thousand blocks.
//!
//! [`TimingState`] is the one DRAM model, and the engine drives it
//! directly. The analytic tier ([`BackendKind::Analytic`]) is a closed-form
//! GEMM executor in `stepstone-core`, not a second timing model; requests
//! it has no closed form for run the exact engine over a [`TimingState`].

pub mod audit;
pub mod backend;
pub mod cmdbus;
pub mod config;
pub mod memory;
pub mod timing;
pub mod traffic;

pub use audit::{CmdKind, CmdRecord, CommandTrace};
pub use backend::BackendKind;
pub use cmdbus::CommandBus;
pub use config::{DramConfig, TimingParams};
pub use memory::SparseMem;
pub use timing::{BlockTiming, CasKind, DramStats, Port, RunReply, TimingState};
pub use traffic::{TrafficReq, TrafficSource};

// The benchmark harness still imports this name (`simbench/src/compose.rs`,
// which calls `stats()` on a `TimingState`). The harness changes only when
// the benchmark is re-baselined; the alias goes with that import.
#[doc(hidden)]
pub type MemoryBackend = TimingState;
