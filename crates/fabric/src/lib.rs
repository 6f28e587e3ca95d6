//! Inter-device fabric for multi-PIM reduction (scale-out beyond one
//! memory controller).
//!
//! The paper's evaluation stops at PIMs behind a single controller: the
//! reduce phase and every cross-PIM byte ride host DMA. This crate models
//! an inter-DIMM/inter-channel interconnect as a first-class fabric so a
//! reduce phase can move partial sums PIM→PIM without the host round
//! trip:
//!
//! * [`Topology`] — route-aware topology trait ([`Line`] and [`Ring`] to
//!   start) enumerating directed links and the hop sequence between any
//!   two nodes;
//! * [`FabricState`] — hop-by-hop in-flight message tracking over
//!   per-link FIFO serializers with configurable bandwidth and hop
//!   latency, plus per-link peak-demand statistics ([`LinkStats`]);
//! * [`FabricState::reduce_to_root`] — the reduction schedule the
//!   simulator's Phase-3 integration uses: every node's locally merged
//!   partial-`C` payload is routed to a root node and folded in by the
//!   root's accumulator.
//!
//! The fabric *composes with* the DRAM model (`dram::TimingState`) rather
//! than replacing it: the engine drains each device's partial-`C` region
//! through that model exactly as the host-DMA path does (same DRAM command
//! stream, same `DramStats`), and the per-channel drain completion times
//! become the fabric's injection times. Senders stall only for the local
//! handoff — once a message is accepted by its first link, the producing
//! node is free; contention is carried by the links themselves (the
//! hwgc-soft interconnect-routing lesson). See `docs/fabric.md`.

pub mod state;
pub mod topology;

pub use state::{
    FabricConfig, FabricState, FabricStats, LinkEvent, LinkStats, Message, ReduceVia,
};
pub use topology::{build_topology, Line, Ring, Topology, TopologyKind};
