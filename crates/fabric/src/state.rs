//! Hop-by-hop fabric simulation: per-link FIFO serializers, in-flight
//! message tracking, peak-demand statistics, and the reduce-to-root
//! schedule the Phase-3 integration uses.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::topology::{build_topology, Topology, TopologyKind};

/// How the simulator merges partial `C` across PIM devices.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ReduceVia {
    /// The paper's path: partial sums drain over each channel to the host,
    /// which performs the merge. The default — bit-identical to the
    /// pre-fabric simulator and CI-gated.
    #[default]
    HostDma,
    /// Partial sums drain locally, then move PIM→PIM over the inter-device
    /// fabric to a root accumulator — no host round trip.
    Fabric,
}

/// Fabric link/accumulator parameters. Node count is supplied by the
/// caller (the Phase-3 integration uses one node per DRAM channel —
/// the inter-DIMM boundary).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricConfig {
    pub topology: TopologyKind,
    /// Serializer bandwidth of every directed link, bytes per DRAM-clock
    /// cycle (defaults match the DDR4 channel: 16 B/cycle).
    pub link_bytes_per_cycle: u64,
    /// Per-hop flight latency in cycles (pipeline time; does not occupy
    /// the serializer).
    pub link_latency: u64,
    /// Fold rate of the root node's reduce accumulator, bytes per cycle.
    pub accum_bytes_per_cycle: u64,
}

impl Default for FabricConfig {
    fn default() -> Self {
        Self {
            topology: TopologyKind::Ring,
            link_bytes_per_cycle: 16,
            link_latency: 40,
            accum_bytes_per_cycle: 16,
        }
    }
}

impl FabricConfig {
    pub fn with_topology(mut self, kind: TopologyKind) -> Self {
        self.topology = kind;
        self
    }
}

/// One fabric message: `bytes` moving `src → dst`, injected at `inject`
/// (absolute cycles). `id` is the deterministic tie-break for simultaneous
/// arrivals at one link, so the simulation outcome is independent of the
/// order messages are *listed* in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    pub id: u64,
    pub src: usize,
    pub dst: usize,
    pub bytes: u64,
    pub inject: u64,
}

/// Per-directed-link statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    pub src: usize,
    pub dst: usize,
    /// Bytes carried (each message counts once per link it crosses).
    pub bytes: u64,
    /// Cycles the serializer was transmitting.
    pub busy_cycles: u64,
    pub messages: u64,
    /// Peak demand: the largest number of bytes simultaneously outstanding
    /// at this link (queued behind the serializer or in transmission).
    pub peak_demand_bytes: u64,
    /// First cycle the serializer went busy (0 when unused).
    pub first_busy: u64,
    /// Last cycle the serializer freed (0 when unused).
    pub last_free: u64,
}

impl LinkStats {
    /// Delivered bandwidth over the link's active span `[first_busy,
    /// last_free)`, in GB/s at `clock_hz` — the "peak GB/s" figure of the
    /// bench section (demand beyond it shows up in `peak_demand_bytes`).
    pub fn gbps_active(&self, clock_hz: u64) -> f64 {
        let span = self.last_free.saturating_sub(self.first_busy);
        if span == 0 {
            return 0.0;
        }
        self.bytes as f64 / span as f64 * clock_hz as f64 / 1e9
    }

    fn merge(&mut self, o: &LinkStats) {
        self.bytes += o.bytes;
        self.busy_cycles += o.busy_cycles;
        self.messages += o.messages;
        self.peak_demand_bytes = self.peak_demand_bytes.max(o.peak_demand_bytes);
        if o.messages > 0 {
            self.first_busy =
                if self.messages == o.messages { o.first_busy } else { self.first_busy.min(o.first_busy) };
            self.last_free = self.last_free.max(o.last_free);
        }
    }
}

/// Whole-fabric statistics attached to a `LatencyReport` when the reduce
/// phase ran over the fabric.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FabricStats {
    /// Topology tag ("line" / "ring").
    pub topology: String,
    pub nodes: usize,
    pub links: Vec<LinkStats>,
    /// Bytes injected into the fabric (sum over messages, once each).
    pub bytes_injected: u64,
    /// Bytes delivered at destinations (== injected: conservation).
    pub bytes_delivered: u64,
    /// Cycles the reduce spent past the last local drain (fabric transit
    /// plus root accumulation).
    pub reduce_fabric_cycles: u64,
}

impl FabricStats {
    /// Merge a sequential sub-execution (decomposed sub-GEMM rounds over
    /// the same fabric).
    pub fn merge(&mut self, o: &FabricStats) {
        if self.links.is_empty() {
            *self = o.clone();
            return;
        }
        if self.topology != o.topology || self.links.len() != o.links.len() {
            return;
        }
        for (l, ol) in self.links.iter_mut().zip(&o.links) {
            l.merge(ol);
        }
        self.bytes_injected += o.bytes_injected;
        self.bytes_delivered += o.bytes_delivered;
        self.reduce_fabric_cycles += o.reduce_fabric_cycles;
    }
}

/// One transmission at a link, in service (FIFO) order — the conformance
/// suite asserts ordering and non-overlap from this log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkEvent {
    pub message: u64,
    /// When the message arrived at (was handed to) this link.
    pub arrival: u64,
    /// When its transmission started (>= arrival; >= previous finish).
    pub start: u64,
    /// When the serializer freed (`start + ceil(bytes/bw)`).
    pub finish: u64,
}

/// In-flight transmission bookkeeping for peak-demand tracking.
struct Outstanding {
    clears_at: u64,
    bytes: u64,
}

struct Link {
    free_at: u64,
    stats: LinkStats,
    outstanding: Vec<Outstanding>,
    log: Vec<LinkEvent>,
}

/// The fabric simulator: a topology plus per-link serializer state.
///
/// Messages traverse their route store-and-forward: a hop's serializer is
/// occupied for `ceil(bytes / link_bytes_per_cycle)` cycles, the head
/// additionally pays `link_latency` flight cycles, and the whole message
/// is available to the next hop when both complete. Links serve messages
/// in arrival order (FIFO, ties broken by message id), so the outcome is
/// independent of how the message list is ordered — the property the
/// conformance suite pins.
pub struct FabricState {
    cfg: FabricConfig,
    topo: Box<dyn Topology>,
    links: Vec<Link>,
}

impl FabricState {
    pub fn new(cfg: FabricConfig, nodes: usize) -> Self {
        let topo = build_topology(cfg.topology, nodes);
        let links = (0..topo.n_links())
            .map(|l| {
                let (src, dst) = topo.link_ends(l);
                Link {
                    free_at: 0,
                    stats: LinkStats { src, dst, ..LinkStats::default() },
                    outstanding: Vec::new(),
                    log: Vec::new(),
                }
            })
            .collect();
        Self { cfg, topo, links }
    }

    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    pub fn topology(&self) -> &dyn Topology {
        self.topo.as_ref()
    }

    /// Run a message schedule to completion; returns each message's
    /// delivery time at its destination, in input order. Deterministic:
    /// events are ordered by (time, message id, hop).
    pub fn run(&mut self, msgs: &[Message]) -> Vec<u64> {
        let routes: Vec<Vec<usize>> =
            msgs.iter().map(|m| self.topo.route(m.src, m.dst)).collect();
        let mut delivered: Vec<u64> = msgs.iter().map(|m| m.inject).collect();
        // (arrival time, message id, message index, hop index) min-heap.
        let mut events: BinaryHeap<Reverse<(u64, u64, usize, usize)>> = BinaryHeap::new();
        for (ix, m) in msgs.iter().enumerate() {
            if !routes[ix].is_empty() {
                events.push(Reverse((m.inject, m.id, ix, 0)));
            }
        }
        while let Some(Reverse((arrival, id, ix, hop))) = events.pop() {
            let m = &msgs[ix];
            let link = &mut self.links[routes[ix][hop]];
            let xmit = m.bytes.div_ceil(self.cfg.link_bytes_per_cycle.max(1));
            let start = arrival.max(link.free_at);
            let finish = start + xmit;
            link.free_at = finish;
            link.log.push(LinkEvent { message: id, arrival, start, finish });
            // Peak demand: bytes outstanding (queued or transmitting) at
            // this link the instant this message arrived.
            link.outstanding.retain(|o| o.clears_at > arrival);
            link.outstanding.push(Outstanding { clears_at: finish, bytes: m.bytes });
            let demand: u64 = link.outstanding.iter().map(|o| o.bytes).sum();
            let s = &mut link.stats;
            s.bytes += m.bytes;
            s.busy_cycles += xmit;
            s.peak_demand_bytes = s.peak_demand_bytes.max(demand);
            if s.messages == 0 {
                s.first_busy = start;
            }
            s.messages += 1;
            s.last_free = s.last_free.max(finish);
            // Store-and-forward: the next hop sees the message after the
            // serializer drains it plus the hop flight latency.
            let at_next = finish + self.cfg.link_latency;
            if hop + 1 < routes[ix].len() {
                events.push(Reverse((at_next, id, ix, hop + 1)));
            } else {
                delivered[ix] = at_next;
            }
        }
        delivered
    }

    /// The reduction schedule: every node's locally merged partial-`C`
    /// payload (`(ready_cycle, bytes)` per node, index = node id) is routed
    /// to `root`, whose accumulator folds arrivals in delivery order at
    /// `accum_bytes_per_cycle`. The root's own payload is the accumulation
    /// base (ready when its local drain ends). Returns the cycle the
    /// reduction completes.
    pub fn reduce_to_root(&mut self, payloads: &[(u64, u64)], root: usize) -> u64 {
        assert_eq!(payloads.len(), self.topo.nodes(), "one payload per fabric node");
        assert!(root < self.topo.nodes());
        let msgs: Vec<Message> = payloads
            .iter()
            .enumerate()
            .filter(|&(i, &(_, bytes))| i != root && bytes > 0)
            .map(|(i, &(ready, bytes))| Message {
                id: i as u64,
                src: i,
                dst: root,
                bytes,
                inject: ready,
            })
            .collect();
        let delivered = self.run(&msgs);
        // Fold arrivals in delivery order (ties by node id — `run` is
        // already deterministic, this just fixes the accumulator's serial
        // order).
        let mut order: Vec<usize> = (0..msgs.len()).collect();
        order.sort_by_key(|&i| (delivered[i], msgs[i].id));
        let mut acc_free = payloads[root].0;
        for &i in &order {
            let fold = msgs[i].bytes.div_ceil(self.cfg.accum_bytes_per_cycle.max(1));
            acc_free = acc_free.max(delivered[i]) + fold;
        }
        acc_free
    }

    /// Per-link statistics accumulated so far.
    pub fn link_stats(&self) -> Vec<LinkStats> {
        self.links.iter().map(|l| l.stats).collect()
    }

    /// The FIFO service log of one link (conformance suite).
    pub fn link_log(&self, link: usize) -> &[LinkEvent] {
        &self.links[link].log
    }

    /// Fold the run's statistics into a report-attachable summary.
    /// `reduce_fabric_cycles` is the caller's `reduce end − last drain`.
    pub fn stats(&self, bytes_injected: u64, reduce_fabric_cycles: u64) -> FabricStats {
        let links = self.link_stats();
        // Every message's bytes cross its first link exactly once and leave
        // its last link exactly once; injected == delivered by construction
        // of `run` (no drops), which the conformance suite re-checks from
        // the delivery vector.
        FabricStats {
            topology: self.topo.name().to_string(),
            nodes: self.topo.nodes(),
            links,
            bytes_injected,
            bytes_delivered: bytes_injected,
            reduce_fabric_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> FabricConfig {
        FabricConfig::default()
    }

    #[test]
    fn single_message_pays_bandwidth_and_latency_per_hop() {
        let mut f = FabricState::new(cfg().with_topology(TopologyKind::Line), 4);
        // 0 → 3: three hops, 160 bytes = 10 cycles serialization each.
        let d = f.run(&[Message { id: 0, src: 0, dst: 3, bytes: 160, inject: 100 }]);
        assert_eq!(d, vec![100 + 3 * (10 + 40)]);
        let total: u64 = f.link_stats().iter().map(|l| l.bytes).sum();
        assert_eq!(total, 3 * 160);
    }

    #[test]
    fn fifo_contention_serializes_on_the_shared_link() {
        let mut f = FabricState::new(cfg().with_topology(TopologyKind::Line), 3);
        // Both messages funnel into link 1 → 2.
        let d = f.run(&[
            Message { id: 0, src: 1, dst: 2, bytes: 1600, inject: 0 },
            Message { id: 1, src: 1, dst: 2, bytes: 1600, inject: 0 },
        ]);
        // 100 cycles serialization each; the second waits for the first.
        assert_eq!(d[0], 140);
        assert_eq!(d[1], 240);
        let l = &f.link_stats()[1]; // rightward link 1→2
        assert_eq!(l.peak_demand_bytes, 3200);
        assert_eq!(l.busy_cycles, 200);
    }

    #[test]
    fn reduce_to_root_waits_for_slowest_payload() {
        let mut f = FabricState::new(cfg(), 4);
        let payloads = [(50, 1600), (10, 1600), (20, 1600), (1000, 1600)];
        let end = f.reduce_to_root(&payloads, 0);
        // Node 3's payload is ready last (cycle 1000); the reduce cannot
        // complete before it transits plus folds.
        assert!(end > 1000 + 100, "end={end}");
        let stats = f.stats(3 * 1600, 0);
        assert_eq!(stats.bytes_injected, stats.bytes_delivered);
    }

    #[test]
    fn reduce_is_shift_invariant() {
        let payloads = [(50u64, 1600u64), (10, 800), (20, 3200), (70, 1600)];
        let mut a = FabricState::new(cfg(), 4);
        let base = a.reduce_to_root(&payloads, 0);
        let shifted: Vec<(u64, u64)> =
            payloads.iter().map(|&(t, b)| (t + 12_345, b)).collect();
        let mut b = FabricState::new(cfg(), 4);
        assert_eq!(b.reduce_to_root(&shifted, 0), base + 12_345);
    }

    #[test]
    fn zero_payload_nodes_send_nothing() {
        let mut f = FabricState::new(cfg(), 4);
        let end = f.reduce_to_root(&[(100, 1600), (0, 0), (0, 0), (0, 0)], 0);
        assert_eq!(end, 100, "root-only payload needs no fabric time");
        assert!(f.link_stats().iter().all(|l| l.messages == 0));
    }
}
