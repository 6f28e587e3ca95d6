//! The per-channel DDR command bus as a serialized slot resource.
//!
//! The command bus matters in two places in the paper:
//! * **PEI** issues one command packet per cache block, so PIM throughput is
//!   capped by command-slot supply ("performance will be eventually limited
//!   by the command bandwidth", §VI).
//! * **Fine-grained kernels (eCHO)** launch so often that, when a colocated
//!   CPU also streams memory commands, launch packets queue behind CPU
//!   traffic and PIMs starve (§V-G, Fig. 13). StepStone's long-running
//!   kernels need almost no slots, which is the entire point of the AGEN
//!   hardware.
//!
//! Slots are granted first-come-first-served; each DRAM command the host
//! issues takes one slot, and PIM control packets take a configurable number
//! of consecutive slots.


/// Per-channel slot counters.
#[derive(Debug, Clone, Default)]
pub struct CommandBus {
    next_free: Vec<u64>,
    /// Total slots consumed per channel (utilization accounting).
    pub slots_used: Vec<u64>,
}

impl CommandBus {
    pub fn new(channels: usize) -> Self {
        Self { next_free: vec![0; channels], slots_used: vec![0; channels] }
    }

    pub fn channels(&self) -> usize {
        self.next_free.len()
    }

    /// Acquire `n` consecutive command slots on `channel` at or after `t`.
    /// Returns the cycle after the last slot (when the packet has fully
    /// transferred).
    pub fn acquire(&mut self, channel: usize, t: u64, n: u64) -> u64 {
        let start = t.max(self.next_free[channel]);
        let end = start + n;
        self.next_free[channel] = end;
        self.slots_used[channel] += n;
        end
    }

    /// Earliest time `n` slots could start on `channel` (non-committing).
    pub fn probe(&self, channel: usize, t: u64) -> u64 {
        t.max(self.next_free[channel])
    }

    /// Adopt `channel`'s slot state from `other` (a clone of `self`
    /// advanced independently). Slots are per-channel, so per-channel
    /// simulation followed by adoption is exact.
    pub fn adopt_channel(&mut self, other: &CommandBus, channel: usize) {
        self.next_free[channel] = other.next_free[channel];
        self.slots_used[channel] = other.slots_used[channel];
    }

    /// Utilization of a channel's command bus over `[0, horizon)`.
    pub fn utilization(&self, channel: usize, horizon: u64) -> f64 {
        if horizon == 0 {
            return 0.0;
        }
        self.slots_used[channel] as f64 / horizon as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_serialize_fcfs() {
        let mut bus = CommandBus::new(2);
        assert_eq!(bus.acquire(0, 0, 4), 4);
        assert_eq!(bus.acquire(0, 0, 4), 8, "second packet queues");
        assert_eq!(bus.acquire(0, 20, 2), 22, "idle gap is not back-filled");
        assert_eq!(bus.acquire(1, 0, 4), 4, "channels are independent");
        assert_eq!(bus.slots_used[0], 10);
    }

    #[test]
    fn utilization_accounting() {
        let mut bus = CommandBus::new(1);
        bus.acquire(0, 0, 50);
        assert!((bus.utilization(0, 100) - 0.5).abs() < 1e-12);
        assert_eq!(bus.utilization(0, 0), 0.0);
    }
}
