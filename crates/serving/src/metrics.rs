//! Per-request completion records and the latency/queue/utilization
//! metrics folded from them.

use stepstone_workloads::RequestKind;

/// One served request's lifecycle stamps (all in virtual DRAM cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRecord {
    pub id: u64,
    pub kind: RequestKind,
    pub samples: usize,
    pub arrival: u64,
    /// Batch dispatch time (admission + queueing ends here).
    pub start: u64,
    /// Batch completion time; `done - arrival` is the request's latency.
    pub done: u64,
    /// Whether the batch routed to the PIM side of the crossover.
    pub pim: bool,
}

impl RequestRecord {
    pub fn latency(&self) -> u64 {
        self.done - self.arrival
    }

    pub fn queueing(&self) -> u64 {
        self.start - self.arrival
    }
}

/// Nearest-rank percentile over an ascending-sorted slice (`p` in 0..=100).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The folded outcome of one serving run at one offered load.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServingReport {
    /// Requests offered per million cycles (arrival-process rate).
    pub offered_per_mcycle: f64,
    pub served: u64,
    /// Requests dropped at admission (queue full).
    pub rejected: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
    pub mean_latency: f64,
    pub max_latency: u64,
    /// Time-weighted mean of the admission-queue depth.
    pub mean_queue_depth: f64,
    pub max_queue_depth: u64,
    /// Channel data-bus busy fraction across all channels over the
    /// makespan: channel-port burst cycles only, so it lies in [0, 1].
    pub channel_utilization: f64,
    /// Burst cycles PIM kernels spent on bank-group- and rank-internal
    /// ports, summed over served batches. These never cross the channel
    /// bus and each PIM has its own, so this is a raw count, not a
    /// utilization.
    pub internal_data_cycles: u64,
    /// First arrival to last completion, in cycles.
    pub makespan: u64,
    pub batches: u64,
    pub mean_batch_requests: f64,
    pub pim_batches: u64,
    pub cpu_batches: u64,
    pub records: Vec<RequestRecord>,
}

impl ServingReport {
    /// Fold completion records (any order) into the summary metrics.
    /// `last_arrival` is the trace's last offered arrival, served or
    /// rejected: the span the offered rate divides by. `depth_time` is the
    /// time integral of queue depth over the run;
    /// `channel_data_cycles` and `internal_data_cycles` split the served
    /// batches' burst cycles by whether they crossed the channel bus.
    #[allow(clippy::too_many_arguments)]
    pub fn fold(
        mut records: Vec<RequestRecord>,
        rejected: u64,
        last_arrival: u64,
        depth_time: u128,
        max_queue_depth: u64,
        channel_data_cycles: u64,
        internal_data_cycles: u64,
        channels: u64,
        batches: u64,
        pim_batches: u64,
    ) -> Self {
        records.sort_by_key(|r| r.id);
        let mut lat: Vec<u64> = records.iter().map(|r| r.latency()).collect();
        lat.sort_unstable();
        let served = records.len() as u64;
        let first = records.iter().map(|r| r.arrival).min().unwrap_or(0);
        let last = records.iter().map(|r| r.done).max().unwrap_or(0);
        let makespan = last.saturating_sub(first);
        Self {
            offered_per_mcycle: if last_arrival == 0 {
                0.0
            } else {
                (served + rejected) as f64 * 1e6 / last_arrival as f64
            },
            served,
            rejected,
            p50: percentile(&lat, 50.0),
            p95: percentile(&lat, 95.0),
            p99: percentile(&lat, 99.0),
            mean_latency: if lat.is_empty() {
                0.0
            } else {
                lat.iter().sum::<u64>() as f64 / lat.len() as f64
            },
            max_latency: lat.last().copied().unwrap_or(0),
            mean_queue_depth: if makespan == 0 {
                0.0
            } else {
                depth_time as f64 / makespan as f64
            },
            max_queue_depth,
            channel_utilization: if makespan == 0 {
                0.0
            } else {
                channel_data_cycles as f64 / (makespan * channels.max(1)) as f64
            },
            internal_data_cycles,
            makespan,
            batches,
            mean_batch_requests: if batches == 0 { 0.0 } else { served as f64 / batches as f64 },
            pim_batches,
            cpu_batches: batches - pim_batches,
            records,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 95.0), 95);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn fold_computes_latency_stats() {
        let rec = |id, arrival, start, done| RequestRecord {
            id,
            kind: RequestKind::Dlrm,
            samples: 1,
            arrival,
            start,
            done,
            pim: true,
        };
        let r = ServingReport::fold(
            vec![rec(0, 0, 0, 10), rec(1, 5, 10, 30), rec(2, 20, 30, 40)],
            1,
            20,
            40,
            2,
            80,
            300,
            4,
            3,
            2,
        );
        assert_eq!(r.served, 3);
        assert_eq!(r.rejected, 1);
        assert_eq!(r.max_latency, 25);
        assert_eq!(r.p99, 25);
        assert_eq!(r.makespan, 40);
        assert!((r.mean_queue_depth - 1.0).abs() < 1e-9);
        assert!((r.channel_utilization - 0.5).abs() < 1e-9);
        assert_eq!(r.internal_data_cycles, 300);
        assert_eq!(r.cpu_batches, 1);
    }

    /// The offered rate spans the trace's offered arrivals, rejected ones
    /// included: two served requests by cycle 10 and two rejected at
    /// cycles 30 and 40 offer 4 requests over 40 cycles, not over 10.
    #[test]
    fn offered_rate_counts_rejected_final_arrivals() {
        let rec = |id, arrival, done| RequestRecord {
            id,
            kind: RequestKind::Dlrm,
            samples: 1,
            arrival,
            start: arrival,
            done,
            pim: true,
        };
        let r = ServingReport::fold(vec![rec(0, 0, 5), rec(1, 10, 15)], 2, 40, 0, 1, 0, 0, 1, 1, 1);
        assert_eq!(r.served + r.rejected, 4);
        assert!((r.offered_per_mcycle - 4.0 * 1e6 / 40.0).abs() < 1e-9);
    }
}
