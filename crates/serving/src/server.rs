//! The serving event loop: virtual-time admission, dynamic batching, and
//! the PIM/CPU crossover as two servers.
//!
//! The loop is open-loop and deterministic: arrivals come from a seeded
//! trace (`workloads::serving::OpenLoopArrivals`), time advances only to
//! the next event (arrival or server completion), and every decision is a
//! pure function of queue state — so one seed yields one request timeline,
//! bit-for-bit, whichever host thread runs it.
//!
//! Batching: requests queue FIFO per model kind; a dispatch drains the
//! longest-waiting kind's head run of requests whose summed samples fit
//! the kind's batch cap, rounds the batch up to its power-of-two class,
//! and prices the whole pass through a [`BatchCoster`]. The coster applies
//! §III-E's `choose_backend` per GEMM; the pass's dominant side picks
//! which server (PIM or CPU) the batch occupies.

use std::collections::VecDeque;
use stepstone_models::PassCost;
use stepstone_workloads::{Request, RequestKind};

use crate::metrics::{RequestRecord, ServingReport};

/// Prices one batch: a model pass of `class` samples of `kind`. The class
/// is always a power of two, so costers can memoize a tiny table.
pub trait BatchCoster {
    fn cost(&mut self, kind: RequestKind, class: usize) -> PassCost;
}

/// Largest summed sample count one batch of this kind may carry, keeping
/// the batched GEMM N within the Table-I range the simulator is calibrated
/// for (BERT multiplies samples by its 8-token sequence).
pub fn max_batch_samples(kind: RequestKind) -> usize {
    match kind {
        RequestKind::Dlrm => 256,
        RequestKind::Bert => 4,
        RequestKind::Gpt2 => 32,
    }
}

/// Serving-loop knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServingConfig {
    /// Most requests one batch may merge.
    pub max_batch_requests: usize,
    /// Admission bound: arrivals beyond this queue depth are rejected.
    pub queue_cap: usize,
    /// Channel count of the simulated system (utilization denominator).
    pub channels: u64,
}

impl Default for ServingConfig {
    fn default() -> Self {
        Self { max_batch_requests: 8, queue_cap: 64, channels: 4 }
    }
}

impl ServingConfig {
    pub fn for_system(sys: &stepstone_core::SystemConfig) -> Self {
        Self { channels: sys.dram.geom.channels as u64, ..Self::default() }
    }
}

fn kix(kind: RequestKind) -> usize {
    RequestKind::ALL.iter().position(|&k| k == kind).expect("known kind")
}

/// Run the serving loop over an arrival-sorted request trace. Returns the
/// folded report (per-request records included).
pub fn run_serving(
    cfg: &ServingConfig,
    requests: &[Request],
    coster: &mut dyn BatchCoster,
) -> ServingReport {
    let mut queues: [VecDeque<Request>; 3] = Default::default();
    let mut records: Vec<RequestRecord> = Vec::with_capacity(requests.len());
    let mut ai = 0usize;
    let mut t = 0u64;
    let (mut pim_free, mut cpu_free) = (0u64, 0u64);
    let mut rejected = 0u64;
    let (mut depth_time, mut max_depth) = (0u128, 0u64);
    let (mut batches, mut pim_batches) = (0u64, 0u64);
    let (mut channel_data_cycles, mut internal_data_cycles) = (0u64, 0u64);

    loop {
        // Admission: accept every arrival at or before now, or reject when
        // the queue is at capacity (open loop — the generator never slows).
        while ai < requests.len() && requests[ai].arrival <= t {
            let depth: usize = queues.iter().map(|q| q.len()).sum();
            if depth >= cfg.queue_cap {
                rejected += 1;
            } else {
                queues[kix(requests[ai].kind)].push_back(requests[ai]);
            }
            ai += 1;
        }

        // Dispatch: while a server is idle, batch the longest-waiting kind
        // whose routed server is free. Oldest head-of-line first prevents
        // starvation; per-kind FIFO pops preserve arrival order in class.
        loop {
            let mut kinds: Vec<usize> = (0..3).filter(|&k| !queues[k].is_empty()).collect();
            if kinds.is_empty() {
                break;
            }
            kinds.sort_by_key(|&k| queues[k].front().expect("non-empty").arrival);
            let mut dispatched = false;
            for &k in &kinds {
                let kind = RequestKind::ALL[k];
                let cap = max_batch_samples(kind);
                let (mut take, mut samples) = (0usize, 0usize);
                for r in queues[k].iter() {
                    if take >= cfg.max_batch_requests || samples + r.samples > cap {
                        break;
                    }
                    samples += r.samples;
                    take += 1;
                }
                assert!(take > 0, "a lone request always fits its kind cap");
                let class = samples.next_power_of_two().min(cap);
                let cost = coster.cost(kind, class);
                let to_pim = cost.pim_cycles >= cost.cpu_cycles;
                let free = if to_pim { &mut pim_free } else { &mut cpu_free };
                if *free > t {
                    continue; // routed server busy; try the next kind
                }
                let done = t + cost.total();
                *free = done;
                for _ in 0..take {
                    let r = queues[k].pop_front().expect("counted above");
                    records.push(RequestRecord {
                        id: r.id,
                        kind: r.kind,
                        samples: r.samples,
                        arrival: r.arrival,
                        start: t,
                        done,
                        pim: to_pim,
                    });
                }
                batches += 1;
                pim_batches += u64::from(to_pim);
                channel_data_cycles += cost.channel_data_cycles;
                internal_data_cycles += cost.data_cycles - cost.channel_data_cycles;
                dispatched = true;
                break;
            }
            if !dispatched {
                break;
            }
        }

        // Advance virtual time to the next event: the next arrival, or —
        // if work is still queued — the earliest server completion.
        let queued: u64 = queues.iter().map(|q| q.len() as u64).sum();
        let mut next = u64::MAX;
        if ai < requests.len() {
            next = next.min(requests[ai].arrival);
        }
        if queued > 0 {
            if pim_free > t {
                next = next.min(pim_free);
            }
            if cpu_free > t {
                next = next.min(cpu_free);
            }
        }
        if next == u64::MAX {
            break;
        }
        depth_time += queued as u128 * (next - t) as u128;
        max_depth = max_depth.max(queued);
        t = next;
    }

    ServingReport::fold(
        records,
        rejected,
        requests.last().map_or(0, |r| r.arrival),
        depth_time,
        max_depth,
        channel_data_cycles,
        internal_data_cycles,
        cfg.channels,
        batches,
        pim_batches,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed-price coster for loop-mechanics tests.
    struct FlatCoster {
        pim: u64,
        cpu: u64,
    }

    impl BatchCoster for FlatCoster {
        fn cost(&mut self, _kind: RequestKind, class: usize) -> PassCost {
            PassCost {
                pim_cycles: self.pim * class as u64,
                cpu_cycles: self.cpu,
                data_cycles: 10,
                channel_data_cycles: 4,
                pim_gemms: 1,
                cpu_gemms: 0,
            }
        }
    }

    fn req(id: u64, kind: RequestKind, samples: usize, arrival: u64) -> Request {
        Request { id, kind, samples, arrival }
    }

    #[test]
    fn idle_system_serves_at_arrival() {
        let reqs =
            vec![req(0, RequestKind::Dlrm, 2, 100), req(1, RequestKind::Dlrm, 2, 100_000)];
        let r = run_serving(
            &ServingConfig::default(),
            &reqs,
            &mut FlatCoster { pim: 50, cpu: 1 },
        );
        assert_eq!(r.served, 2);
        assert_eq!(r.rejected, 0);
        // No queueing: each request starts the moment it arrives.
        for rec in &r.records {
            assert_eq!(rec.start, rec.arrival);
        }
    }

    #[test]
    fn back_to_back_requests_batch_together() {
        // Four same-kind requests arrive while the server is busy with the
        // first; the remaining three coalesce into one batch.
        let reqs: Vec<Request> =
            (0..4).map(|i| req(i, RequestKind::Dlrm, 2, 10 + i)).collect();
        let r = run_serving(
            &ServingConfig::default(),
            &reqs,
            &mut FlatCoster { pim: 1000, cpu: 1 },
        );
        assert_eq!(r.served, 4);
        assert_eq!(r.batches, 2, "{r:?}");
        let b2: Vec<_> = r.records.iter().filter(|x| x.id > 0).collect();
        assert!(b2.iter().all(|x| x.start == b2[0].start && x.done == b2[0].done));
    }

    #[test]
    fn queue_cap_rejects_excess_arrivals() {
        // Everything arrives at once into a tiny queue behind a slow server.
        let reqs: Vec<Request> =
            (0..50).map(|i| req(i, RequestKind::Dlrm, 1, 5)).collect();
        let cfg = ServingConfig { queue_cap: 4, max_batch_requests: 1, ..Default::default() };
        let r = run_serving(&cfg, &reqs, &mut FlatCoster { pim: 10_000, cpu: 1 });
        assert_eq!(r.served + r.rejected, 50);
        assert!(r.rejected >= 45, "{}", r.rejected);
        assert!(r.max_queue_depth <= 4);
    }

    #[test]
    fn fifo_within_kind_and_no_starvation_across_kinds() {
        // A steady DLRM flood plus rare BERT requests: BERT must still be
        // served, and each kind's starts must follow its arrival order.
        let mut reqs = Vec::new();
        for i in 0..60u64 {
            reqs.push(req(i, RequestKind::Dlrm, 1, i * 10));
        }
        reqs.push(req(60, RequestKind::Bert, 1, 95));
        reqs.push(req(61, RequestKind::Bert, 1, 305));
        reqs.sort_by_key(|r| r.arrival);
        let reqs: Vec<Request> = reqs
            .into_iter()
            .enumerate()
            .map(|(i, mut r)| {
                r.id = i as u64;
                r
            })
            .collect();
        let cfg = ServingConfig { queue_cap: 1024, ..Default::default() };
        let r = run_serving(&cfg, &reqs, &mut FlatCoster { pim: 500, cpu: 1 });
        assert_eq!(r.served, 62, "all requests served: {}", r.served);
        for kind in RequestKind::ALL {
            let starts: Vec<(u64, u64)> = r
                .records
                .iter()
                .filter(|x| x.kind == kind)
                .map(|x| (x.id, x.start))
                .collect();
            for w in starts.windows(2) {
                assert!(w[1].1 >= w[0].1, "{kind:?}: {w:?}");
            }
        }
    }

    #[test]
    fn cpu_routed_batches_occupy_the_cpu_server() {
        // cpu dominates cost ⇒ batches route CPU-side and the PIM server
        // stays free for overlap.
        let reqs: Vec<Request> =
            (0..4).map(|i| req(i, RequestKind::Gpt2, 1, i)).collect();
        let r = run_serving(
            &ServingConfig::default(),
            &reqs,
            &mut FlatCoster { pim: 0, cpu: 100 },
        );
        assert_eq!(r.pim_batches, 0);
        assert_eq!(r.cpu_batches, r.batches);
    }
}
