//! Colocated CPU tenants over persistent memory-system state.
//!
//! The sweep costers price batches from isolated per-request simulations
//! (valid because default timing is shift-invariant). This module is the
//! other serving mode the paper's §V-G colocation study needs: one DRAM
//! system carries *both* the PIM request stream and a continuous CPU
//! tenant, so timing state (open rows, bus turnarounds, FR-FCFS queues)
//! genuinely persists across back-to-back requests. Built directly on the
//! resident engine entry point (`simulate_pow2_gemm_resident`) and
//! `TrafficCursor::drain_until`.

use std::sync::Arc;
use stepstone_core::{
    simulate_pow2_gemm_resident, ExecMode, GemmContext, GemmSpec, LatencyReport, SessionCache,
    SimOptions, SystemConfig, TrafficCursor,
};
use stepstone_dram::{CommandBus, TimingState};
use stepstone_workloads::SyntheticTraffic;

/// A long-running PIM serving endpoint sharing its DRAM with a synthetic
/// CPU tenant (the SPEC-like mix of `workloads::traffic`). The GEMM shape
/// is fixed per endpoint (one endpoint per served layer shape); its
/// context comes from the shared session cache.
pub struct TenantServer {
    sys: SystemConfig,
    opts: SimOptions,
    ctx: Arc<GemmContext>,
    ts: TimingState,
    bus: CommandBus,
    traffic: SyntheticTraffic,
    /// Completion time of the last served request (virtual cycles).
    pub ready: u64,
    /// CPU-tenant requests interleaved so far.
    pub tenant_served: u64,
    /// Summed CPU-tenant queueing delay (cycles lost to PIM contention).
    pub tenant_queueing: u64,
}

impl TenantServer {
    /// `spec` must be power-of-two (endpoints serve fixed layer shapes).
    pub fn new(
        sys: SystemConfig,
        spec: GemmSpec,
        opts: SimOptions,
        cache: &SessionCache,
        traffic_seed: u64,
        traffic_requests: u64,
    ) -> Self {
        let ctx = cache.context(&sys, &spec, &opts);
        let ts = TimingState::new(sys.dram);
        let bus = CommandBus::new(sys.dram.geom.channels as usize);
        Self {
            sys,
            opts,
            ctx,
            ts,
            bus,
            traffic: SyntheticTraffic::spec_mix(traffic_seed, traffic_requests),
            ready: 0,
            tenant_served: 0,
            tenant_queueing: 0,
        }
    }

    /// Serve one request arriving at `t`: let the tenant run alone over
    /// the idle gap, then execute the GEMM pass with tenant traffic
    /// interleaved, all over the same persistent timing state. Returns the
    /// per-request report (cycles relative to the pass start).
    pub fn serve_at(&mut self, t: u64) -> LatencyReport {
        let start = t.max(self.ready);
        let mut tc = TrafficCursor::new(&mut self.traffic, self.ready);
        tc.drain_until(&mut self.ts, &mut self.bus, &self.ctx.mapping, start);
        let mut report = simulate_pow2_gemm_resident(
            &mut self.ts,
            &mut self.bus,
            &self.sys,
            &self.opts,
            Some(&mut tc),
            ExecMode::Streaming,
            &[&*self.ctx],
            start,
        );
        report.clock_hz = self.sys.dram.clock_hz;
        self.ready = start + report.total;
        self.tenant_served += tc.served;
        self.tenant_queueing += tc.queueing_cycles;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stepstone_addr::PimLevel;

    #[test]
    fn tenant_server_advances_and_interleaves() {
        let sys = SystemConfig::default();
        let cache = SessionCache::new();
        let mut srv = TenantServer::new(
            sys,
            GemmSpec::new(256, 1024, 2),
            SimOptions::stepstone(PimLevel::BankGroup),
            &cache,
            42,
            50_000,
        );
        let mut last_ready = 0;
        for i in 0..3 {
            let r = srv.serve_at(last_ready + 1000);
            assert!(r.total > 0, "pass {i}");
            assert!(srv.ready > last_ready, "pass {i}");
            last_ready = srv.ready;
        }
        assert!(srv.tenant_served > 0, "tenant never ran");
        // Cache shared the single context across the server's passes.
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn tenant_contention_slows_the_pim_pass() {
        let sys = SystemConfig::default();
        let cache = SessionCache::new();
        let spec = GemmSpec::new(256, 1024, 2);
        let opts = SimOptions::stepstone(PimLevel::BankGroup);
        let alone = stepstone_core::simulate_gemm_session(&sys, &spec, &opts, &cache, None);
        let mut srv = TenantServer::new(sys, spec, opts, &cache, 7, 1_000_000);
        let shared = srv.serve_at(0);
        assert!(
            shared.total >= alone.total,
            "shared={} alone={}",
            shared.total,
            alone.total
        );
    }
}
