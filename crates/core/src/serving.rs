//! Serving-time execution strategies from §III-E and §V-B:
//!
//! * **Batch splitting** — "Even with somewhat larger batches (e.g., up to
//!   N = 384 for BERT), StepStone PIM outperforms the CPU by splitting a
//!   batch into several batch-32 GEMM operations" (§V-B). The splitter
//!   chops a large batch into PIM-sized chunks and serializes them.
//! * **Fused kernels for non-power-of-two matrices** — §III-E lists
//!   "fusing multiple kernel executions for matrices that are not powers of
//!   two" among the optimizations. Instead of running each power-of-two
//!   sub-GEMM as an independent localize→kernel→reduce sequence, the fused
//!   flow pipelines them through one engine pass: sub-matrix *i+1*
//!   localizes while kernel *i* runs, and the reductions follow.

use crate::config::SystemConfig;
use crate::cpu::CpuModel;
use crate::engine::TrafficCursor;
use crate::flow::{fresh_memory, simulate_pow2_gemm_resident, GemmContext, SimOptions};
use crate::gemm::GemmSpec;
use crate::report::LatencyReport;
use stepstone_addr::PimLevel;
use stepstone_dram::TrafficSource;

/// The largest per-kernel batch the PIMs run efficiently (§V-B splits to
/// batch-32 chunks).
pub const PIM_CHUNK_BATCH: usize = 32;

/// Simulate a large-batch GEMM by splitting into PIM-sized chunks.
pub fn simulate_split_batch(
    sys: &SystemConfig,
    m: usize,
    k: usize,
    n_total: usize,
    level: PimLevel,
) -> LatencyReport {
    let mut report = LatencyReport {
        backend: format!("STP-{}/split", level.tag()),
        clock_hz: sys.dram.clock_hz,
        ..Default::default()
    };
    let mut remaining = n_total;
    while remaining > 0 {
        let n = remaining.min(PIM_CHUNK_BATCH);
        let r = crate::flow::simulate_gemm(sys, &GemmSpec::new(m, k, n), level);
        report.chain(&r);
        remaining -= n;
    }
    report
}

/// Largest batch the crossover search examines before concluding the PIM
/// stays ahead.
pub const CROSSOVER_SEARCH_CAP: usize = 1 << 14;

/// Predicted split-batch PIM cycles for an arbitrary batch `n`, costed the
/// way [`simulate_split_batch`] executes it: full batch-32 chunks at the
/// full-chunk price plus one *partial* chunk simulated at its real (smaller,
/// cheaper) size — not `ceil(n/32)` full chunks.
pub fn split_batch_cycles(sys: &SystemConfig, m: usize, k: usize, n: usize, level: PimLevel) -> u64 {
    let full = (n / PIM_CHUNK_BATCH) as u64;
    let rem = n % PIM_CHUNK_BATCH;
    let mut cycles = if full > 0 {
        full * crate::flow::simulate_gemm(sys, &GemmSpec::new(m, k, PIM_CHUNK_BATCH), level).total
    } else {
        0
    };
    if rem > 0 {
        cycles += crate::flow::simulate_gemm(sys, &GemmSpec::new(m, k, rem), level).total;
    }
    cycles
}

/// The batch size at which the CPU overtakes split-batch PIM execution for
/// an `m × k` weight matrix (the paper's N = 384 claim for BERT's layers).
/// The search is chunk-granular — batches between multiples of
/// [`PIM_CHUNK_BATCH`] cost *less* than the next multiple (see
/// [`split_batch_cycles`]), so the first losing multiple bounds the true
/// crossover from above by one chunk.
///
/// Returns `None` when no crossover exists within
/// [`CROSSOVER_SEARCH_CAP`] samples — previously this was conflated with
/// "crossover at the cap", making a PIM that never loses indistinguishable
/// from one that loses at 16 Ki samples.
pub fn cpu_crossover_batch(
    sys: &SystemConfig,
    m: usize,
    k: usize,
    level: PimLevel,
) -> Option<usize> {
    let cpu = CpuModel::default();
    // The PIM cost is linear in the number of full chunks; simulate one.
    let chunk = crate::flow::simulate_gemm(sys, &GemmSpec::new(m, k, PIM_CHUNK_BATCH), level).total;
    let mut n = PIM_CHUNK_BATCH;
    while n <= CROSSOVER_SEARCH_CAP {
        let pim = (n / PIM_CHUNK_BATCH) as u64 * chunk;
        if cpu.cycles(&GemmSpec::new(m, k, n)) < pim {
            return Some(n);
        }
        n += PIM_CHUNK_BATCH;
    }
    None
}

/// Fused execution of a non-power-of-two GEMM: the sub-matrices' phases are
/// pipelined — while sub-GEMM *i* streams through the PIM-internal
/// datapaths, the DMA engine already localizes sub-GEMM *i+1* over the
/// (otherwise idle) channel, and reductions are batched at the end (see
/// [`simulate_pow2_gemm_resident`]).
pub fn simulate_gemm_fused(
    sys: &SystemConfig,
    spec: &GemmSpec,
    opts: &SimOptions,
    traffic: Option<&mut dyn TrafficSource>,
) -> LatencyReport {
    let subs = spec.decompose_pow2();
    // Place each sub-matrix at its own naturally aligned region.
    let mut cursor = sys.weight_base;
    let mut ctxs: Vec<GemmContext> = Vec::with_capacity(subs.len());
    for sub in &subs {
        let size = (sub.m * sub.k * 4) as u64;
        let mut sub_sys = sys.clone();
        sub_sys.weight_base = cursor;
        // Distinct buffer arenas per sub-matrix, too.
        sub_sys.buffer_base = sys.buffer_base + ctxs.len() as u64 * (1 << 28);
        let ctx = GemmContext::build(&sub_sys, sub, opts);
        cursor = ctx.layout.end().max(cursor + size);
        ctxs.push(ctx);
    }
    let ctxs: Vec<&GemmContext> = ctxs.iter().collect();
    let (mut ts, mut bus) = fresh_memory(sys);
    let mut tcur = traffic.map(|t| TrafficCursor::new(t, 0));
    let mut report =
        simulate_pow2_gemm_resident(&mut ts, &mut bus, sys, opts, tcur.as_mut(), &ctxs, 0);
    report.backend = format!("STP-{}/fused", opts.level_cfg.level.tag());
    report.clock_hz = sys.dram.clock_hz;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{simulate_gemm, simulate_gemm_opt};
    use crate::report::Phase;

    #[test]
    fn split_batch_is_linear_in_chunks() {
        let sys = SystemConfig::default();
        let one = simulate_split_batch(&sys, 1024, 4096, 32, PimLevel::Device).total;
        let four = simulate_split_batch(&sys, 1024, 4096, 128, PimLevel::Device).total;
        assert_eq!(four, 4 * one);
    }

    #[test]
    fn paper_claim_cpu_crossover_structure() {
        // §V-B derives N = 384 from "12 × 32": the crossover batch equals
        // the per-chunk speedup times the chunk size. Our CPU calibration
        // is less pessimistic than the measured Xeon at batch 32, so the
        // value shifts, but the structural relation must hold and the
        // crossover must land at hundreds of samples.
        let sys = SystemConfig::default();
        let crossover =
            cpu_crossover_batch(&sys, 1024, 4096, PimLevel::Device).expect("crossover exists");
        let cpu = CpuModel::default();
        let chunk_speedup = cpu.cycles(&GemmSpec::new(1024, 4096, PIM_CHUNK_BATCH)) as f64
            / crate::flow::simulate_gemm(
                &sys,
                &GemmSpec::new(1024, 4096, PIM_CHUNK_BATCH),
                PimLevel::Device,
            )
            .total as f64;
        let predicted = chunk_speedup * PIM_CHUNK_BATCH as f64;
        assert!(
            (64..=1024).contains(&crossover),
            "CPU crossover batch = {crossover} (paper: 384)"
        );
        let ratio = crossover as f64 / predicted;
        assert!((0.5..2.0).contains(&ratio), "crossover {crossover} vs predicted {predicted}");
    }

    #[test]
    fn partial_final_chunk_is_costed_at_its_real_size() {
        // 40 samples = one full chunk + a batch-8 tail. The old costing
        // charged ceil(40/32) = 2 full chunks; the tail must be cheaper.
        let sys = SystemConfig::default();
        let (m, k) = (1024, 4096);
        let chunk =
            crate::flow::simulate_gemm(&sys, &GemmSpec::new(m, k, PIM_CHUNK_BATCH), PimLevel::Device)
                .total;
        let tail =
            crate::flow::simulate_gemm(&sys, &GemmSpec::new(m, k, 8), PimLevel::Device).total;
        let split = split_batch_cycles(&sys, m, k, 40, PimLevel::Device);
        assert_eq!(split, chunk + tail);
        assert!(split < 2 * chunk, "tail costed as a full chunk");
        // And the search cap is distinguishable from a genuine crossover.
        let crossover = cpu_crossover_batch(&sys, m, k, PimLevel::Device);
        assert!(matches!(crossover, Some(n) if n <= CROSSOVER_SEARCH_CAP));
    }

    #[test]
    fn fused_non_pow2_beats_serialized() {
        // GPT2's 1600×6400 MLP decomposes into 9 sub-GEMMs; fusing their
        // kernels must not be slower than serializing the full flows.
        let sys = SystemConfig::default();
        let spec = GemmSpec::new(1600, 6400, 4);
        let opts = SimOptions::stepstone(PimLevel::BankGroup);
        let serial = simulate_gemm_opt(&sys, &spec, &opts, None).total;
        let fused = simulate_gemm_fused(&sys, &spec, &opts, None).total;
        assert!(fused < serial, "fused={fused} serial={serial}");
        assert!(fused * 3 > serial, "fusion cannot be a 3x miracle");
    }

    #[test]
    fn fused_attribution_matches_chained_on_multi_sub_gemm() {
        // m = 1536 → two sub-GEMMs (1024 + 512 rows). Fused attribution
        // must take the per-round critical path and *sum* across rounds
        // (`LatencyReport::chain` semantics); the old running max across
        // rounds under-reported Gemm cycles by the smaller round's share.
        let sys = SystemConfig::default();
        let spec = GemmSpec::new(1536, 1024, 4);
        let opts = SimOptions::stepstone(PimLevel::BankGroup);
        let chained = simulate_gemm_opt(&sys, &spec, &opts, None);
        let fused = simulate_gemm_fused(&sys, &spec, &opts, None);
        // Identical kernel work ⇒ identical activity tallies, and the
        // fused path must not drop the AGEN max-step statistic.
        assert_eq!(fused.activity.simd_ops, chained.activity.simd_ops);
        assert_eq!(fused.activity.launches, chained.activity.launches);
        assert_eq!(fused.activity.scratchpad_accesses, chained.activity.scratchpad_accesses);
        assert_eq!(fused.activity.agen_max_step, chained.activity.agen_max_step);
        assert!(fused.activity.agen_max_step > 0, "agen_max_step dropped in fused merge");
        // Gemm cycles: the fused rounds run the same kernels, so the
        // summed attribution lands near the chained report — far above the
        // buggy max-across-rounds (≈ 2/3 of chained for a 2:1 round split).
        let f = fused.phase(Phase::Gemm) as f64;
        let c = chained.phase(Phase::Gemm) as f64;
        assert!(f / c > 0.9 && f / c < 1.1, "fused gemm {f} vs chained {c}");
    }

    #[test]
    fn fused_equals_plain_for_pow2() {
        // One sub-matrix: the fused pipeline is the plain pass.
        let sys = SystemConfig::default();
        let spec = GemmSpec::new(512, 2048, 4);
        let opts = SimOptions::stepstone(PimLevel::BankGroup);
        let plain = simulate_gemm(&sys, &spec, PimLevel::BankGroup);
        let fused = simulate_gemm_fused(&sys, &spec, &opts, None);
        assert_eq!(fused.total, plain.total);
        assert_eq!(fused.phase_cycles, plain.phase_cycles);
        assert_eq!(fused.dram, plain.dram);
        assert_eq!(fused.activity, plain.activity);
    }
}
