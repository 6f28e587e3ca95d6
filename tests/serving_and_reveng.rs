//! Integration coverage for the serving strategies (§III-E/§V-B) and the
//! address-mapping reverse-engineering assumed by §III-D.

use stepstone::addr::reveng::{recover, recover_from_mapping};
use stepstone::addr::{mapping_by_id, MappingId, PagingConfig, PimLevel};
use stepstone::core::{
    cpu_crossover_batch, simulate_gemm, simulate_gemm_fused, simulate_gemm_opt,
    simulate_split_batch, CpuModel, GemmSpec, SimOptions, SystemConfig, PIM_CHUNK_BATCH,
};

#[test]
fn split_batch_keeps_pim_ahead_of_cpu_for_hundreds_of_samples() {
    // §V-B: batch splitting extends the PIM win far past the chunk size.
    let sys = SystemConfig::default();
    let cpu = CpuModel::default();
    let n = 4 * PIM_CHUNK_BATCH;
    let pim = simulate_split_batch(&sys, 1024, 4096, n, PimLevel::Device).total;
    let host = cpu.cycles(&GemmSpec::new(1024, 4096, n));
    assert!(pim < host, "pim={pim} cpu={host} at N={n}");
    let crossover = cpu_crossover_batch(&sys, 1024, 4096, PimLevel::Device)
        .expect("the CPU eventually overtakes within the search cap");
    assert!(crossover > n, "crossover {crossover}");
}

#[test]
fn fused_execution_helps_every_non_pow2_table1_shape() {
    // Table I's non-power-of-two weights (GPT2 and DLRM shapes).
    let sys = SystemConfig::default();
    for (m, k) in [(1600usize, 1600usize), (2560, 512)] {
        let spec = GemmSpec::new(m, k, 4);
        let opts = SimOptions::stepstone(PimLevel::BankGroup);
        let serial = simulate_gemm_opt(&sys, &spec, &opts, None).total;
        let fused = simulate_gemm_fused(&sys, &spec, &opts, None).total;
        assert!(fused <= serial, "{m}x{k}: fused={fused} serial={serial}");
    }
}

#[test]
fn fused_pow2_equals_plain_on_every_arm() {
    // One sub-matrix: the fused pipeline is the plain pass, including the
    // paging wrapper and the PIM-subset remap.
    let base = SystemConfig::default();
    let spec = GemmSpec::new(1024, 4096, 4);
    for level in [PimLevel::BankGroup, PimLevel::Device] {
        let paged = base.clone().with_paging(PagingConfig::fragmented(4096, 7));
        let stp = SimOptions::stepstone(level);
        for (arm, sys, opts) in [
            ("default", &base, stp.clone()),
            ("fragmented 4 KiB", &paged, stp.clone()),
            ("subset", &base, stp.clone().with_subset(1)),
        ] {
            let plain = simulate_gemm_opt(sys, &spec, &opts, None);
            let fused = simulate_gemm_fused(sys, &spec, &opts, None);
            let what = format!("{level:?} {arm}");
            assert_eq!(fused.total, plain.total, "{what}");
            assert_eq!(fused.phase_cycles, plain.phase_cycles, "{what}");
            assert_eq!(fused.dram, plain.dram, "{what}");
            assert_eq!(fused.activity, plain.activity, "{what}");
        }
    }
}

#[test]
fn fused_non_pow2_outputs_are_pinned() {
    let sys = SystemConfig::default();
    let opts = SimOptions::stepstone(PimLevel::BankGroup);
    for ((m, k), total, phases) in [
        ((1536, 1024), 58310, [44455, 0, 0, 0, 9773, 4082, 0, 0]),
        ((1600, 6400), 374960, [291977, 0, 0, 0, 19529, 13305, 0, 0]),
    ] {
        let r = simulate_gemm_fused(&sys, &GemmSpec::new(m, k, 4), &opts, None);
        assert_eq!((r.total, r.phase_cycles), (total, phases), "{m}x{k}");
    }
}

#[test]
fn reverse_engineering_supports_pim_bringup() {
    // The full loop the paper assumes: recover the mapping from a decode
    // oracle, then run StepStone's grouping on the recovered masks.
    let truth = mapping_by_id(MappingId::SandyBridge);
    let rec = recover(*truth.geometry(), |pa| truth.decode(pa), 512).expect("linear");
    for blk in (0..(1u64 << 14)).step_by(31) {
        assert_eq!(rec.decode(blk * 64), truth.decode(blk * 64));
    }
    // And the masks round-trip through the high-level helper.
    let rec2 = recover_from_mapping(&truth);
    assert_eq!(rec.ch_masks, rec2.ch_masks);
}

#[test]
fn level_choice_is_consistent_between_estimator_and_sim_for_models() {
    // The §III-E heuristic must agree with detailed simulation on which
    // level wins for the Table II model shapes at their batch sizes.
    let sys = SystemConfig::default();
    for (m, k, n) in [(1024usize, 4096usize, 32usize), (2048, 8192, 4)] {
        let spec = GemmSpec::new(m, k, n);
        let bg = simulate_gemm(&sys, &spec, PimLevel::BankGroup).total;
        let dv = simulate_gemm(&sys, &spec, PimLevel::Device).total;
        let est_bg = stepstone::core::estimate_pim_cycles(&sys, &spec, PimLevel::BankGroup, 0);
        let est_dv = stepstone::core::estimate_pim_cycles(&sys, &spec, PimLevel::Device, 0);
        // Agreement required only when the margin is decisive (>25%).
        let sim_margin = (bg as f64 - dv as f64).abs() / bg.min(dv) as f64;
        if sim_margin > 0.25 {
            assert_eq!(est_bg < est_dv, bg < dv, "{m}x{k} N={n}");
        }
    }
}
