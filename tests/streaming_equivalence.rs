//! Cycle-exactness of the streaming engine against the frozen seed path,
//! at `LatencyReport` granularity, across a matrix of small GEMMs, all
//! three PIM levels, and the subset-remap and eCHO program shapes. The
//! reference is the seed engine in [`stepstone_bench::seed_replay`]:
//! fully materialized programs, the seed AGEN corrector, and the seed
//! scheduler.

use stepstone_addr::PimLevel;
use stepstone_bench::seed_replay::simulate_pow2_gemm_seed;
use stepstone_core::{simulate_gemm_opt, GemmSpec, LatencyReport, SimOptions, SystemConfig};

fn assert_reports_equal(a: &LatencyReport, b: &LatencyReport, what: &str) {
    assert_eq!(a.total, b.total, "{what}: total cycles");
    assert_eq!(a.phase_cycles, b.phase_cycles, "{what}: phase attribution");
    assert_eq!(a.dram, b.dram, "{what}: DRAM event counts");
    assert_eq!(a.activity, b.activity, "{what}: activity counts");
}

#[test]
fn streaming_matches_seed_engine_across_levels_and_shapes() {
    let sys = SystemConfig::default();
    let shapes = [(128, 512, 1), (256, 1024, 4), (512, 2048, 8), (1024, 1024, 2)];
    for (m, k, n) in shapes {
        let spec = GemmSpec::new(m, k, n);
        for level in PimLevel::ALL {
            let opts = SimOptions::stepstone(level);
            let streaming = simulate_gemm_opt(&sys, &spec, &opts, None);
            let seed = simulate_pow2_gemm_seed(&sys, &spec, &opts);
            assert_reports_equal(&streaming, &seed, &format!("{m}x{k} N={n} {level:?}"));
            assert!(streaming.total > 0);
        }
    }
}

#[test]
fn parallel_channel_execution_matches_serial_and_seed() {
    // The per-channel parallel engine must be cycle-exact with the serial
    // scheduler (and therefore with the frozen seed replay): units on
    // different channels share no DRAM timing state, so sharding is pure
    // re-ordering of independent commits.
    let par_sys = SystemConfig::default();
    assert!(par_sys.parallel, "parallel channels are the default");
    let serial_sys = SystemConfig { parallel: false, ..SystemConfig::default() };
    let shapes = [(256, 1024, 4), (512, 2048, 8), (1024, 1024, 2)];
    for (m, k, n) in shapes {
        let spec = GemmSpec::new(m, k, n);
        for level in PimLevel::ALL {
            let opts = SimOptions::stepstone(level);
            let parallel = simulate_gemm_opt(&par_sys, &spec, &opts, None);
            let serial = simulate_gemm_opt(&serial_sys, &spec, &opts, None);
            let seed = simulate_pow2_gemm_seed(&serial_sys, &spec, &opts);
            let what = format!("{m}x{k} N={n} {level:?}");
            assert_reports_equal(&parallel, &serial, &format!("{what} (parallel vs serial)"));
            assert_reports_equal(&parallel, &seed, &format!("{what} (parallel vs seed)"));
        }
    }
    // The subset remap and eCHO program shapes shard identically.
    let spec = GemmSpec::new(512, 2048, 4);
    for opts in [
        SimOptions::stepstone(PimLevel::BankGroup).with_subset(1),
        SimOptions::echo(PimLevel::BankGroup),
    ] {
        let parallel = simulate_gemm_opt(&par_sys, &spec, &opts, None);
        let serial = simulate_gemm_opt(&serial_sys, &spec, &opts, None);
        let seed = simulate_pow2_gemm_seed(&serial_sys, &spec, &opts);
        let what = format!("{:?} subset={}", opts.granularity, opts.subset_drop_bits);
        assert_reports_equal(&parallel, &serial, &format!("{what} (parallel vs serial)"));
        assert_reports_equal(&parallel, &seed, &format!("{what} (parallel vs seed)"));
    }
}

#[test]
fn streaming_matches_seed_engine_with_subset_and_echo() {
    // The subset remap and eCHO granularity exercise the remaining program
    // shapes (per-row launches, dropped ID bits folded into rows).
    let sys = SystemConfig::default();
    for (spec, opts) in [
        (GemmSpec::new(256, 1024, 2), SimOptions::stepstone(PimLevel::BankGroup).with_subset(1)),
        (GemmSpec::new(512, 2048, 4), SimOptions::stepstone(PimLevel::BankGroup).with_subset(1)),
        (GemmSpec::new(512, 2048, 4), SimOptions::echo(PimLevel::BankGroup)),
        (GemmSpec::new(512, 2048, 4), SimOptions::echo(PimLevel::Device)),
    ] {
        let streaming = simulate_gemm_opt(&sys, &spec, &opts, None);
        let seed = simulate_pow2_gemm_seed(&sys, &spec, &opts);
        let what = format!("{spec} {:?} subset={}", opts.granularity, opts.subset_drop_bits);
        assert_reports_equal(&streaming, &seed, &what);
    }
}
