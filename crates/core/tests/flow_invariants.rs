//! Conservation and accounting invariants of the StepStone execution flow.

use proptest::prelude::*;
use stepstone_addr::{ParityConstraint, PimLevel, RegionPlan, BLOCK_BYTES};
use stepstone_core::{simulate_gemm_opt, GemmSpec, Phase, SimOptions, SystemConfig};
use stepstone_dram::Port;

fn a_blocks(spec: &GemmSpec) -> u64 {
    spec.a_bytes().div_ceil(BLOCK_BYTES)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn weight_traffic_is_read_exactly_once(
        rows_log in 5u32..9,
        cols_log in 6u32..10,
        n in 1usize..9,
        level_ix in 0usize..3,
    ) {
        let level = PimLevel::ALL[level_ix];
        let sys = SystemConfig::default();
        let spec = GemmSpec::new(1 << rows_log, 1 << cols_log, n);
        let opts = SimOptions::stepstone(level);
        let r = simulate_gemm_opt(&sys, &spec, &opts, None);
        // GEMM-phase reads on the PIM port = A blocks + buffer traffic; the
        // A stream itself reads each weight block exactly once, so the PIM
        // port reads are at least a_blocks and bounded by a_blocks + fills.
        let port = match level {
            PimLevel::Channel => Port::Channel,
            PimLevel::Device => Port::RankInternal,
            PimLevel::BankGroup => Port::BgInternal,
        };
        let pim_reads = r.dram.reads_by_port[port.index()];
        prop_assert!(pim_reads >= a_blocks(&spec), "{pim_reads} < {}", a_blocks(&spec));
        // Total simulated traffic is finite and accounted.
        prop_assert!(r.dram.accesses() >= pim_reads);
        prop_assert!(r.total > 0);
        // Phase attribution covers the bulk of the run (within 2x slack for
        // asymmetric PIM loads).
        let attributed = r.attributed();
        prop_assert!(attributed * 2 >= r.total, "{attributed} vs {r:?}");
    }

    #[test]
    fn localization_traffic_equals_sharing_algebra(
        rows_log in 5u32..9,
        cols_log in 6u32..10,
        n in 1usize..9,
    ) {
        use stepstone_addr::{mapping_by_id, GroupAnalysis, MatrixLayout};
        let sys = SystemConfig::default();
        let spec = GemmSpec::new(1 << rows_log, 1 << cols_log, n);
        let opts = SimOptions::stepstone(PimLevel::BankGroup);
        let r = simulate_gemm_opt(&sys, &spec, &opts, None);
        let mapping = mapping_by_id(sys.mapping_id);
        let layout = MatrixLayout::new_f32(
            sys.place_weights(spec.a_bytes()),
            spec.m,
            spec.k,
        );
        let ga = GroupAnalysis::analyze(&mapping, PimLevel::BankGroup, layout);
        // Channel writes during the run are exactly the localized B volume.
        let expect = (ga.distinct_cols_per_pim() * n as u64)
            .max(1) * ga.active_pim_count() as u64;
        let chan_writes = r.dram.writes_by_port[Port::Channel.index()];
        prop_assert_eq!(chan_writes, expect);
    }

    #[test]
    fn naive_and_stepstone_agen_do_identical_dram_work(
        rows_log in 5u32..8,
        cols_log in 6u32..9,
    ) {
        use stepstone_core::AgenMode;
        let spec = GemmSpec::new(1 << rows_log, 1 << cols_log, 2);
        let fast = simulate_gemm_opt(
            &SystemConfig::default(),
            &spec,
            &SimOptions::stepstone(PimLevel::BankGroup),
            None,
        );
        let naive = simulate_gemm_opt(
            &SystemConfig { agen: AgenMode::Naive, ..SystemConfig::default() },
            &spec,
            &SimOptions::stepstone(PimLevel::BankGroup),
            None,
        );
        // Same blocks, same order — only the address-generation time differs.
        prop_assert_eq!(fast.dram.reads, naive.dram.reads);
        prop_assert_eq!(fast.dram.writes, naive.dram.writes);
        prop_assert!(naive.total >= fast.total);
    }
}

#[test]
fn phase_breakdown_matches_figure_semantics() {
    // Localization precedes the kernel; reduction follows it; the exposed
    // total is at least the sum of the serialized phases' critical path.
    let sys = SystemConfig::default();
    let spec = GemmSpec::new(512, 2048, 8);
    let r = simulate_gemm_opt(&sys, &spec, &SimOptions::stepstone(PimLevel::BankGroup), None);
    assert!(r.phase(Phase::Localization) > 0);
    assert!(r.phase(Phase::Reduction) > 0);
    assert!(r.phase(Phase::Gemm) > 0);
    assert!(
        r.total >= r.phase(Phase::Localization) + r.phase(Phase::Gemm) + r.phase(Phase::Reduction)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Page-clipped round promises (`flow::PageClip`) take the region
    // blocks of one page as the count of every page holding any: an
    // aligned page fixes the address bits above its offset, so a region's
    // blocks in it solve one parity system on the in-page bits — none, or
    // a coset of one kernel, the same size in every page. Random
    // constraint systems, pages of 4 to 64 KiB, unaligned arenas.
    #[test]
    fn region_blocks_fill_every_page_alike(
        masks in proptest::collection::vec((1u64..1 << 24, any::<bool>()), 1..6),
        page_log in 12u32..17,
        arena_blocks in 0u64..1 << 14,
        count in 2u64..4096,
    ) {
        let cs = masks
            .iter()
            .map(|&(mask, parity)| ParityConstraint { mask: mask << 6, parity })
            .collect();
        let plan = RegionPlan::carve(cs, (1 << 30) + arena_blocks * BLOCK_BYTES, count);
        prop_assume!(plan.len() > 1);
        let page = 1u64 << page_log;
        let (first, last) = (plan.get(0), plan.get(plan.len() - 1));
        let mut per_page = None;
        for base in (first & !(page - 1)..=last).step_by(page as usize) {
            let held = plan.rank_below(base + page) - plan.rank_below(base);
            if held > 0 {
                let want = *per_page.get_or_insert(held);
                prop_assert_eq!(held, want, "page {:#x} of {} bytes", base, page);
            }
        }
    }
}
