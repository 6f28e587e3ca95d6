//! VA→PA paging: page-size-parameterized address translation for the
//! physically-contiguous-arena assumption the paper (and the rest of this
//! reproduction) bakes in.
//!
//! The simulator's walks, region plans, and span programs all operate on
//! *virtual* addresses — the OS-facing view in which the weight matrix and
//! the per-PIM buffer arenas are contiguous. Real deployments translate
//! through 4KB–1GB pages, and a non-identity allocation fragments the GF(2)
//! region algebra: two blocks that share a (bank, row) window key in the
//! virtual view keep sharing one *iff they sit in the same page*, because
//! the mapping's decode is XOR-linear (`decode(frame | off) =
//! decode(frame) ^ decode(off)`) and frames only differ above the page
//! offset. That single fact is what lets the whole region algebra compose
//! per page: every run promise is clipped at the next page boundary
//! ([`RegionPlan::rank_below`] for region fills, plain arithmetic for the
//! contiguous A-walk spans), and each step's address is translated through
//! the [`PageMap`] — no table or plan is rebuilt.
//!
//! Three allocation policies bracket the realism range:
//!
//! * [`PagePolicy::Identity`] — frame == page; translation is the
//!   identity. With any page size this is bit-identical to the contiguous
//!   baseline (CI-gated), which is also the provable behavior of *any*
//!   policy once the page size reaches the arena size.
//! * [`PagePolicy::Permuted`] — frames are an affine odd-multiplier
//!   permutation of the page number within a scramble window: pages land
//!   strided, adjacency is lost, but the pattern is regular (a buddy-style
//!   allocator under light fragmentation).
//! * [`PagePolicy::Fragmented`] — frames are a xorshift-multiply
//!   bijection of the page number within the window: a long-running
//!   allocator's free-list order, destroying cross-page locality entirely.
//!
//! Both non-identity policies permute page numbers *within an aligned
//! window of `1 << window_log2` pages* (high VPN bits pass through), so the
//! map is a global bijection by construction — distinct arenas can never
//! collide — and every frame stays inside the same
//! `page_bytes << window_log2`-aligned super-region as its page.
//!
//! # Page coloring
//!
//! StepStone's execution model requires each PIM to own its localized
//! data: the region algebra pins the PIM-ID parities (channel, rank, bank
//! group) of every block, and the engine shards phases per channel. A
//! translation that moved a page onto frames with different ID parities
//! would migrate blocks out of their PIM's bank partition — which no real
//! deployment would tolerate either; accelerator stacks demand ID-colored
//! page allocation (the NUMA/cache-coloring discipline). [`PageMap`]
//! therefore permutes frames only within the GF(2) *nullspace* of the
//! preserved parity masks over the window bits ([`PageMap::for_mapping`]
//! preserves every channel/rank/bank-group mask): rows, banks, and columns
//! scatter freely across pages — fragmenting run locality, which is the
//! effect under study — while every page stays inside its PIM partition.
//! The permutation splits the window coordinates into parity-syndrome and
//! nullspace components and scrambles only the latter, so it stays a
//! bijection.
//!
//! The PTW model is the simple identity-mapped walk of hwgc-soft's TLB
//! journey: page-table entries live in identity-mapped memory and cost a
//! flat `ptw_cycles` AGEN iterations on each page *transition* of a step
//! stream (no TLB is modeled; a stream re-walks when it leaves its current
//! page). `ptw_cycles = 0` (the default) keeps identity-policy timing
//! bit-identical.

use crate::geometry::BLOCK_BYTES;
use crate::mapping::XorMapping;
use crate::region::RegionPlan;

/// Frame-allocation policy of a [`PageMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PagePolicy {
    /// Frame number == page number (translation is the identity).
    Identity,
    /// Affine odd-multiplier permutation of the page number within the
    /// scramble window: regular striding, no adjacency.
    Permuted,
    /// Xorshift-multiply bijection of the page number within the scramble
    /// window: free-list-order allocation, no cross-page locality.
    Fragmented,
}

/// Parameters of the VA→PA layer, threaded through
/// `SystemConfig::paging`. Hash/Eq so session keys can include it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PagingConfig {
    /// Page size in bytes (power of two, at least one cache block).
    pub page_bytes: u64,
    pub policy: PagePolicy,
    /// Non-identity policies permute page numbers within aligned windows
    /// of `1 << window_log2` pages (high VPN bits pass through).
    pub window_log2: u32,
    /// AGEN iterations charged on each page transition of a step stream
    /// (the identity-mapped PTW; 0 = translation only).
    pub ptw_cycles: u32,
    /// Permutation seed for the non-identity policies.
    pub seed: u64,
}

impl PagingConfig {
    pub const DEFAULT_WINDOW_LOG2: u32 = 8;

    pub fn identity(page_bytes: u64) -> Self {
        Self {
            page_bytes,
            policy: PagePolicy::Identity,
            window_log2: Self::DEFAULT_WINDOW_LOG2,
            ptw_cycles: 0,
            seed: 0,
        }
    }

    pub fn permuted(page_bytes: u64, seed: u64) -> Self {
        Self { policy: PagePolicy::Permuted, seed, ..Self::identity(page_bytes) }
    }

    pub fn fragmented(page_bytes: u64, seed: u64) -> Self {
        Self { policy: PagePolicy::Fragmented, seed, ..Self::identity(page_bytes) }
    }

    pub fn with_ptw(mut self, cycles: u32) -> Self {
        self.ptw_cycles = cycles;
        self
    }
}

/// The VA→PA translation map: a pure function of its [`PagingConfig`]
/// plus the preserved parity masks (no page table is materialized —
/// frames are computed arithmetically), cheap to clone into every step
/// stream.
#[derive(Debug, Clone)]
pub struct PageMap {
    cfg: PagingConfig,
    page_shift: u32,
    page_mask: u64,
    /// Mask over the low VPN bits the policy may permute.
    win_mask: u64,
    /// Nullspace basis of the preserved parity constraints over the
    /// window bits: basis vector `j` has bit `free_bits[j]` set and no
    /// other free bit, so the nullspace coordinates of any window value
    /// are simply its free bits. The permutation scrambles only these
    /// coordinates — every preserved parity is untouched.
    null_basis: Vec<u64>,
    free_bits: Vec<u32>,
    /// Odd multipliers derived from the seed (affine / scramble rounds).
    mul_a: u64,
    mul_b: u64,
    /// Additive constant of the affine (`Permuted`) policy.
    add_c: u64,
}

impl PageMap {
    /// Validating constructor with explicit parity preservation: each mask
    /// in `preserved` is a PA-bit parity the translation must leave
    /// unchanged for every address (page coloring; see the module docs).
    /// Errors on degenerate configurations (non-power-of-two or sub-block
    /// page size, oversized window) instead of producing a map that
    /// silently aliases frames.
    pub fn try_new_preserving(cfg: PagingConfig, preserved: &[u64]) -> Result<Self, String> {
        if !cfg.page_bytes.is_power_of_two() {
            return Err(format!("page_bytes {:#x} is not a power of two", cfg.page_bytes));
        }
        if cfg.page_bytes < BLOCK_BYTES {
            return Err(format!(
                "page_bytes {} is smaller than one cache block ({BLOCK_BYTES})",
                cfg.page_bytes
            ));
        }
        if cfg.window_log2 > 24 {
            return Err(format!("window_log2 {} > 24 (window would not tabulate)", cfg.window_log2));
        }
        let page_shift = cfg.page_bytes.trailing_zeros();
        if page_shift + cfg.window_log2 >= 63 {
            return Err(format!(
                "page_bytes {:#x} with window_log2 {} overflows the address space",
                cfg.page_bytes, cfg.window_log2
            ));
        }
        let w = cfg.window_log2;
        let win_mask = (1u64 << w) - 1;

        // Restrict the preserved masks to the window bits (bits below the
        // page offset and above the window never change, so only their
        // window slice constrains the permutation), then Gauss-eliminate
        // to find the pivot columns and the standard nullspace basis: one
        // vector per free column, with a 1 in that free column and its
        // pivot-column corrections. Unit pivot-column vectors complete the
        // basis, so the free bits of any window value *are* its nullspace
        // coordinates.
        let mut rows: Vec<u64> =
            preserved.iter().map(|&m| (m >> page_shift) & win_mask).filter(|&r| r != 0).collect();
        let mut pivot_of_row: Vec<u32> = Vec::new();
        let mut r_ix = 0usize;
        for col in (0..w).rev() {
            let Some(p) = (r_ix..rows.len()).find(|&i| rows[i] >> col & 1 == 1) else { continue };
            rows.swap(r_ix, p);
            let head = rows[r_ix];
            for (i, r) in rows.iter_mut().enumerate() {
                if i != r_ix && *r >> col & 1 == 1 {
                    *r ^= head;
                }
            }
            pivot_of_row.push(col);
            r_ix += 1;
        }
        rows.truncate(r_ix);
        let is_pivot = |c: u32| pivot_of_row.contains(&c);
        let mut null_basis = Vec::new();
        let mut free_bits = Vec::new();
        for c in 0..w {
            if is_pivot(c) {
                continue;
            }
            let mut v = 1u64 << c;
            for (r, &pc) in rows.iter().zip(&pivot_of_row) {
                if r >> c & 1 == 1 {
                    v |= 1u64 << pc;
                }
            }
            null_basis.push(v);
            free_bits.push(c);
        }

        // SplitMix64-style seed expansion; multipliers forced odd so both
        // rounds are bijections mod 2^d.
        let mix = |x: u64| {
            let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Ok(Self {
            cfg,
            page_shift,
            page_mask: cfg.page_bytes - 1,
            win_mask,
            null_basis,
            free_bits,
            mul_a: mix(cfg.seed) | 1,
            mul_b: mix(cfg.seed ^ 0x5851_F42D_4C95_7F2D) | 1,
            add_c: mix(cfg.seed.wrapping_add(1)),
        })
    }

    /// Unconstrained map (no parities preserved — the full window
    /// scrambles). Suitable for standalone locality studies; simulations
    /// driving the engine need [`PageMap::for_mapping`]'s coloring.
    pub fn try_new(cfg: PagingConfig) -> Result<Self, String> {
        Self::try_new_preserving(cfg, &[])
    }

    /// The production constructor: preserve the PIM-ID parities (every
    /// channel, rank, and bank-group mask) of `mapping`, so translation
    /// never moves a block out of its PIM's bank partition. Rows, banks,
    /// and columns still scatter across pages.
    pub fn try_for_mapping(cfg: PagingConfig, mapping: &XorMapping) -> Result<Self, String> {
        use crate::mapping::Field;
        let mut preserved = Vec::new();
        for f in [Field::Channel, Field::Rank, Field::BankGroup] {
            preserved.extend_from_slice(mapping.field_masks(f));
        }
        Self::try_new_preserving(cfg, &preserved)
    }

    /// Panicking form of [`PageMap::try_for_mapping`] for static
    /// configurations.
    ///
    /// # Panics
    /// On the same degenerate inputs [`PageMap::try_new_preserving`]
    /// rejects, with the rejection reason in the message.
    pub fn for_mapping(cfg: PagingConfig, mapping: &XorMapping) -> Self {
        Self::try_for_mapping(cfg, mapping)
            .unwrap_or_else(|e| panic!("invalid PagingConfig: {e}"))
    }

    /// Panicking form of [`PageMap::try_new`] (unconstrained).
    ///
    /// # Panics
    /// On the same degenerate inputs [`PageMap::try_new`] rejects, with the
    /// rejection reason in the message.
    pub fn new(cfg: PagingConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("invalid PagingConfig: {e}"))
    }

    #[inline]
    pub fn config(&self) -> &PagingConfig {
        &self.cfg
    }

    #[inline]
    pub fn page_bytes(&self) -> u64 {
        self.cfg.page_bytes
    }

    /// Low-address bits that survive translation unchanged.
    #[inline]
    pub fn page_mask(&self) -> u64 {
        self.page_mask
    }

    /// AGEN iterations charged per page transition.
    #[inline]
    pub fn ptw_cycles(&self) -> u32 {
        self.cfg.ptw_cycles
    }

    /// Whether translation is the identity function (fast-path guard; note
    /// a PTW cost may still apply).
    #[inline]
    pub fn is_identity(&self) -> bool {
        self.cfg.policy == PagePolicy::Identity
    }

    /// Whether this map changes a step stream's behavior at all: either
    /// translation moves addresses, or page transitions carry a PTW cost.
    /// When false, streams skip page clipping and translation entirely —
    /// the bit-identical contiguous path.
    #[inline]
    pub fn affects_stream(&self) -> bool {
        !self.is_identity() || self.cfg.ptw_cycles > 0
    }

    /// Virtual page number of `va` (page-transition detection).
    #[inline]
    pub fn vpn(&self, va: u64) -> u64 {
        va >> self.page_shift
    }

    /// Translate a virtual address: frame base of its page, plus the
    /// unchanged page offset.
    #[inline]
    pub fn translate(&self, va: u64) -> u64 {
        if self.cfg.policy == PagePolicy::Identity {
            return va;
        }
        (self.frame(va >> self.page_shift) << self.page_shift) | (va & self.page_mask)
    }

    /// Physical frame number of virtual page `vpn`: high bits pass
    /// through; within the window only the *nullspace coordinates* of the
    /// preserved parities (the free bits) are permuted per policy.
    ///
    /// With the free coordinates of `lo` gathered into `a` (one bit per
    /// nullspace basis vector) and `p = perm(a)` the policy's `d`-bit
    /// permutation, the new window value is `lo ⊕ N·(a ⊕ p)` where `N·c`
    /// XORs the basis vectors selected by `c`. Each basis vector carries
    /// exactly its own free bit, so the result's free coordinates are `p`
    /// (bijective), and `N·c` is in the nullspace of every preserved mask,
    /// so all preserved parities are untouched. With no preserved masks
    /// this degenerates to permuting the whole window.
    #[inline]
    pub fn frame(&self, vpn: u64) -> u64 {
        if self.cfg.policy == PagePolicy::Identity {
            return vpn;
        }
        let d = self.free_bits.len() as u32;
        if d == 0 {
            // The preserved parities pin every window bit: nothing may move.
            return vpn;
        }
        let d_mask = (1u64 << d) - 1;
        let lo = vpn & self.win_mask;
        let mut a = 0u64;
        for (j, &fb) in self.free_bits.iter().enumerate() {
            a |= (lo >> fb & 1) << j;
        }
        let p = match self.cfg.policy {
            PagePolicy::Identity => a,
            PagePolicy::Permuted => a.wrapping_mul(self.mul_a).wrapping_add(self.add_c) & d_mask,
            PagePolicy::Fragmented => scramble(a, d, self.mul_a, self.mul_b),
        };
        let mut delta = 0u64;
        let mut c = a ^ p;
        while c != 0 {
            delta ^= self.null_basis[c.trailing_zeros() as usize];
            c &= c - 1;
        }
        vpn ^ delta
    }
}

/// Xorshift-multiply bijection on the low `w` bits: each `x ^= x >> k`
/// (k ≥ 1) and each odd multiply mod 2^w is invertible, so the
/// composition is too.
#[inline]
fn scramble(mut x: u64, w: u32, mul_a: u64, mul_b: u64) -> u64 {
    let mask = (1u64 << w) - 1;
    let k = (w / 2).max(1);
    x ^= x >> k;
    x = x.wrapping_mul(mul_a) & mask;
    x ^= x >> k;
    x = x.wrapping_mul(mul_b) & mask;
    x ^= x >> k;
    x
}

/// Same-(bank, row) key-run statistics of a region walk after VA→PA
/// translation — the page-locality metric behind the `paging` section of
/// `BENCH_sim.json` and `docs/perf.md`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PagedRunStats {
    /// Blocks sampled.
    pub blocks: u64,
    /// Same-key runs observed over the sample.
    pub runs: u64,
    /// Run boundaries the paging layer *introduced*: the translated keys
    /// differ while the untranslated ones still matched (only possible at
    /// a page crossing).
    pub page_splits: u64,
}

impl PagedRunStats {
    pub fn mean_run_len(&self) -> f64 {
        self.blocks as f64 / self.runs.max(1) as f64
    }
}

/// Walk the first `sample` blocks of `plan` in ascending order, translate
/// each through `map`, and tabulate the same-(bank, row) runs of the
/// *translated* stream under `mapping`. With an identity map this
/// reproduces the plan's native key-run structure (cf.
/// [`RegionPlan::key_runs`]); non-identity maps can only break runs at
/// page crossings (within one page, key equality is translation-invariant
/// because decode is XOR-linear), so the ratio of the two mean run lengths
/// is exactly how much block-grouping locality the page size preserves.
pub fn paged_run_stats(
    map: &PageMap,
    plan: &RegionPlan,
    mapping: &XorMapping,
    sample: u64,
) -> PagedRunStats {
    let g = mapping.geometry();
    let mut stats = PagedRunStats::default();
    let mut prev_key = None;
    let mut prev_native = None;
    for va in plan.iter().take(sample as usize) {
        let pa = map.translate(va);
        let c = mapping.decode(pa);
        let key = (c.bank_index(g), c.row);
        let nc = mapping.decode(va);
        let native = (nc.bank_index(g), nc.row);
        if prev_key != Some(key) {
            stats.runs += 1;
            if prev_native == Some(native) {
                stats.page_splits += 1;
            }
        }
        prev_key = Some(key);
        prev_native = Some(native);
        stats.blocks += 1;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groups::GroupAnalysis;
    use crate::layout::MatrixLayout;
    use crate::pimlevel::PimLevel;
    use crate::presets::{mapping_by_id, MappingId};

    #[test]
    fn identity_translation_is_the_identity() {
        let map = PageMap::new(PagingConfig::identity(4096));
        for va in [0u64, 64, 4096, 1 << 33, (1 << 33) + 4032] {
            assert_eq!(map.translate(va), va);
        }
        assert!(map.is_identity());
    }

    #[test]
    fn non_identity_policies_are_window_bijections() {
        for policy in [
            PagingConfig::permuted(4096, 7),
            PagingConfig::fragmented(4096, 7),
            PagingConfig::fragmented(1 << 16, 12345),
        ] {
            let map = PageMap::new(policy);
            let n = 1u64 << policy.window_log2;
            let mut seen = vec![false; n as usize];
            // Window 3: the permutation must hit every frame in-window once.
            for p in 0..n {
                let vpn = 3 * n + p;
                let f = map.frame(vpn);
                assert_eq!(f & !(n - 1), 3 * n, "frame leaves its window");
                let slot = (f & (n - 1)) as usize;
                assert!(!seen[slot], "frame collision at vpn {vpn}");
                seen[slot] = true;
            }
        }
    }

    #[test]
    fn colored_maps_preserve_pim_id_parities_yet_still_move_frames() {
        let mapping = mapping_by_id(MappingId::Skylake);
        for cfg in [PagingConfig::fragmented(4096, 7), PagingConfig::permuted(4096, 3)] {
            let map = PageMap::for_mapping(cfg, &mapping);
            let mut moved = 0u64;
            for i in 0..2048u64 {
                let va = (1u64 << 33) + i * 4096 + (i % 64) * 64;
                let pa = map.translate(va);
                let a = mapping.decode(va);
                let b = mapping.decode(pa);
                assert_eq!(a.channel, b.channel, "channel moved at va {va:#x}");
                assert_eq!(a.rank, b.rank, "rank moved at va {va:#x}");
                assert_eq!(a.bankgroup, b.bankgroup, "bank group moved at va {va:#x}");
                if pa != va {
                    moved += 1;
                }
            }
            assert!(moved > 1000, "coloring must still permute frames (moved {moved})");
        }
    }

    #[test]
    fn colored_maps_are_still_window_bijections() {
        let mapping = mapping_by_id(MappingId::Skylake);
        let cfg = PagingConfig::fragmented(4096, 99);
        let map = PageMap::for_mapping(cfg, &mapping);
        let n = 1u64 << cfg.window_log2;
        let mut seen = vec![false; n as usize];
        for p in 0..n {
            let f = map.frame(5 * n + p);
            assert_eq!(f & !(n - 1), 5 * n, "frame leaves its window");
            let slot = (f & (n - 1)) as usize;
            assert!(!seen[slot], "frame collision at page {p}");
            seen[slot] = true;
        }
    }

    #[test]
    fn translation_preserves_page_offsets() {
        let map = PageMap::new(PagingConfig::fragmented(4096, 99));
        for va in [64u64, 4095, 4096 + 640, (1 << 33) + 1337 * 64] {
            let pa = map.translate(va);
            assert_eq!(pa & 4095, va & 4095);
        }
    }

    #[test]
    fn degenerate_configs_are_rejected_with_context() {
        let bad = |cfg: PagingConfig| PageMap::try_new(cfg).unwrap_err();
        assert!(bad(PagingConfig::identity(3000)).contains("power of two"));
        assert!(bad(PagingConfig::identity(32)).contains("cache block"));
        let mut huge = PagingConfig::identity(4096);
        huge.window_log2 = 25;
        assert!(bad(huge).contains("window_log2"));
    }

    #[test]
    #[should_panic(expected = "invalid PagingConfig")]
    fn panicking_constructor_names_the_reason() {
        PageMap::new(PagingConfig::identity(3000));
    }

    fn demo_plan() -> (RegionPlan, XorMapping) {
        let mapping = mapping_by_id(MappingId::Skylake);
        let layout = MatrixLayout::new_f32(1 << 30, 512, 512);
        let ga = GroupAnalysis::analyze(&mapping, PimLevel::BankGroup, layout);
        let pim = ga.active_pims()[0];
        (RegionPlan::carve(ga.pim_constraints(pim), 1 << 33, 4096), mapping)
    }

    #[test]
    fn identity_map_reproduces_native_key_runs() {
        let (plan, mapping) = demo_plan();
        let map = PageMap::new(PagingConfig::identity(4096));
        let stats = paged_run_stats(&map, &plan, &mapping, 4096);
        let native = plan.key_runs(&mapping).expect("tabulable demo plan");
        let ratio = stats.mean_run_len() / native.mean_run_len();
        // The sample covers whole periods, so the means agree closely.
        assert!((0.9..=1.1).contains(&ratio), "ratio {ratio}");
        assert_eq!(stats.page_splits, 0, "identity map cannot split runs");
    }

    #[test]
    fn larger_pages_preserve_more_locality() {
        let (plan, mapping) = demo_plan();
        let mean = |page: u64| {
            let map = PageMap::new(PagingConfig::fragmented(page, 42));
            paged_run_stats(&map, &plan, &mapping, 4096).mean_run_len()
        };
        let m4k = mean(4096);
        let m2m = mean(2 << 20);
        let m1g = mean(1 << 30);
        assert!(m4k <= m2m + 1e-9, "4K {m4k} vs 2M {m2m}");
        assert!(m2m <= m1g + 1e-9, "2M {m2m} vs 1G {m1g}");
        // At 1GB the whole sampled arena sits inside one page: native runs.
        let native = plan.key_runs(&mapping).expect("tabulable").mean_run_len();
        assert!((m1g / native - 1.0).abs() < 0.15, "1G {m1g} vs native {native}");
    }
}
