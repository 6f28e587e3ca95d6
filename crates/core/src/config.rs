//! Whole-system configuration for StepStone simulations.

use stepstone_addr::agen::AgenRules;
use stepstone_addr::{mapping_by_id, MappingId, PageMap, PagingConfig, XorMapping};
use stepstone_dram::{BackendKind, DramConfig};
use stepstone_fabric::{FabricConfig, ReduceVia};
use stepstone_pim::{LaunchModel, LocalizationMode};

/// Address-generation variants compared in Fig. 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgenMode {
    /// The naive block-by-block scan.
    Naive,
    /// StepStone increment-correct-and-check with the given rules.
    StepStone(AgenRules),
}

impl Default for AgenMode {
    fn default() -> Self {
        AgenMode::StepStone(AgenRules::default())
    }
}

/// Everything a simulation needs besides the GEMM itself.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    pub dram: DramConfig,
    pub mapping_id: MappingId,
    pub launch: LaunchModel,
    pub agen: AgenMode,
    /// How `B` localization and `C` reduction move data.
    pub localization: LocalizationMode,
    /// Base of the weight-matrix arena (each GEMM is placed at the next
    /// naturally aligned address at or above this).
    pub weight_base: u64,
    /// Base of the per-PIM localized-buffer arena.
    pub buffer_base: u64,
    /// Run the functional datapath and verify results (small GEMMs only).
    pub validate: bool,
    /// Simulate independent channels in parallel (cycle-exact; disabled
    /// automatically when colocated traffic or command tracing is active).
    pub parallel: bool,
    /// Record the DRAM command trace during simulations (diagnostics and
    /// the equivalence test matrix). Tracing forces the serial engine and
    /// the exact per-block scheduling path; reports must be unchanged.
    pub trace: bool,
    /// Which memory-model tier simulations run on. `Exact` (default) is
    /// the cycle-exact Table-II model; `Analytic` swaps in the closed-form
    /// fast tier for design-space sweeps (validation is force-disabled on
    /// paths without a functional datapath).
    pub backend: BackendKind,
    /// How the Phase-3 partial-`C` merge moves across PIM devices.
    /// `HostDma` (default) is the paper's path and is bit-identical to the
    /// pre-fabric simulator; `Fabric` routes partial sums PIM→PIM over the
    /// inter-device fabric after the same per-channel DRAM drain.
    pub reduce_via: ReduceVia,
    /// Fabric link/topology parameters (used only under
    /// `ReduceVia::Fabric`; one fabric node per DRAM channel).
    pub fabric: FabricConfig,
    /// VA→PA paging layer (None = the paper's physically contiguous
    /// arenas). When set, every step stream translates its addresses
    /// through the [`PageMap`], run promises are clipped at page
    /// boundaries, and page transitions charge the PTW's AGEN cost; an
    /// identity policy with zero PTW cycles stays bit-identical to the
    /// contiguous baseline (CI-gated).
    pub paging: Option<PagingConfig>,
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self {
            dram: DramConfig::default(),
            mapping_id: MappingId::Skylake,
            launch: LaunchModel::default(),
            agen: AgenMode::default(),
            localization: LocalizationMode::AcceleratedDma,
            weight_base: 1 << 30,
            buffer_base: 1 << 33,
            validate: false,
            parallel: true,
            trace: false,
            backend: BackendKind::Exact,
            reduce_via: ReduceVia::default(),
            fabric: FabricConfig::default(),
            paging: None,
        }
    }
}

impl SystemConfig {
    pub fn mapping(&self) -> XorMapping {
        let mut m = mapping_by_id(self.mapping_id);
        if self.dram.geom != *m.geometry() {
            m = stepstone_addr::presets::mapping_on(self.mapping_id, self.dram.geom);
        }
        m
    }

    /// Place an `total_bytes`-sized matrix at its natural alignment at or
    /// above the weight arena base (the layout validator requires it).
    pub fn place_weights(&self, total_bytes: u64) -> u64 {
        align_up(self.weight_base, total_bytes.max(64))
    }

    pub fn with_mapping(mut self, id: MappingId) -> Self {
        self.mapping_id = id;
        self
    }

    pub fn with_validation(mut self) -> Self {
        self.validate = true;
        self
    }

    pub fn with_localization(mut self, mode: LocalizationMode) -> Self {
        self.localization = mode;
        self
    }

    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    pub fn with_reduce_via(mut self, via: ReduceVia) -> Self {
        self.reduce_via = via;
        self
    }

    pub fn with_fabric(mut self, fabric: FabricConfig) -> Self {
        self.fabric = fabric;
        self
    }

    /// Swap the DRAM timing/geometry config (e.g. a `DramConfig` preset),
    /// keeping the rest of the system unchanged. `mapping()` adapts the
    /// address mapping to the new geometry automatically.
    pub fn with_dram(mut self, dram: DramConfig) -> Self {
        self.dram = dram;
        self
    }

    /// Enable the VA→PA paging layer.
    pub fn with_paging(mut self, paging: PagingConfig) -> Self {
        self.paging = Some(paging);
        self
    }

    /// The validated translation map of `paging`, if set. Built with
    /// [`PageMap::for_mapping`], so frame allocation is page-colored: the
    /// channel/rank/bank-group parities of this system's address mapping
    /// are preserved and translation never moves a block out of its PIM's
    /// bank partition.
    ///
    /// # Panics
    /// On a degenerate [`PagingConfig`] (see [`PageMap::try_new`]).
    pub fn page_map(&self) -> Option<PageMap> {
        self.paging.map(|cfg| PageMap::for_mapping(cfg, &self.mapping()))
    }
}

fn align_up(v: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    (v + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_placement_is_naturally_aligned() {
        let sys = SystemConfig::default();
        let sz = (1024u64 * 4096 * 4).next_power_of_two();
        let base = sys.place_weights(sz);
        assert_eq!(base % sz, 0);
        assert!(base >= sys.weight_base);
    }

    #[test]
    fn buffer_arena_does_not_overlap_weights() {
        let sys = SystemConfig::default();
        // Largest evaluated matrix: 16384×1024×4 = 64 MiB ≪ arena gap.
        let base = sys.place_weights(16384 * 2048 * 4);
        assert!(base + 16384 * 2048 * 4 <= sys.buffer_base);
    }

    #[test]
    fn default_uses_skylake_and_dma() {
        let sys = SystemConfig::default();
        assert_eq!(sys.mapping_id, MappingId::Skylake);
        assert_eq!(sys.localization, LocalizationMode::AcceleratedDma);
        assert_eq!(sys.mapping().name(), "skylake");
    }
}
