//! Which memory-model tier a simulation runs on.
//!
//! There is one DRAM timing model, the exact Table-II
//! [`TimingState`](crate::TimingState), and the engine drives it directly.
//! The analytic tier ([`BackendKind::Analytic`]) is not a second model: it
//! costs whole power-of-two GEMMs in closed form (`core::analytic`), and a
//! request without a closed form runs the exact engine over the same model.

/// Which memory-model tier a simulation runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The exact cycle-level Table-II model
    /// ([`TimingState`](crate::TimingState)).
    #[default]
    Exact,
    /// The closed-form analytic executor in `stepstone-core`
    /// (`core::analytic`): whole power-of-two GEMMs without colocated
    /// traffic are costed in closed form; every other request (colocated
    /// traffic, fused passes, PEI, nCHO) runs the exact engine and
    /// reports exact cycles.
    Analytic,
}

impl BackendKind {
    /// Stable lowercase name (CLI flags, report tags, JSON sections).
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Exact => "exact",
            BackendKind::Analytic => "analytic",
        }
    }

    /// Parse a CLI/env selector.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "exact" | "timing" | "ddr" => Some(BackendKind::Exact),
            "analytic" | "fast" => Some(BackendKind::Analytic),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_kind_names_round_trip() {
        for k in [BackendKind::Exact, BackendKind::Analytic] {
            assert_eq!(BackendKind::by_name(k.name()), Some(k));
        }
        assert_eq!(BackendKind::default(), BackendKind::Exact);
        assert!(BackendKind::by_name("dramsim").is_none());
    }
}
