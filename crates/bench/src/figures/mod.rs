//! One module per regenerated paper table/figure. Each exposes
//! `run(scale) -> FigureResult`; the `src/bin/` wrappers print and save.

pub mod ablations;
pub mod crossover;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;
pub mod table2;

use stepstone_core::SystemConfig;
use stepstone_dram::{BackendKind, DramConfig};

/// The baseline evaluated system (Skylake mapping, DDR4-2400R, DMA
/// localization), optionally retargeted by environment:
///
/// * `STEPSTONE_BACKEND` — `exact` (default) or `analytic`; selects the
///   timing tier every figure driver simulates on. The analytic tier
///   prices plain power-of-two passes in closed form; the rows it has no
///   closed form for (PEI, nCHO, fused passes, colocated traffic) report
///   exact cycles.
/// * `STEPSTONE_PRESET` — `ddr4` (default), `ddr5`, `lpddr5`, or `hbm2`;
///   selects the DRAM device preset (timing, clock, channel width).
///
/// Unset variables leave the paper's evaluated system untouched, so the
/// committed figure outputs are reproduced bit-identically by default.
pub fn baseline_system() -> SystemConfig {
    let mut sys = SystemConfig::default();
    if let Ok(name) = std::env::var("STEPSTONE_BACKEND") {
        if !name.is_empty() {
            sys.backend = BackendKind::by_name(&name)
                .unwrap_or_else(|| panic!("unknown STEPSTONE_BACKEND '{name}'"));
        }
    }
    if let Ok(name) = std::env::var("STEPSTONE_PRESET") {
        if !name.is_empty() {
            sys = sys.with_dram(
                DramConfig::by_name(&name)
                    .unwrap_or_else(|| panic!("unknown STEPSTONE_PRESET '{name}'")),
            );
        }
    }
    sys
}
