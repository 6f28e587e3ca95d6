//! The StepStone PIM core: address-mapping-cognizant GEMM execution on
//! in-memory processing units, with the paper's full set of comparison
//! points.
//!
//! This crate couples the block-group algebra (`stepstone-addr`), the PIM
//! hardware models (`stepstone-pim`), and the DDR4 timing simulator
//! (`stepstone-dram`) into timed executions of:
//!
//! * **StepStone PIM** at channel/device/bank-group level, with the
//!   PIM-subset optimization and relaxed-area variants ([`flow`]),
//! * **eCHO** — Chopim enhanced with StepStone's grouping ([`flow`]),
//! * **nCHO / PEI** — prior main-memory PIM approaches ([`baselines`]),
//! * **CPU / iCPU** — calibrated host baselines ([`cpu`]),
//! * the level-selection heuristic of §III-E ([`select`]),
//! * functional end-to-end validation through the simulated memory
//!   ([`validate`]).

pub mod analytic;
pub mod baselines;
pub mod config;
pub mod cpu;
pub mod engine;
pub mod flow;
pub mod gemm;
pub mod report;
pub mod select;
pub mod serving;
pub mod validate;

pub use baselines::{simulate_ncho, simulate_pei};
pub use config::{AgenMode, SystemConfig};
pub use cpu::{CpuModel, IdealCpuModel};
pub use engine::TrafficCursor;
pub use flow::{
    simulate_gemm, simulate_gemm_opt, simulate_gemm_session, simulate_pow2_gemm_ctx,
    simulate_pow2_gemm_resident, ExecMode, GemmContext, PagedSteps, SessionCache, SessionKey,
    SimOptions,
};
pub use gemm::GemmSpec;
pub use report::{ActivityCounts, LatencyReport, Phase};
pub use stepstone_fabric::{FabricConfig, FabricStats, LinkStats, ReduceVia, TopologyKind};
pub use select::{choose_backend, estimate_pim_cycles, options_for, Backend};
pub use serving::{
    cpu_crossover_batch, simulate_gemm_fused, simulate_split_batch, split_batch_cycles,
    CROSSOVER_SEARCH_CAP, PIM_CHUNK_BATCH,
};
