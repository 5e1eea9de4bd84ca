#![warn(missing_docs)]

//! # bitlevel
//!
//! Workspace facade for the reproduction of **Shang & Wah, "Dependence
//! Analysis and Architecture Design for Bit-Level Algorithms" (ICPP 1993)**.
//!
//! The paper's contribution and every substrate it relies on are implemented
//! as separate crates, all re-exported here:
//!
//! | crate | contents |
//! |---|---|
//! | [`linalg`] | exact integer linear algebra (rank, HNF, Smith, Diophantine) |
//! | [`ir`] | loop-nest IR: index sets, predicates, dependence structures, broadcast elimination, the word-level model (3.5) |
//! | [`arith`] | add-shift / carry-save multipliers, ripple adders — structures **and** bit-exact functional models |
//! | [`depanal`] | Theorem 3.1 compositional analysis, algorithm expansion, and the general baselines (exhaustive, Diophantine, GCD/Banerjee) |
//! | [`mapping`] | Definition 4.1: feasibility, `SD = PK` routing, conflicts, time-optimal schedule search, the Figs. 4–5 designs |
//! | [`systolic`] | cycle-accurate mapped-algorithm simulator, the bit-exact Expansion II matmul array, the word-level comparator |
//! | [`fault`] | deterministic fault injection ([`FaultPlan`]), ABFT checksum protection, and the exhaustive/Monte-Carlo campaign drivers |
//! | [`core`](mod@core_api) | the end-to-end [`DesignFlow`] pipeline and paper-style reports |
//! | [`serve`] | the long-running NDJSON evaluation service (`bitlevel-serve` binary) sharing one [`CompileCache`] across concurrent requests |
//!
//! Quickstart:
//!
//! ```
//! use bitlevel::{DesignFlow, PaperDesign};
//! let flow = DesignFlow::matmul(3, 3);
//! let fig4 = flow.evaluate_paper_design(PaperDesign::TimeOptimal);
//! assert!(fig4.feasible);
//! assert_eq!(fig4.run.cycles, 13); // eq. (4.5): 3(u-1)+3(p-1)+1
//! ```

pub use bitlevel_arith as arith;
pub use bitlevel_cache as cache;
pub use bitlevel_core as core_api;
pub use bitlevel_depanal as depanal;
pub use bitlevel_fault as fault;
pub use bitlevel_ir as ir;
pub use bitlevel_linalg as linalg;
pub use bitlevel_mapping as mapping;
pub use bitlevel_serve as serve;
pub use bitlevel_systolic as systolic;

pub use bitlevel_core::{
    batched_single_fault_campaign, check_feasibility, compare_analyses, compose, expand, explore,
    find_optimal_schedule, generate_space_family, monte_carlo_campaign,
    monte_carlo_campaign_with_cache, render_architecture, render_frontier,
    render_matmul_comparison, render_structure, render_trace_summary, run_clocked_compiled,
    schedule_key, simulate_mapped, simulate_mapped_compiled, single_fault_campaign,
    single_fault_campaign_with_cache, AddShift, AlgorithmTriplet, ArchitectureReport,
    BackendConfigError, BackendUsed, BatchRunReport, BatchedFaultCampaignReport, BatchedFaultCase,
    BitMatmulArray, BoxSet, CacheActivity, CacheKey, CacheOutcome, CacheStats, CarrySave,
    CompileCache, CompiledSchedule, DesignFlow, Expansion, ExplorationReport, ExploreConfig,
    FaultCampaignReport, FaultKind, FaultOutcome, FaultPlan, Interconnect, MachineOption,
    MappingError, MappingMatrix, MonteCarloReport, MultiplierAlgorithm, NullSink, PaperDesign,
    PartitionError, PartitionStats, PartitionedSchedule, PersistError, RandomFault, RecordingSink,
    RippleAdder, SimBackend, TargetedFault, TraceConfig, TraceEvent, TraceRollup, TraceSink,
    VerifiedFrontierPoint, WordLevelAlgorithm, WordLevelArray, SCHEDULE_FORMAT_VERSION,
};
