#![warn(missing_docs)]

//! # bitlevel-core
//!
//! The end-to-end facade of the reproduction of Shang & Wah, *Dependence
//! Analysis and Architecture Design for Bit-Level Algorithms* (ICPP 1993):
//! word-level algorithm → bit-level dependence structure (Theorem 3.1) →
//! feasible/optimal space–time mapping (Definition 4.1) → cycle-accurate,
//! bit-exact simulation.
//!
//! ```
//! use bitlevel_core::{DesignFlow, PaperDesign};
//!
//! // The paper's running example: 3×3 matrices of 3-bit words (Fig. 4).
//! let flow = DesignFlow::matmul(3, 3);
//! let report = flow.evaluate_paper_design(PaperDesign::TimeOptimal);
//! assert!(report.feasible);
//! assert_eq!(report.run.cycles, 3 * (3 - 1) + 3 * (3 - 1) + 1); // eq. (4.5)
//! flow.verify_matmul_functionally(); // the array really multiplies matrices
//! ```

pub mod pipeline;
pub mod report;

pub use pipeline::{
    ArchitectureReport, BackendUsed, BatchRunReport, CacheActivity, DesignFlow, ExplorationReport,
    VerifiedFrontierPoint,
};
pub use report::{
    render_architecture, render_frontier, render_matmul_comparison, render_structure,
    render_trace_summary,
};

// Re-export the layer crates so downstream users need a single dependency.
pub use bitlevel_arith as arith;
pub use bitlevel_cache as cache;
pub use bitlevel_depanal as depanal;
pub use bitlevel_fault as fault;
pub use bitlevel_ir as ir;
pub use bitlevel_linalg as linalg;
pub use bitlevel_mapping as mapping;
pub use bitlevel_systolic as systolic;

// The most-used items, flattened.
pub use bitlevel_arith::{AddShift, CarrySave, MultiplierAlgorithm, RippleAdder};
pub use bitlevel_cache::{schedule_key, CacheKey, CacheOutcome, CacheStats, CompileCache};
pub use bitlevel_depanal::{compare_analyses, compose, expand, Expansion};
pub use bitlevel_fault::{
    batched_single_fault_campaign, monte_carlo_campaign_with_cache, single_fault_campaign,
    single_fault_campaign_with_cache, BatchedFaultCampaignReport, BatchedFaultCase,
    FaultCampaignReport, FaultKind, FaultOutcome, FaultPlan, MonteCarloReport, RandomFault,
    TargetedFault,
};
pub use bitlevel_ir::{AlgorithmTriplet, BoxSet, WordLevelAlgorithm};
pub use bitlevel_mapping::{
    check_feasibility, explore, find_optimal_schedule, generate_space_family, ExploreConfig,
    Interconnect, MachineOption, MappingError, MappingMatrix, PaperDesign,
};
pub use bitlevel_systolic::{
    simulate_mapped, BackendConfigError, BitMatmulArray, CompiledSchedule, NullSink,
    PartitionError, PartitionStats, PartitionedSchedule, PersistError, RecordingSink, SimBackend,
    TraceConfig, TraceEvent, TraceRollup, TraceSink, WordLevelArray, SCHEDULE_FORMAT_VERSION,
};
