#![warn(missing_docs)]

//! # bitlevel-fault
//!
//! Deterministic fault injection and ABFT resilience analysis for the
//! bit-level systolic engines:
//!
//! * [`plan`] — plain-data, seed-deterministic [`FaultPlan`]s (transient
//!   bit flips, stuck-at cells, dead PEs, dropped/duplicated link
//!   transfers), targeted by `(pe, cycle)` or sampled by rate, lowered by
//!   [`FaultPlan::resolve`] into a pure-lookup
//!   [`bitlevel_systolic::FaultInjector`] that perturbs the interpreted
//!   clocked engine, the mapped timing simulator and the compiled backend
//!   bit-identically;
//! * [`abft`] — algorithm-based fault tolerance for the (3.12) matmul:
//!   input-derived row/column checksums mod `2^{2p−1}`, syndrome decoding
//!   after drain, and the masked / detected / silent-data-corruption
//!   classification of [`FaultOutcome`];
//! * [`campaign`] — the experiment E17/E20 drivers: the exhaustive
//!   single-fault sweep (every index point × every signal bit, run on both
//!   engines, with the zero-SDC guarantee for single transient flips), its
//!   lane-packed form [`batched_single_fault_campaign`] (up to 64 distinct
//!   fault cases per word-wide compiled walk, case-for-case identical to
//!   the scalar sweep) and seeded Monte Carlo multi-fault campaigns (scalar,
//!   and lane-packed with up to 64 trials per walk on both engines), all
//!   compiling through a shared `CompileCache`, exporting
//!   [`FaultCampaignReport`] as CSV/JSON plus the per-PE vulnerability data
//!   behind the Fig. 4 vs Fig. 5 critical-PE heat map.

pub mod abft;
pub mod campaign;
pub mod plan;

pub use abft::{checksum_modulus, FaultOutcome, LaneVerdicts, MatmulChecksums, SyndromeSet};
pub use campaign::{
    batched_monte_carlo_campaign, batched_single_fault_campaign, batched_single_fault_counts,
    matmul_structure, monte_carlo_campaign_with_cache, operand_matrices, single_fault_campaign,
    single_fault_campaign_with_cache, BatchedCampaignCounts, BatchedFaultCampaignReport,
    BatchedFaultCase, FaultCampaignReport, FaultCase, MonteCarloReport, MonteCarloTrial,
};
pub use plan::{
    FaultKind, FaultPlan, RandomFault, ResolvedFault, ResolvedFaultPlan, TargetedFault,
};
