#![warn(missing_docs)]

//! # bitlevel-mapping
//!
//! The linear algorithm-transformation framework of Section 4 (Definition
//! 4.1, after Shang & Fortes \[5,6\] and Ganapathy & Wah \[10\]): mapping an
//! `n`-dimensional algorithm `(J, D, E)` onto a `(k−1)`-dimensional processor
//! array by `τ(j̄) = T·j̄`, `T = [S; Π]`.
//!
//! * [`transform::MappingMatrix`] — the space–time mapping itself;
//! * [`feasibility`] — the five conditions of Definition 4.1;
//! * [`interconnect`] — interconnection primitives `P`, the `SD = PK` routing
//!   solver under the timing budget (4.1), and buffer derivation;
//! * [`conflict`] — condition 3 via kernel-lattice enumeration;
//! * [`schedule`] — the execution-time formula (4.5), processor counting,
//!   and the exhaustive search for time-optimal schedules (Theorem 4.5);
//! * [`designs`] — the paper's two concrete matmul architectures (Figs. 4–5)
//!   and the Section 4.2 word-level comparator in closed form;
//! * [`explore`](mod@explore) — the Pareto design-space explorer over `(S, Π, machine)`
//!   with branch-and-bound pruning;
//! * [`error`] — typed errors for the `try_*` variants of the panicking
//!   entry points.

pub mod conflict;
pub mod designs;
pub mod error;
pub mod explore;
pub mod feasibility;
pub mod interconnect;
pub mod lowerdim;
pub mod polyhedral;
pub mod schedule;
pub mod transform;

pub use conflict::{check_conflicts, check_conflicts_bruteforce, ConflictResult};
pub use designs::{speedup, word_level_total_time, PaperDesign};
pub use error::MappingError;
pub use explore::{
    explore, generate_space_family, Exploration, ExploreConfig, ExploreStats, FrontierPoint,
    MachineOption,
};
pub use feasibility::{check_feasibility, FeasibilityReport, Violation};
pub use interconnect::{Interconnect, KSolution, Routing};
pub use lowerdim::{find_linear_array_mapping, linear_interconnect, LinearArrayDesign};
pub use polyhedral::{
    check_conflicts_polyhedral, find_optimal_schedule_polyhedral, processor_count_polyhedral,
    total_time_polyhedral,
};
pub use schedule::{
    dependence_only_bound, find_optimal_schedule, find_optimal_schedule_bestfirst, processor_count,
    total_time, try_dependence_only_bound, try_find_optimal_schedule,
    try_find_optimal_schedule_bestfirst, try_total_time, OptimalSchedule, MAX_SEARCH_CANDIDATES,
};
pub use transform::MappingMatrix;
