#![warn(missing_docs)]

//! # bitlevel-bench
//!
//! Experiment harness and parameter sweeps for the reproduction. The
//! `experiments` binary regenerates every figure/equation-level result of the
//! paper (see DESIGN.md's experiment index E1–E22), and its `--sweep <name>`
//! mode prints the measured series as CSV. The traceable experiments (E6,
//! E7, E14, E15) can capture their simulated runs through
//! [`run_experiment_traced`] and the binary's `--trace <path>` flag; the
//! randomized experiments (E17's fault campaigns) take an explicit seed
//! through [`run_experiment_seeded`] and the binary's global `--seed <u64>`
//! flag.

pub mod experiments;
pub mod record;
pub mod sweeps;

pub use experiments::{
    run_all, run_all_seeded, run_experiment, run_experiment_seeded, run_experiment_traced,
    ExperimentOutcome, DEFAULT_SEED, TRACEABLE_IDS,
};
pub use record::{Record, RecordTable};
pub use sweeps::{
    analysis_time_sweep, batch_sweep, engine_sweep, faults_sweep, frontier_sweep, partition_sweep,
    speedup_sweep, utilization_sweep, wavefront_sweep,
};
