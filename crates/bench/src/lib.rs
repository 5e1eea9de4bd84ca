#![warn(missing_docs)]

//! # bitlevel-bench
//!
//! Experiment harness and parameter sweeps for the reproduction. The
//! `experiments` binary regenerates every figure/equation-level result of the
//! paper (see DESIGN.md's experiment index E1–E22), and its `--sweep <name>`
//! mode prints the measured series as CSV. [`run_experiment`] takes a seed
//! and a trace sink: the randomized experiments (E17, E18, E20, E21) read
//! the seed, which the binary's global `--seed <u64>` flag sets, and the
//! traceable ones (E6, E7, E14, E15) capture their simulated runs into the
//! sink, which the binary's `--trace <path>` flag writes out.

pub mod experiments;
pub mod record;
pub mod sweeps;

pub use experiments::{run_all, run_experiment, ExperimentOutcome, DEFAULT_SEED, TRACEABLE_IDS};
pub use record::{Record, RecordTable};
pub use sweeps::{
    analysis_time_sweep, batch_sweep, engine_sweep, faults_sweep, frontier_sweep, partition_sweep,
    speedup_sweep, utilization_sweep, wavefront_sweep,
};
