#![warn(missing_docs)]

//! # bitlevel-systolic
//!
//! Cycle-accurate simulation of the processor arrays of Section 4:
//!
//! * [`mapped`] — generic verification of any mapped algorithm
//!   `(J, D, E) + T + P`: measured makespan (vs the closed forms (4.5)/(4.8)),
//!   conflict-freeness, routing causality, utilisation, link traffic; plus
//!   the schedule-independent critical-path and fan-in metrics used to
//!   compare Expansions I and II;
//! * [`bit_array`] — the functional, bit-exact Expansion II matmul array
//!   (the hardware of Figs. 4/5), computing `Z = X·Y mod 2^{2p−1}` through
//!   real full-adder/wide-adder cells;
//! * [`word_array`] — the Section 4.2 word-level comparator
//!   (`(3(u−1)+1)·t_b` with a pluggable bit-level multiplier model);
//! * [`compiled`] — the compile-once/run-many backend: dense point slots via
//!   `BoxSet::rank`, a CSR fire list and an arena token store, walked in
//!   fire order bit-identically to the interpreted engines and selected
//!   through [`SimBackend`];
//! * [`batch`] — the lane-packed batch layer over the compiled backend:
//!   up to 64 independent problem instances in the bit-lanes of a `u64`,
//!   one schedule walk per batch, with bitwise word forms of both the
//!   matmul and the generic model-(3.5) cells, per-lane fault masks that
//!   pack up to 64 distinct fault cases into one walk, and lane extraction
//!   back into per-instance [`ClockedRun`]s;
//! * [`trace`] — structured per-cycle observability shared by all three
//!   engines: a [`TraceSink`] trait with a statically zero-overhead
//!   [`NullSink`], an in-memory [`RecordingSink`] with rollup counters
//!   (per-PE utilisation, wavefront width, in-flight high-water marks,
//!   link occupancy), and Chrome-trace/CSV exporters;
//! * [`fault`] — deterministic fault injection mirrored on the trace
//!   pattern: a [`FaultInjector`] hook (statically inert [`NoFaults`])
//!   consulted identically by all three engines, so seeded fault plans
//!   perturb interpreted and compiled runs bit-identically (the concrete
//!   plan/ABFT layer lives in `bitlevel-fault`).

pub mod batch;
pub mod bit_array;
pub mod clocked;
pub mod compiled;
pub mod expansion_i;
pub mod expansion_i_clocked;
pub mod fault;
pub mod mapped;
pub mod model35;
pub mod partition;
pub mod persist;
pub mod trace;
pub mod viz;
pub mod word_array;

pub use batch::{
    BatchRun, GoldenBatch, LaneCellSemantics, LaneFaultMasks, LaneFaultedCells, LanePackedBundle,
    LaneView, MatmulLaneCells, MatmulLaneSignals, MAX_LANES,
};
pub use bit_array::{BitMatmulArray, BitMatmulRun};
pub use clocked::{
    run_clocked, run_clocked_batch, run_clocked_faulted, run_clocked_traced, CellSemantics,
    ClockedRun, ClockedViolation, MatmulExpansionIICells, MatmulSignals, SyncCellSemantics,
};
pub use compiled::{
    run_clocked_compiled, simulate_mapped_compiled, BackendConfigError, CompileError,
    CompiledSchedule, SimBackend,
};
pub use expansion_i::{DroppedCarry, ExpansionIMatmul, ExpansionIRun};
pub use expansion_i_clocked::MatmulExpansionICells;
pub use fault::{FaultInjector, FaultableBundle, NoFaults, TransferFault};
pub use mapped::{
    asap_depths, critical_path, fanin_histogram, mean_producer_depth, simulate_mapped,
    simulate_mapped_faulted, simulate_mapped_traced, MappedRunReport,
};
pub use model35::{ColumnMap, ColumnMapError, Model35Cells, Model35LaneCells};
pub use partition::{PartitionError, PartitionStats, PartitionedSchedule};
pub use persist::{PersistError, SCHEDULE_FORMAT_VERSION, SCHEDULE_MAGIC};
pub use trace::{NullSink, RecordingSink, TraceConfig, TraceEvent, TraceRollup, TraceSink};
pub use viz::{
    render_activity_profile, render_block_structure, render_fault_heatmap, render_gantt,
    render_links, render_processor_grid, render_trace_pe_load, render_trace_wavefront,
};
pub use word_array::{WordLevelArray, WordRunReport};
