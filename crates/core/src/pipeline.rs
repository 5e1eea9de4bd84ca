//! The end-to-end design flow of the paper's Section 1:
//!
//! 1. take a word-level algorithm of model (3.5);
//! 2. **expand** it to bit level (conceptually — the dependence structure is
//!    derived compositionally by Theorem 3.1, never materialising the
//!    expanded code);
//! 3. **map** the bit-level structure to a processor array (Definition 4.1),
//!    either by verifying a given design or by searching for a time-optimal
//!    schedule;
//! 4. **simulate** the resulting architecture cycle-accurately and, for
//!    matmul, bit-exactly.

use bitlevel_cache::{CacheEntry, CacheStats, CompileCache};
use bitlevel_depanal::{compose, Expansion};
use bitlevel_ir::{AlgorithmTriplet, WordLevelAlgorithm};
use bitlevel_linalg::IMat;
use bitlevel_mapping::{
    check_feasibility, find_optimal_schedule, generate_space_family, total_time, ExploreConfig,
    ExploreStats, FrontierPoint, Interconnect, MachineOption, MappingError, MappingMatrix,
    OptimalSchedule, PaperDesign,
};
use bitlevel_systolic::{
    run_clocked, simulate_mapped, simulate_mapped_faulted, BatchRun, BitMatmulArray, CellSemantics,
    ClockedRun, CompiledSchedule, FaultInjector, MappedRunReport, MatmulExpansionICells,
    MatmulExpansionIICells, MatmulLaneCells, MatmulLaneSignals, NoFaults, NullSink, PartitionStats,
    SimBackend, SyncCellSemantics, TraceEvent, TraceSink, MAX_LANES,
};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

/// Which simulation engine actually ran an evaluation, as a typed value.
///
/// The `Display` rendering reproduces the historical free-form strings
/// exactly — `"compiled"`, `"interpreted"`,
/// `"interpreted (fallback: <reason>)"`,
/// `"compiled-batch (bitwise, width <w>)"` — so persisted reports, CSV/JSON
/// consumers, and CI checks keyed on those strings keep working unchanged.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BackendUsed {
    /// The compiled dense-slot engine.
    Compiled,
    /// The interpreted reference engine, chosen deliberately.
    Interpreted,
    /// The word-parallel bit-sliced engine at the given (clamped) lane width.
    CompiledBatch {
        /// Lanes per machine word actually used.
        width: usize,
    },
    /// The compiled engine, priced by the LSGP cost model over a fixed
    /// physical worker pool.
    Partitioned {
        /// Physical workers actually used (after clamping to the virtual PE
        /// count).
        workers: usize,
    },
    /// The interpreted engine, reached by graceful degradation after the
    /// compiled backend declined the structure or semantics.
    InterpretedFallback {
        /// Why the compiled backend declined (a `CompileError` rendering or
        /// a semantic reason such as stateful Expansion I cells).
        reason: String,
    },
    /// The compiled engine, reached by graceful degradation after the
    /// partitioned backend declined the schedule (e.g. a non-causal
    /// schedule, whose same-cycle dependences the LSGP makespan model
    /// cannot price).
    CompiledFallback {
        /// Why the partitioned backend declined (a `PartitionError`
        /// rendering).
        reason: String,
    },
}

impl BackendUsed {
    /// An [`BackendUsed::InterpretedFallback`] from any rendered reason.
    pub fn fallback(reason: impl Into<String>) -> Self {
        BackendUsed::InterpretedFallback {
            reason: reason.into(),
        }
    }

    /// A [`BackendUsed::CompiledFallback`] from any rendered reason.
    pub fn compiled_fallback(reason: impl Into<String>) -> Self {
        BackendUsed::CompiledFallback {
            reason: reason.into(),
        }
    }

    /// True iff the engine was reached by fallback rather than selection.
    pub fn is_fallback(&self) -> bool {
        matches!(
            self,
            BackendUsed::InterpretedFallback { .. } | BackendUsed::CompiledFallback { .. }
        )
    }

    /// True for every compiled flavour (scalar, batch, partitioned, and the
    /// partitioned-to-compiled degradation — all run the compiled schedule).
    pub fn is_compiled(&self) -> bool {
        matches!(
            self,
            BackendUsed::Compiled
                | BackendUsed::CompiledBatch { .. }
                | BackendUsed::Partitioned { .. }
                | BackendUsed::CompiledFallback { .. }
        )
    }
}

impl fmt::Display for BackendUsed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendUsed::Compiled => write!(f, "compiled"),
            BackendUsed::Interpreted => write!(f, "interpreted"),
            BackendUsed::CompiledBatch { width } => {
                write!(f, "compiled-batch (bitwise, width {width})")
            }
            BackendUsed::Partitioned { workers } => {
                write!(f, "partitioned (workers {workers})")
            }
            BackendUsed::InterpretedFallback { reason } => {
                write!(f, "interpreted (fallback: {reason})")
            }
            BackendUsed::CompiledFallback { reason } => {
                write!(f, "compiled (fallback: {reason})")
            }
        }
    }
}

impl std::str::FromStr for BackendUsed {
    type Err = String;

    /// Parses the exact `Display` renderings back (the legacy string space).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "compiled" => return Ok(BackendUsed::Compiled),
            "interpreted" => return Ok(BackendUsed::Interpreted),
            _ => {}
        }
        if let Some(rest) = s
            .strip_prefix("interpreted (fallback: ")
            .and_then(|r| r.strip_suffix(')'))
        {
            return Ok(BackendUsed::fallback(rest));
        }
        if let Some(rest) = s
            .strip_prefix("compiled (fallback: ")
            .and_then(|r| r.strip_suffix(')'))
        {
            return Ok(BackendUsed::compiled_fallback(rest));
        }
        if let Some(k) = s
            .strip_prefix("partitioned (workers ")
            .and_then(|r| r.strip_suffix(')'))
            .and_then(|k| k.parse::<usize>().ok())
        {
            return Ok(BackendUsed::Partitioned { workers: k });
        }
        if let Some(w) = s
            .strip_prefix("compiled-batch (bitwise, width ")
            .and_then(|r| r.strip_suffix(')'))
            .and_then(|w| w.parse::<usize>().ok())
        {
            return Ok(BackendUsed::CompiledBatch { width: w });
        }
        Err(format!("unrecognised backend string: {s:?}"))
    }
}

impl PartialEq<&str> for BackendUsed {
    // Equality is defined as "renders to exactly this legacy string", so the
    // canonical rendering is the comparison — the allocation is the point.
    #[allow(clippy::cmp_owned)]
    fn eq(&self, other: &&str) -> bool {
        self.to_string() == *other
    }
}

impl PartialEq<BackendUsed> for &str {
    fn eq(&self, other: &BackendUsed) -> bool {
        other == self
    }
}

/// Evidence of how an evaluation's compiled schedule was obtained from the
/// flow's shared [`CompileCache`].
#[derive(Debug, Clone)]
pub struct CacheActivity {
    /// The 32-hex-digit content key of the (structure, mapping, machine)
    /// triple — the stem of the on-disk `*.blsc` entry when persistence is
    /// configured.
    pub key: String,
    /// Where the lookup was answered: `"memory-hit"`, `"disk-hit"`, or
    /// `"miss-compiled"`.
    pub outcome: String,
    /// Cumulative cache counters right after this lookup.
    pub stats: CacheStats,
}

/// A configured design flow: one word-level algorithm, one word length, one
/// expansion, and the simulation backend executing steps 4+.
#[derive(Debug, Clone)]
pub struct DesignFlow {
    /// The word-level algorithm.
    pub word: WordLevelAlgorithm,
    /// Word length `p`.
    pub p: usize,
    /// Algorithm expansion.
    pub expansion: Expansion,
    /// Simulation engine (compiled dense-slot by default; the interpreted
    /// engine remains available as the reference oracle).
    pub backend: SimBackend,
    /// Shared compile cache: every compiled-backend evaluation (traced,
    /// faulted, batch, clocked, explorer re-verification) looks schedules up
    /// here by content key before compiling. Clones of the flow share it.
    cache: CompileCache,
}

/// Everything known about one concrete architecture for the flow.
#[derive(Debug, Clone)]
pub struct ArchitectureReport {
    /// Design label.
    pub name: String,
    /// Whether all five Definition 4.1 conditions hold.
    pub feasible: bool,
    /// Violations, rendered (empty when feasible).
    pub violations: Vec<String>,
    /// Measured simulation results.
    pub run: MappedRunReport,
    /// Closed-form execution time for cross-checking (when known).
    pub closed_form_cycles: Option<i64>,
    /// Longest wire length of the machine.
    pub max_wire_length: i64,
    /// Which simulation engine actually ran — [`BackendUsed::Compiled`],
    /// [`BackendUsed::Interpreted`], or a fallback recording why the
    /// compiled backend declined the structure (e.g. more than 64 dependence
    /// columns). Renders as the legacy strings.
    pub backend_used: BackendUsed,
    /// Compile-cache evidence for this evaluation: the content key, the
    /// lookup outcome, and the cumulative counters. `None` when no compiled
    /// schedule was consulted (interpreted backend, or compile fallback).
    pub cache: Option<CacheActivity>,
    /// Shard statistics of the LSGP partition when the evaluation ran on the
    /// [`SimBackend::Partitioned`] backend and the schedule partitioned;
    /// `None` otherwise.
    pub partition: Option<PartitionStats>,
}

/// One frontier design with its verification evidence: the architecture
/// report from the flow's configured backend plus the field-by-field
/// comparison against an independent interpreted-engine reference run.
#[derive(Debug, Clone)]
pub struct VerifiedFrontierPoint {
    /// The explorer's design (mapping, machine, objective triple).
    pub point: FrontierPoint,
    /// Full evaluation on the flow's backend (compiled with interpreted
    /// fallback by default; `report.backend_used` says which engine ran).
    pub report: ArchitectureReport,
    /// Fields on which the backend's measurement differed from the
    /// interpreted reference — empty means the design is verified bit-exact
    /// across engines.
    pub divergences: Vec<String>,
}

impl VerifiedFrontierPoint {
    /// True iff the design is Definition-4.1 feasible **and** both engines
    /// measured the identical run.
    pub fn verified(&self) -> bool {
        self.report.feasible && self.divergences.is_empty()
    }
}

/// Result of [`DesignFlow::explore`]: every frontier design independently
/// re-simulated and cross-checked, plus the explorer's pruning statistics.
#[derive(Debug, Clone)]
pub struct ExplorationReport {
    /// Verified frontier designs, in the explorer's deterministic order.
    pub designs: Vec<VerifiedFrontierPoint>,
    /// Search statistics (examined vs exhaustive, pruning counters).
    pub stats: ExploreStats,
}

impl ExplorationReport {
    /// True iff every frontier design passed feasibility and the bit-exact
    /// engine cross-check.
    pub fn all_verified(&self) -> bool {
        self.designs.iter().all(|d| d.verified())
    }
}

/// Result of [`DesignFlow::evaluate_batch`]: one paper design executed over
/// a whole batch of independent matmul instances, with the products of every
/// instance extracted bit-exactly.
#[derive(Debug, Clone)]
pub struct BatchRunReport {
    /// Design label (`PaperDesign::name`).
    pub design: String,
    /// Number of problem instances in the batch.
    pub instances: usize,
    /// Lane width per schedule walk:
    /// * under [`SimBackend::CompiledBatch`], the configured width clamped
    ///   to `1..=64`, even when the batch holds fewer instances;
    /// * under [`SimBackend::Partitioned`], also when it falls back to the
    ///   compiled engine, the lanes of the first walk: `min(instances, 64)`;
    /// * `1` on every scalar path, fallbacks to the interpreted engine
    ///   included.
    pub width: usize,
    /// Number of schedule walks actually performed: `⌈instances/width⌉`
    /// under `CompiledBatch`, `⌈instances/64⌉` under `Partitioned`, and
    /// `instances` on every scalar path.
    pub walks: usize,
    /// Measured cycle count of one walk (schedule-determined, hence
    /// identical across walks and lanes).
    pub cycles: i64,
    /// True iff every walk was free of timing/routing/conflict violations.
    pub legal: bool,
    /// Which engine ran: [`BackendUsed::CompiledBatch`] on the word-parallel
    /// path, otherwise the same values as [`ArchitectureReport::backend_used`]
    /// (including fallbacks when the batch/compiled backend declined the
    /// structure or semantics).
    pub backend_used: BackendUsed,
    /// Per-instance product matrices `Z = X·Y`, in batch order.
    pub products: Vec<Vec<Vec<u128>>>,
}

impl DesignFlow {
    /// Creates the flow (with the default [`SimBackend::Compiled`]).
    pub fn new(word: WordLevelAlgorithm, p: usize, expansion: Expansion) -> Self {
        DesignFlow {
            word,
            p,
            expansion,
            backend: SimBackend::default(),
            cache: CompileCache::new(),
        }
    }

    /// Selects the simulation backend (builder style).
    pub fn with_backend(mut self, backend: SimBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Selects the simulation backend, rejecting invalid configurations
    /// (zero or over-wide batch lane counts) with a typed error instead of
    /// clamping them at run time.
    pub fn with_validated_backend(
        self,
        backend: SimBackend,
    ) -> Result<Self, bitlevel_systolic::BackendConfigError> {
        backend.validate()?;
        Ok(self.with_backend(backend))
    }

    /// Replaces the flow's compile cache (builder style). Handing the same
    /// [`CompileCache`] to several flows makes them share warm artifacts.
    pub fn with_cache(mut self, cache: CompileCache) -> Self {
        self.cache = cache;
        self
    }

    /// Backs the flow's compile cache with a persistent directory: compiled
    /// schedules are written through as checksummed `*.blsc` images and
    /// survive process restarts. Corrupt or version-skewed entries degrade
    /// to a recorded miss + recompile; an uncreatable directory degrades the
    /// cache to memory-only. Never fails.
    pub fn with_cache_dir(self, dir: impl Into<PathBuf>) -> Self {
        self.with_cache(CompileCache::with_disk_dir(dir))
    }

    /// The flow's shared compile cache (counters, disk dir, manual lookups).
    pub fn cache(&self) -> &CompileCache {
        &self.cache
    }

    /// Convenience: the paper's running example (u×u matmul, word length p,
    /// Expansion II).
    pub fn matmul(u: i64, p: usize) -> Self {
        DesignFlow::new(WordLevelAlgorithm::matmul(u), p, Expansion::II)
    }

    /// Step 2: the bit-level dependence structure via Theorem 3.1.
    pub fn bit_level_structure(&self) -> AlgorithmTriplet {
        compose(&self.word, self.p, self.expansion)
    }

    /// Step 3+4 for an arbitrary mapping: feasibility check plus simulation.
    pub fn evaluate(
        &self,
        name: &str,
        t: &MappingMatrix,
        ic: &Interconnect,
        closed_form_cycles: Option<i64>,
    ) -> ArchitectureReport {
        self.evaluate_structure(name, &self.bit_level_structure(), t, ic, closed_form_cycles)
    }

    /// Step 3+4 for an explicit bit-level structure, bypassing the flow's own
    /// composition — the entry point for structures that are not derivable
    /// from `self.word` (e.g. stress shapes with more dependence columns than
    /// the compiled backend supports).
    pub fn evaluate_structure(
        &self,
        name: &str,
        alg: &AlgorithmTriplet,
        t: &MappingMatrix,
        ic: &Interconnect,
        closed_form_cycles: Option<i64>,
    ) -> ArchitectureReport {
        self.evaluate_structure_faulted(
            name,
            alg,
            t,
            ic,
            closed_form_cycles,
            &mut NullSink,
            &NoFaults,
        )
    }

    /// [`DesignFlow::evaluate_structure`] with observability and fault
    /// injection — the one body of every timing-only evaluation: the
    /// Definition 4.1 check, then the mapped run on the flow's backend.
    /// Every firing, token movement and violation of the run is emitted into
    /// `sink`. The timing simulation consults `faults` for dead PEs and
    /// dropped/duplicated link transfers (resolve a `bitlevel_fault::FaultPlan`
    /// against the structure to build one); injections surface as
    /// [`TraceEvent::FaultInjected`] events. [`NullSink`] and [`NoFaults`]
    /// make it [`DesignFlow::evaluate_structure`]; pass
    /// `&flow.bit_level_structure()` to evaluate the flow's own structure.
    ///
    /// Under [`SimBackend::Compiled`], structures the compiled backend cannot
    /// represent (more than 64 dependence columns, or an index set whose
    /// cardinality overflows the dense `u32` slot space) degrade gracefully:
    /// a [`TraceEvent::BackendFallback`] is emitted, the interpreted engine
    /// runs instead, and the report's `backend_used` records the reason.
    ///
    /// Both results are pure functions of the cache key, so a compiled
    /// engine takes the feasibility verdict from its cache entry, and an
    /// untraced, faultless run takes the entry's mapped report instead of
    /// walking. A live sink or injector always walks: its events and
    /// injected faults are the point of the call.
    #[allow(clippy::too_many_arguments)]
    pub fn evaluate_structure_faulted<K: TraceSink, F: FaultInjector<()>>(
        &self,
        name: &str,
        alg: &AlgorithmTriplet,
        t: &MappingMatrix,
        ic: &Interconnect,
        closed_form_cycles: Option<i64>,
        sink: &mut K,
        faults: &F,
    ) -> ArchitectureReport {
        let resolved = self.resolve_engine(alg, t, ic, self.fallback_origin(false), sink);
        let checked;
        let rep = match &resolved.entry {
            Some(entry) => entry.feasibility(alg, t, ic),
            None => {
                checked = check_feasibility(t, alg, ic);
                &checked
            }
        };
        let run = match (&resolved.engine, &resolved.entry) {
            (_, Some(entry)) if !K::ENABLED && !F::ENABLED => entry.mapped_report().clone(),
            (Engine::Interpreted, _) => simulate_mapped_faulted(alg, t, ic, sink, faults),
            (Engine::Compiled(sched), _) => sched.mapped_report_faulted(sink, faults),
        };
        ArchitectureReport {
            name: name.to_string(),
            feasible: rep.is_feasible(),
            violations: rep.violations.iter().map(|v| v.to_string()).collect(),
            run,
            closed_form_cycles,
            max_wire_length: ic.max_wire_length(),
            backend_used: resolved.used,
            cache: resolved.cache,
            partition: resolved.partition,
        }
    }

    /// Step 3+4 for one of the paper's Section 4.2 matmul designs.
    ///
    /// # Panics
    /// Panics if the flow is not a matmul flow (the designs are specific to
    /// the 5-dimensional matmul structure).
    pub fn evaluate_paper_design(&self, design: PaperDesign) -> ArchitectureReport {
        assert_eq!(
            self.word.dim(),
            3,
            "the Section 4 designs target the 3-D matmul word-level algorithm"
        );
        let p = self.p as i64;
        let u = self.word.bounds.upper()[0];
        self.evaluate(
            design.name(),
            &design.mapping(p),
            &design.interconnect(p),
            Some(design.total_time(u, p)),
        )
    }

    /// Searches for a time-optimal schedule for a fixed space mapping
    /// (Theorem 4.5 reproduced when applied to `S` of (4.2)).
    pub fn optimize_schedule(
        &self,
        space: &IMat,
        ic: &Interconnect,
        bound: i64,
    ) -> Option<OptimalSchedule> {
        find_optimal_schedule(space, &self.bit_level_structure(), ic, bound)
    }

    /// The execution time a schedule would give on this flow's index set.
    pub fn schedule_time(&self, pi: &bitlevel_linalg::IVec) -> i64 {
        total_time(pi, &self.bit_level_structure().index_set)
    }

    /// The default design-space exploration setup for this flow: the
    /// generated family of space mappings (two-row combinations with entries
    /// up to the word length, which includes the paper's `S` of (4.2)) and
    /// the machine menu of Section 4 — the long-wire machine `P` and the
    /// nearest-neighbour machine `P'`.
    ///
    /// Under [`SimBackend::Partitioned`] the worker count doubles as the
    /// explorer's physical-PE budget, so the frontier is costed on the
    /// LSGP-folded axes `(physical_time, physical_pes, wire)` out of the box.
    pub fn default_exploration(&self) -> (Vec<IMat>, ExploreConfig) {
        let p = self.p as i64;
        let n = self.bit_level_structure().dim();
        let family = generate_space_family(n, 2, p);
        let config = ExploreConfig {
            pi_bound: p,
            machines: vec![
                MachineOption::new("P (long wires)", Interconnect::paper_p(p)),
                MachineOption::new("P' (nearest neighbour)", Interconnect::paper_p_prime()),
            ],
            max_physical_pes: match self.backend {
                SimBackend::Partitioned { workers } => Some(workers),
                _ => None,
            },
        };
        (family, config)
    }

    /// Full design-space exploration (steps 3+4 over the whole frontier):
    /// runs [`bitlevel_mapping::explore()`] over `spaces × config.machines`,
    /// then **verifies** every frontier design — evaluation on the flow's
    /// backend (compiled with interpreted fallback, `backend_used` recorded)
    /// plus a field-by-field bit-exact comparison against an independent
    /// interpreted-engine run.
    pub fn explore(
        &self,
        spaces: &[IMat],
        config: &ExploreConfig,
    ) -> Result<ExplorationReport, MappingError> {
        self.explore_streamed(spaces, config, &mut NullSink, |_| {})
    }

    /// [`DesignFlow::explore`] with observability and **incremental
    /// delivery**: the verification run of every frontier design streams its
    /// events (including any [`TraceEvent::BackendFallback`]) into `sink`,
    /// and every frontier design is handed to `on_point` the moment its
    /// verification (backend evaluation + interpreted cross-check)
    /// completes, before the next design is touched. This is how the evaluation service streams
    /// frontier points to a client as NDJSON progress frames instead of
    /// sitting silent until the whole frontier is verified; the full
    /// [`ExplorationReport`] is still returned at the end.
    pub fn explore_streamed<K: TraceSink, F: FnMut(&VerifiedFrontierPoint)>(
        &self,
        spaces: &[IMat],
        config: &ExploreConfig,
        sink: &mut K,
        mut on_point: F,
    ) -> Result<ExplorationReport, MappingError> {
        let alg = self.bit_level_structure();
        let ex = bitlevel_mapping::explore(&alg, spaces, config)?;
        let designs = ex
            .frontier
            .iter()
            .map(|point| {
                let name = format!("frontier t={} on {}", point.time, point.machine);
                let report = self.evaluate_structure_faulted(
                    &name,
                    &alg,
                    &point.mapping,
                    &point.interconnect,
                    Some(point.time),
                    sink,
                    &NoFaults,
                );
                let reference = simulate_mapped(&alg, &point.mapping, &point.interconnect);
                let divergences = report
                    .run
                    .divergences_from(&reference)
                    .into_iter()
                    .map(str::to_string)
                    .collect();
                let verified = VerifiedFrontierPoint {
                    point: point.clone(),
                    report,
                    divergences,
                };
                on_point(&verified);
                verified
            })
            .collect();
        Ok(ExplorationReport {
            designs,
            stats: ex.stats,
        })
    }

    /// The deepest verification available for matmul flows: executes the
    /// chosen paper design on the **clocked RTL engine** (value-carrying
    /// tokens, per-token route timing) with deterministic safe operands and
    /// checks every product entry. Returns the measured cycle count.
    ///
    /// Under [`SimBackend::Compiled`] a structure the compiled backend cannot
    /// represent falls back to the interpreted engine rather than panicking.
    ///
    /// # Panics
    /// Panics if the run is illegal (timing/routing/conflict violations) or
    /// any product bit is wrong — with a message saying which.
    pub fn run_clocked_matmul(&self, design: PaperDesign) -> i64 {
        use bitlevel_systolic::Model35Cells;
        assert_eq!(
            self.word.dim(),
            3,
            "clocked matmul verification targets matmul"
        );
        assert_eq!(
            self.expansion,
            Expansion::II,
            "the clocked cells implement Expansion II"
        );
        let u = self.word.bounds.upper()[0] as usize;
        let p = self.p;
        let alg = self.bit_level_structure();

        let m = BitMatmulArray::new(u, p).max_safe_entry();
        let x: Vec<Vec<u128>> = (0..u)
            .map(|i| {
                (0..u)
                    .map(|j| ((7 * i + 2 * j + 1) as u128) % (m + 1))
                    .collect()
            })
            .collect();
        let y: Vec<Vec<u128>> = (0..u)
            .map(|i| {
                (0..u)
                    .map(|j| ((i + 5 * j + 3) as u128) % (m + 1))
                    .collect()
            })
            .collect();

        let (xo, yo) = (x.clone(), y.clone());
        let mut cells = Model35Cells::new(
            &self.word,
            p,
            &alg,
            move |j| xo[(j[0] - 1) as usize][(j[2] - 1) as usize],
            move |j| yo[(j[2] - 1) as usize][(j[1] - 1) as usize],
        );
        let t = design.mapping(p as i64);
        let ic = design.interconnect(p as i64);
        let run = self
            .resolve_engine(&alg, &t, &ic, self.fallback_origin(false), &mut NullSink)
            .engine
            .execute(&alg, &t, &ic, &mut cells);
        assert!(run.is_legal(), "clocked violations: {:?}", run.violations);
        for (tail, value) in cells.extract_results(&run) {
            let (i, j) = ((tail[0] - 1) as usize, (tail[1] - 1) as usize);
            let want: u128 = (0..u).map(|k| x[i][k] * y[k][j]).sum();
            assert_eq!(value, want, "clocked Z[{i}][{j}] wrong");
        }
        run.cycles
    }

    /// Bit-exact functional verification for matmul flows: runs the
    /// Expansion II array on deterministic safe operands and compares with
    /// native arithmetic. Under every backend but [`SimBackend::Interpreted`]
    /// the same operands are additionally pushed through the flow's clocked
    /// engine on the Fig. 4 design (compiled or partitioned, degrading like
    /// [`DesignFlow::evaluate_structure`]) and must extract the same
    /// products. Returns the tested matrix size.
    ///
    /// # Panics
    /// Panics (with a descriptive message) if the array miscomputes — this is
    /// the "does the architecture actually multiply matrices" check.
    pub fn verify_matmul_functionally(&self) -> usize {
        assert_eq!(self.word.dim(), 3, "functional verification targets matmul");
        let u = self.word.bounds.upper()[0] as usize;
        let arr = BitMatmulArray::new(u, self.p);
        let m = arr.max_safe_entry();
        let x: Vec<Vec<u128>> = (0..u)
            .map(|i| {
                (0..u)
                    .map(|j| ((3 * i + 7 * j + 1) as u128) % (m + 1))
                    .collect()
            })
            .collect();
        let y: Vec<Vec<u128>> = (0..u)
            .map(|i| {
                (0..u)
                    .map(|j| ((5 * i + 2 * j + 3) as u128) % (m + 1))
                    .collect()
            })
            .collect();
        let got = arr.multiply(&x, &y);
        for i in 0..u {
            for j in 0..u {
                let want: u128 = (0..u).map(|k| x[i][k] * y[k][j]).sum();
                assert_eq!(
                    got[i][j], want,
                    "bit-level array miscomputed Z[{i}][{j}] for u={u}, p={}",
                    self.p
                );
            }
        }
        if self.backend != SimBackend::Interpreted && self.expansion == Expansion::II {
            let alg = self.bit_level_structure();
            let design = PaperDesign::TimeOptimal;
            let mut cells = MatmulExpansionIICells::new(u, self.p, &x, &y);
            let t = design.mapping(self.p as i64);
            let ic = design.interconnect(self.p as i64);
            let run = self
                .resolve_engine(&alg, &t, &ic, self.fallback_origin(false), &mut NullSink)
                .engine
                .execute(&alg, &t, &ic, &mut cells);
            assert!(
                run.is_legal(),
                "compiled clocked violations: {:?}",
                run.violations
            );
            assert_eq!(
                cells.extract_product(&run),
                got,
                "compiled backend disagrees with the topological array"
            );
        }
        u
    }

    /// Executes a **batch** of independent matmul instances on one paper
    /// design and extracts every product bit-exactly.
    ///
    /// Under [`SimBackend::CompiledBatch`] the instances are packed into the
    /// bit-lanes of machine words (up to [`MAX_LANES`] per word, ragged final
    /// word masked to zero) and each word takes **one** schedule walk through
    /// the compiled engine — the word-parallel fast path this backend exists
    /// for. Scalar backends run the same batch one instance at a time, so the
    /// report is comparable across backends.
    ///
    /// Degradation is graceful, mirroring [`DesignFlow::evaluate_structure`]:
    /// if the structure does not compile, or the flow's expansion has no
    /// word-parallel cell semantics (Expansion I cells are stateful), the
    /// batch falls back to per-instance interpreted runs and `backend_used`
    /// records why.
    ///
    /// # Panics
    /// Panics if the flow is not a matmul flow, the batch is empty, or
    /// `xs`/`ys` disagree in length.
    pub fn evaluate_batch(
        &self,
        design: PaperDesign,
        xs: &[Vec<Vec<u128>>],
        ys: &[Vec<Vec<u128>>],
    ) -> BatchRunReport {
        self.evaluate_batch_traced(design, xs, ys, &mut NullSink)
    }

    /// [`DesignFlow::evaluate_batch`] with observability: fallbacks surface
    /// as [`TraceEvent::BackendFallback`] and, on the word-parallel path,
    /// each walk streams its per-cycle events into `sink`.
    pub fn evaluate_batch_traced<K: TraceSink>(
        &self,
        design: PaperDesign,
        xs: &[Vec<Vec<u128>>],
        ys: &[Vec<Vec<u128>>],
        sink: &mut K,
    ) -> BatchRunReport {
        assert_eq!(self.word.dim(), 3, "batch evaluation targets matmul");
        assert_eq!(xs.len(), ys.len(), "need one Y operand per X operand");
        assert!(!xs.is_empty(), "batch must hold at least one instance");
        let u = self.word.bounds.upper()[0] as usize;
        let p = self.p;
        let n = xs.len();
        let alg = self.bit_level_structure();
        let t = design.mapping(p as i64);
        let ic = design.interconnect(p as i64);

        let from = self.fallback_origin(true);
        let resolved = if self.expansion == Expansion::I && self.backend != SimBackend::Interpreted
        {
            let reason = "Expansion I cells are sequential";
            record_fallback(sink, from, "interpreted", reason);
            Resolved::interpreted(BackendUsed::fallback(reason))
        } else {
            self.resolve_engine(&alg, &t, &ic, from, sink)
        };

        // Lane-packed walks take `CompiledBatch` at its clamped width, and
        // the partitioned backend (or its compiled fallback) at full word
        // width: the partition prices PEs, the lanes carry instances. Every
        // other path walks one instance at a time.
        let (lanes, width, backend_used) = match (&resolved.engine, self.backend) {
            (Engine::Compiled(_), SimBackend::CompiledBatch { width }) => {
                let w = width.clamp(1, MAX_LANES);
                if K::ENABLED && w != width {
                    sink.record(TraceEvent::BatchWidthClamped {
                        requested: width,
                        used: w,
                    });
                }
                (Some(w), w, BackendUsed::CompiledBatch { width: w })
            }
            (Engine::Compiled(_), SimBackend::Partitioned { .. }) => {
                (Some(MAX_LANES), n.min(MAX_LANES), resolved.used)
            }
            _ => (None, 1, resolved.used),
        };
        let pack = |w: usize| -> Vec<MatmulLaneCells> {
            xs.chunks(w)
                .zip(ys.chunks(w))
                .map(|(xc, yc)| MatmulLaneCells::new(u, p, xc, yc))
                .collect()
        };
        let walks: Vec<Walk> = match (&resolved.engine, lanes) {
            (Engine::Compiled(sched), Some(w)) => {
                let chunks = pack(w);
                let runs: Vec<_> = chunks
                    .iter()
                    .map(|cells| sched.execute_batch_traced(cells, sink))
                    .collect();
                lane_walks(&chunks, &runs)
            }
            // Stateful Expansion I cells only ever reach the interpreted
            // engine (see the fallback above).
            (engine, _) => xs
                .iter()
                .zip(ys)
                .map(|(x, y)| match self.expansion {
                    Expansion::II => {
                        let mut cells = MatmulExpansionIICells::new(u, p, x, y);
                        let run = engine.execute(&alg, &t, &ic, &mut cells);
                        (
                            run.cycles,
                            run.is_legal(),
                            vec![cells.extract_product(&run)],
                        )
                    }
                    Expansion::I => {
                        let mut cells = MatmulExpansionICells::new(u, p, x, y);
                        let run = run_clocked(&alg, &t, &ic, &mut cells);
                        (
                            run.cycles,
                            run.is_legal(),
                            vec![cells.extract_product(&run)],
                        )
                    }
                })
                .collect(),
        };

        let mut products = Vec::with_capacity(n);
        let (mut cycles, mut legal) = (0, true);
        let n_walks = walks.len();
        for (walk_cycles, walk_legal, walk_products) in walks {
            cycles = walk_cycles;
            legal &= walk_legal;
            products.extend(walk_products);
        }
        BatchRunReport {
            design: design.name().to_string(),
            instances: n,
            width,
            walks: n_walks,
            cycles,
            legal,
            backend_used,
            products,
        }
    }

    /// The one backend-dispatch path every simulating entry point shares.
    ///
    /// Looks the compiled schedule up in the flow's [`CompileCache`] by
    /// content key (emitting a [`TraceEvent::CacheQuery`]) and, under
    /// [`SimBackend::Partitioned`], prices the schedule on the requested
    /// worker pool with the entry's partition; the run itself walks the
    /// compiled schedule.
    /// Degradation is graceful and recorded in the returned
    /// [`BackendUsed`]: a structure that does not compile runs interpreted
    /// (a [`TraceEvent::BackendFallback`] tagged `from`), and a schedule the
    /// partitioner declines runs compiled (tagged `"partitioned"`).
    fn resolve_engine<K: TraceSink>(
        &self,
        alg: &AlgorithmTriplet,
        t: &MappingMatrix,
        ic: &Interconnect,
        from: &str,
        sink: &mut K,
    ) -> Resolved {
        let workers = match self.backend {
            SimBackend::Interpreted => return Resolved::interpreted(BackendUsed::Interpreted),
            SimBackend::Compiled | SimBackend::CompiledBatch { .. } => None,
            SimBackend::Partitioned { workers } => Some(workers),
        };
        let (entry, outcome) = match self.cache.get_or_compile_entry(alg, t, ic) {
            Ok(found) => found,
            Err(e) => {
                let reason = e.to_string();
                record_fallback(sink, from, "interpreted", &reason);
                return Resolved::interpreted(BackendUsed::fallback(reason));
            }
        };
        let cache = CacheActivity {
            key: entry.key().hex(),
            outcome: outcome.to_string(),
            stats: self.cache.stats(),
        };
        if K::ENABLED {
            sink.record(TraceEvent::CacheQuery {
                key: cache.key.clone(),
                outcome: cache.outcome.clone(),
            });
        }
        let (used, partition) = match workers.map(|k| entry.partition(k)) {
            None => (BackendUsed::Compiled, None),
            Some(Ok(part)) => {
                let used = BackendUsed::Partitioned {
                    workers: part.workers(),
                };
                (used, Some(part.stats().clone()))
            }
            Some(Err(e)) => {
                let reason = e.to_string();
                record_fallback(sink, "partitioned", "compiled", &reason);
                (BackendUsed::compiled_fallback(reason), None)
            }
        };
        Resolved {
            engine: Engine::Compiled(Arc::clone(entry.schedule())),
            used,
            cache: Some(cache),
            partition,
            entry: Some(entry),
        }
    }

    /// The backend a compile fallback names as its origin: the configured
    /// one, except that `CompiledBatch` is only itself on a lane-packed
    /// batch — timing-only and scalar runs use it as plain `"compiled"`.
    fn fallback_origin(&self, lane_packed: bool) -> &'static str {
        match self.backend {
            SimBackend::Partitioned { .. } => "partitioned",
            SimBackend::CompiledBatch { .. } if lane_packed => "compiled-batch",
            _ => "compiled",
        }
    }
}

/// The simulation engine one evaluation runs on.
enum Engine {
    /// The interpreted reference engines.
    Interpreted,
    /// The compiled dense-slot schedule, shared through the compile cache.
    Compiled(Arc<CompiledSchedule>),
}

impl Engine {
    /// One value-carrying clocked run of `cells` (untraced).
    fn execute<S>(
        &self,
        alg: &AlgorithmTriplet,
        t: &MappingMatrix,
        ic: &Interconnect,
        cells: &mut S,
    ) -> ClockedRun<<S as SyncCellSemantics>::Bundle>
    where
        S: SyncCellSemantics + CellSemantics<Bundle = <S as SyncCellSemantics>::Bundle>,
    {
        match self {
            Engine::Interpreted => run_clocked(alg, t, ic, cells),
            Engine::Compiled(sched) => sched.execute(cells),
        }
    }
}

/// [`DesignFlow::resolve_engine`]'s answer: the engine, and the evidence
/// reports carry about how it was reached.
struct Resolved {
    engine: Engine,
    used: BackendUsed,
    cache: Option<CacheActivity>,
    partition: Option<PartitionStats>,
    /// The cache entry the compiled engine came from; `None` when
    /// interpreted.
    entry: Option<Arc<CacheEntry>>,
}

impl Resolved {
    fn interpreted(used: BackendUsed) -> Self {
        Resolved {
            engine: Engine::Interpreted,
            used,
            cache: None,
            partition: None,
            entry: None,
        }
    }
}

/// One schedule walk of a batch: its cycle count, its legality, and the
/// products of the instances it carried.
type Walk = (i64, bool, Vec<Vec<Vec<u128>>>);

/// The [`Walk`]s of lane-packed runs, one per word.
fn lane_walks(chunks: &[MatmulLaneCells], runs: &[BatchRun<MatmulLaneSignals>]) -> Vec<Walk> {
    chunks
        .iter()
        .zip(runs)
        .map(|(cells, run)| (run.cycles, run.is_legal(), cells.extract_products(run)))
        .collect()
}

/// Emits the [`TraceEvent::BackendFallback`] of a degradation from one
/// backend to another.
fn record_fallback<K: TraceSink>(sink: &mut K, from: &str, to: &str, reason: &str) {
    if K::ENABLED {
        sink.record(TraceEvent::BackendFallback {
            from: from.to_string(),
            to: to.to_string(),
            reason: reason.to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_matmul_fig4() {
        let flow = DesignFlow::matmul(3, 3);
        let rep = flow.evaluate_paper_design(PaperDesign::TimeOptimal);
        assert!(rep.feasible, "{:?}", rep.violations);
        assert_eq!(Some(rep.run.cycles), rep.closed_form_cycles);
        assert_eq!(rep.run.cycles, 13);
        assert_eq!(rep.run.processors, 81);
        assert_eq!(rep.max_wire_length, 3);
        flow.verify_matmul_functionally();
    }

    #[test]
    fn end_to_end_matmul_fig5() {
        let flow = DesignFlow::matmul(3, 3);
        let rep = flow.evaluate_paper_design(PaperDesign::NearestNeighbour);
        assert!(rep.feasible, "{:?}", rep.violations);
        assert_eq!(Some(rep.run.cycles), rep.closed_form_cycles);
        assert_eq!(rep.max_wire_length, 1);
    }

    #[test]
    fn clocked_rtl_matches_closed_forms_for_both_designs() {
        let flow = DesignFlow::matmul(3, 3);
        assert_eq!(flow.run_clocked_matmul(PaperDesign::TimeOptimal), 13);
        assert_eq!(flow.run_clocked_matmul(PaperDesign::NearestNeighbour), 21);
    }

    #[test]
    fn backends_agree_on_paper_designs() {
        let compiled = DesignFlow::matmul(3, 3);
        let interpreted = DesignFlow::matmul(3, 3).with_backend(SimBackend::Interpreted);
        assert_eq!(compiled.backend, SimBackend::Compiled);
        for design in [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour] {
            let c = compiled.evaluate_paper_design(design);
            let i = interpreted.evaluate_paper_design(design);
            assert_eq!(c.feasible, i.feasible);
            assert_eq!(c.run.cycles, i.run.cycles);
            assert_eq!(c.run.processors, i.run.processors);
            assert_eq!(c.run.conflict_free, i.run.conflict_free);
            assert_eq!(c.run.causality_ok, i.run.causality_ok);
            assert_eq!(c.run.link_traffic, i.run.link_traffic);
            assert_eq!(c.run.buffer_cycles, i.run.buffer_cycles);
            assert_eq!(
                compiled.run_clocked_matmul(design),
                interpreted.run_clocked_matmul(design)
            );
        }
    }

    #[test]
    fn reports_record_which_backend_ran() {
        let compiled = DesignFlow::matmul(2, 2);
        let interpreted = DesignFlow::matmul(2, 2).with_backend(SimBackend::Interpreted);
        let c = compiled.evaluate_paper_design(PaperDesign::TimeOptimal);
        let i = interpreted.evaluate_paper_design(PaperDesign::TimeOptimal);
        assert_eq!(c.backend_used, "compiled");
        assert_eq!(i.backend_used, "interpreted");
    }

    #[test]
    fn compiled_backend_falls_back_on_wide_structures() {
        use bitlevel_ir::{BoxSet, Dependence, DependenceSet};
        use bitlevel_linalg::IVec;
        use bitlevel_systolic::RecordingSink;
        // 65 dependence columns exceed the compiled backend's 64-column
        // bitmask; evaluate_structure must complete via the interpreted
        // engine and say so instead of panicking.
        let deps: Vec<Dependence> = (0..65)
            .map(|k| Dependence::uniform(IVec::from([1, 0]), &format!("c{k}")))
            .collect();
        let alg = AlgorithmTriplet::new(
            BoxSet::cube(2, 1, 3),
            DependenceSet::new(deps),
            "65-column stress structure",
        );
        let t = MappingMatrix::new(IMat::from_rows(&[&[1, 0], &[0, 1]]), IVec::from([1, 1]));
        let ic = Interconnect::new(IMat::from_rows(&[&[1, 0], &[0, 1]]));
        let flow = DesignFlow::matmul(2, 2); // default backend: Compiled
        let mut sink = RecordingSink::new();
        let rep =
            flow.evaluate_structure_faulted("wide", &alg, &t, &ic, None, &mut sink, &NoFaults);
        assert!(rep.backend_used.is_fallback(), "{}", rep.backend_used);
        assert!(
            rep.backend_used.to_string().contains("64"),
            "{}",
            rep.backend_used
        );
        assert!(rep.cache.is_none(), "no schedule was compiled or cached");
        assert_eq!(rep.run.computations, 9);
        assert!(
            sink.events()
                .iter()
                .any(|e| matches!(e, bitlevel_systolic::TraceEvent::BackendFallback { .. })),
            "fallback must be visible in the trace"
        );
        assert_eq!(sink.rollup().fire_total(), 9);
        // The untraced entry point takes the same path.
        let rep2 = flow.evaluate_structure("wide", &alg, &t, &ic, None);
        assert_eq!(rep2.backend_used, rep.backend_used);
        assert_eq!(rep2.run.cycles, rep.run.cycles);
    }

    #[test]
    fn faulted_evaluate_suppresses_dead_pes_on_both_backends() {
        use bitlevel_fault::{FaultKind, FaultPlan, TargetedFault};
        use bitlevel_systolic::RecordingSink;
        let design = PaperDesign::TimeOptimal;
        let dead_pe = bitlevel_linalg::IVec::from([3, 3]);
        let plan = FaultPlan {
            seed: 0,
            targeted: vec![TargetedFault {
                kind: FaultKind::DeadPe,
                pe: dead_pe,
                cycle: None,
            }],
            random: vec![],
        };
        let mut runs = Vec::new();
        for backend in [SimBackend::Compiled, SimBackend::Interpreted] {
            let flow = DesignFlow::matmul(2, 2).with_backend(backend);
            let resolved = plan.resolve(&flow.bit_level_structure(), &design.mapping(2));
            let mut sink = RecordingSink::new();
            let rep = flow.evaluate_structure_faulted(
                design.name(),
                &flow.bit_level_structure(),
                &design.mapping(2),
                &design.interconnect(2),
                Some(7),
                &mut sink,
                &resolved,
            );
            // Each PE fires u = 2 of the 32 points; a dead PE loses both.
            assert_eq!(rep.run.computations, 30, "{backend:?}");
            assert_eq!(sink.rollup().faults, 2, "{backend:?}");
            runs.push(rep.run);
        }
        assert_eq!(runs[0].divergences_from(&runs[1]), Vec::<&str>::new());
        // NoFaults keeps the faulted evaluation bit-identical to evaluate.
        let flow = DesignFlow::matmul(2, 2);
        let faultless = flow.evaluate_structure_faulted(
            design.name(),
            &flow.bit_level_structure(),
            &design.mapping(2),
            &design.interconnect(2),
            Some(7),
            &mut NullSink,
            &NoFaults,
        );
        let baseline = flow.evaluate_paper_design(design);
        assert_eq!(
            faultless.run.divergences_from(&baseline.run),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn traced_evaluate_captures_the_full_fig4_profile() {
        use bitlevel_systolic::RecordingSink;
        let flow = DesignFlow::matmul(3, 3);
        let mut sink = RecordingSink::new();
        let design = PaperDesign::TimeOptimal;
        let rep = flow.evaluate_structure_faulted(
            design.name(),
            &flow.bit_level_structure(),
            &design.mapping(3),
            &design.interconnect(3),
            Some(13),
            &mut sink,
            &NoFaults,
        );
        assert_eq!(rep.backend_used, "compiled");
        assert_eq!(sink.rollup().fire_total(), 243); // |J| = u³p²
        assert_eq!(sink.rollup().cycle_span(), 13);
        assert_eq!(sink.rollup().violations, 0);
    }

    #[test]
    fn optimizer_recovers_theorem_4_5() {
        let flow = DesignFlow::matmul(2, 2);
        let s = PaperDesign::space(2);
        let best = flow
            .optimize_schedule(&s, &Interconnect::paper_p(2), 2)
            .expect("feasible");
        assert_eq!(best.pi, bitlevel_linalg::IVec::from([1, 1, 1, 2, 1]));
        assert_eq!(best.time, flow.schedule_time(&best.pi));
    }

    #[test]
    fn explore_verifies_every_frontier_design_bit_exactly() {
        let flow = DesignFlow::matmul(2, 2);
        let (family, config) = flow.default_exploration();
        let ex = flow.explore(&family, &config).expect("well-formed inputs");
        assert!(!ex.designs.is_empty(), "matmul must have feasible designs");
        assert!(
            ex.all_verified(),
            "{:?}",
            ex.designs
                .iter()
                .map(|d| &d.divergences)
                .collect::<Vec<_>>()
        );
        for d in &ex.designs {
            assert!(d.report.feasible, "{:?}", d.report.violations);
            assert_eq!(d.report.backend_used, "compiled");
            assert_eq!(
                d.report.run.cycles, d.point.time,
                "simulation confirms the explorer"
            );
            assert_eq!(d.report.run.processors, d.point.processors);
            assert_eq!(Some(d.report.run.cycles), d.report.closed_form_cycles);
        }
        // Theorem 4.5's schedule heads the frontier.
        assert_eq!(
            ex.designs[0].point.mapping.schedule,
            bitlevel_linalg::IVec::from([1, 1, 1, 2, 1])
        );
        assert!(
            ex.stats.full_checks * 10 <= ex.stats.exhaustive,
            "pruning must be >=10x"
        );
    }

    #[test]
    fn explore_traced_streams_verification_runs() {
        use bitlevel_systolic::RecordingSink;
        let flow = DesignFlow::matmul(2, 2);
        let (family, config) = flow.default_exploration();
        let mut sink = RecordingSink::new();
        let ex = flow
            .explore_streamed(&family, &config, &mut sink, |_| {})
            .unwrap();
        // Every frontier verification fires all |J| = 32 computations.
        assert_eq!(sink.rollup().fire_total(), 32 * ex.designs.len() as u64);
    }

    #[test]
    fn explore_propagates_typed_errors() {
        let flow = DesignFlow::matmul(2, 2);
        let (family, mut config) = flow.default_exploration();
        config.pi_bound = 0;
        assert_eq!(
            flow.explore(&family, &config).unwrap_err(),
            MappingError::NonPositiveBound { bound: 0 }
        );
    }

    /// One `u×u` operand matrix.
    type Matrix = Vec<Vec<u128>>;

    /// Deterministic batch of `n` operand pairs, entries capped at the
    /// carry-safe maximum for `(u, p)`.
    fn random_batch(u: usize, p: usize, n: usize, seed: u64) -> (Vec<Matrix>, Vec<Matrix>) {
        let m = BitMatmulArray::new(u, p).max_safe_entry();
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as u128) % (m + 1)
        };
        let mut mat =
            move || -> Matrix { (0..u).map(|_| (0..u).map(|_| next()).collect()).collect() };
        (
            (0..n).map(|_| mat()).collect(),
            (0..n).map(|_| mat()).collect(),
        )
    }

    #[test]
    fn batch_backend_matches_scalar_backends_and_native_arithmetic() {
        let (u, p, n) = (2usize, 3usize, 7usize);
        let (xs, ys) = random_batch(u, p, n, 0x1CC7_1993);
        for design in [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour] {
            let batch = DesignFlow::matmul(u as i64, p)
                .with_backend(SimBackend::CompiledBatch { width: 64 })
                .evaluate_batch(design, &xs, &ys);
            assert!(batch.legal);
            assert_eq!(batch.instances, n);
            assert_eq!(batch.walks, 1, "7 instances fit one 64-lane word");
            assert_eq!(batch.backend_used, "compiled-batch (bitwise, width 64)");
            let compiled = DesignFlow::matmul(u as i64, p).evaluate_batch(design, &xs, &ys);
            assert_eq!(compiled.backend_used, "compiled");
            assert_eq!(compiled.walks, n);
            let oracle = DesignFlow::matmul(u as i64, p)
                .with_backend(SimBackend::Interpreted)
                .evaluate_batch(design, &xs, &ys);
            assert_eq!(oracle.backend_used, "interpreted");
            assert_eq!(batch.products, compiled.products);
            assert_eq!(batch.products, oracle.products);
            assert_eq!(batch.cycles, oracle.cycles);
            for (k, (x, y)) in xs.iter().zip(&ys).enumerate() {
                let want: Matrix = (0..u)
                    .map(|i| {
                        (0..u)
                            .map(|j| (0..u).map(|l| x[i][l] * y[l][j]).sum())
                            .collect()
                    })
                    .collect();
                assert_eq!(batch.products[k], want, "lane {k}");
            }
        }
    }

    #[test]
    fn batch_width_is_clamped_and_drives_the_walk_count() {
        let (xs, ys) = random_batch(2, 2, 7, 42);
        let flow =
            |w| DesignFlow::matmul(2, 2).with_backend(SimBackend::CompiledBatch { width: w });
        let narrow = flow(0).evaluate_batch(PaperDesign::TimeOptimal, &xs, &ys);
        assert_eq!((narrow.width, narrow.walks), (1, 7), "0 clamps up to 1");
        let wide = flow(500).evaluate_batch(PaperDesign::TimeOptimal, &xs, &ys);
        assert_eq!((wide.width, wide.walks), (64, 1), "500 clamps down to 64");
        let ragged = flow(3).evaluate_batch(PaperDesign::TimeOptimal, &xs, &ys);
        assert_eq!((ragged.width, ragged.walks), (3, 3), "7 = 3 + 3 + 1");
        assert_eq!(narrow.products, wide.products);
        assert_eq!(narrow.products, ragged.products);
    }

    #[test]
    fn batch_expansion_i_falls_back_to_per_instance_interpreted() {
        use bitlevel_systolic::RecordingSink;
        let (xs, ys) = random_batch(2, 3, 3, 7);
        let flow = DesignFlow::new(WordLevelAlgorithm::matmul(2), 3, Expansion::I)
            .with_backend(SimBackend::CompiledBatch { width: 8 });
        let mut sink = RecordingSink::new();
        let rep = flow.evaluate_batch_traced(PaperDesign::TimeOptimal, &xs, &ys, &mut sink);
        assert!(rep.legal);
        assert!(rep.backend_used.is_fallback(), "{}", rep.backend_used);
        assert_eq!((rep.width, rep.walks), (1, 3));
        assert!(
            sink.events().iter().any(|e| matches!(
                e,
                TraceEvent::BackendFallback { from, .. } if from == "compiled-batch"
            )),
            "fallback must be visible in the trace"
        );
        // The fallback is bit-identical to the interpreted Expansion I flow.
        let oracle = flow
            .clone()
            .with_backend(SimBackend::Interpreted)
            .evaluate_batch(PaperDesign::TimeOptimal, &xs, &ys);
        assert_eq!(rep.products, oracle.products);
        assert_eq!(rep.cycles, oracle.cycles);
    }

    #[test]
    fn batch_backend_reuses_the_compiled_timing_paths() {
        // Timing-only entry points treat CompiledBatch exactly like Compiled.
        let flow = DesignFlow::matmul(2, 2).with_backend(SimBackend::CompiledBatch { width: 16 });
        let rep = flow.evaluate_paper_design(PaperDesign::TimeOptimal);
        assert!(rep.feasible);
        assert_eq!(rep.backend_used, "compiled");
        assert_eq!(flow.run_clocked_matmul(PaperDesign::TimeOptimal), 7);
        flow.verify_matmul_functionally();
    }

    #[test]
    fn expansion_choice_flows_through() {
        let f1 = DesignFlow::new(WordLevelAlgorithm::matmul(2), 2, Expansion::I);
        let f2 = DesignFlow::new(WordLevelAlgorithm::matmul(2), 2, Expansion::II);
        let a1 = f1.bit_level_structure();
        let a2 = f2.bit_level_structure();
        assert_eq!(a1.dependence_matrix(), a2.dependence_matrix());
        assert_ne!(a1.deps, a2.deps); // validity regions differ
    }

    #[test]
    fn non_matmul_flow_works_generically() {
        // Convolution through the generic evaluate() path with a hand-built
        // 4-D mapping: S projects onto (i1, i2), Π serialises outer loops.
        let flow = DesignFlow::new(WordLevelAlgorithm::convolution(3, 2), 2, Expansion::I);
        let alg = flow.bit_level_structure();
        assert_eq!(alg.dim(), 4);
        let s = IMat::from_rows(&[&[0, 0, 1, 0], &[0, 0, 0, 1]]);
        // Conv deps: x [1,-1,0,0] (i1=1), y [1,0,0,0] (i2=1), z [0,1,0,0],
        // d4..d7. Π must order them all positively.
        let pi = bitlevel_linalg::IVec::from([7, 3, 2, 1]);
        let t = MappingMatrix::new(s, pi);
        // Machine: mesh + static + diagonal (+[0,2] routing for c').
        let ic = Interconnect::new(IMat::from_rows(&[
            &[0, 0, 1, -1, 1, 0],
            &[1, -1, 0, 0, -1, 0],
        ]));
        let rep = flow.evaluate("conv-seq", &t, &ic, None);
        // The mapping may or may not be conflict-free; the report must be
        // internally consistent either way.
        assert_eq!(rep.feasible, rep.violations.is_empty());
        assert!(rep.run.cycles > 0);
    }

    #[test]
    fn backend_used_display_and_parse_roundtrip() {
        let cases = [
            (BackendUsed::Compiled, "compiled"),
            (BackendUsed::Interpreted, "interpreted"),
            (
                BackendUsed::CompiledBatch { width: 64 },
                "compiled-batch (bitwise, width 64)",
            ),
            (
                BackendUsed::fallback("too many columns: 65"),
                "interpreted (fallback: too many columns: 65)",
            ),
            (
                BackendUsed::Partitioned { workers: 8 },
                "partitioned (workers 8)",
            ),
            (
                BackendUsed::compiled_fallback("schedule is not causal"),
                "compiled (fallback: schedule is not causal)",
            ),
        ];
        for (value, legacy) in cases {
            assert_eq!(value, legacy, "Display must preserve the legacy string");
            assert_eq!(legacy.parse::<BackendUsed>().unwrap(), value);
        }
        assert!("compiled-ish".parse::<BackendUsed>().is_err());
    }

    #[test]
    fn backend_validation_rejects_degenerate_batch_widths() {
        use bitlevel_systolic::BackendConfigError;
        let flow = DesignFlow::matmul(2, 2);
        assert_eq!(
            flow.clone()
                .with_validated_backend(SimBackend::CompiledBatch { width: 0 })
                .unwrap_err(),
            BackendConfigError::ZeroBatchWidth
        );
        assert_eq!(
            flow.clone()
                .with_validated_backend(SimBackend::CompiledBatch { width: 65 })
                .unwrap_err(),
            BackendConfigError::BatchWidthTooLarge {
                width: 65,
                max: MAX_LANES
            }
        );
        assert_eq!(
            flow.clone()
                .with_validated_backend(SimBackend::Partitioned { workers: 0 })
                .unwrap_err(),
            BackendConfigError::ZeroWorkers
        );
        for ok in [
            SimBackend::Interpreted,
            SimBackend::Compiled,
            SimBackend::CompiledBatch { width: 1 },
            SimBackend::CompiledBatch { width: MAX_LANES },
            SimBackend::Partitioned { workers: 1 },
            SimBackend::Partitioned { workers: 128 },
        ] {
            assert!(flow.clone().with_validated_backend(ok).is_ok(), "{ok:?}");
        }
    }

    #[test]
    fn batch_width_clamp_is_visible_in_the_trace() {
        use bitlevel_systolic::RecordingSink;
        let (xs, ys) = random_batch(2, 2, 3, 9);
        let flow = DesignFlow::matmul(2, 2).with_backend(SimBackend::CompiledBatch { width: 500 });
        let mut sink = RecordingSink::new();
        let rep = flow.evaluate_batch_traced(PaperDesign::TimeOptimal, &xs, &ys, &mut sink);
        assert_eq!(rep.width, MAX_LANES);
        assert!(
            sink.events().iter().any(|e| matches!(
                e,
                TraceEvent::BatchWidthClamped {
                    requested: 500,
                    used: MAX_LANES
                }
            )),
            "the silent clamp must leave a trace"
        );
        // An in-range width stays silent.
        let flow = DesignFlow::matmul(2, 2).with_backend(SimBackend::CompiledBatch { width: 3 });
        let mut sink = RecordingSink::new();
        flow.evaluate_batch_traced(PaperDesign::TimeOptimal, &xs, &ys, &mut sink);
        assert!(!sink
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::BatchWidthClamped { .. })));
    }

    #[test]
    fn partitioned_backend_matches_compiled_and_records_stats() {
        let compiled = DesignFlow::matmul(3, 3);
        let partitioned =
            DesignFlow::matmul(3, 3).with_backend(SimBackend::Partitioned { workers: 4 });
        for design in [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour] {
            let c = compiled.evaluate_paper_design(design);
            let q = partitioned.evaluate_paper_design(design);
            assert_eq!(q.backend_used, BackendUsed::Partitioned { workers: 4 });
            assert_eq!(q.run.divergences_from(&c.run), Vec::<&str>::new());
            let stats = q.partition.as_ref().expect("partitioned runs carry stats");
            assert_eq!(stats.workers, 4);
            assert_eq!(stats.virtual_pes, q.run.processors);
            assert!(
                stats.max_shard_pes < stats.virtual_pes,
                "4 workers over {} virtual PEs must shard",
                stats.virtual_pes
            );
            assert!(c.partition.is_none(), "compiled runs carry no partition");
            // The clocked value-carrying path agrees cycle-for-cycle too.
            assert_eq!(
                partitioned.run_clocked_matmul(design),
                compiled.run_clocked_matmul(design)
            );
        }
        partitioned.verify_matmul_functionally();
    }

    #[test]
    fn partitioned_batch_extracts_every_product_bit_exactly() {
        let (xs, ys) = random_batch(3, 2, 7, 0xE21);
        let flow = DesignFlow::matmul(3, 2).with_backend(SimBackend::Partitioned { workers: 3 });
        let rep = flow.evaluate_batch(PaperDesign::TimeOptimal, &xs, &ys);
        assert!(rep.legal);
        assert_eq!(rep.backend_used, "partitioned (workers 3)");
        assert_eq!(rep.instances, 7);
        assert_eq!(rep.walks, 1, "7 instances lane-pack into one walk");
        let reference = DesignFlow::matmul(3, 2)
            .with_backend(SimBackend::Interpreted)
            .evaluate_batch(PaperDesign::TimeOptimal, &xs, &ys);
        assert_eq!(rep.products, reference.products);
        assert_eq!(rep.cycles, reference.cycles);
    }

    #[test]
    fn partitioned_default_exploration_budgets_the_frontier() {
        let flow = DesignFlow::matmul(2, 2).with_backend(SimBackend::Partitioned { workers: 4 });
        let (spaces, config) = flow.default_exploration();
        assert_eq!(config.max_physical_pes, Some(4));
        let report = flow.explore(&spaces, &config).unwrap();
        assert!(report.all_verified());
        assert!(!report.designs.is_empty());
        for d in &report.designs {
            assert!(
                d.point.physical_pes <= 4,
                "frontier point exceeds the physical budget: {:?}",
                d.point
            );
            assert!(d.point.physical_time >= d.point.time);
        }
    }

    #[test]
    fn warm_cache_reproduces_the_report_without_recompiling() {
        let flow = DesignFlow::matmul(3, 3);
        let cold = flow.evaluate_paper_design(PaperDesign::TimeOptimal);
        assert_eq!(flow.cache().stats().compiles(), 1);
        let cold_cache = cold.cache.as_ref().expect("compiled path records cache");
        assert_eq!(cold_cache.outcome, "miss-compiled");

        let warm = flow.evaluate_paper_design(PaperDesign::TimeOptimal);
        let stats = flow.cache().stats();
        assert_eq!(stats.compiles(), 1, "the warm run must not recompile");
        assert_eq!(stats.hits, 1);
        let warm_cache = warm.cache.as_ref().unwrap();
        assert_eq!(warm_cache.outcome, "memory-hit");
        assert_eq!(warm_cache.key, cold_cache.key, "same content, same key");

        // Identical measurements, bit for bit.
        assert_eq!(warm.run.divergences_from(&cold.run), Vec::<&str>::new());
        assert_eq!(warm.backend_used, cold.backend_used);
        assert_eq!(warm.feasible, cold.feasible);
        assert_eq!(warm.closed_form_cycles, cold.closed_form_cycles);
    }

    #[test]
    fn flow_clones_share_cache_warmth() {
        let flow = DesignFlow::matmul(2, 2);
        flow.evaluate_paper_design(PaperDesign::TimeOptimal);
        let clone = flow.clone();
        let rep = clone.evaluate_paper_design(PaperDesign::TimeOptimal);
        assert_eq!(rep.cache.unwrap().outcome, "memory-hit");
        assert_eq!(flow.cache().stats().compiles(), 1);
        assert_eq!(flow.cache().stats().hits, 1);
    }

    #[test]
    fn every_compiled_entry_point_shares_one_cache_entry() {
        // evaluate, evaluate_structure_faulted, run_clocked_matmul,
        // evaluate_batch and verify_matmul_functionally all walk the same
        // Fig. 4 schedule: one compile serves them all.
        let flow = DesignFlow::matmul(2, 2);
        let design = PaperDesign::TimeOptimal;
        flow.evaluate_paper_design(design);
        flow.evaluate_structure_faulted(
            design.name(),
            &flow.bit_level_structure(),
            &design.mapping(2),
            &design.interconnect(2),
            None,
            &mut NullSink,
            &NoFaults,
        );
        flow.run_clocked_matmul(design);
        flow.verify_matmul_functionally();
        let (xs, ys) = random_batch(2, 2, 3, 1);
        flow.evaluate_batch(design, &xs, &ys);
        let stats = flow.cache().stats();
        assert_eq!(
            stats.compiles(),
            1,
            "five entry points, one compile: {stats:?}"
        );
        assert_eq!(stats.hits, 4);
    }

    #[test]
    fn explorer_frontier_reverification_is_compile_free() {
        let flow = DesignFlow::matmul(2, 2);
        let (family, config) = flow.default_exploration();
        let ex = flow.explore(&family, &config).expect("well-formed inputs");
        assert!(!ex.designs.is_empty());
        let compiles_after_explore = flow.cache().stats().compiles();
        assert_eq!(
            compiles_after_explore,
            ex.designs.len() as u64,
            "explore compiles each frontier design exactly once"
        );
        // Re-verifying the whole frontier must hit warm artifacts only.
        let alg = flow.bit_level_structure();
        for d in &ex.designs {
            let rep = flow.evaluate_structure(
                "re-verify",
                &alg,
                &d.point.mapping,
                &d.point.interconnect,
                Some(d.point.time),
            );
            assert_eq!(rep.backend_used, BackendUsed::Compiled);
            assert_eq!(rep.cache.unwrap().outcome, "memory-hit");
            assert_eq!(rep.run.divergences_from(&d.report.run), Vec::<&str>::new());
        }
        let stats = flow.cache().stats();
        assert_eq!(
            stats.compiles(),
            compiles_after_explore,
            "zero redundant compiles on re-verification: {stats:?}"
        );
        assert!(stats.hits >= ex.designs.len() as u64);
    }

    #[test]
    fn cache_queries_surface_in_the_trace_rollup() {
        use bitlevel_systolic::RecordingSink;
        let flow = DesignFlow::matmul(2, 2);
        let design = PaperDesign::TimeOptimal;
        let mut sink = RecordingSink::new();
        flow.evaluate_structure_faulted(
            design.name(),
            &flow.bit_level_structure(),
            &design.mapping(2),
            &design.interconnect(2),
            None,
            &mut sink,
            &NoFaults,
        );
        flow.evaluate_structure_faulted(
            design.name(),
            &flow.bit_level_structure(),
            &design.mapping(2),
            &design.interconnect(2),
            None,
            &mut sink,
            &NoFaults,
        );
        let rollup = sink.rollup();
        assert_eq!(rollup.cache_misses, 1, "first evaluation compiles");
        assert_eq!(rollup.cache_hits, 1, "second evaluation hits");
        let keys: Vec<&str> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::CacheQuery { key, .. } => Some(key.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(keys.len(), 2);
        assert_eq!(keys[0], keys[1]);
        assert_eq!(keys[0].len(), 32, "keys render as 32 hex digits");
    }

    #[test]
    fn disk_backed_flow_survives_a_cold_restart_without_recompiling() {
        let dir = std::env::temp_dir().join(format!("bl-flow-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let design = PaperDesign::TimeOptimal;
        let cold = {
            let flow = DesignFlow::matmul(2, 2).with_cache_dir(&dir);
            assert_eq!(flow.cache().disk_dir(), Some(dir.as_path()));
            flow.evaluate_paper_design(design)
        };
        // A fresh process (fresh flow, same dir): the schedule loads from
        // disk, no recompile.
        let flow = DesignFlow::matmul(2, 2).with_cache_dir(&dir);
        let warm = flow.evaluate_paper_design(design);
        assert_eq!(warm.cache.as_ref().unwrap().outcome, "disk-hit");
        assert_eq!(flow.cache().stats().compiles(), 0);
        assert_eq!(warm.run.divergences_from(&cold.run), Vec::<&str>::new());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_exploration_delivers_every_design_incrementally() {
        let flow = DesignFlow::matmul(2, 2);
        let (family, config) = flow.default_exploration();
        let mut streamed: Vec<(i64, String, bool)> = Vec::new();
        let report = flow
            .explore_streamed(&family, &config, &mut NullSink, |vp| {
                streamed.push((vp.point.time, vp.point.machine.clone(), vp.verified()));
            })
            .expect("well-formed inputs");
        assert!(!report.designs.is_empty());
        assert_eq!(streamed.len(), report.designs.len());
        for (got, want) in streamed.iter().zip(&report.designs) {
            assert_eq!(got.0, want.point.time);
            assert_eq!(got.1, want.point.machine);
            assert_eq!(got.2, want.verified());
        }
        // And the plain entry point still returns the identical frontier.
        let plain = flow.explore(&family, &config).expect("well-formed inputs");
        assert_eq!(plain.designs.len(), report.designs.len());
    }
}
