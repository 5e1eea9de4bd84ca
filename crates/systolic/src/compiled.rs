//! Compiled static-schedule execution backend.
//!
//! The interpreted engines ([`crate::clocked::run_clocked`] and
//! [`crate::mapped::simulate_mapped`]) address every index point through
//! `HashMap<IVec, _>` lookups and clone `IVec` keys per token. For a *static*
//! schedule all of that is knowable ahead of time, so this module compiles a
//! `(J, D, E)` algorithm, mapping `T = [S; Π]` and machine `P` **once** into
//! flat arrays over dense point slots and then executes over plain indices:
//!
//! * **Slot layout** — `BoxSet::rank` gives every index point a dense `u32`
//!   slot in lexicographic (`iter_points`) order; per-slot firing cycle,
//!   processor id and per-dependence-column producer slot live in flat `Vec`s.
//!   The rank is linear in `q̄` (`BoxSet::try_strides`), so one pass over `J`
//!   finds each producer at slot `s − ⟨d̄, strides⟩` and sets each launch bit
//!   at the producer of a consumed token.
//! * **CSR fire list** — slots sorted by cycle with per-cycle offsets, so
//!   each cycle is a contiguous `&[u32]` slice.
//! * **Arena token store** — one `Vec<Option<B>>` indexed by slot replaces
//!   the `HashMap<IVec, B>` outputs/produced-at maps.
//! * **Causal cycle slices** — when every exercised dependence column has
//!   `Π·d̄ > 0` (which mapping feasibility enforces), any two points that
//!   share a cycle are independent: a producer of either would need
//!   `Π·d̄ = 0`. So every producer a slice reads has settled in an earlier
//!   slice. The differential walk of [`GoldenBatch::faulted`] relies on
//!   this, and so does the LSGP cost model of [`crate::partition`], which
//!   prices a slice's points as parallel work. The value walk itself fires
//!   the slots in fire order, which replays the interpreted semantics
//!   densely on causal and non-causal schedules alike.
//! * **Bookkeeping once per schedule** — the accounting that the interpreted
//!   engine interleaves with its computes (violations, in-flight counts,
//!   trace events) is one sequential pass in the original fire order after
//!   the value phase, so results are **bit-identical** — violations,
//!   `peak_in_flight` and all. Without a trace sink or a fault injector that
//!   pass depends on `(J, D, T, P)` alone: the first such walk stores its
//!   result on the schedule and every later one reuses it.
//!
//! [`run_clocked_compiled`] and [`simulate_mapped_compiled`] are drop-in
//! counterparts of the interpreted entry points; [`SimBackend`] selects
//! between the two across the [`bitlevel-core`] design flow and benches.

use crate::batch::{BatchRun, GoldenBatch, LaneCellSemantics, Slots, Wordwise};
use crate::clocked::{ClockedRun, ClockedViolation, SyncCellSemantics};
use crate::fault::{FaultInjector, NoFaults, TransferFault};
use crate::mapped::MappedRunReport;
use crate::trace::{NullSink, TraceEvent, TraceSink};
use bitlevel_ir::{AlgorithmTriplet, Atom, BoxSet};
use bitlevel_linalg::IVec;
use bitlevel_mapping::{Interconnect, MappingMatrix, Routing};
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// Which simulation engine executes a mapped algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimBackend {
    /// The HashMap-based reference engines (`run_clocked`, `simulate_mapped`).
    Interpreted,
    /// The compile-once dense-slot engine of [`crate::compiled`] (default).
    #[default]
    Compiled,
    /// The lane-packed batch engine: up to 64 independent problem instances
    /// per [`CompiledSchedule::execute_batch`] walk, one walk per word
    /// beyond that. `width` is the lanes-per-word target (clamped to
    /// `1..=64`); timing-only evaluations are value-independent and behave
    /// exactly like [`SimBackend::Compiled`].
    CompiledBatch {
        /// Lanes packed per machine word (clamped to `1..=64`).
        width: usize,
    },
    /// The compiled engine priced by the LSGP cost model of
    /// [`crate::partition`]: the virtual PE array is clustered into at most
    /// `workers` shards, each owned by one physical worker, and reports
    /// carry the partition's [`crate::PartitionStats`]. Values come from the
    /// compiled walk, so runs are bit-identical to [`SimBackend::Compiled`];
    /// designs whose schedules are not causal fall back to the compiled
    /// engine with a recorded reason.
    Partitioned {
        /// Physical worker (shard) budget; must be at least 1.
        workers: usize,
    },
}

/// Why an algorithm cannot be compiled into the dense-slot representation.
///
/// These inputs are perfectly valid for the interpreted engines —
/// [`CompiledSchedule::try_compile`] lets callers (the `DesignFlow`
/// pipeline, sweeps) fall back instead of aborting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The per-slot consume/launch bitmasks hold at most 64 columns.
    TooManyColumns {
        /// Number of dependence columns in the algorithm.
        m: usize,
    },
    /// `|J|` exceeds the dense `u32` slot space.
    IndexSetTooLarge {
        /// The offending cardinality.
        cardinality: u128,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::TooManyColumns { m } => {
                write!(
                    f,
                    "compiled backend supports at most 64 dependence columns, got {m}"
                )
            }
            CompileError::IndexSetTooLarge { cardinality } => {
                write!(
                    f,
                    "index set too large for dense u32 slots: |J| = {cardinality}"
                )
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Why a [`SimBackend`] configuration is rejected by
/// [`SimBackend::validate`] before any work is scheduled on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendConfigError {
    /// `CompiledBatch { width: 0 }` — zero lanes per word packs nothing.
    ZeroBatchWidth,
    /// `CompiledBatch { width }` beyond [`crate::batch::MAX_LANES`].
    BatchWidthTooLarge {
        /// The requested lanes-per-word.
        width: usize,
        /// The hard lane capacity of one machine word.
        max: usize,
    },
    /// `Partitioned { workers: 0 }` — an empty worker pool executes nothing.
    ZeroWorkers,
}

impl fmt::Display for BackendConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendConfigError::ZeroBatchWidth => {
                write!(
                    f,
                    "batch width 0 is invalid: a word must carry at least one lane"
                )
            }
            BackendConfigError::BatchWidthTooLarge { width, max } => {
                write!(
                    f,
                    "batch width {width} exceeds the {max}-lane capacity of one machine word"
                )
            }
            BackendConfigError::ZeroWorkers => {
                write!(
                    f,
                    "worker count 0 is invalid: the physical pool must hold at least one worker"
                )
            }
        }
    }
}

impl std::error::Error for BackendConfigError {}

impl SimBackend {
    /// Validates the backend configuration: `CompiledBatch` widths outside
    /// `1..=MAX_LANES` are rejected with a typed error instead of being
    /// silently clamped. Callers that prefer the historical clamping
    /// behaviour (the `DesignFlow` batch path) keep it, but now record a
    /// clamp trace event rather than adjusting silently.
    pub fn validate(&self) -> Result<(), BackendConfigError> {
        match *self {
            SimBackend::Interpreted | SimBackend::Compiled => Ok(()),
            SimBackend::CompiledBatch { width } => {
                if width == 0 {
                    Err(BackendConfigError::ZeroBatchWidth)
                } else if width > crate::batch::MAX_LANES {
                    Err(BackendConfigError::BatchWidthTooLarge {
                        width,
                        max: crate::batch::MAX_LANES,
                    })
                } else {
                    Ok(())
                }
            }
            SimBackend::Partitioned { workers } => {
                if workers == 0 {
                    Err(BackendConfigError::ZeroWorkers)
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// Sentinel producer slot for boundary inputs (no in-set producer).
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// Reusable gather scratch (one per walk): the consumer's reconstructed
/// index point and its per-column input row. Hoisting these out of the
/// per-slot hot loop removes two heap allocations per fired point.
struct SlotScratch<B> {
    point: IVec,
    inputs: Vec<Option<B>>,
}

impl<B> Default for SlotScratch<B> {
    fn default() -> Self {
        SlotScratch {
            point: IVec(Vec::new()),
            inputs: Vec::new(),
        }
    }
}

/// What the bookkeeping pass of a value walk returns.
#[derive(Debug, Clone)]
pub(crate) struct Bookkeeping {
    /// Every violation, in the interpreted engine's order.
    pub(crate) violations: Vec<ClockedViolation>,
    /// Per-column in-flight peaks.
    pub(crate) peak_in_flight: Vec<u64>,
}

/// The [`Bookkeeping`] of a faultless untraced walk, filled by the first
/// such walk. It is derived from the schedule's other fields, so it is
/// neither persisted nor compared: two schedules are `==` whether or not
/// either has been walked.
#[derive(Debug, Clone, Default)]
pub(crate) struct BookkeepingMemo(pub(crate) OnceLock<Bookkeeping>);

impl PartialEq for BookkeepingMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for BookkeepingMemo {}

/// A `(alg, T, ic)` triple compiled into flat dense-slot arrays.
///
/// Build once with [`CompiledSchedule::compile`], then run any number of
/// workloads through [`CompiledSchedule::execute`] (values) or read the
/// timing-only report from [`CompiledSchedule::mapped_report`].
///
/// Persistable: [`CompiledSchedule::to_bytes`]/[`CompiledSchedule::from_bytes`]
/// (see [`crate::persist`]) give a checksummed, versioned binary image used by
/// the on-disk compile cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledSchedule {
    /// Algorithm dimension `n`.
    pub(crate) n: usize,
    /// Number of dependence columns `m` (≤ 64 for the bitmasks).
    pub(crate) m: usize,
    /// `|J|` — number of index points / slots.
    pub(crate) n_points: usize,
    /// Flat point coordinates: slot `s` is `points[s·n .. (s+1)·n]`.
    pub(crate) points: Vec<i64>,
    /// Firing cycle `Π·q̄` per slot.
    pub(crate) cycle: Vec<i64>,
    /// Dense processor id per slot.
    pub(crate) proc: Vec<u32>,
    /// Processor coordinates `S·q̄` by dense id (for violation rendering).
    pub(crate) proc_coords: Vec<IVec>,
    /// `producers[s·m + i]`: slot of the producer along column `i`, or
    /// [`NO_SLOT`] when the dependence is inactive at `s` (boundary input).
    pub(crate) producers: Vec<u32>,
    /// Bit `i` set ⟺ column `i` is consumed (active) at this slot.
    pub(crate) consume_mask: Vec<u64>,
    /// Bit `i` set ⟺ a token launches from this slot along column `i`.
    pub(crate) launch_mask: Vec<u64>,
    /// Per-column hop count under the clocked-engine budget (`Π·d̄` clamped
    /// to ≥ 0), `None` when unroutable — mirrors `run_clocked`'s pre-route.
    pub(crate) clocked_hops: Vec<Option<i64>>,
    /// Per-column link usage of the clocked route (for trace emission).
    pub(crate) clocked_usage: Vec<Option<IVec>>,
    /// Per-column routing `(usage, buffers, hops)` under the mapped-sim
    /// convention (`None` when `Π·d̄ ≤ 0`) — mirrors `simulate_mapped`'s
    /// pre-route.
    pub(crate) mapped_routes: Vec<Option<(IVec, i64, i64)>>,
    /// Per-column schedule budget `Π·d̄`.
    pub(crate) budgets: Vec<i64>,
    /// Per-column count of exercised dependence instances.
    pub(crate) active_count: Vec<u64>,
    /// Distinct firing cycles, ascending.
    pub(crate) cycle_values: Vec<i64>,
    /// CSR offsets: cycle `cycle_values[k]` fires
    /// `fire_order[cycle_offsets[k] .. cycle_offsets[k+1]]`.
    pub(crate) cycle_offsets: Vec<usize>,
    /// Slots sorted by (cycle, slot) — the interpreted engine's firing order.
    pub(crate) fire_order: Vec<u32>,
    /// Number of interconnect primitives (columns of `P`).
    pub(crate) n_links: usize,
    /// Every exercised column has `Π·d̄ > 0`: same-cycle points are
    /// independent, which the differential walk and the LSGP cost model
    /// rely on.
    pub(crate) causal: bool,
    /// The faultless untraced bookkeeping, empty until the first walk that
    /// needs it.
    pub(crate) bookkeeping: BookkeepingMemo,
}

impl CompiledSchedule {
    /// Compiles the schedule in one pass over `J` in slot order: cycle and
    /// processor per slot, each producer at its closed-form slot
    /// `s − ⟨d̄, strides⟩` (see [`BoxSet::try_strides`]), and each launch bit
    /// set at the producer of a consumed token. Every dependence column is
    /// routed once, and the CSR fire list is built last.
    ///
    /// [`BoxSet::try_strides`]: bitlevel_ir::BoxSet::try_strides
    ///
    /// # Panics
    /// Panics on dimension mismatches, on more than 64 dependence columns,
    /// or if `|J|` exceeds the dense `u32` slot space — use
    /// [`CompiledSchedule::try_compile`] where the caller wants to fall back
    /// to the interpreted engines instead.
    pub fn compile(alg: &AlgorithmTriplet, t: &MappingMatrix, ic: &Interconnect) -> Self {
        match Self::try_compile(alg, t, ic) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Checked variant of [`CompiledSchedule::compile`]: rejects algorithms
    /// the dense-slot representation cannot hold (more than 64 dependence
    /// columns, `|J| ≥ 2³²`) **before** allocating anything, so callers can
    /// degrade to the interpreted engines.
    ///
    /// # Panics
    /// Still panics on mapping/algorithm dimension mismatches — those are
    /// caller bugs, not input-size limits.
    pub fn try_compile(
        alg: &AlgorithmTriplet,
        t: &MappingMatrix,
        ic: &Interconnect,
    ) -> Result<Self, CompileError> {
        assert_eq!(t.n(), alg.dim(), "mapping/algorithm dimension mismatch");
        let set = &alg.index_set;
        let n = alg.dim();
        let m = alg.deps.len();
        if m > 64 {
            return Err(CompileError::TooManyColumns { m });
        }
        let card = set.cardinality();
        if card >= NO_SLOT as u128 {
            return Err(CompileError::IndexSetTooLarge { cardinality: card });
        }
        let n_points = card as usize;

        let budgets: Vec<i64> = alg.deps.iter().map(|d| d.vector.dot(&t.schedule)).collect();
        // One route solve per column, under the clocked engine's budget
        // `max(Π·d̄, 0)`. The mapped simulator routes only columns with
        // `Π·d̄ > 0`, where the two budgets agree.
        let routes: Vec<Option<Routing>> = alg
            .deps
            .iter()
            .zip(&budgets)
            .map(|(d, &b)| ic.route(&t.space.matvec(&d.vector), b.max(0)))
            .collect();
        let clocked_hops: Vec<Option<i64>> =
            routes.iter().map(|r| r.as_ref().map(|r| r.hops)).collect();
        let mapped_routes: Vec<Option<(IVec, i64, i64)>> = routes
            .iter()
            .zip(&budgets)
            .map(|(r, &b)| {
                r.as_ref()
                    .filter(|_| b > 0)
                    .map(|r| (r.usage.clone(), r.buffers, r.hops))
            })
            .collect();
        let clocked_usage: Vec<Option<IVec>> =
            routes.into_iter().map(|r| r.map(|r| r.usage)).collect();

        // `sourced[a][qₐ − lₐ]`: the columns whose source `q̄ − d̄` lies
        // inside J along axis `a`, decided in i128 so no `d̄` overflows, and
        // whose validity holds there when it is a single conjunction of
        // per-axis atoms. A validity of several clauses is evaluated at each
        // point instead (`evaluated`). Where every axis agrees, the source is
        // `⟨d̄, strides⟩` slots before `q̄`; that offset is kept mod 2⁶⁴,
        // exact wherever it is used.
        let (lower, upper) = (set.lower(), set.upper());
        let strides = set.try_strides().expect("|J| < 2³² fits usize");
        let mut sourced: Vec<Vec<u64>> = (0..n)
            .map(|a| vec![0u64; set.extent(a) as usize + 1])
            .collect();
        let mut evaluated = 0u64;
        let mut offsets = vec![0usize; m];
        for (i, d) in alg.deps.iter().enumerate() {
            let conjunction: &[Atom] = match d.validity.clauses() {
                [] => continue,
                [clause] => clause,
                _ => {
                    evaluated |= 1u64 << i;
                    &[]
                }
            };
            for (a, row) in sourced.iter_mut().enumerate() {
                let (l, u, da) = (lower[a] as i128, upper[a] as i128, d.vector[a] as i128);
                for v in l.max(l + da)..=u.min(u + da) {
                    let holds = |atom: &Atom| atom.axis != a || atom.holds_at(v as i64, set);
                    if conjunction.iter().all(holds) {
                        row[(v - l) as usize] |= 1u64 << i;
                    }
                }
                offsets[i] =
                    offsets[i].wrapping_add((d.vector[a] as usize).wrapping_mul(strides[a]));
            }
        }
        // A 0-dimensional box has no tables: its one point sources every column.
        let columns = u64::MAX.checked_shr(64 - m as u32).unwrap_or(0);

        // `S·q̄` reads only the axes where `S` has a nonzero column, so a
        // processor id is memoised per digit tuple of those axes (a table of
        // at most |J| entries) and each place is computed and hashed once
        // per tuple, not once per point. Ids still number places in order of
        // first appearance, since a place first appears on a memo miss.
        let mut memo_strides = vec![0usize; n];
        let mut memo_len = 1usize;
        for a in (0..n).rev() {
            if (0..t.space.rows()).any(|r| t.space[(r, a)] != 0) {
                memo_strides[a] = memo_len;
                memo_len *= set.extent(a) as usize + 1;
            }
        }
        let mut memo = vec![NO_SLOT; memo_len];
        let mut proc_ids: HashMap<Vec<i64>, u32> = HashMap::with_capacity(memo_len);

        let mut points = Vec::with_capacity(n_points * n);
        let mut cycle = Vec::with_capacity(n_points);
        let mut proc = Vec::with_capacity(n_points);
        let mut producers = vec![NO_SLOT; n_points * m];
        let mut consume_mask = vec![0u64; n_points];
        let mut launch_mask = vec![0u64; n_points];
        let mut active_count = vec![0u64; m];

        // One pass in `iter_points` order over a single coordinate buffer
        // `q̄` and its digits `q̄ − l̄`.
        let mut q = lower.clone();
        let mut digits = vec![0usize; n];
        for s in 0..n_points {
            points.extend_from_slice(q.as_slice());
            cycle.push(q.dot(&t.schedule));
            let key: usize = digits.iter().zip(&memo_strides).map(|(d, w)| d * w).sum();
            if memo[key] == NO_SLOT {
                let place = (0..t.space.rows()).map(|r| q.dot_slice(t.space.row(r)));
                let next = proc_ids.len() as u32;
                memo[key] = *proc_ids.entry(place.collect()).or_insert(next);
            }
            proc.push(memo[key]);

            // A column is consumed at `q̄` iff its source lies in J and its
            // validity holds at `q̄` (`Dependence::active_at`). Its token
            // leaves the source along the same column, so the source's
            // launch bit is exactly this consume bit seen from the other end.
            let mut sourced_here = digits
                .iter()
                .zip(&sourced)
                .fold(columns, |acc, (&d, row)| acc & row[d]);
            while sourced_here != 0 {
                let i = sourced_here.trailing_zeros() as usize;
                sourced_here &= sourced_here - 1;
                if evaluated & (1u64 << i) != 0 && !alg.deps.get(i).validity.eval(&q, set) {
                    continue;
                }
                consume_mask[s] |= 1u64 << i;
                active_count[i] += 1;
                let src = s.wrapping_sub(offsets[i]);
                producers[s * m + i] = src as u32;
                launch_mask[src] |= 1u64 << i;
            }

            // Step `q̄` to its lexicographic successor.
            for a in (0..n).rev() {
                if q[a] < upper[a] {
                    q[a] += 1;
                    digits[a] += 1;
                    break;
                }
                q[a] = lower[a];
                digits[a] = 0;
            }
        }

        let mut proc_coords = vec![IVec(Vec::new()); proc_ids.len()];
        for (place, id) in proc_ids {
            proc_coords[id as usize] = IVec(place);
        }

        // CSR fire list: stable sort by cycle keeps lexicographic slot order
        // within each cycle — exactly the interpreted engine's firing order.
        let mut fire_order: Vec<u32> = (0..n_points as u32).collect();
        fire_order.sort_by_key(|&s| cycle[s as usize]);
        let mut cycle_values: Vec<i64> = Vec::new();
        let mut cycle_offsets: Vec<usize> = Vec::new();
        for (k, &s) in fire_order.iter().enumerate() {
            let c = cycle[s as usize];
            if cycle_values.last() != Some(&c) {
                cycle_values.push(c);
                cycle_offsets.push(k);
            }
        }
        cycle_offsets.push(n_points);

        let causal = (0..m).all(|i| active_count[i] == 0 || budgets[i] > 0);

        Ok(CompiledSchedule {
            n,
            m,
            n_points,
            points,
            cycle,
            proc,
            proc_coords,
            producers,
            consume_mask,
            launch_mask,
            clocked_hops,
            clocked_usage,
            mapped_routes,
            budgets,
            active_count,
            cycle_values,
            cycle_offsets,
            fire_order,
            n_links: ic.count(),
            causal,
            bookkeeping: BookkeepingMemo::default(),
        })
    }

    /// Number of index points (= dense slots).
    pub fn n_points(&self) -> usize {
        self.n_points
    }

    /// Number of distinct firing cycles.
    pub fn n_cycles(&self) -> usize {
        self.cycle_values.len()
    }

    /// Number of distinct processors.
    pub fn n_processors(&self) -> usize {
        self.proc_coords.len()
    }

    /// The coordinates of the point in slot `s`, the rank-`s` point of the
    /// index set's `iter_points` order.
    ///
    /// # Panics
    /// Panics if `s >= n_points()`.
    pub fn slot_point(&self, s: usize) -> &[i64] {
        &self.points[s * self.n..(s + 1) * self.n]
    }

    /// The firing cycle `Π·q̄` of slot `s`.
    ///
    /// # Panics
    /// Panics if `s >= n_points()`.
    pub fn slot_cycle(&self, s: usize) -> i64 {
        self.cycle[s]
    }

    /// The dense id of the processor `S·q̄` that fires slot `s`. Ids number
    /// the processors in order of first appearance in slot order.
    ///
    /// # Panics
    /// Panics if `s >= n_points()`.
    pub fn slot_processor(&self, s: usize) -> usize {
        self.proc[s] as usize
    }

    /// The coordinates of the processor with dense id `id`.
    ///
    /// # Panics
    /// Panics if `id >= n_processors()`.
    pub fn processor(&self, id: usize) -> &IVec {
        &self.proc_coords[id]
    }

    /// True iff every exercised dependence column has `Π·d̄ > 0`, i.e. the
    /// points of one cycle are independent of each other.
    pub fn is_causal(&self) -> bool {
        self.causal
    }

    /// Reconstructs the index point of slot `s`.
    pub(crate) fn point(&self, s: usize) -> IVec {
        debug_assert!(s < self.n_points, "slot {s} out of bounds");
        IVec(self.points[s * self.n..(s + 1) * self.n].to_vec())
    }

    /// Reconstructs the index point of slot `s` into a reused buffer.
    #[inline]
    pub(crate) fn point_into(&self, s: usize, out: &mut IVec) {
        debug_assert!(s < self.n_points, "slot {s} out of bounds");
        out.0.clear();
        out.0
            .extend_from_slice(&self.points[s * self.n..(s + 1) * self.n]);
    }

    /// Gathers the consumer's input row for slot `s` into the scratch buffer
    /// (point + per-column tokens, without allocating) and computes the
    /// slot against the current arena. Under a live injector, transfer
    /// faults apply at gather (a drop reads as a boundary input, a duplicate
    /// re-reads the previous token of the edge class — unless the real token
    /// is missing, which dominates) and output faults mutate the bundle
    /// before it settles into the arena. Fault *events* are reconstructed
    /// later in the bookkeeping pass; descriptions returned here are
    /// discarded. With [`NoFaults`] every fault branch compiles away.
    #[inline]
    fn compute_slot<S: SyncCellSemantics, F: FaultInjector<S::Bundle>>(
        &self,
        semantics: &S,
        s: usize,
        arena: &[Option<S::Bundle>],
        faults: &F,
        scratch: &mut SlotScratch<S::Bundle>,
    ) -> S::Bundle {
        self.point_into(s, &mut scratch.point);
        scratch.inputs.clear();
        let mask = self.consume_mask[s];
        for i in 0..self.m {
            if mask & (1u64 << i) == 0 {
                scratch.inputs.push(None);
                continue;
            }
            let src = self.producers[s * self.m + i] as usize;
            debug_assert!(src < arena.len(), "producer slot {src} out of bounds");
            let tf = if F::ENABLED {
                faults.on_transfer(self.cycle[s], &scratch.point, i)
            } else {
                TransferFault::None
            };
            // In a causal run `arena[src]` is always `Some`; in the
            // sequential fallback a not-yet-fired producer reads as a
            // boundary input, exactly like the interpreted engine's map miss.
            scratch.inputs.push(match tf {
                TransferFault::Drop => None,
                TransferFault::Duplicate if arena[src].is_some() => {
                    let stale = self.producers[src * self.m + i];
                    if stale == NO_SLOT {
                        None
                    } else {
                        arena[stale as usize].clone()
                    }
                }
                _ => arena[src].clone(),
            });
        }
        let mut bundle = semantics.compute(&scratch.point, &scratch.inputs);
        if F::ENABLED {
            let _ = faults.on_output(
                self.cycle[s],
                &scratch.point,
                &self.proc_coords[self.proc[s] as usize],
                &mut bundle,
            );
        }
        bundle
    }

    /// Executes the compiled schedule with value-carrying tokens, producing a
    /// [`ClockedRun`] bit-identical to [`crate::clocked::run_clocked`] —
    /// outputs, violations (same order), cycle count and `peak_in_flight`.
    pub fn execute<S: SyncCellSemantics>(&self, semantics: &S) -> ClockedRun<S::Bundle> {
        self.execute_traced(semantics, &mut NullSink)
    }

    /// [`CompiledSchedule::execute`] with a [`TraceSink`]. Events are
    /// reconstructed by the bookkeeping pass after the value phase, and the
    /// emitted stream is **identical**
    /// to [`crate::clocked::run_clocked_traced`]'s on the same inputs. With
    /// [`NullSink`] the guards compile away and this *is* `execute`.
    pub fn execute_traced<S: SyncCellSemantics, K: TraceSink>(
        &self,
        semantics: &S,
        sink: &mut K,
    ) -> ClockedRun<S::Bundle> {
        self.execute_faulted(semantics, sink, &NoFaults)
    }

    /// [`CompiledSchedule::execute_traced`] with a [`FaultInjector`] — the
    /// compiled counterpart of [`crate::clocked::run_clocked_faulted`],
    /// bit-identical to it under the same injector: faulted gathers see
    /// arena mutations in the interpreted engine's order. [`NoFaults`]
    /// compiles every fault branch away, making this *is* `execute_traced`.
    pub fn execute_faulted<S, K, F>(
        &self,
        semantics: &S,
        sink: &mut K,
        faults: &F,
    ) -> ClockedRun<S::Bundle>
    where
        S: SyncCellSemantics,
        K: TraceSink,
        F: FaultInjector<S::Bundle>,
    {
        self.walk(semantics, sink, faults).into_clocked()
    }

    /// The index set's dense slot addressing: slot 0 and the last slot hold
    /// the box's lower and upper corners.
    fn slots(&self) -> Slots {
        let corner = |s: usize| IVec(self.points[s * self.n..(s + 1) * self.n].to_vec());
        Slots::new(BoxSet::new(corner(0), corner(self.n_points - 1)))
    }

    /// The value-carrying schedule walk behind every compiled entry point,
    /// scalar and lane-packed (through [`Wordwise`]). A value phase computes
    /// every slot in fire order, and then
    /// [`CompiledSchedule::bookkeeping_pass`] replays that order for
    /// violations, in-flight peaks and every trace event. A faultless
    /// untraced walk skips that pass: it reads the result the first such
    /// walk stored on the schedule.
    ///
    /// The run comes back dense, its outputs in slot order, one lane wide;
    /// [`BatchRun::into_clocked`] keys it by point for the scalar entry
    /// points.
    pub(crate) fn walk<S, K, F>(
        &self,
        semantics: &S,
        sink: &mut K,
        faults: &F,
    ) -> BatchRun<S::Bundle>
    where
        S: SyncCellSemantics,
        K: TraceSink,
        F: FaultInjector<S::Bundle>,
    {
        let mut arena: Vec<Option<S::Bundle>> = vec![None; self.n_points];
        let mut scratch: SlotScratch<S::Bundle> = SlotScratch::default();

        // Value phase, in the interpreted engine's order. In a causal
        // schedule every producer fired in an earlier cycle; otherwise a
        // same-cycle producer earlier in slot order is *visible* and later
        // ones read as boundary inputs — bit-identical to the HashMap
        // engine. A live injector's gathers observe arena mutations in
        // the same order.
        for &s in &self.fire_order {
            let bundle = self.compute_slot(semantics, s as usize, &arena, faults, &mut scratch);
            arena[s as usize] = Some(bundle);
        }

        // With no sink to feed and no injector to consult, the pass depends
        // on the schedule alone.
        let Bookkeeping {
            violations,
            peak_in_flight,
        } = if K::ENABLED || F::ENABLED {
            self.bookkeeping_pass(&arena, sink, faults)
        } else {
            self.bookkeeping
                .0
                .get_or_init(|| self.bookkeeping_pass(&arena, &mut NullSink, &NoFaults))
                .clone()
        };
        let cycles = match (self.cycle_values.first(), self.cycle_values.last()) {
            (Some(a), Some(b)) => b - a + 1,
            _ => 0,
        };
        let outputs = arena
            .into_iter()
            .map(|bundle| bundle.expect("every slot fires exactly once"))
            .collect();
        BatchRun::new(cycles, outputs, violations, peak_in_flight, self.slots())
    }

    /// Emits the per-column route / unroutable prologue events of the
    /// value walk. A no-op with [`NullSink`].
    fn emit_clocked_route_events<K: TraceSink>(&self, sink: &mut K) {
        if !K::ENABLED {
            return;
        }
        for (i, (hops, usage)) in self
            .clocked_hops
            .iter()
            .zip(&self.clocked_usage)
            .enumerate()
        {
            match (hops, usage) {
                (Some(h), Some(u)) => sink.record(TraceEvent::ColumnRoute {
                    column: i,
                    hops: *h,
                    usage: u.clone(),
                }),
                _ => sink.record(TraceEvent::ColumnUnroutable { column: i }),
            }
        }
    }

    /// The bookkeeping pass of the value walk: the route prologue, then the
    /// original fire order with the interpreted engine's exact mutation
    /// sequence on violations and in-flight counters, emitting every event
    /// of the walk. It reads a token only to re-derive output-fault
    /// descriptions under a live sink and injector, which the injector
    /// contract makes a pure function of `(cycle, point, processor)`. Each
    /// slot is written once, so the pass may follow the whole value phase,
    /// and it is agnostic to whether tokens are scalar bundles or
    /// lane-packed words.
    fn bookkeeping_pass<B, K, F>(
        &self,
        arena: &[Option<B>],
        sink: &mut K,
        faults: &F,
    ) -> Bookkeeping
    where
        B: Clone + std::fmt::Debug,
        K: TraceSink,
        F: FaultInjector<B>,
    {
        self.emit_clocked_route_events(sink);
        let mut violations = Vec::new();
        let mut in_flight = vec![0u64; self.m];
        let mut peak_in_flight = vec![0u64; self.m];
        // Per-cycle duplicate-fire scratch over dense processor ids.
        let mut fired = vec![false; self.proc_coords.len()];
        let mut violate = |sink: &mut K, c: i64, v: ClockedViolation| {
            if K::ENABLED {
                sink.record(TraceEvent::Violation {
                    cycle: c,
                    description: v.to_string(),
                });
            }
            violations.push(v);
        };

        for k in 0..self.cycle_values.len() {
            let c = self.cycle_values[k];
            let slice = &self.fire_order[self.cycle_offsets[k]..self.cycle_offsets[k + 1]];
            for &s in slice {
                let s = s as usize;
                let id = self.proc[s] as usize;
                if K::ENABLED {
                    sink.record(TraceEvent::PointFired {
                        cycle: c,
                        point: self.point(s),
                        processor: self.proc_coords[id].clone(),
                    });
                }
                if fired[id] {
                    let v = ClockedViolation::ProcessorConflict {
                        processor: self.proc_coords[id].to_string(),
                        cycle: c,
                    };
                    violate(sink, c, v);
                }
                fired[id] = true;

                let mask = self.consume_mask[s];
                for (i, fl) in in_flight.iter_mut().enumerate().take(self.m) {
                    if mask & (1u64 << i) == 0 {
                        continue;
                    }
                    let tf = if F::ENABLED {
                        faults.on_transfer(c, &self.point(s), i)
                    } else {
                        TransferFault::None
                    };
                    if tf == TransferFault::Drop {
                        if K::ENABLED {
                            sink.record(TraceEvent::FaultInjected {
                                cycle: c,
                                point: self.point(s),
                                processor: self.proc_coords[id].clone(),
                                column: Some(i),
                                kind: "dropped_transfer".into(),
                            });
                        }
                        continue;
                    }
                    let src = self.producers[s * self.m + i] as usize;
                    let src_time = self.cycle[src];
                    let consumer = || self.point(s).to_string();
                    if src_time > c || (src_time == c && src > s) {
                        // The producer had not fired when the interpreted
                        // engine gathered here (later cycle, or same cycle
                        // but later in slot order): a missing token.
                        let v = ClockedViolation::MissingToken {
                            consumer: consumer(),
                            column: i,
                        };
                        violate(sink, c, v);
                        continue;
                    }
                    if src_time >= c {
                        let v = ClockedViolation::CausalityOrder {
                            consumer: consumer(),
                            column: i,
                        };
                        violate(sink, c, v);
                    }
                    let budget = c - src_time;
                    match self.clocked_hops[i] {
                        Some(h) if h <= budget => {}
                        hops => {
                            let v = ClockedViolation::RouteTooSlow {
                                consumer: consumer(),
                                column: i,
                                hops: hops.unwrap_or(-1),
                                budget,
                            };
                            violate(sink, c, v);
                        }
                    }
                    if K::ENABLED {
                        sink.record(TraceEvent::TokenConsumed {
                            cycle: c,
                            column: i,
                            at: self.point(s),
                            slack: budget,
                        });
                    }
                    *fl = fl.saturating_sub(1);
                    if F::ENABLED && tf == TransferFault::Duplicate && K::ENABLED {
                        sink.record(TraceEvent::FaultInjected {
                            cycle: c,
                            point: self.point(s),
                            processor: self.proc_coords[id].clone(),
                            column: Some(i),
                            kind: "duplicated_transfer".into(),
                        });
                    }
                }
                if F::ENABLED && K::ENABLED {
                    // Re-derive the output-fault descriptions for event
                    // emission on a scratch clone, so the arena value stays
                    // untouched.
                    let mut scratch = arena[s].clone().expect("every slot fires exactly once");
                    let q = self.point(s);
                    for kind in faults.on_output(c, &q, &self.proc_coords[id], &mut scratch) {
                        sink.record(TraceEvent::FaultInjected {
                            cycle: c,
                            point: q.clone(),
                            processor: self.proc_coords[id].clone(),
                            column: None,
                            kind,
                        });
                    }
                }
                let launches = self.launch_mask[s];
                for i in 0..self.m {
                    if launches & (1u64 << i) != 0 {
                        in_flight[i] += 1;
                        peak_in_flight[i] = peak_in_flight[i].max(in_flight[i]);
                        if K::ENABLED {
                            sink.record(TraceEvent::TokenLaunched {
                                cycle: c,
                                column: i,
                                from: self.point(s),
                            });
                            sink.record(TraceEvent::BufferOccupancy {
                                cycle: c,
                                column: i,
                                in_flight: in_flight[i],
                            });
                        }
                    }
                }
            }
            for &s in slice {
                fired[self.proc[s as usize] as usize] = false;
            }
        }
        Bookkeeping {
            violations,
            peak_in_flight,
        }
    }

    /// Executes the compiled schedule with **lane-packed** tokens: every
    /// signal slot holds one machine word whose bit `i` belongs to problem
    /// instance `i`, so one walk of the slot/CSR machinery simulates up to
    /// [`crate::batch::MAX_LANES`] independent instances at once.
    ///
    /// Violations, cycle count and `peak_in_flight` are *schedule*
    /// properties — independent of token values, hence identical in every
    /// lane — so the returned [`BatchRun`] carries them once for the whole
    /// batch; [`BatchRun::extract_lane_run`] rebuilds per-instance
    /// [`ClockedRun`]s bit-identical to a scalar
    /// [`CompiledSchedule::execute`] of that lane.
    pub fn execute_batch<L: LaneCellSemantics>(&self, lanes: &L) -> BatchRun<L::Packed> {
        self.execute_batch_traced(lanes, &mut NullSink)
    }

    /// [`CompiledSchedule::execute_batch`] with a [`TraceSink`] observing
    /// the (lane-shared) schedule walk: routes, fires, token movements and
    /// violations — the same stream as [`CompiledSchedule::execute_traced`],
    /// since none of those events depend on token values.
    pub fn execute_batch_traced<L, K>(&self, lanes: &L, sink: &mut K) -> BatchRun<L::Packed>
    where
        L: LaneCellSemantics,
        K: TraceSink,
    {
        // The scalar walk on `Wordwise` words, whose schedule-wide results
        // hold for every lane.
        let mut run = self.walk(&Wordwise(lanes), sink, &NoFaults);
        run.lanes = lanes.lanes();
        run
    }

    /// The clean lane-packed run of `cells`, kept so that faulted runs of
    /// the same cells re-fire only the slots their faults disturb (see
    /// [`GoldenBatch::faulted`]).
    pub fn golden_batch<'a, L: LaneCellSemantics>(&'a self, cells: &'a L) -> GoldenBatch<'a, L> {
        GoldenBatch::new(self, cells)
    }

    /// The timing-structure report over the dense slots — same numbers as
    /// [`crate::mapped::simulate_mapped`], without re-walking `HashMap`s:
    /// conflicts from per-cycle processor-id scans, causality and traffic
    /// from the per-column routes and active-instance counts.
    pub fn mapped_report(&self) -> MappedRunReport {
        self.mapped_report_traced(&mut NullSink)
    }

    /// [`CompiledSchedule::mapped_report`] with a [`TraceSink`]. Emits the
    /// same rollup counters as [`crate::mapped::simulate_mapped_traced`]
    /// (fires, wavefront, per-PE loads, violation counts); events come out
    /// cycle-major rather than in lexicographic point order.
    pub fn mapped_report_traced<K: TraceSink>(&self, sink: &mut K) -> MappedRunReport {
        self.mapped_report_faulted(sink, &NoFaults)
    }

    /// [`CompiledSchedule::mapped_report_traced`] with a [`FaultInjector`]
    /// (over the unit bundle, like
    /// [`crate::mapped::simulate_mapped_faulted`], whose report this matches
    /// bit for bit). One cycle-major pass counts fires, conflicts and busy
    /// PEs and emits the events. Transfers per column are counted point by
    /// point only under a live injector — dead PEs, drops and duplicates
    /// make the instances of one column differ — and are the compiled
    /// active-instance counts otherwise, so an untraced faultless report
    /// never visits a point's columns. Traffic, buffer cycles and causality
    /// then follow per column: `link_traffic = Σ_i usage_i · transfers_i`.
    pub fn mapped_report_faulted<K: TraceSink, F: FaultInjector<()>>(
        &self,
        sink: &mut K,
        faults: &F,
    ) -> MappedRunReport {
        if K::ENABLED {
            for (i, r) in self.mapped_routes.iter().enumerate() {
                match r {
                    Some((usage, _buffers, hops)) => sink.record(TraceEvent::ColumnRoute {
                        column: i,
                        hops: *hops,
                        usage: usage.clone(),
                    }),
                    None => sink.record(TraceEvent::ColumnUnroutable { column: i }),
                }
            }
        }
        let dead_pes: Vec<bool> = if F::ENABLED {
            self.proc_coords
                .iter()
                .map(|place| faults.pe_dead(place))
                .collect()
        } else {
            Vec::new()
        };
        let mut transfers = if F::ENABLED {
            vec![0u64; self.m]
        } else {
            self.active_count.clone()
        };
        let mut conflict_free = true;
        let mut peak_parallelism = 0usize;
        let mut computations = 0u64;
        let mut seen = vec![false; self.proc_coords.len()];
        for k in 0..self.cycle_values.len() {
            let c = self.cycle_values[k];
            let slice = &self.fire_order[self.cycle_offsets[k]..self.cycle_offsets[k + 1]];
            let mut busy = 0usize;
            for &s in slice {
                let s = s as usize;
                let id = self.proc[s] as usize;
                let dead = F::ENABLED && dead_pes[id];
                if K::ENABLED {
                    sink.record(TraceEvent::PointFired {
                        cycle: c,
                        point: self.point(s),
                        processor: self.proc_coords[id].clone(),
                    });
                    if dead {
                        sink.record(TraceEvent::FaultInjected {
                            cycle: c,
                            point: self.point(s),
                            processor: self.proc_coords[id].clone(),
                            column: None,
                            kind: "dead_pe".into(),
                        });
                    }
                }
                if !dead {
                    busy += 1;
                }
                if seen[id] {
                    conflict_free = false;
                    if K::ENABLED {
                        let v = ClockedViolation::ProcessorConflict {
                            processor: self.proc_coords[id].to_string(),
                            cycle: c,
                        };
                        sink.record(TraceEvent::Violation {
                            cycle: c,
                            description: v.to_string(),
                        });
                    }
                }
                seen[id] = true;
                if dead || !(F::ENABLED || K::ENABLED) {
                    continue;
                }
                let mask = self.consume_mask[s];
                for (i, route) in self.mapped_routes.iter().enumerate() {
                    if mask & (1u64 << i) == 0 {
                        continue;
                    }
                    let tf = if F::ENABLED {
                        faults.on_transfer(c, &self.point(s), i)
                    } else {
                        TransferFault::None
                    };
                    if F::ENABLED && tf != TransferFault::Drop {
                        transfers[i] += if tf == TransferFault::Duplicate { 2 } else { 1 };
                    }
                    if !K::ENABLED {
                        continue;
                    }
                    let fault = match (tf, route) {
                        (TransferFault::Drop, _) => Some("dropped_transfer"),
                        (TransferFault::Duplicate, Some(_)) => Some("duplicated_transfer"),
                        _ => None,
                    };
                    if let Some(kind) = fault {
                        sink.record(TraceEvent::FaultInjected {
                            cycle: c,
                            point: self.point(s),
                            processor: self.proc_coords[id].clone(),
                            column: Some(i),
                            kind: kind.into(),
                        });
                    } else if route.is_none() {
                        let v = ClockedViolation::RouteTooSlow {
                            consumer: self.point(s).to_string(),
                            column: i,
                            hops: -1,
                            budget: self.budgets[i],
                        };
                        sink.record(TraceEvent::Violation {
                            cycle: c,
                            description: v.to_string(),
                        });
                    }
                }
            }
            computations += busy as u64;
            peak_parallelism = peak_parallelism.max(busy);
            for &s in slice {
                seen[self.proc[s as usize] as usize] = false;
            }
        }

        let mut causality_ok = true;
        let mut link_traffic = vec![0u64; self.n_links];
        let mut buffer_cycles = 0u64;
        for (route, &n) in self.mapped_routes.iter().zip(&transfers) {
            if n == 0 {
                continue;
            }
            match route {
                Some((usage, buffers, _hops)) => {
                    for (j, &cnt) in usage.iter().enumerate() {
                        link_traffic[j] += cnt as u64 * n;
                    }
                    buffer_cycles += *buffers as u64 * n;
                }
                None => causality_ok = false,
            }
        }

        let cycles = match (self.cycle_values.first(), self.cycle_values.last()) {
            (Some(a), Some(b)) if computations > 0 => b - a + 1,
            _ => 0,
        };
        let processors = self.proc_coords.len();
        let utilization = if cycles > 0 && processors > 0 {
            computations as f64 / (processors as f64 * cycles as f64)
        } else {
            0.0
        };
        MappedRunReport {
            cycles,
            processors,
            computations: computations as u128,
            conflict_free,
            causality_ok,
            utilization,
            peak_parallelism,
            link_traffic,
            buffer_cycles,
        }
    }
}

/// Compiles and executes in one call — the drop-in counterpart of
/// [`crate::clocked::run_clocked`] for pure cell semantics. For repeated runs
/// of one architecture, build the [`CompiledSchedule`] once and call
/// [`CompiledSchedule::execute`] per workload.
pub fn run_clocked_compiled<S: SyncCellSemantics>(
    alg: &AlgorithmTriplet,
    t: &MappingMatrix,
    ic: &Interconnect,
    semantics: &S,
) -> ClockedRun<S::Bundle> {
    CompiledSchedule::compile(alg, t, ic).execute(semantics)
}

/// Compiled counterpart of [`crate::mapped::simulate_mapped`]: identical
/// report, computed from the dense-slot schedule.
pub fn simulate_mapped_compiled(
    alg: &AlgorithmTriplet,
    t: &MappingMatrix,
    ic: &Interconnect,
) -> MappedRunReport {
    CompiledSchedule::compile(alg, t, ic).mapped_report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clocked::{run_clocked, MatmulExpansionIICells, MatmulSignals};
    use crate::mapped::simulate_mapped;
    use bitlevel_ir::{BoxSet, Cmp, Dependence, DependenceSet, Predicate, Rhs};
    use bitlevel_linalg::IMat;
    use bitlevel_mapping::PaperDesign;

    fn matmul_structure(u: i64, p: i64) -> AlgorithmTriplet {
        let j = BoxSet::cube(3, 1, u).product(&BoxSet::cube(2, 1, p));
        AlgorithmTriplet::new(
            j,
            DependenceSet::new(vec![
                Dependence::conditional([0, 1, 0, 0, 0], "x", Predicate::eq_const(3, 1)),
                Dependence::conditional([1, 0, 0, 0, 0], "y", Predicate::eq_const(4, 1)),
                Dependence::conditional(
                    [0, 0, 1, 0, 0],
                    "z",
                    Predicate::eq_const(3, p).or(&Predicate::eq_const(4, 1)),
                ),
                Dependence::conditional([0, 0, 0, 1, 0], "x", Predicate::ne_const(3, 1)),
                Dependence::conditional([0, 0, 0, 0, 1], "y,c", Predicate::ne_const(4, 1)),
                Dependence::uniform([0, 0, 0, 1, -1], "z"),
                Dependence::conditional([0, 0, 0, 0, 2], "c'", Predicate::eq_const(3, p)),
            ]),
            "bit-level matmul, Expansion II (composed order)",
        )
    }

    fn mats(u: usize, p: usize) -> (Vec<Vec<u128>>, Vec<Vec<u128>>) {
        let m = crate::BitMatmulArray::new(u, p).max_safe_entry();
        let x = (0..u)
            .map(|i| {
                (0..u)
                    .map(|j| ((3 * i + 5 * j + 1) as u128) % (m + 1))
                    .collect()
            })
            .collect();
        let y = (0..u)
            .map(|i| {
                (0..u)
                    .map(|j| ((7 * i + j + 2) as u128) % (m + 1))
                    .collect()
            })
            .collect();
        (x, y)
    }

    fn assert_runs_identical(a: &ClockedRun<MatmulSignals>, b: &ClockedRun<MatmulSignals>) {
        assert_eq!(a.cycles, b.cycles, "cycle counts differ");
        assert_eq!(a.violations, b.violations, "violation streams differ");
        assert_eq!(a.peak_in_flight, b.peak_in_flight, "in-flight peaks differ");
        assert_eq!(a.outputs, b.outputs, "output bundles differ");
    }

    fn assert_reports_identical(a: &MappedRunReport, b: &MappedRunReport) {
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.processors, b.processors);
        assert_eq!(a.computations, b.computations);
        assert_eq!(a.conflict_free, b.conflict_free);
        assert_eq!(a.causality_ok, b.causality_ok);
        assert_eq!(a.peak_parallelism, b.peak_parallelism);
        assert_eq!(a.link_traffic, b.link_traffic);
        assert_eq!(a.buffer_cycles, b.buffer_cycles);
        assert!((a.utilization - b.utilization).abs() < 1e-12);
    }

    #[test]
    fn compiled_run_is_bit_identical_on_both_paper_designs() {
        for (u, p) in [(2usize, 2usize), (3, 3), (2, 4)] {
            let alg = matmul_structure(u as i64, p as i64);
            let (x, y) = mats(u, p);
            for design in [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour] {
                let t = design.mapping(p as i64);
                let ic = design.interconnect(p as i64);
                let mut cells = MatmulExpansionIICells::new(u, p, &x, &y);
                let interpreted = run_clocked(&alg, &t, &ic, &mut cells);
                let compiled = run_clocked_compiled(&alg, &t, &ic, &cells);
                assert_runs_identical(&compiled, &interpreted);
                assert!(compiled.is_legal());
                let z = cells.extract_product(&compiled);
                for i in 0..u {
                    for j in 0..u {
                        let want: u128 = (0..u).map(|k| x[i][k] * y[k][j]).sum();
                        assert_eq!(z[i][j], want, "u={u} p={p} Z[{i}][{j}]");
                    }
                }
            }
        }
    }

    #[test]
    fn compiled_schedule_reruns_without_recompiling() {
        let (u, p) = (3usize, 3usize);
        let alg = matmul_structure(u as i64, p as i64);
        let design = PaperDesign::TimeOptimal;
        let sched = CompiledSchedule::compile(&alg, &design.mapping(3), &design.interconnect(3));
        assert!(sched.is_causal());
        assert_eq!(sched.n_points(), 27 * 9);
        assert_eq!(sched.n_processors(), 81);
        let (x, y) = mats(u, p);
        let cells = MatmulExpansionIICells::new(u, p, &x, &y);
        let first = sched.execute(&cells);
        let second = sched.execute(&cells);
        assert_runs_identical(&first, &second);
    }

    #[test]
    fn route_violations_match_interpreted_engine() {
        // Fig. 4's fast schedule on the wire-poor machine: budgets stay
        // positive (the schedule is causal) but routes miss their budgets.
        let (u, p) = (2usize, 2usize);
        let alg = matmul_structure(u as i64, p as i64);
        let t = PaperDesign::TimeOptimal.mapping(p as i64);
        let ic = PaperDesign::NearestNeighbour.interconnect(p as i64);
        let (x, y) = mats(u, p);
        let mut cells = MatmulExpansionIICells::new(u, p, &x, &y);
        let interpreted = run_clocked(&alg, &t, &ic, &mut cells);
        let compiled = run_clocked_compiled(&alg, &t, &ic, &cells);
        assert!(!compiled.is_legal());
        assert_runs_identical(&compiled, &interpreted);
    }

    #[test]
    fn processor_conflicts_match_interpreted_engine() {
        let (u, p) = (2usize, 2usize);
        let alg = matmul_structure(u as i64, p as i64);
        let t = MappingMatrix::new(
            IMat::from_rows(&[&[0, 0, 0, 0, 0], &[0, 2, 0, 0, 1]]),
            IVec::from([1, 1, 1, 2, 1]),
        );
        let ic = Interconnect::paper_p(2);
        let (x, y) = mats(u, p);
        let mut cells = MatmulExpansionIICells::new(u, p, &x, &y);
        let interpreted = run_clocked(&alg, &t, &ic, &mut cells);
        let compiled = run_clocked_compiled(&alg, &t, &ic, &cells);
        assert!(compiled
            .violations
            .iter()
            .any(|v| matches!(v, ClockedViolation::ProcessorConflict { .. })));
        assert_runs_identical(&compiled, &interpreted);
    }

    #[test]
    fn non_causal_schedule_falls_back_bit_identically() {
        // Zero out the intra-tile schedule components: d̄₄…d̄₇ get budget ≤ 0,
        // the schedule is not causal, and the dense replay must still match
        // the interpreted engine exactly (including CausalityOrder
        // violations and same-cycle-producer visibility).
        let (u, p) = (2usize, 2usize);
        let alg = matmul_structure(u as i64, p as i64);
        let t = MappingMatrix::new(
            PaperDesign::TimeOptimal.mapping(p as i64).space.clone(),
            IVec::from([1, 1, 1, 0, 0]),
        );
        let ic = PaperDesign::TimeOptimal.interconnect(p as i64);
        let sched = CompiledSchedule::compile(&alg, &t, &ic);
        assert!(!sched.is_causal());
        let (x, y) = mats(u, p);
        let mut cells = MatmulExpansionIICells::new(u, p, &x, &y);
        let interpreted = run_clocked(&alg, &t, &ic, &mut cells);
        let compiled = sched.execute(&cells);
        assert_runs_identical(&compiled, &interpreted);
    }

    #[test]
    fn mapped_report_matches_interpreted_simulator() {
        for (u, p) in [(2i64, 2i64), (3, 3), (4, 3)] {
            let alg = matmul_structure(u, p);
            for design in [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour] {
                let t = design.mapping(p);
                let ic = design.interconnect(p);
                assert_reports_identical(
                    &simulate_mapped_compiled(&alg, &t, &ic),
                    &simulate_mapped(&alg, &t, &ic),
                );
            }
        }
    }

    #[test]
    fn mapped_report_matches_on_broken_designs_too() {
        let alg = matmul_structure(2, 2);
        // Conflicting space mapping.
        let t = MappingMatrix::new(
            IMat::from_rows(&[&[0, 0, 0, 0, 0], &[0, 2, 0, 0, 1]]),
            IVec::from([1, 1, 1, 2, 1]),
        );
        assert_reports_identical(
            &simulate_mapped_compiled(&alg, &t, &Interconnect::paper_p(2)),
            &simulate_mapped(&alg, &t, &Interconnect::paper_p(2)),
        );
        // Causality-violating machine.
        let t = PaperDesign::TimeOptimal.mapping(2);
        assert_reports_identical(
            &simulate_mapped_compiled(&alg, &t, &Interconnect::paper_p_prime()),
            &simulate_mapped(&alg, &t, &Interconnect::paper_p_prime()),
        );
    }

    #[test]
    fn backend_default_is_compiled() {
        assert_eq!(SimBackend::default(), SimBackend::Compiled);
    }

    /// A 2-D structure with 65 uniform dependence columns: valid for the
    /// interpreted engines, one column too many for the bitmasks.
    fn many_column_structure() -> AlgorithmTriplet {
        let deps: Vec<Dependence> = (0..65)
            .map(|k| Dependence::uniform(IVec::from([1, 0]), &format!("c{k}")))
            .collect();
        AlgorithmTriplet::new(
            BoxSet::cube(2, 1, 3),
            DependenceSet::new(deps),
            "65 columns",
        )
    }

    #[test]
    fn try_compile_rejects_65_dependence_columns() {
        let alg = many_column_structure();
        let t = MappingMatrix::new(IMat::from_rows(&[&[1, 0], &[0, 1]]), IVec::from([1, 1]));
        let ic = Interconnect::new(IMat::from_rows(&[&[1, 0], &[0, 1]]));
        let err = CompiledSchedule::try_compile(&alg, &t, &ic).expect_err("must not compile");
        assert_eq!(err, CompileError::TooManyColumns { m: 65 });
        assert!(err.to_string().contains("at most 64 dependence columns"));
        // The interpreted engine handles the same input fine.
        let rep = simulate_mapped(&alg, &t, &ic);
        assert_eq!(rep.computations, 9);
    }

    #[test]
    fn try_compile_rejects_over_u32_index_sets_before_allocating() {
        // 256^4 = 2^32 points: one too many for dense u32 slots. try_compile
        // must reject in O(1), long before any per-point allocation.
        let alg = AlgorithmTriplet::new(
            BoxSet::cube(4, 1, 256),
            DependenceSet::new(vec![Dependence::uniform(IVec::from([1, 0, 0, 0]), "x")]),
            "over-u32 index set",
        );
        let t = MappingMatrix::new(
            IMat::from_rows(&[&[1, 0, 0, 0], &[0, 1, 0, 0]]),
            IVec::from([1, 1, 1, 1]),
        );
        let ic = Interconnect::new(IMat::from_rows(&[&[1, 0], &[0, 1]]));
        let err = CompiledSchedule::try_compile(&alg, &t, &ic).expect_err("must not compile");
        assert_eq!(
            err,
            CompileError::IndexSetTooLarge {
                cardinality: 1u128 << 32
            }
        );
        assert!(err.to_string().contains("index set too large"));
    }

    #[test]
    fn try_compile_rejects_index_sets_beyond_u128() {
        // Five axes of extent 2^32: |J| = 2^160 saturates instead of
        // wrapping to 0, so the size check still rejects it.
        let alg = AlgorithmTriplet::new(
            BoxSet::new(IVec::zeros(5), IVec(vec![(1i64 << 32) - 1; 5])),
            DependenceSet::new(vec![Dependence::uniform(IVec::from([1, 0, 0, 0, 0]), "x")]),
            "over-u128 index set",
        );
        let t = MappingMatrix::new(
            IMat::from_rows(&[&[1, 0, 0, 0, 0], &[0, 1, 0, 0, 0]]),
            IVec::from([1, 1, 1, 1, 1]),
        );
        let ic = Interconnect::new(IMat::from_rows(&[&[1, 0], &[0, 1]]));
        let err = CompiledSchedule::try_compile(&alg, &t, &ic).expect_err("must not compile");
        assert_eq!(
            err,
            CompileError::IndexSetTooLarge {
                cardinality: u128::MAX
            }
        );
    }

    #[test]
    #[should_panic(expected = "at most 64 dependence columns")]
    fn compile_still_panics_with_the_original_message() {
        let alg = many_column_structure();
        let t = MappingMatrix::new(IMat::from_rows(&[&[1, 0], &[0, 1]]), IVec::from([1, 1]));
        let ic = Interconnect::new(IMat::from_rows(&[&[1, 0], &[0, 1]]));
        let _ = CompiledSchedule::compile(&alg, &t, &ic);
    }

    #[test]
    fn traced_mapped_report_matches_interpreted_rollup() {
        use crate::mapped::simulate_mapped_traced;
        use crate::trace::RecordingSink;
        let alg = matmul_structure(3, 3);
        // A legal design and a broken one (conflicts + unroutable columns).
        let designs: Vec<(MappingMatrix, Interconnect)> = vec![
            (
                PaperDesign::TimeOptimal.mapping(3),
                PaperDesign::TimeOptimal.interconnect(3),
            ),
            (
                PaperDesign::TimeOptimal.mapping(3),
                Interconnect::paper_p_prime(),
            ),
            (
                MappingMatrix::new(
                    IMat::from_rows(&[&[0, 0, 0, 0, 0], &[0, 2, 0, 0, 1]]),
                    IVec::from([1, 1, 1, 2, 1]),
                ),
                Interconnect::paper_p(3),
            ),
        ];
        for (t, ic) in &designs {
            let mut interp = RecordingSink::new();
            let a = simulate_mapped_traced(&alg, t, ic, &mut interp);
            let mut comp = RecordingSink::new();
            let b = CompiledSchedule::compile(&alg, t, ic).mapped_report_traced(&mut comp);
            assert_eq!(a.cycles, b.cycles);
            let (ri, rc) = (interp.rollup(), comp.rollup());
            assert_eq!(ri.fire_total(), rc.fire_total());
            assert_eq!(ri.fire_total(), 243);
            assert_eq!(ri.wavefront, rc.wavefront);
            assert_eq!(ri.pe_fires, rc.pe_fires);
            assert_eq!(ri.violations, rc.violations);
            assert_eq!(ri.cycle_span(), a.cycles);
        }
    }

    #[test]
    fn traced_execution_is_bit_identical_to_untraced() {
        use crate::trace::RecordingSink;
        let (u, p) = (3usize, 3usize);
        let alg = matmul_structure(u as i64, p as i64);
        let design = PaperDesign::TimeOptimal;
        let sched = CompiledSchedule::compile(&alg, &design.mapping(3), &design.interconnect(3));
        let (x, y) = mats(u, p);
        let cells = MatmulExpansionIICells::new(u, p, &x, &y);
        let untraced = sched.execute(&cells);
        let mut sink = RecordingSink::new();
        let traced = sched.execute_traced(&cells, &mut sink);
        assert_runs_identical(&traced, &untraced);
        assert_eq!(
            sink.rollup().fire_total() as u128,
            alg.index_set.cardinality()
        );
        assert_eq!(sink.rollup().cycle_span(), traced.cycles);
        // Every launched token on every column is eventually consumed (the
        // matmul structure drains completely), and the in-flight peaks seen
        // by the trace are the run's.
        assert_eq!(sink.rollup().in_flight_peak, traced.peak_in_flight);
    }

    /// The compiled layout by its per-point definitions: every producer
    /// ranked from scratch, the consume mask from `active_at(q̄)`, the launch
    /// mask from `active_at(q̄ + d̄)`, and each column routed once per engine
    /// convention. [`CompiledSchedule::try_compile`] must build exactly this.
    fn reference_compile(
        alg: &AlgorithmTriplet,
        t: &MappingMatrix,
        ic: &Interconnect,
    ) -> Result<CompiledSchedule, CompileError> {
        assert_eq!(t.n(), alg.dim(), "mapping/algorithm dimension mismatch");
        let set = &alg.index_set;
        let n = alg.dim();
        let m = alg.deps.len();
        if m > 64 {
            return Err(CompileError::TooManyColumns { m });
        }
        let card = set.cardinality();
        if card >= NO_SLOT as u128 {
            return Err(CompileError::IndexSetTooLarge { cardinality: card });
        }
        let n_points = card as usize;

        let budgets: Vec<i64> = alg.deps.iter().map(|d| d.vector.dot(&t.schedule)).collect();
        let clocked_routes: Vec<Option<Routing>> = alg
            .deps
            .iter()
            .zip(&budgets)
            .map(|(d, &b)| ic.route(&t.space.matvec(&d.vector), b.max(0)))
            .collect();
        let clocked_hops: Vec<Option<i64>> = clocked_routes
            .iter()
            .map(|r| r.as_ref().map(|r| r.hops))
            .collect();
        let clocked_usage: Vec<Option<IVec>> = clocked_routes
            .into_iter()
            .map(|r| r.map(|r| r.usage))
            .collect();
        let mapped_routes: Vec<Option<(IVec, i64, i64)>> = alg
            .deps
            .iter()
            .zip(&budgets)
            .map(|(d, &b)| {
                if b <= 0 {
                    return None;
                }
                ic.route(&t.space.matvec(&d.vector), b)
                    .map(|r| (r.usage, r.buffers, r.hops))
            })
            .collect();

        let mut points = Vec::with_capacity(n_points * n);
        let mut cycle = Vec::with_capacity(n_points);
        let mut proc = Vec::with_capacity(n_points);
        let mut proc_ids: HashMap<IVec, u32> = HashMap::new();
        let mut proc_coords: Vec<IVec> = Vec::new();
        let mut producers = vec![NO_SLOT; n_points * m];
        let mut consume_mask = vec![0u64; n_points];
        let mut launch_mask = vec![0u64; n_points];
        let mut active_count = vec![0u64; m];

        for (s, q) in set.iter_points().enumerate() {
            assert_eq!(set.rank(&q), s, "rank disagrees with iter_points order");
            points.extend_from_slice(q.as_slice());
            cycle.push(t.time(&q));
            let place = t.place(&q);
            let id = match proc_ids.get(&place) {
                Some(&id) => id,
                None => {
                    let id = proc_coords.len() as u32;
                    proc_ids.insert(place.clone(), id);
                    proc_coords.push(place);
                    id
                }
            };
            proc.push(id);
            for (i, d) in alg.deps.iter().enumerate() {
                if d.active_at(&q, set) {
                    consume_mask[s] |= 1u64 << i;
                    active_count[i] += 1;
                    let src = set
                        .try_rank(&(&q - &d.vector))
                        .expect("active_at guarantees the source lies in J");
                    producers[s * m + i] = src as u32;
                }
                if d.active_at(&(&q + &d.vector), set) {
                    launch_mask[s] |= 1u64 << i;
                }
            }
        }

        let mut fire_order: Vec<u32> = (0..n_points as u32).collect();
        fire_order.sort_by_key(|&s| cycle[s as usize]);
        let mut cycle_values: Vec<i64> = Vec::new();
        let mut cycle_offsets: Vec<usize> = Vec::new();
        for (k, &s) in fire_order.iter().enumerate() {
            let c = cycle[s as usize];
            if cycle_values.last() != Some(&c) {
                cycle_values.push(c);
                cycle_offsets.push(k);
            }
        }
        cycle_offsets.push(n_points);

        let causal = (0..m).all(|i| active_count[i] == 0 || budgets[i] > 0);

        Ok(CompiledSchedule {
            n,
            m,
            n_points,
            points,
            cycle,
            proc,
            proc_coords,
            producers,
            consume_mask,
            launch_mask,
            clocked_hops,
            clocked_usage,
            mapped_routes,
            budgets,
            active_count,
            cycle_values,
            cycle_offsets,
            fire_order,
            n_links: ic.count(),
            causal,
            bookkeeping: BookkeepingMemo::default(),
        })
    }

    /// One step of a splitmix64 stream.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `lo..=hi`.
    fn draw(state: &mut u64, lo: i64, hi: i64) -> i64 {
        lo + (splitmix64(state) % (hi - lo + 1) as u64) as i64
    }

    /// A generated case: a box of 1–4 axes with lower bounds in `-3..=2`
    /// and extents in `0..=3`, 1–9 columns with entries in `-2..=2` under
    /// DNF validity of up to three clauses of up to two atoms (constants
    /// just outside the box included), and a 1- or 2-row `S`, a `Π` with
    /// zero and negative entries, and 1–4 primitives with entries in
    /// `-1..=1`.
    fn seeded_case(seed: u64) -> (AlgorithmTriplet, MappingMatrix, Interconnect) {
        let mut state = seed;
        let st = &mut state;
        let n = draw(st, 1, 4) as usize;
        let lower: Vec<i64> = (0..n).map(|_| draw(st, -3, 2)).collect();
        let upper: Vec<i64> = lower.iter().map(|&l| l + draw(st, 0, 3)).collect();
        let m = draw(st, 1, 9);
        let deps = (0..m)
            .map(|k| {
                let vector = IVec((0..n).map(|_| draw(st, -2, 2)).collect());
                let mut validity = Predicate::never();
                for _ in 0..draw(st, 0, 3) {
                    let mut clause = Predicate::always();
                    for _ in 0..draw(st, 0, 2) {
                        let axis = draw(st, 0, n as i64 - 1) as usize;
                        let cmp = if draw(st, 0, 1) == 0 {
                            Cmp::Eq
                        } else {
                            Cmp::Ne
                        };
                        let rhs = match draw(st, 0, 3) {
                            0 => Rhs::LowerBound,
                            1 => Rhs::UpperBound,
                            _ => Rhs::Const(draw(st, lower[axis] - 1, upper[axis] + 1)),
                        };
                        clause = clause.and(&Predicate::atom(axis, cmp, rhs));
                    }
                    validity = validity.or(&clause);
                }
                Dependence::conditional(vector, &format!("d{k}"), validity)
            })
            .collect();
        let alg = AlgorithmTriplet::new(
            BoxSet::new(IVec(lower), IVec(upper)),
            DependenceSet::new(deps),
            "seeded structure",
        );
        let rows = draw(st, 1, 2) as usize;
        let space: Vec<Vec<i64>> = (0..rows)
            .map(|_| (0..n).map(|_| draw(st, -2, 2)).collect())
            .collect();
        let space: Vec<&[i64]> = space.iter().map(Vec::as_slice).collect();
        let schedule = IVec((0..n).map(|_| draw(st, -2, 2)).collect());
        let links = draw(st, 1, 4) as usize;
        let prims: Vec<Vec<i64>> = (0..rows)
            .map(|_| (0..links).map(|_| draw(st, -1, 1)).collect())
            .collect();
        let prims: Vec<&[i64]> = prims.iter().map(Vec::as_slice).collect();
        (
            alg,
            MappingMatrix::new(IMat::from_rows(&space), schedule),
            Interconnect::new(IMat::from_rows(&prims)),
        )
    }

    /// `try_compile` agrees with [`reference_compile`] on `(alg, t, ic)`:
    /// the same error, or schedules equal by `==` and by `to_bytes()`.
    fn assert_compiles_like_reference(
        alg: &AlgorithmTriplet,
        t: &MappingMatrix,
        ic: &Interconnect,
        case: &str,
    ) {
        match (
            CompiledSchedule::try_compile(alg, t, ic),
            reference_compile(alg, t, ic),
        ) {
            (Ok(got), Ok(want)) => {
                assert!(got == want, "{case}: schedule differs from the reference");
                assert!(
                    got.to_bytes() == want.to_bytes(),
                    "{case}: serialised schedule differs from the reference"
                );
            }
            (Err(got), Err(want)) => assert_eq!(got, want, "{case}"),
            (got, want) => panic!(
                "{case}: try_compile gave {:?}, the reference {:?}",
                got.err(),
                want.err()
            ),
        }
    }

    #[test]
    fn compile_matches_the_per_point_definitions() {
        use bitlevel_depanal::{compose, Expansion};
        use bitlevel_ir::WordLevelAlgorithm;

        for expansion in [Expansion::I, Expansion::II] {
            for (u, p) in [(2i64, 2usize), (3, 4), (4, 4)] {
                let alg = compose(&WordLevelAlgorithm::matmul(u), p, expansion);
                for design in [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour] {
                    let (t, ic) = (design.mapping(p as i64), design.interconnect(p as i64));
                    let case = format!("{} {expansion} at ({u}, {p})", design.name());
                    assert_compiles_like_reference(&alg, &t, &ic, &case);
                }
            }
            // The other model-(3.5) algorithms under a generic 2-row `S`.
            let t = MappingMatrix::new(
                IMat::from_rows(&[&[0, 0, 1, 0], &[0, 0, 0, 1]]),
                IVec::from([7, 3, 2, 1]),
            );
            let ic = Interconnect::new(IMat::from_rows(&[
                &[0, 0, 1, -1, 1, 0],
                &[1, -1, 0, 0, -1, 0],
            ]));
            for word in [
                WordLevelAlgorithm::convolution(3, 2),
                WordLevelAlgorithm::matvec(3, 4),
                WordLevelAlgorithm::dft(4),
            ] {
                let alg = compose(&word, 3, expansion);
                assert_compiles_like_reference(
                    &alg,
                    &t,
                    &ic,
                    &format!("{} {expansion}", word.name),
                );
            }
        }

        // Dependence `[1, 0]` under `Π = [0, 1]`: compiles, but `Π·d̄ = 0`.
        let alg = AlgorithmTriplet::new(
            BoxSet::cube(2, 1, 3),
            DependenceSet::new(vec![Dependence::uniform(IVec::from([1, 0]), "x")]),
            "non-causal 2-D structure",
        );
        let t = MappingMatrix::new(IMat::from_rows(&[&[1, 0]]), IVec::from([0, 1]));
        let ic = Interconnect::new(IMat::from_rows(&[&[1]]));
        assert_compiles_like_reference(&alg, &t, &ic, "non-causal 2-D structure");

        // A column far outside the box, whose slot offset `⟨d̄, strides⟩`
        // would overflow `i64`, beside a box at the top of the `i64` range.
        let alg = AlgorithmTriplet::new(
            BoxSet::new(IVec::from([-3, 0]), IVec::from([0, 3])),
            DependenceSet::new(vec![
                Dependence::uniform(IVec::from([i64::MIN + 3, 0]), "far"),
                Dependence::uniform(IVec::from([0, 1]), "near"),
            ]),
            "far column",
        );
        let t = MappingMatrix::new(IMat::from_rows(&[&[0, 1]]), IVec::from([0, 1]));
        assert_compiles_like_reference(&alg, &t, &ic, "far column");
        let alg = AlgorithmTriplet::new(
            BoxSet::new(IVec::from([i64::MAX - 2, 0]), IVec::from([i64::MAX, 2])),
            DependenceSet::new(vec![Dependence::conditional(
                IVec::from([0, 1]),
                "top",
                Predicate::ne_upper(0),
            )]),
            "top of the i64 range",
        );
        let t = MappingMatrix::new(IMat::from_rows(&[&[1, 0]]), IVec::from([0, 1]));
        assert_compiles_like_reference(&alg, &t, &ic, "top of the i64 range");

        // The one point of a 0-dimensional box.
        let alg = AlgorithmTriplet::new(
            BoxSet::new(IVec::zeros(0), IVec::zeros(0)),
            DependenceSet::new(vec![Dependence::uniform(IVec::zeros(0), "self")]),
            "0-dimensional structure",
        );
        let t = MappingMatrix::new(IMat::from_rows(&[&[]]), IVec::zeros(0));
        assert_compiles_like_reference(&alg, &t, &ic, "0-dimensional structure");

        // Both rejections.
        let t = MappingMatrix::new(IMat::from_rows(&[&[1, 0], &[0, 1]]), IVec::from([1, 1]));
        let ic = Interconnect::new(IMat::from_rows(&[&[1, 0], &[0, 1]]));
        assert_compiles_like_reference(&many_column_structure(), &t, &ic, "65 columns");
        let alg = AlgorithmTriplet::new(
            BoxSet::cube(2, 0, 1 << 16),
            DependenceSet::new(vec![Dependence::uniform(IVec::from([1, 0]), "x")]),
            "over-u32 index set",
        );
        assert_compiles_like_reference(&alg, &t, &ic, "over-u32 index set");

        for seed in 0..320u64 {
            let (alg, t, ic) = seeded_case(seed);
            assert_compiles_like_reference(&alg, &t, &ic, &format!("seed {seed}"));
        }
    }

    /// A live injector that drops every transfer along column 0.
    struct DropColumnZero;

    impl<B> FaultInjector<B> for DropColumnZero {
        fn pe_dead(&self, _processor: &IVec) -> bool {
            false
        }

        fn on_output(&self, _: i64, _: &IVec, _: &IVec, _bundle: &mut B) -> Vec<String> {
            Vec::new()
        }

        fn on_transfer(&self, _cycle: i64, _point: &IVec, column: usize) -> TransferFault {
            if column == 0 {
                TransferFault::Drop
            } else {
                TransferFault::None
            }
        }
    }

    #[test]
    fn only_untraced_faultless_walks_fill_and_read_the_bookkeeping_memo() {
        use crate::trace::RecordingSink;
        // Fig. 4's mapping on Fig. 5's interconnect: some routes miss their
        // budgets, so the memo holds a non-empty violation list.
        let (u, p) = (2usize, 2usize);
        let alg = matmul_structure(u as i64, p as i64);
        let t = PaperDesign::TimeOptimal.mapping(p as i64);
        let ic = PaperDesign::NearestNeighbour.interconnect(p as i64);
        let compile = || CompiledSchedule::try_compile(&alg, &t, &ic).expect("compiles");
        let fresh = compile();
        let decoded = CompiledSchedule::from_bytes(&fresh.to_bytes()).expect("decodes");
        assert!(fresh.bookkeeping.0.get().is_none(), "try_compile filled it");
        assert!(
            decoded.bookkeeping.0.get().is_none(),
            "from_bytes filled it"
        );

        let (x, y) = mats(u, p);
        let cells = MatmulExpansionIICells::new(u, p, &x, &y);
        let sched = compile();
        let traced = sched.execute_traced(&cells, &mut RecordingSink::new());
        assert!(!traced.violations.is_empty());
        let faulted = sched.execute_faulted(&cells, &mut NullSink, &DropColumnZero);
        assert_ne!(faulted.peak_in_flight, traced.peak_in_flight);
        assert!(
            sched.bookkeeping.0.get().is_none(),
            "a traced or faulted walk filled the memo"
        );

        assert_runs_identical(&sched.execute(&cells), &traced);
        let memo = sched
            .bookkeeping
            .0
            .get()
            .expect("the first untraced walk fills it");
        assert_eq!(memo.violations, traced.violations);
        assert_eq!(memo.peak_in_flight, traced.peak_in_flight);
        assert!(sched == fresh, "a walked schedule differs from a fresh one");
        assert!(
            sched.to_bytes() == fresh.to_bytes(),
            "the memo was serialised"
        );

        // A planted memo shows which walks read it.
        let planted = compile();
        let bogus = Bookkeeping {
            violations: Vec::new(),
            peak_in_flight: vec![u64::MAX; planted.m],
        };
        planted.bookkeeping.0.set(bogus).expect("empty");
        let run = planted.execute(&cells);
        assert!(run.violations.is_empty() && run.peak_in_flight[0] == u64::MAX);
        let run = planted.execute_traced(&cells, &mut RecordingSink::new());
        assert_runs_identical(&run, &traced);
        let run = planted.execute_faulted(&cells, &mut NullSink, &DropColumnZero);
        assert_runs_identical(&run, &faulted);
    }
}
