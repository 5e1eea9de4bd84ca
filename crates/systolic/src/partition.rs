//! LSGP partitioned execution: a fixed physical worker pool over the
//! unbounded virtual PE array.
//!
//! Every design the pipeline produces allocates the paper's full virtual
//! processor array — `u²p²` PEs for the Expansion II matmul — which no real
//! machine has at the scales the roadmap targets. This module clusters the
//! virtual PEs of a [`CompiledSchedule`] into at most `k` **shards**
//! (locally-sequential-globally-parallel, LSGP): each shard is owned by one
//! physical worker that walks its share of every cycle slice sequentially,
//! with a barrier per cycle slice and per-shard token queues for the values
//! produced inside the slice.
//!
//! * **Shard assignment** — virtual PEs are ordered lexicographically by
//!   their `S·q̄` coordinates and split into `k` contiguous clusters of
//!   near-equal *load* (fired points, not PE count), so spatially adjacent
//!   PEs share a worker and most dependence traffic stays intra-shard.
//! * **Cycle-sliced barriers** — the partitioner re-indexes the existing CSR
//!   fire list per `(cycle, shard)`. Within a cycle each worker fires its
//!   sub-slice locally sequentially against the *settled* arena (causality:
//!   every producer fired in an earlier slice), queues its products, and the
//!   barrier drains all queues into the shared arena before the next slice.
//! * **Bit identity** — the value phase only re-orders *independent*
//!   computations (the schedule must be causal — [`PartitionError::NotCausal`]
//!   otherwise); the sequential bookkeeping runs over the **original** fire
//!   order, so outputs, violations (same order), cycle counts and
//!   `peak_in_flight` are bit-identical to [`CompiledSchedule::execute`] and
//!   the interpreted oracle.
//! * **Physical cost model** — [`PartitionStats`] carries the LSGP makespan
//!   `Σ_c max_w fires(c, w)` (what this shard assignment costs) and the
//!   balance lower bound `Σ_c ⌈fires(c)/k⌉` (what a perfectly balanced
//!   assignment would cost — provably non-increasing in `k`), the axes the
//!   explorer's `max_physical_pes` budget exposes on the Pareto frontier.
//!
//! Every execution entry point runs the compiled engine's one schedule
//! walk; the partition only supplies its value phase for causal cycle
//! slices (`compute_shards`). A live injector makes that walk sequential,
//! exactly as on the compiled engine — faulted gathers must observe arena
//! mutations in the interpreted engine's order.

use crate::batch::{BatchRun, LaneCellSemantics};
use crate::clocked::{ClockedRun, SyncCellSemantics};
use crate::compiled::{CompiledSchedule, SlotScratch, NO_SLOT};
use crate::fault::{FaultInjector, NoFaults};
use crate::mapped::MappedRunReport;
use crate::trace::{NullSink, TraceSink};
use rayon::prelude::*;
use std::fmt;
use std::sync::Arc;

/// Why a [`CompiledSchedule`] cannot be partitioned onto a physical worker
/// pool. Both cases are recoverable — callers (the `DesignFlow` pipeline)
/// fall back to the un-partitioned compiled engine and record the reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionError {
    /// A zero-worker pool executes nothing.
    ZeroWorkers,
    /// The schedule is not causal (some exercised column has `Π·d̄ ≤ 0`):
    /// same-cycle points may depend on each other, so the per-shard local
    /// walks cannot be reordered against the interpreted firing order.
    NotCausal,
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::ZeroWorkers => {
                write!(f, "cannot partition onto zero workers")
            }
            PartitionError::NotCausal => {
                write!(
                    f,
                    "schedule is not causal: same-cycle points may be dependent, \
                     shard-local firing order would diverge from the oracle"
                )
            }
        }
    }
}

impl std::error::Error for PartitionError {}

/// Shape and cost summary of one LSGP partition, reported by the pipeline
/// and the `--sweep partition` bench.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionStats {
    /// Worker budget the caller asked for.
    pub workers_requested: usize,
    /// Workers actually used (`min(requested, virtual PEs)` — never 0).
    pub workers: usize,
    /// Virtual PEs of the mapped design (`|S·J|`).
    pub virtual_pes: usize,
    /// Largest number of virtual PEs folded into one shard.
    pub max_shard_pes: usize,
    /// Fired index points owned by each shard.
    pub shard_points: Vec<u64>,
    /// Dependence tokens crossing a shard boundary (need a queue transfer).
    pub cross_shard_tokens: u64,
    /// Dependence tokens staying inside one shard.
    pub intra_shard_tokens: u64,
    /// LSGP makespan of *this* assignment: `Σ_c max_w fires(c, w)` —
    /// each cycle slice costs its most loaded worker.
    pub makespan: u64,
    /// Balance lower bound `Σ_c ⌈fires(c)/workers⌉`: the makespan of a
    /// perfectly load-balanced assignment, non-increasing in `workers`.
    pub balanced_makespan: u64,
}

/// A [`CompiledSchedule`] clustered onto a fixed pool of `k` physical
/// workers. Build with [`PartitionedSchedule::try_new`]; execution entry
/// points mirror the compiled engine's and stay bit-identical to it.
#[derive(Debug, Clone)]
pub struct PartitionedSchedule {
    sched: Arc<CompiledSchedule>,
    workers: usize,
    /// Shard id per dense processor id.
    shard_of_proc: Vec<u32>,
    /// Fire list re-indexed per `(cycle, shard)`: cycle `k`, shard `w` fires
    /// `shard_fire_order[shard_offsets[k·workers + w] .. shard_offsets[k·workers + w + 1]]`,
    /// preserving the original slot order inside each sub-slice.
    shard_fire_order: Vec<u32>,
    shard_offsets: Vec<usize>,
    stats: PartitionStats,
}

impl PartitionedSchedule {
    /// Clusters `sched`'s virtual PE array onto at most `workers` physical
    /// workers: PEs sorted lexicographically by coordinates, split into
    /// contiguous shards of near-equal fired-point load.
    pub fn try_new(
        sched: Arc<CompiledSchedule>,
        workers: usize,
    ) -> Result<PartitionedSchedule, PartitionError> {
        if workers == 0 {
            return Err(PartitionError::ZeroWorkers);
        }
        if !sched.causal {
            return Err(PartitionError::NotCausal);
        }
        let virtual_pes = sched.proc_coords.len();
        let k = workers.min(virtual_pes.max(1));

        // Load per virtual PE = fired points it owns.
        let mut load = vec![0u64; virtual_pes];
        for &p in &sched.proc {
            load[p as usize] += 1;
        }
        let total: u64 = load.iter().sum();

        // Contiguous clusters along the lexicographic PE order: the PE whose
        // cumulative load *before* it is `prefix` lands in shard
        // ⌊prefix·k/total⌋ — near-equal load, spatial locality preserved.
        let mut order: Vec<u32> = (0..virtual_pes as u32).collect();
        order.sort_by(|&a, &b| {
            sched.proc_coords[a as usize]
                .0
                .cmp(&sched.proc_coords[b as usize].0)
        });
        let mut shard_of_proc = vec![0u32; virtual_pes];
        let mut prefix = 0u64;
        for &p in &order {
            let w = if total == 0 {
                0
            } else {
                (((prefix as u128) * k as u128) / total as u128) as usize
            };
            shard_of_proc[p as usize] = w.min(k - 1) as u32;
            prefix += load[p as usize];
        }

        let mut shard_pes = vec![0usize; k];
        for &w in &shard_of_proc {
            shard_pes[w as usize] += 1;
        }
        let mut shard_points = vec![0u64; k];

        // Re-index the CSR fire list per (cycle, shard), preserving slot
        // order inside each sub-slice, and price the assignment.
        let n_cycles = sched.cycle_values.len();
        let mut shard_fire_order = Vec::with_capacity(sched.fire_order.len());
        let mut shard_offsets = Vec::with_capacity(n_cycles * k + 1);
        shard_offsets.push(0);
        let mut makespan = 0u64;
        let mut balanced_makespan = 0u64;
        for c in 0..n_cycles {
            let slice = &sched.fire_order[sched.cycle_offsets[c]..sched.cycle_offsets[c + 1]];
            let mut widest = 0u64;
            for w in 0..k as u32 {
                let before = shard_fire_order.len();
                for &s in slice {
                    if shard_of_proc[sched.proc[s as usize] as usize] == w {
                        shard_fire_order.push(s);
                    }
                }
                let fires = (shard_fire_order.len() - before) as u64;
                shard_points[w as usize] += fires;
                widest = widest.max(fires);
                shard_offsets.push(shard_fire_order.len());
            }
            makespan += widest;
            balanced_makespan += (slice.len() as u64).div_ceil(k as u64);
        }

        // Token locality: producer shard vs consumer shard per active column.
        let mut cross_shard_tokens = 0u64;
        let mut intra_shard_tokens = 0u64;
        for s in 0..sched.n_points {
            let mask = sched.consume_mask[s];
            let dst = shard_of_proc[sched.proc[s] as usize];
            for i in 0..sched.m {
                if mask & (1u64 << i) == 0 {
                    continue;
                }
                let src = sched.producers[s * sched.m + i];
                if src == NO_SLOT {
                    continue;
                }
                if shard_of_proc[sched.proc[src as usize] as usize] == dst {
                    intra_shard_tokens += 1;
                } else {
                    cross_shard_tokens += 1;
                }
            }
        }

        let stats = PartitionStats {
            workers_requested: workers,
            workers: k,
            virtual_pes,
            max_shard_pes: shard_pes.iter().copied().max().unwrap_or(0),
            shard_points,
            cross_shard_tokens,
            intra_shard_tokens,
            makespan,
            balanced_makespan,
        };
        Ok(PartitionedSchedule {
            sched,
            workers: k,
            shard_of_proc,
            shard_fire_order,
            shard_offsets,
            stats,
        })
    }

    /// Workers actually used (`min(requested, virtual PEs)`).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Shape and cost summary of this partition.
    pub fn stats(&self) -> &PartitionStats {
        &self.stats
    }

    /// The underlying compiled schedule.
    pub fn schedule(&self) -> &Arc<CompiledSchedule> {
        &self.sched
    }

    /// Shard owning dense processor id `p`.
    pub fn shard_of(&self, p: usize) -> usize {
        self.shard_of_proc[p] as usize
    }

    /// The `(cycle, shard)` sub-slice of the re-indexed fire list.
    #[inline]
    fn shard_slice(&self, cycle_idx: usize, w: usize) -> &[u32] {
        let base = cycle_idx * self.workers + w;
        &self.shard_fire_order[self.shard_offsets[base]..self.shard_offsets[base + 1]]
    }

    /// The value phase of causal cycle slice `cycle_idx`: one rayon task per
    /// shard, each firing its sub-slice locally sequentially against the
    /// settled tokens and queueing its products; the barrier drains every
    /// queue into `arena`. Causality (enforced at construction) guarantees
    /// no same-cycle reads, so the reordering is unobservable.
    pub(crate) fn compute_shards<S: SyncCellSemantics>(
        &self,
        cycle_idx: usize,
        semantics: &S,
        arena: &mut [Option<S::Bundle>],
    ) {
        let settled: &[Option<S::Bundle>] = arena;
        let queues: Vec<Vec<(u32, S::Bundle)>> = (0..self.workers)
            .into_par_iter()
            .map(|w| {
                let mut sc = SlotScratch::default();
                self.shard_slice(cycle_idx, w)
                    .iter()
                    .map(|&s| {
                        let bundle = self
                            .sched
                            .compute_slot(semantics, s as usize, settled, &NoFaults, &mut sc);
                        (s, bundle)
                    })
                    .collect()
            })
            .collect();
        for (s, bundle) in queues.into_iter().flatten() {
            arena[s as usize] = Some(bundle);
        }
    }

    /// Executes the partitioned schedule with value-carrying tokens —
    /// bit-identical to [`CompiledSchedule::execute`] and the interpreted
    /// oracle (outputs, violations in the same order, `peak_in_flight`).
    pub fn execute<S: SyncCellSemantics>(&self, semantics: &S) -> ClockedRun<S::Bundle> {
        self.execute_traced(semantics, &mut NullSink)
    }

    /// [`PartitionedSchedule::execute`] with a [`TraceSink`]; the emitted
    /// stream is identical to [`CompiledSchedule::execute_traced`]'s because
    /// all events come out of the sequential bookkeeping pass, which walks
    /// the original fire order.
    pub fn execute_traced<S: SyncCellSemantics, K: TraceSink>(
        &self,
        semantics: &S,
        sink: &mut K,
    ) -> ClockedRun<S::Bundle> {
        self.sched
            .walk(semantics, sink, &NoFaults, Some(self))
            .into_clocked()
    }

    /// [`PartitionedSchedule::execute`] under a [`FaultInjector`]. A live
    /// injector makes the walk sequential, exactly as
    /// [`CompiledSchedule::execute_faulted`] — same contract, same results;
    /// with [`NoFaults`] it runs the shard value phase.
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
        self.sched
            .walk(semantics, sink, faults, Some(self))
            .into_clocked()
    }

    /// Lane-packed batch walk over the shard layout: up to 64 problem
    /// instances per schedule walk, each cycle slice split across the worker
    /// pool. Bit-identical to [`CompiledSchedule::execute_batch`].
    pub fn execute_batch<L: LaneCellSemantics>(&self, lanes: &L) -> BatchRun<L::Packed> {
        self.execute_batch_traced(lanes, &mut NullSink)
    }

    /// [`PartitionedSchedule::execute_batch`] with a [`TraceSink`].
    pub fn execute_batch_traced<L, K>(&self, lanes: &L, sink: &mut K) -> BatchRun<L::Packed>
    where
        L: LaneCellSemantics,
        K: TraceSink,
    {
        self.sched.walk_batch(lanes, sink, Some(self))
    }

    /// Timing-only mapped report — value-independent, so it delegates to
    /// [`CompiledSchedule::mapped_report_traced`] unchanged.
    pub fn mapped_report_traced<K: TraceSink>(&self, sink: &mut K) -> MappedRunReport {
        self.sched.mapped_report_traced(sink)
    }

    /// Timing-only mapped report under a fault injector — delegates to
    /// [`CompiledSchedule::mapped_report_faulted`].
    pub fn mapped_report_faulted<K: TraceSink, F: FaultInjector<()>>(
        &self,
        sink: &mut K,
        faults: &F,
    ) -> MappedRunReport {
        self.sched.mapped_report_faulted(sink, faults)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::MatmulLaneCells;
    use crate::clocked::{run_clocked, MatmulExpansionIICells};
    use bitlevel_ir::{AlgorithmTriplet, BoxSet, Dependence, DependenceSet, Predicate};
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

    fn mats(u: usize, p: usize, salt: u128) -> (Vec<Vec<u128>>, Vec<Vec<u128>>) {
        let m = crate::BitMatmulArray::new(u, p).max_safe_entry();
        let x = (0..u)
            .map(|i| {
                (0..u)
                    .map(|j| ((3 * i + 5 * j) as u128 + salt + 1) % (m + 1))
                    .collect()
            })
            .collect();
        let y = (0..u)
            .map(|i| {
                (0..u)
                    .map(|j| ((7 * i + 2 * j) as u128 + salt + 2) % (m + 1))
                    .collect()
            })
            .collect();
        (x, y)
    }

    fn matmul_sched(u: usize, p: usize, design: PaperDesign) -> Arc<CompiledSchedule> {
        let alg = matmul_structure(u as i64, p as i64);
        let t = design.mapping(p as i64);
        let ic = design.interconnect(p as i64);
        Arc::new(CompiledSchedule::compile(&alg, &t, &ic))
    }

    #[test]
    fn zero_workers_rejected() {
        let sched = matmul_sched(2, 2, PaperDesign::TimeOptimal);
        assert_eq!(
            PartitionedSchedule::try_new(sched, 0).unwrap_err(),
            PartitionError::ZeroWorkers
        );
    }

    #[test]
    fn non_causal_schedule_rejected() {
        use bitlevel_linalg::IVec;
        use bitlevel_mapping::MappingMatrix;
        let alg = matmul_structure(2, 2);
        let t = MappingMatrix::new(
            PaperDesign::TimeOptimal.mapping(2).space.clone(),
            IVec::from([1, 1, 1, 0, 0]),
        );
        let ic = PaperDesign::TimeOptimal.interconnect(2);
        let sched = Arc::new(CompiledSchedule::compile(&alg, &t, &ic));
        assert!(!sched.is_causal());
        assert_eq!(
            PartitionedSchedule::try_new(sched, 4).unwrap_err(),
            PartitionError::NotCausal
        );
    }

    #[test]
    fn workers_clamped_to_virtual_pes() {
        let sched = matmul_sched(2, 2, PaperDesign::TimeOptimal);
        let virtual_pes = sched.n_processors();
        let part = PartitionedSchedule::try_new(sched, virtual_pes + 100).unwrap();
        assert_eq!(part.workers(), virtual_pes);
        assert_eq!(part.stats().workers_requested, virtual_pes + 100);
    }

    #[test]
    fn shards_cover_all_pes_and_points() {
        let sched = matmul_sched(3, 2, PaperDesign::TimeOptimal);
        let part = PartitionedSchedule::try_new(Arc::clone(&sched), 4).unwrap();
        let stats = part.stats();
        assert_eq!(stats.workers, 4);
        assert_eq!(
            stats.shard_points.iter().sum::<u64>() as usize,
            sched.n_points()
        );
        assert!(stats.cross_shard_tokens + stats.intra_shard_tokens > 0);
        // The balance lower bound never exceeds this assignment's makespan,
        // and the sequential extreme equals the total point count.
        assert!(stats.balanced_makespan <= stats.makespan);
        let seq = PartitionedSchedule::try_new(Arc::clone(&sched), 1).unwrap();
        assert_eq!(seq.stats().makespan as usize, sched.n_points());
    }

    #[test]
    fn balanced_makespan_non_increasing_in_workers() {
        let sched = matmul_sched(3, 3, PaperDesign::TimeOptimal);
        let mut prev = u64::MAX;
        for k in [1usize, 2, 4, 8, 16] {
            let part = PartitionedSchedule::try_new(Arc::clone(&sched), k).unwrap();
            let b = part.stats().balanced_makespan;
            assert!(
                b <= prev,
                "balanced makespan must not grow with workers: {b} > {prev} at k={k}"
            );
            prev = b;
        }
    }

    #[test]
    fn partitioned_matches_interpreted_oracle() {
        for (u, p) in [(2usize, 2usize), (3, 2)] {
            for design in [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour] {
                let alg = matmul_structure(u as i64, p as i64);
                let t = design.mapping(p as i64);
                let ic = design.interconnect(p as i64);
                let sched = Arc::new(CompiledSchedule::compile(&alg, &t, &ic));
                let (x, y) = mats(u, p, 3);
                let mut oracle_cells = MatmulExpansionIICells::new(u, p, &x, &y);
                let oracle = run_clocked(&alg, &t, &ic, &mut oracle_cells);
                let cells = MatmulExpansionIICells::new(u, p, &x, &y);
                for k in [1usize, 3, 8] {
                    let part = PartitionedSchedule::try_new(Arc::clone(&sched), k).unwrap();
                    let run = part.execute(&cells);
                    assert_eq!(run.outputs, oracle.outputs, "k={k} {design:?}");
                    assert_eq!(run.violations, oracle.violations, "k={k} {design:?}");
                    assert_eq!(run.cycles, oracle.cycles, "k={k} {design:?}");
                    assert_eq!(
                        run.peak_in_flight, oracle.peak_in_flight,
                        "k={k} {design:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn partitioned_batch_matches_compiled_batch() {
        let (u, p) = (2usize, 2usize);
        let sched = matmul_sched(u, p, PaperDesign::TimeOptimal);
        let width = 5;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..width {
            let (x, y) = mats(u, p, i as u128);
            xs.push(x);
            ys.push(y);
        }
        let lanes = MatmulLaneCells::new(u, p, &xs, &ys);
        let baseline = sched.execute_batch(&lanes);
        for k in [1usize, 2, 7] {
            let part = PartitionedSchedule::try_new(Arc::clone(&sched), k).unwrap();
            let run = part.execute_batch(&lanes);
            assert_eq!(run.outputs, baseline.outputs, "k={k}");
            assert_eq!(run.violations, baseline.violations, "k={k}");
            assert_eq!(run.cycles, baseline.cycles, "k={k}");
        }
    }
}
