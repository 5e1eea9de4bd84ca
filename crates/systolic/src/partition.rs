//! LSGP partitioning: the cost of running the unbounded virtual PE array
//! on a fixed physical worker pool.
//!
//! Every design the pipeline produces allocates the paper's full virtual
//! processor array — `u²p²` PEs for the Expansion II matmul — which no real
//! machine has at the scales the roadmap targets. This module clusters the
//! virtual PEs of a [`CompiledSchedule`] into at most `k` **shards**
//! (locally-sequential-globally-parallel, LSGP): each shard is owned by one
//! physical worker that would fire its share of every cycle slice
//! sequentially, with a barrier per cycle slice.
//!
//! * **Shard assignment** — virtual PEs are ordered lexicographically by
//!   their `S·q̄` coordinates and split into `k` contiguous clusters of
//!   near-equal *load* (fired points, not PE count), so spatially adjacent
//!   PEs share a worker and most dependence traffic stays intra-shard.
//! * **Cost model** — [`PartitionStats`] carries the LSGP makespan
//!   `Σ_c max_w fires(c, w)` (what this shard assignment costs) and the
//!   balance lower bound `Σ_c ⌈fires(c)/k⌉` (what a perfectly balanced
//!   assignment would cost — provably non-increasing in `k`), the axes the
//!   explorer's `max_physical_pes` budget exposes on the Pareto frontier.
//!   Both price a slice's points as independent work, which holds only on a
//!   causal schedule ([`PartitionError::NotCausal`] otherwise). Dependence
//!   tokens that cross a shard boundary are loop-carried values a worker
//!   would receive from another; they are counted, not moved.
//!
//! The partition prices its layout instead of walking it: a partitioned
//! evaluation runs the compiled engine's one schedule walk on
//! [`PartitionedSchedule::schedule`], so its runs are bit-identical to the
//! compiled engine's and the interpreted oracle's.

use crate::compiled::{CompiledSchedule, NO_SLOT};
use crate::fault::NoFaults;
use crate::mapped::MappedRunReport;
use crate::trace::TraceSink;
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
    /// same-cycle points may depend on each other, so the makespan model,
    /// which prices a cycle slice's points as independent work, does not
    /// apply.
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
                     so the LSGP makespan model does not apply"
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

/// A [`CompiledSchedule`] priced on a fixed pool of `k` physical workers.
/// Build with [`PartitionedSchedule::try_new`]; runs go through
/// [`PartitionedSchedule::schedule`].
#[derive(Debug, Clone)]
pub struct PartitionedSchedule {
    sched: Arc<CompiledSchedule>,
    stats: PartitionStats,
}

impl PartitionedSchedule {
    /// Clusters `sched`'s virtual PE array onto at most `workers` physical
    /// workers — PEs sorted lexicographically by coordinates, split into
    /// contiguous shards of near-equal fired-point load — and prices the
    /// assignment.
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

        // Price the assignment: each cycle slice costs its most loaded
        // shard, `fires[w]` counting the slice's points on shard `w`.
        let mut shard_points = vec![0u64; k];
        let mut fires = vec![0u64; k];
        let mut makespan = 0u64;
        let mut balanced_makespan = 0u64;
        for c in 0..sched.cycle_values.len() {
            let slice = &sched.fire_order[sched.cycle_offsets[c]..sched.cycle_offsets[c + 1]];
            fires.fill(0);
            for &s in slice {
                let w = shard_of_proc[sched.proc[s as usize] as usize] as usize;
                fires[w] += 1;
                shard_points[w] += 1;
            }
            makespan += fires.iter().copied().max().unwrap_or(0);
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
        Ok(PartitionedSchedule { sched, stats })
    }

    /// Workers actually used (`min(requested, virtual PEs)`).
    pub fn workers(&self) -> usize {
        self.stats.workers
    }

    /// Shape and cost summary of this partition.
    pub fn stats(&self) -> &PartitionStats {
        &self.stats
    }

    /// The underlying compiled schedule, which every partitioned run walks.
    pub fn schedule(&self) -> &Arc<CompiledSchedule> {
        &self.sched
    }

    /// Timing-only mapped report — value-independent, so it delegates to
    /// [`CompiledSchedule::mapped_report_faulted`] without faults.
    pub fn mapped_report_traced<K: TraceSink>(&self, sink: &mut K) -> MappedRunReport {
        self.sched.mapped_report_faulted(sink, &NoFaults)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn lsgp_cost_model_is_pinned() {
        // Every count of the LSGP model, at E21's (4, 3) on both designs
        // and on Fig. 4 at (4, 4), where the 3-way split is uneven. A row
        // reads: workers, virtual PEs, max shard PEs, shard points,
        // cross-shard and intra-shard tokens, makespan, balanced makespan.
        type Row = (usize, usize, usize, &'static [u64], u64, u64, u64, u64);
        let cases: [(usize, usize, PaperDesign, &[Row]); 3] = [
            (
                4,
                3,
                PaperDesign::TimeOptimal,
                &[
                    (1, 144, 144, &[576], 0, 1616, 576, 576),
                    (2, 144, 72, &[288; 2], 48, 1568, 374, 294),
                    (4, 144, 36, &[144; 4], 144, 1472, 210, 150),
                    (8, 144, 18, &[72; 8], 464, 1152, 166, 80),
                ],
            ),
            (
                4,
                3,
                PaperDesign::NearestNeighbour,
                &[
                    (1, 144, 144, &[576], 0, 1616, 576, 576),
                    (2, 144, 72, &[288; 2], 48, 1568, 426, 290),
                    (4, 144, 36, &[144; 4], 144, 1472, 252, 156),
                    (8, 144, 18, &[72; 8], 464, 1152, 184, 86),
                ],
            ),
            (
                4,
                4,
                PaperDesign::TimeOptimal,
                &[(3, 256, 86, &[344, 340, 340], 352, 2608, 556, 348)],
            ),
        ];
        for (u, p, design, rows) in cases {
            let sched = matmul_sched(u, p, design);
            for &(workers, virtual_pes, max_shard_pes, points, cross, intra, makespan, balanced) in
                rows
            {
                let part = PartitionedSchedule::try_new(Arc::clone(&sched), workers).unwrap();
                let want = PartitionStats {
                    workers_requested: workers,
                    workers,
                    virtual_pes,
                    max_shard_pes,
                    shard_points: points.to_vec(),
                    cross_shard_tokens: cross,
                    intra_shard_tokens: intra,
                    makespan,
                    balanced_makespan: balanced,
                };
                assert_eq!(part.stats(), &want, "{design:?} ({u}, {p}) on {workers}");
            }
        }
    }
}
