//! Register-transfer-level ("clocked") execution of a mapped algorithm.
//!
//! [`crate::mapped::simulate_mapped`] verifies the *timing structure* of an
//! architecture; this module goes one level lower: it executes the schedule
//! **cycle by cycle with value-carrying tokens**. Each index point fires on
//! its processor at its scheduled cycle, consumes the tokens its active
//! dependences deliver (verifying each token really had time to traverse its
//! route), computes real output values through a pluggable cell semantics,
//! and launches new tokens. Running the Fig. 4 / Fig. 5 matmul designs
//! through this engine and getting bit-correct products out the boundary is
//! the strongest form of "the architecture works" this repository offers.
//!
//! The engine is generic over [`CellSemantics`]; [`MatmulExpansionIICells`]
//! implements the full-adder/wide-adder semantics of the Expansion II matmul
//! structure (3.12), matching [`crate::bit_array::BitMatmulArray`] exactly.

use crate::batch::{BatchRun, LaneCellSemantics, Wordwise};
use crate::fault::{FaultInjector, NoFaults, TransferFault};
use crate::trace::{NullSink, TraceEvent, TraceSink};
use bitlevel_arith::{full_add, to_bits, wide_add, Bit};
use bitlevel_ir::AlgorithmTriplet;
use bitlevel_linalg::IVec;
use bitlevel_mapping::{Interconnect, MappingMatrix, Routing};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Per-point computation semantics for the clocked engine.
///
/// Tokens are *bundles*: the full output signal set of a cell travels along
/// every outgoing dependence edge, and each consumer extracts the signals it
/// needs (hardware would route individual wires; bundling loses no fidelity
/// for verification because each edge still exists and is still timed).
pub trait CellSemantics {
    /// The signal bundle carried by tokens.
    type Bundle: Clone + std::fmt::Debug;

    /// Computes the cell at index point `q`. `inputs[i]` is the token
    /// arriving along dependence column `i` (`None` when the dependence is
    /// inactive at `q` or its source lies outside the index set — i.e. an
    /// architectural boundary, which the semantics resolves from operands /
    /// initial values).
    fn compute(&mut self, q: &IVec, inputs: &[Option<Self::Bundle>]) -> Self::Bundle;
}

/// Pure, shareable cell semantics — the compiled backend's counterpart of
/// [`CellSemantics`].
///
/// The compiled engine ([`crate::compiled`]) computes each point from its
/// gathered inputs alone, so the semantics must be immutable (`&self`); it
/// is `Sync` so that walks on several threads (a server's workers) may share
/// one value. Types whose compute is pure implement this trait and delegate
/// their [`CellSemantics`] impl to it, so both engines run literally the
/// same arithmetic.
pub trait SyncCellSemantics: Sync {
    /// The signal bundle carried by tokens (`Send + Sync`, so runs and their
    /// token arenas may cross threads).
    type Bundle: Clone + Send + Sync + std::fmt::Debug;

    /// Computes the cell at index point `q` — same contract as
    /// [`CellSemantics::compute`], minus the mutable receiver.
    fn compute(&self, q: &IVec, inputs: &[Option<Self::Bundle>]) -> Self::Bundle;
}

/// One timing/route violation found by the clocked engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClockedViolation {
    /// A consumer fired at or before its producer.
    CausalityOrder {
        /// Rendered consumer point.
        consumer: String,
        /// Dependence column index.
        column: usize,
    },
    /// A token could not traverse its route within the schedule slack.
    RouteTooSlow {
        /// Rendered consumer point.
        consumer: String,
        /// Dependence column index.
        column: usize,
        /// Hops needed.
        hops: i64,
        /// Cycles available.
        budget: i64,
    },
    /// Two points fired on the same processor in the same cycle.
    ProcessorConflict {
        /// Rendered processor coordinates.
        processor: String,
        /// Cycle.
        cycle: i64,
    },
    /// An active dependence found no token: its in-set producer had not
    /// fired yet when the consumer needed the value (a scheduling anomaly —
    /// boundary inputs arrive on *inactive* columns and are not violations).
    MissingToken {
        /// Rendered consumer point.
        consumer: String,
        /// Dependence column index.
        column: usize,
    },
}

impl fmt::Display for ClockedViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClockedViolation::CausalityOrder { consumer, column } => write!(
                f,
                "causality: {consumer} consumed column d{} at or before its producer fired",
                column + 1
            ),
            ClockedViolation::RouteTooSlow {
                consumer,
                column,
                hops,
                budget,
            } if *hops < 0 => {
                write!(
                    f,
                    "route: column d{} unroutable for {consumer} (slack {budget})",
                    column + 1
                )
            }
            ClockedViolation::RouteTooSlow {
                consumer,
                column,
                hops,
                budget,
            } => write!(
                f,
                "route: {consumer} needs {hops} hops on d{} but has only {budget} cycles",
                column + 1
            ),
            ClockedViolation::ProcessorConflict { processor, cycle } => {
                write!(
                    f,
                    "conflict: two points fired on processor {processor} in cycle {cycle}"
                )
            }
            ClockedViolation::MissingToken { consumer, column } => write!(
                f,
                "missing token: {consumer} found no token on column d{}",
                column + 1
            ),
        }
    }
}

/// Result of a clocked run.
#[derive(Debug, Clone)]
pub struct ClockedRun<B> {
    /// First-to-last busy cycle, inclusive.
    pub cycles: i64,
    /// Output bundle of every index point.
    pub outputs: HashMap<IVec, B>,
    /// All violations (empty for a legal architecture).
    pub violations: Vec<ClockedViolation>,
    /// Maximum tokens simultaneously in flight on any dependence column's
    /// wire set (register pressure per edge class).
    pub peak_in_flight: Vec<u64>,
}

impl<B> ClockedRun<B> {
    /// True iff the run exposed no timing, routing or conflict violations.
    pub fn is_legal(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Executes `alg` under mapping `t` on machine `ic` with the given cell
/// semantics, cycle by cycle.
pub fn run_clocked<S: CellSemantics>(
    alg: &AlgorithmTriplet,
    t: &MappingMatrix,
    ic: &Interconnect,
    semantics: &mut S,
) -> ClockedRun<S::Bundle> {
    run_clocked_traced(alg, t, ic, semantics, &mut NullSink)
}

/// [`run_clocked`] with a [`TraceSink`] observing every route, fire, token
/// and violation. With [`NullSink`] the emission guards compile away and
/// this *is* [`run_clocked`]; the compiled engine
/// ([`crate::compiled::CompiledSchedule::execute_traced`]) reconstructs the
/// identical event stream.
pub fn run_clocked_traced<S: CellSemantics, K: TraceSink>(
    alg: &AlgorithmTriplet,
    t: &MappingMatrix,
    ic: &Interconnect,
    semantics: &mut S,
    sink: &mut K,
) -> ClockedRun<S::Bundle> {
    run_clocked_faulted(alg, t, ic, semantics, sink, &NoFaults)
}

/// [`run_clocked_traced`] with a [`FaultInjector`] perturbing the run:
/// transfer faults apply at token consumption (a dropped transfer skips the
/// consumption bookkeeping entirely; a duplicate re-delivers the previous
/// token of the same edge class), output faults mutate the just-computed
/// bundle before it launches. With [`NoFaults`] every fault branch compiles
/// away and this *is* [`run_clocked_traced`]; the compiled backend
/// ([`crate::compiled::CompiledSchedule::execute_faulted`]) reproduces the
/// identical faulted run bit for bit.
pub fn run_clocked_faulted<S, K, F>(
    alg: &AlgorithmTriplet,
    t: &MappingMatrix,
    ic: &Interconnect,
    semantics: &mut S,
    sink: &mut K,
    faults: &F,
) -> ClockedRun<S::Bundle>
where
    S: CellSemantics,
    K: TraceSink,
    F: FaultInjector<S::Bundle>,
{
    assert_eq!(t.n(), alg.dim(), "mapping/algorithm dimension mismatch");
    let set = &alg.index_set;
    let m = alg.deps.len();

    // Pre-route each dependence column once: hop count on this machine.
    let routes: Vec<Option<Routing>> = alg
        .deps
        .iter()
        .map(|d| {
            let budget = d.vector.dot(&t.schedule);
            ic.route(&t.space.matvec(&d.vector), budget.max(0))
        })
        .collect();
    if K::ENABLED {
        for (i, r) in routes.iter().enumerate() {
            match r {
                Some(r) => sink.record(TraceEvent::ColumnRoute {
                    column: i,
                    hops: r.hops,
                    usage: r.usage.clone(),
                }),
                None => sink.record(TraceEvent::ColumnUnroutable { column: i }),
            }
        }
    }
    let hops: Vec<Option<i64>> = routes.iter().map(|r| r.as_ref().map(|r| r.hops)).collect();

    // Group points by scheduled cycle.
    let mut by_cycle: HashMap<i64, Vec<IVec>> = HashMap::new();
    for q in set.iter_points() {
        by_cycle.entry(t.time(&q)).or_default().push(q);
    }
    let mut cycles_sorted: Vec<i64> = by_cycle.keys().copied().collect();
    cycles_sorted.sort_unstable();

    let mut outputs: HashMap<IVec, S::Bundle> = HashMap::with_capacity(set.cardinality() as usize);
    let mut produced_at: HashMap<IVec, i64> = HashMap::with_capacity(outputs.capacity());
    let mut violations = Vec::new();
    let mut in_flight = vec![0u64; m];
    let mut peak_in_flight = vec![0u64; m];

    // Processor coordinates are interned to dense u32 ids once per distinct
    // processor, so the per-cycle duplicate-fire check probes a HashSet<u32>
    // instead of hashing (and cloning) a full IVec per point.
    let mut proc_ids: HashMap<IVec, u32> = HashMap::new();
    let mut proc_coords: Vec<IVec> = Vec::new();
    let mut fired: HashSet<u32> = HashSet::new();

    for &cycle in &cycles_sorted {
        // Processor conflict detection within the cycle.
        fired.clear();
        // Count in-flight tokens per column: produced but not yet consumed.
        // (Recomputed incrementally: a token launches when its producer
        // fires and retires when its consumer fires.)
        for q in &by_cycle[&cycle] {
            let place = t.place(q);
            let id = match proc_ids.get(&place) {
                Some(&id) => id,
                None => {
                    let id = proc_coords.len() as u32;
                    proc_ids.insert(place.clone(), id);
                    proc_coords.push(place);
                    id
                }
            };
            if K::ENABLED {
                sink.record(TraceEvent::PointFired {
                    cycle,
                    point: q.clone(),
                    processor: proc_coords[id as usize].clone(),
                });
            }
            if !fired.insert(id) {
                let v = ClockedViolation::ProcessorConflict {
                    processor: proc_coords[id as usize].to_string(),
                    cycle,
                };
                if K::ENABLED {
                    sink.record(TraceEvent::Violation {
                        cycle,
                        description: v.to_string(),
                    });
                }
                violations.push(v);
            }

            // Gather inputs.
            let mut inputs: Vec<Option<S::Bundle>> = Vec::with_capacity(m);
            for (i, d) in alg.deps.iter().enumerate() {
                if !d.active_at(q, set) {
                    inputs.push(None);
                    continue;
                }
                let tf = if F::ENABLED {
                    faults.on_transfer(cycle, q, i)
                } else {
                    TransferFault::None
                };
                if tf == TransferFault::Drop {
                    // The token is lost on the wire: no consumption
                    // bookkeeping at all — it stays in flight, unretired.
                    if K::ENABLED {
                        sink.record(TraceEvent::FaultInjected {
                            cycle,
                            point: q.clone(),
                            processor: proc_coords[id as usize].clone(),
                            column: Some(i),
                            kind: "dropped_transfer".into(),
                        });
                    }
                    inputs.push(None);
                    continue;
                }
                let src = q - &d.vector;
                match outputs.get(&src) {
                    Some(bundle) => {
                        let src_time = produced_at[&src];
                        if src_time >= cycle {
                            let v = ClockedViolation::CausalityOrder {
                                consumer: q.to_string(),
                                column: i,
                            };
                            if K::ENABLED {
                                sink.record(TraceEvent::Violation {
                                    cycle,
                                    description: v.to_string(),
                                });
                            }
                            violations.push(v);
                        }
                        match hops[i] {
                            Some(h) if h <= cycle - src_time => {}
                            Some(h) => {
                                let v = ClockedViolation::RouteTooSlow {
                                    consumer: q.to_string(),
                                    column: i,
                                    hops: h,
                                    budget: cycle - src_time,
                                };
                                if K::ENABLED {
                                    sink.record(TraceEvent::Violation {
                                        cycle,
                                        description: v.to_string(),
                                    });
                                }
                                violations.push(v);
                            }
                            None => {
                                let v = ClockedViolation::RouteTooSlow {
                                    consumer: q.to_string(),
                                    column: i,
                                    hops: -1,
                                    budget: cycle - src_time,
                                };
                                if K::ENABLED {
                                    sink.record(TraceEvent::Violation {
                                        cycle,
                                        description: v.to_string(),
                                    });
                                }
                                violations.push(v);
                            }
                        }
                        if K::ENABLED {
                            sink.record(TraceEvent::TokenConsumed {
                                cycle,
                                column: i,
                                at: q.clone(),
                                slack: cycle - src_time,
                            });
                        }
                        in_flight[i] = in_flight[i].saturating_sub(1);
                        if F::ENABLED && tf == TransferFault::Duplicate {
                            // The link re-delivers the previous token of this
                            // edge class: the output of src − d̄, when it
                            // exists (else the stale register is empty).
                            if K::ENABLED {
                                sink.record(TraceEvent::FaultInjected {
                                    cycle,
                                    point: q.clone(),
                                    processor: proc_coords[id as usize].clone(),
                                    column: Some(i),
                                    kind: "duplicated_transfer".into(),
                                });
                            }
                            let stale = if d.active_at(&src, set) {
                                outputs.get(&(&src - &d.vector)).cloned()
                            } else {
                                None
                            };
                            inputs.push(stale);
                        } else {
                            inputs.push(Some(bundle.clone()));
                        }
                    }
                    None => {
                        // `active_at` guarantees the source is in J, so a
                        // miss means the producer has not fired yet: record
                        // it and degrade to a boundary-style None input.
                        let v = ClockedViolation::MissingToken {
                            consumer: q.to_string(),
                            column: i,
                        };
                        if K::ENABLED {
                            sink.record(TraceEvent::Violation {
                                cycle,
                                description: v.to_string(),
                            });
                        }
                        violations.push(v);
                        inputs.push(None);
                    }
                }
            }

            let mut bundle = semantics.compute(q, &inputs);
            if F::ENABLED {
                for kind in faults.on_output(cycle, q, &proc_coords[id as usize], &mut bundle) {
                    if K::ENABLED {
                        sink.record(TraceEvent::FaultInjected {
                            cycle,
                            point: q.clone(),
                            processor: proc_coords[id as usize].clone(),
                            column: None,
                            kind,
                        });
                    }
                }
            }
            // Launch a token per active outgoing edge class (the consumer
            // side will retire it); for in-flight accounting we count one
            // launch per column that will ever consume this output.
            for (i, d) in alg.deps.iter().enumerate() {
                let tgt = q + &d.vector;
                if d.active_at(&tgt, set) {
                    in_flight[i] += 1;
                    peak_in_flight[i] = peak_in_flight[i].max(in_flight[i]);
                    if K::ENABLED {
                        sink.record(TraceEvent::TokenLaunched {
                            cycle,
                            column: i,
                            from: q.clone(),
                        });
                        sink.record(TraceEvent::BufferOccupancy {
                            cycle,
                            column: i,
                            in_flight: in_flight[i],
                        });
                    }
                }
            }
            outputs.insert(q.clone(), bundle);
            produced_at.insert(q.clone(), cycle);
        }
    }

    let cycles = match (cycles_sorted.first(), cycles_sorted.last()) {
        (Some(a), Some(b)) => b - a + 1,
        _ => 0,
    };

    ClockedRun {
        cycles,
        outputs,
        violations,
        peak_in_flight,
    }
}

/// [`run_clocked`] over lane-packed tokens — the interpreted counterpart of
/// [`crate::compiled::CompiledSchedule::execute_batch`]. The engine runs the
/// packed cells as semantics whose bundles are words, so one interpreted
/// walk simulates every lane, and the run comes back in the same dense
/// [`BatchRun`] form: outputs in slot order, schedule-wide results once.
pub fn run_clocked_batch<L: LaneCellSemantics>(
    alg: &AlgorithmTriplet,
    t: &MappingMatrix,
    ic: &Interconnect,
    lanes: &L,
) -> BatchRun<L::Packed> {
    let run = run_clocked(alg, t, ic, &mut Wordwise(lanes));
    BatchRun::from_clocked(run, &alg.index_set, lanes.lanes())
}

/// The signal bundle of one Expansion II matmul cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatmulSignals {
    /// The x operand bit held/forwarded by this cell.
    pub x: Bit,
    /// The y operand bit held/forwarded by this cell.
    pub y: Bit,
    /// The partial-sum output (also the accumulator bit at boundary points).
    pub s: Bit,
    /// The carry output.
    pub c: Bit,
    /// The second carry output (i₁ = p plane).
    pub cp: Bit,
}

/// Cell semantics of the Expansion II bit-level matmul structure (3.12):
/// identical arithmetic to [`crate::bit_array::BitMatmulArray`], but driven
/// by the clocked engine instead of a topological sweep.
///
/// Dependence column order must be the [`bitlevel-depanal`]-composed order:
/// `x (d̄₁), y (d̄₂), z (d̄₃), x (d̄₄), y,c (d̄₅), z (d̄₆), c' (d̄₇)`.
pub struct MatmulExpansionIICells {
    u: usize,
    p: usize,
    /// Operand bits: `x_bits[j1][j3][k]`, `y_bits[j3][j2][k]`, LSB first.
    x_bits: Vec<Vec<Vec<Bit>>>,
    y_bits: Vec<Vec<Vec<Bit>>>,
}

impl MatmulExpansionIICells {
    /// Prepares operand bit planes for `u×u` matrices of `p`-bit entries.
    ///
    /// # Panics
    /// Panics if shapes are wrong or entries exceed `p` bits.
    pub fn new(u: usize, p: usize, x: &[Vec<u128>], y: &[Vec<u128>]) -> Self {
        assert_eq!(x.len(), u, "x must be u x u");
        assert_eq!(y.len(), u, "y must be u x u");
        let x_bits = x
            .iter()
            .map(|row| {
                assert_eq!(row.len(), u);
                row.iter().map(|&v| to_bits(v, p)).collect()
            })
            .collect();
        let y_bits = y
            .iter()
            .map(|row| {
                assert_eq!(row.len(), u);
                row.iter().map(|&v| to_bits(v, p)).collect()
            })
            .collect();
        MatmulExpansionIICells {
            u,
            p,
            x_bits,
            y_bits,
        }
    }

    /// Extracts the product matrix (mod `2^{2p−1}`) from a finished run:
    /// accumulator bits live in the `s` signals of the last tile's result
    /// positions `(i,1)` and `(p, i−p+1)`.
    pub fn extract_product(&self, run: &ClockedRun<MatmulSignals>) -> Vec<Vec<u128>> {
        let (u, p) = (self.u, self.p);
        let mut z = vec![vec![0u128; u]; u];
        for j1 in 1..=u {
            for j2 in 1..=u {
                let mut bits: Vec<Bit> = Vec::with_capacity(2 * p - 1);
                for i in 1..=p {
                    bits.push(self.signal_at(run, j1, j2, u, i, 1).s);
                }
                for i in p + 1..=2 * p - 1 {
                    bits.push(self.signal_at(run, j1, j2, u, p, i - p + 1).s);
                }
                z[j1 - 1][j2 - 1] = bitlevel_arith::from_bits(&bits);
            }
        }
        z
    }

    fn signal_at(
        &self,
        run: &ClockedRun<MatmulSignals>,
        j1: usize,
        j2: usize,
        j3: usize,
        i1: usize,
        i2: usize,
    ) -> MatmulSignals {
        let q = IVec::from([j1 as i64, j2 as i64, j3 as i64, i1 as i64, i2 as i64]);
        run.outputs[&q]
    }
}

impl CellSemantics for MatmulExpansionIICells {
    type Bundle = MatmulSignals;

    fn compute(&mut self, q: &IVec, inputs: &[Option<MatmulSignals>]) -> MatmulSignals {
        SyncCellSemantics::compute(self, q, inputs)
    }
}

impl SyncCellSemantics for MatmulExpansionIICells {
    type Bundle = MatmulSignals;

    fn compute(&self, q: &IVec, inputs: &[Option<MatmulSignals>]) -> MatmulSignals {
        let (j1, j2, j3, i1, i2) = (
            q[0] as usize,
            q[1] as usize,
            q[2] as usize,
            q[3] as usize,
            q[4] as usize,
        );
        let p = self.p;

        // x bit: at i1 = 1 from the previous j2 (d̄₁, column 0) or the
        // external operand; below, from the cell above (d̄₄, column 3).
        let x = if i1 == 1 {
            match &inputs[0] {
                Some(b) => b.x,
                None => self.x_bits[j1 - 1][j3 - 1][i2 - 1], // j2 = 1 edge
            }
        } else {
            // A missing d̄₄ token (scheduling anomaly or injected fault) was
            // already recorded by the engine; degrade to a silent wire.
            inputs[3].as_ref().is_some_and(|b| b.x)
        };
        // y bit: at i2 = 1 from the previous j1 (d̄₂, column 1) or external;
        // rightward via d̄₅ (column 4).
        let y = if i2 == 1 {
            match &inputs[1] {
                Some(b) => b.y,
                None => self.y_bits[j3 - 1][j2 - 1][i1 - 1], // j1 = 1 edge
            }
        } else {
            inputs[4].as_ref().is_some_and(|b| b.y)
        };

        let pp = x & y;
        // Carry chain along i₂ (d̄₅); zero at i2 = 1.
        let c_in = if i2 > 1 {
            inputs[4].as_ref().is_some_and(|b| b.c)
        } else {
            false
        };
        // Partial-sum diagonal (d̄₆) with the carry re-entry at i2 = p, which
        // arrives along the d̄₄ edge (same [0̄,1,0] direction).
        let s_in = if i1 == 1 {
            false
        } else if i2 == p {
            inputs[3].as_ref().is_some_and(|b| b.c)
        } else {
            inputs[5].as_ref().is_some_and(|b| b.s)
        };
        // Injection of the previous accumulator bit at the boundary (d̄₃);
        // None at j3 = 1 (z(j̄, 0) = 0).
        let on_boundary = i1 == p || i2 == 1;
        let inject = if on_boundary && j3 > 1 {
            inputs[2].as_ref().is_some_and(|b| b.s)
        } else {
            false
        };
        // Second carry chain on the i1 = p plane (d̄₇).
        let cp_in = if i1 == p && i2 > 2 {
            inputs[6].as_ref().is_some_and(|b| b.cp)
        } else {
            false
        };

        let (s, c, cp) = if on_boundary && j3 > 1 {
            if i1 == p {
                wide_add(&[pp, c_in, s_in, inject, cp_in])
            } else {
                wide_add(&[pp, s_in, inject])
            }
        } else {
            let (s, c) = full_add(pp, c_in, s_in);
            (s, c, false)
        };

        MatmulSignals { x, y, s, c, cp }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitlevel_ir::{BoxSet, Dependence, DependenceSet, Predicate};
    use bitlevel_mapping::PaperDesign;

    fn matmul_structure(u: i64, p: i64) -> AlgorithmTriplet {
        // Composed column order: x, y, z, d4, d5, d6, d7 (matches
        // bitlevel-depanal::compose for the full model).
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
        let arr = crate::BitMatmulArray::new(u, p);
        let m = arr.max_safe_entry();
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

    #[test]
    fn fig4_clocked_run_computes_correct_products() {
        for (u, p) in [(2usize, 2usize), (3, 3), (2, 4)] {
            let alg = matmul_structure(u as i64, p as i64);
            let design = PaperDesign::TimeOptimal;
            let (x, y) = mats(u, p);
            let mut cells = MatmulExpansionIICells::new(u, p, &x, &y);
            let run = run_clocked(
                &alg,
                &design.mapping(p as i64),
                &design.interconnect(p as i64),
                &mut cells,
            );
            assert!(run.is_legal(), "violations: {:?}", run.violations);
            assert_eq!(run.cycles, 3 * (u as i64 - 1) + 3 * (p as i64 - 1) + 1);
            let z = cells.extract_product(&run);
            for i in 0..u {
                for j in 0..u {
                    let want: u128 = (0..u).map(|k| x[i][k] * y[k][j]).sum();
                    assert_eq!(z[i][j], want, "u={u} p={p} Z[{i}][{j}]");
                }
            }
        }
    }

    #[test]
    fn fig5_clocked_run_computes_correct_products() {
        let (u, p) = (3usize, 3usize);
        let alg = matmul_structure(u as i64, p as i64);
        let design = PaperDesign::NearestNeighbour;
        let (x, y) = mats(u, p);
        let mut cells = MatmulExpansionIICells::new(u, p, &x, &y);
        let run = run_clocked(
            &alg,
            &design.mapping(p as i64),
            &design.interconnect(p as i64),
            &mut cells,
        );
        assert!(run.is_legal(), "violations: {:?}", run.violations);
        assert_eq!(
            run.cycles,
            (2 * p as i64 + 1) * (u as i64 - 1) + 3 * (p as i64 - 1) + 1
        );
        let z = cells.extract_product(&run);
        let want = crate::BitMatmulArray::new(u, p).multiply(&x, &y);
        assert_eq!(z, want);
    }

    #[test]
    fn clocked_agrees_with_topological_array_even_under_wraparound() {
        // Overflowing entries: both engines must implement the same
        // mod-2^{2p−1} semantics.
        let (u, p) = (2usize, 3usize);
        let alg = matmul_structure(u as i64, p as i64);
        let x = vec![vec![7u128, 7], vec![7, 7]];
        let y = vec![vec![7u128, 6], vec![5, 7]];
        let mut cells = MatmulExpansionIICells::new(u, p, &x, &y);
        let design = PaperDesign::TimeOptimal;
        let run = run_clocked(
            &alg,
            &design.mapping(3),
            &design.interconnect(3),
            &mut cells,
        );
        assert_eq!(
            cells.extract_product(&run),
            crate::BitMatmulArray::new(u, p).multiply(&x, &y)
        );
    }

    #[test]
    fn illegal_machine_is_reported() {
        // Fig. 4's fast schedule on the wire-poor machine: tokens cannot make
        // their routes; the engine must report RouteTooSlow, not silently
        // compute.
        let (u, p) = (2usize, 2usize);
        let alg = matmul_structure(u as i64, p as i64);
        let (x, y) = mats(u, p);
        let mut cells = MatmulExpansionIICells::new(u, p, &x, &y);
        let run = run_clocked(
            &alg,
            &PaperDesign::TimeOptimal.mapping(p as i64),
            &PaperDesign::NearestNeighbour.interconnect(p as i64),
            &mut cells,
        );
        assert!(!run.is_legal());
        assert!(run
            .violations
            .iter()
            .any(|v| matches!(v, ClockedViolation::RouteTooSlow { .. })));
    }

    #[test]
    fn conflicting_mapping_is_reported() {
        let (u, p) = (2usize, 2usize);
        let alg = matmul_structure(u as i64, p as i64);
        let (x, y) = mats(u, p);
        let mut cells = MatmulExpansionIICells::new(u, p, &x, &y);
        // Collapse the space mapping: everything lands on one column of PEs.
        let t = MappingMatrix::new(
            bitlevel_linalg::IMat::from_rows(&[&[0, 0, 0, 0, 0], &[0, 2, 0, 0, 1]]),
            IVec::from([1, 1, 1, 2, 1]),
        );
        let run = run_clocked(&alg, &t, &Interconnect::paper_p(2), &mut cells);
        assert!(run
            .violations
            .iter()
            .any(|v| matches!(v, ClockedViolation::ProcessorConflict { .. })));
    }

    #[test]
    fn missing_tokens_are_recorded_not_panicked() {
        // A schedule that runs d̄₄ (and d̄₆) backwards: consumers at i1 > 1
        // fire before their producers, so their tokens are missing at
        // consumption time. The engine must degrade to recorded
        // MissingToken violations — it used to panic in the matmul cell
        // semantics ("d4 token must exist for i1 > 1").
        let (u, p) = (2usize, 2usize);
        let alg = matmul_structure(u as i64, p as i64);
        let (x, y) = mats(u, p);
        let mut cells = MatmulExpansionIICells::new(u, p, &x, &y);
        let t = MappingMatrix::new(
            PaperDesign::TimeOptimal.mapping(p as i64).space.clone(),
            IVec::from([1, 1, 1, -1, 1]),
        );
        let run = run_clocked(&alg, &t, &Interconnect::paper_p(p as i64), &mut cells);
        assert!(!run.is_legal());
        assert!(run
            .violations
            .iter()
            .any(|v| matches!(v, ClockedViolation::MissingToken { .. })));
        // Every point still fired and produced an output bundle.
        assert_eq!(run.outputs.len(), 32);
    }

    #[test]
    fn in_flight_accounting_is_populated() {
        let (u, p) = (3usize, 3usize);
        let alg = matmul_structure(u as i64, p as i64);
        let (x, y) = mats(u, p);
        let mut cells = MatmulExpansionIICells::new(u, p, &x, &y);
        let design = PaperDesign::TimeOptimal;
        let run = run_clocked(
            &alg,
            &design.mapping(3),
            &design.interconnect(3),
            &mut cells,
        );
        assert_eq!(run.peak_in_flight.len(), 7);
        assert!(run.peak_in_flight.iter().any(|&x| x > 0));
    }
}
