//! Generic cycle-accurate verification of a mapped algorithm.
//!
//! Given an algorithm `(J, D, E)`, a mapping `T = [S; Π]` and a machine
//! description `P`, this simulator *measures* what the closed-form results of
//! Section 4 assert: it walks the schedule cycle by cycle and checks
//!
//! * **makespan** — the number of cycles between the first and last busy
//!   cycle (eq. (4.5) claims `3(u−1)+3(p−1)+1` for the Fig. 4 design);
//! * **conflict-freeness** — no processor executes two points in one cycle;
//! * **causality with routing** — every exercised dependence instance
//!   `(j̄, d̄)` has its producer scheduled early enough that the datum can
//!   traverse its route: `hops(S·d̄) ≤ Π·d̄`;
//! * **processor count and utilisation**;
//! * **link traffic** per interconnection primitive.
//!
//! It also provides mapping-independent structure metrics used by experiment
//! E9: the **critical path** of the dependence DAG (a lower bound on any
//! schedule) and the **fan-in histogram** ("in Expansion II, four or five
//! bits have to be summed on the hyperplane `i₁ = p`. This may cause
//! unbalanced load distribution").

use crate::clocked::ClockedViolation;
use crate::fault::{FaultInjector, NoFaults, TransferFault};
use crate::trace::{NullSink, TraceEvent, TraceSink};
use bitlevel_ir::AlgorithmTriplet;
use bitlevel_linalg::IVec;
use bitlevel_mapping::{Interconnect, MappingMatrix, Routing};
use std::collections::HashMap;

/// Measured results of simulating a mapped algorithm.
#[derive(Debug, Clone)]
pub struct MappedRunReport {
    /// Total busy cycles (first to last, inclusive) — the measured (4.5).
    pub cycles: i64,
    /// Distinct processors used.
    pub processors: usize,
    /// Total computations executed (= |J|).
    pub computations: u128,
    /// True iff no (processor, cycle) pair is used twice.
    pub conflict_free: bool,
    /// True iff every exercised dependence instance meets its routing budget.
    pub causality_ok: bool,
    /// Busy PE-cycles divided by `processors × cycles`.
    pub utilization: f64,
    /// Peak number of PEs busy in any single cycle.
    pub peak_parallelism: usize,
    /// Data movements per interconnection primitive (by column index of `P`).
    pub link_traffic: Vec<u64>,
    /// Total buffer-cycles consumed (slack between budget and hops, summed
    /// over all dependence instances).
    pub buffer_cycles: u64,
}

impl MappedRunReport {
    /// Names of the fields on which `self` and `other` disagree **bit-exactly**
    /// (`utilization` is compared by its IEEE-754 bits, not by `==`, so two
    /// reports agreeing here are byte-for-byte the same measurement). Empty
    /// means the two engines measured the identical run — the
    /// compiled-vs-interpreted cross-check used by the design-flow explorer
    /// and the engine sweep.
    pub fn divergences_from(&self, other: &MappedRunReport) -> Vec<&'static str> {
        let mut out = Vec::new();
        if self.cycles != other.cycles {
            out.push("cycles");
        }
        if self.processors != other.processors {
            out.push("processors");
        }
        if self.computations != other.computations {
            out.push("computations");
        }
        if self.conflict_free != other.conflict_free {
            out.push("conflict_free");
        }
        if self.causality_ok != other.causality_ok {
            out.push("causality_ok");
        }
        if self.utilization.to_bits() != other.utilization.to_bits() {
            out.push("utilization");
        }
        if self.peak_parallelism != other.peak_parallelism {
            out.push("peak_parallelism");
        }
        if self.link_traffic != other.link_traffic {
            out.push("link_traffic");
        }
        if self.buffer_cycles != other.buffer_cycles {
            out.push("buffer_cycles");
        }
        out
    }

    /// True iff [`MappedRunReport::divergences_from`] is empty.
    pub fn bit_identical(&self, other: &MappedRunReport) -> bool {
        self.divergences_from(other).is_empty()
    }
}

/// Simulates `alg` under mapping `t` on machine `ic`.
///
/// # Panics
/// Panics on dimension mismatches between the three arguments.
pub fn simulate_mapped(
    alg: &AlgorithmTriplet,
    t: &MappingMatrix,
    ic: &Interconnect,
) -> MappedRunReport {
    simulate_mapped_traced(alg, t, ic, &mut NullSink)
}

/// [`simulate_mapped`] with a [`TraceSink`] observing routes, fires and
/// violations. With [`NullSink`] the guards compile away; the compiled
/// counterpart is [`crate::compiled::CompiledSchedule::mapped_report_traced`]
/// (same rollup counters, cycle-major event order).
pub fn simulate_mapped_traced<K: TraceSink>(
    alg: &AlgorithmTriplet,
    t: &MappingMatrix,
    ic: &Interconnect,
    sink: &mut K,
) -> MappedRunReport {
    simulate_mapped_faulted(alg, t, ic, sink, &NoFaults)
}

/// [`simulate_mapped_traced`] with a [`FaultInjector`] (over the unit bundle
/// `()` — the timing simulator carries no values): dead PEs keep their place
/// in the array (they occupy a processor and can still conflict) but execute
/// nothing, dropped transfers shed their link traffic, duplicated transfers
/// pay it twice. With [`NoFaults`] the fault branches compile away and this
/// *is* [`simulate_mapped_traced`]; the compiled counterpart is
/// [`crate::compiled::CompiledSchedule::mapped_report_faulted`].
pub fn simulate_mapped_faulted<K: TraceSink, F: FaultInjector<()>>(
    alg: &AlgorithmTriplet,
    t: &MappingMatrix,
    ic: &Interconnect,
    sink: &mut K,
    faults: &F,
) -> MappedRunReport {
    assert_eq!(t.n(), alg.dim(), "mapping/algorithm dimension mismatch");
    let set = &alg.index_set;

    // Pre-route every distinct dependence vector once.
    let budgets: Vec<i64> = alg.deps.iter().map(|d| d.vector.dot(&t.schedule)).collect();
    let full_routes: Vec<Option<Routing>> = alg
        .deps
        .iter()
        .zip(&budgets)
        .map(|(d, &budget)| {
            if budget <= 0 {
                return None;
            }
            ic.route(&t.space.matvec(&d.vector), budget)
        })
        .collect();
    if K::ENABLED {
        for (i, r) in full_routes.iter().enumerate() {
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
    let routes: Vec<Option<(IVec, i64)>> = full_routes
        .into_iter()
        .map(|r| r.map(|r| (r.usage, r.buffers)))
        .collect();

    let mut time_min = i64::MAX;
    let mut time_max = i64::MIN;
    let mut occupancy: HashMap<(IVec, i64), u32> = HashMap::new();
    let mut busy_per_cycle: HashMap<i64, usize> = HashMap::new();
    let mut processors: std::collections::HashSet<IVec> = std::collections::HashSet::new();
    let mut link_traffic = vec![0u64; ic.count()];
    let mut buffer_cycles = 0u64;
    let mut causality_ok = true;
    let mut conflict_free = true;
    let mut computations: u128 = 0;

    for q in set.iter_points() {
        let time = t.time(&q);
        let place = t.place(&q);
        time_min = time_min.min(time);
        time_max = time_max.max(time);
        let dead = F::ENABLED && faults.pe_dead(&place);
        if !dead {
            computations += 1;
            *busy_per_cycle.entry(time).or_insert(0) += 1;
        }
        if K::ENABLED {
            sink.record(TraceEvent::PointFired {
                cycle: time,
                point: q.clone(),
                processor: place.clone(),
            });
        }
        if F::ENABLED && dead && K::ENABLED {
            sink.record(TraceEvent::FaultInjected {
                cycle: time,
                point: q.clone(),
                processor: place.clone(),
                column: None,
                kind: "dead_pe".into(),
            });
        }
        let slot = occupancy.entry((place.clone(), time)).or_insert(0);
        *slot += 1;
        if *slot > 1 {
            conflict_free = false;
            if K::ENABLED {
                let v = ClockedViolation::ProcessorConflict {
                    processor: place.to_string(),
                    cycle: time,
                };
                sink.record(TraceEvent::Violation {
                    cycle: time,
                    description: v.to_string(),
                });
            }
        }
        if dead {
            processors.insert(place);
            continue;
        }

        for (di, d) in alg.deps.iter().enumerate() {
            if !d.active_at(&q, set) {
                continue;
            }
            let tf = if F::ENABLED {
                faults.on_transfer(time, &q, di)
            } else {
                TransferFault::None
            };
            if tf == TransferFault::Drop {
                if K::ENABLED {
                    sink.record(TraceEvent::FaultInjected {
                        cycle: time,
                        point: q.clone(),
                        processor: place.clone(),
                        column: Some(di),
                        kind: "dropped_transfer".into(),
                    });
                }
                continue;
            }
            match &routes[di] {
                Some((usage, buffers)) => {
                    let mult: u64 = if tf == TransferFault::Duplicate { 2 } else { 1 };
                    for (j, &cnt) in usage.iter().enumerate() {
                        link_traffic[j] += cnt as u64 * mult;
                    }
                    buffer_cycles += *buffers as u64 * mult;
                    if F::ENABLED && tf == TransferFault::Duplicate && K::ENABLED {
                        sink.record(TraceEvent::FaultInjected {
                            cycle: time,
                            point: q.clone(),
                            processor: place.clone(),
                            column: Some(di),
                            kind: "duplicated_transfer".into(),
                        });
                    }
                }
                None => {
                    causality_ok = false;
                    if K::ENABLED {
                        let v = ClockedViolation::RouteTooSlow {
                            consumer: q.to_string(),
                            column: di,
                            hops: -1,
                            budget: budgets[di],
                        };
                        sink.record(TraceEvent::Violation {
                            cycle: time,
                            description: v.to_string(),
                        });
                    }
                }
            }
        }
        processors.insert(place);
    }

    let cycles = if computations == 0 {
        0
    } else {
        time_max - time_min + 1
    };
    let busy_total: usize = busy_per_cycle.values().sum();
    let peak_parallelism = busy_per_cycle.values().copied().max().unwrap_or(0);
    let utilization = if cycles > 0 && !processors.is_empty() {
        busy_total as f64 / (processors.len() as f64 * cycles as f64)
    } else {
        0.0
    };

    MappedRunReport {
        cycles,
        processors: processors.len(),
        computations,
        conflict_free,
        causality_ok,
        utilization,
        peak_parallelism,
        link_traffic,
        buffer_cycles,
    }
}

/// ASAP (dataflow) depth of every index point: `depth(q̄) = 1 + max` over
/// active incoming dependences of the producer's depth. `Π`-independent.
pub fn asap_depths(alg: &AlgorithmTriplet) -> HashMap<IVec, u64> {
    let set = &alg.index_set;
    // Memoised DFS: depth(q) = 1 + max over active deps of depth(q−d). A
    // temporary 0 sentinel guards against dependence cycles (which would be a
    // bug in the structure; depth is always ≥ 1 for real entries).
    fn depth(q: &IVec, alg: &AlgorithmTriplet, memo: &mut HashMap<IVec, u64>) -> u64 {
        if let Some(&v) = memo.get(q) {
            return v;
        }
        memo.insert(q.clone(), 0);
        let mut best = 0u64;
        let set = &alg.index_set;
        for d in alg.deps.iter() {
            if d.active_at(q, set) {
                let src = q - &d.vector;
                best = best.max(depth(&src, alg, memo));
            }
        }
        let v = best + 1;
        memo.insert(q.clone(), v);
        v
    }
    let mut memo = HashMap::new();
    for q in set.iter_points() {
        depth(&q, alg, &mut memo);
    }
    memo
}

/// The critical path of the dependence DAG: the longest chain of exercised
/// dependence instances, in *computations* (nodes). `Π`-independent — a lower
/// bound on the makespan of **any** schedule that executes one computation
/// per PE per cycle.
pub fn critical_path(alg: &AlgorithmTriplet) -> u64 {
    asap_depths(alg).values().copied().max().unwrap_or(0)
}

/// Mean ASAP depth of the *producers* of one dependence column's exercised
/// instances — "how late is the data this edge carries?".
///
/// This quantifies the paper's Section 3.2 comparison: in Expansion I the
/// inter-iteration edge `d̄₃` carries partial-sum bits produced **shallowly**,
/// while in Expansion II it carries final result bits available only after
/// the whole tile drain, so II's producers are much deeper.
pub fn mean_producer_depth(alg: &AlgorithmTriplet, dep_index: usize) -> Option<f64> {
    let set = &alg.index_set;
    let depths = asap_depths(alg);
    let d = alg.deps.get(dep_index);
    let mut total = 0u64;
    let mut count = 0u64;
    for q in set.iter_points() {
        if d.active_at(&q, set) {
            let src = &q - &d.vector;
            total += depths[&src];
            count += 1;
        }
    }
    (count > 0).then(|| total as f64 / count as f64)
}

/// Fan-in histogram: for each point, the number of active incoming
/// dependences (+1 implicit operand for the partial product); returns
/// `counts[k]` = number of points with `k` active incoming dependence edges.
pub fn fanin_histogram(alg: &AlgorithmTriplet) -> Vec<u64> {
    let set = &alg.index_set;
    let mut counts: Vec<u64> = Vec::new();
    for q in set.iter_points() {
        let k = alg.deps.active_at(&q, set).count();
        if counts.len() <= k {
            counts.resize(k + 1, 0);
        }
        counts[k] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitlevel_ir::{BoxSet, Dependence, DependenceSet, Predicate, WordLevelAlgorithm};
    use bitlevel_linalg::IMat;
    use bitlevel_mapping::PaperDesign;

    fn matmul_bitlevel(u: i64, p: i64) -> AlgorithmTriplet {
        let j = BoxSet::cube(3, 1, u).product(&BoxSet::cube(2, 1, p));
        AlgorithmTriplet::new(
            j,
            DependenceSet::new(vec![
                Dependence::conditional([1, 0, 0, 0, 0], "y", Predicate::eq_const(4, 1)),
                Dependence::conditional([0, 1, 0, 0, 0], "x", Predicate::eq_const(3, 1)),
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
            "bit-level matmul, Expansion II",
        )
    }

    #[test]
    fn fig4_design_measures_eq_4_5() {
        for (u, p) in [(2i64, 2i64), (3, 3), (4, 2), (2, 4)] {
            let alg = matmul_bitlevel(u, p);
            let design = PaperDesign::TimeOptimal;
            let rep = simulate_mapped(&alg, &design.mapping(p), &design.interconnect(p));
            assert_eq!(rep.cycles, 3 * (u - 1) + 3 * (p - 1) + 1, "u={u} p={p}");
            assert_eq!(rep.processors as i64, u * u * p * p);
            assert!(rep.conflict_free);
            assert!(rep.causality_ok);
            assert_eq!(rep.computations, (u as u128).pow(3) * (p as u128).pow(2));
        }
    }

    #[test]
    fn fig5_design_measures_its_formula() {
        for (u, p) in [(2i64, 2i64), (3, 3)] {
            let alg = matmul_bitlevel(u, p);
            let design = PaperDesign::NearestNeighbour;
            let rep = simulate_mapped(&alg, &design.mapping(p), &design.interconnect(p));
            assert_eq!(
                rep.cycles,
                (2 * p + 1) * (u - 1) + 3 * (p - 1) + 1,
                "u={u} p={p}"
            );
            assert_eq!(rep.processors as i64, u * u * p * p);
            assert!(rep.conflict_free && rep.causality_ok);
        }
    }

    #[test]
    fn fig4_faster_than_fig5_but_uses_long_wires() {
        let (u, p) = (4i64, 4i64);
        let alg = matmul_bitlevel(u, p);
        let r4 = simulate_mapped(
            &alg,
            &PaperDesign::TimeOptimal.mapping(p),
            &PaperDesign::TimeOptimal.interconnect(p),
        );
        let r5 = simulate_mapped(
            &alg,
            &PaperDesign::NearestNeighbour.mapping(p),
            &PaperDesign::NearestNeighbour.interconnect(p),
        );
        assert!(r4.cycles < r5.cycles);
        assert_eq!(
            PaperDesign::TimeOptimal.interconnect(p).max_wire_length(),
            p
        );
        assert_eq!(
            PaperDesign::NearestNeighbour
                .interconnect(p)
                .max_wire_length(),
            1
        );
    }

    #[test]
    fn conflict_is_detected() {
        let alg = matmul_bitlevel(2, 2);
        // Break injectivity: zero out one S row.
        let t = MappingMatrix::new(
            IMat::from_rows(&[&[0, 0, 0, 0, 0], &[0, 2, 0, 0, 1]]),
            bitlevel_linalg::IVec::from([1, 1, 1, 2, 1]),
        );
        let rep = simulate_mapped(&alg, &t, &Interconnect::paper_p(2));
        assert!(!rep.conflict_free);
    }

    #[test]
    fn causality_violation_is_detected() {
        let alg = matmul_bitlevel(2, 2);
        // Schedule too tight for the nearest-neighbour machine: Π·d̄₁ = 1 but
        // S·d̄₁ = [p,0] needs p hops.
        let t = PaperDesign::TimeOptimal.mapping(2);
        let rep = simulate_mapped(&alg, &t, &Interconnect::paper_p_prime());
        assert!(!rep.causality_ok);
    }

    #[test]
    fn word_level_matmul_cycles() {
        // The word-level structure (2.4) under Π = [1,1,1], S = [[1,0,0],[0,1,0]]
        // measures 3(u−1)+1 word cycles on the 4-neighbour mesh with a static
        // z (the structure of [4] cited in Section 4.2).
        let u = 4i64;
        let alg = WordLevelAlgorithm::matmul(u).triplet();
        let t = MappingMatrix::new(
            IMat::from_rows(&[&[1, 0, 0], &[0, 1, 0]]),
            bitlevel_linalg::IVec::from([1, 1, 1]),
        );
        // Mesh plus a static link so the stationary z (S·d̄₃ = 0) is routable.
        let ic = Interconnect::new(IMat::from_rows(&[&[0, 0, 1, -1, 0], &[1, -1, 0, 0, 0]]));
        let rep = simulate_mapped(&alg, &t, &ic);
        assert_eq!(rep.cycles, 3 * (u - 1) + 1);
        assert_eq!(rep.processors as i64, u * u);
        assert!(rep.conflict_free && rep.causality_ok);
    }

    #[test]
    fn critical_path_of_word_level_matmul() {
        // Longest chain: u steps of z accumulation + pipelining ramps; for
        // the uniform structure it is (u−1)·3 + 1 nodes along the extreme
        // diagonal (each of the three unit dependences chains u−1 times).
        let alg = WordLevelAlgorithm::matmul(3).triplet();
        assert_eq!(critical_path(&alg), 7); // 3·(3−1)+1
    }

    #[test]
    fn critical_path_expansion_comparison() {
        // Expansion I's critical path must not exceed Expansion II's: II
        // serialises tiles (full drain before the next tile consumes).
        let i = expansion_structure(Expn::I, 3, 3);
        let ii = expansion_structure(Expn::II, 3, 3);
        assert!(critical_path(&i) <= critical_path(&ii));
    }

    enum Expn {
        I,
        II,
    }

    /// 1-D recurrence structures of eqs. (3.8)/(3.9) for the comparison test.
    fn expansion_structure(e: Expn, u: i64, p: i64) -> AlgorithmTriplet {
        let j = BoxSet::cube(1, 1, u).product(&BoxSet::cube(2, 1, p));
        let (d3v, d6v, d7v) = match e {
            Expn::I => (
                Predicate::always(),
                Predicate::eq_upper(0),
                Predicate::ne_const(1, 1)
                    .or(&Predicate::not_in(2, &[1, 2]))
                    .and(&Predicate::eq_upper(0)),
            ),
            Expn::II => (
                Predicate::eq_const(1, p).or(&Predicate::eq_const(2, 1)),
                Predicate::always(),
                Predicate::eq_const(1, p),
            ),
        };
        AlgorithmTriplet::new(
            j,
            DependenceSet::new(vec![
                Dependence::conditional([1, 0, 0], "x", Predicate::eq_const(1, 1)),
                Dependence::conditional([1, 0, 0], "y", Predicate::eq_const(2, 1)),
                Dependence::conditional([1, 0, 0], "z", d3v),
                Dependence::conditional([0, 1, 0], "x", Predicate::ne_const(1, 1)),
                Dependence::conditional([0, 0, 1], "y,c", Predicate::ne_const(2, 1)),
                Dependence::conditional([0, 1, -1], "z", d6v),
                Dependence::conditional([0, 0, 2], "c'", d7v),
            ]),
            "1-D expansion structure",
        )
    }

    #[test]
    fn fanin_histogram_shows_expansion_ii_wide_adders() {
        let ii = expansion_structure(Expn::II, 3, 3);
        let hist = fanin_histogram(&ii);
        // Some points must have ≥ 4 active incoming edges (the i₁ = p plane),
        // which Expansion I avoids everywhere except j = u.
        assert!(hist.len() >= 5, "{hist:?}");
        let i = expansion_structure(Expn::I, 3, 3);
        let hist_i = fanin_histogram(&i);
        // Expansion I has strictly fewer wide points.
        let wide = |h: &[u64]| h.iter().skip(4).sum::<u64>();
        assert!(wide(&hist_i) < wide(&hist), "{hist_i:?} vs {hist:?}");
    }

    #[test]
    fn utilization_and_traffic_are_populated() {
        let alg = matmul_bitlevel(2, 2);
        let d = PaperDesign::TimeOptimal;
        let rep = simulate_mapped(&alg, &d.mapping(2), &d.interconnect(2));
        assert!(rep.utilization > 0.0 && rep.utilization <= 1.0);
        assert!(rep.peak_parallelism >= 1);
        assert!(rep.link_traffic.iter().sum::<u64>() > 0);
    }

    #[test]
    fn divergence_report_names_exactly_the_differing_fields() {
        let alg = matmul_bitlevel(2, 2);
        let d = PaperDesign::TimeOptimal;
        let rep = simulate_mapped(&alg, &d.mapping(2), &d.interconnect(2));
        assert!(rep.bit_identical(&rep));
        let mut other = rep.clone();
        other.cycles += 1;
        other.link_traffic[0] += 1;
        assert_eq!(rep.divergences_from(&other), vec!["cycles", "link_traffic"]);
        assert!(!rep.bit_identical(&other));
    }

    #[test]
    fn compiled_and_interpreted_engines_are_bit_identical_on_paper_designs() {
        for (u, p) in [(2i64, 2i64), (3, 2)] {
            let alg = matmul_bitlevel(u, p);
            for d in [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour] {
                let interp = simulate_mapped(&alg, &d.mapping(p), &d.interconnect(p));
                let compiled = crate::compiled::CompiledSchedule::try_compile(
                    &alg,
                    &d.mapping(p),
                    &d.interconnect(p),
                )
                .expect("paper structures compile")
                .mapped_report();
                assert_eq!(
                    compiled.divergences_from(&interp),
                    Vec::<&str>::new(),
                    "u={u} p={p} {:?}",
                    d
                );
            }
        }
    }
}
