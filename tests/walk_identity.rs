//! Pins the schedule-walk contract of the compiled engines.
//!
//! * The scalar and lane-packed value walks of one compiled schedule emit
//!   the same ordered trace stream and the same run, and so does a
//!   partitioned flow's batch walk at every pool size.
//! * The faulted value walks of the compiled engine match the interpreted
//!   faulted engine, under seeded plans that mix dead PEs, transient flips,
//!   dropped and duplicated transfers.
//! * The compiled faulted mapped report matches the interpreted timing
//!   simulator under the same plans.
//! * Untraced faultless walks, which reuse the bookkeeping the first such
//!   walk stores on the schedule, match the traced walks and the interpreted
//!   engine on a walked schedule, its clone and its `.blsc` round trip, also
//!   when several threads race the first walk.
//!
//! Cases: Fig. 4 and Fig. 5 at (u, p) ∈ {(2,2), (3,2), (2,3)}, plus Fig. 4's
//! mapping on Fig. 5's interconnect, where some columns cannot be routed
//! within their budget.

use bitlevel::fault::{matmul_structure, operand_matrices};
use bitlevel::systolic::{
    run_clocked, run_clocked_faulted, simulate_mapped_faulted, ClockedRun, MatmulExpansionIICells,
    MatmulLaneCells, MatmulSignals, NoFaults,
};
use bitlevel::{
    AlgorithmTriplet, BackendUsed, CompiledSchedule, DesignFlow, FaultKind, FaultPlan,
    Interconnect, MappingMatrix, PaperDesign, RandomFault, RecordingSink, SimBackend,
    TargetedFault, TraceEvent,
};
use std::sync::{Arc, Barrier};

const SHAPES: [(usize, usize); 3] = [(2, 2), (3, 2), (2, 3)];

/// Pool sizes every partitioned flow runs at.
const WORKERS: [usize; 3] = [1, 2, 3];

/// Lanes of every lane-packed walk (not a power of two on purpose).
const LANES: usize = 5;

/// One `u×u` operand matrix.
type Matrix = Vec<Vec<u128>>;

struct Case {
    name: String,
    /// The paper design, when the mapping runs on its own machine.
    design: Option<PaperDesign>,
    u: usize,
    p: usize,
    alg: AlgorithmTriplet,
    t: MappingMatrix,
    ic: Interconnect,
}

impl Case {
    fn new(u: usize, p: usize, mapping: PaperDesign, machine: PaperDesign) -> Case {
        Case {
            name: format!("{mapping:?} on {machine:?} at (u, p) = ({u}, {p})"),
            design: (mapping == machine).then_some(mapping),
            u,
            p,
            alg: matmul_structure(u, p),
            t: mapping.mapping(p as i64),
            ic: machine.interconnect(p as i64),
        }
    }

    fn schedule(&self) -> Arc<CompiledSchedule> {
        Arc::new(CompiledSchedule::try_compile(&self.alg, &self.t, &self.ic).expect("compiles"))
    }

    fn cells(&self, seed: u64) -> MatmulExpansionIICells {
        let (x, y) = operand_matrices(self.u, self.p, seed);
        MatmulExpansionIICells::new(self.u, self.p, &x, &y)
    }

    /// `LANES` operand pairs; lane 0 carries `self.cells(seed)`'s operands.
    fn operands(&self, seed: u64) -> (Vec<Matrix>, Vec<Matrix>) {
        (0..LANES as u64)
            .map(|l| operand_matrices(self.u, self.p, seed + l))
            .unzip()
    }

    /// The lane-packed cells of `self.operands(seed)`.
    fn lanes(&self, seed: u64) -> MatmulLaneCells {
        let (xs, ys) = self.operands(seed);
        MatmulLaneCells::new(self.u, self.p, &xs, &ys)
    }
}

fn cases() -> Vec<Case> {
    use PaperDesign::{NearestNeighbour, TimeOptimal};
    let mut out = Vec::new();
    for (u, p) in SHAPES {
        out.push(Case::new(u, p, TimeOptimal, TimeOptimal));
        out.push(Case::new(u, p, NearestNeighbour, NearestNeighbour));
        out.push(Case::new(u, p, TimeOptimal, NearestNeighbour));
    }
    out
}

/// Three seeded plans per case. Each kills one PE outright and samples
/// transient flips plus dropped and duplicated transfers on every column.
fn plans(case: &Case) -> Vec<FaultPlan> {
    let m = case.alg.deps.len();
    let pes: Vec<_> = case
        .alg
        .index_set
        .iter_points()
        .map(|q| case.t.place(&q))
        .collect();
    [0x5EED_u64, 0xF00D, 0xBEEF]
        .iter()
        .enumerate()
        .map(|(k, &seed)| {
            let mut random = vec![RandomFault {
                kind: FaultKind::TransientFlip { bit: k % 5 },
                rate: 0.1,
            }];
            for column in 0..m {
                random.push(RandomFault {
                    kind: FaultKind::DroppedTransfer { column },
                    rate: 0.08,
                });
                random.push(RandomFault {
                    kind: FaultKind::DuplicatedTransfer { column },
                    rate: 0.08,
                });
            }
            FaultPlan {
                seed,
                targeted: vec![TargetedFault {
                    kind: FaultKind::DeadPe,
                    pe: pes[(7 * k + 3) % pes.len()].clone(),
                    cycle: None,
                }],
                random,
            }
        })
        .collect()
}

/// Tallies injected faults as [dead PE, transient flip, dropped transfer,
/// duplicated transfer].
fn count_kinds(events: &[TraceEvent], kinds: &mut [usize; 4]) {
    for e in events {
        if let TraceEvent::FaultInjected { kind, .. } = e {
            let prefixes = ["dead_pe", "transient_flip", "dropped_", "duplicated_"];
            if let Some(k) = prefixes.iter().position(|p| kind.starts_with(p)) {
                kinds[k] += 1;
            }
        }
    }
}

/// Checks every value walk of `case` against the scalar compiled walk.
fn check_streams(case: &Case) {
    let name = &case.name;
    let sched = case.schedule();
    let cells = case.cells(11);
    let lanes = case.lanes(11);

    let mut sink = RecordingSink::new();
    let scalar = sched.execute_faulted(&cells, &mut sink, &NoFaults);
    let reference = sink.events().to_vec();
    assert_eq!(
        sink.rollup().fire_total() as usize,
        sched.n_points(),
        "{name}"
    );

    let mut sink = RecordingSink::new();
    let batch = sched.execute_batch_traced(&lanes, &mut sink);
    assert_eq!(sink.events(), &reference[..], "{name}: batch stream");
    assert_eq!(batch.lanes, LANES, "{name}");
    assert_eq!(batch.cycles, scalar.cycles, "{name}");
    assert_eq!(batch.violations, scalar.violations, "{name}");
    assert_eq!(batch.peak_in_flight, scalar.peak_in_flight, "{name}");
    let lane0 = batch.extract_lane_run(&lanes, 0);
    assert_eq!(lane0.outputs, scalar.outputs, "{name}: lane 0");
    assert_eq!(lane0.violations, scalar.violations, "{name}: lane 0");

    // A partitioned flow walks the compiled schedule; its stream opens
    // with the flow's cache query.
    let Some(design) = case.design else { return };
    let (xs, ys) = case.operands(11);
    for workers in WORKERS {
        let flow = DesignFlow::matmul(case.u as i64, case.p)
            .with_backend(SimBackend::Partitioned { workers });
        let mut sink = RecordingSink::new();
        let rep = flow.evaluate_batch_traced(design, &xs, &ys, &mut sink);
        let what = format!("{name}: k={workers} flow");
        assert_eq!(
            rep.backend_used,
            BackendUsed::Partitioned { workers },
            "{what}"
        );
        assert!(
            matches!(sink.events().first(), Some(TraceEvent::CacheQuery { .. })),
            "{what}"
        );
        assert_eq!(&sink.events()[1..], &reference[..], "{what} stream");
        assert_eq!(rep.walks, 1, "{what}");
        assert_eq!(rep.cycles, batch.cycles, "{what}");
        assert_eq!(rep.legal, batch.is_legal(), "{what}");
        assert_eq!(rep.products, lanes.extract_products(&batch), "{what}");
    }
}

#[test]
fn scalar_batch_and_partitioned_walks_emit_one_stream() {
    let mut unroutable = 0;
    for case in cases() {
        check_streams(&case);
        let mut sink = RecordingSink::new();
        case.schedule()
            .execute_faulted(&case.cells(0), &mut sink, &NoFaults);
        unroutable += sink
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::ColumnUnroutable { .. }))
            .count();
    }
    assert!(unroutable > 0, "no case exercised an unroutable column");
}

#[test]
fn fig4_at_4_4_walks_emit_one_stream() {
    // The largest case, with the widest cycle slices.
    let case = Case::new(4, 4, PaperDesign::TimeOptimal, PaperDesign::TimeOptimal);
    check_streams(&case);
}

#[test]
fn faulted_value_walks_match_the_interpreted_faulted_engine() {
    let mut faults = 0;
    let mut kinds = [0usize; 4];
    for case in cases() {
        let sched = case.schedule();
        for (k, plan) in plans(&case).iter().enumerate() {
            let name = format!("{} plan {k}", case.name);
            let resolved = plan.resolve(&case.alg, &case.t);
            let mut cells = case.cells(k as u64);
            let mut sink = RecordingSink::new();
            let oracle = run_clocked_faulted(
                &case.alg, &case.t, &case.ic, &mut cells, &mut sink, &resolved,
            );
            let oracle_faults = sink.rollup().faults;
            faults += oracle_faults;
            count_kinds(sink.events(), &mut kinds);

            let mut sink = RecordingSink::new();
            let run = sched.execute_faulted(&cells, &mut sink, &resolved);
            assert_eq!(run.outputs, oracle.outputs, "{name}: compiled");
            assert_eq!(run.violations, oracle.violations, "{name}: compiled");
            assert_eq!(
                run.peak_in_flight, oracle.peak_in_flight,
                "{name}: compiled"
            );
            assert_eq!(sink.rollup().faults, oracle_faults, "{name}: compiled");
        }
    }
    assert!(faults >= 500, "plans injected only {faults} faults");
    assert!(
        kinds.iter().all(|&n| n > 0),
        "some fault kind never fired: {kinds:?}"
    );
}

/// Debug renderings of a stream, sorted: the interpreted timing simulator
/// walks points in lexicographic order, the compiled one cycle-major.
fn sorted_events(events: &[TraceEvent]) -> Vec<String> {
    let mut out: Vec<String> = events.iter().map(|e| format!("{e:?}")).collect();
    out.sort();
    out
}

#[test]
fn faulted_mapped_reports_match_the_interpreted_simulator() {
    let mut faults = 0;
    let mut kinds = [0usize; 4];
    for case in cases() {
        let sched = case.schedule();

        let mut sink = RecordingSink::new();
        let oracle = simulate_mapped_faulted(&case.alg, &case.t, &case.ic, &mut sink, &NoFaults);
        let oracle_events = sorted_events(sink.events());
        let mut sink = RecordingSink::new();
        let report = sched.mapped_report_faulted(&mut sink, &NoFaults);
        let name = &case.name;
        assert!(
            report.bit_identical(&oracle),
            "{name}: {:?}",
            report.divergences_from(&oracle)
        );
        assert_eq!(sorted_events(sink.events()), oracle_events, "{name}");
        let mut sink = RecordingSink::new();
        let report = sched.mapped_report_faulted(&mut sink, &NoFaults);
        assert!(report.bit_identical(&oracle), "{name}: NoFaults");
        assert_eq!(sorted_events(sink.events()), oracle_events, "{name}");

        for (k, plan) in plans(&case).iter().enumerate() {
            let name = format!("{} plan {k}", case.name);
            let resolved = plan.resolve(&case.alg, &case.t);
            let mut sink = RecordingSink::new();
            let oracle =
                simulate_mapped_faulted(&case.alg, &case.t, &case.ic, &mut sink, &resolved);
            let oracle_rollup = sink.rollup().clone();
            let oracle_events = sorted_events(sink.events());
            faults += oracle_rollup.faults;
            count_kinds(sink.events(), &mut kinds);

            let mut sink = RecordingSink::new();
            let report = sched.mapped_report_faulted(&mut sink, &resolved);
            assert!(
                report.bit_identical(&oracle),
                "{name}: {:?}",
                report.divergences_from(&oracle)
            );
            let rollup = sink.rollup();
            assert_eq!(rollup.fires, oracle_rollup.fires, "{name}");
            assert_eq!(rollup.pe_fires, oracle_rollup.pe_fires, "{name}");
            assert_eq!(rollup.violations, oracle_rollup.violations, "{name}");
            assert_eq!(rollup.faults, oracle_rollup.faults, "{name}");
            assert_eq!(sorted_events(sink.events()), oracle_events, "{name}");
        }
    }
    assert!(faults >= 500, "plans injected only {faults} faults");
    // The timing simulator carries no values, so flips never show there.
    assert!(
        kinds[0] > 0 && kinds[2] > 0 && kinds[3] > 0,
        "some fault kind never fired: {kinds:?}"
    );
}

/// Asserts that two runs agree in outputs, violations (in order), cycles and
/// `peak_in_flight`.
fn assert_same_run(got: &ClockedRun<MatmulSignals>, want: &ClockedRun<MatmulSignals>, what: &str) {
    assert_eq!(got.outputs, want.outputs, "{what}: outputs");
    assert_eq!(got.violations, want.violations, "{what}: violations");
    assert_eq!(got.cycles, want.cycles, "{what}: cycles");
    assert_eq!(got.peak_in_flight, want.peak_in_flight, "{what}: peaks");
}

#[test]
fn untraced_walks_reuse_the_schedule_bookkeeping() {
    let mut illegal = 0;
    for case in cases() {
        let cells = case.cells(11);
        let lanes = case.lanes(11);
        let run_oracle = |seed| run_clocked(&case.alg, &case.t, &case.ic, &mut case.cells(seed));
        let oracle = vec![run_oracle(11)];
        let lane_oracles: Vec<_> = (0..LANES as u64).map(|l| run_oracle(11 + l)).collect();
        illegal += usize::from(!oracle[0].violations.is_empty());

        let sched = case.schedule();
        let traced = vec![sched.execute_faulted(&cells, &mut RecordingSink::new(), &NoFaults)];
        let traced_lanes = sched
            .execute_batch_traced(&lanes, &mut RecordingSink::new())
            .lane_runs(&lanes);

        // One untraced entry point, its runs given per lane: scalar or
        // lane-packed.
        let untraced = |sched: &Arc<CompiledSchedule>, batch: bool| {
            if batch {
                sched.execute_batch(&lanes).lane_runs(&lanes)
            } else {
                vec![sched.execute(&cells)]
            }
        };
        for batch in [false, true] {
            let (traced, oracle) = if batch {
                (&traced_lanes, &lane_oracles)
            } else {
                (&traced, &oracle)
            };
            let check = |sched: &Arc<CompiledSchedule>, what: &str| {
                let runs = untraced(sched, batch);
                assert_eq!(runs.len(), traced.len());
                for (l, run) in runs.iter().enumerate() {
                    let what = format!("{}: batch {batch}, {what}, lane {l}", case.name);
                    assert_same_run(run, &traced[l], &format!("{what} vs traced"));
                    assert_same_run(run, &oracle[l], &format!("{what} vs interpreted"));
                }
            };
            // The first walk fills the stored bookkeeping, the second reads it.
            let sched = case.schedule();
            check(&sched, "first walk");
            check(&sched, "second walk");
            check(&Arc::new(CompiledSchedule::clone(&sched)), "clone");
            let decoded = CompiledSchedule::from_bytes(&sched.to_bytes()).expect("round trip");
            check(&Arc::new(decoded), ".blsc round trip");
        }
    }
    assert!(illegal > 0, "no case had a violation to reuse");
}

#[test]
fn racing_first_untraced_walks_all_see_the_traced_run() {
    let case = Case::new(
        2,
        2,
        PaperDesign::TimeOptimal,
        PaperDesign::NearestNeighbour,
    );
    let lanes = case.lanes(3);
    let traced = case
        .schedule()
        .execute_batch_traced(&lanes, &mut RecordingSink::new());
    assert!(!traced.violations.is_empty());
    for threads in 2..=4 {
        let sched = case.schedule();
        let start = Barrier::new(threads);
        let runs: Vec<_> = std::thread::scope(|scope| {
            let walkers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        sched.execute_batch(&lanes)
                    })
                })
                .collect();
            walkers
                .into_iter()
                .map(|w| w.join().expect("walker panicked"))
                .collect()
        });
        for (k, run) in runs.iter().enumerate() {
            let what = format!("{threads} threads, walker {k}");
            assert_eq!(run.outputs, traced.outputs, "{what}");
            assert_eq!(run.violations, traced.violations, "{what}");
            assert_eq!(run.cycles, traced.cycles, "{what}");
            assert_eq!(run.peak_in_flight, traced.peak_in_flight, "{what}");
        }
    }
}
