//! The backend-dispatch contract of `DesignFlow`, pinned entry point by
//! entry point: for every backend configuration and every kind of structure
//! (compilable, too wide to compile, compilable but not causal), which
//! engine ran, what evidence the report carries, which cache/fallback
//! events reach the trace and in what order, and that the run matches the
//! interpreted oracle.

use bitlevel::fault::{FaultKind, FaultPlan, TargetedFault};
use bitlevel::ir::{Dependence, DependenceSet};
use bitlevel::linalg::{IMat, IVec};
use bitlevel::systolic::{CompileError, NoFaults};
use bitlevel::{
    AlgorithmTriplet, ArchitectureReport, BitMatmulArray, BoxSet, DesignFlow, Expansion,
    Interconnect, MappingMatrix, NullSink, PaperDesign, PartitionError, RecordingSink, SimBackend,
    TraceEvent, WordLevelAlgorithm,
};

const INTERPRETED: SimBackend = SimBackend::Interpreted;
const COMPILED: SimBackend = SimBackend::Compiled;
const BATCH_64: SimBackend = SimBackend::CompiledBatch { width: 64 };
const BATCH_65: SimBackend = SimBackend::CompiledBatch { width: 65 };
const PART_2: SimBackend = SimBackend::Partitioned { workers: 2 };
/// Only reachable through the unvalidated `with_backend`.
const PART_0: SimBackend = SimBackend::Partitioned { workers: 0 };

const BACKENDS: [SimBackend; 6] = [INTERPRETED, COMPILED, BATCH_64, BATCH_65, PART_2, PART_0];

const DESIGN: PaperDesign = PaperDesign::TimeOptimal;
const EXPANSION_I: &str = "Expansion I cells are sequential";

/// The dispatch-relevant events of a trace, in order.
fn dispatch_events(sink: &RecordingSink) -> Vec<String> {
    sink.events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::CacheQuery { outcome, .. } => Some(format!("cache {outcome}")),
            TraceEvent::BackendFallback { from, to, .. } => {
                Some(format!("fallback {from} -> {to}"))
            }
            TraceEvent::BatchWidthClamped { requested, used } => {
                Some(format!("clamp {requested} -> {used}"))
            }
            _ => None,
        })
        .collect()
}

fn events(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn zero_workers() -> String {
    PartitionError::ZeroWorkers.to_string()
}

/// Fig. 4 at (u, p) = (2, 2): compiles, causal, 32 points.
fn fig4() -> (AlgorithmTriplet, MappingMatrix, Interconnect) {
    (
        DesignFlow::matmul(2, 2).bit_level_structure(),
        DESIGN.mapping(2),
        DESIGN.interconnect(2),
    )
}

/// 65 dependence columns: one more than the compiled backend's bitmask.
fn wide() -> (AlgorithmTriplet, MappingMatrix, Interconnect) {
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
    (alg, t, ic)
}

/// Dependence `[1, 0]` under `Π = [0, 1]`: compiles, but `Π·d̄ = 0`.
fn non_causal() -> (AlgorithmTriplet, MappingMatrix, Interconnect) {
    let alg = AlgorithmTriplet::new(
        BoxSet::cube(2, 1, 3),
        DependenceSet::new(vec![Dependence::uniform(IVec::from([1, 0]), "x")]),
        "non-causal 2-D structure",
    );
    let t = MappingMatrix::new(IMat::from_rows(&[&[1, 0]]), IVec::from([0, 1]));
    let ic = Interconnect::new(IMat::from_rows(&[&[1]]));
    (alg, t, ic)
}

/// What one timing-only evaluation must report.
struct Expect {
    backend_used: String,
    cache: bool,
    partition: bool,
    events: Vec<String>,
}

fn expect(backend_used: &str, cache: bool, partition: bool, evs: &[&str]) -> Expect {
    Expect {
        backend_used: backend_used.to_string(),
        cache,
        partition,
        events: events(evs),
    }
}

/// The timing-only contract on a structure that compiles: `CompiledBatch`
/// runs as plain `Compiled`, whatever its width, and a schedule the
/// partitioner declines (always under `PART_0`; under `PART_2` for the
/// reason `not_partitionable` gives) runs on the compiled engine.
fn compilable_expectations(not_partitionable: Option<String>) -> [Expect; 6] {
    let miss = "cache miss-compiled";
    let part_2 = match not_partitionable {
        Some(reason) => expect(
            &format!("compiled (fallback: {reason})"),
            true,
            false,
            &[miss, "fallback partitioned -> compiled"],
        ),
        None => expect("partitioned (workers 2)", true, true, &[miss]),
    };
    [
        expect("interpreted", false, false, &[]),
        expect("compiled", true, false, &[miss]),
        expect("compiled", true, false, &[miss]),
        expect("compiled", true, false, &[miss]),
        part_2,
        expect(
            &format!("compiled (fallback: {})", zero_workers()),
            true,
            false,
            &[miss, "fallback partitioned -> compiled"],
        ),
    ]
}

/// A timing-only report with the trace it left.
type Traced = (ArchitectureReport, RecordingSink);

fn check_timing_report(ctx: &str, (rep, sink): &Traced, oracle: &Traced, want: &Expect) {
    let (oracle, oracle_sink) = oracle;
    assert_eq!(rep.backend_used.to_string(), want.backend_used, "{ctx}");
    assert_eq!(rep.cache.is_some(), want.cache, "{ctx}: cache evidence");
    assert_eq!(rep.partition.is_some(), want.partition, "{ctx}: partition");
    assert_eq!(dispatch_events(sink), want.events, "{ctx}: events");
    assert_eq!(
        rep.run.divergences_from(&oracle.run),
        Vec::<&str>::new(),
        "{ctx}: run vs the interpreted oracle"
    );
    assert_eq!(rep.feasible, oracle.feasible, "{ctx}");
    assert_eq!(
        sink.rollup().fire_total(),
        oracle_sink.rollup().fire_total(),
        "{ctx}: fire count"
    );
    assert_eq!(sink.rollup().faults, oracle_sink.rollup().faults, "{ctx}");
}

/// A warm rerun must answer exactly as the cold run did: the same report
/// (the cache evidence aside, whose key must match), the same event stream
/// with the cache query now a memory hit, and the same fire and fault
/// counts. A warm lookup must never let a stored artefact stand in for a
/// traced or faulted walk.
fn check_warm_rerun(ctx: &str, (cold, cold_sink): &Traced, (warm, warm_sink): &Traced) {
    let strip = |rep: &ArchitectureReport| {
        let mut rep = rep.clone();
        rep.cache = None;
        format!("{rep:?}")
    };
    assert_eq!(strip(warm), strip(cold), "{ctx}: warm report");
    assert_eq!(
        warm.cache
            .as_ref()
            .map(|c| (c.key.as_str(), c.outcome.as_str())),
        cold.cache.as_ref().map(|c| (c.key.as_str(), "memory-hit")),
        "{ctx}: warm cache evidence"
    );
    let warmed: Vec<TraceEvent> = cold_sink
        .events()
        .iter()
        .cloned()
        .map(|e| match e {
            TraceEvent::CacheQuery { key, outcome } if outcome == "miss-compiled" => {
                TraceEvent::CacheQuery {
                    key,
                    outcome: "memory-hit".to_string(),
                }
            }
            e => e,
        })
        .collect();
    assert_eq!(warm_sink.events(), warmed.as_slice(), "{ctx}: warm events");
    assert_eq!(
        warm_sink.rollup().fire_total(),
        cold_sink.rollup().fire_total(),
        "{ctx}: warm fire count"
    );
    assert_eq!(
        warm_sink.rollup().faults,
        cold_sink.rollup().faults,
        "{ctx}: warm fault count"
    );
}

#[test]
fn evaluate_structure_traced_dispatch() {
    let wide_reason = CompileError::TooManyColumns { m: 65 }.to_string();
    let wide_fallback = format!("interpreted (fallback: {wide_reason})");
    let wide_from = |from: &str| {
        let event = format!("fallback {from} -> interpreted");
        expect(&wide_fallback, false, false, &[event.as_str()])
    };
    let cases = [
        ("fig4", fig4(), 32, compilable_expectations(None)),
        (
            "wide",
            wide(),
            9,
            [
                expect("interpreted", false, false, &[]),
                wide_from("compiled"),
                wide_from("compiled"),
                wide_from("compiled"),
                wide_from("partitioned"),
                wide_from("partitioned"),
            ],
        ),
        (
            "non-causal",
            non_causal(),
            9,
            compilable_expectations(Some(PartitionError::NotCausal.to_string())),
        ),
    ];
    for (label, (alg, t, ic), fires, wants) in cases {
        let traced = |flow: &DesignFlow| {
            let mut sink = RecordingSink::new();
            let rep =
                flow.evaluate_structure_faulted(label, &alg, &t, &ic, None, &mut sink, &NoFaults);
            (rep, sink)
        };
        let run = |backend| traced(&DesignFlow::matmul(2, 2).with_backend(backend));
        // A second flow, warmed by one untraced, faultless evaluation of the
        // same triple before the traced run.
        let warm_run = |backend| {
            let flow = DesignFlow::matmul(2, 2).with_backend(backend);
            flow.evaluate_structure(label, &alg, &t, &ic, None);
            traced(&flow)
        };
        let oracle = run(INTERPRETED);
        assert_eq!(oracle.1.rollup().fire_total(), fires, "{label}");
        for (backend, want) in BACKENDS.into_iter().zip(&wants) {
            let ctx = format!("{label} on {backend:?}");
            let cold = run(backend);
            check_timing_report(&ctx, &cold, &oracle, want);
            check_warm_rerun(&ctx, &cold, &warm_run(backend));
        }
    }
    // The non-causal schedule really is non-causal.
    let (alg, t, ic) = non_causal();
    let rep = DesignFlow::matmul(2, 2).evaluate_structure("non-causal", &alg, &t, &ic, None);
    assert!(!rep.run.causality_ok);
}

#[test]
fn evaluate_faulted_dispatch() {
    let (alg, t, ic) = fig4();
    let dead_pe = FaultPlan {
        seed: 0,
        targeted: vec![TargetedFault {
            kind: FaultKind::DeadPe,
            pe: IVec::from([3, 3]),
            cycle: None,
        }],
        random: vec![],
    }
    .resolve(&alg, &t);
    let wants = compilable_expectations(None);
    type Eval<'a> = &'a dyn Fn(&DesignFlow, &mut RecordingSink) -> ArchitectureReport;
    let on = |flow: &DesignFlow, faults: Eval| {
        let mut sink = RecordingSink::new();
        let rep = faults(flow, &mut sink);
        (rep, sink)
    };
    let run = |backend, faults: Eval| on(&DesignFlow::matmul(2, 2).with_backend(backend), faults);
    // A second flow, warmed by one untraced, faultless evaluation of the
    // same triple before the run under test.
    let warm_run = |backend, faults: Eval| {
        let flow = DesignFlow::matmul(2, 2).with_backend(backend);
        flow.evaluate_structure("fig4", &alg, &t, &ic, None);
        on(&flow, faults)
    };
    let faultless = |flow: &DesignFlow, sink: &mut RecordingSink| {
        flow.evaluate_structure_faulted("fig4", &alg, &t, &ic, None, sink, &NoFaults)
    };
    let dead = |flow: &DesignFlow, sink: &mut RecordingSink| {
        flow.evaluate_structure_faulted("fig4", &alg, &t, &ic, None, sink, &dead_pe)
    };
    let oracle = run(INTERPRETED, &faultless);
    let dead_oracle = run(INTERPRETED, &dead);
    // Each PE fires u = 2 of the 32 points; a dead PE loses both.
    assert_eq!(dead_oracle.0.run.computations, 30);
    assert_eq!(dead_oracle.1.rollup().faults, 2);

    for (backend, want) in BACKENDS.into_iter().zip(&wants) {
        for (faults, label, oracle) in [
            (&faultless as Eval, "NoFaults", &oracle),
            (&dead, "dead PE", &dead_oracle),
        ] {
            let ctx = format!("{label} on {backend:?}");
            let cold = run(backend, faults);
            check_timing_report(&ctx, &cold, oracle, want);
            check_warm_rerun(&ctx, &cold, &warm_run(backend, faults));
        }
        // Untraced too, a live injector walks on a warm flow.
        let flow = DesignFlow::matmul(2, 2).with_backend(backend);
        flow.evaluate_structure("fig4", &alg, &t, &ic, None);
        let warm =
            flow.evaluate_structure_faulted("fig4", &alg, &t, &ic, None, &mut NullSink, &dead_pe);
        assert_eq!(
            warm.run.divergences_from(&dead_oracle.0.run),
            Vec::<&str>::new(),
            "untraced dead PE on {backend:?}"
        );
    }
}

type Matrix = Vec<Vec<u128>>;

/// Three deterministic carry-safe operand pairs for (u, p) = (2, 2).
fn batch() -> (Vec<Matrix>, Vec<Matrix>) {
    let m = BitMatmulArray::new(2, 2).max_safe_entry();
    let mat = |k: u128| -> Matrix {
        (0..2u128)
            .map(|i| (0..2u128).map(|j| (k + 3 * i + 5 * j) % (m + 1)).collect())
            .collect()
    };
    ((0..3).map(mat).collect(), (3..6).map(mat).collect())
}

#[test]
fn evaluate_batch_traced_dispatch_on_expansion_ii() {
    let (xs, ys) = batch();
    let oracle = DesignFlow::matmul(2, 2)
        .with_backend(INTERPRETED)
        .evaluate_batch(DESIGN, &xs, &ys);
    assert!(oracle.legal);
    let miss = "cache miss-compiled";
    let zero = format!("compiled (fallback: {})", zero_workers());
    let lanes = "compiled-batch (bitwise, width 64)";
    // (backend_used, width, walks, events, fires): only lane-packed walks
    // trace; per-instance walks, interpreted or compiled, stay silent.
    let wants: [(&str, usize, usize, Vec<String>, u64); 6] = [
        ("interpreted", 1, 3, events(&[]), 0),
        ("compiled", 1, 3, events(&[miss]), 0),
        (lanes, 64, 1, events(&[miss]), 32),
        (lanes, 64, 1, events(&[miss, "clamp 65 -> 64"]), 32),
        ("partitioned (workers 2)", 3, 1, events(&[miss]), 32),
        (
            &zero,
            3,
            1,
            events(&[miss, "fallback partitioned -> compiled"]),
            32,
        ),
    ];
    for (backend, (used, width, walks, evs, fires)) in BACKENDS.into_iter().zip(wants) {
        let flow = DesignFlow::matmul(2, 2).with_backend(backend);
        let mut sink = RecordingSink::new();
        let rep = flow.evaluate_batch_traced(DESIGN, &xs, &ys, &mut sink);
        let ctx = format!("{backend:?}");
        assert_eq!(rep.backend_used.to_string(), used, "{ctx}");
        assert_eq!((rep.width, rep.walks), (width, walks), "{ctx}");
        assert_eq!(dispatch_events(&sink), evs, "{ctx}");
        assert_eq!(sink.rollup().fire_total(), fires, "{ctx}: fire count");
        assert_eq!(rep.instances, 3, "{ctx}");
        assert_eq!(rep.products, oracle.products, "{ctx}");
        assert_eq!(rep.cycles, oracle.cycles, "{ctx}");
        assert_eq!(rep.legal, oracle.legal, "{ctx}");
    }
}

#[test]
fn evaluate_batch_traced_dispatch_on_expansion_i() {
    let (xs, ys) = batch();
    let flow = |backend| {
        DesignFlow::new(WordLevelAlgorithm::matmul(2), 2, Expansion::I).with_backend(backend)
    };
    let oracle = flow(INTERPRETED).evaluate_batch(DESIGN, &xs, &ys);
    let fallback = format!("interpreted (fallback: {EXPANSION_I})");
    // Stateful Expansion I cells never reach a compiled engine: no cache
    // lookup, no clamp, one fallback named after the configured backend.
    let from = |backend: &str| {
        (
            fallback.as_str(),
            events(&[&format!("fallback {backend} -> interpreted")]),
        )
    };
    let wants: [(&str, Vec<String>); 6] = [
        ("interpreted", events(&[])),
        from("compiled"),
        from("compiled-batch"),
        from("compiled-batch"),
        from("partitioned"),
        from("partitioned"),
    ];
    for (backend, (used, evs)) in BACKENDS.into_iter().zip(wants) {
        let flow = flow(backend);
        let mut sink = RecordingSink::new();
        let rep = flow.evaluate_batch_traced(DESIGN, &xs, &ys, &mut sink);
        let ctx = format!("{backend:?}");
        assert_eq!(rep.backend_used.to_string(), used, "{ctx}");
        assert_eq!((rep.width, rep.walks), (1, 3), "{ctx}");
        assert_eq!(dispatch_events(&sink), evs, "{ctx}");
        assert_eq!(sink.rollup().fire_total(), 0, "{ctx}");
        assert_eq!(rep.products, oracle.products, "{ctx}");
        assert_eq!(rep.cycles, oracle.cycles, "{ctx}");
        assert_eq!(rep.legal, oracle.legal, "{ctx}");
        assert_eq!(flow.cache().stats().lookups(), 0, "{ctx}");
    }
}

#[test]
fn run_clocked_matmul_dispatch() {
    let oracle = DesignFlow::matmul(2, 2).with_backend(INTERPRETED);
    let fig5 = oracle.run_clocked_matmul(PaperDesign::NearestNeighbour);
    for backend in BACKENDS {
        let flow = DesignFlow::matmul(2, 2).with_backend(backend);
        assert_eq!(flow.run_clocked_matmul(DESIGN), 7, "{backend:?}");
        let nn = flow.run_clocked_matmul(PaperDesign::NearestNeighbour);
        assert_eq!(nn, fig5, "{backend:?}");
        let stats = flow.cache().stats();
        let lookups = if backend == INTERPRETED { 0 } else { 2 };
        assert_eq!(stats.lookups(), lookups, "{backend:?}");
        assert_eq!(stats.compiles(), lookups, "{backend:?}");
    }
}

#[test]
fn verify_matmul_functionally_dispatch() {
    for backend in BACKENDS {
        let flow = DesignFlow::matmul(2, 2).with_backend(backend);
        assert_eq!(flow.verify_matmul_functionally(), 2, "{backend:?}");
        let lookups = if backend == INTERPRETED { 0 } else { 1 };
        assert_eq!(flow.cache().stats().lookups(), lookups, "{backend:?}");
        // A warm second check reuses the schedule.
        flow.verify_matmul_functionally();
        assert_eq!(flow.cache().stats().compiles(), lookups, "{backend:?}");

        // Expansion I flows only run the topological array.
        let flow =
            DesignFlow::new(WordLevelAlgorithm::matmul(2), 2, Expansion::I).with_backend(backend);
        assert_eq!(flow.verify_matmul_functionally(), 2, "{backend:?}");
        assert_eq!(flow.cache().stats().lookups(), 0, "{backend:?}");
    }
}
