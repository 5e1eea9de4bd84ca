//! Parameter sweeps: the figure-style data series behind the experiments.
//!
//! Each sweep emits a CSV table (to stdout via the `experiments --sweep`
//! flag) so the paper's comparison curves can be re-plotted:
//!
//! * [`speedup_sweep`] — measured bit-level cycles (both designs) vs the
//!   word-level baselines across `(u, p)`: the Section 4.2 speedup curves;
//! * [`analysis_time_sweep`] — derivation wall-time of the compositional vs
//!   general analyses as the expanded size grows: the Section 1 claim;
//! * [`utilization_sweep`] — PE counts, utilisation and peak parallelism of
//!   the two designs across sizes (the cost side of the time optimality);
//! * [`engine_sweep`] — wall-clock of the interpreted vs the compiled clocked
//!   engine across sizes, with a full bit-identity check per row;
//! * [`wavefront_sweep`] — measured firing width per cycle of the two paper
//!   designs, captured through the trace layer (the Fig. 4 vs Fig. 5
//!   pipeline-shape comparison);
//! * [`faults_sweep`] — exhaustive single-fault injection campaigns on both
//!   paper designs with ABFT classification per row (the E17 export; the CI
//!   smoke step checks the partition and the zero-SDC bar on this output);
//! * [`batch_sweep`] — throughput of the lane-packed batch engine vs lane
//!   width on both paper designs, every product verified against native
//!   arithmetic (the E18 export; CI stores it as `BENCH_batch.json`);
//! * [`cache_sweep`] — cold-vs-warm schedule acquisition through the
//!   content-hashed compile cache: a cold miss (compile + disk write-through)
//!   against a memory hit and a fresh-process disk hit, artifacts checked
//!   identical (the E19 export; CI stores it as `BENCH_cache.json` and gates
//!   warm < cold per row);
//! * [`faultbatch_sweep`] — fault-cases-per-second of the lane-packed
//!   exhaustive campaign vs lane width and vs the scalar dual-engine
//!   baseline, every width checked case-for-case identical to the scalar
//!   sweep (the E20 export; CI stores it as `BENCH_faultbatch.json` and
//!   gates the width-64/width-1 gain);
//! * [`partition_sweep`] — instances-per-second of the LSGP-partitioned
//!   engine vs physical worker-pool size on both paper designs, every pool
//!   size verified bit-identical to the compiled engine and the balanced
//!   makespan checked non-increasing in workers (the E21 export; CI stores
//!   it as `BENCH_partition.json`);
//! * [`serve_sweep`] — warm-vs-cold request throughput of the NDJSON
//!   evaluation service: one cold `Evaluate` on a fresh server (pays the
//!   compile) against a concurrent batch of identical requests answered
//!   from the shared cache, every terminal line byte-identical and the
//!   compile counter held at one (the E22 export; CI stores it as
//!   `BENCH_serve.json` and gates `warm_rps > cold_rps` per row).
//!
//! Every sweep computes its rows one after another, in input order.

use bitlevel_arith::{AddShift, CarrySave};
use bitlevel_cache::{CacheOutcome, CompileCache};
use bitlevel_depanal::{compare_analyses, compose, Expansion};
use bitlevel_fault::{
    batched_single_fault_campaign, single_fault_campaign, single_fault_campaign_with_cache,
};
use bitlevel_ir::WordLevelAlgorithm;
use bitlevel_json::Json;
use bitlevel_mapping::{word_level_total_time, PaperDesign};
use bitlevel_systolic::{
    run_clocked, simulate_mapped_compiled, BitMatmulArray, CompiledSchedule,
    MatmulExpansionIICells, MatmulLaneCells, PartitionedSchedule, RecordingSink, MAX_LANES,
};
use std::time::Instant;

/// One row of the speedup sweep.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Matrix dimension.
    pub u: i64,
    /// Word length.
    pub p: i64,
    /// Measured cycles of the Fig. 4 design.
    pub fig4_cycles: i64,
    /// Measured cycles of the Fig. 5 design.
    pub fig5_cycles: i64,
    /// Word-level baseline with add-shift PEs (`t_b = p²`).
    pub word_addshift: i64,
    /// Word-level baseline with carry-save PEs (`t_b = 2p`).
    pub word_carrysave: i64,
    /// Speedup of Fig. 4 over the add-shift word baseline.
    pub speedup_addshift: f64,
    /// Speedup of Fig. 4 over the carry-save word baseline.
    pub speedup_carrysave: f64,
}

/// Measures the Section 4.2 comparison across a `(u, p)` grid.
pub fn speedup_sweep(sizes: &[(i64, i64)]) -> Vec<SpeedupRow> {
    sizes
        .iter()
        .map(|&(u, p)| {
            let alg = compose(&WordLevelAlgorithm::matmul(u), p as usize, Expansion::II);
            let fig4 = simulate_mapped_compiled(
                &alg,
                &PaperDesign::TimeOptimal.mapping(p),
                &PaperDesign::TimeOptimal.interconnect(p),
            );
            let fig5 = simulate_mapped_compiled(
                &alg,
                &PaperDesign::NearestNeighbour.mapping(p),
                &PaperDesign::NearestNeighbour.interconnect(p),
            );
            assert!(fig4.conflict_free && fig4.causality_ok);
            assert!(fig5.conflict_free && fig5.causality_ok);
            let word_addshift =
                word_level_total_time(u, AddShift::new(p as usize).word_latency() as i64);
            let word_carrysave =
                word_level_total_time(u, CarrySave::new(p as usize).word_latency() as i64);
            SpeedupRow {
                u,
                p,
                fig4_cycles: fig4.cycles,
                fig5_cycles: fig5.cycles,
                word_addshift,
                word_carrysave,
                speedup_addshift: word_addshift as f64 / fig4.cycles as f64,
                speedup_carrysave: word_carrysave as f64 / fig4.cycles as f64,
            }
        })
        .collect()
}

/// CSV rendering of the speedup sweep.
pub fn speedup_csv(rows: &[SpeedupRow]) -> String {
    let mut out = String::from(
        "u,p,fig4_cycles,fig5_cycles,word_addshift,word_carrysave,speedup_addshift,speedup_carrysave\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{:.3},{:.3}\n",
            r.u,
            r.p,
            r.fig4_cycles,
            r.fig5_cycles,
            r.word_addshift,
            r.word_carrysave,
            r.speedup_addshift,
            r.speedup_carrysave
        ));
    }
    out
}

/// One row of the analysis-time sweep.
#[derive(Debug, Clone)]
pub struct AnalysisTimeRow {
    /// Matrix dimension.
    pub u: i64,
    /// Word length.
    pub p: usize,
    /// Compound index points `|J|`.
    pub index_points: u128,
    /// Theorem 3.1 derivation time (ns).
    pub compose_ns: u128,
    /// Exhaustive enumeration time (ns).
    pub enumerate_ns: u128,
    /// Diophantine-plus-verify time (ns).
    pub diophantine_ns: u128,
    /// Whether all three agreed.
    pub agree: bool,
}

/// Times the three derivation routes as the expanded size grows.
pub fn analysis_time_sweep(sizes: &[(i64, usize)]) -> Vec<AnalysisTimeRow> {
    // Sequential on purpose: wall-clock timing rows should not contend.
    sizes
        .iter()
        .map(|&(u, p)| {
            let rep = compare_analyses(&WordLevelAlgorithm::matmul(u), p, Expansion::II);
            AnalysisTimeRow {
                u,
                p,
                index_points: rep.index_points,
                compose_ns: rep.compose_time.as_nanos(),
                enumerate_ns: rep.enumerate_time.as_nanos(),
                diophantine_ns: rep.diophantine_time.as_nanos(),
                agree: rep.matches_enumeration && rep.diophantine_matches,
            }
        })
        .collect()
}

/// CSV rendering of the analysis-time sweep.
pub fn analysis_time_csv(rows: &[AnalysisTimeRow]) -> String {
    let mut out = String::from("u,p,index_points,compose_ns,enumerate_ns,diophantine_ns,agree\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{}\n",
            r.u, r.p, r.index_points, r.compose_ns, r.enumerate_ns, r.diophantine_ns, r.agree
        ));
    }
    out
}

/// One row of the utilisation sweep.
#[derive(Debug, Clone)]
pub struct UtilizationRow {
    /// Matrix dimension.
    pub u: i64,
    /// Word length.
    pub p: i64,
    /// Design label.
    pub design: String,
    /// Cycles.
    pub cycles: i64,
    /// Processors.
    pub processors: usize,
    /// Busy fraction.
    pub utilization: f64,
    /// Peak simultaneously-busy PEs.
    pub peak_parallelism: usize,
    /// Buffer-cycles consumed.
    pub buffer_cycles: u64,
}

/// Measures the resource side of both designs across sizes.
pub fn utilization_sweep(sizes: &[(i64, i64)]) -> Vec<UtilizationRow> {
    sizes
        .iter()
        .flat_map(|&(u, p)| {
            let alg = compose(&WordLevelAlgorithm::matmul(u), p as usize, Expansion::II);
            [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour]
                .into_iter()
                .map(|design| {
                    let run =
                        simulate_mapped_compiled(&alg, &design.mapping(p), &design.interconnect(p));
                    UtilizationRow {
                        u,
                        p,
                        design: design.name().to_string(),
                        cycles: run.cycles,
                        processors: run.processors,
                        utilization: run.utilization,
                        peak_parallelism: run.peak_parallelism,
                        buffer_cycles: run.buffer_cycles,
                    }
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// CSV rendering of the utilisation sweep.
pub fn utilization_csv(rows: &[UtilizationRow]) -> String {
    let mut out =
        String::from("u,p,design,cycles,processors,utilization,peak_parallelism,buffer_cycles\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},\"{}\",{},{},{:.4},{},{}\n",
            r.u,
            r.p,
            r.design,
            r.cycles,
            r.processors,
            r.utilization,
            r.peak_parallelism,
            r.buffer_cycles
        ));
    }
    out
}

/// One row of the engine sweep (interpreted vs compiled clocked execution).
#[derive(Debug, Clone)]
pub struct EngineRow {
    /// Matrix dimension.
    pub u: i64,
    /// Word length.
    pub p: i64,
    /// Design label.
    pub design: String,
    /// Index points `|J|` (= dense slots).
    pub points: usize,
    /// Wall time of the interpreted `run_clocked` (ns).
    pub interpreted_ns: u128,
    /// Wall time of `CompiledSchedule::compile` (ns, paid once per design).
    pub compile_ns: u128,
    /// Wall time of `CompiledSchedule::execute` (ns, paid per workload).
    pub execute_ns: u128,
    /// `interpreted_ns / execute_ns`.
    pub speedup: f64,
    /// Whether the two runs were bit-identical (outputs, violations, peaks).
    pub identical: bool,
}

/// Times the interpreted clocked engine against the compiled backend on the
/// Expansion II matmul across a `(u, p)` grid, checking bit-identity per row.
pub fn engine_sweep(sizes: &[(i64, i64)]) -> Vec<EngineRow> {
    sizes
        .iter()
        .flat_map(|&(u, p)| {
            let alg = compose(&WordLevelAlgorithm::matmul(u), p as usize, Expansion::II);
            let cap = BitMatmulArray::new(u as usize, p as usize).max_safe_entry();
            let x: Vec<Vec<u128>> = (0..u)
                .map(|i| {
                    (0..u)
                        .map(|j| ((3 * i + 5 * j + 1) as u128) % (cap + 1))
                        .collect()
                })
                .collect();
            let y: Vec<Vec<u128>> = (0..u)
                .map(|i| {
                    (0..u)
                        .map(|j| ((7 * i + j + 2) as u128) % (cap + 1))
                        .collect()
                })
                .collect();
            [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour]
                .into_iter()
                .map(|design| {
                    let tm = design.mapping(p);
                    let ic = design.interconnect(p);
                    let mut cells = MatmulExpansionIICells::new(u as usize, p as usize, &x, &y);
                    let t0 = Instant::now();
                    let interpreted = run_clocked(&alg, &tm, &ic, &mut cells);
                    let interpreted_ns = t0.elapsed().as_nanos();
                    let t0 = Instant::now();
                    let sched = CompiledSchedule::try_compile(&alg, &tm, &ic)
                        .expect("the 7-column matmul structure compiles");
                    let compile_ns = t0.elapsed().as_nanos();
                    let t0 = Instant::now();
                    let compiled = sched.execute(&cells);
                    let execute_ns = t0.elapsed().as_nanos();
                    let identical = compiled.cycles == interpreted.cycles
                        && compiled.violations == interpreted.violations
                        && compiled.peak_in_flight == interpreted.peak_in_flight
                        && compiled.outputs == interpreted.outputs;
                    EngineRow {
                        u,
                        p,
                        design: design.name().to_string(),
                        points: sched.n_points(),
                        interpreted_ns,
                        compile_ns,
                        execute_ns,
                        speedup: interpreted_ns as f64 / execute_ns.max(1) as f64,
                        identical,
                    }
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// CSV rendering of the engine sweep.
pub fn engine_csv(rows: &[EngineRow]) -> String {
    let mut out =
        String::from("u,p,design,points,interpreted_ns,compile_ns,execute_ns,speedup,identical\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},\"{}\",{},{},{},{},{:.3},{}\n",
            r.u,
            r.p,
            r.design,
            r.points,
            r.interpreted_ns,
            r.compile_ns,
            r.execute_ns,
            r.speedup,
            r.identical
        ));
    }
    out
}

/// One row of the wavefront sweep: how many index points each paper design
/// fires in one (rebased) cycle, measured through the trace layer.
#[derive(Debug, Clone)]
pub struct WavefrontRow {
    /// Cycle, rebased so each design's first firing lands on 0.
    pub cycle: i64,
    /// Points fired by the Fig. 4 (time-optimal) design in this cycle.
    pub fig4_width: u64,
    /// Points fired by the Fig. 5 (nearest-neighbour) design in this cycle.
    pub fig5_width: u64,
}

/// Captures the measured firing profile of the two paper designs at one
/// `(u, p)` size: both runs are traced through a [`RecordingSink`] and their
/// per-cycle wavefront widths are laid side by side over the union of the
/// two busy spans (Fig. 5's span dominates — eq. (4.6) vs eq. (4.5)).
pub fn wavefront_sweep(u: i64, p: i64) -> Vec<WavefrontRow> {
    let alg = compose(&WordLevelAlgorithm::matmul(u), p as usize, Expansion::II);
    let profile = |design: PaperDesign| {
        let mut sink = RecordingSink::new();
        CompiledSchedule::try_compile(&alg, &design.mapping(p), &design.interconnect(p))
            .expect("the 7-column matmul structure compiles")
            .mapped_report_traced(&mut sink);
        let lo = sink.rollup().wavefront.keys().next().copied().unwrap_or(0);
        sink.rollup()
            .wavefront
            .iter()
            .map(|(cyc, n)| (cyc - lo, *n))
            .collect::<std::collections::BTreeMap<i64, u64>>()
    };
    let fig4 = profile(PaperDesign::TimeOptimal);
    let fig5 = profile(PaperDesign::NearestNeighbour);
    let span = fig4
        .keys()
        .next_back()
        .copied()
        .unwrap_or(0)
        .max(fig5.keys().next_back().copied().unwrap_or(0));
    (0..=span)
        .map(|cycle| WavefrontRow {
            cycle,
            fig4_width: fig4.get(&cycle).copied().unwrap_or(0),
            fig5_width: fig5.get(&cycle).copied().unwrap_or(0),
        })
        .collect()
}

/// CSV rendering of the wavefront sweep.
pub fn wavefront_csv(rows: &[WavefrontRow]) -> String {
    let mut out = String::from("cycle,fig4_width,fig5_width\n");
    for r in rows {
        out.push_str(&format!("{},{},{}\n", r.cycle, r.fig4_width, r.fig5_width));
    }
    out
}

/// One row of the faults sweep: one exhaustive single-fault campaign (every
/// index point × every faultable bundle bit, as a transient flip) on one
/// paper design at one `(u, p)` size.
#[derive(Debug, Clone)]
pub struct FaultSweepRow {
    /// Matrix dimension.
    pub u: usize,
    /// Word length.
    pub p: usize,
    /// Design label.
    pub design: String,
    /// Injected fault cases (`|J| ×` faultable bits).
    pub total: usize,
    /// Cases absorbed with a bit-identical result.
    pub masked: usize,
    /// Cases caught by the ABFT syndromes.
    pub detected: usize,
    /// Silent data corruptions (the acceptance bar is zero).
    pub sdc: usize,
    /// Cases where interpreted and compiled engines classified differently.
    pub engine_mismatches: usize,
    /// `detected / (total - masked)`: fraction of effective faults caught.
    pub detection_coverage: f64,
}

/// Runs the exhaustive single-fault campaign of E17 on both paper designs at
/// each `(u, p)` and flattens the reports into rows (the export behind
/// `--sweep faults`).
pub fn faults_sweep(sizes: &[(usize, usize)], seed: u64) -> Vec<FaultSweepRow> {
    sizes
        .iter()
        .flat_map(|&(u, p)| {
            [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour]
                .into_iter()
                .map(|design| {
                    let r = single_fault_campaign(design, u, p, seed);
                    assert!(
                        r.classifications_partition(),
                        "campaign classes must partition"
                    );
                    let effective = r.total - r.masked;
                    FaultSweepRow {
                        u,
                        p,
                        design: r.design,
                        total: r.total,
                        masked: r.masked,
                        detected: r.detected,
                        sdc: r.sdc,
                        engine_mismatches: r.engine_mismatches,
                        detection_coverage: if effective == 0 {
                            1.0
                        } else {
                            r.detected as f64 / effective as f64
                        },
                    }
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// CSV rendering of the faults sweep.
pub fn faults_csv(rows: &[FaultSweepRow]) -> String {
    let mut out =
        String::from("u,p,design,total,masked,detected,sdc,engine_mismatches,detection_coverage\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},\"{}\",{},{},{},{},{},{:.4}\n",
            r.u,
            r.p,
            r.design,
            r.total,
            r.masked,
            r.detected,
            r.sdc,
            r.engine_mismatches,
            r.detection_coverage
        ));
    }
    out
}

/// JSON rendering of the faults sweep (the `--sweep faults --json` export;
/// the CI smoke step validates the partition and zero-SDC bar on it).
pub fn faults_json(rows: &[FaultSweepRow]) -> String {
    rows_json(rows, |r| {
        vec![
            ("u", Json::from(r.u)),
            ("p", Json::from(r.p)),
            ("design", Json::str(r.design.as_str())),
            ("total", Json::from(r.total)),
            ("masked", Json::from(r.masked)),
            ("detected", Json::from(r.detected)),
            ("sdc", Json::from(r.sdc)),
            ("engine_mismatches", Json::from(r.engine_mismatches)),
            ("detection_coverage", Json::from(r.detection_coverage)),
        ]
    })
}

/// Default sizes for the faults sweep: the paper's running example size. The
/// exhaustive campaign is quadratic in `|J|` (each case replays the array on
/// both engines), so debug runs stay at the smallest size.
pub fn default_fault_sizes() -> Vec<(usize, usize)> {
    vec![(2, 2)]
}

/// One row of the frontier sweep: one Pareto-optimal design of the joint
/// `(S, Π, machine)` exploration at one `(u, p)` size, with its verification
/// evidence.
#[derive(Debug, Clone)]
pub struct FrontierRow {
    /// Matrix dimension.
    pub u: i64,
    /// Word length.
    pub p: i64,
    /// Total execution time (4.5).
    pub time: i64,
    /// Exact processor count `|S·J|`.
    pub processors: usize,
    /// Longest wire of the machine.
    pub max_wire_length: i64,
    /// Machine label.
    pub machine: String,
    /// Space-mapping rows of the witness `S`.
    pub space: String,
    /// Schedule vector `Π`.
    pub schedule: String,
    /// Which engine verified the design (`backend_used` of the report).
    pub backend: String,
    /// Def. 4.1 feasible **and** bit-exact across engines.
    pub verified: bool,
}

/// Runs the full design-space exploration at each `(u, p)` and flattens the
/// verified Pareto frontiers into rows (the export behind `--sweep
/// frontier`).
pub fn frontier_sweep(sizes: &[(i64, i64)]) -> Vec<FrontierRow> {
    sizes
        .iter()
        .flat_map(|&(u, p)| {
            let flow = bitlevel_core::DesignFlow::matmul(u, p as usize);
            let (family, config) = flow.default_exploration();
            let ex = flow
                .explore(&family, &config)
                .expect("well-formed exploration");
            ex.designs
                .iter()
                .map(|d| {
                    let t = &d.point.mapping;
                    let space = (0..t.space.rows())
                        .map(|r| format!("{:?}", t.space.row(r)))
                        .collect::<Vec<_>>()
                        .join(";");
                    FrontierRow {
                        u,
                        p,
                        time: d.point.time,
                        processors: d.point.processors,
                        max_wire_length: d.point.max_wire_length,
                        machine: d.point.machine.clone(),
                        space,
                        schedule: format!("{:?}", t.schedule.as_slice()),
                        backend: d.report.backend_used.to_string(),
                        verified: d.verified(),
                    }
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// CSV rendering of the frontier sweep.
pub fn frontier_csv(rows: &[FrontierRow]) -> String {
    let mut out = String::from(
        "u,p,time,processors,max_wire_length,machine,space,schedule,backend,verified\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},\"{}\",\"{}\",\"{}\",\"{}\",{}\n",
            r.u,
            r.p,
            r.time,
            r.processors,
            r.max_wire_length,
            r.machine,
            r.space,
            r.schedule,
            r.backend,
            r.verified
        ));
    }
    out
}

/// JSON rendering of the frontier sweep (the `--sweep frontier --json`
/// export; validated for JSON well-formedness by the CI smoke step).
pub fn frontier_json(rows: &[FrontierRow]) -> String {
    rows_json(rows, |r| {
        vec![
            ("u", Json::from(r.u)),
            ("p", Json::from(r.p)),
            ("time", Json::from(r.time)),
            ("processors", Json::from(r.processors)),
            ("max_wire_length", Json::from(r.max_wire_length)),
            ("machine", Json::str(r.machine.as_str())),
            ("space", Json::str(r.space.as_str())),
            ("schedule", Json::str(r.schedule.as_str())),
            ("backend", Json::str(r.backend.as_str())),
            ("verified", Json::from(r.verified)),
        ]
    })
}

/// Default sizes for the frontier sweep: the smallest size (where the joint
/// search strictly beats the paper's fixed-`S` nearest-neighbour design) and
/// the u > p size where both paper schedules head their frontier ends.
pub fn default_frontier_sizes() -> Vec<(i64, i64)> {
    vec![(2, 2), (3, 2)]
}

/// Default sweep grids (kept modest so debug runs stay fast; release runs
/// can pass larger grids).
pub fn default_speedup_sizes() -> Vec<(i64, i64)> {
    vec![
        (2, 2),
        (3, 3),
        (4, 3),
        (4, 4),
        (6, 4),
        (8, 4),
        (8, 6),
        (10, 8),
    ]
}

/// Default sizes for the analysis-time sweep (the general methods are
/// exponential — that is the result being shown).
pub fn default_analysis_sizes() -> Vec<(i64, usize)> {
    vec![(2, 2), (2, 3), (3, 2), (3, 3)]
}

/// Default sizes for the engine sweep: up through the release-sized grids
/// the acceptance speedup is quoted at.
pub fn default_engine_sizes() -> Vec<(i64, i64)> {
    vec![(2, 2), (3, 3), (4, 4), (4, 6), (4, 8), (6, 8)]
}

/// One row of the batch-throughput sweep: one paper design executed over a
/// fixed batch of matmul instances at one lane width (the E18 series behind
/// `--sweep batch`; the CI smoke step checks that throughput is monotone
/// nondecreasing in width and uploads the JSON as a `BENCH_*.json` perf
/// snapshot).
#[derive(Debug, Clone)]
pub struct BatchRow {
    /// Design label.
    pub design: String,
    /// Matrix dimension.
    pub u: i64,
    /// Word length.
    pub p: i64,
    /// Lanes packed per schedule walk.
    pub width: usize,
    /// Instances in the batch.
    pub instances: usize,
    /// Schedule walks performed (`⌈instances/width⌉`).
    pub walks: usize,
    /// Cycle count of one walk (schedule-determined, identical across walks).
    pub cycles: i64,
    /// Wall time for the whole batch: lane packing + every walk + product
    /// extraction (ns).
    pub wall_ns: u128,
    /// Batch throughput: `instances / wall seconds`.
    pub instances_per_sec: f64,
    /// Seed the operands were drawn from.
    pub seed: u64,
    /// Whether every walk was legal and every extracted product matched
    /// native arithmetic.
    pub identical: bool,
}

/// Rounds of [`best_of_rounds`].
const ROUNDS: usize = 5;

/// Times `run(i)` for every `i < n` over [`ROUNDS`] rounds, each round
/// visiting every `i` once in order, and returns each `i`'s fastest round
/// (ns) with the result of that run. A shift of host speed between rounds
/// then slows every `i` alike instead of reading as a ratio between them.
fn best_of_rounds<T>(n: usize, mut run: impl FnMut(usize) -> T) -> Vec<(u128, T)> {
    let mut best: Vec<Option<(u128, T)>> = (0..n).map(|_| None).collect();
    for _ in 0..ROUNDS {
        for (i, slot) in best.iter_mut().enumerate() {
            let t0 = Instant::now();
            let out = run(i);
            let ns = t0.elapsed().as_nanos();
            if slot.as_ref().is_none_or(|(fastest, _)| ns < *fastest) {
                *slot = Some((ns, out));
            }
        }
    }
    best.into_iter().flatten().collect()
}

/// Times the lane-packed batch engine at each width over the same batch of
/// `instances` seeded random matmul instances per paper design, verifying
/// every product of every width against native arithmetic.
///
/// The walks of one row run one after another, so the row isolates what the
/// batch engine claims: per-walk overhead amortised over lanes. Widths are
/// timed round-robin by [`best_of_rounds`].
pub fn batch_sweep(widths: &[usize], instances: usize, seed: u64) -> Vec<BatchRow> {
    let (u, p) = (3usize, 4usize);
    let cap = BitMatmulArray::new(u, p).max_safe_entry();
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as u128) % (cap + 1)
    };
    let mut mat =
        move || -> Vec<Vec<u128>> { (0..u).map(|_| (0..u).map(|_| next()).collect()).collect() };
    let xs: Vec<Vec<Vec<u128>>> = (0..instances).map(|_| mat()).collect();
    let ys: Vec<Vec<Vec<u128>>> = (0..instances).map(|_| mat()).collect();
    let want: Vec<Vec<Vec<u128>>> = xs
        .iter()
        .zip(&ys)
        .map(|(x, y)| {
            (0..u)
                .map(|i| {
                    (0..u)
                        .map(|j| (0..u).map(|k| x[i][k] * y[k][j]).sum())
                        .collect()
                })
                .collect()
        })
        .collect();

    let alg = compose(&WordLevelAlgorithm::matmul(u as i64), p, Expansion::II);
    let widths: Vec<usize> = widths.iter().map(|&w| w.clamp(1, MAX_LANES)).collect();
    let mut rows = Vec::new();
    for design in [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour] {
        let tm = design.mapping(p as i64);
        let ic = design.interconnect(p as i64);
        let sched = CompiledSchedule::try_compile(&alg, &tm, &ic)
            .expect("the 7-column matmul structure compiles");
        let timed = best_of_rounds(widths.len(), |i| {
            let chunks: Vec<MatmulLaneCells> = xs
                .chunks(widths[i])
                .zip(ys.chunks(widths[i]))
                .map(|(xc, yc)| MatmulLaneCells::new(u, p, xc, yc))
                .collect();
            let runs: Vec<_> = chunks.iter().map(|c| sched.execute_batch(c)).collect();
            let mut products = Vec::with_capacity(instances);
            for (cells, run) in chunks.iter().zip(&runs) {
                products.extend(cells.extract_products(run));
            }
            (chunks.len(), runs, products)
        });
        for (&width, (wall_ns, (walks, runs, products))) in widths.iter().zip(timed) {
            rows.push(BatchRow {
                design: design.name().to_string(),
                u: u as i64,
                p: p as i64,
                width,
                instances,
                walks,
                cycles: runs[0].cycles,
                wall_ns,
                instances_per_sec: instances as f64 / (wall_ns.max(1) as f64 / 1e9),
                seed,
                identical: runs.iter().all(|r| r.is_legal()) && products == want,
            });
        }
    }
    rows
}

/// CSV rendering of the batch sweep.
pub fn batch_csv(rows: &[BatchRow]) -> String {
    let mut out = String::from(
        "design,u,p,width,instances,walks,cycles,wall_ns,instances_per_sec,seed,identical\n",
    );
    for r in rows {
        out.push_str(&format!(
            "\"{}\",{},{},{},{},{},{},{},{:.1},{},{}\n",
            r.design,
            r.u,
            r.p,
            r.width,
            r.instances,
            r.walks,
            r.cycles,
            r.wall_ns,
            r.instances_per_sec,
            r.seed,
            r.identical
        ));
    }
    out
}

/// JSON rendering of the batch sweep (the `--sweep batch --json` export CI
/// stores as `BENCH_batch.json`).
pub fn batch_json(rows: &[BatchRow]) -> String {
    rows_json(rows, |r| {
        vec![
            ("design", Json::str(r.design.as_str())),
            ("u", Json::from(r.u)),
            ("p", Json::from(r.p)),
            ("width", Json::from(r.width)),
            ("instances", Json::from(r.instances)),
            ("walks", Json::from(r.walks)),
            ("cycles", Json::from(r.cycles)),
            ("wall_ns", ns(r.wall_ns)),
            ("instances_per_sec", Json::from(r.instances_per_sec)),
            ("seed", Json::from(r.seed)),
            ("identical", Json::from(r.identical)),
        ]
    })
}

/// Default widths for the batch sweep: one lane (the scalar baseline) up to
/// a full word.
pub fn default_batch_widths() -> Vec<usize> {
    vec![1, 8, 16, 32, 64]
}

/// Default batch size for the batch sweep: one full word of instances.
pub fn default_batch_instances() -> usize {
    64
}

/// One row of the cache sweep: the cold/warm trajectory of acquiring one
/// design's compiled schedule through the content-hashed compile cache.
#[derive(Debug, Clone)]
pub struct CacheSweepRow {
    /// Design label.
    pub design: String,
    /// Matrix dimension.
    pub u: i64,
    /// Word length.
    pub p: i64,
    /// Index points `|J|` of the compiled schedule.
    pub points: usize,
    /// Cold acquisition: cache miss — full compile plus the atomic disk
    /// write-through (ns).
    pub cold_ns: u128,
    /// Warm acquisition in the same process: memory hit (ns).
    pub warm_mem_ns: u128,
    /// Warm acquisition in a "fresh process" (new cache over the same
    /// directory): disk read + checksum + decode, no compile (ns).
    pub warm_disk_ns: u128,
    /// `cold_ns / warm_mem_ns`.
    pub mem_speedup: f64,
    /// `cold_ns / warm_disk_ns`.
    pub disk_speedup: f64,
    /// Compiles performed across all three acquisitions (must be 1).
    pub compiles: u64,
    /// Whether the lookups hit the expected layers
    /// (miss → memory-hit → disk-hit) and all three artifacts were
    /// bit-identical.
    pub identical: bool,
}

/// Measures cold vs warm schedule acquisition on both paper designs across
/// a `(u, p)` grid: one miss (compile + persist), one memory hit, and one
/// disk hit from a brand-new cache over the same directory, with the decoded
/// artifact checked bit-identical against the compiled one.
///
/// Timing rows run sequentially so they don't contend. The persistent
/// directory lives under the system temp dir and is removed afterwards.
pub fn cache_sweep(sizes: &[(i64, i64)]) -> Vec<CacheSweepRow> {
    let dir = std::env::temp_dir().join(format!("bitlevel-cache-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut rows = Vec::new();
    for &(u, p) in sizes {
        let alg = compose(&WordLevelAlgorithm::matmul(u), p as usize, Expansion::II);
        for design in [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour] {
            let tm = design.mapping(p);
            let ic = design.interconnect(p);

            let cache = CompileCache::with_disk_dir(&dir);
            let t0 = Instant::now();
            let (cold, o_cold) = cache
                .get_or_compile(&alg, &tm, &ic)
                .expect("the 7-column matmul structure compiles");
            let cold_ns = t0.elapsed().as_nanos();

            let t0 = Instant::now();
            let (mem, o_mem) = cache
                .get_or_compile(&alg, &tm, &ic)
                .expect("warm lookup cannot fail");
            let warm_mem_ns = t0.elapsed().as_nanos();

            // A brand-new cache over the same directory models a process
            // restart: memory is cold, the persisted entry is not.
            let restarted = CompileCache::with_disk_dir(&dir);
            let t0 = Instant::now();
            let (disk, o_disk) = restarted
                .get_or_compile(&alg, &tm, &ic)
                .expect("disk lookup cannot fail");
            let warm_disk_ns = t0.elapsed().as_nanos();

            let compiles = cache.stats().compiles() + restarted.stats().compiles();
            let identical = o_cold == CacheOutcome::Miss
                && o_mem == CacheOutcome::MemoryHit
                && o_disk == CacheOutcome::DiskHit
                && *mem == *cold
                && *disk == *cold;
            rows.push(CacheSweepRow {
                design: design.name().to_string(),
                u,
                p,
                points: cold.n_points(),
                cold_ns,
                warm_mem_ns,
                warm_disk_ns,
                mem_speedup: cold_ns as f64 / warm_mem_ns.max(1) as f64,
                disk_speedup: cold_ns as f64 / warm_disk_ns.max(1) as f64,
                compiles,
                identical,
            });
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    rows
}

/// CSV rendering of the cache sweep.
pub fn cache_csv(rows: &[CacheSweepRow]) -> String {
    let mut out = String::from(
        "design,u,p,points,cold_ns,warm_mem_ns,warm_disk_ns,mem_speedup,disk_speedup,compiles,identical\n",
    );
    for r in rows {
        out.push_str(&format!(
            "\"{}\",{},{},{},{},{},{},{:.3},{:.3},{},{}\n",
            r.design,
            r.u,
            r.p,
            r.points,
            r.cold_ns,
            r.warm_mem_ns,
            r.warm_disk_ns,
            r.mem_speedup,
            r.disk_speedup,
            r.compiles,
            r.identical
        ));
    }
    out
}

/// JSON rendering of the cache sweep (the `--sweep cache --json` export CI
/// stores as `BENCH_cache.json`).
pub fn cache_json(rows: &[CacheSweepRow]) -> String {
    rows_json(rows, |r| {
        vec![
            ("design", Json::str(r.design.as_str())),
            ("u", Json::from(r.u)),
            ("p", Json::from(r.p)),
            ("points", Json::from(r.points)),
            ("cold_ns", ns(r.cold_ns)),
            ("warm_mem_ns", ns(r.warm_mem_ns)),
            ("warm_disk_ns", ns(r.warm_disk_ns)),
            ("mem_speedup", Json::from(r.mem_speedup)),
            ("disk_speedup", Json::from(r.disk_speedup)),
            ("compiles", Json::from(r.compiles)),
            ("identical", Json::from(r.identical)),
        ]
    })
}

/// Default sizes for the cache sweep: the paper's running example plus two
/// larger grids where the compile cost is unambiguous.
pub fn default_cache_sizes() -> Vec<(i64, i64)> {
    vec![(2, 2), (3, 3), (3, 4)]
}

/// One row of the fault-batch sweep: the exhaustive single-fault campaign
/// at one lane width vs the scalar dual-engine baseline (the E20 series
/// behind `--sweep faultbatch`; CI checks every row classifies identically
/// to the scalar sweep, gates the width-64/width-1 gain, and stores the
/// JSON as `BENCH_faultbatch.json`).
#[derive(Debug, Clone)]
pub struct FaultBatchRow {
    /// Design label.
    pub design: String,
    /// Matrix dimension.
    pub u: usize,
    /// Word length.
    pub p: usize,
    /// Operand seed.
    pub seed: u64,
    /// Fault cases packed per word-wide walk.
    pub width: usize,
    /// Total fault cases (`|J| ·` signal bits).
    pub cases: usize,
    /// Word-wide walks performed (`⌈cases/width⌉`).
    pub walks: usize,
    /// Wall time of the batched campaign (ns).
    pub wall_ns: u128,
    /// Batched campaign throughput: `cases / wall seconds`.
    pub cases_per_sec: f64,
    /// Wall time of the scalar dual-engine campaign over the same cases (ns;
    /// measured once per design, repeated on every row).
    pub scalar_wall_ns: u128,
    /// Scalar campaign throughput.
    pub scalar_cases_per_sec: f64,
    /// Masked cases.
    pub masked: usize,
    /// Detected cases.
    pub detected: usize,
    /// Silent-data-corruption cases (the zero-SDC bar).
    pub sdc: usize,
    /// True iff the batched sweep was case-for-case identical to the scalar
    /// dual-engine sweep.
    pub identical: bool,
}

/// Times the lane-packed exhaustive fault campaign at each width against
/// the scalar dual-engine baseline, on both paper designs, checking every
/// width's classifications case-for-case against the scalar sweep.
///
/// All campaigns of one design share one [`CompileCache`], so the schedule
/// compiles once per design and the rows time fault replay, not
/// compilation. Widths are timed round-robin by [`best_of_rounds`]: a whole
/// width-64 campaign takes well under a millisecond, where one scheduler
/// hiccup, or a host slowing down between width 1 and width 64, would
/// otherwise distort the throughput series and the ratio CI gates.
pub fn faultbatch_sweep(widths: &[usize], seed: u64) -> Vec<FaultBatchRow> {
    let (u, p) = (2usize, 3usize);
    let widths: Vec<usize> = widths.iter().map(|&w| w.clamp(1, MAX_LANES)).collect();
    let mut rows = Vec::new();
    for design in [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour] {
        let cache = CompileCache::new();
        let t0 = Instant::now();
        let scalar = single_fault_campaign_with_cache(design, u, p, seed, &cache);
        let scalar_wall_ns = t0.elapsed().as_nanos();
        let timed = best_of_rounds(widths.len(), |i| {
            batched_single_fault_campaign(design, u, p, seed, widths[i], &cache)
        });
        for (&width, (wall_ns, batched)) in widths.iter().zip(timed) {
            rows.push(FaultBatchRow {
                design: format!("{design:?}"),
                u,
                p,
                seed,
                width,
                cases: batched.total,
                walks: batched.walks,
                wall_ns,
                cases_per_sec: batched.total as f64 / (wall_ns.max(1) as f64 / 1e9),
                scalar_wall_ns,
                scalar_cases_per_sec: scalar.total as f64 / (scalar_wall_ns.max(1) as f64 / 1e9),
                masked: batched.masked,
                detected: batched.detected,
                sdc: batched.sdc,
                identical: batched.matches_scalar(&scalar),
            });
        }
    }
    rows
}

/// CSV rendering of the fault-batch sweep.
pub fn faultbatch_csv(rows: &[FaultBatchRow]) -> String {
    let mut out = String::from(
        "design,u,p,seed,width,cases,walks,wall_ns,cases_per_sec,scalar_wall_ns,\
         scalar_cases_per_sec,masked,detected,sdc,identical\n",
    );
    for r in rows {
        out.push_str(&format!(
            "\"{}\",{},{},{},{},{},{},{},{:.1},{},{:.1},{},{},{},{}\n",
            r.design,
            r.u,
            r.p,
            r.seed,
            r.width,
            r.cases,
            r.walks,
            r.wall_ns,
            r.cases_per_sec,
            r.scalar_wall_ns,
            r.scalar_cases_per_sec,
            r.masked,
            r.detected,
            r.sdc,
            r.identical
        ));
    }
    out
}

/// JSON rendering of the fault-batch sweep (the `--sweep faultbatch --json`
/// export CI stores as `BENCH_faultbatch.json`).
pub fn faultbatch_json(rows: &[FaultBatchRow]) -> String {
    rows_json(rows, |r| {
        vec![
            ("design", Json::str(r.design.as_str())),
            ("u", Json::from(r.u)),
            ("p", Json::from(r.p)),
            ("seed", Json::from(r.seed)),
            ("width", Json::from(r.width)),
            ("cases", Json::from(r.cases)),
            ("walks", Json::from(r.walks)),
            ("wall_ns", ns(r.wall_ns)),
            ("cases_per_sec", Json::from(r.cases_per_sec)),
            ("scalar_wall_ns", ns(r.scalar_wall_ns)),
            ("scalar_cases_per_sec", Json::from(r.scalar_cases_per_sec)),
            ("masked", Json::from(r.masked)),
            ("detected", Json::from(r.detected)),
            ("sdc", Json::from(r.sdc)),
            ("identical", Json::from(r.identical)),
        ]
    })
}

/// Default widths for the fault-batch sweep: one case per walk (the old
/// one-walk-per-case campaign cost) up to a full word of cases.
pub fn default_faultbatch_widths() -> Vec<usize> {
    vec![1, 8, 16, 32, 64]
}

/// One row of the partition sweep: one paper design priced on one physical
/// worker-pool size by the LSGP cost model (the E21 series
/// behind `--sweep partition`; CI checks every row stays bit-identical to
/// the compiled engine, gates the balanced makespan non-increasing in
/// workers, and stores the JSON as `BENCH_partition.json`).
#[derive(Debug, Clone)]
pub struct PartitionRow {
    /// Design label.
    pub design: String,
    /// Matrix dimension.
    pub u: usize,
    /// Word length.
    pub p: usize,
    /// Operand seed.
    pub seed: u64,
    /// Physical workers requested for the pool.
    pub workers: usize,
    /// Virtual PEs of the unbounded array the pool folds.
    pub virtual_pes: usize,
    /// Largest shard (virtual PEs owned by one worker).
    pub max_shard_pes: usize,
    /// Dependence tokens crossing shard boundaries in one walk.
    pub cross_shard_tokens: u64,
    /// Σ_c max_w fires(c, w): cycle-sliced makespan of the partition.
    pub makespan: u64,
    /// Σ_c ⌈fires(c)/workers⌉: the load-balance bound (non-increasing in
    /// workers — the deterministic scaling series CI gates).
    pub balanced_makespan: u64,
    /// Instances executed per timed batch.
    pub instances: usize,
    /// Cycle count of one walk.
    pub cycles: i64,
    /// Wall time for the whole batch's walk under this partition (ns, best
    /// of [`best_of_rounds`]' rounds). The walk is the compiled engine's at
    /// every pool size.
    pub wall_ns: u128,
    /// Throughput: `instances / wall seconds`.
    pub instances_per_sec: f64,
    /// Whether every run was legal and bit-identical to the compiled
    /// engine's walk over the same lanes, and every product matched native
    /// arithmetic.
    pub identical: bool,
}

/// Prices each paper design's schedule on every worker-pool size with the
/// LSGP cost model and runs the same lane-packed batch of seeded random
/// matmul instances under it, verifying the run bit-identical against the
/// compiled engine and every product against native arithmetic.
///
/// All pool sizes of one design share one [`CompileCache`] schedule, and a
/// partitioned run walks that schedule, so throughput is flat across pool
/// sizes by construction; the counted columns are the result. Pool sizes
/// are timed round-robin by [`best_of_rounds`].
pub fn partition_sweep(workers_list: &[usize], instances: usize, seed: u64) -> Vec<PartitionRow> {
    let (u, p) = (4usize, 3usize);
    let cap = BitMatmulArray::new(u, p).max_safe_entry();
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as u128) % (cap + 1)
    };
    let mut mat =
        move || -> Vec<Vec<u128>> { (0..u).map(|_| (0..u).map(|_| next()).collect()).collect() };
    let instances = instances.clamp(1, MAX_LANES);
    let xs: Vec<Vec<Vec<u128>>> = (0..instances).map(|_| mat()).collect();
    let ys: Vec<Vec<Vec<u128>>> = (0..instances).map(|_| mat()).collect();
    let want: Vec<Vec<Vec<u128>>> = xs
        .iter()
        .zip(&ys)
        .map(|(x, y)| {
            (0..u)
                .map(|i| {
                    (0..u)
                        .map(|j| (0..u).map(|k| x[i][k] * y[k][j]).sum())
                        .collect()
                })
                .collect()
        })
        .collect();

    let alg = compose(&WordLevelAlgorithm::matmul(u as i64), p, Expansion::II);
    let cache = CompileCache::new();
    let mut rows = Vec::new();
    for design in [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour] {
        let tm = design.mapping(p as i64);
        let ic = design.interconnect(p as i64);
        let (sched, _) = cache
            .get_or_compile(&alg, &tm, &ic)
            .expect("the 7-column matmul structure compiles");
        let cells = MatmulLaneCells::new(u, p, &xs, &ys);
        let reference = sched.execute_batch(&cells);
        let parts: Vec<PartitionedSchedule> = workers_list
            .iter()
            .map(|&workers| {
                PartitionedSchedule::try_new(std::sync::Arc::clone(&sched), workers.max(1))
                    .expect("paper schedules are causal")
            })
            .collect();
        let timed = best_of_rounds(parts.len(), |i| parts[i].schedule().execute_batch(&cells));
        for (part, (wall_ns, run)) in parts.iter().zip(timed) {
            let products = cells.extract_products(&run);
            let stats = part.stats();
            rows.push(PartitionRow {
                design: format!("{design:?}"),
                u,
                p,
                seed,
                workers: stats.workers_requested,
                virtual_pes: stats.virtual_pes,
                max_shard_pes: stats.max_shard_pes,
                cross_shard_tokens: stats.cross_shard_tokens,
                makespan: stats.makespan,
                balanced_makespan: stats.balanced_makespan,
                instances,
                cycles: run.cycles,
                wall_ns,
                instances_per_sec: instances as f64 / (wall_ns.max(1) as f64 / 1e9),
                identical: run.is_legal()
                    && run.outputs == reference.outputs
                    && run.violations == reference.violations
                    && run.cycles == reference.cycles
                    && products == want,
            });
        }
    }
    rows
}

/// CSV rendering of the partition sweep.
pub fn partition_csv(rows: &[PartitionRow]) -> String {
    let mut out = String::from(
        "design,u,p,seed,workers,virtual_pes,max_shard_pes,cross_shard_tokens,makespan,\
         balanced_makespan,instances,cycles,wall_ns,instances_per_sec,identical\n",
    );
    for r in rows {
        out.push_str(&format!(
            "\"{}\",{},{},{},{},{},{},{},{},{},{},{},{},{:.1},{}\n",
            r.design,
            r.u,
            r.p,
            r.seed,
            r.workers,
            r.virtual_pes,
            r.max_shard_pes,
            r.cross_shard_tokens,
            r.makespan,
            r.balanced_makespan,
            r.instances,
            r.cycles,
            r.wall_ns,
            r.instances_per_sec,
            r.identical
        ));
    }
    out
}

/// JSON rendering of the partition sweep (the `--sweep partition --json`
/// export CI stores as `BENCH_partition.json`).
pub fn partition_json(rows: &[PartitionRow]) -> String {
    rows_json(rows, |r| {
        vec![
            ("design", Json::str(r.design.as_str())),
            ("u", Json::from(r.u)),
            ("p", Json::from(r.p)),
            ("seed", Json::from(r.seed)),
            ("workers", Json::from(r.workers)),
            ("virtual_pes", Json::from(r.virtual_pes)),
            ("max_shard_pes", Json::from(r.max_shard_pes)),
            ("cross_shard_tokens", Json::from(r.cross_shard_tokens)),
            ("makespan", Json::from(r.makespan)),
            ("balanced_makespan", Json::from(r.balanced_makespan)),
            ("instances", Json::from(r.instances)),
            ("cycles", Json::from(r.cycles)),
            ("wall_ns", ns(r.wall_ns)),
            ("instances_per_sec", Json::from(r.instances_per_sec)),
            ("identical", Json::from(r.identical)),
        ]
    })
}

/// Default worker-pool sizes for the partition sweep: one worker (the
/// sequential baseline) up to a typical host core count.
pub fn default_partition_workers() -> Vec<usize> {
    vec![1, 2, 4, 8]
}

/// Default batch size for the partition sweep: one full word of instances.
pub fn default_partition_instances() -> usize {
    64
}

/// One row of the serve sweep: warm-vs-cold request throughput of the
/// NDJSON evaluation service on one `(design, u, p)` (the E22 series behind
/// `--sweep serve`; CI stores the JSON as `BENCH_serve.json` and gates
/// `warm_rps > cold_rps` per row).
#[derive(Debug, Clone)]
pub struct ServeSweepRow {
    /// Design label.
    pub design: String,
    /// Matrix dimension.
    pub u: i64,
    /// Word length.
    pub p: i64,
    /// Concurrent client connections in the warm phase.
    pub clients: usize,
    /// Warm requests timed (across all clients).
    pub requests: usize,
    /// Wall time of the first request on a cold server (pays the compile).
    pub cold_ns: u128,
    /// Wall time of the whole warm batch.
    pub warm_ns: u128,
    /// Cold request throughput, requests/second (`1e9 / cold_ns`).
    pub cold_rps: f64,
    /// Warm request throughput, requests/second.
    pub warm_rps: f64,
    /// `warm_rps / cold_rps` — the value a persistent warm-cache process
    /// buys over per-request cold starts.
    pub throughput_gain: f64,
    /// Compiles observed by the server's cache across the whole session
    /// (must be 1: the cold request compiles, every warm request hits).
    pub compiles: u64,
    /// True iff every terminal result line — cold and warm, across all
    /// clients — was byte-identical.
    pub identical: bool,
}

/// Measures warm-vs-cold request throughput through a real server on a
/// loopback ephemeral port: one cold `Evaluate` (the compile), then a batch
/// of identical requests from concurrent client connections, all answered
/// from the shared cache. Every terminal line is checked byte-identical and
/// the server's compile counter is checked to stay at one.
pub fn serve_sweep(sizes: &[(i64, i64)]) -> Vec<ServeSweepRow> {
    use bitlevel_serve::{serve, DesignSpec, Request, RequestEnvelope, ServeClient, ServeConfig};
    use bitlevel_systolic::SimBackend;
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 8;
    let mut rows = Vec::new();
    for &(u, p) in sizes {
        for design in [DesignSpec::TimeOptimal, DesignSpec::NearestNeighbour] {
            let server = serve(ServeConfig {
                workers: CLIENTS,
                poll_interval_ms: 10,
                ..ServeConfig::default()
            })
            .expect("bind a loopback ephemeral port");
            let addr = server.local_addr();
            // Every request is identical (same id included) so terminal
            // lines must be byte-identical regardless of cache temperature.
            let req = RequestEnvelope {
                id: 1,
                deadline_ms: None,
                request: Request::Evaluate {
                    u,
                    p: p as usize,
                    design,
                    backend: SimBackend::Compiled,
                },
            };

            let mut cold_client = ServeClient::connect(addr).expect("connect cold client");
            let t0 = Instant::now();
            let cold = cold_client.request_collect(&req).expect("cold evaluate");
            let cold_ns = t0.elapsed().as_nanos();
            let cold_line = cold
                .terminal_line()
                .expect("cold terminal frame")
                .to_string();

            let t0 = Instant::now();
            let warm_lines: Vec<String> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..CLIENTS)
                    .map(|_| {
                        let req = &req;
                        s.spawn(move || {
                            let mut client =
                                ServeClient::connect(addr).expect("connect warm client");
                            (0..PER_CLIENT)
                                .map(|_| {
                                    client
                                        .request_collect(req)
                                        .expect("warm evaluate")
                                        .terminal_line()
                                        .expect("warm terminal frame")
                                        .to_string()
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("warm client thread"))
                    .collect()
            });
            let warm_ns = t0.elapsed().as_nanos();

            let requests = CLIENTS * PER_CLIENT;
            let stats = server.cache().snapshot();
            let identical = warm_lines.iter().all(|l| *l == cold_line);
            server.shutdown();
            server.join();

            let cold_rps = 1e9 / cold_ns.max(1) as f64;
            let warm_rps = requests as f64 * 1e9 / warm_ns.max(1) as f64;
            rows.push(ServeSweepRow {
                design: design.wire_name().to_string(),
                u,
                p,
                clients: CLIENTS,
                requests,
                cold_ns,
                warm_ns,
                cold_rps,
                warm_rps,
                throughput_gain: warm_rps / cold_rps.max(f64::MIN_POSITIVE),
                compiles: stats.misses,
                identical,
            });
        }
    }
    rows
}

/// CSV rendering of the serve sweep.
pub fn serve_csv(rows: &[ServeSweepRow]) -> String {
    let mut out = String::from(
        "design,u,p,clients,requests,cold_ns,warm_ns,cold_rps,warm_rps,throughput_gain,compiles,identical\n",
    );
    for r in rows {
        out.push_str(&format!(
            "\"{}\",{},{},{},{},{},{},{:.3},{:.3},{:.3},{},{}\n",
            r.design,
            r.u,
            r.p,
            r.clients,
            r.requests,
            r.cold_ns,
            r.warm_ns,
            r.cold_rps,
            r.warm_rps,
            r.throughput_gain,
            r.compiles,
            r.identical
        ));
    }
    out
}

/// JSON rendering of the serve sweep (the `--sweep serve --json` export CI
/// stores as `BENCH_serve.json`).
pub fn serve_json(rows: &[ServeSweepRow]) -> String {
    rows_json(rows, |r| {
        vec![
            ("design", Json::str(r.design.as_str())),
            ("u", Json::from(r.u)),
            ("p", Json::from(r.p)),
            ("clients", Json::from(r.clients)),
            ("requests", Json::from(r.requests)),
            ("cold_ns", ns(r.cold_ns)),
            ("warm_ns", ns(r.warm_ns)),
            ("cold_rps", Json::from(r.cold_rps)),
            ("warm_rps", Json::from(r.warm_rps)),
            ("throughput_gain", Json::from(r.throughput_gain)),
            ("compiles", Json::from(r.compiles)),
            ("identical", Json::from(r.identical)),
        ]
    })
}

/// A JSON array with one object per row, keyed as `fields` lists them (the
/// struct field names, in declaration order).
fn rows_json<R>(rows: &[R], fields: impl Fn(&R) -> Vec<(&'static str, Json)>) -> String {
    Json::Arr(rows.iter().map(|r| Json::obj(fields(r))).collect()).render()
}

/// A nanosecond count as a JSON integer, saturating at `u64::MAX`.
fn ns(v: u128) -> Json {
    Json::from(u64::try_from(v).unwrap_or(u64::MAX))
}

/// Default sizes for the serve sweep: the paper's running example plus a
/// larger grid where the compile cost is unambiguous.
pub fn default_serve_sizes() -> Vec<(i64, i64)> {
    vec![(2, 2), (3, 3), (3, 4)]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a `--json` export, checking it holds one object per row.
    fn exported(json: &str, rows: usize) -> Vec<Json> {
        let json = Json::parse(json).expect("the export is valid JSON");
        let exported = json.as_arr().expect("an array of rows").to_vec();
        assert_eq!(exported.len(), rows);
        exported
    }

    #[test]
    fn speedup_rows_have_paper_shape() {
        let rows = speedup_sweep(&[(2, 2), (3, 3), (4, 4)]);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert_eq!(r.fig4_cycles, 3 * (r.u - 1) + 3 * (r.p - 1) + 1);
            assert!(r.fig5_cycles >= r.fig4_cycles);
            assert!(r.speedup_addshift >= r.speedup_carrysave);
        }
        // Speedups grow with p.
        assert!(rows[2].speedup_addshift > rows[0].speedup_addshift);
        let csv = speedup_csv(&rows);
        assert_eq!(csv.lines().count(), 4);
        assert!(csv.starts_with("u,p,"));
    }

    #[test]
    fn analysis_rows_agree_and_diverge_in_time() {
        let rows = analysis_time_sweep(&[(2, 2), (2, 3)]);
        for r in &rows {
            assert!(r.agree);
            assert!(r.enumerate_ns > r.compose_ns);
        }
        let csv = analysis_time_csv(&rows);
        assert!(csv.contains("true"));
    }

    #[test]
    fn utilization_rows_cover_both_designs() {
        let rows = utilization_sweep(&[(2, 2)]);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().any(|r| r.design.contains("Fig. 4")));
        assert!(rows.iter().any(|r| r.design.contains("Fig. 5")));
        for r in &rows {
            assert!(r.utilization > 0.0 && r.utilization <= 1.0);
            assert_eq!(r.processors, 16);
        }
        let csv = utilization_csv(&rows);
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn wavefront_rows_cover_both_spans_and_conserve_points() {
        let rows = wavefront_sweep(2, 2);
        // The union span is Fig. 5's: (2p+1)(u-1) + 3(p-1) + 1 = 9 cycles.
        assert_eq!(rows.len(), 9);
        assert_eq!(rows[0].cycle, 0);
        // Both designs fire every index point exactly once: |J| = u^3 p^2.
        assert_eq!(rows.iter().map(|r| r.fig4_width).sum::<u64>(), 32);
        assert_eq!(rows.iter().map(|r| r.fig5_width).sum::<u64>(), 32);
        // Fig. 4 finishes inside its own 7-cycle span (eq. (4.5)).
        assert!(rows.iter().skip(7).all(|r| r.fig4_width == 0));
        let csv = wavefront_csv(&rows);
        assert_eq!(csv.lines().count(), 10);
        assert!(csv.starts_with("cycle,fig4_width,fig5_width"));
    }

    #[test]
    fn frontier_rows_are_verified_pareto_designs() {
        let rows = frontier_sweep(&[(2, 2)]);
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(
                r.verified,
                "unverified frontier design at u={} p={}",
                r.u, r.p
            );
            assert_eq!(r.backend, "compiled");
            assert!(r.time > 0 && r.processors > 0 && r.max_wire_length >= 1);
        }
        // Theorem 4.5's schedule heads the u=p=2 frontier at t=7.
        assert_eq!(rows[0].time, 7);
        assert_eq!(rows[0].schedule, "[1, 1, 1, 2, 1]");
        let csv = frontier_csv(&rows);
        assert_eq!(csv.lines().count(), rows.len() + 1);
        assert!(csv.starts_with("u,p,time,processors,max_wire_length,"));
        // CSV fields with internal commas are quoted.
        assert!(csv.contains("\"[1, 1, 1, 2, 1]\""));
        let json = exported(&frontier_json(&rows), rows.len());
        assert_eq!(
            json[0].get("schedule").and_then(Json::as_str),
            Some("[1, 1, 1, 2, 1]")
        );
        for e in &json {
            assert_eq!(e.get("verified").and_then(Json::as_bool), Some(true));
            assert_eq!(e.get("backend").and_then(Json::as_str), Some("compiled"));
        }
    }

    #[test]
    fn fault_rows_partition_with_zero_sdc() {
        let rows = faults_sweep(&default_fault_sizes(), 7);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().any(|r| r.design.contains("TimeOptimal")));
        assert!(rows.iter().any(|r| r.design.contains("NearestNeighbour")));
        for r in &rows {
            assert_eq!(r.total, 32 * 5);
            assert_eq!(r.masked + r.detected + r.sdc, r.total);
            assert_eq!(r.sdc, 0, "silent corruption in {}", r.design);
            assert_eq!(r.engine_mismatches, 0);
            assert!((r.detection_coverage - 1.0).abs() < 1e-12);
        }
        let csv = faults_csv(&rows);
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("u,p,design,total,masked,detected,sdc,"));
        for (e, r) in exported(&faults_json(&rows), rows.len()).iter().zip(&rows) {
            assert_eq!(e.get("total").and_then(Json::as_u64), Some(r.total as u64));
            assert_eq!(e.get("sdc").and_then(Json::as_u64), Some(0));
            assert_eq!(e.get("engine_mismatches").and_then(Json::as_u64), Some(0));
        }
    }

    #[test]
    fn engine_rows_are_bit_identical() {
        let rows = engine_sweep(&[(2, 2), (3, 2)]);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(
                r.identical,
                "engines diverged at u={} p={} {}",
                r.u, r.p, r.design
            );
            assert_eq!(r.points, (r.u * r.u * r.u * r.p * r.p) as usize);
            assert!(r.execute_ns > 0 && r.speedup > 0.0);
        }
        let csv = engine_csv(&rows);
        assert_eq!(csv.lines().count(), 5);
        assert!(csv.starts_with("u,p,design,points,"));
    }

    #[test]
    fn batch_rows_are_bit_exact_at_every_width() {
        let rows = batch_sweep(&[1, 3, 64], 7, 0x1CC7_1993);
        assert_eq!(rows.len(), 6, "two designs x three widths");
        for r in &rows {
            assert!(r.identical, "{} at width {} diverged", r.design, r.width);
            assert_eq!(r.instances, 7);
            assert_eq!(r.walks, r.instances.div_ceil(r.width));
            assert!(r.instances_per_sec > 0.0);
            assert_eq!(r.seed, 0x1CC7_1993);
        }
        // Fig. 4 rows measure the closed-form (4.5) makespan: u = 3, p = 4.
        assert!(rows[..3]
            .iter()
            .all(|r| r.cycles == 3 * (3 - 1) + 3 * (4 - 1) + 1));
        let csv = batch_csv(&rows);
        assert_eq!(csv.lines().count(), 7);
        assert!(csv.starts_with("design,u,p,width,"));
        for (e, r) in exported(&batch_json(&rows), rows.len()).iter().zip(&rows) {
            assert_eq!(e.get("width").and_then(Json::as_u64), Some(r.width as u64));
            assert_eq!(e.get("identical").and_then(Json::as_bool), Some(true));
            assert_eq!(
                e.get("instances_per_sec").and_then(Json::as_f64),
                Some(r.instances_per_sec)
            );
        }
    }

    #[test]
    fn faultbatch_rows_are_identical_to_scalar_at_every_width() {
        let rows = faultbatch_sweep(&[1, 5, 64], 0x1CC7_1993);
        assert_eq!(rows.len(), 6, "two designs x three widths");
        for r in &rows {
            assert!(r.identical, "{} at width {} diverged", r.design, r.width);
            assert_eq!(r.cases, 2 * 2 * 2 * 3 * 3 * 5, "|J| x 5 signal bits");
            assert_eq!(r.walks, r.cases.div_ceil(r.width));
            assert_eq!(r.sdc, 0);
            assert_eq!(r.masked + r.detected, r.cases);
            assert!(r.cases_per_sec > 0.0 && r.scalar_cases_per_sec > 0.0);
        }
        let csv = faultbatch_csv(&rows);
        assert_eq!(csv.lines().count(), 7);
        assert!(csv.starts_with("design,u,p,seed,width,"));
        for (e, r) in exported(&faultbatch_json(&rows), rows.len())
            .iter()
            .zip(&rows)
        {
            assert_eq!(e.get("walks").and_then(Json::as_u64), Some(r.walks as u64));
            assert_eq!(e.get("cases").and_then(Json::as_u64), Some(r.cases as u64));
            assert_eq!(e.get("identical").and_then(Json::as_bool), Some(true));
        }
    }

    #[test]
    fn partition_rows_are_bit_identical_with_non_increasing_balanced_makespan() {
        let rows = partition_sweep(&[1, 2, 8], 5, 0x1CC7_1993);
        assert_eq!(rows.len(), 6, "two designs x three pool sizes");
        for r in &rows {
            assert!(
                r.identical,
                "{} at {} workers diverged",
                r.design, r.workers
            );
            assert_eq!(r.instances, 5);
            assert_eq!(r.virtual_pes, 4 * 4 * 3 * 3, "u^2 p^2 processors");
            assert!(r.max_shard_pes >= r.virtual_pes.div_ceil(r.workers));
            assert!(r.instances_per_sec > 0.0);
            assert!(r.balanced_makespan <= r.makespan.max(r.balanced_makespan));
        }
        for d in rows.chunks(3) {
            assert!(
                d.windows(2)
                    .all(|w| w[1].balanced_makespan <= w[0].balanced_makespan),
                "balanced makespan must not grow with the pool"
            );
            assert_eq!(
                d.iter()
                    .find(|r| r.workers == 1)
                    .unwrap()
                    .cross_shard_tokens,
                0,
                "one shard has no cross-shard traffic"
            );
        }
        let csv = partition_csv(&rows);
        assert_eq!(csv.lines().count(), 7);
        assert!(csv.starts_with("design,u,p,seed,workers,"));
        for (e, r) in exported(&partition_json(&rows), rows.len())
            .iter()
            .zip(&rows)
        {
            assert_eq!(
                e.get("workers").and_then(Json::as_u64),
                Some(r.workers as u64)
            );
            assert_eq!(
                e.get("balanced_makespan").and_then(Json::as_u64),
                Some(r.balanced_makespan)
            );
            assert_eq!(e.get("identical").and_then(Json::as_bool), Some(true));
        }
    }

    #[test]
    fn serve_rows_show_one_compile_and_identical_lines() {
        let rows = serve_sweep(&[(2, 2)]);
        assert_eq!(rows.len(), 2, "two designs x one size");
        for r in &rows {
            assert_eq!(
                r.compiles, 1,
                "{}: exactly one compile per session",
                r.design
            );
            assert!(r.identical, "{}: warm lines diverged from cold", r.design);
            assert_eq!(r.requests, r.clients * 8);
            assert!(r.warm_rps > 0.0 && r.cold_rps > 0.0);
        }
        let csv = serve_csv(&rows);
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("design,u,p,clients,requests,cold_ns,"));
        for (e, r) in exported(&serve_json(&rows), rows.len()).iter().zip(&rows) {
            assert_eq!(
                e.get("design").and_then(Json::as_str),
                Some(r.design.as_str())
            );
            assert_eq!(e.get("compiles").and_then(Json::as_u64), Some(1));
            assert_eq!(e.get("warm_rps").and_then(Json::as_f64), Some(r.warm_rps));
        }
    }

    #[test]
    fn cache_rows_show_warm_beating_cold_with_identical_artifacts() {
        let rows = cache_sweep(&[(2, 2), (3, 3)]);
        assert_eq!(rows.len(), 4, "two designs x two sizes");
        for r in &rows {
            assert!(
                r.identical,
                "{} u={} p={} trajectory broke",
                r.design, r.u, r.p
            );
            assert_eq!(r.compiles, 1, "exactly one compile per row");
            assert!(
                r.warm_mem_ns < r.cold_ns,
                "{} u={} p={}: memory hit ({} ns) must beat the cold compile ({} ns)",
                r.design,
                r.u,
                r.p,
                r.warm_mem_ns,
                r.cold_ns
            );
            assert!(r.mem_speedup > 1.0 && r.disk_speedup > 0.0);
            assert_eq!(r.points, (r.u * r.u * r.u * r.p * r.p) as usize);
        }
        let csv = cache_csv(&rows);
        assert_eq!(csv.lines().count(), 5);
        assert!(csv.starts_with("design,u,p,points,cold_ns,"));
        for (e, r) in exported(&cache_json(&rows), rows.len()).iter().zip(&rows) {
            assert_eq!(
                e.get("design").and_then(Json::as_str),
                Some(r.design.as_str())
            );
            assert_eq!(
                e.get("cold_ns").and_then(Json::as_u64),
                Some(r.cold_ns as u64)
            );
            assert_eq!(e.get("compiles").and_then(Json::as_u64), Some(r.compiles));
            assert_eq!(
                e.get("identical").and_then(Json::as_bool),
                Some(r.identical)
            );
        }
    }
}
