//! Register-transfer-level execution of the Fig. 4 architecture.
//!
//! The deepest verification in the repository: the time-optimal bit-level
//! matmul array is executed cycle by cycle with value-carrying tokens —
//! every token's route is timed against the machine's links, every PE fires
//! exactly at its scheduled cycle — and the product bits collected at the
//! boundary are compared against native arithmetic. The run goes through
//! both engines — the interpreted reference and the compiled static-schedule
//! backend — which must agree bit for bit. Also prints the
//! paper-figure-style visualisations, plus the *measured* profile captured
//! by the trace layer during the compiled run.
//!
//! Run with: `cargo run --example clocked_rtl`

use bitlevel::core_api::render_trace_summary;
use bitlevel::depanal::{compose, Expansion};
use bitlevel::systolic::{
    render_activity_profile, render_block_structure, render_gantt, render_links,
    render_processor_grid, render_trace_pe_load, render_trace_wavefront, run_clocked,
    CompiledSchedule, MatmulExpansionIICells, NoFaults, RecordingSink,
};
use bitlevel::{BitMatmulArray, PaperDesign, WordLevelAlgorithm};

fn main() {
    let (u, p) = (3usize, 3usize);
    let alg = compose(&WordLevelAlgorithm::matmul(u as i64), p, Expansion::II);
    let design = PaperDesign::TimeOptimal;
    let mapping = design.mapping(p as i64);
    let machine = design.interconnect(p as i64);

    // Operands within the safe accumulator bound.
    let m = BitMatmulArray::new(u, p).max_safe_entry();
    let x: Vec<Vec<u128>> = (0..u)
        .map(|i| {
            (0..u)
                .map(|j| ((2 * i + 3 * j + 1) as u128) % (m + 1))
                .collect()
        })
        .collect();
    let y: Vec<Vec<u128>> = (0..u)
        .map(|i| (0..u).map(|j| ((i + j + 1) as u128) % (m + 1)).collect())
        .collect();

    println!("{}", render_block_structure(u as i64, p as i64));
    println!("{}", render_processor_grid(&alg, &mapping));
    println!("{}", render_links(&alg, &mapping, &machine));
    println!("{}", render_activity_profile(&alg, &mapping));
    println!("{}", render_gantt(&alg, &mapping, 12));

    let mut cells = MatmulExpansionIICells::new(u, p, &x, &y);
    let run = run_clocked(&alg, &mapping, &machine, &mut cells);
    assert!(run.is_legal(), "violations: {:?}", run.violations);
    println!(
        "clocked run: {} cycles, peak in-flight tokens per edge class: {:?}",
        run.cycles, run.peak_in_flight
    );

    // The compiled backend: rank the schedule once into dense slots, execute
    // cycle-sliced, and get the identical run back — this time with the
    // trace layer watching every firing and token.
    let sched = CompiledSchedule::try_compile(&alg, &mapping, &machine)
        .expect("the 7-column matmul structure compiles");
    let mut sink = RecordingSink::new();
    let compiled = sched.execute_faulted(&cells, &mut sink, &NoFaults);
    assert_eq!(compiled.cycles, run.cycles);
    assert_eq!(compiled.violations, run.violations);
    assert_eq!(compiled.peak_in_flight, run.peak_in_flight);
    assert_eq!(compiled.outputs, run.outputs);
    println!(
        "compiled backend: {} slots over {} cycles on {} PEs, parallel-safe = {}, bit-identical",
        sched.n_points(),
        sched.n_cycles(),
        sched.n_processors(),
        sched.is_causal()
    );

    // What the trace layer saw: the observed wavefront, PE load and rollup
    // counters of the run above (not the predicted profile — the measured one).
    println!("\n{}", render_trace_wavefront(sink.rollup()));
    println!("{}", render_trace_pe_load(sink.rollup(), 8));
    println!("{}", render_trace_summary(sink.rollup()));

    let z = cells.extract_product(&run);
    println!("\nZ = X*Y, extracted from the array boundary:");
    for (i, row) in z.iter().enumerate() {
        let want: Vec<u128> = (0..u)
            .map(|j| (0..u).map(|k| x[i][k] * y[k][j]).sum())
            .collect();
        assert_eq!(row, &want, "row {i}");
        println!("  {row:?}");
    }
    println!("\nevery bit correct, every token on time: the architecture works.");
}
