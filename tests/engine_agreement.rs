//! Cross-engine agreement: the four independent executions of the
//! Expansion II matmul architecture — the topological array sweep, the
//! clocked RTL engine on the Fig. 4 mapping, the clocked RTL engine on the
//! Fig. 5 mapping, and the compiled static-schedule engine — must produce
//! identical bits for identical operands, across random sizes and operand
//! patterns. The compiled engine must match the interpreted one not just on
//! products but on the *whole run*: outputs, violations, cycle count and
//! in-flight peaks. Tracing must be a pure observer: traced runs stay
//! bit-identical to untraced ones, and the captured profiles agree across
//! engines.

use bitlevel::depanal::{compose, Expansion};
use bitlevel::systolic::{
    run_clocked, run_clocked_compiled, run_clocked_traced, CompiledSchedule, Model35Cells,
    RecordingSink,
};
use bitlevel::{BitMatmulArray, PaperDesign, WordLevelAlgorithm};
use proptest::prelude::*;

/// One `u×u` operand matrix.
type Matrix = Vec<Vec<u128>>;

fn random_matrix(u: usize, cap: u128, state: &mut u64) -> Matrix {
    (0..u)
        .map(|_| {
            (0..u)
                .map(|_| {
                    *state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((*state >> 33) as u128) % (cap + 1)
                })
                .collect()
        })
        .collect()
}

fn matmul_cells(u: usize, p: usize, x: &[Vec<u128>], y: &[Vec<u128>]) -> Model35Cells {
    let word = WordLevelAlgorithm::matmul(u as i64);
    let alg = compose(&word, p, Expansion::II);
    let (xo, yo) = (x.to_vec(), y.to_vec());
    Model35Cells::new(
        &word,
        p,
        &alg,
        move |j| xo[(j[0] - 1) as usize][(j[2] - 1) as usize],
        move |j| yo[(j[2] - 1) as usize][(j[1] - 1) as usize],
    )
}

fn clocked_product(
    u: usize,
    p: usize,
    design: PaperDesign,
    x: &[Vec<u128>],
    y: &[Vec<u128>],
) -> Vec<Vec<u128>> {
    let alg = compose(&WordLevelAlgorithm::matmul(u as i64), p, Expansion::II);
    let mut cells = matmul_cells(u, p, x, y);
    let run = run_clocked(
        &alg,
        &design.mapping(p as i64),
        &design.interconnect(p as i64),
        &mut cells,
    );
    assert!(run.is_legal(), "{design:?}: {:?}", run.violations);
    let mut z = vec![vec![0u128; u]; u];
    for (tail, value) in cells.extract_results(&run) {
        z[(tail[0] - 1) as usize][(tail[1] - 1) as usize] = value;
    }
    z
}

fn compiled_product(
    u: usize,
    p: usize,
    design: PaperDesign,
    x: &[Vec<u128>],
    y: &[Vec<u128>],
) -> Vec<Vec<u128>> {
    let alg = compose(&WordLevelAlgorithm::matmul(u as i64), p, Expansion::II);
    let cells = matmul_cells(u, p, x, y);
    let run = run_clocked_compiled(
        &alg,
        &design.mapping(p as i64),
        &design.interconnect(p as i64),
        &cells,
    );
    assert!(
        run.is_legal(),
        "{design:?} (compiled): {:?}",
        run.violations
    );
    let mut z = vec![vec![0u128; u]; u];
    for (tail, value) in cells.extract_results(&run) {
        z[(tail[0] - 1) as usize][(tail[1] - 1) as usize] = value;
    }
    z
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// All four engines agree bit-for-bit, and match native arithmetic
    /// within the safe operand bound.
    #[test]
    fn prop_four_engines_agree(u in 1usize..4, p in 2usize..5, seed in any::<u64>()) {
        let arr = BitMatmulArray::new(u, p);
        let cap = arr.max_safe_entry();
        prop_assume!(cap > 0);
        let mut state = seed | 1;
        let x = random_matrix(u, cap, &mut state);
        let y = random_matrix(u, cap, &mut state);

        let topo = arr.multiply(&x, &y);
        let fig4 = clocked_product(u, p, PaperDesign::TimeOptimal, &x, &y);
        let fig5 = clocked_product(u, p, PaperDesign::NearestNeighbour, &x, &y);
        let fig4c = compiled_product(u, p, PaperDesign::TimeOptimal, &x, &y);
        let fig5c = compiled_product(u, p, PaperDesign::NearestNeighbour, &x, &y);
        prop_assert_eq!(&topo, &fig4);
        prop_assert_eq!(&topo, &fig5);
        prop_assert_eq!(&topo, &fig4c);
        prop_assert_eq!(&topo, &fig5c);
        for i in 0..u {
            for j in 0..u {
                let want: u128 = (0..u).map(|k| x[i][k] * y[k][j]).sum();
                prop_assert_eq!(topo[i][j], want);
            }
        }
    }

    /// Under overflow (operands beyond the safe bound) the engines still
    /// agree with each other and with the mod-2^{2p−1} reference.
    #[test]
    fn prop_engines_agree_under_wraparound(u in 1usize..3, p in 2usize..4, seed in any::<u64>()) {
        let arr = BitMatmulArray::new(u, p);
        let cap = (1u128 << p) - 1;
        let mut state = seed | 1;
        let x = random_matrix(u, cap, &mut state);
        let y = random_matrix(u, cap, &mut state);
        let topo = arr.multiply(&x, &y);
        let fig4 = clocked_product(u, p, PaperDesign::TimeOptimal, &x, &y);
        let fig4c = compiled_product(u, p, PaperDesign::TimeOptimal, &x, &y);
        prop_assert_eq!(&topo, &fig4);
        prop_assert_eq!(&topo, &fig4c);
        prop_assert_eq!(topo, arr.reference(&x, &y));
    }

    /// The compiled engine reproduces the interpreted engine's *entire* run —
    /// outputs, violation stream, cycle count and in-flight peaks — on both
    /// paper designs.
    #[test]
    fn prop_compiled_run_is_bit_identical(u in 1usize..4, p in 2usize..4, seed in any::<u64>()) {
        let arr = BitMatmulArray::new(u, p);
        let cap = arr.max_safe_entry().max(1);
        let mut state = seed | 1;
        let x = random_matrix(u, cap, &mut state);
        let y = random_matrix(u, cap, &mut state);
        let alg = compose(&WordLevelAlgorithm::matmul(u as i64), p, Expansion::II);
        for design in [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour] {
            let t = design.mapping(p as i64);
            let ic = design.interconnect(p as i64);
            let mut cells = matmul_cells(u, p, &x, &y);
            let interpreted = run_clocked(&alg, &t, &ic, &mut cells);
            let compiled = run_clocked_compiled(&alg, &t, &ic, &cells);
            prop_assert_eq!(compiled.cycles, interpreted.cycles);
            prop_assert_eq!(&compiled.violations, &interpreted.violations);
            prop_assert_eq!(&compiled.peak_in_flight, &interpreted.peak_in_flight);
            prop_assert_eq!(&compiled.outputs, &interpreted.outputs);
        }
    }
}

/// A larger deterministic instance on both engines (release-speed sizes are
/// exercised by the benches; this pins a mid-size case into the suite).
#[test]
fn mid_size_instance_agrees() {
    let (u, p) = (4usize, 5usize);
    let arr = BitMatmulArray::new(u, p);
    let cap = arr.max_safe_entry();
    let x: Vec<Vec<u128>> = (0..u)
        .map(|i| {
            (0..u)
                .map(|j| ((11 * i + 3 * j + 2) as u128) % (cap + 1))
                .collect()
        })
        .collect();
    let y: Vec<Vec<u128>> = (0..u)
        .map(|i| {
            (0..u)
                .map(|j| ((5 * i + 7 * j + 1) as u128) % (cap + 1))
                .collect()
        })
        .collect();
    let topo = arr.multiply(&x, &y);
    let fig4 = clocked_product(u, p, PaperDesign::TimeOptimal, &x, &y);
    let fig4c = compiled_product(u, p, PaperDesign::TimeOptimal, &x, &y);
    assert_eq!(topo, fig4);
    assert_eq!(topo, fig4c);
}

/// Tracing is a pure observer: a traced run is bit-identical to an untraced
/// one on both engines, the captured profile accounts for every index point
/// exactly once, and the two engines record the same wavefront and PE-load
/// shapes.
#[test]
fn traced_runs_are_bit_identical_and_account_for_every_point() {
    let (u, p) = (2usize, 3usize);
    let arr = BitMatmulArray::new(u, p);
    let cap = arr.max_safe_entry();
    let mut state = 0xfeed_beef_u64;
    let x = random_matrix(u, cap, &mut state);
    let y = random_matrix(u, cap, &mut state);
    let alg = compose(&WordLevelAlgorithm::matmul(u as i64), p, Expansion::II);
    let points = (u * u * u * p * p) as u64;
    for design in [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour] {
        let t = design.mapping(p as i64);
        let ic = design.interconnect(p as i64);

        let mut cells = matmul_cells(u, p, &x, &y);
        let plain = run_clocked(&alg, &t, &ic, &mut cells);
        let mut cells = matmul_cells(u, p, &x, &y);
        let mut rec_i = RecordingSink::new();
        let traced = run_clocked_traced(&alg, &t, &ic, &mut cells, &mut rec_i);
        assert_eq!(traced.cycles, plain.cycles, "{design:?}");
        assert_eq!(traced.violations, plain.violations, "{design:?}");
        assert_eq!(traced.peak_in_flight, plain.peak_in_flight, "{design:?}");
        assert_eq!(traced.outputs, plain.outputs, "{design:?}");

        let cells = matmul_cells(u, p, &x, &y);
        let sched = CompiledSchedule::try_compile(&alg, &t, &ic)
            .expect("the 7-column matmul structure compiles");
        let plain_c = sched.execute(&cells);
        let mut rec_c = RecordingSink::new();
        let traced_c = sched.execute_traced(&cells, &mut rec_c);
        assert_eq!(traced_c.cycles, plain_c.cycles, "{design:?}");
        assert_eq!(traced_c.violations, plain_c.violations, "{design:?}");
        assert_eq!(
            traced_c.peak_in_flight, plain_c.peak_in_flight,
            "{design:?}"
        );
        assert_eq!(traced_c.outputs, plain_c.outputs, "{design:?}");
        assert_eq!(traced_c.outputs, traced.outputs, "{design:?}");

        // Every index point fires exactly once in both captured profiles,
        // and the engines agree on the shape of the run they observed.
        assert_eq!(rec_i.rollup().fire_total(), points, "{design:?}");
        assert_eq!(rec_c.rollup().fire_total(), points, "{design:?}");
        assert_eq!(
            rec_i.rollup().wavefront,
            rec_c.rollup().wavefront,
            "{design:?}"
        );
        assert_eq!(
            rec_i.rollup().pe_fires,
            rec_c.rollup().pe_fires,
            "{design:?}"
        );
        assert_eq!(rec_i.rollup().violations, 0, "{design:?}");
        assert_eq!(rec_c.rollup().violations, 0, "{design:?}");
    }
}

/// On an illegal architecture the captured violation events are exactly the
/// engine's violation stream, rendered in order.
#[test]
fn traced_violations_mirror_the_engines_violation_stream() {
    let (u, p) = (2usize, 2usize);
    let arr = BitMatmulArray::new(u, p);
    let cap = arr.max_safe_entry().max(1);
    let mut state = 0x0dd_ba11_u64;
    let x = random_matrix(u, cap, &mut state);
    let y = random_matrix(u, cap, &mut state);
    let alg = compose(&WordLevelAlgorithm::matmul(u as i64), p, Expansion::II);
    // Fig. 4's fast schedule over Fig. 5's wire-poor interconnect: tokens
    // cannot make their route deadlines, so the run is illegal.
    let t = PaperDesign::TimeOptimal.mapping(p as i64);
    let ic = PaperDesign::NearestNeighbour.interconnect(p as i64);
    let mut cells = matmul_cells(u, p, &x, &y);
    let mut rec = RecordingSink::new();
    let run = run_clocked_traced(&alg, &t, &ic, &mut cells, &mut rec);
    assert!(!run.is_legal());
    let rendered: Vec<String> = run.violations.iter().map(|v| v.to_string()).collect();
    assert_eq!(rec.violation_descriptions(), rendered);
    assert_eq!(rec.rollup().violations, run.violations.len() as u64);
}

// ---------------------------------------------------------------------------
// Lane-packed batch engine: every lane of a word-wide walk must reproduce
// the interpreted oracle bit for bit.
// ---------------------------------------------------------------------------

use bitlevel::systolic::{MatmulExpansionIICells, MatmulLaneCells};

fn random_batch(u: usize, cap: u128, n: usize, state: &mut u64) -> (Vec<Matrix>, Vec<Matrix>) {
    (
        (0..n).map(|_| random_matrix(u, cap, state)).collect(),
        (0..n).map(|_| random_matrix(u, cap, state)).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every lane of every chunk of a randomized batch — including the
    /// ragged final chunk when the width does not divide the batch size —
    /// reproduces the interpreted engine's *entire* per-instance run on both
    /// paper designs: outputs, violations, cycle count and in-flight peaks.
    #[test]
    fn prop_batch_lanes_match_the_interpreted_oracle(
        width in 1usize..=64,
        n in 1usize..=70,
        seed in any::<u64>(),
    ) {
        let (u, p) = (2usize, 2usize);
        let cap = BitMatmulArray::new(u, p).max_safe_entry().max(1);
        let mut state = seed | 1;
        let (xs, ys) = random_batch(u, cap, n, &mut state);
        let alg = compose(&WordLevelAlgorithm::matmul(u as i64), p, Expansion::II);
        for design in [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour] {
            let t = design.mapping(p as i64);
            let ic = design.interconnect(p as i64);
            let sched = CompiledSchedule::try_compile(&alg, &t, &ic).expect("matmul compiles");
            for (xc, yc) in xs.chunks(width).zip(ys.chunks(width)) {
                let cells = MatmulLaneCells::new(u, p, xc, yc);
                let batch = sched.execute_batch(&cells);
                prop_assert!(batch.is_legal(), "{:?}: {:?}", design, batch.violations);
                prop_assert_eq!(batch.lanes, xc.len());
                for lane in 0..xc.len() {
                    let lane_run = batch.extract_lane_run(&cells, lane);
                    let mut oracle_cells = MatmulExpansionIICells::new(u, p, &xc[lane], &yc[lane]);
                    let oracle = run_clocked(&alg, &t, &ic, &mut oracle_cells);
                    prop_assert_eq!(lane_run.cycles, oracle.cycles);
                    prop_assert_eq!(&lane_run.violations, &oracle.violations);
                    prop_assert_eq!(&lane_run.peak_in_flight, &oracle.peak_in_flight);
                    prop_assert_eq!(&lane_run.outputs, &oracle.outputs);
                }
            }
        }
    }
}

/// Width-1 batches take the same word-wide machinery with a single occupied
/// lane; the result must be bit-identical to the scalar compiled engine.
#[test]
fn width_one_batch_agrees_with_the_scalar_compiled_engine() {
    let (u, p) = (3usize, 3usize);
    let cap = BitMatmulArray::new(u, p).max_safe_entry().max(1);
    let mut state = 0x5eed_u64;
    let x = random_matrix(u, cap, &mut state);
    let y = random_matrix(u, cap, &mut state);
    let alg = compose(&WordLevelAlgorithm::matmul(u as i64), p, Expansion::II);
    for design in [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour] {
        let t = design.mapping(p as i64);
        let ic = design.interconnect(p as i64);
        let sched = CompiledSchedule::try_compile(&alg, &t, &ic).expect("matmul compiles");
        let scalar_cells = MatmulExpansionIICells::new(u, p, &x, &y);
        let scalar = sched.execute(&scalar_cells);
        let lane_cells =
            MatmulLaneCells::new(u, p, std::slice::from_ref(&x), std::slice::from_ref(&y));
        let batch = sched.execute_batch(&lane_cells);
        let lane0 = batch.extract_lane_run(&lane_cells, 0);
        assert_eq!(lane0.cycles, scalar.cycles, "{design:?}");
        assert_eq!(lane0.violations, scalar.violations, "{design:?}");
        assert_eq!(lane0.peak_in_flight, scalar.peak_in_flight, "{design:?}");
        assert_eq!(lane0.outputs, scalar.outputs, "{design:?}");
        assert_eq!(
            lane_cells.extract_products(&batch)[0],
            scalar_cells.extract_product(&scalar),
            "{design:?}"
        );
    }
}

/// Deterministic pin of the proptest above: fixed (width, n, seed) triples
/// covering an exact word, a ragged tail, and a single lane.
#[test]
fn randomized_batch_lanes_match_the_interpreted_oracle() {
    let (u, p) = (2usize, 2usize);
    let cap = BitMatmulArray::new(u, p).max_safe_entry().max(1);
    let alg = compose(&WordLevelAlgorithm::matmul(u as i64), p, Expansion::II);
    for (width, n, seed) in [(64usize, 64usize, 1u64), (7, 23, 0x1CC7_1993), (1, 3, 99)] {
        let mut state = seed | 1;
        let (xs, ys) = random_batch(u, cap, n, &mut state);
        for design in [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour] {
            let t = design.mapping(p as i64);
            let ic = design.interconnect(p as i64);
            let sched = CompiledSchedule::try_compile(&alg, &t, &ic).expect("matmul compiles");
            for (xc, yc) in xs.chunks(width).zip(ys.chunks(width)) {
                let cells = MatmulLaneCells::new(u, p, xc, yc);
                let batch = sched.execute_batch(&cells);
                assert!(batch.is_legal(), "{design:?}: {:?}", batch.violations);
                assert_eq!(batch.lanes, xc.len());
                for lane in 0..xc.len() {
                    let lane_run = batch.extract_lane_run(&cells, lane);
                    let mut oracle_cells = MatmulExpansionIICells::new(u, p, &xc[lane], &yc[lane]);
                    let oracle = run_clocked(&alg, &t, &ic, &mut oracle_cells);
                    assert_eq!(lane_run.cycles, oracle.cycles, "{design:?} lane {lane}");
                    assert_eq!(
                        lane_run.violations, oracle.violations,
                        "{design:?} lane {lane}"
                    );
                    assert_eq!(
                        lane_run.peak_in_flight, oracle.peak_in_flight,
                        "{design:?} lane {lane}"
                    );
                    assert_eq!(lane_run.outputs, oracle.outputs, "{design:?} lane {lane}");
                }
            }
        }
    }
}
