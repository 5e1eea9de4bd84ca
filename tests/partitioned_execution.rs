//! Integration tests for the LSGP-partitioned execution engine: a fixed
//! pool of physical workers executing the unbounded virtual PE array must
//! be a pure implementation detail — bit-identical runs, products,
//! violations and fault classifications at every pool size, on both paper
//! designs, for scalar and lane-packed batches alike.

use bitlevel::systolic::{
    run_clocked, MatmulExpansionIICells, MatmulLaneCells, PartitionedSchedule,
};
use bitlevel::{
    compose, BackendUsed, BitMatmulArray, CompileCache, DesignFlow, Expansion, PaperDesign,
    SimBackend, WordLevelAlgorithm,
};
use proptest::prelude::*;
use std::sync::Arc;

const DESIGNS: [PaperDesign; 2] = [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour];

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

fn random_batch(u: usize, p: usize, n: usize, seed: u64) -> (Vec<Matrix>, Vec<Matrix>) {
    let cap = BitMatmulArray::new(u, p).max_safe_entry();
    let mut state = seed | 1;
    let xs = (0..n).map(|_| random_matrix(u, cap, &mut state)).collect();
    let ys = (0..n).map(|_| random_matrix(u, cap, &mut state)).collect();
    (xs, ys)
}

/// Runs one (u, p, design, workers) instance through the interpreted
/// oracle, the compiled engine and the partitioned engine and asserts the
/// whole runs are identical.
fn check_partitioned_matches_oracle(u: usize, p: usize, design: PaperDesign, workers: usize) {
    let word = WordLevelAlgorithm::matmul(u as i64);
    let alg = compose(&word, p, Expansion::II);
    let t = design.mapping(p as i64);
    let ic = design.interconnect(p as i64);
    let (xs, ys) = random_batch(u, p, 1, 0x9E37 ^ (workers as u64) << 8 ^ u as u64);
    let mut cells = MatmulExpansionIICells::new(u, p, &xs[0], &ys[0]);

    let oracle = run_clocked(&alg, &t, &ic, &mut cells);
    let cache = CompileCache::new();
    let (sched, _) = cache.get_or_compile(&alg, &t, &ic).unwrap();
    let part = PartitionedSchedule::try_new(Arc::clone(&sched), workers)
        .expect("paper schedules are causal");
    let prun = part.execute(&cells);

    let label = format!("{design:?} u={u} p={p} workers={workers}");
    assert_eq!(prun.outputs, oracle.outputs, "{label}: outputs diverged");
    assert_eq!(
        prun.violations, oracle.violations,
        "{label}: violations diverged"
    );
    assert_eq!(prun.cycles, oracle.cycles, "{label}: cycles diverged");
    assert_eq!(
        prun.peak_in_flight, oracle.peak_in_flight,
        "{label}: in-flight peaks diverged"
    );
    assert!(
        part.stats().max_shard_pes <= part.stats().virtual_pes,
        "{label}: shard larger than the array"
    );
}

#[test]
fn partitioned_matches_the_interpreted_oracle_across_pool_sizes() {
    for design in DESIGNS {
        for workers in 1..=8 {
            check_partitioned_matches_oracle(2, 2, design, workers);
        }
        check_partitioned_matches_oracle(3, 2, design, 5);
    }
}

#[test]
fn one_worker_is_bit_identical_to_the_compiled_backend() {
    // The degenerate pool: a single worker owns every virtual PE, so the
    // partitioned walk must be the compiled walk, bit for bit — including
    // the violation list and the in-flight peak.
    for design in DESIGNS {
        let (u, p) = (3, 2);
        let word = WordLevelAlgorithm::matmul(u as i64);
        let alg = compose(&word, p, Expansion::II);
        let t = design.mapping(p as i64);
        let ic = design.interconnect(p as i64);
        let (xs, ys) = random_batch(u, p, 1, 0xD00D);
        let cells = MatmulExpansionIICells::new(u, p, &xs[0], &ys[0]);
        let cache = CompileCache::new();
        let (sched, _) = cache.get_or_compile(&alg, &t, &ic).unwrap();
        let part = PartitionedSchedule::try_new(Arc::clone(&sched), 1).unwrap();
        let crun = sched.execute(&cells);
        let prun = part.execute(&cells);
        assert_eq!(prun.outputs, crun.outputs, "{design:?}");
        assert_eq!(prun.violations, crun.violations, "{design:?}");
        assert_eq!(prun.cycles, crun.cycles, "{design:?}");
        assert_eq!(prun.peak_in_flight, crun.peak_in_flight, "{design:?}");
        assert_eq!(part.stats().workers, 1, "{design:?}");
        assert_eq!(
            part.stats().cross_shard_tokens,
            0,
            "{design:?}: one shard has no cross-shard traffic"
        );
    }
}

#[test]
fn partitioned_lane_packed_batches_match_the_compiled_batch_engine() {
    // Lane-packed words flowing through shards: the partition and the batch
    // layer compose without changing a bit, at ragged widths.
    for design in DESIGNS {
        for (n, workers) in [(3usize, 2usize), (7, 4), (5, 8)] {
            let (u, p) = (2, 2);
            let word = WordLevelAlgorithm::matmul(u as i64);
            let alg = compose(&word, p, Expansion::II);
            let t = design.mapping(p as i64);
            let ic = design.interconnect(p as i64);
            let (xs, ys) = random_batch(u, p, n, 0xBA7C4 ^ n as u64);
            let cells = MatmulLaneCells::new(u, p, &xs, &ys);
            let cache = CompileCache::new();
            let (sched, _) = cache.get_or_compile(&alg, &t, &ic).unwrap();
            let part = PartitionedSchedule::try_new(Arc::clone(&sched), workers).unwrap();
            let crun = sched.execute_batch(&cells);
            let prun = part.execute_batch(&cells);
            let label = format!("{design:?} n={n} workers={workers}");
            assert_eq!(prun.outputs, crun.outputs, "{label}");
            assert_eq!(prun.violations, crun.violations, "{label}");
            assert_eq!(prun.cycles, crun.cycles, "{label}");
            assert_eq!(
                cells.extract_products(&prun),
                cells.extract_products(&crun),
                "{label}"
            );
        }
    }
}

#[test]
fn partitioned_flow_reports_the_backend_and_survives_fallbacks() {
    let flow = DesignFlow::matmul(2, 2).with_backend(SimBackend::Partitioned { workers: 2 });
    let rep = flow.evaluate_paper_design(PaperDesign::TimeOptimal);
    assert!(rep.feasible, "{:?}", rep.violations);
    assert_eq!(rep.backend_used, BackendUsed::Partitioned { workers: 2 });
    assert_eq!(rep.backend_used, "partitioned (workers 2)");
    assert!(rep.backend_used.is_compiled());
    assert!(!rep.backend_used.is_fallback());
    let stats = rep.partition.expect("partitioned evaluations carry stats");
    assert_eq!(stats.workers, 2);
    assert_eq!(stats.shard_points.iter().sum::<u64>() as usize, 32);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Engine agreement as a property: random pool sizes, designs, sizes
    /// and ragged batch widths — the partitioned batch products must equal
    /// the interpreted per-instance oracle's bit for bit.
    #[test]
    fn prop_partitioned_batches_match_the_interpreted_oracle(
        workers in 1usize..=8,
        design_idx in 0usize..2,
        u in 2usize..=3,
        n in 1usize..=9,
        seed in 0u64..1 << 48,
    ) {
        let design = DESIGNS[design_idx];
        let p = 2usize;
        let (xs, ys) = random_batch(u, p, n, seed);
        let part_flow = DesignFlow::matmul(u as i64, p)
            .with_backend(SimBackend::Partitioned { workers });
        let oracle_flow = DesignFlow::matmul(u as i64, p)
            .with_backend(SimBackend::Interpreted);
        let prep = part_flow.evaluate_batch(design, &xs, &ys);
        let orep = oracle_flow.evaluate_batch(design, &xs, &ys);
        prop_assert!(prep.legal);
        prop_assert_eq!(
            prep.backend_used,
            BackendUsed::Partitioned { workers }
        );
        prop_assert_eq!(prep.products, orep.products);
        prop_assert_eq!(prep.cycles, orep.cycles);
        prop_assert_eq!(prep.walks, 1);
    }
}
