//! Integration tests for the LSGP-partitioned backend: pricing the virtual
//! PE array on a fixed pool of physical workers must not change a run —
//! products, cycles and legality at every pool size, on both paper designs,
//! for scalar and lane-packed batches alike — while reports carry the
//! partition's cost model.

use bitlevel::{
    BackendUsed, BatchRunReport, BitMatmulArray, DesignFlow, PaperDesign, PartitionStats,
    SimBackend,
};

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

/// `evaluate_batch` of the `(u, p)` matmul flow on `backend`.
fn batch(
    backend: SimBackend,
    design: PaperDesign,
    u: usize,
    p: usize,
    xs: &[Matrix],
    ys: &[Matrix],
) -> BatchRunReport {
    DesignFlow::matmul(u as i64, p)
        .with_backend(backend)
        .evaluate_batch(design, xs, ys)
}

/// The partition the flow reports for `design` on a pool of `workers`.
fn partition_stats(design: PaperDesign, u: usize, p: usize, workers: usize) -> PartitionStats {
    DesignFlow::matmul(u as i64, p)
        .with_backend(SimBackend::Partitioned { workers })
        .evaluate_paper_design(design)
        .partition
        .expect("paper schedules are causal, so they partition")
}

/// Asserts that a partitioned batch ran one lane-packed walk and equals
/// `want` in products, cycles and legality.
fn assert_partitioned_batch(
    got: &BatchRunReport,
    want: &BatchRunReport,
    workers: usize,
    what: &str,
) {
    assert_eq!(
        got.backend_used,
        BackendUsed::Partitioned { workers },
        "{what}"
    );
    assert_eq!(got.walks, 1, "{what}: one lane-packed walk");
    assert_eq!(got.products, want.products, "{what}: products diverged");
    assert_eq!(got.cycles, want.cycles, "{what}: cycles diverged");
    assert_eq!(got.legal, want.legal, "{what}: legality diverged");
}

#[test]
fn partitioned_matches_the_interpreted_oracle_across_pool_sizes() {
    let runs = DESIGNS
        .into_iter()
        .flat_map(|design| (1..=8).map(move |workers| (design, 2, workers)))
        .chain(DESIGNS.map(|design| (design, 3, 5)));
    for (design, u, workers) in runs {
        let p = 2;
        let (xs, ys) = random_batch(u, p, 1, 0x9E37 ^ (workers as u64) << 8 ^ u as u64);
        let what = format!("{design:?} u={u} p={p} workers={workers}");
        let oracle = batch(SimBackend::Interpreted, design, u, p, &xs, &ys);
        let part = batch(SimBackend::Partitioned { workers }, design, u, p, &xs, &ys);
        assert!(oracle.legal, "{what}");
        assert_partitioned_batch(&part, &oracle, workers, &what);
        let stats = partition_stats(design, u, p, workers);
        assert_eq!(stats.workers, workers, "{what}");
        assert!(
            stats.max_shard_pes <= stats.virtual_pes,
            "{what}: shard larger than the array"
        );
    }
}

#[test]
fn one_worker_is_bit_identical_to_the_compiled_backend() {
    // The degenerate pool: a single worker owns every virtual PE, and the
    // flow's run must equal the compiled backend's.
    for design in DESIGNS {
        let (u, p) = (3, 2);
        let (xs, ys) = random_batch(u, p, 1, 0xD00D);
        let compiled = batch(SimBackend::Compiled, design, u, p, &xs, &ys);
        let part = batch(
            SimBackend::Partitioned { workers: 1 },
            design,
            u,
            p,
            &xs,
            &ys,
        );
        assert_eq!(compiled.backend_used, BackendUsed::Compiled, "{design:?}");
        assert_partitioned_batch(&part, &compiled, 1, &format!("{design:?}"));
        let stats = partition_stats(design, u, p, 1);
        assert_eq!(stats.workers, 1, "{design:?}");
        assert_eq!(
            stats.cross_shard_tokens, 0,
            "{design:?}: one shard has no cross-shard traffic"
        );
    }
}

#[test]
fn partitioned_lane_packed_batches_match_the_compiled_batch_engine() {
    // Lane-packed words under a partitioned backend, at ragged widths: the
    // partition prices PEs and the lanes carry instances, without changing
    // a bit.
    for design in DESIGNS {
        for (n, workers) in [(3usize, 2usize), (7, 4), (5, 8)] {
            let (u, p) = (2, 2);
            let (xs, ys) = random_batch(u, p, n, 0xBA7C4 ^ n as u64);
            let what = format!("{design:?} n={n} workers={workers}");
            let lanes = batch(
                SimBackend::CompiledBatch { width: 64 },
                design,
                u,
                p,
                &xs,
                &ys,
            );
            let part = batch(SimBackend::Partitioned { workers }, design, u, p, &xs, &ys);
            assert_eq!(lanes.walks, 1, "{what}");
            assert_eq!(part.width, n, "{what}: one word holds the batch");
            assert_partitioned_batch(&part, &lanes, workers, &what);
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

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[test]
fn partitioned_batches_match_the_interpreted_oracle_on_seeded_draws() {
    // Engine agreement over seeded draws of pool size, design, size and
    // ragged batch width: the partitioned batch must equal the interpreted
    // per-instance oracle bit for bit. A failure names its seed.
    const DRAWS: u64 = 64;
    let mut seen = [[false; 2]; 2];
    let (mut seen_one, mut seen_eight) = (false, false);
    for draw in 0..DRAWS {
        let seed = 0xB17_0000 + draw;
        let mut state = seed;
        let mut pick =
            |lo: usize, hi: usize| lo + (splitmix64(&mut state) % (hi - lo + 1) as u64) as usize;
        let workers = pick(1, 8);
        let design_idx = pick(0, 1);
        let u = pick(2, 3);
        let n = pick(1, 9);
        let p = 2;
        let design = DESIGNS[design_idx];
        let (xs, ys) = random_batch(u, p, n, splitmix64(&mut state));
        let what = format!("seed {seed:#x}: {design:?} u={u} n={n} workers={workers}");

        let part = batch(SimBackend::Partitioned { workers }, design, u, p, &xs, &ys);
        let oracle = batch(SimBackend::Interpreted, design, u, p, &xs, &ys);
        assert!(part.legal, "{what}");
        assert_partitioned_batch(&part, &oracle, workers, &what);

        seen[design_idx][u - 2] = true;
        seen_one |= workers == 1;
        seen_eight |= workers == 8;
    }
    assert!(
        seen.iter().flatten().all(|&s| s) && seen_one && seen_eight,
        "the draws missed a design, a size or an extreme pool"
    );
}
