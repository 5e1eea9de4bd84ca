//! Integration tests for the lane-packed fault campaigns (E20): the batched
//! sweep must reach the scalar dual-engine campaign's verdict case for case
//! at every lane width — including ragged tails — while sharing one compiled
//! schedule through the cache, and the lane-packed Monte Carlo campaign must
//! report exactly what the scalar dual-engine oracle reports. The
//! differential walk behind the batched sweep ([`GoldenBatch::faulted`])
//! must equal the full faulted walk on every walk of the sweep's packing.
//!
//! [`GoldenBatch::faulted`]: bitlevel::systolic::GoldenBatch::faulted

use bitlevel::fault::{
    batched_monte_carlo_campaign, batched_single_fault_counts, matmul_structure,
    monte_carlo_campaign_with_cache, operand_matrices,
};
use bitlevel::linalg::IVec;
use bitlevel::mapping::MappingMatrix;
use bitlevel::systolic::{
    run_clocked_batch, run_clocked_faulted, GoldenBatch, LaneFaultMasks, LaneFaultedCells,
    LaneView, MatmulLaneCells, NullSink,
};
use bitlevel::{
    batched_single_fault_campaign, single_fault_campaign_with_cache, CompileCache,
    CompiledSchedule, FaultKind, FaultPlan, PaperDesign, RandomFault, TargetedFault,
};
use proptest::prelude::*;

const DESIGNS: [PaperDesign; 2] = [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour];

/// Runs the scalar and the width-`width` batched campaign on one design and
/// asserts case-for-case identity plus the structural invariants.
fn check_batched_matches_scalar(design: PaperDesign, u: usize, p: usize, seed: u64, width: usize) {
    let cache = CompileCache::new();
    let scalar = single_fault_campaign_with_cache(design, u, p, seed, &cache);
    let batched = batched_single_fault_campaign(design, u, p, seed, width, &cache);

    assert_eq!(batched.total, scalar.total, "{design:?} width {width}");
    assert_eq!(
        batched.walks,
        scalar.total.div_ceil(width),
        "{design:?} width {width}: wrong walk count"
    );
    assert!(
        batched.classifications_partition(),
        "{design:?} width {width}: classes overlap or leak"
    );
    assert!(
        batched.matches_scalar(&scalar),
        "{design:?} width {width}: a lane's classification diverged from the scalar sweep"
    );
    assert_eq!(batched.sdc, 0, "{design:?} width {width}: SDC appeared");
    assert_eq!(
        batched.vulnerability_map(),
        scalar.vulnerability_map(),
        "{design:?} width {width}: heat maps diverged"
    );
    // One compile serves both campaigns; the batched one replays from cache.
    let stats = cache.stats();
    assert_eq!(stats.compiles(), 1, "{design:?} width {width}");
    assert_eq!(stats.hits, 1, "{design:?} width {width}");
}

#[test]
fn batched_campaign_matches_scalar_at_full_and_ragged_widths() {
    // 160 cases at (2, 2): width 64 leaves a 32-lane ragged tail, width 7 a
    // 6-lane tail, width 3 a 1-lane tail; width 1 degenerates to the scalar
    // sweep one case per walk.
    for design in DESIGNS {
        for width in [1usize, 3, 7, 64] {
            check_batched_matches_scalar(design, 2, 2, 0xE20, width);
        }
    }
}

#[test]
fn batched_campaign_matches_scalar_on_a_deeper_word() {
    // (u, p) = (2, 3) stretches every chain to 3 bits: 360 cases, so width
    // 64 runs 6 walks with a 40-lane tail.
    for design in DESIGNS {
        check_batched_matches_scalar(design, 2, 3, 0x1CC7_1993, 64);
    }
}

#[test]
fn batched_campaign_is_seed_deterministic() {
    let cache = CompileCache::new();
    let a = batched_single_fault_campaign(PaperDesign::TimeOptimal, 2, 2, 0xE20, 64, &cache);
    let b = batched_single_fault_campaign(PaperDesign::TimeOptimal, 2, 2, 0xE20, 64, &cache);
    assert_eq!(a, b);
}

#[test]
fn counts_equal_the_reports_counts() {
    let cache = CompileCache::new();
    for design in DESIGNS {
        for (u, p) in [(2usize, 2usize), (2, 3)] {
            for width in [1usize, 7, 64, 1000] {
                let rep = batched_single_fault_campaign(design, u, p, 0xE20, width, &cache);
                let counts = batched_single_fault_counts(design, u, p, 0xE20, width, &cache);
                let label = format!("{design:?} ({u},{p}) width {width}");
                assert_eq!(counts.width, rep.width, "{label}");
                assert_eq!(counts.total, rep.total, "{label}");
                assert_eq!(counts.walks, rep.walks, "{label}");
                assert_eq!(counts.masked, rep.masked, "{label}");
                assert_eq!(counts.detected, rep.detected, "{label}");
                assert_eq!(counts.sdc, rep.sdc, "{label}");
                assert!(counts.classifications_partition(), "{label}");
            }
        }
    }
}

/// The lane-packed Monte Carlo driver against the scalar dual-engine
/// oracle on one shape: every trial count around the 64-lane chunk
/// boundary, at three (seed, rate) pairs, the last seed so close to
/// `u64::MAX` that the per-trial seeds wrap.
fn check_monte_carlo_matches_the_oracle(u: usize, p: usize) {
    let cache = CompileCache::new();
    for design in DESIGNS {
        for trials in [0usize, 1, 63, 64, 65, 70, 130] {
            for (seed, rate) in [(3u64, 0.0), (11, 0.02), (u64::MAX - 40, 0.5)] {
                let oracle =
                    monte_carlo_campaign_with_cache(design, u, p, seed, trials, rate, &cache);
                let packed = batched_monte_carlo_campaign(design, u, p, seed, trials, rate, &cache);
                assert_eq!(
                    packed, oracle,
                    "{design:?} ({u},{p}) {trials} trials, seed {seed}, rate {rate}"
                );
            }
        }
    }
}

#[test]
fn lane_packed_monte_carlo_equals_the_scalar_oracle_at_2_2() {
    check_monte_carlo_matches_the_oracle(2, 2);
}

#[test]
fn lane_packed_monte_carlo_equals_the_scalar_oracle_at_2_3() {
    check_monte_carlo_matches_the_oracle(2, 3);
}

#[test]
fn lane_packed_monte_carlo_equals_the_scalar_oracle_at_3_3() {
    check_monte_carlo_matches_the_oracle(3, 3);
}

#[test]
fn interpreted_lane_runs_equal_scalar_faulted_runs() {
    // Plans mixing random flips, random stuck-ats and a targeted stuck-at
    // resolve into the lanes of one word; every lane of the interpreted
    // lane-packed run must be that lane's scalar faulted run. The broken
    // machine (Fig. 4's schedule on Fig. 5's wires) adds violations.
    let (u, p) = (2usize, 3usize);
    let alg = matmul_structure(u, p);
    let n = 9usize;
    let (xs, ys): (Vec<_>, Vec<_>) = (0..n as u64)
        .map(|l| operand_matrices(u, p, 40 + l))
        .unzip();
    let cells = MatmulLaneCells::new(u, p, &xs, &ys);
    let t = PaperDesign::TimeOptimal.mapping(p as i64);
    for (ic, legal) in [
        (PaperDesign::TimeOptimal.interconnect(p as i64), true),
        (PaperDesign::NearestNeighbour.interconnect(p as i64), false),
    ] {
        let point = bitlevel::linalg::IVec::from([1, 2, 2, 3, 1]);
        let plans: Vec<FaultPlan> = (0..n as u64)
            .map(|l| FaultPlan {
                seed: 0x5EED + l,
                targeted: vec![TargetedFault {
                    kind: FaultKind::StuckAt {
                        bit: (l % 5) as usize,
                        value: l % 2 == 0,
                    },
                    pe: t.place(&point),
                    cycle: if l % 3 == 0 {
                        None
                    } else {
                        Some(t.time(&point))
                    },
                }],
                random: vec![
                    RandomFault {
                        kind: FaultKind::TransientFlip { bit: 2 },
                        rate: 0.05 * l as f64,
                    },
                    RandomFault {
                        kind: FaultKind::StuckAt {
                            bit: 3,
                            value: l % 2 == 1,
                        },
                        rate: 0.1,
                    },
                    RandomFault {
                        kind: FaultKind::TransientFlip { bit: 0 },
                        rate: 0.03,
                    },
                ],
            })
            .collect();
        let (masks, injected) = FaultPlan::resolve_lanes(&plans, &alg, &t);
        let faulted = LaneFaultedCells::new(&cells, &masks);
        let run = run_clocked_batch(&alg, &t, &ic, &faulted);
        assert_eq!(run.lanes, n);
        assert_eq!(run.is_legal(), legal);
        for (lane, plan) in plans.iter().enumerate() {
            let resolved = plan.resolve(&alg, &t);
            assert_eq!(injected[lane], resolved.injected.len(), "lane {lane}");
            let scalar = run_clocked_faulted(
                &alg,
                &t,
                &ic,
                &mut LaneView::new(&cells, lane),
                &mut NullSink,
                &resolved,
            );
            let packed = run.extract_lane_run(&faulted, lane);
            assert_eq!(packed.outputs, scalar.outputs, "lane {lane}");
            assert_eq!(packed.violations, scalar.violations, "lane {lane}");
            assert_eq!(packed.cycles, scalar.cycles, "lane {lane}");
            assert_eq!(packed.peak_in_flight, scalar.peak_in_flight, "lane {lane}");
        }
    }
}

/// The differential walk of `masks` against the full faulted walk: equal
/// outputs, cycles, violations (in order), in-flight peaks and lanes.
fn assert_differential_walk_is_the_full_walk(
    sched: &CompiledSchedule,
    golden: &GoldenBatch<'_, MatmulLaneCells>,
    cells: &MatmulLaneCells,
    masks: &LaneFaultMasks,
    label: &str,
) {
    let full = sched.execute_batch(&LaneFaultedCells::new(cells, masks));
    let diff = golden.faulted(masks);
    assert_eq!(diff.outputs, full.outputs, "{label}: outputs");
    assert_eq!(diff.cycles, full.cycles, "{label}: cycles");
    assert_eq!(diff.violations, full.violations, "{label}: violations");
    assert_eq!(
        diff.peak_in_flight, full.peak_in_flight,
        "{label}: peak_in_flight"
    );
    assert_eq!(diff.lanes, full.lanes, "{label}: lanes");
}

/// Every walk of the exhaustive sweep's packing of `(u, p)` at each width,
/// on both designs: case `i` flips bit `i mod 5` at slot `⌊i/5⌋` in lane
/// `i mod width`, and every third lane also sticks another bit of the same
/// point.
fn check_every_sweep_walk(u: usize, p: usize, widths: &[usize]) {
    let alg = matmul_structure(u, p);
    let (x, y) = operand_matrices(u, p, 7);
    for design in DESIGNS {
        let (t, ic) = (design.mapping(p as i64), design.interconnect(p as i64));
        let sched = CompiledSchedule::compile(&alg, &t, &ic);
        assert!(sched.is_causal(), "{design:?}");
        let total = sched.n_points() * 5;
        for &width in widths {
            let cells = MatmulLaneCells::broadcast(u, p, &x, &y, width);
            let golden = sched.golden_batch(&cells);
            let clean = LaneFaultMasks::new(&alg.index_set);
            let label = format!("{design:?} ({u},{p}) width {width} clean");
            assert_differential_walk_is_the_full_walk(&sched, &golden, &cells, &clean, &label);
            for walk in 0..total.div_ceil(width) {
                let mut masks = LaneFaultMasks::new(&alg.index_set);
                for (lane, case) in (walk * width..total.min((walk + 1) * width)).enumerate() {
                    let (slot, bit) = (case / 5, case % 5);
                    masks.flip_slot(slot, bit, lane);
                    if lane % 3 == 1 {
                        let point = IVec(sched.slot_point(slot).to_vec());
                        masks.stuck(&point, (bit + 2) % 5, lane % 2 == 0, lane);
                    }
                }
                let label = format!("{design:?} ({u},{p}) width {width} walk {walk}");
                assert_differential_walk_is_the_full_walk(&sched, &golden, &cells, &masks, &label);
            }
        }
    }
}

#[test]
fn differential_walks_equal_full_walks_on_every_sweep_walk() {
    for (u, p) in [(2, 2), (2, 3), (3, 3)] {
        check_every_sweep_walk(u, p, &[1, 7, 64]);
    }
    for (u, p) in [(3, 4), (4, 4)] {
        check_every_sweep_walk(u, p, &[64]);
    }
}

/// The exhaustive variant: every walk at (3,4) and (4,4) at widths 1, 7 and
/// 64. CI runs it in release.
#[test]
#[ignore = "exhaustive; run in release with --ignored"]
fn differential_walks_equal_full_walks_exhaustively_at_3_4_and_4_4() {
    for (u, p) in [(3, 4), (4, 4)] {
        check_every_sweep_walk(u, p, &[1, 7, 64]);
    }
}

#[test]
fn differential_walks_equal_full_walks_on_monte_carlo_chunks() {
    // 64 seeded plans per chunk, each sampling flips of every signal bit
    // and stuck-ats of two bits, resolve into the lanes of one word.
    for (u, p) in [(2usize, 2usize), (2, 3), (3, 3)] {
        let alg = matmul_structure(u, p);
        let (x, y) = operand_matrices(u, p, 11);
        let cells = MatmulLaneCells::broadcast(u, p, &x, &y, 64);
        for design in DESIGNS {
            let (t, ic) = (design.mapping(p as i64), design.interconnect(p as i64));
            let sched = CompiledSchedule::compile(&alg, &t, &ic);
            let golden = sched.golden_batch(&cells);
            for rate in [0.01, 0.1, 0.5] {
                let plans: Vec<FaultPlan> = (0..64u64)
                    .map(|l| FaultPlan {
                        seed: 0xD1FF + l,
                        targeted: vec![],
                        random: (0..5)
                            .map(|bit| RandomFault {
                                kind: FaultKind::TransientFlip { bit },
                                rate,
                            })
                            .chain([1, 3].map(|bit| RandomFault {
                                kind: FaultKind::StuckAt {
                                    bit,
                                    value: l % 2 == 0,
                                },
                                rate: rate / 2.0,
                            }))
                            .collect(),
                    })
                    .collect();
                let (masks, _) = FaultPlan::resolve_lanes(&plans, &alg, &t);
                let label = format!("{design:?} ({u},{p}) rate {rate}");
                assert_differential_walk_is_the_full_walk(&sched, &golden, &cells, &masks, &label);
            }
        }
    }
}

#[test]
fn non_causal_schedules_take_the_full_walk() {
    // Fig. 4's array under a schedule with `Π·d̄ < 0` on the i₂ columns:
    // those producers fire after their consumers and read as boundary
    // inputs, which a walk started from the clean words would not see.
    let (u, p) = (2usize, 2usize);
    let alg = matmul_structure(u, p);
    let design = PaperDesign::TimeOptimal;
    let t = MappingMatrix::new(design.mapping(p as i64).space, IVec::from([1, 1, 1, 2, -1]));
    let sched = CompiledSchedule::compile(&alg, &t, &design.interconnect(p as i64));
    assert!(!sched.is_causal());
    let (x, y) = operand_matrices(u, p, 7);
    let cells = MatmulLaneCells::broadcast(u, p, &x, &y, 64);
    let golden = sched.golden_batch(&cells);
    let total = sched.n_points() * 5;
    for walk in 0..total.div_ceil(64) {
        let mut masks = LaneFaultMasks::new(&alg.index_set);
        for (lane, case) in (walk * 64..total.min((walk + 1) * 64)).enumerate() {
            masks.flip_slot(case / 5, case % 5, lane);
        }
        let label = format!("non-causal walk {walk}");
        assert_differential_walk_is_the_full_walk(&sched, &golden, &cells, &masks, &label);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whatever the lane width (ragged tails included) and seed, the
    /// batched campaign reaches the scalar campaign's verdict case for
    /// case on both paper designs.
    #[test]
    fn batched_campaign_matches_scalar_for_any_width(
        width in 1usize..=64,
        seed in 0u64..1 << 48,
    ) {
        for design in DESIGNS {
            check_batched_matches_scalar(design, 2, 2, seed, width);
        }
    }
}
