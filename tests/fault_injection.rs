//! Integration tests for the fault-injection & ABFT subsystem (E17): plan
//! determinism across engines, bit-identity of the empty plan, and the
//! partition/zero-SDC bars of the exhaustive campaign.

use bitlevel::fault::{matmul_structure, operand_matrices, single_fault_campaign, MatmulChecksums};
use bitlevel::systolic::{
    render_fault_heatmap, run_clocked, run_clocked_faulted, CompiledSchedule,
    MatmulExpansionIICells, NullSink,
};
use bitlevel::{BitMatmulArray, FaultKind, FaultOutcome, FaultPlan, PaperDesign, RandomFault};
use proptest::prelude::*;

const DESIGNS: [PaperDesign; 2] = [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour];

#[test]
fn empty_plan_is_bit_identical_to_a_faultless_run_on_both_engines() {
    let (u, p) = (2usize, 2usize);
    let alg = matmul_structure(u, p);
    let (x, y) = operand_matrices(u, p, 11);
    for design in DESIGNS {
        let t = design.mapping(p as i64);
        let ic = design.interconnect(p as i64);
        let mut cells = MatmulExpansionIICells::new(u, p, &x, &y);
        let baseline = run_clocked(&alg, &t, &ic, &mut cells);
        assert!(baseline.is_legal());

        let resolved = FaultPlan::empty().resolve(&alg, &t);
        assert!(resolved.injected.is_empty());

        let interp = run_clocked_faulted(&alg, &t, &ic, &mut cells, &mut NullSink, &resolved);
        assert_eq!(
            baseline.outputs, interp.outputs,
            "{design:?} interpreted outputs drifted"
        );
        assert_eq!(baseline.cycles, interp.cycles);
        assert_eq!(baseline.violations, interp.violations);
        assert_eq!(baseline.peak_in_flight, interp.peak_in_flight);

        let sched = CompiledSchedule::try_compile(&alg, &t, &ic).expect("matmul compiles");
        let compiled = sched.execute_faulted(&cells, &mut NullSink, &resolved);
        assert_eq!(
            baseline.outputs, compiled.outputs,
            "{design:?} compiled outputs drifted"
        );
        assert_eq!(baseline.cycles, compiled.cycles);
        assert_eq!(baseline.violations, compiled.violations);
    }
}

#[test]
fn exhaustive_campaign_classifies_every_case_exactly_once_with_zero_sdc() {
    for design in DESIGNS {
        let r = single_fault_campaign(design, 2, 2, 0xE17);
        // Every (point, bit) pair appears as exactly one case, each in
        // exactly one class.
        assert_eq!(r.total, 32 * 5, "{design:?}");
        assert_eq!(r.cases.len(), r.total);
        assert!(
            r.classifications_partition(),
            "{design:?} classes overlap or leak"
        );
        assert_eq!(r.sdc, 0, "{design:?} leaked a silent corruption");
        assert_eq!(r.engine_mismatches, 0, "{design:?} engines disagreed");
        assert!(
            r.masked > 0 && r.detected > 0,
            "{design:?} campaign is degenerate"
        );
        for c in &r.cases {
            assert!(
                c.agree(),
                "case {:?} at {} split across engines",
                c.kind,
                c.point
            );
        }
    }
}

#[test]
fn heat_map_renders_the_two_campaign_vulnerability_profiles() {
    let fig4 = single_fault_campaign(PaperDesign::TimeOptimal, 2, 2, 5);
    let fig5 = single_fault_campaign(PaperDesign::NearestNeighbour, 2, 2, 5);
    let map = render_fault_heatmap(
        "Fig. 4",
        &fig4.vulnerability_map(),
        "Fig. 5",
        &fig5.vulnerability_map(),
        usize::MAX,
    );
    assert!(map.contains("fault vulnerability heat map"));
    assert!(map.contains("Fig. 4") && map.contains("Fig. 5"));
    assert!(map.lines().count() > 2, "no PE rows rendered:\n{map}");
}

/// Runs one randomized plan on both engines of both designs and checks the
/// ABFT classifications (and the raw output bundles) agree bit for bit.
fn check_engines_agree(seed: u64, rate: f64, bit: usize) {
    let (u, p) = (2usize, 2usize);
    let alg = matmul_structure(u, p);
    let (x, y) = operand_matrices(u, p, seed);
    let golden = BitMatmulArray::new(u, p).reference(&x, &y);
    let checksums = MatmulChecksums::derive(&x, &y, p);
    let plan = FaultPlan {
        seed,
        targeted: vec![],
        random: vec![
            RandomFault {
                kind: FaultKind::TransientFlip { bit },
                rate,
            },
            RandomFault {
                kind: FaultKind::StuckAt {
                    bit,
                    value: seed.is_multiple_of(2),
                },
                rate: rate / 2.0,
            },
        ],
    };
    for design in DESIGNS {
        let t = design.mapping(p as i64);
        let ic = design.interconnect(p as i64);
        let resolved = plan.resolve(&alg, &t);
        let mut cells = MatmulExpansionIICells::new(u, p, &x, &y);
        let irun = run_clocked_faulted(&alg, &t, &ic, &mut cells, &mut NullSink, &resolved);
        let sched = CompiledSchedule::try_compile(&alg, &t, &ic).expect("matmul compiles");
        let crun = sched.execute_faulted(&cells, &mut NullSink, &resolved);
        let iout: FaultOutcome = checksums.classify(&golden, &cells.extract_product(&irun));
        let cout: FaultOutcome = checksums.classify(&golden, &cells.extract_product(&crun));
        assert_eq!(
            iout, cout,
            "engines disagreed on {design:?} seed={seed} rate={rate}"
        );
        assert_eq!(
            irun.outputs, crun.outputs,
            "raw outputs diverged on {design:?}"
        );
    }
}

#[test]
fn engines_classify_identically_on_fixed_randomized_plans() {
    for (seed, rate, bit) in [
        (0, 0.0, 0),
        (1, 0.05, 1),
        (0xE17, 0.1, 2),
        (42, 0.2, 3),
        (7_777_777, 0.15, 4),
    ] {
        check_engines_agree(seed, rate, bit);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Both engines classify identically under identical randomized plans,
    /// whatever the seed and rate.
    #[test]
    fn engines_classify_identically_under_identical_plans(
        seed in 0u64..1 << 48,
        rate in 0.0f64..0.2,
        bit in 0usize..5,
    ) {
        check_engines_agree(seed, rate, bit);
    }
}
