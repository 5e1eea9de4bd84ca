//! Integration tests for the lane-packed fault campaign (E20): the batched
//! sweep must reach the scalar dual-engine campaign's verdict case for case
//! at every lane width — including ragged tails — while sharing one compiled
//! schedule through the cache.

use bitlevel::{
    batched_single_fault_campaign, single_fault_campaign_with_cache, CompileCache, PaperDesign,
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
