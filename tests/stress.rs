//! Larger-scale stress tests (run with `cargo test -- --ignored --release`).
//!
//! The regular suite keeps index sets small so exhaustive baselines stay
//! fast; these tests exercise the production paths at realistic sizes.

use bitlevel::depanal::{compose, Expansion};
use bitlevel::systolic::BitMatmulArray;
use bitlevel::{CompiledSchedule, PaperDesign, WordLevelAlgorithm};

/// A million-point mapped simulation (u = 16, p = 16 → 16³·16² ≈ 1.05M
/// points) through the compiled engine, with every closed form intact.
#[test]
#[ignore = "stress: ~1M index points; run with --ignored --release"]
fn million_point_mapped_simulation() {
    let (u, p) = (16i64, 16i64);
    let alg = compose(&WordLevelAlgorithm::matmul(u), p as usize, Expansion::II);
    assert_eq!(
        alg.index_set.cardinality(),
        (u as u128).pow(3) * (p as u128).pow(2)
    );
    let design = PaperDesign::TimeOptimal;
    let run = CompiledSchedule::try_compile(&alg, &design.mapping(p), &design.interconnect(p))
        .expect("a million points fit the dense u32 slot space")
        .mapped_report();
    assert_eq!(run.cycles, 3 * (u - 1) + 3 * (p - 1) + 1);
    assert_eq!(run.processors as i64, u * u * p * p);
    assert!(run.conflict_free && run.causality_ok);
}

/// 32-bit words through the functional array: 8×8 matrices of 32-bit
/// operands, bit-exact.
#[test]
#[ignore = "stress: 8x8 @ p=32 functional array; run with --ignored --release"]
fn wide_word_functional_array() {
    let (u, p) = (8usize, 32usize);
    let arr = BitMatmulArray::new(u, p);
    let cap = arr.max_safe_entry();
    assert!(
        cap > 1 << 20,
        "32-bit accumulator leaves real headroom: {cap}"
    );
    let x: Vec<Vec<u128>> = (0..u)
        .map(|i| {
            (0..u)
                .map(|j| (0x9e37 * i as u128 + 0x79b9 * j as u128 + 1) % (cap + 1))
                .collect()
        })
        .collect();
    let y: Vec<Vec<u128>> = (0..u)
        .map(|i| {
            (0..u)
                .map(|j| (0x85eb * i as u128 + 0xca6b * j as u128 + 2) % (cap + 1))
                .collect()
        })
        .collect();
    let z = arr.multiply(&x, &y);
    for i in 0..u {
        for j in 0..u {
            let want: u128 = (0..u).map(|k| x[i][k] * y[k][j]).sum();
            assert_eq!(z[i][j], want, "Z[{i}][{j}]");
        }
    }
}

/// Deep accumulation chains: u = 64 word-level steps with the word-level
/// array and exact bit-level PEs.
#[test]
#[ignore = "stress: 64x64 word-level array with bit-level PEs; run with --ignored --release"]
fn deep_word_level_accumulation() {
    let u = 64usize;
    let p = 16usize;
    let mul = bitlevel::CarrySave::new(p);
    let arr = bitlevel::WordLevelArray::new(u, &mul);
    let cap = (1u128 << p) - 1;
    let x: Vec<Vec<u128>> = (0..u)
        .map(|i| {
            (0..u)
                .map(|j| (i as u128 * 7919 + j as u128 * 104729) % (cap + 1))
                .collect()
        })
        .collect();
    let y: Vec<Vec<u128>> = (0..u)
        .map(|i| {
            (0..u)
                .map(|j| (i as u128 * 15485863 + j as u128 + 3) % (cap + 1))
                .collect()
        })
        .collect();
    let run = arr.run(&x, &y);
    assert_eq!(run.word_cycles, 3 * (u as i64 - 1) + 1);
    for i in (0..u).step_by(17) {
        for j in (0..u).step_by(13) {
            let want: u128 = (0..u).map(|k| x[i][k] * y[k][j]).sum();
            assert_eq!(run.z[i][j], want);
        }
    }
}
