//! Lower-dimensional array synthesis.
//!
//! The design method the paper builds on — Shang & Fortes [5,6] and
//! Ganapathy & Wah [10] — is explicitly about mapping `n`-dimensional
//! algorithms onto **lower-dimensional** processor arrays ("Conflict-Free
//! Scheduling of Nested Loop Algorithms on Lower Dimensional Processor
//! Arrays", "Synthesizing Optimal Lower Dimensional Processor Arrays").
//! Definition 4.1 already supports any `k`; this module adds the missing
//! search: jointly exploring space mappings `S ∈ Z^{1×n}` and schedules `Π`
//! to synthesise **linear (1-D) arrays** for a bit-level structure.
//!
//! The search enumerates sign-normalised primitive `S` candidates within an
//! entry bound, and for each runs the schedule search of
//! [`crate::schedule::find_optimal_schedule`]; candidates are screened
//! cheaply (nonzero, coprime, at least two distinct processor images) before
//! the full Definition 4.1 machinery runs.

use crate::interconnect::Interconnect;
use crate::schedule::{find_optimal_schedule, processor_count};
use crate::transform::MappingMatrix;
use bitlevel_ir::AlgorithmTriplet;
use bitlevel_linalg::{gcd_all, IMat, IVec};

/// A synthesised lower-dimensional design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinearArrayDesign {
    /// The full mapping `T = [S; Π]` (S is 1×n).
    pub mapping: MappingMatrix,
    /// Total execution time (4.5).
    pub time: i64,
    /// Number of processors in the linear array.
    pub processors: usize,
    /// Space-mapping candidates examined.
    pub candidates_examined: usize,
}

/// Searches for the fastest feasible **linear array** mapping of `alg` on
/// machine `ic` (a 1-D interconnect), with `|S| ≤ s_bound` entries and
/// `|Π| ≤ pi_bound`. Ties in time are broken by fewer processors, then
/// lexicographically smallest `S`.
///
/// Returns `None` if nothing within the bounds satisfies Definition 4.1.
pub fn find_linear_array_mapping(
    alg: &AlgorithmTriplet,
    ic: &Interconnect,
    s_bound: i64,
    pi_bound: i64,
) -> Option<LinearArrayDesign> {
    assert_eq!(
        ic.dim(),
        1,
        "linear-array synthesis needs a 1-D interconnect"
    );
    assert!(s_bound >= 1 && pi_bound >= 1, "bounds must be positive");
    let n = alg.dim();

    // Enumerate sign-normalised S candidates: first nonzero entry positive,
    // entries coprime, not all zero.
    let mut candidates: Vec<IVec> = Vec::new();
    let range: Vec<i64> = (-s_bound..=s_bound).collect();
    let total = crate::schedule::candidate_count(range.len(), n as u32);
    let mut idx = vec![0usize; n];
    for _ in 0..total {
        let s = IVec(idx.iter().map(|&i| range[i]).collect());
        let first_nonzero = s.iter().find(|&&x| x != 0);
        let normalised = matches!(first_nonzero, Some(&x) if x > 0);
        if normalised && gcd_all(s.as_slice()) == 1 {
            candidates.push(s);
        }
        for slot in (0..n).rev() {
            idx[slot] += 1;
            if idx[slot] < range.len() {
                break;
            }
            idx[slot] = 0;
        }
    }
    let examined = candidates.len();

    let best = candidates
        .into_iter()
        .filter_map(|s_row| {
            let space = IMat::from_flat(1, n, s_row.as_slice().to_vec());
            // Cheap screen: a useful array has more than one processor.
            let procs = processor_count(&space, &alg.index_set);
            if procs < 2 {
                return None;
            }
            let found = find_optimal_schedule(&space, alg, ic, pi_bound)?;
            Some(LinearArrayDesign {
                mapping: MappingMatrix::new(space, found.pi),
                time: found.time,
                processors: procs,
                candidates_examined: 0, // filled in below
            })
        })
        .min_by(|a, b| {
            (a.time, a.processors, a.mapping.space.row(0).to_vec()).cmp(&(
                b.time,
                b.processors,
                b.mapping.space.row(0).to_vec(),
            ))
        });

    best.map(|mut d| {
        d.candidates_examined = examined;
        d
    })
}

/// A 1-D machine: east/west unit links plus a static link (and optionally a
/// long wire of length `stride` in both directions).
pub fn linear_interconnect(stride: Option<i64>) -> Interconnect {
    match stride {
        None => Interconnect::new(IMat::from_rows(&[&[1, -1, 0]])),
        Some(k) => Interconnect::new(IMat::from_rows(&[&[1, -1, 0, k, -k]])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitlevel_ir::{BoxSet, Dependence, DependenceSet, Predicate};

    fn matmul_bitlevel(u: i64, p: i64) -> AlgorithmTriplet {
        let j = BoxSet::cube(3, 1, u).product(&BoxSet::cube(2, 1, p));
        AlgorithmTriplet::new(
            j,
            DependenceSet::new(vec![
                Dependence::conditional([0, 1, 0, 0, 0], "x", Predicate::eq_const(3, 1)),
                Dependence::conditional([1, 0, 0, 0, 0], "y", Predicate::eq_const(4, 1)),
                Dependence::conditional(
                    [0, 0, 1, 0, 0],
                    "z",
                    Predicate::eq_const(3, p).or(&Predicate::eq_const(4, 1)),
                ),
                Dependence::conditional([0, 0, 0, 1, 0], "x", Predicate::ne_const(3, 1)),
                Dependence::conditional([0, 0, 0, 0, 1], "y,c", Predicate::ne_const(4, 1)),
                Dependence::uniform([0, 0, 0, 1, -1], "z"),
                Dependence::conditional([0, 0, 0, 0, 2], "c'", Predicate::eq_const(3, p)),
            ]),
            "bit-level matmul, Expansion II",
        )
    }

    #[test]
    fn known_linear_design_for_small_matmul_is_feasible() {
        // Found by find_linear_array_mapping with s_bound = 2, pi_bound = 3
        // (the full search runs in experiment E10; too slow for a debug-mode
        // unit test): S = [0,1,2,−2,−1], Π = [1,1,2,2,1] on the stride-2
        // linear machine — 8 cycles on 7 PEs for |J| = 32.
        let alg = matmul_bitlevel(2, 2);
        let ic = linear_interconnect(Some(2));
        let t = MappingMatrix::new(
            IMat::from_rows(&[&[0, 1, 2, -2, -1]]),
            IVec::from([1, 1, 2, 2, 1]),
        );
        let rep = crate::feasibility::check_feasibility(&t, &alg, &ic);
        assert!(rep.is_feasible(), "{:?}", rep.violations);
        assert_eq!(crate::schedule::total_time(&t.schedule, &alg.index_set), 8);
        assert_eq!(processor_count(&t.space, &alg.index_set), 7);
        // Work bound (time·PEs ≥ |J| = 32) and the dimension trade-off
        // (slower than the 7-cycle 2-D design) hold: 8·7 = 56 ≥ 32, 8 > 7.
    }

    #[test]
    fn tight_bounds_find_nothing_for_bitlevel_matmul() {
        // With |S| ≤ 1 no conflict-free + routable linear design exists for
        // the 5-D structure (the kernel of any such T hits the ±1 difference
        // cube); the search must report that honestly.
        let alg = matmul_bitlevel(2, 2);
        let ic = linear_interconnect(Some(2));
        assert!(find_linear_array_mapping(&alg, &ic, 1, 2).is_none());
    }

    #[test]
    fn no_design_within_tiny_bounds_reports_none() {
        let alg = matmul_bitlevel(2, 2);
        // Machine with only a static link: nothing can move; every nonzero
        // S·d̄ is unroutable, so no feasible design exists.
        let ic = Interconnect::new(IMat::from_rows(&[&[0]]));
        assert!(find_linear_array_mapping(&alg, &ic, 1, 2).is_none());
    }

    #[test]
    fn word_level_matmul_has_classic_linear_array() {
        // The 3-D word-level matmul maps onto a linear array (a classic
        // result of the mapping literature): verify one is found and legal.
        let alg = bitlevel_ir::WordLevelAlgorithm::matmul(3).triplet();
        let ic = linear_interconnect(None);
        let design = find_linear_array_mapping(&alg, &ic, 1, 2).expect("classic design");
        let rep = crate::feasibility::check_feasibility(&design.mapping, &alg, &ic);
        assert!(rep.is_feasible());
        // u³ = 27 computations: work bound again.
        assert!(design.time as usize * design.processors >= 27);
    }
}
