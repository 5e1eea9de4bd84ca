//! Cross-crate property-based tests: randomized invariants spanning the
//! whole pipeline.

use bitlevel::depanal::{enumerate_dependences, expand, instances_of_triplet};
use bitlevel::linalg::IVec;
use bitlevel::mapping::{
    check_conflicts, check_conflicts_bruteforce, find_optimal_schedule_bestfirst, total_time,
};
use bitlevel::systolic::critical_path;
use bitlevel::{
    compose, explore, find_optimal_schedule, simulate_mapped, AlgorithmTriplet, BoxSet, Expansion,
    ExploreConfig, Interconnect, MachineOption, MappingMatrix, WordLevelAlgorithm,
};
use common::{for_each_seed, pick};

mod common;

/// A random small word-level algorithm of model (3.5): a box of 1–2
/// dimensions with extents 1–2, and h̄ components in `-1..=1`, redrawing
/// h̄₃ until it is nonzero so the recurrence is well-formed.
fn random_word_algorithm(state: &mut u64) -> WordLevelAlgorithm {
    let n = pick(state, 1, 2);
    let upper = (0..n).map(|_| 1 + pick(state, 1, 2) as i64).collect();
    let mut h = || IVec((0..n).map(|_| pick(state, 0, 2) as i64 - 1).collect());
    let (h1, h2) = (h(), h());
    let h3 = loop {
        let h3 = h();
        if !h3.is_zero() {
            break h3;
        }
    };
    WordLevelAlgorithm::new(
        "random",
        BoxSet::new(IVec(vec![1; n]), IVec(upper)),
        (!h1.is_zero()).then_some(h1),
        (!h2.is_zero()).then_some(h2),
        h3,
    )
}

/// The shape of the paper's fixed `S` of eq. (4.2) generalised to `m`
/// columns: word axes carry the stride `p`, the two trailing bit axes carry
/// `1`. For the 5-D matmul structure this is *exactly* the paper's `S`.
fn paper_style_space(m: usize, p: i64) -> bitlevel::linalg::IMat {
    let mut s = bitlevel::linalg::IMat::zeros(2, m);
    s[(0, 0)] = p;
    s[(0, m - 2)] = 1;
    if m >= 4 {
        s[(1, 1)] = p;
    }
    s[(1, m - 1)] = 1;
    s
}

/// The exhaustive search, the best-first search, and the design-space
/// explorer restricted to that one fixed `S` must agree on the optimum time
/// *and* the tie-broken `Π` — or all three must agree nothing is feasible
/// within the bound. (Plain helper so the deterministic instances below
/// share the exact assertion with the property.)
fn assert_searches_agree(alg: &AlgorithmTriplet, p: i64, bound: i64) {
    let s = paper_style_space(alg.dim(), p);
    let ic = Interconnect::paper_p(p);
    let exhaustive = find_optimal_schedule(&s, alg, &ic, bound);
    let bestfirst = find_optimal_schedule_bestfirst(&s, alg, &ic, bound);
    let ex = explore(
        alg,
        std::slice::from_ref(&s),
        &ExploreConfig {
            pi_bound: bound,
            machines: vec![MachineOption::new("P", ic)],
            max_physical_pes: None,
        },
    )
    .expect("well-formed exploration");
    match exhaustive {
        None => {
            assert!(
                bestfirst.is_none(),
                "best-first found {bestfirst:?}, exhaustive none"
            );
            assert!(
                ex.frontier.is_empty(),
                "explorer found {:?}, exhaustive none",
                ex.frontier
            );
        }
        Some(opt) => {
            let bf = bestfirst.expect("exhaustive feasible ⇒ best-first feasible");
            assert_eq!(bf.time, opt.time, "optimum time must agree");
            assert_eq!(bf.pi, opt.pi, "tie-broken Π must agree");
            assert_eq!(
                ex.frontier.len(),
                1,
                "single (S, machine) pair → single point"
            );
            assert_eq!(
                ex.frontier[0].time, opt.time,
                "explorer optimum time must agree"
            );
            assert_eq!(
                ex.frontier[0].mapping.schedule, opt.pi,
                "explorer Π must agree"
            );
        }
    }
}

/// Theorem 3.1 composition equals ground truth for *random* model-(3.5)
/// instances, not just the named constructors — both expansions.
#[test]
fn composition_matches_ground_truth_on_seeded_draws() {
    for_each_seed(0x31_0000, 256, |seed| {
        let mut state = seed;
        let word = random_word_algorithm(&mut state);
        let p = pick(&mut state, 2, 3);
        for expansion in [Expansion::I, Expansion::II] {
            let composed = compose(&word, p, expansion);
            let truth = enumerate_dependences(&expand(&word, p, expansion));
            assert_eq!(
                instances_of_triplet(&composed),
                truth,
                "seed {seed:#x}: expansion {expansion} at p={p} on {word:?}"
            );
        }
    });
}

/// The two conflict checkers agree on random mappings of random bit-level
/// structures (kernel-lattice vs brute force).
#[test]
fn conflict_checkers_agree_on_seeded_draws() {
    for_each_seed(0x31_1000, 256, |seed| {
        let mut state = seed;
        let word = random_word_algorithm(&mut state);
        let alg = compose(&word, 2, Expansion::II);
        let n = alg.dim();
        let mut entry = || pick(&mut state, 0, 4) as i64 - 2;
        let s = bitlevel::linalg::IMat::from_flat(2, n, (0..2 * n).map(|_| entry()).collect());
        let pi = IVec((0..n).map(|_| entry()).collect());
        let t = MappingMatrix::new(s, pi);
        assert_eq!(
            check_conflicts(&t, &alg.index_set).is_free(),
            check_conflicts_bruteforce(&t, &alg.index_set).is_free(),
            "seed {seed:#x}: {t:?} on {word:?}"
        );
    });
}

/// For any schedule that simulates conflict-free and causally, the
/// simulated makespan equals the closed-form total_time (4.5).
#[test]
fn simulated_makespan_equals_total_time_on_seeded_draws() {
    for_each_seed(0x31_2000, 256, |seed| {
        let mut state = seed;
        let word = random_word_algorithm(&mut state);
        let alg = compose(&word, 2, Expansion::II);
        let n = alg.dim();
        // All-positive schedules with π_{i2-axis} scaled so Π·d̄₆ > 0.
        let mut pi = IVec((0..n).map(|_| pick(&mut state, 1, 2) as i64).collect());
        pi[n - 2] += pi[n - 1]; // ensure π(i1) > π(i2) so d̄₆ = [.. 1, -1] is positive
                                // Identity-ish space map: first two axes.
        let mut s = bitlevel::linalg::IMat::zeros(2, n);
        s[(0, 0)] = 1;
        s[(1, n - 1)] = 1;
        let t = MappingMatrix::new(s, pi.clone());
        // A permissive machine: full 8-neighbour mesh + static link.
        let ic = bitlevel::Interconnect::new(bitlevel::linalg::IMat::from_rows(&[
            &[1, -1, 0, 0, 1, -1, 1, -1, 0],
            &[0, 0, 1, -1, 1, -1, -1, 1, 0],
        ]));
        let run = simulate_mapped(&alg, &t, &ic);
        assert_eq!(
            run.cycles,
            total_time(&pi, &alg.index_set),
            "seed {seed:#x}: Π={pi:?} on {word:?}"
        );
    });
}

/// The three searches of `bitlevel-mapping` — exhaustive, best-first, and
/// the Pareto explorer restricted to the fixed paper-shape `S` — agree on
/// optimum time and tie-broken Π over random small structures.
#[test]
fn schedule_searches_and_explorer_agree_on_seeded_draws() {
    for_each_seed(0x31_3000, 256, |seed| {
        let mut state = seed;
        let word = random_word_algorithm(&mut state);
        let p = pick(&mut state, 2, 3);
        let alg = compose(&word, p, Expansion::II);
        assert_searches_agree(&alg, p as i64, 2);
    });
}

/// The critical path never exceeds a *legal* schedule's makespan (a
/// schedule with Π·d̄ > 0 for every dependence column executes at most one
/// chain node per cycle).
#[test]
fn critical_path_lower_bounds_schedules_on_seeded_draws() {
    let mut legal = 0;
    for_each_seed(0x31_4000, 256, |seed| {
        let mut state = seed;
        let word = random_word_algorithm(&mut state);
        let alg = compose(&word, 2, Expansion::II);
        let cp = critical_path(&alg);
        let n = alg.dim();
        let mut pi = IVec(vec![1; n]);
        pi[n - 2] = 2; // Π·d̄₆ > 0
                       // The canonical schedule is legal only when every column is ordered
                       // positively (random h̄'s can break that); skip illegal schedules.
        let d = alg.dependence_matrix();
        if (0..d.cols()).any(|c| d.col(c).dot(&pi) <= 0) {
            return;
        }
        legal += 1;
        let time = total_time(&pi, &alg.index_set);
        assert!(
            cp as i64 <= time,
            "seed {seed:#x}: cp {cp} > time {time} on {word:?}"
        );
    });
    assert!(legal > 0, "no draw had a legal canonical schedule");
}

// Named promotions of two failing cases that an earlier randomized run
// shrank: each names *what* its case exposed.

/// Regression: the 1-D pure recurrence — no input
/// variables at all (h̄₁ = h̄₂ = ∅), h̄₃ = [1] — at word length p = 2.
/// Composition must match enumerated ground truth even when only the
/// recurrence columns exist.
#[test]
fn regression_composition_on_pure_recurrence_word() {
    let word = WordLevelAlgorithm::new(
        "random",
        BoxSet::new(IVec(vec![1]), IVec(vec![2])),
        None,
        None,
        IVec(vec![1]),
    );
    for expansion in [Expansion::I, Expansion::II] {
        let composed = compose(&word, 2, expansion);
        let truth = enumerate_dependences(&expand(&word, 2, expansion));
        assert_eq!(
            instances_of_triplet(&composed),
            truth,
            "expansion {} on {:?}",
            expansion,
            word
        );
    }
}

/// Deterministic instance of
/// `schedule_searches_and_explorer_agree_on_seeded_draws` on the paper's own
/// 5-D matmul structure, where `paper_style_space` is literally the `S` of
/// eq. (4.2) — the slice Theorem 4.5 certifies.
#[test]
fn searches_and_explorer_agree_on_the_paper_structure() {
    let alg = compose(&WordLevelAlgorithm::matmul(2), 2, Expansion::II);
    assert_searches_agree(&alg, 2, 2);
}

/// Deterministic 3-D instance (1-D word recurrence): the smallest structure
/// the property ranges over, exercising the `m < 4` space shape.
#[test]
fn searches_and_explorer_agree_on_a_pure_recurrence() {
    let word = WordLevelAlgorithm::new(
        "recurrence",
        BoxSet::new(IVec(vec![1]), IVec(vec![3])),
        Some(IVec(vec![1])),
        None,
        IVec(vec![1]),
    );
    let alg = compose(&word, 3, Expansion::II);
    assert_searches_agree(&alg, 3, 2);
}

/// Regression: h̄₁ = [1] combined with the *negative*
/// recurrence direction h̄₃ = [-1]. The critical path must lower-bound the
/// canonical schedule's makespan whenever that schedule is legal.
#[test]
fn regression_critical_path_bound_on_negative_recurrence_word() {
    let word = WordLevelAlgorithm::new(
        "random",
        BoxSet::new(IVec(vec![1]), IVec(vec![2])),
        Some(IVec(vec![1])),
        None,
        IVec(vec![-1]),
    );
    let alg = compose(&word, 2, Expansion::II);
    let cp = critical_path(&alg);
    let n = alg.dim();
    let mut pi = IVec(vec![1; n]);
    pi[n - 2] = 2;
    let d = alg.dependence_matrix();
    if (0..d.cols()).any(|c| d.col(c).dot(&pi) <= 0) {
        // Mirrors the property's skip: the canonical schedule is
        // illegal for this word, so there is no makespan to bound.
        return;
    }
    let time = total_time(&pi, &alg.index_set);
    assert!(cp as i64 <= time, "cp {cp} > time {time}");
}
