//! Determinism: every API that involves parallelism or search must return
//! identical results across repeated invocations (documented tie-breaking,
//! no iteration-order leakage). Reproducible experiments depend on this.

use bitlevel::depanal::{compose, Expansion};
use bitlevel::mapping::{
    find_linear_array_mapping, find_optimal_schedule, find_optimal_schedule_bestfirst,
    linear_interconnect, Interconnect, PaperDesign,
};
use bitlevel::WordLevelAlgorithm;

#[test]
fn schedule_search_is_deterministic() {
    let alg = compose(&WordLevelAlgorithm::matmul(2), 2, Expansion::II);
    let s = PaperDesign::space(2);
    let ic = Interconnect::paper_p(2);
    let first = find_optimal_schedule(&s, &alg, &ic, 2).unwrap();
    for _ in 0..3 {
        let again = find_optimal_schedule(&s, &alg, &ic, 2).unwrap();
        assert_eq!(first.pi, again.pi);
        assert_eq!(first.time, again.time);
        assert_eq!(first.feasible_count, again.feasible_count);
    }
    // And the best-first variant lands on the same optimum.
    let bf = find_optimal_schedule_bestfirst(&s, &alg, &ic, 2).unwrap();
    assert_eq!(first.pi, bf.pi);
}

#[test]
fn linear_array_synthesis_is_deterministic() {
    // Rayon fans out over S candidates; the min_by tie-break must make the
    // winner order-independent.
    let word_alg = WordLevelAlgorithm::matmul(3).triplet();
    let ic = linear_interconnect(None);
    let first = find_linear_array_mapping(&word_alg, &ic, 1, 2).unwrap();
    for _ in 0..3 {
        let again = find_linear_array_mapping(&word_alg, &ic, 1, 2).unwrap();
        assert_eq!(first.mapping, again.mapping);
        assert_eq!(first.time, again.time);
        assert_eq!(first.processors, again.processors);
    }
}
