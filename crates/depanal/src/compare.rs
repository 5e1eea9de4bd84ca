//! Validating and timing compositional vs general dependence analysis.
//!
//! The paper's headline claim is methodological: Theorem 3.1 yields the
//! bit-level dependence structure "without using time consuming general
//! dependence analysis methods". This module packages both sides for the
//! experiment harness (E3): it checks that the compositional structure is
//! *semantically identical* to ground truth on concrete instances, and times
//! the two derivation routes.

use crate::compose::{compose, Expansion};
use crate::exact::{
    diophantine_dependences, enumerate_dependences, instances_of_triplet, DependenceInstances,
};
use crate::expand::expand;
use bitlevel_ir::WordLevelAlgorithm;
use std::time::{Duration, Instant};

/// Result of one compositional-vs-general comparison.
#[derive(Debug, Clone)]
pub struct ComparisonReport {
    /// Word-level algorithm name.
    pub algorithm: String,
    /// Which expansion was analysed.
    pub expansion: String,
    /// Word length.
    pub p: usize,
    /// Compound index-set size `|J_w|·p²`.
    pub index_points: u128,
    /// Whether the compositional structure matches exhaustive ground truth.
    pub matches_enumeration: bool,
    /// Whether the Diophantine route also matches ground truth.
    pub diophantine_matches: bool,
    /// Time to derive the structure via Theorem 3.1.
    pub compose_time: Duration,
    /// Time of the exhaustive enumeration baseline.
    pub enumerate_time: Duration,
    /// Time of the Diophantine-solve-plus-verify baseline.
    pub diophantine_time: Duration,
}

impl ComparisonReport {
    /// Speedup of the compositional derivation over the Diophantine method.
    pub fn speedup_vs_diophantine(&self) -> f64 {
        self.diophantine_time.as_secs_f64() / self.compose_time.as_secs_f64().max(1e-12)
    }

    /// Speedup of the compositional derivation over exhaustive enumeration.
    pub fn speedup_vs_enumeration(&self) -> f64 {
        self.enumerate_time.as_secs_f64() / self.compose_time.as_secs_f64().max(1e-12)
    }
}

/// Runs all three analyses for one (algorithm, p, expansion) instance and
/// cross-checks them.
pub fn compare_analyses(
    word: &WordLevelAlgorithm,
    p: usize,
    expansion: Expansion,
) -> ComparisonReport {
    let t0 = Instant::now();
    let composed = compose(word, p, expansion);
    let compose_time = t0.elapsed();

    let nest = expand(word, p, expansion);

    let t1 = Instant::now();
    let ground_truth = enumerate_dependences(&nest);
    let enumerate_time = t1.elapsed();

    let t2 = Instant::now();
    let dio = diophantine_dependences(&nest);
    let diophantine_time = t2.elapsed();

    let composed_instances = instances_of_triplet(&composed);

    ComparisonReport {
        algorithm: word.name.clone(),
        expansion: expansion.to_string(),
        p,
        index_points: composed.index_set.cardinality(),
        matches_enumeration: composed_instances == ground_truth,
        diophantine_matches: dio == ground_truth,
        compose_time,
        enumerate_time,
        diophantine_time,
    }
}

/// Checks only the structural agreement (no timing) — used by tests.
pub fn structures_agree(word: &WordLevelAlgorithm, p: usize, expansion: Expansion) -> bool {
    let composed = compose(word, p, expansion);
    let nest = expand(word, p, expansion);
    instances_of_triplet(&composed) == enumerate_dependences(&nest)
}

/// Pretty one-line summary of a report (used by the experiment harness).
pub fn summarize(r: &ComparisonReport) -> String {
    format!(
        "{} / {} / p={}: |J|={}, compose {:?} vs enumerate {:?} ({:.0}x) vs diophantine {:?} ({:.0}x), agree={}",
        r.algorithm,
        r.expansion,
        r.p,
        r.index_points,
        r.compose_time,
        r.enumerate_time,
        r.speedup_vs_enumeration(),
        r.diophantine_time,
        r.speedup_vs_diophantine(),
        r.matches_enumeration && r.diophantine_matches,
    )
}

/// Detailed mismatch diagnostics for debugging: the instances present in one
/// side but not the other, truncated to `limit` entries per direction.
pub fn diff_instances(
    a: &DependenceInstances,
    b: &DependenceInstances,
    limit: usize,
) -> Vec<String> {
    let mut out = Vec::new();
    for (v, pts) in a {
        match b.get(v) {
            None => out.push(format!("vector {v} only on left ({} points)", pts.len())),
            Some(bp) => {
                for p in pts.difference(bp).take(limit) {
                    out.push(format!("instance ({p}, {v}) only on left"));
                }
                for p in bp.difference(pts).take(limit) {
                    out.push(format!("instance ({p}, {v}) only on right"));
                }
            }
        }
        if out.len() >= limit {
            break;
        }
    }
    for v in b.keys() {
        if !a.contains_key(v) {
            out.push(format!("vector {v} only on right"));
        }
    }
    out.truncate(limit);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_expansion_ii_agrees_with_ground_truth() {
        // The paper's Example 3.1 instance (small sizes for the exhaustive
        // baseline).
        assert!(structures_agree(
            &WordLevelAlgorithm::matmul(2),
            2,
            Expansion::II
        ));
        assert!(structures_agree(
            &WordLevelAlgorithm::matmul(2),
            3,
            Expansion::II
        ));
        assert!(structures_agree(
            &WordLevelAlgorithm::matmul(3),
            2,
            Expansion::II
        ));
    }

    #[test]
    fn matmul_expansion_i_agrees_with_ground_truth() {
        assert!(structures_agree(
            &WordLevelAlgorithm::matmul(2),
            2,
            Expansion::I
        ));
        assert!(structures_agree(
            &WordLevelAlgorithm::matmul(2),
            3,
            Expansion::I
        ));
    }

    #[test]
    fn one_dimensional_recurrence_agrees_both_expansions() {
        // Program (3.7), the paper's worked 1-D example (Fig. 3).
        let word = WordLevelAlgorithm::new(
            "1-D recurrence",
            bitlevel_ir::BoxSet::cube(1, 1, 4),
            Some([1].into()),
            Some([1].into()),
            [1].into(),
        );
        assert!(structures_agree(&word, 3, Expansion::I));
        assert!(structures_agree(&word, 3, Expansion::II));
    }

    #[test]
    fn convolution_agrees() {
        let word = WordLevelAlgorithm::convolution(3, 2);
        assert!(structures_agree(&word, 2, Expansion::I));
        assert!(structures_agree(&word, 2, Expansion::II));
    }

    #[test]
    fn matvec_partial_model_agrees() {
        let word = WordLevelAlgorithm::matvec(3, 3);
        assert!(structures_agree(&word, 2, Expansion::I));
        assert!(structures_agree(&word, 2, Expansion::II));
    }

    #[test]
    fn full_report_is_consistent() {
        let r = compare_analyses(&WordLevelAlgorithm::matmul(2), 2, Expansion::II);
        assert!(r.matches_enumeration);
        assert!(r.diophantine_matches);
        assert_eq!(r.index_points, 8 * 4);
        assert!(r.speedup_vs_enumeration() > 0.0);
        let line = summarize(&r);
        assert!(line.contains("agree=true"), "{line}");
    }

    #[test]
    fn diff_instances_reports_mismatches() {
        use bitlevel_linalg::IVec;
        use std::collections::BTreeMap;
        let mut a: DependenceInstances = BTreeMap::new();
        let mut b: DependenceInstances = BTreeMap::new();
        a.entry(IVec::from([1]))
            .or_default()
            .insert(IVec::from([2]));
        b.entry(IVec::from([2]))
            .or_default()
            .insert(IVec::from([3]));
        let d = diff_instances(&a, &b, 10);
        assert_eq!(d.len(), 2);
        assert!(d.iter().any(|s| s.contains("left")));
        assert!(d.iter().any(|s| s.contains("right")));
    }
}
