//! Dependence vectors, conditional validity, and dependence sets.
//!
//! A dependence is a pair `(j̄, d̄)` (Section 2): iteration `j̄` depends on
//! iteration `j̄ − d̄`. A *uniform* dependence is valid at every point where
//! both endpoints lie in `J`; the bit-level structures of Section 3 also
//! contain **conditional** vectors valid only on sub-regions (`i₁ = 1`,
//! `jₙ = uₙ`, …), which we capture with a [`Predicate`].

use crate::index_set::BoxSet;
use crate::predicate::Predicate;
use bitlevel_linalg::{IMat, IVec};
use std::fmt;

/// Classification of a dependence (Section 2). The paper's single-assignment
/// convention removes output dependences; they remain representable for the
/// general analyser.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Read-after-write.
    Flow,
    /// Write-after-read.
    Anti,
    /// Write-after-write.
    Output,
}

impl fmt::Display for DepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DepKind::Flow => write!(f, "flow"),
            DepKind::Anti => write!(f, "anti"),
            DepKind::Output => write!(f, "output"),
        }
    }
}

/// One (possibly conditional) dependence vector: the paper's column of `D`
/// together with the variable that causes it and the validity region printed
/// under the column in eqs. (3.8)–(3.12).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Dependence {
    /// The dependence vector `d̄ = j̄ − j̄′`.
    pub vector: IVec,
    /// Variable(s) causing the dependence, e.g. `"x"`, `"y,c"`, `"c'"`.
    pub cause: String,
    /// Dependence classification.
    pub kind: DepKind,
    /// Where the dependence is valid (`Predicate::always()` = uniform).
    pub validity: Predicate,
}

impl Dependence {
    /// A uniform flow dependence — the common case for systolic algorithms.
    pub fn uniform(vector: impl Into<IVec>, cause: &str) -> Self {
        Dependence {
            vector: vector.into(),
            cause: cause.to_string(),
            kind: DepKind::Flow,
            validity: Predicate::always(),
        }
    }

    /// A conditional flow dependence valid only where `validity` holds.
    pub fn conditional(vector: impl Into<IVec>, cause: &str, validity: Predicate) -> Self {
        Dependence {
            vector: vector.into(),
            cause: cause.to_string(),
            kind: DepKind::Flow,
            validity,
        }
    }

    /// True if valid at every point of `set` (both endpoint-membership and the
    /// validity predicate are the caller's concern; this checks the predicate
    /// only, matching the paper's usage).
    pub fn is_uniform_over(&self, set: &BoxSet) -> bool {
        self.validity.is_uniform_over(set)
    }

    /// True if the dependence is *actually exercised* at `j̄` within `set`:
    /// the predicate holds and the source `j̄ − d̄` also lies in `set`.
    pub fn active_at(&self, j: &IVec, set: &BoxSet) -> bool {
        if !set.contains(j) || !self.validity.eval(j, set) {
            return false;
        }
        set.contains(&(j - &self.vector))
    }
}

/// The dependence structure of an algorithm: an ordered set of (conditional)
/// dependence vectors over a common index set dimension.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct DependenceSet {
    deps: Vec<Dependence>,
}

impl DependenceSet {
    /// Creates a dependence set from a vector of dependences.
    ///
    /// # Panics
    /// Panics if the vectors do not share a dimension.
    pub fn new(deps: Vec<Dependence>) -> Self {
        if let Some(first) = deps.first() {
            let n = first.vector.dim();
            assert!(
                deps.iter().all(|d| d.vector.dim() == n),
                "dependence vectors of mixed dimension"
            );
        }
        DependenceSet { deps }
    }

    /// Number of dependence vectors (columns of `D`).
    pub fn len(&self) -> usize {
        self.deps.len()
    }

    /// True if there are no dependences.
    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }

    /// Read-only view of the dependences.
    pub fn iter(&self) -> std::slice::Iter<'_, Dependence> {
        self.deps.iter()
    }

    /// The `i`-th dependence.
    pub fn get(&self, i: usize) -> &Dependence {
        &self.deps[i]
    }

    /// Appends a dependence.
    ///
    /// # Panics
    /// Panics on dimension mismatch with existing vectors.
    pub fn push(&mut self, d: Dependence) {
        if let Some(first) = self.deps.first() {
            assert_eq!(first.vector.dim(), d.vector.dim(), "dimension mismatch");
        }
        self.deps.push(d);
    }

    /// The dependence matrix `D` whose columns are the vectors, in order —
    /// exactly the paper's `D`.
    pub fn matrix(&self) -> IMat {
        IMat::from_columns(
            &self
                .deps
                .iter()
                .map(|d| d.vector.clone())
                .collect::<Vec<_>>(),
        )
    }

    /// True if every dependence is uniform over `set` (a *uniform dependence
    /// algorithm*).
    pub fn all_uniform_over(&self, set: &BoxSet) -> bool {
        self.deps.iter().all(|d| d.is_uniform_over(set))
    }

    /// All dependences active at point `j̄` (predicate holds, source inside).
    pub fn active_at<'a>(
        &'a self,
        j: &'a IVec,
        set: &'a BoxSet,
    ) -> impl Iterator<Item = &'a Dependence> {
        self.deps.iter().filter(move |d| d.active_at(j, set))
    }

    /// Semantic equality over `set`: same multiset of (vector, active-region)
    /// pairs, ignoring order, cause strings and predicate syntax. This is the
    /// check used to compare a compositionally-derived structure (Theorem 3.1)
    /// against the output of general dependence analysis.
    pub fn equivalent_over(&self, other: &DependenceSet, set: &BoxSet) -> bool {
        fn signature(ds: &DependenceSet, set: &BoxSet) -> Vec<(IVec, Vec<IVec>)> {
            let mut sig: Vec<(IVec, Vec<IVec>)> = ds
                .deps
                .iter()
                .map(|d| {
                    let pts: Vec<IVec> =
                        set.iter_points().filter(|j| d.active_at(j, set)).collect();
                    (d.vector.clone(), pts)
                })
                // A dependence active nowhere contributes nothing.
                .filter(|(_, pts)| !pts.is_empty())
                .collect();
            // Merge duplicate vectors (two conditional deps with the same
            // vector act as their union).
            sig.sort();
            let mut merged: Vec<(IVec, Vec<IVec>)> = Vec::new();
            for (v, pts) in sig {
                if let Some(last) = merged.last_mut() {
                    if last.0 == v {
                        last.1.extend(pts);
                        last.1.sort();
                        last.1.dedup();
                        continue;
                    }
                }
                merged.push((v, pts));
            }
            merged
        }
        signature(self, set) == signature(other, set)
    }
}

impl fmt::Display for DependenceSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.deps.iter().enumerate() {
            writeln!(
                f,
                "d{} = {}  ({}, {}; valid: {})",
                i + 1,
                d.vector,
                d.cause,
                d.kind,
                d.validity
            )?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a DependenceSet {
    type Item = &'a Dependence;
    type IntoIter = std::slice::Iter<'a, Dependence>;
    fn into_iter(self) -> Self::IntoIter {
        self.deps.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;

    fn matmul_deps() -> DependenceSet {
        // Eq. (2.4): D = I₃ with causes y, x, z.
        DependenceSet::new(vec![
            Dependence::uniform([1, 0, 0], "y"),
            Dependence::uniform([0, 1, 0], "x"),
            Dependence::uniform([0, 0, 1], "z"),
        ])
    }

    #[test]
    fn matrix_matches_eq_2_4() {
        let d = matmul_deps();
        assert_eq!(d.matrix(), IMat::identity(3));
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn uniformity() {
        let set = BoxSet::cube(3, 1, 3);
        assert!(matmul_deps().all_uniform_over(&set));
        let mut ds = matmul_deps();
        ds.push(Dependence::conditional(
            [0, 1, -1],
            "s",
            Predicate::eq_upper(0),
        ));
        assert!(!ds.all_uniform_over(&set));
    }

    #[test]
    fn active_at_requires_source_in_set() {
        let set = BoxSet::cube(3, 1, 3);
        let d = Dependence::uniform([0, 0, 1], "z");
        // At j3 = 1 the source j3 = 0 is outside J: boundary input, not an
        // internal dependence instance.
        assert!(!d.active_at(&IVec::from([1, 1, 1]), &set));
        assert!(d.active_at(&IVec::from([1, 1, 2]), &set));
        assert!(!d.active_at(&IVec::from([0, 1, 2]), &set)); // j outside
    }

    #[test]
    fn conditional_dependence_respects_predicate() {
        let set = BoxSet::cube(3, 1, 3);
        // d̄₄-style: [0,1,0] valid where axis1 (0-based) ≠ 1.
        let d = Dependence::conditional([0, 1, 0], "x", Predicate::ne_const(1, 1));
        // j = (1,2,1): predicate j2≠1 holds, source (1,1,1) ∈ J -> active.
        assert!(d.active_at(&IVec::from([1, 2, 1]), &set));
        // j = (1,1,1): predicate fails.
        assert!(!d.active_at(&IVec::from([1, 1, 1]), &set));
    }

    #[test]
    fn equivalence_ignores_column_order_and_predicate_syntax() {
        let set = BoxSet::cube(2, 1, 3);
        let a = DependenceSet::new(vec![
            Dependence::uniform([1, 0], "x"),
            Dependence::conditional([0, 1], "y", Predicate::ne_const(0, 1)),
        ]);
        let b = DependenceSet::new(vec![
            // Same region expressed differently: j1 ∈ {2,3} = ¬(j1=1).
            Dependence::conditional(
                [0, 1],
                "anything",
                Predicate::eq_const(0, 2).or(&Predicate::eq_const(0, 3)),
            ),
            Dependence::uniform([1, 0], "w"),
        ]);
        assert!(a.equivalent_over(&b, &set));
        // Different region -> not equivalent.
        let c = DependenceSet::new(vec![
            Dependence::uniform([1, 0], "x"),
            Dependence::uniform([0, 1], "y"),
        ]);
        assert!(!a.equivalent_over(&c, &set));
    }

    #[test]
    fn equivalence_merges_split_conditional_vectors() {
        let set = BoxSet::cube(1, 1, 4);
        // One uniform dep == two conditionals covering a partition.
        let whole = DependenceSet::new(vec![Dependence::uniform([1], "x")]);
        let split = DependenceSet::new(vec![
            Dependence::conditional([1], "x", Predicate::eq_const(0, 2)),
            Dependence::conditional([1], "x", Predicate::ne_const(0, 2)),
        ]);
        assert!(whole.equivalent_over(&split, &set));
    }

    #[test]
    fn dependence_active_nowhere_is_ignored_by_equivalence() {
        let set = BoxSet::cube(1, 1, 3);
        let a = DependenceSet::new(vec![Dependence::uniform([1], "x")]);
        let b = DependenceSet::new(vec![
            Dependence::uniform([1], "x"),
            // Vector [5] can never have its source inside J.
            Dependence::uniform([5], "ghost"),
        ]);
        assert!(a.equivalent_over(&b, &set));
    }

    #[test]
    #[should_panic(expected = "mixed dimension")]
    fn mixed_dimension_panics() {
        let _ = DependenceSet::new(vec![
            Dependence::uniform([1, 0], "x"),
            Dependence::uniform([1], "y"),
        ]);
    }
}
