//! Algorithm triplets `(J, D, E)`.
//!
//! "For the purpose of this paper, an algorithm can be characterized by a
//! triplet (J, D, E) where J is the index set, D is the dependence matrix
//! containing all distinct dependence vectors as its columns, and E contains
//! all different computations in all iterations" (Section 2). We extend `D`
//! to carry per-column validity predicates so conditional (non-uniform)
//! structures like (3.11b)/(3.11c) are first-class.

use crate::dependence::DependenceSet;
use crate::index_set::BoxSet;
use bitlevel_linalg::IMat;
use std::fmt;

/// An algorithm triplet `(J, D, E)`. `E` is a human-readable description of
/// the per-point computation; functional semantics live in the simulators.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AlgorithmTriplet {
    /// The index set `J`.
    pub index_set: BoxSet,
    /// The (conditional) dependence structure `D`.
    pub deps: DependenceSet,
    /// Description of the computation set `E`.
    pub computation: String,
    /// Axis names for display, e.g. `["j1","j2","j3","i1","i2"]`.
    pub axis_names: Vec<String>,
}

impl AlgorithmTriplet {
    /// Creates a triplet; derives default axis names `j1..jn` when none given.
    ///
    /// # Panics
    /// Panics if the dependence vectors do not match the index-set dimension.
    pub fn new(index_set: BoxSet, deps: DependenceSet, computation: &str) -> Self {
        let n = index_set.dim();
        for d in deps.iter() {
            assert_eq!(d.vector.dim(), n, "dependence/index dimension mismatch");
        }
        let axis_names = (1..=n).map(|i| format!("j{i}")).collect();
        AlgorithmTriplet {
            index_set,
            deps,
            computation: computation.to_string(),
            axis_names,
        }
    }

    /// Replaces the axis names (for compound bit-level sets:
    /// `j1..jn, i1, i2`).
    pub fn with_axis_names(mut self, names: &[&str]) -> Self {
        assert_eq!(
            names.len(),
            self.index_set.dim(),
            "axis-name count mismatch"
        );
        self.axis_names = names.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Algorithm dimension `n`.
    pub fn dim(&self) -> usize {
        self.index_set.dim()
    }

    /// The dependence matrix `D`.
    pub fn dependence_matrix(&self) -> IMat {
        self.deps.matrix()
    }

    /// True if this is a *uniform dependence algorithm*.
    pub fn is_uniform(&self) -> bool {
        self.deps.all_uniform_over(&self.index_set)
    }

    /// Semantic equivalence of dependence structures over the shared index
    /// set (see [`DependenceSet::equivalent_over`]).
    pub fn same_dependence_behaviour(&self, other: &AlgorithmTriplet) -> bool {
        self.index_set == other.index_set && self.deps.equivalent_over(&other.deps, &self.index_set)
    }
}

impl fmt::Display for AlgorithmTriplet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "J = {}", self.index_set)?;
        writeln!(f, "E: {}", self.computation)?;
        write!(f, "{}", crate::display::annotated_dependence_table(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dependence::Dependence;

    fn matmul_triplet() -> AlgorithmTriplet {
        AlgorithmTriplet::new(
            BoxSet::cube(3, 1, 3),
            DependenceSet::new(vec![
                Dependence::uniform([1, 0, 0], "y"),
                Dependence::uniform([0, 1, 0], "x"),
                Dependence::uniform([0, 0, 1], "z"),
            ]),
            "z(j) = z(j-d3) + x(j)y(j)",
        )
    }

    #[test]
    fn triplet_matches_eq_2_4() {
        let a = matmul_triplet();
        assert_eq!(a.dim(), 3);
        assert_eq!(a.dependence_matrix(), IMat::identity(3));
        assert!(a.is_uniform());
        assert_eq!(a.axis_names, vec!["j1", "j2", "j3"]);
    }

    #[test]
    fn with_axis_names() {
        let a = matmul_triplet().with_axis_names(&["j1", "j2", "j3"]);
        assert_eq!(a.axis_names[2], "j3");
    }

    #[test]
    #[should_panic(expected = "axis-name count")]
    fn wrong_axis_name_count_panics() {
        let _ = matmul_triplet().with_axis_names(&["a", "b"]);
    }

    #[test]
    fn same_dependence_behaviour_reflexive() {
        let a = matmul_triplet();
        assert!(a.same_dependence_behaviour(&a.clone()));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_dependence_dimension_panics() {
        let _ = AlgorithmTriplet::new(
            BoxSet::cube(2, 1, 3),
            DependenceSet::new(vec![Dependence::uniform([1, 0, 0], "x")]),
            "",
        );
    }
}
