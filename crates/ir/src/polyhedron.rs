//! General polyhedral index sets.
//!
//! The paper's algorithm model (2.1) has constant loop bounds — a box — but
//! its mapping framework (Definition 4.1 and the cited design method [5,6])
//! applies to any convex integer index set; the classic examples with
//! non-rectangular sets are triangular loop nests such as LU decomposition,
//! which the paper names as a target application. [`Polyhedron`] represents
//! `{ j̄ ∈ Zⁿ : A·j̄ ≤ b̄ }`, supports the queries the mapping layer needs
//! (membership, enumeration via a bounding box, difference search), and
//! converts losslessly from [`BoxSet`].

use crate::index_set::BoxSet;
use bitlevel_linalg::{IMat, IVec};
use std::fmt;

/// An integer polyhedron `{ j̄ : A·j̄ ≤ b̄ }` with a known finite bounding box.
///
/// The bounding box is supplied by the constructor (loop nests always have
/// one — the paper's model requires finite bounds) and is used to enumerate
/// points; membership itself is exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Polyhedron {
    /// Constraint matrix `A` (rows are faces).
    pub a: IMat,
    /// Right-hand side `b̄`.
    pub b: IVec,
    /// A finite box containing every integer point of the polyhedron.
    pub bounding: BoxSet,
}

impl Polyhedron {
    /// Creates `{ j̄ : A·j̄ ≤ b̄ }` with the given bounding box.
    ///
    /// # Panics
    /// Panics on dimension mismatches.
    pub fn new(a: IMat, b: IVec, bounding: BoxSet) -> Self {
        assert_eq!(a.rows(), b.dim(), "constraint count mismatch");
        assert_eq!(a.cols(), bounding.dim(), "dimension mismatch");
        Polyhedron { a, b, bounding }
    }

    /// The box `[l̄, ū]` as a polyhedron (`2n` faces).
    pub fn from_box(set: &BoxSet) -> Self {
        let n = set.dim();
        let mut a = IMat::zeros(2 * n, n);
        let mut b = IVec::zeros(2 * n);
        for i in 0..n {
            a[(i, i)] = 1; // jᵢ ≤ uᵢ
            b[i] = set.upper()[i];
            a[(n + i, i)] = -1; // −jᵢ ≤ −lᵢ
            b[n + i] = -set.lower()[i];
        }
        Polyhedron::new(a, b, set.clone())
    }

    /// The lower-triangular wedge `{ l ≤ j₂ ≤ j₁ ≤ u }` in 2-D — the LU /
    /// triangular-solve iteration shape.
    pub fn lower_triangle(l: i64, u: i64) -> Self {
        let a = IMat::from_rows(&[
            &[1, 0],  // j1 ≤ u
            &[-1, 0], // −j1 ≤ −l
            &[0, 1],  // j2 ≤ u (redundant but harmless)
            &[0, -1], // −j2 ≤ −l
            &[-1, 1], // j2 − j1 ≤ 0
        ]);
        let b = IVec::from([u, -l, u, -l, 0]);
        Polyhedron::new(a, b, BoxSet::cube(2, l, u))
    }

    /// Dimension `n`.
    pub fn dim(&self) -> usize {
        self.a.cols()
    }

    /// Exact membership test.
    pub fn contains(&self, j: &IVec) -> bool {
        if j.dim() != self.dim() {
            return false;
        }
        let v = self.a.matvec(j);
        (0..v.dim()).all(|i| v[i] <= self.b[i])
    }

    /// Iterates the integer points (bounding-box scan + membership filter).
    pub fn iter_points(&self) -> impl Iterator<Item = IVec> + '_ {
        self.bounding.iter_points().filter(|j| self.contains(j))
    }

    /// Number of integer points.
    pub fn cardinality(&self) -> u128 {
        self.iter_points().count() as u128
    }

    /// True if some pair `j̄, j̄ + v̄` both lie inside — i.e. `v̄` is a realised
    /// difference. Used by the polyhedral conflict check: a kernel vector of
    /// `T` causes a conflict iff it is a realised difference.
    pub fn realises_difference(&self, v: &IVec) -> bool {
        self.iter_points().any(|j| self.contains(&(&j + v)))
    }

    /// Intersects with a half-space `c̄·j̄ ≤ k` (returns a new polyhedron).
    pub fn with_constraint(&self, c: &IVec, k: i64) -> Polyhedron {
        assert_eq!(c.dim(), self.dim(), "constraint dimension mismatch");
        let row = IMat::from_flat(1, self.dim(), c.as_slice().to_vec());
        Polyhedron::new(
            self.a.vstack(&row),
            self.b.concat(&IVec::from([k])),
            self.bounding.clone(),
        )
    }
}

impl fmt::Display for Polyhedron {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{{ j : A j <= b }} with A =")?;
        write!(f, "{}", self.a)?;
        write!(f, "b = {}", self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn box_roundtrip() {
        let b = BoxSet::new(IVec::from([1, 2]), IVec::from([3, 4]));
        let p = Polyhedron::from_box(&b);
        assert_eq!(p.cardinality(), b.cardinality());
        for j in b.iter_points() {
            assert!(p.contains(&j));
        }
        assert!(!p.contains(&IVec::from([0, 2])));
        assert!(!p.contains(&IVec::from([1, 5])));
    }

    #[test]
    fn lower_triangle_counts() {
        // { 1 ≤ j2 ≤ j1 ≤ 4 }: 4+3+2+1 = 10 points.
        let t = Polyhedron::lower_triangle(1, 4);
        assert_eq!(t.cardinality(), 10);
        assert!(t.contains(&IVec::from([4, 1])));
        assert!(t.contains(&IVec::from([3, 3])));
        assert!(!t.contains(&IVec::from([1, 3])));
    }

    #[test]
    fn realised_differences() {
        let t = Polyhedron::lower_triangle(1, 3);
        // Moving down the triangle by [1, 0] is realised…
        assert!(t.realises_difference(&IVec::from([1, 0])));
        // …as is the diagonal [1, 1]…
        assert!(t.realises_difference(&IVec::from([1, 1])));
        // …but [0, 3] would leave the wedge from every start.
        assert!(!t.realises_difference(&IVec::from([0, 3])));
    }

    #[test]
    fn with_constraint_shrinks() {
        let b = Polyhedron::from_box(&BoxSet::cube(2, 1, 4));
        let half = b.with_constraint(&IVec::from([1, 1]), 4); // j1 + j2 ≤ 4
        assert!(half.cardinality() < b.cardinality());
        assert_eq!(
            half.cardinality(),
            b.iter_points().filter(|j| j[0] + j[1] <= 4).count() as u128
        );
    }

    #[test]
    fn display_renders() {
        let t = Polyhedron::lower_triangle(1, 2);
        let s = t.to_string();
        assert!(s.contains("A j <= b"), "{s}");
    }

    proptest! {
        /// from_box membership is exactly box membership on random points.
        #[test]
        fn prop_box_membership_agrees(
            pt in proptest::collection::vec(-5i64..8, 3),
        ) {
            let b = BoxSet::new(IVec::from([0, 1, -1]), IVec::from([4, 5, 3]));
            let p = Polyhedron::from_box(&b);
            let v = IVec(pt);
            prop_assert_eq!(p.contains(&v), b.contains(&v));
        }
    }
}
