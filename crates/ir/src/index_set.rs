//! Rectangular index sets (iteration spaces).
//!
//! The paper's algorithm model (2.1) iterates over a box
//! `J = { j̄ : lᵢ ≤ jᵢ ≤ uᵢ }`; every index set in the paper — `J_w` of the
//! word-level model (3.6), `J_as` of the add-shift multiplier (3.4), and the
//! compound bit-level set of Theorem 3.1 (3.11a) — is such a box, and the
//! compound set is precisely the Cartesian product `J_w × J_as`.

use bitlevel_linalg::IVec;
use std::fmt;

/// A box-shaped index set `{ j̄ ∈ Zⁿ : l̄ ≤ j̄ ≤ ū }` (componentwise).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BoxSet {
    lower: IVec,
    upper: IVec,
}

impl BoxSet {
    /// Creates the box `[l̄, ū]`.
    ///
    /// # Panics
    /// Panics if dimensions differ or any `lᵢ > uᵢ` (empty boxes are
    /// represented explicitly by [`BoxSet::empty`] semantics are not needed in
    /// this codebase — the paper's loops always have `lᵢ ≤ uᵢ`).
    pub fn new(lower: IVec, upper: IVec) -> Self {
        assert_eq!(lower.dim(), upper.dim(), "bound dimension mismatch");
        assert!(
            lower.le_componentwise(&upper),
            "empty box: lower {lower} exceeds upper {upper}"
        );
        BoxSet { lower, upper }
    }

    /// The cube `[lo, hi]ⁿ`.
    pub fn cube(n: usize, lo: i64, hi: i64) -> Self {
        BoxSet::new(IVec(vec![lo; n]), IVec(vec![hi; n]))
    }

    /// Dimension `n` of the index space.
    pub fn dim(&self) -> usize {
        self.lower.dim()
    }

    /// Lower bound vector `l̄`.
    pub fn lower(&self) -> &IVec {
        &self.lower
    }

    /// Upper bound vector `ū`.
    pub fn upper(&self) -> &IVec {
        &self.upper
    }

    /// Membership test `j̄ ∈ J`.
    pub fn contains(&self, j: &IVec) -> bool {
        j.dim() == self.dim() && self.lower.le_componentwise(j) && j.le_componentwise(&self.upper)
    }

    /// Cardinality `|J| = Π (uᵢ − lᵢ + 1)`, saturating at `u128::MAX` so a
    /// box with more points than `u128` counts (five axes of extent 2³²
    /// hold 2¹⁶⁰) still reads as oversized.
    pub fn cardinality(&self) -> u128 {
        (0..self.dim())
            .map(|i| (self.upper[i] as i128 - self.lower[i] as i128 + 1) as u128)
            .fold(1, u128::saturating_mul)
    }

    /// Cartesian product `self × other` — the compound index set of
    /// Theorem 3.1: `J = { [j̄ᵀ, īᵀ]ᵀ : j̄ ∈ J_w, ī ∈ J_as }`.
    pub fn product(&self, other: &BoxSet) -> BoxSet {
        BoxSet {
            lower: self.lower.concat(&other.lower),
            upper: self.upper.concat(&other.upper),
        }
    }

    /// The box of all differences `{ j̄₁ − j̄₂ : j̄₁, j̄₂ ∈ J }`, i.e.
    /// `[-(ū−l̄), ū−l̄]`. Used by the conflict checker (condition 3).
    pub fn difference_box(&self) -> BoxSet {
        let extent = &self.upper - &self.lower;
        BoxSet {
            lower: -&extent,
            upper: extent,
        }
    }

    /// Iterates over all points in lexicographic order (first axis slowest, as
    /// in the paper's nested DO loops where `j₁` is the outermost loop).
    pub fn iter_points(&self) -> BoxIter<'_> {
        BoxIter {
            bounds: self,
            next: Some(self.lower.clone()),
        }
    }

    /// Projects the box onto a subset of axes (in the given order).
    pub fn project(&self, axes: &[usize]) -> BoxSet {
        BoxSet {
            lower: IVec(axes.iter().map(|&a| self.lower[a]).collect()),
            upper: IVec(axes.iter().map(|&a| self.upper[a]).collect()),
        }
    }

    /// Extent `uᵢ − lᵢ` along axis `i`.
    pub fn extent(&self, i: usize) -> i64 {
        self.upper[i] - self.lower[i]
    }

    /// The mixed-radix place values of the slot layout: `strideᵢ =
    /// Π_{k>i} (u_k − l_k + 1)`, so the last axis is fastest (stride 1).
    /// [`BoxSet::rank`] is `Σᵢ (jᵢ − lᵢ)·strideᵢ`, and since the rank is
    /// linear in `j̄`, moving by `d̄` inside `J` moves the slot by
    /// `⟨d̄, strides⟩` — the compiled backend's closed-form producer slot.
    ///
    /// # Errors
    /// [`RankError::Overflow`] if `|J|` does not fit in `usize`.
    pub fn try_strides(&self) -> Result<Vec<usize>, RankError> {
        let card = self.cardinality();
        if card > usize::MAX as u128 {
            return Err(RankError::Overflow { cardinality: card });
        }
        // Every stride divides |J|, so none overflows.
        let mut strides = vec![1usize; self.dim()];
        for i in (1..self.dim()).rev() {
            strides[i - 1] = strides[i] * (self.extent(i) as usize + 1);
        }
        Ok(strides)
    }

    /// Closed-form lexicographic rank of `j̄ ∈ J`: the position of `j̄` in the
    /// [`BoxSet::iter_points`] enumeration (first axis slowest). This is the
    /// mixed-radix number whose digit along axis `i` is `jᵢ − lᵢ`, weighted
    /// by [`BoxSet::try_strides`], so index points become dense array slots
    /// with no hashing — the basis of the compiled simulation backend.
    ///
    /// # Panics
    /// Panics if `j̄ ∉ J` or if `|J|` does not fit in `usize` — use
    /// [`BoxSet::try_rank`] where the caller wants to degrade instead.
    pub fn rank(&self, j: &IVec) -> usize {
        match self.try_rank(j) {
            Ok(r) => r,
            Err(e) => panic!("rank: {e}"),
        }
    }

    /// Checked variant of [`BoxSet::rank`]: callers such as the compiled
    /// simulation backend and long sweeps use this to fall back to the
    /// interpreted engines instead of aborting mid-run.
    pub fn try_rank(&self, j: &IVec) -> Result<usize, RankError> {
        if !self.contains(j) {
            return Err(RankError::PointOutside {
                point: j.to_string(),
                set: self.to_string(),
            });
        }
        let strides = self.try_strides()?;
        Ok((0..self.dim())
            .map(|i| (j[i] - self.lower[i]) as usize * strides[i])
            .sum())
    }

    /// Inverse of [`BoxSet::rank`]: the `r`-th point of the lexicographic
    /// enumeration, recovered digit-by-digit from the mixed-radix expansion
    /// (last axis fastest).
    ///
    /// # Panics
    /// Panics if `r ≥ |J|`.
    pub fn unrank(&self, r: usize) -> IVec {
        let card = self.cardinality();
        assert!(
            (r as u128) < card,
            "unrank: rank {r} out of range for |J| = {card}"
        );
        let mut coords = vec![0i64; self.dim()];
        let mut rem = r;
        for i in (0..self.dim()).rev() {
            let size = (self.upper[i] - self.lower[i] + 1) as usize;
            coords[i] = self.lower[i] + (rem % size) as i64;
            rem /= size;
        }
        let j = IVec(coords);
        debug_assert_eq!(self.rank(&j), r, "rank/unrank round-trip broken");
        j
    }
}

/// Why a point could not be ranked into a dense slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankError {
    /// The point is not a member of the index set.
    PointOutside {
        /// Rendered point.
        point: String,
        /// Rendered index set.
        set: String,
    },
    /// `|J|` exceeds the addressable slot space.
    Overflow {
        /// The offending cardinality.
        cardinality: u128,
    },
}

impl fmt::Display for RankError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RankError::PointOutside { point, set } => {
                write!(f, "point {point} outside {set}")
            }
            RankError::Overflow { cardinality } => {
                write!(f, "|J| = {cardinality} overflows usize")
            }
        }
    }
}

impl std::error::Error for RankError {}

impl fmt::Display for BoxSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{ j : ")?;
        for i in 0..self.dim() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} <= j{} <= {}", self.lower[i], i + 1, self.upper[i])?;
        }
        write!(f, " }}")
    }
}

/// Lexicographic iterator over the points of a [`BoxSet`].
pub struct BoxIter<'a> {
    bounds: &'a BoxSet,
    next: Option<IVec>,
}

impl Iterator for BoxIter<'_> {
    type Item = IVec;

    fn next(&mut self) -> Option<IVec> {
        let current = self.next.take()?;
        // Compute successor: increment last axis, carrying leftwards.
        let mut succ = current.clone();
        let n = succ.dim();
        if n == 0 {
            // The 0-dimensional box has exactly one point.
            self.next = None;
            return Some(current);
        }
        let mut axis = n;
        loop {
            if axis == 0 {
                self.next = None;
                break;
            }
            axis -= 1;
            if succ[axis] < self.bounds.upper[axis] {
                succ[axis] += 1;
                for a in axis + 1..n {
                    succ[a] = self.bounds.lower[a];
                }
                self.next = Some(succ);
                break;
            }
        }
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn membership_and_cardinality() {
        let j = BoxSet::cube(3, 1, 4); // the paper's J with u = 4
        assert_eq!(j.dim(), 3);
        assert_eq!(j.cardinality(), 64);
        assert!(j.contains(&IVec::from([1, 1, 1])));
        assert!(j.contains(&IVec::from([4, 4, 4])));
        assert!(!j.contains(&IVec::from([0, 1, 1])));
        assert!(!j.contains(&IVec::from([1, 5, 1])));
        assert!(!j.contains(&IVec::from([1, 1]))); // wrong dimension
    }

    #[test]
    fn product_builds_theorem_3_1_index_set() {
        // J = J_w × J_as per eq. (3.11a): matmul u=2, add-shift p=3.
        let jw = BoxSet::cube(3, 1, 2);
        let jas = BoxSet::cube(2, 1, 3);
        let j = jw.product(&jas);
        assert_eq!(j.dim(), 5);
        assert_eq!(j.cardinality(), 8 * 9);
        assert!(j.contains(&IVec::from([2, 1, 2, 3, 1])));
        assert!(!j.contains(&IVec::from([2, 1, 3, 3, 1])));
    }

    #[test]
    fn iteration_is_lexicographic_and_complete() {
        let b = BoxSet::new(IVec::from([0, 1]), IVec::from([1, 2]));
        let pts: Vec<IVec> = b.iter_points().collect();
        assert_eq!(
            pts,
            vec![
                IVec::from([0, 1]),
                IVec::from([0, 2]),
                IVec::from([1, 1]),
                IVec::from([1, 2]),
            ]
        );
    }

    #[test]
    fn zero_dimensional_box_has_one_point() {
        let b = BoxSet::new(IVec::zeros(0), IVec::zeros(0));
        assert_eq!(b.cardinality(), 1);
        assert_eq!(b.iter_points().count(), 1);
    }

    #[test]
    fn difference_box_is_symmetric() {
        let b = BoxSet::new(IVec::from([1, 2]), IVec::from([3, 2]));
        let d = b.difference_box();
        assert_eq!(d.lower(), &IVec::from([-2, 0]));
        assert_eq!(d.upper(), &IVec::from([2, 0]));
    }

    #[test]
    fn project_extracts_axes() {
        let b = BoxSet::new(IVec::from([1, 2, 3]), IVec::from([4, 5, 6]));
        let p = b.project(&[2, 0]);
        assert_eq!(p.lower(), &IVec::from([3, 1]));
        assert_eq!(p.upper(), &IVec::from([6, 4]));
    }

    #[test]
    #[should_panic(expected = "empty box")]
    fn inverted_bounds_panic() {
        let _ = BoxSet::new(IVec::from([2]), IVec::from([1]));
    }

    #[test]
    fn rank_matches_iteration_order() {
        let b = BoxSet::new(IVec::from([0, 1, -2]), IVec::from([1, 2, 0]));
        let strides = b.try_strides().unwrap();
        assert_eq!(strides, vec![6, 3, 1]);
        for (k, q) in b.iter_points().enumerate() {
            assert_eq!(b.rank(&q), k);
            assert_eq!(b.unrank(k), q);
            let digits = &q - b.lower();
            assert_eq!(
                digits
                    .iter()
                    .zip(&strides)
                    .map(|(&d, &s)| d as usize * s)
                    .sum::<usize>(),
                k
            );
        }
    }

    #[test]
    fn rank_of_zero_dimensional_box() {
        let b = BoxSet::new(IVec::zeros(0), IVec::zeros(0));
        assert_eq!(b.rank(&IVec::zeros(0)), 0);
        assert_eq!(b.unrank(0), IVec::zeros(0));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rank_of_outside_point_panics() {
        let b = BoxSet::cube(2, 1, 3);
        let _ = b.rank(&IVec::from([0, 1]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unrank_beyond_cardinality_panics() {
        let b = BoxSet::cube(2, 1, 2);
        let _ = b.unrank(4);
    }

    #[test]
    fn try_rank_reports_outside_points_instead_of_panicking() {
        let b = BoxSet::cube(2, 1, 3);
        assert_eq!(b.try_rank(&IVec::from([2, 3])), Ok(5));
        let err = b.try_rank(&IVec::from([0, 1])).unwrap_err();
        assert!(matches!(err, RankError::PointOutside { .. }));
        assert!(err.to_string().contains("outside"));
    }

    #[test]
    fn try_rank_reports_oversized_sets_instead_of_panicking() {
        // 2^64 points: exceeds usize on every supported target.
        let b = BoxSet::new(
            IVec::from([0, 0]),
            IVec::from([(1i64 << 32) - 1, (1i64 << 32) - 1]),
        );
        let err = b.try_rank(&IVec::from([1, 1])).unwrap_err();
        assert_eq!(
            err,
            RankError::Overflow {
                cardinality: 1u128 << 64
            }
        );
        assert!(err.to_string().contains("overflows usize"));
        assert_eq!(b.try_strides(), Err(err));
        // 2^160 points: more than u128 counts, so the count saturates
        // instead of wrapping to 0.
        let b = BoxSet::new(IVec::zeros(5), IVec(vec![(1i64 << 32) - 1; 5]));
        assert_eq!(b.cardinality(), u128::MAX);
        assert_eq!(
            b.try_rank(&IVec::zeros(5)),
            Err(RankError::Overflow {
                cardinality: u128::MAX
            })
        );
    }

    proptest! {
        #[test]
        fn prop_iteration_count_matches_cardinality(
            lo in proptest::collection::vec(-3i64..3, 1..4),
            ext in proptest::collection::vec(0i64..4, 1..4),
        ) {
            let n = lo.len().min(ext.len());
            let lower = IVec(lo[..n].to_vec());
            let upper = IVec((0..n).map(|i| lo[i] + ext[i]).collect());
            let b = BoxSet::new(lower, upper);
            prop_assert_eq!(b.iter_points().count() as u128, b.cardinality());
            // Every iterated point is a member; points are strictly increasing
            // lexicographically (no duplicates).
            let pts: Vec<IVec> = b.iter_points().collect();
            for w in pts.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
            for p in &pts {
                prop_assert!(b.contains(p));
            }
        }

        #[test]
        fn prop_rank_unrank_roundtrip_in_iteration_order(
            lo in proptest::collection::vec(-3i64..3, 1..4),
            // Extent 0 included: degenerate (single-value) axes must rank
            // correctly too.
            ext in proptest::collection::vec(0i64..4, 1..4),
        ) {
            let n = lo.len().min(ext.len());
            let lower = IVec(lo[..n].to_vec());
            let upper = IVec((0..n).map(|i| lo[i] + ext[i]).collect());
            let b = BoxSet::new(lower, upper);
            for (k, q) in b.iter_points().enumerate() {
                prop_assert_eq!(b.rank(&q), k);
                prop_assert_eq!(b.unrank(k), q);
            }
        }

        #[test]
        fn prop_difference_box_contains_all_differences(
            ext in proptest::collection::vec(0i64..3, 2..4),
        ) {
            let n = ext.len();
            let b = BoxSet::new(IVec::zeros(n), IVec(ext));
            let d = b.difference_box();
            for p in b.iter_points() {
                for q in b.iter_points() {
                    prop_assert!(d.contains(&(&p - &q)));
                }
            }
        }
    }
}
