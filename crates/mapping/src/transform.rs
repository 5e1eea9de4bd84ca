//! Linear algorithm transformations `τ(j̄) = T·j̄` (Definition 4.1).
//!
//! A mapping matrix `T = [S; Π] ∈ Z^{k×n}` sends the computation at index
//! point `j̄ ∈ J` to **processor** `S·j̄ ∈ Z^{k−1}` at **time** `Π·j̄ ∈ Z`.
//! This module holds the matrix type and its basic queries; the five
//! feasibility conditions live in [`crate::feasibility`].

use crate::error::MappingError;
use bitlevel_linalg::{IMat, IVec};
use std::fmt;

/// A space–time mapping `T = [S; Π]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MappingMatrix {
    /// Space mapping `S ∈ Z^{(k−1)×n}`: rows are processor coordinates.
    pub space: IMat,
    /// Linear schedule `Π ∈ Z^{1×n}` as a vector.
    pub schedule: IVec,
}

impl MappingMatrix {
    /// Creates `T = [S; Π]`.
    ///
    /// # Panics
    /// Panics if `S` and `Π` disagree on the algorithm dimension;
    /// [`MappingMatrix::try_new`] is the non-panicking variant.
    pub fn new(space: IMat, schedule: IVec) -> Self {
        Self::try_new(space, schedule).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`MappingMatrix::new`] with a typed error instead of a panic when `S`
    /// and `Π` disagree on the algorithm dimension.
    pub fn try_new(space: IMat, schedule: IVec) -> Result<Self, MappingError> {
        if space.cols() != schedule.dim() {
            return Err(MappingError::DimensionMismatch {
                what: "space/schedule",
                left: space.cols(),
                right: schedule.dim(),
            });
        }
        Ok(MappingMatrix { space, schedule })
    }

    /// Algorithm dimension `n` (columns of `T`).
    pub fn n(&self) -> usize {
        self.schedule.dim()
    }

    /// Target dimension `k` (rows of `T`): a `(k−1)`-dimensional array.
    pub fn k(&self) -> usize {
        self.space.rows() + 1
    }

    /// The full matrix `T` with `Π` as the last row.
    pub fn t_matrix(&self) -> IMat {
        self.space.vstack(&IMat::from_flat(
            1,
            self.n(),
            self.schedule.as_slice().to_vec(),
        ))
    }

    /// Execution time of the computation at `j̄`: `Π·j̄`.
    pub fn time(&self, j: &IVec) -> i64 {
        j.dot(&self.schedule)
    }

    /// Processor executing the computation at `j̄`: `S·j̄`.
    pub fn place(&self, j: &IVec) -> IVec {
        self.space.matvec(j)
    }

    /// The full image `τ(j̄) = T·j̄` (processor coordinates then time).
    pub fn apply(&self, j: &IVec) -> IVec {
        self.place(j).concat(&IVec::from([self.time(j)]))
    }

    /// `T·D` — the space–time displacement of every dependence column, the
    /// paper's eq. (4.4).
    pub fn td(&self, d: &IMat) -> IMat {
        self.t_matrix().matmul(d)
    }
}

impl fmt::Display for MappingMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "T = [S; Pi] =")?;
        write!(f, "{}", self.t_matrix())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's T of eq. (4.2) for word length p.
    fn paper_t(p: i64) -> MappingMatrix {
        MappingMatrix::new(
            IMat::from_rows(&[&[p, 0, 0, 1, 0], &[0, p, 0, 0, 1]]),
            IVec::from([1, 1, 1, 2, 1]),
        )
    }

    #[test]
    fn dimensions() {
        let t = paper_t(3);
        assert_eq!(t.n(), 5);
        assert_eq!(t.k(), 3); // 2-D processor array
        assert_eq!(t.t_matrix().rows(), 3);
        assert_eq!(t.t_matrix().row(2), &[1, 1, 1, 2, 1]);
    }

    #[test]
    fn time_and_place() {
        let t = paper_t(3);
        let q = IVec::from([2, 1, 3, 2, 1]);
        // Π·q = 2 + 1 + 3 + 4 + 1 = 11.
        assert_eq!(t.time(&q), 11);
        // S·q = (3·2 + 2, 3·1 + 1) = (8, 4).
        assert_eq!(t.place(&q), IVec::from([8, 4]));
        assert_eq!(t.apply(&q), IVec::from([8, 4, 11]));
    }

    #[test]
    fn td_matches_eq_4_4() {
        // D of (3.12) in the paper's column order y, x, z, d4, d5, d6, d7.
        let d = IMat::from_rows(&[
            &[1, 0, 0, 0, 0, 0, 0],
            &[0, 1, 0, 0, 0, 0, 0],
            &[0, 0, 1, 0, 0, 0, 0],
            &[0, 0, 0, 1, 0, 1, 0],
            &[0, 0, 0, 0, 1, -1, 2],
        ]);
        let p = 3;
        let td = paper_t(p).td(&d);
        let expected = IMat::from_rows(&[
            &[p, 0, 0, 1, 0, 1, 0],
            &[0, p, 0, 0, 1, -1, 2],
            &[1, 1, 1, 2, 1, 1, 2],
        ]);
        assert_eq!(td, expected);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_dims_panic() {
        let _ = MappingMatrix::new(IMat::identity(3), IVec::from([1, 1]));
    }

    #[test]
    fn try_new_reports_mismatch_as_typed_error() {
        assert_eq!(
            MappingMatrix::try_new(IMat::identity(3), IVec::from([1, 1])),
            Err(MappingError::DimensionMismatch {
                what: "space/schedule",
                left: 3,
                right: 2
            })
        );
        assert!(MappingMatrix::try_new(IMat::identity(3), IVec::from([1, 1, 1])).is_ok());
    }
}
