//! Affine index functions.
//!
//! Array subscripts in the paper's algorithm model (2.1) are linear functions
//! of the index vector: an access `x(g(j̄))` with `g(j̄) = A·j̄ + b̄`. Affine
//! functions are what the general dependence tests reason about (two accesses
//! touch the same datum iff `A₁·j̄₁ + b̄₁ = A₂·j̄₂ + b̄₂` has integer solutions
//! inside the index set).

use bitlevel_linalg::{IMat, IVec};
use std::fmt;

/// An affine map `g(j̄) = A·j̄ + b̄` from an `n`-dimensional index space to an
/// `m`-dimensional subscript space.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AffineFn {
    /// Linear part `A` (m×n).
    pub matrix: IMat,
    /// Constant part `b̄` (m).
    pub offset: IVec,
}

impl AffineFn {
    /// Creates `g(j̄) = A·j̄ + b̄`.
    ///
    /// # Panics
    /// Panics if `offset.dim() != matrix.rows()`.
    pub fn new(matrix: IMat, offset: IVec) -> Self {
        assert_eq!(
            matrix.rows(),
            offset.dim(),
            "affine offset dimension mismatch"
        );
        AffineFn { matrix, offset }
    }

    /// The identity map on `Zⁿ` — the access `x(j̄)` itself.
    pub fn identity(n: usize) -> Self {
        AffineFn::new(IMat::identity(n), IVec::zeros(n))
    }

    /// The translation `g(j̄) = j̄ − d̄` (the pipelined access `x(j̄ − d̄)`).
    pub fn shift_back(d: &IVec) -> Self {
        AffineFn::new(IMat::identity(d.dim()), -d)
    }

    /// A pure axis-selection map: `g(j̄) = [j_{axes[0]}, …]ᵀ` — e.g. the
    /// access `x(j₁, j₃)` of program (2.2) selects axes 0 and 2.
    pub fn select_axes(n: usize, axes: &[usize]) -> Self {
        let mut m = IMat::zeros(axes.len(), n);
        for (r, &a) in axes.iter().enumerate() {
            assert!(a < n, "selected axis {a} out of dimension {n}");
            m[(r, a)] = 1;
        }
        AffineFn::new(m, IVec::zeros(axes.len()))
    }

    /// Applies the map to a point.
    pub fn apply(&self, j: &IVec) -> IVec {
        &self.matrix.matvec(j) + &self.offset
    }

    /// Input dimension `n`.
    pub fn input_dim(&self) -> usize {
        self.matrix.cols()
    }

    /// Output dimension `m`.
    pub fn output_dim(&self) -> usize {
        self.matrix.rows()
    }

    /// True if this is the identity map.
    pub fn is_identity(&self) -> bool {
        self.offset.is_zero()
            && self.matrix.rows() == self.matrix.cols()
            && self.matrix == IMat::identity(self.matrix.rows())
    }

    /// Composition `self ∘ inner` : `j̄ ↦ A_self (A_inner j̄ + b_inner) + b_self`.
    pub fn compose(&self, inner: &AffineFn) -> AffineFn {
        AffineFn::new(
            self.matrix.matmul(&inner.matrix),
            &self.matrix.matvec(&inner.offset) + &self.offset,
        )
    }

    /// Embeds this map into a larger index space: the input gains `before`
    /// leading and `after` trailing axes that are ignored; the output is
    /// unchanged. Used when word-level accesses are re-read inside the
    /// compound bit-level index space of Theorem 3.1.
    pub fn embed_input(&self, before: usize, after: usize) -> AffineFn {
        let m = self.matrix.rows();
        let left = IMat::zeros(m, before);
        let right = IMat::zeros(m, after);
        AffineFn::new(
            left.hstack(&self.matrix).hstack(&right),
            self.offset.clone(),
        )
    }
}

impl fmt::Display for AffineFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render each output row as a linear expression of j1..jn.
        for r in 0..self.output_dim() {
            if r > 0 {
                write!(f, ", ")?;
            }
            let mut first = true;
            for c in 0..self.input_dim() {
                let k = self.matrix[(r, c)];
                if k == 0 {
                    continue;
                }
                if first {
                    if k == 1 {
                        write!(f, "j{}", c + 1)?;
                    } else if k == -1 {
                        write!(f, "-j{}", c + 1)?;
                    } else {
                        write!(f, "{}j{}", k, c + 1)?;
                    }
                    first = false;
                } else if k > 0 {
                    if k == 1 {
                        write!(f, "+j{}", c + 1)?;
                    } else {
                        write!(f, "+{}j{}", k, c + 1)?;
                    }
                } else if k == -1 {
                    write!(f, "-j{}", c + 1)?;
                } else {
                    write!(f, "{}j{}", k, c + 1)?;
                }
            }
            let b = self.offset[r];
            if first {
                write!(f, "{b}")?;
            } else if b > 0 {
                write!(f, "+{b}")?;
            } else if b < 0 {
                write!(f, "{b}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_shift() {
        let id = AffineFn::identity(3);
        let j = IVec::from([1, 2, 3]);
        assert_eq!(id.apply(&j), j);
        assert!(id.is_identity());
        // x(j̄ − [0,1,0]ᵀ) of program (2.3).
        let sh = AffineFn::shift_back(&IVec::from([0, 1, 0]));
        assert_eq!(sh.apply(&j), IVec::from([1, 1, 3]));
        assert!(!sh.is_identity());
    }

    #[test]
    fn select_axes_matches_program_2_2_accesses() {
        // x(j1, j3) in the 3-D matmul nest.
        let acc = AffineFn::select_axes(3, &[0, 2]);
        assert_eq!(acc.apply(&IVec::from([5, 7, 9])), IVec::from([5, 9]));
        // y(j3, j2).
        let acc = AffineFn::select_axes(3, &[2, 1]);
        assert_eq!(acc.apply(&IVec::from([5, 7, 9])), IVec::from([9, 7]));
    }

    #[test]
    fn composition() {
        let f = AffineFn::shift_back(&IVec::from([1, 0]));
        let g = AffineFn::shift_back(&IVec::from([0, 2]));
        let fg = f.compose(&g);
        assert_eq!(fg.apply(&IVec::from([5, 5])), IVec::from([4, 3]));
    }

    #[test]
    fn embed_input_ignores_new_axes() {
        // z(j1, j2, j3-1) read inside the 5-D bit-level space: axes (i1, i2)
        // appended after j̄.
        let acc = AffineFn::shift_back(&IVec::from([0, 0, 1]));
        let embedded = acc.embed_input(0, 2);
        assert_eq!(embedded.input_dim(), 5);
        assert_eq!(
            embedded.apply(&IVec::from([2, 3, 4, 9, 9])),
            IVec::from([2, 3, 3])
        );
    }

    #[test]
    fn display_renders_linear_expressions() {
        let f = AffineFn::new(
            IMat::from_rows(&[&[1, 0, -1], &[0, 2, 0]]),
            IVec::from([-1, 3]),
        );
        let s = f.to_string();
        assert!(s.contains("j1-j3-1"), "{s}");
        assert!(s.contains("2j2+3"), "{s}");
    }

    #[test]
    #[should_panic(expected = "selected axis")]
    fn select_axes_out_of_range_panics() {
        let _ = AffineFn::select_axes(2, &[2]);
    }
}
