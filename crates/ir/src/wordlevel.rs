//! Word-level algorithms of the restricted model (3.5).
//!
//! ```text
//! DO (j1=l1,u1; …; jn=ln,un)
//!     x(j̄) = x(j̄ − h̄₁)
//!     y(j̄) = y(j̄ − h̄₂)
//!     z(j̄) = z(j̄ − h̄₃) + x(j̄)·y(j̄)
//! END
//! ```
//!
//! "This model can describe applications such as matrix multiplication,
//! convolution, matrix-vector multiplication, discrete cosine transform, and
//! discrete Fourier transform." This module provides the model as a type
//! ([`WordLevelAlgorithm`]) plus constructors for each of those applications.
//!
//! For matrix–vector products (and the matvec-shaped DCT/DFT instances) the
//! coefficient array is consumed exactly once per index point, so it induces
//! no cross-iteration dependence; the corresponding pipelining vector is
//! `None` and the composed bit-level structure simply omits that column.

use crate::affine::AffineFn;
use crate::dependence::{Dependence, DependenceSet};
use crate::index_set::BoxSet;
use crate::statement::{Access, LoopNest, OpKind, Statement};
use crate::triplet::AlgorithmTriplet;
use bitlevel_linalg::{IMat, IVec};

/// An instance of the word-level model (3.5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WordLevelAlgorithm {
    /// Human-readable name ("matrix multiplication", …).
    pub name: String,
    /// Iteration space `J_w`.
    pub bounds: BoxSet,
    /// Pipelining vector `h̄₁` of the `x` operand (`None` = no reuse).
    pub h1: Option<IVec>,
    /// Pipelining vector `h̄₂` of the `y` operand (`None` = no reuse).
    pub h2: Option<IVec>,
    /// Accumulation vector `h̄₃` of the result `z` (always present — the model
    /// is a multiply–accumulate recurrence).
    pub h3: IVec,
}

impl WordLevelAlgorithm {
    /// Generic constructor; checks dimensions.
    ///
    /// # Panics
    /// Panics if any vector's dimension differs from the bounds dimension.
    pub fn new(name: &str, bounds: BoxSet, h1: Option<IVec>, h2: Option<IVec>, h3: IVec) -> Self {
        let n = bounds.dim();
        for h in [h1.as_ref(), h2.as_ref(), Some(&h3)].into_iter().flatten() {
            assert_eq!(h.dim(), n, "pipelining vector dimension mismatch");
        }
        WordLevelAlgorithm {
            name: name.to_string(),
            bounds,
            h1,
            h2,
            h3,
        }
    }

    /// Matrix multiplication `Z = X·Y` of `u×u` matrices — program (2.3):
    /// `h̄₁ = [0,1,0]ᵀ` (x along j₂), `h̄₂ = [1,0,0]ᵀ` (y along j₁),
    /// `h̄₃ = [0,0,1]ᵀ` (z along j₃).
    pub fn matmul(u: i64) -> Self {
        assert!(u >= 1, "matrix size must be positive");
        WordLevelAlgorithm::new(
            "matrix multiplication",
            BoxSet::cube(3, 1, u),
            Some(IVec::from([0, 1, 0])),
            Some(IVec::from([1, 0, 0])),
            IVec::from([0, 0, 1]),
        )
    }

    /// 1-D convolution `z(j₁) = Σ_{j₂} x(j₁+j₂−1)·w(j₂)` with `taps` weights
    /// and `outputs` output samples: `x` travels along `[1,−1]ᵀ` (constant
    /// `j₁+j₂`), `w` is broadcast along `j₁` (pipelined with `[1,0]ᵀ`), and
    /// `z` accumulates along `j₂`.
    pub fn convolution(outputs: i64, taps: i64) -> Self {
        assert!(
            outputs >= 1 && taps >= 1,
            "convolution sizes must be positive"
        );
        WordLevelAlgorithm::new(
            "convolution",
            BoxSet::new(IVec::from([1, 1]), IVec::from([outputs, taps])),
            Some(IVec::from([1, -1])),
            Some(IVec::from([1, 0])),
            IVec::from([0, 1]),
        )
    }

    /// Matrix–vector multiplication `z(j₁) = Σ_{j₂} A(j₁,j₂)·x(j₂)` for an
    /// `m×k` matrix: `x(j₂)` pipelined along `j₁`; the matrix entry is used
    /// once (`h̄₂ = None`); `z` accumulates along `j₂`.
    pub fn matvec(m: i64, k: i64) -> Self {
        assert!(m >= 1 && k >= 1, "matvec sizes must be positive");
        WordLevelAlgorithm::new(
            "matrix-vector multiplication",
            BoxSet::new(IVec::from([1, 1]), IVec::from([m, k])),
            Some(IVec::from([1, 0])),
            None,
            IVec::from([0, 1]),
        )
    }

    /// Polynomial multiplication `c(x) = a(x)·b(x)` with `deg_a + 1`
    /// coefficients in `a` and `deg_b + 1` in `b` — structurally identical
    /// to [`Self::convolution`] (`c_k = Σ_j a_{k−j}·b_j`; feed one operand
    /// reversed through the operand functions to turn the correlation
    /// indexing into convolution indexing). Provided as its own constructor
    /// because it is the other classic systolic workload with this shape.
    pub fn polynomial_mul(deg_a: i64, deg_b: i64) -> Self {
        assert!(deg_a >= 0 && deg_b >= 0, "degrees must be nonnegative");
        let mut alg = Self::convolution(deg_a + deg_b + 1, deg_b + 1);
        alg.name = "polynomial multiplication".to_string();
        alg
    }

    /// `u`-point discrete Fourier transform in matvec shape:
    /// `X(j₁) = Σ_{j₂} F(j₁,j₂)·x(j₂)` with `F(j₁,j₂) = W^{(j₁−1)(j₂−1)}`
    /// streamed in (used once), input samples pipelined along `j₁`.
    pub fn dft(u: i64) -> Self {
        let mut alg = Self::matvec(u, u);
        alg.name = "discrete Fourier transform".to_string();
        alg
    }

    /// `u`-point discrete cosine transform in matvec shape (cosine coefficient
    /// matrix streamed in, samples pipelined).
    pub fn dct(u: i64) -> Self {
        let mut alg = Self::matvec(u, u);
        alg.name = "discrete cosine transform".to_string();
        alg
    }

    /// Algorithm dimension `n`.
    pub fn dim(&self) -> usize {
        self.bounds.dim()
    }

    /// The word-level dependence structure `(J_w, D_w)` of (3.6), with
    /// columns in the model's x, y, z order (absent operands skipped).
    pub fn dependences(&self) -> DependenceSet {
        let mut deps = Vec::new();
        if let Some(h1) = &self.h1 {
            deps.push(Dependence::uniform(h1.clone(), "x"));
        }
        if let Some(h2) = &self.h2 {
            deps.push(Dependence::uniform(h2.clone(), "y"));
        }
        deps.push(Dependence::uniform(self.h3.clone(), "z"));
        DependenceSet::new(deps)
    }

    /// The word-level dependence matrix `D_w = [h̄₁, h̄₂, h̄₃]` of (3.6).
    pub fn dependence_matrix(&self) -> IMat {
        self.dependences().matrix()
    }

    /// The algorithm triplet `(J_w, D_w, E_w)`.
    pub fn triplet(&self) -> AlgorithmTriplet {
        AlgorithmTriplet::new(
            self.bounds.clone(),
            self.dependences(),
            &format!("{}: z(j) = z(j-h3) + x(j)*y(j)", self.name),
        )
    }

    /// The loop nest of form (3.5), in single-assignment pipelined form.
    pub fn nest(&self) -> LoopNest {
        let n = self.dim();
        let mut statements = Vec::new();
        if let Some(h1) = &self.h1 {
            statements.push(Statement::pipeline("x", n, h1));
        }
        if let Some(h2) = &self.h2 {
            statements.push(Statement::pipeline("y", n, h2));
        }
        statements.push(Statement::new(
            Access::new("z", AffineFn::identity(n)),
            vec![
                Access::new("z", AffineFn::shift_back(&self.h3)),
                Access::new("x", AffineFn::identity(n)),
                Access::new("y", AffineFn::identity(n)),
            ],
            OpKind::MulAdd,
        ));
        LoopNest::new(self.bounds.clone(), statements)
    }

    /// True when both operands are pipelined — the full model (3.5) that
    /// Theorem 3.1 is stated for.
    pub fn is_full_model(&self) -> bool {
        self.h1.is_some() && self.h2.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_eq_2_4() {
        let m = WordLevelAlgorithm::matmul(4);
        assert_eq!(m.dim(), 3);
        assert!(m.is_full_model());
        // D_w columns in x, y, z order.
        let d = m.dependence_matrix();
        assert_eq!(d.col(0), IVec::from([0, 1, 0])); // x
        assert_eq!(d.col(1), IVec::from([1, 0, 0])); // y
        assert_eq!(d.col(2), IVec::from([0, 0, 1])); // z
        assert!(m.triplet().is_uniform());
        assert_eq!(m.bounds.cardinality(), 64);
    }

    #[test]
    fn convolution_structure() {
        let c = WordLevelAlgorithm::convolution(8, 3);
        assert_eq!(c.dim(), 2);
        assert!(c.is_full_model());
        // The x stream moves along the anti-diagonal: subscript j1+j2-1 is
        // constant along [1,-1].
        assert_eq!(c.h1.as_ref().unwrap(), &IVec::from([1, -1]));
        assert_eq!(c.bounds.cardinality(), 24);
        assert!(c.triplet().is_uniform());
    }

    #[test]
    fn matvec_has_no_y_dependence() {
        let m = WordLevelAlgorithm::matvec(4, 5);
        assert!(!m.is_full_model());
        assert_eq!(m.dependences().len(), 2); // x and z only
        let d = m.dependence_matrix();
        assert_eq!(d.cols(), 2);
    }

    #[test]
    fn polynomial_mul_is_convolution_shaped() {
        // (deg 2)·(deg 1): 4 output coefficients, 2-tap weight stream.
        let pm = WordLevelAlgorithm::polynomial_mul(2, 1);
        assert_eq!(pm.name, "polynomial multiplication");
        assert_eq!(pm.bounds.upper().as_slice(), &[4, 2]);
        let conv = WordLevelAlgorithm::convolution(4, 2);
        assert_eq!(pm.dependence_matrix(), conv.dependence_matrix());
        assert!(pm.triplet().is_uniform());
    }

    #[test]
    fn dft_dct_are_matvec_shaped() {
        let f = WordLevelAlgorithm::dft(8);
        assert_eq!(f.bounds.cardinality(), 64);
        assert_eq!(f.name, "discrete Fourier transform");
        let c = WordLevelAlgorithm::dct(8);
        assert_eq!(c.name, "discrete cosine transform");
        assert_eq!(f.dependences().matrix(), c.dependences().matrix());
    }

    #[test]
    fn nest_is_single_assignment_form_3_5() {
        let nest = WordLevelAlgorithm::matmul(2).nest();
        assert_eq!(nest.statements.len(), 3);
        assert_eq!(nest.statements[0].op, OpKind::Copy);
        assert_eq!(nest.statements[2].op, OpKind::MulAdd);
        assert_eq!(nest.arrays(), vec!["x".to_string(), "y".into(), "z".into()]);
    }

    #[test]
    fn nest_of_partial_model_skips_missing_pipeline() {
        let nest = WordLevelAlgorithm::matvec(3, 3).nest();
        // x pipeline + z muladd (no y pipeline statement).
        assert_eq!(nest.statements.len(), 2);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_check() {
        let _ = WordLevelAlgorithm::new(
            "bad",
            BoxSet::cube(2, 1, 3),
            Some(IVec::from([1, 0, 0])),
            None,
            IVec::from([0, 1]),
        );
    }
}
