#![warn(missing_docs)]

//! # bitlevel-linalg
//!
//! Exact integer linear algebra for the bit-level dependence-analysis and
//! architecture-design toolkit.
//!
//! The mapping method of Shang & Wah (Definition 4.1) and the general
//! dependence-analysis baselines both reduce to small exact integer
//! computations:
//!
//! * integer **rank** (condition 4 of Definition 4.1) — [`rank`](mod@rank),
//! * **coprimality** of the entries of a mapping matrix (condition 5) —
//!   [`gcd`](mod@gcd),
//! * **injectivity** of `τ(j̄) = Tj̄` on the index set (condition 3), which
//!   needs an integer **nullspace** basis — [`nullspace`],
//! * expressing `SD = PK` as small **linear Diophantine systems** (condition 2)
//!   — [`diophantine`],
//! * detecting cross-iteration dependences of the expanded bit-level code,
//!   which is a linear Diophantine system intersected with the index set —
//!   [`diophantine`] again, driven from `bitlevel-depanal`.
//!
//! Everything is exact: entries are `i64`, elimination uses fraction-free
//! (Bareiss) pivoting with `i128` intermediates, and the Hermite/Smith normal
//! forms come with the unimodular transforms that witness them.
//!
//! This crate has no dependencies on the rest of the workspace and is usable
//! on its own.

pub mod diophantine;
pub mod gcd;
pub mod hnf;
pub mod mat;
pub mod nullspace;
pub mod rank;
pub mod smith;
pub mod vec;

pub use diophantine::{solve_system, DiophantineSolution};
pub use gcd::{extended_gcd, gcd, gcd_all, lcm};
pub use hnf::{column_hermite_form, HermiteForm};
pub use mat::IMat;
pub use nullspace::integer_nullspace;
pub use rank::rank;
pub use smith::{smith_normal_form, SmithForm};
pub use vec::IVec;

/// Errors produced by exact integer linear algebra routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Matrix/vector dimensions do not agree for the requested operation.
    DimensionMismatch {
        /// What was being attempted.
        context: &'static str,
        /// Dimensions seen, formatted by the caller.
        detail: String,
    },
    /// An intermediate value exceeded the `i64` range.
    Overflow(&'static str),
    /// The requested decomposition needs a non-empty matrix.
    Empty(&'static str),
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch { context, detail } => {
                write!(f, "dimension mismatch in {context}: {detail}")
            }
            LinalgError::Overflow(ctx) => write!(f, "integer overflow in {ctx}"),
            LinalgError::Empty(ctx) => write!(f, "empty matrix in {ctx}"),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = LinalgError::DimensionMismatch {
            context: "matmul",
            detail: "3x2 * 4x1".into(),
        };
        assert!(e.to_string().contains("matmul"));
        assert!(e.to_string().contains("3x2"));
        let e = LinalgError::Overflow("bareiss");
        assert!(e.to_string().contains("overflow"));
    }
}
