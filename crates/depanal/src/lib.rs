#![warn(missing_docs)]

//! # bitlevel-depanal
//!
//! Dependence analysis for bit-level algorithms — the paper's primary
//! contribution plus the general baselines it is measured against:
//!
//! * [`compose`](mod@compose) — **Theorem 3.1**: the bit-level dependence structure as a
//!   closed-form function of the word-level structure, the add-shift
//!   arithmetic structure, and the algorithm expansion ([`Expansion::I`] /
//!   [`Expansion::II`]). `O(n)` time, never touches the compound index set.
//! * [`expand`](mod@expand) — mechanical algorithm expansion: the explicit
//!   `n+2`-dimensional guarded bit-level loop nest (à la RAB \[8\]).
//! * [`exact`] — the "time consuming general dependence analysis methods":
//!   exhaustive enumeration (ground truth) and the classical
//!   Diophantine-solve-plus-verification route over the expanded code.
//! * [`tests_classic`] — the GCD and Banerjee screening tests \[1\].
//! * [`compare`] — cross-validation and timing of all routes (experiment E3).

pub mod compare;
pub mod compose;
pub mod direction;
pub mod exact;
pub mod expand;
pub mod tests_classic;

pub use compare::{compare_analyses, structures_agree, ComparisonReport};
pub use compose::{compose, Expansion};
pub use direction::{
    banerjee_directed, realized_directions, signs_of, surviving_directions, Dir, DirectedVerdict,
};
pub use exact::{
    diophantine_dependences, enumerate_dependences, instances_of_triplet, DependenceInstances,
};
pub use expand::{dependence_candidates, expand, expanded_index_set, expansion_factor};
pub use tests_classic::{banerjee_test, classical_screen, gcd_test, TestVerdict};
