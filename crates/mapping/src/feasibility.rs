//! The five feasibility conditions of Definition 4.1.
//!
//! A mapping `τ(j̄) = T·j̄`, `T = [S; Π]`, maps an `n`-dimensional algorithm
//! `(J, D, E)` onto a `(k−1)`-dimensional processor array iff:
//!
//! 1. `Π·D > 0̄` — dependences are respected in time;
//! 2. `S·D = P·K` with `Σⱼ kⱼᵢ ≤ Π·d̄ᵢ` (4.1) — every dependence is routable
//!    through the interconnection primitives within its time budget;
//! 3. `τ` is injective on `J` — no computational conflicts;
//! 4. `rank(T) = k` — the array really is `(k−1)`-dimensional;
//! 5. the entries of `T` are relatively prime — no globally idle cycles.

use crate::conflict::{check_conflicts, ConflictResult};
use crate::interconnect::{Interconnect, KSolution};
use crate::transform::MappingMatrix;
use bitlevel_ir::AlgorithmTriplet;
use bitlevel_linalg::{gcd_all, rank, IMat};

/// Why a mapping is infeasible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Condition 1: `Π·d̄ᵢ ≤ 0` for the named dependence column.
    NonPositiveSchedule {
        /// Offending column index.
        column: usize,
        /// The value `Π·d̄ᵢ`.
        value: i64,
    },
    /// Condition 2: column `i` of `S·D` cannot be routed within `Π·d̄ᵢ` hops.
    Unroutable {
        /// Offending column index.
        column: usize,
    },
    /// Condition 3: two index points share processor and time.
    Conflict {
        /// Rendered witness points.
        witness: String,
    },
    /// Condition 4: `rank(T) < k`.
    RankDeficient {
        /// Actual rank found.
        rank: usize,
        /// Required rank `k`.
        k: usize,
    },
    /// Condition 5: `gcd(entries of T) > 1`.
    NotCoprime {
        /// The common divisor.
        gcd: i64,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::NonPositiveSchedule { column, value } => {
                write!(f, "condition 1: Pi*d{} = {value} <= 0", column + 1)
            }
            Violation::Unroutable { column } => {
                write!(
                    f,
                    "condition 2: S*d{} not routable within its time budget",
                    column + 1
                )
            }
            Violation::Conflict { witness } => write!(f, "condition 3: conflict {witness}"),
            Violation::RankDeficient { rank, k } => {
                write!(f, "condition 4: rank(T) = {rank} < k = {k}")
            }
            Violation::NotCoprime { gcd } => write!(f, "condition 5: gcd(T) = {gcd} > 1"),
        }
    }
}

/// Full feasibility verdict for one mapping.
#[derive(Debug, Clone)]
pub struct FeasibilityReport {
    /// All violations found (empty = feasible).
    pub violations: Vec<Violation>,
    /// The routing solution when condition 2 holds.
    pub routing: Option<KSolution>,
    /// `T·D` (the paper's eq. (4.4) summary of timing and connections).
    pub td: IMat,
}

impl FeasibilityReport {
    /// True iff every condition holds.
    pub fn is_feasible(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Checks all five conditions of Definition 4.1 for mapping `t` applied to
/// algorithm `alg` on a machine with primitives `ic`.
///
/// # Examples
///
/// Theorem 4.5: the paper's `T` of eq. (4.2) is feasible on the machine of
/// eq. (4.3):
///
/// ```
/// use bitlevel_mapping::{check_feasibility, Interconnect, PaperDesign};
/// use bitlevel_ir::{AlgorithmTriplet, BoxSet, Dependence, DependenceSet, Predicate};
///
/// let p = 3;
/// let j = BoxSet::cube(3, 1, 3).product(&BoxSet::cube(2, 1, p));
/// let alg = AlgorithmTriplet::new(
///     j,
///     DependenceSet::new(vec![
///         Dependence::conditional([0, 1, 0, 0, 0], "x", Predicate::eq_const(3, 1)),
///         Dependence::conditional([1, 0, 0, 0, 0], "y", Predicate::eq_const(4, 1)),
///         Dependence::conditional([0, 0, 1, 0, 0], "z",
///             Predicate::eq_const(3, p).or(&Predicate::eq_const(4, 1))),
///         Dependence::conditional([0, 0, 0, 1, 0], "x", Predicate::ne_const(3, 1)),
///         Dependence::conditional([0, 0, 0, 0, 1], "y,c", Predicate::ne_const(4, 1)),
///         Dependence::uniform([0, 0, 0, 1, -1], "z"),
///         Dependence::conditional([0, 0, 0, 0, 2], "c'", Predicate::eq_const(3, p)),
///     ]),
///     "bit-level matmul (3.12)",
/// );
/// let report = check_feasibility(
///     &PaperDesign::TimeOptimal.mapping(p),
///     &alg,
///     &Interconnect::paper_p(p),
/// );
/// assert!(report.is_feasible());
/// ```
pub fn check_feasibility(
    t: &MappingMatrix,
    alg: &AlgorithmTriplet,
    ic: &Interconnect,
) -> FeasibilityReport {
    assert_eq!(t.n(), alg.dim(), "mapping/algorithm dimension mismatch");
    assert_eq!(ic.dim(), t.k() - 1, "interconnect/space dimension mismatch");
    let d = alg.dependence_matrix();
    let mut violations = Vec::new();

    // Condition 1: Π·D > 0.
    let mut budgets = Vec::with_capacity(d.cols());
    for i in 0..d.cols() {
        let v = d.col(i).dot(&t.schedule);
        budgets.push(v);
        if v <= 0 {
            violations.push(Violation::NonPositiveSchedule {
                column: i,
                value: v,
            });
        }
    }

    // Condition 2: SD = PK under (4.1). Only meaningful if condition 1 holds
    // for the column (budget > 0); we still try with the clamped budget.
    let sd = t.space.matmul(&d);
    let routing = match ic.solve_k(&sd, &budgets.iter().map(|&b| b.max(0)).collect::<Vec<_>>()) {
        Ok(sol) => Some(sol),
        Err(col) => {
            violations.push(Violation::Unroutable { column: col });
            None
        }
    };

    // Condition 3: no computational conflicts.
    if let ConflictResult::Conflict(a, b) = check_conflicts(t, &alg.index_set) {
        violations.push(Violation::Conflict {
            witness: format!("{a} and {b}"),
        });
    }

    // Condition 4: rank(T) = k.
    let tm = t.t_matrix();
    let r = rank(&tm);
    if r < t.k() {
        violations.push(Violation::RankDeficient { rank: r, k: t.k() });
    }

    // Condition 5: entries relatively prime.
    let entries: Vec<i64> = tm.entries().copied().collect();
    let g = gcd_all(&entries);
    if g > 1 {
        violations.push(Violation::NotCoprime { gcd: g });
    }

    FeasibilityReport {
        violations,
        routing,
        td: t.td(&d),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitlevel_depanal_testsupport::*;

    /// Minimal local construction of the bit-level matmul structure (3.12)
    /// without depending on `bitlevel-depanal` (which sits above this crate).
    mod bitlevel_depanal_testsupport {
        use bitlevel_ir::{AlgorithmTriplet, BoxSet, Dependence, DependenceSet, Predicate};
        use bitlevel_linalg::IVec;

        pub fn matmul_bitlevel(u: i64, p: i64) -> AlgorithmTriplet {
            let j = BoxSet::cube(3, 1, u).product(&BoxSet::cube(2, 1, p));
            AlgorithmTriplet::new(
                j,
                DependenceSet::new(vec![
                    Dependence::conditional([1, 0, 0, 0, 0], "y", Predicate::eq_const(4, 1)),
                    Dependence::conditional([0, 1, 0, 0, 0], "x", Predicate::eq_const(3, 1)),
                    Dependence::conditional(
                        [0, 0, 1, 0, 0],
                        "z",
                        Predicate::eq_const(3, p).or(&Predicate::eq_const(4, 1)),
                    ),
                    Dependence::conditional([0, 0, 0, 1, 0], "x", Predicate::ne_const(3, 1)),
                    Dependence::conditional([0, 0, 0, 0, 1], "y,c", Predicate::ne_const(4, 1)),
                    Dependence::uniform([0, 0, 0, 1, -1], "z"),
                    Dependence::conditional([0, 0, 0, 0, 2], "c'", Predicate::eq_const(3, p)),
                ]),
                "bit-level matmul, Expansion II",
            )
        }

        pub fn t_of_4_2(p: i64) -> crate::transform::MappingMatrix {
            crate::transform::MappingMatrix::new(
                bitlevel_linalg::IMat::from_rows(&[&[p, 0, 0, 1, 0], &[0, p, 0, 0, 1]]),
                IVec::from([1, 1, 1, 2, 1]),
            )
        }

        pub fn t_prime_of_4_6(p: i64) -> crate::transform::MappingMatrix {
            crate::transform::MappingMatrix::new(
                bitlevel_linalg::IMat::from_rows(&[&[p, 0, 0, 1, 0], &[0, p, 0, 0, 1]]),
                IVec::from([p, p, 1, 2, 1]),
            )
        }
    }

    #[test]
    fn paper_t_is_feasible_theorem_4_5() {
        let p = 3;
        let alg = matmul_bitlevel(3, p);
        let rep = check_feasibility(&t_of_4_2(p), &alg, &Interconnect::paper_p(p));
        assert!(rep.is_feasible(), "violations: {:?}", rep.violations);
        // Buffer on d̄₄'s link, per Fig. 4.
        let routing = rep.routing.expect("routed");
        // Column order here: y,x,z,d4,d5,d6,d7 (test-support order).
        assert_eq!(routing.buffers[3], 1);
    }

    #[test]
    fn paper_t_prime_is_feasible() {
        let p = 3;
        let alg = matmul_bitlevel(3, p);
        let rep = check_feasibility(&t_prime_of_4_6(p), &alg, &Interconnect::paper_p_prime());
        assert!(rep.is_feasible(), "violations: {:?}", rep.violations);
    }

    #[test]
    fn t_prime_with_long_wire_schedule_fails_condition_2() {
        // Π = [1,1,1,2,1] cannot route [p,0] through unit primitives in one
        // hop: the nearest-neighbour machine rejects the fast schedule.
        let p = 3;
        let alg = matmul_bitlevel(2, p);
        let rep = check_feasibility(&t_of_4_2(p), &alg, &Interconnect::paper_p_prime());
        assert!(!rep.is_feasible());
        assert!(rep
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Unroutable { .. })));
    }

    #[test]
    fn reversed_schedule_fails_condition_1() {
        let p = 2;
        let alg = matmul_bitlevel(2, p);
        let mut t = t_of_4_2(p);
        t.schedule = bitlevel_linalg::IVec::from([-1, 1, 1, 2, 1]);
        let rep = check_feasibility(&t, &alg, &Interconnect::paper_p(p));
        assert!(rep.violations.iter().any(|v| matches!(
            v,
            Violation::NonPositiveSchedule {
                column: 0,
                value: -1
            }
        )));
    }

    #[test]
    fn collapsed_space_fails_rank_and_conflicts() {
        let p = 2;
        let alg = matmul_bitlevel(2, p);
        // S with two identical rows: rank(T) = 2 < 3 and massive conflicts.
        let t = MappingMatrix::new(
            bitlevel_linalg::IMat::from_rows(&[&[p, 0, 0, 1, 0], &[p, 0, 0, 1, 0]]),
            bitlevel_linalg::IVec::from([1, 1, 1, 2, 1]),
        );
        let rep = check_feasibility(&t, &alg, &Interconnect::paper_p(p));
        assert!(rep
            .violations
            .iter()
            .any(|v| matches!(v, Violation::RankDeficient { .. })));
        assert!(rep
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Conflict { .. })));
    }

    #[test]
    fn scaled_mapping_fails_condition_5() {
        let p = 2;
        let alg = matmul_bitlevel(2, p);
        let t = MappingMatrix::new(
            bitlevel_linalg::IMat::from_rows(&[&[2 * p, 0, 0, 2, 0], &[0, 2 * p, 0, 0, 2]]),
            bitlevel_linalg::IVec::from([2, 2, 2, 4, 2]),
        );
        let rep = check_feasibility(&t, &alg, &Interconnect::paper_p(2 * p));
        assert!(rep
            .violations
            .iter()
            .any(|v| matches!(v, Violation::NotCoprime { gcd: 2 })));
    }

    #[test]
    fn td_matrix_reported() {
        let p = 3;
        let alg = matmul_bitlevel(3, p);
        let rep = check_feasibility(&t_of_4_2(p), &alg, &Interconnect::paper_p(p));
        // Last row of TD is Π·D = [1,1,1,2,1,1,2] (paper order here).
        assert_eq!(rep.td.row(2), &[1, 1, 1, 2, 1, 1, 2]);
    }
}
