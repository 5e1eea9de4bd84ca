//! Classical approximate dependence *tests*: GCD and Banerjee \[1\].
//!
//! "The dependence structure of the matrix multiplication algorithm in (2.3)
//! can also be obtained by using Banerjee's technique \[1\]" (Section 2). These
//! tests decide — conservatively — whether a dependence *may* exist between a
//! write `A_w·j̄_w + b̄_w` and a read `A_r·j̄_r + b̄_r` over the iteration box.
//! Both are sound (never report "independent" when a dependence exists) but
//! not exact; the property tests check soundness against
//! [`crate::exact::enumerate_dependences`].

use bitlevel_ir::{AffineFn, BoxSet};
use bitlevel_linalg::gcd_all;

/// Verdict of an approximate dependence test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestVerdict {
    /// A dependence may exist (the test could not disprove it).
    MayDepend,
    /// No dependence can exist.
    Independent,
}

/// The GCD test on one access pair: for each subscript dimension `r`, the
/// dependence equation `Σ a_i·j_i − Σ a'_i·j'_i = b'_r − b_r` has integer
/// solutions only if `gcd(coefficients)` divides the constant.
pub fn gcd_test(write: &AffineFn, read: &AffineFn) -> TestVerdict {
    assert_eq!(
        write.output_dim(),
        read.output_dim(),
        "subscript arity mismatch"
    );
    for r in 0..write.output_dim() {
        let mut coeffs: Vec<i64> = write.matrix.row(r).to_vec();
        coeffs.extend(read.matrix.row(r).iter().map(|&x| -x));
        let g = gcd_all(&coeffs);
        let c = read.offset[r] - write.offset[r];
        let solvable = if g == 0 { c == 0 } else { c % g == 0 };
        if !solvable {
            return TestVerdict::Independent;
        }
    }
    TestVerdict::MayDepend
}

/// Banerjee's bounds test: for each subscript dimension, the linear form
/// `Σ a_i·j_i − Σ a'_i·j'_i` ranges (over the real relaxation of the box)
/// between easily computed extremes; a dependence requires the constant to
/// lie inside that interval.
pub fn banerjee_test(write: &AffineFn, read: &AffineFn, bounds: &BoxSet) -> TestVerdict {
    assert_eq!(
        write.output_dim(),
        read.output_dim(),
        "subscript arity mismatch"
    );
    let n = bounds.dim();
    assert_eq!(write.input_dim(), n, "access dimension mismatch");
    for r in 0..write.output_dim() {
        let c = read.offset[r] - write.offset[r];
        let mut min = 0i64;
        let mut max = 0i64;
        // Writer variables contribute +a_i·j_i, reader variables −a'_i·j'_i;
        // both range over the same box.
        for i in 0..n {
            let (lo, hi) = (bounds.lower()[i], bounds.upper()[i]);
            let a = write.matrix[(r, i)];
            if a >= 0 {
                min += a * lo;
                max += a * hi;
            } else {
                min += a * hi;
                max += a * lo;
            }
            let ap = -read.matrix[(r, i)];
            if ap >= 0 {
                min += ap * lo;
                max += ap * hi;
            } else {
                min += ap * hi;
                max += ap * lo;
            }
        }
        if c < min || c > max {
            return TestVerdict::Independent;
        }
    }
    TestVerdict::MayDepend
}

/// Combined classical screen: independent if *either* test disproves the
/// dependence — the usual compiler pipeline (GCD first, Banerjee second).
pub fn classical_screen(write: &AffineFn, read: &AffineFn, bounds: &BoxSet) -> TestVerdict {
    if gcd_test(write, read) == TestVerdict::Independent {
        return TestVerdict::Independent;
    }
    banerjee_test(write, read, bounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::enumerate_dependences;
    use bitlevel_ir::{Access, LoopNest, OpKind, Statement};
    use bitlevel_linalg::{IMat, IVec};

    #[test]
    fn gcd_test_disproves_parity_conflicts() {
        // write x(2j), read x(2j+1): gcd(2,2) = 2 does not divide 1.
        let w = AffineFn::new(IMat::from_rows(&[&[2]]), IVec::from([0]));
        let r = AffineFn::new(IMat::from_rows(&[&[2]]), IVec::from([1]));
        assert_eq!(gcd_test(&w, &r), TestVerdict::Independent);
        // write x(2j), read x(2j+4): may depend.
        let r2 = AffineFn::new(IMat::from_rows(&[&[2]]), IVec::from([4]));
        assert_eq!(gcd_test(&w, &r2), TestVerdict::MayDepend);
    }

    #[test]
    fn banerjee_disproves_out_of_range_offsets() {
        // write x(j), read x(j+100) over j ∈ [1,10]: distance 100 can never
        // be bridged (LHS j_w − j_r ∈ [-9, 9]).
        let w = AffineFn::identity(1);
        let r = AffineFn::new(IMat::identity(1), IVec::from([100]));
        let b = BoxSet::cube(1, 1, 10);
        assert_eq!(banerjee_test(&w, &r, &b), TestVerdict::Independent);
        assert_eq!(gcd_test(&w, &r), TestVerdict::MayDepend); // GCD can't see it
        let r2 = AffineFn::new(IMat::identity(1), IVec::from([5]));
        assert_eq!(banerjee_test(&w, &r2, &b), TestVerdict::MayDepend);
    }

    #[test]
    fn matmul_accesses_may_depend() {
        // The paper's observation: Banerjee's technique finds the (2.3)
        // dependences. All three pipelined accesses must pass the screen.
        let b = BoxSet::cube(3, 1, 4);
        let id = AffineFn::identity(3);
        for d in [[0, 1, 0], [1, 0, 0], [0, 0, 1]] {
            let read = AffineFn::shift_back(&IVec::from(d));
            assert_eq!(classical_screen(&id, &read, &b), TestVerdict::MayDepend);
        }
    }

    /// Soundness: on every read access `t(M·j̄ + b̄)` with the entries of
    /// `M` in `-2..=2` and those of `b̄` in `-3..=3` (5⁴·7² of them),
    /// whenever the exact analysis finds an instance for the access pair,
    /// neither test claims independence.
    #[test]
    fn tests_are_sound_on_every_small_read_access() {
        let bounds = BoxSet::cube(2, 1, 4);
        // Writer uses the identity subscript (injective, so the nest is
        // single-assignment by construction).
        let write = AffineFn::identity(2);
        for k in 0..5i64.pow(4) * 7i64.pow(2) {
            let rm = (0..4).map(|i| k / 5i64.pow(i) % 5 - 2).collect();
            let rb = (0..2).map(|i| k / 625 / 7i64.pow(i) % 7 - 3).collect();
            let read = AffineFn::new(IMat::from_flat(2, 2, rm), IVec(rb));
            let nest = LoopNest::new(
                bounds.clone(),
                vec![
                    Statement::new(
                        Access::new("t", write.clone()),
                        vec![],
                        OpKind::Other("w".into()),
                    ),
                    Statement::new(
                        Access::new("u", AffineFn::identity(2)),
                        vec![Access::new("t", read.clone())],
                        OpKind::Copy,
                    ),
                ],
            );
            if !enumerate_dependences(&nest).is_empty() {
                assert_eq!(gcd_test(&write, &read), TestVerdict::MayDepend, "{read:?}");
                assert_eq!(
                    banerjee_test(&write, &read, &bounds),
                    TestVerdict::MayDepend,
                    "{read:?}"
                );
            }
        }
    }
}
