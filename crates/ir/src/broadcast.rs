//! Broadcast elimination (Fortes & Moldovan \[2\]).
//!
//! In program (2.2), the datum `x(j₁, j₃)` is needed by all `u` index points
//! `[j₁, 1, j₃]ᵀ … [j₁, u, j₃]ᵀ`: a **broadcast**, which "is not preferred in
//! VLSI implementations because it incurs additional area on a chip and longer
//! clock cycles". The fix (program (2.3)) pipelines the datum along a
//! direction in which its subscript function is constant — a vector of the
//! integer nullspace of the access matrix. This module performs that
//! transformation mechanically: it detects broadcast reads, picks a primitive
//! pipelining direction, rewrites the nest into single-assignment pipelined
//! form, and reports the new uniform dependence each pipeline introduces.

use crate::affine::AffineFn;
use crate::dependence::Dependence;
use crate::statement::{Access, LoopNest, Statement};
use bitlevel_linalg::{gcd_all, integer_nullspace, IVec};

/// Outcome of broadcast elimination on one loop nest.
#[derive(Debug, Clone)]
pub struct BroadcastElimination {
    /// The rewritten, broadcast-free nest (reads of pipelined arrays become
    /// `array(j̄ − d̄)` propagation chains).
    pub nest: LoopNest,
    /// One uniform dependence per eliminated broadcast, labelled by array.
    pub new_dependences: Vec<Dependence>,
}

/// Detects whether an access function broadcasts: the same datum is read at
/// more than one index point, i.e. the access matrix has a nontrivial integer
/// nullspace.
pub fn is_broadcast_access(access: &AffineFn) -> bool {
    !integer_nullspace(&access.matrix).is_empty()
}

/// Picks the pipelining direction for a broadcast access: a primitive
/// (content gcd 1) nullspace vector, sign-normalised so its first nonzero
/// component is positive — e.g. `[0,1,0]ᵀ` for `x(j₁,j₃)` in the matmul nest,
/// matching program (2.3).
pub fn pipelining_direction(access: &AffineFn) -> Option<IVec> {
    let basis = integer_nullspace(&access.matrix);
    let v = basis.into_iter().next()?;
    Some(normalise_direction(v))
}

fn normalise_direction(v: IVec) -> IVec {
    let g = gcd_all(v.as_slice());
    let mut v = if g > 1 {
        IVec(v.iter().map(|&x| x / g).collect())
    } else {
        v
    };
    if let Some(first) = v.iter().find(|&&x| x != 0) {
        if *first < 0 {
            v = -&v;
        }
    }
    v
}

/// Eliminates all broadcast reads of *input* arrays (arrays never written in
/// the nest). Each broadcast array `x` gains a propagation statement
/// `x(j̄) = x(j̄ − d̄)` at the top of the body, and every read of `x` becomes
/// the identity access `x(j̄)`; the original subscript function defines how
/// boundary values are fed (the simulators handle that).
///
/// This is exactly the (2.2) → (2.3) and (3.1) → (3.3) rewrite of the paper.
pub fn eliminate_broadcasts(nest: &LoopNest) -> BroadcastElimination {
    let n = nest.dim();
    let written: Vec<String> = nest
        .statements
        .iter()
        .map(|s| s.target.array.clone())
        .collect();

    // Find input arrays with broadcast reads and their directions.
    let mut pipelined: Vec<(String, IVec)> = Vec::new();
    for s in &nest.statements {
        for a in &s.inputs {
            if written.contains(&a.array) {
                continue; // computed arrays are already single-assignment chains
            }
            if pipelined.iter().any(|(name, _)| *name == a.array) {
                continue;
            }
            if is_broadcast_access(&a.func) {
                let d = pipelining_direction(&a.func)
                    .expect("broadcast access must have a nullspace direction");
                pipelined.push((a.array.clone(), d));
            }
        }
    }

    // Rewrite: propagation statements first (paper's program order in (2.3)),
    // then the original statements with broadcast reads replaced by identity
    // accesses.
    let mut statements: Vec<Statement> = pipelined
        .iter()
        .map(|(name, d)| Statement::pipeline(name, n, d))
        .collect();
    for s in &nest.statements {
        let inputs = s
            .inputs
            .iter()
            .map(|a| {
                if pipelined.iter().any(|(name, _)| *name == a.array) {
                    Access::new(&a.array, AffineFn::identity(n))
                } else {
                    a.clone()
                }
            })
            .collect();
        statements.push(Statement {
            target: s.target.clone(),
            inputs,
            op: s.op.clone(),
            guard: s.guard.clone(),
        });
    }

    let new_dependences = pipelined
        .iter()
        .map(|(name, d)| Dependence::uniform(d.clone(), name))
        .collect();

    BroadcastElimination {
        nest: LoopNest::new(nest.bounds.clone(), statements),
        new_dependences,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index_set::BoxSet;
    use crate::statement::OpKind;
    use bitlevel_linalg::IMat;

    /// Program (2.2): matmul with broadcasts.
    fn matmul_with_broadcasts(u: i64) -> LoopNest {
        let n = 3;
        LoopNest::new(
            BoxSet::cube(n, 1, u),
            vec![Statement::new(
                Access::new("z", AffineFn::identity(n)),
                vec![
                    Access::new("z", AffineFn::shift_back(&IVec::from([0, 0, 1]))),
                    Access::new("x", AffineFn::select_axes(n, &[0, 2])), // x(j1, j3)
                    Access::new("y", AffineFn::select_axes(n, &[2, 1])), // y(j3, j2)
                ],
                OpKind::MulAdd,
            )],
        )
    }

    #[test]
    fn detects_broadcast_accesses() {
        // x(j1, j3): 2x3 access matrix, nullspace along j2 -> broadcast.
        assert!(is_broadcast_access(&AffineFn::select_axes(3, &[0, 2])));
        // x(j1, j2, j3): identity, no broadcast.
        assert!(!is_broadcast_access(&AffineFn::identity(3)));
    }

    #[test]
    fn matmul_directions_match_program_2_3() {
        // x(j1, j3) is pipelined along the j2 axis.
        assert_eq!(
            pipelining_direction(&AffineFn::select_axes(3, &[0, 2])).unwrap(),
            IVec::from([0, 1, 0])
        );
        // y(j3, j2) is pipelined along the j1 axis.
        assert_eq!(
            pipelining_direction(&AffineFn::select_axes(3, &[2, 1])).unwrap(),
            IVec::from([1, 0, 0])
        );
    }

    #[test]
    fn direction_is_primitive_and_sign_normalised() {
        // Access matrix [2, 2] over 2-D space: nullspace dir ±[1,-1] (not
        // [2,-2]); first nonzero positive.
        let f = AffineFn::new(IMat::from_rows(&[&[2, 2]]), IVec::zeros(1));
        let d = pipelining_direction(&f).unwrap();
        assert_eq!(d, IVec::from([1, -1]));
    }

    #[test]
    fn eliminate_matmul_broadcasts_reproduces_2_3() {
        let be = eliminate_broadcasts(&matmul_with_broadcasts(3));
        // Two new pipelines: x along [0,1,0], y along [1,0,0].
        assert_eq!(be.new_dependences.len(), 2);
        let dirs: Vec<&IVec> = be.new_dependences.iter().map(|d| &d.vector).collect();
        assert!(dirs.contains(&&IVec::from([0, 1, 0])));
        assert!(dirs.contains(&&IVec::from([1, 0, 0])));
        // Rewritten nest: 2 propagation statements + original muladd with
        // identity reads.
        assert_eq!(be.nest.statements.len(), 3);
        let muladd = &be.nest.statements[2];
        assert!(muladd
            .inputs
            .iter()
            .all(|a| { a.array == "z" || a.func.is_identity() }));
    }

    #[test]
    fn no_broadcasts_is_a_noop() {
        // Program (2.3) itself is already broadcast-free.
        let n = 3;
        let nest = LoopNest::new(
            BoxSet::cube(n, 1, 3),
            vec![
                Statement::pipeline("x", n, &IVec::from([0, 1, 0])),
                Statement::pipeline("y", n, &IVec::from([1, 0, 0])),
            ],
        );
        let be = eliminate_broadcasts(&nest);
        assert!(be.new_dependences.is_empty());
        assert_eq!(be.nest, nest);
    }

    #[test]
    fn addshift_broadcasts_match_eq_3_3() {
        // Program (3.1): a(i2) needed at all i1 -> pipelined along i1 = δ̄₁;
        // b(i1) needed at all i2 -> pipelined along i2 = δ̄₂.
        let n = 2;
        let nest = LoopNest::new(
            BoxSet::cube(n, 1, 3),
            vec![Statement::new(
                Access::new("c", AffineFn::identity(n)),
                vec![
                    Access::new("a", AffineFn::select_axes(n, &[1])), // a(i2)
                    Access::new("b", AffineFn::select_axes(n, &[0])), // b(i1)
                ],
                OpKind::CarryBit,
            )],
        );
        let be = eliminate_broadcasts(&nest);
        assert_eq!(be.new_dependences.len(), 2);
        assert_eq!(be.new_dependences[0].vector, IVec::from([1, 0])); // δ̄₁
        assert_eq!(be.new_dependences[0].cause, "a");
        assert_eq!(be.new_dependences[1].vector, IVec::from([0, 1])); // δ̄₂
        assert_eq!(be.new_dependences[1].cause, "b");
    }
}
