//! Bit-level algorithm expansion: generating the explicit expanded program.
//!
//! "A word-level algorithm of the application can first be expanded into a
//! bit-level algorithm \[8\]; this is followed by an analysis of the dependence
//! relations of the bit-level algorithm" (Section 1). This module performs
//! the first step mechanically: given a word-level algorithm of model (3.5),
//! the add-shift arithmetic algorithm of word length `p`, and an
//! [`Expansion`], it emits the explicit `n+2`-dimensional guarded loop nest
//! whose statements are the full-adder cells.
//!
//! The result feeds the **general** dependence analysers in [`crate::exact`]
//! — the expensive path the paper's Theorem 3.1 short-circuits. Having both
//! paths lets us *prove* (per instance) that the compositional structure
//! equals the ground truth, and lets the benchmarks measure how much slower
//! the general path is.
//!
//! Arrays of the expanded program (all single-assignment over the compound
//! index space `q̄ = [j̄ᵀ, i₁, i₂]ᵀ`):
//!
//! * `x`, `y` — operand bits, pipelined word-wise at the tile edge
//!   (`i₁ = 1` / `i₂ = 1`) and bit-wise inside the tile;
//! * `z` — partial-sum bits;
//! * `c` — carry bits (chained along `i₂`);
//! * `c'` — the second carry of wide (4–5 input) additions.

use crate::compose::Expansion;
use bitlevel_ir::{
    Access, AffineFn, BoxSet, LoopNest, OpKind, Predicate, Statement, WordLevelAlgorithm,
};
use bitlevel_linalg::{IMat, IVec};

/// Expands `word` with the add-shift multiplier of word length `p` under the
/// given expansion, producing the explicit bit-level loop nest.
pub fn expand(word: &WordLevelAlgorithm, p: usize, expansion: Expansion) -> LoopNest {
    assert!(p >= 1, "word length must be at least 1");
    let n = word.dim();
    let nn = n + 2; // compound dimension
    let i1 = n; // axis index of i₁
    let i2 = n + 1; // axis index of i₂
    let pi = p as i64;

    // Compound index set J = J_w × J_as.
    let bounds = word.bounds.product(&BoxSet::cube(2, 1, pi));

    // Lifted shift vectors.
    let lift_word = |h: &IVec| h.concat(&IVec::zeros(2));
    let d4 = IVec::zeros(n).concat(&IVec::from([1, 0])); // δ̄₁ lifted
    let d5 = IVec::zeros(n).concat(&IVec::from([0, 1])); // δ̄₂ lifted
    let d6 = IVec::zeros(n).concat(&IVec::from([1, -1])); // δ̄₃ lifted
    let d7 = IVec::zeros(n).concat(&IVec::from([0, 2])); // δ̄₄ lifted

    let mut statements = Vec::new();

    // ---- operand-bit pipelining -------------------------------------------
    // x bits enter each tile on the i₁ = 1 edge — from the previous
    // word-level iteration (d̄₁) when the operand is reused, or fresh from
    // outside the index set when it is not (matvec-style operands) — and
    // travel down the tile along i₁ (d̄₄). In both cases every point writes
    // its x bit (the paper's pipelining statements, cf. a(ī) = a(ī − δ̄₁) in
    // (3.3), are unconditional; an edge read whose source lies outside J is
    // an external input and induces no dependence).
    match &word.h1 {
        Some(h1) => {
            statements.push(Statement::guarded(
                Access::new("x", AffineFn::identity(nn)),
                vec![Access::new("x", AffineFn::shift_back(&lift_word(h1)))],
                OpKind::Copy,
                Predicate::eq_const(i1, 1),
            ));
            statements.push(Statement::guarded(
                Access::new("x", AffineFn::identity(nn)),
                vec![Access::new("x", AffineFn::shift_back(&d4))],
                OpKind::Copy,
                Predicate::ne_const(i1, 1),
            ));
        }
        None => statements.push(Statement::new(
            Access::new("x", AffineFn::identity(nn)),
            vec![Access::new("x", AffineFn::shift_back(&d4))],
            OpKind::Copy,
        )),
    }
    // y bits: edge i₂ = 1 (d̄₂), then along i₂ (part of d̄₅) — same scheme.
    match &word.h2 {
        Some(h2) => {
            statements.push(Statement::guarded(
                Access::new("y", AffineFn::identity(nn)),
                vec![Access::new("y", AffineFn::shift_back(&lift_word(h2)))],
                OpKind::Copy,
                Predicate::eq_const(i2, 1),
            ));
            statements.push(Statement::guarded(
                Access::new("y", AffineFn::identity(nn)),
                vec![Access::new("y", AffineFn::shift_back(&d5))],
                OpKind::Copy,
                Predicate::ne_const(i2, 1),
            ));
        }
        None => statements.push(Statement::new(
            Access::new("y", AffineFn::identity(nn)),
            vec![Access::new("y", AffineFn::shift_back(&d5))],
            OpKind::Copy,
        )),
    }

    // ---- the adder cell ---------------------------------------------------
    // Common operands: the partial product x∧y and the carry chain along i₂.
    let pp_inputs = || {
        vec![
            Access::new("x", AffineFn::identity(nn)),
            Access::new("y", AffineFn::identity(nn)),
            Access::new("c", AffineFn::shift_back(&d5)),
        ]
    };
    // Region-dependent z operands.
    let d3 = lift_word(&word.h3);
    match expansion {
        Expansion::I => {
            // Forwarded partial sum z(q̄ − d̄₃) everywhere; on the last
            // word-level hyperplane the tile also drains diagonally (d̄₆) and
            // chains the second carry (d̄₇).
            let interior = Predicate::ne_upper(n - 1);
            let last = Predicate::eq_upper(n - 1);
            let mut interior_inputs = pp_inputs();
            interior_inputs.push(Access::new("z", AffineFn::shift_back(&d3)));
            let mut last_inputs = interior_inputs.clone();
            last_inputs.push(Access::new("z", AffineFn::shift_back(&d6)));
            last_inputs.push(Access::new("c'", AffineFn::shift_back(&d7)));

            statements.push(Statement::guarded(
                Access::new("z", AffineFn::identity(nn)),
                interior_inputs.clone(),
                OpKind::SumBit,
                interior.clone(),
            ));
            statements.push(Statement::guarded(
                Access::new("c", AffineFn::identity(nn)),
                interior_inputs,
                OpKind::CarryBit,
                interior,
            ));
            statements.push(Statement::guarded(
                Access::new("z", AffineFn::identity(nn)),
                last_inputs.clone(),
                OpKind::WideAddOutput(0),
                last.clone(),
            ));
            statements.push(Statement::guarded(
                Access::new("c", AffineFn::identity(nn)),
                last_inputs.clone(),
                OpKind::WideAddOutput(1),
                last.clone(),
            ));
            statements.push(Statement::guarded(
                Access::new("c'", AffineFn::identity(nn)),
                last_inputs,
                OpKind::WideAddOutput(2),
                last,
            ));
        }
        Expansion::II => {
            // The tile always drains diagonally (d̄₆ uniform); completed bits
            // of z(j̄ − h̄₃) are injected on the boundary q̄₂ (i₁ = p or
            // i₂ = 1); the i₁ = p plane sums 4–5 bits and emits the second
            // carry (d̄₇ at i₁ = p).
            let boundary = Predicate::eq_const(i1, pi).or(&Predicate::eq_const(i2, 1));
            let interior = boundary.negate();
            let south = Predicate::eq_const(i1, pi);
            let east_only = Predicate::eq_const(i2, 1).and(&Predicate::ne_const(i1, pi));

            let mut interior_inputs = pp_inputs();
            interior_inputs.push(Access::new("z", AffineFn::shift_back(&d6)));
            // Eastern boundary (i₂ = 1, i₁ ≠ p): inject z(j̄−h̄₃) bit, still ≤ 3
            // meaningful inputs (the carry-in is zero at i₂ = 1).
            let mut east_inputs = pp_inputs();
            east_inputs.push(Access::new("z", AffineFn::shift_back(&d6)));
            east_inputs.push(Access::new("z", AffineFn::shift_back(&d3)));
            // Southern plane (i₁ = p): inject + drain + chained second carry.
            let mut south_inputs = pp_inputs();
            south_inputs.push(Access::new("z", AffineFn::shift_back(&d6)));
            south_inputs.push(Access::new("z", AffineFn::shift_back(&d3)));
            south_inputs.push(Access::new("c'", AffineFn::shift_back(&d7)));

            statements.push(Statement::guarded(
                Access::new("z", AffineFn::identity(nn)),
                interior_inputs.clone(),
                OpKind::SumBit,
                interior.clone(),
            ));
            statements.push(Statement::guarded(
                Access::new("c", AffineFn::identity(nn)),
                interior_inputs,
                OpKind::CarryBit,
                interior,
            ));
            statements.push(Statement::guarded(
                Access::new("z", AffineFn::identity(nn)),
                east_inputs.clone(),
                OpKind::WideAddOutput(0),
                east_only.clone(),
            ));
            statements.push(Statement::guarded(
                Access::new("c", AffineFn::identity(nn)),
                east_inputs,
                OpKind::WideAddOutput(1),
                east_only,
            ));
            statements.push(Statement::guarded(
                Access::new("z", AffineFn::identity(nn)),
                south_inputs.clone(),
                OpKind::WideAddOutput(0),
                south.clone(),
            ));
            statements.push(Statement::guarded(
                Access::new("c", AffineFn::identity(nn)),
                south_inputs.clone(),
                OpKind::WideAddOutput(1),
                south.clone(),
            ));
            statements.push(Statement::guarded(
                Access::new("c'", AffineFn::identity(nn)),
                south_inputs,
                OpKind::WideAddOutput(2),
                south,
            ));
        }
    }

    LoopNest::new(bounds, statements)
}

/// The expansion blow-up factor: the expanded program has `p²` times the
/// index points of the word-level one — the quantity that makes general
/// dependence analysis on the expanded form expensive.
pub fn expansion_factor(p: usize) -> u128 {
    (p as u128) * (p as u128)
}

/// Convenience: the compound index set without building the full nest.
pub fn expanded_index_set(word: &WordLevelAlgorithm, p: usize) -> BoxSet {
    word.bounds.product(&BoxSet::cube(2, 1, p as i64))
}

/// Builds the access-pair dependence *candidates* of the expanded nest as
/// (write-access, read-access, statement guards) matrices suitable for the
/// Diophantine baseline: returns, for each (writer statement, reader
/// statement, read access) triple over the same array, the system
/// `[A_w | −A_r]·[j̄_wᵀ, j̄_rᵀ]ᵀ = b̄_r − b̄_w`.
pub fn dependence_candidates(nest: &LoopNest) -> Vec<DependenceCandidate> {
    let mut out = Vec::new();
    for (wi, w) in nest.statements.iter().enumerate() {
        for (ri, r) in nest.statements.iter().enumerate() {
            for (ai, acc) in r.inputs.iter().enumerate() {
                if acc.array != w.target.array {
                    continue;
                }
                // A_w j_w + b_w = A_r j_r + b_r  ⇔  [A_w | −A_r] v = b_r − b_w.
                let aw = &w.target.func;
                let ar = &acc.func;
                let neg_ar = ar.matrix.map(|x| -x);
                let system = aw.matrix.hstack(&neg_ar);
                let rhs = &acc.func.offset - &w.target.func.offset;
                out.push(DependenceCandidate {
                    writer: wi,
                    reader: ri,
                    read_access: ai,
                    system,
                    rhs,
                });
            }
        }
    }
    out
}

/// One (writer, reader, access) pair with its dependence equation system.
#[derive(Debug, Clone)]
pub struct DependenceCandidate {
    /// Index of the writing statement in the nest.
    pub writer: usize,
    /// Index of the reading statement in the nest.
    pub reader: usize,
    /// Index of the read access within the reading statement's inputs.
    pub read_access: usize,
    /// The stacked system `[A_w | −A_r]` over `(j̄_w, j̄_r)`.
    pub system: IMat,
    /// Right-hand side `b̄_r − b̄_w`.
    pub rhs: IVec,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expanded_matmul_has_compound_dimension() {
        let nest = expand(&WordLevelAlgorithm::matmul(2), 3, Expansion::II);
        assert_eq!(nest.dim(), 5);
        assert_eq!(nest.bounds.cardinality(), 8 * 9);
        let arrays = nest.arrays();
        assert!(arrays.contains(&"x".to_string()));
        assert!(arrays.contains(&"c'".to_string()));
    }

    #[test]
    fn expansion_i_statement_regions_partition_the_set() {
        // Every point must execute exactly one z-writing statement.
        let nest = expand(&WordLevelAlgorithm::matmul(2), 2, Expansion::I);
        let set = &nest.bounds;
        for q in set.iter_points() {
            let z_writers = nest
                .statements
                .iter()
                .filter(|s| s.target.array == "z" && s.guard.eval(&q, set))
                .count();
            assert_eq!(z_writers, 1, "point {q}");
        }
    }

    #[test]
    fn expansion_ii_statement_regions_partition_the_set() {
        let nest = expand(&WordLevelAlgorithm::matmul(2), 3, Expansion::II);
        let set = &nest.bounds;
        for q in set.iter_points() {
            let z_writers = nest
                .statements
                .iter()
                .filter(|s| s.target.array == "z" && s.guard.eval(&q, set))
                .count();
            assert_eq!(z_writers, 1, "point {q}");
            let c_writers = nest
                .statements
                .iter()
                .filter(|s| s.target.array == "c" && s.guard.eval(&q, set))
                .count();
            assert_eq!(c_writers, 1, "point {q}");
        }
    }

    #[test]
    fn wide_adders_only_on_expected_regions() {
        let nest = expand(&WordLevelAlgorithm::matmul(2), 3, Expansion::II);
        let set = &nest.bounds;
        // Statements with a d̄₃ read (the z(j̄−h̄₃) injection) must be guarded
        // to the boundary q̄₂.
        for s in &nest.statements {
            let has_d3_read = s
                .inputs
                .iter()
                .any(|a| a.array == "z" && a.func.offset.as_slice() == [0, 0, -1, 0, 0]);
            if has_d3_read {
                for q in set.iter_points() {
                    if s.guard.eval(&q, set) {
                        assert!(q[3] == 3 || q[4] == 1, "injection outside q̄2 at {q}");
                    }
                }
            }
        }
    }

    #[test]
    fn candidates_cover_all_same_array_pairs() {
        let nest = expand(&WordLevelAlgorithm::matmul(2), 2, Expansion::I);
        let cands = dependence_candidates(&nest);
        // Every candidate's system has 2·dim unknown columns.
        for c in &cands {
            assert_eq!(c.system.cols(), 2 * nest.dim());
            assert_eq!(c.system.rows(), c.rhs.dim());
        }
        // There is at least one x–x, y–y, z–z and c–c pair.
        let arrays = |i: usize| nest.statements[i].target.array.clone();
        for name in ["x", "y", "z", "c"] {
            assert!(
                cands.iter().any(|c| arrays(c.writer) == name),
                "no candidate writes {name}"
            );
        }
    }

    #[test]
    fn expansion_factor_is_p_squared() {
        assert_eq!(expansion_factor(4), 16);
        let word = WordLevelAlgorithm::matmul(3);
        assert_eq!(
            expanded_index_set(&word, 4).cardinality(),
            word.bounds.cardinality() * expansion_factor(4)
        );
    }
}
