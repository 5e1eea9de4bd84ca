//! Compositional bit-level dependence analysis — **Theorem 3.1**.
//!
//! The paper's central contribution: the dependence structure of an expanded
//! bit-level algorithm is a *function* of
//!
//! 1. the word-level dependence structure `(J_w, D_w)` of model (3.5),
//! 2. the dependence structure `(J_as, D_as)` of the arithmetic algorithm
//!    implementing the word-wise multiply–accumulate (add-shift, eq. (3.4)),
//! 3. the algorithm expansion (Expansion I or II, Fig. 2/3),
//!
//! and can be written down **directly** — no Diophantine solving, no search
//! over the (much larger) bit-level index set. The compound index set is
//! `J = J_w × J_as` (3.11a) and the dependence matrices are (3.11b)/(3.11c):
//!
//! ```text
//!        x      y      z      x       y,c     z       c'
//! D  = [ h̄₁     h̄₂     h̄₃     0̄       0̄       0̄       0̄  ]
//!      [ 0̄      0̄      0̄      δ̄₁      δ̄₂      δ̄₃     [0,2]ᵀ ]
//! I:    i₁=1   i₂=1   q̄      i₁≠1    i₂≠1    jₙ=uₙ   q̄₁
//! II:   i₁=1   i₂=1   q̄₂     i₁≠1    i₂≠1    q̄       i₁=p
//! ```
//!
//! with `q̄₁ : (i₁≠1 or i₂∉{1,2}) and jₙ=uₙ` and `q̄₂ : i₁=p or i₂=1`.
//!
//! ### Naming note
//! The paper's figure captions for Expansions I/II are internally
//! inconsistent (see DESIGN.md); we follow the dependence matrices: in
//! **Expansion I** the partial sums of `z(j̄−h̄₃)` are forwarded point-to-point
//! (`d̄₃` uniform, tile drain `d̄₆` only on the last hyperplane), in
//! **Expansion II** the completed value of `z(j̄−h̄₃)` is injected at the tile
//! boundary (`d̄₃` valid at `q̄₂`, `d̄₆` uniform). Example 3.1 / eq. (3.12)
//! uses Expansion II.

use bitlevel_arith::AddShift;
use bitlevel_ir::{AlgorithmTriplet, Dependence, DependenceSet, Predicate, WordLevelAlgorithm};
use bitlevel_linalg::IVec;

/// The two algorithm expansions of Section 3.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Expansion {
    /// Partial-sum forwarding: the `p²` partial-sum bits of `z(j̄−h̄₃)` are
    /// sent point-to-point to iteration `j̄` (`d̄₃` uniform); the add-shift
    /// drain `d̄₆` runs only at `jₙ = uₙ`. Faster and more computationally
    /// uniform.
    I,
    /// Boundary injection: the completed `2p−1` bits of `z(j̄−h̄₃)` are added
    /// at the boundary points `i₁ = p` or `i₂ = 1` (`d̄₃` valid at `q̄₂`);
    /// the drain `d̄₆` is uniform. Used by Example 3.1 and both Section 4
    /// architectures.
    II,
}

impl std::fmt::Display for Expansion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expansion::I => write!(f, "Expansion I"),
            Expansion::II => write!(f, "Expansion II"),
        }
    }
}

/// Derives the bit-level dependence structure of `word` expanded with the
/// add-shift multiplier of word length `p`, per Theorem 3.1.
///
/// The result has `n + 2` axes (`j₁…jₙ, i₁, i₂`) and up to seven dependence
/// columns `d̄₁…d̄₇` in the paper's order; the `d̄₁`/`d̄₂` columns are omitted
/// when the word-level operand has no reuse (`h̄₁`/`h̄₂` absent, e.g.
/// matrix–vector products).
///
/// This runs in `O(n)` time and never touches the compound index set — that
/// is the paper's point. Compare with
/// [`crate::exact`] which walks all `|J_w|·p²` points.
///
/// # Examples
///
/// The paper's Example 3.1 (eqs. (3.12)–(3.13)):
///
/// ```
/// use bitlevel_depanal::{compose, Expansion};
/// use bitlevel_ir::WordLevelAlgorithm;
///
/// let alg = compose(&WordLevelAlgorithm::matmul(3), 3, Expansion::II);
/// assert_eq!(alg.dim(), 5);              // j1, j2, j3, i1, i2
/// assert_eq!(alg.deps.len(), 7);         // d̄₁ … d̄₇
/// assert_eq!(alg.index_set.cardinality(), 27 * 9);
/// // d̄₆ is uniform in Expansion II, d̄₃ is boundary-only.
/// assert!(alg.deps.get(5).is_uniform_over(&alg.index_set));
/// assert!(!alg.deps.get(2).is_uniform_over(&alg.index_set));
/// ```
pub fn compose(word: &WordLevelAlgorithm, p: usize, expansion: Expansion) -> AlgorithmTriplet {
    assert!(p >= 1, "word length must be at least 1");
    let n = word.dim();
    let arith = AddShift::new(p);
    let jw = word.bounds.clone();
    let jas = arith.index_set();
    let j = jw.product(&jas);

    // Axis indices of i₁ and i₂ in the compound space.
    let i1 = n;
    let i2 = n + 1;
    let pi = p as i64;

    // Embedding helpers per (3.10): word vectors get two trailing zeros,
    // arithmetic vectors get n leading zeros.
    let lift_word = |h: &IVec| h.concat(&IVec::zeros(2));
    let lift_arith = |d: &IVec| IVec::zeros(n).concat(d);

    let mut deps: Vec<Dependence> = Vec::with_capacity(7);

    // d̄₁ = [h̄₁ᵀ, 0, 0]ᵀ, valid at i₁ = 1: word-level pipelining of x bits.
    if let Some(h1) = &word.h1 {
        deps.push(Dependence::conditional(
            lift_word(h1),
            "x",
            Predicate::eq_const(i1, 1),
        ));
    }
    // d̄₂ = [h̄₂ᵀ, 0, 0]ᵀ, valid at i₂ = 1: word-level pipelining of y bits.
    if let Some(h2) = &word.h2 {
        deps.push(Dependence::conditional(
            lift_word(h2),
            "y",
            Predicate::eq_const(i2, 1),
        ));
    }
    // d̄₃ = [h̄₃ᵀ, 0, 0]ᵀ: accumulation across word-level iterations.
    let d3_validity = match expansion {
        Expansion::I => Predicate::always(),
        // q̄₂ : i₁ = p or i₂ = 1.
        Expansion::II => Predicate::eq_const(i1, pi).or(&Predicate::eq_const(i2, 1)),
    };
    deps.push(Dependence::conditional(
        lift_word(&word.h3),
        "z",
        d3_validity,
    ));

    // d̄₄ = [0̄, δ̄₁ᵀ]ᵀ, valid at i₁ ≠ 1: intra-tile pipelining of x bits.
    deps.push(Dependence::conditional(
        lift_arith(&AddShift::delta1()),
        "x",
        Predicate::ne_const(i1, 1),
    ));
    // d̄₅ = [0̄, δ̄₂ᵀ]ᵀ, valid at i₂ ≠ 1: intra-tile y bits and carry chain.
    deps.push(Dependence::conditional(
        lift_arith(&AddShift::delta2()),
        "y,c",
        Predicate::ne_const(i2, 1),
    ));
    // d̄₆ = [0̄, δ̄₃ᵀ]ᵀ: partial-sum drain inside the add-shift tile.
    let d6_validity = match expansion {
        Expansion::I => Predicate::eq_upper(n - 1), // jₙ = uₙ
        Expansion::II => Predicate::always(),
    };
    deps.push(Dependence::conditional(
        lift_arith(&AddShift::delta3()),
        "z",
        d6_validity,
    ));
    // d̄₇ = [0̄, 0, 2]ᵀ = [0̄, δ̄₄ᵀ]ᵀ: the second carry c'.
    let d7_validity = match expansion {
        // q̄₁ : (i₁ ≠ 1 or i₂ ∉ {1,2}) and jₙ = uₙ.
        Expansion::I => Predicate::ne_const(i1, 1)
            .or(&Predicate::not_in(i2, &[1, 2]))
            .and(&Predicate::eq_upper(n - 1)),
        Expansion::II => Predicate::eq_const(i1, pi),
    };
    deps.push(Dependence::conditional(
        lift_arith(&IVec::from([0, 2])),
        "c'",
        d7_validity,
    ));

    let mut axis_names: Vec<String> = (1..=n).map(|k| format!("j{k}")).collect();
    axis_names.push("i1".to_string());
    axis_names.push("i2".to_string());
    let names: Vec<&str> = axis_names.iter().map(|s| s.as_str()).collect();

    AlgorithmTriplet::new(
        j,
        DependenceSet::new(deps),
        &format!(
            "bit-level {} (add-shift, p = {p}, {expansion}): full-adder cells over J_w x J_as",
            word.name
        ),
    )
    .with_axis_names(&names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitlevel_linalg::IMat;

    #[test]
    fn matmul_expansion_ii_matches_eq_3_12_and_3_13() {
        // Example 3.1: u × u matmul, word length p.
        let (u, p) = (3, 3);
        let alg = compose(&WordLevelAlgorithm::matmul(u), p, Expansion::II);

        // Index set (3.13): 5-D, 1..u on word axes, 1..p on bit axes.
        assert_eq!(alg.dim(), 5);
        assert_eq!(
            alg.index_set.cardinality(),
            (u as u128).pow(3) * (p as u128).pow(2)
        );

        // Dependence matrix (3.12). Paper column order: y, x, z, x, y/c, z, c'
        // — we emit in model order x, y, z, …, so compare as column sets.
        let expected = IMat::from_rows(&[
            // x         y         z        d4       d5        d6       d7
            &[0, 1, 0, 0, 0, 0, 0],
            &[1, 0, 0, 0, 0, 0, 0],
            &[0, 0, 1, 0, 0, 0, 0],
            &[0, 0, 0, 1, 0, 1, 0],
            &[0, 0, 0, 0, 1, -1, 2],
        ]);
        assert_eq!(alg.dependence_matrix(), expected);

        // Validity regions: d1 at i1=1, d2 at i2=1, d3 at q̄2, d4 at i1≠1,
        // d5 at i2≠1, d6 uniform, d7 at i1=p.
        let set = &alg.index_set;
        let at = |j1: i64, j2: i64, j3: i64, i1: i64, i2: i64| IVec::from([j1, j2, j3, i1, i2]);
        let d = &alg.deps;
        assert!(d.get(0).validity.eval(&at(2, 2, 2, 1, 2), set));
        assert!(!d.get(0).validity.eval(&at(2, 2, 2, 2, 2), set));
        assert!(d.get(1).validity.eval(&at(2, 2, 2, 2, 1), set));
        assert!(!d.get(1).validity.eval(&at(2, 2, 2, 2, 2), set));
        // d3: boundary q̄2 only (Expansion II).
        assert!(d.get(2).validity.eval(&at(2, 2, 2, 3, 2), set)); // i1 = p
        assert!(d.get(2).validity.eval(&at(2, 2, 2, 2, 1), set)); // i2 = 1
        assert!(!d.get(2).validity.eval(&at(2, 2, 2, 2, 2), set));
        // d6 uniform in Expansion II.
        assert!(d.get(5).is_uniform_over(set));
        // d7 at i1 = p.
        assert!(d.get(6).validity.eval(&at(1, 1, 1, 3, 1), set));
        assert!(!d.get(6).validity.eval(&at(1, 1, 1, 2, 1), set));
    }

    #[test]
    fn one_dimensional_expansion_i_matches_eq_3_8() {
        // Program (3.7) with h1 = h2 = h3 = 1 (scalars), l = 1, u = 4, p = 3.
        let word = WordLevelAlgorithm::new(
            "1-D recurrence",
            bitlevel_ir::BoxSet::cube(1, 1, 4),
            Some(IVec::from([1])),
            Some(IVec::from([1])),
            IVec::from([1]),
        );
        let alg = compose(&word, 3, Expansion::I);
        assert_eq!(alg.dim(), 3);

        let expected = IMat::from_rows(&[
            &[1, 1, 1, 0, 0, 0, 0],
            &[0, 0, 0, 1, 0, 1, 0],
            &[0, 0, 0, 0, 1, -1, 2],
        ]);
        assert_eq!(alg.dependence_matrix(), expected);

        let set = &alg.index_set;
        let d = &alg.deps;
        // d3 uniform in Expansion I.
        assert!(d.get(2).is_uniform_over(set));
        // d6 valid only at j = u = 4.
        assert!(d.get(5).validity.eval(&IVec::from([4, 2, 2]), set));
        assert!(!d.get(5).validity.eval(&IVec::from([3, 2, 2]), set));
        // d7 at q̄1: (i1≠1 or i2∉{1,2}) and j=u.
        let q7 = &d.get(6).validity;
        assert!(q7.eval(&IVec::from([4, 2, 1]), set)); // i1≠1
        assert!(q7.eval(&IVec::from([4, 1, 3]), set)); // i2∉{1,2}
        assert!(!q7.eval(&IVec::from([4, 1, 2]), set));
        assert!(!q7.eval(&IVec::from([3, 2, 3]), set)); // j≠u
    }

    #[test]
    fn expansions_share_vectors_and_differ_only_in_validity() {
        let word = WordLevelAlgorithm::matmul(2);
        let a = compose(&word, 2, Expansion::I);
        let b = compose(&word, 2, Expansion::II);
        assert_eq!(a.dependence_matrix(), b.dependence_matrix());
        assert_eq!(a.index_set, b.index_set);
        // d3's validity differs.
        assert!(a.deps.get(2).is_uniform_over(&a.index_set));
        assert!(!b.deps.get(2).is_uniform_over(&b.index_set));
    }

    #[test]
    fn matvec_omits_the_y_column() {
        let alg = compose(&WordLevelAlgorithm::matvec(3, 3), 2, Expansion::II);
        // 6 columns: x, z, d4, d5, d6, d7 (no word-level y pipelining).
        assert_eq!(alg.deps.len(), 6);
        assert_eq!(alg.dim(), 4);
        let causes: Vec<&str> = alg.deps.iter().map(|d| d.cause.as_str()).collect();
        assert_eq!(causes, vec!["x", "z", "x", "y,c", "z", "c'"]);
    }

    #[test]
    fn theorem_3_1_block_structure() {
        // D = [D_w 0 0̄; 0 D_as δ̄₄] — check the block-diagonal shape directly.
        let word = WordLevelAlgorithm::matmul(4);
        let alg = compose(&word, 5, Expansion::I);
        let d = alg.dependence_matrix();
        // Word rows of arithmetic columns are zero.
        for r in 0..3 {
            for c in 3..7 {
                assert_eq!(d[(r, c)], 0);
            }
        }
        // Arithmetic rows of word columns are zero.
        for r in 3..5 {
            for c in 0..3 {
                assert_eq!(d[(r, c)], 0);
            }
        }
        // δ̄₄ = [0, 2]ᵀ in the last column.
        assert_eq!(d[(3, 6)], 0);
        assert_eq!(d[(4, 6)], 2);
    }

    #[test]
    fn composition_is_independent_of_index_set_size() {
        // The derivation must not iterate the compound set: structure for a
        // huge u/p must come out instantly with the same shape.
        let alg = compose(&WordLevelAlgorithm::matmul(1000), 64, Expansion::II);
        assert_eq!(alg.deps.len(), 7);
        assert_eq!(alg.index_set.cardinality(), 1000u128.pow(3) * 64u128.pow(2));
    }
}
