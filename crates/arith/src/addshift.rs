//! The add-shift multiplication algorithm (Section 3.1, Fig. 1).
//!
//! `s = a × b` is computed by adding the `p` partial products
//! `(a_p∧b_i)…(a_1∧b_i)`, the `i`-th shifted `i−1` positions left. Reshaped to
//! the square of Fig. 1b, cell `(i₁, i₂)` of the `p×p` grid receives
//! `a_{i₂}`, `b_{i₁}`, the carry from `(i₁, i₂−1)` and the partial sum from
//! `(i₁−1, i₂+1)`, and produces a new carry (sent along `δ̄₂ = [0,1]ᵀ`) and a
//! new partial sum (sent along `δ̄₃ = [1,−1]ᵀ`); `a` bits are pipelined along
//! `δ̄₁ = [1,0]ᵀ` and `b` bits along `δ̄₂` — eqs. (3.1)–(3.4).
//!
//! ## Correctness note (deviation from the paper text)
//!
//! The paper sets the boundary inputs `s(i₁, p+1) = 0` and reads the product
//! from `s(i,1)` (i ≤ p) and `s(p, i−p+1)` (p < i ≤ 2p−1). Taken literally,
//! this drops (a) the carry out of the **last cell of each row** (weight
//! `i₁+p−1`) and (b) the final carry `c(p,p)` (weight `2p−1`), so e.g.
//! `7 × 3 = 21` would evaluate to `5` with `p = 3`. The standard wiring —
//! and the one any hardware realisation uses — re-enters the carry out of
//! row `i₁`'s last cell as the diagonal sum input of row `i₁+1`'s last cell
//! (`s(i₁, p+1) := c(i₁, p)`, a `[1,0]ᵀ` edge valid only at `i₂ = p`, the
//! same direction as `δ̄₁`), and exposes `c(p,p)` as product bit `2p`.
//! [`BoundaryPolicy::CarryReentry`] (default) implements that exact version;
//! [`BoundaryPolicy::PaperLiteral`] reproduces the text as written for
//! comparison. Neither changes `D_as`, the index set, or any schedule, so
//! every architectural result of the paper is unaffected.

use crate::bitcell::{from_bits, full_add, to_bits, Bit};
use bitlevel_ir::{
    Access, AffineFn, BoxSet, Dependence, DependenceSet, LoopNest, OpKind, Statement,
};
use bitlevel_linalg::IVec;

/// How the right-boundary partial sums `s(i₁, p+1)` are supplied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoundaryPolicy {
    /// Exact product: `s(i₁, p+1) = c(i₁, p)` (row-end carry re-entry) and
    /// product bit `2p` taken from `c(p, p)`.
    #[default]
    CarryReentry,
    /// The paper's literal initial values `s(i₁, p+1) = 0`; row-end carries
    /// are dropped and the product is truncated to `2p−1` bits. Exact only
    /// when no row-end carry arises (e.g. when one operand is a power of
    /// two).
    PaperLiteral,
}

/// The add-shift multiplier for word length `p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddShift {
    /// Word length `p ≥ 1`.
    pub p: usize,
    /// Boundary handling (see [`BoundaryPolicy`]).
    pub policy: BoundaryPolicy,
}

/// The evaluated `p×p` grid of carry and partial-sum bits — the values
/// `c(i₁,i₂)` and `s(i₁,i₂)` of program (3.3). Expansion simulators reuse it.
#[derive(Debug, Clone)]
pub struct AddShiftGrid {
    p: usize,
    /// `s(i₁,i₂)`, row-major, 1-based via the accessor.
    s: Vec<Bit>,
    /// `c(i₁,i₂)`, row-major, 1-based via the accessor.
    c: Vec<Bit>,
}

impl AddShiftGrid {
    /// Partial-sum bit `s(i₁, i₂)`, `1 ≤ i₁, i₂ ≤ p`.
    pub fn s(&self, i1: usize, i2: usize) -> Bit {
        self.s[(i1 - 1) * self.p + (i2 - 1)]
    }

    /// Carry bit `c(i₁, i₂)`, `1 ≤ i₁, i₂ ≤ p`.
    pub fn c(&self, i1: usize, i2: usize) -> Bit {
        self.c[(i1 - 1) * self.p + (i2 - 1)]
    }
}

impl AddShift {
    /// Creates the multiplier with the exact (carry re-entry) policy.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn new(p: usize) -> Self {
        assert!(p >= 1, "word length must be at least 1");
        AddShift {
            p,
            policy: BoundaryPolicy::CarryReentry,
        }
    }

    /// Creates the multiplier with the paper's literal boundary values.
    pub fn paper_literal(p: usize) -> Self {
        assert!(p >= 1, "word length must be at least 1");
        AddShift {
            p,
            policy: BoundaryPolicy::PaperLiteral,
        }
    }

    /// The index set `J_as = {ī : 1 ≤ i₁, i₂ ≤ p}` of eq. (3.4).
    pub fn index_set(&self) -> BoxSet {
        BoxSet::cube(2, 1, self.p as i64)
    }

    /// The dependence structure `D_as = [δ̄₁, δ̄₂, δ̄₃]` of eq. (3.4):
    /// `δ̄₁ = [1,0]ᵀ` (a), `δ̄₂ = [0,1]ᵀ` (b and c), `δ̄₃ = [1,−1]ᵀ` (s).
    pub fn dependences(&self) -> DependenceSet {
        DependenceSet::new(vec![
            Dependence::uniform([1, 0], "a"),
            Dependence::uniform([0, 1], "b,c"),
            Dependence::uniform([1, -1], "s"),
        ])
    }

    /// `δ̄₁` — pipelining of `a` bits.
    pub fn delta1() -> IVec {
        IVec::from([1, 0])
    }

    /// `δ̄₂` — pipelining of `b` bits and carry propagation.
    pub fn delta2() -> IVec {
        IVec::from([0, 1])
    }

    /// `δ̄₃` — partial-sum propagation.
    pub fn delta3() -> IVec {
        IVec::from([1, -1])
    }

    /// The broadcast-free loop nest of program (3.3), for consumption by the
    /// general dependence analyser.
    pub fn nest(&self) -> LoopNest {
        let n = 2;
        let d1 = Self::delta1();
        let d2 = Self::delta2();
        let d3 = Self::delta3();
        let adder_inputs = || {
            vec![
                Access::new("a", AffineFn::identity(n)),
                Access::new("b", AffineFn::identity(n)),
                Access::new("c", AffineFn::shift_back(&d2)),
                Access::new("s", AffineFn::shift_back(&d3)),
            ]
        };
        LoopNest::new(
            self.index_set(),
            vec![
                Statement::pipeline("a", n, &d1),
                Statement::pipeline("b", n, &d2),
                Statement::new(
                    Access::new("c", AffineFn::identity(n)),
                    adder_inputs(),
                    OpKind::CarryBit,
                ),
                Statement::new(
                    Access::new("s", AffineFn::identity(n)),
                    adder_inputs(),
                    OpKind::SumBit,
                ),
            ],
        )
    }

    /// Evaluates the whole grid for LSB-first operand bit vectors.
    ///
    /// # Panics
    /// Panics unless both operands supply exactly `p` bits.
    pub fn eval_grid(&self, a_bits: &[Bit], b_bits: &[Bit]) -> AddShiftGrid {
        assert_eq!(a_bits.len(), self.p, "a must have exactly p bits");
        assert_eq!(b_bits.len(), self.p, "b must have exactly p bits");
        let p = self.p;
        let mut grid = AddShiftGrid {
            p,
            s: vec![false; p * p],
            c: vec![false; p * p],
        };
        // Evaluate in row order: cell (i1, i2) needs c(i1, i2-1) (same row,
        // earlier column) and s(i1-1, i2+1) (previous row, later column), so a
        // row-major sweep with columns ascending is a valid topological order.
        for i1 in 1..=p {
            for i2 in 1..=p {
                let x1 = a_bits[i2 - 1] & b_bits[i1 - 1];
                let x2 = if i2 == 1 { false } else { grid.c(i1, i2 - 1) }; // c(i1,0)=0
                let x3 = self.s_input(&grid, i1, i2);
                let (s, c) = full_add(x1, x2, x3);
                grid.s[(i1 - 1) * p + (i2 - 1)] = s;
                grid.c[(i1 - 1) * p + (i2 - 1)] = c;
            }
        }
        grid
    }

    /// The diagonal sum input `s(i₁−1, i₂+1)` of cell `(i₁, i₂)`, resolving
    /// the boundary values per eq. (3.1) and the [`BoundaryPolicy`].
    fn s_input(&self, grid: &AddShiftGrid, i1: usize, i2: usize) -> Bit {
        if i1 == 1 {
            return false; // s(0, i2) = 0
        }
        if i2 == self.p {
            // s(i1-1, p+1): 0 in the paper text, c(i1-1, p) in the exact wiring.
            return match self.policy {
                BoundaryPolicy::PaperLiteral => false,
                BoundaryPolicy::CarryReentry => grid.c(i1 - 1, self.p),
            };
        }
        grid.s(i1 - 1, i2 + 1)
    }

    /// Extracts the product bits from an evaluated grid:
    /// `s_i = s(i, 1)` for `1 ≤ i ≤ p`, `s_i = s(p, i−p+1)` for
    /// `p < i ≤ 2p−1`, plus bit `2p = c(p,p)` under
    /// [`BoundaryPolicy::CarryReentry`].
    pub fn product_bits(&self, grid: &AddShiftGrid) -> Vec<Bit> {
        let p = self.p;
        let mut bits = Vec::with_capacity(2 * p);
        for i in 1..=p {
            bits.push(grid.s(i, 1));
        }
        for i in p + 1..=2 * p - 1 {
            bits.push(grid.s(p, i - p + 1));
        }
        match self.policy {
            BoundaryPolicy::CarryReentry => bits.push(grid.c(p, p)),
            BoundaryPolicy::PaperLiteral => bits.push(false),
        }
        bits
    }

    /// Multiplies two nonnegative integers through the bit-level grid.
    ///
    /// # Panics
    /// Panics if an operand does not fit in `p` bits.
    ///
    /// # Examples
    ///
    /// ```
    /// use bitlevel_arith::AddShift;
    /// let m = AddShift::new(8);
    /// assert_eq!(m.multiply(200, 250), 50_000); // every bit through real cells
    /// ```
    pub fn multiply(&self, a: u128, b: u128) -> u128 {
        let grid = self.eval_grid(&to_bits(a, self.p), &to_bits(b, self.p));
        from_bits(&self.product_bits(&grid))
    }

    /// The word-level latency `t_b` of one multiply (plus accumulate) when an
    /// add-shift multiplier is placed inside a word-level PE: `O(p²)` per
    /// Section 4.2; we use the cell count `p²` as the concrete constant.
    pub fn word_latency(&self) -> u64 {
        (self.p * self.p) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_running_example_p3() {
        // Fig. 1 uses p = 3. Exhaustively verify all 64 products.
        let m = AddShift::new(3);
        for a in 0..8u128 {
            for b in 0..8u128 {
                assert_eq!(m.multiply(a, b), a * b, "{a} * {b}");
            }
        }
    }

    #[test]
    fn exhaustive_small_word_lengths() {
        for p in 1..=5usize {
            let m = AddShift::new(p);
            let max = 1u128 << p;
            for a in 0..max {
                for b in 0..max {
                    assert_eq!(m.multiply(a, b), a * b, "p={p}, {a} * {b}");
                }
            }
        }
    }

    #[test]
    fn paper_literal_drops_row_end_carries() {
        // 7 × 3 with p = 3: the literal text loses the carry out of row 2
        // (weight 16): 21 - 16 = 5.
        let literal = AddShift::paper_literal(3);
        assert_eq!(literal.multiply(7, 3), 5);
        // …while the exact wiring gets it right.
        assert_eq!(AddShift::new(3).multiply(7, 3), 21);
    }

    #[test]
    fn paper_literal_is_exact_for_power_of_two_multiplier() {
        // With b a power of two there is a single nonzero partial-product row
        // and no carries arise anywhere.
        let literal = AddShift::paper_literal(4);
        for a in 0..16u128 {
            for sh in 0..4 {
                let b = 1u128 << sh;
                assert_eq!(literal.multiply(a, b), a * b, "{a} * {b}");
            }
        }
    }

    #[test]
    fn grid_values_match_hand_computation_p2() {
        // a = b = 3 (binary 11), p = 2 — worked in the module docs.
        let m = AddShift::new(2);
        let g = m.eval_grid(&[true, true], &[true, true]);
        assert!(g.s(1, 1)); // a1b1 = 1
        assert!(g.s(1, 2));
        assert!(!g.s(2, 1)); // 1 + s(1,2) = 10
        assert!(g.c(2, 1));
        assert!(!g.s(2, 2));
        assert!(g.c(2, 2)); // becomes product bit 4 (weight 8): 9 = 1001
        assert_eq!(from_bits(&m.product_bits(&g)), 9);
    }

    #[test]
    fn dependence_structure_matches_eq_3_4() {
        let m = AddShift::new(3);
        let d = m.dependences();
        assert_eq!(d.len(), 3);
        assert_eq!(d.get(0).vector, IVec::from([1, 0]));
        assert_eq!(d.get(0).cause, "a");
        assert_eq!(d.get(1).vector, IVec::from([0, 1]));
        assert_eq!(d.get(1).cause, "b,c");
        assert_eq!(d.get(2).vector, IVec::from([1, -1]));
        assert_eq!(d.get(2).cause, "s");
        assert!(d.all_uniform_over(&m.index_set()));
        assert_eq!(m.index_set().cardinality(), 9);
    }

    #[test]
    fn nest_has_four_statements_of_program_3_3() {
        let nest = AddShift::new(3).nest();
        assert_eq!(nest.statements.len(), 4);
        assert_eq!(
            nest.arrays(),
            vec!["a".to_string(), "b".into(), "c".into(), "s".into()]
        );
        // The c and s statements read the same four operands.
        assert_eq!(nest.statements[2].inputs.len(), 4);
        assert_eq!(nest.statements[2].inputs, nest.statements[3].inputs);
    }

    #[test]
    fn word_latency_is_quadratic() {
        assert_eq!(AddShift::new(4).word_latency(), 16);
        assert_eq!(AddShift::new(8).word_latency(), 64);
    }

    #[test]
    #[should_panic(expected = "exactly p bits")]
    fn wrong_operand_width_panics() {
        let m = AddShift::new(3);
        let _ = m.eval_grid(&[true, true], &[true, false, false]);
    }

    proptest! {
        #[test]
        fn prop_exact_for_random_wide_operands(p in 1usize..16, seed in any::<u64>()) {
            let mask = if p == 128 { u128::MAX } else { (1u128 << p) - 1 };
            let a = (seed as u128).wrapping_mul(0x9e3779b97f4a7c15) & mask;
            let b = (seed as u128).rotate_left(17) & mask;
            prop_assert_eq!(AddShift::new(p).multiply(a, b), a * b);
        }
    }
}
