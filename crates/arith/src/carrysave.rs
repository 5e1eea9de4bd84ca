//! Carry-save array multiplication.
//!
//! Section 4.2: "In practice, faster arithmetic algorithms such as carry-save
//! multiplication with complexity `t_b = O(p)` can be used to multiply two
//! integers. In this case the speedup of our bit-level architecture is
//! `O(p)`." This module supplies that faster comparator: a `p×p` array of
//! carry-save (3:2) cells followed by a vector-merge ripple stage.
//!
//! The grid reuses the add-shift geometry (cell `(i₁,i₂)` holds partial
//! product `a_{i₂}∧b_{i₁}` of weight `i₁+i₂−2`) but the carry of cell
//! `(i₁,i₂)` is **saved** — passed to the next row at the same column
//! (`[1,0]ᵀ`, weight preserved because the row index contributes one) instead
//! of rippling within the row. All row latencies become constant, so the
//! array settles in `O(p)` time; one final ripple merge of the surviving sum
//! and carry vectors produces the product.

use crate::bitcell::{from_bits, full_add, to_bits, Bit};
use bitlevel_ir::{BoxSet, Dependence, DependenceSet};
use bitlevel_linalg::IVec;

/// The carry-save multiplier for word length `p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CarrySave {
    /// Word length `p ≥ 1`.
    pub p: usize,
}

impl CarrySave {
    /// Creates the multiplier.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn new(p: usize) -> Self {
        assert!(p >= 1, "word length must be at least 1");
        CarrySave { p }
    }

    /// The `p×p` index set of the cell array.
    pub fn index_set(&self) -> BoxSet {
        BoxSet::cube(2, 1, self.p as i64)
    }

    /// The dependence structure of the carry-save array:
    /// `a: [1,0]ᵀ`, `b: [0,1]ᵀ`, `s: [1,−1]ᵀ`, `c: [1,0]ᵀ` — the carry column
    /// differs from add-shift's `[0,1]ᵀ`, which is exactly why no carry chain
    /// serialises a row.
    pub fn dependences(&self) -> DependenceSet {
        DependenceSet::new(vec![
            Dependence::uniform([1, 0], "a"),
            Dependence::uniform([0, 1], "b"),
            Dependence::uniform([1, -1], "s"),
            Dependence::uniform([1, 0], "c"),
        ])
    }

    /// Carry propagation direction (differs from [`crate::AddShift`]).
    pub fn carry_direction() -> IVec {
        IVec::from([1, 0])
    }

    /// Multiplies two nonnegative integers through the carry-save array plus
    /// vector-merge stage.
    ///
    /// # Panics
    /// Panics if an operand does not fit in `p` bits.
    pub fn multiply(&self, a: u128, b: u128) -> u128 {
        let p = self.p;
        let a_bits = to_bits(a, p);
        let b_bits = to_bits(b, p);

        // s[i1][i2], c[i1][i2], 0-based storage for 1-based cells.
        let mut s = vec![vec![false; p]; p];
        let mut c = vec![vec![false; p]; p];
        for i1 in 1..=p {
            for i2 in 1..=p {
                let pp = a_bits[i2 - 1] & b_bits[i1 - 1];
                // Sum in from (i1-1, i2+1); zero at the top row and past the
                // right edge (the weight there is covered by the saved carry).
                let s_in = if i1 > 1 && i2 < p {
                    s[i1 - 2][i2]
                } else {
                    false
                };
                // Carry in from (i1-1, i2): saved carry, same column.
                let c_in = if i1 > 1 { c[i1 - 2][i2 - 1] } else { false };
                let (sb, cb) = full_add(pp, s_in, c_in);
                s[i1 - 1][i2 - 1] = sb;
                c[i1 - 1][i2 - 1] = cb;
            }
        }

        // Product bits 1..p stream out of column 1: bit i = s(i, 1).
        let mut bits: Vec<Bit> = (1..=p).map(|i1| s[i1 - 1][0]).collect();

        // Vector-merge: the remaining weights p..2p-1 hold the last row's
        // sums s(p, i2) (weight p+i2-2, i2 ≥ 2) and saved carries c(p, i2)
        // (weight p+i2-1). Ripple them together.
        let mut carry = false;
        for w in p..=2 * p - 1 {
            // weight w corresponds to product bit w+1
            let s_bit = {
                let i2 = w + 2 - p; // s(p, i2) has weight p+i2-2 = w
                if (2..=p).contains(&i2) {
                    s[p - 1][i2 - 1]
                } else {
                    false
                }
            };
            let c_bit = {
                let i2 = w + 1 - p; // c(p, i2) has weight p+i2-1 = w
                if (1..=p).contains(&i2) {
                    c[p - 1][i2 - 1]
                } else {
                    false
                }
            };
            let (sum, cout) = full_add(s_bit, c_bit, carry);
            bits.push(sum);
            carry = cout;
        }
        debug_assert!(!carry, "product of two p-bit numbers fits in 2p bits");
        from_bits(&bits)
    }

    /// Word-level latency `t_b = O(p)`: `p` constant-time carry-save rows plus
    /// the `p`-bit vector-merge; we use `2p` as the concrete constant
    /// (Section 4.2's comparison only relies on the linear order).
    pub fn word_latency(&self) -> u64 {
        2 * self.p as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exhaustive_small_word_lengths() {
        for p in 1..=5usize {
            let m = CarrySave::new(p);
            let max = 1u128 << p;
            for a in 0..max {
                for b in 0..max {
                    assert_eq!(m.multiply(a, b), a * b, "p={p}, {a} * {b}");
                }
            }
        }
    }

    #[test]
    fn agrees_with_addshift() {
        let p = 6;
        let cs = CarrySave::new(p);
        let asft = crate::AddShift::new(p);
        for (a, b) in [(63, 63), (45, 37), (1, 62), (32, 33)] {
            assert_eq!(cs.multiply(a, b), asft.multiply(a, b));
        }
    }

    #[test]
    fn dependence_structure_saves_carries() {
        let cs = CarrySave::new(4);
        let d = cs.dependences();
        assert_eq!(d.len(), 4);
        // The carry column is [1,0]: down a row, not across the row.
        assert_eq!(d.get(3).cause, "c");
        assert_eq!(d.get(3).vector, IVec::from([1, 0]));
        assert!(d.all_uniform_over(&cs.index_set()));
    }

    #[test]
    fn latency_is_linear_vs_addshift_quadratic() {
        // The whole point of Section 4.2's comparison: t_b(carry-save) = O(p)
        // vs t_b(add-shift) = O(p²).
        for p in [4usize, 8, 16, 32] {
            assert_eq!(CarrySave::new(p).word_latency(), 2 * p as u64);
            assert_eq!(crate::AddShift::new(p).word_latency(), (p * p) as u64);
        }
    }

    proptest! {
        #[test]
        fn prop_exact_for_random_wide_operands(p in 1usize..20, seed in any::<u64>()) {
            let mask = (1u128 << p) - 1;
            let a = (seed as u128).wrapping_mul(0xc2b2ae3d27d4eb4f) & mask;
            let b = (seed as u128).rotate_left(29) & mask;
            prop_assert_eq!(CarrySave::new(p).multiply(a, b), a * b);
        }
    }
}
