//! Baugh–Wooley two's-complement multiplication.
//!
//! The catalogue's signed entry: real workloads the paper names (DCT/DFT
//! coefficient matrices, LU pivot updates) have **signed** operands, and the
//! classic array answer is the Baugh–Wooley scheme — the same `p×p`
//! partial-product grid as add-shift/carry-save, with the partial products
//! of the sign row and sign column complemented and two constant correction
//! bits injected (at weights `p` and `2p−1`). The cell geometry, and hence
//! the dependence structure, is unchanged from the unsigned arrays; only the
//! cell Boolean function on two grid edges differs — which is exactly why
//! the paper's compositional analysis extends to signed arithmetic without
//! new dependence work.
//!
//! The functional model sums the corrected partial products through explicit
//! full-adder rows (carry-save accumulation, then a ripple merge), mod
//! `2^{2p}`, and reinterprets the result as a signed `2p`-bit value.

use crate::bitcell::{full_add, Bit};
use bitlevel_ir::{BoxSet, Dependence, DependenceSet};

/// Baugh–Wooley signed multiplier for `p`-bit two's-complement operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaughWooley {
    /// Operand width `p ≥ 2` (two's complement).
    pub p: usize,
}

impl BaughWooley {
    /// Creates the multiplier.
    ///
    /// # Panics
    /// Panics if `p < 2` (a 1-bit two's-complement operand has no magnitude
    /// bits).
    pub fn new(p: usize) -> Self {
        assert!(p >= 2, "two's-complement width must be at least 2");
        BaughWooley { p }
    }

    /// Valid operand range: `[−2^{p−1}, 2^{p−1})`.
    pub fn operand_range(&self) -> (i128, i128) {
        (-(1i128 << (self.p - 1)), 1i128 << (self.p - 1))
    }

    /// The `p×p` cell index set (same geometry as the unsigned arrays).
    pub fn index_set(&self) -> BoxSet {
        BoxSet::cube(2, 1, self.p as i64)
    }

    /// The dependence structure — identical to the carry-save array
    /// (`a: [1,0]`, `b: [0,1]`, `s: [1,−1]`, `c: [1,0]`): Baugh–Wooley
    /// changes cell functions, not dataflow.
    pub fn dependences(&self) -> DependenceSet {
        DependenceSet::new(vec![
            Dependence::uniform([1, 0], "a"),
            Dependence::uniform([0, 1], "b"),
            Dependence::uniform([1, -1], "s"),
            Dependence::uniform([1, 0], "c"),
        ])
    }

    /// Multiplies two signed values through the corrected partial-product
    /// grid.
    ///
    /// # Panics
    /// Panics if an operand is outside [`Self::operand_range`].
    pub fn multiply_signed(&self, a: i128, b: i128) -> i128 {
        let p = self.p;
        let (lo, hi) = self.operand_range();
        assert!((lo..hi).contains(&a), "{a} outside signed {p}-bit range");
        assert!((lo..hi).contains(&b), "{b} outside signed {p}-bit range");

        // Two's-complement operand bits, LSB first.
        let mask = (1u128 << p) - 1;
        let abits: Vec<Bit> = (0..p).map(|k| ((a as u128) & mask) >> k & 1 == 1).collect();
        let bbits: Vec<Bit> = (0..p).map(|k| ((b as u128) & mask) >> k & 1 == 1).collect();

        let w = 2 * p; // product width
                       // Accumulator as a bit vector; rows added by explicit adder chains.
        let mut acc = vec![false; w];

        // Partial-product rows with the Baugh–Wooley complement rule: the
        // product bit a_i·b_j is complemented iff exactly one of i, j is the
        // sign position p−1.
        for (j, &bj) in bbits.iter().enumerate() {
            let mut row = vec![false; w];
            for (i, &ai) in abits.iter().enumerate() {
                let pp = ai & bj;
                let corrected = if (i == p - 1) ^ (j == p - 1) { !pp } else { pp };
                row[i + j] = corrected;
            }
            add_into(&mut acc, &row);
        }
        // Correction constants at weights p and 2p−1.
        let mut corr = vec![false; w];
        corr[p] = true;
        corr[2 * p - 1] = true;
        add_into(&mut acc, &corr);

        // Reinterpret as signed 2p-bit.
        let mut value: i128 = 0;
        for (k, &bit) in acc.iter().enumerate().take(w - 1) {
            if bit {
                value += 1i128 << k;
            }
        }
        if acc[w - 1] {
            value -= 1i128 << (w - 1);
        }
        value
    }

    /// Word latency: same order as carry-save (`O(p)` rows + merge).
    pub fn word_latency(&self) -> u64 {
        2 * self.p as u64
    }
}

/// `acc += row` through a ripple chain of full adders (mod `2^len`).
fn add_into(acc: &mut [Bit], row: &[Bit]) {
    debug_assert_eq!(acc.len(), row.len());
    let mut carry = false;
    for i in 0..acc.len() {
        let (s, c) = full_add(acc[i], row[i], carry);
        acc[i] = s;
        carry = c;
    }
    // Carry out of the top bit is the mod-2^len wrap (correct for
    // two's-complement products of in-range operands).
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exhaustive_small_widths() {
        for p in 2..=5usize {
            let m = BaughWooley::new(p);
            let (lo, hi) = m.operand_range();
            for a in lo..hi {
                for b in lo..hi {
                    assert_eq!(m.multiply_signed(a, b), a * b, "p={p}: {a} * {b}");
                }
            }
        }
    }

    #[test]
    fn sign_combinations() {
        let m = BaughWooley::new(8);
        assert_eq!(m.multiply_signed(-128, -128), 16384);
        assert_eq!(m.multiply_signed(-128, 127), -16256);
        assert_eq!(m.multiply_signed(127, -1), -127);
        assert_eq!(m.multiply_signed(0, -77), 0);
    }

    #[test]
    fn agrees_with_unsigned_multipliers_on_nonnegative_operands() {
        let p = 6;
        let bw = BaughWooley::new(p);
        let asft = crate::AddShift::new(p - 1); // p−1 magnitude bits
        for (a, b) in [(17i128, 23i128), (31, 31), (5, 0)] {
            assert_eq!(
                bw.multiply_signed(a, b),
                asft.multiply(a as u128, b as u128) as i128
            );
        }
    }

    #[test]
    fn structure_matches_carry_save_geometry() {
        // Baugh–Wooley only changes cell functions: the dependence structure
        // and index set are the carry-save array's.
        let bw = BaughWooley::new(4);
        let cs = crate::CarrySave::new(4);
        assert_eq!(bw.dependences().matrix(), cs.dependences().matrix());
        assert_eq!(bw.index_set(), cs.index_set());
    }

    #[test]
    #[should_panic(expected = "outside signed")]
    fn out_of_range_operand_panics() {
        let _ = BaughWooley::new(4).multiply_signed(8, 1);
    }

    proptest! {
        #[test]
        fn prop_signed_products(p in 2usize..16, seed in any::<i64>()) {
            let m = BaughWooley::new(p);
            let (lo, hi) = m.operand_range();
            let span = hi - lo;
            let a = lo + ((seed as i128).rem_euclid(span));
            let b = lo + ((seed as i128).rotate_left(13).rem_euclid(span));
            prop_assert_eq!(m.multiply_signed(a, b), a * b);
        }
    }
}
