//! Integer addition as a bit-level uniform dependence algorithm.
//!
//! The paper's Section 3.1 closes with "Due to space limitation, the
//! dependence structure of an algorithm for adding two integers is not
//! included here \[7\]" — the structure lives in the unpublished technical
//! report. We reconstruct the obvious candidate: the **ripple-carry adder**,
//! a 1-dimensional uniform dependence algorithm whose only cross-iteration
//! dependence is the carry (`d̄ = [1]`), plus a **carry-save (3:2) adder**
//! used as a building block when more than two numbers meet at one point.

use crate::bitcell::{from_bits, full_add, to_bits};
use bitlevel_ir::{
    Access, AffineFn, BoxSet, Dependence, DependenceSet, LoopNest, OpKind, Statement,
};

/// A `p`-bit ripple-carry adder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RippleAdder {
    /// Word length `p ≥ 1`.
    pub p: usize,
}

impl RippleAdder {
    /// Creates the adder.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn new(p: usize) -> Self {
        assert!(p >= 1, "word length must be at least 1");
        RippleAdder { p }
    }

    /// The 1-D index set `{ i : 1 ≤ i ≤ p }`.
    pub fn index_set(&self) -> BoxSet {
        BoxSet::cube(1, 1, self.p as i64)
    }

    /// The dependence structure: a single uniform carry dependence `[1]`.
    pub fn dependences(&self) -> DependenceSet {
        DependenceSet::new(vec![Dependence::uniform([1], "c")])
    }

    /// The loop nest (`a`, `b` arrive bit-per-point; no pipelining needed):
    ///
    /// ```text
    /// DO (i = 1, p)
    ///     c(i) = g(a(i), b(i), c(i-1))
    ///     s(i) = f(a(i), b(i), c(i-1))
    /// END
    /// ```
    pub fn nest(&self) -> LoopNest {
        let n = 1;
        let inputs = || {
            vec![
                Access::new("a", AffineFn::identity(n)),
                Access::new("b", AffineFn::identity(n)),
                Access::new("c", AffineFn::shift_back(&[1].into())),
            ]
        };
        LoopNest::new(
            self.index_set(),
            vec![
                Statement::new(
                    Access::new("c", AffineFn::identity(n)),
                    inputs(),
                    OpKind::CarryBit,
                ),
                Statement::new(
                    Access::new("s", AffineFn::identity(n)),
                    inputs(),
                    OpKind::SumBit,
                ),
            ],
        )
    }

    /// Adds two nonnegative integers through the bit-level carry chain,
    /// returning the `p+1`-bit sum.
    ///
    /// # Panics
    /// Panics if an operand does not fit in `p` bits.
    pub fn add(&self, a: u128, b: u128) -> u128 {
        let a_bits = to_bits(a, self.p);
        let b_bits = to_bits(b, self.p);
        let mut bits = Vec::with_capacity(self.p + 1);
        let mut carry = false;
        for i in 0..self.p {
            let (s, c) = full_add(a_bits[i], b_bits[i], carry);
            bits.push(s);
            carry = c;
        }
        bits.push(carry);
        from_bits(&bits)
    }

    /// Latency of the carry chain: `p` cell delays.
    pub fn latency(&self) -> u64 {
        self.p as u64
    }
}

/// A carry-save (3:2 compressor) adder stage: reduces three `p`-bit numbers
/// to a sum vector and a carry vector in **one** cell delay, independent of
/// `p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CarrySaveAdder {
    /// Word length `p ≥ 1`.
    pub p: usize,
}

impl CarrySaveAdder {
    /// Creates the compressor stage.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn new(p: usize) -> Self {
        assert!(p >= 1, "word length must be at least 1");
        CarrySaveAdder { p }
    }

    /// Compresses `(x, y, z)` into `(sum, carry)` with
    /// `x + y + z = sum + 2·carry`; all inputs must fit in `p` bits.
    pub fn compress(&self, x: u128, y: u128, z: u128) -> (u128, u128) {
        let xb = to_bits(x, self.p);
        let yb = to_bits(y, self.p);
        let zb = to_bits(z, self.p);
        let mut sum = Vec::with_capacity(self.p);
        let mut carry = Vec::with_capacity(self.p);
        for i in 0..self.p {
            let (s, c) = full_add(xb[i], yb[i], zb[i]);
            sum.push(s);
            carry.push(c);
        }
        (from_bits(&sum), from_bits(&carry))
    }

    /// Constant latency: one full-adder delay.
    pub fn latency(&self) -> u64 {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitlevel_linalg::IVec;
    use proptest::prelude::*;

    #[test]
    fn ripple_exhaustive_small() {
        for p in 1..=6usize {
            let adder = RippleAdder::new(p);
            let max = 1u128 << p;
            for a in (0..max).step_by(3.min(max as usize)) {
                for b in 0..max {
                    assert_eq!(adder.add(a, b), a + b, "p={p}, {a}+{b}");
                }
            }
        }
    }

    #[test]
    fn ripple_carries_out_top_bit() {
        let adder = RippleAdder::new(4);
        assert_eq!(adder.add(15, 15), 30); // needs the p+1-th bit
        assert_eq!(adder.add(15, 1), 16);
    }

    #[test]
    fn ripple_structure_is_one_dimensional_uniform() {
        let adder = RippleAdder::new(8);
        assert_eq!(adder.index_set().dim(), 1);
        let d = adder.dependences();
        assert_eq!(d.len(), 1);
        assert_eq!(d.get(0).vector, IVec::from([1]));
        assert!(d.all_uniform_over(&adder.index_set()));
        assert_eq!(adder.nest().statements.len(), 2);
        assert_eq!(adder.latency(), 8);
    }

    #[test]
    fn carry_save_identity() {
        let csa = CarrySaveAdder::new(5);
        for (x, y, z) in [(31, 31, 31), (1, 2, 4), (0, 0, 0), (21, 10, 17)] {
            let (s, c) = csa.compress(x, y, z);
            assert_eq!(s + 2 * c, x + y + z, "{x}+{y}+{z}");
        }
        assert_eq!(csa.latency(), 1);
    }

    proptest! {
        #[test]
        fn prop_ripple_add(p in 1usize..30, seed in any::<u64>()) {
            let mask = (1u128 << p) - 1;
            let a = (seed as u128) & mask;
            let b = (seed as u128).rotate_right(13) & mask;
            prop_assert_eq!(RippleAdder::new(p).add(a, b), a + b);
        }

        #[test]
        fn prop_carry_save_weights(p in 1usize..30, seed in any::<u64>()) {
            let mask = (1u128 << p) - 1;
            let x = (seed as u128) & mask;
            let y = (seed as u128).rotate_left(7) & mask;
            let z = (seed as u128).rotate_left(31) & mask;
            let (s, c) = CarrySaveAdder::new(p).compress(x, y, z);
            prop_assert_eq!(s + 2 * c, x + y + z);
        }
    }
}
