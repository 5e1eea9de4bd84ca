//! Carry-lookahead (parallel-prefix) addition — the catalogue's counterpoint.
//!
//! Every algorithm in Section 3.1's catalogue (add-shift, carry-save,
//! ripple) is a **uniform dependence algorithm**: constant dependence
//! vectors, which is what lets Theorem 3.1 compose them and Definition 4.1
//! map them. Carry-lookahead addition is the classic structure that is
//! *not*: its Kogge–Stone prefix tree combines generate/propagate pairs at
//! distance `2^{level}` — the dependence **distance grows with the level
//! index**, so no finite set of constant vectors describes it. This module
//! implements the functional model (bit-exact, `O(log p)` levels) and makes
//! the non-uniformity checkable, documenting precisely where the paper's
//! framework stops and why its arrays are built from ripple/carry-save
//! cells instead.

use crate::bitcell::{from_bits, to_bits, Bit};
use bitlevel_linalg::IVec;

/// A Kogge–Stone carry-lookahead adder for `p`-bit operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CarryLookahead {
    /// Operand width `p ≥ 1`.
    pub p: usize,
}

impl CarryLookahead {
    /// Creates the adder.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn new(p: usize) -> Self {
        assert!(p >= 1, "width must be at least 1");
        CarryLookahead { p }
    }

    /// Number of prefix levels: `⌈log₂ p⌉`.
    pub fn levels(&self) -> u32 {
        usize::BITS - (self.p - 1).leading_zeros()
    }

    /// Latency in cell delays: one G/P preparation level, the prefix levels,
    /// and one sum level — `O(log p)`, vs the ripple adder's `O(p)`.
    pub fn latency(&self) -> u64 {
        2 + self.levels() as u64
    }

    /// Adds two `p`-bit numbers through the explicit prefix network,
    /// returning the `p+1`-bit sum.
    ///
    /// # Panics
    /// Panics if an operand exceeds `p` bits.
    pub fn add(&self, a: u128, b: u128) -> u128 {
        let p = self.p;
        let ab = to_bits(a, p);
        let bb = to_bits(b, p);

        // Level 0: generate/propagate per bit.
        let mut g: Vec<Bit> = (0..p).map(|i| ab[i] & bb[i]).collect();
        let mut pr: Vec<Bit> = (0..p).map(|i| ab[i] ^ bb[i]).collect();

        // Prefix levels: combine with the element 2^{level-1} positions back.
        // THIS is the non-uniform dependence: the distance doubles per level.
        let mut dist = 1usize;
        while dist < p {
            let (gprev, pprev) = (g.clone(), pr.clone());
            for i in dist..p {
                g[i] = gprev[i] | (pprev[i] & gprev[i - dist]);
                pr[i] = pprev[i] & pprev[i - dist];
            }
            dist *= 2;
        }

        // Sum level: s_i = a_i ⊕ b_i ⊕ carry_{i-1}, carry_i = prefix g_i.
        let mut bits = Vec::with_capacity(p + 1);
        for i in 0..p {
            let carry_in = if i == 0 { false } else { g[i - 1] };
            bits.push(ab[i] ^ bb[i] ^ carry_in);
        }
        bits.push(g[p - 1]);
        from_bits(&bits)
    }

    /// The dependence *distances* used by each prefix level — `1, 2, 4, …` —
    /// demonstrating that the structure has no constant dependence matrix:
    /// a uniform dependence algorithm would need a single finite vector set
    /// valid at every point.
    pub fn level_distances(&self) -> Vec<IVec> {
        let mut out = Vec::new();
        let mut dist = 1i64;
        while (dist as usize) < self.p {
            // (level, bit) space: one level down, `dist` bits back.
            out.push(IVec::from([1, -dist]));
            dist *= 2;
        }
        out
    }

    /// True iff the prefix network is a uniform dependence algorithm — i.e.
    /// all level distances coincide. Only degenerate widths (`p ≤ 2`, a
    /// single level) qualify; the general structure is non-uniform, which is
    /// the documented boundary of the paper's framework.
    pub fn is_uniform_dependence_algorithm(&self) -> bool {
        self.level_distances().len() <= 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exhaustive_small_widths() {
        for p in 1..=6usize {
            let add = CarryLookahead::new(p);
            let max = 1u128 << p;
            for a in 0..max {
                for b in 0..max {
                    assert_eq!(add.add(a, b), a + b, "p={p}: {a}+{b}");
                }
            }
        }
    }

    #[test]
    fn logarithmic_latency_beats_ripple() {
        use crate::RippleAdder;
        for p in [8usize, 16, 32, 64] {
            let cla = CarryLookahead::new(p);
            let ripple = RippleAdder::new(p);
            assert!(cla.latency() < ripple.latency(), "p={p}");
        }
        assert_eq!(CarryLookahead::new(16).levels(), 4);
        assert_eq!(CarryLookahead::new(17).levels(), 5);
    }

    #[test]
    fn non_uniformity_is_structural() {
        // The level distances double: 1, 2, 4, … — no constant vector set.
        let cla = CarryLookahead::new(16);
        let dists = cla.level_distances();
        assert_eq!(dists.len(), 4);
        assert_eq!(dists[0], IVec::from([1, -1]));
        assert_eq!(dists[3], IVec::from([1, -8]));
        assert!(!cla.is_uniform_dependence_algorithm());
        // Degenerate widths collapse to a single level and are uniform.
        assert!(CarryLookahead::new(2).is_uniform_dependence_algorithm());
    }

    proptest! {
        #[test]
        fn prop_addition(p in 1usize..40, seed in any::<u64>()) {
            let mask = (1u128 << p) - 1;
            let a = (seed as u128) & mask;
            let b = (seed as u128).rotate_left(19) & mask;
            prop_assert_eq!(CarryLookahead::new(p).add(a, b), a + b);
        }

        /// Agreement with the (uniform-dependence) ripple adder: same sums,
        /// different dataflow class.
        #[test]
        fn prop_agrees_with_ripple(p in 1usize..30, seed in any::<u64>()) {
            let mask = (1u128 << p) - 1;
            let a = (seed as u128) & mask;
            let b = (seed as u128).rotate_right(7) & mask;
            prop_assert_eq!(
                CarryLookahead::new(p).add(a, b),
                crate::RippleAdder::new(p).add(a, b)
            );
        }
    }
}
