//! Non-restoring array division.
//!
//! Section 1 of the paper lists division among the word-wise operations the
//! arithmetic-algorithm catalogue must cover ("word-level algorithms, such as
//! matrix multiplications, LU decompositions and convolutions, involve only a
//! limited number of arithmetic algorithms for multiplication, addition and
//! division"). This module supplies the classic **non-restoring
//! controlled-add-subtract (CAS) array** divider: `p` rows of CAS cells, the
//! `k`-th row conditionally adding or subtracting the divisor from the
//! shifted partial remainder; the sign out of each row is the (raw) quotient
//! bit and the next row's control.
//!
//! Dependence structure of the array (cell `(i₁, i₂)` = row `i₁`, bit
//! position `i₂`):
//!
//! * divisor bits travel down the rows: `[1, 0]ᵀ`;
//! * the carry/borrow and the row control `T` ripple along the row:
//!   `[0, 1]ᵀ`;
//! * the partial remainder shifts left between rows: `[1, 1]ᵀ` (row `i₁`'s
//!   cell at weight `w` consumes row `i₁−1`'s bit of weight `w−1`);
//! * the sign (control) feeds back from the top of one row to the bottom of
//!   the next: `[1, −(w−1)]ᵀ`, valid only at `i₂ = 1` — a genuinely long,
//!   conditional dependence, which is exactly why division arrays are harder
//!   to pipeline than multiplication arrays.
//!
//! The functional model performs every row operation through real full-adder
//! cells (two's-complement CAS), not native division.

use crate::bitcell::{full_add, to_bits, Bit};
use bitlevel_ir::{BoxSet, Dependence, DependenceSet, Predicate};

/// A non-restoring divider producing a `p`-bit quotient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NonRestoringDivider {
    /// Quotient width `p ≥ 1` (divisor is also `p` bits).
    pub p: usize,
}

impl NonRestoringDivider {
    /// Creates the divider.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn new(p: usize) -> Self {
        assert!(p >= 1, "quotient width must be at least 1");
        NonRestoringDivider { p }
    }

    /// The cell array: `p` rows × `w = 2p+1` columns (partial remainders are
    /// two's-complement values of width `w`).
    pub fn index_set(&self) -> BoxSet {
        BoxSet::new(
            bitlevel_linalg::IVec::from([1, 1]),
            bitlevel_linalg::IVec::from([self.p as i64, 2 * self.p as i64 + 1]),
        )
    }

    /// The dependence structure described in the module docs.
    pub fn dependences(&self) -> DependenceSet {
        let w = 2 * self.p as i64 + 1;
        DependenceSet::new(vec![
            Dependence::uniform([1, 0], "b"),
            Dependence::uniform([0, 1], "c,T"),
            Dependence::uniform([1, 1], "r"),
            Dependence::conditional([1, -(w - 1)], "sign", Predicate::eq_const(1, 1)),
        ])
    }

    /// Divides `n` by `d` through the CAS array: returns `(quotient,
    /// remainder)` with `n = q·d + r`, `0 ≤ r < d`.
    ///
    /// # Panics
    /// Panics if `d == 0` or the quotient does not fit in `p` bits
    /// (i.e. `n ≥ d·2^p`).
    pub fn divide(&self, n: u128, d: u128) -> (u128, u128) {
        assert!(d != 0, "division by zero");
        let p = self.p;
        assert!(
            n < d << p,
            "quotient overflow: {n} / {d} does not fit in {p} bits"
        );
        let w = 2 * p + 1; // two's-complement working width

        // Partial remainder R as a w-bit two's-complement bit vector,
        // initialised to the dividend. Invariant (standard non-restoring
        // bound): before processing digit k, R ∈ [−d·2^{k+1}, d·2^{k+1}),
        // so R always fits in w bits.
        let mut r = to_bits(n, w);
        let dbits = to_bits(d, p);

        // Signed quotient digits s_k ∈ {+1, −1}: subtract (s = +1) when the
        // current remainder is nonnegative, add otherwise.
        let mut subtract = true;
        let mut q_signed: i128 = 0;
        for row in 0..p {
            let k = p - 1 - row;
            // Divisor aligned at d·2^k (row k's operand).
            let mut dshift = vec![false; w];
            dshift[k..k + p].copy_from_slice(&dbits);
            // CAS row: R ← R ∓ d·2^k through full adders (two's complement:
            // subtraction adds the complement with carry-in 1).
            let mut carry = subtract;
            for i in 0..w {
                let b = dshift[i] ^ subtract;
                let (s, c) = full_add(r[i], b, carry);
                r[i] = s;
                carry = c;
            }
            q_signed += if subtract { 1i128 << k } else { -(1i128 << k) };
            subtract = !r[w - 1]; // next row's control = sign of R
        }

        // N = d·q_signed + R; correct a final negative remainder.
        let mut rem = signed_value(&r);
        if rem < 0 {
            rem += d as i128;
            q_signed -= 1;
        }
        debug_assert!(rem >= 0 && (rem as u128) < d);
        assert!(q_signed >= 0, "internal: negative quotient");
        (q_signed as u128, rem as u128)
    }

    /// Row latency of the array: `p` CAS rows, each a `2p+1`-bit ripple —
    /// `O(p²)` cell delays, the divider analogue of add-shift.
    pub fn word_latency(&self) -> u64 {
        (self.p * (2 * self.p + 1)) as u64
    }
}

/// Interprets a two's-complement bit vector (LSB first).
fn signed_value(bits: &[Bit]) -> i128 {
    let w = bits.len();
    let mut v: i128 = 0;
    for (i, &b) in bits.iter().enumerate().take(w - 1) {
        if b {
            v += 1i128 << i;
        }
    }
    if bits[w - 1] {
        v -= 1i128 << (w - 1);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitlevel_linalg::IVec;
    use proptest::prelude::*;

    #[test]
    fn exhaustive_small_widths() {
        for p in 1..=5usize {
            let div = NonRestoringDivider::new(p);
            let dmax = 1u128 << p;
            for d in 1..dmax {
                let nmax = d << p;
                for n in (0..nmax).step_by(((nmax / 64).max(1)) as usize) {
                    let (q, r) = div.divide(n, d);
                    assert_eq!(q, n / d, "p={p}: {n}/{d}");
                    assert_eq!(r, n % d, "p={p}: {n}%{d}");
                }
            }
        }
    }

    #[test]
    fn edge_cases() {
        let div = NonRestoringDivider::new(4);
        assert_eq!(div.divide(0, 7), (0, 0));
        assert_eq!(div.divide(6, 7), (0, 6));
        assert_eq!(div.divide(7, 7), (1, 0));
        assert_eq!(div.divide(15 * 15 + 14, 15), (15, 14)); // max quotient, max rem
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn zero_divisor_panics() {
        let _ = NonRestoringDivider::new(3).divide(5, 0);
    }

    #[test]
    #[should_panic(expected = "quotient overflow")]
    fn quotient_overflow_panics() {
        let _ = NonRestoringDivider::new(3).divide(8 * 3, 3);
    }

    #[test]
    fn dependence_structure_shape() {
        let div = NonRestoringDivider::new(4);
        let deps = div.dependences();
        assert_eq!(deps.len(), 4);
        // Three uniform flows plus the long conditional sign feedback.
        assert!(deps.get(0).is_uniform_over(&div.index_set()));
        assert!(deps.get(2).is_uniform_over(&div.index_set()));
        let sign = deps.get(3);
        assert_eq!(sign.vector, IVec::from([1, -8])); // w−1 = 2p
        assert!(!sign.is_uniform_over(&div.index_set()));
        // The sign feedback is the long-wire culprit: L∞ length grows with p.
        assert!(sign.vector.linf_norm() > deps.get(2).vector.linf_norm());
    }

    #[test]
    fn latency_is_quadratic_like_addshift() {
        assert_eq!(NonRestoringDivider::new(4).word_latency(), 4 * 9);
        assert!(
            NonRestoringDivider::new(8).word_latency()
                > 2 * NonRestoringDivider::new(4).word_latency()
        );
    }

    proptest! {
        #[test]
        fn prop_division_identity(p in 1usize..12, seed in any::<u64>()) {
            let div = NonRestoringDivider::new(p);
            let dmask = (1u128 << p) - 1;
            let d = ((seed as u128) & dmask).max(1);
            let n = (seed as u128).rotate_left(23) % (d << p);
            let (q, r) = div.divide(n, d);
            prop_assert_eq!(q * d + r, n);
            prop_assert!(r < d);
            prop_assert_eq!(q, n / d);
        }
    }
}
