//! Functional, bit-exact simulation of the Expansion II bit-level matrix
//! multiplication array (the architecture of Figs. 4 and 5).
//!
//! Every cell of the `u×u×u×p×p` compound index space executes the full-adder
//! semantics implied by the dependence structure (3.12):
//!
//! * `x` bits (`x(j₁,j₃)` bit `i₂`) enter a tile on the `i₁ = 1` edge from
//!   the previous `j₂` (d̄₁) and ripple down `i₁` (d̄₄);
//! * `y` bits (`y(j₃,j₂)` bit `i₁`) enter on the `i₂ = 1` edge from the
//!   previous `j₁` (d̄₂) and ripple along `i₂` (d̄₅);
//! * each tile runs a full add-shift multiplication (partial sums along
//!   d̄₆ = `[0̄,1,−1]ᵀ`, carries along d̄₅);
//! * the completed `2p−1` result bits of the accumulator `z(j₁,j₂,j₃−1)` are
//!   injected at the boundary points `i₁ = p` or `i₂ = 1` (d̄₃ at `q̄₂`),
//!   making those cells 4–5-input wide adders whose second carry travels
//!   along d̄₇ = `[0̄,0,2]ᵀ` on the `i₁ = p` plane.
//!
//! ## Arithmetic width
//!
//! The paper's accumulator is `2p−1` bits wide. Carries of weight `2^{2p-1}`
//! and above leave the index set (exactly as in the paper's structure), so
//! the array computes `Z = X·Y mod 2^{2p−1}` — **exact** whenever every
//! accumulated entry fits in `2p−1` bits. [`BitMatmulArray::max_safe_entry`]
//! gives an operand bound that guarantees exactness; the carry re-entry
//! wiring of [`bitlevel_arith::AddShift`] (diagonal boundary input
//! `s(i₁−1, p+1) := c(i₁−1, p)`, a d̄₄-direction edge) is applied inside each
//! tile so no *internal* carry is lost (see the deviation note in
//! `bitlevel-arith`).

use bitlevel_arith::{from_bits, to_bits, wide_add, Bit};

/// The Expansion II bit-level matmul array for `u×u` matrices of `p`-bit
/// words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitMatmulArray {
    /// Matrix dimension `u ≥ 1`.
    pub u: usize,
    /// Word length `p ≥ 1`.
    pub p: usize,
}

/// Outcome of one array run.
#[derive(Debug, Clone)]
pub struct BitMatmulRun {
    /// The product matrix, each entry reduced mod `2^{2p−1}`.
    pub z: Vec<Vec<u128>>,
    /// Full-adder (3-input) cell evaluations performed.
    pub narrow_cells: u64,
    /// Wide (4–5-input) cell evaluations performed (the `q̄₂` boundary).
    pub wide_cells: u64,
}

impl BitMatmulArray {
    /// Creates the array.
    ///
    /// # Panics
    /// Panics if `u == 0` or `p == 0`.
    pub fn new(u: usize, p: usize) -> Self {
        assert!(u >= 1 && p >= 1, "array dimensions must be positive");
        BitMatmulArray { u, p }
    }

    /// Largest operand entry such that `u` accumulated products are
    /// guaranteed to fit in the `2p−1`-bit accumulator:
    /// `u·m² < 2^{2p−1}` and `m < 2^p`.
    pub fn max_safe_entry(&self) -> u128 {
        let acc_limit = 1u128 << (2 * self.p - 1);
        let mut m = (1u128 << self.p) - 1;
        while m > 0 && (self.u as u128) * m * m >= acc_limit {
            m -= 1;
        }
        m
    }

    /// Runs the array on `x`, `y` (`u×u` matrices of `p`-bit nonnegative
    /// entries) and returns `Z = X·Y mod 2^{2p−1}` together with cell counts.
    ///
    /// # Panics
    /// Panics if the matrices are not `u×u` or an entry exceeds `p` bits.
    pub fn run(&self, x: &[Vec<u128>], y: &[Vec<u128>]) -> BitMatmulRun {
        let (u, p) = (self.u, self.p);
        assert_eq!(x.len(), u, "x must be u x u");
        assert_eq!(y.len(), u, "y must be u x u");

        // Operand bits, LSB first: xb[j1][j3][i2-1], yb[j3][j2][i1-1].
        let xb: Vec<Vec<Vec<Bit>>> = x
            .iter()
            .map(|row| {
                assert_eq!(row.len(), u, "x must be u x u");
                row.iter().map(|&v| to_bits(v, p)).collect()
            })
            .collect();
        let yb: Vec<Vec<Vec<Bit>>> = y
            .iter()
            .map(|row| {
                assert_eq!(row.len(), u, "y must be u x u");
                row.iter().map(|&v| to_bits(v, p)).collect()
            })
            .collect();

        let mut narrow_cells = 0u64;
        let mut wide_cells = 0u64;

        // Accumulator bit state per (j1, j2): the 2p−1 result bits of the
        // most recent tile, stored in "grid position" form: s[i1][i2] of the
        // last completed tile (only the boundary positions carry the result).
        // We keep the whole s grid per (j1, j2) because the injection uses
        // exactly the producing positions (i, 1) and (p, i2).
        let mut prev_s: Vec<Vec<Vec<Vec<Bit>>>> = vec![vec![vec![vec![false; p]; p]; u]; u];

        let mut result = vec![vec![0u128; u]; u];

        // Iterate tiles in j3 order (the accumulation recurrence) — j1/j2
        // tiles are independent; within a tile, row-major (i1 asc, i2 asc) is
        // a topological order of the intra-tile dependences (c: i2−1;
        // s-diagonal: i1−1, i2+1; c': i2−2; injection: previous j3).
        for j3 in 0..u {
            for j1 in 0..u {
                for j2 in 0..u {
                    let mut s = vec![vec![false; p]; p];
                    let mut c = vec![vec![false; p]; p];
                    let mut cp = vec![vec![false; p]; p]; // second carries (i1 = p row)
                    for i1 in 1..=p {
                        for i2 in 1..=p {
                            // d̄₁/d̄₄: the x bit of x(j1, j3), bit index i2.
                            let xbit = xb[j1][j3][i2 - 1];
                            // d̄₂/d̄₅: the y bit of y(j3, j2), bit index i1.
                            let ybit = yb[j3][j2][i1 - 1];
                            let pp = xbit & ybit;
                            // Carry chain along i2 (d̄₅); zero at i2 = 1.
                            let c_in = if i2 > 1 { c[i1 - 1][i2 - 2] } else { false };
                            // Partial-sum diagonal (d̄₆); boundary rules as in
                            // the add-shift tile, with carry re-entry at
                            // i2 = p (exactness fix, see module docs).
                            let s_in = if i1 == 1 {
                                false
                            } else if i2 == p {
                                c[i1 - 2][p - 1]
                            } else {
                                s[i1 - 2][i2]
                            };
                            // Injection of the previous accumulator bit at
                            // the boundary q̄₂ (d̄₃); zero at j3 = 0 (paper's
                            // z(j1, j2, 0) = 0).
                            let on_boundary = i1 == p || i2 == 1;
                            let inject = if on_boundary && j3 > 0 {
                                prev_s[j1][j2][i1 - 1][i2 - 1]
                            } else {
                                false
                            };
                            // Second-carry chain along i₂ on the i1 = p plane
                            // (d̄₇).
                            let cp_in = if i1 == p && i2 > 2 {
                                cp[p - 1][i2 - 3]
                            } else {
                                false
                            };

                            if on_boundary && j3 > 0 {
                                let inputs = [pp, c_in, s_in, inject, cp_in];
                                let used: Vec<Bit> = if i1 == p {
                                    inputs.to_vec()
                                } else {
                                    // Eastern boundary (i2 = 1): no carry-in,
                                    // no second carry.
                                    vec![pp, s_in, inject]
                                };
                                let (sb, cb, cpb) = wide_add(&used);
                                s[i1 - 1][i2 - 1] = sb;
                                c[i1 - 1][i2 - 1] = cb;
                                cp[i1 - 1][i2 - 1] = cpb;
                                wide_cells += 1;
                            } else {
                                let (sb, cb) = bitlevel_arith::full_add(pp, c_in, s_in);
                                s[i1 - 1][i2 - 1] = sb;
                                c[i1 - 1][i2 - 1] = cb;
                                narrow_cells += 1;
                            }
                        }
                    }
                    prev_s[j1][j2] = s;

                    // After the last tile, extract the 2p−1 accumulator bits
                    // exactly as eq. (3.1)'s result rule prescribes.
                    if j3 == u - 1 {
                        let s = &prev_s[j1][j2];
                        let mut bits: Vec<Bit> = Vec::with_capacity(2 * p - 1);
                        for i in 1..=p {
                            bits.push(s[i - 1][0]); // s_i = s(i, 1)
                        }
                        for i in p + 1..=2 * p - 1 {
                            bits.push(s[p - 1][i - p]); // s_i = s(p, i−p+1)
                        }
                        result[j1][j2] = from_bits(&bits);
                    }
                }
            }
        }

        BitMatmulRun {
            z: result,
            narrow_cells,
            wide_cells,
        }
    }

    /// Convenience wrapper returning just the product matrix.
    ///
    /// # Examples
    ///
    /// ```
    /// use bitlevel_systolic::BitMatmulArray;
    /// let arr = BitMatmulArray::new(2, 4);
    /// let x = vec![vec![3u128, 1], vec![2, 4]];
    /// let y = vec![vec![1u128, 2], vec![5, 1]];
    /// assert_eq!(arr.multiply(&x, &y), vec![vec![8, 7], vec![22, 8]]);
    /// ```
    pub fn multiply(&self, x: &[Vec<u128>], y: &[Vec<u128>]) -> Vec<Vec<u128>> {
        self.run(x, y).z
    }

    /// The reference product mod `2^{2p−1}` for validation.
    pub fn reference(&self, x: &[Vec<u128>], y: &[Vec<u128>]) -> Vec<Vec<u128>> {
        let u = self.u;
        let mask = (1u128 << (2 * self.p - 1)) - 1;
        let mut z = vec![vec![0u128; u]; u];
        for i in 0..u {
            for j in 0..u {
                let mut acc = 0u128;
                for k in 0..u {
                    acc = (acc + x[i][k] * y[k][j]) & mask;
                }
                z[i][j] = acc;
            }
        }
        z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mat(u: usize, f: impl Fn(usize, usize) -> u128) -> Vec<Vec<u128>> {
        (0..u).map(|i| (0..u).map(|j| f(i, j)).collect()).collect()
    }

    #[test]
    fn identity_times_identity() {
        let a = BitMatmulArray::new(3, 3);
        let id = mat(3, |i, j| (i == j) as u128);
        assert_eq!(a.multiply(&id, &id), id);
    }

    #[test]
    fn paper_sized_instance_u3_p3() {
        // Fig. 4's p = u = 3 configuration with safe entries.
        let a = BitMatmulArray::new(3, 3);
        let m = a.max_safe_entry();
        assert!(m >= 3, "need some headroom, got {m}");
        let x = mat(3, |i, j| ((i * 3 + j) as u128) % (m + 1));
        let y = mat(3, |i, j| ((i * 2 + j + 1) as u128) % (m + 1));
        assert_eq!(a.multiply(&x, &y), a.reference(&x, &y));
    }

    #[test]
    fn exact_when_entries_within_safe_bound() {
        for (u, p) in [(2usize, 2usize), (2, 4), (3, 4), (4, 5)] {
            let a = BitMatmulArray::new(u, p);
            let m = a.max_safe_entry();
            let x = mat(u, |i, j| ((7 * i + 3 * j + 1) as u128) % (m + 1));
            let y = mat(u, |i, j| ((5 * i + j + 2) as u128) % (m + 1));
            let got = a.multiply(&x, &y);
            // With safe entries the mod never bites: compare to the true
            // product.
            for i in 0..u {
                for j in 0..u {
                    let want = (0..u).map(|k| x[i][k] * y[k][j]).sum::<u128>();
                    assert_eq!(got[i][j], want, "u={u} p={p} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn wraps_modulo_accumulator_width() {
        // Deliberately overflow the 2p−1-bit accumulator: the array must
        // agree with the mod-2^{2p−1} reference (the paper's fixed-width z).
        let a = BitMatmulArray::new(2, 3);
        let x = mat(2, |_, _| 7); // max 3-bit value
        let y = mat(2, |_, _| 7);
        // 7·7·2 = 98 ≥ 2^5 = 32: overflow certain.
        assert_eq!(a.multiply(&x, &y), a.reference(&x, &y));
    }

    #[test]
    fn wide_cells_count_matches_boundary_geometry() {
        // Wide adders run at q̄₂ (2p−1 points per tile) for every tile with
        // j3 > 0: u²·(u−1)·(2p−1) wide evaluations.
        let (u, p) = (3usize, 3usize);
        let a = BitMatmulArray::new(u, p);
        let x = mat(u, |_, _| 1);
        let y = mat(u, |_, _| 1);
        let run = a.run(&x, &y);
        let expected_wide = (u * u * (u - 1) * (2 * p - 1)) as u64;
        assert_eq!(run.wide_cells, expected_wide);
        let total = (u * u * u * p * p) as u64;
        assert_eq!(run.narrow_cells + run.wide_cells, total);
    }

    #[test]
    fn single_word_case_reduces_to_addshift() {
        // u = 1: the array is exactly one add-shift multiplier.
        let p = 4;
        let a = BitMatmulArray::new(1, p);
        let asft = bitlevel_arith::AddShift::new(p);
        for (xa, ya) in [(11u128, 13u128), (15, 15), (9, 6), (0, 7)] {
            let z = a.multiply(&[vec![xa]], &[vec![ya]]);
            let mask = (1u128 << (2 * p - 1)) - 1;
            assert_eq!(z[0][0], asft.multiply(xa, ya) & mask);
        }
    }

    proptest! {
        #[test]
        fn prop_exact_within_safe_bound(u in 1usize..4, p in 2usize..6, seed in any::<u64>()) {
            let a = BitMatmulArray::new(u, p);
            let m = a.max_safe_entry();
            prop_assume!(m > 0);
            let mut state = seed | 1;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as u128 % (m + 1)
            };
            let x: Vec<Vec<u128>> = (0..u).map(|_| (0..u).map(|_| next()).collect()).collect();
            let y: Vec<Vec<u128>> = (0..u).map(|_| (0..u).map(|_| next()).collect()).collect();
            let got = a.multiply(&x, &y);
            for i in 0..u {
                for j in 0..u {
                    let want = (0..u).map(|k| x[i][k] * y[k][j]).sum::<u128>();
                    prop_assert_eq!(got[i][j], want);
                }
            }
        }

        #[test]
        fn prop_wraparound_matches_reference(u in 1usize..3, p in 2usize..4, seed in any::<u64>()) {
            let a = BitMatmulArray::new(u, p);
            let maxv = (1u128 << p) - 1;
            let mut state = seed | 1;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as u128 % (maxv + 1)
            };
            let x: Vec<Vec<u128>> = (0..u).map(|_| (0..u).map(|_| next()).collect()).collect();
            let y: Vec<Vec<u128>> = (0..u).map(|_| (0..u).map(|_| next()).collect()).collect();
            prop_assert_eq!(a.multiply(&x, &y), a.reference(&x, &y));
        }
    }
}
