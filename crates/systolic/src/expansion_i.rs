//! Functional simulation of the **Expansion I** matmul structure, with exact
//! carry accounting.
//!
//! Expansion I (eq. (3.11b)) forwards the `p²` partial-sum bits of
//! `z(j̄−h̄₃)` point-to-point (`d̄₃` uniform) and drains the tile diagonally
//! only on the last hyperplane (`d̄₆` at `jₙ = uₙ`, with the second carry
//! `d̄₇` at `q̄₁`). Its interior cells are plain 3-input full adders
//! (`pp + carry-in + forwarded partial sum`), which is exactly why the paper
//! calls it "more computationally uniform".
//!
//! Taken literally, the structure has no consumer for the carry out of each
//! row's last cell (`c(j̄, i₁, p)`, weight `i₁+p−1`): those bits leave the
//! index set, just like the literal add-shift boundary of eq. (3.1). Rather
//! than silently wiring in a fix that changes the paper's dependence
//! structure, this simulator executes the **literal** semantics and records
//! every dropped carry with its weight. The accounting identity
//!
//! ```text
//! result + Σ_dropped 2^weight ≡ Σ_k x(j₁,k)·y(k,j₂)   (mod 2^{2p−1})
//! ```
//!
//! is then *exactly* checkable — the tests verify it for random operands, so
//! the simulator is verified bit-for-bit even though the structure itself is
//! lossy. When no carry is dropped (e.g. sparse operands), the result is
//! exact; [`ExpansionIMatmul::run`] reports which.

use bitlevel_arith::{from_bits, full_add, to_bits, wide_add, Bit};

/// Functional simulator for the Expansion I bit-level matmul.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpansionIMatmul {
    /// Matrix dimension `u ≥ 1`.
    pub u: usize,
    /// Word length `p ≥ 1`.
    pub p: usize,
}

/// One dropped carry: where, and with what weight (bit position − 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DroppedCarry {
    /// Word-level accumulator coordinates `(j₁, j₂)` (1-based).
    pub block: (usize, usize),
    /// Accumulation step `j₃` (1-based).
    pub step: usize,
    /// Power-of-two weight of the lost bit.
    pub weight: u32,
}

/// Result of an Expansion I run.
#[derive(Debug, Clone)]
pub struct ExpansionIRun {
    /// The computed product bits (mod `2^{2p−1}`, minus dropped carries).
    pub z: Vec<Vec<u128>>,
    /// Every carry the literal structure lost.
    pub dropped: Vec<DroppedCarry>,
    /// 3-input cell evaluations (the uniform interior).
    pub narrow_cells: u64,
    /// Wide (4–5-input) cell evaluations (only the `j₃ = u` drain plane —
    /// Expansion I's uniformity claim, measurable).
    pub wide_cells: u64,
}

impl ExpansionIRun {
    /// True iff nothing was dropped — the result is the exact product
    /// (mod `2^{2p−1}`).
    pub fn is_exact(&self) -> bool {
        self.dropped.is_empty()
    }

    /// The value lost at block `(j₁, j₂)` (sum of dropped carry weights).
    pub fn lost_value(&self, j1: usize, j2: usize) -> u128 {
        self.dropped
            .iter()
            .filter(|d| d.block == (j1, j2))
            .map(|d| 1u128 << d.weight)
            .sum()
    }
}

impl ExpansionIMatmul {
    /// Creates the simulator.
    ///
    /// # Panics
    /// Panics if `u == 0` or `p == 0`.
    pub fn new(u: usize, p: usize) -> Self {
        assert!(u >= 1 && p >= 1, "dimensions must be positive");
        ExpansionIMatmul { u, p }
    }

    /// Runs the literal Expansion I structure on `u×u` matrices of `p`-bit
    /// entries.
    ///
    /// # Panics
    /// Panics on shape mismatches or operands exceeding `p` bits.
    pub fn run(&self, x: &[Vec<u128>], y: &[Vec<u128>]) -> ExpansionIRun {
        let (u, p) = (self.u, self.p);
        assert_eq!(x.len(), u, "x must be u x u");
        assert_eq!(y.len(), u, "y must be u x u");
        let xb: Vec<Vec<Vec<Bit>>> = x
            .iter()
            .map(|r| {
                assert_eq!(r.len(), u);
                r.iter().map(|&v| to_bits(v, p)).collect()
            })
            .collect();
        let yb: Vec<Vec<Vec<Bit>>> = y
            .iter()
            .map(|r| {
                assert_eq!(r.len(), u);
                r.iter().map(|&v| to_bits(v, p)).collect()
            })
            .collect();

        let mut dropped = Vec::new();
        let mut narrow_cells = 0u64;
        let mut wide_cells = 0u64;
        let mut result = vec![vec![0u128; u]; u];

        for j1 in 1..=u {
            for j2 in 1..=u {
                // Forwarded partial-sum state z(j₃, i₁, i₂).
                let mut zfwd = vec![vec![false; p]; p];
                for j3 in 1..=u {
                    let mut s = vec![vec![false; p]; p];
                    let mut c = vec![vec![false; p]; p];
                    let mut cp = vec![vec![false; p]; p];
                    let last = j3 == u;
                    for i1 in 1..=p {
                        for i2 in 1..=p {
                            let pp = xb[j1 - 1][j3 - 1][i2 - 1] & yb[j3 - 1][j2 - 1][i1 - 1];
                            let c_in = if i2 > 1 { c[i1 - 1][i2 - 2] } else { false };
                            let fwd = zfwd[i1 - 1][i2 - 1];
                            if !last {
                                // Interior: uniform 3-input full adder.
                                let (sb, cb) = full_add(pp, c_in, fwd);
                                s[i1 - 1][i2 - 1] = sb;
                                c[i1 - 1][i2 - 1] = cb;
                                narrow_cells += 1;
                            } else {
                                // Drain plane: add the diagonal partial sum
                                // (d̄₆, literal zero boundary at i₂ = p) and
                                // the chained second carry (d̄₇).
                                let s_diag = if i1 > 1 && i2 < p {
                                    s[i1 - 2][i2]
                                } else {
                                    false
                                };
                                let cp_in = if i2 > 2 { cp[i1 - 1][i2 - 3] } else { false };
                                let (sb, cb, cpb) = wide_add(&[pp, c_in, fwd, s_diag, cp_in]);
                                s[i1 - 1][i2 - 1] = sb;
                                c[i1 - 1][i2 - 1] = cb;
                                cp[i1 - 1][i2 - 1] = cpb;
                                wide_cells += 1;
                            }
                        }
                        // The literal structure loses the row-end carry
                        // (weight i₁ + p − 1 ≤ 2p − 1; only weights below the
                        // accumulator width count as real loss).
                        if c[i1 - 1][p - 1] && (i1 + p - 1) < 2 * p - 1 {
                            dropped.push(DroppedCarry {
                                block: (j1, j2),
                                step: j3,
                                weight: (i1 + p - 1) as u32,
                            });
                        }
                        if last {
                            // Second carries at the row's last two columns
                            // also leave the set on the drain plane.
                            for dcol in [p - 1, p] {
                                if dcol >= 1 && cp[i1 - 1][dcol - 1] {
                                    let w = (i1 + dcol) as u32; // weight i1+dcol-2+2
                                    if (w as usize) < 2 * p - 1 {
                                        dropped.push(DroppedCarry {
                                            block: (j1, j2),
                                            step: j3,
                                            weight: w,
                                        });
                                    }
                                }
                            }
                        }
                    }
                    zfwd = s.clone();
                    if last {
                        // Extract exactly as the add-shift result rule does.
                        let mut bits: Vec<Bit> = Vec::with_capacity(2 * p - 1);
                        for i in 1..=p {
                            bits.push(s[i - 1][0]);
                        }
                        for i in p + 1..=2 * p - 1 {
                            bits.push(s[p - 1][i - p]);
                        }
                        result[j1 - 1][j2 - 1] = from_bits(&bits);
                    }
                }
            }
        }

        ExpansionIRun {
            z: result,
            dropped,
            narrow_cells,
            wide_cells,
        }
    }

    /// Checks the exact accounting identity for a finished run:
    /// `result + lost ≡ true product (mod 2^{2p−1})` for every entry.
    pub fn accounting_holds(&self, x: &[Vec<u128>], y: &[Vec<u128>], run: &ExpansionIRun) -> bool {
        let (u, p) = (self.u, self.p);
        let mask = (1u128 << (2 * p - 1)) - 1;
        for j1 in 1..=u {
            for j2 in 1..=u {
                let truth: u128 = (0..u).map(|k| x[j1 - 1][k] * y[k][j2 - 1]).sum();
                let recon = (run.z[j1 - 1][j2 - 1] + run.lost_value(j1, j2)) & mask;
                if recon != truth & mask {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // tests index parallel matrices
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mat(u: usize, f: impl Fn(usize, usize) -> u128) -> Vec<Vec<u128>> {
        (0..u).map(|i| (0..u).map(|j| f(i, j)).collect()).collect()
    }

    #[test]
    fn power_of_two_operands_are_exact() {
        // Single-bit rows generate no carries anywhere: the literal
        // structure is exact and equals the native product.
        let sim = ExpansionIMatmul::new(2, 4);
        let x = mat(2, |i, _| 1u128 << i);
        let y = mat(2, |_, j| 1u128 << j);
        let run = sim.run(&x, &y);
        assert!(run.is_exact(), "dropped: {:?}", run.dropped);
        for i in 0..2 {
            for j in 0..2 {
                let want: u128 = (0..2).map(|k| x[i][k] * y[k][j]).sum();
                assert_eq!(run.z[i][j], want);
            }
        }
    }

    #[test]
    fn accounting_identity_on_dense_operands() {
        // Dense operands certainly drop carries; the identity must still
        // hold bit-exactly.
        let sim = ExpansionIMatmul::new(3, 3);
        let x = mat(3, |i, j| ((3 * i + 2 * j + 5) % 8) as u128);
        let y = mat(3, |i, j| ((5 * i + j + 3) % 8) as u128);
        let run = sim.run(&x, &y);
        assert!(!run.dropped.is_empty(), "expected drops for dense operands");
        assert!(sim.accounting_holds(&x, &y, &run));
    }

    #[test]
    fn uniformity_claim_wide_cells_only_on_drain_plane() {
        // "Expansion I is more computationally uniform": all wide cells sit
        // on j₃ = u — exactly u²·p² of them, the rest are 3-input adders.
        let (u, p) = (3usize, 3usize);
        let sim = ExpansionIMatmul::new(u, p);
        let x = mat(u, |_, _| 5);
        let y = mat(u, |_, _| 6);
        let run = sim.run(&x, &y);
        assert_eq!(run.wide_cells, (u * u * p * p) as u64);
        assert_eq!(run.narrow_cells, (u * u * (u - 1) * p * p) as u64);
    }

    #[test]
    fn single_tile_matches_addshift_literal() {
        // u = 1: Expansion I degenerates to one add-shift tile with the
        // paper's literal boundary (drain plane, zero diagonal boundary).
        let p = 3;
        let sim = ExpansionIMatmul::new(1, p);
        let lit = bitlevel_arith::AddShift::paper_literal(p);
        for (a, b) in [(7u128, 3u128), (5, 5), (6, 7), (1, 4)] {
            let run = sim.run(&[vec![a]], &[vec![b]]);
            let mask = (1u128 << (2 * p - 1)) - 1;
            assert_eq!(run.z[0][0], lit.multiply(a, b) & mask, "{a}x{b}");
            assert!(sim.accounting_holds(&[vec![a]], &[vec![b]], &run));
        }
    }

    proptest! {
        /// The accounting identity holds for arbitrary operands: every bit
        /// the literal structure loses is tracked, nothing else is wrong.
        #[test]
        fn prop_accounting_identity(u in 1usize..4, p in 2usize..5, seed in any::<u64>()) {
            let sim = ExpansionIMatmul::new(u, p);
            let mask = (1u128 << p) - 1;
            let mut state = seed | 1;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as u128 & mask
            };
            let x: Vec<Vec<u128>> = (0..u).map(|_| (0..u).map(|_| next()).collect()).collect();
            let y: Vec<Vec<u128>> = (0..u).map(|_| (0..u).map(|_| next()).collect()).collect();
            let run = sim.run(&x, &y);
            prop_assert!(sim.accounting_holds(&x, &y, &run));
        }
    }
}
