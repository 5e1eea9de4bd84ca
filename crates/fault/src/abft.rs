//! Algorithm-based fault tolerance for the bit-level matmul.
//!
//! The classic ABFT construction appends a checksum row and column to the
//! operand matrices so the array computes its own check data. Because the
//! (3.12) structure accumulates mod `2^{2p−1}` (the `s`/`c`/`c'` planes
//! carry exactly `2p−1` result bits per tile), the checksums live in the
//! same residue ring: we derive the expected row/column sums of `Z = X·Y`
//! from the *inputs* — `rowref_i = Σ_k x_ik·(Σ_j y_kj)` and
//! `colref_j = Σ_k (Σ_i x_ik)·y_kj`, all mod `M = 2^{2p−1}` — and compare
//! them with the sums of the drained output. A nonzero difference is a
//! *syndrome*.
//!
//! Why single transient flips can never escape (the zero-SDC argument the
//! E17 sweep measures): a flipped `x` bit propagates only along `d̄₁`/`d̄₄`,
//! corrupting tiles of a single result **row**, so each corrupted column
//! holds exactly one corrupted entry and its column syndrome is the nonzero
//! per-entry delta (every entry lives in `[0, M)`). A flipped `y` bit is
//! the transpose case, caught by row syndromes. Flips of `s`/`c`/`c'` stay
//! inside one `(j₁, j₂)` tile — one corrupted entry, caught by both. Flips
//! that no consumer reads are masked. Multi-fault plans (the Monte Carlo
//! campaign) *can* cancel mod `M`; that residual SDC rate is reported, not
//! asserted away.

/// What happened to one faulted run, relative to the golden output and the
/// checksum syndromes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOutcome {
    /// The output equals the golden product: the fault had no effect.
    Masked,
    /// The output is wrong and at least one syndrome is nonzero.
    Detected,
    /// Silent data corruption: wrong output, all syndromes zero.
    Sdc,
}

impl std::fmt::Display for FaultOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultOutcome::Masked => write!(f, "masked"),
            FaultOutcome::Detected => write!(f, "detected"),
            FaultOutcome::Sdc => write!(f, "sdc"),
        }
    }
}

/// The accumulator modulus of the (3.12) structure: `2^{2p−1}`.
pub fn checksum_modulus(p: usize) -> u128 {
    1u128 << (2 * p - 1)
}

/// Input-derived ABFT reference checksums for one `u×u`, `p`-bit matmul.
#[derive(Debug, Clone, PartialEq)]
pub struct MatmulChecksums {
    modulus: u128,
    /// Expected `Σ_j z_ij mod M` per row `i`.
    pub row_refs: Vec<u128>,
    /// Expected `Σ_i z_ij mod M` per column `j`.
    pub col_refs: Vec<u128>,
}

/// Syndromes of one observed output against the references.
#[derive(Debug, Clone, PartialEq)]
pub struct SyndromeSet {
    /// `(Σ_j z_ij − rowref_i) mod M` per row.
    pub rows: Vec<u128>,
    /// `(Σ_i z_ij − colref_j) mod M` per column.
    pub cols: Vec<u128>,
}

impl SyndromeSet {
    /// True iff every syndrome is zero (the check passes).
    pub fn is_clean(&self) -> bool {
        self.rows.iter().all(|&s| s == 0) && self.cols.iter().all(|&s| s == 0)
    }
}

impl MatmulChecksums {
    /// Derives the reference checksums from the operands alone — the data a
    /// real ABFT array would compute in its appended checksum row/column.
    pub fn derive(x: &[Vec<u128>], y: &[Vec<u128>], p: usize) -> Self {
        let m = checksum_modulus(p);
        let u = x.len();
        // Column sums of X and row sums of Y, reduced as they grow.
        let mut x_colsum = vec![0u128; u];
        let mut y_rowsum = vec![0u128; u];
        for k in 0..u {
            for row in x {
                x_colsum[k] = (x_colsum[k] + row[k]) % m;
            }
            for &v in &y[k] {
                y_rowsum[k] = (y_rowsum[k] + v) % m;
            }
        }
        let row_refs = (0..u)
            .map(|i| (0..u).fold(0u128, |acc, k| (acc + x[i][k] % m * y_rowsum[k]) % m))
            .collect();
        let col_refs = (0..u)
            .map(|j| (0..u).fold(0u128, |acc, k| (acc + x_colsum[k] * (y[k][j] % m)) % m))
            .collect();
        MatmulChecksums {
            modulus: m,
            row_refs,
            col_refs,
        }
    }

    /// The row-`i` syndrome of the output whose entry `(i, j)` is `z(i, j)`.
    /// `M` is a power of two, so every reduction mod `M` is a mask by
    /// `M − 1`, and summing with wraparound mod `2¹²⁸` (a multiple of `M`)
    /// loses nothing.
    fn row_syndrome(&self, i: usize, z: impl Fn(usize, usize) -> u128) -> u128 {
        let sum = (0..self.col_refs.len()).fold(0u128, |acc, j| acc.wrapping_add(z(i, j)));
        sum.wrapping_sub(self.row_refs[i]) & (self.modulus - 1)
    }

    /// The column-`j` syndrome, like [`MatmulChecksums::row_syndrome`].
    fn col_syndrome(&self, j: usize, z: impl Fn(usize, usize) -> u128) -> u128 {
        let sum = (0..self.row_refs.len()).fold(0u128, |acc, i| acc.wrapping_add(z(i, j)));
        sum.wrapping_sub(self.col_refs[j]) & (self.modulus - 1)
    }

    /// Syndrome decoding after drain: observed row/column sums minus the
    /// references, mod `M`.
    pub fn syndromes(&self, observed: &[Vec<u128>]) -> SyndromeSet {
        let z = |i: usize, j: usize| observed[i][j];
        SyndromeSet {
            rows: (0..self.row_refs.len())
                .map(|i| self.row_syndrome(i, z))
                .collect(),
            cols: (0..self.col_refs.len())
                .map(|j| self.col_syndrome(j, z))
                .collect(),
        }
    }

    /// Classifies one faulted run: identical to golden → [`FaultOutcome::Masked`];
    /// wrong with a nonzero syndrome → [`FaultOutcome::Detected`]; wrong with
    /// clean syndromes → [`FaultOutcome::Sdc`].
    pub fn classify(&self, golden: &[Vec<u128>], observed: &[Vec<u128>]) -> FaultOutcome {
        if observed == golden {
            FaultOutcome::Masked
        } else {
            self.classify_corrupt(|i, j| observed[i][j])
        }
    }

    /// Classifies an output already known to differ from the golden
    /// product, given its entries `z(i, j)`: [`FaultOutcome::Sdc`] when
    /// every syndrome is clean, else [`FaultOutcome::Detected`]. Decides
    /// without building the syndrome set.
    pub(crate) fn classify_corrupt(&self, z: impl Fn(usize, usize) -> u128 + Copy) -> FaultOutcome {
        let clean = (0..self.row_refs.len()).all(|i| self.row_syndrome(i, z) == 0)
            && (0..self.col_refs.len()).all(|j| self.col_syndrome(j, z) == 0);
        if clean {
            FaultOutcome::Sdc
        } else {
            FaultOutcome::Detected
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitlevel_systolic::BitMatmulArray;

    fn operands(u: usize, p: usize, seed: u128) -> (Vec<Vec<u128>>, Vec<Vec<u128>>) {
        let max = BitMatmulArray::new(u, p).max_safe_entry();
        let mut s = seed;
        let mut gen = |_| {
            (0..u)
                .map(|_| {
                    s = s
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (s >> 64) % (max + 1)
                })
                .collect::<Vec<_>>()
        };
        (
            (0..u).map(&mut gen).collect(),
            (0..u).map(&mut gen).collect(),
        )
    }

    #[test]
    fn faultless_product_is_masked_with_clean_syndromes() {
        let (u, p) = (3, 3);
        let (x, y) = operands(u, p, 99);
        let golden = BitMatmulArray::new(u, p).reference(&x, &y);
        let cs = MatmulChecksums::derive(&x, &y, p);
        assert!(cs.syndromes(&golden).is_clean());
        assert_eq!(cs.classify(&golden, &golden), FaultOutcome::Masked);
    }

    #[test]
    fn any_single_entry_corruption_is_detected_by_both_syndrome_planes() {
        let (u, p) = (2, 2);
        let (x, y) = operands(u, p, 5);
        let golden = BitMatmulArray::new(u, p).reference(&x, &y);
        let cs = MatmulChecksums::derive(&x, &y, p);
        let m = checksum_modulus(p);
        for i in 0..u {
            for j in 0..u {
                for delta in 1..m {
                    let mut bad = golden.clone();
                    bad[i][j] = (bad[i][j] + delta) % m;
                    let syn = cs.syndromes(&bad);
                    assert_eq!(syn.rows[i], delta);
                    assert_eq!(syn.cols[j], delta);
                    assert_eq!(cs.classify(&golden, &bad), FaultOutcome::Detected);
                }
            }
        }
    }

    #[test]
    fn verdicts_without_syndrome_sets_match_the_syndrome_sets() {
        // Corruptions of up to two entries of a 3x3, p = 2 product (deltas
        // wrapping past M) classify as plain row and column sums mod M say.
        let (u, p) = (3, 2);
        let (x, y) = operands(u, p, 21);
        let golden = BitMatmulArray::new(u, p).reference(&x, &y);
        let cs = MatmulChecksums::derive(&x, &y, p);
        let m = checksum_modulus(p);
        for a in 0..u * u {
            for b in a..u * u {
                for (da, db) in [(1, m - 1), (3, 5), (m - 1, m - 1)] {
                    let mut bad = golden.clone();
                    bad[a / u][a % u] = (bad[a / u][a % u] + da) % m;
                    bad[b / u][b % u] = (bad[b / u][b % u] + db) % m;
                    let clean = (0..u).all(|i| bad[i].iter().sum::<u128>() % m == cs.row_refs[i])
                        && (0..u)
                            .all(|j| bad.iter().map(|r| r[j]).sum::<u128>() % m == cs.col_refs[j]);
                    assert_eq!(cs.syndromes(&bad).is_clean(), clean, "entries {a}, {b}");
                    let want = match (bad == golden, clean) {
                        (true, _) => FaultOutcome::Masked,
                        (false, true) => FaultOutcome::Sdc,
                        (false, false) => FaultOutcome::Detected,
                    };
                    assert_eq!(cs.classify(&golden, &bad), want, "entries {a}, {b}");
                }
            }
        }
    }

    #[test]
    fn cancelling_multi_entry_corruption_is_sdc() {
        // Two compensating corruptions inside one row *and* one column pair
        // cancel both syndrome planes: the documented multi-fault escape.
        let (u, p) = (2, 2);
        let (x, y) = operands(u, p, 13);
        let golden = BitMatmulArray::new(u, p).reference(&x, &y);
        let cs = MatmulChecksums::derive(&x, &y, p);
        let m = checksum_modulus(p);
        let mut bad = golden.clone();
        bad[0][0] = (bad[0][0] + 1) % m;
        bad[0][1] = (bad[0][1] + m - 1) % m;
        bad[1][0] = (bad[1][0] + m - 1) % m;
        bad[1][1] = (bad[1][1] + 1) % m;
        assert!(cs.syndromes(&bad).is_clean());
        assert_eq!(cs.classify(&golden, &bad), FaultOutcome::Sdc);
    }
}
