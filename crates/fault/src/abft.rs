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
//!
//! A lane-packed campaign walk carries up to 64 products, one per bit-lane.
//! [`MatmulChecksums::classify_lanes`] decides all of them in one
//! word-parallel pass, in the style of the ultra-wide word model: each row
//! and column sum is added bit-sliced mod `M` with lane full adders, so the
//! lanes with a nonzero syndrome come out as one mask.

use bitlevel_arith::{full_add_lanes, LaneWord, MAX_LANES};

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

/// The verdicts of the occupied lanes `0..lanes` of one lane-packed
/// product, one mask per [`FaultOutcome`]. The three masks partition the
/// occupied lanes and hold no bit at or above `lanes`, so a popcount counts
/// occupied lanes only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneVerdicts {
    lanes: usize,
    masked: LaneWord,
    detected: LaneWord,
    sdc: LaneWord,
}

impl LaneVerdicts {
    /// Number of occupied lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The occupied lanes whose verdict is `outcome`.
    pub fn mask(&self, outcome: FaultOutcome) -> LaneWord {
        match outcome {
            FaultOutcome::Masked => self.masked,
            FaultOutcome::Detected => self.detected,
            FaultOutcome::Sdc => self.sdc,
        }
    }

    /// How many occupied lanes have verdict `outcome`.
    pub fn count(&self, outcome: FaultOutcome) -> usize {
        self.mask(outcome).count_ones() as usize
    }

    /// The verdict of lane `lane`.
    ///
    /// # Panics
    /// Panics if `lane >= self.lanes()`.
    pub fn outcome(&self, lane: usize) -> FaultOutcome {
        assert!(
            lane < self.lanes,
            "lane {lane} out of range for {} occupied lanes",
            self.lanes
        );
        if self.detected >> lane & 1 == 1 {
            FaultOutcome::Detected
        } else if self.sdc >> lane & 1 == 1 {
            FaultOutcome::Sdc
        } else {
            FaultOutcome::Masked
        }
    }

    /// The verdicts of lanes `0..lanes`, in lane order.
    pub fn outcomes(self) -> impl Iterator<Item = FaultOutcome> {
        (0..self.lanes).map(move |lane| self.outcome(lane))
    }
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
    fn classify_corrupt(&self, z: impl Fn(usize, usize) -> u128 + Copy) -> FaultOutcome {
        let clean = (0..self.row_refs.len()).all(|i| self.row_syndrome(i, z) == 0)
            && (0..self.col_refs.len()).all(|j| self.col_syndrome(j, z) == 0);
        if clean {
            FaultOutcome::Sdc
        } else {
            FaultOutcome::Detected
        }
    }

    /// [`MatmulChecksums::classify`] for every occupied lane of one
    /// lane-packed product at once: lane `l`'s verdict equals
    /// `classify(golden, z)` on lane `l`'s product `z`.
    ///
    /// `product` holds one word per result bit, laid out like
    /// `MatmulLaneCells::product_words`: bit `l` of word
    /// `(i·u + j)·(2p−1) + k` is bit `k` of lane `l`'s `z_ij`. Lanes at or
    /// above `lanes` are ignored.
    ///
    /// A lane is masked iff every bit of it equals the golden product's.
    /// A differing lane is detected iff one of its row or column sums,
    /// added bit-sliced mod `2^{2p−1}`, differs from its reference; the
    /// sums are formed only when some lane differs.
    ///
    /// # Panics
    /// Panics unless `1 <= lanes <= MAX_LANES` and `product` holds
    /// `u²·(2p−1)` words.
    pub fn classify_lanes(
        &self,
        golden: &[Vec<u128>],
        product: &[LaneWord],
        lanes: usize,
    ) -> LaneVerdicts {
        assert!(
            (1..=MAX_LANES).contains(&lanes),
            "a packed product holds 1..={MAX_LANES} lanes, got {lanes}"
        );
        let (u, width) = (self.row_refs.len(), self.modulus.trailing_zeros() as usize);
        assert_eq!(product.len(), u * u * width, "one word per result bit");
        let occupied = LaneWord::MAX >> (MAX_LANES - lanes);
        let differ = product
            .chunks(width)
            .zip(golden.iter().flatten())
            .fold(0, |acc, (bits, &z)| acc | lanes_differ(bits, z))
            & occupied;
        let flagged = if differ == 0 {
            0
        } else {
            self.syndrome_lanes(product, u, width)
        };
        LaneVerdicts {
            lanes,
            masked: occupied & !differ,
            detected: differ & flagged,
            sdc: differ & !flagged,
        }
    }

    /// The lanes of a packed product (laid out as in
    /// [`MatmulChecksums::classify_lanes`]) with a nonzero row or column
    /// syndrome: each row and column sum is added bit-sliced mod
    /// `2^width` and compared with its reference.
    fn syndrome_lanes(&self, product: &[LaneWord], u: usize, width: usize) -> LaneWord {
        let entry = |i: usize, j: usize| &product[(i * u + j) * width..][..width];
        let mut sum = vec![0; width];
        let mut flagged = 0;
        for line in 0..u {
            sum.fill(0);
            for j in 0..u {
                add_lanes(&mut sum, entry(line, j));
            }
            flagged |= lanes_differ(&sum, self.row_refs[line]);
            sum.fill(0);
            for i in 0..u {
                add_lanes(&mut sum, entry(i, line));
            }
            flagged |= lanes_differ(&sum, self.col_refs[line]);
        }
        flagged
    }
}

/// Adds the bit-sliced `addend` into `sum` in every lane, mod
/// `2^{sum.len()}`: a ripple of lane full adders, least significant bit
/// first, whose carry out of the top bit drops.
fn add_lanes(sum: &mut [LaneWord], addend: &[LaneWord]) {
    let mut carry = 0;
    for (s, &a) in sum.iter_mut().zip(addend) {
        (*s, carry) = full_add_lanes(*s, a, carry);
    }
}

/// The lanes in which the bit-sliced value `bits` (least significant bit
/// first) differs from `value`'s low `bits.len()` bits.
fn lanes_differ(bits: &[LaneWord], value: u128) -> LaneWord {
    bits.iter().enumerate().fold(0, |acc, (k, &w)| {
        acc | if (value >> k) & 1 == 1 { !w } else { w }
    })
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

    type Matrix = Vec<Vec<u128>>;

    /// Packs one `u×u` product per lane into the bit-sliced words
    /// `classify_lanes` reads: bit `l` of word `(i·u + j)·(2p−1) + k` is
    /// bit `k` of `products[l][i][j]`.
    fn pack(products: &[Matrix], p: usize) -> Vec<LaneWord> {
        let width = 2 * p - 1;
        let u = products[0].len();
        let mut words = vec![0; u * u * width];
        for (lane, z) in products.iter().enumerate() {
            for (entry, &v) in z.iter().flatten().enumerate() {
                for k in 0..width {
                    words[entry * width + k] |= (((v >> k) & 1) as LaneWord) << lane;
                }
            }
        }
        words
    }

    /// `golden` with `delta` added mod `M` to entries `(a, b)` and `(c, d)`
    /// and subtracted from `(a, d)` and `(c, b)`: every row and column sum
    /// is unchanged, so a nonzero `delta` on `a ≠ c`, `b ≠ d` is SDC.
    fn cancelling(
        golden: &Matrix,
        (a, b, c, d): (usize, usize, usize, usize),
        delta: u128,
        m: u128,
    ) -> Matrix {
        let mut bad = golden.clone();
        for (i, j, add) in [(a, b, true), (c, d, true), (a, d, false), (c, b, false)] {
            bad[i][j] = if add {
                (bad[i][j] + delta) % m
            } else {
                (bad[i][j] + m - delta) % m
            };
        }
        bad
    }

    /// Classifies `cases` packed `width` lanes per word at widths 1, 7 and
    /// 64, and checks every lane's verdict against the scalar `classify`.
    /// The unused lanes of a ragged word carry a masked, a detected and an
    /// SDC product in turn; none of them may reach a verdict, a mask or a
    /// count.
    fn check_lanes_match_scalar(x: &Matrix, y: &Matrix, p: usize, cases: &[Matrix], label: &str) {
        let u = x.len();
        let golden = BitMatmulArray::new(u, p).reference(x, y);
        let cs = MatmulChecksums::derive(x, y, p);
        let m = checksum_modulus(p);
        let mut detected = golden.clone();
        detected[0][0] = (detected[0][0] + 1) % m;
        let baits = [
            golden.clone(),
            detected,
            cancelling(&golden, (0, 0, 1, 1), 1, m),
        ];
        let outcomes = [
            FaultOutcome::Masked,
            FaultOutcome::Detected,
            FaultOutcome::Sdc,
        ];
        for width in [1usize, 7, 64] {
            for (walk, chunk) in cases.chunks(width).enumerate() {
                let lanes = chunk.len();
                let mut packed = chunk.to_vec();
                packed.extend((lanes..MAX_LANES).map(|l| baits[l % 3].clone()));
                let verdicts = cs.classify_lanes(&golden, &pack(&packed, p), lanes);
                let want: Vec<FaultOutcome> =
                    chunk.iter().map(|z| cs.classify(&golden, z)).collect();
                let at = format!("{label} width {width} walk {walk}");
                assert_eq!(verdicts.lanes(), lanes, "{at}");
                assert_eq!(verdicts.outcomes().collect::<Vec<_>>(), want, "{at}");
                let occupied = LaneWord::MAX >> (MAX_LANES - lanes);
                let mut union = 0;
                for o in outcomes {
                    assert_eq!(verdicts.mask(o) & !occupied, 0, "{at}: {o} leaks");
                    assert_eq!(union & verdicts.mask(o), 0, "{at}: {o} overlaps");
                    union |= verdicts.mask(o);
                    let n = want.iter().filter(|&&w| w == o).count();
                    assert_eq!(verdicts.count(o), n, "{at}: {o} count");
                }
                assert_eq!(union, occupied, "{at}: verdicts cover the occupied lanes");
            }
        }
    }

    #[test]
    fn lane_verdicts_match_the_scalar_verdicts_lane_by_lane() {
        // The golden product and every single-entry corruption, at (2,2)
        // and (3,2).
        for (u, p) in [(2usize, 2usize), (3, 2)] {
            let (x, y) = operands(u, p, 77);
            let golden = BitMatmulArray::new(u, p).reference(&x, &y);
            let m = checksum_modulus(p);
            let mut cases = vec![golden.clone()];
            for i in 0..u {
                for j in 0..u {
                    for delta in 1..m {
                        let mut bad = golden.clone();
                        bad[i][j] = (bad[i][j] + delta) % m;
                        cases.push(bad);
                    }
                }
            }
            check_lanes_match_scalar(&x, &y, p, &cases, &format!("({u},{p}) single entries"));
        }

        // The cancelling two-by-two pattern reads SDC.
        let (x, y) = operands(2, 2, 13);
        let golden = BitMatmulArray::new(2, 2).reference(&x, &y);
        let bad = cancelling(&golden, (0, 0, 1, 1), 1, checksum_modulus(2));
        let cs = MatmulChecksums::derive(&x, &y, 2);
        for lanes in [1, 7, 64] {
            let verdicts = cs.classify_lanes(&golden, &pack(&vec![bad.clone(); lanes], 2), lanes);
            assert_eq!(verdicts.count(FaultOutcome::Sdc), lanes, "{lanes} lanes");
        }

        // Seeded corruptions of 2 to u² entries, and seeded cancelling
        // rectangles, at (2,3), (4,4) and (3,8) (15 result bits).
        for (u, p) in [(2usize, 3usize), (4, 4), (3, 8)] {
            let (x, y) = operands(u, p, 0x5EED + u as u128);
            let golden = BitMatmulArray::new(u, p).reference(&x, &y);
            let m = checksum_modulus(p);
            let mut state = 0xC0FF_EE00 ^ (u * 31 + p) as u128;
            let mut next = |bound: u128| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 64) % bound
            };
            let mut cases = vec![golden.clone()];
            for _ in 0..150 {
                let mut bad = golden.clone();
                for _ in 0..2 + next((u * u - 1) as u128) {
                    let entry = next((u * u) as u128) as usize;
                    bad[entry / u][entry % u] = (bad[entry / u][entry % u] + next(m)) % m;
                }
                cases.push(bad);
                let (a, c) = (next(u as u128) as usize, next(u as u128) as usize);
                let (b, d) = (next(u as u128) as usize, next(u as u128) as usize);
                cases.push(cancelling(&golden, (a, b, c, d), next(m), m));
            }
            check_lanes_match_scalar(&x, &y, p, &cases, &format!("({u},{p}) seeded"));
        }
    }
}
