//! The word-level systolic comparator (Section 4.2).
//!
//! "We can compare the time optimal bit-level architecture in Fig. 4 with the
//! best word-level architecture for matrix multiplication described in the
//! literature [4]. The total execution time of the best word-level
//! architecture … is `(3(u−1)+1)·t_b`, where `t_b` is the time for
//! multiplying two integers and adding two integers."
//!
//! This module simulates that baseline: a `u×u` mesh executing the word-level
//! structure (2.4) under `Π_w = [1,1,1]` (the optimal word-level schedule),
//! where each word cycle costs `t_b` bit-cell delays of the chosen
//! multiplier ([`bitlevel_arith::AddShift`]: `t_b = p²`;
//! [`bitlevel_arith::CarrySave`]: `t_b = 2p`). Products are computed through
//! the actual bit-level functional multiplier models, so even the baseline's
//! arithmetic is bit-exact, not `i64` shortcuts.

use bitlevel_arith::MultiplierAlgorithm;

/// A word-level systolic matmul array with a pluggable word-PE multiplier.
pub struct WordLevelArray<'m> {
    /// Matrix dimension `u`.
    pub u: usize,
    /// The arithmetic algorithm inside each word-level PE.
    pub multiplier: &'m dyn MultiplierAlgorithm,
}

/// Measured results of a word-level run.
#[derive(Debug, Clone)]
pub struct WordRunReport {
    /// Word-level cycles: `3(u−1)+1`.
    pub word_cycles: i64,
    /// Bit-cell cycles: `word_cycles × t_b` — the quantity compared against
    /// the bit-level architecture's (4.5).
    pub bit_cycles: i64,
    /// Number of word-level PEs (`u²`).
    pub processors: usize,
    /// The product matrix (entries exact, computed via the bit-level
    /// multiplier model).
    pub z: Vec<Vec<u128>>,
}

impl<'m> WordLevelArray<'m> {
    /// Creates the array.
    ///
    /// # Panics
    /// Panics if `u == 0`.
    pub fn new(u: usize, multiplier: &'m dyn MultiplierAlgorithm) -> Self {
        assert!(u >= 1, "matrix dimension must be positive");
        WordLevelArray { u, multiplier }
    }

    /// Closed-form word-level cycle count (`Π_w = [1,1,1]` over `[1,u]³`).
    pub fn word_cycles(&self) -> i64 {
        3 * (self.u as i64 - 1) + 1
    }

    /// Closed-form total time in bit-cell cycles: `(3(u−1)+1)·t_b`.
    pub fn bit_cycles(&self) -> i64 {
        self.word_cycles() * self.multiplier.word_latency() as i64
    }

    /// Runs the array: executes the iterations of program (2.3) in wavefront
    /// order (`time = j₁+j₂+j₃`), with the PE at `(j₁, j₂)` holding the
    /// stationary accumulator `z` and each multiply performed by the
    /// bit-level multiplier model.
    ///
    /// # Panics
    /// Panics if the matrices are not `u×u` or entries exceed `p` bits.
    pub fn run(&self, x: &[Vec<u128>], y: &[Vec<u128>]) -> WordRunReport {
        let u = self.u;
        assert_eq!(x.len(), u, "x must be u x u");
        assert_eq!(y.len(), u, "y must be u x u");
        let mut z = vec![vec![0u128; u]; u];

        // Wavefront execution: all iterations with the same Π·j̄ are one word
        // cycle. (The loop order below is equivalent — the structure is a
        // uniform recurrence — but we iterate by wavefront to mirror the
        // schedule and to assert the cycle count.)
        let mut wavefronts = 0i64;
        let (lo, hi) = (3, 3 * u as i64);
        for t in lo..=hi {
            let mut busy = false;
            for j1 in 1..=u as i64 {
                for j2 in 1..=u as i64 {
                    let j3 = t - j1 - j2;
                    if (1..=u as i64).contains(&j3) {
                        busy = true;
                        let prod = self.multiplier.multiply(
                            x[(j1 - 1) as usize][(j3 - 1) as usize],
                            y[(j3 - 1) as usize][(j2 - 1) as usize],
                        );
                        z[(j1 - 1) as usize][(j2 - 1) as usize] += prod;
                    }
                }
            }
            if busy {
                wavefronts += 1;
            }
        }
        debug_assert_eq!(wavefronts, self.word_cycles());

        WordRunReport {
            word_cycles: wavefronts,
            bit_cycles: wavefronts * self.multiplier.word_latency() as i64,
            processors: u * u,
            z,
        }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // tests index parallel matrices
mod tests {
    use super::*;
    use bitlevel_arith::{AddShift, CarrySave};

    fn mat(u: usize, f: impl Fn(usize, usize) -> u128) -> Vec<Vec<u128>> {
        (0..u).map(|i| (0..u).map(|j| f(i, j)).collect()).collect()
    }

    #[test]
    fn word_cycles_formula() {
        let m = AddShift::new(4);
        assert_eq!(WordLevelArray::new(1, &m).word_cycles(), 1);
        assert_eq!(WordLevelArray::new(4, &m).word_cycles(), 10);
    }

    #[test]
    fn bit_cycles_depend_on_multiplier() {
        let u = 5;
        let p = 6;
        let addshift = AddShift::new(p);
        let carrysave = CarrySave::new(p);
        let a = WordLevelArray::new(u, &addshift);
        let c = WordLevelArray::new(u, &carrysave);
        assert_eq!(a.bit_cycles(), (3 * (u as i64 - 1) + 1) * (p * p) as i64);
        assert_eq!(c.bit_cycles(), (3 * (u as i64 - 1) + 1) * (2 * p) as i64);
        assert!(c.bit_cycles() < a.bit_cycles());
    }

    #[test]
    fn functional_result_is_exact() {
        let p = 5;
        let m = AddShift::new(p);
        let arr = WordLevelArray::new(3, &m);
        let x = mat(3, |i, j| (i * 7 + j * 3 + 1) as u128 % 32);
        let y = mat(3, |i, j| (i * 2 + j * 5 + 2) as u128 % 32);
        let run = arr.run(&x, &y);
        for i in 0..3 {
            for j in 0..3 {
                let want: u128 = (0..3).map(|k| x[i][k] * y[k][j]).sum();
                assert_eq!(run.z[i][j], want);
            }
        }
        assert_eq!(run.word_cycles, 7);
        assert_eq!(run.processors, 9);
    }

    #[test]
    fn both_multipliers_agree_functionally() {
        let p = 4;
        let a_m = AddShift::new(p);
        let c_m = CarrySave::new(p);
        let x = mat(2, |i, j| (3 * i + j + 4) as u128);
        let y = mat(2, |i, j| (2 * i + 5 * j + 1) as u128);
        let za = WordLevelArray::new(2, &a_m).run(&x, &y).z;
        let zc = WordLevelArray::new(2, &c_m).run(&x, &y).z;
        assert_eq!(za, zc);
    }
}
