//! Generic Expansion II cell semantics for **any** algorithm of model (3.5).
//!
//! Section 3.2: the word-level model covers "matrix multiplication,
//! convolution, matrix-vector multiplication, discrete cosine transform, and
//! discrete Fourier transform". [`Model35Cells`] executes the Expansion II
//! bit-level structure of *any* such algorithm on the clocked engine
//! ([`crate::clocked::run_clocked`]): operand bits are supplied by
//! caller-provided value functions `x(j̄)`, `y(j̄)`; the accumulator chains
//! along `h̄₃` (injection tokens simply *absent* at chain heads); results are
//! collected at chain tails. The matmul-specific
//! [`crate::clocked::MatmulExpansionIICells`] is the hand-specialised
//! equivalent — a test checks they agree bit for bit.

use crate::batch::{BatchRun, LaneCellSemantics, MatmulLaneSignals, MAX_LANES};
use crate::clocked::{CellSemantics, ClockedRun, MatmulSignals, SyncCellSemantics};
use bitlevel_arith::{
    from_bits, full_add, full_add_lanes, lane_bit, pack_bit_planes, to_bits, wide_add,
    wide_add_lanes, Bit, LaneWord,
};
use bitlevel_ir::{AlgorithmTriplet, WordLevelAlgorithm};
use bitlevel_linalg::IVec;
use std::collections::HashMap;

/// Where each dependence column of a composed Expansion II structure sits.
///
/// `bitlevel-depanal`'s `compose` emits columns in the order
/// `[x?, y?, z, d̄₄, d̄₅, d̄₆, d̄₇]` — the `x`/`y` word columns are present only
/// when the operand is reused at word level. This struct resolves the
/// indices from the structure itself so semantics never hard-code positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnMap {
    /// Index of `d̄₁` (word-level x pipelining), if present.
    pub d1: Option<usize>,
    /// Index of `d̄₂` (word-level y pipelining), if present.
    pub d2: Option<usize>,
    /// Index of `d̄₃` (accumulator injection).
    pub d3: usize,
    /// Index of `d̄₄` (intra-tile x / carry re-entry).
    pub d4: usize,
    /// Index of `d̄₅` (intra-tile y and carry).
    pub d5: usize,
    /// Index of `d̄₆` (partial-sum diagonal).
    pub d6: usize,
    /// Index of `d̄₇` (second carry).
    pub d7: usize,
}

/// Why a dependence structure cannot be resolved into a [`ColumnMap`] —
/// the typed form of what used to be `resolve`'s panic paths, so callers
/// handed an arbitrary structure can degrade instead of aborting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnMapError {
    /// A word-level column (zero arithmetic part) whose cause is not one of
    /// `x`/`y`/`z`.
    UnexpectedWordColumn {
        /// The offending cause string.
        cause: String,
    },
    /// An arithmetic column outside the Theorem 3.1 set
    /// `{[1,0], [0,1], [1,−1], [0,2]}`.
    UnexpectedArithmeticColumn {
        /// The offending arithmetic part.
        column: Vec<i64>,
    },
    /// A column mixing word-level and arithmetic coordinates.
    MixedColumn {
        /// Dependence index of the offending column.
        index: usize,
    },
    /// A mandatory arithmetic-tile column is absent.
    MissingColumn {
        /// Which column (`d3`…`d7`) is missing.
        name: &'static str,
    },
}

impl std::fmt::Display for ColumnMapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColumnMapError::UnexpectedWordColumn { cause } => {
                write!(f, "unexpected word-level column cause {cause}")
            }
            ColumnMapError::UnexpectedArithmeticColumn { column } => {
                write!(f, "unexpected arithmetic column {column:?}")
            }
            ColumnMapError::MixedColumn { index } => {
                write!(f, "mixed word/arith column at dependence {index}")
            }
            ColumnMapError::MissingColumn { name } => write!(f, "missing {name} column"),
        }
    }
}

impl std::error::Error for ColumnMapError {}

impl ColumnMap {
    /// Resolves the column map of a composed Expansion II structure.
    ///
    /// # Panics
    /// Panics if the structure does not have the Theorem 3.1 shape — use
    /// [`ColumnMap::try_resolve`] where the structure is not trusted.
    pub fn resolve(alg: &AlgorithmTriplet) -> ColumnMap {
        match Self::try_resolve(alg) {
            Ok(cols) => cols,
            Err(e) => panic!("{e}"),
        }
    }

    /// Checked variant of [`ColumnMap::resolve`]: structures outside the
    /// Theorem 3.1 shape come back as a typed [`ColumnMapError`] instead of
    /// a panic.
    pub fn try_resolve(alg: &AlgorithmTriplet) -> Result<ColumnMap, ColumnMapError> {
        let n = alg.dim() - 2;
        let mut d1 = None;
        let mut d2 = None;
        let mut d3 = None;
        let mut d4 = None;
        let mut d5 = None;
        let mut d6 = None;
        let mut d7 = None;
        for (i, dep) in alg.deps.iter().enumerate() {
            let (word, arith) = dep.vector.split_at(n);
            if arith.is_zero() {
                // A word-level column: x, y or z by cause.
                match dep.cause.as_str() {
                    "x" => d1 = Some(i),
                    "y" => d2 = Some(i),
                    "z" => d3 = Some(i),
                    other => {
                        return Err(ColumnMapError::UnexpectedWordColumn {
                            cause: other.to_string(),
                        })
                    }
                }
            } else {
                if !word.is_zero() {
                    return Err(ColumnMapError::MixedColumn { index: i });
                }
                match arith.as_slice() {
                    [1, 0] => d4 = Some(i),
                    [0, 1] => d5 = Some(i),
                    [1, -1] => d6 = Some(i),
                    [0, 2] => d7 = Some(i),
                    other => {
                        return Err(ColumnMapError::UnexpectedArithmeticColumn {
                            column: other.to_vec(),
                        })
                    }
                }
            }
        }
        let need = |col: Option<usize>, name: &'static str| {
            col.ok_or(ColumnMapError::MissingColumn { name })
        };
        Ok(ColumnMap {
            d1,
            d2,
            d3: need(d3, "d3")?,
            d4: need(d4, "d4")?,
            d5: need(d5, "d5")?,
            d6: need(d6, "d6")?,
            d7: need(d7, "d7")?,
        })
    }
}

/// Generic Expansion II cell semantics for model (3.5).
pub struct Model35Cells {
    word: WordLevelAlgorithm,
    p: usize,
    cols: ColumnMap,
    /// Operand bit planes keyed by word-level point.
    x_bits: HashMap<IVec, Vec<Bit>>,
    y_bits: HashMap<IVec, Vec<Bit>>,
}

impl Model35Cells {
    /// Builds the semantics from operand value functions: `x_of(j̄)` and
    /// `y_of(j̄)` give the word operands at each word-level index point
    /// (these encode the original array accesses, e.g. `X[j₁][j₃]` for
    /// matmul or `xs[j₁+j₂−1]` for convolution).
    ///
    /// # Panics
    /// Panics if an operand value does not fit in `p` bits, or the structure
    /// is not the composed Expansion II shape for `word`.
    pub fn new(
        word: &WordLevelAlgorithm,
        p: usize,
        alg: &AlgorithmTriplet,
        x_of: impl Fn(&IVec) -> u128,
        y_of: impl Fn(&IVec) -> u128,
    ) -> Self {
        assert_eq!(
            alg.dim(),
            word.dim() + 2,
            "structure/word dimension mismatch"
        );
        let cols = ColumnMap::resolve(alg);
        let mut x_bits = HashMap::new();
        let mut y_bits = HashMap::new();
        for j in word.bounds.iter_points() {
            x_bits.insert(j.clone(), to_bits(x_of(&j), p));
            y_bits.insert(j.clone(), to_bits(y_of(&j), p));
        }
        Model35Cells {
            word: word.clone(),
            p,
            cols,
            x_bits,
            y_bits,
        }
    }

    /// The word-level points that terminate an accumulation chain
    /// (`j̄ + h̄₃ ∉ J_w`): where results are read out.
    pub fn chain_tails(&self) -> Vec<IVec> {
        self.word
            .bounds
            .iter_points()
            .filter(|j| !self.word.bounds.contains(&(j + &self.word.h3)))
            .collect()
    }

    /// Number of accumulation steps feeding the chain ending at `tail`.
    pub fn chain_length(&self, tail: &IVec) -> usize {
        let mut len = 0;
        let mut cur = tail.clone();
        while self.word.bounds.contains(&cur) {
            len += 1;
            cur = &cur - &self.word.h3;
        }
        len
    }

    /// Largest operand value keeping every chain's accumulator within
    /// `2p−1` bits.
    pub fn max_safe_entry(&self) -> u128 {
        let max_len = self
            .chain_tails()
            .iter()
            .map(|t| self.chain_length(t))
            .max()
            .unwrap_or(1) as u128;
        let limit = 1u128 << (2 * self.p - 1);
        let mut m = (1u128 << self.p) - 1;
        while m > 0 && max_len * m * m >= limit {
            m -= 1;
        }
        m
    }

    /// Extracts the accumulated result (mod `2^{2p−1}`) at each chain tail
    /// from a finished clocked run.
    pub fn extract_results(&self, run: &ClockedRun<MatmulSignals>) -> HashMap<IVec, u128> {
        let p = self.p;
        let mut out = HashMap::new();
        for tail in self.chain_tails() {
            let mut bits: Vec<Bit> = Vec::with_capacity(2 * p - 1);
            for i in 1..=p {
                let q = tail.concat(&IVec::from([i as i64, 1]));
                bits.push(run.outputs[&q].s);
            }
            for i in p + 1..=2 * p - 1 {
                let q = tail.concat(&IVec::from([p as i64, (i - p + 1) as i64]));
                bits.push(run.outputs[&q].s);
            }
            out.insert(tail, from_bits(&bits));
        }
        out
    }

    /// The reference accumulated value (mod `2^{2p−1}`) for a chain tail.
    pub fn reference(
        &self,
        tail: &IVec,
        x_of: impl Fn(&IVec) -> u128,
        y_of: impl Fn(&IVec) -> u128,
    ) -> u128 {
        let mask = (1u128 << (2 * self.p - 1)) - 1;
        let mut acc = 0u128;
        let mut cur = tail.clone();
        let mut chain = Vec::new();
        while self.word.bounds.contains(&cur) {
            chain.push(cur.clone());
            cur = &cur - &self.word.h3;
        }
        for j in chain.into_iter().rev() {
            acc = (acc + x_of(&j) * y_of(&j)) & mask;
        }
        acc
    }
}

impl CellSemantics for Model35Cells {
    type Bundle = MatmulSignals;

    fn compute(&mut self, q: &IVec, inputs: &[Option<MatmulSignals>]) -> MatmulSignals {
        SyncCellSemantics::compute(self, q, inputs)
    }
}

impl SyncCellSemantics for Model35Cells {
    type Bundle = MatmulSignals;

    fn compute(&self, q: &IVec, inputs: &[Option<MatmulSignals>]) -> MatmulSignals {
        let n = self.word.dim();
        let (j, i) = q.split_at(n);
        let (i1, i2) = (i[0] as usize, i[1] as usize);
        let p = self.p;
        let cols = self.cols;

        // Operand bits: along the tile edge from the word-level token, or
        // fresh from the operand planes (chain head / no word-level reuse).
        let x = if i1 == 1 {
            cols.d1
                .and_then(|c| inputs[c].as_ref())
                .map(|b| b.x)
                .unwrap_or_else(|| self.x_bits[&j][i2 - 1])
        } else {
            // Missing d4 token (malformed schedule): degrade to a silent
            // zero wire — the engine records the violation separately.
            inputs[cols.d4].as_ref().is_some_and(|b| b.x)
        };
        let y = if i2 == 1 {
            cols.d2
                .and_then(|c| inputs[c].as_ref())
                .map(|b| b.y)
                .unwrap_or_else(|| self.y_bits[&j][i1 - 1])
        } else {
            inputs[cols.d5].as_ref().is_some_and(|b| b.y)
        };

        let pp = x & y;
        let c_in = if i2 > 1 {
            inputs[cols.d5].as_ref().is_some_and(|b| b.c)
        } else {
            false
        };
        let s_in = if i1 == 1 {
            false
        } else if i2 == p {
            inputs[cols.d4].as_ref().is_some_and(|b| b.c) // carry re-entry
        } else {
            inputs[cols.d6].as_ref().is_some_and(|b| b.s)
        };
        let on_boundary = i1 == p || i2 == 1;
        // Injection token absent at chain heads (source outside J).
        let inject = if on_boundary {
            inputs[cols.d3].as_ref().is_some_and(|b| b.s)
        } else {
            false
        };
        let cp_in = if i1 == p && i2 > 2 {
            inputs[cols.d7].as_ref().is_some_and(|b| b.cp)
        } else {
            false
        };

        let has_injection = on_boundary && inputs[cols.d3].is_some();
        let (s, c, cp) = if has_injection {
            if i1 == p {
                wide_add(&[pp, c_in, s_in, inject, cp_in])
            } else {
                wide_add(&[pp, s_in, inject])
            }
        } else {
            let (s, c) = full_add(pp, c_in, s_in);
            (s, c, false)
        };

        MatmulSignals { x, y, s, c, cp }
    }
}

/// Bitwise word form of [`Model35Cells`]: one batch of up to [`MAX_LANES`]
/// independent instances of the *same* model-(3.5) structure (same
/// word-level algorithm, `p` and column map), differing only in operand
/// values.
///
/// Every control decision in the scalar compute body — which dependence
/// column feeds a signal, which adder form fires, whether the injection
/// token is present — is a function of the index point and input *presence*,
/// both lane-uniform, so the body ports to [`LaneWord`] operations verbatim:
/// convolution and matrix–vector batches ride the same word-wide compiled
/// walk as the matmul specialisation ([`crate::batch::MatmulLaneCells`]),
/// with no per-lane evaluation anywhere. The packed token is
/// [`MatmulLaneSignals`] (the Expansion II wire set is shared by all
/// model-(3.5) workloads), so the lane-fault machinery
/// ([`crate::batch::LaneFaultedCells`]) applies unchanged.
pub struct Model35LaneCells {
    p: usize,
    /// Word-level dimension `n` (the first `n` coordinates of an index point
    /// name the word-level point `j̄`).
    n: usize,
    cols: ColumnMap,
    lanes: usize,
    /// Lane-packed operand bit planes: `x_words[j̄][k]` holds bit `k` of
    /// `x(j̄)` for every lane.
    x_words: HashMap<IVec, Vec<LaneWord>>,
    y_words: HashMap<IVec, Vec<LaneWord>>,
    /// Scalar per-lane semantics, for [`crate::batch::LaneView`] replays and
    /// extraction.
    scalar: Vec<Model35Cells>,
}

impl Model35LaneCells {
    /// Packs a batch of scalar semantics, one instance per lane. All
    /// instances must share the structural shape — word-level index set,
    /// bit width `p` and column map — and may differ only in operand values.
    ///
    /// # Panics
    /// Panics on an empty batch, more than [`MAX_LANES`] instances, or
    /// instances with mismatched structure.
    pub fn new(cells: Vec<Model35Cells>) -> Self {
        assert!(
            (1..=MAX_LANES).contains(&cells.len()),
            "batch must hold 1..={MAX_LANES} instances, got {}",
            cells.len()
        );
        let template = &cells[0];
        let (p, cols, n) = (template.p, template.cols, template.word.dim());
        assert!(
            cells.iter().all(|c| c.p == p && c.cols == cols),
            "all lanes must share p and the column map"
        );
        let mut x_words = HashMap::new();
        let mut y_words = HashMap::new();
        let plane = |j: &IVec, bits: fn(&Model35Cells) -> &HashMap<IVec, Vec<Bit>>| {
            let rows: Vec<Vec<Bit>> = cells
                .iter()
                .map(|c| {
                    bits(c)
                        .get(j)
                        .expect("lanes must share the word-level index set")
                        .clone()
                })
                .collect();
            pack_bit_planes(&rows)
        };
        for j in template.x_bits.keys() {
            x_words.insert(j.clone(), plane(j, |c| &c.x_bits));
            y_words.insert(j.clone(), plane(j, |c| &c.y_bits));
        }
        let lanes = cells.len();
        Model35LaneCells {
            p,
            n,
            cols,
            lanes,
            x_words,
            y_words,
            scalar: cells,
        }
    }

    /// The scalar semantics of one lane (for replays and verification).
    pub fn lane_cells(&self, lane: usize) -> &Model35Cells {
        &self.scalar[lane]
    }

    /// Extracts every lane's accumulated result (mod `2^{2p−1}`) at each
    /// chain tail straight from the packed run: only the `2p−1` boundary
    /// accumulator words per tail are read, then split per lane — no
    /// per-lane run materialisation.
    ///
    /// # Panics
    /// Panics if `run` came from a different structure (missing points).
    pub fn extract_results_batch(
        &self,
        run: &BatchRun<MatmulLaneSignals>,
    ) -> Vec<HashMap<IVec, u128>> {
        let p = self.p;
        let mut out = vec![HashMap::new(); self.lanes];
        let mut words: Vec<LaneWord> = Vec::with_capacity(2 * p - 1);
        let mut bits: Vec<Bit> = Vec::with_capacity(2 * p - 1);
        for tail in self.scalar[0].chain_tails() {
            words.clear();
            for i in 1..=p {
                let q = tail.concat(&IVec::from([i as i64, 1]));
                words.push(run.output(&q).s);
            }
            for i in p + 1..=2 * p - 1 {
                let q = tail.concat(&IVec::from([p as i64, (i - p + 1) as i64]));
                words.push(run.output(&q).s);
            }
            for (lane, results) in out.iter_mut().enumerate() {
                bits.clear();
                bits.extend(words.iter().map(|&w| lane_bit(w, lane)));
                results.insert(tail.clone(), from_bits(&bits));
            }
        }
        out
    }
}

impl LaneCellSemantics for Model35LaneCells {
    type Bundle = MatmulSignals;
    type Packed = MatmulLaneSignals;

    fn lanes(&self) -> usize {
        self.lanes
    }

    // The word-for-word port of the scalar `SyncCellSemantics::compute`
    // above: scalar Bit ops become LaneWord ops, `false` becomes the
    // all-zero word. Presence tests (`is_some`) are untouched — they are
    // schedule properties, identical in every lane.
    fn compute_lanes(&self, q: &IVec, inputs: &[Option<MatmulLaneSignals>]) -> MatmulLaneSignals {
        let (j, i) = q.split_at(self.n);
        let (i1, i2) = (i[0] as usize, i[1] as usize);
        let p = self.p;
        let cols = self.cols;

        let x = if i1 == 1 {
            match cols.d1.and_then(|c| inputs[c].as_ref()) {
                Some(b) => b.x,
                None => self.x_words[&j][i2 - 1],
            }
        } else {
            // Missing d4 token (malformed schedule): degrade to a silent
            // zero word — the engine records the violation separately.
            inputs[cols.d4].as_ref().map_or(0, |b| b.x)
        };
        let y = if i2 == 1 {
            match cols.d2.and_then(|c| inputs[c].as_ref()) {
                Some(b) => b.y,
                None => self.y_words[&j][i1 - 1],
            }
        } else {
            inputs[cols.d5].as_ref().map_or(0, |b| b.y)
        };

        let pp = x & y;
        let c_in = if i2 > 1 {
            inputs[cols.d5].as_ref().map_or(0, |b| b.c)
        } else {
            0
        };
        let s_in = if i1 == 1 {
            0
        } else if i2 == p {
            inputs[cols.d4].as_ref().map_or(0, |b| b.c) // carry re-entry
        } else {
            inputs[cols.d6].as_ref().map_or(0, |b| b.s)
        };
        let on_boundary = i1 == p || i2 == 1;
        let inject = if on_boundary {
            inputs[cols.d3].as_ref().map_or(0, |b| b.s)
        } else {
            0
        };
        let cp_in = if i1 == p && i2 > 2 {
            inputs[cols.d7].as_ref().map_or(0, |b| b.cp)
        } else {
            0
        };

        let has_injection = on_boundary && inputs[cols.d3].is_some();
        let (s, c, cp) = if has_injection {
            if i1 == p {
                wide_add_lanes(&[pp, c_in, s_in, inject, cp_in])
            } else {
                wide_add_lanes(&[pp, s_in, inject])
            }
        } else {
            let (s, c) = full_add_lanes(pp, c_in, s_in);
            (s, c, 0)
        };

        MatmulLaneSignals { x, y, s, c, cp }
    }

    fn compute_lane(
        &self,
        lane: usize,
        q: &IVec,
        inputs: &[Option<MatmulSignals>],
    ) -> MatmulSignals {
        SyncCellSemantics::compute(&self.scalar[lane], q, inputs)
    }

    fn extract_lane(&self, packed: &MatmulLaneSignals, lane: usize) -> MatmulSignals {
        MatmulSignals {
            x: lane_bit(packed.x, lane),
            y: lane_bit(packed.y, lane),
            s: lane_bit(packed.s, lane),
            c: lane_bit(packed.c, lane),
            cp: lane_bit(packed.cp, lane),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clocked::run_clocked;
    use bitlevel_linalg::IMat;
    use bitlevel_mapping::{
        check_feasibility, find_optimal_schedule, Interconnect, MappingMatrix, PaperDesign,
    };

    /// Compose Expansion II structures without depending on bitlevel-depanal
    /// (dependency direction): mirror of `compose` for the cases used here.
    fn compose_ii(word: &WordLevelAlgorithm, p: usize) -> AlgorithmTriplet {
        use bitlevel_ir::{Dependence, DependenceSet, Predicate};
        let n = word.dim();
        let (i1, i2) = (n, n + 1);
        let pi = p as i64;
        let lift_w = |h: &IVec| h.concat(&IVec::zeros(2));
        let lift_a = |a: [i64; 2]| IVec::zeros(n).concat(&IVec::from(a));
        let mut deps = Vec::new();
        if let Some(h1) = &word.h1 {
            deps.push(Dependence::conditional(
                lift_w(h1),
                "x",
                Predicate::eq_const(i1, 1),
            ));
        }
        if let Some(h2) = &word.h2 {
            deps.push(Dependence::conditional(
                lift_w(h2),
                "y",
                Predicate::eq_const(i2, 1),
            ));
        }
        deps.push(Dependence::conditional(
            lift_w(&word.h3),
            "z",
            Predicate::eq_const(i1, pi).or(&Predicate::eq_const(i2, 1)),
        ));
        deps.push(Dependence::conditional(
            lift_a([1, 0]),
            "x",
            Predicate::ne_const(i1, 1),
        ));
        deps.push(Dependence::conditional(
            lift_a([0, 1]),
            "y,c",
            Predicate::ne_const(i2, 1),
        ));
        deps.push(Dependence::uniform(lift_a([1, -1]), "z"));
        deps.push(Dependence::conditional(
            lift_a([0, 2]),
            "c'",
            Predicate::eq_const(i1, pi),
        ));
        AlgorithmTriplet::new(
            word.bounds.product(&bitlevel_ir::BoxSet::cube(2, 1, pi)),
            DependenceSet::new(deps),
            "Expansion II structure",
        )
    }

    #[test]
    fn generic_cells_match_matmul_specialisation() {
        let (u, p) = (3usize, 3usize);
        let word = WordLevelAlgorithm::matmul(u as i64);
        let alg = compose_ii(&word, p);
        let m = crate::BitMatmulArray::new(u, p).max_safe_entry();
        let x: Vec<Vec<u128>> = (0..u)
            .map(|i| {
                (0..u)
                    .map(|j| ((2 * i + j + 1) as u128) % (m + 1))
                    .collect()
            })
            .collect();
        let y: Vec<Vec<u128>> = (0..u)
            .map(|i| {
                (0..u)
                    .map(|j| ((i + 4 * j + 2) as u128) % (m + 1))
                    .collect()
            })
            .collect();
        let design = PaperDesign::TimeOptimal;

        // Generic route.
        let xo = x.clone();
        let yo = y.clone();
        let mut generic = Model35Cells::new(
            &word,
            p,
            &alg,
            move |j| xo[(j[0] - 1) as usize][(j[2] - 1) as usize],
            move |j| yo[(j[2] - 1) as usize][(j[1] - 1) as usize],
        );
        let run = run_clocked(
            &alg,
            &design.mapping(p as i64),
            &design.interconnect(p as i64),
            &mut generic,
        );
        assert!(run.is_legal(), "{:?}", run.violations);
        let results = generic.extract_results(&run);

        // Specialised route.
        let want = crate::BitMatmulArray::new(u, p).multiply(&x, &y);
        for (tail, value) in results {
            let (j1, j2) = ((tail[0] - 1) as usize, (tail[1] - 1) as usize);
            assert_eq!(value, want[j1][j2], "tail {tail}");
        }
    }

    #[test]
    fn convolution_architecture_end_to_end() {
        // z(j1) = Σ_{j2} x(j1+j2-1)·w(j2): design a machine for the 4-D
        // structure via schedule search, then run it clocked and compare
        // against the direct convolution.
        let (outputs, taps, p) = (4i64, 3i64, 3usize);
        let word = WordLevelAlgorithm::convolution(outputs, taps);
        let alg = compose_ii(&word, p);

        // Keep operands within the 2p−1-bit accumulator bound (3 taps of
        // products must fit in 5 bits for p = 3).
        let xs: Vec<u128> = (0..(outputs + taps - 1))
            .map(|k| (k as u128 % 3) + 1)
            .collect();
        let ws: Vec<u128> = (0..taps).map(|k| (k as u128 % 2) + 1).collect();

        // Space mapping: PEs indexed by (p·j1 + i1, i2) — a (outputs·p) × p
        // grid, one block row per output sample.
        let s = IMat::from_rows(&[&[p as i64, 0, 1, 0], &[0, 0, 0, 1]]);
        // Machine: long vertical wire (for x's [1,−1] word step combined with
        // block stride), plus units, diagonal and static link.
        // Primitives: block-stride vertical wire, static, unit south, unit
        // east, and the diagonal — every S·d̄ column is routable.
        let ic = Interconnect::new(IMat::from_rows(&[
            &[p as i64, 0, 1, 0, 1],
            &[0, 0, 0, 1, -1],
        ]));
        let found = find_optimal_schedule(&s, &alg, &ic, 3).expect("feasible schedule");
        let t = MappingMatrix::new(s, found.pi.clone());
        assert!(check_feasibility(&t, &alg, &ic).is_feasible());

        let xs2 = xs.clone();
        let ws2 = ws.clone();
        let mut cells = Model35Cells::new(
            &word,
            p,
            &alg,
            move |j| xs2[(j[0] + j[1] - 2) as usize],
            move |j| ws2[(j[1] - 1) as usize],
        );
        let safe = cells.max_safe_entry();
        assert!(
            xs.iter().chain(ws.iter()).all(|&v| v <= safe),
            "operands within bound"
        );

        let run = run_clocked(&alg, &t, &ic, &mut cells);
        assert!(run.is_legal(), "{:?}", run.violations);
        let results = cells.extract_results(&run);

        // Chain tails are (j1, taps): one result per output sample.
        assert_eq!(results.len(), outputs as usize);
        for (tail, value) in results {
            let j1 = tail[0];
            let want: u128 = (1..=taps)
                .map(|j2| xs[(j1 + j2 - 2) as usize] * ws[(j2 - 1) as usize])
                .sum();
            assert_eq!(value, want, "output sample {j1}");
        }
    }

    #[test]
    fn matvec_without_y_reuse_runs_generically() {
        // Matrix–vector product: the y operand (matrix entries) has no
        // word-level reuse (d̄₂ absent); operand bits enter every tile edge
        // fresh. 2-D word space -> 4-D structure.
        let (mrows, kcols, p) = (3i64, 3i64, 3usize);
        let word = WordLevelAlgorithm::matvec(mrows, kcols);
        let alg = compose_ii(&word, p);
        assert_eq!(alg.deps.len(), 6); // no d2 column

        let a: Vec<Vec<u128>> = (0..mrows)
            .map(|i| (0..kcols).map(|j| ((i + 2 * j) % 4) as u128).collect())
            .collect();
        let v: Vec<u128> = (0..kcols).map(|k| ((k % 3) + 1) as u128).collect();

        let s = IMat::from_rows(&[&[p as i64, 0, 1, 0], &[0, 0, 0, 1]]);
        // Primitives: block-stride vertical wire, static, unit south, unit
        // east, and the diagonal — every S·d̄ column is routable.
        let ic = Interconnect::new(IMat::from_rows(&[
            &[p as i64, 0, 1, 0, 1],
            &[0, 0, 0, 1, -1],
        ]));
        let found = find_optimal_schedule(&s, &alg, &ic, 3).expect("feasible");
        let t = MappingMatrix::new(s, found.pi);

        let a2 = a.clone();
        let v2 = v.clone();
        let mut cells = Model35Cells::new(
            &word,
            p,
            &alg,
            move |j| v2[(j[1] - 1) as usize], // x(j2): the vector
            move |j| a2[(j[0] - 1) as usize][(j[1] - 1) as usize], // A(j1,j2)
        );
        let run = run_clocked(&alg, &t, &ic, &mut cells);
        assert!(run.is_legal(), "{:?}", run.violations);
        for (tail, value) in cells.extract_results(&run) {
            let i = (tail[0] - 1) as usize;
            let want: u128 = (0..kcols as usize).map(|k| a[i][k] * v[k]).sum();
            assert_eq!(value, want, "row {i}");
        }
    }

    #[test]
    fn column_map_resolution() {
        let word = WordLevelAlgorithm::matmul(2);
        let alg = compose_ii(&word, 2);
        let cols = ColumnMap::resolve(&alg);
        assert_eq!(cols.d1, Some(0));
        assert_eq!(cols.d2, Some(1));
        assert_eq!(cols.d3, 2);
        assert_eq!((cols.d4, cols.d5, cols.d6, cols.d7), (3, 4, 5, 6));
        // Partial model: d2 absent shifts everything.
        let mv = WordLevelAlgorithm::matvec(2, 2);
        let alg = compose_ii(&mv, 2);
        let cols = ColumnMap::resolve(&alg);
        assert_eq!(cols.d1, Some(0));
        assert_eq!(cols.d2, None);
        assert_eq!(cols.d3, 1);
    }

    /// Convolution fixture shared by the batched tests: structure, schedule
    /// and a compiled engine.
    fn convolution_fixture(
        outputs: i64,
        taps: i64,
        p: usize,
    ) -> (
        WordLevelAlgorithm,
        AlgorithmTriplet,
        crate::compiled::CompiledSchedule,
    ) {
        let word = WordLevelAlgorithm::convolution(outputs, taps);
        let alg = compose_ii(&word, p);
        let s = IMat::from_rows(&[&[p as i64, 0, 1, 0], &[0, 0, 0, 1]]);
        let ic = Interconnect::new(IMat::from_rows(&[
            &[p as i64, 0, 1, 0, 1],
            &[0, 0, 0, 1, -1],
        ]));
        let found = find_optimal_schedule(&s, &alg, &ic, 3).expect("feasible schedule");
        let t = MappingMatrix::new(s, found.pi);
        let sched = crate::compiled::CompiledSchedule::compile(&alg, &t, &ic);
        (word, alg, sched)
    }

    fn convolution_lane(
        word: &WordLevelAlgorithm,
        alg: &AlgorithmTriplet,
        p: usize,
        taps: i64,
        seed: u64,
        safe: u128,
    ) -> (Model35Cells, Vec<u128>, Vec<u128>) {
        let len = (word.bounds.upper()[0] + taps - 1) as usize;
        let xs: Vec<u128> = (0..len)
            .map(|k| (seed.wrapping_mul(k as u64 + 3) >> 5) as u128 % (safe + 1))
            .collect();
        let ws: Vec<u128> = (0..taps as usize)
            .map(|k| (seed.wrapping_mul(k as u64 + 11) >> 7) as u128 % (safe + 1))
            .collect();
        let (xs2, ws2) = (xs.clone(), ws.clone());
        let cells = Model35Cells::new(
            word,
            p,
            alg,
            move |j| xs2[(j[0] + j[1] - 2) as usize],
            move |j| ws2[(j[1] - 1) as usize],
        );
        (cells, xs, ws)
    }

    #[test]
    fn batched_convolution_matches_scalar_per_lane() {
        // The tentpole claim: a convolution batch rides one word-wide
        // compiled walk, each lane bit-identical to its scalar run, with
        // results extracted straight from the packed words.
        let (outputs, taps, p) = (3i64, 2i64, 2usize);
        let (word, alg, sched) = convolution_fixture(outputs, taps, p);
        let n_lanes = 7usize; // ragged (not a power of two)
        let mut lanes = Vec::new();
        let mut operands = Vec::new();
        for l in 0..n_lanes {
            let (cells, xs, ws) = convolution_lane(&word, &alg, p, taps, 0x5EED + l as u64, 1);
            // safe=1 keeps every operand within max_safe_entry for any shape.
            assert!(xs
                .iter()
                .chain(ws.iter())
                .all(|&v| v <= cells.max_safe_entry()));
            lanes.push(cells);
            operands.push((xs, ws));
        }
        let batch_cells = Model35LaneCells::new(lanes);
        let run = sched.execute_batch(&batch_cells);
        assert!(run.is_legal(), "{:?}", run.violations);
        assert_eq!(run.lanes, n_lanes);

        let results = batch_cells.extract_results_batch(&run);
        for lane in 0..n_lanes {
            // Lane-for-lane against the scalar compiled engine...
            let scalar = sched.execute(batch_cells.lane_cells(lane));
            let extracted = run.extract_lane_run(&batch_cells, lane);
            assert_eq!(extracted.outputs, scalar.outputs, "lane {lane}");
            // ...and the packed extraction against the direct convolution.
            let (xs, ws) = &operands[lane];
            for (tail, &value) in &results[lane] {
                let j1 = tail[0];
                let want: u128 = (1..=taps)
                    .map(|j2| xs[(j1 + j2 - 2) as usize] * ws[(j2 - 1) as usize])
                    .sum();
                assert_eq!(value, want, "lane {lane} output sample {j1}");
            }
        }
    }

    #[test]
    fn width_one_model35_batch_is_bit_identical_to_execute() {
        let (outputs, taps, p) = (3i64, 2i64, 2usize);
        let (word, alg, sched) = convolution_fixture(outputs, taps, p);
        let (cells, _, _) = convolution_lane(&word, &alg, p, taps, 0xFACE, 1);
        let batch_cells = Model35LaneCells::new(vec![cells]);
        let run = sched.execute_batch(&batch_cells);
        let scalar = sched.execute(batch_cells.lane_cells(0));
        let lane0 = run.extract_lane_run(&batch_cells, 0);
        assert_eq!(lane0.cycles, scalar.cycles);
        assert_eq!(lane0.outputs, scalar.outputs);
    }

    #[test]
    fn batched_matvec_matches_references() {
        // d̄₂ absent (no word-level y reuse): the column-map-driven port must
        // read the y operand plane on every tile edge, per lane.
        let (mrows, kcols, p) = (3i64, 3i64, 3usize);
        let word = WordLevelAlgorithm::matvec(mrows, kcols);
        let alg = compose_ii(&word, p);
        let s = IMat::from_rows(&[&[p as i64, 0, 1, 0], &[0, 0, 0, 1]]);
        let ic = Interconnect::new(IMat::from_rows(&[
            &[p as i64, 0, 1, 0, 1],
            &[0, 0, 0, 1, -1],
        ]));
        let found = find_optimal_schedule(&s, &alg, &ic, 3).expect("feasible");
        let t = MappingMatrix::new(s, found.pi);
        let sched = crate::compiled::CompiledSchedule::compile(&alg, &t, &ic);

        let n_lanes = 5usize;
        let mut lanes = Vec::new();
        let mut operands = Vec::new();
        for l in 0..n_lanes {
            let a: Vec<Vec<u128>> = (0..mrows)
                .map(|i| {
                    (0..kcols)
                        .map(|j| ((i + 2 * j + l as i64) % 4) as u128)
                        .collect()
                })
                .collect();
            let v: Vec<u128> = (0..kcols)
                .map(|k| (((k + l as i64) % 3) + 1) as u128)
                .collect();
            let (a2, v2) = (a.clone(), v.clone());
            lanes.push(Model35Cells::new(
                &word,
                p,
                &alg,
                move |j| v2[(j[1] - 1) as usize],
                move |j| a2[(j[0] - 1) as usize][(j[1] - 1) as usize],
            ));
            operands.push((a, v));
        }
        let batch_cells = Model35LaneCells::new(lanes);
        let run = sched.execute_batch(&batch_cells);
        assert!(run.is_legal(), "{:?}", run.violations);
        let results = batch_cells.extract_results_batch(&run);
        for lane in 0..n_lanes {
            let (a, v) = &operands[lane];
            for (tail, &value) in &results[lane] {
                let i = (tail[0] - 1) as usize;
                let want: u128 = (0..kcols as usize).map(|k| a[i][k] * v[k]).sum();
                assert_eq!(value, want, "lane {lane} row {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "batch must hold")]
    fn empty_model35_batches_are_rejected() {
        let _ = Model35LaneCells::new(Vec::new());
    }

    #[test]
    fn malformed_schedule_degrades_missing_tokens_instead_of_panicking() {
        use crate::clocked::ClockedViolation;
        let (u, p) = (2usize, 2usize);
        let word = WordLevelAlgorithm::matmul(u as i64);
        let alg = compose_ii(&word, p);
        // Π·d̄₄ = −1: every intra-tile x token arrives *after* its consumer —
        // the schedule is illegal and the d4 gather at i1 > 1 sees no token.
        // This used to hit `expect("d4 token for i1 > 1")` and abort; now the
        // cell degrades to a zero wire and the engine records the violation.
        let t = MappingMatrix::new(
            PaperDesign::TimeOptimal.mapping(p as i64).space.clone(),
            IVec::from([1, 1, 1, -1, 1]),
        );
        let ic = PaperDesign::TimeOptimal.interconnect(p as i64);
        let mk_cells = || {
            Model35Cells::new(
                &word,
                p,
                &alg,
                |j| ((j[0] + j[2]) % 2) as u128,
                |j| ((j[1] * j[2]) % 2) as u128,
            )
        };
        let mut interp_cells = mk_cells();
        let run = run_clocked(&alg, &t, &ic, &mut interp_cells);
        assert!(!run.is_legal());
        assert!(run
            .violations
            .iter()
            .any(|v| matches!(v, ClockedViolation::MissingToken { .. })));

        // The compiled engine (sequential fallback: the schedule is not
        // causal) degrades identically, bit for bit.
        let sched = crate::compiled::CompiledSchedule::compile(&alg, &t, &ic);
        let compiled = sched.execute(&mk_cells());
        assert_eq!(compiled.outputs, run.outputs);
        assert_eq!(compiled.violations, run.violations);

        // And the lane-packed cells survive the same malformed schedule.
        let batch = Model35LaneCells::new(vec![mk_cells(), mk_cells()]);
        let brun = sched.execute_batch(&batch);
        assert_eq!(brun.extract_lane_run(&batch, 0).outputs, run.outputs);
        assert_eq!(brun.violations, run.violations);
    }

    #[test]
    fn try_resolve_reports_typed_errors() {
        use bitlevel_ir::{Dependence, DependenceSet};
        let word = WordLevelAlgorithm::matmul(2);
        let alg = compose_ii(&word, 2);
        let base: Vec<Dependence> = alg.deps.iter().cloned().collect();
        let rebuild = |deps: Vec<Dependence>| {
            AlgorithmTriplet::new(alg.index_set.clone(), DependenceSet::new(deps), "mutated")
        };

        // Mandatory arithmetic column absent.
        let mut deps = base.clone();
        deps.remove(5);
        assert_eq!(
            ColumnMap::try_resolve(&rebuild(deps)).unwrap_err(),
            ColumnMapError::MissingColumn { name: "d6" }
        );

        // Arithmetic column outside the Theorem 3.1 set.
        let mut deps = base.clone();
        deps[5] = Dependence::uniform([0, 0, 0, 1, 1], "z");
        assert_eq!(
            ColumnMap::try_resolve(&rebuild(deps)).unwrap_err(),
            ColumnMapError::UnexpectedArithmeticColumn { column: vec![1, 1] }
        );

        // Word-level column with an unknown cause.
        let mut deps = base.clone();
        deps[0] = Dependence::uniform([0, 1, 0, 0, 0], "w");
        assert_eq!(
            ColumnMap::try_resolve(&rebuild(deps)).unwrap_err(),
            ColumnMapError::UnexpectedWordColumn { cause: "w".into() }
        );

        // A column mixing word and arithmetic coordinates.
        let mut deps = base;
        deps[0] = Dependence::uniform([0, 1, 0, 1, 0], "x");
        assert_eq!(
            ColumnMap::try_resolve(&rebuild(deps)).unwrap_err(),
            ColumnMapError::MixedColumn { index: 0 }
        );

        // The well-formed structure still resolves.
        assert!(ColumnMap::try_resolve(&alg).is_ok());
    }

    #[test]
    #[should_panic(expected = "missing d6 column")]
    fn resolve_still_panics_on_malformed_structures() {
        use bitlevel_ir::{Dependence, DependenceSet};
        let word = WordLevelAlgorithm::matmul(2);
        let alg = compose_ii(&word, 2);
        let mut deps: Vec<Dependence> = alg.deps.iter().cloned().collect();
        deps.remove(5);
        let broken =
            AlgorithmTriplet::new(alg.index_set.clone(), DependenceSet::new(deps), "mutated");
        let _ = ColumnMap::resolve(&broken);
    }

    #[test]
    fn chain_metadata() {
        let word = WordLevelAlgorithm::matmul(3);
        let alg = compose_ii(&word, 2);
        let cells = Model35Cells::new(&word, 2, &alg, |_| 1, |_| 1);
        let tails = cells.chain_tails();
        assert_eq!(tails.len(), 9); // one per (j1, j2)
        for t in &tails {
            assert_eq!(t[2], 3); // chains end at j3 = u
            assert_eq!(cells.chain_length(t), 3);
        }
        assert!(cells.max_safe_entry() >= 1);
    }
}
