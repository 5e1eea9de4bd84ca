//! Validity predicates for conditional dependence vectors.
//!
//! Most dependence vectors of an expanded bit-level algorithm are **not
//! uniform**: the paper annotates each column of `D_I`/`D_II` (eqs. 3.8–3.9,
//! 3.11) with the set of index points the vector is valid at — constraints
//! like `i₁ = 1`, `i₂ ≠ 1`, `jₙ = uₙ`, or the compound
//! `q̄₁ : (i₁ ≠ 1 or i₂ ∉ {1,2}) and jₙ = uₙ`. This module is a small predicate
//! algebra (disjunctive normal form over per-axis atoms) that can express all
//! of these, evaluate them at concrete points, and compare predicates
//! semantically over a given index set.

use crate::index_set::BoxSet;
use bitlevel_linalg::IVec;
use std::fmt;

/// The right-hand side an axis is compared against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rhs {
    /// A literal integer.
    Const(i64),
    /// The lower loop bound `l_axis` of the same axis.
    LowerBound,
    /// The upper loop bound `u_axis` of the same axis — the paper's `jₙ = uₙ`.
    UpperBound,
}

/// Comparison operator of an atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Cmp {
    /// `axis = rhs`
    Eq,
    /// `axis ≠ rhs`
    Ne,
}

/// One atomic constraint `j[axis] (= | ≠) rhs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Atom {
    /// Zero-based axis of the index space.
    pub axis: usize,
    /// Comparison.
    pub cmp: Cmp,
    /// Compared-against value.
    pub rhs: Rhs,
}

impl Atom {
    /// Evaluates the atom at point `j` inside index set `set` (needed to
    /// resolve [`Rhs::LowerBound`]/[`Rhs::UpperBound`]).
    pub fn eval(&self, j: &IVec, set: &BoxSet) -> bool {
        self.holds_at(j[self.axis], set)
    }

    /// Evaluates the atom where its axis takes `value` — every point of
    /// `set` with that coordinate agrees, whatever its other coordinates.
    pub fn holds_at(&self, value: i64, set: &BoxSet) -> bool {
        let rhs = match self.rhs {
            Rhs::Const(c) => c,
            Rhs::LowerBound => set.lower()[self.axis],
            Rhs::UpperBound => set.upper()[self.axis],
        };
        match self.cmp {
            Cmp::Eq => value == rhs,
            Cmp::Ne => value != rhs,
        }
    }

    /// The negated atom.
    pub fn negated(&self) -> Atom {
        Atom {
            cmp: match self.cmp {
                Cmp::Eq => Cmp::Ne,
                Cmp::Ne => Cmp::Eq,
            },
            ..*self
        }
    }
}

/// A predicate over index points in disjunctive normal form: an OR of ANDs of
/// [`Atom`]s. `Predicate::always()` is the empty conjunction (one empty
/// clause); `Predicate::never()` is the empty disjunction.
///
/// # Examples
///
/// The paper's `q̄₁ : (i₁ ≠ 1 or i₂ ∉ {1,2}) and j = u` (eq. (3.9)), over a
/// 3-axis space `(j, i₁, i₂)`:
///
/// ```
/// use bitlevel_ir::{BoxSet, Predicate};
/// use bitlevel_linalg::IVec;
///
/// let q1 = Predicate::ne_const(1, 1)
///     .or(&Predicate::not_in(2, &[1, 2]))
///     .and(&Predicate::eq_upper(0));
/// let set = BoxSet::new(IVec::from([1, 1, 1]), IVec::from([4, 3, 3]));
/// assert!(q1.eval(&IVec::from([4, 2, 1]), &set));  // i1 ≠ 1 at j = u
/// assert!(!q1.eval(&IVec::from([4, 1, 2]), &set)); // neither disjunct
/// assert!(!q1.eval(&IVec::from([3, 2, 3]), &set)); // j ≠ u
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Predicate {
    /// DNF clauses; each clause is a conjunction of atoms.
    clauses: Vec<Vec<Atom>>,
}

impl Predicate {
    /// The predicate that holds everywhere (a uniform dependence).
    pub fn always() -> Self {
        Predicate {
            clauses: vec![vec![]],
        }
    }

    /// The predicate that holds nowhere.
    pub fn never() -> Self {
        Predicate { clauses: vec![] }
    }

    /// A single atom.
    pub fn atom(axis: usize, cmp: Cmp, rhs: Rhs) -> Self {
        Predicate {
            clauses: vec![vec![Atom { axis, cmp, rhs }]],
        }
    }

    /// `axis = c` for a constant.
    pub fn eq_const(axis: usize, c: i64) -> Self {
        Self::atom(axis, Cmp::Eq, Rhs::Const(c))
    }

    /// `axis ≠ c` for a constant.
    pub fn ne_const(axis: usize, c: i64) -> Self {
        Self::atom(axis, Cmp::Ne, Rhs::Const(c))
    }

    /// `axis = u_axis` — the paper's "valid only on the last hyperplane".
    pub fn eq_upper(axis: usize) -> Self {
        Self::atom(axis, Cmp::Eq, Rhs::UpperBound)
    }

    /// `axis ≠ u_axis`.
    pub fn ne_upper(axis: usize) -> Self {
        Self::atom(axis, Cmp::Ne, Rhs::UpperBound)
    }

    /// `axis = l_axis`.
    pub fn eq_lower(axis: usize) -> Self {
        Self::atom(axis, Cmp::Eq, Rhs::LowerBound)
    }

    /// `axis ∉ {vals…}` as a conjunction of ≠ atoms.
    pub fn not_in(axis: usize, vals: &[i64]) -> Self {
        Predicate {
            clauses: vec![vals
                .iter()
                .map(|&c| Atom {
                    axis,
                    cmp: Cmp::Ne,
                    rhs: Rhs::Const(c),
                })
                .collect()],
        }
    }

    /// Conjunction (distributes over the DNF clauses).
    pub fn and(&self, other: &Predicate) -> Predicate {
        let mut clauses = Vec::with_capacity(self.clauses.len() * other.clauses.len());
        for a in &self.clauses {
            for b in &other.clauses {
                let mut clause = a.clone();
                clause.extend_from_slice(b);
                clause.sort();
                clause.dedup();
                clauses.push(clause);
            }
        }
        Predicate { clauses }.normalised()
    }

    /// Disjunction (concatenates clauses).
    pub fn or(&self, other: &Predicate) -> Predicate {
        let mut clauses = self.clauses.clone();
        clauses.extend_from_slice(&other.clauses);
        Predicate { clauses }.normalised()
    }

    /// Negation (De Morgan over the DNF; atoms flip Eq↔Ne).
    pub fn negate(&self) -> Predicate {
        // ¬(C₁ ∨ … ∨ Cₖ) = ¬C₁ ∧ … ∧ ¬Cₖ, and ¬(a₁ ∧ … ∧ aₘ) = ¬a₁ ∨ … ∨ ¬aₘ.
        let mut acc = Predicate::always();
        for clause in &self.clauses {
            let neg_clause = Predicate {
                clauses: clause.iter().map(|a| vec![a.negated()]).collect(),
            };
            acc = acc.and(&neg_clause);
        }
        acc
    }

    /// Evaluates the predicate at `j` within `set`.
    pub fn eval(&self, j: &IVec, set: &BoxSet) -> bool {
        self.clauses
            .iter()
            .any(|clause| clause.iter().all(|a| a.eval(j, set)))
    }

    /// True if this predicate holds at every point of `set` (i.e. the
    /// dependence is **uniform** over the set). Decided by exhaustive
    /// evaluation — index sets in this project are small.
    pub fn is_uniform_over(&self, set: &BoxSet) -> bool {
        set.iter_points().all(|j| self.eval(&j, set))
    }

    /// Semantic equality over a set, by exhaustive evaluation.
    pub fn equivalent_over(&self, other: &Predicate, set: &BoxSet) -> bool {
        set.iter_points()
            .all(|j| self.eval(&j, set) == other.eval(&j, set))
    }

    /// All points of `set` where the predicate holds.
    pub fn satisfying_points(&self, set: &BoxSet) -> Vec<IVec> {
        set.iter_points().filter(|j| self.eval(j, set)).collect()
    }

    /// Shifts every axis reference by `offset` — used when a predicate over
    /// the 2-D arithmetic index set `(i₁, i₂)` is embedded in the compound
    /// `n+2`-dimensional set of Theorem 3.1 (the arithmetic axes become
    /// axes `n`, `n+1`).
    pub fn shift_axes(&self, offset: usize) -> Predicate {
        Predicate {
            clauses: self
                .clauses
                .iter()
                .map(|clause| {
                    clause
                        .iter()
                        .map(|a| Atom {
                            axis: a.axis + offset,
                            ..*a
                        })
                        .collect()
                })
                .collect(),
        }
    }

    /// The DNF clauses (read-only view).
    pub fn clauses(&self) -> &[Vec<Atom>] {
        &self.clauses
    }

    fn normalised(mut self) -> Predicate {
        // Drop clauses containing contradictory atoms (x = c ∧ x ≠ c), absorb
        // duplicate clauses, and collapse to `always` if any clause is empty.
        self.clauses.retain(|clause| {
            !clause.iter().any(|a| {
                clause.contains(&Atom {
                    cmp: a.cmp.flip(),
                    ..*a
                })
            })
        });
        self.clauses.sort();
        self.clauses.dedup();
        if self.clauses.iter().any(|c| c.is_empty()) {
            return Predicate::always();
        }
        self
    }
}

impl Cmp {
    fn flip(self) -> Cmp {
        match self {
            Cmp::Eq => Cmp::Ne,
            Cmp::Ne => Cmp::Eq,
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.clauses.is_empty() {
            return write!(f, "never");
        }
        if self.clauses.len() == 1 && self.clauses[0].is_empty() {
            return write!(f, "always");
        }
        for (ci, clause) in self.clauses.iter().enumerate() {
            if ci > 0 {
                write!(f, " or ")?;
            }
            if self.clauses.len() > 1 && clause.len() > 1 {
                write!(f, "(")?;
            }
            for (ai, a) in clause.iter().enumerate() {
                if ai > 0 {
                    write!(f, " and ")?;
                }
                let op = match a.cmp {
                    Cmp::Eq => "=",
                    Cmp::Ne => "!=",
                };
                match a.rhs {
                    Rhs::Const(c) => write!(f, "j{}{}{}", a.axis + 1, op, c)?,
                    Rhs::LowerBound => write!(f, "j{}{}l{}", a.axis + 1, op, a.axis + 1)?,
                    Rhs::UpperBound => write!(f, "j{}{}u{}", a.axis + 1, op, a.axis + 1)?,
                }
            }
            if self.clauses.len() > 1 && clause.len() > 1 {
                write!(f, ")")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube() -> BoxSet {
        BoxSet::cube(3, 1, 3)
    }

    #[test]
    fn always_and_never() {
        let s = cube();
        assert!(Predicate::always().is_uniform_over(&s));
        assert!(Predicate::never().satisfying_points(&s).is_empty());
        assert_eq!(Predicate::always().to_string(), "always");
        assert_eq!(Predicate::never().to_string(), "never");
    }

    #[test]
    fn atoms_evaluate() {
        let s = cube();
        let p = Predicate::eq_const(0, 2);
        assert!(p.eval(&IVec::from([2, 1, 1]), &s));
        assert!(!p.eval(&IVec::from([1, 1, 1]), &s));
        let p = Predicate::ne_const(1, 3);
        assert!(p.eval(&IVec::from([1, 1, 1]), &s));
        assert!(!p.eval(&IVec::from([1, 3, 1]), &s));
    }

    #[test]
    fn upper_bound_atom_tracks_the_set() {
        // The paper's "valid at jₙ = uₙ" (d̄₆ of Expansion I).
        let p = Predicate::eq_upper(2);
        let small = BoxSet::cube(3, 1, 2);
        let big = BoxSet::cube(3, 1, 5);
        assert!(p.eval(&IVec::from([1, 1, 2]), &small));
        assert!(!p.eval(&IVec::from([1, 1, 2]), &big));
        assert!(p.eval(&IVec::from([1, 1, 5]), &big));
    }

    #[test]
    fn q1_compound_predicate_of_eq_3_9() {
        // q̄₁ : (i₁ ≠ 1 or i₂ ∉ {1,2}) and j = u, axes (j, i1, i2) = (0, 1, 2)
        // over J = [l,u] × [1,p]².
        let q1 = Predicate::ne_const(1, 1)
            .or(&Predicate::not_in(2, &[1, 2]))
            .and(&Predicate::eq_upper(0));
        let set = BoxSet::new(IVec::from([1, 1, 1]), IVec::from([4, 3, 3]));
        // j=4, i1=2, i2=1: i1≠1 holds -> valid.
        assert!(q1.eval(&IVec::from([4, 2, 1]), &set));
        // j=4, i1=1, i2=3: i2 ∉ {1,2} holds -> valid.
        assert!(q1.eval(&IVec::from([4, 1, 3]), &set));
        // j=4, i1=1, i2=2: neither disjunct -> invalid.
        assert!(!q1.eval(&IVec::from([4, 1, 2]), &set));
        // j=3 (not u): invalid regardless.
        assert!(!q1.eval(&IVec::from([3, 2, 3]), &set));
    }

    #[test]
    fn and_or_negate_are_boolean_algebra() {
        let s = cube();
        let a = Predicate::eq_const(0, 1);
        let b = Predicate::ne_const(1, 2);
        let and = a.and(&b);
        let or = a.or(&b);
        let na = a.negate();
        for j in s.iter_points() {
            assert_eq!(and.eval(&j, &s), a.eval(&j, &s) && b.eval(&j, &s));
            assert_eq!(or.eval(&j, &s), a.eval(&j, &s) || b.eval(&j, &s));
            assert_eq!(na.eval(&j, &s), !a.eval(&j, &s));
        }
        // Double negation is semantically the identity.
        assert!(a.negate().negate().equivalent_over(&a, &s));
        // De Morgan.
        assert!(and.negate().equivalent_over(&na.or(&b.negate()), &s));
    }

    #[test]
    fn contradictory_clause_is_dropped() {
        let p = Predicate::eq_const(0, 1).and(&Predicate::ne_const(0, 1));
        let s = cube();
        assert!(p.equivalent_over(&Predicate::never(), &s));
    }

    #[test]
    fn shift_axes_embeds_arithmetic_predicates() {
        // i₂ ≠ 1 over (i1, i2) becomes axis 4 in the 5-D matmul set.
        let p = Predicate::ne_const(1, 1).shift_axes(3);
        let set = BoxSet::cube(5, 1, 3);
        assert!(p.eval(&IVec::from([1, 1, 1, 1, 2]), &set));
        assert!(!p.eval(&IVec::from([1, 1, 1, 1, 1]), &set));
    }

    #[test]
    fn uniformity_detection() {
        let s = cube();
        assert!(Predicate::always().is_uniform_over(&s));
        assert!(!Predicate::eq_const(0, 1).is_uniform_over(&s));
        // A predicate that happens to hold at all points of this box.
        let p = Predicate::ne_const(0, 99);
        assert!(p.is_uniform_over(&s));
    }

    #[test]
    fn display_round_trips_semantics_for_reading() {
        let q1 = Predicate::ne_const(1, 1).and(&Predicate::eq_upper(0));
        let s = q1.to_string();
        assert!(s.contains("j2!=1"), "{s}");
        assert!(s.contains("j1=u1"), "{s}");
    }
}
