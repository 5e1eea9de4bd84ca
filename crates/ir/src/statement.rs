//! Guarded assignment statements and loop nests.
//!
//! This is the concrete program form of the paper's model (2.1): a nest of
//! `n` DO loops whose body is a sequence of single-assignment statements
//! `x_k(g(j̄)) = f(x₁(h₁(j̄)), …, x_t(h_t(j̄)))`. Bit-level *expanded* programs
//! additionally guard statements by boundary predicates (e.g. the add-shift
//! drain statements only execute at `jₙ = uₙ`), so each statement carries a
//! [`Predicate`] guard. The general dependence analyser in `bitlevel-depanal`
//! consumes exactly this representation.

use crate::affine::AffineFn;
use crate::index_set::BoxSet;
use crate::predicate::Predicate;
use std::fmt;

/// The operation a statement performs. Dependence analysis only needs the
/// access pattern; the operation matters to the functional simulators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind {
    /// Pure data propagation `x(j̄) = x(j̄ − d̄)` (pipelining).
    Copy,
    /// Word-level multiply–accumulate `z = z′ + x·y` (model 3.5).
    MulAdd,
    /// Bit-level partial-sum: `s = f(x₁,x₂,x₃) = x₁ ⊕ x₂ ⊕ x₃` (eq. 3.2).
    SumBit,
    /// Bit-level carry: `c = g(x₁,x₂,x₃) = majority(x₁,x₂,x₃)` (eq. 3.2).
    CarryBit,
    /// Generalised (4–5 input) sum/carry used on the `i₁ = p` plane of
    /// Expansion II, producing sum plus two carries. The payload selects which
    /// output bit this statement produces (0 = sum, 1 = carry, 2 = second
    /// carry `c'`).
    WideAddOutput(u8),
    /// Anything else, described for humans.
    Other(String),
}

/// One array access `array(g(j̄))`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Access {
    /// Array (variable) name.
    pub array: String,
    /// Subscript function `g`.
    pub func: AffineFn,
}

impl Access {
    /// Convenience constructor.
    pub fn new(array: &str, func: AffineFn) -> Self {
        Access {
            array: array.to_string(),
            func,
        }
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.array, self.func)
    }
}

/// A guarded single-assignment statement inside the loop nest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Statement {
    /// Left-hand side (written access).
    pub target: Access,
    /// Right-hand side (read accesses, in operand order).
    pub inputs: Vec<Access>,
    /// Operation performed.
    pub op: OpKind,
    /// Guard: the statement executes only where this predicate holds
    /// (`Predicate::always()` for unguarded statements).
    pub guard: Predicate,
}

impl Statement {
    /// An unguarded statement.
    pub fn new(target: Access, inputs: Vec<Access>, op: OpKind) -> Self {
        Statement {
            target,
            inputs,
            op,
            guard: Predicate::always(),
        }
    }

    /// A guarded statement.
    pub fn guarded(target: Access, inputs: Vec<Access>, op: OpKind, guard: Predicate) -> Self {
        Statement {
            target,
            inputs,
            op,
            guard,
        }
    }

    /// A propagation statement `array(j̄) = array(j̄ − d̄)`.
    pub fn pipeline(array: &str, n: usize, d: &bitlevel_linalg::IVec) -> Self {
        Statement::new(
            Access::new(array, AffineFn::identity(n)),
            vec![Access::new(array, AffineFn::shift_back(d))],
            OpKind::Copy,
        )
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = op[", self.target)?;
        match &self.op {
            OpKind::Copy => write!(f, "copy")?,
            OpKind::MulAdd => write!(f, "muladd")?,
            OpKind::SumBit => write!(f, "sum")?,
            OpKind::CarryBit => write!(f, "carry")?,
            OpKind::WideAddOutput(k) => write!(f, "wide{k}")?,
            OpKind::Other(s) => write!(f, "{s}")?,
        }
        write!(f, "](")?;
        for (i, a) in self.inputs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")?;
        if self.guard != Predicate::always() {
            write!(f, "  if {}", self.guard)?;
        }
        Ok(())
    }
}

/// A whole nested-loop program: bounds plus ordered statements — the paper's
/// form (2.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopNest {
    /// Iteration space.
    pub bounds: BoxSet,
    /// Body statements in program order.
    pub statements: Vec<Statement>,
}

impl LoopNest {
    /// Creates a loop nest; validates that all accesses use the nest's
    /// dimension as their input dimension.
    ///
    /// # Panics
    /// Panics on dimension inconsistency.
    pub fn new(bounds: BoxSet, statements: Vec<Statement>) -> Self {
        let n = bounds.dim();
        for s in &statements {
            assert_eq!(
                s.target.func.input_dim(),
                n,
                "target access dimension mismatch"
            );
            for a in &s.inputs {
                assert_eq!(a.func.input_dim(), n, "input access dimension mismatch");
            }
        }
        LoopNest { bounds, statements }
    }

    /// Dimension of the nest (number of loops).
    pub fn dim(&self) -> usize {
        self.bounds.dim()
    }

    /// All distinct array names appearing in the nest.
    pub fn arrays(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .statements
            .iter()
            .flat_map(|s| {
                std::iter::once(s.target.array.clone())
                    .chain(s.inputs.iter().map(|a| a.array.clone()))
            })
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Program-order display of the loop nest.
    pub fn pretty(&self) -> String {
        let mut out = format!(
            "DO {}  [{} points]\n",
            self.bounds,
            self.bounds.cardinality()
        );
        for s in &self.statements {
            out.push_str(&format!("  {s}\n"));
        }
        out.push_str("END\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitlevel_linalg::IVec;

    /// Builds program (2.3): broadcast-free word-level matmul.
    fn matmul_nest(u: i64) -> LoopNest {
        let n = 3;
        LoopNest::new(
            BoxSet::cube(n, 1, u),
            vec![
                Statement::pipeline("x", n, &IVec::from([0, 1, 0])),
                Statement::pipeline("y", n, &IVec::from([1, 0, 0])),
                Statement::new(
                    Access::new("z", AffineFn::identity(n)),
                    vec![
                        Access::new("z", AffineFn::shift_back(&IVec::from([0, 0, 1]))),
                        Access::new("x", AffineFn::identity(n)),
                        Access::new("y", AffineFn::identity(n)),
                    ],
                    OpKind::MulAdd,
                ),
            ],
        )
    }

    #[test]
    fn matmul_nest_structure() {
        let nest = matmul_nest(3);
        assert_eq!(nest.dim(), 3);
        assert_eq!(nest.statements.len(), 3);
        assert_eq!(nest.arrays(), vec!["x".to_string(), "y".into(), "z".into()]);
    }

    #[test]
    fn pipeline_statement_shape() {
        let s = Statement::pipeline("x", 3, &IVec::from([0, 1, 0]));
        assert_eq!(s.op, OpKind::Copy);
        assert_eq!(s.inputs.len(), 1);
        assert_eq!(
            s.inputs[0].func.apply(&IVec::from([2, 2, 2])),
            IVec::from([2, 1, 2])
        );
        assert!(s
            .to_string()
            .contains("x(j1, j2, j3) = op[copy](x(j1, j2-1, j3))"));
    }

    #[test]
    fn guarded_statement_displays_guard() {
        let s = Statement::guarded(
            Access::new("s", AffineFn::identity(2)),
            vec![],
            OpKind::SumBit,
            Predicate::eq_const(0, 1),
        );
        assert!(s.to_string().contains("if j1=1"));
    }

    #[test]
    fn pretty_prints_whole_nest() {
        let p = matmul_nest(2).pretty();
        assert!(p.starts_with("DO"));
        assert!(p.contains("[8 points]"));
        assert!(p.trim_end().ends_with("END"));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let _ = LoopNest::new(
            BoxSet::cube(2, 1, 3),
            vec![Statement::pipeline("x", 3, &IVec::from([0, 1, 0]))],
        );
    }
}
