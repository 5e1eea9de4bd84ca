//! Direction-vector dependence analysis (Banerjee [1], chapter-style).
//!
//! Beyond the yes/no screening of [`crate::tests_classic`], classical
//! dependence analysis refines a dependence by its **direction vector**: for
//! each loop axis, whether the source iteration is earlier (`<`), equal
//! (`=`) or later (`>`) than the sink. Direction vectors drive loop
//! transformations and, in the systolic context, tell which axes a
//! dependence actually crosses. This module implements the hierarchical
//! direction-vector test — Banerjee bounds evaluated under per-axis
//! direction constraints — plus the exact classification of enumerated
//! instances it is validated against.

use crate::exact::DependenceInstances;
use bitlevel_ir::{AffineFn, BoxSet};
use bitlevel_linalg::IVec;
use std::collections::BTreeSet;

/// Per-axis direction of a dependence (sink relative to source).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Dir {
    /// Source iteration strictly earlier on this axis (`d > 0`, "<").
    Lt,
    /// Same iteration on this axis (`d = 0`, "=").
    Eq,
    /// Source iteration strictly later on this axis (`d < 0`, ">").
    Gt,
    /// Unconstrained.
    Any,
}

impl Dir {
    /// Whether a concrete per-axis distance satisfies this direction.
    pub fn admits(self, distance: i64) -> bool {
        match self {
            Dir::Lt => distance > 0,
            Dir::Eq => distance == 0,
            Dir::Gt => distance < 0,
            Dir::Any => true,
        }
    }
}

/// Verdict of the directed Banerjee test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirectedVerdict {
    /// A dependence with this direction vector may exist.
    MayDepend,
    /// No dependence with this direction vector exists.
    Independent,
}

/// Range (min, max) of `a·j − b·j'` over `j, j' ∈ [l, u]` subject to the
/// direction constraint between `j` (source/write) and `j'` (sink/read):
/// `Lt` means the *sink* is later (`j' > j`). Returns `None` when the
/// constraint is unsatisfiable (e.g. `Lt` on a single-point axis).
///
/// Closed form (Banerjee's `h`-function style), `O(1)`:
///
/// * `Any` — the two variables are independent:
///   `max = a⁺u − a⁻l + b⁻u − b⁺l` (min symmetric);
/// * `Eq` — one variable with coefficient `a − b`;
/// * `Lt` — substitute `j' = j + d`, `d ∈ [1, u−l]`: the objective
///   `(a−b)·j − b·d` is, for each `d`, maximised at a `j`-endpoint, and the
///   resulting expression is **linear in d**, so the extreme lies at
///   `d = 1` or `d = u − l`;
/// * `Gt` — mirror of `Lt`.
fn directed_term_range(a: i64, b: i64, l: i64, u: i64, dir: Dir) -> Option<(i64, i64)> {
    let pos = |x: i64| x.max(0);
    let neg = |x: i64| (-x).max(0);
    match dir {
        Dir::Any => {
            let max = pos(a) * u - neg(a) * l + neg(b) * u - pos(b) * l;
            let min = -(neg(a) * u - pos(a) * l + pos(b) * u - neg(b) * l);
            Some((min, max))
        }
        Dir::Eq => {
            let c = a - b;
            Some((pos(c) * l - neg(c) * u, pos(c) * u - neg(c) * l))
        }
        Dir::Lt | Dir::Gt => {
            if u == l {
                return None; // strict inequality unsatisfiable on one point
            }
            // For Lt: f = (a−b)·j − b·d with j ∈ [l, u−d], d ∈ [1, u−l].
            // For Gt: swap the roles (j = j' + d): f = (a−b)·j' + a·d.
            let (c, w) = match dir {
                Dir::Lt => (a - b, -b),
                _ => (a - b, a),
            };
            let at = |d: i64| {
                // j ranges over [l, u−d] (Lt) / j' over [l, u−d] (Gt).
                let hi = pos(c) * (u - d) - neg(c) * l + w * d;
                let lo = pos(c) * l - neg(c) * (u - d) + w * d;
                (lo.min(hi), lo.max(hi))
            };
            let (lo1, hi1) = at(1);
            let (lo2, hi2) = at(u - l);
            Some((lo1.min(lo2), hi1.max(hi2)))
        }
    }
}

/// The brute-force reference for [`directed_term_range`]: exact enumeration
/// over the axis box. Used by the property tests as the oracle; `O((u−l)²)`.
#[doc(hidden)]
pub fn directed_term_range_enumerated(
    a: i64,
    b: i64,
    l: i64,
    u: i64,
    dir: Dir,
) -> Option<(i64, i64)> {
    let mut min = i64::MAX;
    let mut max = i64::MIN;
    let mut any = false;
    for j in l..=u {
        for jp in l..=u {
            let ok = match dir {
                Dir::Lt => jp > j,
                Dir::Eq => jp == j,
                Dir::Gt => jp < j,
                Dir::Any => true,
            };
            if ok {
                let v = a * j - b * jp;
                min = min.min(v);
                max = max.max(v);
                any = true;
            }
        }
    }
    any.then_some((min, max))
}

/// The directed Banerjee test: can the write `A_w·j̄ + b̄_w` and the read
/// `A_r·j̄' + b̄_r` touch the same element with the sink displaced from the
/// source according to `dirs`? Sound: `Independent` is definitive,
/// `MayDepend` is conservative.
///
/// # Panics
/// Panics on arity/dimension mismatches.
pub fn banerjee_directed(
    write: &AffineFn,
    read: &AffineFn,
    bounds: &BoxSet,
    dirs: &[Dir],
) -> DirectedVerdict {
    let n = bounds.dim();
    assert_eq!(write.input_dim(), n, "write access dimension mismatch");
    assert_eq!(read.input_dim(), n, "read access dimension mismatch");
    assert_eq!(dirs.len(), n, "one direction per axis required");
    assert_eq!(
        write.output_dim(),
        read.output_dim(),
        "subscript arity mismatch"
    );

    for r in 0..write.output_dim() {
        let c = read.offset[r] - write.offset[r];
        let mut min = 0i64;
        let mut max = 0i64;
        #[allow(clippy::needless_range_loop)] // i indexes four parallel structures
        for i in 0..n {
            match directed_term_range(
                write.matrix[(r, i)],
                read.matrix[(r, i)],
                bounds.lower()[i],
                bounds.upper()[i],
                dirs[i],
            ) {
                Some((lo, hi)) => {
                    min += lo;
                    max += hi;
                }
                None => return DirectedVerdict::Independent, // constraint unsatisfiable
            }
        }
        if c < min || c > max {
            return DirectedVerdict::Independent;
        }
    }
    DirectedVerdict::MayDepend
}

/// All direction vectors realised by a set of exact dependence instances —
/// the ground truth the directed test is checked against. Each instance
/// `(j̄, d̄)` contributes the sign pattern of `d̄`.
pub fn realized_directions(instances: &DependenceInstances) -> BTreeSet<Vec<Dir>> {
    let mut out = BTreeSet::new();
    for d in instances.keys() {
        out.insert(signs_of(d));
    }
    out
}

/// The sign pattern of one dependence vector.
pub fn signs_of(d: &IVec) -> Vec<Dir> {
    d.iter()
        .map(|&x| {
            if x > 0 {
                Dir::Lt
            } else if x < 0 {
                Dir::Gt
            } else {
                Dir::Eq
            }
        })
        .collect()
}

/// Enumerates the full direction hierarchy of one access pair: every
/// all-concrete direction vector (`Lt`/`Eq`/`Gt` per axis, no `Any`) that
/// the directed Banerjee test cannot rule out.
pub fn surviving_directions(write: &AffineFn, read: &AffineFn, bounds: &BoxSet) -> Vec<Vec<Dir>> {
    let n = bounds.dim();
    let dirs = [Dir::Lt, Dir::Eq, Dir::Gt];
    let total = 3usize.pow(n as u32);
    let mut out = Vec::new();
    for code in 0..total {
        let mut v = Vec::with_capacity(n);
        let mut c = code;
        for _ in 0..n {
            v.push(dirs[c % 3]);
            c /= 3;
        }
        if banerjee_directed(write, read, bounds, &v) == DirectedVerdict::MayDepend {
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::enumerate_dependences;
    use bitlevel_ir::{Access, LoopNest, OpKind, Statement, WordLevelAlgorithm};
    use bitlevel_linalg::IMat;
    use proptest::prelude::*;

    #[test]
    fn matmul_pipelines_have_single_directions() {
        // The z accumulation z(j̄) <- z(j̄ − [0,0,1]): direction (=, =, <).
        let b = BoxSet::cube(3, 1, 4);
        let write = AffineFn::identity(3);
        let read = AffineFn::shift_back(&IVec::from([0, 0, 1]));
        assert_eq!(
            banerjee_directed(&write, &read, &b, &[Dir::Eq, Dir::Eq, Dir::Lt]),
            DirectedVerdict::MayDepend
        );
        // Any other concrete direction is ruled out.
        let surviving = surviving_directions(&write, &read, &b);
        assert_eq!(surviving, vec![vec![Dir::Eq, Dir::Eq, Dir::Lt]]);
    }

    #[test]
    fn anti_diagonal_access_has_mixed_direction() {
        // Convolution's x(j1 + j2 − 1): distance vectors along [1, −1]:
        // direction (<, >).
        let b = BoxSet::cube(2, 1, 4);
        let write = AffineFn::new(IMat::from_rows(&[&[1, 1]]), IVec::from([-1]));
        let read = write.clone();
        let surviving = surviving_directions(&write, &read, &b);
        // (=,=) is the same-iteration case; the real cross-iteration
        // directions are (<,>) and (>,<).
        assert!(surviving.contains(&vec![Dir::Lt, Dir::Gt]));
        assert!(surviving.contains(&vec![Dir::Gt, Dir::Lt]));
        assert!(!surviving.contains(&vec![Dir::Lt, Dir::Lt]));
        assert!(!surviving.contains(&vec![Dir::Lt, Dir::Eq]));
    }

    #[test]
    fn unsatisfiable_direction_on_degenerate_axis() {
        // Single-point axis: Lt/Gt are unsatisfiable.
        let b = BoxSet::new(IVec::from([1, 1]), IVec::from([1, 4]));
        let write = AffineFn::identity(2);
        let read = AffineFn::shift_back(&IVec::from([0, 1]));
        assert_eq!(
            banerjee_directed(&write, &read, &b, &[Dir::Lt, Dir::Any]),
            DirectedVerdict::Independent
        );
        assert_eq!(
            banerjee_directed(&write, &read, &b, &[Dir::Eq, Dir::Lt]),
            DirectedVerdict::MayDepend
        );
    }

    #[test]
    fn realized_directions_of_word_level_matmul() {
        let inst = enumerate_dependences(&WordLevelAlgorithm::matmul(3).nest());
        let dirs = realized_directions(&inst);
        // Exactly the three unit-direction patterns of D in (2.4).
        assert_eq!(dirs.len(), 3);
        assert!(dirs.contains(&vec![Dir::Lt, Dir::Eq, Dir::Eq]));
        assert!(dirs.contains(&vec![Dir::Eq, Dir::Lt, Dir::Eq]));
        assert!(dirs.contains(&vec![Dir::Eq, Dir::Eq, Dir::Lt]));
    }

    proptest! {
        /// The closed-form directed term range equals exhaustive enumeration
        /// for every direction and random coefficients/bounds.
        #[test]
        fn prop_closed_form_equals_enumeration(
            a in -5i64..6, b in -5i64..6, l in -4i64..5, ext in 0i64..6,
        ) {
            let u = l + ext;
            for dir in [Dir::Any, Dir::Eq, Dir::Lt, Dir::Gt] {
                prop_assert_eq!(
                    directed_term_range(a, b, l, u, dir),
                    directed_term_range_enumerated(a, b, l, u, dir),
                    "a={} b={} l={} u={} {:?}", a, b, l, u, dir
                );
            }
        }

        /// Soundness: every direction realised by exact instances must
        /// survive the directed Banerjee test.
        #[test]
        fn prop_directed_test_is_sound(
            rm in proptest::collection::vec(-2i64..3, 4),
            rb in proptest::collection::vec(-3i64..4, 2),
        ) {
            let bounds = BoxSet::cube(2, 1, 4);
            let write = AffineFn::identity(2);
            let read = AffineFn::new(IMat::from_flat(2, 2, rm), IVec(rb));
            let nest = LoopNest::new(
                bounds.clone(),
                vec![
                    Statement::new(Access::new("t", write.clone()), vec![], OpKind::Other("w".into())),
                    Statement::new(
                        Access::new("u", AffineFn::identity(2)),
                        vec![Access::new("t", read.clone())],
                        OpKind::Copy,
                    ),
                ],
            );
            let exact = enumerate_dependences(&nest);
            for dir in realized_directions(&exact) {
                prop_assert_eq!(
                    banerjee_directed(&write, &read, &bounds, &dir),
                    DirectedVerdict::MayDepend,
                    "realized direction {:?} wrongly ruled out", dir
                );
            }
        }
    }
}
