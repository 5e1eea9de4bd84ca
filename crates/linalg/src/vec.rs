//! Exact integer column vectors.
//!
//! In the paper's notation, index points `j̄`, dependence vectors `d̄` and the
//! loop bounds `l̄`, `ū` are all integer column vectors; [`IVec`] is the shared
//! representation. Row vectors (schedules `Π`) are represented as rows of an
//! [`crate::IMat`] or as `&[i64]` slices where a standalone row is needed.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// An exact integer column vector.
///
/// `IVec` is a thin wrapper over `Vec<i64>` with element-wise arithmetic,
/// dot products, and the component-wise partial order `v̄ ≥ ū` used by the
/// paper ("every component of v̄ is greater than or equal to the corresponding
/// component of ū").
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IVec(pub Vec<i64>);

impl IVec {
    /// Creates a vector from a slice.
    pub fn from_slice(v: &[i64]) -> Self {
        IVec(v.to_vec())
    }

    /// The zero vector `0̄` of dimension `n`.
    pub fn zeros(n: usize) -> Self {
        IVec(vec![0; n])
    }

    /// The all-ones vector of dimension `n`.
    pub fn ones(n: usize) -> Self {
        IVec(vec![1; n])
    }

    /// The `i`-th standard basis vector of dimension `n` (`e_i[i] = 1`).
    ///
    /// # Panics
    /// Panics if `i >= n`.
    pub fn unit(n: usize, i: usize) -> Self {
        assert!(i < n, "unit index {i} out of range for dimension {n}");
        let mut v = vec![0; n];
        v[i] = 1;
        IVec(v)
    }

    /// Dimension of the vector.
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// True if every component is zero.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&x| x == 0)
    }

    /// Dot product `⟨self, other⟩`.
    ///
    /// # Panics
    /// Panics on dimension mismatch (a programming error in this codebase,
    /// where all vectors of an algorithm share the algorithm dimension).
    pub fn dot(&self, other: &IVec) -> i64 {
        assert_eq!(
            self.dim(),
            other.dim(),
            "dot product dimension mismatch: {} vs {}",
            self.dim(),
            other.dim()
        );
        self.0
            .iter()
            .zip(&other.0)
            .map(|(&a, &b)| a.checked_mul(b).expect("dot product overflow"))
            .fold(0i64, |acc, x| {
                acc.checked_add(x).expect("dot product overflow")
            })
    }

    /// Dot product against a plain slice (e.g. a schedule row `Π`).
    pub fn dot_slice(&self, row: &[i64]) -> i64 {
        assert_eq!(self.dim(), row.len(), "dot_slice dimension mismatch");
        self.0
            .iter()
            .zip(row)
            .map(|(&a, &b)| a.checked_mul(b).expect("dot product overflow"))
            .fold(0i64, |acc, x| {
                acc.checked_add(x).expect("dot product overflow")
            })
    }

    /// Component-wise `≥` — the paper's `v̄ ≥ ū`.
    pub fn ge_componentwise(&self, other: &IVec) -> bool {
        self.dim() == other.dim() && self.0.iter().zip(&other.0).all(|(a, b)| a >= b)
    }

    /// Component-wise `≤`.
    pub fn le_componentwise(&self, other: &IVec) -> bool {
        other.ge_componentwise(self)
    }

    /// Concatenates two vectors, as in building the compound index point
    /// `q̄ = [j̄ᵀ, ī ᵀ]ᵀ` of eq. (3.10).
    pub fn concat(&self, other: &IVec) -> IVec {
        let mut v = self.0.clone();
        v.extend_from_slice(&other.0);
        IVec(v)
    }

    /// Splits the vector after the first `n` components: `(j̄, ī)` from `q̄`.
    ///
    /// # Panics
    /// Panics if `n > dim`.
    pub fn split_at(&self, n: usize) -> (IVec, IVec) {
        assert!(
            n <= self.dim(),
            "split index {n} beyond dimension {}",
            self.dim()
        );
        (IVec(self.0[..n].to_vec()), IVec(self.0[n..].to_vec()))
    }

    /// L1 norm `Σ |v_i|`.
    pub fn l1_norm(&self) -> i64 {
        self.0.iter().map(|x| x.abs()).sum()
    }

    /// L∞ norm `max |v_i|`.
    pub fn linf_norm(&self) -> i64 {
        self.0.iter().map(|x| x.abs()).max().unwrap_or(0)
    }

    /// Iterator over components.
    pub fn iter(&self) -> std::slice::Iter<'_, i64> {
        self.0.iter()
    }

    /// The underlying slice.
    pub fn as_slice(&self) -> &[i64] {
        &self.0
    }

    /// Scales every component by `k`.
    pub fn scaled(&self, k: i64) -> IVec {
        IVec(
            self.0
                .iter()
                .map(|&x| x.checked_mul(k).expect("scale overflow"))
                .collect(),
        )
    }
}

impl fmt::Display for IVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, x) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x}")?;
        }
        write!(f, "]")
    }
}

impl Index<usize> for IVec {
    type Output = i64;
    fn index(&self, i: usize) -> &i64 {
        &self.0[i]
    }
}

impl IndexMut<usize> for IVec {
    fn index_mut(&mut self, i: usize) -> &mut i64 {
        &mut self.0[i]
    }
}

impl From<Vec<i64>> for IVec {
    fn from(v: Vec<i64>) -> Self {
        IVec(v)
    }
}

impl From<&[i64]> for IVec {
    fn from(v: &[i64]) -> Self {
        IVec(v.to_vec())
    }
}

impl<const N: usize> From<[i64; N]> for IVec {
    fn from(v: [i64; N]) -> Self {
        IVec(v.to_vec())
    }
}

impl Add for &IVec {
    type Output = IVec;
    fn add(self, rhs: &IVec) -> IVec {
        assert_eq!(self.dim(), rhs.dim(), "vector add dimension mismatch");
        IVec(
            self.0
                .iter()
                .zip(&rhs.0)
                .map(|(a, b)| a.checked_add(*b).expect("vector add overflow"))
                .collect(),
        )
    }
}

impl Sub for &IVec {
    type Output = IVec;
    fn sub(self, rhs: &IVec) -> IVec {
        assert_eq!(self.dim(), rhs.dim(), "vector sub dimension mismatch");
        IVec(
            self.0
                .iter()
                .zip(&rhs.0)
                .map(|(a, b)| a.checked_sub(*b).expect("vector sub overflow"))
                .collect(),
        )
    }
}

impl Neg for &IVec {
    type Output = IVec;
    fn neg(self) -> IVec {
        IVec(self.0.iter().map(|x| -x).collect())
    }
}

impl Mul<i64> for &IVec {
    type Output = IVec;
    fn mul(self, k: i64) -> IVec {
        self.scaled(k)
    }
}

impl IntoIterator for IVec {
    type Item = i64;
    type IntoIter = std::vec::IntoIter<i64>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

impl<'a> IntoIterator for &'a IVec {
    type Item = &'a i64;
    type IntoIter = std::slice::Iter<'a, i64>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_basic_queries() {
        let v = IVec::from([1, -2, 3]);
        assert_eq!(v.dim(), 3);
        assert!(!v.is_zero());
        assert!(IVec::zeros(4).is_zero());
        assert_eq!(IVec::ones(3), IVec::from([1, 1, 1]));
        assert_eq!(IVec::unit(3, 1), IVec::from([0, 1, 0]));
    }

    #[test]
    #[should_panic(expected = "unit index")]
    fn unit_out_of_range_panics() {
        let _ = IVec::unit(2, 2);
    }

    #[test]
    fn arithmetic() {
        let a = IVec::from([1, 2, 3]);
        let b = IVec::from([4, -5, 6]);
        assert_eq!(&a + &b, IVec::from([5, -3, 9]));
        assert_eq!(&a - &b, IVec::from([-3, 7, -3]));
        assert_eq!(-&a, IVec::from([-1, -2, -3]));
        assert_eq!(&a * 3, IVec::from([3, 6, 9]));
        assert_eq!(a.dot(&b), 4 - 10 + 18);
        assert_eq!(a.dot_slice(&[1, 1, 1]), 6);
    }

    #[test]
    fn componentwise_order_matches_paper_definition() {
        let a = IVec::from([2, 3]);
        let b = IVec::from([1, 3]);
        assert!(a.ge_componentwise(&b));
        assert!(!b.ge_componentwise(&a));
        assert!(b.le_componentwise(&a));
        // Incomparable pair: neither ≥ holds.
        let c = IVec::from([0, 5]);
        assert!(!a.ge_componentwise(&c));
        assert!(!c.ge_componentwise(&a));
    }

    #[test]
    fn concat_and_split_roundtrip_eq_3_10() {
        // q̄ = [j̄ᵀ, īᵀ]ᵀ with j̄ 3-dimensional and ī 2-dimensional.
        let j = IVec::from([1, 2, 3]);
        let i = IVec::from([4, 5]);
        let q = j.concat(&i);
        assert_eq!(q, IVec::from([1, 2, 3, 4, 5]));
        let (j2, i2) = q.split_at(3);
        assert_eq!(j2, j);
        assert_eq!(i2, i);
    }

    #[test]
    fn norms() {
        let v = IVec::from([3, -4, 0]);
        assert_eq!(v.l1_norm(), 7);
        assert_eq!(v.linf_norm(), 4);
        assert_eq!(IVec::zeros(0).linf_norm(), 0);
    }

    #[test]
    fn display_format() {
        assert_eq!(IVec::from([1, -2]).to_string(), "[1, -2]");
    }
}
