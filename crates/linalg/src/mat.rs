//! Exact integer matrices.
//!
//! Dependence matrices `D`, mapping matrices `T = [S; Π]`, interconnection
//! primitive matrices `P`, and utilisation matrices `K` (Definition 4.1) are
//! all small dense integer matrices; [`IMat`] is their common representation,
//! stored row-major.

use crate::vec::IVec;
use std::fmt;

/// A dense, row-major, exact integer matrix.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IMat {
    rows: usize,
    cols: usize,
    data: Vec<i64>,
}

impl IMat {
    /// Creates a matrix from nested rows.
    ///
    /// # Panics
    /// Panics if rows are ragged.
    pub fn from_rows(rows: &[&[i64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows in IMat::from_rows");
            data.extend_from_slice(row);
        }
        IMat {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<i64>) -> Self {
        assert_eq!(data.len(), rows * cols, "flat buffer size mismatch");
        IMat { rows, cols, data }
    }

    /// Builds a matrix whose columns are the given vectors (e.g. a dependence
    /// matrix from dependence vectors).
    ///
    /// # Panics
    /// Panics if the vectors have differing dimensions.
    pub fn from_columns(cols: &[IVec]) -> Self {
        if cols.is_empty() {
            return IMat {
                rows: 0,
                cols: 0,
                data: vec![],
            };
        }
        let r = cols[0].dim();
        for c in cols {
            assert_eq!(c.dim(), r, "column dimension mismatch in from_columns");
        }
        let mut m = IMat::zeros(r, cols.len());
        for (j, col) in cols.iter().enumerate() {
            for i in 0..r {
                m[(i, j)] = col[i];
            }
        }
        m
    }

    /// The `r × c` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        IMat {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = IMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True if the matrix has no entries.
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[i64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Column `j` as a fresh vector.
    pub fn col(&self, j: usize) -> IVec {
        IVec((0..self.rows).map(|i| self[(i, j)]).collect())
    }

    /// Iterator over the columns as [`IVec`]s.
    pub fn columns(&self) -> impl Iterator<Item = IVec> + '_ {
        (0..self.cols).map(|j| self.col(j))
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> IMat {
        let mut t = IMat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch or `i64` overflow (the matrices in
    /// this project are tiny; overflow indicates corrupted input).
    pub fn matmul(&self, rhs: &IMat) -> IMat {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul inner dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = IMat::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    let prod = a.checked_mul(rhs[(k, j)]).expect("matmul overflow");
                    out[(i, j)] = out[(i, j)].checked_add(prod).expect("matmul overflow");
                }
            }
        }
        out
    }

    /// Matrix–vector product `self * v` (v a column vector).
    pub fn matvec(&self, v: &IVec) -> IVec {
        assert_eq!(
            self.cols,
            v.dim(),
            "matvec dimension mismatch: {}x{} * {}",
            self.rows,
            self.cols,
            v.dim()
        );
        IVec(
            (0..self.rows)
                .map(|i| {
                    self.row(i)
                        .iter()
                        .zip(v.iter())
                        .map(|(&a, &b)| a.checked_mul(b).expect("matvec overflow"))
                        .fold(0i64, |acc, x| acc.checked_add(x).expect("matvec overflow"))
                })
                .collect(),
        )
    }

    /// Stacks `self` on top of `other` (vertical concatenation), e.g.
    /// `T = [S; Π]`.
    ///
    /// # Panics
    /// Panics if column counts differ.
    pub fn vstack(&self, other: &IMat) -> IMat {
        assert_eq!(self.cols, other.cols, "vstack column mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        IMat {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// Places `self` to the left of `other` (horizontal concatenation).
    ///
    /// # Panics
    /// Panics if row counts differ.
    pub fn hstack(&self, other: &IMat) -> IMat {
        assert_eq!(self.rows, other.rows, "hstack row mismatch");
        let mut out = IMat::zeros(self.rows, self.cols + other.cols);
        for i in 0..self.rows {
            out.data[i * out.cols..i * out.cols + self.cols].copy_from_slice(self.row(i));
            out.data[i * out.cols + self.cols..(i + 1) * out.cols].copy_from_slice(other.row(i));
        }
        out
    }

    /// Block-diagonal composition `diag(self, other)` — used to assemble the
    /// bit-level dependence matrix of Theorem 3.1 from `D_w` and `D_as`.
    pub fn block_diag(&self, other: &IMat) -> IMat {
        let mut out = IMat::zeros(self.rows + other.rows, self.cols + other.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(i, j)] = self[(i, j)];
            }
        }
        for i in 0..other.rows {
            for j in 0..other.cols {
                out[(self.rows + i, self.cols + j)] = other[(i, j)];
            }
        }
        out
    }

    /// The submatrix selecting the given rows (in order, repeats allowed).
    pub fn select_rows(&self, rows: &[usize]) -> IMat {
        let mut out = IMat::zeros(rows.len(), self.cols);
        for (oi, &i) in rows.iter().enumerate() {
            for j in 0..self.cols {
                out[(oi, j)] = self[(i, j)];
            }
        }
        out
    }

    /// The submatrix selecting the given columns (in order, repeats allowed).
    pub fn select_cols(&self, cols: &[usize]) -> IMat {
        let mut out = IMat::zeros(self.rows, cols.len());
        for (oj, &j) in cols.iter().enumerate() {
            for i in 0..self.rows {
                out[(i, oj)] = self[(i, j)];
            }
        }
        out
    }

    /// Appends a column to the right.
    pub fn push_col(&mut self, col: &IVec) {
        assert_eq!(col.dim(), self.rows, "push_col dimension mismatch");
        *self = self.hstack(&IMat::from_columns(std::slice::from_ref(col)));
    }

    /// Determinant by fraction-free (Bareiss) elimination; exact.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn det(&self) -> i128 {
        assert_eq!(self.rows, self.cols, "determinant of non-square matrix");
        let n = self.rows;
        if n == 0 {
            return 1;
        }
        let mut a: Vec<i128> = self.data.iter().map(|&x| x as i128).collect();
        let idx = |i: usize, j: usize| i * n + j;
        let mut sign = 1i128;
        let mut prev = 1i128;
        for k in 0..n - 1 {
            if a[idx(k, k)] == 0 {
                // Find a pivot below.
                let Some(p) = (k + 1..n).find(|&i| a[idx(i, k)] != 0) else {
                    return 0;
                };
                for j in 0..n {
                    a.swap(idx(k, j), idx(p, j));
                }
                sign = -sign;
            }
            for i in k + 1..n {
                for j in k + 1..n {
                    let num = a[idx(i, j)]
                        .checked_mul(a[idx(k, k)])
                        .and_then(|x| {
                            x.checked_sub(
                                a[idx(i, k)]
                                    .checked_mul(a[idx(k, j)])
                                    .expect("det overflow"),
                            )
                        })
                        .expect("det overflow");
                    a[idx(i, j)] = num / prev;
                }
                a[idx(i, k)] = 0;
            }
            prev = a[idx(k, k)];
        }
        sign * a[idx(n - 1, n - 1)]
    }

    /// Entry-wise map.
    pub fn map(&self, f: impl Fn(i64) -> i64) -> IMat {
        IMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Iterator over all entries (row-major).
    pub fn entries(&self) -> std::slice::Iter<'_, i64> {
        self.data.iter()
    }
}

impl std::ops::Index<(usize, usize)> for IMat {
    type Output = i64;
    fn index(&self, (i, j): (usize, usize)) -> &i64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of {}x{}",
            self.rows,
            self.cols
        );
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for IMat {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut i64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for IMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Column-aligned display, matching how the paper prints dependence
        // matrices.
        let mut widths = vec![0usize; self.cols];
        for i in 0..self.rows {
            for j in 0..self.cols {
                widths[j] = widths[j].max(self[(i, j)].to_string().len());
            }
        }
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>width$}", self[(i, j)], width = widths[j])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m2() -> IMat {
        IMat::from_rows(&[&[1, 2], &[3, 4]])
    }

    #[test]
    fn construction_and_indexing() {
        let m = m2();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m[(0, 1)], 2);
        assert_eq!(m.row(1), &[3, 4]);
        assert_eq!(m.col(0), IVec::from([1, 3]));
    }

    #[test]
    fn from_columns_matches_paper_dependence_matrix_layout() {
        // D of eq. (2.4): columns d̄1=[1,0,0], d̄2=[0,1,0], d̄3=[0,0,1].
        let d = IMat::from_columns(&[
            IVec::from([1, 0, 0]),
            IVec::from([0, 1, 0]),
            IVec::from([0, 0, 1]),
        ]);
        assert_eq!(d, IMat::identity(3));
    }

    #[test]
    fn matmul_and_matvec() {
        let m = m2();
        let id = IMat::identity(2);
        assert_eq!(m.matmul(&id), m);
        assert_eq!(id.matmul(&m), m);
        let prod = m.matmul(&m);
        assert_eq!(prod, IMat::from_rows(&[&[7, 10], &[15, 22]]));
        assert_eq!(m.matvec(&IVec::from([1, 1])), IVec::from([3, 7]));
    }

    #[test]
    fn transpose_involution() {
        let m = IMat::from_rows(&[&[1, 2, 3], &[4, 5, 6]]);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().rows(), 3);
    }

    #[test]
    fn stacking() {
        let s = IMat::from_rows(&[&[1, 0], &[0, 1]]);
        let pi = IMat::from_rows(&[&[1, 1]]);
        let t = s.vstack(&pi);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.row(2), &[1, 1]);
        let h = s.hstack(&s);
        assert_eq!(h.cols(), 4);
        assert_eq!(h.row(0), &[1, 0, 1, 0]);
    }

    #[test]
    fn block_diag_assembles_theorem_3_1_shape() {
        // [D_w 0; 0 D_as] for matmul: D_w = I3, D_as = [[1,0,1],[0,1,-1]].
        let dw = IMat::identity(3);
        let das = IMat::from_rows(&[&[1, 0, 1], &[0, 1, -1]]);
        let d = dw.block_diag(&das);
        assert_eq!(d.rows(), 5);
        assert_eq!(d.cols(), 6);
        assert_eq!(d[(0, 0)], 1);
        assert_eq!(d[(3, 3)], 1);
        assert_eq!(d[(4, 5)], -1);
        assert_eq!(d[(0, 3)], 0);
        assert_eq!(d[(3, 0)], 0);
    }

    #[test]
    fn determinant() {
        assert_eq!(m2().det(), -2);
        assert_eq!(IMat::identity(4).det(), 1);
        let singular = IMat::from_rows(&[&[1, 2], &[2, 4]]);
        assert_eq!(singular.det(), 0);
        // Needs a row swap to find a pivot.
        let swap = IMat::from_rows(&[&[0, 1], &[1, 0]]);
        assert_eq!(swap.det(), -1);
        // 3x3 with known determinant.
        let m = IMat::from_rows(&[&[2, 0, 1], &[1, 3, 2], &[1, 1, 1]]);
        assert_eq!(m.det(), 2 + (1 - 3));
    }

    #[test]
    fn select_rows_and_cols() {
        let m = IMat::from_rows(&[&[1, 2, 3], &[4, 5, 6], &[7, 8, 9]]);
        assert_eq!(
            m.select_rows(&[2, 0]),
            IMat::from_rows(&[&[7, 8, 9], &[1, 2, 3]])
        );
        assert_eq!(m.select_cols(&[1]), IMat::from_rows(&[&[2], &[5], &[8]]));
    }

    #[test]
    fn display_is_aligned() {
        let m = IMat::from_rows(&[&[1, -10], &[100, 2]]);
        let s = m.to_string();
        assert!(s.contains("-10"));
        assert_eq!(s.lines().count(), 2);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_mismatch_panics() {
        let a = IMat::identity(2);
        let b = IMat::identity(3);
        let _ = a.matmul(&b);
    }
}
