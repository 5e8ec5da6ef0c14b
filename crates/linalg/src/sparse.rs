use crate::{LinalgError, Matrix};

/// Compressed-sparse-row matrix.
///
/// Used for the iterative (CG) exact solver and for power iteration on the
/// absorbing transition matrix `M_t` when graphs are too large for dense
/// `O(n²)` storage.
///
/// # Example
///
/// ```
/// use rwbc_linalg::CsrMatrix;
///
/// # fn main() -> Result<(), rwbc_linalg::LinalgError> {
/// // [[2, -1], [-1, 2]] as triplets.
/// let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 2.0)])?;
/// assert_eq!(m.matvec(&[1.0, 1.0])?, vec![1.0, 1.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_offsets: Vec<usize>,
    col_indices: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds from `(row, col, value)` triplets. Duplicate coordinates are
    /// summed; explicit zeros are dropped.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidParameter`] when a coordinate is out of
    /// bounds or a value is non-finite.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<CsrMatrix, LinalgError> {
        for &(r, c, v) in triplets {
            if r >= rows || c >= cols {
                return Err(LinalgError::InvalidParameter {
                    reason: format!("triplet ({r}, {c}) out of bounds for {rows}x{cols}"),
                });
            }
            if !v.is_finite() {
                return Err(LinalgError::InvalidParameter {
                    reason: format!("non-finite value {v} at ({r}, {c})"),
                });
            }
        }
        let mut sorted: Vec<(usize, usize, f64)> = triplets.to_vec();
        sorted.sort_by_key(|&(r, c, _)| (r, c));
        // Merge duplicates.
        let mut merged: Vec<(usize, usize, f64)> = Vec::with_capacity(sorted.len());
        for (r, c, v) in sorted {
            match merged.last_mut() {
                Some(last) if last.0 == r && last.1 == c => last.2 += v,
                _ => merged.push((r, c, v)),
            }
        }
        merged.retain(|&(_, _, v)| v != 0.0);
        let mut row_offsets = vec![0usize; rows + 1];
        for &(r, _, _) in &merged {
            row_offsets[r + 1] += 1;
        }
        for i in 0..rows {
            row_offsets[i + 1] += row_offsets[i];
        }
        let col_indices = merged.iter().map(|&(_, c, _)| c).collect();
        let values = merged.iter().map(|&(_, _, v)| v).collect();
        Ok(CsrMatrix {
            rows,
            cols,
            row_offsets,
            col_indices,
            values,
        })
    }

    /// Converts a dense matrix, dropping zeros.
    pub fn from_dense(m: &Matrix) -> CsrMatrix {
        let mut triplets = Vec::new();
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                let v = m.get(r, c);
                if v != 0.0 {
                    triplets.push((r, c, v));
                }
            }
        }
        CsrMatrix::from_triplets(m.rows(), m.cols(), &triplets)
            .expect("dense matrix coordinates are in range")
    }

    /// Densifies (for tests and small matrices).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                m.set(r, c, v);
            }
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

    /// Number of stored (structurally non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterator over `(col, value)` of stored entries in row `r`.
    ///
    /// # Panics
    ///
    /// Panics when `r >= rows`.
    pub fn row_iter(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(r < self.rows, "row {r} out of bounds");
        let lo = self.row_offsets[r];
        let hi = self.row_offsets[r + 1];
        self.col_indices[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Sparse matrix–vector product.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "sparse matvec".into(),
                left: (self.rows, self.cols),
                right: (x.len(), 1),
            });
        }
        let out = (0..self.rows)
            .map(|r| self.row_iter(r).map(|(c, v)| v * x[c]).sum())
            .collect();
        Ok(out)
    }

    /// The main diagonal as a vector (missing entries are 0).
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.rows.min(self.cols))
            .map(|r| {
                self.row_iter(r)
                    .find(|&(c, _)| c == r)
                    .map_or(0.0, |(_, v)| v)
            })
            .collect()
    }

    /// 1-norm (maximum absolute column sum).
    pub fn norm_1(&self) -> f64 {
        let mut col_sums = vec![0.0f64; self.cols];
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                col_sums[c] += v.abs();
            }
        }
        col_sums.into_iter().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplets_merge_and_drop_zeros() {
        let m =
            CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.0), (1, 1, 5.0), (1, 0, 0.0)])
                .unwrap();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.to_dense().get(0, 0), 3.0);
        assert_eq!(m.to_dense().get(1, 0), 0.0);
    }

    #[test]
    fn bounds_and_finiteness_validated() {
        assert!(CsrMatrix::from_triplets(1, 1, &[(1, 0, 1.0)]).is_err());
        assert!(CsrMatrix::from_triplets(1, 1, &[(0, 0, f64::NAN)]).is_err());
    }

    #[test]
    fn matvec_matches_dense() {
        let d = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 3.0, 0.0]]).unwrap();
        let s = CsrMatrix::from_dense(&d);
        let x = vec![1.0, 2.0, 3.0];
        assert_eq!(s.matvec(&x).unwrap(), d.matvec(&x).unwrap());
        assert!(s.matvec(&[1.0]).is_err());
    }

    #[test]
    fn dense_round_trip() {
        let d = Matrix::from_rows(&[&[0.0, -1.5], &[2.5, 0.0]]).unwrap();
        assert!(CsrMatrix::from_dense(&d).to_dense().approx_eq(&d, 0.0));
    }

    #[test]
    fn diagonal_and_norm() {
        let d = Matrix::from_rows(&[&[2.0, -1.0], &[-1.0, 2.0]]).unwrap();
        let s = CsrMatrix::from_dense(&d);
        assert_eq!(s.diagonal(), vec![2.0, 2.0]);
        assert_eq!(s.norm_1(), 3.0);
    }

    #[test]
    fn empty_rows_are_fine() {
        let m = CsrMatrix::from_triplets(3, 3, &[(2, 0, 1.0)]).unwrap();
        assert_eq!(m.matvec(&[1.0, 1.0, 1.0]).unwrap(), vec![0.0, 0.0, 1.0]);
        assert_eq!(m.row_iter(0).count(), 0);
    }
}
