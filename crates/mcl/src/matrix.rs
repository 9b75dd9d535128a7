//! Column-sparse stochastic matrices for MCL.
//!
//! MCL alternates *expansion* (matrix squaring — flow spreads along paths)
//! and *inflation* (entry-wise powering + renormalization — strong flows
//! strengthen, weak flows decay). Both operate column-wise on a sparse
//! matrix, so the representation is a vector of sorted columns.

use serde::{Deserialize, Serialize};

/// One sparse column: sorted `(row, value)` pairs.
pub type Column = Vec<(u32, f64)>;

/// Entries below this are pruned after inflation (keeps the matrices
/// sparse; MCL is robust to mild pruning).
pub const PRUNE_BELOW: f64 = 1e-5;

/// A square sparse matrix stored by columns.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SparseMatrix {
    cols: Vec<Column>,
}

impl SparseMatrix {
    /// A zero matrix of dimension `n`.
    pub fn zero(n: usize) -> Self {
        SparseMatrix {
            cols: vec![Vec::new(); n],
        }
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.cols.len()
    }

    /// Build from an undirected weighted edge list. Duplicate edges
    /// accumulate.
    ///
    /// MCL needs self-loops so flow can stay put (otherwise bipartite-ish
    /// structures oscillate). As in the canonical implementation, each
    /// vertex's loop equals its maximum incident edge weight (at least
    /// `1e-9`, so isolated vertices stay stochastic), which keeps
    /// strongly-tied doubletons together; a fixed loop of 1 over-fragments
    /// weighted graphs.
    pub fn from_edges(n: usize, edges: &[(u32, u32, f64)]) -> Self {
        let mut m = SparseMatrix::zero(n);
        for &(a, b, w) in edges {
            assert!(w >= 0.0, "edge weights must be non-negative");
            m.add(a, b, w);
            if a != b {
                m.add(b, a, w);
            }
        }
        for v in 0..n as u32 {
            let max = m.cols[v as usize]
                .iter()
                .map(|&(_, w)| w)
                .fold(1e-9f64, f64::max);
            m.add(v, v, max);
        }
        for col in &mut m.cols {
            col.sort_by_key(|&(r, _)| r);
            // merge duplicates
            let mut merged: Column = Vec::with_capacity(col.len());
            for &(r, w) in col.iter() {
                match merged.last_mut() {
                    Some((lr, lw)) if *lr == r => *lw += w,
                    _ => merged.push((r, w)),
                }
            }
            *col = merged;
        }
        m
    }

    fn add(&mut self, row: u32, col: u32, w: f64) {
        self.cols[col as usize].push((row, w));
    }

    /// The value at (row, col).
    pub fn get(&self, row: u32, col: u32) -> f64 {
        self.cols[col as usize]
            .binary_search_by_key(&row, |&(r, _)| r)
            .map(|i| self.cols[col as usize][i].1)
            .unwrap_or(0.0)
    }

    /// Read access to a column.
    pub fn column(&self, col: u32) -> &Column {
        &self.cols[col as usize]
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.cols.iter().map(Vec::len).sum()
    }

    /// Normalize every column to sum 1 (column-stochastic). Empty columns
    /// get a self-loop so the matrix stays stochastic.
    pub fn normalize_columns(&mut self) {
        for (i, col) in self.cols.iter_mut().enumerate() {
            let sum: f64 = col.iter().map(|&(_, w)| w).sum();
            if sum <= 0.0 {
                *col = vec![(i as u32, 1.0)];
            } else {
                for (_, w) in col.iter_mut() {
                    *w /= sum;
                }
            }
        }
    }

    /// Whether every column sums to 1 within `eps`.
    pub fn is_column_stochastic(&self, eps: f64) -> bool {
        self.cols.iter().all(|col| {
            let s: f64 = col.iter().map(|&(_, w)| w).sum();
            (s - 1.0).abs() <= eps
        })
    }

    /// Expansion: `self * self`.
    ///
    /// Column j of the product is a weighted sum of the columns reachable
    /// through j, computed with a dense accumulator per column.
    pub fn squared(&self) -> SparseMatrix {
        let n = self.dim();
        let mut out = SparseMatrix::zero(n);
        let mut acc: Vec<f64> = vec![0.0; n];
        let mut touched: Vec<u32> = Vec::new();
        for j in 0..n {
            for &(k, wkj) in &self.cols[j] {
                for &(i, wik) in &self.cols[k as usize] {
                    if acc[i as usize] == 0.0 {
                        touched.push(i);
                    }
                    acc[i as usize] += wik * wkj;
                }
            }
            touched.sort_unstable();
            let col: Column = touched
                .iter()
                .map(|&i| (i, acc[i as usize]))
                .filter(|&(_, w)| w > 0.0)
                .collect();
            for &i in &touched {
                acc[i as usize] = 0.0;
            }
            touched.clear();
            out.cols[j] = col;
        }
        out
    }

    /// Inflation: raise entries to `power`, then renormalize columns and
    /// prune entries below [`PRUNE_BELOW`] (renormalizing again).
    pub fn inflate(&mut self, power: f64) {
        for col in &mut self.cols {
            for (_, w) in col.iter_mut() {
                *w = w.powf(power);
            }
        }
        self.normalize_columns();
        for col in &mut self.cols {
            // Keep at least the largest entry per column.
            if let Some(&(_, max)) = col
                .iter()
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN weights"))
            {
                let threshold = PRUNE_BELOW.min(max);
                col.retain(|&(_, w)| w >= threshold);
            }
        }
        self.normalize_columns();
    }

    /// Largest absolute difference against another matrix (convergence
    /// check). Matrices must have equal dimension.
    pub fn max_abs_diff(&self, other: &SparseMatrix) -> f64 {
        assert_eq!(self.dim(), other.dim());
        let mut max = 0.0f64;
        for j in 0..self.dim() as u32 {
            let (a, b) = (self.column(j), other.column(j));
            let (mut i, mut k) = (0, 0);
            while i < a.len() || k < b.len() {
                match (a.get(i), b.get(k)) {
                    (Some(&(ra, wa)), Some(&(rb, wb))) if ra == rb => {
                        max = max.max((wa - wb).abs());
                        i += 1;
                        k += 1;
                    }
                    (Some(&(ra, wa)), Some(&(rb, _))) if ra < rb => {
                        max = max.max(wa.abs());
                        i += 1;
                    }
                    (Some(_), Some(&(_, wb))) => {
                        max = max.max(wb.abs());
                        k += 1;
                    }
                    (Some(&(_, wa)), None) => {
                        max = max.max(wa.abs());
                        i += 1;
                    }
                    (None, Some(&(_, wb))) => {
                        max = max.max(wb.abs());
                        k += 1;
                    }
                    (None, None) => break,
                }
            }
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> SparseMatrix {
        // 0-1, 1-2, 0-2 triangle with unit weights + self loops.
        SparseMatrix::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    }

    #[test]
    fn from_edges_is_symmetric_with_loops() {
        let m = triangle();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
            assert_eq!(m.get(i, i), 1.0);
        }
        assert_eq!(m.nnz(), 9);
    }

    #[test]
    fn duplicate_edges_accumulate() {
        let m = SparseMatrix::from_edges(2, &[(0, 1, 0.25), (0, 1, 0.25)]);
        assert_eq!(m.get(0, 1), 0.5);
        assert_eq!(m.get(1, 0), 0.5);
    }

    #[test]
    fn normalize_makes_stochastic() {
        let mut m = triangle();
        m.normalize_columns();
        assert!(m.is_column_stochastic(1e-12));
        // Triangle with loops: each column has 3 entries of 1/3.
        assert!((m.get(0, 1) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_column_gets_self_loop() {
        let mut m = SparseMatrix::zero(2);
        m.normalize_columns();
        assert!(m.is_column_stochastic(1e-12));
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 1), 1.0);
    }

    #[test]
    fn squared_matches_dense_multiply() {
        let mut m = triangle();
        m.normalize_columns();
        let sq = m.squared();
        // Dense reference.
        for i in 0..3u32 {
            for j in 0..3u32 {
                let want: f64 = (0..3u32).map(|k| m.get(i, k) * m.get(k, j)).sum();
                assert!((sq.get(i, j) - want).abs() < 1e-12, "({i},{j})");
            }
        }
        assert!(
            sq.is_column_stochastic(1e-9),
            "product of stochastic is stochastic"
        );
    }

    #[test]
    fn inflation_sharpens_columns() {
        let mut m = triangle();
        m.normalize_columns();
        // Make one entry dominant: column 2 is (3, 1, 3) with its loop.
        let mut m2 = SparseMatrix::from_edges(3, &[(0, 2, 3.0), (1, 2, 1.0)]);
        m2.normalize_columns();
        let before = m2.get(0, 2);
        m2.inflate(2.0);
        let after = m2.get(0, 2);
        assert!(after > before, "dominant entry grows: {before} -> {after}");
        assert!(m2.is_column_stochastic(1e-12));
    }

    #[test]
    fn inflation_prunes_but_keeps_max() {
        // Column 2 is (1, 0.001, 1) with its loop; squared and normalized
        // the middle entry falls to ~5e-7, below PRUNE_BELOW.
        let mut m = SparseMatrix::from_edges(3, &[(0, 2, 1.0), (1, 2, 0.001)]);
        m.normalize_columns();
        m.inflate(2.0);
        // The tiny entry is pruned; the column renormalizes over the maxima.
        assert_eq!(m.column(2).len(), 2);
        assert_eq!(m.get(1, 2), 0.0);
        assert!((m.get(0, 2) - 0.5).abs() < 1e-12);
        assert!(m.is_column_stochastic(1e-12));
    }

    #[test]
    fn max_abs_diff_detects_changes() {
        let mut a = SparseMatrix::from_edges(2, &[(0, 1, 3.0), (1, 1, 1.0)]);
        a.normalize_columns();
        let b = a.clone();
        assert_eq!(a.max_abs_diff(&b), 0.0);
        a.inflate(2.0); // non-uniform column sharpens, so it changes
        assert!(a.max_abs_diff(&b) > 0.0);
        // Also across different sparsity patterns.
        let z = SparseMatrix::from_edges(2, &[]);
        assert!(a.max_abs_diff(&z) > 0.0);
    }

    #[test]
    fn max_column_loops_use_strongest_edge() {
        let m = SparseMatrix::from_edges(3, &[(0, 1, 10.0), (1, 2, 0.5)]);
        assert_eq!(m.get(0, 0), 10.0);
        assert_eq!(m.get(1, 1), 10.0);
        assert_eq!(m.get(2, 2), 0.5);
    }
}
