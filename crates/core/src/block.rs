//! Contiguous tuple storage for dominance-heavy scans.
//!
//! The skyline algorithms in [`crate::algo`] spend essentially all their
//! time in pairwise dominance tests. Stored as `Tuple { attrs: Vec<f64> }`,
//! every test chases a pointer to a separately heap-allocated attribute
//! vector; at bench scale the resulting cache misses dominate the runtime.
//!
//! [`TupleBlock`] flattens a relation's non-spatial attributes into one
//! row-major `Vec<f64>` so a scan walks a single contiguous arena, and
//! [`kernel_for`] returns a dominance test *monomorphized for the block's
//! dimensionality* (d = 1..=5 get fixed-width, fully unrolled kernels; other
//! widths fall back to the generic loop). The kernels are plain `fn`
//! pointers, so an inner loop pays one indirect call but no per-comparison
//! dispatch on `dims`.
//!
//! The `&[Tuple]` entry points in `algo::{bnl, sfs, dnc}` remain the public
//! API; they now build a block and run the block scan underneath.

use crate::dominance::dominates;
use crate::tuple::Tuple;

/// Signature of a dominance test over two equal-length attribute rows:
/// `true` iff the first row dominates the second (`≤` everywhere, `<`
/// somewhere; all attributes minimized).
pub type DomKernel = fn(&[f64], &[f64]) -> bool;

/// Fixed-width dominance test, monomorphized per dimensionality.
///
/// Written branch-free over the row so LLVM unrolls the `D` iterations and
/// keeps both accumulators in registers; semantically identical to
/// [`crate::dominance::dominates`].
#[inline(always)]
fn dominates_fixed<const D: usize>(a: &[f64], b: &[f64]) -> bool {
    let a: &[f64; D] = a[..D].try_into().expect("row narrower than kernel width");
    let b: &[f64; D] = b[..D].try_into().expect("row narrower than kernel width");
    let mut no_worse = true;
    let mut strictly_better = false;
    let mut k = 0;
    while k < D {
        no_worse &= a[k] <= b[k];
        strictly_better |= a[k] < b[k];
        k += 1;
    }
    no_worse && strictly_better
}

/// Returns the dominance kernel for rows of width `dims`: a monomorphized
/// fixed-width test for d = 1..=5, the generic loop otherwise.
pub fn kernel_for(dims: usize) -> DomKernel {
    match dims {
        1 => dominates_fixed::<1>,
        2 => dominates_fixed::<2>,
        3 => dominates_fixed::<3>,
        4 => dominates_fixed::<4>,
        5 => dominates_fixed::<5>,
        _ => dominates,
    }
}

/// A relation's non-spatial attributes in one row-major arena.
///
/// Row `i` occupies `values[i * dims .. (i + 1) * dims]`. Row indices are
/// positions in the source relation, so results computed on a block are
/// directly comparable with results computed on the `&[Tuple]` slice it was
/// built from.
#[derive(Debug, Clone, PartialEq)]
pub struct TupleBlock {
    dims: usize,
    rows: usize,
    values: Vec<f64>,
}

impl TupleBlock {
    /// An empty block with rows of width `dims`.
    pub fn new(dims: usize) -> Self {
        TupleBlock { dims, rows: 0, values: Vec::new() }
    }

    /// An empty block with capacity for `rows` rows of width `dims`.
    pub fn with_capacity(dims: usize, rows: usize) -> Self {
        TupleBlock { dims, rows: 0, values: Vec::with_capacity(dims * rows) }
    }

    /// Flattens a relation's attribute vectors. Row `i` of the block is
    /// `data[i].attrs`.
    ///
    /// # Panics
    /// Panics when tuples disagree on dimensionality (all relations share
    /// one schema; a mismatch is an upstream logic error).
    pub fn from_tuples(data: &[Tuple]) -> Self {
        let dims = data.first().map_or(0, Tuple::dim);
        let mut block = TupleBlock::with_capacity(dims, data.len());
        for t in data {
            block.push_row(&t.attrs);
        }
        block
    }

    /// Appends one row.
    ///
    /// # Panics
    /// Panics when `row.len() != self.dims()`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.dims, "row width does not match block schema");
        self.values.extend_from_slice(row);
        self.rows += 1;
    }

    /// Attribute count per row.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// `true` when the block holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Row `i` as a slice of the arena.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.values[i * self.dims..(i + 1) * self.dims]
    }

    /// The dominance kernel matching this block's dimensionality. Fetch it
    /// once outside the scan loop; see [`kernel_for`].
    #[inline]
    pub fn kernel(&self) -> DomKernel {
        kernel_for(self.dims)
    }

    /// `true` iff row `i` dominates row `j`. Convenience for call sites
    /// outside hot loops; scans should hoist [`TupleBlock::kernel`] instead.
    #[inline]
    pub fn dominates(&self, i: usize, j: usize) -> bool {
        (self.kernel())(self.row(i), self.row(j))
    }

    /// The whole arena, row-major.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuples(rows: &[&[f64]]) -> Vec<Tuple> {
        rows.iter()
            .enumerate()
            .map(|(i, r)| Tuple::new(i as f64, 0.0, r.to_vec()))
            .collect()
    }

    #[test]
    fn block_mirrors_tuple_rows() {
        let data = tuples(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let block = TupleBlock::from_tuples(&data);
        assert_eq!(block.len(), 3);
        assert_eq!(block.dims(), 2);
        for (i, t) in data.iter().enumerate() {
            assert_eq!(block.row(i), t.attrs.as_slice());
        }
    }

    #[test]
    fn empty_relation_gives_empty_block() {
        let block = TupleBlock::from_tuples(&[]);
        assert!(block.is_empty());
        assert_eq!(block.dims(), 0);
    }

    #[test]
    fn kernels_agree_with_generic_dominates_at_every_width() {
        // Exercise every specialized width plus the generic fallback (d=6),
        // on vectors crafted to hit all three outcomes: dominates, is
        // dominated, incomparable, and equal.
        for d in 1..=6usize {
            let kernel = kernel_for(d);
            let base: Vec<f64> = (0..d).map(|k| k as f64).collect();
            let worse: Vec<f64> = base.iter().map(|v| v + 1.0).collect();
            let mut mixed = base.clone();
            mixed[0] += 2.0; // better elsewhere is irrelevant: one worse dim kills it
            for (a, b) in [
                (&base, &worse),
                (&worse, &base),
                (&base, &base),
                (&mixed, &worse),
                (&worse, &mixed),
            ] {
                assert_eq!(
                    kernel(a, b),
                    dominates(a, b),
                    "kernel/generic mismatch at d={d}, a={a:?}, b={b:?}"
                );
            }
        }
    }

    #[test]
    fn tie_rows_do_not_dominate() {
        let kernel = kernel_for(3);
        assert!(!kernel(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]));
        // Dominance through a partial tie still holds.
        assert!(kernel(&[1.0, 2.0, 3.0], &[1.0, 2.0, 4.0]));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn push_row_rejects_schema_mismatch() {
        let mut block = TupleBlock::new(2);
        block.push_row(&[1.0, 2.0, 3.0]);
    }
}
