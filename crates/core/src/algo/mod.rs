//! Centralized skyline algorithms.
//!
//! The paper's local processing builds on two classics it cites:
//! *Block-Nested-Loops* (BNL) over flat storage and *Sort-Filter-Skyline*
//! (SFS), whose ID-based variant is the hybrid-storage scan. Both return
//! **indices into the input slice**, in input order, so callers can avoid
//! cloning tuples; [`materialize`] turns indices back into tuples.
//!
//! Every algorithm computes the exact skyline (verified against the
//! [`oracle`] in unit and property tests). Equal-attribute tuples at
//! different sites are all retained — they are incomparable under strict
//! dominance and may be distinct sites.

pub mod bnl;
pub mod oracle;
pub mod sfs;

use crate::tuple::Tuple;

/// Which centralized algorithm to run; lets call sites pick one without
/// generics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// Block-nested-loops [Börzsönyi et al., ICDE 2001].
    #[default]
    Bnl,
    /// Sort-filter-skyline [Chomicki et al., ICDE 2003].
    Sfs,
}

impl Algorithm {
    /// Every implemented algorithm, for exhaustive comparisons in tests
    /// and benches.
    pub const ALL: [Algorithm; 2] = [Algorithm::Bnl, Algorithm::Sfs];

    /// Runs the selected algorithm.
    pub fn skyline_indices(self, data: &[Tuple]) -> Vec<usize> {
        match self {
            Algorithm::Bnl => bnl::skyline_indices(data),
            Algorithm::Sfs => sfs::skyline_indices(data),
        }
    }
}

/// Clones the tuples selected by `indices` out of `data`.
pub fn materialize(data: &[Tuple], indices: &[usize]) -> Vec<Tuple> {
    indices.iter().map(|&i| data[i].clone()).collect()
}

/// Normalizes an index set for comparisons in tests: sorted ascending.
pub fn normalize(mut indices: Vec<usize>) -> Vec<usize> {
    indices.sort_unstable();
    indices
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Tuple> {
        vec![
            Tuple::new(0.0, 0.0, vec![20.0, 7.0]),
            Tuple::new(1.0, 0.0, vec![40.0, 5.0]),
            Tuple::new(2.0, 0.0, vec![80.0, 7.0]),
            Tuple::new(3.0, 0.0, vec![80.0, 4.0]),
            Tuple::new(4.0, 0.0, vec![100.0, 7.0]),
            Tuple::new(5.0, 0.0, vec![100.0, 3.0]),
        ]
    }

    #[test]
    fn all_algorithms_agree_on_table2() {
        // Table 2 of the paper: skyline of R_1 is {h11, h12, h14, h16}.
        let data = sample();
        let expect = vec![0, 1, 3, 5];
        for a in Algorithm::ALL {
            assert_eq!(normalize(a.skyline_indices(&data)), expect.clone(), "{a:?}");
        }
    }

    #[test]
    fn materialize_clones_selected() {
        let data = sample();
        let out = materialize(&data, &[1, 3]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].attrs, vec![40.0, 5.0]);
        assert_eq!(out[1].attrs, vec![80.0, 4.0]);
    }

    #[test]
    fn empty_input_yields_empty_skyline() {
        for a in Algorithm::ALL {
            assert!(a.skyline_indices(&[]).is_empty(), "{a:?}");
        }
    }

    #[test]
    fn single_tuple_is_its_own_skyline() {
        let data = vec![Tuple::new(0.0, 0.0, vec![1.0, 2.0])];
        for a in Algorithm::ALL {
            assert_eq!(a.skyline_indices(&data), vec![0], "{a:?}");
        }
    }

    #[test]
    fn duplicate_attribute_vectors_are_all_kept() {
        let data = vec![
            Tuple::new(0.0, 0.0, vec![1.0, 1.0]),
            Tuple::new(1.0, 1.0, vec![1.0, 1.0]),
            Tuple::new(2.0, 2.0, vec![5.0, 5.0]),
        ];
        for a in Algorithm::ALL {
            assert_eq!(normalize(a.skyline_indices(&data)), vec![0, 1], "{a:?}");
        }
    }
}
