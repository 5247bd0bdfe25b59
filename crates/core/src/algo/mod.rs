//! Centralized skyline algorithms.
//!
//! [`bnl`] is the one batch skyline: the *Block-Nested-Loops* scan the
//! paper runs over flat storage, which every other batch caller reuses.
//! (The hybrid-storage scan, the paper's SFS-inspired Fig. 4 loop over
//! attribute IDs, lives in `device-storage` where the ID columns exist.)
//! [`oracle`] is the independent brute-force reference both are tested
//! against. Both return **indices into the input slice**, ascending, so
//! callers can avoid cloning tuples; [`materialize`] turns indices back
//! into tuples. Equal-attribute tuples at different sites are all
//! retained — they are incomparable under strict dominance and may be
//! distinct sites.

pub mod bnl;
pub mod oracle;

use crate::tuple::Tuple;

/// Clones the tuples selected by `indices` out of `data`.
pub fn materialize(data: &[Tuple], indices: &[usize]) -> Vec<Tuple> {
    indices.iter().map(|&i| data[i].clone()).collect()
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

    type Skyline = fn(&[Tuple]) -> Vec<usize>;

    /// Every batch skyline in this module.
    const ALL: [(&str, Skyline); 2] =
        [("bnl", bnl::skyline_indices), ("oracle", oracle::skyline_indices)];

    #[test]
    fn all_algorithms_agree_on_table2() {
        // Table 2 of the paper: skyline of R_1 is {h11, h12, h14, h16}.
        let data = sample();
        let expect = vec![0, 1, 3, 5];
        for (name, sky) in ALL {
            assert_eq!(sky(&data), expect.clone(), "{name}");
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
        for (name, sky) in ALL {
            assert!(sky(&[]).is_empty(), "{name}");
        }
    }

    #[test]
    fn single_tuple_is_its_own_skyline() {
        let data = vec![Tuple::new(0.0, 0.0, vec![1.0, 2.0])];
        for (name, sky) in ALL {
            assert_eq!(sky(&data), vec![0], "{name}");
        }
    }

    #[test]
    fn duplicate_attribute_vectors_are_all_kept() {
        let data = vec![
            Tuple::new(0.0, 0.0, vec![1.0, 1.0]),
            Tuple::new(1.0, 1.0, vec![1.0, 1.0]),
            Tuple::new(2.0, 2.0, vec![5.0, 5.0]),
        ];
        for (name, sky) in ALL {
            assert_eq!(sky(&data), vec![0, 1], "{name}");
        }
    }
}
