//! The paper's worked hotel examples, Tables 2–5, verbatim.
//!
//! Relations `R_1 … R_4` with schema (price, rating), smaller is better on
//! both. The locations are synthetic (the paper's tables have none) but
//! unique, one grid row per relation, so the examples also exercise
//! duplicate-free merging.

use skyline_core::Tuple;

/// Table 2 — relation `R_1` on device `M_1` (six hotels `h_11 … h_16`).
pub fn r1() -> Vec<Tuple> {
    vec![
        Tuple::new(10.0, 1.0, vec![20.0, 7.0]),  // h11
        Tuple::new(20.0, 1.0, vec![40.0, 5.0]),  // h12
        Tuple::new(30.0, 1.0, vec![80.0, 7.0]),  // h13
        Tuple::new(40.0, 1.0, vec![80.0, 4.0]),  // h14
        Tuple::new(50.0, 1.0, vec![100.0, 7.0]), // h15
        Tuple::new(60.0, 1.0, vec![100.0, 3.0]), // h16
    ]
}

/// Table 3 — relation `R_2` on device `M_2` (five hotels `h_21 … h_25`).
pub fn r2() -> Vec<Tuple> {
    vec![
        Tuple::new(10.0, 2.0, vec![60.0, 3.0]),  // h21
        Tuple::new(20.0, 2.0, vec![90.0, 2.0]),  // h22
        Tuple::new(30.0, 2.0, vec![120.0, 1.0]), // h23
        Tuple::new(40.0, 2.0, vec![140.0, 2.0]), // h24
        Tuple::new(50.0, 2.0, vec![100.0, 4.0]), // h25
    ]
}

/// Table 4 — relation `R_3` on device `M_3` (three hotels `h_31 … h_33`).
pub fn r3() -> Vec<Tuple> {
    vec![
        Tuple::new(10.0, 3.0, vec![60.0, 3.0]),  // h31
        Tuple::new(20.0, 3.0, vec![80.0, 5.0]),  // h32
        Tuple::new(30.0, 3.0, vec![120.0, 4.0]), // h33
    ]
}

/// Table 5 — relation `R_4` on device `M_4` (three hotels `h_41 … h_43`).
pub fn r4() -> Vec<Tuple> {
    vec![
        Tuple::new(10.0, 4.0, vec![80.0, 2.0]),  // h41
        Tuple::new(20.0, 4.0, vec![120.0, 1.0]), // h42
        Tuple::new(30.0, 4.0, vec![140.0, 2.0]), // h43
    ]
}

/// The global attribute upper bounds the examples assume: price ≤ 200,
/// rating ≤ 10.
pub fn global_bounds() -> Vec<f64> {
    vec![200.0, 10.0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_core::algo::{bnl, materialize};

    fn attrs_of(sky: Vec<Tuple>) -> Vec<Vec<f64>> {
        let mut v: Vec<Vec<f64>> = sky.into_iter().map(|t| t.attrs.to_vec()).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v
    }

    #[test]
    fn skyline_of_r1_matches_paper() {
        // "the skyline … on M1 is {h11, h12, h14, h16}"
        let data = r1();
        let idx = bnl::skyline_indices(&data);
        assert_eq!(idx, vec![0, 1, 3, 5]);
    }

    #[test]
    fn skyline_of_r2_matches_paper() {
        // "The skyline on M2 is {h21, h22, h23}"
        let data = r2();
        let idx = bnl::skyline_indices(&data);
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn skyline_of_r3_matches_paper() {
        // "that on M3 is {h31}"
        let data = r3();
        let idx = bnl::skyline_indices(&data);
        assert_eq!(idx, vec![0]);
    }

    #[test]
    fn skyline_of_r4_matches_paper() {
        // "The local skyline on M4 is {h41, h42}"
        let data = r4();
        let idx = bnl::skyline_indices(&data);
        assert_eq!(idx, vec![0, 1]);
    }

    #[test]
    fn relations_share_schema() {
        for rel in [r1(), r2(), r3(), r4()] {
            assert!(rel.iter().all(|t| t.dim() == 2));
        }
    }

    #[test]
    fn all_locations_unique_across_relations() {
        let mut locs: Vec<(u64, u64)> = [r1(), r2(), r3(), r4()]
            .into_iter()
            .flatten()
            .map(|t| (t.x.to_bits(), t.y.to_bits()))
            .collect();
        let n = locs.len();
        locs.sort_unstable();
        locs.dedup();
        assert_eq!(locs.len(), n);
    }

    #[test]
    fn global_skyline_of_r1_r2() {
        // Union skyline of the Section 3.2 example: h11, h12 (from R1) and
        // h21, h22, h23 (from R2); h14 and h16 fall to h21/h22.
        let mut union = r1();
        union.extend(r2());
        let sky = attrs_of(materialize(&union, &bnl::skyline_indices(&union)));
        assert_eq!(
            sky,
            vec![
                vec![20.0, 7.0],  // h11
                vec![40.0, 5.0],  // h12
                vec![60.0, 3.0],  // h21
                vec![90.0, 2.0],  // h22
                vec![120.0, 1.0], // h23
            ]
        );
    }
}
