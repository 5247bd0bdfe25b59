//! Constrained (spatially restricted) skyline queries.
//!
//! The paper's query asks for the skyline of the set `R'` of sites within
//! distance `d` of the query position — a *constrained* skyline where the
//! constraint is spatial and the constrained attributes do **not**
//! participate in the skyline (Section 2 contrasts this with
//! dimension-constrained skylines).
//!
//! This module is the centralized reference: it is what the distributed
//! protocol must reproduce over the union of all partitions, and the
//! integration tests assert exactly that.

use crate::algo::{bnl, materialize};
use crate::region::QueryRegion;
use crate::tuple::Tuple;

/// Indices (into `data`) of the constrained skyline: sites inside `region`
/// that are not dominated by any other site inside `region`.
pub fn skyline_indices(data: &[Tuple], region: &QueryRegion) -> Vec<usize> {
    let in_range = data.iter().enumerate().filter(|(_, t)| region.contains(t.location()));
    bnl::skyline_counted(in_range.map(|(i, t)| (i, t.attrs.as_slice()))).0
}

/// Materialized constrained skyline.
pub fn skyline(data: &[Tuple], region: &QueryRegion) -> Vec<Tuple> {
    let idx = skyline_indices(data, region);
    materialize(data, &idx)
}

/// Constrained skyline of the union of several relations with duplicate
/// sites removed — the ground truth for a distributed query over
/// (possibly overlapping) horizontal partitions.
pub fn global_skyline(partitions: &[Vec<Tuple>], region: &QueryRegion) -> Vec<Tuple> {
    let mut union: Vec<Tuple> = Vec::new();
    for part in partitions {
        for t in part {
            if !union.iter().any(|u| u.same_site(t)) {
                union.push(t.clone());
            }
        }
    }
    skyline(&union, region)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::Point;

    fn sites() -> Vec<Tuple> {
        vec![
            Tuple::new(0.0, 0.0, vec![10.0, 10.0]), // in range, dominated by #1
            Tuple::new(1.0, 1.0, vec![1.0, 1.0]),   // in range, dominates all
            Tuple::new(100.0, 100.0, vec![0.0, 0.0]), // best overall but out of range
        ]
    }

    #[test]
    fn out_of_range_champion_is_ignored() {
        let region = QueryRegion::new(Point::new(0.0, 0.0), 5.0);
        let sky = skyline_indices(&sites(), &region);
        assert_eq!(sky, vec![1], "the global best lies outside the region");
    }

    #[test]
    fn unbounded_region_gives_plain_skyline() {
        let region = QueryRegion::unbounded();
        let sky = skyline_indices(&sites(), &region);
        assert_eq!(sky, vec![2]);
    }

    #[test]
    fn empty_region_gives_empty_skyline() {
        let region = QueryRegion::new(Point::new(-100.0, -100.0), 1.0);
        assert!(skyline(&sites(), &region).is_empty());
    }

    #[test]
    fn all_algorithms_agree_on_constrained_result() {
        // The BNL path against the oracle over the in-range sites.
        let (data, region) = (sites(), QueryRegion::new(Point::new(0.0, 0.0), 2.0));
        let in_range: Vec<usize> =
            (0..data.len()).filter(|&i| region.contains(data[i].location())).collect();
        let oracle = crate::algo::oracle::skyline_indices(&materialize(&data, &in_range));
        let expect: Vec<usize> = oracle.into_iter().map(|k| in_range[k]).collect();
        assert_eq!(skyline_indices(&data, &region), expect);
    }

    #[test]
    fn global_skyline_dedups_overlapping_partitions() {
        let shared = Tuple::new(1.0, 1.0, vec![1.0, 1.0]);
        let p1 = vec![shared.clone(), Tuple::new(2.0, 2.0, vec![5.0, 0.5])];
        let p2 = vec![shared.clone()]; // overlap: same site on two devices
        let region = QueryRegion::unbounded();
        let sky = global_skyline(&[p1, p2], &region);
        assert_eq!(sky.len(), 2);
        assert_eq!(sky.iter().filter(|t| t.same_site(&shared)).count(), 1);
    }
}
