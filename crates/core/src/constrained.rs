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

use crate::algo::{materialize, Algorithm};
use crate::region::QueryRegion;
use crate::tuple::Tuple;

/// Indices (into `data`) of the constrained skyline: sites inside `region`
/// that are not dominated by any other site inside `region`.
pub fn skyline_indices(data: &[Tuple], region: &QueryRegion, algo: Algorithm) -> Vec<usize> {
    let in_range: Vec<usize> =
        (0..data.len()).filter(|&i| region.contains(data[i].location())).collect();
    let restricted: Vec<Tuple> = in_range.iter().map(|&i| data[i].clone()).collect();
    algo.skyline_indices(&restricted).into_iter().map(|k| in_range[k]).collect()
}

/// Materialized constrained skyline.
pub fn skyline(data: &[Tuple], region: &QueryRegion, algo: Algorithm) -> Vec<Tuple> {
    let idx = skyline_indices(data, region, algo);
    materialize(data, &idx)
}

/// Constrained skyline of the union of several relations with duplicate
/// sites removed — the ground truth for a distributed query over
/// (possibly overlapping) horizontal partitions.
pub fn global_skyline(
    partitions: &[Vec<Tuple>],
    region: &QueryRegion,
    algo: Algorithm,
) -> Vec<Tuple> {
    let mut union: Vec<Tuple> = Vec::new();
    for part in partitions {
        for t in part {
            if !union.iter().any(|u| u.same_site(t)) {
                union.push(t.clone());
            }
        }
    }
    skyline(&union, region, algo)
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
        let sky = skyline_indices(&sites(), &region, Algorithm::Bnl);
        assert_eq!(sky, vec![1], "the global best lies outside the region");
    }

    #[test]
    fn unbounded_region_gives_plain_skyline() {
        let region = QueryRegion::unbounded();
        let sky = skyline_indices(&sites(), &region, Algorithm::Sfs);
        assert_eq!(sky, vec![2]);
    }

    #[test]
    fn empty_region_gives_empty_skyline() {
        let region = QueryRegion::new(Point::new(-100.0, -100.0), 1.0);
        assert!(skyline(&sites(), &region, Algorithm::Sfs).is_empty());
    }

    #[test]
    fn all_algorithms_agree_on_constrained_result() {
        let region = QueryRegion::new(Point::new(0.0, 0.0), 2.0);
        let a = skyline_indices(&sites(), &region, Algorithm::Bnl);
        let b = skyline_indices(&sites(), &region, Algorithm::Sfs);
        assert_eq!(a, b);
    }

    #[test]
    fn global_skyline_dedups_overlapping_partitions() {
        let shared = Tuple::new(1.0, 1.0, vec![1.0, 1.0]);
        let p1 = vec![shared.clone(), Tuple::new(2.0, 2.0, vec![5.0, 0.5])];
        let p2 = vec![shared.clone()]; // overlap: same site on two devices
        let region = QueryRegion::unbounded();
        let sky = global_skyline(&[p1, p2], &region, Algorithm::Bnl);
        assert_eq!(sky.len(), 2);
        assert_eq!(sky.iter().filter(|t| t.same_site(&shared)).count(), 1);
    }
}
