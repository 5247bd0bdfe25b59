//! Constrained (spatially restricted) skyline queries.
//!
//! The paper's query asks for the skyline of the set `R'` of sites within
//! distance `d` of the query position — a *constrained* skyline where the
//! constraint is spatial and the constrained attributes do **not**
//! participate in the skyline (Section 2 contrasts this with
//! dimension-constrained skylines).
//!
//! [`skyline`] is the centralized reference: what the distributed
//! protocol must reproduce over the union of all partitions, and what
//! every verifier, ground truth and per-epoch oracle in the workspace
//! compares against.

use sim_obs::dethash::DetHashSet;

use crate::merge::SkylineMerger;
use crate::region::QueryRegion;
use crate::tuple::{Tuple, TupleId};

/// The constrained skyline of `sites`: the rows inside `region` that no
/// other row inside it dominates, one row per site. Each row comes with
/// its site's id ([`TupleId::site`] for the paper's static sites); a row
/// whose id was seen before — the same site on an overlapping partition —
/// is dropped. Returns the skyline rows in input order.
///
/// Runs on the originator's [`SkylineMerger`], with each row standing at
/// its input position, so the merger never takes two rows for one site.
pub fn skyline<'a>(
    sites: impl IntoIterator<Item = (TupleId, &'a Tuple)>,
    region: &QueryRegion,
) -> Vec<(TupleId, &'a Tuple)> {
    let mut seen = DetHashSet::default();
    let rows: Vec<(TupleId, &Tuple)> = sites
        .into_iter()
        .filter(|(id, t)| region.contains(t.location()) && seen.insert(*id))
        .collect();
    let mut merger = SkylineMerger::new();
    merger.insert_batch(
        rows.iter()
            .enumerate()
            .map(|(k, (_, t))| Tuple::new(k as f64, 0.0, t.attrs.clone())),
    );
    merger.result().iter().map(|t| rows[t.x as usize]).collect()
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

    fn sky(data: &[Tuple], region: &QueryRegion) -> Vec<Tuple> {
        let rows = data.iter().map(|t| (TupleId::site(t), t));
        skyline(rows, region).into_iter().map(|(_, t)| t.clone()).collect()
    }

    #[test]
    fn out_of_range_champion_is_ignored() {
        let region = QueryRegion::new(Point::new(0.0, 0.0), 5.0);
        assert_eq!(sky(&sites(), &region), vec![sites()[1].clone()]);
    }

    #[test]
    fn unbounded_region_gives_plain_skyline() {
        assert_eq!(sky(&sites(), &QueryRegion::unbounded()), vec![sites()[2].clone()]);
    }

    #[test]
    fn empty_region_gives_empty_skyline() {
        let region = QueryRegion::new(Point::new(-100.0, -100.0), 1.0);
        assert!(sky(&sites(), &region).is_empty());
    }

    #[test]
    fn all_algorithms_agree_on_constrained_result() {
        // The reference against the oracle over the in-range sites.
        let (data, region) = (sites(), QueryRegion::new(Point::new(0.0, 0.0), 2.0));
        let in_range: Vec<Tuple> =
            data.iter().filter(|t| region.contains(t.location())).cloned().collect();
        let oracle = crate::algo::oracle::skyline_indices(&in_range);
        assert_eq!(sky(&data, &region), crate::algo::materialize(&in_range, &oracle));
    }

    #[test]
    fn global_skyline_dedups_overlapping_partitions() {
        let shared = Tuple::new(1.0, 1.0, vec![1.0, 1.0]);
        let p1 = [shared.clone(), Tuple::new(2.0, 2.0, vec![5.0, 0.5])];
        let union: Vec<Tuple> = p1.iter().chain([&shared]).cloned().collect();
        assert_eq!(sky(&union, &QueryRegion::unbounded()), p1);
    }

    #[test]
    fn ids_not_locations_identify_sites() {
        // Two ids at one location with equal attributes are two members;
        // one id seen twice is one, the first row kept.
        let (a, b) = (Tuple::new(0.0, 0.0, vec![1.0, 2.0]), Tuple::new(0.0, 0.0, vec![1.0, 2.0]));
        let later = Tuple::new(5.0, 5.0, vec![0.0, 0.0]);
        let rows = [(TupleId(1, 0), &a), (TupleId(2, 0), &b), (TupleId(1, 0), &later)];
        let ids: Vec<TupleId> =
            skyline(rows, &QueryRegion::unbounded()).into_iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![TupleId(1, 0), TupleId(2, 0)]);
    }
}
