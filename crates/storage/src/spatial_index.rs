//! Spatially indexed storage — the "what if the device *did* have an
//! index?" ablation.
//!
//! The paper evaluates flat and hybrid storage under the assumption that
//! "no extra index is used" on a mobile device (Section 5.1). This model
//! drops that assumption: sites are indexed by an STR-packed R-tree over
//! their locations, so the spatial constraint is answered in
//! `O(log n + k)` instead of a full scan, and the skyline then runs
//! SFS-style over the `k` in-range tuples only. The `storage_ablation`
//! bench quantifies how much the paper's no-index assumption costs for
//! small query radii — and how little for unbounded queries, where the
//! index degenerates to a scan with extra overhead.

use skyline_core::dominance::dominates;
use skyline_core::region::{Mbr, Point, QueryRegion};
use skyline_core::rtree::{NdBox, RTree};
use skyline_core::vdr::{select_filter, FilterTuple, UpperBounds};
use skyline_core::Tuple;

use crate::traits::{
    DeviceRelation, LocalQuery, LocalSkylineOutcome, LocalStats, SkipCause, StorageModel,
};

/// A local relation with a spatial R-tree over site locations.
#[derive(Debug)]
pub struct SpatialRelation {
    tuples: Vec<Tuple>,
    tree: RTree,
    mbr: Mbr,
    dim: usize,
}

impl SpatialRelation {
    /// Builds the relation and its location index.
    pub fn new(tuples: Vec<Tuple>) -> Self {
        let dim = tuples.first().map_or(0, Tuple::dim);
        assert!(tuples.iter().all(|t| t.dim() == dim), "mixed dimensionality in relation");
        let locs: Vec<Vec<f64>> = tuples.iter().map(|t| vec![t.x, t.y]).collect();
        let tree = RTree::bulk_load(&locs);
        let mbr = Mbr::of_points(tuples.iter().map(Tuple::location));
        SpatialRelation { tuples, tree, mbr, dim }
    }

    /// Indices of tuples within the query region, via the R-tree. Counts
    /// candidate visits into `stats` (the index's work measure).
    fn in_range(&self, region: &QueryRegion, stats: &mut LocalStats) -> Vec<usize> {
        if region.radius.is_infinite() {
            stats.tuples_scanned += self.tuples.len() as u64;
            return (0..self.tuples.len()).collect();
        }
        let r2 = region.radius * region.radius;
        let c = region.center;
        let circle_hits_box = |b: &NdBox| {
            // Squared distance from the circle centre to the box.
            let dx = (b.min[0] - c.x).max(0.0).max(c.x - b.max[0]);
            let dy = (b.min[1] - c.y).max(0.0).max(c.y - b.max[1]);
            dx * dx + dy * dy <= r2
        };
        let mut out = Vec::new();
        self.tree.visit_intersecting(circle_hits_box, |p| {
            let i = p as usize;
            stats.tuples_scanned += 1;
            if self.tuples[i].dist2(c) <= r2 {
                out.push(i);
            }
        });
        out
    }
}

impl DeviceRelation for SpatialRelation {
    fn model(&self) -> StorageModel {
        StorageModel::SpatialIndex
    }

    fn len(&self) -> usize {
        self.tuples.len()
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn tuple(&self, i: usize) -> Tuple {
        self.tuples[i].clone()
    }

    fn location(&self, i: usize) -> Point {
        self.tuples[i].location()
    }

    fn mbr(&self) -> Option<Mbr> {
        Some(self.mbr)
    }

    fn lower_bounds(&self) -> Option<Vec<f64>> {
        None // values are unsorted; only the spatial dimension is indexed
    }

    fn upper_bounds(&self) -> Option<UpperBounds> {
        None
    }

    fn storage_bytes(&self) -> usize {
        // Raw tuples + roughly 24 bytes of index per entry (bbox share +
        // entry) — the space cost of dropping the paper's assumption.
        self.tuples.len() * 8 * (self.dim + 2) + self.tuples.len() * 24
    }

    fn local_skyline(&self, query: &LocalQuery) -> LocalSkylineOutcome {
        let mut stats = LocalStats::default();
        if query.region.misses(&self.mbr) {
            return LocalSkylineOutcome::skipped(SkipCause::SpatialMiss);
        }
        let candidates = self.in_range(&query.region, &mut stats);
        stats.in_range = candidates.len() as u64;

        // SFS over the in-range tuples (sum presort → exact single scan).
        let mut order = candidates;
        order.sort_by(|&a, &b| {
            let sa: f64 = self.tuples[a].attrs.iter().sum();
            let sb: f64 = self.tuples[b].attrs.iter().sum();
            sa.total_cmp(&sb).then(a.cmp(&b))
        });
        let mut window: Vec<usize> = Vec::new();
        for i in order {
            let t = &self.tuples[i];
            let mut dominated = false;
            for &w in &window {
                stats.value_comparisons += 1;
                if dominates(&self.tuples[w].attrs, &t.attrs) {
                    dominated = true;
                    break;
                }
            }
            if !dominated {
                window.push(i);
            }
        }

        let unreduced: Vec<Tuple> = window.iter().map(|&i| self.tuples[i].clone()).collect();
        let unreduced_len = unreduced.len();
        let reduced: Vec<Tuple> = if query.has_filters() {
            unreduced.into_iter().filter(|t| !query.eliminates(&t.attrs)).collect()
        } else {
            unreduced
        };
        let filter_candidate: Option<FilterTuple> =
            query.vdr_bounds.as_ref().and_then(|b| select_filter(&reduced, b));

        LocalSkylineOutcome { skyline: reduced, unreduced_len, skip: None, filter_candidate, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_core::region::Point;

    fn grid_data(n: usize) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                Tuple::new(
                    (i % 32) as f64 * 10.0,
                    (i / 32) as f64 * 10.0,
                    vec![((i * 7) % 50) as f64, ((i * 13) % 50) as f64],
                )
            })
            .collect()
    }

    #[test]
    fn matches_flat_on_bounded_queries() {
        let data = grid_data(500);
        let spatial = SpatialRelation::new(data.clone());
        let flat = crate::FlatRelation::new(data);
        for r in [25.0, 80.0, 200.0] {
            let q = LocalQuery::plain(QueryRegion::new(Point::new(100.0, 70.0), r));
            let mut a: Vec<_> = spatial
                .local_skyline(&q)
                .skyline
                .iter()
                .map(|t| (t.x.to_bits(), t.y.to_bits()))
                .collect();
            let mut b: Vec<_> = flat
                .local_skyline(&q)
                .skyline
                .iter()
                .map(|t| (t.x.to_bits(), t.y.to_bits()))
                .collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "radius {r}");
        }
    }

    #[test]
    fn index_visits_fewer_candidates_on_small_radii() {
        let data = grid_data(1000);
        let spatial = SpatialRelation::new(data);
        let q = LocalQuery::plain(QueryRegion::new(Point::new(50.0, 50.0), 30.0));
        let out = spatial.local_skyline(&q);
        assert!(
            out.stats.tuples_scanned < 1000,
            "index should prune ({} visited)",
            out.stats.tuples_scanned
        );
        assert!(out.stats.in_range <= out.stats.tuples_scanned);
    }

    #[test]
    fn unbounded_query_degenerates_to_scan() {
        let data = grid_data(300);
        let spatial = SpatialRelation::new(data);
        let q = LocalQuery::plain(QueryRegion::unbounded());
        let out = spatial.local_skyline(&q);
        assert_eq!(out.stats.tuples_scanned, 300);
        assert!(!out.skyline.is_empty());
    }

    #[test]
    fn mbr_miss_short_circuits() {
        let spatial = SpatialRelation::new(grid_data(100));
        let q = LocalQuery::plain(QueryRegion::new(Point::new(-500.0, -500.0), 10.0));
        assert_eq!(spatial.local_skyline(&q).skip, Some(SkipCause::SpatialMiss));
    }

    #[test]
    fn empty_relation() {
        let spatial = SpatialRelation::new(Vec::new());
        let q = LocalQuery::plain(QueryRegion::unbounded());
        assert!(spatial.local_skyline(&q).skyline.is_empty());
    }
}
