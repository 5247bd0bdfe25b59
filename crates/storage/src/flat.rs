//! Flat storage (FS): the baseline the paper compares against.
//!
//! Tuples are stored sequentially with raw attribute values, no sort order,
//! no domain arrays, no MBR. Every local skyline query is a BNL scan over
//! raw values with an inline spatial check, exactly as the paper evaluates
//! FS ("For the FS scheme, we use the simple BNL algorithm since no
//! multi-dimensional index or sort order is assumed to be available").

use skyline_core::dominance::dominates;
use skyline_core::vdr::{select_filter, FilterTuple, UpperBounds};
use skyline_core::{Point, Tuple};

use crate::traits::{DeviceRelation, LocalQuery, LocalSkylineOutcome, LocalStats, StorageModel};

/// A local relation in flat storage.
#[derive(Debug, Clone, Default)]
pub struct FlatRelation {
    tuples: Vec<Tuple>,
    dim: usize,
}

impl FlatRelation {
    /// Builds a flat relation. All tuples must share one dimensionality.
    pub fn new(tuples: Vec<Tuple>) -> Self {
        let dim = tuples.first().map_or(0, Tuple::dim);
        assert!(tuples.iter().all(|t| t.dim() == dim), "mixed dimensionality in relation");
        FlatRelation { tuples, dim }
    }

    /// Read access to the raw tuples.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }
}

impl DeviceRelation for FlatRelation {
    fn model(&self) -> StorageModel {
        StorageModel::Flat
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

    /// Flat storage keeps no domain arrays: bounds would cost a full scan,
    /// which is exactly why the paper's skip check needs hybrid storage.
    fn lower_bounds(&self) -> Option<Vec<f64>> {
        None
    }

    fn upper_bounds(&self) -> Option<UpperBounds> {
        None
    }

    fn storage_bytes(&self) -> usize {
        // (x, y) + n raw f64 attributes per tuple.
        self.tuples.len() * 8 * (self.dim + 2)
    }

    fn local_skyline(&self, query: &LocalQuery) -> LocalSkylineOutcome {
        let mut stats = LocalStats::default();
        let r2 = query.region.radius * query.region.radius;
        let center = query.region.center;

        // BNL over the in-range tuples, raw-value comparisons throughout.
        let mut window: Vec<usize> = Vec::new();
        for (i, t) in self.tuples.iter().enumerate() {
            stats.tuples_scanned += 1;
            if !query.region.radius.is_infinite() && t.dist2(center) > r2 {
                continue;
            }
            stats.in_range += 1;
            let mut dominated = false;
            window.retain(|&w| {
                if dominated {
                    return true;
                }
                stats.value_comparisons += 1;
                if dominates(&self.tuples[w].attrs, &t.attrs) {
                    dominated = true;
                    true
                } else {
                    stats.value_comparisons += 1;
                    !dominates(&t.attrs, &self.tuples[w].attrs)
                }
            });
            if !dominated {
                window.push(i);
            }
        }

        let unreduced: Vec<Tuple> = window.iter().map(|&i| self.tuples[i].clone()).collect();
        let unreduced_len = unreduced.len();

        // Apply the filtering tuple after the scan (Fig. 4 order), then pick
        // the best local filter candidate from the survivors.
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
    use skyline_core::region::{Point, QueryRegion};

    fn rel() -> FlatRelation {
        FlatRelation::new(vec![
            Tuple::new(0.0, 0.0, vec![20.0, 7.0]),
            Tuple::new(3.0, 0.0, vec![40.0, 5.0]),
            Tuple::new(0.0, 4.0, vec![80.0, 7.0]),
            Tuple::new(50.0, 50.0, vec![1.0, 1.0]), // far away
        ])
    }

    #[test]
    fn local_skyline_respects_range() {
        let q = LocalQuery::plain(QueryRegion::new(Point::new(0.0, 0.0), 5.0));
        let out = rel().local_skyline(&q);
        // (1,1) is out of range; (80,7) is dominated by (20,7).
        assert_eq!(out.skyline.len(), 2);
        assert_eq!(out.unreduced_len, 2);
        assert_eq!(out.skip, None);
        assert_eq!(out.stats.in_range, 3);
        assert_eq!(out.stats.tuples_scanned, 4);
    }

    #[test]
    fn filter_reduces_transmission_set() {
        let bounds = UpperBounds::new(vec![200.0, 10.0]);
        let q = LocalQuery {
            filter: Some(FilterTuple::new(vec![10.0, 2.0], &bounds)),
            vdr_bounds: Some(bounds),
            ..LocalQuery::plain(QueryRegion::unbounded())
        };
        let out = rel().local_skyline(&q);
        // Unbounded region: (1,1) dominates every other tuple, so the
        // unreduced skyline is just {(1,1)} — which the filter (10,2) does
        // not dominate.
        assert_eq!(out.unreduced_len, 1);
        assert_eq!(out.skyline.len(), 1);
        assert_eq!(out.skyline[0].attrs, vec![1.0, 1.0]);
        let cand = out.filter_candidate.expect("bounds were provided");
        assert_eq!(cand.attrs, vec![1.0, 1.0]);
    }

    #[test]
    fn no_bounds_no_candidate() {
        let q = LocalQuery::plain(QueryRegion::unbounded());
        let out = rel().local_skyline(&q);
        assert!(out.filter_candidate.is_none());
    }

    #[test]
    fn flat_offers_no_constant_time_bounds() {
        let r = rel();
        assert!(r.lower_bounds().is_none());
        assert!(r.upper_bounds().is_none());
    }

    #[test]
    fn storage_bytes_are_raw() {
        assert_eq!(rel().storage_bytes(), 4 * 8 * 4);
    }

    #[test]
    #[should_panic(expected = "mixed dimensionality")]
    fn mixed_dims_rejected() {
        FlatRelation::new(vec![
            Tuple::new(0.0, 0.0, vec![1.0]),
            Tuple::new(1.0, 0.0, vec![1.0, 2.0]),
        ]);
    }

    #[test]
    fn empty_relation() {
        let r = FlatRelation::new(vec![]);
        let out = r.local_skyline(&LocalQuery::plain(QueryRegion::unbounded()));
        assert!(out.skyline.is_empty());
        assert!(r.is_empty());
    }
}
