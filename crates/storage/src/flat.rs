//! Flat storage (FS): the baseline the paper compares against.
//!
//! Tuples are stored sequentially with raw attribute values, no sort order,
//! no domain arrays, no MBR. Every local skyline query is a BNL scan over
//! raw values with an inline spatial check, exactly as the paper evaluates
//! FS ("For the FS scheme, we use the simple BNL algorithm since no
//! multi-dimensional index or sort order is assumed to be available").

use skyline_core::algo::bnl;
use skyline_core::vdr::{select_filter, FilterTuple, UpperBounds};
use skyline_core::{Point, Tuple};

use crate::traits::{DeviceRelation, LocalQuery, LocalSkylineOutcome, LocalStats};

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
}

impl DeviceRelation for FlatRelation {
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
        let r2 = query.region.radius * query.region.radius;
        let center = query.region.center;
        let bounded = !query.region.radius.is_infinite();
        let outside = |t: &Tuple| bounded && t.dist2(center) > r2;

        // BNL over the in-range tuples, raw-value comparisons throughout.
        let mut in_range = 0;
        let rows = (self.tuples.iter().enumerate())
            .filter(|(_, t)| !outside(t))
            .inspect(|_| in_range += 1)
            .map(|(i, t)| (i, t.attrs.as_slice()));
        let (window, value_comparisons) = bnl::skyline_counted(rows);
        let stats = LocalStats {
            tuples_scanned: self.tuples.len() as u64,
            in_range,
            value_comparisons,
            ..LocalStats::default()
        };

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

    /// `n` seeded tuples on a 1000 m square, integer attributes in
    /// `[0, 999]`: independent when `anti` is false, near the plane
    /// `Σ attrs ≈ d · 500` otherwise.
    fn seeded(n: usize, dim: usize, anti: bool, seed: u64) -> Vec<Tuple> {
        let mut state = seed;
        let mut unit = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        (0..n)
            .map(|_| {
                let (x, y) = (unit() * 1000.0, unit() * 1000.0);
                let raw: Vec<f64> = (0..dim).map(|_| unit()).collect();
                let plane = if anti {
                    dim as f64 * (0.45 + 0.1 * unit()) / raw.iter().sum::<f64>()
                } else {
                    1.0
                };
                let attrs = raw.iter().map(|v| (v * plane * 1000.0).floor().min(999.0));
                Tuple::new(x, y, attrs.collect())
            })
            .collect()
    }

    /// FNV-1a over the returned tuples' sites, in the order returned.
    fn site_digest(sky: &[Tuple]) -> u64 {
        sky.iter()
            .flat_map(|t| [t.x.to_bits(), t.y.to_bits()])
            .fold(0xcbf2_9ce4_8422_2325, |h, w| (h ^ w).wrapping_mul(0x0000_0100_0000_01b3))
    }

    #[test]
    fn scan_stats_and_sites_are_pinned() {
        // (tuples_scanned, in_range, value_comparisons, unreduced_len,
        // returned length, site digest) per (distribution, d, bounded,
        // filtered), recorded with the scan's own inline BNL loop.
        let pinned = [
            (false, 2, false, false, [1500, 1500, 3230, 7, 7, 0x982cc01973293add]),
            (false, 2, false, true, [1500, 1500, 3230, 7, 7, 0x982cc01973293add]),
            (false, 2, true, false, [1500, 1157, 2516, 6, 6, 0x5de813ad6690e495]),
            (false, 2, true, true, [1500, 1157, 2516, 6, 6, 0x5de813ad6690e495]),
            (false, 3, false, false, [1500, 1500, 9270, 24, 24, 0x75e7c0acdcaed6e5]),
            (false, 3, false, true, [1500, 1500, 9270, 24, 24, 0x75e7c0acdcaed6e5]),
            (false, 3, true, false, [1500, 1210, 6633, 22, 22, 0x8e17e5c4dfdfef15]),
            (false, 3, true, true, [1500, 1210, 6633, 22, 22, 0x8e17e5c4dfdfef15]),
            (false, 4, false, false, [1500, 1500, 42575, 92, 92, 0x07d8ce373df06f85]),
            (false, 4, false, true, [1500, 1500, 42575, 92, 92, 0x07d8ce373df06f85]),
            (false, 4, true, false, [1500, 1193, 40459, 104, 104, 0x5a743843e79cd365]),
            (false, 4, true, true, [1500, 1193, 40459, 104, 104, 0x5a743843e79cd365]),
            (false, 5, false, false, [1500, 1500, 165716, 235, 235, 0xa2398df6cb01a37d]),
            (false, 5, false, true, [1500, 1500, 165716, 235, 233, 0xb25ac939f6659e2d]),
            (false, 5, true, false, [1500, 1183, 112844, 211, 211, 0xc8f1b06d7800bdbd]),
            (false, 5, true, true, [1500, 1183, 112844, 211, 209, 0x2c260b29356d346d]),
            (true, 2, false, false, [1500, 1500, 45261, 90, 90, 0x78b138d072b9cdb5]),
            (true, 2, false, true, [1500, 1500, 45261, 90, 74, 0xee942dffd679f335]),
            (true, 2, true, false, [1500, 1175, 34318, 86, 86, 0x1b3e8ad14a171915]),
            (true, 2, true, true, [1500, 1175, 34318, 86, 72, 0x90cdd117ced6ae65]),
            (true, 3, false, false, [1500, 1500, 371200, 390, 390, 0x277e4985dfe8e095]),
            (true, 3, false, true, [1500, 1500, 371200, 390, 370, 0x183b315694359575]),
            (true, 3, true, false, [1500, 1191, 266010, 329, 329, 0xaa8631493101e52d]),
            (true, 3, true, true, [1500, 1191, 266010, 329, 311, 0xad3bb8c8974bee5d]),
            (true, 4, false, false, [1500, 1500, 1144982, 849, 849, 0xdebdba59c88c386d]),
            (true, 4, false, true, [1500, 1500, 1144982, 849, 832, 0x92a0ffc2dadee525]),
            (true, 4, true, false, [1500, 1175, 747598, 686, 686, 0x47da4fc3ca323ad5]),
            (true, 4, true, true, [1500, 1175, 747598, 686, 674, 0xbde04f83883d6cf5]),
            (true, 5, false, false, [1500, 1500, 1868278, 1251, 1251, 0x7c08dbc1f0dc7c3d]),
            (true, 5, false, true, [1500, 1500, 1868278, 1251, 1243, 0x996a4f6f7a6f04fd]),
            (true, 5, true, false, [1500, 1164, 1177996, 1010, 1010, 0x34686960fc413975]),
            (true, 5, true, true, [1500, 1164, 1177996, 1010, 1003, 0xd528fd7af4305b7d]),
        ];
        let mut got = Vec::new();
        for anti in [false, true] {
            for dim in 2..=5 {
                let rel = FlatRelation::new(seeded(1500, dim, anti, 2006 + dim as u64));
                for bounded in [false, true] {
                    let region = if bounded {
                        QueryRegion::new(Point::new(500.0, 500.0), 500.0)
                    } else {
                        QueryRegion::unbounded()
                    };
                    for filtered in [false, true] {
                        let bounds = UpperBounds::new(vec![1000.0; dim]);
                        let corner = vec![if anti { 400.0 } else { 150.0 }; dim];
                        let q = LocalQuery {
                            filter: filtered.then(|| FilterTuple::new(corner, &bounds)),
                            vdr_bounds: filtered.then_some(bounds),
                            ..LocalQuery::plain(region)
                        };
                        let out = rel.local_skyline(&q);
                        let s = out.stats;
                        got.push((
                            anti,
                            dim,
                            bounded,
                            filtered,
                            [
                                s.tuples_scanned,
                                s.in_range,
                                s.value_comparisons,
                                out.unreduced_len as u64,
                                out.skyline.len() as u64,
                                site_digest(&out.skyline),
                            ],
                        ));
                    }
                }
            }
        }
        assert_eq!(got, pinned);
    }

    #[test]
    fn empty_relation() {
        let r = FlatRelation::new(vec![]);
        let out = r.local_skyline(&LocalQuery::plain(QueryRegion::unbounded()));
        assert!(out.skyline.is_empty());
        assert!(r.is_empty());
    }
}
