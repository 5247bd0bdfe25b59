//! Property tests: flat and hybrid storage answer every local query
//! identically (modulo tuple order), and the hybrid fast paths (skip
//! checks, ID comparisons) never change answers.

use proptest::prelude::*;
use skyline_core::region::{Point, QueryRegion};
use skyline_core::vdr::{FilterTuple, UpperBounds};
use skyline_core::{DominanceTest, Tuple};

use device_storage::{DeviceRelation, FlatRelation, HybridRelation, LocalQuery, SkipCause};

fn relation(max: usize, dim: usize) -> impl Strategy<Value = Vec<Tuple>> {
    prop::collection::vec(prop::collection::vec(0u8..25, dim), 0..max).prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, attrs)| {
                Tuple::new(
                    (i % 20) as f64,
                    (i / 20) as f64,
                    attrs.into_iter().map(f64::from).collect(),
                )
            })
            .collect()
    })
}

fn query(dim: usize) -> impl Strategy<Value = LocalQuery> {
    (
        0.0f64..20.0,
        0.0f64..5.0,
        prop::option::of((1.0f64..60.0, prop::collection::vec(0u8..25, dim))),
    )
        .prop_map(move |(cx, cy, r_and_filter)| {
            let (radius, filter) = match r_and_filter {
                Some((r, f)) => (
                    r,
                    Some(FilterTuple::new(
                        f.into_iter().map(f64::from).collect(),
                        &UpperBounds::new(vec![25.0; dim]),
                    )),
                ),
                None => (f64::INFINITY, None),
            };
            LocalQuery {
                filter,
                vdr_bounds: Some(UpperBounds::new(vec![25.0; dim])),
                ..LocalQuery::plain(QueryRegion::new(Point::new(cx, cy), radius))
            }
        })
}

fn sorted_keys(tuples: Vec<Tuple>) -> Vec<(u64, u64)> {
    let mut keys: Vec<(u64, u64)> =
        tuples.into_iter().map(|t| (t.x.to_bits(), t.y.to_bits())).collect();
    keys.sort_unstable();
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn all_models_agree(data in relation(50, 3), q in query(3)) {
        let fs = FlatRelation::new(data.clone()).local_skyline(&q);
        let hs = HybridRelation::new(data).local_skyline(&q);

        // The DRR denominator and the work it was counted over agree too,
        // unless a guard let HS answer without scanning.
        match hs.skip {
            None => {
                prop_assert_eq!(hs.unreduced_len, fs.unreduced_len);
                prop_assert_eq!(hs.stats.tuples_scanned, fs.stats.tuples_scanned);
                prop_assert_eq!(hs.stats.in_range, fs.stats.in_range);
            }
            Some(SkipCause::SpatialMiss) => prop_assert_eq!(fs.stats.in_range, 0),
            Some(SkipCause::FilterDominance) => {}
        }
        let vdr = |f: Option<FilterTuple>| f.map(|f| f.vdr);
        prop_assert_eq!(vdr(hs.filter_candidate), vdr(fs.filter_candidate));
        prop_assert_eq!(sorted_keys(hs.skyline), sorted_keys(fs.skyline));
    }

    #[test]
    fn skip_fast_path_is_sound(data in relation(50, 2), q in query(2)) {
        // When hybrid skips (filter dominates the domain minima), the flat
        // answer after filter application must be empty too.
        let hybrid = HybridRelation::new(data.clone());
        let out = hybrid.local_skyline(&q);
        if out.skip == Some(SkipCause::FilterDominance) {
            let flat = FlatRelation::new(data);
            let ref_out = flat.local_skyline(&q);
            prop_assert!(ref_out.skyline.is_empty(),
                "hybrid skipped but flat found {} tuples", ref_out.skyline.len());
        }
    }

    #[test]
    fn paper_strict_scan_is_superset_of_full(data in relation(50, 3)) {
        let hybrid = HybridRelation::new(data);
        let mut q = LocalQuery::plain(QueryRegion::unbounded());
        q.dominance = DominanceTest::Full;
        let full = sorted_keys(hybrid.local_skyline(&q).skyline);
        q.dominance = DominanceTest::PaperStrict;
        let strict = sorted_keys(hybrid.local_skyline(&q).skyline);
        for k in &full {
            prop_assert!(strict.binary_search(k).is_ok(), "strict scan lost a true member");
        }
    }

    #[test]
    fn unreduced_len_bounds_reduced_len(data in relation(50, 2), q in query(2)) {
        let hybrid = HybridRelation::new(data);
        let out = hybrid.local_skyline(&q);
        prop_assert!(out.skyline.len() <= out.unreduced_len);
        if q.filter.is_none() {
            prop_assert_eq!(out.skyline.len(), out.unreduced_len);
        }
    }

    #[test]
    fn storage_round_trip(data in relation(50, 4)) {
        let hybrid = HybridRelation::new(data.clone());

        // Hybrid reorders rows; compare as multisets of attribute vectors.
        let canon = |mut v: Vec<Vec<f64>>| { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); v };
        let src = canon(data.iter().map(|t| t.attrs.to_vec()).collect());
        let h: Vec<Vec<f64>> = (0..hybrid.len()).map(|r| hybrid.tuple(r).attrs.to_vec()).collect();
        prop_assert_eq!(canon(h), src);
    }

    #[test]
    fn stored_locations_and_mbr_match_the_materialized_rows(data in relation(50, 2)) {
        let models: [(&str, Box<dyn DeviceRelation>); 2] = [
            ("flat", Box::new(FlatRelation::new(data.clone()))),
            ("hybrid", Box::new(HybridRelation::new(data.clone()))),
        ];
        let want = skyline_core::region::Mbr::of_points(data.iter().map(Tuple::location));
        for (name, m) in &models {
            for i in 0..m.len() {
                prop_assert_eq!(m.location(i), m.tuple(i).location(), "{} row {}", name, i);
            }
            match m.mbr() {
                None => prop_assert_eq!(*name, "flat"),
                Some(mbr) => prop_assert_eq!(mbr, want),
            }
        }
    }

    #[test]
    fn hybrid_bounds_match_scan(data in relation(50, 3)) {
        prop_assume!(!data.is_empty());
        let hybrid = HybridRelation::new(data.clone());
        let lower = hybrid.lower_bounds().unwrap();
        let upper = hybrid.upper_bounds().unwrap().0;
        for j in 0..3 {
            let min = data.iter().map(|t| t.attrs[j]).fold(f64::INFINITY, f64::min);
            let max = data.iter().map(|t| t.attrs[j]).fold(f64::NEG_INFINITY, f64::max);
            prop_assert_eq!(lower[j], min);
            prop_assert_eq!(upper[j], max);
        }
    }
}
